"""Command-line entry point wiring the whole pipeline.

Verbs: analyze, build-dataset, train, prune, evaluate, simulate, experiment.
Every verb is reproducible from its flags plus seed; a manifest capturing
both is written next to each output: `<output>.manifest.json` beside a
single-file output, `run-manifest.json` inside a bundle directory.  A verb
returns the contents of its files, and `main` writes them and the manifest
only once the verb has succeeded.  Before any work, `main` refuses an output
that cannot be written, or that exists without --force.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dataset, featstats, netsim, scenarios, selector, traceio, treelearn


# Files a verb writes into its --output directory; other verbs write --output.
_BUNDLES = {"simulate": netsim.BUNDLE_FILES, "experiment": netsim.SUITE_FILES}


def _outputs(args) -> list[Path]:
    """The paths a verb writes, in order, its manifest last: a bundle verb's files
    and run-manifest.json inside --output, else --output and <output>.manifest.json."""
    if "output" not in vars(args):   # evaluate writes no file
        return []
    out = Path(args.output)
    names = _BUNDLES.get(args.verb)
    if names:
        return [out / name for name in names] + [out / "run-manifest.json"]
    return [out, out.with_name(out.name + ".manifest.json")]


def _check_output(path: Path, force: bool):
    """Refuse, before any work, a path that cannot be written or that exists without --force."""
    if path.is_dir():
        raise RuntimeError(f"cannot write {path}: it is a directory")
    ancestor = next(parent for parent in path.parents if parent.exists())
    if not ancestor.is_dir():
        raise RuntimeError(f"cannot write {path}: {ancestor} is not a directory")
    if path.exists() and not force:
        raise RuntimeError(f"refusing to overwrite {path} (use --force)")


def _read_input(path: str, parse):
    """parse applied to an input file's text: UTF-8, with or without a byte-order
    mark.  A ValueError from decoding or parsing is raised again naming the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write_output(path: Path, content: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _metrics_line(m: treelearn.EvalMetrics) -> str:
    return (f"accuracy={m.accuracy:.4f} precision={m.precision:.4f} "
            f"recall={m.recall:.4f} f1={m.f1:.4f}")


def cmd_analyze(args) -> tuple[str, ...]:
    samples = _read_input(args.input, traceio.parse_trace)
    if not samples:   # correlation_table refuses it too, but cannot name the file
        raise ValueError(f"{args.input}: no samples below the header")
    rows = featstats.correlation_table(samples, grouped_by_prio=args.grouped,
                                       min_count=args.min_count)
    return (featstats.correlation_table_csv(rows),)


def cmd_build_dataset(args) -> tuple[str, ...]:
    samples = _read_input(args.input, traceio.parse_trace)
    records = dataset.build_dataset(samples, window=args.pair_window)
    return (dataset.records_to_csv(records),)


def cmd_train(args) -> tuple[str, ...]:
    if args.trees < 1:
        raise ValueError(f"--trees must be at least 1, got {args.trees}")
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    records = _read_input(args.input, dataset.records_from_csv)
    params = treelearn.TreeParams(max_depth=args.max_depth, min_leaf=args.min_leaf,
                                  min_igr=args.min_igr)

    def learner(train):
        if args.trees > 1:
            return treelearn.train_forest(train, n_trees=args.trees, params=params,
                                          seed=args.seed)
        return treelearn.build_tree(train, params)

    if args.folds:
        mean = treelearn.kfold_evaluate(records, learner, k=args.folds, seed=args.seed)
        print(f"{args.folds}-fold: {_metrics_line(mean)}")
    return (treelearn.serialize_model(learner(records)),)


def cmd_prune(args) -> tuple[str, ...]:
    model = _read_input(args.model, treelearn.deserialize_model)
    validation = _read_input(args.validation, dataset.records_from_csv)
    pruned = treelearn.prune_model(model, validation)
    return (treelearn.serialize_model(pruned),)


def cmd_evaluate(args) -> tuple[str, ...]:
    model = _read_input(args.model, treelearn.deserialize_model)
    records = _read_input(args.input, dataset.records_from_csv)
    print(_metrics_line(treelearn.evaluate(model, records)))
    return ()


def cmd_simulate(args) -> tuple[str, ...]:
    policy = args.selector.upper()
    if args.model and policy != selector.SMARTPS:
        raise ValueError(f"--model goes only with --selector smartps, "
                         f"not --selector {args.selector}")
    scenario = _read_input(args.scenario, traceio.parse_scenario)
    model = None
    if policy == selector.SMARTPS:
        model = (_read_input(args.model, treelearn.deserialize_model) if args.model
                 else scenarios.pretrained_model())
    report = netsim.run_case(scenario, policy, args.seed, model)
    return tuple(report.to_csv_bundle().values())


def cmd_experiment(args) -> tuple[str, ...]:
    rows = netsim.run_suite(scenarios.evaluation_suite(duration=args.duration),
                            (selector.SMARTPS, selector.MINRTT, selector.RR),
                            args.seed, args.seeds,
                            scenarios.pretrained_model())
    bundle = netsim.suite_csv_bundle(rows)
    print(bundle["summary.csv"], end="")
    return tuple(bundle.values())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smartps",
                                     description="Cross-layer path selection pipeline")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="correlation table of a trace")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--grouped", action="store_true")
    p.add_argument("--min-count", type=int, default=10, dest="min_count")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("build-dataset", help="pair and label a trace")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--pair-window", type=float, default=dataset.DEFAULT_PAIR_WINDOW,
                   dest="pair_window")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train", help="train a tree or forest")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--trees", type=int, default=1)
    tree = treelearn.TreeParams()
    p.add_argument("--max-depth", type=int, default=tree.max_depth, dest="max_depth")
    p.add_argument("--min-leaf", type=int, default=tree.min_leaf, dest="min_leaf")
    p.add_argument("--min-igr", type=float, default=tree.min_igr, dest="min_igr")
    p.add_argument("--folds", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune", help="reduced-error pruning")
    p.add_argument("--model", required=True)
    p.add_argument("--validation", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("evaluate", help="evaluate a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="run one simulation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--selector", required=True,
                   choices=[policy.lower() for policy in selector.POLICIES])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--output", default="simout")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="full policy comparison over the suite")
    p.add_argument("--output", default="experiment")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        paths = _outputs(args)
        for path in paths:
            _check_output(path, args.force)
        contents = args.func(args)
        if paths:
            manifest = {k: v for k, v in vars(args).items() if k != "func"}
            for path, content in zip(paths, (*contents, json.dumps(manifest, indent=2) + "\n"),
                                     strict=True):
                _write_output(path, content)
        return 0
    except (ValueError, RuntimeError, OSError) as exc:  # smartps errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
