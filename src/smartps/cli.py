"""Command-line entry point wiring the whole pipeline.

Verbs: analyze, build-dataset, train, prune, evaluate, simulate, experiment.
Every verb is reproducible from its flags plus seed; a manifest capturing
both is written next to each output: `<output>.manifest.json` beside a
single-file output, `run-manifest.json` inside a bundle directory.  Existing
outputs are never overwritten without --force, and a verb checks for them
before it does any work.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dataset, featstats, netsim, scenarios, selector, traceio, treelearn


# Files a verb writes into its --output directory; other verbs write --output.
_BUNDLES = {"simulate": netsim.BUNDLE_FILES, "experiment": netsim.SUITE_FILES}


def _refuse_existing(args):
    """Stop before any work if an output of the verb exists and --force is not given."""
    out = Path(args.output)
    names = _BUNDLES.get(args.verb)
    for path in [out / name for name in names] if names else [out]:
        if path.exists() and not args.force:
            raise RuntimeError(f"refusing to overwrite {path} (use --force)")


def _read_input(path: str) -> str:
    """An input file's text: UTF-8, with or without a byte-order mark."""
    return Path(path).read_text(encoding="utf-8-sig")


def _write_output(path: Path, content: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _write_manifest(path: Path, args: argparse.Namespace):
    manifest = {k: v for k, v in vars(args).items() if k != "func"}
    _write_output(path, json.dumps(manifest, indent=2) + "\n")


def _write_single(args, content: str) -> int:
    """Write a verb's one output to --output and its manifest next to it."""
    out = Path(args.output)
    _write_output(out, content)
    _write_manifest(out.with_name(out.name + ".manifest.json"), args)
    return 0


def _write_bundle(args, bundle: dict[str, str]):
    """Write each file of a verb's bundle into --output, then its run-manifest.json."""
    out_dir = Path(args.output)
    for name, content in bundle.items():
        _write_output(out_dir / name, content)
    _write_manifest(out_dir / "run-manifest.json", args)


def _metrics_line(m: treelearn.EvalMetrics) -> str:
    return (f"accuracy={m.accuracy:.4f} precision={m.precision:.4f} "
            f"recall={m.recall:.4f} f1={m.f1:.4f}")


def cmd_analyze(args) -> int:
    samples = traceio.parse_trace(_read_input(args.input))
    rows = featstats.correlation_table(samples, grouped_by_prio=args.grouped,
                                       min_count=args.min_count)
    return _write_single(args, featstats.correlation_table_csv(rows))


def cmd_build_dataset(args) -> int:
    samples = traceio.parse_trace(_read_input(args.input))
    records = dataset.build_dataset(samples, window=args.pair_window)
    return _write_single(args, dataset.records_to_csv(records))


def cmd_train(args) -> int:
    if args.trees < 1:
        raise ValueError(f"--trees must be at least 1, got {args.trees}")
    records = dataset.records_from_csv(_read_input(args.input))
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
    return _write_single(args, treelearn.serialize_model(learner(records)))


def cmd_prune(args) -> int:
    model = treelearn.deserialize_model(_read_input(args.model))
    validation = dataset.records_from_csv(_read_input(args.validation))
    pruned = treelearn.prune_model(model, validation)
    return _write_single(args, treelearn.serialize_model(pruned))


def cmd_evaluate(args) -> int:
    model = treelearn.deserialize_model(_read_input(args.model))
    records = dataset.records_from_csv(_read_input(args.input))
    print(_metrics_line(treelearn.evaluate(model, records)))
    return 0


def cmd_simulate(args) -> int:
    policy = args.selector.upper()
    if args.model and policy != selector.SMARTPS:
        raise ValueError(f"--model goes only with --selector smartps, "
                         f"not --selector {args.selector}")
    scenario = traceio.parse_scenario(_read_input(args.scenario))
    model = None
    if policy == selector.SMARTPS:
        model = (treelearn.deserialize_model(_read_input(args.model)) if args.model
                 else scenarios.pretrained_model())
    report = netsim.run_case(scenario, policy, args.seed, model)
    _write_bundle(args, report.to_csv_bundle())
    return 0


def cmd_experiment(args) -> int:
    rows = netsim.run_suite(scenarios.evaluation_suite(duration=args.duration),
                            (selector.SMARTPS, selector.MINRTT, selector.RR),
                            args.seed, args.seeds,
                            scenarios.pretrained_model())
    bundle = netsim.suite_csv_bundle(rows)
    _write_bundle(args, bundle)
    print(bundle["summary.csv"], end="")
    return 0


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
        if "output" in vars(args):   # every verb but evaluate writes files
            _refuse_existing(args)
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:  # smartps errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
