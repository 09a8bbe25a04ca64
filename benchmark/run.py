#!/usr/bin/env python3
"""smartps benchmark: three closed-loop workloads driven through the CLI and API.

Usage (from the repository root):

    python3 benchmark/run.py --workload {suite,learn,serve} --seed N \\
        --seconds S --trace {0,1}

One process runs one item at a time.  After set-up (repeated at least five
times and for at least five seconds, median reported) the workload's item is
repeated while the next one still fits in ``--seconds``; every item of a run
uses the same seeded inputs, so each must produce byte-identical outputs.
``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` sets up once under tracing, alternates untraced and traced
items, and reports the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object.  Workload sizes and the
reasons for each workload are in ``workloads.json`` next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from spans import Tracer, nearest_rank, tail_level
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
OUT = HERE / "_out"
IMPORT_REPS = 3
SETUP_REPS = 5       # set-up runs at least this often ...
SETUP_MIN_S = 5.0    # ... and until this many seconds have passed
SAMPLING_INTERVAL = 0.1   # seconds between synthesized trace rows
POLICIES = ("SMARTPS", "MINRTT", "RR")


def load_smartps():
    """Import the smartps package from this checkout's src/, and only there."""
    src = ROOT / "src"
    if not (src / "smartps" / "__init__.py").is_file():
        raise ImportError(f"no smartps package under {src}")
    sys.path.insert(0, str(src))
    import smartps
    from smartps import (cli, dataset, featstats, netsim, scenarios, selector,
                         traceio, treelearn)
    if not Path(smartps.__file__).resolve().is_relative_to(src):
        raise ImportError(f"smartps was imported from {smartps.__file__}, not {src}")
    return argparse.Namespace(cli=cli, dataset=dataset, featstats=featstats,
                              netsim=netsim, scenarios=scenarios, selector=selector,
                              traceio=traceio, treelearn=treelearn,
                              pretrained_cache=scenarios.pretrained_model)


def time_imports() -> tuple[float, float]:
    """(start, seconds) of importing numpy and smartps in a fresh interpreter.

    A run can import only once in its own process, and that one import is
    the noisiest part of set-up, so it is timed in child processes instead.
    """
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import numpy, smartps.cli; print(time.perf_counter() - t)")
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                         check=True, capture_output=True, text=True).stdout
    return t0, float(out)


def call_cli(sm, argv: list[str]) -> tuple[int | None, str]:
    """Run one CLI verb in-process; (exit code or None if it raised, stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = sm.cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = None
    return rc, buf.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def forest_nodes(sm, model) -> int:
    trees = model.trees if isinstance(model, sm.treelearn.ForestModel) else (model,)
    return sum(sm.treelearn.node_count(t) for t in trees)


@dataclass
class Item:
    """Checked outcome of one timed item."""

    ops: int = 0
    problems: dict[str, list[str]] = field(default_factory=dict)  # op -> failures
    digests: dict[str, str] = field(default_factory=dict)
    figures: dict[str, float] = field(default_factory=dict)
    conn_s: float = 0.0   # connection-seconds simulated

    def op(self, name: str, *failures: str) -> None:
        self.ops += 1
        found = [f for f in failures if f]
        if found:
            self.problems[name] = found

    @property
    def failed(self) -> int:
        return len(self.problems)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Suite:
    """`smartps experiment` over the 20-scenario suite, three policies."""

    def __init__(self, sm, seed: int, size: dict):
        self.sm, self.seed, self.size = sm, seed, size
        self.model_nodes = 0

    def setup(self) -> None:
        self.sm.pretrained_cache.cache_clear()
        model = self.sm.scenarios.pretrained_model()
        self.model_nodes = forest_nodes(self.sm, model)

    def run(self, tmp: Path):
        out = tmp / "experiment"
        rc, _ = call_cli(self.sm, [
            "experiment", "--output", str(out), "--seed", str(self.seed),
            "--seeds", str(self.size["seeds"]), "--duration", str(self.size["duration"])])
        return rc, out

    def check(self, raw) -> Item:
        rc, out = raw
        item = Item()
        if rc != 0:
            item.op("experiment", f"exited {rc}")
            return item
        runs_text = (out / "runs.csv").read_text()
        summary_text = (out / "summary.csv").read_text()
        item.digests = {"runs.csv": sha256(runs_text), "summary.csv": sha256(summary_text)}
        rows = [ln.split(",") for ln in runs_text.splitlines()[1:]]
        expected = len(POLICIES) * 20 * self.size["seeds"]
        problems = []
        if len(rows) != expected:
            problems.append(f"runs.csv has {len(rows)} rows, expected {expected}")
        ag: dict[str, list[float]] = {p: [] for p in POLICIES}
        ad: dict[str, list[float]] = {p: [] for p in POLICIES}
        for pol, scn, seed, goodput, ad50 in rows:
            g = float(goodput)
            if not (math.isfinite(g) and g > 0):
                problems.append(f"{pol} {scn} seed {seed}: goodput {goodput}")
            ag[pol].append(g)
            if not math.isnan(float(ad50)):
                ad[pol].append(float(ad50))
        summary = {}
        for line in summary_text.splitlines()[1:]:
            pol, ag50, ad50 = line.split(",")
            summary[pol] = (float(ag50), float(ad50))
            if abs(nearest_rank(ag[pol], 50) - float(ag50)) > 1e-4:
                problems.append(f"summary {pol} ag_p50 {ag50} disagrees with runs.csv")
            if ad[pol] and abs(nearest_rank(ad[pol], 50) - float(ad50)) > 1e-3:
                problems.append(f"summary {pol} ad_p50 {ad50} disagrees with runs.csv")
        if set(summary) != set(POLICIES):
            problems.append(f"summary.csv policies {sorted(summary)}")
        item.op("experiment", *problems)
        if not problems:
            item.figures = {
                "ag_ratio": summary["SMARTPS"][0] / summary["MINRTT"][0],
                "ad_ratio": summary["SMARTPS"][1] / summary["MINRTT"][1]}
        item.conn_s = len(rows) * self.size["duration"]
        return item


def learn_trace(sm, seed: int, n_scenarios: int, duration: float):
    """Seeded trace cycling through the four scenario families, back to back."""
    sc = sm.scenarios
    rng = random.Random(seed)
    samples = []
    for i in range(n_scenarios):
        scn_seed = seed * 1009 + i
        family = i % 4
        if family == 0:
            scn = sc.walkaway(scn_seed, duration, rssi_start=rng.uniform(-45.0, -30.0),
                              rssi_end=rng.uniform(-95.0, -80.0))
        elif family == 1:
            a = rng.uniform(0.1, 0.5) * duration
            scn = sc.interference_burst(
                scn_seed, duration, bursts=((a, a + rng.uniform(0.2, 0.4) * duration),))
        elif family == 2:
            scn = sc.oscillating(scn_seed, duration, period=rng.uniform(6.0, 20.0))
        else:
            scn = sc.stable(scn_seed, duration)
        offset = i * duration
        samples.extend(replace(s, t=round(s.t + offset, 6))
                       for s in sm.traceio.synthesize_trace(scn, SAMPLING_INTERVAL))
    return samples


class Learn:
    """analyze -> build-dataset -> train -> prune -> evaluate on synthesized traces."""

    VERBS = ("analyze", "build-dataset", "train", "prune", "evaluate")

    def __init__(self, sm, seed: int, size: dict):
        self.sm, self.seed, self.size = sm, seed, size
        self.inputs = Path(tempfile.mkdtemp(dir=WORK, prefix="learn-inputs-"))
        self.model_nodes = 0
        self.rows = 0

    def setup(self) -> None:
        sm, size = self.sm, self.size
        train = learn_trace(sm, self.seed, size["scenarios"], size["scenario_s"])
        holdout = learn_trace(sm, self.seed + 1, size["holdout_scenarios"],
                              size["scenario_s"])
        (self.inputs / "trace.csv").write_text(sm.traceio.write_trace(train))
        records = sm.dataset.build_dataset(holdout)
        (self.inputs / "validation.csv").write_text(
            sm.dataset.records_to_csv(records[0::2]))
        (self.inputs / "test.csv").write_text(sm.dataset.records_to_csv(records[1::2]))
        self.rows = len(train)

    def run(self, tmp: Path):
        inp, size = self.inputs, self.size
        argv = {
            "analyze": ["--input", str(inp / "trace.csv"), "--output", str(tmp / "corr.csv")],
            "build-dataset": ["--input", str(inp / "trace.csv"),
                              "--output", str(tmp / "records.csv")],
            "train": ["--input", str(tmp / "records.csv"), "--output", str(tmp / "model.txt"),
                      "--trees", str(size["trees"]), "--folds", str(size["folds"]),
                      "--seed", str(self.seed)],
            "prune": ["--model", str(tmp / "model.txt"),
                      "--validation", str(inp / "validation.csv"),
                      "--output", str(tmp / "pruned.txt")],
            "evaluate": ["--model", str(tmp / "pruned.txt"), "--input", str(inp / "test.csv")],
        }
        results = {}
        for verb in self.VERBS:
            results[verb] = call_cli(self.sm, [verb] + argv[verb])
            if results[verb][0] != 0:
                break
        return tmp, results

    def _round_trip(self, text: str) -> str:
        tl = self.sm.treelearn
        return "" if tl.serialize_model(tl.deserialize_model(text)) == text \
            else "model does not round-trip byte-identically"

    def check(self, raw) -> Item:
        tmp, results = raw
        item = Item()
        texts = {}
        for verb in self.VERBS:
            rc, stdout = results.get(verb, (None, ""))
            if rc != 0:
                item.op(verb, "not run" if verb not in results else f"exited {rc}")
                continue
            if verb == "analyze":
                texts["corr.csv"] = (tmp / "corr.csv").read_text()
                n = len(texts["corr.csv"].splitlines()) - 1
                want = len(self.sm.featstats.ATTRIBUTES)
                item.op(verb, n != want and f"{n} attribute rows, expected {want}")
            elif verb == "build-dataset":
                texts["records.csv"] = (tmp / "records.csv").read_text()
                n = len(texts["records.csv"].splitlines()) - 1
                item.op(verb, n < 1 and "no records")
                item.figures["pair_yield"] = n / self.rows
            elif verb == "train":
                texts["model.txt"] = (tmp / "model.txt").read_text()
                m = re.search(r"(\d+)-fold: accuracy=(\S+)", stdout)
                acc = float(m.group(2)) if m else math.nan
                item.op(verb, not 0.0 <= acc <= 1.0 and f"cv accuracy {acc}",
                        self._round_trip(texts["model.txt"]))
                item.figures["cv_accuracy"] = acc
                self.model_nodes = forest_nodes(
                    self.sm, self.sm.treelearn.deserialize_model(texts["model.txt"]))
            elif verb == "prune":
                texts["pruned.txt"] = (tmp / "pruned.txt").read_text()
                item.op(verb, self._round_trip(texts["pruned.txt"]))
            else:
                m = re.search(r"^accuracy=(\S+)", stdout, re.M)
                acc = float(m.group(1)) if m else math.nan
                item.op(verb, not 0.0 <= acc <= 1.0 and f"holdout accuracy {acc}")
                item.figures["holdout_accuracy"] = acc
        item.digests = {name: sha256(text) for name, text in texts.items()}
        return item

    def close(self) -> None:
        shutil.rmtree(self.inputs, ignore_errors=True)


class Serve:
    """SMARTPS with a 200-tree forest deciding every 1 ms, MINRTT as reference."""

    def __init__(self, sm, seed: int, size: dict):
        self.sm, self.seed, self.size = sm, seed, size
        self.model = None
        self.model_text = ""
        self.model_nodes = 0

    def setup(self) -> None:
        sm, size = self.sm, self.size
        records = sm.scenarios.training_corpus(size["corpus_seed"])
        forest = sm.treelearn.train_forest(
            records, n_trees=size["trees"], seed=size["corpus_seed"],
            params=sm.treelearn.TreeParams(max_depth=6, min_leaf=20))
        self.model_text = sm.treelearn.serialize_model(forest)
        self.model = sm.treelearn.deserialize_model(self.model_text)
        suite = sm.scenarios.evaluation_suite(duration=size["duration"])
        self.scenarios = [suite[i] for i in size["suite_indices"]]
        self.model_nodes = forest_nodes(sm, self.model)

    def run(self, tmp: Path):
        sm = self.sm
        runs = []
        for i, scn in enumerate(self.scenarios):
            sim_seed = self.seed * 100 + i
            for policy in ("SMARTPS", "MINRTT"):
                state = sm.selector.SelectorState(
                    policy=policy, seed=sim_seed,
                    offline_model=self.model if policy == "SMARTPS" else None)
                params = sm.netsim.SimParams(
                    duration=scn.duration, seed=sim_seed, check_conservation=True,
                    decision_interval=self.size["decision_interval"])
                try:
                    report = sm.netsim.run(scn, state, params)
                    runs.append((f"{scn.name}-{i}/{policy}", params, report,
                                 report.to_csv_bundle()))
                except Exception:
                    traceback.print_exc()
                    runs.append((f"{scn.name}-{i}/{policy}", params, None, None))
        return runs

    def check(self, runs) -> Item:
        item = Item()
        tl = self.sm.treelearn
        item.op("model round-trip",
                tl.serialize_model(self.model) != self.model_text
                and "served forest does not round-trip byte-identically")
        h = hashlib.sha256()
        ag: dict[str, list[float]] = {"SMARTPS": [], "MINRTT": []}
        ad: dict[str, list[float]] = {"SMARTPS": [], "MINRTT": []}
        for name, params, report, bundle in runs:
            if report is None:
                item.op(name, "raised")
                continue
            g = report.total_goodput
            item.op(name,   # a conservation violation raises SimError: "raised" above
                    not (math.isfinite(g) and g > 0) and f"goodput {g}",
                    len(bundle) != 5 and f"bundle has {sorted(bundle)}")
            for fname in sorted(bundle):
                h.update(f"{name}/{fname}\n{bundle[fname]}".encode())
            policy = name.rsplit("/", 1)[1]
            ag[policy].append(g)
            ad[policy].append(report.percentile("ad", 50))
            item.conn_s += params.duration
        item.digests = {"to_csv_bundle": h.hexdigest(), "model.txt": sha256(self.model_text)}
        if all(ag.values()):
            item.figures = {
                "ag_ratio": statistics.median(ag["SMARTPS"]) / statistics.median(ag["MINRTT"]),
                "ad_ratio": statistics.median(ad["SMARTPS"]) / statistics.median(ad["MINRTT"])}
        return item


WORKLOADS = {"suite": Suite, "learn": Learn, "serve": Serve}


# ---------------------------------------------------------------------------
# Tracing targets and per-layer metrics
# ---------------------------------------------------------------------------

def _after_run(sm):
    def hook(tr, idx, args, kwargs, report):
        scenario = args[0]
        params = args[2] if len(args) > 2 else kwargs.get("params")
        p = params if params is not None else sm.netsim.SimParams()
        ticks = int(round(scenario.duration / p.tick))
        tr.tag(idx, report.policy)
        tr.add("netsim.ticks", ticks)
        tr.add(f"netsim.ticks.{report.policy}", ticks)
        if report.policy == "SMARTPS":   # the reference policies' reasons would dilute these
            for reason, n in Counter(d.reason for d in report.decisions).items():
                tr.add(f"selector.decisions.{reason}", n)
            tr.peak("selector.feature_memory.size_end", len(args[1].feature_memory))
    return hook


def register_targets(tr, sm) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    ns, tio, sel, tl = sm.netsim, sm.traceio, sm.selector, sm.treelearn
    tr.span(ns, "run", "netsim.run", after=_after_run(sm))
    tr.span(ns, "channel_map_arrays", "netsim.channel_map_arrays")
    tr.span(ns, "scenario_mac_series", "traceio.scenario_mac_series")  # name bound in netsim
    tr.span(ns.MetricsReport, "to_csv_bundle", "netsim.to_csv_bundle")
    tr.span(tio, "scenario_mac_series", "traceio.scenario_mac_series")
    tr.span(tio, "parse_trace", "traceio.parse_trace",
            after=lambda t, i, a, k, r: t.add("traceio.parse_trace.rows", len(r)))
    tr.span(tio, "write_trace", "traceio.write_trace")
    tr.span(tio, "synthesize_trace", "traceio.synthesize_trace")
    tr.span(sel, "decide", "selector.decide")
    tr.span(sel, "maybe_refresh", "selector.maybe_refresh",
            after=lambda t, i, a, k, r: t.add("selector.maybe_refresh.swaps", bool(r)))
    for fn in ("predict", "predict_batch", "build_tree", "train_forest", "kfold_evaluate",
               "prune_tree", "serialize_model", "deserialize_model"):
        tr.span(tl, fn, f"treelearn.{fn}")
    tr.span(sm.featstats, "correlation_table", "featstats.correlation_table")
    tr.span(sm.featstats, "kendall_tau_b", "featstats.kendall_tau_b")

    def after_build(t, i, args, kwargs, records):
        t.add("dataset.rows", len(args[0]))
        t.add("dataset.records", len(records))
    tr.span(sm.dataset, "build_dataset", "dataset.build_dataset", after=after_build)
    tr.span(sm.dataset, "records_from_csv", "dataset.records_from_csv")
    tr.span(sm.scenarios, "pretrained_model", "scenarios.pretrained_model")
    tr.span(sm.scenarios, "training_corpus", "scenarios.training_corpus")
    for fn in ("cmd_experiment", "cmd_analyze", "cmd_build_dataset", "cmd_train",
               "cmd_prune", "cmd_evaluate"):
        tr.span(sm.cli, fn, f"cli.{fn}")
    tr.count(sm.cli, "_write_output", "cli.files_written")


def layer_metrics(tr, traced: list, untraced: list, model_nodes: int,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer figures for one set-up plus one timed item.

    Totals add the set-up phase to the mean over traced items; distributions
    (p50 and tail) pool every sample.  ``overhead_s`` is the traced minus the
    untraced median item time, in reference seconds.
    """
    names, phases, dur, self_t, parents = tr.arrays()
    n_traced = len(traced)
    ids = {n: i for i, n in enumerate(tr.names)}
    timed = phases > 0

    def sel(name):
        return names == ids.get(name, -1)

    def per_run(mask, values):
        return float(values[mask & ~timed].sum() + values[mask & timed].sum() / n_traced)

    def calls(name):
        return per_run(sel(name), np.ones(len(names)))

    def ms(name, values=dur):
        return per_run(sel(name), values) / 1e6

    def dist(name, values, scale):
        v = (values[sel(name)] / scale).tolist()
        if not v:
            return 0.0, 0.0
        return nearest_rank(v, 50), nearest_rank(v, tail_level(len(v)))

    def counter(name):
        setup = tr.counters[0][name]
        return setup + sum(c[name] for ph, c in tr.counters.items() if ph > 0) / n_traced

    def raw_count(name):
        return sum(c[name] for c in tr.counters.values())

    m: dict[str, float] = {}
    m["netsim.run.calls"] = calls("netsim.run")
    m["netsim.run.self_ms_p50"], m["netsim.run.self_ms_ptail"] = dist("netsim.run", self_t, 1e6)
    m["netsim.ticks"] = counter("netsim.ticks")
    tags = np.array([tr.tags.get(i, "") for i in range(len(names))])
    for pol in POLICIES:
        ticks = raw_count(f"netsim.ticks.{pol}")
        busy = dur[sel("netsim.run") & (tags == pol)].sum()
        m[f"netsim.us_per_tick.{pol}"] = busy / 1e3 / ticks if ticks else 0.0
    m["netsim.channel_map_arrays.ms"] = ms("netsim.channel_map_arrays")
    m["netsim.to_csv_bundle.ms"] = ms("netsim.to_csv_bundle")
    m["selector.decide.calls"] = calls("selector.decide")
    m["selector.decide.self_us_p50"], m["selector.decide.self_us_ptail"] = \
        dist("selector.decide", self_t, 1e3)
    for reason in ("MODEL", "EXPLORE", "FALLBACK"):
        m[f"selector.decisions.{reason}"] = counter(f"selector.decisions.{reason}")
    m["selector.maybe_refresh.calls"] = calls("selector.maybe_refresh")
    m["selector.maybe_refresh.swaps"] = counter("selector.maybe_refresh.swaps")
    m["selector.refresh_yield"] = (m["selector.maybe_refresh.swaps"]
                                   / m["selector.maybe_refresh.calls"]
                                   if m["selector.maybe_refresh.calls"] else 0.0)
    m["selector.feature_memory.size_end"] = tr.peaks.get("selector.feature_memory.size_end", 0)
    m["treelearn.predict.calls"] = calls("treelearn.predict")
    m["treelearn.predict.us_p50"], m["treelearn.predict.us_ptail"] = \
        dist("treelearn.predict", dur, 1e3)
    m["treelearn.build_tree.calls"] = calls("treelearn.build_tree")
    for fn in ("build_tree", "train_forest", "kfold_evaluate", "prune_tree",
               "predict_batch", "serialize_model", "deserialize_model"):
        m[f"treelearn.{fn}.ms"] = ms(f"treelearn.{fn}")
    m["treelearn.model_nodes"] = model_nodes
    m["traceio.parse_trace.ms"] = ms("traceio.parse_trace")
    parse_s = dur[sel("traceio.parse_trace")].sum() / 1e9
    m["traceio.parse_trace.rows_per_s"] = (raw_count("traceio.parse_trace.rows") / parse_s
                                           if parse_s else 0.0)
    for fn in ("write_trace", "synthesize_trace", "scenario_mac_series"):
        m[f"traceio.{fn}.ms"] = ms(f"traceio.{fn}")
    m["featstats.correlation_table.ms"] = ms("featstats.correlation_table")
    m["featstats.kendall_tau_b.calls"] = calls("featstats.kendall_tau_b")
    m["featstats.kendall_tau_b.ms"] = ms("featstats.kendall_tau_b")
    m["dataset.build_dataset.ms"] = ms("dataset.build_dataset")
    m["dataset.records_from_csv.ms"] = ms("dataset.records_from_csv")
    rows = raw_count("dataset.rows")
    m["dataset.pair_yield"] = raw_count("dataset.records") / rows if rows else 0.0
    m["scenarios.pretrained_model.ms"] = ms("scenarios.pretrained_model")
    m["scenarios.training_corpus.ms"] = ms("scenarios.training_corpus")
    m["cli.cmd_experiment.self_ms"] = ms("cli.cmd_experiment", self_t)
    m["cli.files_written"] = counter("cli.files_written")
    for fn in ("cmd_analyze", "cmd_build_dataset", "cmd_train", "cmd_prune", "cmd_evaluate"):
        m[f"cli.{fn}.ms"] = ms(f"cli.{fn}")

    # Layer split over the traced items only.
    traced_wall = sum(w for w, _ in traced)
    run_self = self_t[sel("netsim.run") & timed].sum() / 1e9
    smartps_busy = dur[sel("netsim.run") & timed & (tags == "SMARTPS")].sum()
    predict_busy = dur[sel("treelearn.predict") & timed].sum()
    parent_name = np.where(parents >= 0, names[parents], -1)
    in_forest = parent_name == ids.get("treelearn.train_forest", -2)
    training = (dur[sel("treelearn.train_forest") & timed].sum()
                + dur[sel("treelearn.build_tree") & timed & ~in_forest].sum())
    m["split.netsim_run_self_share"] = run_self / traced_wall
    m["split.predict_share_of_smartps"] = predict_busy / smartps_busy if smartps_busy else 0.0
    m["split.training_share"] = training / 1e9 / traced_wall

    m["process.cpu_s"] = statistics.median(c for _, c in untraced)
    m["process.wait_s"] = statistics.median(w - c for w, c in untraced)
    m["trace.overhead_s"] = overhead_s
    return m


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def cpu_now() -> float:
    """CPU seconds of this process plus those of its finished child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its finished children, MiB.

    A forked child's peak includes the pages it shares with this process, so
    the sum errs high once the program starts worker processes.
    """
    return sum(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def measure(wl, seconds: float, tracer=None):
    """Repeat the item while the next one fits in ``seconds``.

    Returns ([(traced, start, wall_s, cpu_s, Item)], peak RSS in MiB after
    the first item).  With a tracer, items alternate untraced/traced and at
    least one of each runs.  The RSS is read once because ru_maxrss only
    grows, and later items would make it depend on how many fit.
    """
    results = []
    rss_mb = None
    start = time.perf_counter()
    traced = False
    while True:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            if traced:
                tracer.current_phase = sum(1 for r in results if r[0]) + 1
                tracer.install()
            c0, t0 = cpu_now(), time.perf_counter()
            try:
                raw = wl.run(Path(tmp))
            finally:
                wall, cpu = time.perf_counter() - t0, cpu_now() - c0
                if traced:
                    tracer.uninstall()
            if rss_mb is None:
                rss_mb = peak_rss_mb()
            try:
                item = wl.check(raw)
            except Exception:   # a malformed or missing output fails the item
                traceback.print_exc()
                item = Item()
                item.op("output check", "raised")
            results.append((traced, t0, wall, cpu, item))
        elapsed = time.perf_counter() - start
        both = tracer is None or {r[0] for r in results} == {False, True}
        if tracer is not None:
            traced = not traced
        if both and elapsed + wall > seconds:
            return results, rss_mb


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None, sizes: dict | None = None) -> int:
    """Run one workload; ``sizes`` overrides workloads.json (for the smoke test)."""
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
        sm = load_smartps()
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    size = (sizes[args.workload] if sizes else
            json.loads((HERE / "workloads.json").read_text())["workloads"][args.workload]["size"])
    WORK.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](sm, args.seed, size)
    tracer = None
    if args.trace:
        tracer = Tracer()
        register_targets(tracer, sm)
    setups = []   # (start, wall_s)
    try:
        with SpeedProbe() as probe:
            reps, min_s = (1, 0.0) if tracer else (SETUP_REPS, SETUP_MIN_S)
            while len(setups) < reps or sum(w for _, w in setups) < min_s:
                if tracer:
                    tracer.current_phase = 0
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    wl.setup()
                finally:
                    setups.append((t0, time.perf_counter() - t0))
                    if tracer:
                        tracer.uninstall()
            results, rss_mb = measure(wl, args.seconds, tracer)
            # After the items, so that these children do not enter peak_rss_mb.
            imports = [time_imports() for _ in range(IMPORT_REPS)]
    finally:
        if hasattr(wl, "close"):
            wl.close()

    def ref_s(start, wall):
        return wall * probe.factor(start, start + wall)

    items = [r[4] for r in results]
    untraced = [(w, c) for t, _, w, c, _ in results if not t]
    traced = [(w, c) for t, _, w, c, _ in results if t]
    attempted = sum(i.ops for i in items)
    failed = sum(i.failed for i in items)
    for n, it in enumerate(items):
        for op, probs in it.problems.items():
            print(f"item {n} {op}: FAILED: {'; '.join(probs)}", file=sys.stderr)
    same_outputs = all(it.digests == items[0].digests for it in items)
    if not same_outputs:
        print("outputs differ between items of the same inputs", file=sys.stderr)

    wall_s = statistics.median(ref_s(t0, w) for t, t0, w, _, _ in results if not t)
    e2e = {
        "setup_s": (statistics.median(ref_s(t0, w) for t0, w in imports)
                    + statistics.median(ref_s(t0, w) for t0, w in setups)),
        "wall_s": wall_s,
        "peak_rss_mb": rss_mb,
    }
    figures = dict(items[0].figures)
    if items[0].conn_s:
        figures["sim_rate"] = items[0].conn_s / wall_s
    figures["failed_frac"] = failed / attempted

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"measured s: imports {fmt_list(w for _, w in imports)}, "
          f"set-ups {fmt_list(w for _, w in setups)}, "
          f"untraced items {fmt_list(w for w, _ in untraced)}, "
          f"traced items {fmt_list(w for w, _ in traced)}; machine speed factor "
          f"{probe.factor(results[0][1], time.perf_counter()):.3f} "
          f"({len(probe.samples)} probe samples)")
    for name, value in e2e.items():
        print(f"  {name:<18} {value:.6g} {units[name]}")
    for name, unit in (("sim_rate", "s/s"), ("failed_frac", "1"), ("ag_ratio", "1"),
                       ("ad_ratio", "1"), ("cv_accuracy", "1"), ("holdout_accuracy", "1"),
                       ("pair_yield", "1")):
        if name in figures:
            print(f"  {name:<18} {figures[name]:.6g} {unit}")
    for name, digest in items[0].digests.items():
        print(f"  sha256 {name} {digest}")

    if tracer:
        traced_s = statistics.median(ref_s(t0, w) for t, t0, w, _, _ in results if t)
        layers = layer_metrics(tracer, traced, untraced, wl.model_nodes, traced_s - wall_s)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        for name, value in layers.items():
            print(f"  {name:<40} {value:.6g} {units.get(name, '')}")
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = layers
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        metrics = e2e
    missing = [n for n in wanted if n not in metrics]
    if missing:
        print(f"error: BENCHMARK.json names metrics this script does not produce: {missing}",
              file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0 and same_outputs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in wanted},
    }))
    return 0


def fmt_list(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


if __name__ == "__main__":
    sys.exit(main())
