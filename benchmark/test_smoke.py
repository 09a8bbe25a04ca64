"""Minimum-size smoke test of the benchmark.

Run from the repository root:  python3 -m pytest -q benchmark/test_smoke.py

Each workload runs at a tiny size; the test checks that the output checks
ran and passed and that every end-to-end figure prints with its unit, and,
for one traced run, that every per-layer metric in BENCHMARK.json is reported.
"""

import json
import re

import pytest

import run

TINY = {
    "suite": {"seeds": 1, "duration": 1.0},
    "learn": {"scenarios": 4, "scenario_s": 20.0, "holdout_scenarios": 4,
              "trees": 3, "folds": 2},
    "serve": {"trees": 3, "corpus_seed": 7, "duration": 1.0, "decision_interval": 0.001,
              "suite_indices": [0, 5, 12, 18]},
}

PRINTED = {
    "suite": ["setup_s", "wall_s", "peak_rss_mb", "sim_rate", "failed_frac",
              "ag_ratio", "ad_ratio"],
    "learn": ["setup_s", "wall_s", "peak_rss_mb", "failed_frac", "cv_accuracy",
              "holdout_accuracy"],
    "serve": ["setup_s", "wall_s", "peak_rss_mb", "sim_rate", "failed_frac",
              "ag_ratio", "ad_ratio"],
}


def _run(capsys, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)], sizes=TINY)
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics_print_with_units(capsys, workload):
    text, result = _run(capsys, workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for name in PRINTED[workload]:
        assert any(re.match(rf"\s+{name}\s+\S+\s+\S+$", ln) for ln in text), name
    assert any("sha256" in ln for ln in text)


def test_traced_run_reports_every_layer(capsys):
    text, result = _run(capsys, "serve", 1)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["netsim.run.calls"] == 8
    # SMARTPS and MINRTT decide equally often; only SMARTPS predicts, once per
    # decision, and the decisions by reason count SMARTPS runs only.
    assert metrics["selector.decide.calls"] == 2 * metrics["treelearn.predict.calls"]
    assert metrics["treelearn.predict.calls"] == sum(
        metrics[f"selector.decisions.{r}"] for r in ("MODEL", "EXPLORE", "FALLBACK"))
