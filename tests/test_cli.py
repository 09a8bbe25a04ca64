"""End-to-end command-line behavior."""

import hashlib
import json
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from smartps import cli, dataset, netsim, scenarios, traceio, treelearn

BUNDLE_FILES = ("ag.csv", "ad.csv", "accumulation.csv", "decisions.csv", "summary.txt")

# Pinned sha256 digests of simulation outputs: a change that moves any of them
# changes simulation results and has to say why.
SIMULATE_DIGESTS = {  # walkaway(seed=5, duration=3.0), --seed 7
    "minrtt": "80528ab5bc9f5920d5b696d46868c986cb8976d23f1a69a9b72b39fd5a108223",
    "rr": "ae9c57bd18972359778b64eb08c690f32b4f51bd2212b28c0afe37e6f2bb1809",
    "smartps": "bce7c2cba6e9ce6ed498b0ff56d59d444ec5970f4356b3ac860ca2fe3b732f0b",
}
EXPERIMENT_DIGESTS = {  # --seed 0 --seeds 1 --duration 2
    "runs.csv": "afac47317b78a3cbb0cc809e8e49edf489f8bf2f1e4bf69da316c2d36d5f93be",
    "summary.csv": "58e2660aa4b230c33936ceaabd626d69c7eaedcb652fa36cd0317ee161b7a7b2",
}
EXPERIMENT_ARGS = ("--seed", "0", "--seeds", "1", "--duration", "2")


def run_cli(*argv):
    return cli.main(list(argv))


def must_not_run(*args, **kwargs):
    raise AssertionError("work started before the overwrite check")


def bundle_digest(out_dir):
    h = hashlib.sha256()
    for name in BUNDLE_FILES:
        h.update(name.encode() + b"\n" + (out_dir / name).read_bytes())
    return h.hexdigest()


@pytest.fixture
def trace_file(tmp_path):
    scn = scenarios.walkaway(seed=3, duration=60.0)
    samples = traceio.synthesize_trace(scn, 0.1)
    path = tmp_path / "trace.csv"
    path.write_text(traceio.write_trace(samples))
    return path


@pytest.fixture
def dataset_file(tmp_path, trace_file):
    samples = traceio.parse_trace(trace_file.read_text())
    records = dataset.build_dataset(samples)
    path = tmp_path / "records.csv"
    path.write_text(dataset.records_to_csv(records))
    return path


@pytest.fixture
def scenario_file(tmp_path):
    scn = scenarios.walkaway(seed=5, duration=3.0)
    path = tmp_path / "scenario.txt"
    path.write_text(traceio.write_scenario(scn))
    return path


@pytest.fixture
def model_file(tmp_path, dataset_file):
    records = dataset.records_from_csv(dataset_file.read_text())
    path = tmp_path / "model.txt"
    path.write_text(treelearn.serialize_model(treelearn.build_tree(records)))
    return path


class TestAnalyze:
    def test_writes_ten_attribute_rows(self, tmp_path, trace_file):
        out = tmp_path / "corr.csv"
        assert run_cli("analyze", "--input", str(trace_file),
                       "--output", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "attribute,kendall_ag,kendall_ad,cig_ag,cig_ad"
        assert len(lines) == 11
        assert (tmp_path / "corr.csv.manifest.json").exists()

    def test_each_output_keeps_its_own_manifest(self, tmp_path, trace_file):
        assert run_cli("analyze", "--input", str(trace_file), "--grouped",
                       "--output", str(tmp_path / "corr.csv")) == 0
        assert run_cli("build-dataset", "--input", str(trace_file), "--pair-window", "0.5",
                       "--output", str(tmp_path / "records.csv")) == 0
        corr = json.loads((tmp_path / "corr.csv.manifest.json").read_text())
        records = json.loads((tmp_path / "records.csv.manifest.json").read_text())
        assert (corr["verb"], corr["grouped"], corr["output"]) == (
            "analyze", True, str(tmp_path / "corr.csv"))
        assert (records["verb"], records["pair_window"], records["output"]) == (
            "build-dataset", 0.5, str(tmp_path / "records.csv"))
        assert not (tmp_path / "run-manifest.json").exists()

    def test_refuses_overwrite_without_force(self, tmp_path, trace_file):
        out = tmp_path / "corr.csv"
        assert run_cli("analyze", "--input", str(trace_file),
                       "--output", str(out)) == 0
        assert run_cli("analyze", "--input", str(trace_file),
                       "--output", str(out)) == 1
        assert run_cli("analyze", "--input", str(trace_file),
                       "--output", str(out), "--force") == 0

    def test_missing_input_errors(self, tmp_path):
        assert run_cli("analyze", "--input", str(tmp_path / "nope.csv"),
                       "--output", str(tmp_path / "out.csv")) == 1

    def test_value_past_the_int64_bins_errors(self, tmp_path, capsys):
        # One such value used to drop the cwnd_wifi variant without a word.
        samples = traceio.synthesize_trace(scenarios.stable(3, 20.0), 0.1)
        samples[50] = replace(samples[50], cwnd_wifi=1e300)
        trace = tmp_path / "trace.csv"
        trace.write_text(traceio.write_trace(samples))
        out = tmp_path / "corr.csv"
        assert run_cli("analyze", "--input", str(trace), "--output", str(out)) == 1
        assert "error: correlation_table: column cwnd_wifi:" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_fault_names_the_file_line(self, tmp_path, reference_trace_text, capsys):
        # The row number is the line in the file, blank lines counted.
        bad = tmp_path / "bad.csv"
        bad.write_text(reference_trace_text.replace("\n0,-39,", "\n\n0,oops,", 1))
        assert run_cli("analyze", "--input", str(bad),
                       "--output", str(tmp_path / "corr.csv")) == 1
        assert f"error: {bad}: row 3, column rssi_lte: non-numeric cell 'oops'\n" \
            == capsys.readouterr().err


class TestBuildDataset:
    def test_reference_trace_gives_two_records(self, tmp_path, reference_trace_text):
        trace = tmp_path / "ref.csv"
        trace.write_text(reference_trace_text)
        out = tmp_path / "records.csv"
        assert run_cli("build-dataset", "--input", str(trace),
                       "--output", str(out)) == 0
        records = dataset.records_from_csv(out.read_text())
        assert [r.label for r in records] == ["WF", "LF"]


class TestTrainPruneEvaluate:
    def test_happy_path(self, tmp_path, dataset_file, capsys):
        model = tmp_path / "model.txt"
        assert run_cli("train", "--input", str(dataset_file),
                       "--output", str(model), "--trees", "5",
                       "--min-leaf", "5") == 0
        assert model.exists()
        pruned = tmp_path / "pruned.txt"
        assert run_cli("prune", "--model", str(model),
                       "--validation", str(dataset_file),
                       "--output", str(pruned)) == 0
        assert run_cli("evaluate", "--model", str(pruned),
                       "--input", str(dataset_file)) == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out

    def test_kfold_printed(self, tmp_path, dataset_file, capsys):
        model = tmp_path / "model.txt"
        assert run_cli("train", "--input", str(dataset_file),
                       "--output", str(model), "--folds", "5",
                       "--min-leaf", "5") == 0
        assert "5-fold: accuracy=" in capsys.readouterr().out

    def test_too_few_records_for_folds(self, tmp_path, dataset_file, capsys):
        records = dataset.records_from_csv(dataset_file.read_text())[:9]
        small = tmp_path / "small.csv"
        small.write_text(dataset.records_to_csv(records))
        assert run_cli("train", "--input", str(small),
                       "--output", str(tmp_path / "m.txt"),
                       "--folds", "10") == 1
        assert "error:" in capsys.readouterr().err

    def test_feature_past_the_int64_bins_names_record_and_feature(self, tmp_path, capsys):
        # 200 distinct values, so a node would bin them; the refusal comes first.
        features = [0.0] * len(dataset.FEATURE_NAMES)
        records = [dataset.LabeledRecord(tuple([1e20 + i * 1e7] + features[1:]),
                                         "WF" if i % 2 else "LF") for i in range(200)]
        big = tmp_path / "big.csv"
        big.write_text(dataset.records_to_csv(records))
        model = tmp_path / "m.txt"
        assert run_cli("train", "--input", str(big), "--output", str(model)) == 1
        assert capsys.readouterr().err == (f"error: {big}: line 2: feature rssi_wifi is outside "
                                           f"the int64 bins of width 5.0 (1e+20)\n")
        assert not model.exists()

    def test_model_nested_too_deep_names_the_file_line(self, tmp_path, dataset_file, capsys):
        deep = tmp_path / "deep.txt"
        deep.write_text("N 0 0.5\n" * 3000 + "L WF 1 0\n" + "L LF 0 1\n" * 3000)
        assert run_cli("evaluate", "--model", str(deep), "--input", str(dataset_file)) == 1
        assert capsys.readouterr().err == (f"error: {deep}: line 501: model nests splits "
                                           f"deeper than 500 levels\n")

    def test_bad_label_names_line(self, tmp_path, dataset_file, capsys):
        lines = dataset_file.read_text().splitlines()[:3]
        lines[2] = lines[2].rsplit(",", 1)[0] + ",XX"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run_cli("train", "--input", str(bad),
                       "--output", str(tmp_path / "m.txt")) == 1
        assert f"error: {bad}: line 3: label must be WF or LF, got 'XX'" \
            in capsys.readouterr().err


# Each verb's input flags and the kind of file each one reads.
INPUT_FLAGS = {
    "analyze": {"--input": "trace"},
    "build-dataset": {"--input": "trace"},
    "train": {"--input": "records"},
    "prune": {"--model": "model", "--validation": "records"},
    "evaluate": {"--model": "model", "--input": "records"},
    "simulate": {"--scenario": "scenario", "--model": "model"},
}


class TestInputFiles:
    @pytest.mark.parametrize("verb,flag", [(verb, flag) for verb, flags in INPUT_FLAGS.items()
                                           for flag in flags])
    def test_errors_name_the_file_and_a_byte_order_mark_is_read(
            self, tmp_path, trace_file, dataset_file, model_file, scenario_file, capsys,
            verb, flag):
        good = {"trace": trace_file, "records": dataset_file, "model": model_file,
                "scenario": scenario_file}
        text = good[INPUT_FLAGS[verb][flag]].read_bytes()

        def run(name, content):
            """(exit code, stdout, stderr, output files) with content under flag."""
            path = tmp_path / name
            path.write_bytes(content)
            argv = [verb]
            for f, kind in INPUT_FLAGS[verb].items():
                argv += [f, str(path if f == flag else good[kind])]
            if verb == "simulate":
                argv += ["--selector", "smartps", "--seed", "7"]
            out = tmp_path / f"{name}.runs" / "out"   # one file, or simulate's bundle
            if verb != "evaluate":
                argv += ["--output", str(out)]
            code = run_cli(*argv)
            stdout, stderr = capsys.readouterr()
            files = sorted(out.iterdir()) if out.is_dir() else [out] if out.exists() else []
            return code, stdout, stderr, {p.name: p.read_bytes() for p in files
                                          if p.name != "run-manifest.json"}

        # Bytes that do not decode, and a last line that no input format accepts.
        for i, bad in enumerate((b"\xff" + text, text + b"oops\n")):
            code, _, err, files = run(f"bad{i}", bad)
            assert (code, files) == (1, {})
            assert err.startswith(f"error: {tmp_path / f'bad{i}'}: ")
        plain, marked = run("plain", text), run("marked", b"\xef\xbb\xbf" + text)
        assert plain[0] == 0 and plain[1:] == marked[1:]


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path, scenario_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("simulate", "--scenario", str(scenario_file),
                           "--selector", "minrtt", "--seed", "7",
                           "--output", str(out)) == 0
            outs.append(out)
        for fname in BUNDLE_FILES:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_manifest_records_flags(self, tmp_path, scenario_file):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--scenario", str(scenario_file),
                       "--selector", "rr", "--seed", "3",
                       "--output", str(out)) == 0
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["selector"] == "rr"
        assert manifest["seed"] == 3

    @pytest.mark.parametrize("selector", sorted(SIMULATE_DIGESTS))
    def test_pinned_bundle_digest(self, tmp_path, scenario_file, selector):
        out = tmp_path / selector
        assert run_cli("simulate", "--scenario", str(scenario_file),
                       "--selector", selector, "--seed", "7",
                       "--output", str(out)) == 0
        assert bundle_digest(out) == SIMULATE_DIGESTS[selector]

    @pytest.mark.parametrize("old,new,lineno", [
        ("duration 3", "duration inf", 2),
        ("rssi_wifi ramp -30 -85", "rssi_wifi constant nan", 9),
    ])
    def test_non_finite_scenario_number_is_an_error(self, tmp_path, scenario_file,
                                                    capsys, old, new, lineno):
        text = scenario_file.read_text()
        assert old in text
        scenario_file.write_text(text.replace(old, new))
        assert run_cli("simulate", "--scenario", str(scenario_file),
                       "--selector", "minrtt", "--seed", "7",
                       "--output", str(tmp_path / "sim")) == 1
        err = capsys.readouterr().err
        assert f"error: {scenario_file}: line {lineno}: non-finite number" in err
        assert "Traceback" not in err

    def test_overflowing_ramp_is_an_error_naming_its_line(self, tmp_path, capsys):
        # v1 - v0 overflows, so the ramp would read inf * 0 = NaN at t = 0.
        poison = tmp_path / "poison.txt"
        poison.write_text("name poison\nduration 2\nseed 1\nsegment 0\n"
                          "  sinr_wifi ramp 1e308 -1e308\nsegment 0.001\n"
                          "  sinr_wifi constant 25\n")
        assert run_cli("simulate", "--scenario", str(poison), "--selector", "wf",
                       "--seed", "1", "--output", str(tmp_path / "sim")) == 1
        err = capsys.readouterr().err
        assert f"error: {poison}: line 5: ramp change v1 - v0 must be finite" in err
        assert not (tmp_path / "sim").exists()

    def test_ramp_whose_product_overflows_runs_without_a_warning(self, tmp_path, capsys):
        # (v1 - v0) * (t - start) overflows near the segment end; the ramp is
        # accepted, and it warns nothing.
        scenario = tmp_path / "bigramp.txt"
        scenario.write_text("name bigramp\nduration 2\nseed 1\nsegment 0\n"
                            "  rssi_wifi ramp 1e308 0\n")
        assert run_cli("simulate", "--scenario", str(scenario), "--selector", "wf",
                       "--seed", "1", "--output", str(tmp_path / "sim")) == 0
        assert capsys.readouterr().err == ""

    def test_noise_sum_that_overflows_runs_without_a_warning(self, tmp_path, capsys):
        # 1e308 + N(0, 1e308) overflows to inf on some ticks, which the clip bounds.
        scenario = tmp_path / "bignoise.txt"
        scenario.write_text("name bignoise\nduration 1\nseed 1\nsegment 0\n"
                            "  rssi_wifi noisy 1e308 1e308\n")
        assert run_cli("simulate", "--scenario", str(scenario), "--selector", "wf",
                       "--seed", "1", "--output", str(tmp_path / "sim")) == 0
        assert capsys.readouterr().err == ""
        assert "total_goodput_mbps 4.500000\n" in (tmp_path / "sim" / "summary.txt").read_text()

    def test_duration_beyond_any_memory_is_an_error(self, tmp_path, scenario_file, capsys):
        # 1e15 s is 1e18 ticks; numpy refuses the first per-tick table at once.
        text = scenario_file.read_text()
        assert "duration 3\n" in text
        scenario_file.write_text(text.replace("duration 3\n", "duration 1e15\n"))
        assert run_cli("simulate", "--scenario", str(scenario_file),
                       "--selector", "minrtt", "--seed", "7",
                       "--output", str(tmp_path / "sim")) == 1
        err = capsys.readouterr().err
        assert "error: scenario duration 1000000000000000.0 s is too long to simulate" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("selector", ["minrtt", "rr", "wf", "lf"])
    def test_model_without_smartps_is_an_error(self, tmp_path, scenario_file, monkeypatch,
                                               capsys, selector):
        # Refused before the scenario is read or anything runs; the model file is absent.
        monkeypatch.setattr(traceio, "parse_scenario", must_not_run)
        monkeypatch.setattr(netsim, "run", must_not_run)
        out = tmp_path / "sim"
        assert run_cli("simulate", "--scenario", str(scenario_file), "--selector", selector,
                       "--seed", "7", "--model", str(tmp_path / "absent.txt"),
                       "--output", str(out)) == 1
        assert "--model goes only with --selector smartps" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def experiment_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("experiment") / "exp"
    assert run_cli("experiment", "--output", str(out), *EXPERIMENT_ARGS) == 0
    return out


class TestExperiment:
    def test_writes_four_files_and_no_cdf_dir(self, experiment_dir):
        assert sorted(p.name for p in experiment_dir.iterdir()) == [
            "ag_cdf.csv", "run-manifest.json", "runs.csv", "summary.csv"]

    def test_pinned_digests(self, experiment_dir):
        for name, digest in EXPERIMENT_DIGESTS.items():
            data = (experiment_dir / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_one_row_per_policy_scenario_seed(self, experiment_dir):
        lines = (experiment_dir / "runs.csv").read_text().splitlines()
        assert lines[0] == "policy,scenario,seed,total_goodput_mbps,ad_p50_ms"
        assert len(lines) - 1 == 3 * 20 * 1

    def test_ag_cdf_groups_are_sorted_window_series(self, experiment_dir):
        runs = [line.split(",")[:3] for line in
                (experiment_dir / "runs.csv").read_text().splitlines()[1:]]
        lines = (experiment_dir / "ag_cdf.csv").read_text().splitlines()
        assert lines[0] == "policy,scenario,seed,ag_mbps"
        groups = {}
        for line in lines[1:]:
            policy, scenario, seed, value = line.split(",")
            groups.setdefault((policy, scenario, seed), []).append(value)
        assert list(groups) == [tuple(run) for run in runs]
        suite = scenarios.evaluation_suite(duration=2.0)
        model = scenarios.pretrained_model()
        for policy, scenario, seed in runs:
            index = int(scenario.rsplit("-", 1)[1])
            assert int(seed) == 100 * index
            report = netsim.run_case(suite[index], policy, int(seed), model)
            assert groups[(policy, scenario, seed)] == [
                f"{v:.6f}" for v in sorted(report.ag_series)]

    def test_whole_windows_reach_ag_cdf(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert run_cli("experiment", "--output", str(out),
                       "--seeds", "1", "--duration", "0.3") == 0
        capsys.readouterr()
        lines = (out / "ag_cdf.csv").read_text().splitlines()
        assert len(lines) - 1 == 3 * 20 * 3   # three 100-ms windows per run

    def test_refuses_overwrite_before_simulating(self, tmp_path, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("simulation started before the overwrite check")
        monkeypatch.setattr(netsim, "run_suite", must_not_run)
        monkeypatch.setattr(scenarios, "pretrained_model", must_not_run)
        for old in ("summary.csv", "run-manifest.json"):
            out = tmp_path / old
            out.mkdir()
            (out / old).write_text("old\n")
            assert run_cli("experiment", "--output", str(out), *EXPERIMENT_ARGS) == 1
            assert "refusing to overwrite" in capsys.readouterr().err
            assert (out / old).read_text() == "old\n"
            assert sorted(p.name for p in out.iterdir()) == [old]
        blocker = tmp_path / "blocker"   # a regular file where a directory must go
        blocker.write_text("old\n")
        for out in (blocker, blocker / "sub"):
            assert run_cli("experiment", "--output", str(out), *EXPERIMENT_ARGS) == 1
            assert (f"error: cannot write {out / 'runs.csv'}: {blocker} is not a directory"
                    in capsys.readouterr().err)
        assert blocker.read_text() == "old\n"


class TestRefusesBeforeWork:
    def test_simulate_leaves_an_old_summary_alone(self, tmp_path, scenario_file,
                                                  monkeypatch, capsys):
        monkeypatch.setattr(netsim, "run", must_not_run)
        for old in ("summary.txt", "run-manifest.json"):
            out = tmp_path / old
            out.mkdir()
            (out / old).write_text("old\n")
            assert run_cli("simulate", "--scenario", str(scenario_file),
                           "--selector", "minrtt", "--seed", "7", "--output", str(out)) == 1
            assert "refusing to overwrite" in capsys.readouterr().err
            assert sorted(p.name for p in out.iterdir()) == [old]
            assert (out / old).read_text() == "old\n"
        blocker = tmp_path / "blocker"   # a regular file where a directory must go
        blocker.write_text("old\n")
        for out in (blocker, blocker / "sub"):
            assert run_cli("simulate", "--scenario", str(scenario_file),
                           "--selector", "minrtt", "--seed", "7", "--output", str(out)) == 1
            assert (f"error: cannot write {out / 'ag.csv'}: {blocker} is not a directory"
                    in capsys.readouterr().err)
        assert blocker.read_text() == "old\n"

    @pytest.mark.parametrize("verb,flags", [
        ("analyze", ("--input", "{trace}")),
        ("build-dataset", ("--input", "{trace}")),
        ("train", ("--input", "{records}")),
        ("prune", ("--model", "{records}", "--validation", "{records}")),
    ])
    def test_single_output_verbs(self, tmp_path, trace_file, dataset_file, monkeypatch,
                                 capsys, verb, flags):
        for module, name in ((traceio, "parse_trace"), (dataset, "records_from_csv"),
                             (treelearn, "deserialize_model")):
            monkeypatch.setattr(module, name, must_not_run)
        argv = [flag.format(trace=trace_file, records=dataset_file) for flag in flags]
        for old in ("out.txt", "out.txt.manifest.json"):   # the output, then its manifest
            out_dir = tmp_path / old
            out_dir.mkdir()
            (out_dir / old).write_text("old\n")
            assert run_cli(verb, *argv, "--output", str(out_dir / "out.txt")) == 1
            assert "refusing to overwrite" in capsys.readouterr().err
            assert sorted(p.name for p in out_dir.iterdir()) == [old]
            assert (out_dir / old).read_text() == "old\n"
        blocker = tmp_path / "blocker"   # a regular file where a directory must go
        blocker.write_text("old\n")
        out = blocker / "out.txt"
        assert run_cli(verb, *argv, "--output", str(out)) == 1
        assert (f"error: cannot write {out}: {blocker} is not a directory"
                in capsys.readouterr().err)
        assert blocker.read_text() == "old\n"
        # --force cannot make a directory writable as a file.
        assert run_cli(verb, *argv, "--output", str(tmp_path), "--force") == 1
        assert f"error: cannot write {tmp_path}: it is a directory" in capsys.readouterr().err


class TestRejectsImpossibleValues:
    @pytest.mark.parametrize("flag,value", [
        ("--folds", "1"), ("--folds", "-1"), ("--trees", "0"), ("--trees", "-3")])
    def test_train_counts(self, tmp_path, dataset_file, capsys, flag, value):
        out = tmp_path / "m.txt"
        assert run_cli("train", "--input", str(dataset_file), "--output", str(out),
                       flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"got {value}" in err
        assert not out.exists()

    @pytest.mark.parametrize("trees", ["1", "5"])
    def test_train_seed(self, tmp_path, dataset_file, capsys, trees):
        # numpy's own refusal, "expected non-negative integer", named no flag.
        out = tmp_path / "m.txt"
        assert run_cli("train", "--input", str(dataset_file), "--output", str(out),
                       "--trees", trees, "--seed", "-1") == 1
        assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag,field,value", [
        ("--min-leaf", "min_leaf", "0"), ("--min-leaf", "min_leaf", "-5"),
        ("--max-depth", "max_depth", "-1"), ("--min-igr", "min_igr", "-0.1"),
        ("--min-igr", "min_igr", "nan"), ("--min-igr", "min_igr", "inf")])
    def test_train_tree_settings(self, tmp_path, dataset_file, capsys, flag, field, value):
        out = tmp_path / "m.txt"
        assert run_cli("train", "--input", str(dataset_file), "--output", str(out),
                       flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} ") and f"got {value}" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_min_count(self, tmp_path, trace_file, capsys, value):
        out = tmp_path / "corr.csv"
        assert run_cli("analyze", "--input", str(trace_file), "--output", str(out),
                       "--min-count", value) == 1
        assert capsys.readouterr().err.startswith(f"error: min_count must be >= 1, got {value}")
        assert not out.exists()

    @pytest.mark.parametrize("window", ["-1", "0", "nan", "inf"])
    def test_pair_window(self, tmp_path, trace_file, capsys, window):
        out = tmp_path / "records.csv"
        assert run_cli("build-dataset", "--input", str(trace_file), "--output", str(out),
                       "--pair-window", window) == 1
        assert capsys.readouterr().err.startswith("error: pair window")
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["analyze", "train", "prune", "evaluate"])
    def test_evaluate_on_header_only_dataset(self, tmp_path, capsys, verb):
        # A trace or records file that holds only its header is refused, naming it.
        model = tmp_path / "model.txt"
        model.write_text("L WF 1 0\n")
        empty = tmp_path / "empty.csv"
        empty.write_text(traceio.write_trace([]) if verb == "analyze"
                         else dataset.records_to_csv([]))
        out = tmp_path / "out.txt"
        argv = {"analyze": ("--input", empty, "--output", out),
                "train": ("--input", empty, "--output", out),
                "prune": ("--model", model, "--validation", empty, "--output", out),
                "evaluate": ("--model", model, "--input", empty)}[verb]
        assert run_cli(verb, *map(str, argv)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {empty}: ")
        assert "accuracy=" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (("--seeds", "0"), "got 0"), (("--seeds", "-2"), "got -2"),
        (("--duration", "nan"), "must be finite"),
        (("--seeds", "1", "--duration", "0.25"),
         "0.25 s is not a positive whole number of 0.1 s metrics windows"),
        (("--seeds", "1", "--duration", "0.05"),
         "0.05 s is not a positive whole number of 0.1 s metrics windows"),
        (("--seeds", "1", "--duration", "0.1004"),
         "0.1004 s is not a positive whole number of 0.1 s metrics windows"),
    ])
    def test_experiment(self, tmp_path, capsys, flags, message):
        out = tmp_path / "exp"
        assert run_cli("experiment", "--output", str(out), *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()


# Each `smartps ...` line of README's CLI block, without the program name.
README_CLI = [shlex.split(line)[1:] for line in
              (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
              .split("## CLI", 1)[1].split("```", 2)[1].splitlines()
              if line.startswith("smartps ")]


class TestParser:
    @pytest.mark.parametrize("argv", README_CLI, ids=lambda argv: argv[0])
    def test_readme_cli_example_parses(self, argv):
        # parse_args reads no file; it exits on a flag the parser no longer has.
        assert cli.build_parser().parse_args(argv).verb == argv[0]

    def test_unknown_verb_exits_2(self, capsys):
        assert run_cli("frobnicate") == 2
        capsys.readouterr()

    def test_no_verb_exits_2(self, capsys):
        assert run_cli() == 2
        capsys.readouterr()

    def test_bad_selector_choice_exits_2(self, tmp_path, scenario_file, capsys):
        assert run_cli("simulate", "--scenario", str(scenario_file),
                       "--selector", "bogus", "--seed", "1") == 2
        capsys.readouterr()
