"""End-to-end acceptance criteria.

Each test prints a single machine-greppable PASS/FAIL line describing one
criterion; the assertions behind the line are the actual gate.
"""

import collections
import contextlib
import math
import random
import time

import numpy as np

from smartps import dataset, netsim, scenarios, selector, traceio, treelearn
from smartps.dataset import FEATURE_NAMES
from smartps.featstats import bin_index, cig, entropy, kendall_tau_b, percentile
from smartps.traceio import WF, LF

from tests.conftest import REFERENCE_TRACE
from tests.test_featstats import kendall_oracle
from tests.test_treelearn import check_root_split, planted_records


@contextlib.contextmanager
def criterion(capsys, num, desc):
    start = time.perf_counter()
    note = {}
    try:
        yield note
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {num} ({desc}): FAIL "
                  f"[{time.perf_counter() - start:.1f}s]")
        raise
    extra = f" {note['extra']}" if "extra" in note else ""
    with capsys.disabled():
        print(f"\ncriterion {num} ({desc}): PASS "
              f"[{time.perf_counter() - start:.1f}s]{extra}")


# ---------------------------------------------------------------------------
# Criterion 1: statistics kernels against independent oracles  (< 10 s)
# ---------------------------------------------------------------------------

def test_criterion_1_statistics(capsys):
    with criterion(capsys, 1, "kendall/entropy/CIG oracles") as note:
        start = time.perf_counter()

        # 500 seeded vectors, n <= 200, exact agreement with pair enumeration.
        rng = random.Random(1234)
        checked = 0
        while checked < 500:
            n = rng.randint(2, 200)
            if checked % 2 == 0:  # small alphabet forces heavy ties
                x = [float(rng.randint(0, 8)) for _ in range(n)]
                y = [float(rng.randint(0, 8)) for _ in range(n)]
            else:
                x = [rng.uniform(-100.0, 0.0) for _ in range(n)]
                y = [rng.uniform(0.0, 60.0) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert kendall_tau_b(x, y) == kendall_oracle(x, y)
            checked += 1

        # Entropy hand values to 1e-12.
        assert abs(entropy([WF, WF, WF, LF]) - 0.8112781244591328) <= 1e-12
        assert entropy([WF, WF]) == 0.0
        assert entropy([WF, LF]) == 1.0

        # CIG hand values to 1e-12 (x bin width 5, y bin width 5).
        assert cig(bin_index([-39.0, -39.0, -42.0, -42.0], 5.0),
                   bin_index([2.0, 2.0, 7.0, 7.0], 5.0)) == 1.0
        assert cig(bin_index([-39.0, -38.0, -37.0, -36.0], 5.0),
                   bin_index([2.0, 7.0, 2.0, 7.0], 5.0)) == 0.0
        h_cond = 0.75 * (-(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3))
        got = cig(bin_index([-39.0, -38.0, -37.0, -42.0], 5.0),
                  bin_index([2.0, 3.0, 7.0, 8.0], 5.0))
        assert abs(got - (1.0 - h_cond)) <= 1e-12

        # CIG bounded on 1000 random inputs.
        nrng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(nrng.integers(1, 80))
            xv = nrng.normal(-50, 25, size=n).tolist()
            yv = nrng.normal(25, 20, size=n).tolist()
            assert 0.0 <= cig(bin_index(xv, 5.0), bin_index(yv, 5.0)) <= 1.0

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        note["extra"] = f"(500 kendall vectors exact, 1000 CIG draws bounded)"


# ---------------------------------------------------------------------------
# Criterion 2: pair-merge-label on the four reference rows  (exact)
# ---------------------------------------------------------------------------

def test_criterion_2_pair_merge_label(capsys):
    with criterion(capsys, 2, "reference rows pair-merge-label"):
        samples = traceio.parse_trace(REFERENCE_TRACE)
        records = dataset.build_dataset(samples)
        assert len(records) == 2
        assert [r.label for r in records] == [WF, LF]

        expected_first = {
            "rssi_wifi": (-29.0 + -27.0) / 2, "rssi_lte": (-39.0 + -42.0) / 2,
            "sinr_wifi": (22.0 + 19.0) / 2, "sinr_lte": (17.0 + 12.0) / 2,
            "rtt_wifi": (21.0 + 19.0) / 2, "rtt_lte": (48.0 + 52.0) / 2,
            "cwnd_wifi": (30.0 + 34.0) / 2, "cwnd_lte": (12.0 + 10.0) / 2,
            "plr_wifi": (0.0003 + 0.0004) / 2, "plr_lte": (0.0 + 0.0001) / 2,
            "pdr_wifi": (4.5 + 16.2) / 2, "pdr_lte": (8.3 + 3.4) / 2,
        }
        expected_second = {
            "rssi_wifi": (-39.0 + -37.0) / 2, "rssi_lte": (-51.0 + -48.0) / 2,
            "sinr_wifi": (24.0 + 25.0) / 2, "sinr_lte": (19.0 + 23.0) / 2,
            "rtt_wifi": (25.0 + 23.0) / 2, "rtt_lte": (44.0 + 46.0) / 2,
            "cwnd_wifi": (26.0 + 28.0) / 2, "cwnd_lte": (16.0 + 14.0) / 2,
            "plr_wifi": (0.001 + 0.0008) / 2, "plr_lte": (0.0 + 0.0) / 2,
            "pdr_wifi": (5.4 + 11.6) / 2, "pdr_lte": (23.2 + 5.1) / 2,
        }
        for record, expected in zip(records, (expected_first, expected_second)):
            for name, want in expected.items():
                assert record.features[FEATURE_NAMES.index(name)] == want, name


# ---------------------------------------------------------------------------
# Criterion 3: tree and forest on a 50k planted-rule dataset  (< 5 min)
# ---------------------------------------------------------------------------

def test_criterion_3_tree_and_forest(capsys):
    with criterion(capsys, 3, "planted-rule tree/forest accuracy") as note:
        start = time.perf_counter()
        records = planted_records(50_000, seed=42, noise=0.05)
        params = treelearn.TreeParams(max_depth=8, min_leaf=50)

        tree_acc = treelearn.kfold_evaluate(
            records, lambda train: treelearn.build_tree(train, params),
            k=10, seed=0).accuracy
        assert tree_acc >= 0.90

        # Forest vs single tree on a shared 80/20 holdout.
        split = len(records) * 4 // 5
        train, test = records[:split], records[split:]
        tree_hold = treelearn.evaluate(
            treelearn.build_tree(train, params), test).accuracy
        forest = treelearn.train_forest(train, n_trees=200, params=params, seed=0)
        forest_acc = treelearn.evaluate(forest, test).accuracy
        assert forest_acc >= tree_hold - 0.01

        # Root split must match exhaustive search on tiny 2-feature datasets.
        srng = random.Random(99)
        checked = sum(check_root_split(srng) for _ in range(200))
        assert checked >= 100

        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        note["extra"] = (f"(10-fold tree acc {tree_acc:.3f}, "
                         f"forest acc {forest_acc:.3f} vs tree {tree_hold:.3f})")


# ---------------------------------------------------------------------------
# Criterion 4: pruning properties over 200 seeded datasets  (< 2 min)
# ---------------------------------------------------------------------------

def test_criterion_4_pruning_properties(capsys):
    with criterion(capsys, 4, "pruning safety over 200 datasets") as note:
        start = time.perf_counter()
        pruned_smaller = 0
        for seed in range(200):
            train = planted_records(300, seed=seed, noise=0.25)
            val = planted_records(120, seed=10_000 + seed, noise=0.25)
            tree = treelearn.build_tree(
                train, treelearn.TreeParams(max_depth=10, min_leaf=2))
            pruned = treelearn.prune_tree(tree, val)
            before = treelearn.evaluate(tree, val).accuracy
            after = treelearn.evaluate(pruned, val).accuracy
            assert after >= before, seed
            assert treelearn.node_count(pruned) <= treelearn.node_count(tree), seed
            assert treelearn.prune_tree(pruned, val) == pruned, seed
            if treelearn.node_count(pruned) < treelearn.node_count(tree):
                pruned_smaller += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        note["extra"] = f"({pruned_smaller}/200 datasets actually shrank)"


# ---------------------------------------------------------------------------
# Criterion 5: missed handover and in-flight accumulation  (< 10 min)
# ---------------------------------------------------------------------------

def switch_time(decisions):
    """Start time of the first 10 consecutive decisions with at least 8 favouring LF."""
    trail = collections.deque(maxlen=10)
    for d in decisions:
        trail.append(d)
        if len(trail) == 10 and sum(e.priority == LF for e in trail) >= 8:
            return trail[0].t
    return None


def walkaway_comparison(seed, model):
    """Policy -> (switch time, WiFi in-flight p90 over the windows past the loss cliff)."""
    scenario = scenarios.walkaway(seed)
    policies = (selector.MINRTT, selector.SMARTPS)
    reports = dict(zip(policies, netsim.run_group(
        scenario, [selector.SelectorState(policy=p, offline_model=model) for p in policies],
        netsim.SimParams(duration=scenario.duration, seed=seed))))
    # windows where the noise-free WiFi RSSI trajectory is below the cliff
    rssi = scenario.attribute_series("rssi_wifi", np.asarray(reports["MINRTT"].window_t))
    degraded = rssi < traceio.DEFAULT_CHANNELS[traceio.WIFI].rssi_cliff
    out = {}
    for policy, rep in reports.items():
        series = [a for a, d in zip(rep.accumulation[traceio.WIFI], degraded) if d]
        out[policy] = (switch_time(rep.decisions),
                       percentile(series, 90) if series else 0.0)
    return out


def noise_free_crossover(scenario):
    """First tick at which WiFi's noise-free cap·(1−loss) falls below LTE's."""
    t = np.arange(round(scenario.duration / netsim.MS)) * netsim.MS
    rate = {}
    for iface in (traceio.WIFI, traceio.LTE):
        cap, _, loss = traceio.channel_map_arrays(
            scenario.attribute_series(f"rssi_{iface.lower()}", t),
            scenario.attribute_series(f"sinr_{iface.lower()}", t), iface)
        rate[iface] = cap * (1.0 - loss)
    return float(t[np.flatnonzero(rate[traceio.WIFI] < rate[traceio.LTE])[0]])


def test_criterion_5_walkaway(capsys):
    with criterion(capsys, 5, "walkaway switch & accumulation") as note:
        start = time.perf_counter()
        model = scenarios.pretrained_model()
        # The noise-free series is the same on every seed.
        crossover = noise_free_crossover(scenarios.walkaway(0))
        inf = float("inf")
        switch_wins = 0
        acc_wins = 0
        lags = []
        minrtt_never = 0
        for seed in range(100):
            cmp = walkaway_comparison(seed, model)
            (s, s_acc), (m, m_acc) = cmp["SMARTPS"], cmp["MINRTT"]
            if s is not None and s <= (m if m is not None else inf):
                switch_wins += 1
            if s_acc < m_acc:
                acc_wins += 1
            if s is not None:
                lags.append(s - crossover)
            minrtt_never += m is None
        assert switch_wins >= 95, switch_wins
        assert acc_wins >= 90, acc_wins
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0
        p10, p50, p90 = (percentile(lags, q) for q in (10, 50, 90))
        note["extra"] = (f"(switch earlier {switch_wins}/100, "
                         f"lower degraded p90 {acc_wins}/100; SMARTPS switch lags the "
                         f"noise-free crossover at {crossover:.2f} s by p10 {p10:.2f} "
                         f"p50 {p50:.2f} p90 {p90:.2f} s over {len(lags)} seeds; "
                         f"MINRTT never switched on {minrtt_never}/100)")


# ---------------------------------------------------------------------------
# Criterion 6: 20-scenario suite, pooled AG/AD medians  (< 20 min)
# ---------------------------------------------------------------------------

def test_criterion_6_evaluation_suite(capsys, tmp_path):
    with criterion(capsys, 6, "20-scenario AG/AD comparison") as note:
        start = time.perf_counter()
        rows = netsim.run_suite(scenarios.evaluation_suite(duration=30.0),
                                (selector.SMARTPS, selector.MINRTT), seed=0, seeds=10,
                                model=scenarios.pretrained_model())
        bundle = netsim.suite_csv_bundle(rows)
        for name, content in bundle.items():
            (tmp_path / name).write_text(content)
        # Nearest-rank medians, the statistic summary.csv holds.
        ag = {pol: percentile([r.total_goodput for r in rows if r.policy == pol], 50)
              for pol in ("SMARTPS", "MINRTT")}
        ad = {pol: percentile([r.ad_p50 for r in rows
                               if r.policy == pol and not math.isnan(r.ad_p50)], 50)
              for pol in ("SMARTPS", "MINRTT")}
        assert bundle["summary.csv"].splitlines()[1:] == [
            f"{pol},{ag[pol]:.4f},{ad[pol]:.3f}" for pol in ("SMARTPS", "MINRTT")]

        ag_s, ag_m, ad_s, ad_m = ag["SMARTPS"], ag["MINRTT"], ad["SMARTPS"], ad["MINRTT"]
        assert ag_s >= 1.20 * ag_m, (ag_s, ag_m)
        assert ad_s <= 1.10 * ad_m, (ad_s, ad_m)
        elapsed = time.perf_counter() - start
        assert elapsed < 1200.0
        note["extra"] = (f"(AG median {ag_s:.2f} vs {ag_m:.2f} Mbps = "
                         f"{ag_s / ag_m:.2f}x, AD median {ad_s:.0f} vs "
                         f"{ad_m:.0f} ms = {ad_s / ad_m:.2f}x, "
                         f"CDFs in {tmp_path})")


# ---------------------------------------------------------------------------
# Criterion 7: conservation every tick and bytewise reproducibility
# ---------------------------------------------------------------------------

def test_criterion_7_conservation_and_determinism(capsys):
    with criterion(capsys, 7, "conservation & determinism"):
        model = scenarios.pretrained_model()
        scn = scenarios.walkaway(seed=13, duration=20.0)

        def state(policy):
            return selector.SelectorState(policy=policy, offline_model=model)

        # Every run checks conservation each tick: it raises mid-run on any tick
        # where a packet is not in exactly one of {transit, reorder buffer,
        # released, pending}.
        for policy in (selector.MINRTT, selector.RR, selector.SMARTPS):
            params = netsim.SimParams(duration=20.0, seed=13)
            rep_a = netsim.run(scn, state(policy), params)
            rep_b = netsim.run(scn, state(policy), netsim.SimParams(duration=20.0, seed=13))
            assert rep_a.to_csv_bundle() == rep_b.to_csv_bundle()
