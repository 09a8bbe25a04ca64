"""Channel model, simulator invariants, determinism, and the handover study."""

import hashlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smartps import netsim, scenarios
from smartps.dataset import FEATURE_NAMES
from smartps.netsim import (
    MetricsReport, SimError,
    SimParams, SuiteRow, run, run_case,
    suite_csv_bundle,
)
from smartps.selector import Decision, MODEL, SelectorState
from smartps.traceio import (
    DEFAULT_CHANNELS, LTE, WIFI, WF, LF, ChannelParams, channel_map_arrays, scenario_mac_series,
)
from smartps.treelearn import TreeParams, serialize_model, train_forest

from tests.test_acceptance import switch_time, walkaway_comparison
from tests.test_treelearn import PRETRAINED_FOREST_SHA256, sha256


# ---------------------------------------------------------------------------
# Channel model
# ---------------------------------------------------------------------------

class TestChannelMap:
    def test_wifi_at_reference_point(self):
        (cap,), (rtt,), (loss,) = channel_map_arrays([-45.0], [25.0], WIFI)
        assert cap == pytest.approx(25.0)
        want_loss = 1.0 / (1.0 + math.exp((-45.0 + 75.0) / 3.0))
        assert loss == pytest.approx(want_loss, abs=1e-12)
        assert rtt == pytest.approx(20.0 * (1.0 + 1.0 * want_loss), abs=1e-9)

    def test_loss_is_half_at_cliff(self):
        _, (rtt,), (loss,) = channel_map_arrays([-75.0], [25.0], WIFI)
        assert loss == pytest.approx(0.5)
        assert rtt == pytest.approx(30.0)

    def test_lte_at_reference_point(self):
        (cap,), (rtt,), (loss,) = channel_map_arrays([-60.0], [20.0], LTE)
        assert cap == pytest.approx(15.0)
        want_loss = 1.0 / (1.0 + math.exp((-60.0 + 95.0) / 3.0))
        assert rtt == pytest.approx(38.0 * (1.0 + 2.0 * want_loss), abs=1e-9)

    def test_capacity_clamped_above_reference(self):
        cap_hi = channel_map_arrays([-45.0], [40.0], WIFI)[0][0]
        assert cap_hi == 25.0

    def test_capacity_shannon_shape_below_reference(self):
        p = DEFAULT_CHANNELS[WIFI]
        cap = channel_map_arrays([-45.0], [10.0], WIFI)[0][0]
        want = 25.0 * math.log2(1.0 + 10.0) / math.log2(1.0 + 10.0 ** 2.5)
        assert cap == pytest.approx(want, abs=1e-9)

    def test_capacity_monotone_in_sinr(self):
        sinr = np.arange(-10, 30, 2)
        caps, _, _ = channel_map_arrays(np.full(len(sinr), -45.0), sinr, WIFI)
        assert np.all(np.diff(caps) >= 0)

    def test_loss_monotone_decreasing_in_rssi(self):
        rssi = np.arange(-110, -30, 5)
        _, _, losses = channel_map_arrays(rssi, np.full(len(rssi), 25.0), WIFI)
        assert np.all(np.diff(losses) <= 0)


# ---------------------------------------------------------------------------
# Simulator basics
# ---------------------------------------------------------------------------

def dead(interface):
    p = DEFAULT_CHANNELS[interface]
    return ChannelParams(cap_max=0.0, sinr_ref=p.sinr_ref, rssi_cliff=p.rssi_cliff,
                         loss_scale=p.loss_scale, rtt_floor=p.rtt_floor,
                         rtt_loss_factor=p.rtt_loss_factor)


def channels(**overrides):
    """Patch DEFAULT_CHANNELS, keyed by interface (WIFI, LTE), for a with block.

    The process-wide pretrained model is trained first, on the default
    channels, so no SMARTPS run inside the block can cache one trained on
    the patched channels.
    """
    assert set(overrides) <= set(DEFAULT_CHANNELS)
    scenarios.pretrained_model()
    return mock.patch.dict(DEFAULT_CHANNELS, overrides)


def test_channels_keep_the_pretrained_model_on_default_channels():
    scenarios.pretrained_model.cache_clear()
    with channels(LTE=dead(LTE)):
        scenarios.pretrained_model()
    assert sha256(serialize_model(scenarios.pretrained_model())) == PRETRAINED_FOREST_SHA256


def bundle_digest(report):
    h = hashlib.sha256()
    for name, text in sorted(report.to_csv_bundle().items()):
        h.update(name.encode() + b"\n" + text.encode())
    return h.hexdigest()


class TestRun:
    def test_zero_duration_rejected(self):
        with pytest.raises(SimError):
            run_case(scenarios.stable(seed=0, duration=0.0), WF, 0)

    def test_duration_under_one_tick_rejected(self):
        with pytest.raises(SimError, match=r"0\.0004 s is not a positive whole number "
                                           r"of 0\.1 s metrics windows"):
            run_case(scenarios.stable(seed=0, duration=0.0004), WF, 0)

    @pytest.mark.parametrize("duration", [0.0999, 0.1004, 2.0004])
    def test_duration_off_the_tick_grid_rejected(self, duration):
        # Each of these once ran as the nearest whole number of ticks.
        with pytest.raises(SimError, match=rf"duration {duration} s is not a positive whole"):
            run_case(scenarios.stable(seed=0, duration=duration), WF, 0)

    def test_float_division_slack_accepted(self):
        # 0.7 / 0.001 is 699.999...; 0.7 s is still seven whole metrics windows.
        rep = run_case(scenarios.stable(seed=0, duration=0.7), WF, 0)
        assert len(rep.window_t) == 7 and len(rep.decisions) == 7

    @pytest.mark.parametrize("interval,n_decisions", [(0.3, 4), (1.0, 1)])
    def test_whole_tick_decision_intervals_run(self, interval, n_decisions):
        rep = run(scenarios.stable(seed=0, duration=1.0), SelectorState(policy=WF),
                  SimParams(duration=1.0, decision_interval=interval))
        assert len(rep.decisions) == n_decisions

    @pytest.mark.parametrize("floor", [math.nan, math.inf])
    def test_non_finite_rtt_rejected(self, floor):
        with channels(LTE=replace(DEFAULT_CHANNELS[LTE], rtt_floor=floor)), \
                pytest.raises(SimError, match="LTE base RTT"):
            run_case(scenarios.stable(seed=0, duration=1.0), WF, 0)

    @pytest.mark.parametrize("field,value", [
        ("tick", 0.01), ("tick", 0.0005),
        ("decision_interval", 0), ("decision_interval", -1), ("decision_interval", 0.0004),
        ("decision_interval", math.nan), ("decision_interval", math.inf),
        ("decision_interval", 0.0025)])
    def test_params_the_loop_cannot_honour_rejected(self, field, value):
        params = SimParams(duration=1.0, **{field: value})
        with pytest.raises(SimError, match=field):
            run(scenarios.stable(seed=0, duration=1.0), SelectorState(policy=WF), params)

    def test_params_duration_must_match_scenario(self):
        scn = scenarios.stable(seed=0, duration=2.0)
        with pytest.raises(SimError, match=r"60\.0 s .* 2\.0 s"):
            run(scn, SelectorState(policy=WF), SimParams(duration=60.0))

    def test_zero_capacity_delivers_nothing(self):
        with channels(WIFI=dead(WIFI), LTE=dead(LTE)):
            rep = run_case(scenarios.stable(seed=0, duration=2.0), WF, 0)
        assert rep.total_goodput == 0.0
        assert rep.ad_samples == []
        assert rep.to_csv_bundle()["summary.txt"].endswith("ad_p50 NA\nad_p90 NA\n")

    def test_single_perfect_path_approaches_capacity(self):
        from smartps.traceio import Scenario, Segment, constant
        scn = Scenario(name="perfect", duration=10.0, seed=0, segments=(
            Segment(0.0, {"rssi_wifi": constant(-40.0),
                          "sinr_wifi": constant(30.0)}),))
        with channels(LTE=dead(LTE)):
            rep = run_case(scn, WF, 1)
        assert 23.0 <= rep.total_goodput <= 25.0 * 1.05

    def test_goodput_bounded_by_combined_capacity(self):
        rep = run_case(scenarios.stable(seed=2, duration=5.0), "RR", 2)
        assert rep.total_goodput <= 40.0

    def test_conservation_holds_across_policies(self):
        scn = scenarios.walkaway(seed=5, duration=10.0)
        for policy in (WF, LF, "MINRTT", "RR"):
            run_case(scn, policy, 5)  # a violation raises

    def test_observations_follow_feature_names(self, monkeypatch):
        # observation() builds its 12-tuple by hand; read every slot back by name.
        seen = []
        decide = netsim.selmod.decide

        def spy(state, obs):
            seen.append(obs)
            return decide(state, obs)

        monkeypatch.setattr(netsim.selmod, "decide", spy)
        scn = scenarios.walkaway(seed=5, duration=3.0)
        run_case(scn, "MINRTT", 7)
        mac = scenario_mac_series(scn, np.arange(3000) * netsim.MS,
                                  ("rssi_wifi", "sinr_wifi", "rssi_lte", "sinr_lte"))
        assert [round(obs.t / netsim.MS) for obs in seen] == list(range(0, 3000, 100))
        named = [dict(zip(FEATURE_NAMES, obs.features)) for obs in seen]
        for obs, feats in zip(seen, named):
            for attr, series in mac.items():
                assert feats[attr] == series[round(obs.t / netsim.MS)], (obs.t, attr)
        first = named[0]
        for iface, interface in (("wifi", WIFI), ("lte", LTE)):
            _, rtt, _ = channel_map_arrays(mac[f"rssi_{iface}"], mac[f"sinr_{iface}"], interface)
            assert first[f"rtt_{iface}"] == rtt[0]
            assert first[f"cwnd_{iface}"] == netsim.CWND_INIT
            assert first[f"plr_{iface}"] == first[f"pdr_{iface}"] == 0.0

    def test_decision_cadence(self):
        rep = run_case(scenarios.stable(seed=0, duration=2.0), WF, 0)
        assert len(rep.decisions) == 20  # one per 100 ms

    def test_window_series_aligned(self):
        rep = run_case(scenarios.stable(seed=0, duration=1.0), WF, 0)
        assert len(rep.window_t) == len(rep.ag_series) == 10
        assert len(rep.accumulation[WIFI]) == len(rep.accumulation[LTE]) == 10
        assert rep.window_t[0] == 0.0

    def test_ad_at_least_one_way_delay(self):
        with channels(LTE=dead(LTE)):
            rep = run_case(scenarios.stable(seed=0, duration=5.0), WF, 3)
        assert rep.ad_samples
        assert min(v for _, v in rep.ad_samples) >= 10.0  # half of 20 ms rtt

    def test_cwnd_cap_bounds_accumulation(self, monkeypatch):
        monkeypatch.setattr(netsim, "CWND_INIT", 1.0)
        monkeypatch.setattr(netsim, "CWND_MAX", 1.0)
        rep = run_case(scenarios.stable(seed=0, duration=3.0), WF, 4)
        for name in (WIFI, LTE):
            assert max(rep.accumulation[name]) <= 1500.0

    def test_byte_identical_determinism(self):
        scn = scenarios.walkaway(seed=9, duration=5.0)
        a = run_case(scn, "MINRTT", 9)
        b = run_case(scn, "MINRTT", 9)
        assert a.to_csv_bundle() == b.to_csv_bundle()

    def test_long_rtt_channel_pinned(self):
        # A 150-ms LTE rtt floor gives round trips near 450 ticks, beyond any
        # fixed 128-bucket timing wheel, and 26 RTO reinjections in 10 s.
        with channels(LTE=replace(DEFAULT_CHANNELS[LTE], rtt_floor=150.0)):
            rep = run_case(scenarios.walkaway(seed=5, duration=10.0), "MINRTT", 7)
        assert rep.total_goodput == pytest.approx(11.0904, abs=1e-4)
        assert bundle_digest(rep) == (
            "f8837ae2272bb25ef7e49d3bc4fbd30b1ff5dc4d9d87d36a85d0b20271405880")

    def test_one_ms_forest_decisions_pinned(self):
        # 3,000 forest decisions (2,309 WF, 691 LF) pin scalar predict far more
        # tightly than the suite digests' 100-ms decisions of the 20-tree forest.
        forest = train_forest(scenarios.training_corpus(7), n_trees=25,
                              params=TreeParams(max_depth=6, min_leaf=20), seed=7)
        state = SelectorState(policy="SMARTPS", offline_model=forest)
        rep = run(scenarios.walkaway(seed=5, duration=3.0), state,
                  SimParams(duration=3.0, seed=7, decision_interval=0.001))
        assert rep.total_goodput == pytest.approx(13.048, abs=1e-4)
        assert bundle_digest(rep) == (
            "cb2573b8160af4ca3869156d27f499c8812e14faf9a32ad4a73214f04b8f96b6")

    @pytest.mark.parametrize("policy,goodput,digest", [
        # 388 of MINRTT's 3,000 decisions and 197 of RR's fall back.
        ("MINRTT", 11.488, "2905ce633fb956070366b1660015754424b0fafdf689fd57711fe149f6310816"),
        ("RR", 17.008, "f2f137b7470d394a60db3408625809a55c843cd8a550f370cc61bf3ecdff9987"),
    ])
    def test_one_ms_reference_decisions_pinned(self, policy, goodput, digest):
        rep = run(scenarios.walkaway(seed=5, duration=3.0), SelectorState(policy=policy),
                  SimParams(duration=3.0, seed=7, decision_interval=0.001))
        assert rep.total_goodput == pytest.approx(goodput, abs=1e-4)
        assert bundle_digest(rep) == digest

    @settings(max_examples=25, deadline=None)
    @given(wifi_floor=st.floats(1.0, 300.0), wifi_q=st.floats(0.0, 3.0),
           lte_floor=st.floats(1.0, 300.0), lte_q=st.floats(0.0, 3.0),
           kind=st.sampled_from(["walkaway", "stable", "interference_burst", "oscillating"]),
           policy=st.sampled_from(["SMARTPS", "MINRTT", "RR", WF, LF]),
           seed=st.integers(0, 2**16))
    def test_random_channels_conserve_and_reproduce(self, wifi_floor, wifi_q, lte_floor,
                                                    lte_q, kind, policy, seed):
        scn = getattr(scenarios, kind)(seed=seed, duration=1.0)
        model = scenarios.pretrained_model()   # MINRTT, RR, WF and LF ignore it
        with channels(
                WIFI=replace(DEFAULT_CHANNELS[WIFI], rtt_floor=wifi_floor, rtt_loss_factor=wifi_q),
                LTE=replace(DEFAULT_CHANNELS[LTE], rtt_floor=lte_floor, rtt_loss_factor=lte_q)):
            a = run_case(scn, policy, seed, model)   # conservation is checked every tick
            b = run_case(scn, policy, seed, model)
        assert a.to_csv_bundle() == b.to_csv_bundle()

    def test_seed_changes_outcome(self):
        a = run_case(scenarios.walkaway(seed=1, duration=5.0), "MINRTT", 1)
        b = run_case(scenarios.walkaway(seed=2, duration=5.0), "MINRTT", 2)
        assert a.to_csv_bundle() != b.to_csv_bundle()

    @pytest.mark.parametrize("seeds", [0, -2])
    def test_suite_needs_a_seed(self, seeds):
        with pytest.raises(SimError, match=f"at least 1 seed per scenario, got {seeds}"):
            netsim.run_suite([scenarios.stable(seed=0, duration=1.0)], ["RR"], 0, seeds)


# 30-s runs of one suite scenario per family (walkaway, interference,
# oscillating, stable) with run_suite's seed 1 + 100 * index.  The 2-3 s pins
# barely reach an RTO; across their three policies scenarios 0, 5 and 12 time
# out 143, 245 and 614 packets, so these pin when the RTO scan runs.
LONG_RUN_DIGESTS = {
    (0, "SMARTPS"): "d05669b4ef7de39d0fcc963ce221ef89236fececfa912a71eae9f5af848291a3",
    (0, "MINRTT"): "ed6246abdfd1ef017085af8db2529bf3bc9244cb3d18e2e738f858ed70771dc6",
    (0, "RR"): "eafff22f58b02fe91a7d47e458dc579875b99d8b8ec6ca62ada40805a4624c71",
    (5, "SMARTPS"): "c18b8ff40dcee9cfd006f80bdda78e9a2b8a38f2744abe9b224e723e887cac62",
    (5, "MINRTT"): "89283f116468fd6f1c93afaa94da121fe663f8f77e31ce49e5fc766c12e0ccef",
    (5, "RR"): "5595a9b6e960cff59099fbd3c2760f450821b5a83169a8197896d485705aba4c",
    (12, "SMARTPS"): "8cd81016c8bfaa667a41a260f71986bcd8e4f4ebf5ba19e28181155e66c8343d",
    (12, "MINRTT"): "0a3e7c1b25a5bef6429196399f04ad1d6088a03d3ed961659d58ad39e1eecc7b",
    (12, "RR"): "4aff4ba8cbdbc11d8e5b593236aae4d97fd44703f0cac0e9b28178fafe65f8aa",
    (18, "SMARTPS"): "f7eaf254312cd7b024249db36c089a9c61b829de5fc429675cf962097e9ced40",
    (18, "MINRTT"): "df9712034d79df8ba5c35b41f6aafefe6381f9923819cef7c09d3239e15b0f0c",
    (18, "RR"): "e45689b30d48a38a23737e6b09dcef8c9441907d45058433b51ebe48a1b78a89",
}


@pytest.fixture(scope="module")
def suite_scenarios():
    return scenarios.evaluation_suite()


@pytest.mark.parametrize("index,policy", sorted(LONG_RUN_DIGESTS))
def test_long_run_pinned(suite_scenarios, index, policy):
    rep = run_case(suite_scenarios[index], policy, 1 + 100 * index,
                   scenarios.pretrained_model())
    assert bundle_digest(rep) == LONG_RUN_DIGESTS[index, policy]


# ---------------------------------------------------------------------------
# Suite output
# ---------------------------------------------------------------------------

class TestSuiteCsvBundle:
    ROWS = [
        SuiteRow("SMARTPS", "stable-0", 7, 20.5, 18.0, (3.0, 1.0, 2.0)),
        SuiteRow("MINRTT", "stable-0", 7, 19.25, math.nan, (2.0,)),
        SuiteRow("SMARTPS", "walkaway-1", 107, 10.0, 30.0, ()),
    ]

    def test_runs_in_row_order_with_nan_ad(self):
        assert suite_csv_bundle(self.ROWS)["runs.csv"] == (
            "policy,scenario,seed,total_goodput_mbps,ad_p50_ms\n"
            "SMARTPS,stable-0,7,20.500000,18.000\n"
            "MINRTT,stable-0,7,19.250000,nan\n"
            "SMARTPS,walkaway-1,107,10.000000,30.000\n")

    def test_summary_skips_nan_ad_and_keeps_policy_order(self):
        assert suite_csv_bundle(self.ROWS)["summary.csv"] == (
            "policy,ag_p50_mbps,ad_p50_ms\n"
            "SMARTPS,10.0000,18.000\n"
            "MINRTT,19.2500,nan\n")

    def test_ag_cdf_sorted_per_run(self):
        assert suite_csv_bundle(self.ROWS)["ag_cdf.csv"] == (
            "policy,scenario,seed,ag_mbps\n"
            "SMARTPS,stable-0,7,1.000000\n"
            "SMARTPS,stable-0,7,2.000000\n"
            "SMARTPS,stable-0,7,3.000000\n"
            "MINRTT,stable-0,7,2.000000\n")


# ---------------------------------------------------------------------------
# Report percentiles and CSV bundle
# ---------------------------------------------------------------------------

def make_report(**overrides):
    base = dict(policy="WF", scenario="s", seed=0,
                window_t=[0.0, 0.1, 0.2], ag_series=[10.0, 20.0, 30.0],
                ad_samples=[(0.1, 10.0), (0.2, 20.0), (0.3, 30.0)],
                accumulation={WIFI: [0.0, 1500.0, 3000.0], LTE: [0.0, 0.0, 0.0]},
                decisions=[Decision(0.0, WF, MODEL)], total_goodput=20.0)
    base.update(overrides)
    return MetricsReport(**base)


class TestReport:
    def test_ad_median(self):
        assert make_report().percentile("ad", 50) == 20.0

    def test_ag_p90(self):
        assert make_report().percentile("ag", 90) == 30.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(SimError):
            make_report().percentile("bogus", 50)

    def test_csv_bundle_files(self):
        bundle = make_report().to_csv_bundle()
        assert set(bundle) == {"ag.csv", "ad.csv", "accumulation.csv",
                               "decisions.csv", "summary.txt"}
        assert bundle["ag.csv"].startswith("t,ag_mbps\n")
        assert "total_goodput_mbps 20.000000" in bundle["summary.txt"]


# ---------------------------------------------------------------------------
# Criterion 5's switch rule and walkaway study (tests/test_acceptance.py)
# ---------------------------------------------------------------------------

def dseq(prios, dt=0.1):
    return [Decision(i * dt, p, MODEL) for i, p in enumerate(prios)]


class TestSwitchTime:
    def test_static_lf_switches_at_zero(self):
        assert switch_time(dseq([LF] * 20)) == 0.0

    def test_never_switching_is_none(self):
        assert switch_time(dseq([WF] * 20)) is None

    def test_reports_window_start(self):
        prios = [WF] * 30 + [LF] * 10
        # First trailing window with >= 8/10 LF covers decisions 28..37, so
        # the reported time is that window's start (index 28).
        assert switch_time(dseq(prios)) == pytest.approx(2.8)

    def test_short_sequences_never_fire(self):
        assert switch_time(dseq([LF] * 9)) is None

    def test_tolerates_sparse_dissent(self):
        prios = ([WF] * 10 + [LF, LF, LF, LF, WF, LF, LF, LF, LF, LF])
        # Window covering decisions 9..18 holds 8 LF; its start is index 9.
        assert switch_time(dseq(prios)) == pytest.approx(0.9)


@pytest.fixture(scope="class")
def walkaway_seed0():
    return walkaway_comparison(0, scenarios.pretrained_model())


class TestWalkaway:
    def test_smartps_switches_no_later_than_minrtt(self, walkaway_seed0):
        # MinRTT never hands over within the 60-s walk.
        assert {p: v[0] for p, v in walkaway_seed0.items()} == {"MINRTT": None, "SMARTPS": 28.6}

    def test_smartps_drains_wifi_after_cliff(self, walkaway_seed0):
        assert {p: v[1] for p, v in walkaway_seed0.items()} == {"MINRTT": 3000, "SMARTPS": 0}
