"""Channel model, simulator invariants, determinism, and the handover study."""

import hashlib
import math
import re
from array import array
from collections import deque
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smartps import netsim, scenarios, traceio
from smartps.dataset import FEATURE_NAMES
from smartps.netsim import (
    MetricsReport, SimError,
    SimParams, SuiteRow, run, run_case, run_group,
    suite_csv_bundle,
)
from smartps.selector import Decision, FALLBACK, MODEL, SelectorState
from smartps.traceio import (
    DEFAULT_CHANNELS, LTE, WIFI, WF, LF, ChannelParams, Scenario, Segment, channel_map_arrays,
    TraceError, constant, linear_ramp, scenario_mac_series,
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


@pytest.fixture(scope="module")
def forest25():
    """The 25-tree forest of the 1-ms pins."""
    return train_forest(scenarios.training_corpus(7), n_trees=25,
                        params=TreeParams(max_depth=6, min_leaf=20), seed=7)


@pytest.fixture
def decide_calls(monkeypatch):
    """Every (state, Observation) that _Sim.advance hands selector.decide, in call order."""
    calls = []
    decide = netsim.selmod.decide

    def spy(state, obs):
        calls.append((state, obs))
        return decide(state, obs)

    monkeypatch.setattr(netsim.selmod, "decide", spy)
    return calls


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

    @pytest.mark.parametrize("duration", [0.0999, 0.1004, 2.0004, 1e308])
    def test_duration_off_the_tick_grid_rejected(self, duration):
        # Each of these once ran as the nearest whole number of ticks; the last
        # overflowed in the rounding.
        with pytest.raises(SimError, match=rf"duration {re.escape(str(duration))} s is not "
                                           r"a positive whole"):
            run_case(scenarios.stable(seed=0, duration=duration), WF, 0)

    def test_duration_beyond_any_memory_rejected(self):
        # 1e15 s is 1e18 ticks, whose first per-tick table numpy refuses at once.
        with pytest.raises(SimError, match=r"duration 1000000000000000\.0 s is too long "
                                           r"to simulate: Unable to allocate"):
            run_case(scenarios.stable(seed=0, duration=1e15), WF, 0)

    def test_per_tick_tables_are_compact(self):
        # A list of floats costs 32 bytes per tick, an array of doubles 8.  The
        # slot tables take the place of the delay tables they were made from.
        sim = netsim._Sim(scenarios.walkaway(seed=5, duration=3.0), SimParams(duration=3.0))
        tables = {(type(owner).__name__, name): type(getattr(owner, name))
                  for owner in (sim, *sim.paths) for name in type(owner).__slots__
                  if getattr(getattr(owner, name), "__len__", None)
                  and len(getattr(owner, name)) == sim.n_ticks}
        assert set(tables.values()) <= {array, bytes}, tables
        assert sorted(tables) == sorted(
            [("_Sim", name) for name in ("rssi_wifi", "rssi_lte", "sinr_wifi", "sinr_lte")]
            + [("_Path", name) for name in ("credit_tick", "loss", "rtt",
                                            "dlv_slot", "ack_slot")])

    def test_float_division_slack_accepted(self):
        # 0.7 / 0.001 is 699.999...; 0.7 s is still seven whole metrics windows.
        rep = run_case(scenarios.stable(seed=0, duration=0.7), WF, 0)
        assert len(rep.window_t) == 7 and len(rep.decisions) == 7

    @pytest.mark.parametrize("interval,n_decisions", [(0.3, 4), (1.0, 1)])
    def test_whole_tick_decision_intervals_run(self, interval, n_decisions):
        rep = run(scenarios.stable(seed=0, duration=1.0), SelectorState(policy=WF),
                  SimParams(duration=1.0, decision_interval=interval))
        assert len(rep.decisions) == n_decisions

    @pytest.mark.parametrize("attr", ["rssi_lte", "sinr_wifi"])
    def test_overflowing_ramp_refused_at_the_scenario_edge(self, attr):
        # A ramp whose change v1 - v0 overflows would read inf * 0 = NaN at its
        # segment start, so it is refused where it is built; a change of 1.7e308,
        # just short of overflow, reaches the run's per-tick tables as finite values.
        with pytest.raises(TraceError, match="ramp change v1 - v0 must be finite"):
            linear_ramp(1e308, -1e308)
        edge = Scenario("edge", 1.0, (Segment(0.0, {attr: linear_ramp(8e307, -9e307)}),))
        sim = netsim._Sim(edge, SimParams(duration=1.0))
        for table in [getattr(path, name) for path in sim.paths
                      for name in ("credit_tick", "loss", "rtt")] + [sim.rssi_lte, sim.sinr_wifi]:
            assert np.isfinite(np.frombuffer(table)).all()
        assert math.isfinite(run(edge, SelectorState(policy=WF),
                                 SimParams(duration=1.0)).total_goodput)

    @pytest.mark.parametrize("field,value", [
        ("tick", 0.01), ("tick", 0.0005),
        ("decision_interval", 0), ("decision_interval", -1), ("decision_interval", 0.0004),
        ("decision_interval", math.nan), ("decision_interval", math.inf),
        ("decision_interval", 0.0025), ("decision_interval", 1e308)])
    def test_params_the_loop_cannot_honour_rejected(self, field, value):
        if field == "tick":
            # The loop's step is the class constant MS, so the constructor refuses another.
            assert SimParams().tick == netsim.MS
            with pytest.raises(TypeError, match=field):
                SimParams(duration=1.0, tick=value)
            return
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

    def test_dead_priority_path_spills_new_data(self):
        # At -20 dB SINR WiFi carries 0.043 Mbps, under the 0.5-Mbps dead line,
        # so new data goes to LTE although WiFi is the priority path and never
        # fills its window.  Without the rule the run gets 0.0408 Mbps.
        scn = Scenario(name="deadwifi", duration=5.0, seed=3, segments=(
            Segment(0.0, {"sinr_wifi": constant(-20.0)}),))
        assert run_case(scn, WF, 3).total_goodput == pytest.approx(11.2272, abs=1e-4)

    def test_goodput_bounded_by_combined_capacity(self):
        rep = run_case(scenarios.stable(seed=2, duration=5.0), "RR", 2)
        assert rep.total_goodput <= 40.0

    def test_conservation_holds_across_policies(self):
        scn = scenarios.walkaway(seed=5, duration=10.0)
        for policy in (WF, LF, "MINRTT", "RR"):
            run_case(scn, policy, 5)  # a violation raises

    def test_observations_follow_feature_names(self, decide_calls):
        # _Sim.advance builds each 12-tuple inline; read every slot back by name.
        scn = scenarios.walkaway(seed=5, duration=3.0)
        run_case(scn, "MINRTT", 7)
        seen = [obs for _, obs in decide_calls]
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

    def test_features_stay_inside_trace_row_bounds(self, decide_calls):
        # A decision sees only values a trace row may hold.  An RTO expires
        # packets sent in earlier windows too, which once put plr_wifi at 2.0.
        run_case(scenarios.walkaway(seed=5, duration=30.0), "MINRTT", 7)
        columns = dict(zip(FEATURE_NAMES, np.array([obs.features for _, obs in decide_calls]).T))
        for names, holds, message in traceio._ROW_INVARIANTS:
            for name in columns.keys() & set(names):
                bad = ~holds(columns[name])
                assert not bad.any(), (name, message, columns[name][bad][:3])

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

    def test_one_ms_forest_decisions_pinned(self, forest25):
        # 3,000 forest decisions (2,309 WF, 691 LF) pin scalar predict far more
        # tightly than the suite digests' 100-ms decisions of the 20-tree forest.
        state = SelectorState(policy="SMARTPS", offline_model=forest25)
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


# 15-s runs deciding every 1 ms, the length and cadence of the benchmark's
# serve workload, on the same four suite scenarios with seed 1 + 100 * index.
# Across the eight runs 14,747 of MINRTT's 60,000 decisions fall back, and 425 of
# SMARTPS's.
ONE_MS_SERVE_DIGESTS = {
    (0, "SMARTPS"): "e8c7e37521dd032643b7c81293125805278b11a589d4fdc7a0560c1689926f3d",
    (0, "MINRTT"): "28c3cd21d7e5589e680b439f9614a9a66b377de21877cd0941bd58b8e780e34f",
    (5, "SMARTPS"): "a335f024a379ec5be1ad498a77d0d9e68acf2373e95f2712cefdadef0c916fa2",
    (5, "MINRTT"): "d052f7807fcd5d67e32df4b40aad6c2b4ed62f4f40f8db33161fd81fdf2119a6",
    (12, "SMARTPS"): "dfc0088839274049a7f3407e448ce67df2dd0787cdf48ea32a6c8626dab6a7e6",
    (12, "MINRTT"): "31674bc69083e1ba5da6a9055698dbcff1d87cef10a375818508d7d0d10fb7b0",
    (18, "SMARTPS"): "133b5e98744886f16b36fe39942712aaa06da6c67cb3a813016baca764be3128",
    (18, "MINRTT"): "d86c494d4f501b4e16597177406236a7bf148feda63c7a311f54d09413ceb46c",
}


@pytest.mark.parametrize("index,policy", sorted(ONE_MS_SERVE_DIGESTS))
def test_one_ms_serve_length_pinned(forest25, index, policy):
    state = SelectorState(policy=policy, offline_model=forest25)
    rep = run(scenarios.evaluation_suite(15.0)[index], state,
              SimParams(duration=15.0, seed=1 + 100 * index, decision_interval=0.001))
    assert bundle_digest(rep) == ONE_MS_SERVE_DIGESTS[index, policy]


def test_copies_arriving_in_one_tick_pinned(decide_calls):
    # At 5 s WiFi drops to its loss cliff, and a 44-fold loss factor stretches
    # its round trip to ~460 ms while srtt is ~20 ms.  Packets time out in
    # flight and their LTE copies race them: both copies of seq 10,387 arrive
    # at tick 5,227.  The WiFi copy is the one counted.  Only the next
    # window's pdr features show which copy counted, so the observations are
    # pinned as well as the bundle.
    scn = Scenario(name="step", duration=15.0, seed=3, segments=(
        Segment(0.0, {"rssi_wifi": constant(-40.0), "sinr_wifi": constant(25.0)}),
        Segment(5.0, {"rssi_wifi": traceio.noisy(-75.0, 2.0), "sinr_wifi": constant(25.0)})))
    with channels(WIFI=replace(DEFAULT_CHANNELS[WIFI], rtt_loss_factor=44.0)):
        rep = run(scn, SelectorState(policy="MINRTT"),
                  SimParams(duration=15.0, seed=7, decision_interval=0.001))
    assert rep.total_goodput == pytest.approx(10.4264, abs=1e-4)
    assert bundle_digest(rep) == (
        "7bcd9903c40bf5d6abeba3871cbe1786cda3d0cc99ba566e6d0daacd008fb311")
    seen = [obs for _, obs in decide_calls]
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == (
        "4351a3c683c9341a94ec71f58db8047afc0e6a615f43fe3efcf90558e8217271")


def test_acks_out_of_seq_order_across_send_ticks_pinned(decide_calls):
    # Two 1-Mbps paths near their loss cliffs.  Packets time out on each path
    # and are resent on the other, so at tick 4,785 LTE's ack bucket holds seq
    # 176 (sent at tick 4,719) before seq 164 (sent at tick 4,738).  Their RTT
    # samples differ, so the order the bucket runs in moves LTE's srtt; only
    # the observations show it, so they are pinned as well as the bundle.
    scn = Scenario(name="x", duration=10.0, seed=1, segments=(
        Segment(0.0, {"rssi_wifi": traceio.noisy(-72.0, 3.0),
                      "rssi_lte": traceio.noisy(-92.0, 3.0)}),))
    with channels(WIFI=replace(DEFAULT_CHANNELS[WIFI], cap_max=1.0, rtt_loss_factor=3.0),
                  LTE=replace(DEFAULT_CHANNELS[LTE], cap_max=1.0)):
        rep = run(scn, SelectorState(policy=WF), SimParams(duration=10.0, seed=1))
    assert rep.total_goodput == pytest.approx(0.4212, abs=1e-4)
    assert bundle_digest(rep) == (
        "d1ddafff926858dee151d9a5bd59cdef580179f7934058b87d621bcfd2535656")
    seen = [obs for _, obs in decide_calls]
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == (
        "d8900e560a30c4d1394cfabb626724ce6076e5d613cc2279a8a5adfceaa86263")


# ---------------------------------------------------------------------------
# Groups: policies that agree run as one simulation until they disagree
# ---------------------------------------------------------------------------

def states(*policies):
    return [SelectorState(policy=p, offline_model=scenarios.pretrained_model()) for p in policies]


@pytest.mark.parametrize("index", sorted({index for index, _ in LONG_RUN_DIGESTS}))
def test_group_matches_long_run_pins(suite_scenarios, index):
    # The group forks after RTOs on 0, 5 and 12; on 18 SMARTPS and MINRTT never part.
    policies = ("SMARTPS", "MINRTT", "RR")
    reports = run_group(suite_scenarios[index], states(*policies),
                        SimParams(duration=30.0, seed=1 + 100 * index))
    assert [bundle_digest(rep) for rep in reports] == [
        LONG_RUN_DIGESTS[index, policy] for policy in policies]
    assert (reports[0].decisions == reports[1].decisions) == (index == 18)


@pytest.mark.parametrize("kind,policies", [
    ("walkaway", (WF, LF)),                  # they part at the first decision, tick 0
    ("stable", ("MINRTT", WF)),              # they never part
    ("walkaway", ("MINRTT", "MINRTT")),      # the same policy twice
    ("walkaway", ("RR", "RR", WF, "MINRTT")),  # each RR state keeps its own cursor
])
def test_group_equals_solo_runs(monkeypatch, kind, policies):
    scn = getattr(scenarios, kind)(seed=5, duration=5.0)
    params = SimParams(duration=5.0, seed=7)
    solo = [(run(scn, state, params), state) for state in states(*policies)]
    built = []
    series = netsim.scenario_mac_series
    monkeypatch.setattr(netsim, "scenario_mac_series",
                        lambda *args: built.append(args) or series(*args))
    group = states(*policies)
    reports = run_group(scn, group, params)
    assert len(built) == 1   # one set of per-tick tables for the whole group
    assert reports == [rep for rep, _ in solo]
    assert [s.rr_cursor for s in group] == [s.rr_cursor for _, s in solo]
    lists = [id(x) for rep in reports
             for x in (rep.ag_series, rep.ad_samples, rep.decisions,
                       *rep.accumulation.values())]
    assert len(set(lists)) == len(lists)   # each report owns its lists


def test_group_asks_each_state_as_its_solo_run(decide_calls, suite_scenarios):
    policies = ("SMARTPS", "MINRTT", "RR")
    scn, params = suite_scenarios[0], SimParams(duration=30.0, seed=1)
    solo = states(*policies)
    for state in solo:
        run(scn, state, params)
    solo_calls = [[obs for s, obs in decide_calls if s is state] for state in solo]
    decide_calls.clear()
    group = states(*policies)
    run_group(scn, group, params)
    assert [[obs for s, obs in decide_calls if s is state] for state in group] == solo_calls


def test_empty_group_simulates_nothing():
    assert run_group(scenarios.stable(seed=0, duration=1.0), [], SimParams(duration=1.0)) == []


# The per-tick tables, which every branch of a run reads and none writes.
PER_TICK_TABLES = {"rssi_wifi", "rssi_lte", "sinr_wifi", "sinr_lte",
                   "credit_tick", "loss", "rtt", "dlv_slot", "ack_slot"}
IMMUTABLE = (int, float, str, bytes, type(None))


def mutable_parts(obj, where="sim"):
    """{id: where} of each mutable object reachable from obj through slots and
    containers, skipping the per-tick tables and the shared loss draws."""
    found = {}
    if isinstance(obj, IMMUTABLE):
        return found
    if not isinstance(obj, tuple):
        found[id(obj)] = where
    if hasattr(type(obj), "__slots__"):
        for name in type(obj).__slots__:
            if name not in PER_TICK_TABLES | {"draws"}:
                found.update(mutable_parts(getattr(obj, name), f"{where}.{name}"))
    elif isinstance(obj, dict):
        for key, value in obj.items():
            found.update(mutable_parts(value, f"{where}[{key!r}]"))
    elif isinstance(obj, (list, tuple, deque, set)):
        for n, item in enumerate(obj):
            found.update(mutable_parts(item, f"{where}[{n}]"))
    return found


def ad_count_holds(sim):
    """One AD sample per released block, and one first-send tick per block
    first sent but not yet released."""
    released, first_sent = (sim.delivered_upto // netsim.BLOCK_PACKETS,
                            -(-sim.next_seq // netsim.BLOCK_PACKETS))
    return (len(sim.ad_samples) == released
            and len(sim.block_first_send) == first_sent - released)


def test_a_fork_shares_only_the_per_tick_tables():
    # SMARTPS and MINRTT part at tick 2,600, with packets in flight and buffered.
    scn, params = scenarios.walkaway(seed=5, duration=5.0), SimParams(duration=5.0, seed=7)
    sim = netsim._Sim(scn, params)
    group = states("SMARTPS", "MINRTT")
    split = sim.advance(group)
    assert sim.tick == 2600 and split[0] != split[1]
    assert sim.recv_buffer and all(path.in_flight for path in sim.paths)
    twin = sim.fork()
    ours, theirs = mutable_parts(sim), mutable_parts(twin)
    assert {"sim.paths[0].reinject", "sim.paths[1].ack_wheel[0]", "sim.rng",
            "sim.block_first_send", "sim.accumulation['LTE']"} <= set(ours.values())
    assert sorted(ours[i] for i in ours.keys() & theirs.keys()) == []
    assert all(getattr(twin, name) is getattr(sim, name) for name in ("draws", "rssi_wifi"))
    assert ad_count_holds(sim) and ad_count_holds(twin)
    for branch, state, d in zip((sim, twin), group, split):
        branch.decisions.append(d)
        assert branch.advance([state]) is None and branch.tick == branch.n_ticks - 1
        assert ad_count_holds(branch)


@pytest.mark.parametrize("kind,policy", [("walkaway", "RR"), ("interference_burst", "MINRTT"),
                                         ("oscillating", LF)])
def test_every_released_block_has_one_ad_sample(kind, policy):
    duration = 5.0
    sim = netsim._Sim(getattr(scenarios, kind)(seed=3, duration=duration),
                      SimParams(duration=duration, seed=3))
    assert sim.advance(states(policy)) is None
    assert sim.ad_samples and ad_count_holds(sim)


def test_tick_and_packet_constants_are_ints():
    # The tick loop's RTO and window tests compare ints, so a constant that a
    # test monkeypatches, MIN_RTO among them, must stay a whole count.
    for name in ("MIN_RTO", "WINDOW_TICKS", "BLOCK_PACKETS", "RECV_WINDOW"):
        assert type(getattr(netsim, name)) is int, name


# ---------------------------------------------------------------------------
# Metamorphic relations: they hold whatever the channel model's constants are
# ---------------------------------------------------------------------------

# Builders whose segments do not stretch with the run: a ramp spans the whole
# duration, so walkaway does not qualify.
STATIONARY = {
    "stable": scenarios.stable,
    "oscillating": lambda seed, duration: scenarios.oscillating(seed, duration, period=4.0),
}


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(sorted(STATIONARY)),
       policy=st.sampled_from(["SMARTPS", "MINRTT", "RR", WF, LF]),
       seed=st.integers(0, 2**16))
def test_a_shorter_run_is_a_prefix(kind, policy, seed):
    model = scenarios.pretrained_model()   # MINRTT, RR, WF and LF ignore it
    short, full = (run_case(STATIONARY[kind](seed, duration), policy, seed, model)
                   for duration in (5.0, 10.0))
    assert short.ag_series == full.ag_series[:50]
    assert short.decisions == full.decisions[:50]
    assert short.ad_samples == [s for s in full.ad_samples if s[0] < 5.0]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_lossless_goodput_never_falls_as_sinr_rises(seed):
    # WiFi at -30 dBm is 45 dB above its loss cliff, so more SINR only adds capacity.
    goodputs = []
    for sinr in range(0, 30, 2):
        scn = Scenario(name="lossless", duration=3.0, seed=seed, segments=(Segment(
            0.0, {"rssi_wifi": constant(-30.0), "sinr_wifi": constant(float(sinr))}),))
        goodputs.append(run_case(scn, WF, seed).total_goodput)
    assert goodputs == sorted(goodputs)


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
                ag_series=[10.0, 20.0, 30.0],
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

    def test_decisions_csv_format(self):
        report = make_report(decisions=[Decision(0.0, WF, MODEL), Decision(0.5, LF, FALLBACK)])
        assert report.to_csv_bundle()["decisions.csv"] == (
            "t,priority,reason\n0.000,WF,MODEL\n0.500,LF,FALLBACK\n")


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
