"""Decision policies, fallback, online memory, and model refresh."""

import pytest

from smartps.dataset import FEATURE_NAMES, N_FEATURES
from smartps.selector import (
    FALLBACK, MINRTT, MODEL, RR, SMARTPS,
    Decision, Observation, SelectorState, WindowStats,
    decide, decisions_csv, maybe_refresh, observe_outcome,
)
from smartps.traceio import WF, LF
from smartps.treelearn import Internal, Leaf

from tests.test_treelearn import planted_records

# Model that prefers WiFi when its RSSI is above the -60 dBm line.
RSSI_WIFI = FEATURE_NAMES.index("rssi_wifi")
RTT_WIFI = FEATURE_NAMES.index("rtt_wifi")
RTT_LTE = FEATURE_NAMES.index("rtt_lte")
RSSI_MODEL = Internal(feature=RSSI_WIFI, threshold=-60.0,
                      left=Leaf(LF, (0, 10)), right=Leaf(WF, (10, 0)))


def obs(t=0.0, rssi_wifi=-40.0, srtt_wifi=20.0, srtt_lte=45.0,
        space_wifi=5.0, space_lte=5.0):
    features = [0.0] * N_FEATURES
    features[RSSI_WIFI] = rssi_wifi
    features[RTT_WIFI] = srtt_wifi
    features[RTT_LTE] = srtt_lte
    return Observation(t=t, features=tuple(features), space_wifi=space_wifi,
                       space_lte=space_lte)


def smartps_state(**kw):
    return SelectorState(policy=SMARTPS, offline_model=RSSI_MODEL, **kw)


class TestStateValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            SelectorState(policy="BOGUS")

    def test_smartps_needs_model(self):
        with pytest.raises(ValueError):
            SelectorState(policy=SMARTPS)

    def test_observation_arity_checked(self):
        with pytest.raises(ValueError):
            Observation(t=0.0, features=(1.0,), space_wifi=1, space_lte=1)


class TestSmartPs:
    def test_model_decision_follows_tree(self):
        state = smartps_state()
        assert decide(state, obs(rssi_wifi=-40.0)) == Decision(0.0, WF, MODEL)
        assert decide(state, obs(rssi_wifi=-80.0)) == Decision(0.0, LF, MODEL)

    def test_eps_zero_never_explores(self):
        # Every decision with an open path is the model's own.
        state = smartps_state()
        for i in range(200):
            rssi = -40.0 if i % 2 else -80.0
            d = decide(state, obs(t=float(i), rssi_wifi=rssi))
            assert d == Decision(float(i), WF if i % 2 else LF, MODEL)

    def test_decisions_deterministic_per_seed(self):
        a = smartps_state(seed=42)
        b = smartps_state(seed=42)
        seq_a = [decide(a, obs(t=float(i))) for i in range(100)]
        seq_b = [decide(b, obs(t=float(i))) for i in range(100)]
        assert seq_a == seq_b

    def test_fallback_when_chosen_path_has_no_space(self):
        state = smartps_state()
        d = decide(state, obs(rssi_wifi=-40.0, space_wifi=0.0))
        assert d == Decision(0.0, LF, FALLBACK)

    def test_no_fallback_when_both_full(self):
        state = smartps_state()
        d = decide(state, obs(rssi_wifi=-40.0, space_wifi=0.0, space_lte=0.0))
        assert d.priority == WF and d.reason == MODEL


class TestMinRtt:
    def test_prefers_lower_srtt(self):
        state = SelectorState(policy=MINRTT)
        assert decide(state, obs(srtt_wifi=20, srtt_lte=45)).priority == WF
        assert decide(state, obs(srtt_wifi=50, srtt_lte=45)).priority == LF

    def test_srtt_tie_prefers_wifi(self):
        state = SelectorState(policy=MINRTT)
        assert decide(state, obs(srtt_wifi=30, srtt_lte=30)).priority == WF

    def test_fallback_to_open_path(self):
        state = SelectorState(policy=MINRTT)
        d = decide(state, obs(srtt_wifi=20, srtt_lte=45, space_wifi=0.0))
        assert d == Decision(0.0, LF, FALLBACK)

    def test_both_blocked_keeps_lower_srtt(self):
        state = SelectorState(policy=MINRTT)
        d = decide(state, obs(srtt_wifi=50, srtt_lte=45, space_wifi=0.0, space_lte=0.0))
        assert d == Decision(0.0, LF, MODEL)

    def test_lower_srtt_open_other_blocked_is_model(self):
        state = SelectorState(policy=MINRTT)
        d = decide(state, obs(srtt_wifi=20, srtt_lte=45, space_lte=0.0))
        assert d == Decision(0.0, WF, MODEL)


class TestRoundRobinAndStatic:
    def test_rr_alternates(self):
        state = SelectorState(policy=RR)
        prios = [decide(state, obs(t=float(i))).priority for i in range(6)]
        assert prios == [WF, LF, WF, LF, WF, LF]

    def test_static_policies(self):
        assert decide(SelectorState(policy=WF), obs()).priority == WF
        assert decide(SelectorState(policy=LF), obs()).priority == LF

    def test_static_falls_back_when_blocked(self):
        d = decide(SelectorState(policy=WF), obs(space_wifi=0.0))
        assert d == Decision(0.0, LF, FALLBACK)


# ---------------------------------------------------------------------------
# Online memory and refresh
# ---------------------------------------------------------------------------

def window(t, prio, ag, ad, rssi_wifi=-40.0):
    features = [0.0] * N_FEATURES
    features[RSSI_WIFI] = rssi_wifi
    return WindowStats(t=t, priority=prio, ag=ag, ad=ad,
                       features=tuple(features))


class TestObserveOutcome:
    def test_opposite_priority_pair_merges(self):
        state = smartps_state()
        observe_outcome(state, window(0.0, WF, ag=20.0, ad=30.0))
        observe_outcome(state, window(1.0, LF, ag=10.0, ad=50.0))
        assert len(state.feature_memory) == 1
        assert state.feature_memory[0].label == WF

    def test_same_priority_neighbors_ignored(self):
        state = smartps_state()
        observe_outcome(state, window(0.0, WF, 20.0, 30.0))
        observe_outcome(state, window(1.0, WF, 21.0, 29.0))
        assert len(state.feature_memory) == 0

    def test_first_window_alone_yields_nothing(self):
        state = smartps_state()
        observe_outcome(state, window(0.0, LF, 20.0, 30.0))
        assert len(state.feature_memory) == 0

    def test_fifo_eviction_at_capacity(self):
        state = smartps_state(memory_capacity=3)
        for i in range(10):
            prio = WF if i % 2 == 0 else LF
            observe_outcome(state, window(float(i), prio, 20.0 + i, 30.0,
                                          rssi_wifi=-40.0 - i))
        assert len(state.feature_memory) == 3


class TestMaybeRefresh:
    def fed_state(self, n_records, **kw):
        state = smartps_state(min_train=10, refresh_interval=30.0, **kw)
        records = planted_records(n_records, seed=0, noise=0.05)
        state.feature_memory.extend(records)
        return state

    def test_noop_before_interval(self):
        state = self.fed_state(100)
        assert maybe_refresh(state, now=29.9) is False
        assert state.offline_model is RSSI_MODEL

    def test_noop_with_thin_memory(self):
        state = smartps_state(min_train=10)
        state.feature_memory.extend(planted_records(5, seed=0))
        assert maybe_refresh(state, now=100.0) is False

    def test_refresh_swaps_model_and_resets_clock(self):
        state = self.fed_state(100)
        assert maybe_refresh(state, now=31.0) is True
        assert state.offline_model is not RSSI_MODEL
        assert state.last_refresh == 31.0
        # Immediately after, the interval gate holds again.
        assert maybe_refresh(state, now=32.0) is False

    def test_trainer_failure_keeps_previous_model(self):
        def broken(records, seed):
            raise RuntimeError("boom")
        state = self.fed_state(100, trainer=broken)
        assert maybe_refresh(state, now=100.0) is False
        assert state.offline_model is RSSI_MODEL
        assert state.last_refresh == 0.0

    def test_refreshed_model_learns_memory(self):
        state = self.fed_state(400)
        assert maybe_refresh(state, now=31.0)
        from smartps.treelearn import evaluate
        m = evaluate(state.offline_model, planted_records(200, seed=99, noise=0.0))
        assert m.accuracy > 0.85


class TestDecisionsCsv:
    def test_format(self):
        text = decisions_csv([Decision(0.0, WF, MODEL), Decision(0.5, LF, FALLBACK)])
        assert text == "t,priority,reason\n0.000,WF,MODEL\n0.500,LF,FALLBACK\n"
