"""Decision policies, fallback, and the decisions CSV."""

import pytest

from smartps.dataset import FEATURE_NAMES, N_FEATURES
from smartps.selector import (
    FALLBACK, MINRTT, MODEL, RR, SMARTPS,
    Decision, Observation, SelectorState, decide, decisions_csv,
)
from smartps.traceio import WF, LF
from smartps.treelearn import Internal, Leaf

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

    def test_open_path_decisions_follow_the_model(self):
        # Every decision with an open path is the model's own.
        state = smartps_state()
        for i in range(200):
            rssi = -40.0 if i % 2 else -80.0
            d = decide(state, obs(t=float(i), rssi_wifi=rssi))
            assert d == Decision(float(i), WF if i % 2 else LF, MODEL)

    def test_equal_states_decide_alike(self):
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


class TestDecisionsCsv:
    def test_format(self):
        text = decisions_csv([Decision(0.0, WF, MODEL), Decision(0.5, LF, FALLBACK)])
        assert text == "t,priority,reason\n0.000,WF,MODEL\n0.500,LF,FALLBACK\n"
