"""Runtime path selection: SmartPS plus MinRTT / RoundRobin / static baselines.

The SmartPS policy serves every decision from the model it was given, the
prior-learned scheme, falling back to the other path when the chosen one has
no cwnd space.  Nothing retrains the model while a connection runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from . import treelearn
from .dataset import FEATURE_NAMES, N_FEATURES
from .traceio import WF, LF

SMARTPS = "SMARTPS"
MINRTT = "MINRTT"
RR = "RR"
POLICIES = (SMARTPS, MINRTT, RR, WF, LF)

MODEL = "MODEL"
FALLBACK = "FALLBACK"

# MINRTT compares the TCP-layer smoothed RTTs carried in these features.
_RTT_WIFI = FEATURE_NAMES.index("rtt_wifi")
_RTT_LTE = FEATURE_NAMES.index("rtt_lte")


@dataclass(frozen=True)
class Observation:
    """Selector input for one decision: features plus per-path send state."""

    t: float
    features: tuple[float, ...]   # 12-vector in dataset.FEATURE_NAMES order
    space_wifi: float             # cwnd space (packets); > 0 means sendable
    space_lte: float

    def __post_init__(self):
        if len(self.features) != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} features, got {len(self.features)}")


@dataclass(frozen=True)
class Decision:
    t: float
    priority: str  # WF or LF
    reason: str    # MODEL or FALLBACK


Model = Union[treelearn.TreeNode, treelearn.ForestModel]


@dataclass
class SelectorState:
    policy: str
    offline_model: Optional[Model] = None
    seed: int = 0                  # read by nothing here; benchmark Serve.run passes it
    rr_cursor: int = 0
    feature_memory: tuple = field(default=(), init=False)   # benchmark _after_run reads its len

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.policy == SMARTPS and self.offline_model is None:
            raise ValueError("SMARTPS policy needs an offline model")


def decide(state: SelectorState, obs: Observation) -> Decision:
    """Pick the priority path for the next scheduling interval.

    A policy's choice stands (MODEL) unless that path has no cwnd space and
    the other one has, in which case the other path is taken (FALLBACK).
    """
    if state.policy == SMARTPS:
        prio = treelearn.predict(state.offline_model, obs.features)
    elif state.policy == MINRTT:
        prio = WF if obs.features[_RTT_WIFI] <= obs.features[_RTT_LTE] else LF
    elif state.policy == RR:
        prio = WF if state.rr_cursor == 0 else LF
        state.rr_cursor ^= 1
    else:  # static WF / LF
        prio = state.policy
    space, other_space = ((obs.space_wifi, obs.space_lte) if prio == WF
                          else (obs.space_lte, obs.space_wifi))
    if space <= 0 and other_space > 0:
        return Decision(t=obs.t, priority=LF if prio == WF else WF, reason=FALLBACK)
    return Decision(t=obs.t, priority=prio, reason=MODEL)


def maybe_refresh(state: SelectorState, now: float) -> bool:
    """Never swaps the model; benchmark register_targets wraps this name."""
    return False


def decisions_csv(decisions: Sequence[Decision]) -> str:
    out = ["t,priority,reason"]
    for d in decisions:
        out.append(f"{d.t:.3f},{d.priority},{d.reason}")
    return "\n".join(out) + "\n"
