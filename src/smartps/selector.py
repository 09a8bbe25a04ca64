"""Runtime path selection: SmartPS plus MinRTT / RoundRobin / static baselines.

The SmartPS policy serves every decision from the model it was given, the
prior-learned scheme, falling back to the other path when the chosen one has
no cwnd space.  Nothing retrains the model while a connection runs.

The simulator builds one `Observation` and keeps one `Decision` per decision,
every tick at a 1-ms decision interval, so both are named tuples, immutable
and compared by value, built through `tuple.__new__` at C speed.
`treelearn.predict` refuses a feature vector that is not 12 long.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Optional, Union

from . import treelearn
from .dataset import FEATURE_NAMES
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


class Observation(NamedTuple):
    """Selector input for one decision: features plus per-path send state."""

    t: float
    features: tuple[float, ...]   # 12-vector in dataset.FEATURE_NAMES order
    space_wifi: float             # cwnd space (packets); > 0 means sendable
    space_lte: float


class Decision(NamedTuple):
    t: float
    priority: str  # WF or LF
    reason: str    # MODEL or FALLBACK


Model = Union[treelearn.TreeNode, treelearn.ForestModel]

# What Decision's generated __new__ calls, without that Python-level frame.
_new = tuple.__new__


@dataclass
class SelectorState:
    policy: str
    offline_model: Optional[Model] = None
    seed: int = 0                  # read by nothing here; benchmark Serve.run passes it
    rr_cursor: int = 0
    feature_memory: ClassVar[tuple] = ()   # always empty; benchmark _after_run reads its len

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
        return _new(Decision, (obs.t, LF if prio == WF else WF, FALLBACK))
    return _new(Decision, (obs.t, prio, MODEL))


def maybe_refresh(state: SelectorState, now: float) -> bool:
    """Never swaps the model; benchmark register_targets wraps this name."""
    return False
