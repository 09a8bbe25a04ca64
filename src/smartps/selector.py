"""Runtime path selection: SmartPS plus MinRTT / RoundRobin / static baselines.

The SmartPS policy serves each decision from an immutable offline model
snapshot, falling back to the other path when the chosen one has no cwnd
space.  Adjacent measurement windows with opposite priorities are merged into
labeled records in a bounded feature memory, and the offline model is
periodically retrained from that memory and swapped atomically.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from . import dataset, treelearn
from .dataset import FEATURE_NAMES, N_FEATURES, LabeledRecord
from .traceio import WF, LF, AttributeSample

log = logging.getLogger(__name__)

SMARTPS = "SMARTPS"
MINRTT = "MINRTT"
RR = "RR"
POLICIES = (SMARTPS, MINRTT, RR, WF, LF)

MODEL = "MODEL"
FALLBACK = "FALLBACK"

DEFAULT_MEMORY_CAPACITY = 100_000
DEFAULT_REFRESH_INTERVAL = 30.0   # seconds
DEFAULT_MIN_TRAIN = 500           # records required before a refresh retrains
DEFAULT_ONLINE_TREES = 50

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


@dataclass(frozen=True)
class WindowStats:
    """Aggregated measurement window fed back to the online trainer."""

    t: float
    priority: str
    ag: float
    ad: float
    features: tuple[float, ...]


Model = Union[treelearn.TreeNode, treelearn.ForestModel]
Trainer = Callable[[Sequence[LabeledRecord], int], Model]


@dataclass
class SelectorState:
    policy: str
    offline_model: Optional[Model] = None
    seed: int = 0
    memory_capacity: int = DEFAULT_MEMORY_CAPACITY
    refresh_interval: float = DEFAULT_REFRESH_INTERVAL
    min_train: int = DEFAULT_MIN_TRAIN
    trainer: Optional[Trainer] = None
    feature_memory: deque = field(init=False)
    last_refresh: float = 0.0
    rr_cursor: int = 0
    last_window: Optional[WindowStats] = None

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.policy == SMARTPS and self.offline_model is None:
            raise ValueError("SMARTPS policy needs an offline model")
        self.feature_memory = deque(maxlen=self.memory_capacity)


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


def _sample_from_window(w: WindowStats) -> AttributeSample:
    f = dict(zip(FEATURE_NAMES, w.features))
    return AttributeSample(
        t=w.t,
        rssi_lte=min(0.0, f["rssi_lte"]), rssi_wifi=min(0.0, f["rssi_wifi"]),
        sinr_lte=f["sinr_lte"], sinr_wifi=f["sinr_wifi"],
        rsrp_lte=-1.0, rsrq_lte=-1.0, td_wifi=0.0, rd_wifi=0.0,
        rtt_lte=max(f["rtt_lte"], 1e-3), rtt_wifi=max(f["rtt_wifi"], 1e-3),
        cwnd_lte=max(f["cwnd_lte"], 1.0), cwnd_wifi=max(f["cwnd_wifi"], 1.0),
        plr_lte=min(max(f["plr_lte"], 0.0), 1.0),
        plr_wifi=min(max(f["plr_wifi"], 0.0), 1.0),
        pdr_lte=max(f["pdr_lte"], 0.0), pdr_wifi=max(f["pdr_wifi"], 0.0),
        prio_tag=w.priority, ag=max(w.ag, 0.0), ad=max(w.ad, 1e-3),
    )


def observe_outcome(state: SelectorState, window: WindowStats) -> None:
    """Feed a completed measurement window into the online feature memory.

    A window whose priority differs from the previous window's forms an A/B
    pair; the pair is merged into one labeled record (midpoint features,
    better performer's priority as label).  Same-priority neighbors yield
    nothing.  FIFO eviction at capacity.
    """
    prev = state.last_window
    state.last_window = window
    if prev is None or prev.priority == window.priority:
        return
    record = dataset.merge_pair((_sample_from_window(prev), _sample_from_window(window)))
    state.feature_memory.append(record)


def default_trainer(records: Sequence[LabeledRecord], seed: int) -> Model:
    """Forest of 50 trees, each pruned against a 20% holdout of the memory."""
    n_val = max(1, len(records) // 5)
    train, val = list(records[:-n_val]), list(records[-n_val:])
    if not train:
        train = val
    forest = treelearn.train_forest(train, n_trees=DEFAULT_ONLINE_TREES, seed=seed)
    return treelearn.prune_model(forest, val)


def maybe_refresh(state: SelectorState, now: float) -> bool:
    """Retrain from feature memory and swap the serving model atomically.

    No-op unless refresh_interval has elapsed and the memory holds at least
    min_train records.  A training failure keeps the previous model.
    Returns True if the model was swapped.
    """
    if now - state.last_refresh < state.refresh_interval:
        return False
    if len(state.feature_memory) < state.min_train:
        return False
    trainer = state.trainer if state.trainer is not None else default_trainer
    try:
        model = trainer(list(state.feature_memory), state.seed)
    except Exception:
        log.warning("online retrain failed; keeping previous model", exc_info=True)
        return False
    state.offline_model = model  # single assignment: decisions see old or new, never a mix
    state.last_refresh = now
    return True


def decisions_csv(decisions: Sequence[Decision]) -> str:
    out = ["t,priority,reason"]
    for d in decisions:
        out.append(f"{d.t:.3f},{d.priority},{d.reason}")
    return "\n".join(out) + "\n"
