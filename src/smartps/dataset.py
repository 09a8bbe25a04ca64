"""Binary classification dataset: pair WF/LF rows, merge, and label.

Each trace row was measured under one priority (WF or LF).  Rows with
opposite priorities that are close in time are paired, their attributes
merged by the midpoint, and the pair labeled with the priority whose
(AG, AD) performed better: goodput compared first, delay breaking near-ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .traceio import WF, LF, AttributeSample

# Fixed feature order of a LabeledRecord.  RSRP, RSRQ, TD and RD are excluded
# (low conditional information gain).
FEATURE_NAMES = [
    "rssi_wifi", "rssi_lte",
    "sinr_wifi", "sinr_lte",
    "rtt_wifi", "rtt_lte",
    "cwnd_wifi", "cwnd_lte",
    "plr_wifi", "plr_lte",
    "pdr_wifi", "pdr_lte",
]
N_FEATURES = len(FEATURE_NAMES)

# Relative AG tolerance: goodputs within 1% of each other count as tied and
# the comparison falls through to delay.
AG_EPS = 0.01

DEFAULT_PAIR_WINDOW = 5.0  # seconds


@dataclass(frozen=True)
class LabeledRecord:
    """12 merged features in FEATURE_NAMES order plus a WF/LF label."""

    features: tuple[float, ...]
    label: str

    def __post_init__(self):
        if len(self.features) != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} features, got {len(self.features)}")
        if self.label not in (WF, LF):
            raise ValueError(f"label must be WF or LF, got {self.label!r}")


def better_than(a: tuple[float, float], b: tuple[float, float]) -> int:
    """Compare two (ag, ad) outcomes; 1 if a wins, -1 if b wins, 0 if tied.

    a wins outright on goodput when a.ag > b.ag * (1 + eps); within the
    relative tolerance the lower delay wins.
    """
    ag_a, ad_a = a
    ag_b, ad_b = b
    if ag_a > ag_b * (1.0 + AG_EPS):
        return 1
    if ag_b > ag_a * (1.0 + AG_EPS):
        return -1
    if abs(ag_a - ag_b) <= AG_EPS * max(ag_a, ag_b):
        if ad_a < ad_b:
            return 1
        if ad_b < ad_a:
            return -1
    return 0


def pair_rows(samples: Sequence[AttributeSample],
              window: float = DEFAULT_PAIR_WINDOW
              ) -> tuple[list[tuple[AttributeSample, AttributeSample]], int]:
    """Greedily pair each row with the next opposite-priority row within window.

    Returns (pairs, dropped) where dropped counts rows left unpaired.
    Samples must be time-ordered.
    """
    if not (math.isfinite(window) and window > 0):
        raise ValueError(f"pair window must be a finite number of seconds > 0, got {window}")
    pairs = []
    used = [False] * len(samples)
    for i, a in enumerate(samples):
        if used[i]:
            continue
        for j in range(i + 1, len(samples)):
            b = samples[j]
            if b.t - a.t > window:
                break
            if not used[j] and b.prio != a.prio:
                pairs.append((a, b))
                used[i] = used[j] = True
                break
    dropped = used.count(False)
    return pairs, dropped


def merge_pair(pair: tuple[AttributeSample, AttributeSample]) -> LabeledRecord:
    """Merge an opposite-priority pair into one labeled record.

    Each feature is the midpoint of the two rows' values (the median of two
    numbers).  The label is the priority of the row whose (AG, AD) wins; on a
    full tie the earlier row's priority is kept.
    """
    a, b = pair
    if a.prio == b.prio:
        raise ValueError("merge_pair: rows must have opposite priorities")
    features = tuple((getattr(a, f) + getattr(b, f)) / 2.0 for f in FEATURE_NAMES)
    cmp = better_than((a.ag, a.ad), (b.ag, b.ad))
    if cmp > 0:
        label = a.prio
    elif cmp < 0:
        label = b.prio
    else:
        label = a.prio if a.t <= b.t else b.prio
    return LabeledRecord(features=features, label=label)


def build_dataset(samples: Sequence[AttributeSample],
                  window: float = DEFAULT_PAIR_WINDOW) -> list[LabeledRecord]:
    """pair_rows then merge_pair, in pair time order."""
    pairs, _ = pair_rows(samples, window=window)
    return [merge_pair(p) for p in pairs]


def records_to_csv(records: Sequence[LabeledRecord]) -> str:
    out = [",".join(FEATURE_NAMES + ["label"])]
    for r in records:
        out.append(",".join(repr(float(v)) for v in r.features) + f",{r.label}")
    return "\n".join(out) + "\n"


def records_from_csv(text: str) -> list[LabeledRecord]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty dataset file")
    header = lines[0].split(",")
    if header != FEATURE_NAMES + ["label"]:
        raise ValueError(f"unexpected dataset header {header}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != N_FEATURES + 1:
            raise ValueError(f"line {lineno}: expected {N_FEATURES + 1} cells")
        try:
            feats = tuple(float(c) for c in cells[:-1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric feature cell") from None
        if not all(math.isfinite(v) for v in feats):
            raise ValueError(f"line {lineno}: non-finite feature cell")
        try:
            records.append(LabeledRecord(features=feats, label=cells[-1]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return records
