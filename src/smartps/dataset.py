"""Binary classification dataset: pair WF/LF rows, merge, and label.

Each trace row was measured under one priority (WF or LF).  Rows with
opposite priorities that are close in time are paired, their attributes
merged by the midpoint, and the pair labeled with the priority whose
(AG, AD) performed better: goodput compared first, delay breaking near-ties.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .featstats import BIN_WIDTHS, binnable, family
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

# Bin width per feature: its family's width ("plr_wifi" -> BIN_WIDTHS["PLR"]),
# in native units; the learner's candidate thresholds are bin edges.
FEATURE_BIN_WIDTHS = tuple(BIN_WIDTHS[family(name)] for name in FEATURE_NAMES)

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

    A goodput more than AG_EPS above the other wins outright; otherwise the
    finite goodputs are within that tolerance and the lower delay wins.
    """
    ag_a, ad_a = a
    ag_b, ad_b = b
    if ag_a > ag_b * (1.0 + AG_EPS):
        return 1
    if ag_b > ag_a * (1.0 + AG_EPS):
        return -1
    return (ad_a < ad_b) - (ad_b < ad_a)


def pair_rows(samples: Sequence[AttributeSample],
              window: float = DEFAULT_PAIR_WINDOW
              ) -> list[tuple[AttributeSample, AttributeSample]]:
    """Pair each row with the oldest waiting opposite-priority row <= window s older.

    Unpaired rows wait in one FIFO per priority; one more than window s older
    than the current row is too old for every later row too, so it is dropped.
    Samples must be time-ordered; pairs are (earlier, later), in time order.
    """
    if not (math.isfinite(window) and window > 0):
        raise ValueError(f"pair window must be a finite number of seconds > 0, got {window}")
    pairs, waiting = [], {WF: deque(), LF: deque()}
    for row in samples:
        other = waiting[LF if row.prio == WF else WF]
        while other and row.t - other[0].t > window:
            other.popleft()
        if other:
            pairs.append((other.popleft(), row))
        else:
            waiting[row.prio].append(row)
    return pairs


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
    cmp = better_than((a.ag, a.ad), (b.ag, b.ad)) or (1 if a.t <= b.t else -1)
    return LabeledRecord(features=features, label=a.prio if cmp > 0 else b.prio)


def build_dataset(samples: Sequence[AttributeSample],
                  window: float = DEFAULT_PAIR_WINDOW) -> list[LabeledRecord]:
    """pair_rows then merge_pair, in pair time order."""
    return [merge_pair(p) for p in pair_rows(samples, window=window)]


def unbinnable_feature(X: np.ndarray) -> Optional[tuple[int, str]]:
    """(row, reason) of the first value of an (n, 12) feature matrix, row by row,
    that featstats.bin_index cannot bin at its feature's width; None if all can."""
    ok = np.column_stack([binnable(X[:, f], w) for f, w in enumerate(FEATURE_BIN_WIDTHS)])
    bad = np.argwhere(~ok)
    if not len(bad):
        return None
    i, f = bad[0]
    v = X[i, f]
    why = (f"is outside the int64 bins of width {FEATURE_BIN_WIDTHS[f]}"
           if math.isfinite(v) else "is not finite")
    return int(i), f"feature {FEATURE_NAMES[f]} {why} ({v})"


def records_to_csv(records: Sequence[LabeledRecord]) -> str:
    out = [",".join(FEATURE_NAMES + ["label"])]
    for r in records:
        out.append(",".join(repr(float(v)) for v in r.features) + f",{r.label}")
    return "\n".join(out) + "\n"


def records_from_csv(text: str) -> list[LabeledRecord]:
    """Parse a records file; a fault names the file line of the first one in file order."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("empty dataset file")
    header = lines[0][1].split(",")
    if header != FEATURE_NAMES + ["label"]:
        raise ValueError(f"unexpected dataset header {header}")
    if len(lines) == 1:
        raise ValueError("no records below the header")
    records, malformed = [], None
    for lineno, line in lines[1:]:
        try:
            records.append(_parse_record(line.split(",")))
        except ValueError as exc:
            malformed = f"line {lineno}: {exc}"
            break
    # The lines before a malformed one are screened first: one of them may hold
    # a value that cannot be binned (NaN and inf included).
    fault = unbinnable_feature(np.array([r.features for r in records]).reshape(-1, N_FEATURES))
    if fault:
        row, why = fault
        raise ValueError(f"line {lines[row + 1][0]}: {why}")
    if malformed:
        raise ValueError(malformed)
    return records


def _parse_record(cells: list[str]) -> LabeledRecord:
    """One records line's record; raises ValueError on a malformed cell."""
    if len(cells) != N_FEATURES + 1:
        raise ValueError(f"expected {N_FEATURES + 1} cells")
    try:
        feats = tuple(float(c) for c in cells[:-1])
    except ValueError:
        raise ValueError("non-numeric feature cell") from None
    return LabeledRecord(features=feats, label=cells[-1])
