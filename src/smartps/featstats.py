"""Attribute statistics: binning, percentiles, Kendall tau-b and CIG.

These are the tools that rank cross-layer attributes against the two
performance metrics (AG, AD): attributes are bucketed with per-attribute bin
widths, correlation is measured with tie-corrected Kendall tau-b over the
binned summaries, and conditional information gain (CIG) measures the
normalized reduction of metric uncertainty given an attribute.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .traceio import TRACE_COLUMNS, WF, LF, AttributeSample


class StatsError(ValueError):
    """Degenerate or malformed statistics input."""


# Bin widths per column family, in native units.  RSSI/RSRP 5 dBm,
# SINR/RSRQ 5 dB, TD/RD/PDR 5 Mbps, PLR 0.05% (0.0005 as a fraction), and the
# metrics AG 5 Mbps and AD 5 ms.  RTT (5 ms) and CWND (5 packets) have no
# stated width; 5 keeps the scheme uniform across attributes.
BIN_WIDTHS = {
    "RSSI": 5.0, "SINR": 5.0, "RSRP": 5.0, "RSRQ": 5.0,
    "TD": 5.0, "RD": 5.0, "PDR": 5.0, "PLR": 0.0005,
    "RTT": 5.0, "CWND": 5.0, "AG": 5.0, "AD": 5.0,
}


def family(column: str) -> str:
    """Family of a trace or feature column, which keys BIN_WIDTHS: "plr_wifi" -> "PLR"."""
    return column.split("_")[0].upper()


def bin_index(values, width: float) -> np.ndarray:
    """Fixed-width binning: each value v lands in bin floor(v / width), as int64."""
    q, ok = _quotients(values, width)
    if not ok.all():
        v = float(np.asarray(values, dtype=float)[~ok][0])
        if not math.isfinite(v):
            raise StatsError(f"bin_index: non-finite value {v!r}")
        raise StatsError(f"bin_index: {v!r} / {width} is outside the int64 bins")
    return q.astype(np.int64)


def binnable(values, width: float) -> np.ndarray:
    """Elementwise: would bin_index take the value (finite, its bin within int64)?"""
    return _quotients(values, width)[1]


def _quotients(values, width: float) -> tuple[np.ndarray, np.ndarray]:
    """floor(v / width) as floats, and which of them fit an int64 bin."""
    if not width > 0:                       # False for a NaN width too
        raise StatsError(f"bin_index: width must be > 0, got {width}")
    with np.errstate(over="ignore"):        # an overflowed quotient does not fit
        q = np.floor(np.asarray(values, dtype=float) / width)
    return q, np.abs(q) < 2.0 ** 63         # False for NaN and inf too


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the ceil(p*n/100)-th smallest value."""
    if len(values) == 0:
        raise StatsError("percentile of empty input")
    if not (0.0 < p <= 100.0):
        raise StatsError(f"percentile p={p} outside (0, 100]")
    rank = math.ceil(p * len(values) / 100.0)
    return sorted(values)[rank - 1]


def kendall_tau_b(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-corrected Kendall correlation (tau-b) in [-1, 1].

    The sum over pairs i < j of sign(x_i - x_j) * sign(y_i - y_j), divided by
    sqrt(nx * ny) with nx and ny the pairs untied in x and in y.  Raises on
    degenerate input (fewer than two points, mismatched lengths, or all ties
    on one side).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise StatsError("kendall_tau_b: x and y must be equal-length vectors")
    for name, a in (("x", x), ("y", y)):
        if not np.isfinite(a).all():
            raise StatsError(f"kendall_tau_b: non-finite {name} value {a[~np.isfinite(a)][0]}")
    n = len(x)
    if n < 2:
        raise StatsError("kendall_tau_b: need at least two points")
    i, j = np.triu_indices(n, k=1)   # each pair once
    dx, dy = np.sign(x[i] - x[j]), np.sign(y[i] - y[j])
    nx, ny = np.count_nonzero(dx), np.count_nonzero(dy)
    if not (nx and ny):
        raise StatsError("kendall_tau_b: all values tied on one side")
    return int((dx * dy).sum()) / math.sqrt(int(nx) * int(ny))


def entropy(labels: Sequence) -> float:
    """Shannon entropy of the label distribution, in bits."""
    if len(labels) == 0:
        raise StatsError("entropy of empty input")
    return _entropy_of_counts(np.unique(labels, return_counts=True)[1])


def _entropy_of_counts(counts: np.ndarray) -> float:
    p = counts / counts.sum()
    return float((-p * np.log2(p)).sum())


def cig(x_bins: np.ndarray, y_bins: np.ndarray) -> float:
    """Conditional information gain (H(Y) - H(Y|X)) / H(Y) of two bin columns, in [0, 1].

    Every row contributes (no min_count filtering).  Defined as 0 when H(Y) = 0.
    """
    if len(x_bins) != len(y_bins):
        raise StatsError("cig: x and y length mismatch")
    if len(x_bins) == 0:
        raise StatsError("cig: empty input")
    _, xi, x_counts = np.unique(x_bins, return_inverse=True, return_counts=True)
    _, yi, y_counts = np.unique(y_bins, return_inverse=True, return_counts=True)
    h_y = _entropy_of_counts(y_counts)
    if h_y == 0.0:
        return 0.0
    # H(Y|X) = H(X,Y) - H(X); each (x bin, y bin) pair is one int64 key.
    xy_counts = np.unique(xi * len(y_counts) + yi, return_counts=True)[1]
    h_y_given_x = _entropy_of_counts(xy_counts) - _entropy_of_counts(x_counts)
    val = (h_y - h_y_given_x) / h_y
    return min(1.0, max(0.0, val))


# ---------------------------------------------------------------------------
# Correlation table over the 10 attribute families
# ---------------------------------------------------------------------------

# Attribute columns: the trace columns of one interface, whose suffix gives its priority.
_IFACE_PRIO = {"_wifi": WF, "_lte": LF}
_ATTRIBUTE_COLUMNS = {c: prio for c in TRACE_COLUMNS
                      for suffix, prio in _IFACE_PRIO.items() if c.endswith(suffix)}

ATTRIBUTES = list(dict.fromkeys(map(family, _ATTRIBUTE_COLUMNS)))


@dataclass(frozen=True)
class CorrelationRow:
    attribute: str
    kendall_ag: float
    kendall_ad: float
    cig_ag: float
    cig_ad: float


def _binned_kendall(x_bins: np.ndarray, y, min_count: int) -> float:
    """Kendall between bin index and the mean metric value in that bin.

    Binning first (with min_count filtering) matches the summary-then-correlate
    procedure; it also avoids the massive ties of raw binned data.
    """
    keys, inverse, counts = np.unique(x_bins, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=y)   # adds each bin's values in input order
    keep = counts >= min_count
    if np.count_nonzero(keep) < 2:
        raise StatsError("binned kendall: fewer than two populated bins")
    return kendall_tau_b(keys[keep].astype(float), sums[keep] / counts[keep])


def _column(samples: Sequence[AttributeSample], name: str) -> np.ndarray:
    return np.fromiter(map(operator.attrgetter(name), samples), float, len(samples))


def _bins(name: str, values: np.ndarray) -> np.ndarray:
    # A value without an int64 bin is bad input, not a degenerate variant: name its column.
    try:
        return bin_index(values, BIN_WIDTHS[family(name)])
    except StatsError as exc:
        raise StatsError(f"correlation_table: column {name}: {exc}") from None


def correlation_table(samples: Sequence[AttributeSample],
                      grouped_by_prio: bool = False,
                      min_count: int = 10) -> list[CorrelationRow]:
    """Kendall and CIG of each attribute family against AG and AD.

    Ungrouped: every row contributes to every interface variant of an
    attribute.  Grouped: each variant only sees rows whose priority matches
    its interface (WiFi attributes under WF, LTE attributes under LF).  A
    variant contributes all four figures or none; each reported figure is the
    median across contributing variants, and NaN when there are none.  A
    value whose bin does not fit an int64 is refused, naming its column.
    """
    if len(samples) == 0:
        raise StatsError("correlation_table: no samples")
    if min_count < 1:
        raise StatsError(f"min_count must be >= 1, got {min_count}")
    ag, ad = _column(samples, "ag"), _column(samples, "ad")
    ag_bins, ad_bins = _bins("ag", ag), _bins("ad", ad)
    prio = np.array([s.prio for s in samples])
    figures: dict[str, list[tuple[float, ...]]] = {attr: [] for attr in ATTRIBUTES}
    for column, iface_prio in _ATTRIBUTE_COLUMNS.items():
        use = prio == iface_prio if grouped_by_prio else slice(None)
        x = _bins(column, _column(samples, column))[use]
        try:
            figures[family(column)].append((
                _binned_kendall(x, ag[use], min_count),
                _binned_kendall(x, ad[use], min_count),
                cig(x, ag_bins[use]),
                cig(x, ad_bins[use])))
        except StatsError:
            continue
    return [CorrelationRow(attr, *(np.median(f, axis=0).tolist() if f else [math.nan] * 4))
            for attr, f in figures.items()]


def correlation_table_csv(rows: Sequence[CorrelationRow]) -> str:
    out = ["attribute,kendall_ag,kendall_ad,cig_ag,cig_ad"]
    for r in rows:
        cells = (r.kendall_ag, r.kendall_ad, r.cig_ag, r.cig_ad)
        out.append(",".join([r.attribute] + ["NA" if math.isnan(v) else f"{v:.4f}"
                                             for v in cells]))
    return "\n".join(out) + "\n"
