"""Attribute statistics: binning, percentiles, Kendall tau-b and CIG.

These are the tools that rank cross-layer attributes against the two
performance metrics (AG, AD): attributes are bucketed with per-attribute bin
widths, correlation is measured with tie-corrected Kendall tau-b over the
binned summaries, and conditional information gain (CIG) measures the
normalized reduction of metric uncertainty given an attribute.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .traceio import WF, LF, AttributeSample


class StatsError(ValueError):
    """Degenerate or malformed statistics input."""


# Bin widths per attribute family, in native units.  RSSI/RSRP 5 dBm,
# SINR/RSRQ 5 dB, TD/RD/PDR 5 Mbps, PLR 0.05% (0.0005 as a fraction).
# RTT (5 ms) and CWND (5 packets) have no stated width; 5 keeps the scheme
# uniform across attributes.
BIN_WIDTHS = {
    "RSSI": 5.0, "SINR": 5.0, "RSRP": 5.0, "RSRQ": 5.0,
    "TD": 5.0, "RD": 5.0, "PDR": 5.0, "PLR": 0.0005,
    "RTT": 5.0, "CWND": 5.0,
}

AG_BIN_WIDTH = 5.0   # Mbps
AD_BIN_WIDTH = 5.0   # ms


@dataclass(frozen=True)
class BinSpec:
    """Fixed-width binning: value v lands in floor((v - anchor) / width)."""

    attribute: str
    width: float
    anchor: float = 0.0
    min_count: int = 1

    def __post_init__(self):
        if self.width <= 0:
            raise StatsError("bin width must be > 0")
        if self.min_count < 1:
            raise StatsError("min_count must be >= 1")

    def index(self, v: float) -> int:
        return int(math.floor((v - self.anchor) / self.width))


def default_spec(attribute: str, min_count: int = 1) -> BinSpec:
    return BinSpec(attribute=attribute, width=BIN_WIDTHS[attribute], min_count=min_count)


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

    (C - D) / sqrt((n0 - n1)(n0 - n2)) with n0 = n(n-1)/2 and n1, n2 the
    within-tie pair counts of x and y.  Raises on degenerate input (fewer
    than two points, mismatched lengths, or all ties on one side).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise StatsError("kendall_tau_b: x and y must be equal-length vectors")
    n = len(x)
    if n < 2:
        raise StatsError("kendall_tau_b: need at least two points")
    sx = np.sign(x[:, None] - x[None, :])
    sy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(n, k=1)
    prod = sx[iu] * sy[iu]
    conc = int(np.count_nonzero(prod > 0))
    disc = int(np.count_nonzero(prod < 0))
    n0 = n * (n - 1) // 2
    n1 = sum(t * (t - 1) // 2 for t in Counter(x.tolist()).values())
    n2 = sum(t * (t - 1) // 2 for t in Counter(y.tolist()).values())
    if n0 == n1 or n0 == n2:
        raise StatsError("kendall_tau_b: all values tied on one side")
    return (conc - disc) / math.sqrt((n0 - n1) * (n0 - n2))


def entropy(labels: Sequence) -> float:
    """Shannon entropy of the label distribution, in bits."""
    if len(labels) == 0:
        raise StatsError("entropy of empty input")
    n = len(labels)
    h = 0.0
    for c in Counter(labels).values():
        p = c / n
        h -= p * math.log2(p)
    return h


def cig(x: Sequence[float], y: Sequence[float], x_spec: BinSpec,
        y_width: float) -> float:
    """Conditional information gain (H(Y) - H(Y|X)) / H(Y), in [0, 1].

    Both sides are discretized with fixed-width bins (no min_count filtering
    here: every row contributes).  Defined as 0 when H(Y) = 0.
    """
    if len(x) != len(y):
        raise StatsError("cig: x and y length mismatch")
    if len(x) == 0:
        raise StatsError("cig: empty input")
    if y_width <= 0:
        raise StatsError("cig: y_width must be > 0")
    xb = [x_spec.index(v) for v in x]
    yb = [int(math.floor(v / y_width)) for v in y]
    h_y = entropy(yb)
    if h_y == 0.0:
        return 0.0
    n = len(x)
    groups: dict[int, list[int]] = {}
    for a, b in zip(xb, yb):
        groups.setdefault(a, []).append(b)
    h_y_given_x = sum(len(g) / n * entropy(g) for g in groups.values())
    val = (h_y - h_y_given_x) / h_y
    return min(1.0, max(0.0, val))


# ---------------------------------------------------------------------------
# Correlation table over the 10 attribute families
# ---------------------------------------------------------------------------

# attribute family -> list of (field name, interface priority it belongs to)
ATTRIBUTE_FIELDS = {
    "RSSI": [("rssi_wifi", WF), ("rssi_lte", LF)],
    "SINR": [("sinr_wifi", WF), ("sinr_lte", LF)],
    "RSRP": [("rsrp_lte", LF)],
    "RSRQ": [("rsrq_lte", LF)],
    "TD": [("td_wifi", WF)],
    "RD": [("rd_wifi", WF)],
    "RTT": [("rtt_wifi", WF), ("rtt_lte", LF)],
    "CWND": [("cwnd_wifi", WF), ("cwnd_lte", LF)],
    "PLR": [("plr_wifi", WF), ("plr_lte", LF)],
    "PDR": [("pdr_wifi", WF), ("pdr_lte", LF)],
}

ATTRIBUTES = list(ATTRIBUTE_FIELDS)


@dataclass(frozen=True)
class CorrelationRow:
    attribute: str
    kendall_ag: float
    kendall_ad: float
    cig_ag: float
    cig_ad: float
    available: bool = True


def _binned_kendall(x: list[float], y: list[float], spec: BinSpec) -> float:
    """Kendall between bin index and the mean metric value in that bin.

    Binning first (with min_count filtering) matches the summary-then-correlate
    procedure; it also avoids the massive ties of raw binned data.
    """
    bins: dict[int, list[float]] = {}
    for xv, yv in zip(x, y):
        bins.setdefault(spec.index(xv), []).append(yv)
    bins = {k: v for k, v in bins.items() if len(v) >= spec.min_count}
    if len(bins) < 2:
        raise StatsError("binned kendall: fewer than two populated bins")
    ks = sorted(bins)
    means = [sum(bins[k]) / len(bins[k]) for k in ks]
    return kendall_tau_b([float(k) for k in ks], means)


def correlation_table(samples: Sequence[AttributeSample],
                      grouped_by_prio: bool = False,
                      min_count: int = 10) -> list[CorrelationRow]:
    """Kendall and CIG of each attribute family against AG and AD.

    Ungrouped: every row contributes to every interface variant of an
    attribute.  Grouped: each variant only sees rows whose priority matches
    its interface (WiFi attributes under WF, LTE attributes under LF).  The
    reported value is the median across the variants that have enough data;
    attributes with no usable variant are marked unavailable.
    """
    if len(samples) == 0:
        raise StatsError("correlation_table: no samples")
    rows = []
    for attr in ATTRIBUTES:
        spec = default_spec(attr, min_count=min_count)
        per_metric: dict[str, list[float]] = {"kag": [], "kad": [], "cag": [], "cad": []}
        for field_name, iface_prio in ATTRIBUTE_FIELDS[attr]:
            use = [s for s in samples if (not grouped_by_prio or s.prio == iface_prio)]
            if len(use) < 2:
                continue
            x = [getattr(s, field_name) for s in use]
            ag = [s.ag for s in use]
            ad = [s.ad for s in use]
            try:
                per_metric["kag"].append(_binned_kendall(x, ag, spec))
                per_metric["kad"].append(_binned_kendall(x, ad, spec))
                cig_spec = BinSpec(attr, spec.width, spec.anchor, 1)
                per_metric["cag"].append(cig(x, ag, cig_spec, AG_BIN_WIDTH))
                per_metric["cad"].append(cig(x, ad, cig_spec, AD_BIN_WIDTH))
            except StatsError:
                continue
        if not per_metric["kag"]:
            rows.append(CorrelationRow(attr, math.nan, math.nan, math.nan, math.nan,
                                       available=False))
            continue
        med = lambda vs: float(np.median(vs))
        rows.append(CorrelationRow(attr, med(per_metric["kag"]), med(per_metric["kad"]),
                                   med(per_metric["cag"]), med(per_metric["cad"])))
    return rows


def correlation_table_csv(rows: Sequence[CorrelationRow]) -> str:
    out = ["attribute,kendall_ag,kendall_ad,cig_ag,cig_ad"]
    for r in rows:
        if r.available:
            out.append(f"{r.attribute},{r.kendall_ag:.4f},{r.kendall_ad:.4f},"
                       f"{r.cig_ag:.4f},{r.cig_ad:.4f}")
        else:
            out.append(f"{r.attribute},NA,NA,NA,NA")
    return "\n".join(out) + "\n"
