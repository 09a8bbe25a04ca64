"""Binning, percentiles, Kendall tau-b, entropy, CIG, and correlation tables."""

import dataclasses
import hashlib
import math
import random
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from smartps import featstats, scenarios
from smartps.featstats import (
    BIN_WIDTHS, StatsError, bin_index, cig, correlation_table,
    correlation_table_csv, entropy, family, kendall_tau_b, percentile,
)
from smartps.traceio import synthesize_trace


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------

class TestBinning:
    def test_rssi_example(self):
        assert bin_index([-39.0, -42.0], BIN_WIDTHS["RSSI"]).tolist() == [-8, -9]

    def test_plr_width(self):
        assert bin_index([0.0, 0.0003, 0.0004, 0.0012], BIN_WIDTHS["PLR"]).tolist() \
            == [0, 0, 0, 2]

    def test_boundary_value_goes_to_upper_bin(self):
        assert bin_index([-40.0, -35.0], 5.0).tolist() == [-8, -7]

    def test_family_of_a_column(self):
        assert [family(c) for c in ("plr_wifi", "rsrq_lte", "td_wifi")] == ["PLR", "RSRQ", "TD"]

    def test_attributes_in_trace_column_order(self):
        assert featstats.ATTRIBUTES == ["RSSI", "SINR", "RSRP", "RSRQ", "TD", "RD",
                                        "RTT", "CWND", "PLR", "PDR"]

    def test_min_count_drops_sparse_bins(self):
        # Bin -8 holds two rows and bin -9 one, so only one bin reaches
        # min_count=2 and the binned Kendall has nothing to rank.
        x, y = [-39.0, -38.0, -42.0], [1.0, 2.0, 3.0]
        assert featstats._binned_kendall(bin_index(x, 5.0), y, 1) == -1.0
        with pytest.raises(StatsError):
            featstats._binned_kendall(bin_index(x, 5.0), y, 2)

    def test_bad_width_rejected(self):
        for width in (0.0, -5.0, math.nan):
            with pytest.raises(StatsError, match=f"bin_index: width must be > 0, got {width}"):
                bin_index([1.0, 2.0], width)

    def test_bad_min_count_rejected(self):
        for min_count in (0, -3):
            with pytest.raises(StatsError, match=f"min_count must be >= 1, got {min_count}"):
                correlation_table(synthetic_samples(10), min_count=min_count)


class TestPercentile:
    def test_ten_values_p90(self):
        assert percentile(list(range(1, 11)), 90) == 9

    def test_p100_is_max(self):
        assert percentile([3.0, 1.0, 2.0], 100) == 3.0

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0

    def test_unsorted_input(self):
        assert percentile([5, 1, 4, 2, 3], 50) == 3

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            percentile([], 50)

    def test_p_zero_rejected(self):
        with pytest.raises(StatsError):
            percentile([1.0], 0)

    def test_matches_numpy_on_sorted_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            vals = rng.normal(size=int(rng.integers(1, 60))).tolist()
            for p in (10, 25, 50, 75, 90, 99):
                got = percentile(vals, p)
                rank = math.ceil(p * len(vals) / 100.0)
                assert got == sorted(vals)[rank - 1]


# ---------------------------------------------------------------------------
# Kendall tau-b
# ---------------------------------------------------------------------------

def kendall_oracle(x, y):
    """Independent O(n^2) enumeration of concordant/discordant/tied pairs."""
    n = len(x)
    conc = disc = tie_x = tie_y = 0
    for i in range(n):
        xi, yi = x[i], y[i]
        for j in range(i + 1, n):
            dx = xi - x[j]
            dy = yi - y[j]
            if dx == 0:
                tie_x += 1
            if dy == 0:
                tie_y += 1
            if dx == 0 or dy == 0:
                continue
            if (dx > 0) == (dy > 0):
                conc += 1
            else:
                disc += 1
    n0 = n * (n - 1) // 2
    return (conc - disc) / math.sqrt((n0 - tie_x) * (n0 - tie_y))


class TestKendall:
    def test_tied_example(self):
        assert kendall_tau_b([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6)

    def test_perfect_agreement(self):
        assert kendall_tau_b([1, 2, 3], [10, 20, 30]) == 1.0

    def test_perfect_reversal(self):
        assert kendall_tau_b([1, 2, 3], [30, 20, 10]) == -1.0

    def test_symmetry(self):
        x, y = [1, 5, 2, 2, 7], [3, 1, 4, 4, 2]
        assert kendall_tau_b(x, y) == kendall_tau_b(y, x)

    def test_sign_flip(self):
        x, y = [1.0, 5.0, 2.0, 7.0], [3.0, 1.0, 4.0, 2.0]
        assert kendall_tau_b(x, [-v for v in y]) == pytest.approx(-kendall_tau_b(x, y))

    def test_all_ties_rejected(self):
        with pytest.raises(StatsError):
            kendall_tau_b([1, 1, 1], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(StatsError):
            kendall_tau_b([1.0], [2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(StatsError):
            kendall_tau_b([1, 2], [1, 2, 3])

    def test_matches_pair_enumeration_oracle(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(2, 40)
            # Draw from a small integer alphabet to force plenty of ties.
            x = [rng.randint(0, 6) for _ in range(n)]
            y = [rng.randint(0, 6) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert kendall_tau_b(x, y) == pytest.approx(kendall_oracle(x, y), abs=1e-12)


# ---------------------------------------------------------------------------
# Entropy and CIG
# ---------------------------------------------------------------------------

class TestEntropy:
    def test_three_one_split(self):
        # -(3/4)log2(3/4) - (1/4)log2(1/4)
        assert entropy(["WF", "WF", "WF", "LF"]) == pytest.approx(
            0.8112781244591328, abs=1e-12)

    def test_pure_is_zero(self):
        assert entropy(["WF", "WF"]) == 0.0

    def test_uniform_two_class_is_one(self):
        assert entropy(["WF", "LF"]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            entropy([])


class TestCig:
    SPEC = 5.0

    def test_fully_informative(self):
        # x bins split y bins perfectly -> CIG 1.
        x = [-39.0, -39.0, -42.0, -42.0]
        y = [2.0, 2.0, 7.0, 7.0]
        assert cig(bin_index(x, self.SPEC), bin_index(y, 5.0)) == 1.0

    def test_uninformative(self):
        # Single x bin -> H(Y|X) = H(Y) -> CIG 0.
        x = [-39.0, -38.0, -37.0, -36.0]
        y = [2.0, 7.0, 2.0, 7.0]
        assert cig(bin_index(x, self.SPEC), bin_index(y, 5.0)) == 0.0

    def test_constant_y_defined_as_zero(self):
        assert cig(bin_index([-39.0, -42.0], self.SPEC), bin_index([2.0, 3.0], 5.0)) == 0.0

    def test_hand_value_half_split(self):
        # y bins: [0,0,1,1]; x splits as {bin -8: [y0,y0,y1], bin -9: [y1]}.
        # H(Y)=1, H(Y|X) = 3/4 * H(1/3,2/3) + 1/4 * 0.
        x = [-39.0, -38.0, -37.0, -42.0]
        y = [2.0, 3.0, 7.0, 8.0]
        h_cond = 0.75 * (-(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3))
        assert cig(bin_index(x, self.SPEC), bin_index(y, 5.0)) \
            == pytest.approx(1.0 - h_cond, abs=1e-12)

    def test_bounded_on_random_inputs(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            x = rng.normal(-50, 20, size=n).tolist()
            y = rng.normal(20, 15, size=n).tolist()
            v = cig(bin_index(x, self.SPEC), bin_index(y, 5.0))
            assert 0.0 <= v <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            cig(bin_index([], self.SPEC), bin_index([], 5.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(StatsError):
            cig(bin_index([1.0], self.SPEC), bin_index([1.0, 2.0], 5.0))


# ---------------------------------------------------------------------------
# Non-finite input
# ---------------------------------------------------------------------------

class TestNonFinite:
    def test_bin_index_names_the_value(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(StatsError, match=f"bin_index: non-finite value {bad!r}"):
                bin_index([1.0, bad], 5.0)

    def test_bin_index_refuses_a_quotient_past_int64(self):
        # 2**63 and 1e300 / 5 do not fit an int64 bin; 1e308 / 0.0005 overflows to inf.
        for v, width in ((2.0 ** 63 * 5.0, 5.0), (1e300, 5.0), (-1e308, BIN_WIDTHS["PLR"])):
            with pytest.raises(StatsError, match=re.escape(f"{v!r} / {width} is outside")):
                bin_index([0.0, v], width)

    def test_kendall_names_the_side_and_value(self):
        with pytest.raises(StatsError, match="non-finite x value nan"):
            kendall_tau_b([math.nan, 1, 2], [1, 2, 3])
        with pytest.raises(StatsError, match="non-finite y value -inf"):
            kendall_tau_b([1, 2, 3], [1, -math.inf, 3])

    def test_binned_kendall_refuses_a_nan_metric(self):
        with pytest.raises(StatsError, match="non-finite y value nan"):
            featstats._binned_kendall(bin_index([1, 7, 12], 5.0), [1, math.nan, 3], 1)

    def test_cig_refuses_non_finite_values(self):
        for x, y in (([math.nan, 1.0], [1.0, 2.0]), ([math.inf, 1.0], [1.0, 2.0]),
                     ([1.0, 2.0], [1.0, -math.inf])):
            with pytest.raises(StatsError, match="non-finite value"):
                cig(bin_index(x, 5.0), bin_index(y, 5.0))


# ---------------------------------------------------------------------------
# Reference oracles: the scalar, dict-of-lists forms of the statistics
# ---------------------------------------------------------------------------

def reference_bin_index(values, width):
    return [math.floor(v / width) for v in values]


def reference_binned_kendall(x, y, width, min_count):
    bins = {}
    for xv, yv in zip(x, y):
        bins.setdefault(math.floor(xv / width), []).append(yv)
    bins = {k: v for k, v in bins.items() if len(v) >= min_count}
    if len(bins) < 2:
        raise StatsError("binned kendall: fewer than two populated bins")
    ks = sorted(bins)
    return kendall_tau_b([float(k) for k in ks], [sum(bins[k]) / len(bins[k]) for k in ks])


def reference_entropy(labels):
    n = len(labels)
    return -sum(c / n * math.log2(c / n) for c in Counter(labels).values())


def reference_cig(x, y, x_width, y_width):
    """(H(Y) - sum over x bins of p(x) * H(Y | x)) / H(Y), clamped to [0, 1]."""
    xb, yb = reference_bin_index(x, x_width), reference_bin_index(y, y_width)
    h_y = reference_entropy(yb)
    if h_y == 0.0:
        return 0.0
    groups = {}
    for a, b in zip(xb, yb):
        groups.setdefault(a, []).append(b)
    h_y_given_x = sum(len(g) / len(x) * reference_entropy(g) for g in groups.values())
    return min(1.0, max(0.0, (h_y - h_y_given_x) / h_y))


def oracle_columns(rng, width):
    """Seeded (x, y): bin edges with negatives, heavy ties, a single bin or spread values."""
    n = rng.randint(1, 60)
    kind = rng.randrange(4)
    if kind == 0:
        x = [rng.randint(-6, 6) * width for _ in range(n)]
    elif kind == 1:
        alphabet = [rng.uniform(-4.0, 4.0) * width for _ in range(3)]
        x = [rng.choice(alphabet) for _ in range(n)]
    elif kind == 2:
        x = [rng.uniform(-4.0, 4.0) * width] * n
    else:
        x = [rng.uniform(-30.0, 30.0) * width for _ in range(n)]
    if rng.random() < 0.5:
        y = [rng.randint(-2, 4) * BIN_WIDTHS["AG"] for _ in range(n)]
    else:
        y = [rng.uniform(0.0, 40.0) for _ in range(n)]
    return x, y


def outcome(fn, *args):
    try:
        return fn(*args)
    except StatsError:
        return StatsError


ORACLE_WIDTHS = sorted(set(BIN_WIDTHS.values()))   # 0.0005 (PLR) and 5.0


class TestReferenceOracles:
    @pytest.mark.parametrize("width", ORACLE_WIDTHS)
    def test_bin_index(self, width):
        rng = random.Random(31)
        for _ in range(200):
            x, _ = oracle_columns(rng, width)
            got = bin_index(x, width)
            assert got.dtype == np.int64
            assert got.tolist() == reference_bin_index(x, width)

    @pytest.mark.parametrize("width", ORACLE_WIDTHS)
    def test_binned_kendall_matches_exactly(self, width):
        rng = random.Random(37)
        for _ in range(300):
            x, y = oracle_columns(rng, width)
            min_count = rng.choice((1, 2, 3, 5))
            assert outcome(featstats._binned_kendall, bin_index(x, width), y, min_count) \
                == outcome(reference_binned_kendall, x, y, width, min_count)

    @pytest.mark.parametrize("width", ORACLE_WIDTHS)
    def test_cig_matches_group_wise_form(self, width):
        rng = random.Random(41)
        for _ in range(300):
            x, y = oracle_columns(rng, width)
            ag_width = BIN_WIDTHS["AG"]
            assert abs(cig(bin_index(x, width), bin_index(y, ag_width))
                       - reference_cig(x, y, width, ag_width)) <= 1e-12


# ---------------------------------------------------------------------------
# Correlation table
# ---------------------------------------------------------------------------

def synthetic_samples(n=200, seed=0, ag_from_rssi=True):
    """Trace where AG tracks WiFi RSSI monotonically and AD is anti-correlated."""
    from tests.test_traceio import make_sample
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        rssi = -80.0 + 50.0 * i / n
        ag = (rssi + 100.0) / 3.0 if ag_from_rssi else float(rng.uniform(5, 25))
        samples.append(make_sample(
            t=float(i), rssi_wifi=rssi, rssi_lte=rssi - 20.0,
            prio_tag="WF" if i % 2 == 0 else "LF",
            ag=ag, ad=max(1.0, 120.0 - ag * 4.0)))
    return samples


class TestCorrelationTable:
    def test_has_all_ten_attributes(self):
        rows = correlation_table(synthetic_samples(), min_count=5)
        assert [r.attribute for r in rows] == featstats.ATTRIBUTES

    def test_monotone_attribute_scores_high(self):
        rows = {r.attribute: r for r in correlation_table(synthetic_samples(),
                                                          min_count=5)}
        assert rows["RSSI"].kendall_ag == 1.0
        assert rows["RSSI"].kendall_ad == -1.0
        assert rows["RSSI"].cig_ag > 0.5

    def test_constant_attribute_unavailable(self):
        samples = synthetic_samples(50)
        rows = {r.attribute: r for r in correlation_table(samples, min_count=5)}
        # rsrp is constant in make_sample -> one bin -> kendall undefined.
        r = rows["RSRP"]
        assert all(math.isnan(v) for v in (r.kendall_ag, r.kendall_ad, r.cig_ag, r.cig_ad))

    def test_grouped_restricts_to_matching_priority(self):
        samples = synthetic_samples(200)
        ungrouped = {r.attribute: r for r in correlation_table(samples, min_count=5)}
        grouped = {r.attribute: r for r in
                   correlation_table(samples, grouped_by_prio=True, min_count=5)}
        assert not math.isnan(grouped["RSSI"].kendall_ag)
        assert not math.isnan(ungrouped["RSSI"].kendall_ag)

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            correlation_table([])

    def test_csv_shape_and_na(self):
        rows = correlation_table(synthetic_samples(60), min_count=5)
        text = correlation_table_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "attribute,kendall_ag,kendall_ad,cig_ag,cig_ad"
        assert len(lines) == 11
        assert any(",NA,NA,NA,NA" in ln for ln in lines)

    @pytest.mark.parametrize("column", ["cwnd_wifi", "rtt_lte", "ag"])
    def test_value_past_the_int64_bins_names_its_column(self, column):
        # Such a value is bad input: it must not drop the variant as degenerate.
        samples = synthetic_samples(60)
        samples[7] = dataclasses.replace(samples[7], **{column: 1e300})
        with pytest.raises(StatsError, match=f"column {column}: bin_index: "
                                             "1e\\+300 / 5.0 is outside the int64 bins"):
            correlation_table(samples, min_count=5)

    @pytest.mark.parametrize("grouped", [False, True])
    def test_bins_each_column_once(self, monkeypatch, grouped):
        # AG, AD and the 16 attribute columns: one bin_index call each.
        calls = []

        def counted(values, width):
            calls.append(width)
            return bin_index(values, width)
        monkeypatch.setattr(featstats, "bin_index", counted)
        correlation_table(synthetic_samples(200), grouped_by_prio=grouped, min_count=5)
        assert len(calls) == 2 + len(featstats._ATTRIBUTE_COLUMNS) == 18

    def test_variant_gives_all_four_figures_or_none(self):
        # With AD constant, every variant's kendall_ad fails after its
        # kendall_ag succeeded; no figure of that variant may survive.
        samples = [dataclasses.replace(s, ad=25.0) for s in synthetic_samples(200)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = correlation_table(samples, min_count=5)
        lines = correlation_table_csv(rows).strip().splitlines()[1:]
        assert lines == [f"{attr},NA,NA,NA,NA" for attr in featstats.ATTRIBUTES]


@pytest.fixture(scope="module")
def four_scenario_trace():
    """The four scenarios of test_traceio's pinned trace digest, at 0.1 s."""
    samples = []
    for scn in (scenarios.walkaway(3, 60.0), scenarios.interference_burst(5, 60.0),
                scenarios.oscillating(6, 33.0, period=7.0), scenarios.stable(9, 20.0)):
        samples.extend(synthesize_trace(scn, 0.1))
    return samples


@pytest.mark.parametrize("grouped,min_count,digest", [
    (False, 10, "3214601a860a4f44e234978109d0180c5174bd8d46b31388fbcfac43b4f81c12"),
    (False, 1, "1c04190033d04aec21a018e1b66cd4128ce0ec3d54a9bda3e37b91b74a6b4634"),
    (True, 10, "73085e1775daf6f91127d30e6966b3e6b36101e3cadf6bca8c4e887a5c9c03f2"),
    (True, 1, "ee29d25805a9c3fa325111e3f12f9a8194672c6616d4c2557f64c9a970e88a30"),
])
def test_pinned_corr_csv(four_scenario_trace, grouped, min_count, digest):
    # A change that moves these digests changes what the analyze verb writes.
    rows = correlation_table(four_scenario_trace, grouped_by_prio=grouped, min_count=min_count)
    assert hashlib.sha256(correlation_table_csv(rows).encode()).hexdigest() == digest
