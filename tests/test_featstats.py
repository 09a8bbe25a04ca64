"""Binning, percentiles, Kendall tau-b, entropy, CIG, and correlation tables."""

import math
import random

import numpy as np
import pytest

from smartps import featstats
from smartps.featstats import (
    BinSpec, StatsError, cig, correlation_table, correlation_table_csv,
    default_spec, entropy, kendall_tau_b, percentile,
)


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------

class TestBinning:
    def test_rssi_example(self):
        spec = default_spec("RSSI")
        assert [spec.index(v) for v in (-39.0, -42.0)] == [-8, -9]

    def test_plr_width(self):
        spec = default_spec("PLR")
        assert [spec.index(v) for v in (0.0, 0.0003, 0.0004, 0.0012)] == [0, 0, 0, 2]

    def test_boundary_value_goes_to_upper_bin(self):
        spec = BinSpec("RSSI", 5.0)
        assert spec.index(-40.0) == -8
        assert spec.index(-35.0) == -7

    def test_min_count_drops_sparse_bins(self):
        # Bin -8 holds two rows and bin -9 one, so only one bin reaches
        # min_count=2 and the binned Kendall has nothing to rank.
        x, y = [-39.0, -38.0, -42.0], [1.0, 2.0, 3.0]
        assert featstats._binned_kendall(x, y, BinSpec("RSSI", 5.0)) == -1.0
        with pytest.raises(StatsError):
            featstats._binned_kendall(x, y, BinSpec("RSSI", 5.0, min_count=2))

    def test_bad_width_rejected(self):
        with pytest.raises(StatsError):
            BinSpec("RSSI", 0.0)

    def test_bad_min_count_rejected(self):
        with pytest.raises(StatsError):
            BinSpec("RSSI", 5.0, min_count=0)


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
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
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
    SPEC = BinSpec("RSSI", 5.0)

    def test_fully_informative(self):
        # x bins split y bins perfectly -> CIG 1.
        x = [-39.0, -39.0, -42.0, -42.0]
        y = [2.0, 2.0, 7.0, 7.0]
        assert cig(x, y, self.SPEC, 5.0) == 1.0

    def test_uninformative(self):
        # Single x bin -> H(Y|X) = H(Y) -> CIG 0.
        x = [-39.0, -38.0, -37.0, -36.0]
        y = [2.0, 7.0, 2.0, 7.0]
        assert cig(x, y, self.SPEC, 5.0) == 0.0

    def test_constant_y_defined_as_zero(self):
        assert cig([-39.0, -42.0], [2.0, 3.0], self.SPEC, 5.0) == 0.0

    def test_hand_value_half_split(self):
        # y bins: [0,0,1,1]; x splits as {bin -8: [y0,y0,y1], bin -9: [y1]}.
        # H(Y)=1, H(Y|X) = 3/4 * H(1/3,2/3) + 1/4 * 0.
        x = [-39.0, -38.0, -37.0, -42.0]
        y = [2.0, 3.0, 7.0, 8.0]
        h_cond = 0.75 * (-(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3))
        assert cig(x, y, self.SPEC, 5.0) == pytest.approx(1.0 - h_cond, abs=1e-12)

    def test_bounded_on_random_inputs(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            x = rng.normal(-50, 20, size=n).tolist()
            y = rng.normal(20, 15, size=n).tolist()
            v = cig(x, y, self.SPEC, 5.0)
            assert 0.0 <= v <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            cig([], [], self.SPEC, 5.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(StatsError):
            cig([1.0], [1.0, 2.0], self.SPEC, 5.0)


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
            prio="WF" if i % 2 == 0 else "LF",
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
        assert rows["RSRP"].available is False

    def test_grouped_restricts_to_matching_priority(self):
        samples = synthetic_samples(200)
        ungrouped = {r.attribute: r for r in correlation_table(samples, min_count=5)}
        grouped = {r.attribute: r for r in
                   correlation_table(samples, grouped_by_prio=True, min_count=5)}
        assert grouped["RSSI"].available
        assert ungrouped["RSSI"].available

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
