"""Pairing, merging, labeling, and dataset CSV round-trips."""

import math

import pytest

from smartps.dataset import (
    AG_EPS, FEATURE_NAMES, LabeledRecord, better_than, build_dataset,
    merge_pair, pair_rows, records_from_csv, records_to_csv,
)
from smartps.traceio import WF, LF

from tests.test_traceio import make_sample


# ---------------------------------------------------------------------------
# Outcome comparison
# ---------------------------------------------------------------------------

class TestBetterThan:
    def test_goodput_win(self):
        assert better_than((17.4, 35.0), (11.3, 47.0)) == 1

    def test_goodput_loss(self):
        assert better_than((11.3, 47.0), (17.4, 35.0)) == -1

    def test_near_tie_falls_to_delay(self):
        # Goodputs within 1%: lower delay wins.
        assert better_than((20.0, 30.0), (20.1, 40.0)) == 1

    def test_exact_tie(self):
        assert better_than((20.0, 30.0), (20.0, 30.0)) == 0

    def test_antisymmetry(self):
        cases = [((17.4, 35.0), (11.3, 47.0)), ((20.0, 30.0), (20.1, 40.0)),
                 ((5.0, 10.0), (5.0, 10.0)), ((10.0, 50.0), (10.05, 20.0))]
        for a, b in cases:
            assert better_than(a, b) == -better_than(b, a)

    def test_eps_boundary(self):
        # 1% above exactly is still a tie on goodput; beyond it wins outright.
        base = 10.0
        assert better_than((base * (1.0 + AG_EPS), 99.0), (base, 1.0)) == -1
        assert better_than((base * (1.0 + AG_EPS) + 1e-9, 99.0), (base, 1.0)) == 1


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------

class TestPairRows:
    def test_reference_trace_two_pairs(self, reference_samples):
        pairs, dropped = pair_rows(reference_samples)
        assert len(pairs) == 2
        assert dropped == 0
        assert pairs[0] == (reference_samples[0], reference_samples[1])
        assert pairs[1] == (reference_samples[2], reference_samples[3])

    def test_window_excludes_distant_rows(self, reference_samples):
        # Rows at t=1 and t=10 are 9s apart; a wide window would pair them,
        # the default 5s window must not.
        a, b = reference_samples[1], reference_samples[2]
        pairs, dropped = pair_rows([a, b], window=5.0)
        assert pairs == [] and dropped == 2
        pairs, dropped = pair_rows([a, b], window=10.0)
        assert len(pairs) == 1 and dropped == 0

    @pytest.mark.parametrize("window", [0.0, -1.0, math.nan, math.inf])
    def test_window_must_be_finite_and_positive(self, reference_samples, window):
        with pytest.raises(ValueError, match=f"pair window .* got {window}"):
            pair_rows(reference_samples, window=window)

    def test_same_priority_never_pairs(self):
        samples = [make_sample(t=float(i), prio=WF) for i in range(4)]
        pairs, dropped = pair_rows(samples)
        assert pairs == [] and dropped == 4

    def test_greedy_takes_nearest_following(self):
        a = make_sample(t=0.0, prio=WF)
        b = make_sample(t=1.0, prio=LF)
        c = make_sample(t=2.0, prio=LF)
        pairs, dropped = pair_rows([a, b, c])
        assert pairs == [(a, b)] and dropped == 1

    def test_empty_input(self):
        assert pair_rows([]) == ([], 0)


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------

class TestMergePair:
    def test_reference_pair_one_exact(self, reference_samples):
        rec = merge_pair((reference_samples[0], reference_samples[1]))
        assert rec.label == WF
        expected = {
            "rssi_wifi": -28.0, "rssi_lte": -40.5,
            "sinr_wifi": 20.5, "sinr_lte": 14.5,
            "rtt_wifi": 20.0, "rtt_lte": 50.0,
            "cwnd_wifi": 32.0, "cwnd_lte": 11.0,
            "plr_wifi": (0.0003 + 0.0004) / 2, "plr_lte": (0.0 + 0.0001) / 2,
            "pdr_wifi": (4.5 + 16.2) / 2, "pdr_lte": (8.3 + 3.4) / 2,
        }
        for name, want in expected.items():
            assert rec.features[FEATURE_NAMES.index(name)] == want, name

    def test_reference_pair_two_label(self, reference_samples):
        rec = merge_pair((reference_samples[2], reference_samples[3]))
        assert rec.label == LF

    def test_full_tie_keeps_earlier_priority(self):
        # Tie-breaking is by timestamp, not argument order.
        a = make_sample(t=0.0, prio=LF, ag=10.0, ad=20.0)
        b = make_sample(t=1.0, prio=WF, ag=10.0, ad=20.0)
        assert merge_pair((a, b)).label == LF
        assert merge_pair((b, a)).label == LF

    def test_same_priority_rejected(self):
        a = make_sample(prio=WF)
        with pytest.raises(ValueError):
            merge_pair((a, a))


class TestBuildDataset:
    def test_reference_trace(self, reference_samples):
        records = build_dataset(reference_samples)
        assert [r.label for r in records] == [WF, LF]

    def test_empty(self):
        assert build_dataset([]) == []


# ---------------------------------------------------------------------------
# Record validation and CSV
# ---------------------------------------------------------------------------

class TestRecordCsv:
    def test_wrong_feature_count_rejected(self):
        with pytest.raises(ValueError):
            LabeledRecord(features=(1.0,) * 5, label=WF)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            LabeledRecord(features=(1.0,) * 12, label="XX")

    def test_roundtrip(self, reference_samples):
        records = build_dataset(reference_samples)
        assert records_from_csv(records_to_csv(records)) == records

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError):
            records_from_csv("")

    def test_wrong_header_rejected(self):
        with pytest.raises(ValueError):
            records_from_csv("a,b,label\n1,2,WF\n")

    def test_non_numeric_cell_names_line(self):
        text = records_to_csv(
            [LabeledRecord(features=tuple(float(i) for i in range(12)), label=WF)])
        bad = text.replace("5.0", "oops")
        with pytest.raises(ValueError, match="line 2"):
            records_from_csv(bad)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_line(self, cell):
        text = records_to_csv(
            [LabeledRecord(features=tuple(float(i) for i in range(12)), label=WF)] * 2)
        lines = text.splitlines()
        lines[2] = lines[2].replace("5.0", cell)
        with pytest.raises(ValueError, match="line 3: non-finite"):
            records_from_csv("\n".join(lines) + "\n")
