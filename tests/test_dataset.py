"""Pairing, merging, labeling, and dataset CSV round-trips."""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from smartps.dataset import (
    AG_EPS, FEATURE_BIN_WIDTHS, FEATURE_NAMES, LabeledRecord, better_than, build_dataset,
    merge_pair, pair_rows, records_from_csv, records_to_csv,
)
from smartps.traceio import WF, LF, TraceError

from tests.test_traceio import make_sample


# ---------------------------------------------------------------------------
# Outcome comparison
# ---------------------------------------------------------------------------

def reference_better_than(a, b):
    """better_than as first written, with its third goodput test before the delay."""
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


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def outcome_pairs(draw):
    """Two finite (ag, ad) outcomes; goodputs and delays often sit on a boundary."""
    ag_b, ad_b = draw(FINITE), draw(FINITE)
    edge = ag_b * (1.0 + AG_EPS)
    near = [ag_b, edge] + ([math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
                           if math.isfinite(edge) else [])
    ag_a = draw(st.one_of(FINITE, st.sampled_from(near).filter(math.isfinite)))
    ad_a = draw(st.one_of(FINITE, st.just(ad_b)))
    pair = [(ag_a, ad_a), (ag_b, ad_b)]
    return pair if draw(st.booleans()) else pair[::-1]


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

    @settings(max_examples=3000, deadline=None)
    @given(outcome_pairs())
    def test_matches_the_three_test_reference(self, pair):
        # With finite goodputs the reference's third test always holds once the
        # first two fail, so the delay decides every goodput tie.
        a, b = pair
        assert better_than(a, b) == reference_better_than(a, b)


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------

def reference_pair_rows(samples, window):
    """pair_rows as first written: each unpaired row rescans forward for a partner."""
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
    return pairs


QUARTERS = st.integers(0, 12).map(lambda k: k * 0.25)   # exact sums: gaps hit the window


@st.composite
def timed_runs(draw):
    """(time-ordered samples, window): runs of one tag, ties in time, gaps of exactly window."""
    window = draw(st.one_of(st.integers(1, 8).map(lambda k: k * 0.25), st.floats(0.5, 10.0)))
    runs = draw(st.lists(st.tuples(st.sampled_from([WF, LF, "LF(4G)", "LF(5G)"]),
                                   st.integers(1, 25),
                                   st.one_of(QUARTERS, st.just(window), st.floats(0.0, 3.0))),
                         max_size=12))
    samples, t = [], 0.0
    for tag, length, gap in runs:
        for _ in range(length):
            t += gap
            samples.append(make_sample(t=t, prio_tag=tag, ag=float(len(samples))))
    return samples, window


class TestPairRows:
    def test_reference_trace_two_pairs(self, reference_samples):
        pairs = pair_rows(reference_samples)
        assert len(pairs) == 2
        assert pairs[0] == (reference_samples[0], reference_samples[1])
        assert pairs[1] == (reference_samples[2], reference_samples[3])

    def test_window_excludes_distant_rows(self, reference_samples):
        # Rows at t=1 and t=10 are 9s apart; a wide window would pair them,
        # the default 5s window must not.
        a, b = reference_samples[1], reference_samples[2]
        assert pair_rows([a, b], window=5.0) == []
        assert pair_rows([a, b], window=10.0) == [(a, b)]

    @pytest.mark.parametrize("window", [0.0, -1.0, math.nan, math.inf])
    def test_window_must_be_finite_and_positive(self, reference_samples, window):
        with pytest.raises(ValueError, match=f"pair window .* got {window}"):
            pair_rows(reference_samples, window=window)

    def test_same_priority_never_pairs(self):
        samples = [make_sample(t=float(i), prio_tag=WF) for i in range(4)]
        assert pair_rows(samples) == []

    def test_greedy_takes_nearest_following(self):
        a = make_sample(t=0.0, prio_tag=WF)
        b = make_sample(t=1.0, prio_tag=LF)
        c = make_sample(t=2.0, prio_tag=LF)
        assert pair_rows([a, b, c]) == [(a, b)]

    def test_empty_input(self):
        assert pair_rows([]) == []

    def test_a_row_past_the_window_waits_no_longer(self):
        # a is too old for c, so c pairs with b (as old as c) and d waits alone.
        a, b, c, d = (make_sample(t=t, prio_tag=tag)
                      for t, tag in ((0.0, WF), (6.0, WF), (6.0, LF), (6.0, LF)))
        assert pair_rows([a, b, c, d]) == [(b, c)]

    @settings(max_examples=500, deadline=None)
    @given(timed_runs())
    def test_matches_the_rescanning_reference(self, case):
        samples, window = case
        index = {id(s): i for i, s in enumerate(samples)}
        got = [(index[id(a)], index[id(b)]) for a, b in pair_rows(samples, window)]
        want = [(index[id(a)], index[id(b)]) for a, b in reference_pair_rows(samples, window)]
        assert got == want


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
        a = make_sample(t=0.0, prio_tag=LF, ag=10.0, ad=20.0)
        b = make_sample(t=1.0, prio_tag=WF, ag=10.0, ad=20.0)
        assert merge_pair((a, b)).label == LF
        assert merge_pair((b, a)).label == LF

    def test_same_priority_rejected(self):
        a = make_sample(prio_tag=WF)
        with pytest.raises(ValueError):
            merge_pair((a, a))


class TestBuildDataset:
    def test_reference_trace(self, reference_samples):
        records = build_dataset(reference_samples)
        assert [r.label for r in records] == [WF, LF]

    def test_empty(self):
        assert build_dataset([]) == []

    def test_unknown_prio_tag_names_the_tag(self):
        # A sample built in code is not validated; reading its class still names the tag.
        with pytest.raises(TraceError, match=r"unknown prio tag 'LF\(6G\)'"):
            build_dataset([make_sample(prio_tag="LF(6G)"), make_sample(t=1.0)])


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

    def test_form_feed_in_a_cell_parses(self, reference_samples):
        # A line ends at "\n" only, and float() reads a form feed as padding.
        records = build_dataset(reference_samples)
        header, *rows = records_to_csv(records).split("\n")
        text = "\n".join([header] + [row.replace(",", "\x0c,", 1) for row in rows])
        assert records and "\x0c" in text
        assert records_from_csv(text) == records

    def test_crlf_text_parses(self, reference_samples):
        records = build_dataset(reference_samples)
        assert records_from_csv(records_to_csv(records).replace("\n", "\r\n")) == records

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
        with pytest.raises(ValueError,
                           match=rf"^line 3: feature rtt_lte is not finite \({cell}\)$"):
            records_from_csv("\n".join(lines) + "\n")

    def test_fault_names_the_file_line_past_a_blank_line(self):
        # Blank lines are skipped but still counted, as in model and scenario files.
        text = records_to_csv(
            [LabeledRecord(features=tuple(float(i) for i in range(12)), label=WF)] * 2)
        header, first, second = text.splitlines()
        bad = "\n".join([header, "", first, second.rsplit(",", 1)[0] + ",XX"]) + "\n"
        with pytest.raises(ValueError, match="^line 4: label must be WF or LF, got 'XX'$"):
            records_from_csv(bad)

    def test_feature_past_the_int64_bins_names_the_file_line(self):
        text = records_to_csv(
            [LabeledRecord(features=tuple(float(i) for i in range(12)), label=WF)] * 3)
        header, first, second, third = text.splitlines()
        bad = "\n".join([header, "", first, second.replace("3.0", "1e+300"), third]) + "\n"
        width = FEATURE_BIN_WIDTHS[3]
        with pytest.raises(ValueError, match="^" + re.escape(
                f"line 4: feature sinr_lte is outside the int64 bins of width {width} (1e+300)")
                + "$"):
            records_from_csv(bad)

    def test_faults_are_named_in_file_order(self):
        # An unbinnable value on line 3 comes before a bad label on line 5.
        text = records_to_csv(
            [LabeledRecord(features=tuple(float(i) for i in range(12)), label=WF)] * 4)
        header, *rows = text.splitlines()
        rows[1] = rows[1].replace("3.0", "1e+300")
        rows[3] = rows[3].rsplit(",", 1)[0] + ",XX"
        with pytest.raises(ValueError, match="^line 3: feature sinr_lte is outside"):
            records_from_csv("\n".join([header] + rows) + "\n")
