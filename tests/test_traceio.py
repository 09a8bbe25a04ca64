"""Trace schema, CSV round-tripping, and synthetic scenario generation."""

import dataclasses
import hashlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smartps import scenarios, traceio
from smartps.traceio import (
    WF, LF, AttributeSample, Scenario, Segment, TraceError,
    constant, linear_ramp, noisy,
    parse_scenario, parse_trace, synthesize_trace, write_scenario, write_trace,
)


def make_sample(**overrides):
    base = dict(
        t=0.0, rssi_lte=-60.0, rssi_wifi=-45.0, sinr_lte=15.0, sinr_wifi=22.0,
        rsrp_lte=-90.0, rsrq_lte=-10.0, td_wifi=30.0, rd_wifi=30.0,
        rtt_lte=45.0, rtt_wifi=20.0, cwnd_lte=10.0, cwnd_wifi=20.0,
        plr_lte=0.0, plr_wifi=0.001, pdr_lte=5.0, pdr_wifi=15.0,
        prio_tag=WF, ag=12.0, ad=25.0,
    )
    base.update(overrides)
    return AttributeSample(**base)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class TestParseTrace:
    def test_reference_row_one(self, reference_samples):
        s = reference_samples[0]
        assert s.rssi_lte == -39
        assert s.rssi_wifi == -29
        assert s.sinr_lte == 17
        assert s.plr_wifi == 0.0003
        assert s.prio == LF
        assert s.ag == 11.3
        assert s.ad == 47

    def test_reference_prio_tags_collapse(self, reference_samples):
        assert [s.prio for s in reference_samples] == [LF, WF, LF, WF]
        assert reference_samples[0].prio_tag == "LF(4G)"
        assert reference_samples[2].prio_tag == "LF(5G)"
        assert reference_samples[1].prio_tag == WF

    def test_interface_tag_reads_as_lf_and_is_written_back(self):
        s = make_sample(prio_tag="LF(4G)")
        assert s.prio == LF
        assert write_trace([s]).splitlines()[1].split(",")[17] == "LF(4G)"
        assert parse_trace(write_trace([s])) == [s]

    def test_prio_is_not_a_field(self):
        # The class is read from the tag, so the two cannot disagree.
        with pytest.raises(TypeError):
            make_sample(prio=WF, prio_tag="LF(4G)")

    def test_parsed_tags_are_shared(self):
        # One string object per tag, not one per row.
        text = write_trace([make_sample(t=0.0, prio_tag="LF(4G)"),
                            make_sample(t=1.0, prio_tag="LF(4G)")])
        a, b = parse_trace(text)
        assert a.prio_tag is b.prio_tag

    def test_percent_plr_parsing(self, reference_samples):
        assert reference_samples[1].plr_lte == 0.0001
        assert reference_samples[2].plr_wifi == 0.001
        assert reference_samples[0].plr_lte == 0.0

    def test_header_only_gives_empty_list(self):
        assert parse_trace(",".join(traceio.TRACE_COLUMNS) + "\n") == []

    def test_empty_input_rejected(self):
        with pytest.raises(TraceError, match="header"):
            parse_trace("")

    def test_missing_column_named(self):
        bad = ",".join(traceio.TRACE_COLUMNS[:-1]) + "\n"
        with pytest.raises(TraceError, match="missing column"):
            parse_trace(bad)

    def test_non_numeric_cell_names_row_and_column(self, reference_trace_text):
        bad = reference_trace_text.replace("-39", "oops")
        with pytest.raises(TraceError, match="row 2.*rssi_lte"):
            parse_trace(bad)

    def test_fault_past_a_blank_line_names_the_file_line(self, reference_trace_text):
        # A row is numbered by its line in the file, blank lines counted.
        bad = reference_trace_text.replace("\n0,-39,", "\n\n0,oops,", 1)
        with pytest.raises(TraceError, match=r"^row 3, column rssi_lte: non-numeric cell 'oops'$"):
            parse_trace(bad)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("old,col", [("-39", "rssi_lte"), ("0.03%", "plr_wifi")])
    def test_non_finite_cell_names_row_and_column(self, reference_trace_text,
                                                  cell, old, col):
        bad = reference_trace_text.replace(old, cell + ("%" if "%" in old else ""), 1)
        with pytest.raises(TraceError, match=f"row 2, column {col}: non-finite"):
            parse_trace(bad)

    def test_unknown_prio_tag_rejected(self, reference_trace_text):
        bad = reference_trace_text.replace("LF(4G)", "LF(6G)")
        with pytest.raises(TraceError, match=r"row 2: unknown prio tag 'LF\(6G\)'"):
            parse_trace(bad)

    def test_time_going_backwards_rejected(self, reference_trace_text):
        lines = reference_trace_text.splitlines()
        lines[2], lines[4] = lines[4], lines[2]
        with pytest.raises(TraceError, match="time goes backwards"):
            parse_trace("\n".join(lines) + "\n")

    def test_negative_time_rejected(self, reference_trace_text):
        # t counts seconds since trace start.
        bad = reference_trace_text.replace("\n0,-39,", "\n-1,-39,", 1)
        with pytest.raises(TraceError, match="row 2, column t: negative time -1.0"):
            parse_trace(bad)

    def test_invariant_violation_rejected(self, reference_trace_text):
        bad = reference_trace_text.replace("0.03%", "130%")
        with pytest.raises(TraceError, match="plr_wifi"):
            parse_trace(bad)

    def test_label_column_rejected(self, reference_trace_text):
        # Labels live in the dataset records, never in a trace.
        labeled = "\n".join(line + (",label" if i == 0 else ",WF")
                             for i, line in enumerate(reference_trace_text.splitlines()))
        with pytest.raises(TraceError, match="header: unexpected column order"):
            parse_trace(labeled + "\n")


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

class TestWriteTrace:
    def test_unknown_prio_tag_refused(self):
        with pytest.raises(TraceError, match=r"sample 0: unknown prio tag 'LF\(6G\)'"):
            write_trace([make_sample(prio_tag="LF(6G)")])

    def test_negative_time_refused(self):
        with pytest.raises(TraceError, match="sample 0, column t: negative time -1.0"):
            write_trace([make_sample(t=-1.0), make_sample(t=0.0)])

    @pytest.mark.parametrize("faults,message", [
        ({1500: dict(t=0.5)}, "sample 1500, column t: time goes backwards (0.5 < 1499.0)"),
        ({1200: dict(ad=0.0), 1500: dict(t=0.5)}, "sample 1200: ad must be > 0"),
        ({0: dict(cwnd_lte=0.5, t=math.nan)}, "sample 0, column t: non-finite value nan"),
    ])
    def test_first_bad_sample_named(self, faults, message):
        samples = [make_sample(**{"t": float(i), **faults.get(i, {})}) for i in range(2000)]
        with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
            write_trace(samples)

    def test_empty_list_gives_header_only(self):
        assert write_trace([]) == ",".join(traceio.TRACE_COLUMNS) + "\n"

    def test_one_sample_gives_two_lines(self):
        out = write_trace([make_sample()])
        assert len(out.splitlines()) == 2

    def test_text_roundtrip_is_exact(self, reference_trace_text):
        assert write_trace(parse_trace(reference_trace_text)) == reference_trace_text

    def test_sample_roundtrip_on_synthesized_trace(self):
        scn = Scenario(name="s", duration=100.0, seed=5, segments=(
            Segment(0.0, {"rssi_wifi": noisy(-50.0, 4.0),
                          "sinr_wifi": noisy(20.0, 2.0)}),))
        samples = synthesize_trace(scn, 0.1)
        assert len(samples) == 1000
        assert parse_trace(write_trace(samples)) == samples


# ---------------------------------------------------------------------------
# Round-trip properties
# ---------------------------------------------------------------------------

# The numeric bounds the trace row invariants enforce, per column.
BOUNDS = {"t": (0.0, None), "plr_lte": (0.0, 1.0), "plr_wifi": (0.0, 1.0),
          **dict.fromkeys(("pdr_lte", "pdr_wifi", "td_wifi", "rd_wifi", "ag"), (0.0, None)),
          **dict.fromkeys(("rtt_lte", "rtt_wifi", "ad"), (math.ulp(0.0), None)),
          **dict.fromkeys(("cwnd_lte", "cwnd_wifi"), (1.0, None)),
          **dict.fromkeys(("rssi_lte", "rssi_wifi", "rsrp_lte"), (None, 0.0))}


def numbers(lo=None, hi=None):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def traces(draw):
    """Time-ordered valid samples; a raw prio tag is drawn the way a file carries it."""
    n = draw(st.integers(0, 6))
    times = sorted(draw(st.lists(numbers(*BOUNDS["t"]), min_size=n, max_size=n)))
    samples = []
    for t in times:
        tag = draw(st.sampled_from(sorted(traceio._PRIO_TAGS)))
        values = {col: draw(numbers(*BOUNDS.get(col, (None, None))))
                  for col in traceio.TRACE_COLUMNS if col not in ("t", "prio")}
        samples.append(AttributeSample(t=t, prio_tag=tag, **values))
    return samples


TRAJECTORIES = st.one_of(st.builds(constant, numbers()),
                         st.tuples(numbers(), numbers())
                         .filter(lambda v: math.isfinite(v[1] - v[0]))
                         .map(lambda v: linear_ramp(*v)),
                         st.builds(noisy, numbers(), numbers(0.0)))


@st.composite
def scenario_files(draw):
    starts = sorted(draw(st.sets(numbers(0.0), max_size=3)) | {0.0})
    return Scenario(
        name=draw(st.text(min_size=1).filter(lambda name: name.split() == [name])),
        duration=draw(numbers(0.0)), seed=draw(st.integers()),
        segments=tuple(Segment(start, draw(st.dictionaries(
            st.sampled_from(traceio.SCENARIO_ATTRS), TRAJECTORIES, max_size=3)))
            for start in starts))


class TestRoundTripProperties:
    @settings(max_examples=300, deadline=None)
    @given(samples=traces())
    def test_trace(self, samples):
        assert parse_trace(write_trace(samples)) == samples

    @settings(max_examples=300, deadline=None)
    @given(scn=scenario_files())
    def test_scenario(self, scn):
        assert parse_scenario(write_scenario(scn)) == scn

    @pytest.mark.parametrize("col", ["t", "sinr_lte", "rssi_wifi", "plr_lte", "ad"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_write_refuses_non_finite(self, col, value):
        with pytest.raises(TraceError, match=f"sample 0, column {col}: non-finite"):
            write_trace([make_sample(**{col: value})])

    @pytest.mark.parametrize("name", ["", "two words", "line\nbreak", " padded"])
    def test_scenario_name_must_be_one_word(self, name):
        with pytest.raises(TraceError, match="one word"):
            Scenario(name=name, duration=1.0, seed=0, segments=(Segment(0.0, {}),))

    def test_unknown_trajectory_kind_rejected(self):
        with pytest.raises(TraceError, match="^unknown trajectory kind 'zigzag'$"):
            traceio.Trajectory("zigzag", -50.0)

    def test_one_value_kind_refuses_a_second_value(self):
        # write_scenario writes only the values a kind reads.
        with pytest.raises(TraceError, match="constant trajectory takes one value"):
            traceio.Trajectory("constant", -50.0, 3.0)

    @pytest.mark.parametrize("sigma", [-1.0, -1e-300])
    def test_noisy_sigma_must_not_be_negative(self, sigma):
        with pytest.raises(TraceError, match="noisy sigma must be >= 0"):
            noisy(-60.0, sigma)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_scenario_numbers_must_be_finite(self, value):
        with pytest.raises(TraceError, match="trajectory values must be finite"):
            noisy(-60.0, value)
        with pytest.raises(TraceError, match="segment start must be finite"):
            Scenario(name="x", duration=0.0, seed=0, segments=(Segment(value, {}),))


# ---------------------------------------------------------------------------
# Block-wise parsing against a row-by-row oracle
# ---------------------------------------------------------------------------

PLR_COLUMNS = ("plr_lte", "plr_wifi")
NUMERIC_COLUMNS = [c for c in traceio.TRACE_COLUMNS if c != "prio"]


def oracle_validate(s, where):
    """The per-sample checks in the order parse_trace applies them."""
    def bad(cond, msg):
        if cond:
            raise TraceError(f"{where}: {msg}")

    bad(s.prio_tag not in traceio._PRIO_TAGS, f"unknown prio tag {s.prio_tag!r}")
    for name in NUMERIC_COLUMNS:
        v = getattr(s, name)
        if not math.isfinite(v):
            raise TraceError(f"{where}, column {name}: non-finite value {v!r}")
    if s.t < 0.0:
        raise TraceError(f"{where}, column t: negative time {s.t} (seconds since trace start)")
    for name in PLR_COLUMNS:
        v = getattr(s, name)
        bad(not (0.0 <= v <= 1.0), f"{name}={v} outside [0,1]")
    for name in ("pdr_lte", "pdr_wifi", "td_wifi", "rd_wifi", "ag"):
        bad(getattr(s, name) < 0.0, f"{name} must be >= 0")
    for name in ("rtt_lte", "rtt_wifi", "ad"):
        bad(getattr(s, name) <= 0.0, f"{name} must be > 0")
    for name in ("cwnd_lte", "cwnd_wifi"):
        bad(getattr(s, name) < 1.0, f"{name} must be >= 1")
    for name in ("rssi_lte", "rssi_wifi", "rsrp_lte"):
        bad(getattr(s, name) > 0.0, f"{name} is received power and must be <= 0 dBm")


def oracle_parse(text):
    """The reference parse: one row at a time, each cell converted, then checked.
    A row is numbered by its line in the file; blank lines are skipped."""
    lines = [(lineno, ln.rstrip("\n")) for lineno, ln in enumerate(io.StringIO(text), start=1)
             if ln.strip() != ""]
    samples = []
    prev_t = -math.inf
    for rowno, line in lines[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(traceio.TRACE_COLUMNS):
            raise TraceError(f"row {rowno}: expected {len(traceio.TRACE_COLUMNS)} cells, "
                             f"got {len(cells)}")
        vals = {}
        for col, cell in zip(traceio.TRACE_COLUMNS, cells):
            if col == "prio":
                continue
            try:
                vals[col] = traceio._parse_plr(cell) if col in PLR_COLUMNS else float(cell)
            except (ValueError, ArithmeticError):
                raise TraceError(f"row {rowno}, column {col}: non-numeric cell {cell!r}") from None
        sample = AttributeSample(prio_tag=cells[traceio.TRACE_COLUMNS.index("prio")], **vals)
        oracle_validate(sample, f"row {rowno}")
        if sample.t < prev_t:
            raise TraceError(f"row {rowno}, column t: time goes backwards ({sample.t} < {prev_t})")
        prev_t = sample.t
        samples.append(sample)
    return samples


def valid_cells(rng, n):
    """n rows of cell strings that parse: boundary values, ints, padding, both PLR forms."""
    def pick(*choices):   # per row, one of several arrays of candidate values
        return np.choose(rng.integers(len(choices), size=n), choices)

    def u(lo, hi):
        return rng.uniform(lo, hi, n)

    zeros, ones = np.zeros(n), np.ones(n)
    steps = pick(zeros, u(0.0, 0.5), np.round(u(0.0, 3.0)))
    values = {
        "t": rng.choice([0.0, 7.25]) + np.cumsum(steps),
        "sinr_lte": u(-20.0, 50.0), "sinr_wifi": pick(u(-20.0, 50.0), np.round(u(-5, 30))),
        "rsrq_lte": u(-30.0, 0.0),
        **{c: pick(-u(0.0, 120.0), zeros, -np.round(u(30, 120)))
           for c in ("rssi_lte", "rssi_wifi", "rsrp_lte")},
        **{c: pick(u(0.0, 50.0), zeros) for c in ("td_wifi", "rd_wifi", "pdr_lte", "pdr_wifi",
                                                   "ag")},
        **{c: pick(u(1e-3, 500.0), np.full(n, 5e-324)) for c in ("rtt_lte", "rtt_wifi", "ad")},
        **{c: pick(np.round(u(1, 100)), ones, u(1.0, 9.0)) for c in ("cwnd_lte", "cwnd_wifi")},
        **{c: pick(u(0.0, 1.0), zeros, ones, np.round(u(0, 1e4)) / 1e6) for c in PLR_COLUMNS},
    }
    percent = rng.random((2, n)) < 0.7
    columns = []
    for col in traceio.TRACE_COLUMNS:
        if col == "prio":
            columns.append(rng.choice(sorted(traceio._PRIO_TAGS), n).tolist())
        elif col in PLR_COLUMNS:
            columns.append([traceio._fmt_plr(v) if pct else repr(v) for v, pct in
                            zip(values[col].tolist(), percent[PLR_COLUMNS.index(col)])])
        else:
            columns.append([traceio._fmt_num(v) for v in values[col].tolist()])
    rows = [list(row) for row in zip(*columns)]
    for i, j in zip(rng.integers(n, size=n // 50 + 1), rng.integers(len(columns), size=n // 50 + 1)):
        rows[i][j] = f" {rows[i][j]}\t\r"   # parse_trace strips each cell
    return rows


FAULTS = {
    "non_numeric": (NUMERIC_COLUMNS, ["oops", "", "1.2.3", "--1", "5%%"]),
    "non_finite": (NUMERIC_COLUMNS, ["nan", "inf", "-inf", "NaN", "nan%", "-inf%"]),
    "negative_t": (["t"], ["-1", "-0.5", "-1e-300"]),
    "plr_range": (list(PLR_COLUMNS), ["130%", "1.0000001", "-0.5%", "-1e-9"]),
    "non_negative": (["pdr_lte", "pdr_wifi", "td_wifi", "rd_wifi", "ag"], ["-0.5", "-1e-300"]),
    "positive": (["rtt_lte", "rtt_wifi", "ad"], ["0", "-0", "-3"]),
    "cwnd": (["cwnd_lte", "cwnd_wifi"], ["0.5", "0", "0.9999999999999999"]),
    "power": (["rssi_lte", "rssi_wifi", "rsrp_lte"], ["3", "5e-324"]),
    "tag": (["prio"], ["LF(6G)", "wf", "WF\x00", ""]),
}


@st.composite
def faulty_traces(draw, kind):
    """A trace of 1-3,000 rows, so that it spans up to three blocks, with one fault
    of the given kind (None: no fault); rows near block edges are drawn often."""
    block = traceio._BLOCK_ROWS
    n = draw(st.one_of(st.integers(1, 3 * block - 72),
                       st.sampled_from([block - 1, block, block + 1, 2 * block + 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rows = valid_cells(rng, n)
    at = draw(st.one_of(st.integers(0, n - 1), st.sampled_from(
        [i for i in (0, block - 1, block, 2 * block - 1, 2 * block, n - 1) if i < n])))
    if kind in FAULTS:
        cols, cells = FAULTS[kind]
        col = draw(st.sampled_from(cols))
        rows[at][traceio.TRACE_COLUMNS.index(col)] = draw(st.sampled_from(cells))
    elif kind == "backwards" and n > 1:
        at = max(at, 1)
        rows[at][0] = traceio._fmt_num(float(rows[at - 1][0]) - draw(
            st.sampled_from([1e-6, 0.5, 3.0])))
    elif kind == "cell_count":
        rows[at] = rows[at][:-1] if draw(st.booleans()) else rows[at] + ["1"]
    lines = [",".join(traceio.TRACE_COLUMNS)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):   # skipped, but counted in a row's file line
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  "])))
    return "\n".join(lines) + "\n"


def outcome(parse, text):
    try:
        return [repr(s) for s in parse(text)]
    except TraceError as exc:
        return str(exc)


class TestBlockParse:
    @pytest.mark.parametrize("kind", [None, "backwards", "cell_count", *FAULTS])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_matches_row_by_row_oracle(self, kind, data):
        text = data.draw(faulty_traces(kind))
        assert outcome(parse_trace, text) == outcome(oracle_parse, text)

    @pytest.mark.parametrize("malformed", ["short", "non_numeric"])
    @pytest.mark.parametrize("invariant_first", [True, False])
    def test_first_of_two_faults_in_a_block_is_named(self, malformed, invariant_first):
        # A malformed row makes the block convert row by row; an invariant fault
        # in an earlier row of that block is still the one named.
        rows = valid_cells(np.random.default_rng(21), 800)
        bad_ad, bad_row = (100, 700) if invariant_first else (700, 100)
        rows[bad_ad][traceio.TRACE_COLUMNS.index("ad")] = "0"
        if malformed == "short":
            rows[bad_row].pop()
            message = ": expected 20 cells, got 19"
        else:
            rows[bad_row][traceio.TRACE_COLUMNS.index("rssi_lte")] = "oops"
            message = ", column rssi_lte: non-numeric cell 'oops'"
        text = "\n".join([",".join(traceio.TRACE_COLUMNS)] + [",".join(r) for r in rows])
        # Row index i is on file line i + 2, after the header.
        expected = (f"row {bad_ad + 2}: ad must be > 0" if invariant_first
                    else f"row {bad_row + 2}{message}")
        with pytest.raises(TraceError, match=f"^{re.escape(expected)}$"):
            parse_trace(text + "\n")

    def test_fault_in_the_second_block_is_named(self):
        n = traceio._BLOCK_ROWS + 300
        rows = valid_cells(np.random.default_rng(22), n)
        rows[n - 1][traceio.TRACE_COLUMNS.index("ad")] = "0"
        text = "\n".join([",".join(traceio.TRACE_COLUMNS)] + [",".join(r) for r in rows])
        with pytest.raises(TraceError, match=f"^row {n + 1}: ad must be > 0$"):
            parse_trace(text + "\n")


# Field values that break an invariant: any number may be non-finite, and a
# bounded one may sit just past its bound or well past it.
BAD_VALUES = {
    "prio_tag": ["LF(6G)", "wf", ""],
    **{c: [math.nan, math.inf, -math.inf] for c in NUMERIC_COLUMNS},
}
for _col, (_lo, _hi) in BOUNDS.items():
    if _lo is not None:
        BAD_VALUES[_col] += [float(np.nextafter(_lo, -math.inf)), _lo - 3.0]
    if _hi is not None:
        BAD_VALUES[_col] += [float(np.nextafter(_hi, math.inf)), _hi + 3.0]


def error_of(check, *args):
    """The TraceError message check(*args) raises, or None."""
    try:
        check(*args)
    except TraceError as exc:
        return str(exc)
    return None


class TestValidate:
    @pytest.mark.parametrize("n_faults", [0, 1, 2])
    def test_matches_oracle_on_seeded_faults(self, n_faults):
        rng = np.random.default_rng(1700 + n_faults)
        rows = valid_cells(rng, 300)
        text = "\n".join([",".join(traceio.TRACE_COLUMNS)] + [",".join(r) for r in rows])
        names = sorted(BAD_VALUES)
        for sample in parse_trace(text + "\n"):
            fields = rng.choice(names, n_faults, replace=False).tolist()
            sample = dataclasses.replace(sample, **{
                f: BAD_VALUES[f][rng.integers(len(BAD_VALUES[f]))] for f in fields})
            message = error_of(write_trace, [sample])
            assert message == error_of(oracle_validate, sample, "sample 0")
            assert (message is None) == (n_faults == 0)


# ---------------------------------------------------------------------------
# Scenarios and synthesis
# ---------------------------------------------------------------------------

def walkaway_scenario(seed=3, duration=60.0):
    return Scenario(name="walkaway", duration=duration, seed=seed, segments=(
        Segment(0.0, {"rssi_wifi": linear_ramp(-30.0, -85.0),
                      "rssi_lte": noisy(-60.0, 2.0)}),))


class TestScenario:
    def test_first_segment_must_start_at_zero(self):
        with pytest.raises(TraceError, match="start at t=0"):
            Scenario(name="x", duration=10.0, seed=0,
                     segments=(Segment(1.0, {}),))

    def test_segment_starts_strictly_increasing(self):
        with pytest.raises(TraceError, match="increasing"):
            Scenario(name="x", duration=10.0, seed=0,
                     segments=(Segment(0.0, {}), Segment(0.0, {})))

    def test_unknown_attribute_rejected(self):
        with pytest.raises(TraceError, match="unknown attribute"):
            Scenario(name="x", duration=10.0, seed=0,
                     segments=(Segment(0.0, {"bogus": constant(1.0)}),))

    def test_ramp_is_linear(self):
        scn = walkaway_scenario()
        times = np.array([0.0, 30.0, 60.0])
        vals = scn.attribute_series("rssi_wifi", times)
        assert vals[0] == -30.0
        assert vals[1] == pytest.approx(-57.5)

    def test_file_roundtrip(self):
        scn = Scenario(name="demo", duration=20.0, seed=9, segments=(
            Segment(0.0, {"rssi_wifi": linear_ramp(-30.0, -85.0),
                          "sinr_lte": noisy(15.0, 1.0)}),
            Segment(10.0, {"rssi_wifi": constant(-85.0)}),
        ))
        assert parse_scenario(write_scenario(scn)) == scn

    def test_parse_requires_name_duration_seed(self):
        with pytest.raises(TraceError, match="must set"):
            parse_scenario("name x\nduration 5\n")

    def test_parse_rejects_trajectory_before_segment(self):
        text = "name x\nduration 5\nseed 1\nrssi_wifi constant -50\n"
        with pytest.raises(TraceError):
            parse_scenario(text)

    @pytest.mark.parametrize("bad", ["name x extra", "duration 10 20", "seed 1 2", "segment 0 9",
                                     "rssi_wifi constant -60 5 junk", "rssi_wifi ramp -60 -80 1"])
    def test_parse_rejects_trailing_tokens(self, bad):
        lines = ["name x", "duration 10", "seed 1", "segment 0", "rssi_wifi noisy -60 2"]
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if line.split()[0] == bad.split()[0])
        lines[lineno - 1] = bad
        with pytest.raises(TraceError, match=f"line {lineno}: expected"):
            parse_scenario("\n".join(lines) + "\n")

    @pytest.mark.parametrize("line", ["name y", "duration 20", "seed 2"])
    def test_parse_rejects_a_repeated_setting(self, line):
        text = f"name x\nduration 10\nseed 1\n{line}\nsegment 0\n"
        with pytest.raises(TraceError, match=f"line 4: {line.split()[0]} is set twice"):
            parse_scenario(text)

    def test_parse_rejects_a_repeated_attribute_in_one_segment(self):
        text = ("name x\nduration 10\nseed 1\nsegment 0\n  rssi_wifi constant -50\n"
                "  rssi_wifi constant -80\n")
        with pytest.raises(TraceError, match="line 6: rssi_wifi is set twice in one segment"):
            parse_scenario(text)

    def test_parse_names_the_line_of_a_bad_trajectory(self):
        text = "name x\nduration 10\nseed 1\nsegment 0\n  rssi_wifi noisy -50 -4\n"
        with pytest.raises(TraceError, match="line 5: noisy sigma must be >= 0, got -4"):
            parse_scenario(text)

    @pytest.mark.parametrize("line,message", [
        ("rssi_wifi zigzag -50 1", "unknown trajectory kind 'zigzag'"),
        ("rssi_wifi", "malformed scenario line 'rssi_wifi'"),
        ("rssi_wifi ramp -50 low", "malformed scenario line 'rssi_wifi ramp -50 low'"),
        ("segment zero", "malformed scenario line 'segment zero'"),
        ("segment", "malformed scenario line 'segment'"),
    ])
    def test_parse_names_the_line_past_blank_and_comment_lines(self, line, message):
        # Blank and '#' lines are skipped but counted: the fault is on line 7.
        text = f"name x\nduration 10\nseed 1\n\n# first segment\nsegment 0\n{line}\n"
        with pytest.raises(TraceError, match=f"^line 7: {re.escape(message)}$"):
            parse_scenario(text)

    @pytest.mark.parametrize("period,duration", [(0.0, 10.0), (-2.0, 10.0), (math.nan, 10.0),
                                                 (4.0, math.inf)])
    def test_oscillating_needs_a_positive_period_and_finite_duration(self, period, duration):
        with pytest.raises(TraceError, match=f"^need a period > 0 and a finite duration, "
                                             f"got {period}, {duration}$"):
            scenarios.oscillating(0, duration, period=period)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
    def test_duration_must_be_finite_and_non_negative(self, duration):
        with pytest.raises(TraceError, match=f"finite and >= 0, got {duration}"):
            Scenario(name="x", duration=duration, seed=0, segments=(Segment(0.0, {}),))


HUGE = 1.7e308   # near the largest double, so a ramp's change can overflow


@st.composite
def mac_scenario_specs(draw):
    """(ticks, segments) for a Scenario on the 1-ms grid: 1-4 segments, the first at
    t = 0, each driving attributes with raw (kind, v0, v1) trajectories of any size."""
    ticks = draw(st.integers(1, 200))
    later = draw(st.sets(numbers(0.0, ticks * 0.001).filter(lambda t: t > 0.0), max_size=3))
    trajectory = st.one_of(
        st.tuples(st.just("constant"), numbers(-HUGE, HUGE), st.just(0.0)),
        st.tuples(st.just("ramp"), numbers(-HUGE, HUGE), numbers(-HUGE, HUGE)),
        st.tuples(st.just("noisy"), numbers(-HUGE, HUGE), numbers(0.0, HUGE)))
    return ticks, [(start, draw(st.dictionaries(st.sampled_from(traceio.SCENARIO_ATTRS),
                                                trajectory, max_size=4)))
                   for start in sorted(later | {0.0})]


class TestMacSeriesRange:
    @settings(max_examples=300, deadline=None)
    @given(spec=mac_scenario_specs(), seed=st.integers())
    # An overflowing ramp change read inf * 0 = NaN at its segment start.
    @example(spec=(200, [(0.0, {"rssi_wifi": ("ramp", 1e308, -1e308)})]), seed=1)
    def test_every_accepted_scenario_gives_finite_series_in_range(self, spec, seed):
        ticks, segments = spec
        try:
            scn = Scenario(name="p", duration=ticks * 0.001, seed=seed, segments=tuple(
                Segment(start, {attr: traceio.Trajectory(*raw) for attr, raw in drives.items()})
                for start, drives in segments))
        except TraceError:
            return   # refused where it enters
        with np.errstate(over="ignore"):   # a noise sum may overflow to inf, which the clip bounds
            series = traceio.scenario_mac_series(scn, np.arange(ticks) * 0.001)
        for attr, values in series.items():
            _, (lo, hi) = traceio._MAC_ATTRS[attr]
            assert np.isfinite(values).all() and ((lo <= values) & (values <= hi)).all(), attr

    def test_ramp_whose_product_overflows_reads_its_true_side(self):
        # (v1 - v0) * (t - start) overflows to inf from t = 1.798 s; with the
        # division after it, the clip read -120 dBm there.  The true values are
        # positive all along, so every tick clips to 0 dBm.
        scn = Scenario(name="p", duration=2.0, seed=1, segments=(
            Segment(0.0, {"rssi_wifi": linear_ramp(1e308, 0.0)}),))
        series = traceio.scenario_mac_series(scn, np.arange(2000) * 0.001, ("rssi_wifi",))
        assert series["rssi_wifi"].tolist() == [0.0] * 2000


class TestSynthesize:
    def test_zero_duration_gives_empty_trace(self):
        scn = Scenario(name="x", duration=0.0, seed=0, segments=())
        assert synthesize_trace(scn, 0.1) == []

    def test_deterministic_for_fixed_seed(self):
        scn = walkaway_scenario(seed=11)
        assert synthesize_trace(scn, 0.1) == synthesize_trace(scn, 0.1)

    def test_seed_changes_trace(self):
        a = synthesize_trace(walkaway_scenario(seed=1), 0.1)
        b = synthesize_trace(walkaway_scenario(seed=2), 0.1)
        assert a != b

    @pytest.mark.parametrize("seed", [-1, -5, 0, 2**63, 2**63 + 1])
    def test_seed_is_taken_mod_2_64(self, seed):
        # Each seed keys its own stream; a negative seed once keyed seed 0's.
        key = traceio.seeded_stream(seed, 1).bit_generator.state["state"]["key"]
        assert key.tolist() == [seed % 2**64, 1]

    def test_negative_seed_changes_trace(self):
        a = synthesize_trace(walkaway_scenario(seed=-5), 0.1)
        b = synthesize_trace(walkaway_scenario(seed=0), 0.1)
        assert a != b

    def test_walkaway_rssi_non_increasing(self):
        samples = synthesize_trace(walkaway_scenario(), 0.1)
        rssi = [s.rssi_wifi for s in samples]
        assert all(b <= a for a, b in zip(rssi, rssi[1:]))

    def test_priorities_alternate(self):
        samples = synthesize_trace(walkaway_scenario(), 0.1)
        assert [s.prio for s in samples[:4]] == [WF, LF, WF, LF]

    def test_mac_series_subset_matches_full_build(self):
        # Each attribute keeps its own noise stream, whichever others are built.
        times = np.arange(2000) * 0.001
        names = ("sinr_lte", "rssi_wifi")
        for scn in scenarios.evaluation_suite(duration=2.0):
            full = traceio.scenario_mac_series(scn, times)
            part = traceio.scenario_mac_series(scn, times, names)
            assert list(part) == list(names)
            assert all(np.array_equal(part[k], full[k]) for k in names)

    def test_bad_sampling_interval_rejected(self):
        with pytest.raises(TraceError):
            synthesize_trace(walkaway_scenario(), 0.0)

    @pytest.mark.parametrize("interval,digest", [
        (0.1, "7de96fd628273345eb0538155ecae5be785ee4bf005b294dafcae123084e75ba"),
        (0.05, "d6c4f22d12ae626c137b4b7f114f12a0ab7281af5de2ec9370ad376c2203594d"),
        (0.37, "cbe060f4e56bb2a5416c7b6c2dd0cce25ce58b468834cd0da54dde52c495eed2"),
    ])
    def test_pinned_trace_digest(self, interval, digest):
        # A change that moves these digests changes every synthesized trace,
        # and with them the training corpus and the pretrained model.
        h = hashlib.sha256()
        for scn in (scenarios.walkaway(3, 60.0), scenarios.interference_burst(5, 60.0),
                    scenarios.oscillating(6, 33.0, period=7.0), scenarios.stable(9, 20.0)):
            h.update(write_trace(synthesize_trace(scn, interval)).encode())
        assert h.hexdigest() == digest

    def test_random_scenarios_respect_invariants(self):
        # Seeded sweep: every generated trace must be writable even when the
        # scripted values run outside physical ranges (clamping).
        rng = np.random.default_rng(7)
        for trial in range(20):
            segments = [Segment(0.0, {
                "rssi_wifi": noisy(float(rng.uniform(-140, 10)), float(rng.uniform(0, 30))),
                "sinr_lte": linear_ramp(float(rng.uniform(-40, 60)),
                                        float(rng.uniform(-40, 60))),
                "td_wifi": noisy(float(rng.uniform(-10, 50)), float(rng.uniform(0, 20))),
            })]
            scn = Scenario(name=f"r{trial}", duration=5.0, seed=trial,
                           segments=tuple(segments))
            write_trace(synthesize_trace(scn, 0.25))
