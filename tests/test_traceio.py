"""Trace schema, CSV round-tripping, and synthetic scenario generation."""

import hashlib
import math

import numpy as np
import pytest

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
        prio=WF, ag=12.0, ad=25.0,
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
        assert reference_samples[1].prio_tag is None

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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("old,col", [("-39", "rssi_lte"), ("0.03%", "plr_wifi")])
    def test_non_finite_cell_names_row_and_column(self, reference_trace_text,
                                                  cell, old, col):
        bad = reference_trace_text.replace(old, cell + ("%" if "%" in old else ""), 1)
        with pytest.raises(TraceError, match=f"row 2, column {col}: non-finite"):
            parse_trace(bad)

    def test_unknown_prio_tag_rejected(self, reference_trace_text):
        bad = reference_trace_text.replace("LF(4G)", "LF(6G)")
        with pytest.raises(TraceError, match="prio"):
            parse_trace(bad)

    def test_time_going_backwards_rejected(self, reference_trace_text):
        lines = reference_trace_text.splitlines()
        lines[2], lines[4] = lines[4], lines[2]
        with pytest.raises(TraceError, match="time goes backwards"):
            parse_trace("\n".join(lines) + "\n")

    def test_invariant_violation_rejected(self, reference_trace_text):
        bad = reference_trace_text.replace("0.03%", "130%")
        with pytest.raises(TraceError, match="plr_wifi"):
            parse_trace(bad)

    def test_label_column_optional(self, reference_trace_text):
        labeled = reference_trace_text.replace("prio,ag,ad", "prio,ag,ad,label")
        labeled = "\n".join(
            line if i == 0 else line + ("" if i == 0 else ",WF")
            for i, line in enumerate(labeled.splitlines())
        ) + "\n"
        samples = parse_trace(labeled)
        assert all(s.label == WF for s in samples)


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

class TestWriteTrace:
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

    def test_label_roundtrip(self):
        samples = [make_sample(label=LF)]
        again = parse_trace(write_trace(samples))
        assert again == samples


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

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
    def test_duration_must_be_finite_and_non_negative(self, duration):
        with pytest.raises(TraceError, match=f"finite and >= 0, got {duration}"):
            Scenario(name="x", duration=duration, seed=0, segments=(Segment(0.0, {}),))


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

    def test_walkaway_rssi_non_increasing(self):
        samples = synthesize_trace(walkaway_scenario(), 0.1)
        rssi = [s.rssi_wifi for s in samples]
        assert all(b <= a for a, b in zip(rssi, rssi[1:]))

    def test_priorities_alternate(self):
        samples = synthesize_trace(walkaway_scenario(), 0.1)
        assert [s.prio for s in samples[:4]] == [WF, LF, WF, LF]

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
        # Seeded sweep: every generated sample must validate even when the
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
            for i, s in enumerate(synthesize_trace(scn, 0.25)):
                s.validate(f"trial {trial} sample {i}")
