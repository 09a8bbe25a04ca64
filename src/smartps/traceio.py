"""Trace schema, CSV parsing/writing, and synthetic mobility traces.

A trace is a time-ordered list of :class:`AttributeSample` rows carrying the
per-interface MAC attributes (RSSI, SINR, RSRP, RSRQ, TD, RD), the TCP-layer
attributes (RTT, CWND, PLR, PDR), the active path priority (WF = WiFi first,
LF = LTE first) and the two performance metrics: application goodput (AG,
Mbps) and application delay (AD, ms).

Real-world traces of this shape are not publicly available, so
:func:`synthesize_trace` generates internally consistent ones from scripted
mobility scenarios: MAC attributes follow per-segment trajectories and the
TCP-layer attributes are derived through the channel model below.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from decimal import Decimal
from typing import Iterator, Optional, Sequence

import numpy as np

WF = "WF"
LF = "LF"
WIFI = "WIFI"
LTE = "LTE"

_PRIO_TAGS = {"WF": WF, "LF": LF, "LF(4G)": LF, "LF(5G)": LF}


class TraceError(ValueError):
    """Malformed trace file or scenario file."""


@dataclass(frozen=True, slots=True)
class AttributeSample:
    """One timestamped row of cross-layer attributes plus performance metrics.

    Its fields, in order, are a trace file's columns; prio_tag is the prio column.
    """

    t: float                 # seconds since trace start
    rssi_lte: float          # dBm, <= 0
    rssi_wifi: float         # dBm, <= 0
    sinr_lte: float          # dB
    sinr_wifi: float         # dB
    rsrp_lte: float          # dBm, <= 0
    rsrq_lte: float          # dB
    td_wifi: float           # Mbps, >= 0
    rd_wifi: float           # Mbps, >= 0
    rtt_lte: float           # ms, > 0
    rtt_wifi: float          # ms, > 0
    cwnd_lte: float          # packets, >= 1
    cwnd_wifi: float         # packets, >= 1
    plr_lte: float           # fraction in [0, 1]
    plr_wifi: float          # fraction in [0, 1]
    pdr_lte: float           # Mbps, >= 0
    pdr_wifi: float          # Mbps, >= 0
    # Priority tag as the file holds it: WF, LF, LF(4G) or LF(5G).  The
    # interface-pair suffix is metadata only; the classifier sees `prio`.
    prio_tag: str
    ag: float                # Mbps, >= 0
    ad: float                # ms, > 0

    @property
    def prio(self) -> str:
        """WF or LF."""
        try:
            return _PRIO_TAGS[self.prio_tag]
        except KeyError:   # a sample built in code; parse_trace checks each row's tag
            raise TraceError(f"unknown prio tag {self.prio_tag!r}") from None


# Canonical CSV column order: AttributeSample's fields, with prio_tag written as
# "prio".  PLR columns are serialized as percent strings ("0.03%"); everything
# else is a plain decimal.  Labels are not part of a trace: they live in the
# dataset records built from it.
_FIELDS = [f.name for f in fields(AttributeSample)]
TRACE_COLUMNS = ["prio" if f == "prio_tag" else f for f in _FIELDS]

_PLR_COLUMNS = ("plr_lte", "plr_wifi")
_NUMERIC_COLUMNS = [f for f in _FIELDS if f != "prio_tag"]


# The row invariants, in the order a row is checked: (fields, holds, message).
# `holds` maps a column of values to booleans elementwise, so _first_fault
# screens whole columns with the one table and names a bad row's first broken
# invariant in table order.  Only prio_tag's column holds strings.  A message
# follows "row N" or "sample N"; it is formatted with the field name and the
# row's own value.
_ROW_INVARIANTS = (
    (("prio_tag",), lambda v: np.array([tag in _PRIO_TAGS for tag in v], dtype=bool),
     ": unknown prio tag {v!r}"),
    (_NUMERIC_COLUMNS, np.isfinite, ", column {name}: non-finite value {v!r}"),
    (("t",), lambda v: v >= 0.0, ", column t: negative time {v} (seconds since trace start)"),
    (_PLR_COLUMNS, lambda v: (0.0 <= v) & (v <= 1.0), ": {name}={v} outside [0,1]"),
    (("pdr_lte", "pdr_wifi", "td_wifi", "rd_wifi", "ag"), lambda v: v >= 0.0,
     ": {name} must be >= 0"),
    (("rtt_lte", "rtt_wifi", "ad"), lambda v: v > 0.0, ": {name} must be > 0"),
    (("cwnd_lte", "cwnd_wifi"), lambda v: v >= 1.0, ": {name} must be >= 1"),
    (("rssi_lte", "rssi_wifi", "rsrp_lte"), lambda v: v <= 0.0,
     ": {name} is received power and must be <= 0 dBm"),
)


def _first_fault(columns: dict[str, list], prev_t: float) -> Optional[tuple[int, str]]:
    """The first row that breaks an invariant or whose t is below the t of the row
    before it (prev_t for the first row), with its fault's message; None if none does."""
    # Tags stay a list of Python strings: a numpy string array would drop trailing NULs.
    arrays = {name: values if name == "prio_tag" else np.array(values, dtype=float)
              for name, values in columns.items()}
    t = arrays["t"]
    checks = [(name, message, holds(arrays[name]))
              for names, holds, message in _ROW_INVARIANTS for name in names]
    checks.append(("t", ", column t: time goes backwards ({v} < {prev})",
                   t >= np.append(prev_t, t)[:-1]))
    good = np.logical_and.reduce([ok for _, _, ok in checks])
    if good.all():
        return None
    i = int(good.argmin())
    name, message = next((name, message) for name, message, ok in checks if not ok[i])
    return i, message.format(name=name, v=columns[name][i],
                             prev=columns["t"][i - 1] if i else prev_t)


def _fmt_num(x: float) -> str:
    """Shortest decimal that round-trips to the same float; ints lose the '.0'."""
    if x == math.floor(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


def _fmt_plr(frac: float) -> str:
    # Decimal exponent shift keeps write->parse exact: the percent string is
    # the shortest repr of the fraction with the point moved two places.
    d = Decimal(_fmt_num(frac)) * 100
    return format(d.normalize(), "f") + "%"


def _parse_plr(cell: str) -> float:
    s = cell.strip()
    if s.endswith("%"):
        return float(Decimal(s[:-1]) / 100)
    return float(s)


def _parse_tag(cell: str) -> str:
    return sys.intern(cell.strip())   # one shared string per tag, not one per row


# Each trace column's AttributeSample field, cell parser and cell formatter, in
# TRACE_COLUMNS order.  A parser accepts a padded cell and raises ValueError or
# ArithmeticError on a malformed one.
_CODECS = {col: (f, _parse_tag, str) if f == "prio_tag" else
                (f, _parse_plr, _fmt_plr) if f in _PLR_COLUMNS else
                (f, float, _fmt_num)
           for col, f in zip(TRACE_COLUMNS, _FIELDS)}


# Rows that parse_trace converts and screens together: few enough that the
# block's cell strings add little to peak memory.
_BLOCK_ROWS = 1024


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """(file line number, line) for each non-blank line of an input file's text.  A line
    ends at "\n" only, as a universal-newline read leaves it: a form feed stays inside."""
    return ((n, line) for n, line in enumerate(text.split("\n"), 1) if line.strip())


def parse_trace(text: str) -> list[AttributeSample]:
    """Parse a trace CSV's text (header required) into a list of samples.

    PLR cells may be percent-formatted ("0.03%") or plain fractions.  The raw
    priority tags LF(4G)/LF(5G) are kept in ``prio_tag`` and read as prio=LF.
    Raises :class:`TraceError` naming the first offending row and its column
    on any malformed cell or invariant violation.  Blank lines are skipped but
    counted: row N is line N of the file.
    """
    lines = [line for _, line in numbered_lines(text)]
    if not lines:
        raise TraceError("empty input: header row required")
    header = [h.strip() for h in lines[0].split(",")]
    if header != TRACE_COLUMNS:
        missing = [c for c in TRACE_COLUMNS if c not in header]
        if missing:
            raise TraceError(f"header: missing column(s) {missing}")
        raise TraceError(f"header: unexpected column order {header}")

    samples: list[AttributeSample] = []
    prev_t = -math.inf
    for start in range(1, len(lines), _BLOCK_ROWS):
        columns, fault = _parse_block(lines[start:start + _BLOCK_ROWS], prev_t)
        if fault is not None:   # numbered only now, to keep a clean parse's peak low
            linenos = [n for n, _ in numbered_lines(text)]
            raise TraceError("row %d%s" % (linenos[start + fault[0]], fault[1]))
        samples.extend(map(AttributeSample, *columns))
        prev_t = samples[-1].t
    return samples


def _parse_block(block: list[str], prev_t: float
                 ) -> tuple[list[list], Optional[tuple[int, str]]]:
    """The block's values, one list per AttributeSample field, and its first
    fault (index in the block, message) or None."""
    rows = [line.split(",") for line in block]
    malformed = None
    try:
        if set(map(len, rows)) != {len(TRACE_COLUMNS)}:
            raise ValueError("a row has the wrong cell count")
        columns = [list(map(parse, cells))
                   for (_, parse, _), cells in zip(_CODECS.values(), zip(*rows))]
    except (ValueError, ArithmeticError):   # convert row by row up to the first malformed row
        converted: list[list] = []
        for i, cells in enumerate(rows):
            try:
                converted.append(_convert_row(cells))
            except TraceError as exc:
                malformed = (i, str(exc))
                break
        columns = [[row[k] for row in converted] for k in range(len(_FIELDS))]
    # A malformed row is named only if no row before it breaks an invariant.
    return columns, _first_fault(dict(zip(_FIELDS, columns)), prev_t) or malformed


def _convert_row(cells: list[str]) -> list:
    """One row's values; raises TraceError with the message of its first malformed cell."""
    if len(cells) != len(TRACE_COLUMNS):
        raise TraceError(f": expected {len(TRACE_COLUMNS)} cells, got {len(cells)}")
    values = []
    for (col, (_, parse, _)), cell in zip(_CODECS.items(), cells):
        try:
            values.append(parse(cell))
        except (ValueError, ArithmeticError):
            raise TraceError(f", column {col}: non-numeric cell {cell.strip()!r}") from None
    return values


def write_trace(samples: Sequence[AttributeSample]) -> str:
    """Canonical CSV text; inverts parse_trace."""
    # The columns are checked and dropped before the text is built, to keep the peak low.
    fault = _first_fault({name: [getattr(s, name) for s in samples] for name in _FIELDS},
                         -math.inf)
    if fault is not None:
        raise TraceError("sample %d%s" % fault)
    out = [",".join(TRACE_COLUMNS)]
    for s in samples:
        out.append(",".join([fmt(getattr(s, f)) for f, _, fmt in _CODECS.values()]))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Channel model, scenarios and synthetic traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelParams:
    """Mapping from MAC attributes to link behavior for one interface."""

    cap_max: float       # Mbps at the SINR reference point
    sinr_ref: float      # dB
    rssi_cliff: float    # dBm; loss is 50% at the cliff
    loss_scale: float    # dB; logistic steepness of the loss cliff
    rtt_floor: float     # ms
    rtt_loss_factor: float  # rtt_base = rtt_floor * (1 + q * loss)


DEFAULT_CHANNELS = {
    WIFI: ChannelParams(cap_max=25.0, sinr_ref=25.0, rssi_cliff=-75.0,
                        loss_scale=3.0, rtt_floor=20.0, rtt_loss_factor=1.0),
    LTE: ChannelParams(cap_max=15.0, sinr_ref=20.0, rssi_cliff=-95.0,
                       loss_scale=3.0, rtt_floor=38.0, rtt_loss_factor=2.0),
}


def channel_map_arrays(rssi: np.ndarray, sinr: np.ndarray, interface: str
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(capacity Mbps, base rtt ms, loss fraction) per interface state, from rssi
    and sinr series already inside their _MAC_ATTRS ranges, as attribute_series gives."""
    p = DEFAULT_CHANNELS[interface]
    rssi = np.asarray(rssi, dtype=float)
    sinr = np.asarray(sinr, dtype=float)
    ref = math.log2(1.0 + 10.0 ** (p.sinr_ref / 10.0))
    cap = p.cap_max * np.minimum(1.0, np.log2(1.0 + 10.0 ** (sinr / 10.0)) / ref)
    loss = 1.0 / (1.0 + np.exp((rssi - p.rssi_cliff) / p.loss_scale))
    rtt = p.rtt_floor * (1.0 + p.rtt_loss_factor * loss)
    return cap, rtt, loss


# MAC attributes a scenario can drive (TCP-layer attributes are derived), in
# noise-stream order: (value where no segment drives it, clamp range keeping
# generated values inside AttributeSample invariants).
_MAC_ATTRS = {
    "rssi_wifi": (-45.0, (-120.0, 0.0)), "rssi_lte": (-60.0, (-120.0, 0.0)),
    "sinr_wifi": (22.0, (-20.0, 50.0)), "sinr_lte": (15.0, (-20.0, 50.0)),
    "rsrp_lte": (-90.0, (-140.0, 0.0)), "rsrq_lte": (-10.0, (-30.0, 0.0)),
    "td_wifi": (30.0, (0.0, 1000.0)), "rd_wifi": (30.0, (0.0, 1000.0)),
}
SCENARIO_ATTRS = list(_MAC_ATTRS)


# Trajectory kind -> how many of (v0, v1) it uses.
TRAJECTORY_KINDS = {"constant": 1, "ramp": 2, "noisy": 2}


@dataclass(frozen=True)
class Trajectory:
    """Per-attribute value evolution inside one scenario segment.

    kind is one of "constant" (v0), "ramp" (v0 -> v1 linearly over the
    segment) or "noisy" (v0 plus additive Gaussian noise with sigma=v1).  A
    constant's v1 is 0, so it is evaluated as a noisy trajectory with no noise.
    """

    kind: str
    v0: float
    v1: float = 0.0

    def __post_init__(self):
        if self.kind not in TRAJECTORY_KINDS:
            raise TraceError(f"unknown trajectory kind {self.kind!r}")
        if not (math.isfinite(self.v0) and math.isfinite(self.v1)):
            raise TraceError(f"trajectory values must be finite, got {self.v0}, {self.v1}")
        if TRAJECTORY_KINDS[self.kind] == 1 and self.v1 != 0.0:
            raise TraceError(f"a {self.kind} trajectory takes one value, got v1={self.v1}")
        if self.kind == "noisy" and self.v1 < 0.0:
            raise TraceError(f"noisy sigma must be >= 0, got {self.v1}")
        # An infinite change would evaluate to inf * 0 = NaN at the segment start.
        if self.kind == "ramp" and not math.isfinite(self.v1 - self.v0):
            raise TraceError(f"ramp change v1 - v0 must be finite, got {self.v0} to {self.v1}")


def constant(v: float) -> Trajectory:
    return Trajectory("constant", v)


def linear_ramp(v0: float, v1: float) -> Trajectory:
    return Trajectory("ramp", v0, v1)


def noisy(v: float, sigma: float) -> Trajectory:
    return Trajectory("noisy", v, sigma)


@dataclass(frozen=True)
class Segment:
    start: float
    trajectories: dict[str, Trajectory] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """Scripted two-path mobility scenario driving the MAC attributes."""

    name: str
    duration: float
    segments: tuple[Segment, ...]
    seed: int = 0

    def __post_init__(self):
        segs = tuple(sorted(self.segments, key=lambda s: s.start))
        object.__setattr__(self, "segments", segs)
        if self.name.split() != [self.name]:   # the scenario file holds it as one token
            raise TraceError(f"scenario name must be one word, got {self.name!r}")
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise TraceError(f"scenario duration must be finite and >= 0, got {self.duration}")
        if self.duration > 0:
            if not segs or segs[0].start != 0.0:
                raise TraceError("first segment must start at t=0")
            for a, b in zip(segs, segs[1:]):
                if b.start <= a.start:
                    raise TraceError("segments must have strictly increasing start times")
        for seg in segs:
            if not math.isfinite(seg.start):
                raise TraceError(f"segment start must be finite, got {seg.start}")
            for attr in seg.trajectories:
                if attr not in SCENARIO_ATTRS:
                    raise TraceError(f"segment drives unknown attribute {attr!r}")

    def attribute_series(self, attr: str, times: np.ndarray, rng=None) -> np.ndarray:
        """Evaluate one MAC attribute at the given times (noise-free unless rng given)."""
        default, (lo, hi) = _MAC_ATTRS[attr]
        out = np.full(len(times), default)
        # A segment ends where the next starts, the last at the duration.
        ends = [seg.start for seg in self.segments[1:]] + [self.duration]
        for seg, end in zip(self.segments, ends):
            traj = seg.trajectories.get(attr)
            if traj is None:
                continue
            mask = (times >= seg.start) & ((times < end) | (end >= self.duration))
            with np.errstate(over="ignore"):   # an overflow reads inf, which the clip bounds
                if traj.kind == "ramp":
                    span, dt = max(end - seg.start, 1e-9), times[mask] - seg.start
                    rise = (traj.v1 - traj.v0) * dt / span   # where it overflows, divide first
                    rise = np.where(np.isfinite(rise), rise, (traj.v1 - traj.v0) * (dt / span))
                    out[mask] = traj.v0 + rise
                else:  # noisy, or constant: a noisy trajectory whose sigma v1 is 0
                    out[mask] = traj.v0
                    if rng is not None and traj.v1 > 0:
                        out[mask] += rng.normal(0.0, traj.v1, size=int(mask.sum()))
        return np.clip(out, lo, hi)


def seeded_stream(seed: int, stream: int) -> np.random.Generator:
    """Stream `stream` of `seed` mod 2**64: Philox is counter-based, so each (seed, stream)
    pair is an independent, order-insensitive stream and evaluation order changes nothing."""
    return np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, stream], np.uint64)))


def scenario_mac_series(scenario: Scenario, times: np.ndarray,
                        attrs: Sequence[str] = SCENARIO_ATTRS) -> dict[str, np.ndarray]:
    """The MAC attribute series named in attrs (default all) at the given times, with
    seeded noise.  Each attribute draws from its own stream, its SCENARIO_ATTRS index,
    so a series does not depend on which others are built."""
    return {attr: scenario.attribute_series(
                attr, times, rng=seeded_stream(scenario.seed, SCENARIO_ATTRS.index(attr)))
            for attr in attrs}


def synthesize_trace(scenario: Scenario, sampling_interval: float = 0.1) -> list[AttributeSample]:
    """Generate a trace for a scenario, alternating WF/LF priority per row.

    MAC attributes follow the scenario trajectories; TCP-layer attributes
    (RTT, CWND, PLR, PDR) are derived from them through the channel model so
    traces are internally consistent.  AG/AD reflect the row's priority: the
    primary path dominates goodput and sets the delay.  Deterministic for a
    fixed (scenario, sampling_interval).
    """
    if sampling_interval <= 0:
        raise TraceError("sampling_interval must be > 0")
    n = int(math.floor(scenario.duration / sampling_interval + 1e-9))
    times = np.arange(n) * sampling_interval
    mac = scenario_mac_series(scenario, times)

    rng = seeded_stream(scenario.seed, 101)
    ag_noise, ad_noise = rng.normal(0, 0.4, n), rng.normal(0, 3.0, n)
    # (wifi, lte) noise per derived attribute, drawn in this order.
    noise = {col: [rng.normal(0, sigma, n) for _ in range(2)]
             for col, sigma in (("rtt", 2.0), ("pdr", 1.0), ("plr", 0.1))}

    wf_rows = np.arange(n) % 2 == 0   # rows alternate WF, LF, WF, ...
    cols = {"t": np.round(times, 6), **mac}
    goodput = np.zeros(n)
    delay = np.empty(n)
    for k, (iface, interface, primary) in enumerate((("wifi", WIFI, wf_rows),
                                                      ("lte", LTE, ~wf_rows))):
        cap, rtt, loss = channel_map_arrays(mac[f"rssi_{iface}"], mac[f"sinr_{iface}"],
                                            interface)
        # The primary path carries 0.9 of its effective capacity, the other 0.3.
        carried = np.where(primary, 0.9, 0.3) * (cap * (1.0 - loss))
        goodput += carried
        # Loss on the primary path stalls in-order delivery until timeout
        # recovery, so delay grows steeply with loss.
        delay[primary] = (rtt + 250.0 * loss)[primary]
        cols[f"pdr_{iface}"] = np.maximum(0.0, carried + noise["pdr"][k])
        cols[f"plr_{iface}"] = np.clip(loss * (1.0 + noise["plr"][k]), 0.0, 1.0)
        cols[f"rtt_{iface}"] = np.maximum(1.0, rtt + noise["rtt"][k])
        # Congestion window, in whole packets, tracks the bandwidth-delay
        # product of the path as long as it is usable; heavy loss collapses it.
        cwnd = np.round(cap * cols[f"rtt_{iface}"] / 12.0 * (1.0 - loss))
        cols[f"cwnd_{iface}"] = np.maximum(1.0, cwnd).astype(np.int64)
    cols["ag"] = np.maximum(0.0, goodput + ag_noise)
    cols["ad"] = np.maximum(1.0, delay + ad_noise)

    # Rows from one record array: column-wise .tolist() calls left a higher peak RSS.
    names = list(cols)
    rows = np.rec.fromarrays(list(cols.values()), names=names).tolist()
    return [AttributeSample(prio_tag=WF if i % 2 == 0 else LF, **dict(zip(names, row)))
            for i, row in enumerate(rows)]


# ---------------------------------------------------------------------------
# Scenario files: key/value lines plus indented per-segment trajectory lines.
#
#   name walkaway
#   duration 60
#   seed 42
#   segment 0
#     rssi_wifi ramp -30 -85
#     rssi_lte noisy -60 2
# ---------------------------------------------------------------------------

def parse_scenario(text: str) -> Scenario:
    header: dict = {}   # name, duration and seed, each set once
    segments: list[tuple[float, dict]] = []
    for lineno, raw in numbered_lines(text):
        line = raw.strip()
        if line.startswith("#"):
            continue
        parts = line.split()
        key = parts[0]

        def tokens(n: int):
            if len(parts) != n:
                raise TraceError(f"expected {n} tokens, got {len(parts)} in {line!r}")

        def num(i: int) -> float:
            v = float(parts[i])
            if not math.isfinite(v):
                raise TraceError(f"non-finite number {parts[i]!r}")
            return v

        try:
            if key in SCENARIO_ATTRS:
                if not segments:
                    raise TraceError("trajectory before any segment")
                if key in segments[-1][1]:
                    raise TraceError(f"{key} is set twice in one segment")
                kind = parts[1]
                if kind not in TRAJECTORY_KINDS:
                    raise TraceError(f"unknown trajectory kind {kind!r}")
                tokens(2 + TRAJECTORY_KINDS[kind])
                segments[-1][1][key] = Trajectory(kind, *map(num, range(2, len(parts))))
                continue
            if key in ("name", "duration", "seed"):
                if key in header:
                    raise TraceError(f"{key} is set twice")
                header[key] = (parts[1] if key == "name" else
                               num(1) if key == "duration" else int(parts[1]))
            elif key == "segment":
                segments.append((num(1), {}))
            else:
                raise TraceError(f"unknown key {key!r}")
            tokens(2)   # key and value
        except TraceError as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
        except (IndexError, ValueError) as exc:
            raise TraceError(f"line {lineno}: malformed scenario line {line!r}") from exc
    if len(header) < 3:
        raise TraceError("scenario file must set name, duration and seed")
    return Scenario(**header, segments=tuple(Segment(s, t) for s, t in segments))


def write_scenario(scenario: Scenario) -> str:
    out = [f"name {scenario.name}", f"duration {_fmt_num(scenario.duration)}",
           f"seed {scenario.seed}"]
    for seg in scenario.segments:
        out.append(f"segment {_fmt_num(seg.start)}")
        for attr, traj in sorted(seg.trajectories.items()):
            values = (traj.v0, traj.v1)[:TRAJECTORY_KINDS[traj.kind]]
            out.append(f"  {attr} {traj.kind} " + " ".join(map(_fmt_num, values)))
    return "\n".join(out) + "\n"
