"""Deterministic two-path multipath transport simulator.

Fixed-step (1 ms) event loop over a WiFi and an LTE subflow whose capacity,
base RTT and loss rate are driven from the scenario's MAC attributes through
traceio's channel model (Shannon-shaped capacity, logistic loss cliff).  The
sender runs per-subflow AIMD congestion control with RTO-triggered
reinjection on the other path, the receiver releases the in-order prefix,
and a pluggable selector chooses the priority path every decision interval,
100 ms by default.  Everything is a pure function of (scenario, selector
state, params): `run` takes all three, and `run_case` builds the last two
from a policy name and a seed.

Packet deliveries and acks wait on a timing wheel with one bucket per tick,
sized from the run's own largest round trip, and the channel state each tick
reads and the MAC features each decision reads come from compact per-run
tables (`array`/`bytes`, not lists or numpy scalars).  A delivery and an ack
are both the int seq*2 + path id.  An ack's RTT sample is the path's base RTT
at the send tick its in-flight entry holds.  That is the acked copy's own
send: a base RTT is at most (1 + rtt_loss_factor) * rtt_floor, which is at most
4 * srtt <= rto while rtt_loss_factor <= 3 (the DEFAULT_CHANNELS values are 1
and 2), so a copy's ack lands no later than the tick its RTO could fire, and
acks run first.  Past that bound a seq could time out, come back to the same
path and take the later send's sample: the ambiguity Karn's rule resolves.
A delivery of the next in-order seq is released at once; the reorder buffer
holds only seqs above it.

A tick does work only where something can change.  The RTO scan sleeps
until `rto_wake`, the earliest tick at which any packet can be MIN_RTO old.
A path's oldest in-flight send tick never decreases: entries leave from
anywhere, but a new one is stamped with the current tick.  So
min over paths of (oldest send tick + MIN_RTO), with the current tick
standing in for an empty path's oldest, bounds every expiry from below;
a scan can come early and find nothing, but never late.  A path that can
send nothing (no reinjections, and new data barred or window-limited)
skips the rest of its send body.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from . import featstats, selector as selmod
from .selector import Decision, Observation, SelectorState
from .traceio import (
    LTE, WF, WIFI, Scenario, channel_map_arrays, scenario_mac_series, seeded_stream,
)

PKT_BYTES = 1500
MS = 0.001
METRICS_WINDOW = 0.1   # seconds per AG and accumulation sample
# Receive/reassembly window in packets.  Kept near a single path's
# bandwidth-delay product so the priority decision allocates a scarce
# resource; packets stranded on a broken path hold window slots until
# their RTO, which is what makes a missed switch expensive.
RECV_WINDOW = 48
MIN_RTO = 200.0        # ms
RTO_MULT = 4.0         # rto = max(MIN_RTO, RTO_MULT * srtt)
CWND_INIT = 10.0       # packets
CWND_MAX = 1000.0      # packets
BLOCK_PACKETS = 16     # packets per application block (AD unit)


class SimError(ValueError):
    """Invalid simulation input or broken invariant."""


@dataclass
class SimParams:
    duration: float = 60.0          # must equal scenario.duration; benchmark Serve.check reads it
    seed: int = 0
    decision_interval: float = 0.1  # seconds, a whole number of ticks
    check_conservation: bool = True  # ignored: always checked; benchmark Serve.run passes it
    tick: ClassVar[float] = MS      # the loop's step, not settable; benchmark _after_run reads it


@dataclass
class MetricsReport:
    policy: str
    scenario: str
    seed: int
    window_t: list[float]
    ag_series: list[float]                    # Mbps per window
    ad_samples: list[tuple[float, float]]     # (t, ms) per completed block
    accumulation: dict[str, list[float]]      # path -> in-flight bytes per window
    decisions: list[Decision]
    total_goodput: float                      # Mbps over the whole run

    def percentile(self, metric: str, p: float) -> float:
        """Nearest-rank percentile of a series: ag or ad."""
        if metric == "ag":
            series = self.ag_series
        elif metric == "ad":
            series = [v for _, v in self.ad_samples]
        else:
            raise SimError(f"unknown metric {metric!r}")
        return featstats.percentile(series, p)

    def to_csv_bundle(self) -> dict[str, str]:
        ag = ["t,ag_mbps"] + [f"{t:.3f},{v:.6f}" for t, v in zip(self.window_t, self.ag_series)]
        ad = ["t,ad_ms"] + [f"{t:.3f},{v:.3f}" for t, v in self.ad_samples]
        acc = ["t,wifi_bytes,lte_bytes"] + [
            f"{t:.3f},{w:.0f},{l:.0f}"
            for t, w, l in zip(self.window_t, self.accumulation[WIFI], self.accumulation[LTE])
        ]
        dec = ["t,priority,reason"] + [f"{d.t:.3f},{d.priority},{d.reason}"
                                       for d in self.decisions]
        summary = [
            f"policy {self.policy}",
            f"scenario {self.scenario}",
            f"seed {self.seed}",
            f"total_goodput_mbps {self.total_goodput:.6f}",
        ]
        for name in ("ag", "ad"):
            for p in (50, 90):
                try:
                    summary.append(f"{name}_p{p} {self.percentile(name, p):.6f}")
                except featstats.StatsError:   # an empty series
                    summary.append(f"{name}_p{p} NA")
        return {name: "\n".join(lines) + "\n"
                for name, lines in zip(BUNDLE_FILES, (ag, ad, acc, dec, summary))}


_DRAW_CHUNK = 4096   # uniform loss draws fetched from the generator at a time


def _doubles(x: np.ndarray) -> array:
    # Straight from the numpy buffer: an intermediate bytes copy would add a
    # whole series to the run's peak memory.
    out = array("d")
    out.frombytes(memoryview(np.ascontiguousarray(x, dtype=np.float64)).cast("B"))
    return out


def _delays(ms: np.ndarray, floor: int, n_ticks: int) -> array:
    # int(round(ms)) per tick with round-half-even, as Python's round(); an
    # event due at or after the last tick never fires, so clipping the delay
    # to the run length bounds the timing wheel without changing any output.
    ticks = np.minimum(np.maximum(floor, np.rint(ms)), n_ticks)
    return array("i", ticks.astype(np.int32).tobytes())


class _Path:
    __slots__ = ("name", "pid", "credit_tick", "dead", "loss", "rtt", "half", "full",
                 "cwnd", "ssthresh", "srtt", "credit", "in_flight", "reinject",
                 "sent_win", "lost_win", "dlv_bytes_win", "plr_est", "pdr_est")

    def __init__(self, name, pid, cap, rtt, loss, n_ticks):
        if not np.isfinite(rtt).all():
            raise SimError(f"{name} base RTT is not finite; check its ChannelParams")
        self.name = name
        self.pid = pid          # low bit of a delivery event key
        # Per-tick tables, compact (8 bytes per float, 4 per delay, 1 per flag).
        self.credit_tick = _doubles(cap * 125.0)   # bytes of send credit per 1-ms tick
        self.dead = bytes((cap < 0.5).tolist())     # capacity too low to carry new data
        self.loss = _doubles(loss)
        self.rtt = _doubles(rtt)                    # base rtt, ms
        self.half = _delays(rtt / 2.0, 1, n_ticks)  # one-way delay, ticks
        self.full = _delays(rtt, 2, n_ticks)        # round trip, ticks
        self.cwnd = CWND_INIT
        self.ssthresh = float("inf")
        self.srtt = self.rtt[0]
        self.credit = 0.0
        # seq -> send tick, in send order: a seq is inserted only after its
        # previous entry here was removed by an ack or an RTO, so insertion
        # order is send order and the oldest packet comes first.
        self.in_flight: dict[int, int] = {}
        self.reinject: deque[int] = deque()   # seqs awaiting retransmission here
        self.sent_win = 0
        self.lost_win = 0
        self.dlv_bytes_win = 0
        self.plr_est = 0.0
        self.pdr_est = 0.0


def _whole(length: float, unit: float) -> int:
    """length / unit if that is a positive whole number, else 0.

    The relative slack of 1e-9 absorbs float division: 0.7 / 0.001 is
    699.999..., yet 0.7 s is 700 ticks.
    """
    if not math.isfinite(length):
        return 0
    n = round(length / unit)
    return n if n >= 1 and abs(length / unit - n) <= 1e-9 * n else 0


def run(scenario: Scenario, state: SelectorState, params: SimParams) -> MetricsReport:
    """Simulate one connection over the scenario under the given selector."""
    p = params
    if p.duration != scenario.duration:
        raise SimError(f"params.duration {p.duration} s differs from the scenario's "
                       f"duration {scenario.duration} s")
    decision_ticks = _whole(p.decision_interval, MS)
    if not decision_ticks:
        raise SimError(f"decision_interval must be a positive whole number of {MS} s "
                       f"ticks; got {p.decision_interval}")
    n_windows = _whole(scenario.duration, METRICS_WINDOW)
    if not n_windows:
        raise SimError(f"scenario duration {scenario.duration} s is not a positive whole "
                       f"number of {METRICS_WINDOW} s metrics windows")

    window_ticks = round(METRICS_WINDOW / MS)
    n_ticks = n_windows * window_ticks
    mac = scenario_mac_series(scenario, np.arange(n_ticks) * MS,
                              ("rssi_wifi", "sinr_wifi", "rssi_lte", "sinr_lte"))
    # A comprehension, so no channel series outlives its path's tables.
    paths = [_Path(name, pid, *channel_map_arrays(mac[rssi], mac[sinr], name), n_ticks)
             for pid, name, rssi, sinr in ((0, WIFI, "rssi_wifi", "sinr_wifi"),
                                           (1, LTE, "rssi_lte", "sinr_lte"))]
    wifi, lte = paths
    wifi_first, lte_first = (wifi, lte), (lte, wifi)
    # The MAC features of each decision as plain floats.  Each numpy series is
    # dropped as its table is made, so no more than one extra series is alive.
    rssi_wifi, rssi_lte, sinr_wifi, sinr_lte = (
        _doubles(mac.pop(key)) for key in ("rssi_wifi", "rssi_lte", "sinr_wifi", "sinr_lte"))

    # Timing wheel (Varghese & Lauck, SOSP 1987): one bucket per tick of
    # delay, so a ring one longer than the largest delay never wraps onto a
    # pending bucket.  Every delivery of a tick runs before any ack, and a
    # bucket sorted by (seq, path) replays the order a (tick, kind, seq, path)
    # heap would pop.  A delivery and an ack are both the int seq*2 + path id.
    size = max(max(wifi.full), max(lte.full)) + 1
    dlv_wheel: list[list[int]] = [[] for _ in range(size)]
    ack_wheel: list[list[int]] = [[] for _ in range(size)]

    rng = seeded_stream(p.seed, 0x10c5)
    draw_chunk = _DRAW_CHUNK
    draws = rng.random(draw_chunk).tolist()   # uniform loss draws, consumed in send order
    di = 0

    pkt_bytes, block_packets, recv_window = PKT_BYTES, BLOCK_PACKETS, RECV_WINDOW
    rto_mult, cwnd_max = RTO_MULT, CWND_MAX
    # An int tick is younger than MIN_RTO exactly when it is younger than
    # ceil(MIN_RTO), so every RTO test below compares ints.
    min_rto = math.ceil(MIN_RTO)
    credit_max = 4.0 * pkt_bytes
    next_seq = 0
    delivered_upto = 0   # every seq below it has been released in order
    recv_buffer: set[int] = set()
    n_transit = 0
    block_first_send: dict[int, int] = {}

    decisions: list[Decision] = []
    window_t: list[float] = []
    ag_series: list[float] = []
    ad_samples: list[tuple[float, float]] = []
    accumulation: dict[str, list[float]] = {WIFI: [], LTE: []}
    released_win_bytes = 0

    send_order = wifi_first

    def observation(tick: int) -> Observation:
        feats = (
            rssi_wifi[tick], rssi_lte[tick], sinr_wifi[tick], sinr_lte[tick],
            wifi.srtt, lte.srtt,
            max(1.0, wifi.cwnd), max(1.0, lte.cwnd),
            wifi.plr_est, lte.plr_est,
            wifi.pdr_est, lte.pdr_est,
        )
        return Observation(tick * MS, feats, wifi.cwnd - len(wifi.in_flight),
                           lte.cwnd - len(lte.in_flight))

    # Running counters instead of a modulo per tick: the wheel slot, and the
    # ticks of the next decision and of the metrics-window end.
    slot = -1
    next_decision = 0
    window_end = window_ticks - 1
    # No packet can time out before this tick (see the module docstring).
    rto_wake = min_rto

    for tick in range(n_ticks):
        slot += 1
        if slot == size:
            slot = 0

        # --- arrivals, then acks ---
        due = dlv_wheel[slot]
        if due:
            if len(due) > 1:
                due.sort()
            for key in due:
                seq = key >> 1
                if seq > delivered_upto:
                    if seq in recv_buffer:
                        continue   # a copy of a buffered seq
                    recv_buffer.add(seq)
                elif seq < delivered_upto:
                    continue       # a copy of a released seq
                n_transit -= 1
                paths[key & 1].dlv_bytes_win += pkt_bytes
                if seq == delivered_upto:
                    # Release it, then each buffered seq that follows in order.
                    while True:
                        delivered_upto += 1
                        released_win_bytes += pkt_bytes
                        if delivered_upto % block_packets == 0:
                            block = delivered_upto // block_packets - 1
                            start = block_first_send.pop(block, None)
                            if start is not None:
                                ad_samples.append((tick * MS, float(tick - start)))
                        if delivered_upto not in recv_buffer:
                            break
                        recv_buffer.remove(delivered_upto)
            due.clear()
        due = ack_wheel[slot]
        if due:
            if len(due) > 1:
                due.sort()
            for key in due:
                path = paths[key & 1]
                sent_at = path.in_flight.pop(key >> 1, None)
                if sent_at is not None:
                    if path.cwnd < path.ssthresh:
                        cwnd = path.cwnd + 1.0
                    else:
                        cwnd = path.cwnd + 1.0 / path.cwnd
                    path.cwnd = cwnd if cwnd < cwnd_max else cwnd_max
                    path.srtt = 0.875 * path.srtt + 0.125 * path.rtt[sent_at]
            due.clear()

        # --- RTO: stranded packets reinject on the other path ---
        if tick >= rto_wake:
            rto_wake = tick + min_rto   # an empty path sends its next packet now at the earliest
            for path, other in (wifi_first, lte_first):
                in_flight = path.in_flight
                if not in_flight:
                    continue
                # in_flight is in send order and rto >= min_rto, so once its
                # oldest entry is younger than min_rto nothing can time out.
                oldest = next(iter(in_flight.values()))
                if tick - oldest >= min_rto:
                    rto = max(MIN_RTO, rto_mult * path.srtt)
                    expired = []
                    for seq, send_tick in in_flight.items():
                        if tick - send_tick < rto:
                            break
                        expired.append(seq)
                    if expired:
                        for seq in expired:
                            del in_flight[seq]
                        other.reinject.extend(expired)
                        lost = len(expired)
                        n_transit -= lost
                        path.lost_win += lost
                        path.ssthresh = max(2.0, path.cwnd / 2.0)
                        path.cwnd = max(1.0, path.cwnd / 2.0)
                        if not in_flight:
                            continue
                        oldest = next(iter(in_flight.values()))
                if oldest + min_rto < rto_wake:
                    rto_wake = oldest + min_rto

        # --- path selection ---
        if tick == next_decision:
            next_decision += decision_ticks
            d = selmod.decide(state, observation(tick))
            decisions.append(d)
            send_order = wifi_first if d.priority == WF else lte_first

        # --- send: priority path first, spill to the other ---
        first = send_order[0]
        for path in send_order:
            credit = path.credit + path.credit_tick[tick]
            if credit_max < credit:
                credit = credit_max
            in_flight = path.in_flight
            cwnd = path.cwnd
            if credit < pkt_bytes or len(in_flight) >= cwnd:
                path.credit = credit
                continue
            # New data spills to the secondary path only when the priority
            # path is saturated (cwnd-full) or effectively dead; credit
            # pacing alone must not divert the in-order stream.  Reinjections
            # are always admitted.
            allow_new = (path is first
                         or len(first.in_flight) >= first.cwnd
                         or first.dead[tick])
            reinject = path.reinject
            if not reinject and not (allow_new and next_seq - delivered_upto < recv_window):
                path.credit = credit   # nothing to reinject and no new data it may send
                continue
            loss = path.loss[tick]
            pid = path.pid
            dlv_due = dlv_wheel[(tick + path.half[tick]) % size]
            ack_due = ack_wheel[(tick + path.full[tick]) % size]
            sent = 0
            while credit >= pkt_bytes and len(in_flight) < cwnd:
                if reinject:
                    seq = reinject.popleft()
                elif allow_new and next_seq - delivered_upto < recv_window:
                    seq = next_seq
                    next_seq += 1
                    if seq % block_packets == 0:
                        block_first_send[seq // block_packets] = tick
                else:
                    break
                credit -= pkt_bytes
                in_flight[seq] = tick
                sent += 1
                if di == draw_chunk:
                    draws = rng.random(draw_chunk).tolist()
                    di = 0
                di += 1
                if draws[di - 1] >= loss:
                    key = seq * 2 + pid
                    dlv_due.append(key)
                    ack_due.append(key)
                # lost packets generate no events; the RTO scan recovers them
            path.credit = credit
            path.sent_win += sent
            n_transit += sent

        # --- metrics window ---
        if tick == window_end:
            window_end += window_ticks
            window_t.append((tick + 1 - window_ticks) * MS)
            ag_series.append(released_win_bytes * 8.0 / (window_ticks * MS) / 1e6)
            released_win_bytes = 0
            for path in paths:
                accumulation[path.name].append(len(path.in_flight) * pkt_bytes)
                # lost_win also counts RTOs of packets sent in earlier windows.
                path.plr_est = min(1.0, path.lost_win / path.sent_win) if path.sent_win else 0.0
                path.pdr_est = path.dlv_bytes_win * 8.0 / (window_ticks * MS) / 1e6
                path.sent_win = path.lost_win = path.dlv_bytes_win = 0

        # --- conservation: every distinct packet is in exactly one place ---
        pending = len(wifi.reinject) + len(lte.reinject)
        if n_transit + len(recv_buffer) + delivered_upto + pending != next_seq:
            raise SimError(
                f"conservation violated at tick {tick}: transit={n_transit} "
                f"buffered={len(recv_buffer)} released={delivered_upto} "
                f"pending={pending} sent={next_seq}")

    total_goodput = delivered_upto * PKT_BYTES * 8.0 / (n_ticks * MS) / 1e6
    return MetricsReport(
        policy=state.policy, scenario=scenario.name, seed=p.seed,
        window_t=window_t, ag_series=ag_series, ad_samples=ad_samples,
        accumulation=accumulation, decisions=decisions, total_goodput=total_goodput)


# ---------------------------------------------------------------------------
# Policy comparisons: one case and the evaluation suite
# ---------------------------------------------------------------------------

def run_case(scenario: Scenario, policy: str, seed: int, model=None) -> MetricsReport:
    """Run one (scenario, policy, seed) case; MINRTT and RR ignore the model."""
    state = SelectorState(policy=policy, offline_model=model)
    return run(scenario, state, SimParams(duration=scenario.duration, seed=seed))


@dataclass(frozen=True)
class SuiteRow:
    """What a suite keeps of one run; the MetricsReport of a 30-s run is ~350 KiB."""

    policy: str
    scenario: str                  # "<name>-<suite index>"
    seed: int
    total_goodput: float           # Mbps
    ad_p50: float                  # ms; NaN when no block completed
    ag_series: tuple[float, ...]   # Mbps per metrics window


def run_suite(suite: Sequence[Scenario], policies: Sequence[str], seed: int,
              seeds: int, model=None) -> list[SuiteRow]:
    """Every policy on every scenario, repeated with `seeds` consecutive seeds."""
    if seeds < 1:
        raise SimError(f"a suite needs at least 1 seed per scenario, got {seeds}")
    rows = []
    for index, scenario in enumerate(suite):
        for rep in range(seeds):
            case_seed = seed + 100 * index + rep
            for policy in policies:
                report = run_case(scenario, policy, case_seed, model)
                ad_p50 = report.percentile("ad", 50) if report.ad_samples else math.nan
                rows.append(SuiteRow(policy, f"{scenario.name}-{index}", case_seed,
                                     report.total_goodput, ad_p50, tuple(report.ag_series)))
    return rows


BUNDLE_FILES = ("ag.csv", "ad.csv", "accumulation.csv", "decisions.csv", "summary.txt")
SUITE_FILES = ("runs.csv", "summary.csv", "ag_cdf.csv")


def suite_csv_bundle(rows: Sequence[SuiteRow]) -> dict[str, str]:
    """runs.csv, summary.csv (per-policy medians) and ag_cdf.csv (sorted window AG)."""
    runs = ["policy,scenario,seed,total_goodput_mbps,ad_p50_ms"]
    cdf = ["policy,scenario,seed,ag_mbps"]
    for r in rows:
        key = f"{r.policy},{r.scenario},{r.seed}"
        runs.append(f"{key},{r.total_goodput:.6f},{r.ad_p50:.3f}")
        cdf.extend(f"{key},{v:.6f}" for v in sorted(r.ag_series))
    summary = ["policy,ag_p50_mbps,ad_p50_ms"]
    for policy in dict.fromkeys(r.policy for r in rows):
        ag50 = featstats.percentile([r.total_goodput for r in rows if r.policy == policy], 50)
        ads = [r.ad_p50 for r in rows if r.policy == policy and not math.isnan(r.ad_p50)]
        ad50 = featstats.percentile(ads, 50) if ads else math.nan
        summary.append(f"{policy},{ag50:.4f},{ad50:.3f}")
    return {name: "\n".join(lines) + "\n"
            for name, lines in zip(SUITE_FILES, (runs, summary, cdf))}
