"""Deterministic two-path multipath transport simulator.

Fixed-step (1 ms) event loop over a WiFi and an LTE subflow whose capacity,
base RTT and loss rate are driven from the scenario's MAC attributes through
traceio's channel model (Shannon-shaped capacity, logistic loss cliff).  The
sender runs per-subflow AIMD congestion control with RTO-triggered
reinjection on the other path, the receiver releases the in-order prefix,
and a pluggable selector chooses the priority path every decision interval,
100 ms by default.  Everything is a pure function of (scenario, selector
state, params), so the decisions alone set a run apart from another on the
same scenario and seed.  `run_group` therefore simulates several selector
states as one run until their decisions first differ, and forks it there:
each branch copies the loop state, shares the per-tick tables, and goes on
from that tick's send step under its own decision.  Every state is asked
exactly as often, with the same observations, as when it runs alone.  `run`
is a group of one, and `run_case` builds its state and params from a policy
name and a seed.

Each path's deliveries and acks wait, as plain seqs, on its own two timing
wheels with one bucket per tick, sized from the run's own largest round trip; a
per-tick slot table holds the bucket a send at that tick lands in.  These, the
channel state each tick reads and the MAC features each decision reads are
compact per-run tables (`array`/`bytes`, not lists or numpy scalars).  The
order of a tick's deliveries changes only which copy of a seq counts when both
arrive in that tick, and WiFi's bucket runs first, as a (seq, path) order
would.  Acks change only their own path; each path's bucket runs in seq order.
An ack's RTT sample is the path's base RTT at the send tick its in-flight entry
holds.  That is the acked copy's own send: a base RTT is at most
(1 + rtt_loss_factor) * rtt_floor, which is at most 4 * srtt <= rto while
rtt_loss_factor <= 3 (the DEFAULT_CHANNELS values are 1 and 2), so a copy's ack
lands no later than the tick its RTO could fire, and acks run first.  Past that
bound a seq could time out, come back to the same path and take the later
send's sample: the ambiguity Karn's rule resolves.  A delivery of the next
in-order seq is released at once; the reorder buffer holds only seqs above it.
The loop counts packets and ticks, and turns a count into bytes or seconds only
where a metric is reported.  A window's AG is how far the release point moved in
it, and a block's AD pops the block's first-send tick from a FIFO: blocks are
first sent and released in order, so the head is always the completed block.

A tick does work only where something can change, and so a branch can re-enter
the tick it forked at and repeat nothing before the send step.  That tick's
wheel buckets were emptied as they ran, and its decision is past.  The RTO scan
sleeps until `rto_wake`, the earliest tick at which any packet can be MIN_RTO
old, and a second scan in the same tick finds nothing new.  A path's oldest
in-flight send tick never decreases: entries leave from anywhere, but a new one
is stamped with the current tick.  So min over paths of (oldest send tick +
MIN_RTO), with the current tick standing in for an empty path's oldest, bounds
every expiry from below; a scan can come early and find nothing, but never
late.  A path that can send nothing (no reinjections, and new data barred or
window-limited) skips the rest of its send body.  Every decision, alone or in a
group, is asked in one place, `_Sim.advance`, which builds its Observation
inline and asks the other states only when there are others.  The loop keeps
its state in locals and stores it only on exit.
"""

from __future__ import annotations

import copy
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
WINDOW_TICKS = 100     # ticks per AG and accumulation sample
# Receive/reassembly window in packets.  Kept near a single path's
# bandwidth-delay product so the priority decision allocates a scarce
# resource; packets stranded on a broken path hold window slots until
# their RTO, which is what makes a missed switch expensive.
RECV_WINDOW = 48
MIN_RTO = 200          # ms, which is ticks
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
    ag_series: list[float]                    # Mbps per window
    ad_samples: list[tuple[float, float]]     # (t, ms) per completed block
    accumulation: dict[str, list[float]]      # path -> in-flight bytes per window
    decisions: list[Decision]
    total_goodput: float                      # Mbps over the whole run

    @property
    def window_t(self) -> list[float]:
        """The start time of each metrics window, in seconds."""
        return [k * WINDOW_TICKS * MS for k in range(len(self.ag_series))]

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
        window_t = self.window_t
        ag = ["t,ag_mbps"] + [f"{t:.3f},{v:.6f}" for t, v in zip(window_t, self.ag_series)]
        ad = ["t,ad_ms"] + [f"{t:.3f},{v:.3f}" for t, v in self.ad_samples]
        acc = ["t,wifi_bytes,lte_bytes"] + [
            f"{t:.3f},{w:.0f},{l:.0f}"
            for t, w, l in zip(window_t, self.accumulation[WIFI], self.accumulation[LTE])
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


def _slots(ms: np.ndarray, floor: int, size: int) -> array:
    # The wheel bucket of an event sent at each tick, (tick + delay) % size, where
    # the delay is int(round(ms)) with round-half-even, as Python's round(), and
    # at least `floor`.  size - 1 is the largest round trip cut to the run length,
    # so a delay is cut only past the last tick, where an event never fires.
    delay = np.minimum(np.maximum(floor, np.rint(ms)), size - 1)
    return array("i", ((np.arange(len(ms)) + delay) % size).astype(np.int32).tobytes())


class _Path:
    __slots__ = ("name", "credit_tick", "dead", "loss", "rtt", "dlv_slot", "ack_slot",
                 "dlv_wheel", "ack_wheel",
                 "cwnd", "ssthresh", "srtt", "credit", "in_flight", "reinject",
                 "sent_win", "lost_win", "dlv_win", "plr_est", "pdr_est")

    def __init__(self, name, cap, rtt, loss):
        self.name = name
        # Per-tick tables, compact (8 bytes per float, 4 per slot, 1 per flag).
        self.credit_tick = _doubles(cap * 125.0)   # bytes of send credit per 1-ms tick
        self.dead = bytes((cap < 0.5).tolist())     # capacity too low to carry new data
        self.loss = _doubles(loss)
        self.rtt = _doubles(rtt)                    # base rtt, ms
        self.cwnd = CWND_INIT
        self.ssthresh = float("inf")
        self.srtt = self.rtt[0]
        self.credit = 0.0
        # seq -> send tick, in send order: a seq is inserted only after its
        # previous entry here was removed by an ack or an RTO, so insertion
        # order is send order and the oldest packet comes first.
        self.in_flight: dict[int, int] = {}
        self.reinject: deque[int] = deque()   # seqs awaiting retransmission here
        self.sent_win = 0   # packets this metrics window: sent, timed out, delivered
        self.lost_win = 0
        self.dlv_win = 0
        self.plr_est = 0.0
        self.pdr_est = 0.0

    def fork(self) -> _Path:
        twin = copy.copy(self)   # shares the per-tick tables
        twin.in_flight = self.in_flight.copy()
        twin.reinject = self.reinject.copy()
        twin.dlv_wheel = [bucket.copy() for bucket in self.dlv_wheel]
        twin.ack_wheel = [bucket.copy() for bucket in self.ack_wheel]
        return twin


def _whole(length: float, unit: float) -> int:
    """length / unit if that is a positive whole number, else 0.

    The relative slack of 1e-9 absorbs float division: 0.7 / 0.001 is
    699.999..., yet 0.7 s is 700 ticks.
    """
    q = length / unit
    if not math.isfinite(q):
        return 0
    n = round(q)
    return n if n >= 1 and abs(q - n) <= 1e-9 * n else 0


class _Sim:
    """The state of one simulated connection, which a group forks at a decision."""

    __slots__ = (
        # Fixed at the start: a fork shares them.
        "scenario", "seed", "n_ticks", "decision_ticks", "size",
        "rssi_wifi", "rssi_lte", "sinr_wifi", "sinr_lte",
        # Changed by the loop: a fork copies them.
        "paths", "tick", "next_decision", "window_end", "rto_wake",
        "rng", "draws", "di", "next_seq", "delivered_upto", "recv_buffer", "n_transit",
        "window_upto", "block_first_send",   # AG and AD sources: see the module docstring
        "decisions", "ag_series", "ad_samples", "accumulation")

    def __init__(self, scenario: Scenario, params: SimParams):
        p = params
        if p.duration != scenario.duration:
            raise SimError(f"params.duration {p.duration} s differs from the scenario's "
                           f"duration {scenario.duration} s")
        self.decision_ticks = _whole(p.decision_interval, MS)
        if not self.decision_ticks:
            raise SimError(f"decision_interval must be a positive whole number of {MS} s "
                           f"ticks; got {p.decision_interval}")
        n_windows = _whole(scenario.duration, WINDOW_TICKS * MS)
        if not n_windows:
            raise SimError(f"scenario duration {scenario.duration} s is not a positive whole "
                           f"number of {WINDOW_TICKS * MS} s metrics windows")
        self.scenario = scenario.name
        self.seed = p.seed

        self.n_ticks = n_ticks = n_windows * WINDOW_TICKS
        mac = scenario_mac_series(scenario, np.arange(n_ticks) * MS,
                                  ("rssi_wifi", "sinr_wifi", "rssi_lte", "sinr_lte"))
        # A comprehension, so no channel series outlives its path's tables.
        self.paths = [_Path(name, *channel_map_arrays(mac[rssi], mac[sinr], name))
                      for name, rssi, sinr in ((WIFI, "rssi_wifi", "sinr_wifi"),
                                               (LTE, "rssi_lte", "sinr_lte"))]
        # The MAC features of each decision as plain floats.  Each numpy series is
        # dropped as its table is made, so no more than one extra series is alive.
        self.rssi_wifi, self.rssi_lte, self.sinr_wifi, self.sinr_lte = (
            _doubles(mac.pop(key)) for key in ("rssi_wifi", "rssi_lte", "sinr_wifi", "sinr_lte"))

        # Timing wheels (Varghese & Lauck, SOSP 1987): one bucket per tick of
        # delay, so a ring one longer than the largest delay never wraps onto a
        # pending bucket.  A round trip is at least 2 ticks, and no delay need
        # outlast the run.
        longest = max(np.frombuffer(path.rtt).max() for path in self.paths)
        self.size = size = min(max(2, int(np.rint(longest))), n_ticks) + 1
        for path in self.paths:
            rtt = np.frombuffer(path.rtt)   # deliveries wait a one-way delay, acks a round trip
            path.dlv_slot, path.ack_slot = _slots(rtt / 2.0, 1, size), _slots(rtt, 2, size)
            path.dlv_wheel = [[] for _ in range(size)]
            path.ack_wheel = [[] for _ in range(size)]

        self.rng = seeded_stream(p.seed, 0x10c5)
        self.draws = self.rng.random(_DRAW_CHUNK).tolist()   # uniform loss draws, in send order
        self.di = 0

        self.tick = 0
        self.next_decision = 0
        self.window_end = WINDOW_TICKS - 1
        # No packet can time out before this tick (see the module docstring).
        self.rto_wake = MIN_RTO
        self.next_seq = 0
        self.delivered_upto = 0   # every seq below it has been released in order
        self.recv_buffer: set[int] = set()
        self.n_transit = 0
        self.window_upto = 0
        self.block_first_send: deque[int] = deque()

        self.decisions: list[Decision] = []
        self.ag_series: list[float] = []
        self.ad_samples: list[tuple[float, float]] = []
        self.accumulation: dict[str, list[float]] = {WIFI: [], LTE: []}

    def fork(self) -> _Sim:
        twin = copy.copy(self)
        twin.paths = [path.fork() for path in self.paths]
        twin.rng = copy.deepcopy(self.rng)   # draws is never changed in place, so it is shared
        twin.recv_buffer = self.recv_buffer.copy()
        twin.block_first_send = self.block_first_send.copy()
        twin.decisions = self.decisions.copy()
        twin.ag_series = self.ag_series.copy()
        twin.ad_samples = self.ad_samples.copy()
        twin.accumulation = {name: series.copy() for name, series in self.accumulation.items()}
        return twin

    def advance(self, states: list[SelectorState]) -> list[Decision] | None:
        """Run to the end, or stop at the first decision on which `states` differ.

        Each decision asks `selector.decide` of the first state, and of the
        others with the same observation only when there are others.  On a
        disagreement the run stands after that tick's decision, before its
        send step, and each state's Decision is returned; otherwise None.
        """
        decide = selmod.decide   # once per call, so a wrapped decide sees every call
        # Observation's generated __new__ is Python code; this is the C call it makes.
        new = tuple.__new__
        state, *others = states
        wifi, lte = paths = self.paths
        wifi_first, lte_first = (wifi, lte), (lte, wifi)
        wheels = tuple((path, path.dlv_wheel, path.ack_wheel) for path in paths)   # WiFi's first
        rssi_wifi, rssi_lte = self.rssi_wifi, self.rssi_lte
        sinr_wifi, sinr_lte = self.sinr_wifi, self.sinr_lte
        n_ticks, decision_ticks, size = self.n_ticks, self.decision_ticks, self.size
        rng, draws, di = self.rng, self.draws, self.di
        draw_chunk = _DRAW_CHUNK

        pkt_bytes, block_packets, recv_window = PKT_BYTES, BLOCK_PACKETS, RECV_WINDOW
        rto_mult, cwnd_max, min_rto = RTO_MULT, CWND_MAX, MIN_RTO
        credit_max = 4.0 * pkt_bytes
        next_seq, delivered_upto, n_transit = self.next_seq, self.delivered_upto, self.n_transit
        recv_buffer, block_first_send = self.recv_buffer, self.block_first_send

        decisions, ag_series = self.decisions, self.ag_series
        ad_samples, accumulation = self.ad_samples, self.accumulation
        window_upto = self.window_upto

        # The priority path is the last decision's; tick 0 decides before it sends.
        send_order = wifi_first if not decisions or decisions[-1].priority == WF else lte_first

        # Running counters instead of a modulo per tick: the wheel slot (the
        # loop steps it to the first tick's), and the ticks of the next
        # decision and of the metrics-window end.
        slot = (self.tick - 1) % size
        next_decision, window_end, rto_wake = self.next_decision, self.window_end, self.rto_wake
        split = None

        for tick in range(self.tick, n_ticks):
            slot += 1
            if slot == size:
                slot = 0

            # --- arrivals and acks, WiFi's first (see the module docstring) ---
            for path, dlv_wheel, ack_wheel in wheels:
                due = dlv_wheel[slot]
                if due:
                    for seq in due:
                        if seq > delivered_upto:
                            if seq in recv_buffer:
                                continue   # a copy of a buffered seq
                            recv_buffer.add(seq)
                        elif seq < delivered_upto:
                            continue       # a copy of a released seq
                        n_transit -= 1
                        path.dlv_win += 1
                        if seq == delivered_upto:
                            # Release it, then each buffered seq that follows in order.
                            while True:
                                delivered_upto += 1
                                if delivered_upto % block_packets == 0:
                                    start = block_first_send.popleft()
                                    ad_samples.append((tick * MS, float(tick - start)))
                                if delivered_upto not in recv_buffer:
                                    break
                                recv_buffer.remove(delivered_upto)
                    due.clear()
                due = ack_wheel[slot]
                if due:
                    if len(due) > 1:
                        due.sort()
                    in_flight, rtt = path.in_flight, path.rtt
                    cwnd, ssthresh, srtt = path.cwnd, path.ssthresh, path.srtt
                    for seq in due:
                        sent_at = in_flight.pop(seq, None)
                        if sent_at is not None:
                            cwnd += 1.0 if cwnd < ssthresh else 1.0 / cwnd
                            cwnd = cwnd if cwnd < cwnd_max else cwnd_max
                            srtt = 0.875 * srtt + 0.125 * rtt[sent_at]
                    path.cwnd, path.srtt = cwnd, srtt
                    due.clear()

            # --- RTO: stranded packets reinject on the other path ---
            if tick >= rto_wake:
                # An empty path sends its next packet now at the earliest.
                rto_wake = tick + min_rto
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
                wcwnd, lcwnd = wifi.cwnd, lte.cwnd   # never below 1.0
                obs = new(Observation, (tick * MS, (
                    rssi_wifi[tick], rssi_lte[tick], sinr_wifi[tick], sinr_lte[tick],
                    wifi.srtt, lte.srtt, wcwnd, lcwnd,
                    wifi.plr_est, lte.plr_est, wifi.pdr_est, lte.pdr_est),
                    wcwnd - len(wifi.in_flight), lcwnd - len(lte.in_flight)))
                d = decide(state, obs)
                if others:
                    rest = [decide(other, obs) for other in others]
                    if rest.count(d) < len(rest):
                        split = [d] + rest
                        break
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
                if not reinject and not (allow_new
                                         and next_seq - delivered_upto < recv_window):
                    path.credit = credit   # nothing to reinject and no new data it may send
                    continue
                loss = path.loss[tick]
                dlv_due = path.dlv_wheel[path.dlv_slot[tick]]
                ack_due = path.ack_wheel[path.ack_slot[tick]]
                sent = 0
                while credit >= pkt_bytes and len(in_flight) < cwnd:
                    if reinject:
                        seq = reinject.popleft()
                    elif allow_new and next_seq - delivered_upto < recv_window:
                        seq = next_seq
                        next_seq += 1
                        if seq % block_packets == 0:
                            block_first_send.append(tick)
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
                        dlv_due.append(seq)
                        ack_due.append(seq)
                    # lost packets generate no events; the RTO scan recovers them
                path.credit = credit
                path.sent_win += sent
                n_transit += sent

            # --- metrics window ---
            if tick == window_end:
                window_end += WINDOW_TICKS
                ag_series.append((delivered_upto - window_upto) * pkt_bytes * 8.0
                                 / (WINDOW_TICKS * MS) / 1e6)
                window_upto = delivered_upto
                for path in paths:
                    accumulation[path.name].append(len(path.in_flight) * pkt_bytes)
                    # lost_win also counts RTOs of packets sent in earlier windows.
                    path.plr_est = (min(1.0, path.lost_win / path.sent_win)
                                    if path.sent_win else 0.0)
                    path.pdr_est = path.dlv_win * pkt_bytes * 8.0 / (WINDOW_TICKS * MS) / 1e6
                    path.sent_win = path.lost_win = path.dlv_win = 0

            # --- conservation: every distinct packet is in exactly one place ---
            pending = len(wifi.reinject) + len(lte.reinject)
            if n_transit + len(recv_buffer) + delivered_upto + pending != next_seq:
                raise SimError(
                    f"conservation violated at tick {tick}: transit={n_transit} "
                    f"buffered={len(recv_buffer)} released={delivered_upto} "
                    f"pending={pending} sent={next_seq}")
        self.tick = tick
        self.next_decision, self.window_end, self.rto_wake = next_decision, window_end, rto_wake
        self.draws, self.di = draws, di
        self.next_seq, self.delivered_upto, self.n_transit = next_seq, delivered_upto, n_transit
        self.window_upto = window_upto
        return split

    def report(self, policy: str) -> MetricsReport:
        total_goodput = self.delivered_upto * PKT_BYTES * 8.0 / (self.n_ticks * MS) / 1e6
        return MetricsReport(
            policy=policy, scenario=self.scenario, seed=self.seed,
            ag_series=self.ag_series, ad_samples=self.ad_samples,
            accumulation=self.accumulation, decisions=self.decisions,
            total_goodput=total_goodput)


def _finish(sim: _Sim, members: list[tuple[int, SelectorState]],
            reports: list[MetricsReport]) -> None:
    """Run `sim` to its end for `members`, the (index, state) pairs that have
    decided alike so far, forking it where they disagree.  Each state's report
    goes to `reports[index]`."""
    split = sim.advance([state for _, state in members])
    if split is None:
        # States that never disagreed share one run; a fork gives each its own lists.
        for n, (index, state) in enumerate(members):
            reports[index] = (sim.fork() if n else sim).report(state.policy)
        return
    branches: dict[Decision, list[tuple[int, SelectorState]]] = {}
    for member, d in zip(members, split):
        branches.setdefault(d, []).append(member)
    *_, last = branches
    for d, sub in branches.items():
        branch = sim if d is last else sim.fork()   # the last branch goes on in `sim`
        branch.decisions.append(d)
        _finish(branch, sub, reports)


def run_group(scenario: Scenario, states: Sequence[SelectorState],
              params: SimParams) -> list[MetricsReport]:
    """Simulate one connection per selector state, as one run until they disagree.

    Returns one report per state, in order, each equal to what `run` gives
    for that state alone.
    """
    if not states:
        return []
    try:
        sim = _Sim(scenario, params)
    except MemoryError as exc:   # numpy refuses an impossible table at once
        raise SimError(f"scenario duration {scenario.duration} s is too long to simulate: "
                       f"{exc}") from None
    reports: list[MetricsReport] = [None] * len(states)
    _finish(sim, list(enumerate(states)), reports)
    return reports


def run(scenario: Scenario, state: SelectorState, params: SimParams) -> MetricsReport:
    """Simulate one connection over the scenario under the given selector."""
    return run_group(scenario, [state], params)[0]


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
            states = [SelectorState(policy=policy, offline_model=model) for policy in policies]
            for report in run_group(scenario, states,
                                    SimParams(duration=scenario.duration, seed=case_seed)):
                ad_p50 = report.percentile("ad", 50) if report.ad_samples else math.nan
                rows.append(SuiteRow(report.policy, f"{scenario.name}-{index}", case_seed,
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
