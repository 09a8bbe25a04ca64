"""Deterministic two-path multipath transport simulator.

Fixed-step (1 ms) event loop over a WiFi and an LTE subflow whose capacity,
base RTT and loss rate are driven from the scenario's MAC attributes through
a simple channel model (Shannon-shaped capacity, logistic loss cliff).  The
sender runs per-subflow AIMD congestion control with RTO-triggered
reinjection on the other path, the receiver releases the in-order prefix,
and a pluggable selector chooses the priority path every 100 ms.  Everything
is a pure function of (scenario, policy, seed).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from . import featstats, scenarios, selector as selmod
from .selector import Decision, Observation, SelectorState, WindowStats
from .traceio import WF, LF, Scenario, scenario_mac_series

WIFI = "WIFI"
LTE = "LTE"

PKT_BYTES = 1500
MS = 0.001


class SimError(ValueError):
    """Invalid simulation input or broken invariant."""


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


def channel_map_arrays(rssi: np.ndarray, sinr: np.ndarray, interface: str,
                       params: Optional[ChannelParams] = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(capacity Mbps, base rtt ms, loss fraction) per interface state."""
    p = params if params is not None else DEFAULT_CHANNELS[interface]
    rssi = np.clip(np.asarray(rssi, dtype=float), -120.0, 0.0)
    sinr = np.asarray(sinr, dtype=float)
    ref = math.log2(1.0 + 10.0 ** (p.sinr_ref / 10.0))
    cap = p.cap_max * np.minimum(1.0, np.log2(1.0 + 10.0 ** (sinr / 10.0)) / ref)
    cap = np.maximum(cap, 0.0)
    loss = 1.0 / (1.0 + np.exp((rssi - p.rssi_cliff) / p.loss_scale))
    rtt = p.rtt_floor * (1.0 + p.rtt_loss_factor * loss)
    return cap, rtt, loss


@dataclass
class SimParams:
    duration: float = 60.0
    block_size: int = 16            # packets per application block (AD unit)
    seed: int = 0
    tick: float = MS                # run() rejects any other step
    decision_interval: float = 0.1  # seconds
    window: float = 0.1             # metrics window, seconds
    online_window: float = 1.0      # selector A/B measurement window, seconds
    # Receive/reassembly window in packets.  Kept near a single path's
    # bandwidth-delay product so the priority decision allocates a scarce
    # resource; packets stranded on a broken path hold window slots until
    # their RTO, which is what makes a missed switch expensive.
    recv_buffer: int = 48
    min_rto: float = 200.0          # ms
    rto_mult: float = 4.0           # rto = max(min_rto, rto_mult * srtt)
    cwnd_init: float = 10.0
    cwnd_max: float = 1000.0
    check_conservation: bool = True
    channels: dict = field(default_factory=lambda: dict(DEFAULT_CHANNELS))


@dataclass
class MetricsReport:
    policy: str
    scenario: str
    seed: int
    window: float
    window_t: list[float]
    ag_series: list[float]                    # Mbps per window
    ad_samples: list[tuple[float, float]]     # (t, ms) per completed block
    accumulation: dict[str, list[float]]      # path -> in-flight bytes per window
    decisions: list[Decision]
    total_goodput: float                      # Mbps over the whole run
    conservation_ok: bool

    def percentile(self, metric: str, p: float) -> float:
        """Nearest-rank percentile of a series: ag, ad, acc_wifi or acc_lte."""
        if metric == "ag":
            series = self.ag_series
        elif metric == "ad":
            series = [v for _, v in self.ad_samples]
        elif metric == "acc_wifi":
            series = self.accumulation[WIFI]
        elif metric == "acc_lte":
            series = self.accumulation[LTE]
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
        summary = [
            f"policy {self.policy}",
            f"scenario {self.scenario}",
            f"seed {self.seed}",
            f"total_goodput_mbps {self.total_goodput:.6f}",
            f"conservation_ok {self.conservation_ok}",
        ]
        for name in ("ag", "ad"):
            try:
                p50 = self.percentile(name, 50)
                p90 = self.percentile(name, 90)
                summary.append(f"{name}_p50 {p50:.6f}")
                summary.append(f"{name}_p90 {p90:.6f}")
            except featstats.StatsError:
                summary.append(f"{name}_p50 NA")
        return {
            "ag.csv": "\n".join(ag) + "\n",
            "ad.csv": "\n".join(ad) + "\n",
            "accumulation.csv": "\n".join(acc) + "\n",
            "decisions.csv": selmod.decisions_csv(self.decisions),
            "summary.txt": "\n".join(summary) + "\n",
        }


class _LossDraws:
    """Buffered uniform draws from a counter-based generator, in send order."""

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, 0x10c5]))
        self._buf = self._rng.random(4096)
        self._i = 0

    def next(self) -> float:
        if self._i >= len(self._buf):
            self._buf = self._rng.random(4096)
            self._i = 0
        v = self._buf[self._i]
        self._i += 1
        return v


class _Path:
    __slots__ = ("name", "cap", "rtt", "loss", "cwnd", "ssthresh", "srtt", "credit",
                 "in_flight", "rto_fifo", "rto_head", "reinject", "reinject_head",
                 "sent_win", "lost_win", "dlv_bytes_win", "plr_est", "pdr_est",
                 "cwnd_max")

    def __init__(self, name, cap, rtt, loss, cwnd_init, cwnd_max):
        self.name = name
        self.cap = cap          # per-tick capacity array, Mbps
        self.rtt = rtt          # per-tick base rtt array, ms
        self.loss = loss        # per-tick loss array
        self.cwnd = cwnd_init
        self.ssthresh = float("inf")
        self.cwnd_max = cwnd_max
        self.srtt = float(rtt[0])
        self.credit = 0.0
        self.in_flight: dict[int, int] = {}   # seq -> send tick
        self.rto_fifo: list[tuple[int, int]] = []  # FIFO of (send_tick, seq)
        self.rto_head = 0
        self.reinject: list[int] = []          # seqs awaiting retransmission here
        self.reinject_head = 0
        self.sent_win = 0
        self.lost_win = 0
        self.dlv_bytes_win = 0
        self.plr_est = 0.0
        self.pdr_est = 0.0


def run(scenario: Scenario,
        policy: Union[str, SelectorState],
        params: Optional[SimParams] = None) -> MetricsReport:
    """Simulate one connection over the scenario under the given selector."""
    p = params if params is not None else SimParams()
    if scenario.duration <= 0:
        raise SimError("scenario duration must be > 0")
    if p.tick != MS:
        raise SimError(f"tick must be {MS} s, the step the loop assumes; got {p.tick}")
    if p.block_size < 1 or p.recv_buffer < 1:
        raise SimError(f"block_size and recv_buffer must be >= 1 packet; "
                       f"got {p.block_size} and {p.recv_buffer}")
    state = policy if isinstance(policy, SelectorState) else SelectorState(policy=policy, seed=p.seed)

    n_ticks = int(round(scenario.duration / p.tick))
    times = np.arange(n_ticks) * p.tick
    mac = scenario_mac_series(scenario, times)
    paths = {}
    for name, rssi_key, sinr_key in ((WIFI, "rssi_wifi", "sinr_wifi"),
                                     (LTE, "rssi_lte", "sinr_lte")):
        cap, rtt, loss = channel_map_arrays(mac[rssi_key], mac[sinr_key], name,
                                            p.channels.get(name))
        paths[name] = _Path(name, cap, rtt, loss, p.cwnd_init, p.cwnd_max)
    wifi, lte = paths[WIFI], paths[LTE]

    draws = _LossDraws(p.seed)
    events: list[tuple[int, int, int, int, float]] = []  # (tick, kind, seq, path_id, rtt)
    DLV, ACK = 0, 1
    path_by_id = (wifi, lte)
    id_of = {WIFI: 0, LTE: 1}

    next_seq = 0
    delivered_upto = 0
    released = 0
    recv_buffer: set[int] = set()
    n_transit = 0
    n_pending = 0
    block_first_send: dict[int, int] = {}
    seq_state_guard = p.check_conservation

    decision_ticks = max(1, int(round(p.decision_interval / p.tick)))
    window_ticks = max(1, int(round(p.window / p.tick)))
    online_ticks = max(1, int(round(p.online_window / p.tick)))

    decisions: list[Decision] = []
    window_t: list[float] = []
    ag_series: list[float] = []
    ad_samples: list[tuple[float, float]] = []
    accumulation: dict[str, list[float]] = {WIFI: [], LTE: []}
    released_win_bytes = 0
    conservation_ok = True

    current_prio = WF
    online_prio_votes = {WF: 0, LF: 0}
    online_released = 0
    online_ad: list[float] = []
    online_feat: Optional[tuple[float, ...]] = None

    def observation(tick: int) -> Observation:
        feats = (
            float(mac["rssi_wifi"][tick]), float(mac["rssi_lte"][tick]),
            float(mac["sinr_wifi"][tick]), float(mac["sinr_lte"][tick]),
            wifi.srtt, lte.srtt,
            max(1.0, wifi.cwnd), max(1.0, lte.cwnd),
            wifi.plr_est, lte.plr_est,
            wifi.pdr_est, lte.pdr_est,
        )
        return Observation(
            t=tick * p.tick, features=feats,
            srtt_wifi=wifi.srtt, srtt_lte=lte.srtt,
            space_wifi=wifi.cwnd - len(wifi.in_flight),
            space_lte=lte.cwnd - len(lte.in_flight),
        )

    for tick in range(n_ticks):
        now_ms = tick

        # --- arrivals and acks ---
        while events and events[0][0] <= tick:
            _, kind, seq, pid, rtt_sample = heapq.heappop(events)
            path = path_by_id[pid]
            if kind == DLV:
                if seq >= delivered_upto and seq not in recv_buffer:
                    recv_buffer.add(seq)
                    n_transit -= 1
                    path.dlv_bytes_win += PKT_BYTES
                    while delivered_upto in recv_buffer:
                        recv_buffer.remove(delivered_upto)
                        delivered_upto += 1
                        released += 1
                        released_win_bytes += PKT_BYTES
                        online_released += 1
                        if delivered_upto % p.block_size == 0:
                            block = delivered_upto // p.block_size - 1
                            start = block_first_send.pop(block, None)
                            if start is not None:
                                ad_samples.append((tick * p.tick, float(tick - start)))
                                online_ad.append(float(tick - start))
            else:  # ACK
                if seq in path.in_flight:
                    del path.in_flight[seq]
                    if path.cwnd < path.ssthresh:
                        path.cwnd = min(path.cwnd_max, path.cwnd + 1.0)
                    else:
                        path.cwnd = min(path.cwnd_max, path.cwnd + 1.0 / path.cwnd)
                    path.srtt = 0.875 * path.srtt + 0.125 * rtt_sample

        # --- RTO: stranded packets reinject on the other path ---
        for path, other in ((wifi, lte), (lte, wifi)):
            rto = max(p.min_rto, p.rto_mult * path.srtt)
            halved = False
            fifo = path.rto_fifo
            head = path.rto_head
            while head < len(fifo):
                send_tick, seq = fifo[head]
                if seq not in path.in_flight or path.in_flight[seq] != send_tick:
                    head += 1
                    continue
                if now_ms - send_tick < rto:
                    break
                head += 1
                del path.in_flight[seq]
                other.reinject.append(seq)
                n_transit -= 1
                n_pending += 1
                path.lost_win += 1
                halved = True
            path.rto_head = head
            if head > 4096 and head * 2 > len(fifo):
                path.rto_fifo = fifo[head:]
                path.rto_head = 0
            if halved:
                path.ssthresh = max(2.0, path.cwnd / 2.0)
                path.cwnd = max(1.0, path.cwnd / 2.0)

        # --- path selection ---
        if tick % decision_ticks == 0:
            d = selmod.decide(state, observation(tick))
            decisions.append(d)
            current_prio = d.priority
        online_prio_votes[current_prio] += 1

        # --- send: priority path first, spill to the other ---
        first, second = (wifi, lte) if current_prio == WF else (lte, wifi)
        for path in (first, second):
            path.credit = min(path.credit + path.cap[tick] * 125.0, 4.0 * PKT_BYTES)
            # New data spills to the secondary path only when the priority
            # path is saturated (cwnd-full) or effectively dead; credit
            # pacing alone must not divert the in-order stream.  Reinjections
            # are always admitted.
            allow_new = (path is first
                         or len(first.in_flight) >= first.cwnd
                         or first.cap[tick] < 0.5)
            while path.credit >= PKT_BYTES and len(path.in_flight) < path.cwnd:
                if path.reinject_head < len(path.reinject):
                    seq = path.reinject[path.reinject_head]
                    path.reinject_head += 1
                    if path.reinject_head > 4096 and path.reinject_head * 2 > len(path.reinject):
                        path.reinject = path.reinject[path.reinject_head:]
                        path.reinject_head = 0
                    n_pending -= 1
                elif allow_new and next_seq - delivered_upto < p.recv_buffer:
                    seq = next_seq
                    next_seq += 1
                    block = seq // p.block_size
                    if seq % p.block_size == 0:
                        block_first_send[block] = tick
                else:
                    break
                n_transit += 1
                path.credit -= PKT_BYTES
                path.in_flight[seq] = tick
                path.rto_fifo.append((tick, seq))
                path.sent_win += 1
                if draws.next() >= path.loss[tick]:
                    rtt = float(path.rtt[tick])
                    half = max(1, int(round(rtt / 2.0)))
                    full = max(2, int(round(rtt)))
                    pid = id_of[path.name]
                    heapq.heappush(events, (tick + half, DLV, seq, pid, rtt))
                    heapq.heappush(events, (tick + full, ACK, seq, pid, rtt))
                # lost packets generate no events; the RTO scan recovers them

        # --- metrics window ---
        if (tick + 1) % window_ticks == 0:
            window_t.append((tick + 1 - window_ticks) * p.tick)
            ag_series.append(released_win_bytes * 8.0 / (window_ticks * p.tick) / 1e6)
            released_win_bytes = 0
            for path in (wifi, lte):
                accumulation[path.name].append(len(path.in_flight) * PKT_BYTES)
                path.plr_est = path.lost_win / path.sent_win if path.sent_win else 0.0
                path.pdr_est = path.dlv_bytes_win * 8.0 / (window_ticks * p.tick) / 1e6
                path.sent_win = path.lost_win = path.dlv_bytes_win = 0

        # --- online learning window (SMARTPS) ---
        if (tick + 1) % online_ticks == 0 and state.policy == selmod.SMARTPS:
            prio = WF if online_prio_votes[WF] >= online_prio_votes[LF] else LF
            ag = online_released * PKT_BYTES * 8.0 / (online_ticks * p.tick) / 1e6
            ad = (sum(online_ad) / len(online_ad)) if online_ad else 1000.0
            selmod.observe_outcome(state, WindowStats(
                t=(tick + 1) * p.tick, priority=prio, ag=ag, ad=max(ad, 1e-3),
                features=observation(tick).features))
            selmod.maybe_refresh(state, (tick + 1) * p.tick)
            online_prio_votes = {WF: 0, LF: 0}
            online_released = 0
            online_ad = []

        # --- conservation: every distinct packet is in exactly one place ---
        if seq_state_guard:
            if n_transit + len(recv_buffer) + released + n_pending != next_seq:
                conservation_ok = False
                raise SimError(
                    f"conservation violated at tick {tick}: transit={n_transit} "
                    f"buffered={len(recv_buffer)} released={released} "
                    f"pending={n_pending} sent={next_seq}")

    total_goodput = released * PKT_BYTES * 8.0 / (n_ticks * p.tick) / 1e6
    return MetricsReport(
        policy=state.policy, scenario=scenario.name, seed=p.seed, window=p.window,
        window_t=window_t, ag_series=ag_series, ad_samples=ad_samples,
        accumulation=accumulation, decisions=decisions,
        total_goodput=total_goodput, conservation_ok=conservation_ok)


# ---------------------------------------------------------------------------
# Policy comparisons: evaluation suite and walkaway (missed-handover) study
# ---------------------------------------------------------------------------

def run_case(scenario: Scenario, policy: str, seed: int, model=None,
             params: Optional[SimParams] = None) -> MetricsReport:
    """Run one (scenario, policy, seed) case; MINRTT and RR ignore the model."""
    state = SelectorState(policy=policy, offline_model=model, seed=seed)
    return run(scenario, state, replace(params or SimParams(duration=scenario.duration),
                                        seed=seed))


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


def switch_time(decisions: Sequence[Decision], to: str = LF,
                window: int = 10, frac: float = 0.8) -> Optional[float]:
    """Start time of the first window of decisions with >= frac favoring `to`."""
    from collections import deque
    trail: deque[Decision] = deque(maxlen=window)
    for d in decisions:
        trail.append(d)
        if len(trail) == window and \
                sum(1 for e in trail if e.priority == to) >= frac * window:
            return trail[0].t
    return None


@dataclass(frozen=True)
class WalkawayComparison:
    seed: int
    switch_times: dict[str, Optional[float]]
    degraded_accumulation_p90: dict[str, float]  # WiFi in-flight after the cliff


def walkaway_comparison(seed: int, model=None,
                        params: Optional[SimParams] = None) -> WalkawayComparison:
    """Run the walkaway scenario under MinRTT and SmartPS and compare."""
    scenario = scenarios.walkaway(seed)
    if model is None:
        model = scenarios.pretrained_model()
    reports = {policy: run_case(scenario, policy, seed, model, params)
               for policy in (selmod.MINRTT, selmod.SMARTPS)}

    # windows after the noise-free WiFi RSSI trajectory crosses the loss cliff
    cliff = DEFAULT_CHANNELS[WIFI].rssi_cliff
    wt = np.asarray(reports["MINRTT"].window_t)
    rssi = scenario.attribute_series("rssi_wifi", wt)
    degraded = rssi < cliff
    acc_p90 = {}
    for name, rep in reports.items():
        series = [a for a, d in zip(rep.accumulation[WIFI], degraded) if d]
        acc_p90[name] = featstats.percentile(series, 90) if series else 0.0
    return WalkawayComparison(
        seed=seed,
        switch_times={name: switch_time(rep.decisions) for name, rep in reports.items()},
        degraded_accumulation_p90=acc_p90)
