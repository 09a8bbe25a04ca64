"""Scripted mobility scenarios and the pretrained simulation model.

Four scenario families drive the evaluation: walkaway (WiFi signal decays as
the device leaves coverage), interference bursts (sharp temporary WiFi
degradation), stable (both paths healthy), and oscillating (WiFi quality
flaps).  The pretrained model is a forest fit on synthesized traces drawn
from the same families.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from . import dataset, traceio, treelearn
from .traceio import Scenario, Segment, TraceError, linear_ramp, noisy

_LTE_STEADY = {
    "rssi_lte": noisy(-60.0, 2.0),
    "sinr_lte": noisy(20.0, 1.0),
    "rsrp_lte": noisy(-90.0, 2.0),
    "rsrq_lte": noisy(-10.0, 1.0),
}

_WIFI_GOOD = {
    "rssi_wifi": noisy(-45.0, 2.0),
    "sinr_wifi": noisy(22.0, 1.0),
    "td_wifi": noisy(40.0, 5.0),
    "rd_wifi": noisy(40.0, 5.0),
}

_WIFI_BAD = {
    "rssi_wifi": noisy(-85.0, 2.0),
    "sinr_wifi": noisy(2.0, 1.0),
    "td_wifi": noisy(5.0, 2.0),
    "rd_wifi": noisy(5.0, 2.0),
}


def walkaway(seed: int, duration: float = 60.0,
             rssi_start: float = -30.0, rssi_end: float = -85.0) -> Scenario:
    """WiFi RSSI ramps down across the loss cliff while LTE stays steady."""
    return Scenario(
        name="walkaway", duration=duration, seed=seed,
        segments=(Segment(0.0, {
            "rssi_wifi": linear_ramp(rssi_start, rssi_end),
            "sinr_wifi": linear_ramp(25.0, 2.0),
            "td_wifi": linear_ramp(45.0, 5.0),
            "rd_wifi": linear_ramp(45.0, 5.0),
            **_LTE_STEADY,
        }),))


def stable(seed: int, duration: float = 60.0) -> Scenario:
    return Scenario(
        name="stable", duration=duration, seed=seed,
        segments=(Segment(0.0, {**_WIFI_GOOD, **_LTE_STEADY}),))


def _flapping(name: str, seed: int, duration: float, starts: Sequence[float]) -> Scenario:
    """WiFi good from starts[0] = 0, then alternately bad and good from each later start."""
    return Scenario(name=name, duration=duration, seed=seed, segments=tuple(
        Segment(start, {**(_WIFI_BAD if i % 2 else _WIFI_GOOD), **_LTE_STEADY})
        for i, start in enumerate(starts)))


def interference_burst(seed: int, duration: float = 60.0,
                       bursts: Sequence[tuple[float, float]] = ((15.0, 30.0), (40.0, 55.0))
                       ) -> Scenario:
    """WiFi collapses during the burst intervals, recovers in between."""
    return _flapping("interference", seed, duration,
                     [0.0] + [edge for burst in bursts for edge in burst])


def oscillating(seed: int, duration: float = 60.0, period: float = 10.0) -> Scenario:
    """WiFi alternates good/bad every half period."""
    if not (period > 0 and math.isfinite(duration)):   # else the loop below never ends
        raise TraceError(f"need a period > 0 and a finite duration, got {period}, {duration}")
    starts = []
    t = 0.0
    while t < duration:
        starts.append(t)
        t += period / 2.0
    return _flapping("oscillating", seed, duration, starts)


def evaluation_suite(duration: float = 30.0) -> list[Scenario]:
    """The 20-scenario mix used for end-to-end policy comparison."""
    suite = []
    for i, (start, end) in enumerate([(-30, -85), (-40, -90), (-35, -80),
                                      (-30, -95), (-45, -90)]):
        s = walkaway(seed=1000 + i, duration=duration, rssi_start=start, rssi_end=end)
        suite.append(s)
    burst_plans = [
        ((10.0, 25.0),), ((5.0, 15.0), (20.0, 28.0)), ((8.0, 22.0),),
        ((12.0, 30.0),), ((3.0, 12.0), (18.0, 27.0)), ((6.0, 18.0),),
        ((4.0, 20.0),),
    ]
    for i, plan in enumerate(burst_plans):
        suite.append(interference_burst(seed=2000 + i, duration=duration, bursts=plan))
    for i, period in enumerate([8.0, 10.0, 12.0, 14.0, 16.0, 20.0]):
        suite.append(oscillating(seed=3000 + i, duration=duration, period=period))
    for i in range(2):
        suite.append(stable(seed=4000 + i, duration=duration))
    assert len(suite) == 20
    return suite


def training_corpus(seed: int = 7) -> list[dataset.LabeledRecord]:
    """Labeled records synthesized across all scenario families."""
    scns = [
        walkaway(seed, duration=60.0),
        walkaway(seed + 1, duration=60.0, rssi_start=-40.0, rssi_end=-95.0),
        interference_burst(seed + 2, duration=60.0),
        interference_burst(seed + 3, duration=60.0, bursts=((5.0, 20.0), (30.0, 50.0))),
        oscillating(seed + 4, duration=60.0),
        oscillating(seed + 5, duration=60.0, period=16.0),
        stable(seed + 6, duration=60.0),
        stable(seed + 7, duration=60.0),
    ]
    records = []
    for scn in scns:
        trace = traceio.synthesize_trace(scn, 0.1)
        records.extend(dataset.build_dataset(trace))
    return records


@functools.cache
def pretrained_model() -> treelearn.ForestModel:
    """20-tree forest trained on training_corpus(7) with seed 7; cached per process."""
    params = treelearn.TreeParams(max_depth=6, min_leaf=20)
    return treelearn.train_forest(training_corpus(7), n_trees=20, params=params, seed=7)
