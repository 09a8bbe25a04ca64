"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions by replacing module (or class)
attributes at the place where each caller looks them up, so the program is
measured without being edited.  Every call becomes a span with a parent id,
the id of the run phase it belongs to (0 is set-up, 1.. are timed items) and
start/end times from ``time.perf_counter_ns``.  Spans stay in memory while
the benchmark runs and are written out once at the end.

Hooks given to :meth:`Tracer.span` run after the traced region ends (in
:meth:`Tracer.uninstall`), so reading counts out of return values costs no
time inside any span.
"""

from __future__ import annotations

import functools
import gzip
import math
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# Percentile levels tried for a tail figure, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)


def nearest_rank(values, q: float) -> float:
    """The ceil(q*n/100)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) / 100.0)) - 1]


def tail_level(n: int) -> float:
    """Highest level in TAIL_LEVELS with at least ten samples beyond it.

    Falls back to the median when fewer than twenty samples exist.
    """
    for q in TAIL_LEVELS:
        if n - math.ceil(q * n / 100.0) >= 10:
            return q
    return 50.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.phase = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tags: dict[int, str] = {}
        self.current_phase = 0
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._targets: list[tuple] = []
        self._saved: list[tuple] = []
        self._pending: list[tuple] = []

    # -- what to trace ---------------------------------------------------

    def span(self, owner, attr: str, name: str, after=None) -> None:
        """Trace calls to ``owner.attr`` as spans named ``name``.

        ``after(tracer, span_index, args, kwargs, result)`` runs at uninstall.
        """
        self._targets.append((owner, attr, name, after, True))

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls to ``owner.attr`` without recording spans."""
        self._targets.append((owner, attr, name, None, False))

    def install(self) -> None:
        for owner, attr, name, after, timed in self._targets:
            original = getattr(owner, attr)
            wrapper = (self._timed(original, name, after) if timed
                       else self._counted(original, name))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        pending, self._pending = self._pending, []
        for after, idx, args, kwargs, result in pending:
            self.current_phase = self.phase[idx]
            after(self, idx, args, kwargs, result)

    def _timed(self, original, name, after):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.phase.append(self.current_phase)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                self._pending.append((after, idx, args, kwargs, result))
            return result

        return traced

    def _counted(self, original, name):
        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.counters[self.current_phase][name] += 1
            return original(*args, **kwargs)

        return counted

    # -- values read by hooks ----------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        self.counters[self.current_phase][name] += value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def tag(self, idx: int, value: str) -> None:
        self.tags[idx] = value

    # -- summaries -------------------------------------------------------

    def arrays(self):
        """(name ids, phases, durations ns, self times ns, parents) as arrays."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        phases = np.frombuffer(self.phase, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return names, phases, dur, dur - child, parents

    def write(self, path: Path) -> None:
        """Write every span as gzip-compressed CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,phase,name,start_ns,end_ns,tag\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.phase[i]},"
                         f"{self.names[self.name_id[i]]},{self.start[i]},"
                         f"{self.end[i]},{self.tags.get(i, '')}\n")
