"""Drift correction: a fixed reference loop timed next to the measured work.

The machine this benchmark runs on changes speed by tens of percent within
seconds (shared cores, frequency changes).  A fixed pure-Python workload
that does not touch ``repro`` is timed by its own thread's CPU time right
after every measured operation, and during set-up from an interval-timer
signal.  Each measured wall time is then multiplied by
``REF_NOMINAL_S / local reference time``: the figure the operation would
have taken on a machine where the reference takes ``REF_NOMINAL_S``.
Thread CPU time keeps GIL waits of other threads out of the reference.

The reference is graph-shaped interpreter work (BFS over adjacency sets,
label strings, sorting tuples), which tracks the speed of the query
pipeline more closely than plain arithmetic does.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List, Sequence

#: Reference-loop time on a nominal machine.  A constant, so scaled figures
#: compare across runs; it is close to what the loop takes on a 2-core
#: x86-64 VM, so scaled and raw figures are of the same size.
REF_NOMINAL_S = 0.0005

#: Half-width of the window of neighbouring reference samples whose median
#: scales one operation.
REF_WINDOW = 6

#: Interval-timer period while set-up runs.
SETUP_TICK_S = 0.02

_rng = random.Random(20071)
_N = 48
_ADJ: List[List[int]] = [[] for _ in range(_N)]
for _ in range(110):
    _u, _v = _rng.randrange(_N), _rng.randrange(_N)
    if _u != _v and _v not in _ADJ[_u]:
        _ADJ[_u].append(_v)
        _ADJ[_v].append(_u)
_LABELS = [_rng.choice("CCCNOS") for _ in range(_N)]


def reference_work() -> int:
    """One fixed unit of graph-shaped pure-Python work."""
    out = 0
    for source in range(0, _N, 6):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in _ADJ[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        key = "".join(sorted(_LABELS[v] + str(d) for v, d in dist.items()))
        out += len(key) + len(sorted((d, v) for v, d in dist.items()))
    return out


def time_reference() -> float:
    """Thread CPU seconds of one reference unit."""
    t0 = time.thread_time()
    reference_work()
    return time.thread_time() - t0


def local_scales(refs: Sequence[float]) -> List[float]:
    """Per-sample scale factors: nominal over the windowed median reference."""
    scales = []
    for i in range(len(refs)):
        window = sorted(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
        scales.append(REF_NOMINAL_S / window[len(window) // 2])
    return scales


class SetupClock:
    """Times set-up, sampling the reference from a SIGALRM interval timer.

    The handler's own wall time is subtracted from the set-up time, and the
    rest is scaled by the median reference seen while set-up ran.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.refs: List[float] = []
        self._handler_s = 0.0

    def _tick(self, signum: int, frame: object) -> None:
        t0 = time.perf_counter()
        self.refs.append(time_reference())
        self._handler_s += time.perf_counter() - t0

    @contextmanager
    def running(self) -> Iterator["SetupClock"]:
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SETUP_TICK_S, SETUP_TICK_S)
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        if len(self.refs) < 3:
            self.refs.extend(time_reference() for _ in range(3))
        self.raw_s = wall - self._handler_s
        self.scaled_s = self.raw_s * REF_NOMINAL_S / statistics.median(self.refs)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < q <= 100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
