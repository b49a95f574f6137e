"""A fixed probe task that measures how fast the machine runs during a run.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes as other tenants' load comes and goes, so the
same round can take 4 s in one run and 5.5 s in the next.  The probe is a
fixed task that uses no hrfl code: a pure-Python heap and arithmetic loop
(the kind of work of the event engine and of scalar root finding) and a few
numpy array passes (sorting, searching, transcendental functions and
reductions, the kind of work of sampling and field evaluation).

run.py times it in its own process, never inside a round, before the
first round and after every round.  The run's times are then scaled by
``REFERENCE_S / median(probe times of the run)``: they are what the rounds
would have taken with the machine at its reference speed.  A change to hrfl
cannot move the probe.  ``REFERENCE_S`` is the median probe time on the
reference machine (see README.md); it only fixes the scale.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

REFERENCE_S = 0.1
TASKS_PER_PROBE = 4

_rng = np.random.default_rng(20251105)
_X = _rng.random(200_000)
_Q = np.sort(_rng.random(20_000))


def _python_part() -> float:
    heap = [(0.0, 0)]
    acc = 0.0
    for k in range(1, 25_000):
        t, j = heapq.heappop(heap)
        acc += (t * 1.000001 + j) % 7.0
        heapq.heappush(heap, (t + ((k * 2654435761) % 1000) * 1e-3, k))
        if k % 3:
            heapq.heappush(heap, (t + 0.5, -k))
    return acc


def _numpy_part() -> float:
    acc = 0.0
    for _ in range(3):
        s = np.sort(_X)
        idx = np.searchsorted(s, _Q)
        acc += float(np.exp(-s).sum() + np.log1p(_X).sum() + idx.sum())
        acc += float(np.abs(_X[:2000, None] - _Q[None, :200]).sum())
    return acc


def probe() -> list[float]:
    """Seconds the fixed task takes, TASKS_PER_PROBE times in a row."""
    times = []
    for _ in range(TASKS_PER_PROBE):
        t0 = time.perf_counter()
        _python_part()
        _numpy_part()
        times.append(time.perf_counter() - t0)
    return times
