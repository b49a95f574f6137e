"""The slot-ordered event engine against the version-counter engine it replaced.

``reference_events`` keeps rods in input order, finds each rod's place
through an order/rank pair and invalidates heap entries with per-rod version
counters.  It evaluates the same contact-time formulas, so both engines must
agree bit for bit, collision count included.
"""

from heapq import heappop, heappush

import numpy as np
import pytest

from hrfl.hardrod import (
    TIME_TOL,
    GasConfiguration,
    RodConfiguration,
    SimultaneousCollisionError,
    dilate,
    evolve_events,
)


def reference_events(rods: RodConfiguration, t: float) -> RodConfiguration:
    if t == 0.0:
        out = RodConfiguration(rods.y.copy(), rods.v.copy(), rods.r.copy(),
                               validate=False)
        out.collisions = 0
        return out
    if t < 0.0:
        back = reference_events(RodConfiguration(rods.y, -rods.v, rods.r,
                                                 validate=False), -t)
        out = RodConfiguration(back.y, rods.v.copy(), rods.r.copy(),
                               validate=False)
        out.collisions = back.collisions
        return out
    rods.validate()
    n = rods.n
    if n < 2:
        out = RodConfiguration(rods.y + rods.v * t, rods.v.copy(), rods.r.copy(),
                               validate=False)
        out.collisions = 0
        return out

    vel, length = rods.v.tolist(), rods.r.tolist()
    y0, t0 = rods.y.tolist(), [0.0] * n
    order = np.argsort(rods.y, kind="stable").tolist()
    rank = np.argsort(order).tolist()
    version = [0] * n
    now = 0.0
    events = 0
    heap = []

    def push_pair(k):
        if 0 <= k < n - 1:
            left, right = order[k], order[k + 1]
            dv = vel[left] - vel[right]
            if dv <= 0.0:
                return
            gap = (y0[right] + vel[right] * (now - t0[right])
                   - (y0[left] + vel[left] * (now - t0[left]) + length[left]))
            tau = now + gap / dv if gap > 0.0 else now
            if tau <= t:
                heappush(heap, (tau, left, right, version[left], version[right]))

    for k in range(n - 1):
        push_pair(k)

    def valid(entry):
        tau, left, right, vl, vr = entry
        return (version[left] == vl and version[right] == vr
                and rank[left] + 1 == rank[right])

    while heap:
        entry = heappop(heap)
        if not valid(entry):
            continue
        tau, left, right, _, _ = entry
        while heap and heap[0][0] <= tau + TIME_TOL:
            nxt = heappop(heap)
            if valid(nxt) and not (nxt[1] == left and nxt[2] == right):
                raise SimultaneousCollisionError(
                    f"collisions at {tau} and {nxt[0]} within {TIME_TOL}")
        now = tau
        yf = y0[left] + vel[left] * (tau - t0[left])
        y0[right] = yf
        y0[left] = yf + length[right]
        t0[left] = t0[right] = tau
        k = rank[left]
        order[k], order[k + 1] = right, left
        rank[left], rank[right] = k + 1, k
        version[left] += 1
        version[right] += 1
        events += 1
        push_pair(k - 1)
        push_pair(k + 1)

    out = RodConfiguration(np.array(y0) + rods.v * (t - np.array(t0)),
                           rods.v.copy(), rods.r.copy())
    out.collisions = events
    return out


def outcome(engine, rods, t):
    """(y bytes, collisions) of a run, or the error type it raised."""
    try:
        out = engine(rods, t)
    except SimultaneousCollisionError:
        return SimultaneousCollisionError
    return out.y.tobytes(), out.collisions


def random_rods(rng, n, halfwidth=10.0, rmax=0.4, tracers=0.0):
    r = rng.uniform(0.0, rmax, n)
    r[rng.random(n) < tracers] = 0.0
    gas = GasConfiguration(rng.uniform(-halfwidth, halfwidth, n), rng.uniform(-1, 1, n), r)
    return dilate(gas, 0.0)


@pytest.mark.parametrize("tracers", [0.0, 0.3, 1.0])
def test_engines_agree_bitwise_on_random_gases(tracers):
    rng = np.random.default_rng(4100)
    total = 0
    for _ in range(25):
        rods = random_rods(rng, int(rng.integers(2, 160)), tracers=tracers)
        for t in (float(rng.uniform(0.1, 8.0)), -float(rng.uniform(0.1, 8.0))):
            got = evolve_events(rods, t)
            want = reference_events(rods, t)
            assert got.y.tobytes() == want.y.tobytes()
            assert got.collisions == want.collisions
            total += got.collisions
    assert total > 1000


def test_engines_agree_on_a_long_horizon():
    rods = random_rods(np.random.default_rng(4200), 300)
    got, want = evolve_events(rods, 60.0), reference_events(rods, 60.0)
    assert got.collisions == want.collisions > 10 * rods.n
    assert got.y.tobytes() == want.y.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2])
def test_engines_agree_on_small_gases(n):
    rng = np.random.default_rng(4300 + n)
    for _ in range(20):
        rods = random_rods(rng, n, halfwidth=1.0)
        for t in (0.0, 2.5, -2.5):
            assert outcome(evolve_events, rods, t) == outcome(reference_events, rods, t)


def test_engines_agree_on_touching_rods():
    # about a third of the adjacent rods share an endpoint; one touching pair
    # approaches and collides at s = 0, the others separate (two approaching
    # touching pairs would be a simultaneous collision)
    rng = np.random.default_rng(4400)
    for _ in range(40):
        n = int(rng.integers(3, 60))
        r = rng.uniform(0.0, 0.5, n)
        touching = rng.random(n - 1) < 0.35
        hit = int(rng.integers(n - 1))
        touching[max(hit - 1, 0):hit + 2] = False   # no chain of contacts at s = 0
        touching[hit] = True
        gaps = np.where(touching, 0.0, rng.uniform(0.0, 1.0, n - 1))
        y = np.concatenate([[0.0], np.cumsum(r[:-1] + gaps)])
        v = rng.uniform(-1, 1, n)
        for i in np.nonzero(touching)[0]:
            v[i + 1] = v[i] - 0.5 if i == hit else max(v[i] + rng.uniform(0.05, 0.5), v[i + 1])
        perm = rng.permutation(n)
        for sign in (1.0, -1.0):             # t < 0 runs the flipped velocities
            rods = RodConfiguration(y[perm], sign * v[perm], r[perm])
            got = outcome(evolve_events, rods, sign * 1.5)
            assert got == outcome(reference_events, rods, sign * 1.5)
            assert got is not SimultaneousCollisionError and got[1] >= 1


def test_disjoint_pairs_meeting_at_once_name_both_pairs():
    # input order shuffled: the pairs are rods (2, 3) and (0, 1)
    rods = RodConfiguration([10.0, 11.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0],
                            [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(SimultaneousCollisionError) as err:
        evolve_events(rods, 1.0)
    assert "(2, 3)" in str(err.value) and "(0, 1)" in str(err.value)
    with pytest.raises(SimultaneousCollisionError):
        reference_events(rods, 1.0)


@pytest.mark.parametrize("y, v", [
    ([0.0, 2.0, 9.0], [1.0, -1.0, 0.0]),         # one contact at s = 0.75
    ([0.0, 0.5, 9.0], [1.0, -1.0, 0.0]),         # a touching pair, contact at s = 0
])
def test_a_single_contact_is_not_simultaneous(y, v):
    rods = RodConfiguration(y, v, [0.5, 0.5, 0.5])
    out = evolve_events(rods, 1.0)
    assert out.collisions == 1
    assert outcome(evolve_events, rods, 1.0) == outcome(reference_events, rods, 1.0)
