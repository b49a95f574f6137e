"""Hard-rod dynamics: dilation geometry, surface evolution and an event oracle.

An ideal-gas configuration is a finite set of massless particles (x, v, r)
moving ballistically.  The dilation with respect to a reference point z
inserts each particle's mark as a rod length, mapping gas to a hard-rod
configuration with no rod covering z; the contraction removes the lengths
again.  The three evolution routes implemented here are

* the surface representation: the rod born from particle (x, v, r) sits at
  ``x + v t + m + j`` where m is the signed rod length between 0 and x and
  j is the signed length flux across the particle's moving line, and

* an event-driven simulation: rods travel ballistically and swap positions
  at contact (the left extreme of the updated slow rod goes to the left
  extreme of the fast rod, the right extreme of the updated fast rod to the
  right extreme of the slow rod).  The rods are kept in position order and
  each adjacent pair (slot) has one scheduled contact time; each rod
  carries its own clock, the position and time of its last collision, so a
  collision touches only the colliding pair and reschedules only the two
  neighbouring slots, and

* the tagged frame: the rods seen from a zero-length tracer started at the
  origin are the dilation of the contracted gas after its free motion; the
  tracer's displacement shifts them back.

The mass is half-open, counting marks with ``z <= x < x_query``, and the
flux takes the same rule: a particle at or past a line is on its right.
So y = x + v t + m + j holds exactly, ties included, and points exactly at
a boundary follow the formulas literally.  Every route keeps per-rod
identity, so they can be compared rod by rod.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from dataclasses import dataclass

import numpy as np

TIME_TOL = 1e-12
GAP_TOL = 1e-9


class RodOverlapError(ValueError):
    """A configuration violates the disjoint-rod invariant."""


class SimultaneousCollisionError(RuntimeError):
    """Two collisions closer than the time tolerance; regenerate the sample."""


def _as_array(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=float))


@dataclass
class GasConfiguration:
    """Ideal-gas particles: positions, velocities, marks (future rod lengths)."""

    x: np.ndarray
    v: np.ndarray
    r: np.ndarray

    def __init__(self, x, v, r):
        self.x, self.v, self.r = _as_array(x), _as_array(v), _as_array(r)
        if not (len(self.x) == len(self.v) == len(self.r)):
            raise ValueError("x, v, r must have equal length")

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass
class RodConfiguration:
    """Hard rods (y, v, r): left endpoint, velocity, length >= 0, all finite.

    The open intervals (y, y + r) must be pairwise disjoint; rods may touch.
    Zero-length rods (tracers) are admitted everywhere.
    """

    y: np.ndarray
    v: np.ndarray
    r: np.ndarray

    def __init__(self, y, v, r, validate: bool = True):
        self.y, self.v, self.r = _as_array(y), _as_array(v), _as_array(r)
        if not (len(self.y) == len(self.v) == len(self.r)):
            raise ValueError("y, v, r must have equal length")
        self.collisions: int | None = None  # filled by the event oracle
        if validate:
            self.validate()

    @property
    def n(self) -> int:
        return len(self.y)

    def validate(self) -> None:
        if not all(np.isfinite(a).all() for a in (self.y, self.v, self.r)):
            raise RodOverlapError("rod positions, velocities and lengths must be finite")
        if self.n and self.r.min() < 0.0:
            raise RodOverlapError("rod lengths must be >= 0")
        if self.n < 2:
            return
        order = np.argsort(self.y, kind="stable")
        y, r = self.y[order], self.r[order]
        gaps = y[1:] - (y[:-1] + r[:-1])
        scale = max(1.0, float(np.abs(y).max()))
        if gaps.min() < -GAP_TOL * scale:
            raise RodOverlapError(
                f"overlapping rods: worst gap {gaps.min():.3e}")

    def shifted(self, c: float) -> "RodConfiguration":
        return RodConfiguration(self.y + c, self.v, self.r, validate=False)

    def covering_rod(self, z: float = 0.0) -> int | None:
        """Index of the rod whose open interval contains z, if any."""
        hit = np.nonzero((self.y < z) & (z < self.y + self.r))[0]
        return int(hit[0]) if len(hit) else None


# ---------------------------------------------------------------------------
# gas-side primitives
# ---------------------------------------------------------------------------

def ideal_gas_evolve(gas: GasConfiguration, t: float) -> GasConfiguration:
    """Free flow: (x, v, r) -> (x + v t, v, r)."""
    return GasConfiguration(gas.x + gas.v * t, gas.v, gas.r)


def _strict_below_mass(positions: np.ndarray, marks: np.ndarray):
    """Returns S with S(q) = sum of marks at positions strictly below q."""
    order = np.argsort(positions, kind="stable")
    sorted_pos = positions[order]
    cum = np.concatenate([[0.0], np.cumsum(marks[order])])

    def S(q):
        return cum[np.searchsorted(sorted_pos, q, side="left")]

    return S


def mass(gas: GasConfiguration, z: float, x) -> float | np.ndarray:
    """Signed added mark between z and x (one x or an array): half-open count over [z, x).

    Equals S(x) - S(z) for the strictly-below cumulative S, which makes the
    antisymmetry m_z^x = -m_x^z automatic.
    """
    S = _strict_below_mass(gas.x, gas.r)
    out = S(x) - S(z)
    return float(out) if np.ndim(x) == 0 else out


def dilate(gas: GasConfiguration, z: float = 0.0) -> RodConfiguration:
    """Insert rod lengths: (x, v, r) -> (x + m_z^x, v, r); image avoids z."""
    S = _strict_below_mass(gas.x, gas.r)
    y = gas.x + (S(gas.x) - S(z))
    return RodConfiguration(y, gas.v, gas.r)


def contract(rods: RodConfiguration, z: float = 0.0) -> GasConfiguration:
    """Remove rod lengths: (y, v, r) -> (y - m_z^y, v, r); inverse of dilate."""
    if rods.covering_rod(z) is not None:
        raise ValueError(f"contraction reference {z} is covered by a rod")
    S = _strict_below_mass(rods.y, rods.r)
    x = rods.y - (S(rods.y) - S(z))
    return GasConfiguration(x, rods.v, rods.r)


def flux(gas: GasConfiguration, x: float, v: float, t: float) -> float:
    """Signed mark length crossing the moving line through (x, 0) with slope v.

    A particle at or past the line is on its right, the mass's half-open
    rule: the marks that go from the right side at time 0 to the left at
    time t count +, those going the other way -.  The line's own phase
    point, if present, stays on the right.
    """
    right_0 = gas.x >= x
    right_t = gas.x + gas.v * t >= x + v * t
    return float(np.sum(gas.r[right_0 & ~right_t]) - np.sum(gas.r[~right_0 & right_t]))


def quasiparticle_positions(gas: GasConfiguration, t: float) -> np.ndarray:
    """Positions x + v t + m + j of every tagged rod at time t.

    Combining the mass and flux sums telescopes exactly to
    ``x + v t + S_t(x + v t) - S_0(0)`` with S_t the strictly-below mark
    cumulative of the time-t positions, so the whole batch costs one sort.
    """
    pos_t = gas.x + gas.v * t
    S_t = _strict_below_mass(pos_t, gas.r)
    S_0 = _strict_below_mass(gas.x, gas.r)
    return pos_t + (S_t(pos_t) - S_0(0.0))


def evolve_surface(gas: GasConfiguration, t: float) -> RodConfiguration:
    """Hard-rod state at time t of the dilated gas, via the surface route.

    At t = 0 this is dilate(gas, 0).  Per-rod identity follows the gas
    particle order.
    """
    return RodConfiguration(quasiparticle_positions(gas, t), gas.v, gas.r)


# ---------------------------------------------------------------------------
# event-driven oracle
# ---------------------------------------------------------------------------

def evolve_events(rods: RodConfiguration, t: float) -> RodConfiguration:
    """Event-driven hard-rod evolution to time t (independent oracle).

    Rods advance ballistically between adjacent-pair contacts; at contact
    the pair swaps positions.  The rods are kept in position order, so slot
    k is the pair of the k-th and (k+1)-th rod from the left and a
    collision at slot k swaps entries k and k + 1.  Each rod keeps its own
    clock (y0, t0) and sits at ``y0 + v (s - t0)`` at time s, so an event
    restarts the clocks of the colliding pair only, reschedules slots k - 1
    and k + 1 only and costs O(log n).  Each slot has one due time, its
    contact time within [0, t] or inf; heap entries (tau, k) whose tau is no
    longer slot k's due time are skipped.  Contact times are computed from
    the pair's positions at the current event.  Two collisions of distinct
    slots closer than TIME_TOL raise SimultaneousCollisionError, naming both
    pairs by input index.  Negative times run the reversed dynamics with
    flipped velocities.  The returned configuration carries the number of
    processed events in its ``collisions`` attribute.
    """
    if t == 0.0:
        out = RodConfiguration(rods.y.copy(), rods.v.copy(), rods.r.copy(),
                               validate=False)
        out.collisions = 0
        return out
    sign, t = (1.0, t) if t > 0.0 else (-1.0, -t)
    rods.validate()
    n = rods.n
    order = np.argsort(rods.y, kind="stable")
    y0, vel, length = rods.y[order], sign * rods.v[order], rods.r[order]
    dv = vel[:-1] - vel[1:]
    gap = y0[1:] - (y0[:-1] + length[:-1])
    tau = np.divide(np.where(gap > 0.0, gap, 0.0), dv, out=np.full_like(dv, np.inf),
                    where=dv > 0.0)
    due = np.where(tau <= t, tau, np.inf).tolist()
    heap = [(s, k) for k, s in enumerate(due) if s <= t]
    heapify(heap)
    ids, y0, vel, length = order.tolist(), y0.tolist(), vel.tolist(), length.tolist()
    t0 = [0.0] * n

    # a collision at slot k swaps entries k and k + 1 and restarts their clocks
    # at tau (they sit at yf and yf + lslow); slots k - 1 and k + 1 are
    # rescheduled inline, as one loop over both took 15% longer on 1.6k rods
    inf, pop, push = math.inf, heappop, heappush
    events, last = 0, n - 2
    while heap:
        tau, k = pop(heap)
        if due[k] != tau:
            continue
        # spec'd guard: ambiguous simultaneous events force a resample
        while heap and heap[0][0] <= tau + TIME_TOL:
            other, j = pop(heap)
            if due[j] == other and j != k:
                raise SimultaneousCollisionError(
                    f"collisions at {tau} and {other} within {TIME_TOL}: rods "
                    f"({ids[k]}, {ids[k + 1]}) and ({ids[j]}, {ids[j + 1]})")
        k1 = k + 1
        fast, slow, lslow = vel[k], vel[k1], length[k1]
        yf = y0[k] + fast * (tau - t0[k])
        y0[k], y0[k1] = yf, yf + lslow       # slow rod takes the fast rod's left extreme
        vel[k], vel[k1] = slow, fast         # and the fast rod lands past it
        length[k], length[k1] = lslow, length[k]
        t0[k] = t0[k1] = tau
        ids[k], ids[k1] = ids[k1], ids[k]
        due[k] = inf                         # the swapped pair separates
        events += 1
        if k:
            j = k - 1
            due[j] = inf
            dv = vel[j] - slow
            if dv > 0.0:
                gap = yf - (y0[j] + vel[j] * (tau - t0[j]) + length[j])
                s = tau + gap / dv if gap > 0.0 else tau
                if s <= t:
                    due[j] = s
                    push(heap, (s, j))
        if k < last:
            j = k1 + 1
            due[k1] = inf
            dv = fast - vel[j]
            if dv > 0.0:
                gap = y0[j] + vel[j] * (tau - t0[j]) - (y0[k1] + length[k1])
                s = tau + gap / dv if gap > 0.0 else tau
                if s <= t:
                    due[k1] = s
                    push(heap, (s, k1))

    y = np.empty(n)
    y[ids] = np.array(y0) + np.array(vel) * (t - np.array(t0))
    out = RodConfiguration(y, rods.v.copy(), rods.r.copy())
    out.collisions = events
    return out


# ---------------------------------------------------------------------------
# tagged-frame dynamics and the empty-space shift
# ---------------------------------------------------------------------------

def origin_tracer_displacement(gas: GasConfiguration, t: float) -> float:
    """Position at time t of a zero-length zero-velocity tracer started at 0.

    A particle exactly at 0 is on the tracer's right, so the covering-rod
    transport of full_evolve, which parks a gas particle there, stays
    consistent.
    """
    return flux(gas, 0.0, 0.0, t)


def tagged_frame_evolve(rods: RodConfiguration, t: float) -> RodConfiguration:
    """Evolution seen from the origin tracer: dilate(T_t(contract(Y))).

    Requires a configuration with no rod covering the origin.
    """
    return dilate(ideal_gas_evolve(contract(rods, 0.0), t), 0.0)


def full_evolve(rods: RodConfiguration, t: float) -> RodConfiguration:
    """Hard-rod evolution through the tagged-frame route, for any input.

    On configurations avoiding the origin this is the tagged-frame motion
    shifted by the tracer displacement; a configuration whose rod covers the
    origin is transported to one that avoids it and back.
    """
    cover = rods.covering_rod(0.0)
    if cover is not None:
        q = float(rods.y[cover])
        return full_evolve(rods.shifted(-q), t).shifted(q)
    gas = contract(rods, 0.0)
    return dilate(ideal_gas_evolve(gas, t), 0.0).shifted(origin_tracer_displacement(gas, t))


def empty_space_position(rods: RodConfiguration, z: float) -> float:
    """The point b with exactly |z| empty space between 0 and b (signed).

    Requires no rod covering 0.  Walks gap by gap in the direction of z;
    beyond the last rod all space is empty, so a solution always exists for
    finite configurations.  When |z| of empty space ends exactly at a rod
    edge the smallest solution, a rod's left end, is returned.
    """
    if rods.covering_rod(0.0) is not None:
        raise ValueError("empty-space walk needs 0 in empty space")
    if z == 0.0:
        return 0.0
    order = np.argsort(rods.y, kind="stable")
    y, r = rods.y[order], rods.r[order]
    remaining = abs(z)
    cur = 0.0
    if z > 0.0:
        for yi, ri in zip(y[y + r > 0], r[y + r > 0]):
            gap = max(yi - cur, 0.0)
            if remaining <= gap:
                return cur + remaining
            remaining -= gap
            cur = yi + ri
        return cur + remaining
    rights = (y + r)[::-1]
    lefts = y[::-1]
    sel = rights <= 0
    for yi, ei in zip(lefts[sel], rights[sel]):
        gap = max(cur - ei, 0.0)
        if remaining < gap:
            return cur - remaining
        remaining -= gap
        cur = yi
    return cur - remaining


def empty_space_shift(rods: RodConfiguration, z: float,
                      via: str = "gaps") -> RodConfiguration:
    """Recenter the configuration at the point |z| of empty space away.

    Positive z walks right: the configuration shifts left by the walked
    distance b(z).  The "gaps" route shifts by -b(z) directly; the
    "contraction" route computes dilate(shift(contract(Y), -z)); the two
    agree up to rounding, edge ties included.
    """
    if via == "gaps":
        return rods.shifted(-empty_space_position(rods, z))
    if via == "contraction":
        gas = contract(rods, 0.0)
        return dilate(GasConfiguration(gas.x - z, gas.v, gas.r), 0.0)
    raise ValueError("via must be 'gaps' or 'contraction'")
