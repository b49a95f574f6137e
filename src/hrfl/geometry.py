"""Points, segments and crossing intervals in the space-time plane.

A line is the pair ``(x, v)``: the trajectory ``{(x + v*t, t)}`` of a
traveler at constant velocity ``v`` visiting space point ``x`` at time
``0``.  Lines parallel to the space axis are unrepresentable by
construction.

The right half-plane of a line is closed: a point ``(px, pt)`` lies right
of ``(x, v)`` iff ``x + pt*v <= px``.  A segment ``ab`` is crossed with
orientation Plus when ``a`` is strictly left and ``b`` right, Minus in the
reversed case; :mod:`hrfl.field` applies this rule to whole arrays of
sampled lines.  Points exactly on a line follow the
closed-right convention; such coincidences have measure zero under every
continuous intensity and are accepted rather than resolved by exact
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SpaceTimePoint:
    """A point (x, t) of the space-time plane."""

    x: float
    t: float

    def __post_init__(self) -> None:
        _require_finite(x=self.x, t=self.t)

    def translated(self, z: float, s: float) -> "SpaceTimePoint":
        return SpaceTimePoint(self.x + z, self.t + s)


ORIGIN = SpaceTimePoint(0.0, 0.0)


@dataclass(frozen=True)
class Segment:
    """The segment with extremes a and b."""

    a: SpaceTimePoint
    b: SpaceTimePoint

    @property
    def is_degenerate(self) -> bool:
        return self.a.x == self.b.x and self.a.t == self.b.t

    def translated(self, z: float, s: float) -> "Segment":
        return Segment(self.a.translated(z, s), self.b.translated(z, s))


def segment(ax: float, at: float, bx: float, bt: float) -> Segment:
    """Shorthand constructor from four coordinates."""
    return Segment(SpaceTimePoint(ax, at), SpaceTimePoint(bx, bt))


def crossing_interval(v, seg: Segment):
    """Space intercepts x for which the line (x, v) crosses seg.

    For fixed velocity v the line (x, v) meets seg iff x lies between the
    two pivots ``a.x - v*a.t`` and ``b.x - v*b.t``.  Returns the closed
    interval (lo, hi), elementwise for an array of velocities; it is empty
    (zero length) iff the pivots coincide.  The interval is closed while
    the Plus/Minus orientation is half-open at the pivots; the mismatch is
    measure zero.
    """
    if not np.all(np.isfinite(v)):
        raise ValueError(f"v must be finite, got {v!r}")
    pa = seg.a.x - v * seg.a.t
    pb = seg.b.x - v * seg.b.t
    return np.minimum(pa, pb), np.maximum(pa, pb)
