"""Lines, half-planes and segment crossings in the space-time plane.

A line is coded ballistically: ``LineParam(x, v)`` is the trajectory
``{(x + v*t, t)}`` of a traveler at constant velocity ``v`` visiting space
point ``x`` at time ``0``.  Lines parallel to the space axis are
unrepresentable by construction.

The right half-plane of a line is closed: a point ``(px, pt)`` lies Right
iff ``px >= x + pt*v``.  A segment is crossed with orientation Plus when its
first endpoint is strictly Left and its second endpoint is Right, Minus in
the reversed case.  Points exactly on a line follow the closed-right
convention; such coincidences have measure zero under every continuous
intensity and are accepted rather than resolved by exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


class Crossing(Enum):
    PLUS = "plus"
    MINUS = "minus"
    NONE = "none"


class DegenerateSegmentError(ValueError):
    """Raised when an operation requires a segment with distinct endpoints."""


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
class LineParam:
    """The line {(x + v*t, t)}: space intercept x at time 0, velocity v."""

    x: float
    v: float

    def __post_init__(self) -> None:
        _require_finite(x=self.x, v=self.v)

    def position(self, t: float) -> float:
        return self.x + self.v * t


@dataclass(frozen=True)
class Segment:
    """The segment with extremes a and b."""

    a: SpaceTimePoint
    b: SpaceTimePoint

    @property
    def is_degenerate(self) -> bool:
        return self.a.x == self.b.x and self.a.t == self.b.t

    def reversed(self) -> "Segment":
        return Segment(self.b, self.a)

    def translated(self, z: float, s: float) -> "Segment":
        return Segment(self.a.translated(z, s), self.b.translated(z, s))


def segment(ax: float, at: float, bx: float, bt: float) -> Segment:
    """Shorthand constructor from four coordinates."""
    return Segment(SpaceTimePoint(ax, at), SpaceTimePoint(bx, bt))


def side_of(line: LineParam, p: SpaceTimePoint) -> Side:
    """Classify p against the closed right half-plane of the line."""
    return Side.RIGHT if p.x >= line.x + p.t * line.v else Side.LEFT


def classify_crossing(line: LineParam, seg: Segment) -> Crossing:
    """Orientation of the crossing of seg by line: Plus, Minus or NoCross.

    Plus means seg.a Left and seg.b Right, Minus the reverse; any other
    combination does not cross.
    """
    if seg.is_degenerate:
        raise DegenerateSegmentError("cannot classify a degenerate segment")
    sa = side_of(line, seg.a)
    sb = side_of(line, seg.b)
    if sa is Side.LEFT and sb is Side.RIGHT:
        return Crossing.PLUS
    if sa is Side.RIGHT and sb is Side.LEFT:
        return Crossing.MINUS
    return Crossing.NONE


def crossing_interval(v: float, seg: Segment) -> tuple[float, float]:
    """Space intercepts x for which the line (x, v) crosses seg.

    For fixed velocity v the line (x, v) meets seg iff x lies between the
    two pivots ``a.x - v*a.t`` and ``b.x - v*b.t``.  Returns the closed
    interval (lo, hi); it is empty (zero length) iff the pivots coincide.
    The interval is closed while the Plus/Minus classification is half-open
    at the pivots; the mismatch is measure zero.
    """
    if not math.isfinite(v):
        raise ValueError(f"v must be finite, got {v!r}")
    pa = seg.a.x - v * seg.a.t
    pb = seg.b.x - v * seg.b.t
    return (pa, pb) if pa <= pb else (pb, pa)
