"""The multitime walk field and its deterministic limit.

Each sampled line ``(x, v)`` steps the surface by +r or -r across itself;
the height of the half-plane containing the origin is zero.  Summing over a
configuration,

    H(b) = epsilon * sum_i r_i * (1{b right of line i} - 1{o right of line i}),

which makes surface differences telescope: H(b) - H(a) depends only on the
lines separating a from b.  The deterministic limit replaces the empirical
sums by crossing moments of the intensity.  The Euler and diffusive
fluctuation fields are the centered differences of the two, rescaled; the
batteries of :mod:`hrfl.stats` form them from these functions.

Every empirical evaluation is one vectorized scan of the sampled lines per
query point; a grid of points is a loop over :func:`walk_field`.
"""

from __future__ import annotations

import numpy as np

from .geometry import ORIGIN, Segment, SpaceTimePoint
from .sampler import SampledConfiguration


def surface_sum(x: np.ndarray, v: np.ndarray, r: np.ndarray, b: SpaceTimePoint) -> float:
    """Unweighted surface sum_i r_i (1{b right of i} - 1{o right of i})."""
    ub = x + b.t * v <= b.x
    uo = x <= 0.0
    plus = np.nonzero(ub & ~uo)[0]
    minus = np.nonzero(uo & ~ub)[0]
    return float(np.sum(r[plus]) - np.sum(r[minus]))


def walk_field(config: SampledConfiguration, b: SpaceTimePoint) -> float:
    """H(b) for a sampled configuration, including the epsilon weight.

    b must lie in the observation region: outside it the sampling window
    does not guarantee every crossing line was drawn.
    """
    if not config.region.contains(b.x, b.t):
        raise ValueError(f"evaluation point ({b.x}, {b.t}) outside observation region")
    return config.epsilon * surface_sum(config.x, config.v, config.r, b)


def walk_field_difference(config: SampledConfiguration, a: SpaceTimePoint,
                          b: SpaceTimePoint) -> float:
    """H(b) - H(a) evaluated directly from the crossings of segment ab."""
    for p in (a, b):
        if not config.region.contains(p.x, p.t):
            raise ValueError(f"evaluation point ({p.x}, {p.t}) outside observation region")
    ua = config.x + a.t * config.v <= a.x
    ub = config.x + b.t * config.v <= b.x
    plus = np.nonzero(ub & ~ua)[0]
    minus = np.nonzero(ua & ~ub)[0]
    return config.epsilon * float(np.sum(config.r[plus]) - np.sum(config.r[minus]))


def walk_field_grid(config: SampledConfiguration, xs, ts) -> np.ndarray:
    """H on the grid xs x ts by walk_field; shape (len(ts), len(xs))."""
    out = np.empty((len(ts), len(xs)))
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            out[i, j] = walk_field(config, SpaceTimePoint(float(x), float(t)))
    return out


def limit_field(model, b: SpaceTimePoint) -> float:
    """Deterministic limit surface: mu_1(ob+) - mu_1(ob-)."""
    return limit_field_difference(model, ORIGIN, b)


def limit_field_difference(model, a: SpaceTimePoint, b: SpaceTimePoint) -> float:
    seg = Segment(a, b)
    if seg.is_degenerate:
        return 0.0
    return (model.moment_on_crossing(1, seg, "plus")
            - model.moment_on_crossing(1, seg, "minus"))


def frame_surface(config: SampledConfiguration, frame: SpaceTimePoint,
                  offset: SpaceTimePoint) -> float:
    """Empirical surface seen from the frame point: H(frame+offset) - H(frame)."""
    return walk_field_difference(config, frame, frame.translated(offset.x, offset.t))


def limit_frame_surface(model, frame: SpaceTimePoint, offset: SpaceTimePoint) -> float:
    return limit_field_difference(model, frame, frame.translated(offset.x, offset.t))
