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

Each empirical surface value or mass is one :func:`signed_mark_sum` of two
side masks of the sampled lines; a grid is one :func:`walk_field` per node.
"""

from __future__ import annotations

import numpy as np

from .geometry import ORIGIN, Segment, SpaceTimePoint
from .sampler import SampledConfiguration


def signed_mark_sum(r: np.ndarray, plus: np.ndarray, minus: np.ndarray) -> float:
    """sum_i r_i (1{plus_i} - 1{minus_i}) over boolean masks, in numpy's fixed
    pairwise order (a BLAS dot's bits change with the OpenBLAS thread count)."""
    return float(np.add.reduce(r * np.subtract(plus, minus, dtype=np.int8)))


def require_in_region(config: SampledConfiguration, *points: tuple[float, float]) -> None:
    """Outside the observation region not every separating line was drawn."""
    for x, t in points:
        if not config.region.contains(x, t):
            raise ValueError(f"evaluation point ({x}, {t}) outside observation region")


def surface_sum(x: np.ndarray, v: np.ndarray, r: np.ndarray, b: SpaceTimePoint) -> float:
    """Unweighted surface sum_i r_i (1{b right of i} - 1{o right of i})."""
    return signed_mark_sum(r, x + b.t * v <= b.x, x <= 0.0)


def walk_field(config: SampledConfiguration, b: SpaceTimePoint) -> float:
    """H(b) for a sampled configuration, including the epsilon weight."""
    require_in_region(config, (b.x, b.t))
    return config.epsilon * surface_sum(config.x, config.v, config.r, b)


def walk_field_difference(config: SampledConfiguration, a: SpaceTimePoint,
                          b: SpaceTimePoint) -> float:
    """H(b) - H(a) directly from the lines separating a from b."""
    require_in_region(config, (a.x, a.t), (b.x, b.t))
    x, v = config.x, config.v
    return config.epsilon * signed_mark_sum(config.r, x + b.t * v <= b.x, x + a.t * v <= a.x)


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
