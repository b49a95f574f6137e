"""The multitime walk field, its deterministic limit, and fluctuation fields.

Each sampled line steps the surface by +r or -r across itself; the height of
the half-plane containing the origin is zero.  Summing over a configuration,

    H(b) = epsilon * sum_i r_i * (1{b right of line i} - 1{o right of line i}),

which makes surface differences telescope: H(b) - H(a) depends only on the
lines separating a from b.  The deterministic limit replaces the empirical
sums by crossing moments of the intensity.

Every empirical evaluation is one vectorized scan of the sampled lines per
query point; a grid of points is a loop over :func:`walk_field`.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ORIGIN, Segment, SpaceTimePoint
from .sampler import SampledConfiguration


def _signed_subset_sum(r: np.ndarray, plus_idx: np.ndarray, minus_idx: np.ndarray,
                       compensated: bool) -> float:
    if compensated:
        return math.fsum(r[plus_idx]) - math.fsum(r[minus_idx])
    return float(np.sum(r[plus_idx]) - np.sum(r[minus_idx]))


def surface_sum(x: np.ndarray, v: np.ndarray, r: np.ndarray, b: SpaceTimePoint,
                compensated: bool = False) -> float:
    """Unweighted surface sum_i r_i (1{b right of i} - 1{o right of i})."""
    ub = x + b.t * v <= b.x
    uo = x <= 0.0
    plus = np.nonzero(ub & ~uo)[0]
    minus = np.nonzero(uo & ~ub)[0]
    return _signed_subset_sum(r, plus, minus, compensated)


def walk_field(config: SampledConfiguration, b: SpaceTimePoint,
               compensated: bool = False) -> float:
    """H(b) for a sampled configuration, including the epsilon weight.

    b must lie in the observation region: outside it the sampling window
    does not guarantee every crossing line was drawn.
    """
    if not config.region.contains(b.x, b.t):
        raise ValueError(f"evaluation point ({b.x}, {b.t}) outside observation region")
    return config.epsilon * surface_sum(config.x, config.v, config.r, b, compensated)


def walk_field_difference(config: SampledConfiguration, a: SpaceTimePoint,
                          b: SpaceTimePoint, compensated: bool = False) -> float:
    """H(b) - H(a) evaluated directly from the crossings of segment ab."""
    for p in (a, b):
        if not config.region.contains(p.x, p.t):
            raise ValueError(f"evaluation point ({p.x}, {p.t}) outside observation region")
    ua = config.x + a.t * config.v <= a.x
    ub = config.x + b.t * config.v <= b.x
    plus = np.nonzero(ub & ~ua)[0]
    minus = np.nonzero(ua & ~ub)[0]
    return config.epsilon * _signed_subset_sum(config.r, plus, minus, compensated)


def walk_field_grid(config: SampledConfiguration, xs, ts) -> np.ndarray:
    """H on the grid xs x ts by walk_field; shape (len(ts), len(xs))."""
    out = np.empty((len(ts), len(xs)))
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            out[i, j] = walk_field(config, SpaceTimePoint(float(x), float(t)))
    return out


def limit_field(model, b: SpaceTimePoint) -> float:
    """Deterministic limit surface: mu_1(ob+) - mu_1(ob-)."""
    seg = Segment(ORIGIN, b)
    if seg.is_degenerate:
        return 0.0
    return (model.moment_on_crossing(1, seg, "plus")
            - model.moment_on_crossing(1, seg, "minus"))


def limit_field_difference(model, a: SpaceTimePoint, b: SpaceTimePoint) -> float:
    seg = Segment(a, b)
    if seg.is_degenerate:
        return 0.0
    return (model.moment_on_crossing(1, seg, "plus")
            - model.moment_on_crossing(1, seg, "minus"))


def euler_fluctuation(config: SampledConfiguration, model, b: SpaceTimePoint) -> float:
    """(H_sample(b) - H_limit(b)) / sqrt(epsilon)."""
    return (walk_field(config, b) - limit_field(model, b)) / math.sqrt(config.epsilon)


def frame_surface(config: SampledConfiguration, frame: SpaceTimePoint,
                  offset: SpaceTimePoint) -> float:
    """Empirical surface seen from the frame point: H(frame+offset) - H(frame)."""
    return walk_field_difference(config, frame, frame.translated(offset.x, offset.t))


def limit_frame_surface(model, frame: SpaceTimePoint, offset: SpaceTimePoint) -> float:
    return limit_field_difference(model, frame, frame.translated(offset.x, offset.t))


def diffusive_fluctuations(config: SampledConfiguration, model,
                           frame: SpaceTimePoint,
                           offset: SpaceTimePoint) -> tuple[float, float]:
    """The pair (eta_hat, eta_tilde) at one offset from the frame point.

    The configuration must be sampled at scale epsilon^2; with
    epsilon = sqrt(config.epsilon),

        eta_hat   = eps^(-3/2) * (frame surface at eps-scaled offset, centered)
        eta_tilde = eps^(-1)   * (frame surface at the offset itself, centered)

    Both are functions of the same sample; their limits are independent
    Gaussian fields.
    """
    eps = math.sqrt(config.epsilon)
    small = SpaceTimePoint(eps * offset.x, eps * offset.t)
    eta_hat = (frame_surface(config, frame, small)
               - limit_frame_surface(model, frame, small)) / eps ** 1.5
    eta_tilde = (frame_surface(config, frame, offset)
                 - limit_frame_surface(model, frame, offset)) / eps
    return eta_hat, eta_tilde
