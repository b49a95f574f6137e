"""Poisson sampling of marked line processes on finite windows.

A sample at scale epsilon is a Poisson process with intensity
``(1/epsilon) * mu`` restricted to a sampling window in the intercept
coordinate.  The window is chosen large enough that every line able to
cross a declared observation region, or to pass between the region and
the origin, is included: with maximal speed V and T = max(|t_lo|, |t_hi|),
intercepts range over ``[min(x_lo, 0) - V*T, max(x_hi, 0) + V*T]`` (plus a
tiny relative inflation against boundary clipping).

Randomness comes from counter-based Philox streams keyed by
``(seed, *stream_key)``, so replicas are reproducible and independent
regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intensity import IntensityModel

COUNT_CAP = 1e8
WINDOW_INFLATION = 1e-9


class SampleSizeError(ValueError):
    """The expected number of points exceeds COUNT_CAP."""


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent reproducible generator for the given (seed, key) path."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(key))))


@dataclass(frozen=True)
class ObservationRegion:
    """Axis-aligned space-time box inside which fields may be evaluated."""

    x_range: tuple[float, float]
    t_range: tuple[float, float]

    def __post_init__(self) -> None:
        xlo, xhi = self.x_range
        tlo, thi = self.t_range
        if not all(map(math.isfinite, (xlo, xhi, tlo, thi))):
            raise ValueError("region bounds must be finite")
        if xhi < xlo or thi < tlo:
            raise ValueError("region ranges must be nonempty")

    def contains(self, x: float, t: float) -> bool:
        return (self.x_range[0] <= x <= self.x_range[1]
                and self.t_range[0] <= t <= self.t_range[1])

    def window_x(self, max_speed: float) -> tuple[float, float]:
        """Intercepts of every line that can separate a region point from the
        origin: the surface counts all of them, and rod positions are
        measured from 0."""
        tmax = max(abs(self.t_range[0]), abs(self.t_range[1]))
        lo = min(self.x_range[0], 0.0) - max_speed * tmax
        hi = max(self.x_range[1], 0.0) + max_speed * tmax
        pad = WINDOW_INFLATION * (hi - lo + 1.0)
        return lo - pad, hi + pad


@dataclass
class SampledConfiguration:
    """One Poisson sample: phase points, scale and observation region."""

    x: np.ndarray
    v: np.ndarray
    r: np.ndarray
    epsilon: float
    region: ObservationRegion

    def __post_init__(self) -> None:
        for arr in (self.x, self.v, self.r):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.x)


def sample(model: IntensityModel, epsilon: float, region: ObservationRegion,
           seed: int, stream_key: tuple[int, ...] = ()) -> SampledConfiguration:
    """Draw a Poisson configuration with intensity mu/epsilon on the window.

    The total count is Poisson with mean ``window mass / epsilon`` and the
    points are i.i.d. with the mu-normalized law; the draw is a pure
    function of ``(seed, stream_key)``.
    """
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError("epsilon must be positive and finite")
    lo, hi = region.window_x(model.max_speed)
    mean_count = model.rho.integral(lo, hi) / epsilon
    if mean_count > COUNT_CAP:
        raise SampleSizeError(
            f"expected count {mean_count:.3e} exceeds cap {COUNT_CAP:.0e}; "
            "increase epsilon or shrink the observation region")
    rng = stream(seed, *stream_key)
    n = int(rng.poisson(mean_count))
    xs = model.rho.sample(rng, n, lo, hi)
    vs, rs = model.kernel.sample(rng, xs)
    return SampledConfiguration(np.asarray(xs, dtype=float),
                                np.asarray(vs, dtype=float),
                                np.asarray(rs, dtype=float),
                                float(epsilon), region)

