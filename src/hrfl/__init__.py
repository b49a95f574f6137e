"""Marked Poisson line processes, multitime walk fields and hard-rod dynamics.

The package simulates Poisson processes of ballistic lines in the space-time
plane, evaluates the random surfaces they generate, runs hard-rod dynamics
through three routes (surface, event and tagged frame), and verifies the
associated scaling limits (law of large numbers, Euler and diffusive
fluctuations, hydrodynamic PDE residuals) by Monte Carlo statistics and
finite differences.
"""

from . import field, gaussian, hardrod, hydro, stats
from .geometry import Segment, SpaceTimePoint
from .intensity import (
    ConstantDensity,
    ConstantMark,
    DiscreteKernel,
    GaussianVelocity,
    IntensityModel,
    PiecewiseConstantDensity,
    PiecewiseKernel,
    ProductKernel,
    QuadratureError,
    SmoothDensity,
    UniformMark,
    UniformVelocity,
)
from .sampler import ObservationRegion, SampledConfiguration, sample, stream

__all__ = [
    "field",
    "gaussian",
    "hardrod",
    "hydro",
    "stats",
    "Segment",
    "SpaceTimePoint",
    "ConstantDensity",
    "ConstantMark",
    "DiscreteKernel",
    "GaussianVelocity",
    "IntensityModel",
    "PiecewiseConstantDensity",
    "PiecewiseKernel",
    "ProductKernel",
    "QuadratureError",
    "SmoothDensity",
    "UniformMark",
    "UniformVelocity",
    "ObservationRegion",
    "SampledConfiguration",
    "sample",
    "stream",
]

__version__ = "0.1.0"
