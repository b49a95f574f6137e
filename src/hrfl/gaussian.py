"""Finite-dimensional sampling of the limiting multitime Brownian field.

The limit field is the centered Gaussian field whose covariance is built
from the crossing-moment distance d(a, b) = mu_2(ab):

    Cov(eta(p_i), eta(p_j)) = (d(o,p_i) + d(o,p_j) - d(p_i,p_j)) / 2.

Distances may be taken in the base model or in one of its frame variants
(frozen or translated), matching the diffusive fluctuation fields.
Sampling factors the covariance by symmetric eigendecomposition with
negative eigenvalues clipped at zero, which is robust for rank-deficient
point sets containing the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import ORIGIN, Segment, SpaceTimePoint
from .intensity import timeshifted_model
from .sampler import stream

EIG_FLOOR_REL = 1e-8

MODES = ("standard", "frozen", "tilde", "translated")


@dataclass(frozen=True)
class CovarianceSpec:
    """Points, model and frame mode defining a finite-dimensional covariance."""

    model: object
    points: tuple[SpaceTimePoint, ...]
    mode: str = "standard"
    frame: SpaceTimePoint | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode != "standard" and self.frame is None:
            raise ValueError("frame modes need a frame point (z, s)")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be distinct")

    def distance_model(self):
        if self.mode == "standard":
            return self.model
        return timeshifted_model(self.model, self.frame.x, self.frame.t,
                                 "frozen" if self.mode == "frozen" else "translated")


def distance(model, a: SpaceTimePoint, b: SpaceTimePoint) -> float:
    """The crossing-moment distance mu_2(ab)."""
    return model.moment_on_crossing(2, Segment(a, b), "both")


def covariance_matrix(spec: CovarianceSpec) -> np.ndarray:
    """Covariance of the limit field at spec.points in the chosen mode."""
    model = spec.distance_model()
    pts = spec.points
    n = len(pts)
    d_o = np.array([distance(model, ORIGIN, p) for p in pts])
    cov = np.empty((n, n))
    for i in range(n):
        cov[i, i] = d_o[i]
        for j in range(i + 1, n):
            d_ij = distance(model, pts[i], pts[j])
            cov[i, j] = cov[j, i] = 0.5 * (d_o[i] + d_o[j] - d_ij)
    return cov


def _factor(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root with negative eigenvalues clipped at zero.

    Rows belonging to exactly-zero diagonal entries (the origin) are zeroed
    so those coordinates sample to 0 exactly.
    """
    tr = float(np.trace(cov))
    w, vecs = np.linalg.eigh(cov)
    floor = -EIG_FLOOR_REL * max(tr, 1.0)
    if w.min(initial=0.0) < floor:
        raise ValueError(
            f"covariance not PSD within tolerance: min eigenvalue {w.min():.3e} "
            f"< {floor:.3e}")
    fac = vecs * np.sqrt(np.clip(w, 0.0, None))
    fac[np.diag(cov) == 0.0, :] = 0.0
    return fac


def sample_field(spec: CovarianceSpec, n_samples: int, seed: int,
                 stream_key: tuple[int, ...] = ()) -> np.ndarray:
    """Zero-mean Gaussian samples with the spec covariance; (n_samples, n_points)."""
    cov = covariance_matrix(spec)
    fac = _factor(cov)
    rng = stream(seed, *stream_key)
    z = rng.standard_normal((n_samples, cov.shape[0]))
    return z @ fac.T


def samples_to_csv(samples: np.ndarray, points: Sequence[SpaceTimePoint], path) -> None:
    from .reporting import write_csv
    header = tuple(f"p{i}_x{p.x}_t{p.t}" for i, p in enumerate(points))
    write_csv(path, header, samples)
