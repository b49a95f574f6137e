"""Finite-dimensional sampling of the limiting multitime Brownian field.

The limit field is the centered Gaussian field whose covariance is built
from the crossing-moment distance d(a, b) = mu_2(ab):

    Cov(eta(p_i), eta(p_j)) = (d(o,p_i) + d(o,p_j) - d(p_i,p_j)) / 2.

Distances are taken in the model passed in, a base model or its frozen
frame (:class:`hrfl.intensity.FrozenModel`); the translated frame's
distances are the base model's between translated points.
Sampling factors the covariance by symmetric eigendecomposition with
negative eigenvalues clipped at zero, which is robust for rank-deficient
point sets containing the origin.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import ORIGIN, Segment, SpaceTimePoint
from .sampler import stream

EIG_FLOOR_REL = 1e-8


def distance(model, a: SpaceTimePoint, b: SpaceTimePoint) -> float:
    """The crossing-moment distance mu_2(ab)."""
    return model.moment_on_crossing(2, Segment(a, b), "both")


def covariance_matrix(model, points: Sequence[SpaceTimePoint]) -> np.ndarray:
    """Covariance of the limit field of the model at distinct points."""
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
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


def sample_field(model, points: Sequence[SpaceTimePoint], n_samples: int, seed: int,
                 stream_key: tuple[int, ...] = ()) -> np.ndarray:
    """Zero-mean Gaussian samples of the limit field; (n_samples, n_points)."""
    cov = covariance_matrix(model, points)
    fac = _factor(cov)
    rng = stream(seed, *stream_key)
    z = rng.standard_normal((n_samples, cov.shape[0]))
    return z @ fac.T


def samples_to_csv(samples: np.ndarray, points: Sequence[SpaceTimePoint], path) -> None:
    from .reporting import write_csv
    header = tuple(f"p{i}_x{p.x}_t{p.t}" for i, p in enumerate(points))
    write_csv(path, header, samples)
