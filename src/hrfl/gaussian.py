"""Covariance of the limiting multitime Brownian field at finitely many points.

The limit field is the centered Gaussian field whose covariance is built
from the crossing-moment distance d(a, b) = mu_2(ab):

    Cov(eta(p_i), eta(p_j)) = (d(o,p_i) + d(o,p_j) - d(p_i,p_j)) / 2.

Distances are taken in the model passed in; the translated frame's are the
base model's between translated points, the frozen frame's over an offset a
are |a| times :func:`hrfl.hydro.phase_moment` with mark_power 2.  The batteries
compare empirical covariances with this matrix, so it is checked to be
positive semidefinite within EIG_FLOOR_REL of its trace.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import ORIGIN, Segment, SpaceTimePoint
from .intensity import QuadratureError

EIG_FLOOR_REL = 1e-8


def distance(model, a: SpaceTimePoint, b: SpaceTimePoint) -> float:
    """The crossing-moment distance mu_2(ab)."""
    return model.moment_on_crossing(2, Segment(a, b), "both")


def covariance_matrix(model, points: Sequence[SpaceTimePoint]) -> np.ndarray:
    """Covariance of the limit field of the model at distinct points.

    A smallest eigenvalue below -EIG_FLOOR_REL * max(trace, 1) means the
    distances do not form a covariance, and raises QuadratureError.
    """
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
    floor = -EIG_FLOOR_REL * max(float(np.trace(cov)), 1.0)
    w_min = np.linalg.eigvalsh(cov).min(initial=0.0)
    if w_min < floor:
        raise QuadratureError(
            f"covariance not PSD within tolerance: min eigenvalue {w_min:.3e} "
            f"< {floor:.3e}")
    return cov
