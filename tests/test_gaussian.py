import numpy as np
import pytest

from hrfl.gaussian import covariance_matrix, distance
from hrfl.geometry import ORIGIN, Segment, SpaceTimePoint
from hrfl.hydro import phase_moment
from hrfl.intensity import QuadratureError


def pt(x, t):
    return SpaceTimePoint(x, t)


def test_single_point_origin(reference_model):
    cov = covariance_matrix(reference_model, (ORIGIN,))
    assert cov.shape == (1, 1) and cov[0, 0] == 0.0


def test_nested_vertical_points(reference_model):
    cov = covariance_matrix(reference_model, (pt(0, 1), pt(0, 2)))
    assert cov == pytest.approx(np.array([[0.5, 0.5], [0.5, 1.0]]), abs=1e-9)


def test_horizontal_points(reference_model):
    cov = covariance_matrix(reference_model, (pt(1, 0), pt(2, 0)))
    assert cov == pytest.approx(np.array([[1.0, 1.0], [1.0, 2.0]]), abs=1e-9)


def test_matrix_matches_intersection_moments(reference_model, rng):
    pts = tuple(pt(*rng.uniform(-1.5, 1.5, 2)) for _ in range(3))
    cov = covariance_matrix(reference_model, pts)
    for i in range(3):
        for j in range(3):
            inter = reference_model.moment_intersection(
                2, Segment(ORIGIN, pts[i]), Segment(ORIGIN, pts[j]))
            assert cov[i, j] == pytest.approx(inter, abs=1e-8)


def test_psd_and_symmetry(reference_model, rng):
    pts = tuple(pt(*rng.uniform(-2, 2, 2)) for _ in range(6))
    cov = covariance_matrix(reference_model, pts)
    assert np.allclose(cov, cov.T)
    w = np.linalg.eigvalsh(cov)
    assert w.min() >= -1e-8 * np.trace(cov)


def test_distances_that_form_no_covariance_are_a_quadrature_error(reference_model, monkeypatch):
    # d(o, p) = 1 for both points but d(p1, p2) = 10 breaks the triangle
    # inequality: the matrix [[1, -4], [-4, 1]] has eigenvalue -3
    monkeypatch.setattr("hrfl.gaussian.distance",
                        lambda model, a, b: 1.0 if ORIGIN in (a, b) else 10.0)
    with pytest.raises(QuadratureError, match="not PSD"):
        covariance_matrix(reference_model, (pt(0, 1), pt(1, 0)))


def test_line_marginal_has_independent_increments(reference_model):
    # increments of the marginal along a straight line over disjoint
    # parameter intervals are uncorrelated, like Brownian motion: no line
    # crosses both segments
    x0, v = 0.2, 0.7
    times = (0.0, 0.5, 1.0, 1.5)
    pts = tuple(pt(x0 + v * t, t) for t in times)
    cov = covariance_matrix(reference_model, pts)
    assert abs(cov[1, 3] - cov[1, 2] - cov[0, 3] + cov[0, 2]) < 1e-9
    # and the increment variance is the segment distance
    d = distance(reference_model, pts[0], pts[1])
    assert cov[1, 1] - 2.0 * cov[0, 1] + cov[0, 0] == pytest.approx(d, rel=1e-12, abs=1e-12)


def test_difference_covariance_identity(reference_model, rng):
    # Cov(eta(b)-eta(a), eta(bt)-eta(at)) =
    #   (d(at,b) + d(a,bt) - d(a,at) - d(b,bt)) / 2
    for _ in range(10):
        a, b, at, bt = (pt(*rng.uniform(-1.5, 1.5, 2)) for _ in range(4))
        pts = (a, b, at, bt)
        cov = covariance_matrix(reference_model, pts)
        lhs = cov[1, 3] - cov[1, 2] - cov[0, 3] + cov[0, 2]
        d = lambda p, q: distance(reference_model, p, q)
        rhs = 0.5 * (d(at, b) + d(a, bt) - d(a, at) - d(b, bt))
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_frame_modes(reference_model):
    # homogeneous base: the distances between translated points, and the
    # frozen frame's |a| times its m_2 phase moment, coincide with the base
    pts = (pt(0, 1), pt(1, 0))
    frame = pt(0.4, -0.3)
    base = covariance_matrix(reference_model, pts)
    for i, p in enumerate(pts):
        translated = distance(reference_model, frame, frame.translated(p.x, p.t))
        assert translated == pytest.approx(base[i, i], abs=1e-8)
    for a in (1.0, -1.5):
        frozen = abs(a) * phase_moment(reference_model, frame.x, frame.t, mark_power=2)
        assert frozen == pytest.approx(distance(reference_model, ORIGIN, pt(a, 0)))


def test_points_must_be_distinct(reference_model):
    with pytest.raises(ValueError, match="distinct"):
        covariance_matrix(reference_model, (pt(0, 1), pt(0, 1)))
