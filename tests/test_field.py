import math

import numpy as np
import pytest

from hrfl.field import (
    frame_surface,
    limit_field,
    limit_field_difference,
    walk_field,
    walk_field_difference,
)
from hrfl.gaussian import distance
from hrfl.geometry import ORIGIN, Segment, SpaceTimePoint
from hrfl.hydro import empirical_mass
from hrfl.intensity import (
    ConstantDensity,
    ConstantMark,
    IntensityModel,
    ProductKernel,
    UniformVelocity,
)
from hrfl.sampler import (
    ObservationRegion,
    SampledConfiguration,
    sample,
    stream,
)

from crossings import crossing_indices


def make_config(x, v, r, epsilon=1.0, halfwidth=20.0):
    x = np.asarray(x, dtype=float)
    region = ObservationRegion((-halfwidth, halfwidth), (-halfwidth, halfwidth))
    return SampledConfiguration(x, np.asarray(v, dtype=float),
                                np.asarray(r, dtype=float), epsilon, region)


def random_config(rng, n=60, halfwidth=20.0, signed_marks=False):
    lo = -0.5 if signed_marks else 0.05
    return make_config(rng.uniform(-halfwidth, halfwidth, n),
                       rng.uniform(-1, 1, n),
                       rng.uniform(lo, 0.5, n), halfwidth=halfwidth)


def mandelbrot_field(config, b):
    """Crossing-count variant: steps +r across every line of the segment ob.

    Test-only helper; unlike the walk field its differences are not
    translation covariant.
    """
    sa = config.x <= 0.0
    sb = config.x + b.t * config.v <= b.x
    return config.epsilon * float(np.sum(config.r[sa != sb]))


def test_field_zero_at_origin(rng):
    cfg = random_config(rng)
    assert walk_field(cfg, ORIGIN) == 0.0


def test_single_point_examples():
    cfg = make_config([0.5], [0.0], [1.0])
    b = SpaceTimePoint(1.0, 0.0)
    assert walk_field(cfg, b) == 1.0
    a = SpaceTimePoint(0.7, 0.0)
    # both o-a and o-b cross the line with the same orientation
    assert walk_field(cfg, b) - walk_field(cfg, a) == 0.0
    assert walk_field_difference(cfg, a, b) == 0.0


def test_outside_region_rejected(rng):
    cfg = random_config(rng, halfwidth=5.0)
    with pytest.raises(ValueError, match="outside"):
        walk_field(cfg, SpaceTimePoint(100.0, 0.0))


def test_crossing_decomposition(rng):
    # H(b) - H(a) equals the signed crossing sum of segment ab
    for _ in range(100):
        cfg = random_config(rng, signed_marks=True)
        a = SpaceTimePoint(*rng.uniform(-10, 10, 2))
        b = SpaceTimePoint(*rng.uniform(-10, 10, 2))
        lhs = walk_field(cfg, b) - walk_field(cfg, a)
        rhs = walk_field_difference(cfg, a, b)
        scale = max(1.0, cfg.epsilon * float(np.abs(cfg.r).sum()))
        assert abs(lhs - rhs) <= 1e-12 * scale


def brute_right(config, i, p):
    """Closed-right convention, line by line: line i is right of p iff its
    position at time p.t is <= p.x."""
    return float(config.x[i]) + p.t * float(config.v[i]) <= p.x


def brute_difference(config, a, b):
    return config.epsilon * math.fsum(
        float(config.r[i]) * (brute_right(config, i, b) - brute_right(config, i, a))
        for i in range(config.n))


def brute_mass(config, z, t):
    """Half-open convention: +r on [0, z), -r on [z, 0)."""
    terms = []
    for i in range(config.n):
        pos, r = float(config.x[i]) + float(config.v[i]) * t, float(config.r[i])
        terms.append(r if 0.0 <= pos < z else -r if z <= pos < 0.0 else 0.0)
    return config.epsilon * math.fsum(terms)


def config_on_thresholds(rng, marks, n=200):
    """A configuration (cfg, a, b, z, t) with lines exactly on the thresholds:
    line 0 through the origin, lines 1 and 2 through b and a, and at time t
    line 3 at position 0 and line 4 at position z."""
    x, v = rng.uniform(-10, 10, n), rng.uniform(-1, 1, n)
    s, t = float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8))
    x[0] = 0.0
    b = SpaceTimePoint(float(x[1] + s * v[1]), s)
    a = SpaceTimePoint(float(x[2] + s * v[2]), s)
    x[3] = -v[3] * t
    z = float(x[4] + v[4] * t)
    return make_config(x, v, marks(n), epsilon=0.01), a, b, z, t


def test_signed_sums_match_brute_force_on_thresholds(rng):
    for _ in range(40):
        cfg, a, b, z, t = config_on_thresholds(rng, lambda n: rng.uniform(0.1, 1.0, n))
        tol = 1e-12 * cfg.epsilon * float(np.abs(cfg.r).sum())
        assert abs(walk_field(cfg, b) - brute_difference(cfg, ORIGIN, b)) <= tol
        assert abs(walk_field(cfg, a) - brute_difference(cfg, ORIGIN, a)) <= tol
        assert abs(walk_field_difference(cfg, a, b) - brute_difference(cfg, a, b)) <= tol
        for zz in (z, -abs(z), 0.0, abs(z)):
            assert abs(empirical_mass(cfg, zz, t) - brute_mass(cfg, zz, t)) <= tol
        assert empirical_mass(cfg, 0.0, t) == 0.0


def test_integer_mark_sums_equal_the_crossing_index_sums(rng):
    def reference(cfg, a, b):
        plus, minus = crossing_indices(cfg, Segment(a, b))
        return cfg.epsilon * (float(np.sum(cfg.r[plus])) - float(np.sum(cfg.r[minus])))

    for _ in range(40):
        cfg, a, b, z, t = config_on_thresholds(
            rng, lambda n: rng.integers(-3, 4, n).astype(float))
        assert walk_field(cfg, b) == reference(cfg, ORIGIN, b)
        assert walk_field_difference(cfg, a, b) == reference(cfg, a, b)
        for zz in (z, -abs(z), 0.0, abs(z)):
            assert empirical_mass(cfg, zz, t) == brute_mass(cfg, zz, t)


def test_translation_covariance_of_differences(rng):
    for _ in range(50):
        cfg = random_config(rng, n=40)
        a = SpaceTimePoint(*rng.uniform(-8, 8, 2))
        b = SpaceTimePoint(*rng.uniform(-8, 8, 2))
        c = rng.uniform(-5, 5)
        shifted = make_config(cfg.x + c, cfg.v, cfg.r)
        base = walk_field_difference(cfg, a, b)
        moved = walk_field_difference(shifted, SpaceTimePoint(a.x + c, a.t),
                                      SpaceTimePoint(b.x + c, b.t))
        assert moved == pytest.approx(base, abs=1e-12)


def test_mandelbrot_variant_not_translation_covariant():
    # single line at x=1: crossing-count differences change when the whole
    # picture is shifted across the origin, walk-field differences do not
    cfg = make_config([1.0], [0.0], [1.0])
    a, b = SpaceTimePoint(0.5, 0.0), SpaceTimePoint(1.5, 0.0)
    d0 = mandelbrot_field(cfg, b) - mandelbrot_field(cfg, a)
    c = -2.0
    shifted = make_config([1.0 + c], [0.0], [1.0])
    d1 = (mandelbrot_field(shifted, SpaceTimePoint(b.x + c, 0.0))
          - mandelbrot_field(shifted, SpaceTimePoint(a.x + c, 0.0)))
    assert d0 != d1
    h0 = walk_field_difference(cfg, a, b)
    h1 = walk_field_difference(shifted, SpaceTimePoint(a.x + c, 0.0),
                               SpaceTimePoint(b.x + c, 0.0))
    assert h0 == h1


def test_grid_dump_shape(reference_model, tmp_path):
    from hrfl.cli import run_sample_field
    region = ObservationRegion((-5.0, 5.0), (-2.0, 2.0))
    grid = {"x": [-5.0, 5.0, 7], "t": [-2.0, 2.0, 5]}
    run_sample_field("sample-field", reference_model, 4, tmp_path, 0.5,
                     region, grid)
    rows = np.loadtxt(tmp_path / "surface.csv", delimiter=",", skiprows=1)
    grid_values = rows[:, 2].reshape(5, 7)
    assert grid_values.shape == (5, 7)
    cfg = sample(reference_model, 0.5, region, 4)
    xs = np.linspace(-5, 5, 7)
    ts = np.linspace(-2, 2, 5)
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            assert rows[i * 7 + j, 0] == x and rows[i * 7 + j, 1] == t
            assert grid_values[i, j] == walk_field(cfg, SpaceTimePoint(float(x), float(t)))


def test_marginal_generator_jumps(rng):
    # along the line (x0, v0), the height jumps exactly at crossings with the
    # other lines: +r for slower lines, -r for faster ones
    cfg = make_config([-1.0, 2.0, 0.3], [0.5, -0.8, 0.1], [0.3, 0.7, 0.2],
                      halfwidth=50.0)
    x0, v0 = 0.0, 1.0
    for j in range(3):
        w, xj, rj = cfg.v[j], cfg.x[j], cfg.r[j]
        tau = (xj - x0) / (v0 - w)
        before = walk_field(cfg, SpaceTimePoint(x0 + v0 * (tau - 1e-9), tau - 1e-9))
        after = walk_field(cfg, SpaceTimePoint(x0 + v0 * (tau + 1e-9), tau + 1e-9))
        want = rj if w < v0 else -rj
        assert after - before == pytest.approx(want, abs=1e-12)


def test_limit_field_examples(reference_model):
    assert limit_field(reference_model, ORIGIN) == 0.0
    # symmetric velocity law: vertical segments balance
    assert limit_field(reference_model, SpaceTimePoint(0.0, 1.7)) == pytest.approx(
        0.0, abs=1e-10)
    # horizontal segment: all crossings oriented the same way
    assert limit_field(reference_model, SpaceTimePoint(2.5, 0.0)) == pytest.approx(
        2.5, abs=1e-9)


def test_limit_field_against_mc(reference_model):
    b = SpaceTimePoint(0.8, 0.9)
    region = ObservationRegion((0.0, 1.0), (0.0, 1.0))
    eps = 1e-3
    vals = [walk_field(sample(reference_model, eps, region, 3, (i,)), b)
            for i in range(200)]
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert np.mean(vals) == pytest.approx(limit_field(reference_model, b),
                                          abs=4 * se)


def test_euler_fluctuation_centered_with_limit_variance(reference_model):
    b = SpaceTimePoint(0.0, 1.0)
    region = ObservationRegion((0.0, 1.0), (0.0, 1.0))
    eps, M = 1e-2, 3000
    limit = limit_field(reference_model, b)
    # the Euler fluctuation (H_sample - H_limit) / sqrt(eps), as the battery forms it
    vals = np.array([
        (walk_field(sample(reference_model, eps, region, 11, (i,)), b) - limit)
        / math.sqrt(eps)
        for i in range(M)])
    se_mean = vals.std(ddof=1) / math.sqrt(M)
    assert vals.mean() == pytest.approx(0.0, abs=4 * se_mean)
    var = vals.var(ddof=1)
    target = distance(reference_model, ORIGIN, b)  # = 1/2
    se_var = np.std((vals - vals.mean()) ** 2, ddof=1) / math.sqrt(M)
    assert var == pytest.approx(target, abs=4 * se_var)


def test_diffusive_fluctuations_vanish_at_frame(reference_model):
    region = ObservationRegion((-1.0, 1.0), (-1.0, 1.0))
    cfg = sample(reference_model, 1e-2, region, 2)
    frame = SpaceTimePoint(0.3, 0.2)
    assert frame_surface(cfg, frame, ORIGIN) == 0.0
    assert limit_field_difference(reference_model, frame, frame) == 0.0


def test_diffusive_hat_variance(reference_model):
    # Var eta_hat(x, 0) = |x| for the homogeneous unit model
    region = ObservationRegion((-1.5, 1.5), (0.0, 0.5))
    eps, M, x = 0.05, 2000, 1.0
    frame = SpaceTimePoint(0.0, 0.25)
    # eta_hat: the centered frame surface at the eps-scaled offset, over eps^(3/2)
    small = SpaceTimePoint(eps * x, 0.0)
    limit = limit_field_difference(reference_model, frame, frame.translated(small.x, small.t))
    vals = np.array([
        (frame_surface(sample(reference_model, eps**2, region, 21, (i,)), frame, small)
         - limit) / eps ** 1.5
        for i in range(M)])
    var = vals.var(ddof=1)
    se = np.std((vals - vals.mean()) ** 2, ddof=1) / math.sqrt(M)
    assert var == pytest.approx(abs(x), abs=4 * se)
