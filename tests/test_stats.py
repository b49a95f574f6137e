import json
import math
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from hrfl import hydro
from hrfl.field import frame_surface, limit_field, limit_field_difference, walk_field
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
    _region_for_points,
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


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_map_ordered_runs_in_order_on_calling_thread(threads):
    # a pool would call fn off the calling thread, or out of index order
    calls = []

    def fn(i):
        calls.append((i, threading.get_ident()))
        return -i

    out = _map_ordered(fn, 12, threads)
    assert calls == [(i, threading.get_ident()) for i in range(12)]
    assert out == [-i for i in range(12)]


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


def test_euler_battery_columns_are_the_direct_field_and_mass_values(reference_model):
    # each statistic's mean, recomputed from walk_field and empirical_mass
    # calls on the battery's own samples, keeps every bit
    pts = [SpaceTimePoint(0, 1), SpaceTimePoint(1, 0)]
    (qx, qv, qt), (mx, mt) = (0.5, 0.5, 1.0), (1.0, 0.5)
    eps, M, seed = 0.05, 5, 4
    rep = euler_fluctuation_test(reference_model, pts, eps, M, seed,
                                 quasiparticle=(qx, qv, qt), mass_point=(mx, mt))
    b_t, b_0 = SpaceTimePoint(qx + qv * qt, qt), SpaceTimePoint(qx, 0.0)
    field_pts = pts + [b_t, b_0]
    region = _region_for_points(reference_model,
                                field_pts + [SpaceTimePoint(mx, mt), SpaceTimePoint(0.0, mt)])
    limits = [limit_field(reference_model, p) for p in field_pts]
    m_lim = hydro.limit_mass(reference_model, mx, mt)
    cols, mass = [], []
    for i in range(M):
        cfg = sample(reference_model, eps, region, seed, stream_key=(0, i))
        cols.append([(walk_field(cfg, p) - lim) / math.sqrt(eps)
                     for p, lim in zip(field_pts, limits)])
        mass.append((hydro.empirical_mass(cfg, mx, mt) - m_lim) / math.sqrt(eps))
    h0, h1, eta_t, eta_0 = np.array(cols).T
    mass = np.array(mass)
    cov = lambda a, b: covariance_statistic("", a, b, 0.0).mean
    mean = lambda a: mean_statistic("", a, 0.0).mean
    inc = eta_t - eta_0
    want = [cov(h0, h0), cov(h0, h1), cov(h1, h1), cov(eta_t, eta_t), cov(inc, inc),
            mean(eta_t), cov(mass, mass), mean(mass)]
    assert [s.name for s in rep.statistics] == [
        "cov[0,0]", "cov[0,1]", "cov[1,1]", "quasiparticle_var", "quasiparticle_increment_var",
        "quasiparticle_mean", "mass_var", "mass_mean"]
    assert [s.mean for s in rep.statistics] == want



def test_lln_rms_are_the_direct_field_and_mass_values(reference_model):
    # each epsilon's surface and mass RMS, recomputed from walk_field and
    # empirical_mass calls on the battery's own samples, keeps every bit
    b, (mz, mt) = SpaceTimePoint(0.5, 1.0), (1.0, 0.5)
    epsilons, M, seed = [0.1, 0.02], 5, 6
    rep = lln_test(reference_model, epsilons, M, seed, point=(b.x, b.t), mass_point=(mz, mt))
    region = _region_for_points(reference_model,
                                [b, SpaceTimePoint(mz, mt), SpaceTimePoint(0.0, mt)])
    h_lim, m_lim = limit_field(reference_model, b), hydro.limit_mass(reference_model, mz, mt)
    rms = lambda d: float(np.sqrt(np.mean(np.array(d) ** 2)))
    want_h, want_m = [], []
    for e, eps in enumerate(sorted(epsilons)):
        cfgs = [sample(reference_model, eps, region, seed, stream_key=(e, i)) for i in range(M)]
        want_h.append(rms([walk_field(cfg, b) - h_lim for cfg in cfgs]))
        want_m.append(rms([hydro.empirical_mass(cfg, mz, mt) - m_lim for cfg in cfgs]))
    assert rep.extra["surface_rms"] == want_h
    assert rep.extra["mass_rms"] == want_m

def test_diffusive_battery_columns_are_the_direct_field_values(reference_model):
    # each statistic's mean, recomputed from walk_field and frame_surface calls
    # on the battery's own samples at streams (0, i) and (1, i), keeps every bit
    eps, M, seed, t = 0.1, 5, 3, 1.0
    frame, offsets = SpaceTimePoint(0.3, 0.2), [(1.0, -1.0), (-1.5, 1.5)]
    (v_s, x1, x2), (v_a, v_b), (zx, zv) = (0.5, -0.4, -0.2), (0.3, 0.8), (-0.5, 0.4)
    rep = diffusive_test(reference_model, eps, M, seed, t=t, frame=(frame.x, frame.t),
                         same_velocity=(v_s, x1, x2), distinct_velocities=(v_a, v_b),
                         independence_offsets=offsets, zo1_start=(zx, zv))
    h = t / eps
    starts = [(x1, v_s), (x2, v_s), (zx, v_a), (zx, v_b), (zx, zv)]
    ys = [x + v * h for x, v in starts]
    ends = [SpaceTimePoint(y, h) for y in ys]
    region = _region_for_points(reference_model,
                                ends + [SpaceTimePoint(x, 0.0) for x, _ in starts])
    assert region.x_range[0] == zx          # the t = 0 starts widen part one's region
    lims = [y + limit_field(reference_model, b) for y, b in zip(ys, ends)]
    j_lim = (limit_field(reference_model, ends[4])
             - limit_field(reference_model, SpaceTimePoint(zx, 0.0)))
    quasi = []
    for i in range(M):
        cfg = sample(reference_model, eps, region, seed, stream_key=(0, i))
        y_h = [y + walk_field(cfg, b) for y, b in zip(ys, ends)]
        quasi.append([yh - lim for yh, lim in zip(y_h[:4], lims)]
                     + [y_h[4] - zv * h - j_lim])
    q = np.array(quasi)
    pairs = [(SpaceTimePoint(eps * a, 0.0), SpaceTimePoint(b, 0.0)) for a, b in offsets]
    region2 = _region_for_points(reference_model, [frame] + [frame.translated(o.x, o.t)
                                                             for pair in pairs for o in pair])
    lim2 = lambda o: limit_field_difference(reference_model, frame, frame.translated(o.x, o.t))
    fields = []
    for i in range(M):
        cfg = sample(reference_model, eps * eps, region2, seed, stream_key=(1, i))
        fields.append([v for hat, til in pairs for v in (
            (frame_surface(cfg, frame, hat) - lim2(hat)) / eps ** 1.5,
            (frame_surface(cfg, frame, til) - lim2(til)) / eps)])
    f = np.array(fields)
    cov = lambda a, b: covariance_statistic("", a, b, 0.0).mean
    want = [cov(q[:, 0], q[:, 1]), cov(q[:, 2], q[:, 3]),
            mean_statistic("", q[:, 4], 0.0).mean, cov(q[:, 4], q[:, 4])]
    for k in range(len(offsets)):
        eh, et = f[:, 2 * k], f[:, 2 * k + 1]
        want += [cov(eh, et), cov(eh, eh), cov(et, et)]
    assert [s.name for s in rep.statistics] == [
        "same_velocity_cov", "distinct_velocity_cov", "tracer_mean", "tracer_var",
        "independence_cross_cov[0]", "hat_var[0]", "tilde_var[0]",
        "independence_cross_cov[1]", "hat_var[1]", "tilde_var[1]"]
    assert [s.mean for s in rep.statistics] == want


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


TRACED_RUN = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracer
from hrfl.geometry import SpaceTimePoint
from hrfl.intensity import ConstantDensity, ConstantMark, IntensityModel, ProductKernel, \\
    UniformVelocity
from hrfl.stats import diffusive_test, euler_fluctuation_test

t = tracer.Tracer()
tracer.install(t)
model = IntensityModel(ConstantDensity(1.0),
                       ProductKernel(UniformVelocity(-1.0, 1.0), ConstantMark(1.0)))
points = [SpaceTimePoint(*p) for p in ((0, 1), (0, 2), (1, 0), (2, 0))]
euler_fluctuation_test(model, points, 0.05, 5, 1, quasiparticle=(0.5, 0.5, 1.0),
                       mass_point=(1.0, 0.5))
euler = (t.counts["field.calls"], t.counts["hydro.mass.calls"], t.counts["intensity.calls"])
diffusive_test(model, 0.05, 5, 1)
print(json.dumps({"euler": euler, "diffusive": t.counts["field.calls"] - euler[0],
                  "spot_check": tracer.spot_check(t)}))
"""


def test_benchmark_tracer_still_wraps_the_names_it_counts():
    # batterybench/tracer.py replaces hrfl functions by name; a renamed or
    # rerouted one would silently drop out of the benchmark's counts.  The
    # child process keeps the monkeypatching out of this one.
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", TRACED_RUN, str(root / "src"),
                          str(root / "batterybench")],
                         check=True, capture_output=True, text=True)
    got = json.loads(out.stdout)
    # 5 replicas of 6 field points (4 points and the tagged rod's 2 ends), 5
    # empirical masses and 1 limit mass; 21 crossing moments, one per limit
    # value (the 6 field points and the limit mass's 2) and 13 distances (10
    # for the 4-point covariance, 3 tagged-rod and mass variances); then
    # 5 x (5 tagged rods + 8 frame fields)
    assert got == {"euler": [30, 6, 21], "diffusive": 65, "spot_check": [7, 0]}
