"""Monte Carlo experiment harness and the limit-theorem test batteries.

Replicas run on disjoint counter-based streams keyed by (seed, run, replica),
where a run is one epsilon of the Euler or LLN battery or one part of the
diffusive battery (the stationarity battery keys (seed, t index, replica,
evolved or fresh)).  They run one after another, in replica order, on the
calling thread; reductions run in that order on the collected matrix, so a
battery is a pure function of its seed.

Pass/fail uses |z| < 4 rather than 3: the batteries check many statistics
at once and the wider gate keeps the aggregate false-failure rate of a
default battery below about one percent.  Every report carries the raw
means, standard errors and targets so any other threshold can be applied
offline.  Distribution comparisons use two-sample Kolmogorov-Smirnov at
level 1e-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hardrod, hydro
from .field import frame_surface, limit_field, limit_field_difference, walk_field
from .gaussian import covariance_matrix, distance
from .geometry import ORIGIN, Segment, SpaceTimePoint
from .sampler import ObservationRegion, sample

Z_THRESHOLD = 4.0
KS_LEVEL = 1e-3
LLN_SLOPE_BAND = (0.4, 0.6)
# L2 ratios of successive ghd-residual grid levels, around the second-order 4
GHD_RATIO_BAND = (3.2, 4.8)


class HorizonError(ValueError):
    """A horizon t/epsilon, a point or a sampling window is not finite, epsilon^2 is not
    finite and > 0, or a core holds no rod."""


@dataclass
class StatisticResult:
    name: str
    mean: float
    se: float
    target: float
    z: float

    @property
    def passed(self) -> bool:
        # a NaN z is undefined and not gated; an infinite z misses its target
        return math.isnan(self.z) or abs(self.z) < Z_THRESHOLD

    def to_dict(self) -> dict:
        return {"name": self.name, "mean": self.mean, "se": self.se,
                "target": self.target, "z": self.z}


@dataclass
class ExperimentReport:
    experiment: str
    model: dict
    epsilon: object
    replicas: int
    seed: int
    statistics: list[StatisticResult]
    extra: dict = field(default_factory=dict)
    verdict: bool = True

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "model": self.model,
            "epsilon": self.epsilon,
            "M": self.replicas,
            "seed": self.seed,
            "statistics": [s.to_dict() for s in self.statistics],
            "extra": self.extra,
            "verdict": "pass" if self.verdict else "fail",
        }

    def max_abs_z(self) -> float:
        return _max_abs_z(self.statistics)


def _max_abs_z(statistics) -> float:
    """The largest |z|: an infinite z counts, an undefined (NaN) one does not."""
    return max((abs(s.z) for s in statistics if not math.isnan(s.z)), default=0.0)


def _map_ordered(fn, M: int, threads: int):
    """[fn(0), ..., fn(M - 1)], called in that order on the calling thread.

    threads has no effect: threads contending for the GIL ran replicas
    slower than one thread does.  It stays because batterybench/tracer.py
    swaps this function by name for traced_map(fn, M, threads).
    """
    return [fn(i) for i in range(M)]


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def mean_statistic(name: str, values: np.ndarray, target: float) -> StatisticResult:
    M = len(values)
    mean = float(np.mean(values))
    if M < 2:
        return StatisticResult(name, mean, math.nan, target, math.nan)
    se = float(np.std(values, ddof=1) / math.sqrt(M))
    z = (mean - target) / se if se > 0 else (0.0 if mean == target else math.inf)
    return StatisticResult(name, mean, se, target, z)


def covariance_statistic(name: str, a: np.ndarray, b: np.ndarray,
                         target: float) -> StatisticResult:
    """Sample covariance with the M-1 normalization and a product-based se."""
    M = len(a)
    ca, cb = a - a.mean(), b - b.mean()
    prods = ca * cb
    cov = float(np.sum(prods) / (M - 1))
    se = float(np.std(prods, ddof=1) / math.sqrt(M))
    z = (cov - target) / se if se > 0 else (0.0 if cov == target else math.inf)
    return StatisticResult(name, cov, se, target, z)


def _region_for_points(model, points) -> ObservationRegion:
    """The box around the points and the origin, whose sampling window and its width are finite."""
    xs = [p.x for p in points] + [0.0]
    ts = [p.t for p in points] + [0.0]
    region = ObservationRegion((min(xs), max(xs)), (min(ts), max(ts)))
    lo, hi = region.window_x(model.max_speed)
    if not math.isfinite(hi - lo):
        raise HorizonError(f"the sampling window [{lo!r}, {hi!r}] around the points "
                           "and its width must be finite")
    return region


def _replica_deviations(model, runs, M: int, seed: int) -> list:
    """Per run (eps, region, values, limits), the M x k matrix of values(cfg) - limits,
    where cfg is replica i of the e-th run, sampled at eps on stream (e, i)."""
    def matrix(e_idx, eps, region, values, limits):
        rows = _map_ordered(lambda i: values(sample(model, eps, region, seed,
                                                    stream_key=(e_idx, i))), M, threads=1)
        return np.asarray(rows) - limits

    return [matrix(e_idx, *run) for e_idx, run in enumerate(runs)]


def _deviations(model, field_pts, mass_point, eps_list, M: int, seed: int) -> list:
    """Per epsilon, the M x k replica matrix of H(b) - H_limit(b) at each field point b,
    then of the empirical minus the limit mass at mass_point (z, t) if one is given."""
    mass = [] if mass_point is None else [mass_point]
    ends = [SpaceTimePoint(x, t) for z, t in mass for x in (z, 0.0)]
    region = _region_for_points(model, [*field_pts, *ends])
    limits = ([limit_field(model, p) for p in field_pts]
              + [hydro.limit_mass(model, *m) for m in mass])
    values = lambda cfg: ([walk_field(cfg, p) for p in field_pts]
                          + [hydro.empirical_mass(cfg, *m) for m in mass])
    return _replica_deviations(model, [(eps, region, values, limits) for eps in eps_list],
                               M, seed)


# ---------------------------------------------------------------------------
# Euler-scale battery
# ---------------------------------------------------------------------------

def euler_fluctuation_test(model, points, epsilon: float, M: int, seed: int,
                           quasiparticle: tuple[float, float, float] | None = None,
                           mass_point: tuple[float, float] | None = None,
                           epsilons: tuple[float, ...] | None = None) -> ExperimentReport:
    """Covariance matching of the centered, sqrt(eps)-scaled fluctuations.

    The core battery compares the empirical covariance matrix of the
    fluctuation field at the given points with the limit covariance.
    Optionally the tagged-rod fluctuation at (x, v, t) is checked against
    both its absolute and incremental variance targets, and the mass
    fluctuation at (x, t) against its segment variance.  When several
    epsilon values are given the battery runs at each and additionally
    requires the worst |z| not to degrade as epsilon decreases, guarding
    against finite-scale bias masquerading as noise.  The epsilons run in
    descending order whatever order they are given in, so the guard always
    compares the smallest epsilon against the largest.
    """
    points = tuple(points)
    eps_list = tuple(sorted(epsilons, reverse=True)) if epsilons else (epsilon,)
    # the surface points, then the tagged rod's ends b_t and b_0
    field_pts = list(points)
    if quasiparticle is not None:
        qx, qv, qt = quasiparticle
        b_t, b_0 = SpaceTimePoint(qx + qv * qt, qt), SpaceTimePoint(qx, 0.0)
        field_pts += [b_t, b_0]
    deviations = _deviations(model, field_pts, mass_point, eps_list, M, seed)
    targets = covariance_matrix(model, points)
    all_stats: list[StatisticResult] = []
    max_z_by_eps = []
    for eps, dev in zip(eps_list, deviations):
        matrix = dev / math.sqrt(eps)
        tag = f"eps={eps:g}/" if len(eps_list) > 1 else ""
        npts = len(points)
        stats = [covariance_statistic(f"{tag}cov[{i},{j}]", matrix[:, i], matrix[:, j],
                                      float(targets[i, j]))
                 for i in range(npts) for j in range(i, npts)]
        col = npts
        if quasiparticle is not None:
            # the increment eta(b_t) - eta(b_0) takes the place of eta(b_0)
            matrix[:, col + 1] = matrix[:, col] - matrix[:, col + 1]
            var_abs = distance(model, ORIGIN, b_t)
            var_inc = distance(model, b_0, b_t)
            stats.append(covariance_statistic(
                f"{tag}quasiparticle_var", matrix[:, col], matrix[:, col], var_abs))
            stats.append(covariance_statistic(
                f"{tag}quasiparticle_increment_var",
                matrix[:, col + 1], matrix[:, col + 1], var_inc))
            stats.append(mean_statistic(
                f"{tag}quasiparticle_mean", matrix[:, col], 0.0))
            col += 2
        if mass_point is not None:
            var_mass = distance(model, SpaceTimePoint(0.0, mass_point[1]),
                                SpaceTimePoint(*mass_point))
            stats.append(covariance_statistic(
                f"{tag}mass_var", matrix[:, col], matrix[:, col], var_mass))
            stats.append(mean_statistic(f"{tag}mass_mean", matrix[:, col], 0.0))
        all_stats.extend(stats)
        max_z_by_eps.append(_max_abs_z(stats))

    verdict = all(s.passed for s in all_stats)
    extra = {"points": [[p.x, p.t] for p in points],
             "target_covariance": targets,
             "max_abs_z_by_epsilon": max_z_by_eps}
    if len(eps_list) > 1:
        degraded = max_z_by_eps[-1] > max_z_by_eps[0] + 1.0
        extra["bias_guard_degraded"] = degraded
        verdict = verdict and not degraded
    return ExperimentReport("euler-clt", model.summary(), list(eps_list)
                            if len(eps_list) > 1 else eps_list[0],
                            M, seed, all_stats, extra, verdict)


# ---------------------------------------------------------------------------
# diffusive battery
# ---------------------------------------------------------------------------

def diffusive_test(model, epsilon: float, M: int, seed: int, t: float = 1.0,
                   frame: tuple[float, float] = (0.0, 0.0),
                   same_velocity: tuple[float, float, float] = (0.0, 0.0, 0.5),
                   distinct_velocities: tuple[float, float] = (0.0, 1.0),
                   independence_offsets=((1.0, -1.0), (1.5, -1.5),
                                         (-1.0, 1.0), (-1.5, 1.5)),
                   zo1_start: tuple[float, float] = (0.3, 0.0)) -> ExperimentReport:
    """Diffusive-regime battery: tagged-rod covariances and field independence.

    Part one samples at scale epsilon and runs tagged rods to the long
    horizon t/epsilon: same-velocity pairs must decorrelate to the single
    variance mu_2(o b_t) with b_t = (v t, t); distinct velocities to the
    intersection moment; the recentered tracer position must match its
    limiting mean and variance.  Part two samples at scale epsilon^2 and
    checks that the locally-rescaled and frame-scale fluctuation fields are
    empirically uncorrelated at pairs of opposite-side horizontal offsets,
    where the limiting independence is exact at finite scale.
    """
    eps = float(epsilon)
    if not 0.0 < eps * eps < math.inf:
        raise HorizonError(f"part two's scale epsilon^2 = {eps * eps!r} must be finite and > 0")
    horizon = t / eps

    # part one: quasi-particles over the long horizon
    v_same, x1, x2 = same_velocity
    v_a, v_b = distinct_velocities
    zx, zv = zo1_start
    starts = [(x1, v_same), (x2, v_same), (zx, v_a), (zx, v_b), (zx, zv)]
    ends = [x + v * horizon for x, v in starts]
    fz, fs = frame
    # part two's offsets, hat epsilon a then tilde b for each pair
    shifts = [s for a, b in independence_offsets for s in (eps * a, b)]
    if not all(map(math.isfinite, [horizon, *ends, *(v * t for _, v in starts),
                                   *(fz + s for s in shifts)])):
        raise HorizonError(f"the horizon t/epsilon = {horizon!r}, each tagged rod's "
                           "x + v t/epsilon and v t, and each frame point z + epsilon a "
                           "and z + b must be finite")
    # both parts' regions, limits and targets, before any replica
    eval_pts = [SpaceTimePoint(y, horizon) for y in ends]
    region = _region_for_points(model, eval_pts + [SpaceTimePoint(x, 0.0) for x, _ in starts])
    frame_pt = SpaceTimePoint(fz, fs)
    offsets = [SpaceTimePoint(s, 0.0) for s in shifts]
    frame_pts = [frame_pt.translated(o.x, o.t) for o in offsets]
    region2 = _region_for_points(model, [frame_pt] + frame_pts)
    b_same = SpaceTimePoint(v_same * t, t)
    b_a, b_b = SpaceTimePoint(v_a * t, t), SpaceTimePoint(v_b * t, t)
    target_same = distance(model, ORIGIN, b_same)
    target_distinct = model.moment_intersection(
        2, Segment(ORIGIN, b_a), Segment(ORIGIN, b_b))
    zo1_mean_target = zx + hydro.limit_mass(model, zx, 0.0)
    zo1_var_target = distance(model, ORIGIN, SpaceTimePoint(zv * t, t))
    # the limits of the four rods' places y + H and of the tracer's y + H - zv t/epsilon
    limits = [y + limit_field(model, b) for y, b in zip(ends[:4], eval_pts)]
    limits.append(limit_field_difference(model, SpaceTimePoint(zx, 0.0), eval_pts[4]))

    def quasi(cfg):
        ys = [y + walk_field(cfg, b) for y, b in zip(ends, eval_pts)]
        return ys[:4] + [ys[4] - zv * horizon]

    # part two: joint field fluctuations at scale eps^2; the frozen frame's
    # distance over a horizontal offset a is |a| times its m_2 phase moment
    rate = hydro.phase_moment(model, fz, fs, mark_power=2)
    hat_var_targets = [abs(a) * rate for a, _ in independence_offsets]
    # the translated frame's masses are the base masses on translated segments
    tilde_var_targets = [distance(model, frame_pt, p) for p in frame_pts[1::2]]
    limits2 = [limit_field_difference(model, frame_pt, p) for p in frame_pts]
    fields = lambda cfg: [frame_surface(cfg, frame_pt, o) for o in offsets]

    q, f = _replica_deviations(model, [(eps, region, quasi, limits),
                                       (eps * eps, region2, fields, limits2)], M, seed)
    f[:, 0::2] /= eps ** 1.5
    f[:, 1::2] /= eps
    stats = [
        covariance_statistic("same_velocity_cov", q[:, 0], q[:, 1], target_same),
        covariance_statistic("distinct_velocity_cov", q[:, 2], q[:, 3],
                             target_distinct),
        mean_statistic("tracer_mean", q[:, 4], zo1_mean_target),
        covariance_statistic("tracer_var", q[:, 4], q[:, 4], zo1_var_target),
    ]
    for k in range(len(independence_offsets)):
        eh, et = f[:, 2 * k], f[:, 2 * k + 1]
        stats.append(covariance_statistic(f"independence_cross_cov[{k}]",
                                          eh, et, 0.0))
        stats.append(covariance_statistic(f"hat_var[{k}]", eh, eh,
                                          hat_var_targets[k]))
        stats.append(covariance_statistic(f"tilde_var[{k}]", et, et,
                                          tilde_var_targets[k]))

    verdict = all(s.passed for s in stats)
    extra = {"t": t, "horizon": horizon, "frame": [fz, fs],
             "independence_offsets": [list(p) for p in independence_offsets]}
    return ExperimentReport("diffusive", model.summary(), eps, M, seed,
                            stats, extra, verdict)


# ---------------------------------------------------------------------------
# law of large numbers
# ---------------------------------------------------------------------------

def lln_test(model, epsilons, M: int, seed: int,
             point: tuple[float, float] = (0.0, 1.0),
             mass_point: tuple[float, float] = (1.0, 0.5)) -> ExperimentReport:
    """Replicate RMS of the surface and mass deviations must shrink like sqrt(eps)."""
    epsilons = sorted(float(e) for e in epsilons)
    if len(epsilons) < 2:
        raise ValueError("the scaling-slope fit needs at least two epsilon values")
    b = SpaceTimePoint(*point)
    deviations = _deviations(model, [b], mass_point, epsilons, M, seed)
    rms_h, rms_m = ([float(np.sqrt(np.mean(dev[:, j] ** 2))) for dev in deviations]
                    for j in (0, 1))

    log_eps = np.log(epsilons)
    slope_h = float(np.polyfit(log_eps, np.log(rms_h), 1)[0])
    slope_m = float(np.polyfit(log_eps, np.log(rms_m), 1)[0])
    lo, hi = LLN_SLOPE_BAND
    stats = [
        StatisticResult("surface_rms_slope", slope_h, math.nan, 0.5, math.nan),
        StatisticResult("mass_rms_slope", slope_m, math.nan, 0.5, math.nan),
    ]
    verdict = lo <= slope_h <= hi and lo <= slope_m <= hi
    extra = {"epsilons": list(epsilons), "surface_rms": rms_h, "mass_rms": rms_m,
             "slope_band": [lo, hi], "point": [b.x, b.t],
             "mass_point": list(mass_point)}
    return ExperimentReport("lln", model.summary(), list(epsilons), M, seed,
                            stats, extra, verdict)


# ---------------------------------------------------------------------------
# stationarity smoke test
# ---------------------------------------------------------------------------

def stationarity_smoke_test(model, t_values, M: int, seed: int,
                            core_halfwidth: float = 8.0) -> ExperimentReport:
    """Distributional invariance of dilated gas under the tagged-frame flow.

    For each t, gap lengths and rod lengths collected in a core window are
    compared between evolved and freshly dilated ensembles by two-sample
    Kolmogorov-Smirnov.  Homogeneous inputs should pass; an inhomogeneous
    model is the intended negative control and should be rejected.  The
    evolved ensemble, ``tagged_frame_evolve(dilate(gas), t)``, is the dilation
    of the freely flowed sample, so the test checks free flow; the collision
    dynamics are checked by the event oracle against the surface route.
    """
    from scipy.stats import ks_2samp

    V = model.max_speed
    t_values = [float(t) for t in t_values]
    tmax = max(abs(t) for t in t_values) if t_values else 0.0
    W = core_halfwidth + V * tmax + 4.0
    if not math.isfinite(W):
        raise HorizonError(f"the window half-width core_halfwidth + V max|t| + 4 = {W!r} "
                           "must be finite")
    region = _region_for_points(model, [SpaceTimePoint(-W, 0.0), SpaceTimePoint(W, 0.0)])
    core = core_halfwidth

    def collect(rods: hardrod.RodConfiguration):
        order = np.argsort(rods.y, kind="stable")
        y, r = rods.y[order], rods.r[order]
        inside = (y >= -core) & (y <= core)
        gaps = y[1:] - (y[:-1] + r[:-1])
        gap_inside = inside[1:] & inside[:-1]
        return gaps[gap_inside], r[inside]

    def replica(t_idx, t, i):
        # (gaps, lengths) of the evolved and of the freshly dilated gas
        out = []
        for which in (0, 1):
            cfg = sample(model, 1.0, region, seed, stream_key=(t_idx, i, which))
            gas = hardrod.dilate(hardrod.GasConfiguration(cfg.x, cfg.v, cfg.r), 0.0)
            out.append(collect(hardrod.tagged_frame_evolve(gas, t) if which == 0 else gas))
        return out

    stats: list[StatisticResult] = []
    pvals = {}
    for t_idx, t in enumerate(t_values):
        rows = _map_ordered(lambda i: replica(t_idx, t, i), M, threads=1)
        gaps_ev, lens_ev, gaps_ref, lens_ref = (
            np.concatenate([row[which][col] for row in rows])
            for which in (0, 1) for col in (0, 1))
        for name, pooled in zip(("evolved gap", "evolved length", "fresh gap", "fresh length"),
                                (gaps_ev, lens_ev, gaps_ref, lens_ref)):
            if not len(pooled):
                raise HorizonError(f"at t = {t:g} the core [-{core:g}, {core:g}] holds no "
                                   f"{name} in {M} replicas; lower |t| or raise core_halfwidth")
        p_gap = float(ks_2samp(gaps_ev, gaps_ref).pvalue)
        p_len = float(ks_2samp(lens_ev, lens_ref).pvalue)
        pvals[f"t={t:g}"] = {"gaps": p_gap, "lengths": p_len}
        stats.append(StatisticResult(f"ks_gap_p[t={t:g}]", p_gap, math.nan,
                                     KS_LEVEL, math.nan))
        stats.append(StatisticResult(f"ks_length_p[t={t:g}]", p_len, math.nan,
                                     KS_LEVEL, math.nan))

    verdict = all(s.mean >= KS_LEVEL for s in stats)
    extra = {"t_values": t_values, "ks_level": KS_LEVEL,
             "core_halfwidth": core_halfwidth, "p_values": pvals}
    return ExperimentReport("stationarity", model.summary(), 1.0, M, seed,
                            stats, extra, verdict)
