import math

import numpy as np
import pytest

from hrfl import intensity
from hrfl.gaussian import covariance_matrix
from hrfl.geometry import ORIGIN, Segment, SpaceTimePoint, segment
from hrfl.hydro import characteristic_map, phase_moment
from hrfl.intensity import (
    ConstantDensity,
    ConstantMark,
    DiscreteKernel,
    GaussianVelocity,
    IntensityModel,
    PiecewiseConstantDensity,
    QUAD_ABS_TOL,
    QUAD_LIMIT,
    QUAD_REL_TOL,
    PiecewiseKernel,
    ProductKernel,
    QuadratureError,
    SmoothDensity,
    UniformMark,
    UniformVelocity,
)


def mc_crossing_moment(model, k, seg, sign, rng, n=400_000):
    """Independent rejection-count oracle for crossing moments.

    Draws lines uniformly on the window able to reach the segment and
    counts r^k over its crossings, "both" orientations or Plus minus Minus
    for "net", rescaled by the window mass.
    """
    tmax = max(abs(seg.a.t), abs(seg.b.t))
    lo = min(seg.a.x, seg.b.x) - model.max_speed * tmax - 0.1
    hi = max(seg.a.x, seg.b.x) + model.max_speed * tmax + 0.1
    xs = model.rho.sample(rng, n, lo, hi)
    vs, rs = model.kernel.sample(rng, xs)
    mass = model.rho.integral(lo, hi)
    pa = xs + seg.a.t * vs <= seg.a.x
    pb = xs + seg.b.t * vs <= seg.b.x
    plus = ~pa & pb
    minus = pa & ~pb
    take = {"net": plus.astype(float) - minus, "both": plus | minus}[sign]
    vals = rs**k * take
    est = mass * float(np.mean(vals))
    se = mass * float(np.std(vals)) / math.sqrt(n)
    return est, se


@pytest.mark.parametrize(
    "k,seg,sign,expected",
    [
        # hand integrals for rho=1, v~U[-1,1], r=1
        (2, segment(0, 0, 0, 1), "both", 0.5),    # int |v t| / 2 dv = t/2
        (2, segment(0, 0, 0, 2), "both", 1.0),
        (2, segment(0, 0, 2, 0), "both", 2.0),    # int |x| / 2 dv = |x|
        # Plus for v < 1/2: int (1/2 - v) / 2 = 9/16; Minus for v > 1/2: 1/16
        (1, segment(0, 0, 0.5, 1), "net", 0.5),
        (1, segment(0, 0, 0.5, 1), "both", 0.625),
    ],
)
def test_reference_moments(reference_model, k, seg, sign, expected):
    got = reference_model.moment_on_crossing(k, seg, sign)
    assert got == pytest.approx(expected, abs=1e-9)


def test_reference_moments_against_mc_oracle(reference_model, rng):
    for k, seg, sign in [(2, segment(0, 0, 0, 1), "both"),
                         (1, segment(0, 0, 0.5, 1), "net"),
                         (2, segment(-0.3, 0.2, 0.9, -0.7), "both")]:
        quad = reference_model.moment_on_crossing(k, seg, sign)
        est, se = mc_crossing_moment(reference_model, k, seg, sign, rng)
        assert abs(est - quad) < 3.5 * se


def test_degenerate_segment_moment_is_zero(reference_model):
    assert reference_model.moment_on_crossing(2, segment(1, 1, 1, 1)) == 0.0


def test_each_crossing_moment_is_one_velocity_integral(reference_model, monkeypatch):
    calls = []
    rule = intensity.velocity_integral

    def counted(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(intensity, "velocity_integral", counted)
    seg = segment(0, 0, 0.5, 1)
    for sign in ("net", "both"):
        reference_model.moment_on_crossing(1, seg, sign)
    assert len(calls) == 2
    # read at the segment's ends, with v* = dx/dt where its pivots cross
    assert all(args[0] is reference_model and args[2:] == ([0.0, 0.5], [0.0, 1.0], [0.5])
               for args in calls)
    for sign in ("plus", "minus", "Both", None):
        with pytest.raises(ValueError, match="sign must be 'both' or 'net'"):
            reference_model.moment_on_crossing(1, seg, sign)


def _atom_cell_model():
    kern = PiecewiseKernel([(-3.0, 0.0, DiscreteKernel([(-0.5, 0.4, 0.3), (0.8, 1.2, 0.7)])),
                            (0.0, 3.0, DiscreteKernel([(0.8, 0.6, 1.0)]))])
    return IntensityModel(PiecewiseConstantDensity([-3.0, -1.0, 3.0], [0.7, 1.3]), kern)


def test_x_mass_is_signed_and_sums_over_the_cells(rng):
    # the signed m_k mass from a to b: each cell weighs the rho-mass of
    # [a, b] clipped into it, so reversed ends negate it, an interval outside
    # every cell is empty, and one across both cells is the sum of its pieces
    model = _atom_cell_model()
    a, b = rng.uniform(-4.0, 4.0, (2, 300))
    left, right = rng.uniform(-3.5, 0.0, 300), rng.uniform(0.0, 3.5, 300)
    for v in (-0.5, 0.8, 0.3):
        for k in (0, 1, 2):
            got = model.x_mass(v, k, a, b)
            assert np.array_equal(model.x_mass(v, k, b, a), -got)
            assert model.x_mass(v, k, -0.3, 1.7) == -model.x_mass(v, k, 1.7, -0.3)
            for outside in ((-5.0, -3.0), (3.0, 4.5), (4.5, 3.5)):
                assert model.x_mass(v, k, *outside) == 0.0
            pieces = model.x_mass(v, k, left, 0.0) + model.x_mass(v, k, 0.0, right)
            assert model.x_mass(v, k, left, right).tobytes() == pieces.tobytes()
    # by hand: the atom (0.8, 1.2, 0.7) left of 0 and (0.8, 0.6, 1.0) right of it
    want = 0.7 * 1.2 * (0.7 * 1.0 + 1.3 * 1.0) + 1.0 * 0.6 * 1.3 * 1.5
    assert model.x_mass(0.8, 1, -2.0, 1.5) == pytest.approx(want, rel=1e-15)
    assert model.x_mass(0.8, 1, 1.5, -2.0) == pytest.approx(-want, rel=1e-15)


def test_sign_split_is_exact(reference_model, rng):
    # reversing ab swaps Plus and Minus: net flips and both stays, bit for
    # bit; where every velocity crosses one way (dt = 0, or v* = dx/dt off
    # the velocity support) net is +-both, and elsewhere Plus and Minus,
    # (both +- net) / 2, are both >= 0
    piecewise = QUAD_MODELS["piecewise-rho"]()
    models = [reference_model, QUAD_MODELS["gaussian"](), piecewise, _atom_cell_model()]
    segs = [segment(*rng.uniform(-3, 3, size=4)) for _ in range(20)]
    segs += [segment(-0.5, 0.3, 1.0, 0.3), segment(1.0, -0.2, -0.5, -0.2),  # dt = 0
             segment(0.0, 0.0, 2.5, 0.5), segment(0.0, 0.0, 2.5, -0.5)]     # v* = +-5
    for model in models:
        lo, hi = model.v_support
        for seg in segs:
            if seg.is_degenerate:
                continue
            dx, dt = seg.b.x - seg.a.x, seg.b.t - seg.a.t
            for k in (0, 1, 2):
                net = model.moment_on_crossing(k, seg, "net")
                both = model.moment_on_crossing(k, seg, "both")
                assert model.moment_on_crossing(k, Segment(seg.b, seg.a), "net") == -net
                assert model.moment_on_crossing(k, Segment(seg.b, seg.a), "both") == both
                if dt == 0.0 or not lo < dx / dt < hi:
                    # the sign of dx - v dt anywhere inside the support
                    assert net == math.copysign(both, dx - 0.5 * (lo + hi) * dt)
                else:
                    assert abs(net) <= both + 2 * QUAD_ABS_TOL


def test_signed_integrals_converge_where_they_cancel():
    # the rounding floor of a panel, 50 ulp of the integral of |f|, is
    # 1.1e-10 here, over QUAD_ABS_TOL, and bisection cannot lower it
    assert intensity._quad(lambda v: 1e4 * v, -1.0, 1.0) == pytest.approx(0.0, abs=1e-9)
    # on rho = 2e4, v ~ U[-1, 1], r = 1, Plus and Minus of (0, 0)-(dx, 1) are
    # each about 5e3 and net is rho * dx; the signed m_1 mass of Z and pi
    # cancel the same way at (0, 1)
    from hrfl import hydro
    from hrfl.field import limit_field

    model = IntensityModel(ConstantDensity(2e4),
                           ProductKernel(UniformVelocity(-1.0, 1.0), ConstantMark(1.0)))
    for dx in (0.0, 1e-7):
        seg = segment(0.0, 0.0, dx, 1.0)
        assert model.moment_on_crossing(1, seg, "both") == pytest.approx(1e4, rel=1e-12)
        assert model.moment_on_crossing(1, seg, "net") == pytest.approx(2e4 * dx, abs=1e-9)
    assert limit_field(model, SpaceTimePoint(0.0, 1.0)) == pytest.approx(0.0, abs=1e-9)
    assert hydro.characteristic_map(model, 0.0, 1.0) == pytest.approx(0.0, abs=1e-9)
    assert hydro.phase_moment(model, 0.0, 1.0, v_power=1) == pytest.approx(0.0, abs=1e-9)


def test_atom_at_the_orientation_velocity_crosses_neither_way():
    # v* = dx/dt = 0.5: a line of velocity 0.5 runs along the segment
    seg = segment(0.0, 0.0, 0.5, 1.0)
    along = IntensityModel(ConstantDensity(1.0), DiscreteKernel([(0.5, 1.0, 1.0)]))
    for sign in ("net", "both"):
        assert along.moment_on_crossing(1, seg, sign) == 0.0
    # beside it, the atom at -0.5 crosses Plus on the intercepts [0, 1]: net
    # equal to both means Plus 1 and Minus 0
    pair = IntensityModel(ConstantDensity(1.0),
                          DiscreteKernel([(0.5, 1.0, 0.5), (-0.5, 2.0, 0.5)]))
    assert pair.moment_on_crossing(1, seg, "net") == 1.0
    assert pair.moment_on_crossing(1, seg, "both") == 1.0


def test_single_atom_kernel_counts_its_atom():
    # the velocity support is the single point 0.5; the vertical segment
    # from (0, 0) to (0, 1) is crossed Minus on the intercepts [-0.5, 0]
    model = IntensityModel(ConstantDensity(2.0), DiscreteKernel([(0.5, 1.5, 1.0)]))
    assert model.v_support == (0.5, 0.5)
    seg = segment(0.0, 0.0, 0.0, 1.0)
    # all Minus: net is -both, so Plus is 0
    assert model.moment_on_crossing(2, seg, "both") == pytest.approx(2.0 * 0.5 * 1.5**2)
    assert model.moment_on_crossing(2, seg, "net") == -model.moment_on_crossing(
        2, seg, "both")
    assert model.moment_on_crossing(0, segment(1.0, 0.0, 0.0, 0.0), "net") == -2.0
    assert model.moment_on_crossing(0, segment(1.0, 0.0, 0.0, 0.0), "both") == 2.0


def test_intersection_examples(reference_model):
    s1 = segment(0, 0, 0, 1)
    s2 = segment(0, 0, 0, 2)
    assert reference_model.moment_intersection(2, s1, s1) == pytest.approx(
        reference_model.moment_on_crossing(2, s1), abs=1e-10)
    assert reference_model.moment_intersection(2, s1, s2) == pytest.approx(0.5, abs=1e-9)
    # far-apart segments at t=0 with speed bound 1: no line crosses both
    far1 = segment(0, 0, 1, 0)
    far2 = segment(50, 0, 51, 0)
    assert reference_model.moment_intersection(2, far1, far2) == 0.0


def test_halfsum_identity(reference_model, rng):
    for _ in range(100):
        a = SpaceTimePoint(*rng.uniform(-2, 2, size=2))
        b = SpaceTimePoint(*rng.uniform(-2, 2, size=2))
        if a == b:
            continue
        oa = reference_model.moment_on_crossing(2, Segment(ORIGIN, a))
        ob = reference_model.moment_on_crossing(2, Segment(ORIGIN, b))
        ab = reference_model.moment_on_crossing(2, Segment(a, b))
        inter = reference_model.moment_intersection(
            2, Segment(ORIGIN, a), Segment(ORIGIN, b))
        assert inter == pytest.approx(0.5 * (oa + ob - ab), abs=1e-8)


def test_halfsum_identity_inhomogeneous(rng):
    model = IntensityModel(
        PiecewiseConstantDensity([-3, -1, 0, 2], [0.5, 2.0, 1.0]),
        ProductKernel(UniformVelocity(-1.5, 0.5), UniformMark(0.1, 0.9)))
    for _ in range(30):
        a = SpaceTimePoint(*rng.uniform(-2, 2, size=2))
        b = SpaceTimePoint(*rng.uniform(-2, 2, size=2))
        oa = model.moment_on_crossing(2, Segment(ORIGIN, a))
        ob = model.moment_on_crossing(2, Segment(ORIGIN, b))
        ab = model.moment_on_crossing(2, Segment(a, b))
        inter = model.moment_intersection(2, Segment(ORIGIN, a), Segment(ORIGIN, b))
        assert inter == pytest.approx(0.5 * (oa + ob - ab), abs=1e-8)


def test_monotone_under_segment_extension(reference_model):
    a = SpaceTimePoint(-0.3, -0.5)
    direction = (1.0, 0.8)
    prev = 0.0
    for u in (0.5, 1.0, 1.7, 2.5):
        b = SpaceTimePoint(a.x + u * direction[0], a.t + u * direction[1])
        cur = reference_model.moment_on_crossing(2, Segment(a, b))
        assert cur >= prev - 1e-12
        prev = cur


def test_distance_triangle_inequality(reference_model, rng):
    for _ in range(60):
        pts = [SpaceTimePoint(*rng.uniform(-2, 2, size=2)) for _ in range(3)]
        d = lambda p, q: reference_model.moment_on_crossing(2, Segment(p, q))
        assert d(pts[0], pts[2]) <= d(pts[0], pts[1]) + d(pts[1], pts[2]) + 1e-9


def test_translated_density_follows_pushforward():
    # bump on [0,1] moving at v=1: after s=1 the mass sits on [1,2], so the
    # translated x-marginal is 1 inside [1,2] and 0 on the near side; the
    # base crossing mass of a thin horizontal segment at x, translated to
    # time 1, recovers it
    base = IntensityModel(PiecewiseConstantDensity([0, 1], [1.0]),
                          DiscreteKernel([(1.0, 0.5, 1.0)]))
    for x, want in ((1.5, 1.0), (-0.5, 0.0), (0.5, 0.0)):
        h = 1e-4
        seg = segment(x, 0.0, x + h, 0.0)
        est = base.moment_on_crossing(0, seg.translated(0.0, 1.0)) / h
        assert est == pytest.approx(want, abs=1e-6)


def test_gaussian_velocity_requires_support():
    kern = ProductKernel(GaussianVelocity(0.0, 1.0), ConstantMark(1.0))
    with pytest.raises(ValueError):
        IntensityModel(ConstantDensity(1.0), kern)
    model = IntensityModel(ConstantDensity(1.0), kern, v_support=(-2.0, 2.0))
    assert model.summary()["tail_mass_removed"] == pytest.approx(0.0455, abs=1e-3)
    # truncated law is a renormalized probability
    total = model.moment_on_crossing(0, segment(0, 0, 1, 0))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_gaussian_velocity_is_complete_when_built():
    # on the whole line the constants are exact; truncated() builds the same
    # law as the constructor with bounds, and keeps its finite-bounds check
    law = GaussianVelocity(0.3, 1.2)
    assert law.support == (-math.inf, math.inf)
    assert law._log_mass == 0.0 and law.tail_mass_removed == 0.0
    assert law.pdf(0.3) == pytest.approx(1.0 / (1.2 * math.sqrt(2.0 * math.pi)), rel=1e-15)
    cut, built = law.truncated(-1.0, 2.0), GaussianVelocity(0.3, 1.2, -1.0, 2.0)
    assert vars(cut) == vars(built)
    for lo, hi in ((-math.inf, 2.0), (-1.0, math.inf), (2.0, -1.0)):
        with pytest.raises(ValueError, match="finite truncation bounds"):
            law.truncated(lo, hi)
    with pytest.raises(ValueError, match="lo < hi"):
        GaussianVelocity(0.0, 1.0, 1.0, 1.0)


def test_uniform_velocity_truncation_reports_tail():
    model = IntensityModel(ConstantDensity(1.0),
                           ProductKernel(UniformVelocity(-2, 2), ConstantMark(1.0)),
                           v_support=(-1.0, 1.0))
    assert model.v_support == (-1.0, 1.0)
    assert model.summary()["tail_mass_removed"] == pytest.approx(0.5)


def test_piecewise_kernel_moments_match_manual_split():
    # different mark sizes left and right of the origin
    kern = PiecewiseKernel([
        (-5.0, 0.0, DiscreteKernel([(1.0, 2.0, 1.0)])),
        (0.0, 5.0, DiscreteKernel([(1.0, 0.5, 1.0)])),
    ])
    model = IntensityModel(PiecewiseConstantDensity([-5, 5], [1.0]), kern)
    seg = segment(-1, 0, 1, 0)  # crossing interval [-1, 1] for v=1 at t=0
    want = 2.0**2 * 1.0 + 0.5**2 * 1.0
    assert model.moment_on_crossing(2, seg) == pytest.approx(want, abs=1e-10)


def test_two_continuous_cells_give_the_model_its_hull_signs_and_moments():
    # cells with different velocity supports and no v_support override: the
    # model reads the hull, the sign of the marks and the breakpoints off them
    a1, b1, r1, rho1 = -1.0, 0.5, 0.8, 1.0
    a2, b2, lo2, hi2, rho2 = -0.5, 2.0, 0.5, 1.5, 0.6

    def model(mark_lo):
        return IntensityModel(PiecewiseConstantDensity([-5, 0, 5], [rho1, rho2]), PiecewiseKernel([
            (-5.0, 0.0, ProductKernel(UniformVelocity(a1, b1), ConstantMark(r1))),
            (0.0, 5.0, ProductKernel(UniformVelocity(a2, b2), UniformMark(mark_lo, hi2)))]))

    m = model(lo2)
    assert m.v_support == (a1, b2) and m.marks_nonnegative
    assert m.summary()["tail_mass_removed"] == 0.0
    assert not model(-0.2).marks_nonnegative
    # the vertical segment {x0} x [0, 1] is crossed by the line (x, v) when x
    # lies in [x0 - v, x0]; each cell weighs the length of that interval in it
    x0 = 0.3
    seg = segment(x0, 0, x0, 1)
    for k in (0, 1, 2):
        m2 = 1.0 if k == 0 else (hi2 ** (k + 1) - lo2 ** (k + 1)) / ((k + 1) * (hi2 - lo2))
        w1, w2 = rho1 * r1 ** k / (b1 - a1), rho2 * m2 / (b2 - a2)
        # v < 0 crosses Plus, all in cell 2; v > 0 crosses Minus, x0 of it in
        # cell 2 once v > x0 and v - x0 in cell 1
        plus = w2 * a2 ** 2 / 2
        minus = w1 * (b1 - x0) ** 2 / 2 + w2 * (x0 ** 2 / 2 + x0 * (b2 - x0))
        for sign, want in (("net", plus - minus), ("both", plus + minus)):
            got = m.moment_on_crossing(k, seg, sign)
            assert abs(got - want) <= QUAD_ABS_TOL + QUAD_REL_TOL * abs(want), (k, sign)


def test_discrete_kernel_weight_validation():
    with pytest.raises(ValueError):
        DiscreteKernel([(0.0, 1.0, 0.4), (1.0, 1.0, 0.4)])
    with pytest.raises(ValueError):
        DiscreteKernel([])


def test_smooth_density_mass_and_bound(rng):
    rho = SmoothDensity(lambda x: np.clip(1 - x**2, 0, None) ** 2, (-1, 1))
    # int (1-x^2)^2 = 16/15
    assert rho.integral(-1, 1) == pytest.approx(16 / 15, abs=1e-10)
    xs = rho.sample(rng, 5000, -1, 1)
    assert np.all((xs > -1) & (xs < 1))
    # E[x^2] under the normalized density: (16/105) / (16/15) = 1/7
    assert np.mean(xs**2) == pytest.approx(1 / 7, abs=5 * np.std(xs**2) / np.sqrt(5000))


def _bump(height=0.5, width=2.0):
    return lambda x: height * np.clip(1 - (np.asarray(x) / width) ** 2, 0, None) ** 4


def test_smooth_density_rejection_loop_is_bounded(rng):
    # the density vanishes on [0.5, 1], so no candidate there is accepted
    rho = SmoothDensity(lambda x: np.clip(0.25 - np.asarray(x) ** 2, 0, None), (-1, 1))
    with pytest.raises(ValueError, match="rejection sampling"):
        rho.sample(rng, 3, 0.6, 0.9)
    assert len(rho.sample(rng, 3, -0.4, 0.9)) == 3


# the last three lie beyond 37 sd, where Phi of the start bound underflows
GAUSS_TRUNCATIONS = [(-3.0, 3.0), (2.0, 4.0), (-0.5, 40.0), (-9.0, -8.0), (8.0, 9.0),
                     (40.0, 41.0), (-41.0, -40.0), (-40.0, 3.0)]


@pytest.mark.parametrize("a,b", GAUSS_TRUNCATIONS)
def test_gaussian_velocity_matches_scipy_truncnorm(a, b):
    from scipy import integrate
    from scipy.stats import norm, truncnorm

    mean, sd = 0.3, 1.7
    law = GaussianVelocity(mean, sd).truncated(mean + a * sd, mean + b * sd)
    # the standardized bounds of the law itself, which are a and b to rounding
    a, b = (law.lo - mean) / sd, (law.hi - mean) / sd
    ref = truncnorm(a, b, loc=mean, scale=sd)
    # the same uniforms give the same quantiles
    got = law.sample(np.random.default_rng(11), 20_000)
    want = ref.ppf(np.random.default_rng(11).random(20_000))
    assert np.max(np.abs(got - want)) <= 1e-12 * sd
    # the density, on and off the support
    v = np.linspace(law.lo, law.hi, 2001)
    assert law.pdf(v) == pytest.approx(ref.pdf(v), rel=1e-14, abs=1e-300)
    assert law.pdf(law.lo - 1e-9) == 0.0 and law.pdf(law.hi + 1e-9) == 0.0
    assert law.pdf(np.array([law.lo - 1.0, law.hi + 1.0])).tolist() == [0.0, 0.0]
    assert isinstance(law.pdf(0.5 * (law.lo + law.hi)), float)
    mass = integrate.quad(law.pdf, law.lo, law.hi, epsabs=1e-13, epsrel=1e-12)[0]
    assert mass == pytest.approx(1.0, abs=1e-11)
    # the summary's tail mass keeps its bits
    assert law.tail_mass_removed == float(1.0 - (norm.cdf(b) - norm.cdf(a)))


def test_gaussian_velocity_samples_truncnorm_law():
    from scipy.stats import ks_2samp, truncnorm

    law = GaussianVelocity(-0.4, 1.3).truncated(-3.0, 2.0)
    a, b = (-3.0 + 0.4) / 1.3, (2.0 + 0.4) / 1.3
    ref = truncnorm.rvs(a, b, loc=-0.4, scale=1.3, size=20_000,
                        random_state=np.random.default_rng(3))
    got = law.sample(np.random.default_rng(4), 20_000)
    assert np.all((got >= -3.0) & (got <= 2.0))
    assert ks_2samp(got, ref).pvalue > 1e-3


def test_gaussian_velocity_quantile_ends():
    # u = 0 maps to the lower bound in both the direct and the mirrored branch
    class Ends:
        def random(self, n):
            return np.array([0.0, 0.5])

    for lo, hi in [(-1.0, 2.0), (0.5, 2.0), (-40.0, 3.0)]:
        got = GaussianVelocity(0.0, 1.0).truncated(lo, hi).sample(Ends(), 2)
        assert got[0] == pytest.approx(lo, abs=1e-12)
        assert lo < got[1] < hi
    # an empty draw, as a window without lines asks for, in both sampling paths
    for lo, hi in [(-1.0, 2.0), (40.0, 41.0)]:
        assert GaussianVelocity(0.0, 1.0, lo, hi).sample(np.random.default_rng(0), 0).shape == (0,)


def test_gaussian_truncation_intersects_the_law_bounds():
    law = GaussianVelocity(0.0, 1.0, -1.0, 1.0)
    assert law.truncated(-2.0, 2.0).support == (-1.0, 1.0)
    assert law.truncated(-0.5, 2.0).support == (-0.5, 1.0)
    with pytest.raises(ValueError, match="truncation leaves no mass"):
        law.truncated(1.0, 2.0)


def test_ndtri_matches_scipy_across_the_as241_regions():
    # the region edges |p - 1/2| = 0.425 and p = exp(-25) with their neighbours,
    # both tails down to p = 1e-300 and 1 - p = 1e-13, and the ends 0 and 1
    from scipy import special

    edges = [0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)]
    p = np.concatenate([np.geomspace(1e-300, 0.5, 4000), np.linspace(0.01, 0.99, 2001),
                        1.0 - np.geomspace(1e-13, 0.5, 2000), edges,
                        np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    z, want = intensity._ndtri(p), special.ndtri(p)
    assert np.all(np.abs(z - want) <= 2e-15 * np.maximum(1.0, np.abs(want)))
    assert intensity._ndtri(np.array([0.0, 1.0])).tolist() == [-math.inf, math.inf]
    # the lower tail from log p, past the underflow of p itself
    log_p = -np.geomspace(3.0, 2e3, 2000)
    z, want = intensity._ndtri(np.exp(log_p), log_p), special.ndtri_exp(log_p)
    assert np.all(np.abs(z - want) <= 2e-15 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("rho", [
    ConstantDensity(0.7),
    PiecewiseConstantDensity([-2.0, -0.5, 0.7, 2.0], [0.3, 0.9, 0.5]),
    SmoothDensity(_bump(), (-2.0, 2.0)),
], ids=["constant", "piecewise", "smooth"])
def test_density_integral_over_arrays_matches_scalar_calls(rho, rng):
    lo = rng.uniform(-3.0, 3.0, 200)
    hi = lo + rng.uniform(-1.0, 3.0, 200)       # a quarter of them reversed
    got = rho.integral(lo, hi)
    assert got.shape == (200,)
    want = [rho.integral(float(a), float(b)) for a, b in zip(lo, hi)]
    assert got.tobytes() == np.array(want).tobytes()
    assert isinstance(rho.integral(-0.3, 0.4), float)
    # the mass is signed, F(b) - F(a): reversed ends negate it exactly; an
    # empty mass is +0.0 either way, so the two compare as numbers
    assert np.array_equal(rho.integral(hi, lo), -got)
    assert rho.integral(0.4, -0.3) == -rho.integral(-0.3, 0.4) < 0.0


def test_piecewise_kernel_density_over_arrays():
    left = DiscreteKernel([(-1.0, 0.4, 0.5), (1.0, 0.6, 0.5)])
    right = DiscreteKernel([(-1.0, 0.4, 0.2), (1.0, 0.6, 0.8)])
    kern = PiecewiseKernel([(-3.0, 0.0, left), (0.0, 3.0, right)])
    xs = np.array([-4.0, -3.0, -0.5, 0.0, 2.9, 3.0])
    for v, k in [(-1.0, 0), (1.0, 1), (0.5, 1)]:
        got = kern.vk_density(v, k, xs)
        assert got.tolist() == [kern.vk_density(v, k, float(x)) for x in xs]


# ---------------------------------------------------------------------------
# the numpy Gauss-Kronrod velocity rule
# ---------------------------------------------------------------------------

def test_gk21_rule_is_exact_to_degree_31_and_nests_gauss_10():
    x, wk, wg = intensity._GK21_NODES, intensity._GK21_KRONROD, intensity._GK21_GAUSS
    for d in range(32):
        exact = 0.0 if d % 2 else 2.0 / (d + 1)
        assert wk @ x ** d == pytest.approx(exact, rel=0, abs=1e-15)
    gx, gw = np.polynomial.legendre.leggauss(10)
    on_gauss = wg != 0.0
    np.testing.assert_allclose(x[on_gauss], gx, rtol=0, atol=1e-15)
    np.testing.assert_allclose(wg[on_gauss], gw, rtol=0, atol=1e-15)


def _scipy_quad(f, lo, hi, inner_points=()):
    """The velocity rule's quadrature as QUADPACK's QAGP does it, in scipy."""
    from scipy import integrate

    if hi <= lo:
        return 0.0
    pts = sorted({p for p in inner_points if lo < p < hi})
    return integrate.quad(f, lo, hi, points=pts or None, epsabs=QUAD_ABS_TOL,
                          epsrel=QUAD_REL_TOL, limit=QUAD_LIMIT, full_output=1)[0]


QUAD_MODELS = {
    "gaussian": lambda: IntensityModel(
        ConstantDensity(1.0), ProductKernel(GaussianVelocity(0.2, 1.0), UniformMark(0.5, 1.5)),
        v_support=(-3.0, 3.0)),
    "uniform": lambda: IntensityModel(
        ConstantDensity(0.7), ProductKernel(UniformVelocity(-1.0, 1.0), UniformMark(0.0, 2.0))),
    "piecewise-rho": lambda: IntensityModel(
        PiecewiseConstantDensity([-2.0, -0.5, 0.3, 1.5], [0.4, 1.2, 0.8]),
        ProductKernel(GaussianVelocity(0.0, 0.8), ConstantMark(1.0)), v_support=(-2.0, 2.0)),
}


@pytest.mark.parametrize("name", sorted(QUAD_MODELS))
def test_crossing_moments_agree_with_scipy_quad(name, rng, monkeypatch):
    model = QUAD_MODELS[name]()
    segs = [Segment(SpaceTimePoint(*rng.uniform(-2, 2, 2)),
                    SpaceTimePoint(*rng.uniform(-2, 2, 2))) for _ in range(4)]

    def moments():
        out = []
        for s1, s2 in zip(segs, segs[1:]):
            out += [model.moment_on_crossing(k, s1, sign)
                    for k, sign in ((0, "net"), (1, "net"), (2, "both"))]
            out.append(model.moment_intersection(1, s1, s2))
        return np.array(out)

    got = moments()
    monkeypatch.setattr(intensity, "_quad", _scipy_quad)
    want = moments()
    assert np.count_nonzero(want) > len(want) // 2
    # each rule is within max(QUAD_ABS_TOL, QUAD_REL_TOL |I|) of the integral;
    # on smooth integrands they agree to rounding
    np.testing.assert_allclose(got, want, rtol=QUAD_REL_TOL, atol=QUAD_ABS_TOL)
    if name != "piecewise-rho":
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_quadrature_converges_on_a_kink_and_raises_at_the_subinterval_cap(monkeypatch):
    def kinked(v):
        return abs(v - 0.3)

    assert intensity._quad(kinked, 0.0, 1.0) == pytest.approx(0.29, rel=0, abs=QUAD_ABS_TOL)
    # a breakpoint at the kink makes both panels polynomial
    assert intensity._quad(kinked, 0.0, 1.0, (0.3,)) == pytest.approx(0.29, rel=0, abs=1e-15)
    monkeypatch.setattr(intensity, "QUAD_LIMIT", 1)
    with pytest.raises(QuadratureError, match=r"1 subintervals \(achieved abserr="):
        intensity._quad(kinked, 0.0, 1.0)


def test_gk21_calls_the_integrand_once_per_panel(monkeypatch):
    shapes, panels = [], []
    gk21 = intensity._gk21

    def counted(f, a, b):
        panels.append((a, b))
        return gk21(f, a, b)

    def f(v):
        shapes.append(np.shape(v))
        return np.abs(v - 0.3)

    monkeypatch.setattr(intensity, "_gk21", counted)
    assert intensity._quad(f, 0.0, 1.0) == pytest.approx(0.29, rel=0, abs=QUAD_ABS_TOL)
    assert len(panels) > 2                   # the kink forced bisections
    assert shapes == [(21,)] * len(panels)
    assert isinstance(intensity._quad(f, 0.0, 1.0, (0.3,)), float)


def test_atom_rule_calls_the_integrand_once_in_kernel_order():
    kern = DiscreteKernel([(0.5, 1.0, 0.25), (-1.0, 0.4, 0.25), (0.5, 2.0, 0.25),
                           (2.0, 1.0, 0.25)])
    calls = []

    def f(v):
        calls.append(v)
        return np.stack([v, v * v], axis=-1)     # a column per position

    got = intensity.velocity_integral(IntensityModel(ConstantDensity(1.0), kern), f, 0.0, 1.0)
    assert len(calls) == 1
    assert calls[0].tolist() == [0.5, -1.0, 2.0]      # distinct, in kernel order
    assert got.tolist() == [0.0 + 0.5 + -1.0 + 2.0, 0.0 + 0.25 + 1.0 + 4.0]


def test_atom_density_over_arrays_matches_scalar_calls():
    # two atoms share v = 0.5 with different marks; 0.7 is no atom
    kern = DiscreteKernel([(0.5, 0.3, 0.2), (-1.0, 0.4, 0.3), (0.5, 0.9, 0.5)])
    vs = np.array([[0.5, -1.0], [0.7, 0.5], [-1.0, 2.0]])
    for k in (0, 1, 2):
        got = kern.vk_density(vs, k, 0.0)
        assert got.shape == vs.shape
        want = [[kern.vk_density(float(v), k, 0.0) for v in row] for row in vs]
        assert got.tobytes() == np.array(want).tobytes()
        assert got[1, 0] == 0.0 and got[2, 1] == 0.0
    assert kern.vk_density(0.5, 1, 0.0) == 0.2 * 0.3 + 0.5 * 0.9
    assert kern.vk_density(0.5, 2, 0.0) == 0.2 * 0.3 ** 2 + 0.5 * 0.9 ** 2


def test_vector_quadrature_matches_each_component():
    # one panel set serves both columns; each still meets its own tolerance
    def pair(v):
        return np.stack([np.abs(v - 0.3), np.exp(v)], axis=-1)

    both = intensity._quad(pair, 0.0, 1.0)
    assert both.shape == (2,)
    for j, one in enumerate((lambda v: np.abs(v - 0.3), np.exp)):
        want = intensity._quad(one, 0.0, 1.0)
        assert abs(both[j] - want) <= 2 * max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(want))
    assert both[1] == pytest.approx(math.e - 1.0, rel=1e-14)


def test_smooth_density_matches_the_bump_antiderivative(rng):
    height, width, center = 0.5, 2.0, 0.3
    rho = SmoothDensity(lambda x: height * np.clip(1 - ((np.asarray(x) - center) / width) ** 2,
                                                   0, None) ** 4,
                        (center - width, center + width))
    P = (np.polynomial.Polynomial([1.0, 0.0, -1.0]) ** 4).integ()

    def exact(x):
        u = (np.clip(x, center - width, center + width) - center) / width
        return height * width * (P(u) - P(-1.0))

    lo = rng.uniform(-2.5, 3.0, 5000)
    hi = rng.uniform(-2.5, 3.0, 5000)
    got = rho.integral(lo, hi)
    np.testing.assert_allclose(got, exact(hi) - exact(lo), rtol=0, atol=1e-13)
    scalar = [rho.integral(float(a), float(b)) for a, b in zip(lo[:500], hi[:500])]
    assert np.array(scalar).tobytes() == got[:500].tobytes()
    edges = np.linspace(center - width, center + width, 9)
    assert rho.integral(edges[:-1], edges[1:]).sum() == pytest.approx(
        float(exact(edges[-1])), rel=0, abs=1e-13)


KINKED_EDGES, KINKED_VALUES = (-2.0, -0.5, 0.3, 1.5), (0.7, 1.3, 0.4)


def _kinked_model():
    return IntensityModel(PiecewiseConstantDensity(KINKED_EDGES, KINKED_VALUES),
                          ProductKernel(GaussianVelocity(0.0, 1.0), ConstantMark(1.0)),
                          v_support=(-2.0, 2.0))


def _kinked_pdf(v):
    mass = math.erf(2.0 / math.sqrt(2.0))
    return math.exp(-v * v / 2.0) / math.sqrt(2.0 * math.pi) / mass


def _kinked_rho_mass(lo, hi):
    edges = KINKED_EDGES
    return sum(c * max(0.0, min(hi, b) - max(lo, a))
               for a, b, c in zip(edges, edges[1:], KINKED_VALUES))


def _piecewise_gauss_legendre(f, breaks, n=40):
    """Integral of f over [-2, 2], n-point Gauss-Legendre between every break."""
    x, w = np.polynomial.legendre.leggauss(n)
    pts = sorted({-2.0, 2.0, *(b for b in breaks if -2.0 < b < 2.0)})
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        total += half * sum(wi * f(mid + half * xi) for xi, wi in zip(x, w))
    return total


def test_crossing_moments_are_exact_across_rho_edges():
    # the crossing interval's ends x - v t meet a rho edge e at v = (x - e) / t;
    # the reference integrates between all of these kinks
    model = _kinked_model()
    rng = np.random.default_rng(7)
    pairs = [(segment(*rng.uniform(-2, 2, 4)), segment(*rng.uniform(-2, 2, 4)))
             for _ in range(12)]

    def interval(v, seg):
        pa, pb = seg.a.x - v * seg.a.t, seg.b.x - v * seg.b.t
        return min(pa, pb), max(pa, pb)

    for seg1, seg2 in pairs:
        ends = [seg1.a, seg1.b, seg2.a, seg2.b]
        breaks = [(p.x - q.x) / (p.t - q.t) for p in ends for q in ends if p.t != q.t]
        breaks += [(p.x - e) / p.t for p in ends if p.t for e in KINKED_EDGES]
        if seg1.b.t != seg1.a.t:                     # seg1's orientation flips
            breaks.append((seg1.b.x - seg1.a.x) / (seg1.b.t - seg1.a.t))

        def both(v):
            (lo1, hi1), (lo2, hi2) = interval(v, seg1), interval(v, seg2)
            return _kinked_pdf(v) * _kinked_rho_mass(max(lo1, lo2), min(hi1, hi2))

        def net(v):
            # Plus where dx - v dt > 0, Minus where it is < 0
            lo, hi = interval(v, seg1)
            dx, dt = seg1.b.x - seg1.a.x, seg1.b.t - seg1.a.t
            return _kinked_pdf(v) * _kinked_rho_mass(lo, hi) * float(np.sign(dx - v * dt))

        for got, f in ((model.moment_intersection(0, seg1, seg2), both),
                       (model.moment_on_crossing(0, seg1, "net"), net)):
            want = _piecewise_gauss_legendre(f, breaks)
            assert abs(got - want) <= QUAD_ABS_TOL + QUAD_REL_TOL * abs(want)


@pytest.mark.parametrize("x,t", [
    (0.7, 0.5),                                     # one position, one time
    ([0.7, -1.3, 2.0], 0.5),                        # many positions, one time
    ([0.7, -1.3, 2.0, 0.1], [0.5, 0.0, -2.0, 0.0]),  # a time per position, some zero
    ([0.7, -1.3], 0.0),                             # t = 0 for every position
    (0.7, 0.0),
])
def test_edge_velocities_solve_x_minus_v_t_on_each_edge(x, t):
    # v = (x - e) / t for each moving position, in position order and edge
    # order within a position; a position with t = 0 meets no edge
    edges = (-1.0, 0.25, 3.0)
    xs, ts = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    want = [(xi - e) / ti for xi, ti in zip(xs.ravel().tolist(), ts.ravel().tolist()) if ti
            for e in edges]
    got = intensity.edge_velocities(edges, x, t)
    assert got.dtype == float and got.ndim == 1
    assert got.tolist() == want
    if np.ndim(t) == 0 and t:
        assert got.tolist() == (np.subtract.outer(x, edges) / t).ravel().tolist()


# ---------------------------------------------------------------------------
# the Galilean shear and the reflection of the crossing moments
# ---------------------------------------------------------------------------

SYMMETRY_EDGES, SYMMETRY_VALUES = np.array([-2.0, -0.5, 1.0, 3.0]), np.array([0.7, 1.3, 0.4])
SYMMETRY_ATOMS = [(-1.0, 0.4, 0.3), (0.5, 0.2, 0.3), (1.0, 0.6, 0.4)]


def _symmetry_models(c=0.0, mirror=False):
    # the piecewise-rho Gaussian and three-atom models, sheared by v -> v + c
    # and, if mirror, reflected by (x, v) -> (-x, -v)
    s = -1.0 if mirror else 1.0
    edges, values = (-SYMMETRY_EDGES[::-1], SYMMETRY_VALUES[::-1]) if mirror else (
        SYMMETRY_EDGES, SYMMETRY_VALUES)
    gauss = ProductKernel(GaussianVelocity(s * 0.2 + c, 1.0), UniformMark(0.5, 1.5))
    atoms = DiscreteKernel([(s * v + c, r, w) for v, r, w in SYMMETRY_ATOMS])
    return [IntensityModel(PiecewiseConstantDensity(edges, values), gauss,
                           v_support=(-3.0 + c, 3.0 + c)),
            IntensityModel(PiecewiseConstantDensity(edges, values), atoms)]


def _crossing_moments(model, seg1, seg2):
    return [(model.moment_on_crossing(k, seg1, "both"), model.moment_on_crossing(k, seg1, "net"),
             model.moment_intersection(k, seg1, seg2)) for k in (0, 1, 2)]


def _image(seg, c=0.0, mirror=False):
    s = -1.0 if mirror else 1.0
    return segment(s * seg.a.x + c * seg.a.t, seg.a.t, s * seg.b.x + c * seg.b.t, seg.b.t)


def test_shear_and_reflection_map_the_crossing_moments(rng):
    # v -> v + c with (x, t) -> (x + c t, t) keeps every crossing, so both, net
    # and the intersection stay; (x, v) -> (-x, -v) swaps Plus and Minus, so
    # net is negated and both and the intersection stay
    c = 0.375
    pairs = [(segment(*rng.uniform(-2.0, 2.0, 4)), segment(*rng.uniform(-2.0, 2.0, 4)))
             for _ in range(20)]
    for model, sheared, mirrored in zip(_symmetry_models(), _symmetry_models(c),
                                        _symmetry_models(mirror=True)):
        for seg1, seg2 in pairs:
            base = np.array(_crossing_moments(model, seg1, seg2))
            shear = np.array(_crossing_moments(sheared, _image(seg1, c), _image(seg2, c)))
            mirror = np.array(_crossing_moments(mirrored, _image(seg1, mirror=True),
                                                _image(seg2, mirror=True)))
            tol = QUAD_ABS_TOL + QUAD_REL_TOL * np.abs(base)
            assert np.all(np.abs(shear - base) <= tol)
            assert np.all(np.abs(mirror * [1.0, -1.0, 1.0] - base) <= tol)


def _phase_moments(model, x, t):
    # phase_moment at mark powers 0, 1 and 2, each at v-powers 0 and 1
    return np.array([phase_moment(model, x, t, j, k) for k in (0, 1, 2) for j in (0, 1)])


def test_shear_and_reflection_map_the_phase_moments_and_z(rng):
    # the sheared model's time-t phase density at (x + c t, v + c) is the
    # model's at (x, v): v-power 0 stays, v-power 1 gains c times v-power 0
    # and Z gains c t; (x, v) -> (-x, -v) negates v-power 1 and Z
    c = 0.375
    x = rng.uniform(-2.5, 2.5, 40)
    for model, sheared, mirrored in zip(_symmetry_models(), _symmetry_models(c),
                                        _symmetry_models(mirror=True)):
        for t in (0.0, 0.5, -0.75, rng.uniform(-1.0, 1.0, 40)):
            base, z = _phase_moments(model, x, t), characteristic_map(model, x, t)
            shear_want = base.copy()
            shear_want[1::2] += c * base[::2]
            mirror_want = base * np.array([1.0, -1.0] * 3)[:, None]
            for got, want in ((_phase_moments(sheared, x + c * t, t), shear_want),
                              (_phase_moments(mirrored, -x, t), mirror_want),
                              (characteristic_map(sheared, x + c * t, t), z + c * t),
                              (characteristic_map(mirrored, -x, t), -z)):
                assert np.all(np.abs(got - want) <= QUAD_ABS_TOL + QUAD_REL_TOL * np.abs(want))


def test_shear_and_reflection_keep_the_covariance_matrix(rng):
    # the limit field's distances are crossing moments, which both maps keep
    c = 0.375
    points = [SpaceTimePoint(*rng.uniform(-2.0, 2.0, 2)) for _ in range(5)]
    for model, sheared, mirrored in zip(_symmetry_models(), _symmetry_models(c),
                                        _symmetry_models(mirror=True)):
        want = covariance_matrix(model, points)
        for image, image_points in (
                (sheared, [SpaceTimePoint(p.x + c * p.t, p.t) for p in points]),
                (mirrored, [SpaceTimePoint(-p.x, p.t) for p in points])):
            got = covariance_matrix(image, image_points)
            assert np.all(np.abs(got - want) <= QUAD_ABS_TOL + QUAD_REL_TOL * np.abs(want))
