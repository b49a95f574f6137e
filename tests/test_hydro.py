import math
import warnings

import numpy as np
import pytest

from hrfl.hydro import (
    _species_state,
    characteristic_map,
    effective_velocity,
    empirical_mass,
    ghd_residual,
    inverse_characteristic,
    limit_mass,
    phase_moment,
    residual_refinement,
    rod_density,
    sigma,
    squeezed_length_fraction,
)
from hrfl.intensity import (
    QUAD_ABS_TOL,
    QUAD_REL_TOL,
    ConstantDensity,
    ConstantMark,
    DiscreteKernel,
    GaussianVelocity,
    IntensityModel,
    PiecewiseConstantDensity,
    PiecewiseKernel,
    ProductKernel,
    SmoothDensity,
    UniformMark,
    UniformVelocity,
)
from hrfl.geometry import segment
from hrfl.sampler import ObservationRegion, sample


def bump_two_velocity(height=0.5, width=2.0, r1=0.4, r2=0.6):
    rho = SmoothDensity(lambda x: height * np.clip(1 - (np.asarray(x) / width) ** 2,
                                                   0, None) ** 4,
                        (-width, width))
    kern = DiscreteKernel([(-1.0, r1, 0.5), (1.0, r2, 0.5)])
    return IntensityModel(rho, kern)


@pytest.fixture(scope="module")
def single_velocity_bump():
    return IntensityModel(PiecewiseConstantDensity([0, 1], [1.0]),
                          DiscreteKernel([(1.0, 1.0, 1.0)]))


@pytest.fixture(scope="module")
def homogeneous_atoms():
    return IntensityModel(ConstantDensity(0.8),
                          DiscreteKernel([(-1.0, 0.5, 0.5), (1.0, 0.25, 0.5)]))


def test_sigma_empty_model():
    empty = IntensityModel(ConstantDensity(0.0),
                           DiscreteKernel([(1.0, 1.0, 1.0)]))
    assert sigma(empty, 0.3, 0.7) == 0.0


def test_sigma_homogeneous_constant(reference_model):
    for x, t in [(0.0, 0.0), (1.2, -0.7), (-3.0, 2.0)]:
        assert sigma(reference_model, x, t) == pytest.approx(1.0, abs=1e-10)


def test_sigma_transported_indicator(single_velocity_bump):
    # sigma(x, t) = 1{x - t in [0, 1]}
    assert sigma(single_velocity_bump, 1.5, 1.0) == 1.0
    assert sigma(single_velocity_bump, -0.5, 1.0) == 0.0
    assert sigma(single_velocity_bump, 0.5, 0.0) == 1.0


def test_sigma_is_space_derivative_of_limit_surface(homogeneous_atoms):
    from hrfl.field import limit_field
    from hrfl.geometry import SpaceTimePoint

    bump = bump_two_velocity()
    h = 1e-5
    for x, t in [(0.3, 0.2), (-0.5, 0.4)]:
        fd = (limit_field(bump, SpaceTimePoint(x + h, t))
              - limit_field(bump, SpaceTimePoint(x - h, t))) / (2 * h)
        assert fd == pytest.approx(sigma(bump, x, t), abs=1e-6)


def test_characteristic_map_examples(reference_model):
    # homogeneous unit model: Z(x, 0) = x + x
    assert characteristic_map(reference_model, 2.0, 0.0) == pytest.approx(4.0, abs=1e-9)
    empty = IntensityModel(ConstantDensity(0.0), DiscreteKernel([(1.0, 1.0, 1.0)]))
    assert characteristic_map(empty, 1.7, 3.0) == 1.7
    assert inverse_characteristic(empty, 1.7, 3.0) == pytest.approx(1.7, abs=1e-12)


def test_characteristic_roundtrip(reference_model, rng):
    for _ in range(200):
        q = float(rng.uniform(-5, 5))
        t = float(rng.uniform(-2, 2))
        x = inverse_characteristic(reference_model, q, t)
        assert abs(characteristic_map(reference_model, x, t) - q) <= 1e-10


def test_characteristic_roundtrip_bump(rng):
    model = bump_two_velocity()
    for _ in range(100):
        q = float(rng.uniform(-3, 3))
        t = float(rng.uniform(0, 1))
        x = inverse_characteristic(model, q, t)
        assert abs(characteristic_map(model, x, t) - q) <= 1e-10


def test_rod_density_inverts_the_characteristic_once(monkeypatch):
    from hrfl import hydro
    model = bump_two_velocity()
    inverses = []
    inverse = hydro.inverse_characteristic

    def counted(*args):
        inverses.append(args)
        return inverse(*args)

    monkeypatch.setattr(hydro, "inverse_characteristic", counted)
    rod_density(model, 0.3, 1.0, 0.6, 0.4)
    assert len(inverses) == 1


def test_rod_density_homogeneous(homogeneous_atoms):
    # constant sigma = 0.8 * (0.5*0.5 + 0.5*0.25) = 0.3; each species
    # density is w * c / (1 + sigma)
    s = sigma(homogeneous_atoms, 0.0, 0.0)
    assert s == pytest.approx(0.3, abs=1e-12)
    got = rod_density(homogeneous_atoms, 1.3, -1.0, 0.5, 0.7)
    assert got == pytest.approx(0.5 * 0.8 / 1.3, abs=1e-10)


def test_rod_density_reads_the_mark():
    # the species (v, r) counts only the atoms that carry the mark r
    rho = PiecewiseConstantDensity([-2.0, 0.0, 2.0], [0.6, 0.3])
    model = IntensityModel(rho, DiscreteKernel([(0.5, 0.2, 0.5), (-0.5, 0.4, 0.5)]))
    assert rod_density(model, 0.1, 0.5, 0.2, 0.3) > 0.0
    with pytest.raises(ValueError, match="not an atom"):
        rod_density(model, 0.1, 0.5, 99.0, 0.3)
    with pytest.raises(ValueError, match="not an atom"):
        rod_density(model, 0.1, 0.5, 0.4, 0.3)

    shared = IntensityModel(rho, DiscreteKernel(
        [(0.5, 0.2, 0.2), (0.5, 0.3, 0.3), (-0.5, 0.4, 0.5)]))
    q, t = 0.1, 0.3
    x = inverse_characteristic(shared, q, t)
    for r, w in [(0.2, 0.2), (0.3, 0.3)]:
        want = w * rho.value(x - 0.5 * t) / (1.0 + sigma(shared, x, t))
        assert rod_density(shared, q, 0.5, r, t) == pytest.approx(want, abs=1e-12)


def test_rod_density_of_an_atom_absent_at_the_pre_image():
    # (1, 0.7) is an atom of the right cell only; left of 0 its density is 0
    kern = PiecewiseKernel([(-3.0, 0.0, DiscreteKernel([(1.0, 0.2, 1.0)])),
                            (0.0, 3.0, DiscreteKernel([(1.0, 0.7, 1.0)]))])
    model = IntensityModel(PiecewiseConstantDensity([-2.0, 2.0], [0.5]), kern)
    assert rod_density(model, -1.0, 1.0, 0.7, 0.0) == 0.0
    assert rod_density(model, 1.0, 1.0, 0.7, 0.0) > 0.0
    with pytest.raises(ValueError, match="not an atom"):
        rod_density(model, -1.0, 1.0, 0.5, 0.0)


def test_rod_density_integrates_to_squeezed_fraction(rng):
    model = bump_two_velocity()
    for _ in range(20):
        q = float(rng.uniform(-2, 2))
        t = float(rng.uniform(0, 0.8))
        total = (0.4 * rod_density(model, q, -1.0, 0.4, t)
                 + 0.6 * rod_density(model, q, 1.0, 0.6, t))
        assert total == pytest.approx(squeezed_length_fraction(model, q, t),
                                      abs=1e-10)


def test_effective_velocity_single_species(single_velocity_bump):
    assert effective_velocity(single_velocity_bump, 0.7, 1.0, 0.3) == pytest.approx(
        1.0, abs=1e-12)


def test_effective_velocity_empty_model():
    empty = IntensityModel(ConstantDensity(0.0), DiscreteKernel([(1.0, 1.0, 1.0)]))
    assert effective_velocity(empty, 0.0, 0.35, 1.0) == 0.35


def test_effective_velocity_against_direct_quadrature(rng):
    # recompute sigma~ and pi~ from scratch at the pre-image point
    model = bump_two_velocity()
    q, t, v = 0.4, 0.3, 1.0
    x = inverse_characteristic(model, q, t)
    s = sigma(model, x, t)
    st = s / (1 + s)
    pt = phase_moment(model, x, t, 1) / (1 + s)
    want = v + (v * st - pt) / (1 - st)
    assert effective_velocity(model, q, v, t) == pytest.approx(want, abs=1e-10)


def test_ghd_residual_homogeneous_is_zero(homogeneous_atoms):
    res = ghd_residual(homogeneous_atoms, np.linspace(-1, 1, 9),
                       np.linspace(0, 0.4, 5))
    assert res.max_norm <= 1e-10


def test_ghd_residual_single_velocity_transport(single_velocity_bump):
    # exact transport solution: residual is pure stencil error, O(h^2),
    # away from the indicator's edges (excluded with a warning)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = ghd_residual(single_velocity_bump, np.linspace(-0.5, 3.0, 36),
                           np.linspace(0.0, 1.0, 11))
    assert res.max_norm <= 1e-8


def test_ghd_refinement_ratio(rng):
    model = bump_two_velocity()
    _, ratios = residual_refinement(model, (-0.8, 0.8), (0.05, 0.45),
                                    17, 9, refinements=2)
    for r in ratios:
        assert 3.2 <= r <= 4.8


def test_inverse_characteristic_derivative_identity(rng):
    # d/dq of the inverse map equals 1 - sigma~
    model = bump_two_velocity()
    h = 1e-5
    for _ in range(10):
        q = float(rng.uniform(-1.5, 1.5))
        t = float(rng.uniform(0.1, 0.6))
        fd = (inverse_characteristic(model, q + h, t)
              - inverse_characteristic(model, q - h, t)) / (2 * h)
        assert fd == pytest.approx(1 - squeezed_length_fraction(model, q, t),
                                   abs=1e-6)


def test_inverse_characteristic_time_derivative_identity(rng):
    # d/dt of the inverse map equals the rod momentum density; the sign is
    # pinned by the single-species transport case, where it must equal
    # v * sigma~ so that the effective velocity collapses to v
    model = bump_two_velocity()
    h = 1e-5
    for _ in range(10):
        q = float(rng.uniform(-1.5, 1.5))
        t = float(rng.uniform(0.1, 0.6))
        fd = (inverse_characteristic(model, q, t + h)
              - inverse_characteristic(model, q, t - h)) / (2 * h)
        x = inverse_characteristic(model, q, t)
        pi_tilde = phase_moment(model, x, t, 1) / (1 + sigma(model, x, t))
        assert fd == pytest.approx(pi_tilde, abs=1e-6)


def test_mass_conservation_under_time(rng):
    # total rod length integral of the rod density is time independent
    model = bump_two_velocity()
    from scipy.integrate import quad

    def total_length(t):
        def fr(q, v, r):
            return r * rod_density(model, q, v, r, t)
        out = 0.0
        for v, r in [(-1.0, 0.4), (1.0, 0.6)]:
            out += quad(lambda q: fr(q, v, r), -6, 6, limit=200)[0] * r
        return out

    t0, t1 = total_length(0.0), total_length(0.5)
    assert t0 == pytest.approx(t1, rel=1e-6)


def test_limit_mass_matches_phase_integral(single_velocity_bump):
    # m_0^z(mu_t): single species, mass in [0, z] of the transported bump
    # at t = 0.5 the bump occupies [0.5, 1.5]
    assert limit_mass(single_velocity_bump, 1.0, 0.5) == pytest.approx(0.5, abs=1e-9)
    assert limit_mass(single_velocity_bump, -1.0, 0.5) == pytest.approx(0.0, abs=1e-9)


def test_piecewise_cell_with_repeated_velocity_counts_every_atom():
    # two atoms share v = 0.5 with different marks; wrapping the kernel in a
    # single piecewise cell must not change any moment
    atoms = DiscreteKernel([(0.5, 0.2, 0.3), (0.5, 0.8, 0.3), (-0.5, 0.4, 0.4)])
    rho = PiecewiseConstantDensity([-2.0, 2.0], [0.5])
    plain = IntensityModel(rho, atoms)
    celled = IntensityModel(rho, PiecewiseKernel([(-3.0, 3.0, atoms)]))
    seg = segment(-1.0, 0.0, 1.0, 0.0)
    # rho mass 0.5 * 2 on seg times sum w r = 0.46
    assert celled.moment_on_crossing(1, seg) == pytest.approx(0.46, abs=1e-12)
    assert plain.moment_on_crossing(1, seg) == pytest.approx(0.46, abs=1e-12)
    # the rod-phase state too; the celled kernel lists its velocities sorted
    qs = np.linspace(-2.5, 2.5, 21)
    for t in (0.0, 0.3):
        a, b = _species_state(plain, qs, t), _species_state(celled, qs, t)
        g_plain = dict(zip(plain.kernel.atom_velocities(), a.g))
        for v, g in zip(celled.kernel.atom_velocities(), b.g):
            np.testing.assert_allclose(g, g_plain[v], rtol=0, atol=1e-14)
        for field in ("sigma_tilde", "pi_tilde"):
            np.testing.assert_allclose(getattr(b, field), getattr(a, field),
                                       rtol=0, atol=1e-14)


def test_empirical_mass_converges(single_velocity_bump):
    region = ObservationRegion((-0.5, 2.0), (0.0, 1.0))
    eps = 1e-3
    vals = [empirical_mass(sample(single_velocity_bump, eps, region, 5, (i,)),
                           1.0, 0.5) for i in range(200)]
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert np.mean(vals) == pytest.approx(0.5, abs=4 * se)


def test_negative_marks_rejected():
    model = IntensityModel(ConstantDensity(1.0),
                           ProductKernel(UniformVelocity(-1, 1),
                                         ConstantMark(-0.5)))
    with pytest.raises(ValueError, match="r >= 0"):
        sigma(model, 0.0, 0.0)
    with pytest.raises(ValueError, match="r >= 0"):
        characteristic_map(model, 0.0, 0.0)


# ---------------------------------------------------------------------------
# the characteristic inverse over arrays
# ---------------------------------------------------------------------------

def _two_cell_atoms():
    # the species weights jump at x = 0; the cells cover the whole line, so
    # the kernel goes with any density
    def cell(w_minus, w_plus):
        return DiscreteKernel([(-1.0, 0.4, w_minus), (1.0, 0.6, w_plus)])
    return PiecewiseKernel([(-math.inf, 0.0, cell(0.5, 0.5)), (0.0, math.inf, cell(0.2, 0.8))])


INVERSE_RHOS = {
    "constant": ConstantDensity(0.8),
    "piecewise": PiecewiseConstantDensity([-2.0, -0.5, 0.7, 2.0], [0.3, 0.9, 0.5]),
    "smooth": SmoothDensity(lambda x: 0.5 * np.clip(1 - (np.asarray(x) / 2.0) ** 2,
                                                    0, None) ** 4, (-2.0, 2.0)),
}
INVERSE_KERNELS = {
    "atoms": DiscreteKernel([(-1.0, 0.4, 0.3), (0.5, 0.2, 0.3), (1.0, 0.6, 0.4)]),
    "cells": _two_cell_atoms(),
}


def _inverse_models():
    return [pytest.param(IntensityModel(rho, kern), id=f"{kname}-{rname}")
            for kname, kern in INVERSE_KERNELS.items()
            for rname, rho in INVERSE_RHOS.items()]


def _bisect_inverse(model, q, t):
    # Z from the crossing moments of limit_field, halved until the bracket collapses
    from hrfl.field import limit_field
    from hrfl.geometry import SpaceTimePoint

    def z(x):
        return x + limit_field(model, SpaceTimePoint(x, t))

    lo, hi = q - 10.0, q + 10.0
    assert z(lo) < q < z(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if z(mid) < q:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("model", _inverse_models())
def test_inverse_array_and_scalar_calls_agree_bitwise(model):
    qs = np.linspace(-2.5, 2.5, 41)
    for t in (0.0, 0.3, -0.7):
        xs = inverse_characteristic(model, qs, t)
        assert xs.shape == qs.shape
        one_by_one = np.array([inverse_characteristic(model, float(q), t) for q in qs])
        assert xs.tobytes() == one_by_one.tobytes()
        assert isinstance(inverse_characteristic(model, 0.25, t), float)
    grid = inverse_characteristic(model, qs.reshape(41, 1), 0.3)
    assert grid.shape == (41, 1)
    assert grid.ravel().tobytes() == inverse_characteristic(model, qs, 0.3).tobytes()


@pytest.mark.parametrize("model", _inverse_models())
def test_inverse_agrees_with_scalar_bisection(model, rng):
    qs = rng.uniform(-2.5, 2.5, 12)
    for t in (0.05, 0.4, -0.6):
        xs = inverse_characteristic(model, qs, t)
        for q, x in zip(qs, xs):
            assert abs(x - _bisect_inverse(model, float(q), t)) <= 1e-12


@pytest.mark.parametrize("model", _inverse_models())
def test_characteristic_map_array_matches_limit_field(model):
    from hrfl.field import limit_field
    from hrfl.geometry import SpaceTimePoint

    xs = np.linspace(-3.0, 3.0, 25)
    zs = characteristic_map(model, xs, 0.35)
    for x, z in zip(xs, zs):
        want = x + limit_field(model, SpaceTimePoint(float(x), 0.35))
        assert z == pytest.approx(want, abs=1e-14)
    # numpy's array and scalar power may round a smooth rho an ulp apart
    np.testing.assert_allclose(sigma(model, xs, 0.35),
                               [sigma(model, float(x), 0.35) for x in xs],
                               rtol=1e-15, atol=0.0)


def test_continuous_law_inverse_round_trips_over_arrays(reference_model):
    qs = np.linspace(-3.0, 3.0, 7)
    for t in (0.0, 0.8):
        xs = inverse_characteristic(reference_model, qs, t)
        assert np.abs(characteristic_map(reference_model, xs, t) - qs).max() <= 1e-10
        np.testing.assert_allclose(
            xs, [inverse_characteristic(reference_model, float(q), t) for q in qs],
            rtol=0, atol=1e-14)


CONTINUOUS_MODELS = {
    "uniform": lambda: IntensityModel(INVERSE_RHOS["smooth"],
                                      ProductKernel(UniformVelocity(-1.0, 1.0),
                                                    UniformMark(0.0, 2.0))),
    "piecewise-gauss": lambda: IntensityModel(
        INVERSE_RHOS["piecewise"], ProductKernel(GaussianVelocity(0.2, 1.0), ConstantMark(0.5)),
        v_support=(-3.0, 3.0)),
}


@pytest.mark.parametrize("name", sorted(CONTINUOUS_MODELS))
def test_continuous_law_array_calls_are_permutation_invariant(name, rng):
    # the positions of one call share a panel set, and each column is summed
    # by itself, so permuting the positions permutes the results bit for bit
    model = CONTINUOUS_MODELS[name]()
    xs = rng.uniform(-2.5, 2.5, 24)
    perm = rng.permutation(len(xs))
    for t in (0.0, 0.35, -0.6):
        for fn in (sigma, characteristic_map, inverse_characteristic):
            got = fn(model, xs, t)
            assert fn(model, xs[perm], t).tobytes() == got[perm].tobytes()
            # one call per element has its own panels: equal within the tolerance
            np.testing.assert_allclose(got, [fn(model, float(x), t) for x in xs],
                                       rtol=0, atol=1e-14)


@pytest.mark.parametrize("q,t", [(math.nan, 0.2), (math.inf, 0.2),
                                 ([0.0, -math.inf], 0.2), (0.3, math.nan)])
def test_inverse_of_non_finite_input_is_value_error(q, t):
    with pytest.raises(ValueError, match="finite"):
        inverse_characteristic(bump_two_velocity(), q, t)


def test_inverse_step_cap_raises_numerical_error(monkeypatch, tmp_path, capsys):
    import json

    from hrfl import hydro
    from hrfl.cli import main

    model = bump_two_velocity()
    monkeypatch.setattr(hydro, "MAX_INVERSE_STEPS", 1)
    with pytest.raises(hydro.CharacteristicInverseError, match="steps"):
        inverse_characteristic(model, 0.4, 0.3)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "model": {"rho": {"kind": "bump", "center": 0.0, "width": 2.0, "height": 0.5},
                  "kernel": {"kind": "atoms",
                             "atoms": [{"v": -1.0, "r": 0.4, "weight": 0.5},
                                       {"v": 1.0, "r": 0.6, "weight": 0.5}]}},
        "experiment": {"kind": "ghd-residual", "q_range": [-0.8, 0.8],
                       "t_range": [0.05, 0.45], "nq": 5, "nt": 3}}))
    out = tmp_path / "runs"
    assert main(["ghd-residual", "--config", str(cfg), "--out", str(out)]) == 3
    assert "numerical error" in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))


@pytest.mark.parametrize("model", [
    pytest.param(bump_two_velocity(), id="bump_two_velocity"),
    pytest.param(IntensityModel(INVERSE_RHOS["smooth"], _two_cell_atoms()), id="two-cell"),
])
def test_species_state_matches_the_pointwise_oracles(model):
    # the residual grid's g~, sigma~ and V_eff equal rod_density,
    # squeezed_length_fraction and effective_velocity; both kernels carry
    # one mark per velocity
    marks = {-1.0: 0.4, 1.0: 0.6}
    qs = np.linspace(-1.5, 1.5, 7)
    for t in (0.0, 0.25):
        st = _species_state(model, qs, t)
        for j, q in enumerate(qs):
            assert st.sigma_tilde[j] == squeezed_length_fraction(model, q, t)
            for i, v in enumerate(model.kernel.atom_velocities()):
                assert st.g[i, j] == rod_density(model, q, v, marks[v], t)
                veff = v + (v * st.sigma_tilde[j] - st.pi_tilde[j]) / (1.0 - st.sigma_tilde[j])
                assert veff == effective_velocity(model, q, v, t)


def test_ghd_residual_excludes_kernel_cell_edges():
    # the species weights jump at the cell edge x = 0; its images must be
    # excluded like those of a density jump, or the residual is O(1) there
    model = IntensityModel(INVERSE_RHOS["smooth"], _two_cell_atoms())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        levels, ratios = residual_refinement(model, (-0.8, 0.8), (0.05, 0.15),
                                             17, 9, refinements=2)
    assert len(levels[0].q) < 15
    for r in ratios:
        assert 3.2 <= r <= 4.8


def test_ghd_refinement_of_a_zero_residual_has_undefined_ratios(homogeneous_atoms):
    levels, ratios = residual_refinement(homogeneous_atoms, (-1.0, 1.0), (0.0, 0.4),
                                         5, 3, refinements=2)
    assert [lv.max_norm for lv in levels] == [0.0, 0.0, 0.0]
    assert len(ratios) == 2 and all(math.isnan(r) for r in ratios)


def test_phase_moment_is_exact_across_rho_edges():
    # rho(x - v t) jumps where x - v t crosses an edge e, at v = (x - e) / t;
    # against the Gaussian velocity law the moment is then a sum of interval
    # probabilities, one per cell of rho
    edges, values = (-2.0, -0.5, 0.3, 1.5), (0.7, 1.3, 0.4)
    model = IntensityModel(PiecewiseConstantDensity(edges, values),
                           ProductKernel(GaussianVelocity(0.0, 1.0), ConstantMark(0.5)),
                           v_support=(-2.0, 2.0))

    def cdf(v):
        v = min(max(v, -2.0), 2.0)
        return (math.erf(v / math.sqrt(2.0)) + math.erf(math.sqrt(2.0))) / (
            2.0 * math.erf(math.sqrt(2.0)))

    for x, t in np.random.default_rng(3).uniform(-2.0, 2.0, (40, 2)):
        # the cell [a, b) of rho holds x - v t for v between (x - b) / t and (x - a) / t
        want = 0.5 * sum(c * abs(cdf((x - a) / t) - cdf((x - b) / t))
                         for a, b, c in zip(edges, edges[1:], values))
        got = phase_moment(model, x, t)
        assert abs(got - want) <= QUAD_ABS_TOL + QUAD_REL_TOL * abs(want)
