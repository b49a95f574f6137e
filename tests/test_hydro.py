import math
import re
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
from hrfl.config import build_model
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


def test_pointwise_density_and_residual_grid_need_velocity_atoms(reference_model):
    with pytest.raises(NotImplementedError, match="the pointwise rod density is implemented"):
        rod_density(reference_model, 0.1, 0.5, 1.0, 0.3)
    with pytest.raises(NotImplementedError, match="the residual grid is implemented"):
        ghd_residual(reference_model, [-0.1, 0.0, 0.1], [0.1, 0.2, 0.3])


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


def test_empirical_mass_outside_the_region_is_rejected(single_velocity_bump):
    # outside the region not every line of [0, z) was sampled, so the mass
    # would silently come out too small
    region = ObservationRegion((0.5, 2.0), (0.0, 1.0))
    cfg = sample(single_velocity_bump, 1e-2, region, 5)
    for z, t in ((3.0, 0.5), (1.0, 1.5), (1.0, 0.5)):     # (0, t) outside last
        with pytest.raises(ValueError, match="outside"):
            empirical_mass(cfg, z, t)
    inside = ObservationRegion((0.0, 2.0), (0.0, 1.0))
    cfg = sample(single_velocity_bump, 1e-2, inside, 5)
    assert empirical_mass(cfg, 1.0, 0.5) > 0.0


def test_negative_marks_rejected():
    model = IntensityModel(ConstantDensity(1.0),
                           ProductKernel(UniformVelocity(-1, 1),
                                         ConstantMark(-0.5)))
    with pytest.raises(ValueError, match="r >= 0"):
        sigma(model, 0.0, 0.0)
    with pytest.raises(ValueError, match="r >= 0"):
        characteristic_map(model, 0.0, 0.0)


NEGATIVE_MARK_ATOMS = IntensityModel(ConstantDensity(1.0),
                                     DiscreteKernel([(-1.0, -0.4, 0.5), (1.0, 0.6, 0.5)]))


@pytest.mark.parametrize("entry,args", [
    (sigma, (0.0, 0.5)),
    (characteristic_map, (0.0, 0.5)),
    (inverse_characteristic, (0.0, 0.5)),
    (rod_density, (0.0, 1.0, 0.6, 0.5)),
    (squeezed_length_fraction, (0.0, 0.5)),
    (effective_velocity, (0.0, 1.0, 0.5)),
    (ghd_residual, (np.linspace(-1.0, 1.0, 5), np.linspace(0.1, 0.5, 3))),
], ids=lambda v: getattr(v, "__name__", "args"))
def test_every_public_entry_rejects_negative_marks(entry, args):
    # sigma, characteristic_map and inverse_characteristic check the marks;
    # every other entry reaches one of them
    with pytest.raises(ValueError, match="r >= 0"):
        entry(NEGATIVE_MARK_ATOMS, *args)


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
    # one time per node, zero and negative times among them
    ts = np.resize([0.0, 0.3, -0.7, 1.1, -0.05, 0.0], len(qs))
    xs = inverse_characteristic(model, qs, ts)
    one_by_one = np.array([inverse_characteristic(model, float(q), float(t))
                           for q, t in zip(qs, ts)])
    assert xs.shape == qs.shape and xs.tobytes() == one_by_one.tobytes()
    # one q against many times broadcasts
    at_times = np.array([inverse_characteristic(model, 0.25, float(t)) for t in ts])
    assert inverse_characteristic(model, 0.25, ts).tobytes() == at_times.tobytes()


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
        # Z and the net moment of limit_field share one integrand
        assert z == want
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
                                 ([0.0, -math.inf], 0.2), (0.3, math.nan),
                                 ([0.0, 0.3, 0.6], [0.2, math.nan, 0.1]),
                                 (0.3, [0.0, -math.inf])])
def test_inverse_of_non_finite_input_is_value_error(q, t):
    with pytest.raises(ValueError, match="finite"):
        inverse_characteristic(bump_two_velocity(), q, t)


def test_inverse_of_a_non_finite_z_is_a_numerical_error():
    # Z(10) - 10 overflows to inf at rho = 1e308, so no bracket is finite
    from hrfl import hydro

    model = IntensityModel(ConstantDensity(1e308),
                           DiscreteKernel([(-1.0, 0.5, 0.5), (1.0, 0.5, 0.5)]))
    with np.errstate(over="ignore"), pytest.raises(hydro.CharacteristicInverseError,
                                                   match="not finite"):
        inverse_characteristic(model, 10.0, 0.2)


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


def test_inverse_errors_of_array_calls_stay_on_one_line(monkeypatch):
    # thousands of per-node times must not reach the message: it names the
    # count of failing nodes and the first one
    from hrfl import hydro

    qs, ts = np.linspace(-1.0, 1.0, 3001), np.linspace(0.0, 0.5, 3001)
    monkeypatch.setattr(hydro, "MAX_INVERSE_STEPS", 1)
    with pytest.raises(hydro.CharacteristicInverseError, match="steps") as info:
        inverse_characteristic(bump_two_velocity(), qs, ts)
    message = str(info.value)
    assert "\n" not in message and len(message) < 200
    assert re.search(r"in 1 steps at \d+ of 3001 nodes, the first at \(q, t\) = \(", message)

    # at rho = 1e308, Z(q) - q overflows for q >= 5 and is 0 at q = 0
    model = IntensityModel(ConstantDensity(1e308),
                           DiscreteKernel([(-1.0, 0.5, 0.5), (1.0, 0.5, 0.5)]))
    qs = np.concatenate([[0.0], np.linspace(5.0, 10.0, 3000)])
    with np.errstate(over="ignore"), pytest.raises(hydro.CharacteristicInverseError,
                                                   match="not finite") as info:
        inverse_characteristic(model, qs, np.full(len(qs), 0.2))
    assert str(info.value) == ("Z(q, t) - q is not finite at 3000 of 3001 nodes, the first "
                               "at (q, t) = (5.0, 0.2), so the inverse has no bracket")


SPECIES_MODELS = [
    pytest.param(bump_two_velocity(), id="bump_two_velocity"),
    pytest.param(IntensityModel(INVERSE_RHOS["smooth"], _two_cell_atoms()), id="two-cell"),
]


def _per_row_residual(model, q_nodes, t_nodes):
    # ghd_residual's residual and kept q columns, one scalar-t _species_state
    # call per t row and the images of the density jumps excluded row by row
    vs = np.array(model.kernel.atom_velocities())[:, None]
    G, F = [], []
    for tv in t_nodes:
        st = _species_state(model, q_nodes, float(tv))
        veff = vs + (vs * st.sigma_tilde - st.pi_tilde) / (1.0 - st.sigma_tilde)
        G.append(st.g)
        F.append(veff * st.g)
    G, F = np.stack(G, axis=1), np.stack(F, axis=1)
    h_q, h_t = float(q_nodes[1] - q_nodes[0]), float(t_nodes[1] - t_nodes[0])
    res = ((G[:, 2:, 1:-1] - G[:, :-2, 1:-1]) / (2.0 * h_t)
           + (F[:, 1:-1, 2:] - F[:, 1:-1, :-2]) / (2.0 * h_q))
    q_in = q_nodes[1:-1]
    keep = np.ones(len(q_in), dtype=bool)
    for tv in t_nodes[1:-1]:
        jumps = (np.array(model.edges)[:, None] + vs.T * float(tv)).ravel()
        images = characteristic_map(model, jumps, float(tv))
        near = (q_in[:, None] >= images - 2.0 * h_q) & (q_in[:, None] <= images + 2.0 * h_q)
        keep &= ~near.any(axis=1)
    return res[:, :, keep], q_in[keep]


@pytest.mark.parametrize("model", SPECIES_MODELS + [pytest.param(
    IntensityModel(INVERSE_RHOS["piecewise"], INVERSE_KERNELS["atoms"]), id="piecewise-rho")])
def test_ghd_residual_equals_a_per_row_reference_bitwise(model, monkeypatch):
    from hrfl import hydro

    qs, ts = np.linspace(-1.2, 1.0, 23), np.linspace(-0.2, 0.5, 11)
    inverses = []
    inverse = hydro.inverse_characteristic
    monkeypatch.setattr(hydro, "inverse_characteristic",
                        lambda *args: inverses.append(args) or inverse(*args))
    monkeypatch.setattr(hydro, "BLOCK_NODES", 3 * len(qs) + 5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        got = ghd_residual(model, qs, ts)
    # blocks of three whole t rows, the last of two
    assert [len(q) for _, q, _ in inverses] == [69, 69, 69, 46]
    inverses.clear()
    res, q_kept = _per_row_residual(model, qs, ts)
    assert len(inverses) == len(ts)
    assert got.residual.tobytes() == res.tobytes()
    assert got.q.tobytes() == q_kept.tobytes() and got.t.tobytes() == ts[1:-1].tobytes()
    assert got.max_norm == float(np.abs(res).max(initial=0.0))
    if len(model.kernel.cells) > 1 or len(model.edges) > 2:
        assert 0 < len(q_kept) < len(qs) - 2      # the jump images take some columns


@pytest.mark.parametrize("model", [bump_two_velocity(), IntensityModel(
    INVERSE_RHOS["piecewise"], INVERSE_KERNELS["atoms"])], ids=["bump", "piecewise-rho"])
def test_residual_csv_keeps_the_bytes_of_indexed_rows(model, tmp_path):
    # to_csv writes tolist() values; the file must equal rows that index
    # the numpy arrays element by element, excluded q columns included
    from hrfl.reporting import write_csv

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        res = ghd_residual(model, np.linspace(-1.2, 1.0, 23), np.linspace(-0.2, 0.5, 7))
    res.to_csv(tmp_path / "columns.csv")
    rows = [(s, tv, qv, res.residual[s, i, j]) for s in range(res.residual.shape[0])
            for i, tv in enumerate(res.t) for j, qv in enumerate(res.q)]
    assert len(rows) >= 2 * 5 * 3
    write_csv(tmp_path / "indexed.csv", ("species", "t", "q", "residual"), rows)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "indexed.csv").read_bytes()


def test_residual_csv_streams_its_rows(tmp_path):
    # to_csv writes one (species, t) block at a time: the bytes of four whole
    # tolist() columns, without holding them
    import tracemalloc

    from hrfl.hydro import GhdResidual
    from hrfl.reporting import write_csv

    rng = np.random.default_rng(11)
    ns, nt, nq = 2, 100, 500
    res = GhdResidual(q=np.linspace(-1.0, 1.0, nq), t=np.linspace(0.05, 0.45, nt),
                      residual=rng.normal(size=(ns, nt, nq)) * 1e-3,
                      max_norm=0.0, l2_norm=0.0, h_q=0.0, h_t=0.0)
    columns = (np.repeat(np.arange(ns), nt * nq), np.tile(np.repeat(res.t, nq), ns),
               np.tile(res.q, ns * nt), res.residual.ravel())
    write_csv(tmp_path / "columns.csv", ("species", "t", "q", "residual"),
              zip(*(c.tolist() for c in columns)))
    tracemalloc.start()
    try:
        res.to_csv(tmp_path / "streamed.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "columns.csv").read_bytes()
    assert peak < 2 * 2 ** 20


def test_ghd_breakdown_names_the_grid_level_and_block(monkeypatch):
    # a division by zero in the second block of level 1 (9 x 5 nodes, blocks
    # of two t rows) must say where it happened, not only what numpy saw
    from hrfl import hydro

    species_state = hydro._species_state
    t_bad = np.linspace(0.05, 0.45, 5)[3]

    def failing(model, q, t):
        if len(q) == 18 and t_bad in t:
            np.divide(1.0, np.zeros(1))
        return species_state(model, q, t)

    monkeypatch.setattr(hydro, "_species_state", failing)
    monkeypatch.setattr(hydro, "BLOCK_NODES", 18)
    with pytest.raises(FloatingPointError) as err:
        hydro.residual_refinement(bump_two_velocity(), (-0.8, 0.8), (0.05, 0.45), 5, 3, 1)
    msg = str(err.value)
    assert msg.startswith("grid level 1: divide by zero encountered in divide")
    assert "t rows 2..3 (t = 0.25..0.35) of the 9 x 5 (q x t) grid" in msg
    with pytest.raises(FloatingPointError, match=r"^divide by zero .* t rows 2\.\.3 "):
        hydro.ghd_residual(bump_two_velocity(), np.linspace(-0.8, 0.8, 9),
                           np.linspace(0.05, 0.45, 5))


@pytest.mark.parametrize("model", SPECIES_MODELS)
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


# the ghd-grid benchmark model, built from its config
GHD_GRID_MODEL = {"rho": {"kind": "bump", "center": 0.0, "width": 2.0, "height": 0.5, "power": 4},
                  "kernel": {"kind": "atoms", "atoms": [{"v": -1.0, "r": 0.4, "weight": 0.5},
                                                        {"v": 1.0, "r": 0.6, "weight": 0.5}]}}
GHD_GRID = ((-0.8, 0.8), (0.05, 0.45), 17, 9, 2)
REFINEMENT_CASES = [
    pytest.param(build_model(GHD_GRID_MODEL), *GHD_GRID, id="ghd-grid"),
    # the jump images' margins take every interior column of level 0
    pytest.param(IntensityModel(INVERSE_RHOS["piecewise"],
                                DiscreteKernel([(-1.0, 0.4, 0.5), (1.0, 0.6, 0.5)])),
                 (-1.5, 1.5), (0.05, 0.45), 21, 7, 2, id="piecewise-rho"),
    pytest.param(build_model(GHD_GRID_MODEL), (-0.8, 0.8), (0.05, 0.45), 6, 4, 3,
                 id="odd-size"),
]


@pytest.mark.parametrize("model,q_range,t_range,nq,nt,refinements", REFINEMENT_CASES)
def test_every_refinement_level_equals_its_own_grid_bitwise(model, q_range, t_range, nq, nt,
                                                            refinements):
    # each level must be ghd_residual on its own linspace grid, whose nodes
    # are the finest level's at stride 2^(R - k): every step ratio is a power of two
    n_fine = (nq - 1) * 2 ** refinements + 1, (nt - 1) * 2 ** refinements + 1
    q_fine, t_fine = np.linspace(*q_range, n_fine[0]), np.linspace(*t_range, n_fine[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        levels, ratios = residual_refinement(model, q_range, t_range, nq, nt, refinements)
        own = []
        for k in range(refinements + 1):
            qs = np.linspace(*q_range, (nq - 1) * 2 ** k + 1)
            ts = np.linspace(*t_range, (nt - 1) * 2 ** k + 1)
            s = 2 ** (refinements - k)
            assert qs.tobytes() == q_fine[::s].tobytes() and ts.tobytes() == t_fine[::s].tobytes()
            own.append(ghd_residual(model, qs, ts))
    assert len(levels) == refinements + 1
    for got, want in zip(levels, own):
        assert got.residual.shape == want.residual.shape
        assert got.residual.tobytes() == want.residual.tobytes()
        assert got.q.tobytes() == want.q.tobytes() and got.t.tobytes() == want.t.tobytes()
        assert (got.max_norm, got.l2_norm, got.h_q, got.h_t) == (
            want.max_norm, want.l2_norm, want.h_q, want.h_t)
    want_ratios = [c.l2_norm / f.l2_norm if f.l2_norm else math.nan
                   for c, f in zip(own, own[1:])]
    assert np.array(ratios).tobytes() == np.array(want_ratios).tobytes()
    if nq == 21:                        # the piecewise-rho case
        assert len(levels[0].q) == 0 < len(levels[-1].q)


def test_refinement_evaluates_only_the_finest_level(monkeypatch):
    # levels 0..R-1 read the finest level's nodes: one _species_state call
    # per block of whole t rows of the finest grid (65 x 33 nodes), none for the others
    from hrfl import hydro

    species_state, calls = hydro._species_state, []
    monkeypatch.setattr(hydro, "_species_state",
                        lambda model, q, t: calls.append(len(q)) or species_state(model, q, t))
    model = build_model(GHD_GRID_MODEL)
    residual_refinement(model, *GHD_GRID)
    assert calls == [65 * 33]
    calls.clear()
    monkeypatch.setattr(hydro, "BLOCK_NODES", 65 * 20)
    residual_refinement(model, *GHD_GRID)
    assert calls == [65 * 20, 65 * 13]


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
        cells = sum(c * abs(cdf((x - a) / t) - cdf((x - b) / t))
                    for a, b, c in zip(edges, edges[1:], values))
        # r = 0.5 weighs sigma by r and the frozen frame's hat rate by r**2
        for mark_power, weight in ((1, 0.5), (2, 0.25)):
            want = weight * cells
            got = phase_moment(model, x, t, mark_power=mark_power)
            assert abs(got - want) <= QUAD_ABS_TOL + QUAD_REL_TOL * abs(want)


def test_limit_mass_is_one_net_moment_of_the_two_moment_form(rng):
    # the limit mass from 0 to z is one net crossing moment of (0, t)-(z, t);
    # the reference keeps the form it replaced, two limit surfaces from the origin
    from hrfl import intensity
    from hrfl.field import limit_field
    from hrfl.geometry import SpaceTimePoint

    assert intensity._CrossingMoments is intensity.IntensityModel
    models = {
        "uniform-mark": IntensityModel(ConstantDensity(0.7), ProductKernel(
            UniformVelocity(-1.0, 1.0), UniformMark(0.0, 2.0))),
        "piecewise-gaussian": IntensityModel(
            PiecewiseConstantDensity([-2.0, -0.5, 0.3, 1.5], [0.4, 1.2, 0.8]),
            ProductKernel(GaussianVelocity(0.0, 0.8), ConstantMark(1.0)), v_support=(-2.0, 2.0)),
        "bump-atoms": bump_two_velocity(),
        "dense": IntensityModel(ConstantDensity(2e4), ProductKernel(
            UniformVelocity(-1.0, 1.0), ConstantMark(1.0))),
    }
    points = [(float(z), float(t)) for z, t in rng.uniform(-3.0, 3.0, (40, 2))]
    points += [(1.3, 0.0), (-0.8, 0.0), (-2.1, 0.6), (-0.4, -1.2)]
    for name, model in models.items():
        got = np.array([limit_mass(model, z, t) for z, t in points])
        want = np.array([limit_field(model, SpaceTimePoint(z, t))
                         - limit_field(model, SpaceTimePoint(0.0, t)) for z, t in points])
        scale = np.abs(want).max()
        assert scale > 0.0, name
        assert np.abs(got - want).max() <= 1e-15 * scale, name


# ---------------------------------------------------------------------------
# one velocity-rule pass for several integrands
# ---------------------------------------------------------------------------

def _separate_pass_inverse(model, q, t):
    # inverse_characteristic's safeguarded Newton loop on separate
    # characteristic_map and sigma calls, one velocity-rule pass each
    from hrfl import hydro

    q, t = (a.ravel() for a in np.broadcast_arrays(np.asarray(q, float), np.asarray(t, float)))
    x = q.copy()
    fx = characteristic_map(model, x, t) - q
    lo, hi = q - np.maximum(fx, 0.0) - 1.0, q - np.minimum(fx, 0.0) + 1.0
    active = np.arange(len(q))
    for _ in range(hydro.MAX_INVERSE_STEPS):
        xa = x[active]
        a = np.where(fx < 0.0, xa, lo[active])
        b = np.where(fx > 0.0, xa, hi[active])
        newton = xa - fx / (1.0 + sigma(model, xa, t[active]))
        x_new = np.where(((a < newton) & (newton < b)) | (fx == 0.0), newton, 0.5 * (a + b))
        x[active], lo[active], hi[active] = x_new, a, b
        tol = hydro.INVERSE_XTOL + hydro.INVERSE_RTOL * np.abs(x_new)
        active = active[np.abs(x_new - xa) > tol]
        if not len(active):
            return x
        fx = characteristic_map(model, x[active], t[active]) - q[active]
    raise AssertionError("the reference Newton loop did not converge")


def _fused_and_separate(model, t):
    # (fused, separate) pairs: Z^-1, and sigma~ and pi~ of the species state
    qs = np.linspace(-1.5, 1.5, 13)
    x = inverse_characteristic(model, qs, t)
    st = _species_state(model, qs, t)
    s = sigma(model, x, t)
    return [(x, _separate_pass_inverse(model, qs, t)),
            (st.sigma_tilde, s / (1.0 + s)),
            (st.pi_tilde, phase_moment(model, x, t, 1) / (1.0 + s))]


FUSED_TIMES = [0.0, 0.25, -0.4, np.resize([0.1, -0.3, 0.45, 0.0], 13)]


@pytest.mark.parametrize("model", SPECIES_MODELS)
def test_fused_passes_keep_the_bits_of_separate_calls(model):
    for t in FUSED_TIMES:
        for fused, separate in _fused_and_separate(model, t):
            assert fused.tobytes() == separate.tobytes()


@pytest.mark.parametrize("name", sorted(CONTINUOUS_MODELS))
def test_fused_passes_agree_with_separate_calls_for_continuous_laws(name):
    # the integrands of one pass share its panels: equal within the tolerance
    model = CONTINUOUS_MODELS[name]()
    for t in FUSED_TIMES:
        for fused, separate in _fused_and_separate(model, t):
            np.testing.assert_allclose(fused, separate, rtol=0, atol=1e-14)


def test_atom_kernels_build_no_kink_arrays(monkeypatch):
    # the atom rule ignores the kinks, so no path may build them for atoms
    from hrfl import intensity

    class KinksBuilt(Exception):
        pass

    def build(*args):
        raise KinksBuilt

    monkeypatch.setattr(intensity, "edge_velocities", build)
    seg1, seg2 = segment(-0.3, 0.1, 0.8, 0.9), segment(0.2, -0.4, -0.1, 0.6)
    atoms = IntensityModel(INVERSE_RHOS["piecewise"], INVERSE_KERNELS["atoms"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ghd_residual(atoms, np.linspace(-1.2, 1.0, 12), np.linspace(0.1, 0.5, 5))
    assert math.isfinite(limit_mass(atoms, 0.7, 0.3))
    assert atoms.moment_intersection(1, seg1, seg2) > 0.0
    # a continuous law still asks for its kinks, on every path
    continuous = CONTINUOUS_MODELS["piecewise-gauss"]()
    for call in (lambda: sigma(continuous, 0.3, 0.5),
                 lambda: inverse_characteristic(continuous, 0.3, 0.5),
                 lambda: limit_mass(continuous, 0.7, 0.3),
                 lambda: continuous.moment_intersection(1, seg1, seg2)):
        with pytest.raises(KinksBuilt):
            call()


# ---------------------------------------------------------------------------
# the Galilean shear and the reflection of the rod-phase state
# ---------------------------------------------------------------------------

# the piecewise-rho three-atom model and the rod coordinates it is read at
SYMMETRY_RHO, SYMMETRY_KERNEL = INVERSE_RHOS["piecewise"], INVERSE_KERNELS["atoms"]
SYMMETRY_QS = np.linspace(-1.5, 1.5, 13)
SYMMETRY_TIMES = (0.25, 0.5, -0.375)
# measured within 2.2e-16 on these values of order 1
SYMMETRY_TOL = 2e-15


def _rod_state(model, q, t):
    # Z^-1, sigma~, g~ and V_eff at every atom velocity, rows in kernel order
    st = _species_state(model, q, t)
    vs = np.array(model.kernel.atom_velocities())[:, None]
    return inverse_characteristic(model, q, t), st.sigma_tilde, st.g, st.effective_velocity(vs)


def _assert_close(got, want):
    assert np.abs(np.asarray(got) - np.asarray(want)).max() <= SYMMETRY_TOL


def test_galilean_shear_moves_the_rod_state_by_c():
    # v -> v + c with (x, t) -> (x + c t, t) keeps every crossing: Z^-1
    # gains c t, sigma~ and g~ stay and V_eff gains c
    c = 0.375
    model = IntensityModel(SYMMETRY_RHO, SYMMETRY_KERNEL)
    sheared = IntensityModel(SYMMETRY_RHO, DiscreteKernel(
        [(v + c, r, w) for v, r, w in SYMMETRY_KERNEL.atoms]))
    for t in SYMMETRY_TIMES:
        x, s, g, veff = _rod_state(model, SYMMETRY_QS, t)
        x_c, s_c, g_c, veff_c = _rod_state(sheared, SYMMETRY_QS + c * t, t)
        _assert_close(x_c, x + c * t)
        _assert_close(s_c, s)
        _assert_close(g_c, g)
        _assert_close(veff_c, veff + c)


def test_reflection_negates_positions_and_velocities_of_the_rod_state():
    # (x, v) -> (-x, -v) negates Z^-1 and V_eff and keeps sigma~ and g~
    model = IntensityModel(SYMMETRY_RHO, SYMMETRY_KERNEL)
    mirrored = IntensityModel(
        PiecewiseConstantDensity(-SYMMETRY_RHO.edges[::-1], SYMMETRY_RHO.values[::-1]),
        DiscreteKernel([(-v, r, w) for v, r, w in SYMMETRY_KERNEL.atoms]))
    for t in SYMMETRY_TIMES:
        x, s, g, veff = _rod_state(model, SYMMETRY_QS, t)
        x_m, s_m, g_m, veff_m = _rod_state(mirrored, -SYMMETRY_QS, t)
        _assert_close(x_m, -x)
        _assert_close(s_m, s)
        _assert_close(g_m, g)
        _assert_close(veff_m, -veff)
