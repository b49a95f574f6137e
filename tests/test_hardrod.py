import math

import numpy as np
import pytest

from hrfl.hardrod import (
    GasConfiguration,
    RodConfiguration,
    RodOverlapError,
    SimultaneousCollisionError,
    contract,
    dilate,
    empty_space_position,
    empty_space_shift,
    evolve_events,
    evolve_surface,
    flux,
    full_evolve,
    ideal_gas_evolve,
    mass,
    origin_tracer_displacement,
    quasiparticle_positions,
    tagged_frame_evolve,
)


def random_gas(rng, n=50, halfwidth=20.0, rmax=0.3):
    return GasConfiguration(rng.uniform(-halfwidth, halfwidth, n),
                            rng.uniform(-1, 1, n),
                            rng.uniform(0.0, rmax, n))


# ---------------------------------------------------------------------------
# ideal gas and mass
# ---------------------------------------------------------------------------

def test_ideal_gas_examples(rng):
    g = GasConfiguration([1.0], [2.0], [0.5])
    assert ideal_gas_evolve(g, 0.0).x[0] == 1.0
    assert ideal_gas_evolve(g, 3.0).x[0] == 7.0
    gas = random_gas(rng)
    a = ideal_gas_evolve(ideal_gas_evolve(gas, 0.7), 1.1)
    b = ideal_gas_evolve(gas, 1.8)
    assert np.allclose(a.x, b.x, atol=1e-12)
    back = ideal_gas_evolve(ideal_gas_evolve(gas, 2.0), -2.0)
    assert np.allclose(back.x, gas.x, atol=1e-12)


def test_mass_examples():
    g = GasConfiguration([0.5], [0.0], [0.2])
    assert mass(g, 0.0, 0.0) == 0.0
    assert mass(g, 0.0, 1.0) == 0.2
    assert mass(g, 1.0, 0.0) == -0.2


def test_mass_halfopen_convention():
    # a point exactly at the left boundary counts, at the right it does not
    g = GasConfiguration([0.0, 1.0], [0.0, 0.0], [0.3, 0.4])
    assert mass(g, 0.0, 1.0) == 0.3
    assert mass(g, 0.0, 1.5) == pytest.approx(0.7)


# ---------------------------------------------------------------------------
# dilation / contraction
# ---------------------------------------------------------------------------

def test_dilate_example():
    g = GasConfiguration([1.0, 2.0], [0.1, -0.4], [0.5, 0.5])
    rods = dilate(g, 0.0)
    assert rods.y == pytest.approx([1.0, 2.5])
    rods.validate()


def test_dilate_empty():
    rods = dilate(GasConfiguration([], [], []), 0.0)
    assert rods.n == 0


def test_dilate_rejects_negative_marks():
    # the rod check of both routes: a RodOverlapError, which is a ValueError
    gas = GasConfiguration([0.0], [0.0], [-0.1])
    for route in (lambda: dilate(gas, 0.0), lambda: evolve_surface(gas, 1.0)):
        with pytest.raises(RodOverlapError, match="rod lengths must be >= 0"):
            route()


def test_dilate_avoids_reference_point(rng):
    for i in range(50):
        gas = random_gas(np.random.default_rng(i), n=30)
        z = float(np.random.default_rng(1000 + i).uniform(-10, 10))
        rods = dilate(gas, z)
        rods.validate()
        assert rods.covering_rod(z) is None


def test_contract_dilate_roundtrip(rng):
    for i in range(200):
        gas = random_gas(np.random.default_rng(i))
        z = float(rng.uniform(-10, 10))
        back = contract(dilate(gas, z), z)
        assert np.abs(back.x - gas.x).max() <= 1e-12 * 40
        assert np.array_equal(back.v, gas.v)
        assert np.array_equal(back.r, gas.r)


def test_contract_requires_free_reference():
    rods = RodConfiguration([-0.2], [0.0], [0.5])
    with pytest.raises(ValueError):
        contract(rods, 0.0)


# ---------------------------------------------------------------------------
# flux and the surface route
# ---------------------------------------------------------------------------

def test_flux_examples():
    g = GasConfiguration([1.0], [-1.0], [0.3])
    assert flux(g, 0.0, 0.0, 0.0) == 0.0
    assert flux(g, 0.0, 0.0, 2.0) == pytest.approx(0.3)


def test_flux_equals_surface_difference(rng):
    # oracle: the walk field of the same points
    from hrfl.field import surface_sum
    from hrfl.geometry import SpaceTimePoint

    for i in range(100):
        gas = random_gas(np.random.default_rng(i), n=40)
        x = float(rng.uniform(-8, 8))
        v = float(rng.uniform(-1, 1))
        t = float(rng.uniform(-2, 2))
        j = flux(gas, x, v, t)
        h1 = surface_sum(gas.x, gas.v, gas.r, SpaceTimePoint(x + v * t, t))
        h0 = surface_sum(gas.x, gas.v, gas.r, SpaceTimePoint(x, 0.0))
        assert abs(j - (h1 - h0)) <= 1e-12 * max(1.0, gas.r.sum())


def test_mass_equals_surface_at_time_zero(rng):
    from hrfl.field import surface_sum
    from hrfl.geometry import SpaceTimePoint

    for i in range(100):
        gas = random_gas(np.random.default_rng(i), n=40)
        x = float(rng.uniform(-8, 8))
        m = mass(gas, 0.0, x)
        h = surface_sum(gas.x, gas.v, gas.r, SpaceTimePoint(x, 0.0))
        assert abs(m - h) <= 1e-12 * max(1.0, gas.r.sum())


def test_evolve_surface_at_zero_is_dilation(rng):
    gas = random_gas(rng)
    rods0 = evolve_surface(gas, 0.0)
    rods1 = dilate(gas, 0.0)
    assert np.abs(rods0.y - rods1.y).max() <= 1e-12


def test_single_particle_translates():
    gas = GasConfiguration([0.7], [0.4], [0.2])
    rods = evolve_surface(gas, 2.5)
    assert rods.y[0] == pytest.approx(0.7 + 0.4 * 2.5)


# ---------------------------------------------------------------------------
# event oracle
# ---------------------------------------------------------------------------

def test_two_rod_collision_hand_case():
    # rods (0,+1,0.5) and (2,-1,0.5): contact at s = 0.75, swap, then drift
    rods = RodConfiguration([0.0, 2.0], [1.0, -1.0], [0.5, 0.5])
    out = evolve_events(rods, 0.75)
    # at contact: fast rod jumps past the slow one
    assert out.y == pytest.approx([1.25, 0.75])
    out = evolve_events(rods, 1.0)
    assert out.y == pytest.approx([1.5, 0.5])
    out.validate()


def test_no_collision_is_ballistic():
    rods = RodConfiguration([0.0, 5.0], [1.0, 1.0], [0.5, 0.5])
    out = evolve_events(rods, 3.0)
    assert out.y == pytest.approx([3.0, 8.0])


def test_equal_velocities_never_collide():
    rods = RodConfiguration([0.0, 0.5], [1.0, 1.0], [0.5, 0.3])
    out = evolve_events(rods, 10.0)
    assert out.y == pytest.approx([10.0, 10.5])



@pytest.mark.parametrize("n", [0, 1])
def test_zero_and_one_rod_run_ballistically(n):
    # no pair, so no contact: every time direction is free flight
    rods = RodConfiguration([0.3, 4.0][:n], [-0.7, 1.0][:n], [0.5, 1.0][:n])
    for t in (-2.0, 0.0, 1.5):
        out = evolve_events(rods, t)
        assert out.y.tolist() == (rods.y + rods.v * t).tolist()
        assert out.v.tolist() == rods.v.tolist() and out.r.tolist() == rods.r.tolist()
        assert out.collisions == 0

def test_overlap_detected():
    with pytest.raises(RodOverlapError):
        evolve_events(RodConfiguration([0.0, 0.1], [0, 0], [0.5, 0.5],
                                       validate=False), 1.0)


def test_simultaneous_collisions_error():
    # two symmetric pairs colliding at exactly the same instant
    rods = RodConfiguration([0.0, 1.0, 10.0, 11.0], [1.0, 0.0, 1.0, 0.0],
                            [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(SimultaneousCollisionError):
        evolve_events(rods, 1.0)


def test_events_match_surface_route(rng):
    for i in range(60):
        gas = random_gas(np.random.default_rng(i), n=80, halfwidth=25.0)
        t = float(rng.uniform(-2.5, 2.5))
        surface = evolve_surface(gas, t)
        events = evolve_events(dilate(gas, 0.0), t)
        assert np.abs(surface.y - events.y).max() < 1e-9


def test_events_commute_with_shear_and_reflection(rng):
    # v -> v + c moves every rod by c t and keeps every contact; reflecting
    # (y, v, r) -> (-y - r, -v, r) mirrors the dynamics, so a rod lands at -(y + r)
    c = 0.375
    for i in range(60):
        rods = dilate(random_gas(np.random.default_rng(i), n=80, halfwidth=25.0), 0.0)
        t = float(rng.uniform(-2.5, 2.5))
        events = evolve_events(rods, t)
        for image, want in (
                (RodConfiguration(rods.y, rods.v + c, rods.r), events.y + c * t),
                (RodConfiguration(-rods.y - rods.r, -rods.v, rods.r), -(events.y + events.r))):
            got = evolve_events(image, t)
            assert got.collisions == events.collisions
            assert np.all(np.abs(got.y - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


def test_collisions_count_the_crossed_gas_pairs(rng):
    # each collision swaps one adjacent pair, and free gas lines cross once
    for i in range(20):
        gas = random_gas(np.random.default_rng(600 + i), n=int(rng.integers(2, 120)))
        t = float(rng.uniform(-6.0, 6.0))
        x, xt = gas.x, gas.x + gas.v * t
        crossed = (x[:, None] < x[None, :]) != (xt[:, None] < xt[None, :])
        assert evolve_events(dilate(gas, 0.0), t).collisions == int(crossed.sum()) // 2


def test_long_horizon_events_match_surface_route():
    # at least 50 collisions per rod; positions must not drift from the
    # surface route as collisions accumulate
    for seed in (0, 1, 2):
        gas = random_gas(np.random.default_rng(700 + seed), n=240, halfwidth=10.0)
        t = 400.0
        events = evolve_events(dilate(gas, 0.0), t)
        assert events.collisions >= 50 * gas.n
        assert np.abs(evolve_surface(gas, t).y - events.y).max() < 1e-9


def test_conservation_and_disjointness(rng):
    gas = random_gas(rng, n=60)
    rods = dilate(gas, 0.0)
    out = evolve_events(rods, 3.0)
    out.validate()
    assert np.array_equal(np.sort(out.v), np.sort(rods.v))
    assert np.array_equal(np.sort(out.r), np.sort(rods.r))
    assert out.n == rods.n
    surf = evolve_surface(gas, 3.0)
    surf.validate()


def test_semigroup(rng):
    for i in range(30):
        gas = random_gas(np.random.default_rng(100 + i), n=40)
        rods = dilate(gas, 0.0)
        s, t = float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.1, 1.5))
        a = evolve_events(rods, s + t)
        b = evolve_events(evolve_events(rods, s), t)
        assert np.abs(a.y - b.y).max() < 1e-9
        # surface route satisfies the same law
        c = evolve_surface(gas, s + t)
        d = evolve_events(evolve_surface(gas, s), t)
        assert np.abs(c.y - d.y).max() < 1e-9


def test_time_reversal(rng):
    for i in range(30):
        gas = random_gas(np.random.default_rng(200 + i), n=40)
        rods = dilate(gas, 0.0)
        t = float(rng.uniform(0.2, 2.0))
        back = evolve_events(evolve_events(rods, t), -t)
        assert np.abs(back.y - rods.y).max() < 1e-9


# ---------------------------------------------------------------------------
# tagged frame
# ---------------------------------------------------------------------------

def test_tagged_evolutions_trivial_cases():
    rods = RodConfiguration([1.0], [0.5], [0.4])
    out = tagged_frame_evolve(rods, 0.0)
    assert out.y == pytest.approx([1.0])
    # single rod: tracer never moves, tagged and full evolutions agree
    a = tagged_frame_evolve(rods, 1.3)
    b = full_evolve(rods, 1.3)
    assert a.y == pytest.approx(b.y)
    assert b.y == pytest.approx([1.0 + 0.5 * 1.3])


def test_tagged_requires_free_origin():
    rods = RodConfiguration([-0.2], [0.0], [0.5])
    with pytest.raises(ValueError):
        tagged_frame_evolve(rods, 1.0)


def test_full_evolve_equals_events(rng):
    for i in range(60):
        gas = random_gas(np.random.default_rng(300 + i), n=40)
        rods = dilate(gas, 0.0)
        t = float(rng.uniform(-1.5, 1.5))
        a = full_evolve(rods, t)
        b = evolve_events(rods, t)
        assert np.abs(a.y - b.y).max() < 1e-9


def test_full_evolve_with_covering_rod(rng):
    for i in range(40):
        r = np.random.default_rng(400 + i)
        gas = random_gas(r, n=30)
        rods = dilate(gas, 0.0).shifted(float(r.uniform(-0.5, 0.5)))
        t = float(r.uniform(0.1, 1.5))
        a = full_evolve(rods, t)
        b = evolve_events(rods, t)
        assert np.abs(a.y - b.y).max() < 1e-9


# ---------------------------------------------------------------------------
# empty-space shift
# ---------------------------------------------------------------------------

def test_empty_space_walk_example():
    # single rod (1, v, 0.5): one unit of empty space on [0, 1], skip the
    # rod, another unit beyond it
    rods = RodConfiguration([1.0], [0.0], [0.5])
    assert empty_space_position(rods, 2.0) == pytest.approx(2.5)
    assert empty_space_position(rods, 0.5) == pytest.approx(0.5)
    assert empty_space_position(rods, -1.0) == pytest.approx(-1.0)


def test_empty_space_shift_identity_trivial(rng):
    gas = random_gas(rng, n=20)
    rods = dilate(gas, 0.0)
    out = empty_space_shift(rods, 0.0)
    assert np.abs(out.y - rods.y).max() == 0.0


def test_empty_space_shift_routes_agree(rng):
    for i in range(200):
        r = np.random.default_rng(500 + i)
        gas = random_gas(r, n=25, halfwidth=10.0)
        rods = dilate(gas, 0.0)
        z = float(r.uniform(-4, 4))
        a = empty_space_shift(rods, z, via="gaps")
        b = empty_space_shift(rods, z, via="contraction")
        assert np.abs(a.y - b.y).max() <= 1e-12 * 30
        a.validate()
        assert a.covering_rod(0.0) is None


def test_empty_space_shift_flow(rng):
    gas = random_gas(rng, n=25, halfwidth=10.0)
    rods = dilate(gas, 0.0)
    a = empty_space_shift(empty_space_shift(rods, 1.3), 0.9)
    b = empty_space_shift(rods, 2.2)
    assert np.abs(a.y - b.y).max() < 1e-12 * 30


# ---------------------------------------------------------------------------
# zero-length tracers
# ---------------------------------------------------------------------------

def test_tracer_rides_collisions(rng):
    # a zero-length zero-velocity rod inserted at the origin follows the
    # origin tracer displacement of the gas
    gas = random_gas(rng, n=30, halfwidth=8.0)
    rods = dilate(gas, 0.0)
    with_tracer = RodConfiguration(np.append(rods.y, 0.0),
                                   np.append(rods.v, 0.0),
                                   np.append(rods.r, 0.0))
    t = 1.2
    out = evolve_events(with_tracer, t)
    want = origin_tracer_displacement(gas, t)
    assert out.y[-1] == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# non-finite rods
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("y,v,r", [
    ([0.0, 0.1, math.inf], [0.0, 0.0, 0.0], [0.5, 0.5, 0.5]),
    ([0.0, 1.0], [math.nan, 0.0], [0.5, 0.5]),
    ([0.0, 1.0], [0.0, -math.inf], [0.5, 0.5]),
    ([0.0, 1.0], [0.0, 0.0], [math.nan, 0.5]),
    ([0.0], [0.0], [math.inf]),
])
def test_non_finite_rods_are_rejected(y, v, r):
    # an infinite position made the overlap tolerance infinite, so the first
    # two rods of the first case overlapped unnoticed
    with pytest.raises(RodOverlapError, match="finite"):
        RodConfiguration(y, v, r)
    # the event oracle returned a NaN position with no collision
    with pytest.raises(RodOverlapError, match="finite"):
        evolve_events(RodConfiguration(y, v, r, validate=False), 2.0)


# ---------------------------------------------------------------------------
# ties on dyadic lattice gases: every position, mark and sum is exact
# ---------------------------------------------------------------------------

def lattice_cases(seed, count=2000):
    """(gas, t): 12 particles at distinct integers in [-6, 6], v in {-1, 0, 1},
    r in {0, 0.5, 1}, and a nonzero integer t in [-4, 4]."""
    r = np.random.default_rng(seed)
    for _ in range(count):
        x = r.permutation(np.arange(-6.0, 7.0))[:12]
        gas = GasConfiguration(x, r.integers(-1, 2, 12).astype(float),
                               r.integers(0, 3, 12) * 0.5)
        yield gas, float(r.choice([-4, -3, -2, -1, 1, 2, 3, 4]))


def test_flux_is_half_open_on_lattice_gases():
    # a particle at or past the line is on its right, as in the mass
    r = np.random.default_rng(41)
    for gas, t in lattice_cases(40):
        x, v = float(r.integers(-7, 8)), float(r.integers(-1, 2))
        want = (np.sum(gas.r[gas.x + gas.v * t < x + v * t])
                - np.sum(gas.r[gas.x < x]))
        assert flux(gas, x, v, t) == want


def test_quasiparticles_are_position_plus_mass_plus_flux_on_lattice_gases():
    for gas, t in lattice_cases(42):
        m = mass(gas, 0.0, gas.x)
        want = [gas.x[i] + gas.v[i] * t + m[i] + flux(gas, gas.x[i], gas.v[i], t)
                for i in range(gas.n)]
        assert quasiparticle_positions(gas, t).tolist() == want


def test_origin_tracer_counts_particles_at_zero_on_the_right():
    # reference: the tracer's two half-open masks written out for the origin
    def halfopen_tracer_flux(gas, t):
        right_0, right_t = gas.x >= 0.0, gas.x + gas.v * t >= 0.0
        return float(np.sum(gas.r[right_0 & ~right_t])
                     - np.sum(gas.r[~right_0 & right_t]))

    at_0 = at_t = 0
    for gas, t in lattice_cases(43):
        at_0 += bool(np.any((gas.x == 0.0) & (gas.r > 0.0)))
        at_t += bool(np.any((gas.x != 0.0) & (gas.x + gas.v * t == 0.0) & (gas.r > 0.0)))
        got, want = origin_tracer_displacement(gas, t), halfopen_tracer_flux(gas, t)
        assert math.copysign(1.0, got) == math.copysign(1.0, want) and got == want
    assert at_0 > 1000 and at_t > 500


def test_empty_space_routes_agree_at_edge_ties_on_lattice_gases():
    # an integer z lands |z| of empty space exactly on a rod edge in many
    # cases; both routes must then take the smallest solution
    r = np.random.default_rng(44)
    for gas, _ in lattice_cases(44):
        rods, z = dilate(gas, 0.0), float(r.integers(-4, 5))
        a = empty_space_shift(rods, z, via="gaps")
        b = empty_space_shift(rods, z, via="contraction")
        assert np.array_equal(a.y, b.y), (gas.x.tolist(), gas.r.tolist(), z)
