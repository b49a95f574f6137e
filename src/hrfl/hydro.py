"""Deterministic hard-rod hydrodynamics and the conservation-law residual.

Everything here is evaluated analytically (quadrature on the intensity
model) rather than time-stepped: the module verifies the hydrodynamic PDE,
it does not solve it forward.

Notation used throughout, for a model with phase density rho(x) kappa(v,r|x):

    sigma(x, t)   space derivative of the limit surface, the rod length
                  density seen by the gas at time t
    Z(x, t)       = x + H_limit(x, t), the gas -> rod position change of
                  variables; strictly increasing in x when marks are >= 0
    rod density   g~(q, v, r, t) = g_t(Z^-1(q), v, r) / (1 + sigma) with two
                  equivalent normalizations (via 1 - sigma~ or 1/(1+sigma))
    V_eff         v + (v sigma~ - pi~) / (1 - sigma~)

and the conservation law d_t g~ + d_q(V_eff g~) = 0, whose residual is
measured by second-order central differences on a rectangular grid.

Velocity integrals go through the rule of :mod:`hrfl.intensity`, so sigma,
the phase moments, Z and V_eff serve atoms and continuous laws alike.  The
pointwise rod density and the residual grid are implemented for velocity
atoms only and raise NotImplementedError otherwise.

sigma, Z and Z^-1 accept a scalar or an array of positions; the rule's
velocities, a qk21 panel's nodes or all the atom velocities at once, arrive
as a column against the array, so one integrand call evaluates them at
every position.  Z is x plus the signed m_1 mass between 0 and x - v t
integrated over the velocity law.  Array and per-element calls return the
same bits for atoms; for a continuous law the positions of one call share
their panels, so they agree within the quadrature tolerance.  Z^-1 brackets
every q by doubling steps, then runs a safeguarded Newton iteration on
Z' = 1 + sigma, bisecting whenever a step would leave the bracket.  The
residual grid inverts a whole time slice of q nodes in one call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .field import limit_field
from .geometry import SpaceTimePoint
from .intensity import IntensityModel, edge_velocities, velocity_integral
from .sampler import SampledConfiguration

INVERSE_XTOL = 1e-13
INVERSE_RTOL = 4.0 * float(np.finfo(float).eps)
BRACKET_LIMIT = 1e12
MAX_INVERSE_STEPS = 100


def _require_rod_model(model) -> None:
    if not model.marks_nonnegative:
        raise ValueError("hard-rod hydrodynamics requires marks r >= 0")


def _require_atoms(model, what: str) -> None:
    if model.kernel.atom_velocities() is None:
        raise NotImplementedError(
            f"{what} is implemented for velocity atoms; continuous kernels "
            "are handled through integrated moments")


def _over_positions(model: IntensityModel, integrand, x, t: float):
    """The velocity rule of integrand(v, x - v t) at each position of x, a scalar or an array.

    The velocities arrive as a column against the flattened positions.
    """
    y = np.asarray(x, dtype=float)
    flat = y.ravel()

    def f(v):
        return integrand(v[:, None], flat - v[:, None] * t)

    out = velocity_integral(model.kernel, f, *model.v_support,
                            edge_velocities(model.edges, flat, t))
    return out.reshape(y.shape) if y.ndim else float(out[0])


def phase_moment(model: IntensityModel, x, t: float, v_power: int = 0):
    """Integral of r * v^j against the time-t phase density at x (x may be an array).

    The time-t density at (x, v) is the time-0 density at x - v t.
    """
    def f(v, pos):
        return model.kernel.vk_density(v, 1, pos) * model.rho.value(pos) * v ** v_power

    return _over_positions(model, f, x, t)


def sigma(model: IntensityModel, x, t: float):
    """Rod-length density of the gas at (x, t); x may be an array."""
    _require_rod_model(model)
    return phase_moment(model, x, t, 0)


def characteristic_map(model: IntensityModel, x, t: float):
    """Z(x, t) = x + H_limit(x, t), gas position to rod position; x may be an array."""
    _require_rod_model(model)

    def signed_m1_mass(v, y):
        # the m_1 x-mass at velocity v between 0 and y, negative where y < 0
        mass = model.x_mass(v, 1, np.minimum(y, 0.0), np.maximum(y, 0.0))
        return np.where(y < 0.0, -mass, mass)

    z = x + _over_positions(model, signed_m1_mass, x, t)
    return z if np.ndim(z) else float(z)


class CharacteristicInverseError(RuntimeError):
    """Z(x, t) = q could not be bracketed or solved within the step cap."""


def inverse_characteristic(model: IntensityModel, q, t: float):
    """Solve Z(x, t) = q for x; q may be a scalar or an array.

    Z is strictly increasing with Z' = 1 + sigma >= 1.  Each q is bracketed
    by steps of doubling width outward from [q - 1, q + 1], up to
    BRACKET_LIMIT.  A safeguarded Newton iteration on Z' then starts from
    the bracket's midpoint: every evaluation of Z shrinks the bracket, a
    Newton step that leaves the bracket is replaced by bisection, and a
    point stops once its step is at most INVERSE_XTOL + INVERSE_RTOL |x|.
    A point still moving after MAX_INVERSE_STEPS steps, or a q that cannot
    be bracketed, raises CharacteristicInverseError.  Every step is
    elementwise and Z and sigma follow the rule of the module docstring, so
    for atoms an array call returns the same bits as one call per element,
    and for a continuous law the two agree within the quadrature tolerance.
    """
    _require_rod_model(model)
    q_in = np.asarray(q, dtype=float)
    if not (np.all(np.isfinite(q_in)) and math.isfinite(t)):
        raise ValueError("the characteristic inverse needs finite q and t")
    q = q_in.ravel()

    def f(x, idx):
        return characteristic_map(model, x, t) - q[idx]

    lo, hi = q - 1.0, q + 1.0
    everywhere = np.arange(len(q))
    flo, fhi = f(lo, everywhere), f(hi, everywhere)
    width = 2.0
    while True:
        left, right = np.nonzero(flo > 0.0)[0], np.nonzero(fhi < 0.0)[0]
        if not (len(left) or len(right)):
            break
        width *= 2.0
        lo[left] -= width
        flo[left] = f(lo[left], left)
        hi[right] += width
        fhi[right] = f(hi[right], right)
        if width > BRACKET_LIMIT:
            raise CharacteristicInverseError(
                f"failed to bracket the characteristic inverse at t={t}")

    x = 0.5 * (lo + hi)
    active = everywhere
    for _ in range(MAX_INVERSE_STEPS):
        xa, a, b = x[active], lo[active], hi[active]
        fx = f(xa, active)
        a = np.where(fx < 0.0, xa, a)
        b = np.where(fx > 0.0, xa, b)
        newton = xa - fx / (1.0 + sigma(model, xa, t))
        step_in = (a < newton) & (newton < b)
        x_new = np.where(step_in | (fx == 0.0), newton, 0.5 * (a + b))
        x[active], lo[active], hi[active] = x_new, a, b
        moving = np.abs(x_new - xa) > INVERSE_XTOL + INVERSE_RTOL * np.abs(x_new)
        active = active[moving]
        if not len(active):
            return x.reshape(q_in.shape) if q_in.ndim else float(x[0])
    raise CharacteristicInverseError(
        f"the characteristic inverse at t={t} did not converge in "
        f"{MAX_INVERSE_STEPS} steps ({len(active)} of {len(q)} points still moving)")


def squeezed_length_fraction(model: IntensityModel, q: float, t: float) -> float:
    """sigma~ at the rod coordinate q: sigma / (1 + sigma) at Z^-1(q)."""
    s = sigma(model, inverse_characteristic(model, q, t), t)
    return s / (1.0 + s)


def rod_density(model: IntensityModel, q: float, v: float, r: float, t: float) -> float:
    """Macroscopic hard-rod phase density at rod coordinate q.

    The gas density at the pre-image Z^-1(q), contracted by 1 + sigma
    there.  The species is the atom (v, r): only atoms with exactly that
    velocity and mark count, and a pair that is no atom of the kernel is a
    ValueError.
    """
    _require_rod_model(model)
    _require_atoms(model, "the pointwise rod density")
    if not model.kernel.has_atom(v, r):
        raise ValueError(f"(v, r) = ({v}, {r}) is not an atom of the kernel")
    x = inverse_characteristic(model, q, t)
    pos = x - v * t
    # the weight of the atoms at exactly (v, r) in the kernel at the pre-image
    w = model.kernel.atom_weight(v, r, pos)
    g = w * float(np.asarray(model.rho.value(pos)))
    return g / (1.0 + sigma(model, x, t))


@dataclass
class _SpeciesState:
    """Rod-phase quantities of the atom velocities along one time slice."""

    g: np.ndarray            # (atom velocity, q) rod-frame x-densities
    sigma_tilde: np.ndarray  # (q,)
    pi_tilde: np.ndarray     # (q,)


def _species_state(model: IntensityModel, q: np.ndarray, t: float) -> _SpeciesState:
    # g at every atom velocity at once; sigma and pi by the velocity rule
    x = inverse_characteristic(model, q, t)
    vs = np.array(model.kernel.atom_velocities())[:, None]
    pos = x - vs * t
    g = model.kernel.vk_density(vs, 0, pos) * model.rho.value(pos)
    s, p = sigma(model, x, t), phase_moment(model, x, t, 1)
    return _SpeciesState(g / (1.0 + s), s / (1.0 + s), p / (1.0 + s))


def effective_velocity(model: IntensityModel, q: float, v: float, t: float) -> float:
    """V_eff(q, v, t) = v + (v sigma~ - pi~) / (1 - sigma~)."""
    _require_rod_model(model)
    x = inverse_characteristic(model, q, t)
    s = sigma(model, x, t)
    st = s / (1.0 + s)
    pt = phase_moment(model, x, t, 1) / (1.0 + s)
    return v + (v * st - pt) / (1.0 - st)


def limit_mass(model: IntensityModel, z: float, t: float) -> float:
    """Signed rod length between 0 and z under the time-t limit measure."""
    return (limit_field(model, SpaceTimePoint(z, t))
            - limit_field(model, SpaceTimePoint(0.0, t)))


def empirical_mass(config: SampledConfiguration, z: float, t: float) -> float:
    """epsilon-weighted signed mark length in [0, z) at time t of the sample."""
    pos = config.x + config.v * t
    if z >= 0.0:
        inside = (pos >= 0.0) & (pos < z)
        return config.epsilon * float(np.sum(config.r[inside]))
    inside = (pos >= z) & (pos < 0.0)
    return -config.epsilon * float(np.sum(config.r[inside]))


# ---------------------------------------------------------------------------
# the conservation-law residual
# ---------------------------------------------------------------------------

@dataclass
class GhdResidual:
    """Residual of d_t g~ + d_q (V_eff g~) on the interior of a grid."""

    q: np.ndarray                  # interior q nodes
    t: np.ndarray                  # interior t nodes
    residual: np.ndarray           # (species, t, q)
    max_norm: float
    l2_norm: float
    h_q: float
    h_t: float

    def to_csv(self, path) -> None:
        from .reporting import write_csv
        rows = []
        for s in range(self.residual.shape[0]):
            for i, tv in enumerate(self.t):
                for j, qv in enumerate(self.q):
                    rows.append((s, tv, qv, self.residual[s, i, j]))
        write_csv(path, ("species", "t", "q", "residual"), rows)


def _excluded_q(model: IntensityModel, t: float, margin: float):
    """Rod-coordinate intervals (lo, hi) to skip: images of density jumps.

    A species' density may jump where rho has a breakpoint or the kernel
    changes cells; at time t such a jump at e sits at x = e + v t.
    """
    edges = np.array(model.edges)
    vs = np.array(model.kernel.atom_velocities())
    q = characteristic_map(model, (edges[:, None] + vs[None, :] * t).ravel(), t)
    return q - margin, q + margin


def ghd_residual(model: IntensityModel, q_nodes, t_nodes) -> GhdResidual:
    """Central-difference residual of the hard-rod conservation law.

    The rod density and flux are evaluated analytically at every node and
    differentiated with second-order central stencils, so the residual of a
    smooth exact solution shrinks like h^2.  Boundary rows and columns are
    excluded; where rho or the kernel's cells jump, a margin around the
    image of each jump is excluded too (with a warning).
    """
    _require_rod_model(model)
    q_nodes = np.asarray(q_nodes, dtype=float)
    t_nodes = np.asarray(t_nodes, dtype=float)
    if len(q_nodes) < 3 or len(t_nodes) < 3:
        raise ValueError("need at least 3 nodes per axis for central differences")
    h_q = float(q_nodes[1] - q_nodes[0])
    h_t = float(t_nodes[1] - t_nodes[0])
    if (np.abs(np.diff(q_nodes) - h_q).max() > 1e-9 * abs(h_q)
            or np.abs(np.diff(t_nodes) - h_t).max() > 1e-9 * abs(h_t)):
        raise ValueError("residual grids must be uniformly spaced")

    _require_atoms(model, "the residual grid")
    vs = np.array(model.kernel.atom_velocities())
    n_s = len(vs)

    G = np.empty((n_s, len(t_nodes), len(q_nodes)))
    F = np.empty_like(G)
    v_col = vs[:, None]
    for i, tv in enumerate(t_nodes):
        st = _species_state(model, q_nodes, float(tv))
        veff = v_col + (v_col * st.sigma_tilde - st.pi_tilde) / (1.0 - st.sigma_tilde)
        G[:, i] = st.g
        F[:, i] = veff * st.g

    dG_dt = (G[:, 2:, 1:-1] - G[:, :-2, 1:-1]) / (2.0 * h_t)
    dF_dq = (F[:, 1:-1, 2:] - F[:, 1:-1, :-2]) / (2.0 * h_q)
    res = dG_dt + dF_dq
    q_in, t_in = q_nodes[1:-1], t_nodes[1:-1]

    excluded = np.zeros(len(q_in), dtype=bool)
    margin = 2.0 * h_q
    for tv in t_in:
        lo, hi = _excluded_q(model, float(tv), margin)
        excluded |= ((q_in[:, None] >= lo) & (q_in[:, None] <= hi)).any(axis=1)
    if excluded.any():
        warnings.warn(
            f"excluding {int(excluded.sum())} q-columns around density jumps",
            stacklevel=2)
    res = res[:, :, ~excluded]
    q_in = q_in[~excluded]

    max_norm = float(np.abs(res).max(initial=0.0))
    l2_norm = float(np.sqrt(h_q * h_t * np.sum(res ** 2)))
    return GhdResidual(q_in, t_in, res, max_norm, l2_norm, h_q, h_t)


def residual_refinement(model: IntensityModel, q_range, t_range, nq: int, nt: int,
                        refinements: int = 2) -> tuple[list[GhdResidual], list[float]]:
    """Residual grids over a fixed region, each halving the last one's spacing.

    Returns the residual of every level, base grid first, and the L2-norm
    ratios between successive levels.  A ratio whose finer level has a zero
    L2 norm is undefined and returned as NaN.
    """
    levels = []
    for level in range(refinements + 1):
        f = 2 ** level
        qs = np.linspace(q_range[0], q_range[1], (nq - 1) * f + 1)
        ts = np.linspace(t_range[0], t_range[1], (nt - 1) * f + 1)
        levels.append(ghd_residual(model, qs, ts))
    ratios = [coarse.l2_norm / fine.l2_norm if fine.l2_norm else math.nan
              for coarse, fine in zip(levels, levels[1:])]
    return levels, ratios
