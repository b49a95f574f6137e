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
the phase moments, Z and V_eff serve atoms and continuous laws alike.
``_species_state`` derives sigma~, pi~, V_eff and the atoms' g~ at (q, t)
nodes from one Z^-1; the pointwise rod density, its oracle, keeps its own.
The pointwise rod density and the residual grid are implemented for velocity
atoms only and raise NotImplementedError otherwise.

sigma, Z and Z^-1 accept a scalar or an array of positions; the rule's
velocities, a qk21 panel's nodes or all the atom velocities at once, arrive
as a column against the array, so one integrand call evaluates them at
every position.  Z is x plus the velocity integral of ``x_mass(v, 1, 0.0,
x - v t)``, the signed m_1 mass from 0 to x - v t.  One pass of the rule may
carry several integrands side by side: each Newton step of Z^-1 takes Z and
sigma at its iterate from one pass, and ``_species_state`` sigma and pi.
Array and per-element calls, and fused and separate integrands, return the
same bits for atoms; for a continuous law the positions and integrands of
one pass share their panels, so they agree within the quadrature tolerance.
Since Z' = 1 + sigma >= 1, one evaluation s = Z(q) - q puts the root of
Z(x) = q between q and q - s; Z^-1 runs a safeguarded Newton iteration on Z'
from q inside that bracket, bisecting whenever a step would leave it.  t is
one time or one per position, so the residual grid evaluates blocks of
(t, q) nodes at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .field import limit_field_difference, require_in_region, signed_mark_sum
from .geometry import SpaceTimePoint
from .intensity import IntensityModel, velocity_integral
from .sampler import SampledConfiguration

INVERSE_XTOL = 1e-13
INVERSE_RTOL = 4.0 * float(np.finfo(float).eps)
MAX_INVERSE_STEPS = 100
# the most (t, q) nodes of a residual grid evaluated in one call, and the
# most nodes of all residual_refinement levels together that a config may ask for
BLOCK_NODES = 16_384
GRID_NODE_CAP = 2 ** 22
# residual_refinement's default, which the config node cap counts too
RESIDUAL_REFINEMENTS = 2


def _require_rod_model(model) -> None:
    if not model.marks_nonnegative:
        raise ValueError("hard-rod hydrodynamics requires marks r >= 0")


def _require_atoms(model, what: str) -> None:
    if model.kernel.atom_velocities() is None:
        raise NotImplementedError(
            f"{what} is implemented for velocity atoms; continuous kernels "
            "are handled through integrated moments")


def _over_positions(model: IntensityModel, x, t, *integrands):
    """The velocity rule of each integrand(v, x - v t) at each position of x, in one pass.

    x is a scalar or an array, and t one time or one time per position.
    The velocities arrive as a column against the flattened positions, and
    the integrands' columns are laid side by side, so one call of the rule
    serves them all.  Returns one result per integrand, shaped like x, or a
    float for a scalar x.
    """
    y = np.asarray(x, dtype=float)
    flat = y.ravel()
    t = np.ravel(t) if np.ndim(t) else t

    def f(v):
        v = v[:, None]
        pos = flat - v * t
        return np.concatenate([g(v, pos) for g in integrands], axis=1)

    out = velocity_integral(model, f, flat, t)
    out = np.reshape(out, (len(integrands), *y.shape))
    return tuple(out) if y.ndim else tuple(map(float, out))


def _phase_density(model: IntensityModel, v_power: int, mark_power: int):
    # r^k v^j against the phase density at velocity v and time-0 position pos
    def f(v, pos):
        return model.kernel.vk_density(v, mark_power, pos) * model.rho.value(pos) * v ** v_power
    return f


def _m1_mass_from_0(model: IntensityModel):
    # the signed m_1 x-mass at velocity v from 0 to y, Z's integrand
    return lambda v, y: model.x_mass(v, 1, 0.0, y)


def phase_moment(model: IntensityModel, x, t, v_power: int = 0, mark_power: int = 1):
    """Integral of r^k * v^j against the time-t phase density at x (x and t as in _over_positions).

    The time-t density at (x, v) is the time-0 density at x - v t.  k = 1 gives sigma
    and pi; k = 2 the frozen frame's hat variance at (x, t) per unit horizontal offset.
    """
    return _over_positions(model, x, t, _phase_density(model, v_power, mark_power))[0]


def sigma(model: IntensityModel, x, t):
    """Rod-length density of the gas at (x, t); x may be an array, t one time or one per x."""
    _require_rod_model(model)
    return phase_moment(model, x, t, 0)


def characteristic_map(model: IntensityModel, x, t):
    """Z(x, t) = x + H_limit(x, t), gas to rod position; x and t as in _over_positions."""
    _require_rod_model(model)
    z = x + _over_positions(model, x, t, _m1_mass_from_0(model))[0]
    return z if np.ndim(z) else float(z)


class CharacteristicInverseError(RuntimeError):
    """Z(x, t) = q has no finite bracket or was not solved within the step cap."""


def inverse_characteristic(model: IntensityModel, q, t):
    """Solve Z(x, t) = q for x; q and t may be scalars or arrays, t broadcast against q.

    Z is strictly increasing with Z' = 1 + sigma >= 1, so with
    s = Z(q) - q the root lies between q and q - s; the bracket
    [q - max(s, 0) - 1, q - min(s, 0) + 1] holds it with a margin of 1
    against rounding and quadrature error.  A safeguarded Newton iteration
    on Z' then starts from q, whose Z is already known: every evaluation of
    Z shrinks the bracket, a Newton step that leaves the bracket is
    replaced by bisection, and a point stops once its step is at most
    INVERSE_XTOL + INVERSE_RTOL |x|.  A non-finite s, or a point still
    moving after MAX_INVERSE_STEPS steps, raises
    CharacteristicInverseError naming the first such node and their count.
    Every step is elementwise and Z and sigma follow the rule of the module
    docstring, so for atoms an array call, with one t or one t per node,
    returns the same bits as one call per element, and for a continuous
    law the two agree within the quadrature tolerance.
    """
    _require_rod_model(model)
    q_in, t_in = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(t, dtype=float))
    if not (np.all(np.isfinite(q_in)) and np.all(np.isfinite(t_in))):
        raise ValueError("the characteristic inverse needs finite q and t")
    q, t = q_in.ravel(), t_in.ravel()
    integrands = _m1_mass_from_0(model), _phase_density(model, 0, 1)
    x = q.copy()
    mass, s = _over_positions(model, x, t, *integrands)
    fx = x + mass - q
    bad = np.flatnonzero(~np.isfinite(fx))
    if len(bad):
        raise CharacteristicInverseError(
            f"Z(q, t) - q is not finite {_at_nodes(q, t, bad)}, so the inverse has no bracket")
    lo, hi = q - np.maximum(fx, 0.0) - 1.0, q - np.minimum(fx, 0.0) + 1.0
    active = np.arange(len(q))
    for _ in range(MAX_INVERSE_STEPS):
        xa = x[active]
        a = np.where(fx < 0.0, xa, lo[active])
        b = np.where(fx > 0.0, xa, hi[active])
        newton = xa - fx / (1.0 + s)
        step_in = (a < newton) & (newton < b)
        x_new = np.where(step_in | (fx == 0.0), newton, 0.5 * (a + b))
        x[active], lo[active], hi[active] = x_new, a, b
        moving = np.abs(x_new - xa) > INVERSE_XTOL + INVERSE_RTOL * np.abs(x_new)
        active = active[moving]
        if not len(active):
            return x.reshape(q_in.shape) if q_in.ndim else float(x[0])
        xa = x[active]
        mass, s = _over_positions(model, xa, t[active], *integrands)
        fx = xa + mass - q[active]
    raise CharacteristicInverseError(f"the characteristic inverse did not converge in "
                                     f"{MAX_INVERSE_STEPS} steps {_at_nodes(q, t, active)}")


def _at_nodes(q, t, failing) -> str:
    """One line for the failing node indices: how many there are and the first one's (q, t)."""
    i = failing[0]
    return (f"at {len(failing)} of {len(q)} nodes, the first at (q, t) = "
            f"({float(q[i])}, {float(t[i])})")


def rod_density(model: IntensityModel, q: float, v: float, r: float, t: float) -> float:
    """Macroscopic hard-rod phase density at rod coordinate q.

    The gas density at the pre-image Z^-1(q), contracted by 1 + sigma
    there.  The species is the atom (v, r): only atoms with exactly that
    velocity and mark count, and a pair that is no atom of the kernel is a
    ValueError.
    """
    _require_atoms(model, "the pointwise rod density")
    if not any(cell.atom_weight(v, r, a) for a, _, cell in model.kernel.cells):
        raise ValueError(f"(v, r) = ({v}, {r}) is not an atom of the kernel")
    x = inverse_characteristic(model, q, t)
    pos = x - v * t
    # the weight of the atoms at exactly (v, r) in the kernel at the pre-image
    w = model.kernel.atom_weight(v, r, pos)
    g = w * float(np.asarray(model.rho.value(pos)))
    return g / (1.0 + sigma(model, x, t))


@dataclass
class _SpeciesState:
    """The rod-phase state at a set of (q, t) nodes, read at the pre-image Z^-1(q)."""

    sigma_tilde: np.ndarray    # (node,)
    pi_tilde: np.ndarray       # (node,)
    g: np.ndarray | None       # (atom velocity, node) rod-frame x-densities; None without atoms

    def effective_velocity(self, v):
        """V_eff = v + (v sigma~ - pi~) / (1 - sigma~) at every node; v a scalar or a column."""
        return v + (v * self.sigma_tilde - self.pi_tilde) / (1.0 - self.sigma_tilde)


def _species_state(model: IntensityModel, q, t) -> _SpeciesState:
    """Z^-1 once at the nodes (q, t), q a scalar or an array and t one time or one per q;
    sigma~ and pi~ for any velocity law, g~ at every atom velocity when there are atoms."""
    x = inverse_characteristic(model, q, t)
    s, p = _over_positions(model, x, t, _phase_density(model, 0, 1), _phase_density(model, 1, 1))
    g, vs = None, model.kernel.atom_velocities()
    if vs is not None:
        v_col = np.array(vs)[:, None]
        pos = x - v_col * t
        g = model.kernel.vk_density(v_col, 0, pos) * model.rho.value(pos) / (1.0 + s)
    return _SpeciesState(s / (1.0 + s), p / (1.0 + s), g)


def squeezed_length_fraction(model: IntensityModel, q: float, t: float) -> float:
    """sigma~ at the rod coordinate q: sigma / (1 + sigma) at Z^-1(q)."""
    return _species_state(model, q, t).sigma_tilde


def effective_velocity(model: IntensityModel, q: float, v: float, t: float) -> float:
    """V_eff(q, v, t) of the rod-phase state at q."""
    return _species_state(model, q, t).effective_velocity(v)


def limit_mass(model: IntensityModel, z: float, t: float) -> float:
    """Signed rod length between 0 and z under the time-t limit measure."""
    return limit_field_difference(model, SpaceTimePoint(0.0, t), SpaceTimePoint(z, t))


def empirical_mass(config: SampledConfiguration, z: float, t: float) -> float:
    """epsilon-weighted signed mark length in [0, z) at time t of the sample;
    1{pos < z} - 1{pos < 0} is 1 on [0, z) and -1 on [z, 0)."""
    require_in_region(config, (z, t), (0.0, t))
    pos = config.x + config.v * t
    return config.epsilon * signed_mark_sum(config.r, pos < z, pos < 0.0)


# ---------------------------------------------------------------------------
# the conservation-law residual
# ---------------------------------------------------------------------------

class GridSpacingError(ValueError):
    """The nodes of one residual grid axis ("q" or "t") are not uniformly spaced."""

    def __init__(self, axis: str):
        super().__init__(f"residual grids must be uniformly spaced, and the {axis} nodes are not")
        self.axis = axis


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
        q = self.q.tolist()
        rows = ((s, tv, qv, r) for s in range(len(self.residual))
                for j, tv in enumerate(self.t.tolist())
                for qv, r in zip(q, self.residual[s, j].tolist()))
        write_csv(path, ("species", "t", "q", "residual"), rows)


def _excluded_q(model: IntensityModel, q, t, margin: float):
    """Which rod coordinates q lie within margin of an image of a density jump at any time t.

    A species' density may jump where rho has a breakpoint or the kernel
    changes cells; at time t such a jump at e sits at x = e + v t.  Of the
    sorted images' intervals that start at or below a q, the last reaches furthest.
    """
    t = np.asarray(t, dtype=float)[:, None, None]
    x = np.array(model.edges)[:, None] + np.array(model.kernel.atom_velocities()) * t
    images = np.sort(characteristic_map(model, x.ravel(), np.broadcast_to(t, x.shape).ravel()))
    starts_below = np.searchsorted(images - margin, q, side="right")
    return np.concatenate([[-np.inf], images + margin])[starts_below] >= q


def ghd_residual(model: IntensityModel, q_nodes, t_nodes) -> GhdResidual:
    """Central-difference residual of the hard-rod conservation law.

    The rod density and flux are evaluated analytically at every node and
    differentiated with second-order central stencils, so the residual of a
    smooth exact solution shrinks like h^2.  Boundary rows and columns are
    excluded; where rho or the kernel's cells jump, a margin around the
    image of each jump is excluded too (with a warning).  A division by
    zero, overflow or invalid operation while evaluating the nodes raises
    FloatingPointError naming the failing block's t rows and the grid size.
    """
    q_nodes = np.asarray(q_nodes, dtype=float)
    t_nodes = np.asarray(t_nodes, dtype=float)
    if len(q_nodes) < 3 or len(t_nodes) < 3:
        raise ValueError("need at least 3 nodes per axis for central differences")
    h_q = float(q_nodes[1] - q_nodes[0])
    h_t = float(t_nodes[1] - t_nodes[0])
    for axis, nodes, h in (("q", q_nodes, h_q), ("t", t_nodes, h_t)):
        if np.abs(np.diff(nodes) - h).max() > 1e-9 * abs(h):
            raise GridSpacingError(axis)

    _require_atoms(model, "the residual grid")
    v_col = np.array(model.kernel.atom_velocities())[:, None]
    G = np.empty((len(v_col), len(t_nodes), len(q_nodes)))
    F = np.empty_like(G)
    rows = max(1, BLOCK_NODES // len(q_nodes))
    # blocks of whole t rows; a breakdown, such as sigma~ rounding to 1, is a
    # FloatingPointError, not a NaN norm that reads as a failed convergence test
    for i in range(0, len(t_nodes), rows):
        ts = t_nodes[i:i + rows]
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                st = _species_state(model, np.tile(q_nodes, len(ts)),
                                    np.repeat(ts, len(q_nodes)))
                G[:, i:i + len(ts)] = st.g.reshape(len(v_col), len(ts), -1)
                F[:, i:i + len(ts)] = (st.effective_velocity(v_col) * st.g).reshape(
                    len(v_col), len(ts), -1)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"{exc} in t rows {i}..{i + len(ts) - 1} (t = {ts[0]:g}..{ts[-1]:g}) "
                f"of the {len(q_nodes)} x {len(t_nodes)} (q x t) grid") from None

    dG_dt = (G[:, 2:, 1:-1] - G[:, :-2, 1:-1]) / (2.0 * h_t)
    dF_dq = (F[:, 1:-1, 2:] - F[:, 1:-1, :-2]) / (2.0 * h_q)
    res = dG_dt + dF_dq
    q_in, t_in = q_nodes[1:-1], t_nodes[1:-1]

    excluded = _excluded_q(model, q_in, t_in, 2.0 * h_q)
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
                        refinements: int = RESIDUAL_REFINEMENTS,
                        ) -> tuple[list[GhdResidual], list[float]]:
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
        try:
            levels.append(ghd_residual(model, qs, ts))
        except FloatingPointError as exc:
            raise FloatingPointError(f"grid level {level}: {exc}") from None
    ratios = [coarse.l2_norm / fine.l2_norm if fine.l2_norm else math.nan
              for coarse, fine in zip(levels, levels[1:])]
    return levels, ratios
