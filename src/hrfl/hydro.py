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
the phase moments and V_eff serve atoms and continuous laws alike.  The
pointwise rod density, the residual grid and the limit rod measure are
implemented for velocity atoms only and raise NotImplementedError otherwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .field import limit_field
from .geometry import SpaceTimePoint
from .intensity import IntensityModel, _quad, velocity_integral
from .sampler import SampledConfiguration

INVERSE_XTOL = 1e-13


def _require_rod_model(model) -> None:
    if not model.marks_nonnegative:
        raise ValueError("hard-rod hydrodynamics requires marks r >= 0")


def _require_atoms(model, what: str) -> None:
    if model.kernel.atom_velocities() is None:
        raise NotImplementedError(
            f"{what} is implemented for velocity atoms; continuous kernels "
            "are handled through integrated moments")


def phase_moment(model: IntensityModel, x: float, t: float, v_power: int = 0) -> float:
    """Integral of r * v^j against the time-t phase density at x.

    The time-t density at (x, v) is the time-0 density at x - v t.
    """
    def f(v):
        pos = x - v * t
        return (model.kernel.vk_density(v, 1, pos) * v ** v_power
                * float(np.asarray(model.rho.value(pos))))

    return velocity_integral(model.kernel, f, *model.v_support)


def sigma(model: IntensityModel, x: float, t: float) -> float:
    """Rod-length density of the gas at (x, t)."""
    _require_rod_model(model)
    return phase_moment(model, x, t, 0)


def characteristic_map(model: IntensityModel, x: float, t: float) -> float:
    """Z(x, t) = x + H_limit(x, t), gas position to rod position."""
    _require_rod_model(model)
    return x + limit_field(model, SpaceTimePoint(x, t))


def inverse_characteristic(model: IntensityModel, q: float, t: float) -> float:
    """Solve Z(x, t) = q by bracketed root finding (Z is strictly increasing)."""
    _require_rod_model(model)

    def f(x):
        return characteristic_map(model, x, t) - q

    lo, hi = q - 1.0, q + 1.0
    flo, fhi = f(lo), f(hi)
    width = 2.0
    while flo > 0.0 or fhi < 0.0:
        width *= 2.0
        if flo > 0.0:
            lo -= width
            flo = f(lo)
        if fhi < 0.0:
            hi += width
            fhi = f(hi)
        if width > 1e12:
            raise RuntimeError("failed to bracket the characteristic inverse")
    return float(brentq(f, lo, hi, xtol=INVERSE_XTOL, rtol=8.9e-16))


def squeezed_length_fraction(model: IntensityModel, q: float, t: float) -> float:
    """sigma~ at the rod coordinate q: sigma / (1 + sigma) at Z^-1(q)."""
    s = sigma(model, inverse_characteristic(model, q, t), t)
    return s / (1.0 + s)


def rod_density(model: IntensityModel, q: float, v: float, r: float, t: float,
                method: str = "contraction") -> float:
    """Macroscopic hard-rod phase density at rod coordinate q.

    Two equivalent formulas are exposed: "contraction" divides the gas
    density by 1 + sigma at the pre-image, "squeeze" multiplies by
    1 - sigma~ at q.  They agree to root-finding accuracy.  The species is
    the atom (v, r): only atoms with exactly that velocity and mark count,
    and a pair that is no atom of the kernel is a ValueError.
    """
    _require_rod_model(model)
    _require_atoms(model, "the pointwise rod density")
    if not model.kernel.has_atom(v, r):
        raise ValueError(f"(v, r) = ({v}, {r}) is not an atom of the kernel")
    x = inverse_characteristic(model, q, t)
    pos = x - v * t
    # the weight of the atoms at exactly (v, r) in the kernel at the pre-image
    w = model.kernel.cell_prob((v, v), (r, r), pos)
    g = w * float(np.asarray(model.rho.value(pos)))
    if method == "contraction":
        return g / (1.0 + sigma(model, x, t))
    if method == "squeeze":
        return g * (1.0 - squeezed_length_fraction(model, q, t))
    raise ValueError("method must be 'contraction' or 'squeeze'")


@dataclass
class _SpeciesState:
    """Rod-phase quantities of the atom velocities at one grid node."""

    g: np.ndarray          # rod-frame x-density per atom velocity
    sigma_tilde: float
    pi_tilde: float


def _species_state(model: IntensityModel, q: float, t: float) -> _SpeciesState:
    # one pass over the atom velocities yields every g and, with them, sigma and pi
    x = inverse_characteristic(model, q, t)
    vs = model.kernel.atom_velocities()
    g = np.empty(len(vs))
    s = p = 0.0
    for i, v in enumerate(vs):
        pos = x - v * t
        rho = float(np.asarray(model.rho.value(pos)))
        g[i] = model.kernel.vk_density(v, 0, pos) * rho
        m = model.kernel.vk_density(v, 1, pos) * rho
        s += m
        p += m * v
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


def _excluded_q(model: IntensityModel, t: float, margin: float) -> list[tuple[float, float]]:
    """Rod-coordinate intervals to skip: images of density discontinuities."""
    edges = [e for e in model.rho.breakpoints if math.isfinite(e)]
    if not edges:
        return []
    out = []
    for e in edges:
        for v in model.kernel.atom_velocities():
            q = characteristic_map(model, e + v * t, t)
            out.append((q - margin, q + margin))
    return out


def ghd_residual(model: IntensityModel, q_nodes, t_nodes,
                 exclude_discontinuities: bool = True) -> GhdResidual:
    """Central-difference residual of the hard-rod conservation law.

    The rod density and flux are evaluated analytically at every node and
    differentiated with second-order central stencils, so the residual of a
    smooth exact solution shrinks like h^2.  Boundary rows and columns are
    excluded; for densities with jumps a margin around the image of each
    jump is excluded too (with a warning).
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
    for i, tv in enumerate(t_nodes):
        for j, qv in enumerate(q_nodes):
            st = _species_state(model, float(qv), float(tv))
            veff = vs + (vs * st.sigma_tilde - st.pi_tilde) / (1.0 - st.sigma_tilde)
            G[:, i, j] = st.g
            F[:, i, j] = veff * st.g

    dG_dt = (G[:, 2:, 1:-1] - G[:, :-2, 1:-1]) / (2.0 * h_t)
    dF_dq = (F[:, 1:-1, 2:] - F[:, 1:-1, :-2]) / (2.0 * h_q)
    res = dG_dt + dF_dq
    q_in, t_in = q_nodes[1:-1], t_nodes[1:-1]

    keep = np.ones(len(q_in), dtype=bool)
    if exclude_discontinuities:
        margin = 2.0 * h_q
        excluded: set[int] = set()
        for tv in t_in:
            for lo, hi in _excluded_q(model, float(tv), margin):
                excluded.update(np.nonzero((q_in >= lo) & (q_in <= hi))[0])
        if excluded:
            warnings.warn(
                f"excluding {len(excluded)} q-columns around density jumps",
                stacklevel=2)
            keep[sorted(excluded)] = False
    res = res[:, :, keep]
    q_in = q_in[keep]

    max_norm = float(np.abs(res).max(initial=0.0))
    l2_norm = float(np.sqrt(h_q * h_t * np.sum(res ** 2)))
    return GhdResidual(q_in, t_in, res, max_norm, l2_norm, h_q, h_t)


def residual_refinement(model: IntensityModel, q_range, t_range, nq: int, nt: int,
                        refinements: int = 2,
                        **kwargs) -> tuple[list[GhdResidual], list[float]]:
    """Residual grids over a fixed region, each halving the last one's spacing.

    Returns the residual of every level, base grid first, and the L2-norm
    ratios between successive levels.
    """
    levels = []
    for level in range(refinements + 1):
        f = 2 ** level
        qs = np.linspace(q_range[0], q_range[1], (nq - 1) * f + 1)
        ts = np.linspace(t_range[0], t_range[1], (nt - 1) * f + 1)
        levels.append(ghd_residual(model, qs, ts, **kwargs))
    ratios = [levels[i].l2_norm / levels[i + 1].l2_norm for i in range(refinements)]
    return levels, ratios


# ---------------------------------------------------------------------------
# Monte Carlo consistency of the rod empirical measure
# ---------------------------------------------------------------------------

def empirical_rod_measure(config: SampledConfiguration, phi, t: float) -> float:
    """epsilon-weighted rod empirical measure applied to phi(y, v, r) at time t.

    The quasi-particle displacement scales with the empirical measure, so
    rod lengths enter the position computation multiplied by epsilon.
    """
    from .hardrod import quasiparticle_positions, GasConfiguration

    gas = GasConfiguration(config.x, config.v, config.epsilon * config.r)
    y = quasiparticle_positions(gas, t)
    return config.epsilon * float(np.sum(config.r * phi(y, config.v, config.r)))


def limit_rod_measure(model: IntensityModel, phi, t: float) -> float:
    """The limiting rod measure: integral of r phi(y_limit(x,v,t), v, r) d mu."""
    _require_rod_model(model)
    _require_atoms(model, "the limit rod measure")
    lo, hi = model.rho.support
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("limit rod measure needs a compactly supported density")

    def y_limit(x, v):
        b = SpaceTimePoint(x + v * t, t)
        return x + v * t + limit_field(model, b)

    def x_integral(v):
        # phi reads the mark r, so the integrand takes the atoms present at x
        def f(x):
            rho = float(np.asarray(model.rho.value(x)))
            return sum(w * r * rho * phi(y_limit(x, v), v, r)
                       for u, r, w in model.kernel.atoms_at(x) if u == v and w)

        return _quad(f, lo, hi, model.rho.breakpoints)

    return velocity_integral(model.kernel, x_integral, *model.v_support)
