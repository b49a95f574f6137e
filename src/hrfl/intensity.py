"""Intensity measures of marked line processes and their crossing moments.

An :class:`IntensityModel` is a measure on space-velocity-mark triples in
product form ``rho(x) dx  kappa(dv, dr | x)`` with ``kappa(.|x)`` a
probability measure.  The k-th moment measure weights the base measure by
``r**k``.  The quantities that parametrize every limit theorem in this
package are moment masses of crossing sets: for a segment ``ab``,

    moment_on_crossing(k, ab, sign)     ~  mu_k(ab), mu_k(ab+), mu_k(ab-)
    moment_intersection(k, ab, cd)      ~  mu_k(ab intersect cd)

Both reduce to a one-dimensional velocity integral of ``rho``-masses over
the crossing interval of :func:`hrfl.geometry.crossing_interval`; for a
fixed velocity the crossing orientation is the sign of ``dx - v*dt``, so
the velocity domain splits at ``v* = dx/dt``.  Plus and Minus masses are
integrated on the two sides of ``v*`` and ``both`` is their sum, so the sign
split is exact by construction; an atom at ``v*`` itself goes by the sign.

Every velocity integral, here and in :mod:`hrfl.hydro`, goes through one
rule, :func:`velocity_integral`.  The integrand carries the law's weight
through ``kernel.vk_density(v, k, x)``: a density in v for a continuous law,
the mass ``sum w * r**k`` of the atoms at v for a kernel of atoms.  The rule
sums the integrand over the atom velocities, with no quadrature error, or
integrates it by adaptive Gauss-Kronrod quadrature with the kink locations
passed as breakpoints.

The continuous velocity laws are uniform and a Gaussian truncated to the
velocity support.  The truncated Gaussian's density, interval probabilities
and inverse CDF are closed forms on :mod:`scipy.special` whose truncation
constants are computed once, in :meth:`GaussianVelocity.truncated`.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, special
from scipy.interpolate import CubicSpline

from .geometry import Segment, crossing_interval

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8
QUAD_LIMIT = 200

_MOMENT_ORDERS = (0, 1, 2)
_LOG_SQRT_2PI = math.log(math.sqrt(2.0 * math.pi))


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _quad(f: Callable[[float], float], lo: float, hi: float,
          inner_points: Sequence[float] = ()) -> float:
    if hi <= lo:
        return 0.0
    pts = sorted({p for p in inner_points if lo < p < hi})
    out = integrate.quad(f, lo, hi, points=pts or None,
                         epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL,
                         limit=QUAD_LIMIT, full_output=1)
    if len(out) > 3:
        raise QuadratureError(
            f"velocity quadrature on [{lo}, {hi}] did not converge: "
            f"{out[3].strip()} (achieved abserr={out[1]:.3e})")
    return out[0]


# ---------------------------------------------------------------------------
# space densities
# ---------------------------------------------------------------------------

class ConstantDensity:
    """Spatially constant density rho(x) = c on the whole line."""

    def __init__(self, value: float):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError("constant density must be finite and >= 0")
        self.c = float(value)
        self.support = (-math.inf, math.inf)
        self.breakpoints: tuple[float, ...] = ()

    def value(self, x):
        return np.broadcast_to(self.c, np.shape(x)).copy() if np.ndim(x) else self.c

    def integral(self, lo, hi):
        # the scalar form serves quadrature integrands, which call it per node
        if isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray):
            return np.where(hi > lo, self.c * (hi - lo), 0.0)
        return self.c * (hi - lo) if hi > lo else 0.0

    def sample(self, rng: np.random.Generator, n: int, lo: float, hi: float):
        return rng.uniform(lo, hi, size=n)

    def summary(self) -> dict:
        return {"kind": "constant", "value": self.c}


class PiecewiseConstantDensity:
    """rho given by a table of cells [edges[i], edges[i+1]) with values[i]."""

    def __init__(self, edges: Sequence[float], values: Sequence[float]):
        self.edges = np.asarray(edges, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.edges.ndim != 1 or len(self.edges) != len(self.values) + 1:
            raise ValueError("need len(edges) == len(values) + 1")
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite and >= 0")
        self._cum = np.concatenate([[0.0], np.cumsum(self.values * np.diff(self.edges))])
        self.support = (float(self.edges[0]), float(self.edges[-1]))
        self.breakpoints = tuple(float(e) for e in self.edges)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.edges, x, side="right") - 1
        inside = (idx >= 0) & (idx < len(self.values))
        out = np.where(inside, self.values[np.clip(idx, 0, len(self.values) - 1)], 0.0)
        return out if out.ndim else float(out)

    def _cdf(self, x):
        return np.interp(np.clip(x, self.edges[0], self.edges[-1]), self.edges, self._cum)

    def integral(self, lo, hi):
        out = np.where(np.greater(hi, lo), self._cdf(hi) - self._cdf(lo), 0.0)
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, n: int, lo: float, hi: float):
        flo, fhi = self._cdf(lo), self._cdf(hi)
        if fhi <= flo:
            return np.empty(0, dtype=float)
        u = rng.uniform(flo, fhi, size=n)
        return np.interp(u, self._cum, self.edges)

    def summary(self) -> dict:
        return {"kind": "piecewise", "edges": self.edges.tolist(),
                "values": self.values.tolist()}


class SmoothDensity:
    """Smooth density given by a callable on a bounded support.

    The antiderivative is precomputed once on a fine grid (per-panel
    Gauss-Legendre, then a cubic spline through the panel edges) so interval
    masses cost two spline evaluations.  Sampling is by rejection against a
    constant bound, which may be user-supplied but must be finite and at
    least the density's maximum on the quadrature nodes; a sample that is
    not complete after MAX_REJECTION_ROUNDS rounds is a ValueError.
    """

    _GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
    MAX_REJECTION_ROUNDS = 10_000

    def __init__(self, fn: Callable, support: tuple[float, float],
                 bound: float | None = None, panels: int = 4096):
        lo, hi = float(support[0]), float(support[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("smooth density needs a bounded support (lo, hi)")
        self.fn = fn
        self.support = (lo, hi)
        self.breakpoints = (lo, hi)
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        mids = 0.5 * (edges[:-1] + edges[1:])
        nodes = mids[:, None] + half * self._GL_NODES[None, :]
        vals = np.asarray(fn(nodes), dtype=float)
        if np.any(vals < -1e-12) or not np.all(np.isfinite(vals)):
            raise ValueError("density callable must be finite and >= 0 on its support")
        panel_masses = half * vals @ self._GL_WEIGHTS
        cum = np.concatenate([[0.0], np.cumsum(panel_masses)])
        self._spline = CubicSpline(edges, cum, bc_type="natural")
        self._total = float(cum[-1])
        top = float(vals.max())
        if bound is None:
            bound = top * 1.000001
        elif not (math.isfinite(bound) and bound >= top):
            raise ValueError(f"bound {bound} must be finite and at least the density's "
                             f"maximum {top} on its node grid")
        self.bound = float(bound)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > self.support[0]) & (x < self.support[1])
        out = np.where(inside, self.fn(np.clip(x, *self.support)), 0.0)
        return out if out.ndim else float(out)

    def integral(self, lo, hi):
        ends = np.clip(np.broadcast_arrays(lo, hi), *self.support)
        at_lo, at_hi = self._spline(ends)        # both ends in one call
        out = np.where(np.greater(hi, lo), at_hi - at_lo, 0.0)
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, n: int, lo: float, hi: float):
        lo = max(lo, self.support[0])
        hi = min(hi, self.support[1])
        if hi <= lo or n == 0:
            return np.empty(0, dtype=float)
        out = np.empty(n, dtype=float)
        filled = 0
        for _ in range(self.MAX_REJECTION_ROUNDS):
            m = max(n - filled, 64)
            xs = rng.uniform(lo, hi, size=2 * m)
            us = rng.uniform(0.0, self.bound, size=2 * m)
            acc = xs[us < self.value(xs)]
            take = min(len(acc), n - filled)
            out[filled:filled + take] = acc[:take]
            filled += take
            if filled == n:
                return out
        raise ValueError(
            f"rejection sampling of the smooth density on [{lo}, {hi}] accepted "
            f"{filled} of {n} points in {self.MAX_REJECTION_ROUNDS} rounds; "
            f"the density there is too small against the bound {self.bound}")

    def summary(self) -> dict:
        return {"kind": "smooth", "support": list(self.support),
                "total_mass": self._total, "bound": self.bound}


# ---------------------------------------------------------------------------
# mark laws
# ---------------------------------------------------------------------------

class ConstantMark:
    def __init__(self, value: float):
        if not math.isfinite(value):
            raise ValueError("mark must be finite")
        self.r = float(value)
        self.min_mark = self.r

    def moment(self, k: int) -> float:
        return self.r ** k

    def sample(self, rng: np.random.Generator, n: int):
        return np.full(n, self.r)

    def prob(self, lo: float, hi: float) -> float:
        return 1.0 if lo <= self.r <= hi else 0.0

    def summary(self) -> dict:
        return {"kind": "constant", "value": self.r}


class _UniformLaw:
    """Uniform law on [lo, hi]; subclasses name what it is a law of."""

    law = ""

    def __init__(self, lo: float, hi: float):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"uniform {self.law} needs lo < hi")
        self.lo, self.hi = float(lo), float(hi)

    def moment(self, k: int) -> float:
        if k == 0:
            return 1.0
        return (self.hi ** (k + 1) - self.lo ** (k + 1)) / ((k + 1) * (self.hi - self.lo))

    def sample(self, rng: np.random.Generator, n: int):
        return rng.uniform(self.lo, self.hi, size=n)

    def prob(self, lo: float, hi: float) -> float:
        w = min(hi, self.hi) - max(lo, self.lo)
        return max(w, 0.0) / (self.hi - self.lo)


class UniformMark(_UniformLaw):
    law = "mark"

    @property
    def min_mark(self) -> float:
        return self.lo

    def summary(self) -> dict:
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}


# ---------------------------------------------------------------------------
# velocity laws
# ---------------------------------------------------------------------------

class UniformVelocity(_UniformLaw):
    law = "velocity"
    tail_mass_removed = 0.0

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def truncated(self, lo: float, hi: float) -> "UniformVelocity":
        nlo, nhi = max(self.lo, lo), min(self.hi, hi)
        if nhi <= nlo:
            raise ValueError("velocity support truncation leaves no mass")
        out = UniformVelocity(nlo, nhi)
        out.tail_mass_removed = 1.0 - (nhi - nlo) / (self.hi - self.lo)
        return out

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        out = np.where((v >= self.lo) & (v <= self.hi), 1.0 / (self.hi - self.lo), 0.0)
        return out if out.ndim else float(out)

    def summary(self) -> dict:
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi,
                "tail_mass_removed": self.tail_mass_removed}


def _log_gauss_mass(a: float, b: float) -> float:
    """log(Phi(b) - Phi(a)) for a < b, accurate in both tails.

    A right-tail interval is mirrored into the left tail, where log_ndtr
    keeps its precision; a central interval subtracts both tails from 1.
    """
    if b <= 0.0:
        hi, lo = special.log_ndtr(b), special.log_ndtr(a)
    elif a > 0.0:
        hi, lo = special.log_ndtr(-a), special.log_ndtr(-b)
    else:
        return float(special.log1p(-special.ndtr(a) - special.ndtr(-b)))
    return float(hi + math.log(-math.expm1(lo - hi)))


def _log_add(p: float, q: np.ndarray) -> np.ndarray:
    """log(exp(p) + exp(q)), summed as scipy's ``logsumexp`` sums two terms.

    The quantile is ill-conditioned in log Phi far in the upper tail, so
    the operation order is kept to sample the same values as scipy's
    truncated normal to rounding.
    """
    hi = np.maximum(p, q)
    return np.log1p(np.exp(np.minimum(p, q) - hi)) + hi


class GaussianVelocity:
    """Gaussian velocity law, hard-truncated to the model's velocity support.

    The truncated law is renormalized to a probability; the removed tail
    mass is reported in the model summary so the user can bound the bias.
    With standardized bounds a, b and Gaussian mass m of [a, b], computed
    once per truncation, the law has the closed forms

        pdf(v)  = exp(-z**2 / 2) / (sd sqrt(2 pi) m),   z = (v - mean) / sd
        F^-1(u) = Phi^-1(Phi(a) + u m)                  if a < 0
                = -Phi^-1(Phi(-b) + (1 - u) m)          otherwise

    with the quantile evaluated in log space (``ndtri_exp``), mirrored so
    that it always works in the left tail where Phi keeps its precision.
    """

    def __init__(self, mean: float, sd: float):
        if not (math.isfinite(mean) and math.isfinite(sd) and sd > 0):
            raise ValueError("gaussian velocity needs finite mean and sd > 0")
        self.mean, self.sd = float(mean), float(sd)
        self.lo = self.hi = None
        self.tail_mass_removed = None

    @property
    def support(self):
        if self.lo is None:
            return (-math.inf, math.inf)
        return (self.lo, self.hi)

    def truncated(self, lo: float, hi: float) -> "GaussianVelocity":
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("gaussian velocities require finite truncation bounds")
        out = GaussianVelocity(self.mean, self.sd)
        a, b = (lo - self.mean) / self.sd, (hi - self.mean) / self.sd
        out.lo, out.hi = float(lo), float(hi)
        out._a, out._b = a, b
        out._log_mass = _log_gauss_mass(a, b)
        out._mirrored = a >= 0.0
        # log Phi of the bound the quantile starts from: a, or -b when mirrored
        out._log_phi_start = float(special.log_ndtr(-b if out._mirrored else a))
        out.tail_mass_removed = float(1.0 - (special.ndtr(b) - special.ndtr(a)))
        return out

    def _require_truncated(self):
        if self.lo is None:
            raise ValueError("gaussian velocity law used without v_support truncation")

    def _z(self, v):
        return (np.asarray(v, dtype=float) - self.mean) / self.sd

    def pdf(self, v):
        self._require_truncated()
        z = self._z(v)
        # scipy's order of operations, which keeps its truncated-normal pdf bits
        dens = np.exp(-z**2 / 2.0 - _LOG_SQRT_2PI - self._log_mass) / self.sd
        out = np.where((z >= self._a) & (z <= self._b), dens, 0.0)
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, n: int):
        self._require_truncated()
        u = rng.random(n)
        # the log share of the mass between the start bound and the quantile
        if self._mirrored:
            log_share, sign = np.log1p(-u), -1.0
        else:
            with np.errstate(divide="ignore"):  # u = 0 maps to the bound a
                log_share, sign = np.log(u), 1.0
        z = sign * special.ndtri_exp(_log_add(self._log_phi_start, log_share + self._log_mass))
        return z * self.sd + self.mean

    def prob(self, lo: float, hi: float) -> float:
        self._require_truncated()
        za, zb = np.clip(self._z((lo, hi)), self._a, self._b)
        if zb <= za:
            return 0.0
        if self._mirrored:
            mass = special.ndtr(-za) - special.ndtr(-zb)
        else:
            mass = special.ndtr(zb) - special.ndtr(za)
        return float(mass / math.exp(self._log_mass))

    def summary(self) -> dict:
        return {"kind": "gaussian", "mean": self.mean, "sd": self.sd,
                "support": list(self.support),
                "tail_mass_removed": self.tail_mass_removed}


# ---------------------------------------------------------------------------
# velocity-mark kernels
# ---------------------------------------------------------------------------

class ProductKernel:
    """kappa = (velocity law) x (mark law), independent of x."""

    is_discrete = False
    cell_edges: tuple[float, ...] = ()

    def __init__(self, velocity, mark):
        self.velocity = velocity
        self.mark = mark

    def truncated(self, lo: float, hi: float) -> "ProductKernel":
        return ProductKernel(self.velocity.truncated(lo, hi), self.mark)

    @property
    def v_support(self):
        return self.velocity.support

    @property
    def min_mark(self) -> float:
        return self.mark.min_mark

    def v_breakpoints(self) -> tuple[float, ...]:
        return self.velocity.support

    def vk_density(self, v: float, k: int, x: float) -> float:
        return self.velocity.pdf(v) * self.mark.moment(k)

    def atom_velocities(self):
        return None

    def sample(self, rng: np.random.Generator, xs):
        n = len(xs)
        return self.velocity.sample(rng, n), self.mark.sample(rng, n)

    def cell_prob(self, v_range, r_range, x: float) -> float:
        return self.velocity.prob(*v_range) * self.mark.prob(*r_range)

    def tail_mass_removed(self) -> float:
        return getattr(self.velocity, "tail_mass_removed", 0.0) or 0.0

    def summary(self) -> dict:
        return {"kind": "product", "velocity": self.velocity.summary(),
                "mark": self.mark.summary()}


class DiscreteKernel:
    """Finite set of velocity-mark atoms (v, r, weight), independent of x."""

    is_discrete = True
    cell_edges: tuple[float, ...] = ()

    def __init__(self, atoms: Sequence[tuple[float, float, float]]):
        atoms = [(float(v), float(r), float(w)) for v, r, w in atoms]
        if not atoms:
            raise ValueError("discrete kernel needs at least one atom")
        total = sum(w for _, _, w in atoms)
        if any(w <= 0 for _, _, w in atoms) or not math.isfinite(total) or total <= 0:
            raise ValueError("atom weights must be positive and finite")
        if abs(total - 1.0) > 1e-9:
            raise ValueError("atom weights must sum to 1")
        self.atoms = atoms
        self._cum = np.cumsum([w for _, _, w in atoms])
        # sum of w * r**k over the atoms at each distinct velocity, kernel order
        self._by_v: dict[float, list[float]] = {}
        for v, r, w in atoms:
            m = self._by_v.setdefault(v, [0.0] * len(_MOMENT_ORDERS))
            for k in _MOMENT_ORDERS:
                m[k] += w * r ** k
        self._velocities = tuple(self._by_v)

    def truncated(self, lo: float, hi: float) -> "DiscreteKernel":
        if any(not (lo <= v <= hi) for v, _, _ in self.atoms):
            raise ValueError("discrete kernel has atoms outside v_support")
        return self

    @property
    def v_support(self):
        vs = [v for v, _, _ in self.atoms]
        return (min(vs), max(vs))

    @property
    def min_mark(self) -> float:
        return min(r for _, r, _ in self.atoms)

    def atom_velocities(self):
        return self._velocities

    def atoms_at(self, x: float):
        return self.atoms

    def has_atom(self, v: float, r: float) -> bool:
        return any(u == v and s == r for u, s, _ in self.atoms)

    def vk_density(self, v: float, k: int, x: float) -> float:
        m = self._by_v.get(v)
        return m[k] if m is not None else 0.0

    def sample(self, rng: np.random.Generator, xs):
        n = len(xs)
        idx = np.searchsorted(self._cum, rng.random(n))
        vs = np.array([a[0] for a in self.atoms])[idx]
        rs = np.array([a[1] for a in self.atoms])[idx]
        return vs, rs

    def cell_prob(self, v_range, r_range, x: float) -> float:
        return sum(w for v, r, w in self.atoms
                   if v_range[0] <= v <= v_range[1] and r_range[0] <= r <= r_range[1])

    def tail_mass_removed(self) -> float:
        return 0.0

    def summary(self) -> dict:
        return {"kind": "atoms",
                "atoms": [{"v": v, "r": r, "weight": w} for v, r, w in self.atoms]}


class PiecewiseKernel:
    """Conditional law with piecewise-constant dependence on x.

    Cells are contiguous intervals [lo, hi) each carrying its own
    x-independent kernel; all cells must be of the same discreteness so one
    velocity rule serves every x.
    """

    def __init__(self, cells: Sequence[tuple[float, float, object]]):
        if not cells:
            raise ValueError("piecewise kernel needs at least one cell")
        cells = sorted(((float(lo), float(hi), kern) for lo, hi, kern in cells),
                       key=lambda c: c[0])
        for (lo, hi, _), (nlo, _, _) in zip(cells, cells[1:]):
            if hi > nlo:
                raise ValueError("kernel cells must not overlap")
        if any(hi <= lo for lo, hi, _ in cells):
            raise ValueError("kernel cells must have positive width")
        kinds = {k.is_discrete for _, _, k in cells}
        if len(kinds) != 1:
            raise ValueError("kernel cells must be all discrete or all continuous")
        self.cells = cells
        self.is_discrete = cells[0][2].is_discrete
        self._velocities = (tuple(sorted({v for _, _, k in cells
                                          for v in k.atom_velocities()}))
                            if self.is_discrete else None)

    def truncated(self, lo: float, hi: float) -> "PiecewiseKernel":
        return PiecewiseKernel([(a, b, k.truncated(lo, hi)) for a, b, k in self.cells])

    @property
    def cell_edges(self) -> tuple[float, ...]:
        edges = []
        for lo, hi, _ in self.cells:
            edges.extend((lo, hi))
        return tuple(sorted(set(edges)))

    @property
    def v_support(self):
        los, his = zip(*(k.v_support for _, _, k in self.cells))
        return (min(los), max(his))

    @property
    def min_mark(self) -> float:
        return min(k.min_mark for _, _, k in self.cells)

    def _cell_at(self, x: float):
        for lo, hi, kern in self.cells:
            if lo <= x < hi:
                return kern
        return None

    def atom_velocities(self):
        return self._velocities

    def atoms_at(self, x: float):
        kern = self._cell_at(x)
        return kern.atoms_at(x) if kern is not None else []

    def has_atom(self, v: float, r: float) -> bool:
        return any(k.has_atom(v, r) for _, _, k in self.cells)

    def vk_density(self, v: float, k: int, x):
        # cells do not overlap, so at most one term is nonzero at each x
        out = sum(np.where((lo <= x) & (x < hi), kern.vk_density(v, k, x), 0.0)
                  for lo, hi, kern in self.cells)
        return out if np.ndim(out) else float(out)

    def v_breakpoints(self) -> tuple[float, ...]:
        pts = set()
        for _, _, k in self.cells:
            pts.update(k.v_breakpoints())
        return tuple(sorted(pts))

    def sample(self, rng: np.random.Generator, xs):
        xs = np.asarray(xs, dtype=float)
        vs = np.empty(len(xs))
        rs = np.empty(len(xs))
        assigned = np.zeros(len(xs), dtype=bool)
        for lo, hi, kern in self.cells:
            mask = (xs >= lo) & (xs < hi)
            if mask.any():
                v, r = kern.sample(rng, xs[mask])
                vs[mask], rs[mask] = v, r
                assigned |= mask
        if not assigned.all():
            raise ValueError("sampled positions fall outside all kernel cells")
        return vs, rs

    def cell_prob(self, v_range, r_range, x: float) -> float:
        kern = self._cell_at(x)
        return kern.cell_prob(v_range, r_range, x) if kern is not None else 0.0

    def tail_mass_removed(self) -> float:
        return max(k.tail_mass_removed() for _, _, k in self.cells)

    def summary(self) -> dict:
        return {"kind": "piecewise",
                "cells": [{"x_range": [lo, hi], "kernel": k.summary()}
                          for lo, hi, k in self.cells]}


# ---------------------------------------------------------------------------
# the velocity rule and the crossing-moment machinery
# ---------------------------------------------------------------------------

def velocity_integral(kernel, f: Callable[[float], float], lo: float, hi: float,
                      kinks: Sequence[float] = ()) -> float:
    """The velocity rule: f integrated over the velocities in [lo, hi].

    The integrand carries the law's weight itself, through
    ``kernel.vk_density``.  For a kernel of atoms the rule sums f over the
    distinct atom velocities in [lo, hi], in kernel order; f may return
    arrays, which are summed elementwise.  For a continuous law it is
    adaptive quadrature with the law's breakpoints and the given kinks as
    break points, and f must return a scalar.
    """
    vs = kernel.atom_velocities()
    if vs is None:
        return _quad(f, lo, hi, (*kernel.v_breakpoints(), *kinks))
    total = 0.0
    for v in vs:
        if lo <= v <= hi:
            total += f(v)
    return total


def _oriented_v_ranges(seg: Segment, vlo: float, vhi: float):
    """Closed subranges of [vlo, vhi] carrying Plus / Minus crossings of seg.

    The orientation at velocity v is the sign of dx - v*dt; the domain
    splits at v* = dx/dt.  A range may have zero width, which keeps the
    atom of a single-atom kernel.
    """
    dx = seg.b.x - seg.a.x
    dt = seg.b.t - seg.a.t
    if dt == 0.0:
        if dx > 0.0:
            return [(vlo, vhi, "plus")]
        if dx < 0.0:
            return [(vlo, vhi, "minus")]
        return []
    vstar = dx / dt
    if dt > 0.0:
        below, above = "plus", "minus"
    else:
        below, above = "minus", "plus"
    ranges = []
    if vlo <= min(vstar, vhi):
        ranges.append((vlo, min(vstar, vhi), below))
    if max(vstar, vlo) <= vhi:
        ranges.append((max(vstar, vlo), vhi, above))
    return ranges


def _pivot_crossing_velocities(seg1: Segment, seg2: Segment):
    """Velocities where any two pivot lines of the two segments meet."""
    pts = []
    ends = [(seg1.a.x, seg1.a.t), (seg1.b.x, seg1.b.t),
            (seg2.a.x, seg2.a.t), (seg2.b.x, seg2.b.t)]
    for i in range(len(ends)):
        for j in range(i + 1, len(ends)):
            (xi, ti), (xj, tj) = ends[i], ends[j]
            if ti != tj:
                pts.append((xi - xj) / (ti - tj))
    return pts


class _CrossingMoments:
    """Shared Plus/Minus/Both and intersection machinery.

    Subclasses provide ``kernel``, ``v_support`` and ``x_mass``, the mass of
    an intercept interval at fixed velocity.
    """

    def x_mass(self, v: float, k: int, lo: float, hi: float) -> float:
        """m_k mass at velocity v of the intercepts in [lo, hi]."""
        raise NotImplementedError

    def moment_on_crossing(self, k: int, seg: Segment, sign: str = "both") -> float:
        """mu_k of the set of lines crossing seg with the given orientation."""
        if k not in _MOMENT_ORDERS:
            raise ValueError(f"moment order must be one of {_MOMENT_ORDERS}")
        if sign not in ("plus", "minus", "both"):
            raise ValueError("sign must be 'plus', 'minus' or 'both'")
        if seg.is_degenerate:
            return 0.0
        dx = seg.b.x - seg.a.x
        dt = seg.b.t - seg.a.t
        total = 0.0
        for lo, hi, orient in _oriented_v_ranges(seg, *self.v_support):
            if sign != "both" and orient != sign:
                continue

            def f(v, plus=orient == "plus"):
                # the sign, not the range, orients an atom at v* = dx/dt
                s = dx - v * dt
                if s == 0.0 or (s > 0.0) != plus:
                    return 0.0
                return self.x_mass(v, k, *crossing_interval(v, seg))

            total += velocity_integral(self.kernel, f, lo, hi)
        return total

    def moment_intersection(self, k: int, seg1: Segment, seg2: Segment) -> float:
        """mu_k of {lines crossing seg1} intersect {lines crossing seg2}."""
        if k not in _MOMENT_ORDERS:
            raise ValueError(f"moment order must be one of {_MOMENT_ORDERS}")
        if seg1.is_degenerate or seg2.is_degenerate:
            return 0.0

        def f(v):
            lo1, hi1 = crossing_interval(v, seg1)
            lo2, hi2 = crossing_interval(v, seg2)
            return self.x_mass(v, k, max(lo1, lo2), min(hi1, hi2))

        return velocity_integral(self.kernel, f, *self.v_support,
                                 _pivot_crossing_velocities(seg1, seg2))


# ---------------------------------------------------------------------------
# the intensity model and its frame variants
# ---------------------------------------------------------------------------

class IntensityModel(_CrossingMoments):
    """Measure rho(x) dx kappa(dv, dr | x) with finite velocity support."""

    def __init__(self, rho, kernel, v_support: tuple[float, float] | None = None):
        self.rho = rho
        if v_support is not None:
            lo, hi = float(v_support[0]), float(v_support[1])
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError("v_support must be a finite interval (lo, hi)")
            kernel = kernel.truncated(lo, hi)
        self.kernel = kernel
        lo, hi = self.kernel.v_support
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("velocity support is unbounded; pass v_support")
        self.v_support = (float(lo), float(hi))
        self._check_cells_cover_support()

    def _check_cells_cover_support(self) -> None:
        edges = self.kernel.cell_edges
        if not edges:
            return
        lo, hi = self.rho.support
        if lo < edges[0] or hi > edges[-1]:
            raise ValueError("kernel cells must cover the support of rho")

    @property
    def max_speed(self) -> float:
        return max(abs(self.v_support[0]), abs(self.v_support[1]))

    @property
    def marks_nonnegative(self) -> bool:
        return self.kernel.min_mark >= 0.0

    def x_mass(self, v, k, lo, hi):
        # lo and hi may be arrays; each cell of a piecewise kernel weighs the
        # rho-mass of its part of [lo, hi]
        total = 0.0
        if not self.kernel.cell_edges:
            total += self.kernel.vk_density(v, k, lo) * self.rho.integral(lo, hi)
            return total
        for a, b, cell in self.kernel.cells:
            total += cell.vk_density(v, k, a) * self.rho.integral(np.maximum(lo, a),
                                                                  np.minimum(hi, b))
        return total

    def x_marginal_density(self, x: float) -> float:
        return float(np.asarray(self.rho.value(x)))

    def window_mass(self, lo: float, hi: float) -> float:
        return self.rho.integral(lo, hi)

    def sample_phase(self, rng: np.random.Generator, n: int, lo: float, hi: float):
        xs = self.rho.sample(rng, n, lo, hi)
        vs, rs = self.kernel.sample(rng, xs)
        return xs, vs, rs

    def summary(self) -> dict:
        return {"rho": self.rho.summary(), "kernel": self.kernel.summary(),
                "v_support": list(self.v_support),
                "tail_mass_removed": self.kernel.tail_mass_removed(),
                "marks_nonnegative": self.marks_nonnegative}


class _FrameModel(_CrossingMoments):
    """A base model seen from the space-time frame point (z, s).

    Subclasses give ``_source(x, v)``: the base-model intercept of the line
    seen at relative intercept x with velocity v.
    """

    mode = ""

    def __init__(self, base: IntensityModel, z: float, s: float):
        self.base = base
        self.z, self.s = float(z), float(s)
        self.v_support = base.v_support
        self.kernel = base.kernel

    @property
    def max_speed(self):
        return self.base.max_speed

    @property
    def marks_nonnegative(self):
        return self.base.marks_nonnegative

    def _source(self, x: float, v: float) -> float:
        raise NotImplementedError

    def x_marginal_density(self, x: float) -> float:
        def f(v):
            pos = self._source(x, v)
            return self.kernel.vk_density(v, 0, pos) * float(np.asarray(self.base.rho.value(pos)))

        return velocity_integral(self.kernel, f, *self.v_support)

    def summary(self) -> dict:
        return {"mode": self.mode, "frame": [self.z, self.s],
                "base": self.base.summary()}


class _TranslatedModel(_FrameModel):
    """Space-time translation of a base model by (z, s).

    A point (x, v, r) of the base measure is seen at relative intercept
    x + v*s - z, so crossing masses of a segment equal base masses of the
    segment translated by (z, s).
    """

    mode = "translated"

    def _source(self, x, v):
        return self.z + x - v * self.s

    def moment_on_crossing(self, k, seg, sign="both"):
        return self.base.moment_on_crossing(k, seg.translated(self.z, self.s), sign)

    def moment_intersection(self, k, seg1, seg2):
        return self.base.moment_intersection(
            k, seg1.translated(self.z, self.s), seg2.translated(self.z, self.s))


class _FrozenModel(_FrameModel):
    """Space-homogeneous freeze of a base model at the frame point (z, s).

    At velocity v the x-density is the base phase density evaluated at the
    backtracked position z - v*s, constant in x.
    """

    mode = "frozen"

    def _source(self, x, v):
        return self.z - v * self.s

    def x_mass(self, v, k, lo, hi):
        if hi <= lo:
            return 0.0
        pos = self._source(0.0, v)
        rho = float(np.asarray(self.base.rho.value(pos)))
        return (hi - lo) * rho * self.kernel.vk_density(v, k, pos)


def timeshifted_model(model: IntensityModel, z: float, s: float,
                      mode: str = "translated"):
    """Frame variant of a model at the space-time point (z, s).

    mode "translated" (alias "tilde") is the space-time translation: every
    point of the base measure is mapped to its intercept relative to an
    observer at (z, s).  mode "frozen" keeps only the local phase density at
    the frame point, yielding a space-homogeneous measure; for homogeneous
    base models it coincides with the base.
    """
    if mode in ("translated", "tilde"):
        return _TranslatedModel(model, z, s)
    if mode == "frozen":
        return _FrozenModel(model, z, s)
    raise ValueError("mode must be 'translated', 'tilde' or 'frozen'")
