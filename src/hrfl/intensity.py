"""Intensity measures of marked line processes and their crossing moments.

An :class:`IntensityModel` is a measure on space-velocity-mark triples in
product form ``rho(x) dx  kappa(dv, dr | x)`` with ``kappa(.|x)`` a
probability measure.  The k-th moment measure weights the base measure by
``r**k``.  The quantities that parametrize every limit theorem in this
package are moment masses of crossing sets: for a segment ``ab``,

    moment_on_crossing(k, ab, "both")   ~  mu_k(ab) = mu_k(ab+) + mu_k(ab-)
    moment_on_crossing(k, ab, "net")    ~  mu_k(ab+) - mu_k(ab-)
    moment_intersection(k, ab, cd)      ~  mu_k(ab intersect cd)

Each is one velocity integral of ``rho``-masses over the velocity support.
A line of velocity v crosses ``ab`` when its intercept lies between the
pivots ``a.x - v*a.t`` and ``b.x - v*b.t``: Plus when the pivot of b lies
right of the pivot of a (``dx - v*dt > 0``), Minus when it lies left.
``both`` integrates the mass between the pivots and ``net`` negates it where
the pivot of b lies left; they swap at the break point ``v* = dx/dt``, where
an atom crosses in neither direction.  The translated frame of the
diffusive limits at (z, s) is the base model on the segment translated by
(z, s); the frozen frame enters only through the phase moment of
:mod:`hrfl.hydro`.

Every velocity integral, here and in :mod:`hrfl.hydro`, goes through one
rule, :func:`velocity_integral`.  The integrand maps an array of velocities
to an array with the velocity axis first, and may return a column per
position.  It carries the law's weight through ``kernel.vk_density(v, k,
x)``, elementwise over v: a density in v for a continuous law, the mass
``sum w * r**k`` of the atoms at v for a kernel of atoms.  The rule sums the
integrand over the atom velocities, all in one call and with no quadrature
error, or integrates it by globally adaptive 21-point Gauss-Kronrod
quadrature (QUADPACK's qk21 rule and error estimate, bisecting the worst
subinterval as QAG does), in numpy, one call per panel of 21 nodes, with
the kink locations passed as breakpoints.

The continuous velocity laws are uniform and a Gaussian truncated to the
velocity support.  Its constants come from ``math.erfc`` and its inverse CDF is
Wichura's AS241 normal quantile (Applied Statistics 37, 1988) in numpy, so
importing this module or building any model loads no scipy module.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

import numpy as np

from .geometry import Segment, crossing_interval

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8
QUAD_LIMIT = 200

_MOMENT_ORDERS = (0, 1, 2)
_LOG_SQRT_2PI = math.log(math.sqrt(2.0 * math.pi))


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance, or the
    crossing-moment distances it gave do not form a covariance."""


# QUADPACK's qk21 rule on [-1, 1], given on its nonnegative half: the
# Kronrod nodes, their weights, and the weights of the 10-point Gauss rule,
# whose nodes are every other Kronrod node (zero weight elsewhere)
_GK21_X = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
           0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
           0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
           0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
           0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
           0.0)
_GK21_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
            0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
            0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
            0.123491976262065851077208950175218, 0.134709217311473325928054001771707,
            0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
            0.149445554002916905664936468389821)
_GK21_WG = (0.0, 0.066671344308688137593568809893332,
            0.0, 0.149451349150580593145776339657697,
            0.0, 0.219086362515982043995534934228163,
            0.0, 0.269266719309996355091226921569469,
            0.0, 0.295524224714752870173892994651338,
            0.0)


def _mirrored(half, sign=1.0):
    """A rule's array on all of [-1, 1] from its nonnegative half."""
    return np.array([sign * h for h in half[:-1]] + list(reversed(half)))


_GK21_NODES = _mirrored(_GK21_X, -1.0)
_GK21_KRONROD = _mirrored(_GK21_WK)
_GK21_GAUSS = _mirrored(_GK21_WG)
_EPS50 = 50.0 * float(np.finfo(float).eps)


def _node_sum(weights, fv):
    # sum_i weights[i] fv[i]; a (21, n) fv is summed column by column, each
    # column rounded by itself, so permuting the columns permutes the results
    return weights @ fv if fv.ndim == 1 else (weights[:, None] * fv).sum(axis=0)


def _gk21(f: Callable, a: float, b: float):
    """The qk21 estimate of the integral of f over [a, b], its error and its rounding floor.

    f maps the 21 nodes, as one array, to an array with the node axis first.
    The error is QUADPACK's: the Kronrod-Gauss difference, rescaled by the
    integrand's spread about its mean and floored at rounding level, 50 ulp
    of the integral of |f|.
    """
    half = 0.5 * (b - a)
    fv = np.asarray(f(0.5 * (a + b) + half * _GK21_NODES), dtype=float)
    kronrod = _node_sum(_GK21_KRONROD, fv)
    err = np.abs((kronrod - _node_sum(_GK21_GAUSS, fv)) * half)
    spread = _node_sum(_GK21_KRONROD, np.abs(fv - 0.5 * kronrod)) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = spread * np.minimum(1.0, (200.0 * err / spread) ** 1.5)
    err = np.where((spread != 0.0) & (err != 0.0), scaled, err)
    floor = _EPS50 * _node_sum(_GK21_KRONROD, np.abs(fv)) * half
    return kronrod * half, np.maximum(floor, err), floor


def _fsum(parts):
    """math.fsum over the list parts, component by component; a float for scalars."""
    parts = np.array(parts)
    return math.fsum(parts) if parts.ndim == 1 else np.array([math.fsum(c) for c in parts.T])


def _quad(f: Callable, lo: float, hi: float, inner_points=()):
    """Integral of f over [lo, hi], globally adaptive, for every component at once.

    f is called once per qk21 panel, as :func:`_gk21` describes; an integrand
    returning (21,) gives a float and one returning (21, n) an (n,) array.
    The interval is first split at the inner points; then, as in QUADPACK's
    QAG, the subinterval with the largest qk21 error of any component is
    bisected until the summed error of every component, less its summed
    rounding floor, is at most max(QUAD_ABS_TOL, QUAD_REL_TOL * |its
    integral|): bisection cannot lower a floor, which for a signed integral
    that cancels to near 0 may lie above that tolerance.  Needing more than
    QUAD_LIMIT subintervals, or a subinterval too short to bisect, is a
    QuadratureError that reports the largest error achieved.
    """
    if hi <= lo:
        return 0.0
    inner = np.asarray(inner_points, dtype=float)
    edges = [lo, *sorted(set(inner[(lo < inner) & (inner < hi)].tolist())), hi]
    panels = []               # a heap of (-largest error, a, b, estimate, error, floor)
    new = list(zip(edges, edges[1:]))
    while True:
        for a, b in new:
            value, err, floor = _gk21(f, a, b)
            heapq.heappush(panels, (-float(np.max(err, initial=0.0)), a, b, value, err, floor))
        value, err, floor = (_fsum([p[i] for p in panels]) for i in (3, 4, 5))
        if np.all(err - floor <= np.maximum(QUAD_ABS_TOL, QUAD_REL_TOL * np.abs(value))):
            return value
        a, b = panels[0][1:3]
        mid = 0.5 * (a + b)
        if len(panels) >= QUAD_LIMIT or not a < mid < b:
            raise QuadratureError(
                f"quadrature on [{lo}, {hi}] did not converge in "
                f"{len(panels)} subintervals (achieved abserr={np.max(err, initial=0.0):.3e})")
        heapq.heappop(panels)
        new = [(a, mid), (mid, b)]


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
        out = np.where(np.greater(hi, lo), self.c * np.subtract(hi, lo), 0.0)
        return out if out.ndim else float(out)

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
        if not (np.all(np.isfinite(self.edges)) and np.all(np.diff(self.edges) > 0)):
            raise ValueError("edges must be finite and strictly increasing")
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

    The antiderivative F is precomputed once on a uniform grid of PANELS
    panels: 8-point Gauss-Legendre masses give F at the panel edges, and on
    each panel F is the cubic Hermite interpolant with F' = fn at both edges,
    stored in the power basis of the offset from the left edge.  Its error
    is O(h**4).  An interval mass costs two Horner evaluations, and an
    array call returns the same bits as one call per element.  Sampling is
    by rejection against a constant bound, the density's maximum on the
    quadrature nodes raised by a relative 1e-6; a sample that is not
    complete after MAX_REJECTION_ROUNDS rounds is a ValueError.
    """

    _GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
    MAX_REJECTION_ROUNDS = 10_000
    PANELS = 4096

    def __init__(self, fn: Callable, support: tuple[float, float]):
        lo, hi = float(support[0]), float(support[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("smooth density needs a bounded support (lo, hi)")
        self.fn = fn
        self.support = (lo, hi)
        self.breakpoints = (lo, hi)
        edges = np.linspace(lo, hi, self.PANELS + 1)
        half = 0.5 * (edges[1] - edges[0])
        mids = 0.5 * (edges[:-1] + edges[1:])
        nodes = mids[:, None] + half * self._GL_NODES[None, :]
        vals = np.asarray(fn(nodes), dtype=float)
        slopes = np.asarray(fn(edges), dtype=float)       # F' at the panel edges
        if not all(np.all(np.isfinite(a) & (a >= -1e-12)) for a in (vals, slopes)):
            raise ValueError("density callable must be finite and >= 0 on its support")
        panel_masses = half * vals @ self._GL_WEIGHTS
        cum = np.concatenate([[0.0], np.cumsum(panel_masses)])
        h = 2.0 * half
        mean = panel_masses / h
        d0, d1 = slopes[:-1], slopes[1:]
        # F(e_i + s) = c0 + c1 s + c2 s**2 + c3 s**3 on panel i
        self._coef = (cum[:-1], d0, (3.0 * mean - 2.0 * d0 - d1) / h,
                      (d0 + d1 - 2.0 * mean) / (h * h))
        self._edges, self._h = edges, h
        self._total = float(cum[-1])
        self.bound = float(vals.max()) * 1.000001

    def value(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > self.support[0]) & (x < self.support[1])
        out = np.where(inside, self.fn(np.clip(x, *self.support)), 0.0)
        return out if out.ndim else float(out)

    def integral(self, lo, hi):
        ends = np.clip(np.broadcast_arrays(lo, hi), *self.support)
        i = np.minimum(((ends - self.support[0]) / self._h).astype(np.intp),
                       len(self._edges) - 2)
        s = ends - self._edges[i]
        c0, c1, c2, c3 = (c[i] for c in self._coef)
        at_lo, at_hi = ((c3 * s + c2) * s + c1) * s + c0      # both ends at once
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

def _finite_moments(moment: Callable) -> list:
    """[moment(k) for k in _MOMENT_ORDERS], each a float or a list of them; a
    ValueError unless every one is finite."""
    try:
        out = [moment(k) for k in _MOMENT_ORDERS]
    except OverflowError:
        out = [math.inf]
    if not np.all(np.isfinite(out)):
        raise ValueError(f"the mark moments r**k, k in {_MOMENT_ORDERS}, must be finite")
    return out


class ConstantMark:
    def __init__(self, value: float):
        if not math.isfinite(value):
            raise ValueError("mark must be finite")
        self.r = float(value)
        self.min_mark = self.r
        self.moments = _finite_moments(lambda k: self.r ** k)

    def sample(self, rng: np.random.Generator, n: int):
        return np.full(n, self.r)

    def summary(self) -> dict:
        return {"kind": "constant", "value": self.r}


class _UniformLaw:
    """Uniform law on [lo, hi]; subclasses name what it is a law of."""

    law = ""

    def __init__(self, lo: float, hi: float):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"uniform {self.law} needs lo < hi")
        self.lo, self.hi = float(lo), float(hi)

    def sample(self, rng: np.random.Generator, n: int):
        return rng.uniform(self.lo, self.hi, size=n)


class UniformMark(_UniformLaw):
    law = "mark"

    def __init__(self, lo: float, hi: float):
        super().__init__(lo, hi)
        self.moments = _finite_moments(lambda k: 1.0 if k == 0 else (
            (self.hi ** (k + 1) - self.lo ** (k + 1)) / ((k + 1) * (self.hi - self.lo))))

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


_SQRT_HALF, _2_SQRT_PI = math.sqrt(0.5), 2.0 * math.sqrt(math.pi)
_LOG_TINY = -708.0  # below this log p, p leaves the normal doubles and the range of AS241
# AS241 (PPND16) numerator, denominator rows by power: |p - 1/2| <= 0.425, then r <= 5, r > 5
_AS241 = np.array([
    3.3871328727963665, 133.14166789178438, 1971.5909503065513, 13731.69376550946,
    45921.95393154987, 67265.7709270087, 33430.57558358813, 2509.0809287301227, 1.0,
    42.31333070160091, 687.1870074920579, 5394.196021424751, 21213.794301586597, 39307.89580009271,
    28729.085735721943, 5226.495278852854, 1.4234371107496835, 4.630337846156546, 5.769497221460691,
    3.6478483247632045, 1.2704582524523684, 0.2417807251774506, 0.022723844989269184,
    0.0007745450142783414, 1.0, 2.053191626637759, 1.6763848301838038, 0.6897673349851,
    0.14810397642748008, 0.015198666563616457, 0.0005475938084995345, 1.0507500716444169e-09,
    6.657904643501103, 5.463784911164114, 1.7848265399172913, 0.29656057182850487,
    0.026532189526576124, 0.0012426609473880784, 2.7115555687434876e-05, 2.0103343992922881e-07,
    1.0, 0.599832206555888, 0.1369298809227358, 0.014875361290850615, 0.0007868691311456133,
    1.8463183175100548e-05, 1.421511758316446e-07, 2.0442631033899397e-15]).reshape(6, 8)
_ERFCX_SERIES = (-135135.0, 10395.0, -945.0, 105.0, -15.0, 3.0, -1.0, 1.0)  # (-1)**n (2n-1)!!


def _ndtr(x: float) -> float:
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def _log_ndtr(x):
    """log Phi(x) for x <= 0.  An array, or x below -37 where erfc underflows, takes scipy's
    log(erfcx(-t) / 2) - t**2 with t = x / sqrt(2) and erfcx's asymptotic series (x < -37)."""
    if np.ndim(x) == 0 and x >= -37.0:
        return math.log(_ndtr(x))
    t = x * _SQRT_HALF
    return np.log(np.polyval(_ERFCX_SERIES, 1.0 / (x * x))) - np.log(-_2_SQRT_PI * t) - t * t


def _log_gauss_mass(a: float, b: float) -> float:
    """log(Phi(b) - Phi(a)) for a < b, from the left tail (a right tail mirrored) or 1 - tails."""
    if a > 0.0:
        a, b = -b, -a
    if b > 0.0:
        return math.log1p(-_ndtr(a) - _ndtr(-b))
    hi = _log_ndtr(b)
    return float(hi + math.log(-math.expm1(_log_ndtr(a) - hi)))


def _polys(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row of coef at each x, summed as powers: AS241's terms are all positive."""
    v = np.empty((8, len(x)))
    v[0], v[1] = 1.0, x
    for k in range(2, 8):
        np.multiply(v[k - 1], x, out=v[k])
    return coef @ v


def _ndtri(p: np.ndarray, log_p: np.ndarray | None = None) -> np.ndarray:
    """The standard normal quantile of each p by AS241, to about 1e-16 relative; the lower tail
    takes ``log_p``, if given, for log p, and past AS241's range two Newton steps on log Phi
    polish it (to 1e-16 down to log p = -1e7)."""
    q = p - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):  # p = 0 or 1 maps to -inf or inf
        r = np.log(np.minimum(p, 1.0 - p))
        if log_p is not None:
            np.copyto(r, log_p, where=q < 0.0)
        r = np.sqrt(np.negative(r, out=r), out=r)
        aq = np.abs(q)
        mid = aq <= 0.425
        rows = _polys(_AS241[:4], np.where(mid, 0.180625 - aq * aq, r - 1.6))
        z = np.copysign(np.where(mid, rows[0] * aq / rows[1], rows[2] / rows[3]), q)
        if r.max(initial=0.0) > 5.0:
            far = np.flatnonzero(r > 5.0)
            num, den = _polys(_AS241[4:], r[far] - 5.0)
            z[far] = np.copysign(np.where(r[far] < np.inf, num / den, np.inf), q[far])
    if log_p is not None:  # Newton on log Phi(z) = log p, whose slope is phi / Phi
        deep = np.flatnonzero((log_p < _LOG_TINY) & (log_p > -np.inf))
        for _ in range(2):
            log_phi = _log_ndtr(z[deep])
            z[deep] -= (log_phi - log_p[deep]) * np.exp(log_phi + z[deep] ** 2 / 2 + _LOG_SQRT_2PI)
    return z


class GaussianVelocity:
    """Gaussian velocity law on [lo, hi], hard-truncated to the model's velocity support.

    The truncated law is renormalized to a probability; the removed tail
    mass is reported in the model summary so the user can bound the bias.
    With standardized bounds a, b and Gaussian mass m of [a, b], computed
    from ``math.erfc`` when the law is built, the law has the closed forms

        pdf(v)  = exp(-z**2 / 2) / (sd sqrt(2 pi) m),   z = (v - mean) / sd
        F^-1(u) = Phi^-1(Phi(a) + u m)                  if a < 0
                = -Phi^-1(Phi(-b) + (1 - u) m)          otherwise

    with Phi^-1 the numpy AS241 quantile, mirrored so that it starts from the
    left tail, where Phi keeps its precision, and in log space if Phi(a) or m underflows.
    """

    def __init__(self, mean: float, sd: float, lo: float = -math.inf, hi: float = math.inf):
        if not (math.isfinite(mean) and math.isfinite(sd) and sd > 0 and lo < hi):
            raise ValueError("gaussian velocity needs finite mean, sd > 0 and lo < hi")
        self.mean, self.sd = float(mean), float(sd)
        self.lo, self.hi = float(lo), float(hi)
        # exact on the whole line: a log mass of 0 and no tail removed
        a, b = (self.lo - self.mean) / self.sd, (self.hi - self.mean) / self.sd
        self._a, self._b = a, b
        self._log_mass = _log_gauss_mass(a, b)
        self._mirrored = a >= 0.0
        # log Phi of the bound the quantile starts from: a, or -b when mirrored
        self._log_phi_start = float(_log_ndtr(-b if self._mirrored else a))
        self.tail_mass_removed = 1.0 - (_ndtr(b) - _ndtr(a))

    @property
    def support(self):
        return (self.lo, self.hi)

    def truncated(self, lo: float, hi: float) -> "GaussianVelocity":
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("gaussian velocities require finite truncation bounds")
        lo, hi = max(self.lo, lo), min(self.hi, hi)
        if hi <= lo:
            raise ValueError("velocity support truncation leaves no mass")
        return GaussianVelocity(self.mean, self.sd, lo, hi)

    def pdf(self, v):
        z = (np.asarray(v, dtype=float) - self.mean) / self.sd
        # scipy's order of operations, which keeps its truncated-normal pdf bits
        dens = np.exp(-z**2 / 2.0 - _LOG_SQRT_2PI - self._log_mass) / self.sd
        out = np.where((z >= self._a) & (z <= self._b), dens, 0.0)
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, n: int):
        u = rng.random(n)
        if self._mirrored:  # the share of the mass between the start bound and the quantile
            u = 1.0 - u
        if min(self._log_phi_start, self._log_mass) >= _LOG_TINY:
            z = _ndtri(math.exp(self._log_phi_start) + u * math.exp(self._log_mass))
        else:
            with np.errstate(divide="ignore"):  # u = 0 maps to the bound a
                log_p = np.logaddexp(self._log_phi_start, np.log(u) + self._log_mass)
            z = _ndtri(np.exp(log_p), log_p)
        return (-z if self._mirrored else z) * self.sd + self.mean

    def summary(self) -> dict:
        return {"kind": "gaussian", "mean": self.mean, "sd": self.sd,
                "support": list(self.support),
                "tail_mass_removed": self.tail_mass_removed}


# ---------------------------------------------------------------------------
# velocity-mark kernels
# ---------------------------------------------------------------------------

class ProductKernel:
    """kappa = (velocity law) x (mark law), independent of x: one cell over the whole line."""

    def __init__(self, velocity, mark):
        self.velocity = velocity
        self.mark = mark
        self.cells = ((-math.inf, math.inf, self),)

    def truncated(self, lo: float, hi: float) -> "ProductKernel":
        return ProductKernel(self.velocity.truncated(lo, hi), self.mark)

    @property
    def v_support(self):
        return self.velocity.support

    @property
    def min_mark(self) -> float:
        return self.mark.min_mark

    def vk_density(self, v, k: int, x):
        return self.velocity.pdf(v) * self.mark.moments[k]

    def atom_velocities(self):
        return None

    def sample(self, rng: np.random.Generator, xs):
        n = len(xs)
        return self.velocity.sample(rng, n), self.mark.sample(rng, n)

    def tail_mass_removed(self) -> float:
        return self.velocity.tail_mass_removed

    def summary(self) -> dict:
        return {"kind": "product", "velocity": self.velocity.summary(),
                "mark": self.mark.summary()}


class DiscreteKernel:
    """Finite set of velocity-mark atoms (v, r, weight), independent of x: one cell."""

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
        self.cells = ((-math.inf, math.inf, self),)
        self._cum = np.cumsum([w for _, _, w in atoms])
        self._velocities = tuple(dict.fromkeys(v for v, _, _ in atoms))
        # [k][velocity]: the sum of w * r**k over the atoms at each distinct velocity
        self._moment_sums = _finite_moments(lambda k: [
            sum((w * r ** k for u, r, w in atoms if u == v), 0.0) for v in self._velocities])

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

    def vk_density(self, v, k: int, x):
        # an exact lookup, elementwise over v; 0 at a velocity that is no atom
        out = 0.0
        for u, m in zip(self._velocities, self._moment_sums[k]):
            out = np.where(np.equal(v, u), m, out)
        return out

    def sample(self, rng: np.random.Generator, xs):
        n = len(xs)
        idx = np.searchsorted(self._cum, rng.random(n))
        vs = np.array([a[0] for a in self.atoms])[idx]
        rs = np.array([a[1] for a in self.atoms])[idx]
        return vs, rs

    def atom_weight(self, v: float, r: float, x: float) -> float:
        """The summed weight of the atoms at exactly (v, r)."""
        return sum(w for u, s, w in self.atoms if u == v and s == r)

    def tail_mass_removed(self) -> float:
        return 0.0

    def summary(self) -> dict:
        return {"kind": "atoms",
                "atoms": [{"v": v, "r": r, "weight": w} for v, r, w in self.atoms]}


class PiecewiseKernel:
    """Conditional law with piecewise-constant dependence on x.

    Cells are intervals [lo, hi) each carrying its own x-independent kernel,
    a product or atoms kernel: a piecewise kernel in a cell is rejected, as
    its own cells would be flattened into the outer one.  Cells must be
    contiguous, each cell's hi the next cell's lo, so that every x between
    the first lo and the last hi has a kernel; and they must be all atoms or
    all continuous, so one velocity rule serves every x.
    """

    def __init__(self, cells: Sequence[tuple[float, float, object]]):
        if not cells:
            raise ValueError("piecewise kernel needs at least one cell")
        cells = sorted(((float(lo), float(hi), kern) for lo, hi, kern in cells),
                       key=lambda c: c[0])
        for (_, hi, _), (nlo, _, _) in zip(cells, cells[1:]):
            if hi != nlo:
                raise ValueError(f"kernel cells must be contiguous: a cell ends at {hi} "
                                 f"and the next begins at {nlo}")
        if any(not lo < hi for lo, hi, _ in cells):
            raise ValueError("kernel cells must have positive width")
        if any(isinstance(k, PiecewiseKernel) for _, _, k in cells):
            raise ValueError("kernel cells must hold product or atoms kernels, not piecewise")
        continuous = {k.atom_velocities() is None for _, _, k in cells}
        if len(continuous) != 1:
            raise ValueError("kernel cells must be all atoms or all continuous")
        self.cells = cells
        self._velocities = (None if True in continuous else
                            tuple(sorted({v for _, _, k in cells
                                          for v in k.atom_velocities()})))

    def truncated(self, lo: float, hi: float) -> "PiecewiseKernel":
        return PiecewiseKernel([(a, b, k.truncated(lo, hi)) for a, b, k in self.cells])

    def atom_velocities(self):
        return self._velocities

    def vk_density(self, v, k: int, x):
        # cells do not overlap, so at most one term is nonzero at each x
        return sum(np.where((lo <= x) & (x < hi), kern.vk_density(v, k, x), 0.0)
                   for lo, hi, kern in self.cells)

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

    def atom_weight(self, v: float, r: float, x: float) -> float:
        for lo, hi, kern in self.cells:
            if lo <= x < hi:
                return kern.atom_weight(v, r, x)
        return 0.0

    def summary(self) -> dict:
        return {"kind": "piecewise",
                "cells": [{"x_range": [lo, hi], "kernel": k.summary()}
                          for lo, hi, k in self.cells]}


# ---------------------------------------------------------------------------
# the velocity rule and the crossing-moment machinery
# ---------------------------------------------------------------------------

def velocity_integral(kernel, f: Callable, lo: float, hi: float, kinks=()):
    """The velocity rule: f integrated over the velocities in [lo, hi].

    f maps an array of velocities to an array whose first axis runs over
    them, and carries the law's weight itself, through ``kernel.vk_density``.
    For a kernel of atoms f is called once, on the distinct atom velocities
    in [lo, hi] in kernel order, and its rows are summed left to right from
    0.0, so a position's result has the same bits whether f evaluates it
    alone or among many; with no atom in [lo, hi] it is 0.0 and f is not
    called.  For a
    continuous law it is the quadrature of :func:`_quad`, one call of f per
    panel, with the ends of each cell's velocity support and the given kinks
    as break points; the atom rule ignores the kinks.
    """
    vs = kernel.atom_velocities()
    if vs is None:
        ends = [e for _, _, cell in kernel.cells for e in cell.v_support]
        return _quad(f, lo, hi, np.concatenate([ends, kinks]))
    vs = np.array([v for v in vs if lo <= v <= hi])
    total = 0.0
    for row in (f(vs) if len(vs) else ()):
        total = total + row
    return total


def edge_velocities(edges: Sequence[float], x, t):
    """Velocities v = (x - e) / t at which x - v*t hits an edge e; t is one time or one per x.

    An integrand that reads rho or the kernel's cells at a pivot or a
    backtracked position x - v*t kinks or jumps there; t = 0 gives none.
    """
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    moving = t != 0.0
    return (np.subtract.outer(x[moving], edges) / t[moving][:, None]).ravel()


def _pivot_crossing_velocities(seg1: Segment, seg2: Segment):
    """Velocities where any two pivot lines of the two segments meet."""
    ends = [seg1.a, seg1.b, seg2.a, seg2.b]
    return [(p.x - q.x) / (p.t - q.t)
            for i, p in enumerate(ends) for q in ends[i + 1:] if p.t != q.t]


class _CrossingMoments:
    """Shared crossing and intersection machinery.

    Subclasses provide ``kernel``, ``v_support``, ``x_mass(v, k, lo, hi)``,
    the m_k mass at velocity v of the intercepts in [lo, hi], elementwise
    over arrays, and ``_kinks(*segs)``, the velocities where the x-mass of
    a crossing interval of segs kinks or jumps.
    """

    def moment_on_crossing(self, k: int, seg: Segment, sign: str = "both") -> float:
        """mu_k(ab) of the lines crossing seg = ab ("both"), or mu_k(ab+) - mu_k(ab-) ("net")."""
        if k not in _MOMENT_ORDERS:
            raise ValueError(f"moment order must be one of {_MOMENT_ORDERS}")
        if sign not in ("both", "net"):
            raise ValueError("sign must be 'both' or 'net'")
        if seg.is_degenerate:
            return 0.0
        # the pivots swap sides, and the mass kinks, at v* = dx/dt
        dx, dt = seg.b.x - seg.a.x, seg.b.t - seg.a.t
        kinks = self._kinks(seg) if dt == 0.0 else np.append(self._kinks(seg), dx / dt)

        def f(v):
            mass = self.x_mass(v, k, *crossing_interval(v, seg))
            return np.where(dx - v * dt < 0.0, -mass, mass) if sign == "net" else mass

        return float(velocity_integral(self.kernel, f, *self.v_support, kinks))

    def moment_intersection(self, k: int, seg1: Segment, seg2: Segment) -> float:
        """mu_k of {lines crossing seg1} intersect {lines crossing seg2}."""
        if k not in _MOMENT_ORDERS:
            raise ValueError(f"moment order must be one of {_MOMENT_ORDERS}")
        if seg1.is_degenerate or seg2.is_degenerate:
            return 0.0

        def f(v):
            lo1, hi1 = crossing_interval(v, seg1)
            lo2, hi2 = crossing_interval(v, seg2)
            return self.x_mass(v, k, np.maximum(lo1, lo2), np.minimum(hi1, hi2))

        return float(velocity_integral(self.kernel, f, *self.v_support, np.concatenate(
            [_pivot_crossing_velocities(seg1, seg2), self._kinks(seg1, seg2)])))


# ---------------------------------------------------------------------------
# the intensity model
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
        # the hull of the cells' velocity supports
        los, his = zip(*(cell.v_support for _, _, cell in kernel.cells))
        lo, hi = min(los), max(his)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("velocity support is unbounded; pass v_support")
        self.v_support = (float(lo), float(hi))
        if rho.support[0] < kernel.cells[0][0] or rho.support[1] > kernel.cells[-1][1]:
            raise ValueError("kernel cells must cover the support of rho")
        # the finite points where rho or the kernel's cells may jump
        ends = {e for a, b, _ in kernel.cells for e in (a, b)}
        self.edges = tuple(sorted(e for e in ends.union(rho.breakpoints) if math.isfinite(e)))

    @property
    def max_speed(self) -> float:
        return max(abs(self.v_support[0]), abs(self.v_support[1]))

    @property
    def marks_nonnegative(self) -> bool:
        return all(cell.min_mark >= 0.0 for _, _, cell in self.kernel.cells)

    def x_mass(self, v, k, lo, hi):
        # lo and hi may be arrays; each cell of the kernel weighs the rho-mass
        # of its part of [lo, hi]
        total = 0.0
        for a, b, cell in self.kernel.cells:
            total += cell.vk_density(v, k, a) * self.rho.integral(np.maximum(lo, a),
                                                                  np.minimum(hi, b))
        return total

    def _kinks(self, *segs):
        # a pivot x - v*t of a segment end crosses an edge
        ends = [p for seg in segs for p in (seg.a, seg.b)]
        return edge_velocities(self.edges, [p.x for p in ends], [p.t for p in ends])

    def summary(self) -> dict:
        return {"rho": self.rho.summary(), "kernel": self.kernel.summary(),
                "v_support": list(self.v_support),
                "tail_mass_removed": max(cell.tail_mass_removed()
                                         for _, _, cell in self.kernel.cells),
                "marks_nonnegative": self.marks_nonnegative}
