"""Independent reference computations for the benchmark's correctness checks.

None of this calls into hrfl.  Each oracle is a closed form or a direct
vectorized computation from the workload config, and ``check_oracles.py``
tests each one against a brute-force route of its own.

* Crossing distance.  For a homogeneous model with density rho, marks r and
  velocity law V, the lines crossing the segment ab at velocity v have
  intercepts in an interval of length |dx - v dt|, so

      d(a, b) = mu_2(ab) = rho E[r^2] E|dx - V dt| = rho E[r^2] |dt| E|dx/dt - V|,

  and E|c - V| = E[(c - V)^+] + E[(V - c)^+] has a closed form for uniform
  and truncated-Gaussian V.
* GHD residual of a bump density with velocity atoms, from the polynomial
  antiderivative R of the bump: H(x, t) = sum_i w_i r_i (R(x - v_i t) - R(0)),
  Z = x + H inverted by bisection, central differences of g~ and V_eff g~.
* Hard-rod positions x + v t + S_t(x + v t) - S_0(0), with S_t the mark
  cumulative strictly below a point at time t.
* Collision count: gas pairs whose order differs between x and x + v t.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(u: float) -> float:
    return math.exp(-0.5 * u * u) / SQRT_2PI if math.isfinite(u) else 0.0


# ---------------------------------------------------------------------------
# crossing distance of homogeneous models
# ---------------------------------------------------------------------------

class UniformLaw:
    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = float(lo), float(hi)

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def below(self, c: float) -> float:
        """E[(c - V)^+]."""
        if c <= self.lo:
            return 0.0
        if c >= self.hi:
            return c - self.mean
        return (c - self.lo) ** 2 / (2.0 * (self.hi - self.lo))

    def above(self, c: float) -> float:
        """E[(V - c)^+]."""
        if c >= self.hi:
            return 0.0
        if c <= self.lo:
            return self.mean - c
        return (self.hi - c) ** 2 / (2.0 * (self.hi - self.lo))


class TruncatedGaussianLaw:
    """N(mean, sd^2) conditioned on [lo, hi]."""

    def __init__(self, mean: float, sd: float, lo: float, hi: float):
        self.mu, self.sd = float(mean), float(sd)
        self.alpha = (float(lo) - self.mu) / self.sd
        self.beta = (float(hi) - self.mu) / self.sd
        self.Z = float(ndtr(self.beta) - ndtr(self.alpha))

    def below(self, c: float) -> float:
        g = (c - self.mu) / self.sd
        if g <= self.alpha:
            return 0.0
        u = min(g, self.beta)
        return self.sd * (g * float(ndtr(u) - ndtr(self.alpha))
                          + _phi(u) - _phi(self.alpha)) / self.Z

    def above(self, c: float) -> float:
        g = (c - self.mu) / self.sd
        if g >= self.beta:
            return 0.0
        u = max(g, self.alpha)
        return self.sd * (_phi(u) - _phi(self.beta)
                          - g * float(ndtr(self.beta) - ndtr(u))) / self.Z


class HomogeneousModel:
    """Constant density, constant mark, uniform or truncated-Gaussian velocity."""

    def __init__(self, rec: dict):
        if rec["rho"]["kind"] != "constant" or rec["mark"]["kind"] != "constant":
            raise ValueError("the closed-form oracle needs constant rho and marks")
        self.rho = float(rec["rho"]["value"])
        self.r = float(rec["mark"]["value"])
        vel = rec["velocity"]
        if vel["kind"] == "uniform":
            self.law = UniformLaw(vel["lo"], vel["hi"])
        elif vel["kind"] == "gaussian":
            lo, hi = rec["v_support"]
            self.law = TruncatedGaussianLaw(vel["mean"], vel["sd"], lo, hi)
        else:
            raise ValueError(f"no closed form for velocity kind {vel['kind']!r}")

    def mean_abs(self, c: float) -> float:
        """E|c - V|."""
        return self.law.below(c) + self.law.above(c)

    def distance(self, a, b) -> float:
        """mu_2 of the lines crossing the segment from a = (x, t) to b."""
        dx, dt = b[0] - a[0], b[1] - a[1]
        spread = abs(dx) if dt == 0.0 else abs(dt) * self.mean_abs(dx / dt)
        return self.rho * self.r ** 2 * spread

    def intersection(self, b1, b2) -> float:
        """mu_2 of the lines crossing both o->b1 and o->b2, for b1.t == b2.t > 0.

        At velocity v the intercepts lie between 0 and b.x - v t, so the two
        sets overlap on min(|c1 - v|, |c2 - v|) t when c1 - v and c2 - v share
        a sign (c = b.x / t), and not at all otherwise.
        """
        t = b1[1]
        if b2[1] != t or t <= 0.0:
            raise ValueError("intersection oracle needs a common positive time")
        lo, hi = sorted((b1[0] / t, b2[0] / t))
        return self.rho * self.r ** 2 * t * (self.law.below(lo) + self.law.above(hi))

    def limit_mass(self, z: float) -> float:
        """Signed limit mark length between 0 and z (time-independent here)."""
        return self.rho * self.r * z


def euler_targets(model_rec: dict, exp: dict) -> tuple[dict, np.ndarray]:
    """Statistic name -> target of verify-euler-clt, and the target covariance."""
    m = HomogeneousModel(model_rec)
    o = (0.0, 0.0)
    pts = [tuple(map(float, p)) for p in exp["points"]]
    d_o = [m.distance(o, p) for p in pts]
    cov = np.array([[d_o[i] if i == j else
                     0.5 * (d_o[i] + d_o[j] - m.distance(pts[i], pts[j]))
                     for j in range(len(pts))] for i in range(len(pts))])
    out = {f"cov[{i},{j}]": float(cov[i, j])
           for i in range(len(pts)) for j in range(i, len(pts))}
    if "quasiparticle" in exp:
        qx, qv, qt = map(float, exp["quasiparticle"])
        b_t, b_0 = (qx + qv * qt, qt), (qx, 0.0)
        out["quasiparticle_var"] = m.distance(o, b_t)
        out["quasiparticle_increment_var"] = m.distance(b_0, b_t)
        out["quasiparticle_mean"] = 0.0
    if "mass_point" in exp:
        mx, mt = map(float, exp["mass_point"])
        out["mass_var"] = m.distance((0.0, mt), (mx, mt))
        out["mass_mean"] = 0.0
    return out, cov


DIFFUSIVE_DEFAULTS = {
    "t": 1.0, "same_velocity": (0.0, 0.0, 0.5), "distinct_velocities": (0.0, 1.0),
    "independence_offsets": ((1.0, -1.0), (1.5, -1.5), (-1.0, 1.0), (-1.5, 1.5)),
    "zo1_start": (0.3, 0.0),
}


def diffusive_targets(model_rec: dict, exp: dict) -> dict:
    """Statistic name -> target of verify-diffusive on a homogeneous model.

    Homogeneous models coincide with their frozen and translated frame
    variants, so the frame point drops out of every target.
    """
    m = HomogeneousModel(model_rec)
    p = {k: exp.get(k, v) for k, v in DIFFUSIVE_DEFAULTS.items()}
    t = float(p["t"])
    o = (0.0, 0.0)
    v_same = float(p["same_velocity"][0])
    v_a, v_b = map(float, p["distinct_velocities"])
    zx, zv = map(float, p["zo1_start"])
    out = {
        "same_velocity_cov": m.distance(o, (v_same * t, t)),
        "distinct_velocity_cov": m.intersection((v_a * t, t), (v_b * t, t)),
        "tracer_mean": zx + m.limit_mass(zx),
        "tracer_var": m.distance(o, (zv * t, t)),
    }
    for k, (a, b) in enumerate(p["independence_offsets"]):
        out[f"independence_cross_cov[{k}]"] = 0.0
        out[f"hat_var[{k}]"] = m.distance(o, (float(a), 0.0))
        out[f"tilde_var[{k}]"] = m.distance(o, (float(b), 0.0))
    return out


# ---------------------------------------------------------------------------
# GHD residual of a bump density with velocity atoms
# ---------------------------------------------------------------------------

class BumpAtoms:
    """rho(x) = h (1 - u^2)_+^p with u = (x - c) / w; atoms (v, r, weight)."""

    def __init__(self, model_rec: dict):
        rho = model_rec["rho"]
        if rho["kind"] != "bump" or model_rec["kernel"]["kind"] != "atoms":
            raise ValueError("the GHD oracle needs a bump density with velocity atoms")
        self.c, self.w, self.h = float(rho["center"]), float(rho["width"]), float(rho["height"])
        self.p = int(rho.get("power", 4))
        atoms = model_rec["kernel"]["atoms"]
        self.v = np.array([float(a["v"]) for a in atoms])
        self.r = np.array([float(a["r"]) for a in atoms])
        self.wt = np.array([float(a["weight"]) for a in atoms])
        # antiderivative of (1 - u^2)^p: sum_k C(p, k) (-1)^k u^(2k+1) / (2k+1)
        self._coef = [math.comb(self.p, k) * (-1) ** k / (2 * k + 1)
                      for k in range(self.p + 1)]
        self._R0 = self.R(0.0)

    def density(self, x):
        u = (np.asarray(x, dtype=float) - self.c) / self.w
        return self.h * np.clip(1.0 - u * u, 0.0, None) ** self.p

    def R(self, x):
        """Mass of the density on (-inf, x]."""
        u = np.clip((np.asarray(x, dtype=float) - self.c) / self.w, -1.0, 1.0)
        poly = lambda s: sum(a * s ** (2 * k + 1) for k, a in enumerate(self._coef))
        return self.h * self.w * (poly(u) - poly(-1.0))

    def H(self, x, t):
        x, t = np.broadcast_arrays(np.asarray(x, float), np.asarray(t, float))
        return sum(self.wt[i] * self.r[i] * (self.R(x - self.v[i] * t) - self._R0)
                   for i in range(len(self.v)))

    def Z(self, x, t):
        return np.asarray(x, float) + self.H(x, t)

    def Z_inverse(self, q, t, iterations: int = 200):
        """Bisection for Z(x, t) = q; Z - x is bounded by the total mark mass."""
        q, t = np.broadcast_arrays(np.asarray(q, float), np.asarray(t, float))
        bound = float(np.sum(self.wt * self.r)) * self.h * self.w * 2.0 + 1.0
        lo, hi = q - bound, q + bound
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            below = self.Z(mid, t) < q
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def density_and_flux(self, q, t):
        """g~ and V_eff g~ per species at rod coordinates q and times t."""
        x = self.Z_inverse(q, t)
        rho_i = np.stack([self.density(x - vi * t) for vi in self.v])
        sigma = np.tensordot(self.wt * self.r, rho_i, axes=1)
        g = self.wt[:, None, None] * rho_i / (1.0 + sigma)
        st = np.tensordot(self.r, g, axes=1)
        pt = np.tensordot(self.r * self.v, g, axes=1)
        veff = self.v[:, None, None] + (self.v[:, None, None] * st - pt) / (1.0 - st)
        return g, veff * g

    def residual(self, q_range, t_range, nq: int, nt: int):
        """(q kept, t interior, residual[species, t, q], max, l2, h_q, h_t)."""
        qs = np.linspace(q_range[0], q_range[1], nq)
        ts = np.linspace(t_range[0], t_range[1], nt)
        h_q, h_t = float(qs[1] - qs[0]), float(ts[1] - ts[0])
        T, Q = np.meshgrid(ts, qs, indexing="ij")
        G, F = self.density_and_flux(Q, T)
        res = ((G[:, 2:, 1:-1] - G[:, :-2, 1:-1]) / (2.0 * h_t)
               + (F[:, 1:-1, 2:] - F[:, 1:-1, :-2]) / (2.0 * h_q))
        q_in, t_in = qs[1:-1], ts[1:-1]
        # columns near the rod-coordinate image of a density edge are skipped
        keep = np.ones(len(q_in), dtype=bool)
        margin = 2.0 * h_q
        for tv in t_in:
            for e in (self.c - self.w, self.c + self.w):
                for vi in self.v:
                    qe = float(self.Z(e + vi * tv, tv))
                    keep &= ~((q_in >= qe - margin) & (q_in <= qe + margin))
        res = res[:, :, keep]
        return (q_in[keep], t_in, res, float(np.abs(res).max(initial=0.0)),
                float(np.sqrt(h_q * h_t * np.sum(res ** 2))), h_q, h_t)


# ---------------------------------------------------------------------------
# hard rods
# ---------------------------------------------------------------------------

def rod_positions(x, v, r, t: float) -> np.ndarray:
    """Left ends at time t of the rods dilated from the gas (x, v, r) at 0."""
    pos = x + v * t
    order = np.argsort(pos)
    cum = np.concatenate([[0.0], np.cumsum(r[order])])
    below_t = cum[np.searchsorted(pos[order], pos, side="left")]
    below_0 = float(np.sum(r[x < 0.0]))
    return pos + below_t - below_0


def inversions(x, v, t: float) -> int:
    """Pairs of gas particles whose order differs between x and x + v t."""
    ranks = np.argsort(np.argsort(x + v * t))[np.argsort(x)]
    return _count_inversions(ranks)


def _count_inversions(a: np.ndarray) -> int:
    """Inversions of a permutation of 0..n-1 by a Fenwick tree."""
    n = len(a)
    tree = [0] * (n + 1)
    count = 0
    for seen, value in enumerate(a.tolist()):
        i, le = value + 1, 0
        while i > 0:
            le += tree[i]
            i -= i & -i
        count += seen - le
        i = value + 1
        while i <= n:
            tree[i] += 1
            i += i & -i
    return count
