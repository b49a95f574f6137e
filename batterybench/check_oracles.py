"""Tests of each oracle in oracles.py against a brute-force route of its own.

Run from the repository root::

    python3 batterybench/check_oracles.py

Prints one line per check and exits 1 if any fails.  Nothing here imports
hrfl: each brute-force route integrates or counts directly from the
definitions, on inputs drawn from numpy's default generator.
"""

from __future__ import annotations

import sys

import numpy as np

import oracles
from workloads import WORKLOADS

NODES = 2_000_000


def midpoint(f, lo, hi, n=NODES):
    h = (hi - lo) / n
    v = lo + h * (np.arange(n) + 0.5)
    return float(np.sum(f(v)) * h)


def law_density(model):
    """Normalized velocity density and its support, from the definitions."""
    law = model.law
    if isinstance(law, oracles.UniformLaw):
        return (lambda v: np.full_like(v, 1.0 / (law.hi - law.lo))), law.lo, law.hi
    lo, hi = law.mu + law.sd * law.alpha, law.mu + law.sd * law.beta
    raw = lambda v: np.exp(-0.5 * ((v - law.mu) / law.sd) ** 2)
    z = midpoint(raw, lo, hi)
    return (lambda v: raw(v) / z), lo, hi


def check_distance(name, model_rec) -> list:
    model = oracles.HomogeneousModel(model_rec)
    pdf, lo, hi = law_density(model)
    k = model.rho * model.r ** 2
    out = []
    rng = np.random.default_rng(7)
    segs = [((0, 0), (0, 1)), ((0, 1), (1, 0)), ((0.5, 0), (1, 1)), ((0, 0.5), (1, 0.5))]
    segs += [(tuple(rng.uniform(-3, 3, 2)), tuple(rng.uniform(-3, 3, 2))) for _ in range(6)]
    worst = 0.0
    for a, b in segs:
        # lines crossing ab at velocity v: intercepts between the two pivots
        span = lambda v: np.abs((b[0] - v * b[1]) - (a[0] - v * a[1]))
        brute = k * midpoint(lambda v: span(v) * pdf(v), lo, hi)
        worst = max(worst, abs(model.distance(a, b) - brute))
    out.append((f"{name}: crossing distance vs velocity quadrature", worst < 1e-11,
                f"worst {worst:.2e}"))
    worst = 0.0
    for va, vb, t in ((0.0, 1.0, 1.0), (-0.5, 0.3, 2.0), (0.2, 0.2, 0.5)):
        def overlap(v):
            i1 = np.sort(np.stack([np.zeros_like(v), (va - v) * t]), axis=0)
            i2 = np.sort(np.stack([np.zeros_like(v), (vb - v) * t]), axis=0)
            return np.clip(np.minimum(i1[1], i2[1]) - np.maximum(i1[0], i2[0]), 0.0, None)
        brute = k * midpoint(lambda v: overlap(v) * pdf(v), lo, hi)
        worst = max(worst, abs(model.intersection((va * t, t), (vb * t, t)) - brute))
    out.append((f"{name}: crossing intersection vs velocity quadrature", worst < 1e-11,
                f"worst {worst:.2e}"))
    return out


def check_ghd() -> list:
    wl = WORKLOADS["ghd-grid"]
    bump = oracles.BumpAtoms(wl.model)
    out = []
    xs = np.linspace(-2.5, 2.5, 41)
    n = 200_000
    brute_R = [midpoint(bump.density, -2.0, x, n) if x > -2.0 else 0.0 for x in xs]
    err = float(np.max(np.abs(bump.R(xs) - brute_R)))
    out.append(("bump antiderivative vs midpoint rule", err < 1e-10, f"worst {err:.2e}"))

    # scalar route: H by quadrature, Z^-1 by plain bisection, then g and V_eff g
    def H(x, t):
        return sum(w * r * (midpoint(bump.density, -2.0, x - v * t, n) if x - v * t > -2.0
                            else 0.0) - w * r * midpoint(bump.density, -2.0, 0.0, n)
                   for v, r, w in zip(bump.v, bump.r, bump.wt))

    def node(q, t):
        lo, hi = q - 5.0, q + 5.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if mid + H(mid, t) < q else (lo, mid)
        x = 0.5 * (lo + hi)
        rho = [float(bump.density(x - v * t)) for v in bump.v]
        sigma = sum(w * r * p for w, r, p in zip(bump.wt, bump.r, rho))
        g = [w * p / (1.0 + sigma) for w, p in zip(bump.wt, rho)]
        st = sum(r * gi for r, gi in zip(bump.r, g))
        pt = sum(r * v * gi for r, v, gi in zip(bump.r, bump.v, g))
        return np.array(g), np.array([(v + (v * st - pt) / (1.0 - st)) * gi
                                      for v, gi in zip(bump.v, g)])

    q_range, t_range, nq, nt = (-0.4, 0.4), (0.1, 0.3), 5, 3
    qs, ts = np.linspace(*q_range, nq), np.linspace(*t_range, nt)
    G = np.empty((2, nt, nq))
    F = np.empty_like(G)
    for i, t in enumerate(ts):
        for j, q in enumerate(qs):
            G[:, i, j], F[:, i, j] = node(q, t)
    h_q, h_t = qs[1] - qs[0], ts[1] - ts[0]
    brute = ((G[:, 2:, 1:-1] - G[:, :-2, 1:-1]) / (2 * h_t)
             + (F[:, 1:-1, 2:] - F[:, 1:-1, :-2]) / (2 * h_q))
    res = bump.residual(q_range, t_range, nq, nt)[2]
    err = float(np.max(np.abs(res - brute)))
    out.append(("GHD residual vs scalar quadrature route", err < 1e-10,
                f"worst {err:.2e} on residuals up to {np.abs(brute).max():.2e}"))
    return out


def check_rods() -> list:
    rng = np.random.default_rng(11)
    n, t = 600, 7.0
    x = np.sort(rng.uniform(-10.0, 30.0, n))
    v = rng.uniform(-1.0, 1.0, n)
    r = rng.uniform(0.0, 0.05, n)
    y = oracles.rod_positions(x, v, r, t)
    pos = x + v * t
    brute = pos + (r[None, :] * (pos[None, :] < pos[:, None])).sum(axis=1) - r[x < 0].sum()
    err = float(np.abs(y - brute).max())
    order = np.argsort(y)
    gaps = y[order][1:] - (y[order][:-1] + r[order][:-1])
    out = [("rod positions vs pairwise sums", err < 1e-12, f"worst {err:.2e}"),
           ("rod positions leave no overlap", gaps.min() > -1e-12, f"min gap {gaps.min():.2e}")]
    worst = 0
    for m in (1, 2, 50, 2000):
        xs, vs = rng.uniform(0, 60, m), rng.uniform(-1, 1, m)
        p = xs + vs * 12.0
        pairs = int(np.sum((xs[:, None] < xs[None, :]) & (p[:, None] > p[None, :])))
        worst = max(worst, abs(oracles.inversions(xs, vs, 12.0) - pairs))
    out.append(("inversion count vs all pairs", worst == 0, f"worst difference {worst}"))
    return out


def main() -> int:
    results = (check_distance("uniform", WORKLOADS["diffusive-horizon"].model)
               + check_distance("truncated gaussian", WORKLOADS["euler-gauss"].model)
               + check_ghd() + check_rods())
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
