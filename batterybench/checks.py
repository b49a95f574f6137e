"""Correctness checks of one round's outputs against the oracles.

Each check is one benchmark operation and returns (name, passed, detail).
Tolerances:

* targets of the batteries: 1e-8 absolute; hrfl integrates the velocity law
  adaptively to 1e-10 absolute, the oracle is a closed form;
* GHD residual: hrfl inverts Z by brentq to 1e-13 and integrates the bump
  by a cubic spline through 4096 panel sums, and the central differences
  divide those errors by 2h >= 0.025.  The observed differences are about
  3e-13 per node (residuals up to 7e-4) and 5e-11 relative on the norms,
  so 1e-10 absolute per node and 1e-8 relative on norms and ratios leave
  a margin of a few hundred;
* rod positions: 1e-9 times the largest coordinate, since the event oracle
  advances every rod at each of about 1e5 collisions.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracles

TARGET_TOL = 1e-8
Z_GATE = 4.0
RESIDUAL_ABS_TOL = 1e-10
NORM_REL_TOL = 1e-8
ROD_REL_TOL = 1e-9
RATIO_BAND = (3.2, 4.8)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _battery(report: dict, targets: dict, replicas: int, cov=None) -> list:
    stats = report["statistics"]
    names = [s["name"] for s in stats]
    worst = max((abs(s["target"] - targets[s["name"]]) for s in stats
                 if s["name"] in targets), default=math.inf)
    if cov is not None:
        got = np.asarray(report["extra"]["target_covariance"], dtype=float)
        worst = max(worst, float(np.abs(got - cov).max()))
    consistent = all(
        s["se"] is not None and s["se"] > 0
        and _close(s["z"], (s["mean"] - s["target"]) / s["se"], 1e-9)
        for s in stats)
    max_z = max(abs(s["z"]) for s in stats)
    return [
        ("targets", worst <= TARGET_TOL, f"worst target error {worst:.3e}"),
        ("statistics", sorted(names) == sorted(targets) and report["M"] == replicas
         and consistent, f"{len(names)} statistics, M={report['M']}"),
        ("verdict", report["verdict"] == "pass" and max_z < Z_GATE,
         f"verdict {report['verdict']}, max |z| {max_z:.3f}"),
    ]


def euler(wl, rundir: Path, ctx: dict) -> list:
    report = json.loads((rundir / "report.json").read_text())
    targets, cov = oracles.euler_targets(wl.model, wl.experiment)
    return _battery(report, targets, wl.experiment["replicas"], cov)


def diffusive(wl, rundir: Path, ctx: dict) -> list:
    report = json.loads((rundir / "report.json").read_text())
    targets = oracles.diffusive_targets(wl.model, wl.experiment)
    return _battery(report, targets, wl.experiment["replicas"])


def ghd(wl, rundir: Path, ctx: dict) -> list:
    exp = wl.experiment
    report = json.loads((rundir / "report.json").read_text())
    bump = oracles.BumpAtoms(wl.model)
    levels = [bump.residual(exp["q_range"], exp["t_range"],
                            (exp["nq"] - 1) * 2 ** k + 1, (exp["nt"] - 1) * 2 ** k + 1)
              for k in range(exp["refinements"] + 1)]
    q_in, t_in, res, max_norm, l2, h_q, h_t = levels[0]
    stats = {s["name"]: s["mean"] for s in report["statistics"]}

    with open(rundir / "residual.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    expected = [(s, tv, qv, res[s, i, j]) for s in range(res.shape[0])
                for i, tv in enumerate(t_in) for j, qv in enumerate(q_in)]
    node_err = math.inf
    if (rows[0] == ["species", "t", "q", "residual"] and len(rows) - 1 == len(expected)
            and all(int(row[0]) == e[0] for row, e in zip(rows[1:], expected))):
        node_err = max(max(abs(float(row[k]) - e[k]) for k in (1, 2, 3))
                       for row, e in zip(rows[1:], expected))

    ratios = [levels[k][4] / levels[k + 1][4] for k in range(exp["refinements"])]
    got = report["extra"]["ratios"]
    ratios_ok = (len(got) == len(ratios)
                 and all(_close(g, r, NORM_REL_TOL) for g, r in zip(got, ratios))
                 and all(_close(stats[f"l2_ratio[{i}]"], r, NORM_REL_TOL)
                         for i, r in enumerate(ratios))
                 and all(RATIO_BAND[0] <= r <= RATIO_BAND[1] for r in ratios))
    norms_ok = (_close(stats["residual_max"], max_norm, NORM_REL_TOL)
                and _close(stats["residual_l2"], l2, NORM_REL_TOL)
                and _close(report["extra"]["h_q"], h_q, 1e-12)
                and _close(report["extra"]["h_t"], h_t, 1e-12))
    return [
        ("norms", norms_ok, f"l2 {stats['residual_l2']:.6e} vs {l2:.6e}"),
        ("residual.csv", node_err <= RESIDUAL_ABS_TOL,
         f"{len(expected)} nodes, worst error {node_err:.3e}"),
        ("ratios", ratios_ok, "ratios " + ", ".join(f"{r:.4f}" for r in ratios)),
        ("verdict", report["verdict"] == "pass", f"verdict {report['verdict']}"),
    ]


def rods(wl, rundir: Path, ctx: dict) -> list:
    """Needs ctx['gas'] = (x, v, r): the sampled gas with rod lengths."""
    report = json.loads((rundir / "report.json").read_text())
    x, v, r = ctx["gas"]
    (t,) = wl.experiment["times"]
    y = oracles.rod_positions(x, v, r, t)
    with open(rundir / "trajectories.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    got = np.array([[float(c) for c in row] for row in rows[1:]]).reshape(-1, 5)
    shape_ok = (rows[0] == ["time", "rod", "y", "v", "r"] and len(got) == len(x)
                and report["extra"]["rods"] == len(x))
    worst = math.inf
    if shape_ok and np.all(got[:, 0] == t) and np.array_equal(got[:, 1], np.arange(len(x))) \
            and np.array_equal(got[:, 3], v) and np.array_equal(got[:, 4], r):
        worst = float(np.abs(got[:, 2] - y).max(initial=0.0))
    scale = max(1.0, float(np.abs(y).max(initial=0.0)))
    return [
        ("trajectories", worst <= ROD_REL_TOL * scale,
         f"{len(x)} rods, worst position error {worst:.3e} (scale {scale:.1f})"),
        ("verdict", report["verdict"] == "pass", f"verdict {report['verdict']}"),
    ]


CHECKS = {"verify-euler-clt": euler, "verify-diffusive": diffusive,
          "ghd-residual": ghd, "hardrod-evolve": rods}
