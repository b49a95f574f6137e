"""Reproducible experiment runner.

Usage::

    hrfl <subcommand> --config cfg.json [--seed N] [--out DIR]
         [--threads N] [--override key.path=value ...]

Subcommands: sample-field, hardrod-evolve, verify-lln, verify-euler-clt,
verify-diffusive, ghd-residual, stationarity.  The seed falls back to the
HRFL_SEED environment variable, then 0.  All outputs land in a run
directory named by the (post-override) config hash and the seed, so a rerun
with identical inputs overwrites byte-identical files.

Exit codes: 0 pass, 1 statistical failure, 2 usage or config error,
3 numerical error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import field, hardrod, hydro, stats
from .config import (
    ConfigError,
    apply_overrides,
    build_model,
    config_hash,
    load_config,
    validate_config,
)
from .geometry import SpaceTimePoint
from .intensity import QuadratureError
from .reporting import write_csv, write_json
from .sampler import ObservationRegion, sample
from .stats import ExperimentReport, StatisticResult

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hrfl", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("sample-field", "hardrod-evolve", "verify-lln",
                 "verify-euler-clt", "verify-diffusive", "ghd-residual",
                 "stationarity"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default="runs")
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--override", action="append", default=[])
    return p


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HRFL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"HRFL_SEED={env!r} is not an integer") from exc
    return 0


def _resolve_threads(args, cfg) -> int:
    threads = args.threads if args.threads is not None else cfg.get("threads", 1)
    if threads == 0:
        threads = os.cpu_count() or 1
    return threads


def _region(rec, path) -> ObservationRegion:
    from .config import _check_keys, _pair
    _check_keys(rec, path, ("x", "t"))
    return ObservationRegion(_pair(rec, "x", path), _pair(rec, "t", path))


def _require_rod_marks(model):
    if not model.marks_nonnegative:
        raise ConfigError(
            "model.kernel: hard-rod experiments require nonnegative marks")


# ---------------------------------------------------------------------------
# experiment runners; each returns (report, extra_outputs)
# ---------------------------------------------------------------------------

def _grid_axis(rec, key, path):
    v = rec.get(key)
    if not (isinstance(v, list) and len(v) == 3):
        raise ConfigError(f"{path}.{key}: expected [lo, hi, n]")
    return np.linspace(float(v[0]), float(v[1]), int(v[2]))


def _run_sample_field(model, exp, seed, threads, rundir):
    eps = float(exp["epsilon"])
    region = _region(exp["region"], "config.experiment.region")
    from .config import _check_keys
    _check_keys(exp["grid"], "config.experiment.grid", ("x", "t"))
    xs = _grid_axis(exp["grid"], "x", "config.experiment.grid")
    ts = _grid_axis(exp["grid"], "t", "config.experiment.grid")
    cfg = sample(model, eps, region, seed)
    values = field.walk_field_grid(cfg, xs, ts)
    rows = [(x, t, values[i, j]) for i, t in enumerate(ts) for j, x in enumerate(xs)]
    write_csv(rundir / "surface.csv", ("x", "t", "H"), rows)
    report = ExperimentReport("sample-field", model.summary(), eps, 1, seed,
                              [], {"points_sampled": cfg.n,
                                   "grid": exp["grid"]}, True)
    return report


def _run_hardrod_evolve(model, exp, seed, threads, rundir):
    _require_rod_marks(model)
    engine = exp["engine"]
    if engine not in ("surface", "events", "tagged"):
        raise ConfigError("config.experiment.engine: must be surface|events|tagged")
    eps = float(exp["epsilon"])
    region = _region(exp["region"], "config.experiment.region")
    times = [float(t) for t in exp["times"]]
    cfg = sample(model, eps, region, seed)
    gas = hardrod.GasConfiguration(cfg.x, cfg.v, cfg.r * eps)
    rows = []
    for t in times:
        if engine == "surface":
            state = hardrod.evolve_surface(gas, t)
        elif engine == "events":
            state = hardrod.evolve_events(hardrod.dilate(gas, 0.0), t)
        else:
            state = hardrod.full_evolve(hardrod.dilate(gas, 0.0), t)
        for i in range(state.n):
            rows.append((t, i, state.y[i], state.v[i], state.r[i]))
    write_csv(rundir / "trajectories.csv", ("time", "rod", "y", "v", "r"), rows)
    report = ExperimentReport("hardrod-evolve", model.summary(), eps, 1, seed,
                              [], {"engine": engine, "times": times,
                                   "rods": int(gas.n)}, True)
    return report


def _run_verify_lln(model, exp, seed, threads, rundir):
    report = stats.lln_test(
        model, exp["epsilons"], int(exp["replicas"]), seed,
        point=tuple(exp.get("point", (0.0, 1.0))),
        mass_point=tuple(exp.get("mass_point", (1.0, 0.5))),
        threads=threads)
    return report


def _run_verify_euler(model, exp, seed, threads, rundir):
    points = [SpaceTimePoint(float(x), float(t)) for x, t in exp["points"]]
    quasi = tuple(exp["quasiparticle"]) if "quasiparticle" in exp else None
    mass_pt = tuple(exp["mass_point"]) if "mass_point" in exp else None
    eps_list = tuple(exp["epsilons"]) if "epsilons" in exp else None
    return stats.euler_fluctuation_test(
        model, points, float(exp["epsilon"]), int(exp["replicas"]), seed,
        threads=threads, quasiparticle=quasi, mass_point=mass_pt,
        epsilons=eps_list)


def _run_verify_diffusive(model, exp, seed, threads, rundir):
    kwargs = {}
    if "t" in exp:
        kwargs["t"] = float(exp["t"])
    if "frame" in exp:
        kwargs["frame"] = tuple(exp["frame"])
    if "same_velocity" in exp:
        kwargs["same_velocity"] = tuple(exp["same_velocity"])
    if "distinct_velocities" in exp:
        kwargs["distinct_velocities"] = tuple(exp["distinct_velocities"])
    if "independence_offsets" in exp:
        kwargs["independence_offsets"] = [tuple(p) for p in exp["independence_offsets"]]
    if "zo1_start" in exp:
        kwargs["zo1_start"] = tuple(exp["zo1_start"])
    return stats.diffusive_test(model, float(exp["epsilon"]),
                                int(exp["replicas"]), seed, threads=threads,
                                **kwargs)


def _run_ghd_residual(model, exp, seed, threads, rundir):
    _require_rod_marks(model)
    if model.kernel.atom_velocities() is None:
        raise ConfigError("model.kernel: ghd-residual needs velocity atoms; "
                          "the residual of a continuous kernel is not implemented")
    q_range = tuple(exp["q_range"])
    t_range = tuple(exp["t_range"])
    nq, nt = int(exp["nq"]), int(exp["nt"])
    refinements = int(exp.get("refinements", 2))
    band = tuple(exp.get("ratio_band", (3.2, 4.8)))
    levels, ratios = hydro.residual_refinement(model, q_range, t_range, nq, nt,
                                               refinements)
    res = levels[0]
    res.to_csv(rundir / "residual.csv")
    statistics = [
        StatisticResult("residual_max", res.max_norm, math.nan, 0.0, math.nan),
        StatisticResult("residual_l2", res.l2_norm, math.nan, 0.0, math.nan),
    ]
    for i, ratio in enumerate(ratios):
        statistics.append(StatisticResult(f"l2_ratio[{i}]", ratio, math.nan,
                                          4.0, math.nan))
    # a residual that is exactly zero on every level leaves every ratio
    # undefined (NaN, written as null) and passes
    verdict = (all(level.max_norm == 0.0 for level in levels)
               or all(band[0] <= r <= band[1] for r in ratios))
    extra = {"h_q": res.h_q, "h_t": res.h_t, "ratios": ratios,
             "ratio_band": list(band)}
    return ExperimentReport("ghd-residual", model.summary(), None, 1, seed,
                            statistics, extra, verdict)


def _run_stationarity(model, exp, seed, threads, rundir):
    _require_rod_marks(model)
    report = stats.stationarity_smoke_test(
        model, exp["t_values"], int(exp["replicas"]), seed,
        core_halfwidth=float(exp.get("core_halfwidth", 8.0)), threads=threads)
    if exp.get("expect_reject", False):
        report.verdict = not report.verdict
        report.extra["expect_reject"] = True
    return report


_RUNNERS = {
    "sample-field": _run_sample_field,
    "hardrod-evolve": _run_hardrod_evolve,
    "verify-lln": _run_verify_lln,
    "verify-euler-clt": _run_verify_euler,
    "verify-diffusive": _run_verify_diffusive,
    "ghd-residual": _run_ghd_residual,
    "stationarity": _run_stationarity,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, args.override)
        cfg = validate_config(cfg, args.command)
        seed = _resolve_seed(args)
        threads = _resolve_threads(args, cfg)
        model = build_model(cfg["model"])
        rundir = Path(args.out) / f"{config_hash(cfg)}-s{seed}"
        rundir.mkdir(parents=True, exist_ok=True)
        write_json(rundir / "resolved-config.json", cfg)
        report = _RUNNERS[args.command](model, cfg["experiment"], seed,
                                        threads, rundir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, hydro.CharacteristicInverseError,
            hardrod.SimultaneousCollisionError, hardrod.RodOverlapError,
            FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    write_json(rundir / "report.json", report.to_dict())
    print(f"{args.command}: {'pass' if report.verdict else 'FAIL'} "
          f"({rundir / 'report.json'})")
    return EXIT_PASS if report.verdict else EXIT_STAT_FAIL


if __name__ == "__main__":
    sys.exit(main())
