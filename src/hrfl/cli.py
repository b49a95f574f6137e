"""Reproducible experiment runner.

Usage::

    hrfl <subcommand> --config cfg.json [--seed N] [--out DIR]
         [--threads N] [--override key.path=value ...]

Subcommands: sample-field, hardrod-evolve, verify-lln, verify-euler-clt,
verify-diffusive, ghd-residual, stationarity (the experiment kinds of
config.SCHEMA).  The seed falls back to the HRFL_SEED environment variable,
then 0.  All outputs land in a run directory named by the (post-override)
config hash and the seed, so a rerun with identical inputs overwrites
byte-identical files.

Exit codes: 0 pass, 1 statistical failure, 2 usage or config error,
3 numerical error, 4 internal error (any other exception, reported on one
stderr line without a traceback).
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
    SCHEMA,
    ConfigError,
    apply_overrides,
    build_model,
    config_hash,
    load_config,
    validate_config,
)
from .intensity import QuadratureError
from .reporting import write_csv, write_json
from .sampler import SampleSizeError, sample
from .stats import ExperimentReport, StatisticResult

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hrfl", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name in SCHEMA["experiment"]:
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
    if args.threads is not None and args.threads < 0:
        raise ConfigError(f"--threads: expected an integer >= 0, got {args.threads}")
    threads = args.threads if args.threads is not None else cfg.get("threads", 1)
    if threads == 0:
        threads = os.cpu_count() or 1
    return threads


def _require_rod_marks(model):
    if not model.marks_nonnegative:
        raise ConfigError(
            "model.kernel: hard-rod experiments require nonnegative marks")


# ---------------------------------------------------------------------------
# experiment runners: SCHEMA names one for each experiment kind.  A runner
# takes the kind, the model, the seed, the thread count, the run directory
# and the parsed experiment fields, and returns the report.
# ---------------------------------------------------------------------------

def run_sample_field(kind, model, seed, threads, rundir, epsilon, region, grid):
    cfg = sample(model, epsilon, region, seed)
    xs, ts = (np.linspace(*grid[axis]) for axis in ("x", "t"))
    values = field.walk_field_grid(cfg, xs, ts)
    rows = [(x, t, values[i, j]) for i, t in enumerate(ts) for j, x in enumerate(xs)]
    write_csv(rundir / "surface.csv", ("x", "t", "H"), rows)
    return ExperimentReport(kind, model.summary(), epsilon, 1, seed, [],
                            {"points_sampled": cfg.n, "grid": grid}, True)


def run_hardrod_evolve(kind, model, seed, threads, rundir, engine, epsilon, region, times):
    _require_rod_marks(model)
    cfg = sample(model, epsilon, region, seed)
    gas = hardrod.GasConfiguration(cfg.x, cfg.v, cfg.r * epsilon)
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
    return ExperimentReport(kind, model.summary(), epsilon, 1, seed, [],
                            {"engine": engine, "times": times, "rods": int(gas.n)}, True)


def run_ghd_residual(kind, model, seed, threads, rundir, ratio_band=(3.2, 4.8), **grid):
    _require_rod_marks(model)
    if model.kernel.atom_velocities() is None:
        raise ConfigError(f"model.kernel: {kind} needs velocity atoms; "
                          "the residual of a continuous kernel is not implemented")
    levels, ratios = hydro.residual_refinement(model, **grid)
    wiped = [i for i, level in enumerate(levels) if not len(level.q)]
    if wiped:
        raise ConfigError(f"config.experiment.q_range: the margins around density-jump "
                          f"images exclude every interior q column of grid level "
                          f"{wiped[0]}, so the residual checks nothing; widen q_range or raise nq")
    res = levels[0]
    res.to_csv(rundir / "residual.csv")
    statistics = [
        StatisticResult("residual_max", res.max_norm, math.nan, 0.0, math.nan),
        StatisticResult("residual_l2", res.l2_norm, math.nan, 0.0, math.nan),
    ]
    for i, ratio in enumerate(ratios):
        statistics.append(StatisticResult(f"l2_ratio[{i}]", ratio, math.nan,
                                          4.0, math.nan))
    # a residual that is exactly zero on every level, each keeping a column,
    # leaves every ratio undefined (NaN, written as null) and passes
    lo, hi = ratio_band
    verdict = (all(level.max_norm == 0.0 for level in levels)
               or all(lo <= r <= hi for r in ratios))
    extra = {"h_q": res.h_q, "h_t": res.h_t, "ratios": ratios,
             "ratio_band": list(ratio_band)}
    return ExperimentReport(kind, model.summary(), None, 1, seed,
                            statistics, extra, verdict)


def run_stationarity(kind, model, seed, threads, rundir, replicas,
                     expect_reject=False, **fields):
    _require_rod_marks(model)
    report = stats.stationarity_smoke_test(model, M=replicas, seed=seed,
                                           threads=threads, **fields)
    if expect_reject:
        report.verdict = not report.verdict
        report.extra["expect_reject"] = True
    return report


def _run(kind, model, seed, threads, rundir, fields):
    """Run the experiment that SCHEMA names for kind."""
    name = SCHEMA["experiment"][kind][0]
    try:
        if name in globals():
            return globals()[name](kind, model, seed, threads, rundir, **fields)
        # a battery, looked up on stats when it runs
        replicas = fields.pop("replicas")
        return getattr(stats, name)(model, M=replicas, seed=seed, threads=threads, **fields)
    except SampleSizeError as exc:       # epsilon too small for the region
        raise ConfigError(f"config.experiment: {exc}") from exc


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        # the run directory and resolved-config.json use the raw config
        cfg = apply_overrides(load_config(args.config), args.override)
        fields = validate_config(cfg, args.command)
        seed = _resolve_seed(args)
        threads = _resolve_threads(args, cfg)
        model = build_model(cfg["model"])
        rundir = Path(args.out) / f"{config_hash(cfg)}-s{seed}"
        rundir.mkdir(parents=True, exist_ok=True)
        write_json(rundir / "resolved-config.json", cfg)
        report = _run(args.command, model, seed, threads, rundir, fields)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, hydro.CharacteristicInverseError,
            hardrod.SimultaneousCollisionError, hardrod.RodOverlapError,
            FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    write_json(rundir / "report.json", report.to_dict())
    print(f"{args.command}: {'pass' if report.verdict else 'FAIL'} "
          f"({rundir / 'report.json'})")
    return EXIT_PASS if report.verdict else EXIT_STAT_FAIL


if __name__ == "__main__":
    sys.exit(main())
