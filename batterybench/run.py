"""Battery benchmark for hrfl: one workload, timed in rounds, checked by oracles.

Usage, from the root of a source checkout::

    python3 batterybench/run.py --workload NAME --seed N --seconds S --trace 0|1

A round runs the workload's hrfl subcommand once, in its own process, on
the source tree under ./src.  Rounds repeat while the next one would end
within S seconds (at least MIN_ROUNDS of them).  Every round uses the same
seed, so every round must write byte-identical outputs.  After the timed rounds the
outputs are checked against the oracles in oracles.py.  The last line
printed is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With --trace 0 the metrics are the end-to-end ones: median verdict_s,
work_per_s, setup_s and peak_rss_mb over the rounds.  The times are scaled
to the machine's reference speed by the probe in speed.py, which runs
between rounds.  With --trace 1 untraced and traced rounds alternate.  The
metrics are then the per-layer medians of the traced rounds (not scaled),
plus trace.overhead_s, the scaled traced median verdict_s minus the
untraced one.  Outputs go to .batterybench/<workload>/
in the checkout.  That directory is replaced at the next run of the same
workload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import oracles
import speed
from workloads import WORKLOADS

MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 60
BATTERIES = ("verify-euler-clt", "verify-diffusive")
HERE = Path(__file__).resolve().parent

UNITS = {"verdict_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "sampler.calls": "count", "sampler.points": "count", "sampler.s": "s",
    "sampler.ns_per_point": "ns",
    "field.evals": "count", "field.line_evals": "count", "field.s": "s",
    "field.ns_per_line_eval": "ns",
    "intensity.moments": "count", "intensity.s": "s", "intensity.us_per_moment": "us",
    "gaussian.cov_s": "s",
    "hydro.mass_evals": "count", "hydro.mass_s": "s", "hydro.inverses": "count",
    "hydro.inverse_s": "s", "hydro.nodes": "count", "hydro.ms_per_node": "ms",
    "hardrod.collisions": "count", "hardrod.events_s": "s",
    "hardrod.us_per_collision": "us",
    "stats.replicas": "count", "stats.replica_s": "s", "stats.self_s": "s",
    "cli.write_s": "s", "cli.bytes_written": "B",
    "trace.overhead_s": "s",
}


class Operations:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(f"{name}: {detail}")


def run_round(wl, root: Path, base: Path, k: int, seed: int, traced: bool) -> dict:
    out = base / f"round{k}"
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(root / "src"),
           "--command", wl.command, "--config", str(base / "config.json"),
           "--seed", str(seed), "--threads", str(wl.threads), "--out", str(out)]
    if traced:
        cmd += ["--trace", str(base / f"round{k}-spans.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = subprocess.CompletedProcess(cmd, None, "", f"timed out after {ROUND_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"exit": None}
    result["ok"] = proc.returncode == 0 and result.get("exit") == 0
    result["stderr"] = proc.stderr[-2000:]
    result["traced"] = traced
    dirs = sorted(out.glob("*-s*"))
    result["rundir"] = dirs[0] if len(dirs) == 1 else None
    return result


def run_is_over(rounds: list[dict], elapsed: float, seconds: float, trace: int) -> bool:
    """Whether to stop: enough rounds, and the next one (or traced pair) would end late.

    A run stops before a round that its typical length says would end after
    the deadline, so a run lasts at most about ``seconds``.  With tracing,
    rounds come in untraced/traced pairs.
    """
    step = 2 if trace else 1
    if len(rounds) < MIN_ROUNDS + trace or len(rounds) % step:
        return False
    typical = statistics.median(r["wall_s"] for r in rounds)
    return elapsed + step * typical > seconds


def outputs_of(wl, rundir: Path) -> dict:
    return {name: (rundir / name).read_bytes() for name in wl.outputs}


def regenerate_gas(wl, root: Path, seed: int):
    """The sampled gas of rods-events: the program's own input, drawn again."""
    sys.path.insert(0, str(root / "src"))
    from hrfl.config import build_model
    from hrfl.sampler import ObservationRegion, sample

    exp = wl.experiment
    eps = float(exp["epsilon"])
    region = ObservationRegion(tuple(exp["region"]["x"]), tuple(exp["region"]["t"]))
    cfg = sample(build_model(wl.model), eps, region, seed)
    return cfg.x, cfg.v, cfg.r * eps


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hrfl" / "__init__.py").is_file():
        print(f"no hrfl source tree at {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = args.seed % 2 ** 63
    base = root / ".batterybench" / wl.name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    (base / "config.json").write_text(json.dumps(wl.config(), indent=2))

    rounds = []
    start = time.perf_counter()
    probes = speed.probe()
    while not run_is_over(rounds, time.perf_counter() - start, args.seconds, args.trace):
        t0 = time.perf_counter()
        r = run_round(wl, root, base, len(rounds), seed,
                      traced=bool(args.trace and len(rounds) % 2))
        probes += speed.probe()
        r["wall_s"] = time.perf_counter() - t0
        rounds.append(r)
    scale = speed.REFERENCE_S / statistics.median(probes)

    ops = Operations()
    for k, r in enumerate(rounds):
        ops.record(f"round{k} {wl.command}", r["ok"] and r["rundir"] is not None,
                   f"exit {r.get('exit')}: {r['stderr'][-300:]}")
    good = [r for r in rounds if r["ok"] and r["rundir"] is not None]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not plain or (args.trace and not traced):
        print("no round of a kind completed; nothing to measure", file=sys.stderr)
        return 1

    reference = outputs_of(wl, good[0]["rundir"])
    same = all(outputs_of(wl, r["rundir"]) == reference for r in good[1:])
    ops.record("reproducibility", same and len(good) == len(rounds),
               "outputs differ between rounds of one seed")

    ctx = {}
    if wl.command == "hardrod-evolve":
        ctx["gas"] = regenerate_gas(wl, root, seed)
        ctx["collisions"] = oracles.inversions(ctx["gas"][0], ctx["gas"][1],
                                               wl.experiment["times"][0])
    for name, passed, detail in checks.CHECKS[wl.command](wl, good[0]["rundir"], ctx):
        ops.record(name, passed, detail)
    work = wl.static_work()
    if work is None:
        work = ctx["collisions"]

    verdict_s = scale * statistics.median(r["verdict_s"] for r in plain)
    if args.trace:
        for r in traced:
            layers = r["layers"]
            if wl.command == "hardrod-evolve":
                ops.record("collisions", layers["hardrod.collisions"] == work,
                           f"{layers['hardrod.collisions']} events vs {work} inversions")
            if wl.command in BATTERIES:
                ops.record("spot checks", r["spot_failed"] == 0 and r["spot_checked"] > 0,
                           f"{r['spot_failed']} of {r['spot_checked']} field calls differ")
                ops.record("replicas", layers["stats.replicas"] == work,
                           f"{layers['stats.replicas']} replica spans vs {work}")
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            scale * statistics.median(r["verdict_s"] for r in traced) - verdict_s)
        units = LAYER_UNITS
    else:
        metrics = {
            "verdict_s": verdict_s,
            "work_per_s": work / verdict_s,
            "setup_s": scale * statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = UNITS

    for failure in ops.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{wl.name}: {len(rounds)} rounds, work {work}, scale {scale:.4f}, "
          f"unscaled verdict_s {[round(r['verdict_s'], 4) for r in good]}, "
          f"setup_s {[round(r['setup_s'], 4) for r in good]}", file=sys.stderr)
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
