"""One round of a workload: a single hrfl subcommand in its own process.

Usage (run.py starts this; the working directory is the checkout root)::

    python3 batterybench/child.py --src src --command CMD --config CFG
        --seed N --threads K --out DIR [--trace SPANS.jsonl]

It times the import of hrfl and the config/model set-up (up to the return
of the CLI's build_model), then the rest of ``hrfl.cli.main`` up to the
written report, and prints one JSON line with both times, the exit code and
the process's peak resident memory.  With --trace the public functions are
wrapped first and the per-layer figures are added to that line.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    for flag in ("--src", "--command", "--config", "--seed", "--threads", "--out"):
        p.add_argument(flag, required=True)
    p.add_argument("--trace")
    args = p.parse_args()

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import hrfl.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"hrfl imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    built = []
    build_model = cli.build_model

    def timed_build_model(*a, **k):
        model = build_model(*a, **k)
        built.append(time.perf_counter())
        return model

    cli.build_model = timed_build_model
    code = cli.main([args.command, "--config", args.config, "--seed", args.seed,
                     "--threads", args.threads, "--out", args.out])
    t_end = time.perf_counter()
    if not built:
        print("the CLI never built a model", file=sys.stderr)
        return 2

    out = {"exit": code, "setup_s": built[0] - T_START,
           "verdict_s": t_end - built[0],
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        checked, failed = tracing.spot_check(tracer)
        out["layers"] = tracing.layer_metrics(tracer)
        out["spot_checked"], out["spot_failed"] = checked, failed
        tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
