"""Spans around hrfl's public functions, recorded from outside the program.

Each wrapped function is replaced under the name its caller looks up, so the
program runs unchanged.  A span records (layer, start, end, parent span,
thread); spans stay in memory and are written when the run ends.  Only the
outermost call of a layer on a thread opens a span, so nested calls of the
same layer (frame_surface -> walk_field_difference, the time-reversed
recursion of evolve_events) are not counted twice.

A fixed share of field and empirical-mass calls keeps its arguments and
result; after the run they are recomputed by a brute-force sum over the
sampled lines, outside every span.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import threading
import time

SPOT_CHECK_EVERY = 16
BATTERIES = ("euler_fluctuation_test", "diffusive_test")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []        # (id, layer, start, end, parent, thread)
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._calls = itertools.count()
        self.samples: list[tuple] = []      # (kind, config, args, result)

    # -- span bookkeeping ---------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, layer: str, fn, args, kwargs, parent=None):
        """Run fn inside a span of layer; returns (result, opened a span)."""
        stack = self._stack()
        if any(lay == layer for _, lay in stack):
            return fn(*args, **kwargs), False
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1][0]
        stack.append((sid, layer))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs), True
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, layer, t0, t1, parent, threading.get_ident()))

    def wrap(self, owner, name: str, layer: str, count=None):
        """Replace owner.name by a traced version; count(result, args) -> {key: n}."""
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result, opened = self.call(layer, fn, args, kwargs)
            if opened:
                self.add(f"{layer}.calls", 1)
                if count is not None:
                    for key, n in count(result, args).items():
                        self.add(key, n)
            return result

        setattr(owner, name, traced)

    def sample_call(self, kind: str, config, args, result) -> None:
        if next(self._calls) % SPOT_CHECK_EVERY == 0:
            self.samples.append((kind, config, args, result))

    # -- reductions ---------------------------------------------------------
    def busy(self, layer: str) -> float:
        return sum(end - start for _, lay, start, end, _, _ in self.spans if lay == layer)

    def self_time(self, layer: str) -> float:
        """Time of layer's spans not covered by their direct children."""
        children: dict[int, list] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        total = 0.0
        for sid, lay, start, end, _, _ in self.spans:
            if lay != layer:
                continue
            covered, reach = 0.0, start
            for s, e in sorted(children.get(sid, [])):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            total += (end - start) - covered
        return total

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, layer, start, end, parent, thread in self.spans:
                fh.write(json.dumps({"id": sid, "layer": layer, "start": start,
                                     "end": end, "parent": parent,
                                     "thread": thread}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap hrfl's public functions under the names their callers bind."""
    import hrfl.cli
    import hrfl.field
    import hrfl.hardrod
    import hrfl.hydro
    import hrfl.intensity
    import hrfl.reporting
    import hrfl.stats

    # sampler: the batteries and the CLI runners import `sample` by name
    points = lambda res, args: {"sampler.points": res.n}
    for owner in (hrfl.stats, hrfl.cli):
        tracer.wrap(owner, "sample", "sampler", points)

    # field: walk_field and frame_surface are bound in stats; frame_surface
    # reaches walk_field_difference through the field module
    def field_count(kind):
        def count(res, args):
            tracer.sample_call(kind, args[0], args[1:], res)
            return {"field.line_evals": args[0].n}
        return count

    tracer.wrap(hrfl.stats, "walk_field", "field", field_count("walk_field"))
    tracer.wrap(hrfl.stats, "frame_surface", "field", field_count("frame_surface"))
    tracer.wrap(hrfl.field, "walk_field_difference", "field",
                field_count("walk_field_difference"))

    # intensity: crossing moments of the model and its frozen variant; the
    # translated variant delegates to its base and is counted there
    for name in ("moment_on_crossing", "moment_intersection"):
        tracer.wrap(hrfl.intensity._CrossingMoments, name, "intensity")

    tracer.wrap(hrfl.stats, "covariance_matrix", "gaussian")

    # hydro: sub-layers for the empirical/limit mass, the characteristic
    # inverse and whole residual grids
    def mass_count(res, args):
        tracer.sample_call("empirical_mass", args[0], args[1:], res)
        return {}

    tracer.wrap(hrfl.hydro, "empirical_mass", "hydro.mass", mass_count)
    tracer.wrap(hrfl.hydro, "limit_mass", "hydro.mass")
    tracer.wrap(hrfl.hydro, "inverse_characteristic", "hydro.inverse")
    tracer.wrap(hrfl.hydro, "ghd_residual", "hydro.grid",
                lambda res, args: {"hydro.nodes": len(args[1]) * len(args[2])})

    tracer.wrap(hrfl.hardrod, "evolve_events", "hardrod",
                lambda res, args: {"hardrod.collisions": res.collisions})

    # stats: each battery, and each replica through the ordered map
    for name in BATTERIES:
        tracer.wrap(hrfl.stats, name, "stats")
    map_ordered = hrfl.stats._map_ordered

    def traced_map(fn, M, threads):
        parent = tracer._stack()[-1][0] if tracer._stack() else None

        def replica(i):
            # worker threads start with an empty stack: link to the battery
            return tracer.call("stats.replica", fn, (i,), {}, parent=parent)[0]

        return map_ordered(replica, M, threads)

    hrfl.stats._map_ordered = traced_map

    # cli output: the CLI binds write_csv/write_json; GhdResidual.to_csv
    # imports write_csv from reporting at call time
    size = lambda res, args: {"cli.bytes_written": os.path.getsize(args[0])}
    for owner in (hrfl.cli, hrfl.reporting):
        for name in ("write_csv", "write_json"):
            tracer.wrap(owner, name, "cli.write", size)


def spot_check(tracer: Tracer) -> tuple[int, int]:
    """Recompute the kept field and mass calls by brute force; (checked, failed)."""
    import numpy as np

    failed = 0
    for kind, cfg, args, result in tracer.samples:
        x, v, r, eps = cfg.x, cfg.v, cfg.r, cfg.epsilon
        right = lambda p: (x + p.t * v <= p.x).astype(float)
        if kind == "walk_field":
            (b,) = args[:1]
            terms = r * (right(b) - (x <= 0.0).astype(float))
        elif kind == "walk_field_difference":
            a, b = args[:2]
            terms = r * (right(b) - right(a))
        elif kind == "frame_surface":
            frame, offset = args[:2]
            b = frame.translated(offset.x, offset.t)
            terms = r * (right(b) - right(frame))
        else:                                   # empirical_mass(config, z, t)
            z, t = args[:2]
            pos = x + v * t
            lo, hi, sign = (0.0, z, 1.0) if z >= 0.0 else (z, 0.0, -1.0)
            terms = sign * r * ((pos >= lo) & (pos < hi))
        expected = eps * math.fsum(terms)
        scale = eps * float(np.sum(np.abs(r))) + 1.0
        if not abs(result - expected) <= 1e-9 * scale:
            failed += 1
    return len(tracer.samples), failed


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced run (before the overhead metric)."""
    c = tracer.counts.get
    ratio = lambda num, den, unit: num / den * unit if den else 0.0
    sampler_s, field_s = tracer.busy("sampler"), tracer.busy("field")
    inten_s, grid_s = tracer.busy("intensity"), tracer.busy("hydro.grid")
    events_s = tracer.busy("hardrod")
    return {
        "sampler.calls": c("sampler.calls", 0),
        "sampler.points": c("sampler.points", 0),
        "sampler.s": sampler_s,
        "sampler.ns_per_point": ratio(sampler_s, c("sampler.points", 0), 1e9),
        "field.evals": c("field.calls", 0),
        "field.line_evals": c("field.line_evals", 0),
        "field.s": field_s,
        "field.ns_per_line_eval": ratio(field_s, c("field.line_evals", 0), 1e9),
        "intensity.moments": c("intensity.calls", 0),
        "intensity.s": inten_s,
        "intensity.us_per_moment": ratio(inten_s, c("intensity.calls", 0), 1e6),
        "gaussian.cov_s": tracer.busy("gaussian"),
        "hydro.mass_evals": c("hydro.mass.calls", 0),
        "hydro.mass_s": tracer.busy("hydro.mass"),
        "hydro.inverses": c("hydro.inverse.calls", 0),
        "hydro.inverse_s": tracer.busy("hydro.inverse"),
        "hydro.nodes": c("hydro.nodes", 0),
        "hydro.ms_per_node": ratio(grid_s, c("hydro.nodes", 0), 1e3),
        "hardrod.collisions": c("hardrod.collisions", 0),
        "hardrod.events_s": events_s,
        "hardrod.us_per_collision": ratio(events_s, c("hardrod.collisions", 0), 1e6),
        "stats.replicas": sum(1 for s in tracer.spans if s[1] == "stats.replica"),
        "stats.replica_s": tracer.busy("stats.replica"),
        "stats.self_s": tracer.self_time("stats"),
        "cli.write_s": tracer.busy("cli.write"),
        "cli.bytes_written": c("cli.bytes_written", 0),
    }
