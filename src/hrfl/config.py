"""Experiment configuration: a strict, versioned JSON schema.

The config file is a single JSON document with nested records; unknown keys
are errors, not warnings, so typos cannot silently change an experiment.
Malformed JSON is reported with line and column.

SCHEMA is the one description of every record.  For each kind of experiment
and of model part (rho, velocity, mark, kernel) it lists the fields, each
with its parser and whether it is required.  One walker checks a record's
keys, parses each field under its config path (``model.kernel.atoms[0].v``)
and passes the parsed values on; the error of a constructor becomes a
ConfigError at the record's path.  Absent optional fields are not passed,
so each default lives in the signature of the function that receives them.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .geometry import SpaceTimePoint
from .hydro import GRID_NODE_CAP
from .intensity import (
    ConstantDensity,
    ConstantMark,
    DiscreteKernel,
    GaussianVelocity,
    IntensityModel,
    PiecewiseConstantDensity,
    PiecewiseKernel,
    ProductKernel,
    SmoothDensity,
    UniformMark,
    UniformVelocity,
)
from .sampler import ObservationRegion

SCHEMA_VERSION = 1
# the most replicas a battery may ask for: a run of 10**20 would never end
REPLICA_CAP = 10 ** 6


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return cfg


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply repeated --override key.path=value pairs (values parsed as JSON)."""
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key.path=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            if not isinstance(node.get(p), dict):
                node[p] = {}
            node = node[p]
        node[parts[-1]] = value
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# field parsers: parse(value, path) returns the parsed value or raises a
# ConfigError that names path
# ---------------------------------------------------------------------------

def _any(v, path):
    return v


def _number(v, path) -> float:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:                # an integer beyond the float range
            pass
    raise ConfigError(f"{path}: expected a number")


def _number_where(test, what):
    def parse(v, path):
        x = _number(v, path)
        if not test(x):
            raise ConfigError(f"{path}: expected {what}, got {v!r}")
        return x
    return parse


_finite = _number_where(math.isfinite, "a finite number")
_positive = _number_where(lambda x: math.isfinite(x) and x > 0.0, "a finite number > 0")
_nonzero = _number_where(lambda x: math.isfinite(x) and x != 0.0, "a finite number != 0")


def _integer(minimum, maximum=math.inf):
    def parse(v, path):
        if isinstance(v, int) and not isinstance(v, bool) and minimum <= v <= maximum:
            return v
        most = f" and <= {maximum}" if maximum < math.inf else ""
        raise ConfigError(f"{path}: expected an integer >= {minimum}{most}, got {v!r}")
    return parse


def _bool(v, path):
    if not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true or false, got {v!r}")
    return v


def _choice(*options):
    def parse(v, path):
        if not (isinstance(v, str) and v in options):
            raise ConfigError(f"{path}: expected one of {'|'.join(options)}, got {v!r}")
        return v
    return parse


def _version(v, path):
    if isinstance(v, bool) or v != SCHEMA_VERSION:
        raise ConfigError(f"{path}: expected {SCHEMA_VERSION}, got {v!r}")
    return v


def _list(item, what, at_least=0, distinct=False):
    """A list of at least at_least values, each parsed by item; no two of
    them equal if distinct."""
    def parse(v, path):
        if not (isinstance(v, list) and len(v) >= at_least):
            more = f" ({at_least} or more)" if at_least else ""
            raise ConfigError(f"{path}: expected a list of {what}{more}")
        out = [item(x, f"{path}[{i}]") for i, x in enumerate(v)]
        for i, x in enumerate(out if distinct else ()):
            if x in out[:i]:
                name = path.rsplit(".", 1)[-1]
                raise ConfigError(f"{path}[{i}]: repeats {name}[{out.index(x)}]")
        return out
    return parse


def _tuple(what, *items):
    """A list of exactly len(items) values, the i-th parsed by items[i]."""
    def parse(v, path):
        if not (isinstance(v, list) and len(v) == len(items)):
            raise ConfigError(f"{path}: expected {what}")
        return tuple(item(x, f"{path}[{i}]") for i, (item, x) in enumerate(zip(items, v)))
    return parse


def _vector(n, item=_finite):
    return _tuple(f"[{', '.join(['number'] * n)}]", *[item] * n)


def _interval(v, path):
    """A pair of numbers lo < hi whose width hi - lo is finite."""
    lo, hi = _vector(2, _number)(v, path)
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ConfigError(f"{path}: expected finite lo < hi with a finite width, got {v!r}")
    return lo, hi


# A statistic that is exactly its target could never fail: the surface at
# the origin, the mass between 0 and x = 0, and a tagged rod after time 0.

def _point(v, path):
    """An [x, t] pair other than the origin."""
    p = _vector(2)(v, path)
    if p == (0.0, 0.0):
        raise ConfigError(f"{path}: the origin is not a valid point")
    return p


def _points(v, path):
    """Distinct [x, t] pairs other than the origin, as space-time points."""
    return [SpaceTimePoint(*p) for p in _list(_point, "[x, t] pairs", 1, distinct=True)(v, path)]


def _quasiparticle(v, path):
    """[x, v, t] of a tagged rod, t != 0, whose line reaches a finite x + v t."""
    x, vel, t = _tuple("[number, number, number]", _finite, _finite, _nonzero)(v, path)
    if not math.isfinite(x + vel * t):
        raise ConfigError(f"{path}: expected [x, v, t] with x + v t finite, got {v!r}")
    return x, vel, t


def _record(build, fields):
    """A nested record without a kind."""
    return lambda rec, path: _walk(rec, path, build, fields)


def _kinded(table):
    """A record whose 'kind' picks its entry in SCHEMA[table]."""
    def parse(rec, path):
        kind, body = _kind(rec, path, table)
        return _walk(body, path, *SCHEMA[table][kind])
    return parse


# ---------------------------------------------------------------------------
# the walker
# ---------------------------------------------------------------------------

def _kind(rec, path, table):
    """The kind of rec, checked against SCHEMA[table], and rec without it."""
    if not isinstance(rec, dict):
        raise ConfigError(f"{path}: expected an object")
    if "kind" not in rec:
        raise ConfigError(f"{path}.kind: missing required key")
    kind = rec["kind"]
    if not (isinstance(kind, str) and kind in SCHEMA[table]):
        raise ConfigError(f"{path}.kind: unknown {table} kind {kind!r}")
    return kind, {k: v for k, v in rec.items() if k != "kind"}


def _walk(rec, path, build, fields):
    """Check rec's keys against fields, parse each present field under its
    path and return build(**parsed).

    A ValueError or ArithmeticError of build is reported at path.
    """
    if not isinstance(rec, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in rec:
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown key")
    values = {}
    for key, (parse, required) in fields.items():
        if key in rec:
            values[key] = parse(rec[key], f"{path}.{key}")
        elif required:
            raise ConfigError(f"{path}.{key}: missing required key")
    try:
        return build(**values)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# builders of the records that no constructor takes as they are
# ---------------------------------------------------------------------------

def _bump(center, width, height, power=4):
    """rho = height * (1 - u**2)**power for |u| < 1, u = (x - center) / width."""
    if not (width > 0.0 and height >= 0.0 and power >= 0.0):
        raise ValueError("bump needs width > 0, height >= 0 and power >= 0")

    def fn(x):
        u = (np.asarray(x) - center) / width
        return height * np.clip(1.0 - u * u, 0.0, None) ** power

    return SmoothDensity(fn, (center - width, center + width))


def _model(rho, kernel=None, velocity=None, mark=None, v_support=None):
    """The flat form {rho, velocity, mark} or the general {rho, kernel}."""
    if kernel is not None:
        if velocity is not None or mark is not None:
            raise ValueError("give either kernel or velocity+mark, not both")
    elif velocity is None or mark is None:
        raise ValueError("needs either kernel or velocity+mark")
    else:
        kernel = ProductKernel(velocity, mark)
    return IntensityModel(rho, kernel, v_support)


# ---------------------------------------------------------------------------
# the schema: each field is (parser, required)
# ---------------------------------------------------------------------------

_REGION = _record(lambda x, t: ObservationRegion(x, t),
                  {"x": (_vector(2), True), "t": (_vector(2), True)})
_AXIS = _tuple("[lo, hi, n]", _finite, _finite, _integer(2))
_NUMBERS = _list(_number, "numbers")
_REPLICAS, _COVARIANCE_REPLICAS = _integer(1, REPLICA_CAP), _integer(3, REPLICA_CAP)

SCHEMA = {
    # experiment kind: (runner, fields).  The runner is named, not bound: a
    # runner of hrfl.cli, or else a battery of hrfl.stats
    "experiment": {
        "sample-field": ("run_sample_field", {
            "epsilon": (_positive, True),
            "region": (_REGION, True),
            "grid": (_record(dict, {"x": (_AXIS, True), "t": (_AXIS, True)}), True)}),
        "hardrod-evolve": ("run_hardrod_evolve", {
            "engine": (_choice("surface", "events", "tagged"), True),
            "epsilon": (_positive, True),
            "region": (_REGION, True),
            "times": (_list(_any, "numbers"), True)}),
        "verify-lln": ("lln_test", {
            "epsilons": (_list(_positive, "finite numbers > 0", 2, distinct=True), True),
            "replicas": (_REPLICAS, True),
            "point": (_point, False),
            "mass_point": (_tuple("[number, number]", _nonzero, _finite), False)}),
        # covariance batteries need M >= 3: with fewer the standard errors vanish
        "verify-euler-clt": ("euler_fluctuation_test", {
            "epsilon": (_positive, True),
            "replicas": (_COVARIANCE_REPLICAS, True),
            "points": (_points, True),
            "quasiparticle": (_quasiparticle, False),
            "mass_point": (_tuple("[number, number]", _nonzero, _finite), False),
            "epsilons": (_list(_positive, "finite numbers > 0", 1, distinct=True), False)}),
        "verify-diffusive": ("diffusive_test", {
            "epsilon": (_positive, True),
            "replicas": (_COVARIANCE_REPLICAS, True),
            "t": (_nonzero, False),
            "frame": (_vector(2), False),
            "same_velocity": (_vector(3), False),
            "distinct_velocities": (_vector(2), False),
            "independence_offsets": (_list(_vector(2, _nonzero), "[a, b] pairs"), False),
            "zo1_start": (_vector(2), False)}),
        "ghd-residual": ("run_ghd_residual", {
            "q_range": (_interval, True),
            "t_range": (_interval, True),
            "nq": (_integer(3), True),
            "nt": (_integer(3), True),
            "refinements": (_integer(1), False)}),  # one level has no L2 ratio
        "stationarity": ("run_stationarity", {
            "t_values": (_list(_finite, "finite numbers", 1), True),
            "replicas": (_REPLICAS, True),
            "core_halfwidth": (_positive, False),
            "expect_reject": (_bool, False)}),
    },
    # model part kind: (constructor, fields)
    "rho": {
        "constant": (ConstantDensity, {"value": (_number, True)}),
        "piecewise": (PiecewiseConstantDensity, {"edges": (_NUMBERS, True),
                                                 "values": (_NUMBERS, True)}),
        "bump": (_bump, {"center": (_number, True), "width": (_number, True),
                         "height": (_number, True), "power": (_number, False)}),
    },
    "velocity": {
        "uniform": (UniformVelocity, {"lo": (_number, True), "hi": (_number, True)}),
        "gaussian": (GaussianVelocity, {"mean": (_number, True), "sd": (_number, True)}),
    },
    "mark": {
        "constant": (ConstantMark, {"value": (_number, True)}),
        "uniform": (UniformMark, {"lo": (_number, True), "hi": (_number, True)}),
    },
    "kernel": {
        "product": (ProductKernel, {"velocity": (_kinded("velocity"), True),
                                    "mark": (_kinded("mark"), True)}),
        "atoms": (DiscreteKernel, {"atoms": (_list(_record(
            lambda v, r, weight: (v, r, weight),
            {"v": (_finite, True), "r": (_finite, True), "weight": (_finite, True)}),
            "atom records"), True)}),
        "piecewise": (PiecewiseKernel, {"cells": (_list(_record(
            lambda x_range, kernel: (*x_range, kernel),
            {"x_range": (_vector(2, _number), True), "kernel": (_kinded("kernel"), True)}),
            "cell records"), True)}),
    },
}

_MODEL = {"rho": (_kinded("rho"), True), "kernel": (_kinded("kernel"), False),
          "velocity": (_kinded("velocity"), False), "mark": (_kinded("mark"), False),
          "v_support": (_interval, False)}
_CONFIG = {"schema_version": (_version, True), "model": (_any, True),
           "experiment": (_any, True), "threads": (_integer(0), False)}


def build_model(rec, path="model") -> IntensityModel:
    """Build an intensity model from its config record.

    The common product form is flat: {rho, velocity, mark, v_support};
    discrete and piecewise conditional laws use the general form
    {rho, kernel, v_support} instead.
    """
    return _walk(rec, path, _model, _MODEL)


def validate_config(cfg: dict, expected_kind: str) -> dict:
    """Check the config and return the parsed fields of its experiment.

    The model record is checked where it is built, by build_model.
    """
    _walk(cfg, "config", dict, _CONFIG)
    path = "config.experiment"
    kind, body = _kind(cfg["experiment"], path, "experiment")
    if kind != expected_kind:
        raise ConfigError(f"{path}.kind: {kind!r} does not match the "
                          f"{expected_kind!r} subcommand")
    fields = _walk(body, path, dict, SCHEMA["experiment"][kind][1])
    # the cross-field checks: epsilon is one of the epsilons that run, times
    # and grid axes lie inside the region, and the sample-field grid and the
    # residual grid levels (2 refinements by default, together) hold at most
    # GRID_NODE_CAP nodes
    epsilon, epsilons = fields.get("epsilon"), fields.get("epsilons")
    if epsilon is not None and epsilons is not None and epsilon not in epsilons:
        raise ConfigError(f"{path}.epsilon: expected one of epsilons {epsilons}, "
                          f"got {epsilon!r}")
    region = fields.get("region")
    if "times" in fields:
        lo, hi = region.t_range
        for i, t in enumerate(fields["times"]):
            if isinstance(t, bool) or not isinstance(t, (int, float)) or not lo <= t <= hi:
                raise ConfigError(f"{path}.times[{i}]: expected a number in region.t "
                                  f"[{lo}, {hi}], got {t!r}")
        fields["times"] = [float(t) for t in fields["times"]]
    for axis, (a, b, _) in fields.get("grid", {}).items():
        lo, hi = region.x_range if axis == "x" else region.t_range
        if not lo <= min(a, b) <= max(a, b) <= hi:
            raise ConfigError(f"{path}.grid.{axis}: expected [lo, hi, n] inside "
                              f"region.{axis} [{lo}, {hi}]")
    grid_nodes = math.prod(n for _, _, n in fields.get("grid", {}).values())
    if grid_nodes > GRID_NODE_CAP:
        raise ConfigError(f"{path}.grid: the x and t axes hold {grid_nodes} nodes, over "
                          f"the cap of {GRID_NODE_CAP}; lower n")
    nodes = 0
    for k in range(fields.get("refinements", 2) + 1) if kind == "ghd-residual" else ():
        nodes += ((fields["nq"] - 1) * 2 ** k + 1) * ((fields["nt"] - 1) * 2 ** k + 1)
        if nodes > GRID_NODE_CAP:
            raise ConfigError(f"{path}: grid levels 0 to {k} hold {nodes} nodes, over the "
                              f"cap of {GRID_NODE_CAP}; lower nq, nt or refinements")
    return fields
