"""Experiment configuration: a strict, versioned JSON schema.

The config file is a single JSON document with nested records; unknown keys
are errors, not warnings, so typos cannot silently change an experiment.
Malformed JSON is reported with line and column.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

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

SCHEMA_VERSION = 1

EXPERIMENT_KINDS = ("sample-field", "hardrod-evolve", "verify-lln",
                    "verify-euler-clt", "verify-diffusive", "ghd-residual",
                    "stationarity")


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


def load_config(path) -> dict:
    text = Path(path).read_text()
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
# validation helpers
# ---------------------------------------------------------------------------

def _check_keys(record: dict, path: str, required: tuple, optional: tuple = ()):
    if not isinstance(record, dict):
        raise ConfigError(f"{path}: expected an object")
    allowed = set(required) | set(optional)
    for key in record:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in record:
            raise ConfigError(f"{path}.{key}: missing required key")


def _where(path, key):
    """The config path of record[key]; an integer key indexes a list."""
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"


def _number(record, key, path):
    v = record[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"{_where(path, key)}: expected a number")
    return float(v)


def _positive(record, key, path):
    v = _number(record, key, path)
    if not (math.isfinite(v) and v > 0.0):
        raise ConfigError(f"{_where(path, key)}: expected a finite number > 0, got {v!r}")
    return v


def _pair(record, key, path, n=2):
    """record[key] as a tuple of n numbers, a pair by default."""
    v = record[key]
    if not (isinstance(v, list) and len(v) == n
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)):
        raise ConfigError(f"{_where(path, key)}: expected [{', '.join(['number'] * n)}]")
    return tuple(float(x) for x in v)


def _int(record, key, path, minimum=1):
    v = record[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise ConfigError(f"{_where(path, key)}: expected an integer >= {minimum}")
    return v


def _list(record, key, path) -> list:
    v = record[key]
    if not isinstance(v, list):
        raise ConfigError(f"{_where(path, key)}: expected a list")
    return v


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def _build_rho(rec, path):
    _check_keys(rec, path, ("kind",), ("value", "edges", "values", "center",
                                       "width", "height", "power", "bound"))
    kind = rec["kind"]
    if kind == "constant":
        _check_keys(rec, path, ("kind", "value"))
        return ConstantDensity(_number(rec, "value", path))
    if kind == "piecewise":
        _check_keys(rec, path, ("kind", "edges", "values"))
        return PiecewiseConstantDensity(rec["edges"], rec["values"])
    if kind == "bump":
        _check_keys(rec, path, ("kind", "center", "width", "height"),
                    ("power", "bound"))
        c = _number(rec, "center", path)
        w = _number(rec, "width", path)
        h = _number(rec, "height", path)
        p = rec.get("power", 4)
        if w <= 0 or h < 0 or ("power" in rec and _number(rec, "power", path) < 0):
            raise ConfigError(f"{path}: bump needs width > 0, height >= 0 and power >= 0")
        bound = _number(rec, "bound", path) if "bound" in rec else None

        def fn(x):
            import numpy as np
            u = (np.asarray(x) - c) / w
            return h * np.clip(1.0 - u * u, 0.0, None) ** p

        try:
            return SmoothDensity(fn, (c - w, c + w), bound=bound)
        except ValueError as exc:
            raise ConfigError(f"{path}{'' if bound is None else '.bound'}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown density kind {kind!r}")


def _build_velocity(rec, path):
    _check_keys(rec, path, ("kind",), ("lo", "hi", "mean", "sd"))
    kind = rec["kind"]
    if kind == "uniform":
        _check_keys(rec, path, ("kind", "lo", "hi"))
        return UniformVelocity(_number(rec, "lo", path), _number(rec, "hi", path))
    if kind == "gaussian":
        _check_keys(rec, path, ("kind", "mean", "sd"))
        return GaussianVelocity(_number(rec, "mean", path), _number(rec, "sd", path))
    raise ConfigError(f"{path}.kind: unknown velocity kind {kind!r}")


def _build_mark(rec, path):
    _check_keys(rec, path, ("kind",), ("value", "lo", "hi"))
    kind = rec["kind"]
    if kind == "constant":
        _check_keys(rec, path, ("kind", "value"))
        return ConstantMark(_number(rec, "value", path))
    if kind == "uniform":
        _check_keys(rec, path, ("kind", "lo", "hi"))
        return UniformMark(_number(rec, "lo", path), _number(rec, "hi", path))
    raise ConfigError(f"{path}.kind: unknown mark kind {kind!r}")


def _build_kernel(rec, path):
    _check_keys(rec, path, ("kind",), ("velocity", "mark", "atoms", "cells"))
    kind = rec["kind"]
    if kind == "product":
        _check_keys(rec, path, ("kind", "velocity", "mark"))
        return ProductKernel(_build_velocity(rec["velocity"], f"{path}.velocity"),
                             _build_mark(rec["mark"], f"{path}.mark"))
    if kind == "atoms":
        _check_keys(rec, path, ("kind", "atoms"))
        atoms = []
        for i, a in enumerate(rec["atoms"]):
            _check_keys(a, f"{path}.atoms[{i}]", ("v", "r", "weight"))
            atoms.append((_number(a, "v", path), _number(a, "r", path),
                          _number(a, "weight", path)))
        try:
            return DiscreteKernel(atoms)
        except ValueError as exc:
            raise ConfigError(f"{path}.atoms: {exc}") from exc
    if kind == "piecewise":
        _check_keys(rec, path, ("kind", "cells"))
        cells = []
        for i, cell in enumerate(rec["cells"]):
            cpath = f"{path}.cells[{i}]"
            _check_keys(cell, cpath, ("x_range", "kernel"))
            lo, hi = _pair(cell, "x_range", cpath)
            cells.append((lo, hi, _build_kernel(cell["kernel"], f"{cpath}.kernel")))
        try:
            return PiecewiseKernel(cells)
        except ValueError as exc:
            raise ConfigError(f"{path}.cells: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown kernel kind {kind!r}")


def build_model(rec, path="model") -> IntensityModel:
    """Build an intensity model from its config record.

    The common product form is flat: {rho, velocity, mark, v_support};
    discrete and piecewise conditional laws use the general form
    {rho, kernel, v_support} instead.
    """
    _check_keys(rec, path, ("rho",), ("kernel", "velocity", "mark", "v_support"))
    rho = _build_rho(rec["rho"], f"{path}.rho")
    if "kernel" in rec:
        if "velocity" in rec or "mark" in rec:
            raise ConfigError(f"{path}: give either kernel or velocity+mark, not both")
        kernel = _build_kernel(rec["kernel"], f"{path}.kernel")
    elif "velocity" in rec and "mark" in rec:
        kernel = ProductKernel(_build_velocity(rec["velocity"], f"{path}.velocity"),
                               _build_mark(rec["mark"], f"{path}.mark"))
    else:
        raise ConfigError(f"{path}: needs either kernel or velocity+mark")
    v_support = _pair(rec, "v_support", path) if "v_support" in rec else None
    try:
        return IntensityModel(rho, kernel, v_support)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# full config validation
# ---------------------------------------------------------------------------

_EXPERIMENT_KEYS = {
    "sample-field": (("kind", "epsilon", "region", "grid"), ()),
    "hardrod-evolve": (("kind", "engine", "epsilon", "region", "times"), ()),
    "verify-lln": (("kind", "epsilons", "replicas"), ("point", "mass_point")),
    "verify-euler-clt": (("kind", "epsilon", "replicas", "points"),
                         ("quasiparticle", "mass_point", "epsilons")),
    "verify-diffusive": (("kind", "epsilon", "replicas"),
                         ("t", "frame", "same_velocity", "distinct_velocities",
                          "independence_offsets", "zo1_start")),
    "ghd-residual": (("kind", "q_range", "t_range", "nq", "nt"),
                     ("refinements", "ratio_band")),
    "stationarity": (("kind", "t_values", "replicas"),
                     ("core_halfwidth", "expect_reject")),
}

# covariance batteries need M >= 3: with fewer the standard errors vanish
_MIN_REPLICAS = {"verify-lln": 1, "verify-euler-clt": 3, "verify-diffusive": 3,
                 "stationarity": 1}


def validate_config(cfg: dict, expected_kind: str) -> dict:
    _check_keys(cfg, "config", ("schema_version", "model", "experiment"),
                ("threads",))
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION}, "
            f"got {cfg['schema_version']!r}")
    if "threads" in cfg:
        t = cfg["threads"]
        if not isinstance(t, int) or isinstance(t, bool) or t < 0:
            raise ConfigError("config.threads: expected an integer >= 0")
    exp = cfg["experiment"]
    if not isinstance(exp, dict) or "kind" not in exp:
        raise ConfigError("config.experiment: needs a 'kind'")
    kind = exp["kind"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"config.experiment.kind: unknown kind {kind!r}")
    if kind != expected_kind:
        raise ConfigError(
            f"config.experiment.kind: {kind!r} does not match the "
            f"{expected_kind!r} subcommand")
    required, optional = _EXPERIMENT_KEYS[kind]
    _check_keys(exp, "config.experiment", required, optional)
    if kind in _MIN_REPLICAS:
        _int(exp, "replicas", "config.experiment", _MIN_REPLICAS[kind])
    if kind == "ghd-residual":
        _validate_ghd_grid(exp)
    _validate_battery_fields(exp)
    return cfg


def _validate_battery_fields(exp: dict) -> None:
    path = "config.experiment"
    if "epsilon" in exp:
        _positive(exp, "epsilon", path)
    if "epsilons" in exp:
        epsilons = _list(exp, "epsilons", path)
        for i in range(len(epsilons)):
            _positive(epsilons, i, f"{path}.epsilons")
    if "points" in exp:
        points = _list(exp, "points", path)
        for i in range(len(points)):
            # the surface is 0 at the origin, so its statistic could never fail
            if _pair(points, i, f"{path}.points") == (0.0, 0.0):
                raise ConfigError(f"{path}.points[{i}]: the origin is not a valid point")
    if "quasiparticle" in exp:
        _pair(exp, "quasiparticle", path, 3)
    for key in ("point", "mass_point"):
        if key in exp:
            _pair(exp, key, path)


def _validate_ghd_grid(exp: dict) -> None:
    path = "config.experiment"
    for key in ("nq", "nt"):
        _int(exp, key, path, 3)
    for key in ("q_range", "t_range"):
        lo, hi = _pair(exp, key, path)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigError(f"{path}.{key}: expected finite lo < hi")
    if "ratio_band" in exp:
        lo, hi = _pair(exp, "ratio_band", path)
        if not lo < hi:
            raise ConfigError(f"{path}.ratio_band: expected lo < hi")
    if "refinements" in exp:
        _int(exp, "refinements", path, 0)
