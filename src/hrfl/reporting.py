"""Deterministic CSV and JSON output.

CSV dialect: comma separated, '.' decimal, header row always, LF endings,
floats with 17 significant digits.  JSON reports keep insertion order and
stock float repr, so identical runs are byte-identical.  JSON has no
non-finite numbers: NaN, inf and -inf are written as ``null``, so every
report is strict JSON.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def _format_value(v) -> str:
    # every value is a Python scalar or an np.float64, a float subclass
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(v) for v in row) + "\n")


def _jsonify(obj):
    import numpy as np

    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonify(obj.item())
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, float) and not math.isfinite(obj):  # NaN, +-inf -> null
        return None
    return obj


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonify(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")

