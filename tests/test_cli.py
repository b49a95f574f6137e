import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrfl
from hrfl.cli import main

HOMOGENEOUS_MODEL = {
    "rho": {"kind": "constant", "value": 1.0},
    "kernel": {"kind": "product",
               "velocity": {"kind": "uniform", "lo": -1.0, "hi": 1.0},
               "mark": {"kind": "constant", "value": 1.0}},
}


def write_config(tmp_path, experiment, model=None, name="cfg.json", **top):
    cfg = {"schema_version": 1,
           "model": model or HOMOGENEOUS_MODEL,
           "experiment": experiment}
    cfg.update(top)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def report_of(out_dir: Path) -> dict:
    reports = sorted(out_dir.glob("*/report.json"))
    assert len(reports) == 1
    return json.loads(reports[0].read_text())


def test_verify_lln_passes(tmp_path):
    cfg = write_config(tmp_path, {"kind": "verify-lln",
                                  "epsilons": [0.1, 0.01], "replicas": 150})
    code = main(["verify-lln", "--config", str(cfg), "--seed", "3",
                 "--out", str(tmp_path / "runs")])
    assert code == 0
    rep = report_of(tmp_path / "runs")
    assert rep["verdict"] == "pass"
    assert rep["experiment"] == "lln"


def test_empty_model_zero_report(tmp_path):
    model = {"rho": {"kind": "constant", "value": 0.0},
             "kernel": HOMOGENEOUS_MODEL["kernel"]}
    cfg = write_config(tmp_path, {"kind": "verify-euler-clt", "epsilon": 0.1,
                                  "replicas": 20, "points": [[0, 1]]},
                       model=model)
    code = main(["verify-euler-clt", "--config", str(cfg),
                 "--out", str(tmp_path / "runs")])
    assert code == 0
    rep = report_of(tmp_path / "runs")
    for s in rep["statistics"]:
        assert s["mean"] == 0.0 and s["target"] == 0.0


def test_empty_samples_against_nonzero_targets_fail(tmp_path):
    # at epsilon 1e6 the region holds no line: every covariance is 0 with
    # se 0 against targets 0.5, 0.25 and 1.0, an infinite z that must fail
    cfg = write_config(tmp_path, {"kind": "verify-euler-clt", "epsilon": 1e6,
                                  "replicas": 50, "points": [[0, 1], [1, 0]]})
    code = main(["verify-euler-clt", "--config", str(cfg),
                 "--out", str(tmp_path / "runs")])
    assert code == 1
    rep = report_of(tmp_path / "runs")
    assert rep["verdict"] == "fail"
    missed = [s for s in rep["statistics"] if s["target"] != 0.0]
    assert missed and all(s["mean"] == 0.0 and s["z"] is None for s in missed)


def test_gaussian_without_support_is_config_error(tmp_path, capsys):
    model = {"rho": {"kind": "constant", "value": 1.0},
             "kernel": {"kind": "product",
                        "velocity": {"kind": "gaussian", "mean": 0.0, "sd": 1.0},
                        "mark": {"kind": "constant", "value": 1.0}}}
    cfg = write_config(tmp_path, {"kind": "verify-lln", "epsilons": [0.1, 0.02],
                                  "replicas": 5}, model=model)
    assert main(["verify-lln", "--config", str(cfg)]) == 2
    assert "model: velocity support is unbounded; pass v_support" in capsys.readouterr().err


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "verify-lln", "epsilons": [0.1],
                                  "replicas": 5, "bogus": 1})
    assert main(["verify-lln", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,\n  "oops::\n}')
    assert main(["verify-lln", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "broken.json:2" in err


def test_subcommand_kind_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "verify-lln", "epsilons": [0.1],
                                  "replicas": 5})
    assert main(["stationarity", "--config", str(cfg)]) == 2


def test_every_public_name_resolves():
    assert hrfl.__all__ and len(set(hrfl.__all__)) == len(hrfl.__all__)
    for name in hrfl.__all__:
        assert getattr(hrfl, name) is not None, name


def test_negative_marks_rejected_for_hardrod(tmp_path, capsys):
    model = {"rho": {"kind": "constant", "value": 1.0},
             "kernel": {"kind": "product",
                        "velocity": {"kind": "uniform", "lo": -1, "hi": 1},
                        "mark": {"kind": "constant", "value": -0.5}}}
    cfg = write_config(tmp_path, {"kind": "hardrod-evolve", "engine": "events",
                                  "epsilon": 1.0,
                                  "region": {"x": [0, 5], "t": [0, 1]},
                                  "times": [0.5]}, model=model)
    out = tmp_path / "runs"
    assert main(["hardrod-evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))


def test_override_changes_hash_and_values(tmp_path):
    cfg = write_config(tmp_path, {"kind": "verify-lln",
                                  "epsilons": [0.1, 0.01], "replicas": 100})
    out = tmp_path / "runs"
    assert main(["verify-lln", "--config", str(cfg), "--out", str(out),
                 "--override", "experiment.replicas=50"]) == 0
    resolved = json.loads(next(out.glob("*/resolved-config.json")).read_text())
    assert resolved["experiment"]["replicas"] == 50


def test_seed_env_fallback(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"kind": "verify-lln",
                                  "epsilons": [0.1, 0.02], "replicas": 50})
    out = tmp_path / "runs"
    monkeypatch.setenv("HRFL_SEED", "77")
    assert main(["verify-lln", "--config", str(cfg), "--out", str(out)]) == 0
    rep = report_of(out)
    assert rep["seed"] == 77
    rundirs = list(out.glob("*-s77"))
    assert len(rundirs) == 1


def test_sample_field_csv(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "sample-field", "epsilon": 0.1,
        "region": {"x": [0, 1], "t": [0, 1]},
        "grid": {"x": [0, 1, 3], "t": [0, 1, 2]}})
    out = tmp_path / "runs"
    assert main(["sample-field", "--config", str(cfg), "--seed", "1",
                 "--out", str(out)]) == 0
    csv = next(out.glob("*/surface.csv")).read_bytes()
    assert csv.startswith(b"x,t,H\n")
    assert b"\r" not in csv
    assert len(csv.decode().strip().split("\n")) == 1 + 6


def test_csv_17_digit_roundtrip(tmp_path):
    from hrfl.reporting import write_csv
    val = 0.1234567890123456789
    path = tmp_path / "x.csv"
    write_csv(path, ("a",), [(val,)])
    txt = path.read_text().strip().split("\n")[1]
    assert float(txt) == val


def test_strict_json_maps_every_non_finite_number_to_null(tmp_path):
    import numpy as np
    from hrfl.reporting import write_json
    path = tmp_path / "report.json"
    write_json(path, {"z": math.inf, "lo": -math.inf, "nan": math.nan,
                      "np": [np.float64(np.inf), np.float64(-np.inf), np.float64(1.5)],
                      "arr": np.array([np.inf, 2.0])})

    def reject(token):
        raise AssertionError(f"non-finite token {token} in strict JSON")

    got = json.loads(path.read_text(), parse_constant=reject)
    assert got == {"z": None, "lo": None, "nan": None, "np": [None, None, 1.5],
                   "arr": [None, 2.0]}


EVOLVE = {"kind": "hardrod-evolve", "engine": "events", "epsilon": 0.2,
          "region": {"x": [-5, 5], "t": [0, 1]}, "times": [0.0, 1.0]}


@pytest.mark.parametrize("times,message", [
    ([5], "config.experiment.times[0]: expected a number in region.t [0.0, 1.0], got 5"),
    ([0.5, -3], "config.experiment.times[1]: expected a number in region.t"),
    ([1.0000001], "config.experiment.times[0]: expected a number in region.t"),
    ([math.nan], "config.experiment.times[0]: expected a number in region.t"),
    (["1"], "config.experiment.times[0]: expected a number in region.t"),
    (1.0, "config.experiment.times: expected a list of numbers"),
])
def test_evolution_time_outside_the_region_is_config_error(tmp_path, capsys, times, message):
    cfg = write_config(tmp_path, dict(EVOLVE, times=times))
    out = tmp_path / "runs"
    assert main(["hardrod-evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))


def test_evolution_times_at_both_ends_of_the_region_run(tmp_path):
    cfg = write_config(tmp_path, EVOLVE)
    out = tmp_path / "runs"
    assert main(["hardrod-evolve", "--config", str(cfg), "--seed", "3",
                 "--out", str(out)]) == 0
    assert report_of(out)["extra"]["times"] == [0.0, 1.0]


def test_negative_thread_count_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(REPLICA_EXPERIMENTS["verify-lln"], replicas=5))
    out = tmp_path / "runs"
    assert main(["verify-lln", "--config", str(cfg), "--threads", "-3",
                 "--out", str(out)]) == 2
    assert "--threads: expected an integer >= 0, got -3" in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))
    # 0 still means one worker per CPU
    assert main(["verify-lln", "--config", str(cfg), "--threads", "0",
                 "--out", str(out)]) in (0, 1)
    assert report_of(out)["M"] == 5


@pytest.mark.parametrize("axis,value,message", [
    ("x", [0, 2, 2.7], "config.experiment.grid.x[2]: expected an integer >= 2, got 2.7"),
    ("t", [0, 1, 1], "config.experiment.grid.t[2]: expected an integer >= 2, got 1"),
    ("x", [0, 1, True], "config.experiment.grid.x[2]: expected an integer >= 2"),
    ("t", [0, 1, "3"], "config.experiment.grid.t[2]: expected an integer >= 2"),
    ("x", ["a", 1, 3], "config.experiment.grid.x[0]: expected a number"),
    ("x", [0, 2, 3], "config.experiment.grid.x: expected [lo, hi, n] inside region.x"),
])
def test_bad_grid_count_is_config_error(tmp_path, capsys, axis, value, message):
    grid = {"x": [0, 1, 3], "t": [0, 1, 2]}
    grid[axis] = value
    cfg = write_config(tmp_path, {"kind": "sample-field", "epsilon": 0.1,
                                  "region": {"x": [0, 1], "t": [0, 1]}, "grid": grid})
    out = tmp_path / "runs"
    assert main(["sample-field", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))


def test_hardrod_evolve_engines_agree(tmp_path):
    out = {}
    for engine in ("surface", "events", "tagged"):
        cfg = write_config(tmp_path, {
            "kind": "hardrod-evolve", "engine": engine, "epsilon": 0.2,
            "region": {"x": [-5, 5], "t": [0, 1]}, "times": [0.0, 0.8]},
            name=f"{engine}.json")
        outdir = tmp_path / f"runs-{engine}"
        assert main(["hardrod-evolve", "--config", str(cfg), "--seed", "9",
                     "--out", str(outdir)]) == 0
        out[engine] = next(outdir.glob("*/trajectories.csv")).read_text()
    surface = out["surface"].splitlines()
    events = out["events"].splitlines()
    tagged = out["tagged"].splitlines()
    assert len(surface) == len(events) == len(tagged)
    for ls, le, lt in zip(surface[1:], events[1:], tagged[1:]):
        ys, ye, yt = float(ls.split(",")[2]), float(le.split(",")[2]), float(lt.split(",")[2])
        assert abs(ys - ye) < 1e-9 and abs(ys - yt) < 1e-9


def test_reproducible_across_threads_and_runs(tmp_path):
    cfg = write_config(tmp_path, {"kind": "verify-euler-clt", "epsilon": 0.05,
                                  "replicas": 100, "points": [[0, 1], [1, 0]]})
    blobs = []
    for i, threads in enumerate((1, 8, 1)):
        out = tmp_path / f"runs{i}"
        assert main(["verify-euler-clt", "--config", str(cfg), "--seed", "5",
                     "--threads", str(threads), "--out", str(out)]) == 0
        blobs.append(next(out.glob("*/report.json")).read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_verify_diffusive_subcommand(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "verify-diffusive", "epsilon": 0.05, "replicas": 300,
        "t": 1.0, "frame": [0.2, 0.1]})
    out = tmp_path / "runs"
    assert main(["verify-diffusive", "--config", str(cfg), "--seed", "2",
                 "--out", str(out)]) == 0
    rep = report_of(out)
    names = {s["name"] for s in rep["statistics"]}
    assert "same_velocity_cov" in names


def test_ghd_residual_subcommand(tmp_path):
    model = {"rho": {"kind": "bump", "center": 0.0, "width": 2.0,
                     "height": 0.5, "power": 4},
             "kernel": {"kind": "atoms",
                        "atoms": [{"v": -1.0, "r": 0.4, "weight": 0.5},
                                  {"v": 1.0, "r": 0.6, "weight": 0.5}]}}
    cfg = write_config(tmp_path, {
        "kind": "ghd-residual", "q_range": [-0.8, 0.8], "t_range": [0.05, 0.45],
        "nq": 9, "nt": 5, "refinements": 1}, model=model)
    out = tmp_path / "runs"
    assert main(["ghd-residual", "--config", str(cfg), "--out", str(out)]) == 0
    rep = report_of(out)
    assert rep["extra"]["ratios"][0] == pytest.approx(4.0, abs=0.8)
    assert (next((tmp_path / "runs").glob("*/residual.csv"))
            .read_text().startswith("species,t,q,residual"))


def test_stationarity_subcommand_with_expect_reject(tmp_path):
    control = {"rho": {"kind": "piecewise", "edges": [-40, -1, 1, 40],
                       "values": [0.2, 5.0, 0.2]},
               "velocity": {"kind": "uniform", "lo": -1.0, "hi": 1.0},
               "mark": {"kind": "constant", "value": 1.0}}
    cfg = write_config(tmp_path, {
        "kind": "stationarity", "t_values": [1.0], "replicas": 100,
        "core_halfwidth": 6.0, "expect_reject": True}, model=control)
    out = tmp_path / "runs"
    assert main(["stationarity", "--config", str(cfg), "--seed", "8",
                 "--out", str(out)]) == 0


def test_flat_model_form_equals_kernel_form(tmp_path):
    flat = {"rho": {"kind": "constant", "value": 1.0},
            "velocity": {"kind": "uniform", "lo": -1.0, "hi": 1.0},
            "mark": {"kind": "constant", "value": 1.0}}
    cfg = write_config(tmp_path, {"kind": "verify-lln",
                                  "epsilons": [0.1, 0.02], "replicas": 60},
                       model=flat)
    out = tmp_path / "runs"
    assert main(["verify-lln", "--config", str(cfg), "--seed", "4",
                 "--out", str(out)]) == 0


REPLICA_EXPERIMENTS = {
    "verify-euler-clt": {"kind": "verify-euler-clt", "epsilon": 0.05,
                         "points": [[0, 1], [1, 0]]},
    "verify-diffusive": {"kind": "verify-diffusive", "epsilon": 0.05,
                         "t": 1.0, "frame": [0.2, 0.1]},
    "verify-lln": {"kind": "verify-lln", "epsilons": [0.1, 0.02]},
    "stationarity": {"kind": "stationarity", "t_values": [1.0],
                     "core_halfwidth": 6.0},
}


SAMPLE_FIELD = {"kind": "sample-field", "epsilon": 0.1,
                "region": {"x": [0, 1], "t": [0, 1]},
                "grid": {"x": [0, 1, 3], "t": [0, 1, 2]}}

# one valid experiment of each kind, small enough to run
FIELD_EXPERIMENTS = {**{command: dict(exp, replicas=3)
                        for command, exp in REPLICA_EXPERIMENTS.items()},
                     "sample-field": SAMPLE_FIELD, "hardrod-evolve": EVOLVE}


@pytest.mark.parametrize("command,replicas", [
    ("verify-euler-clt", 0), ("verify-euler-clt", 1), ("verify-euler-clt", 2),
    ("verify-diffusive", 0), ("verify-diffusive", 1), ("verify-diffusive", 2),
    ("verify-lln", 0), ("stationarity", 0),
])
def test_too_few_replicas_is_config_error(tmp_path, capsys, command, replicas):
    cfg = write_config(tmp_path, dict(REPLICA_EXPERIMENTS[command],
                                      replicas=replicas))
    out = tmp_path / "runs"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "config.experiment.replicas" in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))


def test_three_replicas_write_a_report(tmp_path):
    cfg = write_config(tmp_path, dict(REPLICA_EXPERIMENTS["verify-euler-clt"],
                                      replicas=3))
    out = tmp_path / "runs"
    assert main(["verify-euler-clt", "--config", str(cfg), "--seed", "1",
                 "--out", str(out)]) in (0, 1)
    assert report_of(out)["M"] == 3


def test_euler_report_independent_of_epsilon_order(tmp_path):
    blobs = []
    for i, epsilons in enumerate(([0.1, 0.02], [0.02, 0.1])):
        cfg = write_config(tmp_path, {"kind": "verify-euler-clt",
                                      "epsilon": 0.1, "epsilons": epsilons,
                                      "replicas": 60, "points": [[0, 1], [1, 0]]},
                           name=f"cfg{i}.json")
        out = tmp_path / f"runs{i}"
        main(["verify-euler-clt", "--config", str(cfg), "--seed", "6",
              "--out", str(out)])
        blobs.append(next(out.glob("*/report.json")).read_bytes())
    assert blobs[0] == blobs[1]


BUMP_ATOMS_MODEL = {
    "rho": {"kind": "bump", "center": 0.0, "width": 2.0, "height": 0.5},
    "kernel": {"kind": "atoms", "atoms": [{"v": -1.0, "r": 0.4, "weight": 0.5},
                                          {"v": 1.0, "r": 0.6, "weight": 0.5}]},
}


@pytest.mark.parametrize("field,value,message", [
    ("bound", 0.1, "model.rho.bound: "),
    ("bound", "0.9", "model.rho.bound: expected a number"),
    ("power", "4", "model.rho.power: expected a number"),
    ("power", -1, "model.rho: bump needs"),
    ("rho", {"kind": "piecewise", "edges": [-1, 1], "values": ["a"]},
     "model.rho.values[0]: expected a number"),
    ("kernel", {"kind": "atoms", "atoms": 5}, "model.kernel.atoms: expected a list"),
    ("kernel", {"kind": "atoms", "atoms": [{"v": "x", "r": 0.4, "weight": 1.0}]},
     "model.kernel.atoms[0].v: expected a"),
    ("kernel", {"kind": "product", "velocity": {"kind": "uniform", "lo": 1.0, "hi": -1.0},
                "mark": {"kind": "constant", "value": 1.0}},
     "model.kernel.velocity: uniform velocity needs lo < hi"),
    ("kernel", {"kind": "piecewise", "cells": [
        {"x_range": [-2.0, 0.0], "kernel": BUMP_ATOMS_MODEL["kernel"]},
        {"x_range": [1.0, 2.0], "kernel": BUMP_ATOMS_MODEL["kernel"]}]},
     "model.kernel: kernel cells must be contiguous"),
])
def test_bad_bump_field_is_config_error(tmp_path, capsys, field, value, message):
    model = json.loads(json.dumps(BUMP_ATOMS_MODEL))
    if field in model:          # a whole part of the model
        model[field] = value
    else:                       # a field of the bump density
        model["rho"][field] = value
    cfg = write_config(tmp_path, {"kind": "ghd-residual", "q_range": [-0.8, 0.8],
                                  "t_range": [0.05, 0.45], "nq": 3, "nt": 3},
                       model=model)
    out = tmp_path / "runs"
    assert main(["ghd-residual", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))


PROBE_MODELS = {
    "uniform": HOMOGENEOUS_MODEL,
    "atoms": {"rho": {"kind": "constant", "value": 1.0},
              "kernel": {"kind": "atoms", "atoms": [{"v": -1.0, "r": 1.0, "weight": 1.0}]}},
    "piecewise": {"rho": {"kind": "piecewise", "edges": [-1.0, 0.0, 1.0], "values": [0.5, 1.0]},
                  "kernel": {"kind": "piecewise", "cells": [
                      {"x_range": [-1.0, 1.0], "kernel": HOMOGENEOUS_MODEL["kernel"]}]}},
    "bump": {"rho": {"kind": "bump", "center": 0.0, "width": 2.0, "height": 0.5},
             "kernel": HOMOGENEOUS_MODEL["kernel"]},
    "gaussian": {"rho": {"kind": "constant", "value": 1.0},
                 "velocity": {"kind": "gaussian", "mean": 0.0, "sd": 1.0},
                 "mark": {"kind": "constant", "value": 1.0}, "v_support": [-3.0, 3.0]},
}


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy costs every run most of its start-up: only the Gaussian velocity
    # law needs scipy.special, and only the stationarity battery scipy.stats,
    # each imported when it is used
    src = str(Path(hrfl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import json, sys, hrfl.cli\n"
             "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
             "seen = {'import': scipy()}\n"
             "for name, rec in json.loads(sys.argv[1]).items():\n"
             "    hrfl.cli.build_model(rec)\n"
             "    seen[name] = scipy()\n"
             "print(json.dumps(seen))\n")
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(PROBE_MODELS)], env=env,
                         check=True, capture_output=True, text=True)
    seen = json.loads(out.stdout)
    assert list(seen) == ["import", *PROBE_MODELS]
    for name in ("import", "uniform", "atoms", "piecewise", "bump"):
        assert seen[name] == [], name
    assert "scipy.special" in seen["gaussian"]
    for heavy in ("integrate", "interpolate", "optimize", "stats"):
        assert not [m for m in seen["gaussian"] if m.split(".")[:2] == ["scipy", heavy]]

    cfg = write_config(tmp_path, dict(REPLICA_EXPERIMENTS["stationarity"],
                                      replicas=5, core_halfwidth=3.0))
    runs = tmp_path / "runs"
    assert main(["stationarity", "--config", str(cfg), "--seed", "2",
                 "--out", str(runs)]) in (0, 1)
    assert set(report_of(runs)["extra"]["p_values"]["t=1"]) == {"gaps", "lengths"}


GHD_EXPERIMENT = {"kind": "ghd-residual", "q_range": [-0.8, 0.8],
                  "t_range": [0.05, 0.45], "nq": 5, "nt": 3, "refinements": 1}


@pytest.mark.parametrize("field,value,message", [
    ("nq", 17.9, "config.experiment.nq: expected an integer >= 3"),
    ("nq", "17", "config.experiment.nq: expected an integer >= 3"),
    ("nq", 2, "config.experiment.nq: expected an integer >= 3"),
    ("nt", True, "config.experiment.nt: expected an integer >= 3"),
    ("q_range", [0.8, -0.8], "config.experiment.q_range: expected finite lo < hi"),
    ("q_range", [0.8, 0.8], "config.experiment.q_range: expected finite lo < hi"),
    ("q_range", [0.8], "config.experiment.q_range: expected [number, number]"),
    ("q_range", [-math.inf, 0.8], "config.experiment.q_range: expected finite lo < hi"),
    ("t_range", [0.45, 0.05], "config.experiment.t_range: expected finite lo < hi"),
    ("t_range", [0.05, math.nan], "config.experiment.t_range: expected finite lo < hi"),
    ("ratio_band", [4.8, 3.2], "config.experiment.ratio_band: expected lo < hi"),
    ("ratio_band", "wide", "config.experiment.ratio_band: expected [number, number]"),
])
def test_bad_ghd_field_is_config_error(tmp_path, capsys, field, value, message):
    cfg = write_config(tmp_path, dict(GHD_EXPERIMENT, **{field: value}),
                       model=BUMP_ATOMS_MODEL)
    out = tmp_path / "runs"
    assert main(["ghd-residual", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))


@pytest.mark.parametrize("command,field,value,message", [
    ("verify-euler-clt", "epsilon", -1, "config.experiment.epsilon: expected a finite number > 0"),
    ("verify-euler-clt", "epsilon", None, "config.experiment.epsilon: expected a number"),
    ("verify-euler-clt", "epsilon", "x", "config.experiment.epsilon: expected a number"),
    ("verify-diffusive", "epsilon", 0, "config.experiment.epsilon: expected a finite number > 0"),
    ("verify-euler-clt", "epsilons", [0.1, math.inf],
     "config.experiment.epsilons[1]: expected a finite number > 0"),
    ("verify-lln", "epsilons", [0.1, -0.02],
     "config.experiment.epsilons[1]: expected a finite number > 0"),
    ("verify-euler-clt", "points", [[0]], "config.experiment.points[0]: expected [number, number]"),
    ("verify-euler-clt", "points", 5, "config.experiment.points: expected a list"),
    ("verify-euler-clt", "points", [[0, 0]],
     "config.experiment.points[0]: the origin is not a valid point"),
    ("verify-euler-clt", "quasiparticle", [1, 2],
     "config.experiment.quasiparticle: expected [number, number, number]"),
    ("verify-euler-clt", "mass_point", [1], "config.experiment.mass_point: expected [number, number]"),
    ("verify-lln", "point", [0, 1, 2], "config.experiment.point: expected [number, number]"),
    ("verify-lln", "mass_point", [1], "config.experiment.mass_point: expected [number, number]"),
    ("stationarity", "t_values", [], "config.experiment.t_values: expected a list"),
    ("verify-euler-clt", "points", [], "config.experiment.points: expected a list"),
    ("stationarity", "expect_reject", "no", "config.experiment.expect_reject: expected true or false"),
    ("stationarity", "core_halfwidth", -3, "config.experiment.core_halfwidth: expected a finite number > 0"),
    ("stationarity", "core_halfwidth", 0, "config.experiment.core_halfwidth: expected a finite number > 0"),
    ("verify-diffusive", "t", 0, "config.experiment.t: expected a finite number != 0"),
    ("verify-diffusive", "t", math.inf, "config.experiment.t: expected a finite number != 0"),
    ("verify-diffusive", "frame", [1], "config.experiment.frame: expected [number, number]"),
    ("verify-diffusive", "t", "x", "config.experiment.t: expected a number"),
    ("stationarity", "t_values", 5, "config.experiment.t_values: expected a list"),
    ("verify-lln", "epsilons", [0.1], "config.experiment.epsilons: expected a list"),
    ("verify-euler-clt", "points", [[0, 1], [1, 0], [0, 1]],
     "config.experiment.points[2]: repeats points[0]"),
    ("sample-field", "region", {"x": [5, 0], "t": [0, 1]},
     "config.experiment.region: region ranges must be nonempty"),
    ("verify-lln", "epsilons", [1e-9, 1e-8], "config.experiment: expected count"),
    ("verify-lln", "epsilons", [0.1, 0.1], "config.experiment.epsilons[1]: repeats epsilons[0]"),
    ("verify-euler-clt", "quasiparticle", [0, 1e200, 1e200],
     "config.experiment.quasiparticle: expected [x, v, t] with x + v t finite"),
    ("verify-lln", "point", [0, 0], "config.experiment.point: the origin is not a valid point"),
    ("verify-lln", "mass_point", [0, 0.5],
     "config.experiment.mass_point[0]: expected a finite number != 0, got 0"),
    ("verify-euler-clt", "mass_point", [0.0, 1.0],
     "config.experiment.mass_point[0]: expected a finite number != 0, got 0.0"),
    ("verify-euler-clt", "quasiparticle", [0.5, 1.0, 0],
     "config.experiment.quasiparticle[2]: expected a finite number != 0, got 0"),
])
def test_bad_battery_field_is_config_error(tmp_path, capsys, command, field, value, message):
    cfg = write_config(tmp_path, dict(FIELD_EXPERIMENTS[command], **{field: value}))
    out = tmp_path / "runs"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_ghd_zero_residual_reports_undefined_ratios(tmp_path):
    # the homogeneous state is stationary: every level's residual is exactly 0
    model = {"rho": {"kind": "constant", "value": 0.8},
             "kernel": {"kind": "atoms", "atoms": [{"v": -1.0, "r": 0.5, "weight": 0.5},
                                                   {"v": 1.0, "r": 0.25, "weight": 0.5}]}}
    cfg = write_config(tmp_path, dict(GHD_EXPERIMENT, refinements=2), model=model)
    out = tmp_path / "runs"
    assert main(["ghd-residual", "--config", str(cfg), "--out", str(out)]) == 0
    rep = _strict_json(next(out.glob("*/report.json")))
    assert rep["verdict"] == "pass"
    assert rep["extra"]["ratios"] == [None, None]
    stats = {s["name"]: s["mean"] for s in rep["statistics"]}
    assert stats["residual_l2"] == 0.0
    assert stats["l2_ratio[0]"] is None and stats["l2_ratio[1]"] is None


def test_ghd_on_a_huge_range_writes_a_strict_report(tmp_path, capsys):
    # nodes 1e299 apart miss the bump entirely, and the jump-image margins of
    # the coarse grid cover every interior column: a config error, not a pass
    cfg = write_config(tmp_path, dict(GHD_EXPERIMENT, q_range=[-1e300, 1e300]),
                       model=BUMP_ATOMS_MODEL)
    out = tmp_path / "runs"
    assert main(["ghd-residual", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config.experiment.q_range: " in capsys.readouterr().err
    # with more nodes some columns stay, and the vanishing residual is a
    # complete strict-JSON report
    cfg = write_config(tmp_path, dict(GHD_EXPERIMENT, q_range=[-1e300, 1e300], nq=41),
                       model=BUMP_ATOMS_MODEL, name="wide.json")
    code = main(["ghd-residual", "--config", str(cfg), "--out", str(out)])
    rep = _strict_json(next(out.glob("*/report.json")))
    assert code == (0 if rep["verdict"] == "pass" else 1)


def test_ghd_grid_without_a_kept_column_is_config_error(tmp_path, capsys):
    # the margins around the jump images at x = 0 +- t cover the whole narrow
    # q range, so no level keeps a column and the residual checks nothing
    model = {"rho": {"kind": "piecewise", "edges": [-3.0, 0.0, 3.0], "values": [0.3, 0.6]},
             "kernel": {"kind": "atoms", "atoms": [{"v": -1.0, "r": 0.4, "weight": 0.5},
                                                   {"v": 1.0, "r": 0.6, "weight": 0.5}]}}
    cfg = write_config(tmp_path, {"kind": "ghd-residual", "q_range": [-0.2, 0.2],
                                  "t_range": [0.05, 0.15], "nq": 5, "nt": 3}, model=model)
    out = tmp_path / "runs"
    assert main(["ghd-residual", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config.experiment.q_range: " in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))


def test_ghd_residual_of_a_continuous_kernel_is_config_error(tmp_path, capsys):
    model = dict(BUMP_ATOMS_MODEL, kernel=HOMOGENEOUS_MODEL["kernel"])
    cfg = write_config(tmp_path, GHD_EXPERIMENT, model=model)
    out = tmp_path / "runs"
    assert main(["ghd-residual", "--config", str(cfg), "--out", str(out)]) == 2
    assert "model.kernel: " in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["verify-lln", "--config", str(tmp_path / "missing.json")]) == 2
    assert "missing.json" in capsys.readouterr().err


def test_unexpected_error_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    # the battery is looked up when it runs, so a replaced one is the one called
    from hrfl import stats

    def broken(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(stats, "lln_test", broken)
    cfg = write_config(tmp_path, FIELD_EXPERIMENTS["verify-lln"])
    out = tmp_path / "runs"
    assert main(["verify-lln", "--config", str(cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err == "internal error: KeyError: 'boom'\n"
    assert not list(out.glob("*/report.json"))


# every optional experiment field present, so that each one can be replaced
FUZZ_EXPERIMENTS = {
    "sample-field": SAMPLE_FIELD,
    "hardrod-evolve": EVOLVE,
    "verify-lln": {"kind": "verify-lln", "epsilons": [0.1, 0.02], "replicas": 3,
                   "point": [0, 1], "mass_point": [1, 0.5]},
    "verify-euler-clt": {"kind": "verify-euler-clt", "epsilon": 0.05, "replicas": 3,
                         "points": [[0, 1], [1, 0]], "quasiparticle": [0.5, 0.5, 1.0],
                         "mass_point": [1.0, 0.5], "epsilons": [0.1, 0.05]},
    "verify-diffusive": {"kind": "verify-diffusive", "epsilon": 0.05, "replicas": 3,
                         "t": 1.0, "frame": [0.2, 0.1], "same_velocity": [0.0, 0.0, 0.5],
                         "distinct_velocities": [0.0, 1.0],
                         "independence_offsets": [[1.0, -1.0]], "zo1_start": [0.3, 0.0]},
    "ghd-residual": dict(GHD_EXPERIMENT, ratio_band=[3.2, 4.8]),
    "stationarity": {"kind": "stationarity", "t_values": [1.0], "replicas": 3,
                     "core_halfwidth": 6.0, "expect_reject": False},
}
FUZZ_CONFIGS = {
    **{kind: (exp, HOMOGENEOUS_MODEL) for kind, exp in FUZZ_EXPERIMENTS.items()},
    **{f"model-{name}": (FUZZ_EXPERIMENTS["verify-lln"], model)
       for name, model in dict(PROBE_MODELS, bump_atoms=BUMP_ATOMS_MODEL).items()},
}


def _key_paths(node, prefix=()):
    """The path of every value below node, through objects and lists."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8)


@pytest.mark.parametrize("name", sorted(FUZZ_CONFIGS))
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_any_replaced_field_is_valid_or_a_config_error(name, data):
    from hrfl.config import ConfigError, build_model, validate_config

    exp, model = FUZZ_CONFIGS[name]
    cfg = json.loads(json.dumps({"schema_version": 1, "model": model, "experiment": exp}))
    path = data.draw(st.sampled_from([p for p in _key_paths(cfg) if p[0] != "schema_version"]))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(_JSON)
    try:
        validate_config(cfg, exp["kind"])
        build_model(cfg["model"])
    except ConfigError as exc:
        # the message starts with the path of the field or record at fault
        assert re.match(r"(config|model)[.:]", str(exc)), str(exc)


def test_readme_field_table_matches_the_schema():
    from hrfl.config import _MODEL, SCHEMA

    readme = Path(__file__).resolve().parent.parent / "README.md"
    documented = set()
    for line in readme.read_text().splitlines():
        cells = [c.strip() for c in line.split("|")[1:-1]]
        if len(cells) == 4 and cells[0].startswith("`"):
            for name in cells[1].split(", "):
                documented.add((cells[0].strip("`"), name.strip("`")))
    coded = {("model", name) for name in _MODEL}
    for table, kinds in SCHEMA.items():
        for kind, (_, fields) in kinds.items():
            label = kind if table == "experiment" else f"{table}: {kind}"
            coded |= {(label, name) for name in fields}
    assert documented == coded
