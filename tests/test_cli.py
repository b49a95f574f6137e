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
from hrfl.config import build_model, config_hash
from hrfl.field import walk_field
from hrfl.geometry import SpaceTimePoint
from hrfl.sampler import ObservationRegion, sample

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


def child_env(**extra) -> dict:
    """The environment with this checkout's src first on PYTHONPATH, for a child python."""
    src = str(Path(hrfl.__file__).resolve().parent.parent)
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


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


# at epsilon 1e6 the region holds no line
NO_LINE_EULER = {"kind": "verify-euler-clt", "epsilon": 1e6, "replicas": 50,
                 "points": [[0, 1], [1, 0]]}


def test_empty_samples_against_nonzero_targets_fail(tmp_path):
    # every covariance is 0 with se 0 against targets 0.5, 0.25 and 1.0, an
    # infinite z that must fail
    cfg = write_config(tmp_path, NO_LINE_EULER)
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
    rows = csv.decode().strip().split("\n")[1:]
    assert len(rows) == 6
    # every node is walk_field on the same sample, drawn again from the seed
    sampled = sample(build_model(HOMOGENEOUS_MODEL), 0.1,
                     ObservationRegion((0.0, 1.0), (0.0, 1.0)), 1)
    for row in rows:
        x, t, h = map(float, row.split(","))
        assert h == walk_field(sampled, SpaceTimePoint(x, t))


def test_sample_field_away_from_the_origin_counts_the_lines_in_between(tmp_path):
    # H(5, 0) counts every line between the origin and x = 5, not only those
    # near the region: the limit is 5, with a Poisson sd of sqrt(0.01 * 5)
    cfg = write_config(tmp_path, {
        "kind": "sample-field", "epsilon": 0.01,
        "region": {"x": [5, 10], "t": [0, 1]},
        "grid": {"x": [5, 10, 3], "t": [0, 1, 2]}})
    out = tmp_path / "runs"
    assert main(["sample-field", "--config", str(cfg), "--seed", "0",
                 "--out", str(out)]) == 0
    rows = next(out.glob("*/surface.csv")).read_text().splitlines()[1:]
    h = {(float(x), float(t)): float(v) for x, t, v in (r.split(",") for r in rows)}
    assert h[(5.0, 0.0)] == pytest.approx(5.0, abs=1.5)


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


def test_one_cell_of_negative_marks_is_rejected_for_hardrod(tmp_path, capsys):
    # two continuous cells with different velocity supports and no v_support:
    # the model reads the hull and the sign of the marks off its cells
    cell = lambda lo, hi, mark: {"kind": "product", "mark": mark,
                                 "velocity": {"kind": "uniform", "lo": lo, "hi": hi}}
    model = {"rho": {"kind": "piecewise", "edges": [-5.0, 0.0, 5.0], "values": [1.0, 0.6]},
             "kernel": {"kind": "piecewise", "cells": [
                 {"x_range": [-5.0, 0.0], "kernel": cell(-1.0, 0.5, {"kind": "constant",
                                                                    "value": 0.5})},
                 {"x_range": [0.0, 5.0], "kernel": cell(-0.5, 2.0, {"kind": "uniform",
                                                                   "lo": -0.2, "hi": 0.5})}]}}
    built = build_model(model)
    assert built.v_support == (-1.0, 2.0) and not built.marks_nonnegative
    cfg = write_config(tmp_path, dict(EVOLVE, epsilon=1.0), model=model)
    out = tmp_path / "runs"
    assert main(["hardrod-evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert ("config error: model.kernel: hard-rod experiments require nonnegative marks"
            in capsys.readouterr().err)
    assert not list(out.glob("*/report.json"))


def test_negative_thread_count_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(REPLICA_EXPERIMENTS["verify-lln"], replicas=5))
    out = tmp_path / "runs"
    assert main(["verify-lln", "--config", str(cfg), "--threads", "-3",
                 "--out", str(out)]) == 2
    assert "--threads: expected an integer >= 0, got -3" in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))
    # 0 is still accepted; the count has no effect on the run
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


PIECEWISE_ATOMS_MODEL = {
    "rho": {"kind": "piecewise", "edges": [-5.0, 0.0, 5.0], "values": [1.0, 0.6]},
    "kernel": {"kind": "piecewise", "cells": [
        {"x_range": [-5.0, 0.0], "kernel": {"kind": "atoms", "atoms": [
            {"v": -1.0, "r": 1.0, "weight": 0.5}, {"v": 1.0, "r": 0.5, "weight": 0.5}]}},
        {"x_range": [0.0, 5.0], "kernel": {"kind": "atoms", "atoms": [
            {"v": 0.5, "r": 1.0, "weight": 0.7}, {"v": -1.0, "r": 0.25, "weight": 0.3}]}}]},
}


def test_hardrod_evolve_engines_agree(tmp_path):
    # the reference model forward in time, and a piecewise kernel of atom
    # cells in both time directions
    for name, model, seed, region_t, times in (
            ("uniform", None, 9, [0, 1], [0.0, 0.8]),
            ("piecewise", PIECEWISE_ATOMS_MODEL, 5, [-2, 2], [-2.0, 0.0, 2.0])):
        ys = {}
        for engine in ("surface", "events", "tagged"):
            cfg = write_config(tmp_path, {
                "kind": "hardrod-evolve", "engine": engine, "epsilon": 0.2,
                "region": {"x": [-5, 5], "t": region_t}, "times": times},
                model=model, name=f"{name}-{engine}.json")
            outdir = tmp_path / f"runs-{name}-{engine}"
            assert main(["hardrod-evolve", "--config", str(cfg), "--seed", str(seed),
                         "--out", str(outdir)]) == 0
            rows = next(outdir.glob("*/trajectories.csv")).read_text().splitlines()[1:]
            ys[engine] = [float(row.split(",")[2]) for row in rows]
        assert len(ys["surface"]) == len(ys["events"]) == len(ys["tagged"]) > 20 * len(times)
        for ys_, ye, yt in zip(ys["surface"], ys["events"], ys["tagged"]):
            assert abs(ys_ - ye) < 1e-9 and abs(ys_ - yt) < 1e-9, name


def test_verify_euler_clt_on_a_two_cell_continuous_kernel(tmp_path):
    # a uniform cell and a Gaussian cell truncated to v_support: sampling,
    # breakpoints, truncation and the summary of the piecewise kernel
    uniform = HOMOGENEOUS_MODEL["kernel"]
    gaussian = {"kind": "product", "velocity": {"kind": "gaussian", "mean": 0.0, "sd": 1.0},
                "mark": {"kind": "uniform", "lo": 0.5, "hi": 1.5}}
    model = {"rho": {"kind": "piecewise", "edges": [-20.0, 0.0, 20.0], "values": [0.8, 1.0]},
             "kernel": {"kind": "piecewise", "cells": [
                 {"x_range": [-20.0, 0.0], "kernel": uniform},
                 {"x_range": [0.0, 20.0], "kernel": gaussian}]},
             "v_support": [-2.0, 2.0]}
    cfg = write_config(tmp_path, {"kind": "verify-euler-clt", "epsilon": 0.05,
                                  "replicas": 200, "points": [[0, 1], [1, 0]]}, model=model)
    out = tmp_path / "runs"
    assert main(["verify-euler-clt", "--config", str(cfg), "--seed", "1",
                 "--out", str(out)]) in (0, 1)
    summary = report_of(out)["model"]
    cells = summary["kernel"]["cells"]
    assert summary["kernel"]["kind"] == "piecewise"
    assert [c["x_range"] for c in cells] == [[-20.0, 0.0], [0.0, 20.0]]
    assert cells[0]["kernel"]["velocity"]["tail_mass_removed"] == 0.0
    assert cells[1]["kernel"]["velocity"]["support"] == [-2.0, 2.0]
    # the Gaussian mass beyond |v| = 2
    assert summary["tail_mass_removed"] == pytest.approx(math.erfc(2.0 / math.sqrt(2.0)),
                                                         rel=1e-12)


def test_verify_euler_clt_with_a_gaussian_law_beyond_40_sd(tmp_path):
    # Phi(40) - Phi(41) underflows: the law's constants and quantiles are kept
    # in log space, and the velocities between 40 and 41 must meet the targets
    model = {"rho": {"kind": "constant", "value": 1.0},
             "velocity": {"kind": "gaussian", "mean": 0.0, "sd": 1.0},
             "mark": {"kind": "constant", "value": 1.0}, "v_support": [40.0, 41.0]}
    cfg = write_config(tmp_path, {"kind": "verify-euler-clt", "epsilon": 0.05,
                                  "replicas": 200, "points": [[0, 1], [1, 0]]}, model=model)
    out = tmp_path / "runs"
    assert main(["verify-euler-clt", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
    assert report_of(out)["model"]["tail_mass_removed"] == 1.0


def test_trajectory_csv_keeps_the_bytes_of_indexed_rows(tmp_path):
    # the rows are built from tolist() columns; the file must equal rows that
    # index the numpy arrays element by element (an integer time stays "0")
    from hrfl import hardrod
    from hrfl.config import build_model
    from hrfl.reporting import write_csv
    from hrfl.sampler import sample

    times = [0, 0.5, 1.0]
    cfg = write_config(tmp_path, dict(EVOLVE, times=times))
    out = tmp_path / "runs"
    assert main(["hardrod-evolve", "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 0
    sampled = sample(build_model(HOMOGENEOUS_MODEL), 0.2,
                     ObservationRegion((-5.0, 5.0), (0.0, 1.0)), 4)
    gas = hardrod.GasConfiguration(sampled.x, sampled.v, sampled.r * 0.2)
    rows = []
    for t in times:
        state = hardrod.evolve_events(hardrod.dilate(gas, 0.0), t)
        for i in range(state.n):
            rows.append((t, i, state.y[i], state.v[i], state.r[i]))
    assert len(rows) > 3 * 20
    write_csv(tmp_path / "indexed.csv", ("time", "rod", "y", "v", "r"), rows)
    assert (next(out.glob("*/trajectories.csv")).read_bytes()
            == (tmp_path / "indexed.csv").read_bytes())


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


def test_report_independent_of_blas_threads(tmp_path):
    # non-integer marks make the bits of every field sum depend on its
    # summation order; OpenBLAS splits a long dot product across its threads
    model = {"rho": {"kind": "constant", "value": 1.0},
             "velocity": {"kind": "uniform", "lo": -1.0, "hi": 1.0},
             "mark": {"kind": "uniform", "lo": 0.5, "hi": 1.5}}
    cfg = write_config(tmp_path, {"kind": "verify-diffusive", "epsilon": 0.01,
                                  "replicas": 4, "frame": [0.3, 0.2]}, model=model)
    # part two samples the window of frame +- 1.5 at t in [0, 0.2] at scale eps^2
    lo, hi = ObservationRegion((-1.2, 1.8), (0.0, 0.2)).window_x(1.0)
    assert (hi - lo) / 0.01 ** 2 > 30_000
    blobs = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"runs{blas_threads}"
        proc = subprocess.run([sys.executable, "-m", "hrfl.cli", "verify-diffusive",
                               "--config", str(cfg), "--seed", "3", "--out", str(out)],
                              env=child_env(OPENBLAS_NUM_THREADS=blas_threads),
                              capture_output=True, text=True)
        assert proc.returncode in (0, 1), proc.stderr
        blobs.append(next(out.glob("*/report.json")).read_bytes())
    assert blobs[0] == blobs[1]


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
    assert rep["extra"]["ratio_band"] == [3.2, 4.8]
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


@pytest.mark.parametrize("command", sorted(REPLICA_EXPERIMENTS))
def test_replica_cap_admits_its_bound(command):
    # validation only: a run of 10**20 replicas would never end
    from hrfl.config import REPLICA_CAP, ConfigError, validate_config

    def check(replicas):
        return validate_config({"schema_version": 1, "model": HOMOGENEOUS_MODEL,
                                "experiment": dict(REPLICA_EXPERIMENTS[command],
                                                   replicas=replicas)}, command)

    assert REPLICA_CAP == 10 ** 6
    assert check(REPLICA_CAP)["replicas"] == REPLICA_CAP
    for replicas in (REPLICA_CAP + 1, 10 ** 20):
        with pytest.raises(ConfigError, match=r"^config\.experiment\.replicas: expected an "
                                              r"integer >= \d and <= 1000000, got"):
            check(replicas)


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
    ("bound", 0.1, "model.rho.bound: unknown key"),
    ("width", 0, "model.rho: bump needs"),
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
    ("kernel", {"kind": "piecewise", "cells": [
        {"x_range": [-2.0, -2.0], "kernel": BUMP_ATOMS_MODEL["kernel"]},
        {"x_range": [-2.0, 2.0], "kernel": BUMP_ATOMS_MODEL["kernel"]}]},
     "model.kernel: kernel cells must have positive width"),
    ("kernel", {"kind": "piecewise", "cells": [
        {"x_range": [-2.0, 0.0], "kernel": BUMP_ATOMS_MODEL["kernel"]},
        {"x_range": [0.0, 2.0], "kernel": {
            "kind": "product", "velocity": {"kind": "uniform", "lo": -1.0, "hi": 1.0},
            "mark": {"kind": "constant", "value": 1.0}}}]},
     "model.kernel: kernel cells must be all atoms or all continuous"),
    ("kernel", {"kind": "piecewise", "cells": [
        {"x_range": [-1.0, 2.0], "kernel": BUMP_ATOMS_MODEL["kernel"]}]},
     "model: kernel cells must cover the support of rho"),
    ("kernel", {"kind": "atoms", "atoms": [{"v": -1.0, "r": 0.4, "weight": 0.5},
                                           {"v": 1.0, "r": 0.6, "weight": 0.4}]},
     "model.kernel: atom weights must sum to 1"),
    # a piecewise kernel inside a cell: its own cells were read only at the
    # outer cell's left edge, so the targets were wrong
    ("kernel", {"kind": "piecewise", "cells": [{"x_range": [-2.0, 2.0], "kernel": {
        "kind": "piecewise", "cells": [
            {"x_range": [-2.0, 0.0], "kernel": BUMP_ATOMS_MODEL["kernel"]},
            {"x_range": [0.0, 2.0], "kernel": BUMP_ATOMS_MODEL["kernel"]}]}}]},
     "model.kernel: kernel cells must hold product or atoms kernels, not piecewise"),
    # non-finite edges and cell ends, which passed a "<= 0" width test and
    # ended in a quadrature error (exit 3) or an unplaced sample (exit 4)
    ("rho", {"kind": "piecewise", "edges": [-5, math.nan, 5], "values": [0.5, 0.5]},
     "model.rho: edges must be finite and strictly increasing"),
    ("rho", {"kind": "piecewise", "edges": [-math.inf, 0, 5], "values": [0.5, 0.5]},
     "model.rho: edges must be finite and strictly increasing"),
    ("rho", {"kind": "piecewise", "edges": [-5, 5, math.nan], "values": [0.5, 0.5]},
     "model.rho: edges must be finite and strictly increasing"),
    ("kernel", {"kind": "piecewise", "cells": [
        {"x_range": [-5.0, math.nan], "kernel": BUMP_ATOMS_MODEL["kernel"]}]},
     "model.kernel: kernel cells must have positive width"),
    # an atom whose r**2 overflows: the message was only Python's OverflowError
    ("kernel", {"kind": "atoms", "atoms": [{"v": -1.0, "r": 1e200, "weight": 1.0}]},
     "model.kernel: the mark moments r**k, k in (0, 1, 2), must be finite"),
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


def test_cli_import_and_models_leave_scipy_unloaded(tmp_path):
    # scipy costs every run most of its start-up: no model needs it, and only
    # the stationarity battery imports scipy.stats, when it runs
    probe = ("import json, sys, hrfl.cli\n"
             "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
             "seen = {'import': scipy()}\n"
             "for name, rec in json.loads(sys.argv[1]).items():\n"
             "    hrfl.cli.build_model(rec)\n"
             "    seen[name] = scipy()\n"
             "print(json.dumps(seen))\n")
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(PROBE_MODELS)], env=child_env(),
                         check=True, capture_output=True, text=True)
    seen = json.loads(out.stdout)
    assert list(seen) == ["import", *PROBE_MODELS]
    for name in seen:
        assert seen[name] == [], name

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
    # finite ends whose width overflows to inf
    ("q_range", [-1e308, 1e308], "config.experiment.q_range: expected finite lo < hi"),
    ("t_range", [-1e308, 1e308], "config.experiment.t_range: expected finite lo < hi"),
    # grids past the node cap, which would otherwise be allocated and evaluated
    ("nq", 1_000_000_000, "config.experiment: grid levels 0 to 0 hold 3000000000 nodes, "
                          "over the cap of 4194304"),
    ("nt", 2_000_000, "config.experiment: grid levels 0 to 0 hold 10000000 nodes"),
    ("refinements", 10, "config.experiment: grid levels 0 to 10 hold 11197101 nodes"),
    ("refinements", 1_000_000_000, "config.experiment: grid levels 0 to 10 hold 11197101 nodes"),
    # a narrow range far from 0, whose linspace spacing falls below the ulp,
    # ended the run with exit 4
    ("q_range", [1e8, 1.000000001e8],
     "config.experiment.q_range: residual grids must be uniformly spaced"),
    ("t_range", [1e300, 1.0000000001e300],
     "config.experiment.t_range: residual grids must be uniformly spaced"),
    # one level has no L2 ratio to check, and the empty ratio list passed
    ("refinements", 0,
     "config error: config.experiment.refinements: expected an integer >= 1, got 0"),
])
def test_bad_ghd_field_is_config_error(tmp_path, capsys, field, value, message):
    cfg = write_config(tmp_path, dict(GHD_EXPERIMENT, **{field: value}),
                       model=BUMP_ATOMS_MODEL)
    out = tmp_path / "runs"
    assert main(["ghd-residual", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))


def test_sample_field_node_cap_admits_its_bound():
    from hrfl.config import ConfigError, validate_config

    def check(nx, nt):
        exp = dict(SAMPLE_FIELD, grid={"x": [0, 1, nx], "t": [0, 1, nt]})
        return validate_config({"schema_version": 1, "model": HOMOGENEOUS_MODEL,
                                "experiment": exp}, "sample-field")

    # 2048 x 2048 nodes are exactly GRID_NODE_CAP; one more t row is over it
    assert check(2048, 2048)["grid"]["x"][2] == 2048
    with pytest.raises(ConfigError, match=r"grid: the x and t axes hold 4196352 nodes"):
        check(2048, 2049)


def test_ghd_node_cap_counts_every_level_and_admits_its_bound():
    from hrfl.config import ConfigError, validate_config
    from hrfl.hydro import GRID_NODE_CAP, RESIDUAL_REFINEMENTS

    def check(**grid):
        exp = {k: v for k, v in dict(GHD_EXPERIMENT, **grid).items() if v is not None}
        return validate_config({"schema_version": 1, "model": BUMP_ATOMS_MODEL,
                                "experiment": exp}, "ghd-residual")

    # two levels of 916^2 + 1831^2 nodes fit under the cap; 917^2 + 1833^2 do not
    assert GRID_NODE_CAP == 2048 * 2048
    assert 916 ** 2 + 1831 ** 2 == 4191617 <= GRID_NODE_CAP
    assert check(nq=916, nt=916, refinements=1)["nq"] == 916
    with pytest.raises(ConfigError, match="levels 0 to 1 hold 4200778 nodes"):
        check(nq=917, nt=917, refinements=1)
    # 513^2 + 1025^2 nodes fit; the default of 2 refinements adds 2049^2
    assert RESIDUAL_REFINEMENTS == 2
    assert check(nq=513, nt=513, refinements=1)["refinements"] == 1
    with pytest.raises(ConfigError, match="levels 0 to 2 hold 5512195 nodes"):
        check(nq=513, nt=513, refinements=None)


SPEED_2_KERNEL = dict(HOMOGENEOUS_MODEL["kernel"],
                      velocity={"kind": "uniform", "lo": -2.0, "hi": 2.0})
# rods on [-5, 5] that leave the core [-6, 6] by t = 100
EMPTY_CORE = {"model": {"rho": {"kind": "piecewise", "edges": [-5, 5], "values": [1.0]},
                        "kernel": HOMOGENEOUS_MODEL["kernel"]}, "t_values": [100]}


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
    ("verify-diffusive", "independence_offsets", [[0, -1]],
     "config.experiment.independence_offsets[0][0]: expected a finite number != 0, got 0"),
    ("verify-diffusive", "independence_offsets", [[1, 0]],
     "config.experiment.independence_offsets[0][1]: expected a finite number != 0, got 0"),
    ("verify-euler-clt", "epsilons", [0.1, 0.02],
     "config.experiment.epsilon: expected one of epsilons [0.1, 0.02], got 0.05"),
    # an integer beyond the float range
    pytest.param("verify-euler-clt", "epsilon", 10 ** 400,
                 "config.experiment.epsilon: expected a number", id="epsilon-401-digits"),
    # a horizon t/epsilon, or a tagged rod's place x + v t/epsilon at it, that
    # overflows: a non-finite SpaceTimePoint ended the run with exit 4
    ("verify-diffusive", "t", 1e307, "config error: config.experiment: the horizon t/epsilon"),
    ("verify-diffusive", "same_velocity", [1e308, 0, 0.5],
     "config error: config.experiment: the horizon t/epsilon"),
    # part two's hat point z + epsilon a that overflows also ended the run with
    # exit 4; a row without a field replaces each field of its value
    pytest.param("verify-diffusive", None,
                 {"frame": [1.5e308, 0], "independence_offsets": [[1e308, 1]], "epsilon": 0.5},
                 "config.experiment: the horizon t/epsilon = 2.0, each tagged rod's",
                 id="diffusive-hat-point-overflow"),
    # a point whose sampling window overflows: the targets' quadrature met it
    # first and ended the run with exit 3
    ("verify-lln", "point", [1e308, 1e308], "config error: config.experiment: the sampling window"),
    ("verify-lln", "mass_point", [1e308, 1e308],
     "config error: config.experiment: the sampling window"),
    ("verify-euler-clt", "points", [[1e308, 1e308]],
     "config error: config.experiment: the sampling window"),
    ("verify-euler-clt", "mass_point", [1.7e308, 1e308],
     "config error: config.experiment: the sampling window"),
    # part two's window overflows: found before part one's replicas, not after
    ("verify-diffusive", "frame", [1e308, 1e308],
     "config error: config.experiment: the sampling window"),
    # a grid of 2e13 nodes ended the run with exit 4 (MemoryError)
    ("sample-field", "grid", {"x": [0, 1, 10 ** 13], "t": [0, 1, 2]},
     "config error: config.experiment.grid: the x and t axes hold 20000000000000 nodes"),
    # a stationarity window half-width W = core + V max|t| + 4 that overflows
    # ended the run with exit 4; a finite W whose window width overflows ran on
    # to a false statistical FAIL (exit 1).  A "model" entry replaces the model.
    pytest.param("stationarity", None,
                 {"model": dict(HOMOGENEOUS_MODEL, kernel=SPEED_2_KERNEL), "t_values": [1.7e308]},
                 "config error: config.experiment: the window half-width",
                 id="stationarity-half-width-overflow"),
    pytest.param("stationarity", None,
                 {"model": {"rho": {"kind": "piecewise", "edges": [-5, 5], "values": [1.0]},
                            "kernel": SPEED_2_KERNEL}, "t_values": [8e307]},
                 "config error: config.experiment: the sampling window",
                 id="stationarity-window-width-overflow"),
    # an empty pooled sample in the core gave NaN p-values: a false pass with
    # expect_reject, a false FAIL without it
    pytest.param("stationarity", None, EMPTY_CORE,
                 "config error: config.experiment: at t = 100 the core [-6, 6] holds no "
                 "evolved gap",
                 id="stationarity-empty-core"),
    pytest.param("stationarity", None, dict(EMPTY_CORE, expect_reject=True),
                 "config error: config.experiment: at t = 100 the core [-6, 6] holds no "
                 "evolved gap",
                 id="stationarity-empty-core-expect-reject"),
    # part two's scale epsilon^2 that overflows or underflows reached the
    # sampler and ended the run with exit 4
    pytest.param("verify-diffusive", None,
                 {"epsilon": 1e308, "independence_offsets": [[1, -1]]},
                 "config error: config.experiment: part two's scale epsilon^2 = inf must be",
                 id="diffusive-epsilon-squared-overflow"),
    pytest.param("verify-diffusive", None,
                 {"model": dict(HOMOGENEOUS_MODEL, rho={"kind": "constant", "value": 1e-300}),
                  "epsilon": 1e-170, "t": 1e-169, "independence_offsets": [[1, -1]]},
                 "config error: config.experiment: part two's scale epsilon^2 = 0.0 must be",
                 id="diffusive-epsilon-squared-underflow"),
])
def test_bad_battery_field_is_config_error(tmp_path, capsys, command, field, value, message):
    fields = dict(value) if field is None else {field: value}
    model = fields.pop("model", None)
    cfg = write_config(tmp_path, dict(FIELD_EXPERIMENTS[command], **fields), model)
    out = tmp_path / "runs"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))


LLN_CONFIG = {"schema_version": 1, "model": HOMOGENEOUS_MODEL,
              "experiment": FIELD_EXPERIMENTS["verify-lln"]}
FLAT_MODEL = {"rho": HOMOGENEOUS_MODEL["rho"],
              "velocity": HOMOGENEOUS_MODEL["kernel"]["velocity"],
              "mark": HOMOGENEOUS_MODEL["kernel"]["mark"]}
OVERFLOW_MARK_MODEL = dict(FLAT_MODEL, mark={"kind": "constant", "value": 1e308})
ATOMS_MODEL = {"rho": HOMOGENEOUS_MODEL["rho"], "v_support": [-2, 2],
               "kernel": {"kind": "atoms", "atoms": [{"v": -0.5, "r": 1.0, "weight": 0.5},
                                                     {"v": 0.5, "r": 1.0, "weight": 0.5}]}}


@pytest.mark.parametrize("cfg,argv,env,message", [
    (dict(LLN_CONFIG, model=dict(HOMOGENEOUS_MODEL,
                                 velocity=HOMOGENEOUS_MODEL["kernel"]["velocity"],
                                 mark=HOMOGENEOUS_MODEL["kernel"]["mark"])), [], {},
     "config error: model: give either kernel or velocity+mark, not both"),
    (dict(LLN_CONFIG, model={"rho": HOMOGENEOUS_MODEL["rho"]}), [], {},
     "config error: model: needs either kernel or velocity+mark"),
    (dict(LLN_CONFIG, model={"rho": HOMOGENEOUS_MODEL["rho"],
                             "kernel": BUMP_ATOMS_MODEL["kernel"], "v_support": [-0.5, 0.5]}),
     [], {},
     "config error: model: discrete kernel has atoms outside v_support"),
    (dict(LLN_CONFIG, schema_version=2), [], {}, "config error: config.schema_version: expected 1"),
    (dict(LLN_CONFIG, threads=-1), [], {},
     "config error: config.threads: expected an integer >= 0, got -1"),
    ([LLN_CONFIG], [], {}, "top level must be an object"),
    (LLN_CONFIG, ["--override", "foo"], {},
     "config error: override 'foo' must look like key.path=value"),
    (LLN_CONFIG, [], {"HRFL_SEED": "abc"}, "config error: HRFL_SEED='abc' is not an integer"),
    # an override value that is no JSON is kept as a string, and a missing
    # record on the key path is created
    (LLN_CONFIG, ["--override", "experiment.kind=lln"], {},
     "config error: config.experiment.kind: unknown experiment kind 'lln'"),
    (LLN_CONFIG, ["--override", "extra.key=1"], {}, "config error: config.extra: unknown key"),
    (LLN_CONFIG, ["--bogus"], {}, "unrecognized arguments: --bogus"),
    # mark laws whose moments overflow, which ended the run with exit 4
    (dict(LLN_CONFIG, model=OVERFLOW_MARK_MODEL), [], {},
     "config error: model.mark: the mark moments r**k, k in (0, 1, 2), must be finite"),
    (dict(LLN_CONFIG, model=dict(OVERFLOW_MARK_MODEL, mark={
        "kind": "uniform", "lo": -1e308, "hi": 1e308})), [], {},
     "config error: model.mark: the mark moments r**k, k in (0, 1, 2), must be finite"),
    # a negative seed ended the run with exit 4 (SeedSequence's ValueError), and
    # a boolean version passed as version 1
    (LLN_CONFIG, ["--seed", "-1"], {}, "config error: --seed: expected an integer >= 0, got -1"),
    (LLN_CONFIG, [], {"HRFL_SEED": "-3"},
     "config error: HRFL_SEED: expected an integer >= 0, got -3"),
    (dict(LLN_CONFIG, schema_version=True), [], {},
     "config error: config.schema_version: expected 1, got True"),
    # the model parts' own rejections
    (dict(LLN_CONFIG, model=dict(FLAT_MODEL, rho={"kind": "constant", "value": -1})),
     [], {}, "config error: model.rho: constant density must be finite and >= 0"),
    (dict(LLN_CONFIG, model=dict(FLAT_MODEL, rho={
        "kind": "piecewise", "edges": [-1, 1], "values": [-0.5]})), [], {},
     "config error: model.rho: values must be finite and >= 0"),
    (dict(LLN_CONFIG, model=dict(ATOMS_MODEL, kernel={"kind": "atoms", "atoms": [
        {"v": -0.5, "r": 1.0, "weight": 0}, {"v": 0.5, "r": 1.0, "weight": 1.0}]})), [], {},
     "config error: model.kernel: atom weights must be positive and finite"),
    (dict(LLN_CONFIG, model=dict(ATOMS_MODEL, kernel={"kind": "atoms", "atoms": [
        {"v": -0.5, "r": 1.0, "weight": -0.5}, {"v": 0.5, "r": 1.0, "weight": 1.5}]})), [], {},
     "config error: model.kernel: atom weights must be positive and finite"),
    (dict(LLN_CONFIG, model=dict(FLAT_MODEL, v_support=[2, 3])), [], {},
     "config error: model: velocity support truncation leaves no mass"),
    (dict(LLN_CONFIG, model=dict(FLAT_MODEL, mark={"kind": "constant", "value": math.inf})),
     [], {},
     "config error: model.mark: mark must be finite"),
], ids=["kernel-and-flat", "no-kernel", "atoms-outside-v_support", "schema_version",
        "negative-config-threads", "top-level-list", "override-without-value",
        "non-integer-seed-env", "override-raw-string", "override-new-record", "unknown-flag",
        "constant-mark-1e308", "uniform-mark-1e308", "negative-seed", "negative-seed-env",
        "boolean-schema_version", "negative-constant-rho", "negative-piecewise-rho",
        "zero-atom-weight", "negative-atom-weight", "v_support-outside-the-law", "infinite-mark"])
def test_bad_run_input_is_config_error(tmp_path, capsys, monkeypatch, cfg, argv, env, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "runs"
    assert main(["verify-lln", "--config", str(path), "--out", str(out), *argv]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))


def test_atoms_within_a_covering_v_support_report_their_hull(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(LLN_CONFIG, model=ATOMS_MODEL)))
    out = tmp_path / "runs"
    assert main(["verify-lln", "--config", str(path), "--out", str(out)]) in (0, 1)
    assert report_of(out)["model"]["v_support"] == [-0.5, 0.5]


def test_config_threads_leaves_the_report_unchanged(tmp_path):
    # the config's threads is validated and read by nothing, so the run keeps every bit
    blobs = []
    for i, top in enumerate(({}, {"threads": 4})):
        cfg = write_config(tmp_path, FIELD_EXPERIMENTS["verify-lln"], name=f"cfg{i}.json", **top)
        out = tmp_path / f"runs{i}"
        assert main(["verify-lln", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) in (0, 1)
        blobs.append(next(out.glob("*/report.json")).read_bytes())
    assert blobs[0] == blobs[1]


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
    with pytest.warns(UserWarning, match="excluding"):
        assert main(["ghd-residual", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config.experiment.q_range: " in capsys.readouterr().err
    # with more nodes some columns stay, and the vanishing residual is a
    # complete strict-JSON report
    cfg = write_config(tmp_path, dict(GHD_EXPERIMENT, q_range=[-1e300, 1e300], nq=41),
                       model=BUMP_ATOMS_MODEL, name="wide.json")
    with pytest.warns(UserWarning, match="excluding"):
        code = main(["ghd-residual", "--config", str(cfg), "--out", str(out)])
    rep = _strict_json(next(out.glob("*/report.json")))
    assert code == (0 if rep["verdict"] == "pass" else 1)


def test_ghd_breakdown_is_a_numerical_error(tmp_path, capsys):
    # at rho = 1e17 sigma~ rounds to 1 and V_eff divides by zero: exit 3,
    # not a FAIL built on NaN norms
    model = dict(BUMP_ATOMS_MODEL, rho={"kind": "constant", "value": 1e17})
    cfg = write_config(tmp_path, GHD_EXPERIMENT, model=model)
    out = tmp_path / "runs"
    assert main(["ghd-residual", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical error: grid level 0: divide by zero encountered in divide "
        "in t rows 0..2 (t = 0.05..0.45) of the 5 x 3 (q x t) grid")
    assert not list(out.glob("*/report.json"))


def test_ghd_grid_without_a_kept_column_is_config_error(tmp_path, capsys):
    # the margins around the jump images at x = 0 +- t cover the whole narrow
    # q range, so no level keeps a column and the residual checks nothing
    model = {"rho": {"kind": "piecewise", "edges": [-3.0, 0.0, 3.0], "values": [0.3, 0.6]},
             "kernel": {"kind": "atoms", "atoms": [{"v": -1.0, "r": 0.4, "weight": 0.5},
                                                   {"v": 1.0, "r": 0.6, "weight": 0.5}]}}
    cfg = write_config(tmp_path, {"kind": "ghd-residual", "q_range": [-0.2, 0.2],
                                  "t_range": [0.05, 0.15], "nq": 5, "nt": 3}, model=model)
    out = tmp_path / "runs"
    with pytest.warns(UserWarning, match="excluding"):
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


def test_a_failed_report_write_exits_4_with_one_line(tmp_path, capsys):
    # report.json was written after the run's try, so a failed write ended in
    # a traceback and exit 1, the code of a statistical FAIL
    cfg = write_config(tmp_path, FIELD_EXPERIMENTS["verify-lln"])
    out = tmp_path / "runs"
    (out / f"{config_hash(json.loads(cfg.read_text()))}-s0" / "report.json").mkdir(parents=True)
    assert main(["verify-lln", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert re.fullmatch(r"internal error: IsADirectoryError: [^\n]*report\.json'\n", captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("experiment,model,env,code,stderr", [
    (NO_LINE_EULER, None, {}, 1, ""),
    (NO_LINE_EULER, None, {"HRFL_SEED": "-1"}, 2,
     re.escape("config error: HRFL_SEED: expected an integer >= 0, got -1\n")),
    (GHD_EXPERIMENT, dict(BUMP_ATOMS_MODEL, rho={"kind": "constant", "value": 1e17}), {}, 3,
     "numerical error: grid level 0: [^\n]*\n"),
], ids=["euler-empty-fail", "negative-seed-env", "ghd-breakdown"])
def test_module_entry_point_exit_codes(tmp_path, experiment, model, env, code, stderr):
    # python -m hrfl.cli turns main()'s return value into the exit status, with
    # no warning filter of the test run and no traceback
    cfg = write_config(tmp_path, experiment, model)
    proc = subprocess.run([sys.executable, "-m", "hrfl.cli", experiment["kind"], "--config",
                           str(cfg), "--out", str(tmp_path / "runs")],
                          env=child_env(**env), capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert re.fullmatch(stderr, proc.stderr), proc.stderr


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
    "ghd-residual": GHD_EXPERIMENT,
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


def readme_config_fields(text: str) -> set:
    """The (kind, field) pairs of the table rows under a ``| kind | field | ...`` header.

    Cells are split on unescaped pipes only, so ``\\|`` stays inside its cell;
    the table ends at the first line that is not a table row.
    """
    fields, inside = set(), False
    for line in text.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if cells[:2] == ["kind", "field"]:
            inside = True
        elif inside and not line.startswith("|"):
            inside = False
        elif inside and cells[0].startswith("`"):
            fields |= {(cells[0].strip("`"), name.strip("`")) for name in cells[1].split(", ")}
    return fields


def test_readme_field_parser_reads_only_the_config_table_and_keeps_escaped_pipes():
    # a module row with two escaped pipes splits into four cells on a bare
    # pipe, as a config row does; a config row with one splits into five
    text = "\n".join([
        "| module | contents |",
        "|--------|----------|",
        "| `intensity` | `kappa(dv \\| x)` and `p(v \\| x)` |",
        "",
        "| kind | field | type / range | required or default |",
        "|------|-------|--------------|---------------------|",
        "| `rho: piecewise` | `values` | one per cell `[lo \\| hi)` | required |",
        "| `mark: uniform` | `lo`, `hi` | finite numbers | required |",
        "",
        "| `after` | `the table` | a | b |",
    ])
    assert readme_config_fields(text) == {("rho: piecewise", "values"),
                                          ("mark: uniform", "lo"), ("mark: uniform", "hi")}


def test_readme_field_table_matches_the_schema():
    from hrfl.config import _MODEL, SCHEMA

    readme = Path(__file__).resolve().parent.parent / "README.md"
    documented = readme_config_fields(readme.read_text())
    coded = {("model", name) for name in _MODEL}
    for table, kinds in SCHEMA.items():
        for kind, (_, fields) in kinds.items():
            label = kind if table == "experiment" else f"{table}: {kind}"
            coded |= {(label, name) for name in fields}
    assert documented == coded
