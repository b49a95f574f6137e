import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_gaussian_without_support_is_config_error(tmp_path, capsys):
    model = {"rho": {"kind": "constant", "value": 1.0},
             "kernel": {"kind": "product",
                        "velocity": {"kind": "gaussian", "mean": 0.0, "sd": 1.0},
                        "mark": {"kind": "constant", "value": 1.0}}}
    cfg = write_config(tmp_path, {"kind": "verify-lln", "epsilons": [0.1],
                                  "replicas": 5}, model=model)
    assert main(["verify-lln", "--config", str(cfg)]) == 2
    assert "v_support" in capsys.readouterr().err


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


def test_negative_marks_rejected_for_hardrod(tmp_path, capsys):
    model = {"rho": {"kind": "constant", "value": 1.0},
             "kernel": {"kind": "product",
                        "velocity": {"kind": "uniform", "lo": -1, "hi": 1},
                        "mark": {"kind": "constant", "value": -0.5}}}
    cfg = write_config(tmp_path, {"kind": "hardrod-evolve", "engine": "events",
                                  "epsilon": 1.0,
                                  "region": {"x": [0, 5], "t": [0, 1]},
                                  "times": [0.5]}, model=model)
    assert main(["hardrod-evolve", "--config", str(cfg)]) == 2
    assert "nonnegative" in capsys.readouterr().err


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
])
def test_bad_bump_field_is_config_error(tmp_path, capsys, field, value, message):
    model = json.loads(json.dumps(BUMP_ATOMS_MODEL))
    model["rho"][field] = value
    cfg = write_config(tmp_path, {"kind": "ghd-residual", "q_range": [-0.8, 0.8],
                                  "t_range": [0.05, 0.45], "nq": 3, "nt": 3},
                       model=model)
    out = tmp_path / "runs"
    assert main(["ghd-residual", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats costs every run about half a second of start-up; only the
    # stationarity battery needs it, and imports it when it runs
    src = str(Path(hrfl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, hrfl.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"

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


def test_ghd_on_a_huge_range_writes_a_strict_report(tmp_path):
    # nodes 1e299 apart miss the bump entirely: the residual vanishes
    cfg = write_config(tmp_path, dict(GHD_EXPERIMENT, q_range=[-1e300, 1e300]),
                       model=BUMP_ATOMS_MODEL)
    out = tmp_path / "runs"
    code = main(["ghd-residual", "--config", str(cfg), "--out", str(out)])
    rep = _strict_json(next(out.glob("*/report.json")))
    assert code == (0 if rep["verdict"] == "pass" else 1)


def test_ghd_residual_of_a_continuous_kernel_is_config_error(tmp_path, capsys):
    model = dict(BUMP_ATOMS_MODEL, kernel=HOMOGENEOUS_MODEL["kernel"])
    cfg = write_config(tmp_path, GHD_EXPERIMENT, model=model)
    out = tmp_path / "runs"
    assert main(["ghd-residual", "--config", str(cfg), "--out", str(out)]) == 2
    assert "model.kernel: " in capsys.readouterr().err
    assert not list(out.glob("*/report.json"))
