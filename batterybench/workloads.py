"""The benchmark workloads: hrfl configs, subcommands and work units.

Each workload is one ``hrfl`` subcommand on a fixed config.  The workload
seed is passed to the program as ``--seed``; it selects the Poisson samples
of the batteries and of ``rods-events`` and leaves the deterministic
``ghd-grid`` computation unchanged.  BENCHMARK.json lists three of them;
``diffusive-horizon`` runs by name only (see README.md, "Run length").
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_MODEL = {
    "rho": {"kind": "constant", "value": 1.0},
    "velocity": {"kind": "uniform", "lo": -1.0, "hi": 1.0},
    "mark": {"kind": "constant", "value": 1.0},
}

GAUSSIAN_MODEL = {
    "rho": {"kind": "constant", "value": 1.0},
    "velocity": {"kind": "gaussian", "mean": 0.0, "sd": 1.0},
    "mark": {"kind": "constant", "value": 1.0},
    "v_support": [-3.0, 3.0],
}

BUMP_ATOMS_MODEL = {
    "rho": {"kind": "bump", "center": 0.0, "width": 2.0, "height": 0.5,
            "power": 4},
    "kernel": {"kind": "atoms", "atoms": [
        {"v": -1.0, "r": 0.4, "weight": 0.5},
        {"v": 1.0, "r": 0.6, "weight": 0.5},
    ]},
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int
    model: dict
    experiment: dict
    outputs: tuple[str, ...]

    def config(self) -> dict:
        return {"schema_version": 1, "model": self.model,
                "experiment": self.experiment}

    def static_work(self) -> int | None:
        """Work units known from the config alone (None: they depend on the sample)."""
        exp = self.experiment
        if self.command == "verify-euler-clt":
            return exp["replicas"] * len(exp.get("epsilons", [exp["epsilon"]]))
        if self.command == "verify-diffusive":
            return 2 * exp["replicas"]          # part one and part two
        if self.command == "ghd-residual":
            return sum(((exp["nq"] - 1) * 2 ** k + 1) * ((exp["nt"] - 1) * 2 ** k + 1)
                       for k in range(exp["refinements"] + 1))
        return None                             # rods-events: collisions


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "euler-gauss", "verify-euler-clt", 2, GAUSSIAN_MODEL,
            {"kind": "verify-euler-clt", "epsilon": 1e-2, "replicas": 800,
             "points": [[0, 1], [0, 2], [1, 0], [2, 0]],
             "quasiparticle": [0.5, 0.5, 1.0], "mass_point": [1.0, 0.5]},
            ("report.json",)),
        Workload(
            "diffusive-horizon", "verify-diffusive", 1, REFERENCE_MODEL,
            {"kind": "verify-diffusive", "epsilon": 1e-2, "replicas": 400,
             "t": 1.0, "frame": [0.3, 0.2]},
            ("report.json",)),
        Workload(
            "ghd-grid", "ghd-residual", 1, BUMP_ATOMS_MODEL,
            {"kind": "ghd-residual", "q_range": [-0.8, 0.8],
             "t_range": [0.05, 0.45], "nq": 17, "nt": 9, "refinements": 2},
            ("report.json", "residual.csv")),
        Workload(
            "rods-events", "hardrod-evolve", 1, REFERENCE_MODEL,
            {"kind": "hardrod-evolve", "engine": "events", "epsilon": 0.05,
             "region": {"x": [0, 60], "t": [0, 12]}, "times": [12]},
            ("report.json", "trajectories.csv")),
    )
}
