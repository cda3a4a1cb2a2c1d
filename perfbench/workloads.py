"""The four benchmark workloads: their run files, jobs and work counts.

Each workload is a closed loop with one client: the benchmark starts one
batch job, waits for it to end, checks its outputs, and starts the next.
A job is one child process.  Run files are derived from the README run
file and carry the workload seed; the program sees nothing else.
"""

import copy
import os
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))

# The example run file of the top-level README.
README_RUN = {
    "law": {"kind": "polytropic", "gamma": 2.0},
    "grid": {"L": 5.0, "n": 256},
    "solver": {"epsilon": 0.05, "T": 0.5, "dt": 1.0e-3, "n_saves": 10},
    "initial": {"kind": "bump", "amplitude": 0.3, "width": 0.5},
    "noise": {"kind": "single_mode", "amplitude": 0.3, "c1": 3.0, "alpha1": 0.25},
    "seed": 7,
    "output_dir": "out",
    "sweep": {"epsilons": [0.05, 0.02, 0.01], "cells": [4, 4]},
    "diagnostics": {"window": [-2.0, 2.0], "psis": ["energy", "bump:0,4"]},
}

# The seed whose outputs are pinned in reference.json.
REFERENCE_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulate", "sweep" or "verify": which output check applies
    overrides: dict  # block -> keys merged into it, or None to drop it
    samples: int = 1  # samples per job (simulate and verify)
    # layers (traced.LAYERS keys) a traced job must call: those whose
    # metrics the README maps to this workload, plus config and solver
    layers: tuple = ()

    def run_file(self, seed: int) -> dict:
        run = copy.deepcopy(README_RUN)
        for block, values in self.overrides.items():
            if values is None:
                run.pop(block, None)
            elif "kind" in values:  # a new kind replaces the whole block
                run[block] = dict(values)
            else:
                run[block] = {**run[block], **values}
        run["seed"] = int(seed)
        return run

    def members(self, run: dict) -> int:
        return len(run["sweep"]["epsilons"]) if self.kind == "sweep" else 1

    def sample_steps(self, run: dict) -> int:
        """Samples x sweep members x steps done by one job."""
        s = run["solver"]
        steps = int(round(s["T"] / s["dt"]))
        return self.samples * self.members(run) * steps

    def job(self, config_path: str, out_dir: str) -> tuple:
        """(launcher target, arguments) of one job writing under out_dir.

        The verify job writes only its report, next to out_dir, which
        stays empty because the program writes nothing there."""
        if self.kind == "verify":
            return "verify", [
                "--config", config_path, "--samples", str(self.samples),
                "--out", verify_report(out_dir),
            ]
        if self.kind == "sweep":
            return "cli", ["sweep-epsilon", "--config", config_path, "--output-dir", out_dir]
        return "cli", [
            "simulate", "--config", config_path,
            "--samples", str(self.samples), "--output-dir", out_dir,
        ]


def verify_report(out_dir: str) -> str:
    return out_dir + "-verify.json"


def untraced_command(target: str, args: list) -> list:
    if target == "cli":
        return [sys.executable, "-m", "svvlab.cli", *args]
    return [sys.executable, os.path.join(HERE, "verify_job.py"), *args]


def traced_command(target: str, args: list, spans_path: str) -> list:
    return [sys.executable, os.path.join(HERE, "traced.py"), spans_path, target, *args]


COMMON = ("config.load_config", "solver.simulate", "solver.Stepper.step")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ensemble",
            "simulate",
            {},
            samples=12,
            layers=COMMON + (
                "noise.sample_increments", "noise.apply_forcing",
                "io.save_trajectory", "io.diagnostics_csv", "io.write_csv",
            ),
        ),
        Workload(
            "sweep",
            "sweep",
            {
                "solver": {"n_saves": 50},
                "sweep": {
                    "epsilons": [0.08, 0.05, 0.035, 0.025, 0.018, 0.014, 0.012, 0.01],
                    "cells": [16, 16],
                },
            },
            layers=COMMON + (
                "young.build_measure", "young.tartar_residual", "young.concentration_metric",
                "diagnostics.compact_moments", "diagnostics.invariant_region_check",
                "entropy.riemann_invariants",
            ),
        ),
        Workload(
            "verify",
            "verify",
            {"solver": {"n_saves": 5, "record_steps": True, "record_forcing": True}},
            samples=4,
            layers=COMMON + (
                "entropy.entropy_pair", "diagnostics.entropy_inequality_residual",
                "diagnostics.energy_balance_check", "noise.forcing_quadratic",
            ),
        ),
        Workload(
            "composite",
            "simulate",
            {
                "law": {
                    "kind": "composite", "gamma1": 2.0, "gamma2": 1.6,
                    "kappa1": 0.125, "kappa2": 0.15, "rho_lo": 0.9, "rho_hi": 1.4,
                },
                "initial": {"amplitude": 0.6},
                "noise": None,
                "sweep": None,
            },
            layers=COMMON + (
                "pressure.internal_energy", "pressure.relative_internal_energy",
                "pressure.pressure", "pressure.dpressure", "io.save_trajectory",
            ),
        ),
    )
}
