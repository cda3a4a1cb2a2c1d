"""Command-line surface: exit codes, artifacts, and reproducibility."""

import json
import os

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from svvlab import cli
from svvlab.cli import main
from svvlab.io import read_frame

COMPOSITE_LAW = {
    "kind": "composite", "gamma1": 2.0, "gamma2": 1.6,
    "kappa1": 0.125, "kappa2": 0.15, "rho_lo": 0.9, "rho_hi": 1.4,
}

BASE = {
    "law": {"kind": "polytropic", "gamma": 2.0},
    "grid": {"L": 5.0, "n": 64},
    "solver": {"epsilon": 0.05, "T": 0.1, "dt": 1e-3, "n_saves": 5},
    "initial": {"kind": "bump", "amplitude": 0.3, "width": 0.5},
    "noise": {"kind": "single_mode", "amplitude": 0.3, "c1": 3.0, "alpha1": 0.25},
    "seed": 7,
}


@pytest.fixture
def runner():
    return CliRunner()


def write_cfg(tmp_path, overrides=None, name="run.yaml"):
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in BASE.items()}
    for key, val in (overrides or {}).items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    p = tmp_path / name
    p.write_text(yaml.safe_dump(cfg))
    return str(p)


class TestSimulate:
    def test_writes_frames_and_diagnostics(self, runner, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["simulate", "--config", cfg, "--output-dir", out])
        assert r.exit_code == 0, r.output
        assert os.path.exists(os.path.join(out, "config.yaml"))
        assert os.path.exists(os.path.join(out, "version.json"))
        assert os.path.exists(os.path.join(out, "s000_manifest.json"))
        assert os.path.exists(os.path.join(out, "s000_diagnostics.csv"))
        grid, state = read_frame(os.path.join(out, "s000_0000.svv"))
        assert grid.n == 64
        assert state.t == 0.0

    def test_byte_identical_reruns(self, runner, tmp_path):
        cfg = write_cfg(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            r = runner.invoke(main, ["simulate", "--config", cfg, "--output-dir", out])
            assert r.exit_code == 0, r.output
            outs.append(out)
        for fname in ("s000_diagnostics.csv", "s000_0005.svv"):
            with open(os.path.join(outs[0], fname), "rb") as f1, open(
                os.path.join(outs[1], fname), "rb"
            ) as f2:
                assert f1.read() == f2.read()

    def test_seed_override_changes_output(self, runner, tmp_path):
        cfg = write_cfg(tmp_path)
        frames = []
        for seed in ("7", "8"):
            out = str(tmp_path / f"seed{seed}")
            r = runner.invoke(
                main,
                ["simulate", "--config", cfg, "--seed", seed, "--output-dir", out],
            )
            assert r.exit_code == 0, r.output
            _, state = read_frame(os.path.join(out, "s000_0005.svv"))
            frames.append(state.rho)
        assert not np.array_equal(frames[0], frames[1])

    def test_multiple_samples(self, runner, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        r = runner.invoke(
            main,
            ["simulate", "--config", cfg, "--samples", "3", "--output-dir", out],
        )
        assert r.exit_code == 0, r.output
        for sid in range(3):
            assert os.path.exists(os.path.join(out, f"s{sid:03d}_manifest.json"))

    def test_bad_config_exits_2(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"grid": {"n": 4}})
        r = runner.invoke(main, ["simulate", "--config", cfg])
        assert r.exit_code == 2
        assert "grid" in r.output

    def test_runtime_failure_exits_1(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "grid": {"L": 5.0, "n": 512},
                "solver": {"epsilon": 0.05, "T": 0.1, "dt": 0.05, "n_saves": 2},
                "noise": {"kind": "none"},
            },
        )
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["simulate", "--config", cfg, "--output-dir", out])
        assert r.exit_code == 1
        with open(os.path.join(out, "error.json")) as fh:
            payload = json.load(fh)
        assert "error" in payload

    def test_error_json_names_the_failing_sample(self, runner, tmp_path):
        # strong noise against a high density floor: of samples 0-5, only
        # sample 4 falls below the floor
        cfg = write_cfg(
            tmp_path,
            {
                "solver": {"density_floor": 0.99},
                "noise": {"kind": "single_mode", "amplitude": 3.0, "c1": 3.0,
                          "alpha1": 0.25},
            },
        )
        out = str(tmp_path / "out")
        r = runner.invoke(
            main, ["simulate", "--config", cfg, "--samples", "4", "--output-dir", out]
        )
        assert r.exit_code == 0, r.output
        r = runner.invoke(
            main, ["simulate", "--config", cfg, "--samples", "6", "--output-dir", out]
        )
        assert r.exit_code == 1
        with open(os.path.join(out, "error.json")) as fh:
            payload = json.load(fh)
        assert payload["error"] == "PositivityLoss"
        assert payload["sample"] == 4
        assert float(payload["rho_min"]) < 0.99

    def test_error_json_gives_the_time_of_a_cfl_failure(self, runner, tmp_path):
        # dt = 0.05 starts below the stability bound; strong noise speeds
        # the flow up until the third step breaks it
        cfg = write_cfg(
            tmp_path,
            {
                "solver": {"epsilon": 0.05, "T": 1.0, "dt": 0.05, "n_saves": 5},
                "noise": {"kind": "single_mode", "amplitude": 3.0, "c1": 3.0,
                          "alpha1": 0.25},
            },
        )
        out = str(tmp_path / "out")
        r = runner.invoke(
            main, ["simulate", "--config", cfg, "--samples", "4", "--output-dir", out]
        )
        assert r.exit_code == 1
        with open(os.path.join(out, "error.json")) as fh:
            payload = json.load(fh)
        assert payload["error"] == "NumericalError"
        assert "stability bound" in payload["detail"]
        assert payload["sample"] == 0
        assert float(payload["t"]) == pytest.approx(0.1)

    def test_forcing_vanishes_outside_gamma_h(self, runner, tmp_path, monkeypatch):
        # H = 1.2 * 0.05^(-1/4) = 2.54, and a fast bump carries w2 = u + K
        # above it, so part of the state leaves Gamma_H
        saved = []
        save = cli.save_trajectory

        def keep(traj, *args, **kwargs):
            saved.append(traj)
            return save(traj, *args, **kwargs)

        monkeypatch.setattr(cli, "save_trajectory", keep)
        cfg = write_cfg(
            tmp_path,
            {
                "initial": {"kind": "bump", "amplitude": 0.3, "width": 0.5,
                            "m_amplitude": 3.0},
                "solver": {"record_steps": True, "record_forcing": True},
                "noise": {"c1": 1.2},
            },
        )
        r = runner.invoke(
            main, ["simulate", "--config", cfg, "--output-dir", str(tmp_path / "out")]
        )
        assert r.exit_code == 0, r.output
        (traj,) = saved
        H = 1.2 * 0.05**-0.25
        assert traj.H == pytest.approx(H, rel=1e-15)
        outside = inside_forced = 0
        for (rho, m), forcing in zip(traj.step_states, traj.forcing_increments):
            u = m / rho
            K = np.sqrt(rho)  # scaled gamma = 2 law
            out = (u + K >= H) | (u - K <= -H)
            assert np.all(forcing[out] == 0.0)
            outside += int(out.sum())
            inside_forced += int(np.count_nonzero(forcing[~out]))
        assert outside > 0 and inside_forced > 0


class TestSweep:
    def test_excess_uses_member_h(self, runner, tmp_path, monkeypatch):
        seen = []
        check = cli.invariant_region_check

        def record(traj, law, H):
            seen.append(H)
            return check(traj, law, H)

        monkeypatch.setattr(cli, "invariant_region_check", record)
        cfg = write_cfg(tmp_path, {"sweep": {"epsilons": [0.05, 0.02], "cells": [2, 2]}})
        r = runner.invoke(
            main, ["sweep-epsilon", "--config", cfg, "--output-dir", str(tmp_path / "out")]
        )
        assert r.exit_code == 0, r.output
        assert seen == [pytest.approx(3.0 * eps**-0.25, rel=1e-15) for eps in (0.05, 0.02)]

    def test_composite_law_exits_2(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"law": COMPOSITE_LAW, "sweep": {"epsilons": [0.05, 0.02], "cells": [2, 2]}},
        )
        out = tmp_path / "out"
        r = runner.invoke(main, ["sweep-epsilon", "--config", cfg, "--output-dir", str(out)])
        assert r.exit_code == 2
        assert "polytropic" in r.output
        assert not out.exists()

    def test_summary_and_concentration(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "sweep": {"epsilons": [0.05, 0.02], "cells": [2, 2]},
                "diagnostics": {"window": [-2.0, 2.0], "psis": ["energy", "bump:0,4"]},
            },
        )
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["sweep-epsilon", "--config", cfg, "--output-dir", out])
        assert r.exit_code == 0, r.output
        with open(os.path.join(out, "sweep_summary.csv")) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0].startswith("epsilon,")
        assert len(lines) == 3
        eps = [float(l.split(",")[0]) for l in lines[1:]]
        assert eps == sorted(eps, reverse=True)
        with open(os.path.join(out, "concentration.json")) as fh:
            conc = json.load(fh)
        assert len(conc["epsilon"]) == 2

    def test_missing_epsilons_exits_2(self, runner, tmp_path):
        cfg = write_cfg(tmp_path)
        r = runner.invoke(main, ["sweep-epsilon", "--config", cfg])
        assert r.exit_code == 2


class TestEntropyTable:
    def test_energy_table_matches_mechanical(self, runner, tmp_path):
        out = str(tmp_path / "out")
        r = runner.invoke(
            main,
            ["entropy-table", "--gamma", "2.0", "--psi", "energy",
             "--rho-range", "0.5", "2.0", "4",
             "--u-range", "-1.0", "1.0", "3",
             "--output-dir", out],
        )
        assert r.exit_code == 0, r.output
        data = np.genfromtxt(
            os.path.join(out, "entropy_table.csv"), delimiter=",", names=True
        )
        # psi = s^2/2 reproduces mechanical energy rho u^2 / 2 + rho e(rho)
        rho, u, eta = data["rho"], data["u"], data["eta"]
        e = 0.125 * rho  # internal energy of the scaled gamma = 2 law
        expect = 0.5 * rho * u**2 + rho * e
        assert np.max(np.abs(eta - expect)) < 1e-8

    def test_bad_gamma_exits_2(self, runner, tmp_path):
        r = runner.invoke(
            main, ["entropy-table", "--gamma", "0.9", "--output-dir", str(tmp_path)]
        )
        assert r.exit_code == 2

    def test_bad_psi_exits_2(self, runner, tmp_path):
        r = runner.invoke(
            main,
            ["entropy-table", "--psi", "mystery", "--output-dir", str(tmp_path)],
        )
        assert r.exit_code == 2


class TestYoungMeasure:
    def test_cells_csv(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "sweep": {"cells": [2, 3]},
                "diagnostics": {"window": [-2.0, 2.0], "psis": ["energy", "bump:0,4"]},
            },
        )
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["young-measure", "--config", cfg, "--output-dir", out])
        assert r.exit_code == 0, r.output
        with open(os.path.join(out, "young_cells.csv")) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "it,ix,epsilon,tartar_residual,cell_spread"
        assert len(lines) == 1 + 2 * 3

    def test_composite_law_exits_2(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"law": COMPOSITE_LAW})
        out = tmp_path / "out"
        r = runner.invoke(main, ["young-measure", "--config", cfg, "--output-dir", str(out)])
        assert r.exit_code == 2
        assert "polytropic" in r.output
        assert not out.exists()


class TestValidate:
    def test_default_config_passes(self, runner, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["validate", "--config", cfg, "--output-dir", out])
        assert r.exit_code == 0, r.output
        with open(os.path.join(out, "validate.json")) as fh:
            payload = json.load(fh)
        assert set(payload.values()) == {"pass"}
        assert "entropy_vs_mechanical" in payload
        assert "goursat_cross_check" in payload

    def test_composite_law_skips_entropy_check(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"law": COMPOSITE_LAW})
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["validate", "--config", cfg, "--output-dir", out])
        assert r.exit_code == 0, r.output
        with open(os.path.join(out, "validate.json")) as fh:
            payload = json.load(fh)
        assert payload == {
            "pressure_bounds": "pass",
            "entropy_vs_mechanical": "skip",
            "noise_growth": "pass",
        }

    def test_empty_config_exits_2(self, runner, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        r = runner.invoke(main, ["validate", "--config", str(p)])
        assert r.exit_code == 2

    def test_inverted_composite_window_exits_2(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "law": {
                    "kind": "composite", "gamma1": 2.2, "gamma2": 1.6,
                    "kappa1": 0.15, "kappa2": 0.2, "rho_lo": 2.5, "rho_hi": 1.0,
                },
            },
        )
        r = runner.invoke(main, ["validate", "--config", cfg])
        assert r.exit_code == 2


class TestOptions:
    @pytest.mark.parametrize("command", ["sweep-epsilon", "young-measure", "validate"])
    def test_samples_option_rejected(self, runner, tmp_path, command):
        # only simulate runs an ensemble
        cfg = write_cfg(tmp_path, {"sweep": {"epsilons": [0.05, 0.02], "cells": [2, 2]}})
        out = tmp_path / "out"
        r = runner.invoke(
            main, [command, "--config", cfg, "--samples", "3", "--output-dir", str(out)]
        )
        assert r.exit_code == 2
        assert "--samples" in r.output
        assert not out.exists()
