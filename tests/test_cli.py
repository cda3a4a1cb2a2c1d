"""Command-line surface: exit codes, artifacts, and reproducibility."""

import json
import os
import subprocess
import sys

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

    def test_unknown_key_exits_2(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"solver": {"n_save": 5}, "sweep": {"samples": 5}})
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["simulate", "--config", cfg, "--output-dir", out])
        assert r.exit_code == 2
        assert "unknown key solver.n_save" in r.output
        assert "unknown key sweep.samples" in r.output
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key", ["amplitude", "width"])
    def test_nan_noise_exits_2(self, runner, tmp_path, key):
        cfg = write_cfg(tmp_path, {"noise": {key: float("nan")}})
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["simulate", "--config", cfg, "--output-dir", out])
        assert r.exit_code == 2, r.output
        assert not os.path.exists(out)

    def test_nonpositive_c0_exits_2(self, runner, tmp_path):
        # the dip to -0.5 passed c0 = -10, and the run ended in an uncaught
        # DomainError traceback
        initial = {"kind": "bump", "amplitude": -1.5, "width": 0.5, "c0": -10}
        cfg = write_cfg(tmp_path, {"initial": initial})
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["simulate", "--config", cfg, "--output-dir", out])
        assert r.exit_code == 2, r.output
        assert "c0" in r.output
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"initial": {"amplitude": "abc"}}, "initial.amplitude"),
            ({"samples": "abc"}, "samples"),
            ({"seed": "x"}, "seed"),
            ({"initial": {"kind": "riemann_smoothed", "left": 1.0}}, "initial.left"),
            ({"diagnostics": {"window": 3}}, "diagnostics.window"),
            ({"sweep": {"cells": "abc"}}, "sweep.cells"),
            ({"sweep": {"epsilons": 0.05}}, "sweep.epsilons"),
            # counts that were truncated and ran: 2 samples, a 64-cell grid
            ({"samples": 2.5}, "samples"),
            ({"grid": {"n": 64.7}}, "grid.n"),
            ({"solver": {"n_saves": 10.9}}, "solver.n_saves"),
            ({"sweep": {"cells": [4.5, 4]}}, "sweep.cells"),
            ({"noise": {"kind": "mode_family", "n_modes": 2.5}}, "noise.n_modes"),
            ({"seed": 7.9}, "seed"),
            # values that ended in a TypeError traceback
            ({"solver": {"T": None}}, "solver.T"),
            ({"grid": {"n": None}}, "grid.n"),
            ({"noise": {"amplitude": None}}, "noise.amplitude"),
            ({"law": {"gamma": [2]}}, "law.gamma"),
            ({"solver": {"epsilon": {"a": 1}}}, "solver.epsilon"),
            ({"output_dir": 5}, "output_dir"),
            # values that ran with another meaning: recording on, six
            # one-character generators, compact_x support, the scaled kappa
            ({"solver": {"record_steps": "false"}}, "solver.record_steps"),
            ({"diagnostics": {"psis": "energy"}}, "diagnostics.psis"),
            ({"noise": {"kind": "mode_family", "support": "bogus"}}, "noise.support"),
            ({"law": {"kappa": None}}, "law.kappa"),
        ],
    )
    def test_unreadable_value_exits_2(self, runner, tmp_path, overrides, key):
        cfg = write_cfg(tmp_path, overrides)
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["simulate", "--config", cfg, "--output-dir", out])
        assert r.exit_code == 2, r.output
        assert isinstance(r.exception, SystemExit)
        assert f"{key} malformed: " in r.output
        assert not os.path.exists(out)

    @pytest.mark.parametrize("dt_base", [float("nan"), 0.0007, -1e-3, 1e-8])
    def test_bad_dt_base_exits_2(self, runner, tmp_path, dt_base):
        # NaN ended in a ValueError traceback; 0.0007 and -1e-3 in a
        # ConfigError traceback at the first step, with the output directory
        # written; 1e-8 ran, drawing 100,000 base steps per step and sample
        cfg = write_cfg(tmp_path, {"solver": {"dt_base": dt_base}})
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["simulate", "--config", cfg, "--output-dir", out])
        assert r.exit_code == 2, r.output
        assert isinstance(r.exception, SystemExit)
        assert "solver.dt_base rejected" in r.output
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "law, missing",
        [
            ({"kind": "composite"}, "law.gamma1 and law.gamma2"),
            ({"kind": "composite", "gamma1": 2.0}, "law.gamma2"),
            ({"kind": "composite", "gamma2": 1.6}, "law.gamma1"),
        ],
    )
    def test_composite_law_without_exponents_exits_2(self, runner, tmp_path, law, missing):
        # was "law block invalid: 'gamma1'", the text of a KeyError
        cfg = write_cfg(tmp_path, {"law": law})
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["simulate", "--config", cfg, "--output-dir", out])
        assert r.exit_code == 2, r.output
        assert f"law block invalid: kind: composite requires {missing}\n" in r.output
        assert not os.path.exists(out)

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_option_exits_2(self, runner, tmp_path, samples):
        # rejected as the run file's samples: 0 is
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        r = runner.invoke(
            main, ["simulate", "--config", cfg, "--samples", samples, "--output-dir", out]
        )
        assert r.exit_code == 2
        assert "--samples" in r.output
        assert not os.path.exists(out)

    @pytest.mark.parametrize("n_saves", [3, 0])
    def test_bad_n_saves_exits_2(self, runner, tmp_path, n_saves):
        # T / dt = 50 steps: 3 saves do not divide them, 0 saves none
        cfg = write_cfg(tmp_path, {"solver": {"T": 0.05, "n_saves": n_saves}})
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["simulate", "--config", cfg, "--output-dir", out])
        assert r.exit_code == 2
        assert "n_saves" in r.output
        assert not os.path.exists(out)

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

    @pytest.mark.parametrize(
        "epsilons, message",
        [
            ([2.0, 0.05], "got 2.0"),
            ([0.05, -0.02], "got -0.02"),
            ([float("nan"), 0.01], "got nan"),
        ],
    )
    @pytest.mark.parametrize("noise", ["single_mode", "none"])
    def test_bad_epsilon_exits_2(self, runner, tmp_path, epsilons, message, noise):
        # rejected by the sweep's mollification, or by its per-member
        # configs when there is no noise to mollify
        cfg = write_cfg(
            tmp_path,
            {"noise": {"kind": noise}, "sweep": {"epsilons": epsilons, "cells": [2, 2]}},
        )
        out = tmp_path / "out"
        r = runner.invoke(main, ["sweep-epsilon", "--config", cfg, "--output-dir", str(out)])
        assert r.exit_code == 2, r.output
        assert isinstance(r.exception, SystemExit)
        assert "sweep.epsilons" in r.output and message in r.output
        assert not out.exists()


@pytest.mark.parametrize("command", ["sweep-epsilon", "young-measure"])
def test_byte_identical_reruns(runner, tmp_path, command):
    # every file of two runs of one (config, seed), the sweep's frames,
    # manifests, summary and concentration traces among them
    cfg = write_cfg(
        tmp_path,
        {
            "sweep": {"epsilons": [0.05, 0.02], "cells": [2, 2]},
            "diagnostics": {"window": [-2.0, 2.0], "psis": ["energy", "bump:0,4"]},
        },
    )
    files = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = runner.invoke(main, [command, "--config", cfg, "--output-dir", str(out)])
        assert r.exit_code == 0, r.output
        files.append({p.name: p.read_bytes() for p in out.iterdir()})
    # six frames and a manifest per member, the summary, concentration.json,
    # config.yaml and version.json
    assert len(files[0]) == (2 * 7 + 4 if command == "sweep-epsilon" else 3)
    assert files[0] == files[1]


# window and cells that only sweep-epsilon and young-measure read, each
# rejected before the first step with the message of the check it fails
BAD_CELLS = [
    ({"diagnostics": {"window": [-9, 2]}}, "exceeds the spatial domain"),
    ({"diagnostics": {"window": [2, -2]}}, "positive extent"),
    ({"sweep": {"cells": [0, 2]}}, "cell counts must be positive"),
    # 6 save times cannot fill 16 time cells
    ({"sweep": {"cells": [16, 64]}}, "cell (0, 0) received no samples"),
]


@pytest.mark.parametrize("command", ["sweep-epsilon", "young-measure"])
@pytest.mark.parametrize("overrides, message", BAD_CELLS)
def test_bad_cells_exit_2_before_stepping(
    runner, tmp_path, monkeypatch, command, overrides, message
):
    def no_step(*args, **kwargs):
        raise AssertionError("stepped")

    monkeypatch.setattr(cli, "simulate", no_step)
    monkeypatch.setattr(cli, "epsilon_sweep", no_step)
    sweep = {"epsilons": [0.05, 0.02], "cells": [2, 2], **overrides.get("sweep", {})}
    cfg = write_cfg(tmp_path, {**overrides, "sweep": sweep})
    out = tmp_path / "out"
    r = runner.invoke(main, [command, "--config", cfg, "--output-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert message in r.output
    assert not out.exists()


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

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_exits_2(self, runner, tmp_path, gamma):
        # rejected by PressureLaw.polytropic, as every run file's gamma is
        r = runner.invoke(
            main, ["entropy-table", "--gamma", gamma, "--output-dir", str(tmp_path)]
        )
        assert r.exit_code == 2
        assert "gamma" in r.output

    def test_huge_gamma_exits_2(self, runner, tmp_path):
        # the scaled kappa's (gamma - 1)^2 raised an OverflowError: exit 1
        out = tmp_path / "o"
        r = runner.invoke(main, ["entropy-table", "--gamma", "1e300", "--output-dir", str(out)])
        assert r.exit_code == 2, r.output
        assert isinstance(r.exception, SystemExit)
        assert "--gamma" in r.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "rho_range",
        [("-1", "5", "4"), ("0.5", "-2", "4"), ("0.1", "5", "0"), ("0.1", "5", "nan"),
         ("0.1", "5", "2.5"), ("0.1", "inf", "4")],
    )
    def test_bad_rho_range_exits_2(self, runner, tmp_path, rho_range):
        out = str(tmp_path / "out")
        r = runner.invoke(
            main, ["entropy-table", "--rho-range", *rho_range, "--output-dir", out]
        )
        assert r.exit_code == 2
        assert "--rho-range" in r.output
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "u_range",
        [("-1", "1", "-1"), ("nan", "1", "3"), ("-1", "inf", "3"), ("-1", "1", "0"),
         ("-1", "1", "2.5")],
    )
    def test_bad_u_range_exits_2(self, runner, tmp_path, u_range):
        # the check of --rho-range, but for velocities of either sign
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["entropy-table", "--u-range", *u_range, "--output-dir", out])
        assert r.exit_code == 2
        assert "--u-range" in r.output
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "option, values, bad",
        [("--u-range", ("-1e160", "1e160", "3"), "40 of the 60 rows"),
         ("--rho-range", ("1e300", "1e301", "2"), "40 of the 40 rows")],
    )
    def test_non_finite_table_exits_2(self, runner, tmp_path, option, values, bad):
        # each exited 0 after RuntimeWarnings, its table written with those
        # rows not finite; the message names the range at fault
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["entropy-table", option, *values, "--output-dir", out])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert bad in r.output and option in r.output
        assert ({"--u-range", "--rho-range"} - {option}).pop() not in r.output
        assert not os.path.exists(out)

    def test_gamma_next_to_one_gives_a_finite_table(self, runner, tmp_path):
        # lam ~ 1e6: the Gauss-Jacobi rule must stay finite
        out = str(tmp_path / "out")
        r = runner.invoke(
            main, ["entropy-table", "--gamma", "1.000001", "--output-dir", out]
        )
        assert r.exit_code == 0, r.output
        data = np.genfromtxt(
            os.path.join(out, "entropy_table.csv"), delimiter=",", skip_header=1
        )
        assert data.size and np.isfinite(data).all()

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

    @pytest.mark.parametrize("psi", ["bump:1", "cutoff:0", "bump:0,-1", "bump:0,nan"])
    def test_bad_generator_exits_2(self, runner, tmp_path, psi):
        # each exited 1 with a traceback, or ran on a non-convex or NaN
        # generator to exit 0
        cfg = write_cfg(tmp_path, {"sweep": {"cells": [2, 2]}, "diagnostics": {"psis": [psi]}})
        out = tmp_path / "out"
        r = runner.invoke(main, ["young-measure", "--config", cfg, "--output-dir", str(out)])
        assert r.exit_code == 2, r.output
        assert psi in r.output
        assert not out.exists()

    def test_bad_entropy_table_generator_exits_2(self, runner, tmp_path):
        r = runner.invoke(
            main, ["entropy-table", "--psi", "cutoff:-1", "--output-dir", str(tmp_path / "o")]
        )
        assert r.exit_code == 2
        assert "cutoff" in r.output


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

    @pytest.mark.parametrize("block, status", [("noise", "fail"), ("initial", "pass")])
    def test_overflowing_forcing_fails_growth_check(self, runner, tmp_path, block, status):
        # an amplitude of 1e300 overflows without a RuntimeWarning.  Of the
        # noise, the forcing's square: the growth constant is inf, and the
        # check fails.  Of the density, the growth envelope: the mollified
        # forcing is exactly 0 there, so the ratio is 0, and the check passes
        cfg = write_cfg(tmp_path, {block: {"amplitude": 1e300}})
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["validate", "--config", cfg, "--output-dir", out])
        assert r.exit_code == (1 if status == "fail" else 0), r.output
        assert r.exception is None or isinstance(r.exception, SystemExit), r.output
        assert f"noise_growth: {status}" in r.output
        with open(os.path.join(out, "validate.json")) as fh:
            assert json.load(fh)["noise_growth"] == status

    def test_steep_law_fails_its_bounds_unwarned(self, runner, tmp_path):
        # gamma 1e6 overflows P at the bounds' densities up to 50 and in the
        # entropy cross-check, which warned (a traceback under the suite's
        # filter); a non-finite ratio fails its check, as simulate fails
        cfg = write_cfg(tmp_path, {"law": {"gamma": 1e6}, "noise": {"kind": "none"}})
        out = str(tmp_path / "out")
        r = runner.invoke(main, ["validate", "--config", cfg, "--output-dir", out])
        assert r.exit_code == 1, r.output
        assert isinstance(r.exception, SystemExit), r.output
        with open(os.path.join(out, "validate.json")) as fh:
            assert json.load(fh)["pressure_bounds"] == "fail"

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


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize(
    "grid, solver",
    [
        ({"L": 1e-300}, {}),  # dx^2 underflows to 0
        ({"L": 1e300}, {}),  # dx^2 overflows
        # dx^2 is subnormal, eps dt / dx^2 finite
        ({"L": 1e-160}, {"T": 1e-300, "dt": 1e-300, "n_saves": 1}),
        # dx^2 is normal, eps dt / dx^2 overflows
        ({"L": 2e-153, "n": 16}, {"epsilon": 0.5, "T": 100.0, "dt": 100.0, "n_saves": 1}),
    ],
)
def test_grid_spacing_out_of_range_exits_2(runner, tmp_path, command, grid, solver):
    # L = 1e-300 passed validate and failed simulate with a NumericalError
    # after a RuntimeWarning; L = 1e300 warned and failed both; L = 1e-160
    # ran on a subnormal dx^2
    cfg = write_cfg(tmp_path, {"grid": grid, "solver": solver})
    out = tmp_path / "out"
    r = runner.invoke(main, [command, "--config", cfg, "--output-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert "grid block invalid: grid.L = " in r.output
    assert not out.exists()


OVERFLOW = {"noise": {"amplitude": 1e300}}

# runs at the edges of the model: the run-file blocks merged over a short
# run (n = 32, 30 steps), the command, its exit code, and the key its
# message names (exit 2) or the error it reports (exit 1; a sweep's rows
# name each member's too)
EDGES = [
    # the forcing overflows; each run warned before it ended
    (OVERFLOW, ["simulate"], 1, "NumericalError"),
    (OVERFLOW, ["simulate", "--samples", "12"], 1, "NumericalError"),
    (OVERFLOW, ["young-measure"], 1, "NumericalError"),
    # every member failed, and the sweep exited 0
    (OVERFLOW, ["sweep-epsilon"], 1, "NumericalError"),
    # no step follows the last state, whose energy overflows: exited 0
    ({**OVERFLOW, "solver": {"T": 1e-3, "n_saves": 1}}, ["simulate"], 1, "DivergenceError"),
    ({"law": {"gamma": 1.0 + 1e-12}}, ["simulate"], 2, "alpha1"),
    ({"law": {"gamma": float("inf")}}, ["simulate"], 2, "law"),
    ({"initial": {"amplitude": -1.0}}, ["simulate"], 2, "initial"),
    ({"law": {**COMPOSITE_LAW, "rho_hi": 0.9}}, ["simulate"], 2, "law"),
    ({"law": {"gamma": 3.5}}, ["simulate"], 0, None),
    # T under half a dt, no step: simulate wrote its output, then failed
    ({"solver": {"T": 1e-10, "dt": 1e-3, "n_saves": 1}}, ["simulate"], 2, "solver.T"),
    ({"solver": {"T": 1e-10, "dt": 1e-3, "n_saves": 1}}, ["validate"], 2, "solver.T"),
    # 3e298 steps: numpy refused the run's arrays, and simulate exited 1
    ({"solver": {"dt": 1e-300}}, ["simulate"], 2, "solver.dt"),
    ({"grid": {"n": 2}}, ["simulate"], 2, "grid.n"),
    ({"initial": {"amplitude": -(1.0 - 1e-4)}}, ["simulate"], 2, "initial"),
    ({"law": {**COMPOSITE_LAW, "gamma1": 1.0}}, ["simulate"], 2, "gamma1"),
    ({"law": {**COMPOSITE_LAW, "rho_lo": 0.0}}, ["simulate"], 2, "rho_lo"),
    # P2 < P1 above rho = 1.2^2.5, so a narrow window there has P' < 0
    ({"law": {**COMPOSITE_LAW, "rho_lo": 2.0, "rho_hi": 2.0 + 1e-12}}, ["simulate"], 2, "law.rho_lo"),
    ({"law": {"gamma": 1.0 + 1e-9}, "noise": {"kind": "none"}}, ["simulate"], 0, None),
    ({"law": {"gamma": 1.0 + 1e-12}, "noise": {"kind": "none"}}, ["simulate"], 0, None),
    ({"solver": {"epsilon": 1e-300}}, ["simulate"], 0, None),
    # P2 > P1 below it: P' > 0 in a window 1e-12 wide that the run never enters
    ({"law": {**COMPOSITE_LAW, "rho_lo": 0.5, "rho_hi": 0.5 + 1e-12}}, ["simulate"], 0, None),
    ({"law": COMPOSITE_LAW}, ["simulate"], 0, None),
    # a family of no modes ran noise-free, and validate passed its growth
    ({"noise": {"kind": "mode_family", "n_modes": 0}}, ["simulate"], 2, "noise.n_modes"),
    ({"noise": {"kind": "mode_family", "n_modes": -3}}, ["simulate"], 2, "noise.n_modes"),
    ({"noise": {"kind": "mode_family", "n_modes": 0}}, ["validate"], 2, "noise.n_modes"),
    ({"noise": {"kind": "mode_family", "n_modes": -3}}, ["validate"], 2, "noise.n_modes"),
    # a bump down to density 1e-4, above a lowered initial.c0
    ({"initial": {"amplitude": -(1.0 - 1e-4), "c0": 1e-5}}, ["simulate"], 0, None),
]

# the same edges under the commands that build Young measures and sweeps
for command in (["young-measure"], ["sweep-epsilon"]):
    EDGES += [
        ({"law": {"gamma": 1.0 + 1e-9}, "noise": {"kind": "none"}}, command, 0, None),
        ({"law": {"gamma": 1.0 + 1e-12}, "noise": {"kind": "none"}}, command, 0, None),
        ({"law": {"gamma": 3.5}}, command, 0, None),
        ({"initial": {"amplitude": -(1.0 - 1e-4), "c0": 1e-5}}, command, 0, None),
        # the entropy pairs and the Young measures need a polytropic law
        ({"law": COMPOSITE_LAW}, command, 2, "law.kind"),
    ]
EDGES += [
    ({"law": {"gamma": 1.0 + 1e-12}}, ["sweep-epsilon"], 2, "alpha1"),
    ({"law": {**COMPOSITE_LAW, "rho_lo": 2.0, "rho_hi": 2.0 + 1e-12}}, ["sweep-epsilon"], 2,
     "law.rho_lo"),
    # 5e11 steps, whose energies alone need 4 TB: validate passed, and
    # simulate wrote its directory, then failed to allocate the save times
    ({"solver": {"T": 0.5, "dt": 1e-12, "n_saves": 10}}, ["simulate"], 2, "solver.dt"),
    ({"solver": {"T": 0.5, "dt": 1e-12, "n_saves": 10}}, ["validate"], 2, "solver.dt"),
]
# a bump 1e300 wide raised an OverflowError squaring it, and one 1e-300 wide
# warned of a division by zero; a noisy gamma of 1e6 raised an OverflowError
# in the far-field bound on H
for command in (["validate"], ["simulate"]):
    EDGES += [
        ({"initial": {"width": 1e300}}, command, 2, "initial.width"),
        ({"initial": {"width": 1e-300}}, command, 2, "initial.width"),
        ({"law": {"gamma": 1e6}}, command, 2, "law.gamma"),
    ]
# a gamma of 1e300 raised an OverflowError squaring gamma - 1 for the
# scaled kappa
for command in (["validate"], ["simulate"]):
    EDGES.append(({"law": {"gamma": 1e300}}, command, 2, "law.gamma"))


@pytest.mark.parametrize("blocks, command, code, named", EDGES)
def test_edge_runs(runner, tmp_path, blocks, command, code, named):
    run = {
        "grid": {"n": 32},
        "solver": {"T": 0.03, "n_saves": 3},
        "sweep": {"epsilons": [0.05, 0.02], "cells": [2, 2]},
    }
    for block, values in blocks.items():
        run[block] = {**run.get(block, {}), **values}
    cfg = write_cfg(tmp_path, run)
    out = tmp_path / "out"
    args = [command[0], "--config", cfg, *command[1:], "--output-dir", str(out)]
    r = runner.invoke(main, args)
    assert r.exit_code == code, r.output
    assert r.exception is None or isinstance(r.exception, SystemExit), r.output
    if code == 2:
        assert named in r.output
        assert not out.exists()
        return
    if code == 1:
        assert json.loads((out / "error.json").read_text())["error"] == named
    if command[0] == "sweep-epsilon" and named is not None:
        # every member failed, its error in the last column
        rows = (out / "sweep_summary.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 2
        assert all(row.split(",", 6)[6].startswith(named + "(") for row in rows)


def test_runtime_loads_no_scipy():
    # scipy and numpy.polynomial serve only as the tests' oracles: a noisy
    # batched IMEX run, entropy pairs on one piece and split at a kink, and
    # a composite law's four window fits all run on numpy core alone;
    # importing the CLI builds no rule
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = """
import sys
import numpy as np
import svvlab.cli
from svvlab.entropy import EntropySpec, _jacobi_rule, entropy_pair
print(_jacobi_rule.cache_info().currsize)
from svvlab.noise import NoiseModel
from svvlab.pressure import PressureLaw
from svvlab.solver import Grid, GridState, SolverConfig, simulate

law = PressureLaw.polytropic(2.0)
grid = Grid(L=5.0, n=64)
noise = NoiseModel.single_mode(0.2, law, seed=5, dt_base=1e-3)
noise = noise.truncate_mollify(0.05, 3.0, 0.25, 1.0)
cfg = SolverConfig(epsilon=0.05, T=0.01, dt=1e-3, n_saves=1)
init = GridState(0.0, 1.0 + 0.3 * np.exp(-grid.x**2), np.zeros(grid.n + 1))
simulate(init, law, grid, cfg, noise, [0, 1])
entropy_pair(law, EntropySpec.compact_bump(0.0, 4.0), [1.0, 2.0], [0.5, -0.5])
entropy_pair(law, EntropySpec.compact_bump(0.0, 1.0), [1.0, 2.0], [0.5, -0.5])
comp = PressureLaw.composite(2.0, 1.6, 0.125, 0.15, 0.9, 1.4)
for name in ("internal_energy", "k_integral", "dhigh_order_potential", "high_order_potential"):
    getattr(comp, name)(np.array([1.1]))
print(sorted(m for m in sys.modules if m.startswith("scipy")))
print(sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.split("\n")[:3] == ["0", "[]", "[]"]
