"""YAML run files, collected validation errors, and artifact round-trips."""

import numpy as np
import pytest
import yaml

from svvlab.config import InitialData, config_from_dict, load_config
from svvlab.errors import ConfigError, DomainError
from svvlab.io import (
    fmt,
    load_trajectory_states,
    read_frame,
    save_trajectory,
    write_csv,
    write_frame,
)
from svvlab.pressure import PressureLaw
from svvlab.solver import Grid, GridState, SolverConfig, simulate

GOOD = {
    "law": {"kind": "polytropic", "gamma": 2.0},
    "grid": {"L": 5.0, "n": 64},
    "solver": {"epsilon": 0.05, "T": 0.1, "dt": 1e-3, "n_saves": 5},
    "initial": {"kind": "bump", "amplitude": 0.3, "width": 0.5},
    "noise": {"kind": "single_mode", "amplitude": 0.3, "c1": 3.0, "alpha1": 0.25},
    "seed": 7,
    "output_dir": "out",
}


class TestLoadConfig:
    def test_good_config(self, tmp_path):
        p = tmp_path / "run.yaml"
        p.write_text(yaml.safe_dump(GOOD))
        cfg = load_config(str(p))
        assert cfg.seed == 7
        assert cfg.grid.n == 64
        assert cfg.noise is not None
        assert cfg.law.gamma == 2.0

    def test_noise_is_mollified_once(self):
        cfg = config_from_dict(
            {**GOOD, "noise": {**GOOD["noise"], "kind": "mode_family", "n_modes": 30}}
        )
        # H = c1 eps^(-alpha1), and floor(1/eps) = 20 of the 30 modes
        assert cfg.noise.H == pytest.approx(3.0 * 0.05**-0.25, rel=1e-15)
        assert cfg.noise.n_modes == cfg.noise.mode_cap == 20
        assert cfg.noise_template.H is None and cfg.noise_template.n_modes == 30
        # mollifying the mollified model again for the same epsilon is a no-op
        again = cfg.noise.truncate_mollify(0.05, cfg.noise_c1, cfg.noise_alpha1, 1.0)
        assert again == cfg.noise

    def test_empty_config_rejected(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_all_violations_collected(self):
        bad = {
            "law": {"kind": "polytropic", "gamma": 0.5},
            "grid": {"L": 5.0, "n": 4},
            "solver": {"epsilon": -1.0, "T": 0.1, "dt": 1e-3},
            "initial": {"kind": "vortex"},
            "noise": {"kind": "magic"},
            "sweep": {"epsilons": [0.01, 0.05]},
            "samples": 0,
        }
        with pytest.raises(ConfigError) as exc:
            config_from_dict(bad)
        msgs = "\n".join(exc.value.violations)
        assert len(exc.value.violations) >= 7
        assert "law" in msgs and "grid" in msgs and "solver" in msgs
        assert "vortex" in msgs and "magic" in msgs
        assert "decreasing" in msgs and "sample count" in msgs

    def test_mollification_constraint_rejected(self):
        bad = dict(GOOD)
        bad["noise"] = {
            "kind": "single_mode", "amplitude": 0.3, "c1": 3.0, "alpha1": 0.9,
        }
        with pytest.raises(ConfigError) as exc:
            config_from_dict(bad)
        assert any("mollification" in v for v in exc.value.violations)

    @pytest.mark.parametrize(
        "block, key, named",
        [
            ("law", "gamma", "gamma"),
            ("grid", "L", "half-width L"),
            ("solver", "rho_inf", "rho_inf"),
            ("solver", "density_floor", "density_floor"),
        ],
    )
    def test_nan_rejected_when_loaded(self, tmp_path, block, key, named):
        # `.nan` in the run file; each was accepted, and a NaN density floor
        # turned the positivity guard off
        p = tmp_path / "run.yaml"
        p.write_text(yaml.safe_dump({**GOOD, block: {**GOOD[block], key: float("nan")}}))
        assert ".nan" in p.read_text()
        with pytest.raises(ConfigError) as exc:
            load_config(str(p))
        assert any(named in v for v in exc.value.violations)

    def test_output_dir_env_fallback(self, monkeypatch):
        monkeypatch.setenv("SVV_OUTPUT_DIR", "/tmp/svv-test-out")
        cfg = config_from_dict({k: v for k, v in GOOD.items() if k != "output_dir"})
        assert cfg.output_dir == "/tmp/svv-test-out"


class TestInitialData:
    def test_bump_profile(self):
        grid = Grid(L=5.0, n=64)
        state = InitialData("bump", amplitude=0.3, width=0.5).build(grid, 1.0)
        assert state.rho.max() == pytest.approx(1.3, rel=1e-12)
        assert state.rho[0] == pytest.approx(1.0, abs=1e-10)

    def test_floor_enforced(self):
        grid = Grid(L=5.0, n=64)
        with pytest.raises(ConfigError):
            InitialData("bump", amplitude=-0.95).build(grid, 1.0)

    def test_riemann_smoothed_limits(self):
        grid = Grid(L=5.0, n=64)
        init = InitialData(
            "riemann_smoothed", center=0.0, width=0.3,
            left=(1.4, 0.1), right=(1.0, 0.0),
        )
        state = init.build(grid, 1.0)
        assert state.rho[0] == pytest.approx(1.4, abs=1e-6)
        assert state.rho[-1] == pytest.approx(1.0, abs=1e-6)
        assert state.mom[0] == pytest.approx(0.1, abs=1e-6)


class TestIO:
    def test_fmt_round_trip(self):
        for v in (1 / 3, 1e-300, -2.5, 0.1 + 0.2):
            assert float(fmt(v)) == v

    def test_frame_round_trip(self, tmp_path):
        grid = Grid(L=5.0, n=64)
        rng = np.random.default_rng(1)
        state = GridState(0.25, 1 + rng.random(65), rng.standard_normal(65))
        path = tmp_path / "f.svv"
        write_frame(str(path), grid, state)
        g2, s2 = read_frame(str(path))
        assert g2 == grid
        assert s2.t == state.t
        assert np.array_equal(s2.rho, state.rho)
        assert np.array_equal(s2.mom, state.mom)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.svv"
        path.write_bytes(b"NOPE" + b"\0" * 48)
        with pytest.raises(DomainError):
            read_frame(str(path))

    def test_truncated_frame_rejected(self, tmp_path):
        grid = Grid(L=5.0, n=64)
        state = GridState(0.0, np.ones(65), np.zeros(65))
        path = tmp_path / "t.svv"
        write_frame(str(path), grid, state)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DomainError):
            read_frame(str(path))

    def test_trajectory_round_trip(self, tmp_path):
        law = PressureLaw.polytropic(2.0)
        grid = Grid(L=5.0, n=64)
        cfg = SolverConfig(epsilon=0.05, T=0.1, dt=1e-3, n_saves=5)
        x = grid.x
        init = GridState(0.0, 1 + 0.3 * np.exp(-(x**2)), np.zeros_like(x))
        traj = simulate(init, law, grid, cfg)
        mpath = save_trajectory(traj, str(tmp_path), prefix="run")
        g2, states, manifest = load_trajectory_states(mpath)
        assert g2 == grid
        assert len(states) == len(traj.states)
        assert manifest["error"] is None
        for a, b in zip(states, traj.states):
            assert np.array_equal(a.rho, b.rho)
            assert np.array_equal(a.mom, b.mom)

    def test_csv_deterministic_bytes(self, tmp_path):
        rows = [(1 / 3, 0.1 + 0.2), (1e-300, -2.5)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(str(p1), ["u", "v"], rows)
        write_csv(str(p2), ["u", "v"], rows)
        assert p1.read_bytes() == p2.read_bytes()
