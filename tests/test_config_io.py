"""YAML run files, collected validation errors, and artifact round-trips."""

import importlib.util
import struct
from pathlib import Path

import numpy as np
import pytest
import yaml

from svvlab.config import KEYS, InitialData, config_from_dict, load_config
from svvlab.errors import ConfigError, DomainError
from svvlab.io import (
    MAGIC,
    fmt,
    load_trajectory_states,
    read_frame,
    save_trajectory,
    write_csv,
    write_frame,
)
from svvlab.pressure import PressureLaw
from svvlab.solver import Grid, GridState, SolverConfig, simulate

ROOT = Path(__file__).resolve().parents[1]


def frame_header(n, L, t):
    """A frame's magic and header (n, L, t), as write_frame writes them."""
    return MAGIC + struct.pack("<ddd", n, L, t)


# the rho and m of a frame with n = 64
FRAME_BODY = np.concatenate((np.ones(65), np.zeros(65))).astype("<f8").tobytes()

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

    @pytest.mark.parametrize(
        "psi",
        [
            "bump:1", "bump:1,2,3", "cutoff:", "cutoff:0", "cutoff:-1", "bump:0,-1",
            "bump:0,nan", "bump:nan,1", "cutoff:nan", "cutoff:inf", "bump:0,inf", 7,
        ],
    )
    def test_bad_generator_rejected(self, psi):
        # malformed entries raised a raw ValueError out of config_from_dict;
        # out-of-range ones loaded, then failed later or gave zero or NaN
        # pairs (a negative width ran on a non-convex generator)
        run = {**GOOD, "diagnostics": {"psis": ["energy", psi]}}
        with pytest.raises(ConfigError) as exc:
            config_from_dict(run)
        assert any(repr(psi) in v for v in exc.value.violations), exc.value.violations

    def test_good_generators_accepted(self):
        psis = ["energy", "signed_square", "cutoff:2.5", "bump:-0.5,0.25"]
        assert config_from_dict({**GOOD, "diagnostics": {"psis": psis}}).psis == tuple(psis)

    def test_unknown_keys_listed_together(self):
        # keys nothing reads: an old alias, a typo and a top-level stray
        bad = {
            **GOOD,
            "solver": {**GOOD["solver"], "n_save": 3},
            "sweep": {"samples": 5, "epsilons": [0.05, 0.02]},
            "noise": {**GOOD["noise"], "ampltude": 0.1},
            "sweeps": {},
        }
        with pytest.raises(ConfigError) as exc:
            config_from_dict(bad)
        assert sorted(exc.value.violations) == [
            "unknown key noise.ampltude",
            "unknown key solver.n_save",
            "unknown key sweep.samples",
            "unknown key sweeps",
        ]

    def test_block_that_is_not_a_mapping_rejected(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({**GOOD, "diagnostics": ["energy"]})
        assert exc.value.violations == ["diagnostics must be a block of keys, got ['energy']"]

    def test_every_read_key_accepted(self):
        # one run file with every key of config.KEYS, each block's kind
        # picking what it builds (the others' keys are accepted unread)
        every = {
            "law": {"kind": "composite", "gamma": 2.0, "kappa": 0.125, "gamma1": 2.0,
                    "gamma2": 1.6, "kappa1": 0.125, "kappa2": 0.15, "rho_lo": 0.9,
                    "rho_hi": 1.4},
            "grid": {"L": 5.0, "n": 64},
            "solver": {"epsilon": 0.05, "T": 0.1, "dt": 1e-3, "dt_base": 1e-3,
                       "rho_inf": 1.0, "n_saves": 5, "scheme": "imex",
                       "density_floor": 1e-12, "record_steps": False,
                       "record_forcing": False},
            "initial": {"kind": "bump", "amplitude": 0.3, "center": 0.0, "width": 0.5,
                        "m_amplitude": 0.0, "left": [1.0, 0.0], "right": [1.0, 0.0],
                        "path": "", "c0": 0.1},
            "noise": {"kind": "mode_family", "amplitude": 0.3, "center": 0.0,
                      "width": 1.0, "decay_p": 2.0, "n_modes": 4,
                      "support": "compact_x", "c1": 3.0, "alpha1": 0.25},
            "diagnostics": {"window": [-2.0, 2.0], "psis": ["energy"]},
            "sweep": {"epsilons": [0.05, 0.02], "cells": [4, 4]},
            "seed": 7,
            "samples": 2,
            "output_dir": "out",
        }
        assert {k: sorted(v) for k, v in every.items() if isinstance(v, dict)} == {
            k: sorted(v) for k, v in KEYS.items() if isinstance(v, dict)
        }
        assert sorted(every) == sorted(KEYS)
        assert config_from_dict(every).samples == 2

    @pytest.mark.parametrize(
        "overrides, violations",
        [
            # a refused c1 builds no noise, so no mollification check runs
            # on the c1 = 1 that stood in for it
            ({"noise": {"c1": "abc"}}, ["noise.c1 malformed: 'abc'"]),
            ({"grid": {"n": "abc", "L": "x"}},
             ["grid.L malformed: 'x'", "grid.n malformed: 'abc'"]),
            ({"initial": {"kind": ["x"]}}, ["initial.kind malformed: ['x']"]),
        ],
    )
    def test_one_violation_per_fault(self, overrides, violations):
        run = {**GOOD, **{b: {**GOOD[b], **v} for b, v in overrides.items()}}
        with pytest.raises(ConfigError) as exc:
            config_from_dict(run)
        assert exc.value.violations == violations

    def test_run_file_keys_documented(self):
        # the README's table of run-file keys names exactly the keys of KEYS
        readme = (ROOT / "README.md").read_text()
        table = readme.split("## Run-file keys\n", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:3] for line in table.splitlines() if line.startswith("|")]
        documented = {  # a top-level key's block cell is "(top level)"
            (b.strip(" `") if "`" in b else "", k.strip(" `")) for b, k in rows if "`" in k
        }
        declared = {
            (block, key) if isinstance(keys, dict) else ("", block)
            for block, keys in KEYS.items()
            for key in (keys if isinstance(keys, dict) else [None])
        }
        assert documented == declared

    def test_benchmark_and_readme_run_files_load(self):
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", ROOT / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for workload in workloads.WORKLOADS.values():
            config_from_dict(workload.run_file(7))
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Example run file\n\n```yaml\n", 1)[1].split("```", 1)[0]
        assert config_from_dict(yaml.safe_load(block)).samples == 1

    @pytest.mark.parametrize(
        "block, key, named",
        [
            ("noise", "amplitude", "amplitude"),
            ("noise", "width", "width"),
            ("noise", "center", "center"),
            ("mode_family", "amplitude", "amplitude"),
            ("mode_family", "width", "width"),
            ("initial", "amplitude", "not finite"),
            ("initial", "width", "not finite"),
            ("initial", "c0", "c0"),
        ],
    )
    def test_nan_noise_and_initial_data_rejected(self, tmp_path, block, key, named):
        # each loaded, and simulate then failed at t = 0.001 (a NaN center
        # instead gave every mode a zero profile: a run without noise)
        run = {**GOOD, "noise": dict(GOOD["noise"]), "initial": dict(GOOD["initial"])}
        if block == "mode_family":
            block = "noise"
            run["noise"].update(kind="mode_family", n_modes=3)
        run[block][key] = float("nan")
        p = tmp_path / "run.yaml"
        p.write_text(yaml.safe_dump(run))
        with pytest.raises(ConfigError) as exc:
            load_config(str(p))
        assert any(named in v for v in exc.value.violations), exc.value.violations

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

    @pytest.mark.parametrize("amplitude", [0.3, -1.5])
    @pytest.mark.parametrize("c0", [0.0, -10.0])
    def test_nonpositive_c0_rejected(self, c0, amplitude):
        # a dip to -0.5 passed c0 = -10, and simulate then failed on a
        # negative density
        grid = Grid(L=5.0, n=64)
        init = InitialData("bump", amplitude=amplitude, width=0.5, c0=c0)
        with pytest.raises(ConfigError, match="c0 must be positive"):
            init.build(grid, 1.0)

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

    @pytest.mark.parametrize(
        "frame",
        [
            b"NOPE" + b"\0" * 48,
            frame_header(64.0, 5.0, 0.0) + FRAME_BODY[:-8],
            frame_header(64.0, 5.0, 0.0)[:20],
            frame_header(float("nan"), 5.0, 0.0) + FRAME_BODY,
            frame_header(float("inf"), 5.0, 0.0) + FRAME_BODY,
            frame_header(16.5, 5.0, 0.0) + FRAME_BODY[: 2 * 17 * 8],
            frame_header(64.0, 5.0, float("nan")) + FRAME_BODY,
            frame_header(64.0, -1.0, 0.0) + FRAME_BODY,
            frame_header(8.0, 5.0, 0.0) + FRAME_BODY[: 2 * 9 * 8],
        ],
        ids=[
            "bad-magic", "truncated-body", "short-header", "n-nan", "n-inf",
            "n-fractional", "t-nan", "L-negative", "n-too-small",
        ],
    )
    def test_malformed_frame_rejected(self, tmp_path, frame):
        path = tmp_path / "bad.svv"
        path.write_bytes(frame)
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
