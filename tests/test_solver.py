"""Time stepping: equilibrium, convergence, stability guards, heat kernel."""

import os
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dgttrf, dgttrs

import svvlab
from svvlab import noise as noise_module
from svvlab import solver
from svvlab.config import config_from_dict
from svvlab.errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    NumericalError,
    PositivityLoss,
)
from svvlab.noise import NoiseModel
from svvlab.pressure import PressureLaw, StateFields, _smoothstep
from svvlab.solver import (
    CFL_NUMBER,
    DIFFUSION_NUMBER,
    Grid,
    GridState,
    SolverConfig,
    Stepper,
    _save_times,
    dissipation_rate,
    epsilon_sweep,
    relative_energy,
    simulate,
)


@pytest.fixture(scope="module")
def law2():
    return PressureLaw.polytropic(2.0)


@pytest.fixture(scope="module")
def grid():
    return Grid(L=5.0, n=256)


def bump_state(grid, amp=0.3, width=0.5):
    x = grid.x
    rho = 1.0 + amp * np.exp(-(x**2) / (2 * width**2))
    return GridState(0.0, rho, np.zeros_like(x))


# ---------------------------------------------------------------------------
# heat semigroup: the exact diffusion operator, an oracle for the substep
# ---------------------------------------------------------------------------

def heat_kernel(t, x):
    """K(t, x) = (4 pi t)^{-1/2} exp(-x^2 / (4 t))."""
    t = float(t)
    if t < 0.0:
        raise DomainError("heat kernel time must be nonnegative")
    if t == 0.0:
        raise DomainError("heat kernel is a delta at t = 0; use the identity")
    x = np.asarray(x, dtype=float)
    out = np.exp(-(x**2) / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)
    return out if out.ndim else float(out)


def heat_semigroup_apply(field, eps_t, grid: Grid, far_field: float = 0.0):
    """Convolve (field - far_field) with the heat kernel at time eps_t.

    The field is extended by its far-field constant outside the grid; the
    constant part convolves to itself exactly (the kernel has unit mass),
    so only the compact perturbation is quadratured.  eps_t = 0 is the
    identity.
    """
    if eps_t < 0.0:
        raise DomainError("eps_t must be nonnegative")
    f = np.asarray(field, dtype=float)
    if eps_t == 0.0:
        return f.copy()
    x = grid.x
    pert = f - far_field
    w = np.full(x.size, grid.dx)
    w[0] = w[-1] = 0.5 * grid.dx
    Kmat = heat_kernel(eps_t, x[:, None] - x[None, :])
    return far_field + Kmat @ (pert * w)


def dgttrs_diffuse(f, mus, boundary):
    """The implicit substep by LAPACK's tridiagonal LU, one row at a time:
    the solve the sine-transform one replaced.  f is (2, S, n+1), mus one
    diffusion number per row, boundary one value per field."""
    n = f.shape[-1] - 1
    out = np.empty_like(f)
    for j, b in enumerate(boundary):
        for r, mu in enumerate(mus):
            off = np.full(n - 2, -mu)
            *lu, info = dgttrf(off, np.full(n - 1, 1.0 + 2.0 * mu), off)
            assert info == 0
            rhs = f[j, r, 1:-1].copy()
            rhs[0] += mu * b
            rhs[-1] += mu * b
            out[j, r, 1:-1] = dgttrs(*lu, rhs)[0]
            out[j, r, [0, -1]] = b
    return out


class TestTypes:
    def test_grid_invariants(self):
        with pytest.raises(ConfigError):
            Grid(L=5.0, n=8)
        for L in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="half-width L"):
                Grid(L=L, n=64)
        g = Grid(L=2.0, n=64)
        assert g.dx == pytest.approx(2 * 2.0 / 64)
        assert g.x[0] == -2.0 and g.x[-1] == 2.0

    def test_config_invariants(self):
        with pytest.raises(ConfigError):
            SolverConfig(epsilon=0.0, T=1.0, dt=1e-3)
        with pytest.raises(ConfigError):
            SolverConfig(epsilon=0.1, T=1.0, dt=1e-3, scheme="upwind")
        cfg = SolverConfig(epsilon=0.1, T=1.0, dt=1e-3)
        assert cfg.n_steps == 1000
        with pytest.raises(ConfigError):
            SolverConfig(epsilon=0.1, T=1.0, dt=3e-4).n_steps

    @pytest.mark.parametrize(
        "key, value",
        [
            ("T", float("nan")),
            ("dt", float("inf")),
            ("rho_inf", float("nan")),
            ("rho_inf", float("inf")),
            ("density_floor", float("nan")),
            ("density_floor", -1.0),
        ],
    )
    def test_non_finite_values_rejected(self, key, value):
        # a NaN density floor would disable the positivity guard: rho < nan
        # is never true
        args = dict(epsilon=0.1, T=1.0, dt=1e-3)
        with pytest.raises(ConfigError, match=key):
            SolverConfig(**{**args, key: value})

    @pytest.mark.parametrize("n_saves", [0, -2, 3, 7])
    def test_n_saves_checked_when_made(self, n_saves):
        # T / dt = 50 steps: n_saves must be >= 1 and divide them
        with pytest.raises(ConfigError, match="n_saves"):
            SolverConfig(epsilon=0.1, T=0.05, dt=1e-3, n_saves=n_saves)
        assert SolverConfig(epsilon=0.1, T=0.05, dt=1e-3, n_saves=25).n_steps == 50


class TestEquilibrium:
    def test_constant_state_preserved(self, law2, grid):
        cfg = SolverConfig(epsilon=0.05, T=1.0, dt=1e-3, n_saves=10)
        init = GridState(0.0, np.ones(grid.n + 1), np.zeros(grid.n + 1))
        traj = simulate(init, law2, grid, cfg)
        assert np.max(np.abs(traj.final.rho - 1.0)) < 1e-12
        assert np.max(np.abs(traj.final.mom)) < 1e-12

    def test_energy_nonincreasing_zero_noise(self, law2, grid):
        cfg = SolverConfig(epsilon=0.05, T=0.5, dt=1e-3, n_saves=10)
        traj = simulate(bump_state(grid), law2, grid, cfg)
        assert np.all(np.diff(traj.energy) <= 1e-14)

    def test_determinism_same_seed(self, law2, grid):
        noise = NoiseModel.single_mode(0.2, law2, seed=5, dt_base=1e-3)
        noise = noise.truncate_mollify(0.05, 3.0, 0.25, 1.0)
        cfg = SolverConfig(epsilon=0.05, T=0.1, dt=1e-3, n_saves=5)
        a = simulate(bump_state(grid), law2, grid, cfg, noise, sample_id=2)
        b = simulate(bump_state(grid), law2, grid, cfg, noise, sample_id=2)
        assert np.array_equal(a.final.rho, b.final.rho)
        assert np.array_equal(a.final.mom, b.final.mom)


class TestConvergence:
    def test_temporal_self_convergence_first_order(self, law2, grid):
        finals = []
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = SolverConfig(epsilon=0.05, T=0.5, dt=dt, n_saves=5)
            finals.append(simulate(bump_state(grid), law2, grid, cfg).final.rho)
        e1 = np.max(np.abs(finals[0] - finals[1]))
        e2 = np.max(np.abs(finals[1] - finals[2]))
        assert np.log2(e1 / e2) >= 0.9

    def test_spatial_self_convergence_second_order(self, law2):
        fine = Grid(L=5.0, n=1024)
        cfg = SolverConfig(epsilon=0.05, T=0.25, dt=2.5e-4, n_saves=5)
        ref = simulate(bump_state(fine), law2, fine, cfg).final
        errs = []
        for n in (128, 256):
            g = Grid(L=5.0, n=n)
            out = simulate(bump_state(g), law2, g, cfg).final
            ref_on_g = np.interp(g.x, fine.x, ref.rho)
            errs.append(np.max(np.abs(out.rho - ref_on_g)))
        assert np.log2(errs[0] / errs[1]) >= 1.8

    def test_diffusion_substep_matches_heat_kernel(self, law2, grid):
        # repeated pure-diffusion substeps against the exact semigroup
        cfg = SolverConfig(epsilon=0.05, T=1.0, dt=1e-3)
        stepper = Stepper(law2, grid, cfg)
        f = bump_state(grid).rho
        out = f.copy()
        n_steps = 200
        for _ in range(n_steps):
            out = stepper._diffuse(out, 1.0)
        exact = heat_semigroup_apply(f, cfg.epsilon * n_steps * cfg.dt, grid, 1.0)
        assert np.max(np.abs(out - exact)) < 5e-3  # O(dt) splitting error


class TestSineSolve:
    """The DST-I implicit substep against LAPACK's tridiagonal solve."""

    @pytest.mark.parametrize(
        "eps", [(0.05,), (0.05,) * 12, (0.08, 0.05, 0.05, 0.01)], ids=["S1", "S12", "mixed"]
    )
    def test_matches_dgttrs(self, law2, grid, eps):
        cfg = SolverConfig(epsilon=0.05, T=1.0, dt=1e-3)
        stepper = Stepper(law2, grid, cfg, np.array(eps))
        rng = np.random.default_rng(4)
        f = np.stack((
            1.0 + 0.3 * rng.standard_normal((len(eps), grid.n + 1)),
            0.5 * rng.standard_normal((len(eps), grid.n + 1)),
        ))
        got = stepper._diffuse(f, stepper._far)
        mus = [e * cfg.dt / grid.dx**2 for e in eps]
        want = dgttrs_diffuse(f, mus, (cfg.rho_inf, 0.0))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        for r, e in enumerate(eps):  # each row is its batch of one, bitwise
            lone = Stepper(law2, grid, cfg, np.array([e]))
            alone = lone._diffuse(f[:, r : r + 1], lone._far)[:, 0]
            np.testing.assert_array_equal(alone, got[:, r])

    def test_no_rows(self, law2, grid):
        cfg = SolverConfig(epsilon=0.05, T=1.0, dt=1e-3)
        stepper = Stepper(law2, grid, cfg, np.zeros(0))
        assert stepper._diffuse(np.zeros((2, 0, grid.n + 1)), stepper._far).shape == (
            2, 0, grid.n + 1,
        )


class TestGuards:
    def test_cfl_violation_raises(self, law2, grid):
        cfg = SolverConfig(epsilon=0.05, T=1.0, dt=0.5, n_saves=1)
        with pytest.raises(NumericalError):
            simulate(bump_state(grid), law2, grid, cfg)

    def test_positivity_loss_reported(self, law2):
        # strong outflow drains the center density below the floor, at
        # t = 0.158, inside the CFL bound
        grid = Grid(L=5.0, n=128)
        x = grid.x
        rho = np.full(x.size, 0.2)
        m = 2.0 * np.tanh(2.0 * x) * rho
        cfg = SolverConfig(epsilon=0.01, T=0.2, dt=2e-3, n_saves=1, density_floor=1e-2)
        with pytest.raises(PositivityLoss) as exc:
            simulate(GridState(0.0, rho, m), law2, grid, cfg)
        assert exc.value.rho_min < 1e-2
        assert exc.value.t > 0.0


@pytest.mark.parametrize("T, dt, n_saves", [(0.3, 1e-3, 6), (0.7, 0.07, 5), (0.05, 1e-3, 5)])
def test_save_times_are_the_stepped_times(law2, T, dt, n_saves):
    # sweep-epsilon and young-measure bin these times into cells before
    # any step: they must be the stepper's times bit for bit, since a save
    # time can sit on a cell edge
    grid = Grid(L=5.0, n=32)
    cfg = SolverConfig(epsilon=0.05, T=T, dt=dt, n_saves=n_saves)
    stepper = Stepper(law2, grid, cfg)
    state = init = GridState(0.0, np.ones((1, grid.n + 1)), np.zeros((1, grid.n + 1)))
    times = [0.0]
    for n in range(cfg.n_steps):
        state, _ = stepper.step(state)
        if (n + 1) % (cfg.n_steps // n_saves) == 0:
            times.append(state.t)
    assert np.array_equal(_save_times(cfg), times)
    assert np.array_equal(simulate(init, law2, grid, cfg).times, times)


def batch_case(kind):
    """(init, law, grid, config, noise) of one pinned batch scenario."""
    grid = Grid(L=5.0, n=64)
    common = dict(epsilon=0.05, T=0.04, dt=1e-3, n_saves=4, record_steps=True,
                  record_forcing=True)
    if kind == "composite":
        law = PressureLaw.composite(2.0, 1.6, 0.125, 0.15, 0.9, 1.4)
        return bump_state(grid, amp=0.6), law, grid, SolverConfig(**common), None
    law = PressureLaw.polytropic(2.0)
    noise = NoiseModel.mode_family(0.4, 1.0, 3, law, seed=3, dt_base=1e-3)
    noise = noise.truncate_mollify(0.05, 3.0, 0.25, 1.0)
    return bump_state(grid), law, grid, SolverConfig(scheme=kind, **common), noise


def assert_same_run(traj, one):
    """traj's saves and per-step records are one's, bit for bit."""
    assert np.array_equal(traj.times, one.times)
    for name in ("save_states", "energy", "dissipation", "min_rho", "step_states",
                 "forcing_increments"):
        assert np.array_equal(getattr(traj, name), getattr(one, name)), name


class TestBatch:
    """A batched run is the one-sample run of each of its ids, bitwise."""

    @pytest.mark.parametrize("kind", ["imex", "explicit", "composite"])
    @pytest.mark.parametrize("n_samples", [1, 3, 12])
    def test_batch_equals_one_sample_calls(self, kind, n_samples):
        init, law, grid, cfg, noise = batch_case(kind)
        ids = [5 * s + 1 for s in range(n_samples)]
        batch = simulate(init, law, grid, cfg, noise, ids)
        assert [traj.sample_id for traj in batch] == ids
        for sid, traj in zip(ids, batch):
            assert_same_run(traj, simulate(init, law, grid, cfg, noise, sid))
        if noise is not None and n_samples > 1:
            assert not np.array_equal(batch[0].final.mom, batch[1].final.mom)

    def test_step_records_unpack_as_pairs(self, law2, grid):
        cfg = SolverConfig(epsilon=0.05, T=0.01, dt=1e-3, n_saves=1, record_steps=True)
        traj = simulate(bump_state(grid), law2, grid, cfg)
        assert traj.step_states.shape == (11, 2, grid.n + 1)
        rho, m = traj.step_states[-1]
        assert np.array_equal(rho, traj.final.rho) and np.array_equal(m, traj.final.mom)
        assert simulate(bump_state(grid), law2, grid, cfg, sample_id=[]) == []

    @pytest.mark.parametrize("speeds", [(2.0, 3.0), (3.0, 2.0)])
    def test_error_is_that_of_the_first_failing_sample(self, law2, speeds):
        # outflows drain the density: at speed 2 below the floor at t = 0.158,
        # at speed 3 the CFL bound breaks at t = 0.096; the last sample
        # breaks it at once; so samples 1 and 2 fail in either time order
        grid = Grid(L=5.0, n=128)
        cfg = SolverConfig(epsilon=0.01, T=0.2, dt=2e-3, n_saves=1, density_floor=1e-2)
        rho = np.full((4, grid.n + 1), 0.2)
        m = np.array([0.0, *speeds, 0.0])[:, None] * np.tanh(2.0 * grid.x) * rho
        m[3] = 20.0 * rho[3]
        ids = [10, 11, 12, 13]
        serial = []
        for r in range(4):
            try:
                simulate(GridState(0.0, rho[r], m[r]), law2, grid, cfg, sample_id=ids[r])
                serial.append(None)
            except (PositivityLoss, NumericalError, DivergenceError) as exc:
                serial.append(exc)
        assert serial[0] is None and all(serial[1:])
        assert isinstance(serial[1 + speeds.index(2.0)], PositivityLoss)
        with pytest.raises((PositivityLoss, NumericalError)) as caught:
            simulate(GridState(0.0, rho, m), law2, grid, cfg, sample_id=ids)
        exc = caught.value
        assert exc.sample == 11 and serial[1].sample == 11
        assert type(exc) is type(serial[1]) and str(exc) == str(serial[1])
        if isinstance(exc, PositivityLoss):
            assert (exc.t, exc.x, exc.rho_min) == (serial[1].t, serial[1].x, serial[1].rho_min)
        # two samples failing in the same step: the first one's error
        r = 1 + speeds.index(2.0)
        with pytest.raises(PositivityLoss) as caught:
            simulate(GridState(0.0, rho[[r, r]], m[[r, r]]), law2, grid, cfg, sample_id=[7, 8])
        exc = caught.value
        assert exc.sample == 7
        assert (exc.t, exc.x, exc.rho_min) == (serial[r].t, serial[r].x, serial[r].rho_min)

    @pytest.mark.parametrize("kind", ["imex", "explicit", "composite"])
    def test_far_field_rows_are_a_fixed_point(self, kind):
        # a failed sample's row holds (rho_inf, 0) with zero forcing: each
        # step gives it back bitwise and reports no failure, beside a live
        # row with its own viscosity and forcing
        init, law, grid, cfg, _ = batch_case(kind)
        cfg = replace(cfg, rho_inf=1.2)
        stepper = Stepper(law, grid, cfg, np.array([0.05, 0.02, 0.08]))
        far = np.full(grid.n + 1, 1.2)
        rho = np.stack([far, init.rho + 0.2, far])
        m = np.zeros_like(rho)
        m[1] = 0.3 * np.sin(grid.x) * rho[1]
        forcing = np.zeros_like(rho)
        forcing[1] = 1e-3 * np.sin(grid.x)
        state = GridState(0.0, rho, m)
        for _ in range(5):
            state, failures = stepper.step(state, forcing)
            assert failures == []
            assert np.array_equal(state.rho[[0, 2]], [far, far])
            assert np.array_equal(state.mom[[0, 2]], np.zeros((2, grid.n + 1)))
            assert not np.array_equal(state.mom[1], m[1])

    def test_samples_after_a_failing_one_stop_with_it(self, law2, monkeypatch):
        # sample 0 breaks the CFL bound at its first step; the run raises
        # its error whatever the other eleven do, so no second step is taken
        grid = Grid(L=5.0, n=128)
        cfg = SolverConfig(epsilon=0.01, T=0.2, dt=2e-3, n_saves=1)
        rho = np.ones((12, grid.n + 1))
        m = np.zeros_like(rho)
        m[0] = 20.0
        calls = []
        step = Stepper.step
        monkeypatch.setattr(
            Stepper, "step", lambda self, *a: calls.append(len(a[0].rho)) or step(self, *a)
        )
        with pytest.raises(NumericalError) as caught:
            simulate(GridState(0.0, rho, m), law2, grid, cfg, sample_id=list(range(12)))
        assert caught.value.sample == 0
        assert calls == [12]


def sweep_loop(init, law, grid, config, noise_template, eps_list, c1, alpha1):
    """The one-member-at-a-time sweep that the batched sweep replaced, kept
    as its oracle: (config, noise, Trajectory or error) per member."""
    out = []
    for eps in eps_list:
        member = replace(config, epsilon=eps)
        noise = None
        if noise_template is not None and noise_template.n_modes > 0:
            noise = noise_template.truncate_mollify(eps, c1, alpha1, config.rho_inf)
        try:
            traj = simulate(init, law, grid, member, noise, 0)
        except (PositivityLoss, DivergenceError, NumericalError) as exc:
            traj = exc
        out.append((member, noise, traj))
    return out


def assert_sweep_matches_loop(init, law, grid, config, noise, eps_list, c1=3.0, alpha1=0.25):
    swept = epsilon_sweep(init, law, grid, config, noise, eps_list, c1=c1, alpha1=alpha1)
    lone = sweep_loop(init, law, grid, config, noise, eps_list, c1, alpha1)
    assert [eps for eps, _ in swept] == list(eps_list)
    for (eps, traj), (member, member_noise, one) in zip(swept, lone):
        assert traj.config == member and traj.config.epsilon == eps
        assert traj.H == (member_noise.H if member_noise is not None else None)
        if isinstance(one, Exception):
            exc = traj.error
            assert type(exc) is type(one) and str(exc) == str(one)
            assert (exc.sample, exc.t) == (one.sample, one.t)
            if isinstance(one, PositivityLoss):
                assert (exc.x, exc.rho_min) == (one.x, one.rho_min)
            assert traj.times.tolist() == [0.0] and np.isnan(traj.energy).all()
            continue
        assert traj.error is None
        assert np.array_equal(traj.times, one.times)
        for name in ("save_states", "energy", "dissipation", "min_rho", "step_states",
                     "forcing_increments"):
            assert np.array_equal(getattr(traj, name), getattr(one, name)), name
    return swept


class TestSweep:
    """A batched sweep's members are the lone simulate runs, bitwise."""

    @pytest.mark.parametrize("scheme", ["imex", "explicit"])
    def test_members_equal_lone_runs(self, scheme):
        init, law, grid, cfg, _ = batch_case(scheme)
        noise = NoiseModel.mode_family(0.4, 1.0, 3, law, seed=3, dt_base=1e-3)
        swept = assert_sweep_matches_loop(init, law, grid, cfg, noise, [0.08, 0.05, 0.02])
        finals = [traj.final.mom for _, traj in swept]
        assert not np.array_equal(finals[0], finals[1])

    def test_members_keep_their_mode_caps(self):
        # caps 2, 4 and 10 of 20 modes; the whole-line cutoff and the
        # momentum, which leaves Gamma_H, differ per member
        init, law, grid, cfg, _ = batch_case("imex")
        init = GridState(0.0, init.rho, 3.0 * np.sin(grid.x) * init.rho)
        noise = NoiseModel.mode_family(
            0.4, 0.5, 20, law, seed=4, dt_base=1e-3, support_kind="whole_line"
        )
        swept = assert_sweep_matches_loop(init, law, grid, cfg, noise, [0.5, 0.25, 0.1])
        assert [len(traj.forcing_increments) for _, traj in swept] == [40] * 3

    def test_noise_free_members(self):
        init, law, grid, cfg, _ = batch_case("imex")
        swept = assert_sweep_matches_loop(init, law, grid, cfg, None, [0.2, 0.05, 0.01])
        assert all(traj.H is None and not traj.forcing_increments.any() for _, traj in swept)

    def test_failing_middle_member(self):
        # with seed 292 the member at eps 0.3 falls below the density floor
        # at t = 0.161, while the members at 0.5 and 0.2 finish
        law = PressureLaw.polytropic(2.0)
        grid = Grid(L=5.0, n=64)
        x = grid.x
        init = GridState(0.0, 1.0 + 0.3 * np.exp(-(x**2) / 0.5), np.zeros_like(x))
        cfg = SolverConfig(epsilon=0.05, T=0.2, dt=1e-3, n_saves=2, density_floor=0.9)
        noise = NoiseModel.mode_family(4.0, 0.0, 6, law, seed=292, dt_base=1e-3)
        swept = assert_sweep_matches_loop(init, law, grid, cfg, noise, [0.5, 0.3, 0.2])
        assert [traj.error is None for _, traj in swept] == [True, False, True]
        assert isinstance(swept[1][1].error, PositivityLoss)
        assert swept[1][1].error.sample == 0

    def test_member_breaking_its_diffusion_bound(self):
        # explicit diffusion at eps 0.5 needs dt <= 3.05e-4 on 256 cells:
        # that member fails at t = 0, and its far-field row, whose bound is
        # its viscosity's alone, breaks it at every later step too.  It
        # keeps its first error, that of a lone run
        init, law, _, cfg, _ = batch_case("explicit")
        grid = Grid(L=5.0, n=256)
        init = bump_state(grid)
        swept = assert_sweep_matches_loop(init, law, grid, cfg, None, [0.5, 0.05])
        assert isinstance(swept[0][1].error, NumericalError)
        assert swept[0][1].error.t == 0.0 and swept[1][1].error is None

    def test_decreasing_enforced(self, law2, grid):
        cfg = SolverConfig(epsilon=0.05, T=0.1, dt=1e-3, n_saves=5)
        with pytest.raises(ConfigError):
            epsilon_sweep(bump_state(grid), law2, grid, cfg, None, [0.01, 0.05])

    def test_single_element_equals_simulate(self, law2, grid):
        cfg = SolverConfig(epsilon=0.05, T=0.1, dt=1e-3, n_saves=5)
        [(eps, traj)] = epsilon_sweep(
            bump_state(grid), law2, grid, cfg, None, [0.05]
        )
        direct = simulate(bump_state(grid), law2, grid, cfg)
        assert eps == 0.05
        assert np.array_equal(traj.final.rho, direct.final.rho)

    def test_member_reports_its_h(self, law2, grid):
        cfg = SolverConfig(epsilon=0.05, T=0.01, dt=1e-3, n_saves=1)
        noise = NoiseModel.single_mode(0.3, law2, seed=1, dt_base=1e-3)
        out = epsilon_sweep(
            bump_state(grid), law2, grid, cfg, noise, [0.05, 0.02], c1=3.0, alpha1=0.25
        )
        assert out[1][1].H == pytest.approx(3.0 * 0.02**-0.25, rel=1e-15)
        assert out[0][1].H == pytest.approx(6.344227580643, rel=1e-12)
        assert epsilon_sweep(bump_state(grid), law2, grid, cfg, None, [0.05])[0][1].H is None

    def test_member_failure_recorded(self, law2, grid):
        x = grid.x
        rho = np.full(x.size, 0.2)
        m = 2.0 * np.tanh(2.0 * x) * rho
        cfg = SolverConfig(epsilon=0.05, T=2.0, dt=2e-3, n_saves=1, density_floor=1e-2)
        out = epsilon_sweep(GridState(0.0, rho, m), law2, grid, cfg, None, [0.05, 0.01])
        assert any(traj.error is not None for _, traj in out)
        assert len(out) == 2


class TestHeatKernel:
    def test_peak_value(self):
        assert heat_kernel(1.0 / (4.0 * np.pi), 0.0) == pytest.approx(1.0)

    def test_mass_conservation(self, grid):
        f = bump_state(grid).rho
        out = heat_semigroup_apply(f, 0.05, grid, far_field=1.0)
        m_in = np.trapezoid(f - 1.0, dx=grid.dx)
        m_out = np.trapezoid(out - 1.0, dx=grid.dx)
        assert m_out == pytest.approx(m_in, abs=1e-8)

    def test_gaussian_in_gaussian_out(self, grid):
        s0 = 0.3
        x = grid.x
        f = np.exp(-(x**2) / (2 * s0**2))
        t = 0.05
        out = heat_semigroup_apply(f, t, grid)
        s1 = np.sqrt(s0**2 + 2 * t)
        exact = s0 / s1 * np.exp(-(x**2) / (2 * s1**2))
        assert np.max(np.abs(out - exact)) < 1e-6

    def test_identity_at_zero(self, grid):
        f = bump_state(grid).rho
        assert np.array_equal(heat_semigroup_apply(f, 0.0, grid, 1.0), f)


# ---------------------------------------------------------------------------
# the shared per-state pass against the stand-alone formulas it replaced
# ---------------------------------------------------------------------------

# the example run file of the README
README_RUN = {
    "law": {"kind": "polytropic", "gamma": 2.0},
    "grid": {"L": 5.0, "n": 256},
    "solver": {"epsilon": 0.05, "T": 0.5, "dt": 1.0e-3, "n_saves": 10},
    "initial": {"kind": "bump", "amplitude": 0.3, "width": 0.5},
    "noise": {"kind": "single_mode", "amplitude": 0.3, "c1": 3.0, "alpha1": 0.25},
    "seed": 7,
}


def quotient_energy(law, grid, rho, m, rho_inf):
    """The relative energy with its kinetic part m^2/rho taken afresh."""
    pos = rho > 0.0
    kin = np.where(pos, 0.5 * m**2 / np.where(pos, rho, 1.0), 0.0)
    integrand = kin + law.relative_internal_energy(rho, rho_inf)
    return np.trapezoid(integrand, dx=grid.dx, axis=-1)


def gradient_dissipation(law, grid, rho, m):
    """The dissipation rate from two np.gradient calls and dpressure."""
    dx = grid.dx
    rho_x = np.gradient(rho, dx, axis=-1)
    pos = rho > 0.0
    u = np.where(pos, m / np.where(pos, rho, 1.0), 0.0)
    u_x = np.gradient(u, dx, axis=-1)
    w = np.where(pos, law.dpressure(rho) / np.where(pos, rho, 1.0), 0.0)
    return np.trapezoid(w * rho_x**2 + rho * u_x**2, dx=dx, axis=-1)


def dpressure_dt_max(stepper, rho, m):
    """The CFL bound with its sound speed from dpressure."""
    cfg, dx = stepper.config, stepper.grid.dx
    pos = rho > 0.0
    u = np.where(pos, m / np.where(pos, rho, 1.0), 0.0)
    c = np.sqrt(stepper.law.dpressure(np.where(pos, rho, 1.0)))
    speed = np.where(pos, np.abs(u) + c, -np.inf).max(axis=-1)
    speed[~(speed > 0.0)] = 1e-30
    dt_max = CFL_NUMBER * dx / speed
    if cfg.scheme == "explicit":
        dt_max = np.minimum(dt_max, DIFFUSION_NUMBER * dx**2 / (2.0 * stepper.epsilon))
    return dt_max


def afresh_forcing(noise, x, rho, m, dW):
    """The forcing of a model mollified for one epsilon, each mode's
    profile, the Gamma_H indicator and the cutoff evaluated afresh."""
    pos = rho > 0.0
    rp = np.where(pos, rho, 1.0)
    u = np.where(pos, m / rp, 0.0)
    K = np.where(pos, noise.law.k_integral(rp), 0.0)
    upper = (noise.H - (u + K)) / noise.epsilon
    lower = ((u - K) + noise.H) / noise.epsilon
    indicator = np.where(pos, _smoothstep(upper)[0] * _smoothstep(lower)[0], 0.0)
    cutoff = np.ones_like(x)
    if noise.support_kind == "whole_line":
        cutoff = _smoothstep(2.0 * (1.0 - np.abs(noise.epsilon * x)))[0]
    out = np.zeros_like(rho)
    for k, mode in enumerate(noise.modes):
        out = out + mode.a * (mode(x, rho, m) * indicator * cutoff) * dW[:, k, None]
    return out


def pressure_step(stepper, rho, m, forcing):
    """One step of each row with its flux pressure from law.pressure."""
    dx, dt = stepper.grid.dx, stepper.config.dt
    pos = rho > 0.0
    flux = np.where(pos, m**2 / np.where(pos, rho, 1.0), 0.0) + stepper.law.pressure(rho)
    new = np.stack((rho, m))
    new[0, :, 1:-1] = rho[:, 1:-1] - dt * (m[:, 2:] - m[:, :-2]) / (2.0 * dx)
    new[1, :, 1:-1] = m[:, 1:-1] - dt * (flux[:, 2:] - flux[:, :-2]) / (2.0 * dx)
    if forcing is not None:
        new[1, :, 1:-1] += forcing[:, 1:-1]
    return stepper._diffuse(new, stepper._far)


def assert_matches_oracle(traj, noise):
    """Every recorded step of traj, redone by the stand-alone formulas with
    the steps as rows: the energies, dissipation, minimum densities, CFL
    bounds, forcing, next states and saved frames, bit for bit.  noise is
    the model mollified for traj's own epsilon, or None."""
    law, grid, cfg = traj.law, traj.grid, traj.config
    stepper = Stepper(law, grid, cfg)
    steps = traj.step_states
    rho, m = np.ascontiguousarray(steps[:, 0]), np.ascontiguousarray(steps[:, 1])
    start_rho, start_m = rho[:-1], m[:-1]
    assert np.array_equal(traj.energy, quotient_energy(law, grid, rho, m, cfg.rho_inf))
    rate = gradient_dissipation(law, grid, start_rho, start_m)
    diss = np.cumsum(np.concatenate(([0.0], cfg.epsilon * cfg.dt * rate)))
    assert np.array_equal(traj.dissipation, diss)
    assert np.array_equal(traj.min_rho, rho.min(axis=-1))
    fields = StateFields(law, start_rho, start_m)
    assert np.array_equal(
        stepper._dt_max(fields), dpressure_dt_max(stepper, start_rho, start_m)
    )
    forcing = None
    if noise is not None:
        dW = np.array([
            noise.sample_increments(traj.sample_id, n, cfg.dt) for n in range(cfg.n_steps)
        ])
        forcing = afresh_forcing(noise, grid.x, start_rho, start_m, dW)
        assert np.array_equal(traj.forcing_increments, forcing)
    stepped = pressure_step(stepper, start_rho, start_m, forcing)
    assert np.array_equal(stepped, steps[1:].transpose(1, 0, 2))
    every = cfg.n_steps // cfg.n_saves
    assert traj.save_states.shape == (cfg.n_saves + 1, 2, grid.n + 1)
    assert np.array_equal(traj.save_states, steps[::every])


class TestSharedStatePass:
    """Each state's u, P and P' are computed once and shared by the CFL
    guard, the flux, the energy, the dissipation and the noise; the
    results are those of the stand-alone formulas, bitwise."""

    def test_readme_ensemble(self):
        cfg = config_from_dict(README_RUN)
        sc = replace(cfg.solver, record_steps=True, record_forcing=True)
        init = cfg.initial.build(cfg.grid, sc.rho_inf)
        trajs = simulate(init, cfg.law, cfg.grid, sc, cfg.noise, list(range(12)))
        for traj in trajs:
            assert_matches_oracle(traj, cfg.noise)

    def test_explicit_scheme(self):
        init, law, grid, cfg, noise = batch_case("explicit")
        for traj in simulate(init, law, grid, cfg, noise, [1, 2, 3]):
            assert_matches_oracle(traj, noise)

    def test_sweep_members(self):
        init, law, grid, cfg, _ = batch_case("imex")
        # the momentum leaves Gamma_H of the first member
        init = GridState(0.0, init.rho, 3.0 * np.sin(grid.x) * init.rho)
        template = NoiseModel.mode_family(
            0.4, 1.0, 3, law, seed=3, dt_base=1e-3, support_kind="whole_line"
        )
        eps_list = [0.5, 0.2, 0.05]
        for eps, traj in epsilon_sweep(
            init, law, grid, cfg, template, eps_list, c1=3.0, alpha1=0.25
        ):
            assert traj.error is None
            noise = template.truncate_mollify(eps, 3.0, 0.25, 1.0)
            assert_matches_oracle(traj, noise)
            rho, m = traj.step_states[:, 0], traj.step_states[:, 1]
            if eps == eps_list[0]:
                assert noise._indicator(StateFields(law, rho, m)).min() < 1.0

    def test_composite_blend_window(self):
        init, law, grid, cfg, _ = batch_case("composite")
        traj = simulate(init, law, grid, cfg)
        rho = traj.step_states[:, 0]
        assert (rho < law.rho_lo).any() or (rho > law.rho_hi).any()
        assert ((rho > law.rho_lo) & (rho < law.rho_hi)).any()
        assert_matches_oracle(traj, None)

    def test_density_checked_once_per_state_per_step(self, monkeypatch):
        cfg = config_from_dict(README_RUN)
        sc, n_samples = cfg.solver, 12
        init = cfg.initial.build(cfg.grid, sc.rho_inf)
        passes, parts, checks, masks = [], [], [], []
        spy(monkeypatch, StateFields, "__init__", passes, lambda self, law, rho, m: rho)
        spy(monkeypatch, StateFields, "_mask", masks, lambda self, rho: rho)
        spy(monkeypatch, PressureLaw, "_pressure_parts", parts, lambda self, rho, k: rho)
        spy(monkeypatch, PressureLaw, "_check_nonneg", checks, lambda rho: rho, static=True)
        bumps = []
        plain_bump = noise_module.bump
        monkeypatch.setattr(
            noise_module, "bump", lambda *a, **k: bumps.append(1) or plain_bump(*a, **k)
        )
        simulate(init, cfg.law, cfg.grid, sc, cfg.noise, list(range(n_samples)))
        # each state, the initial one and one per step, has one pass, whose
        # one sign test (every rho > 0) leaves out the check and the mask:
        # one (P, P') evaluation per state and no other of its shape
        nodes = cfg.grid.n + 1
        states = [(n_samples, nodes)] * (sc.n_steps + 1)
        assert passes == states
        assert [s for s in parts if s == (n_samples, nodes)] == states
        assert (n_samples, nodes) not in checks + masks
        # e* checks each block of 2 steps (the last state alone) in its
        # shape, and e(rho_inf) and P(rho_inf) once per law; no other
        blocks = [(n_samples, 2, nodes)] * (sc.n_steps // 2) + [(n_samples, 1, nodes)]
        assert sorted(checks, key=len) == [(), ()] + blocks
        # the mode's profile is evaluated once per grid, by every later run too
        simulate(init, cfg.law, cfg.grid, sc, cfg.noise, 3)
        assert len(bumps) == cfg.noise.n_modes == 1

    def test_negative_initial_density_rejected_before_stepping(self, law2, grid, monkeypatch):
        init = bump_state(grid)
        init.rho[100] = -1e-3
        steps = []
        step = Stepper.step
        monkeypatch.setattr(
            Stepper, "step", lambda self, *a: steps.append(1) or step(self, *a)
        )
        cfg = SolverConfig(epsilon=0.05, T=0.01, dt=1e-3, n_saves=1)
        with pytest.raises(DomainError):
            simulate(init, law2, grid, cfg)
        assert steps == []
        with pytest.raises(DomainError):
            relative_energy(law2, grid, init.rho, init.mom, 1.0)
        with pytest.raises(DomainError):
            dissipation_rate(law2, grid, init.rho, init.mom)

    @pytest.mark.parametrize("kind", ["polytropic", "composite"])
    def test_vacuum_nodes(self, grid, kind):
        law = PressureLaw.polytropic(2.0)
        if kind == "composite":
            law = PressureLaw.composite(2.0, 1.6, 0.125, 0.15, 0.9, 1.4)
        state = bump_state(grid, amp=0.6)
        rho, m = state.rho, 0.2 * np.sin(grid.x) * state.rho
        rho[:40] = rho[120:130] = 0.0
        m[:40] = m[120:130] = 0.0
        with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            energy = relative_energy(law, grid, rho, m, 1.0)
            rate = dissipation_rate(law, grid, rho, m)
            assert energy == quotient_energy(law, grid, rho, m, 1.0)
            assert rate == gradient_dissipation(law, grid, rho, m)
        assert np.isfinite(energy) and np.isfinite(rate) and rate > 0.0


def spy(monkeypatch, owner, name, shapes, picks, static=False):
    """Replace owner.name by a wrapper that appends the shape of the array
    that picks(*args) returns to shapes, then calls the original."""
    plain = getattr(owner, name)

    def spied(*args):
        shapes.append(np.shape(picks(*args)))
        return plain(*args)

    monkeypatch.setattr(owner, name, staticmethod(spied) if static else spied)


def block_sizes(monkeypatch, points=None):
    """Blocks of at most `points` node-points, or of solver.BLOCK_POINTS if
    None; returns the list that then gets the number of states of each
    block simulate evaluates."""
    if points is not None:
        monkeypatch.setattr(solver, "BLOCK_POINTS", points)
    sizes = []
    energy = solver.relative_energy

    def counted(law, grid, rho, *a):
        sizes.append(rho.shape[1])
        return energy(law, grid, rho, *a)

    monkeypatch.setattr(solver, "relative_energy", counted)
    return sizes


class TestBlocks:
    """simulate evaluates the per-step functionals a block of steps at a
    time, each step writing its new state into the block.  Runs over
    several blocks, the last one partial, blocks of one step, and rows
    that fail inside a block give the stand-alone formulas' values and
    those of lone runs, bitwise, and the lone run's error."""

    @pytest.mark.parametrize("kind", ["imex", "explicit", "composite"])
    def test_run_spans_several_blocks(self, kind, monkeypatch):
        init, law, grid, cfg, noise = batch_case(kind)
        ids = [1, 6, 11]
        sizes = block_sizes(monkeypatch, 7 * len(ids) * (grid.n + 1))
        batch = simulate(init, law, grid, cfg, noise, ids)
        assert sizes == [7] * 5 + [6]  # the 41 states of 40 steps
        for sid, traj in zip(ids, batch):
            assert_matches_oracle(traj, noise)
            sizes.clear()
            assert_same_run(traj, simulate(init, law, grid, cfg, noise, sid))
            assert sizes == [21, 20]

    @pytest.mark.parametrize("steps", [2, 3])
    def test_short_blocks(self, steps, monkeypatch):
        # a batch in blocks of 2 or 3 steps, a lone run (a third of the
        # points) in blocks of 6 or 9.  The far field is not 1: e* carries
        # rho_inf
        init, law, grid, cfg, noise = batch_case("imex")
        cfg = replace(cfg, rho_inf=1.2)
        init = GridState(0.0, init.rho + 0.2, init.mom)
        ids = [1, 6, 11]

        def split(k):  # the 41 states of 40 steps in blocks of k
            return [k] * (41 // k) + [41 % k] * (41 % k > 0)

        sizes = block_sizes(monkeypatch, steps * len(ids) * (grid.n + 1))
        batch = simulate(init, law, grid, cfg, noise, ids)
        assert sizes == split(steps)
        for sid, traj in zip(ids, batch):
            assert_matches_oracle(traj, noise)
            sizes.clear()
            assert_same_run(traj, simulate(init, law, grid, cfg, noise, sid))
            assert sizes == split(3 * steps)

    @pytest.mark.parametrize("wide", [False, True])
    def test_one_step_blocks(self, wide, monkeypatch):
        # a block of one step, so each step writes its new state into the
        # slot that its own state was just flushed from: three rows in
        # blocks of rows x nodes, or eight rows at n = 1024, wider than
        # BLOCK_POINTS.  A lone run takes blocks of 3 or 7 steps
        init, law, grid, cfg, noise = batch_case("imex")
        ids = [1, 6, 11]
        points, lone = len(ids) * (grid.n + 1), [3] * 13 + [2]
        if wide:
            grid = Grid(L=5.0, n=1024)
            init, ids = bump_state(grid), [1, 6, 11, 16, 21, 26, 31, 36]
            points, lone = None, [7] * 5 + [6]
            assert len(ids) * (grid.n + 1) > solver.BLOCK_POINTS
        sizes = block_sizes(monkeypatch, points)
        batch = simulate(init, law, grid, cfg, noise, ids)
        assert sizes == [1] * 41
        for sid, traj in zip(ids, batch):
            assert_matches_oracle(traj, noise)
            sizes.clear()
            assert_same_run(traj, simulate(init, law, grid, cfg, noise, sid))
            assert sizes == lone

    def test_each_state_evaluated_once(self, monkeypatch):
        # the step's pass checks each state's density, e* is evaluated by
        # the public method once per block (which checks the block's signs
        # again), the dissipation rate only of the states that begin a step
        init, law, grid, cfg, _ = batch_case("composite")
        block_sizes(monkeypatch, 7 * (grid.n + 1))
        estar, rates, checks = [], [], []
        public = PressureLaw.relative_internal_energy
        monkeypatch.setattr(
            PressureLaw, "relative_internal_energy",
            lambda self, rho, rho_inf: estar.append(rho.shape) or public(self, rho, rho_inf),
        )
        rate = solver.dissipation_rate
        monkeypatch.setattr(
            solver, "dissipation_rate",
            lambda law, grid, rho, *a: rates.append(rho.shape[1]) or rate(law, grid, rho, *a),
        )
        passes = []
        spy(monkeypatch, StateFields, "__init__", passes, lambda self, law, rho, m: rho)
        spy(monkeypatch, PressureLaw, "_check_nonneg", checks, lambda rho: rho, static=True)
        simulate(init, law, grid, cfg)
        blocks = [(1, 7, grid.n + 1)] * 5 + [(1, 6, grid.n + 1)]
        assert estar == blocks
        assert rates == [7] * 5 + [5]  # the 40 steps; the last state begins none
        # one pass per state, whose one sign test is the state's only check
        assert passes == [(1, grid.n + 1)] * (cfg.n_steps + 1)
        assert (1, grid.n + 1) not in checks
        assert [c for c in checks if len(c) == 3] == blocks

    @pytest.mark.parametrize("keep_failures", [False, True])
    def test_rows_failing_inside_a_block(self, keep_failures, monkeypatch):
        # outflows drain the density of rows 1 and 3 below the floor, in
        # states 11 and 35: inside the block of states 7-13, and in the
        # first slot of that of states 35-40.  A failed row keeps its
        # place in the batch, so the blocks are those of a run with none
        init, law, grid, cfg, noise = batch_case("imex")
        cfg = replace(cfg, density_floor=0.99)
        rho = np.stack([init.rho, np.ones(grid.n + 1), init.rho, np.ones(grid.n + 1)])
        m = np.array([0.0, 0.5, 0.3, 0.15])[:, None] * np.tanh(2.0 * grid.x) * rho
        ids = [2, 4, 6, 8]
        sizes = block_sizes(monkeypatch, 7 * len(ids) * (grid.n + 1))
        lone = []
        for r, sid in enumerate(ids):
            try:
                lone.append(simulate(GridState(0.0, rho[r], m[r]), law, grid, cfg, noise, sid))
            except PositivityLoss as exc:
                lone.append(exc)
        assert [round(lone[r].t / cfg.dt) for r in (1, 3)] == [11, 35]
        sizes.clear()
        inputs = []  # the (rho, m, forcing) of rows 1 and 3 that each step gets
        step = Stepper.step

        def spy(self, state, forcing, *a):
            rows = [1, 3]
            inputs.append((state.rho[rows].copy(), state.mom[rows].copy(), forcing[rows]))
            return step(self, state, forcing, *a)

        def assert_held():
            # from its failed state on, a row steps the far field, unforced
            assert len(inputs) == cfg.n_steps
            for n, (rho_in, m_in, f_in) in enumerate(inputs):
                for j, failed in enumerate((11, 35)):
                    held = (rho_in[j] == cfg.rho_inf).all() and not m_in[j].any()
                    assert held == (n >= failed)
                    assert f_in[j].any() == (n < failed)

        monkeypatch.setattr(Stepper, "step", spy)
        if not keep_failures:
            with pytest.raises(PositivityLoss) as caught:
                simulate(GridState(0.0, rho, m), law, grid, cfg, noise, ids)
            exc, want = caught.value, lone[1]
            assert exc.sample == want.sample == 4 and str(exc) == str(want)
            assert (exc.t, exc.x, exc.rho_min) == (want.t, want.x, want.rho_min)
            assert sizes == [7] * 5 + [6]  # row 0 goes on to the end
            assert_held()
            return
        batch = simulate(GridState(0.0, rho, m), law, grid, cfg, noise, ids,
                         keep_failures=True)
        assert sizes == [7] * 5 + [6]
        assert_held()
        for r, (traj, one) in enumerate(zip(batch, lone)):
            if isinstance(one, PositivityLoss):
                assert traj.error.sample == one.sample and str(traj.error) == str(one)
                assert (traj.error.t, traj.error.x) == (one.t, one.x)
                # its initial state, which no later block overwrites
                assert np.array_equal(traj.save_states, np.stack((rho[r], m[r]))[None])
            else:
                assert traj.error is None
                assert_matches_oracle(traj, noise)
                assert_same_run(traj, one)


class TestSaveLayout:
    """simulate copies a run's saves out of its blocks of steps: save j is
    recorded state j * every, bit for bit, whatever the block size, the
    slot of a block that a save falls in, and the rows that fail."""

    @pytest.mark.parametrize("n_saves", [1, 8, 40])
    @pytest.mark.parametrize("steps", [1, 3, 31])
    def test_saves_are_their_steps(self, steps, n_saves, monkeypatch):
        init, law, grid, cfg, noise = batch_case("imex")
        cfg = replace(cfg, n_saves=n_saves)
        ids = [1, 6, 11]
        sizes = block_sizes(monkeypatch, steps * len(ids) * (grid.n + 1))
        batch = simulate(init, law, grid, cfg, noise, ids)
        # the 41 states of 40 steps: a run that ends mid-block unless steps = 1
        assert sizes == [steps] * (41 // steps) + [41 % steps] * (41 % steps > 0)
        unrecorded = replace(cfg, record_steps=False, record_forcing=False)
        every = cfg.n_steps // n_saves
        for sid, traj in zip(ids, batch):
            assert traj.save_states.shape == (n_saves + 1, 2, grid.n + 1)
            assert np.array_equal(traj.times, _save_times(cfg))
            for j in range(n_saves + 1):
                assert np.array_equal(traj.save_states[j], traj.step_states[j * every])
            final = traj.final
            assert final.t == traj.times[-1]
            assert np.array_equal(np.stack((final.rho, final.mom)), traj.step_states[-1])
            lone = simulate(init, law, grid, unrecorded, noise, sid)
            assert np.array_equal(lone.save_states, traj.save_states)

    @pytest.mark.parametrize("steps", [1, 3, 31])
    def test_batch_with_a_failed_row(self, steps, monkeypatch):
        # row 1 falls below the floor in state 11, as in TestBlocks; the
        # others keep their saves, and row 1 keeps only its initial state
        init, law, grid, cfg, noise = batch_case("imex")
        cfg = replace(cfg, density_floor=0.99, n_saves=8)
        rho = np.stack([init.rho, np.ones(grid.n + 1), init.rho])
        m = np.array([0.0, 0.5, 0.3])[:, None] * np.tanh(2.0 * grid.x) * rho
        block_sizes(monkeypatch, steps * 3 * (grid.n + 1))
        batch = simulate(GridState(0.0, rho, m), law, grid, cfg, noise, [2, 4, 6],
                         keep_failures=True)
        assert [traj.error is None for traj in batch] == [True, False, True]
        assert round(batch[1].error.t / cfg.dt) == 11
        assert np.array_equal(batch[1].save_states, np.stack((rho[1], m[1]))[None])
        assert batch[1].times.tolist() == [0.0]
        for traj in (batch[0], batch[2]):
            for j in range(cfg.n_saves + 1):
                assert np.array_equal(traj.save_states[j], traj.step_states[j * 5])


def masked_fields(law, rho, m):
    """StateFields of (rho, m) made to take the vacuum masks, as every
    state did before the mask-free pass."""
    fields = StateFields(law, rho, m)
    fields.pos = rho > 0.0
    fields.rp = np.where(fields.pos, rho, 1.0)
    fields.u = np.where(fields.pos, m / fields.rp, 0.0)
    return fields


class TestMaskFreePass:
    """A state with every rho > 0 skips the vacuum masks; its readers give
    the masked formulas' values, bitwise."""

    @pytest.mark.parametrize("kind", ["polytropic", "composite"])
    def test_readers_equal_masked_formulas(self, grid, kind):
        law = PressureLaw.polytropic(2.0)
        if kind == "composite":
            law = PressureLaw.composite(2.0, 1.6, 0.125, 0.15, 0.9, 1.4)
        cfg = SolverConfig(epsilon=0.05, T=0.01, dt=1e-3, n_saves=1)
        stepper = Stepper(law, grid, cfg)
        rows = [bump_state(grid, amp=a) for a in (0.3, 0.6, -0.5)]
        rho = np.stack([s.rho for s in rows])
        m = np.stack([(0.2 + 2.5 * r) * np.sin(grid.x) * s.rho for r, s in enumerate(rows)])
        fields, masked = StateFields(law, rho, m), masked_fields(law, rho, m)
        assert fields.pos is None and fields.rp is rho and masked.pos.all()
        assert np.array_equal(fields.u, masked.u)
        for f in (relative_energy, dissipation_rate):
            args = (law, grid, rho, m) + ((1.0,) if f is relative_energy else ())
            assert np.array_equal(f(*args, fields), f(*args, masked))
        assert np.array_equal(stepper._dt_max(fields), stepper._dt_max(masked))
        noise = NoiseModel.mode_family(0.4, 1.0, 3, law, seed=3, dt_base=1e-3)
        # a wide Gamma_H, where both steps are exactly 1, and a narrow one
        for c1 in (30.0, 3.0):
            model = noise.truncate_mollify([0.05, 0.2, 0.5], c1, 0.25, 1.0)
            # None stands for an indicator of exactly 1, on states without
            # vacuum; the masked pass gives its ones
            a, b = model._indicator(fields), model._indicator(masked)
            if a is None:
                a = np.ones_like(b)
            assert np.array_equal(a, b)
            assert (a.min() < 1.0) == (c1 == 3.0)
            dW = model.sample_increments([0, 1, 2], 0, cfg.dt)
            forcing = model.apply_forcing(grid.x, rho, m, dW, fields)
            assert np.array_equal(forcing, model.apply_forcing(grid.x, rho, m, dW, masked))
            (got, _), (want, _) = (
                stepper.step(GridState(0.0, rho, m), forcing, f) for f in (fields, masked)
            )
            assert np.array_equal(got.rho, want.rho) and np.array_equal(got.mom, want.mom)

    def test_vacuum_with_momentum_is_masked(self, law2, grid):
        # m = 0.3 on a vacuum node: every reader must zero it there
        state = bump_state(grid)
        rho, m = state.rho[None].copy(), 0.1 * np.sin(grid.x)[None] * state.rho
        rho[0, 60], m[0, 60] = 0.0, 0.3
        fields = StateFields(law2, rho, m)
        assert fields.pos is not None and fields.u[0, 60] == 0.0
        assert relative_energy(law2, grid, rho, m, 1.0, fields) == quotient_energy(
            law2, grid, rho, m, 1.0
        )
        assert dissipation_rate(law2, grid, rho, m, fields) == gradient_dissipation(
            law2, grid, rho, m
        )
        cfg = SolverConfig(epsilon=0.05, T=0.01, dt=1e-3, n_saves=1)
        stepper = Stepper(law2, grid, cfg)
        assert np.array_equal(stepper._dt_max(fields), dpressure_dt_max(stepper, rho, m))
        noise = NoiseModel.single_mode(0.3, law2, seed=7, dt_base=1e-3)
        indicator = noise.truncate_mollify(0.05, 3.0, 0.25, 1.0)._indicator(fields)
        assert indicator[0, 60] == 0.0 and indicator[0, 59] == 1.0

    def test_vacuum_batch_takes_the_masks(self, grid):
        # density_floor 0 lets a vacuum node start the run: the batch's
        # first state takes the masks, every later one (the diffusion fills
        # the node) and the lone run of the other row do not
        law = PressureLaw.polytropic(2.0)
        cfg = SolverConfig(epsilon=0.05, T=0.02, dt=1e-3, n_saves=2, density_floor=0.0,
                           record_steps=True, record_forcing=True)
        noise = NoiseModel.single_mode(0.3, law, seed=7, dt_base=1e-3)
        noise = noise.truncate_mollify(cfg.epsilon, 3.0, 0.25, cfg.rho_inf)
        init = bump_state(grid)
        rho, m = np.stack([init.rho, init.rho]), np.zeros((2, grid.n + 1))
        rho[1, 128] = 0.0
        assert StateFields(law, rho, m).pos is not None
        assert StateFields(law, rho[:1], m[:1]).pos is None
        batch = simulate(GridState(0.0, rho, m), law, grid, cfg, noise, [3, 4])
        for traj in batch:
            assert_matches_oracle(traj, noise)
            assert traj.step_states[1:, 0].min() > 0.0
        lone = simulate(GridState(0.0, rho[0], m[0]), law, grid, cfg, noise, 3)
        for name in ("energy", "dissipation", "step_states", "forcing_increments"):
            assert np.array_equal(getattr(batch[0], name), getattr(lone, name)), name


def checked_pass(law, rho, m):
    """(P, P', pos, rp, u) of a pass that checks rho >= 0 and then tests
    rho > 0 for its masks, on every state: the oracle of the one sign
    test."""
    P, dP = law.pressure_pair(rho)
    pos = rho > 0.0
    if pos.all():
        return P, dP, None, rho, m / rho
    rp = np.where(pos, rho, 1.0)
    return P, dP, pos, rp, np.where(pos, m / rp, 0.0)


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # the oracle's error is the one to match
        return type(exc), str(exc)


class TestOneSignTest:
    """A float array with rho.min() > 0 takes its pass without the check
    and the masks; every other density takes them.  Either way the pass
    holds the checked pass's values, bit for bit, or raises its error.  A
    density that is not a float64 array (a list, a number, a float32 or an
    integer array) is taken as the float array of its values."""

    CASES = {
        "positive": lambda rho: rho,
        "zero": lambda rho: np.where(np.arange(rho.shape[-1]) == 60, 0.0, rho),
        "negative": lambda rho: np.where(np.arange(rho.shape[-1]) == 60, -1e-3, rho),
        "nan": lambda rho: np.where(np.arange(rho.shape[-1]) == 60, np.nan, rho),
        "inf": lambda rho: np.where(np.arange(rho.shape[-1]) == 60, np.inf, rho),
        "empty": lambda rho: rho[:, :0],
        "no rows": lambda rho: rho[:0],
        "0-d": lambda rho: np.array(rho[0, 60]),
        "numpy float": lambda rho: rho[0, 60],
        "float32": lambda rho: rho.astype(np.float32),
        "integer": lambda rho: np.ones(rho.shape, dtype=int),
        "list": lambda rho: rho[0].tolist(),
        "float": lambda rho: float(rho[0, 60]),
    }

    @pytest.mark.parametrize("kind", ["polytropic", "composite"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pass_equals_checked_pass(self, grid, kind, case):
        law = PressureLaw.polytropic(2.0)
        if kind == "composite":
            law = PressureLaw.composite(2.0, 1.6, 0.125, 0.15, 0.9, 1.4)
        base = np.stack([bump_state(grid, amp=a).rho for a in (0.3, 0.6, -0.5)])
        rho = self.CASES[case](base)
        m = self.CASES[case](0.2 * np.sin(grid.x) * base)
        with np.errstate(invalid="ignore"):
            want = outcome(checked_pass, law, rho, m)
            got = outcome(lambda: StateFields(law, rho, m))
        if case == "negative":
            assert type(want[0]) is type and got == want
            return
        if case in ("list", "float", "numpy float", "float32", "integer"):
            arrays = StateFields(law, np.asarray(rho, dtype=float), np.asarray(m, dtype=float))
            want = [arrays.P, arrays.dP, arrays.pos, arrays.rp, arrays.u]
        fields = [got.P, got.dP, got.pos, got.rp, got.u]
        for a, b in zip(fields, want):
            assert type(a) is type(b)
            assert a is None or np.array_equal(a, b, equal_nan=True)
            assert a is None or np.shape(a) == np.shape(b)
        assert (got.pos is None) == (case in ("positive", "inf", "0-d", "numpy float",
                                              "float32", "integer", "empty", "no rows",
                                              "list", "float"))
        if case == "positive":
            masked = masked_fields(law, rho, m)
            assert np.array_equal(got.u, masked.u)
            assert np.array_equal(got.P, masked.P) and np.array_equal(got.dP, masked.dP)

    @pytest.mark.parametrize("vacuum", [False, True])
    def test_functionals_take_lists(self, law2, grid, vacuum):
        rho = bump_state(grid).rho
        if vacuum:
            rho[60] = 0.0
        m = 0.2 * np.sin(grid.x) * rho
        for f, args in ((relative_energy, (1.0,)), (dissipation_rate, ())):
            want = f(law2, grid, rho, m, *args)
            assert f(law2, grid, rho.tolist(), m.tolist(), *args) == want

    def test_positive_float_arrays_take_no_check_or_mask(self, law2, grid, monkeypatch):
        rho = np.stack([bump_state(grid).rho] * 2)
        checks, pairs, masks = [], [], []
        spy(monkeypatch, PressureLaw, "_check_nonneg", checks, lambda r: r, static=True)
        spy(monkeypatch, PressureLaw, "pressure_pair", pairs, lambda self, r: r)
        spy(monkeypatch, StateFields, "_mask", masks, lambda self, r: r)
        assert StateFields(law2, rho, rho).pos is None
        assert checks == pairs == masks == []
        rho[1, 7] = 0.0
        assert StateFields(law2, rho, rho).pos is not None
        assert checks == pairs == masks == [rho.shape]


class TestDstWorkspaces:
    """The DST keeps its arrays per field shape; a returned state never
    shares memory with them and is not changed by later steps."""

    def test_returned_states_unchanged_by_later_steps(self, law2, grid):
        cfg = SolverConfig(epsilon=0.05, T=0.01, dt=1e-3, n_saves=1, density_floor=0.9)
        stepper = Stepper(law2, grid, cfg)
        init = bump_state(grid)
        rho = np.stack([init.rho] * 3)
        rho[1, 100] = 0.85  # below the floor after one step
        state = GridState(0.0, rho, np.zeros_like(rho))
        kept = []
        for n in range(4):
            state, failures = stepper.step(state)
            assert [row for row, _ in failures] == ([1] if n == 0 else [])
            assert state.rho.shape == (3, grid.n + 1)
            for row, _ in failures:  # as simulate holds a failed row
                state.rho[row], state.mom[row] = cfg.rho_inf, 0.0
            kept.append((state, state.copy()))
            for odd, spec, back in stepper._dst.values():
                for work in (odd, spec, back):
                    assert not np.shares_memory(work, state.rho)
                    assert not np.shares_memory(work, state.mom)
        assert set(stepper._dst) == {(2, 3, grid.n + 1)}
        for state, copy in kept:
            assert np.array_equal(state.rho, copy.rho) and np.array_equal(state.mom, copy.mom)

    def test_workspaces_give_the_fresh_transform(self, law2, grid):
        cfg = SolverConfig(epsilon=0.05, T=0.01, dt=1e-3, n_saves=1)
        stepper = Stepper(law2, grid, cfg)
        n = grid.n
        rng = np.random.default_rng(5)
        for _ in range(3):  # the workspaces are reused and must not leak
            f = rng.normal(size=(2, 4, n + 1))
            boundary = np.array([[1.0], [0.0]])[..., None]
            odd = np.zeros((2, 4, 2 * n))
            odd[..., 1:n] = f[..., 1:-1] - boundary
            odd[..., n + 1 :] = -odd[..., n - 1 : 0 : -1]
            want = np.fft.irfft(np.fft.rfft(odd) * stepper._inv_eig, 2 * n)[..., 1:n] + boundary
            got = stepper._diffuse(f, stepper._far)
            assert np.array_equal(got[..., 1:-1], want)
            assert (got[0, :, [0, -1]] == 1.0).all() and (got[1, :, [0, -1]] == 0.0).all()


class TestUpdateWorkspace:
    """The convective update is written into a workspace kept per state
    shape; each step gives the bits of the update on a stacked copy of its
    state, and a returned state is never the workspace."""

    @staticmethod
    def rows(grid, shift):
        # three rows whose ends are off the far field, which only the
        # explicit diffusion reads
        rho = np.stack([bump_state(grid, amp=a).rho for a in (0.3, 0.5, 0.2)]) + shift
        m = (0.2 + shift) * np.sin(grid.x + np.arange(3)[:, None]) * rho
        return rho, m

    @pytest.mark.parametrize("kind", ["imex", "explicit", "composite"])
    def test_successive_steps_without_out(self, kind):
        _, law, grid, cfg, _ = batch_case(kind)
        stepper = Stepper(law, grid, cfg, np.array([0.05, 0.02, 0.08]))
        forcing = 1e-3 * np.cos(grid.x) * np.ones((3, 1))
        results = []
        for shift in (0.1, -0.1, 0.05):
            rho, m = self.rows(grid, shift)
            want = pressure_step(stepper, rho, m, forcing)
            new, failures = stepper.step(GridState(0.0, rho, m), forcing)
            assert failures == []
            assert np.array_equal(new.rho, want[0]) and np.array_equal(new.mom, want[1])
            for work in stepper._update.values():
                assert not np.shares_memory(work, new.rho)
                assert not np.shares_memory(work, new.mom)
            results.append((new, new.copy()))
        assert set(stepper._update) == {(3, grid.n + 1)}
        for new, kept in results:  # not changed by the later steps
            assert np.array_equal(new.rho, kept.rho) and np.array_equal(new.mom, kept.mom)

    @pytest.mark.parametrize("kind", ["imex", "explicit", "composite"])
    def test_out_aliasing_the_state(self, kind):
        _, law, grid, cfg, _ = batch_case(kind)
        stepper = Stepper(law, grid, cfg, np.array([0.05, 0.02, 0.08]))
        for shift in (0.1, -0.1):
            rho, m = self.rows(grid, shift)
            want = pressure_step(stepper, rho, m, None)
            memory = np.stack((rho, m))
            new, _ = stepper.step(GridState(0.0, *memory), None, None, memory)
            assert np.shares_memory(new.rho, memory) and np.shares_memory(new.mom, memory)
            assert np.array_equal(memory, want)


class TestCallBudget:
    """A single-row step is bound by its calls: the calls into svvlab per
    step of one sample of the README run file, which numpy's version does
    not change, stay within the budget."""

    BUDGET = 18.6  # 43.7 before the workspaces, the bound and the sign test

    def test_single_row_calls_per_step(self):
        cfg = config_from_dict(README_RUN)
        init = cfg.initial.build(cfg.grid, cfg.solver.rho_inf)
        root = os.path.dirname(svvlab.__file__) + os.sep
        calls = [0]

        def counted(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(root):
                calls[0] += 1

        def run():
            return simulate(init, cfg.law, cfg.grid, cfg.solver, cfg.noise, [0])

        run()  # the profiles, the stream and the law's window fits
        before = sys.getprofile()
        sys.setprofile(counted)
        try:
            run()
        finally:
            sys.setprofile(before)
        assert calls[0] / cfg.solver.n_steps <= self.BUDGET
