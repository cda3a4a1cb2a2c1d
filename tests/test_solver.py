"""Time stepping: equilibrium, convergence, stability guards, heat kernel."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dgttrf, dgttrs

from svvlab import noise as noise_module
from svvlab.config import config_from_dict
from svvlab.errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    NumericalError,
    PositivityLoss,
)
from svvlab.noise import NoiseModel
from svvlab.pressure import PressureLaw, _smoothstep
from svvlab.solver import (
    Grid,
    GridState,
    SolverConfig,
    StateFields,
    Stepper,
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
        with pytest.raises(ConfigError):
            Grid(L=-1.0, n=64)
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
        cfg = SolverConfig(epsilon=0.05, T=1.0, dt=1e-3, check_cfl=False)
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

    def test_positivity_loss_reported(self, law2, grid):
        # strong outflow drains the center density below the floor
        x = grid.x
        rho = np.full(x.size, 0.2)
        m = 2.0 * np.tanh(2.0 * x) * rho
        cfg = SolverConfig(
            epsilon=0.01, T=2.0, dt=2e-3, n_saves=1, density_floor=1e-2,
            check_cfl=False,
        )
        with pytest.raises(PositivityLoss) as exc:
            simulate(GridState(0.0, rho, m), law2, grid, cfg)
        assert exc.value.rho_min < 1e-2
        assert exc.value.t > 0.0


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
            one = simulate(init, law, grid, cfg, noise, sid)
            assert np.array_equal(traj.times, one.times)
            for a, b in zip(traj.states, one.states):
                assert a.t == b.t
                assert np.array_equal(a.rho, b.rho) and np.array_equal(a.mom, b.mom)
            for name in ("energy", "dissipation", "min_rho", "step_states",
                         "forcing_increments"):
                assert np.array_equal(getattr(traj, name), getattr(one, name)), name
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
        for a, b in zip(traj.states, one.states):
            assert a.t == b.t
            assert np.array_equal(a.rho, b.rho) and np.array_equal(a.mom, b.mom)
        for name in ("energy", "dissipation", "min_rho", "step_states",
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
        cfg = SolverConfig(
            epsilon=0.05, T=2.0, dt=2e-3, n_saves=1, density_floor=1e-2,
            check_cfl=False,
        )
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
    dt_max = cfg.cfl_conv * dx / speed
    if cfg.scheme == "explicit":
        dt_max = np.minimum(dt_max, cfg.cfl_diff * dx**2 / (2.0 * stepper.epsilon))
    return dt_max


def afresh_forcing(noise, x, rho, m, dW):
    """The forcing of a model mollified for one epsilon, each mode's
    profile, the Gamma_H indicator and the cutoff evaluated afresh."""
    pos = rho > 0.0
    rp = np.where(pos, rho, 1.0)
    u = np.where(pos, m / rp, 0.0)
    K = np.where(pos, noise.law.k_integral(rp), 0.0)
    upper = (noise.H - (u + K)) / noise.trans_width
    lower = ((u - K) + noise.H) / noise.trans_width
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
    for j, state in enumerate(traj.states):
        assert np.array_equal(state.rho, rho[j * every])
        assert np.array_equal(state.mom, m[j * every])


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
                assert noise._region_indicator(rho, m).min() < 1.0

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
        shapes = []
        check = PressureLaw._check_nonneg

        def counted(rho):
            shapes.append(np.shape(rho))
            return check(rho)

        bumps = []
        plain_bump = noise_module.bump
        monkeypatch.setattr(PressureLaw, "_check_nonneg", staticmethod(counted))
        monkeypatch.setattr(
            noise_module, "bump", lambda *a, **k: bumps.append(1) or plain_bump(*a, **k)
        )
        simulate(init, cfg.law, cfg.grid, sc, cfg.noise, list(range(n_samples)))
        states = shapes.count((n_samples, cfg.grid.n + 1))
        assert states == sc.n_steps + 1  # the initial state and one per step
        assert len(shapes) - states <= 2  # the law's far-field constants, once
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
