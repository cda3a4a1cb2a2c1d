"""Energy balance, invariant regions, moments, weak-form entropy residuals."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from svvlab import diagnostics
from svvlab.diagnostics import (
    BumpTestFunction,
    compact_moments,
    energy_balance_check,
    ensemble_moments,
    entropy_inequality_residual,
    invariant_region_check,
)
from svvlab.entropy import EntropySpec, entropy_pair, riemann_invariants
from svvlab.errors import ConfigError, DomainError
from svvlab.noise import NoiseModel
from svvlab.pressure import PressureLaw
from svvlab.solver import (
    Grid,
    GridState,
    SolverConfig,
    dissipation_rate,
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


# the test bump b and its derivatives, one function each: the oracles of
# BumpTestFunction._b_parts
def bump_b(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si**2))
    return out


def bump_db(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    q = 1.0 - si**2
    out[inside] = np.exp(-1.0 / q) * (-2.0 * si / q**2)
    return out


def bump_d2b(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    q = 1.0 - si**2
    lr = -2.0 * si / q**2  # b'/b
    dlr = (-2.0 - 6.0 * si**2) / q**3
    out[inside] = np.exp(-1.0 / q) * (lr**2 + dlr)
    return out


# pointwise phi(t, x) and its derivatives, for the step loop oracle
def phi_value(phi, t, x):
    return bump_b((t - phi.t0) / phi.rt) * bump_b((x - phi.x0) / phi.rx)


def phi_dt(phi, t, x):
    return bump_db((t - phi.t0) / phi.rt) / phi.rt * bump_b((x - phi.x0) / phi.rx)


def phi_dx(phi, t, x):
    return bump_b((t - phi.t0) / phi.rt) * bump_db((x - phi.x0) / phi.rx) / phi.rx


def phi_dxx(phi, t, x):
    return bump_b((t - phi.t0) / phi.rt) * bump_d2b((x - phi.x0) / phi.rx) / phi.rx**2


class TestRelativeEnergy:
    """solver.relative_energy, the one implementation of the functional."""

    def test_equilibrium_is_zero(self, law2, grid):
        state = GridState(0.0, np.ones(grid.n + 1), np.zeros(grid.n + 1))
        assert relative_energy(law2, grid, state.rho, state.mom, 1.0) == 0.0

    def test_pure_kinetic(self, law2, grid):
        # rho == rho_inf leaves only m^2/(2 rho); use a unit-L2 momentum bump
        x = grid.x
        m = np.exp(-(x**2))
        m /= np.sqrt(np.trapezoid(m**2, dx=grid.dx))
        state = GridState(0.0, np.ones(grid.n + 1), m)
        val = relative_energy(law2, grid, state.rho, state.mom, 1.0)
        assert val == pytest.approx(0.5, rel=1e-10)

    def test_resolution_stability(self, law2):
        vals = []
        for n in (128, 256, 512):
            g = Grid(L=5.0, n=n)
            state = bump_state(g)
            vals.append(relative_energy(law2, g, state.rho, state.mom, 1.0))
        assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[1])
        assert abs(vals[2] - vals[1]) < 1e-6


class TestDissipation:
    """eps dt solver.dissipation_rate, the dissipation of one step."""

    def test_constant_state_zero(self, law2, grid):
        state = GridState(0.0, np.ones(grid.n + 1), np.zeros(grid.n + 1))
        assert 0.05 * 1e-3 * dissipation_rate(law2, grid, state.rho, state.mom) == 0.0

    def test_linear_velocity(self, law2, grid):
        # rho = 1, u = c x: integrand is eps * c^2 over the domain
        c = 0.3
        rho = np.ones(grid.n + 1)
        state = GridState(0.0, rho, c * grid.x * rho)
        val = 0.05 * 1e-3 * dissipation_rate(law2, grid, state.rho, state.mom)
        assert val == pytest.approx(0.05 * 1e-3 * c**2 * 2 * grid.L, rel=1e-10)

    def test_nonnegative(self, law2, grid):
        rng = np.random.default_rng(7)
        rho = 1.0 + 0.3 * rng.random(grid.n + 1)
        state = GridState(0.0, rho, rng.standard_normal(grid.n + 1) * 0.1)
        assert 0.05 * 1e-3 * dissipation_rate(law2, grid, state.rho, state.mom) >= 0.0


class TestEnergyBalance:
    def test_zero_noise_residual_small(self, law2, grid):
        cfg = SolverConfig(
            epsilon=0.05, T=0.25, dt=1e-3, n_saves=5, record_steps=True
        )
        traj = simulate(bump_state(grid), law2, grid, cfg)
        rep = energy_balance_check(traj, law2)
        assert rep.martingale_term == 0.0
        assert abs(rep.residual) < 0.05 * cfg.dt

    def test_noisy_residual_small(self, law2, grid):
        noise = NoiseModel.single_mode(0.3, law2, seed=3, dt_base=1e-3)
        noise = noise.truncate_mollify(0.05, 3.0, 0.25, 1.0)
        cfg = SolverConfig(
            epsilon=0.05, T=0.25, dt=1e-3, n_saves=5,
            record_steps=True, record_forcing=True,
        )
        traj = simulate(bump_state(grid), law2, grid, cfg, noise, sample_id=1)
        rep = energy_balance_check(traj, law2, noise)
        assert rep.martingale_term != 0.0
        assert abs(rep.residual) < 10 * cfg.dt

    def test_requires_recorded_steps(self, law2, grid):
        cfg = SolverConfig(epsilon=0.05, T=0.1, dt=1e-3, n_saves=5)
        traj = simulate(bump_state(grid), law2, grid, cfg)
        with pytest.raises(ConfigError):
            energy_balance_check(traj, law2)


class TestInvariantRegion:
    def test_constant_state_no_excess(self, law2, grid):
        cfg = SolverConfig(epsilon=0.05, T=0.1, dt=1e-3, n_saves=5)
        init = GridState(0.0, np.ones(grid.n + 1), np.zeros(grid.n + 1))
        traj = simulate(init, law2, grid, cfg)
        assert invariant_region_check(traj, law2, 5.0) == 0.0

    def test_tight_bound_reports_excess(self, law2, grid):
        cfg = SolverConfig(epsilon=0.05, T=0.1, dt=1e-3, n_saves=5)
        traj = simulate(bump_state(grid), law2, grid, cfg)
        w1, w2 = riemann_invariants(law2, 1.3, 0.0)
        assert invariant_region_check(traj, law2, 0.5 * w2) > 0.0

    @pytest.mark.parametrize("H", [0.0, -1.0, float("nan")])
    def test_bad_half_width_rejected(self, law2, noisy_run, H):
        # a NaN half-width gave a NaN excess
        with pytest.raises(DomainError, match="half-width"):
            invariant_region_check(noisy_run[0], law2, H)

    def test_zero_noise_bump_stays_inside(self, law2, grid):
        cfg = SolverConfig(epsilon=0.05, T=0.5, dt=1e-3, n_saves=10)
        traj = simulate(bump_state(grid), law2, grid, cfg)
        _, w2 = riemann_invariants(law2, 1.3, 0.0)
        assert invariant_region_check(traj, law2, w2 * 1.001) <= 1e-8


class TestCompactMoments:
    def test_constant_state_values(self, law2, grid):
        cfg = SolverConfig(epsilon=0.05, T=0.5, dt=1e-3, n_saves=10)
        init = GridState(0.0, np.ones(grid.n + 1), np.zeros(grid.n + 1))
        traj = simulate(init, law2, grid, cfg)
        # grid-aligned window so the trapezoid rule covers exactly [-2.5, 2.5]
        m_p, m_u3 = compact_moments(traj, law2, (-2.5, 2.5))
        assert m_p == pytest.approx(0.5 * 5.0 * 1.0 * law2.pressure(1.0), rel=1e-12)
        assert m_u3 == pytest.approx(0.0, abs=1e-100)

    @pytest.mark.parametrize("window", [
        (float("nan"), 2.0), (-2.0, float("nan")), (float("nan"), float("nan")),
        (-float("inf"), 2.0), (-2.0, float("inf")), (2.0, -2.0), (1.0, 1.0), (-9.0, 2.0),
    ])
    def test_bad_window_rejected(self, law2, noisy_run, window):
        with pytest.raises(ConfigError, match="must sit inside the grid"):
            compact_moments(noisy_run[0], law2, window)

    def test_window_without_nodes(self, law2, noisy_run):
        # nodes at multiples of dx = 10/256 around 0: none in [0.01, 0.03]
        assert compact_moments(noisy_run[0], law2, (0.01, 0.03)) == (0.0, 0.0)

    def test_resolution_stability(self, law2):
        vals = []
        for n in (128, 256):
            g = Grid(L=5.0, n=n)
            cfg = SolverConfig(epsilon=0.05, T=0.25, dt=1e-3, n_saves=5)
            traj = simulate(bump_state(g), law2, g, cfg)
            vals.append(compact_moments(traj, law2, (-1.5, 1.5)))
        assert vals[0][0] == pytest.approx(vals[1][0], rel=1e-3)


class TestBumpTestFunction:
    @pytest.mark.parametrize("radii", [
        (float("nan"), 2.0), (0.2, float("nan")), (float("inf"), 2.0), (0.2, float("inf")),
        (0.0, 2.0), (0.2, -1.0),
    ])
    def test_bad_radius_rejected(self, radii):
        with pytest.raises(ConfigError, match="radii"):
            BumpTestFunction(0.25, radii[0], 0.0, radii[1])

    def test_support(self):
        phi = BumpTestFunction(0.25, 0.2, 0.0, 2.0)
        assert phi_value(phi, 0.25, 0.0) == pytest.approx(np.exp(-2.0))
        assert phi_value(phi, 0.46, 0.0) == 0.0
        assert phi_value(phi, 0.25, 2.1) == 0.0
        assert phi.supported_in(0.5, 5.0)
        assert not phi.supported_in(0.5, 1.5)

    def test_derivatives_finite_difference(self):
        phi = BumpTestFunction(0.25, 0.2, 0.3, 2.0)
        t, x, h = 0.3, 0.8, 1e-6
        dt_fd = (phi_value(phi, t + h, x) - phi_value(phi, t - h, x)) / (2 * h)
        dx_fd = (phi_value(phi, t, x + h) - phi_value(phi, t, x - h)) / (2 * h)
        dxx_fd = (
            phi_value(phi, t, x + h) - 2 * phi_value(phi, t, x) + phi_value(phi, t, x - h)
        ) / h**2
        assert phi_dt(phi, t, x) == pytest.approx(dt_fd, rel=1e-5)
        assert phi_dx(phi, t, x) == pytest.approx(dx_fd, rel=1e-5)
        assert phi_dxx(phi, t, x) == pytest.approx(dxx_fd, rel=1e-3)

    def test_b_parts_match_separate_functions(self):
        # one evaluation of b, b' and b'' gives each order bit for bit as
        # its own function does, on arrays and 0-d input, |s| = 1 included
        oracles = (bump_b, bump_db, bump_d2b)
        s = np.concatenate(([-1.5, -1.0, -0.0, 0.0, 1.0, 1.5], np.linspace(-1.0, 1.0, 39)))
        for arg in (s, s.reshape(3, 3, 5), *map(np.float64, s)):
            for order in range(3):
                parts = BumpTestFunction._b_parts(arg, order)
                assert len(parts) == order + 1
                for got, oracle in zip(parts, oracles):
                    want = oracle(arg)
                    assert got.shape == want.shape
                    assert np.array_equal(got, want)
        assert not BumpTestFunction._b_parts(np.array([-1.0, 1.0]), 2)[2].any()


class TestEntropyResidual:
    def test_constant_state_zero(self, law2, grid):
        cfg = SolverConfig(
            epsilon=0.05, T=0.5, dt=1e-3, n_saves=5, record_steps=True
        )
        init = GridState(0.0, np.ones(grid.n + 1), np.zeros(grid.n + 1))
        traj = simulate(init, law2, grid, cfg)
        phi = BumpTestFunction(0.25, 0.2, 0.0, 2.0)
        rep = entropy_inequality_residual(traj, law2, EntropySpec.energy(), phi)
        assert rep.S == pytest.approx(0.0, abs=1e-13)

    def test_boundary_support_rejected(self, law2, grid):
        cfg = SolverConfig(
            epsilon=0.05, T=0.5, dt=1e-3, n_saves=5, record_steps=True
        )
        traj = simulate(bump_state(grid), law2, grid, cfg)
        phi = BumpTestFunction(0.25, 0.2, 4.0, 2.0)
        with pytest.raises(ConfigError):
            entropy_inequality_residual(traj, law2, EntropySpec.energy(), phi)

    def test_cutoff_matches_energy_when_inactive(self, law2, grid):
        cfg = SolverConfig(
            epsilon=0.05, T=0.5, dt=1e-3, n_saves=5, record_steps=True
        )
        traj = simulate(bump_state(grid), law2, grid, cfg)
        phi = BumpTestFunction(0.25, 0.2, 0.0, 2.0)
        a = entropy_inequality_residual(traj, law2, EntropySpec.energy(), phi)
        b = entropy_inequality_residual(
            traj, law2, EntropySpec.cutoff_energy(20.0), phi
        )
        assert a.S == pytest.approx(b.S, abs=1e-10)


# ---------------------------------------------------------------------------
# step-by-step oracles: the loops the block evaluations replaced
# ---------------------------------------------------------------------------

def balance_loop(traj, noise):
    """(martingale, Ito) sums of energy_balance_check, one step at a time."""
    dx, x = traj.grid.dx, traj.grid.x
    mart = 0.0
    ito = 0.0
    for (rho, m), dF in zip(traj.step_states[:-1], traj.forcing_increments):
        pos = rho > 0.0
        u = np.where(pos, m / np.where(pos, rho, 1.0), 0.0)
        mart += float(np.trapezoid(u * dF, dx=dx))
        quad = noise.forcing_quadratic(x, rho, m)
        inv_rho = np.where(pos, 1.0 / np.where(pos, rho, 1.0), 0.0)
        ito += 0.5 * traj.config.dt * float(np.trapezoid(inv_rho * quad, dx=dx))
    return mart, ito


def residual_loop(traj, law, spec, phi, noise):
    """(transport, martingale, Ito, viscous) sums of
    entropy_inequality_residual, one step at a time."""
    cfg = traj.config
    x, dx, dt = traj.grid.x, traj.grid.dx, cfg.dt
    transport = mart = ito = visc = 0.0
    for n in range(len(traj.step_states) - 1):
        t = n * dt
        if abs(t - phi.t0) >= phi.rt:
            continue
        active = np.abs(x - phi.x0) < phi.rx
        w = phi_value(phi, t, x)
        rho, m = traj.step_states[n]
        pv = entropy_pair(law, spec, rho[active], m[active])
        xa = x[active]
        transport += dt * dx * float(
            np.sum(pv.eta * phi_dt(phi, t, xa) + pv.q * phi_dx(phi, t, xa))
        )
        visc += cfg.epsilon * dt * dx * float(np.sum(pv.eta * phi_dxx(phi, t, xa)))
        dF = traj.forcing_increments[n][active]
        mart += dx * float(np.sum(pv.deta_dm * dF * w[active]))
        quad = noise.forcing_quadratic(xa, rho[active], m[active])
        ito += 0.5 * dt * dx * float(np.sum(pv.d2eta_dm2 * quad * w[active]))
    return transport, mart, ito, visc


def assert_residual_matches_loop(traj, law, spec, phi, noise):
    rep = entropy_inequality_residual(traj, law, spec, phi, noise)
    transport, mart, ito, visc = residual_loop(traj, law, spec, phi, noise)
    scale = abs(transport) + abs(mart) + abs(ito)
    assert abs(rep.S - (transport + mart + ito)) <= 1e-12 * scale
    assert rep.transport == pytest.approx(transport, rel=1e-12)
    assert rep.martingale == pytest.approx(mart, rel=1e-12)
    assert rep.ito == pytest.approx(ito, rel=1e-12)
    assert rep.viscous_reference == pytest.approx(visc, rel=1e-12)
    return rep


def assert_balance_matches_loop(traj, law, noise):
    rep = energy_balance_check(traj, law, noise)
    mart, ito = balance_loop(traj, noise)
    de = traj.energy[-1] - traj.energy[0]
    assert rep.martingale_term == pytest.approx(mart, rel=1e-12)
    assert rep.ito_term == pytest.approx(ito, rel=1e-12)
    assert rep.residual == pytest.approx(de + traj.dissipation[-1] - mart - ito, rel=1e-12)


PSIS = {
    "energy": EntropySpec.energy(),
    "cutoff:5": EntropySpec.cutoff_energy(5.0),
    "bump:0,4": EntropySpec.compact_bump(0.0, 4.0),
}
# criterion 11's test function
PHI11 = BumpTestFunction(0.25, 0.2, 0.0, 2.0)


@pytest.fixture(scope="module")
def noisy_run(law2, grid):
    """A criterion-11-shaped path: mollified noise, every step recorded."""
    noise = NoiseModel.single_mode(0.3, law2, seed=9, dt_base=1e-3)
    noise = noise.truncate_mollify(0.02, 3.0, 0.25, 1.0)
    cfg = SolverConfig(
        epsilon=0.02, T=0.5, dt=1e-3, n_saves=5,
        record_steps=True, record_forcing=True,
    )
    traj = simulate(bump_state(grid), law2, grid, cfg, noise, sample_id=3)
    return traj, noise


def masked_compact_moments(traj, law, window):
    """compact_moments with its own vacuum mask and P call: the oracle of
    its evaluation on the states' pass."""
    x = traj.grid.x
    mask = (x >= window[0]) & (x <= window[1])
    rho = np.array([rho[mask] for rho, _ in traj.save_states])
    m = np.array([m[mask] for _, m in traj.save_states])
    pos = rho > 0.0
    u = np.where(pos, m / np.where(pos, rho, 1.0), 0.0)
    fp = np.trapezoid(rho * law.pressure(rho), x[mask])
    fu = np.trapezoid(rho * np.abs(u) ** 3, x[mask])
    return float(np.trapezoid(fp, traj.times)), float(np.trapezoid(fu, traj.times))


class TestBlockOracles:
    @pytest.mark.parametrize("psi", list(PSIS))
    def test_residual_matches_step_loop(self, law2, noisy_run, psi):
        traj, noise = noisy_run
        n_active = int(np.sum(np.abs(traj.grid.x - PHI11.x0) < PHI11.rx))
        rows = diagnostics.BLOCK_POINTS // (n_active * PSIS[psi].pair_nodes)
        t = np.arange(len(traj.step_states) - 1) * traj.dt
        n_steps = int(np.sum(np.abs(t - PHI11.t0) < PHI11.rt))
        assert rows > 1 and n_steps % rows != 0  # a short last block
        rep = assert_residual_matches_loop(traj, law2, PSIS[psi], PHI11, noise)
        assert rep.martingale != 0.0 and rep.ito != 0.0

    @pytest.mark.parametrize("rows", [1, 5])
    def test_one_and_five_step_blocks(self, law2, noisy_run, rows, monkeypatch):
        traj, noise = noisy_run
        n_active = int(np.sum(np.abs(traj.grid.x - PHI11.x0) < PHI11.rx))
        spec = PSIS["cutoff:5"]
        monkeypatch.setattr(diagnostics, "BLOCK_POINTS", rows * n_active * spec.pair_nodes)
        assert_residual_matches_loop(traj, law2, spec, PHI11, noise)
        assert_balance_matches_loop(traj, law2, noise)

    def test_phi_over_a_few_steps(self, law2, noisy_run):
        # |n dt - 0.25| < 0.0025: steps 248-252
        traj, noise = noisy_run
        phi = BumpTestFunction(0.25, 0.0025, 0.3, 1.0)
        rep = assert_residual_matches_loop(traj, law2, PSIS["energy"], phi, noise)
        assert rep.transport != 0.0

    def test_balance_matches_step_loop(self, law2, noisy_run):
        traj, noise = noisy_run
        assert_balance_matches_loop(traj, law2, noise)

    def test_vacuum_node_in_the_active_window(self, law2, noisy_run):
        # a hand-built path with rho = m = 0 at x = 0.5 on steps 100-299;
        # no forcing acts on vacuum
        traj, noise = noisy_run
        steps = traj.step_states.copy()
        forcing = traj.forcing_increments.copy()
        i = int(np.argmin(np.abs(traj.grid.x - 0.5)))
        steps[100:300, :, i] = 0.0
        forcing[100:300, i] = 0.0
        holed = dataclasses.replace(traj, step_states=steps, forcing_increments=forcing)
        for spec in PSIS.values():
            assert_residual_matches_loop(holed, law2, spec, PHI11, noise)
        assert_balance_matches_loop(holed, law2, noise)

    def test_residual_memory_is_bounded(self, law2, noisy_run):
        traj, noise = noisy_run
        tracemalloc.start()
        try:
            entropy_inequality_residual(traj, law2, PSIS["cutoff:5"], PHI11, noise)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_invariant_region_matches_step_loop(self, law2, noisy_run):
        traj, _ = noisy_run
        H = 0.9 * float(np.max(riemann_invariants(law2, *traj.step_states[0])[1]))
        saved = dataclasses.replace(traj, step_states=None)
        for path in (traj, saved):
            pairs = path.save_states if path.step_states is None else path.step_states
            loop = 0.0
            for rho, m in pairs:
                w1, w2 = riemann_invariants(law2, rho, m)
                loop = max(loop, float(np.maximum(np.maximum(w2 - H, -H - w1), 0.0).max()))
            assert loop > 0.0
            assert invariant_region_check(path, law2, H) == loop

    def test_compact_moments_match_step_loop(self, law2, noisy_run):
        traj, _ = noisy_run
        x = traj.grid.x
        mask = (x >= -1.5) & (x <= 2.0)
        fp, fu = [], []
        for rho, m in traj.save_states:
            rho, m = rho[mask], m[mask]
            fp.append(np.trapezoid(rho * law2.pressure(rho), x[mask]))
            fu.append(np.trapezoid(rho * np.abs(m / rho) ** 3, x[mask]))
        m_p, m_u3 = compact_moments(traj, law2, (-1.5, 2.0))
        assert m_p == np.trapezoid(fp, traj.times)
        assert m_u3 == np.trapezoid(fu, traj.times)
        assert m_u3 > 0.0

    @pytest.mark.parametrize("vacuum", [True, False], ids=["vacuum", "positive"])
    def test_compact_moments_equal_masked_formulas(self, law2, noisy_run, vacuum):
        # with rho = m = 0 at x = 0.5 on every save after the first, or none
        traj, _ = noisy_run
        if vacuum:
            i = int(np.argmin(np.abs(traj.grid.x - 0.5)))
            states = traj.save_states.copy()
            states[1:, :, i] = 0.0
            traj = dataclasses.replace(traj, save_states=states)
        window = (-1.5, 2.0)
        got = compact_moments(traj, law2, window)
        assert got == masked_compact_moments(traj, law2, window)


class TestEnsembleMoments:
    def test_degenerate_samples(self):
        mean, (lo, hi) = ensemble_moments(np.full(16, 3.0), p=1)
        assert mean == 3.0 and lo == 3.0 and hi == 3.0

    def test_standard_normal_second_moment(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10000)
        mean, (lo, hi) = ensemble_moments(x, p=2, seed=1)
        assert mean == pytest.approx(1.0, abs=0.05)
        assert lo < mean < hi

    def test_validation(self):
        with pytest.raises(DomainError):
            ensemble_moments(np.ones(1), p=2)
        with pytest.raises(DomainError):
            ensemble_moments(np.ones(4), p=0.5)
        with pytest.raises(DomainError):
            ensemble_moments(np.array([-1.0, 1.0, 2.0]), p=1.5)

    @pytest.mark.parametrize("p, n_boot, bad", [
        (float("nan"), 100, None), (float("inf"), 100, None), (-float("inf"), 100, None),
        (2.0, 0, None), (2.0, -1, None), (2.0, 2.5, None), (2.0, float("nan"), None),
        (2.0, 100, float("nan")), (2.0, 100, float("inf")),
    ])
    def test_non_finite_inputs_and_no_resamples_rejected(self, p, n_boot, bad):
        # a NaN sample gave (nan, (nan, nan)), an infinite one a RuntimeWarning
        xs = np.arange(1.0, 5.0)
        if bad is not None:
            xs[2] = bad
        with pytest.raises(DomainError):
            ensemble_moments(xs, p=p, n_boot=n_boot)
