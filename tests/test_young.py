"""Empirical Young measures, commutation residuals, concentration traces."""

import numpy as np
import pytest

from svvlab.entropy import EntropySpec, entropy_pair
from svvlab.errors import ConfigError
from svvlab.noise import NoiseModel
from svvlab.pressure import PressureLaw
from svvlab.solver import Grid, GridState, SolverConfig, simulate
from svvlab.young import (
    VACUUM_TOL,
    CellPartition,
    EmpiricalYoungMeasure,
    build_measure,
    concentration_metric,
    measure_from_atoms,
    tartar_residual,
)


@pytest.fixture(scope="module")
def law2():
    return PressureLaw.polytropic(2.0)


ENERGY = EntropySpec.energy()
CUTOFF = EntropySpec.compact_bump(0.0, 4.0)


# The per-cell loops that the segment-sum evaluation replaced, kept as its
# oracle.

def build_measure_loop(traj, cells):
    x, t = traj.grid.x, traj.times
    it_of = np.clip(((t - cells.t0) / (cells.t1 - cells.t0) * cells.n_t).astype(int),
                    0, cells.n_t - 1)
    ix_of = np.clip(((x - cells.a) / (cells.b - cells.a) * cells.n_x).astype(int),
                    0, cells.n_x - 1)
    t_in = (t >= cells.t0 - 1e-12) & (t <= cells.t1 + 1e-12)
    x_in = (x >= cells.a - 1e-12) & (x <= cells.b + 1e-12)
    buckets = [[] for _ in range(cells.n_t * cells.n_x)]
    for k, state in enumerate(traj.states):
        if t_in[k]:
            for j in np.nonzero(x_in)[0]:
                buckets[it_of[k] * cells.n_x + ix_of[j]].append((state.rho[j], state.mom[j]))
    return [np.array(b, dtype=float) for b in buckets]


def cell_pairs_loop(law, spec, atoms):
    rho, m = atoms[:, 0].copy(), atoms[:, 1].copy()
    vac = rho < VACUUM_TOL
    rho[vac] = m[vac] = 0.0
    return entropy_pair(law, spec, rho, m)


def tartar_loop(measure, law, spec1, spec2):
    out = []
    for atoms in measure.samples:
        if atoms.shape[0] == 1 or np.ptp(atoms, axis=0).max() == 0.0:
            out.append(0.0)
            continue
        p1 = cell_pairs_loop(law, spec1, atoms)
        p2 = cell_pairs_loop(law, spec2, atoms)
        cross = np.mean(p1.eta * p2.q - p2.eta * p1.q)
        split = np.mean(p1.eta) * np.mean(p2.q) - np.mean(p1.q) * np.mean(p2.eta)
        out.append(cross - split)
    return np.array(out).reshape(measure.cells.n_t, measure.cells.n_x)


def trace_loop(measure):
    return np.array([
        0.0 if len(atoms) == 1 else float(np.trace(np.cov(atoms.T, bias=True)))
        for atoms in measure.samples
    ]).reshape(measure.cells.n_t, measure.cells.n_x)


@pytest.fixture(scope="module")
def noisy_measure(law2):
    """A noisy run binned into cells of 84 to 105 atoms: 4,223 atoms, so
    entropy pairs take four blocks of at most 1,365 atoms (48 nodes)."""
    grid = Grid(L=5.0, n=256)
    cfg = SolverConfig(epsilon=0.02, T=0.2, dt=1e-3, n_saves=40)
    noise = NoiseModel.single_mode(0.6, law2, seed=2, dt_base=1e-3)
    noise = noise.truncate_mollify(0.02, 3.0, 0.25, 1.0)
    x = grid.x
    init = GridState(0.0, 1.0 + 0.3 * np.exp(-(x**2) / 0.5), 0.4 * np.exp(-(x**2)))
    traj = simulate(init, law2, grid, cfg, noise, 0)
    cells = CellPartition(0.0, 0.2, -2.0, 2.0, 6, 7)
    return traj, cells, build_measure(traj, cells)


def degenerate_measure():
    """Single-atom, constant, vacuum-holding and spread cells."""
    rng = np.random.default_rng(3)
    spread = np.column_stack((rng.uniform(0.5, 2.0, 9), rng.standard_normal(9)))
    samples = [
        np.array([[1.5, 0.6]]),
        np.tile([[1.1, -0.3]], (3, 1)),
        np.array([[0.0, 0.0], [1e-12, 0.0], [1.2, 0.1], [0.9, -0.2]]),
        spread,
        np.tile([[0.1, 0.2]], (7, 1)),
        spread[:2],
    ]
    return EmpiricalYoungMeasure(CellPartition(0.0, 1.0, 0.0, 1.0, 2, 3), samples, 0.05)


class TestSegmentOracles:
    """Segment sums over all atoms against the per-cell loops: the binning
    is exact, and means and traces agree within 1e-12 relative.  A residual
    is a difference of products of means that can cancel, so it agrees
    within 1e-12 of the measure's largest residual (the max |R| that
    sweep-epsilon reports)."""

    def test_binning_equals_loop(self, noisy_measure):
        traj, cells, mu = noisy_measure
        loop = build_measure_loop(traj, cells)
        counts = [len(a) for a in loop]
        assert sum(counts) == 4223 and min(counts) == 84 and max(counts) == 105
        assert len(mu.samples) == len(loop)
        for a, b in zip(mu.samples, loop):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_tartar_equals_loop(self, law2, noisy_measure):
        for mu in (noisy_measure[2], degenerate_measure()):
            for specs in ((ENERGY, CUTOFF), (CUTOFF, EntropySpec.cutoff_energy(1.0))):
                new = tartar_residual(mu, law2, *specs)
                old = tartar_loop(mu, law2, *specs)
                scale = np.abs(old).max()
                assert scale > 0.0
                np.testing.assert_allclose(new, old, rtol=0.0, atol=1e-12 * scale)
                assert np.array_equal(new == 0.0, old == 0.0)
        new = tartar_residual(degenerate_measure(), law2, ENERGY, CUTOFF).ravel()
        assert new[0] == new[1] == new[4] == 0.0 and new[3] != 0.0

    def test_traces_equal_loop(self, noisy_measure):
        mu = noisy_measure[2]
        mus = [mu, EmpiricalYoungMeasure(mu.cells, mu.samples, 0.01)]
        np.testing.assert_allclose(
            concentration_metric(mus)["traces"][0], trace_loop(mus[0]), rtol=1e-12, atol=0.0
        )
        deg = degenerate_measure()
        again = EmpiricalYoungMeasure(deg.cells, deg.samples, 0.01)
        traces = concentration_metric([deg, again])["traces"][0]
        old = trace_loop(deg)
        for i in (2, 3, 5):
            assert traces.flat[i] == pytest.approx(old.flat[i], rel=1e-12, abs=0.0)
        assert traces.flat[0] == traces.flat[1] == traces.flat[4] == 0.0

    def test_empty_cell_named(self, noisy_measure):
        traj = noisy_measure[0]
        # 41 saves in 60 time cells: cell row 2 is the first one left empty
        with pytest.raises(ConfigError, match=r"cell \(2, 0\) received no samples"):
            build_measure(traj, CellPartition(0.0, 0.2, -2.0, 2.0, 60, 7))


class TestBuildMeasure:
    def test_constant_trajectory_gives_point_masses(self, law2):
        grid = Grid(L=5.0, n=64)
        cfg = SolverConfig(epsilon=0.05, T=0.2, dt=1e-3, n_saves=4)
        init = GridState(0.0, np.ones(grid.n + 1), np.zeros(grid.n + 1))
        traj = simulate(init, law2, grid, cfg)
        cells = CellPartition(0.0, 0.2, -2.0, 2.0, 2, 2)
        mu = build_measure(traj, cells)
        assert len(mu.samples) == 4
        assert mu.epsilon == 0.05
        for atoms in mu.samples:
            assert np.all(atoms[:, 0] == 1.0)
            assert np.all(atoms[:, 1] == 0.0)

    def test_window_outside_domain_rejected(self, law2):
        grid = Grid(L=5.0, n=64)
        cfg = SolverConfig(epsilon=0.05, T=0.2, dt=1e-3, n_saves=4)
        init = GridState(0.0, np.ones(grid.n + 1), np.zeros(grid.n + 1))
        traj = simulate(init, law2, grid, cfg)
        with pytest.raises(ConfigError):
            build_measure(traj, CellPartition(0.0, 0.2, -6.0, 2.0, 2, 2))
        with pytest.raises(ConfigError):
            build_measure(traj, CellPartition(0.0, 0.5, -2.0, 2.0, 2, 2))

    def test_refine_doubles_counts(self):
        c = CellPartition(0.0, 1.0, -1.0, 1.0, 2, 3).refine()
        assert (c.n_t, c.n_x) == (4, 6)


class TestTartarResidual:
    def test_dirac_exactly_zero(self, law2):
        mu = measure_from_atoms([(1.5, 0.6)])
        assert tartar_residual(mu, law2, ENERGY, CUTOFF)[0, 0] == 0.0

    def test_zero_spread_exactly_zero(self, law2):
        mu = measure_from_atoms([(1.5, 0.6), (1.5, 0.6), (1.5, 0.6)])
        assert tartar_residual(mu, law2, ENERGY, CUTOFF)[0, 0] == 0.0

    def test_two_atom_closed_form(self, law2):
        a, b = (1.0, 0.2), (1.8, -0.3)
        mu = measure_from_atoms([a, b])
        r = tartar_residual(mu, law2, ENERGY, CUTOFF)[0, 0]
        p1a = entropy_pair(law2, ENERGY, *a)
        p1b = entropy_pair(law2, ENERGY, *b)
        p2a = entropy_pair(law2, CUTOFF, *a)
        p2b = entropy_pair(law2, CUTOFF, *b)
        # for two equal-weight atoms the residual reduces to
        # 1/4 (eta1_a - eta1_b)(q2_a - q2_b) - 1/4 (eta2_a - eta2_b)(q1_a - q1_b)
        expect = 0.25 * (
            (float(p1a.eta) - float(p1b.eta)) * (float(p2a.q) - float(p2b.q))
            - (float(p2a.eta) - float(p2b.eta)) * (float(p1a.q) - float(p1b.q))
        )
        assert r == pytest.approx(expect, abs=1e-12)

    def test_antisymmetric_in_specs(self, law2):
        mu = measure_from_atoms([(1.0, 0.2), (1.8, -0.3), (1.4, 0.5)])
        r12 = tartar_residual(mu, law2, ENERGY, CUTOFF)
        r21 = tartar_residual(mu, law2, CUTOFF, ENERGY)
        assert r12[0, 0] == pytest.approx(-r21[0, 0], abs=1e-14)

    def test_same_spec_vanishes(self, law2):
        mu = measure_from_atoms([(1.0, 0.2), (1.8, -0.3)])
        assert abs(tartar_residual(mu, law2, ENERGY, ENERGY)[0, 0]) < 1e-14

    def test_refinement_reduces_mixing(self, law2):
        # fine cells mostly see one side of the smoothed step, while the
        # single coarse cell mixes both states
        grid = Grid(L=5.0, n=64)
        cfg = SolverConfig(epsilon=0.05, T=0.2, dt=1e-3, n_saves=4)
        x = grid.x
        rho = 1.0 + 0.4 / (1.0 + np.exp(8.0 * (x + 0.7)))
        rho[0] = rho[-1] = 1.0
        init = GridState(0.0, rho, np.zeros_like(x))
        traj = simulate(init, law2, grid, cfg)
        bump = EntropySpec.compact_bump(0.0, 4.0)
        coarse = CellPartition(0.0, 0.05, -2.5, 2.5, 1, 1)
        fine = CellPartition(0.0, 0.05, -2.5, 2.5, 1, 8)
        r_coarse = np.abs(tartar_residual(build_measure(traj, coarse), law2, ENERGY, bump)).max()
        r_fine = np.abs(tartar_residual(build_measure(traj, fine), law2, ENERGY, bump)).max()
        assert r_fine < r_coarse


class TestConcentration:
    def test_point_masses_have_zero_trace(self):
        mus = [
            measure_from_atoms([(1.0, 0.0), (1.0, 0.0)], epsilon=e)
            for e in (0.05, 0.01)
        ]
        out = concentration_metric(mus)
        assert np.all(out["traces"] == 0.0)
        assert np.isnan(out["slope"])

    def test_two_atom_trace_value(self):
        delta = 0.2
        mu = measure_from_atoms([(1.0, 0.0), (1.0 + delta, 0.0)], epsilon=0.05)
        out = concentration_metric([mu, measure_from_atoms([(1.0, 0.0), (1.0, 0.0)], epsilon=0.01)])
        assert out["traces"][0, 0, 0] == pytest.approx(delta**2 / 4, rel=1e-12)

    def test_mismatched_cells_rejected(self, law2):
        grid = Grid(L=5.0, n=64)
        cfg = SolverConfig(epsilon=0.05, T=0.2, dt=1e-3, n_saves=4)
        init = GridState(0.0, np.ones(grid.n + 1), np.zeros(grid.n + 1))
        traj = simulate(init, law2, grid, cfg)
        mu1 = build_measure(traj, CellPartition(0.0, 0.2, -2.0, 2.0, 2, 2))
        mu2 = build_measure(traj, CellPartition(0.0, 0.2, -2.0, 2.0, 2, 4))
        with pytest.raises(ConfigError):
            concentration_metric([mu1, mu2])
        with pytest.raises(ConfigError):
            concentration_metric([mu1])

    def test_slope_reported_for_decaying_traces(self):
        mus = [
            measure_from_atoms([(1.0 - np.sqrt(e), 0.0), (1.0 + np.sqrt(e), 0.0)], epsilon=e)
            for e in (0.08, 0.04, 0.02)
        ]
        out = concentration_metric(mus)
        assert out["slope"] == pytest.approx(1.0, abs=1e-10)
