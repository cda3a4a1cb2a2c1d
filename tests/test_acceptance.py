"""End-to-end acceptance gate.

Twelve numbered criteria, each printing one PASS/FAIL line.  Each test
exercises a pinned configuration whose tolerances were fixed once by a
calibration study and are not tuned to the output of any particular run.
"""

import time

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from svvlab.cli import main as cli_main
from svvlab.diagnostics import (
    BumpTestFunction,
    compact_moments,
    energy_balance_check,
    entropy_inequality_residual,
    invariant_region_check,
)
from svvlab.entropy import (
    EntropySpec,
    entropy_pair,
    mechanical_energy_pair,
    psi_cutoff,
    riemann_invariants,
)
from svvlab.goursat import goursat_solve
from svvlab.noise import NoiseModel
from svvlab.pressure import PressureLaw
from svvlab.solver import Grid, GridState, SolverConfig, simulate
from svvlab.young import CellPartition, build_measure, measure_from_atoms, tartar_residual

LAW2 = PressureLaw.polytropic(2.0)


def report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def sample_states(n=50, seed=0):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.1, 5.0, n)
    u = rng.uniform(-3.0, 3.0, n)
    return rho, u


def bump_init(grid, amp=0.3, width=0.5):
    x = grid.x
    rho = 1.0 + amp * np.exp(-(x**2) / (2 * width**2))
    return GridState(0.0, rho, np.zeros_like(x))


def test_criterion_01_entropy_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in (1.4, 2.0, 3.0):
        law = PressureLaw.polytropic(gamma)
        rho, u = sample_states()
        pv = entropy_pair(law, EntropySpec.energy(), rho, rho * u)
        me = mechanical_energy_pair(law, rho, rho * u)
        scale_e = np.maximum(np.abs(me.eta), 1e-30)
        scale_q = np.maximum(np.abs(me.q), 1e-30)
        worst = max(
            worst,
            float(np.max(np.abs(pv.eta - me.eta) / scale_e)),
            float(np.max(np.abs(pv.q - me.q) / scale_q)),
        )
    dt = time.perf_counter() - t0
    report(1, "entropy consistency", worst <= 1e-8 and dt < 1.0,
           f"max rel err {worst:.2e}, {dt:.2f}s")


def test_criterion_02_cutoff_convergence():
    R = 20.0
    worst = 0.0
    for gamma in (1.4, 2.0, 3.0):
        law = PressureLaw.polytropic(gamma)
        rho, u = sample_states()
        theta = (gamma - 1.0) / 2.0
        keep = R > np.abs(u) + rho**theta
        pv_r = entropy_pair(law, EntropySpec.cutoff_energy(R), rho[keep], (rho * u)[keep])
        pv_e = entropy_pair(law, EntropySpec.energy(), rho[keep], (rho * u)[keep])
        worst = max(worst, float(np.max(np.abs(pv_r.eta - pv_e.eta))))
    # C^1 continuity of the cut-off pieces at |s| = R, 2R: adjacent floats
    # straddle the branch switch, so any piece mismatch would show up here
    joint = 0.0
    for s0 in (R, 2 * R, -R, -2 * R):
        for side in (np.nextafter(s0, -np.inf), np.nextafter(s0, np.inf)):
            va, da, _ = psi_cutoff(R, side)
            vb, db, _ = psi_cutoff(R, s0)
            joint = max(joint, abs(va - vb), abs(da - db))
    report(2, "cut-off convergence", worst <= 1e-10 and joint <= 1e-12,
           f"max |eta_R - eta_E| {worst:.2e}, joint gap {joint:.2e}")


def test_criterion_03_goursat_oracle():
    t0 = time.perf_counter()
    spec = EntropySpec.signed_square()
    errs = []
    for res in (64, 128, 256):
        table = goursat_solve(LAW2, rho_max=4.0, resolution=res)
        rng = np.random.default_rng(3)
        rho = rng.uniform(0.3, 3.0, 200)
        # stay away from the degenerate characteristic boundary |u| = K
        u = rng.uniform(-0.8, 0.8, 200) * np.sqrt(rho)
        ref = entropy_pair(LAW2, spec, rho, rho * u)
        got = table.eval(rho, u)
        # the reference entropy is odd in u and crosses zero, so measure
        # relative to its magnitude over the sample set
        errs.append(float(np.max(np.abs(got - ref.eta)) / np.max(np.abs(ref.eta))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    dt = time.perf_counter() - t0
    ok = errs[-1] <= 1e-3 and min(orders) >= 1.5 and dt < 30.0
    report(3, "Goursat vs gamma-law oracle", ok,
           f"err(256^2) {errs[-1]:.2e}, orders {orders[0]:.2f}/{orders[1]:.2f}, {dt:.1f}s")


def test_criterion_04_equilibrium_and_energy_decay():
    t0 = time.perf_counter()
    grid = Grid(L=5.0, n=512)
    # constant state over 10^3 steps
    cfg = SolverConfig(epsilon=0.05, T=1.0, dt=1e-3, n_saves=10)
    traj = simulate(
        GridState(0.0, np.ones(grid.n + 1), np.zeros(grid.n + 1)), LAW2, grid, cfg
    )
    drift = max(
        float(np.max(np.abs(traj.final.rho - 1.0))),
        float(np.max(np.abs(traj.final.mom))),
    )
    # smooth bump: monotone energy and discrete balance residual
    def residual(dt):
        c = SolverConfig(epsilon=0.05, T=1.0, dt=dt, n_saves=10)
        tr = simulate(bump_init(grid), LAW2, grid, c)
        mono = bool(np.all(np.diff(tr.energy) <= 1e-14))
        return abs(tr.energy[-1] + tr.dissipation[-1] - tr.energy[0]), mono

    r_fine, mono = residual(1e-3)
    bound = 5.0 * 0.01 * (1e-3 + grid.dx**2)  # calibration constant 0.01
    r1, _ = residual(4e-3)
    r2, _ = residual(2e-3)
    ratio = r1 / r2
    dt = time.perf_counter() - t0
    ok = (
        drift <= 1e-12 and mono and r_fine <= bound
        and 1.6 <= ratio <= 2.4 and dt < 10.0
    )
    report(4, "equilibrium and energy decay", ok,
           f"drift {drift:.1e}, residual {r_fine:.2e} <= {bound:.2e}, "
           f"halving ratio {ratio:.2f}, {dt:.1f}s")


def test_criterion_05_ito_energy_balance_refinement():
    t0 = time.perf_counter()
    grid = Grid(L=5.0, n=256)
    noise = NoiseModel.single_mode(0.3, LAW2, seed=42, dt_base=1e-3)
    noise = noise.truncate_mollify(0.05, 3.0, 0.25, 1.0)
    means = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = SolverConfig(
            epsilon=0.05, T=0.5, dt=dt, n_saves=5,
            record_steps=True, record_forcing=True,
        )
        trajs = simulate(bump_init(grid), LAW2, grid, cfg, noise, range(16))
        res = [abs(energy_balance_check(traj, LAW2, noise).residual) for traj in trajs]
        means.append(np.mean(res))
    orders = [np.log2(means[i] / means[i + 1]) for i in range(2)]
    dt = time.perf_counter() - t0
    ok = min(orders) >= 0.3 and dt < 60.0
    report(5, "Ito energy balance refinement", ok,
           f"orders {orders[0]:.2f}/{orders[1]:.2f}, {dt:.1f}s")


def test_criterion_06_invariant_region():
    t0 = time.perf_counter()
    grid = Grid(L=5.0, n=256)
    worst_zero = 0.0
    worst_noisy = 0.0
    margins = []
    for eps in (0.05, 0.02, 0.01):
        H = 3.0 * eps ** (-0.25)
        init = bump_init(grid)
        w1, w2 = riemann_invariants(LAW2, init.rho, init.mom)
        margins.append(1.0 - max(float(np.max(w2)), float(np.max(-w1))) / H)
        cfg = SolverConfig(epsilon=eps, T=0.5, dt=1e-3, n_saves=10)
        traj = simulate(init, LAW2, grid, cfg)
        worst_zero = max(worst_zero, invariant_region_check(traj, LAW2, H))
        noise = NoiseModel.single_mode(0.3, LAW2, seed=21, dt_base=1e-3)
        noise = noise.truncate_mollify(eps, 3.0, 0.25, 1.0)
        traj_n = simulate(init, LAW2, grid, cfg, noise, 0)
        worst_noisy = max(worst_noisy, invariant_region_check(traj_n, LAW2, H))
    dt = time.perf_counter() - t0
    ok = (
        min(margins) >= 0.10 and worst_zero <= 1e-8
        and worst_noisy <= 1e-3 and dt < 60.0
    )
    report(6, "invariant region", ok,
           f"margin {min(margins):.2f}, zero-noise excess {worst_zero:.1e}, "
           f"noisy excess {worst_noisy:.1e}, {dt:.1f}s")


def test_criterion_07_positivity_ensemble():
    t0 = time.perf_counter()
    grid = Grid(L=5.0, n=128)
    noise = NoiseModel.single_mode(0.3, LAW2, seed=13, dt_base=2e-3)
    noise = noise.truncate_mollify(0.01, 3.0, 0.25, 1.0)
    cfg = SolverConfig(epsilon=0.01, T=1.0, dt=2e-3, n_saves=10)
    init = bump_init(grid)
    assert float(init.rho.min()) >= 0.1
    trajs = simulate(init, LAW2, grid, cfg, noise, range(32))  # raises on loss
    min_rho = min(float(np.min(traj.min_rho)) for traj in trajs)
    dt = time.perf_counter() - t0
    ok = min_rho > 0.0 and dt < 120.0
    report(7, "positivity over ensemble", ok,
           f"32 samples, min rho {min_rho:.3f}, {dt:.1f}s")


@pytest.fixture(scope="module")
def viscosity_sweep():
    grid = Grid(L=5.0, n=256)
    cfg = SolverConfig(epsilon=0.05, T=0.5, dt=1e-3, n_saves=50)
    noise = NoiseModel.single_mode(0.3, LAW2, seed=5, dt_base=1e-3)
    eps_list = (0.05, 0.02, 0.01)
    # sample sid at every viscosity on its one Brownian path: the batch
    # epsilon_sweep runs for sample 0
    members = noise.truncate_mollify(eps_list, 3.0, 0.25, cfg.rho_inf)
    runs = [
        list(zip(eps_list, simulate(
            bump_init(grid), LAW2, grid, cfg, members, [sid] * len(eps_list),
            epsilon=eps_list, keep_failures=True,
        )))
        for sid in range(4)
    ]
    return grid, eps_list, runs


def test_criterion_08_higher_integrability(viscosity_sweep):
    t0 = time.perf_counter()
    _, eps_list, runs = viscosity_sweep
    mp = np.zeros(len(eps_list))
    mu3 = np.zeros(len(eps_list))
    for run in runs:
        for k, (_, traj) in enumerate(run):
            assert traj.error is None
            a, b = compact_moments(traj, LAW2, (-1.5, 1.5))
            mp[k] += a / len(runs)
            mu3[k] += b / len(runs)
    var_p = float((mp.max() - mp.min()) / mp.max())
    var_u = float((mu3.max() - mu3.min()) / mu3.max())
    dt = time.perf_counter() - t0
    ok = var_p <= 0.5 and var_u <= 0.5 and dt < 180.0
    report(8, "higher-integrability uniformity", ok,
           f"M_P varies {100 * var_p:.1f}%, M_u3 varies {100 * var_u:.1f}%, {dt:.1f}s")


def test_criterion_09_tartar_commutation(viscosity_sweep):
    t0 = time.perf_counter()
    spec1 = EntropySpec.energy()
    spec2 = EntropySpec.compact_bump(0.0, 4.0)
    # exact zero on point masses
    dirac = tartar_residual(measure_from_atoms([(1.5, 0.6)]), LAW2, spec1, spec2)
    # two-atom cells against the brute-force formula
    a, b = (1.0, 0.2), (1.8, -0.3)
    mu2 = measure_from_atoms([a, b])
    p1a = entropy_pair(LAW2, spec1, *a)
    p1b = entropy_pair(LAW2, spec1, *b)
    p2a = entropy_pair(LAW2, spec2, *a)
    p2b = entropy_pair(LAW2, spec2, *b)
    expect = 0.25 * (
        (float(p1a.eta) - float(p1b.eta)) * (float(p2a.q) - float(p2b.q))
        - (float(p2a.eta) - float(p2b.eta)) * (float(p1a.q) - float(p1b.q))
    )
    two_atom_err = abs(tartar_residual(mu2, LAW2, spec1, spec2)[0, 0] - expect)
    # sweep trend: residual in a window only diffusive leakage can reach
    _, eps_list, runs = viscosity_sweep
    cells = CellPartition(0.0, 0.5, 2.5, 4.0, 4, 4)
    maxima = {}
    for k, eps in enumerate(eps_list):
        traj = runs[0][k][1]
        mu = build_measure(traj, cells)
        maxima[eps] = float(np.abs(tartar_residual(mu, LAW2, spec1, spec2)).max())
    dt = time.perf_counter() - t0
    ok = (
        float(np.abs(dirac).max()) == 0.0 and two_atom_err <= 1e-12
        and maxima[0.01] < maxima[0.05] and dt < 120.0
    )
    report(9, "Tartar commutation", ok,
           f"dirac {float(np.abs(dirac).max()):.1e}, two-atom err {two_atom_err:.1e}, "
           f"max |R|: {maxima[0.05]:.2e} (eps 0.05) vs {maxima[0.01]:.2e} (eps 0.01), "
           f"{dt:.1f}s")


def test_criterion_10_stochastic_self_convergence():
    t0 = time.perf_counter()
    grid = Grid(L=5.0, n=128)
    noise = NoiseModel.single_mode(0.3, LAW2, seed=11, dt_base=6.25e-4)
    noise = noise.truncate_mollify(0.05, 3.0, 0.25, 1.0)
    dts = (5e-3, 2.5e-3, 1.25e-3)
    finals = {}
    for dt_step in dts:
        cfg = SolverConfig(epsilon=0.05, T=0.25, dt=dt_step, n_saves=5)
        trajs = simulate(bump_init(grid), LAW2, grid, cfg, noise, range(64))
        finals[dt_step] = [(traj.final.rho, traj.final.mom) for traj in trajs]

    def l2_gap(dta, dtb):
        gaps = [
            np.sqrt(
                np.trapezoid((ra - rb) ** 2, dx=grid.dx)
                + np.trapezoid((ma - mb) ** 2, dx=grid.dx)
            )
            for (ra, ma), (rb, mb) in zip(finals[dta], finals[dtb])
        ]
        return float(np.mean(gaps))
    e1 = l2_gap(5e-3, 2.5e-3)
    e2 = l2_gap(2.5e-3, 1.25e-3)
    order = np.log2(e1 / e2)
    dt = time.perf_counter() - t0
    ok = order >= 0.4 and dt < 180.0
    report(10, "stochastic self-convergence", ok, f"order {order:.2f}, {dt:.1f}s")


def test_criterion_11_entropy_inequality():
    t0 = time.perf_counter()
    grid = Grid(L=5.0, n=256)
    noise = NoiseModel.single_mode(0.3, LAW2, seed=9, dt_base=1e-3)
    noise = noise.truncate_mollify(0.02, 3.0, 0.25, 1.0)
    cfg = SolverConfig(
        epsilon=0.02, T=0.5, dt=1e-3, n_saves=5,
        record_steps=True, record_forcing=True,
    )
    phi = BumpTestFunction(0.25, 0.2, 0.0, 2.0)
    specs = [
        EntropySpec.energy(),
        EntropySpec.cutoff_energy(5.0),
        EntropySpec.compact_bump(0.0, 4.0),
    ]
    raw = []
    worst_margin = np.inf
    for traj in simulate(bump_init(grid), LAW2, grid, cfg, noise, range(16)):
        for spec in specs:
            rep = entropy_inequality_residual(traj, LAW2, spec, phi, noise)
            tol = abs(rep.viscous_reference) + 0.1 * (cfg.dt + grid.dx**2)
            raw.append(rep.S)
            worst_margin = min(worst_margin, rep.S + tol)
    dt = time.perf_counter() - t0
    ok = worst_margin >= 0.0 and dt < 180.0
    report(11, "entropy inequality", ok,
           f"48 residuals, min S {min(raw):.2e}, worst margin {worst_margin:.2e}, "
           f"{dt:.1f}s")


def test_criterion_12_determinism(tmp_path):
    cfg = {
        "law": {"kind": "polytropic", "gamma": 2.0},
        "grid": {"L": 5.0, "n": 64},
        "solver": {"epsilon": 0.05, "T": 0.1, "dt": 1e-3, "n_saves": 5},
        "initial": {"kind": "bump", "amplitude": 0.3, "width": 0.5},
        "noise": {"kind": "single_mode", "amplitude": 0.3, "c1": 3.0, "alpha1": 0.25},
        "seed": 7,
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    runner = CliRunner()
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = runner.invoke(
            cli_main,
            ["simulate", "--config", str(path), "--output-dir", str(out)],
        )
        assert r.exit_code == 0, r.output
        r = runner.invoke(
            cli_main,
            ["entropy-table", "--gamma", "2.0", "--output-dir", str(out)],
        )
        assert r.exit_code == 0, r.output
        blobs.append(
            (out / "s000_diagnostics.csv").read_bytes()
            + (out / "s000_0005.svv").read_bytes()
            + (out / "entropy_table.csv").read_bytes()
        )
    ok = blobs[0] == blobs[1]
    report(12, "determinism", ok, "byte-identical CSV and frame outputs")
