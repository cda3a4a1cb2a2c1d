"""Command-line surface: simulate, sweep-epsilon, entropy-table,
young-measure, validate.

Exit codes: 0 success, 1 runtime numerical failure, 2 configuration
rejection.  Every artifact is reproducible from (config file, seed); the
config is copied into the output directory alongside a version stamp.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from dataclasses import replace

import click
import numpy as np

from . import __version__
from .config import RunConfig, _psi_spec, load_config
from .diagnostics import compact_moments, invariant_region_check
from .entropy import EntropySpec, entropy_pair, mechanical_energy_pair
from .errors import ConfigError, DivergenceError, NumericalError, PositivityLoss
from .goursat import goursat_solve
from .io import diagnostics_csv, fmt, save_trajectory, write_csv, write_json
from .pressure import PressureLaw
from .solver import epsilon_sweep, simulate
from .young import CellPartition, build_measure, concentration_metric, tartar_residual

RUNTIME_ERRORS = (PositivityLoss, DivergenceError, NumericalError)


def _load(config_path, seed, output_dir):
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)
    if seed is not None:
        cfg.seed = int(seed)
        if cfg.noise is not None:
            cfg.noise = replace(cfg.noise, seed=int(seed))
            cfg.noise_template = replace(cfg.noise_template, seed=int(seed))
    if output_dir is not None:
        cfg.output_dir = output_dir
    return cfg


def _prepare_outdir(cfg: RunConfig, config_path):
    os.makedirs(cfg.output_dir, exist_ok=True)
    shutil.copy(config_path, os.path.join(cfg.output_dir, "config.yaml"))
    write_json(
        os.path.join(cfg.output_dir, "version.json"),
        {"svvlab": __version__, "seed": cfg.seed},
    )


def _psi_pair(cfg: RunConfig):
    """The two generators of the commutation residual, or exit 2 when the
    law has no psi-generated entropy pairs."""
    names = (list(cfg.psis) + ["signed_square"] * 2)[:2]
    if not cfg.law.is_polytropic:
        click.echo(
            f"entropy generators {', '.join(names)} need a polytropic law; "
            f"law.kind is {cfg.law.kind}",
            err=True,
        )
        sys.exit(2)
    return _psi_spec(names[0]), _psi_spec(names[1])


def _fail_runtime(out_dir, exc):
    payload = {
        "error": type(exc).__name__,
        "detail": str(exc),
        "sample": exc.sample,
    }
    if exc.t is not None:
        payload["t"] = fmt(exc.t)
    if isinstance(exc, PositivityLoss):
        payload.update(x=fmt(exc.x), rho_min=fmt(exc.rho_min))
    try:
        write_json(os.path.join(out_dir, "error.json"), payload)
    except OSError:
        pass
    click.echo(json.dumps(payload), err=True)
    sys.exit(1)


common_options = [
    click.option("--config", "config_path", required=True, type=click.Path(exists=True)),
    click.option("--seed", type=int, default=None, help="override the config seed"),
    click.option("--output-dir", type=click.Path(), default=None),
]


def with_common(f):
    for opt in reversed(common_options):
        f = opt(f)
    return f


@click.group()
@click.version_option(__version__)
def main():
    """Viscous stochastic isentropic Euler laboratory."""


@main.command()
@with_common
@click.option("--samples", type=int, default=None, help="override the config sample count")
def simulate_cmd(config_path, seed, output_dir, samples):
    """Run an ensemble of samples, stepped together as one batch; write
    frames and diagnostics per sample.

    Sample s follows its own Brownian path, the same in any batch.  If a
    sample fails, the run exits 1 and error.json names the first failing
    sample.
    """
    cfg = _load(config_path, seed, output_dir)
    _prepare_outdir(cfg, config_path)
    n_samples = samples if samples is not None else cfg.samples
    init = cfg.initial.build(cfg.grid, cfg.solver.rho_inf)
    try:
        trajs = simulate(
            init, cfg.law, cfg.grid, cfg.solver, cfg.noise, range(n_samples)
        )
    except RUNTIME_ERRORS as exc:
        _fail_runtime(cfg.output_dir, exc)
    for traj in trajs:
        tag = f"s{traj.sample_id:03d}"
        save_trajectory(traj, cfg.output_dir, prefix=tag)
        diagnostics_csv(os.path.join(cfg.output_dir, f"{tag}_diagnostics.csv"), traj)
    click.echo(f"wrote {len(trajs)} sample(s) to {cfg.output_dir}")


main.add_command(simulate_cmd, name="simulate")


@main.command("sweep-epsilon")
@with_common
def sweep_cmd(config_path, seed, output_dir):
    """Common-noise viscosity sweep with Young-measure analysis."""
    cfg = _load(config_path, seed, output_dir)
    if not cfg.sweep_epsilons:
        click.echo("sweep.epsilons missing from config", err=True)
        sys.exit(2)
    psi1, psi2 = _psi_pair(cfg)
    _prepare_outdir(cfg, config_path)
    init = cfg.initial.build(cfg.grid, cfg.solver.rho_inf)
    results = epsilon_sweep(
        init,
        cfg.law,
        cfg.grid,
        cfg.solver,
        cfg.noise_template,
        cfg.sweep_epsilons,
        c1=cfg.noise_c1,
        alpha1=cfg.noise_alpha1,
    )
    a, b = cfg.window
    T = cfg.solver.T
    part = CellPartition(0.0, T, a, b, cfg.cells[0], cfg.cells[1])
    rows = []
    measures = []
    for eps, traj in results:
        if traj.error is not None:
            rows.append((eps, "nan", "nan", "nan", "nan", "nan", repr(traj.error)))
            continue
        mp, mu3 = compact_moments(traj, cfg.law, cfg.window)
        # Gamma_H is the member's own; a noise-free member has none
        excess = invariant_region_check(traj, cfg.law, traj.H) if traj.H else "nan"
        mu = build_measure(traj, part)
        measures.append(mu)
        res = tartar_residual(mu, cfg.law, psi1, psi2)
        rows.append(
            (
                eps,
                float(np.nanmax(traj.energy)),
                traj.dissipation[-1],
                mp,
                mu3,
                excess,
                fmt(float(np.abs(res).max())),
            )
        )
        save_trajectory(traj, cfg.output_dir, prefix=f"eps{eps:g}".replace(".", "p"))
    write_csv(
        os.path.join(cfg.output_dir, "sweep_summary.csv"),
        ["epsilon", "E_max", "D_total", "M_P", "M_u3", "max_excess", "max_tartar"],
        rows,
    )
    if len(measures) >= 2:
        conc = concentration_metric(measures)
        write_json(
            os.path.join(cfg.output_dir, "concentration.json"),
            {
                "epsilon": [fmt(e) for e in conc["epsilon"]],
                "max_trace": [fmt(v) for v in conc["max_trace"]],
                "slope": fmt(conc["slope"]),
            },
        )
    click.echo(f"sweep summary: {len(rows)} rows in {cfg.output_dir}")


@main.command("entropy-table")
@click.option("--gamma", type=float, default=2.0)
@click.option("--psi", default="energy", help="energy | signed_square | cutoff:R")
@click.option("--rho-range", nargs=3, type=float, default=(0.1, 5.0, 20))
@click.option("--u-range", nargs=3, type=float, default=(-3.0, 3.0, 20))
@click.option("--output-dir", type=click.Path(), default=None)
def entropy_table_cmd(gamma, psi, rho_range, u_range, output_dir):
    """Dump (rho, u, eta, q, d_m eta, d2_m eta) over a grid."""
    if not gamma > 1.0:
        click.echo(f"gamma must exceed 1, got {gamma}", err=True)
        sys.exit(2)
    try:
        law = PressureLaw.polytropic(gamma)
        spec = _psi_spec(psi)
    except ConfigError as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)
    out_dir = output_dir or os.environ.get("SVV_OUTPUT_DIR", "out")
    os.makedirs(out_dir, exist_ok=True)
    rhos = np.linspace(rho_range[0], rho_range[1], int(rho_range[2]))
    us = np.linspace(u_range[0], u_range[1], int(u_range[2]))
    rows = []
    for rho in rhos:
        pv = entropy_pair(law, spec, np.full(us.size, rho), rho * us)
        for j, u in enumerate(us):
            rows.append(
                (rho, u, pv.eta[j], pv.q[j], pv.deta_dm[j], pv.d2eta_dm2[j])
            )
    path = os.path.join(out_dir, "entropy_table.csv")
    write_csv(path, ["rho", "u", "eta", "q", "deta_dm", "d2eta_dm2"], rows)
    click.echo(f"wrote {path}")


@main.command("young-measure")
@with_common
def young_cmd(config_path, seed, output_dir):
    """Per-cell commutation residuals for a fresh run of the config."""
    cfg = _load(config_path, seed, output_dir)
    psi1, psi2 = _psi_pair(cfg)
    _prepare_outdir(cfg, config_path)
    init = cfg.initial.build(cfg.grid, cfg.solver.rho_inf)
    try:
        traj = simulate(init, cfg.law, cfg.grid, cfg.solver, cfg.noise, 0)
    except RUNTIME_ERRORS as exc:
        _fail_runtime(cfg.output_dir, exc)
    a, b = cfg.window
    part = CellPartition(0.0, cfg.solver.T, a, b, cfg.cells[0], cfg.cells[1])
    mu = build_measure(traj, part)
    res = tartar_residual(mu, cfg.law, psi1, psi2)
    rows = []
    for it in range(part.n_t):
        for ix in range(part.n_x):
            var = np.ptp(mu.cell(it, ix), axis=0).max()
            rows.append((it, ix, cfg.solver.epsilon, res[it, ix], var))
    path = os.path.join(cfg.output_dir, "young_cells.csv")
    write_csv(path, ["it", "ix", "epsilon", "tartar_residual", "cell_spread"], rows)
    click.echo(f"wrote {path}")


@main.command("validate")
@with_common
def validate_cmd(config_path, seed, output_dir):
    """Structural checks: pressure bounds, noise growth, entropy cross-check."""
    cfg = _load(config_path, seed, output_dir)
    _prepare_outdir(cfg, config_path)
    checks = []
    rhos = np.geomspace(1e-3, 50.0, 64)
    report = cfg.law.verify_bounds(rhos, cfg.solver.rho_inf)
    checks.append(("pressure_bounds", bool(report)))
    # entropy cross-check: psi = s^2/2 against the mechanical pair; there
    # are no psi-generated pairs for a composite law
    if cfg.law.is_polytropic:
        rho = np.linspace(0.2, 4.0, 25)
        u = np.linspace(-2.0, 2.0, 25)
        pv = entropy_pair(cfg.law, EntropySpec.energy(), rho, rho * u)
        me = mechanical_energy_pair(cfg.law, rho, rho * u)
        err = float(np.max(np.abs(pv.eta - me.eta) / np.maximum(np.abs(me.eta), 1e-30)))
        checks.append(("entropy_vs_mechanical", err <= 1e-7))
    else:
        checks.append(("entropy_vs_mechanical", None))
    if cfg.law.is_polytropic and abs(cfg.law.gamma - 2.0) < 1e-12 and cfg.law.is_scaled:
        table = goursat_solve(cfg.law, rho_max=4.0, resolution=64)
        ref = entropy_pair(
            cfg.law, EntropySpec.signed_square(), np.array([1.5]), np.array([0.6])
        )
        g = table.eval(np.array([1.5]), np.array([0.4]))  # u = m / rho
        checks.append(
            ("goursat_cross_check", abs(g[0] - ref.eta[0]) / abs(ref.eta[0]) < 0.05)
        )
    if cfg.noise is not None:
        init = cfg.initial.build(cfg.grid, cfg.solver.rho_inf)
        # |a_k| zeta_k is bounded by sum |a_k| . rho <= B0 rho sqrt(1 + ...)
        B0 = sum(abs(mode.a) for mode in cfg.noise.modes)
        rep = cfg.noise.growth_check([(cfg.grid.x, init.rho, init.mom)], B0=B0)
        checks.append(("noise_growth", rep.passed))
    payload = {
        name: "skip" if ok is None else "pass" if ok else "fail" for name, ok in checks
    }
    write_json(os.path.join(cfg.output_dir, "validate.json"), payload)
    for name, status in payload.items():
        click.echo(f"{name}: {status}")
    if "fail" in payload.values():
        sys.exit(1)


if __name__ == "__main__":
    main()
