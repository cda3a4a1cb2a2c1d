"""Library-driven verification job, shaped like acceptance criteria 05 and 11.

    PYTHONPATH=src python perfbench/verify_job.py --config RUN.yaml --samples N --out OUT.json

Per sample: `simulate` with every step and forcing increment recorded on
the mollified model of the run file, then the pathwise Ito energy balance
and the weak-form entropy-inequality residual for three generators, with
criterion 11's test function.  The raw reports go to OUT.json; the
benchmark checks them (perfbench/checks.py), this job judges nothing.

Layers are looked up through their modules at call time, so the traced
launcher's wrappers see every call.
"""

import argparse
import json

import numpy as np

from svvlab import config, diagnostics, entropy, solver

# criterion 11: phi centred in (0, T) x (-L, L) for T = 0.5, L = 5
PHI = (0.25, 0.2, 0.0, 2.0)


def run_sample(cfg, init, noise, phi, specs, sid):
    traj = solver.simulate(init, cfg.law, cfg.grid, cfg.solver, noise, sid)
    steps = np.asarray(traj.step_states, dtype=float)
    rec = {
        "sample": sid,
        "finite": bool(np.isfinite(steps).all() and np.isfinite(traj.energy).all()),
        "min_rho": float(np.min(traj.min_rho)),
    }
    bal = diagnostics.energy_balance_check(traj, cfg.law, noise)
    rec["balance"] = {
        "residual": bal.residual,
        "energy_change": bal.energy_change,
        "dissipation": bal.dissipation,
        "martingale_term": bal.martingale_term,
        "ito_term": bal.ito_term,
    }
    rec["residuals"] = []
    for name, spec in specs:
        rep = diagnostics.entropy_inequality_residual(traj, cfg.law, spec, phi, noise)
        rec["residuals"].append(
            {"psi": name, "S": rep.S, "viscous_reference": rep.viscous_reference}
        )
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--samples", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    cfg = config.load_config(args.config)
    sc = cfg.solver
    noise = cfg.noise.truncate_mollify(
        sc.epsilon, cfg.noise_c1, cfg.noise_alpha1, sc.rho_inf
    )
    init = cfg.initial.build(cfg.grid, sc.rho_inf)
    phi = diagnostics.BumpTestFunction(*PHI)
    specs = [
        ("energy", entropy.EntropySpec.energy()),
        ("cutoff:5", entropy.EntropySpec.cutoff_energy(5.0)),
        ("bump:0,4", entropy.EntropySpec.compact_bump(0.0, 4.0)),
    ]
    out = {
        "dt": sc.dt,
        "dx": cfg.grid.dx,
        "density_floor": sc.density_floor,
        "psis": [name for name, _ in specs],
        "samples": [],
    }
    for sid in range(args.samples):
        try:
            rec = run_sample(cfg, init, noise, phi, specs, sid)
        except Exception as exc:  # a failed sample is reported, and the job goes on
            rec = {"sample": sid, "error": f"{type(exc).__name__}: {exc}"}
        out["samples"].append(rec)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
