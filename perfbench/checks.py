"""Output checks for the benchmark workloads.

A check looks only at what a job left on disk and returns one entry per
operation (a sample, a sweep member, or a checked residual):

    {op_id: (error, values)}

`error` is None when the operation's outputs pass, else the reason.
`values` are the numbers pinned in reference.json for the reference seed.
An operation whose outputs are missing fails, so a crashed job fails all
of its operations.  Frames are read here with their own reader, not the
program's, from the format svvlab.io documents.
"""

import csv
import json
import math
import os
import struct

import numpy as np

MAGIC = b"SVV1"
# criterion 06's tolerance on the invariant-region excess of a noisy path
EXCESS_TOL = 1e-3
# |Ito balance residual| / dt: the residual is a time-discretisation error;
# at most 6.0 over 100 samples of the verify workload (seeds 1-20, dt = 1e-3)
BALANCE_DT_FACTOR = 25.0
# reference comparison: outputs may change only by floating-point reordering
REF_RTOL = 1e-8
REF_ATOL = 1e-12
# entropy generators of verify_job.py, each an operation after the balance
VERIFY_PSIS = ["energy", "cutoff:5", "bump:0,4"]


def read_frame(path):
    """(t, rho, m) of one SVV1 frame; raises ValueError on a malformed file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError(f"{os.path.basename(path)}: bad magic")
    n_f, _, t = struct.unpack("<ddd", blob[4:28])
    n1 = int(n_f) + 1
    body = np.frombuffer(blob[28:], dtype="<f8")
    if body.size != 2 * n1:
        raise ValueError(f"{os.path.basename(path)}: truncated")
    return t, body[:n1], body[n1:]


def _trajectory_error(out_dir, prefix, run):
    """Error of a saved trajectory, or None; plus its final frame."""
    n_frames = run["solver"]["n_saves"] + 1
    floor = run["solver"].get("density_floor", 1e-12)
    n = run["grid"]["n"]
    with open(os.path.join(out_dir, f"{prefix}_manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest.get("error") is not None:
        return f"{prefix}: run error {manifest['error']}", None
    if len(manifest["frames"]) != n_frames:
        return f"{prefix}: {len(manifest['frames'])} frames, expected {n_frames}", None
    final = None
    for entry in manifest["frames"]:
        _, rho, m = read_frame(os.path.join(out_dir, entry["file"]))
        if rho.size != n + 1:
            return f"{entry['file']}: {rho.size} nodes, expected {n + 1}", None
        if not (np.isfinite(rho).all() and np.isfinite(m).all()):
            return f"{entry['file']}: non-finite field", None
        if rho.min() < floor:
            return f"{entry['file']}: density {rho.min():.3g} below floor {floor:g}", None
        final = (rho, m)
    return None, final


def _run_op(ops, op, fn):
    """Record fn()'s (error, values); missing or malformed output is an error."""
    try:
        ops[op] = fn()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        ops[op] = (f"{op}: unreadable output ({type(exc).__name__}: {exc})", [])


def check_simulate(out_dir, run, samples):
    """`simulate` outputs: frames and diagnostics CSV of each sample."""
    floor = run["solver"].get("density_floor", 1e-12)
    n_rows = run["solver"]["n_saves"] + 1

    def one(sid):
        tag = f"s{sid:03d}"
        err, final = _trajectory_error(out_dir, tag, run)
        if err:
            return err, []
        with open(os.path.join(out_dir, f"{tag}_diagnostics.csv")) as fh:
            rows = [[float(v) for v in r] for r in list(csv.reader(fh))[1:]]
        arr = np.array(rows)
        if arr.shape != (n_rows, 4) or not np.isfinite(arr).all():
            return f"{tag}_diagnostics.csv: malformed or non-finite", []
        _, energy, diss, min_rho = arr.T
        if energy.min() < -1e-12 or diss.min() < 0.0 or np.any(np.diff(diss) < 0.0):
            return f"{tag}_diagnostics.csv: negative energy or dissipation", []
        if min_rho.min() < floor:
            return f"{tag}_diagnostics.csv: min_rho below floor", []
        rho, m = final
        return None, [energy[-1], diss[-1], min_rho[-1], float(rho.sum()), float(m.sum())]

    ops = {}
    for sid in range(samples):
        _run_op(ops, f"s{sid:03d}", lambda sid=sid: one(sid))
    return ops


def check_sweep(out_dir, run):
    """`sweep-epsilon` outputs: one complete, finite summary row per member,
    its frames, and its entry in concentration.json."""
    eps_list = run["sweep"]["epsilons"]

    def table():
        with open(os.path.join(out_dir, "sweep_summary.csv")) as fh:
            rows = list(csv.reader(fh))[1:]
        with open(os.path.join(out_dir, "concentration.json")) as fh:
            conc = json.load(fh)
        traces = {float(e): float(v) for e, v in zip(conc["epsilon"], conc["max_trace"])}
        return rows, traces

    try:
        rows, traces = table()
    except (OSError, ValueError, KeyError) as exc:
        rows, traces = [], {}
        missing = f"sweep tables unreadable ({type(exc).__name__}: {exc})"

    def one(eps):
        match = [r for r in rows if r and math.isclose(float(r[0]), eps, rel_tol=1e-12)]
        if not rows:
            return missing, []
        if len(match) != 1 or len(match[0]) != 7:
            return f"eps {eps:g}: summary row missing or incomplete", []
        vals = [float(v) for v in match[0][1:]]
        if not all(math.isfinite(v) for v in vals):
            return f"eps {eps:g}: non-finite summary value (member failed)", []
        if vals[4] > EXCESS_TOL:
            return f"eps {eps:g}: invariant-region excess {vals[4]:.3g}", []
        trace = traces.get(eps, math.nan)
        if not math.isfinite(trace):
            return f"eps {eps:g}: missing from concentration.json", []
        err, _ = _trajectory_error(out_dir, f"eps{eps:g}".replace(".", "p"), run)
        return err, vals + [trace]

    ops = {}
    for eps in eps_list:
        _run_op(ops, f"eps{eps:g}", lambda eps=eps: one(eps))
    return ops


def check_verify(path, samples):
    """verify_job.py report: per sample, the Ito balance and one entropy
    inequality per generator, each an operation."""
    try:
        with open(path) as fh:
            report = json.load(fh)
        recs = {r["sample"]: r for r in report["samples"]}
        tol = 0.1 * (report["dt"] + report["dx"] ** 2)  # criterion 11
        floor = report["density_floor"]
        if report["psis"] != VERIFY_PSIS:
            raise ValueError(f"generators {report['psis']}, expected {VERIFY_PSIS}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        err = f"verify report unreadable ({type(exc).__name__}: {exc})"
        return {
            f"s{sid:03d}.{name}": (err, [])
            for sid in range(samples)
            for name in ["balance", *VERIFY_PSIS]
        }

    ops = {}
    for sid in range(samples):
        tag = f"s{sid:03d}"
        rec = recs.get(sid, {"error": "missing from report"})
        err = rec.get("error")
        if err is None and not (
            rec.get("finite") is True and rec.get("min_rho", -math.inf) >= floor
        ):
            err = f"non-finite field or density below floor (min rho {rec.get('min_rho')})"

        def balance(rec=rec):
            b = rec["balance"]
            terms = [b["residual"], b["energy_change"], b["dissipation"],
                     b["martingale_term"], b["ito_term"]]
            if not all(math.isfinite(v) for v in terms):
                return "balance terms non-finite", []
            if abs(terms[0]) > BALANCE_DT_FACTOR * report["dt"]:
                return f"Ito balance residual {terms[0]:.3g} exceeds {BALANCE_DT_FACTOR} dt", []
            return None, terms

        def entropy(i, rec=rec):
            r = rec["residuals"][i]
            margin = r["S"] + abs(r["viscous_reference"]) + tol
            if not margin >= 0.0:
                return f"{r['psi']}: entropy margin S + tol = {margin:.3g} < 0", []
            return None, [r["S"], r["viscous_reference"]]

        checks = [("balance", balance)]
        checks += [(psi, lambda i=i: entropy(i)) for i, psi in enumerate(VERIFY_PSIS)]
        for name, fn in checks:
            op = f"{tag}.{name}"
            if err is not None:
                ops[op] = (f"{tag}: {err}", [])
            else:
                _run_op(ops, op, fn)
    return ops


def compare_reference(ops, reference):
    """Turn passing operations whose values leave the reference into errors."""
    out = {}
    for op, (err, vals) in ops.items():
        if err is None:
            ref = reference.get(op)
            if ref is None or len(ref) != len(vals):
                err = f"{op}: no reference values"
            else:
                for i, (v, r) in enumerate(zip(vals, ref)):
                    if not math.isclose(v, r, rel_tol=REF_RTOL, abs_tol=REF_ATOL):
                        err = f"{op}: value {i} is {v!r}, reference {r!r}"
                        break
        out[op] = (err, vals)
    return out
