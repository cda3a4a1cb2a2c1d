"""The benchmark's own tests: a corrupted output is counted as a failed
operation, a traced job calls every layer mapped to its workload, a span
outside its parent is reported, and paired runs cancel the machine's drift.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import subprocess

import numpy as np
import pytest
import yaml

import checks
import compare
import traced
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

# The README run file, shrunk so that a job takes well under a second;
# T stays 0.5 so that criterion 11's test function fits inside (0, T).
def tiny_run(kind, record=False, sweep=None):
    solver = {"dt": 0.01, "n_saves": 5, "record_steps": record, "record_forcing": record}
    overrides = {"grid": {"n": 32}, "solver": solver}
    if sweep:
        overrides["sweep"] = {"epsilons": sweep, "cells": [2, 2]}
    return workloads.Workload("tiny", kind, overrides).run_file(3)


def run_job(tmp_path, run, target, args, spans=None):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(run))
    args = [a.replace("CONFIG", str(cfg)) for a in args]
    cmd = (workloads.traced_command(target, args, spans) if spans
           else workloads.untraced_command(target, args))
    subprocess.run(cmd, env=ENV, cwd=ROOT, check=True, capture_output=True)


def fail_frac(ops):
    return sum(err is not None for err, _ in ops.values()) / len(ops)


def test_corrupted_frame_raises_fail_frac(tmp_path):
    run = tiny_run("simulate")
    out = tmp_path / "out"
    run_job(tmp_path, run, "cli",
            ["simulate", "--config", "CONFIG", "--samples", "2", "--output-dir", str(out)])
    assert fail_frac(checks.check_simulate(out, run, 2)) == 0.0

    frame = out / "s001_0005.svv"
    blob = bytearray(frame.read_bytes())
    blob[28:36] = np.array([np.nan]).tobytes()  # rho at the first node
    frame.write_bytes(bytes(blob))
    ops = checks.check_simulate(out, run, 2)
    assert fail_frac(ops) == 0.5
    assert "non-finite" in ops["s001"][0]


def test_missing_output_fails_every_operation(tmp_path):
    run = tiny_run("simulate")
    assert fail_frac(checks.check_simulate(tmp_path, run, 3)) == 1.0
    sweep = tiny_run("sweep", sweep=[0.05, 0.02])
    assert fail_frac(checks.check_sweep(tmp_path, sweep)) == 1.0
    ops = checks.check_verify(tmp_path / "none.json", 2)
    assert len(ops) == 2 * (1 + len(checks.VERIFY_PSIS)) and fail_frac(ops) == 1.0


def test_incomplete_sweep_row_raises_fail_frac(tmp_path):
    run = tiny_run("sweep", sweep=[0.05, 0.02])
    out = tmp_path / "out"
    run_job(tmp_path, run, "cli",
            ["sweep-epsilon", "--config", "CONFIG", "--output-dir", str(out)])
    assert fail_frac(checks.check_sweep(out, run)) == 0.0

    summary = out / "sweep_summary.csv"
    lines = summary.read_text().splitlines()
    summary.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(",", 1)[0]]) + "\n")
    ops = checks.check_sweep(out, run)
    assert fail_frac(ops) == 0.5
    assert "incomplete" in ops["eps0.02"][0]


def test_entropy_margin_and_balance_checks(tmp_path):
    run = tiny_run("verify", record=True)
    report = tmp_path / "verify.json"
    run_job(tmp_path, run, "verify",
            ["--config", "CONFIG", "--samples", "2", "--out", str(report)])
    assert fail_frac(checks.check_verify(report, 2)) == 0.0

    data = json.loads(report.read_text())
    data["samples"][1]["residuals"][2]["S"] = -1.0
    data["samples"][0]["balance"]["residual"] = 1.0
    report.write_text(json.dumps(data))
    ops = checks.check_verify(report, 2)
    assert fail_frac(ops) == 2 / 8
    assert ops["s000.balance"][0] and ops["s001.bump:0,4"][0]


def test_reference_mismatch_fails_the_operation():
    ops = {"s000": (None, [1.0, 2.0]), "s001": (None, [1.0, 2.0])}
    ref = {"s000": [1.0, 2.0], "s001": [1.0, 2.0 * (1 + 1e-6)]}
    out = checks.compare_reference(ops, ref)
    assert out["s000"][0] is None and "reference" in out["s001"][0]


@pytest.mark.parametrize("target", ["cli", "verify"])
def test_traced_job_calls_its_layers(tmp_path, target):
    run = tiny_run("verify", record=True)
    spans = tmp_path / "spans.json"
    if target == "cli":
        args = ["simulate", "--config", "CONFIG", "--output-dir", str(tmp_path / "o")]
        layers = workloads.WORKLOADS["ensemble"].layers
    else:
        args = ["--config", "CONFIG", "--samples", "1", "--out", str(tmp_path / "v.json")]
        layers = workloads.WORKLOADS["verify"].layers
    run_job(tmp_path, run, target, args, spans=str(spans))
    totals, errors = traced.summarize(spans)
    assert errors == []
    assert [name for name in layers if not totals[f"{name}.calls"]] == []
    assert totals["solver.Stepper.step.calls"] == 50
    assert totals["solver.simulate.calls"] == 1
    assert totals["config.load_config.calls"] == 1
    if target == "verify":
        assert totals["diagnostics.entropy_inequality_residual.calls"] == 3
    else:
        assert totals["io.save_trajectory.calls"] == 1
    assert min(v for k, v in totals.items() if k.endswith(".self_s")) >= 0


def test_span_outside_its_parent_is_reported(tmp_path):
    names = ["cli", "solver.simulate", "solver.Stepper.step"]
    good = [[0, -1, 0.0, 10.0, 0], [1, 0, 1.0, 9.0, 0], [2, 1, 2.0, 3.0, 0]]
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"names": names, "spans": good}))
    totals, errors = traced.summarize(path)
    assert errors == [] and totals["solver.simulate.self_s"] == 7.0

    crossed = good[:2] + [[2, 1, 8.0, 9.5, 0]]  # ends after its parent
    path.write_text(json.dumps({"names": names, "spans": crossed}))
    assert "not inside its parent" in traced.summarize(path)[1][0]

    overlap = good[:2] + [[2, 1, 2.0, 6.0, 0], [2, 1, 3.0, 8.0, 0]]
    path.write_text(json.dumps({"names": names, "spans": overlap}))
    assert "children cover" in traced.summarize(path)[1][0]


def test_compare_cancels_drift_in_paired_runs():
    # machine speed drifting by +-30% from pair to pair, shared by both runs of a pair
    drift = [1 + 0.3 * np.sin(k) for k in range(1, 11)]
    base = [4.0 * f for f in drift]

    def scaled(factor):
        return [v * factor for v in base]

    assert compare.verdict(base, scaled(1.3), 0.25, False)[0] == "REGRESSION"
    assert compare.verdict(base, scaled(1.1), 0.25, False)[0] == "ok"
    # a gain counts only when it exceeds the base's own spread, here about 0.4
    assert compare.verdict(base, scaled(1 / 1.3), 0.25, False)[0] == "ok"
    assert compare.verdict(base, scaled(0.5), 0.25, False)[0] == "better"
    # the same change measured without the pairing: drift swamps it
    unpaired = [v * f / g for v, f, g in zip(scaled(1.3), drift[::-1], drift)]
    assert compare.verdict(base, unpaired, 0.25, False)[0] == "unresolved"
    # throughput: higher is better, so a lower NEW is worse
    assert compare.verdict(base, scaled(1 / 1.5), 0.25, True)[0] == "REGRESSION"
