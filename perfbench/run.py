"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload ensemble --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; the program is used from `src/`
(`PYTHONPATH=src python -m svvlab.cli`), nothing is installed.

A run writes the workload's run file for the seed, then, for `--seconds`
seconds, repeats rounds of one yardstick (yardstick.py, a fixed job that
measures the machine's speed), one set-up (a fresh interpreter importing
`svvlab.cli` and loading that file) and one batch job, checking each
job's outputs (checks.py); one more yardstick ends the run.  The shared
machine's speed changes by up to 2x within seconds to minutes, so a
job's wall time is reported in yardsticks: divided by the mean of the
yardsticks just before and just after it.  With `--trace 1` there are
no yardsticks or set-ups, every second job runs under the tracing
launcher (traced.py), and the run reports per-layer metrics instead of
end-to-end ones.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The full record, with per-job timings and machine
metadata, goes to perfbench/out/results/.  With --write-reference the
checked values of this run (seed 7 only) become perfbench/reference.json.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import yaml

import checks
import traced
from workloads import (
    REFERENCE_SEED,
    WORKLOADS,
    traced_command,
    untraced_command,
    verify_report,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

# Every run has at least this many jobs; after that a round (one set-up
# and one job) starts only if the last round's length still fits in
# --seconds, so a run never measures much past it.
MIN_JOBS = 3
# every child still running this long after the run started is killed,
# and no new one starts, so that a run ends within 180 s
RUN_LIMIT_S = 170.0
# Only the workload children get single-threaded BLAS and OpenMP: a 2-core
# machine shared with the parent process gave half the run-to-run spread.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_CODE = "import sys, svvlab.cli, svvlab.config; svvlab.config.load_config(sys.argv[1])"
YARDSTICK_CMD = [sys.executable, os.path.join(HERE, "yardstick.py")]


def child_env():
    env = dict(os.environ, **CHILD_THREADS)
    env["PYTHONPATH"] = SRC
    # bytecode caching on, as for a user, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(cmd, log_path, deadline):
    """(wall seconds, peak RSS in MB, exit code) of one child process,
    killed if it is still running at `deadline` (a perf_counter time)."""
    timeout = max(1.0, deadline - time.perf_counter())
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def timing(values):
    """Median, max and count.  A run has too few jobs for any percentile to
    have ten samples beyond it, so max stands in for a high percentile."""
    return {"median": statistics.median(values), "max": max(values), "n": len(values),
            "values": values}


def src_lines():
    pkg = os.path.join(SRC, "svvlab")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def metadata():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        with open("/sys/devices/system/cpu/isolated") as fh:
            isolated = fh.read().strip()
    except OSError:
        isolated = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_pinning": "none: CPUs are neither pinned nor isolated for the benchmark",
        "isolated_cpus": isolated,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "blas_threads": dict(CHILD_THREADS, scope="workload child processes only"),
        "git_sha": sha,
        "src_svvlab_lines": src_lines(),
    }


def job_ops(workload, run, out_dir):
    if workload.kind == "verify":
        return checks.check_verify(verify_report(out_dir), workload.samples)
    if workload.kind == "sweep":
        return checks.check_sweep(out_dir, run)
    return checks.check_simulate(out_dir, run, workload.samples)


def dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "svvlab", "cli.py")):
        print(f"no svvlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != REFERENCE_SEED:
        print(f"--write-reference needs --seed {REFERENCE_SEED}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    meta = metadata()

    work = os.path.join(OUT, f"{workload.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = workload.run_file(args.seed)
    config_path = os.path.join(work, "run.yaml")
    with open(config_path, "w") as fh:
        yaml.safe_dump(run, fh, sort_keys=False)
    reference = {}
    if args.seed == REFERENCE_SEED and not args.write_reference:
        with open(REFERENCE) as fh:
            reference = json.load(fh)["workloads"][workload.name]

    # The first interpreter writes the bytecode caches and is not timed:
    # users pay that once per checkout, not once per run.
    setup_cmd = [sys.executable, "-c", SETUP_CODE, config_path]
    _, _, code = run_child(setup_cmd, os.path.join(work, "setup.log"), deadline)
    if code != 0:
        print(f"set-up failed with exit code {code}; see {work}/setup.log", file=sys.stderr)
        return 1

    yardsticks, setup, walls, traced_walls, rss, layers = [], [], [], [], [], []
    raw = {}  # end-to-end figures in seconds, recorded and printed, not metrics
    attempted = failed = 0
    failures = []
    values = None
    start = time.perf_counter()
    last = 0.0
    k = 0
    while time.perf_counter() < deadline and (
        k < MIN_JOBS or time.perf_counter() - start + last <= args.seconds
    ):
        t_round = time.perf_counter()
        if not args.trace:
            yardstick(yardsticks, work, deadline, failures)
            wall, _, code = run_child(setup_cmd, os.path.join(work, "setup.log"), deadline)
            setup.append(wall)
            if code != 0:
                failures.append(f"set-up {k} exited with code {code}")
        tracing = args.trace and k % 2 == 1
        out_dir = os.path.join(work, f"job{k}")
        os.makedirs(out_dir)
        target, job_args = workload.job(config_path, out_dir)
        spans = os.path.join(work, f"spans{k}.json")
        cmd = (traced_command(target, job_args, spans) if tracing
               else untraced_command(target, job_args))
        wall, peak, code = run_child(cmd, os.path.join(work, f"job{k}.log"), deadline)
        ops = job_ops(workload, run, out_dir)
        if reference:
            ops = checks.compare_reference(ops, reference)
        if code != 0:
            failures.append(f"job {k} exited with code {code}; see {work}/job{k}.log")
        attempted += len(ops)
        bad = [err for err, _ in ops.values() if err is not None]
        failed += len(bad)
        failures.extend(bad)
        if values is None:
            values = {op: vals for op, (_, vals) in ops.items()}
        if tracing:
            traced_walls.append(wall)
            layer, errors = traced.summarize(spans)
            errors += [f"{name} was never called" for name in workload.layers
                       if not layer.get(f"{name}.calls")]
            failures.extend(f"traced job {k}: {err}" for err in errors)
            layer["io.bytes_written"] = dir_bytes(out_dir)
            layers.append(layer)
        else:
            walls.append(wall)
            rss.append(peak)
        shutil.rmtree(out_dir)
        last = time.perf_counter() - t_round
        k += 1

    if args.trace:
        metrics = layer_metrics(layers, workload.sample_steps(run))
        # job 2i runs untraced and job 2i+1 traced: differences of
        # neighbours cancel the machine's drift in speed
        metrics["trace.overhead_s"] = statistics.median(
            t - u for u, t in zip(walls, traced_walls))
        names = spec["per_layer"]
    else:
        yardstick(yardsticks, work, deadline, failures)
        # set-up k and job k ran between yardsticks k and k+1
        ys = [(a + b) / 2 for a, b in zip(yardsticks, yardsticks[1:])]
        steps = workload.sample_steps(run)
        wall_s, setup_s = statistics.median(walls), statistics.median(setup)
        raw = {"wall_s": wall_s, "sample_steps_per_s": steps / (wall_s - setup_s)}
        wall_ys = statistics.median(w / y for w, y in zip(walls, ys))
        setup_ys = statistics.median(s / y for s, y in zip(setup, ys))
        metrics = {
            "wall_yardsticks": wall_ys,
            "sample_steps_per_yardstick": steps / (wall_ys - setup_ys),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(rss),
            "ok_frac": 1.0 - failed / attempted,
        }
        names = spec["end_to_end"]
    result = {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in names},
    }

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "jobs": k, "sample_steps_per_job": workload.sample_steps(run),
        "metadata": meta, "run_file": run,
        "timings": {"wall_s": timing(walls), **({"setup_s": timing(setup)} if setup else {}),
                    **({"yardstick_s": timing(yardsticks)} if yardsticks else {}),
                    **({"traced_wall_s": timing(traced_walls)} if traced_walls else {})},
        "raw": raw,
        "fail_frac": failed / attempted, "failures": failures[:20], **result,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if args.write_reference:
        write_reference(workload.name, values)
    if not failures:
        shutil.rmtree(work)  # else keep the logs the failures point to

    for msg in failures[:10]:
        print(f"FAIL {msg}")
    for name, t in record["timings"].items():
        print(f"{name}: median {t['median']:.4f} s, max {t['max']:.4f} s, n {t['n']}")
    print(f"fail_frac: {record['fail_frac']:.4f} ({failed} of {attempted} operations)")
    for name, value in raw.items():
        print(f"{name} (raw, drifts with the machine): {value:.6g}")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


def yardstick(yardsticks, work, deadline, failures):
    wall, _, code = run_child(YARDSTICK_CMD, os.path.join(work, "yardstick.log"), deadline)
    yardsticks.append(wall)
    if code != 0:
        failures.append(f"yardstick {len(yardsticks) - 1} exited with code {code}")


def layer_metrics(layers, sample_steps):
    """Per-job means of the traced jobs' span totals."""
    keys = sorted(set().union(*layers))
    out = {key: statistics.fmean(layer.get(key, 0) for layer in layers) for key in keys}
    out["solver.us_per_sample_step"] = out["solver.simulate.incl_s"] / sample_steps * 1e6
    return out


def write_reference(name, values):
    try:
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {"seed": REFERENCE_SEED, "workloads": {}}
    ref["workloads"][name] = values
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
