"""Run every workload on several seeds and collect one results file.

    python3 perfbench/suite.py --seeds 1 2 3 4 5 --out perfbench/out/new.json
    python3 perfbench/suite.py --seeds 1 2 3 4 5 --base ../parent --out perfbench/out/pairs.json

Each (workload, seed) is one run of perfbench/run.py, for run_seconds of
BENCHMARK.json, in turn, never two at once.  With --base, the root of a
checkout of the base commit, each (workload, seed) is a pair: the base
checkout's run and this checkout's run, alternating which goes first, so
that both sides of a pair see the same stretch of a machine whose speed
drifts.  The output file holds every run's record (metadata included),
each with its side, and is what perfbench/compare.py reads.  Prints each
end-to-end metric by name with its unit, per workload and side: the
median over seeds and the quartile spread (IQR / median).  Exit status 1
if any run's outputs failed a check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def run_once(root, name, seed, seconds, trace):
    """The record of one run.py run in the checkout at `root`, or None."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    path = os.path.join(root, "perfbench", "out", "results",
                        f"{name}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--base", help="root of a checkout of the base commit, for paired runs")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    roots = {"new": ROOT}
    if args.base:
        roots["base"] = os.path.abspath(args.base)

    runs = []
    ok = True
    for name in WORKLOADS:
        for i, seed in enumerate(args.seeds):
            sides = sorted(roots, reverse=i % 2 == 1)  # base first on even rounds
            for side in sides:
                record = run_once(roots[side], name, seed, seconds, args.trace)
                if record is None:
                    return 2
                record["side"] = side
                runs.append(record)
                ok = ok and record["correct"]
                print(f"{name} seed {seed} {side}: correct={record['correct']} "
                      f"fail_frac={record['fail_frac']:.4f}", flush=True)
        for side in sorted(roots):
            print(f"== {name} ({side})")
            for m in names:
                vals = [r["metrics"][m["name"]]["value"] for r in runs
                        if r["workload"] == name and r["side"] == side]
                print(f"  {m['name']}: {statistics.median(vals):.6g} {m['unit']} "
                      f"(spread {spread(vals):.4f}, n {len(vals)})")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"seconds": seconds, "trace": args.trace, "paired": bool(args.base),
                   "runs": runs}, fh, indent=1)
        fh.write("\n")
    print(f"results: {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
