"""Compare two commits' results from perfbench/suite.py, workload by workload.

    python3 perfbench/compare.py PAIRS.json          # suite.py --base: paired runs
    python3 perfbench/compare.py BASE.json NEW.json  # two separate suite.py files

Runs of the two commits are matched by workload and then in order: the
k-th run of a workload on one side with the k-th on the other, which in
a paired file is the same seed.  For each workload and each end-to-end
metric of BENCHMARK.json it prints both medians, the change ("worse":
the median over pairs of NEW against BASE, as a share of BASE, positive
when NEW is worse), the quartile spread (IQR / median) of the ratios
NEW / BASE, and a verdict against the metric's bound:

    better      NEW wins at least nine pairs in ten, and the change
                exceeds BASE's own quartile spread
    unresolved  the spread of the ratios exceeds the bound
    REGRESSION  the change is worse than the bound
    ok          none of these

Paired runs (suite.py --base) ran each seed's two runs back to back, so
the machine's drift in speed, which both share, cancels from the
ratio.  Two separate files were measured minutes apart, so their ratios
carry the drift and are often unresolved.  Both sides must have the same
run length.  Traced runs' per-layer metrics are listed with their change
and no verdict.  Exit status 1 when any regression is flagged.
"""

import argparse
import json
import os
import statistics
import sys

from suite import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WIN_SHARE = 0.9


def by_workload(runs):
    """workload -> metric -> values, in run order."""
    out = {}
    for r in runs:
        for name, m in r["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    return out


def worse_by(base, new, higher_better):
    """NEW's change against BASE as a share of BASE, positive when worse."""
    return (base - new) / base if higher_better else (new - base) / base


def verdict(base, new, bound, higher_better):
    """(verdict, median change, spread of the ratios) over the pairs."""
    pairs = list(zip(base, new))
    changes = [worse_by(b, n, higher_better) for b, n in pairs if b]
    if not changes:  # a layer the base never calls
        return ("" if bound is None else "unresolved"), float("nan"), float("nan")
    worse = statistics.median(changes)
    ratio_spread = spread([1 + c for c in changes])
    wins = sum(c < 0 for c in changes)
    if wins >= WIN_SHARE * len(changes) and -worse > spread([b for b, _ in pairs]):
        return "better", worse, ratio_spread
    if bound is None:
        return "", worse, ratio_spread
    if ratio_spread > bound:
        return "unresolved", worse, ratio_spread
    return ("REGRESSION" if worse > bound else "ok"), worse, ratio_spread


def load(paths):
    """(base runs, new runs, paired?) from one paired file or two files."""
    files = []
    for path in paths:
        with open(path) as fh:
            files.append(json.load(fh))
    if len(files) == 1:
        runs = files[0]["runs"]
        if not files[0].get("paired"):
            raise SystemExit(f"{paths[0]} holds one commit's runs; give two files")
        return ([r for r in runs if r["side"] == "base"],
                [r for r in runs if r["side"] == "new"], True)
    if files[0]["seconds"] != files[1]["seconds"]:
        raise SystemExit(f"run lengths differ: {files[0]['seconds']} s against "
                         f"{files[1]['seconds']} s; measure both with the same benchmark")
    return files[0]["runs"], files[1]["runs"], False


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", nargs="+", help="PAIRS.json, or BASE.json NEW.json")
    args = ap.parse_args(argv)
    if len(args.results) > 2:
        ap.error("give one paired file or two files")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base_runs, new_runs, paired = load(args.results)
    metrics = spec["end_to_end"] + spec["per_layer"]
    base, new = by_workload(base_runs), by_workload(new_runs)
    print("paired runs" if paired else "separate runs: the machine's drift is not cancelled")
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        b, n = base.get(workload, {}), new.get(workload, {})
        if not b or not n:
            print(f"== {workload}: missing from {'base' if not b else 'new'}")
            continue
        print(f"== {workload}")
        for m in metrics:
            if m["name"] not in b or m["name"] not in n:
                continue
            bv, nv = b[m["name"]], n[m["name"]]
            v, worse, sp = verdict(bv, nv, m.get("bound"), m["better"] == "higher")
            regressed = regressed or v == "REGRESSION"
            print(f"  {m['name']:<44} {statistics.median(bv):>12.6g} -> "
                  f"{statistics.median(nv):<12.6g} {m['unit']:<6} "
                  f"worse {worse:+.1%}  spread {sp:.3f}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
