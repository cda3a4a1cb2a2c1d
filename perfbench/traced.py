"""Run one svvlab job with a span recorded around every call into a layer.

    python perfbench/traced.py SPANS_JSON cli ARGS...
    python perfbench/traced.py SPANS_JSON verify ARGS...

`cli ARGS` runs what `python -m svvlab.cli ARGS` runs; `verify ARGS` runs
perfbench/verify_job.py.  Before the job starts, each public function in
LAYERS is replaced by a wrapper in every svvlab module that holds a
reference to it (functions imported by name, such as `simulate` in
`svvlab.cli`) or, for methods, on the class.  The program's own files
are not changed.

Every span is kept in memory as [name, parent, start, end, points] and
written to SPANS_JSON when the job ends.  Span 0 is the root: the whole
job from the first line of this file, imports included.  `points` is the
size of the first array (or GridState) argument, 1 for a float, else 0.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

# metric prefix -> (module, class or None, attribute)
LAYERS = {
    "pressure.pressure": ("svvlab.pressure", "PressureLaw", "pressure"),
    "pressure.dpressure": ("svvlab.pressure", "PressureLaw", "dpressure"),
    "pressure.k_integral": ("svvlab.pressure", "PressureLaw", "k_integral"),
    "pressure.internal_energy": ("svvlab.pressure", "PressureLaw", "internal_energy"),
    "pressure.relative_internal_energy": (
        "svvlab.pressure", "PressureLaw", "relative_internal_energy",
    ),
    "entropy.entropy_pair": ("svvlab.entropy", None, "entropy_pair"),
    "entropy.riemann_invariants": ("svvlab.entropy", None, "riemann_invariants"),
    "noise.sample_increments": ("svvlab.noise", "NoiseModel", "sample_increments"),
    "noise.apply_forcing": ("svvlab.noise", "NoiseModel", "apply_forcing"),
    "noise.forcing_quadratic": ("svvlab.noise", "NoiseModel", "forcing_quadratic"),
    "solver.Stepper.step": ("svvlab.solver", "Stepper", "step"),
    "solver.simulate": ("svvlab.solver", None, "simulate"),
    "diagnostics.energy_balance_check": ("svvlab.diagnostics", None, "energy_balance_check"),
    "diagnostics.entropy_inequality_residual": (
        "svvlab.diagnostics", None, "entropy_inequality_residual",
    ),
    "diagnostics.compact_moments": ("svvlab.diagnostics", None, "compact_moments"),
    "diagnostics.invariant_region_check": (
        "svvlab.diagnostics", None, "invariant_region_check",
    ),
    "young.build_measure": ("svvlab.young", None, "build_measure"),
    "young.tartar_residual": ("svvlab.young", None, "tartar_residual"),
    "young.concentration_metric": ("svvlab.young", None, "concentration_metric"),
    "io.save_trajectory": ("svvlab.io", None, "save_trajectory"),
    "io.diagnostics_csv": ("svvlab.io", None, "diagnostics_csv"),
    "io.write_csv": ("svvlab.io", None, "write_csv"),
    "config.load_config": ("svvlab.config", None, "load_config"),
}
ROOT = "cli"


def _points(args):
    for a in args:
        if isinstance(a, np.ndarray):
            return a.size
        rho = getattr(a, "rho", None)
        if isinstance(rho, np.ndarray):
            return rho.size
        if isinstance(a, float):
            return 1
    return 0


class Tracer:
    """Span recorder; one stack, because every job runs on one thread."""

    def __init__(self, t0):
        self.names = [ROOT]
        self.spans = [[0, -1, t0, 0.0, 0]]
        self.stack = [0]

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, stack[-1], 0.0, 0.0, _points(args)]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return wrapper

    def install(self):
        """Wrap every LAYERS entry where its callers look it up."""
        for name, (modname, cls, attr) in LAYERS.items():
            owner = importlib.import_module(modname)
            if cls is not None:
                klass = getattr(owner, cls)
                setattr(klass, attr, self.wrap(name, vars(klass)[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "svvlab":
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

    def dump(self, path):
        self.spans[0][3] = time.perf_counter()
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def summarize(path):
    """(totals, errors) of one spans file.

    Totals are keyed `<layer>.<self_s|incl_s|calls|points>`, plus
    `trace.wall_s`, the root span.  A span's self time is its duration
    minus that of its direct children; `cli.self_s` is the root's own
    time.  Errors name every span that does not lie inside its parent's
    interval, or whose children cover more than its duration.
    """
    with open(path) as fh:
        data = json.load(fh)
    names, spans = data["names"], data["spans"]
    errors = []
    child = [0.0] * len(spans)
    for i, (nid, parent, t0, t1, _) in enumerate(spans[1:], start=1):
        _, _, p0, p1, _ = spans[parent]
        if not (0 <= parent < i and p0 <= t0 <= t1 <= p1):
            errors.append(f"span {i} ({names[nid]}) [{t0}, {t1}] is not inside its parent "
                          f"{parent} ({names[spans[parent][0]]}) [{p0}, {p1}]")
        child[parent] += t1 - t0
    out = {f"{n}.{k}": 0 for n in names for k in ("self_s", "incl_s", "calls", "points")}
    for i, (nid, _, t0, t1, points) in enumerate(spans):
        name = names[nid]
        own = t1 - t0 - child[i]
        if own < -1e-9:
            errors.append(f"span {i} ({name}): children cover {child[i]} s of {t1 - t0} s")
        out[f"{name}.self_s"] += own
        out[f"{name}.incl_s"] += t1 - t0
        out[f"{name}.calls"] += 1
        out[f"{name}.points"] += points
    out["trace.wall_s"] = spans[0][3] - spans[0][2]
    return out, errors


def main(argv):
    spans_path, target, job_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(_T0)
    if target == "cli":
        import svvlab.cli

        def run():
            svvlab.cli.main.main(args=job_args, prog_name="svvlab")
    elif target == "verify":
        import verify_job

        def run():
            verify_job.main(job_args)
    else:
        raise SystemExit(f"unknown target {target!r}")
    tracer.install()
    code = 0
    try:
        run()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
