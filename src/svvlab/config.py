"""Run configuration: YAML schema, initial data, and cross-validation.

A run file is a key-value tree with blocks: law, grid, solver, initial,
noise, diagnostics, sweep, plus a seed, a sample count and an output
directory.  A key that nothing reads is rejected, so that a typo or a key
of an older version does not run with a default.  All violations are
collected and reported together before anything runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import yaml

from .entropy import EntropySpec
from .errors import ConfigError
from .noise import NoiseModel
from .pressure import PressureLaw
from .solver import Grid, GridState, SolverConfig


# the keys read from each block of a run file (for any of its kinds), and
# at the top level
BLOCK_KEYS = {
    "law": ("kind", "gamma", "kappa", "gamma1", "gamma2", "kappa1", "kappa2",
            "rho_lo", "rho_hi"),
    "grid": ("L", "n"),
    "solver": ("epsilon", "T", "dt", "dt_base", "rho_inf", "n_saves", "scheme",
               "density_floor", "record_steps", "record_forcing"),
    "initial": ("kind", "amplitude", "center", "width", "m_amplitude", "left",
                "right", "path", "c0"),
    "noise": ("kind", "amplitude", "center", "width", "decay_p", "n_modes",
              "support", "c1", "alpha1"),
    "diagnostics": ("window", "psis"),
    "sweep": ("epsilons", "cells"),
}
TOP_KEYS = (*BLOCK_KEYS, "seed", "samples", "output_dir")


@dataclass(frozen=True)
class InitialData:
    """Initial (rho, m) profile selected by kind.

    kinds: constant | bump | riemann_smoothed | from_file.  Density must
    stay >= c0 > 0 pointwise.
    """

    kind: str
    amplitude: float = 0.0
    center: float = 0.0
    width: float = 1.0
    m_amplitude: float = 0.0
    left: tuple = (1.0, 0.0)
    right: tuple = (1.0, 0.0)
    path: str = ""
    c0: float = 0.1

    def build(self, grid: Grid, rho_inf: float) -> GridState:
        x = grid.x
        if self.kind == "constant":
            rho = np.full(x.size, rho_inf)
            m = np.zeros(x.size)
        elif self.kind == "bump":
            prof = np.exp(-((x - self.center) ** 2) / (2.0 * self.width**2))
            rho = rho_inf + self.amplitude * prof
            m = self.m_amplitude * prof
        elif self.kind == "riemann_smoothed":
            s = 0.5 * (1.0 + np.tanh((x - self.center) / self.width))
            rho = self.left[0] + (self.right[0] - self.left[0]) * s
            m = self.left[1] + (self.right[1] - self.left[1]) * s
        elif self.kind == "from_file":
            data = np.loadtxt(self.path, delimiter=",", skiprows=1)
            rho = np.interp(x, data[:, 0], data[:, 1])
            m = np.interp(x, data[:, 0], data[:, 2])
        else:
            raise ConfigError(f"unknown initial-data kind {self.kind!r}")
        # each check is written so that a NaN fails it
        if not self.c0 > 0.0:
            raise ConfigError(f"initial.c0 must be positive, got {self.c0:g}")
        if not (np.isfinite(rho).all() and np.isfinite(m).all()):
            raise ConfigError("initial data are not finite")
        if not rho.min() >= self.c0:
            raise ConfigError(
                f"initial density dips to {rho.min():g}, below the required "
                f"lower bound c0 = {self.c0:g}"
            )
        return GridState(0.0, rho, m)


@dataclass
class RunConfig:
    """Everything needed to reproduce a run from (file, seed)."""

    law: PressureLaw
    grid: Grid
    solver: SolverConfig
    initial: InitialData
    noise: NoiseModel | None  # truncated and mollified for solver.epsilon
    seed: int
    output_dir: str
    noise_template: NoiseModel | None = None  # the raw model, before mollifying
    noise_c1: float = 1.0
    noise_alpha1: float = 0.25
    window: tuple = (-1.0, 1.0)
    cells: tuple = (8, 8)
    sweep_epsilons: tuple = ()
    samples: int = 1
    psis: tuple = ("energy",)


def _law_from(block, errs):
    kind = block.get("kind", "polytropic")
    try:
        if kind == "polytropic":
            return PressureLaw.polytropic(
                float(block.get("gamma", 2.0)),
                None if block.get("kappa") is None else float(block["kappa"]),
            )
        if kind == "composite":
            return PressureLaw.composite(
                gamma1=float(block["gamma1"]),
                gamma2=float(block["gamma2"]),
                kappa1=float(block.get("kappa1", 1.0)),
                kappa2=float(block.get("kappa2", 1.0)),
                rho_lo=float(block.get("rho_lo", 1.0)),
                rho_hi=float(block.get("rho_hi", 2.0)),
            )
        errs.append(f"law.kind must be polytropic or composite, got {kind!r}")
    except (ConfigError, ValueError, KeyError) as exc:
        errs.append(f"law block invalid: {exc}")
    return None


def _noise_from(block, law, seed, dt_base, errs):
    kind = block.get("kind", "none")
    if kind == "none":
        return None
    try:
        if kind == "single_mode":
            return NoiseModel.single_mode(
                float(block.get("amplitude", 0.1)),
                law,
                seed=seed,
                dt_base=dt_base,
                center=float(block.get("center", 0.0)),
                width=float(block.get("width", 1.0)),
            )
        if kind == "mode_family":
            return NoiseModel.mode_family(
                float(block.get("amplitude", 0.1)),
                float(block.get("decay_p", 2.0)),
                int(block.get("n_modes", 8)),
                law,
                seed=seed,
                dt_base=dt_base,
                center=float(block.get("center", 0.0)),
                width=float(block.get("width", 1.0)),
                support_kind=block.get("support", "compact_x"),
            )
        errs.append(f"noise.kind must be none, single_mode or mode_family, got {kind!r}")
    except (ConfigError, ValueError) as exc:
        errs.append(f"noise block invalid: {exc}")
    return None


def _psi_spec(name) -> EntropySpec:
    """The generator a psis entry names: energy, signed_square, cutoff:R or
    bump:c,w; ConfigError for any other entry, a malformed one, or one whose
    R, c or w is out of range (a finite centre, finite positive R and w)."""
    if name == "energy":
        return EntropySpec.energy()
    if name == "signed_square":
        return EntropySpec.signed_square()
    kind, _, args = str(name).partition(":")
    try:
        if kind == "cutoff":
            return EntropySpec.cutoff_energy(float(args))
        if kind == "bump":
            c, w = (float(v) for v in args.split(","))
            return EntropySpec.compact_bump(c, w)
    except ValueError as exc:  # ConfigError is a ValueError too
        raise ConfigError(f"entropy generator spec {name!r}: {exc}") from None
    raise ConfigError(f"unknown entropy generator spec {name!r}")


def _pair(value, kind=float):
    """value, a list of two numbers, as a tuple of kind."""
    a, b = value
    return kind(a), kind(b)


def _read(block, key, default, convert, errs):
    """The block's value for key (named block.key; the default if absent)
    through convert, or the default, with the rejection in errs, if it fails."""
    value = block.get(key.rpartition(".")[2], default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        errs.append(f"{key} malformed: {value!r}")
        return default


def load_config(path: str) -> RunConfig:
    """Parse and fully validate a YAML run file.

    All schema and cross-module violations are gathered and raised as one
    ConfigError listing every problem.
    """
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    return config_from_dict(raw)


def _unknown_keys(raw, errs):
    """raw without the blocks that are not mappings; each unknown key, as
    block.key, and each such block go to errs."""
    for name, value in raw.items():
        if name not in TOP_KEYS:
            errs.append(f"unknown key {name}")
        elif name in BLOCK_KEYS and not isinstance(value, dict):
            errs.append(f"{name} must be a block of keys, got {value!r}")
        elif name in BLOCK_KEYS:
            errs += [f"unknown key {name}.{k}" for k in value if k not in BLOCK_KEYS[name]]
    return {k: v for k, v in raw.items() if k not in BLOCK_KEYS or isinstance(v, dict)}


def config_from_dict(raw: dict) -> RunConfig:
    errs = []
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("empty configuration", ["configuration file is empty"])
    raw = _unknown_keys(raw, errs)

    law = _law_from(raw.get("law", {}), errs)

    grid = None
    gb = raw.get("grid", {})
    try:
        grid = Grid(L=float(gb.get("L", 5.0)), n=int(gb.get("n", 256)))
    except (ConfigError, ValueError) as exc:
        errs.append(f"grid block invalid: {exc}")

    solver = None
    sb = raw.get("solver", {})
    try:
        solver = SolverConfig(
            epsilon=float(sb.get("epsilon", 0.05)),
            T=float(sb.get("T", 1.0)),
            dt=float(sb.get("dt", 1e-3)),
            rho_inf=float(sb.get("rho_inf", 1.0)),
            n_saves=int(sb.get("n_saves", 10)),
            scheme=sb.get("scheme", "imex"),
            density_floor=float(sb.get("density_floor", 1e-12)),
            record_steps=bool(sb.get("record_steps", False)),
            record_forcing=bool(sb.get("record_forcing", False)),
        )
    except (ConfigError, ValueError) as exc:
        errs.append(f"solver block invalid: {exc}")

    ib = raw.get("initial", {"kind": "constant"})
    initial = InitialData(
        kind=ib.get("kind", "constant"),
        amplitude=_read(ib, "initial.amplitude", 0.0, float, errs),
        center=_read(ib, "initial.center", 0.0, float, errs),
        width=_read(ib, "initial.width", 1.0, float, errs),
        m_amplitude=_read(ib, "initial.m_amplitude", 0.0, float, errs),
        left=_read(ib, "initial.left", (1.0, 0.0), _pair, errs),
        right=_read(ib, "initial.right", (1.0, 0.0), _pair, errs),
        path=ib.get("path", ""),
        c0=_read(ib, "initial.c0", 0.1, float, errs),
    )
    if initial.kind not in ("constant", "bump", "riemann_smoothed", "from_file"):
        errs.append(f"initial.kind {initial.kind!r} not recognized")

    seed = _read(raw, "seed", 0, int, errs)
    nb = raw.get("noise", {"kind": "none"})
    dt_base = _read(sb, "solver.dt_base", solver.dt if solver else 1e-3, float, errs)
    if law is not None:
        noise = _noise_from(nb, law, seed, dt_base, errs)
    else:
        noise = None
        if nb.get("kind", "none") not in ("none", "single_mode", "mode_family"):
            errs.append(
                f"noise.kind must be none, single_mode or mode_family, "
                f"got {nb.get('kind')!r}"
            )
    noise_c1 = _read(nb, "noise.c1", 1.0, float, errs)
    noise_alpha1 = _read(nb, "noise.alpha1", 0.25, float, errs)

    # cross-constraints; runs use the truncated, mollified noise, and a
    # sweep re-mollifies the raw template for each of its viscosities
    noise_template = noise
    if law is not None and solver is not None and noise is not None:
        try:
            noise = noise.truncate_mollify(
                solver.epsilon, noise_c1, noise_alpha1, solver.rho_inf
            )
        except ConfigError as exc:
            errs.append(f"noise mollification constraint violated: {exc}")

    if solver is not None and grid is not None and law is not None:
        try:
            state = initial.build(grid, solver.rho_inf)
        except (ConfigError, OSError, ValueError) as exc:
            errs.append(f"initial data invalid: {exc}")
        else:
            del state

    db = raw.get("diagnostics", {})
    window = _read(db, "diagnostics.window", (-1.0, 1.0), _pair, errs)
    psis = _read(db, "diagnostics.psis", ("energy",), tuple, errs)
    for name in psis:
        try:
            _psi_spec(name)
        except ConfigError as exc:
            errs.append(str(exc))

    wb = raw.get("sweep", {})
    sweep_eps = _read(wb, "sweep.epsilons", (), lambda v: tuple(float(e) for e in v), errs)
    if any(b >= a for a, b in zip(sweep_eps, sweep_eps[1:])):
        errs.append("sweep.epsilons must be strictly decreasing")
    samples = _read(raw, "samples", 1, int, errs)
    if samples < 1:
        errs.append("sample count must be >= 1")
    cells = _read(wb, "sweep.cells", (8, 8), lambda v: _pair(v, int), errs)

    output_dir = raw.get("output_dir") or os.environ.get("SVV_OUTPUT_DIR", "out")

    if errs:
        raise ConfigError(
            "configuration rejected:\n  - " + "\n  - ".join(errs), errs
        )

    return RunConfig(
        law=law,
        grid=grid,
        solver=solver,
        initial=initial,
        noise=noise,
        seed=seed,
        output_dir=output_dir,
        noise_template=noise_template,
        noise_c1=noise_c1,
        noise_alpha1=noise_alpha1,
        window=window,
        cells=cells,
        sweep_epsilons=sweep_eps,
        samples=samples,
        psis=psis,
    )
