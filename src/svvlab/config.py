"""Run configuration: YAML schema, initial data, and cross-validation.

A run file is a key-value tree with blocks: law, grid, solver, initial,
noise, diagnostics, sweep, plus a seed, a sample count and an output
directory.  `KEYS` declares every key once, with the reader of its value.
An unknown key, a block that is not a mapping and a value that its reader
refuses (null among them) are rejected, never replaced by a default, and a
block with a refused value builds nothing, so no cross-check runs on a
stand-in.  An absent key takes the default of what its block builds, or
the one in `DEFAULTS` where that has none.  All violations are collected
and reported together before anything runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import yaml

from .entropy import EntropySpec
from .errors import ConfigError
from .noise import NoiseModel, _base_steps
from .pressure import PressureLaw
from .solver import Grid, GridState, SolverConfig, _diffusion_numbers


def _must(ok, read=None):
    """The reader that refuses a value unless ok(value), then reads it by
    read (if given)."""

    def reader(value):
        if not ok(value):
            raise ValueError(value)
        return value if read is None else read(value)

    return reader


def _choice(*names):
    return _must(lambda v: v in names)


def _items(item, count=None):
    """The reader of a list (of count values, if given), each read by item,
    as a tuple; a bare string is refused, not read as its characters."""
    return _must(
        lambda v: isinstance(v, (list, tuple)) and count in (None, len(v)),
        lambda v: tuple(map(item, v)),
    )


# a whole number (64 and 64.0, not 64.7, true or NaN), a YAML boolean, a string
_whole = _must(lambda v: not isinstance(v, bool) and float(v).is_integer(), int)
_flag = _must(lambda v: isinstance(v, bool))
_text = _must(lambda v: isinstance(v, str))

# every key of a run file, with the reader of its value: a block maps its
# keys to theirs (a block's kind picks what it builds, and the keys of its
# other kinds are read but not used)
KEYS = {
    "law": {
        "kind": _choice("polytropic", "composite"),
        "gamma": float, "kappa": float,
        "gamma1": float, "gamma2": float, "kappa1": float, "kappa2": float,
        "rho_lo": float, "rho_hi": float,
    },
    "grid": {"L": float, "n": _whole},
    "solver": {
        "epsilon": float, "T": float, "dt": float, "dt_base": float, "rho_inf": float,
        "n_saves": _whole, "scheme": _choice("imex", "explicit"),
        "density_floor": float, "record_steps": _flag, "record_forcing": _flag,
    },
    "initial": {
        "kind": _choice("constant", "bump", "riemann_smoothed", "from_file"),
        "amplitude": float, "center": float, "width": float, "m_amplitude": float,
        "left": _items(float, 2), "right": _items(float, 2), "path": _text, "c0": float,
    },
    "noise": {
        "kind": _choice("none", "single_mode", "mode_family"),
        "amplitude": float, "center": float, "width": float, "decay_p": float,
        "n_modes": _whole, "support": _choice("compact_x", "whole_line"),
        "c1": float, "alpha1": float,
    },
    "diagnostics": {"window": _items(float, 2), "psis": _items(_text)},
    "sweep": {"epsilons": _items(float), "cells": _items(_whole, 2)},
    "seed": _whole,
    "samples": _whole,
    "output_dir": _text,
}

# the defaults of the keys whose block builds something without one
# (solver.dt_base defaults to solver.dt)
DEFAULTS = {
    "law": {"kind": "polytropic", "gamma": 2.0,
            "kappa1": 1.0, "kappa2": 1.0, "rho_lo": 1.0, "rho_hi": 2.0},
    "grid": {"L": 5.0, "n": 256},
    "solver": {"epsilon": 0.05, "T": 1.0, "dt": 1e-3},
    "initial": {"kind": "constant"},
    "noise": {"kind": "none", "amplitude": 0.1, "decay_p": 2.0, "n_modes": 8},
    "seed": 0,
}


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
            # 2 width^2 must be positive and finite (a NaN fails it); a
            # quotient that overflows gives exp(-inf) = 0, the profile's limit
            with np.errstate(over="ignore"):
                spread = 2.0 * np.float64(self.width) ** 2
                if not 0.0 < spread < np.inf:
                    raise ConfigError(
                        f"initial.width = {self.width:g} gives a bump whose 2 width^2 "
                        "is zero or not finite"
                    )
                prof = np.exp(-((x - self.center) ** 2) / spread)
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


def load_config(path: str) -> RunConfig:
    """Parse and fully validate a YAML run file.

    All schema and cross-module violations are gathered and raised as one
    ConfigError listing every problem.
    """
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    return config_from_dict(raw)


def _read(keys, given, defaults, where, errs):
    """given read against keys, a reader or a table of them: a table's
    values over defaults, with the given ones read by their readers.  Each
    unknown key, block that is not a mapping and refused value goes to errs
    as where.key, and is None; so is a block (not the file) with a refused
    value."""
    if not isinstance(keys, dict):
        try:
            return keys(given)
        except (TypeError, ValueError, OverflowError):
            errs.append(f"{where} malformed: {given!r}")
            return None
    if not isinstance(given, dict):
        errs.append(f"{where} must be a block of keys, got {given!r}")
        return None
    values = dict(defaults)
    for key, value in given.items():
        name = f"{where}.{key}" if where else str(key)
        if key in keys:
            values[key] = _read(keys[key], value, defaults.get(key, {}), name, errs)
        else:
            errs.append(f"unknown key {name}")
    return None if where and None in values.values() else values


def _given(values, **fields):
    """{field: value} of each key=field that values (or None) gives."""
    values = values or {}
    return {f: values[key] for key, f in fields.items() if values.get(key) is not None}


def _build(errs, label, make, *args):
    """make(*args), or None: when an arg is None (refused, or not built), or
    with `label: fault` in errs when make rejects them."""
    if any(arg is None for arg in args):
        return None
    try:
        return make(*args)
    except (ValueError, OSError, KeyError) as exc:  # ConfigError is a ValueError too
        errs.append(f"{label}: {exc}")
        return None


def _law_from(v):
    if v["kind"] == "polytropic":
        try:
            return PressureLaw.polytropic(v["gamma"], v.get("kappa"))
        except ConfigError as exc:  # it names gamma or kappa
            raise ConfigError(f"law.{exc}") from None
    missing = [f"law.{key}" for key in ("gamma1", "gamma2") if key not in v]
    if missing:
        raise ConfigError(f"kind: composite requires {' and '.join(missing)}")
    return PressureLaw.composite(
        v["gamma1"], v["gamma2"], v["kappa1"], v["kappa2"], v["rho_lo"], v["rho_hi"]
    )


def _noise_from(v, law, seed, dt_base):
    """The raw noise model of the noise block, or None for kind none."""
    shape = _given(v, center="center", width="width")
    if v["kind"] == "single_mode":
        return NoiseModel.single_mode(v["amplitude"], law, seed, dt_base, **shape)
    if v["kind"] == "mode_family":
        return NoiseModel.mode_family(
            v["amplitude"], v["decay_p"], v["n_modes"], law, seed, dt_base,
            **shape, **_given(v, support="support_kind"),
        )
    return None


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("empty configuration", ["configuration file is empty"])
    errs = []
    v = _read(KEYS, raw, DEFAULTS, "", errs)
    sv = v["solver"]
    cfg = RunConfig(
        law=_build(errs, "law block invalid", _law_from, v["law"]),
        grid=_build(errs, "grid block invalid", lambda g: Grid(**g), v["grid"]),
        solver=_build(
            errs, "solver block invalid",
            lambda s: SolverConfig(**{k: x for k, x in s.items() if k != "dt_base"}), sv,
        ),
        initial=None if v["initial"] is None else InitialData(**v["initial"]),
        noise=None,
        seed=v["seed"],
        output_dir=v.get("output_dir") or os.environ.get("SVV_OUTPUT_DIR", "out"),
        **_given(v["noise"], c1="noise_c1", alpha1="noise_alpha1"),
        **_given(v.get("diagnostics"), window="window", psis="psis"),
        **_given(v.get("sweep"), epsilons="sweep_epsilons", cells="cells"),
        **_given(v, samples="samples"),
    )
    solver = cfg.solver

    # cross-constraints; runs use the truncated, mollified noise, and a
    # sweep re-mollifies the raw template for each of its viscosities
    dt_base = None if sv is None else sv["dt_base"] if "dt_base" in sv else sv["dt"]
    noise = _build(
        errs, "noise block invalid", _noise_from, v["noise"], cfg.law, cfg.seed, dt_base
    )
    if noise is not None and solver is not None:
        _build(errs, "solver.dt_base rejected", _base_steps, solver.dt, dt_base)
        cfg.noise = _build(
            errs, "noise mollification constraint violated", noise.truncate_mollify,
            solver.epsilon, cfg.noise_c1, cfg.noise_alpha1, solver.rho_inf,
        )
    cfg.noise_template = noise
    _build(
        errs, "grid block invalid", lambda g, s: _diffusion_numbers(g, s.epsilon, s.dt),
        cfg.grid, solver,
    )
    _build(
        errs, "initial data invalid", lambda i, g, s: i.build(g, s.rho_inf),
        cfg.initial, cfg.grid, solver,
    )
    for name in cfg.psis:
        _build(errs, "diagnostics.psis rejected", _psi_spec, name)
    eps = cfg.sweep_epsilons
    if any(b >= a for a, b in zip(eps, eps[1:])):
        errs.append("sweep.epsilons must be strictly decreasing")
    if cfg.samples < 1:
        errs.append("sample count must be >= 1")
    if errs:
        raise ConfigError("configuration rejected:\n  - " + "\n  - ".join(errs), errs)
    return cfg
