"""Empirical Young measures on space-time cells.

A trajectory's (rho, m) samples are binned into an n_t x n_x partition of
a compact analysis window; each cell becomes an equal-weight empirical
measure.  On these we evaluate the bilinear commutation residual of two
entropy pairs

    R = <eta1 q2 - eta2 q1> - (<eta1><q2> - <q1><eta2>),

which vanishes identically on point masses, and a concentration metric
(trace of the per-cell sample covariance) tracked across a viscosity
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import _step_blocks
from .entropy import EntropySpec, entropy_pair
from .errors import ConfigError, DomainError
from .pressure import PressureLaw
from .solver import Trajectory

VACUUM_TOL = 1e-10


@dataclass(frozen=True)
class CellPartition:
    """n_t x n_x uniform cells over [t0, t1] x [a, b]."""

    t0: float
    t1: float
    a: float
    b: float
    n_t: int
    n_x: int

    def __post_init__(self):
        # each check is written so that a NaN fails it
        if not (-np.inf < self.t0 < self.t1 < np.inf and -np.inf < self.a < self.b < np.inf):
            raise ConfigError("cell window must be finite and have positive extent")
        counts = (self.n_t, self.n_x)
        if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in counts):
            raise ConfigError(f"cell counts must be positive integers, got {counts}")

    def refine(self) -> "CellPartition":
        return CellPartition(self.t0, self.t1, self.a, self.b, 2 * self.n_t, 2 * self.n_x)


@dataclass
class EmpiricalYoungMeasure:
    """Per-cell equal-weight (rho, m) atoms, tagged with epsilon."""

    cells: CellPartition
    atoms: np.ndarray  # (N, 2), cell after cell, row-major over (it, ix)
    counts: np.ndarray  # the atom count of each cell, in the same order
    epsilon: float
    starts: np.ndarray = field(init=False)  # the index of each cell's first atom

    def __post_init__(self):
        self.starts = np.cumsum(self.counts) - self.counts

    def cell(self, it: int, ix: int) -> np.ndarray:
        k = it * self.cells.n_x + ix
        start = self.starts[k]
        return self.atoms[start : start + self.counts[k]]


def _bin(cells: CellPartition, t, x):
    """The cell of each (save time, node) pair in the window, the window's
    save and node positions ks and js, and each cell's atom count;
    ConfigError if the window exceeds t or x, or a cell receives no atom."""
    if cells.a < x[0] - 1e-12 or cells.b > x[-1] + 1e-12:
        raise ConfigError("cell window exceeds the spatial domain")
    if cells.t0 < t[0] - 1e-12 or cells.t1 > t[-1] + 1e-12:
        raise ConfigError("cell window exceeds the simulated time range")

    def bins(v, lo, hi, n):
        """The positions of the values v in [lo, hi], and the bin of each."""
        (inside,) = np.nonzero((v >= lo - 1e-12) & (v <= hi + 1e-12))
        return inside, np.clip(((v[inside] - lo) / (hi - lo) * n).astype(int), 0, n - 1)

    ks, it_of = bins(t, cells.t0, cells.t1, cells.n_t)
    js, ix_of = bins(x, cells.a, cells.b, cells.n_x)
    cell = (it_of[:, None] * cells.n_x + ix_of).ravel()
    counts = np.bincount(cell, minlength=cells.n_t * cells.n_x)
    (empty,) = np.nonzero(counts == 0)
    if empty.size:
        it, ix = divmod(int(empty[0]), cells.n_x)
        raise ConfigError(
            f"cell ({it}, {ix}) received no samples; refine saves or coarsen cells"
        )
    return cell, ks, js, counts


def build_measure(traj: Trajectory, cells: CellPartition) -> EmpiricalYoungMeasure:
    """Bin the trajectory's save-time grid values into the cell partition.

    The atoms are ordered by save time, then by node, and binned by one
    stable sort of their cell indices, so each cell keeps that order."""
    cell, ks, js, counts = _bin(cells, traj.times, traj.grid.x)
    atoms = traj.save_states[ks][:, :, js].transpose(0, 2, 1).reshape(-1, 2)
    binned = atoms[np.argsort(cell, kind="stable")]
    return EmpiricalYoungMeasure(cells, binned, counts, traj.config.epsilon)


def measure_from_atoms(atoms, epsilon: float = 0.0) -> EmpiricalYoungMeasure:
    """One-cell measure from explicit (rho, m) atoms, for synthetic tests."""
    arr = np.asarray(atoms, dtype=float).reshape(-1, 2)
    if not (arr.size and np.isfinite(arr).all() and (arr[:, 0] >= 0.0).all()):
        raise DomainError("need at least one atom, finite, with a nonnegative density")
    cells = CellPartition(0.0, 1.0, 0.0, 1.0, 1, 1)
    return EmpiricalYoungMeasure(cells, arr, np.array([len(arr)]), epsilon)


def _atom_pairs(law, spec, atoms):
    """(eta, q) of every atom, vacuum atoms zeroed, from one entropy_pair
    call per block of at most BLOCK_POINTS node-points (atoms x
    spec.pair_nodes)."""
    rho = atoms[:, 0].copy()
    m = atoms[:, 1].copy()
    vac = rho < VACUUM_TOL
    rho[vac] = 0.0
    m[vac] = 0.0
    eta = np.empty(rho.size)
    q = np.empty(rho.size)
    for block in _step_blocks(rho.size, spec.pair_nodes):
        pv = entropy_pair(law, spec, rho[block], m[block])
        eta[block] = pv.eta
        q[block] = pv.q
    return eta, q


def tartar_residual(
    measure: EmpiricalYoungMeasure,
    law: PressureLaw,
    spec1: EntropySpec,
    spec2: EntropySpec,
) -> np.ndarray:
    """Per-cell commutation residual, shape (n_t, n_x).

    Exactly zero on single-atom cells and antisymmetric in (spec1, spec2).
    Cell means are segment sums over the atoms of all cells at once.
    """
    c = measure.cells
    atoms, starts, counts = measure.atoms, measure.starts, measure.counts
    eta1, q1 = _atom_pairs(law, spec1, atoms)
    eta2, q2 = _atom_pairs(law, spec2, atoms)

    def mean(v):
        return np.add.reduceat(v, starts) / counts

    cross = mean(eta1 * q2 - eta2 * q1)
    split = mean(eta1) * mean(q2) - mean(q1) * mean(eta2)
    return np.where(_degenerate(atoms, starts, counts), 0.0, cross - split).reshape(
        c.n_t, c.n_x
    )


def _degenerate(atoms, starts, counts):
    """Cells holding a single atom, or only copies of one atom."""
    spread = np.maximum.reduceat(atoms, starts) - np.minimum.reduceat(atoms, starts)
    return (counts == 1) | (spread.max(axis=1) == 0.0)


def concentration_metric(measures) -> dict:
    """Per-cell covariance traces across a viscosity sweep, plus a trend.

    A trace is the biased variance of rho plus that of m over the cell's
    atoms, from segment sums; single-atom and constant cells give 0.

    measures: list of EmpiricalYoungMeasure with common cells, ordered by
    decreasing epsilon.  Returns a dict with the traces (n_eps, n_t, n_x),
    the epsilon list, and the fitted log-log slope of the max-cell trace
    (reported, not asserted).
    """
    if len(measures) < 2:
        raise ConfigError("need at least two viscosity values")
    cells = measures[0].cells
    for mu in measures[1:]:
        if mu.cells != cells:
            raise ConfigError("measures must share a cell partition")
    eps = np.array([mu.epsilon for mu in measures])
    traces = np.empty((len(measures), cells.n_t, cells.n_x))
    for k, mu in enumerate(measures):
        atoms, starts, counts = mu.atoms, mu.starts, mu.counts
        mean = np.add.reduceat(atoms, starts) / counts[:, None]
        dev2 = (atoms - np.repeat(mean, counts, axis=0)) ** 2
        trace = np.add.reduceat(dev2, starts).sum(axis=1) / counts
        traces[k] = np.where(_degenerate(atoms, starts, counts), 0.0, trace).reshape(
            cells.n_t, cells.n_x
        )
    maxima = traces.reshape(len(measures), -1).max(axis=1)
    slope = np.nan
    if np.all(maxima > 0.0) and np.all(eps > 0.0):
        slope = float(np.polyfit(np.log(eps), np.log(maxima), 1)[0])
    return {"epsilon": eps, "traces": traces, "max_trace": maxima, "slope": slope}
