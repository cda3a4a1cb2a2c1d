"""Pathwise and ensemble functionals of simulated trajectories.

The discrete Ito energy balance of the relative energy and dissipation
that the solver records (solver.relative_energy, solver.dissipation_rate),
Riemann-invariant region confinement, compact-window moment integrals, the
weak-form entropy-inequality residual, and Monte Carlo moment estimates
with bootstrap intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import EntropySpec, entropy_pair, riemann_invariants
from .errors import ConfigError, DomainError
from .pressure import PressureLaw, StateFields, _blocks
from .solver import Trajectory


def _stepwise_total(scale: float, per_step) -> float:
    """Sum of scale * per_step, added step after step as a loop over steps
    adds it, so that sums that cancel (a transport sum ~1e-4 of terms ~1)
    keep the rounding of a step-by-step loop."""
    return float(np.cumsum(scale * per_step)[-1]) if per_step.size else 0.0


def _forced(traj: Trajectory, noise) -> bool:
    """Whether noise forces traj's run; ConfigError unless traj recorded
    what a check of it reads: its steps, and its forcing if forced."""
    if traj.step_states is None:
        raise ConfigError("trajectory must be run with record_steps=True")
    has_noise = noise is not None and noise.n_modes > 0
    if has_noise and traj.forcing_increments is None:
        raise ConfigError("trajectory must be run with record_forcing=True")
    return has_noise


@dataclass(frozen=True)
class BalanceReport:
    """Discrete Ito energy identity bookkeeping for one trajectory."""

    residual: float
    energy_change: float
    dissipation: float
    martingale_term: float
    ito_term: float
    dt: float


def energy_balance_check(
    traj: Trajectory, law: PressureLaw, noise=None
) -> BalanceReport:
    """Verify E(T) + D(T) - E(0) = sum u.dF + Ito correction + residual.

    Uses the per-step states and the exact recorded forcing increments
    (left-point Ito sums); the residual is the time-discretization error
    and should scale like dt.  The sums are evaluated on blocks of
    consecutive steps (pressure._blocks), one forcing_quadratic call per
    block; the per-step sums are added in step order, and the terms agree
    with a step-by-step loop within 1e-12 relative.
    """
    has_noise = _forced(traj, noise)
    grid = traj.grid
    cfg = traj.config
    dx = grid.dx
    mart = 0.0
    ito = 0.0
    if has_noise:
        spatial = noise.on_grid(grid.x)
        n_steps = len(traj.forcing_increments)
        sums = np.empty((2, n_steps))  # per step: martingale, Ito
        for blk in _blocks(n_steps, grid.x.size):
            rho, m = traj.step_states[blk, 0], traj.step_states[blk, 1]
            fields = StateFields(law, rho, m)
            sums[0, blk] = np.trapezoid(fields.u * traj.forcing_increments[blk], dx=dx)
            quad = noise.forcing_quadratic(spatial, rho, m, fields)
            sums[1, blk] = np.trapezoid(fields.masked(1.0 / fields.rp) * quad, dx=dx)
        mart = _stepwise_total(1.0, sums[0])
        ito = _stepwise_total(0.5 * cfg.dt, sums[1])

    de = traj.energy[-1] - traj.energy[0]
    diss = traj.dissipation[-1]
    residual = de + diss - mart - ito
    return BalanceReport(
        residual=residual,
        energy_change=de,
        dissipation=diss,
        martingale_term=mart,
        ito_term=ito,
        dt=cfg.dt,
    )


def invariant_region_check(traj: Trajectory, law: PressureLaw, H: float) -> float:
    """Max over times and cells of max(w2 - H, -H - w1, 0).

    Uses every recorded step when available, otherwise the save states.
    """
    if not H > 0.0:  # a NaN fails it
        raise DomainError(f"region half-width H must be positive, got {H}")
    states = traj.save_states if traj.step_states is None else traj.step_states
    w1, w2 = riemann_invariants(law, states[:, 0], states[:, 1])
    return float(np.maximum(np.maximum(w2 - H, -H - w1), 0.0).max())


def compact_moments(traj: Trajectory, law: PressureLaw, window) -> tuple:
    """Space-time integrals over [0,T] x K of rho P(rho) and rho |u|^3.

    window is (x_left, x_right); integration uses the save states on the
    run of nodes in it with trapezoid rules in space and then in time.
    Returns (M_P, M_u3), (0.0, 0.0) for a window that holds no node.
    """
    a, b = window
    x = traj.grid.x
    # written so that a NaN fails it
    if not x[0] - 1e-12 <= a < b <= x[-1] + 1e-12:
        raise ConfigError(f"window ({a}, {b}) must sit inside the grid")
    span = slice(np.searchsorted(x, a), np.searchsorted(x, b, side="right"))
    rho, m = traj.save_states[:, 0, span], traj.save_states[:, 1, span]
    fields = StateFields(law, rho, m)
    fp = np.trapezoid(rho * fields.P, x[span])
    fu = np.trapezoid(rho * np.abs(fields.u) ** 3, x[span])
    t = traj.times
    return float(np.trapezoid(fp, t)), float(np.trapezoid(fu, t))


class BumpTestFunction:
    """Smooth compactly supported phi(t, x) = b((t-t0)/rt) b((x-x0)/rx).

    b(s) = exp(-1/(1-s^2)) inside |s| < 1, zero outside; infinitely
    differentiable and nonnegative.
    """

    def __init__(self, t0: float, rt: float, x0: float, rx: float):
        if not (0.0 < rt < np.inf and 0.0 < rx < np.inf):  # a NaN fails it
            raise ConfigError(f"bump radii must be positive and finite, got {rt}, {rx}")
        self.t0, self.rt, self.x0, self.rx = t0, rt, x0, rx

    @staticmethod
    def _b_parts(s, order):
        """(b, b', b'')[: order + 1] at s, only the orders asked for."""
        s = np.asarray(s, dtype=float)
        out = [np.zeros_like(s) for _ in range(order + 1)]
        inside = np.abs(s) < 1.0
        si = s[inside]
        q = 1.0 - si**2
        b = np.exp(-1.0 / q)
        out[0][inside] = b
        if order >= 1:
            lr = -2.0 * si / q**2  # b'/b
            out[1][inside] = b * lr
        if order >= 2:
            dlr = (-2.0 - 6.0 * si**2) / q**3
            out[2][inside] = b * (lr**2 + dlr)
        return tuple(out)

    def time_factors(self, t):
        """b((t - t0)/rt) and its t-derivative: phi = time x space factor."""
        b, db = self._b_parts((np.asarray(t, dtype=float) - self.t0) / self.rt, 1)
        return b, db / self.rt

    def space_factors(self, x):
        """b((x - x0)/rx) and its first and second x-derivatives."""
        b, db, d2b = self._b_parts((np.asarray(x, dtype=float) - self.x0) / self.rx, 2)
        return b, db / self.rx, d2b / self.rx**2

    def supported_in(self, T: float, L: float) -> bool:
        return (
            self.t0 - self.rt > 0.0
            and self.t0 + self.rt < T
            and self.x0 - self.rx > -L
            and self.x0 + self.rx < L
        )


@dataclass(frozen=True)
class EntropyResidualReport:
    """Weak-form entropy residual S and its constituent sums."""

    S: float
    transport: float  # sum eta phi_t + q phi_x
    martingale: float  # sum d_m eta . dF . phi
    ito: float  # half sum d2_m eta . quad . phi
    viscous_reference: float  # eps sum eta phi_xx (size of the admissible deficit)


def entropy_inequality_residual(
    traj: Trajectory,
    law: PressureLaw,
    spec: EntropySpec,
    phi: BumpTestFunction,
    noise=None,
) -> EntropyResidualReport:
    """Discrete weak form of the entropy inequality for one path.

    S = sum_t sum_x [eta phi_t + q phi_x] dx dt
        + sum_t sum_x d_m eta . (forcing increment) . phi dx
        + 1/2 sum_t sum_x d2_m eta . sum_k (a_k zeta_k)^2 . phi dx dt

    evaluated left-point in time with the exact recorded forcing
    increments.  For the viscous approximation S equals eps * (eta, phi_xx)
    minus a nonnegative dissipation term, so S >= -|viscous_reference|
    up to discretization error.

    The sums run over the steps and nodes inside phi's support, in blocks
    of consecutive steps of nodes x spec.pair_nodes points each
    (pressure._blocks), with one entropy_pair and one forcing_quadratic
    call per block; phi = b_t b_x is the outer product of its time and
    space factors.  The per-step sums are added in step order, and
    the result agrees with a step-by-step loop to |dS| <= 1e-12
    (|transport| + |martingale| + |ito|), each term within 1e-12 relative.
    """
    has_noise = _forced(traj, noise)
    cfg = traj.config
    grid = traj.grid
    T = cfg.T
    if not phi.supported_in(T, grid.L):
        raise ConfigError(
            "test function support must stay strictly inside (0, T) x (-L, L)"
        )

    x = grid.x
    dx = grid.dx
    dt = cfg.dt
    t = np.arange(len(traj.step_states) - 1) * dt
    (steps,) = np.nonzero(np.abs(t - phi.t0) < phi.rt)  # an interval of steps
    active = np.abs(x - phi.x0) < phi.rx
    xa = x[active]
    sums = np.zeros((4, steps.size))  # per step: transport, viscous, martingale, Ito
    if steps.size and xa.size:
        bt, dbt = phi.time_factors(t[steps])
        bx, dbx, d2bx = phi.space_factors(xa)
        span = slice(steps[0], steps[-1] + 1)
        states = traj.step_states[span]
        spatial = noise.on_grid(xa) if has_noise else None
        for blk in _blocks(steps.size, xa.size * spec.pair_nodes):
            rho, m = states[blk, 0][:, active], states[blk, 1][:, active]
            pv = entropy_pair(law, spec, rho, m)
            b, db = bt[blk, None], dbt[blk, None]
            sums[0, blk] = np.sum(pv.eta * (db * bx) + pv.q * (b * dbx), axis=-1)
            sums[1, blk] = np.sum(pv.eta * (b * d2bx), axis=-1)
            if has_noise:
                w = b * bx
                dF = traj.forcing_increments[span][blk][:, active]
                sums[2, blk] = np.sum(pv.deta_dm * dF * w, axis=-1)
                quad = noise.forcing_quadratic(spatial, rho, m)
                sums[3, blk] = np.sum(pv.d2eta_dm2 * quad * w, axis=-1)
    scales = (dt * dx, cfg.epsilon * dt * dx, dx, 0.5 * dt * dx)
    transport, visc, mart, ito = map(_stepwise_total, scales, sums)
    S = transport + mart + ito
    return EntropyResidualReport(
        S=S, transport=transport, martingale=mart, ito=ito, viscous_reference=visc
    )


def ensemble_moments(samples, p: float, n_boot: int = 2000, seed: int = 0):
    """Monte Carlo estimate of E[X^p] with a bootstrap 95% interval.

    Returns (mean, (lo, hi)).  Requires a finite p >= 1 (a NaN fails the
    check), at least two samples, each finite, and a whole n_boot >= 1.
    """
    xs = np.asarray(samples, dtype=float)
    if not np.isfinite(xs).all():
        raise DomainError("samples must be finite")
    if not 1.0 <= p < np.inf:
        raise DomainError(f"moment exponent must be finite and >= 1, got {p}")
    if not (isinstance(n_boot, (int, np.integer)) and n_boot >= 1):
        raise DomainError(f"n_boot must be a whole number >= 1, got {n_boot}")
    if xs.size < 2:
        raise DomainError("need at least 2 samples for a confidence interval")
    if p != int(p) and np.any(xs < 0.0):
        raise DomainError("fractional moments need nonnegative samples")
    powered = xs**p
    mean = float(powered.mean())
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, xs.size, size=(n_boot, xs.size))
    boot = powered[idx].mean(axis=1)
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return mean, (float(lo), float(hi))
