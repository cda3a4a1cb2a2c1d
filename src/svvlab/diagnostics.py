"""Pathwise and ensemble functionals of simulated trajectories.

Relative energy and its viscous dissipation, the discrete Ito energy
balance, Riemann-invariant region confinement, compact-window moment
integrals, the weak-form entropy-inequality residual, and Monte Carlo
moment estimates with bootstrap intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import EntropySpec, entropy_pair, riemann_invariants
from .errors import ConfigError, DomainError
from .pressure import PressureLaw
from .solver import Grid, GridState, Trajectory, dissipation_rate, relative_energy


def total_relative_energy(
    grid: Grid, state: GridState, law: PressureLaw, rho_inf: float
) -> float:
    """Trapezoid integral of 1/2 m^2/rho + e*(rho, rho_inf) over the grid."""
    if np.any(~(state.rho > 0.0) & (state.mom != 0.0)):
        raise DomainError("momentum on vacuum has infinite kinetic energy")
    return float(relative_energy(law, grid, state.rho, state.mom, rho_inf))


def dissipation_increment(
    grid: Grid, state: GridState, law: PressureLaw, epsilon: float, dt: float
) -> float:
    """eps dt int ((rho e)'' rho_x^2 + rho u_x^2) dx, central differences.

    (rho e)'' = P'(rho)/rho, so the integrand is a positive-weighted sum of
    squares and the increment is never negative.
    """
    return epsilon * dt * float(dissipation_rate(law, grid, state.rho, state.mom))


@dataclass(frozen=True)
class BalanceReport:
    """Discrete Ito energy identity bookkeeping for one trajectory."""

    residual: float
    energy_change: float
    dissipation: float
    martingale_term: float
    ito_term: float
    dt: float

    @property
    def abs_residual(self) -> float:
        return abs(self.residual)


def energy_balance_check(
    traj: Trajectory, law: PressureLaw, noise=None
) -> BalanceReport:
    """Verify E(T) + D(T) - E(0) = sum u.dF + Ito correction + residual.

    Uses the per-step states and the exact recorded forcing increments
    (left-point Ito sums); the residual is the time-discretization error
    and should scale like dt.
    """
    if traj.step_states is None:
        raise ConfigError("trajectory must be run with record_steps=True")
    has_noise = noise is not None and noise.n_modes > 0
    if has_noise and traj.forcing_increments is None:
        raise ConfigError("trajectory must be run with record_forcing=True")

    grid = traj.grid
    cfg = traj.config
    dx = grid.dx
    x = grid.x
    mart = 0.0
    ito = 0.0
    if has_noise:
        for (rho, m), dF in zip(traj.step_states[:-1], traj.forcing_increments):
            pos = rho > 0.0
            u = np.where(pos, m / np.where(pos, rho, 1.0), 0.0)
            mart += float(np.trapezoid(u * dF, dx=dx))
            quad = noise.forcing_quadratic(x, rho, m)
            inv_rho = np.where(pos, 1.0 / np.where(pos, rho, 1.0), 0.0)
            ito += 0.5 * cfg.dt * float(np.trapezoid(inv_rho * quad, dx=dx))

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
    if H <= 0.0:
        raise DomainError("region half-width H must be positive")
    excess = 0.0
    if traj.step_states is not None:
        pairs = traj.step_states
    else:
        pairs = [(s.rho, s.mom) for s in traj.states]
    for rho, m in pairs:
        w1, w2 = riemann_invariants(law, rho, m)
        e = np.maximum(np.maximum(w2 - H, -H - w1), 0.0)
        excess = max(excess, float(e.max()))
    return excess


def compact_moments(traj: Trajectory, law: PressureLaw, window) -> tuple:
    """Space-time integrals over [0,T] x K of rho P(rho) and rho |u|^3.

    window is (x_left, x_right); integration uses the save states with
    trapezoid rules in both time and space.  Returns (M_P, M_u3).
    """
    a, b = window
    x = traj.grid.x
    if a < x[0] - 1e-12 or b > x[-1] + 1e-12 or a >= b:
        raise ConfigError(f"window ({a}, {b}) must sit inside the grid")
    mask = (x >= a) & (x <= b)
    t = traj.times
    fp = np.empty(t.size)
    fu = np.empty(t.size)
    for i, s in enumerate(traj.states):
        rho = s.rho[mask]
        m = s.mom[mask]
        pos = rho > 0.0
        u = np.where(pos, m / np.where(pos, rho, 1.0), 0.0)
        fp[i] = np.trapezoid(rho * law.pressure(rho), x[mask])
        fu[i] = np.trapezoid(rho * np.abs(u) ** 3, x[mask])
    return float(np.trapezoid(fp, t)), float(np.trapezoid(fu, t))


class BumpTestFunction:
    """Smooth compactly supported phi(t, x) = b((t-t0)/rt) b((x-x0)/rx).

    b(s) = exp(-1/(1-s^2)) inside |s| < 1, zero outside; infinitely
    differentiable and nonnegative.
    """

    def __init__(self, t0: float, rt: float, x0: float, rx: float):
        if rt <= 0.0 or rx <= 0.0:
            raise ConfigError("bump radii must be positive")
        self.t0, self.rt, self.x0, self.rx = t0, rt, x0, rx

    @staticmethod
    def _b(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        out[inside] = np.exp(-1.0 / (1.0 - si**2))
        return out

    @staticmethod
    def _db(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        q = 1.0 - si**2
        out[inside] = np.exp(-1.0 / q) * (-2.0 * si / q**2)
        return out

    @staticmethod
    def _d2b(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        q = 1.0 - si**2
        lr = -2.0 * si / q**2  # b'/b
        dlr = (-2.0 - 6.0 * si**2) / q**3
        out[inside] = np.exp(-1.0 / q) * (lr**2 + dlr)
        return out

    def supported_in(self, T: float, L: float) -> bool:
        return (
            self.t0 - self.rt > 0.0
            and self.t0 + self.rt < T
            and self.x0 - self.rx > -L
            and self.x0 + self.rx < L
        )

    def value(self, t, x):
        return self._b((t - self.t0) / self.rt) * self._b((x - self.x0) / self.rx)

    def dt(self, t, x):
        return (
            self._db((t - self.t0) / self.rt)
            / self.rt
            * self._b((x - self.x0) / self.rx)
        )

    def dx(self, t, x):
        return (
            self._b((t - self.t0) / self.rt)
            * self._db((x - self.x0) / self.rx)
            / self.rx
        )

    def dxx(self, t, x):
        return (
            self._b((t - self.t0) / self.rt)
            * self._d2b((x - self.x0) / self.rx)
            / self.rx**2
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
    n_nodes: int = 48,
) -> EntropyResidualReport:
    """Discrete weak form of the entropy inequality for one path.

    S = sum_t sum_x [eta phi_t + q phi_x] dx dt
        + sum_t sum_x d_m eta . (forcing increment) . phi dx
        + 1/2 sum_t sum_x d2_m eta . sum_k (a_k zeta_k)^2 . phi dx dt

    evaluated left-point in time with the exact recorded forcing
    increments.  For the viscous approximation S equals eps * (eta, phi_xx)
    minus a nonnegative dissipation term, so S >= -|viscous_reference|
    up to discretization error.
    """
    if traj.step_states is None:
        raise ConfigError("trajectory must be run with record_steps=True")
    has_noise = noise is not None and noise.n_modes > 0
    if has_noise and traj.forcing_increments is None:
        raise ConfigError("trajectory must be run with record_forcing=True")
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
    transport = 0.0
    mart = 0.0
    ito = 0.0
    visc = 0.0
    n_steps = len(traj.step_states) - 1
    for n in range(n_steps):
        t = n * dt
        if abs(t - phi.t0) >= phi.rt:
            continue
        active = np.abs(x - phi.x0) < phi.rx
        if not active.any():
            continue
        w = phi.value(t, x)
        rho, m = traj.step_states[n]
        pv = entropy_pair(law, spec, rho[active], m[active], n_nodes=n_nodes)
        xa = x[active]
        transport += dt * dx * float(
            np.sum(pv.eta * phi.dt(t, xa) + pv.q * phi.dx(t, xa))
        )
        visc += cfg.epsilon * dt * dx * float(np.sum(pv.eta * phi.dxx(t, xa)))
        if has_noise:
            dF = traj.forcing_increments[n][active]
            mart += dx * float(np.sum(pv.deta_dm * dF * w[active]))
            quad = noise.forcing_quadratic(xa, rho[active], m[active])
            ito += 0.5 * dt * dx * float(np.sum(pv.d2eta_dm2 * quad * w[active]))
    S = transport + mart + ito
    return EntropyResidualReport(
        S=S, transport=transport, martingale=mart, ito=ito, viscous_reference=visc
    )


def ensemble_moments(samples, p: float, n_boot: int = 2000, seed: int = 0):
    """Monte Carlo estimate of E[X^p] with a bootstrap 95% interval.

    Returns (mean, (lo, hi)).  Requires p >= 1 and at least two samples.
    """
    xs = np.asarray(samples, dtype=float)
    if p < 1:
        raise DomainError(f"moment exponent must be >= 1, got {p}")
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
