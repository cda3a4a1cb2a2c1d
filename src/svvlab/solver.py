"""Time integration of the viscous stochastic isentropic Euler system.

One Euler-Maruyama step of

    d rho + dx m dt            = eps dxx rho dt
    d m   + dx(m^2/rho + P) dt = eps dxx m dt + forcing dW

on a uniform grid over [-L, L] with Dirichlet far-field clamping to
(rho_inf, 0).  Convection uses conservative central differences of the
cell-face flux averages; diffusion is either implicit (IMEX, tridiagonal
solve, default) or explicit; the noise is explicit and evaluated at the
step start as the Ito integral requires.  An ensemble is stepped as one
batch, its samples the rows of (S, n+1) arrays; a single run is a batch
of one.

Positivity is never repaired: a density-floor violation raises
PositivityLoss with the failing time, location and sample.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    NumericalError,
    PositivityLoss,
)
from .pressure import PressureLaw


@dataclass(frozen=True)
class Grid:
    """Uniform nodes x_i = -L + i dx, i = 0..n, with dx = 2L/n."""

    L: float
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise ConfigError(f"grid needs at least 16 cells, got {self.n}")
        if self.L <= 0.0:
            raise ConfigError("half-width L must be positive")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n + 1)


@dataclass
class GridState:
    """Fields (rho, m) on the grid nodes at one time instant: (n+1,) arrays,
    or (S, n+1) with one row per sample of a batch."""

    t: float
    rho: np.ndarray
    mom: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.mom = np.asarray(self.mom, dtype=float)
        if self.rho.shape != self.mom.shape:
            raise DomainError("rho and mom must share a shape")

    @property
    def u(self) -> np.ndarray:
        pos = self.rho > 0.0
        return np.where(pos, self.mom / np.where(pos, self.rho, 1.0), 0.0)

    def copy(self) -> "GridState":
        return GridState(self.t, self.rho.copy(), self.mom.copy())


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters for one viscous run."""

    epsilon: float
    T: float
    dt: float
    rho_inf: float = 1.0
    n_saves: int = 10
    scheme: str = "imex"  # or "explicit"
    density_floor: float = 1e-12
    cfl_conv: float = 0.4
    cfl_diff: float = 0.4
    check_cfl: bool = True
    record_steps: bool = False
    record_forcing: bool = False

    def __post_init__(self):
        violations = []
        if not (0.0 < self.epsilon <= 1.0):
            violations.append(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.T <= 0.0 or self.dt <= 0.0:
            violations.append("T and dt must be positive")
        if self.scheme not in ("imex", "explicit"):
            violations.append(f"unknown scheme {self.scheme!r}")
        if self.rho_inf <= 0.0:
            violations.append("rho_inf must be positive")
        if violations:
            raise ConfigError("; ".join(violations), violations)

    @property
    def n_steps(self) -> int:
        n = int(round(self.T / self.dt))
        if abs(n * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise ConfigError(f"T = {self.T} is not a multiple of dt = {self.dt}")
        return n


class Stepper:
    """Precomputed operators for repeated steps on one (grid, config).

    A step advances a batch of S independent samples held as (S, n+1)
    arrays; every operation acts row by row, so a row's values are those of
    a batch of one.
    """

    def __init__(self, law: PressureLaw, grid: Grid, config: SolverConfig):
        self.law = law
        self.grid = grid
        self.config = config
        n = grid.n
        dx = grid.dx
        mu = config.epsilon * config.dt / dx**2
        self.mu = mu
        # far-field values of (rho, m), broadcast over the stacked fields
        self._far = np.array([[config.rho_inf], [0.0]])
        if config.scheme == "imex":
            # (I - mu L) on interior nodes, Dirichlet ends, factored once;
            # it is strictly diagonally dominant, so never singular
            off = np.full(n - 2, -mu)
            *self._lu, _ = dgttrf(off, np.full(n - 1, 1.0 + 2.0 * mu), off)

    def _diffuse(self, f, boundary):
        """One diffusion substep of the fields f (..., n+1), clamped to
        boundary (broadcast over f's leading axes) at both ends; the
        implicit solve takes every field as one right-hand side."""
        mu = self.mu
        boundary = np.asarray(boundary, dtype=float)[..., None]
        out = np.empty_like(f)
        if self.config.scheme == "explicit":
            out[..., 1:-1] = f[..., 1:-1] + mu * (
                f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]
            )
        elif f.size:  # scipy's dgttrs writes out of bounds given no columns
            rhs = f[..., 1:-1].copy()
            rhs[..., :1] += mu * boundary
            rhs[..., -1:] += mu * boundary
            x, _ = dgttrs(*self._lu, rhs.reshape(-1, rhs.shape[-1]).T, overwrite_b=1)
            out[..., 1:-1] = x.T.reshape(rhs.shape)
        out[..., :1] = boundary
        out[..., -1:] = boundary
        return out

    def _dt_max(self, state: GridState) -> np.ndarray:
        """Per-row stability bound on dt from the largest wave speed."""
        cfg = self.config
        dx = self.grid.dx
        pos = state.rho > 0.0
        c = np.sqrt(self.law.dpressure(np.where(pos, state.rho, 1.0)))
        speed = np.where(pos, np.abs(state.u) + c, -np.inf).max(axis=-1)
        speed[~(speed > 0.0)] = 1e-30  # no positive cell, or all at rest
        dt_max = cfg.cfl_conv * dx / speed
        if cfg.scheme == "explicit":
            dt_max = np.minimum(dt_max, cfg.cfl_diff * dx**2 / (2.0 * cfg.epsilon))
        return dt_max

    def step(self, state: GridState, forcing_increment=None):
        """One Euler-Maruyama step of every row of state.

        forcing_increment is the momentum field sum_k a_k zeta_k dW_k of
        each row, already evaluated at the step start.  Returns (new
        state, failure).  failure is None, or (row, error) for the first
        row that broke the CFL bound, diverged or fell below the density
        floor; the new state then holds only the rows before it.
        """
        cfg = self.config
        dx = self.grid.dx
        dt = cfg.dt
        failure = None

        if cfg.check_cfl:
            dt_max = self._dt_max(state)
            (bad,) = np.nonzero(dt > dt_max * (1.0 + 1e-9))
            if bad.size:
                row = int(bad[0])
                failure = row, NumericalError(
                    f"dt = {dt:g} violates the stability bound {dt_max[row]:g} "
                    f"at t = {state.t:g}",
                    t=state.t,
                )
                state = GridState(state.t, state.rho[:row], state.mom[:row])
                if forcing_increment is not None:
                    forcing_increment = forcing_increment[:row]

        rho, m = state.rho, state.mom
        pos = rho > 0.0
        flux_m = np.where(pos, m**2 / np.where(pos, rho, 1.0), 0.0) + self.law.pressure(
            rho
        )

        new = np.stack((rho, m))  # (rho, m) stacked, ends kept
        new[0, ..., 1:-1] = rho[..., 1:-1] - dt * (m[..., 2:] - m[..., :-2]) / (2.0 * dx)
        new[1, ..., 1:-1] = m[..., 1:-1] - dt * (flux_m[..., 2:] - flux_m[..., :-2]) / (
            2.0 * dx
        )
        if forcing_increment is not None:
            new[1, ..., 1:-1] += forcing_increment[..., 1:-1]

        new = self._diffuse(new, self._far)
        rho_new, m_new = new

        t_new = state.t + dt
        finite = np.isfinite(new).all(axis=-1).all(axis=0)
        rho_min = rho_new.min(axis=-1)
        (bad,) = np.nonzero(~finite | (rho_min < cfg.density_floor))
        if bad.size:
            row = int(bad[0])
            if not finite[row]:
                exc = DivergenceError(t_new)
            else:
                i = int(np.argmin(rho_new[row]))
                exc = PositivityLoss(t_new, self.grid.x[i], float(rho_min[row]))
            failure = row, exc
            rho_new, m_new = rho_new[:row], m_new[:row]
        return GridState(t_new, rho_new, m_new), failure


@dataclass
class Trajectory:
    """States at save times plus per-step diagnostic streams of one sample."""

    grid: Grid
    config: SolverConfig
    law: PressureLaw
    sample_id: int
    times: np.ndarray
    states: list  # GridState at save times
    energy: np.ndarray  # relative energy at each step start + final
    dissipation: np.ndarray  # cumulative viscous dissipation, same grid
    min_rho: np.ndarray
    step_states: np.ndarray | None = None  # (steps + 1, 2, n + 1): (rho, m) per step
    forcing_increments: np.ndarray | None = None  # (steps, n + 1) momentum fields
    error: Exception | None = None
    H: float | None = None  # Gamma_H half-width of the noise, once mollified

    @property
    def dt(self) -> float:
        return self.config.dt

    @property
    def final(self) -> GridState:
        return self.states[-1]


def relative_energy(law, grid, rho, m, rho_inf):
    """Trapezoid integral over the last axis of 1/2 m^2/rho + e*(rho, rho_inf)."""
    pos = rho > 0.0
    kin = np.where(pos, 0.5 * m**2 / np.where(pos, rho, 1.0), 0.0)
    integrand = kin + law.relative_internal_energy(rho, rho_inf)
    return np.trapezoid(integrand, dx=grid.dx, axis=-1)


def dissipation_rate(law, grid, rho, m):
    """int ((rho e)'' rho_x^2 + rho u_x^2) dx over the last axis, with
    (rho e)'' = P'(rho)/rho and central differences."""
    dx = grid.dx
    rho_x = np.gradient(rho, dx, axis=-1)
    pos = rho > 0.0
    u = np.where(pos, m / np.where(pos, rho, 1.0), 0.0)
    u_x = np.gradient(u, dx, axis=-1)
    w = np.where(pos, law.dpressure(rho) / np.where(pos, rho, 1.0), 0.0)
    return np.trapezoid(w * rho_x**2 + rho * u_x**2, dx=dx, axis=-1)


def simulate(
    init: GridState,
    law: PressureLaw,
    grid: Grid,
    config: SolverConfig,
    noise=None,
    sample_id=0,
):
    """Integrate to T, recording saves and per-step diagnostics.

    sample_id is one id, which gives one Trajectory, or a sequence of ids,
    which gives a list of them, one per id, from one batched run; init
    holds (n+1,) fields shared by every sample or (S, n+1) fields, one row
    per sample.  Each sample is deterministic given (config, noise seed,
    sample id), and is the same whatever batch it runs in.

    Step errors carry the failing time and sample id.  A failing sample
    stops the run: the samples after it are dropped, those before it are
    stepped on, and the error raised is that of the first failing sample
    in the order given, which a one-at-a-time loop would raise.
    """
    batched = not isinstance(sample_id, (int, np.integer))
    ids = [int(s) for s in sample_id] if batched else [int(sample_id)]
    n_steps = config.n_steps
    if n_steps % config.n_saves != 0:
        raise ConfigError(
            f"n_steps = {n_steps} is not a multiple of n_saves = {config.n_saves}"
        )
    if not ids:
        return []
    save_every = n_steps // config.n_saves
    n_samples, n_nodes = len(ids), grid.n + 1

    stepper = Stepper(law, grid, config)
    shape = (n_samples, n_nodes)
    state = GridState(
        0.0,
        np.broadcast_to(init.rho, shape).copy(),
        np.broadcast_to(init.mom, shape).copy(),
    )

    times = np.zeros(config.n_saves + 1)
    saves = np.empty((n_samples, config.n_saves + 1, 2, n_nodes))
    energy = np.empty((n_samples, n_steps + 1))
    diss = np.empty((n_samples, n_steps + 1))
    min_rho = np.empty((n_samples, n_steps + 1))
    step_states = (
        np.empty((n_samples, n_steps + 1, 2, n_nodes)) if config.record_steps else None
    )
    forcing_rec = (
        np.zeros((n_samples, n_steps, n_nodes)) if config.record_forcing else None
    )

    def record(k, column):
        rho, m = state.rho, state.mom
        energy[:k, column] = relative_energy(law, grid, rho, m, config.rho_inf)
        min_rho[:k, column] = rho.min(axis=-1)
        if step_states is not None:
            step_states[:k, column, 0] = rho
            step_states[:k, column, 1] = m

    k = n_samples  # the rows still stepped: a prefix of the batch
    record(k, 0)
    diss[:, 0] = 0.0
    saves[:, 0, 0] = state.rho
    saves[:, 0, 1] = state.mom
    error = None
    x = grid.x
    for n in range(n_steps):
        forcing = None
        if noise is not None and noise.n_modes > 0:
            dW = noise.sample_increments(ids[:k], n, config.dt)
            forcing = noise.apply_forcing(x, state.rho, state.mom, dW)
            if forcing_rec is not None:
                forcing_rec[:k, n] = forcing
        diss_inc = (
            config.epsilon
            * config.dt
            * dissipation_rate(law, grid, state.rho, state.mom)
        )
        state, failure = stepper.step(state, forcing)
        if failure is not None:
            k, error = failure
            error.sample = ids[k]
            if k == 0:
                break
        record(k, n + 1)
        diss[:k, n + 1] = diss[:k, n] + diss_inc[:k]
        if (n + 1) % save_every == 0:
            j = (n + 1) // save_every
            times[j] = state.t
            saves[:k, j, 0] = state.rho
            saves[:k, j, 1] = state.mom
    if error is not None:
        raise error

    trajs = [
        Trajectory(
            grid=grid,
            config=config,
            law=law,
            sample_id=sid,
            times=times,
            states=[GridState(t, *saves[s, j]) for j, t in enumerate(times)],
            energy=energy[s],
            dissipation=diss[s],
            min_rho=min_rho[s],
            step_states=step_states[s] if step_states is not None else None,
            forcing_increments=forcing_rec[s] if forcing_rec is not None else None,
            H=noise.H if noise is not None else None,
        )
        for s, sid in enumerate(ids)
    ]
    return trajs if batched else trajs[0]


def epsilon_sweep(
    init: GridState,
    law: PressureLaw,
    grid: Grid,
    config_template: SolverConfig,
    noise_template,
    eps_list,
    c1: float = 1.0,
    alpha1: float = 0.25,
    sample_id: int = 0,
):
    """Run simulate per epsilon with shared Brownian streams.

    eps_list must be strictly decreasing.  Each member mollifies the raw
    noise_template for its own epsilon, and its Trajectory reports the H it
    used.  Per-member failures are recorded on the returned Trajectory
    (error field); the sweep continues.
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("epsilon list must be strictly decreasing")
    out = []
    for eps in eps_list:
        config = replace(config_template, epsilon=eps)
        noise = None
        if noise_template is not None and noise_template.n_modes > 0:
            noise = noise_template.truncate_mollify(
                eps, c1, alpha1, config.rho_inf
            )
        try:
            traj = simulate(init, law, grid, config, noise, sample_id)
        except (PositivityLoss, DivergenceError, NumericalError) as exc:
            traj = Trajectory(
                grid=grid,
                config=config,
                law=law,
                sample_id=sample_id,
                times=np.array([0.0]),
                states=[init.copy()],
                energy=np.array([np.nan]),
                dissipation=np.array([0.0]),
                min_rho=np.array([init.rho.min()]),
                error=exc,
                H=noise.H if noise is not None else None,
            )
        out.append((eps, traj))
    return out


# ---------------------------------------------------------------------------
# heat semigroup reference operator
# ---------------------------------------------------------------------------

def heat_kernel(t, x):
    """K(t, x) = (4 pi t)^{-1/2} exp(-x^2 / (4 t))."""
    t = float(t)
    if t < 0.0:
        raise DomainError("heat kernel time must be nonnegative")
    if t == 0.0:
        raise DomainError("heat kernel is a delta at t = 0; use the identity")
    x = np.asarray(x, dtype=float)
    out = np.exp(-(x**2) / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)
    return out if out.ndim else float(out)


def heat_semigroup_apply(field, eps_t, grid: Grid, far_field: float = 0.0):
    """Convolve (field - far_field) with the heat kernel at time eps_t.

    The field is extended by its far-field constant outside the grid; the
    constant part convolves to itself exactly (the kernel has unit mass),
    so only the compact perturbation is quadratured.  eps_t = 0 is the
    identity.
    """
    if eps_t < 0.0:
        raise DomainError("eps_t must be nonnegative")
    f = np.asarray(field, dtype=float)
    if eps_t == 0.0:
        return f.copy()
    x = grid.x
    pert = f - far_field
    w = np.full(x.size, grid.dx)
    w[0] = w[-1] = 0.5 * grid.dx
    Kmat = heat_kernel(eps_t, x[:, None] - x[None, :])
    return far_field + Kmat @ (pert * w)
