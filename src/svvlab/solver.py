"""Time integration of the viscous stochastic isentropic Euler system.

One Euler-Maruyama step of

    d rho + dx m dt            = eps dxx rho dt
    d m   + dx(m^2/rho + P) dt = eps dxx m dt + forcing dW

on a uniform grid over [-L, L] with Dirichlet far-field clamping to
(rho_inf, 0).  Convection uses conservative central differences of the
cell-face flux averages; diffusion is either implicit (IMEX, tridiagonal
solve, default) or explicit; the noise is explicit and evaluated at the
step start as the Ito integral requires.

Positivity is never repaired: a density-floor violation raises
PositivityLoss with the failing time and location.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_banded

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
    """Fields (rho, m) on the grid nodes at one time instant."""

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
        out = np.zeros_like(self.rho)
        pos = self.rho > 0.0
        out[pos] = self.mom[pos] / self.rho[pos]
        return out

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


def _max_wave_speed(law: PressureLaw, state: GridState) -> float:
    pos = state.rho > 0.0
    if not pos.any():
        return 1e-30
    c = np.sqrt(law.dpressure(state.rho[pos]))
    return float(np.max(np.abs(state.u[pos]) + c)) or 1e-30


class Stepper:
    """Precomputed operators for repeated steps on one (grid, config)."""

    def __init__(self, law: PressureLaw, grid: Grid, config: SolverConfig):
        self.law = law
        self.grid = grid
        self.config = config
        n = grid.n
        dx = grid.dx
        mu = config.epsilon * config.dt / dx**2
        self.mu = mu
        if config.scheme == "imex":
            # (I - mu L) on interior nodes, Dirichlet ends
            ab = np.zeros((3, n - 1))
            ab[0, 1:] = -mu
            ab[1, :] = 1.0 + 2.0 * mu
            ab[2, :-1] = -mu
            self._band = ab

    def _diffuse(self, f, boundary):
        cfg = self.config
        mu = self.mu
        if cfg.scheme == "explicit":
            out = f.copy()
            out[1:-1] = f[1:-1] + mu * (f[2:] - 2.0 * f[1:-1] + f[:-2])
            out[0] = out[-1] = boundary
            return out
        rhs = f[1:-1].copy()
        rhs[0] += mu * boundary
        rhs[-1] += mu * boundary
        out = np.empty_like(f)
        out[1:-1] = solve_banded((1, 1), self._band, rhs)
        out[0] = out[-1] = boundary
        return out

    def step(self, state: GridState, forcing_increment=None) -> GridState:
        """One Euler-Maruyama step; forcing_increment is the momentum field
        sum_k a_k zeta_k dW_k already evaluated at the step start."""
        cfg = self.config
        dx = self.grid.dx
        dt = cfg.dt
        rho, m = state.rho, state.mom

        if cfg.check_cfl:
            speed = _max_wave_speed(self.law, state)
            dt_max = cfg.cfl_conv * dx / speed
            if cfg.scheme == "explicit":
                dt_max = min(dt_max, cfg.cfl_diff * dx**2 / (2.0 * cfg.epsilon))
            if dt > dt_max * (1.0 + 1e-9):
                raise NumericalError(
                    f"dt = {dt:g} violates the stability bound {dt_max:g} "
                    f"at t = {state.t:g}"
                )

        pos = rho > 0.0
        flux_m = np.where(pos, m**2 / np.where(pos, rho, 1.0), 0.0) + self.law.pressure(
            rho
        )

        rho_new = rho.copy()
        m_new = m.copy()
        rho_new[1:-1] = rho[1:-1] - dt * (m[2:] - m[:-2]) / (2.0 * dx)
        m_new[1:-1] = m[1:-1] - dt * (flux_m[2:] - flux_m[:-2]) / (2.0 * dx)
        if forcing_increment is not None:
            m_new[1:-1] = m_new[1:-1] + forcing_increment[1:-1]

        rho_new = self._diffuse(rho_new, cfg.rho_inf)
        m_new = self._diffuse(m_new, 0.0)

        t_new = state.t + dt
        if not (np.all(np.isfinite(rho_new)) and np.all(np.isfinite(m_new))):
            raise DivergenceError(t_new)
        if rho_new.min() < cfg.density_floor:
            i = int(np.argmin(rho_new))
            raise PositivityLoss(t_new, self.grid.x[i], float(rho_new.min()))
        return GridState(t_new, rho_new, m_new)


@dataclass
class Trajectory:
    """States at save times plus per-step diagnostic streams."""

    grid: Grid
    config: SolverConfig
    law: PressureLaw
    sample_id: int
    times: np.ndarray
    states: list  # GridState at save times
    energy: np.ndarray  # relative energy at each step start + final
    dissipation: np.ndarray  # cumulative viscous dissipation, same grid
    min_rho: np.ndarray
    step_states: list | None = None  # (rho, m) at every step (incl. initial)
    forcing_increments: list | None = None  # per-step momentum fields
    error: Exception | None = None
    H: float | None = None  # Gamma_H half-width of the noise, once mollified

    @property
    def dt(self) -> float:
        return self.config.dt

    @property
    def final(self) -> GridState:
        return self.states[-1]


def _relative_energy_integral(law, grid, rho, m, rho_inf):
    pos = rho > 0.0
    kin = np.where(pos, 0.5 * m**2 / np.where(pos, rho, 1.0), 0.0)
    integrand = kin + law.relative_internal_energy(rho, rho_inf)
    return float(np.trapezoid(integrand, dx=grid.dx))


def _dissipation_rate(law, grid, rho, m):
    """int ((rho e)'' rho_x^2 + rho u_x^2) dx with (rho e)'' = P'(rho)/rho."""
    dx = grid.dx
    rho_x = np.gradient(rho, dx)
    pos = rho > 0.0
    u = np.where(pos, m / np.where(pos, rho, 1.0), 0.0)
    u_x = np.gradient(u, dx)
    w = np.where(pos, law.dpressure(rho) / np.where(pos, rho, 1.0), 0.0)
    return float(np.trapezoid(w * rho_x**2 + rho * u_x**2, dx=dx))


def simulate(
    init: GridState,
    law: PressureLaw,
    grid: Grid,
    config: SolverConfig,
    noise=None,
    sample_id: int = 0,
) -> Trajectory:
    """Integrate to T, recording saves and per-step diagnostics.

    Deterministic given (config, noise seed, sample_id).  Step errors
    propagate with the failing time attached.
    """
    n_steps = config.n_steps
    if n_steps % config.n_saves != 0:
        raise ConfigError(
            f"n_steps = {n_steps} is not a multiple of n_saves = {config.n_saves}"
        )
    save_every = n_steps // config.n_saves

    stepper = Stepper(law, grid, config)
    state = init.copy()
    state.t = 0.0

    times = [0.0]
    states = [state.copy()]
    energy = np.empty(n_steps + 1)
    diss = np.empty(n_steps + 1)
    min_rho = np.empty(n_steps + 1)
    energy[0] = _relative_energy_integral(law, grid, state.rho, state.mom, config.rho_inf)
    diss[0] = 0.0
    min_rho[0] = state.rho.min()
    step_states = [(state.rho.copy(), state.mom.copy())] if config.record_steps else None
    forcing_rec = [] if config.record_forcing else None

    x = grid.x
    for n in range(n_steps):
        forcing = None
        if noise is not None and noise.n_modes > 0:
            dW = noise.sample_increments(sample_id, n, config.dt)
            forcing = np.zeros_like(state.rho)
            forcing[:] = noise.apply_forcing(x, state.rho, state.mom, dW)
        if forcing_rec is not None:
            forcing_rec.append(
                forcing.copy() if forcing is not None else np.zeros_like(state.rho)
            )
        diss_inc = (
            config.epsilon
            * config.dt
            * _dissipation_rate(law, grid, state.rho, state.mom)
        )
        state = stepper.step(state, forcing)
        energy[n + 1] = _relative_energy_integral(
            law, grid, state.rho, state.mom, config.rho_inf
        )
        diss[n + 1] = diss[n] + diss_inc
        min_rho[n + 1] = state.rho.min()
        if step_states is not None:
            step_states.append((state.rho.copy(), state.mom.copy()))
        if (n + 1) % save_every == 0:
            times.append(state.t)
            states.append(state.copy())

    return Trajectory(
        grid=grid,
        config=config,
        law=law,
        sample_id=sample_id,
        times=np.array(times),
        states=states,
        energy=energy,
        dissipation=diss,
        min_rho=min_rho,
        step_states=step_states,
        forcing_increments=forcing_rec,
        H=noise.H if noise is not None else None,
    )


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
