"""Time integration of the viscous stochastic isentropic Euler system.

One Euler-Maruyama step of

    d rho + dx m dt            = eps dxx rho dt
    d m   + dx(m^2/rho + P) dt = eps dxx m dt + forcing dW

on a uniform grid over [-L, L] with Dirichlet far-field clamping to
(rho_inf, 0).  Convection uses conservative central differences of the
cell-face flux averages; diffusion is either implicit (IMEX, default) or
explicit; the noise is explicit and evaluated at the step start as the Ito
integral requires.  An ensemble is stepped as one batch, its samples the
rows of (S, n+1) arrays; a single run is a batch of one.

Positivity is never repaired: a density-floor violation raises
PositivityLoss with the failing time, location and sample.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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

    def copy(self) -> "GridState":
        return GridState(self.t, self.rho.copy(), self.mom.copy())


class StateFields:
    """The pointwise quantities of one state (rho, m), computed once and
    shared by every per-step consumer: the CFL guard, the flux, the
    relative energy, the dissipation and the noise's Gamma_H indicator.

    pos is rho > 0; rp is rho where positive and 1 elsewhere, safe to
    divide by; u is m / rho, 0 on vacuum; P and dP are P(rho) and P'(rho).
    Given rho_inf, estar is e*(rho, rho_inf), which the relative energy
    reads, else None.  rho >= 0 is checked once (DomainError otherwise):
    by e*(rho, rho_inf) when it is made, else by (P, P').
    """

    __slots__ = ("estar", "P", "dP", "pos", "rp", "u")

    def __init__(self, law: PressureLaw, rho: np.ndarray, m: np.ndarray, rho_inf=None):
        if rho_inf is None:
            self.estar = None
            self.P, self.dP = law.pressure_pair(rho)
        else:
            self.estar = law.relative_internal_energy(rho, rho_inf)
            self.P, self.dP = law._pressure_parts(rho, 1)
        self.pos = rho > 0.0
        self.rp = np.where(self.pos, rho, 1.0)
        self.u = np.where(self.pos, m / self.rp, 0.0)


def _central_difference(f, dx):
    """d/dx over the last axis: central inside, one-sided at the ends, the
    values of np.gradient(f, dx, axis=-1)."""
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * dx)
    out[..., 0] = (f[..., 1] - f[..., 0]) / dx
    out[..., -1] = (f[..., -1] - f[..., -2]) / dx
    return out


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
    a batch of one.  epsilon gives each row its own viscosity, in place of
    config.epsilon, and so its own implicit matrix.
    """

    def __init__(self, law: PressureLaw, grid: Grid, config: SolverConfig, epsilon=None):
        self.law = law
        self.grid = grid
        self.config = config
        n = grid.n
        dx = grid.dx
        self.epsilon = np.asarray(
            config.epsilon if epsilon is None else epsilon, dtype=float
        )
        # a column over the rows: one diffusion number per row
        self.mu = self.epsilon[..., None] * config.dt / dx**2
        # far-field values of (rho, m), broadcast over the stacked fields
        self._far = np.array([[config.rho_inf], [0.0]])
        if config.scheme == "imex":
            # (I - mu L) on interior nodes with Dirichlet ends is diagonal in
            # the sine basis sin(pi j k / n); the inverses of its eigenvalues,
            # one row per mu, at k = 0..n of the odd extension's rfft
            k = np.arange(n + 1)
            self._inv_eig = 1.0 / (1.0 + 2.0 * self.mu * (1.0 - np.cos(np.pi * k / n)))

    def _diffuse(self, f, boundary):
        """One diffusion substep of the fields f (..., n+1), clamped to
        boundary (broadcast over f's leading axes) at both ends.

        The implicit solve acts on f - boundary, which has zero ends, so a
        field at its boundary value stays there exactly.  It is a DST-I:
        the odd extension over 2n nodes goes through one rfft, is divided
        by its row's eigenvalues and comes back through one irfft.
        """
        mu = self.mu
        n = self.grid.n
        boundary = np.asarray(boundary, dtype=float)[..., None]
        out = np.empty_like(f)
        if self.config.scheme == "explicit":
            out[..., 1:-1] = f[..., 1:-1] + mu * (
                f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]
            )
        else:
            odd = np.zeros(f.shape[:-1] + (2 * n,))
            odd[..., 1:n] = f[..., 1:-1] - boundary
            odd[..., n + 1 :] = -odd[..., n - 1 : 0 : -1]
            spec = np.fft.rfft(odd)
            spec *= self._inv_eig
            out[..., 1:-1] = np.fft.irfft(spec, 2 * n)[..., 1:n] + boundary
        out[..., :1] = boundary
        out[..., -1:] = boundary
        return out

    def _dt_max(self, fields: StateFields) -> np.ndarray:
        """Per-row stability bound on dt from the largest wave speed."""
        cfg = self.config
        dx = self.grid.dx
        c = np.sqrt(fields.dP)
        speed = np.where(fields.pos, np.abs(fields.u) + c, -np.inf).max(axis=-1)
        speed[~(speed > 0.0)] = 1e-30  # no positive cell, or all at rest
        dt_max = cfg.cfl_conv * dx / speed
        if cfg.scheme == "explicit":
            dt_max = np.minimum(dt_max, cfg.cfl_diff * dx**2 / (2.0 * self.epsilon))
        return dt_max

    def step(self, state: GridState, forcing_increment=None, fields=None):
        """One Euler-Maruyama step of every row of state.

        forcing_increment is the momentum field sum_k a_k zeta_k dW_k of
        each row, already evaluated at the step start; fields is the
        state's StateFields, made here if not given.  Returns (new
        state, failures).  failures lists (row, error), by row, for every
        row that broke the CFL bound at the step start, or diverged or
        fell below the density floor at its end; the new state holds the
        other rows, in order.
        """
        cfg = self.config
        dx = self.grid.dx
        dt = cfg.dt
        rho, m = state.rho, state.mom
        if fields is None:
            fields = StateFields(self.law, rho, m)

        unstable = np.zeros(rho.shape[:-1], dtype=bool)
        if cfg.check_cfl:
            dt_max = self._dt_max(fields)
            unstable = dt > dt_max * (1.0 + 1e-9)

        flux_m = np.where(fields.pos, m**2 / fields.rp, 0.0) + fields.P

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
        bad = unstable | ~finite | (rho_min < cfg.density_floor)
        if not bad.any():
            return GridState(t_new, rho_new, m_new), []
        failures = []
        for row in np.flatnonzero(bad):
            if unstable[row]:
                exc = NumericalError(
                    f"dt = {dt:g} violates the stability bound {dt_max[row]:g} "
                    f"at t = {state.t:g}",
                    t=state.t,
                )
            elif not finite[row]:
                exc = DivergenceError(t_new)
            else:
                i = int(np.argmin(rho_new[row]))
                exc = PositivityLoss(t_new, self.grid.x[i], float(rho_min[row]))
            failures.append((int(row), exc))
        return GridState(t_new, rho_new[~bad], m_new[~bad]), failures


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


def relative_energy(law, grid, rho, m, rho_inf, fields=None):
    """Trapezoid integral over the last axis of 1/2 m^2/rho + e*(rho, rho_inf).

    fields is the state's StateFields made with this rho_inf, made here
    (checking rho) if not given."""
    if fields is None:
        fields = StateFields(law, rho, m, rho_inf)
    kin = np.where(fields.pos, 0.5 * m**2 / fields.rp, 0.0)
    return np.trapezoid(kin + fields.estar, dx=grid.dx, axis=-1)


def dissipation_rate(law, grid, rho, m, fields=None):
    """int ((rho e)'' rho_x^2 + rho u_x^2) dx over the last axis, with
    (rho e)'' = P'(rho)/rho and central differences.

    fields is the state's StateFields, made here (checking rho) if not
    given."""
    if fields is None:
        fields = StateFields(law, rho, m)
    dx = grid.dx
    rho_x, u_x = _central_difference(np.stack((rho, fields.u)), dx)
    w = np.where(fields.pos, fields.dP / fields.rp, 0.0)
    return np.trapezoid(w * rho_x**2 + rho * u_x**2, dx=dx, axis=-1)


def simulate(
    init: GridState,
    law: PressureLaw,
    grid: Grid,
    config: SolverConfig,
    noise=None,
    sample_id=0,
    *,
    epsilon=None,
    keep_failures: bool = False,
):
    """Integrate to T, recording saves and per-step diagnostics.

    sample_id is one id, which gives one Trajectory, or a sequence of ids,
    which gives a list of them, one per id, from one batched run; init
    holds (n+1,) fields shared by every sample or (S, n+1) fields, one row
    per sample.  Each sample is deterministic given (config, noise seed,
    sample id), and is the same whatever batch it runs in.

    epsilon, if given, holds one viscosity per sample in place of
    config.epsilon, and each Trajectory's config carries its own; noise is
    then mollified per row for the same list (NoiseModel.truncate_mollify).

    Step errors carry the failing time and sample id.  A failing sample
    is dropped and the others are stepped on.  The run then raises the
    error of the first failing sample in the order given, which a
    one-at-a-time loop would raise, and so drops the samples after a
    failing one with it: they cannot change which error that is.  With
    keep_failures it steps every other sample to T and returns, and a
    failed sample's Trajectory holds only its initial state and the error.
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
    if epsilon is None:
        configs = [config] * n_samples
    else:
        if len(epsilon) != n_samples:
            raise ConfigError(f"{len(epsilon)} viscosities for {n_samples} samples")
        configs = [replace(config, epsilon=eps) for eps in epsilon]
    row_eps = np.array([c.epsilon for c in configs], dtype=float)
    if noise is None:
        row_H = [None] * n_samples
    elif isinstance(noise.H, tuple):
        if len(noise.H) != n_samples:
            raise ConfigError(f"noise mollified for {len(noise.H)} rows, not {n_samples}")
        row_H = list(noise.H)
    else:
        row_H = [noise.H] * n_samples

    stepper = Stepper(law, grid, config, row_eps)
    shape = (n_samples, n_nodes)
    state = GridState(
        0.0,
        np.broadcast_to(init.rho, shape).copy(),
        np.broadcast_to(init.mom, shape).copy(),
    )
    start = state

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

    def record(rows, column):
        """Record the state's functionals and return its StateFields, made
        once per state: they serve the next step too."""
        rho, m = state.rho, state.mom
        fields = StateFields(law, rho, m, config.rho_inf)
        energy[rows, column] = relative_energy(law, grid, rho, m, config.rho_inf, fields)
        min_rho[rows, column] = rho.min(axis=-1)
        if step_states is not None:
            step_states[rows, column, 0] = rho
            step_states[rows, column, 1] = m
        return fields

    # the samples still stepped, by position; rows indexes the batch arrays
    # with them, a slice until the first failure
    alive, rows = np.arange(n_samples), np.s_[:]
    alive_ids, alive_eps, alive_noise = ids, row_eps, noise
    errors = [None] * n_samples
    fields = record(rows, 0)
    diss[:, 0] = 0.0
    saves[:, 0, 0] = state.rho
    saves[:, 0, 1] = state.mom
    x = grid.x
    for n in range(n_steps):
        forcing = None
        if noise is not None and noise.n_modes > 0:
            dW = alive_noise.sample_increments(alive_ids, n, config.dt)
            forcing = alive_noise.apply_forcing(x, state.rho, state.mom, dW, fields)
            if forcing_rec is not None:
                forcing_rec[rows, n] = forcing
        diss_inc = alive_eps * config.dt * dissipation_rate(
            law, grid, state.rho, state.mom, fields
        )
        state, failures = stepper.step(state, forcing, fields)
        if failures:
            dropped = [row for row, _ in failures]
            for row, exc in failures:
                exc.sample = ids[alive[row]]
                errors[alive[row]] = exc
            if not keep_failures:  # failures come in row order: the first is first
                first = dropped[0]
                dropped = range(first, alive.size)
                state = GridState(state.t, state.rho[:first], state.mom[:first])
            alive = rows = np.delete(alive, dropped)
            if not alive.size:
                break
            diss_inc = np.delete(diss_inc, dropped)
            alive_ids = [ids[s] for s in alive]
            alive_eps = row_eps[alive]
            stepper = Stepper(law, grid, config, alive_eps)
            if noise is not None:
                alive_noise = noise.rows(alive)
        fields = record(rows, n + 1)
        diss[rows, n + 1] = diss[rows, n] + diss_inc
        if (n + 1) % save_every == 0:
            j = (n + 1) // save_every
            times[j] = state.t
            saves[rows, j, 0] = state.rho
            saves[rows, j, 1] = state.mom
    if not keep_failures:
        for exc in errors:
            if exc is not None:
                raise exc

    def trajectory(s, sid):
        common = dict(grid=grid, config=configs[s], law=law, sample_id=sid, H=row_H[s])
        if errors[s] is not None:
            return Trajectory(
                **common,
                times=np.array([0.0]),
                states=[GridState(0.0, start.rho[s].copy(), start.mom[s].copy())],
                energy=np.array([np.nan]),
                dissipation=np.array([0.0]),
                min_rho=np.array([start.rho[s].min()]),
                error=errors[s],
            )
        return Trajectory(
            **common,
            times=times,
            states=[GridState(t, *saves[s, j]) for j, t in enumerate(times)],
            energy=energy[s],
            dissipation=diss[s],
            min_rho=min_rho[s],
            step_states=step_states[s] if step_states is not None else None,
            forcing_increments=forcing_rec[s] if forcing_rec is not None else None,
        )

    trajs = [trajectory(s, sid) for s, sid in enumerate(ids)]
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
    """Run one sample at each epsilon with shared Brownian streams, the
    members stepped together as one batch.

    eps_list must be strictly decreasing.  Each member mollifies the raw
    noise_template for its own epsilon, and its Trajectory reports the H it
    used; it is the Trajectory a lone simulate of that member gives.
    Per-member failures are recorded on the returned Trajectory (error
    field); the other members go on.
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("epsilon list must be strictly decreasing")
    noise = None
    if noise_template is not None and noise_template.n_modes > 0:
        noise = noise_template.truncate_mollify(
            eps_list, c1, alpha1, config_template.rho_inf
        )
    trajs = simulate(
        init,
        law,
        grid,
        config_template,
        noise,
        [sample_id] * len(eps_list),
        epsilon=eps_list,
        keep_failures=True,
    )
    return list(zip(eps_list, trajs))
