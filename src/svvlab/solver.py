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

The step loop runs over a run's states n = 0..N and evaluates each state's
pointwise quantities once, in the law's pass over it
(pressure.StateFields).  State n sits in slot n % steps of a block, beside
its u and P', each field of it one C-contiguous (rows, nodes) array, and
its step writes state n + 1 into the next slot.  When the
last slot or the last state is filled, the block is recorded: the relative
energy, dissipation and minimum density, which no step reads, come from one
call of each functional per block, bitwise a per-step evaluation's values,
and the saves (and the steps, if recorded) are copied out.  A run that
stops early records nothing after its stop.  The noise increments depend on
no state, so they are drawn a chunk of steps at a time
(NoiseModel.sample_increments with a count); step n reads row n % chunk.

A step of one row is bound by its calls, not by its arithmetic, so the
step writes its convective update and its diffusion into workspaces the
stepper keeps per shape, and builds an error only for a row that broke a
guard.

Positivity is never repaired: a density-floor violation raises
PositivityLoss with the failing time, location and sample.  An overflow in
the loop is not warned of: it makes its row's next state non-finite, which
the step reports, and a row whose last state has a non-finite energy or
dissipation fails with DivergenceError.  A failed sample keeps its row, so
a run's batch has one shape from the first step to the last: the row is
set to the far-field state (rho_inf, 0) with zero forcing, a fixed point
of the step, and the sample's Trajectory reports only its initial state
and its error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    NumericalError,
    PositivityLoss,
)
from .pressure import PressureLaw, StateFields, _blocks

# stability numbers of the CFL guard: dt <= CFL_NUMBER dx / max(|u| + c),
# and for explicit diffusion also dt <= DIFFUSION_NUMBER dx^2 / (2 eps)
CFL_NUMBER = 0.4
DIFFUSION_NUMBER = 0.4


def _physical_memory() -> float:
    """The machine's physical memory in bytes, or inf where the platform
    does not report it."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return np.inf


@dataclass(frozen=True)
class Grid:
    """Uniform nodes x_i = -L + i dx, i = 0..n, with dx = 2L/n."""

    L: float
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise ConfigError(f"grid.n = {self.n}: the grid needs at least 16 cells")
        if not 0.0 < self.L < np.inf:
            raise ConfigError(f"half-width L must be positive and finite, got {self.L}")
        dx2 = self.dx * self.dx  # inf where dx**2 overflows
        if not np.finfo(float).tiny <= dx2 < np.inf:
            raise ConfigError(
                f"grid.L = {self.L:g} over {self.n} cells gives dx^2 = {dx2:g}, "
                "not a normal positive float"
            )

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


def _diffusion_numbers(grid: Grid, epsilon, dt):
    """eps dt / dx^2 for each viscosity, as a column over them: ConfigError,
    naming grid.L, where one is not finite."""
    with np.errstate(over="ignore"):
        mu = np.asarray(epsilon, dtype=float)[..., None] * dt / grid.dx**2
    if not np.isfinite(mu).all():
        raise ConfigError(
            f"grid.L = {grid.L:g} over {grid.n} cells gives eps dt / dx^2 = "
            f"{np.max(mu):g} for dt = {dt:g}, which is not finite"
        )
    return mu


def _central_difference(f, dx):
    """d/dx over the last axis: central inside, one-sided at the ends, the
    values of np.gradient(f, dx, axis=-1).

    The central differences are one flat pass over all of f's memory,
    which leaves junk in each row's two ends; the one-sided ends then
    overwrite it."""
    out = np.empty(f.shape)
    flat = f.ravel()
    out.reshape(-1)[1:-1] = (flat[2:] - flat[:-2]) / (2.0 * dx)
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
    record_steps: bool = False
    record_forcing: bool = False

    def __post_init__(self):
        # each check is written so that a NaN fails it
        violations = []
        if not (0.0 < self.epsilon <= 1.0):
            violations.append(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not (0.0 < self.T < np.inf and 0.0 < self.dt < np.inf):
            violations.append(f"T and dt must be finite and > 0, got {self.T}, {self.dt}")
        elif not 0.5 < self.T / self.dt < 2.0**63:  # 1 step to numpy's index range
            violations.append(
                f"solver.T / solver.dt = {self.T / self.dt:g} is not 1 to 2^63 steps"
            )
        elif 24.0 * (self.T / self.dt + 1.0) > _physical_memory():
            # a sample records three float64 per state: its relative
            # energy, dissipation and minimum density
            violations.append(
                f"solver.T / solver.dt = {self.T / self.dt:g} steps: a sample's "
                f"per-step records need {24.0 * (self.T / self.dt + 1.0):.3g} bytes, "
                f"more than the machine's {_physical_memory():.3g} bytes of memory"
            )
        elif abs(self.n_steps * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            violations.append(f"T = {self.T} is not a multiple of dt = {self.dt}")
        elif not self.n_saves >= 1:
            violations.append(f"n_saves must be >= 1, got {self.n_saves}")
        elif self.n_steps % self.n_saves != 0:
            violations.append(
                f"n_steps = {self.n_steps} is not a multiple of n_saves = {self.n_saves}"
            )
        if self.scheme not in ("imex", "explicit"):
            violations.append(f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.rho_inf < np.inf:
            violations.append(f"rho_inf must be positive and finite, got {self.rho_inf}")
        if not self.density_floor >= 0.0:
            violations.append(f"density_floor must be >= 0, got {self.density_floor}")
        if violations:
            raise ConfigError("; ".join(violations), violations)

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


class Stepper:
    """Precomputed operators for repeated steps on one (grid, config).

    A step advances a batch of S independent samples held as (S, n+1)
    arrays; every operation acts row by row, so a row's values are those of
    a batch of one.  epsilon gives each row its own viscosity, in place of
    config.epsilon, and so its own implicit matrix.  The implicit solve
    writes into workspaces the stepper keeps, so one stepper must not step
    in two threads at once.
    """

    def __init__(self, law: PressureLaw, grid: Grid, config: SolverConfig, epsilon=None):
        self.law = law
        self.grid = grid
        self.config = config
        n = grid.n
        self.dx = dx = grid.dx
        self.epsilon = np.asarray(
            config.epsilon if epsilon is None else epsilon, dtype=float
        )
        # a column over the rows: one diffusion number per row
        self.mu = _diffusion_numbers(grid, self.epsilon, config.dt)
        # far-field values of (rho, m), broadcast over the stacked fields
        self._far = np.array([[config.rho_inf], [0.0]])
        # state shape -> the stacked (rho, m) of the convective update, and
        # each of its fields' memory but the first and last node, flat
        self._update = {}
        self._interior = {}
        if config.scheme == "imex":
            # (I - mu L) on interior nodes with Dirichlet ends is diagonal in
            # the sine basis sin(pi j k / n); the inverses of its eigenvalues,
            # one row per mu, at k = 0..n of the odd extension's rfft
            k = np.arange(n + 1)
            self._inv_eig = 1.0 / (1.0 + 2.0 * self.mu * (1.0 - np.cos(np.pi * k / n)))
            # field shape -> (odd extension, spectrum, back transform) of the
            # DST; the odd extension's zeros at 0 and n are never written
            self._dst = {}

    def _diffuse(self, f, boundary, out=None):
        """One diffusion substep of the fields f (..., n+1), clamped to
        boundary (broadcast over f's leading axes) at both ends, written
        into out (f's shape, and not sharing memory with f) if given.

        The implicit solve acts on f - boundary, which has zero ends, so a
        field at its boundary value stays there exactly.  It is a DST-I:
        the odd extension over 2n nodes goes through one rfft, is divided
        by its row's eigenvalues and comes back through one irfft, each
        written into a workspace kept per field shape.  The result is out,
        or else a new array, never a workspace.
        """
        mu = self.mu
        n = self.grid.n
        boundary = np.asarray(boundary, dtype=float)[..., None]
        if out is None:
            out = np.empty_like(f)
        if self.config.scheme == "explicit":
            out[..., 1:-1] = f[..., 1:-1] + mu * (
                f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]
            )
        else:
            work = self._dst.get(f.shape)
            if work is None:
                lead = f.shape[:-1]
                work = self._dst[f.shape] = (
                    np.zeros(lead + (2 * n,)),
                    np.empty(lead + (n + 1,), dtype=complex),
                    np.empty(lead + (2 * n,)),
                )
            odd, spec, back = work
            np.subtract(f[..., 1:-1], boundary, out=odd[..., 1:n])
            np.negative(odd[..., n - 1 : 0 : -1], out=odd[..., n + 1 :])
            np.fft.rfft(odd, out=spec)
            spec *= self._inv_eig
            np.fft.irfft(spec, 2 * n, out=back)
            np.add(back[..., 1:n], boundary, out=out[..., 1:-1])
        out[..., :1] = boundary
        out[..., -1:] = boundary
        return out

    def _dt_max(self, fields: StateFields) -> np.ndarray:
        """Per-row stability bound on dt from the largest wave speed."""
        cfg = self.config
        dx = self.dx
        c = np.sqrt(fields.dP)
        speed = fields.masked(np.abs(fields.u) + c, -np.inf).max(axis=-1)
        speed[~(speed > 0.0)] = 1e-30  # no positive cell, or all at rest
        dt_max = CFL_NUMBER * dx / speed
        if cfg.scheme == "explicit":
            dt_max = np.minimum(dt_max, DIFFUSION_NUMBER * dx**2 / (2.0 * self.epsilon))
        return dt_max

    def step(self, state: GridState, forcing_increment=None, fields=None, out=None):
        """One Euler-Maruyama step of every row of state.

        forcing_increment is the momentum field sum_k a_k zeta_k dW_k of
        each row, already evaluated at the step start; fields is the
        state's StateFields, made here if not given.  out, a (2, S, n+1)
        array, receives the new (rho, m) of every row if given; it may be
        the memory of state itself.  Returns (new state, failures).  The
        new state holds every row, views of out (or of a new array, never
        a workspace), a failed row as the step left it.  failures lists
        (row, error), by row, for every row that broke the CFL bound at the
        step start, or diverged or fell below the density floor at its
        end.  A row at the far-field state (rho_inf, 0) with zero forcing
        comes back bitwise unchanged.

        The convective update and the forcing are written into a workspace
        kept per state shape, as one flat pass over each field's memory,
        which leaves junk in each row's two ends.  The implicit diffusion
        never reads them and clamps them; for the explicit one, which reads
        them, the state's own ends are copied in after the update.
        """
        cfg = self.config
        dx = self.dx
        dt = cfg.dt
        rho, m = state.rho, state.mom
        if fields is None:
            fields = StateFields(self.law, rho, m)

        dt_max = self._dt_max(fields)
        unstable = dt > dt_max * (1.0 + 1e-9)

        flux_m = fields.masked(m**2 / fields.rp) + fields.P

        new = self._update.get(rho.shape)
        if new is None:
            new = self._update[rho.shape] = np.empty((2,) + rho.shape)
            self._interior[rho.shape] = (
                new[0].reshape(-1)[1:-1],
                new[1].reshape(-1)[1:-1],
            )
        d_rho, d_m = self._interior[rho.shape]
        # f - (dt (g(i+1) - g(i-1))) / (2 dx) for (f, g) = (rho, m) and
        # (m, flux_m), in one flat pass per field: right at every interior
        # node, junk at the rows' ends
        rho_flat, m_flat = rho.ravel(), m.ravel()
        for f, g, d in ((rho_flat, m_flat, d_rho), (m_flat, flux_m.ravel(), d_m)):
            np.subtract(g[2:], g[:-2], out=d)
            d *= dt
            d /= 2.0 * dx
            np.subtract(f[1:-1], d, out=d)
        if forcing_increment is not None:
            d_m += forcing_increment.ravel()[1:-1]
        if cfg.scheme == "explicit":  # its diffusion reads the state's ends
            n = self.grid.n
            new[0, ..., ::n], new[1, ..., ::n] = rho[..., ::n], m[..., ::n]

        new = self._diffuse(new, self._far, out)
        rho_new, m_new = new

        t_new = state.t + dt
        finite = np.isfinite(new).all(axis=(0, -1))
        rho_min = rho_new.min(axis=-1)
        bad = unstable | ~finite | (rho_min < cfg.density_floor)
        failures = []
        if bad.any():
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
        return GridState(t_new, rho_new, m_new), failures


@dataclass
class Trajectory:
    """States at save times plus per-step diagnostic streams of one sample."""

    grid: Grid
    config: SolverConfig
    law: PressureLaw
    sample_id: int
    times: np.ndarray
    save_states: np.ndarray  # (saves, 2, n + 1): (rho, m) at each save time
    energy: np.ndarray  # relative energy at each step start + final
    dissipation: np.ndarray  # cumulative viscous dissipation, same grid
    min_rho: np.ndarray
    step_states: np.ndarray | None = None  # (steps + 1, 2, n + 1): (rho, m) per step
    forcing_increments: np.ndarray | None = None  # (steps, n + 1) momentum fields
    error: Exception | None = None
    H: float | None = None  # Gamma_H half-width of the noise, once mollified

    @property
    def final(self) -> GridState:
        return GridState(self.times[-1], *self.save_states[-1])


def relative_energy(law, grid, rho, m, rho_inf, fields=None):
    """Trapezoid integral over the last axis of 1/2 m^2/rho + e*(rho, rho_inf).

    fields is the states' StateFields, made here (checking rho) if not
    given; e* comes from one relative_internal_energy call on rho."""
    if fields is None:
        fields = StateFields(law, rho, m)
    kin = fields.masked(0.5 * np.square(m) / fields.rp)
    estar = law.relative_internal_energy(rho, rho_inf)
    return np.trapezoid(kin + estar, dx=grid.dx, axis=-1)


def dissipation_rate(law, grid, rho, m, fields=None):
    """int ((rho e)'' rho_x^2 + rho u_x^2) dx over the last axis, with
    (rho e)'' = P'(rho)/rho and central differences.

    fields is the state's StateFields, made here (checking rho) if not
    given."""
    if fields is None:
        fields = StateFields(law, rho, m)
    dx = grid.dx
    rho_x, u_x = _central_difference(np.stack((rho, fields.u)), dx)
    w = fields.masked(fields.dP / fields.rp)
    return np.trapezoid(w * rho_x**2 + rho * u_x**2, dx=dx, axis=-1)


def _save_times(config: SolverConfig) -> np.ndarray:
    """The n_saves + 1 save times, each the sum of the steps' dt so far,
    added one step after another as the stepper adds them."""
    every = config.n_steps // config.n_saves
    t = np.cumsum(np.full(config.n_steps, config.dt))
    return np.concatenate(([0.0], t[every - 1 :: every]))


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
    keeps its row, which from then on holds the far-field state
    (rho_inf, 0) with zero forcing, a state the step leaves bitwise as it
    is, so the batch keeps one shape; the others are stepped on.  The run
    raises the error of the first failing sample in the order given,
    which a one-at-a-time loop would raise, and stops once no sample
    before the first failed one is left: the samples after it cannot
    change which error that is.  With keep_failures it steps the samples
    that have not failed to T, or until none is left, and returns, and a
    failed sample's Trajectory holds only its initial state and the error.
    No step follows the last state, so a sample whose last relative energy
    or dissipation is not finite fails then, with a DivergenceError.
    """
    batched = not isinstance(sample_id, (int, np.integer))
    ids = [int(s) for s in sample_id] if batched else [int(sample_id)]
    n_steps = config.n_steps
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
    start = GridState(
        0.0,
        np.broadcast_to(init.rho, shape).copy(),
        np.broadcast_to(init.mom, shape).copy(),
    )

    times = _save_times(config)
    saves = np.empty((n_samples, config.n_saves + 1, 2, n_nodes))
    energy = np.empty((n_samples, n_steps + 1))
    diss = np.zeros((n_samples, n_steps + 1))
    min_rho = np.empty((n_samples, n_steps + 1))
    step_states = (
        np.empty((n_samples, n_steps + 1, 2, n_nodes)) if config.record_steps else None
    )
    forcing_rec = (
        np.zeros((n_samples, n_steps, n_nodes)) if config.record_forcing else None
    )

    # the block: the rho, m, u and P' of up to `steps` states (_blocks),
    # state n in slot n % steps, laid out (fields, steps, rows, nodes), so
    # each field of a state is one C-contiguous (rows, nodes) array
    steps = _blocks(n_steps + 1, n_samples * n_nodes)[0].stop
    block = np.empty((4, steps, n_samples, n_nodes))

    def record(c, k):
        """Record the relative energies, minimum densities, states and saves
        of the block's first k states, those of steps c on, and the
        dissipation they add, each from one call on them all, summed step
        after step.  The functionals read (k, rows, nodes) arrays, and
        their (k, rows) values are written transposed."""
        rho, m, u, dP = block[:, :k]
        fields = StateFields.recorded(rho, u, dP)
        energy[:, c : c + k] = relative_energy(law, grid, rho, m, config.rho_inf, fields).T
        min_rho[:, c : c + k] = rho.min(axis=-1).T
        if step_states is not None:
            step_states[:, c : c + k] = block[:2, :k].transpose(2, 1, 0, 3)
        kept = block[:2, -c % save_every : k : save_every]
        first = -(-c // save_every)  # the first save at or after step c
        saves[:, first : first + kept.shape[1]] = kept.transpose(2, 1, 0, 3)
        if c + k > n_steps:  # the run's last state begins no step
            k -= 1
            if not k:
                return
            rho, m, u, dP = rho[:k], m[:k], u[:k], dP[:k]
            fields = StateFields.recorded(rho, u, dP)
        rate = dissipation_rate(law, grid, rho, m, fields)
        added = row_eps[:, None] * config.dt * rate.T
        added[:, 0] += diss[:, c]
        diss[:, c + 1 : c + k + 1] = np.cumsum(added, axis=1)

    errors = [None] * n_samples
    failed = None  # the failed rows, once one has failed
    block[0, 0], block[1, 0] = start.rho, start.mom
    state = start
    forced = noise is not None and noise.n_modes > 0
    if forced:
        # the increments of `chunk` steps, a block of base draws (_blocks),
        # are drawn in one call, and the forcing's spatial factors once
        chunk = _blocks(n_steps, n_samples * noise._draws_per_step(config.dt))[0].stop
        spatial = noise.on_grid(grid.x)
    # an overflow makes its row's next state non-finite, which the step reports
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps + 1):
            j = n % steps
            fields = StateFields(law, state.rho, state.mom)
            block[2, j], block[3, j] = fields.u, fields.dP
            if j == steps - 1 or n == n_steps:
                record(n - j, j + 1)
            if n == n_steps:
                break
            forcing = None
            if forced:
                if n % chunk == 0:
                    dW = noise.sample_increments(ids, n, config.dt, min(n_steps - n, chunk))
                forcing = noise.apply_forcing(
                    spatial, state.rho, state.mom, dW[n % chunk], fields
                )
                if failed is not None:
                    forcing[failed] = 0.0
                if forcing_rec is not None:
                    forcing_rec[:, n] = forcing
            out = block[:2, (j + 1) % steps]  # the next state's slot
            state, failures = stepper.step(state, forcing, fields, out)
            if failures:
                for row, exc in failures:
                    # a row keeps its first error: at the far field it can
                    # break only its own diffusion bound again (explicit)
                    if errors[row] is None:
                        exc.sample = ids[row]
                        errors[row] = exc
                failed = np.array([exc is not None for exc in errors])
                # a failed row holds the far field, a fixed point of the step
                state.rho[failed], state.mom[failed] = config.rho_inf, 0.0
                # stop once no row that can change the outcome steps (any
                # row with keep_failures, else one before the first failed);
                # nothing reads the states left unrecorded: the run raises,
                # or returns only failed rows' stubs
                if failed.all() if keep_failures else failed[0]:
                    break
    if n == n_steps:  # the run reached T, and no step checked its last state
        for row in np.flatnonzero(~np.isfinite([energy[:, -1], diss[:, -1]]).all(axis=0)):
            if errors[row] is None:
                errors[row] = DivergenceError(state.t)
                errors[row].sample = ids[row]
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
                save_states=np.stack((start.rho[s], start.mom[s]))[None],
                energy=np.array([np.nan]),
                dissipation=np.array([0.0]),
                min_rho=np.array([start.rho[s].min()]),
                error=errors[s],
            )
        return Trajectory(
            **common,
            times=times,
            save_states=saves[s],
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
):
    """Run sample 0 at each epsilon with shared Brownian streams, the
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
        [0] * len(eps_list),
        epsilon=eps_list,
        keep_failures=True,
    )
    return list(zip(eps_list, trajs))
