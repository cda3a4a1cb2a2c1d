"""Finite-mode multiplicative forcing for the momentum equation.

The forcing is sum_k a_k zeta_k(x, rho, m) dW_k with independent Brownian
motions W_k.  Before use in the viscous system the model is truncated and
mollified: only the first floor(1/eps) modes are kept, each coefficient is
multiplied by a smooth indicator of the Riemann-invariant region
Gamma_H = {-H <= w1 <= w2 <= H} with H = c1 * eps^(-alpha1) (and, in the
whole-line case, by a smooth spatial cutoff on |x| < 1/eps).

Brownian increments come from counter-based Philox streams keyed by
(seed, sample, fine step), so that runs with different eps, different
mode counts, or halved time steps share one underlying path: increments
are always generated on a base grid dt_base and summed.  The increments
depend on nothing but those keys, so a run draws those of many steps in one
call: sample_increments takes a count of steps, and one step is the count-1
slice of the same loop.

A run evaluates the forcing once per step, so what depends on the grid
alone (the mode profiles and the cutoff) is evaluated once, by on_grid,
and handed in; the indicator is first bounded by one scalar: where max u
+ K(max rho) and min u - K(max rho) clear the edge of Gamma_H, it is
exactly 1 and no per-node K is taken.  Every state's density is checked,
raw model or mollified: by its pass (pressure.StateFields), or, where a
raw model reads nothing of the pass, by the pass's check alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, DomainError
from .pressure import PressureLaw, StateFields, _smoothstep

_U64 = (1 << 64) - 1
# the most base-grid steps one step of dt may span: each is one Philox draw
# per sample and step
MAX_BASE_STEPS = 2**10


def _column(value):
    """A per-row tuple as a column over the rows of a batch; one value as
    it is."""
    return np.asarray(value, dtype=float)[:, None] if isinstance(value, tuple) else value


def _check_bump(center, width):
    """A mode bump needs a finite center and a positive, finite width
    (compact support); each check is written so that a NaN fails it."""
    if not abs(center) < np.inf:
        raise ConfigError(f"bump center must be finite, got {center}")
    if not 0.0 < width < np.inf:
        raise ConfigError(f"bump width must be positive and finite, got {width}")


@lru_cache(maxsize=64)
def _base_steps(dt, dt_base) -> int:
    """Base-grid steps per step of dt: ConfigError unless dt_base is
    positive and finite and dt a whole multiple of it (a NaN fails), of at
    most MAX_BASE_STEPS base steps.  A job asks it several times for one
    (dt, dt_base): the run file's check, the chunk size, each draw; so
    each is worked out once."""
    k = dt / dt_base if 0.0 < dt_base < np.inf else np.nan
    ki = round(k) if k < np.inf else 0
    if not (ki >= 1 and abs(k - ki) <= 1e-9):
        raise ConfigError(
            f"dt_base must be positive and finite, and dt = {dt:g} an integer "
            f"multiple of it, got {dt_base:g}"
        )
    if ki > MAX_BASE_STEPS:
        raise ConfigError(
            f"dt = {dt:g} spans {ki} base steps of dt_base = {dt_base:g}, "
            f"more than {MAX_BASE_STEPS}"
        )
    return ki


def bump(x, center=0.0, width=1.0):
    """C-infinity bump, equal to 1 at the center, 0 outside."""
    t = (np.asarray(x, dtype=float) - center) / width
    inside = np.abs(t) < 1.0
    safe = np.where(inside, t, 0.0)
    out = np.where(inside, np.exp(1.0 - 1.0 / (1.0 - safe**2)), 0.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class NoiseMode:
    """One forcing mode: coefficient a and profile zeta(x, rho, m) =
    alpha(x) rho, density-proportional with a spatial profile alpha."""

    a: float
    alpha: object  # callable x -> field

    def __call__(self, x, rho, m):
        return self.alpha(x) * rho


@dataclass(frozen=True)
class NoiseModel:
    """Immutable noise description; sampling streams are per (sample, step)."""

    modes: tuple
    law: PressureLaw
    seed: int
    dt_base: float
    support_kind: str = "compact_x"  # or "whole_line"
    # after mollification: one value each, or a tuple of one per row
    epsilon: float | tuple | None = None
    mode_cap: int | tuple | None = None
    H: float | tuple | None = None  # invariant-region half-width

    # -- construction ------------------------------------------------------

    @staticmethod
    def single_mode(
        a1: float,
        law: PressureLaw,
        seed: int,
        dt_base: float,
        center: float = 0.0,
        width: float = 1.0,
    ) -> "NoiseModel":
        """zeta_1(x, rho, m) = alpha(x) rho with a compactly supported bump alpha."""
        _check_bump(center, width)

        def alpha(x):
            return bump(x, center, width)

        return NoiseModel(
            modes=(NoiseMode(a1, alpha),), law=law, seed=seed, dt_base=dt_base
        )

    @staticmethod
    def mode_family(
        a1: float,
        decay: float,
        n_modes: int,
        law: PressureLaw,
        seed: int,
        dt_base: float,
        center: float = 0.0,
        width: float = 1.0,
        support_kind: str = "compact_x",
    ) -> "NoiseModel":
        """Modes a_k = a1 k^(-decay), zeta_k = shifted bumps times rho."""
        if not n_modes >= 1:
            raise ConfigError(f"noise.n_modes must be at least 1, got {n_modes}")
        if not decay >= 0.0:
            raise ConfigError(f"a_k decay exponent must be nonnegative, got {decay}")
        _check_bump(center, width)
        modes = []
        for k in range(1, n_modes + 1):
            shift = center + 0.25 * width * ((k - 1) % 3 - 1)
            wk = width / (1.0 + 0.1 * (k - 1))

            def alpha(x, _s=shift, _w=wk):
                return bump(x, _s, _w)

            modes.append(NoiseMode(a1 * k ** (-decay), alpha))
        return NoiseModel(
            modes=tuple(modes),
            law=law,
            seed=seed,
            dt_base=dt_base,
            support_kind=support_kind,
        )

    def __post_init__(self):
        # each check is written so that a NaN fails it
        amps = [abs(m.a) for m in self.modes]
        if not all(a < np.inf for a in amps):
            raise ConfigError(f"mode amplitudes must be finite, got {amps}")
        if not all(a2 <= a1 + 1e-15 for a1, a2 in zip(amps, amps[1:])):
            raise ConfigError("|a_k| must be nonincreasing in k")

    # -- truncation / mollification ----------------------------------------

    def truncate_mollify(
        self,
        epsilon,
        c1: float,
        alpha1: float,
        rho_inf: float,
    ) -> "NoiseModel":
        """Keep floor(1/eps) modes and confine them to Gamma_H smoothly,
        with a transition of width eps at its edge.

        epsilon is one viscosity, or a sequence of them, one per row of a
        batch: each row is then mollified for its own epsilon, and
        epsilon, mode_cap and H hold one value per row.  The
        model keeps the largest cap's modes; a row gets exactly zero from
        the modes beyond its own cap.
        """
        per_row = np.ndim(epsilon) > 0
        eps_rows = [float(e) for e in epsilon] if per_row else [float(epsilon)]
        for eps in eps_rows:
            if not (0.0 < eps <= 1.0):
                raise ConfigError(f"epsilon must lie in (0, 1], got {eps}")
        if not 0.0 < c1 < np.inf:
            raise ConfigError(f"c1 must be positive and finite, got {c1}")
        law = self.law
        th2 = law.theta2
        alpha_max = th2 if law.gamma1 <= 2.0 else min(0.5, th2)
        if not (0.0 < alpha1 < alpha_max):
            raise ConfigError(
                f"alpha1 must lie in (0, {alpha_max:g}) for this law, got {alpha1}"
            )
        try:
            H_min = 1.0 + (rho_inf + 1.0) ** th2
        except OverflowError:
            key = "law.gamma" if law.is_polytropic else "law.gamma2"
            raise ConfigError(
                f"{key} = {law.gamma2:g} and solver.rho_inf = {rho_inf:g} make the "
                "far-field bound 1 + (rho_inf + 1)^theta2 on H overflow"
            ) from None
        H_rows, caps = [], []
        for eps in eps_rows:
            H = c1 * eps ** (-alpha1)
            if H < H_min:
                raise ConfigError(
                    f"H = c1 eps^-alpha1 = {H:.6g} violates the far-field bound "
                    f"{H_min:.6g}; choose a smaller epsilon or larger c1"
                )
            if not law.is_polytropic and H < law.rho_lo:
                raise ConfigError(
                    f"H = {H:.6g} is below the vacuum-regime edge {law.rho_lo:.6g}"
                )
            H_rows.append(H)
            caps.append(int(np.floor(1.0 / eps)))
        pack = tuple if per_row else (lambda rows: rows[0])
        return replace(
            self,
            modes=self.modes[: max(caps, default=0)],
            epsilon=pack(eps_rows),
            mode_cap=pack(caps),
            H=pack(H_rows),
        )

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    # -- evaluation --------------------------------------------------------

    @cached_property
    def _region(self):
        """(H, transition width, mode caps or None) as columns over the rows
        of a batch, one value as it is, and the edge that the scalar bound
        of _indicator must clear: the smallest H - width over the rows,
        less a relative margin of 1e-9 H, far above the rounding of the
        bound and of the indicator's arithmetic."""
        H, width = _column(self.H), _column(self.epsilon)
        caps = _column(self.mode_cap) if isinstance(self.mode_cap, tuple) else None
        return H, width, caps, float(np.min((1.0 - 1e-9) * H - width))

    def _indicator(self, fields):
        """The smooth indicator of Gamma_H in the Riemann invariants on the
        states of fields, or None where it is exactly 1 on states without
        vacuum.

        K is increasing, so w2 = u + K <= max u + K(max rho) and w1 = u - K
        >= min u - K(max rho).  When that bound clears the edge (_region),
        both smoothsteps are exactly 1 at every node and the per-node K is
        not evaluated; otherwise the full formula is."""
        H, width, _, edge = self._region
        u = fields.u
        clears = False
        if u.size:
            top = self.law._k_integral(fields.rp.max())
            clears = u.max() + top < edge and top - u.min() < edge
        if not clears:
            K = fields.masked(self.law._k_integral(fields.rp))
            upper = (H - (u + K)) / width  # (H - w2) / width
            lower = ((u - K) + H) / width  # (w1 + H) / width
            if not ((upper >= 1.0).all() and (lower >= 1.0).all()):
                return fields.masked(_smoothstep(upper)[0] * _smoothstep(lower)[0])
        # both steps are exactly 1
        return None if fields.pos is None else fields.masked(np.ones_like(u))

    def on_grid(self, x):
        """(alpha_k(x) of every mode, the whole-line cutoff on |x| < 1/eps
        or None where there is none): the forcing's factors that depend on
        the nodes x alone, which every forcing call on x is handed."""
        x = np.asarray(x, dtype=float)
        cutoff = None
        if self.support_kind == "whole_line" and self.epsilon is not None:
            cutoff = _smoothstep(2.0 * (1.0 - np.abs(_column(self.epsilon) * x)))[0]
        return tuple(mode.alpha(x) for mode in self.modes), cutoff

    def _mollified(self, spatial, rho, m, fields=None):
        """k -> zeta_k^eps at the given states on the nodes x, spatial =
        on_grid(x); the Gamma_H indicator is evaluated once, for every
        mode.  A model mollified per row zeroes each row's modes beyond its
        cap.  fields is the states' StateFields, whose pass checked rho >=
        0; without it, a mollified model makes the pass and a raw model,
        which reads nothing of it, makes the pass's check alone."""
        if fields is None:
            if self.H is None:
                self.law._check_nonneg(rho)
            else:
                fields = StateFields(
                    self.law, np.asarray(rho, dtype=float), np.asarray(m, dtype=float)
                )
        profiles, cutoff = spatial
        if self.H is None:
            return lambda k: profiles[k] * rho
        indicator = self._indicator(fields)
        caps = self._region[2]

        def zeta(k):
            z = profiles[k] * rho
            if indicator is not None:  # an indicator of all ones is exact
                z = z * indicator
            if cutoff is not None:
                z = z * cutoff
            return z if caps is None else z * (k < caps)

        return zeta

    def zeta_eff(self, k, spatial, rho, m):
        """Mollified coefficient of mode k (0-based), spatial = on_grid(x)."""
        return self._mollified(spatial, rho, m)(k)

    def forcing_quadratic(self, spatial, rho, m, fields=None):
        """sum_k (a_k zeta_k)^2, the Ito-correction integrand numerator, with
        spatial = on_grid(x); fields is the states' StateFields, made here
        if not given."""
        zeta = self._mollified(spatial, rho, m, fields)
        total = 0.0
        for k, mode in enumerate(self.modes):
            z = mode.a * zeta(k)
            total = total + z**2
        return total

    def apply_forcing(self, spatial, rho, m, dW, fields=None):
        """Momentum increment sum_k a_k zeta_k^eps(x, rho, m) dW_k, with
        spatial = on_grid(x).

        rho and m may hold one state per row; dW is then (rows, n_modes),
        one row of increments per state.  fields is the states'
        StateFields, made here if not given."""
        dW = np.asarray(dW, dtype=float)
        if dW.shape[-1] != len(self.modes):
            raise DomainError(
                f"expected {len(self.modes)} increments, got {dW.shape[-1]}"
            )
        zeta = self._mollified(spatial, rho, m, fields)
        # the sum starts from its first nonzero term plus 0.0, which gives
        # the bits, and the signs of zero, of zeros plus that term
        out = None
        for k, mode in enumerate(self.modes):
            dW_k = dW[..., k, None]
            if dW_k.any():
                term = mode.a * zeta(k) * dW_k
                out = term + 0.0 if out is None else out + term
        return np.zeros_like(np.asarray(rho, dtype=float)) if out is None else out

    # -- Brownian increments ----------------------------------------------

    def _stream(self, sample_id: int):
        """(Generator, initial Philox state) of the sample's stream, keyed
        by (seed, sample); every draw restores that state, so no draw
        depends on the ones before it."""
        key = ((int(self.seed) & _U64) << 64) | (int(sample_id) & _U64)
        gen = np.random.Generator(np.random.Philox(key=key))
        return gen, gen.bit_generator.state

    def _draws_per_step(self, dt) -> int:
        """Base-grid draws per sample and step of dt: n_modes for each of
        its base steps."""
        return len(self.modes) * _base_steps(float(dt), float(self.dt_base))

    def sample_increments(self, sample_id, step: int, dt: float, count=None):
        """Brownian increments over [step dt, (step+1) dt) for all modes,
        or, given a count, over each of the count steps from step on.

        sample_id is one id, giving (n_modes,) increments, or a sequence of
        ids, giving (len(sample_id), n_modes), where a repeated id repeats
        its row; a count puts a leading axis of count steps before these,
        and one step is the count-1 slice.  step is a nonnegative integer
        and count a positive one (DomainError otherwise).  dt must be an
        integer multiple of dt_base; the increments are sums of base-grid
        draws, so coarse and fine runs share one path.

        Each base step's draw restores the stream's initial state (empty
        output buffer) with the counter set to fine_step << 128, which
        gives the bits of a generator built afresh with that counter; the
        draws of every id and fine step are made in one loop, and summed
        over each step's base steps in their order.
        """
        if not (isinstance(step, (int, np.integer)) and step >= 0):
            raise DomainError(f"step must be a nonnegative integer, got {step!r}")
        steps = 1 if count is None else count
        if not (isinstance(steps, (int, np.integer)) and steps >= 1):
            raise DomainError(f"count must be a positive integer, got {count!r}")
        ki = _base_steps(float(dt), float(self.dt_base))
        batched = not isinstance(sample_id, (int, np.integer))
        ids = list(map(int, sample_id)) if batched else [int(sample_id)]
        cols = {}  # sample id -> its column of draws: each id is drawn once
        for sid in ids:
            cols.setdefault(sid, len(cols))
        nm, steps = len(self.modes), int(steps)
        draws = np.empty((steps * ki, len(cols), nm))  # one row per fine step
        base = int(step) * ki
        for sid, col in cols.items():
            gen, state = self._stream(sid)
            bitgen, draw = gen.bit_generator, gen.standard_normal
            counter = state["state"]["counter"]
            slots = draws[:, col]
            for j in range(steps * ki):
                counter[2], counter[3] = (base + j) & _U64, (base + j) >> 64
                bitgen.state = state
                draw(out=slots[j])
        # each step's sum starts from its first base draw plus 0.0, which
        # gives the bits of zeros plus that draw
        draws = draws.reshape(steps, ki, len(cols), nm)
        out = draws[:, 0] + 0.0
        for j in range(1, ki):
            out += draws[:, j]
        out *= np.sqrt(self.dt_base)
        if len(cols) < len(ids):
            out = out[:, [cols[sid] for sid in ids]]
        if not batched:
            out = out[:, 0]
        return out if count is not None else out[0]

    # -- reporting ---------------------------------------------------------

    def growth_check(self, states, B0: float | None = None):
        """Empirical bound constant of the forcing growth condition.

        states is an iterable of (x, rho, m) arrays.  Returns a GrowthReport
        with the max of G / (rho (1 + eps^2 + u^2 + e)^{1/2}); vacuum cells
        contribute zero, and a forcing too large to square gives inf.  An
        envelope too large to represent gives 0: a mollified forcing is 0
        there, outside Gamma_H, and any other is below a_k alpha_k / sqrt(e).
        """
        eps2 = 0.0 if self.epsilon is None else _column(self.epsilon) ** 2
        worst = 0.0
        count = 0
        for x, rho, m in states:
            rho = np.asarray(rho, dtype=float)
            m = np.asarray(m, dtype=float)
            # P = kappa rho^gamma may overflow where the envelope does
            with np.errstate(over="ignore"):
                fields = StateFields(self.law, rho, m)
                G = np.sqrt(self.forcing_quadratic(self.on_grid(x), rho, m, fields))
                rp, u = fields.rp, fields.u
                env = rp * np.sqrt(1.0 + eps2 + u**2 + self.law._internal_energy(rp))
                worst = max(worst, float(np.max(fields.masked(G / env), initial=0.0)))
            count += 1
        passed = None if B0 is None else bool(worst <= B0)
        return GrowthReport(empirical_B0=worst, n_states=count, passed=passed)


@dataclass(frozen=True)
class GrowthReport:
    empirical_B0: float
    n_states: int
    passed: bool | None = None
