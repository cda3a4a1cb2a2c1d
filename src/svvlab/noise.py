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
are always generated on a base grid dt_base and summed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DomainError
from .pressure import PressureLaw, _smoothstep
from .solver import StateFields

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


def _base_steps(dt, dt_base) -> int:
    """Base-grid steps per step of dt: ConfigError unless dt_base is
    positive and finite and dt a whole multiple of it (a NaN fails), of at
    most MAX_BASE_STEPS base steps."""
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
    # sample id -> (Generator, initial Philox state) of its stream; every
    # draw restores that state, so no draw depends on the ones before it
    _streams: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # nodes x -> (mode profiles alpha_k(x), spatial cutoff) on them
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        H_min = 1.0 + (rho_inf + 1.0) ** th2
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

    def rows(self, index) -> "NoiseModel":
        """The model of the given rows of a model mollified per row; any
        other model serves every row as it is."""
        if not isinstance(self.H, tuple):
            return self

        def pick(values):
            return tuple(values[i] for i in index)

        return replace(
            self,
            epsilon=pick(self.epsilon),
            mode_cap=pick(self.mode_cap),
            H=pick(self.H),
        )

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    # -- evaluation --------------------------------------------------------

    def _region_indicator(self, rho, m, fields=None):
        """Smooth indicator of Gamma_H in the Riemann invariants.  fields is
        the states' StateFields, made here (checking rho) if not given."""
        if fields is None:
            fields = StateFields(
                self.law, np.asarray(rho, dtype=float), np.asarray(m, dtype=float)
            )
        u = fields.u
        K = fields.masked(self.law._k_integral(fields.rp))
        H = _column(self.H)
        width = _column(self.epsilon)  # the transition width
        upper = (H - (u + K)) / width  # (H - w2) / width
        lower = ((u - K) + H) / width  # (w1 + H) / width
        if (upper >= 1.0).all() and (lower >= 1.0).all():  # both steps are exactly 1
            return fields.masked(np.ones_like(u))
        return fields.masked(_smoothstep(upper)[0] * _smoothstep(lower)[0])

    def _spatial_cutoff(self, x):
        """The whole-line cutoff on |x| < 1/eps, or None where there is
        none to apply."""
        if self.support_kind != "whole_line" or self.epsilon is None:
            return None
        return _smoothstep(2.0 * (1.0 - np.abs(_column(self.epsilon) * np.asarray(x))))[0]

    def _on_grid(self, x):
        """(alpha_k(x) of every mode, spatial cutoff) on the nodes x: they
        depend on x alone, so each grid's are evaluated once and kept (the
        last few grids')."""
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        kept = self._grids.get(key)
        if kept is None:
            if len(self._grids) >= 4:
                self._grids.clear()
            profiles = tuple(mode.alpha(x) for mode in self.modes)
            kept = self._grids[key] = profiles, self._spatial_cutoff(x)
        return kept

    def _mollified(self, x, rho, m, fields=None):
        """k -> zeta_k^eps at the given states; the Gamma_H indicator is
        evaluated once, for every mode, and the profiles and the spatial
        cutoff once per grid.  A model mollified per row zeroes each row's
        modes beyond its cap."""
        profiles, cutoff = self._on_grid(x)
        if self.H is None:
            return lambda k: profiles[k] * rho
        indicator = self._region_indicator(rho, m, fields)
        caps = _column(self.mode_cap) if isinstance(self.mode_cap, tuple) else None

        def zeta(k):
            z = profiles[k] * rho * indicator
            if cutoff is not None:
                z = z * cutoff
            return z if caps is None else z * (k < caps)

        return zeta

    def zeta_eff(self, k, x, rho, m):
        """Mollified coefficient of mode k (0-based) at the given states."""
        return self._mollified(x, rho, m)(k)

    def forcing_l2(self, x, rho, m):
        """Pointwise sqrt(sum_k (a_k zeta_k)^2), the growth functional."""
        return np.sqrt(self.forcing_quadratic(x, rho, m))

    def forcing_quadratic(self, x, rho, m):
        """sum_k (a_k zeta_k)^2, the Ito-correction integrand numerator."""
        zeta = self._mollified(x, rho, m)
        total = 0.0
        for k, mode in enumerate(self.modes):
            z = mode.a * zeta(k)
            total = total + z**2
        return total

    def apply_forcing(self, x, rho, m, dW, fields=None):
        """Momentum increment sum_k a_k zeta_k^eps(x, rho, m) dW_k.

        rho and m may hold one state per row; dW is then (rows, n_modes),
        one row of increments per state.  fields is the states'
        StateFields, made here if not given."""
        dW = np.asarray(dW, dtype=float)
        if dW.shape[-1] != self.n_modes:
            raise DomainError(
                f"expected {self.n_modes} increments, got {dW.shape[-1]}"
            )
        zeta = self._mollified(x, rho, m, fields)
        out = np.zeros_like(np.asarray(rho, dtype=float))
        for k, mode in enumerate(self.modes):
            dW_k = dW[..., k, None]
            if dW_k.any():
                out = out + mode.a * zeta(k) * dW_k
        return out

    # -- Brownian increments ----------------------------------------------

    def _blocks(self, sample_id: int, fine_step: int, count: int):
        """Standard normal draws for one fine step; mode i is draw i.

        Each sample keeps one Philox generator keyed by (seed, sample); a
        draw restores its initial state (empty output buffer) with the
        counter set to fine_step << 128, which gives the bits of a
        generator built afresh with that counter."""
        stream = self._streams.get(sample_id)
        if stream is None:
            key = ((int(self.seed) & _U64) << 64) | (int(sample_id) & _U64)
            gen = np.random.Generator(np.random.Philox(key=key))
            stream = self._streams[sample_id] = gen, gen.bit_generator.state
        gen, state = stream
        state["state"]["counter"][:] = 0, 0, fine_step & _U64, fine_step >> 64
        gen.bit_generator.state = state
        return gen.standard_normal(count)

    def sample_increments(self, sample_id, step: int, dt: float):
        """Brownian increments over [step dt, (step+1) dt) for all modes.

        sample_id is one id, giving (n_modes,) increments, or a sequence of
        ids, giving (len(sample_id), n_modes), where a repeated id repeats
        its row.  dt must be an integer
        multiple of dt_base; the increments are sums of base-grid draws, so
        coarse and fine runs share one path.
        """
        ki = _base_steps(dt, self.dt_base)
        batched = not isinstance(sample_id, (int, np.integer))
        ids = [int(s) for s in sample_id] if batched else [int(sample_id)]
        nm = self.n_modes
        root = np.sqrt(self.dt_base)
        out = np.zeros((len(ids), nm))
        base = step * ki
        first = {}  # sample id -> its first row: each id is drawn once
        for i, sid in enumerate(ids):
            if sid in first:
                out[i] = out[first[sid]]
                continue
            first[sid] = i
            for j in range(ki):
                out[i] += self._blocks(sid, base + j, nm)
        out = out * root
        return out if batched else out[0]

    # -- reporting ---------------------------------------------------------

    def growth_check(self, states, B0: float | None = None):
        """Empirical bound constant of the forcing growth condition.

        states is an iterable of (x, rho, m) arrays.  Returns a GrowthReport
        with the max of G / (rho (1 + eps^2 + u^2 + e)^{1/2}); vacuum cells
        contribute zero.
        """
        eps2 = 0.0 if self.epsilon is None else _column(self.epsilon) ** 2
        worst = 0.0
        count = 0
        for x, rho, m in states:
            rho = np.asarray(rho, dtype=float)
            m = np.asarray(m, dtype=float)
            G = self.forcing_l2(x, rho, m)
            pos = rho > 0.0
            if pos.any():
                rp = rho[pos]
                u = m[pos] / rp
                e2 = np.broadcast_to(eps2, rho.shape)[pos]
                env = rp * np.sqrt(1.0 + e2 + u**2 + self.law.internal_energy(rp))
                worst = max(worst, float(np.max(G[pos] / env)))
            count += 1
        passed = None if B0 is None else bool(worst <= B0)
        return GrowthReport(empirical_B0=worst, n_states=count, passed=passed)


@dataclass(frozen=True)
class GrowthReport:
    empirical_B0: float
    n_states: int
    passed: bool | None = None
