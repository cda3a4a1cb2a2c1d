"""Pressure laws for 1D isentropic gas dynamics.

Two families are supported:

* polytropic: P(rho) = kappa * rho**gamma with gamma > 1.  The default
  kappa = (gamma-1)**2 / (4*gamma) makes the wave integral K(rho) equal
  rho**theta exactly, theta = (gamma-1)/2.
* composite: two power-law regimes, exponent gamma1 near vacuum and
  gamma2 at infinity, joined by a smooth blend of log P on
  [rho_lo, rho_hi].  The blend uses a C-infinity smoothstep, so the law
  is exactly the pure power laws outside the blend window.

All derived thermodynamic quantities are provided: P, P', P'', sound
speed c = sqrt(P'), the wave integral K(rho) = int_0^rho sqrt(P'(y))/y dy,
internal energy e with rho**2 e' = P and e(0) = 0, the relative internal
energy about a far-field density, and the potential g of the high-order
energy (g'' = 2 P' e / rho, g(0) = g'(0) = 0) with its derivative g'.

For the composite law each of e, K, g' and g has one vectorized
evaluation path over three regimes: the gamma1 power law in closed form
below rho_lo, a table of polynomial cells in log rho of the integral from
rho_lo on the blend window (evaluated only on the points inside it), and a
closed-form tail above rho_hi, where P = kappa2 rho**gamma2 exactly.  Each
table is built lazily, on first use, by _WindowFit: cells sampled from the
integrand and halved until its series converges, each series integrated
exactly and the constants chained left to right.  g' reads e, and g reads
g', through that table, from its cell edges.  The fits need numpy core
alone: _chebint does numpy.polynomial's chebint operations in its order,
and _CHEB_TO_POWER is the recurrence's table, so that the tables are the
ones numpy.polynomial gives, and no run loads it.  A number is evaluated as a
1-element array, so that it gets the bits an array gives.

StateFields is a law's pass over states (rho, m): one (P, P') call, the
positivity mask, a safe divisor and u = m / rho, after one sign test of
rho, rho.min() > 0, which leaves out the checks and masks that a state
without vacuum does not need.  It holds the vacuum rule, and every
functional of a state reads it.  BLOCK_POINTS is the lab's one block
size, and _blocks its one rule for rows per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, NumericalError

# A window fit is a table of cells in s = log rho, each holding a
# polynomial of degree _CELL_DEGREE.  The integrand is sampled at
# _CELL_SAMPLES Chebyshev points of a cell; the cell is kept when the
# coefficients of the samples' series beyond degree _CELL_DEGREE - 1 sum to
# at most _CELL_TOL times its largest one, and halved otherwise, up to
# _MAX_SPLITS times.  A fit of its own starts from _START_CELLS equal cells.
_CELL_DEGREE = 7
_CELL_SAMPLES = 12
_CELL_TOL = 1e-14
_START_CELLS = 4
_MAX_SPLITS = 20
# points of the blend window on which a composite law must have P' > 0
_HYPERBOLICITY_SAMPLES = 257


def _cheb_to_power(degree):
    """Row j: the power-series coefficients of T_j, lowest first, from
    T_0 = 1, T_1 = x and T_{j+1} = 2 x T_j - T_{j-1}; exact small integers."""
    table = np.eye(degree + 1)
    for j in range(2, degree + 1):
        table[j, 1:] = 2.0 * table[j - 1, :-1]
        table[j] -= table[j - 2]
    return table


_CHEB_TO_POWER = _cheb_to_power(_CELL_DEGREE)


def default_kappa(gamma: float) -> float:
    """Scaled kappa making K(rho) = rho**theta for the polytropic law."""
    return (gamma - 1.0) ** 2 / (4.0 * gamma)


def _smoothstep(t, order=0):
    """(w, w', w'')[: order + 1] of the C-infinity monotone step w: 0 for
    t <= 0, 1 for t >= 1.  Only the orders asked for are computed."""
    t = np.asarray(t, dtype=float)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = [np.zeros_like(t) for _ in range(order + 1)]
    out[0][hi] = 1.0
    for part, inside in zip(out, _smoothstep_inside(t[mid], order)):
        part[mid] = inside
    return tuple(out)


def _smoothstep_inside(t, order):
    """_smoothstep(t, order) for t in (0, 1), where no mask is needed."""
    f = np.exp(-1.0 / t)
    g = np.exp(-1.0 / (1.0 - t))
    s = f + g
    out = [f / s]
    if order >= 1:
        fp = f / t**2
        gp = -g / (1.0 - t) ** 2
        out.append((fp * g - f * gp) / s**2)
    if order >= 2:
        fpp = f * (1.0 - 2.0 * t) / t**4
        gpp = g * (1.0 - 2.0 * (1.0 - t)) / (1.0 - t) ** 4
        num1 = (fpp * g - f * gpp) * s
        num2 = 2.0 * (fp * g - f * gp) * (fp + gp)
        out.append((num1 - num2) / s**3)
    return out


class _WindowFit:
    """base + int_lo^rho f(y) dy for rho in [lo, hi], as a table of cells.

    The cells lie in s = log rho, which keeps the vacuum singularity of the
    power laws away from the window.  Each round samples the integrand
    f(e^s) e^s at _CELL_SAMPLES Chebyshev points of every open cell at once,
    takes the series of each by one DCT-II (_dct2) and halves the cells
    whose series has not converged; past _MAX_SPLITS rounds the fit raises
    NumericalError.  Each kept series is integrated exactly, and the cells'
    constants are chained left to right from base.  f must be vectorized.

    The cells start from edges when given, else from _START_CELLS equal
    cells: a fit whose integrand reads another fit starts from that fit's
    edges, where the one it reads is not smooth, so that no cell of its own
    spans one of them.

    One searchsorted finds each point's cell, one gather takes its
    coefficients and a fixed Horner loop sums them.
    """

    def __init__(self, f, lo, hi, base, name, edges=None):
        # the blend variable t = (rho - lo) / (hi - lo) carries a rounding
        # error of eps hi / (hi - lo), and so does every sample of f
        tol = max(_CELL_TOL, 100.0 * np.finfo(float).eps * hi / (hi - lo))
        if edges is None:
            edges = np.linspace(np.log(lo), np.log(hi), _START_CELLS + 1)
        a, b = edges[:-1], edges[1:]
        k = np.arange(_CELL_SAMPLES)
        nodes = 0.5 * (np.cos(np.pi * (k + 0.5) / _CELL_SAMPLES) + 1.0)  # on [0, 1]
        cells = []
        for _ in range(_MAX_SPLITS + 1):
            y = np.exp(a[:, None] + (b - a)[:, None] * nodes)
            c = _dct2(f(y.ravel()).reshape(y.shape) * y)
            if not np.all(np.isfinite(c)):
                raise NumericalError(f"{name}: non-finite integrand on the blend window")
            tail = np.abs(c[:, _CELL_DEGREE:]).sum(axis=1)
            ok = tail <= tol * np.abs(c).max(axis=1)
            cells.append((a[ok], b[ok], c[ok, :_CELL_DEGREE]))
            if ok.all():
                break
            a, b = a[~ok], b[~ok]
            mid = 0.5 * (a + b)
            a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
        else:
            raise NumericalError(
                f"{name}: no cell of degree {_CELL_DEGREE} fits near "
                f"rho = {np.exp(a[0]):.6g} on [{lo:g}, {hi:g}]"
            )
        a, b, c = (np.concatenate(v) for v in zip(*cells))
        order = np.argsort(a)
        a, b, c = a[order], b[order], c[order]
        # int over [a, s] of each series: zero at x = -1, its cell integral at 1
        coef = _chebint(c) * (0.5 * (b - a))[:, None]
        start = np.cumsum(np.concatenate(([base], coef.sum(axis=1))))
        coef[:, 0] += start[:-1]
        self.top = float(start[-1])  # the value at hi
        self.edges = np.append(a, b[-1])
        # column j: cell j's power-series coefficients in x = (s - mid) scale,
        # lowest first, then its mid and scale, so that x runs over [-1, 1]
        self._table = np.vstack(((coef @ _CHEB_TO_POWER).T, 0.5 * (a + b), 2.0 / (b - a)))

    def __call__(self, rho):
        s = np.log(rho)
        t = self._table.take(np.searchsorted(self.edges[1:-1], s, side="right"), axis=1)
        x = s - t[-2]
        x *= t[-1]
        out = t[_CELL_DEGREE]
        for j in range(_CELL_DEGREE - 1, -1, -1):
            out *= x
            out += t[j]
        return out


def _chebint(c):
    """The Chebyshev series (cells, n + 1) of the integrals from x = -1 of
    the series c (cells, n), n >= 2: numpy.polynomial.chebyshev.chebint(c,
    lbnd=-1.0, axis=1) with numpy's operations in numpy's order, and its
    layout, a transposed C array, so that every later sum adds alike."""
    c = c.T
    n = len(c)
    tmp = np.empty((n + 1,) + c.shape[1:])
    tmp[0] = c[0] * 0
    tmp[1] = c[0]
    tmp[2] = c[1] / 4
    for j in range(2, n):
        tmp[j + 1] = c[j] / (2 * (j + 1))
        tmp[j - 1] -= c[j] / (2 * (j - 1))
    # chebval(-1.0, tmp): numpy's Clenshaw recurrence, x2 = 2 x
    x, x2 = -1.0, -2.0
    c0, c1 = tmp[-2], tmp[-1]
    for i in range(3, n + 2):
        c0, c1 = tmp[-i] - c1, c0 + c1 * x2
    tmp[0] += 0 - (c0 + c1 * x)
    return tmp.T


def _dct2(g):
    """Chebyshev coefficients of the samples g (..., n) taken at the n
    Chebyshev points cos(pi (k + 1/2) / n): one DCT-II along the last axis,
    taken as one FFT of the samples reordered evens up, odds down
    (Makhoul)."""
    n = g.shape[-1]
    k = np.arange(n)
    c = np.fft.fft(np.concatenate((g[..., ::2], g[..., ::-2]), axis=-1))
    c = 2.0 * (np.exp(-0.5j * np.pi * k / n) * c).real / n
    c[..., 0] *= 0.5
    return c


@dataclass(frozen=True)
class BoundCheck:
    """One empirical inequality check over a sample set."""

    name: str
    ratio_min: float
    ratio_max: float
    satisfied: bool


@dataclass(frozen=True)
class BoundReport:
    checks: tuple = ()

    def __bool__(self):
        return all(c.satisfied for c in self.checks)

    def __iter__(self):
        return iter(self.checks)

    def __len__(self):
        return len(self.checks)


@dataclass(frozen=True)
class PressureLaw:
    """Immutable pressure model; safe for concurrent use."""

    kind: str  # "polytropic" | "composite"
    gamma1: float
    gamma2: float
    kappa1: float
    kappa2: float
    rho_lo: float = 0.0  # blend window, composite only
    rho_hi: float = 0.0
    # rho_inf -> (rho_inf e(rho_inf), (rho e)'(rho_inf)) of relative_internal_energy
    _bregman: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def polytropic(gamma: float, kappa: float | None = None) -> "PressureLaw":
        # each check is written so that a NaN fails it; each message begins
        # with the parameter's name, which a caller may qualify
        if not 1.0 < gamma < np.inf:
            raise ConfigError(f"gamma = {gamma}: a polytropic law needs a finite gamma > 1")
        if kappa is None:
            try:
                kappa = default_kappa(gamma)
            except OverflowError:
                raise ConfigError(
                    f"gamma = {gamma:g}: the scaled kappa (gamma - 1)^2 / (4 gamma) overflows"
                ) from None
        if not 0.0 < kappa < np.inf:
            raise ConfigError(f"kappa = {kappa}: must be positive and finite")
        return PressureLaw("polytropic", gamma, gamma, kappa, kappa)

    @staticmethod
    def composite(
        gamma1: float,
        gamma2: float,
        kappa1: float,
        kappa2: float,
        rho_lo: float,
        rho_hi: float,
    ) -> "PressureLaw":
        violations = []  # each check is written so that a NaN fails it
        if not (1.0 < gamma2 <= gamma1 < 3.0):
            violations.append(
                f"composite law needs 1 < gamma2 <= gamma1 < 3, got ({gamma1}, {gamma2})"
            )
        if not (0.0 < kappa1 < np.inf and 0.0 < kappa2 < np.inf):
            violations.append(
                f"kappa1 and kappa2 must be positive and finite, got ({kappa1}, {kappa2})"
            )
        if not (0.0 < rho_lo < rho_hi < np.inf):
            violations.append(
                f"blend window needs 0 < rho_lo < rho_hi < inf, got ({rho_lo}, {rho_hi})"
            )
        if violations:
            raise ConfigError("; ".join(violations), violations)
        law = PressureLaw("composite", gamma1, gamma2, kappa1, kappa2, rho_lo, rho_hi)
        rho = np.linspace(rho_lo, rho_hi, _HYPERBOLICITY_SAMPLES)
        Pp = law.dpressure(rho)
        if not np.all(Pp > 0.0):
            i = int(np.argmin(Pp))
            raise ConfigError(
                f"composite law is not strictly hyperbolic: P' = {Pp[i]:.6g} "
                f"at rho = {rho[i]:.6g} in the blend window [law.rho_lo, law.rho_hi]"
            )
        return law

    # -- basic properties --------------------------------------------------

    @cached_property
    def is_polytropic(self) -> bool:
        return self.kind == "polytropic"

    @property
    def gamma(self) -> float:
        """Adiabatic exponent (polytropic only)."""
        if not self.is_polytropic:
            raise DomainError("gamma is single-valued only for the polytropic law")
        return self.gamma1

    @property
    def kappa(self) -> float:
        if not self.is_polytropic:
            raise DomainError("kappa is single-valued only for the polytropic law")
        return self.kappa1

    @property
    def theta(self) -> float:
        if not self.is_polytropic:
            raise DomainError("theta is single-valued only for the polytropic law")
        return 0.5 * (self.gamma1 - 1.0)

    @property
    def theta1(self) -> float:
        return 0.5 * (self.gamma1 - 1.0)

    @property
    def theta2(self) -> float:
        return 0.5 * (self.gamma2 - 1.0)

    @property
    def lam(self) -> float:
        """Kernel exponent (3 - gamma) / (2 (gamma - 1)), polytropic only."""
        g = self.gamma
        return (3.0 - g) / (2.0 * (g - 1.0))

    @property
    def is_scaled(self) -> bool:
        """True when kappa is the scaled value giving K(rho) = rho**theta."""
        return self.is_polytropic and abs(
            self.kappa - default_kappa(self.gamma)
        ) <= 1e-14 * default_kappa(self.gamma)

    # -- blend helper (composite) ------------------------------------------

    def _logP_parts(self, rho, order):
        """Return (L, L', L'')[: order + 1] of log P for the composite law
        (rho > 0).  Outside the blend window the blend weight is exactly 0
        or 1, so L is the gamma1 or gamma2 power law's log there, and the
        blend is evaluated only on the points inside it."""
        shape = np.shape(rho)
        rho = np.asarray(rho, dtype=float).reshape(-1)
        t = (rho - self.rho_lo) / (self.rho_hi - self.rho_lo)
        s = np.log(rho)
        inside = (t > 0.0) & (t < 1.0)
        if inside.all():
            parts = self._blend_parts(rho, s, t, order)
        else:
            far = t >= 1.0
            g = np.where(far, self.gamma2, self.gamma1)
            parts = [np.where(far, np.log(self.kappa2), np.log(self.kappa1)) + g * s]
            if order >= 1:
                parts.append(g / rho)
            if order >= 2:
                parts.append(-g / rho**2)
            if inside.any():
                blend = self._blend_parts(rho[inside], s[inside], t[inside], order)
                for p, b in zip(parts, blend):
                    p[inside] = b
        return tuple(p.reshape(shape) for p in parts)

    def _blend_parts(self, rho, s, t, order):
        """(L, L', L'')[: order + 1] of the blend at window points: rho in
        (rho_lo, rho_hi), s = log rho, t the blend variable in (0, 1)."""
        L1 = np.log(self.kappa1) + self.gamma1 * s
        L2 = np.log(self.kappa2) + self.gamma2 * s
        d = self.rho_hi - self.rho_lo
        w, *dw = _smoothstep_inside(t, order)
        L = (1.0 - w) * L1 + w * L2
        if order == 0:
            return (L,)
        wp = dw[0] / d
        dL1, dL2 = self.gamma1 / rho, self.gamma2 / rho
        Lp = (1.0 - w) * dL1 + w * dL2 + wp * (L2 - L1)
        if order == 1:
            return L, Lp
        wpp = dw[1] / d**2
        d2L1, d2L2 = -self.gamma1 / rho**2, -self.gamma2 / rho**2
        Lpp = (
            (1.0 - w) * d2L1
            + w * d2L2
            + 2.0 * wp * (dL2 - dL1)
            + wpp * (L2 - L1)
        )
        return L, Lp, Lpp

    # -- thermodynamic closure ---------------------------------------------
    #
    # A public method checks rho >= 0 once; where it has an unchecked twin
    # _name, callers that have checked rho already (the composite regimes,
    # relative_internal_energy, the readers of a StateFields pass) call the
    # twin.  P, P' and P'' share one twin, _pressure_parts.

    def pressure(self, rho):
        """P(rho); P(0) = 0, strictly increasing."""
        return self._pressure_parts(self._check_nonneg(rho), 0)[0]

    def dpressure(self, rho):
        """P'(rho)."""
        return self._pressure_parts(self._check_nonneg(rho), 1)[1]

    def pressure_pair(self, rho):
        """(P(rho), P'(rho)) from one check of rho and one evaluation."""
        return self._pressure_parts(self._check_nonneg(rho), 1)

    def d2pressure(self, rho):
        """P''(rho) (rho > 0)."""
        return self._pressure_parts(self._check_pos(rho), 2)[2]

    def _pressure_parts(self, rho, order):
        """(P, P', P'')[: order + 1] of a checked rho, only the orders asked
        for (P'' only where rho > 0); floats for a float rho.  A composite
        law's are exp(L), exp(L) L' and exp(L) (L'' + L'^2) with L = log P,
        and P = P' = 0 on vacuum."""
        if self.is_polytropic:
            k, g = self.kappa1, self.gamma1
            parts = [k * rho**g]
            if order >= 1:
                parts.append(k * g * rho ** (g - 1.0))
            if order >= 2:
                parts.append(k * g * (g - 1.0) * rho ** (g - 2.0))
            return tuple(parts)
        pos = np.asarray(rho > 0.0)
        vacuum = not pos.all()  # else no mask is needed
        L, *dL = self._logP_parts(np.where(pos, rho, 1.0) if vacuum else rho, order)
        P = np.exp(L)
        parts = [P]
        if order >= 1:
            parts.append(P * dL[0])
        if order >= 2:
            parts.append(P * (dL[1] + dL[0] ** 2))
        if vacuum:
            parts = [np.where(pos, p, 0.0) for p in parts]
        return tuple(p if p.ndim else float(p) for p in parts)

    def sound_speed(self, rho):
        """c(rho) = sqrt(P'(rho)), rho > 0."""
        return np.sqrt(self._pressure_parts(self._check_pos(rho), 1)[1])

    def k_integral(self, rho):
        """K(rho) = int_0^rho sqrt(P'(y))/y dy.

        Equals rho**theta exactly for the scaled polytropic law.
        """
        return self._k_integral(self._check_nonneg(rho))

    def _k_integral(self, rho):
        if self.is_polytropic:
            th = self.theta1
            return np.sqrt(self.kappa1 * self.gamma1) / th * rho**th
        return self._regimes(
            rho, self._near_law._k_integral, self._k_fit, self._far_law._k_integral
        )

    def internal_energy(self, rho):
        """e(rho) with rho**2 e' = P, e(0) = 0."""
        return self._internal_energy(self._check_nonneg(rho))

    def _internal_energy(self, rho):
        if self.is_polytropic:
            g = self.gamma
            return self.kappa / (g - 1.0) * rho ** (g - 1.0)
        return self._regimes(
            rho,
            self._near_law._internal_energy,
            self._e_fit,
            self._far_law._internal_energy,
        )

    def rho_e_prime(self, rho):
        """(rho e(rho))' = e(rho) + P(rho)/rho, rho > 0."""
        rho = self._check_pos(rho)
        return self.internal_energy(rho) + self.pressure(rho) / rho

    def relative_internal_energy(self, rho, rho_inf):
        """e*(rho, rho_inf): Bregman gap of the convex function rho*e(rho)."""
        rho = self._check_nonneg(rho)
        if not 0.0 < rho_inf < np.inf:  # written so that a NaN fails it
            raise DomainError(f"rho_inf must be positive and finite, got {rho_inf}")
        constants = self._bregman.get(rho_inf)
        if constants is None:
            e_inf = self.internal_energy(rho_inf)
            base = rho_inf * e_inf
            slope = e_inf + self.pressure(rho_inf) / rho_inf  # (rho e)' at rho_inf
            constants = self._bregman[rho_inf] = base, slope
        base, slope = constants
        return rho * self._internal_energy(rho) - base - slope * (rho - rho_inf)

    def high_order_potential(self, rho):
        """g(rho) with g'' = 2 P' e / rho and g(0) = g'(0) = 0."""
        return self._high_order_potential(self._check_nonneg(rho))

    def _high_order_potential(self, rho):
        if self.is_polytropic:
            g, k = self.gamma, self.kappa
            c = 2.0 * k**2 * g / (g - 1.0)
            return c / ((2.0 * g - 2.0) * (2.0 * g - 1.0)) * rho ** (2.0 * g - 1.0)
        # above rho_hi, g' = g'(hi) + 2 gamma2 C (e_far - e_far(hi)) + the far
        # law's g' - g'(hi) (see dhigh_order_potential); integrate it once more
        far, hi, C = self._far_law, self.rho_hi, self._e_offset
        slope = (
            self._gp_fit.top
            - 2.0 * self.gamma2 * C * far.internal_energy(hi)
            - far.dhigh_order_potential(hi)
        )
        return self._regimes(
            rho,
            self._near_law._high_order_potential,
            self._g_fit,
            far._high_order_potential,
            lambda r: slope * (r - hi)
            + 2.0 * C / (self.gamma2 - 1.0) * (far.pressure(r) - far.pressure(hi)),
        )

    def dhigh_order_potential(self, rho):
        """g'(rho) = int_0^rho 2 P'(y) e(y) / y dy."""
        return self._dhigh_order_potential(self._check_nonneg(rho))

    def _dhigh_order_potential(self, rho):
        if self.is_polytropic:
            g, k = self.gamma, self.kappa
            c = 2.0 * k**2 * g / (g - 1.0)
            return c / (2.0 * g - 2.0) * rho ** (2.0 * g - 2.0)
        # above rho_hi, e = C + e_far, so g'' = 2 P' e / y is the far law's
        # g'' plus 2 gamma2 C e_far'
        far, hi = self._far_law, self.rho_hi
        A = 2.0 * self.gamma2 * self._e_offset
        return self._regimes(
            rho,
            self._near_law._dhigh_order_potential,
            self._gp_fit,
            far._dhigh_order_potential,
            lambda r: A * (far._internal_energy(r) - far._internal_energy(hi)),
        )

    # -- composite-law regimes -----------------------------------------------

    def _regimes(self, rho, near, fit, far, extra=None):
        """A composite-law quantity of a checked rho >= 0: the near (gamma1)
        power law's value on [0, rho_lo], the window fit inside (rho_lo,
        rho_hi), and on [rho_hi, inf) the fit's value at rho_hi plus the far
        (gamma2) power law's change from rho_hi, plus extra(rho) where that
        is not all of it.  Each regime is evaluated only on its own points;
        near, far and extra are unchecked.  A number gives a float, the
        value of the same number in an array."""
        rho = np.asarray(rho, dtype=float)
        if not rho.ndim:  # one number: the bits of a 1-element array
            return float(self._regimes(rho[None], near, fit, far, extra)[0])
        out = np.empty_like(rho)
        below = rho <= self.rho_lo
        inside = (rho > self.rho_lo) & (rho < self.rho_hi)
        above = ~(below | inside)
        if below.any():
            out[below] = near(rho[below])
        if above.any():
            r = rho[above]
            tail = fit.top + far(r) - far(self.rho_hi)
            out[above] = tail if extra is None else tail + extra(r)
        if inside.any():
            out[inside] = fit(rho[inside])
        return out

    @cached_property
    def _near_law(self):
        """The pure power law P = kappa1 rho**gamma1 below rho_lo."""
        return PressureLaw.polytropic(self.gamma1, self.kappa1)

    @cached_property
    def _far_law(self):
        """The pure power law P = kappa2 rho**gamma2 above rho_hi."""
        return PressureLaw.polytropic(self.gamma2, self.kappa2)

    @cached_property
    def _e_offset(self):
        """C with e = C + e_far above rho_hi."""
        return self._e_fit.top - self._far_law.internal_energy(self.rho_hi)

    def _window_fit(self, integrand, near, edges=None):
        """Window fit of the quantity the near-law method `near` gives below
        rho_lo, its cells starting from edges (see _WindowFit)."""
        return _WindowFit(
            integrand, self.rho_lo, self.rho_hi, near(self.rho_lo), near.__name__, edges
        )

    @cached_property
    def _e_fit(self):
        return self._window_fit(
            lambda y: self.pressure(y) / y**2,
            self._near_law.internal_energy,
        )

    @cached_property
    def _k_fit(self):
        return self._window_fit(
            lambda y: np.sqrt(self.dpressure(y)) / y,
            self._near_law.k_integral,
        )

    # the g' integrand reads e, and the g integrand g', through that fit's
    # table, starting from its cell edges: each cell sees one polynomial

    @cached_property
    def _gp_fit(self):
        e = self._e_fit
        return self._window_fit(
            lambda y: 2.0 * self.dpressure(y) * e(y) / y,
            self._near_law.dhigh_order_potential,
            e.edges,
        )

    @cached_property
    def _g_fit(self):
        gp = self._gp_fit
        return self._window_fit(gp, self._near_law.high_order_potential, gp.edges)

    # -- empirical bound checks --------------------------------------------

    @np.errstate(over="ignore", invalid="ignore")
    def verify_bounds(self, rho_samples, rho_inf: float = 1.0) -> BoundReport:
        """Empirically check the structural inequalities of the law.

        Returns, per inequality, the tightest constants observed over the
        sample set.  Violations are report entries, never exceptions or
        warnings: a law too steep for the samples overflows unwarned, and
        a ratio that is not finite fails its check.
        """
        rho = np.asarray(rho_samples, dtype=float)
        if rho.size == 0:
            return BoundReport(())
        rho = rho[rho > 0.0]
        checks = []

        def ratio_check(name, num, den, positive=True):
            mask = den > 0.0
            if not mask.any():
                return
            r = num[mask] / den[mask]
            ok = bool(np.all(np.isfinite(r)) and (not positive or np.all(r > 0.0)))
            checks.append(BoundCheck(name, float(r.min()), float(r.max()), ok))

        P, Pp, Ppp = self._pressure_parts(rho, 2)
        e = self.internal_energy(rho)
        K = self.k_integral(rho)
        estar = self.relative_internal_energy(rho, rho_inf)

        gnl = 2.0 * Pp + rho * Ppp
        checks.append(
            BoundCheck(
                "strict-hyperbolicity P'>0",
                float(Pp.min()),
                float(Pp.max()),
                bool(np.all(Pp > 0.0)),
            )
        )
        checks.append(
            BoundCheck(
                "genuine-nonlinearity 2P'+rho P''>0",
                float(gnl.min()),
                float(gnl.max()),
                bool(np.all(gnl > 0.0)),
            )
        )

        # Power-regime comparisons: exponent gamma1 below, gamma2 above.
        if self.is_polytropic:
            regimes = [("", np.ones_like(rho, dtype=bool), self.gamma1)]
        else:
            regimes = [
                ("-vacuum", rho <= self.rho_lo, self.gamma1),
                ("-infinity", rho >= self.rho_hi, self.gamma2),
            ]
        for tag, mask, g in regimes:
            if not mask.any():
                continue
            th = 0.5 * (g - 1.0)
            ratio_check(f"pressure-vs-power{tag}", P[mask], rho[mask] ** g)
            ratio_check(
                f"internal-energy-vs-power{tag}", e[mask], rho[mask] ** (g - 1.0)
            )
            ratio_check(f"wave-integral-vs-power{tag}", K[mask], rho[mask] ** th)
            ratio_check(
                f"relative-energy-lower{tag}",
                estar[mask],
                rho[mask] * (rho[mask] ** th - rho_inf**th) ** 2,
            )
            ratio_check(
                f"density-control-by-relative-energy{tag}",
                rho[mask] ** g,
                estar[mask] + rho_inf**g,
            )
        return BoundReport(tuple(checks))

    # -- small utilities ---------------------------------------------------

    @staticmethod
    def _check_nonneg(rho):
        arr = np.asarray(rho, dtype=float)
        if np.any(arr < 0.0):
            raise DomainError("density must be nonnegative")
        return arr if arr.ndim else float(arr)

    @staticmethod
    def _check_pos(rho):
        arr = np.asarray(rho, dtype=float)
        if np.any(arr <= 0.0):
            raise DomainError("density must be strictly positive")
        return arr if arr.ndim else float(arr)


# The one block size: every walk over blocks of states, steps, atoms or
# split pieces takes blocks of at most BLOCK_POINTS points (one row at
# least), through _blocks.  A float64 array of it is 64 KB, under malloc's
# mmap threshold, so that a block's temporaries reuse freed heap pages
BLOCK_POINTS = 2**13


def _blocks(count: int, points: int) -> list:
    """Slices of count rows of `points` points each, in blocks of
    max(1, BLOCK_POINTS // points) rows, each clipped at count; the first
    block's stop is the rows a block holds.  BLOCK_POINTS is read at call
    time; map makes the slices, where a comprehension's frame would be one
    more Python call per walk."""
    starts = range(0, count, max(1, BLOCK_POINTS // points))
    return list(map(slice, starts, (*starts[1:], count)))


class StateFields:
    """The law's pointwise pass over states (rho, m), and the lab's one
    vacuum rule: where rho = 0, u = 0, 1/rho counts as 0 and every energy
    density is 0.  Every functional of a state reads it rather than mask a
    vacuum itself: the solver's step (the CFL guard and the flux), the
    noise's Gamma_H indicator and growth check, the mechanical and
    high-order energies and the diagnostics' energy balance and moments.
    simulate writes a state's u and P' into a block of states, whose
    fields, made by recorded(), the relative energy and the dissipation
    read.

    pos is rho > 0, or None when every rho > 0 (as the density floor
    guard makes every stepped state when the floor is positive); rp is rho
    where positive and 1 elsewhere, safe to divide by; u is m / rho, 0 on
    vacuum; P and dP are P(rho) and P'(rho).  Readers mask a vacuum
    through masked(), which does nothing when pos is None: the values are
    those of the masked formulas, bit for bit.

    The density takes one sign test: a float array with rho.min() > 0 is
    checked and unmasked by it, and goes straight to (P, P').  Anything
    else (a zero, a negative or a NaN density, an empty array, or a list,
    number or other dtype, converted to a float array) is checked by
    (P, P'), DomainError for a negative, and then masked.
    """

    __slots__ = ("P", "dP", "pos", "rp", "u")

    def __init__(self, law: PressureLaw, rho: np.ndarray, m: np.ndarray):
        if (
            type(rho) is np.ndarray
            and rho.dtype == float
            and rho.ndim
            and rho.size
            and rho.min() > 0.0
        ):
            self.P, self.dP = law._pressure_parts(rho, 1)
            self.pos, self.rp, self.u = None, rho, m / rho
            return
        rho, m = np.asarray(rho, dtype=float), np.asarray(m, dtype=float)
        self.P, self.dP = law.pressure_pair(rho)
        self._mask(rho)
        self.u = m / rho if self.pos is None else np.where(self.pos, m / self.rp, 0.0)

    @classmethod
    def recorded(cls, rho, u, dP) -> "StateFields":
        """The fields of states whose own passes made u and P' (and checked
        rho), laid out like rho; P is None."""
        fields = cls.__new__(cls)
        fields._mask(rho)
        fields.P, fields.dP, fields.u = None, dP, u
        return fields

    def _mask(self, rho):
        pos = rho > 0.0
        if pos.all():
            self.pos, self.rp = None, rho
        else:
            self.pos, self.rp = pos, np.where(pos, rho, 1.0)

    def masked(self, values, fill=0.0):
        """values where rho > 0 and fill on vacuum."""
        return values if self.pos is None else np.where(self.pos, values, fill)
