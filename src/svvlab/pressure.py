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
below rho_lo, a Chebyshev model of the integral from rho_lo on the blend
window (evaluated only on the points inside it), and a closed-form tail
above rho_hi, where P = kappa2 rho**gamma2 exactly.  The models are built
lazily, on first use, by _WindowFit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev

from .errors import ConfigError, DomainError, NumericalError

# A piece of a window fit has converged when its trailing Chebyshev
# coefficients fall below _FIT_TOL times the largest.  Its node count
# doubles up to _PIECE_MAX_NODES, where the rounding floor of the sampled
# integrand is accepted instead; a piece that has not converged by then, or
# whose value grows by more than _PIECE_GROWTH, is halved, up to
# _MAX_SPLITS times.
_FIT_TOL = 1e-15
_PIECE_MAX_NODES = 256
_PIECE_GROWTH = 4.0
_MAX_SPLITS = 20
# points of the blend window on which a composite law must have P' > 0
_HYPERBOLICITY_SAMPLES = 257


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
    tm = t[mid]
    f = np.exp(-1.0 / tm)
    g = np.exp(-1.0 / (1.0 - tm))
    s = f + g
    out[0][mid] = f / s
    if order >= 1:
        fp = f / tm**2
        gp = -g / (1.0 - tm) ** 2
        out[1][mid] = (fp * g - f * gp) / s**2
    if order >= 2:
        fpp = f * (1.0 - 2.0 * tm) / tm**4
        gpp = g * (1.0 - 2.0 * (1.0 - tm)) / (1.0 - tm) ** 4
        num1 = (fpp * g - f * gpp) * s
        num2 = 2.0 * (fp * g - f * gp) * (fp + gp)
        out[2][mid] = (num1 - num2) / s**3
    return tuple(out)


class _WindowFit:
    """base + int_lo^rho f(y) dy for rho in [lo, hi], piecewise Chebyshev.

    The pieces are built from lo upwards, each in s = log(rho), which keeps
    the vacuum singularity of the power laws away from the window.  A
    piece is halved, at most _MAX_SPLITS times, while its integrand series
    has not converged with _PIECE_MAX_NODES nodes or its value grows by more
    than _PIECE_GROWTH across it; the growth bound keeps rounding relative
    to the value.  Past that the fit raises NumericalError.  f must be
    vectorized; the integral must be positive and increasing.
    """

    def __init__(self, f, lo, hi, base, name):
        # the blend variable t = (rho - lo) / (hi - lo) carries a rounding
        # error of eps hi / (hi - lo), and so does every sample of f
        floor = max(100.0 * _FIT_TOL, 100.0 * np.finfo(float).eps * hi / (hi - lo))
        todo = [(np.log(lo), np.log(hi), 0)]
        self._pieces = []
        while todo:  # left to right, each piece starting from the last one's top
            a, b, splits = todo.pop()
            c = _integrand_series(f, a, b, floor, name)
            piece = None if c is None else _ChebPiece(c, a, b, base)
            if piece is None or piece.top > _PIECE_GROWTH * base:
                if splits == _MAX_SPLITS:
                    raise NumericalError(
                        f"{name}: Chebyshev fit near rho = {np.exp(a):.6g} did not "
                        f"converge on [{lo:g}, {hi:g}]"
                    )
                mid = 0.5 * (a + b)
                todo += [(mid, b, splits + 1), (a, mid, splits + 1)]
                continue
            self._pieces.append(piece)
            base = piece.top
        self._inner_edges = np.array([p.a for p in self._pieces[1:]])
        self.top = base  # the value at hi

    def __call__(self, rho):
        s = np.log(rho)
        out = np.empty_like(s)
        which = np.searchsorted(self._inner_edges, s)
        for i, piece in enumerate(self._pieces):
            mask = which == i
            if mask.any():
                out[mask] = piece(s[mask])
        return out


def _integrand_series(f, a, b, floor, name):
    """Chebyshev coefficients on [a, b] of f(e^s) e^s, or None.

    The integrand is sampled at n Chebyshev nodes and the coefficients come
    from one DCT-II, taken as one FFT of the samples reordered evens up,
    odds down (Makhoul).  n doubles until the trailing coefficients have
    decayed below _FIT_TOL, or below floor at _PIECE_MAX_NODES; None when
    they have not.
    """
    n = 16
    while n < _PIECE_MAX_NODES:
        n *= 2
        k = np.arange(n)
        x = np.cos(np.pi * (k + 0.5) / n)
        y = np.exp(0.5 * (b - a) * (x + 1.0) + a)
        g = f(y) * y
        c = np.fft.fft(np.concatenate((g[::2], g[::-2])))
        c = 2.0 * (np.exp(-0.5j * np.pi * k / n) * c).real / n
        c[0] *= 0.5
        if not np.all(np.isfinite(c)):
            raise NumericalError(f"{name}: non-finite integrand on the blend window")
        tail = np.abs(c[-n // 8 :]).max() / np.abs(c).max()
        if tail <= _FIT_TOL or (n == _PIECE_MAX_NODES and tail <= floor):
            return c
    return None


class _ChebPiece:
    """base + int_{e^a}^{e^s} f(y) dy for s in [a, b], from the Chebyshev
    coefficients c of f(e^s) e^s.

    The series is integrated term by term (Clenshaw-Curtis quadrature at
    every point at once) and evaluated by the barycentric formula on
    Chebyshev nodes, a few matrix products however many terms it has.
    """

    def __init__(self, c, a, b, base):
        coef = chebyshev.chebint(c, lbnd=-1.0, scl=0.5 * (b - a))
        coef[0] += base
        # drop the trailing terms whose sum is below rounding of the largest
        tail = np.cumsum(np.abs(coef[::-1]))[::-1]
        n = max(2, int(np.count_nonzero(tail > np.finfo(float).eps * np.abs(coef).max())))
        theta = np.pi * (np.arange(n) + 0.5) / n
        self._nodes = np.cos(theta)
        weights = np.where(np.arange(n) % 2, -1.0, 1.0) * np.sin(theta)
        values = chebyshev.chebval(self._nodes, coef[:n])
        self._weighted = np.stack([weights * values, weights], axis=1)
        self._values = values
        self.a = a
        self._mid = a + b
        self._width = b - a
        self.top = float(chebyshev.chebval(1.0, coef[:n]))

    def __call__(self, s):
        x = np.clip((2.0 * s - self._mid) / self._width, -1.0, 1.0)
        diff = np.subtract.outer(x, self._nodes)
        hit = diff == 0.0  # x on a node: the node's value, not 1/0
        diff[hit] = np.inf
        num, den = ((1.0 / diff) @ self._weighted).T
        out = num / den
        rows = hit.any(axis=1)
        out[rows] = self._values[hit[rows].argmax(axis=1)]
        return out


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
        if gamma <= 1.0:
            raise ConfigError(f"polytropic law needs gamma > 1, got {gamma}")
        if kappa is None:
            kappa = default_kappa(gamma)
        if kappa <= 0.0:
            raise ConfigError(f"kappa must be positive, got {kappa}")
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
        violations = []
        if not (1.0 < gamma2 <= gamma1 < 3.0):
            violations.append(
                f"composite law needs 1 < gamma2 <= gamma1 < 3, got ({gamma1}, {gamma2})"
            )
        if kappa1 <= 0.0 or kappa2 <= 0.0:
            violations.append("kappa1 and kappa2 must be positive")
        if not (0.0 < rho_lo < rho_hi):
            violations.append(
                f"blend window needs 0 < rho_lo < rho_hi, got ({rho_lo}, {rho_hi})"
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
                f"at rho = {rho[i]:.6g} in the blend window"
            )
        return law

    # -- basic properties --------------------------------------------------

    @property
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
        """Return (L, L', L'')[: order + 1] of log P for the composite law (rho > 0)."""
        rho = np.asarray(rho, dtype=float)
        L1 = np.log(self.kappa1) + self.gamma1 * np.log(rho)
        L2 = np.log(self.kappa2) + self.gamma2 * np.log(rho)
        d = self.rho_hi - self.rho_lo
        w, *dw = _smoothstep((rho - self.rho_lo) / d, order)
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
    # relative_internal_energy, the solver's pass over a state) call the
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
            k, g = self.kappa, self.gamma
            parts = [k * rho**g]
            if order >= 1:
                parts.append(k * g * rho ** (g - 1.0))
            if order >= 2:
                parts.append(k * g * (g - 1.0) * rho ** (g - 2.0))
            return tuple(parts)
        pos = rho > 0.0
        L, *dL = self._logP_parts(np.where(pos, rho, 1.0), order)
        P = np.exp(L)
        parts = [P]
        if order >= 1:
            parts.append(P * dL[0])
        if order >= 2:
            parts.append(P * (dL[1] + dL[0] ** 2))
        parts = [np.where(pos, p, 0.0) for p in parts]
        return tuple(p if p.ndim else float(p) for p in parts)

    def sound_speed(self, rho):
        """c(rho) = sqrt(P'(rho)), rho > 0."""
        rho = self._check_pos(rho)
        return np.sqrt(self.dpressure(rho))

    def k_integral(self, rho):
        """K(rho) = int_0^rho sqrt(P'(y))/y dy.

        Equals rho**theta exactly for the scaled polytropic law.
        """
        return self._k_integral(self._check_nonneg(rho))

    def _k_integral(self, rho):
        if self.is_polytropic:
            th = self.theta
            return np.sqrt(self.kappa * self.gamma) / th * rho**th
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
        if rho_inf <= 0.0:
            raise DomainError(f"rho_inf must be positive, got {rho_inf}")
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
        near, far and extra are unchecked."""
        rho = np.asarray(rho, dtype=float)
        if not rho.ndim:  # one number, which the power laws take as a float
            r = float(rho)
            if r <= self.rho_lo:
                return float(near(r))
            if r < self.rho_hi:
                return float(fit(rho[None])[0])
            tail = fit.top + far(r) - far(self.rho_hi)
            return float(tail if extra is None else tail + extra(r))
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

    def _window_fit(self, integrand, near):
        """Window fit of the quantity the near-law method `near` gives below rho_lo."""
        return _WindowFit(
            integrand, self.rho_lo, self.rho_hi, near(self.rho_lo), near.__name__
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

    @cached_property
    def _gp_fit(self):
        return self._window_fit(
            lambda y: 2.0 * self.dpressure(y) * self.internal_energy(y) / y,
            self._near_law.dhigh_order_potential,
        )

    @cached_property
    def _g_fit(self):
        return self._window_fit(
            self.dhigh_order_potential,
            self._near_law.high_order_potential,
        )

    # -- empirical bound checks --------------------------------------------

    def verify_bounds(self, rho_samples, rho_inf: float = 1.0) -> BoundReport:
        """Empirically check the structural inequalities of the law.

        Returns, per inequality, the tightest constants observed over the
        sample set.  Violations are report entries, never exceptions.
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
