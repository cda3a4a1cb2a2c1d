"""Pressure-law closed forms, quadrature cross-checks, and bound reports."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dct
from scipy.integrate import IntegrationWarning, quad

from svvlab import pressure
from svvlab.errors import ConfigError, DomainError, NumericalError
from svvlab.pressure import PressureLaw, _ChebPiece, _WindowFit, default_kappa


@pytest.fixture(scope="module")
def law2():
    return PressureLaw.polytropic(2.0)  # scaled kappa = 1/8


@pytest.fixture(scope="module")
def comp():
    return PressureLaw.composite(
        gamma1=2.2, gamma2=1.6, kappa1=0.15, kappa2=0.2, rho_lo=1.0, rho_hi=2.5
    )


class TestPressure:
    def test_scaled_kappa_gamma2(self, law2):
        assert law2.kappa == pytest.approx(0.125, abs=0)
        assert law2.pressure(1.0) == pytest.approx(0.125)
        assert law2.pressure(2.0) == pytest.approx(0.5)

    def test_vacuum(self, law2, comp):
        assert law2.pressure(0.0) == 0.0
        assert comp.pressure(0.0) == 0.0

    def test_negative_density_rejected(self, law2):
        with pytest.raises(DomainError):
            law2.pressure(-1.0)

    def test_strictly_increasing(self, comp):
        rho = np.linspace(0.01, 10.0, 400)
        assert np.all(np.diff(comp.pressure(rho)) > 0)


class TestSoundSpeed:
    def test_values(self, law2):
        assert law2.sound_speed(1.0) == pytest.approx(0.5)
        assert law2.sound_speed(4.0) == pytest.approx(1.0)

    def test_vacuum_limit(self, law2):
        rho = np.geomspace(1e-8, 1e-2, 10)
        c = law2.sound_speed(rho)
        assert np.all(np.diff(c) > 0) and c[0] < 1e-4

    def test_nonpositive_rejected(self, law2):
        with pytest.raises(DomainError):
            law2.sound_speed(0.0)


class TestKIntegral:
    def test_closed_forms(self, law2):
        assert law2.k_integral(4.0) == pytest.approx(2.0)
        assert law2.k_integral(0.0) == 0.0
        law14 = PressureLaw.polytropic(1.4)
        assert law14.k_integral(1.0) == pytest.approx(1.0)

    def test_matches_quadrature(self, law2):
        from scipy.integrate import quad

        for rho in (0.3, 1.7, 6.0):
            ref, _ = quad(
                lambda y: np.sqrt(law2.dpressure(y)) / y, 0.0, rho, limit=200
            )
            assert law2.k_integral(rho) == pytest.approx(ref, rel=1e-10)

    def test_composite_matches_quadrature(self, comp):
        from scipy.integrate import quad

        for rho in (0.5, 1.5, 3.0):
            # integrable vacuum endpoint handled by power-law closed form below rho_lo
            ref = comp.k_integral(0.5)
            part, _ = quad(
                lambda y: np.sqrt(comp.dpressure(y)) / y, 0.5, rho, limit=200
            )
            assert comp.k_integral(rho) == pytest.approx(ref + part, rel=1e-9)


class TestInternalEnergy:
    def test_closed_forms(self, law2):
        assert law2.internal_energy(1.0) == pytest.approx(0.125)
        assert law2.internal_energy(0.0) == 0.0
        kappa = 0.4**2 / 5.6
        law14 = PressureLaw.polytropic(1.4, kappa)
        assert law14.internal_energy(1.0) == pytest.approx(kappa / 0.4)

    def test_ode_residual(self, comp, law2):
        # rho^2 e'(rho) = P(rho), centered finite differences
        for law in (law2, comp):
            rho = np.linspace(0.1, 10.0, 120)
            h = 1e-6
            de = (law.internal_energy(rho + h) - law.internal_energy(rho - h)) / (2 * h)
            assert np.max(np.abs(rho**2 * de - law.pressure(rho)) / law.pressure(rho)) < 1e-6


class TestRelativeInternalEnergy:
    def test_values(self, law2):
        assert law2.relative_internal_energy(1.0, 1.0) == 0.0
        assert law2.relative_internal_energy(2.0, 1.0) == pytest.approx(0.125)
        assert law2.relative_internal_energy(0.0, 1.0) == pytest.approx(0.125)

    @given(
        rho=st.floats(0.0, 50.0),
        rho_inf=st.floats(0.01, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, rho, rho_inf):
        law = PressureLaw.polytropic(2.0)
        v = law.relative_internal_energy(rho, rho_inf)
        assert v >= -1e-15
        if abs(rho - rho_inf) > 1e-6:
            assert v > 0.0


    def test_far_field_constants_evaluated_once(self, monkeypatch):
        law = PressureLaw.composite(2.0, 1.6, 0.125, 0.15, 0.9, 1.4)
        rho = np.linspace(0.5, 2.0, 257)
        e_inf = law.internal_energy(1.2)
        expect = (
            rho * law.internal_energy(rho)
            - 1.2 * e_inf
            - (e_inf + law.pressure(1.2) / 1.2) * (rho - 1.2)
        )
        scalar_calls = []
        energy = PressureLaw.internal_energy

        def counted(self, r):
            if self is law and np.ndim(r) == 0:
                scalar_calls.append(r)
            return energy(self, r)

        monkeypatch.setattr(PressureLaw, "internal_energy", counted)
        first = law.relative_internal_energy(rho, 1.2)
        second = law.relative_internal_energy(rho, 1.2)
        assert scalar_calls == [1.2]
        assert np.array_equal(first, expect) and np.array_equal(second, expect)
        law.relative_internal_energy(rho, 0.8)  # another far field: its own constants
        assert scalar_calls == [1.2, 0.8]


class TestHighOrderPotential:
    def test_closed_forms(self, law2):
        assert law2.high_order_potential(2.0) == pytest.approx(1.0 / 12.0)
        assert law2.high_order_potential(0.0) == 0.0
        assert law2.high_order_potential(1.0) == pytest.approx(1.0 / 96.0)

    def test_second_derivative(self, law2, comp):
        # g''(rho) = 2 P'(rho) e(rho) / rho, centered finite differences
        for law in (law2, comp):
            for rho in np.linspace(0.5, 5.0, 12):
                h = 1e-4
                g2 = (
                    law.high_order_potential(rho + h)
                    - 2 * law.high_order_potential(rho)
                    + law.high_order_potential(rho - h)
                ) / h**2
                ref = 2.0 * law.dpressure(rho) * law.internal_energy(rho) / rho
                assert g2 == pytest.approx(ref, rel=1e-5, abs=1e-6)


class TestVerifyBounds:
    def test_gamma_law_all_pass(self, law2):
        report = law2.verify_bounds(np.geomspace(0.01, 100.0, 64))
        assert bool(report)
        assert all(c.satisfied for c in report)

    def test_empty_samples(self, law2):
        report = law2.verify_bounds(np.array([]))
        assert len(report) == 0

    def test_relative_energy_constant(self, law2):
        # e*(2, 1) >= C rho (rho^theta - rho_inf^theta)^2 with the best C
        C_max = 0.125 / (2.0 * (np.sqrt(2.0) - 1.0) ** 2)
        e_star = law2.relative_internal_energy(2.0, 1.0)
        lhs = e_star / (2.0 * (2.0**0.5 - 1.0) ** 2)
        assert lhs == pytest.approx(C_max)
        assert e_star >= 0.99 * C_max * 2.0 * (2.0**0.5 - 1.0) ** 2


class TestHyperbolicity:
    def test_genuine_nonlinearity(self, law2, comp):
        rho = np.geomspace(0.01, 50.0, 300)
        for law in (law2, comp):
            assert np.all(law.dpressure(rho) > 0)
            assert np.all(2.0 * law.dpressure(rho) + rho * law.d2pressure(rho) > 0)


class TestComposite:
    def test_reduces_to_power_laws_outside_blend(self, comp):
        rho_low = np.linspace(0.05, comp.rho_lo, 20)
        rho_high = np.linspace(comp.rho_hi, 8.0, 20)
        assert np.allclose(comp.pressure(rho_low), comp.kappa1 * rho_low**comp.gamma1)
        assert np.allclose(comp.pressure(rho_high), comp.kappa2 * rho_high**comp.gamma2)

    def test_exponent_order_enforced(self):
        with pytest.raises(ConfigError):
            PressureLaw.composite(
                gamma1=1.4, gamma2=2.0, kappa1=1.0, kappa2=1.0, rho_lo=1.0, rho_hi=2.0
            )
        with pytest.raises(ConfigError):
            PressureLaw.composite(
                gamma1=2.0, gamma2=1.4, kappa1=1.0, kappa2=1.0, rho_lo=2.0, rho_hi=1.0
            )

    def test_blend_smoothness(self, comp):
        # C^2 at least: second differences of P stay bounded through the blend
        rho = np.linspace(0.8, 2.2, 2001)
        d2 = np.diff(comp.pressure(rho), 2)
        assert np.all(np.isfinite(d2))
        assert np.max(np.abs(np.diff(d2))) < 1e-4


def test_default_kappa():
    assert default_kappa(2.0) == pytest.approx(0.125)
    assert default_kappa(1.4) == pytest.approx(0.4**2 / 5.6)


# ---------------------------------------------------------------------------
# composite-law window fits against the adaptive-quadrature oracle
# ---------------------------------------------------------------------------

# The per-point quadratures the composite law used before its Chebyshev
# window fits, with a tighter tolerance and a break point at rho_hi (without
# it, quad steps over a narrow blend window and K(2) of the "narrow-window"
# law comes out 0.3% low): each is exact in closed form below rho_lo and
# integrates from rho_lo above it.  The g' and g oracles use the law's own
# e, which the e oracle pins.


def _quad(f, law, rho):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            f,
            law.rho_lo,
            rho,
            points=[law.rho_hi] if rho > law.rho_hi else None,
            epsabs=0.0,
            epsrel=1e-13,
            limit=400,
        )
    return val


def _k_oracle(law, rho):
    th1 = law.theta1
    pref = np.sqrt(law.kappa1 * law.gamma1) / th1
    if rho <= law.rho_lo:
        return pref * rho**th1
    return pref * law.rho_lo**th1 + _quad(
        lambda y: np.sqrt(law.dpressure(y)) / y, law, rho
    )


def _e_oracle(law, rho):
    g1 = law.gamma1
    if rho <= law.rho_lo:
        return law.kappa1 / (g1 - 1.0) * rho ** (g1 - 1.0)
    return law.kappa1 / (g1 - 1.0) * law.rho_lo ** (g1 - 1.0) + _quad(
        lambda y: law.pressure(y) / y**2, law, rho
    )


def _gp_oracle(law, rho):
    g1 = law.gamma1
    c = 2.0 * law.kappa1**2 * g1 / (g1 - 1.0)
    a = min(rho, law.rho_lo)
    part = c / (2.0 * g1 - 2.0) * a ** (2.0 * g1 - 2.0)
    if rho <= law.rho_lo:
        return part
    return part + _quad(
        lambda y: 2.0 * law.dpressure(y) * law.internal_energy(y) / y, law, rho
    )


def _g_oracle(law, rho):
    # g(rho) = int_0^rho (rho - y) g''(y) dy
    g1 = law.gamma1
    c = 2.0 * law.kappa1**2 * g1 / (g1 - 1.0)  # g'' = c y^(2 g1 - 3) below rho_lo
    a = min(rho, law.rho_lo)
    p = 2.0 * g1 - 2.0
    part = c * (rho * a**p / p - a ** (p + 1.0) / (p + 1.0))
    if rho <= law.rho_lo:
        return part
    return part + _quad(
        lambda y: (rho - y) * 2.0 * law.dpressure(y) * law.internal_energy(y) / y, law, rho
    )


QUANTITIES = {
    "internal_energy": _e_oracle,
    "k_integral": _k_oracle,
    "dhigh_order_potential": _gp_oracle,
    "high_order_potential": _g_oracle,
}

LAWS = {
    "fixture": (2.2, 1.6, 0.15, 0.2, 1.0, 2.5),
    "composite-workload": (2.0, 1.6, 0.125, 0.15, 0.9, 1.4),
    "wide-window": (2.0, 1.6, 0.125, 0.15, 0.2, 5.0),
    # the blend's t = (rho - rho_lo) / (rho_hi - rho_lo) is sampled with
    # rounding 1e-13, so K and g' stop at the noise floor of their samples
    "narrow-window": (2.0, 1.6, 0.125, 0.15, 1.0, 1.001),
}


def _oracle_points(lo, hi):
    near = [lo, hi, lo - 5e-13, lo + 5e-13, hi - 5e-13, hi + 5e-13]
    return np.concatenate([np.geomspace(1e-6, 1e3, 31), near, np.linspace(lo, hi, 17)])


def scipy_integrand_series(f, a, b, floor, name):
    """pressure._integrand_series with scipy's DCT-II: its oracle."""
    n = 16
    while n < pressure._PIECE_MAX_NODES:
        n *= 2
        x = np.cos(np.pi * (np.arange(n) + 0.5) / n)
        y = np.exp(0.5 * (b - a) * (x + 1.0) + a)
        c = dct(f(y) * y, type=2) / n
        c[0] *= 0.5
        if not np.all(np.isfinite(c)):
            raise NumericalError(f"{name}: non-finite integrand on the blend window")
        tail = np.abs(c[-n // 8 :]).max() / np.abs(c).max()
        if tail <= pressure._FIT_TOL or (n == pressure._PIECE_MAX_NODES and tail <= floor):
            return c
    return None


# ---------------------------------------------------------------------------
# P, P', P'' and the blend's smoothstep against one function per order
# ---------------------------------------------------------------------------

# The smoothstep and its two derivatives as separate functions, each with
# its own masks and exponentials: the oracles of pressure._smoothstep.


def smoothstep_value(t):
    t = np.asarray(t, dtype=float)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.zeros_like(t)
    out[hi] = 1.0
    tm = t[mid]
    f = np.exp(-1.0 / tm)
    g = np.exp(-1.0 / (1.0 - tm))
    out[mid] = f / (f + g)
    return out


def _smoothstep_d1(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    f = np.exp(-1.0 / tm)
    g = np.exp(-1.0 / (1.0 - tm))
    fp = f / tm**2
    gp = -g / (1.0 - tm) ** 2
    out[mid] = (fp * g - f * gp) / (f + g) ** 2
    return out


def _smoothstep_d2(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    f = np.exp(-1.0 / tm)
    g = np.exp(-1.0 / (1.0 - tm))
    fp = f / tm**2
    gp = -g / (1.0 - tm) ** 2
    fpp = f * (1.0 - 2.0 * tm) / tm**4
    gpp = g * (1.0 - 2.0 * (1.0 - tm)) / (1.0 - tm) ** 4
    s = f + g
    num1 = (fpp * g - f * gpp) * s
    num2 = 2.0 * (fp * g - f * gp) * (fp + gp)
    out[mid] = (num1 - num2) / s**3
    return out


def _logP_oracle(law, rho):
    """(L, L', L'') of log P of a composite law at rho > 0, from the
    separate smoothstep functions."""
    rho = np.asarray(rho, dtype=float)
    L1 = np.log(law.kappa1) + law.gamma1 * np.log(rho)
    L2 = np.log(law.kappa2) + law.gamma2 * np.log(rho)
    d = law.rho_hi - law.rho_lo
    t = (rho - law.rho_lo) / d
    w, wp, wpp = smoothstep_value(t), _smoothstep_d1(t) / d, _smoothstep_d2(t) / d**2
    dL1, dL2 = law.gamma1 / rho, law.gamma2 / rho
    d2L1, d2L2 = -law.gamma1 / rho**2, -law.gamma2 / rho**2
    L = (1.0 - w) * L1 + w * L2
    Lp = (1.0 - w) * dL1 + w * dL2 + wp * (L2 - L1)
    Lpp = (1.0 - w) * d2L1 + w * d2L2 + 2.0 * wp * (dL2 - dL1) + wpp * (L2 - L1)
    return L, Lp, Lpp


def _pressure_oracle(law, rho):
    """(P, P') at rho >= 0, each from its own evaluation."""
    if law.is_polytropic:
        return law.kappa * rho**law.gamma, law.kappa * law.gamma * rho ** (law.gamma - 1.0)
    safe = np.where(rho > 0.0, rho, 1.0)
    P = np.where(rho > 0.0, np.exp(_logP_oracle(law, safe)[0]), 0.0)
    L, Lp, _ = _logP_oracle(law, safe)
    dP = np.where(rho > 0.0, np.exp(L) * Lp, 0.0)
    return (P, dP) if P.ndim else (float(P), float(dP))


def _d2pressure_oracle(law, rho):
    """P'' at rho > 0."""
    if law.is_polytropic:
        g = law.gamma
        return law.kappa * g * (g - 1.0) * rho ** (g - 2.0)
    L, Lp, Lpp = _logP_oracle(law, rho)
    out = np.exp(L) * (Lpp + Lp**2)
    return out if np.ndim(out) else float(out)


class TestOneEvaluationPath:
    def test_smoothstep_orders_match_separate_functions(self):
        oracles = (smoothstep_value, _smoothstep_d1, _smoothstep_d2)
        t = np.concatenate(
            ([-2.0, -0.0, 0.0, 1.0, 2.0, 1e-2, 1.0 - 2**-53], np.linspace(-0.5, 1.5, 38))
        )
        for arg in (t, t.reshape(5, 9), *map(np.float64, t)):
            for order in range(3):
                parts = pressure._smoothstep(arg, order)
                assert len(parts) == order + 1
                for got, oracle in zip(parts, oracles):
                    want = oracle(arg)
                    assert got.shape == want.shape and np.array_equal(got, want)
        w, dw, d2w = pressure._smoothstep(np.array([0.0, 1.0]), 2)
        assert list(w) == [0.0, 1.0] and not dw.any() and not d2w.any()

    @pytest.mark.parametrize("law_name", ["gamma=1.4", "gamma=2", *sorted(LAWS)])
    def test_pressure_parts_match_separate_evaluations(self, law_name):
        if law_name.startswith("gamma="):
            law = PressureLaw.polytropic(float(law_name[6:]))
            rho = np.concatenate(([0.0], np.geomspace(1e-6, 1e3, 31), [1.0]))
        else:
            law = PressureLaw.composite(*LAWS[law_name])
            rho = np.concatenate(([0.0], _oracle_points(law.rho_lo, law.rho_hi)))
        for arg in (rho, rho.reshape(-1, 11), *map(float, rho)):
            P, dP = _pressure_oracle(law, arg)
            for got, want in ((law.pressure(arg), P), (law.dpressure(arg), dP)):
                assert type(got) is type(want) and np.array_equal(got, want)
            pos = arg[arg > 0.0] if np.ndim(arg) else arg
            if np.ndim(pos) or pos > 0.0:
                got, want = law.d2pressure(pos), _d2pressure_oracle(law, pos)
                assert type(got) is type(want) and np.array_equal(got, want)

    def test_vacuum_scalars_skip_the_second_derivative(self):
        # for gamma < 2, P'' is singular at rho = 0: 0.0 ** -0.6 raises
        # ZeroDivisionError, so P and P' must not compute it
        law = PressureLaw.polytropic(1.4)
        assert law.pressure(0.0) == 0.0 and law.dpressure(0.0) == 0.0
        assert law.pressure_pair(0.0) == (0.0, 0.0)
        with pytest.raises(DomainError):
            law.d2pressure(0.0)
        with pytest.raises(DomainError):
            law.d2pressure(np.array([1.0, 0.0]))


FITS = ("_e_fit", "_k_fit", "_gp_fit", "_g_fit")


class TestCompositeWindowFits:
    @pytest.mark.parametrize("law_name", sorted(LAWS))
    def test_series_match_scipy_dct(self, law_name, monkeypatch):
        # every series the fits take, against scipy's DCT of the same
        # samples; the fits then have the pieces scipy's would have
        calls = []
        series = pressure._integrand_series

        def recorded(*args):
            calls.append((args, series(*args)))
            return calls[-1][1]

        monkeypatch.setattr(pressure, "_integrand_series", recorded)
        law = PressureLaw.composite(*LAWS[law_name])
        got = [[(p.a, p.top) for p in getattr(law, fit)._pieces] for fit in FITS]
        assert calls
        for args, c in calls:
            ref = scipy_integrand_series(*args)
            assert (c is None) == (ref is None)
            if ref is not None:
                assert c.size == ref.size
                assert np.max(np.abs(c - ref)) <= 1e-15 * np.max(np.abs(ref))
        monkeypatch.setattr(pressure, "_integrand_series", scipy_integrand_series)
        law = PressureLaw.composite(*LAWS[law_name])
        want = [[(p.a, p.top) for p in getattr(law, fit)._pieces] for fit in FITS]
        assert [len(p) for p in got] == [len(p) for p in want]
        for g, w in zip(got, want):
            assert [a for a, _ in g] == [a for a, _ in w]
            np.testing.assert_allclose([t for _, t in g], [t for _, t in w], rtol=1e-14)

    @pytest.mark.parametrize("law_name", sorted(LAWS))
    @pytest.mark.parametrize("quantity", sorted(QUANTITIES))
    def test_matches_quadrature_oracle(self, law_name, quantity):
        law = PressureLaw.composite(*LAWS[law_name])
        rho = _oracle_points(law.rho_lo, law.rho_hi)
        fast = getattr(law, quantity)(rho)
        ref = np.array([QUANTITIES[quantity](law, float(r)) for r in rho])
        rel = np.abs(fast - ref) / np.abs(ref)
        assert rel.max() <= 1e-12, (rho[np.argmax(rel)], rel.max())

    @pytest.mark.parametrize("law_name", sorted(LAWS))
    def test_regimes_on_their_own_points(self, law_name, monkeypatch):
        # each regime evaluated only on its own points, without the power
        # laws' input checks, gives the bits of both power laws evaluated,
        # checked, on every point; the fits are built afresh either way
        def every_point(law):
            rho = np.concatenate(([0.0], _oracle_points(law.rho_lo, law.rho_hi)))
            scalars = (0.0, law.rho_lo, 0.5 * (law.rho_lo + law.rho_hi), law.rho_hi, 3.0)
            out = []
            for quantity in sorted(QUANTITIES):
                f = getattr(law, quantity)
                out += [f(rho), f(rho.reshape(5, 11)), *map(f, scalars)]
            return out + [law.relative_internal_energy(rho, 1.2)]

        def checked_regimes(self, rho, near, fit, far, extra=None):
            near, far = (getattr(law, f.__name__.lstrip("_")) for law, f in (
                (self._near_law, near), (self._far_law, far)))
            rho = np.asarray(rho, dtype=float)
            above = fit.top + far(rho) - far(self.rho_hi)
            if extra is not None:
                above = above + extra(rho)
            out = np.where(rho <= self.rho_lo, near(rho), above)
            inside = (rho > self.rho_lo) & (rho < self.rho_hi)
            if inside.any():
                out[inside] = fit(rho[inside])
            return out if out.ndim else float(out)

        got = every_point(PressureLaw.composite(*LAWS[law_name]))
        monkeypatch.setattr(PressureLaw, "_regimes", checked_regimes)
        want = every_point(PressureLaw.composite(*LAWS[law_name]))
        for g, w in zip(got, want):
            assert type(g) is type(w) and np.array_equal(g, w)

    @pytest.mark.parametrize("law_name", ["polytropic", *sorted(LAWS)])
    def test_pressure_pair(self, law_name):
        # P and P' from one check are pressure and dpressure, bitwise
        if law_name == "polytropic":
            law = PressureLaw.polytropic(1.4)
            rho = np.concatenate(([0.0], np.geomspace(1e-6, 1e3, 31), [0.0]))
        else:
            law = PressureLaw.composite(*LAWS[law_name])
            rho = np.concatenate(([0.0], _oracle_points(law.rho_lo, law.rho_hi)))
        rho = rho.reshape(-1, 11)
        P, dP = law.pressure_pair(rho)
        assert np.array_equal(P, law.pressure(rho))
        assert np.array_equal(dP, law.dpressure(rho))
        with pytest.raises(DomainError):
            law.pressure_pair(np.array([1.0, -1e-9]))

    @pytest.mark.parametrize("quantity", sorted(QUANTITIES))
    def test_shapes_and_domain(self, comp, quantity):
        f = getattr(comp, quantity)
        for r in (0.5, 1.7, 4.0):
            v = f(r)
            assert isinstance(v, float)
            assert v == f(np.array([r]))[0]
        rho = np.linspace(0.1, 5.0, 12).reshape(3, 4)
        assert f(rho).shape == (3, 4)
        assert f(0.0) == 0.0
        with pytest.raises(DomainError):
            f(-0.1)
        with pytest.raises(DomainError):
            f(np.array([1.0, -1e-9]))

    def test_g_derivatives(self, comp):
        # g' is the derivative of g; g'' = 2 P' e / rho
        rho = np.array([0.6, 1.3, 2.0, 3.5])
        h = 1e-5
        dg = (comp.high_order_potential(rho + h) - comp.high_order_potential(rho - h)) / (2 * h)
        assert np.allclose(dg, comp.dhigh_order_potential(rho), rtol=1e-8)
        d2g = (
            comp.dhigh_order_potential(rho + h) - comp.dhigh_order_potential(rho - h)
        ) / (2 * h)
        ref = 2.0 * comp.dpressure(rho) * comp.internal_energy(rho) / rho
        assert np.allclose(d2g, ref, rtol=1e-8)

    def test_fits_built_lazily(self, tmp_path):
        from svvlab.config import load_config

        law = PressureLaw.composite(*LAWS["composite-workload"])
        fits = ("_e_fit", "_k_fit", "_gp_fit", "_g_fit")
        assert not any(name in law.__dict__ for name in fits)
        law.internal_energy(1.0)
        assert "_e_fit" in law.__dict__ and "_k_fit" not in law.__dict__

        p = tmp_path / "run.yaml"
        g1, g2, k1, k2, lo, hi = LAWS["composite-workload"]
        p.write_text(
            "law: {kind: composite, gamma1: %r, gamma2: %r, kappa1: %r, kappa2: %r,"
            " rho_lo: %r, rho_hi: %r}\n" % (g1, g2, k1, k2, lo, hi)
        )
        cfg = load_config(str(p))
        assert not any(name in cfg.law.__dict__ for name in fits)

    def test_value_on_a_chebyshev_node(self):
        # the barycentric formula would divide by zero exactly on a node; on
        # s in [-1, 1] the series variable is s itself
        piece = _ChebPiece(np.array([1.0, 0.5, 0.25]), -1.0, 1.0, 2.0)
        s = np.concatenate([piece._nodes, [-1.0, 0.3, 1.0]])
        # int_{-1}^s (1 + 0.5 T1 + 0.25 T2) = s + 1 + (s^2 - 1)/4 + (s^3/3 - s/2 - 1/6)/2
        ref = 2.0 + s + 1.0 + (s**2 - 1.0) / 4.0 + (s**3 / 3.0 - s / 2.0 - 1.0 / 6.0) / 2.0
        assert np.allclose(piece(s), ref, rtol=1e-15, atol=1e-15)

    def test_unconverged_fit_raises(self):
        with pytest.raises(NumericalError):
            _WindowFit(lambda y: np.abs(y - 1.5), 1.0, 2.0, 0.0, "kinked")


class TestCompositeHyperbolicity:
    def test_non_hyperbolic_blend_rejected(self):
        # P' is about -32 near rho = 19 inside the window
        with pytest.raises(ConfigError, match="hyperbolic"):
            PressureLaw.composite(2.9, 1.05, 0.3, 0.05, 0.01, 50.0)

    def test_verify_bounds_unchanged(self, comp):
        # the report of the per-point quadrature implementation
        expected = [
            ("strict-hyperbolicity P'>0", 8.289225223981593e-05, 3.3460465682920755),
            ("genuine-nonlinearity 2P'+rho P''>0", 0.00026525520716741093, 8.699721077559396),
            ("pressure-vs-power-vacuum", 0.14999999999999977, 0.1500000000000002),
            ("internal-energy-vs-power-vacuum", 0.12499999999999996, 0.12499999999999999),
            ("wave-integral-vs-power-vacuum", 0.9574271077563378, 0.9574271077563381),
            ("relative-energy-lower-vacuum", 0.46777878818186613, 154.58625515578723),
            (
                "density-control-by-relative-energy-vacuum",
                2.184771456575142e-07,
                0.9194772585059435,
            ),
            ("pressure-vs-power-infinity", 0.1999999999999999, 0.20000000000000015),
            ("internal-energy-vs-power-infinity", 0.21201131152203673, 0.31228808671457264),
            ("wave-integral-vs-power-infinity", 1.2180172192146275, 1.607567327210246),
            ("relative-energy-lower-infinity", 0.5999864658914815, 1.3733214807759668),
            (
                "density-control-by-relative-energy-infinity",
                3.3850134766357427,
                4.352038730185435,
            ),
        ]
        report = comp.verify_bounds(np.geomspace(1e-3, 50.0, 64), 1.0)
        assert [c.name for c in report] == [name for name, _, _ in expected]
        assert all(c.satisfied for c in report)
        for c, (_, lo, hi) in zip(report, expected):
            assert c.ratio_min == pytest.approx(lo, rel=1e-10)
            assert c.ratio_max == pytest.approx(hi, rel=1e-10)
