"""Pressure-law closed forms, quadrature cross-checks, and bound reports."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev, polynomial
from scipy.fft import dct
from scipy.integrate import IntegrationWarning, quad

from svvlab import pressure
from svvlab.errors import ConfigError, DomainError, NumericalError
from svvlab.pressure import PressureLaw, StateFields, _WindowFit, default_kappa


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

    def test_negative_density_rejected(self, law2, comp):
        with pytest.raises(DomainError):
            law2.pressure(-1.0)
        # a NaN or infinite far-field density gave e* = nan without a word
        for law in (law2, comp):
            for rho_inf in (float("nan"), float("inf"), 0.0, -1.0):
                with pytest.raises(DomainError, match="rho_inf"):
                    law.relative_internal_energy(1.5, rho_inf)

    @pytest.mark.parametrize(
        "args, key",
        [
            ((float("nan"),), "gamma"),
            ((float("inf"),), "gamma"),
            ((2.0, float("nan")), "kappa"),
            ((2.0, float("inf")), "kappa"),
        ],
    )
    def test_non_finite_parameters_rejected(self, args, key):
        # a NaN gamma or kappa would give P = nan everywhere
        with pytest.raises(ConfigError, match=key):
            PressureLaw.polytropic(*args)

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

    def test_steep_law_fails_unwarned(self):
        # gamma 1e6 overflows P above density 1, which warned (an error
        # under the suite's filter); its ratios are not finite and fail
        report = PressureLaw.polytropic(1e6).verify_bounds(np.geomspace(1e-3, 50.0, 64))
        assert not report
        assert not next(c for c in report if c.name == "pressure-vs-power").satisfied

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

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"kappa1": float("nan")}, "kappa1"),
            ({"kappa2": float("inf")}, "kappa1"),
            ({"rho_hi": float("inf")}, "blend window"),
            ({"rho_lo": float("nan")}, "blend window"),
        ],
    )
    def test_non_finite_parameters_rejected(self, change, key):
        # named by their own check, not by the hyperbolicity check behind it
        args = dict(gamma1=2.0, gamma2=1.6, kappa1=0.125, kappa2=0.15, rho_lo=0.9, rho_hi=1.4)
        with pytest.raises(ConfigError, match=key) as exc:
            PressureLaw.composite(**{**args, **change})
        assert "hyperbolic" not in str(exc.value)

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

# The quadratures the composite law used before its window fits, with a
# tighter tolerance and a break point at rho_hi (without it, quad steps over
# a narrow blend window and K(2) of the "narrow-window" law comes out 0.3%
# low): each is exact in closed form below rho_lo and, above it, sums one
# quad per gap of the sorted points from rho_lo.  The g' and g oracles use
# the law's own e, which the e oracle pins.


def _quad(f, law, a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            f,
            a,
            b,
            points=[law.rho_hi] if a < law.rho_hi < b else None,
            epsabs=0.0,
            epsrel=1e-13,
            limit=400,
        )
    return val


def _cumulative(law, rho, near, f):
    """near(r) for r <= rho_lo, near(rho_lo) + int_rho_lo^r f above it."""
    out = np.empty_like(rho)
    p, value = law.rho_lo, near(law.rho_lo)
    for i in np.argsort(rho):
        r = rho[i]
        if r <= law.rho_lo:
            out[i] = near(r)
            continue
        value += _quad(f, law, p, r)
        out[i], p = value, r
    return out


def _k_oracle(law, rho):
    th1 = law.theta1
    pref = np.sqrt(law.kappa1 * law.gamma1) / th1
    return _cumulative(
        law, rho, lambda r: pref * r**th1, lambda y: np.sqrt(law.dpressure(y)) / y
    )


def _e_oracle(law, rho):
    g1 = law.gamma1
    return _cumulative(
        law,
        rho,
        lambda r: law.kappa1 / (g1 - 1.0) * r ** (g1 - 1.0),
        lambda y: law.pressure(y) / y**2,
    )


def _g_parts(law):
    """(g'' on the window, g' and g below rho_lo in closed form)."""
    g1 = law.gamma1
    c = 2.0 * law.kappa1**2 * g1 / (g1 - 1.0)  # g'' = c y^(2 g1 - 3) below rho_lo
    p = 2.0 * g1 - 2.0
    return (
        lambda y: 2.0 * law.dpressure(y) * law.internal_energy(y) / y,
        lambda r: c / p * r**p,
        lambda r: c / (p * (p + 1.0)) * r ** (p + 1.0),
    )


def _gp_oracle(law, rho):
    d2g, near_dg, _ = _g_parts(law)
    return _cumulative(law, rho, near_dg, d2g)


def _g_oracle(law, rho):
    # over each gap [p, r], g(r) = g(p) + (r - p) g'(p) + int_p^r (r - y) g''(y) dy,
    # with g' chained the same way; the remainder has no cancellation
    d2g, near_dg, near_g = _g_parts(law)
    out = np.empty_like(rho)
    p = law.rho_lo
    g, dg = near_g(p), near_dg(p)
    for i in np.argsort(rho):
        r = rho[i]
        if r <= law.rho_lo:
            out[i] = near_g(r)
            continue
        g += (r - p) * dg + _quad(lambda y: (r - y) * d2g(y), law, p, r)
        dg += _quad(d2g, law, p, r)
        out[i], p = g, r
    return out


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

    @pytest.mark.parametrize("law_name", ["gamma=1.4", "gamma=2", *sorted(LAWS)])
    def test_sound_speed_checks_rho_once(self, law_name, monkeypatch):
        if law_name.startswith("gamma="):
            law = PressureLaw.polytropic(float(law_name[6:]))
            rho = np.geomspace(1e-6, 1e3, 31)
        else:
            law = PressureLaw.composite(*LAWS[law_name])
            rho = _oracle_points(law.rho_lo, law.rho_hi)
        for arg in (rho, rho.reshape(-1, 1), *map(float, rho)):
            got = law.sound_speed(arg)
            want = np.sqrt(law.dpressure(law._check_pos(arg)))  # the two-check form
            assert type(got) is type(want) and np.array_equal(got, want)
        calls = []
        for name in ("_check_pos", "_check_nonneg"):
            check = getattr(PressureLaw, name)
            monkeypatch.setattr(
                PressureLaw, name, staticmethod(lambda r, _c=check: calls.append(1) or _c(r))
            )
        law.sound_speed(rho)
        assert len(calls) == 1

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
        # every block of integrand samples the four fits take, against
        # scipy's DCT-II of the same block, each cell's series relative to
        # its largest coefficient
        calls = []
        dct2 = pressure._dct2

        def recorded(g):
            calls.append((g, dct2(g)))
            return calls[-1][1]

        monkeypatch.setattr(pressure, "_dct2", recorded)
        law = PressureLaw.composite(*LAWS[law_name])
        for name in FITS:
            getattr(law, name)
        assert len(calls) >= len(FITS)
        for g, c in calls:
            ref = dct(g, type=2) / g.shape[-1]
            ref[:, 0] *= 0.5
            assert c.shape == ref.shape == g.shape
            err = np.abs(c - ref).max(axis=1)
            assert np.all(err <= 1e-15 * np.abs(ref).max(axis=1))

    @pytest.mark.parametrize("cells", [1, 2, 37])
    def test_chebint_is_numpys_bitwise(self, cells):
        # numpy.polynomial is the oracle: the same bits in the same layout,
        # since the layout decides the order of the fit's later sums; the
        # cells of zeros tell the signs of numpy's zeros
        rng = np.random.default_rng(cells)
        zeros = np.zeros((2, pressure._CELL_DEGREE))
        zeros[0, 0] = -0.0
        c = np.vstack((rng.standard_normal((cells, pressure._CELL_DEGREE)), zeros))
        got, want = pressure._chebint(c), chebyshev.chebint(c, lbnd=-1.0, axis=1)
        assert got.shape == want.shape and got.strides == want.strides
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_cheb_to_power_is_numpys_bitwise(self):
        n = pressure._CELL_DEGREE + 1
        want = np.array(
            [np.pad(chebyshev.cheb2poly(row), (0, n - 1 - j)) for j, row in enumerate(np.eye(n))]
        )
        assert np.array_equal(pressure._CHEB_TO_POWER.view(np.int64), want.view(np.int64))

    def test_workload_fits_are_numpys_bitwise(self, monkeypatch):
        # the four fits of the composite workload's law, each integral and
        # the finished tables, against the fits built on numpy's chebint
        def tables(law):
            return [
                b.tobytes() for name in FITS
                for b in (getattr(law, name)._table, getattr(law, name).edges)
            ]

        seen = []
        chebint = pressure._chebint
        monkeypatch.setattr(pressure, "_chebint", lambda c: seen.append(c) or chebint(c))
        got = tables(PressureLaw.composite(*LAWS["composite-workload"]))
        assert len(seen) == len(FITS)
        for c in seen:
            ours, numpys = chebint(c), chebyshev.chebint(c, lbnd=-1.0, axis=1)
            assert ours.strides == numpys.strides
            assert np.array_equal(ours.view(np.int64), numpys.view(np.int64))
        monkeypatch.setattr(
            pressure, "_chebint", lambda c: chebyshev.chebint(c, lbnd=-1.0, axis=1)
        )
        assert got == tables(PressureLaw.composite(*LAWS["composite-workload"]))

    @pytest.mark.parametrize("law_name", sorted(LAWS))
    @pytest.mark.parametrize("quantity", sorted(QUANTITIES))
    def test_matches_quadrature_oracle(self, law_name, quantity):
        law = PressureLaw.composite(*LAWS[law_name])
        rho = _oracle_points(law.rho_lo, law.rho_hi)
        fast = getattr(law, quantity)(rho)
        ref = QUANTITIES[quantity](law, rho)
        rel = np.abs(fast - ref) / np.abs(ref)
        assert rel.max() <= 1e-12, (rho[np.argmax(rel)], rel.max())

    @pytest.mark.parametrize("law_name", sorted(LAWS))
    def test_regimes_on_their_own_points(self, law_name, monkeypatch):
        # each regime evaluated only on its own points, without the power
        # laws' input checks, gives the bits of both power laws evaluated,
        # checked, on every point; the fits are built afresh either way.  A
        # number is evaluated as a 1-element array on both sides.
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
            number = not np.ndim(rho)
            rho = np.atleast_1d(np.asarray(rho, dtype=float))
            above = fit.top + far(rho) - far(self.rho_hi)
            if extra is not None:
                above = above + extra(rho)
            out = np.where(rho <= self.rho_lo, near(rho), above)
            inside = (rho > self.rho_lo) & (rho < self.rho_hi)
            if inside.any():
                out[inside] = fit(rho[inside])
            return float(out[0]) if number else out

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


# ---------------------------------------------------------------------------
# the table of a window fit against barycentric Chebyshev pieces, the
# construction of the fits before their cell tables
# ---------------------------------------------------------------------------


class _BarycentricFit:
    """base + int_lo^rho f(y) dy on [lo, hi] from Chebyshev pieces in
    s = log rho of 256 points each.  A piece is halved while the last 32
    coefficients of its integrand's series exceed tol of the largest, or its
    value grows more than fourfold (which keeps rounding relative to the
    value); each piece's integral is evaluated by the barycentric formula on
    its Chebyshev points."""

    n = 256

    def __init__(self, f, lo, hi, base):
        tol = max(1e-15, 100.0 * np.finfo(float).eps * hi / (hi - lo))
        theta = np.pi * (np.arange(self.n) + 0.5) / self.n
        self.nodes = np.cos(theta)
        self.weights = np.where(np.arange(self.n) % 2, -1.0, 1.0) * np.sin(theta)
        self.pieces = []
        todo = [(np.log(lo), np.log(hi))]
        while todo:  # left to right, each piece starting from the last one's top
            a, b = todo.pop()
            y = np.exp(0.5 * (b - a) * (self.nodes + 1.0) + a)
            c = dct(f(y) * y, type=2) / self.n
            c[0] *= 0.5
            coef = chebyshev.chebint(c, lbnd=-1.0, scl=0.5 * (b - a))
            coef[0] += base
            top = chebyshev.chebval(1.0, coef)
            if np.abs(c[-self.n // 8 :]).max() > tol * np.abs(c).max() or top > 4.0 * base:
                assert len(self.pieces) + len(todo) < 64
                mid = 0.5 * (a + b)
                todo += [(mid, b), (a, mid)]
                continue
            self.pieces.append((a, b, chebyshev.chebval(self.nodes, coef)))
            base = top

    def __call__(self, rho):
        s = np.log(rho)
        out = np.empty_like(s)
        which = np.searchsorted([a for a, _, _ in self.pieces[1:]], s)
        for i, (a, b, values) in enumerate(self.pieces):
            x = (2.0 * s[which == i] - a - b) / (b - a)
            diff = np.subtract.outer(x, self.nodes)
            hit = diff == 0.0  # x on a node (the g' samples of e): the node's value
            diff[hit] = np.inf
            d = 1.0 / diff
            part = (d @ (self.weights * values)) / (d @ self.weights)
            rows = hit.any(axis=1)
            part[rows] = values[hit[rows].argmax(axis=1)]
            out[which == i] = part
        return out


@functools.lru_cache(maxsize=None)
def _barycentric_fits(law_name):
    """The four fits of a test law as _BarycentricFit, keyed like FITS; the
    g' integrand reads this e, and the g integrand this g'."""
    law = PressureLaw.composite(*LAWS[law_name])
    near, lo, hi = law._near_law, law.rho_lo, law.rho_hi
    e = _BarycentricFit(lambda y: law.pressure(y) / y**2, lo, hi, near.internal_energy(lo))
    k = _BarycentricFit(lambda y: np.sqrt(law.dpressure(y)) / y, lo, hi, near.k_integral(lo))
    gp = _BarycentricFit(
        lambda y: 2.0 * law.dpressure(y) * e(y) / y, lo, hi, near.dhigh_order_potential(lo)
    )
    g = _BarycentricFit(gp, lo, hi, near.high_order_potential(lo))
    return dict(zip(FITS, (e, k, gp, g)))


def _table_points(law, fit):
    """Dense points of the window, every cell edge with its two neighbouring
    floats, and rho_lo and rho_hi +- 5e-13."""
    lo, hi = law.rho_lo, law.rho_hi
    edges = np.exp(fit.edges)
    rho = np.concatenate((
        np.linspace(lo, hi, 4001),
        edges,
        np.nextafter(edges, 0.0),
        np.nextafter(edges, np.inf),
        [lo + 5e-13, hi - 5e-13, np.nextafter(lo, np.inf), np.nextafter(hi, 0.0)],
    ))
    return rho[(rho > lo) & (rho < hi)]


def _cell_values(fit, cells, s):
    """Cell cells[i] of the fit's table evaluated at s[i], whichever cell
    s[i] lies in."""
    t = fit._table[:, cells]
    return polynomial.polyval((s - t[-2]) * t[-1], t[:-2], tensor=False)


class TestWindowFitTable:
    @pytest.mark.parametrize("law_name", sorted(LAWS))
    @pytest.mark.parametrize("fit_name", FITS)
    def test_matches_barycentric_pieces(self, law_name, fit_name):
        # measured at most 9.6e-15 over the 16 fits
        law = PressureLaw.composite(*LAWS[law_name])
        fit = getattr(law, fit_name)
        rho = _table_points(law, fit)
        got, want = fit(rho), _barycentric_fits(law_name)[fit_name](rho)
        rel = np.abs(got - want) / np.abs(want)
        assert rel.max() <= 1e-13, (rho[np.argmax(rel)], rel.max())

    @pytest.mark.parametrize("law_name", sorted(LAWS))
    def test_cells_tile_the_window(self, law_name):
        law = PressureLaw.composite(*LAWS[law_name])
        for fit_name in FITS:
            fit = getattr(law, fit_name)
            edges, table = fit.edges, fit._table
            assert edges[0] == np.log(law.rho_lo) and edges[-1] == np.log(law.rho_hi)
            assert np.all(np.diff(edges) > 0.0)
            assert table.shape == (pressure._CELL_DEGREE + 3, edges.size - 1)
            assert np.array_equal(table[-2], 0.5 * (edges[:-1] + edges[1:]))
            assert np.ptp(np.diff(edges)) > 0.0  # the cells are not of one size

    def test_fits_start_from_the_edges_they_read(self, monkeypatch):
        # g' reads e, and g reads g', through that fit's table: each starts
        # from its cells, so that no cell of its own spans one of their edges
        rows = []
        dct2 = pressure._dct2
        monkeypatch.setattr(pressure, "_dct2", lambda g: rows.append(len(g)) or dct2(g))
        for args in LAWS.values():
            law = PressureLaw.composite(*args)
            read = law._e_fit
            for name in ("_gp_fit", "_g_fit"):
                rows.clear()
                fit = getattr(law, name)
                assert rows[0] == read.edges.size - 1  # its first round: read's cells
                assert set(read.edges) <= set(fit.edges)
                read = fit

    @pytest.mark.parametrize("law_name", sorted(LAWS))
    def test_adjacent_cells_agree_at_inner_edges(self, law_name):
        # each cell's constant is chained from the one on its left: both
        # cells of an inner edge give its value, and its neighbouring floats'
        law = PressureLaw.composite(*LAWS[law_name])
        for fit_name in FITS:
            fit = getattr(law, fit_name)
            inner = fit.edges[1:-1]
            left = np.arange(inner.size)
            for s in (inner, np.nextafter(inner, -np.inf), np.nextafter(inner, np.inf)):
                a, b = _cell_values(fit, left, s), _cell_values(fit, left + 1, s)
                rel = np.abs(a - b) / np.abs(b)
                assert rel.max() <= 1e-13, (fit_name, np.exp(s[np.argmax(rel)]), rel.max())

    def test_table_built_on_first_call_without_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the table build called numpy.linalg")

        for name in ("lstsq", "solve", "inv", "qr", "svd", "eigh", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        law = PressureLaw.composite(*LAWS["composite-workload"])
        assert not any(name in law.__dict__ for name in FITS)
        for quantity in sorted(QUANTITIES):
            getattr(law, quantity)(np.array([1.0, 1.2]))
        assert all(name in law.__dict__ for name in FITS)

    def test_blend_runs_on_window_points_only(self, monkeypatch):
        law = PressureLaw.composite(*LAWS["composite-workload"])
        rho = np.array([0.5, 0.9, 1.0, 1.1, 1.4, 2.0, 1.2])
        sizes = []
        inside = pressure._smoothstep_inside
        monkeypatch.setattr(
            pressure, "_smoothstep_inside", lambda t, order: sizes.append(t.size) or inside(t, order)
        )
        law.pressure_pair(rho)
        law.d2pressure(rho)
        assert sizes == [3, 3]
        sizes.clear()
        law.pressure_pair(np.array([0.5, 2.0]))
        assert sizes == []


class TestNumbersAtAndAboveRhoHi:
    @pytest.mark.parametrize("law_name", sorted(LAWS))
    def test_number_equals_array(self, law_name):
        # a number is evaluated as a 1-element array: before, the tail took
        # Python's ** for a number and numpy's for an array, and the
        # wide-window law's g(5.0) differed by one ulp
        law = PressureLaw.composite(*LAWS[law_name])
        hi = law.rho_hi
        points = [hi, hi - 5e-13, hi + 5e-13, 3.0 * hi, law.rho_lo, 0.5 * law.rho_lo]
        for quantity in sorted(QUANTITIES):
            f = getattr(law, quantity)
            together = f(np.array(points))
            for r, in_array in zip(points, together):
                got = f(r)
                assert type(got) is float
                assert got == f(np.array([r]))[0] == in_array, (quantity, r)

    def test_polytropic_numbers_keep_python_power(self):
        law = PressureLaw.polytropic(1.4)
        k, g, th = law.kappa, law.gamma, law.theta
        for r in (0.3, 1.0, 5.0):
            assert law.internal_energy(r) == k / (g - 1.0) * r ** (g - 1.0)
            assert law.k_integral(r) == np.sqrt(k * g) / th * r**th


class TestNoisyCompositeRun:
    def test_table_run_within_tolerance_of_barycentric_run(self):
        # the momentum leaves Gamma_H, so the forcing reads K through its
        # window fit on half the steps' nodes.  Each sample's final energy
        # and dissipation, recorded from the run with every fit evaluated
        # by the barycentric formula on its Chebyshev pieces: the cell
        # tables built from the integrand move them by at most 7.2e-16
        from svvlab.noise import NoiseModel
        from svvlab.solver import Grid, GridState, SolverConfig, simulate

        law = PressureLaw.composite(*LAWS["composite-workload"])
        grid = Grid(L=5.0, n=64)
        rho = 1.0 + 0.6 * np.exp(-(grid.x**2) / 0.5)
        init = GridState(0.0, rho, 3.0 * np.sin(grid.x) * rho)
        cfg = SolverConfig(epsilon=0.5, T=0.1, dt=1e-3, n_saves=4,
                           record_steps=True, record_forcing=True)
        noise = NoiseModel.mode_family(0.4, 1.0, 3, law, seed=3, dt_base=1e-3)
        noise = noise.truncate_mollify(0.5, 3.0, 0.25, 1.0)
        trajs = simulate(init, law, grid, cfg, noise, [0, 1, 2])
        steps = trajs[0].step_states
        fields = StateFields(law, steps[:, 0], steps[:, 1])
        assert noise._indicator(fields).min() < 1.0
        energy = [19.627908369408857, 19.716620413425854, 19.79979201902719]
        dissipation = [4.178850471336354, 4.180272837728829, 4.184445657719746]
        for name, want in (("energy", energy), ("dissipation", dissipation)):
            got = [getattr(t, name)[-1] for t in trajs]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=name)
