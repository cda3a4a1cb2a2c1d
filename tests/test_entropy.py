"""Entropy kernels, generated pairs, energies, cutoffs, Riemann invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import roots_jacobi

from svvlab import entropy
from svvlab.entropy import (
    EntropySpec,
    entropy_pair,
    high_order_energy,
    kernel_chi,
    kernel_sigma,
    mechanical_energy_pair,
    psi_cutoff,
    relative_energy,
    riemann_invariants,
)
from svvlab.errors import DomainError
from svvlab.pressure import PressureLaw


@pytest.fixture(scope="module")
def law2():
    return PressureLaw.polytropic(2.0)


def adaptive_pair(law, spec, rho, m):
    """(eta, q, d eta/dm, d^2 eta/dm^2) at one state by adaptive quadrature
    split at the spec's kinks: the high-accuracy scalar oracle of the Gauss
    rule.  The weight (1 - z^2)^lam stays in the integrand (lam > -1/2
    keeps it integrable); the adaptive rule handles the endpoints."""
    lam, theta = law.lam, law.theta
    u = m / rho
    K = float(law.k_integral(rho))
    pts = sorted(float((k - u) / K) for k in spec.kinks if abs((k - u) / K) < 1.0)

    def integ(f):
        val, _ = quad(
            f, -1.0, 1.0, points=pts or None, epsabs=1e-13, epsrel=1e-13, limit=400
        )
        return val

    def weight(z):
        return (1.0 - z * z) ** lam

    def psi(z, order=0):  # the order-th derivative of psi at u + K z
        return spec.derivatives(u + K * z)[order]

    M0 = integ(weight)
    eta = rho * integ(lambda z: psi(z) * weight(z)) / M0
    qf = rho * integ(lambda z: (u + theta * K * z) * psi(z) * weight(z)) / M0
    dm = integ(lambda z: psi(z, 1) * weight(z)) / M0
    d2m = integ(lambda z: psi(z, 2) * weight(z)) / (rho * M0)
    return eta, qf, dm, d2m


def roots_jacobi_rule(n_nodes, lam):
    """scipy's Gauss-Jacobi rule in the shape of entropy._jacobi_rule: the
    oracle of the Golub-Welsch rule, where it is finite."""
    z, w = roots_jacobi(n_nodes, lam, lam)
    return z, w, float(w.sum())


class TestKernels:
    def test_chi_values(self):
        assert kernel_chi(2.0, 1.0, 0.0, 0.0) == pytest.approx(1.0)
        assert kernel_chi(2.0, 1.0, 0.0, 1.5) == 0.0
        assert kernel_chi(2.0, 1.0, 0.0, 0.5) == pytest.approx(np.sqrt(0.75))

    def test_sigma_values(self):
        assert kernel_sigma(2.0, 1.0, 0.0, 0.0) == 0.0
        assert kernel_sigma(2.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)
        assert kernel_sigma(2.0, 1.0, 0.0, 0.5) == pytest.approx(0.25 * np.sqrt(0.75))

    def test_chi_support(self):
        s = np.linspace(-3, 3, 101)
        vals = kernel_chi(2.0, 1.0, 0.5, s)
        assert np.all(vals[np.abs(s - 0.5) > 1.0] == 0.0)
        assert np.all(vals[np.abs(s - 0.5) < 1.0] > 0.0)


class TestEntropyPair:
    def test_linear_generator(self, law2):
        # psi(s) = s: the odd part of the kernel integrates away, leaving
        # the momentum itself (normalized kernel form).
        spec = EntropySpec(
            name="linear",
            derivatives=lambda s: (
                s,
                np.ones_like(np.asarray(s, float)),
                np.zeros_like(np.asarray(s, float)),
            ),
        )
        pv = entropy_pair(law2, spec, np.array([1.0]), np.array([1.0]))
        assert pv.eta[0] == pytest.approx(1.0, rel=1e-12)

    def test_vacuum_all_zero(self, law2):
        pv = entropy_pair(law2, EntropySpec.energy(), np.array([0.0]), np.array([0.0]))
        assert pv.eta[0] == pv.q[0] == pv.deta_dm[0] == pv.d2eta_dm2[0] == 0.0

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 3.5])
    def test_gauss_kernel_matches_per_node_form(self, gamma):
        # q = rho/M0 (u psi@w + theta K psi@(z w)) against the per-node
        # integrand (u + theta K z) psi(u + K z) it replaces, on the same
        # rule; vacuum nodes give zeros and leave the other nodes' values
        # as they are
        law = PressureLaw.polytropic(gamma)
        rng = np.random.default_rng(5)
        rho = rng.uniform(0.05, 3.0, 300)
        m = rng.standard_normal(300)
        rho[::17] = m[::17] = 0.0
        pos = rho > 0.0
        z, w, _ = entropy._jacobi_rule(48, law.lam)
        u = m[pos] / rho[pos]
        K = law.k_integral(rho[pos])
        s = u[:, None] + K[:, None] * z
        specs = (
            EntropySpec.energy(),
            EntropySpec.cutoff_energy(1.0),
            EntropySpec.compact_bump(0.0, 4.0),
        )
        for spec in specs:
            pv = entropy_pair(law, spec, rho, m, n_nodes=48)
            psi = spec.derivatives(s)[0]
            q = rho[pos] * (((u[:, None] + law.theta * K[:, None] * z) * psi) @ w)
            q /= w.sum()
            assert np.max(np.abs(pv.q[pos] - q)) <= 1e-14 * np.max(np.abs(q))
            solid = entropy_pair(law, spec, rho[pos], m[pos], n_nodes=48)
            for a, b in zip(
                (pv.eta, pv.q, pv.deta_dm, pv.d2eta_dm2),
                (solid.eta, solid.q, solid.deta_dm, solid.d2eta_dm2),
            ):
                np.testing.assert_array_equal(a[pos], b)
                assert not a[~pos].any()

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 3.0, 3.5])
    def test_energy_generator_matches_mechanical(self, gamma):
        law = PressureLaw.polytropic(gamma)
        rng = np.random.default_rng(12)
        rho = rng.uniform(0.1, 5.0, 50)
        u = rng.uniform(-3.0, 3.0, 50)
        pv = entropy_pair(law, EntropySpec.energy(), rho, rho * u)
        me = mechanical_energy_pair(law, rho, rho * u)
        assert np.max(np.abs(pv.eta - me.eta) / np.abs(me.eta)) < 1e-8
        assert np.max(np.abs(pv.deta_dm - me.deta_dm)) < 1e-8
        assert np.max(np.abs(pv.d2eta_dm2 - me.d2eta_dm2)) < 1e-8

    def test_unscaled_kappa_also_matches(self):
        law = PressureLaw.polytropic(2.0, kappa=0.5)
        rho = np.array([0.7, 2.5])
        m = np.array([0.4, -1.0])
        pv = entropy_pair(law, EntropySpec.energy(), rho, m)
        me = mechanical_energy_pair(law, rho, m)
        assert np.allclose(pv.eta, me.eta, rtol=1e-10)
        assert np.allclose(pv.q, me.q, rtol=1e-10)

    def test_adaptive_method_agrees(self, law2):
        # the kink at s = 0 slows the fixed rule; 1024 nodes reach 2e-9
        pv_g = entropy_pair(
            law2, EntropySpec.signed_square(), np.array([1.3]), np.array([0.5]),
            n_nodes=1024,
        )
        eta, q, _, _ = adaptive_pair(law2, EntropySpec.signed_square(), 1.3, 0.5)
        assert eta == pytest.approx(pv_g.eta[0], rel=1e-8)
        assert q == pytest.approx(pv_g.q[0], rel=1e-8)

    def test_golub_welsch_matches_roots_jacobi(self, monkeypatch):
        rng = np.random.default_rng(21)
        rho = rng.uniform(0.05, 3.0, 2000)
        m = rng.standard_normal(2000)
        specs = (
            EntropySpec.energy(),
            EntropySpec.cutoff_energy(1.0),
            EntropySpec.compact_bump(0.0, 4.0),
            EntropySpec.signed_square(),
            EntropySpec.constant(2.0),
        )
        fields = ("eta", "q", "deta_dm", "d2eta_dm2")
        for gamma in (1.05, 1.4, 5.0 / 3.0, 2.0, 3.0, 4.0, 7.0):
            law = PressureLaw.polytropic(gamma)
            for n_nodes in (48, 64, 96):
                for spec in specs:
                    got = entropy_pair(law, spec, rho, m, n_nodes=n_nodes)
                    with monkeypatch.context() as mp:
                        mp.setattr(entropy, "_jacobi_rule", roots_jacobi_rule)
                        want = entropy_pair(law, spec, rho, m, n_nodes=n_nodes)
                    for name in fields:
                        a, b = getattr(got, name), getattr(want, name)
                        assert np.max(np.abs(a - b)) <= 1e-11 * np.max(np.abs(b)), (
                            gamma, n_nodes, spec.name, name,
                        )

    def test_energy_pair_for_gamma_next_to_one(self):
        # lam = (3 - gamma) / (2 (gamma - 1)) ~ 1e9: a Gauss rule that
        # stays finite, and still exact for psi = s^2/2
        law = PressureLaw.polytropic(1.0 + 1e-9)
        rng = np.random.default_rng(8)
        rho = rng.uniform(0.1, 5.0, 200)
        m = rho * rng.uniform(-3.0, 3.0, 200)
        pv = entropy_pair(law, EntropySpec.energy(), rho, m)
        me = mechanical_energy_pair(law, rho, m)
        for name in ("eta", "q", "deta_dm", "d2eta_dm2"):
            a, b = getattr(pv, name), getattr(me, name)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name

    def test_compact_support_linear_density_bound(self, law2):
        # |eta^psi| <= C rho for compactly supported psi
        spec = EntropySpec.compact_bump(0.0, 2.0)
        rho = np.geomspace(1e-3, 5.0, 40)
        pv = entropy_pair(law2, spec, rho, np.zeros_like(rho))
        assert np.all(np.abs(pv.eta) <= 1.01 * rho * np.abs(spec.derivatives(0.0)[0]))

    def test_pair_compatibility(self, law2):
        # grad q = grad eta . grad F, finite differences in (rho, m)
        spec = EntropySpec.signed_square()
        h = 1e-5

        def eta_q(rho, m):
            pv = entropy_pair(
                law2, spec, np.atleast_1d(rho), np.atleast_1d(m), n_nodes=96
            )
            return pv.eta[0], pv.q[0]

        for rho, u in [(1.0, 0.3), (2.0, -0.5), (0.8, 0.0)]:
            m = rho * u
            e_r = (eta_q(rho + h, m)[0] - eta_q(rho - h, m)[0]) / (2 * h)
            e_m = (eta_q(rho, m + h)[0] - eta_q(rho, m - h)[0]) / (2 * h)
            q_r = (eta_q(rho + h, m)[1] - eta_q(rho - h, m)[1]) / (2 * h)
            q_m = (eta_q(rho, m + h)[1] - eta_q(rho, m - h)[1]) / (2 * h)
            # flux F = (m, m^2/rho + P); dq = deta . dF
            F1_r, F1_m = 0.0, 1.0
            F2_r = -(u**2) + law2.dpressure(rho)
            F2_m = 2 * u
            assert q_r == pytest.approx(e_r * F1_r + e_m * F2_r, abs=1e-4)
            assert q_m == pytest.approx(e_r * F1_m + e_m * F2_m, abs=1e-4)


class TestMechanicalEnergy:
    def test_values(self, law2):
        me = mechanical_energy_pair(law2, np.array([1.0]), np.array([1.0]))
        assert me.eta[0] == pytest.approx(0.625)
        assert me.q[0] == pytest.approx(0.75)
        me0 = mechanical_energy_pair(law2, np.array([1.0]), np.array([0.0]))
        assert me0.eta[0] == pytest.approx(0.125)
        assert me0.q[0] == 0.0

    def test_vacuum_with_momentum_rejected(self, law2):
        with pytest.raises(DomainError):
            mechanical_energy_pair(law2, np.array([0.0]), np.array([1.0]))


class TestRelativeEnergy:
    def test_values(self, law2):
        assert relative_energy(law2, 2.0, 0.0, 1.0) == pytest.approx(0.125)
        assert relative_energy(law2, 1.0, 0.0, 1.0) == 0.0
        assert relative_energy(law2, 1.0, 2.0, 1.0) == pytest.approx(2.0)


class TestHighOrderEnergy:
    def test_values(self, law2):
        absolute, _ = high_order_energy(law2, 1.0, 1.0, 1.0)
        assert absolute == pytest.approx(1.0 / 12.0 + 1.0 / 8.0 + 1.0 / 96.0)
        absolute0, _ = high_order_energy(law2, 1.0, 0.0, 1.0)
        assert absolute0 == pytest.approx(1.0 / 96.0)
        vac, rel = high_order_energy(law2, 0.0, 0.0, 1.0)
        assert vac == 0.0

    def test_relative_touches_zero(self, law2):
        _, rel = high_order_energy(law2, 1.0, 0.0, 1.0)
        assert rel == pytest.approx(0.0, abs=1e-14)


class TestPsiCutoff:
    def test_piece_values(self):
        v, _, _ = psi_cutoff(1.0, 0.5)
        assert v == pytest.approx(0.125)
        v3, _, _ = psi_cutoff(1.0, 3.0)
        assert v3 == pytest.approx(10.0 / 3.0)

    def test_c1_continuity_at_joints(self):
        R = 1.0
        for s0 in (R, 2 * R, -R, -2 * R):
            below = psi_cutoff(R, s0 - 1e-14)
            above = psi_cutoff(R, s0 + 1e-14)
            assert abs(below[0] - above[0]) < 1e-12
            assert abs(below[1] - above[1]) < 1e-12

    def test_second_derivative_hat(self):
        R = 2.0
        assert psi_cutoff(R, 0.0)[2] == pytest.approx(1.0)
        assert psi_cutoff(R, 1.5 * R)[2] == pytest.approx(0.5)
        assert psi_cutoff(R, 2.5 * R)[2] == 0.0

    @given(s=st.floats(-100.0, 100.0), R=st.floats(0.1, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_convex_and_even(self, s, R):
        v, d1, d2 = psi_cutoff(R, s)
        vm, d1m, _ = psi_cutoff(R, -s)
        assert d2 >= 0.0
        assert v == pytest.approx(vm, rel=1e-12, abs=1e-12)
        assert d1 == pytest.approx(-d1m, rel=1e-12, abs=1e-12)

    def test_inner_short_cut_matches_three_piece_path(self):
        # points beyond R send a call through the three masked pieces; the
        # inner points' values must not depend on which path ran
        R = 5.0
        inner = np.random.default_rng(11).uniform(-R, R, (6, 7))
        inner[0, 0] = -R  # the joint belongs to the inner piece
        mixed = np.append(inner.ravel(), [1.5 * R, -3.0 * R])
        fast = psi_cutoff(R, inner)
        pieces = psi_cutoff(R, mixed)
        for f, p in zip(fast, pieces):
            assert f.shape == inner.shape
            np.testing.assert_array_equal(f.ravel(), p[: inner.size])
        assert not np.shares_memory(fast[1], inner)
        # scalars: inner ones take the short-cut, the others the pieces
        for i, s in enumerate(mixed):
            assert psi_cutoff(R, s) == tuple(float(p[i]) for p in pieces)

    def test_cutoff_pair_exact_beyond_support(self, law2):
        # R above |u| + rho^theta: cutoff and energy generators see the
        # same integrand on the whole kernel support.
        rng = np.random.default_rng(4)
        rho = rng.uniform(0.1, 5.0, 50)
        u = rng.uniform(-3.0, 3.0, 50)
        R = 20.0
        covered = R > np.abs(u) + rho**0.5
        assert covered.all()
        pv_R = entropy_pair(law2, EntropySpec.cutoff_energy(R), rho, rho * u)
        pv_E = entropy_pair(law2, EntropySpec.energy(), rho, rho * u)
        assert np.max(np.abs(pv_R.eta - pv_E.eta)) < 1e-12
        assert np.max(np.abs(pv_R.q - pv_E.q)) < 1e-12


def separate_callables(center=0.0, width=4.0, R=5.0, c=1.5):
    """The built-in generators as three separate callables each, as they
    were written before the fused form: the oracle of its values."""

    def _t(s):
        return (np.asarray(s, dtype=float) - center) / width

    def p(s):
        t = _t(s)
        b = 1.0 - t**2
        return np.where(np.abs(t) < 1.0, b**3, 0.0)

    def dp(s):
        t = _t(s)
        b = 1.0 - t**2
        return np.where(np.abs(t) < 1.0, -6.0 * t * b**2 / width, 0.0)

    def d2p(s):
        t = _t(s)
        b = 1.0 - t**2
        return np.where(np.abs(t) < 1.0, (24.0 * t**2 * b - 6.0 * b**2) / width**2, 0.0)

    return [
        (EntropySpec.energy(), (
            lambda s: 0.5 * np.asarray(s, dtype=float) ** 2,
            lambda s: np.asarray(s, dtype=float),
            lambda s: np.ones_like(np.asarray(s, dtype=float)),
        )),
        (EntropySpec.cutoff_energy(R), (
            lambda s: psi_cutoff(R, s)[0],
            lambda s: psi_cutoff(R, s)[1],
            lambda s: psi_cutoff(R, s)[2],
        )),
        (EntropySpec.signed_square(), (
            lambda s: 0.5 * np.asarray(s, dtype=float) * np.abs(s),
            lambda s: np.abs(np.asarray(s, dtype=float)),
            lambda s: np.sign(np.asarray(s, dtype=float)),
        )),
        (EntropySpec.constant(c), (
            lambda s: np.full_like(np.asarray(s, dtype=float), c),
            lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        )),
        (EntropySpec.compact_bump(center, width), (p, dp, d2p)),
    ]


class TestFusedGenerators:
    """Each built-in generator's one fused callable gives the values of the
    three separate callables, bitwise, on nodes inside R and the bump's
    support, across them, and beyond them."""

    # (rho, u) whose Gauss nodes u + K(rho) z lie all inside |s| < 4, across
    # 4, 5 and 10, or all beyond 10 (K = sqrt(rho) for gamma = 2)
    STATES = {
        "inner": ([0.2, 0.5, 1.0], [0.0, -1.5, 1.2]),
        "mixed": ([1.0, 4.0, 9.0], [4.5, -5.5, 8.0]),
        "outer": ([0.1, 0.3, 0.5], [15.0, -16.0, 20.0]),
    }

    @pytest.mark.parametrize("where", ["inner", "mixed", "outer"])
    def test_fused_equals_separate_callables(self, law2, where):
        rho, u = (np.array(v) for v in self.STATES[where])
        z, _ = roots_jacobi(48, law2.lam, law2.lam)
        s = u[:, None] + law2.k_integral(rho)[:, None] * z
        for spec, parts in separate_callables():
            expect = [f(s) for f in parts]
            for a, b in zip(spec.derivatives(s), expect):
                np.testing.assert_array_equal(a, b)
            oracle = EntropySpec("oracle", lambda s, parts=parts: tuple(f(s) for f in parts))
            pv = entropy_pair(law2, spec, rho, rho * u, n_nodes=48)
            ref = entropy_pair(law2, oracle, rho, rho * u, n_nodes=48)
            for name in ("eta", "q", "deta_dm", "d2eta_dm2"):
                np.testing.assert_array_equal(getattr(pv, name), getattr(ref, name))
        for spec, parts in separate_callables():  # scalar nodes
            for node in (0.7, 4.5, -12.0):
                for a, b in zip(spec.derivatives(node), (f(node) for f in parts)):
                    assert np.shape(a) == np.shape(b) and a == b
        a = np.abs(s)
        cut = {"inner": a.max() < 4.0, "mixed": a.min() < 4.0 < 10.0 < a.max(),
               "outer": a.min() > 10.0}
        assert cut[where]

    def test_one_call_per_evaluation(self, law2):
        calls = []
        base = EntropySpec.compact_bump(0.0, 4.0)

        def derivatives(s):
            calls.append(s.shape)
            return base.derivatives(s)

        spec = EntropySpec("counted", derivatives)
        entropy_pair(law2, spec, np.ones(5), np.zeros(5), n_nodes=48)
        assert calls == [(5, 48)]


class TestRiemannInvariants:
    def test_values(self, law2):
        w1, w2 = riemann_invariants(law2, 1.0, 0.0)
        assert (w1, w2) == (pytest.approx(-1.0), pytest.approx(1.0))
        w1, w2 = riemann_invariants(law2, 1.0, 1.0)
        assert (w1, w2) == (pytest.approx(0.0), pytest.approx(2.0))

    @given(rho=st.floats(0.01, 20.0), u=st.floats(-5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_gap_identity(self, rho, u):
        law = PressureLaw.polytropic(2.0)
        w1, w2 = riemann_invariants(law, rho, rho * u)
        assert (w2 - w1) / 2.0 == pytest.approx(law.k_integral(rho), rel=1e-12)
        assert w1 <= w2

    def test_vacuum_rejected(self, law2):
        with pytest.raises(DomainError):
            riemann_invariants(law2, 0.0, 0.0)
