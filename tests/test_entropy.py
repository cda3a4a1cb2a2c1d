"""Entropy kernels, generated pairs, energies, cutoffs, Riemann invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

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
            psi=lambda s: s,
            dpsi=lambda s: np.ones_like(np.asarray(s, float)),
            d2psi=lambda s: np.zeros_like(np.asarray(s, float)),
            growth_class="subquadratic",
        )
        pv = entropy_pair(law2, spec, np.array([1.0]), np.array([1.0]))
        assert pv.eta[0] == pytest.approx(1.0, rel=1e-12)

    def test_vacuum_all_zero(self, law2):
        pv = entropy_pair(law2, EntropySpec.energy(), np.array([0.0]), np.array([0.0]))
        assert pv.eta[0] == pv.q[0] == pv.deta_dm[0] == pv.d2eta_dm2[0] == 0.0

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 3.5])
    def test_gauss_kernel_matches_per_node_form(self, gamma):
        # q = rho/M0 (u psi@w + theta K psi@(z w)) against the per-node
        # integrand (u + theta K z) psi(u + K z) it replaces; vacuum nodes
        # give zeros and leave the other nodes' values as they are
        law = PressureLaw.polytropic(gamma)
        rng = np.random.default_rng(5)
        rho = rng.uniform(0.05, 3.0, 300)
        m = rng.standard_normal(300)
        rho[::17] = m[::17] = 0.0
        pos = rho > 0.0
        z, w = roots_jacobi(48, law.lam, law.lam)
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
            q = rho[pos] * (((u[:, None] + law.theta * K[:, None] * z) * spec.psi(s)) @ w)
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
        pv_a = entropy_pair(
            law2,
            EntropySpec.signed_square(),
            np.array([1.3]),
            np.array([0.5]),
            method="adaptive",
        )
        assert pv_a.eta[0] == pytest.approx(pv_g.eta[0], rel=1e-8)
        assert pv_a.q[0] == pytest.approx(pv_g.q[0], rel=1e-8)

    def test_compact_support_linear_density_bound(self, law2):
        # |eta^psi| <= C rho for compactly supported psi
        spec = EntropySpec.compact_bump(0.0, 2.0)
        rho = np.geomspace(1e-3, 5.0, 40)
        pv = entropy_pair(law2, spec, rho, np.zeros_like(rho))
        assert np.all(np.abs(pv.eta) <= 1.01 * rho * np.abs(spec.psi(0.0)))

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
