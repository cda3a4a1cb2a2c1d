"""Generated entropy pairs, the high-order energy, cutoffs, Riemann invariants."""

import math
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import roots_jacobi

from svvlab import entropy, pressure
from svvlab.entropy import (
    SPLIT_NODES,
    EntropySpec,
    entropy_pair,
    high_order_energy,
    mechanical_energy_pair,
    psi_cutoff,
    riemann_invariants,
)
from svvlab.errors import ConfigError, DomainError
from svvlab.pressure import PressureLaw

FIELDS = ("eta", "q", "deta_dm", "d2eta_dm2")
GAMMAS = (1.05, 1.4, 2.0, 3.0, 4.0)


@pytest.fixture(scope="module")
def law2():
    return PressureLaw.polytropic(2.0)


# s-locations where a generator is not smooth, from its EntropySpec name
# alone: where the adaptive oracle splits its quadrature
KINKS = {
    r"signed_square": lambda: (0.0,),
    r"compact_bump\((.+),(.+)\)": lambda c, w: (c - w, c + w),
    r"cutoff_energy\(R=(.+)\)": lambda R: (-2.0 * R, -R, R, 2.0 * R),
}


def oracle_kinks(name):
    for pattern, kinks in KINKS.items():
        hit = re.fullmatch(pattern, name)
        if hit:
            return kinks(*map(float, hit.groups()))
    return ()


def adaptive_pair(law, spec, rho, m):
    """(eta, q, d eta/dm, d^2 eta/dm^2) at one state by adaptive quadrature,
    the high-accuracy scalar oracle of the Gauss rules.  [-1, 1] is split at
    the kinks (KINKS) and at 0.  Up to lam = 20, a piece touching -1 or +1
    takes that end's factor of (1 - z^2)^lam as QUADPACK's algebraic
    endpoint weight; any other piece is integrated in y = log(1 -+ z) toward
    its nearer end, where (1 -+ z)^lam dz = e^((lam + 1) y) dy is smooth
    however close the piece comes to the end.  Above lam = 20 the weight is
    smooth at the ends and a peak of width lam^-1/2 at 0: [-1, 1] is also
    cut at every multiple of lam^-1/2 up to 12 of them, each piece within
    them is integrated with the weight in the integrand, and the weight
    beyond them (below e^-143 of its peak) is left out.  M0 is integrated
    the same way, so the oracle shares no formula with entropy_pair."""
    lam, theta = law.lam, law.theta
    u = m / rho
    K = float(law.k_integral(rho))
    cuts = {(k - u) / K for k in oracle_kinks(spec.name) if abs(k - u) < K}
    peak = lam > 20.0
    if peak:
        width = 1.0 / math.sqrt(lam)
        cuts |= {  # no sliver piece next to a kink
            j * width for j in range(-12, 13)
            if all(abs(j * width - c) > 1e-6 * width for c in cuts)
        }
    edges = sorted(c for c in cuts | {-1.0, 0.0, 1.0} if abs(c) <= 1.0)
    @lru_cache(maxsize=None)
    def fields(z):  # the four integrands and M0's at z, without the weight
        p, dp, d2p = (float(v) for v in spec.derivatives(u + K * z))
        return p, (u + theta * K * z) * p, dp, d2p, 1.0

    def integ(i, a, b):
        opts = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
        if peak:
            if a * math.sqrt(lam) >= 11.5 or b * math.sqrt(lam) <= -11.5:
                return 0.0  # beyond 12 peak widths, where the weight is < e^-143
            return quad(  # times lam^1/2, so that M0 and the integrals are O(1)
                lambda z: fields(z)[i] * math.exp(lam * math.log1p(-z * z)) * math.sqrt(lam),
                a, b, **opts,
            )[0]
        if a == -1.0:
            return quad(lambda z: fields(z)[i] * (1.0 - z) ** lam, a, b,
                        weight="alg", wvar=(lam, 0.0), **opts)[0]
        if b == 1.0:
            return quad(lambda z: fields(z)[i] * (1.0 + z) ** lam, a, b,
                        weight="alg", wvar=(0.0, lam), **opts)[0]
        sign = 1.0 if b <= 0.0 else -1.0  # 1 + z = e^y, or 1 - z = e^y

        def f(y):
            return (fields(sign * math.expm1(y))[i] * (1.0 - math.expm1(y)) ** lam
                    * math.exp((lam + 1.0) * y))

        lo, hi = sorted((math.log1p(sign * a), math.log1p(sign * b)))
        return quad(f, lo, hi, **opts)[0]

    eta, q, dm, d2m, m0 = (
        sum(integ(i, a, b) for a, b in zip(edges[:-1], edges[1:])) for i in range(5)
    )
    eta, q, dm, d2m = (v / m0 for v in (eta, q, dm, d2m))
    return rho * eta, rho * q, dm, d2m / rho


def fixed_rule_pair(law, spec, rho, m, n_nodes):
    """The four fields from the fixed n_nodes-point Gauss-Jacobi rule (the
    symmetric Golub-Welsch rule) on every state, as entropy_pair evaluated
    them before the generators declared their pieces: the oracle of the
    short exact rule on in-piece states.  Vacuum states give zeros."""
    k = np.arange(1.0, n_nodes)
    lam = law.lam
    off = np.sqrt(k * (k + 2.0 * lam) / (4.0 * (k + lam) ** 2 - 1.0))
    z, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = vecs[0] ** 2
    M0 = w.sum()
    rho, m = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (rho, m))
    pos = rho > 0.0
    rp, mp = rho[pos], m[pos]
    u = mp / rp
    K = law.k_integral(rp)
    pv, dpv, d2pv = spec.derivatives(u[:, None] + K[:, None] * z)
    pw = pv @ w
    out = np.zeros((4, rho.size))
    out[:, pos] = (
        rp * pw / M0,
        rp / M0 * (u * pw + law.theta * K * (pv @ (z * w))),
        (dpv @ w) / M0,
        (d2pv @ w) / (rp * M0),
    )
    return out


def in_one_piece(law, spec, rho, m):
    """Where each state's kernel support [u - K, u + K] holds no kink."""
    u = m / rho
    K = law.k_integral(rho)
    kinks = np.array(oracle_kinks(spec.name))
    return ~(np.abs(kinks - u[:, None]) < K[:, None]).any(axis=1)


def roots_jacobi_rule(n, alpha, beta):
    """scipy's Gauss-Jacobi rule in the shape of entropy._jacobi_rule: the
    oracle of the Golub-Welsch rule, where it is finite."""
    z, w = roots_jacobi(n, alpha, beta)
    return z, w / w.sum()


def builtin_specs():
    return (
        EntropySpec.energy(),
        EntropySpec.cutoff_energy(1.0),
        EntropySpec.cutoff_energy(5.0),
        EntropySpec.signed_square(),
        EntropySpec.constant(2.0),
        EntropySpec.compact_bump(0.0, 1.0),
        EntropySpec.compact_bump(0.5, 4.0),
    )


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
            kinks=(),
            degrees=(1,),
        )
        pv = entropy_pair(law2, spec, np.array([1.0]), np.array([1.0]))
        assert pv.eta[0] == pytest.approx(1.0, rel=1e-12)

    def test_vacuum_all_zero(self, law2):
        pv = entropy_pair(law2, EntropySpec.energy(), np.array([0.0]), np.array([0.0]))
        assert pv.eta[0] == pv.q[0] == pv.deta_dm[0] == pv.d2eta_dm2[0] == 0.0

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 3.5])
    def test_gauss_kernel_matches_per_node_form(self, gamma):
        # q = rho (u psi@w + theta K psi@(z w)) against the per-node
        # integrand (u + theta K z) psi(u + K z) it replaces, on the short
        # rule of the in-piece states; vacuum nodes give zeros and leave the
        # other nodes' values, in-piece or split, as they are
        law = PressureLaw.polytropic(gamma)
        rng = np.random.default_rng(5)
        rho = rng.uniform(0.05, 3.0, 300)
        m = rng.standard_normal(300)
        rho[::17] = m[::17] = 0.0
        pos = rho > 0.0
        specs = (
            EntropySpec.energy(),
            EntropySpec.cutoff_energy(1.0),
            EntropySpec.compact_bump(0.0, 4.0),
        )
        for spec in specs:
            one = pos.copy()
            one[pos] = in_one_piece(law, spec, rho[pos], m[pos])
            assert one.sum() >= 20 and (pos & ~one).sum() >= (spec.name != "energy")
            z, w = entropy._jacobi_rule((max(spec.degrees) + 3) // 2, law.lam, law.lam)
            u = m[one] / rho[one]
            K = law.k_integral(rho[one])
            psi = spec.derivatives(u[:, None] + K[:, None] * z)[0]
            q = rho[one] * (((u[:, None] + law.theta * K[:, None] * z) * psi) @ w)
            pv = entropy_pair(law, spec, rho, m)
            assert np.max(np.abs(pv.q[one] - q)) <= 1e-14 * np.max(np.abs(q))
            solid = entropy_pair(law, spec, rho[pos], m[pos])
            for name in FIELDS:
                a, b = getattr(pv, name), getattr(solid, name)
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
        # the kink at s = 0 is a cut of the split rule; a fixed rule of 1024
        # nodes came only to 2e-9
        pv = entropy_pair(law2, EntropySpec.signed_square(), 1.3, 0.5)
        ref = adaptive_pair(law2, EntropySpec.signed_square(), 1.3, 0.5)
        for name, want in zip(FIELDS, ref):
            assert getattr(pv, name) == pytest.approx(want, rel=1e-12), name

    def test_golub_welsch_matches_roots_jacobi(self, monkeypatch):
        # every rule entropy_pair takes, short, end and interior, against
        # scipy's; then the pairs of in-piece and split states on scipy's
        for gamma in (1.05, 1.4, 5.0 / 3.0, 2.0, 3.0, 4.0, 7.0):
            lam = PressureLaw.polytropic(gamma).lam
            for n, alpha, beta in (
                *((n, lam, lam) for n in (1, 2, 3, 4)),
                (SPLIT_NODES, lam, 0.0),
                (SPLIT_NODES, 0.0, 0.0),
            ):
                got, want = entropy._jacobi_rule(n, alpha, beta), roots_jacobi_rule(n, alpha, beta)
                assert np.max(np.abs(got[0] - want[0])) <= 1e-13, (gamma, n, alpha, beta)
                assert np.max(np.abs(got[1] - want[1])) <= 1e-12 * want[1].max()
        rng = np.random.default_rng(21)
        rho = rng.uniform(0.05, 3.0, 2000)
        m = rng.standard_normal(2000)
        for gamma in (1.05, 1.4, 5.0 / 3.0, 2.0, 3.0, 4.0, 7.0):
            law = PressureLaw.polytropic(gamma)
            for spec in builtin_specs():
                got = entropy_pair(law, spec, rho, m)
                with monkeypatch.context() as mp:
                    mp.setattr(entropy, "_jacobi_rule", roots_jacobi_rule)
                    want = entropy_pair(law, spec, rho, m)
                for name in FIELDS:
                    a, b = getattr(got, name), getattr(want, name)
                    assert np.max(np.abs(a - b)) <= 1e-11 * np.max(np.abs(b)), (
                        gamma, spec.name, name,
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
            pv = entropy_pair(law2, spec, np.atleast_1d(rho), np.atleast_1d(m))
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

    @pytest.mark.parametrize(
        "law",
        [
            PressureLaw.polytropic(1.4),
            PressureLaw.polytropic(2.0, kappa=0.5),
            PressureLaw.composite(2.0, 1.6, 0.125, 0.15, 0.9, 1.4),
        ],
        ids=["gamma=1.4", "unscaled", "composite"],
    )
    def test_one_check_and_one_evaluation(self, law, monkeypatch):
        rng = np.random.default_rng(8)
        rho = np.concatenate(([0.0], rng.uniform(0.05, 3.0, 40), [0.9, 1.4]))
        m = rng.standard_normal(rho.size)
        m[0] = 0.0
        me = mechanical_energy_pair(law, rho, m)
        # the separate calls: e(rho) from internal_energy and again inside
        # rho_e_prime, with rho checked by each
        pos = rho > 0.0
        rp, mp = rho[pos], m[pos]
        eta = 0.5 * mp**2 / rp + rp * law.internal_energy(rp)
        q = 0.5 * mp**3 / rp**2 + mp * law.rho_e_prime(rp)
        assert np.array_equal(me.eta[pos], eta) and np.array_equal(me.q[pos], q)
        assert me.eta[0] == me.q[0] == me.deta_dm[0] == me.d2eta_dm2[0] == 0.0
        r, v = float(rho[5]), float(m[5])
        one = mechanical_energy_pair(law, r, v)  # floats for floats
        assert one.q == float(0.5 * v**3 / r**2 + v * law.rho_e_prime(np.array([r]))[0])
        calls = []
        for name in ("_check_pos", "_check_nonneg"):
            check = getattr(PressureLaw, name)
            monkeypatch.setattr(
                PressureLaw,
                name,
                staticmethod(lambda r, _c=check, _n=name: calls.append(_n) or _c(r)),
            )
        mechanical_energy_pair(law, rho, m)
        assert calls == ["_check_nonneg"]  # the pass's density check, the only one


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


# the gather-and-scatter forms of the energies, which each masked the
# vacuum itself: the oracles of their evaluation on the state's pass
def gathered_mechanical_pair(law, rho, m):
    pos = rho > 0.0
    out = np.zeros((4,) + rho.shape)
    rp, mp = rho[pos], m[pos]
    e = law._internal_energy(rp)
    (P,) = law._pressure_parts(rp, 0)
    out[0, pos] = 0.5 * mp**2 / rp + rp * e
    out[1, pos] = 0.5 * mp**3 / rp**2 + mp * (e + P / rp)
    out[2, pos] = mp / rp
    out[3, pos] = 1.0 / rp
    return out


def gathered_high_order_energy(law, rho, m, rho_inf):
    pos = rho > 0.0
    kin = np.zeros(rho.shape)
    kin[pos] = m[pos] ** 4 / (12.0 * rho[pos] ** 3) + law.internal_energy(
        rho[pos]
    ) * m[pos] ** 2 / rho[pos]
    g = law.high_order_potential(rho)
    g_inf = law.high_order_potential(rho_inf)
    gp_inf = law.dhigh_order_potential(rho_inf)
    return kin + g, kin + (g - g_inf - gp_inf * (rho - rho_inf))


def pass_batch(vacuum):
    """(3, 40) states across the composite blend window, with rho = m = 0
    on a few nodes if vacuum."""
    rng = np.random.default_rng(21)
    rho = rng.uniform(0.05, 3.0, (3, 40))
    m = rng.standard_normal((3, 40))
    if vacuum:
        rho[0, 0] = m[0, 0] = rho[1, 17] = m[1, 17] = rho[2, -1] = m[2, -1] = 0.0
    return rho, m


@pytest.mark.parametrize("vacuum", [True, False], ids=["vacuum", "positive"])
@pytest.mark.parametrize(
    "law",
    [
        PressureLaw.polytropic(1.4),
        PressureLaw.polytropic(2.0, kappa=0.5),
        PressureLaw.composite(2.0, 1.6, 0.125, 0.15, 0.9, 1.4),
    ],
    ids=["gamma=1.4", "unscaled", "composite"],
)
class TestEnergiesOnThePass:
    """The energies on the state's pass equal their gather-and-scatter
    forms bit for bit, with vacuum nodes and without."""

    def test_mechanical_energy_pair(self, law, vacuum):
        rho, m = pass_batch(vacuum)
        me = mechanical_energy_pair(law, rho, m)
        want = gathered_mechanical_pair(law, rho, m)
        for name, w in zip(FIELDS, want):
            assert np.array_equal(getattr(me, name), w), name

    def test_high_order_energy(self, law, vacuum):
        rho, m = pass_batch(vacuum)
        got = high_order_energy(law, rho, m, 1.2)
        want = gathered_high_order_energy(law, rho, m, 1.2)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


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
            oracle = EntropySpec(
                "oracle", lambda s, parts=parts: tuple(f(s) for f in parts),
                spec.kinks, spec.degrees,
            )
            pv = entropy_pair(law2, spec, rho, rho * u)
            ref = entropy_pair(law2, oracle, rho, rho * u)
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
        # the short rule on in-piece states: one call on (N, <= 4) nodes, so
        # that a silent fall-back to a long fixed rule fails here; straddling
        # states add one call on the split pieces' nodes
        calls = []

        def counted(spec):
            def derivatives(s):
                calls.append(s.shape)
                return spec.derivatives(s)

            return EntropySpec("counted", derivatives, spec.kinks, spec.degrees)

        bump = EntropySpec.compact_bump(0.0, 4.0)
        entropy_pair(law2, counted(bump), np.ones(5), np.zeros(5))
        assert calls == [(5, 4)]
        rho = np.full(3, 0.04)  # K = 0.2 about u = 0.5, 3.5 and 30
        m = rho * np.array([0.5, 3.5, 30.0])
        for spec in builtin_specs():
            assert in_one_piece(law2, spec, rho, m).all()
            calls.clear()
            entropy_pair(law2, counted(spec), rho, m)
            assert len(calls) == 1 and calls[0][0] == 3 and calls[0][1] <= 4, spec.name
        calls.clear()
        entropy_pair(law2, counted(bump), np.full(2, 16.0), np.array([0.0, 64.0]))  # u = 0, 4
        assert len(calls) == 2 and calls[0] == (1, 4)
        assert calls[1][1] == SPLIT_NODES and calls[1][0] >= 2


    def test_split_pieces_in_bounded_calls(self, law2, monkeypatch):
        # the pieces of straddling states reach derivatives in calls of at
        # most pressure.BLOCK_POINTS node-points, and the pairs do not depend on
        # how they are chunked; in-piece states take pair_nodes nodes
        assert [s.pair_nodes for s in builtin_specs()] == [2, 3, 3, 2, 1, 4, 4]
        bump = EntropySpec.compact_bump(0.0, 1.0)
        rng = np.random.default_rng(5)
        rho = rng.uniform(1.0, 1.3, 50)
        m = rng.uniform(-0.3, 0.3, 50)
        assert not in_one_piece(law2, bump, rho, m).any()
        whole = entropy_pair(law2, bump, rho, m)
        calls = []

        def derivatives(s):
            calls.append(s.shape)
            return bump.derivatives(s)

        counted = EntropySpec("counted", derivatives, bump.kinks, bump.degrees)
        monkeypatch.setattr(pressure, "BLOCK_POINTS", 7 * entropy.SPLIT_NODES)
        chunked = entropy_pair(law2, counted, rho, m)
        assert len(calls) > 10 and all(c[0] <= 7 and c[1] == entropy.SPLIT_NODES for c in calls)
        for name in FIELDS:
            a, b = getattr(chunked, name), getattr(whole, name)
            assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b)), name


class TestPieceRules:
    """The pieces each generator declares, the short exact rule on states
    inside one piece and the split rule on states that straddle a kink."""

    @pytest.mark.parametrize("spec", builtin_specs(), ids=lambda s: s.name)
    def test_declared_pieces(self, spec):
        # the kinks are the oracle's, and psi on each piece is a polynomial
        # of the declared degree: a least-squares fit of that degree through
        # points inside the piece leaves rounding residuals only
        assert spec.kinks == oracle_kinks(spec.name)
        assert len(spec.degrees) == len(spec.kinks) + 1
        edges = (-50.0, *spec.kinks, 50.0)
        for lo, hi, deg in zip(edges[:-1], edges[1:], spec.degrees):
            s = np.linspace(lo, hi, 19)[1:-1]
            psi = spec.derivatives(s)[0]
            fit = np.polyval(np.polyfit(s, psi, deg), s)
            assert np.max(np.abs(fit - psi)) <= 1e-9 * max(1.0, np.max(np.abs(psi))), (lo, hi)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_in_piece_matches_fixed_rule(self, gamma):
        # the short rule against the fixed 48- and 64-node rules it replaced
        # (measured <= 4.3e-15 of each field's largest value), with vacuum
        # nodes and 0-d input
        law = PressureLaw.polytropic(gamma)
        rng = np.random.default_rng(31)
        rho = rng.uniform(0.01, 3.0, 4000)
        m = rho * rng.uniform(-25.0, 25.0, 4000)
        for spec in builtin_specs():
            keep = np.nonzero(in_one_piece(law, spec, rho, m))[0][:300]
            assert keep.size >= 40, spec.name
            r, v = rho[keep], m[keep]
            r[::13] = v[::13] = 0.0
            pv = entropy_pair(law, spec, r, v)
            got = np.array([getattr(pv, name) for name in FIELDS])
            for n_nodes in (48, 64):
                want = fixed_rule_pair(law, spec, r, v, n_nodes)
                scale = np.max(np.abs(want), axis=1)
                err = np.max(np.abs(got - want), axis=1)
                assert np.all(err <= 1e-13 * np.maximum(scale, 1e-300)), (spec.name, n_nodes, err)
                assert not got[:, ::13].any()
            one = entropy_pair(law, spec, float(r[1]), float(v[1]))
            for name, want in zip(FIELDS, got[:, 1]):
                value = getattr(one, name)
                assert isinstance(value, float) and value == pytest.approx(want, rel=1e-14, abs=0)

    @staticmethod
    def straddling_states(law, spec):
        """Eight states of rho in [1, 1.3], |m| <= 0.3 whose support
        straddles a kink; eight whose kink lies within 1e-3 of a support
        end (1e-3, 1e-9, on either end, at two densities); and six whose
        kink lies where the weight peaks for large lam (at 0.5, 0.3 w and
        -3 w of the support, w = max(lam, 16)^-1/2, at two densities).  All
        straddle."""
        rng = np.random.default_rng(17)
        rho = rng.uniform(1.0, 1.3, 60)
        m = rng.uniform(-0.3, 0.3, 60)
        split = ~in_one_piece(law, spec, rho, m)
        rho, m = rho[split][:8], m[split][:8]
        assert rho.size == 8
        k = oracle_kinks(spec.name)[-1]
        w = 1.0 / math.sqrt(max(law.lam, 16.0))
        at = [
            (r, r * (k - c * float(law.k_integral(r))))
            for c in (1.0 - 1e-3, -1.0 + 1e-3, 1.0 - 1e-9, -1.0 + 1e-9, 0.5, 0.3 * w, -3.0 * w)
            for r in (0.6, 1.3)
        ]
        at_rho, at_m = np.array(at).T
        rho, m = np.concatenate((rho, at_rho)), np.concatenate((m, at_m))
        assert not in_one_piece(law, spec, rho, m).any()
        return rho, m

    @pytest.mark.parametrize("gamma", (*GAMMAS, 1.08, 1.01, 1.001, 1.0 + 1e-9))
    def test_straddling_states_match_adaptive(self, gamma):
        # the split rule against the adaptive oracle, all four fields within
        # 1e-12 of each field's largest value (measured <= 1.2e-14 for
        # every gamma here, lam ~ 1e9 at gamma = 1 + 1e-9 included; the
        # fixed 64-node rule was off by up to 6.2e-2).  Where the kink lies within
        # 1e-3 of a support end, the split rule is no worse than the fixed
        # rule on any state and field, or both are at rounding
        law = PressureLaw.polytropic(gamma)
        specs = (
            EntropySpec.compact_bump(0.0, 1.0),
            EntropySpec.cutoff_energy(1.0),
            EntropySpec.signed_square(),
        )
        for spec in specs:
            rho, m = self.straddling_states(law, spec)
            want = np.array([adaptive_pair(law, spec, r, v) for r, v in zip(rho, m)]).T
            pv = entropy_pair(law, spec, rho, m)
            got = np.array([getattr(pv, name) for name in FIELDS])
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            err = np.abs(got - want) / scale
            assert np.all(err <= 1e-12), (spec.name, err.max(axis=1))
            old = np.abs(fixed_rule_pair(law, spec, rho, m, 64) - want) / scale
            assert np.all(err[:, 8:16] <= np.maximum(old[:, 8:16], 1e-13)), spec.name

    @pytest.mark.parametrize("gamma", (2.0, 1.05, 1.0 + 1e-9))
    def test_split_pieces_tile_and_grade(self, gamma):
        # the pieces of each state tile [-1, 1], every kink inside the
        # support and every peak cut is a piece end, and no piece is more
        # than seven times as long as its distance from an end of [-1, 1]
        # that it does not touch; where the weight peaks (lam > 12), it
        # changes by at most e^16 along a piece that touches no end of
        # [-1, 1], and an end piece holds at most e^-48 of the peak
        law = PressureLaw.polytropic(gamma)
        lam = law.lam
        rng = np.random.default_rng(3)
        kinks = np.array([-2.0, -1.0, 1.0, 2.0])
        u = rng.uniform(-2.5, 2.5, 400)
        K = rng.uniform(0.1, 3.0, 400)
        d = np.geomspace(1e-16, 0.5, 100)
        u[:100] = 1.0 - (1.0 - d) * K[:100]  # kink +1 at d from the right end
        u[100:200] = -2.0 + (1.0 - d) * K[100:200]  # kink -2 near the left end
        keep = (np.abs(kinks - u[:, None]) < K[:, None]).any(axis=1)
        u, K = u[keep], K[keep]
        cuts = entropy._peak_cuts(lam)
        assert cuts.size == (7 if lam > 12.0 else 0)
        a, b, owner = entropy._split_pieces(kinks, u, K, cuts)
        assert np.array_equal(np.unique(owner), np.arange(u.size))
        starts = np.searchsorted(owner, np.arange(u.size))
        ends = np.append(starts[1:], owner.size) - 1
        assert np.all(a[starts] == -1.0) and np.all(b[ends] == 1.0)
        inner = np.ones(owner.size, dtype=bool)
        inner[ends] = False
        assert np.array_equal(b[inner], a[np.nonzero(inner)[0] + 1])
        assert np.all(b > a)
        c = (kinks - u[:, None]) / K[:, None]
        for i in range(u.size):
            cut = set(a[owner == i])
            assert all(v in cut for v in (*c[i][np.abs(c[i]) < 1.0], *cuts))
        far = np.minimum(np.where(a > -1.0, 1.0 + a, np.inf), np.where(b < 1.0, 1.0 - b, np.inf))
        assert np.all(b - a <= 7.0 * far)
        if cuts.size:
            lo = np.where(a * b > 0.0, np.minimum(np.abs(a), np.abs(b)), 0.0)
            drop = -lam * np.log1p(-lo**2)  # the weight's fall from its peak
            tol = 1.0 + 1e-9
            assert np.all(drop[starts] * tol >= 48.0) and np.all(drop[ends] * tol >= 48.0)
            mid = (a > -1.0) & (b < 1.0)
            hi = np.maximum(np.abs(a[mid]), np.abs(b[mid]))
            span = -lam * np.log1p(-hi**2) - drop[mid]
            assert np.all((span <= 16.0 * tol) | (drop[mid] * tol >= 48.0))


class TestSpecValidation:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: EntropySpec.cutoff_energy(0.0),
            lambda: EntropySpec.cutoff_energy(-1.0),
            lambda: EntropySpec.cutoff_energy(float("nan")),
            lambda: EntropySpec.cutoff_energy(float("inf")),
            lambda: EntropySpec.compact_bump(0.0, -1.0),
            lambda: EntropySpec.compact_bump(0.0, 0.0),
            lambda: EntropySpec.compact_bump(0.0, float("nan")),
            lambda: EntropySpec.compact_bump(float("nan"), 1.0),
            lambda: EntropySpec.compact_bump(float("inf"), 1.0),
            lambda: EntropySpec("x", None, (1.0, 0.0), (2, 2, 2)),
            lambda: EntropySpec("x", None, (0.0, 0.0), (2, 2, 2)),
            lambda: EntropySpec("x", None, (float("nan"),), (2, 2)),
            lambda: EntropySpec("x", None, (0.0,), (2,)),
            lambda: EntropySpec("x", None, (), (-1,)),
            lambda: EntropySpec("x", None, (), (1.5,)),
        ],
    )
    def test_bad_generator_rejected(self, make):
        with pytest.raises(ConfigError):
            make()


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
