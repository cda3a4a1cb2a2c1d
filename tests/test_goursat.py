"""Characteristic-coordinate solver for the special interior entropy."""

import numpy as np
import pytest

from svvlab.entropy import EntropySpec, entropy_pair
from svvlab import goursat
from svvlab.goursat import goursat_solve
from svvlab.pressure import PressureLaw


@pytest.fixture(scope="module")
def law2():
    return PressureLaw.polytropic(2.0)


@pytest.fixture(scope="module")
def table(law2):
    return goursat_solve(law2, rho_max=4.0, resolution=128)


def _oracle(law, rho, u):
    pv = entropy_pair(law, EntropySpec.signed_square(), rho, rho * u)
    return pv.eta


class TestBoundary:
    def test_boundary_rows_exact(self, table):
        assert table.boundary_residual() < 1e-13

    def test_outside_region_energy_branches(self, law2, table):
        # beyond |u| = K(rho), the entropy continues as +-(mechanical energy)
        rho = np.array([1.0])
        K = law2.k_integral(1.0)
        e = law2.internal_energy(1.0)
        for sgn in (+1.0, -1.0):
            u = sgn * (K + 0.5)
            val = table.eval(rho, np.array([u]))
            ref = sgn * (0.5 * 1.0 * u**2 + 1.0 * e)
            assert val[0] == pytest.approx(ref, rel=1e-12)


class TestInterior:
    def test_matches_quadrature_oracle(self, law2, table):
        rng = np.random.default_rng(3)
        rho = rng.uniform(0.2, 3.0, 60)
        u = rng.uniform(-0.9, 0.9, 60) * law2.k_integral(rho)
        err = np.abs(table.eval(rho, u) - _oracle(law2, rho, u))
        rel = err / np.maximum(np.abs(_oracle(law2, rho, u)), 1e-30)
        assert rel.max() < 1e-2  # 1e-3 is reached at resolution 256

    def test_odd_in_u(self, law2, table):
        rho = np.array([1.5, 0.8])
        u = np.array([0.3, -0.4])
        assert np.allclose(table.eval(rho, u), -table.eval(rho, -u), rtol=1e-10)

    def test_refinement_order(self, law2):
        rng = np.random.default_rng(5)
        rho = rng.uniform(0.3, 3.0, 40)
        u = rng.uniform(-0.8, 0.8, 40) * law2.k_integral(rho)
        ref = _oracle(law2, rho, u)
        errs = []
        for res in (64, 128, 256):
            t = goursat_solve(law2, rho_max=4.0, resolution=res)
            errs.append(np.max(np.abs(t.eval(rho, u) - ref)))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert min(order1, order2) >= 1.5


class TestCompositeLaw:
    def test_runs_and_hits_boundary(self):
        law = PressureLaw.composite(
            gamma1=2.2, gamma2=1.6, kappa1=0.15, kappa2=0.2, rho_lo=1.0, rho_hi=2.5
        )
        t = goursat_solve(law, rho_max=3.0, resolution=64)
        # the composite K-inverse is tabulated, so the boundary is met to
        # interpolation accuracy rather than machine precision
        assert t.boundary_residual() < 1e-5
        # interior value finite and odd
        v = t.eval(np.array([1.5]), np.array([0.2]))
        assert np.isfinite(v[0])


@pytest.mark.parametrize(
    "law",
    [
        PressureLaw.polytropic(1.4),
        PressureLaw.composite(2.2, 1.6, 0.15, 0.2, 1.0, 2.5),
    ],
    ids=["polytropic", "composite"],
)
def test_k_second_from_one_pressure_call(law):
    # K'' from one (P, P', P'') evaluation has the bits of the formula with
    # P' and P'' evaluated separately
    rho = np.concatenate((np.geomspace(1e-12, 1e-3, 7), np.linspace(0.5, 4.0, 29)))
    pp = law.dpressure(rho)
    want = law.d2pressure(rho) / (2.0 * np.sqrt(pp) * rho) - np.sqrt(pp) / rho**2
    assert np.array_equal(goursat._k_second(law, rho), want)
