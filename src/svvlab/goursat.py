"""Characteristic-coordinate solver for the special entropy.

The entropy wave equation  d2_rho eta = K'(rho)^2 d2_u eta  becomes, in the
characteristic variables a = u + K(rho), b = K(rho) - u,

    eta_ab = C(a + b) (eta_a + eta_b),      C = -K'' / (4 K'^2),

a Goursat problem on the quarter plane a, b >= 0 with data on the two
characteristics a = 0 and b = 0 (u = -K and u = +K), where the special
entropy equals -(rho u^2/2 + rho e) and +(rho u^2/2 + rho e).

The marching scheme is the standard second-order box scheme centered on
each cell.  The coefficient C blows up like 1/(a+b) at the vacuum vertex;
cells where the box solve would degenerate (only possible when the
vacuum kernel exponent lambda_1 >= ~1/2) are seeded from the exact
self-similar power-law solution, which is the entropy generated by
psi(s) = s|s|/2 and is exact there because every pressure law in this
package is a pure power law near the vacuum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import EntropySpec, entropy_pair
from .errors import DomainError, NumericalError
from .pressure import PressureLaw


def _k_prime(law: PressureLaw, rho):
    return np.sqrt(law.dpressure(rho)) / rho


def _k_second(law: PressureLaw, rho):
    """K''(rho) of an array rho > 0."""
    _, pp, ppp = law._pressure_parts(rho, 2)
    return ppp / (2.0 * np.sqrt(pp) * rho) - np.sqrt(pp) / rho**2


def _k_inverse(law: PressureLaw, k_values, rho_max):
    """Invert the monotone wave integral K on [0, K(rho_max)]."""
    k_values = np.asarray(k_values, dtype=float)
    if law.is_polytropic:
        b = np.sqrt(law.kappa * law.gamma) / law.theta
        return (np.maximum(k_values, 0.0) / b) ** (1.0 / law.theta)
    # dense monotone table; K ~ rho^theta1 near 0 handled by the closed form
    rho_tab = np.concatenate(
        [[0.0], np.geomspace(1e-8 * rho_max, rho_max * (1.0 + 1e-12), 4000)]
    )
    k_tab = np.concatenate([[0.0], law.k_integral(rho_tab[1:])])
    return np.interp(k_values, k_tab, rho_tab)


@dataclass(frozen=True)
class GoursatTable:
    """Special entropy on the characteristic grid a_i = i h, b_j = j h.

    eta[i, j] is defined on the triangle i + j <= n; rho and u follow from
    K(rho) = (a + b)/2 and u = (a - b)/2.
    """

    law: PressureLaw
    h: float
    n: int
    eta: np.ndarray  # (n+1, n+1), NaN outside the triangle
    rho_max: float
    seeded_cells: int

    @property
    def k_max(self) -> float:
        return 0.5 * self.n * self.h

    def eval(self, rho, u):
        """Bilinear interpolation of the special entropy at (rho, u).

        Outside |u| <= K(rho) the closed-form branches +-(rho u^2/2 + rho e)
        are returned.
        """
        rho = np.asarray(rho, dtype=float)
        u = np.asarray(u, dtype=float)
        scalar = rho.ndim == 0 and u.ndim == 0
        rho, u = np.broadcast_arrays(np.atleast_1d(rho), np.atleast_1d(u))
        if np.any(rho < 0.0):
            raise DomainError("density must be nonnegative")
        K = np.where(rho > 0.0, self.law.k_integral(np.maximum(rho, 1e-300)), 0.0)
        if np.any(K > self.k_max * (1.0 + 1e-12)):
            raise DomainError("state outside the tabulated density range")
        energy = 0.5 * rho * u**2 + rho * self.law.internal_energy(rho)
        out = np.where(u >= K, energy, np.where(u <= -K, -energy, 0.0))

        interior = np.abs(u) < K
        if interior.any():
            a = (u[interior] + K[interior]) / self.h
            b = (K[interior] - u[interior]) / self.h
            i = np.clip(np.floor(a).astype(int), 0, self.n - 1)
            j = np.clip(np.floor(b).astype(int), 0, self.n - 1)
            fa = a - i
            fb = b - j
            v = (
                (1 - fa) * (1 - fb) * self._cell(i, j)
                + fa * (1 - fb) * self._cell(i + 1, j)
                + (1 - fa) * fb * self._cell(i, j + 1)
                + fa * fb * self._cell(i + 1, j + 1)
            )
            out[interior] = v
        return float(out[0]) if scalar else out

    def _cell(self, i, j):
        # cells just outside the triangle carry the odd extension of the
        # boundary data so that boundary-adjacent interpolation stays exact
        v = self.eta[np.minimum(i, self.n), np.minimum(j, self.n)]
        return np.where(np.isnan(v), 0.0, v)

    def boundary_residual(self) -> float:
        """Max error of the stored table against the b = 0 boundary data."""
        i = np.arange(self.n + 1)
        a = i * self.h
        rho = _k_inverse(self.law, 0.5 * a, self.rho_max * 1.0001)
        data = 0.5 * rho * (0.5 * a) ** 2 + rho * self.law.internal_energy(rho)
        return float(np.nanmax(np.abs(self.eta[:, 0] - data)))


def goursat_solve(law: PressureLaw, rho_max: float, resolution: int) -> GoursatTable:
    """March the Goursat problem outward from the vacuum vertex.

    resolution is the number of grid intervals along each characteristic
    axis; the table covers {|u| <= K(rho), rho <= rho_max}.
    """
    if rho_max <= 0.0:
        raise DomainError("rho_max must be positive")
    if resolution < 8:
        raise DomainError("resolution must be at least 8")
    n = int(resolution)
    k_max = float(law.k_integral(rho_max))
    h = 2.0 * k_max / n

    eta = np.full((n + 1, n + 1), np.nan)

    # boundary data on b = 0 (u = +K) and a = 0 (u = -K)
    idx = np.arange(n + 1)
    k_half = 0.5 * idx * h
    rho_b = _k_inverse(law, k_half, rho_max)
    data = 0.5 * rho_b * k_half**2 + rho_b * law.internal_energy(rho_b)
    eta[:, 0] = data
    eta[0, :] = -data

    # per-anti-diagonal coefficient C h evaluated at the cell centers
    d_idx = np.arange(1, 2 * n)  # i + j - 1 for interior cells
    rho_c = _k_inverse(law, 0.5 * d_idx * h, rho_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        Ch = np.where(
            rho_c > 0.0,
            -_k_second(law, np.maximum(rho_c, 1e-300))
            / (4.0 * _k_prime(law, np.maximum(rho_c, 1e-300)) ** 2)
            * h,
            np.inf,
        )

    # the pure power law the pressure reduces to near the vacuum
    vac_law = law if law.is_polytropic else law._near_law
    seed_spec = EntropySpec.signed_square()
    seeded = 0

    for d in range(2, 2 * n + 1):  # d = i + j over the full square
        i = np.arange(max(1, d - n), min(d, n + 1))
        j = d - i
        ch = Ch[d - 2]  # coefficient at centers of this anti-diagonal
        degenerate = (not np.isfinite(ch)) or abs(1.0 - ch) < 0.5 or ch > 1.0
        if degenerate:
            rho_d = _k_inverse(law, 0.5 * d * h, rho_max)
            if (not law.is_polytropic) and rho_d > law.rho_lo:
                raise NumericalError(
                    "degenerate Goursat cell outside the power-law vacuum "
                    "regime; refine the grid"
                )
            a = i * h
            b = j * h
            u = 0.5 * (a - b)
            K = 0.5 * (a + b)
            rho = _k_inverse(vac_law, K, rho_max)
            pv = entropy_pair(vac_law, seed_spec, rho, rho * u, n_nodes=96)
            eta[i, j] = pv.eta
            seeded += int(len(i))
            continue
        eta[i, j] = (
            eta[i - 1, j] + eta[i, j - 1] - (1.0 + ch) * eta[i - 1, j - 1]
        ) / (1.0 - ch)

    return GoursatTable(law=law, h=h, n=n, eta=eta, rho_max=rho_max, seeded_cells=seeded)


def goursat_flux(table: GoursatTable, rho_grid, u_count: int = 129):
    """Entropy flux of the special entropy on a regular (rho, u) grid.

    Integrates q_u = rho eta_rho + u eta_u from the a = 0 characteristic,
    where the flux equals that of -eta_E.  Returns (u_grids, eta, q) as
    lists over rho_grid (the u-extent depends on rho).
    """
    law = table.law
    out = []
    for rho in np.asarray(rho_grid, dtype=float):
        K = float(law.k_integral(rho))
        u = np.linspace(-K, K, u_count)
        du = u[1] - u[0]
        eta_v = table.eval(np.full_like(u, rho), u)
        # eta_rho via central differences of the table
        drho = 1e-4 * max(rho, 1.0)
        if rho - drho <= 0:
            drho = 0.5 * rho
        eta_p = table.eval(np.full_like(u, rho + drho), u)
        eta_m = table.eval(np.full_like(u, rho - drho), u)
        eta_rho = (eta_p - eta_m) / (2.0 * drho)
        eta_u = np.gradient(eta_v, du)
        integrand = rho * eta_rho + u * eta_u
        q0 = -(0.5 * rho * (-K) ** 3 + rho * (-K) * law.rho_e_prime(rho))
        q = q0 + np.concatenate(
            [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * du)]
        )
        out.append((u, eta_v, q))
    return out
