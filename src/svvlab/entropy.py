"""Entropy pairs for 1D isentropic gas dynamics.

For the polytropic law every weak entropy pair is generated from a scalar
function psi through the explicit kernel with exponent
lambda = (3 - gamma) / (2 (gamma - 1)):

    eta(rho, u) = rho / M0 * int_{-1}^{1} psi(u + K(rho) z) (1 - z^2)^lambda dz
    q(rho, u)   = rho / M0 * int_{-1}^{1} (u + theta K(rho) z) psi(...) (1 - z^2)^lambda dz

with K(rho) the wave integral and M0 = int (1 - z^2)^lambda dz.  The
normalization M0 is fixed so that psi(s) = s^2/2 reproduces the mechanical
energy pair exactly (and psi = 1 gives eta = rho).  Quadrature is
Gauss-Jacobi in z with the weight (1 - z^2)^lambda, which also covers
gamma > 3 where lambda is negative and the raw kernel is endpoint-singular,
and gamma near 1 where lambda is large and the weight is a narrow peak.

Momentum derivatives of eta are obtained by differentiating under the
integral (quadrature of psi' and psi''), not by numerical differencing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .pressure import PressureLaw


# ---------------------------------------------------------------------------
# raw kernels (paper normalization, scaled-kappa polytropic form)
# ---------------------------------------------------------------------------

def _lam_theta(gamma):
    if gamma <= 1.0:
        raise DomainError(f"kernel requires gamma > 1, got {gamma}")
    theta = 0.5 * (gamma - 1.0)
    lam = (3.0 - gamma) / (2.0 * (gamma - 1.0))
    return lam, theta


def kernel_chi(gamma, rho, u, s):
    """Entropy kernel [rho^(2 theta) - (s-u)^2]_+^lambda.

    For gamma > 3 (lambda < 0) the value on the support boundary is
    +inf; it is flagged, not raised, and only ever consumed by the
    weighted quadrature which absorbs the singularity into the weight.
    """
    lam, theta = _lam_theta(gamma)
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0):
        raise DomainError("density must be nonnegative")
    bracket = rho ** (2.0 * theta) - (np.asarray(s, dtype=float) - u) ** 2
    with np.errstate(divide="ignore"):
        out = np.where(
            bracket > 0.0,
            np.where(bracket > 0.0, bracket, 1.0) ** lam,
            np.where((bracket == 0.0) & (lam < 0.0), np.inf, 0.0),
        )
    return out if out.ndim else float(out)


def kernel_sigma(gamma, rho, u, s):
    """Entropy flux kernel (theta s + (1 - theta) u) [rho^(2 theta) - (u-s)^2]_+^lambda."""
    _, theta = _lam_theta(gamma)
    pref = theta * np.asarray(s, dtype=float) + (1.0 - theta) * np.asarray(u)
    out = pref * kernel_chi(gamma, rho, u, s)
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def psi_cutoff(R, s):
    """Three-piece C^2 cut-off approximation of s^2/2 and its derivatives.

    Returns (psi_R, psi_R', psi_R'').  psi_R'' is the piecewise-linear hat:
    1 on |s| <= R, (2R - |s|)/R on R <= |s| <= 2R, 0 beyond.  When every
    |s| <= R the inner piece is evaluated without masks, with the same
    expressions and so the same values.
    """
    if R <= 0.0:
        raise DomainError(f"cutoff scale R must be positive, got {R}")
    s_in = np.asarray(s, dtype=float)
    s = np.atleast_1d(s_in)
    a = np.abs(s)
    inner = a <= R
    if inner.all():
        val, d1, d2 = 0.5 * s**2, s.copy(), np.ones_like(s)
    else:
        sgn = np.sign(s)
        mid = (a > R) & (a < 2.0 * R)
        outer = a >= 2.0 * R

        val = np.empty_like(s)
        d1 = np.empty_like(s)
        d2 = np.empty_like(s)

        val[inner] = 0.5 * s[inner] ** 2
        d1[inner] = s[inner]
        d2[inner] = 1.0

        am = a[mid]
        val[mid] = R**2 / 6.0 - 0.5 * R * am + am**2 - am**3 / (6.0 * R)
        d1[mid] = sgn[mid] * (-0.5 * R + 2.0 * am - am**2 / (2.0 * R))
        d2[mid] = (2.0 * R - am) / R

        ao = a[outer]
        val[outer] = -7.0 * R**2 / 6.0 + 1.5 * R * ao
        d1[outer] = sgn[outer] * 1.5 * R
        d2[outer] = 0.0

    if s_in.ndim == 0:
        return float(val[0]), float(d1[0]), float(d2[0])
    return val, d1, d2


@dataclass(frozen=True)
class EntropySpec:
    """A generating function psi: derivatives(s) returns (psi, psi', psi'')
    at s from one call.  kinks lists s-locations where psi is not smooth,
    where an adaptive quadrature would split."""

    name: str
    derivatives: callable
    kinks: tuple = ()

    @staticmethod
    def energy() -> "EntropySpec":
        def derivatives(s):
            s = np.asarray(s, dtype=float)
            return 0.5 * s**2, s, np.ones_like(s)

        return EntropySpec("energy", derivatives)

    @staticmethod
    def cutoff_energy(R: float) -> "EntropySpec":
        return EntropySpec(
            f"cutoff_energy(R={R:g})",
            lambda s: psi_cutoff(R, s),
            kinks=(-2.0 * R, -R, R, 2.0 * R),
        )

    @staticmethod
    def signed_square() -> "EntropySpec":
        """psi(s) = s|s|/2, the generator of the special Goursat entropy."""

        def derivatives(s):
            s = np.asarray(s, dtype=float)
            a = np.abs(s)
            return 0.5 * s * a, a, np.sign(s)

        return EntropySpec("signed_square", derivatives, kinks=(0.0,))

    @staticmethod
    def constant(c: float = 1.0) -> "EntropySpec":
        def derivatives(s):
            s = np.asarray(s, dtype=float)
            return np.full_like(s, c), np.zeros_like(s), np.zeros_like(s)

        return EntropySpec(f"constant({c:g})", derivatives)

    @staticmethod
    def compact_bump(center: float = 0.0, width: float = 1.0) -> "EntropySpec":
        """Compactly supported C^2 generator (1 - t^2)^3 on |t| < 1."""

        def derivatives(s):
            # t, t^2 and b = 1 - t^2 are shared and then overwritten in
            # place: on entropy_pair's blocks of 2^16 nodes, every further
            # live node array costs more in cache misses than it saves
            shape = np.shape(s)
            t = np.array(s, dtype=float, ndmin=1)
            t -= center
            t /= width
            outside = ~(np.abs(t) < 1.0)
            t2 = t**2
            b = 1.0 - t2
            b2 = b**2
            psi = b**3
            psi[outside] = 0.0
            dpsi = t
            dpsi *= -6.0
            dpsi *= b2
            dpsi /= width
            dpsi[outside] = 0.0
            d2psi = t2
            d2psi *= 24.0
            d2psi *= b
            b2 *= 6.0
            d2psi -= b2
            d2psi /= width**2
            d2psi[outside] = 0.0
            return psi.reshape(shape), dpsi.reshape(shape), d2psi.reshape(shape)

        return EntropySpec(
            f"compact_bump({center:g},{width:g})",
            derivatives,
            kinks=(center - width, center + width),
        )


@dataclass(frozen=True)
class EntropyPairValue:
    """(eta, q) and the two momentum derivatives of eta at one or many states."""

    eta: object
    q: object
    deta_dm: object
    d2eta_dm2: object


# ---------------------------------------------------------------------------
# quadrature-based entropy pairs (polytropic only)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _jacobi_rule(n_nodes: int, lam: float):
    """Nodes, weights and weight sum of the n-node Gauss rule for
    (1 - z^2)^lam, by Golub-Welsch: the nodes are the eigenvalues of the
    symmetric Jacobi matrix of the Gegenbauer recurrence, the weights the
    squared first components of its eigenvectors (normalized to sum 1).
    It stays finite however large lam is."""
    k = np.arange(1.0, n_nodes)
    off = np.sqrt(k * (k + 2.0 * lam) / (4.0 * (k + lam) ** 2 - 1.0))
    z, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = vecs[0] ** 2
    return z, w, float(w.sum())


def _require_polytropic(law: PressureLaw):
    if not law.is_polytropic:
        raise DomainError(
            "psi-generated entropy pairs exist in closed form only for the "
            "polytropic law; use the Goursat solver or the built-in energies "
            "for composite laws"
        )


def entropy_pair(
    law: PressureLaw,
    spec: EntropySpec,
    rho,
    m,
    n_nodes: int = 64,
) -> EntropyPairValue:
    """Evaluate (eta, q, d eta/dm, d^2 eta/dm^2) for a gamma-law gas.

    Vectorized over (rho, m), with a fixed n_nodes-point Gauss-Jacobi rule
    (exact for polynomial psi).
    """
    _require_polytropic(law)
    lam = law.lam
    theta = law.theta

    rho = np.asarray(rho, dtype=float)
    m = np.asarray(m, dtype=float)
    if np.any(rho < 0.0):
        raise DomainError("density must be nonnegative")
    scalar = rho.ndim == 0 and m.ndim == 0
    rho, m = np.broadcast_arrays(np.atleast_1d(rho), np.atleast_1d(m))
    shape = rho.shape
    rho = rho.ravel()
    m = m.ravel()

    pos = rho > 0.0
    solid = pos.all()  # no vacuum node: no gathers and scatters
    rp, mp = (rho, m) if solid else (rho[pos], m[pos])
    up = mp / rp
    Kp = law.k_integral(rp)  # half-width of the kernel support in s around u

    z, w, M0 = _jacobi_rule(n_nodes, lam)
    s_nodes = up[:, None] + Kp[:, None] * z
    pv, dpv, d2pv = spec.derivatives(s_nodes)
    pw = pv @ w
    vals = (
        rp * pw / M0,
        rp / M0 * (up * pw + theta * Kp * (pv @ (z * w))),
        (dpv @ w) / M0,
        (d2pv @ w) / (rp * M0),
    )
    if not solid:
        full = np.zeros((4, rho.size))
        full[:, pos] = vals
        vals = full
    eta, qf, dm, d2m = vals

    if scalar:
        return EntropyPairValue(float(eta[0]), float(qf[0]), float(dm[0]), float(d2m[0]))
    return EntropyPairValue(
        eta.reshape(shape), qf.reshape(shape), dm.reshape(shape), d2m.reshape(shape)
    )


# ---------------------------------------------------------------------------
# closed-form energies (any pressure law)
# ---------------------------------------------------------------------------

def mechanical_energy_pair(law: PressureLaw, rho, m) -> EntropyPairValue:
    """eta_E = m^2/(2 rho) + rho e(rho) and its flux and m-derivatives."""
    rho = np.asarray(rho, dtype=float)
    m = np.asarray(m, dtype=float)
    scalar = rho.ndim == 0 and m.ndim == 0
    rho, m = np.broadcast_arrays(np.atleast_1d(rho), np.atleast_1d(m))
    if np.any((rho == 0.0) & (m != 0.0)):
        raise DomainError("vacuum with nonzero momentum has infinite energy")
    if np.any(rho < 0.0):
        raise DomainError("density must be nonnegative")

    pos = rho > 0.0
    eta = np.zeros(rho.shape)
    qf = np.zeros(rho.shape)
    dm = np.zeros(rho.shape)
    d2m = np.zeros(rho.shape)
    rp, mp = rho[pos], m[pos]
    e = law.internal_energy(rp)
    eta[pos] = 0.5 * mp**2 / rp + rp * e
    qf[pos] = 0.5 * mp**3 / rp**2 + mp * law.rho_e_prime(rp)
    dm[pos] = mp / rp
    d2m[pos] = 1.0 / rp

    if scalar:
        return EntropyPairValue(float(eta[0]), float(qf[0]), float(dm[0]), float(d2m[0]))
    return EntropyPairValue(eta, qf, dm, d2m)


def relative_energy(law: PressureLaw, rho, m, rho_inf):
    """m^2/(2 rho) + e*(rho, rho_inf); the natural finiteness functional."""
    rho = np.asarray(rho, dtype=float)
    m = np.asarray(m, dtype=float)
    scalar = rho.ndim == 0 and m.ndim == 0
    rho, m = np.broadcast_arrays(np.atleast_1d(rho), np.atleast_1d(m))
    if np.any((rho == 0.0) & (m != 0.0)):
        raise DomainError("vacuum with nonzero momentum has infinite energy")
    kin = np.zeros(rho.shape)
    pos = rho > 0.0
    kin[pos] = 0.5 * m[pos] ** 2 / rho[pos]
    out = kin + law.relative_internal_energy(rho, rho_inf)
    return float(out[0]) if scalar else out


def high_order_energy(law: PressureLaw, rho, m, rho_inf):
    """Quartic energy m^4/(12 rho^3) + e(rho) m^2 / rho + g(rho).

    Returns (absolute, relative) where the relative version replaces g by
    its Bregman gap about rho_inf.
    """
    rho = np.asarray(rho, dtype=float)
    m = np.asarray(m, dtype=float)
    scalar = rho.ndim == 0 and m.ndim == 0
    rho, m = np.broadcast_arrays(np.atleast_1d(rho), np.atleast_1d(m))
    if np.any((rho == 0.0) & (m != 0.0)):
        raise DomainError("vacuum with nonzero momentum has infinite energy")
    pos = rho > 0.0
    kin = np.zeros(rho.shape)
    kin[pos] = m[pos] ** 4 / (12.0 * rho[pos] ** 3) + law.internal_energy(
        rho[pos]
    ) * m[pos] ** 2 / rho[pos]
    g = law.high_order_potential(rho)
    g_inf = law.high_order_potential(rho_inf)
    gp_inf = law.dhigh_order_potential(rho_inf)
    absolute = kin + g
    relative = kin + (g - g_inf - gp_inf * (rho - rho_inf))
    if scalar:
        return float(absolute[0]), float(relative[0])
    return absolute, relative


def riemann_invariants(law: PressureLaw, rho, m):
    """(w1, w2) = (u - K(rho), u + K(rho)); always w1 <= w2."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise DomainError("Riemann invariants require rho > 0")
    u = np.asarray(m, dtype=float) / rho
    K = law.k_integral(rho)
    w1 = u - K
    w2 = u + K
    if np.ndim(w1) == 0:
        return float(w1), float(w2)
    return w1, w2
