"""Entropy pairs for 1D isentropic gas dynamics.

For the polytropic law every weak entropy pair is generated from a scalar
function psi through the explicit kernel with exponent
lambda = (3 - gamma) / (2 (gamma - 1)):

    eta(rho, u) = rho / M0 * int_{-1}^{1} psi(u + K(rho) z) (1 - z^2)^lambda dz
    q(rho, u)   = rho / M0 * int_{-1}^{1} (u + theta K(rho) z) psi(...) (1 - z^2)^lambda dz

with K(rho) the wave integral and M0 = int (1 - z^2)^lambda dz.  The
normalization M0 is fixed so that psi(s) = s^2/2 reproduces the mechanical
energy pair exactly (and psi = 1 gives eta = rho).

Every generator declares its pieces: the s-locations where it stops being
one polynomial (its kinks) and the degree of each piece.  A state whose
kernel support [u - K, u + K] lies inside one piece is integrated by the
Gauss-Jacobi rule for (1 - z^2)^lambda of ceil((d + 2) / 2) nodes, d the
largest degree, which is exact for all four fields (the flux integrand
z psi has degree d + 1).  A state whose support straddles a kink is split
there, and each piece takes a SPLIT_NODES-point Gauss rule that holds the
endpoint factor of the weight at -1 or +1 it touches (none for an interior
piece).  The other factor stays in the integrand; where a kink lies near a
support end, that factor's singularity is close, so the piece is cut
further in a geometric progression toward that end.  Where lambda is large
(gamma near 1) the weight is a narrow peak at 0, and the support is also
cut at 0 and along the peak's flanks.  All rules are Golub-Welsch (Golub &
Welsch, Math. Comp. 1969), which also covers gamma > 3 where lambda is
negative and the raw kernel is endpoint-singular.

Momentum derivatives of eta are obtained by differentiating under the
integral (quadrature of psi' and psi''), not by numerical differencing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, log, log1p, pi

import numpy as np

from .errors import ConfigError, DomainError
from .pressure import PressureLaw, StateFields, _blocks


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
    """A piecewise polynomial generating function psi.

    derivatives(s) returns (psi, psi', psi'') at s from one call.  kinks
    are the strictly increasing, finite s-locations where psi stops being
    one polynomial; degrees holds the degree of each of the len(kinks) + 1
    pieces, left to right.  entropy_pair's rules follow from them.  Checking
    the kinks also rejects a cutoff scale or bump width that is not positive
    and finite, and a bump centre that is not finite (ConfigError).
    """

    name: str
    derivatives: callable
    kinks: tuple
    degrees: tuple

    def __post_init__(self):
        kinks = np.asarray(self.kinks, dtype=float)
        if kinks.ndim != 1 or not np.isfinite(kinks).all() or np.any(np.diff(kinks) <= 0.0):
            raise ConfigError(
                f"{self.name}: kinks must be finite and strictly increasing, got "
                f"{self.kinks!r} (R and a bump width finite and positive, a centre "
                "finite)"
            )
        if len(self.degrees) != kinks.size + 1 or any(
            int(d) != d or d < 0 for d in self.degrees
        ):
            raise ConfigError(
                f"{self.name}: need one nonnegative integer degree per piece "
                f"({kinks.size + 1}), got {self.degrees!r}"
            )

    @property
    def pair_nodes(self) -> int:
        """Nodes per state of entropy_pair's exact rule for a state whose
        kernel support lies inside one piece, ceil((d + 2) / 2) for d the
        largest degree.  Callers size their blocks by it; entropy_pair
        chunks the pieces of states that straddle a kink itself."""
        return (max(self.degrees) + 3) // 2

    @staticmethod
    def energy() -> "EntropySpec":
        def derivatives(s):
            s = np.asarray(s, dtype=float)
            return 0.5 * s**2, s, np.ones_like(s)

        return EntropySpec("energy", derivatives, (), (2,))

    @staticmethod
    def cutoff_energy(R: float) -> "EntropySpec":
        return EntropySpec(
            f"cutoff_energy(R={R:g})",
            lambda s: psi_cutoff(R, s),
            (-2.0 * R, -R, R, 2.0 * R),
            (1, 3, 2, 3, 1),
        )

    @staticmethod
    def signed_square() -> "EntropySpec":
        """psi(s) = s|s|/2, the generator of the special Goursat entropy."""

        def derivatives(s):
            s = np.asarray(s, dtype=float)
            a = np.abs(s)
            return 0.5 * s * a, a, np.sign(s)

        return EntropySpec("signed_square", derivatives, (0.0,), (2, 2))

    @staticmethod
    def constant(c: float = 1.0) -> "EntropySpec":
        def derivatives(s):
            s = np.asarray(s, dtype=float)
            return np.full_like(s, c), np.zeros_like(s), np.zeros_like(s)

        return EntropySpec(f"constant({c:g})", derivatives, (), (0,))

    @staticmethod
    def compact_bump(center: float = 0.0, width: float = 1.0) -> "EntropySpec":
        """Compactly supported C^2 generator (1 - t^2)^3 on |t| < 1."""

        def derivatives(s):
            # t, t^2 and b = 1 - t^2 are shared and then overwritten in
            # place, so that a call on one of entropy_pair's blocks
            # (pressure.BLOCK_POINTS nodes) keeps few node arrays live
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
            (center - width, center + width),
            (0, 6, 0),
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

# Nodes of each Gauss rule on a piece of a support that straddles a kink.
# Every piece is at most seven times as long as its distance from an end of
# [-1, 1] that it does not touch, so the weight factors that stay in the
# integrand are analytic on a fixed neighbourhood of every piece; the
# accuracy test of the split pairs (tests/test_entropy.py) pins the count.
SPLIT_NODES = 20
_GRADING = 4.0
# Above _PEAK_LAM the weight (1 - z^2)^lam is a peak of width ~lam^-1/2 at 0
# that an end rule, with the other endpoint factor in its integrand, cannot
# resolve.  A straddling support is then also cut at 0 and where the weight
# has fallen by e^-16, e^-32 and e^-48, so that the weight changes by at
# most e^16 along an interior piece and an end piece holds at most e^-48 of
# the peak.  From lam = 11.1 on, the first cut is within 7/8 of 1, so these
# pieces keep the seven-times bound.
_PEAK_LAM = 12.0
_PEAK_STEP = 16.0
_PEAK_CUTS = 3


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, alpha: float, beta: float):
    """Nodes and weights (summing to 1) of the n-node Gauss rule for
    (1 - t)^alpha (1 + t)^beta on [-1, 1], by Golub-Welsch: the nodes are
    the eigenvalues of the symmetric Jacobi matrix of the Jacobi-polynomial
    recurrence, the weights the squared first components of its
    eigenvectors.  It stays finite however large alpha and beta are.  Built
    on first use, never at import."""
    ab = alpha + beta
    k = np.arange(n, dtype=float)
    s = 2.0 * k + ab
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    diag[1:] = (beta - alpha) * (beta + alpha) / (s[1:] * (s[1:] + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(
        4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (s**2 * (s + 1.0) * (s - 1.0))
    )
    t, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = vecs[0] ** 2
    w /= w.sum()
    t.flags.writeable = w.flags.writeable = False  # shared by every caller
    return t, w


def _require_polytropic(law: PressureLaw):
    if not law.is_polytropic:
        raise DomainError(
            "psi-generated entropy pairs exist in closed form only for the "
            "polytropic law; use the Goursat solver or the built-in energies "
            "for composite laws"
        )


def _node_sums(spec, u, K, z, w):
    """Weighted sums over the nodes z (a row per state) of psi, z psi, psi'
    and psi'' at s = u + K z, from one derivatives call.  w is one rule
    shared by every row, or a weight per node."""
    pv, dpv, d2pv = spec.derivatives(u[:, None] + K[:, None] * z)
    if w.ndim == 1:
        return pv @ w, pv @ (z * w), dpv @ w, d2pv @ w
    pairs = ((pv, w), (pv, z * w), (dpv, w), (d2pv, w))
    return tuple(np.einsum("ij,ij->i", f, g) for f, g in pairs)


def _peak_cuts(lam: float):
    """The cuts in z of every straddling support that resolve the weight's
    peak at 0 when lam > _PEAK_LAM (none otherwise)."""
    if lam <= _PEAK_LAM:
        return np.empty(0)
    z = np.sqrt(-np.expm1(-_PEAK_STEP / lam * np.arange(1.0, 1.0 + _PEAK_CUTS)))
    return np.concatenate((-z[::-1], [0.0], z))


def _split_pieces(kinks, u, K, cuts):
    """Ends (a, b) in z of every piece of the supports [u - K, u + K] cut
    at the kinks inside them and at cuts, and the state each piece belongs
    to, in state order.  A kink at distance d from the support end +-1 also
    cuts at +-(1 - d 4^k), for every k >= 1 with d 4^k < 1: d >= 2^-53, so
    at most 27 cuts per kink."""
    c = (kinks - u[:, None]) / K[:, None]
    inside = np.abs(c) < 1.0
    state = np.nonzero(inside)[0]
    c = c[inside]
    d = 1.0 - np.abs(c)
    n = np.ceil(-np.log(d) / log(_GRADING)).astype(int)
    g = np.repeat(np.arange(c.size), n)
    k = np.arange(g.size) - np.repeat(np.cumsum(n) - n, n) + 1.0
    gap = d[g] * _GRADING**k
    g, gap = g[gap < 1.0], gap[gap < 1.0]
    ends = np.concatenate(([-1.0], cuts, [1.0]))
    z = np.concatenate((np.tile(ends, u.size), c, np.sign(c[g]) * (1.0 - gap)))
    owner = np.concatenate((np.repeat(np.arange(u.size), ends.size), state, state[g]))
    order = np.lexsort((z, owner))
    z, owner = z[order], owner[order]
    live = (owner[1:] == owner[:-1]) & (z[1:] > z[:-1])
    return z[:-1][live], z[1:][live], owner[:-1][live]


def _log_m0(lam: float) -> float:
    """log M0 = log int (1 - z^2)^lam dz = log(sqrt(pi) Gamma(lam + 1) /
    Gamma(lam + 3/2)).  From lam = 20 on, the difference of the two
    log-gammas is taken from Stirling's series term by term: as a difference
    of two values ~lam log lam it would lose their rounding (5e-7 at
    lam = 1e9)."""
    if lam < 20.0:
        return 0.5 * log(pi) + lgamma(lam + 1.0) - lgamma(lam + 1.5)
    z1, z2 = lam + 1.0, lam + 1.5
    diff = 0.5 - 0.5 * log(z1) - z1 * log1p(0.5 / z1)
    for c, k in ((1 / 12, 1), (-1 / 360, 3), (1 / 1260, 5), (-1 / 1680, 7), (1 / 1188, 9)):
        diff += c * (z1**-k - z2**-k)
    return 0.5 * log(pi) + diff


def _split_rules(n: int, lam: float):
    """Nodes and log weights of the n-node rules of _split_sums, one row per
    kind of piece (0 interior, 1 touching -1, 2 touching +1); each weight
    is times its rule's mass and divided by M0 = int (1 - z^2)^lam dz."""
    t_end, w_end = _jacobi_rule(n, lam, 0.0)
    t_int, w_int = _jacobi_rule(n, 0.0, 0.0)
    log_m0 = _log_m0(lam)
    log_end = (lam + 1.0) * log(2.0) - log1p(lam) - log_m0  # int (1 - t)^lam dt / M0
    with np.errstate(divide="ignore"):  # a weight that underflowed to 0 stays 0
        log_w = np.log(np.stack((w_int, w_end, w_end)))
    log_w += np.array([[log(2.0) - log_m0], [log_end], [log_end]])
    return np.stack((t_int, -t_end, t_end)), log_w


def _split_sums(spec, lam, u, K):
    """The sums of _node_sums over [-1, 1] for states whose support
    straddles a kink, piece by piece (_split_pieces), in blocks of pieces
    of SPLIT_NODES nodes each (pressure._blocks), one derivatives call per
    block.  A piece [a, 1] takes the Gauss rule for (1 - z)^lam, with
    (1 + z)^lam in the integrand; [-1, b] the mirror rule; an interior
    piece Gauss-Legendre, with the whole weight in the integrand.  The weights
    are formed in logarithms, so that no factor overflows for large lam,
    and log(1 - z^2) by log1p within 1/2 of 0, so that lam times its
    rounding stays small where the weight peaks."""
    a, b, owner = _split_pieces(np.asarray(spec.kinks), u, K, _peak_cuts(lam))
    kind = (a == -1.0) + 2 * (b == 1.0)
    nodes, log_w = _split_rules(SPLIT_NODES, lam)
    sums = np.empty((4, a.size))
    for p in _blocks(a.size, SPLIT_NODES):
        t, lw, k = nodes[kind[p]], log_w[kind[p]], kind[p, None]
        pa, pb = a[p, None], b[p, None]
        h = 0.5 * (pb - pa)
        z = 0.5 * (pa + pb) + h * t
        lp = np.log((1.0 + pa) + h * (1.0 + t))  # log(1 + z), without cancellation
        lm = np.log((1.0 - pb) + h * (1.0 - t))  # log(1 - z)
        both = np.where(np.abs(z) < 0.5, np.log1p(-np.minimum(z * z, 0.25)), lp + lm)
        # the factors of (1 - z^2)^lam that the piece's rule does not hold
        free = np.where(k == 1, lm, np.where(k == 2, lp, both))
        w = np.exp(lw + np.log(h) * np.where(k > 0, 1.0 + lam, 1.0) + lam * free)
        sums[:, p] = _node_sums(spec, u[owner[p]], K[owner[p]], z, w)
    return tuple(np.bincount(owner, v, minlength=u.size) for v in sums)


def entropy_pair(law: PressureLaw, spec: EntropySpec, rho, m) -> EntropyPairValue:
    """Evaluate (eta, q, d eta/dm, d^2 eta/dm^2) for a gamma-law gas.

    Vectorized over (rho, m).  A state whose kernel support lies inside one
    polynomial piece of psi takes the ceil((d + 2) / 2)-node Gauss-Jacobi
    rule, d the largest degree of the spec's pieces: exact for all four
    fields.  A state whose support straddles a kink is split there
    (_split_sums), in blocks of pressure.BLOCK_POINTS node-points.
    Vacuum states give zeros.
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

    z, w = _jacobi_rule(spec.pair_nodes, lam, lam)
    kinks = np.asarray(spec.kinks)
    split = (np.abs(kinks - up[:, None]) < Kp[:, None]).any(axis=1)
    if not split.any():
        sums = _node_sums(spec, up, Kp, z, w)
    else:
        sums = np.empty((4, up.size))
        one = ~split
        if one.any():
            sums[:, one] = _node_sums(spec, up[one], Kp[one], z, w)
        sums[:, split] = _split_sums(spec, lam, up[split], Kp[split])
    A0, A1, B, C = sums
    vals = (rp * A0, rp * (up * A0 + theta * Kp * A1), B, C / rp)
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
    fields = StateFields(law, rho, m)
    rp, P = fields.rp, fields.P
    # the pass checked rho: e unchecked, evaluated once
    e = law._internal_energy(rp)
    eta = fields.masked(0.5 * m**2 / rp + rp * e)
    qf = fields.masked(0.5 * m**3 / rp**2 + m * (e + P / rp))  # (rho e)' = e + P / rho
    dm = fields.u
    d2m = fields.masked(1.0 / rp)

    if scalar:
        return EntropyPairValue(float(eta[0]), float(qf[0]), float(dm[0]), float(d2m[0]))
    return EntropyPairValue(eta, qf, dm, d2m)


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
    fields = StateFields(law, rho, m)
    rp = fields.rp
    kin = fields.masked(m**4 / (12.0 * rp**3) + law._internal_energy(rp) * m**2 / rp)
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
