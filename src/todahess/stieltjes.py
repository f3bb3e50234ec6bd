"""Moment sequences, Hankel positivity, Jacobi recurrences, Weyl function
and the Perron density of the representing measure of G_p.

For 1 <= p <= s the rescaled sequence m_n = R_{s,p}(n)^2 zeta_c^{2n} is a
Hausdorff moment sequence on [0, 1]; equivalently the unrescaled integers
R_{s,p}(n)^2 are moments of a probability measure on [0, 1/zeta_c^2].  The
Hankel minors and the recurrence data come from one fraction-free integer
recurrence on those integers (the notorious float instability of
moment-based orthogonalization never enters); floats appear only at output.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .continuation import cut_trace
from .errors import ConditioningError, DomainError, PositivityError
from .maps import thresholds
from .raney import _at_least, _validate_sp, raney_table, zeta_c_value


@dataclass(frozen=True)
class MomentSequence:
    """Rescaled moments m_n = R_{s,p}(n)^2 zeta_c^{2n} (exact rationals).

    The integer moments R_{s,p}(n)^2 of the measure on [0, 1/zeta_c^2]
    differ from these by the substitution t -> t zeta_c^2.
    """

    s: int
    p: int
    moments: tuple  # Fractions

    @property
    def n_max(self) -> int:
        return len(self.moments) - 1


def moments(s: int, p: int, n_max: int) -> MomentSequence:
    s, p = _validate_sp(s, p)
    n_max = _at_least("n_max", n_max, 0)
    tbl = raney_table(s, p, n_max)
    zc2 = thresholds(s).zeta_c ** 2
    ms = tuple(Fraction(tbl[n] ** 2) * zc2**n for n in range(n_max + 1))
    return MomentSequence(s=s, p=p, moments=ms)


def _integer_moments(mseq: MomentSequence, count: int) -> list:
    """mu_n = lam m_n / c^n for n < count, c = zeta_c^2, as integers.

    lam > 0 is the lcm of the denominators left; for the sequences of
    moments() it is 1 and mu_n = R_{s,p}(n)^2.  Scaling every moment by lam
    changes no recurrence coefficient, and t -> c t multiplies b_k by c and
    a_k^2 by c^2.
    """
    c = thresholds(mseq.s).zeta_c ** 2
    q, c_num_n, c_den_n = [], 1, 1  # c^n = c_num_n / c_den_n
    for m in map(Fraction, mseq.moments[:count]):
        q.append(Fraction(m.numerator * c_den_n, m.denominator * c_num_n))
        c_num_n *= c.numerator
        c_den_n *= c.denominator
    lam = math.lcm(*(x.denominator for x in q))
    return [x.numerator * (lam // x.denominator) for x in q]


def _hankel_rows(mu: list):
    """Yield (Delta_k, T_k) for k = 0, 1, ... while len(mu) >= 2k + 1.

    Delta_k = det(mu_{i+j})_{0<=i,j<=k} is the k-th leading Hankel minor and
    T_{k,l} = Delta_{k-1} sigma_{k,l} the integer multiple of the mixed
    moment sigma_{k,l} = L[P_k t^l] of the monic orthogonal P_k; the list T_k
    holds it at index l for k <= l < len(mu) - k.  From Delta_{-1} = 1,
    T_{-1,l} = 0 and T_{0,l} = mu_l, Chebyshev's recurrence for sigma
    (Gautschi 1982) becomes fraction-free (Bareiss 1968):

        T_{k,l} = [Delta_{k-2} (Delta_{k-1} T_{k-1,l+1} - T_{k-1,k} T_{k-1,l})
                   + Delta_{k-1} (T_{k-2,k-1} T_{k-1,l} - Delta_{k-1} T_{k-2,l})]
                  / Delta_{k-2}^2,

    and Delta_k = T_{k,k}.  The division is exact; a remainder raises
    ArithmeticError.  The caller stops at the first Delta_k <= 0, which the
    row after next would divide by.
    """
    size = len(mu)
    dd, t2, t1 = 1, [0] * size, list(mu)  # Delta_{k-2}, T_{k-2}, T_{k-1}
    yield t1[0], t1
    for k in range(1, (size + 1) // 2):
        d = t1[k - 1]
        a, b, c, den = dd * d, d * t2[k - 1] - dd * t1[k], d * d, dd * dd
        t = [0] * size
        for l in range(k, size - k):
            q, r = divmod(a * t1[l + 1] + b * t1[l] - c * t2[l], den)
            if r:
                raise ArithmeticError("Hankel recurrence left a remainder")
            t[l] = q
        yield t[k], t
        dd, t2, t1 = d, t1, t


def hankel_positivity(mseq: MomentSequence, k_max: int) -> bool:
    """All leading Hankel minors det(m_{i+j})_{0<=i,j<=k} > 0 for k <= k_max.

    The minors are the Delta_k of the integer recurrence behind
    jacobi_coefficients (see _hankel_rows), on mu_n = lam m_n / zeta_c^{2n}:
    the unscaling multiplies each minor by a positive factor.  False at the
    first Delta_k <= 0.
    """
    k_max = _at_least("k_max", k_max, 0)
    if 2 * k_max > mseq.n_max:
        raise DomainError("k_max needs moments up to index 2 k_max")
    rows = _hankel_rows(_integer_moments(mseq, 2 * k_max + 1))
    return all(delta > 0 for delta, _ in rows)


@dataclass(frozen=True)
class JacobiData:
    """Three-term recurrence data in rescaled units (spectrum in [0, 1]).

    a_sq_exact / b_exact are the exact rationals; b is the float image of
    b_exact.  tridiagonal() returns the operator acting in the original t
    units, with spectrum inside [0, 1/zeta_c^2].
    """

    s: int
    p: int
    a_sq_exact: tuple  # Fractions a_1^2 .. a_n^2
    b_exact: tuple  # Fractions b_0 .. b_{n-1} (or b_n, see jacobi_coefficients)

    @property
    def b(self) -> np.ndarray:
        return np.array([float(x) for x in self.b_exact])

    @property
    def n(self) -> int:
        return len(self.b_exact)

    def tridiagonal(self) -> np.ndarray:
        """The n x n Jacobi matrix in t units: the rescaled one over zeta_c^2."""
        scale = 1.0 / float(thresholds(self.s).zeta_c ** 2)
        n = self.n
        mat = np.zeros((n, n))
        for i in range(n):
            mat[i, i] = float(self.b_exact[i]) * scale
        for i in range(1, n):
            aij = math.sqrt(float(self.a_sq_exact[i - 1])) * scale
            mat[i, i - 1] = mat[i - 1, i] = aij
        return mat


def jacobi_coefficients(mseq: MomentSequence, n: int) -> JacobiData:
    """(a_k, b_k) by Chebyshev's algorithm in fraction-free integers.

    Computes b_0..b_{n-1} and a_1^2..a_{n-1}^2 (enough for the n x n
    truncation) from the moments m_0..m_{2n-1}.  They are unscaled to the
    integers mu_n = lam m_n / c^n, c = zeta_c^2, with lam the lcm of any
    denominators left (mu_n = R_{s,p}(n)^2 for moments()), and the Hankel minors Delta_k and T_{k,l} = Delta_{k-1} sigma_{k,l} come
    from the recurrence of _hankel_rows (Gautschi, SIAM J. Sci. Stat.
    Comput. 3, 1982; Bareiss 1968).  With Delta_{-1} = 1 and T_{-1,0} = 0,

        b_k = c (T_{k,k+1} / Delta_k - T_{k-1,k} / Delta_{k-1}),
        a_k^2 = c^2 Delta_k Delta_{k-2} / Delta_{k-1}^2,

    each one Fraction built at the end.  Raises PositivityError when some
    Delta_k <= 0 (L[P_k^2] = sigma_{k,k} <= 0), which signals p outside the
    guaranteed range 1 <= p <= s or too few moments.
    """
    n = _at_least("n", n, 1)
    if 2 * n + 1 > mseq.n_max + 1:
        raise DomainError(f"need moments up to 2n = {2*n}, have {mseq.n_max}")
    delta, t_next = [1], [0]  # Delta_{k-1}, T_{k-1,k} from k = 0
    for k, (dk, row) in enumerate(_hankel_rows(_integer_moments(mseq, 2 * n))):
        if dk <= 0:
            raise PositivityError(f"Hankel minor Delta_{k} <= 0: L[P_{k}^2] <= 0")
        delta.append(dk)
        t_next.append(row[k + 1])
    c = thresholds(mseq.s).zeta_c ** 2
    cn, cd = c.numerator, c.denominator
    b = tuple(
        Fraction(cn * (t_next[k + 1] * delta[k] - t_next[k] * delta[k + 1]),
                 cd * delta[k + 1] * delta[k])
        for k in range(n)
    )
    a_sq = tuple(
        Fraction(cn * cn * delta[k + 1] * delta[k - 1], cd * cd * delta[k] ** 2)
        for k in range(1, n)
    )
    return JacobiData(s=mseq.s, p=mseq.p, a_sq_exact=a_sq, b_exact=b)


def weyl_function(jac: JacobiData, u: complex) -> complex:
    """<e_0, (I - u J)^{-1} e_0> by the backward continued fraction.

    J is the unrescaled Jacobi operator; with the stored rescaled data this
    is the same fraction evaluated at x = u / zeta_c^2.  Converges to G_p(u)
    as the depth grows, for u off [zeta_c^2, inf).  ConditioningError when a
    denominator falls below 1e-8 (a near-pole) or overflows.
    """
    if not cmath.isfinite(complex(u)):
        raise DomainError(f"u must be finite, got {u}")
    zc2 = float(thresholds(jac.s).zeta_c ** 2)
    x = complex(u) / zc2
    b = jac.b
    a2 = [float(v) for v in jac.a_sq_exact]
    n = len(b)
    # u^{-1} must stay off the truncated spectrum; near-pole denominators
    # below the 1e-8 margin are rejected rather than amplified.  x^2
    # overflows for |u| beyond about 1e154 zeta_c^2, so a denominator that
    # is inf or nan is rejected too; a finite one of size >= 1e-8 keeps
    # every f, and so the result, finite.
    den = 1.0 - x * b[n - 1]
    if not 1e-8 <= abs(den) < math.inf:
        raise ConditioningError("continued fraction hit a near-pole or overflowed")
    f = 1.0 / den
    for k in range(n - 2, -1, -1):
        den = 1.0 - x * b[k] - x * x * a2[k] * f
        if not 1e-8 <= abs(den) < math.inf:
            raise ConditioningError("continued fraction hit a near-pole or overflowed")
        f = 1.0 / den
    return complex(f)


def perron_density(s: int, p: int, t_ratio) -> np.ndarray:
    """varrho_p(t) = (1/pi t) Im G_p(1/t + i0) at the array t = t_ratio T,
    T = 1/zc^2.

    One cut_trace supplies every point: the expansion at infinity those
    with t_ratio <= 1/FAR_RADIUS, the basis at xi = 1 those next to the edge
    where its estimate serves, and the walks along the cut the rest.  t_ratio
    must lie in (0, 1): t >= T puts xi = 1/t_ratio <= 1 off the cut, and the
    trace raises DomainError.
    """
    s, p = _validate_sp(s, p)
    t_ratio = np.asarray(t_ratio, dtype=np.float64)
    if not np.all(t_ratio > 0):
        raise DomainError("t must be > 0")
    tmax = 1.0 / zeta_c_value(s) ** 2
    xi = 1.0 / t_ratio
    im_g = np.array([st.value.imag for st in cut_trace(s, p, xi, side="above")])
    return im_g / (math.pi * (tmax / xi))


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], as read-only arrays.  Newton's method runs on P_n from the
    three-term recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}, from
    the guesses cos(pi (i + 3/4) / (n + 1/2)), until no step exceeds 1e-16;
    then w = 2 / ((1 - x^2) P_n'(x)^2), symmetrized and scaled to sum to 2.
    It stands in for numpy.polynomial.legendre.leggauss, whose import cost
    the first Perron op of a process 3 ms and 1 MB."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones(n), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        dx = p1 / dp
        x = x - dx
        if np.all(np.abs(dx) <= 1e-16):
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = (x[::-1] - x) / 2, (w + w[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre_panels(a: float, b: float, n_panels: int, n_nodes: int):
    """Log-spaced panels on [a, b] with the n_nodes-point Gauss-Legendre rule
    of _gauss_legendre on each."""
    edges = np.geomspace(a, b, n_panels + 1)
    x, w = _gauss_legendre(n_nodes)
    nodes, weights = [], []
    for lo, hi in zip(edges, edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


#: Gauss-Legendre nodes per panel of perron_integrals
PERRON_NODES = 12
#: relative tolerance of the cut values behind perron_integrals
PERRON_TOL = 1e-10


def perron_integrals(
    s: int,
    p: int,
    delta_rel: float = 1e-3,
    powers=(0,),
    n_panels: int = 40,
):
    """Integrals int t^n varrho_p(t) dt over [delta, T - delta], T = 1/zc^2.

    Substituting t = T/xi turns them into (1/pi) int (T/xi)^n Im G(xi+i0)
    dxi/xi over xi in [1/(1-delta_rel), 1/delta_rel]; one cut_trace
    supplies all the nodes, PERRON_NODES per panel, within PERRON_TOL.  The
    panels are log-spaced, so most nodes lie beyond FAR_RADIUS, where the
    trace sums the expansion at infinity instead of walking out to
    1/delta_rel: at delta_rel = 1e-12 and 40 panels, 456 of 480.
    """
    if not 0 < delta_rel < 0.5:
        raise DomainError("delta_rel must lie in (0, 0.5)")
    n_panels = _at_least("n_panels", n_panels, 1)
    s, p = _validate_sp(s, p)
    zc2 = zeta_c_value(s) ** 2
    tmax = 1.0 / zc2
    xi_a = 1.0 / (1.0 - delta_rel)
    xi_b = 1.0 / delta_rel
    nodes, weights = _gauss_legendre_panels(xi_a, xi_b, n_panels, PERRON_NODES)
    states = cut_trace(s, p, nodes, side="above", tol=PERRON_TOL)
    im_g = np.array([st.value.imag for st in states])
    out = {}
    for n in powers:
        integrand = (tmax / nodes) ** n * im_g / nodes
        out[n] = float(np.sum(weights * integrand) / math.pi)
    return out


#: 1 - t/T at which perron_endpoint_exponent samples the density
ENDPOINT_EPS = tuple(np.geomspace(2e-3, 2e-2, 8))


def perron_endpoint_exponent(s: int, p: int):
    """Log-log slope of varrho_p(t) against (T - t) near the right endpoint
    (the density vanishes quadratically there), over ENDPOINT_EPS."""
    s, p = _validate_sp(s, p)
    tmax = 1.0 / zeta_c_value(s) ** 2
    t_ratio = 1.0 - np.array(ENDPOINT_EPS)
    ts = tmax / (1.0 / t_ratio)  # the t values perron_density evaluates at
    rho = perron_density(s, p, t_ratio)
    slope = np.polyfit(np.log(tmax - ts), np.log(np.abs(rho)), 1)[0]
    return float(slope)
