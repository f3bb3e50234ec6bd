"""Moment sequences, Hankel positivity, Jacobi recurrences, Weyl function
and the Perron density of the representing measure of G_p.

For 1 <= p <= s the rescaled sequence m_n = R_{s,p}(n)^2 zeta_c^{2n} is a
Hausdorff moment sequence on [0, 1]; equivalently the unrescaled integers
R_{s,p}(n)^2 are moments of a probability measure on [0, 1/zeta_c^2].  All
recurrence data are computed in exact rational arithmetic (the notorious
float instability of moment-based orthogonalization never enters); floats
appear only at output.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .continuation import cut_trace
from .errors import ConditioningError, DomainError, PositivityError
from .maps import thresholds
from .raney import _validate_sp, raney_table


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
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    tbl = raney_table(s, p, n_max)
    zc2 = thresholds(s).zeta_c ** 2
    ms = tuple(Fraction(tbl[n] ** 2) * zc2**n for n in range(n_max + 1))
    return MomentSequence(s=s, p=p, moments=ms)


def hankel_positivity(mseq: MomentSequence, k_max: int) -> bool:
    """All leading Hankel minors det(m_{i+j})_{0<=i,j<=k} > 0 for k <= k_max,
    in exact rational arithmetic."""
    if 2 * k_max > mseq.n_max:
        raise DomainError("k_max needs moments up to index 2 k_max")
    for k in range(k_max + 1):
        mat = [[mseq.moments[i + j] for j in range(k + 1)] for i in range(k + 1)]
        if _det_fraction(mat) <= 0:
            return False
    return True


def _det_fraction(mat) -> Fraction:
    """Determinant by fraction-preserving Gaussian elimination with pivoting."""
    a = [row[:] for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] * inv
                for cc in range(c, n):
                    a[r][cc] -= f * a[c][cc]
    return det


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
    """(a_k, b_k) by Chebyshev's algorithm in exact rationals.

    Computes b_0..b_{n-1} and a_1^2..a_{n-1}^2 (enough for the n x n
    truncation) from the moments m_0..m_{2n-1} through the mixed moments
    sigma_{k,l} = L[P_k t^l] (Gautschi, SIAM J. Sci. Stat. Comput. 3, 1982):

        sigma_{k,l} = sigma_{k-1,l+1} - b_{k-1} sigma_{k-1,l}
                      - a_{k-1}^2 sigma_{k-2,l},
        a_k^2 = sigma_{k,k} / sigma_{k-1,k-1},
        b_k = sigma_{k,k+1} / sigma_{k,k} - sigma_{k-1,k} / sigma_{k-1,k-1}.

    Raises PositivityError when some L[P_k^2] = sigma_{k,k} <= 0, which
    signals p outside the guaranteed range 1 <= p <= s or too few moments.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if 2 * n + 1 > mseq.n_max + 1:
        raise DomainError(f"need moments up to 2n = {2*n}, have {mseq.n_max}")
    old = list(mseq.moments[: 2 * n])  # sigma_{k-1, l}
    if old[0] <= 0:
        raise PositivityError("m_0 <= 0")
    older = [Fraction(0)] * (2 * n)  # sigma_{k-2, l}
    # a_sq[0] = 0 stands in for a_0^2, which multiplies sigma_{-1, l} = 0
    a_sq, b_list = [Fraction(0)], [old[1] / old[0]]
    for k in range(1, n):
        row = [Fraction(0)] * (2 * n)
        for l in range(k, 2 * n - k):
            row[l] = old[l + 1] - b_list[-1] * old[l] - a_sq[-1] * older[l]
        if row[k] <= 0:
            raise PositivityError(f"L[P_{k}^2] = {row[k]} <= 0")
        a_sq.append(row[k] / old[k - 1])
        b_list.append(row[k + 1] / row[k] - old[k] / old[k - 1])
        older, old = old, row
    return JacobiData(
        s=mseq.s,
        p=mseq.p,
        a_sq_exact=tuple(a_sq[1:]),
        b_exact=tuple(b_list),
    )


def weyl_function(jac: JacobiData, u: complex) -> complex:
    """<e_0, (I - u J)^{-1} e_0> by the backward continued fraction.

    J is the unrescaled Jacobi operator; with the stored rescaled data this
    is the same fraction evaluated at x = u / zeta_c^2.  Converges to G_p(u)
    as the depth grows, for u off [zeta_c^2, inf).
    """
    if not cmath.isfinite(complex(u)):
        raise DomainError(f"u must be finite, got {u}")
    zc2 = float(thresholds(jac.s).zeta_c ** 2)
    x = complex(u) / zc2
    b = jac.b
    a2 = [float(v) for v in jac.a_sq_exact]
    n = len(b)
    # u^{-1} must stay off the truncated spectrum; near-pole denominators
    # below the 1e-8 margin are rejected rather than amplified.
    den = 1.0 - x * b[n - 1]
    if abs(den) < 1e-8:
        raise ConditioningError("continued fraction hit a near-pole")
    f = 1.0 / den
    for k in range(n - 2, -1, -1):
        den = 1.0 - x * b[k] - x * x * a2[k] * f
        if abs(den) < 1e-8:
            raise ConditioningError("continued fraction hit a near-pole")
        f = 1.0 / den
    return complex(f)


def perron_density(s: int, p: int, t_ratio) -> np.ndarray:
    """varrho_p(t) = (1/pi t) Im G_p(1/t + i0) at the array t = t_ratio T,
    T = 1/zc^2.

    One cut_trace supplies every point.  t_ratio must lie in (0, 1): t >= T
    puts xi = 1/t_ratio <= 1 off the cut, and the trace raises DomainError.
    """
    t_ratio = np.asarray(t_ratio, dtype=np.float64)
    if not np.all(t_ratio > 0):
        raise DomainError("t must be > 0")
    tmax = 1.0 / float(thresholds(s).zeta_c) ** 2
    xi = 1.0 / t_ratio
    im_g = np.array([st.value.imag for st in cut_trace(s, p, xi, side="above")])
    return im_g / (math.pi * (tmax / xi))


def _gauss_legendre_panels(a: float, b: float, n_panels: int, n_nodes: int):
    """Log-spaced panels on [a, b] with Gauss-Legendre nodes per panel."""
    edges = np.geomspace(a, b, n_panels + 1)
    x, w = np.polynomial.legendre.leggauss(n_nodes)
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
    supplies all the nodes, PERRON_NODES per panel, within PERRON_TOL.
    """
    if not 0 < delta_rel < 0.5:
        raise DomainError("delta_rel must lie in (0, 0.5)")
    zc2 = float(thresholds(s).zeta_c) ** 2
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
    tmax = 1.0 / float(thresholds(s).zeta_c) ** 2
    t_ratio = 1.0 - np.array(ENDPOINT_EPS)
    ts = tmax / (1.0 / t_ratio)  # the t values perron_density evaluates at
    rho = perron_density(s, p, t_ratio)
    slope = np.polyfit(np.log(tmax - ts), np.log(np.abs(rho)), 1)[0]
    return float(slope)
