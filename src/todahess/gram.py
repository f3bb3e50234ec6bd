"""Gram vectors, scalar Gram weights, Hessian entries and weighted blocks.

The mixed Hessian has entries H_{mn} = m n sum_p (1/p) R_{s,p}(k) R_{s,p}(l)
zeta^{k+l} over p = m mod s, p <= min(m,n), with k = (m-p)/s, l = (n-p)/s.
It factorizes through the Gram vectors v^{(p)}_m = (m/sqrt(p)) R_{s,p}(k)
zeta^k supported on m = p + ks.  Sector q holds the indices p_j = q + j s;
the weighted realization divides column j by w_j = p_j^{3/2+beta} M^{p_j}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import _kernels
from .errors import DivergenceError, DomainError
from .maps import thresholds
from .raney import _at_least, _validate_sp, raney_step

DEFAULT_TOL = 1e-12


def _check_subcritical(s: int, zeta: float) -> Fraction:
    """Exact zeta < zeta_c check; returns the exact gap 1 - zeta/zeta_c."""
    if not (zeta > 0 and math.isfinite(zeta)):
        raise DomainError(f"zeta must be finite and > 0, got {zeta}")
    gap = _kernels.eta_gap(s, zeta)
    if gap <= 0:
        zc = float(thresholds(s).zeta_c)
        raise DivergenceError(f"zeta = {zeta!r} >= zeta_c = {zc:.9g}: Gram series diverges")
    return gap


def _gram_product(s: int, q: int, n: int, zeta: float, tol: float, scale=None):
    """(V D)^T (V D) of sector q, N = n columns, D = diag(scale) or identity.

    Returns the kernel's (matrix, rows, tail).  Raises DivergenceError when
    its tail bound has not fired within its row cap, instead of returning a
    truncated sum, and DomainError when an entry overflows a double.
    """
    gap = _check_subcritical(s, zeta)
    m_max = _kernels.M_MAX_DEFAULT
    with np.errstate(over="ignore", invalid="ignore"):
        mat, rows, tail = _kernels._gram_series_np(s, q, n, zeta, tol, m_max, scale, gap)
    if not np.all(np.isfinite(mat)):
        raise DomainError(f"the Gram product of sector {q} overflows a double")
    if tail < 0:
        raise DivergenceError(f"Gram series missed tolerance {tol} within {m_max} rows")
    return mat, rows, tail


def _synthesis_rows(s: int, q: int, n_cols: int, zeta: float, n_rows: int, scale=None):
    """Rows 0 .. n_rows-1 of V D for sector q, D = diag(scale) or the identity."""
    _check_subcritical(s, zeta)
    rows = _kernels.synthesis_rows(s, q, n_cols, zeta, n_rows, scale)
    return np.concatenate([v for v, _ in rows])


def weight(s: int, q: int, beta: float, j):
    """w_j = p_j^(3/2+beta) M^(p_j) with p_j = q + j s, M = s/(s-1).

    Elementwise when j is a numpy array; DomainError for a beta that is
    not finite or not > 0 (the domain of spike_vector too) and once w_j
    overflows.
    """
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    if not beta > 0:
        raise DomainError(f"beta must be > 0, got {beta}")
    p = q + j * s
    with np.errstate(over="ignore"):
        w = p ** (1.5 + beta) * np.float64(s / (s - 1.0)) ** p
    if not np.all(np.isfinite(w)):
        raise DomainError(f"w_j overflows a double for some j <= {np.max(j)}")
    return w


def spike_constant(s: int) -> float:
    """c_s = sqrt(s / (2 pi (s-1))); the weighted spike is c_s p_j^(-1-beta)."""
    return math.sqrt(s / (2.0 * math.pi * (s - 1)))


def raney_zeta(s: int, p: int, k: int, zeta: float) -> float:
    """R_{s,p}(k) * zeta^k via ratio steps (safe for k with R ~ zeta_c^{-k})."""
    val = 1.0
    for m in range(k):
        num, den = raney_step(s, p, float(m))
        val *= (num / den) * zeta
    return val


# ---------------------------------------------------------------------------
# Scalar Gram weights and Hessian entries


def sigma_p(s: int, p: int, zeta: float, tol: float = DEFAULT_TOL) -> float:
    """sigma_p(zeta) = sum_m ((p+ms)^2 / p) R_{s,p}(m)^2 zeta^{2m}.

    It is the one-column Gram product of sector p.  Raises DivergenceError
    at or beyond zeta_c; the part not summed term by term is either below
    tol (relative) by the geometric bound on the term ratios, or added in
    closed form (see _kernels).  DomainError unless s and p are integers.
    """
    s, p = _validate_sp(s, p)
    return _gram_product(s, p, 1, zeta, tol)[0][0, 0]


@dataclass(frozen=True)
class GramVector:
    """v^{(p)} restricted to its support m = p + ks, stored as values[k]."""

    s: int
    p: int
    zeta: float
    values: np.ndarray  # values[k] = ((p+ks)/sqrt(p)) R_{s,p}(k) zeta^k

    def entry(self, m: int) -> float:
        """Ambient entry v^{(p)}_m; zero off the progression p + ks."""
        if m < self.p or (m - self.p) % self.s:
            return 0.0
        k = (m - self.p) // self.s
        if k >= len(self.values):
            raise DomainError(f"GramVector built only up to k={len(self.values)-1}")
        return float(self.values[k])


def gram_vector(s: int, p: int, zeta: float, k_max: int) -> GramVector:
    k_max = _at_least("k_max", k_max, 0)
    vals = _synthesis_rows(s, p, 1, zeta, k_max + 1)[:, 0]
    return GramVector(s=s, p=p, zeta=zeta, values=vals)


def hessian_entry(s: int, zeta: float, m: int, n: int) -> float:
    """H_{mn}; vanishes unless m = n (mod s).  Defined for zeta < zeta_univ."""
    m, n = _at_least("m", m, 1), _at_least("n", n, 1)
    th = thresholds(s)
    if not 0 < zeta < float(th.zeta_univ):
        raise DomainError(
            f"hessian_entry needs 0 < zeta < zeta_univ = {float(th.zeta_univ):.6g}"
        )
    if (m - n) % s:
        return 0.0
    p0 = (m - 1) % s + 1
    total = 0.0
    for p in range(p0, min(m, n) + 1, s):
        k = (m - p) // s
        l = (n - p) // s
        total += raney_zeta(s, p, k, zeta) * raney_zeta(s, p, l, zeta) / p
    return m * n * total


def gram_consistency(s: int, zeta: float, m: int, n: int) -> float:
    """Relative error of sum_p v^{(p)}_m v^{(p)}_n against H_{mn}.

    The left side is assembled from GramVector objects (independent code
    path from hessian_entry's direct double loop); 0.0 when both vanish.
    """
    h = hessian_entry(s, zeta, m, n)
    total = 0.0
    for p in range(1, min(m, n) + 1):
        if (m - p) % s or (n - p) % s:
            continue
        v = gram_vector(s, p, zeta, max(m, n) // s + 1)
        total += v.entry(m) * v.entry(n)
    scale = max(abs(h), abs(total))
    return abs(total - h) / scale if scale else 0.0


# ---------------------------------------------------------------------------
# Weighted blocks


@dataclass(frozen=True)
class WeightedBlock:
    """The block G~ = V~^T V~ with the diagnostics of its series.

    rows is the number of rows of V~ summed directly.  tail is the largest
    share of an entry that was not: the geometric bound (at most tol) when
    the stop rule fired, or the closed-form tail past the head.
    """

    s: int
    q: int
    beta: float
    zeta: float
    n: int
    matrix: np.ndarray
    weights: np.ndarray
    rows: int
    tail: float


def weighted_block(
    s: int,
    zeta: float,
    q: int,
    beta: float,
    n: int,
    tol: float = DEFAULT_TOL,
) -> WeightedBlock:
    """Truncated N x N weighted block V~^T V~ from the Gram-product kernel.

    Raises DivergenceError when an entry's tail bound has not fired within
    the kernel's row cap and AccuracyError when the kernel's closed tail
    fails its checks, instead of returning a truncated block, and
    DomainError when w_{N-1} overflows a double.
    """
    if not 1 <= q <= s:
        raise DomainError(f"sector q must lie in [1, s], got {q}")
    n = _at_least("truncation N", n, 2)
    w = weight(s, q, beta, np.arange(n))
    mat, rows, tail = _gram_product(s, q, n, zeta, tol, 1.0 / w)
    return WeightedBlock(
        s=s, q=q, beta=float(beta), zeta=zeta, n=n, matrix=mat, weights=w, rows=rows, tail=tail
    )


@dataclass(frozen=True)
class SpikeVector:
    """Weighted spike direction d~_j = c_s p_j^(-1-beta) and its norms."""

    s: int
    q: int
    beta: float
    entries: np.ndarray
    gamma_truncated: float

    @property
    def gamma_analytic(self) -> float:
        """Gamma = c_s^2 sum_{j>=0} (q+js)^(-2-2beta)
        = c_s^2 s^(-2-2beta) zeta_H(2+2beta, q/s), zeta_H the Hurwitz zeta."""
        a = 2.0 + 2.0 * self.beta
        with mp.workdps(30):
            hurwitz = float(mp.zeta(a, mp.mpf(self.q) / self.s))
        return spike_constant(self.s) ** 2 * self.s ** (-a) * hurwitz


def spike_vector(s: int, q: int, beta: float, n: int) -> SpikeVector:
    """Spike entries up to j < n, their squared norm Gamma_N, and (on
    request) the untruncated Gamma."""
    n = _at_least("n", n, 1)
    if not 1 <= q <= s:
        raise DomainError(f"sector q must lie in [1, s], got {q}")
    if not beta > 0:
        raise DomainError(f"beta must be > 0, got {beta}")
    cs = spike_constant(s)
    pj = q + s * np.arange(n, dtype=np.float64)
    entries = cs * pj ** (-1.0 - beta)
    gamma_trunc = float(np.sum(entries**2))
    return SpikeVector(
        s=s, q=q, beta=float(beta), entries=entries, gamma_truncated=gamma_trunc
    )


def synthesis_matrix(
    s: int, q: int, beta: float, zeta: float, n_cols: int, n_rows: int
) -> np.ndarray:
    """Weighted synthesis factor V~ with rows = ambient indices q + is.

    V~[i, j] = ((q+is)/sqrt(p_j)) R_{s,p_j}(i-j) zeta^(i-j) / w_j for i >= j
    (lower triangular); then G~ = V~^T V~ up to row truncation, and V~ V~^T
    has the same nonzero spectrum exactly.
    """
    n_cols, n_rows = _at_least("n_cols", n_cols, 1), _at_least("n_rows", n_rows, 1)
    scale = 1.0 / weight(s, q, beta, np.arange(n_cols))
    return _synthesis_rows(s, q, n_cols, zeta, n_rows, scale)
