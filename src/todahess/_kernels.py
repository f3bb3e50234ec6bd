"""Hot series kernel for the weighted Gram blocks.

The block of sector q is V^T V for the unweighted synthesis factor

    V[i, j] = ((q + i s) / sqrt(p_j)) R_{s,p_j}(i - j) zeta^(i - j),  i >= j,

with p_j = q + j s and V[i, j] = 0 for i < j.  Column j peaks near
M^(p_j), past the double range at p_j ~ 500 for s = 2, so the weighted
block's 1/w_j enters at the column's first row, and the Raney numbers
(~ zeta_c^{-m}) only through ratio updates.  The kernel builds V in chunks
of rows, by cumulative products down the columns, and accumulates V^T V.

Near the threshold the rows decay like eta^i / sqrt(i), eta = zeta/zeta_c,
so a direct sum needs about 1/(1 - eta^2) rows (about 1e6 at
eta = 0.99999).  Instead the kernel sums a head of M rows directly, M about
max(HEAD_MIN, p_{N-1}^2 / (s(s-1))), and adds the rest in closed form.  Row
i >= M is

    V[i, j] D_j = amp_j D_j g_j(M/i) eta^(i-j) / sqrt(i),

where amp_j = s A_{s,p_j} / sqrt(p_j) (A from raney.amplitude; amp_j D_j is
the spike entry d~_j for the weighted block) and the profile g_j, with
g_j(0) = 1, does not depend on zeta.  g_j is interpolated at
TAIL_DEGREE + 1 Chebyshev points t = M/i in [0, 1] (in doubles, from the
Stirling series of its Gamma functions), so the tail is amp D eta^(-j-l)
times a quadratic form in the moments
S_k = sum_{i>=M} eta^(2i) i^(-1) (M/i)^k.  Those follow from Euler-Maclaurin
on the exponential integrals E_{k+1}(-M log eta^2), so no loop or array
grows with 1/(1 - eta).  A block whose stop rule fires inside the head, or
one asked for a tol below TAIL_TOL_MIN, is the plain direct sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import AccuracyError
from .maps import thresholds
from .raney import amplitude, raney_step

#: read by perfbench/one_pass.py's environment record; the kernel is numpy only
HAS_NUMBA = False

#: hard cap on the number of rows summed directly
M_MAX_DEFAULT = 50_000_000
#: minimum number of rows per entry before the geometric tail bound may fire
_MIN_TERMS = 8
#: cap on rows x N of one chunk; larger chunks raise the peak memory
#: (measured on the benchmark) without saving time
CHUNK_ELEMS = 8_192
#: fewest rows summed directly before the tail is closed.  At rows
#: i = M/t >= 512 the truncated Stirling series of _row_profile errs by
#: less than 1e-20, and at m = 512 _tail_moments matches direct sums
#: within 7.1e-15 for lam <= 2e-2: the error of _expint_orders near
#: z = lam m ~ 1, which its test bounds at 1e-14
HEAD_MIN = 512
#: degree of the polynomial interpolant of each column's profile g_j
TAIL_DEGREE = 12
#: times the head grows fourfold when the profile fit or row check misses
_HEAD_RETRIES = 2
#: smallest tol for which the tail is closed; a smaller one sums directly
TAIL_TOL_MIN = 1e-13
#: largest last two Chebyshev coefficients of g_j, relative to the first,
#: accepted for the interpolant; rounding leaves them near 1e-16
_PROFILE_TOL = 0.1 * TAIL_TOL_MIN
#: Euler-Maclaurin weights B_2r / (2r)!, r = 1..4
_EM_WEIGHTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600)
_EULER_GAMMA = 0.5772156649015329


def synthesis_rows(s, q, n, zeta, m_max, scale=None):
    """Yield (V[i0:i1] D, r) for consecutive row chunks of rows 0 .. m_max-1.

    D = diag(scale), the identity by default.  r[j] = V[i1, j] / V[i1-1, j]
    is the ratio into the first row after the chunk.  The first chunk holds
    the n x n triangular head and _MIN_TERMS more rows; later chunks double
    up to CHUNK_ELEMS // n rows.
    """
    p = q + s * np.arange(n, dtype=np.float64)
    col = np.arange(n, dtype=np.float64)
    inv_sqrt_p = 1.0 / np.sqrt(p)
    # scale_j R_{s,p_j}(m) zeta^m, m = max(i - j, 0), at the chunk's first row i
    u = np.ones(n) if scale is None else np.array(scale, dtype=np.float64)
    i0 = 0
    chunk = n + _MIN_TERMS
    while i0 < m_max:
        c = min(chunk, m_max - i0)
        i = np.arange(i0, i0 + c, dtype=np.float64)[:, None]
        m = i - col
        num, den = raney_step(s, p, np.maximum(m, 0.0))
        ratio = np.where(m >= 0.0, (num / den) * zeta, 1.0)
        cum = np.cumprod(ratio, axis=0)
        rows = np.empty((c, n))
        rows[0] = u
        np.multiply(u, cum[:-1], out=rows[1:])
        u = u * cum[-1]
        rows *= (q + s * i) * inv_sqrt_p
        rows[m < 0.0] = 0.0
        i0 += c
        yield rows, ratio[-1] * ((q + s * i0) / (q + s * (i0 - 1)))
        chunk = min(2 * chunk, max(CHUNK_ELEMS // n, 1))


def eta_gap(s, zeta):
    """1 - eta = 1 - zeta/zeta_c as an exact Fraction, from the float zeta."""
    return 1 - Fraction(zeta) / thresholds(s).zeta_c


def _gram_series_np(s, q, n, zeta, tol, m_max=M_MAX_DEFAULT, scale=None, gap=None):
    """(V D)^T (V D) over rows 0, 1, ... of sector q: returns (matrix, rows, tail).

    D = diag(scale), the identity by default; gap = 1 - eta, exact (eta_gap
    when None).  Direct summation stops once every entry's geometric tail
    bound t r_b / (1 - r_b) is at most tol times the entry, where t is the
    entry's last row product and r_b = max(r_j1 r_j2, eta^2).  eta^2 caps
    the estimate, since the true ratio approaches it from below like 1 - 1/i.
    If the bound has not fired within the head (_head_rows) and tol >=
    TAIL_TOL_MIN, the remaining rows are added in closed form (_closed_tail,
    with lam = -log eta^2).  A closure that misses its checks grows the head
    fourfold, at most _HEAD_RETRIES times, and then raises AccuracyError.

    rows counts the rows summed directly.  tail is the largest share of an
    entry that was not: the geometric bound over the entry, or the closed
    tail over the entry; it is -1 when m_max rows were summed first.  The
    matrix is exactly symmetric.
    """
    gap = eta_gap(s, zeta) if gap is None else gap
    eta2 = float((1 - gap) ** 2)
    acc = np.zeros((n, n))
    rows = 0
    tail = -1.0
    head = _head_rows(s, q, n) if tol >= TAIL_TOL_MIN else math.inf
    misses = 0
    for v, r in synthesis_rows(s, q, n, zeta, m_max, scale):
        acc += v.T @ v
        rows += len(v)
        if rows < n + _MIN_TERMS:
            continue
        rb = np.maximum(np.outer(r, r), eta2)
        if rb.max() < 1.0:
            bound = np.outer(v[-1], v[-1]) * rb / (1.0 - rb)
            if np.all(bound <= tol * acc):
                share = np.divide(bound, acc, out=np.zeros((n, n)), where=acc > 0)
                tail = float(share.max())
                break
        if rows >= head:
            closed = _closed_tail(s, q, n, gap, rows, v[-1], tol, scale)
            if closed is not None:
                acc += closed
                tail = float(np.max(closed / acc))
                break
            if misses == _HEAD_RETRIES:
                raise AccuracyError(
                    f"closed Gram tail missed tolerance {tol} with a head of {rows} rows"
                )
            misses += 1
            head = 4 * rows
    return np.triu(acc) + np.triu(acc, 1).T, rows, tail


def _head_rows(s, q, n):
    """Rows summed directly before the tail may be closed.

    The profiles g_j vary on the scale i ~ p_j^2 / (s(s-1)), so the head
    covers that scale for the last column and the interpolant on
    t = M/i in [0, 1] stays of low degree.
    """
    p = q + s * (n - 1)
    return max(HEAD_MIN, p * p // (s * (s - 1)))


def _closed_tail(s, q, n, gap, m, last_row, tol, scale):
    """sum_{i>=m} v_i v_i^T in closed form, or None when it fails a check.

    The checks: the profile interpolant converged (_row_profile), and the
    model reproduces the head's last direct row, i = m - 1, to within tol.
    """
    prof = _row_profile(s, q, n, m, TAIL_DEGREE)
    if prof is None:
        return None
    amp, coef = prof
    lam = -2.0 * math.log1p(-float(gap))  # -log eta^2
    j = np.arange(n)
    d = amp * np.exp(0.5 * lam * j)  # amp_j eta^(-j)
    if scale is not None:
        d = d * scale
    i = m - 1
    model = d * (coef @ (m / i) ** np.arange(TAIL_DEGREE + 1))
    model *= math.exp(-0.5 * lam * i) / math.sqrt(i)
    if not np.all(np.abs(model - last_row) <= tol * np.abs(last_row)):
        return None
    mom = _tail_moments(lam, m, 2 * TAIL_DEGREE)
    k = np.arange(TAIL_DEGREE + 1)
    hankel = mom[k[:, None] + k]
    return (coef @ hankel @ coef.T) * np.outer(d, d)


@lru_cache(maxsize=64)
def _row_profile(s, q, n, m, degree):
    """(amp, coef) of sector q's columns for a head of m rows, or None.

    amp_j = s A_{s,p_j} / sqrt(p_j) and coef[j] holds the monomial
    coefficients in t = m/i of the degree-`degree` interpolant of g_j at the
    Chebyshev points t_a = (1 - cos(pi a / degree)) / 2.  g_j(0) = 1; at
    t > 0, g_0 = q sqrt(i) Gamma(si+q+1) zeta_c^i / (Gamma(i+1)
    Gamma((s-1)i+q+1) s A_{s,q}), and g_j / g_{j-1} = (s-1)(i-j+1) /
    ((s-1)i+q+j).  None when the last two Chebyshev coefficients of some g_j
    exceed _PROFILE_TOL.

    g_0 is evaluated in doubles (_log_g0).  With a = si + q, b = (s-1)i + q and
    the Stirling series log Gamma(z+1) = (z + 1/2) log z - z + log(2 pi)/2
    + c(z), c(z) = 1/(12z) - 1/(360z^3) + 1/(1260z^5) (DLMF 5.11.1), the
    terms in i log i, i, log i and the constants cancel exactly against
    zeta_c^i = ((s-1)^(s-1) / s^s)^i and s A_{s,q} / q = s (s/(s-1))^q /
    sqrt(2 pi s (s-1)), leaving

        log g_0 = (a + 1/2) log1p(q/(si)) - (b + 1/2) log1p(q/((s-1)i))
                  + c(a) - c(i) - c(b).

    The nodes lie at i = m/t >= m >= HEAD_MIN, where the series' next term,
    1/(1680 z^7), is below 1e-20.
    """
    t, dct, vander = _cheb_nodes(degree)
    x = m / t[1:]  # the nodes t > 0 as rows i = m/t
    g0 = np.exp(_log_g0(s, q, x))
    i = x[:, None]
    col = np.arange(1, n)
    step = (s - 1) * (i - col + 1) / ((s - 1) * i + q + col)
    g = np.ones((degree + 1, n))
    g[1:] = np.cumprod(np.column_stack([g0, step]), axis=1)
    cheb = dct @ g
    if np.any(np.abs(cheb[-2:]) > _PROFILE_TOL * np.abs(cheb[0])):
        return None
    coef = np.linalg.solve(vander, g).T
    p = q + s * np.arange(n)
    amp = np.array([s * amplitude(s, int(pj)) / math.sqrt(pj) for pj in p])
    for arr in (amp, coef):
        arr.setflags(write=False)  # shared by every caller through the cache
    return amp, coef


@lru_cache(maxsize=4)
def _cheb_nodes(degree):
    """(t, dct, vander) for the Chebyshev extrema t_a = (1 - cos(pi a /
    degree)) / 2: dct maps values at t to Chebyshev coefficients (DCT-I),
    and vander is the increasing Vandermonde matrix of t."""
    a = np.arange(degree + 1)
    t = 0.5 - 0.5 * np.cos(np.pi * a / degree)
    w = np.ones(degree + 1)
    w[[0, -1]] = 0.5
    dct = (2.0 / degree) * np.cos(np.pi * np.outer(a, a) / degree) * w
    vander = np.vander(t, increasing=True)
    for arr in (t, dct, vander):
        arr.setflags(write=False)
    return t, dct, vander


def _log_g0(s, q, x):
    """log g_0 at rows x >= HEAD_MIN, in doubles, by the closed form in
    _row_profile."""

    def c(z):
        r = 1.0 / (z * z)
        return (1 / 12 - r * (1 / 360 - r / 1260)) / z

    a = s * x + q
    b = (s - 1) * x + q
    return (
        (a + 0.5) * np.log1p(q / (s * x))
        - (b + 0.5) * np.log1p(q / ((s - 1) * x))
        + c(a) - c(x) - c(b)
    )


def _tail_moments(lam, m, k_max):
    """S_k = sum_{i>=m} e^(-lam i) i^(-1) (m/i)^k for k = 0 .. k_max.

    Euler-Maclaurin with four correction terms on phi(u) = e^(-z u)
    u^(-1-k), z = lam m: S_k = E_{k+1}(z) + phi(1)/(2m) + sum_r
    B_2r/(2r)! m^(-2r) P_{2r-1} e^(-z), where -e^(-z) P_n = phi^(n)(1) and
    P_n = sum_l C(n, l) z^(n-l) (k+1)(k+2)...(k+l) >= 0.
    """
    z = lam * m
    # w[l] = sum_r B_2r/(2r)! m^(-2r) C(2r-1, l) z^(2r-1-l), the weight of
    # the rising product (k+1)...(k+l) summed over every P_{2r-1}
    top = 2 * len(_EM_WEIGHTS)
    w = [
        sum(
            wt * m ** (-2 * r) * math.comb(2 * r - 1, l) * z ** (2 * r - 1 - l)
            for r, wt in enumerate(_EM_WEIGHTS, start=1)
            if l < 2 * r
        )
        for l in range(top)
    ]
    k = np.arange(k_max + 1, dtype=np.float64)
    rising = np.cumprod(np.vstack([np.ones_like(k), k + np.arange(1, top)[:, None]]), axis=0)
    ez = math.exp(-z)
    return _expint_orders(z, k_max + 1) + ez / (2 * m) + ez * (np.array(w) @ rising)


def _expint_orders(z, n_max):
    """E_n(z) = int_1^inf e^(-z u) u^(-n) du for n = 1 .. n_max, z > 0.

    E_n0 at n0 ~ z, from the power series of E_1 (z < 1) or the continued
    fraction (z >= 1, modified Lentz; Numerical Recipes, sec. 6.3), then the
    recurrence n E_{n+1} = e^(-z) - z E_n upwards and downwards from n0,
    each in the direction where it damps rounding errors (by z/n above n0
    and n/z below).
    """
    n0 = min(max(round(z), 1), n_max)
    ez = math.exp(-z)
    if z < 1.0:
        e0 = -_EULER_GAMMA - math.log(z)
        term = 1.0
        for k in range(1, 21):
            term *= -z / k
            e0 -= term / k
    else:
        b = z + n0
        c, d = 1e300, 1.0 / b
        h = d
        for i in range(1, 10_000):
            a = -i * (n0 - 1 + i)
            b += 2.0
            d = 1.0 / (a * d + b)
            c = b + a / c
            h *= c * d
            if abs(c * d - 1.0) <= 2.3e-16:  # within an ulp of 1
                break
        e0 = h * ez
    e = np.empty(n_max + 1)
    e[n0] = e0
    for nn in range(n0, n_max):
        e[nn + 1] = (ez - z * e[nn]) / nn
    for nn in range(n0 - 1, 0, -1):
        e[nn] = (ez - nn * e[nn + 1]) / z
    return e[1:]
