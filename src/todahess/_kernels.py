"""Hot series kernel for the weighted Gram blocks.

Every entry of a Gram block is a sum over m of

    (pb + s m)^2 * R_{s,pa}(m + delta) * R_{s,pb}(m) * zeta^(2m + delta)

(optionally times a constant prefactor).  The Raney numbers grow like
zeta_c^{-m}, so terms are carried exclusively through multiplicative ratio
updates; neither factor is ever formed on its own.  Near the threshold the
terms behave like eta^{2m}/m with eta = zeta/zeta_c and the required number
of terms scales like 1/(1 - eta^2) -- about 1e6 at eta = 0.99999 -- which is
why this loop is the package's hot path.  It vectorizes the per-step ratios
and uses cumulative products within chunks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError
from .raney import raney_step

#: read by perfbench/one_pass.py's environment record; the kernel is numpy only
HAS_NUMBA = False

#: hard cap on series length; reached only beyond eta ~ 0.999999
M_MAX_DEFAULT = 50_000_000
#: minimum number of terms before the geometric tail bound may fire
_MIN_TERMS = 8


def _gram_series_np(
    s, pa, pb, delta, zeta, tol, log_pref, ratio_limit, m_max=M_MAX_DEFAULT
):
    """Chunked-cumprod series kernel: returns (value, n_terms, tail_bound).

    value = exp(log_pref) * sum_m (pb+sm)^2 R_{s,pa}(m+delta) R_{s,pb}(m)
            zeta^(2m+delta)

    tol is relative to the accumulated sum; ratio_limit = (zeta/zeta_c)^2
    caps the geometric tail estimate (the true term ratio approaches it from
    below like 1 - 1/m).  tail_bound is -1 when m_max terms were summed
    before the bound fired.
    """
    log_t0 = log_pref + 2.0 * math.log(pb)
    for m in range(delta):
        num, den = raney_step(s, pa, float(m))
        log_t0 += math.log((num / den) * zeta)
    t = math.exp(log_t0)
    acc = t
    zeta2 = zeta * zeta
    m0 = 0
    chunk = 1024
    while m0 < m_max:
        chunk = min(chunk, m_max - m0)
        marr = np.arange(m0, m0 + chunk, dtype=np.float64)
        grow = (pb + s * (marr + 1.0)) / (pb + s * marr)
        num_a, den_a = raney_step(s, pa, marr + delta)
        num_b, den_b = raney_step(s, pb, marr)
        ratios = grow * grow * (num_a / den_a) * (num_b / den_b) * zeta2
        terms = t * np.cumprod(ratios)
        acc += terms.sum()
        t = terms[-1]
        m0 += chunk
        if m0 >= _MIN_TERMS:
            rb = max(ratios[-1], ratio_limit)
            if rb < 1.0:
                tail = t * rb / (1.0 - rb)
                if tail <= tol * acc:
                    return acc, m0, tail
        chunk = min(chunk * 2, 262144)
    return acc, m0, -1.0  # budget exhausted before the tail bound fired


def block_series(s, q, beta, zeta, tol, ratio_limit, j1, j2, m_max=M_MAX_DEFAULT):
    """Entry (j1, j2), j1 <= j2, of the weighted block in sector q.

    (1/(w_j1 w_j2 sqrt(p_j1 p_j2))) * series with w_j = p_j^(3/2+beta) M^p_j,
    M = s/(s-1).  Raises DivergenceError when the tail bound never fired.
    """
    pa = q + j1 * s
    pb = q + j2 * s
    log_pref = (
        -(1.5 + beta) * (math.log(pa) + math.log(pb))
        - (pa + pb) * math.log(s / (s - 1.0))
        - 0.5 * (math.log(pa) + math.log(pb))
    )
    val, _, tail = _gram_series_np(
        s, pa, pb, j2 - j1, zeta, tol, log_pref, ratio_limit, m_max
    )
    if tail < 0:
        raise DivergenceError(
            f"block entry ({j1}, {j2}) series did not reach tolerance {tol} "
            f"within {m_max} terms"
        )
    return val


def block_matrix(s, q, beta, zeta, tol, ratio_limit, n, m_max=M_MAX_DEFAULT):
    """Weighted block Gram matrix, one series per upper-triangle entry."""
    out = np.empty((n, n), dtype=np.float64)
    for j2 in range(n):
        for j1 in range(j2 + 1):
            val = block_series(s, q, beta, zeta, tol, ratio_limit, j1, j2, m_max)
            out[j1, j2] = val
            out[j2, j1] = val
    return out
