"""Hot series kernel for the weighted Gram blocks.

The block of sector q is V^T V for the unweighted synthesis factor

    V[i, j] = ((q + i s) / sqrt(p_j)) R_{s,p_j}(i - j) zeta^(i - j),  i >= j,

with p_j = q + j s and V[i, j] = 0 for i < j.  Column j peaks near
M^(p_j), past the double range at p_j ~ 500 for s = 2, so the weighted
block's 1/w_j enters at the column's first row, and the Raney numbers
(~ zeta_c^{-m}) only through ratio updates.  Near the threshold the row
products behave like eta^{2i}/i with eta = zeta/zeta_c and the required
number of rows scales like 1/(1 - eta^2) -- about 1e6 at eta = 0.99999 --
which is why this loop is the package's hot path.  It builds V in chunks of
rows, by cumulative products down the columns, and accumulates V^T V.
"""

from __future__ import annotations

import numpy as np

from .raney import raney_step

#: read by perfbench/one_pass.py's environment record; the kernel is numpy only
HAS_NUMBA = False

#: hard cap on the number of rows; reached only beyond eta ~ 0.999999
M_MAX_DEFAULT = 50_000_000
#: minimum number of rows per entry before the geometric tail bound may fire
_MIN_TERMS = 8
#: cap on rows x N of one chunk; larger chunks raise the peak memory
#: (measured on the benchmark) without saving time
CHUNK_ELEMS = 8_192


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


def _gram_series_np(s, q, n, zeta, tol, ratio_limit, m_max=M_MAX_DEFAULT, scale=None):
    """(V D)^T (V D) over rows 0, 1, ... of sector q: returns (matrix, rows, tail).

    D = diag(scale), the identity by default.  Summation stops once every
    entry's geometric tail bound t r_b / (1 - r_b) is at most tol times the
    entry, where t is the entry's last row product and r_b = max(r_j1 r_j2,
    ratio_limit).  ratio_limit = (zeta/zeta_c)^2 caps the estimate, since
    the true ratio approaches it from below like 1 - 1/i.  tail is the
    largest entry's bound, or -1 when m_max rows were summed before every
    bound fired.  The matrix is exactly symmetric.
    """
    acc = np.zeros((n, n))
    rows = 0
    tail = -1.0
    for v, r in synthesis_rows(s, q, n, zeta, m_max, scale):
        acc += v.T @ v
        rows += len(v)
        if rows < n + _MIN_TERMS:
            continue
        rb = np.maximum(np.outer(r, r), ratio_limit)
        if rb.max() < 1.0:
            bound = np.outer(v[-1], v[-1]) * rb / (1.0 - rb)
            if np.all(bound <= tol * acc):
                tail = float(bound.max())
                break
    return np.triu(acc) + np.triu(acc, 1).T, rows, tail
