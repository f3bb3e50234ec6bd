"""The series kernel against an exact-integer brute-force oracle and, near
the threshold, against the ODE-continued Gram weight."""

import math

import numpy as np
import pytest

from todahess import _kernels, continuation, gram
from todahess.errors import DivergenceError
from todahess.maps import thresholds
from todahess.raney import raney_table

CASES = [
    # (s, pa, pb, delta, ratio_of_zeta_c); pa = q and pb = q + delta s, so
    # the series is entry (0, delta) of sector q times sqrt(pa pb)
    (2, 1, 1, 0, 0.40),
    (2, 1, 3, 1, 0.82),
    (3, 2, 8, 2, 0.60),
    (5, 1, 11, 2, 0.75),
]


def brute(s, pa, pb, delta, zeta, terms=200):
    # exact rational accumulation; the bare integers R * zeta^m would
    # overflow float conversion for large p
    from fractions import Fraction

    ta = raney_table(s, pa, terms + delta)
    tb = raney_table(s, pb, terms)
    z = Fraction(zeta)
    acc = Fraction(0)
    for m in range(terms + 1):
        acc += (pb + s * m) ** 2 * ta[m + delta] * tb[m] * z ** (2 * m + delta)
    return float(acc)


@pytest.mark.parametrize("s,pa,pb,delta,ratio", CASES)
def test_kernel_against_exact_oracle(s, pa, pb, delta, ratio):
    zeta = ratio * float(thresholds(s).zeta_c)
    want = brute(s, pa, pb, delta, zeta)
    mat, rows, tail = _kernels._gram_series_np(
        s, pa, delta + 1, zeta, 1e-13, ratio**2
    )
    assert tail >= 0
    val = mat[0, delta] * math.sqrt(pa * pb)
    assert abs(val - want) < 5e-12 * want


@pytest.mark.parametrize("eta", [0.999, 0.9999])
def test_block_entry_matches_continuation_near_threshold(eta):
    # Diagonal entry (0,0) is sigma_q / w_0^2; sigma_cont reaches the same
    # value by ODE transport, sharing no code with the series kernel.
    s, q, beta = 3, 1, 1.0
    zeta = eta * float(thresholds(s).zeta_c)
    w0 = gram.weight(s, q, beta, 0)
    series = gram.weighted_block(s, zeta, q, beta, 2).matrix[0, 0] * w0**2
    ode = continuation.sigma_cont(s, q, zeta * zeta).real
    assert abs(series - ode) <= 1e-9 * abs(ode)


def test_block_matrix_matches_entry_kernel():
    # weighted_block against the exact-integer oracle with its own
    # prefactor 1 / (sqrt(pa pb) w_a w_b), w_j = p_j^(3/2+beta) M^p_j
    s, q, beta = 3, 2, 0.8
    zeta = 0.7 * float(thresholds(s).zeta_c)
    n = 6
    mat = gram.weighted_block(s, zeta, q, beta, n, 1e-12).matrix
    assert np.array_equal(mat, mat.T)
    for j1, j2 in ((0, 0), (1, 4), (2, 5)):
        pa, pb = q + j1 * s, q + j2 * s
        w = [p ** (1.5 + beta) * 1.5**p for p in (pa, pb)]
        want = brute(s, pa, pb, j2 - j1, zeta) / (math.sqrt(pa * pb) * w[0] * w[1])
        assert abs(mat[j1, j2] - want) <= 1e-12 * want


def test_mmax_exhaustion_reports_negative_tail():
    zeta = 0.99 * float(thresholds(2).zeta_c)
    mat, rows, tail = _kernels._gram_series_np(2, 1, 1, zeta, 1e-13, 0.99**2, 50)
    assert rows == 50 and tail < 0


def test_block_matrix_raises_when_tail_never_fires(monkeypatch):
    zeta = 0.99 * float(thresholds(2).zeta_c)
    monkeypatch.setattr(_kernels, "M_MAX_DEFAULT", 50)
    with pytest.raises(DivergenceError):
        gram.weighted_block(2, zeta, 1, 1.0, 3, 1e-13)
