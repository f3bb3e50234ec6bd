"""The series kernel against an exact-integer brute-force oracle, near the
threshold against the ODE-continued Gram weight, and its closed tail
against the direct sum."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from todahess import _kernels, continuation, gram, raney
from todahess.errors import AccuracyError, DivergenceError
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
    mat, rows, tail = _kernels._gram_series_np(s, pa, delta + 1, zeta, 1e-13)
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
    mat, rows, tail = _kernels._gram_series_np(2, 1, 1, zeta, 1e-13, 50)
    assert rows == 50 and tail < 0


def test_block_matrix_raises_when_tail_never_fires(monkeypatch):
    zeta = 0.99 * float(thresholds(2).zeta_c)
    monkeypatch.setattr(_kernels, "M_MAX_DEFAULT", 50)
    with pytest.raises(DivergenceError):
        gram.weighted_block(2, zeta, 1, 1.0, 3, 1e-13)


# ---------------------------------------------------------------------------
# The closed tail past the head


def direct_block(s, zeta, q, beta, n, tol=1e-14):
    """weighted_block from the same kernel with a head longer than the series."""
    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(_kernels, "HEAD_MIN", _kernels.M_MAX_DEFAULT)
        return gram.weighted_block(s, zeta, q, beta, n, tol)


def head_bound(s, q, n):
    """Most rows a closed block sums directly: the head and one more chunk."""
    return _kernels._head_rows(s, q, n) + max(_kernels.CHUNK_ELEMS // n, 1)


@settings(max_examples=15, deadline=None)
@given(data=hst.data(), n=hst.integers(2, 24), beta=hst.floats(0.25, 2.0),
       log_gap=hst.floats(math.log10(1e-5), math.log10(1e-2)))
def test_closed_block_matches_direct_sum(data, n, beta, log_gap):
    s = data.draw(hst.integers(2, 6), label="s")
    q = data.draw(hst.integers(1, s), label="q")
    zeta = (1.0 - 10.0**log_gap) * float(thresholds(s).zeta_c)
    blk = gram.weighted_block(s, zeta, q, beta, n)
    ref = direct_block(s, zeta, q, beta, n)
    assert np.all(np.abs(blk.matrix - ref.matrix) <= 1e-12 * ref.matrix)
    assert blk.rows <= min(ref.rows, head_bound(s, q, n))
    assert 0 <= blk.tail < 1


def test_block_at_1e_8_from_threshold():
    # the direct sum would need about 1.7e9 rows here
    s, q, beta, n = 3, 1, 1.0, 16
    zeta = (1.0 - 1e-8) * float(thresholds(s).zeta_c)
    blk = gram.weighted_block(s, zeta, q, beta, n)
    mat = blk.matrix
    assert np.all(np.isfinite(mat)) and np.array_equal(mat, mat.T)
    ev = np.linalg.eigvalsh(mat)
    assert ev[0] >= -1e-12 * ev[-1]
    assert blk.rows <= head_bound(s, q, n)
    want = continuation.sigma_cont(s, q, zeta * zeta).real / gram.weight(s, q, beta, 0) ** 2
    assert abs(mat[0, 0] - want) <= 1e-9 * want


@pytest.mark.parametrize("eta", [0.8, 0.9])
def test_block_inside_head_is_the_direct_sum(eta):
    s, q, beta, n = 3, 2, 1.0, 32
    zeta = eta * float(thresholds(s).zeta_c)
    blk = gram.weighted_block(s, zeta, q, beta, n)
    ref = direct_block(s, zeta, q, beta, n, gram.DEFAULT_TOL)
    assert np.array_equal(blk.matrix, ref.matrix)
    assert blk.rows == ref.rows < _kernels.HEAD_MIN
    assert 0 <= blk.tail <= gram.DEFAULT_TOL


def test_block_past_the_head_matches_the_direct_sum():
    # at eta = 0.99 the stop rule needs 1,816 rows; the tail closes at
    # 1,560, the first chunk boundary past the head of 1,504 rows
    s, q, beta, n = 3, 2, 1.0, 32
    zeta = 0.99 * float(thresholds(s).zeta_c)
    blk = gram.weighted_block(s, zeta, q, beta, n)
    ref = direct_block(s, zeta, q, beta, n, gram.DEFAULT_TOL)
    assert np.all(np.abs(blk.matrix - ref.matrix) <= 1e-12 * ref.matrix)
    assert blk.rows <= head_bound(s, q, n) < ref.rows
    assert 0 <= blk.tail < 1


@pytest.mark.parametrize("gap", [1e-3, 1e-8])
def test_unconverged_profile_grows_head_or_raises(monkeypatch, gap):
    # a degree-2 profile never passes its Chebyshev check: the head grows
    # until the direct stop rule fires (1e-3) or the retries run out (1e-8)
    s, q, beta, n = 3, 1, 1.0, 16
    zeta = (1.0 - gap) * float(thresholds(s).zeta_c)
    ref = direct_block(s, zeta, q, beta, n, gram.DEFAULT_TOL) if gap > 1e-4 else None
    monkeypatch.setattr(_kernels, "TAIL_DEGREE", 2)
    if ref is None:
        with pytest.raises(AccuracyError, match="closed Gram tail"):
            gram.weighted_block(s, zeta, q, beta, n)
    else:
        assert np.array_equal(gram.weighted_block(s, zeta, q, beta, n).matrix, ref.matrix)


def test_row_check_rejects_a_wrong_model(monkeypatch):
    # an amplitude off by 1e-6 fails the check against the last direct row
    s, q, beta, n = 3, 1, 1.0, 16
    zeta = (1.0 - 1e-6) * float(thresholds(s).zeta_c)
    monkeypatch.setattr(_kernels, "amplitude", lambda s, p: raney.amplitude(s, p) * (1 + 1e-6))
    _kernels._row_profile.cache_clear()
    try:
        with pytest.raises(AccuracyError):
            gram.weighted_block(s, zeta, q, beta, n)
    finally:
        _kernels._row_profile.cache_clear()


def test_small_tol_sums_directly():
    s, q, beta, n = 3, 1, 1.0, 4
    zeta = (1.0 - 1e-3) * float(thresholds(s).zeta_c)
    tol = 0.5 * _kernels.TAIL_TOL_MIN
    blk = gram.weighted_block(s, zeta, q, beta, n, tol)
    assert blk.rows == direct_block(s, zeta, q, beta, n, tol).rows > _kernels.HEAD_MIN
    assert blk.tail <= tol


@pytest.mark.parametrize("lam", [2e-4, 2e-3, 2e-2])
def test_tail_moments_match_a_direct_sum(lam):
    # at the shortest head, z = lam m reaches 1, where _expint_orders is
    # held to the 1e-14 of its own test
    k_max = 2 * _kernels.TAIL_DEGREE
    for m, rel in ((4096, 2e-15), (_kernels.HEAD_MIN, 1e-14)):
        i = np.arange(m, m + int(60 / lam), dtype=np.float64)
        base = np.exp(-lam * i) / i
        got = _kernels._tail_moments(lam, m, k_max)
        for k in range(k_max + 1):
            want = math.fsum(base * (m / i) ** k)
            assert abs(got[k] - want) <= rel * want


def test_profile_g0_matches_loggamma():
    # the closed form of _row_profile against the 30-digit loggamma
    # expression it replaced, at rows i from HEAD_MIN to 5e7
    rows = np.geomspace(_kernels.HEAD_MIN, 5e7, 25)
    for s in range(2, 13):
        zc = thresholds(s).zeta_c
        for q in range(1, s + 1):
            got = np.exp(_kernels._log_g0(s, q, rows))
            with mp.workdps(30):
                log_norm = (
                    mp.log(s) + q * mp.log(mp.mpf(s) / (s - 1))
                    - mp.log(2 * mp.pi * s * (s - 1)) / 2
                )
                log_zc = mp.log(zc.numerator) - mp.log(zc.denominator)
                for x, g in zip(map(mp.mpf, rows), got):
                    want = mp.exp(
                        mp.log(x) / 2
                        + mp.loggamma(s * x + q + 1)
                        - mp.loggamma(x + 1)
                        - mp.loggamma((s - 1) * x + q + 1)
                        + x * log_zc
                        - log_norm
                    )
                    assert abs(g - want) <= 1e-14 * want, (s, q, x)


def test_expint_orders_match_mpmath():
    for z in [1e-9, 1e-3, 0.5, 0.999, 1.0, 3.7, 24.5, 60.0, 300.0]:
        got = _kernels._expint_orders(z, 25)
        with mp.workdps(40):
            for n in range(1, 26):
                want = mp.expint(n, z)
                assert abs(got[n - 1] - want) <= 1e-14 * want
