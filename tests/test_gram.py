import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from todahess import gram, spectra
from todahess.errors import DivergenceError, DomainError
from todahess.maps import thresholds
from todahess.raney import raney_table

ZC2 = float(thresholds(2).zeta_c)
ZC3 = float(thresholds(3).zeta_c)


def sigma_brute(s, p, zeta, terms=80):
    tbl = raney_table(s, p, terms)
    return sum(
        (p + m * s) ** 2 / p * tbl[m] ** 2 * zeta ** (2 * m)
        for m in range(terms + 1)
    )


def test_sigma_small_zeta_limit():
    for s, p in ((2, 1), (3, 4)):
        assert abs(gram.sigma_p(s, p, 1e-9) - p) < 1e-12 * p


def test_sigma_vs_brute_force():
    got = gram.sigma_p(2, 1, 0.1)
    want = sigma_brute(2, 1, 0.1)
    assert abs(got - want) < 2e-12 * want
    got = gram.sigma_p(3, 2, 0.5 * ZC3)
    want = sigma_brute(3, 2, 0.5 * ZC3, terms=140)
    assert abs(got - want) < 2e-12 * want


def test_sigma_divergence_error():
    with pytest.raises(DivergenceError):
        gram.sigma_p(2, 1, 0.25)
    with pytest.raises(DivergenceError):
        gram.sigma_p(2, 1, 0.3)


@pytest.mark.parametrize(
    "call",
    [
        lambda z: gram.sigma_p(3, 1, z),
        lambda z: gram.weighted_block(3, z, 1, 1.0, 4),
        lambda z: gram.gram_vector(3, 1, z, 5),
        lambda z: gram.synthesis_matrix(3, 1, 1.0, z, 4, 8),
    ],
    ids=["sigma_p", "weighted_block", "gram_vector", "synthesis"],
)
def test_nonfinite_zeta_is_domain_error(call):
    for zeta in (math.inf, math.nan):
        with pytest.raises(DomainError):
            call(zeta)


def test_empty_synthesis_is_domain_error():
    with pytest.raises(DomainError):
        gram.gram_vector(3, 1, 0.05, -1)
    with pytest.raises(DomainError):
        gram.synthesis_matrix(3, 1, 1.0, 0.05, 4, 0)


def test_hessian_selection_rule():
    for s in (2, 3):
        zeta = 0.4 * float(thresholds(s).zeta_c)
        for m in range(1, 41, 3):
            for n in range(1, 41, 4):
                h = gram.hessian_entry(s, zeta, m, n)
                if (m - n) % s:
                    assert h == 0.0


def test_hessian_small_entries():
    # s=2, zeta=0.1: H_11 = 1, H_13 = 3 * R(0) R(1) * 0.1 = 0.3
    assert abs(gram.hessian_entry(2, 0.1, 1, 1) - 1.0) < 1e-14
    assert abs(gram.hessian_entry(2, 0.1, 1, 3) - 0.3) < 1e-14


def test_hessian_domain():
    with pytest.raises(DomainError):
        gram.hessian_entry(2, 1.5, 1, 1)  # beyond zeta_univ
    with pytest.raises(DomainError):
        gram.hessian_entry(2, 0.1, 0, 1)


def test_gram_consistency_grid():
    for s in (2, 3):
        zeta = 0.5 * float(thresholds(s).zeta_c)
        for m in range(1, 31, 5):
            for n in range(m, 31, 4):
                assert gram.gram_consistency(s, zeta, m, n) <= 1e-12


def test_gram_consistency_diagonal_rank_one():
    # m = n = p: single rank-one term, exact match
    assert gram.gram_consistency(3, 0.05, 4, 4) <= 1e-12


def test_gram_vector_support():
    v = gram.gram_vector(3, 2, 0.05, 10)
    assert v.entry(1) == 0.0 and v.entry(3) == 0.0
    assert v.entry(2) == 2 / math.sqrt(2)
    assert v.entry(5) > 0
    assert (np.asarray(v.values) >= 0).all()


def test_block_entry_diagonal_is_sigma_over_w2():
    w0 = gram.weight(2, 1, 1.0, 0)
    assert w0 == 2.0  # 1^{5/2} * 2^1
    got = gram.weighted_block(2, 0.1, 1, 1.0, 2).matrix[0, 0]
    want = gram.sigma_p(2, 1, 0.1) / 4.0
    assert abs(got - want) < 1e-12 * want


def test_block_entry_symmetry():
    mat = gram.weighted_block(3, 0.5 * ZC3, 1, 1.0, 5).matrix
    assert mat[1, 4] == mat[4, 1]


def test_block_entry_brute_force():
    # independent exact-integer oracle for a small off-diagonal entry
    s, q, beta, zeta = 3, 1, 0.7, 0.45 * ZC3
    j1, j2 = 1, 3
    pa, pb, delta = q + j1 * s, q + j2 * s, j2 - j1
    ta = raney_table(s, pa, 90)
    tb = raney_table(s, pb, 90)
    total = 0.0
    for m in range(80):
        total += (
            (pb + s * m) ** 2
            / math.sqrt(pa * pb)
            * ta[m + delta]
            * tb[m]
            * zeta ** (2 * m + delta)
        )
    total /= gram.weight(s, q, beta, j1) * gram.weight(s, q, beta, j2)
    got = gram.weighted_block(s, zeta, q, beta, j2 + 1).matrix[j1, j2]
    assert abs(got - total) < 1e-11 * abs(total)


def test_weighted_block_trace_is_sigma_sum():
    blk = gram.weighted_block(3, 0.6 * ZC3, 1, 1.0, 8)
    want = sum(
        gram.sigma_p(3, 1 + 3 * j, 0.6 * ZC3) / gram.weight(3, 1, 1.0, j) ** 2
        for j in range(8)
    )
    assert abs(np.trace(blk.matrix) - want) < 1e-10 * want


def test_weighted_block_small_zeta_limits():
    blk = gram.weighted_block(3, 1e-5, 1, 1.0, 6)
    for j in range(6):
        p = 1 + 3 * j
        want = p / gram.weight(3, 1, 1.0, j) ** 2
        # leading correction to the diagonal is (p+s)^2 zeta^2 relative
        assert abs(blk.matrix[j, j] - want) < 1e-6 * want
    # off-diagonal O(zeta^Delta)
    assert abs(blk.matrix[0, 1]) < 1e-4 * blk.matrix[0, 0]
    assert abs(blk.matrix[0, 3]) < abs(blk.matrix[0, 1])


def test_weighted_block_psd():
    for ratio in (0.5, 0.99, 0.9999):
        blk = gram.weighted_block(3, ratio * ZC3, 1, 1.0, 20)
        ev = np.linalg.eigvalsh(blk.matrix)
        assert ev[0] >= -1e-10 * max(ev[-1], 1e-300)
        assert np.max(np.abs(blk.matrix - blk.matrix.T)) <= 1e-13 * np.max(
            np.abs(blk.matrix)
        )


def test_weighted_block_validation():
    with pytest.raises(DomainError):
        gram.weighted_block(3, 0.05, 1, 1.0, 1)
    with pytest.raises(DomainError):
        gram.weighted_block(3, 0.05, 4, 1.0, 2)  # sector q > s
    # exact equality at the threshold for s=2 (zeta_c = 1/4 is a float)
    with pytest.raises(DivergenceError):
        gram.weighted_block(2, 0.25, 1, 1.0, 4)
    with pytest.raises(DivergenceError):
        gram.weighted_block(3, 0.149, 1, 1.0, 4)  # just above 4/27


def test_hs_tail_exponent():
    # sigma_{p_j}/w_j^2 must decay at least as fast as p_j^{-2-2beta} (the
    # Hilbert-Schmidt envelope); the pure power shape emerges only in the
    # threshold limit, and log(p) corrections steepen the fit at any
    # reachable zeta (measured -5.2 at ratio 0.9999; see the ledger)
    beta = 1.0
    zeta = 0.9999 * ZC3
    js = np.arange(10, 41, 6)
    vals = np.array(
        [
            gram.sigma_p(3, 1 + 3 * j, zeta) / gram.weight(3, 1, beta, j) ** 2
            for j in js
        ]
    )
    pj = 1.0 + 3.0 * js
    slope = np.polyfit(np.log(pj), np.log(vals), 1)[0]
    assert slope <= -(2 + 2 * beta) + 0.2
    assert slope > -8.0


def test_sigma_divergence_law_combination():
    # sigma_p + (2 s^2/p) B(zc^2) L stays bounded as zeta -> zeta_c; the
    # <10% range/mean version holds for the figure sectors (here (3,1)),
    # while for (2,1) the o(1) remainder is still large at 0.99 (recorded)
    from todahess.continuation import B_closed_form
    from todahess.spectra import log_scale

    ratios = (0.99, 0.999, 0.9999)
    combo31 = []
    for r in ratios:
        z = r * ZC3
        combo31.append(
            gram.sigma_p(3, 1, z)
            + 18.0 * B_closed_form(3, 1).value * log_scale(z, ZC3)
        )
    assert max(combo31) - min(combo31) < 0.10 * abs(np.mean(combo31))
    zc2 = ZC2
    combo21 = []
    for r in ratios:
        z = r * zc2
        combo21.append(
            gram.sigma_p(2, 1, z)
            + 8.0 * B_closed_form(2, 1).value * log_scale(z, zc2)
        )
    # boundedness: sigma alone grows past 5 over this grid, the combination
    # stays pinned near its limit constant
    assert all(abs(c) < 1.0 for c in combo21)
    assert gram.sigma_p(2, 1, 0.9999 * zc2) > 5.0


def test_spike_vector_closed_forms():
    sv = gram.spike_vector(2, 1, 1.0, 40)
    # Gamma = (1/pi) sum odd^{-4} = pi^3 / 96
    assert abs(sv.gamma_analytic - math.pi**3 / 96) < 1e-12
    # q = s: Gamma = (1/pi) 2^-4 zeta(4) = pi^3 / 1440
    assert abs(gram.spike_vector(2, 2, 1.0, 3).gamma_analytic - math.pi**3 / 1440) < 1e-17
    assert sv.gamma_truncated <= sv.gamma_analytic
    assert abs(sv.entries[1] / sv.entries[0] - 3.0**-2) < 1e-14
    assert abs(gram.spike_constant(2) - 1 / math.sqrt(math.pi)) < 1e-15
    assert (np.diff(sv.entries) < 0).all() and (sv.entries > 0).all()


@pytest.mark.parametrize("ratio", [0.99, 0.9999])
def test_unweighted_overflow_is_a_domain_error(ratio):
    # the column of p = 1100 grows like 2^1100: the stop rule fired on
    # inf <= inf and sigma_p returned inf with numpy overflow warnings
    zeta = ratio * float(thresholds(2).zeta_c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            gram.sigma_p(2, 1100, zeta)


def test_spike_gamma_truncation_converges():
    g20 = gram.spike_vector(3, 1, 1.0, 20).gamma_truncated
    g80 = gram.spike_vector(3, 1, 1.0, 80).gamma_truncated
    ga = gram.spike_vector(3, 1, 1.0, 80).gamma_analytic
    assert g20 < g80 < ga
    assert ga - g80 < 1e-6


def test_synthesis_isospectrality():
    # nonzero spectra of V^T V and V V^T agree (exact finite-matrix fact)
    v = gram.synthesis_matrix(3, 1, 1.0, 0.6 * ZC3, 8, 60)
    g1 = np.linalg.eigvalsh(v.T @ v)[::-1]
    g2 = np.linalg.eigvalsh(v @ v.T)[::-1][:8]
    assert np.max(np.abs(g1 - g2)) <= 1e-8 * max(g1[0], 1e-300)


def test_synthesis_matches_block_as_rows_grow():
    vmat = gram.synthesis_matrix(3, 1, 1.0, 0.55 * ZC3, 5, 400)
    blk = gram.weighted_block(3, 0.55 * ZC3, 1, 1.0, 5)
    assert np.max(np.abs(vmat.T @ vmat - blk.matrix)) < 1e-10


def exact_block_entry(s, q, beta, zeta, j1, j2):
    """Entry (j1, j2) of the weighted block from exact Raney integers and the
    exact rational zeta; the series is cut where eta^(2m) < 1e-17 eta^200 and
    only the final prefactor is rounded."""
    pa, pb, delta = q + j1 * s, q + j2 * s, j2 - j1
    eta2 = (zeta / float(thresholds(s).zeta_c)) ** 2
    terms = math.ceil(math.log(1e-17) / math.log(eta2)) + 100
    ta = raney_table(s, pa, terms + delta)
    tb = raney_table(s, pb, terms)
    z = Fraction(zeta)
    acc = Fraction(0)
    for m in range(terms, -1, -1):  # Horner in z^2
        acc = acc * z * z + (pb + s * m) ** 2 * ta[m + delta] * tb[m]
    series = float(acc * z**delta)
    wa, wb = gram.weight(s, q, beta, j1), gram.weight(s, q, beta, j2)
    return series / (math.sqrt(pa * pb) * wa * wb)


def _sector(data):
    s = data.draw(hst.integers(2, 6), label="s")
    return s, data.draw(hst.integers(1, s), label="q")


@settings(max_examples=20, deadline=None)
@given(data=hst.data(), n=hst.integers(2, 6), beta=hst.floats(0.25, 2.0),
       eta=hst.floats(0.1, 0.9))
def test_block_matches_exact_oracle(data, n, beta, eta):
    s, q = _sector(data)
    zeta = eta * float(thresholds(s).zeta_c)
    mat = gram.weighted_block(s, zeta, q, beta, n).matrix
    for j2 in range(n):
        for j1 in range(j2 + 1):
            want = exact_block_entry(s, q, beta, zeta, j1, j2)
            assert abs(mat[j1, j2] - want) <= 5e-12 * want


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), n=hst.integers(2, 6), beta=hst.floats(0.25, 2.0),
       eta=hst.floats(0.1, 0.9))
def test_block_is_symmetric_psd(data, n, beta, eta):
    s, q = _sector(data)
    mat = gram.weighted_block(s, eta * float(thresholds(s).zeta_c), q, beta, n).matrix
    assert np.array_equal(mat, mat.T)
    ev = np.linalg.eigvalsh(mat)
    assert ev[0] >= -1e-12 * ev[-1]


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), eta=hst.floats(0.1, 0.899))
def test_sigma_increases_with_zeta(data, eta):
    s, p = _sector(data)
    eta2 = data.draw(hst.floats(eta + 1e-3, 0.9), label="eta2")
    zc = float(thresholds(s).zeta_c)
    assert gram.sigma_p(s, p, eta * zc) < gram.sigma_p(s, p, eta2 * zc)


def mp_diagonal_entry(s, q, beta, zeta, j):
    """Entry (j, j) of the weighted block at 30 digits: sum_m p C(ms+p, m)^2
    zeta^(2m) / w_j^2 with p = q + js, the binomials by an integer ratio
    recurrence and the tail closed geometrically at eta^2."""
    import mpmath as mp

    p = q + j * s
    with mp.workdps(30):
        z2 = mp.mpf(zeta) ** 2
        eta2 = mp.mpf(zeta / float(thresholds(s).zeta_c)) ** 2
        b, acc, m = mp.mpf(1), mp.mpf(0), 0
        while True:
            term = p * b * b * z2**m
            acc += term
            if m > p and term < 1e-20 * acc:
                break
            big = m * s + p
            num = math.prod(range(big + 1, big + s + 1))
            den = (m + 1) * math.prod(range(big - m + 1, big - m + s))
            b = b * num / den
            m += 1
        acc += term * eta2 / (1 - eta2)
        w = mp.mpf(p) ** (1.5 + beta) * (mp.mpf(s) / (s - 1)) ** p
        return float(acc / w**2)


def test_large_block_stays_finite():
    # column j of the unweighted V peaks near M^(p_j) = 2^519 here, and its
    # square leaves the double range: the weights must scale inside the sum
    s, q, beta, n = 2, 1, 1.0, 260
    zeta = 0.999 * ZC2
    mat = gram.weighted_block(s, zeta, q, beta, n).matrix
    assert np.all(np.isfinite(mat))
    want = mp_diagonal_entry(s, q, beta, zeta, n - 1)
    assert abs(mat[-1, -1] - want) <= 1e-10 * want
    want0 = mp_diagonal_entry(s, q, beta, zeta, 0)
    assert abs(mat[0, 0] - want0) <= 1e-10 * want0


def test_weight_overflow_is_domain_error():
    # w_j = p_j^2.5 2^p_j passes the double range near p_j = 1000
    zeta = 0.5 * ZC2
    with pytest.raises(DomainError, match="overflows"):
        gram.weighted_block(2, zeta, 1, 1.0, 520)
    with pytest.raises(DomainError, match="overflows"):
        gram.synthesis_matrix(2, 1, 1.0, zeta, 520, 600)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_non_finite_beta_is_domain_error(beta):
    with pytest.raises(DomainError, match="beta"):
        gram.weight(3, 1, beta, np.arange(4))
    with pytest.raises(DomainError, match="beta"):
        gram.weighted_block(3, 0.5 * ZC3, 1, beta, 4)
    with pytest.raises(DomainError, match="beta"):
        gram.synthesis_matrix(3, 1, beta, 0.5 * ZC3, 4, 8)


@pytest.mark.parametrize("beta", [0.0, -1.0])
def test_non_positive_beta_is_domain_error(beta):
    # weighted_block and block_spectrum took beta <= 0, which spike_vector
    # and so soft_spectrum refused
    for call in (lambda: gram.weight(3, 1, beta, np.arange(4)),
                 lambda: gram.weighted_block(3, 0.5 * ZC3, 1, beta, 4),
                 lambda: spectra.block_spectrum(3, 1, beta, 4, 0.5 * ZC3),
                 lambda: spectra.soft_spectrum(3, 1, beta, 4, 0.5 * ZC3, 3)):
        with pytest.raises(DomainError, match="beta must be > 0"):
            call()
