import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from todahess import spectra
from todahess.errors import AccuracyError, DomainError, FitError
from todahess.gram import spike_vector, weighted_block
from todahess.maps import thresholds

ZC3 = float(thresholds(3).zeta_c)


def _sym_eig_loop(a):
    """eigh's eigenvectors, descending, with the per-column sign loop that
    sym_eig replaced by one vectorised flip."""
    _, v = np.linalg.eigh(0.5 * (a + a.T))
    v = v[:, ::-1].copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
        if nz.size and col[nz[0]] < 0:
            v[:, k] = -col
    return v


def test_sym_eig_identity_and_diag():
    dec = spectra.sym_eig(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1, 1, 1])
    dec = spectra.sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [3, 2, 1])


def test_sym_eig_rank_one():
    v = np.array([1.0, 2.0, 1.0, 1.0])  # ||v||^2 = 7
    dec = spectra.sym_eig(np.outer(v, v))
    assert abs(dec.eigenvalues[0] - 7.0) < 1e-12
    assert np.all(np.abs(dec.eigenvalues[1:]) < 1e-12)


def test_sym_eig_sign_convention_and_contracts():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(12, 12))
    a = a + a.T
    dec = spectra.sym_eig(a)
    for k in range(12):
        col = dec.eigenvectors[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
        assert col[nz[0]] > 0
    resid = np.max(np.abs(a @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues))
    assert resid <= 1e-9 * np.max(np.abs(dec.eigenvalues))
    assert np.max(np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(12))) < 1e-10


def test_sym_eig_signs_equal_the_column_loop():
    rng = np.random.default_rng(11)
    mats = [weighted_block(3, r * ZC3, q, 1.0, n).matrix
            for r in (0.5, 0.9, 0.99) for q in (1, 2, 3) for n in (8, 16, 32)]
    for n in rng.integers(2, 40, size=50):
        a = rng.normal(size=(n, n))
        mats.append(a + a.T)
    for a in mats:
        assert np.array_equal(spectra.sym_eig(a).eigenvectors, _sym_eig_loop(a))


def test_sym_eig_rejects_nonsymmetric():
    with pytest.raises(DomainError):
        spectra.sym_eig(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_log_scale_values():
    zc = 0.25
    assert abs(spectra.log_scale(zc * math.sqrt(1 - math.e**-1), zc) - 1.0) < 1e-12
    assert abs(spectra.log_scale(0.9 * zc, zc) - math.log(1 / 0.19)) < 1e-12
    assert spectra.log_scale(1e-8 * zc, zc) < 1e-15
    with pytest.raises(DomainError):
        spectra.log_scale(zc, zc)


@settings(max_examples=60, deadline=None)
@given(s=hst.integers(2, 8), log_gap=hst.floats(-14.0, -3.0))
@example(s=3, log_gap=math.log10(1 - 1e-8))
@example(s=3, log_gap=math.log10(0.5))
@example(s=5, log_gap=math.log10(0.1))
def test_log_scale_within_4_ulps(s, log_gap):
    # eta = zeta/zeta_c is formed exactly; a rounded eta made L off by
    # about eps/(1 - eta): 3.3e-4 relative at 1 - eta = 1e-14
    zc = thresholds(s).zeta_c
    zeta = (1.0 - 10.0**log_gap) * float(zc)
    got = spectra.log_scale(zeta, zc)
    with mp.workdps(50):
        eta = mp.mpf(zeta) * zc.denominator / zc.numerator
        want = float(-mp.log1p(-eta * eta))
    assert abs(got - want) <= 4 * math.ulp(want)


def test_rank_one_remainder_converges_with_the_exact_scale():
    # C~ = G~ - L d~ d~^T tends to R(1) like (1 - eta) L; a rounded eta put
    # the two remainders 8.5e-3 of max|C| apart
    zc = float(thresholds(3).zeta_c)
    c12, c14 = (spectra.rank_one_remainder(3, 1, 1.0, 40, (1.0 - g) * zc)
                for g in (1e-12, 1e-14))
    assert np.max(np.abs(c12 - c14)) <= 1e-9 * np.max(np.abs(c14))


def test_spectra_at_the_last_double_below_threshold():
    # float(4/27) lies below the exact zeta_c; the block check let it through
    # while log_scale, on the rounded ratio 1.0, raised DomainError
    zeta = float(thresholds(3).zeta_c)
    assert weighted_block(3, zeta, 1, 1.0, 16).rows > 0
    assert np.all(np.isfinite(spectra.rank_one_remainder(3, 1, 1.0, 16, zeta)))
    soft = spectra.soft_spectrum(3, 1, 1.0, 16, zeta, 4)
    assert np.all(np.isfinite(soft.values)) and np.all(np.isfinite(soft.compressed_limit))


def test_stiff_trajectory_small_config():
    # spec example: s=2, q=1, beta=1, N=40 -> slope near pi^3/96 (within 10%)
    zc2 = float(thresholds(2).zeta_c)
    grid = (1.0 - np.geomspace(1e-2, 1e-5, 8)) * zc2
    fit = spectra.stiff_trajectory(2, 1, 1.0, 40, grid)
    gamma = fit.gamma_truncated
    assert abs(gamma - math.pi**3 / 96) < 1e-4  # truncated vs analytic
    assert abs(fit.slope - gamma) / gamma < 0.10
    assert fit.slope > 0
    assert fit.residual < 0.02


def test_stiff_trajectory_needs_grid():
    with pytest.raises(FitError):
        spectra.stiff_trajectory(3, 1, 1.0, 12, [0.5 * ZC3])
    with pytest.raises(DomainError):
        spectra.stiff_trajectory(3, 1, 1.0, 4, [0.5 * ZC3, 0.6 * ZC3])


def test_alignment_monotone_and_bounded():
    a1 = spectra.eigvec_alignment(3, 1, 1.0, 30, 0.9 * ZC3)
    a2 = spectra.eigvec_alignment(3, 1, 1.0, 30, 0.9999 * ZC3)
    assert 0.0 <= a1.value <= 1.0
    assert a2.value > a1.value
    assert not a2.degenerate


def test_alignment_order_one_over_L():
    zc = ZC3
    cs = []
    for ratio in (0.99, 0.999, 0.9999):
        al = spectra.eigvec_alignment(3, 1, 1.0, 30, ratio * zc)
        cs.append((1 - al.value) * spectra.log_scale(ratio * zc, zc))
    cs = np.array(cs)
    assert cs.max() < 3.0 * max(cs.min(), 1e-12)


def test_soft_spectrum_shapes_and_errors():
    ss = spectra.soft_spectrum(3, 1, 1.0, 16, 0.99 * ZC3, 5)
    assert ss.values.shape == (4,)  # mu_2..mu_5
    assert ss.compressed_limit.shape == (15,)
    assert np.all(ss.values >= -1e-12)
    with pytest.raises(DomainError):
        spectra.soft_spectrum(3, 1, 1.0, 10, 0.9 * ZC3, 11)


def test_soft_spectrum_bounded_cap():
    caps = []
    for ratio in (0.9, 0.99, 0.999, 0.9999):
        ss = spectra.soft_spectrum(3, 1, 1.0, 20, ratio * ZC3, 4)
        caps.append(ss.values[0])
    assert max(caps) < 0.01  # config-level cap; stiff branch excluded


def test_rank_one_remainder_reconstruction():
    zeta = 0.999 * ZC3
    n = 20
    blk = weighted_block(3, zeta, 1, 1.0, n)
    d = spike_vector(3, 1, 1.0, n).entries
    c = spectra.rank_one_remainder(3, 1, 1.0, n, zeta)
    lval = spectra.log_scale(zeta, thresholds(3).zeta_c)
    assert np.allclose(c + lval * np.outer(d, d), blk.matrix, rtol=0, atol=1e-14)


def test_soft_calls_at_one_point_build_one_block(monkeypatch):
    calls = []

    def counting_block(*args, **kwargs):
        calls.append(args)
        return weighted_block(*args, **kwargs)

    monkeypatch.setattr(spectra, "weighted_block", counting_block)
    spectra._block_spectrum.cache_clear()
    zeta = 0.97 * ZC3
    spectra.soft_spectrum(3, 2, 1.0, 12, zeta, 4)
    spectra.eigvec_alignment(3, 2, 1.0, 12, zeta)
    spectra.rank_one_remainder(3, 2, 1.0, 12, zeta)
    assert len(calls) == 1


def test_cached_block_is_read_only():
    blk, dec = spectra.block_spectrum(3, 1, 1.0, 12, 0.97 * ZC3)
    for arr in (blk.matrix, blk.weights, dec.eigenvalues, dec.eigenvectors):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_rank_one_remainder_stabilizes():
    norms = []
    for ratio in (0.9, 0.99, 0.999, 0.9999):
        c = spectra.rank_one_remainder(3, 1, 1.0, 24, ratio * ZC3)
        norms.append(np.linalg.norm(c, 2))
    last = norms[1:]
    assert (max(last) - min(last)) / max(last) < 0.25
    # norm-convergence surrogate
    c1 = spectra.rank_one_remainder(3, 1, 1.0, 24, 0.999 * ZC3)
    c2 = spectra.rank_one_remainder(3, 1, 1.0, 24, 0.9999 * ZC3)
    assert np.linalg.norm(c2 - c1, 2) < 0.2 * np.linalg.norm(c2, 2)


def test_rayleigh_lower_bound():
    n = 24
    gamma = spike_vector(3, 1, 1.0, n).gamma_truncated
    for ratio in (0.99, 0.9999):
        zeta = ratio * ZC3
        blk = weighted_block(3, zeta, 1, 1.0, n)
        mu1 = spectra.sym_eig(blk.matrix).eigenvalues[0]
        lval = spectra.log_scale(zeta, ZC3)
        cnorm = np.linalg.norm(
            spectra.rank_one_remainder(3, 1, 1.0, n, zeta), 2
        )
        assert mu1 >= gamma * lval - cnorm - 1e-12


def test_gap_growth():
    gaps = []
    for ratio in (0.99, 0.999, 0.9999):
        blk = weighted_block(3, ratio * ZC3, 1, 1.0, 24)
        ev = spectra.sym_eig(blk.matrix).eigenvalues
        gaps.append(ev[0] - ev[1])
    assert gaps[0] < gaps[1] < gaps[2]


def test_toeplitz_removal_basics():
    assert spectra.toeplitz_hs_norm(3, 1, 1.0, 50, 1.0) == 0.0
    vals = spectra.toeplitz_removal_check(3, 1, 1.0, 200, [0.9, 0.99, 0.999])
    assert vals[0] > vals[1] > vals[2] > 0


def test_toeplitz_exponent_beta_quarter():
    etas = np.array([0.9, 0.99, 0.999])
    hs = np.array([spectra.toeplitz_hs_norm(3, 1, 0.25, 400, e) for e in etas])
    slope = np.polyfit(np.log(1 - etas), np.log(hs), 1)[0]
    assert abs(slope - 0.75) < 0.15


def test_nodal_count():
    assert spectra.nodal_count([1.0, 2.0, 3.0]) == 0
    assert spectra.nodal_count([1.0, -1.0, 1.0]) == 2
    assert spectra.nodal_count([1.0, 1e-18, -1.0]) == 1  # tiny entry ignored
    with pytest.raises(DomainError):
        spectra.nodal_count([0.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nodal_count_rejects_non_finite_entries(bad):
    with pytest.raises(DomainError, match="finite"):
        spectra.nodal_count([1.0, bad, -1.0])


def test_isospectral_blocks_surrogate():
    # nonzero spectra of V~^T V~ and V~ V~^T agree to 1e-8 relative
    from todahess.gram import synthesis_matrix

    v = synthesis_matrix(2, 1, 1.0, 0.5 * float(thresholds(2).zeta_c), 6, 80)
    e1 = np.linalg.eigvalsh(v.T @ v)[::-1]
    e2 = np.linalg.eigvalsh(v @ v.T)[::-1][:6]
    assert np.max(np.abs(e1 - e2)) <= 1e-8 * e1[0]
