import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todahess import continuation, gram, maps, raney, spectra
from todahess.errors import DomainError, UnsupportedRangeError


def u_series(s, n_max):
    """Oracle: exact coefficients of U = 1 + t U^s by fixed-point iteration
    on truncated integer polynomials (independent of the closed form)."""
    u = [1] + [0] * n_max
    for _ in range(n_max + 1):
        power = [1] + [0] * n_max
        for _ in range(s):
            new = [0] * (n_max + 1)
            for i, ai in enumerate(power):
                if ai:
                    for j in range(n_max + 1 - i):
                        if u[j]:
                            new[i + j] += ai * u[j]
            power = new
        u = [1] + power[:n_max]
    return u


def poly_pow(coeffs, p, n_max):
    out = [1] + [0] * n_max
    for _ in range(p):
        new = [0] * (n_max + 1)
        for i, ai in enumerate(out):
            if ai:
                for j in range(n_max + 1 - i):
                    if coeffs[j]:
                        new[i + j] += ai * coeffs[j]
        out = new
    return out


def test_catalan_row():
    assert [raney.raney(2, 1, n) for n in range(6)] == [1, 1, 2, 5, 14, 42]


def test_fuss_catalan_row():
    assert raney.raney_table(3, 1, 3) == (1, 1, 3, 12)


def test_small_values():
    assert raney.raney(3, 2, 2) == 7  # (2/8) C(8,2)
    assert raney.raney(2, 3, 1) == 3  # (3/5) C(5,1)


def test_r0_is_one():
    for s in (2, 4, 7):
        for p in (1, 3, 9):
            assert raney.raney(s, p, 0) == 1


def test_errors():
    with pytest.raises(UnsupportedRangeError):
        raney.raney(2, 0, 3)
    with pytest.raises(UnsupportedRangeError):
        raney.raney(2, -2, 3)
    with pytest.raises(DomainError):
        raney.raney(1, 1, 3)
    with pytest.raises(DomainError):
        raney.raney(2, 1, -1)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2000),
)
def test_raney_step_matches_closed_form(s, p, m):
    num, den = raney.raney_step(s, p, m)
    assert isinstance(num, int) and isinstance(den, int)
    closed = Fraction(raney.raney(s, p, m + 1), raney.raney(s, p, m))
    assert Fraction(num, den) == closed
    # The float and array forms are the same arithmetic on float64.
    marr = np.arange(max(0, m - 3), m + 4, dtype=np.float64)
    num_a, den_a = raney.raney_step(s, p, marr)
    for i, mf in enumerate(marr):
        num_f, den_f = raney.raney_step(s, p, float(mf))
        assert num_a[i] == num_f and den_a[i] == den_f


def test_table_matches_closed_form():
    for s in (2, 3, 5):
        for p in (1, 2, 7):
            tbl = raney.raney_table(s, p, 40)
            for n in (0, 1, 5, 17, 40):
                assert tbl[n] == raney.raney(s, p, n)


def test_functional_equation_polynomial_identity():
    # U_N - 1 - t U_N^s = O(t^{N+1}) as an exact polynomial identity, N = 25
    n_max = 25
    for s in (2, 3, 4):
        u = u_series(s, n_max)
        tbl = raney.raney_table(s, 1, n_max)
        assert list(tbl) == u
        power = poly_pow(u, s, n_max)
        # coefficient of t^{n+1} in t*U^s must equal coefficient n+1 of U
        for n in range(n_max):
            assert u[n + 1] == power[n]


def test_power_identity():
    # coefficients of U^p equal R_{s,p}(n) for n <= N - p (exact)
    n_max = 25
    for s in (2, 3):
        u = u_series(s, n_max)
        for p in (2, 3, 5):
            upow = poly_pow(u, p, n_max)
            tbl = raney.raney_table(s, p, n_max - p)
            for n in range(n_max - p + 1):
                assert upow[n] == tbl[n]


@given(st.integers(2, 6), st.integers(1, 12), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_integrality_property(s, p, n):
    val = raney.raney(s, p, n)
    assert isinstance(val, int) and val >= 1
    # closed form as exact rational is integral
    assert Fraction(p * math.comb(s * n + p, n), s * n + p).denominator == 1


def test_convolution_examples():
    assert raney.convolution_check(2, [1, 1], 2)
    assert raney.convolution_check(3, [1, 2], 1)
    assert raney.convolution_check(4, [3], 9)  # single factor trivial


@given(
    st.integers(2, 5),
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(0, 8),
)
@settings(max_examples=40, deadline=None)
def test_convolution_property(s, plist, m):
    assert raney.convolution_check(s, plist, m)


def test_amplitude_values():
    assert abs(raney.amplitude(2, 1) - 1 / math.sqrt(math.pi)) < 1e-15
    # A_{3,2} = 2 (3/2)^2 / sqrt(12 pi)
    assert abs(raney.amplitude(3, 2) - 4.5 / math.sqrt(12 * math.pi)) < 1e-15


@pytest.mark.parametrize("p", [1020, 1100])
def test_amplitude_overflow_is_a_domain_error(p):
    # 2.0**1100 raised a bare OverflowError; at p = 1020 the power is finite
    # and the product p 2^p overflows
    assert math.isfinite(raney.amplitude(2, 1000))
    with pytest.raises(DomainError):
        raney.amplitude(2, p)


def asymptotic_ratio(s, p, m):
    """R_{s,p}(m) zeta_c^m m^(3/2) / A_{s,p}, as criterion 4 computes it."""
    return raney.scaled_raney_seq(s, p, m)[-1] / raney.amplitude(s, p)


def test_asymptotic_ratio_trend():
    # R / asymptotic -> 1 with O(1/m) error (contract: within 5/m)
    r100 = asymptotic_ratio(2, 1, 100)
    assert abs(r100 - 1.0) < 5.0 / 100
    r1000 = asymptotic_ratio(2, 1, 1000)
    assert abs(r1000 - 1.0) < abs(r100 - 1.0)


def test_asymptotic_tolerance_band():
    for s in (2, 3, 5):
        for p in (1, 2, s):
            amp = raney.amplitude(s, p)
            seq = raney.scaled_raney_seq(s, p, 500)
            for m in (50, 120, 500):
                assert abs(seq[m - 1] / amp - 1.0) <= 5.0 / m


def test_uniform_one_term_expansion_fixed_p():
    # one-term expansion: m |eps| stays bounded for each fixed p, with the
    # bound growing like p^2/(2 s (s-1)) (the exp(-p^2/(2s(s-1)m)) factor)
    for s in (2, 3):
        for p in (1, 4, 12):
            cap = 4.0 + 0.75 * p * p / (s * (s - 1))
            for m in (50, 200, 1000, 2000):
                dev = abs(asymptotic_ratio(s, p, m) - 1.0) * m
                assert dev < cap


def test_uniform_expansion_breaks_at_theta_half():
    # counterexample to the theta-uniform |eps| <= C/m claim: at p = m/2 the
    # suppression exp(-p^2/(2s(s-1)m)) drives the ratio to 0, so eps -> -1
    # (see the decisions ledger)
    assert asymptotic_ratio(2, 1000, 2000) < 1e-20
    assert asymptotic_ratio(2, 25, 50) < 0.1


@pytest.mark.parametrize("bad", [1.5, 2.5, 3.0, True, "3"])
def test_non_integer_s_or_p_is_domain_error(bad):
    # sigma_p summed a non-integer sector silently; raney and hyp_params
    # raised a bare TypeError, raney_table an ArithmeticError
    with pytest.raises(DomainError, match="integer"):
        gram.sigma_p(3, bad, 0.1)
    with pytest.raises(DomainError, match="integer"):
        raney.raney(bad, 1, 3)
    with pytest.raises(DomainError, match="integer"):
        continuation.hyp_params(bad, 1)
    with pytest.raises(DomainError, match="integer"):
        raney.raney_table(3, bad, 3)


#: every public entry point that takes a count, called with the count bad
COUNT_ENTRY_POINTS = {
    "raney": lambda bad: raney.raney(3, 1, bad),
    "raney_table": lambda bad: raney.raney_table(3, 1, bad),
    "scaled_raney_seq": lambda bad: raney.scaled_raney_seq(3, 1, bad),
    "convolution_check": lambda bad: raney.convolution_check(3, [1, 2], bad),
    "boundary_injectivity_margin":
        lambda bad: maps.boundary_injectivity_margin(maps.MapConfig(3, 0.1), bad),
    "gram_vector": lambda bad: gram.gram_vector(3, 1, 0.05, bad),
    "weighted_block": lambda bad: gram.weighted_block(3, 0.05, 1, 1.0, bad),
    "synthesis_matrix_cols": lambda bad: gram.synthesis_matrix(3, 1, 1.0, 0.05, bad, 24),
    "synthesis_matrix_rows": lambda bad: gram.synthesis_matrix(3, 1, 1.0, 0.05, 8, bad),
    "spike_vector": lambda bad: gram.spike_vector(3, 1, 1.0, bad),
    "hessian_entry_m": lambda bad: gram.hessian_entry(3, 0.05, bad, 1),
    "hessian_entry_n": lambda bad: gram.hessian_entry(3, 0.05, 1, bad),
    "soft_spectrum": lambda bad: spectra.soft_spectrum(3, 1, 1.0, 32, 0.05, bad),
    "toeplitz_hs_norm": lambda bad: spectra.toeplitz_hs_norm(3, 1, 1.0, bad, 0.9),
}


@pytest.mark.parametrize("bad", [20.5, np.float64(20.0), "20"])
@pytest.mark.parametrize("name", sorted(COUNT_ENTRY_POINTS))
def test_non_integer_counts_are_domain_errors(name, bad):
    # a bare TypeError, or a silently rounded count: spike_vector(..., 4.5)
    # returned 5 entries and hessian_entry(3, 0.05, 1.5, 1) a float
    with pytest.raises(DomainError, match="integer"):
        COUNT_ENTRY_POINTS[name](bad)


@pytest.mark.parametrize("s", range(2, 41))
def test_zeta_c_value_is_the_exact_threshold_rounded_once(s):
    # (s-1)^(s-1) / float(s^s) rounded twice: one ulp off at s = 18, 19, 24, ...
    assert raney.zeta_c_value(s) == float(maps.thresholds(s).zeta_c)


def test_numpy_integer_s_and_p_are_accepted():
    # they become Python ints: at (8, 16) the ratio products overflow int64,
    # and raney_table raised ArithmeticError
    s, p = np.int64(8), np.int64(16)
    assert raney.raney_table(s, p, 40) == raney.raney_table(8, 16, 40)
    assert raney.raney(np.int32(3), p, 30) == raney.raney(3, 16, 30)
    zeta = 0.5 * raney.zeta_c_value(8)
    assert gram.sigma_p(s, p, zeta) == gram.sigma_p(8, 16, zeta)
    state = continuation.gp_continue(s, p, 1.5 * zeta**2)
    assert state.derivs == continuation.gp_continue(8, 16, 1.5 * zeta**2).derivs
    assert type(state.s) is int and type(state.p) is int
