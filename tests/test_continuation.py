import cmath
import math
import operator
import time
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from todahess import continuation as cont
from todahess import _kernels, gram
from todahess import stieltjes as st_mod
from todahess.errors import (
    AccuracyError,
    ConditioningError,
    DivergenceError,
    DomainError,
    PathError,
)
from todahess.gram import sigma_p
from todahess.maps import thresholds

ZC2_2 = float(thresholds(2).zeta_c) ** 2
ZC2_3 = float(thresholds(3).zeta_c) ** 2

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def _order(s, p):
    """d, the order of the reduced equation: the degree of its theta
    polynomials."""
    return len(cont._theta_polys(s, p)[0]) - 1


def _float_series(s, p, xi, d):
    """y, y', ..., y^(d-1) of y(xi) = G_p(zeta_c^2 xi) from the shared power
    series at 0, summed in complex doubles."""
    taylor, _ = cont._power_series(s, p, complex(xi), d, cont._arith(None))
    return [c * math.factorial(i) for i, c in enumerate(taylor)]


@pytest.mark.parametrize("dps", [None, 20], ids=["doubles", "30-digits"])
def test_seed_coeffs_match_the_exact_step_products(dps):
    # the cached coefficients are, bit for bit, the products of the exact
    # step ratios rounded afresh in doubles, or the exact floor chain
    # a num // den from 2^bits in fixed point; the second pass reads the cache
    ar = cont._arith(dps)
    for s, p in ((2, 1), (3, 2), (8, 16)):
        want, a = [], complex(1) if dps is None else 1 << ar.bits
        for m in range(300):
            want.append(a)
            num, den = cont._coeff_step(s, p, m)
            a = a * (num / den) if dps is None else a * num // den
        for _ in range(2):
            assert list(islice(cont._seed_coeffs(s, p, ar), 300)) == want


def test_hyp_params_s2p1():
    hp = cont.hyp_params(2, 1)
    assert hp.upper == (Fraction(1, 2),) * 2 + (Fraction(1),) * 2
    assert hp.lower == (Fraction(1), Fraction(2), Fraction(2))
    assert hp.reduced_upper == (Fraction(1, 2), Fraction(1, 2), Fraction(1))
    assert hp.reduced_lower == (Fraction(2), Fraction(2))
    assert hp.excess == 2 and hp.cancelled == 1


def test_hyp_params_s3p1():
    hp = cont.hyp_params(3, 1)
    assert hp.excess == 2
    assert hp.cancelled == 2
    assert len(hp.reduced_upper) == len(hp.reduced_lower) + 1


@pytest.mark.parametrize("s", range(2, 9))
@pytest.mark.parametrize("p", range(1, 9))
def test_parametric_excess_always_two(s, p):
    assert cont.hyp_params(s, p).excess == 2


def test_coefficient_ratio_identity_exact():
    # the hypergeometric term ratio reproduces R^2 zeta_c^2m exactly, m <= 40
    from todahess.raney import raney_table

    for s, p in ((2, 1), (3, 2), (5, 3)):
        zc2 = Fraction((s - 1) ** (s - 1), s**s) ** 2
        tbl = raney_table(s, p, 41)
        a = [Fraction(tbl[m] ** 2) * zc2**m for m in range(42)]
        hp = cont.hyp_params(s, p)
        for m in range(41):
            ratio = Fraction(1)
            for al in hp.reduced_upper:
                ratio *= m + al
            ratio /= m + 1
            for be in hp.reduced_lower:
                ratio /= m + be
            assert a[m + 1] == a[m] * ratio
            assert Fraction(*cont._coeff_step(s, p, m)) == a[m + 1] / a[m]


def _stirling2(n):
    """Table S(k, j), 0 <= j <= k <= n, Stirling numbers of the second kind."""
    tab = [[0] * (n + 1) for _ in range(n + 1)]
    tab[0][0] = 1
    for k in range(1, n + 1):
        for j in range(1, k + 1):
            tab[k][j] = j * tab[k - 1][j] + tab[k - 1][j - 1]
    return tab


def _falling_row(n, d):
    """[n!/(n-j)! for j = 0..d]."""
    row = [1]
    for j in range(d):
        row.append(row[-1] * (n - j))
    return row


@lru_cache(maxsize=None)
def _row_tables(s, p):
    """(ta, tb, den) of the reduced equation in its second form: theta^k =
    sum_j S(k, j) xi^j D^j turns theta prod_b (theta + b - 1) y = xi prod_a
    (theta + a) y into sum_j xi^j (c_j - xi e_j) y^(j) = 0, with c_d = e_d
    = 1.  ta[r][j] = den c_j C(j, r), r < d, and tb[r+1][j] = den e_j
    C(j+1, r+1), r = -1..d-1, for den the common denominator of c and e."""
    hp = cont.hyp_params(s, p)
    d = len(hp.reduced_upper)
    p_poly, r_poly = [Fraction(0), Fraction(1)], [Fraction(1)]
    for roots, poly in (([b - 1 for b in hp.reduced_lower], p_poly),
                        (list(hp.reduced_upper), r_poly)):
        for x in roots:  # poly *= (theta + x)
            poly[:] = [a + x * b for a, b in zip([Fraction(0), *poly], [*poly, Fraction(0)])]
    s2 = _stirling2(d)
    c = [sum(p_poly[k] * s2[k][j] for k in range(j, d + 1)) for j in range(d + 1)]
    e = [sum(r_poly[k] * s2[k][j] for k in range(j, d + 1)) for j in range(d + 1)]
    assert c[d] == e[d] == 1
    den = math.lcm(*(x.denominator for x in c + e))
    ci, ei = [int(den * x) for x in c], [int(den * x) for x in e]
    ta = [[ci[j] * math.comb(j, r) for j in range(d + 1)] for r in range(d)]
    tb = [[ei[j] * math.comb(j + 1, r + 1) for j in range(d + 1)] for r in range(-1, d)]
    return ta, tb, den


def _reference_row(s, p, big_n):
    """(alpha, beta, lead) of row N = big_n from the second form:
    alpha_r(N) = den sum_j c_j C(j, r) (N+r)!/(N+r-j)! and beta_r(N) = den
    sum_j e_j C(j+1, r+1) (N+r)!/(N+r-j)!, the coefficients of b_{N+r} in
    the coefficient of (xi - centre)^N, scaled by centre^N."""
    ta, tb, _ = _row_tables(s, p)
    d = len(ta)
    falling = [_falling_row(big_n + r, d) for r in range(-1, d + 1)]
    alpha = tuple(sum(map(operator.mul, ta[r], falling[r + 1])) for r in range(d))
    beta = tuple(sum(map(operator.mul, tb[r + 1], falling[r + 1]))
                 for r in range(-1 if big_n else 0, d))
    return alpha, beta, falling[d + 1][d]


@settings(max_examples=200, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15), big_n=hst.integers(0, 500))
@example(s=8, k=15, big_n=500)  # d = 16, the longest row
@example(s=2, k=0, big_n=0)  # row 0 has no b_{-1}
def test_recurrence_row_matches_the_xi_derivative_form(s, k, big_n):
    # the rows read from the theta polynomials are, integer for integer, those
    # of the Stirling conversion to sum_j xi^j (c_j - xi e_j) y^(j) = 0, and
    # share its den, so the walks run on the same numbers
    p = 1 + k % (2 * s)
    p_poly, r_poly = cont._theta_polys(s, p)
    assert p_poly[-1] == r_poly[-1] == _row_tables(s, p)[2]
    assert _order(s, p) == len(cont.hyp_params(s, p).reduced_upper)
    assert cont._recurrence_row(s, p, big_n) == _reference_row(s, p, big_n)


@settings(max_examples=40, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15), big_n=hst.integers(0, 200))
@example(s=8, k=15, big_n=200)  # d = 16, the longest row
def test_float_rows_are_the_integer_rows_rounded(s, k, big_n):
    # the double walk reads each integer row rounded once, as int * complex
    # rounds it, so its coefficients are those of the exact rows
    p = 1 + k % (2 * s)
    d = _order(s, p)
    list(islice(cont._recurrence_coeffs(s, p, 0.6 + 0.2j, [1j] * d), d + big_n + 1))
    rows = cont._FLOAT_ROWS[(s, p)]
    assert len(rows) > big_n
    for n in range(big_n + 1):
        alpha, beta, lead = cont._recurrence_row(s, p, n)
        assert rows[n] == ([*map(float, alpha)], [*map(float, beta)], float(lead))


def _reference_expand(coeffs, tau_far, ratio, d, ar):
    """_expand as it was written before it carried the value's sum alone:
    every component summed and checked at every term."""
    tol = ar.tol
    budget = int((10 * ar.digits + 20 * d) * math.log(0.5) / math.log(max(ratio, 0.5)))
    out = []
    sums = [0j] * d
    pw = 1
    for n, b in enumerate(coeffs):
        out.append(b)
        t = complex(b * pw)
        pw *= tau_far
        done = n >= 4 * d
        ff = 1.0  # n!/(n-i)!
        for i in range(min(d, n + 1)):
            sums[i] += ff * t
            q = ratio * (n + 1) / (n + 1 - i)
            done = (done and q < 1.0
                    and abs(t) * ff * q / (1.0 - q) <= tol * abs(sums[i]))
            ff *= n - i
        if done:
            return out
        if n >= budget:
            raise DivergenceError("budget")


@settings(max_examples=60, deadline=None)
@given(d=hst.integers(1, 16), ratio=hst.floats(0.0, 0.99, exclude_min=True),
       decay=hst.floats(0.05, 1.0), tau=hst.complex_numbers(max_magnitude=2.0),
       zs=hst.lists(hst.complex_numbers(max_magnitude=1e3), min_size=1, max_size=6),
       dps=hst.sampled_from([None, 20]))
@example(d=16, ratio=0.9, decay=1.0, tau=1.0, zs=[1 + 1j], dps=None)  # no tail: the budget
@example(d=3, ratio=0.5, decay=0.5, tau=1.0, zs=[1.0, 0.0, -2.0], dps=20)
def test_expand_stops_where_the_full_check_does(d, ratio, decay, tau, zs, dps):
    # the value's sum alone until its tail passes, then every component:
    # the same coefficients and stop index as checking all at every term
    ar = cont._arith(dps)

    def stream():
        return (zs[n % len(zs)] * decay**n for n in count())

    try:
        want = _reference_expand(stream(), tau, ratio, d, ar)
    except DivergenceError:
        with pytest.raises(DivergenceError):
            cont._expand(stream(), tau, ratio, d, ar)
        return
    got = cont._expand(stream(), tau, ratio, d, ar)
    assert len(got) == len(want) and got == want


def test_gp_series_values():
    assert cont.gp_series(3, 4, 0.0) == 1.0
    got = cont.gp_series(2, 1, 0.01)
    want = sum(c * c * 0.01**m for m, c in enumerate(CATALAN))
    assert abs(got - want) < 1e-12


def test_gp_series_outside_disk_redirects():
    with pytest.raises(DivergenceError) as err:
        cont.gp_series(2, 1, 0.99 * ZC2_2)
    assert "gp_continue" in str(err.value)


@settings(max_examples=30, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15),
       r=hst.floats(0.0, cont.SERIES_RADIUS), theta=hst.floats(-math.pi, math.pi),
       real=hst.booleans())
def test_gp_series_is_gp_continue_in_the_disk(s, k, r, theta, real):
    p = 1 + k % (2 * s)
    zc2 = float(thresholds(s).zeta_c) ** 2
    u = (r if real else cmath.rect(r, theta)) * zc2
    if abs(u / zc2) > cont.SERIES_RADIUS:  # rounding carried u an ulp out
        return
    assert cont.gp_series(s, p, u) == cont.gp_continue(s, p, u).value


@pytest.mark.parametrize("p", [1, 80])
def test_series_at_large_s(p):
    # at s = 40 the integer numerators of the step ratios exceed the double range
    s = 40
    zc2 = float(thresholds(s).zeta_c) ** 2
    st = cont.gp_continue(s, p, 0.5 * zc2)
    ref = [z / zc2**j for j, z in enumerate(_hyper_derivs(s, p, 0.5, 3))]
    for got, want in zip(st.derivs, ref, strict=True):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert cont.gp_series(s, p, 0.5 * zc2) == st.value


def test_gp_continue_at_zero():
    for s, p in ((2, 1), (3, 2), (8, 16)):
        st = cont.gp_continue(s, p, 0.0)
        assert st.value == 1.0 and st.steps == 0
        assert cont.sigma_from_state(st) == p


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_non_finite_targets_are_domain_errors(bad):
    with pytest.raises(DomainError):
        cont.gp_continue(2, 1, bad)
    for side in ("none", "above", "below"):
        with pytest.raises(DomainError):
            cont.gp_continue(3, 1, bad, side)
    with pytest.raises(DomainError):
        cont.gp_series(2, 1, bad)
    with pytest.raises(DomainError):
        cont.transport(2, 1, [cont.XI_SEED], [bad])
    if isinstance(bad, float):
        with pytest.raises(DomainError):
            cont.cut_trace(2, 1, [1.5, bad])
        with pytest.raises(DomainError):
            cont.disc_density_rho(3, 1, bad)


def test_continue_matches_series_inside_disk():
    for s, p in ((2, 1), (3, 1), (3, 2), (5, 1)):
        zc2 = float(thresholds(s).zeta_c) ** 2
        st = cont.gp_continue(s, p, 0.5 * zc2, "none")
        assert abs(st.value - cont.gp_series(s, p, 0.5 * zc2)) < 1e-10


def test_sides_agree_inside_disk():
    u = 0.4 * ZC2_2
    above = cont.gp_continue(2, 1, u, "above")
    below = cont.gp_continue(2, 1, u, "below")
    assert abs(above.value - below.value) < 1e-10


def test_schwarz_reflection():
    # the lower target is served at its mirror image and conjugated: walked
    # in doubles and on the rung, which (8, 16) takes here, summed from the
    # power series at 0.3 + 0.4i, and from the basis at xi = 1 below the axis
    for s, p, xi, dps in ((3, 1, 1.5 + 0.2j, None),
                          (8, 16, 3 + 0.5j, cont._MP_RUNG_DPS + cont.TAYLOR_GUARD_DPS),
                          (3, 1, 0.3 + 0.4j, None), (3, 2, 0.99 - 0.2j, None)):
        u = float(thresholds(s).zeta_c) ** 2 * xi
        a = cont.gp_continue(s, p, u, "none")
        b = cont.gp_continue(s, p, u.conjugate(), "none")
        assert all(y == x.conjugate() for x, y in zip(a.derivs, b.derivs, strict=True))
        assert all(y == x.conjugate() for x, y in zip(a.path, b.path, strict=True))
        assert (b.dps, b.steps, b.rel_est) == (a.dps, a.steps, a.rel_est)
        assert a.dps == dps


@pytest.mark.parametrize("s,p,xi", [(8, 16, -1.2), (3, 1, 0.99), (3, 1, -3.0)])
def test_real_targets_off_the_cut_are_real(s, p, xi):
    # the negative targets detoured through xi + 0.3i, which left im G'' near
    # -5.5e-15 at (8,16), and 'above' differed from 'none' there; every side
    # now walks the same stretch of the real axis
    u = xi * float(thresholds(s).zeta_c) ** 2
    st = cont.gp_continue(s, p, u, "none")
    assert all(d.imag == 0.0 for d in st.derivs)
    assert cont.sigma_from_state(st).imag == 0.0
    for side in ("above", "below"):
        assert cont.gp_continue(s, p, u, side).derivs == st.derivs


def test_cut_is_real():
    u = 1.5 * ZC2_2
    ga = cont.gp_continue(2, 1, u, "above").value
    gb = cont.gp_continue(2, 1, u, "below").value
    assert abs(ga - gb) > 1e-4  # nonzero jump across the cut
    assert ga.imag > 0 > gb.imag


def test_monodromy_trivial_off_cut():
    wp = [0.5, 0.5 + 0.4j, 0.9 + 0.4j, 0.9, 0.9 - 0.4j, 0.5 - 0.4j, 0.5]
    (z,) = cont.transport(2, 1, wp[:-1], wp[-1:]).states
    z0 = _float_series(2, 1, cont.XI_SEED, _order(2, 1))
    assert np.max(np.abs(z - z0)) < 1e-10


# r runs past SERIES_RADIUS, so both sides of the switch from the series to
# the walk are checked
@settings(max_examples=40, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15), r=hst.floats(0.01, 0.995),
       theta=hst.floats(-math.pi, math.pi))
# transported from XI_SEED these were off by 3.0e-4, 1.8e-6, 2.5e-11 and 9.3e-9
@example(s=8, k=15, r=0.03, theta=math.pi)
@example(s=8, k=15, r=0.1, theta=math.pi)
@example(s=2, k=3, r=0.055, theta=0.0)
@example(s=8, k=15, r=0.979, theta=math.pi)
@example(s=8, k=15, r=1e-30, theta=1.0)  # xi^15 underflows
@example(s=8, k=15, r=1e-200, theta=1.0)  # xi^2 underflows
def test_continue_inside_disk_meets_tol(s, k, r, theta):
    # oracle: mpmath's hypergeometric series at 50 digits; at 30 digits it is
    # itself off by 5.4e-11 at s = 8, p = 16, xi = 0.98
    p = 1 + k % (2 * s)
    zc2 = float(thresholds(s).zeta_c) ** 2
    u = cmath.rect(r, theta) * zc2
    hp = cont.hyp_params(s, p)
    with mp.workdps(50):
        a_list = [mp.mpf(f.numerator) / f.denominator for f in hp.reduced_upper]
        b_list = [mp.mpf(f.numerator) / f.denominator for f in hp.reduced_lower]
        ref = complex(mp.hyper(a_list, b_list, mp.mpc(u) / zc2))
    assert abs(cont.gp_continue(s, p, u, "none").value - ref) <= 1e-12 * abs(ref)


def test_cut_trace_matches_gp_continue_on_fig3_grid():
    # fig3's s = 5 densities; the legs along the cut start a detour height
    # away from the branch point, where the high derivatives stay moderate
    zc2 = float(thresholds(5).zeta_c) ** 2
    sup = np.geomspace(1.002, 4.0, 40)
    for p in (1, 2, 5, 10):
        states = cont.cut_trace(5, p, sup, side="above")
        for xi, st in list(zip(sup, states))[::3]:
            ref = cont.sigma_from_state(cont.gp_continue(5, p, xi * zc2, "above"))
            assert abs(cont.sigma_from_state(st) - ref) < 1e-9 * abs(ref)


@settings(max_examples=25, deadline=None)
@given(s=hst.integers(2, 8), data=hst.data(),
       xis=hst.lists(hst.floats(1.01, 6.0), min_size=1, max_size=3))
def test_cut_trace_matches_gp_continue(s, data, xis):
    # the two routes agreed to 2.0e-13 in G, G' and G'' over 150 draws of
    # this domain; legs started at the smallest node instead of a detour
    # height from xi = 1 were off by up to 3e-2
    p = data.draw(hst.integers(1, 2 * s))
    zc2 = float(thresholds(s).zeta_c) ** 2
    states = cont.cut_trace(s, p, xis, side="above")
    for xi, st in zip(xis, states):
        ref = cont.gp_continue(s, p, xi * zc2, "above")
        for got, want in zip(st.derivs, ref.derivs, strict=True):
            assert abs(got - want) <= 2e-12 * abs(want)


def test_cut_trace_keeps_node_order():
    zc2 = float(thresholds(3).zeta_c) ** 2
    nodes = [2.5, 1.05, 4.0, 1.2, 1.05]
    ordered = sorted(nodes)
    states = cont.cut_trace(3, 2, nodes)
    ref = cont.cut_trace(3, 2, ordered)
    for xi, st in zip(nodes, states, strict=True):
        assert st.u == xi * zc2
        assert st.derivs == ref[ordered.index(xi)].derivs


@settings(max_examples=10, deadline=None)
@given(s=hst.integers(2, 8), data=hst.data(),
       xis=hst.lists(hst.floats(1.01, 6.0), min_size=1, max_size=3))
def test_cut_trace_schwarz_symmetry(s, data, xis):
    # the lower path mirrors the upper one, so every derivative of the state
    # below the cut is the exact complex conjugate of the one above
    p = data.draw(hst.integers(1, 2 * s))
    above = cont.cut_trace(s, p, xis, side="above")
    below = cont.cut_trace(s, p, xis, side="below")
    for a, b in zip(above, below):
        assert len(a.derivs) == len(b.derivs)
        assert all(y == x.conjugate() for x, y in zip(a.derivs, b.derivs))
        assert all(y == x.conjugate() for x, y in zip(a.path, b.path, strict=True))
        assert (b.dps, b.steps, b.rel_est) == (a.dps, a.steps, a.rel_est)


def test_path_errors():
    with pytest.raises(PathError):
        cont.gp_continue(2, 1, 1.5 * ZC2_2, "none")  # on the cut, no side
    with pytest.raises(PathError):
        cont.gp_continue(2, 1, ZC2_2 * (1.5 + 0.3j), "below")  # wrong side
    with pytest.raises(PathError):
        cont.transport(2, 1, [0.3], [0.8])  # must start at a seed point
    with pytest.raises(PathError):
        cont.transport(2, 1, [], [0.8])
    with pytest.raises(PathError):
        cont.transport(2, 1, [cont.XI_SEED], [])  # and go somewhere
    with pytest.raises(PathError):
        cont.cut_trace(3, 1, [], "none")  # the side is checked without nodes


def test_side_none_is_a_domain_error():
    with pytest.raises(DomainError):
        cont.gp_continue(2, 1, 0.5 * ZC2_2, None)
    with pytest.raises(DomainError):
        cont.sigma_cont(3, 1, -2.0 * ZC2_3, None)
    with pytest.raises(DomainError):
        cont.cut_trace(3, 1, [], "bogus")  # checked before any node


def test_tiny_segment_is_walked():
    # the segment guard divided by |v|^2, which underflows to 0 here
    (state,) = cont.transport(2, 1, [cont.XI_SEED], [cont.XI_SEED + 1e-200j]).states
    ref = _float_series(2, 1, cont.XI_SEED, len(state))
    assert np.all(np.abs(state - ref) <= 1e-12 * np.abs(ref))


@pytest.mark.parametrize("xi", [-1e160, -1e300, 1e160j])
def test_targets_beyond_the_double_range_of_the_walk(xi):
    # the walk's step points left the double range on the way out and raised
    # PathError; the expansion at infinity sums them in doubles, and G' and
    # G'' there lie below the double range
    st = cont.gp_continue(2, 1, xi * ZC2_2, "none")
    (ref,) = _hyper_derivs(2, 1, xi, 1)
    assert abs(st.value - ref) <= 1e-12 * abs(ref)
    assert (st.dps, st.steps) == (None, 0) and st.path[0] == complex(math.inf)


def test_finiteness_at_univalence_threshold():
    for s in (2, 3):
        uu = float(thresholds(s).zeta_univ) ** 2
        for p in (1, 2):
            for side in ("above", "below"):
                st = cont.gp_continue(s, p, uu, side)
                assert abs(st.value) < 1e6
                assert abs(cont.sigma_from_state(st)) < 1e6


def test_sigma_cont_matches_sigma_p():
    for s, p in ((2, 1), (3, 2)):
        zeta = 0.5 * float(thresholds(s).zeta_c)
        a = cont.sigma_cont(s, p, zeta * zeta, "none")
        assert abs(a - sigma_p(s, p, zeta)) < 1e-8 * abs(a)


def test_sigma_cont_small_u_limit():
    # sigma -> p as u -> 0; for (2,1) the leading correction is 9u exactly
    vals = []
    for xr in (0.3, 0.15, 0.08, 0.04):
        u = xr * ZC2_2
        dev = abs(cont.sigma_cont(2, 1, u, "none") - 1.0)
        vals.append(dev)
        assert abs(dev - 9 * u) < 3 * u * u / ZC2_2**2
    assert vals[0] > vals[-1]


def test_b_closed_form_values():
    assert cont.B_closed_form(2, 1).rational == Fraction(-1, 2)
    assert abs(cont.B_closed_form(2, 1).value + 1 / (2 * math.pi)) < 1e-15
    # paper formula: -(p^2/4pi) s^{2p-1}/(s-1)^{2p+1}
    assert cont.B_closed_form(3, 1).rational == Fraction(-3, 32)
    assert cont.B_closed_form(2, 2).rational == Fraction(-8, 1)
    assert abs(cont.B_closed_form(2, 2).value + 8 / math.pi) < 1e-14
    for s, p in ((2, 1), (4, 3), (6, 2)):
        bc = cont.B_closed_form(s, p)
        assert bc.rational < 0


def test_edge_density_closed():
    assert abs(cont.edge_density_closed(2, 1) - 4 / math.pi) < 1e-14
    assert abs(cont.edge_density_closed(2, 2) - 32 / math.pi) < 1e-13
    # consistency with -(2 s^2/p) B
    for s, p in ((3, 1), (3, 2), (5, 4)):
        assert (
            abs(
                cont.edge_density_closed(s, p)
                + 2 * s * s / p * cont.B_closed_form(s, p).value
            )
            < 1e-12
        )


def test_resonant_fit_s2p1_small_grid():
    fit = cont.resonant_fit(2, 1, eps_grid=np.geomspace(3e-3, 6e-2, 16), dps=32)
    closed = cont.B_closed_form(2, 1).value
    assert fit.B_fit < 0
    assert abs(fit.B_fit - closed) / abs(closed) < 0.05


# the fit of (3,2) as it was when each node's series was summed term by term
# at 40 digits: six coefficients (a0, a1, a2, a3, b2, b3) per grid size
FIT_32 = {
    24: (1.1349960358638562, -0.2749763026631767, -0.23055864401712686,
         0.24308345884582244, -0.26505284635762916, -0.32328194345932443),
    8: (1.1349960346023864, -0.2749770745214811, -0.2318288146013133,
        0.23601800397570402, -0.26530611239600205, -0.32917581356648634),
}


@pytest.mark.parametrize("nodes", sorted(FIT_32))
def test_resonant_fit_coefficients_unchanged(nodes):
    grid = None if nodes == 24 else np.geomspace(3e-3, 6e-2, 8)
    fit = cont.resonant_fit(3, 2, eps_grid=grid)
    for got, want in zip(fit.coeffs, FIT_32[nodes], strict=True):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert fit.dps == 40 + cont.TAYLOR_GUARD_DPS
    assert fit.steps == 0 < fit.terms  # summed from the basis at xi = 1, with no walk


@pytest.mark.parametrize("dps", [0, 5, 14, 20.5, True, "40", 251])
def test_resonant_fit_rejects_bad_dps(dps):
    with pytest.raises(DomainError):
        cont.resonant_fit(2, 1, dps=dps)


def test_resonant_fit_narrow_grid_rejected():
    with pytest.raises(ConditioningError):
        cont.resonant_fit(2, 1, eps_grid=np.geomspace(1e-2, 2e-2, 6))


def test_resonant_fit_grid_outside_window_rejected():
    with pytest.raises(DomainError):
        cont.resonant_fit(3, 2, eps_grid=np.geomspace(1e-2, 0.5, 8))


def test_disc_density_positive_near_edge():
    u = ZC2_2 * 1.01
    rho = cont.disc_density_rho(2, 1, u)
    assert 0 < rho < 2.0
    for u in (ZC2_2, 0.5 * ZC2_2, -ZC2_2, math.nan):  # u <= zeta_c^2 is off the cut
        with pytest.raises(DomainError):
            cont.disc_density_rho(2, 1, u)


def test_disc_gp_local_expansion():
    # (1/2pi) |Disc G| ~ |B| w^2 within 10% for w in [-0.02, -0.002]
    bval = cont.B_closed_form(2, 1).value
    for eps in (0.002, 0.006, 0.02):
        u = ZC2_2 * (1 + eps)
        ga = cont.gp_continue(2, 1, u, "above").value
        assert abs(ga.imag / math.pi - abs(bval) * eps**2) < 0.1 * abs(bval) * eps**2


def test_local_model_inside_exclusion():
    u_in = ZC2_2 * (1 + 0.6e-4)
    st = cont.gp_continue(2, 1, u_in, "above")
    # continuity across the exclusion boundary
    u_out = ZC2_2 * (1 + 1.2e-4)
    st_out = cont.gp_continue(2, 1, u_out, "above")
    assert abs(st.value - st_out.value) < 1e-3 * abs(st_out.value)
    # the fitted local model that served this point was off by 6.5e-9 in G
    # and 6.5e-3 in G''
    _assert_matches_walk(st, 40)


def test_growth_at_infinity():
    # |G_p(u)| |u|^{p/s} / (1 + log|u|) bounded along the negative real axis
    s, p = 2, 1
    vals = []
    for mag in (10.0, 100.0, 1000.0):
        u = -mag * ZC2_2
        g = cont.gp_continue(s, p, u, "none").value
        vals.append(abs(g) * abs(u / ZC2_2) ** (p / s) / (1 + math.log(mag)))
    assert max(vals) < 10 * min(vals)
    assert max(vals) < 10.0


def test_ode_transport_vs_mpmath_hypergeometric():
    # independent oracle: mpmath's own hypergeometric continuation, fed the
    # reduced parameter lists, evaluated well outside the disk
    cases = [
        (2, 1, -3.0, "none"),
        (2, 1, -48.0, "none"),
        (2, 1, 1.5 + 0.4j, "above"),
        (3, 2, -5.0, "none"),
        (3, 2, 2.0 + 0.7j, "above"),
    ]
    for s, p, xi, side in cases:
        hp = cont.hyp_params(s, p)
        with mp.workdps(25):
            a_list = [mp.mpf(f.numerator) / f.denominator for f in hp.reduced_upper]
            b_list = [mp.mpf(f.numerator) / f.denominator for f in hp.reduced_lower]
            ref = complex(mp.hyper(a_list, b_list, xi))
        zc2 = float(thresholds(s).zeta_c) ** 2
        st = cont.gp_continue(s, p, complex(xi) * zc2, side)
        assert abs(st.value - ref) < 1e-11 * max(1.0, abs(ref))


def test_state_fields():
    st = cont.gp_continue(3, 2, 0.5 * ZC2_3, "none")
    assert st.s == 3 and st.p == 2 and st.side == "none"
    assert len(st.derivs) >= 3
    assert st.path[0] == 0.5


def _direct_series(s, p, xis, dps):
    """G_p at real xi in (0, 1), summed term by term from the exact
    coefficient ratio in fixed-point integers of dps + 30 digits."""
    bits = int((dps + 30) * 3.33)
    tail_bits = int((dps + 10) * 3.33)
    xs = [int(mp.ldexp(mp.mpf(x), bits)) for x in xis]  # exact: x has < bits bits
    inv_w = [(1 << bits) // ((1 << bits) - x) + 1 for x in xs]
    terms = [1 << bits] * len(xs)
    sums = list(terms)
    m = 0
    # the tail after a term is at most term / (1 - xi) once the ratio is < 1
    while m < 8 or any(t * iw > a >> tail_bits for t, iw, a in zip(terms, inv_w, sums)):
        num, den = cont._coeff_step(s, p, m)
        for i, x in enumerate(xs):
            terms[i] = terms[i] * num * x // (den << bits)
            sums[i] += terms[i]
        m += 1
    return [mp.ldexp(mp.mpf(a), -bits) for a in sums]


@pytest.mark.parametrize("s,p", [(2, 1), (3, 2), (5, 1), (6, 3)])
def test_taylor_walk_matches_direct_series(s, p):
    # the three smallest w of resonant_fit's default grid, where the direct
    # series needs the most terms
    with mp.workdps(40):
        xis = [1 - mp.mpf(w) for w in np.geomspace(1.5e-3, 6e-2, 24)[2::-1]]
        walk = cont._taylor_walk(s, p, [cont.XI_SEED, *xis], 40)
        for st, ref in zip(walk.states, _direct_series(s, p, xis, 40), strict=True):
            assert abs(st[0] - ref) <= mp.mpf("1e-37") * ref


@settings(max_examples=20, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15), xi=hst.floats(0.55, 0.98))
@example(s=8, k=15, xi=0.98)  # d = 16, the longest state
def test_taylor_walk_matches_float_series(s, k, xi):
    p = 1 + k % (2 * s)
    ref = _float_series(s, p, xi, _order(s, p))
    (state,) = cont._taylor_walk(s, p, [cont.XI_SEED, xi], 30).states
    assert len(state) == len(ref)
    for got, want in zip(state, ref):
        assert abs(complex(got) - want) <= 1e-12 * abs(want)


def test_taylor_walk_complex_path():
    # a polygon through the upper and lower half of the disk and back
    path = [0.3 + 0.6j, -0.5 + 0.2j, 0.1 - 0.7j, 0.8 - 0.1j]
    walk = cont._taylor_walk(3, 2, [cont.XI_SEED, *path], 30)
    d = _order(3, 2)
    for xi, state in zip(path, walk.states, strict=True):
        ref = _float_series(3, 2, xi, d)
        for got, want in zip(state, ref):
            assert abs(complex(got) - want) <= 1e-12 * abs(want)
    with pytest.raises(PathError):
        cont._taylor_walk(2, 1, [cont.XI_SEED, 1.5], 30)  # the real segment meets xi = 1
    with pytest.raises(PathError):
        cont._taylor_walk(2, 1, [cont.XI_SEED, 0.3j, -0.3j], 30)  # meets xi = 0


def _hyper_mp(s, p, xi, n, dps):
    """y, y', ... y^(n-1) of y(xi) = G_p(zeta_c^2 xi) from mpmath's
    hypergeometric function at dps digits, as mpc numbers, with the reduced
    parameters: d/dxi pFq(a; b; xi) = (prod a / prod b) pFq(a + 1; b + 1; xi)."""
    hp = cont.hyp_params(s, p)
    with mp.workdps(dps):
        a_list = [mp.mpf(f.numerator) / f.denominator for f in hp.reduced_upper]
        b_list = [mp.mpf(f.numerator) / f.denominator for f in hp.reduced_lower]
        out, fac = [], mp.mpf(1)
        for k in range(n):
            shifted = mp.hyper([a + k for a in a_list], [b + k for b in b_list], mp.mpc(xi))
            out.append(fac * shifted)
            fac *= mp.fprod(a + k for a in a_list) / mp.fprod(b + k for b in b_list)
    return out


def _hyper_derivs(s, p, xi, n, dps=50):
    """_hyper_mp rounded to complex doubles."""
    return [complex(z) for z in _hyper_mp(s, p, xi, n, dps)]


#: largest relative gap of G, G', G'' between a 20-digit and a 40-digit
#: walk allowed on the draws of test_walk_at_20_digits_matches_40_digits:
#: the mpmath rung that the fixed-point one replaced reached 2.4e-17 there
#: (at (8, 16), xi = -1.2, on the detour through -1.2 + 0.3i), rounded up
#: to a power of ten
WALK_GAP_BOUND = 1e-16


def _walk_gap(s, p, path):
    """Largest relative gap of G, G', G'' at the end of path, from its first
    corner, between the walks at 20 and at 40 digits."""
    a = cont._taylor_walk(s, p, path, 20).states[-1]
    b = cont._taylor_walk(s, p, path, 40).states[-1]
    return max(float(abs(x - y) / abs(y)) for x, y in zip(a[:3], b[:3]))


@settings(max_examples=20, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15), r=hst.floats(1.05, 6.0),
       theta=hst.floats(-math.pi, math.pi), on_cut=hst.booleans())
# (8, 16) near xi = -1.2, on the detour through -1.2 + 0.3i: 1.0e-17
@example(s=8, k=15, r=abs(-1.2 + 0.2j), theta=cmath.phase(-1.2 + 0.2j), on_cut=False)
@example(s=8, k=15, r=abs(3 + 0.5j), theta=cmath.phase(3 + 0.5j), on_cut=False)
def test_walk_at_20_digits_matches_40_digits(s, k, r, theta, on_cut):
    # the fixed-point rung on gp_continue's paths, off the disk and on the
    # cut; a target below the axis walks the route of its mirror image
    p = 1 + k % (2 * s)
    xi = complex(r) if on_cut else cmath.rect(r, theta)
    assert _walk_gap(s, p, cont._waypoints(complex(xi.real, abs(xi.imag)))) <= WALK_GAP_BOUND


# on the cut, each with the gap the mpmath rung reached there rounded up to
# a power of ten (1.8e-26, 2.6e-22 and 2.6e-24); without the exponent range
# of each step's head in its mantissas the walk gives 3.7e-25, 4.5e-20 and
# 1.3e-22, which the property's single bound, set by (8, 16), lets through
@pytest.mark.parametrize("s,p,xi,bound", [(6, 3, 1.2, 1e-25), (8, 2, 4.0, 1e-21),
                                          (6, 1, 4.5, 1e-23)])
def test_walk_at_20_digits_keeps_the_precision_of_the_mpmath_rung(s, p, xi, bound):
    assert _walk_gap(s, p, cont._waypoints(complex(xi))) <= bound


@pytest.mark.parametrize("xi", [-1.2 + 0.2j, 3 + 0.5j])
def test_walk_at_20_digits_matches_hypergeometric_at_large_s(xi):
    # (8, 16), where the double walks disagree and the rung serves
    path = cont._waypoints(complex(xi))
    state = cont._taylor_walk(8, 16, path, 20).states[-1]
    for got, want in zip(state, _hyper_derivs(8, 16, xi, 3)):
        assert abs(complex(got) - want) <= 1e-15 * abs(want)


# off the axis at (6, 3), and at (8, 16), where the double walks disagree:
# the rung reported only its two walks' gap, 1.5e-25, 2.5e-22 and 1.0e-17,
# and its states rounded to doubles were 6.2e-17, 6.8e-17 and 4.3e-17 off
@pytest.mark.parametrize("s,p,xi", [(6, 3, 2 + 1j), (8, 16, 3 + 0.5j), (8, 16, -1.2 + 0.2j)])
def test_rung_estimate_bounds_the_rounding_to_doubles(s, p, xi):
    pts = cont._waypoints(complex(xi))
    run = cont.transport(s, p, pts[:-1], pts[-1:], keep=3)
    assert run.dps == cont._MP_RUNG_DPS + cont.TAYLOR_GUARD_DPS
    ref = _hyper_mp(s, p, xi, 3, 40)
    with mp.workdps(40):
        err = max(abs(z - w) / abs(w) for z, w in zip(run.states[0], ref, strict=True))
    assert err <= run.rel_est


def test_rung_meets_its_own_acceptance_test():
    # the rung's estimate adds 2^-53 for the rounding to doubles, and the
    # acceptance test adds it too: tol/4 = 1e-16 lies below 2^-53
    zc2 = cont.zeta_c_value(6) ** 2
    assert cont.gp_continue(6, 3, (2 + 1j) * zc2, tol=4e-15).dps is not None
    with pytest.raises(AccuracyError):
        cont.gp_continue(6, 3, (2 + 1j) * zc2, tol=4e-16)


@pytest.mark.parametrize("s,p,xi,tol", [(6, 3, 2 + 1j, 4e-16), (5, 10, -7.0, 2e-16)])
def test_rung_errors_report_the_working_digits(s, p, xi, tol):
    # the walk's rung and the far field's both work at _arith(20).digits,
    # the dps their states report
    digits = cont._arith(cont._MP_RUNG_DPS).digits
    with pytest.raises(AccuracyError, match=f"at {digits} digits"):
        cont.gp_continue(s, p, xi * cont.zeta_c_value(s) ** 2, tol=tol)


def _assert_matches_walk(st, dps, tol=1e-12):
    """G, G', G'' of st, in the closed upper half plane or below the cut,
    within tol relative of a dps-digit walk along the route of _waypoints to
    its target, conjugated below the cut, which a state served from the
    basis at xi = 1 does not walk."""
    zc2 = float(thresholds(st.s).zeta_c) ** 2
    path = cont._waypoints(st.path[-1])
    ref = cont._taylor_walk(st.s, st.p, path, dps).states[-1]
    for j, got in enumerate(st.derivs):
        want = complex(ref[j]) / zc2**j
        if st.side == "below":
            want = want.conjugate()
        assert abs(got - want) <= tol * abs(want)


@pytest.mark.parametrize("s,p,eps", [(2, 1, 0.01), (3, 2, 0.004), (5, 1, 0.5)])
def test_disc_density_rho_is_one_lateral_value(s, p, eps):
    u = float(thresholds(s).zeta_c) ** 2 * (1.0 + eps)
    assert cont.disc_density_rho(s, p, u) == cont.sigma_cont(s, p, u, "above").imag / math.pi


@settings(max_examples=15, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15), log_w=hst.floats(-8.0, math.log10(2e-2)),
       side=hst.sampled_from(["none", "above", "below"]))
@example(s=8, k=15, log_w=-8.0, side="below")  # d = 16, the longest state
def test_real_targets_below_the_cut_walk_the_axis(s, k, log_w, side):
    # straight from XI_SEED, or from the basis at xi = 1 where its estimate
    # meets tol/4, so G_p comes out real on either side; the reference walks
    # the detour through xi + 0.3i that these took before
    p = 1 + k % (2 * s)
    zc2 = float(thresholds(s).zeta_c) ** 2
    u = (1.0 - 10.0**log_w) * zc2
    xi = u / zc2
    if xi <= cont.SERIES_RADIUS:  # rounding carried xi an ulp into the disk
        return
    st = cont.gp_continue(s, p, u, side)
    assert st.path in ((cont.XI_SEED, xi), (1.0, xi))
    assert st.steps > 0 if st.path[0] == cont.XI_SEED else st.steps == 0
    assert all(d.imag == 0.0 for d in st.derivs)
    ref = cont._taylor_walk(s, p, [cont.XI_SEED, cont.XI_SEED + 0.3j, xi + 0.3j, xi],
                            40).states[-1]
    for j, got in enumerate(st.derivs):
        want = complex(ref[j]) / zc2**j
        assert abs(got - want) <= 1e-12 * abs(want)


def test_real_target_below_the_cut_stays_in_doubles():
    # (8, 16) at u = 0.985 zeta_c^2: the detour took the rung and 16 steps,
    # and the axis walks it in 9 double steps; the basis at xi = 1 serves it
    # in doubles with none
    st = cont.gp_continue(8, 16, 0.985 * float(thresholds(8).zeta_c) ** 2, "none")
    assert st.dps is None and st.steps == 0 and st.path[0] == 1.0
    xi = st.path[-1]
    run = cont.transport(8, 16, [cont.XI_SEED], [xi], keep=3)
    assert run.dps is None and run.steps == 9


@settings(max_examples=15, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15),
       log_x=hst.floats(math.log10(cont.SERIES_RADIUS), 3.0))
@example(s=8, k=15, log_x=math.log10(1.2))  # d = 16, the longest state
def test_negative_targets_walk_the_axis(s, k, log_x):
    # straight from -XI_SEED inside FAR_RADIUS and from the real expansion at
    # infinity beyond it, so G_p comes out real for every side; the reference
    # walks the detour through xi + 0.3i that these took before
    p = 1 + k % (2 * s)
    zc2 = float(thresholds(s).zeta_c) ** 2
    u = -(10.0**log_x) * zc2
    xi = u / zc2
    if xi >= -cont.SERIES_RADIUS:  # rounding carried xi an ulp into the disk
        return
    st = cont.gp_continue(s, p, u, "none")
    far = -xi >= cont.FAR_RADIUS
    assert st.path == ((complex(math.inf), xi) if far else (-cont.XI_SEED, xi))
    assert all(d.imag == 0.0 for d in st.derivs)
    for side in ("above", "below"):
        assert cont.gp_continue(s, p, u, side).derivs == st.derivs
    ref = cont._taylor_walk(s, p, [cont.XI_SEED, cont.XI_SEED + 0.3j, xi + 0.3j, xi],
                            40).states[-1]
    for j, got in enumerate(st.derivs):
        want = complex(ref[j]) / zc2**j
        assert abs(got - want) <= 1e-12 * abs(want)


@settings(max_examples=15, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15), x=hst.floats(1.0, 6.0, exclude_min=True),
       side=hst.sampled_from(["above", "below"]))
@example(s=3, k=0, x=1.62, side="above")  # where the two local bases meet
def test_gp_continue_on_the_cut_is_a_one_node_cut_trace(s, k, x, side):
    # one source per cut point: the basis at xi = 1, or the expansion at
    # infinity beyond it
    p = 1 + k % (2 * s)
    zc2 = float(thresholds(s).zeta_c) ** 2
    u = x * zc2
    xi = u / zc2  # the xi that gp_continue walks to, an ulp from x at most
    if xi - 1.0 < 1e-9:
        # only the basis at xi = 1 serves there; xi = 1 itself is a PathError
        try:
            st = cont.gp_continue(s, p, u, side)
        except PathError:
            with pytest.raises(PathError):
                cont.cut_trace(s, p, [xi], side)
            return
        assert st.path == (1.0, xi) and st.steps == 0
    else:
        st = cont.gp_continue(s, p, u, side)
    (trace,) = cont.cut_trace(s, p, [xi], side)
    assert ((st.derivs, st.dps, st.steps, st.rel_est, st.path)
            == (trace.derivs, trace.dps, trace.steps, trace.rel_est, trace.path))


def _cut_states(s, p, us, cold):
    """{xi: (derivs, path, steps, dps, rel_est)} of cut_trace over the xi =
    u / zeta_c^2 of us, each asserted equal to gp_continue's state at u
    above the cut, and {(u, 'rho'): disc_density_rho at u}, with both local
    bases' caches cleared before each call if cold."""
    zc2 = cont.zeta_c_value(s) ** 2
    xis = [u / zc2 for u in us]
    out = {}

    def call(f, *args):
        if cold:
            _clear_local_caches()
        return f(*args)

    for xi, st in zip(xis, call(cont.cut_trace, s, p, xis)):
        out[xi] = st.derivs, st.path, st.steps, st.dps, st.rel_est
    for xi, u in zip(xis, us):
        st = call(cont.gp_continue, s, p, u, "above")
        assert (st.derivs, st.path, st.steps, st.dps, st.rel_est) == out[xi]
        out[u, "rho"] = call(cont.disc_density_rho, s, p, u)
    return out


@settings(max_examples=8, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15), data=hst.data(),
       xs=hst.lists(hst.floats(1.0, 8.0, exclude_min=True), min_size=1, max_size=4))
@example(s=3, k=1, data=None, xs=[1.3, 1.62, 1.2, 2.0])  # both bases and where they meet
@example(s=5, k=9, data=None, xs=[1.1, 2.5, 1.61])  # (5, 10): the rungs of both
def test_cut_trace_nodes_are_gp_continue_states(s, k, data, xs):
    # every node of the cut is served from the basis at xi = 1 or from the
    # expansion at infinity at that node alone: a cut_trace over any nodes,
    # in any order, cold or warm, gives each node gp_continue's state there
    p = 1 + k % (2 * s)
    zc2 = cont.zeta_c_value(s) ** 2
    us = list(dict.fromkeys(x * zc2 for x in xs))
    if any(u / zc2 == 1.0 for u in us):  # x rounded onto the branch point
        return
    cold = _cut_states(s, p, us, cold=True)
    for u in us:
        xi = u / zc2
        _, path, steps, _, _ = cold[xi]
        assert steps == 0 and path in ((1.0, xi), (complex(math.inf), xi))
    assert _cut_states(s, p, us, cold=False) == cold
    shuffled = list(reversed(us)) if data is None else data.draw(hst.permutations(us))
    assert _cut_states(s, p, shuffled, cold=False) == cold
    assert _cut_states(s, p, shuffled, cold=True) == cold


@pytest.mark.parametrize("tol", [1e-15, 4e-16])
@pytest.mark.parametrize("s,p,xi", [(3, 2, 1.004), (5, 10, 1.45)])
def test_basis_rung_serves_where_its_doubles_miss(s, p, xi, tol):
    # the basis in doubles misses tol/4 here; its 50-digit build serves with
    # no walk, and its estimate adds 2^-53, which tol/4 = 1e-16 lies below
    zc2 = cont.zeta_c_value(s) ** 2
    if tol < 2.0**-51:
        with pytest.raises(AccuracyError, match=f"at {cont._arith(cont._ONE_DPS).digits} digits"):
            cont.gp_continue(s, p, xi * zc2, "above", tol=tol)
        return
    st = cont.gp_continue(s, p, xi * zc2, "above", tol=tol)
    assert st.path == (1.0, st.u.real / zc2) and st.steps == 0
    assert st.dps == cont._arith(cont._ONE_DPS).digits
    assert st.rel_est <= tol / 4
    _assert_matches_walk(st, 40, tol=st.rel_est)


@pytest.mark.parametrize("s,p,xi,side", [(3, 4, 1 + 1e-7, "above"), (8, 16, -1.2, "none")])
def test_real_axis_routes_stay_in_doubles(s, p, xi, side):
    # the vertical leg to 1 + 1e-7 and the detour to -1.2 took the rung
    st = cont.gp_continue(s, p, xi * float(thresholds(s).zeta_c) ** 2, side)
    assert st.dps is None


@settings(max_examples=10, deadline=None)
@given(s=hst.integers(2, 8), data=hst.data(), xi=hst.floats(1.01, 6.0))
def test_gp_continue_schwarz_symmetry(s, data, xi):
    # the walk below the cut mirrors the one above, rung choice included
    p = data.draw(hst.integers(1, 2 * s))
    u = xi * float(thresholds(s).zeta_c) ** 2
    above = cont.gp_continue(s, p, u, "above")
    below = cont.gp_continue(s, p, u, "below")
    assert len(above.derivs) == len(below.derivs) == 3
    assert all(y == x.conjugate() for x, y in zip(above.derivs, below.derivs))
    assert (below.dps, below.steps, below.rel_est) == (above.dps, above.steps, above.rel_est)


@settings(max_examples=10, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15), r=hst.floats(1.05, 6.0),
       theta=hst.floats(-math.pi, math.pi), on_cut=hst.booleans())
@example(s=2, k=0, r=2.0, theta=5e-324, on_cut=False)  # u.imag underflows
def test_gp_continue_meets_tol_off_the_disk(s, k, r, theta, on_cut):
    # |xi - 1| >= r - 1 >= 0.05: closer to the branch point mpmath.hyper
    # takes minutes; on the cut its value from above is the one at xi + i0
    p = 1 + k % (2 * s)
    zc2 = float(thresholds(s).zeta_c) ** 2
    u = (complex(r) if on_cut else cmath.rect(r, theta)) * zc2
    on_cut = u.imag == 0.0 and u.real > 0.0  # a tiny theta lands on the cut too
    xi = u / zc2
    (ref,) = _hyper_derivs(s, p, xi + 1e-30j if on_cut else xi, 1)
    try:
        st = cont.gp_continue(s, p, u, "above" if on_cut else "none")
    except AccuracyError:
        return
    assert abs(st.value - ref) <= 1e-12 * abs(ref)


def test_sigma_meets_tol_on_the_cut_at_large_s():
    # (8, 2) at xi = 4: the double transport was off by 2.2e-9 in sigma
    s, p, xi = 8, 2, 4.0
    zc2 = float(thresholds(s).zeta_c) ** 2
    st = cont.gp_continue(s, p, xi * zc2, "above")
    ref = [z / zc2**j for j, z in enumerate(_hyper_derivs(s, p, xi + 1e-30j, 3))]
    for got, want in zip(st.derivs, ref, strict=True):
        assert abs(got - want) <= 1e-12 * abs(want)
    u = xi * zc2
    sigma_ref = (p * p * ref[0] + s * (2 * p + s) * u * ref[1] + s * s * u * u * ref[2]) / p
    assert abs(cont.sigma_from_state(st) - sigma_ref) <= 1e-12 * abs(sigma_ref)


def test_cut_trace_agrees_with_gp_continue_at_large_s():
    # (8, 15) at xi = 6: the two double transports differed by 1.4e-5
    zc2 = float(thresholds(8).zeta_c) ** 2
    (trace,) = cont.cut_trace(8, 15, [6.0])
    st = cont.gp_continue(8, 15, 6.0 * zc2, "above")
    for got, want in zip(trace.derivs, st.derivs, strict=True):
        assert abs(got - want) <= 2e-12 * abs(want)


@pytest.mark.parametrize("theta", [math.pi / 2, 2.0, math.pi])
def test_continue_just_outside_series_disk(theta):
    # (8, 16) at |xi| = 0.99: transport from XI_SEED was off by 8.8e-9
    xi = cmath.rect(0.99, theta)
    (ref,) = _hyper_derivs(8, 16, xi, 1)
    st = cont.gp_continue(8, 16, xi * float(thresholds(8).zeta_c) ** 2, "none")
    assert abs(st.value - ref) <= 1e-12 * abs(ref)


def test_continue_inside_old_exclusion_disk():
    # the fitted local model that served |xi - 1| < 1e-4 was off by 5.7e-3 in
    # sigma at (3, 2), xi = 1 + 5e-5
    st = cont.gp_continue(3, 2, ZC2_3 * (1 + 5e-5), "above")
    _assert_matches_walk(st, 40)


@pytest.mark.parametrize("s,p,eps,dps", [
    (2, 1, (1e-5, 1e-7), None),
    # the walk took the fixed-point rung here; the basis at xi = 1 serves
    (3, 2, (1e-5, 1e-7, 1e-8), None),
])
def test_cut_values_inside_the_old_exclusion_disk(s, p, eps, dps):
    # cut_trace, perron_density and disc_density_rho refused xi < 1 + 1e-4
    zc2 = float(thresholds(s).zeta_c) ** 2
    t_ratio = np.array([1.0 / (1.0 + e) for e in eps])
    xi = 1.0 / t_ratio  # the nodes perron_density continues to
    states = cont.cut_trace(s, p, xi)
    assert [st.dps for st in states] == [dps] * len(eps)
    path = cont._waypoints(complex(xi[0]))[:-1]
    ref = cont._taylor_walk(s, p, [*path, *xi], 40).states[len(path) - 1:]
    for st, want in zip(states, ref):
        for j, got in enumerate(st.derivs):
            w = complex(want[j]) / zc2**j
            assert abs(got - w) <= 1e-12 * abs(w)
    # varrho = Im G / (pi t) is held to tol relative to |G| / (pi t); the
    # first two nodes keep perron_density's own trace in doubles
    t_ratio = t_ratio[:2]
    g = np.array([complex(want[0]) for want in ref[:2]]) / (math.pi * t_ratio / zc2)
    rho = st_mod.perron_density(s, p, t_ratio)
    assert np.all(np.abs(rho - g.imag) <= 1e-12 * np.abs(g))
    u = (1.0 + eps[1]) * zc2
    st = cont.gp_continue(s, p, u, "above")
    _assert_matches_walk(st, 40)
    assert cont.disc_density_rho(s, p, u) == cont.sigma_from_state(st).imag / math.pi


def test_state_diagnostics():
    inside = cont.gp_continue(3, 2, 0.5 * ZC2_3, "none")
    assert (inside.dps, inside.steps, inside.rel_est) == (None, 0, cont._SERIES_TOL)
    double = cont.gp_continue(3, 2, -3.0 * ZC2_3, "none")
    assert double.dps is None and double.steps > 0
    assert 0.0 <= double.rel_est <= 1e-12 / 4
    # the double walks of (8, 16) disagree in the seventh digit
    wide = cont.gp_continue(8, 16, (3 + 0.5j) * float(thresholds(8).zeta_c) ** 2, "none")
    assert wide.dps == cont._MP_RUNG_DPS + cont.TAYLOR_GUARD_DPS
    assert 0.0 <= wide.rel_est <= 1e-12 / 4


def test_unreachable_tol_raises():
    # 30 digits cannot carry the state to 1e-40
    with pytest.raises(AccuracyError):
        cont.gp_continue(2, 1, -3.0 * ZC2_2, "none", tol=1e-40)


@pytest.mark.parametrize("s,p", [(2, 1), (3, 2)])
def test_resonant_fit_double_precision_keeps_b(s, p):
    # through the normal equations B_fit at dps 17 moved by 8.5e-9 at (2, 1)
    # and 1.9e-9 at (3, 2) from its dps-40 value
    ref = cont.resonant_fit(s, p).B_fit
    assert abs(cont.resonant_fit(s, p, dps=17).B_fit - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("s,p,xi,side", [(8, 16, 1e3, "above"), (8, 1, 1e9, "above"),
                                         (2, 1, -1e100, "none")])
def test_far_targets_the_walk_missed(s, p, xi, side):
    # the outward walk raised AccuracyError at each: at (8, 16) its 20-digit
    # walks differed by 7.5e-13, and at -1e100 by 15 %
    zc2 = float(thresholds(s).zeta_c) ** 2
    st = cont.gp_continue(s, p, xi * zc2, side)
    x = st.u / zc2
    ref = _hyper_derivs(s, p, x + 1e-30j if side == "above" else x, 3)
    for j, (got, want) in enumerate(zip(st.derivs, ref, strict=True)):
        assert abs(got - want / zc2**j) <= 1e-12 * abs(want / zc2**j)
    assert st.steps == 0


@settings(max_examples=15, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15),
       log_r=hst.floats(math.log10(cont.FAR_RADIUS), 100.0),
       theta=hst.floats(-math.pi, math.pi, exclude_min=True), on_cut=hst.booleans())
@example(s=8, k=15, log_r=3.0, theta=1.0, on_cut=True)  # d = 16, on the rung
@example(s=5, k=9, log_r=math.log10(7.0), theta=math.pi, on_cut=False)
def test_far_field_meets_tol_and_mirrors(s, k, log_r, theta, on_cut):
    # the expansion at infinity: within tol of the 50-digit oracle or a typed
    # error, and the two sides of the cut, or a target and its conjugate, are
    # exact conjugates with the same diagnostics
    p = 1 + k % (2 * s)
    zc2 = float(thresholds(s).zeta_c) ** 2
    u = (complex(10.0**log_r) if on_cut else cmath.rect(10.0**log_r, theta)) * zc2
    on_cut = u.imag == 0.0 and u.real > 0.0
    if abs(u / zc2) < cont.FAR_RADIUS:  # rounding carried xi inside the circle
        return
    try:
        if on_cut:
            a, b = (cont.gp_continue(s, p, u, side) for side in ("above", "below"))
        else:
            a, b = (cont.gp_continue(s, p, v, "none") for v in (u, u.conjugate()))
    except (AccuracyError, PathError):
        return
    assert all(y == x.conjugate() for x, y in zip(a.derivs, b.derivs, strict=True))
    assert (b.dps, b.steps, b.rel_est) == (a.dps, a.steps, a.rel_est)
    assert a.steps == 0 and 0.0 <= a.rel_est <= 1e-12 / 4
    xi = u / zc2
    (ref,) = _hyper_derivs(s, p, xi + 1e-30j if on_cut else xi, 1)
    assert abs(a.value - ref) <= 1e-12 * abs(ref)


def test_far_state_diagnostics():
    # doubles at (3, 1); at (5, 10) the terms of the doubles sum cancel (its
    # bound reads 3.9e-10) and the estimate sends the target to the sum at 30
    # digits
    zc2 = {s: float(thresholds(s).zeta_c) ** 2 for s in (3, 5, 8)}
    far = cont.gp_continue(3, 1, -1e3 * zc2[3], "none")
    assert far.path == (complex(math.inf), far.u / zc2[3])
    assert (far.dps, far.steps) == (None, 0) and 0.0 < far.rel_est <= 1e-12 / 4
    rung = cont.gp_continue(5, 10, -7.0 * zc2[5], "none")
    assert rung.dps == cont._MP_RUNG_DPS + cont.TAYLOR_GUARD_DPS
    assert rung.steps == 0 and 0.0 < rung.rel_est <= 1e-12 / 4
    # a one-node cut_trace gives gp_continue's state
    st = cont.gp_continue(8, 16, 1e3 * zc2[8], "above")
    (trace,) = cont.cut_trace(8, 16, [st.u.real / zc2[8]])
    assert ((st.derivs, st.dps, st.steps, st.rel_est, st.path)
            == (trace.derivs, trace.dps, trace.steps, trace.rel_est, trace.path))


def _assert_far_matches_hypergeometric(s, p, xi, side, n=3):
    """gp_continue at u = xi zeta_c^2 from the expansion at infinity: its
    first n derivatives within 1e-12 of the 40-digit oracle, and a rel_est
    within tol/4 that bounds the error of G."""
    zc2 = float(thresholds(s).zeta_c) ** 2
    st = cont.gp_continue(s, p, xi * zc2, side)
    assert st.path[0] == complex(math.inf) and st.steps == 0
    x = st.u / zc2
    ref = _hyper_derivs(s, p, x + 1e-35j if side == "above" else x, n, dps=40)
    for j, want in enumerate(ref):
        assert abs(st.derivs[j] - want / zc2**j) <= 1e-12 * abs(want / zc2**j)
    assert abs(st.value - ref[0]) <= st.rel_est * abs(ref[0])
    assert st.rel_est <= 1e-12 / 4


@pytest.mark.parametrize("s,p,xi,side", [(12, 5, 1e3, "above"), (12, 5, -1e6, "none"),
                                         (12, 24, -6.0, "none"), (14, 7, -6.0, "none")])
def test_far_field_beyond_s_8(s, p, xi, side):
    # the connection matched to two walks on |xi| = 4 served (12, 5) at 1e3
    # above 3.6e-13 off in G and 2.9e-12 in G', with rel_est 3.1e-16, and
    # raised AccuracyError at -1e6, and for (12, 24) and (14, 7) at -6
    _assert_far_matches_hypergeometric(s, p, xi, side)


def test_far_field_at_s_40_in_bounded_time():
    # d = 78: the matched connection spent 19-25 s on its walks and then
    # raised AccuracyError; the closed form takes 0.8 s cold on a 2-core VM.
    # G alone is checked, since each oracle term costs seconds here
    t0 = time.perf_counter()
    cont.gp_continue(40, 1, -10.0 * float(thresholds(40).zeta_c) ** 2, "none")
    assert time.perf_counter() - t0 < 5.0
    _assert_far_matches_hypergeometric(40, 1, -10.0, "none", n=1)


def _far_sum_gap(s, p, xi):
    """Largest relative gap of y^(j) / j!, j < 3, at xi between the
    expansion at infinity summed at the extended rung's digits and a 40-digit
    walk along the route of _waypoints.  The walk knows nothing of the
    connection formula, unlike mpmath's hyper off the unit disk."""
    walked = cont._taylor_walk(s, p, cont._waypoints(xi), 40).states[-1]
    ((z, _),) = cont._local_values(cont._far_table(s, p, cont._MP_RUNG_DPS), [xi])
    with mp.workdps(40):
        gaps = []
        for j, got in enumerate(z):
            want = walked[j] / math.factorial(j)
            gaps.append(float(abs(got - want) / abs(want)))
    return max(gaps)


@settings(max_examples=6, deadline=None)
@given(s=hst.integers(2, 16), k=hst.integers(0, 31), theta=hst.floats(0.0, math.pi))
@example(s=5, k=9, theta=math.pi)  # (5, 10): 1/Gamma(b - a) vanishes at b - a = -1
@example(s=5, k=9, theta=0.0)
@example(s=2, k=0, theta=math.pi / 2)
@example(s=16, k=31, theta=math.pi)  # d = 32, the largest gap measured: 3.5e-24
def test_far_connection_matches_a_40_digit_walk(s, k, theta):
    # the closed-form connection against the walk on the circle |xi| =
    # FAR_RADIUS, on the cut's upper side (theta = 0), on the negative axis
    # (theta = pi) and between; the sum carries 30 digits, and its terms
    # cancel by up to 1e8 at (16, 32)
    p = 1 + k % (2 * s)
    r = cont.FAR_RADIUS
    xi = {0.0: complex(r), math.pi: complex(-r)}.get(theta, cmath.rect(r, theta))
    assert _far_sum_gap(s, p, xi) <= 1e-20


def test_double_walks_keep_no_integer_rows():
    # the double walk rounds the rows of the uncached builder once and keeps
    # only the doubles; the integer cache is the fixed-point rung's
    cont._recurrence_row.cache_clear()
    st = cont.gp_continue(3, 2, -3.0 * ZC2_3, "none")
    assert st.dps is None and st.steps > 0
    assert cont._recurrence_row.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# The local basis at xi = 1


def _clear_local_caches():
    for f in (cont._one_polys, cont._one_table, cont._one_connection, cont._one_local,
              cont._far_table, cont._far_connection):
        f.cache_clear()


@pytest.mark.parametrize("s", range(2, 9))
def test_one_rows_lead_with_the_indicial_polynomial(s):
    # c_{d-1}(N) at centre 1, in n = N + d - 1, is K n (n - 1) ... (n - d + 2)
    # (n - 2): 2 is a double root for d >= 4, and for d = 3 row 0 has none
    for p in range(1, 2 * s + 1):
        d = _order(s, p)
        lead = cont._one_polys(s, p)[d]
        assert len(lead) == d + 1  # degree d in N
        k = lead[-1]
        for n in range(-3, 3 * d):
            want = k * (n - 2) * math.prod(n - j for j in range(d - 1))
            assert cont._one_row(s, p, n - d + 1)[0][d] == want


@settings(max_examples=40, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15), big_n=hst.integers(-16, 300))
@example(s=8, k=15, big_n=-15)  # d = 16, the first Frobenius row
@example(s=2, k=0, big_n=0)
def test_one_rows_and_their_derivatives(s, k, big_n):
    # c_r(N) = alpha_r(N) - beta_r(N) of the second form, and dc_r/dN is the
    # exact Newton-series derivative sum_k (-1)^(k+1) Delta^k c_r(N) / k over
    # more differences than the degree
    p = 1 + k % (2 * s)
    d = _order(s, p)
    c, dc = cont._one_row(s, p, big_n)
    if big_n:
        alpha, beta, _ = _reference_row(s, p, big_n)
        assert c == [-beta[0], *map(operator.sub, alpha, beta[1:])]
    deg = max(map(len, cont._one_polys(s, p)))
    vals = [cont._one_row(s, p, big_n + i)[0] for i in range(deg + 2)]
    for r in range(d + 1):
        diffs, col = [], [v[r] for v in vals]
        while len(col) > 1:
            col = [b - a for a, b in zip(col, col[1:])]
            diffs.append(col[0])
        assert dc[r] == sum(Fraction((-1) ** i, i + 1) * x for i, x in enumerate(diffs))


@pytest.mark.parametrize("s,p", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (8, 16)])
def test_one_table_is_canonical(s, p):
    # phi_k = tau^k + O(tau^(d-1)), u = O(tau^(d-1)) and v = tau^2 + ...,
    # except that for d = 3 row 0 ties w_0 to w_1; every column solves the
    # recurrence, u with L'[v] on the right
    d = _order(s, p)
    tab = cont._one_table(s, p, cont._ONE_DPS)
    series = np.ldexp(np.array(tab.cols, dtype=float).T, -tab.f)
    assert series.shape[1] == d + 1
    head = series[:d - 1]
    if d == 3:
        c, dc = cont._one_row(s, p, 0)
        assert c[d] == 0
        assert head[:, 0].tolist() == [-c[2] / c[1], 1.0]
        assert head[:, 1].tolist() == [0.0, 0.0] and series[2, 1] == 1.0
        assert head[:, 2].tolist() == [-dc[3] / c[1], 0.0]
    else:
        assert np.array_equal(head[:, :d - 1], np.eye(d - 1))
        assert not head[:, d - 1].any()
    assert series[:3, d].tolist() == [0.0, 0.0, 1.0]
    for big_n in range(len(series) - d):
        c, dc = cont._one_row(s, p, big_n)
        window = series[max(big_n - 1, 0):big_n + d]
        cc, dd = c[max(1 - big_n, 0):], dc[max(1 - big_n, 0):]
        rows = [sum(float(x) * w[k] for x, w in zip(cc, window)) for k in range(d + 1)]
        rows[d - 1] += sum(float(x) * w[d] for x, w in zip(dd, window))
        size = [sum(abs(float(x) * w[k]) for x, w in zip(cc, window)) for k in range(d + 1)]
        size[d - 1] += sum(abs(float(x) * w[d]) for x, w in zip(dd, window))
        assert all(abs(r) <= 1e-13 * m for r, m in zip(rows, size))


@pytest.mark.parametrize("s,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_one_log_entry_is_the_branch_coefficient(s, p):
    # the coefficient of psi = u + log(1 - xi) (tau^2 + ...) is B(zeta_c^2)
    b = float(cont._one_connection(s, p, cont._ONE_DPS).coeffs[-1])
    closed = cont.B_closed_form(s, p).value
    assert abs(b - closed) <= 1e-13 * abs(closed)


@settings(max_examples=20, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15))
@example(s=8, k=15)  # d = 16
@example(s=5, k=0)
def test_extended_log_entry_is_the_branch_coefficient(s, k):
    # the log entry of C_1, matched at _ONE_DPS + 10 digits, against the closed form
    p = 1 + k % (2 * s)
    b = cont._one_connection(s, p, cont._ONE_DPS).coeffs[-1]
    closed = cont.B_closed_form(s, p).rational
    with mp.workdps(50):
        want = mp.mpf(closed.numerator) / closed.denominator / mp.pi
        assert abs(b - want) <= 1e-20 * abs(want)


@pytest.mark.parametrize("s,p", [(2, 1), (3, 2), (5, 1), (6, 3)])
def test_fit_values_from_the_basis_match_the_walk(s, p):
    # resonant_fit's node values on its default grid, summed from the basis at
    # xi = 1, against the 40-digit walk along the axis, their oracle
    with mp.workdps(40):
        xis = [1 - mp.mpf(w) for w in np.geomspace(1.5e-3, 6e-2, 24)]
        got = [z[0] for z, _ in cont._local_values(cont._one_local(s, p, 40, 1), xis)]
        walk = cont._taylor_walk(s, p, [cont.XI_SEED, *reversed(xis)], 40)
        for g, st in zip(got, reversed(walk.states), strict=True):
            assert g.imag == 0 and abs(g - st[0]) <= 1e-37 * abs(st[0])


@pytest.mark.parametrize("s,p", [(2, 1), (3, 2), (5, 1)])
def test_extended_basis_values_keep_their_digits_in_any_context(s, p):
    # the rows are summed at the build's digits, not the caller's: with no
    # context, at 15 digits, they were once 5.5e-17 off at (3, 2) on the cut
    xis = [1.3, 1.2]
    got = cont._local_values(cont._one_local(s, p, 40, 3), xis)
    for xi, (z, _) in zip(xis, got):
        walk = cont._taylor_walk(s, p, cont._waypoints(complex(xi)), 40).states[-1]
        with mp.workdps(40):
            for j, (g, w) in enumerate(zip(z, walk)):
                assert abs(g * math.factorial(j) - w) <= 1e-37 * abs(w)


@pytest.mark.parametrize("s,p,xi", [(3, 1, 1.2), (3, 2, 1 + 1e-6), (2, 1, 1.4 + 0.3j),
                                    (3, 2, 0.99 - 0.2j), (2, 3, 1.1)])
def test_one_states_are_exact_conjugates(s, p, xi):
    zc2 = cont.zeta_c_value(s) ** 2
    u = complex(xi) * zc2
    if u.imag:
        a, b = (cont.gp_continue(s, p, v, "none") for v in (u, u.conjugate()))
    else:
        a, b = (cont.gp_continue(s, p, u.real, side) for side in ("above", "below"))
    assert a.path[0] == 1.0 and (a.steps, a.dps) == (0, None)
    assert all(y == x.conjugate() for x, y in zip(a.derivs, b.derivs, strict=True))
    assert (b.dps, b.steps, b.rel_est) == (a.dps, a.steps, a.rel_est)


@pytest.mark.parametrize("s,p", [(2, 1), (3, 1), (3, 2), (3, 3), (5, 1)])
def test_one_node_cut_trace_is_gp_continue_at_basis_nodes(s, p):
    # nodes served by the basis at xi = 1 and by the expansion at infinity
    # give one state either way, and every path starts at 1 or infinity
    zc2 = cont.zeta_c_value(s) ** 2
    for x in (1 + 1e-9, 1.001, 1.3, 1.45, 1.7, 3.0):
        st = cont.gp_continue(s, p, x * zc2, "above")
        xi = st.u.real / zc2
        (trace,) = cont.cut_trace(s, p, [xi], "above")
        assert ((st.derivs, st.dps, st.steps, st.rel_est, st.path)
                == (trace.derivs, trace.dps, trace.steps, trace.rel_est, trace.path))
        assert st.path in ((1.0, xi), (complex(math.inf), xi))


@settings(max_examples=6, deadline=None)
@given(s=hst.sampled_from([2, 3]), k=hst.integers(0, 5), data=hst.data(),
       xis=hst.lists(hst.floats(1.0 + 1e-9, 3.9), min_size=1, max_size=4, unique=True))
def test_basis_values_do_not_depend_on_cache_or_order(s, k, data, xis):
    p = 1 + k % (2 * s)
    zc2 = cont.zeta_c_value(s) ** 2
    us = [x * zc2 for x in xis] + [(0.99 + 0.1j) * zc2, 0.995 * zc2]

    def states(order, cold):
        if cold:
            _clear_local_caches()
        trace = dict(zip(order, cont.cut_trace(s, p, order)))
        out = [(st.derivs, st.path, st.rel_est) for st in (trace[x] for x in xis)]
        for u in us:
            if cold:
                _clear_local_caches()
            st = cont.gp_continue(s, p, u, "above" if u.imag == 0 and u.real > zc2 else "none")
            out.append((st.derivs, st.path, st.rel_est))
        return out

    cold = states(xis, True)
    assert states(xis, False) == cold
    shuffled = data.draw(hst.permutations(xis))
    assert states(shuffled, True) == cold
    assert states(shuffled, False) == cold


def _walk_oracle(s, p, xi, side):
    """G, G', G'' at xi from the 40-digit walk along the route of _waypoints,
    or from mpmath.hyper at 40 digits where |xi| >= 1.1, where its series at
    infinity converges fast enough."""
    zc2 = cont.zeta_c_value(s) ** 2
    if abs(xi) >= 1.1:
        lateral = 0.0 if xi.imag else 1e-30 if side == "above" else -1e-30
        ref = _hyper_derivs(s, p, xi + lateral * 1j, 3)
    else:
        # below the axis, the mirror image of the upper point's route
        route = cont._waypoints(complex(xi.real, abs(xi.imag)))
        if xi.imag < 0 or side == "below":
            route = [z.conjugate() for z in route]
        ref = cont._taylor_walk(s, p, route, 40).states[-1][:3]
    return [complex(z) / zc2**j for j, z in enumerate(ref)]


@settings(max_examples=30, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15), log_r=hst.floats(-8.0, math.log10(0.5)),
       theta=hst.floats(-math.pi, math.pi), kind=hst.sampled_from(["cut", "below", "off"]),
       side=hst.sampled_from(["above", "below"]))
@example(s=3, k=1, log_r=-3.0, theta=0.0, kind="cut", side="above")
@example(s=3, k=0, log_r=math.log10(0.5), theta=0.0, kind="cut", side="below")
@example(s=2, k=0, log_r=-6.0, theta=0.0, kind="below", side="above")
@example(s=4, k=3, log_r=-1.0, theta=2.0, kind="off", side="above")  # not served
def test_basis_estimate_is_a_bound(s, k, log_r, theta, kind, side):
    # each target with |xi - 1| <= ONE_RADIUS is served from the basis with
    # rel_est between the true error and tol/4, or walks the route it walked
    # without the basis, to the same bits
    p = 1 + k % (2 * s)
    zc2 = cont.zeta_c_value(s) ** 2
    r = 10.0**log_r
    xi = {"cut": complex(1 + r), "below": complex(1 - r), "off": 1 + cmath.rect(r, theta)}[kind]
    if kind == "off" and (abs(xi) <= cont.SERIES_RADIUS or xi.imag == 0):
        return
    if kind == "below" and xi.real <= cont.SERIES_RADIUS:
        return
    side = side if kind == "cut" else "none"
    u = xi * zc2 if xi.imag else xi.real * zc2
    st = cont.gp_continue(s, p, u, side)
    xi = complex(st.u) / zc2
    if st.path[0] == 1.0:
        assert st.rel_est <= 1e-12 / 4
        err = max(abs(g - w) / abs(w) for g, w in zip(st.derivs, _walk_oracle(s, p, xi, side)))
        assert err <= st.rel_est
        return
    # a target below the axis, or below the cut, walks its mirror image
    pts = cont._waypoints(complex(xi.real, abs(xi.imag)))
    run = cont.transport(s, p, pts[:-1], pts[-1:], keep=3)
    z = run.states[0]
    if xi.imag < 0 or side == "below":
        pts, z = [c.conjugate() for c in pts], z.conjugate()
    want = cont._state(s, p, st.u, side, z, tuple(pts), run)
    assert st.path == want.path and st.derivs == want.derivs


@settings(max_examples=10, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15), x=hst.floats(1.0, 8.0, exclude_min=True),
       side=hst.sampled_from(["above", "below"]))
@example(s=3, k=5, x=1.6, side="above")  # (3, 6): the basis at its rim
@example(s=5, k=9, x=1.62, side="below")  # (5, 10): the expansion at infinity at its rim
@example(s=8, k=15, x=2.5, side="below")  # (8, 16): on the 30-digit rung
def test_cut_is_served_by_the_two_local_bases(s, k, x, side):
    # every point of the cut comes from the basis at xi = 1 or the expansion
    # at infinity, with no walk, and within its estimate of the 40-digit
    # oracle (mpmath.hyper for xi >= 1.1), or raises a typed error; within
    # 1e-6 of xi = 1, where no walk reaches, the oracle is the basis's own
    # series summed at 60 digits with the exact log factors
    p = 1 + k % (2 * s)
    zc2 = cont.zeta_c_value(s) ** 2
    try:
        st = cont.gp_continue(s, p, x * zc2, side)
    except (AccuracyError, PathError):
        return
    xi = st.u.real / zc2
    assert st.steps == 0 and st.path in ((1.0, xi), (complex(math.inf), xi))
    assert st.rel_est <= 1e-12 / 4
    if xi - 1.0 >= 1e-6:
        want = _walk_oracle(s, p, complex(xi), side)
    else:
        want = [complex(w) * math.factorial(j) / zc2**j
                for j, w in enumerate(_one_oracle(s, p, xi))]
        want = [w.conjugate() for w in want] if side == "below" else want
    err = max(abs(g - w) / abs(w) for g, w in zip(st.derivs, want, strict=True))
    assert err <= st.rel_est


@pytest.mark.parametrize("s,p", [(2, 1), (3, 2), (3, 6), (5, 10), (8, 16)])
def test_the_two_local_bases_agree_where_both_converge(s, p):
    # the basis at xi = 1, matched to the series at 0, and the expansion at
    # infinity, with its closed-form connection, share no code past the
    # theta polynomials; near xi = 1.6 both converge, on and off the cut,
    # and in doubles and at their extended digits they agree within the sum
    # of their estimates
    for far_dps, one_dps in ((None, None), (cont._MP_RUNG_DPS, cont._ONE_DPS)):
        far, one = cont._far_table(s, p, far_dps), cont._one_local(s, p, one_dps, 3)
        for xi in (1.58, 1.6, 1.62, 1.6 + 0.05j, 1.59 + 0.1j):
            ((za, ra),), ((zb, rb),) = (cont._local_values(t, [complex(xi)]) for t in (far, one))
            with mp.workdps(60):
                for a, b in zip(za, zb, strict=True):
                    assert abs(a - b) <= (ra + rb) * abs(b)


def _one_oracle(s, p, xi, nd=3):
    """[y^(j)(xi) / j! for j < nd] from the _ONE_DPS series y = a + log(1 -
    xi) v of the basis at xi = 1 folded by C_1, summed in mpmath at 60
    digits at tau = xi - 1 taken as an mpc, with the exact Leibniz factors
    L_k = (-1)^(k-1) / (k tau^k) of log(1 - xi) and the cut rule log(xi -
    1) - i pi for xi > 1, the cut's upper side."""
    conn = cont._one_connection(s, p, cont._ONE_DPS)
    with mp.workdps(60):
        tau = mp.mpc(xi) - 1
        a, v = ([mp.ldexp(m, -conn.f) for m in ser] for ser in conn.series)

        def deriv(c, j):
            return mp.fsum(mp.binomial(n, j) * c[n] * tau ** (n - j) for n in range(j, len(c)))

        xi = complex(xi)
        logs = [mp.log(tau.real) - 1j * mp.pi if xi.imag == 0 and xi.real > 1 else mp.log(-tau)]
        logs += [(-1) ** (k - 1) / (k * tau**k) for k in range(1, nd)]
        return [deriv(a, j) + mp.fsum(logs[k] * deriv(v, j - k) for k in range(j + 1))
                for j in range(nd)]


@pytest.mark.parametrize("tol", [1e-12, 1e-15])
@pytest.mark.parametrize("s,p", [(3, 1), (5, 10)])
def test_basis_next_to_the_branch_point_meets_its_estimate(s, p, tol):
    # the sums once formed 1/tau^k: below |tau| = 1e-162 tau^2 underflowed
    # to a ZeroDivisionError, and at tol = 1e-15 the 50-digit rung, whose
    # fixed-point tau floors at 2^-f, left G'' 1.4e-1 off at 1 + 1e-70i with
    # rel_est 1.1e-16
    zc2 = cont.zeta_c_value(s) ** 2
    for xi in [complex(1, 10.0**-k) for k in (50, 70, 150, 170, 300)] + [complex(1, -1e-200)]:
        st = cont.gp_continue(s, p, xi * zc2, "none", tol)
        assert st.path[0] == 1.0 and st.steps == 0 and st.rel_est <= tol / 4
        want = _one_oracle(s, p, st.path[-1])
        for j, got in enumerate(st.derivs):
            w = complex(want[j]) * math.factorial(j) / zc2**j
            assert abs(got - w) <= st.rel_est * abs(w)


@pytest.mark.parametrize("s,p", [(2, 1), (3, 6), (5, 10)])
def test_extended_basis_estimate_bounds_its_truncation(s, p):
    # the extended rows serve |tau| <= 1 - _ONE_MATCH = 0.3 to their tol, so
    # the 50-digit sums out to |tau| = 0.5 were 2.7e-30 to 7.2e-25 off these
    # 60-digit walks while rel_est read 4.5e-48 to 9.3e-46; the estimate now
    # adds the tail beyond the last row, out to ONE_RADIUS
    tab = cont._one_local(s, p, cont._ONE_DPS, 3)
    r = cont.ONE_RADIUS
    for xi in [complex(1.5), 1 + 0.5j, 1 + cmath.rect(0.5, 1.86), complex(1 + r),
               1 + cmath.rect(r, 2.2)]:
        walk = cont._taylor_walk(s, p, cont._waypoints(xi), 60).states[-1]
        ((z, rel),) = cont._local_values(tab, [xi])
        with mp.workdps(60):
            for j, (g, w) in enumerate(zip(z, walk)):
                assert abs(g * math.factorial(j) - w) <= rel * abs(w)


# ---------------------------------------------------------------------------
# Regressions near the branch point: PathError before the basis at xi = 1


def _sigma_block(s, p, zeta):
    """sigma_p(zeta^2) as the weighted block's (0,0) entry times w_0^2."""
    blk = gram.weighted_block(s, zeta, p, 1.0, 16)
    return blk.matrix[0, 0] * blk.weights[0] ** 2


def _sigma_next_to_the_threshold_matches_the_block(s, p, gap):
    # sigma ~ (2 s^2 B / p) log(1 - xi), so sigma'(xi) ~ 2 s^2 |B| / (p (1 - xi)):
    # the block sums at its exact (1 - gap)^2 and the continuation at xi =
    # fl(fl(zeta^2) / zeta_c^2), and that input's conditioning moves sigma by
    # 1.8e-10, 2.4e-8 and 1.5e-4 relative at (3, 1)
    zeta = float(thresholds(s).zeta_c) * (1.0 - gap)
    xi = zeta * zeta / cont.zeta_c_value(s) ** 2
    xi_block = (1 - _kernels.eta_gap(s, zeta)) ** 2
    slope = 2 * s * s * abs(cont.B_closed_form(s, p).value) / (p * (1.0 - xi))
    cond = slope * float(abs(Fraction(xi) - xi_block))
    got = cont.sigma_cont(s, p, zeta * zeta)
    # a block has sectors p <= s; sigma_p is its one-column Gram product
    want = _sigma_block(s, p, zeta) if p <= s else sigma_p(s, p, zeta)
    assert got.imag == 0.0
    assert abs(got.real - want) <= 1e-9 * abs(want) + 2 * cond


@pytest.mark.parametrize("gap", [1e-8, 1e-10, 1e-14])
def test_sigma_cont_next_to_the_threshold_matches_the_block(gap):
    _sigma_next_to_the_threshold_matches_the_block(3, 1, gap)


# PathError at 1e-10 and 1e-14 before the basis at xi = 1 served every pair
@pytest.mark.parametrize("s,p", [(4, 1), (5, 1), (3, 6)])
@pytest.mark.parametrize("gap", [1e-8, 1e-10, 1e-14])
def test_sigma_cont_next_to_the_threshold_matches_the_block_at_more_pairs(s, p, gap):
    _sigma_next_to_the_threshold_matches_the_block(s, p, gap)


def _density_next_to_the_edge(s, p):
    # rho at (1 + 1e-10) zeta_c^2 is the edge density to O(1e-10 log)
    rho = cont.disc_density_rho(s, p, (1 + 1e-10) * cont.zeta_c_value(s) ** 2)
    edge = cont.edge_density_closed(s, p)
    assert abs(rho - edge) <= 1e-9 * edge


def test_density_next_to_the_edge():
    _density_next_to_the_edge(3, 1)


# PathError before the basis at xi = 1 served every pair
@pytest.mark.parametrize("s,p", [(4, 1), (5, 1), (3, 6)])
def test_density_next_to_the_edge_at_more_pairs(s, p):
    _density_next_to_the_edge(s, p)


def test_the_branch_point_itself_is_a_path_error():
    # xi = 1 is no target of the basis, and the router refuses it, naming
    # the branch point, before it serves any target; cut_trace refuses it as
    # off the cut
    for s, p in [(3, 1), (5, 10), (8, 16)]:
        zc2 = cont.zeta_c_value(s) ** 2
        for side in ("above", "below"):
            with pytest.raises(PathError, match="branch point"):
                cont.gp_continue(s, p, zc2, side)
            with pytest.raises(PathError, match="branch point"):
                cont.gp_continue(s, p, zc2, side, tol=1e-15)
            with pytest.raises(DomainError):
                cont.cut_trace(s, p, [1.0], side)
