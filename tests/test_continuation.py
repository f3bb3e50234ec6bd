import cmath
import math
from fractions import Fraction
from itertools import islice

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from todahess import continuation as cont
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
        cont.transport(2, 1, [cont.XI_SEED, bad])
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
    # _continue walks the lower target as the mirror of the upper one, in
    # doubles and on the rung, which (8, 16) takes here
    for s, p, xi, dps in ((3, 1, 1.5 + 0.2j, None),
                          (8, 16, 3 + 0.5j, cont._MP_RUNG_DPS + cont.TAYLOR_GUARD_DPS)):
        u = float(thresholds(s).zeta_c) ** 2 * xi
        a = cont.gp_continue(s, p, u, "none")
        b = cont.gp_continue(s, p, u.conjugate(), "none")
        assert all(y == x.conjugate() for x, y in zip(a.derivs, b.derivs, strict=True))
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
    z = cont.transport(2, 1, wp)
    z0 = _float_series(2, 1, cont.XI_SEED, cont._ode_fractions(2, 1)[0])
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


def test_path_errors():
    with pytest.raises(PathError):
        cont.gp_continue(2, 1, 1.5 * ZC2_2, "none")  # on the cut, no side
    with pytest.raises(PathError):
        cont.gp_continue(2, 1, ZC2_2 * (1.5 + 0.3j), "below")  # wrong side
    with pytest.raises(PathError):
        cont.transport(2, 1, [0.3, 0.8])  # must start at the seed
    with pytest.raises(PathError):
        cont.transport(2, 1, [cont.XI_SEED])  # and go somewhere


def test_side_none_is_a_domain_error():
    with pytest.raises(DomainError):
        cont.gp_continue(2, 1, 0.5 * ZC2_2, None)
    with pytest.raises(DomainError):
        cont.sigma_cont(3, 1, -2.0 * ZC2_3, None)


def test_tiny_segment_is_walked():
    # the segment guard divided by |v|^2, which underflows to 0 here
    state = cont.transport(2, 1, [cont.XI_SEED, cont.XI_SEED + 1e-200j])
    ref = _float_series(2, 1, cont.XI_SEED, len(state))
    assert np.all(np.abs(state - ref) <= 1e-12 * np.abs(ref))


@pytest.mark.parametrize("xi", [-1e160, -1e300, 1e160j])
def test_targets_beyond_the_double_range_are_path_errors(xi):
    # |v|^2 overflowed in the segment guard, and past it the walk's step
    # points do, within 0.5 s
    with pytest.raises(PathError, match="overflows doubles"):
        cont.gp_continue(2, 1, xi * ZC2_2, "none")


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
    assert 0 < fit.steps < fit.terms


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
    ref = _float_series(s, p, xi, cont._ode_fractions(s, p)[0])
    (state,) = cont._taylor_walk(s, p, [cont.XI_SEED, xi], 30).states
    assert len(state) == len(ref)
    for got, want in zip(state, ref):
        assert abs(complex(got) - want) <= 1e-12 * abs(want)


def test_taylor_walk_complex_path():
    # a polygon through the upper and lower half of the disk and back
    path = [0.3 + 0.6j, -0.5 + 0.2j, 0.1 - 0.7j, 0.8 - 0.1j]
    walk = cont._taylor_walk(3, 2, [cont.XI_SEED, *path], 30)
    d = cont._ode_fractions(3, 2)[0]
    for xi, state in zip(path, walk.states, strict=True):
        ref = _float_series(3, 2, xi, d)
        for got, want in zip(state, ref):
            assert abs(complex(got) - want) <= 1e-12 * abs(want)
    with pytest.raises(PathError):
        cont._taylor_walk(2, 1, [cont.XI_SEED, 1.5], 30)  # the real segment meets xi = 1
    with pytest.raises(PathError):
        cont._taylor_walk(2, 1, [cont.XI_SEED, 0.3j, -0.3j], 30)  # meets xi = 0


def _hyper_derivs(s, p, xi, n):
    """y, y', ... y^(n-1) of y(xi) = G_p(zeta_c^2 xi) from mpmath's
    hypergeometric function at 50 digits, with the reduced parameters:
    d/dxi pFq(a; b; xi) = (prod a / prod b) pFq(a + 1; b + 1; xi)."""
    hp = cont.hyp_params(s, p)
    with mp.workdps(50):
        a_list = [mp.mpf(f.numerator) / f.denominator for f in hp.reduced_upper]
        b_list = [mp.mpf(f.numerator) / f.denominator for f in hp.reduced_lower]
        out, fac = [], mp.mpf(1)
        for k in range(n):
            shifted = mp.hyper([a + k for a in a_list], [b + k for b in b_list], mp.mpc(xi))
            out.append(complex(fac * shifted))
            fac *= mp.fprod(a + k for a in a_list) / mp.fprod(b + k for b in b_list)
    return out


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
    # the fixed-point rung on gp_continue's paths, off the disk and on the cut
    p = 1 + k % (2 * s)
    xi = complex(r) if on_cut else cmath.rect(r, theta)
    side = "above" if xi.imag == 0.0 and xi.real > 1.0 else "none"
    assert _walk_gap(s, p, cont._waypoints(xi, side)) <= WALK_GAP_BOUND


# on the cut, each with the gap the mpmath rung reached there rounded up to
# a power of ten (1.8e-26, 2.6e-22 and 2.6e-24); without the exponent range
# of each step's head in its mantissas the walk gives 3.7e-25, 4.5e-20 and
# 1.3e-22, which the property's single bound, set by (8, 16), lets through
@pytest.mark.parametrize("s,p,xi,bound", [(6, 3, 1.2, 1e-25), (8, 2, 4.0, 1e-21),
                                          (6, 1, 4.5, 1e-23)])
def test_walk_at_20_digits_keeps_the_precision_of_the_mpmath_rung(s, p, xi, bound):
    assert _walk_gap(s, p, cont._waypoints(complex(xi), "above")) <= bound


@pytest.mark.parametrize("xi", [-1.2 + 0.2j, 3 + 0.5j])
def test_walk_at_20_digits_matches_hypergeometric_at_large_s(xi):
    # (8, 16), where the double walks disagree and the rung serves
    path = cont._waypoints(complex(xi), "none")
    state = cont._taylor_walk(8, 16, path, 20).states[-1]
    for got, want in zip(state, _hyper_derivs(8, 16, xi, 3)):
        assert abs(complex(got) - want) <= 1e-15 * abs(want)


def _assert_matches_walk(st, dps, tol=1e-12):
    """G, G', G'' of st within tol relative of a dps-digit walk on st.path."""
    zc2 = float(thresholds(st.s).zeta_c) ** 2
    ref = cont._taylor_walk(st.s, st.p, st.path, dps).states[-1]
    for j, got in enumerate(st.derivs):
        want = complex(ref[j]) / zc2**j
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
    # straight from XI_SEED, so G_p comes out real on either side; the
    # reference walks the detour through xi + 0.3i that these took before
    p = 1 + k % (2 * s)
    zc2 = float(thresholds(s).zeta_c) ** 2
    u = (1.0 - 10.0**log_w) * zc2
    xi = u / zc2
    if xi <= cont.SERIES_RADIUS:  # rounding carried xi an ulp into the disk
        return
    st = cont.gp_continue(s, p, u, side)
    assert st.path == (cont.XI_SEED, xi)
    assert all(d.imag == 0.0 for d in st.derivs)
    ref = cont._taylor_walk(s, p, [cont.XI_SEED, cont.XI_SEED + 0.3j, xi + 0.3j, xi],
                            40).states[-1]
    for j, got in enumerate(st.derivs):
        want = complex(ref[j]) / zc2**j
        assert abs(got - want) <= 1e-12 * abs(want)


def test_real_target_below_the_cut_stays_in_doubles():
    # (8, 16) at u = 0.985 zeta_c^2: the detour took the rung and 16 steps
    st = cont.gp_continue(8, 16, 0.985 * float(thresholds(8).zeta_c) ** 2, "none")
    assert st.dps is None and st.steps == 9


@settings(max_examples=15, deadline=None)
@given(s=hst.integers(2, 8), k=hst.integers(0, 15),
       log_x=hst.floats(math.log10(cont.SERIES_RADIUS), 3.0))
@example(s=8, k=15, log_x=math.log10(1.2))  # d = 16, the longest state
def test_negative_targets_walk_the_axis(s, k, log_x):
    # straight from -XI_SEED, so G_p comes out real for every side; the
    # reference walks the detour through xi + 0.3i that these took before
    p = 1 + k % (2 * s)
    zc2 = float(thresholds(s).zeta_c) ** 2
    u = -(10.0**log_x) * zc2
    xi = u / zc2
    if xi >= -cont.SERIES_RADIUS:  # rounding carried xi an ulp into the disk
        return
    st = cont.gp_continue(s, p, u, "none")
    assert st.path == (-cont.XI_SEED, xi)
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
@example(s=3, k=0, x=1.3, side="above")  # the corner where the cut route joins the axis
def test_gp_continue_on_the_cut_is_a_one_node_cut_trace(s, k, x, side):
    # one route to the cut: the detour to 1 + DETOUR_OFFSET, then the axis
    p = 1 + k % (2 * s)
    zc2 = float(thresholds(s).zeta_c) ** 2
    u = x * zc2
    xi = u / zc2  # the xi that gp_continue walks to, an ulp from x at most
    if xi - 1.0 < 1e-9:  # both keep the walk 1e-9 away from the branch point
        with pytest.raises(PathError):
            cont.gp_continue(s, p, u, side)
        with pytest.raises(PathError):
            cont.cut_trace(s, p, [xi], side)
        return
    st = cont.gp_continue(s, p, u, side)
    (trace,) = cont.cut_trace(s, p, [xi], side)
    assert ((st.derivs, st.dps, st.steps, st.rel_est, st.path)
            == (trace.derivs, trace.dps, trace.steps, trace.rel_est, trace.path))


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
    (3, 2, (1e-5, 1e-7, 1e-8), cont._MP_RUNG_DPS + cont.TAYLOR_GUARD_DPS),
])
def test_cut_values_inside_the_old_exclusion_disk(s, p, eps, dps):
    # cut_trace, perron_density and disc_density_rho refused xi < 1 + 1e-4
    zc2 = float(thresholds(s).zeta_c) ** 2
    t_ratio = np.array([1.0 / (1.0 + e) for e in eps])
    xi = 1.0 / t_ratio  # the nodes perron_density continues to
    states = cont.cut_trace(s, p, xi)
    assert [st.dps for st in states] == [dps] * len(eps)
    path = states[0].path[:-1]
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
