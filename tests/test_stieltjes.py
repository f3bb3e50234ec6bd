from fractions import Fraction
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from todahess import continuation as cont
from todahess import stieltjes as st
from todahess.errors import ConditioningError, DomainError, PositivityError
from todahess.maps import thresholds

ZC2_2 = float(thresholds(2).zeta_c) ** 2


def _chebyshev_fractions(mseq, n):
    """Reference: Chebyshev's algorithm on the rescaled moments in Fractions
    (Gautschi 1982), the mixed moments sigma_{k,l} = L[P_k t^l] updated by

        sigma_{k,l} = sigma_{k-1,l+1} - b_{k-1} sigma_{k-1,l}
                      - a_{k-1}^2 sigma_{k-2,l}.

    Returns (a_1^2..a_{n-1}^2, b_0..b_{n-1}); raises PositivityError at the
    first sigma_{k,k} <= 0."""
    old = list(mseq.moments[: 2 * n])  # sigma_{k-1, l}
    if old[0] <= 0:
        raise PositivityError("m_0 <= 0")
    older = [Fraction(0)] * (2 * n)  # sigma_{k-2, l}
    a_sq, b_list = [Fraction(0)], [old[1] / old[0]]
    for k in range(1, n):
        row = [Fraction(0)] * (2 * n)
        for l in range(k, 2 * n - k):
            row[l] = old[l + 1] - b_list[-1] * old[l] - a_sq[-1] * older[l]
        if row[k] <= 0:
            raise PositivityError(f"L[P_{k}^2] = {row[k]} <= 0")
        a_sq.append(row[k] / old[k - 1])
        b_list.append(row[k + 1] / row[k] - old[k] / old[k - 1])
        older, old = old, row
    return tuple(a_sq[1:]), tuple(b_list)


def _det_fraction(mat):
    """Reference: determinant by Gaussian elimination in Fractions."""
    a = [row[:] for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for cc in range(c, n):
                a[r][cc] -= f * a[c][cc]
    return det


def test_moments_examples():
    ms = st.moments(2, 1, 4)
    assert ms.moments[:4] == (
        Fraction(1), Fraction(1, 16), Fraction(1, 64), Fraction(25, 4096))
    assert st.moments(3, 1, 1).moments[1] == Fraction(16, 729)


def test_moments_hausdorff_bound():
    # rescaled moments of a measure on [0,1]: 0 < m_n <= 1s
    for s, p in ((2, 1), (3, 2), (5, 5)):
        ms = st.moments(s, p, 20)
        assert all(0 < m <= 1 for m in ms.moments)
        # and nonincreasing (t^n >= t^{n+1} on [0,1])
        assert all(a >= b for a, b in zip(ms.moments, ms.moments[1:]))


def test_hankel_positivity_in_range():
    assert st.hankel_positivity(st.moments(2, 1, 16), 6)
    for s in (2, 3):
        for p in range(1, s + 1):
            assert st.hankel_positivity(st.moments(s, p, 12), 5)


def test_hankel_positivity_outside_range_recorded():
    # p > s: the paper is silent; we compute and record, no assertion on sign
    result = st.hankel_positivity(st.moments(2, 5, 16), 6)
    assert result in (True, False)


def test_hankel_needs_enough_moments():
    with pytest.raises(DomainError):
        st.hankel_positivity(st.moments(2, 1, 5), 4)


@settings(max_examples=40, deadline=None)
@given(s=hst.integers(2, 8), data=hst.data(), n=hst.integers(1, 30))
@example(s=8, data=None, n=30)
def test_jacobi_matches_the_fraction_recurrence(s, data, n):
    # the integer recurrence gives exactly the reference's Fractions
    p = s if data is None else data.draw(hst.integers(1, s))
    ms = st.moments(s, p, 2 * n)
    jac = st.jacobi_coefficients(ms, n)
    assert (jac.a_sq_exact, jac.b_exact) == _chebyshev_fractions(ms, n)


@settings(max_examples=60, deadline=None)
@given(s=hst.integers(2, 8), data=hst.data(), k_max=hst.integers(0, 9))
@example(s=3, data=None, k_max=4)  # (3, 6): Delta_1 < 0
def test_hankel_positivity_matches_the_determinants(s, data, k_max):
    # p > s reaches minors <= 0, so both outcomes are drawn
    p = 2 * s if data is None else data.draw(hst.integers(1, 2 * s))
    ms = st.moments(s, p, 2 * k_max)
    dets = (
        _det_fraction([[ms.moments[i + j] for j in range(k + 1)] for i in range(k + 1)])
        for k in range(k_max + 1)
    )
    assert st.hankel_positivity(ms, k_max) == all(d > 0 for d in dets)


def test_jacobi_of_shifted_legendre_moments():
    # m_n = 1/(n+1) are the moments of dt on [0, 1]: b_k = 1/2 and
    # a_k^2 = k^2 / (4 (2k-1)(2k+1)); the moments are not integers after
    # the division by zeta_c^{2n}, so the lcm scaling is exercised
    n = 12
    ms = st.MomentSequence(s=3, p=1, moments=tuple(
        Fraction(1, j + 1) for j in range(2 * n + 1)))
    jac = st.jacobi_coefficients(ms, n)
    assert jac.b_exact == (Fraction(1, 2),) * n
    assert jac.a_sq_exact == tuple(
        Fraction(k * k, 4 * (2 * k - 1) * (2 * k + 1)) for k in range(1, n))
    assert st.hankel_positivity(ms, n)


_COUNTS = {  # each count's call, and the largest integer it refuses
    "moments": (lambda v: st.moments(2, 1, v), -1),
    "jacobi": (lambda v: st.jacobi_coefficients(st.moments(2, 1, 12), v), 0),
    "hankel": (lambda v: st.hankel_positivity(st.moments(2, 1, 12), v), -1),
    "perron": (lambda v: st.perron_integrals(2, 1, n_panels=v), 0),
}


@pytest.mark.parametrize("name", sorted(_COUNTS))
@pytest.mark.parametrize("value", [2.5, True, "3", np.float64(3.0), "below"])
def test_counts_must_be_integers_in_range(name, value):
    # the integer rule of raney._validate_sp: a bool, a float or a string is
    # a DomainError, and so is an integer below the range
    call, below = _COUNTS[name]
    with pytest.raises(DomainError):
        call(below if isinstance(value, str) and value == "below" else value)


def test_numpy_integer_counts_are_accepted():
    ms = st.moments(2, 1, np.int64(12))
    assert st.jacobi_coefficients(ms, np.int64(6)) == st.jacobi_coefficients(ms, 6)
    assert st.hankel_positivity(ms, np.int64(6))


def test_jacobi_first_coefficients():
    jac = st.jacobi_coefficients(st.moments(2, 1, 10), 3)
    assert jac.b_exact[0] == Fraction(1, 16)
    assert jac.a_sq_exact[0] == Fraction(3, 256)  # m2 - m1^2


def test_jacobi_spectrum_containment():
    for s, p in ((2, 1), (3, 2), (5, 3)):
        tmax = 1.0 / float(thresholds(s).zeta_c) ** 2
        jac = st.jacobi_coefficients(st.moments(s, p, 25), 12)
        ev = np.linalg.eigvalsh(jac.tridiagonal())
        assert ev.min() >= -1e-8
        assert ev.max() <= tmax + 1e-8
        # rescaled spectrum sits in [0, 1]
        ev_r = ev * float(thresholds(s).zeta_c) ** 2
        assert ev_r.min() >= -1e-10 and ev_r.max() <= 1 + 1e-10


def test_jacobi_positivity_error():
    bad = st.MomentSequence(s=2, p=1, moments=(
        Fraction(1), Fraction(2), Fraction(1), Fraction(1), Fraction(1),
        Fraction(1), Fraction(1)))
    with pytest.raises(PositivityError):
        st.jacobi_coefficients(bad, 3)


def test_jacobi_requires_moment_depth():
    with pytest.raises(DomainError):
        st.jacobi_coefficients(st.moments(2, 1, 5), 4)


@settings(max_examples=30, deadline=None)
@given(s=hst.integers(2, 5), data=hst.data(), n=hst.integers(1, 12))
def test_jacobi_reproduces_moments(s, data, n):
    # e_0^T J^k e_0 = m_k for k <= 2n-1, exactly, on the monic tridiagonal
    # (b_k on the diagonal, 1 above it, a_{k+1}^2 below it)
    p = data.draw(hst.integers(1, s))
    ms = st.moments(s, p, 2 * n)
    jac = st.jacobi_coefficients(ms, n)
    v = [Fraction(1)] + [Fraction(0)] * (n - 1)  # J^k e_0
    for k in range(2 * n):
        assert v[0] == ms.moments[k]
        v = [
            (jac.a_sq_exact[i - 1] * v[i - 1] if i else 0)
            + jac.b_exact[i] * v[i]
            + (v[i + 1] if i + 1 < n else 0)
            for i in range(n)
        ]


def test_weyl_at_zero():
    jac = st.jacobi_coefficients(st.moments(2, 1, 20), 8)
    assert st.weyl_function(jac, 0.0) == 1.0


def test_weyl_converges_geometrically():
    # convergence is so fast that the float floor (~1e-14) is hit by n = 6;
    # the geometric regime lives at small depths
    u = 0.3 * ZC2_2
    target = cont.gp_series(2, 1, u)
    ms = st.moments(2, 1, 70)
    errs = []
    for n in (2, 3, 4, 6):
        w = st.weyl_function(st.jacobi_coefficients(ms, n), u)
        errs.append(abs(complex(w) - target))
    assert errs[0] > errs[1] > errs[2] > errs[3]
    assert errs[2] / errs[1] < 0.1  # geometric decay per extra level
    assert errs[3] < 1e-12


def test_weyl_matches_continuation_off_disk():
    jac = st.jacobi_coefficients(st.moments(2, 1, 85), 40)
    w = st.weyl_function(jac, -1.0)
    g = cont.gp_continue(2, 1, -1.0, "none").value
    assert abs(complex(w) - g) < 1e-8


_JACOBI = {(s, p): st.jacobi_coefficients(st.moments(s, p, 25), 12)
           for s in (2, 3) for p in (1, 2)}


@settings(max_examples=50, deadline=None)
@given(key=hst.sampled_from(sorted(_JACOBI)), ratio=hst.floats(-50.0, 0.9))
def test_weyl_real_axis_is_real(key, ratio):
    u = ratio * float(thresholds(key[0]).zeta_c) ** 2
    w = st.weyl_function(_JACOBI[key], u)
    assert isinstance(w, complex) and w.imag == 0


@settings(max_examples=50, deadline=None)
@given(key=hst.sampled_from(sorted(_JACOBI)), re=hst.floats(-5.0, 5.0),
       im=hst.floats(1e-3, 5.0))
def test_weyl_schwarz_symmetry(key, re, im):
    u = complex(re, im)
    jac = _JACOBI[key]
    assert st.weyl_function(jac, u.conjugate()) == st.weyl_function(jac, u).conjugate()


@pytest.mark.parametrize("u", [math.nan, math.inf, complex(0.1, math.nan)])
def test_weyl_rejects_non_finite_u(u):
    with pytest.raises(DomainError):
        st.weyl_function(_JACOBI[(2, 1)], u)


def test_perron_density_keeps_point_order():
    t_ratio = np.array([0.3, 0.1, 0.6, 0.2])
    order = np.argsort(t_ratio)
    shuffled = st.perron_density(2, 1, t_ratio)
    assert np.array_equal(shuffled[order], st.perron_density(2, 1, t_ratio[order]))


@pytest.mark.parametrize("u", [-1e160, 1e300, complex(-1e160, 1e160)])
def test_weyl_overflow_is_a_conditioning_error(u):
    # x^2 overflows past |u| ~ 1e154 zeta_c^2, and the fraction gave nan+nanj
    with pytest.raises(ConditioningError):
        st.weyl_function(_JACOBI[(2, 1)], u)


def test_weyl_near_pole_errors():
    jac = st.jacobi_coefficients(st.moments(2, 1, 20), 8)
    ev = np.linalg.eigvalsh(jac.tridiagonal())
    raised = False
    for bump in (0.0, 1e-13, -1e-13, 1e-12):
        try:
            st.weyl_function(jac, 1.0 / ev[-1] + bump)
        except ConditioningError:
            raised = True
            break
    assert raised


def test_perron_density_positive_interior():
    # one transport along the cut; varrho >= 0 on 50 interior points
    for p in (1, 2, 3):
        rho = st.perron_density(3, p, 1.0 / np.geomspace(1.01, 50.0, 50))
        assert np.all(rho >= -1e-9)


def test_perron_density_single_points():
    v = st.perron_density(2, 1, [0.5])
    assert v.shape == (1,) and v[0] >= 0
    with pytest.raises(DomainError):
        st.perron_density(2, 1, [0.5, -0.1])
    for t_ratio in (1.0, 1.5):  # t >= T: xi <= 1 is off the cut
        with pytest.raises(DomainError):
            st.perron_density(2, 1, [0.5, t_ratio])


def test_perron_mass_and_moments():
    out = st.perron_integrals(2, 1, delta_rel=1e-12, powers=(0, 1, 2),
                              n_panels=120)
    assert abs(out[0] - 1.0) < 0.02
    assert abs(out[1] - 1.0) < 0.02  # R_{2,1}(1)^2 = 1
    assert abs(out[2] - 4.0) < 0.08  # R_{2,1}(2)^2 = 4, 2%


def test_perron_mass_coarse_delta_recorded():
    # at the op example's delta = 1e-3/zeta_c^2 the left tail still holds
    # ~20% of the mass for (2,1); recorded, not asserted against 2%
    out = st.perron_integrals(2, 1, delta_rel=1e-3)
    assert 0.5 < out[0] < 1.0


def test_perron_endpoint_exponent():
    slope = st.perron_endpoint_exponent(2, 1)
    assert abs(slope - 2.0) <= 0.2


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_gauss_legendre_rule(n):
    # Newton on the three-term recurrence in place of numpy's leggauss
    x, w = st._gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.all(np.abs(x - ref_x) <= 1e-14 * np.abs(ref_x))
    assert np.all(np.abs(w - ref_w) <= 1e-14 * ref_w)
    assert abs(w.sum() - 2.0) <= 1e-15
    for k in range(2 * n):  # exact on polynomials of degree 2n - 1
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(w * x**k) - exact) <= 1e-15


def test_perron_op_imports_no_polynomial_module():
    # numpy.polynomial cost the first Perron op of a process 3 ms and 1 MB
    code = ("import sys; from todahess import stieltjes; "
            "stieltjes.perron_integrals(2, 1, n_panels=2); "
            "assert 'numpy.polynomial' not in sys.modules")
    src = str(Path(st.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_quadrature_domain_guards():
    with pytest.raises(DomainError):
        st.perron_integrals(2, 1, delta_rel=0.7)
    for xi in (1.0, 0.5, -2.0, math.nan):  # xi <= 1 is off the cut
        with pytest.raises(DomainError):
            cont.cut_trace(2, 1, [xi, 2.0])


def test_perron_left_exponent_logged():
    # t -> 0 behavior ~ t^{p/s - 1} (log factor not asserted)
    t_ratio = 1.0 / np.geomspace(1e3, 1e5, 6)
    rho = st.perron_density(3, 1, t_ratio)
    slope = np.polyfit(np.log(t_ratio), np.log(rho), 1)[0]
    # exponent p/s - 1 = -2/3 up to the (unasserted) log factor; measured
    # -0.84 on this window, recorded here with a band wide enough for the
    # log correction
    print(f"left-endpoint exponent fit: {slope:.3f} (pure power: -2/3)")
    assert -1.05 < slope < -0.55
