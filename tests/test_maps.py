import math
from fractions import Fraction

import numpy as np
import pytest

from todahess import maps
from todahess.errors import BranchAmbiguityError, DomainError
from todahess.raney import raney_table


def test_thresholds_examples():
    th = maps.thresholds(2)
    assert (th.zeta_c, th.zeta_univ, th.ratio) == (
        Fraction(1, 4), Fraction(1), Fraction(1, 4))
    th = maps.thresholds(3)
    assert (th.zeta_c, th.zeta_univ, th.ratio) == (
        Fraction(4, 27), Fraction(1, 2), Fraction(8, 27))
    th = maps.thresholds(5)
    assert (th.zeta_c, th.zeta_univ, th.ratio) == (
        Fraction(256, 3125), Fraction(1, 4), Fraction(1024, 3125))


@pytest.mark.parametrize("s", range(2, 13))
def test_threshold_separation_and_ratio(s):
    th = maps.thresholds(s)
    assert th.zeta_c < th.zeta_univ
    assert th.ratio == Fraction((s - 1) ** s, s**s)
    assert th.ratio < 1


def test_thresholds_domain_error():
    with pytest.raises(DomainError):
        maps.thresholds(1)
    with pytest.raises(DomainError):
        maps.branch_point_data(1)


def test_numpy_integer_orders_are_accepted():
    assert maps.thresholds(np.int64(3)) == maps.thresholds(3)
    assert maps.branch_point_data(np.int64(3)) == maps.branch_point_data(3)
    assert maps.thresholds(np.int64(16)).zeta_c == Fraction(15**15, 16**16)


@pytest.mark.parametrize("s", [True, 2.5, 3.0, "3", np.float64(3.0)])
def test_non_integer_orders_are_domain_errors(s):
    with pytest.raises(DomainError, match="integer"):
        maps.thresholds(s)
    with pytest.raises(DomainError, match="integer"):
        maps.branch_point_data(s)
    with pytest.raises(DomainError, match="integer"):
        maps.MapConfig(s, 0.1)


@pytest.mark.parametrize("zeta", [math.inf, math.nan, 0.0, -0.1])
def test_map_config_rejects_nonfinite_zeta(zeta):
    with pytest.raises(DomainError):
        maps.MapConfig(3, zeta)


def test_branch_point_data():
    bp = maps.branch_point_data(2)
    assert bp.U_c == 2 and bp.kappa == 2.0
    bp = maps.branch_point_data(3)
    assert bp.U_c == Fraction(3, 2)
    assert bp.kappa_sq == Fraction(3, 4)
    assert abs(bp.kappa - math.sqrt(3) / 2) < 1e-15
    bp = maps.branch_point_data(5)
    assert bp.kappa_sq == Fraction(5, 32)


@pytest.mark.parametrize("s", range(2, 9))
def test_kappa_sq_identity(s):
    # kappa^2 (s-1)^3 = 2s, exactly in rationals
    assert maps.branch_point_data(s).kappa_sq * (s - 1) ** 3 == 2 * s


def test_solve_u_at_origin():
    assert maps.solve_u_of_t(4, 0.0) == 1.0


def test_solve_u_quadratic_oracle():
    # s = 2: U = (1 - sqrt(1 - 4t)) / (2t)
    for t in (0.01, 0.1, 0.2, 0.24, -0.3, 0.1 + 0.05j):
        u = maps.solve_u_of_t(2, t, tol=1e-14)
        oracle = (1 - (1 - 4 * t) ** 0.5) / (2 * t)
        assert abs(u - oracle) < 1e-12


def test_solve_u_matches_taylor_series():
    # 50 exact terms at |t| <= zeta_c/2 agree to 1e-12
    for s in (2, 3, 5):
        zc = float(maps.thresholds(s).zeta_c)
        tbl = raney_table(s, 1, 50)
        for t in (0.5 * zc, 0.31 * zc, -0.5 * zc, 0.35j * zc):
            series = sum(tbl[n] * t**n for n in range(51))
            assert abs(maps.solve_u_of_t(s, t) - series) < 1e-12


def test_solve_u_near_critical_limit():
    # t -> zeta_c from below: U -> U_c = s/(s-1)
    for s in (2, 3):
        zc = float(maps.thresholds(s).zeta_c)
        uc = float(maps.branch_point_data(s).U_c)
        u = maps.solve_u_of_t(s, zc * (1 - 1e-8))
        assert abs(u - uc) < 1e-3


def test_solve_u_branch_ray_error():
    zc = float(maps.thresholds(2).zeta_c)
    for t in (zc, 1.5 * zc):
        with pytest.raises(BranchAmbiguityError):
            maps.solve_u_of_t(2, t)


def test_local_expansion_exact_s2_oracle():
    # exact s=2 residual: |2(1-sqrt(eps))/(1-eps) - (2 - 2 sqrt(eps))|
    for eps in (1e-2, 1e-3, 1e-4):
        got = maps.local_expansion_check(2, eps)
        exact = abs(2 * (1 - math.sqrt(eps)) / (1 - eps) - (2 - 2 * math.sqrt(eps)))
        assert abs(got - exact) < 1e-9


@pytest.mark.parametrize("s", (2, 3))
def test_local_expansion_linear_in_eps(s):
    res = {eps: maps.local_expansion_check(s, eps) for eps in (1e-2, 1e-3, 1e-4)}
    ratios = [res[1e-2] / (1e-2), res[1e-3] / 1e-3, res[1e-4] / 1e-4]
    # O(eps) contract: the residual/eps ratios stay within a factor 2 band
    assert max(ratios) < 2.0 * min(ratios)


def test_local_expansion_richardson_halving():
    r1 = maps.local_expansion_check(3, 2e-3)
    r2 = maps.local_expansion_check(3, 1e-3)
    assert abs(r2 / r1 - 0.5) < 0.1


def test_local_expansion_eps_zero_is_branch_point():
    with pytest.raises(BranchAmbiguityError):
        maps.local_expansion_check(3, 0.0)
    with pytest.raises(DomainError):
        maps.local_expansion_check(3, 0.2)


def test_is_univalent_examples():
    assert maps.is_univalent(maps.MapConfig(2, 0.6)).univalent
    res = maps.is_univalent(maps.MapConfig(3, 0.5))
    assert not res.univalent and res.critical
    res = maps.is_univalent(maps.MapConfig(3, 0.7))
    assert not res.univalent and not res.critical


def test_injectivity_margin_signs():
    assert maps.boundary_injectivity_margin(maps.MapConfig(2, 0.5), 256) > 0
    assert maps.boundary_injectivity_margin(maps.MapConfig(3, 0.6), 256) < 0


def test_injectivity_margin_critical_shrinks():
    cfg = maps.MapConfig(3, 0.5)  # exactly zeta_univ
    m1 = maps.boundary_injectivity_margin(cfg, 64)
    m2 = maps.boundary_injectivity_margin(cfg, 1024)
    assert m1 > m2 >= 0.0 or abs(m2) < 1e-8


def test_injectivity_margin_validates_samples():
    with pytest.raises(DomainError):
        maps.boundary_injectivity_margin(maps.MapConfig(2, 0.5), 8)


def test_univalent_margin_agreement_grid():
    import numpy as np

    for s in (2, 4, 6):
        zu = 1.0 / (s - 1)
        for frac in np.linspace(0.1, 1.9, 13):
            zeta = frac * zu
            if abs(zeta - zu) < 1e-6:
                continue
            cfg = maps.MapConfig(s, zeta)
            assert maps.is_univalent(cfg).univalent == (
                maps.boundary_injectivity_margin(cfg, 2048) > 0
            )
