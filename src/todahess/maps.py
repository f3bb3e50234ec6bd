"""Thresholds, inverse-branch solver and univalence geometry for
f(w) = w + zeta * w^{1-s} (conformal radius fixed to 1).

The inverse branch is encoded by U solving U = 1 + zeta x^s U^s with
U(0) = 1; its dominant singularity sits at zeta x^s = zeta_c.  The two
thresholds zeta_c = (s-1)^{s-1}/s^s and zeta_univ = 1/(s-1) are kept as
exact rationals because several invariants are knife-edge comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import BranchAmbiguityError, DomainError, IterationError
from .raney import _at_least, raney_table

#: Newton Jacobian modulus below which the branch is declared ambiguous.
JACOBIAN_FLOOR = 1e-8


@dataclass(frozen=True)
class MapConfig:
    """The pair (s, zeta); the only physical input of the model."""

    s: int
    zeta: float

    def __post_init__(self):
        _at_least("s", self.s, 2)
        if not (self.zeta > 0 and math.isfinite(self.zeta)):
            raise DomainError(f"zeta must be finite and > 0, got {self.zeta}")


@dataclass(frozen=True)
class Thresholds:
    zeta_c: Fraction
    zeta_univ: Fraction
    ratio: Fraction


def thresholds(s: int) -> Thresholds:
    """Exact analytic and geometric thresholds and their ratio ((s-1)/s)^s."""
    s = _at_least("s", s, 2)
    zc = Fraction((s - 1) ** (s - 1), s**s)
    zu = Fraction(1, s - 1)
    return Thresholds(zeta_c=zc, zeta_univ=zu, ratio=zc / zu)


@dataclass(frozen=True)
class BranchPointData:
    U_c: Fraction
    kappa: float
    kappa_sq: Fraction


def branch_point_data(s: int) -> BranchPointData:
    """Critical value U_c = s/(s-1) and kappa = sqrt(2s/(s-1)^3)."""
    s = _at_least("s", s, 2)
    ksq = Fraction(2 * s, (s - 1) ** 3)
    return BranchPointData(
        U_c=Fraction(s, s - 1),
        kappa=math.sqrt(ksq),
        kappa_sq=ksq,
    )


def _u_taylor(s: int, t: complex, n_terms: int = 10) -> complex:
    tbl = raney_table(s, 1, n_terms)
    acc = 0.0 + 0.0j
    tp = 1.0 + 0.0j
    for n in range(n_terms + 1):
        acc += tbl[n] * tp
        tp *= t
    return acc


def _newton_u(s: int, t: complex, u0: complex, tol: float, max_iter: int = 40):
    """Newton for u - 1 - t u^s = 0 from seed u0; returns (u, converged)."""
    u = u0
    for _ in range(max_iter):
        f = u - 1.0 - t * u**s
        jac = 1.0 - s * t * u ** (s - 1)
        if abs(jac) < JACOBIAN_FLOOR:
            raise BranchAmbiguityError(
                f"Newton Jacobian {abs(jac):.2e} below {JACOBIAN_FLOOR:.0e} at t={t}"
            )
        step = f / jac
        u = u - step
        if abs(step) < 0.5 * tol and abs(u - 1.0 - t * u**s) < tol:
            return u, True
    return u, False


def solve_u_of_t(s: int, t: complex, tol: float = 1e-13) -> complex:
    """Principal branch of U = 1 + t U^s, U(0) = 1, for t = zeta x^s.

    Continuation runs radially from the origin with adaptive steps; near the
    square-root branch point the usable step shrinks like sqrt(1 - t/zeta_c),
    which the step-halving finds on its own.  A move guard rejects Newton
    jumps onto the conjugate branch.
    """
    if not tol > 0:
        raise DomainError("tol must be > 0")
    t = complex(t)
    if t == 0:
        return 1.0 + 0.0j
    zc = float(thresholds(s).zeta_c)
    if t.imag == 0.0 and t.real >= zc:
        raise BranchAmbiguityError(
            f"t = {t.real:.6g} lies on the branch ray [{zc:.6g}, inf)"
        )
    # Inside half the critical radius the Taylor seed converges in one shot.
    if abs(t) <= 0.5 * zc:
        u, ok = _newton_u(s, t, _u_taylor(s, t), tol)
        if not ok:
            raise IterationError(f"Newton failed to converge for t={t}")
        return u

    tau0 = 0.4 * zc / abs(t)
    u, ok = _newton_u(s, tau0 * t, _u_taylor(s, tau0 * t), tol)
    if not ok:
        raise IterationError(f"Newton failed at continuation seed for t={t}")
    tau, dtau = tau0, (1.0 - tau0) / 8.0
    steps = 0
    while tau < 1.0:
        if steps > 20000:
            raise IterationError(f"continuation exceeded step budget for t={t}")
        steps += 1
        tau_next = min(1.0, tau + dtau)
        try:
            u_next, ok = _newton_u(s, tau_next * t, u, tol, max_iter=12)
        except BranchAmbiguityError:
            if tau_next >= 1.0 and dtau < 1e-12:
                raise
            ok = False
            u_next = u
        # Reject large moves: they signal a jump to the conjugate branch.
        if ok and abs(u_next - u) <= 0.2 * max(abs(u - 1.0), 0.05):
            u, tau = u_next, tau_next
            dtau = min(dtau * 1.7, 1.0 - tau + 1e-16)
        else:
            dtau *= 0.5
            if dtau < 1e-14:
                raise IterationError(
                    f"continuation step underflow at tau={tau:.6g} for t={t}"
                )
    return u


def local_expansion_check(s: int, eps: float) -> float:
    """|U(at zeta x^s = zeta_c (1 - eps)) - (U_c - kappa sqrt(eps))|.

    Contract: the residual is O(eps) as eps -> 0 (square-root branch point
    with analytic next order).
    """
    if eps == 0:
        raise BranchAmbiguityError("eps = 0 sits exactly on the branch point")
    if not 0 < eps < 0.1:
        raise DomainError(f"eps must lie in (0, 0.1), got {eps}")
    th = thresholds(s)
    bp = branch_point_data(s)
    u = solve_u_of_t(s, float(th.zeta_c) * (1.0 - eps), tol=1e-13)
    predicted = float(bp.U_c) - bp.kappa * math.sqrt(eps)
    return abs(u - predicted)


class UnivalenceResult(NamedTuple):
    """Read .univalent: as a non-empty tuple the result itself is always true."""

    univalent: bool
    critical: bool


def is_univalent(cfg: MapConfig) -> UnivalenceResult:
    """True iff zeta < 1/(s-1), decided by exact rational comparison.

    At exact equality the result is (False, critical=True): the s critical
    points of f' sit on the unit circle.  The float-geometric criterion
    (|w|^s = (s-1) zeta for roots of f') is cross-checked away from the
    knife edge.
    """
    zu = Fraction(1, cfg.s - 1)
    z_exact = Fraction(cfg.zeta)
    if z_exact == zu:
        return UnivalenceResult(univalent=False, critical=True)
    univalent = z_exact < zu
    # Geometric cross-check: roots of f'(w) = 1 - (s-1) zeta w^{-s} satisfy
    # |w|^s = (s-1) zeta; univalence needs them strictly inside the circle.
    radius_s = (cfg.s - 1) * cfg.zeta
    if abs(radius_s - 1.0) > 1e-9:
        geom = radius_s < 1.0
        if geom != univalent:
            raise ArithmeticError("rational and geometric univalence tests disagree")
    return UnivalenceResult(univalent=univalent, critical=False)


def boundary_injectivity_margin(cfg: MapConfig, n_samples: int) -> float:
    """min over sampled delta in (0, pi) of |sin d| - zeta |sin((s-1) d)|.

    Positive margin certifies sampled boundary injectivity; the margin tends
    to 0 (through positives) at the univalence threshold and goes negative
    beyond it.
    """
    n_samples = _at_least("n_samples", n_samples, 16)
    best = math.inf
    for k in range(1, n_samples):
        d = math.pi * k / n_samples
        val = abs(math.sin(d)) - cfg.zeta * abs(math.sin((cfg.s - 1) * d))
        best = min(best, val)
    return best
