"""Analytic continuation of the squared-Raney generating functions.

G_p(u) = sum_m R_{s,p}(m)^2 u^m converges for |u| < zeta_c^2 and extends to
the slit plane C \\ [zeta_c^2, inf).  The coefficient ratio is rational in m,
so G_p is a generalized hypergeometric function; after cancelling common
upper/lower parameters the reduced equation has order q_p + 1 and its only
finite singular points are xi = 0, 1 in xi = u / zeta_c^2.  The power
series at 0 is summed in one place, _power_series: it gives the values in
the disk |xi| <= SERIES_RADIUS and seeds every walk at XI_SEED.  Off the
disk, continuation re-expands the solution in Taylor steps from the
recurrence of that reduced equation, along piecewise-linear paths that
detour around xi = 1; two walks with different step lengths, in doubles
first and in mpmath if they disagree, bound the error.

The scalar Gram weights are recovered by the Euler operator
sigma = (1/p) (p + s u d/du)^2 G_p, and the branch-cut jump of sigma gives
the discontinuity density with positive edge value (p/2pi) (s/(s-1))^{2p+1}.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import NamedTuple

import mpmath as mp
import numpy as np

from .errors import (
    AccuracyError,
    ConditioningError,
    DomainError,
    DivergenceError,
    PathError,
)
from .maps import thresholds
from .raney import _validate_sp, raney_step

#: imaginary offset of the detour rectangle
DETOUR_OFFSET = 0.3
#: seed point of all transports
XI_SEED = 0.5
#: gp_continue sums the power series itself for |xi| up to this radius
SERIES_RADIUS = 0.98
#: relative tolerance of continued values unless the caller sets its own
CONTINUATION_TOL = 1e-12
#: terms below this relative size no longer change a float64 partial sum
_SERIES_TOL = 1e-17


# ---------------------------------------------------------------------------
# Hypergeometric parameter data


@dataclass(frozen=True)
class HypParams:
    s: int
    p: int
    upper: tuple  # Fractions, with multiplicity
    lower: tuple
    reduced_upper: tuple
    reduced_lower: tuple
    excess: Fraction
    cancelled: int


def hyp_params(s: int, p: int) -> HypParams:
    """Exact parameter multisets of G_p and their reduction.

    upper = {(p+k)/s : k < s} twice; lower = {1} + {(p+l)/(s-1) : 1<=l<s}
    twice.  The parametric excess (sum lower - sum upper) equals 2 for every
    (s, p); cancellation preserves it.
    """
    _validate_sp(s, p)
    upper = sorted(Fraction(p + k, s) for k in range(s)) * 2
    lower = [Fraction(1)] + sorted(Fraction(p + l, s - 1) for l in range(1, s)) * 2
    upper.sort()
    lower.sort()

    red_up = list(upper)
    red_lo = []
    for b in lower:
        if b in red_up:
            red_up.remove(b)
        else:
            red_lo.append(b)
    cancelled = len(lower) - len(red_lo)
    excess = sum(lower) - sum(upper)
    return HypParams(
        s=s,
        p=p,
        upper=tuple(upper),
        lower=tuple(lower),
        reduced_upper=tuple(red_up),
        reduced_lower=tuple(sorted(red_lo)),
        excess=excess,
        cancelled=cancelled,
    )


def _coeff_step(s: int, p: int, m: int):
    """(num, den), integers, with num/den = a_{m+1}/a_m for
    a_m = R_{s,p}(m)^2 zeta_c^{2m}."""
    num, den = raney_step(s, p, m)
    return num**2 * (s - 1) ** (2 * s - 2), den**2 * s ** (2 * s)


def gp_series(s: int, p: int, u: complex):
    """G_p(u) from its power series; only inside |u| <= SERIES_RADIUS zeta_c^2.

    The value is exactly gp_continue(s, p, u).value, real for real u.
    """
    _validate_sp(s, p)
    zc2 = float(thresholds(s).zeta_c) ** 2
    if not cmath.isfinite(complex(u)):
        raise DomainError(f"u must be finite, got {u}")
    if abs(complex(u) / zc2) > SERIES_RADIUS:
        raise DivergenceError(f"|u| = {abs(u):.3g} beyond {SERIES_RADIUS} * zeta_c^2 = "
                              f"{SERIES_RADIUS * zc2:.3g}; use gp_continue off the disk")
    g = gp_continue(s, p, u).value
    return g.real if complex(u).imag == 0.0 else g


# ---------------------------------------------------------------------------
# Reduced ODE in theta form


def _stirling2(n: int):
    """Table S(k, j), 0 <= j <= k <= n, Stirling numbers of the second kind."""
    tab = [[0] * (n + 1) for _ in range(n + 1)]
    tab[0][0] = 1
    for k in range(1, n + 1):
        for j in range(1, k + 1):
            tab[k][j] = j * tab[k - 1][j] + tab[k - 1][j - 1]
    return tab


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


@lru_cache(maxsize=None)
def _ode_fractions(s: int, p: int) -> tuple:
    """(d, c, e): exact coefficients of the reduced equation.

    The reduced operator is theta * prod_b (theta + b - 1) - xi *
    prod_a (theta + a); converting theta^k = sum_j S(k,j) xi^j D^j gives
    sum_j xi^j (c_j - xi e_j) y^(j) = 0 with c_d = e_d = 1, so

        y^(d) = - sum_{j<d} xi^j (c_j - xi e_j) y^(j) / (xi^d (1 - xi)).

    c and e are tuples of Fractions, j = 0..d.
    """
    hp = hyp_params(s, p)
    a_list = hp.reduced_upper
    b_list = hp.reduced_lower
    d = len(a_list)
    if len(b_list) != d - 1:
        raise ArithmeticError("reduced parameter lists are unbalanced")

    p_poly = [Fraction(0), Fraction(1)]  # theta
    for b in b_list:
        p_poly = _poly_mul(p_poly, [b - 1, Fraction(1)])
    r_poly = [Fraction(1)]
    for a in a_list:
        r_poly = _poly_mul(r_poly, [a, Fraction(1)])
    s2 = _stirling2(d)
    c = tuple(sum(p_poly[k] * s2[k][j] for k in range(j, d + 1)) for j in range(d + 1))
    e = tuple(sum(r_poly[k] * s2[k][j] for k in range(j, d + 1)) for j in range(d + 1))
    if c[d] != 1 or e[d] != 1:
        raise ArithmeticError("theta polynomials are not monic")
    return d, c, e


# ---------------------------------------------------------------------------
# Taylor steps


#: decimal digits the Taylor-step engine carries above the caller's dps
TAYLOR_GUARD_DPS = 10


class _TaylorWalk(NamedTuple):
    states: list  # [y, y', ..., y^(d-1)] at each target
    steps: int  # expansions from the recurrence (the seed series not counted)
    terms: int  # Taylor coefficients computed, seed series included
    dps: "int | None"  # working precision, decimal digits; None for doubles


def _falling_row(n: int, d: int) -> list:
    """[n!/(n-j)! for j = 0..d]."""
    row = [1]
    for j in range(d):
        row.append(row[-1] * (n - j))
    return row


#: (s, p, ar.num, ar.digits) -> the rounded step ratios a_{m+1}/a_m drawn so far
_STEP_RATIOS: dict = {}


def _seed_coeffs(s: int, p: int, ar: _Arith):
    """Power-series coefficients a_m of y(xi) = G_p(zeta_c^2 xi) at 0 in the
    number type of ar; each exact step ratio is rounded once, so no overflow.
    The rounded ratios are kept per (s, p) and number type (ar.num tells
    doubles from mpmath, which always runs at ar.digits), so later series
    reuse them."""
    ratios = _STEP_RATIOS.setdefault((s, p, ar.num, ar.digits), [])
    a = ar.num(1)
    for m in count():
        yield a
        if m == len(ratios):
            ratios.append(ar.ratio(*_coeff_step(s, p, m)))
        a = a * ratios[m]


@lru_cache(maxsize=None)
def _recurrence_row(s: int, p: int, big_n: int) -> tuple:
    """(alpha, beta, lead, den): the integer recurrence of row N = big_n.

    The coefficient of (xi - centre)^N in sum_j xi^j (c_j - xi e_j) y^(j) = 0
    is, after scaling by centre^N, with b_n = a_n centre^n,

        sum_{r=-1}^{d} b_{N+r} (alpha_r(N) - centre beta_r(N)) = 0,
        alpha_r(N) = sum_j c_j C(j, r) (N+r)!/(N+r-j)!,
        beta_r(N) = sum_j e_j C(j+1, r+1) (N+r)!/(N+r-j)!,

    a (d+2)-term recurrence that does not depend on the centre, with
    alpha_d = beta_d = lead = (N+d)!/N!.  alpha holds den alpha_r(N) for
    r < d and beta holds den beta_r(N) for r from -1 (0 when N = 0, where
    b_{-1} = 0) to d - 1, integers for den the common denominator of c, e.
    """
    d, c, e = _ode_fractions(s, p)
    den = math.lcm(*(x.denominator for x in c + e))
    falling = [_falling_row(big_n + r, d) for r in range(-1, d + 1)]
    alpha = [sum(int(den * c[j]) * math.comb(j, r) * falling[r + 1][j]
                 for j in range(d + 1)) for r in range(d)]
    beta = [sum(int(den * e[j]) * math.comb(j + 1, r + 1) * falling[r + 1][j]
                for j in range(d + 1)) for r in range(-1 if big_n else 0, d)]
    return tuple(alpha), tuple(beta), falling[d + 1][d], den


def _recurrence_coeffs(s: int, p: int, centre, head, dot):
    """Scaled Taylor coefficients b_n = a_n centre^n of y at centre, from the
    recurrence of _recurrence_row; head holds b_0..b_{d-1}.  dot(integers, b)
    is the dot product in b's number type.
    """
    b = list(head)
    yield from b
    inv = 1 / (_recurrence_row(s, p, 0)[3] * (1 - centre))
    for big_n in count():
        alpha, beta, lead, _ = _recurrence_row(s, p, big_n)
        acc = centre * dot(beta, b[max(big_n - 1, 0):]) - dot(alpha, b[big_n:])
        b.append(acc * inv / lead)
        yield b[-1]


def _fdot(u: list, v: list) -> complex:
    """sum_k u_k v_k for integers u and complex doubles v."""
    return sum(map(operator.mul, u, v))


_MPF_ZERO = mp.mpf(0)._mpf_


def _mp_idot(u: list, v: list):
    """mp.fdot(u, v) for integers u and mpf or mpc v: the real and imaginary
    parts are summed exactly in integers, from mpmath's raw (sign, man, exp,
    bc) tuples, and rounded once."""
    raw = [x._mpc_ if isinstance(x, mp.mpc) else (x._mpf_, _MPF_ZERO) for x in v]
    out = []
    for part in zip(*raw):
        emin = min((t[2] for t in part if t[1]), default=0)
        total = sum((-k if t[0] else k) * t[1] << (t[2] - emin)
                    for k, t in zip(u, part))
        out.append(mp.mpf((total, emin)))
    return mp.mpc(*out) if any(isinstance(x, mp.mpc) for x in v) else out[0]


class _Arith(NamedTuple):
    """Number type of the Taylor engine: complex doubles or mpmath."""
    digits: int  # decimal digits carried
    tol: float  # relative tail bound at which an expansion stops
    dot: object  # dot(integers, numbers) in the number type
    num: object  # conversion into the number type
    ratio: object  # ratio(i, j): the quotient of integers i / j, rounded once


def _arith(dps) -> _Arith:
    """Python complex doubles for dps=None, else mpmath numbers for a
    caller's dps, carried at dps + TAYLOR_GUARD_DPS digits (at most 250)."""
    if dps is None:
        return _Arith(16, _SERIES_TOL, _fdot, complex, operator.truediv)
    if dps > 250:
        # tol and the terms compared with it must stay normal doubles
        raise DomainError(f"dps = {dps} exceeds 250, the range of the tail check")
    return _Arith(dps + TAYLOR_GUARD_DPS, 10.0 ** (-(dps + 6)), _mp_idot,
                  mp.mpmathify, lambda i, j: mp.mpmathify(Fraction(i, j)))


def _expand(coeffs, tau_far, ratio: float, d: int, ar: _Arith) -> list:
    """Draw Taylor coefficients b_0, b_1, ... from coeffs until every
    component sum_n b_n n!/(n-i)! tau^(n-i), i < d, has a geometric tail at
    tau_far below ar.tol relative to its partial sum.  The term ratio of
    component i is taken as ratio (n+1)/(n+1-i), the ratio of consecutive
    terms of a geometric series differentiated i times; the check itself
    runs in complex doubles.  Every expansion of y stops by this rule: the
    power series at 0 (_power_series) and each Taylor step of the walks.

    DivergenceError past the term budget: ratio <= 1/2 needs about 3.3
    terms per digit, plus the growth of n!/(n-d)!, and the budget is three
    times that; a ratio in (1/2, 1) needs log(1/2)/log(ratio) times more.
    """
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
            raise DivergenceError(
                f"Taylor expansion needs more than {budget} terms to reach "
                f"{tol:.1e} relative"
            )


@lru_cache(maxsize=None)
def _binomial_rows(n: int, d: int) -> tuple:
    """(head, tail): head[i] = (C(m, i) for m = i..d-1) and tail[i] =
    (C(m, i) for m = d..n-1), i = 0..d-1; _shift asks for n rounded up to a
    power of two, so few tables serve every expansion length."""
    return (tuple(tuple(math.comb(m, i) for m in range(i, d)) for i in range(d)),
            tuple(tuple(math.comb(m, i) for m in range(d, n)) for i in range(d)))


def _shift(coeffs: list, tau, d: int, dot) -> list:
    """P^(i)(tau) / i! = sum_n C(n, i) coeffs[n] tau^(n-i), i < d, for
    P(tau) = sum_n coeffs[n] tau^n with at least d coefficients.

    The terms n < d are summed directly and tau^(d-i) is factored out of
    the rest, so nothing divides by a power of tau that may underflow.
    """
    pw = [tau**i for i in range(d + 1)]
    w, x = [], 1
    for b in coeffs[d:]:
        w.append(b * x)
        x *= tau
    # dot stops at the shorter operand, so longer binomial rows serve too
    head, tail = _binomial_rows(1 << (len(coeffs) - 1).bit_length(), d)
    return [dot(head[i], [b * y for b, y in zip(coeffs[i:d], pw)])
            + dot(tail[i], w) * pw[d - i] for i in range(d)]


def _power_series(s: int, p: int, xi, d: int, ar: _Arith) -> tuple:
    """(y^(i)(xi) / i! for i < d, terms summed) of y(xi) = G_p(zeta_c^2 xi)
    from its power series at 0, |xi| < 1, in ar's number type: the one sum of
    G_p's series, which seeds every walk and gives the values in the disk."""
    coeffs = _expand(_seed_coeffs(s, p, ar), xi, float(abs(xi)), d, ar)
    return _shift(coeffs, xi, d, ar.dot), len(coeffs)


def _segment_distance(a: complex, b: complex, z: complex) -> float:
    """Distance from z to the segment [a, b]."""
    v = b - a
    lam = 0.0 if v == 0 else ((z - a) * v.conjugate()).real / abs(v) ** 2
    return abs(a + min(max(lam, 0.0), 1.0) * v - z)


def _taylor_walk(s: int, p: int, targets, dps, reach: int = 2) -> _TaylorWalk:
    """Carry (y, y', ..., y^(d-1)) of y(xi) = G_p(zeta_c^2 xi) from XI_SEED
    through targets, in order: at dps + TAYLOR_GUARD_DPS digits in mpmath,
    or in Python complex doubles for dps=None.

    The path is the polygon XI_SEED -> targets[0] -> targets[1] -> ...;
    targets may be complex, and the path must keep 1e-9 away from xi = 0
    and 1.  The seed state is summed from the power series at 0.  Each step
    re-expands y at the current centre c from the recurrence of
    _recurrence_coeffs and evaluates it at every following target within
    rho/reach of c, where rho = min(|c|, |1 - c|) is the distance to the
    nearer singular point.
    The next centre is the last of those targets or, if there is none, the
    point rho/reach further along the path.  Each expansion stops once its
    geometric tail is below 10^-(dps+6) relative, or _SERIES_TOL in doubles
    (see _expand); dps is at most 250.  Non-finite targets raise DomainError.
    """
    ar = _arith(dps)
    d = _ode_fractions(s, p)[0]
    with nullcontext() if dps is None else mp.workdps(ar.digits):
        pts = [ar.num(t) for t in targets]
        corners = [complex(XI_SEED)] + [complex(t) for t in pts]
        if not all(cmath.isfinite(z) for z in corners):
            raise DomainError(f"continuation targets must be finite, got {targets!r}")
        for a, b in zip(corners, corners[1:]):
            if min(_segment_distance(a, b, z) for z in (0j, 1 + 0j)) < 1e-9:
                raise PathError(f"segment {a} -> {b} passes within 1e-9 of a "
                                "singular point, 0 or 1")
        centre = ar.num(XI_SEED)
        taylor, terms = _power_series(s, p, centre, d, ar)  # y^(i)(centre) / i!
        steps, k, states = 0, 0, []
        while k < len(pts):
            rho = min(abs(centre), abs(1 - centre))
            served = []
            while k < len(pts) and abs(pts[k] - centre) <= rho / reach:
                served.append(pts[k])
                k += 1
            if served:
                nxt = served[-1]
            else:
                nxt = centre + rho / reach * (pts[k] - centre) / abs(pts[k] - centre)
            far = max(abs(t - centre) for t in served or [nxt])
            # y(centre + centre tau) = sum_n b_n tau^n
            head = [taylor[i] * centre**i for i in range(d)]
            coeffs = _expand(_recurrence_coeffs(s, p, centre, head, ar.dot),
                             far / abs(centre), float(far / rho), d, ar)
            steps += 1
            terms += len(coeffs)
            scale = [centre**-i for i in range(d)]
            reached = [
                [x * f for x, f in
                 zip(_shift(coeffs, (t - centre) / centre, d, ar.dot), scale)]
                for t in served or [nxt]
            ]
            if served:
                states.extend(reached)
            taylor = reached[-1]
            centre = nxt
        fact = [math.factorial(i) for i in range(d)]
        states = [[x * f for x, f in zip(st, fact)] for st in states]
    return _TaylorWalk(states, steps, terms, None if dps is None else ar.digits)


# ---------------------------------------------------------------------------
# Continuation along detour paths


#: decimal digits of the mpmath walks, used when the double walks disagree
_MP_RUNG_DPS = 20


class _Continued(NamedTuple):
    states: list  # complex arrays of kept xi-derivatives, one per node
    dps: "int | None"  # working digits of the accepted walks; None for doubles
    steps: int  # Taylor expansions of the returned walk
    rel_est: float  # largest relative disagreement of the accepted walks


def _continue(s: int, p: int, path, nodes, tol: float, keep=None) -> _Continued:
    """_taylor_walk from XI_SEED along the corners path and on through nodes;
    returns (y, y', ...) at each node, the first keep components (all d for
    None), within tol relative.

    Two walks serve the targets within rho/2 and rho/3 of each centre.  The
    largest relative disagreement between them of any returned component
    estimates the error, measured to be low by up to 2x, so it must not
    exceed tol/4.  The walks run in complex doubles, and again at
    _MP_RUNG_DPS digits if the doubles disagree or exhaust their term
    budget; the rho/3 walk's states are returned.  Raises AccuracyError when
    the mpmath walks disagree too.
    """
    targets = [*path, *nodes]
    why = ""
    for dps in (None, _MP_RUNG_DPS):
        try:
            coarse, fine = [_taylor_walk(s, p, targets, dps, reach)
                            for reach in (2, 3)]
        except (DivergenceError, OverflowError) as exc:  # doubles may overflow
            why = str(exc)
            continue
        kept = [(a[:keep], b[:keep])
                for a, b in zip(coarse.states[len(path):], fine.states[len(path):])]
        gaps = [float(abs(x - y) / max(abs(y), 1e-300))
                for a, b in kept for x, y in zip(a, b)]
        if all(g <= tol / 4 for g in gaps):
            states = [np.array([complex(x) for x in b]) for _, b in kept]
            return _Continued(states, fine.dps, fine.steps, max(gaps, default=0.0))
        why = f"the walks at rho/2 and rho/3 differ by {max(gaps):.1e} relative"
    raise AccuracyError(
        f"continuation of G_p for (s, p) = ({s}, {p}) misses tol = {tol:.1e} "
        f"at {_MP_RUNG_DPS} digits: {why}"
    )


def _waypoints(xi_t: complex, side: str) -> list:
    xi0 = complex(XI_SEED)
    re, im = xi_t.real, xi_t.imag
    if side == "none":
        if im == 0.0 and re >= 1.0:
            raise PathError("target on the cut: pass side='above' or side='below'")
        sigma = 1.0 if im >= 0 else -1.0
    elif side in ("above", "below"):
        sigma = 1.0 if side == "above" else -1.0
        if im != 0.0 and math.copysign(1.0, im) != sigma:
            raise PathError(f"target {xi_t} is on the opposite side of the cut")
    else:
        raise DomainError(f"side must be 'above', 'below' or 'none', got {side!r}")
    h = sigma * DETOUR_OFFSET
    pts = [xi0, complex(XI_SEED, h), complex(re, h), xi_t]
    out = [pts[0]]
    for pt in pts[1:]:
        if pt != out[-1]:
            out.append(pt)
    return out


@dataclass(frozen=True)
class ContinuationState:
    """Value and u-derivatives of G_p at the endpoint of a transport path."""

    s: int
    p: int
    u: complex
    side: str
    derivs: tuple  # (G, G', G'') with respect to u, the inputs of sigma
    path: tuple  # xi-plane waypoints actually used
    dps: "int | None"  # working digits of the Taylor walk; None for doubles
    steps: int  # Taylor expansions of the walk; 0 for the series in the disk
    rel_est: float  # two-walk disagreement; _SERIES_TOL for the series

    @property
    def value(self) -> complex:
        return self.derivs[0]


def _state(s: int, p: int, u: complex, side: str, z, path,
           run: "_Continued | None" = None) -> ContinuationState:
    """State at u from the xi-derivatives z of y(xi) = G_p(zeta_c^2 xi),
    summed from the series when run is None."""
    zc2 = float(thresholds(s).zeta_c) ** 2
    derivs = tuple(z[j] / zc2**j for j in range(len(z)))
    dps, steps, rel_est = ((None, 0, _SERIES_TOL) if run is None
                           else (run.dps, run.steps, run.rel_est))
    return ContinuationState(s=s, p=p, u=u, side=side, derivs=derivs, path=path,
                             dps=dps, steps=steps, rel_est=rel_est)


def transport(s: int, p: int, waypoints) -> np.ndarray:
    """Low-level: carry the solution vector along explicit xi waypoints.

    The first waypoint must be XI_SEED.  Returns the xi-derivative vector
    (y, y', ..., y^{d-1}) at the final waypoint, within CONTINUATION_TOL
    relative or AccuracyError (see _continue).
    """
    if complex(waypoints[0]) != complex(XI_SEED):
        raise PathError(f"paths must start at the seed point xi = {XI_SEED}")
    return _continue(s, p, waypoints[:-1], waypoints[-1:], CONTINUATION_TOL).states[0]


def gp_continue(
    s: int,
    p: int,
    u: complex,
    side: str = "none",
    tol: float = CONTINUATION_TOL,
) -> ContinuationState:
    """Continue G_p to u on the slit plane along a detour path.

    side selects the lateral boundary value for u on the cut [zeta_c^2, inf);
    'none' is for targets off the cut.  For |u| <= SERIES_RADIUS zeta_c^2
    the state is summed from the power series at 0 (_power_series, which
    also seeds every walk), because transport towards the singular point
    u = 0 loses digits; u = 0 gives G = 1.  Elsewhere it comes from
    the checked Taylor walk (see _continue): within tol relative, or
    AccuracyError.  A non-finite u raises DomainError.
    """
    _validate_sp(s, p)
    side = side or "none"
    zc2 = float(thresholds(s).zeta_c) ** 2
    uc = complex(u)
    if not cmath.isfinite(uc):
        raise DomainError(f"u must be finite, got {u}")
    xi_t = uc / zc2
    pts = _waypoints(xi_t, side)
    if abs(xi_t) <= SERIES_RADIUS:
        taylor, _ = _power_series(s, p, xi_t, 3, _arith(None))
        z = [c * math.factorial(j) for j, c in enumerate(taylor)]
        return _state(s, p, uc, side, z, (xi_t,))
    run = _continue(s, p, pts[1:-1], pts[-1:], tol, keep=3)
    return _state(s, p, uc, side, run.states[0], tuple(pts), run)


def sigma_cont(s: int, p: int, u: complex, side: str = "none") -> complex:
    """Continued scalar Gram weight
    (1/p) [p^2 G + s(2p+s) u G' + s^2 u^2 G''] at u, from gp_continue."""
    return sigma_from_state(gp_continue(s, p, u, side))


def sigma_from_state(st: ContinuationState) -> complex:
    g, g1, g2 = st.derivs[0], st.derivs[1], st.derivs[2]
    s, p, u = st.s, st.p, st.u
    return (p * p * g + s * (2 * p + s) * u * g1 + s * s * u * u * g2) / p


# ---------------------------------------------------------------------------
# Resonant expansion at the branch point


class BranchCoefficient(NamedTuple):
    """B(zeta_c^2) = rational / pi; always negative."""

    rational: Fraction

    @property
    def value(self) -> float:
        # times 1/pi, not over pi: the two can differ in the last bit, and
        # every recorded B (resonant-fit output, selftest JSON) rounds this way
        return float(self.rational) * math.pi**-1


def B_closed_form(s: int, p: int) -> BranchCoefficient:
    """B(zeta_c^2) = -(p^2/4pi) s^{2p-1}/(s-1)^{2p+1}."""
    _validate_sp(s, p)
    return BranchCoefficient(
        rational=Fraction(-(p**2) * s ** (2 * p - 1), 4 * (s - 1) ** (2 * p + 1))
    )


def edge_density_closed(s: int, p: int) -> float:
    """rho_p(zeta_c^2) = (p/2pi) (s/(s-1))^{2p+1} = -(2s^2/p) B(zeta_c^2)."""
    _validate_sp(s, p)
    return p / (2.0 * math.pi) * (s / (s - 1.0)) ** (2 * p + 1)


@dataclass(frozen=True)
class ResonantCoefficients:
    """Local model G = a0 + a1 w + a2 w^2 + a3 w^3 + (b2 + b3 w) w^2 log w."""

    s: int
    p: int
    B_fit: float
    coeffs: tuple  # (a0, a1, a2, a3, b2, b3)
    max_rel_residual: float
    steps: int  # Taylor-step expansions behind the node values
    terms: int  # Taylor coefficients summed, seed series included
    dps: int  # working precision of those values, decimal digits


def resonant_fit(
    s: int, p: int, eps_grid=None, dps: int = 40
) -> ResonantCoefficients:
    """Fit the resonant local model to extended-precision values of G_p.

    w = 1 - u/zeta_c^2 runs over eps_grid (default: 24 log-spaced points in
    [1.5e-3, 6e-2]).  One Taylor-step walk gives G_p at every node, at
    dps + TAYLOR_GUARD_DPS digits; the least-squares solve runs at dps
    digits (an integer from 15 to 250).  The w^3 and w^3 log w columns absorb
    the next-order analytic background so the w^2 log w coefficient lands
    within a few percent of the closed form.
    """
    _validate_sp(s, p)
    if isinstance(dps, bool) or not isinstance(dps, numbers.Integral) or dps < 15:
        raise DomainError(f"dps must be an integer >= 15, got {dps!r}")
    dps = int(dps)
    if eps_grid is None:
        eps_grid = np.geomspace(1.5e-3, 6e-2, 24)
    eps_grid = sorted(float(e) for e in eps_grid)
    if not (1e-4 < eps_grid[0] and eps_grid[-1] < 1e-1):
        raise DomainError("eps_grid must lie inside (1e-4, 1e-1)")
    if eps_grid[-1] / eps_grid[0] < 4.0:
        raise ConditioningError("eps_grid spans less than a factor 4; fit is "
                                "too ill-conditioned to separate w^2 log w")
    with mp.workdps(dps):
        ws = [mp.mpf(eps) for eps in eps_grid]
        # ascending xi = 1 - w: one walk towards the branch point
        walk = _taylor_walk(s, p, [1 - w for w in reversed(ws)], dps)
        rhs = [st[0] for st in reversed(walk.states)]
        rows = []
        for w in ws:
            lw = mp.log(w)
            rows.append([mp.mpf(1), w, w**2, w**3, w**2 * lw, w**3 * lw])
        amat = mp.matrix(rows)
        bvec = mp.matrix(rhs)
        try:
            coef = mp.qr_solve(amat, bvec)[0]
        except ZeroDivisionError as exc:
            raise ConditioningError("least-squares system singular") from exc
        resid = amat * coef - bvec
        rel = max(abs(resid[i]) / abs(bvec[i]) for i in range(len(rhs)))
        coeffs = tuple(float(coef[i]) for i in range(6))
    return ResonantCoefficients(
        s=s,
        p=p,
        B_fit=coeffs[4],
        coeffs=coeffs,
        max_rel_residual=float(rel),
        steps=walk.steps,
        terms=walk.terms,
        dps=walk.dps,
    )


@lru_cache(maxsize=None)
def _cached_fit(s: int, p: int) -> ResonantCoefficients:
    return resonant_fit(s, p)


# ---------------------------------------------------------------------------
# Discontinuity density across the cut


def disc_density_rho(s: int, p: int, u: float) -> float:
    """rho_p(u) = Im sigma(u + i0) / pi on the cut.

    Orientation follows the edge-positive convention: rho(zeta_c^2) =
    (p/2pi)(s/(s-1))^{2p+1} > 0.  The jump (sigma(u + i0) - sigma(u - i0)) /
    (2 pi i) needs one side only: the walk below the cut is the exact
    complex conjugate of the one above.
    """
    zc2 = float(thresholds(s).zeta_c) ** 2
    if not u > zc2:
        raise DomainError(f"u must exceed zeta_c^2 = {zc2:.6g}")
    return sigma_cont(s, p, u, "above").imag / math.pi


def cut_trace(s, p, xi_nodes, side: str = "above", tol: float = CONTINUATION_TOL):
    """States along the cut at the given xi nodes (all > 1), in the order of
    the nodes.

    Two checked walks (see _continue) follow the detour to xi_0 = 1 +
    DETOUR_OFFSET on the cut, then the real axis inward through the nodes
    below xi_0 and outward through the rest.  Walking back out from near
    the branch point would carry its large high derivatives along: at
    (5, 10) on fig3's grid that path lost 17 of 30 digits.
    """
    nodes = [float(x) for x in xi_nodes]
    if not all(x > 1.0 for x in nodes):
        raise DomainError("cut_trace nodes must satisfy xi > 1")
    zc2 = float(thresholds(s).zeta_c) ** 2
    xi0 = 1.0 + DETOUR_OFFSET
    pts = _waypoints(complex(xi0), side)
    states = {}
    for leg in (sorted({x for x in nodes if x < xi0}, reverse=True),
                sorted({x for x in nodes if x >= xi0})):
        if leg:
            run = _continue(s, p, pts[1:], leg, tol, keep=3)
            states.update((xi, _state(s, p, xi * zc2, side, z, (*pts, xi), run))
                          for xi, z in zip(leg, run.states))
    return [states[xi] for xi in nodes]
