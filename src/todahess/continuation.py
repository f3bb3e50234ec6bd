"""Analytic continuation of the squared-Raney generating functions.

G_p(u) = sum_m R_{s,p}(m)^2 u^m converges for |u| < zeta_c^2 and extends to
the slit plane C \\ [zeta_c^2, inf).  The coefficient ratio is rational in m,
so G_p is a generalized hypergeometric function; after cancelling common
upper/lower parameters the reduced equation has order q_p + 1 and its only
finite singular points are xi = 0, 1 in xi = u / zeta_c^2.  Four regions
cover the slit plane, and one router, _continued, sends each target of
gp_continue and cut_trace to one of them; it is also the one place that
imposes Schwarz symmetry: every target is served at its point in the
closed upper half plane, the cut's upper side standing for its lower one,
and the states of the targets it moved there are conjugated.  The power
series at 0 is summed in one place, _power_series: it gives the values in
the disk |xi| <= SERIES_RADIUS and seeds every walk at +-XI_SEED.  The
two other singular points have local Frobenius bases, written in one form,
_Local: basis functions x^a (w(x) + log v(x)) over shared rows, one power
series per derivative j, in x = -1/xi at infinity and x = tau = xi - 1 at
xi = 1.  Beyond FAR_RADIUS the basis at infinity, read from the theta
polynomials below, is summed with its exact connection coefficients, the
gamma-function products of DLMF 16.8.8 computed once per (s, p)
(_far_table, _far_connection).  Around the branch point, 0 < |xi - 1| <=
ONE_RADIUS outside the disk, the basis at xi = 1 (d - 1 analytic solutions
and one with a log(1 - xi) term) is built in fixed point from exact rows
and matched once per (s, p) to the power series at 0 by the square
Wronskian system at one ordinary point, with no walk (_one_table,
_one_connection); folded with that connection into y = a + log(1 - xi) v,
its rows carry tau^max(j-2, 0) y^(j) / j!, so no power of 1/tau is formed
(_one_rows, _one_local).  One evaluator sums either table (_local_values),
and both climb one ladder of rungs (_ladder): doubles, then extended
precision where the terms cancel, then AccuracyError.  The basis at xi = 1
also gives the walks along the cut their state at the join 1 +
DETOUR_OFFSET in either number type (_one_join) and the resonant fit its
values.  Elsewhere out to |xi| = FAR_RADIUS, Taylor steps continue the
solution: a target off the cut along the route rule _waypoints, and the
cut outward from the join.  Their recurrence is read straight from the
reduced equation in theta form, P(theta) y = xi R(theta) y (_theta_polys,
_row), whose rows at centre 1 also give the basis at xi = 1.  Two walks
with different step lengths, in complex doubles first and, if they
disagree, in fixed-point integers at extended precision, bound the error
(transport); mpmath numbers carry the inputs and results of the extended
walks and sums and the resonant fit's solve.

The scalar Gram weights are recovered by the Euler operator
sigma = (1/p) (p + s u d/du)^2 G_p, and the branch-cut jump of sigma gives
the discontinuity density with positive edge value (p/2pi) (s/(s-1))^{2p+1}.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, islice
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
from .raney import _validate_sp, raney_step, zeta_c_value

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
    s, p = _validate_sp(s, p)
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
    s, p = _validate_sp(s, p)
    zc2 = zeta_c_value(s) ** 2
    if not cmath.isfinite(complex(u)):
        raise DomainError(f"u must be finite, got {u}")
    if abs(complex(u) / zc2) > SERIES_RADIUS:
        raise DivergenceError(f"|u| = {abs(u):.3g} beyond {SERIES_RADIUS} * zeta_c^2 = "
                              f"{SERIES_RADIUS * zc2:.3g}; use gp_continue off the disk")
    g = gp_continue(s, p, u).value
    return g.real if complex(u).imag == 0.0 else g


# ---------------------------------------------------------------------------
# Reduced ODE in theta form


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


@lru_cache(maxsize=None)
def _theta_polys(s: int, p: int) -> tuple:
    """(P, R): the reduced equation P(theta) y = xi R(theta) y, theta =
    xi d/dxi, with P = theta prod_b (theta + b - 1) over the reduced lower
    parameters b and R = prod_a (theta + a) over the reduced upper ones a.

    Both are monic of degree d, the order of the equation; they are
    returned as tuples of integer coefficients, constant term first, scaled
    by den, the lcm of their denominators, so each leading coefficient is
    den.
    """
    hp = hyp_params(s, p)
    if len(hp.reduced_lower) != len(hp.reduced_upper) - 1:
        raise ArithmeticError("reduced parameter lists are unbalanced")
    p_poly = [Fraction(0), Fraction(1)]  # theta
    for b in hp.reduced_lower:
        p_poly = _poly_mul(p_poly, [b - 1, Fraction(1)])
    r_poly = [Fraction(1)]
    for a in hp.reduced_upper:
        r_poly = _poly_mul(r_poly, [a, Fraction(1)])
    if p_poly[-1] != 1 or r_poly[-1] != 1:
        raise ArithmeticError("theta polynomials are not monic")
    den = math.lcm(*(x.denominator for x in p_poly + r_poly))
    return tuple(int(den * x) for x in p_poly), tuple(int(den * x) for x in r_poly)


# ---------------------------------------------------------------------------
# Taylor steps


#: decimal digits the Taylor-step engine carries above the caller's dps
TAYLOR_GUARD_DPS = 10
#: bits that fixed-point points and scale factors carry above the working bits
_POINT_GUARD_BITS = 64


class _TaylorWalk(NamedTuple):
    states: list  # [y, y', ..., y^(d-1)] at each target
    steps: int  # expansions from the recurrence (the seed series not counted)
    terms: int  # Taylor coefficients computed, seed series included
    dps: "int | None"  # working precision, decimal digits; None for doubles


class _Arith(NamedTuple):
    """Number type of the Taylor engine: complex doubles (bits None) or
    fixed-point Python integers with bits working bits."""
    digits: int  # decimal digits carried
    tol: float  # relative tail bound at which an expansion stops
    bits: "int | None"  # working bits of the fixed-point mantissas

    @property
    def eps(self) -> float:
        """Unit roundoff: of doubles, or 10^-digits for mpmath numbers."""
        return 2.0**-53 if self.bits is None else 10.0**-self.digits


def _arith(dps) -> _Arith:
    """Python complex doubles for dps=None, else fixed-point integers for a
    caller's dps, carried at dps + TAYLOR_GUARD_DPS digits (at most 250):
    the number types of the walks' rungs and of the local bases' sums,
    whose extended rows are mantissas at 2^-f, f = bits + _POINT_GUARD_BITS
    (_Local)."""
    if dps is None:
        return _Arith(16, _SERIES_TOL, None)
    if dps > 250:
        # tol and the terms compared with it must stay normal doubles
        raise DomainError(f"dps = {dps} exceeds 250, the range of the tail check")
    digits = dps + TAYLOR_GUARD_DPS
    # the bits of an mpmath number of that many digits
    return _Arith(digits, 10.0 ** (-(dps + 6)), round((digits + 1) * math.log2(10)))


#: (s, p, ar.bits) -> the power-series coefficients a_m drawn so far
_SEED_COEFFS: dict = {}


def _seed_coeffs(s: int, p: int, ar: _Arith):
    """Power-series coefficients a_m of y(xi) = G_p(zeta_c^2 xi) at 0 in the
    number type of ar.  In doubles each exact step ratio num/den of
    _coeff_step is rounded once, so nothing overflows; in fixed point a_m is
    the mantissa of the exact floor chain a_{m+1} = a_m num // den from
    a_0 = 2^bits.  The coefficients are kept per (s, p) and number type, so
    later series reuse them."""
    coeffs = _SEED_COEFFS.setdefault(
        (s, p, ar.bits), [complex(1) if ar.bits is None else 1 << ar.bits])
    for m in count():
        if m == len(coeffs):
            num, den = _coeff_step(s, p, m - 1)
            a = coeffs[-1]
            coeffs.append(a * (num / den) if ar.bits is None else a * num // den)
        yield coeffs[m]


def _theta_row(poly: tuple, n: int) -> list:
    """[u_0, ..., u_deg] with [poly(T)]_{n,n+r} = u_r (n+r)!/n!, where
    (T b)_m = (m+1) b_{m+1} + m b_m is theta acting on Taylor coefficients
    (see _recurrence_row).  By Horner's rule in T, which is upper
    bidiagonal: in this factored form a row times T reads u_r <- (n+r) u_r +
    u_{r-1}.  The same u give [poly(T - 1)]_{n+1,n+1+r} = u_r (n+1+r)!/(n+1)!,
    since T - 1 has the diagonal n + r in row n + 1."""
    u = [poly[-1]]
    for c in poly[-2::-1]:
        u.append(u[-1])
        for r in range(len(u) - 2, 0, -1):
            u[r] = (n + r) * u[r] + u[r - 1]
        u[0] = n * u[0] + c
    return u


class _Poly:
    """A polynomial in N with integer coefficients, constant term first.
    Passed to _row in place of the integer N, it makes every entry of the
    row a _Poly."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = tuple(c)

    def __add__(self, other):
        a, b = sorted((self.c, other.c if isinstance(other, _Poly) else (other,)), key=len)
        return _Poly(map(operator.add, b, (*a, *[0] * (len(b) - len(a)))))

    __radd__ = __add__

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        return _Poly(_poly_mul(self.c, other.c if isinstance(other, _Poly) else (other,)))

    __rmul__ = __mul__


def _row(s: int, p: int, big_n) -> tuple:
    """(alpha, beta, lead): the integer recurrence of row N = big_n.

    At a centre c write y = sum_n b_n tau^n, b_n = a_n c^n for the Taylor
    coefficients a_n at c, and tau = (xi - c)/c.  Then theta = (1 + tau)
    d/dtau acts on the b_n as (T b)_m = (m+1) b_{m+1} + m b_m, whatever c
    is, and xi = c (1 + tau); the coefficient of tau^N in the reduced
    equation P(theta) y = xi R(theta) y of _theta_polys reads

        sum_{r=-1}^{d} b_{N+r} (alpha_r(N) - c beta_r(N)) = 0,
        alpha_r(N) = [P(T)]_{N,N+r},
        beta_r(N) = [R(T)]_{N,N+r} + [R(T)]_{N-1,N+r},

    a (d+2)-term recurrence that does not depend on the centre, with
    alpha_d = beta_d = den lead, lead = (N+d)!/N!, and alpha_{-1} = 0.
    alpha holds alpha_r(N) for r < d and beta holds beta_r(N) for r from -1
    (0 when N = 0, where b_{-1} = 0) to d - 1, integers since P and R carry
    the factor den.  As (1 + tau) theta = (theta - 1) (1 + tau), beta_r(N)
    is also [R(T - 1)]_{N,N+r} + [R(T - 1)]_{N,N+r+1}, so each row takes
    one Horner pass per polynomial (_theta_row).

    The entries are polynomials in N, built by + and * alone, so big_n may
    also be the _Poly N (the rows at centre 1, _one_polys); beta then
    always holds the r = -1 entry.  Uncached: _recurrence_row keeps the integer
    rows that the fixed-point rung reads, and _recurrence_coeffs keeps its
    own rows in doubles.
    """
    p_poly, r_poly = _theta_polys(s, p)
    d = len(p_poly) - 1
    fall = [1]  # (N+r)!/N!
    for r in range(1, d + 1):
        fall.append(fall[-1] * (big_n + r))
    up, ur = _theta_row(p_poly, big_n), _theta_row(r_poly, big_n - 1)
    alpha = tuple(map(operator.mul, fall[:d], up))
    beta = tuple(fall[r] * (ur[r] + (big_n + r + 1) * ur[r + 1]) for r in range(d))
    return alpha, (ur[0], *beta) if big_n else beta, fall[d]


#: the integer rows of _row, kept per (s, p, N) for the fixed-point rung
_recurrence_row = lru_cache(maxsize=None)(_row)


def _fdot(u: list, v: list):
    """sum_k u_k v_k, summed left to right."""
    return sum(map(operator.mul, u, v))


#: (s, p) -> the rows of _recurrence_row drawn so far, rounded to doubles
_FLOAT_ROWS: dict = {}


def _recurrence_coeffs(s: int, p: int, centre: complex, head):
    """Scaled Taylor coefficients b_n = a_n centre^n of y at centre, in
    complex doubles, from the recurrence of _recurrence_row; head holds
    b_0..b_{d-1}.  Row N gives b_{N+d} = (centre beta . b - alpha . b) /
    (den lead (1 - centre)), for den the leading coefficient of
    _theta_polys.

    The integer rows of _row are rounded once to doubles and kept per (s,
    p), grown as far as some expansion has drawn: int * complex rounds an
    integer the same way, so the coefficients are those of the exact rows.
    The integers themselves are not kept.  A row beyond the double range
    raises OverflowError when it is first drawn, and transport takes the
    fixed-point rung, which keeps the integers (_recurrence_row).
    """
    b = list(head)
    yield from b
    inv = 1 / (_theta_polys(s, p)[0][-1] * (1 - centre))
    rows = _FLOAT_ROWS.setdefault((s, p), [])
    for big_n in count():
        if big_n == len(rows):
            alpha, beta, lead = _row(s, p, big_n)
            rows.append(([*map(float, alpha)], [*map(float, beta)], float(lead)))
        alpha, beta, lead = rows[big_n]
        acc = centre * _fdot(beta, b[max(big_n - 1, 0):]) - _fdot(alpha, b[big_n:])
        b.append(acc * inv / lead)
        yield b[-1]


@lru_cache(maxsize=None)
def _falling_columns(n: int, d: int) -> tuple:
    """cols[i][m] = m!/(m-i)! for m < n and i < d, as the double product m
    (m-1) ... (m-i+1) rounded after each factor, the way _expand's check
    forms it; _expand asks for n rounded up to a power of two."""
    cols = [[] for _ in range(d)]
    for m in range(n):
        ff = 1.0
        for i, col in enumerate(cols):
            col.append(ff)
            ff *= m - i
    return tuple(map(tuple, cols))


def _expand(coeffs, tau_far, ratio: float, d: int, ar: _Arith) -> list:
    """Draw Taylor coefficients b_0, b_1, ... from coeffs until every
    component sum_n b_n n!/(n-i)! tau^(n-i), i < d, has a geometric tail at
    tau_far below ar.tol relative to its partial sum.  The term ratio of
    component i is taken as ratio (n+1)/(n+1-i), the ratio of consecutive
    terms of a geometric series differentiated i times; the check itself
    runs in complex doubles, on the coefficients themselves or, in fixed
    point, on their values in doubles.  Every expansion of y stops by this
    rule: the power series at 0 (_power_series) and each Taylor step of the
    walks.

    No component passes before the value's own (i = 0) does, so until then
    only the value's partial sum is carried.  When it passes, the
    derivative sums are formed from the terms so far, left to right with the
    products n!/(n-i)! of _falling_columns, which are the sums the term by
    term check would hold; from then on every component is checked at each
    term.  So the coefficients returned and the stop index are those of the
    check on all components at every term.

    DivergenceError past the term budget: ratio <= 1/2 needs about 3.3
    terms per digit, plus the growth of n!/(n-d)!, and the budget is three
    times that; a ratio in (1/2, 1) needs log(1/2)/log(ratio) times more.
    """
    tol = ar.tol
    budget = int((10 * ar.digits + 20 * d) * math.log(0.5) / math.log(max(ratio, 0.5)))
    out, terms, sums = [], [], None
    value, pw = 0j, 1
    for n, b in enumerate(coeffs):
        out.append(b)
        t = complex(b * pw)
        pw *= tau_far
        if sums is None:
            terms.append(t)
            # component i = 0 exactly as the check on all components forms it
            value += 1.0 * t
            q = ratio * (n + 1) / (n + 1)
            done = (n >= 4 * d and q < 1.0
                    and abs(t) * q / (1.0 - q) <= tol * abs(value))
            if done:
                cols = _falling_columns(1 << n.bit_length(), d)
                sums = [value] + [_fdot(cols[i][i:], terms[i:]) for i in range(1, d)]
                for i in range(1, d):
                    ff, q = cols[i][n], ratio * (n + 1) / (n + 1 - i)
                    done = (done and q < 1.0
                            and abs(t) * ff * q / (1.0 - q) <= tol * abs(sums[i]))
        else:
            done = True
            ff = 1.0  # n!/(n-i)!
            for i in range(d):
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
    (C(m, i) for m = d..n-1), i = 0..d-1; the shifts ask for n rounded up to
    a power of two, so few tables serve every expansion length."""
    return (tuple(tuple(math.comb(m, i) for m in range(i, d)) for i in range(d)),
            tuple(tuple(math.comb(m, i) for m in range(d, n)) for i in range(d)))


def _shift(coeffs: list, tau, d: int) -> list:
    """P^(i)(tau) / i! = sum_n C(n, i) coeffs[n] tau^(n-i), i < d, for
    P(tau) = sum_n coeffs[n] tau^n with at least d coefficients, in complex
    doubles.

    The terms n < d are summed directly and tau^(d-i) is factored out of
    the rest, so nothing divides by a power of tau that may underflow.
    """
    pw = [tau**i for i in range(d + 1)]
    w, x = [], 1
    for b in coeffs[d:]:
        w.append(b * x)
        x *= tau
    # _fdot stops at the shorter operand, so longer binomial rows serve too
    head, tail = _binomial_rows(1 << (len(coeffs) - 1).bit_length(), d)
    return [_fdot(head[i], [b * y for b, y in zip(coeffs[i:d], pw)])
            + _fdot(tail[i], w) * pw[d - i] for i in range(d)]


# Fixed-point numbers.  A point (a centre or a target) is a pair (re, im) of
# integers at the absolute scale 2^-f, f = bits + _POINT_GUARD_BITS; a
# scale factor is a triple (re, im, e) with value (re + i im) 2^-e rounded to
# about f bits, so its powers keep their relative precision.  The
# coefficients of one expansion are pairs of integer mantissas that share
# one exponent.  Every rounding floors, so a path and its mirror image
# give conjugates only up to rounding; _continued walks every route in the
# upper half plane and conjugates, so conjugate targets get exact conjugates.


def _shl(x: int, n: int) -> int:
    """x 2^n, floored."""
    return x << n if n >= 0 else x >> -n


def _fx_point(z, f: int) -> tuple:
    """z (a float, complex or mpmath number) as a point at 2^-f."""
    z = mp.mpc(z)
    return int(mp.ldexp(z.real, f)), int(mp.ldexp(z.imag, f))


def _fl(re: int, im: int, e: int, f: int) -> tuple:
    """The scale factor (re + i im) 2^-e, rounded to f bits."""
    n = f - max(re.bit_length(), im.bit_length())
    return _shl(re, n), _shl(im, n), e + n


def _fl_mul(a: tuple, b: tuple, f: int) -> tuple:
    return _fl(a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0], a[2] + b[2], f)


def _fl_div(a: tuple, b: tuple, f: int) -> tuple:
    """a / b as a scale factor, for points a and b."""
    n2 = b[0] * b[0] + b[1] * b[1]
    return _fl(((a[0] * b[0] + a[1] * b[1]) << 2 * f) // n2,
               ((a[1] * b[0] - a[0] * b[1]) << 2 * f) // n2, 2 * f, f)


def _fl_powers(z: tuple, n: int, f: int) -> list:
    """[z^0, ..., z^(n-1)] for the scale factor z."""
    out = [(1, 0, 0)]
    for _ in range(n - 1):
        out.append(_fl_mul(out[-1], z, f))
    return out


class _FxState(NamedTuple):
    """y^(i)(x) / i! = (re_i + i im_i) 2^-exp / g^i at a point x, i < d,
    for (re_i, im_i) = mants[i] and the scale g = centre 2^-k of the step
    that reached x."""
    mants: list
    exp: int
    centre: tuple  # a point
    k: int


def _fx_head(st: _FxState, centre: tuple, k: int, ar: _Arith, f: int) -> tuple:
    """(mantissas, exp) of b_i = y^(i)(centre) / i! g^i, i < d, for the new
    scale g = centre 2^-k, from the state st at centre.  The shared exponent
    gives the smallest nonzero b_i ar.bits bits: the mantissa width is the
    working bits plus the exponent range of the head, capped at twice the
    working bits."""
    q = _fl_div(centre, st.centre, f)
    raw = [(re * x[0] - im * x[1], re * x[1] + im * x[0], x[2] + (k - st.k) * i)
           for i, ((re, im), x) in enumerate(zip(st.mants, _fl_powers(q, len(st.mants), f)))]
    size = [max(re.bit_length(), im.bit_length()) - e for re, im, e in raw if re or im]
    top = max(size)  # log2 max |b_i| + st.exp, to a bit
    exp = st.exp + ar.bits + min(top - min(size), ar.bits) - top
    return [(_shl(re, exp - st.exp - e), _shl(im, exp - st.exp - e)) for re, im, e in raw], exp


def _fx_recurrence(s: int, p: int, centre: tuple, k: int, re: list, im: list,
                   exp: int, f: int):
    """Taylor coefficients b'_n = b_n 2^-kn of y(centre + centre 2^-k sigma)
    in sigma, from the recurrence of _recurrence_row, as mantissas at 2^-exp:
    re and im hold those of b'_0..b'_{d-1} and gain one pair per coefficient
    drawn.  Yields the coefficients in complex doubles, for _expand.

    Row N reads sum_r b'_{N+r} 2^(k(r+1)) (alpha_r - centre beta_r) = 0
    times 2^-(k(d+1)): the window of mantissas is lifted by shifts, the
    integer rows go straight into the dot products, and each coefficient is
    rounded once; den is the leading coefficient of _theta_polys.
    """
    d = len(re)
    one = 1 << f
    cr, ci = centre
    ir, ii, ie = _fl_div((one, 0), (one - cr, -ci), f)  # 1 / (1 - centre)
    lifts = [k * j for j in range(d + 1)]
    shift = f + ie + k * (d + 1)
    den = _theta_polys(s, p)[0][-1]

    def approx(mr, mi):
        n = max(mr.bit_length(), mi.bit_length(), 960) - 960
        return complex(math.ldexp(mr >> n, n - exp), math.ldexp(mi >> n, n - exp))

    for mr, mi in zip(re, im):
        yield approx(mr, mi)
    for big_n in count():
        alpha, beta, lead = _recurrence_row(s, p, big_n)
        lo, lift = (big_n - 1, lifts) if big_n else (0, lifts[1:])
        wr = list(map(operator.lshift, re[lo:], lift))
        wi = list(map(operator.lshift, im[lo:], lift))
        xr, xi = _fdot(beta, wr), _fdot(beta, wi)
        yr, yi = _fdot(alpha, wr[-d:]), _fdot(alpha, wi[-d:])
        zr = cr * xr - ci * xi - (yr << f)
        zi = cr * xi + ci * xr - (yi << f)
        lead *= den
        mr = ((zr * ir - zi * ii) >> shift) // lead
        mi = ((zr * ii + zi * ir) >> shift) // lead
        re.append(mr)
        im.append(mi)
        yield approx(mr, mi)


def _fx_shift(re: list, im: list, sigma: tuple, d: int, f: int) -> list:
    """Mantissas of P^(i)(sigma) / i! = sum_n C(n, i) m_n sigma^(n-i), i < d,
    at the exponent of the mantissas m_n = (re[n], im[n]) of P's
    coefficients, for sigma a point at 2^-f; the fixed-point _shift.

    The binomials multiply the rounding of each term while the terms
    themselves fall with |sigma| <= 1/2, so the sums run g bits finer, for g
    the size of n C(n, d) plus the bits by which the largest mantissa
    exceeds f: the powers of sigma are products with those mantissas.
    """
    n = len(re)
    top = max(max(map(int.bit_length, re)), max(map(int.bit_length, im)))
    g = (n * math.comb(n, d)).bit_length() + max(top - f, 0)
    fg = f + g
    sr, si = sigma
    pw = [(1 << fg, 0)]  # sigma^j at 2^-(f+g)
    for _ in range(d):
        xr, xi = pw[-1]
        pw.append(((xr * sr - xi * si) >> f, (xr * si + xi * sr) >> f))
    wr, wi = [], []  # m_n sigma^(n-d), g bits finer than m
    xr, xi = pw[0]
    for mr, mi in zip(re[d:], im[d:]):
        wr.append((mr * xr - mi * xi) >> f)
        wi.append((mr * xi + mi * xr) >> f)
        xr, xi = (xr * sr - xi * si) >> f, (xr * si + xi * sr) >> f
    head, tail = _binomial_rows(1 << (n - 1).bit_length(), d)
    out = []
    for i in range(d):
        hr = hi = 0
        for c, mr, mi, (xr, xi) in zip(head[i], re[i:d], im[i:d], pw):
            hr += c * (mr * xr - mi * xi)
            hi += c * (mr * xi + mi * xr)
        tr, ti = _fdot(tail[i], wr), _fdot(tail[i], wi)
        xr, xi = pw[d - i]
        out.append(((hr + ((tr * xr - ti * xi) >> g)) >> fg,
                    (hi + ((tr * xi + ti * xr) >> g)) >> fg))
    return out


def _power_series(s: int, p: int, xi, d: int, ar: _Arith):
    """(y^(i)(xi) / i! for i < d, terms summed) of y(xi) = G_p(zeta_c^2 xi)
    from its power series at 0, |xi| < 1, in ar's number type: the one sum of
    G_p's series, which seeds every walk and gives the values in the disk.
    In fixed point xi is a point and the values come as an _FxState of
    scale 1, at the exponent bits of the seed chain."""
    if ar.bits is None:
        coeffs = _expand(_seed_coeffs(s, p, ar), xi, float(abs(xi)), d, ar)
        return _shift(coeffs, xi, d), len(coeffs)
    f = ar.bits + _POINT_GUARD_BITS
    x = complex(math.ldexp(xi[0], -f), math.ldexp(xi[1], -f))
    n = len(_expand((math.ldexp(a, -ar.bits) for a in _seed_coeffs(s, p, ar)),
                    x, abs(x), d, ar))
    re = list(islice(_seed_coeffs(s, p, ar), n))
    mants = _fx_shift(re, [0] * n, xi, d, f)
    return _FxState(mants, ar.bits, (1 << f, 0), 0), n


def _double_step(s, p, d, ar, taylor, centre, ends, far, rho):
    """One Taylor step in complex doubles: y re-expanded at centre from the
    Taylor coefficients taylor = [y^(i)(centre) / i!] in tau = (xi -
    centre) / centre, then the same at each point of ends, at most far from
    centre, which is rho from the nearer singular point; and the number of
    coefficients drawn."""
    head = [taylor[i] * centre**i for i in range(d)]
    coeffs = _expand(_recurrence_coeffs(s, p, centre, head), far / abs(centre),
                     far / rho, d, ar)
    scale = [centre**-i for i in range(d)]
    return [[x * g for x, g in zip(_shift(coeffs, (t - centre) / centre, d), scale)]
            for t in ends], len(coeffs)


def _fx_step(s, p, d, ar, st, centre, ends, far, rho):
    """_double_step in fixed point, for the state st at the point centre:
    y is expanded in sigma = tau 2^k, for the k >= 0 with 2^-k in [x, 2x),
    x = max(2 tau_far, rho / 4|centre|) and tau_far = far / |centre|.  So
    |sigma| <= 1/2 at every end, the coefficients stay O(1), and the
    rescaling between tau and sigma is a shift; the rho floor keeps the
    head's exponent range small when every end lies close to the centre."""
    f = ar.bits + _POINT_GUARD_BITS
    radius = math.hypot(*centre) / (1 << f)
    k = max(-math.frexp(max(2 * far, rho / 4) / radius)[1], 0)
    mants, exp = _fx_head(st, centre, k, ar, f)
    re, im = [m[0] for m in mants], [m[1] for m in mants]
    n = len(_expand(_fx_recurrence(s, p, centre, k, re, im, exp, f),
                    math.ldexp(far / radius, k), far / rho, d, ar))
    out = []
    for t in ends:
        sr, si, se = _fl_div((t[0] - centre[0], t[1] - centre[1]), centre, f)
        sigma = _shl(sr, f + k - se), _shl(si, f + k - se)
        out.append(_FxState(_fx_shift(re, im, sigma, d, f), exp, centre, k))
    return out, n


def _fx_values(st: _FxState, f: int) -> list:
    """[y, y', ..., y^(d-1)] of the state st as mpc numbers at the working
    precision; on a real path every imaginary part is exactly zero."""
    out = []
    inv = _fl_powers(_fl_div((1 << f, 0), st.centre, f), len(st.mants), f)
    for i, ((re, im), x) in enumerate(zip(st.mants, inv)):
        fac, e = math.factorial(i), st.exp + x[2] - st.k * i
        out.append(mp.mpc(mp.mpf(((re * x[0] - im * x[1]) * fac, -e)),
                          mp.mpf(((re * x[1] + im * x[0]) * fac, -e))))
    return out


def _segment_distance(a: complex, b: complex, z: complex) -> float:
    """Distance from z to the segment [a, b]."""
    v = b - a
    # complex division scales by v: |v|^2 would under- or overflow
    lam = 0.0 if v == 0 else ((z - a) / v).real
    return abs(a + min(max(lam, 0.0), 1.0) * v - z)


class _Walked(NamedTuple):
    """A walk up to its last centre, in the number type of its _Arith."""
    states: list  # at each target passed: [y^(i)(xi) / i!] in doubles, or an _FxState
    state: object  # the same at the last centre, where the next step expands
    centre: complex
    cx: object  # centre in the number type: a complex double or a point
    steps: int
    terms: int


def _seeded(s: int, p: int, d: int, ar: _Arith, start) -> _Walked:
    """A walk that has not stepped yet: the state at start from the power
    series at 0."""
    cx = complex(start) if ar.bits is None else _fx_point(start, ar.bits + _POINT_GUARD_BITS)
    state, terms = _power_series(s, p, cx, d, ar)
    return _Walked([], state, complex(start), cx, 0, terms)


def _walk_on(s: int, p: int, d: int, ar: _Arith, walked: _Walked, targets,
             reach: int) -> _Walked:
    """walked carried on through targets by the steps that _taylor_walk
    describes."""
    pts = [complex(t) for t in targets]
    if ar.bits is None:
        step, ends = _double_step, pts
    else:
        step, ends = _fx_step, [_fx_point(t, ar.bits + _POINT_GUARD_BITS) for t in targets]
    states = list(walked.states)
    _, state, centre, cx, steps, terms = walked
    k = 0
    while k < len(pts):
        rho = min(abs(centre), abs(1 - centre))
        served = []
        while k < len(pts) and abs(pts[k] - centre) <= rho / reach:
            served.append(k)
            k += 1
        if served:
            nxt = pts[served[-1]]
            far = max(abs(pts[j] - centre) for j in served)
            at = [ends[j] for j in served]
        else:
            nxt = centre + rho / reach * (pts[k] - centre) / abs(pts[k] - centre)
            if not cmath.isfinite(nxt):
                raise PathError(f"the step from xi = {centre:.3g} towards "
                                f"{pts[k]:.3g} overflows doubles; the walk "
                                "cannot reach targets this far out")
            far = abs(nxt - centre)
            at = [nxt if ar.bits is None else _fx_point(nxt, ar.bits + _POINT_GUARD_BITS)]
        reached, n = step(s, p, d, ar, state, cx, at, far, rho)
        steps += 1
        terms += n
        if served:
            states.extend(reached)
        state, centre, cx = reached[-1], nxt, at[-1]
    return _Walked(states, state, centre, cx, steps, terms)


def _taylor_walk(s: int, p: int, path, dps, reach: int = 2, join=None) -> _TaylorWalk:
    """Carry (y, y', ..., y^(d-1)) of y(xi) = G_p(zeta_c^2 xi) from path[0]
    through the targets path[1:], in order: in fixed-point integers at dps +
    TAYLOR_GUARD_DPS digits, returned as mpmath numbers, or in Python complex
    doubles for dps=None.

    The path is the polygon path[0] -> path[1] -> ...: it starts in the
    disk of the power series at 0, which gives the seed state (a route
    starts at +-XI_SEED), may be complex, and must keep 1e-9 away from
    xi = 0 and 1.  Each step re-expands y at the current centre c from the
    recurrence of _recurrence_row and evaluates it at every following
    target within rho/reach of c, where rho = min(|c|, |1 - c|) is the
    distance to the nearer singular point.  The next centre is the last of
    those targets or, if there is none, the point rho/reach further along
    the path; these choices are made in doubles in either number type.  Each expansion
    stops once its geometric tail is below 10^-(dps+6) relative, or
    _SERIES_TOL in doubles (see _expand); dps is at most 250.  Non-finite
    targets raise DomainError, and a step point that leaves the double
    range (targets beyond about |xi| = 1e154) raises PathError.

    The join state of the basis at xi = 1 in the number type of dps
    (_one_join) may be passed as join, for a path [1, 1 + DETOUR_OFFSET,
    ...]: the walk then continues from it, with no steps before it, and the
    segment from 1 is not checked.
    """
    ar = _arith(dps)
    d = len(_theta_polys(s, p)[0]) - 1
    corners = [complex(t) for t in path]
    if not all(cmath.isfinite(z) for z in corners):
        raise DomainError(f"continuation targets must be finite, got {path!r}")
    skip = join is not None
    for a, b in zip(corners[skip:], corners[skip + 1:]):
        if min(_segment_distance(a, b, z) for z in (0j, 1 + 0j)) < 1e-9:
            raise PathError(f"segment {a} -> {b} passes within 1e-9 of a "
                            "singular point, 0 or 1")
    with nullcontext() if dps is None else mp.workdps(ar.digits):
        walked = join if skip else _seeded(s, p, d, ar, path[0])
        walked = _walk_on(s, p, d, ar, walked, path[1 + skip:], reach)
        if dps is None:
            fact = [math.factorial(i) for i in range(d)]
            states = [[x * g for x, g in zip(st, fact)] for st in walked.states]
        else:
            f = ar.bits + _POINT_GUARD_BITS
            states = [_fx_values(st, f) for st in walked.states]
    return _TaylorWalk(states, walked.steps, walked.terms,
                       None if dps is None else ar.digits)


# ---------------------------------------------------------------------------
# Continuation along detour paths


#: caller's digits of the fixed-point walks, used when the double walks
#: disagree, and of the expansion at infinity where the doubles cancel
_MP_RUNG_DPS = 20


class _Continued(NamedTuple):
    states: list  # complex arrays of kept xi-derivatives, one per node
    dps: "int | None"  # working digits of the accepted walks; None for doubles
    steps: int  # Taylor expansions of the returned walk
    rel_est: float  # largest relative disagreement of the accepted walks


def transport(s: int, p: int, path, nodes, tol: float = CONTINUATION_TOL,
              keep=None) -> _Continued:
    """Carry y(xi) = G_p(zeta_c^2 xi) from path[0] along the corners path
    and on through nodes, the one checked walk behind gp_continue and
    cut_trace.  The _Continued holds (y, y', ...) at each node, the first
    keep components (all d for None), within tol relative, and the walk's
    diagnostics.  path starts at +XI_SEED or -XI_SEED, the seed points of
    every route, or is [1, 1 + DETOUR_OFFSET], and nodes is not empty, or
    PathError.  It walks the path it is given, on either side of the axis;
    _continued gives it the routes of the upper half plane only.

    Two walks serve the targets within rho/2 and rho/3 of each centre.  The
    largest relative disagreement between them of any returned component
    estimates the error, measured to be low by up to 2x, so it must not
    exceed tol/4.  The walks run in complex doubles, and again at
    _MP_RUNG_DPS digits if the doubles disagree or exhaust their term
    budget; the rho/3 walk's states are returned, and there the estimate
    and the test against tol/4 add 2^-53 for their rounding to doubles.
    Raises AccuracyError when the fixed-point walks disagree too.

    The path [1, 1 + DETOUR_OFFSET] starts the walks of each rung at the
    join state of the basis at xi = 1 (_one_join) in the rung's number
    type, above the cut, and the rho/3 walk's join estimate is added to the
    estimate.  In doubles the rho/2 walk starts from the basis summed in
    doubles, so the gap also holds how the steps carry the join's error,
    which two walks from one state would not show.
    """
    s, p = _validate_sp(s, p)
    start = complex(path[0]) if len(path) else None
    if len(nodes) == 0 or start not in (XI_SEED, -XI_SEED, 1.0):
        raise PathError(f"paths must go from xi = +-{XI_SEED}, or 1, to at least one node")
    if start == 1.0 and [*map(complex, path)] != [1.0, 1.0 + DETOUR_OFFSET]:
        raise PathError(f"the path from the basis at xi = 1 is [1, {1.0 + DETOUR_OFFSET}]")
    targets = [complex(t) for t in (*path, *nodes)]
    why = ""
    for dps in (None, _MP_RUNG_DPS):
        joins = ([_one_join(s, p, dps, dps is None and reach == 2) for reach in (2, 3)]
                 if start == 1.0 else [(None, 0.0)] * 2)
        extra = joins[1][1]
        if extra > tol / 4:
            why = f"the basis's join state is {extra:.1e} off"
            continue
        try:
            coarse, fine = [_taylor_walk(s, p, targets, dps, reach, join)
                            for reach, (join, _) in zip((2, 3), joins)]
        except (DivergenceError, OverflowError) as exc:  # doubles may overflow
            why = str(exc)
            continue
        kept = [(a[:keep], b[:keep]) for a, b in
                zip(coarse.states[len(path) - 1:], fine.states[len(path) - 1:])]
        gaps = [float(abs(x - y) / max(abs(y), 1e-300))
                for a, b in kept for x, y in zip(a, b)]
        rounding = 0.0 if dps is None else 2.0**-53
        if all(g + extra + rounding <= tol / 4 for g in gaps):
            states = [np.array([complex(x) for x in b]) for _, b in kept]
            return _Continued(states, fine.dps, fine.steps,
                              max(gaps, default=0.0) + extra + rounding)
        why = f"the walks at rho/2 and rho/3 differ by {max(gaps):.1e} relative"
    raise AccuracyError(
        f"continuation of G_p for (s, p) = ({s}, {p}) misses tol = {tol:.1e} "
        f"at {_arith(_MP_RUNG_DPS).digits} digits: {why}"
    )


def _waypoints(xi_t: complex) -> list:
    """Corners of the route to xi_t in the closed upper half plane, the one
    rule that picks a walk's path; a real xi_t >= 1 stands for the cut's
    upper side.  A real target below 1 walks the real axis from +-XI_SEED
    on its side of 0, so G_p comes out exactly real, and one on the cut
    walks it from 1 + h, reached by the detour XI_SEED -> XI_SEED + ih -> 1
    + h + ih: the router starts the cut from the basis's join state at 1 +
    h instead, and the tests' extended walks take this route as the
    oracle.  A non-real target takes the detour XI_SEED -> XI_SEED + ih
    -> Re xi_t + ih -> xi_t.  h = DETOUR_OFFSET."""
    re, im = xi_t.real, xi_t.imag
    if im == 0.0 and re < 1.0:
        pts = [complex(math.copysign(XI_SEED, re)), xi_t]
    else:
        h = DETOUR_OFFSET
        # leave the detour over Re xi_t, or over 1 + DETOUR_OFFSET to join
        # the cut; off the cut the corner complex(x, im) is xi_t itself
        x = re if im else 1.0 + DETOUR_OFFSET
        pts = [complex(XI_SEED), complex(XI_SEED, h), complex(x, h), complex(x, im), xi_t]
    return [pt for i, pt in enumerate(pts) if i == 0 or pt != pts[i - 1]]


# ---------------------------------------------------------------------------
# Local expansions at xi = infinity and xi = 1


class _Local(NamedTuple):
    """A local basis at centre (infinity or 1) in x = -1/xi or tau = xi - 1:
    function k is x^a (w + log v) for funcs[k] = (a, column of w, column of
    v or None), log being log x at infinity and log(1 - xi) at 1; rows[n,
    col, j] is the x^n coefficient of a column's j-th derivative over j!
    times xi^j at infinity, tau^max(j-2, 0) at 1; y = sum_k coeffs[k] phi_k.
    Floats, or for an extended rung integer mantissas at 2^-f."""
    centre: complex
    funcs: tuple
    rows: "np.ndarray"  # [n, col, j]
    sizes: "np.ndarray"  # |rows| as floats
    coeffs: object
    amax: float  # the largest exponent
    radius: float  # the |x| that the stop rule drew the rows for
    eps: float  # unit roundoff of the number type
    f: "int | None"  # the scale of fixed-point rows; None for floats


def _local_basis(tab: _Local, xis: list) -> tuple:
    """(b, bb, x, log): b[i, k, j] is row j of function k at xi = xis[i] in
    the closed upper half plane, xi > 1 (xi > 0 at infinity) standing for
    xi + i0, with log(1 - xi) and log x = -log(-xi) principal, so both bases
    are cut where G_p is; bb[0] >= |b| from the absolute terms, and bb[1]
    the tail beyond the last row where |x| > tab.radius.  Doubles take one
    Horner pass over rows and sizes; fixed-point rows are dotted with the
    powers of x at 2^-f up to the rows whose terms reach eps of the largest,
    and become mpc numbers at f bits for x^a and the log partner."""
    fx = tab.f is not None
    mod, dt = (mp, object) if fx else (cmath, complex)
    inf = cmath.isinf(tab.centre)
    with mp.workprec(tab.f) if fx else nullcontext():
        xs, logs = [], []
        for xi in xis:
            z = mp.mpc(xi) if fx else complex(xi)
            w = z if inf else z - 1  # log(1 - xi) = log(-w), log x = -log(-w)
            lg = mod.log(w.real) - 1j * mod.pi if w.imag == 0 and w.real > 0 else mod.log(-w)
            xs.append(-1 / z if inf else w)
            logs.append(-lg if inf else lg)
        x = np.array(xs, dtype=dt)[:, None, None]
        ax = np.abs(x).astype(float)
        n, shape = len(tab.sizes), (len(xs),) + tab.sizes.shape[1:]
        # the geometric tail of the last row, the radius of convergence being 1
        tail = np.where(ax > tab.radius, tab.sizes[-1] * ax ** n / (1.0 - ax), 0.0)
        if fx:
            f = tab.f
            pa = ax.reshape(-1, 1) ** np.arange(n)
            bound = (pa @ tab.sizes.reshape(n, -1)).reshape(shape)
            top = tab.sizes.max(axis=(1, 2)) * pa.max(axis=0)
            m = int(np.nonzero(top > tab.eps * top.max())[0][-1]) + 1
            pw = np.array([[(_shl(r, f - e), _shl(i, f - e)) for r, i, e in
                            _fl_powers(_fl(*_fx_point(v, f), f, f), m, f)] for v in xs],
                          dtype=object)  # x^0 .. x^(m-1) at 2^-f
            rows = tab.rows[:m].reshape(m, -1)
            re, im = ((pw[:, :, i] @ rows).reshape(shape) >> f if pw[:, :, i].any() else 0
                      for i in (0, 1))
            sums = np.frompyfunc(lambda a, b: mp.mpc(mp.mpf((a, -f)), mp.mpf((b, -f))), 2, 1)(
                re, im)
        else:
            sums = bound = 0
            for row, size in zip(tab.rows[::-1], tab.sizes[::-1]):
                sums = sums * x + row
                bound = bound * ax + size
        bounds = np.stack([bound, tail])
        log = np.array(logs, dtype=dt)[:, None]
        abs_log = np.abs(log).astype(float)
        b, bb = [], []
        for a, w, v in tab.funcs:
            val, bnd = sums[:, w], bounds[:, :, w]
            if v is not None:
                val, bnd = val + log * sums[:, v], bnd + abs_log * bounds[:, :, v]
            if a:
                xa = np.array([mod.exp(a * lg) for lg in logs], dtype=dt)[:, None]
                val, bnd = xa * val, np.abs(xa).astype(float) * bnd
            b.append(val)
            bb.append(bnd)
    return np.stack(b, axis=1), np.stack(bb, axis=2), xs, logs


def _local_values(tab: _Local, xis: list) -> list:
    """[(z, rel_est)] at each xi (see _local_basis), the one evaluator of
    both local bases: z = [y^(j)(xi) / j!] in tab's number type (mpc for
    fixed point), the rows t_j = sum_k C_k phi_k with their per-j factor
    divided out, (-x)^j t_j at infinity and t_j / tau^max(j-2, 0) at 1.
    rel_est is the largest over j of the cancellation bound eta sum_k |C_k|
    |phi_k| over |t_j|, eta = eps (3 + a |log x|) for the unit roundoff eps
    and the largest exponent a (the rounding of C, of the sums and of a in
    x^a), plus the tail's bound."""
    b, bb, xs, logs = _local_basis(tab, xis)
    with mp.workprec(tab.f) if tab.f is not None else nullcontext():
        g = cancel = 0
        for k, c in enumerate(tab.coeffs):
            g = g + c * b[:, k]
            cancel = cancel + float(abs(c)) * bb[:, :, k]
        eta = tab.eps * (3.0 + tab.amax * np.array([float(abs(v)) for v in logs]))[:, None]
        rel = ((eta * cancel[0] + cancel[1]) / np.maximum(np.abs(g).astype(float), 1e-300)).max(
            axis=1)
        x, z = np.array(xs, dtype=g.dtype), [g[:, 0]]
        for j in range(1, g.shape[1]):
            if cmath.isinf(tab.centre):
                pw = -x if j == 1 else pw * -x
                z.append(pw * g[:, j])
            else:
                z.append(g[:, j] if j < 3 else g[:, j] / x ** (j - 2))
    return list(zip(np.stack(z, axis=1).tolist(), rel.tolist()))


def _ladder(s: int, p: int, table, xis: list, rung: int, tol: float, what: str) -> list:
    """[(z, run)] at xis from the _Local table(s, p, dps) in the number type
    of _arith(dps): z = [y, y', y''] in complex doubles and run its
    diagnostics, steps = 0.  The one ladder of rungs of the expansions: a
    target takes the first rung whose estimate is at most tol/4, doubles,
    then the rung's digits, whose estimate adds 2^-53 for the rounding to
    doubles; AccuracyError names what and those digits if both miss, and
    PathError follows where G falls below the double range."""
    done = {}
    for dps in (None, rung):
        todo = [i for i in range(len(xis)) if i not in done]
        if not todo:
            break
        got = [(z, rel if dps is None else rel + 2.0**-53)
               for z, rel in _local_values(table(s, p, dps), [xis[i] for i in todo])]
        # times j! where it is not 1: a product with 1 can flip a zero's sign
        done.update((i, ([complex(v) * math.factorial(j) if j > 1 else complex(v)
                          for j, v in enumerate(z)],
                         _Continued(None, dps and _arith(dps).digits, 0, rel)))
                    for i, (z, rel) in zip(todo, got) if rel <= tol / 4)
    if len(done) < len(xis):
        worst = max(rel for i, (_, rel) in zip(todo, got) if i not in done)
        raise AccuracyError(
            f"{what} of G_p for (s, p) = ({s}, {p}) misses tol = {tol:.1e} at "
            f"{_arith(rung).digits} digits: its estimate reads {worst:.1e}")
    out = [done[i] for i in range(len(xis))]
    for xi, (z, _) in zip(xis, out):
        if z[0] == 0:
            raise PathError(f"G_p at xi = {xi:.3g} lies below the double range")
    return out


#: gp_continue and cut_trace sum every |xi| >= FAR_RADIUS from the expansion
#: at infinity
FAR_RADIUS = 4.0


def _theta_at(poly: tuple, num: int, q: int) -> tuple:
    """(q^d poly(num/q), q^(d-1) poly'(num/q)) as integers, for the integer
    coefficients poly of degree d, by Horner's rule."""
    d = len(poly) - 1
    v, dv, qk = poly[d], d * poly[d], 1
    for i in range(d - 1, -1, -1):
        qk *= q
        v = v * num + poly[i] * qk
        if i:
            dv = dv * num + i * poly[i] * qk
    return v, dv


@lru_cache(maxsize=None)
def _far_table(s: int, p: int, dps) -> _Local:
    """The local basis at infinity with its connection (_far_connection),
    in the number type of _arith(dps), with the rows xi^j y^(j) / j! for
    j < 3: per distinct exponent a, the solution x^a sum_n w_n x^n, w_n =
    c_n F_j(n + a), and for a double exponent its log partner x^a (sum_n
    dw_n x^n + log x sum_n w_n x^n), dw_n = d/de [c_n(e) F_j(n + a + e)] at
    e = 0.

    In x = -1/xi, xi d/dxi = -x d/dx, so the reduced equation P(theta) y =
    xi R(theta) y of _theta_polys reads R(-theta_x) y + x P(-theta_x) y = 0
    and y = sum_n c_n x^(n+nu) needs c_0 = 1 and the two-term recurrence

        c_n = -c_{n-1} P(-(n+nu-1)) / R(-(n+nu)).

    The indicial polynomial R(-nu) has the reduced upper parameters as
    roots, each simple or double, and no two of them differ by an integer
    (else ArithmeticError).  So with nu = a + e the step never divides by
    zero, and c_n(e) is carried with its e-derivative (Frobenius): each exact
    rational step ratio and its e-derivative is rounded once, to doubles or
    to mpf numbers at the extended digits, which are then floored once to
    mantissas at 2^-f.  Since xi^j d^j/dxi^j x^m = (-1)^j m (m+1) ...
    (m+j-1) x^m, the row j of c_n x^(n+nu) carries F_j(n+nu) = (-1)^j
    C(n+nu+j-1, j).  Terms are drawn until every series has, at |x| =
    1/FAR_RADIUS, fallen by half from the term before and below ar.tol of
    its largest term; DivergenceError past 2000.
    """
    ar = _arith(dps)
    p_poly, r_poly = _theta_polys(s, p)
    ups = hyp_params(s, p).reduced_upper
    exps = sorted(set(ups))
    if (any(ups.count(a) > 2 for a in exps)
            or any((a - b).denominator == 1 for a, b in combinations(exps, 2))):
        raise ArithmeticError("the exponents at infinity are not simple or double "
                              "and apart by non-integers")

    def rat(num: int, den: int):  # num / den, rounded once
        return num / den if dps is None else mp.mpf(num) / den

    with nullcontext() if dps is None else mp.workdps(ar.digits):
        funcs, layout, col = [], [], 0
        for a in exps:
            double = ups.count(a) == 2
            an = rat(a.numerator, a.denominator)
            layout.append(double)
            funcs += [(an, col, None)] + [(an, col + 1, col)] * double
            col += 1 + double
        pairs = [(rat(1, 1), rat(0, 1)) for _ in exps]  # (c_n, dc_n/de)
        rows, sizes, top, last = [], [], None, None
        for n in count():
            row = []
            for a, (c, dc), double in zip(exps, pairs, layout):
                num, q = a.numerator, a.denominator
                f, df = rat(1, 1), rat(0, 1)  # F_j(n + a + e) and its e-derivative
                w, dw = [], []
                for j in range(3):
                    w.append(c * f)
                    dw.append(dc * f + c * df)
                    g = rat(-((n + j) * q + num), (j + 1) * q)
                    f, df = f * g, df * g - f / (j + 1)
                row.append(w)
                if double:
                    row.append(dw)
            rows.append(row)
            sizes.append([[float(abs(v)) for v in ser] for ser in row])
            size = np.array(sizes[-1]) * FAR_RADIUS**-n
            top = size if top is None else np.maximum(top, size)
            if n and np.all((size <= ar.tol * top) & (size <= last / 2)):
                break
            if n == 2000:
                raise DivergenceError("the series at infinity need more than 2000 terms")
            last = size
            for k, (a, (c, dc)) in enumerate(zip(exps, pairs)):
                num, q = a.numerator, a.denominator
                # c_{n+1} / c_n = -P(-(n+a+e)) / R(-(n+1+a+e)) and its e-derivative
                pv, pd = _theta_at(p_poly, -(n * q + num), q)
                rv, rd = _theta_at(r_poly, -((n + 1) * q + num), q)
                r = rat(-pv, rv)
                dr = rat(q * (pd * rv - pv * rd), rv * rv)
                pairs[k] = (c * r, dc * r + c * dr)
    scale = None if dps is None else ar.bits + _POINT_GUARD_BITS
    coeffs = np.array(rows if dps is None else
                      [[[int(mp.ldexp(v, scale)) for v in ser] for ser in row] for row in rows],
                      dtype=float if dps is None else object)
    return _Local(complex(math.inf), tuple(funcs), coeffs, np.array(sizes),
                  _far_connection(s, p, dps), float(max(exps)), 1.0 / FAR_RADIUS, ar.eps, scale)


@lru_cache(maxsize=None)
def _far_connection(s: int, p: int, dps) -> "np.ndarray":
    """The real vector C with y = sum_k C_k phi_k on |xi| >= FAR_RADIUS, for
    the basis phi_k of _far_table, in the order of its functions: floats for
    dps None, else mpf objects at _arith(dps).digits.  It is the connection
    formula of DLMF 16.8.8 (Slater 1966; Luke 1969, ch. 5) over the reduced
    parameters a_k, b_l of hyp_params.  A simple exponent a_j has

        C_j = prod_l Gamma(b_l) prod_{k != j} Gamma(a_k - a_j)
              / (prod_{k != j} Gamma(a_k) prod_l Gamma(b_l - a_j)).

    A double exponent a is the confluent limit of splitting it into a -+ e,
    which moves the equation only at O(e^2).  With H(e) the product above
    over the k outside the pair at a_j = a + e, and Phi(e) = H(e) / Gamma(a
    - e), the log partner has the coefficient -Phi(0) and the solution
    -Phi'(0) - 2 gamma Phi(0), for Euler's gamma.  Phi' comes from digamma
    terms, and from the derivative (-1)^n n! of 1/Gamma at -n, where b_l - a
    = -n makes a factor of Phi vanish.

    The vector is computed once per (s, p) at the extended rung's digits plus
    ten guard digits, so each C_k is good to one unit of _arith(dps).eps,
    and the doubles are those numbers rounded."""
    if dps is None:
        return _far_connection(s, p, _MP_RUNG_DPS).astype(float)
    hp = hyp_params(s, p)
    ups, lows = Counter(hp.reduced_upper), Counter(hp.reduced_lower)
    coeffs = []
    with mp.workdps(_arith(dps).digits + 10):
        gam = {a: mp.gamma(mp.mpf(a.numerator) / a.denominator) for a in ups.keys() | lows.keys()}
        const = mp.fprod(gam[b] ** n for b, n in lows.items()) / mp.fprod(
            gam[a] ** n for a, n in ups.items())
        for a, m in sorted(ups.items()):
            # Phi(e) = const Gamma(a)^m prod Gamma(z - e)^n over these (z, n)
            factors = [(ak - a, n) for ak, n in ups.items() if ak != a]
            factors += [(b - a, -n) for b, n in lows.items()] + [(a, -1)] * (m - 1)
            zeros = [(z, n) for z, n in factors if z.denominator == 1 and z <= 0]
            rest = [(mp.mpf(z.numerator) / z.denominator, n) for z, n in factors
                    if (z, n) not in zeros]
            phi = const * gam[a] ** m * mp.fprod(mp.gamma(z) ** n for z, n in rest)
            order = -sum(n for _, n in zeros)
            if order:  # 1/Gamma(-k - e) = (-1)^(k+1) k! e + O(e^2)
                k = int(-zeros[0][0])
                dphi = phi * (-1) ** (k + 1) * mp.factorial(k) if order == 1 else mp.mpf(0)
                phi = mp.mpf(0)
            else:
                dphi = -phi * mp.fsum(n * mp.digamma(z) for z, n in rest) if m == 2 else mp.mpf(0)
            coeffs += [-dphi - 2 * mp.euler * phi, -phi] if m == 2 else [phi]
    with mp.workdps(_arith(dps).digits):
        return np.array([+c for c in coeffs], dtype=object)


#: gp_continue and cut_trace sum the targets with 0 < |xi - 1| <= ONE_RADIUS
#: and |xi| > SERIES_RADIUS from the local basis at xi = 1
ONE_RADIUS = 0.5
#: the ordinary point at which the basis at xi = 1 is matched to the series at 0
_ONE_MATCH = 0.7
#: caller's digits of the basis at xi = 1 that the doubles round, and of its
#: extended rung and fixed-point join: those of resonant_fit's default, so
#: the fit and the router share one build
_ONE_DPS = 40


@lru_cache(maxsize=None)
def _one_polys(s: int, p: int) -> tuple:
    """The recurrence at centre 1 as integer polynomials in N, constant term
    first: entry r + 1 is alpha_r(N) - beta_r(N) of _row, which multiplies
    b_{N+r}, r = -1..d-1; the r = d term vanishes at centre 1.  Entry d,
    c_{d-1}(N), is the indicial polynomial at xi = 1 of n = N + d - 1, with
    the roots 0, ..., d - 2 and 2."""
    alpha, beta, _ = _row(s, p, _Poly((0, 1)))
    return (beta[0] * -1).c, *(x.c for x in map(operator.sub, alpha, beta[1:]))


def _one_row(s: int, p: int, big_n: int) -> tuple:
    """(c, dc): row N = big_n of _one_polys and its N-derivative, the row
    of the Frobenius e-derivative, as integers for any integer N."""
    c, dc = [], []
    for q in _one_polys(s, p):
        v = dv = 0
        for a in reversed(q):
            dv = dv * big_n + v
            v = v * big_n + a
        c.append(v)
        dc.append(dv)
    return c, dc


class _OneTable(NamedTuple):
    """The local basis at xi = 1 as power series in tau = xi - 1, in fixed
    point: cols[k] holds the mantissas at 2^-f of the Taylor coefficients of
    the analytic solution phi_k for k < d - 1, and cols[d - 1] and cols[d]
    those of u and v in the solution psi = u + log(1 - xi) v."""
    cols: tuple
    f: int
    rows: int  # the leading rows that serve |tau| <= ONE_RADIUS in doubles


@lru_cache(maxsize=None)
def _one_table(s: int, p: int, dps: int) -> _OneTable:
    """The local basis at xi = 1 in the fixed point of _arith(dps), at the
    scale 2^-f of its points, f = bits + _POINT_GUARD_BITS.

    Row N of _one_row reads sum_r c_r(N) w_{N+r} = 0 for the coefficients
    w_n of a solution, and fixes w_{N+d-1} for N >= 0.  The d - 1 analytic
    solutions are canonical, phi_k = tau^k + O(tau^(d-1)).  For the log
    solution, L[log(1 - xi) v] = log(1 - xi) L[v] + L'[v], whose rows are
    the N-derivatives dc and run from N = -(d - 1); so psi solves the
    equation when v does, the rows N < 0 of L'[v] vanish, and L[u] =
    -L'[v].  The rows N < 0 give v_0 = v_1 = 0 and v_3, ..., v_{d-2},
    exactly, from v_2 = 1, which the row of the double root 2 leaves free;
    u has no tau^k term for k <= d - 2.  For d = 3 the roots are 0, 1 and
    2, so row 0 is a constraint, c_0(0) w_0 + c_1(0) w_1 = -(L'[v])_0, that
    leaves w_2 free: the analytic solutions are then phi_0 = -c_1(0)/c_0(0)
    + tau + O(tau^3) and v itself, and u = -c'_2(0)/c_0(0) + O(tau^3).

    Each head is exact and floored to 2^-f, and each row's exact integer sum
    is divided once, floored.  Terms are drawn until, in two rows running,
    the term of the largest series in its derivative nd - 1 over (nd - 1)!
    at |tau| = r is below tol of the largest such term, for (r, nd, tol) =
    (ONE_RADIUS, 3, _SERIES_TOL), which fixes rows, and (1 - _ONE_MATCH, d,
    ar.tol), which serves the match; DivergenceError past 2000, and
    ArithmeticError if some other row N >= 0 has c_{d-1}(N) = 0.
    """
    ar = _arith(dps)
    f = ar.bits + _POINT_GUARD_BITS
    d = len(_theta_polys(s, p)[0]) - 1
    c, dc = _one_row(s, p, 0)
    if c[d] == 0:  # n = d - 1 is an indicial root: d = 3
        heads = [[Fraction(-c[2], c[1]), 1, 0], [0, 0, 1], [Fraction(-dc[3], c[1]), 0, 0],
                 [0, 0, 1]]
    else:
        v = [Fraction(0), Fraction(0), Fraction(1)]
        for n in range(3, d - 1):
            _, dc = _one_row(s, p, n - d + 1)
            v.append(-_fdot(dc[d - n:d], v) / dc[d])
        heads = [[int(k == j) for k in range(d - 1)] for j in range(d - 1)] + [[0] * (d - 1), v]
    cols = [[(Fraction(x).numerator << f) // Fraction(x).denominator for x in h] for h in heads]
    iu, iv = d - 1, d
    rules = ((ONE_RADIUS, 3, _SERIES_TOL), (1.0 - _ONE_MATCH, d, ar.tol))
    top, quiet, stops = [0.0, 0.0], [0, 0], [None, None]
    for big_n in count():
        n = big_n + d - 1  # the coefficient row N fixes
        if n < len(cols[0]):
            continue  # d = 3, row 0: a constraint the heads meet
        if n > 2000:
            raise DivergenceError("the series at xi = 1 need more than 2000 terms")
        c, dc = _one_row(s, p, big_n)
        if c[d] == 0:
            raise ArithmeticError(f"row {big_n} at xi = 1 fixes no coefficient")
        lo, clo = max(big_n - 1, 0), max(1 - big_n, 0)
        for k in (*range(d - 1), iv, iu):  # v before u, whose rows read it
            acc = _fdot(c[clo:d], cols[k][lo:])
            if k == iu:
                acc += _fdot(dc[clo:], cols[iv][lo:])
            cols[k].append(-acc // c[d])
        mag = math.ldexp(max(abs(col[n]) for col in cols), -f)
        for i, (r, nd, tol) in enumerate(rules):
            size = math.comb(n, nd - 1) * r ** (n - nd + 1) * mag
            top[i] = max(top[i], size)
            quiet[i] = quiet[i] + 1 if n >= 2 * d and size <= tol * top[i] else 0
            if quiet[i] == 2 and stops[i] is None:
                stops[i] = n + 1
        if None not in stops:
            return _OneTable(tuple(cols), f, stops[0])


def _one_rows(cols, nd: int, logs: dict) -> "np.ndarray":
    """rows[m, k, j]: the tau^m coefficient of tau^e_j w^(j) / j!, e_j =
    max(j - 2, 0), j < nd, for the series w = cols[k] at xi = 1 (mantissas
    at 2^-f).  A column with the log partner v = cols[logs[k]] stands for y
    = w + log(1 - xi) v, less the log term that v's own row carries:

        y^(j) / j! = w^(j) / j! + log(1 - xi) v^(j) / j!
                     + sum_{k=1}^{j} (-1)^(k-1) / (k tau^k) v^(j-k) / (j-k)!,

    a power series since v = O(tau^2): its row has C(N, j) w_N [m >= e_j] +
    h_j(N) v_N at N = m + min(j, 2), h_j(N) = sum_k (-1)^(k-1) C(N, j-k) /
    k, exact and floored once, so no power of 1/tau is formed."""
    ser = np.array(cols, dtype=object).T
    n = len(ser) - min(nd - 1, 2)
    out = np.empty((n, len(cols), nd), dtype=object)
    comb = np.array([[math.comb(big_n, i) for i in range(nd)] for big_n in range(len(ser))],
                    dtype=object)
    for j in range(nd):
        e, lo = max(j - 2, 0), min(j, 2)
        den = math.lcm(*range(1, j + 1))
        b = comb[lo:lo + n]
        row = np.where(np.arange(n) >= e, b[:, j] * den, 0)[:, None] * ser[lo:lo + n]
        h = sum((-1) ** (k - 1) * den // k * b[:, j - k] for k in range(1, j + 1))
        for k, v in logs.items():
            row[:, k] += h * ser[lo:lo + n, v]
        out[:, :, j] = row // den if den > 1 else row
    return out


def _fx_solve(a: list, b: list, f: int) -> list:
    """x with a x = b for the square matrix a and the vector b, mantissas at
    2^-f, by Gaussian elimination with partial pivoting; each product is
    floored back to 2^-f."""
    n = len(b)
    a = [[*row, bi] for row, bi in zip(a, b)]
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(a[i][k]))
        a[k], a[piv] = a[piv], a[k]
        for row in a[k + 1:]:
            m = (row[k] << f) // a[k][k]
            for j in range(k + 1, n + 1):
                row[j] -= (m * a[k][j]) >> f
    x = [0] * n
    for k in reversed(range(n)):
        x[k] = ((a[k][n] << f) - _fdot(a[k][k + 1:n], x[k + 1:])) // a[k][k]
    return x


class _OneConnection(NamedTuple):
    """y = sum_k coeffs[k] phi_k near xi = 1 for the basis of _one_table, as
    y = a + log(1 - xi) v: series holds the mantissas at 2^-f of the
    coefficients of a and v, the table's columns times C_1."""
    coeffs: "np.ndarray"  # C_1, real mpf numbers; the entry of psi is B(zeta_c^2)
    series: tuple  # (a, v)
    f: int  # the table's scale
    terms: int  # the table's coefficients and the series' terms at the match point


@lru_cache(maxsize=None)
def _one_connection(s: int, p: int, dps: int) -> _OneConnection:
    """The real vector C_1 with y = sum_k C_1k phi_k, matched once per (s, p)
    and dps to the power series at 0, with no walk, and the series a and v
    it gives, in the fixed point of _one_table(s, p, dps).

    At the real ordinary point xi_0 = _ONE_MATCH the square system W C_1 =
    Y holds, for Y_j = tau_0^e_j y^(j)(xi_0) / j! from _power_series and
    the Wronskian rows W_jk, the rows j of phi_k at tau_0 = xi_0 - 1
    (_one_rows, summed by _local_basis).  y and the basis are real on (0,
    1), so C_1 is real; _fx_solve solves for it."""
    tab = _one_table(s, p, dps)
    f, d = tab.f, len(tab.cols) - 1
    ar = _arith(dps)
    x0 = _fx_point(_ONE_MATCH, f)
    state, terms = _power_series(s, p, x0, d, ar)
    t = x0[0] - (1 << f)  # tau_0 at 2^-f
    rhs = [(re << f - state.exp) * t ** max(j - 2, 0) >> f * max(j - 2, 0)
           for j, (re, _) in enumerate(state.mants)]
    rows = _one_rows(tab.cols, d, {d - 1: d})
    funcs = tuple((0, k, None) for k in range(d - 1)) + ((0, d - 1, d),)
    basis = _Local(complex(1.0), funcs, rows, np.ldexp(np.abs(rows).astype(float), -f), None,
                   0.0, 1.0 - _ONE_MATCH, ar.eps, f)
    w = _local_basis(basis, [_ONE_MATCH])[0][0]
    coeffs = _fx_solve([[int(mp.ldexp(x.real, f)) for x in row] for row in w.T], rhs, f)
    a = [_fdot(coeffs, row) >> f for row in zip(*tab.cols[:d])]
    v = [coeffs[-1] * x >> f for x in tab.cols[d]]
    with mp.workdps(ar.digits):
        coeffs = np.array([mp.mpf((c, -f)) for c in coeffs], dtype=object)
    return _OneConnection(coeffs, (a, v), f, terms + len(tab.cols[0]))


@lru_cache(maxsize=None)
def _one_local(s: int, p: int, dps, nd: int) -> _Local:
    """The basis at xi = 1 folded by C_1 into y = a + log(1 - xi) v
    (_one_connection), as its rows j < nd: in the fixed point of dps, served
    to |tau| = 1 - _ONE_MATCH, or for dps None the _ONE_DPS build's leading
    rows rounded to doubles, served to ONE_RADIUS."""
    ext = dps is not None
    conn = _one_connection(s, p, dps if ext else _ONE_DPS)
    rows = _one_rows(conn.series, nd, {0: 1})[:None if ext else _one_table(s, p, _ONE_DPS).rows]
    floats = np.ldexp(rows.astype(float), -conn.f)
    return _Local(complex(1.0), ((0, 0, 1),), rows if ext else floats, np.abs(floats), (1,),
                  0.0, 1.0 - _ONE_MATCH if ext else ONE_RADIUS, _arith(dps).eps,
                  conn.f if ext else None)


@lru_cache(maxsize=None)
def _one_join(s: int, p: int, dps=None, rough: bool = False) -> tuple:
    """(walked, rel_est): the walks' state at the cut's join 1 +
    DETOUR_OFFSET + i0 in the number type of _arith(dps), all d components
    of the _ONE_DPS build of the basis at xi = 1 summed at its digits, as a
    _Walked that has taken no step, and the largest relative estimate of its
    components (_local_values).  The doubles round the sums, and their
    estimate adds 2^-53, or if rough sum the basis rounded to doubles; in
    fixed point the sums are rounded into the walk's fixed point, with the
    shared exponent that _fx_head sets."""
    xj = complex(1.0 + DETOUR_OFFSET)
    d = len(_theta_polys(s, p)[0]) - 1
    ((z, rel),) = _local_values(_one_local(s, p, None if rough else _ONE_DPS, d), [xj])
    if dps is None:
        state = [complex(v) for v in z]
        return _Walked([state], state, xj, xj, 0, 0), rel if rough else rel + 2.0**-53
    ar = _arith(dps)
    f, e = ar.bits + _POINT_GUARD_BITS, _one_connection(s, p, _ONE_DPS).f
    cx = _fx_point(xj, f)
    with mp.workdps(_arith(_ONE_DPS).digits):  # y^(i) / i! g^i at 2^-e, g = xj
        raw = _FxState([_fx_point(v * mp.mpf(xj.real) ** i, e) for i, v in enumerate(z)],
                       e, cx, 0)
    state = _FxState(*_fx_head(raw, cx, 0, ar, f), cx, 0)
    return _Walked([state], state, xj, cx, 0, 0), rel


@dataclass(frozen=True)
class ContinuationState:
    """Value and u-derivatives of G_p at the endpoint of a transport path."""

    s: int
    p: int
    u: complex
    side: str
    derivs: tuple  # (G, G', G'') with respect to u, the inputs of sigma
    path: tuple  # xi-plane corners: (xi,) for the series, the route's corners
    # for a walk, (1, xi) for the basis at xi = 1, (1, 1.3, xi) for a leg from
    # its join, and (inf, xi) for the far field
    dps: "int | None"  # working digits of the walk or of the far field's or the
    # basis's extended sum (30, 30 and 50); None for doubles
    steps: int  # Taylor expansions of the walk; 0 for the series and the far field
    rel_est: float  # two-walk gap, or the basis's or far field's cancellation bound;
    # _SERIES_TOL for the series

    @property
    def value(self) -> complex:
        return self.derivs[0]


def _state(s: int, p: int, u: complex, side: str, z, path,
           run: "_Continued | None" = None) -> ContinuationState:
    """State at u from the xi-derivatives z of y(xi) = G_p(zeta_c^2 xi),
    summed from the series when run is None."""
    zc2 = zeta_c_value(s) ** 2
    derivs = tuple(z[j] / zc2**j for j in range(len(z)))
    dps, steps, rel_est = ((None, 0, _SERIES_TOL) if run is None
                           else (run.dps, run.steps, run.rel_est))
    return ContinuationState(s=s, p=p, u=u, side=side, derivs=derivs, path=path,
                             dps=dps, steps=steps, rel_est=rel_est)


def _continued(s: int, p: int, us: list, xis: list, side: str, tol: float) -> list:
    """The states at the targets us, at xis = us / zeta_c^2, on side: the
    one rule that sends a target to its region, behind gp_continue and
    cut_trace, and the one place that imposes Schwarz symmetry.

    side must be 'above', 'below' or 'none', else DomainError whatever the
    targets; a target on the cut needs 'above' or 'below', and a non-real
    one 'none' or its own side, else PathError.  Each target is moved to the
    closed upper half plane, the cut's upper side standing for its lower
    one, and served there by the first of
    - the power series at 0 for |xi| <= SERIES_RADIUS (_power_series): a
      walk towards the singular point 0 loses digits;
    - the expansion at infinity for |xi| >= FAR_RADIUS;
    - the basis at xi = 1 for 0 < |xi - 1| <= ONE_RADIUS; these two are one
      ordered tuple of (region, path head, table, rung digits), summed by
      _local_values on the rungs of _ladder;
    - the checked walks of transport.  A target off the cut walks its route
      of _waypoints.  The targets on the cut form one leg outward along the
      cut from the join xi_0 = 1 + DETOUR_OFFSET, which starts from the
      basis's state there (_one_join) in the number type of each rung, so a
      state does not depend on which call built the basis first.  xi = 1
      itself raises PathError there, as the leg's segment meets it.
    The states and paths of the moved targets are conjugated, so a target
    and its mirror image, or the cut's two sides, give exact conjugates with
    the same diagnostics.
    """
    if side not in ("above", "below", "none"):
        raise DomainError(f"side must be 'above', 'below' or 'none', got {side!r}")
    flips, upper = [], []
    for xi in map(complex, xis):
        on_cut = xi.imag == 0.0 and xi.real >= 1.0
        if on_cut and side == "none":
            raise PathError("target on the cut: pass side='above' or side='below'")
        if xi.imag and side != "none" and (xi.imag < 0.0) != (side == "below"):
            raise PathError(f"target {xi} is on the opposite side of the cut")
        flips.append(xi.imag < 0.0 or on_cut and side == "below")
        upper.append(complex(xi.real, abs(xi.imag)))
    todo = sorted(set(upper), key=lambda x: (x.real, x.imag))
    got = {}  # upper xi -> (z, path, run); run is None for the series
    for x in todo:
        if abs(x) <= SERIES_RADIUS:
            taylor, _ = _power_series(s, p, x, 3, _arith(None))
            got[x] = [c * math.factorial(j) for j, c in enumerate(taylor)], (x,), None
    for inside, head, table, rung, what in (
            (lambda x: abs(x) >= FAR_RADIUS, complex(math.inf), _far_table, _MP_RUNG_DPS,
             "expansion at infinity"),
            (lambda x: 0.0 < abs(x - 1.0) <= ONE_RADIUS, complex(1.0),
             lambda s, p, dps: _one_local(s, p, dps, 3), _ONE_DPS, "basis at xi = 1")):
        mine = [x for x in todo if x not in got and inside(x)]
        got.update((x, (z, (head, x), run))
                   for x, (z, run) in zip(mine, _ladder(s, p, table, mine, rung, tol, what)))
    cut = []
    for x in todo:
        if x in got:
            continue
        if x.imag or x.real < 1.0:
            route = _waypoints(x)
            run = transport(s, p, route[:-1], route[-1:], tol, keep=3)
            got[x] = run.states[0], tuple(route), run
        else:
            cut.append(x)
    if cut:
        xi0 = complex(1.0 + DETOUR_OFFSET)
        run = transport(s, p, [1.0, xi0], cut, tol, keep=3)
        got.update((x, (z, (complex(1.0), xi0, x), run)) for x, z in zip(cut, run.states))
    out = []
    for u, x, flip in zip(us, upper, flips):
        z, path, run = got[x]
        if flip:
            z = [v.conjugate() for v in z]
            path = tuple(c.conjugate() if c.imag else c for c in path)
        out.append(_state(s, p, u, side, z, path, run))
    return out


def gp_continue(
    s: int,
    p: int,
    u: complex,
    side: str = "none",
    tol: float = CONTINUATION_TOL,
) -> ContinuationState:
    """Continue G_p to u on the slit plane, within tol relative or
    AccuracyError, from the source that _continued picks for u.

    side selects the lateral boundary value for u on the cut [zeta_c^2,
    inf); 'none' is for targets off the cut.  u = 0 gives G = 1; G' and G''
    that lie below the double range far out come out as 0.  Real u off the
    cut comes out with imaginary parts exactly zero for every side; on the
    cut the state is that of a one-node cut_trace.  xi = 1 itself raises
    PathError; a non-finite u raises DomainError.
    """
    s, p = _validate_sp(s, p)
    uc = complex(u)
    if not cmath.isfinite(uc):
        raise DomainError(f"u must be finite, got {u}")
    return _continued(s, p, [uc], [uc / zeta_c_value(s) ** 2], side, tol)[0]


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
    s, p = _validate_sp(s, p)
    return BranchCoefficient(
        rational=Fraction(-(p**2) * s ** (2 * p - 1), 4 * (s - 1) ** (2 * p + 1))
    )


def edge_density_closed(s: int, p: int) -> float:
    """rho_p(zeta_c^2) = (p/2pi) (s/(s-1))^{2p+1} = -(2s^2/p) B(zeta_c^2)."""
    s, p = _validate_sp(s, p)
    return p / (2.0 * math.pi) * (s / (s - 1.0)) ** (2 * p + 1)


@dataclass(frozen=True)
class ResonantCoefficients:
    """Local model G = a0 + a1 w + a2 w^2 + a3 w^3 + (b2 + b3 w) w^2 log w."""

    s: int
    p: int
    B_fit: float
    coeffs: tuple  # (a0, a1, a2, a3, b2, b3)
    max_rel_residual: float
    steps: int  # Taylor-step expansions behind the node values: 0, none walks
    terms: int  # coefficients behind them: the basis table at xi = 1 and the
    # power series at 0 that matched it
    dps: int  # working precision of those values, decimal digits


def resonant_fit(
    s: int, p: int, eps_grid=None, dps: int = 40
) -> ResonantCoefficients:
    """Fit the resonant local model to extended-precision values of G_p.

    w = 1 - u/zeta_c^2 runs over eps_grid (default: 24 log-spaced points in
    [1.5e-3, 6e-2]).  G_p at every node is summed from the basis at xi = 1
    and its connection, built and matched once per (s, p) and dps in fixed
    point at dps + TAYLOR_GUARD_DPS digits (_one_local), with no walk; at
    the default dps the doubles of gp_continue round the same build.  The
    least-squares solve runs at dps digits (an integer from 15 to 250).
    The w^3 and w^3 log w columns absorb the next-order analytic background
    so the w^2 log w coefficient lands within a few percent of the closed
    form.
    """
    s, p = _validate_sp(s, p)
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
        rhs = [z[0].real for z, _ in _local_values(_one_local(s, p, dps, 1), [1 - w for w in ws])]
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
        steps=0,
        terms=_one_connection(s, p, dps).terms,
        dps=_arith(dps).digits,
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
    (2 pi i) needs one side only: the state below the cut is the exact
    complex conjugate of the one above.  Next to the edge, u <= (1 +
    ONE_RADIUS) zeta_c^2, the state comes from the basis at xi = 1, so rho
    is defined up to the edge itself; further out, the walk along the cut
    starts from that basis's join state (see _continued).
    """
    s, p = _validate_sp(s, p)
    zc2 = zeta_c_value(s) ** 2
    if not u > zc2:
        raise DomainError(f"u must exceed zeta_c^2 = {zc2:.6g}")
    return sigma_cont(s, p, u, "above").imag / math.pi


def cut_trace(s, p, xi_nodes, side: str = "above", tol: float = CONTINUATION_TOL):
    """States along the cut at the given xi nodes (all finite and > 1), in
    the order of the nodes, on side 'above' or 'below', from the sources
    that _continued picks.  The states do not depend on the order of the
    nodes, which are sorted, and a single node gets gp_continue's state.
    They do depend on the other nodes beyond the basis at xi = 1 and the
    far field: one leg along the cut from the join serves all of them, on
    one rung and with one rel_est, the largest of its nodes, and its steps
    pass through every node, so another node can move a node's rung, its
    rel_est, and its values by rounding."""
    s, p = _validate_sp(s, p)
    nodes = [float(x) for x in xi_nodes]
    if not all(1.0 < x < math.inf for x in nodes):
        raise DomainError("cut_trace nodes must be finite and satisfy xi > 1")
    if side == "none":  # the trace lies on the cut, even with no nodes
        raise PathError("cut_trace runs on the cut: pass side='above' or side='below'")
    zc2 = zeta_c_value(s) ** 2
    return _continued(s, p, [x * zc2 for x in nodes], nodes, side, tol)
