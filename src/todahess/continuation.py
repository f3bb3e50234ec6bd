"""Analytic continuation of the squared-Raney generating functions.

G_p(u) = sum_m R_{s,p}(m)^2 u^m converges for |u| < zeta_c^2 and extends to
the slit plane C \\ [zeta_c^2, inf).  The coefficient ratio is rational in m,
so G_p is a generalized hypergeometric function; after cancelling common
upper/lower parameters the reduced equation has order q_p + 1 and its only
finite singular points are xi = 0, 1 in xi = u / zeta_c^2.  The power
series at 0 is summed in one place, _power_series: it gives the values in
the disk |xi| <= SERIES_RADIUS and seeds every walk at +-XI_SEED.  Off it,
Taylor steps from the recurrence of that reduced equation continue the
solution along the one route rule, _waypoints: real targets walk the real
axis, non-real ones detour around xi = 1.  Two walks with different step
lengths, in complex doubles first and, if they disagree, in fixed-point
integers at extended precision, bound the error; mpmath numbers carry the
inputs and results of the extended walks and the resonant fit's solve.

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
from itertools import count, islice
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


def _arith(dps) -> _Arith:
    """Python complex doubles for dps=None, else fixed-point integers for a
    caller's dps, carried at dps + TAYLOR_GUARD_DPS digits (at most 250)."""
    if dps is None:
        return _Arith(16, _SERIES_TOL, None)
    if dps > 250:
        # tol and the terms compared with it must stay normal doubles
        raise DomainError(f"dps = {dps} exceeds 250, the range of the tail check")
    digits = dps + TAYLOR_GUARD_DPS
    # the bits of an mpmath number of that many digits
    return _Arith(digits, 10.0 ** (-(dps + 6)), round((digits + 1) * math.log2(10)))


def _falling_row(n: int, d: int) -> list:
    """[n!/(n-j)! for j = 0..d]."""
    row = [1]
    for j in range(d):
        row.append(row[-1] * (n - j))
    return row


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


@lru_cache(maxsize=None)
def _row_tables(s: int, p: int) -> tuple:
    """(ta, tb, den): the integers ta[r][j] = den c_j C(j, r), r < d, and
    tb[r+1][j] = den e_j C(j+1, r+1), r = -1..d-1, of _recurrence_row's
    sums, for den the common denominator of c and e."""
    d, c, e = _ode_fractions(s, p)
    den = math.lcm(*(x.denominator for x in c + e))
    ci = [int(den * x) for x in c]
    ei = [int(den * x) for x in e]
    ta = tuple(tuple(ci[j] * math.comb(j, r) for j in range(d + 1)) for r in range(d))
    tb = tuple(tuple(ei[j] * math.comb(j + 1, r + 1) for j in range(d + 1))
               for r in range(-1, d))
    return ta, tb, den


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
    b_{-1} = 0) to d - 1, integers for den the common denominator of c, e;
    each is a dot product of a _row_tables row with (N+r)!/(N+r-j)!.
    """
    ta, tb, den = _row_tables(s, p)
    d = len(ta)
    falling = [_falling_row(big_n + r, d) for r in range(-1, d + 1)]
    alpha = tuple(sum(map(operator.mul, ta[r], falling[r + 1])) for r in range(d))
    beta = tuple(sum(map(operator.mul, tb[r + 1], falling[r + 1]))
                 for r in range(-1 if big_n else 0, d))
    return alpha, beta, falling[d + 1][d], den


def _fdot(u: list, v: list):
    """sum_k u_k v_k for integers u and complex doubles or integers v."""
    return sum(map(operator.mul, u, v))


def _recurrence_coeffs(s: int, p: int, centre: complex, head):
    """Scaled Taylor coefficients b_n = a_n centre^n of y at centre, in
    complex doubles, from the recurrence of _recurrence_row; head holds
    b_0..b_{d-1}."""
    b = list(head)
    yield from b
    inv = 1 / (_recurrence_row(s, p, 0)[3] * (1 - centre))
    for big_n in count():
        alpha, beta, lead, _ = _recurrence_row(s, p, big_n)
        acc = centre * _fdot(beta, b[max(big_n - 1, 0):]) - _fdot(alpha, b[big_n:])
        b.append(acc * inv / lead)
        yield b[-1]


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
# give conjugates only up to rounding; _continue walks every checked path in
# the upper half plane to keep conjugate paths exact conjugates.


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
    rounded once.
    """
    d = len(re)
    one = 1 << f
    cr, ci = centre
    ir, ii, ie = _fl_div((one, 0), (one - cr, -ci), f)  # 1 / (1 - centre)
    lifts = [k * j for j in range(d + 1)]
    shift = f + ie + k * (d + 1)
    den = _row_tables(s, p)[2]

    def approx(mr, mi):
        n = max(mr.bit_length(), mi.bit_length(), 960) - 960
        return complex(math.ldexp(mr >> n, n - exp), math.ldexp(mi >> n, n - exp))

    for mr, mi in zip(re, im):
        yield approx(mr, mi)
    for big_n in count():
        alpha, beta, lead, _ = _recurrence_row(s, p, big_n)
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


def _taylor_walk(s: int, p: int, path, dps, reach: int = 2) -> _TaylorWalk:
    """Carry (y, y', ..., y^(d-1)) of y(xi) = G_p(zeta_c^2 xi) from path[0]
    through the targets path[1:], in order: in fixed-point integers at dps +
    TAYLOR_GUARD_DPS digits, returned as mpmath numbers, or in Python complex
    doubles for dps=None.

    The path is the polygon path[0] -> path[1] -> ...: it starts in the
    disk of the power series at 0, which gives the seed state (a route
    starts at +-XI_SEED), may be complex, and must keep 1e-9 away from
    xi = 0 and 1; _continue, not the walk, mirrors lower paths.  Each step
    re-expands y at the current centre c from the recurrence of
    _recurrence_row and evaluates it at every following target within
    rho/reach of c, where rho = min(|c|, |1 - c|) is the distance to the
    nearer singular point.  The next centre is the last of those targets
    or, if there is none, the point rho/reach further along the path; these
    choices are made in doubles in either number type.  Each expansion
    stops once its geometric tail is below 10^-(dps+6) relative, or
    _SERIES_TOL in doubles (see _expand); dps is at most 250.  Non-finite
    targets raise DomainError, and a step point that leaves the double
    range (targets beyond about |xi| = 1e154) raises PathError.
    """
    ar = _arith(dps)
    d = _ode_fractions(s, p)[0]
    corners = [complex(t) for t in path]
    pts = corners[1:]
    if not all(cmath.isfinite(z) for z in corners):
        raise DomainError(f"continuation targets must be finite, got {path!r}")
    for a, b in zip(corners, corners[1:]):
        if min(_segment_distance(a, b, z) for z in (0j, 1 + 0j)) < 1e-9:
            raise PathError(f"segment {a} -> {b} passes within 1e-9 of a "
                            "singular point, 0 or 1")
    centre = corners[0]
    with nullcontext() if dps is None else mp.workdps(ar.digits):
        if dps is None:
            step, ends, cx = _double_step, pts, centre
        else:
            f = ar.bits + _POINT_GUARD_BITS
            step, cx = _fx_step, _fx_point(path[0], f)
            ends = [_fx_point(t, f) for t in path[1:]]
        state, terms = _power_series(s, p, cx, d, ar)
        steps, k, states = 0, 0, []
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
                at = [nxt if dps is None else _fx_point(nxt, f)]
            reached, n = step(s, p, d, ar, state, cx, at, far, rho)
            steps += 1
            terms += n
            if served:
                states.extend(reached)
            state, centre, cx = reached[-1], nxt, at[-1]
        if dps is None:
            fact = [math.factorial(i) for i in range(d)]
            states = [[x * g for x, g in zip(st, fact)] for st in states]
        else:
            states = [_fx_values(st, f) for st in states]
    return _TaylorWalk(states, steps, terms, None if dps is None else ar.digits)


# ---------------------------------------------------------------------------
# Continuation along detour paths


#: caller's digits of the fixed-point walks, used when the double walks disagree
_MP_RUNG_DPS = 20


class _Continued(NamedTuple):
    states: list  # complex arrays of kept xi-derivatives, one per node
    dps: "int | None"  # working digits of the accepted walks; None for doubles
    steps: int  # Taylor expansions of the returned walk
    rel_est: float  # largest relative disagreement of the accepted walks


def _continue(s: int, p: int, path, nodes, tol: float, keep=None) -> _Continued:
    """_taylor_walk from path[0] along the corners path and on through nodes;
    returns (y, y', ...) at each node, the first keep components (all d for
    None), within tol relative.

    The one place that imposes Schwarz symmetry: when the first non-real
    target lies below the axis, the walks run on the conjugate targets and
    return conjugated states, so conjugate paths give exact conjugates.

    Two walks serve the targets within rho/2 and rho/3 of each centre.  The
    largest relative disagreement between them of any returned component
    estimates the error, measured to be low by up to 2x, so it must not
    exceed tol/4.  The walks run in complex doubles, and again at
    _MP_RUNG_DPS digits if the doubles disagree or exhaust their term
    budget; the rho/3 walk's states are returned.  Raises AccuracyError when
    the fixed-point walks disagree too.
    """
    targets = [complex(t) for t in (*path, *nodes)]
    mirror = next((t.imag < 0 for t in targets if t.imag), False)
    if mirror:
        targets = [t.conjugate() for t in targets]
    why = ""
    for dps in (None, _MP_RUNG_DPS):
        try:
            coarse, fine = [_taylor_walk(s, p, targets, dps, reach)
                            for reach in (2, 3)]
        except (DivergenceError, OverflowError) as exc:  # doubles may overflow
            why = str(exc)
            continue
        kept = [(a[:keep], b[:keep]) for a, b in
                zip(coarse.states[len(path) - 1:], fine.states[len(path) - 1:])]
        gaps = [float(abs(x - y) / max(abs(y), 1e-300))
                for a, b in kept for x, y in zip(a, b)]
        if all(g <= tol / 4 for g in gaps):
            states = [np.array([complex(x) for x in b]) for _, b in kept]
            if mirror:
                states = [z.conjugate() for z in states]
            return _Continued(states, fine.dps, fine.steps, max(gaps, default=0.0))
        why = f"the walks at rho/2 and rho/3 differ by {max(gaps):.1e} relative"
    raise AccuracyError(
        f"continuation of G_p for (s, p) = ({s}, {p}) misses tol = {tol:.1e} "
        f"at {_MP_RUNG_DPS} digits: {why}"
    )


def _waypoints(xi_t: complex, side: str) -> list:
    """Corners of the route to xi_t, the one rule that picks a walk's path.
    A real target walks the real axis: off the cut from +-XI_SEED on its
    side of 0, so G_p comes out exactly real, and on the cut from 1 + h,
    reached by the detour XI_SEED -> XI_SEED + ih -> 1 + h + ih.  A
    non-real target takes the detour XI_SEED -> XI_SEED + ih -> Re xi_t +
    ih -> xi_t.  h = DETOUR_OFFSET on the side of xi_t, or of side on the
    cut: PathError for side 'none' there or a target across it, and
    DomainError for another side."""
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
    if im == 0.0 and re < 1.0:
        pts = [complex(math.copysign(XI_SEED, re)), xi_t]
    else:
        h = sigma * DETOUR_OFFSET
        # leave the detour over Re xi_t, or over 1 + DETOUR_OFFSET to join
        # the cut; off the cut the corner complex(x, im) is xi_t itself
        x = re if im else 1.0 + DETOUR_OFFSET
        pts = [complex(XI_SEED), complex(XI_SEED, h), complex(x, h), complex(x, im), xi_t]
    return [pt for i, pt in enumerate(pts) if i == 0 or pt != pts[i - 1]]


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

    The first of at least two waypoints must be XI_SEED.  Returns the
    xi-derivative vector (y, y', ..., y^{d-1}) at the final waypoint, within
    CONTINUATION_TOL relative or AccuracyError (see _continue).
    """
    s, p = _validate_sp(s, p)
    if len(waypoints) < 2 or complex(waypoints[0]) != complex(XI_SEED):
        raise PathError(f"paths must go from the seed point xi = {XI_SEED} onwards")
    return _continue(s, p, waypoints[:-1], waypoints[-1:], CONTINUATION_TOL).states[0]


def gp_continue(
    s: int,
    p: int,
    u: complex,
    side: str = "none",
    tol: float = CONTINUATION_TOL,
) -> ContinuationState:
    """Continue G_p to u on the slit plane along the path of _waypoints.

    side selects the lateral boundary value for u on the cut [zeta_c^2, inf);
    'none' is for targets off the cut.  For |u| <= SERIES_RADIUS zeta_c^2
    the state is summed from the power series at 0 (_power_series, which
    also seeds every walk), because transport towards the singular point
    u = 0 loses digits; u = 0 gives G = 1.  Elsewhere it comes from
    the checked Taylor walk (see _continue): within tol relative, or
    AccuracyError.  Real u off the cut walks the real axis, so for every
    side the imaginary parts are exactly zero; on the cut the state is that
    of a one-node cut_trace.  A non-finite u raises DomainError.
    """
    s, p = _validate_sp(s, p)
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
    run = _continue(s, p, pts[:-1], pts[-1:], tol, keep=3)
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
        # ascending xi = 1 - w: one walk towards the branch point
        walk = _taylor_walk(s, p, [XI_SEED, *(1 - w for w in reversed(ws))], dps)
        rhs = [st[0].real for st in reversed(walk.states)]
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

    Two checked walks (see _continue) take the route of _waypoints to xi_0 =
    1 + DETOUR_OFFSET on the cut, then the real axis inward through the
    nodes below xi_0 and outward through the rest, so a single node gets
    gp_continue's state.  Walking back out from near the branch point would
    carry its large high derivatives along: at (5, 10) on fig3's grid that
    path lost 17 of 30 digits.
    """
    s, p = _validate_sp(s, p)
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
            run = _continue(s, p, pts, leg, tol, keep=3)
            states.update((xi, _state(s, p, xi * zc2, side, z,
                                      tuple(_waypoints(complex(xi), side)), run))
                          for xi, z in zip(leg, run.states))
    return [states[xi] for xi in nodes]
