"""Analytic continuation of the squared-Raney generating functions.

G_p(u) = sum_m R_{s,p}(m)^2 u^m converges for |u| < zeta_c^2 and extends to
the slit plane C \\ [zeta_c^2, inf).  The coefficient ratio is rational in m,
so G_p is a generalized hypergeometric function; after cancelling common
upper/lower parameters the reduced equation has order q_p + 1 and its only
finite singular points are xi = 0, 1 in xi = u / zeta_c^2.  Continuation is
performed by integrating that reduced equation in theta-form as a companion
first-order system along piecewise-linear paths that detour around xi = 1.

The scalar Gram weights are recovered by the Euler operator
sigma = (1/p) (p + s u d/du)^2 G_p, and the branch-cut jump of sigma gives
the discontinuity density with positive edge value (p/2pi) (s/(s-1))^{2p+1}.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import NamedTuple

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    AccuracyError,
    ConditioningError,
    DomainError,
    DivergenceError,
    PathError,
    StiffnessError,
)
from .maps import thresholds
from .raney import _validate_sp, raney_step

#: default exclusion radius around xi = 1 (relative to zeta_c^2 units)
EXCLUSION_RADIUS = 1e-4
#: default imaginary offset of the detour rectangle
DETOUR_OFFSET = 0.3
#: seed point of all transports
XI_SEED = 0.5
#: gp_continue sums the power series itself for |xi| up to this radius
SERIES_RADIUS = 0.98
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


def _gp_derivs(s: int, p: int, xi: complex, d: int, tol: float) -> list:
    """[y, y', ..., y^(d-1)] of y(xi) = G_p(zeta_c^2 xi) for |xi| < 1,
    from the differentiated power series

        y^(j) = sum_m a_m m!/(m-j)! xi^(m-j).

    Stops once every component's geometric tail, with term ratio
    |xi| (m+1)/(m+1-j), is below tol relative to its partial sum.
    """
    r = abs(xi)
    coef = 1.0  # a_m
    pw = [1.0 + 0.0j]  # xi^0, ..., xi^m; no division by xi, which may underflow
    acc = [pw[0]] + [0j] * (d - 1)
    m = 0
    while True:
        num, den = raney_step(s, p, float(m))
        coef *= (num / den) ** 2 * (s - 1.0) ** (2 * s - 2) / float(s) ** (2 * s)
        pw.append(pw[-1] * xi)
        m += 1
        contrib = [0j] * d
        ff = 1.0  # m!/(m-j)!
        for j in range(min(d, m + 1)):
            contrib[j] = coef * ff * pw[m - j]
            acc[j] += contrib[j]
            ff *= m - j
        ratios = (r * (1.0 + j / (m + 1 - j)) for j in range(d))
        if m >= 4 * d and all(
            q < 1.0 and abs(c) * q / (1.0 - q + 1e-300) <= tol * max(abs(a), 1e-300)
            for c, a, q in zip(contrib, acc, ratios)
        ):
            return acc
        if m > 200000:
            raise DivergenceError("G_p power series failed to reach tolerance")


def gp_series(s: int, p: int, u: complex, tol: float = 1e-14):
    """G_p(u) by direct summation; only inside |u| <= SERIES_RADIUS zeta_c^2."""
    _validate_sp(s, p)
    zc2 = float(thresholds(s).zeta_c) ** 2
    if abs(u) > SERIES_RADIUS * zc2:
        raise DivergenceError(
            f"|u| = {abs(u):.3g} beyond {SERIES_RADIUS} * zeta_c^2 = "
            f"{SERIES_RADIUS * zc2:.3g}; "
            "use gp_continue for the slit-plane continuation"
        )
    acc = _gp_derivs(s, p, complex(u) / zc2, 1, tol)[0]
    return acc.real if complex(u).imag == 0.0 else acc


# ---------------------------------------------------------------------------
# Reduced ODE in theta form and its companion system


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


class _OdeData(NamedTuple):
    d: int  # order of the reduced equation
    c: np.ndarray  # c_j = sum_k p_k S(k, j)   (theta-poly of the lower data)
    e: np.ndarray  # e_j = sum_k r_k S(k, j)   (theta-poly of the upper data)


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


@lru_cache(maxsize=None)
def _ode_data(s: int, p: int) -> _OdeData:
    """_ode_fractions in double precision, for the DOP853 companion system."""
    d, c, e = _ode_fractions(s, p)
    return _OdeData(d=d, c=np.array([float(x) for x in c]),
                    e=np.array([float(x) for x in e]))


def _rhs_factory(data: _OdeData):
    d, c, e = data.d, data.c, data.e

    def rhs(xi: complex, z: np.ndarray) -> np.ndarray:
        acc = 0.0 + 0.0j
        xp = 1.0 + 0.0j
        for j in range(d):
            acc += xp * (c[j] - xi * e[j]) * z[j]
            xp *= xi
        top = -acc / (xp * (1.0 - xi))
        out = np.empty(d, dtype=np.complex128)
        out[:-1] = z[1:]
        out[-1] = top
        return out

    return rhs


def _integrate(data: _OdeData, z0, xi_a: complex, xi_b: complex, tol: float,
               xi_eval=None):
    """DOP853 on the companion system along the segment xi_a -> xi_b.

    Returns the state vector at xi_b or, given xi_eval (points of the
    segment ordered from xi_a to xi_b), an array whose columns are the
    states at those points.
    """
    span = xi_b - xi_a
    if span == 0:
        return z0 if xi_eval is None else np.tile(z0[:, None], len(xi_eval))
    rhs = _rhs_factory(data)

    def f(tau, z):
        return span * rhs(xi_a + span * tau, z)

    t_eval = None if xi_eval is None else ((np.asarray(xi_eval) - xi_a) / span).real
    atol = np.maximum(np.abs(z0), 1.0) * tol * 1e-2
    sol = solve_ivp(
        f,
        (0.0, 1.0),
        np.asarray(z0, dtype=np.complex128),
        method="DOP853",
        rtol=max(tol, 1e-13),
        atol=atol,
        t_eval=t_eval,
    )
    if not sol.success:
        raise StiffnessError(
            f"ODE transport failed on segment {xi_a} -> {xi_b}: {sol.message}"
        )
    return sol.y[:, -1] if xi_eval is None else sol.y


def _waypoints(xi_t: complex, side: str, h: float):
    xi0 = complex(XI_SEED)
    re, im = xi_t.real, xi_t.imag
    if side == "none":
        if im == 0.0 and re >= 1.0:
            raise PathError("target on the cut: pass side='above' or side='below'")
        if im == 0.0 and 0.02 <= re <= 0.98:
            return [xi0, xi_t]
        sigma = 1.0 if im >= 0 else -1.0
    elif side in ("above", "below"):
        sigma = 1.0 if side == "above" else -1.0
        if im != 0.0 and math.copysign(1.0, im) != sigma:
            raise PathError(f"target {xi_t} is on the opposite side of the cut")
    else:
        raise DomainError(f"side must be 'above', 'below' or 'none', got {side!r}")
    pts = [xi0, complex(XI_SEED, sigma * h), complex(re, sigma * h), xi_t]
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
    derivs: tuple  # (G, G', G'', ...) with respect to u
    path: tuple  # xi-plane waypoints actually used

    @property
    def value(self) -> complex:
        return self.derivs[0]


def _state(s: int, p: int, u: complex, side: str, z, path) -> ContinuationState:
    """State at u from the xi-derivatives z of y(xi) = G_p(zeta_c^2 xi)."""
    zc2 = float(thresholds(s).zeta_c) ** 2
    derivs = tuple(z[j] / zc2**j for j in range(len(z)))
    return ContinuationState(s=s, p=p, u=u, side=side, derivs=derivs, path=path)


def transport(s: int, p: int, waypoints, tol: float = 1e-12) -> np.ndarray:
    """Low-level: carry the solution vector along explicit xi waypoints.

    The first waypoint must be XI_SEED.  Returns the xi-derivative vector
    (y, y', ..., y^{d-1}) at the final waypoint.
    """
    data = _ode_data(s, p)
    if complex(waypoints[0]) != complex(XI_SEED):
        raise PathError(f"paths must start at the seed point xi = {XI_SEED}")
    z = np.array(_gp_derivs(s, p, XI_SEED, data.d, _SERIES_TOL), dtype=np.complex128)
    for a, b in zip(waypoints, waypoints[1:]):
        z = _integrate(data, z, complex(a), complex(b), tol)
    return z


def gp_continue(
    s: int,
    p: int,
    u: complex,
    side: str = "none",
    tol: float = 1e-12,
    detour: float = DETOUR_OFFSET,
    exclusion: float = EXCLUSION_RADIUS,
) -> ContinuationState:
    """Continue G_p to u on the slit plane along a detour path.

    side selects the lateral boundary value for u on the cut [zeta_c^2, inf);
    'none' is for targets off the cut.  For |u| <= SERIES_RADIUS zeta_c^2
    the state is summed from the power series at u, because transport
    towards the singular point u = 0 loses digits.  Inside the exclusion
    disk around zeta_c^2 the ODE is too stiff and the value is reported from
    the fitted resonant local model instead.
    """
    _validate_sp(s, p)
    side = side or "none"
    zc2 = float(thresholds(s).zeta_c) ** 2
    uc = complex(u)
    if uc == 0:
        raise PathError("u = 0 is a singular point of the transport ODE; "
                        "gp_series covers the disk")
    xi_t = uc / zc2
    if abs(xi_t - 1.0) < exclusion:
        return _local_model_state(s, p, uc, side)
    pts = _waypoints(xi_t, side, detour)
    if abs(xi_t) <= SERIES_RADIUS:
        z = _gp_derivs(s, p, xi_t, _ode_data(s, p).d, _SERIES_TOL)
        return _state(s, p, uc, side, z, (xi_t,))
    return _state(s, p, uc, side, transport(s, p, pts, tol), tuple(pts))


def sigma_cont(
    s: int, p: int, u: complex, side: str = "none", tol: float = 1e-12
) -> complex:
    """Continued scalar Gram weight
    (1/p) [p^2 G + s(2p+s) u G' + s^2 u^2 G''] at u."""
    st = gp_continue(s, p, u, side, tol)
    return sigma_from_state(st)


def sigma_from_state(st: ContinuationState) -> complex:
    g, g1, g2 = st.derivs[0], st.derivs[1], st.derivs[2]
    s, p, u = st.s, st.p, st.u
    return (p * p * g + s * (2 * p + s) * u * g1 + s * s * u * u * g2) / p


# ---------------------------------------------------------------------------
# Extended-precision Taylor steps


#: decimal digits the Taylor-step engine carries above the caller's dps
TAYLOR_GUARD_DPS = 10


class _TaylorWalk(NamedTuple):
    states: list  # [y, y', ..., y^(d-1)] at each target, mpmath numbers
    steps: int  # expansions from the recurrence (the seed series not counted)
    terms: int  # Taylor coefficients computed, seed series included
    dps: int  # working precision, decimal digits


def _falling_row(n: int, d: int) -> list:
    """[n!/(n-j)! for j = 0..d]."""
    row = [1]
    for j in range(d):
        row.append(row[-1] * (n - j))
    return row


def _seed_coeffs(s: int, p: int):
    """Power-series coefficients a_m of y(xi) = G_p(zeta_c^2 xi) at 0, in the
    current mpmath precision."""
    a = mp.mpf(1)
    for m in count():
        yield a
        num, den = _coeff_step(s, p, m)
        a = a * num / den


def _recurrence_coeffs(s: int, p: int, centre, head):
    """Scaled Taylor coefficients b_n = a_n centre^n of y at centre.

    head holds b_0..b_{d-1}.  The coefficient of (xi - centre)^N in
    sum_j xi^j (c_j - xi e_j) y^(j) = 0 is, after scaling by centre^N,

        sum_{r=-1}^{d} b_{N+r} (alpha_r(N) - centre beta_r(N)) = 0,
        alpha_r(N) = sum_j c_j C(j, r) (N+r)!/(N+r-j)!,
        beta_r(N) = sum_j e_j C(j+1, r+1) (N+r)!/(N+r-j)!,

    a (d+2)-term recurrence whose integer parts do not depend on the centre;
    alpha_d = beta_d = (N+d)!/N!.  Falling-factorial rows are computed once
    per index n.
    """
    d, c, e = _ode_fractions(s, p)
    den = math.lcm(*(x.denominator for x in c + e))
    # den alpha_r(N) and den beta_r(N) are these integer rows dotted with
    # the falling-factorial row of N + r
    ca = [[int(den * c[j]) * math.comb(j, r) for j in range(d + 1)]
          for r in range(d)]
    eb = [[int(den * e[j]) * math.comb(j + 1, r + 1) for j in range(d + 1)]
          for r in range(-1, d)]
    inv = 1 / (den * (1 - centre))
    b = list(head)
    yield from b
    rows = [_falling_row(n, d) for n in range(d)]
    for big_n in count():
        rows.append(_falling_row(big_n + d, d))
        lo = max(big_n - 1, 0)  # b_{-1} = 0
        alpha = [_idot(ca[r], rows[big_n + r]) for r in range(d)]
        beta = [_idot(eb[n - big_n + 1], rows[n]) for n in range(lo, big_n + d)]
        acc = centre * mp.fdot(beta, b[lo:]) - mp.fdot(alpha, b[big_n:])
        b.append(acc * inv / rows[big_n + d][d])
        yield b[-1]


def _idot(u: list, v: list) -> int:
    return sum(map(int.__mul__, u, v))


def _expand(coeffs, tau_far, ratio: float, d: int, tol: float, budget: int) -> list:
    """Draw Taylor coefficients b_0, b_1, ... from coeffs until every
    component sum_n b_n n!/(n-i)! tau^(n-i), i < d, has a geometric tail at
    tau_far below tol relative to its partial sum.  The term ratio of
    component i is taken as ratio (n+1)/(n+1-i), as in _gp_derivs; the
    check itself runs in complex doubles.
    """
    out = []
    sums = [0j] * d
    pw = mp.mpf(1)
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


def _shift(coeffs: list, tau, d: int) -> list:
    """P^(i)(tau) / i!, i < d, for P(tau) = sum_n coeffs[n] tau^n."""
    acc = [mp.mpf(0)] * d
    for b in reversed(coeffs):
        for i in range(d - 1, 0, -1):
            acc[i] = acc[i] * tau + acc[i - 1]
        acc[0] = acc[0] * tau + b
    return acc


def _segment_distance(a: complex, b: complex, z: complex) -> float:
    """Distance from z to the segment [a, b]."""
    v = b - a
    lam = 0.0 if v == 0 else ((z - a) * v.conjugate()).real / abs(v) ** 2
    return abs(a + min(max(lam, 0.0), 1.0) * v - z)


def _taylor_walk(s: int, p: int, targets, dps: int) -> _TaylorWalk:
    """Carry (y, y', ..., y^(d-1)) of y(xi) = G_p(zeta_c^2 xi) from XI_SEED
    through targets, in order, at dps + TAYLOR_GUARD_DPS digits.

    The path is the polygon XI_SEED -> targets[0] -> targets[1] -> ...;
    targets may be complex, and the path must keep 1e-9 away from xi = 0
    and 1.  The seed state is summed from the power series at 0.  Each step
    re-expands y at the current centre c from the recurrence of
    _recurrence_coeffs and evaluates it at every following target within
    rho/2 of c, where rho = min(|c|, |1 - c|) is the distance to the nearer
    singular point.
    The next centre is the last of those targets or, if there is none, the
    point rho/2 further along the path.  Each expansion stops once its
    geometric tail is below 10^-(dps+6) relative (see _expand); dps is at
    most 250.
    """
    if dps > 250:
        # tol and the terms compared with it must stay normal doubles
        raise DomainError(f"dps = {dps} exceeds 250, the range of the tail check")
    d = _ode_fractions(s, p)[0]
    work = dps + TAYLOR_GUARD_DPS
    tol = 10.0 ** (-(dps + 6))
    # ratio <= 1/2 needs about 3.3 terms per digit, plus the growth of n!/(n-d)!
    budget = 10 * work + 20 * d
    with mp.workdps(work):
        pts = [mp.mpmathify(t) for t in targets]
        corners = [complex(XI_SEED)] + [complex(t) for t in pts]
        for a, b in zip(corners, corners[1:]):
            if min(_segment_distance(a, b, z) for z in (0j, 1 + 0j)) < 1e-9:
                raise PathError(f"segment {a} -> {b} passes within 1e-9 of a "
                                "singular point, 0 or 1")
        centre = mp.mpf(XI_SEED)
        seed = _expand(_seed_coeffs(s, p), centre, 0.5, d, tol, budget)
        taylor = _shift(seed, centre, d)  # y^(i)(centre) / i!
        steps, terms = 0, len(seed)
        states = []
        k = 0
        while k < len(pts):
            rho = min(abs(centre), abs(1 - centre))
            served = []
            while k < len(pts) and abs(pts[k] - centre) <= rho / 2:
                served.append(pts[k])
                k += 1
            if served:
                nxt = served[-1]
            else:
                nxt = centre + rho / 2 * (pts[k] - centre) / abs(pts[k] - centre)
            far = max(abs(t - centre) for t in served or [nxt])
            # y(centre + centre tau) = sum_n b_n tau^n
            head = [taylor[i] * centre**i for i in range(d)]
            coeffs = _expand(_recurrence_coeffs(s, p, centre, head),
                             far / abs(centre), float(far / rho), d, tol, budget)
            steps += 1
            terms += len(coeffs)
            scale = [centre**-i for i in range(d)]
            reached = [
                [x * f for x, f in zip(_shift(coeffs, (t - centre) / centre, d), scale)]
                for t in served or [nxt]
            ]
            if served:
                states.extend(reached)
            taylor = reached[-1]
            centre = nxt
        fact = [math.factorial(i) for i in range(d)]
        states = [[x * f for x, f in zip(st, fact)] for st in states]
    return _TaylorWalk(states, steps, terms, work)


# ---------------------------------------------------------------------------
# Resonant expansion at the branch point


class BranchCoefficient(NamedTuple):
    """B(zeta_c^2) = rational / pi (pi_power = -1); always negative."""

    rational: Fraction
    pi_power: int

    @property
    def value(self) -> float:
        return float(self.rational) * math.pi**self.pi_power


def B_closed_form(s: int, p: int) -> BranchCoefficient:
    """B(zeta_c^2) = -(p^2/4pi) s^{2p-1}/(s-1)^{2p+1}."""
    _validate_sp(s, p)
    return BranchCoefficient(
        rational=Fraction(-(p**2) * s ** (2 * p - 1), 4 * (s - 1) ** (2 * p + 1)),
        pi_power=-1,
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
    B_at_branch: float
    A_fit: float
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
        ata = amat.T * amat
        atb = amat.T * bvec
        try:
            coef = mp.lu_solve(ata, atb)
        except ZeroDivisionError as exc:
            raise ConditioningError("normal equations singular") from exc
        resid = amat * coef - bvec
        rel = max(abs(resid[i]) / abs(bvec[i]) for i in range(len(rhs)))
        coeffs = tuple(float(coef[i]) for i in range(6))
    return ResonantCoefficients(
        s=s,
        p=p,
        B_at_branch=B_closed_form(s, p).value,
        A_fit=coeffs[0],
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


def _local_model_state(s: int, p: int, u: complex, side: str) -> ContinuationState:
    """G and two u-derivatives from the resonant model inside the exclusion
    disk around the branch point."""
    fit = _cached_fit(s, p)
    a0, a1, a2, a3, b2, b3 = fit.coeffs
    zc2 = float(thresholds(s).zeta_c) ** 2
    w = 1.0 - complex(u) / zc2
    if w.real < 0 and w.imag == 0.0:
        if side == "above":
            lw = complex(math.log(abs(w)), -math.pi)
        elif side == "below":
            lw = complex(math.log(abs(w)), math.pi)
        else:
            raise PathError("on-cut local model needs side='above' or 'below'")
    else:
        lw = cmath.log(w)
    g = a0 + a1 * w + a2 * w**2 + a3 * w**3 + (b2 + b3 * w) * w**2 * lw
    dg_dw = (
        a1
        + 2 * a2 * w
        + 3 * a3 * w**2
        + 2 * b2 * w * lw
        + b2 * w
        + 3 * b3 * w**2 * lw
        + b3 * w**2
    )
    d2g_dw2 = (
        2 * a2
        + 6 * a3 * w
        + 2 * b2 * lw
        + 3 * b2
        + 6 * b3 * w * lw
        + 5 * b3 * w
    )
    du = -1.0 / zc2  # dw/du
    derivs = (g, dg_dw * du, d2g_dw2 * du * du)
    return ContinuationState(
        s=s, p=p, u=complex(u), side=side, derivs=derivs, path=("local-model",)
    )


# ---------------------------------------------------------------------------
# Discontinuity density across the cut


def disc_density_rho(s: int, p: int, u: float, tol: float = 1e-6) -> float:
    """rho_p(u) from the two lateral transports of the continued weight.

    Orientation follows the edge-positive convention: rho(zeta_c^2) =
    (p/2pi)(s/(s-1))^{2p+1} > 0.  The imaginary residue (a Schwarz-symmetry
    check, since both sides are computed independently) must stay below tol.
    """
    zc2 = float(thresholds(s).zeta_c) ** 2
    if not u > zc2 * (1.0 + 1e-4):
        raise DomainError(
            f"u must exceed zeta_c^2 (1 + 1e-4) = {zc2 * (1 + 1e-4):.6g}"
        )
    sa = sigma_cont(s, p, u, "above")
    sb = sigma_cont(s, p, u, "below")
    val = (sa - sb) / (2.0j * math.pi)
    if abs(val.imag) > tol * max(1.0, abs(val.real)):
        raise AccuracyError(
            f"imaginary residue {val.imag:.2e} of rho exceeds tol = {tol:.1e}"
        )
    return val.real


def cut_trace(s, p, xi_nodes, side: str = "above", tol: float = 1e-12):
    """States along the cut at the given xi nodes (all > 1), in ascending xi.

    Transports via the detour to xi_0 = 1 + DETOUR_OFFSET on the cut, then
    integrates along the real axis inward to the nodes below xi_0 and
    outward to the rest, one leg each with dense output.  Starting a detour
    height away from the branch point keeps the large high derivatives near
    xi = 1 out of the initial state of the legs.
    """
    nodes = sorted(float(x) for x in xi_nodes)
    if nodes[0] < 1.0 + EXCLUSION_RADIUS:
        raise DomainError(
            f"cut_trace nodes must satisfy xi >= 1 + {EXCLUSION_RADIUS:g} "
            "(the ODE is too stiff inside the branch-point exclusion disk)"
        )
    data = _ode_data(s, p)
    zc2 = float(thresholds(s).zeta_c) ** 2
    xi0 = 1.0 + DETOUR_OFFSET
    pts = tuple(_waypoints(complex(xi0), side, DETOUR_OFFSET))
    z0 = transport(s, p, pts, tol)
    inner = sorted({x for x in nodes if x < xi0}, reverse=True)
    outer = sorted({x for x in nodes if x >= xi0})
    z_in = _integrate(data, z0, xi0, inner[-1] if inner else xi0, tol, inner)
    z_out = _integrate(data, z0, xi0, outer[-1] if outer else xi0, tol, outer)
    col = dict(zip(inner + outer, np.concatenate([z_in, z_out], axis=1).T))
    return [_state(s, p, xi * zc2, side, col[xi], (*pts, xi)) for xi in nodes]
