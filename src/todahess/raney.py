"""Exact Raney numbers R_{s,p}(n) and their explicit asymptotics.

R_{s,p}(n) = (p/(sn+p)) * C(sn+p, n) counts the coefficient of t^n in U^p
where U = 1 + t U^s.  Everything here is exact integer / rational arithmetic
except the explicitly float-valued asymptotic helpers, which carry the
products R * zeta^m through multiplicative ratio updates so that the
zeta_c^{-m} growth never overflows.
"""

from __future__ import annotations

import math
import operator

from .errors import DomainError, UnsupportedRangeError


def _integer(name: str, x) -> int:
    """x as a Python int, so no numpy scalar overflows the exact arithmetic;
    DomainError unless x is an integer.  __index__ marks one, a numpy integer
    too (isinstance with numbers.Integral costs about 1 us); a bool does not."""
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise DomainError(f"{name} must be an integer, got {x!r}")
    return operator.index(x)


def _validate_sp(s: int, p: int) -> tuple:
    """(s, p) as Python ints (see _integer); DomainError unless s >= 2, and
    UnsupportedRangeError unless p >= 1."""
    s, p = _integer("s", s), _integer("p", p)
    if s < 2:
        raise DomainError(f"symmetry order s must be >= 2, got {s}")
    if p < 1:
        raise UnsupportedRangeError(f"index p must be >= 1, got {p}")
    return s, p


def raney(s: int, p: int, n: int) -> int:
    """Exact Raney number R_{s,p}(n) as a Python integer."""
    s, p = _validate_sp(s, p)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    num = p * math.comb(s * n + p, n)
    q, r = divmod(num, s * n + p)
    # The quotient is always integral; a nonzero remainder means a bug.
    if r:
        raise ArithmeticError("Raney closed form produced a non-integer")
    return q


def raney_step(s: int, p: int, m):
    """(num, den) with num / den = R_{s,p}(m+1) / R_{s,p}(m).

    num = prod_{k<s} (sm+p+k), den = (m+1) prod_{1<=l<s} ((s-1)m+p+l).  The
    arithmetic follows the type of m: a Python int gives exact integers, a
    float gives float64 products and a numpy array gives elementwise ones
    (p may then be an array too; the two broadcast).
    """
    a, b = s * m + p, (s - 1) * m + p
    num = 1
    for k in range(s):
        num = num * (a + k)
    den = m + 1
    for l in range(1, s):
        den = den * (b + l)
    return num, den


def raney_table(s: int, p: int, n_max: int) -> tuple:
    """(R_{s,p}(0), ..., R_{s,p}(n_max)) via the exact ratio recurrence."""
    s, p = _validate_sp(s, p)
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    vals = [1]
    r = 1
    for n in range(n_max):
        num, den = raney_step(s, p, n)
        q, rem = divmod(r * num, den)
        if rem:
            raise ArithmeticError("ratio recurrence left a remainder")
        r = q
        vals.append(r)
    return tuple(vals)


def convolution_check(s: int, p_list, m: int) -> bool:
    """Check sum over compositions n_1+..+n_k = m of prod R_{s,p_i}(n_i)
    against R_{s, sum p_i}(m), exactly."""
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    for p in p_list:
        _validate_sp(s, p)
    tables = [raney_table(s, p, m) for p in p_list]

    def partial(i, remaining):
        if i == len(tables) - 1:
            return tables[i][remaining]
        total = 0
        for n in range(remaining + 1):
            total += tables[i][n] * partial(i + 1, remaining - n)
        return total

    return partial(0, m) == raney(s, sum(p_list), m)


# ---------------------------------------------------------------------------
# Explicit m^{-3/2} asymptotics


def zeta_c_value(s: int) -> float:
    return (s - 1) ** (s - 1) / float(s**s)


def amplitude(s: int, p: int) -> float:
    """A_{s,p} = p M^p / sqrt(2 pi s (s-1)), M = s/(s-1); DomainError on overflow."""
    s, p = _validate_sp(s, p)
    try:
        amp = p * (s / (s - 1)) ** p / math.sqrt(2.0 * math.pi * s * (s - 1))
    except OverflowError:
        amp = math.inf
    if math.isinf(amp):
        raise DomainError(f"A_{{{s},{p}}} overflows a double")
    return amp


def scaled_raney_seq(s: int, p: int, m_max: int) -> list:
    """h_m = R_{s,p}(m) * zeta_c^m * m^{3/2} for m = 1..m_max, by float ratio
    updates (h stays O(1), so no overflow for any m)."""
    s, p = _validate_sp(s, p)
    zc = zeta_c_value(s)
    # R(1) * zeta_c = p/ (s+p) * C(s+p,1) * zc = p * zc  ... compute exactly:
    r_scaled = float(raney(s, p, 1)) * zc
    out = [r_scaled]  # m = 1, before the m^{3/2} factor
    for m in range(1, m_max):
        num, den = raney_step(s, p, float(m))
        r_scaled *= (num / den) * zc
        out.append(r_scaled)
    return [out[m - 1] * m**1.5 for m in range(1, m_max + 1)]
