"""Closed-form machinery for minimizing star counts over the KR family.

For t > r >= 2 and n >= 2t-1 the number of r-stars in KR_{t,n}(m) is

    s_r = m*C(m-1, r) + (n-m)*C(t-1, r)   [+ C(m-1, r-1) when the
                                           product (t-1)(n-m) is odd]

and the consecutive difference for odd t is

    D(m) = (r+1)*C(m, r) - C(t-1, r),

which is increasing with a unique real root xbar on (r-1, oo); the
minimizing m is ceil(xbar), with a tie exactly when xbar is an integer.
The exact scan over m in 0..t-1 is always the source of truth; the root
is a cross-check (for even t the parity term alternates with m, so the
printed difference is exact only when t is odd).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, isqrt

from .errors import DomainError

XBAR_TOL = 1e-9
XBAR_INT_WINDOW = 1e-6
# t(i) has about 0.57 i digits and tie_ts keeps every term: the cap bounds
# memory at the last i whose term fits CPython's default 4,300-digit int -> str
TIE_TS_MAX = 7518


@dataclass(frozen=True)
class StarStarInstance:
    """Optimizer state for one (n, r, t): the per-m counts, the minimum,
    the minimizing m (smallest on ties), the tie flag, and the real root
    (r >= 2 only), bisected on first read."""

    n: int
    r: int
    t: int
    values: dict
    satnum: int
    m0: int
    tie: bool

    @cached_property
    def xbar(self) -> float | None:
        return xbar(self.r, self.t) if self.r >= 2 else None


def gen_binom(x, k: int):
    """Generalized binomial coefficient x(x-1)...(x-k+1)/k!."""
    if k < 0:
        raise DomainError("lower index must be nonnegative")
    if isinstance(x, int):
        if x >= 0:
            return comb(x, k)
        # product of k consecutive integers is divisible by k!
        num = 1
        for i in range(k):
            num *= x - i
        return num // factorial(k)
    prod = 1.0
    for i in range(k):
        prod *= x - i
    return prod / factorial(k)


def sr_kr_formula(t: int, n: int, m: int, r: int) -> int:
    """Exact r-star count of KR_{t,n}(m)."""
    if not t > r >= 2:
        raise DomainError(f"need t > r >= 2, got t={t}, r={r}")
    if not 0 <= m <= t - 1:
        raise DomainError(f"need 0 <= m <= t-1, got m={m}")
    if n - m < t:
        raise DomainError(f"need n-m >= t, got n-m={n - m}")
    value = (m * comb(m - 1, r) if m else 0) + (n - m) * comb(t - 1, r)
    if ((t - 1) * (n - m)) % 2 == 1:
        if m == 0:
            raise DomainError("odd parity with m=0 has no bridge endpoint",
                              code="bridge")
        value += comb(m - 1, r - 1)
    return value


def delta(m: int, r: int, t: int) -> int:
    """D(m) = (r+1)C(m,r) - C(t-1,r), the odd-t consecutive difference."""
    if m < 0 or not t > r >= 2:
        raise DomainError("need m >= 0 and t > r >= 2")
    return (r + 1) * comb(m, r) - comb(t - 1, r)


def xbar(r: int, t: int) -> float:
    """Unique root of (r+1)*C(x,r) - C(t-1,r) on (r-1, oo), to 1e-9.

    Bisection on the increasing convex branch; bracket [r-1, t-1] is
    valid since D(r-1) < 0 and D(t-1) > 0.
    """
    if not t > r >= 2:
        raise DomainError(f"need t > r >= 2, got t={t}, r={r}")
    target = comb(t - 1, r)

    def d(x: float) -> float:
        return (r + 1) * gen_binom(x, r) - target

    # D(r-1) = -C(t-1,r) < 0 and D(t-1) = r*C(t-1,r) > 0 bracket the root
    lo, hi = float(r - 1), float(t - 1)
    while hi - lo > XBAR_TOL:
        mid = (lo + hi) / 2
        if d(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    nearest = round(root)
    if abs(root - nearest) < XBAR_INT_WINDOW and delta(nearest, r, t) == 0:
        return float(nearest)
    return root


def _kr_edge_count(t: int, n: int, m: int) -> int:
    """Edge count of KR_{t,n}(m) (the s_1 = |E| objective); the bridge
    of an odd product needs m >= 1, which _scan_values sees to."""
    return comb(m, 2) + ((t - 1) * (n - m) + 1) // 2


def _scan_values(n: int, r: int, t: int) -> dict[int, int]:
    values: dict[int, int] = {}
    for m in range(t):
        if n - m < t:
            continue
        if ((t - 1) * (n - m)) % 2 == 1 and m == 0:
            continue  # no bridge endpoint; provably never the minimum
        values[m] = (_kr_edge_count(t, n, m) if r == 1
                     else sr_kr_formula(t, n, m, r))
    return values


def m0(n: int, r: int, t: int) -> tuple[int, bool]:
    """Exact minimizer of s_r(KR_{t,n}(m)) over m (smallest on ties) and
    a flag for whether the minimum is attained more than once."""
    inst = star_star_instance(n, r, t)
    return inst.m0, inst.tie


def satnum_star_star(n: int, r: int, t: int) -> int:
    """Minimum r-star count among S_t-saturated graphs on n vertices.

    Zero when r >= t and n >= 1 (no S_t-free graph has a vertex of
    degree >= t, hence none of degree >= r)."""
    if t < 2:
        raise DomainError("need t >= 2")
    if r < 1:
        raise DomainError("need r >= 1")
    if r >= t:
        if n < 1:
            raise DomainError(f"need n >= 1, got n={n}")
        return 0
    return star_star_instance(n, r, t).satnum


def star_star_instance(n: int, r: int, t: int) -> StarStarInstance:
    """Bundle the full optimizer state for one parameter triple."""
    if not t > r >= 1:
        raise DomainError(f"need t > r >= 1, got t={t}, r={r}")
    if n < 2 * t - 1:
        raise DomainError(f"need n >= 2t-1 = {2 * t - 1}, got n={n}")
    values = _scan_values(n, r, t)
    best = min(values.values())
    winners = [m for m, v in values.items() if v == best]  # m ascending
    return StarStarInstance(
        n=n, r=r, t=t, values=values, satnum=best, m0=winners[0],
        tie=len(winners) > 1)


def r2_xbar(t: int) -> float:
    """Closed form for r = 2: 1/2 + sqrt(12t^2 - 36t + 33)/6."""
    if t < 3:
        raise DomainError("need t >= 3")
    return 0.5 + (12 * t * t - 36 * t + 33) ** 0.5 / 6


def tie_ts(i_max: int) -> list[int]:
    """t-values where two consecutive m tie for r = 2: t(i) = a(i) + 2
    with a(i) = 4a(i-1) - a(i-2) + 1, a(0) = 0, a(1) = 2."""
    if i_max < 0:
        raise DomainError("need i_max >= 0")
    if i_max > TIE_TS_MAX:
        raise DomainError(f"need i_max <= {TIE_TS_MAX}, got {i_max}",
                          code="capacity")
    a = [0, 2]
    while len(a) <= i_max:
        a.append(4 * a[-1] - a[-2] + 1)
    return [ai + 2 for ai in a[:i_max + 1]]


def tie_square_scan(t_max: int) -> list[int]:
    """All t <= t_max with 12t^2 - 36t + 33 a perfect square (the exact
    integrality condition for the r = 2 root)."""
    out = []
    for t in range(2, t_max + 1):
        v = 12 * t * t - 36 * t + 33
        s = isqrt(v)
        if s * s == v:
            out.append(t)
    return out


def m0_lower_bounds(r: int, t: int) -> dict:
    """The two lower bounds on the minimizer for odd t:
    (t+1)/2 and (t-1)/(r+1)^(1/r)."""
    if t < 3 or t % 2 == 0:
        raise DomainError("bounds require odd t >= 3")
    if not t > r >= 2:
        raise DomainError("need t > r >= 2")
    return {"half_bound": Fraction(t + 1, 2), "root_bound": m0_estimate(r, t)}


def m0_estimate(r: int, t: int) -> float:
    """First-order size of the minimizer: (t-1)/(r+1)^(1/r)."""
    if r < 2:
        raise DomainError("need r >= 2")
    if t <= r:
        raise DomainError(f"need t > r, got t={t}, r={r}")
    return (t - 1) / (r + 1) ** (1 / r)
