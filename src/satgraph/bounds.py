"""Closed-form bounds and thresholds for saturation problems.

Thresholds that divide integers are returned as exact Fractions (or
ints); square roots force floats, except that discriminants which are
perfect rational squares are evaluated exactly so boundary equalities
hold without floating-point wobble.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, isqrt

from .counting import independence_number, maximum_independent_sets
from .errors import DomainError, SplitPathFreeError
from .patterns import PatternSpec


def ehm_value(n: int, t: int) -> int:
    """Minimum edge count among K_t-saturated graphs:
    (n-t+2)(t-2) + C(t-2, 2)."""
    if not n >= t >= 2:
        raise DomainError(f"need n >= t >= 2, got n={n}, t={t}")
    return (n - t + 2) * (t - 2) + comb(t - 2, 2)


def cl_value(n: int, r: int, t: int) -> int:
    """Minimum K_r count among K_t-saturated graphs (n large):
    (n-t+2)*C(t-2, r-1) + C(t-2, r)."""
    if not t > r >= 2:
        raise DomainError(f"need t > r >= 2, got t={t}, r={r}")
    if n < t:
        raise DomainError(f"need n >= t, got n={n}")
    return (n - t + 2) * comb(t - 2, r - 1) + comb(t - 2, r)


def _check_partite(r: int, t: int, c) -> None:
    if r < 3 or t < 3:
        raise DomainError("need r >= 3 and t >= 3")
    if not 0 <= c <= r - 2:
        raise DomainError(f"c must lie in [0, r-2], got c={c}")


def partite_threshold(r: int, t: int, c: int) -> int:
    """n1(c) = (r-c)*ceil((t-1)/(r-c-1)) + (r-c)."""
    _check_partite(r, t, c)
    rc = r - c
    return rc * -(-(t - 1) // (rc - 1)) + rc


def partite_threshold_smooth(r: int, t: int, c) -> Fraction:
    """n2(c) = (r-c)*(t-1)/(r-c-1) + (r-c), the ceiling-free version.

    Accepts rational c anywhere on [0, r-2]."""
    _check_partite(r, t, c)
    rc = Fraction(r) - Fraction(c)
    return rc * Fraction(t - 1) / (rc - 1) + rc


def smooth_minimizer_c(r: int, t: int) -> float:
    """Unconstrained minimizer of n2: c = r - 1 - sqrt(t-1), clamped to
    [0, r-2]."""
    _check_partite(r, t, 0)
    c = r - 1 - (t - 1) ** 0.5
    return min(max(c, 0.0), float(r - 2))


def best_c(r: int, t: int) -> dict:
    """Scan all c in 0..r-2 for the smallest construction threshold n1(c).

    Returns the minimizing c (smallest on ties), n1(c), and the full
    existence threshold max(t+1, n1(c))."""
    _check_partite(r, t, 0)
    values = {c: partite_threshold(r, t, c) for c in range(r - 1)}
    cbest = min(values, key=lambda c: (values[c], c))
    return {"c": cbest, "n1": values[cbest],
            "threshold": max(t + 1, values[cbest]),
            "all": values}


def partite_necessary(r: int, t: int) -> Fraction:
    """Necessary order r(t-1)/(r-1) for an r-partite S_t-saturated graph."""
    _check_partite(r, t, 0)
    return Fraction(r * (t - 1), r - 1)


def _sqrt_exact(x: Fraction):
    """Exact rational square root, or None."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    sp, sq = isqrt(p), isqrt(q)
    if sp * sp == p and sq * sq == q:
        return Fraction(sp, sq)
    return None


def krfree_bound(r: int, t: int, m: int):
    """Lower bound on the order of an S_t-saturated graph with no
    K_{r+1} and m low-degree vertices:

        (r/(r-1)) * ((t-1)/2 + sqrt(((t-1)/2)^2 - m(r-1)(t-m)/r)).

    Exact Fraction when the discriminant is a perfect rational square,
    float otherwise.  A negative discriminant raises DomainError with code
    "discriminant": there the bound places no constraint on n.  It does
    not mean that no such graph exists: at t=5, r=4, m=2, for example,
    350 K_5-free S_5-saturated graphs with two vertices of degree below 4
    exist on at most 10 vertices."""
    if r < 2:
        raise DomainError("need r >= 2")
    if not 0 <= m <= r:
        raise DomainError(f"need 0 <= m <= r, got m={m}")
    if t < 2:
        raise DomainError("need t >= 2")
    half = Fraction(t - 1, 2)
    disc = half * half - Fraction(m * (r - 1) * (t - m), r)
    if disc < 0:
        raise DomainError(f"negative discriminant {disc}", code="discriminant")
    root = _sqrt_exact(disc)
    factor = Fraction(r, r - 1)
    if root is not None:
        return factor * (half + root)
    return float(factor) * (float(half) + float(disc) ** 0.5)


def krfree_bound_at_r(r: int, t: int):
    """The m = r specialization (the binding case: the bound decreases
    in m for m < t/2 and low-degree vertices number at most r)."""
    return krfree_bound(r, t, r)


def kt_threshold(f: PatternSpec) -> dict:
    """Clique-threshold data for a forbidden graph F on t vertices:
    alpha = independence number, d = fewest edges from a vertex into a
    maximum independent set, u = t - alpha - 1 universal peels, and
    r_min = t - alpha + d, from which point on sat_{K_r}(n, F) = 0.

    r_min is sufficient, not necessary: an exhaustive search for K_r-free
    F-saturated graphs on n <= 10 vertices found them below r_min too
    (at r = 3 for S3 on 4..10 vertices and for P5 and C5 on 6..10)."""
    fg = f.to_graph()
    if fg.num_edges() == 0:
        raise DomainError("threshold needs a pattern with at least one edge")
    t = fg.n
    alpha = independence_number(fg)
    d = min(
        (fg.adj[v] & smask).bit_count()
        for s in maximum_independent_sets(fg)
        for smask in [sum(1 << x for x in s)]
        for v in range(t) if not smask >> v & 1
    )
    return {"t": t, "alpha": alpha, "d": d,
            "u": t - alpha - 1, "r_min": t - alpha + d}


def path_sat_threshold(t: int) -> int:
    """Order from which path-saturated trees exist:
    3*2^((t+1)/2-1) - 2 for odd t, 2^(t/2+1) - 2 for even t."""
    if t < 3:
        raise DomainError("need t >= 3")
    if t % 2 == 1:
        return 3 * 2 ** ((t + 1) // 2 - 1) - 2
    return 2 ** (t // 2 + 1) - 2


def split_path_leading(n: int, t: int, r: int) -> int:
    """Leading term (1/2) C(n-t+2, k) (t-2)_k k! with k = ceil((r+1)/2)
    for the number of (r+1)-vertex paths in the split graph."""
    if t < 4:
        raise DomainError("need t >= 4")
    if r < 2:
        raise DomainError("need r >= 2")
    if r >= 2 * t - 2:
        raise SplitPathFreeError(
            f"split graph is P_{r + 1}-free for r >= 2t-2 = {2 * t - 2}")
    k = (r + 2) // 2
    if k > t - 2:
        raise DomainError(f"path shape needs k = ceil((r+1)/2) = {k} <= t-2")
    if k > n - t + 2:
        raise DomainError(f"need k = {k} independent vertices, "
                          f"have {n - t + 2}")
    falling = 1
    for i in range(k):
        falling *= t - 2 - i
    product = comb(n - t + 2, k) * falling * factorial(k)
    assert product % 2 == 0
    return product // 2
