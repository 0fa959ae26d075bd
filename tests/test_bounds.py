"""Closed-form bounds, thresholds, and their boundary equalities."""

from fractions import Fraction

import pytest

from satgraph.bounds import (best_c, cl_value, ehm_value, krfree_bound,
                             krfree_bound_at_r, kt_threshold,
                             partite_necessary, partite_threshold,
                             partite_threshold_smooth, path_sat_threshold,
                             smooth_minimizer_c, split_path_leading)
from satgraph.counting import count_paths
from satgraph.errors import DomainError, SplitPathFreeError
from satgraph.patterns import clique, parse_pattern, star
from satgraph.search import exists_saturated_with
from satgraph import constructions as cons


def test_ehm_values():
    assert ehm_value(5, 3) == 4
    assert ehm_value(7, 2) == 0
    assert ehm_value(9, 4) == 15
    for n in range(3, 12):
        assert ehm_value(n, 3) == n - 1
    with pytest.raises(DomainError):
        ehm_value(3, 4)


def test_cl_values():
    assert cl_value(9, 2, 4) == 15
    assert cl_value(9, 3, 4) == 7
    # r - 1 = t - 2: single surviving term
    for n in range(8, 12):
        assert cl_value(n, 4, 5) == (n - 3) * 1 + 0


def test_partite_thresholds_4_10():
    assert [partite_threshold(4, 10, c) for c in (0, 1, 2)] == [16, 18, 20]
    b = best_c(4, 10)
    assert (b["c"], b["n1"]) == (0, 16)


def test_partite_thresholds_4_5():
    b = best_c(4, 5)
    assert (b["c"], b["n1"]) == (1, 9)
    assert b["n1"] == 5 + 2 * 2  # (k+1)^2 = t + 2 sqrt(t-1) with k = 2
    assert smooth_minimizer_c(4, 5) == pytest.approx(1.0)


def test_best_c_square_t():
    # t = k^2 + 1 <= (r-1)^2 + 1: minimizing c is r-1-k, value (k+1)^2
    for r in range(3, 11):
        for k in range(1, r):
            t = k * k + 1
            if t < 3:
                continue
            b = best_c(r, t)
            assert b["c"] == r - 1 - k, (r, k)
            assert b["n1"] == (k + 1) ** 2, (r, k)


def test_best_c_divisible_case():
    # t >= (r-1)^2 + 1 with (r-1) | (t-1): minimizing c = 0 with bound
    # r(t-1)/(r-1) + r
    for r in range(3, 9):
        for t in range((r - 1) ** 2 + 1, 101):
            if (t - 1) % (r - 1):
                continue
            b = best_c(r, t)
            assert b["c"] == 0, (r, t)
            assert b["n1"] == r * (t - 1) // (r - 1) + r, (r, t)


def test_partite_necessary():
    assert partite_necessary(3, 5) == 6
    assert partite_necessary(4, 10) == 12
    for r in (3, 4, 5):
        for t in range(3, 30):
            val = partite_necessary(r, t)
            if (t - 1) % (r - 1) == 0:
                assert val.denominator == 1


def test_partite_smooth_minimized_at_stated_c():
    for r, t in [(4, 5), (5, 10), (6, 17)]:
        cstar = smooth_minimizer_c(r, t)
        base = partite_threshold_smooth(r, t, Fraction(cstar).limit_denominator(10**6))
        for dc in (-0.25, 0.25):
            c2 = cstar + dc
            if 0 <= c2 <= r - 2:
                assert partite_threshold_smooth(
                    r, t, Fraction(c2).limit_denominator(10**6)) >= base


def test_krfree_examples():
    assert krfree_bound(2, 5, 2) == 6  # = t + 1 at t = r(r+1) - 1
    for r in (3, 4, 5):
        t = 9
        assert krfree_bound(r, t, 0) == Fraction(r * (t - 1), r - 1)
    assert krfree_bound(3, 12, 3) == pytest.approx(13.5)


def test_krfree_negative_discriminant_rejected():
    # ((t-1)/2)^2 = 9/4 < m(r-1)(t-m)/r = 8/3
    with pytest.raises(DomainError, match="discriminant"):
        krfree_bound(3, 4, 2)


def test_krfree_decreasing_in_m():
    for r in (2, 3, 4, 5):
        for t in range(2 * r, 2 * r + 20):
            vals = [float(krfree_bound(r, t, m)) for m in range(r + 1)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), (r, t)


def test_krfree_at_r_threshold_grid():
    for r in range(2, 9):
        t0 = r * (r + 1) - 1
        assert krfree_bound_at_r(r, t0) == t0 + 1  # exact rational equality
        for t in range(t0, 401):
            assert float(krfree_bound_at_r(r, t)) >= t + 1 - 1e-9, (r, t)


def test_krfree_gap_bounded():
    # r(t-1)/(r-1) - bound_at_r stays bounded (tends to r from below)
    for r in range(2, 6):
        gaps = []
        for t in range(2 * r, 10_001, 97):
            gap = float(Fraction(r * (t - 1), r - 1)) - float(krfree_bound_at_r(r, t))
            gaps.append(gap)
        assert all(g <= 2 * r for g in gaps)
        assert all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:]))


def test_kt_threshold_star():
    for t in (3, 4, 6):
        info = kt_threshold(star(t))
        assert info == {"t": t + 1, "alpha": t, "d": t, "u": 0,
                        "r_min": t + 1}


def test_kt_threshold_p4():
    assert kt_threshold(parse_pattern("P4")) == \
        {"t": 4, "alpha": 2, "d": 1, "u": 1, "r_min": 3}


def test_kt_threshold_clique():
    for t in (3, 4, 5):
        assert kt_threshold(clique(t)) == \
            {"t": t, "alpha": 1, "d": 1, "u": t - 2, "r_min": t}


@pytest.mark.parametrize("name, n, present", [
    ("S3", 5, (3, 4)), ("C4", 5, (3, 4)), ("P5", 6, (3, 4)),
    ("C5", 6, (3, 4)), ("S4", 6, (3, 4, 5)),
])
def test_kt_threshold_sufficient_not_necessary(name, n, present):
    """A K_r-free F-saturated graph on n vertices exists at r = r_min and
    at every r in ``present``, some below r_min; none exists at r = 2,
    where the graph is empty."""
    f = parse_pattern(name)
    r_min = kt_threshold(f)["r_min"]
    assert r_min in present and min(present) < r_min
    assert exists_saturated_with(n, f, ("k-free", 2)) is None
    for r in present:
        assert exists_saturated_with(n, f, ("k-free", r)) is not None, r


def test_path_sat_threshold():
    assert path_sat_threshold(3) == 4
    assert path_sat_threshold(5) == 10
    assert path_sat_threshold(4) == 6
    with pytest.raises(DomainError):
        path_sat_threshold(2)


def test_split_path_leading_examples():
    assert split_path_leading(6, 4, 3) == 12
    assert split_path_leading(10, 5, 4) == 630
    with pytest.raises(SplitPathFreeError, match="P_7-free"):
        split_path_leading(12, 4, 6)
    with pytest.raises(DomainError):
        split_path_leading(12, 4, 4)  # k = 3 > t - 2 = 2


def test_split_path_leading_undercounts():
    assert split_path_leading(6, 4, 3) <= count_paths(cons.split_graph(6, 4), 4)
