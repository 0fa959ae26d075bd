"""Formula evaluation, the difference function, roots, and tie structure."""

from fractions import Fraction
from math import comb, floor, sqrt

import pytest

from satgraph.counting import count_stars
from satgraph.errors import DomainError
from satgraph.staropt import (delta, gen_binom, m0, m0_estimate,
                              m0_lower_bounds, r2_xbar, satnum_star_star,
                              sr_kr_formula, tie_square_scan, tie_ts, xbar)
from satgraph import constructions as cons


def test_gen_binom_values():
    assert gen_binom(4, 2) == 6
    assert abs(gen_binom(2.5, 2) - 1.875) < 1e-12
    for r in range(1, 8):
        assert gen_binom(r - 1, r) == 0


def test_sr_formula_examples():
    assert sr_kr_formula(5, 9, 3, 2) == 39
    assert sr_kr_formula(5, 9, 4, 2) == 42
    assert sr_kr_formula(4, 9, 2, 2) == 22  # odd parity branch


def test_sr_formula_rejects_bad_domain():
    with pytest.raises(DomainError):
        sr_kr_formula(5, 9, 5, 2)
    with pytest.raises(DomainError):
        sr_kr_formula(3, 9, 1, 1)
    with pytest.raises(DomainError, match="bridge"):
        sr_kr_formula(4, 9, 0, 2)


def test_formula_matches_graph_counts():
    """s_r of the constructed graph equals the closed form, full grid."""
    for t in range(3, 8):
        for n in range(2 * t - 1, 2 * t + 5):
            for m in range(t):
                if n - m < t:
                    continue
                if m == 0 and ((t - 1) * n) % 2 == 1:
                    continue
                g = cons.kr_graph(t, n, m)
                for r in range(2, t):
                    assert count_stars(g, r) == sr_kr_formula(t, n, m, r), \
                        (t, n, m, r)


def test_delta_examples():
    assert delta(2, 2, 5) == -3
    assert delta(3, 2, 5) == 3
    for r in range(2, 7):
        t = r + 2
        assert delta(r - 1, r, t) == -comb(t - 1, r)
    for t in range(3, 10):
        assert delta(t - 1, t - 1, t) == t - 1


def test_delta_telescopes_formula_for_odd_t():
    for t in range(3, 14, 2):
        for r in range(2, t):
            for n in range(2 * t - 1, 2 * t + 4):
                for m in range(t - 1):
                    diff = sr_kr_formula(t, n, m + 1, r) - sr_kr_formula(t, n, m, r)
                    assert diff == delta(m, r, t), (t, n, m, r)


def test_binomial_identity_behind_difference():
    # (r+1) C(m, r) = C(m-1, r) + (m+1) C(m-1, r-1)
    for m in range(0, 31):
        for r in range(1, 11):
            lhs = (r + 1) * gen_binom(m, r)
            rhs = gen_binom(m - 1, r) + (m + 1) * gen_binom(m - 1, r - 1)
            assert lhs == rhs, (m, r)


def test_delta_strictly_increasing():
    for t in range(4, 12):
        for r in range(2, t):
            vals = [delta(m, r, t) for m in range(r - 1, t + 2)]
            assert all(a < b for a, b in zip(vals, vals[1:]))


def test_xbar_values():
    assert abs(xbar(2, 5) - (0.5 + sqrt(153) / 6)) < 1e-9
    assert xbar(2, 11) == 6.0
    assert xbar(2, 4) == 2.0


def test_xbar_agrees_with_r2_closed_form():
    for t in range(3, 40):
        assert abs(xbar(2, t) - r2_xbar(t)) < 1e-9


def test_r2_xbar_examples():
    assert abs(r2_xbar(5) - 2.5615528128) < 1e-9
    assert r2_xbar(11) == 6.0
    assert abs(r2_xbar(3) - (0.5 + sqrt(33) / 6)) < 1e-12


def test_m0_examples():
    assert m0(9, 2, 5) == (3, False)
    assert m0(21, 2, 11) == (6, True)
    for t in (3, 5, 7, 9):
        assert m0(2 * t - 1, t - 1, t)[0] == t - 1


def test_m0_matches_ceil_xbar_odd_t():
    from math import ceil
    for t in range(3, 14, 2):
        for r in range(2, t):
            val, tie = m0(2 * t - 1, r, t)
            xb = xbar(r, t)
            assert val == ceil(xb), (r, t)
            assert tie == (abs(xb - round(xb)) < 1e-6), (r, t)
            # sign structure around the minimizer
            assert delta(val - 1, r, t) < 0 <= delta(val, r, t)
            assert (delta(val, r, t) == 0) == tie


def test_m0_at_least_r_odd_grid():
    for t in range(5, 14, 2):
        for r in range(2, t):
            assert m0(2 * t - 1, r, t)[0] >= r


def test_m0_r1_reproduces_edge_minimizer():
    # s_1 = |E|: for odd t the minimum sits at floor(t/2), tied with the
    # next value
    for t in range(3, 12, 2):
        val, tie = m0(2 * t + 1, 1, t)
        assert val == t // 2
        assert tie


def test_m0_independent_of_n_for_odd_t():
    # for even t the parity correction alternates with n, so only odd t
    # has an n-free minimizer
    for t in (5, 7, 9):
        base = m0(2 * t - 1, 2, t)
        for n in range(2 * t - 1, 2 * t + 6):
            assert m0(n, 2, t) == base


def test_satnum_examples():
    assert satnum_star_star(9, 2, 5) == 39
    assert satnum_star_star(9, 4, 5) == 5
    assert satnum_star_star(9, 5, 5) == 0
    assert satnum_star_star(9, 7, 5) == 0


def test_star_star_instance_bundle():
    from satgraph.staropt import star_star_instance
    inst = star_star_instance(9, 2, 5)
    assert (inst.satnum, inst.m0, inst.tie) == (39, 3, False)
    assert inst.values[3] == 39 and inst.values[4] == 42
    assert abs(inst.xbar - xbar(2, 5)) == 0
    inst = star_star_instance(21, 2, 11)
    assert inst.tie and inst.m0 == 6 and inst.values[6] == inst.values[7]


def test_m0_and_satnum_skip_the_root(monkeypatch):
    from satgraph import staropt

    def no_root(r, t):
        raise AssertionError("xbar bisected")

    monkeypatch.setattr(staropt, "xbar", no_root)
    assert staropt.m0(25, 3, 13) == (8, False)
    assert staropt.satnum_star_star(25, 3, 13) == 4020
    # the instance bisects only when its root is read
    inst = staropt.star_star_instance(25, 3, 13)
    with pytest.raises(AssertionError):
        inst.xbar


def test_satnum_matches_count_on_kr_graph():
    for t in range(3, 8):
        for n in range(2 * t - 1, 2 * t + 5):
            for r in range(2, t):
                best, _ = m0(n, r, t)
                g = cons.kr_graph(t, n, best)
                assert satnum_star_star(n, r, t) == count_stars(g, r), (t, n, r)


def test_tie_sequence_recurrence():
    assert tie_ts(3) == [2, 4, 11, 37]
    assert tie_ts(4) == [2, 4, 11, 37, 134]


def test_tie_sequence_matches_square_scan():
    scan = tie_square_scan(10_000)
    seq = tie_ts(10)
    assert [t for t in seq if t <= 10_000] == scan
    assert scan == [2, 4, 11, 37, 134, 496, 1847, 6889]


def test_tie_t0_excluded_from_star_domain():
    assert tie_ts(0) == [2]
    with pytest.raises(DomainError):
        xbar(2, 2)  # t = 2 is out of the r = 2 star domain


def test_lower_bounds():
    b = m0_lower_bounds(2, 9)
    assert b["half_bound"] == 5
    assert m0(17, 2, 9)[0] == 5
    b = m0_lower_bounds(2, 5)
    assert abs(b["root_bound"] - 4 / sqrt(3)) < 1e-12
    assert b["root_bound"] < m0(9, 2, 5)[0] == 3
    b = m0_lower_bounds(4, 5)
    assert b["half_bound"] == 3 <= m0(9, 4, 5)[0] == 4


def test_lower_bounds_hold_on_odd_grid():
    for t in range(3, 14, 2):
        for r in range(2, t):
            val, _ = m0(2 * t - 1, r, t)
            bounds = m0_lower_bounds(r, t)
            assert Fraction(val) >= bounds["half_bound"], (r, t)
            assert val > bounds["root_bound"], (r, t)


def test_binomial_floor_inequality():
    # b^c * C(floor(a/b), c) < C(a, c) for a >= c >= 2, b > 1
    for c in range(2, 41):
        for a in range(c, 41):
            for b in (1.5, 2.0, 3.0, (c + 1) ** (1 / c)):
                lhs = b ** c * comb(floor(a / b), c)
                rhs = comb(a, c)
                assert lhs < rhs, (a, b, c)


def test_m0_estimate():
    assert abs(m0_estimate(2, 101) - 100 / sqrt(3)) < 1e-9
    assert abs(m0_estimate(2, 11) - 10 / sqrt(3)) < 1e-9
    assert m0(21, 2, 11)[0] == 6
    with pytest.raises(DomainError):
        m0_estimate(3, 3)
