"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with  pytest tests/test_acceptance.py -v ;  the terminal summary
prints one PASS/FAIL line per criterion.
"""

from fractions import Fraction
from math import ceil

from satgraph.bounds import ehm_value, krfree_bound_at_r, kt_threshold
from satgraph.canon import canonical_form
from satgraph.counting import count_paths, count_stars
from satgraph.graph import complete_graph, decode_graph6, join
from satgraph.patterns import clique, parse_pattern, star, tree_pattern
from satgraph.saturation import (contains_copy, creates_copy,
                                 is_family_saturated, is_saturated,
                                 peel_universal)
from satgraph.search import exists_saturated_with, satnum_exact, tstar_scan
from satgraph.staropt import (delta, m0, m0_estimate, m0_lower_bounds,
                              satnum_star_star, tie_square_scan, tie_ts, xbar)
from satgraph import bounds, constructions as cons


def test_criterion_01_star_star_oracle_equivalence():
    """Exhaustive search equals the KR-minimum formula on the full grid."""
    for t in (3, 4, 5):
        for r in range(2, t):
            for n in range(2 * t - 1, 10):
                oracle = satnum_exact(n, star(t), star(r)).minimum
                formula = satnum_star_star(n, r, t)
                assert oracle == formula, (t, r, n, oracle, formula)


def test_criterion_02_edge_minimum_reproduction():
    """Minimum edges in clique-saturated graphs match the closed form."""
    for n in range(3, 10):
        rep = satnum_exact(n, clique(3), star(1))
        assert rep.minimum == n - 1 == ehm_value(n, 3), n
    for n in range(6, 10):
        rep = satnum_exact(n, clique(4), star(1))
        assert rep.minimum == ehm_value(n, 4) == (n - 2) * 2 + 1, n


def test_criterion_03_six_vertex_minimizer_is_fig2():
    rep = satnum_exact(6, star(5), star(3))
    assert rep.minimum == 18
    codes = {canonical_form(decode_graph6(w)) for w in rep.witnesses}
    assert canonical_form(cons.fig2()) in codes


def test_criterion_04_triangle_free_threshold():
    """Triangle-free star-saturated graphs exist exactly from 2t-2 on."""
    for t in (4, 5):
        for n in range(t + 1, 10):
            witness = exists_saturated_with(n, star(t), ("k-free", 3))
            assert (witness is not None) == (n >= 2 * t - 2), (t, n)
            if witness is not None:
                cert = is_saturated(witness, star(t))
                assert cert.is_saturated
                assert contains_copy(witness, clique(3)) is None


def test_criterion_05_fig1_certificates():
    g = cons.fig1()
    assert g.n == 6 < 8
    assert contains_copy(g, clique(4)) is None
    cert = is_saturated(g, star(5))
    assert cert.is_free and cert.is_saturated


def test_criterion_06_optimizer_internal_consistency():
    # scan equals the ceiling of the root on the odd grid
    for t in range(3, 14, 2):
        for r in range(2, t):
            val, tie = m0(2 * t - 1, r, t)
            assert val == ceil(xbar(r, t)), (t, r)
            assert delta(val - 1, r, t) < 0 <= delta(val, r, t), (t, r)
    # ties for r = 2 happen exactly on the recurrence values
    tie_set = set(tie_ts(10))
    for t in range(3, 14, 2):
        _, tie = m0(2 * t - 1, 2, t)
        assert tie == (t in tie_set), t
    # recurrence values vs the perfect-square criterion up to 10^4
    assert tie_ts(4) == [2, 4, 11, 37, 134]
    scan = tie_square_scan(10_000)
    assert [t for t in tie_ts(12) if t <= 10_000] == scan
    # both lower bounds on the odd grid
    for t in range(3, 14, 2):
        for r in range(2, t):
            val, _ = m0(2 * t - 1, r, t)
            b = m0_lower_bounds(r, t)
            assert Fraction(val) >= b["half_bound"], (t, r)
            assert val > b["root_bound"], (t, r)


def test_criterion_07_constructions_saturated():
    # KR family for stars
    for t in range(2, 8):
        for n in range(t, 2 * t + 5):
            for m in range(t):
                if n - m < t:
                    continue
                if m == 0 and ((t - 1) * n) % 2 == 1:
                    continue
                g = cons.kr_graph(t, n, m)
                assert is_saturated(g, star(t)).is_saturated, (t, n, m)
    # split graphs for cliques
    for t in range(2, 7):
        for n in range(t, 15):
            assert is_saturated(cons.split_graph(n, t), clique(t)).is_saturated
    # blow-up family for K_4, and its joins for K_t
    for n in range(9, 16):
        assert is_saturated(cons.g4n(n), clique(4)).is_saturated, n
    for t in (5, 6):
        for n in range(t + 5, 16):
            assert is_saturated(cons.gtn(t, n), clique(t)).is_saturated, (t, n)
    # partite family for stars, with partition checks
    gap_points = []
    for r in (3, 4):
        for t in range(3, 7):
            for c in range(r - 1):
                lo = max(t + 1, bounds.partite_threshold(r, t, c))
                for n in range(lo, lo + 6):
                    g, parts = cons.partite_saturated(n, r, t, c)
                    assert g.n == n
                    assert is_saturated(g, star(t)).is_saturated, (n, r, t, c)
                    for p in parts:
                        for u in p:
                            for v in p:
                                assert u == v or not g.has_edge(u, v)
                    assert sorted(v for p in parts for v in p) == list(range(n))
                    # class count: r classes suffice unless a leftover clique
                    # component needs more
                    rc = r - c
                    a = n // rc
                    if ((t - 1) * a * rc) % 2 == 0:
                        rem = n - a * rc
                    else:
                        rem = n - (a - 1) * rc
                    ell, d = divmod(rem, t)
                    comps = [t] * ell + ([d] if d else [])
                    if all(s <= r for s in comps):
                        assert len(parts) <= r, (n, r, t, c)
                    else:
                        gap_points.append((n, r, t, c))
                        assert len(parts) == max(s for s in comps), (n, r, t, c)
    # the known construction gap: leftover cliques larger than r appear
    assert gap_points, "expected at least one leftover-clique grid point"
    g, parts = cons.partite_saturated(16, 3, 4, 0)
    assert is_saturated(g, star(4)).is_saturated
    assert len(parts) == 4  # the K_4 component forces a fourth class


def test_criterion_08_blowup_beats_split_for_s3():
    assert count_stars(cons.g4n(30), 3) == 5910
    assert count_stars(cons.split_graph(30, 4), 3) == 7308
    for n in range(24, 61):
        blow = count_stars(cons.g4n(n), 3)
        split = count_stars(cons.split_graph(n, 4), 3)
        assert blow < split, n


def test_criterion_09_path_facts():
    from satgraph.bounds import split_path_leading
    assert count_paths(cons.split_graph(6, 4), 4) == 36
    assert split_path_leading(6, 4, 3) == 12 <= 36
    # vanishing threshold: paths on k vertices disappear from the split
    # graph exactly at k = 2t-2 (n large enough to host the smaller paths)
    for t in (4, 5, 6):
        for n in range(max(t, 2 * t - 3), 15):
            g = cons.split_graph(n, t)
            for k in range(2, 2 * t + 3):
                vanishes = count_paths(g, k) == 0
                assert vanishes == (k >= 2 * t - 2), (t, n, k)


def test_criterion_10_tree_suite():
    # threshold data for the 4-vertex path
    assert kt_threshold(parse_pattern("P4")) == \
        {"t": 4, "alpha": 2, "d": 1, "u": 1, "r_min": 3}
    # a star is a triangle-free witness for vanishing clique counts
    from satgraph.graph import star_graph
    w = star_graph(4)
    assert contains_copy(w, clique(3)) is None
    assert is_saturated(w, parse_pattern("P4")).is_saturated
    # peeling equivalence over an enumerated corpus with universal vertices
    from satgraph.search import enumerate_graphs
    families = [[clique(3)], [clique(4)], [star(3)],
                [parse_pattern("P4")], [clique(4), star(3)]]
    for base_n in (4, 5):
        for h in enumerate_graphs(base_n):
            g = join(complete_graph(1), h)
            for fam in families:
                before = is_family_saturated(g, fam).is_saturated
                peeled, fam2 = peel_universal(g, fam)
                after = is_family_saturated(peeled, fam2).is_saturated
                assert before == after, (h.edges(), [str(f) for f in fam])
    # no triangle-free spider-saturated graph up to order 10
    rep = tstar_scan(10)
    assert rep["any_found"] is False
    assert all(rep["per_n"][n]["found"] == 0 for n in range(1, 11))
    # the cycle-with-pendants non-saturation witness edge
    g = cons.cycle_pendants(8)
    spider = tree_pattern(cons.t_star())
    cert = is_saturated(g, spider)
    assert cert.is_free and not cert.is_saturated
    u, v = cert.unsaturated_witness
    cyc, pend = (u, v) if u < 8 else (v, u)
    assert cyc < 8 <= pend and g.has_edge(cyc, pend - 8) and pend - 8 != cyc
    assert not creates_copy(g, spider, cyc, pend)


def test_criterion_11_asymptotic_trend_checks():
    # relative deviation of the scan minimizer from its first-order size
    # is non-increasing along the doubling grid
    for r in (2, 3):
        devs = []
        for t in (21, 41, 81, 161):
            val, _ = m0(2 * t - 1, r, t)
            devs.append(abs(val / m0_estimate(r, t) - 1))
        assert all(a >= b - 1e-12 for a, b in zip(devs, devs[1:])), (r, devs)
    # the clique-free bound trails r(t-1)/(r-1) by a bounded, monotone gap
    for r in range(2, 6):
        gaps = []
        for t in range(2 * r, 10_001, 11):
            gap = float(Fraction(r * (t - 1), r - 1)) \
                - float(krfree_bound_at_r(r, t))
            gaps.append(gap)
        assert all(g <= 2 * r for g in gaps), r
        assert all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:])), r
