"""Counters against the naive injective-map oracle and frozen examples."""

import random
from itertools import combinations

import pytest

from satgraph.counting import (count_cliques, count_cycles,
                               count_embeddings, count_independent_sets,
                               count_paths, count_stars, count_tree, embed,
                               find_clique, independence_number,
                               maximum_independent_sets, tree_automorphisms)
from satgraph.errors import DomainError
from satgraph.graph import (complete_graph, cycle_graph, empty_graph, join,
                            path_graph, star_graph)
from satgraph.patterns import star, path, tree_pattern
from satgraph import constructions as cons

from conftest import naive_count_copies, non_edges, random_graph

# frozen example values (hand-derived, re-checked by the naive oracle below)


def test_cliques_k5():
    assert count_cliques(complete_graph(5), 3) == 10


def test_cliques_octahedron():
    g = cons.fig1()
    assert count_cliques(g, 4) == 0
    assert count_cliques(g, 3) == 8


def test_stars_fig2():
    assert count_stars(cons.fig2(), 3) == 18


def test_stars_path3():
    assert count_stars(path_graph(3), 2) == 1


def test_stars_kr_5_9_3():
    g = cons.kr_graph(5, 9, 3)
    assert count_stars(g, 2) == 39  # 3*C(2,2) + 6*C(4,2)


def test_star_s1_is_edge_count():
    g = cons.fig2()
    assert count_stars(g, 1) == g.num_edges() == 11


def test_paths_c5():
    assert count_paths(cycle_graph(5), 5) == 5


def test_paths_split_6_4():
    g = cons.split_graph(6, 4)
    assert count_paths(g, 4) == 36


def test_paths_k3():
    assert count_paths(complete_graph(3), 3) == 3


def test_cycles_k4():
    assert count_cycles(complete_graph(4), 3) == 4


def test_cycles_c6():
    assert count_cycles(cycle_graph(6), 6) == 1


def test_cycles_octahedron_c4():
    assert count_cycles(cons.fig1(), 4) == 15


def test_tree_star_in_k4():
    assert count_tree(complete_graph(4), star(3)) == 4
    assert count_stars(complete_graph(4), 3) == 4


def test_tree_self_embedding():
    t = cons.t_star()
    assert count_tree(t, tree_pattern(t)) == 1


def test_tree_fig5_dashed_edge_makes_no_new_copies():
    g = cons.cycle_pendants(8)
    spider = tree_pattern(cons.t_star())
    base = count_tree(g, spider)
    # pendant of cycle vertex 1 is vertex 9; 0 and 1 are cycle-adjacent
    with_dashed = g.with_edge(0, 9)
    assert count_tree(with_dashed, spider) == base == 0


def test_tree_rejects_non_tree():
    with pytest.raises(DomainError):
        count_tree(complete_graph(4), tree_pattern(cycle_graph(4)))
    with pytest.raises(DomainError):
        tree_automorphisms(cycle_graph(4))


def test_tree_automorphisms():
    assert tree_automorphisms(path_graph(4)) == 2
    assert tree_automorphisms(star_graph(3)) == 6
    assert tree_automorphisms(cons.t_star()) == 6


def test_counter_domain_errors():
    with pytest.raises(DomainError):
        count_paths(complete_graph(4), 1)
    with pytest.raises(DomainError):
        count_cycles(complete_graph(4), 2)
    with pytest.raises(DomainError):
        count_cliques(complete_graph(4), 0)
    with pytest.raises(DomainError):
        count_stars(complete_graph(4), 0)


def test_independence_numbers():
    assert independence_number(complete_graph(5)) == 1
    assert independence_number(cycle_graph(5)) == 2
    for t in (3, 4, 6):
        assert independence_number(star_graph(t)) == t


def _brute_maximum_independent_sets(g):
    """The largest k with an independent k-subset, and those subsets in
    the lexicographic order combinations yields them."""
    for k in range(g.n, -1, -1):
        found = [s for s in combinations(range(g.n), k)
                 if not any(g.has_edge(u, v) for u, v in combinations(s, 2))]
        if found:
            return k, found


def test_independent_set_walker_matches_brute_force(rng):
    graphs = []
    for n in range(11):
        graphs += [empty_graph(n), complete_graph(n)]
        graphs += [random_graph(rng, n, p) for p in (0.2, 0.5, 0.8)]
    for g in graphs:
        alpha, sets = _brute_maximum_independent_sets(g)
        listed = maximum_independent_sets(g)
        assert independence_number(g) == alpha, g
        assert listed == sets == sorted(listed), g


def test_independent_sets_split():
    g = join(complete_graph(2), empty_graph(5))
    assert count_independent_sets(g, 3) == 10


# oracle-backed grids


def test_star_and_path_counts_equal_tree_counts(rng):
    # count_tree hands stars and paths to their own counters, so the
    # oracle is the tree's embeddings over its automorphisms
    def by_embeddings(g, tree):
        return count_embeddings(g, tree) // count_embeddings(tree, tree)

    for n in (5, 6, 7, 8):
        g = random_graph(rng, n, 0.5)
        for r in range(2, 6):
            assert count_stars(g, r) == count_tree(g, star(r)) == \
                by_embeddings(g, star_graph(r))
        for k in range(2, min(n, 6) + 1):
            assert count_paths(g, k) == count_tree(g, path(k)) == \
                by_embeddings(g, path_graph(k))


def test_counts_match_naive_oracle(rng):
    hosts = [cons.fig2(), cycle_graph(6), cons.split_graph(7, 4),
             random_graph(rng, 6, 0.4), random_graph(rng, 7, 0.6)]
    for g in hosts:
        for r in (2, 3):
            assert count_stars(g, r) == naive_count_copies(g, star_graph(r))
        for r in (3, 4):
            assert count_cliques(g, r) == naive_count_copies(g, complete_graph(r))
        for k in (3, 4, 5):
            assert count_paths(g, k) == naive_count_copies(g, path_graph(k))
        for k in (3, 4, 5):
            assert count_cycles(g, k) == naive_count_copies(g, cycle_graph(k))
    assert count_tree(cons.cycle_pendants(5), tree_pattern(cons.t_star())) == \
        naive_count_copies(cons.cycle_pendants(5), cons.t_star())


def test_clique_counts_match_subset_enumeration(rng):
    from itertools import combinations
    for n in (8, 9, 10):
        g = random_graph(rng, n, 0.5)
        for r in (2, 3, 4):
            naive = sum(
                1 for sub in combinations(range(n), r)
                if all(g.has_edge(u, v) for u, v in combinations(sub, 2)))
            assert count_cliques(g, r) == naive


def test_monotone_under_edge_addition(rng):
    from satgraph.counting import count_pattern
    from satgraph.patterns import clique, cycle
    g = random_graph(rng, 7, 0.35)
    pats = [clique(3), star(2), star(3), path(4), cycle(4),
            tree_pattern(cons.t_star())]
    for u, v in non_edges(g):
        bigger = g.with_edge(u, v)
        for p in pats:
            assert count_pattern(bigger, p) >= count_pattern(g, p)


def test_pinned_first_hit_agrees_with_count(rng):
    patterns = [path_graph(3), path_graph(4), star_graph(3), cycle_graph(4),
                complete_graph(3), cons.t_star()]
    for n in (5, 6, 7, 8):
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        for p in patterns:
            pins = [{}] + [{0: w} for w in range(n)]
            pins += [{a: u, b: v} for a, b in p.edges() for u, v in g.edges()]
            by_root = 0
            for pin in pins:
                count = embed(g, p, pin)
                hit = embed(g, p, pin, first=True)
                assert (hit is None) == (count == 0)
                if len(pin) == 1:
                    by_root += count
                if hit is None:
                    continue
                assert len(set(hit)) == p.n and all(0 <= w < n for w in hit)
                assert all(g.has_edge(hit[a], hit[b]) for a, b in p.edges())
                assert all(hit[a] == w for a, w in pin.items())
            # pinning vertex 0 everywhere partitions the unpinned maps
            assert by_root == count_embeddings(g, p)


def test_find_clique_agrees_with_count(rng):
    for n in (6, 8, 10):
        g = random_graph(rng, n, 0.5)
        for cand in (range(n), range(0, n, 2), range(n // 2, n)):
            mask = sum(1 << v for v in cand)
            sub = g.induced(list(cand))
            for r in range(1, 6):
                hit = find_clique(g.adj, mask, r)
                assert (hit is not None) == (count_cliques(sub, r) > 0)
                if hit is not None:
                    assert list(hit) == sorted(set(hit)) and len(hit) == r
                    assert all(mask >> v & 1 for v in hit)
                    assert all(g.has_edge(u, v) for u in hit for v in hit
                               if u != v)


def test_long_paths_and_cycles_match_naive_oracle():
    # every length from 6 up to the host's order and one past it, where
    # the walker's last-step popcount closes the longest paths and cycles
    rng = random.Random(6008)
    for n in (6, 7, 8):
        for p in (0.45, 0.8):
            g = random_graph(rng, n, p)
            for k in range(6, n + 2):
                assert count_paths(g, k) == naive_count_copies(
                    g, path_graph(k))
                assert count_cycles(g, k) == naive_count_copies(
                    g, cycle_graph(k))
