"""Canonical forms against the brute-force permutation oracle."""

import hashlib
import random
from collections import deque
from itertools import permutations

from satgraph import canon
from satgraph.canon import (_refine, are_isomorphic, automorphisms_from,
                            canonical_form, canonical_graph, canonical_raw,
                            equitable_partition, orbit)
from satgraph.graph import (Graph, bits, build_graph, complete_graph,
                            cycle_graph, empty_graph, path_graph, star_graph)
from satgraph.search import enumerate_graphs
from satgraph import constructions as cons

from conftest import (all_labeled_graphs, automorphism_count,
                      brute_canonical, group_order, naive_automorphisms,
                      random_graph, random_regular)


def test_codes_match_brute_force_partition_n4():
    """Equal canonical codes exactly when brute-force canonical forms agree."""
    by_brute = {}
    by_code = {}
    for i, g in enumerate(all_labeled_graphs(4)):
        by_brute.setdefault(brute_canonical(g), set()).add(i)
        by_code.setdefault(canonical_form(g), set()).add(i)
    assert sorted(by_brute.values(), key=sorted) == sorted(by_code.values(), key=sorted)


def test_codes_match_brute_force_sample_n5_to_7(rng):
    for n in (5, 6, 7):
        count = 20 if n < 7 else 8
        sample = [random_graph(rng, n, p) for p in (0.2, 0.5, 0.8)
                  for _ in range(count)]
        brute = [brute_canonical(g) for g in sample]
        codes = [canonical_form(g) for g in sample]
        for g, b, c in zip(sample, brute, codes):
            h = g.relabel(list(rng.sample(range(n), n)))
            assert brute_canonical(h) == b
            assert canonical_form(h) == c
        # cross-pair: equal brute forms iff equal codes
        for i in range(len(sample)):
            for j in range(len(sample)):
                assert (brute[i] == brute[j]) == (codes[i] == codes[j])


def test_permutation_invariance_exhaustive_n_le_6():
    graphs = [cycle_graph(5), path_graph(6), cons.fig2(), cons.fig1(),
              build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)]),
              empty_graph(4), complete_graph(5)]
    for g in graphs:
        code = canonical_form(g)
        for perm in permutations(range(g.n)):
            assert canonical_form(g.relabel(list(perm))) == code


def test_permutation_invariance_randomized_n_le_10(rng):
    for n in range(7, 11):
        for p in (0.15, 0.5, 0.85):
            g = random_graph(rng, n, p)
            code = canonical_form(g)
            for _ in range(12):
                perm = list(rng.sample(range(n), n))
                assert canonical_form(g.relabel(perm)) == code


def test_c4_two_labelings_equal():
    a = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    b = build_graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    assert canonical_form(a) == canonical_form(b)


def test_c4_differs_from_p4():
    assert canonical_form(cycle_graph(4)) != canonical_form(path_graph(4))


def test_tstar_leaf_relabelings_one_code():
    t = cons.t_star()
    leaves = [v for v in range(t.n) if t.degree(v) == 1]
    codes = set()
    for perm4 in permutations(leaves):
        relab = list(range(t.n))
        for src, dst in zip(leaves, perm4):
            relab[src] = dst
        codes.add(canonical_form(t.relabel(relab)))
    assert len(codes) == 1


def test_highly_symmetric_graphs_fast():
    # these stress the automorphism pruning; mostly a no-hang check
    for g in (empty_graph(10), complete_graph(10), cycle_graph(10),
              build_graph(10, [(i, (i + 5) % 10) for i in range(5)])):
        code = canonical_form(g)
        assert canonical_form(canonical_graph(g)) == code


def test_orbit_pruning_bounds_search_nodes(monkeypatch):
    """Orbit pruning and the jump back on a tie keep the search tree of a
    highly symmetric graph small: K8, the empty graph on 8 vertices,
    K_{1,7} and K_{1,9} take 36, 36, 28 and 45 search nodes, at most
    n(n+1)/2, where without pruning K8 alone reaches 8! leaves and
    without the jump it takes 92.  Pruning changes only the work done,
    never the code, so only a count of nodes sees it lost; the count
    stops the search as soon as it passes the bound."""
    nodes = 0
    search = canon._Canonizer._search

    def counted(self, *args):
        nonlocal nodes
        nodes += 1
        assert nodes <= self.n * (self.n + 1) // 2, (self.adj, nodes)
        return search(self, *args)

    monkeypatch.setattr(canon._Canonizer, "_search", counted)
    for g in (complete_graph(8), empty_graph(8), star_graph(7),
              star_graph(9)):
        nodes = 0
        canonical_raw(g.n, g.adj)


def test_are_isomorphic_basics():
    assert are_isomorphic(cons.fig1(), complete_graph(3).relabel([0, 1, 2])) is False
    assert are_isomorphic(cycle_graph(6), cycle_graph(6).relabel([3, 1, 4, 0, 5, 2]))


def _circulant(n, jumps):
    return build_graph(n, {(min(i, (i + j) % n), max(i, (i + j) % n))
                           for i in range(n) for j in jumps})


def _golden_corpus():
    """Seeded graphs on 1..10 vertices; symmetric ones in four labellings."""
    rng = random.Random(4242)
    petersen = build_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                           + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                           + [(i, i + 5) for i in range(5)])
    cube = build_graph(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4)
                           if v < v ^ b])
    symmetric = [petersen, cube, cons.t_star(), cons.fig1(), cons.fig2()]
    for n in range(1, 11):
        symmetric += [empty_graph(n), complete_graph(n), path_graph(n),
                      star_graph(n - 1)]
        if n >= 3:
            symmetric.append(cycle_graph(n))
        if n >= 5:
            symmetric += [_circulant(n, (1, 2)), _circulant(n, (1, n // 2))]
        if n % 2 == 0:
            half = n // 2
            symmetric.append(build_graph(n, [(u, half + v) for u in range(half)
                                             for v in range(half)]))
            symmetric.append(build_graph(n, [(i, i + half)
                                             for i in range(half)]))
    corpus = []
    for g in symmetric:
        corpus.append(g)
        for _ in range(3):
            corpus.append(g.relabel(rng.sample(range(g.n), g.n)))
    for n in range(1, 11):
        for p in (0.15, 0.35, 0.5, 0.65, 0.85):
            for _ in range(8):
                g = random_graph(rng, n, p)
                corpus += [g, g.relabel(rng.sample(range(n), n))]
    return corpus


# SHA-256 of repr((code, labelling)) over _golden_corpus(), in order, as
# produced by the labeller before it jumped back on a tie; the generators
# are pinned by their properties below.
GOLDEN_DIGEST = ("587092de478f6f117bb12e1137b8eac3"
                 "9883ba210ea15bbef27e48e5de11fbfc")


def test_canonical_raw_golden_digest():
    h = hashlib.sha256()
    for g in _golden_corpus():
        h.update(repr(canonical_raw(g.n, g.adj)[:2]).encode())
    assert h.hexdigest() == GOLDEN_DIGEST


def test_generators_are_few_distinct_automorphisms():
    """Over the golden corpus, every generator canonical_raw returns is an
    automorphism, none repeats, and a graph on n vertices gets at most
    n - 1; K_{1,7}, K_8 and K_{1,9} get exactly 6, 7 and 8."""
    for g in _golden_corpus():
        gens = canonical_raw(g.n, g.adj)[2]
        for s in gens:
            assert g.relabel(list(s)).adj == g.adj
        assert len(set(gens)) == len(gens)
        assert len(gens) <= max(g.n - 1, 0)
    for g, count in ((star_graph(7), 6), (complete_graph(8), 7),
                     (star_graph(9), 8)):
        assert len(canonical_raw(g.n, g.adj)[2]) == count


def _assert_generators_complete(g, order):
    _, _, gens = canonical_raw(g.n, g.adj)
    for s in gens:
        assert g.relabel(list(s)).adj == g.adj  # each one is an automorphism
    assert group_order(g.n, gens) == order


def test_automorphism_generators_generate_the_group(rng):
    """The generators canonical_raw returns generate all of Aut(G): every
    class on at most 6 vertices against the permutation count, and seeded
    G(n, p) graphs on 7..10 vertices against a degree-respecting count,
    each in two labellings."""
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            order = naive_automorphisms(g)
            for h in (g, g.relabel(rng.sample(range(n), n))):
                _assert_generators_complete(h, order)
    for n in range(7, 11):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            for _ in range(4):
                g = random_graph(rng, n, p)
                order = automorphism_count(g)
                for h in (g, g.relabel(rng.sample(range(n), n))):
                    _assert_generators_complete(h, order)


def _cell_lists(cells):
    """Vertex-mask cells as lists of their vertices, ascending: the order
    the cells had when they were lists."""
    return [list(bits(c)) for c in cells]


def _assert_positions_in_initial_cells(g):
    cells = equitable_partition(g.n, g.adj)
    raw = canonical_raw(g.n, g.adj)
    start = 0
    for cell in _cell_lists(cells):
        assert sorted(raw[1][start:start + len(cell)]) == sorted(cell)
        start += len(cell)
    assert start == g.n
    assert canonical_raw(g.n, g.adj, cells=cells) == raw
    assert cells == equitable_partition(g.n, g.adj)  # only read


def test_canonical_positions_stay_in_initial_cells(rng):
    """canonical_raw puts each cell of the initial equitable partition on
    that cell's run of positions, and gives the same output when handed
    the partition: every class on at most 7 vertices, and seeded G(n, p)
    graphs on 8..10 vertices, each in two labellings."""
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            _assert_positions_in_initial_cells(g)
    for n in range(8, 11):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            for _ in range(10):
                g = random_graph(rng, n, p)
                for h in (g, g.relabel(rng.sample(range(n), n))):
                    _assert_positions_in_initial_cells(h)


def _assert_sent_automorphisms_sound(g):
    """Every automorphism automorphisms_from returns, over all pairs of
    distinct vertices of each equitable cell, is one, sends a to b, and
    b is in a's orbit under canonical_raw's generators; returns how many
    pairs it settled."""
    cells = equitable_partition(g.n, g.adj)
    gens = canonical_raw(g.n, g.adj)[2]
    found = 0
    for cell in _cell_lists(cells):
        for a in cell:
            for b in cell:
                sigma = (None if a == b
                         else automorphisms_from(g.adj, cells, a)(b))
                if sigma is None:
                    continue
                found += 1
                assert sigma[a] == b
                assert g.relabel(list(sigma)).adj == g.adj
                assert 1 << b in orbit(1 << a, gens)
    assert cells == equitable_partition(g.n, g.adj)  # only read
    return found


def test_automorphism_sending_is_sound():
    """The in-step candidate automorphism is checked before it is
    returned: every class on at most 7 vertices, and seeded graphs on
    8..10 vertices, each in two labellings: G(n, p), and regular graphs,
    whose equitable partition is one cell, so that the first vertices
    the two sides individualize next often do not correspond."""
    rng = random.Random(20261018)
    found = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            found += _assert_sent_automorphisms_sound(g)
    sample = [random_graph(rng, n, p) for n in range(8, 11)
              for p in (0.1, 0.3, 0.5, 0.7, 0.9) for _ in range(10)]
    sample += [random_regular(rng, n, d) for n, d in
               ((8, 3), (9, 4), (10, 3), (10, 4)) for _ in range(5)]
    for g in sample:
        for h in (g, g.relabel(rng.sample(range(g.n), g.n))):
            found += _assert_sent_automorphisms_sound(h)
    assert found > 0


def _refine_reference(adj, cells, queue):
    """The refinement kernel as it was before it stopped at a discrete
    partition, kept as the oracle for the faster one."""
    queue = deque(queue)
    while queue:
        smask = queue.popleft()
        i = 0
        while i < len(cells):
            cell = cells[i]
            if len(cell) > 1:
                groups = {}
                for v in cell:
                    groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                if len(groups) > 1:
                    parts = [groups[c] for c in sorted(groups)]
                    cells[i:i + 1] = parts
                    queue.extend(sum(1 << v for v in p) for p in parts)
                    i += len(parts)
                    continue
            i += 1
    return cells


def _refinement_inputs(g):
    """(cells, queue) pairs as equitable_partition and _individualize
    hand them to the kernel: the degree cells with every cell queued, and
    each vertex of each non-singleton cell individualized with {v}
    queued, in the equitable partition and then down the path that
    individualizes the first vertex of the first non-singleton cell."""
    groups = {}
    for v in range(g.n):
        groups.setdefault(g.degree(v), []).append(v)
    cells = [groups[d] for d in sorted(groups)]
    queue = [sum(1 << v for v in c) for c in cells]
    yield cells, queue
    todo = [_refine_reference(g.adj, [c[:] for c in cells], queue)]
    for depth, part in enumerate(todo):
        for i, cell in enumerate(part):
            if len(cell) == 1:
                continue
            for v in cell:
                split = part[:i] + [[v], [u for u in cell if u != v]] + part[i + 1:]
                yield split, [1 << v]
                if v == cell[0] and depth < g.n:
                    todo.append(_refine_reference(
                        g.adj, [c[:] for c in split], [1 << v]))
            break


def test_refine_equals_reference_kernel():
    """The refinement kernel, which stops at a discrete partition, gives
    exactly the ordered partition of the kernel it replaced, on every
    input equitable_partition and _individualize would hand it, the
    cells as vertex masks: every class on at most 7 vertices, seeded
    G(n, p) graphs on 8..12, and seeded regular graphs, whose one-cell
    partition is split by splitters of several vertices."""
    rng = random.Random(20261018)
    sample = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    sample += [random_graph(rng, n, p) for n in range(8, 13)
               for p in (0.1, 0.3, 0.5, 0.7, 0.9) for _ in range(6)]
    sample += [random_regular(rng, n, d) for n, d in
               ((8, 3), (9, 4), (10, 3), (10, 4), (12, 3), (12, 5))
               for _ in range(4)]
    checked = 0
    for g in sample:
        for cells, queue in _refinement_inputs(g):
            expected = _refine_reference(g.adj, [c[:] for c in cells], queue)
            masks = [sum(1 << v for v in c) for c in cells]
            assert _cell_lists(_refine(g.adj, masks, queue)) == expected
            checked += 1
        expected = _refine_reference(g.adj, *next(_refinement_inputs(g)))
        assert _cell_lists(equitable_partition(g.n, g.adj)) == expected
    assert checked > 5000


def test_automorphisms_from_shares_one_path():
    """One function from automorphisms_from, called for every b of a's
    cell in turn, returns what a fresh automorphisms_from returns for each
    pair: every class on at most 6 vertices and seeded G(n, p) graphs on
    7..9 vertices."""
    rng = random.Random(20261018)
    sample = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    sample += [random_graph(rng, n, p) for n in range(7, 10)
               for p in (0.2, 0.5, 0.8) for _ in range(5)]
    for g in sample:
        cells = equitable_partition(g.n, g.adj)
        for cell in (c for c in _cell_lists(cells) if len(c) > 1):
            for a in cell:
                send = automorphisms_from(g.adj, cells, a)
                for b in cell:
                    if b != a:
                        assert send(b) == automorphisms_from(
                            g.adj, cells, a)(b)
