"""Saturation verdicts against networkx, an independent oracle.

Every graph of networkx's atlas (all 1,253 graphs on at most 7 vertices)
is checked against K3, K4, S2, S3, P4, C4 and the spider (three legs of
length two), by is_saturated and by saturation_verdict; the atlas's
classes on 4..7 vertices stand in for the search's enumeration in
satnum_exact, and they are counted by order and size against
enumerate_classes.  networkx's nonisomorphic trees check the least order
of a path-saturated tree, bounds.path_sat_threshold.
Copies are found with GraphMatcher subgraph monomorphisms, which share no
code with satgraph's embedding, clique and star kernels, nor the atlas
with its canonical forms.
"""

from collections import Counter

import pytest

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402

from satgraph.bounds import path_sat_threshold  # noqa: E402
from satgraph.graph import Graph  # noqa: E402
from satgraph.constructions import t_star  # noqa: E402
from satgraph.patterns import (clique, parse_pattern, path,  # noqa: E402
                               star, tree_pattern)
from satgraph.errors import NoneExistError  # noqa: E402
from satgraph.saturation import is_saturated, saturation_verdict  # noqa: E402
from satgraph.search import (SearchConstraints, enumerate_classes,  # noqa: E402
                             satnum_exact)


def _has_copy(host, pattern) -> bool:
    # a copy maps each pattern vertex to a distinct host vertex of no
    # smaller degree, so the host's degrees, descending, dominate
    hosted = sorted((d for _, d in host.degree()), reverse=True)
    wanted = sorted((d for _, d in pattern.degree()), reverse=True)
    if len(hosted) < len(wanted) or any(map(int.__lt__, hosted, wanted)):
        return False
    return GraphMatcher(host, pattern).subgraph_is_monomorphic()


def _creates(host, pattern, u: int, v: int) -> bool:
    host.add_edge(u, v)
    try:
        return _has_copy(host, pattern)
    finally:
        host.remove_edge(u, v)


@pytest.mark.slow
def test_saturation_verdicts_match_networkx_atlas():
    """is_saturated's certificate and saturation_verdict's verdict on
    every atlas graph against GraphMatcher.  The spider's 591 free hosts
    each need an exhaustive search for a copy: the pattern takes the test
    from about 2.5 s to 8 s on a 2-core machine."""
    patterns = [clique(3), clique(4), star(2), star(3), parse_pattern("P4"),
                parse_pattern("C4"), tree_pattern(t_star())]
    oracles = []
    for f in patterns:
        pg = f.to_graph()
        pat = nx.Graph()
        pat.add_nodes_from(range(pg.n))
        pat.add_edges_from(pg.edges())
        oracles.append((f, pat, saturation_verdict((f,))))
    verdicts = Counter()
    for host in nx.graph_atlas_g():
        n = host.number_of_nodes()
        g = Graph.from_edges(n, host.edges())
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not host.has_edge(u, v)]
        for f, pat, saturated in oracles:
            cert = is_saturated(g, f)
            if not cert.is_free:
                # the free violation is a real copy, pattern vertex i on
                # host vertex emb[i]
                emb = cert.free_violation[1]
                assert len(set(emb)) == len(emb) == pat.number_of_nodes()
                assert all(host.has_edge(emb[a], emb[b])
                           for a, b in pat.edges()), (f, g.adj)
                verdicts["violation"] += 1
                continue
            assert not _has_copy(host, pat), (f, g.adj)
            if cert.is_saturated:
                assert cert.checked_nonedges == len(non_edges)
                assert all(_creates(host, pat, u, v) for u, v in non_edges)
                assert saturated(g.adj), (f, g.adj)
                verdicts["saturated"] += 1
            else:
                # the witness is the first non-edge creating no copy
                u, v = cert.unsaturated_witness
                at = non_edges.index((u, v))
                assert cert.checked_nonedges == at + 1
                assert not _creates(host, pat, u, v), (f, g.adj, u, v)
                assert all(_creates(host, pat, a, b)
                           for a, b in non_edges[:at]), (f, g.adj)
                assert not saturated(g.adj), (f, g.adj)
                verdicts["unsaturated"] += 1
    assert verdicts == {"violation": 6807, "unsaturated": 1844,
                        "saturated": 120}


def _copies(host, pattern) -> int:
    """Subgraphs of host isomorphic to pattern: monomorphisms over
    automorphisms."""
    maps = sum(1 for _ in GraphMatcher(host, pattern)
               .subgraph_monomorphisms_iter())
    auts = sum(1 for _ in GraphMatcher(pattern, pattern).isomorphisms_iter())
    return maps // auts


@pytest.mark.slow
def test_satnum_exact_matches_networkx_atlas():
    """satnum_exact against the atlas, one graph per class on n vertices:
    the F-free classes are the graphs examined, the saturated ones among
    them give the minimum of count-copies, and every witness is
    isomorphic to an atlas minimizer.  The same holds under max_degree 2
    and 3 and under connected_only, with the atlas graphs that meet the
    constraint.  Below the pattern order only the complete graph is
    saturated, and the search reports none-exist, as it does where no
    saturated graph meets the constraint."""
    atlas = nx.graph_atlas_g()
    forbids = ["K3", "K4", "S3", "S4", "P4", "C4", "P5", "C5"]
    counts = [parse_pattern(s) for s in ("S1", "S2", "K3", "P3")]
    count_graphs = [nx.Graph(list(c.to_graph().edges())) for c in counts]
    cases = [("free", SearchConstraints(), lambda h: True)]
    cases += [(f"max_degree={cap}", SearchConstraints(max_degree=cap),
               lambda h, cap=cap: max(d for _, d in h.degree) <= cap)
              for cap in (2, 3)]
    cases.append(("connected", SearchConstraints(connected_only=True),
                  nx.is_connected))
    seen = Counter()
    for n in range(4, 8):
        hosts = [h for h in atlas if h.number_of_nodes() == n]
        for name in forbids:
            f = parse_pattern(name)
            pat = nx.Graph(list(f.to_graph().edges()))
            free = [h for h in hosts if not _has_copy(h, pat)]
            # the saturated hosts, with their copies of each count pattern
            copies = {id(h): [_copies(h, cg) for cg in count_graphs]
                      for h in free if all(_creates(h, pat, u, v)
                                           for u, v in nx.non_edges(h))}
            if n < f.order:
                assert [h.number_of_edges() for h in free
                        if id(h) in copies] == [n * (n - 1) // 2]
            for label, cons, keep in cases:
                kept = [h for h in free if keep(h)]
                sat = [h for h in kept if id(h) in copies]
                if n < f.order or not sat:
                    for c in counts:
                        with pytest.raises(NoneExistError):
                            satnum_exact(n, f, c, cons)
                    seen[label, "none-exist"] += 1
                    continue
                for i, c in enumerate(counts):
                    values = [copies[id(h)][i] for h in sat]
                    best = min(values)
                    rep = satnum_exact(n, f, c, cons)
                    assert (rep.minimum, rep.saturated_found,
                            rep.graphs_examined) == (best, len(sat),
                                                     len(kept)), label
                    minimizers = [h for h, x in zip(sat, values) if x == best]
                    assert rep.witness_total == len(minimizers)
                    for w in rep.witnesses:
                        wg = nx.from_graph6_bytes(w.encode())
                        assert any(nx.is_isomorphic(wg, h) for h in minimizers)
                    seen[label, "agree"] += 1
    assert seen == {("free", "agree"): 116, ("free", "none-exist"): 3,
                    ("max_degree=2", "agree"): 52,
                    ("max_degree=2", "none-exist"): 19,
                    ("max_degree=3", "agree"): 100,
                    ("max_degree=3", "none-exist"): 7,
                    ("connected", "agree"): 116,
                    ("connected", "none-exist"): 3}


def test_enumerate_classes_counts_match_networkx_atlas():
    """enumerate_classes gives as many classes of each order n <= 7 and
    each edge count as the atlas has, one graph per class: with no
    constraint, forbidding K3, K4 or C4, under max_degree 2 and 3 (for
    n above the cap, where it is valid) and under connected_only.  The
    atlas side shares no code with the parent test."""
    atlas = nx.graph_atlas_g()
    pats = {name: nx.Graph(list(parse_pattern(name).to_graph().edges()))
            for name in ("K3", "K4", "C4")}
    cases = [(SearchConstraints(), lambda h: True)]
    cases += [(SearchConstraints(forbidden=(parse_pattern(name),)),
               lambda h, pat=pat: not _has_copy(h, pat))
              for name, pat in pats.items()]
    cases += [(SearchConstraints(max_degree=cap),
               lambda h, cap=cap: max(d for _, d in h.degree) <= cap)
              for cap in (2, 3)]
    cases.append((SearchConstraints(connected_only=True), nx.is_connected))
    for cons, keep in cases:
        orders = range((cons.max_degree or 0) + 1, 8)
        want = Counter((h.number_of_nodes(), h.number_of_edges()) for h in
                       atlas if h.number_of_nodes() in orders and keep(h))
        got = Counter((n, sum(a.bit_count() for a in adj) // 2)
                      for n in orders for adj, _ in enumerate_classes(n, cons))
        assert got == want, cons


@pytest.mark.parametrize("t, counts", [
    (3, [1, 1, 1]), (4, [1, 1, 2]), (5, [1, 2, 3]),
    pytest.param(6, [1, 2, 6], marks=pytest.mark.slow)])
def test_path_saturated_trees_start_at_path_sat_threshold(t, counts):
    """No tree on 3 <= n < path_sat_threshold(t) vertices is saturated for
    the path with t edges, and the threshold and the next two orders have
    this many saturated trees (Kaszonyi and Tuza 1986).  n = 2 is left
    out: K_2 has no non-edge, so it is saturated for every longer path."""
    first = path_sat_threshold(t)
    got = [sum(is_saturated(Graph.from_edges(n, tree.edges()),
                            path(t + 1)).is_saturated
               for tree in nx.nonisomorphic_trees(n))
           for n in range(3, first + 3)]
    assert got == [0] * (first - 3) + counts
