"""PatternSpec values: cached graphs, orbit representatives, equality,
hashing and text form."""

import pickle
import random

import pytest

from satgraph import patterns, search
from satgraph.constructions import t_star
from satgraph.counting import embed
from satgraph.graph import (Graph, complete_graph, cycle_graph, encode_graph6,
                            path_graph, star_graph)
from satgraph.patterns import (clique, cycle, graph_pattern, parse_pattern,
                               path, star, tree_pattern)

from conftest import random_graph


@pytest.mark.parametrize("p, graph", [
    (clique(4), complete_graph(4)), (star(3), star_graph(3)),
    (path(5), path_graph(5)), (cycle(6), cycle_graph(6)),
])
def test_to_graph_built_once_per_instance(p, graph):
    assert p.to_graph() is p.to_graph()
    assert p.to_graph() == graph
    # the cache leaves equality, hashing, text form and pickling alone
    fresh = parse_pattern(str(p))
    assert fresh == p and hash(fresh) == hash(p) and repr(fresh) == repr(p)
    clone = pickle.loads(pickle.dumps(p))
    assert clone == p and clone.to_graph() == graph


def test_pattern_compiled_once_per_process(monkeypatch):
    """Equal pattern graphs share one compile, and clearing the search's
    memo leaves it alone."""
    calls = []
    real = patterns.canonical_raw

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(patterns, "canonical_raw", counted)
    patterns._compiled.cache_clear()
    text = "T:" + encode_graph6(t_star())
    first = parse_pattern(text)
    plans = first.plans
    search.clear_cache()
    second = parse_pattern(text)
    assert second is not first and second.plans is plans
    assert second.orbit_representatives == first.orbit_representatives
    assert second.arc_representatives == first.arc_representatives
    assert len(calls) == 1


def test_orbit_representatives_find_every_anchored_copy():
    """One pinned vertex per Aut(F)-orbit finds a copy through a host
    vertex exactly when pinning every pattern vertex does."""
    spider = tree_pattern(t_star())
    paw = graph_pattern(Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)]))
    assert spider.orbit_representatives == (0, 1, 2)
    assert path(5).orbit_representatives == (0, 1, 2)
    assert cycle(5).orbit_representatives == (0,)
    assert star(3).orbit_representatives == (0, 1)
    assert len(paw.orbit_representatives) == 3
    rng = random.Random(77)
    patterns = (spider, paw, path(4), path(5), cycle(4), star(3),
                tree_pattern(path_graph(4)))
    for _ in range(60):
        host = random_graph(rng, rng.randint(4, 8), rng.choice((0.2, 0.4)))
        for f in patterns:
            for k in range(host.n):
                def found(pins):
                    return any(embed(host, f.to_graph(), {pv: k}, first=True)
                               is not None for pv in pins)
                assert (found(f.orbit_representatives)
                        == found(range(f.order))), (f, host.adj, k)


def test_arc_representatives_find_every_copy_through_an_edge():
    """One pinned arc per Aut(F)-orbit of arcs finds a copy through a host
    edge exactly when pinning every arc does."""
    spider = tree_pattern(t_star())
    paw = graph_pattern(Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)]))
    assert spider.arc_representatives == ((0, 1), (1, 0), (1, 2), (2, 1))
    assert cycle(5).arc_representatives == ((0, 1),)
    assert path(4).arc_representatives == ((0, 1), (1, 0), (1, 2))
    assert len(paw.arc_representatives) == 5
    rng = random.Random(78)
    patterns = (spider, paw, path(4), path(5), cycle(4), star(3),
                parse_pattern("G:C^"))
    for _ in range(40):
        host = random_graph(rng, rng.randint(4, 8), rng.choice((0.3, 0.5)))
        for f in patterns:
            pat = f.to_graph()
            arcs = [(a, b) for a in range(pat.n) for b in range(pat.n)
                    if pat.has_edge(a, b)]
            for u, v in host.edges():
                def found(pins):
                    return any(embed(host, pat, {a: u, b: v}, first=True)
                               is not None for a, b in pins)
                assert (found(f.arc_representatives)
                        == found(arcs)), (f, host.adj, u, v)
