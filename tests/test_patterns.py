"""PatternSpec values: cached graphs, equality, hashing and text form."""

import pickle

import pytest

from satgraph.graph import complete_graph, cycle_graph, path_graph, star_graph
from satgraph.patterns import clique, cycle, parse_pattern, path, star


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
