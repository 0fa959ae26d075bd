"""Saturation verdicts against networkx, an independent oracle.

Every graph of networkx's atlas (all 1,253 graphs on at most 7 vertices)
is checked against K3, K4, S2, S3, P4 and C4.  Copies are found with
GraphMatcher subgraph monomorphisms, which share no code with satgraph's
embedding, clique and star kernels.
"""

from collections import Counter

import pytest

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402

from satgraph.graph import Graph  # noqa: E402
from satgraph.patterns import clique, parse_pattern, star  # noqa: E402
from satgraph.saturation import is_saturated  # noqa: E402


def _has_copy(host, pattern) -> bool:
    return GraphMatcher(host, pattern).subgraph_is_monomorphic()


def _creates(host, pattern, u: int, v: int) -> bool:
    host.add_edge(u, v)
    try:
        return _has_copy(host, pattern)
    finally:
        host.remove_edge(u, v)


def test_saturation_verdicts_match_networkx_atlas():
    patterns = [clique(3), clique(4), star(2), star(3), parse_pattern("P4"),
                parse_pattern("C4")]
    oracles = []
    for f in patterns:
        pg = f.to_graph()
        pat = nx.Graph()
        pat.add_nodes_from(range(pg.n))
        pat.add_edges_from(pg.edges())
        oracles.append((f, pat))
    verdicts = Counter()
    for host in nx.graph_atlas_g():
        n = host.number_of_nodes()
        g = Graph.from_edges(n, host.edges())
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not host.has_edge(u, v)]
        for f, pat in oracles:
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
                verdicts["saturated"] += 1
            else:
                # the witness is the first non-edge creating no copy
                u, v = cert.unsaturated_witness
                at = non_edges.index((u, v))
                assert cert.checked_nonedges == at + 1
                assert not _creates(host, pat, u, v), (f, g.adj, u, v)
                assert all(_creates(host, pat, a, b)
                           for a, b in non_edges[:at]), (f, g.adj)
                verdicts["unsaturated"] += 1
    assert verdicts == {"violation": 6145, "unsaturated": 1271,
                        "saturated": 102}
