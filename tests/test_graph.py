"""Graph value type, combinators, and the graph6 codec."""

import pytest

from satgraph.errors import DomainError, FormatError
from satgraph.graph import (blow_up, build_graph, combine, complement,
                            complete_graph, cycle_graph, decode_graph6,
                            disjoint_union, empty_graph, encode_graph6, join,
                            path_graph, star_graph, to_adjacency_json, Graph)
from satgraph.canon import are_isomorphic
from satgraph.counting import (count_cliques, count_independent_sets,
                               count_tree)
from satgraph.patterns import clique
from satgraph import constructions as cons

from conftest import all_labeled_graphs


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.degrees() == (2, 2, 2)
    assert g.num_edges() == 3


def test_build_fig1_from_hexagon_and_chords():
    hexagon = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    chords = [(0, 2), (2, 4), (4, 0), (1, 3), (3, 5), (5, 1)]
    g = build_graph(6, hexagon + chords)
    assert g.degrees() == (4,) * 6
    assert are_isomorphic(g, cons.fig1())


def test_build_g49_degree_sequence():
    g = cons.g49()
    assert g.degrees() == (4, 5, 4, 5, 4, 5, 5, 5, 5)
    assert g.num_edges() == 21


def test_build_rejections():
    with pytest.raises(DomainError, match="outside"):
        build_graph(3, [(0, 3)])
    with pytest.raises(DomainError, match="self-loop"):
        build_graph(3, [(1, 1)])
    with pytest.raises(DomainError, match="duplicate"):
        build_graph(3, [(0, 1), (1, 0)])


def test_join_split_graph_degrees():
    g = join(complete_graph(2), empty_graph(4))
    degs = sorted(g.degrees())
    assert degs == [2, 2, 2, 2, 5, 5]


def test_union_two_triangles():
    g = disjoint_union(complete_graph(3), complete_graph(3))
    assert g.n == 6 and g.num_edges() == 6
    assert not g.has_edge(0, 3)


def test_join_edge_count_formula():
    for n1, n2 in [(2, 4), (3, 3), (1, 5), (4, 2)]:
        g1, g2 = cycle_graph(max(n1, 3)), path_graph(n2)
        g = combine("join", g1, g2)
        assert g.num_edges() == g1.num_edges() + g2.num_edges() + g1.n * g2.n


def test_split_graph_t4_n7_edge_count():
    # (n-t+2)(t-2) + C(t-2,2) = 5*2 + 1 = 11
    g = join(complete_graph(2), empty_graph(5))
    assert g.num_edges() == 11


def test_blow_up_k2_gives_c4():
    g = blow_up(complete_graph(2), [2, 2])
    assert are_isomorphic(g, cycle_graph(4))


def test_blow_up_k3_gives_octahedron():
    g = blow_up(complete_graph(3), [2, 2, 2])
    assert g.degrees() == (4,) * 6
    assert are_isomorphic(g, cons.fig1())


def test_blow_up_g49_max_degree():
    g = cons.g4n(30)
    assert g.n == 30
    assert g.max_degree() == 19


def test_blow_up_rejects_zero_size():
    with pytest.raises(DomainError, match="positive"):
        blow_up(complete_graph(2), [2, 0])


def test_blow_up_preserves_cliques():
    hosts = [complete_graph(3), cycle_graph(5), path_graph(4), cons.fig2()]
    for h in hosts:
        b = blow_up(h, [1 + (v % 3) for v in range(h.n)])
        for r in range(2, 5):
            assert (count_cliques(h, r) > 0) == (count_cliques(b, r) > 0)


def test_complement_involution_and_identities():
    assert complement(complete_graph(4)).num_edges() == 0
    matching = build_graph(6, [(0, 1), (2, 3), (4, 5)])
    assert are_isomorphic(complement(matching), cons.fig1())
    g = cons.fig2()
    assert complement(complement(g)) == g


def test_graph6_empty5():
    assert encode_graph6(empty_graph(5)) == "D??"


def test_graph6_roundtrip_constructions():
    corpus = [cons.g49(), cons.g4n(13), cons.fig1(), cons.fig2(),
              cons.t_star(), cons.cycle_pendants(8),
              cons.kr_graph(5, 9, 3), cons.split_graph(9, 4),
              cons.w_t(4, 3, 1, 2, 2, 1), cons.near_regular(3, 5),
              empty_graph(0), complete_graph(1), cons.gtn(6, 14)]
    for g in corpus:
        back = decode_graph6(encode_graph6(g))
        assert back == g  # identical labeling, not merely isomorphic


def test_graph6_roundtrip_all_n4():
    for g in all_labeled_graphs(4):
        assert decode_graph6(encode_graph6(g)) == g


def test_graph6_large_order_header():
    g = empty_graph(100)
    s = encode_graph6(g)
    assert s.startswith("~")
    assert decode_graph6(s).n == 100


def test_graph6_truncation_reports_offset():
    s = encode_graph6(cons.g49())
    with pytest.raises(FormatError) as exc:
        decode_graph6(s[:-1])
    assert exc.value.offset == len(s) - 1


def test_graph6_bad_byte():
    with pytest.raises(FormatError):
        decode_graph6("D!\x07")


def test_adjacency_json_roundtrip():
    g = cons.fig2()
    obj = to_adjacency_json(g)
    assert build_graph(obj["n"], [tuple(e) for e in obj["edges"]]) == g


def test_immutability_of_edge_ops():
    g = cycle_graph(4)
    g2 = g.with_edge(0, 2)
    assert not g.has_edge(0, 2) and g2.has_edge(0, 2)
    assert g == cycle_graph(4)
    assert g2 == build_graph(4, g.edges() + [(0, 2)])


@pytest.mark.parametrize("n, adj", [(3, [2, 0, 0]), (2, [1, 0]), (2, [4, 0])],
                         ids=["one-way-edge", "loop", "bit-above-n"])
def test_constructor_rejects_bad_adjacency(n, adj):
    with pytest.raises(DomainError) as exc:
        Graph(n, adj)
    assert exc.value.code == "adjacency"


def test_vertex_deletion_and_induced_subgraph_reject_bad_vertices():
    for call in (lambda: empty_graph(3).delete_vertex(7),
                 lambda: empty_graph(3).delete_vertex(3),
                 lambda: complete_graph(3).delete_vertex(5),
                 lambda: complete_graph(3).delete_vertex(-1),
                 lambda: complete_graph(3).induced([1, 1]),
                 lambda: complete_graph(3).induced([0, 5]),
                 lambda: complete_graph(3).induced([-1, 0])):
        with pytest.raises(DomainError) as exc:
            call()
        assert exc.value.code == "index"
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.delete_vertex(1) == build_graph(3, [(1, 2)])
    assert g.induced([3, 2, 0]) == build_graph(3, [(0, 1)])
    assert g.induced([]) == empty_graph(0)


@pytest.mark.parametrize("u, v", [(0, 3), (3, 0), (-1, 0), (0, -1), (5, 5)])
def test_with_edge_rejects_vertices_outside_the_graph(u, v):
    with pytest.raises(DomainError) as exc:
        empty_graph(3).with_edge(u, v)
    assert exc.value.code == "index"


@pytest.mark.parametrize("call", [
    lambda g: g.relabel([0, 1, 5]),
    lambda g: g.relabel([-1, 0, 1]),
    lambda g: g.relabel([0, 0, 1]),
    lambda g: g.relabel([0, 1]),
    lambda g: g.has_edge(0, 7),
    lambda g: g.has_edge(-1, 0),
    lambda g: g.degree(3),
    lambda g: g.degree(-1),
    lambda g: g.neighbors(5),
], ids=["relabel-above", "relabel-negative", "relabel-repeat", "relabel-short",
        "has-edge-above", "has-edge-negative", "degree-above",
        "degree-negative", "neighbors-above"])
def test_vertex_and_permutation_arguments_are_checked(call):
    """A vertex outside 0..n-1, or a relabeling that is not a permutation
    of 0..n-1, is a DomainError with code index."""
    g = path_graph(3)
    with pytest.raises(DomainError) as exc:
        call(g)
    assert exc.value.code == "index"
    assert g.relabel([2, 0, 1]) == build_graph(3, [(2, 0), (0, 1)])
    assert g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert g.degree(1) == 2 and g.neighbors(1) == [0, 2]


@pytest.mark.parametrize("call, code, message", [
    (lambda: Graph(2, [1]), "domain", "adjacency length does not match order"),
    (lambda: Graph(2, [-1, 0]), "adjacency",
     "adjacency rows must be symmetric, loop-free and below bit n=2"),
    (lambda: Graph(2, [1 << 8, 0]), "adjacency",
     "adjacency rows must be symmetric, loop-free and below bit n=2"),
    (lambda: path_graph(0), "domain", "path needs at least 1 vertex"),
    (lambda: cycle_graph(2), "domain", "cycle needs at least 3 vertices"),
    (lambda: star_graph(-1), "domain", "star size must be nonnegative"),
    (lambda: combine("x", empty_graph(1), empty_graph(1)), "domain",
     "unknown combine kind 'x'"),
    (lambda: blow_up(complete_graph(2), [1]), "domain",
     "sizes length must equal graph order"),
    (lambda: blow_up(complete_graph(2), [300, 300]), "capacity",
     "blown-up order 600 exceeds capacity 512"),
    (lambda: disjoint_union(empty_graph(300), empty_graph(300)), "capacity",
     "combined order 600 exceeds capacity 512"),
    (lambda: count_tree(complete_graph(4), clique(3)), "not-a-tree",
     "count_tree expects a tree-shaped pattern"),
    (lambda: count_independent_sets(complete_graph(4), -1), "domain",
     "independent-set size must be >= 0"),
], ids=["length", "negative-row", "row-above-stride", "path-0", "cycle-2",
        "star-negative", "combine-kind", "blow-up-sizes", "blow-up-capacity",
        "union-capacity", "count-tree-clique", "independent-negative"])
def test_error_branches_name_code_and_message(call, code, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert exc.value.code == code
    assert str(exc.value) == message
