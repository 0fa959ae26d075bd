"""Named construction families: parameters, shapes, claimed properties."""

import hashlib

import pytest

from satgraph.canon import are_isomorphic
from satgraph.counting import count_stars
from satgraph.errors import DomainError
from satgraph.graph import build_graph, complete_graph, cycle_graph, join, complement
from satgraph.graph import encode_graph6
from satgraph.patterns import clique, parse_pattern, star
from satgraph.saturation import is_saturated
from satgraph import constructions as cons


def test_split_graph_examples():
    assert cons.split_graph(7, 4).num_edges() == 11
    assert cons.split_graph(6, 2).num_edges() == 0
    assert is_saturated(cons.split_graph(9, 4), clique(4)).is_saturated


def test_split_graph_rejects_small_n():
    with pytest.raises(DomainError):
        cons.split_graph(3, 4)


def test_near_regular_3_5():
    g = cons.near_regular(3, 5)
    assert sorted(g.degrees()) == [2, 3, 3, 3, 3]
    assert g.degree(0) == 2
    expected = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                               (1, 3), (2, 4)])
    assert g == expected  # the labeled construction is pinned


def test_near_regular_4_5_is_k5():
    assert are_isomorphic(cons.near_regular(4, 5), complete_graph(5))


def test_near_regular_3_4_is_k4():
    assert are_isomorphic(cons.near_regular(3, 4), complete_graph(4))


def test_near_regular_degree_sequences_full_grid():
    for b in range(2, 17):
        for a in range(0, b):
            g = cons.near_regular(a, b)
            degs = sorted(g.degrees())
            if (a * b) % 2 == 0:
                assert degs == [a] * b, (a, b)
            else:
                assert degs == [a - 1] + [a] * (b - 1), (a, b)


def test_near_regular_rejects_existence_violation():
    with pytest.raises(DomainError, match="exist"):
        cons.near_regular(5, 5)


def test_kr_graph_5_9_3():
    g = cons.kr_graph(5, 9, 3)
    assert count_stars(g, 2) == 39
    assert g.num_edges() == 3 + 12  # K_3 plus 4-regular on 6


def test_kr_graph_4_9_2_bridge():
    g = cons.kr_graph(4, 9, 2)
    # (t-1)(n-m) = 21 odd: bridge present
    degs = sorted(g.degrees())
    assert degs == [1, 2] + [3] * 7
    assert g.has_edge(0, 2)  # clique vertex 0 to R defect vertex


def test_kr_graph_saturated_all_m():
    for m in range(5):
        g = cons.kr_graph(5, 9, m)
        assert is_saturated(g, star(5)).is_saturated, m


def test_kr_graph_rejections():
    with pytest.raises(DomainError):
        cons.kr_graph(5, 9, 5)  # m > t-1
    with pytest.raises(DomainError):
        cons.kr_graph(5, 8, 4)  # n-m < t
    with pytest.raises(DomainError, match="bridge"):
        cons.kr_graph(4, 9, 0)  # odd parity, no clique vertex


def test_regular_multipartite_2_3_3():
    g, parts = cons.regular_multipartite(2, 3, 3)
    assert g.degrees() == (3,) * 6
    # the octahedron edges missing from g form a perfect matching
    same_part = {frozenset((u, v)) for p in parts for u in p for v in p if u < v}
    removed = [e for e in complement(g).edges()
               if frozenset(e) not in same_part]
    assert len(removed) == 3
    assert len({v for e in removed for v in e}) == 6


def test_regular_multipartite_1_4():
    for k in range(4):
        g, parts = cons.regular_multipartite(1, 4, k)
        assert g.degrees() == (k,) * 4


def test_regular_multipartite_3_3_4():
    g, parts = cons.regular_multipartite(3, 3, 4)
    assert g.n == 9 and g.degrees() == (4,) * 9
    assert len(parts) == 3


def test_regular_multipartite_full_grid():
    for a in range(1, 5):
        for r in range(2, 5):
            for k in range(a * (r - 1) + 1):
                if (k * a * r) % 2 == 1:
                    with pytest.raises(DomainError):
                        cons.regular_multipartite(a, r, k)
                    continue
                g, parts = cons.regular_multipartite(a, r, k)
                assert g.degrees() == (k,) * (a * r), (a, r, k)
                assert sorted(v for p in parts for v in p) == list(range(a * r))
                for p in parts:
                    assert len(p) == a
                    for u in p:
                        for v in p:
                            assert u == v or not g.has_edge(u, v)


def test_regular_multipartite_rejects_large_k():
    with pytest.raises(DomainError, match="too large"):
        cons.regular_multipartite(2, 3, 5)


def test_partite_saturated_16_3_4_0():
    g, parts = cons.partite_saturated(16, 3, 4, 0)
    assert g.n == 16
    assert is_saturated(g, star(4)).is_saturated
    # fallback core on 12 vertices plus a K_4 component: 4 classes needed
    assert len(parts) == 4
    assert sorted(g.degrees()) == [3] * 16


def test_partite_saturated_9_4_5_1():
    g, parts = cons.partite_saturated(9, 4, 5, 1)
    assert g.n == 9 and g.degrees() == (4,) * 9
    assert is_saturated(g, star(5)).is_saturated
    assert len(parts) == 3 and all(len(p) == 3 for p in parts)


def test_partite_saturated_rejects_small_n():
    with pytest.raises(DomainError):
        cons.partite_saturated(4, 3, 4, 0)  # n < t+1
    with pytest.raises(DomainError, match="threshold"):
        cons.partite_saturated(8, 3, 4, 0)  # below n1(0) = 9


def test_partite_partition_is_proper():
    for (n, r, t, c) in [(16, 3, 4, 0), (9, 4, 5, 1), (12, 3, 4, 1),
                         (14, 4, 4, 0), (20, 4, 6, 2)]:
        g, parts = cons.partite_saturated(n, r, t, c)
        for p in parts:
            for u in p:
                for v in p:
                    assert u == v or not g.has_edge(u, v)
        assert sorted(v for p in parts for v in p) == list(range(g.n))


def test_g49_saturated():
    g = cons.g49()
    assert g.n == 9 and g.num_edges() == 21
    cert = is_saturated(g, clique(4))
    assert cert.is_saturated


def test_g4n_30():
    g = cons.g4n(30)
    assert g.max_degree() == 19
    assert count_stars(g, 3) == 5910


def test_g4n_9_is_g49():
    assert are_isomorphic(cons.g4n(9), cons.g49())


def test_g4n_balancing_order():
    # remainder classes go to A, then C, then E (vertices 0, 2, 4)
    g = cons.g4n(10)  # sizes 2,1,1
    assert sorted(g.degrees()).count(6) == 4  # B, F, G, I see the doubled A
    g = cons.g4n(11)  # sizes 2,2,1
    # vertex class sizes show up as degree bumps on the hub six
    assert sorted(g.degrees(), reverse=True)[:6] == [7, 7, 6, 6, 6, 6]


def test_gtn_5_14():
    g = cons.gtn(5, 14)
    assert g.n == 14
    assert is_saturated(g, clique(5)).is_saturated
    assert are_isomorphic(g, join(cons.g4n(13), complete_graph(1)))


def test_gtn_rejections():
    with pytest.raises(DomainError):
        cons.gtn(3, 20)
    with pytest.raises(DomainError):
        cons.gtn(5, 9)


def test_wt_wheel():
    g = cons.w_t(4, 1, 1, 1, 1, 1)
    assert are_isomorphic(g, join(cycle_graph(5), complete_graph(1)))


def test_wt_5_2_1_1_1_1():
    g = cons.w_t(5, 2, 1, 1, 1, 1)
    assert g.n == 8


def test_wt_4_3_1_2_2_1_k4_saturated():
    g = cons.w_t(4, 3, 1, 2, 2, 1)
    cert = is_saturated(g, clique(4))
    assert cert.is_free and cert.is_saturated


def test_fig2_properties():
    g = cons.fig2()
    assert g.n == 6 and g.num_edges() == 11
    assert sorted(g.degrees()) == [3, 3, 4, 4, 4, 4]
    assert is_saturated(g, star(5)).is_saturated
    assert count_stars(g, 3) == 18


def test_t_star_shape():
    t = cons.t_star()
    assert t.n == 7
    assert sorted(t.degrees()) == [1, 1, 1, 2, 2, 2, 3]


def test_cycle_pendants_8():
    g = cons.cycle_pendants(8)
    assert g.n == 16 and g.num_edges() == 16


def test_saturation_grid_spot_checks():
    # light versions of the acceptance grid
    for t in (2, 3, 4):
        for n in range(2 * t - 1, 2 * t + 3):
            for m in range(t):
                if n - m < t or (m == 0 and ((t - 1) * n) % 2 == 1):
                    continue
                assert is_saturated(cons.kr_graph(t, n, m), star(t)).is_saturated
    for t in (2, 3, 5):
        for n in range(t, t + 4):
            assert is_saturated(cons.split_graph(n, t), clique(t)).is_saturated
    for n in range(9, 13):
        assert is_saturated(cons.g4n(n), clique(4)).is_saturated


def _construction_and_pattern_outputs():
    """The labelled output, or the error, of each parametrised family and
    of parse_pattern for every symbolic kind, over small grids."""
    calls = [(cons.near_regular, (a, b))
             for a in range(-1, 12) for b in range(25)]
    calls += [(cons.regular_multipartite, (a, r, k)) for a in range(6)
              for r in range(1, 6) for k in range(-1, a * (r - 1) + 2)]
    calls += [(cons.partite_saturated, (n, r, t, c)) for n in range(25)
              for r in range(2, 6) for t in range(2, 6)
              for c in range(-1, r)]
    calls += [(cons.kr_graph, (t, n, m)) for t in range(1, 8)
              for n in range(15) for m in range(-1, t + 1)]
    for func, args in calls:
        try:
            out = func(*args)
        except DomainError as exc:
            yield (func.__name__, args, exc.code, str(exc))
            continue
        g, parts = out if isinstance(out, tuple) else (out, None)
        yield (func.__name__, args, encode_graph6(g), parts)
    for letter in "KSPC":
        for size in range(-1, 9):
            try:
                p = parse_pattern(f"{letter}{size}")
            except DomainError as exc:
                yield (letter, size, exc.code, str(exc))
                continue
            yield (letter, size, str(p), repr(p), p.order,
                   encode_graph6(p.to_graph()))


# SHA-256 of the repr of each _construction_and_pattern_outputs() entry,
# in order, computed before the circulant builder and the pattern-kind
# table were merged.
CONSTRUCTION_PATTERN_DIGEST = ("644409cc28a77d2a6647dba16de14216"
                               "5914136d8fe926f2e5ea0e5183ae2305")


def test_construction_and_pattern_golden_digest():
    h = hashlib.sha256()
    for entry in _construction_and_pattern_outputs():
        h.update(repr(entry).encode())
    assert h.hexdigest() == CONSTRUCTION_PATTERN_DIGEST
