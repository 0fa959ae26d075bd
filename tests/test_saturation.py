"""Freeness/saturation verdicts, certificates, and universal-vertex peeling."""

import hashlib
import json
import random
from itertools import combinations

import pytest

from satgraph.canon import are_isomorphic
from satgraph.counting import count_cliques, embed, run_plan
from satgraph.errors import DomainError
from satgraph.graph import (bits, complete_graph, cycle_graph,
                            disjoint_union, empty_graph, join)
from satgraph.patterns import clique, parse_pattern, star, tree_pattern
from satgraph.saturation import (contains_copy, creates_copy,
                                 is_family_saturated, is_saturated,
                                 peel_universal, split_family,
                                 star_sat_structure)
from satgraph import bounds, constructions as cons

from conftest import all_labeled_graphs, non_edges, random_graph


def test_contains_no_s5_in_octahedron():
    assert contains_copy(cons.fig1(), star(5)) is None


def test_octahedron_plus_any_edge_has_s5():
    g = cons.fig1()
    for u, v in non_edges(g):
        assert contains_copy(g.with_edge(u, v), star(5)) is not None


def test_g49_is_k4_free():
    assert contains_copy(cons.g49(), clique(4)) is None


def test_split_graph_k4_saturated():
    cert = is_saturated(cons.split_graph(9, 4), clique(4))
    assert cert.is_saturated and cert.is_free


def test_c5_triangle_saturated():
    cert = is_saturated(cycle_graph(5), clique(3))
    assert cert.is_saturated


def test_cycle_pendants_not_tstar_saturated_with_dashed_witness():
    g = cons.cycle_pendants(8)
    cert = is_saturated(g, tree_pattern(cons.t_star()))
    assert cert.is_free and not cert.is_saturated
    u, v = cert.unsaturated_witness
    # witness joins a cycle vertex to the pendant of a neighboring cycle vertex
    cyc, pend = (u, v) if u < 8 else (v, u)
    assert cyc < 8 <= pend
    owner = pend - 8
    assert owner != cyc
    assert g.has_edge(cyc, owner)


def test_certificate_explains_all_verdicts():
    sat = is_saturated(cycle_graph(5), clique(3))
    assert sat.is_saturated and sat.free_violation is None \
        and sat.unsaturated_witness is None
    not_free = is_saturated(complete_graph(4), clique(3))
    assert not not_free.is_free and not_free.free_violation is not None
    not_sat = is_saturated(empty_graph(4), clique(3))
    assert not_sat.is_free and not not_sat.is_saturated \
        and not_sat.unsaturated_witness is not None


def test_complete_graphs_vacuously_saturated():
    assert is_saturated(complete_graph(3), star(5)).is_saturated
    assert is_saturated(complete_graph(2), tree_pattern(cons.t_star())).is_saturated


def test_pattern_larger_than_noncomplete_host_not_saturated():
    assert not is_saturated(cycle_graph(4), star(5)).is_saturated


def test_family_single_pattern_matches_single_api():
    for g in (cycle_graph(5), cycle_graph(6), complete_graph(4),
              disjoint_union(cycle_graph(5), cycle_graph(3))):
        a = is_saturated(g, star(3)).is_saturated
        b = is_family_saturated(g, [star(3)]).is_saturated
        assert a == b


def test_family_k3_plus_isolated():
    g = disjoint_union(complete_graph(3), complete_graph(1))
    cert = is_family_saturated(g, [clique(4), star(3)])
    assert cert.is_saturated


def test_empty_graph_s1_saturated():
    cert = is_saturated(empty_graph(3), star(1))
    assert cert.is_saturated


def test_family_rejects_empty():
    with pytest.raises(DomainError):
        is_family_saturated(cycle_graph(4), [])


def test_peel_join_k1():
    h = cycle_graph(5)
    g = join(complete_graph(1), h)  # vertex 0 universal
    peeled, fam = peel_universal(g, [clique(4)])
    assert are_isomorphic(peeled, h)
    assert len(fam) == 1 and are_isomorphic(fam[0].graph, complete_graph(3))


def test_peel_requires_universal_vertex():
    with pytest.raises(DomainError, match="max degree"):
        peel_universal(cycle_graph(5), [clique(3)])


def test_peel_star_family_members():
    t = 4
    g = join(complete_graph(1), cycle_graph(6))
    _, fam = peel_universal(g, [star(t)])
    # deletions of a star: the edgeless graph on t vertices (center removed)
    # and the smaller star (leaf removed); the edgeless one embeds in the
    # star, so minimal reduction keeps only the edgeless member
    assert len(fam) == 1
    member = fam[0].graph
    assert member.n == t and member.num_edges() == 0


def test_peel_split_twice():
    g = cons.split_graph(5, 4)  # K_2 + empty_3, both clique vertices universal
    g1, fam1 = peel_universal(g, [clique(4)])
    g2, fam2 = peel_universal(g1, fam1)
    assert g2.num_edges() == 0 and g2.n == 3
    assert any(are_isomorphic(m.graph, complete_graph(2)) for m in fam2)


def test_peeling_equivalence_on_corpus():
    """Saturation for the family is preserved by one peel (hosts n <= 7)."""
    families = [
        [clique(3)], [clique(4)], [star(3)], [star(4)],
        [parse_pattern("P4")], [parse_pattern("P5")], [parse_pattern("C4")],
        [clique(4), star(3)], [parse_pattern("P4"), clique(3)],
    ]
    hosts = []
    for n in (3, 4, 5):
        for h in all_labeled_graphs(n):
            hosts.append(join(complete_graph(1), h))
    import random
    rnd = random.Random(7)
    for n in (5, 6):
        for _ in range(12):
            hosts.append(join(complete_graph(1), random_graph(rnd, n, rnd.choice([0.3, 0.6]))))
    for g in hosts:
        for fam in families:
            before = is_family_saturated(g, fam).is_saturated
            peeled, fam2 = peel_universal(g, fam)
            after = is_family_saturated(peeled, fam2).is_saturated
            assert before == after, (g.edges(), [str(f) for f in fam])


def test_anchored_creation_equals_full_search(rng):
    pats = [clique(3), clique(4), star(3), parse_pattern("P4"),
            parse_pattern("C5"), tree_pattern(cons.t_star())]
    for n in (5, 6, 7):
        for _ in range(15):
            g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
            for f in pats:
                if contains_copy(g, f) is not None:
                    continue  # creation semantics assumes freeness
                for u, v in non_edges(g):
                    anchored = creates_copy(g, f, u, v)
                    full = contains_copy(g.with_edge(u, v), f) is not None
                    assert anchored == full


def test_saturation_verdict_revalidated_by_full_search(rng):
    """is_saturated implies every non-edge addition contains a copy."""
    for g, f in [(cons.fig1(), star(5)), (cycle_graph(5), clique(3)),
                 (cons.kr_graph(4, 9, 3), star(4))]:
        cert = is_saturated(g, f)
        assert cert.is_saturated
        for u, v in non_edges(g):
            assert contains_copy(g.with_edge(u, v), f) is not None


def test_star_sat_structure_kr():
    g = cons.kr_graph(5, 9, 3)
    info = star_sat_structure(g, 5)
    assert info["max_degree"] == 4
    assert sorted(info["low_degree_vertices"]) == [0, 1, 2]
    assert info["clique_ok"]


def test_star_sat_structure_fig2():
    info = star_sat_structure(cons.fig2(), 5)
    assert info["max_degree"] == 4
    assert len(info["low_degree_vertices"]) == 2
    assert info["clique_ok"]


def test_star_sat_structure_c4():
    info = star_sat_structure(cycle_graph(4), 4)
    assert info["max_degree"] == 2
    assert len(info["low_degree_vertices"]) == 4
    assert not info["clique_ok"]


def test_certificate_json_shape():
    cert = is_saturated(cons.fig1(), star(5))
    blob = cert.to_json()
    assert blob["saturated"] is True and blob["pattern"] == "S5"
    assert isinstance(blob["graph"], str) and blob["witness"] is None


def test_anchored_first_hit_respects_the_added_edge(rng):
    """The pinned first-hit maps behind creates_copy use the new edge."""
    pats = [parse_pattern("P4"), parse_pattern("C5"),
            tree_pattern(cons.t_star())]
    for n in (5, 6, 7):
        for _ in range(10):
            g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
            for f in pats:
                pat = f.to_graph()
                for u, v in non_edges(g):
                    gp = g.with_edge(u, v)
                    for a, b in pat.edges():
                        pin = {a: u, b: v}
                        hit = embed(gp, pat, pin, first=True)
                        assert (hit is None) == (embed(gp, pat, pin) == 0)
                        if hit is None:
                            continue
                        assert hit[a] == u and hit[b] == v
                        assert len(set(hit)) == pat.n
                        assert all(gp.has_edge(hit[x], hit[y])
                                   for x, y in pat.edges())


def test_star_witness_is_the_plan_witness(rng):
    """contains_copy's star branch returns what the unpinned plan of the
    star, the general path, returns, and the first vertex v of degree at
    least r with the first r entries of v's whole neighbour list."""
    graphs = [cons.kr_graph(t, n, m) for t in range(3, 8)
              for n in range(2 * t - 1, 2 * t + 4) for m in range(t)
              if n - m >= t and (m or (t - 1) * (n - m) % 2 == 0)]
    graphs += [cons.split_graph(n, t) for n in range(2, 11)
               for t in range(2, n + 1)]
    graphs += [random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
               for n in range(11) for _ in range(8)]
    graphs += [complete_graph(n) for n in (1, 2, 5, 60)]
    for g in graphs:
        for r in range(1, 10):
            f = star(r)
            plan = run_plan(f.plans[0][0], g.adj, g.degrees(), (), True)
            v = next((v for v, a in enumerate(g.adj) if a.bit_count() >= r),
                     None)
            listed = None if v is None else tuple(
                [v] + list(bits(g.adj[v]))[:r])
            assert contains_copy(g, f) == plan == listed, (g, r)


def test_split_family_equals_min_and_filter():
    """split_family gives what the smallest-clique and smallest-star
    minimums and the filter of the other members give, on mixed
    families of every size up to 6."""
    rng = random.Random(20261022)
    pool = [clique(t) for t in range(2, 7)] + [star(r) for r in range(1, 7)]
    pool += [parse_pattern(x) for x in ("P3", "P4", "C5")]
    pool.append(tree_pattern(cons.t_star()))
    for size in range(7):
        for _ in range(60):
            fs = [rng.choice(pool) for _ in range(size)]
            want = (min((f.size for f in fs if f.kind == "clique"),
                        default=None),
                    min((f.size for f in fs if f.kind == "star"),
                        default=None),
                    [f for f in fs if f.kind not in ("clique", "star")])
            assert split_family(fs) == split_family(tuple(fs)) == want, fs


def test_clique_witness_agrees_with_clique_count(rng):
    for n in (5, 7, 9):
        for _ in range(6):
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            for r in range(1, 6):
                hit = contains_copy(g, clique(r))
                assert (hit is not None) == (count_cliques(g, r) > 0)
                if hit is not None:
                    assert all(g.has_edge(u, v) for u in hit for v in hit
                               if u != v)


def _certificate_cases():
    """(graph, family) pairs the certificate digest covers: the acceptance
    grid's constructions, cycle_pendants against the spider, seeded G(n, p)
    and seeded free graphs on 1..12 vertices against single patterns, and
    a few two-member families."""
    spider = tree_pattern(cons.t_star())
    for t in range(2, 8):
        for n in range(t, 2 * t + 5):
            for m in range(t):
                if n - m >= t and (m or (t - 1) * n % 2 == 0):
                    yield cons.kr_graph(t, n, m), [star(t)]
    for t in range(2, 7):
        for n in range(t, 15):
            yield cons.split_graph(n, t), [clique(t)]
    for n in range(9, 16):
        yield cons.g4n(n), [clique(4)]
    for t in (5, 6):
        for n in range(t + 5, 16):
            yield cons.gtn(t, n), [clique(t)]
    for r in (3, 4):
        for t in range(3, 7):
            for c in range(r - 1):
                lo = max(t + 1, bounds.partite_threshold(r, t, c))
                for n in range(lo, lo + 6):
                    yield cons.partite_saturated(n, r, t, c)[0], [star(t)]
    yield cons.g49(), [clique(4)]
    yield cons.fig1(), [star(5)]
    yield cons.fig2(), [star(5)]
    for k in range(3, 11):
        yield cons.cycle_pendants(k), [spider]
    singles = ([clique(t) for t in range(1, 6)]
               + [star(r) for r in range(1, 5)]
               + [parse_pattern(s) for s in ("P4", "C4", "C5")] + [spider])
    rnd = random.Random(20261019)
    for n in range(1, 13):
        for p in (0.2, 0.5, 0.8):
            g = random_graph(rnd, n, p)
            for f in singles:
                yield g, [f]
        for f in singles:
            pairs = list(combinations(range(n), 2))
            rnd.shuffle(pairs)
            g = empty_graph(n)
            for u, v in pairs[:rnd.randint(0, len(pairs))]:
                h = g.with_edge(u, v)
                if contains_copy(h, f) is None:
                    g = h
            yield g, [f]
    pairs = [[clique(4), star(3)], [parse_pattern("P4"), clique(3)],
             [parse_pattern("C4"), clique(3)], [star(3), parse_pattern("C5")],
             [spider, clique(3)]]
    for n in range(4, 10):
        for fam in pairs:
            yield random_graph(rnd, n, 0.3), fam
            yield cons.cycle_pendants(n - 1), fam


def _certificate_digest() -> str:
    h = hashlib.sha256()
    for g, fam in _certificate_cases():
        cert = is_family_saturated(g, fam)
        h.update(json.dumps(cert.to_json(), sort_keys=True).encode())
    return h.hexdigest()


# SHA-256 over _certificate_cases() of is_family_saturated's JSON
# certificates; computed with the per-non-edge creation loop.
CERTIFICATE_GOLDEN_DIGEST = ("421ae55dfdfaf9fdf6a1b0ba32fc29f7"
                             "dfbeabb528febed5d4b33ce79eaac3e4")


def test_certificate_golden_digest():
    assert _certificate_digest() == CERTIFICATE_GOLDEN_DIGEST
