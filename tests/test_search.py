"""Enumeration completeness, prune soundness, oracle determinism."""

import hashlib
import json
import random
from collections import Counter

import pytest

from satgraph import search
from satgraph.canon import canonical_form, canonical_raw
from satgraph.errors import DomainError, NoneExistError
from satgraph.graph import Graph, decode_graph6, degree_masks, deleted_rows
from satgraph.patterns import (clique, cycle, parse_pattern, path, star,
                               tree_pattern)
from satgraph.counting import count_pattern
from satgraph.saturation import (contains_copy, first_uncreated, is_saturated,
                                 saturation_verdict, star_sat_structure)
from satgraph.search import (SearchConstraints, clear_cache, enumerate_classes,
                             enumerate_graphs, exists_saturated_with,
                             satnum_exact, saturated_classes, tstar_scan)
from satgraph import constructions as cons

from conftest import (automorphism_count, burnside_class_count, group_order,
                      labeled_class_count, random_graph, random_regular)


def test_class_counts_brute_force_n_le_5():
    for n in (1, 2, 3, 4, 5):
        assert len(enumerate_classes(n)) == labeled_class_count(n)


def test_class_counts_burnside_n_le_8():
    expected = {4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
    for n, count in expected.items():
        assert burnside_class_count(n) == count
        assert len(enumerate_classes(n)) == count


def test_enumeration_representatives_pairwise_noniso():
    seen = set()
    for g in enumerate_graphs(6):
        code = canonical_form(g)
        assert code not in seen
        seen.add(code)


def test_degree_capped_n5():
    cls = enumerate_classes(5, SearchConstraints(max_degree=2))
    # unions of paths and cycles on 5 vertices; brute-force recount
    brute = labeled_class_count(5, lambda g: g.max_degree() <= 2)
    assert len(cls) == brute == 11
    for adj, _ in cls:
        assert Graph(5, adj).max_degree() <= 2


def test_triangle_free_counts():
    brute = labeled_class_count(5, lambda g: not _has_triangle(g))
    cls = enumerate_classes(5, SearchConstraints(forbidden=(clique(3),)))
    assert len(cls) == brute


def _has_triangle(g: Graph) -> bool:
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v) and g.adj[u] & g.adj[v]:
                return True
    return False


def test_forbidden_tree_pattern_enforced():
    spider = tree_pattern(cons.t_star())
    cls = enumerate_classes(7, SearchConstraints(forbidden=(spider,)))
    total = len(enumerate_classes(7))
    from satgraph.saturation import contains_copy
    assert 0 < len(cls) < total
    for adj, _ in cls:
        assert contains_copy(Graph(7, adj), spider) is None


def test_connected_only():
    cls = enumerate_classes(5, SearchConstraints(connected_only=True))
    assert len(cls) == 21  # connected graphs on 5 vertices


def test_enumeration_cap():
    with pytest.raises(DomainError, match="cap"):
        enumerate_classes(11)


def test_satnum_exact_5_k3_edges():
    rep = satnum_exact(5, clique(3), star(1))
    assert rep.minimum == 4
    assert rep.witness_total == 1
    w = decode_graph6(rep.witnesses[0])
    assert sorted(w.degrees()) == [1, 1, 1, 1, 4]  # the star S_4


def test_satnum_exact_6_s5_s3():
    rep = satnum_exact(6, star(5), star(3))
    assert rep.minimum == 18
    codes = {canonical_form(decode_graph6(w)) for w in rep.witnesses}
    assert canonical_form(cons.fig2()) in codes


def test_satnum_exact_9_s5_s2():
    rep = satnum_exact(9, star(5), star(2))
    assert rep.minimum == 39


def test_satnum_exact_none_exist():
    with pytest.raises(NoneExistError):
        satnum_exact(4, star(5), star(1))  # n <= t: only vacuous completes
    with pytest.raises(NoneExistError):
        # saturation needs a degree-3 vertex, impossible under the cap
        satnum_exact(6, star(4), star(1),
                     SearchConstraints(max_degree=2))


def test_prune_soundness_star_degree_cap():
    """The max-degree prune never changes the reported minimum: the search
    agrees with a filter of every n-vertex class by is_saturated."""
    for t in (3, 4):
        for n in range(t + 1, 8):
            sat = [g for g in enumerate_graphs(n)
                   if is_saturated(g, star(t)).is_saturated]
            for r in (1, 2):
                clear_cache()
                rep = satnum_exact(n, star(t), star(r))
                values = [count_pattern(g, star(r)) for g in sat]
                best = min(values)
                assert rep.minimum == best, (t, n, r)
                assert rep.saturated_found == len(sat)
                assert rep.witness_total == len(rep.witnesses)
                assert sorted(canonical_form(decode_graph6(w))
                              for w in rep.witnesses) == sorted(
                    canonical_form(g) for g, value in zip(sat, values)
                    if value == best)
    clear_cache()


def test_star_saturated_structure_over_enumeration():
    """Every star-saturated graph has max degree t-1 and a low-degree clique."""
    for t in (2, 3, 4, 5):
        for n in range(t + 1, 10):
            try:
                sat, _ = saturated_classes(n, star(t))
            except NoneExistError:
                continue
            for g in sat:
                info = star_sat_structure(g, t)
                assert info["max_degree"] == t - 1
                assert info["clique_ok"]


def test_clique_minimum_small_scale_agreement():
    # minimum K_2 copies (edges) among K_4-saturated graphs on 9 vertices
    rep = satnum_exact(9, clique(4), clique(2))
    from satgraph.bounds import cl_value
    assert rep.minimum == cl_value(9, 2, 4) == 15


def test_clique_minimum_equals_chakraborti_loh():
    """The least K_r count over K_t-saturated graphs on n vertices, by
    search, equals Chakraborti and Loh's cl_value at every point tried:
    t = 4 with r = 2, 3 on n = 4..8 and t = 5 with r = 2..4 on n = 5..8."""
    from satgraph.bounds import cl_value
    points = [(n, r, t) for t, rs in ((4, (2, 3)), (5, (2, 3, 4)))
              for r in rs for n in range(t, 9)]
    assert len(points) == 22
    for n, r, t in points:
        rep = satnum_exact(n, clique(t), clique(r))
        assert rep.minimum == cl_value(n, r, t), (n, r, t)
    clear_cache()


def test_exists_saturated_with_k3_free():
    w = exists_saturated_with(8, star(5), ("k-free", 3))
    assert w is not None
    assert sorted(w.degrees()) == [4] * 8  # 4-regular bipartite witness
    assert exists_saturated_with(7, star(5), ("k-free", 3)) is None


def test_exists_saturated_with_k4_free_6():
    w = exists_saturated_with(6, star(5), ("k-free", 4))
    assert w is not None
    assert canonical_form(w) == canonical_form(cons.fig1())


def test_exists_saturated_bipartite_property():
    w = exists_saturated_with(8, star(5), ("bipartite",))
    assert w is not None


def test_tstar_scan_small():
    rep = tstar_scan(8)
    assert rep["any_found"] is False
    assert rep["per_n"][1]["vacuous_complete"]
    assert rep["per_n"][2]["vacuous_complete"]
    assert all(rep["per_n"][n]["found"] == 0 for n in range(1, 9))


def test_tstar_unconstrained_control_n7():
    spider = tree_pattern(cons.t_star())
    sat, _ = saturated_classes(7, spider)
    assert len(sat) > 0
    for g in sat[:5]:
        assert is_saturated(g, spider).is_saturated


def test_worker_determinism():
    clear_cache()
    seq = satnum_exact(7, star(4), star(2))
    clear_cache()
    par = satnum_exact(7, star(4), star(2), workers=2)
    assert seq.to_json() | {"workers": 0} == par.to_json() | {"workers": 0}
    clear_cache()


def test_report_shape():
    rep = satnum_exact(6, star(4), star(2))
    blob = rep.to_json()
    assert blob["n"] == 6 and blob["forbid"] == "S4" and blob["count"] == "S2"
    assert blob["witness_total"] >= len(blob["witnesses"]) >= 1
    assert blob["graphs_examined"] >= blob["saturated_found"] >= 1


def test_triangle_free_counts_oeis_a006785():
    counts = [len(enumerate_classes(n, SearchConstraints(forbidden=(clique(3),))))
              for n in range(1, 10)]
    assert counts == [1, 2, 3, 7, 14, 38, 107, 410, 1897]


def test_triangle_free_count_oeis_a006785_n10():
    triangle_free = SearchConstraints(forbidden=(clique(3),))
    assert len(enumerate_classes(10, triangle_free)) == 12172


def test_only_smallest_forbidden_clique_prunes():
    for n in range(1, 8):
        both = SearchConstraints(forbidden=(clique(3), clique(5)))
        alone = SearchConstraints(forbidden=(clique(3),))
        assert enumerate_classes(n, both) == enumerate_classes(n, alone)


def test_worker_determinism_clique_and_degree_cap():
    cons_ = SearchConstraints(max_degree=4)
    clear_cache()
    seq = satnum_exact(8, clique(3), star(2), cons_)
    clear_cache()
    par = satnum_exact(8, clique(3), star(2), cons_, workers=2)
    assert seq.to_json() | {"workers": 0} == par.to_json() | {"workers": 0}
    clear_cache()


def test_negative_max_degree_is_domain_error():
    for call in (lambda: enumerate_classes(5, SearchConstraints(max_degree=-1)),
                 lambda: satnum_exact(6, clique(3), star(1),
                                      SearchConstraints(max_degree=-1))):
        with pytest.raises(DomainError) as exc:
            call()
        assert exc.value.code == "domain"  # not a none-exist verdict
    clear_cache()


def _search_digest_configs():
    """(forbidden pattern, constraints) pairs the search digest covers,
    each searched on every order 1..8."""
    spider = tree_pattern(cons.t_star())
    forbids = (clique(3), clique(4), clique(5), star(3), star(4), star(5),
               path(4), cycle(4), spider)
    for f in forbids:
        yield f, SearchConstraints()
        yield f, SearchConstraints(max_degree=3)
    for f in (clique(3), star(4), star(5), path(4), cycle(4)):
        yield f, SearchConstraints(connected_only=True)


# SHA-256 over _search_digest_configs() of the saturated_classes adjacency
# rows in order with graphs_examined, then the satnum_exact (count S1)
# JSON report, or the error code where the search has no answer; computed
# with the enumerator that deduplicated every child by canonical code.
SEARCH_GOLDEN_DIGEST = ("69162b8f5eb407f546657aa469df035a"
                        "fd9e13579ac31723045e87d20116ed47")


@pytest.mark.slow
def test_search_output_golden_digest():
    h = hashlib.sha256()
    for f, constraints in _search_digest_configs():
        for n in range(1, 9):
            clear_cache()
            try:
                sat, examined = saturated_classes(n, f, constraints)
                h.update(repr(([g.adj for g in sat], examined)).encode())
                rep = satnum_exact(n, f, star(1), constraints)
                h.update(json.dumps(rep.to_json(), sort_keys=True).encode())
            except DomainError as exc:
                h.update(exc.code.encode())
    clear_cache()
    assert h.hexdigest() == SEARCH_GOLDEN_DIGEST


def test_worker_parity_k4_free_n8():
    k4_free = SearchConstraints(forbidden=(clique(4),))
    assert (enumerate_classes(8, k4_free, workers=2)
            == enumerate_classes(8, k4_free, workers=1))
    clear_cache()
    seq = satnum_exact(8, clique(4), star(1))
    clear_cache()
    par = satnum_exact(8, clique(4), star(1), workers=2)
    clear_cache()
    assert par.workers == 2
    assert seq.to_json() | {"workers": 2} == par.to_json()


def _reference_parent_test(adjP, codeP, k, nmask):
    """(accepted, ambiguous, code) for the child P + k with neighbourhood
    nmask, decided from the child's canonical form alone: k must be an
    invariant minimizer, w* is the minimizer placed last canonically, and
    the child is accepted iff w* is k or C - w* has P's code."""
    n = k + 1
    g = Graph(n, tuple(a | (1 << k) if nmask >> v & 1 else a
                       for v, a in enumerate(adjP)) + (nmask,))
    inv = [(g.degree(v), sorted(g.degree(u) for u in range(n)
                                if g.has_edge(u, v))) for v in range(n)]
    mins = [v for v in range(n) if inv[v] == min(inv)]
    code, lab, _ = canonical_raw(n, g.adj)
    wstar = max(mins, key=lab.index)
    accepted = k in mins and (
        wstar == k
        or canonical_raw(k, g.delete_vertex(wstar).adj)[0] == codeP)
    return accepted, len(mins) > 1, code


def _final_level_against_reference(n, constraints):
    """Check every final-level child's decision against the reference and
    the final level against the reference with every ambiguous child
    deduplicated; returns the number of duplicates dropped."""
    cap, clique, forbidden = search._effective(n, constraints)
    level = search._base_level(False)
    for k in range(1, n - 1):
        level = search._grow_level(level, k, cap, clique, forbidden, False)
    k = n - 1
    expected, duplicates = [], 0
    for adjP, codeP, gens in level:
        degP = [a.bit_count() for a in adjP]
        seen, memo = set(), {}
        fullP = codeP or canonical_raw(k, adjP)[0]
        for mask in search._candidates(adjP, degP, gens, cap, clique):
            accepted, ambiguous, code = _reference_parent_test(
                adjP, fullP, k, mask)
            child = search._try_child(adjP, codeP, degree_masks(degP),
                                      k, mask, forbidden, None, memo)
            assert (child is not None) == accepted, (adjP, mask)
            if not accepted:
                continue
            if ambiguous:
                if code in seen:
                    duplicates += 1
                    continue
                seen.add(code)
            expected.append(child[0])
    final = search._grow_level(level, k, cap, clique, forbidden, True)
    assert [adj for adj, _ in final] == expected
    return duplicates


def test_parent_test_decisions_match_canonical_form_reference():
    """The parent test that settles children by twins and the equitable
    partition decides every final-level child as the canonical form
    would, and deduplicates to the same representatives."""
    k4_free = SearchConstraints(forbidden=(clique(4),))
    assert _final_level_against_reference(8, k4_free) > 0
    _final_level_against_reference(7, SearchConstraints())
    _final_level_against_reference(
        8, SearchConstraints(forbidden=(clique(3),)))
    _final_level_against_reference(8, SearchConstraints(max_degree=3))


@pytest.mark.slow
def test_parent_test_decisions_match_reference_wider():
    """The reference decision check on all graphs on 8 vertices, which
    drops duplicates, and on triangle-free graphs on 9.  The check
    ignores the patterns embedded through k: the reference accepts
    children that contain one (C4-free n=9 fails it for that reason), so
    it takes no configuration that forbids a path, cycle or tree."""
    assert _final_level_against_reference(8, SearchConstraints()) > 0
    _final_level_against_reference(
        9, SearchConstraints(forbidden=(clique(3),)))


def _assert_level_groups(n, constraints):
    """Every level entry below the final order, on 2..n vertices, carries
    a code that is None or its canonical code, and at most n - 1 distinct
    automorphisms that generate its whole automorphism group."""
    cap, clique, forbidden = search._effective(n, constraints)
    level = search._base_level(False)
    for k in range(1, n):
        level = search._grow_level(level, k, cap, clique, forbidden, False)
        for adj, code, gens in level:
            g = Graph(k + 1, adj)
            assert code is None or code == canonical_raw(k + 1, adj)[0]
            for s in gens:
                assert g.relabel(list(s)).adj == adj, (adj, s)
            assert len(set(gens)) == len(gens) <= k, (adj, gens)
            assert group_order(k + 1, gens) == automorphism_count(g), adj


@pytest.mark.slow
def test_level_generators_generate_the_group():
    """The generators a child takes from its parent's group, or from its
    canonical form, generate the child's automorphism group: all graphs
    on up to 7 vertices and K4-free, S4-free and degree-capped ones on up
    to 8."""
    _assert_level_groups(7, SearchConstraints())
    for constraints in (SearchConstraints(forbidden=(clique(4),)),
                        SearchConstraints(forbidden=(star(4),)),
                        SearchConstraints(max_degree=3)):
        _assert_level_groups(8, constraints)


# SHA-256 of the adjacency rows enumerate_classes(9) returns, in order;
# computed with the enumerator that settled tied minimizer cells by twins
# and canonical forms only.
A000088_N9_DIGEST = ("06bc9faa443ea2fca8fd7bf4fd7ed5b7"
                     "2ca306dd8b0de55e520948e79ffca1c9")


@pytest.mark.slow
def test_all_graphs_n9_oeis_a000088_and_digest():
    classes = enumerate_classes(9)
    assert len(classes) == 274668
    digest = hashlib.sha256(repr([adj for adj, _ in classes]).encode())
    assert digest.hexdigest() == A000088_N9_DIGEST


def test_masked_profile_equals_profile_of_deleted_graph():
    """The profile read off C's rows with w masked out is the profile of
    C - w, here in a random relabelling of C, on seeded G(n, p) graphs."""
    rng = random.Random(20261018)
    for n in range(2, 11):
        for p in (0.2, 0.5, 0.8):
            g = random_graph(rng, n, p)
            perm = rng.sample(range(n), n)
            h = g.relabel(perm)
            for w in range(n):
                assert (search._profile(g.adj, w)
                        == search._profile(h.delete_vertex(perm[w]).adj))


def _profile_reference(adj, drop=-1):
    """The list-based profile: the sorted (degree, sorted neighbour
    degrees) pairs of the graph on the rows adj, less the vertex drop."""
    keep = [v for v in range(len(adj)) if v != drop]
    deg = {v: sum(adj[v] >> u & 1 for u in keep) for v in keep}
    return sorted((deg[v], sorted(deg[u] for u in keep if adj[v] >> u & 1))
                  for v in keep)


def _edge_switched(rng, g, switches):
    """g after up to switches random double-edge swaps ab, cd -> ad, cb,
    each made only where it keeps the graph simple: degrees stay."""
    adj = list(g.adj)
    for _ in range(switches):
        edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                 if adj[u] >> v & 1]
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or adj[a] >> d & 1 or adj[c] >> b & 1:
            continue
        for u, v in ((a, b), (c, d), (a, d), (c, b)):
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
    return Graph(g.n, adj)


def test_profile_equal_exactly_when_list_profiles_equal():
    """Two count-vector profiles are equal exactly when the list-based
    (degree, sorted neighbour degrees) profiles are, with and without a
    dropped vertex, and for C - w against a graph on one vertex fewer as
    in the deletion check.  The seeded pairs share a degree sequence
    where they can: G(n, p) graphs against edge-switched copies and
    relabellings, and random regular graphs against each other and their
    switched copies, so that equal profiles are common."""
    rng = random.Random(20261019)
    pairs = []
    for n in range(2, 11):
        for p in (0.2, 0.5, 0.8):
            g = random_graph(rng, n, p)
            pairs += [(g, random_graph(rng, n, p)),
                      (g, _edge_switched(rng, g, 3)),
                      (g, g.relabel(rng.sample(range(n), n)))]
    for n, d in ((6, 3), (8, 3), (8, 4), (9, 4), (10, 3), (10, 5)):
        for _ in range(3):
            g = random_regular(rng, n, d)
            pairs += [(g, random_regular(rng, n, d)),
                      (g, _edge_switched(rng, g, 4))]
    outcomes = Counter()

    def agree(a, da, b, db):
        equal = search._profile(a, da) == search._profile(b, db)
        assert equal == (_profile_reference(a, da)
                         == _profile_reference(b, db)), (a, da, b, db)
        outcomes[da >= 0, db >= 0, equal] += 1

    for g, h in pairs:
        agree(g.adj, -1, h.adj, -1)
        for w in range(g.n):
            agree(g.adj, w, h.adj, w)
            agree(g.adj, w, h.adj, rng.randrange(g.n))
            agree(g.adj, w, h.delete_vertex(rng.randrange(g.n)).adj, -1)
    assert all(outcomes[da, db, equal] > 20 for da, db in
               ((False, False), (True, True), (True, False))
               for equal in (False, True)), outcomes


def _minimizers_reference(adjP, k, nmask):
    """The list-based invariant layers: the other vertices of the child
    that tie with k on (degree, sorted neighbour degrees), as a mask, or
    None when one of them is smaller."""
    adj = [a | 1 << k if nmask >> v & 1 else a for v, a in enumerate(adjP)]
    adj.append(nmask)
    deg = [a.bit_count() for a in adj]
    inv = [(deg[v], sorted(deg[u] for u in range(k + 1) if adj[v] >> u & 1))
           for v in range(k + 1)]
    if min(inv) < inv[k]:
        return None
    return sum(1 << v for v in range(k) if inv[v] == inv[k])


def test_minimizers_on_degree_masks_equal_list_based_layers():
    """The invariant layers computed on degree-class masks reject and tie
    exactly as the sorted lists do: every mask the mask rule lets through
    on seeded G(n, p) parents with 1..9 vertices."""
    rng = random.Random(20261018)
    outcomes = set()
    for k in range(1, 10):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            for _ in range(8):
                adjP = random_graph(rng, k, p).adj
                degP = [a.bit_count() for a in adjP]
                dmasks = degree_masks(degP)
                for mask in search._candidates(adjP, degP, (), k + 1, None):
                    got = search._minimizers(adjP, dmasks, k, mask)
                    assert got == _minimizers_reference(adjP, k, mask)
                    outcomes.add(None if got is None else got > 0)
    assert outcomes == {None, False, True}


def _random_free_graph(rng, n, *fs):
    """Edges added in a random order while the graph stays free of every
    member of fs, stopping after a random number of tries: some are
    saturated, most not."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    g = Graph(n, [0] * n)
    for u, v in pairs[:rng.randint(0, len(pairs))]:
        h = g.with_edge(u, v)
        if all(contains_copy(h, f) is None for f in fs):
            g = h
    return g


def test_row_level_saturation_equals_is_saturated():
    """first_uncreated's verdict on the rows equals is_saturated's for
    K2..K5 and S1..S4: every f-free class on at most 7 vertices, and
    seeded random f-free graphs on 5..10 vertices."""
    rng = random.Random(20261018)
    verdicts = []
    for f in [clique(t) for t in range(2, 6)] + [star(r) for r in range(1, 5)]:
        graphs = [Graph(n, adj) for n in range(1, 8) for adj, _ in
                  enumerate_classes(n, SearchConstraints(forbidden=(f,)))]
        graphs += [_random_free_graph(rng, n, f) for n in range(5, 11)
                   for _ in range(30)]
        for g in graphs:
            verdict = first_uncreated(g.adj, (f,))[0] is None
            assert verdict == is_saturated(g, f).is_saturated, (f, g.adj)
            verdicts.append(verdict)
    assert verdicts.count(True) > 500 and verdicts.count(False) > 500


def test_saturation_verdict_equals_first_uncreated():
    """saturation_verdict, which walks the rows from the last vertex down,
    equals first_uncreated's verdict for K2..K5, S1..S4, P4, C4, the
    spider and the family (K3, S3): every class free of the family on at
    most 7 vertices, and seeded random free graphs on 5..10 vertices
    relabelled so that the last vertex does not have minimum degree."""
    rng = random.Random(20261020)
    families = [(clique(t),) for t in range(2, 6)]
    families += [(star(r),) for r in range(1, 5)]
    families += [(path(4),), (cycle(4),), (tree_pattern(cons.t_star()),),
                 (clique(3), star(3))]
    verdicts = Counter()
    for fs in families:
        saturated = saturation_verdict(fs)
        rows = [("class", adj) for n in range(1, 8) for adj, _ in
                enumerate_classes(n, SearchConstraints(forbidden=fs))]
        for n in range(5, 11):
            for _ in range(30):
                g = _random_free_graph(rng, n, *fs)
                deg = g.degrees()
                high = [v for v in range(n) if deg[v] > min(deg)]
                if high:
                    v = rng.choice(high)
                    perm = list(range(n))
                    perm[v], perm[n - 1] = n - 1, v
                    g = g.relabel(perm)
                    assert g.degree(n - 1) > min(g.degrees())
                    rows.append(("random", g.adj))
        for kind, adj in rows:
            verdict = saturated(adj)
            assert verdict == (first_uncreated(adj, fs)[0] is None), (fs, adj)
            verdicts[kind, verdict] += 1
    assert min(verdicts.values()) > 100


def _sweep_configs():
    """(n, forbidden pattern, constraints) of the saturated-class sweep:
    K3..K5 and S3..S6 on their orders up to 8, unconstrained, under
    max_degree 3 and under connected_only."""
    for f in [clique(t) for t in range(3, 6)] + [star(r) for r in range(3, 7)]:
        for constraints in (SearchConstraints(),
                            SearchConstraints(max_degree=3),
                            SearchConstraints(connected_only=True)):
            for n in range(f.order, 9):
                if (constraints.max_degree or 0) < n:
                    yield n, f, constraints


def _reference_saturated(n, f, classes):
    """The f-saturated classes among classes by first_uncreated, as
    (adjacency rows, canonical code) pairs in code order."""
    return sorted(((adj, canonical_raw(n, adj)[0]) for adj, _ in classes
                   if first_uncreated(adj, (f,))[0] is None),
                  key=lambda item: item[1])


@pytest.mark.slow
def test_saturated_classes_equal_first_uncreated_reference(monkeypatch):
    """saturated_classes gives the list, codes included, and the count of
    classes examined that first_uncreated gives over the classes
    enumerate_classes returns, with one worker (and with two on 8
    vertices), and exists_saturated_with, unconstrained, the first of
    that list when the extra clique is forbidden as well."""
    found = []
    enumerate_all = search.enumerate_classes

    def spy(n, constraints, workers=1):
        found.append(enumerate_all(n, constraints, workers))
        return found[-1]

    monkeypatch.setattr(search, "enumerate_classes", spy)
    saturated = 0
    for n, f, constraints in _sweep_configs():
        reference = None
        # two workers at the largest order only, to keep the sweep short
        for workers in (1, 2) if n == 8 else (1,):
            clear_cache()
            sat, examined = saturated_classes(n, f, constraints, workers)
            if reference is None:
                reference = _reference_saturated(n, f, found[-1])
            assert examined == len(found[-1])
            assert [(g.adj, canonical_raw(n, g.adj)[0]) for g in sat] == \
                reference, (n, f, constraints, workers)
        saturated += len(reference)
        if (f.kind == "clique" and f.size > 3
                and constraints == SearchConstraints()):
            for prop in (("k-free", f.size - 1), ("max-clique", f.size - 3)):
                clear_cache()
                searched = len(found)
                w = exists_saturated_with(n, f, prop, constraints)
                assert len(found) == searched + 1
                extra = _reference_saturated(n, f, found[-1])
                assert (w and w.adj) == (extra[0][0] if extra else None)
    clear_cache()
    assert saturated > 200


def test_deleted_rows_equal_delete_vertex():
    """The rows of C - w read off C's rows are those of the subgraph
    induced on the other vertices, on seeded G(n, p) graphs."""
    rng = random.Random(20261018)
    for n in range(1, 11):
        for p in (0.2, 0.5, 0.8):
            g = random_graph(rng, n, p)
            for w in range(n):
                rest = [v for v in range(n) if v != w]
                assert deleted_rows(g.adj, w) == list(g.induced(rest).adj)


@pytest.mark.parametrize("text", ["K1", "G:@", "G:?"])
def test_patterns_on_at_most_one_vertex_have_no_saturated_graph(text):
    """Every graph on n >= 1 vertices holds K1, the one-vertex graph and
    the null graph, so none is free of them, as is_saturated says, and
    the search finds no saturated graph."""
    f = parse_pattern(text)
    for n in range(1, 6):
        clear_cache()
        assert not is_saturated(Graph(n, [0] * n), f).is_free
        assert enumerate_classes(n, SearchConstraints(forbidden=(f,))) == []
        assert saturated_classes(n, f) == ([], 0)
        with pytest.raises(NoneExistError):
            satnum_exact(n, f, star(1))
    clear_cache()


@pytest.mark.parametrize("prop", [("nope",), ("r-partite",), ("k-free",),
                                  ("max-clique",), ("bipartite", 2), (),
                                  ("k-free", "3")])
def test_exists_saturated_with_rejects_bad_property_before_search(
        monkeypatch, prop):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("enumerated before the property was checked")

    monkeypatch.setattr(search, "enumerate_classes", enumerate_nothing)
    clear_cache()
    for n, f in ((4, star(5)), (8, star(5))):  # none saturated, and some
        with pytest.raises(DomainError, match="property"):
            exists_saturated_with(n, f, prop)


def test_exists_saturated_with_max_clique_prunes_generation(monkeypatch):
    seen = []
    enumerate_all = search.enumerate_classes

    def spy(n, constraints, workers=1):
        seen.append(constraints.forbidden)
        return enumerate_all(n, constraints, workers)

    monkeypatch.setattr(search, "enumerate_classes", spy)
    clear_cache()
    w = exists_saturated_with(8, star(5), ("max-clique", 2))
    clear_cache()
    assert seen == [(clique(3), star(5))]
    assert canonical_form(w) == canonical_form(
        exists_saturated_with(8, star(5), ("k-free", 3)))
    assert contains_copy(w, clique(3)) is None
    clear_cache()


def test_saturated_class_memo_enumerates_each_question_once(
        monkeypatch, tmp_path, capsys):
    from satgraph.cli import run
    seen = []
    enumerate_all = search.enumerate_classes

    def spy(n, constraints, workers=1):
        seen.append((n, constraints.forbidden))
        return enumerate_all(n, constraints, workers)

    monkeypatch.setattr(search, "enumerate_classes", spy)
    clear_cache()
    first = satnum_exact(6, clique(3), star(1))
    assert satnum_exact(6, clique(3), star(1)) == first
    assert seen == [(6, (clique(3),))]
    clear_cache()
    assert satnum_exact(6, clique(3), star(1)) == first
    assert seen == [(6, (clique(3),))] * 2
    seen.clear()
    clear_cache()
    grid = tmp_path / "grid.txt"
    grid.write_text("6 K3 S1\n5 K4 S1\n6 K3 K2\n5 K4 K3\n6 K3 S2\n")
    assert run(["certify", "--grid", str(grid)]) == 0
    capsys.readouterr()
    clear_cache()
    assert seen == [(6, (clique(3),)), (5, (clique(4),))]


def test_workers_below_one_is_domain_error():
    """The entry points check the worker count before the order decides
    whether a search runs, so a bad count fails the same way at every n."""
    for workers in (0, -1):
        with pytest.raises(DomainError, match="workers"):
            enumerate_classes(4, workers=workers)
    for call in (lambda: satnum_exact(5, clique(3), star(1), workers=0),
                 lambda: satnum_exact(2, clique(3), star(1), workers=0),
                 lambda: exists_saturated_with(2, clique(3), ("k-free", 3),
                                               workers=0),
                 lambda: tstar_scan(6, workers=0),
                 lambda: tstar_scan(8, workers=0)):
        clear_cache()
        with pytest.raises(DomainError,
                           match="workers=0: a search needs workers >= 1"):
            call()
    clear_cache()
