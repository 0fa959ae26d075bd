"""Isomorphism-free exhaustive search over small graphs.

Enumeration is by vertex augmentation with a canonical-deletion parent
test (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
1998).  A child C is a parent P plus a vertex k with neighborhood mask S;
it is kept only when deleting C's canonical deletion vertex w* lands back
in P's class.  w* minimizes the invariant (degree, sorted neighbor
degrees), tie-broken by canonical position.

What depends on P alone is decided on the mask, before C is built.  With
delta the minimum degree of P, cap the degree cap and K_t the smallest
forbidden clique, S is tried only when |S| <= min(cap, delta + 1), when S
holds every minimum-degree vertex of P if |S| = delta + 1 (so k has
minimum degree in C), and when S spans no K_{t-1} (so C has no K_t).
Forbidden stars fold into the cap; other patterns are embedded in C
through k.

Masks run in descending submask order, and only the first mask of each
Aut(P)-orbit is tried.  Masks of one orbit give isomorphic pairs (C, k),
so they pass or fail together and the first accepted mask still gives
its class the representative.  The orbits come from generators of
Aut(P), canonical_raw's or ones taken from P's parent (below).  They
must generate all of Aut(P): an orbit split between two orbits of a
smaller group would give its class twice.

The parent test rejects C when k is not an invariant minimizer.  Both
invariant layers are decided before C's rows are built, on P's vertices
by degree: C's degree-d vertices are P's of degree d outside S and of
degree d - 1 in S.  Sorted neighbour degrees, lists of one length,
compare as their counts per degree class of C, a larger count first: so
C's classes are walked from k's degree up, and each vertex tied with k
is decided at the first class where its count differs.  When k is the
only minimizer, C is accepted with no canonical form: an isomorphism
between two such children of P fixes k and so carries one mask to the
other by an automorphism of P, which the orbit pruning excludes; and no
other parent class gives C, as that would take a second minimizer.
When k ties with others, C is accepted when w* is k or C - w* has P's
canonical code, decided as cheaply as possible:
  * when every minimizer is a twin of k (N(u) - k = N(k) - u, so the
    transposition (u k) is an automorphism), w* is in k's orbit;
  * otherwise C's equitable partition, a list of vertex masks, is
    computed.  The invariant is constant on its cells and canonical_raw
    keeps every vertex inside its initial cell (see canon), so w* lies
    in the last cell L of minimizers.  If k is in L and every u in L is
    a twin of k or the image of k under an automorphism that canon
    found from k's leaf, computed once per child, and checked edge by
    edge, L is k's orbit.  A candidate that fails proves nothing, so it
    falls back to the canonical form, never to a rejection.  If L is
    one vertex w other than k, w is w* and only the deletion check
    C - w is needed; else w* is the vertex of L that C's form places last,
    and w* in k's orbit under the form's generators needs no check;
  * a deletion check compares the sorted (degree, neighbour count per
    degree class) vectors of C - w*, read off C's rows with w* masked
    out, with P's, computed once per parent; they are equal exactly when
    the (degree, sorted neighbour degrees) pairs are, and only equal
    ones, an isomorphism invariant, need the codes of C - w*'s rows and
    of P, which is computed at the first such check of P's children.
Two accepted children of one parent with w* in k's orbit are never
isomorphic, by the argument for a unique minimizer.  Only a child
accepted with w* outside k's orbit (a pseudo-similar deletion) can
duplicate another, so only in a parent with such a child are the
ambiguous children deduplicated, by canonical code in mask order,
keeping the first: the representative a deduplication of every
ambiguous child would keep.

Below the final order C needs generators of Aut(C).  The automorphisms
fixing k, Aut(C)_k, are those of Aut(P) that fix S, extended by k -> k:
all of Aut(P) when each of P's generators fixes S.  Aut(C) is then
generated by P's generators fixing k and, per Aut(P)-orbit of u in k's
orbit less k, one mu_u sending k to u: if sigma(k) = u = alpha(u') with
alpha in Aut(C)_k, then mu_u'^-1 alpha^-1 sigma fixes k.  The cases
above give k's orbit: a unique minimizer (no mu), twins (mu_u = (u k))
and a settled L (mu_u that transposition or canon's automorphism, needed
for one u per Aut(P)-orbit only).  Any other C takes canonical_raw's,
with no automorphism searched where a generator of P moves S.

Canonical forms are computed only where needed: for ambiguous children
nothing above settles, for deletion checks the profile does not reject,
for deduplication, for children below the final order whose generators
do not follow from P's, and for the saturated graphs, whose codes order
the reports (a level entry's code is None where none was computed).
saturated_classes decides saturation on the rows (saturation_verdict),
builds a Graph only for the classes it returns and is memoized on its
argument list, workers included; clear_cache empties the memo.

Constraints enforced during generation must be hereditary and
label-invariant: degree caps and monotone forbidden subgraphs qualify
(an induced subgraph of a Delta-capped / F-free graph is again such).
Saturation itself is not hereditary and is only tested at full order.

_grow_level decides each parent's children from the parent alone and
appends them in parent order.  So with several workers, a level of at
least CHUNKS parents per worker is cut into at most CHUNKS contiguous
chunks per worker, grown in a process pool and joined in chunk order:
exactly the level one process builds.  The final level is sorted by
adjacency once, at the end, so class lists, codes and reports are the
same for any worker count.  Narrower levels stay in-process, where a
pool costs more than it saves.

Search-level existence questions ignore the vacuously saturated
complete graphs on fewer vertices than the pattern: when n is below the
pattern order, saturation would only be witnessed by K_n (no missing
edge to check), which carries no structural content.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass, replace
from functools import cache
from itertools import repeat

from .canon import (automorphisms_from, canonical_raw, close_orbits,
                    equitable_partition, orbit)
from .counting import count_pattern, find_clique
from .errors import DomainError, NoneExistError
from .graph import Graph, bits, degree_masks, deleted_rows, encode_graph6
from .patterns import PatternSpec, is_connected
# perfbench/tracing.py wraps contains_copy and creates_copy here; keep them
from .saturation import (contains_copy, copy_through, creates_copy,  # noqa: F401
                         saturation_verdict, split_family)

HARD_CAP = 10
CHUNKS = 8  # per worker: a level this wide is split, into this many chunks


@dataclass(frozen=True)
class SearchConstraints:
    max_degree: int | None = None
    forbidden: tuple[PatternSpec, ...] = ()
    connected_only: bool = False

    def with_forbidden(self, f: PatternSpec) -> SearchConstraints:
        """These constraints with f forbidden as well."""
        if f in self.forbidden:
            return self
        return replace(self, forbidden=self.forbidden + (f,))


@dataclass
class SearchReport:
    n: int
    forbid: str
    count: str
    minimum: int
    witnesses: list[str]
    witness_total: int
    graphs_examined: int
    saturated_found: int
    workers: int = 1

    def to_json(self) -> dict:
        return asdict(self)


# -- generation-time constraint machinery -----------------------------------


def _child_violates(adj_child, k: int, forbidden) -> bool:
    """Does the child contain a forbidden pattern through the new vertex k?

    Parents are pattern-free by induction, so anchoring at k is a full
    containment test."""
    deg = [a.bit_count() for a in adj_child]
    return any(copy_through(f, adj_child, deg, (k,)) for f in forbidden)


def _grow_level(parents, k: int, cap: int, clique, forbidden, final: bool):
    """All (k+1)-vertex classes obtainable from the k-vertex classes, in
    parent order.

    parents: list of (adj_tuple, code, generators of Aut(P)); returns the
    same shape, or on the final level (adj_tuple, code) pairs; code is
    None where acceptance needed no canonical form.  cap is the degree
    cap; clique is the order of the smallest forbidden clique or None;
    forbidden holds the patterns left to embed.
    """
    out = []
    n = k + 1
    for adjP, codeP, gens in parents:
        degP = [a.bit_count() for a in adjP]
        dmasks = degree_masks(degP)
        kids = []
        moved = False  # some child was accepted with w* outside k's orbit
        memo: dict = {}
        ext = None if final else [g + (k,) for g in gens]  # k -> k
        for subset in _candidates(adjP, degP, gens, cap, clique):
            child = _try_child(adjP, codeP, dmasks, k, subset, forbidden,
                               ext, memo)
            if child is not None:
                kids.append(child)
                moved |= child[4]
        seen: set[bytes] = set()
        for adj, ambiguous, cells, canon, _ in kids:
            if moved and ambiguous:
                if canon is None or canon[0] is None:
                    canon = canonical_raw(n, adj, cells=cells)
                if canon[0] in seen:
                    continue
                seen.add(canon[0])
            if final:
                out.append((adj, None if canon is None else canon[0]))
            else:
                code, _, auts = canon or canonical_raw(n, adj, cells=cells)
                out.append((adj, code, auts))
    return out


def _candidates(adjP, degP, gens, cap: int, clique):
    """The neighbourhood masks to try on the parent P, in descending
    submask order: the first mask of each Aut(P)-orbit that passes the
    mask rule."""
    dmin = min(degP)
    allowed = low = 0
    for v, d in enumerate(degP):
        if d < cap:
            allowed |= 1 << v
        if d == dmin:
            low |= 1 << v
    tried: set[int] = set()  # the Aut(P)-orbits of masks tried
    for subset in _submasks(allowed, min(cap, dmin + 1)):
        if (subset in tried
                or subset.bit_count() > dmin and subset & low != low
                or clique is not None
                and find_clique(adjP, subset, clique - 1) is not None):
            continue
        if gens:
            tried |= orbit(subset, gens)
        yield subset


def _submasks(allowed: int, top: int):
    """The submasks of allowed with at most top bits, descending."""
    subset = allowed
    while True:
        if subset.bit_count() > top:
            # the submasks down to subset less its lowest bit have no
            # fewer bits
            subset &= subset - 1
            continue
        yield subset
        if subset == 0:
            return
        subset = (subset - 1) & allowed


def _profile(adj, drop: int = -1):
    """The sorted (degree, neighbour count per degree class) vectors of
    the graph on the rows adj, less the vertex drop where one is given,
    read off the rows with drop masked out: the deletion check's profile."""
    keep = ~(1 << drop) if drop >= 0 else -1
    # drop's row is cleared, so its degree sets no vector length
    rows = [0 if v == drop else a & keep for v, a in enumerate(adj)]
    deg = [a.bit_count() for a in rows]
    masks = degree_masks(deg)
    return sorted([deg[v]] + [(rows[v] & m).bit_count() for m in masks]
                  for v in range(len(adj)) if v != drop)


def _minimizers(adjP, dmasks, k: int, nmask: int) -> int | None:
    """The vertices other than k that tie with k on the invariant (degree,
    sorted neighbour degrees) in the child C = P + k with neighbourhood
    nmask, as a mask, or None when one of them is smaller.  nmask gives k
    minimum degree in C, and dmasks is degree_masks of P's degrees."""
    d = nmask.bit_count()
    # C's degree classes: P's by degree, each vertex of nmask one up; at
    # d = 0 nmask is empty, so dmasks[-1] adds nothing
    tied = dmasks[d] & ~nmask | dmasks[d - 1] & nmask
    # a tied vertex is decided at the first class of C, from d upwards,
    # where its neighbour count differs from k's: smaller than k if larger
    for x in range(d, len(dmasks)):
        if not tied:
            return 0
        cls = dmasks[x] & ~nmask | dmasks[x - 1] & nmask | (x == d) << k
        own = (nmask & cls).bit_count()
        rest = tied
        while rest:
            low = rest & -rest
            rest ^= low
            row = adjP[low.bit_length() - 1] | (1 << k if nmask & low else 0)
            count = (row & cls).bit_count()
            if count > own:
                return None
            if count < own:
                tied ^= low
    return tied


def _try_child(adjP, codeP, dmasks, k: int, nmask: int, forbidden, gens,
               memo: dict):
    """Parent test for the child C = P + new vertex k with neighborhood
    nmask, a mask that already gives k minimum degree in C.

    dmasks is degree_masks of P's degrees; gens: Aut(P)'s generators
    extended by k -> k, or None at the final order; memo caches P's
    profile and code.
    Returns None for a rejected child, else (adj, ambiguous, cells, canon,
    moved): ambiguous says k ties with another invariant minimizer; cells
    and canon are C's equitable partition and canonical_raw triple, or
    (None, None, Aut(C)'s generators), each None where the decision did
    without it; moved says w* lies outside k's orbit, so C may duplicate
    another child of P."""
    tied = _minimizers(adjP, dmasks, k, nmask)
    if tied is None:
        return None
    rows = list(adjP)
    for v in bits(nmask):
        rows[v] |= 1 << k
    adj_child = tuple(rows) + (nmask,)
    if forbidden and _child_violates(adj_child, k, forbidden):
        return None
    moves = gens and close_orbits(nmask, nmask, gens) != nmask
    if moves:
        gens = None  # Aut(C)_k is smaller than Aut(P): a form gives Aut(C)
    n = k + 1
    notk = ~(1 << k)

    def twin(u: int) -> bool:  # the transposition (u k) is in Aut(C)
        return adj_child[u] & notk == nmask & ~(1 << u)

    def grown(others: int, send=None):
        """(None, None, Aut(C)'s generators) if k's orbit is others + k,
        with mu_u a twin transposition or send(u); None if one fails."""
        if gens is None:
            return None
        auts, seen = list(gens), 0
        for u in bits(others):
            if not seen >> u & 1:
                seen = close_orbits(seen | 1 << u, 1 << u, gens)
                auts.append(send(u) if send and not twin(u) else tuple(
                    k if x == u else u if x == k else x for x in range(n)))
                if auts[-1] is None:
                    return None
        return None, None, auts

    if not tied:
        return adj_child, False, None, grown(0), False
    if all(map(twin, bits(tied))):  # w* is in k's orbit
        return adj_child, True, None, grown(tied), False
    cells = equitable_partition(n, adj_child)
    # the minimizers are a union of cells, and w* is in the last of them
    tied |= 1 << k
    last = next(c for c in reversed(cells) if tied & c)
    if last >> k & 1 and not moves:
        rest = [u for u in bits(last ^ 1 << k) if not twin(u)]
        send = rest and automorphisms_from(adj_child, cells, k)
        canon = grown(last ^ 1 << k, send)
        if canon or gens is None and all(send(u) is not None for u in rest):
            return adj_child, True, cells, canon, False  # L is k's orbit
    if last & (last - 1) == 0:  # w* is the one vertex of the cell, not k
        wstar, canon = last.bit_length() - 1, None
    else:
        canon = canonical_raw(n, adj_child, cells=cells)
        wstar = next(v for v in reversed(canon[1]) if last >> v & 1)
    if wstar == k or canon and close_orbits(1 << k, 1 << k,
                                            canon[2]) >> wstar & 1:
        return adj_child, True, cells, canon, False
    if "profile" not in memo:  # P's, at its first child's deletion check
        memo["profile"] = _profile(adjP)
    if _profile(adj_child, wstar) != memo["profile"]:
        return None
    if "code" not in memo:  # P's, at its first profile that matches
        memo["code"] = codeP or canonical_raw(k, adjP)[0]
    if canonical_raw(k, deleted_rows(adj_child, wstar))[0] != memo["code"]:
        return None
    return adj_child, True, cells, canon, True  # w* outside k's orbit


def _base_level(final: bool):
    code, _, auts = canonical_raw(1, (0,))
    return [((0,), code)] if final else [((0,), code, auts)]


def _effective(n: int, constraints: SearchConstraints):
    """The degree cap, forbidden stars included (n - 1 when neither
    binds), the order of the smallest forbidden clique (None without one)
    and the forbidden patterns left to embed."""
    max_degree = constraints.max_degree
    if max_degree is not None and not 0 <= max_degree < n:
        raise DomainError(f"max_degree cap must be in 0..{n - 1}")
    clique, star, rest = split_family(constraints.forbidden)
    cap = n - 1 if max_degree is None else max_degree
    return cap if star is None else min(cap, star - 1), clique, rest


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise DomainError(f"workers={workers}: a search needs workers >= 1")


def enumerate_classes(n: int, constraints: SearchConstraints = SearchConstraints(),
                      workers: int = 1):
    """One representative per isomorphism class of n-vertex graphs
    satisfying the constraints, as (adj, code) pairs sorted by adj; code
    is the canonical code where acceptance computed one and None
    elsewhere.  With several workers (at most the CPUs this process may
    use), wide levels are grown in a process pool, as the module
    docstring says; the result is the same."""
    if n < 1:
        raise DomainError("enumeration needs n >= 1")
    if n > HARD_CAP:
        raise DomainError(f"n={n} above the desk-scale cap {HARD_CAP}",
                          code="cap")
    _check_workers(workers)
    cap, clique, forb = _effective(n, constraints)
    # the induction starts from K_1, unless it holds a forbidden pattern
    violates = clique == 1 or _child_violates((0,), 0, forb)
    level = [] if violates else _base_level(n == 1)
    workers = min(workers, len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else os.cpu_count() or 1)
    with ExitStack() as stack:
        pool = None
        for k in range(1, n):
            final = k + 1 == n
            if workers == 1 or len(level) < CHUNKS * workers:
                level = _grow_level(level, k, cap, clique, forb, final)
                continue
            pool = pool or stack.enter_context(ProcessPoolExecutor(workers))
            step = -(-len(level) // (CHUNKS * workers))
            chunks = [level[i:i + step] for i in range(0, len(level), step)]
            parts = pool.map(_grow_level, chunks, repeat(k), repeat(cap),
                             repeat(clique), repeat(forb), repeat(final))
            level = [item for part in parts for item in part]
    level.sort(key=lambda item: item[0])
    if constraints.connected_only:
        level = [(adj, code) for adj, code in level
                 if is_connected(Graph(n, adj))]
    return level


def enumerate_graphs(n: int, constraints: SearchConstraints = SearchConstraints()):
    """Stream Graph values, one per isomorphism class."""
    for adj, _ in enumerate_classes(n, constraints):
        yield Graph(n, adj)


# -- saturated classes -------------------------------------------------------


@cache
def saturated_classes(n: int, f: PatternSpec,
                      constraints: SearchConstraints = SearchConstraints(),
                      workers: int = 1):
    """All f-saturated classes on n vertices under the constraints.

    Returns (graphs, examined) where graphs is a code-sorted list of
    class representatives.  Results are memoized on the argument list.
    """
    _check_workers(workers)
    if n < 1:
        raise DomainError(f"n={n}: a saturated graph needs n >= 1")
    if n < f.order:
        raise NoneExistError(
            f"no {f}-saturated graph on {n} vertices: none exist "
            f"(pattern needs {f.order} vertices; only the complete graph "
            f"is vacuously saturated below that)")
    classes = enumerate_classes(n, constraints.with_forbidden(f), workers)
    saturated = saturation_verdict((f,))
    sat = []
    for adj, code in classes:
        if saturated(adj):  # every non-edge creates f
            if code is None:
                code = canonical_raw(n, adj)[0]
            sat.append((Graph(n, adj), code))
    sat.sort(key=lambda item: item[1])
    return [g for g, _ in sat], len(classes)


clear_cache = saturated_classes.cache_clear


# -- oracle operations --------------------------------------------------------

WITNESS_CAP = 64


def satnum_exact(n: int, forbid: PatternSpec, count: PatternSpec,
                 constraints: SearchConstraints = SearchConstraints(),
                 workers: int = 1) -> SearchReport:
    """Exact minimum of count-copies over forbid-saturated n-vertex graphs."""
    sat, examined = saturated_classes(n, forbid, constraints, workers)
    if not sat:
        raise NoneExistError(
            f"no {forbid}-saturated graph on {n} vertices under the given "
            f"constraints: none exist")
    values = [count_pattern(g, count) for g in sat]
    best = min(values)
    names = sorted(encode_graph6(g) for g, value in zip(sat, values)
                   if value == best)
    return SearchReport(
        n=n, forbid=str(forbid), count=str(count), minimum=best,
        witnesses=names[:WITNESS_CAP], witness_total=len(names),
        graphs_examined=examined, saturated_found=len(sat), workers=workers)


def _colorable(g: Graph, r: int) -> bool:
    colors = [-1] * g.n
    order = sorted(range(g.n), key=lambda v: -g.degree(v))

    def assign(i: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        used = {colors[u] for u in bits(g.adj[v]) if colors[u] >= 0}
        for col in range(r):
            if col not in used:
                colors[v] = col
                if assign(i + 1):
                    return True
                colors[v] = -1
            if col > max((colors[order[j]] for j in range(i)), default=-1):
                break  # first use of a fresh color; higher ones are symmetric
        return False

    return assign(0)


def exists_saturated_with(n: int, forbid: PatternSpec, prop: tuple,
                          constraints: SearchConstraints = SearchConstraints(),
                          workers: int = 1):
    """A forbid-saturated n-vertex graph with the extra property, or None.

    prop is ("k-free", r), no K_r; ("max-clique", r), no K_{r+1}, both
    forbidden during generation; ("bipartite",) or ("r-partite", r).
    Returns the witness with the smallest canonical code, so reports do
    not depend on worker count."""
    kind = prop[0] if prop else None
    arity = {"k-free": 2, "max-clique": 2, "bipartite": 1, "r-partite": 2}
    if len(prop) != arity.get(kind) or not all(
            isinstance(x, int) for x in prop[1:]):
        raise DomainError(f"property must be ('k-free', r), ('max-clique', "
                          f"r), ('bipartite',) or ('r-partite', r), not "
                          f"{prop!r}")
    gen = constraints
    if kind in ("k-free", "max-clique"):
        gen = gen.with_forbidden(PatternSpec(
            "clique", prop[1] + 1 if kind == "max-clique" else prop[1]))
    try:
        sat, _ = saturated_classes(n, forbid, gen, workers)
    except NoneExistError:
        return None
    colors = {"bipartite": 2, "r-partite": prop[-1]}.get(kind)
    return next((g for g in sat  # code-sorted
                 if colors is None or _colorable(g, colors)), None)


def tstar_scan(n_max: int, workers: int = 1) -> dict:
    """For each n <= n_max, verify no triangle-free graph is saturated
    for the three-legs-of-length-two spider.

    Orders below 7 cannot host the spider, so only complete graphs are
    (vacuously) saturated there; K_1 and K_2 are the only triangle-free
    ones and are reported separately as vacuous."""
    from .constructions import t_star
    from .patterns import clique, tree_pattern
    if n_max > HARD_CAP:
        raise DomainError(f"n_max={n_max} above cap {HARD_CAP}", code="cap")
    if n_max < 1:
        raise DomainError(f"n_max={n_max}: the scan needs n_max >= 1")
    _check_workers(workers)
    spider = tree_pattern(t_star())
    cons = SearchConstraints(forbidden=(clique(3),))
    per_n = {}
    for n in range(1, n_max + 1):
        sat = [] if n < spider.order else saturated_classes(
            n, spider, cons, workers)[0]
        per_n[n] = {"found": len(sat),
                    "witnesses": [encode_graph6(g) for g in sat[:WITNESS_CAP]],
                    "vacuous_complete": n <= 2}
    return {"n_max": n_max, "pattern": str(spider), "per_n": per_n,
            "any_found": any(d["found"] for d in per_n.values())}
