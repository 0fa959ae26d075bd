"""Saturation verdicts: F-freeness, F-saturation, certificates, peeling.

A graph G is F-saturated when it contains no copy of F but adding any
missing edge creates one.  Complete graphs are vacuously F-saturated
whenever they are F-free (the universal quantifier over missing edges
is empty).

Since G itself is F-free, any copy of F in G+uv uses uv.  One kernel,
first_uncreated, decides every missing edge a vertex row at a time: for
each u, the non-neighbours v > u still open.  A star S_r is created by
uv exactly when u or v has degree r-1 or more, so one mask of the
vertices of lower degree settles a row.  A clique K_t is created exactly
when u and v have a common K_{t-2}: the kernel walks the K_{t-2}s inside
N(u) and clears every open target adjacent to all of one, pruning a
branch whose common neighbourhood holds no open target.  Only the
targets still open are tried for other patterns, by embeddings that pin
one pattern arc of each Aut(F)-orbit of arcs onto (u, v) (copy_through).
Equivalence with a full search is property-tested.
saturation_verdict gives the verdict alone, splitting the family once:
rows from the last vertex down, each against the vertices below (any
order gives the same for-all), as a search's last vertex has minimum
degree and its missing edges mostly settle it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .canon import canonical_form
# perfbench/tracing.py wraps count_embeddings here; keep it
from .counting import count_embeddings, embed, find_clique, run_plan  # noqa: F401
from .errors import DomainError
from .graph import Graph, bits, encode_graph6
from .patterns import PatternSpec, graph_pattern


@dataclass
class SaturationCertificate:
    graph: Graph
    patterns: tuple[PatternSpec, ...]
    is_free: bool
    is_saturated: bool
    free_violation: tuple[str, tuple[int, ...]] | None = None
    unsaturated_witness: tuple[int, int] | None = None
    checked_nonedges: int = 0

    def to_json(self) -> dict:
        pat = [str(p) for p in self.patterns]
        witness: dict | None = None
        if self.free_violation is not None:
            witness = {"kind": "free_violation",
                       "pattern": self.free_violation[0],
                       "embedding": list(self.free_violation[1])}
        elif self.unsaturated_witness is not None:
            witness = {"kind": "unsaturated_nonedge",
                       "edge": list(self.unsaturated_witness)}
        return {
            "graph": encode_graph6(self.graph),
            "pattern": pat[0] if len(pat) == 1 else pat,
            "free": self.is_free,
            "saturated": self.is_saturated,
            "witness": witness,
            "checked_nonedges": self.checked_nonedges,
        }


def contains_copy(g: Graph, f: PatternSpec):
    """Some copy of f in g as a vertex tuple (pattern order), or None."""
    # kept: same witness as the unpinned plan in 3-5 us, not 18-27 us (S7)
    if f.kind == "star":
        r = f.size
        for v, a in enumerate(g.adj):
            if a.bit_count() >= r:
                return tuple([v] + list(bits(a))[:r])
        return None
    if f.kind == "clique":
        return find_clique(g.adj, (1 << g.n) - 1, f.size)
    return run_plan(f.plans[0][0], g.adj, g.degrees(), (), True)


def copy_through(f: PatternSpec, adj, deg, anchor: tuple[int, ...]) -> bool:
    """Does the graph on the rows adj, with degrees deg, hold a copy of f
    through anchor: a pattern vertex on the host vertex k for anchor (k,),
    or a pattern edge on the host edge uv for anchor (u, v)?"""
    return any(run_plan(plan, adj, deg, anchor, True) is not None
               for plan in f.plans[len(anchor)])


def creates_copy(g: Graph, f: PatternSpec, u: int, v: int) -> bool:
    """Does adding the missing edge uv create a copy of f?

    Assumes g is f-free, so any new copy must pass through uv.
    """
    return _row_kernel(g.adj, *split_family([f]))(u, 1 << v) is None


def first_uncreated(adj, fs):
    """The first missing edge uv, in lexicographic order, of the graph on
    the rows adj, free of every member of fs, that creates none of them,
    and the number of missing edges up to it; (None, the number of
    missing edges) when each creates some member."""
    n = len(adj)
    first = _row_kernel(adj, *split_family(fs))
    checked = 0
    for u in range(n):
        row = ~adj[u] & (1 << n) - (2 << u)
        v = first(u, row)
        if v is not None:
            return (u, v), checked + (row & (2 << v) - 1).bit_count()
        checked += row.bit_count()
    return None, checked


def split_family(fs):
    """The family fs as (t, r, others): the order of its smallest clique
    and star (None without one) and its other members."""
    # a graph free of K_t or S_r is free of every larger clique or star,
    # and a non-edge creating one creates every smaller one, so the
    # smallest of each decides both for all of them
    t = min((f.size for f in fs if f.kind == "clique"), default=None)
    r = min((f.size for f in fs if f.kind == "star"), default=None)
    return t, r, [f for f in fs if f.kind not in ("clique", "star")]


def saturation_verdict(fs):
    """The function adj -> whether the graph on the rows adj, free of
    every member of fs, is saturated; cliques and stars need no closure."""
    t, r, others = split_family(fs)

    def saturated(adj) -> bool:
        n = len(adj)
        if others:
            first = _row_kernel(adj, t, r, others)
            return all(first(u, ~adj[u] & (1 << u) - 1) is None
                       for u in range(n - 1, 0, -1))
        low = -1 if r is None else sum(
            1 << w for w, a in enumerate(adj) if a.bit_count() < r - 1)
        for u in range(n - 1, 0, -1):
            row = ~adj[u] & low & (1 << u) - 1
            if row and low >> u & 1 and (
                    t is None or _uncovered(adj, adj[u], row, t - 2)):
                return False
        return True

    return saturated


def _row_kernel(adj, t, r, others):
    """For the graph on the rows adj, free of the family split_family gave as
    (t, r, others), the function (u, targets) -> the least v in the mask
    targets of non-neighbours of u whose edge uv creates no member, or None."""
    n = len(adj)
    low = (1 << n) - 1
    if r is not None or others:
        deg = [a.bit_count() for a in adj]
        host = list(adj)
        if r is not None:
            low = sum(1 << w for w in range(n) if deg[w] < r - 1)

    def first(u: int, targets: int):
        if not low >> u & 1:
            return None
        targets &= low
        if t is not None and targets:
            targets = _uncovered(adj, adj[u], targets, t - 2)
        if not (others and targets):
            return (targets & -targets).bit_length() - 1 if targets else None
        for v in bits(targets):
            host[u] |= 1 << v
            host[v] |= 1 << u
            deg[u] += 1
            deg[v] += 1
            created = any(copy_through(f, host, deg, (u, v)) for f in others)
            host[u], host[v] = adj[u], adj[v]
            deg[u] -= 1
            deg[v] -= 1
            if not created:
                return v
        return None

    return first


def _uncovered(adj, cand: int, targets: int, size: int) -> int:
    """The vertices of targets adjacent to every vertex of no size-clique
    inside the mask cand; size <= 0 leaves none, the empty clique."""
    if size <= 0:
        return 0
    m = cand
    while m and targets:
        low = m & -m
        m ^= low
        w = low.bit_length() - 1
        # later vertices only: each clique is met in ascending order once
        hit = targets & adj[w]
        if hit:
            targets &= ~hit | _uncovered(adj, adj[w] & m, hit, size - 1)
    return targets


def is_saturated(g: Graph, f: PatternSpec) -> SaturationCertificate:
    return is_family_saturated(g, [f])


def is_family_saturated(g: Graph, fs: list[PatternSpec]) -> SaturationCertificate:
    """Free of every family member; every non-edge creates some member."""
    if not fs:
        raise DomainError("forbidden family must be nonempty", code="empty-family")
    patterns = tuple(fs)
    for f in patterns:
        hit = contains_copy(g, f)
        if hit is not None:
            return SaturationCertificate(g, patterns, is_free=False,
                                         is_saturated=False,
                                         free_violation=(str(f), hit))
    witness, checked = first_uncreated(g.adj, patterns)
    return SaturationCertificate(g, patterns, is_free=True,
                                 is_saturated=witness is None,
                                 unsaturated_witness=witness,
                                 checked_nonedges=checked)


def peel_universal(g: Graph, fs: list[PatternSpec]):
    """Remove a universal vertex x and shrink the forbidden family.

    Returns (g - x, family'), where family' holds every single-vertex
    deletion of every member, deduplicated up to isomorphism and reduced
    to minimal members (a member containing another as a subgraph is
    redundant for both freeness and creation).
    """
    x = next((v for v in range(g.n) if g.degree(v) == g.n - 1), None)
    if x is None:
        raise DomainError(
            f"no universal vertex: max degree {g.max_degree()} < {g.n - 1}",
            code="no-universal-vertex")
    peeled = g.delete_vertex(x)
    members: list[Graph] = []
    seen: set[bytes] = set()
    for f in fs:
        fg = f.to_graph()
        for v in range(fg.n):
            child = fg.delete_vertex(v)
            code = canonical_form(child)
            if code not in seen:
                seen.add(code)
                members.append(child)
    reduced = _minimal_members(members)
    return peeled, [graph_pattern(m) for m in reduced]


def _minimal_members(members: list[Graph]) -> list[Graph]:
    """Drop members that contain another member as a subgraph."""
    order = sorted(range(len(members)),
                   key=lambda i: (members[i].n, members[i].num_edges()))
    kept: list[Graph] = []
    for i in order:
        cand = members[i]
        if all(embed(cand, small, first=True) is None for small in kept):
            kept.append(cand)
    return kept


def star_sat_structure(g: Graph, t: int) -> dict:
    """Max degree, the low-degree vertex set (< t-1), and whether it is
    a clique — the structural footprint of star-saturated graphs."""
    low = [v for v in range(g.n) if g.degree(v) < t - 1]
    clique_ok = all(g.has_edge(u, v) for u, v in combinations(low, 2))
    return {"max_degree": g.max_degree(),
            "low_degree_vertices": low,
            "clique_ok": clique_ok}
