"""Saturation verdicts: F-freeness, F-saturation, certificates, peeling.

A graph G is F-saturated when it contains no copy of F but adding any
missing edge creates one.  Complete graphs are vacuously F-saturated
whenever they are F-free (the universal quantifier over missing edges
is empty).

The per-non-edge creation check anchors the pattern on the added edge:
since G itself is F-free, any copy in G+uv must use uv, so it suffices
to try every pattern edge on (u,v) in both orientations.  Equivalence
with a full search is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .canon import canonical_form
from .counting import count_embeddings, embed, find_clique
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
    if f.kind == "star":
        r = f.size
        for v in range(g.n):
            if g.degree(v) >= r:
                leaves = g.neighbors(v)[:r]
                return tuple([v] + leaves)
        return None
    if f.kind == "clique":
        return find_clique(g.adj, (1 << g.n) - 1, f.size)
    return embed(g, f.to_graph(), first=True)


def creates_copy(g: Graph, f: PatternSpec, u: int, v: int) -> bool:
    """Does adding the missing edge uv create a copy of f?

    Assumes g is f-free, so any new copy must pass through uv.
    """
    if f.kind == "star":
        r = f.size
        if r == 1:
            return True
        return g.degree(u) >= r - 1 or g.degree(v) >= r - 1
    if f.kind == "clique":
        common = g.adj[u] & g.adj[v]
        return find_clique(g.adj, common, f.size - 2) is not None
    gp = g.with_edge(u, v)
    pat = f.to_graph()
    for a in range(pat.n):
        for b in bits(pat.adj[a]):
            if b < a:
                continue
            if embed(gp, pat, {a: u, b: v}, first=True) is not None:
                return True
            if embed(gp, pat, {a: v, b: u}, first=True) is not None:
                return True
    return False


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
    checked = 0
    for u, v in combinations(range(g.n), 2):
        if g.has_edge(u, v):
            continue
        checked += 1
        if not any(creates_copy(g, f, u, v) for f in patterns):
            return SaturationCertificate(g, patterns, is_free=True,
                                         is_saturated=False,
                                         unsaturated_witness=(u, v),
                                         checked_nonedges=checked)
    return SaturationCertificate(g, patterns, is_free=True, is_saturated=True,
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
        if not any(count_embeddings(cand, small) > 0 for small in kept):
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
