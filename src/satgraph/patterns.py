"""Symbolic subgraph patterns: cliques, stars, paths, cycles, explicit graphs.

Text grammar used by the CLI:  ``K5`` (clique on 5), ``S4`` (star with 4
edges), ``P6`` (path on 6 vertices), ``C7`` (cycle on 7 vertices),
``T:<graph6>`` (explicit tree), ``G:<graph6>`` (explicit graph).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, NamedTuple

from .canon import canonical_raw, orbit
from .errors import DomainError, FormatError
from .graph import (Graph, bits, complete_graph, cycle_graph, decode_graph6,
                    encode_graph6, path_graph, star_graph)


class _Kind(NamedTuple):
    letter: str            # the text form is letter + size
    least: int             # the least size; a smaller one raises too_small
    too_small: str
    build: Callable        # size -> the pattern graph
    extra: int             # vertices of one copy beyond the size


_SYMBOLIC = {
    "clique": _Kind("K", 1, "clique parameter must be >= 1", complete_graph, 0),
    "star": _Kind("S", 1, "star parameter must be >= 1", star_graph, 1),
    "path": _Kind("P", 2, "path needs at least 2 vertices", path_graph, 0),
    "cycle": _Kind("C", 3, "cycle needs at least 3 vertices", cycle_graph, 0),
}
_KIND_OF_LETTER = {row.letter: kind for kind, row in _SYMBOLIC.items()}
_SIMPLE = re.compile(rf"^([{''.join(_KIND_OF_LETTER)}])(\d+)$")


@dataclass(frozen=True)
class PatternSpec:
    """A target subgraph family member.

    kind: one of "clique", "star", "path", "cycle", "tree", "graph".
    size: the numeric parameter for the symbolic kinds (clique order,
          star edge count, path/cycle vertex count).
    graph: the explicit payload for "tree"/"graph".
    """

    kind: str
    size: int = 0
    graph: Graph | None = field(default=None, compare=True)

    def __post_init__(self):
        row = _SYMBOLIC.get(self.kind)
        if row is not None:
            if self.size < row.least:
                raise DomainError(row.too_small)
        elif self.kind in ("tree", "graph"):
            if self.graph is None:
                raise DomainError(f"{self.kind} pattern needs an explicit graph")
            if self.kind == "tree" and not is_tree(self.graph):
                raise DomainError("explicit tree payload is not a tree",
                                  code="not-a-tree")
        else:
            raise DomainError(f"unknown pattern kind {self.kind!r}")

    def to_graph(self) -> Graph:
        """The pattern as a graph, built once per instance."""
        return self._graph

    @cached_property
    def _graph(self) -> Graph:
        # cached in the instance dict, outside the compared and hashed fields
        row = _SYMBOLIC.get(self.kind)
        return self.graph if row is None else row.build(self.size)

    @property
    def orbit_representatives(self) -> tuple[int, ...]:
        """The least vertex of each Aut(F)-orbit of the pattern graph F."""
        return _compiled(self._graph)[0]

    @property
    def arc_representatives(self) -> tuple[tuple[int, int], ...]:
        """The least arc (a, b), ab an edge of F, of each Aut(F)-orbit of
        arcs."""
        return _compiled(self._graph)[1]

    @cached_property
    def plans(self) -> dict[int, tuple]:
        """Embedding plans for a copy through k pinned host vertices, by k:
        at 0 one unpinned plan; at 1 one per Aut(F)-orbit of vertices and
        at 2 one per Aut(F)-orbit of arcs (a, b), pinned first.  A copy
        through a host vertex or edge composed with an automorphism of F
        moves the vertex or arc on it over its whole orbit.  The null
        pattern has no vertex to pin, and every graph holds it.  Kept on
        the instance, so the saturation kernel reads it without a cache
        lookup."""
        return _compiled(self._graph)[2]

    @property
    def order(self) -> int:
        """Vertex count of one copy of the pattern."""
        row = _SYMBOLIC.get(self.kind)
        return self.graph.n if row is None else self.size + row.extra

    def name(self) -> str:
        row = _SYMBOLIC.get(self.kind)
        if row is not None:
            return f"{row.letter}{self.size}"
        prefix = "T" if self.kind == "tree" else "G"
        return f"{prefix}:{encode_graph6(self.graph)}"

    def __str__(self):
        return self.name()


def clique(r: int) -> PatternSpec:
    return PatternSpec("clique", r)


def star(r: int) -> PatternSpec:
    return PatternSpec("star", r)


def path(k: int) -> PatternSpec:
    return PatternSpec("path", k)


def cycle(k: int) -> PatternSpec:
    return PatternSpec("cycle", k)


def tree_pattern(g: Graph) -> PatternSpec:
    return PatternSpec("tree", graph=g)


def graph_pattern(g: Graph) -> PatternSpec:
    return PatternSpec("graph", graph=g)


def parse_pattern(text: str) -> PatternSpec:
    m = _SIMPLE.match(text)
    if m:
        try:
            num = int(m.group(2))
        except ValueError:  # beyond int()'s digit limit
            raise FormatError("pattern parameter has too many digits")
        return PatternSpec(_KIND_OF_LETTER[m.group(1)], num)
    if text.startswith("T:"):
        return tree_pattern(decode_graph6(text[2:]))
    if text.startswith("G:"):
        return graph_pattern(decode_graph6(text[2:]))
    raise FormatError(f"cannot parse pattern {text!r}")


@cache
def _compiled(g: Graph):
    """The orbit and arc representatives and the plans of a PatternSpec of
    graph g, once per process: code, not answers, so search.clear_cache
    keeps them.  Aut(g) moves two copies of g's n vertices in step, and
    the vertex tuple (x0, x1) is the set {x0, n + x1}."""
    n = g.n
    gens = [tuple(p) + tuple(n + x for x in p)
            for p in canonical_raw(n, g.adj)[2]]

    def firsts(tuples) -> tuple:
        out, covered = [], set()
        for tup in tuples:
            mask = sum(1 << i * n + x for i, x in enumerate(tup))
            if mask not in covered:
                out.append(tup)
                covered |= orbit(mask, gens)
        return tuple(out)

    verts = tuple(v for v, in firsts((v,) for v in range(n)))
    arcs = firsts((a, b) for a in range(n) for b in bits(g.adj[a]))
    free = (embedding_plan(g),)
    return verts, arcs, {
        0: free,
        1: tuple(embedding_plan(g, (v,)) for v in verts) or free,
        2: tuple(embedding_plan(g, arc) for arc in arcs)}


def embedding_plan(pattern: Graph, pinned: tuple[int, ...] = ()):
    """The position at which counting.run_plan places each pattern vertex,
    and for each position the earlier positions of the vertex's pattern
    neighbours and the degree its image needs, as (pos, back, need).

    The pinned vertices come first; then each vertex touching a placed one
    when possible, highest degree first: early edges prune hardest."""
    pdeg = pattern.degrees()
    order = list(pinned)
    placed = sum(1 << v for v in order)
    remaining = [v for v in range(pattern.n) if not placed >> v & 1]
    while remaining:
        pool = [v for v in remaining if pattern.adj[v] & placed] or remaining
        pick = max(pool, key=pdeg.__getitem__)
        order.append(pick)
        placed |= 1 << pick
        remaining.remove(pick)
    pos = {v: i for i, v in enumerate(order)}
    back = tuple(tuple(pos[u] for u in bits(pattern.adj[v]) if pos[u] < i)
                 for i, v in enumerate(order))
    return (tuple(pos[v] for v in range(pattern.n)), back,
            tuple(pdeg[v] for v in order))


def is_tree(g: Graph) -> bool:
    """Connected and acyclic."""
    if g.n == 0:
        return False
    if g.num_edges() != g.n - 1:
        return False
    return is_connected(g)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= g.adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << g.n) - 1
