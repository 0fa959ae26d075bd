"""Symbolic subgraph patterns: cliques, stars, paths, cycles, explicit graphs.

Text grammar used by the CLI:  ``K5`` (clique on 5), ``S4`` (star with 4
edges), ``P6`` (path on 6 vertices), ``C7`` (cycle on 7 vertices),
``T:<graph6>`` (explicit tree), ``G:<graph6>`` (explicit graph).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .canon import canonical_raw, orbit
from .errors import DomainError, FormatError
from .graph import (Graph, bits, complete_graph, cycle_graph, decode_graph6,
                    encode_graph6, path_graph, star_graph)

_SIMPLE = re.compile(r"^([KSPC])(\d+)$")


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
        if self.kind == "clique" and self.size < 1:
            raise DomainError("clique parameter must be >= 1")
        if self.kind == "star" and self.size < 1:
            raise DomainError("star parameter must be >= 1")
        if self.kind == "path" and self.size < 2:
            raise DomainError("path needs at least 2 vertices")
        if self.kind == "cycle" and self.size < 3:
            raise DomainError("cycle needs at least 3 vertices")
        if self.kind in ("tree", "graph"):
            if self.graph is None:
                raise DomainError(f"{self.kind} pattern needs an explicit graph")
            if self.kind == "tree" and not is_tree(self.graph):
                raise DomainError("explicit tree payload is not a tree",
                                  code="not-a-tree")
        elif self.kind not in ("clique", "star", "path", "cycle"):
            raise DomainError(f"unknown pattern kind {self.kind!r}")

    def to_graph(self) -> Graph:
        """The pattern as a graph, built once per instance."""
        return self._graph

    @cached_property
    def _graph(self) -> Graph:
        # cached in the instance dict, outside the compared and hashed fields
        if self.kind == "clique":
            return complete_graph(self.size)
        if self.kind == "star":
            return star_graph(self.size)
        if self.kind == "path":
            return path_graph(self.size)
        if self.kind == "cycle":
            return cycle_graph(self.size)
        return self.graph

    @cached_property
    def _generators(self):
        """Generators of Aut(F), on two copies of F's n vertices moved in
        step: see _orbit_firsts."""
        g = self._graph
        return [tuple(p) + tuple(g.n + x for x in p)
                for p in canonical_raw(g.n, g.adj)[2]]

    def _orbit_firsts(self, tuples) -> tuple:
        """The first of each Aut(F)-orbit among the vertex tuples of F,
        with at most two entries.  A tuple (x0, x1) is the vertex set
        {x0, n + x1} on two copies of F's n vertices."""
        n = self._graph.n
        firsts, covered = [], set()
        for tup in tuples:
            mask = sum(1 << i * n + x for i, x in enumerate(tup))
            if mask not in covered:
                firsts.append(tup)
                covered |= orbit(mask, self._generators)
        return tuple(firsts)

    @cached_property
    def orbit_representatives(self) -> tuple[int, ...]:
        """The least vertex of each Aut(F)-orbit of the pattern graph F."""
        return tuple(v for v, in self._orbit_firsts(
            (v,) for v in range(self._graph.n)))

    @cached_property
    def arc_representatives(self) -> tuple[tuple[int, int], ...]:
        """The least arc (a, b), ab an edge of F, of each Aut(F)-orbit of
        arcs."""
        g = self._graph
        return self._orbit_firsts((a, b) for a in range(g.n)
                                  for b in bits(g.adj[a]))

    @cached_property
    def plans(self) -> dict[int, tuple]:
        """Embedding plans for a copy through k pinned host vertices, by k:
        at 0 one unpinned plan; at 1 one per Aut(F)-orbit of vertices and
        at 2 one per Aut(F)-orbit of arcs (a, b), pinned first.  A copy
        through a host vertex or edge composed with an automorphism of F
        moves the vertex or arc on it over its whole orbit.  The null
        pattern has no vertex to pin, and every graph holds it."""
        g = self._graph
        free = (embedding_plan(g),)
        return {0: free,
                1: tuple(embedding_plan(g, (v,))
                         for v in self.orbit_representatives) or free,
                2: tuple(embedding_plan(g, arc)
                         for arc in self.arc_representatives)}

    @property
    def order(self) -> int:
        """Vertex count of one copy of the pattern."""
        if self.kind == "clique":
            return self.size
        if self.kind == "star":
            return self.size + 1
        if self.kind in ("path", "cycle"):
            return self.size
        return self.graph.n

    def name(self) -> str:
        if self.kind == "clique":
            return f"K{self.size}"
        if self.kind == "star":
            return f"S{self.size}"
        if self.kind == "path":
            return f"P{self.size}"
        if self.kind == "cycle":
            return f"C{self.size}"
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
        letter = m.group(1)
        try:
            num = int(m.group(2))
        except ValueError:  # beyond int()'s digit limit
            raise FormatError("pattern parameter has too many digits")
        return {"K": clique, "S": star, "P": path, "C": cycle}[letter](num)
    if text.startswith("T:"):
        return tree_pattern(decode_graph6(text[2:]))
    if text.startswith("G:"):
        return graph_pattern(decode_graph6(text[2:]))
    raise FormatError(f"cannot parse pattern {text!r}")


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
