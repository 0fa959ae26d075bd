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
from .graph import (Graph, complete_graph, cycle_graph, decode_graph6,
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
    def orbit_representatives(self) -> tuple[int, ...]:
        """The least vertex of each Aut(F)-orbit of the pattern graph F."""
        g = self._graph
        gens = canonical_raw(g.n, g.adj)[2]
        reps, covered = [], 0
        for v in range(g.n):
            if not covered >> v & 1:
                reps.append(v)
                covered |= sum(orbit(1 << v, gens))
        return tuple(reps)

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
