"""Canonical labeling by partition refinement plus backtracking.

The canonical form of a graph is the lexicographically smallest
upper-triangle column string over all vertex orderings explored from an
equitable ordered partition.  Two graphs get equal codes exactly when
they are isomorphic (verified against a brute-force permutation check
in the test suite for small orders).

The search individualizes one vertex v of the first non-singleton cell
at a time and re-refines with {v} as the only splitter.  That gives the
same ordered partition as enqueueing every cell: the parent partition is
equitable, so no parent cell splits anything, nor does the rest of v's
cell once {v} has split every cell by adjacency to v.  Refinement stops
as soon as the partition is discrete, since no splitter can split it.

Refinement and individualization only ever replace a cell by its parts,
in place, so no vertex leaves its cell of the initial partition
(equitable_partition): every leaf, the canonical one included, puts the
vertices of each initial cell exactly on that cell's run of positions.
The enumerator relies on this to find the canonical deletion vertex in
the last cell of invariant minimizers, and passes the partition it has
computed into canonical_raw as ``cells`` so it is not computed twice.

automorphism_sending runs one path of the same search on two copies of
a partition: it individualizes a on one and b on the other, then the
first vertex of the first non-singleton cell on each, and reads a
bijection off the two discrete partitions.  The bijection is returned
only after an edge-by-edge check, so an accepted pair is always in one
orbit; a refusal proves nothing.  The enumerator uses it, through
automorphisms_from, which computes a's side once for every b, to settle
a tied minimizer cell with no canonical form.  Comparing the cell sizes
of the two sides step by step would only reject earlier: when the
bijection is an automorphism, it maps each partition of a's side onto
the one of b's side at the same step.

Each node extends its parent's prefix columns (one per leading singleton
cell) by the columns of its new singletons only, and prunes by
  * comparison of the prefix against the best full column string found
    so far (re-checked at every node, so a best update in one branch
    immediately tightens the others), and
  * orbits of automorphisms discovered when two leaves tie.

The automorphisms found when a leaf ties with the best one generate all
of Aut(G) (McKay 1981), and the enumerator relies on it: it tries one
neighbourhood per orbit of these generators.  Let L be the best leaf,
the first one reached with the least column string, and A_i the
automorphisms fixing the first i vertices individualized on the path to
L, so the last A_i is trivial.  At the i-th node of that path, take a
child w in the A_i-orbit of the path's next vertex v.  Either w is
searched: its subtree then holds a least-string leaf, which the search
reaches (the prefix test never cuts it, and orbit pruning leaves a
searched equivalent) after L, and the tie gives an automorphism in A_i
sending w to v.  Or w is skipped because automorphisms found earlier
that fix the path join it to a searched vertex.  Either way the found
automorphisms move v over its whole A_i-orbit, so by induction from the
leaf up they generate A_0 = Aut(G).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .graph import Graph

AdjRows = Sequence[int]


def _refine(adj: AdjRows, cells: list[list[int]],
            queue: Iterable[int]) -> list[list[int]]:
    """Equitable refinement (1-dim WL with cell splitting).

    ``cells`` partitions the vertices of ``adj``.  ``queue`` holds the
    splitter masks that may split a cell; every new cell is enqueued too,
    so the fixpoint is equitable.  Refinement stops once the partition is
    discrete, as no splitter left in the queue could split it.  Entries of
    ``cells`` are replaced, never changed in place, so callers may share
    cell lists.  Split parts are ordered by increasing neighbor count.
    """
    n, m = len(adj), len(cells)
    queue = deque(queue)
    while queue and m < n:
        smask = queue.popleft()
        i = 0
        while i < m:
            cell = cells[i]
            i += 1
            if len(cell) == 1:
                continue
            c = (adj[cell[0]] & smask).bit_count()
            for v in cell:
                if (adj[v] & smask).bit_count() != c:
                    break
            else:  # smask does not split the cell
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
            parts = [groups[c] for c in sorted(groups)]
            cells[i - 1:i] = parts
            for part in parts:
                mask = 0
                for v in part:
                    mask |= 1 << v
                queue.append(mask)
            i += len(parts) - 1
            m += len(parts) - 1
    return cells


def _individualize(adj: AdjRows, cells: list[list[int]], i: int,
                   v: int) -> list[list[int]]:
    """The equitable partition ``cells`` with v split off its cell i, a
    non-singleton, in front of the rest, and refined from {v} alone."""
    rest = [u for u in cells[i] if u != v]
    return _refine(adj, cells[:i] + [[v], rest] + cells[i + 1:], [1 << v])


def automorphisms_from(adj: AdjRows, cells: list[list[int]], a: int):
    """The function ``b -> automorphism_sending(adj, cells, a, b)``, which
    computes a's side of the path once for every b."""
    i = next(i for i, cell in enumerate(cells) if a in cell)

    def leaf(v: int) -> list[list[int]]:
        part = _individualize(adj, cells, i, v)
        while len(part) < len(adj):
            j = next(j for j, cell in enumerate(part) if len(cell) > 1)
            part = _individualize(adj, part, j, part[j][0])
        return part

    left = leaf(a)

    def sending(b: int) -> tuple[int, ...] | None:
        sigma = [0] * len(adj)
        for (u,), (v,) in zip(left, leaf(b)):
            sigma[u] = v
        for u, row in enumerate(adj):
            image = 0
            while row:
                low = row & -row
                image |= 1 << sigma[low.bit_length() - 1]
                row ^= low
            if image != adj[sigma[u]]:
                return None
        return tuple(sigma)

    return sending


def automorphism_sending(adj: AdjRows, cells: list[list[int]], a: int,
                         b: int) -> tuple[int, ...] | None:
    """An automorphism of the graph that sends a to b, or None where this
    one-path search finds none.

    ``cells`` is the graph's equitable partition, with a and b distinct
    vertices of one cell.  a and b are individualized on two copies of
    it, and then the first vertex of the first non-singleton cell on each
    side, until both partitions are discrete; position by position the
    two give a bijection.  It is returned only when it maps every row
    onto the row of the image, edge by edge.  None proves nothing: the
    vertices chosen on the two sides did not correspond, and a and b may
    still lie in one orbit."""
    return automorphisms_from(adj, cells, a)(b)


def equitable_partition(n: int, adj: AdjRows) -> list[list[int]]:
    """The coarsest equitable ordered partition refining the degree cells,
    ordered as ``canonical_raw`` orders its initial cells."""
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(adj[v].bit_count(), []).append(v)
    cells = [groups[d] for d in sorted(groups)]
    return _refine(adj, cells, [sum(1 << v for v in c) for c in cells])


class _Canonizer:
    def __init__(self, n: int, adj: AdjRows):
        self.n = n
        self.adj = adj
        self.best_cols: list[int] | None = None
        self.best_lab: list[int] | None = None
        self.auts: list[tuple[int, ...]] = []
        self._aut_seen: set[tuple[int, ...]] = set()
        # placed vertex -> prefix position; shared down the tree because a
        # node writes only the entries of its own new singletons
        self._pos = [0] * n

    def run(self, cells: list[list[int]] | None):
        n = self.n
        if n == 0:
            return b"\x00\x00", (), []
        self._search(cells or equitable_partition(n, self.adj), [], [], 0)
        code = n.to_bytes(2, "big") + b"".join(
            c.to_bytes((n + 7) // 8, "big") for c in self.best_cols)
        return code, tuple(self.best_lab), self.auts

    # -- internals ---------------------------------------------------------

    def _search(self, cells: list[list[int]], path: list[int],
                cols: list[int], placed: int):
        """Extend the parent's prefix ``cols`` (its singletons ``placed``)."""
        adj, pos = self.adj, self._pos
        cols = cols[:]
        k = len(cols)
        while k < len(cells) and len(cells[k]) == 1:
            v = cells[k][0]
            col = 0
            nb = adj[v] & placed
            while nb:
                low = nb & -nb
                col |= 1 << pos[low.bit_length() - 1]
                nb ^= low
            cols.append(col)
            pos[v] = k
            placed |= 1 << v
            k += 1

        best = self.best_cols
        if best is not None and cols > best[:k]:
            return

        if k == len(cells):
            lab = [cell[0] for cell in cells]
            if best is None or cols < best:
                self.best_cols, self.best_lab = cols, lab
            elif cols == best and lab != self.best_lab:
                # sigma[v] = best_lab[pos[v]]; a list, unlike a generator,
                # gives the tuple its exact size and keeps peak memory down
                sig = tuple([self.best_lab[p] for p in pos])
                if sig not in self._aut_seen:
                    self._aut_seen.add(sig)
                    self.auts.append(sig)
            return

        target = cells[k]
        tried: list[int] = []
        # orbit closure (union-find) over automorphisms fixing the path;
        # generators discovered inside child subtrees are absorbed lazily
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        absorbed = 0
        for v in target:
            while absorbed < len(self.auts):
                sigma = self.auts[absorbed]
                absorbed += 1
                if all(sigma[p] == p for p in path):
                    for u in range(self.n):
                        ra, rb = find(u), find(sigma[u])
                        if ra != rb:
                            parent[ra] = rb
            rv = find(v)
            if any(find(u) == rv for u in tried):
                continue
            tried.append(v)
            self._search(_individualize(adj, cells, k, v), path + [v], cols,
                         placed)


def canonical_raw(n: int, adj: AdjRows, *,
                  cells: list[list[int]] | None = None):
    """Canonical data for raw bitmask rows (hot path for the enumerator).

    Returns (code, labeling, automorphism generators) where
    ``labeling[p]`` is the original vertex placed at canonical position p.
    ``cells``, when given, must be ``equitable_partition(n, adj)``; a
    caller that already has it saves computing it again.  It is only read.
    """
    return _Canonizer(n, adj).run(cells)


def orbit(mask: int, gens) -> set[int]:
    """The orbit of a vertex mask under the group that gens generate."""
    found = {mask}
    todo = [mask]
    while todo:
        m = todo.pop()
        for g in gens:
            image, rest = 0, m
            while rest:
                low = rest & -rest
                image |= 1 << g[low.bit_length() - 1]
                rest ^= low
            if image not in found:
                found.add(image)
                todo.append(image)
    return found


def canonical_labeling(g: Graph):
    return canonical_raw(g.n, g.adj)


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant total-order key; equal iff isomorphic."""
    return canonical_raw(g.n, g.adj)[0]


def canonical_graph(g: Graph) -> Graph:
    """The canonically labeled copy of g."""
    _, lab, _ = canonical_labeling(g)
    pos = [0] * g.n
    for p, v in enumerate(lab):
        pos[v] = p
    return g.relabel(pos)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.num_edges() != g2.num_edges():
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    return canonical_form(g1) == canonical_form(g2)
