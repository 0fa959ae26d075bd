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

Cells are vertex masks, read in ascending vertex order: a cell's first
vertex is its lowest bit, and its vertices are tried from the lowest.
Cell lists would hold that order too, as the degree cells are built in
vertex order, splits keep it and {v} goes in front of the rest of its
cell.  A splitter {w} splits a cell into its parts off and on N(w) with
two mask operations.

Refinement and individualization only ever replace a cell by its parts,
in place, so no vertex leaves its cell of the initial partition
(equitable_partition): every leaf, the canonical one included, puts the
vertices of each initial cell exactly on that cell's run of positions.
The enumerator relies on this to find the canonical deletion vertex in
the last cell of invariant minimizers, and passes the partition it has
computed into canonical_raw as ``cells`` so it is not computed twice.

automorphisms_from runs one path of the same search on two copies of
a partition, individualizing a on one and b on the other, and returns
the bijection it reads off only after an edge-by-edge check: an accepted
pair is always in one orbit, a refusal proves nothing.  The enumerator
uses it to settle a tied minimizer cell with no canonical form, and
below the final order keeps what it returns as a child's generators.
Comparing the cell sizes of the two sides step by step would only reject
earlier: when the bijection is an automorphism, it maps each partition
of a's side onto the one of b's side at the same step.

Each node extends its parent's prefix columns (one per leading singleton
cell) by the columns of its new singletons only, and prunes by
  * comparison of the prefix against the best full column string found
    so far (re-checked at every node, so a best update in one branch
    immediately tightens the others), and
  * orbits of automorphisms discovered when two leaves tie.

A leaf that ties the best one gives an automorphism gamma onto it, and
the search jumps back to their deepest common ancestor (McKay 1981;
McKay and Piperno 2014): gamma fixes the common path and sends this
side's child of the ancestor to the best side's, whose subtree is
searched, so the rest of this one holds only images of searched leaves.
The best leaf L is thus the first least leaf of the tree, as unpruned.
The automorphisms found generate all of Aut(G), and the enumerator
relies on it: it tries one neighbourhood per orbit of these generators.
Let A_i fix the first i vertices individualized on the path to L, so the
last A_i is trivial.  At the i-th node of that path, take a child w in
the A_i-orbit of the path's next vertex v.  Either w is searched: its
subtree, the image of v's, holds a least-string leaf, so it comes after
v's, and the first leaf there to tie L gives an automorphism in A_i
sending w to v and jumps back to that node.  Or w is skipped because
automorphisms found earlier that fix the path join it to a searched
vertex.  Either way the found automorphisms move v over its whole
A_i-orbit, so by induction from the leaf up they generate A_0 = Aut(G).
None repeats: each joins two children of its ancestor that no earlier
one fixing the path joined, as it ends the later child's subtree.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .graph import Graph, bits

AdjRows = Sequence[int]


def _refine(adj: AdjRows, cells: list[int], queue: Iterable[int]) -> list[int]:
    """Equitable refinement (1-dim WL with cell splitting).

    ``cells``, vertex masks, partitions the vertices of ``adj``.
    ``queue`` holds the splitter masks that may split a cell: one left out
    would split nothing once they are processed.  A split queues its parts
    but the last: by FIFO order it would be popped after its parent cell
    (or that was left out) and its siblings, and split nothing.  Skipping
    the largest part instead (Hopcroft) would reorder the cells.  Refining
    stops at a discrete partition, which no splitter can split.  Split
    parts are ordered by increasing neighbor count.
    """
    n, m = len(adj), len(cells)
    queue = deque(queue)
    while queue and m < n:
        smask = queue.popleft()
        row = adj[smask.bit_length() - 1] if smask & (smask - 1) == 0 else -1
        i = 0
        while i < m:
            cell = cells[i]
            i += 1
            if cell & (cell - 1) == 0:
                continue
            if row >= 0:
                hit = cell & row
                if not hit or hit == cell:
                    continue
                parts = [cell ^ hit, hit]
            else:
                groups: dict[int, int] = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    c = (adj[low.bit_length() - 1] & smask).bit_count()
                    groups[c] = groups.get(c, 0) | low
                    rest ^= low
                if len(groups) == 1:
                    continue
                parts = [groups[c] for c in sorted(groups)]
            cells[i - 1:i] = parts
            queue += parts[:-1]
            i += len(parts) - 1
            m += len(parts) - 1
    return cells


def _individualize(adj: AdjRows, cells: list[int], i: int,
                   v: int) -> list[int]:
    """The equitable partition ``cells`` with v split off its cell i, a
    non-singleton, in front of the rest, and refined from {v} alone."""
    return _refine(adj, cells[:i] + [1 << v, cells[i] ^ 1 << v]
                   + cells[i + 1:], [1 << v])


def automorphisms_from(adj: AdjRows, cells: list[int], a: int):
    """The function sending b to an automorphism of the graph that sends
    a to b, or to None where this one-path search finds none; a's side is
    computed once for every b.

    ``cells`` is the graph's equitable partition, with a and b distinct
    vertices of one cell.  Each side individualizes its vertex, then the
    first vertex of the first non-singleton cell, until its partition is
    discrete; position by position the two give a bijection, returned
    only when it maps every row onto the row of the image, edge by edge.
    None proves nothing: the vertices chosen on the two sides did not
    correspond, and a and b may still lie in one orbit."""
    i = next(i for i, cell in enumerate(cells) if cell >> a & 1)

    def leaf(v: int) -> list[int]:
        part = _individualize(adj, cells, i, v)
        while len(part) < len(adj):
            j, c = next((j, c) for j, c in enumerate(part) if c & (c - 1))
            part = _individualize(adj, part, j, (c & -c).bit_length() - 1)
        return part

    left = leaf(a)

    def sending(b: int) -> tuple[int, ...] | None:
        sigma = [0] * len(adj)
        for u, v in zip(left, leaf(b)):
            sigma[u.bit_length() - 1] = v.bit_length() - 1
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


def equitable_partition(n: int, adj: AdjRows) -> list[int]:
    """The coarsest equitable ordered partition refining the degree cells,
    ordered as ``canonical_raw`` orders its initial cells, as masks.  The
    last degree cell is not queued: degrees fix each vertex's count in it."""
    groups: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        groups[d] = groups.get(d, 0) | 1 << v
    cells = [groups[d] for d in sorted(groups)]
    return _refine(adj, cells, cells[:-1])


class _Canonizer:
    def __init__(self, n: int, adj: AdjRows):
        self.n = n
        self.adj = adj
        self.best_cols: list[int] | None = None
        self.best_lab: list[int] | None = None
        self.best_path: list[int] = []
        self.auts: list[tuple[int, ...]] = []
        # placed vertex -> prefix position; shared down the tree because a
        # node writes only the entries of its own new singletons
        self._pos = [0] * n

    def run(self, cells: list[int] | None):
        n = self.n
        if n == 0:
            return b"\x00\x00", (), []
        self._search(cells or equitable_partition(n, self.adj), [], [], 0)
        code = n.to_bytes(2, "big") + b"".join(
            c.to_bytes((n + 7) // 8, "big") for c in self.best_cols)
        return code, tuple(self.best_lab), self.auts

    # -- internals ---------------------------------------------------------

    def _search(self, cells: list[int], path: list[int], cols: list[int],
                placed: int) -> int | None:
        """Extend the parent's prefix ``cols`` (its singletons ``placed``);
        after a tie, returns the depth of the node to go on at."""
        adj, pos = self.adj, self._pos
        cols = cols[:]
        k = len(cols)
        while k < len(cells) and cells[k] & (cells[k] - 1) == 0:
            v = cells[k].bit_length() - 1
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
            lab = [cell.bit_length() - 1 for cell in cells]
            if best is None or cols < best:
                self.best_cols, self.best_lab, self.best_path = cols, lab, path
            elif cols == best:
                # sigma[v] = best_lab[pos[v]]; a list, unlike a generator,
                # gives the tuple its exact size and keeps peak memory down
                self.auts.append(tuple([self.best_lab[p] for p in pos]))
                return next(i for i, (u, w) in
                            enumerate(zip(path, self.best_path)) if u != w)
            return

        # seen: the orbits of the vertices tried under the automorphisms
        # fixing the path; ones found inside child subtrees join lazily
        gens: list[tuple[int, ...]] = []
        seen = absorbed = 0
        for v in bits(cells[k]):
            if absorbed < len(self.auts):
                gens += [s for s in self.auts[absorbed:]
                         if all(s[p] == p for p in path)]
                absorbed = len(self.auts)
                seen = _close(seen, seen, gens)
            if seen >> v & 1:
                continue
            seen = _close(seen | 1 << v, 1 << v, gens)
            back = self._search(_individualize(adj, cells, k, v),
                                path + [v], cols, placed)
            if back is not None and back < len(path):
                return back


def canonical_raw(n: int, adj: AdjRows, *, cells: list[int] | None = None):
    """Canonical data for raw bitmask rows (hot path for the enumerator).

    Returns (code, labeling, automorphism generators) where
    ``labeling[p]`` is the original vertex placed at canonical position p.
    ``cells``, when given, must be ``equitable_partition(n, adj)``; a
    caller that already has it saves computing it again.  It is only read.
    """
    return _Canonizer(n, adj).run(cells)


def _close(mask: int, todo: int, gens) -> int:
    """The union of the orbits under gens of mask's vertices, where those
    outside todo are closed under gens already."""
    while todo:
        low = todo & -todo
        todo ^= low
        for g in gens:
            image = 1 << g[low.bit_length() - 1]
            if not mask & image:
                mask |= image
                todo |= image
    return mask


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
