"""Exact subgraph counters: cliques, stars, paths, cycles, trees.

All counts are of unlabeled subgraph copies (not induced): a copy of H
in G is a subset of V(G) together with a subset of G's edges forming a
graph isomorphic to H.  Star counts for r >= 2 reduce to the degree sum
identity  s_r(G) = sum_v C(deg v, r);  s_1 is the edge count.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError
from .graph import Graph
from .patterns import PatternSpec, embedding_plan, is_tree


def count_cliques(g: Graph, r: int) -> int:
    """Number of r-subsets inducing a complete subgraph."""
    if r < 1:
        raise DomainError("clique size must be >= 1")
    if r == 1:
        return g.n
    if r > g.n:
        return 0
    return _clique_count(g.adj, (1 << g.n) - 1, r)


def _clique_count(adj, cand: int, r: int) -> int:
    # extend only with higher-indexed vertices so each r-set is seen once
    if r == 1:
        return cand.bit_count()
    total = 0
    m = cand
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        total += _clique_count(adj, adj[v] & m, r - 1)
    return total


def find_clique(adj, cand: int, size: int):
    """Some size-clique inside the vertex mask cand, as an ascending tuple,
    or None; size <= 0 is met by the empty tuple."""
    if size <= 0:
        return ()
    if cand.bit_count() < size:
        return None
    m = cand
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        # later vertices only: each clique is met in ascending order once
        rest = find_clique(adj, adj[v] & m, size - 1)
        if rest is not None:
            return (v,) + rest
    return None


def count_stars(g: Graph, r: int) -> int:
    """s_r(G): r >= 2 counts centers, r = 1 counts edges."""
    if r < 1:
        raise DomainError("star size must be >= 1")
    if r == 1:
        return g.num_edges()
    return sum(comb(a.bit_count(), r) for a in g.adj)


def count_paths(g: Graph, k: int) -> int:
    """Unlabeled simple paths on k vertices (ordered traversals halved)."""
    if k < 2:
        raise DomainError("paths need at least 2 vertices")
    if k > g.n:
        return 0
    if k == 2:
        return g.num_edges()
    adj = g.adj
    total = 0

    def extend(v: int, visited: int, left: int):
        nonlocal total
        if left == 0:
            total += 1
            return
        m = adj[v] & ~visited
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            extend(u, visited | low, left - 1)

    for start in range(g.n):
        extend(start, 1 << start, k - 1)
    return total // 2


def count_cycles(g: Graph, k: int) -> int:
    """Unlabeled k-cycles: rooted at their smallest vertex, direction halved."""
    if k < 3:
        raise DomainError("cycles need at least 3 vertices")
    if k > g.n:
        return 0
    adj = g.adj
    total = 0

    def extend(root: int, v: int, visited: int, left: int):
        nonlocal total
        if left == 0:
            if adj[v] >> root & 1:
                total += 1
            return
        # restrict to vertices above the root so each cycle is rooted once
        m = adj[v] & ~visited
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            extend(root, u, visited | low, left - 1)

    for root in range(g.n):
        below = (1 << (root + 1)) - 1
        m = adj[root] & ~below
        start_mask = 1 << root
        mm = m
        while mm:
            low = mm & -mm
            mm ^= low
            u = low.bit_length() - 1
            extend(root, u, start_mask | low | below, k - 2)
    return total // 2


class _Hit(Exception):
    """Raised at a leaf of the embedding search to stop at the first map."""


def embed(host: Graph, pattern: Graph, pinned: dict[int, int] | None = None,
          first: bool = False):
    """Injective maps pattern -> host sending pattern edges to host edges.

    ``pinned`` maps pattern vertices to fixed host vertices.  Returns the
    number of maps, or with ``first`` the first map found (a tuple indexed
    by pattern vertex) or None.
    """
    pinned = pinned or {}
    return run_plan(embedding_plan(pattern, tuple(pinned)), host.adj,
                    host.degrees(), tuple(pinned.values()), first)


def run_plan(plan, hadj, hdeg, pins, first: bool):
    """embed for a plan from patterns.embedding_plan, on the host rows hadj
    with degrees hdeg; pins are the host vertices of the plan's pinned
    pattern vertices, in order."""
    pos, back, need = plan
    np = len(pos)
    if np > len(hadj):
        return None if first else 0
    full = (1 << len(hadj)) - 1
    domain = [1 << pins[i] if i < len(pins) else full for i in range(np)]
    image = [0] * np
    total = 0

    def assign(i: int, used: int):
        nonlocal total
        if i == np:
            if first:
                raise _Hit
            total += 1
            return
        cand = domain[i] & ~used
        for b in back[i]:
            cand &= hadj[image[b]]
        dv = need[i]
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            if hdeg[w] >= dv:
                image[i] = w
                assign(i + 1, used | low)

    try:
        assign(0, 0)
    except _Hit:
        return tuple(image[i] for i in pos)
    return None if first else total


def count_embeddings(host: Graph, pattern: Graph) -> int:
    """Number of injective edge-preserving maps pattern -> host."""
    return embed(host, pattern)


def tree_automorphisms(t: Graph) -> int:
    """|Aut(t)| for an explicit tree, by exhaustive embedding count."""
    if not is_tree(t):
        raise DomainError("automorphism count requires a tree", code="not-a-tree")
    return count_embeddings(t, t)


def count_tree(g: Graph, t: PatternSpec) -> int:
    """Copies of an explicit tree: injective embeddings over |Aut(t)|."""
    if t.kind not in ("star", "path", "tree"):
        raise DomainError("count_tree expects a tree-shaped pattern",
                          code="not-a-tree")
    tg = t.to_graph()
    if not is_tree(tg):
        raise DomainError("pattern payload is not a tree", code="not-a-tree")
    return count_embeddings(g, tg) // count_embeddings(tg, tg)


def count_pattern(g: Graph, p: PatternSpec) -> int:
    """Unified copy counter for any pattern kind."""
    if p.kind == "clique":
        return count_cliques(g, p.size)
    if p.kind == "star":
        return count_stars(g, p.size)
    if p.kind == "path":
        return count_paths(g, p.size)
    if p.kind == "cycle":
        return count_cycles(g, p.size)
    return count_embeddings(g, p.graph) // count_embeddings(p.graph, p.graph)


def independence_number(g: Graph) -> int:
    """Maximum size of a pairwise non-adjacent vertex set."""
    adj = g.adj
    full = (1 << g.n) - 1
    best = 0

    def grow(cand: int, size: int):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if not cand:
            best = max(best, size)
            return
        low = cand & -cand
        v = low.bit_length() - 1
        # branch: v in the set, or not
        grow(cand & ~(adj[v] | low), size + 1)
        grow(cand ^ low, size)

    grow(full, 0)
    return best


def count_independent_sets(g: Graph, k: int) -> int:
    """Number of independent k-subsets: the k-cliques of the complement."""
    if k < 0:
        raise DomainError("independent-set size must be >= 0")
    if k == 0:
        return 1
    full = (1 << g.n) - 1
    return _clique_count([full ^ a ^ (1 << v) for v, a in enumerate(g.adj)],
                         full, k)


def maximum_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """All independent sets of maximum size, as sorted vertex tuples."""
    alpha = independence_number(g)
    out: list[tuple[int, ...]] = []
    adj = g.adj

    def grow(cand: int, chosen: list[int]):
        if len(chosen) == alpha:
            out.append(tuple(chosen))
            return
        if len(chosen) + cand.bit_count() < alpha:
            return
        m = cand
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            chosen.append(v)
            grow(m & ~adj[v], chosen)
            chosen.pop()

    grow((1 << g.n) - 1, [])
    return out
