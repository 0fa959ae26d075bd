"""Shared independent oracles for the test suite.

These deliberately avoid the library's own counting/canonicalization
paths: copies are counted by raw injective-map enumeration, canonical
forms by minimizing over all permutations, and class counts by the
cycle-index (Burnside) formula over the pair action.
"""

from itertools import combinations, permutations

import pytest

from satgraph.graph import Graph


def non_edges(g: Graph) -> list[tuple[int, int]]:
    """The pairs u < v of g that are not edges, in lexicographic order."""
    return [(u, v) for u, v in combinations(range(g.n), 2)
            if not g.has_edge(u, v)]


def naive_automorphisms(g: Graph) -> int:
    count = 0
    for perm in permutations(range(g.n)):
        if all((g.adj[perm[u]] >> perm[v] & 1) == (g.adj[u] >> v & 1)
               for u in range(g.n) for v in range(u + 1, g.n)):
            count += 1
    return count


def naive_count_copies(host: Graph, pattern: Graph) -> int:
    """Injective edge-preserving maps divided by |Aut(pattern)|."""
    pedges = pattern.edges()
    total = 0
    for verts in permutations(range(host.n), pattern.n):
        if all(host.adj[verts[u]] >> verts[v] & 1 for u, v in pedges):
            total += 1
    return total // naive_automorphisms(pattern)


def group_order(n, gens):
    """Order of the permutation group that gens generate, closed by BFS."""
    identity = tuple(range(n))
    group = {identity}
    todo = [identity]
    while todo:
        g = todo.pop()
        for s in gens:
            h = tuple(s[x] for x in g)
            if h not in group:
                group.add(h)
                todo.append(h)
    return len(group)


def automorphism_count(g):
    """|Aut(g)| by backtracking: each vertex goes to an unused vertex of
    the same degree whose edges to the earlier images match."""
    deg = g.degrees()
    image = [0] * g.n

    def extend(v, used):
        if v == g.n:
            return 1
        total = 0
        for w in range(g.n):
            if used >> w & 1 or deg[w] != deg[v]:
                continue
            if all((g.adj[v] >> u & 1) == (g.adj[w] >> image[u] & 1)
                   for u in range(v)):
                image[v] = w
                total += extend(v + 1, used | 1 << w)
        return total

    return extend(0, 0)


def brute_canonical(g: Graph) -> tuple:
    """Minimum adjacency tuple over every permutation (n <= 7 only)."""
    best = None
    for perm in permutations(range(g.n)):
        inv = [0] * g.n
        for v, p in enumerate(perm):
            inv[p] = v
        rows = tuple(
            tuple(g.adj[inv[p]] >> inv[q] & 1 for q in range(g.n))
            for p in range(g.n))
        if best is None or rows < best:
            best = rows
    return best


def burnside_class_count(n: int) -> int:
    """Number of isomorphism classes of n-vertex graphs, by counting
    orbits of S_n on labeled graphs (cycle count of the pair action)."""
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    total = 0
    for perm in permutations(range(n)):
        seen = [False] * len(pairs)
        cycles = 0
        for i, (u, v) in enumerate(pairs):
            if seen[i]:
                continue
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                a, b = pairs[j]
                a, b = perm[a], perm[b]
                j = index[(a, b) if a < b else (b, a)]
        total += 2 ** cycles
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    return total // fact


def all_labeled_graphs(n: int, predicate=None):
    """Every labeled n-vertex graph, optionally filtered."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        g = Graph(n, adj)
        if predicate is None or predicate(g):
            yield g


def labeled_class_count(n: int, predicate=None) -> int:
    """Isomorphism classes among labeled graphs via brute canonical forms."""
    seen = set()
    for g in all_labeled_graphs(n, predicate):
        seen.add(brute_canonical(g))
    return len(seen)


@pytest.fixture(scope="session")
def rng():
    import random
    return random.Random(20240817)


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, adj)


def random_regular(rng, n: int, d: int) -> Graph:
    """A uniform pairing of n * d stubs, redrawn until it is simple."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        adj = [0] * n
        for u, v in zip(stubs[::2], stubs[1::2]):
            if u == v or adj[u] >> v & 1:
                break
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        else:
            return Graph(n, adj)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid:
                name = nodeid.split("::")[-1]
                lines.append((name, "PASS" if status == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"{verdict}  {name}")
