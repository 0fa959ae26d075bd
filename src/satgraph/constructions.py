"""Generators for the named graph families used throughout the toolkit.

Each generator validates its parameters and produces a deterministic
labeled graph; the claimed properties (regularity, saturation targets,
partitions) are exercised by the test suite rather than trusted.
"""

from __future__ import annotations

from .bounds import partite_threshold
from .errors import DomainError
from .graph import (Graph, blow_up, build_graph, check_combined_order,
                    check_order, complete_graph, cycle_graph, disjoint_union,
                    empty_graph, join)


def split_graph(n: int, t: int) -> Graph:
    """Join of K_{t-2} with the empty graph on n-t+2 vertices.

    The clique occupies vertices 0..t-3.  Minimizes edges among
    K_t-saturated graphs: (n-t+2)(t-2) + C(t-2, 2).
    """
    if not n >= t >= 2:
        raise DomainError(f"split graph needs n >= t >= 2, got n={n}, t={t}")
    return join(complete_graph(t - 2), empty_graph(n - t + 2))


def near_regular(a: int, b: int) -> Graph:
    """R_{a,b}: a-regular on b vertices when ab is even; otherwise
    a-regular except for vertex 0 of degree a-1.

    Odd ab uses the labeled construction: circulant offsets 1..(a-1)/2
    plus the near-matching {i, i+(b-1)/2} for 1 <= i <= (b-1)/2.  Even
    ab uses circulant offsets 1..floor(a/2), plus the antipodal perfect
    matching when a is odd.
    """
    if a < 0:
        raise DomainError("degree must be nonnegative")
    if b <= a:
        raise DomainError(f"R_{{{a},{b}}} does not exist: need b >= a+1",
                          code="existence")
    h = b // 2
    # generators, not lists: _circulant checks the order before building
    if a % 2 == 0:
        extra = ()
    elif b % 2 == 1:
        extra = ((i, i + h) for i in range(1, h + 1))
    else:
        extra = ((i, i + h) for i in range(h))
    return _circulant(b, range(1, a // 2 + 1), extra)


def _circulant(n: int, offsets, extra=()) -> Graph:
    """The graph on 0..n-1 joining each i to i + s (mod n) for every offset
    s, plus the edges extra."""
    check_order(n)
    row = 0
    for s in offsets:
        row |= 1 << s % n | 1 << -s % n
    full = (1 << n) - 1
    adj = [(row << i | row >> n - i) & full for i in range(n)]
    for u, v in extra:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def kr_graph(t: int, n: int, m: int) -> Graph:
    """KR_{t,n}(m): K_m disjoint R_{t-1,n-m}, bridged when the product
    (t-1)(n-m) is odd.

    The bridge joins the degree-(t-2) vertex of R (local label 0) to
    clique vertex 0.  Clique occupies vertices 0..m-1.
    """
    if t < 2:
        raise DomainError("kr_graph needs t >= 2")
    if not 0 <= m <= t - 1:
        raise DomainError(f"m must satisfy 0 <= m <= t-1, got m={m}")
    if n - m < t:
        raise DomainError(f"need n-m >= t for R_{{t-1,n-m}} to exist, "
                          f"got n-m={n - m} < t={t}")
    odd = ((t - 1) * (n - m)) % 2 == 1
    if odd and m == 0:
        raise DomainError("odd parity needs m >= 1 to host the bridge edge",
                          code="bridge")
    check_order(m)
    rest = near_regular(t - 1, n - m).adj
    check_combined_order(n)
    clique = (1 << m) - 1
    adj = [clique ^ 1 << v for v in range(m)] + [a << m for a in rest]
    if odd:  # clique vertex 0 <-> defect vertex of R
        adj[0] |= 1 << m
        adj[m] |= 1
    return Graph(n, adj)


def regular_multipartite(a: int, r: int, k: int):
    """k-regular spanning subgraph of the complete r-partite graph with
    parts of size a, together with the recorded partition.

    Exists iff k <= a(r-1) and k*a*r is even.  Realized as a circulant
    on a*r vertices with part p = {v : v = p mod r}: offsets not
    divisible by r give 2-regular layers, the antipodal matching (or a
    shifted matching when the antipodal one is unavailable) supplies odd
    degree.  Returns (graph, parts).
    """
    if a < 1 or r < 2:
        raise DomainError("need a >= 1 and r >= 2")
    if k < 0 or k > a * (r - 1):
        raise DomainError(f"degree k={k} too large: max is a(r-1)={a * (r - 1)}",
                          code="degree")
    n = a * r
    if (k * n) % 2 == 1:
        raise DomainError(
            f"no {k}-regular graph on {n} vertices: odd degree sum "
            f"(K_{{a,...,a}} with ar odd is overfull)", code="overfull")
    check_order(n)
    full_offsets = [s for s in range(1, (n - 1) // 2 + 1) if s % r != 0]
    if k % 2 == 0:
        g = _circulant(n, full_offsets[:k // 2])
    elif n % 2 == 0 and (n // 2) % r != 0:  # the antipodal matching
        g = _circulant(n, full_offsets[:(k - 1) // 2],
                       [(i, i + n // 2) for i in range(n // 2)])
    else:
        # consecutive-pair matching lives inside the offset-1 layer
        g = _circulant(n, [s for s in full_offsets if s != 1][:(k - 1) // 2],
                       [(2 * i, 2 * i + 1) for i in range(n // 2)])
    parts = tuple(tuple(range(p, n, r)) for p in range(r))
    return g, parts


def partite_saturated(n: int, r: int, t: int, c: int):
    """An n-vertex S_t-saturated graph built from a (t-1)-regular
    (r-c)-partite core plus clique components; returns (graph, parts).

    Uses the full core on a(r-c) vertices whenever a (t-1)-regular graph
    of that order exists (degree sum even), else the core on
    (a-1)(r-c) vertices; the leftover vertices become kK_t plus one
    clique on fewer than t vertices.  The output is r-partite whenever
    every clique component fits in r classes (clique components larger
    than r force extra classes; the recorded partition is always a
    proper coloring).
    """
    if r < 3 or t < 3:
        raise DomainError("need r >= 3 and t >= 3")
    if not 0 <= c <= r - 2:
        raise DomainError(f"c must satisfy 0 <= c <= r-2, got c={c}")
    bound = max(t + 1, partite_threshold(r, t, c))
    if n < bound:
        raise DomainError(
            f"n={n} below threshold max(t+1, (r-c)*ceil((t-1)/(r-c-1))+(r-c))"
            f" = {bound}", code="threshold")
    rc = r - c
    a = n // rc
    if ((t - 1) * a * rc) % 2 == 0:
        core, parts = regular_multipartite(a, rc, t - 1)
        rem = n - a * rc
    else:
        core, parts = regular_multipartite(a - 1, rc, t - 1)
        rem = n - (a - 1) * rc
    classes = [list(p) for p in parts]
    g = core
    ell, d = divmod(rem, t)
    for comp in [t] * ell + ([d] if d else []):
        base = g.n
        g = disjoint_union(g, complete_graph(comp))
        for i in range(comp):
            if i >= len(classes):
                classes.append([])
            classes[i].append(base + i)
    return g, tuple(tuple(cl) for cl in classes)


def g49() -> Graph:
    """The 9-vertex K_4-saturated graph with two linked triangle layers.

    Vertices 0..8 stand for A..I; blowing up the independent set
    {A, C, E} = {0, 2, 4} preserves K_4-saturation.
    """
    names = {ch: i for i, ch in enumerate("ABCDEFGHI")}
    edge_names = ["AB", "BC", "CD", "DE", "EF", "FA", "BD", "DF", "FB",
                  "GH", "HI", "IG", "HE", "EI", "IA", "AG", "GC", "CH",
                  "DH", "FI", "BG"]
    return build_graph(9, [(names[e[0]], names[e[1]]) for e in edge_names])


def g4n(n: int) -> Graph:
    """Blow up vertices A, C, E of g49 into independent sets of sizes as
    equal as possible summing to n-6 (larger classes to A, then C, then E)."""
    if n < 9:
        raise DomainError("g4n needs n >= 9")
    q, rem = divmod(n - 6, 3)
    sizes = [1] * 9
    sizes[0] = q + (1 if rem >= 1 else 0)   # A
    sizes[2] = q + (1 if rem >= 2 else 0)   # C
    sizes[4] = q                            # E
    return blow_up(g49(), sizes)


def gtn(t: int, n: int) -> Graph:
    """K_t-saturated family with linear max degree: g4n(n-t+4) + K_{t-4}."""
    if t < 4:
        raise DomainError("gtn needs t >= 4")
    if n < t + 5:
        raise DomainError(f"gtn needs n >= t+5, got n={n}")
    return join(g4n(n - t + 4), complete_graph(t - 4))


def w_t(t: int, m1: int, m2: int, m3: int, m4: int, m5: int) -> Graph:
    """Blown-up 5-wheel: C_5 with class sizes m1..m5, joined to K_{t-3}."""
    if t < 4:
        raise DomainError("w_t needs t >= 4")
    sizes = (m1, m2, m3, m4, m5)
    if any(m < 1 for m in sizes):
        raise DomainError("all five class sizes must be >= 1")
    return join(blow_up(cycle_graph(5), sizes), complete_graph(t - 3))


def fig1() -> Graph:
    """4-regular 6-vertex graph: hexagon plus both alternating triangles
    (the octahedron K_{2,2,2}); K_4-free and S_5-saturated."""
    hexagon = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    chords = [(0, 2), (2, 4), (4, 0), (1, 3), (3, 5), (5, 1)]
    return build_graph(6, hexagon + chords)


def fig2() -> Graph:
    """6-vertex, 11-edge S_5-saturated graph with only four vertices of
    degree 4 (degrees 4,4,4,4,3,3); below the 2t-1 vertex regime."""
    edges = [(4, 2), (2, 3), (3, 4), (4, 5), (5, 2), (3, 5),
             (2, 1), (1, 0), (0, 3), (1, 4), (0, 5)]
    return build_graph(6, edges)


def t_star() -> Graph:
    """The 7-vertex spider with three legs of length two."""
    return build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def cycle_pendants(k: int) -> Graph:
    """C_k with one pendant vertex hanging off every cycle vertex."""
    if k < 3:
        raise DomainError("cycle_pendants needs k >= 3")
    check_order(2 * k)
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return build_graph(2 * k, edges)
