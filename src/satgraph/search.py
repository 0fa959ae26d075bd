"""Isomorphism-free exhaustive search over small graphs.

Enumeration is by vertex augmentation with a canonical-deletion parent
test: a child C built from parent P by attaching a new vertex v is kept
only when deleting C's canonical deletion vertex w* lands back in P's
isomorphism class.  w* is chosen as the vertex minimizing the invariant
(degree, sorted neighbor degrees), tie-broken by canonical position, so
most candidates resolve with no canonical-form computation at all:

  * if v is not an invariant minimizer, reject;
  * if it is the unique minimizer, accept;
  * otherwise compare canonical codes of C - v and C - w*.

Isomorphic children of one parent can both pass (pseudo-similar
deletions), so accepted children are deduplicated per parent by
canonical code.  Each class therefore appears exactly once overall.

Constraints enforced during generation must be hereditary and
label-invariant: degree caps and monotone forbidden subgraphs qualify
(an induced subgraph of a Delta-capped / F-free graph is again such).
Saturation itself is not hereditary and is only tested at full order.

Search-level existence questions ignore the vacuously saturated
complete graphs on fewer vertices than the pattern: when n is below the
pattern order, saturation would only be witnessed by K_n (no missing
edge to check), which carries no structural content.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .canon import canonical_raw
from .counting import count_pattern, embed, find_clique
from .errors import DomainError, NoneExistError
from .graph import Graph, bits, encode_graph6
from .patterns import PatternSpec, is_connected
from .saturation import contains_copy, creates_copy

HARD_CAP = 10


@dataclass(frozen=True)
class SearchConstraints:
    max_degree: int | None = None
    forbidden: tuple[PatternSpec, ...] = ()
    connected_only: bool = False

    def key(self) -> tuple:
        return (self.max_degree,
                tuple(sorted(str(f) for f in self.forbidden)),
                self.connected_only)


@dataclass
class SearchReport:
    n: int
    forbid: str
    count: str
    minimum: int
    witnesses: list[str]
    witness_total: int
    graphs_examined: int
    saturated_found: int
    workers: int = 1

    def to_json(self) -> dict:
        return {
            "n": self.n, "forbid": self.forbid, "count": self.count,
            "minimum": self.minimum, "witnesses": self.witnesses,
            "witness_total": self.witness_total,
            "graphs_examined": self.graphs_examined,
            "saturated_found": self.saturated_found,
            "workers": self.workers,
        }


# -- generation-time constraint machinery -----------------------------------


def _star_cap(forbidden: tuple[PatternSpec, ...]) -> int | None:
    caps = [f.size - 1 for f in forbidden if f.kind == "star"]
    return min(caps) if caps else None


def _child_violates(adj_child, k: int, forbidden) -> bool:
    """Does the child contain a forbidden pattern through the new vertex k?

    Parents are pattern-free by induction, so anchoring at k is a full
    containment test."""
    for f in forbidden:
        if f.kind == "star":
            continue  # handled by the degree cap
        if f.kind == "clique":
            if find_clique(adj_child, adj_child[k], f.size - 1) is not None:
                return True
        else:
            g = Graph(k + 1, adj_child)
            fg = f.to_graph()
            if any(embed(g, fg, {pv: k}, first=True) is not None
                   for pv in range(fg.n)):
                return True
    return False


def _grow_level(parents, k: int, max_degree, forbidden):
    """All (k+1)-vertex classes obtainable from the k-vertex classes.

    parents: list of (adj_tuple, code); returns the same shape,
    sorted by code.
    """
    out = []
    cap = max_degree if max_degree is not None and max_degree <= k else k + 1
    for adjP, codeP in parents:
        degP = [a.bit_count() for a in adjP]
        allowed = 0
        for v in range(k):
            if degP[v] < cap:
                allowed |= 1 << v
        seen: set[bytes] = set()
        subset = allowed
        while True:  # iterate all submasks of `allowed`, including 0
            if subset.bit_count() <= cap:
                child = _try_child(adjP, codeP, degP, k, subset, forbidden)
                if child is not None:
                    code = child[1]
                    if code not in seen:
                        seen.add(code)
                        out.append(child)
            if subset == 0:
                break
            subset = (subset - 1) & allowed
    out.sort(key=lambda item: item[1])
    return out


def _try_child(adjP, codeP, degP, k: int, nmask: int, forbidden):
    """Parent test for the child P + new vertex with neighborhood nmask."""
    adj_child = tuple(a | (1 << k) if nmask >> v & 1 else a
                      for v, a in enumerate(adjP)) + (nmask,)
    if forbidden and _child_violates(adj_child, k, forbidden):
        return None
    n = k + 1
    deg = [degP[v] + (nmask >> v & 1) for v in range(k)] + [nmask.bit_count()]
    dmin = min(deg)
    if deg[k] != dmin:
        return None
    argmin = [v for v in range(n) if deg[v] == dmin]
    if len(argmin) > 1:
        # second invariant layer: sorted neighbor degrees
        prof = {v: sorted(deg[u] for u in bits(adj_child[v])) for v in argmin}
        pmin = min(prof.values())
        if prof[k] != pmin:
            return None
        argmin = [v for v in argmin if prof[v] == pmin]
    if len(argmin) == 1:
        code, lab, _ = canonical_raw(n, adj_child)
        return adj_child, code
    # ambiguous minimizers: canonical tie-break
    code, lab, auts = canonical_raw(n, adj_child)
    pos = [0] * n
    for p, v in enumerate(lab):
        pos[v] = p
    wstar = max(argmin, key=lambda v: pos[v])
    if wstar == k:
        return adj_child, code
    if _same_orbit(auts, wstar, k):
        return adj_child, code
    if _deleted_code(adj_child, n, wstar) == codeP:
        return adj_child, code
    return None


def _same_orbit(auts, u: int, v: int) -> bool:
    if not auts:
        return False
    seen = {u}
    frontier = [u]
    while frontier:
        x = frontier.pop()
        for sigma in auts:
            y = sigma[x]
            if y == v:
                return True
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return False


def _deleted_code(adj, n: int, x: int) -> bytes:
    keep = [v for v in range(n) if v != x]
    sub = []
    for i, v in enumerate(keep):
        row = 0
        for j, u in enumerate(keep):
            if adj[v] >> u & 1:
                row |= 1 << j
        sub.append(row)
    return canonical_raw(n - 1, sub)[0]


def _base_level():
    code, _, _ = canonical_raw(1, (0,))
    return [((0,), code)]


def _effective(n: int, constraints: SearchConstraints):
    """Merge the explicit degree cap with caps implied by forbidden stars;
    caps that cannot bind are dropped."""
    if constraints.max_degree is not None and constraints.max_degree >= n:
        raise DomainError("max_degree cap must be < n")
    cap = constraints.max_degree
    star = _star_cap(constraints.forbidden)
    if star is not None:
        cap = star if cap is None else min(cap, star)
    if cap is not None and cap >= n - 1:
        cap = None
    forb = tuple(f for f in constraints.forbidden if f.kind != "star")
    return cap, forb


def enumerate_classes(n: int, constraints: SearchConstraints = SearchConstraints(),
                      hard_cap: int = HARD_CAP, workers: int = 1):
    """One canonically labeled representative per isomorphism class of
    n-vertex graphs satisfying the constraints, as code-sorted (adj, code)
    pairs.  With several workers, the levels past the first wide enough
    to split are grown in a process pool; the result is the same."""
    if n < 1:
        raise DomainError("enumeration needs n >= 1")
    if n > hard_cap:
        raise DomainError(f"n={n} above the desk-scale cap {hard_cap}",
                          code="cap")
    cap, forb = _effective(n, constraints)
    level = _base_level()
    k = 1
    while k < n and (workers <= 1 or len(level) < 2 * workers):
        level = _grow_level(level, k, cap, forb)
        k += 1
    if k < n:
        args = [(level[i::workers], k, n, cap, forb) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_worker_expand, args))
        level = sorted((item for part in parts for item in part),
                       key=lambda item: item[1])
    if constraints.connected_only:
        level = [(adj, code) for adj, code in level
                 if is_connected(Graph(n, adj))]
    return level


def _worker_expand(args):
    level, k_from, n, cap, forb = args
    for k in range(k_from, n):
        level = _grow_level(level, k, cap, forb)
    return level


def enumerate_graphs(n: int, constraints: SearchConstraints = SearchConstraints(),
                     hard_cap: int = HARD_CAP):
    """Stream Graph values, one per isomorphism class."""
    for adj, _ in enumerate_classes(n, constraints, hard_cap):
        yield Graph(n, adj)


# -- saturated-class cache ---------------------------------------------------

_SAT_CACHE: dict[tuple, tuple] = {}


def _auto_constraints(f: PatternSpec, constraints: SearchConstraints,
                      auto_prune: bool) -> SearchConstraints:
    if not auto_prune:
        return constraints
    forb = constraints.forbidden
    if f not in forb:
        forb = forb + (f,)
    return SearchConstraints(max_degree=constraints.max_degree,
                             forbidden=forb,
                             connected_only=constraints.connected_only)


def saturated_classes(n: int, f: PatternSpec,
                      constraints: SearchConstraints = SearchConstraints(),
                      auto_prune: bool = True, workers: int = 1,
                      hard_cap: int = HARD_CAP):
    """All f-saturated classes on n vertices under the constraints.

    Returns (graphs, examined) where graphs is a code-sorted list of
    canonical representatives.  Results are memoized per parameter key.
    """
    key = (n, str(f), constraints.key(), auto_prune)
    if key in _SAT_CACHE:
        return _SAT_CACHE[key]
    if n < f.order:
        raise NoneExistError(
            f"no {f}-saturated graph on {n} vertices: none exist "
            f"(pattern needs {f.order} vertices; only the complete graph "
            f"is vacuously saturated below that)")
    gen = _auto_constraints(f, constraints, auto_prune)
    classes = enumerate_classes(n, gen, hard_cap, workers)
    sat = []
    for adj, code in classes:
        g = Graph(n, adj)
        if not auto_prune and contains_copy(g, f) is not None:
            continue
        if _saturated_quick(g, f):
            sat.append((g, code))
    sat.sort(key=lambda item: item[1])
    result = ([g for g, _ in sat], len(classes))
    _SAT_CACHE[key] = result
    return result


def _saturated_quick(g: Graph, f: PatternSpec) -> bool:
    """Freeness is guaranteed by generation; check every non-edge."""
    for u in range(g.n):
        row = g.adj[u]
        for v in range(u + 1, g.n):
            if not row >> v & 1 and not creates_copy(g, f, u, v):
                return False
    return True


def clear_cache():
    _SAT_CACHE.clear()


# -- oracle operations --------------------------------------------------------

WITNESS_CAP = 64


def satnum_exact(n: int, forbid: PatternSpec, count: PatternSpec,
                 constraints: SearchConstraints = SearchConstraints(),
                 auto_prune: bool = True, workers: int = 1,
                 hard_cap: int = HARD_CAP) -> SearchReport:
    """Exact minimum of count-copies over forbid-saturated n-vertex graphs."""
    sat, examined = saturated_classes(n, forbid, constraints, auto_prune,
                                      workers, hard_cap)
    if not sat:
        raise NoneExistError(
            f"no {forbid}-saturated graph on {n} vertices under the given "
            f"constraints: none exist")
    best = None
    winners = []
    for g in sat:
        value = count_pattern(g, count)
        if best is None or value < best:
            best = value
            winners = [g]
        elif value == best:
            winners.append(g)
    names = sorted(encode_graph6(g) for g in winners)
    return SearchReport(
        n=n, forbid=str(forbid), count=str(count), minimum=best,
        witnesses=names[:WITNESS_CAP], witness_total=len(names),
        graphs_examined=examined, saturated_found=len(sat), workers=workers)


def _has_property(g: Graph, prop: tuple) -> bool:
    kind = prop[0]
    if kind == "k-free":
        return contains_copy(g, PatternSpec("clique", prop[1])) is None
    if kind == "max-clique":
        return contains_copy(g, PatternSpec("clique", prop[1] + 1)) is None
    if kind == "bipartite":
        return _colorable(g, 2)
    if kind == "r-partite":
        return _colorable(g, prop[1])
    raise DomainError(f"unknown property {prop!r}")


def _colorable(g: Graph, r: int) -> bool:
    colors = [-1] * g.n
    order = sorted(range(g.n), key=lambda v: -g.degree(v))

    def assign(i: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        used = {colors[u] for u in bits(g.adj[v]) if colors[u] >= 0}
        for col in range(r):
            if col not in used:
                colors[v] = col
                if assign(i + 1):
                    return True
                colors[v] = -1
            if col > max((colors[order[j]] for j in range(i)), default=-1):
                break  # first use of a fresh color; higher ones are symmetric
        return False

    return assign(0)


def exists_saturated_with(n: int, forbid: PatternSpec, prop: tuple,
                          constraints: SearchConstraints = SearchConstraints(),
                          workers: int = 1, hard_cap: int = HARD_CAP):
    """A forbid-saturated n-vertex graph with the extra property, or None.

    Returns the witness with the smallest canonical code, so reports do
    not depend on worker count."""
    gen = constraints
    if prop[0] == "k-free":
        extra = PatternSpec("clique", prop[1])
        if extra not in gen.forbidden:
            gen = SearchConstraints(gen.max_degree, gen.forbidden + (extra,),
                                    gen.connected_only)
    try:
        sat, _ = saturated_classes(n, forbid, gen, True, workers, hard_cap)
    except NoneExistError:
        return None
    for g in sat:  # code-sorted
        if _has_property(g, prop):
            return g
    return None


def tstar_scan(n_max: int, workers: int = 1, hard_cap: int = HARD_CAP) -> dict:
    """For each n <= n_max, verify no triangle-free graph is saturated
    for the three-legs-of-length-two spider.

    Orders below 7 cannot host the spider, so only complete graphs are
    (vacuously) saturated there; K_1 and K_2 are the only triangle-free
    ones and are reported separately as vacuous."""
    from .constructions import t_star
    from .patterns import clique, tree_pattern
    if n_max > hard_cap:
        raise DomainError(f"n_max={n_max} above cap {hard_cap}", code="cap")
    spider = tree_pattern(t_star())
    per_n = {}
    for n in range(1, n_max + 1):
        if n < spider.order:
            per_n[n] = {"found": 0, "witnesses": [],
                        "vacuous_complete": n <= 2}
            continue
        cons = SearchConstraints(forbidden=(clique(3),))
        sat, _ = saturated_classes(n, spider, cons, True, workers, hard_cap)
        per_n[n] = {"found": len(sat),
                    "witnesses": [encode_graph6(g) for g in sat[:WITNESS_CAP]],
                    "vacuous_complete": False}
    return {"n_max": n_max, "pattern": str(spider), "per_n": per_n,
            "any_found": any(d["found"] for d in per_n.values())}
