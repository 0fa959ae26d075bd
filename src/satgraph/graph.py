"""Immutable simple-graph value type on indexed vertices.

Adjacency is stored as one integer bitmask per vertex, which gives O(1)
edge queries and lets neighborhood arithmetic run on machine words.
Graphs are values: every mutation-flavored operation returns a new
instance, so instances can be shared freely between worker processes.

The module also carries the graph6 text codec (bit-exact with the
published layout: 6-bit groups over the column-major upper triangle,
offset 63, read as base64 sextets in another alphabet and, through a
bit-reversal table, as one integer; the decoder mirrors columns into rows
with the transpose that checks each Graph) and a small JSON adjacency form.
"""

from __future__ import annotations

import re
from base64 import b64decode, b64encode
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, FormatError

# All named constructions fit in one 64-bit block; larger orders are only
# used by blow-up grids, capped here so encode/search costs stay sane.
MAX_VERTICES = 512

_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))
_FROM_G6 = bytes.maketrans(bytes(range(63, 127)), _B64)
_BAD_BYTE = re.compile("[^?-~]")
# graph6 and base64 put a stream's first bit in a byte's top bit; through
# this table stream bit p is bit p of one little-endian integer
_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def degree_masks(deg: Sequence[int]) -> list[int]:
    """masks[x]: the vertices of degree x, for x up to one above the
    largest degree in deg."""
    masks = [0] * (max(deg) + 2)
    for v, x in enumerate(deg):
        masks[x] |= 1 << v
    return masks


def deleted_rows(adj: Sequence[int], w: int) -> list[int]:
    """The rows adj less the vertex w, the vertices above w shifted down
    by one."""
    low = (1 << w) - 1
    return [a & low | a >> (w + 1) << w for v, a in enumerate(adj) if v != w]


@lru_cache(maxsize=None)
def _layout(n: int):
    """Bytes per row at a power-of-two stride, the off-diagonal n x n cells,
    and the block swaps that transpose a stride x stride bit matrix."""
    stride = 8
    while stride < n:
        stride *= 2
    rows = ((1 << n * stride) - 1) // ((1 << stride) - 1)
    diag = ((1 << n * (stride + 1)) - 1) // ((1 << stride + 1) - 1)
    return stride // 8, ((1 << n) - 1) * rows ^ diag, _swaps(stride)


@lru_cache(maxsize=None)
def _swaps(stride: int) -> tuple[tuple[int, int], ...]:
    # at block size j, cell (r, c) with r & j == 0 and c & j != 0 trades
    # places with (r + j, c - j), j * (stride - 1) bits further up
    out = []
    j = stride // 2
    while j:
        cols = sum(1 << c for c in range(stride) if c & j)
        rows = sum(1 << r * stride for r in range(stride) if not r & j)
        out.append((j * (stride - 1), cols * rows))
        j //= 2
    return tuple(out)


def _matrix(n: int, rows) -> tuple[int, int]:
    """Rows as one bit matrix, row i at bit i * stride, and its transpose;
    OverflowError on a negative row or one wider than the stride."""
    width, _, swaps = _layout(n)
    m = int.from_bytes(b"".join([a.to_bytes(width, "little") for a in rows]),
                       "little")
    t = m
    for shift, mask in swaps:
        d = (t ^ t >> shift) & mask
        t ^= d | d << shift
    return m, t


def _is_simple(n: int, adj: tuple[int, ...]) -> bool:
    """No loop, no bit at or above n, and equal to the transpose; whole-
    matrix operations, since every Graph built runs this."""
    try:
        m, t = _matrix(n, adj)
    except OverflowError:
        return False
    return not m & ~_layout(n)[1] and t == m


def check_order(n: int) -> None:
    """Reject an order outside 0..MAX_VERTICES, before rows of that size
    are built."""
    if n < 0 or n > MAX_VERTICES:
        raise DomainError(f"order {n} outside supported range 0..{MAX_VERTICES}",
                          code="capacity")


def check_combined_order(n: int) -> None:
    """Reject the order of a graph made of smaller ones above MAX_VERTICES."""
    if n > MAX_VERTICES:
        raise DomainError(f"combined order {n} exceeds capacity {MAX_VERTICES}",
                          code="capacity")


class Graph:
    """An immutable simple graph on vertices ``0..n-1``."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        check_order(n)
        self.n = n
        self.adj = tuple(adj)
        if len(self.adj) != n:
            raise DomainError("adjacency length does not match order")
        if not _is_simple(n, self.adj):
            raise DomainError("adjacency rows must be symmetric, loop-free and "
                              f"below bit n={n}", code="adjacency")

    # -- construction -------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list, rejecting bad input loudly."""
        adj = [0] * n
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge {e!r} has an endpoint outside 0..{n - 1}",
                                  code="index")
            if u == v:
                raise DomainError(f"self-loop at vertex {u}", code="self-loop")
            if adj[u] >> v & 1:
                raise DomainError(f"duplicate edge {(min(u, v), max(u, v))!r}",
                                  code="duplicate-edge")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, adj)

    # -- queries -------------------------------------------------------

    def _check_vertex(self, x: int) -> None:
        if not 0 <= x < self.n:
            raise DomainError(f"vertex {x} outside 0..{self.n - 1}",
                              code="index")

    def _check_edge(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise DomainError(f"edge {(u, v)!r} has an endpoint outside "
                              f"0..{self.n - 1}", code="index")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_edge(u, v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self.adj)

    def max_degree(self) -> int:
        return max((a.bit_count() for a in self.adj), default=0)

    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u] >> (u + 1) << (u + 1))]

    def neighbors(self, v: int) -> list[int]:
        self._check_vertex(v)
        return list(bits(self.adj[v]))

    # -- derived graphs ------------------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        self._check_edge(u, v)
        if u == v:
            raise DomainError("self-loop", code="self-loop")
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph(self.n, adj)

    def delete_vertex(self, x: int) -> "Graph":
        """Remove vertex ``x``; vertices above ``x`` shift down by one."""
        self._check_vertex(x)
        return Graph(self.n - 1, deleted_rows(self.adj, x))

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """The subgraph induced on distinct ``vertices``, ``vertices[i]``
        becoming vertex i."""
        pos = {v: i for i, v in enumerate(vertices)}
        if len(pos) != len(vertices) or not all(0 <= v < self.n for v in pos):
            raise DomainError(f"vertices {list(vertices)!r} must be distinct "
                              f"and inside 0..{self.n - 1}", code="index")
        adj = [0] * len(vertices)
        for v in vertices:
            for u in bits(self.adj[v]):
                if u in pos:
                    adj[pos[v]] |= 1 << pos[u]
        return Graph(len(vertices), adj)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply ``v -> perm[v]``; perm must be a bijection on 0..n-1."""
        if len(perm) != self.n or set(perm) != set(range(self.n)):
            raise DomainError(f"relabeling {list(perm)!r} is not a "
                              f"permutation of 0..{self.n - 1}", code="index")
        adj = [0] * self.n
        for v in range(self.n):
            m = 0
            for u in bits(self.adj[v]):
                m |= 1 << perm[u]
            adj[perm[v]] = m
        return Graph(self.n, adj)

    # -- dunder --------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


# -- basic constructors ----------------------------------------------------


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Public edge-list constructor with full validation."""
    return Graph.from_edges(n, edges)


def empty_graph(n: int) -> Graph:
    check_order(n)
    return Graph(n, [0] * n)


def complete_graph(n: int) -> Graph:
    check_order(n)
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def path_graph(k: int) -> Graph:
    if k < 1:
        raise DomainError("path needs at least 1 vertex")
    check_order(k)
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise DomainError("cycle needs at least 3 vertices")
    check_order(k)
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def star_graph(r: int) -> Graph:
    """Star with r edges: center 0 plus r leaves."""
    if r < 0:
        raise DomainError("star size must be nonnegative")
    check_order(r + 1)
    return Graph.from_edges(r + 1, [(0, i) for i in range(1, r + 1)])


# -- combinators ------------------------------------------------------------


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    n = g1.n + g2.n
    check_combined_order(n)
    adj = list(g1.adj) + [a << g1.n for a in g2.adj]
    return Graph(n, adj)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    n = g1.n + g2.n
    check_combined_order(n)
    m1 = (1 << g1.n) - 1
    m2 = ((1 << g2.n) - 1) << g1.n
    adj = [a | m2 for a in g1.adj] + [(a << g1.n) | m1 for a in g2.adj]
    return Graph(n, adj)


def combine(kind: str, g1: Graph, g2: Graph) -> Graph:
    if kind == "disjoint-union":
        return disjoint_union(g1, g2)
    if kind == "join":
        return join(g1, g2)
    raise DomainError(f"unknown combine kind {kind!r}")


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, [full ^ a ^ (1 << v) for v, a in enumerate(g.adj)])


def blow_up(g: Graph, sizes: Sequence[int]) -> Graph:
    """Replace vertex v by an independent set of ``sizes[v]`` copies.

    Copies of u and v are adjacent exactly when uv was an edge, so the
    result is the usual blow-up (replacement sets stay independent).
    """
    if len(sizes) != g.n:
        raise DomainError("sizes length must equal graph order")
    if any(s < 1 for s in sizes):
        raise DomainError("blow-up sizes must be positive; delete vertices instead",
                          code="zero-size")
    offsets = [0] * g.n
    total = 0
    for v in range(g.n):
        offsets[v] = total
        total += sizes[v]
    if total > MAX_VERTICES:
        raise DomainError(f"blown-up order {total} exceeds capacity {MAX_VERTICES}",
                          code="capacity")
    class_mask = [((1 << sizes[v]) - 1) << offsets[v] for v in range(g.n)]
    adj = [0] * total
    for v in range(g.n):
        m = 0
        for u in bits(g.adj[v]):
            m |= class_mask[u]
        for i in range(sizes[v]):
            adj[offsets[v] + i] = m
    return Graph(total, adj)


# -- graph6 codec -----------------------------------------------------------


def encode_graph6(g: Graph) -> str:
    """Encode in graph6: header for n, then upper-triangle bits x(i,j)
    for j = 1..n-1, i < j, packed into 6-bit groups offset by 63."""
    n = g.n  # at most MAX_VERTICES, inside graph6's 258047
    if n <= 62:
        header = chr(n + 63)
    else:
        header = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    # column j lists x(0,j)..x(j-1,j): row j's low j bits, lowest first
    x = 0
    for j in range(1, n):
        x |= (g.adj[j] & (1 << j) - 1) << j * (j - 1) // 2
    nbits = n * (n - 1) // 2
    # whole base64 quanta of three bytes
    raw = x.to_bytes(-(-nbits // 24) * 3, "little").translate(_REVERSE)
    body = b64encode(raw).translate(_TO_G6)[:(nbits + 5) // 6]
    return header + body.decode("ascii")


def decode_graph6(text: str) -> Graph:
    """Inverse of :func:`encode_graph6`; reports the byte offset on errors."""
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise FormatError("empty graph6 string", offset=0)
    if bad := _BAD_BYTE.search(text):
        i = bad.start()
        raise FormatError(f"invalid graph6 byte {text[i]!r} at offset {i}", offset=i)
    if text[0] == "~":
        if len(text) >= 2 and text[1] == "~":
            raise FormatError("graph6 orders above 258047 unsupported", offset=0)
        if len(text) < 4:
            raise FormatError("truncated graph6 order header", offset=len(text))
        n = (ord(text[1]) - 63 << 12) + (ord(text[2]) - 63 << 6) + ord(text[3]) - 63
        body, body_start = text[4:], 4
    else:
        n = ord(text[0]) - 63
        body, body_start = text[1:], 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise FormatError(f"graph6 body truncated at offset {body_start + len(body)}"
                          f" (need {need} bytes, got {len(body)})",
                          offset=body_start + len(body))
    if len(body) > need:
        raise FormatError(f"trailing graph6 bytes at offset {body_start + need}",
                          offset=body_start + need)
    # every padding bit sits in the low bits of the last body byte
    if nbits % 6 and (ord(body[-1]) - 63) & ((1 << -nbits % 6) - 1):
        raise FormatError("nonzero padding bits in graph6 body",
                          offset=body_start + nbits // 6)
    check_order(n)
    # each body byte is one sextet; "A" pads to whole base64 quanta
    raw = b64decode(body.encode("ascii").translate(_FROM_G6) + b"A" * (-need % 4))
    x = int.from_bytes(raw.translate(_REVERSE), "little")
    # column j is row j's low j bits; the transpose gives each row's high ones
    m, t = _matrix(n, [x >> j * (j - 1) // 2 & (1 << j) - 1 for j in range(n)])
    width = _layout(n)[0]
    rows = (m | t).to_bytes(n * width, "little")
    return Graph(n, [int.from_bytes(rows[i:i + width], "little")
                     for i in range(0, n * width, width)])


# -- JSON adjacency (debug format) ------------------------------------------


def to_adjacency_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
