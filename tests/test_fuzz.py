"""Bounded property-based fuzzing of the text decoders.

Every input string either decodes or raises DomainError (never another
exception), and whatever decodes survives a round trip through its text
form.  Runs are derandomized and keep no example database, so the suite
stays reproducible; hypothesis still writes caches under `.hypothesis/`.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from satgraph.errors import DomainError
from satgraph.graph import Graph, decode_graph6, encode_graph6
from satgraph.patterns import parse_pattern

BOUNDED = settings(max_examples=300, deadline=None, derandomize=True,
                   database=None)

# graph6 bytes are chr(63)..chr(126); mix them with arbitrary characters
G6_CHARS = st.characters(min_codepoint=63, max_codepoint=126)


def _sized_body(n):
    # an order byte and exactly as many body bytes as that order needs
    need = (n * (n - 1) // 2 + 5) // 6
    return st.text(G6_CHARS, min_size=need, max_size=need).map(
        lambda body: chr(63 + n) + body)


ANY_TEXT = st.one_of(st.text(G6_CHARS, max_size=40),
                     st.integers(0, 20).flatmap(_sized_body),
                     st.text(max_size=40),
                     st.text(G6_CHARS, max_size=12).map(lambda s: "~" + s),
                     st.text(G6_CHARS, max_size=12).map(lambda s: ">>graph6<<" + s))


@st.composite
def graphs(draw, max_n=70):
    n = draw(st.integers(0, max_n))
    if n < 2:
        return Graph(n, [0] * n)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    return Graph.from_edges(n, sorted(edges))


def _decode_or_domain_error(decode, text):
    try:
        return decode(text)
    except DomainError:
        return None


@BOUNDED
@given(ANY_TEXT)
def test_graph6_decodes_or_raises_domain_error(text):
    g = _decode_or_domain_error(decode_graph6, text)
    if g is not None:
        assert decode_graph6(encode_graph6(g)) == g


@BOUNDED
@given(graphs())
def test_graph6_roundtrip(g):
    assert decode_graph6(encode_graph6(g)) == g


PATTERN_TEXT = st.one_of(
    st.text(max_size=20),
    st.tuples(st.sampled_from("KSPCX"), st.text("0123456789", max_size=4))
    .map("".join),
    st.tuples(st.sampled_from(["T:", "G:"]), ANY_TEXT).map("".join),
    graphs(max_n=9).map(lambda g: "G:" + encode_graph6(g)),
    graphs(max_n=9).map(lambda g: "T:" + encode_graph6(g)),
)


@BOUNDED
@given(PATTERN_TEXT)
@example("K" + "9" * 5000)  # more digits than int() converts
@example("T:" + encode_graph6(Graph.from_edges(3, [(0, 1), (1, 2)])))
def test_parse_pattern_parses_or_raises_domain_error(text):
    p = _decode_or_domain_error(parse_pattern, text)
    if p is not None:
        assert parse_pattern(str(p)) == p
