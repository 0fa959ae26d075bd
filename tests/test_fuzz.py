"""Bounded property-based fuzzing of the text decoders and the CLI.

Every input string either decodes or raises DomainError (never another
exception), and whatever decodes survives a round trip through its text
form.  Every argument vector ends in a documented exit code, with a JSON
report or error line whenever the code is 0 or 3.  Runs are derandomized
and keep no example database, so the suite stays reproducible; hypothesis
still writes caches under `.hypothesis/`.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from satgraph import cli
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


# each command path with the flags it takes; the searches get small orders
# so that an example stays cheap
SEARCHES = {("satnum", "exact"): "n forbid count max-degree workers "
                                 "connected-only",
            ("scan", "tstar"): "max-n workers"}
COMMANDS = {**SEARCHES,
            (): "schema", ("count",): "graph pattern",
            ("check-sat",): "graph forbid", ("satnum", "star-star"): "n r t",
            ("m0",): "n r t", ("tie-ts",): "max", ("certify",): "grid workers",
            ("satnum",): "n", ("bogus",): "n",
            **{("construct", f): e[1] for f, e in cli._FAMILIES.items()},
            **{("bounds", b): e[1] for b, e in cli._BOUNDS.items()}}
PATTERNS = st.one_of(
    st.sampled_from(["K3", "K4", "S1", "S2", "S3", "P3", "P4", "C4", "T:Bg"]),
    st.tuples(st.sampled_from("KSPCX"), st.integers(-2, 8)).map(
        lambda t: f"{t[0]}{t[1]}"),
    graphs(max_n=6).map(lambda g: "T:" + encode_graph6(g)),
    graphs(max_n=6).map(lambda g: "G:" + encode_graph6(g)))
VALUES = {"graph": graphs(max_n=8).map(encode_graph6),
          "pattern": PATTERNS, "forbid": PATTERNS, "count": PATTERNS,
          "sizes": st.sampled_from(["1,2,1,1,1", "2,2,2,2,2", "1,x", "1"]),
          "grid": st.just("missing-grid.txt"),
          "schema": st.just(None), "connected-only": st.just(None)}
# misplaced tokens; no --out, which would write a file
JUNK = st.sampled_from(["--n", "--t", "--workers", "--graph", "--forbid",
                        "--bogus", "K3", "@missing.g6", "", "-"])
MOSTLY = st.sampled_from([True] * 9 + [False])


@st.composite
def argvs(draw):
    path = draw(st.sampled_from(sorted(COMMANDS)))
    ints = st.integers(-2, 6 if path in SEARCHES else 8).map(str)
    argv = list(path)
    for flag in COMMANDS[path].split():
        if draw(MOSTLY):  # most flags are given, most with a fitting value
            value = draw(VALUES.get(flag, ints) if draw(MOSTLY)
                         else st.one_of(VALUES.get(flag, ints), ints, JUNK))
            argv += [f"--{flag}"] + ([] if value is None else [value])
    if not draw(MOSTLY):
        argv.append(draw(st.one_of(JUNK, ints)))
    # one worker process at most: a pool per example would dominate
    return [("1" if prev == "--workers" and tok.isdigit() else tok)
            for prev, tok in zip([None] + argv, argv)]


@settings(BOUNDED, max_examples=1000)
@given(argvs())
@example(["satnum", "exact", "--n", "6", "--forbid", "K3", "--count", "S1"])
@example(["satnum", "exact", "--n", "6", "--forbid", "C4", "--count", "P3",
          "--max-degree", "3", "--connected-only"])
def test_cli_exits_with_documented_code(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    assert code in (0, 2, 3, 4)
    if code in (0, 3):
        json.loads(out.getvalue().strip().splitlines()[-1])
