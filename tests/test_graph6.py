"""The graph6 codec against the per-bit codec it replaced.

``_encode_reference`` and ``_decode_reference`` walk the upper triangle
one bit at a time, as the codec did before it packed whole columns
through base64; they are kept as the oracle for every string, every
decoded graph and every ``FormatError`` message and offset.
"""

import random

import pytest

from satgraph.errors import DomainError, FormatError
from satgraph.graph import Graph, decode_graph6, encode_graph6

from conftest import random_graph


def _encode_reference(g):
    n = g.n
    if n <= 62:
        header = chr(n + 63)
    elif n <= 258047:
        header = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise DomainError("graph6 supports at most 258047 vertices here",
                          code="capacity")
    out = []
    group = 0
    filled = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            group = (group << 1) | (col >> i & 1)
            filled += 1
            if filled == 6:
                out.append(chr(group + 63))
                group = 0
                filled = 0
    if filled:
        out.append(chr((group << (6 - filled)) + 63))
    return header + "".join(out)


def _decode_reference(text):
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise FormatError("empty graph6 string", offset=0)
    for i, ch in enumerate(text):
        if not (63 <= ord(ch) <= 126):
            raise FormatError(f"invalid graph6 byte {ch!r} at offset {i}", offset=i)
    if text[0] == "~":
        if len(text) >= 2 and text[1] == "~":
            raise FormatError("graph6 orders above 258047 unsupported", offset=0)
        if len(text) < 4:
            raise FormatError("truncated graph6 order header", offset=len(text))
        n = 0
        for ch in text[1:4]:
            n = (n << 6) | (ord(ch) - 63)
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
    adj = [0] * n
    idx = 0
    for ch in body:
        val = ord(ch) - 63
        for s in range(5, -1, -1):
            if idx >= nbits:
                if (val >> s) & 1:
                    raise FormatError("nonzero padding bits in graph6 body",
                                      offset=body_start + idx // 6)
                continue
            if (val >> s) & 1:
                j = _col_of_reference(idx)
                i = idx - j * (j - 1) // 2
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return Graph(n, adj)


def _col_of_reference(idx):
    # Column j covers bit indices [j(j-1)/2, j(j+1)/2).
    j = int(((8 * idx + 1) ** 0.5 - 1) / 2) + 1
    while j * (j - 1) // 2 > idx:
        j -= 1
    while (j + 1) * j // 2 <= idx:
        j += 1
    return j


def _outcome(decode, text):
    """The decoded rows, or the error's type, message, offset and code."""
    try:
        return ("graph", decode(text).adj)
    except DomainError as exc:
        return (type(exc), str(exc), getattr(exc, "offset", None), exc.code)


def _header(n):
    return _encode_reference(Graph(n, [0] * n))[:4 if n > 62 else 1]


@pytest.mark.parametrize("p", [0, 0.1, 0.5, 0.9, 1])
def test_codec_equals_reference_on_seeded_graphs(p):
    rng = random.Random(6000 + int(10 * p))
    # 128, 256 and 512 are the stride boundaries of the transpose
    for n in list(range(71)) + [127, 128, 129, 255, 256, 257, 511, 512]:
        g = random_graph(rng, n, p)
        text = _encode_reference(g)
        assert encode_graph6(g) == text
        assert decode_graph6(text) == _decode_reference(text) == g


def test_decode_equals_reference_on_random_bodies():
    rng = random.Random(6100)
    for n in range(2, 40):
        nbits = n * (n - 1) // 2
        for _ in range(20):
            x = rng.getrandbits(nbits) << -nbits % 6
            body = "".join(chr((x >> s & 63) + 63)
                           for s in range(6 * ((nbits + 5) // 6) - 6, -1, -6))
            text = _header(n) + body
            assert decode_graph6(text) == _decode_reference(text)


def _padding_cases():
    """Every nonzero padding bit, for each padding width 2, 3 and 5."""
    widths = set()
    for n in range(2, 12):
        nbits = n * (n - 1) // 2
        width = -nbits % 6
        if width:
            widths.add(width)
            body = "?" * ((nbits + 5) // 6 - 1)
            for b in range(width):
                yield _header(n) + body + chr(63 + (1 << b))
    assert widths == {2, 3, 5}


MALFORMED = [
    "",
    "!D??", "D?\x07?", "D???é", "~?@" + "?" * 20 + " ",
    "~~", "~~???", "~", "~?", "~??",
    # truncated and trailing bodies; "~?@?" is order 64, 336 body bytes
    "D", "D?", "F???", "~?@?" + "?" * 335, "~??~", "~?A?",
    "D????", "@?", "~?@?" + "?" * 337,
    ">>graph6<<", ">>graph6<<!", ">>graph6<<D?", ">>graph6<<D???",
    ">>graph6<<D?A", ">>graph6<<>>graph6<<D??",
    # orders above the supported 512, with bodies of the right length
    "~?G@" + "?" * (513 * 512 // 12), "~}}}",
] + list(_padding_cases())


@pytest.mark.parametrize("text", MALFORMED, ids=range(len(MALFORMED)))
def test_malformed_strings_fail_like_reference(text):
    got = _outcome(decode_graph6, text)
    assert got == _outcome(_decode_reference, text)
    assert got[0] is FormatError or got[3] == "capacity"


def test_prefixed_string_decodes_like_reference():
    assert _outcome(decode_graph6, ">>graph6<<D??") == \
        _outcome(_decode_reference, ">>graph6<<D??") == ("graph", (0,) * 5)


def test_order_is_checked_after_padding_and_before_the_body_is_expanded():
    # "~?GA" is order 514, which leaves 3 padding bits; the per-bit
    # decoder met a set one before the graph's order was checked
    body = "?" * ((514 * 513 // 2 + 5) // 6 - 1)
    padded = "~?GA" + body + "@"
    assert _outcome(decode_graph6, padded) == \
        _outcome(_decode_reference, padded) == \
        (FormatError, "nonzero padding bits in graph6 body", 4 + len(body),
         "format")
    with pytest.raises(DomainError) as exc:
        decode_graph6("~?GA" + body + "?")
    assert exc.value.code == "capacity"
    assert str(exc.value) == "order 514 outside supported range 0..512"
