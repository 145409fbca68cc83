"""The bulk bit decoders against bit-by-bit references.

``graphs.write_graph6`` and ``parse_graph6`` read and write whole columns,
and ``graphs._adjacency_bits`` unpacks every bit row at once.  The
references below walk the same bits one at a time.  Round trips alone
cannot catch a bit order that is wrong both ways, so every output is
compared with its reference: lines, parsed rows, error messages and
offsets, and dense adjacency matrices.
"""

import numpy as np
import pytest

from eigenwl import graphs, refinement
from eigenwl.graphs import (
    Graph,
    Graph6Error,
    MatrixKind,
    _g6_header,
    build_matrix,
    empty_graph,
    enumerate_graphs,
    parse_graph6,
    random_graph,
    write_graph6,
)


def _ref_write_graph6(g: Graph) -> str:
    bits = []
    for v in range(1, g.n):
        col = g.rows[v]
        for u in range(v):
            bits.append(col >> u & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val << 1 | b
        chars.append(chr(val + 63))
    return _g6_header(g.n) + "".join(chars)


def _ref_parse_graph6(text: str) -> Graph:
    data = text.rstrip("\r\n")
    try:
        raw = data.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII byte in graph6 data", exc.start) from None
    if not raw:
        raise Graph6Error("empty graph6 line", 0)
    for i, b in enumerate(raw):
        if not (63 <= b <= 126):
            raise Graph6Error(f"byte {b} outside graph6 range 63..126", i)

    if raw[0] == 126:
        if len(raw) >= 2 and raw[1] == 126:
            if len(raw) < 8:
                raise Graph6Error("truncated 8-byte size header", len(raw))
            n = 0
            for b in raw[2:8]:
                n = n << 6 | (b - 63)
            pos = 8
        else:
            if len(raw) < 4:
                raise Graph6Error("truncated 4-byte size header", len(raw))
            n = 0
            for b in raw[1:4]:
                n = n << 6 | (b - 63)
            pos = 4
    else:
        n = raw[0] - 63
        pos = 1

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(raw) < pos + nbytes:
        raise Graph6Error(f"truncated bit stream: need {nbytes} data bytes, got {len(raw) - pos}", len(raw))
    if len(raw) > pos + nbytes:
        raise Graph6Error("trailing garbage after graph6 data", pos + nbytes)

    bits = []
    for i in range(nbytes):
        val = raw[pos + i] - 63
        for k in range(5, -1, -1):
            bits.append(val >> k & 1)
    for j in range(nbits, len(bits)):
        if bits[j]:
            raise Graph6Error("nonzero padding bit", pos + j // 6)

    rows = [0] * n
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            idx += 1
    return Graph(n, tuple(rows))


def _ref_adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in g.neighbors(u):
            a[u, v] = 1.0
    return a


def _assert_matches_reference(g: Graph):
    line = write_graph6(g)
    assert line == _ref_write_graph6(g)
    parsed = parse_graph6(line)
    assert parsed == g and parsed.rows == _ref_parse_graph6(line).rows
    want = _ref_adjacency(g)
    a = build_matrix(g, MatrixKind.ADJACENCY)
    assert a.dtype == want.dtype and a.shape == want.shape and a.tobytes() == want.tobytes()
    assert graphs._adjacency_bits(g).tolist() == want.astype(int).tolist()
    atp = 2 - want.astype(np.int64).ravel()
    atp[:: g.n + 1] = 0
    assert refinement._atp_flat(g).tolist() == atp.tolist()


@pytest.mark.parametrize("n", range(0, 8))
def test_every_class_matches_reference(n):
    for g in enumerate_graphs(n) if n else [empty_graph(0)]:
        _assert_matches_reference(g)


@pytest.mark.parametrize("p", [0, 0.1, 0.5, 1])
def test_random_graphs_match_reference(p):
    # 62/63 is where the 1-byte header gives way to the 4-byte one
    for n in [*range(0, 71), 127, 128, 200]:
        _assert_matches_reference(random_graph(n, p, 1000 + n))


_LONG = "~??~"  # the 4-byte header of n = 63: 1953 bits in 326 bytes, 3 padding bits


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        "Aé",
        "A\x1f",
        "A\x7f",
        "A",
        "C~",
        "A_X",
        "Bw?",
        "~",
        "~?@",
        "~~",
        "~~??????",  # n = 0 in the 8-byte form
        "~~?????",
        "~~?????@",  # n = 1 in the 8-byte form, nothing after the header
        "~~?????@?",
        _LONG + "?" * 326,
        _LONG + "?" * 325,
        _LONG + "?" * 327,
        _LONG + "?" * 325 + "@",  # last padding bit
        _LONG + "?" * 325 + "C",  # first padding bit
        _LONG + "?" * 325 + "G",  # last data bit
        "Aw",  # K2: one bit, padding from bit 1
        "Ba",
        "D??",
        "D?@",  # n = 5: ten bits, padding in the second byte
        "D@?",
        "E???",
        "E??@",  # n = 6: fifteen bits, padding in the third byte
        "Bw\r\n",
    ],
)
def test_malformed_and_edge_lines_match_reference(text):
    def outcome(parse):
        try:
            return "ok", parse(text).rows
        except Graph6Error as exc:
            return str(exc), exc.offset

    assert outcome(parse_graph6) == outcome(_ref_parse_graph6)
