"""Immutable simple undirected graphs with packed-bit adjacency.

This module is the foundation for everything else: graph6 I/O, the four
graph matrices (adjacency, degree, Laplacian, normalized Laplacian),
structural ground-truth oracles (exact isomorphism, biconnectivity),
and small-graph corpus generation (exhaustive up to isomorphism, and
seeded Erdos-Renyi sampling).

Adjacency is stored as one Python int per vertex (bit v of ``rows[u]``
is the edge flag), which doubles as the packed machine-word layout for
n <= 64 and an unpacked big-int fallback beyond.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "AtomicType",
    "BiconnectivityReport",
    "Graph",
    "Graph6Error",
    "MatrixKind",
    "atomic_type",
    "biconnectivity_report",
    "build_matrix",
    "complete_graph",
    "cycle_graph",
    "disjoint_union",
    "empty_graph",
    "enumerate_graphs",
    "is_isomorphic",
    "parse_graph6",
    "path_graph",
    "random_connected_graph",
    "random_graph",
    "read_corpus",
    "star_graph",
    "wl_certificate",
    "write_graph6",
]


class Graph6Error(ValueError):
    """Malformed graph6 input. ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class AtomicType(enum.IntEnum):
    """Relation of an ordered vertex pair: equal, adjacent, or neither."""

    EQUAL = 0
    ADJACENT = 1
    NON_ADJACENT = 2


class MatrixKind(enum.Enum):
    """The four symmetric graph matrices exposed by :func:`build_matrix`."""

    ADJACENCY = "A"
    DEGREE = "D"
    LAPLACIAN = "L"
    NORMALIZED_LAPLACIAN = "Lhat"

    @classmethod
    def parse(cls, text: str) -> "MatrixKind":
        table = {
            "a": cls.ADJACENCY,
            "adjacency": cls.ADJACENCY,
            "d": cls.DEGREE,
            "degree": cls.DEGREE,
            "l": cls.LAPLACIAN,
            "laplacian": cls.LAPLACIAN,
            "lhat": cls.NORMALIZED_LAPLACIAN,
            "nl": cls.NORMALIZED_LAPLACIAN,
        }
        try:
            return table[text.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown matrix kind {text!r}") from None


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``rows[u]`` has bit v set iff ``{u, v}`` is an edge.  Symmetry and a
    zero diagonal are asserted at construction and can never be violated
    afterwards (instances are immutable and hashable).
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.rows) != self.n:
            raise ValueError("row count must equal vertex count")
        for u, row in enumerate(self.rows):
            if row < 0 or row >> self.n:
                raise ValueError(f"row {u} has bits beyond vertex range")
            if row & (1 << u):
                raise ValueError(f"self-loop at vertex {u}")
            # scanning set bits catches asymmetry in either direction
            rem = row
            while rem:
                low = rem & -rem
                v = low.bit_length() - 1
                if not self.rows[v] >> u & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
                rem ^= low

    @staticmethod
    def from_edges(n: int, edges: Sequence[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @cached_property
    def has_isolated(self) -> bool:
        """True iff some vertex has degree 0 (n >= 1)."""
        return any(row == 0 for row in self.rows)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.rows)

    @cached_property
    def num_edges(self) -> int:
        return sum(self.degrees) // 2

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, u: int) -> Iterator[int]:
        row = self.rows[u]
        while row:
            low = row & -row
            yield low.bit_length() - 1
            row ^= low

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            while row:
                low = row & -row
                yield (u, low.bit_length() - 1)
                row ^= low

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image under the permutation mapping vertex u to perm[u]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertices")
        rows = [0] * self.n
        for u, v in self.edges():
            rows[perm[u]] |= 1 << perm[v]
            rows[perm[v]] |= 1 << perm[u]
        return Graph(self.n, tuple(rows))

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by minimum."""
        seen = 0
        out = []
        for s in range(self.n):
            if seen >> s & 1:
                continue
            comp = 1 << s
            frontier = 1 << s
            while frontier:
                nxt = 0
                rem = frontier
                while rem:
                    low = rem & -rem
                    nxt |= self.rows[low.bit_length() - 1]
                    rem ^= low
                frontier = nxt & ~comp
                comp |= frontier
            seen |= comp
            out.append([v for v in range(self.n) if comp >> v & 1])
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def __repr__(self):
        return f"Graph({write_graph6(self)!r})"


# ---------------------------------------------------------------------------
# graph6 format


def _g6_header(n: int) -> str:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr((n >> s & 0x3F) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr((n >> s & 0x3F) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise ValueError("n too large for graph6")


def write_graph6(g: Graph) -> str:
    """Canonical graph6 line: header N(n), upper triangle column-major,
    6-bit groups.  The empty graph is the bare header ``?``."""
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


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line; raises :class:`Graph6Error` with a byte offset."""
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

    pos = 0
    if raw[0] == 126:  # '~'
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
        raise Graph6Error(
            f"truncated bit stream: need {nbytes} data bytes, got {len(raw) - pos}",
            len(raw),
        )
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
    for v in range(1, n):  # column-major upper triangle
        for u in range(v):
            if bits[idx]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            idx += 1
    return Graph(n, tuple(rows))


def read_corpus(lines) -> list[Graph]:
    """Parse a corpus: one graph6 string per line, '#' comments and blanks skipped."""
    out = []
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            out.append(parse_graph6(stripped))
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc}", exc.offset) from None
    return out


# ---------------------------------------------------------------------------
# constructors


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << u) for u in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(u, (u + 1) % n) for u in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, u + 1) for u in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    """Star with a center (vertex 0) and the given number of leaves."""
    return Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Block-diagonal union; h's vertices are offset by g.n."""
    rows = list(g.rows) + [row << g.n for row in h.rows]
    return Graph(g.n + h.n, tuple(rows))


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) sample, deterministic in the seed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def random_connected_graph(n: int, p: float, seed: int, max_tries: int = 10000) -> Graph:
    """Resample G(n, p) until connected; deterministic in the seed."""
    rng = random.Random(seed)
    for _ in range(max_tries):
        g = random_graph(n, p, rng.randrange(1 << 30))
        if g.is_connected():
            return g
    raise RuntimeError(f"no connected sample for n={n}, p={p} after {max_tries} tries")


# ---------------------------------------------------------------------------
# atomic types and matrices


def atomic_type(g: Graph, u: int, v: int) -> AtomicType:
    """Whether u = v, {u,v} is an edge, or neither."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise IndexError(f"vertex pair ({u}, {v}) out of range for n={g.n}")
    if u == v:
        return AtomicType.EQUAL
    return AtomicType.ADJACENT if g.has_edge(u, v) else AtomicType.NON_ADJACENT


def build_matrix(g: Graph, kind: MatrixKind) -> np.ndarray:
    """Dense symmetric matrix of the requested kind (float64).

    The normalized Laplacian D^{-1/2} (D - A) D^{-1/2} is only defined
    when no vertex is isolated; a ValueError is raised otherwise.
    """
    n = g.n
    a = np.zeros((n, n))
    for u in range(n):
        for v in g.neighbors(u):
            a[u, v] = 1.0
    if kind is MatrixKind.ADJACENCY:
        return a
    d = np.diag([float(x) for x in g.degrees])
    if kind is MatrixKind.DEGREE:
        return d
    lap = d - a
    if kind is MatrixKind.LAPLACIAN:
        return lap
    if kind is MatrixKind.NORMALIZED_LAPLACIAN:
        if g.has_isolated:
            raise ValueError("normalized Laplacian undefined: graph has an isolated vertex")
        inv_sqrt = np.diag([1.0 / np.sqrt(float(x)) for x in g.degrees])
        out = inv_sqrt @ lap @ inv_sqrt
        return (out + out.T) / 2.0
    raise ValueError(f"unknown matrix kind {kind!r}")


# ---------------------------------------------------------------------------
# canonical 1-WL certificate (bucketing key for enumeration dedupe)


def wl_certificate(g: Graph) -> tuple:
    """Cheap isomorphism-invariant certificate used for dedup bucketing.

    Color ids are ranks within the sorted signature list of each round,
    which makes the certificate canonical (independent of vertex order).
    """
    colors = [0] * g.n
    prev = 1
    for _ in range(g.n + 1):
        sigs = [
            (colors[u], tuple(sorted((colors[v], g.rows[u] >> v & 1) for v in range(g.n) if v != u)))
            for u in range(g.n)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [ranks[s] for s in sigs]
        if len(ranks) == prev:
            break
        prev = len(ranks)
    return (g.n, g.num_edges, tuple(sorted(colors)))


# ---------------------------------------------------------------------------
# exact isomorphism oracle


def is_isomorphic(g: Graph, h: Graph) -> Optional[list[int]]:
    """Exact isomorphism test; returns a witnessing bijection or None.

    Backtracking with individualization-refinement: vertices are matched
    one at a time inside joint vertex-refinement color classes, with a
    full re-refinement (neighbor color counts, numpy) after each
    assignment.  Correct for all inputs; practical up to a few dozen
    vertices (it degrades on large refinement-homogeneous graphs such as
    gadget products over dense bases).
    """
    if g.n != h.n or g.num_edges != h.num_edges:
        return None
    if sorted(g.degrees) != sorted(h.degrees):
        return None
    n = g.n
    if n == 0:
        return []

    adj_a = np.zeros((n, n), dtype=np.int32)
    adj_b = np.zeros((n, n), dtype=np.int32)
    for u in range(n):
        for v in g.neighbors(u):
            adj_a[u, v] = 1
        for v in h.neighbors(u):
            adj_b[u, v] = 1

    arange = np.arange(n)

    def refine(ca: np.ndarray, cb: np.ndarray):
        """Joint refinement to stability; None on class-histogram mismatch.

        The histogram guard keeps the joint class count at most n, but the
        signature buffers leave room for the individualization id anyway.
        """
        k = int(max(ca.max(initial=0), cb.max(initial=0))) + 1
        sig_a = np.empty((n, n + 2), dtype=np.int32)
        sig_b = np.empty((n, n + 2), dtype=np.int32)
        while True:
            onehot_a = np.zeros((n, k), dtype=np.int32)
            onehot_a[arange, ca] = 1
            onehot_b = np.zeros((n, k), dtype=np.int32)
            onehot_b[arange, cb] = 1
            sig_a[:, 0] = ca
            np.matmul(adj_a, onehot_a, out=sig_a[:, 1 : k + 1])
            sig_b[:, 0] = cb
            np.matmul(adj_b, onehot_b, out=sig_b[:, 1 : k + 1])
            table: dict = {}
            new_ca = np.empty(n, dtype=np.int32)
            new_cb = np.empty(n, dtype=np.int32)
            width = k + 1
            for i in range(n):
                key = sig_a[i, :width].tobytes()
                val = table.get(key)
                if val is None:
                    val = len(table)
                    table[key] = val
                new_ca[i] = val
            for i in range(n):
                key = sig_b[i, :width].tobytes()
                val = table.get(key)
                if val is None:
                    val = len(table)
                    table[key] = val
                new_cb[i] = val
            new_k = len(table)
            if not np.array_equal(
                np.bincount(new_ca, minlength=new_k), np.bincount(new_cb, minlength=new_k)
            ):
                return None
            if new_k == k:
                return new_ca, new_cb
            ca, cb, k = new_ca, new_cb, new_k

    def verify(mapping: np.ndarray) -> bool:
        return all(h.has_edge(int(mapping[u]), int(mapping[v])) for u, v in g.edges())

    def solve(ca: np.ndarray, cb: np.ndarray) -> Optional[list[int]]:
        sizes = np.bincount(ca)
        splittable = np.flatnonzero(sizes >= 2)
        if splittable.size == 0:
            # discrete coloring: read the bijection off the colors
            order = np.argsort(cb)
            mapping = order[ca]
            return list(int(x) for x in mapping) if verify(mapping) else None
        target = int(splittable[np.argmin(sizes[splittable])])
        u = int(np.flatnonzero(ca == target)[0])
        fresh = int(max(ca.max(), cb.max())) + 1
        for v in np.flatnonzero(cb == target):
            ca2 = ca.copy()
            cb2 = cb.copy()
            ca2[u] = fresh
            cb2[int(v)] = fresh
            refined = refine(ca2, cb2)
            if refined is not None:
                res = solve(*refined)
                if res is not None:
                    return res
        return None

    base = refine(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    if base is None:
        return None
    return solve(*base)


# ---------------------------------------------------------------------------
# biconnectivity


@dataclass(frozen=True)
class BiconnectivityReport:
    cut_vertices: frozenset[int]
    cut_edges: frozenset[tuple[int, int]]
    biconnected_component_count: int


def biconnectivity_report(g: Graph) -> BiconnectivityReport:
    """Cut vertices, bridges, and block count by iterative DFS low-link."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    cuts: set[int] = set()
    bridges: set[tuple[int, int]] = set()
    blocks = 0
    edge_stack: list[tuple[int, int]] = []
    timer = 0

    for root in range(n):
        if disc[root] != -1:
            continue
        root_children = 0
        stack = [(root, iter(range(n)))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if not g.has_edge(u, v):
                    continue
                if disc[v] == -1:
                    parent[v] = u
                    if u == root:
                        root_children += 1
                    edge_stack.append((u, v))
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, iter(range(n))))
                    advanced = True
                    break
                elif v != parent[u] and disc[v] < disc[u]:
                    edge_stack.append((u, v))
                    low[u] = min(low[u], disc[v])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] >= disc[p]:
                        # pop one block off the edge stack
                        blocks += 1
                        while edge_stack and edge_stack[-1] != (p, u):
                            edge_stack.pop()
                        if edge_stack:
                            edge_stack.pop()
                        if p != root or root_children > 1:
                            cuts.add(p)
                    if low[u] > disc[p]:
                        bridges.add((min(p, u), max(p, u)))
    return BiconnectivityReport(frozenset(cuts), frozenset(bridges), blocks)


# ---------------------------------------------------------------------------
# exhaustive enumeration up to isomorphism


_ENUM_CACHE: dict[int, list[Graph]] = {}


def _extend(rep: Graph, mask: int) -> Graph:
    rows = [row | ((mask >> u & 1) << rep.n) for u, row in enumerate(rep.rows)]
    rows.append(mask)
    return Graph(rep.n + 1, tuple(rows))


def _all_classes(n: int) -> list[Graph]:
    """One representative per isomorphism class on exactly n vertices."""
    if n in _ENUM_CACHE:
        return _ENUM_CACHE[n]
    if n == 1:
        reps = [empty_graph(1)]
    else:
        buckets: dict[tuple, list[Graph]] = {}
        for rep in _all_classes(n - 1):
            for mask in range(1 << (n - 1)):
                cand = _extend(rep, mask)
                bucket = buckets.setdefault(wl_certificate(cand), [])
                if not any(is_isomorphic(cand, other) for other in bucket):
                    bucket.append(cand)
        reps = [g for bucket in buckets.values() for g in bucket]
        reps.sort(key=lambda g: (g.num_edges, write_graph6(g)))
    _ENUM_CACHE[n] = reps
    return reps


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Yield one representative per isomorphism class on exactly n vertices.

    Exhaustive mode is limited to n <= 9 (n = 9 takes minutes; prefer
    :func:`random_graph` for larger sizes).  Deduplication buckets
    candidates by a 1-WL certificate and confirms with the exact
    isomorphism oracle.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 9:
        raise ValueError("exhaustive enumeration is limited to n <= 9; use random_graph for larger n")
    for g in _all_classes(n):
        if connected_only and not g.is_connected():
            continue
        yield g

