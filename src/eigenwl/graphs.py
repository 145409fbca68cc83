"""Immutable simple undirected graphs with packed-bit adjacency.

This module is the foundation for everything else: graph6 I/O, the four
graph matrices (adjacency, degree, Laplacian, normalized Laplacian),
structural ground-truth oracles (exact isomorphism, biconnectivity),
and small-graph corpus generation (exhaustive up to isomorphism, and
seeded Erdos-Renyi sampling).

Adjacency is stored as one Python int per vertex (bit v of ``rows[u]``
is the edge flag), which doubles as the packed machine-word layout for
n <= 64 and an unpacked big-int fallback beyond.

What other modules derive from a graph alone (eigendecompositions,
projector codes, exact walk powers, distance matrices and tokens) lives
in ``Graph.derived``, one dict shared by equal graphs, kept as long as
one of them is alive and then for a while in a pool of fixed size.
"""

from __future__ import annotations

import dataclasses
import enum
import operator
import random
import sys
import threading
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "AtomicType",
    "BiconnectivityReport",
    "Graph",
    "Graph6Error",
    "MatrixKind",
    "POOL_BYTES",
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

    def __getstate__(self):
        # derived data and cached properties are recomputed, never pickled
        return {"n": self.n, "rows": self.rows}

    @cached_property
    def derived(self) -> dict:
        """Data derived from this graph alone, keyed by what was derived
        (e.g. ``("decomp", kind, eig_gap_scale)``), in one dict shared by
        every equal graph.  Filled by the modules that compute it, and
        kept while any equal graph that read it is alive; afterwards it
        waits in a pool of at most ``POOL_BYTES`` for the same graph to
        come back."""
        lease, entry = _STORE.lease((self.n, self.rows))
        self.__dict__["_lease"] = lease
        return entry

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
# derived data of each graph

# Bytes of derived data kept for graphs no longer alive: a program that
# parses the same few graphs again and again (one compare per algorithm
# on one pair of graph6 lines) finds them here, while a stream of
# distinct graphs holds no more than this.
POOL_BYTES = 8 << 20


class _Lease:
    """Held by every live graph that read one entry; the entry is
    released when the last of them dies."""

    __slots__ = ("__weakref__",)


class _LeaseRef(weakref.ref):
    """A weak reference to a lease, naming the entry it keeps alive and
    the sizes of the entry's values measured so far."""

    __slots__ = ("key", "entry", "sizes")


class _DerivedStore:
    """The entries of ``Graph.derived`` by ``(n, rows)``.

    A weak reference to an entry's lease is kept while the lease lives.
    When it dies, the weakref callback only queues the reference; the
    next ``lease`` call moves queued entries to the pool, newest last,
    and drops the oldest while the pool holds more than ``budget`` bytes.
    So no store state changes inside a callback, which may run at any
    allocation, and the lock is never taken there.  A lease on a pooled
    graph takes its entry back.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.live: dict[tuple, _LeaseRef] = {}
        # key -> (entry, sizes, bytes), oldest first
        self.pool: OrderedDict[tuple, tuple[dict, dict, int]] = OrderedDict()
        self.pool_bytes = 0
        self.released: deque[_LeaseRef] = deque()
        self._lock = threading.Lock()

    def lease(self, key: tuple) -> tuple[_Lease, dict]:
        """A lease on the entry of ``key`` and the entry, new if none is kept."""
        with self._lock:
            self._pool_released()
            ref = self.live.get(key)
            if ref is not None:
                lease = ref()
                if lease is not None:
                    return lease, ref.entry
                entry, sizes = ref.entry, ref.sizes  # its lease died after the queue was drained
            elif key in self.pool:
                entry, sizes, nbytes = self.pool.pop(key)
                self.pool_bytes -= nbytes
            else:
                entry, sizes = {}, {None: (key, _nbytes(key))}
            lease = _Lease()
            ref = self.live[key] = _LeaseRef(lease, self.released.append)
            ref.key, ref.entry, ref.sizes = key, entry, sizes
            return lease, entry

    def _pool_released(self):
        while self.released:
            ref = self.released.popleft()
            if self.live.get(ref.key) is ref:
                del self.live[ref.key]
                nbytes = _entry_nbytes(ref.entry, ref.sizes)
                self.pool[ref.key] = ref.entry, ref.sizes, nbytes
                self.pool_bytes += nbytes
        while self.pool_bytes > self.budget:
            self.pool_bytes -= self.pool.popitem(last=False)[1][2]


def _entry_nbytes(entry: dict, sizes: dict) -> int:
    """Approximate bytes of an entry and its graph's key.  ``sizes`` keeps
    ``(value, bytes)`` per key of the entry, and under ``None`` the key of
    the graph with its bytes.  So a value is sized once, when its entry is
    first released after the value was stored, and an entry that comes
    back from the pool again and again is not sized again.  A value grown
    in place must be stored anew to be sized again."""
    for key, value in entry.items():
        known = sizes.get(key)
        if known is None or known[0] is not value:
            sizes[key] = value, _nbytes(value)
    return sys.getsizeof(entry) + sum(nbytes for _, nbytes in sizes.values())


# exact types, as isinstance against Fraction's ABC costs a microsecond
_ATOMS = frozenset({bool, int, float, str, bytes, Fraction})
_ARRAY_BYTES = operator.attrgetter("nbytes")


def _atom_bytes(x) -> int:
    if type(x) is Fraction:
        return sys.getsizeof(x) + sys.getsizeof(x.numerator) + sys.getsizeof(x.denominator)
    return sys.getsizeof(x)


def _nbytes(value) -> int:
    """Approximate bytes held by derived data: arrays, and the numbers,
    Fractions, strings and bytes in tuples, lists and dataclass records.
    A sequence that starts and ends with an array holds only arrays (one
    eigenvector block per eigenvalue); one that starts and ends with an
    atom holds only atoms of about one size (an eigenvalue each, or an
    entry of a walk power or of an exact matrix row each), sized from
    those two."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if type(value) in _ATOMS:
        return _atom_bytes(value)
    if not isinstance(value, (tuple, list)):
        if not dataclasses.is_dataclass(value):
            return sys.getsizeof(value)
        value = tuple(vars(value).values())
    if not value:
        return sys.getsizeof(value)
    first, last = value[0], value[-1]
    if isinstance(first, np.ndarray) and isinstance(last, np.ndarray):
        return sys.getsizeof(value) + sum(map(_ARRAY_BYTES, value))
    if type(first) in _ATOMS and type(last) in _ATOMS:
        return sys.getsizeof(value) + len(value) * max(_atom_bytes(first), _atom_bytes(last))
    return sys.getsizeof(value) + sum(map(_nbytes, value))


_STORE = _DerivedStore(POOL_BYTES)


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


# 6-bit groups as binary strings, and the graph6 characters they map to
_G6_CHARS = {format(i, "06b"): chr(i + 63) for i in range(64)}
_G6_BITS = {ord(c): bits for bits, c in _G6_CHARS.items()}


def write_graph6(g: Graph) -> str:
    """Canonical graph6 line: header N(n), upper triangle column-major,
    6-bit groups.  The empty graph is the bare header ``?``."""
    # column v holds the bits u < v, the low v bits of rows[v], u = 0 first
    bits = "".join([format(g.rows[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, g.n)])
    bits += "0" * (-len(bits) % 6)
    return _g6_header(g.n) + "".join([_G6_CHARS[bits[i : i + 6]] for i in range(0, len(bits), 6)])


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

    bits = "".join(map(_G6_BITS.__getitem__, raw[pos:]))
    pad = bits.find("1", nbits)
    if pad >= 0:
        raise Graph6Error("nonzero padding bit", pos + pad // 6)

    rows = [0] * n
    start = 0
    for v in range(1, n):  # column-major upper triangle
        col = rows[v] = int(bits[start : start + v][::-1], 2)
        start += v
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= 1 << v
            col ^= low
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


def _adjacency_bits(g: Graph) -> np.ndarray:
    """The (n, n) 0/1 uint8 adjacency matrix, all bit rows decoded at once."""
    n = g.n
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join([row.to_bytes(width, "little") for row in g.rows]), np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little")


def build_matrix(g: Graph, kind: MatrixKind) -> np.ndarray:
    """Dense symmetric matrix of the requested kind (float64).

    The normalized Laplacian D^{-1/2} (D - A) D^{-1/2} is only defined
    when no vertex is isolated; a ValueError is raised otherwise.
    """
    a = _adjacency_bits(g).astype(float)
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
        stack = [(root, g.neighbors(root))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if disc[v] == -1:
                    parent[v] = u
                    if u == root:
                        root_children += 1
                    edge_stack.append((u, v))
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, g.neighbors(v)))
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
# individualization-refinement: canonical form and exact isomorphism


def _refine(rows: Sequence[int], cells: list[int], active: list[int]) -> list[int]:
    """Coarsest equitable refinement of the ordered partition ``cells``.

    Cells and splitters are vertex bitmasks.  Each splitter popped from
    ``active`` splits every cell by neighbour count into it; the fragments
    replace the cell in place, by ascending count, and become splitters.
    Both orders follow cell positions only, so the result is equivariant
    under relabelling.
    """
    while active:
        w = active.pop()
        out: list[int] = []
        if w & (w - 1) == 0:
            # one-vertex splitter: counts are 0 (non-neighbours) and 1
            nbrs = rows[w.bit_length() - 1]
            for x in cells:
                hit = x & nbrs
                if hit and hit != x:
                    out += (x ^ hit, hit)
                    active += (x ^ hit, hit)
                else:
                    out.append(x)
        else:
            for x in cells:
                if x & (x - 1) == 0:
                    out.append(x)
                    continue
                groups: dict[int, int] = {}
                rem = x
                while rem:
                    low = rem & -rem
                    count = (rows[low.bit_length() - 1] & w).bit_count()
                    groups[count] = groups.get(count, 0) | low
                    rem ^= low
                if len(groups) == 1:
                    out.append(x)
                else:
                    frags = [groups[c] for c in sorted(groups)]
                    out += frags
                    active += frags
        cells = out
    return cells


def _leaves(
    rows: Sequence[int], automorphisms: list[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Leaves of the search tree of the graph with bit rows ``rows``, as
    ``(form, cells)`` in search order.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism II", 2014).  The root is the equitable refinement of the
    degree partition (cells by ascending degree).  A node individualizes
    each vertex of its first non-singleton cell in turn and refines again;
    a leaf is a discrete partition ``cells``, read as a vertex order, and
    ``form`` is the row tuple of the graph relabelled so that the vertex of
    cell i becomes i.  Every step follows cell positions only, so an
    isomorphism maps the whole tree of one graph onto the tree of the
    other, leaf forms unchanged.

    A leaf whose form equals the first or the least leaf's so far differs
    from it by an automorphism, appended to ``automorphisms`` as ``perm``
    with ``perm[v]`` the image of ``v`` before the leaf is yielded.  Each
    prunes the search: a child is skipped when an automorphism fixing the
    path to its node maps an explored sibling onto it, so the skipped
    subtree is the image of an explored one, with the same leaf forms.
    """
    n = len(rows)
    by_degree: dict[int, int] = {}
    for v, row in enumerate(rows):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    nbr_lists = [[v for v in range(n) if row >> v & 1] for row in rows]
    first = best = None  # (form, cells) of the first and the least leaf

    def pruned(v: int, explored: int, path: list[int]) -> bool:
        """Whether an automorphism fixing ``path`` maps an explored vertex to v."""
        gens = [p for p in automorphisms if all(p[u] == u for u in path)]
        orbit = 1 << v
        stack = [v]
        while stack:
            u = stack.pop()
            for p in gens:
                w = p[u]
                if not orbit >> w & 1:
                    if explored >> w & 1:
                        return True
                    orbit |= 1 << w
                    stack.append(w)
        return False

    def search(cells: list[int], path: list[int]) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        nonlocal first, best
        t = 0
        while t < len(cells) and cells[t] & (cells[t] - 1) == 0:
            t += 1
        if t == len(cells):
            new_bit = [0] * n
            for i, c in enumerate(cells):
                new_bit[c.bit_length() - 1] = 1 << i
            bit = new_bit.__getitem__
            form = tuple([sum(map(bit, nbr_lists[c.bit_length() - 1])) for c in cells])
            if first is None:
                first = best = form, cells
            elif form == first[0]:
                automorphisms.append(tuple(_vertex_map(first[1], cells)))
            elif form == best[0]:
                automorphisms.append(tuple(_vertex_map(best[1], cells)))
            elif form < best[0]:
                best = form, cells
            yield form, cells
            return
        target = cells[t]
        explored = 0
        rem = target
        while rem:
            low = rem & -rem
            rem ^= low
            v = low.bit_length() - 1
            if explored and automorphisms and pruned(v, explored, path):
                continue
            explored |= low
            child = cells[:t] + [low, target ^ low] + cells[t + 1 :]
            yield from search(_refine(rows, child, [low]), path + [v])

    yield from search(_refine(rows, cells, list(cells)), [])


def _vertex_map(cells: list[int], other: list[int]) -> list[int]:
    """The map sending the vertex of each cell of the discrete partition
    ``cells`` to the vertex at the same position of ``other``."""
    out = [0] * len(cells)
    for a, b in zip(cells, other):
        out[a.bit_length() - 1] = b.bit_length() - 1
    return out


def _canonical_form(rows: Sequence[int]) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Canonical form of the graph with bit rows ``rows``, and automorphisms.

    The form is the least over all leaves of :func:`_leaves`, so two graphs
    have equal forms iff they are isomorphic.  At each node of the first
    path, every child that the path's stabilizer maps the first child to is
    pruned or leads to a leaf equal to the first, so the automorphisms
    found generate the whole group.
    """
    automorphisms: list[tuple[int, ...]] = []
    form = min(form for form, _ in _leaves(rows, automorphisms))
    return form, automorphisms


def is_isomorphic(g: Graph, h: Graph) -> Optional[list[int]]:
    """Exact isomorphism test; returns a witnessing bijection or None.

    ``mapping[u]`` is the vertex of h that u goes to.  After the cheap
    rejections (vertex count, edge count, degree sequence), g's first leaf
    of :func:`_leaves` is compared with h's leaves in search order.  The
    first of equal form gives the bijection, position to position: both
    graphs relabelled by their leaves are the same graph.

    This is complete: if some isomorphism maps g to h, it maps g's whole
    search tree onto h's, so h's whole tree has a leaf of g's first form.
    A leaf that h's search prunes lies in a subtree that an automorphism of
    h fixing the path to it maps onto an explored sibling's, and automorphic
    leaves have equal forms; by induction from the deepest pruned subtrees
    up, every form of the whole tree is the form of an explored leaf.  So
    None means g and h are not isomorphic.
    """
    if g.n != h.n or g.num_edges != h.num_edges or sorted(g.degrees) != sorted(h.degrees):
        return None
    form, cells = next(_leaves(g.rows, []))
    for other_form, other_cells in _leaves(h.rows, []):
        if other_form == form:
            return _vertex_map(cells, other_cells)
    return None


# ---------------------------------------------------------------------------
# exhaustive enumeration up to isomorphism


_ENUM_CACHE: dict[int, list[Graph]] = {}


def _orbit_minima(m: int, automorphisms: list[tuple[int, ...]]) -> Iterable[int]:
    """Ascending masks over m vertices that no automorphism maps lower.

    These are the least masks of the orbits of the group generated by
    ``automorphisms`` on vertex subsets.
    """
    size = 1 << m
    if not automorphisms:
        return range(size)
    images = []
    for perm in automorphisms:
        image = [0] * size
        for s in range(1, size):
            image[s] = image[s & (s - 1)] | 1 << perm[(s & -s).bit_length() - 1]
        images.append(image)
    seen = bytearray(size)
    out = []
    for s in range(size):
        if seen[s]:
            continue
        out.append(s)
        seen[s] = 1
        stack = [s]
        while stack:
            t = stack.pop()
            for image in images:
                u = image[t]
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
    return out


def _all_classes(n: int) -> list[Graph]:
    """One representative per isomorphism class on exactly n vertices.

    Candidates extend each class on n - 1 vertices by a new vertex with
    neighbour mask ``mask``, parent by parent and mask by mask ascending,
    and the first candidate of each canonical form is kept.  A mask that
    an automorphism of the parent maps to a smaller mask is skipped: its
    candidate is isomorphic to one met before.
    """
    if n in _ENUM_CACHE:
        return _ENUM_CACHE[n]
    if n == 1:
        reps = [empty_graph(1)]
    else:
        top = 1 << (n - 1)
        seen: set[tuple[int, ...]] = set()
        reps = []
        for parent in _all_classes(n - 1):
            _, automorphisms = _canonical_form(parent.rows)
            for mask in _orbit_minima(n - 1, automorphisms):
                rows = tuple([row | top if mask >> u & 1 else row for u, row in enumerate(parent.rows)] + [mask])
                form, _ = _canonical_form(rows)
                if form not in seen:
                    seen.add(form)
                    reps.append(Graph(n, rows))
        reps.sort(key=lambda g: (g.num_edges, write_graph6(g)))
    _ENUM_CACHE[n] = reps
    return reps


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Yield one representative per isomorphism class on exactly n vertices.

    Exhaustive mode is limited to n <= 9; prefer :func:`random_graph` for
    larger sizes.  Classes are told apart by canonical form.  On one core
    of a 2-core Xeon host, n = 7 takes about 0.4 s, n = 8 about 4.5 s and
    n = 9 about 135 s at 325 MB peak (with the smaller sizes, which each
    size needs and caches per process).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 9:
        raise ValueError("exhaustive enumeration is limited to n <= 9; use random_graph for larger n")
    for g in _all_classes(n):
        if connected_only and not g.is_connected():
            continue
        yield g
