"""Generic color refinement engine and the algorithm zoo built on it.

A refinement run is always *joint*: the domains of every graph in the
run are refined together against one shared intern table, so color ids
are structural (equal canonical tokens get equal ids across graphs) and
signatures are comparable within the run.  The run stops at the first
iteration where the joint partition over the union of all domains stops
changing, which realizes the stable-refinement semantics: one further
application of the update changes nothing.  ``distinguishes`` stops a
two-graph run sooner, at the first round whose color counts differ
between the graphs (its docstring gives why the verdict is the same).

Implemented algorithms (selected by :class:`AlgorithmSpec`):

* ``wl1`` - classic vertex refinement over atomic types
* ``epwl:<M>`` - vertex refinement with projection pair invariants as edge data
* ``swl`` / ``pswl`` - subgraph refinement on node-marked pairs, without /
  with the extra diagonal aggregation
* ``gdwl:<d>`` - vertex refinement with a distance as edge data
* ``fwl2`` - folklore 2-dimensional refinement (3-WL power)
* ``ign2wl`` - plain 15-slot equivariant pair refinement
* ``spectralign`` / ``siamese`` / ``weakspectralign`` - refinements over the
  (eigenvalue x pair) domain with, respectively, cross-eigenspace
  aggregation, none, and none-but-decomposed-pooling
* ``basisnet:<M>:layers=k`` - per-eigenspace refinement, 5-slot pooling,
  k vertex-refinement layers on top
* ``spe:<M>`` - pair refinement started from projection invariants with a
  stabilized vertex refinement inside the pooling
* ``peg`` / ``girt`` - distance-style refinements used by positional-encoding
  architectures

Each algorithm is one row of the variant table ``_VARIANTS``, keyed by
``(variant, init)`` (so ``ign2wl``, ``ign2wl:atp`` and ``ign2wl:proj`` are
three rows).  A row holds the domain (``nodes``, ``pairs`` or
``spectral_pairs``), the parameters its spec spells (a matrix kind, a
distance, ``layers=``, ``K=``), whether the initial tokens are
quantized, and the four functions of a run: per-graph static data,
initial tokens, the update, and the pool that reduces the stable
coloring to one signature per graph.

Every update runs through one driver as numpy passes over all graphs of
a run, grouped by vertex count.  Keys are int64 rows numbered by sorting
(``_unique_rows``), one pass per phase: the static data of the
projection, distance and walk variants (rows of decimal codes), the
initial tokens, then per iteration all multisets and then all tokens.
A row takes as few words as its values need: multiset entries are
uint32 two to a word where the run's ids allow (``_multiset_update``),
token ids two to a word, and projection pair rows hold their entry
codes two to a word (``_projection_pair_ids``).  The ids come out as an
intern table fed one key at a time would give them.  ``spectralign``'s cross update runs four such passes
per iteration, each ranked before the next because the later ones key on
final ids, so its ids follow the keys pass by pass over the run
(phase-major).  Each call numbers only its own keys, as one role of an
intern table fed in event order: a key of one cross-update pass never
matches a key of another, and no other update interns one key in two
calls.  The pools reduce the stable coloring the same way: each
reduction level (row, column, diagonal, slice or eigenvalue multisets,
each vertex-refinement layer of ``spe`` and ``basisnet``, then the
multiset that is the signature) is one pass over the run, ranked before
the next level keys on its ids.  Colorings stay int64 arrays throughout.

Keys that hold an element's own color skip the sort when that color is
the element's alone (the singleton rule): every 15-slot token holds its
pair's color in its first slot, and each (slice token, cross token) pair
of ``spectralign``'s last pass holds the slice token, so a color that
occurs once in the pass makes that element's key match no other key of
the call.  Such a key gets a label of its own at its event position,
which is the label sorting would give a key seen once, and ``rank``
numbers it with the rest, so every id stays what the intern table would
give.  The last iteration of a run mostly confirms stability, and on
larger graphs most elements enter it with colors of their own.  The
multiset updates (``wl1``, ``swl``, ``pswl``, ``fwl2``, ``girt``,
``peg``) hash every key: their cost is the multiset pass, and ``peg``'s
token lacks the own color.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import exact
from .distances import DistanceKind, _Param, distance_tokens, label_params, parse_params
from .graphs import Graph, MatrixKind, _adjacency_bits
from .spectral import DEFAULT_QUANT, Quantization, _int64_codes, decomposition_for, quantized_projections

__all__ = [
    "AlgorithmSpec",
    "ColorState",
    "ComparisonReport",
    "InternalError",
    "Signature",
    "UsageError",
    "compare_partitions",
    "distinguishes",
    "initial_coloring",
    "joint_initial_coloring",
    "refine_once",
    "refinement_violations",
    "signature",
    "signatures",
    "stable_coloring",
]


class UsageError(ValueError):
    """Invalid user-level request (bad spec grammar, cross-run comparison)."""


class InternalError(AssertionError):
    """A violated internal invariant (monotonicity, iteration cap)."""


_ALGO_KINDS = {
    MatrixKind.ADJACENCY,
    MatrixKind.LAPLACIAN,
    MatrixKind.NORMALIZED_LAPLACIAN,
}


@dataclass(frozen=True)
class AlgorithmSpec:
    """Declarative selector for one refinement algorithm and its parameters.

    What a spec spells after the variant name (and after the ``init``
    token, for a variant with rows other than ``const``, as ``ign2wl``)
    is the ``params`` column of its ``_VARIANTS`` row, which ``parse``,
    ``label`` and validation all read.
    """

    variant: str
    kind: Optional[MatrixKind] = None
    distance: Optional[DistanceKind] = None
    layers: int = 1
    steps: int = 16
    init: str = "const"

    def __post_init__(self):
        row = _VARIANTS.get((self.variant, self.init))
        if row is None:
            raise UsageError(
                f"unknown algorithm variant {self.variant!r} with initial coloring {self.init!r}"
            )
        # label() spells only the row's parameters, so a spec carrying
        # another would not survive parse(label())
        for param in (_KIND, _DISTANCE, _LAYERS, _STEPS):
            value = getattr(self, param.field)
            if param in row.params:
                try:
                    param.coerce(value)
                except ValueError as exc:
                    raise UsageError(f"{self.variant}: {exc}") from None
            elif value != param.default:
                raise UsageError(f"{self.variant} takes no {param.field} parameter")

    @classmethod
    def parse(cls, text: str) -> "AlgorithmSpec":
        """Parse the text grammar, e.g. 'epwl:Lhat', 'gdwl:rd', 'basisnet:A:layers=1'."""
        text = text.strip()
        head, *rest = text.split(":", 1)
        variant = _SPEC_ALIASES.get(head.lower(), head.lower())
        if variant not in _VARIANT_NAMES:
            # bare distance specs are accepted as gdwl shorthand
            variant, rest = "gdwl", [text]
        init = "const"
        if variant in _SPELLED_INITS and rest:
            init, *rest = rest[0].split(":", 1)
            init = init.lower()
        row = _VARIANTS.get((variant, init))
        if row is None:
            raise UsageError(f"unknown initial coloring {init!r} of {variant}")
        try:
            params = parse_params(row.params, rest[0] if rest else None)
        except ValueError as exc:
            raise UsageError(f"bad algorithm spec {text!r}: {exc}") from None
        return cls(variant, init=init, **params)

    @property
    def quantization_sensitive(self) -> bool:
        """Whether initial tokens depend on quantized floating-point data."""
        return _VARIANTS[self.variant, self.init].quantized

    def label(self) -> str:
        head = f"{self.variant}:{self.init}" if self.variant in _SPELLED_INITS else self.variant
        return label_params(head, _VARIANTS[self.variant, self.init].params, self)


def _algo_kind(kind: Optional[MatrixKind]) -> MatrixKind:
    if kind not in _ALGO_KINDS:
        raise ValueError("requires a matrix kind A, L, or Lhat")
    return kind


def _given_distance(distance: Optional[DistanceKind]) -> DistanceKind:
    if distance is None:
        raise ValueError("requires a distance kind")
    return distance


def _layer_count(layers: int) -> int:
    if layers < 0:
        raise ValueError("layer count must be nonnegative")
    return layers


def _walk_length(steps: int) -> int:
    if steps < 1:
        raise ValueError("walk length must be at least 1")
    return steps


def _read_int(text: str) -> int:
    """A decimal integer of ASCII digits after an optional minus sign;
    ``int`` alone would also read '+2', ' 2' and '2_0'."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


# the parameters a spec can spell after its variant, as labels spell them
_KIND = _Param(None, "kind", None, MatrixKind.parse, _algo_kind, lambda kind: kind.value)
_DISTANCE = _Param(None, "distance", None, DistanceKind.parse, _given_distance, DistanceKind.label)
_LAYERS = _Param("layers", "layers", 1, _read_int, _layer_count, str)
_STEPS = _Param("K", "steps", 16, _read_int, _walk_length, str)

# other names of variants that specs may spell
_SPEC_ALIASES = {"sign": "spectralign", "siameseign": "siamese", "wsign": "weakspectralign"}


# ---------------------------------------------------------------------------
# interning


_NEVER = np.iinfo(np.int64).max  # the first event of a key not seen yet

# Calls of fewer rows than this number them in a dict: a numpy pass costs
# tens of microseconds however few rows it sorts, a dict about 0.3 us a row
_DICT_KEYS = 256

# Labels a fresh interner has room for before it grows its tables: the
# few hundred labels of a refinement step or pool of a tiny run fit
_START_LABELS = 1024


class _BatchInterner:
    """The ids an intern table (a dict giving each new key the next id)
    would give, for whole arrays of int64 row keys interned out of event
    order.

    ``ids`` gives each distinct key of one call a label and keeps the
    earliest event position it was seen at; ``rank`` turns labels into
    the ids that the table fed in event order would have given, since
    such an id counts the distinct keys seen first before it.  A call is
    one role of that table, as if its keys were tagged with the call:
    keys of different calls, or of different widths, never match.  A call
    finds its distinct keys by sorting (``_unique_rows``), or in a dict
    below ``_DICT_KEYS`` rows; keys its caller knows to be unique in the
    call (the singleton rule) it labels without either, in the same call.

    The tables hold one pass: an ``ids`` call made when every label so far
    is ranked starts them over, and ``rank`` numbers on from the ids given
    before.  Every caller (``_per_graph``, ``_across_slices``, ``_pool``,
    ``_cross_update``, ``_pool_basisnet``) ranks a pass's labels before
    the next pass's ``ids`` call.
    """

    __slots__ = ("base", "size", "first", "ranked_ids", "ranked", "alone")

    def __init__(self):
        self.base = 0  # ids given before the labels in the tables
        self.size = 0  # labels in the tables
        self.first = np.full(_START_LABELS, _NEVER)  # per label: earliest event position
        self.ranked_ids = np.zeros(_START_LABELS, np.int64)  # per label: its id, once ranked
        self.ranked = 0  # labels below this are ranked
        self.alone: list[tuple[int, int]] = []  # label ranges of unhashed events not ranked yet

    def ids(self, parts: list[tuple]) -> list[np.ndarray]:
        """Labels of the events of each ``(rows, pos)`` part: ``pos[i]`` is
        the position of event i and ``rows`` a 2-D int64 array of the
        events' keys, one row per event.  Parts of one width are numbered
        together; their rows are joined into one array only when they fit
        in a block (``_unique_rows``) or go through the dict.

        The parts of a call may all be ``(rows, pos, shared)`` instead,
        with a bool mask ``shared`` over the events: ``rows`` then holds
        the keys of the events where it is true only, and every other
        event's key is known to match no other key of the call, so the
        event gets a label of its own without being hashed."""
        if self.ranked == self.size:
            self.first[: self.size] = _NEVER
            self.base += self.size
            self.size = self.ranked = 0
        out = [np.empty(0, np.int64)] * len(parts)
        by_width: dict[int, list[int]] = {}
        for i, (rows, pos, *_) in enumerate(parts):
            if len(pos):
                by_width.setdefault(rows.shape[1], []).append(i)
        for members in by_width.values():
            rows = [parts[i][0] for i in members]
            if len(members) == 1:
                _, pos, *shared = parts[members[0]]
            else:
                pos, *shared = map(np.concatenate, zip(*(parts[i][1:] for i in members)))
            hashed = sum(map(len, rows))
            if hashed < _DICT_KEYS:
                table: dict[bytes, int] = {}
                keys = _row_bytes(rows[0] if len(rows) == 1 else np.concatenate(rows))
                inverse = np.array([table.setdefault(key, len(table)) for key in keys], np.int64)
                distinct = len(table)
            else:
                at, inverse = _unique_rows(*rows)
                distinct = len(at)
            labels = inverse
            labels += self.size
            fresh = len(pos) - hashed
            self._grow(distinct + fresh)
            if shared:
                every = np.empty(len(pos), np.int64)
                every[shared[0]] = labels
                every[~shared[0]] = np.arange(self.size - fresh, self.size)
                labels = every
                if fresh:
                    self.alone.append((self.size - fresh, self.size))
            np.minimum.at(self.first, labels, pos)
            end = 0
            for i in members:
                start, end = end, end + len(parts[i][1])
                out[i] = labels[start:end]
        return out

    def _grow(self, added: int):
        self.size = size = self.size + added
        if size > len(self.first):
            grow = max(size, 2 * len(self.first)) - len(self.first)
            self.first = np.concatenate([self.first, np.full(grow, _NEVER)])
            self.ranked_ids = np.concatenate([self.ranked_ids, np.zeros(grow, np.int64)])

    def rank(self, labels: np.ndarray) -> np.ndarray:
        """Ids of labels from ``ids``.  The labels given since the last
        call get the next ids, in the order of their earliest events, so
        every event interned after a call must come after every event
        interned before it.

        When most labels are those of unhashed events, only the others
        are sorted.  An unhashed event has a label of its own, and ``ids``
        hands those out in the order of the part's events, which its
        callers list ascending within each size group; so they form a few
        ascending runs, which are merged with one another and with the
        sorted hashed labels.  With fewer of them, the passes of the merge
        cost more than sorting them too."""
        start, first = self.ranked, self.first[self.ranked : self.size]
        ids = self.ranked_ids[start : self.size]
        if 2 * sum(b - a for a, b in self.alone) <= len(first):
            ids[np.argsort(first)] = np.arange(self.base + start, self.base + self.size)
        else:
            unhashed = np.zeros(len(first), bool)
            for a, b in self.alone:
                unhashed[a - start : b - start] = True
            alone, hashed = np.flatnonzero(unhashed), np.flatnonzero(~unhashed)
            alone_first = first[alone]
            if not (alone_first[1:] > alone_first[:-1]).all():
                by = np.argsort(alone_first, kind="stable")  # a merge sort that finds the runs
                alone, alone_first = alone[by], alone_first[by]
            hashed = hashed[np.argsort(first[hashed])]
            # an id counts the labels of both kinds seen first before it
            before = np.searchsorted(alone_first, first[hashed])
            ids[hashed] = np.arange(len(hashed)) + before
            ids[alone] = np.arange(len(alone)) + np.cumsum(np.bincount(before, minlength=len(alone) + 1)[:-1])
            ids += self.base + start
        self.alone.clear()
        self.ranked = self.size
        return self.ranked_ids[labels]


def _row_bytes(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a 2-D int64 array."""
    if not rows.shape[1]:
        return [b""] * len(rows)
    return np.ascontiguousarray(rows).view(np.dtype((np.void, 8 * rows.shape[1]))).ravel().tolist()


# odd 64-bit base of the row hash: the dot product of a row with
# (B, B**2, B**3, ...), wrapping modulo 2**64
_HASH_BASE = np.uint64(0x9E3779B97F4A7C15)


def _row_words(rows: np.ndarray) -> np.ndarray:
    """One 64-bit hash word per row of a 2-D int64 array."""
    width = rows.shape[1]
    return rows.view(np.uint64) @ (_HASH_BASE ** np.arange(1, width + 1, dtype=np.uint64))


# Bytes of one block of key rows.  ``_unique_rows`` checks rows a block at
# a time and joins parts of at most a block in all into one array (a copy
# that costs less than per-part gathers at that size); ``_ign_slices``
# builds its tokens about a block at a time.  So numbering a call holds
# its rows once, plus words, index arrays and about one block.  Checking a
# block gathers a copy of it and some index entries per row, so the block
# is kept small beside the narrow key rows of packed multisets and
# projection pairs.
_BLOCK_BYTES = 1 << 18


def _block_rows(width: int) -> int:
    """Rows of width ``width`` (int64 entries) in one block, at least one."""
    return max(1, _BLOCK_BYTES // (8 * max(1, width)))


def _unique_rows(*parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first index of each distinct row, distinct-row index of each row)
    of the rows of nonempty 2-D int64 arrays of one width, taken one
    array after the other.

    Rows are hashed to one 64-bit word each and the words are sorted.
    Each row is then checked against its word's first row, a block of
    rows at a time; if two different rows share a word, the rows' bytes
    are sorted instead.  One-column rows are their own words
    (``_unique_values``).
    """
    if parts[0].shape[1] == 1:
        return _unique_values(np.concatenate(parts).ravel() if len(parts) > 1 else parts[0].ravel())
    if len(parts) > 1 and sum(map(len, parts)) <= _block_rows(parts[0].shape[1]):
        parts = (np.concatenate(parts),)
    # the words are passed on, not kept, so that _unique frees them
    at, inverse = _unique(_row_words(parts[0]) if len(parts) == 1 else np.concatenate([_row_words(r) for r in parts]))
    if not _rows_match(parts, at, inverse):
        rows = np.ascontiguousarray(np.concatenate(parts) if len(parts) > 1 else parts[0])
        at, inverse = _unique(rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel())
    return at, inverse


def _rows_match(parts, at: np.ndarray, inverse: np.ndarray) -> bool:
    """Whether every row of the parts equals the row at ``at[inverse]``
    of its index, a block of rows at a time.  One part is checked against
    its own rows; several against their distinct rows, each copied out of
    the block that holds its first index, as a row's first index is never
    after it.  So the work is linear in the rows, however many parts."""
    step = _block_rows(parts[0].shape[1])
    if len(parts) == 1:
        rows = parts[0]
        for a in range(0, len(rows), step):
            if not (rows[at[inverse[a : a + step]]] == rows[a : a + step]).all():
                return False
        return True
    distinct = np.empty((len(at), parts[0].shape[1]), np.int64)
    start = 0
    for block in _blocks(parts, step):
        end = start + len(block)
        labels = inverse[start:end]
        first = at[labels] == np.arange(start, end)
        distinct[labels[first]] = block[first]
        if not (distinct[labels] == block).all():
            return False
        start = end
    return True


def _blocks(parts, step: int) -> Iterator[np.ndarray]:
    """The rows of the parts, one part after the other, in blocks of
    ``step`` rows (the last one shorter); a block that spans parts is a
    joined copy, so small parts cost one slice each."""
    pending, held = [], 0
    for rows in parts:
        a = 0
        while a < len(rows):
            piece = rows[a : a + step - held]
            pending.append(piece)
            held += len(piece)
            a += len(piece)
            if held == step:
                yield pending[0] if len(pending) == 1 else np.concatenate(pending)
                pending, held = [], 0
    if pending:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def _unique(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_unique_rows`` of a nonempty 1-D array.  The sort need not be
    stable: a distinct value's first index is the least in its run."""
    order = np.argsort(keys)
    ordered = keys[order]
    del keys  # frees the keys of a caller that passed them on
    flags = np.empty(len(ordered), bool)
    flags[0] = True
    flags[1:] = ordered[1:] != ordered[:-1]
    del ordered
    at = np.minimum.reduceat(order, flags.nonzero()[0])
    ranks = np.cumsum(flags)
    ranks -= 1
    inverse = np.empty(len(order), np.intp)
    inverse[order] = ranks
    return at, inverse


def _unique_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_unique_rows`` of one-column rows, from a nonempty 1-D int64
    array of their values: counted in a table when the values span at most
    twice as many numbers as there are values, sorted otherwise."""
    lo, hi = int(values.min()), int(values.max())
    if hi - lo >= 2 * len(values):
        return _unique(values)
    offsets = values - lo
    first = np.full(hi - lo + 1, len(values))
    np.minimum.at(first, offsets, np.arange(len(values)))
    present = first < len(values)
    index = np.cumsum(present)
    index -= 1
    return first[present], index[offsets]


def _first_seen(parts: list[np.ndarray]) -> list[np.ndarray]:
    """Ids of the int64 rows of each part, numbered in the order the rows
    are first seen, part after part; rows of different widths never
    match, and every id is below the number of rows.

    Below ``_DICT_KEYS`` rows in all, a dict keyed by the rows' bytes
    (which fix the width) gives the ids.  Above, the rows of each width
    are numbered by ``_unique_rows`` and the distinct rows of all widths
    are ranked by the run index of their first row, so no event position
    is kept per row."""
    lengths = [len(rows) for rows in parts]
    if sum(lengths) < _DICT_KEYS:
        table: dict[bytes, int] = {}
        return [np.array([table.setdefault(key, len(table)) for key in _row_bytes(rows)], np.int64) for rows in parts]
    starts = np.cumsum([0] + lengths)
    by_width: dict[int, list[int]] = {}
    for i, rows in enumerate(parts):
        if len(rows):
            by_width.setdefault(rows.shape[1], []).append(i)
    numbered, firsts = [], []
    for members in by_width.values():
        sizes = [lengths[i] for i in members]
        at, inverse = _unique_rows(*(parts[i] for i in members))
        # the distinct rows in the order of their first rows, which is the
        # run order within one width; a first row's run index is its index
        # in the joined rows shifted by where its part starts in the run
        order = np.argsort(at)
        at = at[order]
        ends = np.cumsum(sizes)
        shift = starts[members] - (ends - sizes)
        firsts.append(at + np.repeat(shift, np.diff(np.searchsorted(at, ends), prepend=0)))
        numbered.append((members, order, inverse))
    # the rank of each distinct row: a merge of the widths' ascending runs
    every = np.concatenate(firsts)
    ranks = np.empty(len(every), np.int64)
    ranks[np.argsort(every, kind="stable")] = np.arange(len(every))
    out = [np.empty(0, np.int64)] * len(parts)
    offset = 0
    for members, order, inverse in numbered:
        label_ranks = np.empty(len(order), np.int64)
        label_ranks[order] = ranks[offset : offset + len(order)]
        offset += len(order)
        ids = label_ranks[inverse]
        end = 0
        for i in members:
            start, end = end, end + lengths[i]
            out[i] = ids[start:end]
    return out


# ---------------------------------------------------------------------------
# per-graph static data: (spec, graphs, quant) -> data per graph, numbered
# jointly over the run.  Pair data is a flat n*n int64 array of ids.


def _atp_flat(g: Graph) -> np.ndarray:
    """Flat n*n atomic types: 0 on the diagonal, 1 for edges, 2 otherwise."""
    out = 2 - _adjacency_bits(g).ravel().astype(np.int64)
    out[:: g.n + 1] = 0
    return out


def _projection_pair_ids(kind: MatrixKind, graphs: Sequence[Graph], quant: Quantization) -> list[np.ndarray]:
    """Flat n*n ids of the projection pair invariants of the kind,
    numbered jointly over the graphs.  A pair's invariant is the sorted
    row of its (eigenvalue code, entry code) records: equal rows are
    equal multisets, and equal ids equal ``pair_token`` bytes.

    Every record of a graph holds one of its m eigenvalue codes, so the
    row is keyed as the graph's spectrum id (numbered over the run from
    the bytes of its eigenvalue codes, so it fixes m) and then the m entry
    codes in record order, int32 codes two to a 64-bit word, zero-padded.
    Equal keys are equal rows, and the key is 1 + ceil(m / 2) words, not
    2m (1 + m past 9 digits, where codes are int64)."""
    spectra: dict[bytes, int] = {}
    parts = []
    for g in graphs:
        lams, codes = quantized_projections(g, kind, quant)
        m, nn = codes.shape[0], g.n * g.n
        per_word = 8 // codes.itemsize
        rows = np.zeros((nn, 1 + -(-m // per_word)), np.int64)
        rows[:, 0] = spectra.setdefault(lams.tobytes(), len(spectra))
        entries = rows[:, 1:].view(codes.dtype)
        entries[:, :m] = codes.reshape(m, nn).T
        # eigenvalue codes ascend, so only the entries under an equal code need sorting
        bounds = [0, *(np.flatnonzero(np.diff(lams)) + 1).tolist(), m]
        for a, b in zip(bounds, bounds[1:]):
            if b - a > 1:
                entries[:, a:b].sort(axis=1)
        parts.append(rows)
    return _first_seen(parts)


def _proj_static(spec, graphs, quant):
    """Flat n*n static ids of the projection pair invariants."""
    return _projection_pair_ids(spec.kind, graphs, quant)


def _require_no_isolated(spec: AlgorithmSpec, g: Graph):
    if g.has_isolated:
        raise UsageError(f"{spec.label()} is undefined on graphs with isolated vertices")


def _no_static(spec, graphs, quant):
    return [None] * len(graphs)


def _atp_static(spec, graphs, quant):
    return [_atp_flat(g) for g in graphs]


def _dist_static(spec, graphs, quant):
    """Flat n*n static ids of the distance tokens."""
    if spec.distance.rejects_isolated:
        for g in graphs:
            _require_no_isolated(spec, g)
    return _first_seen([distance_tokens(g, spec.distance, quant) for g in graphs])


def _girt_static(spec, graphs, quant):
    """Flat n*n static ids of the landing-probability tokens."""
    for g in graphs:
        _require_no_isolated(spec, g)
    return _first_seen([_girt_init(g, spec.steps, quant) for g in graphs])


def _eig_static(spec, graphs, quant):
    """Per graph: (eigenvalue codes, multiplicities, an (eigenvalues, n*n)
    int64 array of the projection entry codes).  The codes need no static
    ids: equal codes are equal entries, so the initial tokens keyed on
    them are numbered as they would be on ids."""
    out = []
    for g in graphs:
        lams, codes = quantized_projections(g, spec.kind, quant)
        mults = decomposition_for(g, spec.kind, quant).multiplicities
        out.append((lams, mults, codes.reshape(len(lams), g.n * g.n)))
    return out


def _girt_init(g: Graph, steps: int, quant: Quantization) -> np.ndarray:
    """Initial pair tokens: the multi-step landing-probability vector, an
    (n*n, steps + 1) int64 array whose row of (u, v) holds the decimal
    codes of (D^-1 A)^k(u, v) for k = 0..steps.

    Walk powers are exact rationals; their decimal expansions routinely
    end in a tie digit, so they are rounded exactly (``exact.round_code``),
    never left to float noise.
    """
    scale, powers = exact.powers(g, exact.WALK, steps)
    digits = quant.digits
    out = np.empty((g.n * g.n, steps + 1), np.int64)
    for k, p in enumerate(powers):
        den = scale**k
        out[:, k] = _int64_codes([exact.round_code(x, den, digits) for row in p for x in row], digits)
    return out


# ---------------------------------------------------------------------------
# initial tokens: (n, per-graph data) -> one int64 row per domain element


def _node_init(n, data):
    return np.zeros((n, 1), np.int64)


def _pair_init(n, data):
    return np.zeros((n * n, 1), np.int64)


def _marked_init(n, data):
    """Node-marked pairs: the diagonal against everything else."""
    return np.eye(n, dtype=np.int64).reshape(n * n, 1)


def _data_init(n, data):
    return data.reshape(-1, 1)


def _lam_init(n, data):
    lams, _, slices = data
    return _slice_rows(lams, slices, n)


def _mult_init(n, data):
    _, mults, slices = data
    return _slice_rows(mults, slices, n)


def _slice_rows(heads, slices, n):
    """Rows (head of the slice, entry code), slice by slice."""
    rows = np.empty((len(heads), n * n, 2), np.int64)
    rows[:, :, 0] = np.reshape(heads, (-1, 1))
    rows[:, :, 1] = slices
    return rows.reshape(-1, 2)


# ---------------------------------------------------------------------------
# updates: (size groups, batch interner) -> labels per group.
#
# An update sees all graphs of the run at once, grouped by vertex count.
# Every key it interns is one event of the per-element order that the
# run's ids follow (graph by graph, element by element, multiset before
# token; _cross_update's passes are ranked one after the other, each
# graph by graph); an event's position is its graph's run index shifted
# left by _POS_SHIFT plus its place in that graph's event list.


_POS_SHIFT = 40


class _Group(NamedTuple):
    """The graphs of a run that share one vertex count n."""

    colors: np.ndarray  # (S, n) or (S, n, n) color slices of the graphs, in run order
    owner: np.ndarray  # (S,) run index of each slice's graph
    index: np.ndarray  # (S,) index of each slice within its graph
    data: Optional[list]  # per-graph static data of the graphs, in run order; None in the pools
    # bounds of the run's ids: every color id is below the first and every
    # static id below the second; None where not known
    spans: tuple[Optional[int], Optional[int]] = (None, None)


def _pair_data(grp: _Group) -> np.ndarray:
    """The group's flat n*n static ids, one (n, n) slice per graph."""
    n = grp.colors.shape[1]
    return np.stack(grp.data).reshape(len(grp.data), n, n)


def _run_spans(groups) -> tuple[Optional[int], Optional[int]]:
    """The ``spans`` of the run's groups."""
    return groups[0].spans if groups else (None, None)


# A multiset entry (left, right) is the uint32 ``left * span + right`` when
# every such value is below this bound, and a multiset of odd width is
# padded with it: no entry takes the value, so the multisets of n = 2k - 1
# and 2k entries, which fill the same k words, never match
_ENTRY_LIMIT = 0xFFFFFFFF


def _packed_bags(left: np.ndarray, right: np.ndarray, span: int, shape: tuple) -> np.ndarray:
    """The sorted uint32 entries ``left * span + right`` over the last
    axis of the arrays, broadcast to ``shape``, padded to an even width
    with ``_ENTRY_LIMIT`` and read as int64 words, two entries to a word."""
    width = shape[-1]
    bag = np.empty((*shape[:-1], width + width % 2), np.uint32)
    np.add(left.astype(np.uint32) * np.uint32(span), right.astype(np.uint32), out=bag[..., :width])
    if width % 2:
        bag[..., width] = _ENTRY_LIMIT
    bag.sort(axis=-1)
    return bag.view(np.int64)


def _paired(ids: list[np.ndarray]) -> np.ndarray:
    """The 1-D id arrays as the columns of one int64 array, two ids to a
    word (ids stay below 2**31)."""
    words = [a << 32 | b for a, b in zip(ids[::2], ids[1::2])] + ids[len(ids) & ~1 :]
    return words[0][:, None] if len(words) == 1 else np.stack(words, axis=1)


def _multiset_update(groups, parts, it: _BatchInterner, spans) -> list[np.ndarray]:
    """Per group, the ``(left, right, head)`` of its elements, where every
    left is below ``spans[0]`` and every right below ``spans[1]`` (a span
    that is None is read off the arrays).  Per element e: the multiset of
    its (left, right) pairs over the last axis (event 2e), then the token
    (*head, multiset) (event 2e + 1), its ids packed two to a word.

    A pair enters a multiset as the uint32 ``left * spans[1] + right``
    when the spans' product is below ``_ENTRY_LIMIT`` (``_packed_bags``),
    and as the int64 ``left << 32 | right`` otherwise (colors and static
    ids stay below 2**31).  Either encodes the pair one to one, so equal
    multisets stay equal and the ids do not depend on the route."""
    left_span, right_span = (
        1 + max((int(part[k].max()) for part in parts if part[k].size), default=-1) if span is None else span
        for k, span in enumerate(spans)
    )
    packed = left_span * right_span < _ENTRY_LIMIT
    bags, pos = [], []
    for grp, (left, right, _) in zip(groups, parts):
        colors = grp.colors
        if packed:
            bag = _packed_bags(left, right, right_span, (*colors.shape, colors.shape[-1]))
        else:
            bag = np.bitwise_or(left << 32, right, order="C")  # C order, so that the reshape below copies nothing
            bag.sort(axis=-1)
        bags.append(bag.reshape(colors.size, bag.shape[-1]))
        pos.append((grp.owner[:, None] << _POS_SHIFT | np.arange(0, 2 * colors[0].size, 2)).ravel())
    ms = it.ids(list(zip(bags, pos)))
    del bags
    toks = [(_paired([*(np.ravel(x) for x in head), m]), p + 1) for (_, _, head), m, p in zip(parts, ms, pos)]
    return [labels.reshape(grp.colors.shape) for grp, labels in zip(groups, it.ids(toks))]


def _vertex_update(groups, it):
    """Own color plus the multiset over v of (color of v, pair data of (u, v))."""
    parts = [(grp.colors[:, None, :], _pair_data(grp), (grp.colors,)) for grp in groups]
    return _multiset_update(groups, parts, it, _run_spans(groups))


def _peg_update(groups, it):
    """The multiset over v of (color of v, d(u,u), d(v,v), d(u,v)), without
    the own color; the three data ids enter as one dense code."""
    parts, codes = [], 0
    for grp in groups:
        d = _pair_data(grp)
        diag = np.diagonal(d, axis1=1, axis2=2)
        code = np.unique(diag[:, None, :] << 32 | d, return_inverse=True)[1]
        distinct, code = np.unique(diag[:, :, None] << 32 | code, return_inverse=True)
        codes = max(codes, len(distinct))
        parts.append((grp.colors[:, None, :], code, ()))
    return _multiset_update(groups, parts, it, (_run_spans(groups)[0], codes))


def _swl_update(groups, it):
    """Own color plus the multiset over w of (color of (u, w), atomic type of (v, w))."""
    parts = [(grp.colors[:, :, None, :], _pair_data(grp)[:, None], (grp.colors,)) for grp in groups]
    return _multiset_update(groups, parts, it, _run_spans(groups))


def _pswl_update(groups, it):
    """The ``swl`` token with the color of (v, v) added."""
    parts = []
    for grp in groups:
        c = grp.colors
        diag_v = np.broadcast_to(np.diagonal(c, axis1=1, axis2=2)[:, None, :], c.shape)
        parts.append((c[:, :, None, :], _pair_data(grp)[:, None, :, :], (c, diag_v)))
    return _multiset_update(groups, parts, it, _run_spans(groups))


def _fwl2_update(groups, it):
    """Own color plus the multiset over w of (color of (u, w), color of (w, v))."""
    colors = _run_spans(groups)[0]
    parts = [(grp.colors[:, :, None, :], grp.colors.mT[:, None], (grp.colors,)) for grp in groups]
    return _multiset_update(groups, parts, it, (colors, colors))


def _girt_update(groups, it):
    """On the diagonal, own color plus the multiset over v of (color of
    (u, v), color of (v, v)) (events 2e and 2e + 1); off it, (color of
    (u, v), color of (u, u), color of (v, v)) (event 2e + 1).  A diagonal
    token keeps its multiset in the second slot and a flag in the fourth."""
    bags, pos = [], []
    for grp in groups:
        c = grp.colors
        s, n = c.shape[:2]
        pos.append(grp.owner[:, None, None] << _POS_SHIFT | np.arange(0, 2 * n * n, 2).reshape(n, n))
        bag = c << 32 | np.diagonal(c, axis1=1, axis2=2)[:, None, :]
        bag.sort(axis=2)
        bags.append(bag.reshape(s * n, n))
    ms = it.ids([(b, np.diagonal(p, axis1=1, axis2=2).ravel()) for b, p in zip(bags, pos)])
    del bags
    toks = []
    for grp, m, p in zip(groups, ms, pos):
        c = grp.colors
        s, n = c.shape[:2]
        diag = np.diagonal(c, axis1=1, axis2=2)
        eye = np.eye(n, dtype=np.int64)
        second = np.where(eye, m.reshape(s, n, 1), diag[:, :, None])
        tok = np.stack(np.broadcast_arrays(c, second, diag[:, None, :], eye), axis=-1).reshape(-1, 4)
        toks.append((tok, p.ravel() + 1))
    return [labels.reshape(grp.colors.shape) for grp, labels in zip(groups, it.ids(toks))]


def _ign_events(n: int) -> int:
    """Events of the 15-slot update of one n x n slice."""
    return n * n + 2 * n + 2


def _slice_multisets(stacks, it: _BatchInterner) -> list[tuple[np.ndarray, np.ndarray]]:
    """Labels of the multisets of each ``(colors, base)`` stack of S n x n
    color slices, from one ids call: an (S, 2n + 1) array of every
    slice's n row, n column and one diagonal multisets (events base[i]
    on), and an (S,) array of its whole-slice multisets (event
    base[i] + 2n + 1)."""
    bags, full = [], []
    for colors, base in stacks:
        s, n = colors.shape[:2]
        lines = np.empty((s, 2 * n + 1, n), np.int64)
        lines[:, :n] = colors
        lines[:, n : 2 * n] = colors.transpose(0, 2, 1)
        lines[:, 2 * n] = np.diagonal(colors, axis1=1, axis2=2)
        lines.sort(axis=2)
        bags.append((lines.reshape(s * (2 * n + 1), n), (base[:, None] + np.arange(2 * n + 1)).ravel()))
        full.append((np.sort(colors.reshape(s, n * n), axis=1), base + 2 * n + 1))
    ms = it.ids(bags + full)
    return [(ms[i].reshape(len(c), 2 * c.shape[1] + 1), ms[len(stacks) + i]) for i, (c, _) in enumerate(stacks)]


def _ign_slices(stacks, it: _BatchInterner) -> list[np.ndarray]:
    """The 15-slot equivariant pair update of each ``(colors, base)``
    stack of n x n color slices.  Slice i of a stack has its events from
    position base[i] on: its n row, n column, diagonal and whole-slice
    multisets, then one token per pair, row-major.

    The token of pair (u, v) holds c(u,v), c(u,u), c(v,v), c(v,u), the
    row and column multisets of u and of v, and the diagonal and
    whole-slice multisets; on the diagonal it repeats c(u,u), u's row and
    column and the two slice multisets in five gated slots, which are
    absent elsewhere.  Two tokens are equal iff they agree on the ten
    ungated slots and on being diagonal, so a token is interned as those,
    packed two to a word (ids stay below 2**31), plus a diagonal flag.
    A pair whose color occurs once in the stacks has a token no other
    pair has, as c(u,v) is in its first slot; its token is not hashed.
    The hashed tokens of all stacks are built into one array, about a
    block (``_BLOCK_BYTES``) of dense tokens at a time, and numbered as
    one part.
    """
    multisets = _slice_multisets(stacks, it)
    bounds, shared = _shared([colors for colors, _ in stacks])
    pos = np.empty(len(shared), np.int64)
    tok = np.empty((np.count_nonzero(shared), 6), np.int64)
    end = 0
    for (colors, base), (lines_ms, full_ms), first, last in zip(stacks, multisets, bounds, bounds[1:]):
        s, n = colors.shape[:2]
        np.add(base[:, None] + (2 * n + 2), np.arange(n * n), out=pos[first:last].reshape(s, n * n))
        diag = np.diagonal(colors, axis1=1, axis2=2)
        lines = lines_ms[:, :n] << 32 | lines_ms[:, n : 2 * n]  # row and column multiset of each vertex
        whole = lines_ms[:, 2 * n] << 32 | full_ms
        step = max(1, _block_rows(6) // max(1, n * n))  # slices per block
        buf = np.empty((min(step, s), n, n, 6), np.int64)
        for a in range(0, s, step):
            b = min(a + step, s)
            block, c = buf[: b - a], colors[a:b]
            block[..., 0] = c << 32 | c.transpose(0, 2, 1)
            block[..., 1] = diag[a:b, :, None] << 32 | diag[a:b, None, :]
            block[..., 2] = lines[a:b, :, None]
            block[..., 3] = lines[a:b, None, :]
            block[..., 4] = whole[a:b, None, None]
            block[..., 5] = np.eye(n, dtype=np.int64)
            picked = shared[first + a * n * n : first + b * n * n]
            start, end = end, end + np.count_nonzero(picked)
            np.compress(picked, block.reshape(-1, 6), axis=0, out=tok[start:end])
    [labels] = it.ids([(tok, pos, shared)])
    return [labels[a:b].reshape(colors.shape) for (colors, _), a, b in zip(stacks, bounds, bounds[1:])]


def _shared(arrays: list[np.ndarray]) -> tuple[list[int], np.ndarray]:
    """The bounds of each of the int64 id arrays in their flat
    concatenation, and a bool mask over it: true where the id occurs more
    than once in all the arrays."""
    bounds = [0, *itertools.accumulate(a.size for a in arrays)]
    counts = np.bincount(np.concatenate([np.empty(0, np.int64)] + [a.ravel() for a in arrays]))
    shared = np.empty(bounds[-1], bool)
    for a, start, end in zip(arrays, bounds, bounds[1:]):
        np.greater(counts[a.ravel()], 1, out=shared[start:end])
    return bounds, shared


def _slice_stacks(groups) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``(colors, base)`` stack of each group for ``_ign_slices``: a
    slice's events follow those of the slices before it in its graph."""
    return [(grp.colors, grp.owner << _POS_SHIFT | grp.index * _ign_events(grp.colors.shape[1])) for grp in groups]


def _ign_update(groups, it):
    """The 15-slot update of every slice on its own: one slice per graph
    on the pair domain, one per eigenvalue on the spectral one."""
    return _ign_slices(_slice_stacks(groups), it)


def _graph_slices(grp: _Group) -> tuple[np.ndarray, np.ndarray]:
    """The index of each graph's first slice in the group, and the graph's
    slice count."""
    first = np.flatnonzero(grp.index == 0)
    return first, np.diff(np.append(first, len(grp.index)))


def _across_slices(groups, values, it: _BatchInterner) -> list[np.ndarray]:
    """Ids of multisets across the slices of each graph, from one ids call
    ranked at once: ``values`` holds per group one array per slice, and
    the result per group one array of that shape per graph, graphs in
    order of their first slice, whose entry x is the id of the multiset of
    entry x over the graph's slices (event x of the graph).  Graphs with k
    slices give rows of width k."""
    parts, where, out = [], [], []
    for g, (grp, vals) in enumerate(zip(groups, values)):
        first, count = _graph_slices(grp)
        width = math.prod(vals.shape[1:])
        for k in sorted(set(count.tolist())):
            picked = count == k
            slices = vals[(first[picked, None] + np.arange(k)).ravel()].reshape(-1, k, width)
            bags = slices.transpose(0, 2, 1).copy()  # C order, so that the reshape below copies nothing
            del slices
            bags.sort(axis=2)
            pos = grp.owner[first[picked], None] << _POS_SHIFT | np.arange(width)
            parts.append((bags.reshape(-1, k), pos.ravel()))
            where.append((g, picked))
        out.append(np.empty((len(first), *vals.shape[1:]), np.int64))
    for (g, picked), labels in zip(where, it.ids(parts)):
        out[g][picked] = it.rank(labels).reshape(-1, *out[g].shape[1:])
    return out


def _cross_update(groups, it):
    """Per-slice 15-slot update paired with the 15-slot update of the pair
    multisets over slices (cross-eigenspace aggregation).

    Four passes, each over the whole run and ranked before the next: the
    15-slot update of every slice, every graph's n*n pair multisets over
    its slices, the 15-slot update of every graph's slice of pair
    multisets, and every element's (slice token, cross token) pair.  The
    pair multiset ids act as colors in the third pass, where they meet
    slice colors in the same keys, so they must be final ids before it.
    Ids are thus numbered pass by pass, graph by graph within a pass
    (phase-major); each pass's events are numbered from 0 per graph.  No
    key matches a key of another pass, even an equal one: a pair-multiset
    slice and a color slice are different things, and the last pass
    keeps slice and cross ids in separate slots.  Both 15-slot passes skip
    hashing the tokens of singleton colors (``_ign_slices``), and the last
    pass the pairs of slice tokens that occur once in the run.
    """
    slice_ids = [it.rank(labels) for labels in _ign_update(groups, it)]
    sp = _across_slices(groups, [grp.colors for grp in groups], it)
    slices = [_graph_slices(grp) for grp in groups]
    stacks = [(s, grp.owner[first] << _POS_SHIFT) for s, grp, (first, _) in zip(sp, groups, slices)]
    cross = [it.rank(labels) for labels in _ign_slices(stacks, it)]
    bounds, shared = _shared(slice_ids)
    pos = np.empty(len(shared), np.int64)
    pairs = np.empty((np.count_nonzero(shared), 2), np.int64)
    end = 0
    for grp, ids, crossed, (_, count), a, b in zip(groups, slice_ids, cross, slices, bounds, bounds[1:]):
        nn = grp.colors.shape[1] ** 2
        at = grp.index[:, None] * nn + np.arange(nn)
        np.bitwise_or(grp.owner[:, None] << _POS_SHIFT, at, out=pos[a:b].reshape(len(grp.index), nn))
        picked = shared[a:b]
        start, end = end, end + np.count_nonzero(picked)
        np.compress(picked, ids.ravel(), out=pairs[start:end, 0])
        np.compress(picked, np.repeat(crossed, count, axis=0).ravel(), out=pairs[start:end, 1])
    [labels] = it.ids([(pairs, pos, shared)])
    return [labels[a:b].reshape(grp.colors.shape) for grp, a, b in zip(groups, bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# round 1 from atomic types: (size group) -> (codes, span): one int64 key
# code in range(span) per element, an (S, elements) array for the group's
# S graphs.
#
# From the initial coloring of wl1, swl, pswl and fwl2, an element's
# round-1 multiset is fixed by, and fixes, a few counts of its graph: n
# (the multiset's size), the atomic type, degrees and, for fwl2, the
# common neighbours (A.A).  The token's other slots (the element's own
# color, and pswl's diagonal color) are fixed by the atomic type.  So two
# elements share a key iff they share a multiset iff they share a token,
# and ``refine_once`` numbers the keys instead of building the multisets.
# A key code packs these counts for one n; each size group's codes are
# shifted past the spans of the groups before it, which stands for n.


def _degrees(atp: np.ndarray) -> np.ndarray:
    """(S, n) degrees of an (S, n, n) stack of atomic types."""
    return np.count_nonzero(atp == 1, axis=2)


def _wl1_first(grp):
    """deg u: the multiset over v of (color of v, atp(u, v)) pairs the one
    initial color with one 0, deg u ones and n - 1 - deg u twos."""
    return _degrees(_pair_data(grp)), grp.colors.shape[1]


def _marked_first(grp):
    """(atp(u, v), deg v): in the multiset over w of (color of (u, w),
    atp(v, w)), w = u is the one entry with the diagonal color, and the
    others hold the atomic types of v's row without atp(v, u)."""
    atp = _pair_data(grp)
    n = atp.shape[1]
    return (atp * n + _degrees(atp)[:, None, :]).reshape(len(atp), n * n), 3 * n


def _fwl2_first(grp):
    """(atp(u, v), deg u, deg v, |N(u) & N(v)|): these count every
    (atp(u, w), atp(w, v)) of the multiset over w.  The common neighbours
    are (A.A)(u, v), the degrees its diagonal."""
    atp = _pair_data(grp)
    s, n = atp.shape[:2]
    adj = (atp == 1).astype(np.float32)  # exact: counts stay far below 2**24
    common = np.matmul(adj, adj).astype(np.int64)
    deg = np.diagonal(common, axis1=1, axis2=2)
    pair = (atp * n + deg[:, :, None]) * n + deg[:, None, :]
    return (pair * n + common).reshape(s, n * n), 3 * n**3


def _first_round(keys, graphs, colors, data, domain: str) -> list[np.ndarray]:
    """Round-1 ids per graph from the key codes of ``keys``.  The general
    update, with its fresh interner, interns each element's multiset
    (event 2e) and then its token (event 2e + 1), and a new token comes
    with every new multiset; so the element whose key is the k-th new one
    in run order gets the multiset id 2k and the token id 2k + 1."""
    rows = [np.empty((0, 1), np.int64)] * len(graphs)
    offset = 0
    for grp in _size_groups(graphs, colors, domain, data):
        codes, span = keys(grp)
        codes += offset
        offset += span
        for i, c in zip(grp.owner.tolist(), codes):
            rows[i] = c[:, None]
    return [2 * ids + 1 for ids in _first_seen(rows)]


def _row_update(groups, it):
    """Each node's multiset over its row of the pair slice."""
    parts = []
    for grp in groups:
        s, n = grp.colors.shape[:2]
        rows = np.sort(grp.colors, axis=2).reshape(s * n, n)
        parts.append((rows, (grp.owner[:, None] << _POS_SHIFT | np.arange(n)).ravel()))
    return [labels.reshape(grp.colors.shape[:2]) for grp, labels in zip(groups, it.ids(parts))]


# ---------------------------------------------------------------------------
# the update driver


def _size_groups(graphs, colors, domain: str, data=None, spans=(None, None)) -> list[_Group]:
    """The graphs grouped by vertex count, groups in order of first
    appearance; ``colors`` holds one int64 array per graph and ``data``,
    if given, the graphs' static data; ``spans`` is the groups' ``spans``.

    A graph has one length-n slice on the node domain, one n x n slice on
    the pair domain and one per eigenvalue on the spectral domain, where
    its array holds one n*n block per eigenvalue."""
    by_n: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_n.setdefault(g.n, []).append(i)
    groups = []
    for n, members in by_n.items():
        counts = [len(colors[i]) // (n * n) if n else 0 for i in members] if domain == _S else [1] * len(members)
        flat = np.concatenate([colors[i] for i in members])
        owner = np.repeat(np.array(members, np.int64), counts)
        index = np.fromiter(itertools.chain.from_iterable(map(range, counts)), np.int64, len(owner))
        shape = (n,) if domain == _N else (n, n)
        group_data = None if data is None else [data[i] for i in members]
        groups.append(_Group(flat.reshape(len(owner), *shape), owner, index, group_data, spans))
    return groups


def _per_graph(groups, labels, it: _BatchInterner, size: int) -> list[np.ndarray]:
    """Ids of each group's per-slice labels, as one flat array per graph
    in run order; a graph without slices gets an empty one."""
    out = [np.empty(0, np.int64)] * size
    for grp, lab in zip(groups, labels):
        ids = it.rank(lab)
        starts = np.flatnonzero(grp.index == 0).tolist()
        for i, a, b in zip(grp.owner[starts].tolist(), starts, starts[1:] + [len(ids)]):
            out[i] = ids[a:b].ravel()
    return out


def _run_update(update, graphs, colors, data, domain: str, it: _BatchInterner, spans=(None, None)) -> list[np.ndarray]:
    """New color ids per graph, in run order, from one int64 color array
    per graph (``spans`` as in ``_Group``).  Every refinement update runs
    here: ``update`` interns every key of the run into ``it`` first, then
    the labels are ranked into ids."""
    groups = _size_groups(graphs, colors, domain, data, spans)
    return _per_graph(groups, update(groups, it), it, len(graphs))


# ---------------------------------------------------------------------------
# pools: (spec, graphs, colors per graph, batch interner) -> one signature
# id per graph.  Each reduction level is one ids call over the whole run,
# ranked before the next level keys on its ids; a level's keys never meet
# another level's, as each call numbers only its own keys.


def _pool(values, it: _BatchInterner) -> list[int]:
    """The id of each graph's multiset of its int64 ``values`` (its
    signature key); graphs with equally many values share one part."""
    by_len: dict[int, list[int]] = {}
    for i, vals in enumerate(values):
        by_len.setdefault(len(vals), []).append(i)
    members = list(by_len.values())
    parts = [(np.sort(np.stack([values[i] for i in m]), axis=1), np.array(m, np.int64) << _POS_SHIFT) for m in members]
    sigs = [0] * len(values)
    for m, labels in zip(members, it.ids(parts)):
        for i, sig in zip(m, it.rank(labels).tolist()):
            sigs[i] = sig
    return sigs


def _per_graph_across_slices(graphs, groups, values, it: _BatchInterner) -> list[np.ndarray]:
    """``_across_slices`` as one flat array per graph, in run order."""
    out = [np.empty(0, np.int64)] * len(graphs)
    for grp, stack in zip(groups, _across_slices(groups, values, it)):
        for i, ids in zip(grp.owner[grp.index == 0].tolist(), stack):
            out[i] = ids.ravel()
    return out


def _pair_multisets(graphs, colors, it: _BatchInterner) -> list[np.ndarray]:
    """Per graph, the flat n*n ids of each pair's multiset over slices."""
    groups = _size_groups(graphs, colors, _S)
    return _per_graph_across_slices(graphs, groups, [grp.colors for grp in groups], it)


def _pool_joint(spec, graphs, colors, it):
    """The multiset of all domain colors."""
    return _pool(colors, it)


def _pool_rows(spec, graphs, colors, it):
    """Multiset over nodes of the multiset of each node's row."""
    return _pool(_run_update(_row_update, graphs, colors, None, _P, it), it)


def _pool_diag(spec, graphs, colors, it):
    """The multiset of diagonal colors."""
    return _pool([cols[:: g.n + 1] for g, cols in zip(graphs, colors)], it)


def _pool_spe(spec, graphs, colors, it):
    """Row multisets as node colors, refined to joint stability."""
    return _wl_layers(graphs, _run_update(_row_update, graphs, colors, None, _P, it), it, steps=None)


def _pool_pairs(spec, graphs, colors, it):
    """Multiset over pairs of each pair's multiset over slices."""
    return _pool(_pair_multisets(graphs, colors, it), it)


def _pool_pair_rows(spec, graphs, colors, it):
    """Pair multisets over slices, then row multisets, then the node multiset."""
    pairs = _pair_multisets(graphs, colors, it)
    return _pool(_run_update(_row_update, graphs, pairs, None, _P, it), it)


def _pool_basisnet(spec, graphs, colors, it):
    """5-slot per-eigenspace pooling, eigenvalue multiset per node, then
    the configured number of vertex-refinement layers.

    The 5-slot token of node u in a slice holds the color of (u, u), u's
    row and column multisets and the slice's diagonal and whole-slice
    multisets."""
    groups = _size_groups(graphs, colors, _S)
    toks = []
    for grp, (lines, full) in zip(groups, _slice_multisets(_slice_stacks(groups), it)):
        lines, full = it.rank(lines), it.rank(full)
        s, n = grp.colors.shape[:2]
        tok = np.empty((s, n, 5), np.int64)
        tok[..., 0] = np.diagonal(grp.colors, axis1=1, axis2=2)
        tok[..., 1] = lines[:, :n]
        tok[..., 2] = lines[:, n : 2 * n]
        tok[..., 3] = lines[:, 2 * n, None]
        tok[..., 4] = full[:, None]
        pos = grp.owner[:, None] << _POS_SHIFT | grp.index[:, None] * n + np.arange(n)
        toks.append((tok.reshape(s * n, 5), pos.ravel()))
    lam_ids = [it.rank(labels).reshape(grp.colors.shape[:2]) for grp, labels in zip(groups, it.ids(toks))]
    return _wl_layers(graphs, _per_graph_across_slices(graphs, groups, lam_ids, it), it, steps=spec.layers)


def _wl_layers(graphs, node_colors, it: _BatchInterner, steps: Optional[int]) -> list[int]:
    """Vertex-refinement layers over atomic types, joint across the run,
    then the id of each graph's multiset of node colors.

    ``steps=None`` iterates to joint stability; an int applies exactly
    that many layers.  The layers continue the pool's interner, whose
    calls each number only their own keys, and need no lookup into an
    earlier call: every key of a layer holds colors new in the layer
    before (the pool's node colors in the first), so no earlier call
    interned it.
    """
    atps = [_atp_flat(g) for g in graphs]
    limit = steps if steps is not None else sum(g.n for g in graphs) + 1
    prev_count = _classes(np.concatenate([np.empty(0, np.int64), *node_colors]))
    for _ in range(limit):
        # every node color is an id of this interner, and atomic types are 0, 1 or 2
        node_colors = _run_update(_vertex_update, graphs, node_colors, atps, _N, it, (it.base + it.size, 3))
        if steps is None:
            count = _classes(np.concatenate([np.empty(0, np.int64), *node_colors]))
            if count == prev_count:
                break
            prev_count = count
    return _pool(node_colors, it)


# ---------------------------------------------------------------------------
# the variant table


@dataclass(frozen=True)
class _Variant:
    """Everything one refinement variant does, in one record."""

    domain: str  # "nodes", "pairs" or "spectral_pairs"
    params: tuple[_Param, ...]  # what its spec spells after the variant (and init), in order
    quantized: bool  # initial tokens depend on quantized floating-point data
    static: Callable  # (spec, graphs, quant) -> per-graph data
    init: Callable  # (n, data) -> initial tokens as int64 rows
    update: Callable  # (size groups, batch interner) -> labels per group
    pool: Callable  # (spec, graphs, colors per graph, batch interner) -> signature ids
    first_round: Optional[Callable]  # (size group) -> (round-1 key codes, span) from the atomic-type start, or None


_N, _P, _S = "nodes", "pairs", "spectral_pairs"

# keyed by (AlgorithmSpec.variant, AlgorithmSpec.init); the columns are the
# _Variant fields in order
_VARIANTS: dict[tuple[str, str], _Variant] = {
    ("wl1", "const"):             _Variant(_N, (),               False, _atp_static,  _node_init,   _vertex_update,  _pool_joint,     _wl1_first),
    ("epwl", "const"):            _Variant(_N, (_KIND,),         True,  _proj_static, _node_init,   _vertex_update,  _pool_joint,     None),
    ("gdwl", "const"):            _Variant(_N, (_DISTANCE,),     True,  _dist_static, _node_init,   _vertex_update,  _pool_joint,     None),
    ("peg", "const"):             _Variant(_N, (_KIND,),         True,  _proj_static, _node_init,   _peg_update,     _pool_joint,     None),
    ("swl", "const"):             _Variant(_P, (),               False, _atp_static,  _marked_init, _swl_update,     _pool_rows,      _marked_first),
    ("pswl", "const"):            _Variant(_P, (),               False, _atp_static,  _marked_init, _pswl_update,    _pool_rows,      _marked_first),
    ("fwl2", "const"):            _Variant(_P, (),               False, _atp_static,  _data_init,   _fwl2_update,    _pool_joint,     _fwl2_first),
    ("girt", "const"):            _Variant(_P, (_STEPS,),        True,  _girt_static, _data_init,   _girt_update,    _pool_diag,      None),
    ("ign2wl", "const"):          _Variant(_P, (),               False, _no_static,   _pair_init,   _ign_update,     _pool_joint,     None),
    ("ign2wl", "atp"):            _Variant(_P, (),               False, _atp_static,  _data_init,   _ign_update,     _pool_joint,     None),
    ("ign2wl", "proj"):           _Variant(_P, (_KIND,),         True,  _proj_static, _data_init,   _ign_update,     _pool_joint,     None),
    ("spe", "const"):             _Variant(_P, (_KIND,),         True,  _proj_static, _data_init,   _ign_update,     _pool_spe,       None),
    ("spectralign", "const"):     _Variant(_S, (_KIND,),         True,  _eig_static,  _lam_init,    _cross_update,   _pool_pair_rows, None),
    ("siamese", "const"):         _Variant(_S, (_KIND,),         True,  _eig_static,  _lam_init,    _ign_update,     _pool_joint,     None),
    ("weakspectralign", "const"): _Variant(_S, (_KIND,),         True,  _eig_static,  _lam_init,    _ign_update,     _pool_pairs,     None),
    ("basisnet", "const"):        _Variant(_S, (_KIND, _LAYERS), True,  _eig_static,  _mult_init,   _ign_update,     _pool_basisnet,  None),
}

_VARIANT_NAMES = {variant for variant, _ in _VARIANTS}
# variants whose specs spell the initial coloring after the name
_SPELLED_INITS = {variant for variant, init in _VARIANTS if init != "const"}


# ---------------------------------------------------------------------------
# run machinery


_RUN_IDS = itertools.count(1)


@dataclass(frozen=True)
class Signature:
    """Pooled stable-coloring token of one graph inside one run.

    Signatures are only comparable within the run that produced them;
    comparing across runs raises :class:`UsageError`.
    """

    run_id: int
    value: int

    def __eq__(self, other):
        if not isinstance(other, Signature):
            return NotImplemented
        if self.run_id != other.run_id:
            raise UsageError("signatures from different runs are not comparable")
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)


@dataclass(eq=False)
class ColorState:
    """Joint coloring of a run at a fixed iteration.

    ``colors[i]`` holds the color ids of graph i's domain as a flat,
    read-only int64 array; ids are structural across all graphs of the
    run at this iteration.  States compare by identity, since a
    field-by-field ``==`` has no truth value on arrays.
    """

    spec: AlgorithmSpec
    graphs: tuple[Graph, ...]
    colors: tuple[np.ndarray, ...]
    iteration: int
    run_id: int
    stable: bool
    domain: str
    quant: Quantization
    _data: tuple = field(repr=False, default=())  # per-graph static data of the variant
    _sigs: Optional[tuple[int, ...]] = field(repr=False, default=None)
    # set on the state joint_initial_coloring returns; replace() resets it
    _initial: bool = field(repr=False, init=False, default=False)
    # the bounds of the color and static ids that _Group.spans holds; set by
    # joint_initial_coloring and refine_once, and reset by replace(), which
    # may change the colors or data
    _spans: tuple[Optional[int], Optional[int]] = field(repr=False, init=False, default=(None, None))

    def __post_init__(self):
        self.colors = tuple(np.asarray(cols, np.int64) for cols in self.colors)
        for cols in self.colors:
            cols.flags.writeable = False

    def graph_index(self, g: Graph) -> int:
        for i, h in enumerate(self.graphs):
            if h is g:
                return i
        for i, h in enumerate(self.graphs):
            if h == g:
                return i
        raise UsageError("graph does not belong to this run")

    def domain_size(self, i: int) -> int:
        return len(self.colors[i])


def initial_coloring(
    spec: AlgorithmSpec, g: Graph, quant: Quantization = DEFAULT_QUANT
) -> ColorState:
    """Iteration-0 coloring of a single-graph run."""
    return joint_initial_coloring(spec, [g], quant)


def joint_initial_coloring(
    spec: AlgorithmSpec, graphs: Sequence[Graph], quant: Quantization = DEFAULT_QUANT
) -> ColorState:
    """Iteration-0 coloring of a joint run over several graphs."""
    variant = _VARIANTS[spec.variant, spec.init]
    if spec.kind is MatrixKind.NORMALIZED_LAPLACIAN:
        for g in graphs:
            _require_no_isolated(spec, g)
    data = variant.static(spec, graphs, quant)
    ids = _first_seen([variant.init(g.n, d) for g, d in zip(graphs, data)])
    state = ColorState(
        spec=spec,
        graphs=tuple(graphs),
        colors=tuple(ids),
        iteration=0,
        run_id=next(_RUN_IDS),
        stable=False,
        domain=variant.domain,
        quant=quant,
        _data=tuple(data),
    )
    state._initial = True
    # ids from _first_seen are below the number of rows, and atomic types
    # (0, 1, 2) below n * n once a graph has two vertices
    state._spans = (sum(map(len, ids)), sum(len(d) for d in data if isinstance(d, np.ndarray)))
    return state


def refine_once(spec: AlgorithmSpec, state: ColorState) -> ColorState:
    """One synchronous update over the whole joint domain.

    Asserts the monotone-refinement invariant: the new partition must
    refine the old one.  Sets ``stable`` when the joint partition is
    unchanged.  Round 1 of a variant with a ``first_round`` column, from
    the state ``joint_initial_coloring`` returned, numbers that column's
    key rows (``_first_round``) and gives the ids the update would give.
    """
    if spec != state.spec:
        raise UsageError("state was produced by a different algorithm spec")
    variant = _VARIANTS[spec.variant, spec.init]
    args = (state.graphs, state.colors, state._data, state.domain)
    if state._initial and variant.first_round is not None:
        new_ids = _first_round(variant.first_round, *args)
    else:
        new_ids = _run_update(variant.update, *args, _BatchInterner(), state._spans)

    # the new partition refines the old one iff every new color lies in
    # one old color: scatter each element's old color to its new color,
    # and every element must read its own old color back; then nothing
    # changed iff there are as many new colors as old ones
    old = np.concatenate([np.empty(0, np.int64), *state.colors])
    new = np.concatenate([np.empty(0, np.int64), *new_ids])
    owner = np.empty(new.max(initial=-1) + 1, np.int64)
    owner[new] = old
    if not (owner[new] == old).all():
        raise InternalError(
            f"{spec.label()}: update did not refine the partition at iteration {state.iteration + 1}"
        )
    stable = _classes(new) == _classes(old)
    out = ColorState(
        spec=spec,
        graphs=state.graphs,
        colors=tuple(new_ids),
        iteration=state.iteration + 1,
        run_id=state.run_id,
        stable=stable,
        domain=state.domain,
        quant=state.quant,
        _data=state._data,
    )
    out._spans = (len(owner), state._spans[1])
    return out


def _classes(colors: np.ndarray) -> int:
    """The number of distinct colors in a 1-D array of color ids."""
    return int(np.count_nonzero(np.bincount(colors)))


def _rounds(spec: AlgorithmSpec, graphs: Sequence[Graph], quant: Quantization) -> Iterator[ColorState]:
    """Every state of a joint run, round 0 first, up to the first stable one."""
    state = joint_initial_coloring(spec, graphs, quant)
    yield state
    cap = sum(len(cols) for cols in state.colors) + 1
    for _ in range(cap):
        state = refine_once(spec, state)
        yield state
        if state.stable:
            return
    raise InternalError(f"{spec.label()}: no stable partition within the domain-size cap {cap}")


def stable_coloring(
    spec: AlgorithmSpec, graphs: Sequence[Graph], quant: Quantization = DEFAULT_QUANT
) -> ColorState:
    """Joint refinement iterated to the first stable joint partition."""
    for state in _rounds(spec, graphs, quant):
        pass
    return state


def signatures(state: ColorState) -> list[Signature]:
    """Pooled signatures of every graph in the run (cached on the state)."""
    if state._sigs is None:
        spec = state.spec
        pool = _VARIANTS[spec.variant, spec.init].pool
        state._sigs = tuple(pool(spec, state.graphs, state.colors, _BatchInterner()))
    return [Signature(state.run_id, v) for v in state._sigs]


def signature(spec: AlgorithmSpec, g: Graph, state: ColorState) -> Signature:
    """Signature of one graph of the run."""
    if spec != state.spec:
        raise UsageError("state was produced by a different algorithm spec")
    return signatures(state)[state.graph_index(g)]


def distinguishes(
    spec: AlgorithmSpec, g: Graph, h: Graph, quant: Quantization = DEFAULT_QUANT
) -> bool:
    """Whether the algorithm separates g and h in a fresh joint run.

    The run stops at the first round (round 0 included) at which the two
    graphs' color multisets differ, and returns True there; only a pair
    whose multisets agree at every round is refined to stability and
    told apart by its signatures.  The verdict is the one the
    signatures of the stable coloring give:

    * each partition refines the one before and ids are joint across the
      run, so an element's stable color fixes its color at every earlier
      round, and different multisets at round t mean different multisets
      of stable domain colors;
    * every pool's signature fixes the graph's multiset of stable domain
      colors: the joint pool is that multiset; the row, pair, pair-row
      and ``spe`` pools are multisets of parts whose union is it; under
      ``girt`` a stable diagonal color fixes the multiset of its row; and
      every 5-slot ``basisnet`` token holds its whole slice's multiset.

    ``eigenwl compare`` prints the number of iterations to stability, so
    it refines to stability itself.
    """
    for state in _rounds(spec, [g, h], quant):
        # ids are not dense (multiset keys take ids too): count up to the largest
        size = 1 + max(int(cols.max(initial=-1)) for cols in state.colors)
        g_counts, h_counts = (np.bincount(cols, minlength=size) for cols in state.colors)
        if not np.array_equal(g_counts, h_counts):
            return True
    sig = signatures(state)
    return sig[0].value != sig[1].value


# ---------------------------------------------------------------------------
# corpus-level comparison


@dataclass(frozen=True)
class ComparisonReport:
    """Empirical relation between two algorithms on one corpus.

    ``a_refines_b`` means: graphs with equal a-signatures always have
    equal b-signatures (a's partition is at least as fine).  Violating
    pairs are corpus indices.
    """

    spec_a: str
    spec_b: str
    a_refines_b: bool
    b_refines_a: bool
    violations_ab: tuple[tuple[int, int], ...]
    violations_ba: tuple[tuple[int, int], ...]
    buckets_a: int
    buckets_b: int

    @property
    def relation(self) -> str:
        if self.a_refines_b and self.b_refines_a:
            return "equivalent"
        if self.a_refines_b:
            return "a_strictly_finer"
        if self.b_refines_a:
            return "b_strictly_finer"
        return "incomparable"

    @classmethod
    def from_signatures(
        cls, spec_a: str, spec_b: str, sig_a: Sequence[int], sig_b: Sequence[int]
    ) -> "ComparisonReport":
        """Relation between two signature lists over the same corpus."""
        viol_ab = tuple(refinement_violations(sig_a, sig_b))
        viol_ba = tuple(refinement_violations(sig_b, sig_a))
        return cls(
            spec_a=spec_a,
            spec_b=spec_b,
            a_refines_b=not viol_ab,
            b_refines_a=not viol_ba,
            violations_ab=viol_ab,
            violations_ba=viol_ba,
            buckets_a=len(set(sig_a)),
            buckets_b=len(set(sig_b)),
        )


def refinement_violations(
    sig_x: Sequence[int], sig_y: Sequence[int], limit: int = 5
) -> list[tuple[int, int]]:
    """Pairs equal under x but split by y (witnesses that x does not refine y)."""
    groups: dict[int, dict[int, int]] = {}
    out: list[tuple[int, int]] = []
    for i, (sx, sy) in enumerate(zip(sig_x, sig_y)):
        seen = groups.setdefault(sx, {})
        if sy in seen:
            continue
        if seen and len(out) < limit:
            out.append((next(iter(seen.values())), i))
        seen[sy] = i
    return out


def compare_partitions(
    spec_a: AlgorithmSpec,
    spec_b: AlgorithmSpec,
    corpus: Sequence[Graph],
    quant: Quantization = DEFAULT_QUANT,
) -> ComparisonReport:
    """Run both algorithms jointly over the corpus and compare signatures."""
    if not corpus:
        raise UsageError("corpus must be nonempty")
    sig_a = [s.value for s in signatures(stable_coloring(spec_a, corpus, quant))]
    sig_b = [s.value for s in signatures(stable_coloring(spec_b, corpus, quant))]
    return ComparisonReport.from_signatures(spec_a.label(), spec_b.label(), sig_a, sig_b)
