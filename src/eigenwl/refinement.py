"""Generic color refinement engine and the algorithm zoo built on it.

A refinement run is always *joint*: the domains of every graph in the
run are refined together against one shared intern table, so color ids
are structural (equal canonical tokens get equal ids across graphs) and
signatures are comparable within the run.  The run stops at the first
iteration where the joint partition over the union of all domains stops
changing, which realizes the stable-refinement semantics: one further
application of the update changes nothing.

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
``spectral_pairs``), whether the spec needs a matrix kind, whether the
initial tokens are quantized, and the four functions of a run: per-graph
static data, initial tokens, the update, and the pool that reduces the
stable coloring to one signature per graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import exact
from .distances import DistanceKind, distance_tokens
from .graphs import Graph, MatrixKind
from .spectral import DEFAULT_QUANT, Quantization, _walk_powers, decomposition_for, quantized_projections

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
    """Declarative selector for one refinement algorithm and its parameters."""

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
        if row.needs_kind and self.kind not in _ALGO_KINDS:
            raise UsageError(f"{self.variant} requires a matrix kind A, L, or Lhat")
        if self.variant == "gdwl" and self.distance is None:
            raise UsageError("gdwl requires a distance kind")
        # label() omits parameters a variant does not take, so a spec
        # carrying one would not survive parse(label())
        if not row.needs_kind and self.kind is not None:
            raise UsageError(f"{self.variant} takes no matrix kind")
        if self.variant != "gdwl" and self.distance is not None:
            raise UsageError("only gdwl takes a distance kind")
        if self.variant != "basisnet" and self.layers != 1:
            raise UsageError("only basisnet takes a layer count")
        if self.variant != "girt" and self.steps != 16:
            raise UsageError("only girt takes a walk length")
        if self.variant == "basisnet" and self.layers < 0:
            raise UsageError("basisnet layer count must be nonnegative")
        if self.variant == "girt" and self.steps < 1:
            raise UsageError("girt walk length must be at least 1")

    @classmethod
    def parse(cls, text: str) -> "AlgorithmSpec":
        """Parse the text grammar, e.g. 'epwl:Lhat', 'gdwl:rd', 'basisnet:A:layers=1'."""
        parts = text.strip().split(":")
        head = parts[0].lower()
        rest = parts[1:]
        try:
            if head == "wl1" or head == "swl" or head == "pswl" or head == "fwl2":
                if rest:
                    raise UsageError(f"{head} takes no parameters")
                return cls(head)
            if head == "epwl" or head == "spe" or head == "peg":
                return cls(head, kind=_one_kind(head, rest))
            if head in {"sign", "spectralign"}:
                return cls("spectralign", kind=_one_kind(head, rest))
            if head in {"siamese", "siameseign"}:
                return cls("siamese", kind=_one_kind(head, rest))
            if head in {"wsign", "weakspectralign"}:
                return cls("weakspectralign", kind=_one_kind(head, rest))
            if head == "basisnet":
                if not rest:
                    raise UsageError("basisnet requires a matrix kind")
                layers = 1
                if len(rest) == 2:
                    if not rest[1].lower().startswith("layers="):
                        raise UsageError("basisnet parameter must be layers=<int>")
                    layers = int(rest[1].split("=", 1)[1])
                elif len(rest) > 2:
                    raise UsageError("too many basisnet parameters")
                return cls("basisnet", kind=MatrixKind.parse(rest[0]), layers=layers)
            if head == "girt":
                steps = 16
                if rest:
                    if len(rest) > 1 or not rest[0].lower().startswith("k="):
                        raise UsageError("girt parameter must be K=<int>")
                    steps = int(rest[0].split("=", 1)[1])
                return cls("girt", steps=steps)
            if head == "ign2wl":
                if not rest:
                    return cls("ign2wl", init="const")
                init = rest[0].lower()
                if init == "proj":
                    return cls("ign2wl", init="proj", kind=_one_kind(head, rest[1:]))
                if len(rest) > 1:
                    raise UsageError("too many ign2wl parameters")
                return cls("ign2wl", init=init)
            if head == "gdwl":
                return cls("gdwl", distance=DistanceKind.parse(":".join(rest)))
            # bare distance specs are accepted as gdwl shorthand
            return cls("gdwl", distance=DistanceKind.parse(text))
        except UsageError:
            raise
        except ValueError as exc:
            raise UsageError(f"bad algorithm spec {text!r}: {exc}") from None

    @property
    def quantization_sensitive(self) -> bool:
        """Whether initial tokens depend on quantized floating-point data."""
        return _VARIANTS[self.variant, self.init].quantized

    def label(self) -> str:
        if self.variant == "gdwl":
            return f"gdwl:{self.distance.label()}"
        if self.variant == "girt":
            return f"girt:K={self.steps}"
        if self.variant == "basisnet":
            return f"basisnet:{self.kind.value}:layers={self.layers}"
        if self.variant == "ign2wl":
            if self.init == "proj":
                return f"ign2wl:proj:{self.kind.value}"
            return f"ign2wl:{self.init}"
        if self.kind is not None:
            return f"{self.variant}:{self.kind.value}"
        return self.variant


def _one_kind(head: str, rest: list[str]) -> MatrixKind:
    if len(rest) != 1:
        raise UsageError(f"{head} requires exactly one matrix kind parameter")
    kind = MatrixKind.parse(rest[0])
    if kind not in _ALGO_KINDS:
        raise UsageError(f"{head} supports matrix kinds A, L, Lhat only")
    return kind


# ---------------------------------------------------------------------------
# interning


class _Interner:
    """Append-only bijection between canonical tokens and dense int ids.

    Keys are tagged with a small role int so that equal payloads from
    different token universes can never share an id.
    """

    __slots__ = ("table",)

    INIT, MS, TOK, POOL, STATIC = range(5)

    def __init__(self):
        self.table: dict = {}

    def id(self, role: int, key) -> int:
        table = self.table
        k = (role, key)
        val = table.get(k)
        if val is None:
            val = len(table)
            table[k] = val
        return val

    def __len__(self):
        return len(self.table)


class _BatchInterner:
    """The ids an ``_Interner`` would give, for whole arrays of rows
    interned out of event order.

    ``ids`` gives each distinct key a label and keeps the earliest event
    position it was seen at; ``rank`` turns labels into the ids that
    ``_Interner.id`` calls in event order would have given, since such an
    id counts the distinct keys seen first before it.  Roles are the
    ``_Interner`` ones.
    """

    __slots__ = ("table", "first", "ranked_ids", "ranked")

    def __init__(self):
        self.table: dict = {}
        self.first = np.empty(0, np.int64)  # per label: earliest event position
        self.ranked_ids = np.empty(0, np.int64)  # per label: its id, once ranked
        self.ranked = 0  # labels below this are ranked

    def ids(self, role: int, rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Labels of the rows of a 2-D int64 array, one row per event.

        Rows come in event order and ``pos[i]`` is the event position of
        row i.  The distinct rows are found first (``_unique_rows``); the
        table is then asked once per distinct row, keyed by the row's bytes
        behind the role, and only rows it has not seen get new labels.
        """
        count, width = rows.shape
        if not count:
            return np.empty(0, np.int64)
        at, inverse = _unique_rows(rows)
        tagged = np.empty((len(at), width + 1), np.int64)
        tagged[:, 0] = role
        tagged[:, 1:] = rows[at]
        keys = tagged.view(np.dtype((np.void, tagged.itemsize * (width + 1)))).ravel().tolist()
        table = self.table
        size = len(table)
        # unseen keys are stored with size + their index; renumber them densely
        labels = np.fromiter(map(table.setdefault, keys, itertools.count(size)), np.int64, len(keys))
        unseen = labels >= size
        added = int(np.count_nonzero(unseen))
        if added and added < len(keys):
            labels[unseen] = np.arange(size, size + added)
            table.update(zip(itertools.compress(keys, unseen.tolist()), range(size, size + added)))
        if size + added > len(self.first):
            grow = max(size + added, 2 * len(self.first)) - len(self.first)
            self.first = np.concatenate([self.first, np.full(grow, np.iinfo(np.int64).max)])
            self.ranked_ids = np.concatenate([self.ranked_ids, np.zeros(grow, np.int64)])
        self.first[labels] = np.minimum(self.first[labels], pos[at])
        return labels[inverse]

    def rank(self, labels: np.ndarray) -> np.ndarray:
        """Ids of labels from ``ids``.  The labels interned since the last
        call get the next ids, in the order of their earliest events, so
        every event interned after a call must come after every event
        interned before it."""
        fresh = np.arange(self.ranked, len(self.table))
        order = np.argsort(self.first[fresh])
        self.ranked_ids[fresh[order]] = fresh
        self.ranked = len(self.table)
        return self.ranked_ids[labels]


# odd 64-bit base of the row hash in _unique_rows: the dot product of a row
# with (B, B**2, B**3, ...), wrapping modulo 2**64
_HASH_BASE = np.uint64(0x9E3779B97F4A7C15)


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first index of each distinct row, distinct-row index of each row).

    Rows are hashed to one 64-bit word each and the words are sorted; if
    two different rows share a word, ``np.unique`` runs on the whole rows
    instead.
    """
    count, width = rows.shape
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    words = rows.view(np.uint64) @ (_HASH_BASE ** np.arange(1, width + 1, dtype=np.uint64))
    order = np.argsort(words, kind="stable")
    ordered = words[order]
    starts = np.empty(count, bool)
    starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    inverse = np.empty(count, np.intp)
    inverse[order] = np.cumsum(starts) - 1
    at = order[starts]  # the sort is stable: each group's first row
    if not (rows[at[inverse]] == rows).all():
        _, at, inverse = np.unique(
            rows.view(np.dtype((np.void, 8 * width))).ravel(), return_index=True, return_inverse=True
        )
    return at, inverse


# ---------------------------------------------------------------------------
# per-graph static data: (spec, graph, quant, static interner) -> data


def _atp_flat(g: Graph) -> list[int]:
    """Flat n*n atomic types: 0 on the diagonal, 1 for edges, 2 otherwise."""
    n = g.n
    out = [2] * (n * n)
    for u in range(n):
        out[u * n + u] = 0
        row = g.rows[u]
        while row:
            low = row & -row
            out[u * n + (low.bit_length() - 1)] = 1
            row ^= low
    return out


def _proj_static(spec, g, quant, static):
    """Flat n*n static ids of the projection pair invariants."""
    kind = spec.kind
    lams, entries = quantized_projections(g, kind, quant)
    n = g.n
    out = [0] * (n * n)
    for u in range(n):
        for v in range(n):
            rec = ";".join(sorted(f"{lam}:{ent[u][v]}" for lam, ent in zip(lams, entries)))
            out[u * n + v] = static.id(_Interner.STATIC, (kind.value, rec))
    return out


def _require_no_isolated(spec: AlgorithmSpec, g: Graph):
    if g.has_isolated:
        raise UsageError(f"{spec.label()} is undefined on graphs with isolated vertices")


def _no_static(spec, g, quant, static):
    return None


def _atp_static(spec, g, quant, static):
    return _atp_flat(g)


def _dist_static(spec, g, quant, static):
    """Flat n*n static ids of the distance tokens."""
    if spec.distance.name in {"prd", "diffusion"}:
        _require_no_isolated(spec, g)
    return [static.id(_Interner.STATIC, tok) for tok in distance_tokens(g, spec.distance, quant)]


def _girt_static(spec, g, quant, static):
    _require_no_isolated(spec, g)
    return _girt_init(g, spec.steps, quant)


def _eig_static(spec, g, quant, static):
    """(quantized eigenvalues, multiplicities, per-eigenvalue flat n*n
    static ids of the projection entries)."""
    lams, entries = quantized_projections(g, spec.kind, quant)
    mults = decomposition_for(g, spec.kind, quant).multiplicities
    n = g.n
    slices = [
        [static.id(_Interner.STATIC, ent[u][v]) for u in range(n) for v in range(n)]
        for ent in entries
    ]
    return lams, mults, slices


def _girt_init(g: Graph, steps: int, quant: Quantization) -> list:
    """Initial pair tokens: the multi-step landing-probability vector.

    Walk powers are exact rationals; their decimal expansions routinely
    end in a tie digit, so rounding must not be left to float noise.
    """
    scale, powers = _walk_powers(g, steps)
    dens = [scale**k for k in range(steps + 1)]
    n = g.n
    return [
        tuple(exact.round_ratio(p[u][v], d, quant.digits) for p, d in zip(powers, dens))
        for u in range(n)
        for v in range(n)
    ]


# ---------------------------------------------------------------------------
# initial tokens: (n, per-graph data) -> one token per domain element


def _node_init(n, data):
    return [("node-init",)] * n


def _pair_init(n, data):
    return [("pair-init",)] * (n * n)


def _marked_init(n, data):
    """Node-marked pairs: the diagonal against everything else."""
    return [1 if u == v else 0 for u in range(n) for v in range(n)]


def _data_init(n, data):
    return list(data)


def _lam_init(n, data):
    lams, _, slices = data
    return [(lam, sid) for lam, ids in zip(lams, slices) for sid in ids]


def _mult_init(n, data):
    _, mults, slices = data
    return [(mult, sid) for mult, ids in zip(mults, slices) for sid in ids]


# ---------------------------------------------------------------------------
# per-graph Python updates: (n, per-graph data, colors, interner) -> new
# color ids, called graph by graph in run order


def _vertex_update(n, data, colors, it):
    """Own color plus the multiset of (neighbor color, pair data)."""
    ms = it.id
    MS, TOK = _Interner.MS, _Interner.TOK
    out = []
    for u in range(n):
        base = u * n
        bag = tuple(sorted((colors[v], data[base + v]) for v in range(n)))
        out.append(ms(TOK, (colors[u], ms(MS, bag))))
    return out


def _peg_update(n, data, colors, it):
    ms = it.id
    MS, TOK = _Interner.MS, _Interner.TOK
    out = []
    diag = [data[v * n + v] for v in range(n)]
    for u in range(n):
        base = u * n
        duu = diag[u]
        bag = tuple(sorted((colors[v], duu, diag[v], data[base + v]) for v in range(n)))
        out.append(ms(TOK, (ms(MS, bag),)))
    return out


def _girt_update(n, data, colors, it):
    ms = it.id
    MS, TOK = _Interner.MS, _Interner.TOK
    out = []
    diag = [colors[v * n + v] for v in range(n)]
    for u in range(n):
        base = u * n
        for v in range(n):
            if u == v:
                bag = tuple(sorted(zip(colors[base : base + n], diag)))
                out.append(ms(TOK, (diag[u], ms(MS, bag))))
            else:
                out.append(ms(TOK, (colors[base + v], diag[u], diag[v])))
    return out


# ---------------------------------------------------------------------------
# numpy pair updates: (size groups, batch interner) -> labels per group.
#
# An update sees all graphs of the run at once, grouped by vertex count.
# Every key it interns is one event of the per-element order that the
# run's ids follow (graph by graph, element by element, multiset before
# token); an event's position is its graph's run index shifted left by
# _POS_SHIFT plus its place in that graph's event list.


_POS_SHIFT = 40


class _Group(NamedTuple):
    """The graphs of a run that share one vertex count n."""

    colors: np.ndarray  # (S, n, n) color slices of the graphs, in run order
    owner: np.ndarray  # (S,) run index of each slice's graph
    index: np.ndarray  # (S,) index of each slice within its graph
    data: list  # per-graph static data of the graphs, in run order


def _multiset_update(grp: _Group, left, right, extra, it: _BatchInterner) -> np.ndarray:
    """Per pair e: the multiset of ``left << 32 | right`` over the last
    axis (event 2e), then the token (own color, *extra, multiset) (event
    2e + 1).  Colors and atomic types stay below 2**31, so the packed
    values sort like the pairs they encode."""
    colors = grp.colors
    s, n = colors.shape[:2]
    bags = np.sort(left << 32 | right, axis=-1).reshape(s * n * n, n)
    pos = (grp.owner[:, None] << _POS_SHIFT | np.arange(0, 2 * n * n, 2)).ravel()
    ms = it.ids(_Interner.MS, bags, pos)
    tok = np.stack([colors.ravel(), *(np.ravel(x) for x in extra), ms], axis=1)
    return it.ids(_Interner.TOK, tok, pos + 1).reshape(colors.shape)


def _swl_update(groups, it):
    """Own color plus the multiset over w of (color of (u, w), atomic type of (v, w))."""
    out = []
    for grp in groups:
        c = grp.colors
        atp = np.array(grp.data, np.int64).reshape(c.shape)
        out.append(_multiset_update(grp, c[:, :, None, :], atp[:, None, :, :], (), it))
    return out


def _pswl_update(groups, it):
    """The ``swl`` token with the color of (v, v) added."""
    out = []
    for grp in groups:
        c = grp.colors
        atp = np.array(grp.data, np.int64).reshape(c.shape)
        diag_v = np.broadcast_to(np.diagonal(c, axis1=1, axis2=2)[:, None, :], c.shape)
        out.append(_multiset_update(grp, c[:, :, None, :], atp[:, None, :, :], (diag_v,), it))
    return out


def _fwl2_update(groups, it):
    """Own color plus the multiset over w of (color of (u, w), color of (w, v))."""
    out = []
    for grp in groups:
        c = grp.colors
        out.append(_multiset_update(grp, c[:, :, None, :], c.transpose(0, 2, 1)[:, None, :, :], (), it))
    return out


def _ign_events(n: int) -> int:
    """Events of the 15-slot update of one n x n slice."""
    return n * n + 2 * n + 2


def _ign_slices(colors: np.ndarray, base: np.ndarray, it: _BatchInterner) -> np.ndarray:
    """The 15-slot equivariant pair update of a stack of n x n color
    slices.  Slice i's events start at position base[i]: its n row, n
    column, diagonal and whole-slice multisets, then one token per pair,
    row-major.

    The token of pair (u, v) holds c(u,v), c(u,u), c(v,v), c(v,u), the
    row and column multisets of u and of v, and the diagonal and
    whole-slice multisets; on the diagonal it repeats c(u,u), u's row and
    column and the two slice multisets in five gated slots, which are
    absent elsewhere.  Two tokens are equal iff they agree on the ten
    ungated slots and on being diagonal, so a token is interned as those,
    packed two to a word (ids stay below 2**31), plus a diagonal flag.
    """
    s, n = colors.shape[:2]
    MS = _Interner.MS
    diag = np.diagonal(colors, axis1=1, axis2=2)
    bags = np.concatenate(
        [np.sort(colors, axis=2), np.sort(colors.transpose(0, 2, 1), axis=2), np.sort(diag, axis=1)[:, None, :]],
        axis=1,
    )
    ms = it.ids(MS, bags.reshape(s * (2 * n + 1), n), (base[:, None] + np.arange(2 * n + 1)).ravel())
    ms = ms.reshape(s, 2 * n + 1)
    full = it.ids(MS, np.sort(colors.reshape(s, n * n), axis=1), base + 2 * n + 1)
    lines = ms[:, :n] << 32 | ms[:, n : 2 * n]  # row and column multiset of each vertex
    tok = np.empty((s, n, n, 6), np.int64)
    tok[..., 0] = colors << 32 | colors.transpose(0, 2, 1)
    tok[..., 1] = diag[:, :, None] << 32 | diag[:, None, :]
    tok[..., 2] = lines[:, :, None]
    tok[..., 3] = lines[:, None, :]
    tok[..., 4] = (ms[:, 2 * n] << 32 | full)[:, None, None]
    tok[..., 5] = np.eye(n, dtype=np.int64)
    tok = tok.reshape(s * n * n, 6)
    pos = (base[:, None] + (2 * n + 2) + np.arange(n * n)).ravel()
    return it.ids(_Interner.TOK, tok, pos).reshape(colors.shape)


def _ign_update(groups, it):
    """The 15-slot update of every slice on its own: one slice per graph
    on the pair domain, one per eigenvalue on the spectral one."""
    out = []
    for grp in groups:
        base = grp.owner << _POS_SHIFT | grp.index * _ign_events(grp.colors.shape[1])
        out.append(_ign_slices(grp.colors, base, it))
    return out


def _cross_update(groups, it):
    """Per-slice 15-slot update paired with the 15-slot update of the pair
    multisets over slices (cross-eigenspace aggregation).

    A graph with k slices has the events of its k slice updates, then its
    n*n pair multisets, the 15-slot update over them and k*n*n pair
    tokens.  The pair multiset ids act as colors in the second update,
    where they meet slice colors in the same keys, so they must be final
    ids: the graphs are updated one at a time in run order, and the pair
    multisets are ranked before the second update.
    """
    MS, TOK = _Interner.MS, _Interner.TOK
    out = [np.empty_like(grp.colors) for grp in groups]
    runs = sorted((i, g) for g, grp in enumerate(groups) for i in np.unique(grp.owner).tolist())
    for i, g in runs:
        own = groups[g].owner == i
        colors = groups[g].colors[own]
        k, n = colors.shape[:2]
        nn, events = n * n, _ign_events(n)
        start = i << _POS_SHIFT
        per_slice = _ign_slices(colors, start + events * np.arange(k), it)
        start += k * events
        sp = it.ids(MS, np.sort(colors.reshape(k, nn).T, axis=1), start + np.arange(nn))
        cross = _ign_slices(it.rank(sp).reshape(1, n, n), np.array([start + nn]), it)
        pairs = np.stack([per_slice.ravel(), np.tile(cross.ravel(), k)], axis=1)
        pos = start + nn + events + np.arange(k * nn)
        out[g][own] = it.ids(TOK, pairs, pos).reshape(k, n, n)
    return out


# ---------------------------------------------------------------------------
# update drivers: state -> new color ids per graph, in run order; each
# driver interns into a fresh table of its own


def _per_graph(update):
    def run(state):
        it = _Interner()
        return [
            np.array(update(g.n, d, list(cols), it), np.int64)
            for g, d, cols in zip(state.graphs, state._data, state.colors)
        ]

    return run


def _batched(update):
    def run(state):
        it = _BatchInterner()
        groups = _size_groups(state)
        out = [np.empty(0, np.int64)] * len(state.graphs)
        for grp, labels in zip(groups, update(groups, it)):
            ids = it.rank(labels)  # the update has interned everything by now
            for i in np.unique(grp.owner).tolist():
                out[i] = ids[grp.owner == i].ravel()
        return out

    return run


def _size_groups(state: ColorState) -> list[_Group]:
    """The run's graphs grouped by vertex count, groups in order of first
    appearance.  A graph has one n x n slice on the pair domain and one
    per eigenvalue on the spectral domain."""
    by_n: dict[int, list[int]] = {}
    for i, g in enumerate(state.graphs):
        by_n.setdefault(g.n, []).append(i)
    groups = []
    for n, members in by_n.items():
        data = [state._data[i] for i in members]
        # spectral data is (eigenvalues, multiplicities, per-eigenvalue slices)
        counts = [len(d[2]) if state.domain == _S else 1 for d in data]
        colors = np.fromiter(itertools.chain.from_iterable(state.colors[i] for i in members), np.int64)
        groups.append(
            _Group(
                colors.reshape(sum(counts), n, n),
                np.repeat(np.array(members, np.int64), counts),
                np.concatenate([np.arange(k, dtype=np.int64) for k in counts]),
                data,
            )
        )
    return groups


# ---------------------------------------------------------------------------
# pools: (spec, graphs, colors per graph, interner) -> one signature id per
# graph.  A pool interns one graph's reductions and its POOL id before it
# starts the next graph, unless it refines node colors jointly first.


def _pool_joint(spec, graphs, colors_list, it):
    """The multiset of all domain colors."""
    return [it.id(_Interner.POOL, tuple(sorted(cols))) for cols in colors_list]


def _pool_rows(spec, graphs, colors_list, it):
    """Multiset over nodes of the multiset of each node's row."""
    ms = it.id
    MS, POOL = _Interner.MS, _Interner.POOL
    out = []
    for g, cols in zip(graphs, colors_list):
        n = g.n
        per_node = [ms(MS, tuple(sorted(cols[u * n : (u + 1) * n]))) for u in range(n)]
        out.append(ms(POOL, tuple(sorted(per_node))))
    return out


def _pool_diag(spec, graphs, colors_list, it):
    """The multiset of diagonal colors."""
    out = []
    for g, cols in zip(graphs, colors_list):
        n = g.n
        out.append(it.id(_Interner.POOL, tuple(sorted(cols[u * n + u] for u in range(n)))))
    return out


def _pool_spe(spec, graphs, colors_list, it):
    """Row multisets as node colors, refined to joint stability."""
    ms = it.id
    MS, POOL = _Interner.MS, _Interner.POOL
    node_colors = []
    for g, cols in zip(graphs, colors_list):
        n = g.n
        node_colors.append([ms(MS, tuple(sorted(cols[u * n : (u + 1) * n]))) for u in range(n)])
    node_colors = _wl_layers(graphs, node_colors, it, steps=None)
    return [ms(POOL, tuple(sorted(cols))) for cols in node_colors]


def _pool_pairs(spec, graphs, colors_list, it):
    """Multiset over pairs of each pair's multiset over slices."""
    ms = it.id
    MS, POOL = _Interner.MS, _Interner.POOL
    out = []
    for g, cols in zip(graphs, colors_list):
        nn = g.n * g.n
        per_pair = [ms(MS, tuple(sorted(cols[p::nn]))) for p in range(nn)]
        out.append(ms(POOL, tuple(sorted(per_pair))))
    return out


def _pool_pair_rows(spec, graphs, colors_list, it):
    """Pair multisets over slices, then row multisets, then the node multiset."""
    ms = it.id
    MS, POOL = _Interner.MS, _Interner.POOL
    out = []
    for g, cols in zip(graphs, colors_list):
        n = g.n
        nn = n * n
        per_pair = [ms(MS, tuple(sorted(cols[p::nn]))) for p in range(nn)]
        per_node = [ms(MS, tuple(sorted(per_pair[u * n : (u + 1) * n]))) for u in range(n)]
        out.append(ms(POOL, tuple(sorted(per_node))))
    return out


def _pool_basisnet(spec, graphs, colors_list, it):
    """5-slot per-eigenspace pooling, eigenvalue multiset per node, then
    the configured number of vertex-refinement layers."""
    ms = it.id
    MS, POOL = _Interner.MS, _Interner.POOL
    node_colors = []
    for g, cols in zip(graphs, colors_list):
        n = g.n
        nn = n * n
        per_node = []
        for u in range(n):
            lam_ids = []
            for i in range(0, len(cols), nn):
                sl = cols[i : i + nn]
                row = ms(MS, tuple(sorted(sl[u * n : (u + 1) * n])))
                col = ms(MS, tuple(sorted(sl[u::n])))
                diag = ms(MS, tuple(sorted(sl[w * n + w] for w in range(n))))
                full = ms(MS, tuple(sorted(sl)))
                lam_ids.append(ms(MS, (sl[u * n + u], row, col, diag, full)))
            per_node.append(ms(MS, tuple(sorted(lam_ids))))
        node_colors.append(per_node)
    node_colors = _wl_layers(graphs, node_colors, it, steps=spec.layers)
    return [ms(POOL, tuple(sorted(cols))) for cols in node_colors]


def _wl_layers(graphs, node_colors, it: _Interner, steps: Optional[int]) -> list[list[int]]:
    """Vertex-refinement layers over atomic types, joint across the run.

    ``steps=None`` iterates to joint stability; an int applies exactly
    that many layers.  Used inside pooling stages.
    """
    atps = [_atp_flat(g) for g in graphs]
    limit = steps if steps is not None else sum(g.n for g in graphs) + 1
    prev_count = len({c for cols in node_colors for c in cols})
    for _ in range(limit):
        node_colors = [
            _vertex_update(g.n, atp, cols, it) for g, atp, cols in zip(graphs, atps, node_colors)
        ]
        if steps is None:
            count = len({c for cols in node_colors for c in cols})
            if count == prev_count:
                break
            prev_count = count
    return node_colors


# ---------------------------------------------------------------------------
# the variant table


@dataclass(frozen=True)
class _Variant:
    """Everything one refinement variant does, in one record."""

    domain: str  # "nodes", "pairs" or "spectral_pairs"
    needs_kind: bool  # the spec must carry a matrix kind A, L or Lhat
    quantized: bool  # initial tokens depend on quantized floating-point data
    static: Callable  # (spec, graph, quant, static interner) -> per-graph data
    init: Callable  # (n, data) -> initial tokens
    update: Callable  # state -> new color ids per graph
    pool: Callable  # (spec, graphs, colors per graph, interner) -> signature ids


_N, _P, _S = "nodes", "pairs", "spectral_pairs"

# keyed by (AlgorithmSpec.variant, AlgorithmSpec.init); the columns are the
# _Variant fields in order
_VARIANTS: dict[tuple[str, str], _Variant] = {
    ("wl1", "const"):             _Variant(_N, False, False, _atp_static,  _node_init,   _per_graph(_vertex_update),  _pool_joint),
    ("epwl", "const"):            _Variant(_N, True,  True,  _proj_static, _node_init,   _per_graph(_vertex_update),  _pool_joint),
    ("gdwl", "const"):            _Variant(_N, False, True,  _dist_static, _node_init,   _per_graph(_vertex_update),  _pool_joint),
    ("peg", "const"):             _Variant(_N, True,  True,  _proj_static, _node_init,   _per_graph(_peg_update),     _pool_joint),
    ("swl", "const"):             _Variant(_P, False, False, _atp_static,  _marked_init, _batched(_swl_update),       _pool_rows),
    ("pswl", "const"):            _Variant(_P, False, False, _atp_static,  _marked_init, _batched(_pswl_update),      _pool_rows),
    ("fwl2", "const"):            _Variant(_P, False, False, _atp_static,  _data_init,   _batched(_fwl2_update),      _pool_joint),
    ("girt", "const"):            _Variant(_P, False, True,  _girt_static, _data_init,   _per_graph(_girt_update),    _pool_diag),
    ("ign2wl", "const"):          _Variant(_P, False, False, _no_static,   _pair_init,   _batched(_ign_update),       _pool_joint),
    ("ign2wl", "atp"):            _Variant(_P, False, False, _atp_static,  _data_init,   _batched(_ign_update),       _pool_joint),
    ("ign2wl", "proj"):           _Variant(_P, True,  True,  _proj_static, _data_init,   _batched(_ign_update),       _pool_joint),
    ("spe", "const"):             _Variant(_P, True,  True,  _proj_static, _data_init,   _batched(_ign_update),       _pool_spe),
    ("spectralign", "const"):     _Variant(_S, True,  True,  _eig_static,  _lam_init,    _batched(_cross_update),     _pool_pair_rows),
    ("siamese", "const"):         _Variant(_S, True,  True,  _eig_static,  _lam_init,    _batched(_ign_update),       _pool_joint),
    ("weakspectralign", "const"): _Variant(_S, True,  True,  _eig_static,  _lam_init,    _batched(_ign_update),       _pool_pairs),
    ("basisnet", "const"):        _Variant(_S, True,  True,  _eig_static,  _mult_init,   _batched(_ign_update),       _pool_basisnet),
}


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

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self):
        return hash(self.value)


@dataclass
class ColorState:
    """Joint coloring of a run at a fixed iteration.

    ``colors[i]`` is the flat color-id list of graph i's domain; ids are
    structural across all graphs of the run at this iteration.
    """

    spec: AlgorithmSpec
    graphs: tuple[Graph, ...]
    colors: tuple[tuple[int, ...], ...]
    iteration: int
    run_id: int
    stable: bool
    domain: str
    quant: Quantization
    _data: tuple = field(repr=False, default=())  # per-graph static data of the variant
    _sigs: Optional[tuple[int, ...]] = field(repr=False, default=None)

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
    static = _Interner()
    data = []
    for g in graphs:
        if variant.needs_kind and spec.kind is MatrixKind.NORMALIZED_LAPLACIAN:
            _require_no_isolated(spec, g)
        data.append(variant.static(spec, g, quant, static))
    table = _Interner()
    colors = []
    for g, d in zip(graphs, data):
        colors.append(tuple(table.id(_Interner.INIT, t) for t in variant.init(g.n, d)))
    return ColorState(
        spec=spec,
        graphs=tuple(graphs),
        colors=tuple(colors),
        iteration=0,
        run_id=next(_RUN_IDS),
        stable=False,
        domain=variant.domain,
        quant=quant,
        _data=tuple(data),
    )


def refine_once(spec: AlgorithmSpec, state: ColorState) -> ColorState:
    """One synchronous update over the whole joint domain.

    Asserts the monotone-refinement invariant: the new partition must
    refine the old one.  Sets ``stable`` when the joint partition is
    unchanged.
    """
    if spec != state.spec:
        raise UsageError("state was produced by a different algorithm spec")
    new_ids = _VARIANTS[spec.variant, spec.init].update(state)

    # the distinct (old, new) pairs: the new partition refines the old one
    # iff there are no more of them than new colors, and nothing changed
    # iff there are no more of them than old colors
    old = np.fromiter(itertools.chain.from_iterable(state.colors), np.int64)
    new = np.concatenate([np.empty(0, np.int64), *new_ids])
    pairs = _distinct(old << 32 | new)
    if pairs != _distinct(new):
        raise InternalError(
            f"{spec.label()}: update did not refine the partition at iteration {state.iteration + 1}"
        )
    stable = pairs == _distinct(old)
    return ColorState(
        spec=spec,
        graphs=state.graphs,
        colors=tuple(tuple(ids.tolist()) for ids in new_ids),
        iteration=state.iteration + 1,
        run_id=state.run_id,
        stable=stable,
        domain=state.domain,
        quant=state.quant,
        _data=state._data,
    )


def _distinct(values: np.ndarray) -> int:
    ordered = np.sort(values)
    return int(ordered.size and 1 + np.count_nonzero(ordered[1:] != ordered[:-1]))


def stable_coloring(
    spec: AlgorithmSpec, graphs: Sequence[Graph], quant: Quantization = DEFAULT_QUANT
) -> ColorState:
    """Joint refinement iterated to the first stable joint partition."""
    state = joint_initial_coloring(spec, graphs, quant)
    cap = sum(len(cols) for cols in state.colors) + 1
    for _ in range(cap):
        state = refine_once(spec, state)
        if state.stable:
            return state
    raise InternalError(f"{spec.label()}: no stable partition within the domain-size cap {cap}")


def signatures(state: ColorState) -> list[Signature]:
    """Pooled signatures of every graph in the run (cached on the state)."""
    if state._sigs is None:
        spec = state.spec
        pool = _VARIANTS[spec.variant, spec.init].pool
        state._sigs = tuple(pool(spec, state.graphs, [list(c) for c in state.colors], _Interner()))
    return [Signature(state.run_id, v) for v in state._sigs]


def signature(spec: AlgorithmSpec, g: Graph, state: ColorState) -> Signature:
    """Signature of one graph of the run."""
    if spec != state.spec:
        raise UsageError("state was produced by a different algorithm spec")
    return signatures(state)[state.graph_index(g)]


def distinguishes(
    spec: AlgorithmSpec, g: Graph, h: Graph, quant: Quantization = DEFAULT_QUANT
) -> bool:
    """Whether the algorithm separates g and h in a fresh joint run."""
    state = stable_coloring(spec, [g, h], quant)
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
