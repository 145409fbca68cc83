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
from typing import Callable, Optional, Sequence

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

_ABSENT = -1  # off-diagonal marker in the 15-slot update; real ids are >= 0


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
# updates: (n, per-graph data, colors, interner) -> new color ids


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


def _swl_update(n, atp, colors, it):
    ms = it.id
    MS, TOK = _Interner.MS, _Interner.TOK
    out = []
    for u in range(n):
        base = u * n
        row = colors[base : base + n]
        for v in range(n):
            vbase = v * n
            bag = tuple(sorted(zip(row, atp[vbase : vbase + n])))
            out.append(ms(TOK, (colors[base + v], ms(MS, bag))))
    return out


def _pswl_update(n, atp, colors, it):
    ms = it.id
    MS, TOK = _Interner.MS, _Interner.TOK
    out = []
    diag = [colors[v * n + v] for v in range(n)]
    for u in range(n):
        base = u * n
        row = colors[base : base + n]
        for v in range(n):
            vbase = v * n
            bag = tuple(sorted(zip(row, atp[vbase : vbase + n])))
            out.append(ms(TOK, (colors[base + v], diag[v], ms(MS, bag))))
    return out


def _fwl2_update(n, data, colors, it):
    ms = it.id
    MS, TOK = _Interner.MS, _Interner.TOK
    out = []
    for u in range(n):
        base = u * n
        row = colors[base : base + n]
        for v in range(n):
            bag = tuple(sorted(zip(row, colors[v::n])))
            out.append(ms(TOK, (colors[base + v], ms(MS, bag))))
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


def _ign_update(n, data, colors, it):
    """The 15-slot equivariant pair update."""
    ms = it.id
    TOK = _Interner.TOK
    return [ms(TOK, t) for t in _ign_slice_tokens(n, colors, it)]


def _ign_slice_tokens(n: int, colors: Sequence[int], it: _Interner) -> list[tuple]:
    """The 15 aggregation slots of the equivariant pair update for one
    n x n color slice (flat row-major).  Diagonal-gated slots carry the
    absent marker off the diagonal."""
    ms = it.id
    MS = _Interner.MS
    rows_ms = [ms(MS, tuple(sorted(colors[u * n : (u + 1) * n]))) for u in range(n)]
    cols_ms = [ms(MS, tuple(sorted(colors[v::n]))) for v in range(n)]
    diag_ms = ms(MS, tuple(sorted(colors[u * n + u] for u in range(n))))
    all_ms = ms(MS, tuple(sorted(colors)))
    out = []
    for u in range(n):
        base = u * n
        c_uu = colors[base + u]
        row_u = rows_ms[u]
        col_u = cols_ms[u]
        for v in range(n):
            c_uv = colors[base + v]
            c_vv = colors[v * n + v]
            c_vu = colors[v * n + u]
            if u == v:
                out.append(
                    (c_uv, c_uu, c_vv, c_vu, c_uu, row_u, col_u, rows_ms[v], cols_ms[v],
                     diag_ms, all_ms, row_u, col_u, diag_ms, all_ms)
                )
            else:
                out.append(
                    (c_uv, c_uu, c_vv, c_vu, _ABSENT, row_u, col_u, rows_ms[v], cols_ms[v],
                     diag_ms, all_ms, _ABSENT, _ABSENT, _ABSENT, _ABSENT)
                )
    return out


def _slice_update(n, data, colors, it):
    """The 15-slot update of every eigenvalue slice on its own."""
    nn = n * n
    out = []
    for i in range(0, len(colors), nn):
        out.extend(_ign_update(n, None, colors[i : i + nn], it))
    return out


def _cross_update(n, data, colors, it):
    """Per-slice 15-slot update paired with the 15-slot update of the pair
    multisets over slices (cross-eigenspace aggregation)."""
    ms = it.id
    MS, TOK = _Interner.MS, _Interner.TOK
    nn = n * n
    slice_ids = _slice_update(n, None, colors, it)
    sp = [ms(MS, tuple(sorted(colors[p::nn]))) for p in range(nn)]
    cross_ids = _ign_update(n, None, sp, it) * (len(colors) // nn)
    return [ms(TOK, pair) for pair in zip(slice_ids, cross_ids)]


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
    update: Callable  # (n, data, colors, interner) -> new color ids
    pool: Callable  # (spec, graphs, colors per graph, interner) -> signature ids


_N, _P, _S = "nodes", "pairs", "spectral_pairs"

# keyed by (AlgorithmSpec.variant, AlgorithmSpec.init); the columns are the
# _Variant fields in order
_VARIANTS: dict[tuple[str, str], _Variant] = {
    ("wl1", "const"):             _Variant(_N, False, False, _atp_static,  _node_init,   _vertex_update, _pool_joint),
    ("epwl", "const"):            _Variant(_N, True,  True,  _proj_static, _node_init,   _vertex_update, _pool_joint),
    ("gdwl", "const"):            _Variant(_N, False, True,  _dist_static, _node_init,   _vertex_update, _pool_joint),
    ("peg", "const"):             _Variant(_N, True,  True,  _proj_static, _node_init,   _peg_update,    _pool_joint),
    ("swl", "const"):             _Variant(_P, False, False, _atp_static,  _marked_init, _swl_update,    _pool_rows),
    ("pswl", "const"):            _Variant(_P, False, False, _atp_static,  _marked_init, _pswl_update,   _pool_rows),
    ("fwl2", "const"):            _Variant(_P, False, False, _atp_static,  _data_init,   _fwl2_update,   _pool_joint),
    ("girt", "const"):            _Variant(_P, False, True,  _girt_static, _data_init,   _girt_update,   _pool_diag),
    ("ign2wl", "const"):          _Variant(_P, False, False, _no_static,   _pair_init,   _ign_update,    _pool_joint),
    ("ign2wl", "atp"):            _Variant(_P, False, False, _atp_static,  _data_init,   _ign_update,    _pool_joint),
    ("ign2wl", "proj"):           _Variant(_P, True,  True,  _proj_static, _data_init,   _ign_update,    _pool_joint),
    ("spe", "const"):             _Variant(_P, True,  True,  _proj_static, _data_init,   _ign_update,    _pool_spe),
    ("spectralign", "const"):     _Variant(_S, True,  True,  _eig_static,  _lam_init,    _cross_update,  _pool_pair_rows),
    ("siamese", "const"):         _Variant(_S, True,  True,  _eig_static,  _lam_init,    _slice_update,  _pool_joint),
    ("weakspectralign", "const"): _Variant(_S, True,  True,  _eig_static,  _lam_init,    _slice_update,  _pool_pairs),
    ("basisnet", "const"):        _Variant(_S, True,  True,  _eig_static,  _mult_init,   _slice_update,  _pool_basisnet),
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
    update = _VARIANTS[spec.variant, spec.init].update
    it = _Interner()
    new_colors = []
    for g, d, cols in zip(state.graphs, state._data, state.colors):
        new_colors.append(tuple(update(g.n, d, list(cols), it)))

    new_to_old: dict[int, int] = {}
    old_to_new: dict[int, int] = {}
    refined = True
    stable = True
    for old_cols, new_cols in zip(state.colors, new_colors):
        for o, nw in zip(old_cols, new_cols):
            if new_to_old.setdefault(nw, o) != o:
                refined = False
            if old_to_new.setdefault(o, nw) != nw:
                stable = False
    if not refined:
        raise InternalError(
            f"{spec.label()}: update did not refine the partition at iteration {state.iteration + 1}"
        )
    return ColorState(
        spec=spec,
        graphs=state.graphs,
        colors=tuple(new_colors),
        iteration=state.iteration + 1,
        run_id=state.run_id,
        stable=stable,
        domain=state.domain,
        quant=state.quant,
        _data=state._data,
    )


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
