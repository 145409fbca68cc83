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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
        needs_kind = {"epwl", "spectralign", "siamese", "weakspectralign", "basisnet", "spe", "peg"}
        bare = {"wl1", "swl", "pswl", "fwl2", "girt", "ign2wl", "gdwl"}
        if self.variant not in needs_kind | bare:
            raise UsageError(f"unknown algorithm variant {self.variant!r}")
        if self.variant in needs_kind:
            if self.kind not in _ALGO_KINDS:
                raise UsageError(f"{self.variant} requires a matrix kind A, L, or Lhat")
        if self.variant == "gdwl" and self.distance is None:
            raise UsageError("gdwl requires a distance kind")
        if self.variant == "basisnet" and self.layers < 0:
            raise UsageError("basisnet layer count must be nonnegative")
        if self.variant == "girt" and self.steps < 1:
            raise UsageError("girt walk length must be at least 1")
        if self.variant == "ign2wl" and self.init not in {"const", "atp", "proj"}:
            raise UsageError("ign2wl initial coloring must be const, atp, or proj")
        if self.variant == "ign2wl" and self.init == "proj" and self.kind not in _ALGO_KINDS:
            raise UsageError("ign2wl:proj requires a matrix kind")

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
        return self.variant not in {"wl1", "swl", "pswl", "fwl2"} and not (
            self.variant == "ign2wl" and self.init in {"const", "atp"}
        )

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
# per-graph contexts


class _Ctx:
    """Static per-graph data for one run: canonical int matrices."""

    __slots__ = ("g", "n", "atp", "proj", "dist", "lams", "slices", "mults", "girt_init", "size")

    def __init__(self, g: Graph):
        self.g = g
        self.n = g.n
        self.atp = None  # flat n*n list of 0/1/2
        self.proj = None  # flat n*n list of static ids
        self.dist = None  # flat n*n list of static ids
        self.lams = None  # tuple of quantized eigenvalue strings
        self.slices = None  # list (per eigenvalue) of flat n*n static entry ids
        self.mults = None  # multiplicities per eigenvalue
        self.girt_init = None
        self.size = 0


def _atp_flat(g: Graph) -> list[int]:
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


def _proj_flat(g: Graph, kind: MatrixKind, quant: Quantization, static: _Interner) -> list[int]:
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


# ---------------------------------------------------------------------------
# variant implementations


class _VariantBase:
    domain = "nodes"

    def build(self, spec: AlgorithmSpec, g: Graph, quant: Quantization, static: _Interner) -> _Ctx:
        raise NotImplementedError

    def init_tokens(self, spec: AlgorithmSpec, ctx: _Ctx) -> list:
        raise NotImplementedError

    def update(self, spec: AlgorithmSpec, ctx: _Ctx, colors: list[int], it: _Interner) -> list:
        raise NotImplementedError

    def pool_all(self, spec, ctxs, colors_list, it: _Interner) -> list:
        raise NotImplementedError


class _NodeVariant(_VariantBase):
    """Vertex-domain refinements: wl1, epwl, gdwl, peg."""

    domain = "nodes"

    def build(self, spec, g, quant, static):
        ctx = _Ctx(g)
        ctx.size = g.n
        if spec.variant == "wl1":
            ctx.atp = _atp_flat(g)
        elif spec.variant == "epwl" or spec.variant == "peg":
            if spec.kind is MatrixKind.NORMALIZED_LAPLACIAN:
                _require_no_isolated(spec, g)
            ctx.proj = _proj_flat(g, spec.kind, quant, static)
        elif spec.variant == "gdwl":
            if spec.distance.name in {"prd", "diffusion"}:
                _require_no_isolated(spec, g)
            ctx.dist = [
                static.id(_Interner.STATIC, tok) for tok in distance_tokens(g, spec.distance, quant)
            ]
        return ctx

    def init_tokens(self, spec, ctx):
        return [("node-init",)] * ctx.n

    def update(self, spec, ctx, colors, it):
        n = ctx.n
        ms = it.id
        MS, TOK = _Interner.MS, _Interner.TOK
        out = []
        if spec.variant == "wl1":
            data = ctx.atp
        elif spec.variant == "gdwl":
            data = ctx.dist
        else:
            data = ctx.proj
        if spec.variant == "peg":
            diag = [data[v * n + v] for v in range(n)]
            for u in range(n):
                base = u * n
                duu = diag[u]
                bag = tuple(sorted((colors[v], duu, diag[v], data[base + v]) for v in range(n)))
                out.append(ms(TOK, (ms(MS, bag),)))
        else:
            for u in range(n):
                base = u * n
                bag = tuple(sorted((colors[v], data[base + v]) for v in range(n)))
                out.append(ms(TOK, (colors[u], ms(MS, bag))))
        return out

    def pool_all(self, spec, ctxs, colors_list, it):
        return [it.id(_Interner.POOL, tuple(sorted(cols))) for cols in colors_list]


class _PairVariant(_VariantBase):
    """Ordered-pair-domain refinements: swl, pswl, fwl2, girt, ign2wl, spe."""

    domain = "pairs"

    def build(self, spec, g, quant, static):
        ctx = _Ctx(g)
        ctx.size = g.n * g.n
        if spec.variant in {"swl", "pswl", "fwl2", "spe"} or (
            spec.variant == "ign2wl" and spec.init == "atp"
        ):
            ctx.atp = _atp_flat(g)
        if spec.variant == "spe" or (spec.variant == "ign2wl" and spec.init == "proj"):
            if spec.kind is MatrixKind.NORMALIZED_LAPLACIAN:
                _require_no_isolated(spec, g)
            ctx.proj = _proj_flat(g, spec.kind, quant, static)
        if spec.variant == "girt":
            _require_no_isolated(spec, g)
            ctx.girt_init = _girt_init(g, spec.steps, quant)
        return ctx

    def init_tokens(self, spec, ctx):
        n = ctx.n
        if spec.variant in {"swl", "pswl"}:
            return [1 if u == v else 0 for u in range(n) for v in range(n)]
        if spec.variant == "fwl2" or (spec.variant == "ign2wl" and spec.init == "atp"):
            return list(ctx.atp)
        if spec.variant == "girt":
            return ctx.girt_init
        if spec.variant == "spe" or (spec.variant == "ign2wl" and spec.init == "proj"):
            return list(ctx.proj)
        return [("pair-init",)] * (n * n)

    def update(self, spec, ctx, colors, it):
        n = ctx.n
        ms = it.id
        MS, TOK = _Interner.MS, _Interner.TOK
        out = []
        if spec.variant == "swl":
            atp = ctx.atp
            for u in range(n):
                base = u * n
                row = colors[base : base + n]
                for v in range(n):
                    vbase = v * n
                    bag = tuple(sorted(zip(row, atp[vbase : vbase + n])))
                    out.append(ms(TOK, (colors[base + v], ms(MS, bag))))
            return out
        if spec.variant == "pswl":
            atp = ctx.atp
            diag = [colors[v * n + v] for v in range(n)]
            for u in range(n):
                base = u * n
                row = colors[base : base + n]
                for v in range(n):
                    vbase = v * n
                    bag = tuple(sorted(zip(row, atp[vbase : vbase + n])))
                    out.append(ms(TOK, (colors[base + v], diag[v], ms(MS, bag))))
            return out
        if spec.variant == "fwl2":
            for u in range(n):
                base = u * n
                row = colors[base : base + n]
                for v in range(n):
                    bag = tuple(sorted(zip(row, colors[v::n])))
                    out.append(ms(TOK, (colors[base + v], ms(MS, bag))))
            return out
        if spec.variant == "girt":
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
        # spe and ign2wl share the 15-slot update
        toks = _ign_slice_tokens(n, colors, it)
        return [ms(TOK, t) for t in toks]

    def pool_all(self, spec, ctxs, colors_list, it):
        ms = it.id
        MS, POOL = _Interner.MS, _Interner.POOL
        if spec.variant in {"swl", "pswl"}:
            out = []
            for ctx, cols in zip(ctxs, colors_list):
                n = ctx.n
                per_node = [ms(MS, tuple(sorted(cols[u * n : (u + 1) * n]))) for u in range(n)]
                out.append(ms(POOL, tuple(sorted(per_node))))
            return out
        if spec.variant == "girt":
            out = []
            for ctx, cols in zip(ctxs, colors_list):
                n = ctx.n
                out.append(ms(POOL, tuple(sorted(cols[u * n + u] for u in range(n)))))
            return out
        if spec.variant == "spe":
            node_colors = []
            for ctx, cols in zip(ctxs, colors_list):
                n = ctx.n
                node_colors.append(
                    [ms(MS, tuple(sorted(cols[u * n : (u + 1) * n]))) for u in range(n)]
                )
            node_colors = _wl_layers(ctxs, node_colors, it, steps=None)
            return [ms(POOL, tuple(sorted(cols))) for cols in node_colors]
        # fwl2 and ign2wl pool the joint pair multiset
        return [ms(POOL, tuple(sorted(cols))) for cols in colors_list]


class _SpectralPairVariant(_VariantBase):
    """(eigenvalue x pair)-domain refinements: spectralign, siamese,
    weakspectralign, basisnet."""

    domain = "spectral_pairs"

    def build(self, spec, g, quant, static):
        if spec.kind is MatrixKind.NORMALIZED_LAPLACIAN:
            _require_no_isolated(spec, g)
        ctx = _Ctx(g)
        n = g.n
        lams, entries = quantized_projections(g, spec.kind, quant)
        dec = decomposition_for(g, spec.kind, quant)
        ctx.lams = lams
        ctx.mults = dec.multiplicities
        ctx.slices = [
            [static.id(_Interner.STATIC, ent[u][v]) for u in range(n) for v in range(n)]
            for ent in entries
        ]
        ctx.size = len(lams) * n * n
        if spec.variant == "basisnet":
            ctx.atp = _atp_flat(g)
        return ctx

    def init_tokens(self, spec, ctx):
        out = []
        for i, lam in enumerate(ctx.lams):
            first = ctx.mults[i] if spec.variant == "basisnet" else lam
            slice_ids = ctx.slices[i]
            out.extend((first, sid) for sid in slice_ids)
        return out

    def update(self, spec, ctx, colors, it):
        n = ctx.n
        nn = n * n
        m = len(ctx.lams)
        ms = it.id
        MS, TOK = _Interner.MS, _Interner.TOK
        slice_tok_ids = []
        for i in range(m):
            toks = _ign_slice_tokens(n, colors[i * nn : (i + 1) * nn], it)
            slice_tok_ids.append([ms(TOK, t) for t in toks])
        if spec.variant != "spectralign":
            out = []
            for ids in slice_tok_ids:
                out.extend(ids)
            return out
        # cross-eigenspace aggregation: pair multisets over slices, then the
        # 15-slot update of that pooled pair coloring
        sp = [ms(MS, tuple(sorted(colors[p::nn]))) for p in range(nn)]
        sp_tok_ids = [ms(TOK, t) for t in _ign_slice_tokens(n, sp, it)]
        out = []
        for ids in slice_tok_ids:
            out.extend(
                ms(TOK, (sid, pid)) for sid, pid in zip(ids, sp_tok_ids)
            )
        return out

    def pool_all(self, spec, ctxs, colors_list, it):
        ms = it.id
        MS, POOL = _Interner.MS, _Interner.POOL
        if spec.variant == "siamese":
            return [ms(POOL, tuple(sorted(cols))) for cols in colors_list]
        if spec.variant == "weakspectralign":
            out = []
            for ctx, cols in zip(ctxs, colors_list):
                nn = ctx.n * ctx.n
                per_pair = [ms(MS, tuple(sorted(cols[p::nn]))) for p in range(nn)]
                out.append(ms(POOL, tuple(sorted(per_pair))))
            return out
        if spec.variant == "spectralign":
            out = []
            for ctx, cols in zip(ctxs, colors_list):
                n = ctx.n
                nn = n * n
                per_pair = [ms(MS, tuple(sorted(cols[p::nn]))) for p in range(nn)]
                per_node = [ms(MS, tuple(sorted(per_pair[u * n : (u + 1) * n]))) for u in range(n)]
                out.append(ms(POOL, tuple(sorted(per_node))))
            return out
        # basisnet: 5-slot per-eigenspace pooling, eigenvalue multiset per
        # node, then the configured number of vertex-refinement layers
        node_colors = []
        for ctx, cols in zip(ctxs, colors_list):
            n = ctx.n
            nn = n * n
            m = len(ctx.lams)
            per_node = []
            for u in range(n):
                lam_ids = []
                for i in range(m):
                    sl = cols[i * nn : (i + 1) * nn]
                    row = ms(MS, tuple(sorted(sl[u * n : (u + 1) * n])))
                    col = ms(MS, tuple(sorted(sl[u::n])))
                    diag = ms(MS, tuple(sorted(sl[w * n + w] for w in range(n))))
                    full = ms(MS, tuple(sorted(sl)))
                    lam_ids.append(ms(MS, (sl[u * n + u], row, col, diag, full)))
                per_node.append(ms(MS, tuple(sorted(lam_ids))))
            node_colors.append(per_node)
        node_colors = _wl_layers(ctxs, node_colors, it, steps=spec.layers)
        return [ms(POOL, tuple(sorted(cols))) for cols in node_colors]


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


def _wl_layers(ctxs, node_colors, it: _Interner, steps: Optional[int]) -> list[list[int]]:
    """Vertex-refinement layers over given node colors, joint across the run.

    ``steps=None`` iterates to joint stability; an int applies exactly
    that many layers.  Used inside pooling stages.
    """
    ms = it.id
    MS, TOK = _Interner.MS, _Interner.TOK
    limit = steps if steps is not None else sum(ctx.n for ctx in ctxs) + 1
    prev_count = len({c for cols in node_colors for c in cols})
    for _ in range(limit):
        new_colors = []
        for ctx, cols in zip(ctxs, node_colors):
            n = ctx.n
            atp = ctx.atp
            out = []
            for u in range(n):
                base = u * n
                bag = tuple(sorted((cols[v], atp[base + v]) for v in range(n)))
                out.append(ms(TOK, (cols[u], ms(MS, bag))))
            new_colors.append(out)
        node_colors = new_colors
        if steps is None:
            count = len({c for cols in node_colors for c in cols})
            if count == prev_count:
                break
            prev_count = count
    return node_colors


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


_VARIANTS: dict[str, _VariantBase] = {}
for _v in ("wl1", "epwl", "gdwl", "peg"):
    _VARIANTS[_v] = _NodeVariant()
for _v in ("swl", "pswl", "fwl2", "girt", "ign2wl", "spe"):
    _VARIANTS[_v] = _PairVariant()
for _v in ("spectralign", "siamese", "weakspectralign", "basisnet"):
    _VARIANTS[_v] = _SpectralPairVariant()


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
    _ctxs: tuple = field(repr=False, default=())
    _static: _Interner = field(repr=False, default=None)
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
        return self._ctxs[i].size


def initial_coloring(
    spec: AlgorithmSpec, g: Graph, quant: Quantization = DEFAULT_QUANT
) -> ColorState:
    """Iteration-0 coloring of a single-graph run."""
    return joint_initial_coloring(spec, [g], quant)


def joint_initial_coloring(
    spec: AlgorithmSpec, graphs: Sequence[Graph], quant: Quantization = DEFAULT_QUANT
) -> ColorState:
    """Iteration-0 coloring of a joint run over several graphs."""
    variant = _VARIANTS[spec.variant]
    static = _Interner()
    ctxs = tuple(variant.build(spec, g, quant, static) for g in graphs)
    table = _Interner()
    colors = []
    for ctx in ctxs:
        toks = variant.init_tokens(spec, ctx)
        colors.append(tuple(table.id(_Interner.INIT, t) for t in toks))
    return ColorState(
        spec=spec,
        graphs=tuple(graphs),
        colors=tuple(colors),
        iteration=0,
        run_id=next(_RUN_IDS),
        stable=False,
        domain=variant.domain,
        quant=quant,
        _ctxs=ctxs,
        _static=static,
    )


def refine_once(spec: AlgorithmSpec, state: ColorState) -> ColorState:
    """One synchronous update over the whole joint domain.

    Asserts the monotone-refinement invariant: the new partition must
    refine the old one.  Sets ``stable`` when the joint partition is
    unchanged.
    """
    if spec != state.spec:
        raise UsageError("state was produced by a different algorithm spec")
    variant = _VARIANTS[spec.variant]
    it = _Interner()
    new_colors = []
    for ctx, cols in zip(state._ctxs, state.colors):
        new_colors.append(tuple(variant.update(spec, ctx, list(cols), it)))

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
        _ctxs=state._ctxs,
        _static=state._static,
    )


def stable_coloring(
    spec: AlgorithmSpec, graphs: Sequence[Graph], quant: Quantization = DEFAULT_QUANT
) -> ColorState:
    """Joint refinement iterated to the first stable joint partition."""
    state = joint_initial_coloring(spec, graphs, quant)
    cap = sum(ctx.size for ctx in state._ctxs) + 1
    for _ in range(cap):
        state = refine_once(spec, state)
        if state.stable:
            return state
    raise InternalError(f"{spec.label()}: no stable partition within the domain-size cap {cap}")


def signatures(state: ColorState) -> list[Signature]:
    """Pooled signatures of every graph in the run (cached on the state)."""
    if state._sigs is None:
        variant = _VARIANTS[state.spec.variant]
        it = _Interner()
        vals = variant.pool_all(
            state.spec, state._ctxs, [list(c) for c in state.colors], it
        )
        state._sigs = tuple(vals)
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
    viol_ab = tuple(refinement_violations(sig_a, sig_b))
    viol_ba = tuple(refinement_violations(sig_b, sig_a))
    return ComparisonReport(
        spec_a=spec_a.label(),
        spec_b=spec_b.label(),
        a_refines_b=not viol_ab,
        b_refines_a=not viol_ba,
        violations_ab=viol_ab,
        violations_ba=viol_ba,
        buckets_a=len(set(sig_a)),
        buckets_b=len(set(sig_b)),
    )
