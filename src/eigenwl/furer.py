"""Furer gadget products, edge twists, and counterexample search.

The product of a connected base graph F has one vertex (x, X) per base
vertex x and even-size subset X of its neighborhood; (x, X) ~ (y, Y)
iff {x, y} is a base edge and x's membership in Y matches y's in X.
Twisting by a base edge takes the symmetric difference of the product's
edge set with the complete biclique between the two meta sets.  Twisted
products for twist sets S1 and S2 are isomorphic iff |S1| and |S2| have
equal parity, which makes odd twists a factory of hard non-isomorphic
pairs.

The search driver walks (product, one-edge twist) pairs over small bases
and reports every pair on which two refinement algorithms disagree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from .graphs import (
    Graph,
    _canonical_form,
    cycle_graph,
    disjoint_union,
    enumerate_graphs,
    is_isomorphic,
    random_connected_graph,
    write_graph6,
)
from .refinement import AlgorithmSpec, InternalError, distinguishes
from .spectral import DEFAULT_QUANT, Quantization

__all__ = [
    "FurerGraph",
    "SearchResult",
    "Witness",
    "furer",
    "parity_check",
    "search_counterexamples",
    "twist",
]


@dataclass(frozen=True)
class FurerGraph:
    """Base graph, its gadget product, and the meta-set index.

    ``meta_index[x]`` lists the product vertex ids of base vertex x in
    ascending subset-mask order; ``subset_masks[p]`` is the neighborhood
    subset of product vertex p as a bitmask over base vertices.
    """

    base: Graph
    product: Graph
    meta_index: tuple[tuple[int, ...], ...]
    subset_masks: tuple[int, ...]


def _even_subsets(neighbors: list[int]) -> list[int]:
    """Even-size subsets of the neighbor list as base-vertex bitmasks,
    ordered by the binary encoding of neighbor membership."""
    out = []
    for mask in range(1 << len(neighbors)):
        if mask.bit_count() % 2 == 0:
            bits = 0
            for i, w in enumerate(neighbors):
                if mask >> i & 1:
                    bits |= 1 << w
            out.append(bits)
    return out


def furer(base: Graph) -> FurerGraph:
    """Gadget product of a connected base with minimum degree >= 1."""
    if not base.is_connected() or base.n < 2:
        raise ValueError("base must be connected with at least two vertices")
    if base.has_isolated:
        raise ValueError("base must have minimum degree at least 1")

    meta_index: list[tuple[int, ...]] = []
    subset_masks: list[int] = []
    owner: list[int] = []
    next_id = 0
    for x in range(base.n):
        neigh = sorted(base.neighbors(x))
        masks = _even_subsets(neigh)
        ids = tuple(range(next_id, next_id + len(masks)))
        meta_index.append(ids)
        subset_masks.extend(masks)
        owner.extend([x] * len(masks))
        next_id += len(masks)
        if len(masks) != 1 << (len(neigh) - 1):
            raise InternalError("meta set size must be 2^(deg-1)")

    total = next_id
    rows = [0] * total
    for x, y in base.edges():
        for p in meta_index[x]:
            x_in_y_side = subset_masks[p] >> y & 1
            for q in meta_index[y]:
                if (subset_masks[q] >> x & 1) == x_in_y_side:
                    rows[p] |= 1 << q
                    rows[q] |= 1 << p
    product = Graph(total, tuple(rows))
    return FurerGraph(base, product, tuple(meta_index), tuple(subset_masks))


def _product_n(base: Graph) -> int:
    """Vertex count of the gadget product: 2^(deg(x) - 1) per base vertex x."""
    return sum(1 << (d - 1) for d in base.degrees)


def _normalize_twist(fg: FurerGraph, edges: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    out = set()
    for u, v in edges:
        e = (min(u, v), max(u, v))
        if not fg.base.has_edge(*e):
            raise ValueError(f"twist edge {e} is not a base edge")
        out.add(e)
    return out


def twist(fg: FurerGraph, edges: Iterable[tuple[int, int]], start: Optional[Graph] = None) -> Graph:
    """Product with the meta-biclique of each given base edge toggled.

    XOR of disjoint bicliques, hence independent of edge order, an
    involution per edge, and the identity on the empty set.  ``start``
    applies the twist to an already-twisted graph instead of the plain
    product (sequential twisting composes by symmetric difference).
    """
    rows = list((start or fg.product).rows)
    for x, y in _normalize_twist(fg, edges):
        mask_x = 0
        for p in fg.meta_index[x]:
            mask_x |= 1 << p
        mask_y = 0
        for q in fg.meta_index[y]:
            mask_y |= 1 << q
        for p in fg.meta_index[x]:
            rows[p] ^= mask_y
        for q in fg.meta_index[y]:
            rows[q] ^= mask_x
    return Graph(fg.product.n, tuple(rows))


def parity_check(
    base: Graph, twist_a: Sequence[tuple[int, int]], twist_b: Sequence[tuple[int, int]]
) -> bool:
    """Exact-isomorphism result for the two twisted products.

    Also asserts the parity law: the twisted products are isomorphic iff
    the two twist sets have equal size parity.
    """
    fg = furer(base)
    set_a = _normalize_twist(fg, twist_a)
    set_b = _normalize_twist(fg, twist_b)
    iso = is_isomorphic(twist(fg, set_a), twist(fg, set_b)) is not None
    expected = len(set_a) % 2 == len(set_b) % 2
    if iso != expected:
        raise InternalError(
            f"twist parity violated for base {write_graph6(base)}: "
            f"|S1|={len(set_a)}, |S2|={len(set_b)}, isomorphic={iso}"
        )
    return iso


# ---------------------------------------------------------------------------
# counterexample search


@dataclass(frozen=True)
class Witness:
    """A graph pair on which two algorithms disagree."""

    spec_a: str
    spec_b: str
    graph6_a: str
    graph6_b: str
    a_distinguishes: bool
    b_distinguishes: bool
    note: str

    def to_line(self) -> str:
        return "|".join(
            [
                self.spec_a,
                self.spec_b,
                self.graph6_a,
                self.graph6_b,
                "1" if self.a_distinguishes else "0",
                "1" if self.b_distinguishes else "0",
                self.note,
            ]
        )

    @classmethod
    def from_line(cls, line: str) -> "Witness":
        """The witness of a :meth:`to_line` line.

        graph6 data may hold ``|`` (byte 124), so each graph field is read
        by the length its size header implies and must be followed by
        ``|``; the note is the rest of the line.
        """
        fields = line.split("|", 2)
        if len(fields) == 3:
            spec_a, spec_b, rest = fields
            graph6_a, rest = _graph6_field(rest)
            graph6_b, rest = _graph6_field(rest)
            fields = rest.split("|", 2)
            if graph6_a and graph6_b and len(fields) == 3:
                flag_a, flag_b, note = fields
                return cls(spec_a, spec_b, graph6_a, graph6_b, flag_a == "1", flag_b == "1", note)
        raise ValueError(f"bad witness line: {line!r}")


def _graph6_field(text: str) -> tuple[str, str]:
    """The graph6 field that ``text`` starts with and the text after its
    closing ``|``; ``("", text)`` if the field or the ``|`` is missing."""
    width, start = (6, 2) if text[:2] == "~~" else (3, 1) if text[:1] == "~" else (1, 0)
    digits = text[start : start + width]
    if len(digits) != width or not all("?" <= c <= "~" for c in digits):
        return "", text
    n = 0
    for c in digits:
        n = n << 6 | (ord(c) - 63)
    end = start + width + (n * (n - 1) // 2 + 5) // 6
    if text[end : end + 1] != "|":
        return "", text
    return text[:end], text[end + 1 :]


@dataclass(frozen=True)
class SearchResult:
    witnesses: tuple[Witness, ...]
    examined: int
    skipped: int
    unstable: int
    status: str  # "complete" or "budget exhausted"
    repeats: int = 0  # examined bases isomorphic to one examined before


def _seed_pairs() -> list[tuple[Graph, Graph, str]]:
    c6 = cycle_graph(6)
    cc3 = disjoint_union(cycle_graph(3), cycle_graph(3))
    return [(c6, cc3, "seed:c6-vs-2c3")]


def _candidate_bases(max_base_n: int, budget: int, seed: int) -> Iterable[tuple[Graph, str]]:
    for n in range(3, max_base_n + 1):
        for base in enumerate_graphs(n, connected_only=True):
            if min(base.degrees) >= 2:
                yield base, f"furer:{write_graph6(base)}"
    rng = random.Random(seed)
    for _ in range(budget):
        n = rng.randint(4, 8)
        base = random_connected_graph(n, rng.uniform(0.4, 0.8), rng.randrange(1 << 30))
        if min(base.degrees) >= 2:
            yield base, f"furer-random:{write_graph6(base)}"


def search_counterexamples(
    spec_a: AlgorithmSpec,
    spec_b: AlgorithmSpec,
    max_base_n: int = 5,
    budget: int = 100,
    seed: int = 1729,
    max_product_n: Optional[int] = None,
    quant: Quantization = DEFAULT_QUANT,
) -> SearchResult:
    """Hunt for pairs where exactly one of the two algorithms distinguishes.

    Walks a deterministic candidate stream: hand-picked seed pairs, then
    (product, one-edge-twist) Furer pairs over exhaustive small bases with
    minimum degree >= 2, then random connected bases.  ``budget`` bounds
    the number of candidate pairs considered; ``max_product_n`` skips
    products too large for the given algorithms (skips count against the
    budget to keep the stream deterministic).

    Every pair is evaluated at the token quantization ``quant``.
    Disagreements that involve a quantization-sensitive algorithm are
    re-evaluated with one digit more and one digit fewer (none fewer at 0
    digits) and dropped unless every evaluation agrees: on large graphs a
    projection entry can straddle a decimal rounding boundary and
    fabricate a distinction that no exact computation would make.

    An examined base isomorphic to an earlier one counts in ``repeats``,
    and an exact algorithm (not ``quantization_sensitive``) gives it the
    verdict it gave the first base of its class, without refining again.
    That verdict is the one a fresh run would give:

    * an isomorphism of two bases induces one of their products;
    * all single-edge twists of one base are isomorphic (the parity law,
      see :func:`parity_check`);
    * the ids of an exact algorithm are structural, so its verdict depends
      only on the isomorphism classes of the two graphs.

    Quantization-sensitive algorithms are run on every pair: on a decimal
    rounding tie an isomorphic copy can get another verdict.  The seed
    pairs have no base and are always run.  Witness lines are built from
    each candidate's own product and twist.
    """
    witnesses: list[Witness] = []
    examined = 0
    skipped = 0
    unstable = 0
    repeats = 0
    remaining = budget
    sensitive = spec_a.quantization_sensitive or spec_b.quantization_sensitive
    perturbed = tuple(
        replace(quant, digits=d) for d in (quant.digits - 1, quant.digits + 1) if d >= 0
    )
    verdicts: dict[tuple[str, tuple[int, ...]], bool] = {}  # (spec label, base form) -> verdict

    def verdict(spec: AlgorithmSpec, ga: Graph, gb: Graph, form: Optional[tuple[int, ...]]) -> bool:
        if form is None or spec.quantization_sensitive:
            return distinguishes(spec, ga, gb, quant)
        key = (spec.label(), form)
        if key not in verdicts:
            verdicts[key] = distinguishes(spec, ga, gb, quant)
        return verdicts[key]

    def stable_flag(spec: AlgorithmSpec, ga: Graph, gb: Graph, flag: bool) -> bool:
        if not spec.quantization_sensitive:
            return True
        return all(distinguishes(spec, ga, gb, q) == flag for q in perturbed)

    def consider(ga: Graph, gb: Graph, note: str, form: Optional[tuple[int, ...]] = None):
        nonlocal examined, unstable
        a = verdict(spec_a, ga, gb, form)
        b = verdict(spec_b, ga, gb, form)
        examined += 1
        if a != b:
            if sensitive and not (stable_flag(spec_a, ga, gb, a) and stable_flag(spec_b, ga, gb, b)):
                unstable += 1
                return
            witnesses.append(
                Witness(
                    spec_a.label(),
                    spec_b.label(),
                    write_graph6(ga),
                    write_graph6(gb),
                    a,
                    b,
                    note,
                )
            )

    def result(status: str) -> SearchResult:
        return SearchResult(tuple(witnesses), examined, skipped, unstable, status, repeats)

    seeds = _seed_pairs()
    if remaining <= len(seeds):
        for ga, gb, note in seeds[:remaining]:
            consider(ga, gb, note)
        return result("budget exhausted")
    for ga, gb, note in seeds:
        remaining -= 1
        consider(ga, gb, note)

    status = "complete"
    forms: set[tuple[int, ...]] = set()
    for base, note in _candidate_bases(max_base_n, budget, seed):
        if remaining <= 0:
            status = "budget exhausted"
            break
        remaining -= 1
        if max_product_n is not None and _product_n(base) > max_product_n:
            skipped += 1
            continue
        form = _canonical_form(base.rows)[0]
        if form in forms:
            repeats += 1
        forms.add(form)
        fg = furer(base)
        first_edge = next(fg.base.edges())
        consider(fg.product, twist(fg, [first_edge]), note, form)
    return result(status)
