"""k-th symmetric powers (token graphs).

The k-th symmetric power of a graph has the k-element vertex subsets as
vertices, two subsets adjacent when their symmetric difference is an
edge of the base graph.  (Some write-ups speak of multisets of
cardinality k; the set form is what is implemented here.)  Spectra of
token graphs carry strictly higher-order structure than the base
spectrum.  The product is a plain ``Graph``, so the spectral tokens of
:mod:`eigenwl.spectral` apply to it as they are:
``spectrum_token(tg.product, kind)`` for its spectrum, and
``pair_token(tg.product, kind, tg.index_of(a), tg.index_of(b))`` for the
projection pair invariant of two k-vertex tuples.

Token graphs of perfectly reasonable bases can contain isolated
vertices (the 2nd power of an edge is a single bare vertex), in which
case normalized-Laplacian requests are rejected like everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .graphs import Graph

__all__ = ["TokenGraph", "token_graph"]

MAX_PRODUCT_VERTICES = 5000


@dataclass(frozen=True)
class TokenGraph:
    """Base graph, order k, the product graph, and the subset <-> id maps.

    ``subsets[p]`` is the vertex set of product vertex p as a bitmask
    over base vertices; masks are ascending, which makes k = 1 reproduce
    the base graph exactly.  ``positions`` is the inverse map, mask to
    product vertex; it follows from ``subsets``, so repr, equality and
    hashing leave it out.
    """

    base: Graph
    k: int
    product: Graph
    subsets: tuple[int, ...]
    positions: dict[int, int] = field(repr=False, compare=False, hash=False)

    def index_of(self, vertices) -> int:
        """Product vertex id of a k-element vertex set."""
        mask = 0
        for v in vertices:
            if not 0 <= v < self.base.n:
                raise IndexError(f"vertex {v} out of range")
            if mask >> v & 1:
                raise ValueError(f"repeated vertex {v} in tuple (set semantics)")
            mask |= 1 << v
        if mask.bit_count() != self.k:
            raise ValueError(f"need exactly {self.k} distinct vertices")
        return self.positions[mask]


def token_graph(g: Graph, k: int) -> TokenGraph:
    """The k-th symmetric power; k = 1 reproduces the base graph.

    k = n is allowed and yields the single-vertex edgeless graph.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"order k must satisfy 1 <= k <= n, got k={k}, n={g.n}")
    size = comb(g.n, k)
    if size > MAX_PRODUCT_VERTICES:
        raise ValueError(
            f"token graph would have {size} vertices (cap {MAX_PRODUCT_VERTICES}); "
            "use a smaller base or order"
        )
    masks = []
    for combo in combinations(range(g.n), k):
        mask = 0
        for v in combo:
            mask |= 1 << v
        masks.append(mask)
    masks.sort()
    position = {m: i for i, m in enumerate(masks)}

    rows = [0] * size
    for a, b in g.edges():
        bit_a, bit_b = 1 << a, 1 << b
        for p, mask in enumerate(masks):
            # S contains a, not b: its ab-swap differs by exactly the edge {a, b}
            if mask & bit_a and not mask & bit_b:
                q = position[mask ^ bit_a ^ bit_b]
                rows[p] |= 1 << q
                rows[q] |= 1 << p
    return TokenGraph(g, k, Graph(size, tuple(rows)), tuple(masks), position)
