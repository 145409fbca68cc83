"""Fraction-free exact linear algebra over plain Python integers.

Every rational is an integer numerator over one common positive scale
(matrix powers M^k / l^k, Laplacian pseudo-inverses N / q), never
gcd-normalised on the way; :func:`round_code` rounds p / q to a decimal
code at the end.

What a graph needs of it is kept in ``Graph.derived``: per matrix kind
one table of exact powers [M^0, M^1, ...], extended in place to the
largest power asked for (:func:`powers`), and the pseudo-inverse of each
component's Laplacian (:func:`laplacian_pinvs`).  The characteristic
polynomial is read off the traces of the powers (:func:`power_charpoly`).
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import mul

from .graphs import MatrixKind, build_matrix

# the random-walk matrix D^-1 A: a kind of the power table beside the
# matrix kinds, with no MatrixKind of its own
WALK = "walk"


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def int_matrix(g, kind: MatrixKind) -> list[list[int]]:
    return build_matrix(g, kind).astype(int).tolist()


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def charpoly(traces: list[int]) -> list[int]:
    """Coefficients (1, c_1, ..., c_n) of det(xI - M) from the traces
    p_k = tr(M^k), k = 1..n, by Newton's identities:
    k c_k = -(c_{k-1} p_1 + c_{k-2} p_2 + ... + c_0 p_k).  For an integer
    M every c_k is an integer, so each division by k is exact."""
    coeffs = [1]
    for k in range(1, len(traces) + 1):
        c, rem = divmod(-sum(map(mul, reversed(coeffs), traces)), k)
        assert rem == 0, "Newton's identities must divide exactly"
        coeffs.append(c)
    return coeffs


def power_charpoly(powers: list, mat: list[list[int]]) -> list[int]:
    """:func:`charpoly` of the n x n integer matrix ``mat`` = M from its
    powers [M^0, ..., M^{n-1}]: tr(M^n) is the sum over (u, v) of
    M^{n-1}(u, v) M(v, u), so M^n is never built."""
    n = len(mat)
    traces = [sum(p[i][i] for i in range(n)) for p in powers[1:]]
    traces.append(sum(map(mul, chain.from_iterable(powers[-1]), chain.from_iterable(zip(*mat)))))
    return charpoly(traces)


def _matrix(g, kind) -> tuple[int, list[list[int]]]:
    """(scale, M) with M / scale the exact matrix of a table kind: A and L
    over 1; the walk matrix D^-1 A and the normalized-Laplacian surrogate
    D^-1 L = I - D^-1 A (similar to L-hat) over l = lcm(degrees)."""
    if kind in (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN):
        return 1, int_matrix(g, kind)
    if kind not in (MatrixKind.NORMALIZED_LAPLACIAN, WALK):
        raise ValueError(f"exact backend does not support kind {kind!r}")
    if g.has_isolated:
        name = "walk matrix" if kind == WALK else "normalized Laplacian"
        raise ValueError(f"{name} undefined: graph has an isolated vertex")
    scale = lcm(*g.degrees)
    adj = int_matrix(g, MatrixKind.ADJACENCY)
    walk = [[scale // g.degree(u) * a for a in row] for u, row in enumerate(adj)]
    if kind == WALK:
        return scale, walk
    return scale, [[scale * (u == v) - x for v, x in enumerate(row)] for u, row in enumerate(walk)]


def extend_powers(powers: list, count: int) -> None:
    """Append to ``powers`` = [M^0, M, ...] until it holds M^0, ..., M^count."""
    while len(powers) <= count:
        powers.append(matmul(powers[-1], powers[1]))


def powers(g, kind, count: int) -> tuple[int, list]:
    """(scale, [M^0, ..., M^count]) with M / scale the exact matrix of the
    kind (a :class:`MatrixKind` but the degree matrix, or :data:`WALK`),
    so that (M / scale)^k = M^k / scale^k.

    One table per graph and kind in ``g.derived``, starting as [I, M]
    and extended in place to the largest ``count`` asked for; it is
    stored anew when it grows, so that the store sizes it again.
    """
    key = ("powers", kind)
    cached = g.derived.get(key)
    if cached is None:
        scale, mat = _matrix(g, kind)
        cached = g.derived[key] = (scale, [identity(g.n), mat])
    scale, table = cached
    if len(table) <= count:
        extend_powers(table, count)
        g.derived[key] = (scale, table)
    return scale, table[: count + 1]


def _pinv(lap: list[list[int]]) -> tuple[list[list[int]], int]:
    """Pseudo-inverse of a connected graph's Laplacian L as (N, q), L^+ = N / q.

    B = nL + J (J all ones) is positive definite and L^+ = n B^-1 - J/n.
    Fraction-free Gauss-Jordan elimination (Bareiss) turns [B | I] into
    [d I | adj B] with d = det B: every division is exact, and every pivot
    is a positive leading principal minor, so no row exchange is needed.
    The pair is reduced by its common gcd, keeping later products small.
    """
    n = len(lap)
    aug = [[n * x + 1 for x in row] + unit for row, unit in zip(lap, identity(n))]
    prev = 1
    for k, pivot_row in enumerate(aug):
        pivot = pivot_row[k]
        for i, row in enumerate(aug):
            if i != k:
                aug[i] = [(pivot * x - row[k] * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    num = [[n * n * x - prev for x in row[n:]] for row in aug]
    common = gcd(n * prev, *chain.from_iterable(num))
    return [[x // common for x in row] for row in num], n * prev // common


def laplacian_pinvs(g) -> tuple[tuple[list[list[int]], int], ...]:
    """(N, q) with L^+ = N / q for each component of the graph, in
    ``g.components()`` order, over the component's vertices in that
    order; kept in ``g.derived``."""
    key = ("pinv",)
    cached = g.derived.get(key)
    if cached is None:
        lap = int_matrix(g, MatrixKind.LAPLACIAN)
        # a component is closed under adjacency: its Laplacian is a principal block of L
        cached = g.derived[key] = tuple(
            _pinv([[lap[u][v] for v in comp] for u in comp]) for comp in g.components()
        )
    return cached


def round_code(p: int, q: int, digits: int) -> int:
    """The code k of p / q (q > 0) rounded half-even to ``digits`` places:
    the decimal k / 10**digits, as ``spectral._decimal_codes`` codes a float."""
    whole, rem = divmod(p * 10**digits, q)
    if 2 * rem > q or (2 * rem == q and whole % 2):
        whole += 1
    return whole
