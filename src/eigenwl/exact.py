"""Fraction-free exact linear algebra over plain Python integers.

Every rational is an integer numerator over one common positive scale
(walk powers M^k / l^k, Laplacian pseudo-inverses N / q), never
gcd-normalised on the way; :func:`round_code` rounds p / q to a decimal
code at the end.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import mul

from .graphs import MatrixKind, build_matrix


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def int_matrix(g, kind: MatrixKind) -> list[list[int]]:
    return build_matrix(g, kind).astype(int).tolist()


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def charpoly(mat: list[list[int]]) -> list[int]:
    """Coefficients (1, c_1, ..., c_n) of det(xI - M) by Faddeev-LeVerrier;
    for an integer M each c_k = -tr(M B_{k-1}) / k is an exact division."""
    n = len(mat)
    coeffs = [1]
    aux = identity(n)
    for k in range(1, n + 1):
        aux = matmul(mat, aux)
        c, rem = divmod(-sum(aux[i][i] for i in range(n)), k)
        assert rem == 0, "Faddeev-LeVerrier division must be exact"
        coeffs.append(c)
        for i in range(n):
            aux[i][i] += c
    return coeffs


def walk_matrix(g) -> tuple[int, list[list[int]]]:
    """(l, M) with l = lcm(degrees) and M = l D^-1 A, so (D^-1 A)^k = M^k / l^k.

    Every row of M^k sums to l^k.  The graph must have no isolated vertex.
    """
    scale = lcm(*g.degrees)
    adj = int_matrix(g, MatrixKind.ADJACENCY)
    return scale, [[scale // g.degree(u) * a for a in row] for u, row in enumerate(adj)]


def extend_powers(mat: list[list[int]], powers: list, count: int) -> None:
    """Append to ``powers`` = [M^0, ...] until it holds M^0, ..., M^count."""
    while len(powers) <= count:
        powers.append(matmul(powers[-1], mat))


def laplacian_pinv(g) -> tuple[list[list[int]], int]:
    """Laplacian pseudo-inverse of a connected graph as (N, q), L^+ = N / q.

    B = nL + J (J all ones) is positive definite and L^+ = n B^-1 - J/n.
    Fraction-free Gauss-Jordan elimination (Bareiss) turns [B | I] into
    [d I | adj B] with d = det B: every division is exact, and every pivot
    is a positive leading principal minor, so no row exchange is needed.
    The pair is reduced by its common gcd, keeping later products small.
    """
    n = g.n
    lap = int_matrix(g, MatrixKind.LAPLACIAN)
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


def round_code(p: int, q: int, digits: int) -> int:
    """The code k of p / q (q > 0) rounded half-even to ``digits`` places:
    the decimal k / 10**digits, as ``spectral._decimal_codes`` codes a float."""
    whole, rem = divmod(p * 10**digits, q)
    if 2 * rem > q or (2 * rem == q and whole % 2):
        whole += 1
    return whole
