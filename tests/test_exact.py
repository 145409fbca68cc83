"""The integer exact backend: golden outputs, independent oracles, rounding."""

import hashlib
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from eigenwl import exact
from eigenwl.cli import main
from eigenwl.distances import DistanceKind, _subgraph, distance_tokens
from eigenwl.graphs import MatrixKind, complete_graph, enumerate_graphs, path_graph, random_connected_graph, random_graph
from eigenwl.refinement import _girt_init
from eigenwl.spectral import (
    DEFAULT_QUANT,
    Quantization,
    _exact_data,
    _render_code,
    exact_pair_token,
    quantize,
)
from test_distances import rendered_tokens

# sha256 over the exact tokens below as computed by the Fraction-based
# backend this module replaced; any change to an exact token changes it.
GOLDEN_DIGEST = "1b5746327bed6279285481ae1b091899c2961312b01b003ff46e3ed09a4bf218"

# every kind of the exact power table
TABLE_KINDS = (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN, MatrixKind.NORMALIZED_LAPLACIAN, exact.WALK)
DIST_KINDS = ("rd", "htd", "ctd", "biharmonic", "prd", "prd:w=0,1,0.5", "prd:w=1/3,2/7,0,5")
GIRT_STEPS = (1, 4, 16)


def _corpus():
    """Every connected graph with n <= 6, then 24 seeded random graphs with
    n <= 10 (9 of them disconnected, 10 with an isolated vertex)."""
    out = []
    for n in range(1, 7):
        out.extend(enumerate_graphs(n, connected_only=True))
    rng = random.Random(2406)
    for _ in range(24):
        n = rng.randint(2, 10)
        out.append(random_graph(n, rng.uniform(0.15, 0.6), rng.randrange(1 << 30)))
    return out


def _golden_records(graphs):
    for g in graphs:
        yield repr(g).encode()
        kinds = [MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN]
        if not g.has_isolated:
            kinds.append(MatrixKind.NORMALIZED_LAPLACIAN)
        for kind in kinds:
            for u in range(g.n):
                for v in range(g.n):
                    yield exact_pair_token(g, kind, u, v).serialize()
        for text in DIST_KINDS:
            kind = DistanceKind.parse(text)
            if kind.name == "prd" and g.has_isolated:
                continue
            yield kind.label().encode()
            yield from rendered_tokens(distance_tokens(g, kind))
        if not g.has_isolated:
            for k in GIRT_STEPS:
                for codes in _girt_init(g, k, DEFAULT_QUANT).tolist():
                    yield ",".join(_render_code(code, DEFAULT_QUANT.digits) for code in codes).encode()


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def test_golden_digest(corpus):
    assert sum(not g.is_connected() for g in corpus) == 9
    assert sum(g.has_isolated for g in corpus) == 10
    h = hashlib.sha256()
    for rec in _golden_records(corpus):
        h.update(rec + b"\n")
    assert h.hexdigest() == GOLDEN_DIGEST


def _matrix_kinds(g):
    """The matrix kinds with an exact token on the graph."""
    kinds = [MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN]
    if not g.has_isolated:
        kinds.append(MatrixKind.NORMALIZED_LAPLACIAN)
    return kinds


# ---------------------------------------------------------------------------
# oracles that use neither the old nor the new backend


def _bareiss_det(mat):
    """Determinant of a square integer matrix by fraction-free elimination
    with row exchanges."""
    a = [list(row) for row in mat]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev if n else 1


def test_bareiss_det_oracle():
    assert _bareiss_det([]) == 1
    assert _bareiss_det([[0, 1], [1, 0]]) == -1
    assert _bareiss_det([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4
    assert _bareiss_det([[0, 2, 1], [0, 1, 3], [4, 0, 0]]) == 20
    assert _bareiss_det([[1, 2], [2, 4]]) == 0


def test_charpoly_matches_determinant(corpus):
    """The exact tokens' charpoly, taken from the traces of the power
    table, is det(tI - M / scale) at t = 0..n: the characteristic
    polynomial, not just some monic polynomial that annihilates M (for
    A(K4), x^4 - 2x^3 - 3x^2 does too)."""
    for g in corpus:
        for kind in _matrix_kinds(g):
            cp = _exact_data(g, kind)[0]
            scale, (_, mat) = exact.powers(g, kind, 1)
            n = len(mat)
            for t in range(n + 1):
                shifted = [[t * scale * (u == v) - x for v, x in enumerate(row)] for u, row in enumerate(mat)]
                value = sum(c * t ** (n - k) for k, c in enumerate(cp))
                assert value == Fraction(_bareiss_det(shifted), scale**n), (g, kind, t)
    assert exact.charpoly([0, 12, 24, 84]) == [1, 0, -6, -8, -3]  # A(K4): (x - 3)(x + 1)^3


def test_cayley_hamilton(corpus):
    for g in corpus:
        for kind in _matrix_kinds(g):
            _, (_, mat) = exact.powers(g, kind, 1)
            n = len(mat)
            total = [[0] * n for _ in range(n)]
            power = exact.identity(n)
            traces = [sum(p[i][i] for i in range(n)) for p in exact.powers(g, kind, n)[1][1:]]
            for c in reversed(exact.charpoly(traces)):  # c_n M^0 + ... + c_0 M^n
                total = [[t + c * p for t, p in zip(tr, pr)] for tr, pr in zip(total, power)]
                power = exact.matmul(power, mat)
            assert total == [[0] * n for _ in range(n)], (g, kind)


def test_laplacian_pinv_identity(corpus):
    """L L^+ = I - J/n on every component, i.e. n L N = n q I - q J."""
    for g in corpus:
        for comp, (num, den) in zip(g.components(), exact.laplacian_pinvs(g)):
            sub = _subgraph(g, comp)
            n = sub.n
            prod = exact.matmul(exact.int_matrix(sub, MatrixKind.LAPLACIAN), num)
            assert [[n * x for x in row] for row in prod] == [
                [n * den * (i == j) - den for j in range(n)] for i in range(n)
            ], sub
            assert num == [list(col) for col in zip(*num)]  # symmetric
        assert len(exact.laplacian_pinvs(g)) == len(g.components())


def test_laplacian_pinvs_made_once_per_graph(fresh_store, monkeypatch):
    """rd, htd, ctd and biharmonic read one L^+ per component of a graph."""
    calls = []
    original = exact._pinv
    monkeypatch.setattr(exact, "_pinv", lambda lap: calls.append(len(lap)) or original(lap))
    g = random_graph(9, 0.3, 11)
    for name in ("rd", "htd", "ctd", "biharmonic"):
        distance_tokens(g, DistanceKind(name))
    assert sorted(calls) == sorted(map(len, g.components()))


def test_walk_power_rows_sum_to_scale_powers(corpus):
    for g in corpus:
        if g.has_isolated:
            continue
        scale, powers = exact.powers(g, exact.WALK, 16)
        assert scale == lcm(*g.degrees)
        assert len(powers) == 17
        for k, p in enumerate(powers):
            assert all(sum(row) == scale**k for row in p), (g, k)


def test_walk_powers_extend_shared_list(fresh_store):
    """One table per graph and kind, extended in place and stored anew
    when it grows; the exact tokens leave n powers in it, not n + 1."""
    g = path_graph(4)
    for kind in TABLE_KINDS:
        _, short = exact.powers(g, kind, 2)
        first = g.derived[("powers", kind)]
        _, long = exact.powers(g, kind, 5)
        assert len(short) == 3 and len(long) == 6
        assert all(a is b for a, b in zip(short, long))  # extended, not rebuilt
        grown = g.derived[("powers", kind)]
        assert grown is not first and grown[1] is first[1]  # the same list, stored anew
        assert exact.powers(g, kind, 2)[1] == short
        assert g.derived[("powers", kind)] is grown  # not stored again without growth
    assert {key for key in g.derived if key[0] == "powers"} == {("powers", kind) for kind in TABLE_KINDS}
    h = random_connected_graph(7, 0.5, 3)
    for kind in TABLE_KINDS[:3]:
        exact_pair_token(h, kind, 0, 1)
        assert len(h.derived[("powers", kind)][1]) == h.n
        assert _exact_data(h, kind)[2] == h.derived[("powers", kind)][1]


def test_table_rejects_kinds_without_an_exact_form(fresh_store):
    g = complete_graph(3)
    with pytest.raises(ValueError, match="does not support"):
        exact.powers(g, MatrixKind.DEGREE, 1)
    lonely = random_graph(5, 0.0, 1)
    for kind, name in ((MatrixKind.NORMALIZED_LAPLACIAN, "normalized Laplacian"), (exact.WALK, "walk matrix")):
        with pytest.raises(ValueError, match=f"{name} undefined"):
            exact.powers(lonely, kind, 1)


def test_charpoly_small_cases():
    assert exact.charpoly([5, 13]) == [1, -5, 6]  # diag(2, 3)
    assert exact.charpoly([0, 2]) == [1, 0, -1]  # [[0, 1], [1, 0]]
    assert exact.charpoly([]) == [1]
    with pytest.raises(AssertionError, match="exactly"):
        exact.charpoly([1, 2])  # no integer matrix has these traces


# ---------------------------------------------------------------------------
# ratio rounding


def _rounded(p, q, digits=6):
    """p / q rounded by ``exact.round_code``, as the decimal string of its code."""
    return _render_code(exact.round_code(p, q, digits), digits)


@pytest.mark.parametrize(
    "p, q, text",
    [
        (139, 640, "0.217188"),  # 0.2171875: odd 6th digit rounds up
        (1, 128, "0.007812"),  # 0.0078125: even 6th digit stays
        (-139, 640, "-0.217188"),
        (-1, 128, "-0.007812"),
        (3, 2_000_000, "0.000002"),  # 0.0000015 -> even 2
        (5, 2_000_000, "0.000002"),  # 0.0000025 -> even 2
        (-1, 4_000_000, "0.000000"),  # rounds to zero: no sign
        (7, 1, "7.000000"),
    ],
)
def test_round_ratio_ties_and_signs(p, q, text):
    assert _rounded(p, q) == text


def test_round_ratio_ignores_common_factors():
    for p, q in [(139, 640), (-1, 128), (2, 3), (-5, 7), (0, 9)]:
        for k in (2, 3, 27720, 2**70 + 1):
            assert exact.round_code(p * k, q * k, 6) == exact.round_code(p, q, 6)


def test_round_ratio_denominators_above_two_to_the_64():
    q = 27720**16  # l^16 for l = lcm(1..12), as in a 16-step walk power
    assert q > 2**64
    tie = 139 * q // 640
    assert tie * 640 == 139 * q
    assert _rounded(tie, q) == "0.217188"
    assert _rounded(tie - 1, q) == "0.217187"
    assert _rounded(tie + 1, q) == "0.217188"
    assert _rounded(q // 128, q) == "0.007812"
    assert _rounded(q // 128 + 1, q) == "0.007813"
    assert _rounded(-(q // 128), q) == "-0.007812"


def test_round_ratio_matches_float_route_on_dyadic_values():
    """Dyadic rationals are exact doubles, so the float route has no noise."""
    for digits in range(4):
        quant = Quantization(digits=digits)
        for k in range(-300, 301):
            x = Fraction(k, 64)
            assert _rounded(x.numerator, x.denominator, digits) == quantize(float(x), quant), (x, digits)


def test_zero_digits_render_like_float_route():
    quant = Quantization(digits=0)
    assert _rounded(2, 1, 0) == quantize(2.0, quant) == "2"
    # on a tree the resistance (exact route) equals the hop count (float route)
    p3 = path_graph(3)
    assert np.array_equal(distance_tokens(p3, DistanceKind("rd"), quant), distance_tokens(p3, DistanceKind("spd"), quant))


def test_negative_digits_rejected():
    with pytest.raises(ValueError):
        Quantization(digits=-1)


def test_negative_digits_is_usage_error(capsys):
    for alg in ("gdwl:rd", "epwl:A"):
        code = main(["compare", "--alg", alg, "--g", "EQhO", "--h", "EKhO", "--digits", "-1"])
        assert code == 2
        assert "digits" in capsys.readouterr().err
