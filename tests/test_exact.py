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
from eigenwl.graphs import MatrixKind, enumerate_graphs, path_graph, random_graph
from eigenwl.refinement import _girt_init
from eigenwl.spectral import (
    DEFAULT_QUANT,
    Quantization,
    _exact_matrix,
    _render_code,
    _walk_powers,
    exact_pair_token,
    quantize,
)
from test_distances import rendered_tokens

# sha256 over the exact tokens below as computed by the Fraction-based
# backend this module replaced; any change to an exact token changes it.
GOLDEN_DIGEST = "1b5746327bed6279285481ae1b091899c2961312b01b003ff46e3ed09a4bf218"

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


# ---------------------------------------------------------------------------
# oracles that use neither the old nor the new backend


def test_cayley_hamilton(corpus):
    for g in corpus:
        kinds = [MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN]
        if not g.has_isolated:
            kinds.append(MatrixKind.NORMALIZED_LAPLACIAN)
        for kind in kinds:
            _, mat = _exact_matrix(g, kind)
            n = len(mat)
            total = [[0] * n for _ in range(n)]
            power = exact.identity(n)
            for c in reversed(exact.charpoly(mat)):  # c_n M^0 + ... + c_0 M^n
                total = [[t + c * p for t, p in zip(tr, pr)] for tr, pr in zip(total, power)]
                power = exact.matmul(power, mat)
            assert total == [[0] * n for _ in range(n)], (g, kind)


def test_laplacian_pinv_identity(corpus):
    """L L^+ = I - J/n on every component, i.e. n L N = n q I - q J."""
    for g in corpus:
        for comp in g.components():
            sub = _subgraph(g, comp)
            num, den = exact.laplacian_pinv(sub)
            n = sub.n
            prod = exact.matmul(exact.int_matrix(sub, MatrixKind.LAPLACIAN), num)
            assert [[n * x for x in row] for row in prod] == [
                [n * den * (i == j) - den for j in range(n)] for i in range(n)
            ], sub
            assert num == [list(col) for col in zip(*num)]  # symmetric


def test_walk_power_rows_sum_to_scale_powers(corpus):
    for g in corpus:
        if g.has_isolated:
            continue
        scale, powers = _walk_powers(g, 16)
        assert scale == lcm(*g.degrees)
        assert len(powers) == 17
        for k, p in enumerate(powers):
            assert all(sum(row) == scale**k for row in p), (g, k)


def test_walk_powers_extend_shared_list():
    g = path_graph(4)
    _, short = _walk_powers(g, 2)
    _, long = _walk_powers(g, 5)
    assert len(short) == 3 and len(long) == 6
    assert long[:3] == short
    assert _walk_powers(g, 2)[1] == short


def test_charpoly_small_cases():
    assert exact.charpoly([[2, 0], [0, 3]]) == [1, -5, 6]
    assert exact.charpoly([[0, 1], [1, 0]]) == [1, 0, -1]
    assert exact.charpoly([]) == [1]


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
