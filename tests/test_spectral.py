import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenwl.graphs import (
    MatrixKind,
    atomic_type,
    build_matrix,
    complete_graph,
    cycle_graph,
    random_connected_graph,
    random_graph,
    write_graph6,
)
from eigenwl.spectral import (
    DEFAULT_QUANT,
    EPS_ALG,
    Quantization,
    SpectralDecomposition,
    decompose,
    decomposition_for,
    dump_decomposition,
    exact_pair_token,
    pair_token,
    quantize,
    spectrum_token,
    validate_decomposition,
)
from test_refinement import _digest_corpus, _hypercube


def test_quantize_rounding_and_negative_zero():
    assert quantize(-1e-9) == "0.000000"  # negative zero is normalized
    assert quantize(1.9999999999999996) == "2.000000"
    assert quantize(-0.25) == "-0.250000"
    assert quantize(1.0 / 3.0) == "0.333333"
    assert quantize(2.0 / 3.0) == "0.666667"
    assert quantize(0.4, Quantization(digits=1)) == "0.4"


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
def test_quantization_rejects_a_gap_scale_that_is_not_positive_and_finite(scale):
    # at 0 or below, every eigenvalue of Q4 is its own cluster and the
    # projectors of its repeated eigenvalues depend on the eigenbasis
    with pytest.raises(ValueError, match="eig_gap_scale"):
        Quantization(eig_gap_scale=scale)


def test_decompose_k2_adjacency():
    dec = decompose(build_matrix(complete_graph(2), MatrixKind.ADJACENCY))
    assert dec.eigenvalues == (-1.0, 1.0)
    assert dec.multiplicities == (1, 1)
    projs = dec.projectors()
    assert np.allclose(projs[0], [[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(projs[1], [[0.5, 0.5], [0.5, 0.5]])


def test_decompose_c4_normalized():
    g = cycle_graph(4)
    m = build_matrix(g, MatrixKind.NORMALIZED_LAPLACIAN)
    # numeric eigensolver oracle on the raw 4x4 matrix
    oracle = sorted(np.linalg.eigvalsh(m))
    assert np.allclose(oracle, [0.0, 1.0, 1.0, 2.0])
    dec = decompose(m)
    assert np.allclose(dec.eigenvalues, [0.0, 1.0, 2.0])
    assert dec.multiplicities == (1, 2, 1)
    assert np.allclose(dec.projectors()[0], np.full((4, 4), 0.25))


def test_decompose_identity():
    dec = decompose(np.eye(5))
    assert dec.eigenvalues == (1.0,)
    assert dec.multiplicities == (5,)
    assert np.allclose(dec.projectors()[0], np.eye(5))


def test_decompose_requires_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _reference_projectors(matrix, quant):
    """Projectors built straight from ``eigh``: clusters split at gaps
    above tau, then each cluster's Gram matrix ``block @ block.T``,
    symmetrized, one array each."""
    w, v = np.linalg.eigh(matrix)
    tau = quant.eig_gap_scale * max(1.0, float(np.max(np.abs(matrix))))
    bounds = [0, *(np.flatnonzero(np.diff(w) > tau) + 1).tolist(), len(w)]
    out = []
    for a, b in zip(bounds, bounds[1:]):
        block = v[:, list(range(a, b))]
        proj = block @ block.T
        out.append((proj + proj.T) / 2.0)
    return out


@pytest.mark.parametrize("kind", [MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN, MatrixKind.NORMALIZED_LAPLACIAN])
def test_projectors_built_from_blocks_equal_the_reference_bit_for_bit(kind):
    for g in [*_digest_corpus(), _hypercube(5), random_connected_graph(48, 0.2, 5)]:
        projs = decomposition_for(g, kind).projectors()
        ref = _reference_projectors(build_matrix(g, kind), DEFAULT_QUANT)
        assert len(projs) == len(ref)
        assert all(np.array_equal(p, r) for p, r in zip(projs, ref)), write_graph6(g)


def test_validate_decomposition_detects_missing_projection():
    g = cycle_graph(5)
    m = build_matrix(g, MatrixKind.ADJACENCY)
    dec = decomposition_for(g, MatrixKind.ADJACENCY)
    broken = SpectralDecomposition(
        dec.eigenvalues,
        dec.multiplicities,
        (np.zeros_like(dec.blocks[0]), *dec.blocks[1:]),
    )
    rep = validate_decomposition(broken, m)
    assert not rep.passed()
    assert rep.completeness >= dec.multiplicities[0] / g.n - 1e-12


def test_reconstruction_exact_for_k2():
    g = complete_graph(2)
    rep = validate_decomposition(
        decomposition_for(g, MatrixKind.ADJACENCY), build_matrix(g, MatrixKind.ADJACENCY)
    )
    assert rep.reconstruction < 1e-12


def test_pair_token_k2_values():
    tok = pair_token(complete_graph(2), MatrixKind.ADJACENCY, 0, 1)
    assert tok.data == b"P[A]-1.000000:-0.500000;1.000000:0.500000"


def test_pair_token_diagonal_sums_to_one():
    g = random_graph(7, 0.5, 11)
    dec = decomposition_for(g, MatrixKind.ADJACENCY)
    projs = dec.projectors()
    for u in range(g.n):
        assert sum(p[u, u] for p in projs) == pytest.approx(1.0)


def test_pair_token_symmetry_and_relabeling():
    g = random_graph(7, 0.45, 21)
    perm = [4, 0, 6, 2, 1, 5, 3]
    h = g.relabel(perm)
    for kind in (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN):
        for u in range(g.n):
            for v in range(g.n):
                assert pair_token(g, kind, u, v) == pair_token(g, kind, v, u)
                assert pair_token(g, kind, u, v) == pair_token(h, kind, perm[u], perm[v])


def test_diagonal_tokens_distinguish_c6_from_triangles(c6, two_triangles):
    # eigenvalue multisets differ, so every diagonal token differs
    assert spectrum_token(c6, MatrixKind.ADJACENCY) != spectrum_token(
        two_triangles, MatrixKind.ADJACENCY
    )
    assert pair_token(c6, MatrixKind.ADJACENCY, 0, 0) != pair_token(
        two_triangles, MatrixKind.ADJACENCY, 0, 0
    )


def test_spectrum_token_complete_graph_laplacian():
    # classical complete-graph spectrum {0, n^(n-1)}; numeric oracle cross-check
    for n in (3, 5):
        g = complete_graph(n)
        oracle = np.linalg.eigvalsh(build_matrix(g, MatrixKind.LAPLACIAN))
        assert np.allclose(sorted(oracle), [0.0] + [float(n)] * (n - 1))
        dec = decomposition_for(g, MatrixKind.LAPLACIAN)
        assert dec.eigenvalues == (0.0, float(n))
        assert dec.multiplicities == (1, n - 1)


def test_atomic_type_encoded_in_pair_tokens(connected_n7):
    """Equal pair tokens imply equal atomic type, across all corpus graphs."""
    for kind in (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN, MatrixKind.NORMALIZED_LAPLACIAN):
        seen = {}
        for g in connected_n7:
            if kind is MatrixKind.NORMALIZED_LAPLACIAN and g.has_isolated:
                continue
            for u in range(g.n):
                for v in range(g.n):
                    tok = pair_token(g, kind, u, v).data
                    atp = atomic_type(g, u, v)
                    assert seen.setdefault(tok, atp) == atp, (kind, write_graph6(g), u, v)


# ---------------------------------------------------------------------------
# exact backend


def test_exact_token_k2():
    tok = exact_pair_token(complete_graph(2), MatrixKind.ADJACENCY, 0, 1)
    assert tok.charpoly == (Fraction(1), Fraction(0), Fraction(-1))  # x^2 - 1
    assert tok.moments == (Fraction(0), Fraction(1))
    relabeled = exact_pair_token(complete_graph(2), MatrixKind.ADJACENCY, 1, 0)
    assert tok == relabeled


def test_exact_token_p3_endpoints(p3):
    tok = exact_pair_token(p3, MatrixKind.ADJACENCY, 0, 2)
    assert tok.moments == (Fraction(0), Fraction(0), Fraction(1))


def test_exact_token_normalized_carries_degrees(p3):
    tok = exact_pair_token(p3, MatrixKind.NORMALIZED_LAPLACIAN, 0, 1)
    assert tok.degrees == (1, 2)
    assert tok.kind == "Lhat"


def test_exact_token_rejects_degree_kind(p3):
    with pytest.raises(ValueError):
        exact_pair_token(p3, MatrixKind.DEGREE, 0, 1)


def test_equal_float_tokens_have_equal_exact_tokens_on_random_graphs():
    rng = random.Random(5)
    for _ in range(10):
        g = random_graph(8, rng.uniform(0.3, 0.7), rng.randrange(1 << 30))
        for kind in (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN):
            by_float = {}
            by_exact = {}
            for u in range(g.n):
                for v in range(g.n):
                    ft = pair_token(g, kind, u, v).data
                    et = exact_pair_token(g, kind, u, v)
                    assert by_float.setdefault(ft, et) == et
                    assert by_exact.setdefault(et, ft) == ft


def test_coarse_quantization_breaks_exact_agreement():
    """Fault injection: one-digit rounding merges genuinely distinct values.

    The witness graph was found by sweeping the connected 7-vertex
    classes; at full precision the same sweep has zero collisions.
    """
    from eigenwl.graphs import parse_graph6

    g = parse_graph6("F?bFg")
    coarse = Quantization(digits=1)
    collisions = 0
    by_float = {}
    for u in range(g.n):
        for v in range(g.n):
            ft = pair_token(g, MatrixKind.LAPLACIAN, u, v, coarse).data
            et = exact_pair_token(g, MatrixKind.LAPLACIAN, u, v)
            if by_float.setdefault(ft, et) != et:
                collisions += 1
    assert collisions > 0


def test_token_digests_are_stable_128_bit(k2):
    tok = pair_token(k2, MatrixKind.ADJACENCY, 0, 1)
    assert len(tok.digest) == 32  # blake2b-128 hex
    assert tok.digest == pair_token(k2, MatrixKind.ADJACENCY, 1, 0).digest
    et = exact_pair_token(k2, MatrixKind.ADJACENCY, 0, 1)
    assert et.serialize().startswith(b"X[A]")
    assert len(et.digest) == 32


def test_dump_decomposition_json(k2):
    record = json.loads(dump_decomposition(k2, MatrixKind.ADJACENCY))
    assert record["kind"] == "A"
    assert record["eigenvalues"] == [-1.0, 1.0]
    assert record["multiplicities"] == [1, 1]
    # 17 significant digits round-trip the raw doubles, solver noise included
    assert np.allclose(record["projections"][1], [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.floats(0.15, 0.85), st.integers(0, 2**30))
def test_decomposition_invariants_hold(n, p, seed):
    g = random_graph(n, p, seed)
    for kind in (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN):
        m = build_matrix(g, kind)
        rep = validate_decomposition(decompose(m), m)
        assert rep.passed(EPS_ALG)
