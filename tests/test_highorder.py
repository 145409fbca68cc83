from itertools import combinations
from math import comb

import pytest

from eigenwl.graphs import (
    MatrixKind,
    complete_graph,
    is_isomorphic,
    random_connected_graph,
)
from eigenwl.highorder import token_graph
from eigenwl.spectral import pair_token, spectrum_token


def _spectrum(g, k, kind):
    return spectrum_token(token_graph(g, k).product, kind)


def _pair(g, k, kind, a, b):
    tg = token_graph(g, k)
    return pair_token(tg.product, kind, tg.index_of(a), tg.index_of(b))


def test_order_one_reproduces_base():
    for seed in (1, 2, 3):
        g = random_connected_graph(7, 0.5, seed)
        assert token_graph(g, 1).product == g


def test_k3_second_power_is_k3():
    tg = token_graph(complete_graph(3), 2)
    assert tg.product.n == 3
    assert is_isomorphic(tg.product, complete_graph(3)) is not None


def test_k2_second_power_is_isolated_vertex(k2):
    tg = token_graph(k2, 2)
    assert tg.product.n == 1
    assert tg.product.num_edges == 0
    assert tg.product.has_isolated
    with pytest.raises(ValueError, match="isolated"):
        _spectrum(k2, 2, MatrixKind.NORMALIZED_LAPLACIAN)


def test_vertex_count_is_binomial():
    g = random_connected_graph(7, 0.4, 5)
    for k in (1, 2, 3):
        assert token_graph(g, k).product.n == comb(7, k)


def test_order_bounds_and_size_cap():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="order k"):
        token_graph(g, 0)
    with pytest.raises(ValueError, match="order k"):
        token_graph(g, 5)
    big = random_connected_graph(25, 0.3, 1)
    with pytest.raises(ValueError, match="cap"):
        token_graph(big, 6)


def test_edges_match_brute_force_recount():
    for n in range(3, 8):
        g = random_connected_graph(n, 0.5, n)
        for k in range(1, min(3, n - 1) + 1):
            tg = token_graph(g, k)
            masks = tg.subsets
            for i, j in combinations(range(len(masks)), 2):
                diff = masks[i] ^ masks[j]
                expect = False
                if diff.bit_count() == 2:
                    a = diff & -diff
                    b = diff ^ a
                    expect = g.has_edge(a.bit_length() - 1, b.bit_length() - 1)
                assert tg.product.has_edge(i, j) == expect


def test_relabeling_equivariance():
    g = random_connected_graph(6, 0.5, 9)
    perm = [3, 5, 0, 2, 4, 1]
    h = g.relabel(perm)
    for k in (2, 3):
        assert is_isomorphic(token_graph(g, k).product, token_graph(h, k).product) is not None


def test_spectrum_at_order_one_matches_base():
    g = random_connected_graph(6, 0.5, 4)
    for kind in (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN):
        assert _spectrum(g, 1, kind) == spectrum_token(g, kind)


def test_second_power_separates_c6_from_triangles(c6, two_triangles):
    a = _spectrum(c6, 2, MatrixKind.ADJACENCY)
    b = _spectrum(two_triangles, 2, MatrixKind.ADJACENCY)
    assert a != b


def test_isomorphic_inputs_share_spectra():
    g = random_connected_graph(6, 0.5, 11)
    h = g.relabel([5, 3, 1, 0, 4, 2])
    assert _spectrum(g, 2, MatrixKind.ADJACENCY) == _spectrum(h, 2, MatrixKind.ADJACENCY)


def test_projection_entry_order_one(c6):
    assert _pair(c6, 1, MatrixKind.ADJACENCY, (1,), (4,)) == pair_token(
        c6, MatrixKind.ADJACENCY, 1, 4
    )


def test_projection_entry_forgets_tuple_order():
    g = random_connected_graph(6, 0.5, 2)
    tg = token_graph(g, 2)
    assert tg.index_of((0, 3)) == tg.index_of((3, 0))
    a = _pair(g, 2, MatrixKind.ADJACENCY, (0, 3), (1, 4))
    b = _pair(g, 2, MatrixKind.ADJACENCY, (3, 0), (4, 1))
    assert a == b


def test_projection_entry_diagonal_sums_to_one():
    from eigenwl.spectral import decomposition_for

    g = random_connected_graph(5, 0.6, 8)
    tg = token_graph(g, 2)
    dec = decomposition_for(tg.product, MatrixKind.ADJACENCY)
    idx = tg.index_of((1, 3))
    assert sum(p[idx, idx] for p in dec.projectors()) == pytest.approx(1.0)


def test_projection_entry_rejects_repeats():
    tg = token_graph(random_connected_graph(5, 0.5, 3), 2)
    with pytest.raises(ValueError, match="repeated"):
        tg.index_of((1, 1))
    with pytest.raises(ValueError, match="distinct"):
        tg.index_of((1,))
    with pytest.raises(IndexError, match="out of range"):
        tg.index_of((0, 5))


def test_index_of_round_trips_every_subset():
    g = random_connected_graph(6, 0.5, 4)
    for k in (1, 2, 3):
        tg = token_graph(g, k)
        for p, mask in enumerate(tg.subsets):
            assert tg.index_of([v for v in range(g.n) if mask >> v & 1]) == p


def test_token_graph_builds_compare_equal():
    g = random_connected_graph(6, 0.5, 4)
    a, b = token_graph(g, 2), token_graph(g, 2)
    assert a == b and hash(a) == hash(b)
    assert "positions" not in repr(a)
    assert a != token_graph(g, 3)
