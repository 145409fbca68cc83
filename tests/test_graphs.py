import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenwl.graphs import (
    AtomicType,
    Graph,
    Graph6Error,
    MatrixKind,
    atomic_type,
    biconnectivity_report,
    build_matrix,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    is_isomorphic,
    parse_graph6,
    path_graph,
    random_graph,
    read_corpus,
    star_graph,
    write_graph6,
)

graphs_strategy = st.builds(
    random_graph,
    n=st.integers(1, 12),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**30),
)


# ---------------------------------------------------------------------------
# construction invariants


def test_rows_must_be_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        Graph(2, (0b10, 0b00))


def test_no_self_loops():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(1, (0b1,))


@settings(max_examples=60)
@given(graphs_strategy)
def test_generated_graphs_are_valid(g):
    for u in range(g.n):
        assert not g.has_edge(u, u)
        for v in range(g.n):
            assert g.has_edge(u, v) == g.has_edge(v, u)


# ---------------------------------------------------------------------------
# graph6


def test_graph6_k2_is_a_underscore(k2):
    assert write_graph6(k2) == "A_"
    assert parse_graph6("A_") == k2


def test_graph6_k3_is_bw():
    # hand-packed upper triangle bits 111 -> one data byte 'w'
    assert write_graph6(complete_graph(3)) == "Bw"


def test_graph6_empty_five():
    g = parse_graph6("D??")
    assert g.n == 5 and g.num_edges == 0 and g.has_isolated


def test_graph6_zero_vertices_round_trip():
    g = parse_graph6("?")
    assert g.n == 0
    assert write_graph6(g) == "?"
    assert parse_graph6(write_graph6(empty_graph(0))) == empty_graph(0)
    assert repr(g) == "Graph('?')"


@settings(max_examples=80)
@given(graphs_strategy)
def test_graph6_round_trip(g):
    assert parse_graph6(write_graph6(g)) == g


def test_graph6_long_form_round_trip():
    g = random_graph(70, 0.1, 5)
    line = write_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line) == g


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("A", "truncated"),
        ("A_X", "trailing garbage"),
        ("A\x1f", "range"),
        ("Aw", "padding"),  # K2 bits 1 then nonzero padding
    ],
)
def test_graph6_errors_carry_offsets(text, fragment):
    with pytest.raises(Graph6Error, match=fragment) as exc:
        parse_graph6(text)
    assert exc.value.offset >= 0


def test_graph6_round_trip_on_corpus(corpus_n5, connected_n6):
    for g in corpus_n5 + connected_n6:
        assert parse_graph6(write_graph6(g)) == g


def test_read_corpus_skips_comments(tmp_path):
    lines = ["# comment", "", "A_", "Bw"]
    graphs = read_corpus(lines)
    assert [g.n for g in graphs] == [2, 3]
    with pytest.raises(Graph6Error, match="line 2"):
        read_corpus(["A_", "A_X"])


# ---------------------------------------------------------------------------
# atomic types and matrices


def test_atomic_type_cases(k2):
    assert atomic_type(k2, 0, 0) is AtomicType.EQUAL
    assert atomic_type(k2, 0, 1) is AtomicType.ADJACENT
    assert atomic_type(empty_graph(2), 0, 1) is AtomicType.NON_ADJACENT
    with pytest.raises(IndexError):
        atomic_type(k2, 0, 2)


def test_k2_laplacians(k2):
    lap = build_matrix(k2, MatrixKind.LAPLACIAN)
    assert np.array_equal(lap, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    # all degrees are 1, so the normalized form coincides
    assert np.allclose(build_matrix(k2, MatrixKind.NORMALIZED_LAPLACIAN), lap)


def test_star_normalized_entry():
    g = star_graph(3)
    nl = build_matrix(g, MatrixKind.NORMALIZED_LAPLACIAN)
    assert nl[0, 1] == pytest.approx(-1.0 / math.sqrt(3.0))


def test_normalized_laplacian_rejects_isolated():
    with pytest.raises(ValueError, match="isolated"):
        build_matrix(empty_graph(3), MatrixKind.NORMALIZED_LAPLACIAN)


@settings(max_examples=30)
@given(graphs_strategy)
def test_matrices_are_symmetric(g):
    for kind in (MatrixKind.ADJACENCY, MatrixKind.DEGREE, MatrixKind.LAPLACIAN):
        m = build_matrix(g, kind)
        assert np.max(np.abs(m - m.T)) == 0.0


# ---------------------------------------------------------------------------
# isomorphism oracle


def test_iso_c6_relabel(c6):
    perm = [3, 1, 5, 0, 2, 4]
    mapping = is_isomorphic(c6, c6.relabel(perm))
    assert mapping is not None
    for u, v in c6.edges():
        assert c6.relabel(perm).has_edge(mapping[u], mapping[v])


def test_iso_c6_vs_two_triangles(c6, two_triangles):
    assert is_isomorphic(c6, two_triangles) is None


def test_iso_edge_count_mismatch():
    k4 = complete_graph(4)
    k4_minus = Graph.from_edges(4, [e for e in k4.edges()][:-1])
    assert is_isomorphic(k4, k4_minus) is None


def test_iso_is_equivalence_relation(corpus_n5):
    rng = random.Random(7)
    sample = rng.sample(corpus_n5, 12)
    for g in sample:
        assert is_isomorphic(g, g) is not None  # reflexive
    for g, h in combinations(sample, 2):
        assert (is_isomorphic(g, h) is not None) == (is_isomorphic(h, g) is not None)
    # transitivity on relabels
    g = random_graph(7, 0.5, 3)
    h = g.relabel(rng.sample(range(7), 7))
    k = h.relabel(rng.sample(range(7), 7))
    assert is_isomorphic(g, h) and is_isomorphic(h, k) and is_isomorphic(g, k)


# ---------------------------------------------------------------------------
# biconnectivity


def test_biconnectivity_path(p3):
    rep = biconnectivity_report(p3)
    assert rep.cut_vertices == {1}
    assert rep.cut_edges == {(0, 1), (1, 2)}
    assert rep.biconnected_component_count == 2


def test_biconnectivity_cycle():
    rep = biconnectivity_report(cycle_graph(4))
    assert not rep.cut_vertices and not rep.cut_edges
    assert rep.biconnected_component_count == 1


def test_biconnectivity_bowtie():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    rep = biconnectivity_report(g)
    assert rep.cut_vertices == {2}
    assert not rep.cut_edges
    assert rep.biconnected_component_count == 2


def _components_after(g, removed_vertex=None, removed_edge=None):
    if removed_vertex is not None:
        keep = [v for v in range(g.n) if v != removed_vertex]
        sub = Graph.from_edges(
            len(keep),
            [
                (keep.index(u), keep.index(v))
                for u, v in g.edges()
                if u != removed_vertex and v != removed_vertex
            ],
        )
        return len(sub.components())
    edges = [e for e in g.edges() if e != removed_edge]
    return len(Graph.from_edges(g.n, edges).components())


def _brute_force_blocks(g):
    """Maximal vertex sets inducing a connected subgraph without a cut
    vertex (vertex- and edge-deletion counting only)."""
    bicon_sets = []
    for size in range(2, g.n + 1):
        for combo in combinations(range(g.n), size):
            sub_edges = [
                (combo.index(u), combo.index(v))
                for u, v in g.edges()
                if u in combo and v in combo
            ]
            sub = Graph.from_edges(size, sub_edges)
            if len(sub.components()) != 1:
                continue
            base = len(sub.components())
            if all(_components_after(sub, removed_vertex=v) <= base for v in range(size)):
                bicon_sets.append(frozenset(combo))
    maximal = [s for s in bicon_sets if not any(s < t for t in bicon_sets)]
    return len(maximal)


def _brute_force_report(g):
    base = len(g.components())
    cuts = frozenset(v for v in range(g.n) if _components_after(g, removed_vertex=v) > base)
    bridges = frozenset(e for e in g.edges() if _components_after(g, removed_edge=e) > base)
    return cuts, bridges, _brute_force_blocks(g)


def test_biconnectivity_matches_brute_force_exhaustively():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            rep = biconnectivity_report(g)
            cuts, bridges, blocks = _brute_force_report(g)
            assert rep.cut_vertices == cuts, write_graph6(g)
            assert rep.cut_edges == bridges, write_graph6(g)
            assert rep.biconnected_component_count == blocks, write_graph6(g)


def test_biconnectivity_matches_brute_force_random_n8():
    rng = random.Random(42)
    for _ in range(60):
        g = random_graph(8, rng.uniform(0.2, 0.7), rng.randrange(1 << 30))
        rep = biconnectivity_report(g)
        cuts, bridges, blocks = _brute_force_report(g)
        assert (rep.cut_vertices, rep.cut_edges, rep.biconnected_component_count) == (
            cuts,
            bridges,
            blocks,
        )


# ---------------------------------------------------------------------------
# enumeration, sampling, unions


def test_enumeration_counts_match_known_values():
    # numbers of isomorphism classes (all / connected) on n vertices
    known = {1: (1, 1), 2: (2, 1), 3: (4, 2), 4: (11, 6), 5: (34, 21), 6: (156, 112), 7: (1044, 853)}
    for n, (total, connected) in known.items():
        assert len(list(enumerate_graphs(n))) == total
        assert len(list(enumerate_graphs(n, connected_only=True))) == connected


def test_enumeration_yields_distinct_classes():
    graphs = list(enumerate_graphs(5))
    for g, h in combinations(graphs, 2):
        assert is_isomorphic(g, h) is None


def test_enumeration_refuses_large_n():
    with pytest.raises(ValueError, match="random_graph"):
        list(enumerate_graphs(10))


def test_random_graph_extremes_and_determinism():
    assert random_graph(5, 0.0, 1) == empty_graph(5)
    assert random_graph(5, 1.0, 1) == complete_graph(5)
    assert random_graph(9, 0.37, 123) == random_graph(9, 0.37, 123)


def test_disjoint_union(k2):
    two_k2 = disjoint_union(k2, k2)
    assert two_k2.n == 4 and two_k2.num_edges == 2
    assert disjoint_union(k2, empty_graph(0)) == k2
    g = random_graph(5, 0.6, 2)
    h = random_graph(4, 0.4, 3)
    assert disjoint_union(g, h).num_edges == g.num_edges + h.num_edges
