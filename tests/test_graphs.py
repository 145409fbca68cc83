import hashlib
import math
import random
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenwl import furer
from eigenwl.graphs import (
    _canonical_form,
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
    random_graph,
    read_corpus,
    star_graph,
    write_graph6,
)
from test_refinement import _hypercube

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


@pytest.mark.parametrize(
    "n, rows, fragment",
    [
        (2, (0b10, 0b00), "symmetric"),
        (3, (0b000, 0b100, 0b000), "symmetric"),
        (2, (0b01, 0b00), "self-loop"),
        (2, (0b110, 0b001), "beyond vertex range"),
        (2, (-1, 0), "beyond vertex range"),
        (2, (0b10,), "row count"),
        (-1, (), "row count"),
    ],
)
def test_public_constructor_keeps_every_check(n, rows, fragment):
    with pytest.raises(ValueError, match=fragment):
        Graph(n, rows)


def _twists():
    fg = furer.furer(cycle_graph(4))
    twisted = furer.twist(fg, [(0, 1)])
    return [twisted, furer.twist(fg, [(1, 2)], start=twisted)]


_BUILDER_OUTPUTS = {
    "parse_graph6": lambda: [parse_graph6(line) for line in ("?", "@", "A_", "Bw", "EhEG", write_graph6(random_graph(70, 0.3, 4)))],
    "from_edges": lambda: [Graph.from_edges(0, []), Graph.from_edges(5, [(0, 4), (4, 0), (1, 2)])],
    "relabel": lambda: [_hypercube(3).relabel([7, 6, 5, 4, 3, 2, 1, 0]), cycle_graph(5).relabel([2, 0, 4, 1, 3])],
    "random_graph": lambda: [random_graph(n, p, seed) for n, p, seed in ((0, 0.5, 1), (1, 0.5, 1), (9, 0.4, 2), (70, 0.3, 3))],
    "furer": lambda: [furer.furer(cycle_graph(4)).product, furer.furer(complete_graph(4)).product],
    "twist": _twists,
}


@pytest.mark.parametrize("builder", list(_BUILDER_OUTPUTS))
def test_unchecked_builders_equal_checked_constructions(builder):
    """These builders make their rows symmetric, loop-free and in range,
    so they skip the constructor's checks; the checked construction of
    the same rows passes and gives an equal graph."""
    for g in _BUILDER_OUTPUTS[builder]():
        checked = Graph(g.n, g.rows)
        assert type(g) is Graph and g == checked and hash(g) == hash(checked)


def test_unchecked_builders_reject_bad_input():
    with pytest.raises(ValueError, match="nonnegative"):
        Graph.from_edges(-1, [])
    with pytest.raises(ValueError, match="nonnegative"):
        random_graph(-1, 0.5, 1)
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError, match="permutation"):
        cycle_graph(3).relabel([0, 0, 1])
    with pytest.raises(ValueError, match="product's vertices"):
        furer.twist(furer.furer(cycle_graph(4)), [(0, 1)], start=cycle_graph(5))


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


def _brute_isomorphism(g, h):
    """A bijection mapping g's edges onto h's, or None: degree-preserving
    images tried vertex by vertex, each checked against the vertices
    mapped before it.  Independent of the library's search."""
    if g.n != h.n or g.num_edges != h.num_edges:
        return None
    image = []

    def extend(u):
        if u == g.n:
            return True
        for v in range(h.n):
            if v not in image and h.degree(v) == g.degree(u):
                if all(g.has_edge(u, w) == h.has_edge(v, image[w]) for w in range(u)):
                    image.append(v)
                    if extend(u + 1):
                        return True
                    image.pop()
        return False

    return image if extend(0) else None


def _assert_bijection(g, h, mapping):
    assert sorted(mapping) == list(range(g.n))
    assert all(h.has_edge(mapping[u], mapping[v]) for u, v in g.edges())


def _switched(g, rng, swaps):
    """g after up to ``swaps`` degree-preserving edge switches
    {a, b}, {c, d} -> {a, d}, {c, b}."""
    edges = set(g.edges())
    for _ in range(swaps):
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges -= {(min(a, b), max(a, b)), (min(c, d), max(c, d))}
            edges |= new
    return Graph.from_edges(g.n, sorted(edges))


@settings(max_examples=120)
@given(
    n=st.integers(0, 7),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**30),
    swaps=st.integers(0, 4),
    perm_seed=st.integers(0, 2**30),
)
def test_isomorphism_agrees_with_brute_force(n, p, seed, swaps, perm_seed):
    """Relabelled copies (swaps = 0) and pairs with equal degree sequences."""
    rng = random.Random(perm_seed)
    g = random_graph(n, p, seed)
    h = _switched(g, rng, swaps).relabel(rng.sample(range(n), n))
    assert sorted(g.degrees) == sorted(h.degrees)
    mapping = is_isomorphic(g, h)
    assert (mapping is not None) == (_brute_isomorphism(g, h) is not None)
    if mapping is not None:
        _assert_bijection(g, h, mapping)


def test_isomorphism_finds_bijections_on_fixed_families(rook_4x4, shrikhande):
    rng = random.Random(13)
    families = [_hypercube(d) for d in range(4, 8)] + _fixed_families(rook_4x4, shrikhande)
    for g in families:
        h = g.relabel(rng.sample(range(g.n), g.n))
        mapping = is_isomorphic(g, h)
        assert mapping is not None, g
        _assert_bijection(g, h, mapping)


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
    # (OEIS A000088 / A001349)
    known = {
        1: (1, 1),
        2: (2, 1),
        3: (4, 2),
        4: (11, 6),
        5: (34, 21),
        6: (156, 112),
        7: (1044, 853),
        8: (12346, 11117),
    }
    for n, (total, connected) in known.items():
        assert len(list(enumerate_graphs(n))) == total
        assert len(list(enumerate_graphs(n, connected_only=True))) == connected


def _wl_certificate(g):
    """1-WL colour-class histogram, the bucket key of the reference enumerator."""
    colors = [0] * g.n
    prev = 1
    for _ in range(g.n + 1):
        sigs = [
            (colors[u], tuple(sorted((colors[v], g.rows[u] >> v & 1) for v in range(g.n) if v != u)))
            for u in range(g.n)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [ranks[s] for s in sigs]
        if len(ranks) == prev:
            break
        prev = len(ranks)
    return (g.n, g.num_edges, tuple(sorted(colors)))


def _reference_classes(n, cache={}):
    """The enumerator before canonical forms: every mask of every class on
    n - 1 vertices, deduplicated by 1-WL buckets and pairwise brute-force
    isomorphism."""
    if n not in cache:
        if n == 1:
            reps = [empty_graph(1)]
        else:
            buckets = {}
            for rep in _reference_classes(n - 1):
                for mask in range(1 << (n - 1)):
                    rows = [row | ((mask >> u & 1) << rep.n) for u, row in enumerate(rep.rows)]
                    cand = Graph(n, tuple(rows + [mask]))
                    bucket = buckets.setdefault(_wl_certificate(cand), [])
                    if all(_brute_isomorphism(cand, other) is None for other in bucket):
                        bucket.append(cand)
            reps = [g for bucket in buckets.values() for g in bucket]
            reps.sort(key=lambda g: (g.num_edges, write_graph6(g)))
        cache[n] = reps
    return cache[n]


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_reference_oracle(n):
    expected = [write_graph6(g) for g in _reference_classes(n)]
    assert [write_graph6(g) for g in enumerate_graphs(n)] == expected


def test_enumeration_n7_matches_reference_digest():
    # sha256 of the reference enumerator's n = 7 graph6 lines, joined by newlines
    lines = "\n".join(write_graph6(g) for g in enumerate_graphs(7))
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == "d597801f9146aa6844c801a70b39a5c9df49337dd357deb30663d5e51b99f4f4"


def test_enumeration_yields_distinct_classes():
    graphs = list(enumerate_graphs(5))
    for g, h in combinations(graphs, 2):
        assert _brute_isomorphism(g, h) is None


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


# ---------------------------------------------------------------------------
# canonical form


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def _complete_bipartite(m):
    return Graph.from_edges(2 * m, [(u, m + v) for u in range(m) for v in range(m)])


def _form(g):
    return _canonical_form(g.rows)[0]


def _clique_number(g):
    """Size of the largest clique, each clique grown once in vertex order."""

    def grow(candidates, size):
        best = size
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            best = max(best, grow(candidates & g.rows[low.bit_length() - 1], size + 1))
        return best

    return grow((1 << g.n) - 1, 0)


def _group_order(generators, n):
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for gen in generators:
            q = tuple(gen[x] for x in p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen)


def _is_automorphism(g, perm):
    return sorted(perm) == list(range(g.n)) and all(g.has_edge(perm[u], perm[v]) for u, v in g.edges())


@settings(max_examples=80)
@given(
    n=st.integers(0, 10),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**30),
    perm_seed=st.integers(0, 2**30),
)
def test_canonical_form_survives_relabelling(n, p, seed, perm_seed):
    g = random_graph(n, p, seed)
    perm = random.Random(perm_seed).sample(range(n), n)
    assert _form(g.relabel(perm)) == _form(g)


def _fixed_families(rook_4x4, shrikhande):
    families = [cycle_graph(n) for n in range(3, 13)]
    families += [_complete_bipartite(m) for m in range(1, 6)]
    return families + [_petersen(), rook_4x4, shrikhande]


def test_canonical_form_survives_relabelling_on_fixed_families(rook_4x4, shrikhande):
    rng = random.Random(11)
    for g in _fixed_families(rook_4x4, shrikhande):
        form = _form(g)
        for _ in range(3):
            assert _form(g.relabel(rng.sample(range(g.n), g.n))) == form, g


def test_canonical_form_equality_agrees_with_isomorphism(corpus_n5, rook_4x4, shrikhande):
    rng = random.Random(5)
    graphs = corpus_n5 + [g.relabel(rng.sample(range(g.n), g.n)) for g in corpus_n5]
    forms = [_form(g) for g in graphs]
    for (g, fg), (h, fh) in combinations(zip(graphs, forms), 2):
        assert (fg == fh) == (_brute_isomorphism(g, h) is not None), (g, h)
    # too large for brute force: clique numbers tell the two apart
    assert (_clique_number(rook_4x4), _clique_number(shrikhande)) == (4, 3)
    assert _form(rook_4x4) != _form(shrikhande)


def test_reported_automorphisms_generate_the_automorphism_group(corpus_n5, rook_4x4, shrikhande):
    for g in corpus_n5:
        _, automorphisms = _canonical_form(g.rows)
        assert all(_is_automorphism(g, p) for p in automorphisms)
        brute = sum(_is_automorphism(g, p) for p in permutations(range(g.n)))
        assert _group_order(automorphisms, g.n) == brute, g
    known = {cycle_graph(n): 2 * n for n in range(3, 13)}
    known.update({_complete_bipartite(m): 2 * math.factorial(m) ** 2 for m in range(2, 6)})
    known.update({_petersen(): 120, rook_4x4: 1152, shrikhande: 192})
    for g, order in known.items():
        _, automorphisms = _canonical_form(g.rows)
        assert all(_is_automorphism(g, p) for p in automorphisms), g
        assert _group_order(automorphisms, g.n) == order, g
