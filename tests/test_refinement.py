import dataclasses
import hashlib
import importlib.util
import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenwl.distances import DistanceKind
from eigenwl.graphs import (
    Graph,
    MatrixKind,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    path_graph,
    random_connected_graph,
    random_graph,
    star_graph,
)
from eigenwl import furer, refinement
from eigenwl.refinement import (
    _VARIANTS,
    AlgorithmSpec,
    InternalError,
    UsageError,
    compare_partitions,
    distinguishes,
    initial_coloring,
    joint_initial_coloring,
    refine_once,
    signature,
    signatures,
    stable_coloring,
)

ALL_SPEC_LABELS = [
    "wl1",
    "epwl:A",
    "epwl:L",
    "epwl:Lhat",
    "swl",
    "pswl",
    "fwl2",
    "gdwl:spd",
    "gdwl:rd",
    "gdwl:htd",
    "gdwl:ctd",
    "gdwl:prd",
    "gdwl:diffusion",
    "gdwl:biharmonic",
    "spectralign:A",
    "siamese:Lhat",
    "weakspectralign:L",
    "basisnet:A:layers=1",
    "spe:A",
    "peg:Lhat",
    "girt:K=8",
    "ign2wl",
    "ign2wl:atp",
    "ign2wl:proj:A",
]


# ---------------------------------------------------------------------------
# spec grammar


def test_spec_labels_round_trip():
    for label in DIGEST_SPEC_LABELS:
        spec = AlgorithmSpec.parse(label)
        assert AlgorithmSpec.parse(spec.label()) == spec, label


def test_spec_grammar_variants():
    assert AlgorithmSpec.parse("epwl:Lhat").kind is MatrixKind.NORMALIZED_LAPLACIAN
    assert AlgorithmSpec.parse("gdwl:prd:w=0,1,0.5").distance.weights == (0.0, 1.0, 0.5)
    assert AlgorithmSpec.parse("basisnet:A:layers=2").layers == 2
    assert AlgorithmSpec.parse("girt:K=4").steps == 4
    # bare distance specs are gdwl shorthand
    assert AlgorithmSpec.parse("prd:w=0,1,0.5").variant == "gdwl"
    assert AlgorithmSpec.parse("sign:A") == AlgorithmSpec.parse("spectralign:A")


@pytest.mark.parametrize(
    "bad",
    ["epwl", "epwl:D", "wl1:A", "basisnet", "basisnet:A:layer=1", "girt:J=2", "gdwl", "bogus"],
)
def test_spec_grammar_rejects(bad):
    with pytest.raises(UsageError):
        AlgorithmSpec.parse(bad)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"variant": "wl1", "kind": MatrixKind.ADJACENCY},
        {"variant": "girt", "steps": 4, "kind": MatrixKind.LAPLACIAN},
        {"variant": "ign2wl", "init": "atp", "kind": MatrixKind.ADJACENCY},
        {"variant": "gdwl", "distance": DistanceKind.parse("rd"), "kind": MatrixKind.ADJACENCY},
        {"variant": "epwl", "kind": MatrixKind.ADJACENCY, "distance": DistanceKind.parse("spd")},
        {"variant": "fwl2", "steps": 4},
        {"variant": "epwl", "kind": MatrixKind.ADJACENCY, "layers": 2},
        {"variant": "basisnet", "kind": MatrixKind.ADJACENCY, "steps": 8},
    ],
)
def test_spec_rejects_parameters_its_variant_does_not_take(kwargs):
    # label() drops such a parameter, so parse(label()) would give another spec
    with pytest.raises(UsageError):
        AlgorithmSpec(**kwargs)


def test_lhat_specs_reject_isolated_vertices():
    g = disjoint_union(complete_graph(2), complete_graph(1))
    with pytest.raises(UsageError, match="isolated"):
        stable_coloring(AlgorithmSpec.parse("epwl:Lhat"), [g])


# ---------------------------------------------------------------------------
# initial colorings


def test_wl1_initial_is_constant():
    state = initial_coloring(AlgorithmSpec.parse("wl1"), random_connected_graph(6, 0.5, 1))
    assert len(set(state.colors[0])) == 1


def test_swl_initial_marks_diagonal(k2):
    state = initial_coloring(AlgorithmSpec.parse("swl"), k2)
    colors = state.colors[0]
    n = 2
    diag = {colors[u * n + u] for u in range(n)}
    off = {colors[u * n + v] for u in range(n) for v in range(n) if u != v}
    assert len(diag) == 1 and len(off) == 1 and diag != off


def test_spectral_ign_initial_domain_on_k2(k2):
    state = initial_coloring(AlgorithmSpec.parse("spectralign:A"), k2)
    # two distinct eigenvalues, four ordered pairs each
    assert state.domain_size(0) == 8
    # colors keyed by (eigenvalue, projection entry): three distinct values
    # {(-1, .5), (-1, -.5), (1, .5)} since the +1 slice is constant
    assert len(set(state.colors[0])) == 3


# ---------------------------------------------------------------------------
# single refinement steps


def test_wl1_one_step_splits_star_by_degree():
    spec = AlgorithmSpec.parse("wl1")
    state = refine_once(spec, initial_coloring(spec, star_graph(3)))
    colors = state.colors[0]
    assert colors[1] == colors[2] == colors[3] != colors[0]


def test_epwl_one_step_separates_c6_from_triangles(c6, two_triangles):
    spec = AlgorithmSpec.parse("epwl:A")
    state = refine_once(spec, joint_initial_coloring(spec, [c6, two_triangles]))
    assert set(state.colors[0]).isdisjoint(set(state.colors[1]))


def test_pair_update_splits_diagonal_first():
    spec = AlgorithmSpec.parse("ign2wl")
    g = random_connected_graph(5, 0.5, 3)
    state = refine_once(spec, initial_coloring(spec, g))
    colors = state.colors[0]
    n = g.n
    diag = {colors[u * n + u] for u in range(n)}
    off = {colors[u * n + v] for u in range(n) for v in range(n) if u != v}
    assert diag.isdisjoint(off)


def test_refine_once_requires_matching_spec(k2):
    state = initial_coloring(AlgorithmSpec.parse("wl1"), k2)
    with pytest.raises(UsageError):
        refine_once(AlgorithmSpec.parse("swl"), state)


# ---------------------------------------------------------------------------
# stable colorings


def test_wl1_stable_on_complete_graph():
    spec = AlgorithmSpec.parse("wl1")
    state = stable_coloring(spec, [complete_graph(5)])
    assert state.iteration == 1  # vertex-transitive: stable immediately
    assert len(set(state.colors[0])) == 1


def test_pswl_stable_on_triangle():
    state = stable_coloring(AlgorithmSpec.parse("pswl"), [complete_graph(3)])
    colors = state.colors[0]
    diag = {colors[u * 3 + u] for u in range(3)}
    off = {colors[u * 3 + v] for u in range(3) for v in range(3) if u != v}
    assert len(diag) == 1 and len(off) == 1 and diag != off


def test_epwl_stable_separates_joint_run(c6, two_triangles):
    state = stable_coloring(AlgorithmSpec.parse("epwl:A"), [c6, two_triangles])
    assert set(state.colors[0]).isdisjoint(set(state.colors[1]))


def test_monotone_refinement_every_step():
    rng = random.Random(12)
    graphs = [random_connected_graph(6, 0.5, rng.randrange(1 << 30)) for _ in range(3)]
    for label in ("wl1", "pswl", "spectralign:A", "girt:K=4", "spe:L"):
        spec = AlgorithmSpec.parse(label)
        state = joint_initial_coloring(spec, graphs)
        for _ in range(30):
            nxt = refine_once(spec, state)
            new_to_old = {}
            for old_cols, new_cols in zip(state.colors, nxt.colors):
                for o, nw in zip(old_cols, new_cols):
                    assert new_to_old.setdefault(nw, o) == o, label
            if nxt.stable:
                break
            state = nxt
        else:
            pytest.fail(f"{label} did not stabilize")


def test_iteration_stays_below_domain_cap():
    graphs = [random_connected_graph(7, 0.4, s) for s in (1, 2, 3)]
    for label in ("wl1", "swl", "fwl2", "weakspectralign:A"):
        state = stable_coloring(AlgorithmSpec.parse(label), graphs)
        cap = sum(state.domain_size(i) for i in range(len(graphs)))
        assert state.iteration <= cap


# ---------------------------------------------------------------------------
# signatures and distinguishability


def test_identical_graphs_share_signature(k2):
    spec = AlgorithmSpec.parse("pswl")
    state = stable_coloring(spec, [k2, k2])
    sigs = signatures(state)
    assert sigs[0] == sigs[1]


def test_wl1_blind_on_c6_vs_triangles(c6, two_triangles):
    assert not distinguishes(AlgorithmSpec.parse("wl1"), c6, two_triangles)
    assert distinguishes(AlgorithmSpec.parse("epwl:A"), c6, two_triangles)


def test_signature_requires_membership(c6, two_triangles, k2):
    spec = AlgorithmSpec.parse("wl1")
    state = stable_coloring(spec, [c6, two_triangles])
    with pytest.raises(UsageError):
        signature(spec, k2, state)


def test_signatures_not_comparable_across_runs(k2):
    spec = AlgorithmSpec.parse("wl1")
    sig_a = signatures(stable_coloring(spec, [k2]))[0]
    sig_b = signatures(stable_coloring(spec, [k2]))[0]
    with pytest.raises(UsageError):
        sig_a == sig_b


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 7), st.integers(0, 2**30), st.permutations(list(range(7))))
def test_relabeling_never_distinguished(n, seed, perm7):
    g = random_connected_graph(n, 0.5, seed)
    perm = [p for p in perm7 if p < n]
    h = g.relabel([perm.index(i) for i in range(n)] if len(perm) == n else list(range(n)))
    for label in ("wl1", "epwl:A", "pswl", "gdwl:rd", "weakspectralign:A", "girt:K=4"):
        assert not distinguishes(AlgorithmSpec.parse(label), g, h), label


# ---------------------------------------------------------------------------
# corpus comparisons


def test_compare_partitions_self_is_equivalent(connected_n6):
    corpus = [g for g in connected_n6 if not g.has_isolated][:40]
    spec = AlgorithmSpec.parse("epwl:A")
    report = compare_partitions(spec, spec, corpus)
    assert report.relation == "equivalent"
    assert not report.violations_ab and not report.violations_ba


def test_compare_partitions_reports_witnesses(c6, two_triangles):
    corpus = [c6, two_triangles, complete_graph(6)]
    report = compare_partitions(
        AlgorithmSpec.parse("epwl:A"), AlgorithmSpec.parse("wl1"), corpus
    )
    assert report.a_refines_b
    assert not report.b_refines_a
    assert report.relation == "a_strictly_finer"
    assert (0, 1) in report.violations_ba  # wl1 merges the pair epwl splits


def test_compare_partitions_rejects_empty_corpus():
    with pytest.raises(UsageError):
        compare_partitions(AlgorithmSpec.parse("wl1"), AlgorithmSpec.parse("pswl"), [])


def test_every_variant_is_relabel_invariant():
    g = random_connected_graph(6, 0.5, 5)
    h = g.relabel([2, 0, 5, 1, 4, 3])
    for label in ALL_SPEC_LABELS:
        assert not distinguishes(AlgorithmSpec.parse(label), g, h), label


def test_single_vertex_graph_edge_cases():
    from eigenwl.graphs import empty_graph

    k1 = empty_graph(1)
    for label in ("wl1", "swl", "pswl", "fwl2", "epwl:A", "epwl:L"):
        state = stable_coloring(AlgorithmSpec.parse(label), [k1, k1])
        sigs = signatures(state)
        assert sigs[0] == sigs[1]


def test_stability_is_a_fixpoint(c6, two_triangles):
    """One more update after stability must neither split nor merge
    anything, within or across graphs."""
    for label in ("wl1", "epwl:A", "pswl", "spectralign:L"):
        spec = AlgorithmSpec.parse(label)
        state = stable_coloring(spec, [c6, two_triangles, complete_graph(6)])
        nxt = refine_once(spec, state)
        assert nxt.stable
        mapping = {}
        for old_cols, new_cols in zip(state.colors, nxt.colors):
            for o, nw in zip(old_cols, new_cols):
                assert mapping.setdefault(o, nw) == nw
        # the signature bucket structure is unchanged as well
        old_sigs = [s.value for s in signatures(state)]
        new_sigs = [s.value for s in signatures(nxt)]
        assert [old_sigs.index(v) for v in old_sigs] == [new_sigs.index(v) for v in new_sigs]


# ---------------------------------------------------------------------------
# golden refinement digest

# sha256 over every iteration's coloring, the signatures, the quantization
# flag and the label of each spec below, as computed before the variants
# moved into one table; any change to a color id or a signature changes it.
REFINEMENT_DIGEST = "018dd5bdf76fa37b1f57ede40a12cd4ac818eec6553844cd322e08ff4f0bbb57"

DIGEST_SPEC_LABELS = ALL_SPEC_LABELS + [
    "spectralign:L",
    "spectralign:Lhat",
    "siamese:A",
    "weakspectralign:Lhat",
    "basisnet:A:layers=0",
    "basisnet:Lhat:layers=2",
    "spe:L",
    "spe:Lhat",
    "peg:A",
    "girt:K=1",
    "girt:K=16",
    "gdwl:prd:w=1/3,2/7,0,5",
    "ign2wl:proj:Lhat",
]


def _digest_corpus():
    """Every connected graph with 2 <= n <= 5, then 8 seeded random
    connected graphs with 6 <= n <= 9."""
    out = []
    for n in range(2, 6):
        out.extend(enumerate_graphs(n, connected_only=True))
    rng = random.Random(2406)
    for _ in range(8):
        out.append(random_connected_graph(rng.randint(6, 9), rng.uniform(0.3, 0.6), rng.randrange(1 << 30)))
    return out


def _refinement_records(graphs):
    for label in DIGEST_SPEC_LABELS:
        spec = AlgorithmSpec.parse(label)
        yield f"{spec.label()}|{spec.quantization_sensitive}".encode()
        state = joint_initial_coloring(spec, graphs)
        yield repr(state.colors).encode()
        while not state.stable:
            state = refine_once(spec, state)
            yield repr(state.colors).encode()
        yield repr([s.value for s in signatures(state)]).encode()


def test_refinement_golden_digest():
    h = hashlib.sha256()
    for rec in _refinement_records(_digest_corpus()):
        h.update(rec + b"\n")
    assert h.hexdigest() == REFINEMENT_DIGEST


def test_variant_table_covers_the_spec_grammar():
    parsed = {(s.variant, s.init) for s in map(AlgorithmSpec.parse, ALL_SPEC_LABELS)}
    assert parsed == set(_VARIANTS)


@pytest.mark.parametrize(
    "variant, init", [("wl1", "atp"), ("spe", "proj"), ("ign2wl", "bogus"), ("bogus", "const")]
)
def test_spec_without_table_row_is_rejected(variant, init):
    with pytest.raises(UsageError):
        AlgorithmSpec(variant, kind=MatrixKind.ADJACENCY, init=init)


def test_benchmark_tracer_hooks(c6, two_triangles):
    """perfbench's tracer reaches refinement functions and ColorState
    fields by name; a rename would break the traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tracing)
    for name in tracing.MODULES:
        importlib.import_module(f"eigenwl.{name}")
    original = refinement.distinguishes
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for label in ("wl1", "pswl", "spectralign:A", "girt:K=4"):
            refinement.distinguishes(AlgorithmSpec.parse(label), c6, two_triangles)
    finally:
        tracer.uninstall()
    assert refinement.distinguishes is original
    metrics = tracing.layer_metrics(tracer.spans, 0.0)
    for name in (
        "refinement.refine_s.nodes",
        "refinement.refine_s.pairs",
        "refinement.refine_s.spectral_pairs",
        "refinement.init_s.girt",
    ):
        assert metrics[name] > 0, name
    assert metrics["refinement.runs"] == 4


# ---------------------------------------------------------------------------
# reference oracle: the per-element Python pair updates the numpy passes
# replaced, (n, per-graph data, flat colors, interner) -> new color ids,
# called graph by graph in run order against one shared intern table


def _ref_swl(n, atp, colors, it):
    MS, TOK = refinement._Interner.MS, refinement._Interner.TOK
    out = []
    for u in range(n):
        row = colors[u * n : (u + 1) * n]
        for v in range(n):
            bag = tuple(sorted(zip(row, atp[v * n : (v + 1) * n])))
            out.append(it.id(TOK, (colors[u * n + v], it.id(MS, bag))))
    return out


def _ref_pswl(n, atp, colors, it):
    MS, TOK = refinement._Interner.MS, refinement._Interner.TOK
    diag = [colors[v * n + v] for v in range(n)]
    out = []
    for u in range(n):
        row = colors[u * n : (u + 1) * n]
        for v in range(n):
            bag = tuple(sorted(zip(row, atp[v * n : (v + 1) * n])))
            out.append(it.id(TOK, (colors[u * n + v], diag[v], it.id(MS, bag))))
    return out


def _ref_fwl2(n, data, colors, it):
    MS, TOK = refinement._Interner.MS, refinement._Interner.TOK
    out = []
    for u in range(n):
        row = colors[u * n : (u + 1) * n]
        for v in range(n):
            bag = tuple(sorted(zip(row, colors[v::n])))
            out.append(it.id(TOK, (colors[u * n + v], it.id(MS, bag))))
    return out


def _ref_ign_slice_tokens(n, colors, it):
    MS, ABSENT = refinement._Interner.MS, -1
    rows_ms = [it.id(MS, tuple(sorted(colors[u * n : (u + 1) * n]))) for u in range(n)]
    cols_ms = [it.id(MS, tuple(sorted(colors[v::n]))) for v in range(n)]
    diag_ms = it.id(MS, tuple(sorted(colors[u * n + u] for u in range(n))))
    all_ms = it.id(MS, tuple(sorted(colors)))
    out = []
    for u in range(n):
        c_uu = colors[u * n + u]
        for v in range(n):
            head = (colors[u * n + v], c_uu, colors[v * n + v], colors[v * n + u])
            mid = (rows_ms[u], cols_ms[u], rows_ms[v], cols_ms[v], diag_ms, all_ms)
            if u == v:
                out.append(head + (c_uu,) + mid + (rows_ms[u], cols_ms[u], diag_ms, all_ms))
            else:
                out.append(head + (ABSENT,) + mid + (ABSENT,) * 4)
    return out


def _ref_ign(n, data, colors, it):
    return [it.id(refinement._Interner.TOK, t) for t in _ref_ign_slice_tokens(n, colors, it)]


def _ref_slice(n, data, colors, it):
    nn = n * n
    out = []
    for i in range(0, len(colors), nn):
        out.extend(_ref_ign(n, None, colors[i : i + nn], it))
    return out


def _ref_cross(n, data, colors, it):
    MS, TOK = refinement._Interner.MS, refinement._Interner.TOK
    nn = n * n
    slice_ids = _ref_slice(n, None, colors, it)
    sp = [it.id(MS, tuple(sorted(colors[p::nn]))) for p in range(nn)]
    cross_ids = _ref_ign(n, None, sp, it) * (len(colors) // nn)
    return [it.id(TOK, pair) for pair in zip(slice_ids, cross_ids)]


_REFERENCE_UPDATES = {
    "swl": _ref_swl,
    "pswl": _ref_pswl,
    "fwl2": _ref_fwl2,
    "ign2wl": _ref_ign,
    "spe": _ref_ign,
    "spectralign": _ref_cross,
    "siamese": _ref_slice,
    "weakspectralign": _ref_slice,
    "basisnet": _ref_slice,
}


def _assert_matches_reference(label, graphs):
    """refine_once gives the reference ids at every iteration to stability."""
    spec = AlgorithmSpec.parse(label)
    ref = _REFERENCE_UPDATES[spec.variant]
    state = joint_initial_coloring(spec, graphs)
    while not state.stable:
        it = refinement._Interner()
        expected = tuple(
            tuple(ref(g.n, d, list(cols), it))
            for g, d, cols in zip(state.graphs, state._data, state.colors)
        )
        state = refine_once(spec, state)
        assert state.colors == expected, (label, state.iteration)
    return state


def _hunt_pair(n):
    """The first (product, one-edge twist) pair on n vertices in the
    candidate stream of the bundled fwl2|pswl hunt."""
    for base, _ in furer._candidate_bases(6, 140, 1729):
        fg = furer.furer(base)
        if fg.product.n == n:
            return fg.product, furer.twist(fg, [next(fg.base.edges())])
    raise AssertionError(f"no product on {n} vertices")


def _hypercube(d):
    n = 1 << d
    return Graph.from_edges(n, [(u, u | 1 << i) for u in range(n) for i in range(d) if not u >> i & 1])


def _shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


@pytest.mark.parametrize("label", ["fwl2", "pswl", "swl"])
def test_pair_updates_match_reference_on_hunt_products(label):
    for n in (24, 48):
        _assert_matches_reference(label, list(_hunt_pair(n)))


@pytest.mark.parametrize(
    "label",
    ["swl", "pswl", "fwl2", "ign2wl", "ign2wl:atp", "spe:L", "spectralign:A",
     "siamese:A", "weakspectralign:L", "basisnet:A:layers=1"],
)
def test_pair_updates_match_reference_beyond_the_corpus(label):
    q5 = _hypercube(5)
    disconnected = disjoint_union(cycle_graph(5), path_graph(4))
    # sizes out of order, so the size groups of one update interleave in the
    # run; a 3-vertex graph's whole-slice multisets are as wide as the
    # 9-vertex graphs' rows
    mixed = [random_graph(n, 0.4, seed) for n, seed in ((9, 1), (5, 2), (9, 3), (6, 4), (3, 5))]
    for graphs in ([q5, _shuffled(q5, 1)], [disconnected, cycle_graph(9)], mixed):
        _assert_matches_reference(label, graphs)


@pytest.mark.parametrize("label", ["swl", "pswl", "fwl2", "ign2wl", "ign2wl:atp", "siamese:A"])
def test_pair_updates_match_reference_on_zero_and_one_vertex(label):
    graphs = [complete_graph(2), complete_graph(1), path_graph(4), complete_graph(1)]
    if AlgorithmSpec.parse(label).variant != "siamese":  # the reference fails on n = 0 there
        graphs += [empty_graph(0), cycle_graph(3), empty_graph(0)]
    _assert_matches_reference(label, graphs)


def test_pair_updates_exact_when_every_row_hash_collides(monkeypatch):
    monkeypatch.setattr(refinement, "_HASH_BASE", np.uint64(0))
    mixed = [random_graph(n, 0.4, seed) for n, seed in ((6, 1), (4, 2), (6, 3))]
    for label in ("fwl2", "pswl", "ign2wl", "spectralign:A"):
        _assert_matches_reference(label, mixed)


@pytest.mark.parametrize("label", ["swl", "pswl", "fwl2", "ign2wl", "spectralign:A"])
def test_relabeling_invariance_beyond_verified_sizes(label):
    spec = AlgorithmSpec.parse(label)
    for g in (_hunt_pair(48)[0], random_connected_graph(32, 0.2, 7)):
        assert not distinguishes(spec, g, _shuffled(g, g.n)), (label, g.n)


@pytest.mark.parametrize("label", DIGEST_SPEC_LABELS)
def test_empty_graph_refines_in_every_variant(label):
    spec = AlgorithmSpec.parse(label)
    empty = empty_graph(0)
    state = stable_coloring(spec, [empty, complete_graph(2), empty])
    assert state.colors[0] == state.colors[2] == ()
    sigs = signatures(state)
    assert sigs[0] == sigs[2] != sigs[1]


def test_refine_once_rejects_an_update_that_merges_classes():
    spec = AlgorithmSpec.parse("peg:A")
    state = initial_coloring(spec, cycle_graph(6))
    # With constant pair data the peg token of a node no longer sees the
    # node's own color, so six distinct colors collapse into one.  (On the
    # graph's real projection data the v = u term keeps it.)
    forged = dataclasses.replace(state, colors=(tuple(range(6)),), _data=([0] * 36,))
    with pytest.raises(InternalError, match="did not refine"):
        refine_once(spec, forged)


def _same_partition(a, b):
    forward, backward = {}, {}
    return all(
        forward.setdefault(x, y) == y and backward.setdefault(y, x) == x
        for x, y in zip(itertools.chain(*a), itertools.chain(*b))
    )


@pytest.mark.parametrize("label", ["wl1", "fwl2", "ign2wl", "spectralign:A"])
def test_stable_flag_one_step_from_stable(label):
    """The last unstable step and the stable step after it, against a
    direct comparison of the two partitions."""
    spec = AlgorithmSpec.parse(label)
    states = [joint_initial_coloring(spec, [path_graph(5), star_graph(3), path_graph(5)])]
    while not states[-1].stable:
        states.append(refine_once(spec, states[-1]))
    assert len(states) >= 3
    for old, new in zip(states, states[1:]):
        assert new.stable == _same_partition(old.colors, new.colors)
    assert not states[-2].stable and states[-1].stable
