import dataclasses
import hashlib
import importlib.util
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenwl.distances import DistanceKind, distance_tokens
from eigenwl.graphs import (
    Graph,
    MatrixKind,
    atomic_type,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    path_graph,
    random_connected_graph,
    random_graph,
    star_graph,
    write_graph6,
)
from eigenwl import cli, furer, refinement, spectral
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
from test_distances import rendered_tokens

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
    [
        *("epwl", "epwl:D", "wl1:A", "basisnet", "basisnet:A:layer=1", "girt:J=2", "gdwl", "bogus"),
        # a trailing colon spells an empty parameter; integers are plain digits
        *("wl1:", "girt:", "rd:", "prd:", "gdwl:rd:", "gdwl:prd:"),
        *("girt:K=2_0", "basisnet:A:layers=+2", "basisnet:A:layers= 2", "layers= 2"),
    ],
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


def test_spec_aliases_parse_to_canonical_specs():
    for alias, canonical in [
        ("siameseign:A", "siamese:A"),
        ("wsign:Lhat", "weakspectralign:Lhat"),
        ("diff", "gdwl:diffusion"),
        ("diff:tau=2", "gdwl:diffusion:tau=2"),
        ("rd", "gdwl:rd"),
    ]:
        assert AlgorithmSpec.parse(alias) == AlgorithmSpec.parse(canonical), alias
        assert AlgorithmSpec.parse(alias).label() == AlgorithmSpec.parse(canonical).label(), alias


_SPEC_HEADS = [
    *("wl1", "epwl", "swl", "pswl", "fwl2", "gdwl", "girt", "ign2wl", "spe", "peg"),
    *("spectralign", "sign", "siamese", "siameseign", "weakspectralign", "wsign", "basisnet"),
    *("spd", "rd", "htd", "ctd", "prd", "diffusion", "diff", "biharmonic", "bogus"),
]
_SPEC_TAILS = [
    *("", "A", "D", "L", "Lhat", "nl", "A:B", "A:L"),
    *("layers=2", "A:layers=2", "A:LAYERS=3", "A:layers=0", "A:layers=-1", "A:layer=1", "A:layers=x"),
    *("A:layers=1:K=2", "A:layers=", "A:", "K=4", "k=4", "K=0", "K=-1", "K=", "J=2", "K=4:A"),
    *("atp", "ATP", "const", "proj", "proj:A", "proj:D", "proj:Lhat", "proj:A:B", "atp:A", "const:A"),
    *("rd", "spd", "prd", "prd:w=0,1,0.5", "prd:w=", "prd:W=1/2", "diffusion:tau=2", "diff:tau=0.5"),
    *("diffusion:tau=-1", "rd:w=1", "w=0,1,0.5", "tau=2", "tau=x", "::"),
]
# trailing colons, inner spaces and int spellings, spelt whole
_SPEC_SPELLINGS = [
    *("wl1:", "epwl:A:", "girt:", "basisnet:A:", "ign2wl:", "ign2wl:atp:", "ign2wl:proj:", "ign2wl:proj:A:"),
    *("rd:", "prd:", "gdwl:rd:", "gdwl:prd:", "gdwl:", " epwl:A ", "epwl: A", "epwl :A", "gdwl: rd", " rd"),
    *("basisnet:A:layers=+2", "basisnet:A:layers= 2", "basisnet:A:layers =2", "girt:K=2_0", "girt: K=2"),
    *("gdwl:prd:w=0, 1", "gdwl:PRD:W=1/2", "Prd:w=1", "prd:w=1:2", "diffusion:tau=1:2", "", ":", "A"),
]

# sha256 over (spelling, outcome) for every head (as written and upper-
# cased) crossed with every tail and for each whole spelling, then over
# the outcomes of direct constructions, so any change to what a spelling
# or construction means moves it; error wording is not part of an
# outcome.  First recorded while the grammar was still if-chains; moved
# once on purpose, when 'rd:', 'prd:', 'gdwl:rd:', 'gdwl:prd:',
# 'basisnet:A:layers=+2', 'basisnet:A:layers= 2' and 'girt:K=2_0' went
# from parsing to UsageError
SPEC_GRAMMAR_DIGEST = "d212ee2d7f2ea09179f936a6e12e4ad4955b8339be2a5bf16f69268f9eeb6578"


def _spec_outcome(make) -> str:
    try:
        spec = make()
    except Exception as exc:
        return type(exc).__name__
    fields = (spec.variant, spec.init, spec.kind, repr(spec.distance), spec.layers, spec.steps)
    return f"{spec.label()}|{fields}|{spec.quantization_sensitive}"


def _spec_grammar_records():
    for head in _SPEC_HEADS:
        for spelt in (head, head.upper()):
            for tail in _SPEC_TAILS:
                text = f"{spelt}:{tail}" if tail else spelt
                yield f"{text!r} -> {_spec_outcome(lambda: AlgorithmSpec.parse(text))}"
    for text in _SPEC_SPELLINGS:
        yield f"{text!r} -> {_spec_outcome(lambda: AlgorithmSpec.parse(text))}"
    for variant, init, kind, distance, layers, steps in itertools.product(
        ["wl1", "epwl", "gdwl", "girt", "ign2wl", "basisnet", "spectralign", "sign", "bogus"],
        ["const", "atp", "proj", "bogus"],
        [None, *MatrixKind],
        [None, DistanceKind.parse("rd")],
        [1, 0, 2, -1],
        [16, 1, 4, 0],
    ):
        kwargs = dict(variant=variant, init=init, kind=kind, distance=distance, layers=layers, steps=steps)
        yield f"{kwargs} -> {_spec_outcome(lambda: AlgorithmSpec(**kwargs))}"


def test_spec_grammar_digest():
    h = hashlib.sha256()
    for rec in _spec_grammar_records():
        h.update(rec.encode() + b"\n")
    assert h.hexdigest() == SPEC_GRAMMAR_DIGEST


def test_lhat_specs_reject_isolated_vertices():
    g = disjoint_union(complete_graph(2), complete_graph(1))
    for label in ("epwl:Lhat", "gdwl:prd", "gdwl:diffusion"):
        with pytest.raises(UsageError, match="isolated"):
            stable_coloring(AlgorithmSpec.parse(label), [g])


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


def test_signatures_not_comparable_across_runs(k2, c6, two_triangles):
    spec = AlgorithmSpec.parse("wl1")
    sig_a = signatures(stable_coloring(spec, [k2]))[0]
    sig_b = signatures(stable_coloring(spec, [k2]))[0]
    with pytest.raises(UsageError):
        sig_a == sig_b
    with pytest.raises(UsageError):
        sig_a != sig_b
    same_run = signatures(stable_coloring(spec, [k2, c6, two_triangles]))
    assert same_run[1] == same_run[2] and not same_run[1] != same_run[2]
    assert same_run[0] != same_run[1] and not same_run[0] == same_run[1]
    assert sig_a != 3 and not sig_a == 3


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
# flag and the label of each spec below; any change to a color id or a
# signature changes it.  It moved on purpose when spectralign's cross update
# began numbering its keys pass by pass over the run (phase-major): that
# renumbers the three spectralign specs and keeps every partition
# (test_spectralign_partitions_match_graph_by_graph_numbering); the records
# of every other spec are unchanged.  It moved again when each batch-interner
# call began numbering only its own keys: a cross-update key no longer
# reuses the id of an equal key from an earlier pass, which renumbers
# spectralign:A and spectralign:Lhat on this corpus and keeps every
# partition; no other spec's records change.  It moved once more when each
# reduction level of a pool became one pass over the run: that renumbers
# the signatures of swl, pswl, spectralign and weakspectralign on this
# corpus and keeps every bucket (test_pools_match_per_key_oracle); every
# color record is unchanged.
REFINEMENT_DIGEST = "49c1b1a83520a14c2355a078a9ca0f9db0abc12fb83020b18bee42b07ff5b6e9"

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


def _tuples(colors):
    """A state's color arrays as tuples of Python ints."""
    return tuple(tuple(cols.tolist()) for cols in colors)


def _refinement_records(graphs):
    for label in DIGEST_SPEC_LABELS:
        spec = AlgorithmSpec.parse(label)
        yield f"{spec.label()}|{spec.quantization_sensitive}".encode()
        state = joint_initial_coloring(spec, graphs)
        yield repr(_tuples(state.colors)).encode()
        while not state.stable:
            state = refine_once(spec, state)
            yield repr(_tuples(state.colors)).encode()
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


def _perfbench(name):
    """A module of the benchmark harness in ``perfbench/``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    module_spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_hooks(c6, two_triangles, monkeypatch):
    """perfbench's tracer reaches refinement functions, ColorState fields
    and the projection cache by name; a rename would break the traced
    benchmark run."""
    tracing = _perfbench("tracing")
    for name in tracing.MODULES:
        importlib.import_module(f"eigenwl.{name}")
    # a cold projection cache, so that every quantization below is counted
    monkeypatch.setattr(spectral, "_QPROJ_CACHE", {})
    original = refinement.distinguishes
    labels = ["wl1", "pswl", "spectralign:A", "girt:K=4", "gdwl:rd"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for label in labels:
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
        "distances.tokens_s.rd",
    ):
        assert metrics[name] > 0, name
    assert metrics["refinement.runs"] == 5
    # the tracer counts the distinct colors of each stable state, the
    # spectral run's among them, by iterating the state's color arrays
    states = [stable_coloring(AlgorithmSpec.parse(label), [c6, two_triangles]) for label in labels]
    assert metrics["refinement.final_colors"] == sum(len(np.unique(np.concatenate(st.colors))) for st in states)
    # spectralign:A quantizes each graph's m eigenvalues and m n x n projectors once
    entries = sum(
        spectral.decomposition_for(g, MatrixKind.ADJACENCY).m * (1 + g.n * g.n) for g in (c6, two_triangles)
    )
    assert metrics["spectral.quantized_entries"] == entries == 4 * 37 + 2 * 37


def test_scan_reproduces_benchmark_digest(tmp_path, capsys):
    """The benchmark's scan, on its base graphs with n = 16, 32 and 48,
    gives the buckets and relations its regression digest records."""
    workloads = _perfbench("workloads")
    corpus, out = tmp_path / "scan.g6", tmp_path / "scan.json"
    corpus.write_text("".join(write_graph6(g) + "\n" for g in workloads.scan_base_corpus()))
    argv = ["scan", "--algs", ",".join(workloads.SCAN_ALGS), "--corpus", str(corpus), "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert workloads.scan_digest(json.loads(out.read_text())) == workloads.SCAN_DIGEST


# ---------------------------------------------------------------------------
# reference oracle: the per-key intern table and the per-element Python
# updates the numpy passes replaced, (n, per-graph data, flat colors,
# interner) -> new color ids, called graph by graph in run order against
# one shared intern table


class _Interner:
    """Append-only bijection between canonical tokens and dense int ids.

    Keys are tagged with a small role int so that equal payloads from
    different token universes can never share an id.
    """

    INIT, MS, TOK, POOL, STATIC = range(5)

    def __init__(self):
        self.table = {}

    def id(self, role, key):
        return self.table.setdefault((role, key), len(self.table))


def _buckets(values):
    """Each value replaced by the index of its first occurrence."""
    first = {}
    return [first.setdefault(v, i) for i, v in enumerate(values)]


def _ref_vertex(n, data, colors, it):
    MS, TOK = _Interner.MS, _Interner.TOK
    out = []
    for u in range(n):
        base = u * n
        bag = tuple(sorted((colors[v], data[base + v]) for v in range(n)))
        out.append(it.id(TOK, (colors[u], it.id(MS, bag))))
    return out


def _ref_peg(n, data, colors, it):
    MS, TOK = _Interner.MS, _Interner.TOK
    out = []
    diag = [data[v * n + v] for v in range(n)]
    for u in range(n):
        base = u * n
        duu = diag[u]
        bag = tuple(sorted((colors[v], duu, diag[v], data[base + v]) for v in range(n)))
        out.append(it.id(TOK, (it.id(MS, bag),)))
    return out


def _ref_girt(n, data, colors, it):
    MS, TOK = _Interner.MS, _Interner.TOK
    out = []
    diag = [colors[v * n + v] for v in range(n)]
    for u in range(n):
        base = u * n
        for v in range(n):
            if u == v:
                bag = tuple(sorted(zip(colors[base : base + n], diag)))
                out.append(it.id(TOK, (diag[u], it.id(MS, bag))))
            else:
                out.append(it.id(TOK, (colors[base + v], diag[u], diag[v])))
    return out


def _ref_swl(n, atp, colors, it):
    MS, TOK = _Interner.MS, _Interner.TOK
    out = []
    for u in range(n):
        row = colors[u * n : (u + 1) * n]
        for v in range(n):
            bag = tuple(sorted(zip(row, atp[v * n : (v + 1) * n])))
            out.append(it.id(TOK, (colors[u * n + v], it.id(MS, bag))))
    return out


def _ref_pswl(n, atp, colors, it):
    MS, TOK = _Interner.MS, _Interner.TOK
    diag = [colors[v * n + v] for v in range(n)]
    out = []
    for u in range(n):
        row = colors[u * n : (u + 1) * n]
        for v in range(n):
            bag = tuple(sorted(zip(row, atp[v * n : (v + 1) * n])))
            out.append(it.id(TOK, (colors[u * n + v], diag[v], it.id(MS, bag))))
    return out


def _ref_fwl2(n, data, colors, it):
    MS, TOK = _Interner.MS, _Interner.TOK
    out = []
    for u in range(n):
        row = colors[u * n : (u + 1) * n]
        for v in range(n):
            bag = tuple(sorted(zip(row, colors[v::n])))
            out.append(it.id(TOK, (colors[u * n + v], it.id(MS, bag))))
    return out


def _ref_ign_slice_tokens(n, colors, it):
    MS, ABSENT = _Interner.MS, -1
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
    return [it.id(_Interner.TOK, t) for t in _ref_ign_slice_tokens(n, colors, it)]


def _ref_slice(n, data, colors, it):
    nn = n * n
    out = []
    for i in range(0, len(colors), nn):
        out.extend(_ref_ign(n, None, colors[i : i + nn], it))
    return out


def _ref_cross_sequential(n, data, colors, it):
    """spectralign's update with the keys of one graph numbered before the
    next graph's, as the update once ran; its ids differ from the run's,
    its partitions must not."""
    MS, TOK = _Interner.MS, _Interner.TOK
    nn = n * n
    slice_ids = _ref_slice(n, None, colors, it)
    sp = [it.id(MS, tuple(sorted(colors[p::nn]))) for p in range(nn)]
    cross_ids = _ref_ign(n, None, sp, it) * (len(colors) // nn)
    return [it.id(TOK, pair) for pair in zip(slice_ids, cross_ids)]


class _PassInterner:
    """One pass's view of a shared intern table: keys are tagged with the
    pass as well as the role, so they never match another pass's keys."""

    def __init__(self, it, tag):
        self.it, self.tag = it, tag

    def id(self, role, key):
        return self.it.id((self.tag, role), key)


def _ref_cross(ns, data, colors, it):
    """spectralign's update over the whole run, phase-major: every graph's
    slice updates, then every graph's pair multisets over slices, their
    15-slot updates, and every graph's (slice token, cross token) pairs.
    The table is keyed by (pass, role), so equal keys of two passes get
    different ids."""
    MS, TOK = _Interner.MS, _Interner.TOK
    slice_it, multiset_it, cross_it, pair_it = (_PassInterner(it, tag) for tag in range(4))
    run = [i for i, n in enumerate(ns) if n]  # a graph without vertices has no slices
    slice_ids = {i: _ref_slice(ns[i], None, colors[i], slice_it) for i in run}
    sps = {i: [multiset_it.id(MS, tuple(sorted(colors[i][p :: ns[i] ** 2]))) for p in range(ns[i] ** 2)] for i in run}
    cross = {i: _ref_ign(ns[i], None, sps[i], cross_it) for i in run}
    out = [[] for _ in ns]
    for i in run:
        out[i] = [pair_it.id(TOK, pair) for pair in zip(slice_ids[i], cross[i] * (len(colors[i]) // ns[i] ** 2))]
    return out


_REFERENCE_UPDATES = {
    "wl1": _ref_vertex,
    "epwl": _ref_vertex,
    "gdwl": _ref_vertex,
    "peg": _ref_peg,
    "girt": _ref_girt,
    "swl": _ref_swl,
    "pswl": _ref_pswl,
    "fwl2": _ref_fwl2,
    "ign2wl": _ref_ign,
    "spe": _ref_ign,
    "siamese": _ref_slice,
    "weakspectralign": _ref_slice,
    "basisnet": _ref_slice,
}

# references that see the whole run at once:
# (vertex counts, per-graph data, flat colors per graph, interner) -> new color ids per graph
_RUN_REFERENCE_UPDATES = {"spectralign": _ref_cross}


def _assert_matches_reference(label, graphs):
    """refine_once gives the reference ids at every iteration to stability."""
    spec = AlgorithmSpec.parse(label)
    state = joint_initial_coloring(spec, graphs)
    while not state.stable:
        it = _Interner()
        data = [d.tolist() if isinstance(d, np.ndarray) else d for d in state._data]
        colors = [cols.tolist() for cols in state.colors]
        if spec.variant in _RUN_REFERENCE_UPDATES:
            expected = _RUN_REFERENCE_UPDATES[spec.variant]([g.n for g in state.graphs], data, colors, it)
        else:
            ref = _REFERENCE_UPDATES[spec.variant]
            expected = [ref(g.n, d, cols, it) for g, d, cols in zip(state.graphs, data, colors)]
        state = refine_once(spec, state)
        assert _tuples(state.colors) == tuple(map(tuple, expected)), (label, state.iteration)
    return state


# the per-key pools, as they were before each reduction level ran as one
# numpy pass over the run: (spec, graphs, colors per graph, interner) ->
# signature ids.  A pool interns one graph's reductions and its POOL id
# before it starts the next graph, unless it refines node colors jointly
# first.


def _ref_pool_joint(spec, graphs, colors_list, it):
    return [it.id(_Interner.POOL, tuple(sorted(cols))) for cols in colors_list]


def _ref_pool_rows(spec, graphs, colors_list, it):
    MS, POOL = _Interner.MS, _Interner.POOL
    out = []
    for g, cols in zip(graphs, colors_list):
        n = g.n
        per_node = [it.id(MS, tuple(sorted(cols[u * n : (u + 1) * n]))) for u in range(n)]
        out.append(it.id(POOL, tuple(sorted(per_node))))
    return out


def _ref_pool_diag(spec, graphs, colors_list, it):
    return [
        it.id(_Interner.POOL, tuple(sorted(cols[u * g.n + u] for u in range(g.n))))
        for g, cols in zip(graphs, colors_list)
    ]


def _ref_pool_pairs(spec, graphs, colors_list, it):
    MS, POOL = _Interner.MS, _Interner.POOL
    out = []
    for g, cols in zip(graphs, colors_list):
        nn = g.n * g.n
        per_pair = [it.id(MS, tuple(sorted(cols[p::nn]))) for p in range(nn)]
        out.append(it.id(POOL, tuple(sorted(per_pair))))
    return out


def _ref_pool_pair_rows(spec, graphs, colors_list, it):
    MS, POOL = _Interner.MS, _Interner.POOL
    out = []
    for g, cols in zip(graphs, colors_list):
        n = g.n
        nn = n * n
        per_pair = [it.id(MS, tuple(sorted(cols[p::nn]))) for p in range(nn)]
        per_node = [it.id(MS, tuple(sorted(per_pair[u * n : (u + 1) * n]))) for u in range(n)]
        out.append(it.id(POOL, tuple(sorted(per_node))))
    return out


def _ref_wl_layers(graphs, node_colors, it, steps):
    atps = [[int(atomic_type(g, u, v)) for u in range(g.n) for v in range(g.n)] for g in graphs]
    limit = steps if steps is not None else sum(g.n for g in graphs) + 1
    prev_count = len({c for cols in node_colors for c in cols})
    for _ in range(limit):
        node_colors = [_ref_vertex(g.n, atp, cols, it) for g, atp, cols in zip(graphs, atps, node_colors)]
        if steps is None:
            count = len({c for cols in node_colors for c in cols})
            if count == prev_count:
                break
            prev_count = count
    return [it.id(_Interner.POOL, tuple(sorted(cols))) for cols in node_colors]


def _ref_pool_spe(spec, graphs, colors_list, it):
    MS = _Interner.MS
    node_colors = []
    for g, cols in zip(graphs, colors_list):
        n = g.n
        node_colors.append([it.id(MS, tuple(sorted(cols[u * n : (u + 1) * n]))) for u in range(n)])
    return _ref_wl_layers(graphs, node_colors, it, None)


def _ref_pool_basisnet(spec, graphs, colors_list, it):
    MS = _Interner.MS
    node_colors = []
    for g, cols in zip(graphs, colors_list):
        n = g.n
        nn = n * n
        per_node = []
        for u in range(n):
            lam_ids = []
            for i in range(0, len(cols), nn):
                sl = cols[i : i + nn]
                row = it.id(MS, tuple(sorted(sl[u * n : (u + 1) * n])))
                col = it.id(MS, tuple(sorted(sl[u::n])))
                diag = it.id(MS, tuple(sorted(sl[w * n + w] for w in range(n))))
                full = it.id(MS, tuple(sorted(sl)))
                lam_ids.append(it.id(MS, (sl[u * n + u], row, col, diag, full)))
            per_node.append(it.id(MS, tuple(sorted(lam_ids))))
        node_colors.append(per_node)
    return _ref_wl_layers(graphs, node_colors, it, spec.layers)


_REFERENCE_POOLS = {
    refinement._pool_joint: _ref_pool_joint,
    refinement._pool_rows: _ref_pool_rows,
    refinement._pool_diag: _ref_pool_diag,
    refinement._pool_spe: _ref_pool_spe,
    refinement._pool_pairs: _ref_pool_pairs,
    refinement._pool_pair_rows: _ref_pool_pair_rows,
    refinement._pool_basisnet: _ref_pool_basisnet,
}


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


@pytest.mark.parametrize("label", ["fwl2", "pswl", "swl", "spectralign:A"])
def test_pair_updates_match_reference_on_hunt_products(label):
    for n in (24, 48):
        _assert_matches_reference(label, list(_hunt_pair(n)))


def _mixed_sizes():
    """Sizes out of order, so the size groups of one update interleave in
    the run; a 3-vertex graph's whole-slice multisets are as wide as the
    9-vertex graphs' rows."""
    return [random_graph(n, 0.4, seed) for n, seed in ((9, 1), (5, 2), (9, 3), (6, 4), (3, 5))]


def _defined_for(label, graphs):
    """The graphs ``label`` is defined on: girt and the Lhat variants
    reject isolated vertices."""
    spec = AlgorithmSpec.parse(label)
    if spec.variant == "girt" or spec.kind is MatrixKind.NORMALIZED_LAPLACIAN:
        return [g for g in graphs if not g.has_isolated]
    return graphs


@pytest.mark.parametrize(
    "label",
    ["wl1", "epwl:A", "gdwl:spd", "peg:A", "girt:K=4", "swl", "pswl", "fwl2", "ign2wl", "ign2wl:atp",
     "spe:L", "spectralign:A", "siamese:A", "weakspectralign:L", "basisnet:A:layers=1"],
)
def test_pair_updates_match_reference_beyond_the_corpus(label):
    q5 = _hypercube(5)
    disconnected = disjoint_union(cycle_graph(5), path_graph(4))
    for graphs in ([q5, _shuffled(q5, 1)], [disconnected, cycle_graph(9)], _mixed_sizes()):
        _assert_matches_reference(label, _defined_for(label, graphs))


@pytest.mark.parametrize(
    "label",
    ["wl1", "epwl:A", "gdwl:spd", "peg:A", "girt:K=4", "swl", "pswl", "fwl2", "ign2wl", "ign2wl:atp",
     "siamese:A", "spectralign:A", "spectralign:L"],
)
def test_pair_updates_match_reference_on_zero_and_one_vertex(label):
    graphs = [complete_graph(2), complete_graph(1), path_graph(4), complete_graph(1)]
    if AlgorithmSpec.parse(label).variant != "siamese":  # the reference fails on n = 0 there
        graphs += [empty_graph(0), cycle_graph(3), empty_graph(0)]
    _assert_matches_reference(label, _defined_for(label, graphs))


def test_pair_updates_exact_when_every_row_hash_collides(monkeypatch):
    monkeypatch.setattr(refinement, "_HASH_BASE", np.uint64(0))
    mixed = [random_graph(n, 0.4, seed) for n, seed in ((6, 1), (4, 2), (6, 3))]
    for label in ("wl1", "epwl:A", "gdwl:spd", "peg:A", "girt:K=4", "fwl2", "pswl", "ign2wl", "spectralign:A"):
        _assert_matches_reference(label, _defined_for(label, mixed))


# The 15-slot updates and spectralign's (slice token, cross token) pairs
# number an element whose color no other element has without hashing its
# key.  On the benchmark's scan graphs most elements of a spectral run's
# last iteration are such; ign2wl from constant colors is stable after
# one step there with no color of one element.  A relabelled copy shares
# every color, and K_{4,4} is symmetric enough that no class has one
# element, so there it never happens.
SKIP_SPEC_LABELS = [
    "siamese:Lhat", "weakspectralign:L", "basisnet:A:layers=1", "basisnet:L:layers=1", "basisnet:Lhat:layers=1",
    "spe:A", "ign2wl", "ign2wl:atp", "spectralign:A", "spectralign:L", "spectralign:Lhat",
]

_SKIP_INPUTS = {
    "scan": lambda: _perfbench("workloads").scan_base_corpus(),
    "q5": lambda: [_hypercube(5), _shuffled(_hypercube(5), 1)],
    "k44": lambda: [Graph.from_edges(8, [(u, v) for u in range(4) for v in range(4, 8)])],
    "mixed": _mixed_sizes,
    "zero_and_one": lambda: [
        complete_graph(2), complete_graph(1), path_graph(4), complete_graph(1), empty_graph(0), cycle_graph(3),
        empty_graph(0),
    ],
}


def _skipped_events(monkeypatch) -> list[int]:
    """Spy on the interner: the number of events each part with a mask
    numbered without hashing, in call order."""
    skipped = []
    ids = refinement._BatchInterner.ids

    def spy(self, parts):
        skipped.extend(int(np.count_nonzero(~part[2])) for part in parts if len(part) == 3)
        return ids(self, parts)

    monkeypatch.setattr(refinement._BatchInterner, "ids", spy)
    return skipped


@pytest.mark.parametrize("colliding", [False, True], ids=["hashed", "colliding"])
@pytest.mark.parametrize("inputs", list(_SKIP_INPUTS))
@pytest.mark.parametrize("label", SKIP_SPEC_LABELS)
def test_singleton_skip_matches_reference(label, inputs, colliding, monkeypatch):
    if colliding:
        monkeypatch.setattr(refinement, "_HASH_BASE", np.uint64(0))
    graphs = _defined_for(label, _SKIP_INPUTS[inputs]())
    if inputs == "zero_and_one" and _REFERENCE_UPDATES.get(AlgorithmSpec.parse(label).variant) is _ref_slice:
        graphs = [g for g in graphs if g.n]  # the per-slice reference fails on n = 0
    skipped = _skipped_events(monkeypatch)
    _assert_matches_reference(label, graphs)
    assert skipped
    if inputs == "scan" and label != "ign2wl":
        assert max(skipped) > 0
    if inputs in ("q5", "k44"):
        assert not any(skipped)


@pytest.mark.parametrize(
    "label, reference",
    [
        ("spe:L", _ref_pool_spe),
        ("spe:A", _ref_pool_spe),
        ("basisnet:A:layers=2", _ref_pool_basisnet),
        ("basisnet:Lhat:layers=6", _ref_pool_basisnet),
    ],
)
def test_layer_pools_match_reference_on_mixed_sizes(label, reference):
    """The pools' vertex-refinement layers continue the pool's interner,
    whose calls each number only their own keys, and give the signature
    buckets of one intern table shared by every layer.  Paths and cycles
    take many layers to settle."""
    paths_cycles = [g for n in range(3, 30) for g in (path_graph(n), cycle_graph(n))]
    for graphs in (_mixed_sizes(), paths_cycles, list(_hunt_pair(24))):
        state = stable_coloring(AlgorithmSpec.parse(label), _defined_for(label, graphs))
        expected = reference(state.spec, state.graphs, [c.tolist() for c in state.colors], _Interner())
        assert _buckets(s.value for s in signatures(state)) == _buckets(expected)


# one spec per pool, plus the spectral domain's joint pool and a pool
# without layers
POOL_SPEC_LABELS = [
    "wl1", "siamese:A", "swl", "pswl", "girt:K=4", "spe:L", "weakspectralign:L", "spectralign:A",
    "basisnet:A:layers=1", "basisnet:Lhat:layers=0",
]

_POOL_INPUTS = {
    "digest": _digest_corpus,
    "hunt": lambda: [*_hunt_pair(24), *_hunt_pair(48)],
    "mixed": _mixed_sizes,
    "zero_and_one": lambda: [
        complete_graph(2), complete_graph(1), path_graph(4), complete_graph(1), empty_graph(0), cycle_graph(3),
        empty_graph(0),
    ],
}


def test_pool_specs_cover_every_pool():
    pools = {_VARIANTS[s.variant, s.init].pool for s in map(AlgorithmSpec.parse, POOL_SPEC_LABELS)}
    assert pools == {row.pool for row in _VARIANTS.values()} == set(_REFERENCE_POOLS)


@pytest.mark.parametrize(
    "inputs, colliding",
    [("digest", False), ("hunt", False), ("mixed", False), ("zero_and_one", False), ("digest", True),
     ("zero_and_one", True)],
    ids=["digest", "hunt", "mixed", "zero_and_one", "digest_colliding", "zero_and_one_colliding"],
)
@pytest.mark.parametrize("label", POOL_SPEC_LABELS)
def test_pools_match_per_key_oracle(label, inputs, colliding, monkeypatch):
    """Every reduction level of a pool is one numpy pass over the run, so
    signature ids are renumbered, but every signature bucket is the one
    the per-key pool gives.  Relabelled copies of some graphs make
    buckets with more than one graph."""
    if colliding:
        monkeypatch.setattr(refinement, "_HASH_BASE", np.uint64(0))
    graphs = _POOL_INPUTS[inputs]()
    graphs += [_shuffled(g, i) for i, g in enumerate(graphs[::3])]
    spec = AlgorithmSpec.parse(label)
    state = stable_coloring(spec, _defined_for(label, graphs))
    reference = _REFERENCE_POOLS[_VARIANTS[spec.variant, spec.init].pool]
    expected = reference(spec, state.graphs, [c.tolist() for c in state.colors], _Interner())
    assert _buckets(s.value for s in signatures(state)) == _buckets(expected)


@pytest.mark.parametrize(
    "label",
    ["wl1", "epwl:A", "gdwl:spd", "peg:A", "girt:K=4", "swl", "pswl", "fwl2", "ign2wl", "spectralign:A",
     "spe:A", "basisnet:A:layers=1"],
)
def test_relabeling_invariance_beyond_verified_sizes(label):
    spec = AlgorithmSpec.parse(label)
    for g in (_hunt_pair(48)[0], random_connected_graph(32, 0.2, 7)):
        assert not distinguishes(spec, g, _shuffled(g, g.n)), (label, g.n)


# Every Q7 projector entry and the Laplacian kernel projector J/128 of a
# connected 128-vertex graph sit on a 7th-digit rounding tie, which float
# noise breaks differently in a relabelled copy.  Remove the marks once
# tie-safe projector tokens (ROADMAP item 1) land.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("graph", [lambda: _hypercube(7), lambda: random_connected_graph(128, 0.05, 3)], ids=["Q7", "random128"])
def test_projection_tokens_survive_relabelling_on_rounding_ties(graph):
    g = graph()
    assert not distinguishes(AlgorithmSpec.parse("epwl:L"), g, _shuffled(g, g.n))


@pytest.mark.parametrize("label", DIGEST_SPEC_LABELS)
def test_empty_graph_refines_in_every_variant(label):
    spec = AlgorithmSpec.parse(label)
    empty = empty_graph(0)
    state = stable_coloring(spec, [empty, complete_graph(2), empty])
    assert state.colors[0].tolist() == state.colors[2].tolist() == []
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


def test_refine_once_rejects_an_update_whose_classes_cross_the_old_ones(monkeypatch):
    """An update with as many classes as the old coloring, whose classes
    each take one element of both old classes, is no refinement either."""
    spec = AlgorithmSpec.parse("wl1")
    state = dataclasses.replace(initial_coloring(spec, path_graph(4)), colors=([0, 0, 1, 1],))

    def crossing(groups, it):
        # the classes {0, 3} and {1, 2} against the old {0, 1} and {2, 3}
        (labels,) = it.ids([(np.array([[0], [1], [1], [0]]), np.arange(4))])
        return [labels.reshape(groups[0].colors.shape)]

    monkeypatch.setitem(_VARIANTS, ("wl1", "const"), dataclasses.replace(_VARIANTS["wl1", "const"], update=crossing))
    with pytest.raises(InternalError, match="did not refine"):
        refine_once(spec, state)


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


def _sequential_cross_chain(spec, graphs):
    """The colorings of spectralign's graph-by-graph reference update, from
    the initial coloring to the first one that keeps the partition."""
    chain = [_tuples(joint_initial_coloring(spec, graphs).colors)]
    while len(chain) < 2 or not _same_partition(chain[-2], chain[-1]):
        it = _Interner()
        chain.append(
            tuple(tuple(_ref_cross_sequential(g.n, None, list(c), it)) if c else () for g, c in zip(graphs, chain[-1]))
        )
    return chain


_CROSS_INPUTS = {
    "digest": lambda: _digest_corpus(),
    "hunt": lambda: [*_hunt_pair(24), *_hunt_pair(48)],
    "mixed": _mixed_sizes,
    "zero_and_one": lambda: [
        complete_graph(2), complete_graph(1), path_graph(4), empty_graph(0), cycle_graph(3), empty_graph(0),
    ],
}


@pytest.mark.parametrize("kind", ["A", "L", "Lhat"])
@pytest.mark.parametrize(
    "inputs, colliding",
    [("digest", False), ("hunt", False), ("mixed", False), ("zero_and_one", False), ("mixed", True)],
    ids=["digest", "hunt", "mixed", "zero_and_one", "mixed_colliding"],
)
def test_spectralign_partitions_match_graph_by_graph_numbering(kind, inputs, colliding, monkeypatch):
    """Numbering the cross update pass by pass over the run, not graph by
    graph, changes ids only: every iteration's partition, the iteration
    count and the signature buckets stay those of the sequential update."""
    if colliding:
        monkeypatch.setattr(refinement, "_HASH_BASE", np.uint64(0))
    label = f"spectralign:{kind}"
    spec = AlgorithmSpec.parse(label)
    graphs = _defined_for(label, _CROSS_INPUTS[inputs]())
    chain = _sequential_cross_chain(spec, graphs)
    states = [joint_initial_coloring(spec, graphs)]
    while not states[-1].stable:
        states.append(refine_once(spec, states[-1]))
    assert len(states) == len(chain)
    for state, colors in zip(states, chain):
        assert _same_partition(state.colors, colors), state.iteration
    sequential = _ref_pool_pair_rows(spec, graphs, [list(c) for c in chain[-1]], _Interner())
    assert _buckets(s.value for s in signatures(states[-1])) == _buckets(sequential)


def test_spectral_refinement_leaves_numpy_ma_unimported():
    """``np.unique`` without index outputs asks ``np.ma.is_masked``, which
    imports ``numpy.ma`` (about 17 ms) on first use in a process."""
    code = (
        "import sys\n"
        "from eigenwl.graphs import cycle_graph, path_graph\n"
        "from eigenwl.refinement import AlgorithmSpec, distinguishes\n"
        "distinguishes(AlgorithmSpec.parse('spectralign:A'), cycle_graph(6), path_graph(6))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_spectralign_interns_once_per_pass_whatever_the_run_size(monkeypatch):
    """One refine_once makes the same number of ids calls on 2 graphs as on
    40 of the same size."""
    calls = []
    ids = refinement._BatchInterner.ids

    def counted(self, parts):
        calls.append(len(parts))
        return ids(self, parts)

    monkeypatch.setattr(refinement._BatchInterner, "ids", counted)
    spec = AlgorithmSpec.parse("spectralign:L")
    counts = []
    for size in (2, 40):
        state = joint_initial_coloring(spec, [random_connected_graph(7, 0.4, seed) for seed in range(size)])
        calls.clear()
        refine_once(spec, state)
        counts.append(len(calls))
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# reference oracle: iteration 0 as the per-key intern tables made it, one
# static.id call per distinct static key in first-seen order and one
# table.id call per domain element


def _ref_first_seen_ids(static, keys, inverse, at):
    order = np.argsort(at)
    ids = np.empty(len(keys), np.int64)
    ids[order] = [static.id(_Interner.STATIC, keys[k]) for k in order.tolist()]
    return ids[inverse]


def _ref_proj_static(spec, g, quant, static):
    lams, codes = spectral.quantized_projections(g, spec.kind, quant)
    m, nn = codes.shape[0], g.n * g.n
    if not nn:
        return []
    rows = np.empty((nn, m, 2), np.int64)
    rows[:, :, 0] = lams
    rows[:, :, 1] = codes.reshape(m, nn).T
    bounds = [0, *(np.flatnonzero(np.diff(lams)) + 1).tolist(), m]
    for a, b in zip(bounds, bounds[1:]):
        rows[:, a:b, 1].sort(axis=1)
    rows = rows.reshape(nn, 2 * m)
    _, at, inverse = np.unique(rows.view(np.dtype((np.void, 16 * m))).ravel(), return_index=True, return_inverse=True)
    keys = rows[at].view(np.dtype((np.void, 16 * m))).ravel().tolist()
    return _ref_first_seen_ids(static, keys, inverse, at).tolist()


def _ref_eig_static(spec, g, quant, static):
    lams, codes = spectral.quantized_projections(g, spec.kind, quant)
    mults = spectral.decomposition_for(g, spec.kind, quant).multiplicities
    keys, at, inverse = np.unique(codes.ravel(), return_index=True, return_inverse=True)
    slices = _ref_first_seen_ids(static, keys.tolist(), inverse, at).reshape(len(lams), g.n * g.n)
    return lams.tolist(), mults, slices.tolist()


def _ref_token_static(tokens):
    def static(spec, g, quant, table):
        return [table.id(_Interner.STATIC, tok) for tok in tokens(spec, g, quant)]

    return static


_REFERENCE_STATIC = {
    refinement._no_static: lambda spec, g, quant, table: None,
    refinement._atp_static: lambda spec, g, quant, table: [
        int(atomic_type(g, u, v)) for u in range(g.n) for v in range(g.n)
    ],
    refinement._proj_static: _ref_proj_static,
    refinement._eig_static: _ref_eig_static,
    refinement._dist_static: _ref_token_static(
        lambda spec, g, quant: rendered_tokens(distance_tokens(g, spec.distance, quant), quant.digits)
    ),
    refinement._girt_static: _ref_token_static(
        lambda spec, g, quant: [
            tuple(spectral._render_code(code, quant.digits) for code in codes)
            for codes in refinement._girt_init(g, spec.steps, quant).tolist()
        ]
    ),
}

_REFERENCE_INIT = {
    refinement._node_init: lambda n, data: [("node-init",)] * n,
    refinement._pair_init: lambda n, data: [("pair-init",)] * (n * n),
    refinement._marked_init: lambda n, data: [1 if u == v else 0 for u in range(n) for v in range(n)],
    refinement._data_init: lambda n, data: list(data),
    refinement._lam_init: lambda n, data: [(lam, sid) for lam, ids in zip(data[0], data[2]) for sid in ids],
    refinement._mult_init: lambda n, data: [(mult, sid) for mult, ids in zip(data[1], data[2]) for sid in ids],
}

# one spec per row of the variant table
INITIAL_SPEC_LABELS = [
    "wl1", "epwl:A", "gdwl:spd", "peg:L", "swl", "pswl", "fwl2", "girt:K=4", "ign2wl", "ign2wl:atp",
    "ign2wl:proj:A", "spe:L", "spectralign:A", "siamese:L", "weakspectralign:A", "basisnet:A:layers=1",
]


def _plain(data):
    if isinstance(data, tuple):
        return tuple(map(_plain, data))
    return data.tolist() if isinstance(data, np.ndarray) else data


def _assert_initial_matches_reference(label, graphs):
    spec = AlgorithmSpec.parse(label)
    row = _VARIANTS[spec.variant, spec.init]
    quant = spectral.DEFAULT_QUANT
    static, table = _Interner(), _Interner()
    data = [_REFERENCE_STATIC[row.static](spec, g, quant, static) for g in graphs]
    colors = tuple(
        tuple(table.id(_Interner.INIT, t) for t in _REFERENCE_INIT[row.init](g.n, d))
        for g, d in zip(graphs, data)
    )
    state = joint_initial_coloring(spec, graphs, quant)
    if row.static is refinement._eig_static:
        # raw entry codes stand where the reference has their static ids
        assert [_plain(d[:2]) for d in state._data] == [d[:2] for d in data], label
        assert _same_partition([d[2].ravel().tolist() for d in state._data], [sum(d[2], []) for d in data]), label
    else:
        assert [_plain(d) for d in state._data] == data, label
    assert _tuples(state.colors) == colors, label


def test_initial_specs_cover_the_variant_table():
    assert {(s.variant, s.init) for s in map(AlgorithmSpec.parse, INITIAL_SPEC_LABELS)} == set(_VARIANTS)


_INITIAL_INPUTS = {
    "mixed": _mixed_sizes,
    "zero_and_one": lambda: [
        complete_graph(2), complete_graph(1), path_graph(4), complete_graph(1), empty_graph(0), cycle_graph(3),
        empty_graph(0),
    ],
    "hunt_24_48": lambda: [*_hunt_pair(24), *_hunt_pair(48)],
}


@pytest.mark.parametrize("colliding", [False, True], ids=["hashed", "colliding"])
@pytest.mark.parametrize("inputs", sorted(_INITIAL_INPUTS))
@pytest.mark.parametrize("label", INITIAL_SPEC_LABELS)
def test_initial_coloring_matches_reference(label, inputs, colliding, monkeypatch):
    if colliding:
        monkeypatch.setattr(refinement, "_HASH_BASE", np.uint64(0))
    _assert_initial_matches_reference(label, _defined_for(label, _INITIAL_INPUTS[inputs]()))


@pytest.mark.parametrize("n", [0, 1, 7, 48, 128])
def test_atp_flat_matches_atomic_type(n):
    for g in (random_graph(n, 0.3, n), complete_graph(n), empty_graph(n)):
        want = [int(atomic_type(g, u, v)) for u in range(n) for v in range(n)]
        assert refinement._atp_flat(g).tolist() == want


# ---------------------------------------------------------------------------
# sort-based numbering


@st.composite
def _duplicated_rows(draw):
    """A few distinct rows of one width, repeated many times in any order."""
    width = draw(st.integers(1, 8))
    value = st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3)
    distinct = draw(st.lists(st.lists(value, min_size=width, max_size=width), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=80))
    return np.array([distinct[i] for i in picks], np.int64).reshape(len(picks), width)


@pytest.mark.parametrize("base", [refinement._HASH_BASE, np.uint64(0)], ids=["hashed", "colliding"])
@settings(max_examples=150, deadline=None)
@given(rows=_duplicated_rows())
def test_unique_rows_first_index_and_inverse(base, rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refinement, "_HASH_BASE", base)
        at, inverse = refinement._unique_rows(rows)
    assert (rows[at][inverse] == rows).all()
    keys = [tuple(r) for r in rows.tolist()]
    assert len(set(keys)) == len(at)
    first = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    assert sorted(first.values()) == sorted(at.tolist())
    assert all(first[keys[i]] == i for i in at.tolist())


def test_unique_rows_single_row():
    at, inverse = refinement._unique_rows(np.array([[5, -1, 7]], np.int64))
    assert at.tolist() == [0] and inverse.tolist() == [0]


@pytest.mark.parametrize("base", [refinement._HASH_BASE, np.uint64(0)], ids=["hashed", "colliding"])
@settings(max_examples=40, deadline=None)
@given(
    calls=st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 700), st.integers(0, 2**32), st.integers(0, 3), st.booleans()),
        min_size=1,
        max_size=8,
    ),
    block=st.sampled_from([refinement._BLOCK_BYTES, 64]),
)
def test_batch_interner_matches_one_key_at_a_time(base, calls, block):
    """Calls of every size, in the dict below _DICT_KEYS rows and by
    sorting above, give the ids of an intern table fed the keys in event
    order with one role per call: equal keys of two calls get two ids.
    A call's keys come in up to four parts of one width, with or without
    ``shared`` masks, and get the labels of the same keys in one part;
    with 64-byte blocks the parts are checked one by one, block by block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refinement, "_HASH_BASE", base)
        mp.setattr(refinement, "_BLOCK_BYTES", block)
        it, whole, table = refinement._BatchInterner(), refinement._BatchInterner(), _Interner()
        start = 0
        for role, (width, count, seed, cuts, masked) in enumerate(calls):
            rng = np.random.default_rng(seed)
            rows = rng.integers(0, 1 + count // 3, (count, width))
            events = start + rng.permutation(count)  # rows come out of event order
            bounds = [0, *np.sort(rng.integers(0, count + 1, cuts)).tolist(), count]
            if masked:
                # a key seen once in the call may go unhashed
                _, inverse, seen = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
                shared = (seen[inverse.ravel()] > 1) | (rng.random(count) < 0.5)
                parts = [(rows[a:b][shared[a:b]], events[a:b], shared[a:b]) for a, b in zip(bounds, bounds[1:])]
                [one] = whole.ids([(rows[shared], events, shared)])
            else:
                parts = [(rows[a:b], events[a:b]) for a, b in zip(bounds, bounds[1:])]
                [one] = whole.ids([(rows, events)])
            got = np.concatenate([it.rank(labels) for labels in it.ids(parts)])
            want = np.empty(count, np.int64)
            for i in np.argsort(events).tolist():
                want[i] = table.id(role, tuple(rows[i].tolist()))
            assert got.tolist() == want.tolist() == whole.rank(one).tolist()
            start += count


def test_numbering_holds_no_copy_of_the_key_rows(monkeypatch, peak_bytes):
    """Numbering the static rows of Q7 and a relabelled copy under Lhat,
    two parts of 16,384 rows of 16 codes, holds hash words, index arrays
    and a bounded block of rows beside the rows, not a copy of them."""
    captured = []
    first_seen = refinement._first_seen
    monkeypatch.setattr(refinement, "_first_seen", lambda parts: captured.append(parts) or first_seen(parts))
    q7 = _hypercube(7)
    refinement._proj_static(AlgorithmSpec.parse("epwl:Lhat"), [q7, _shuffled(q7, 1)], spectral.DEFAULT_QUANT)
    [parts] = captured
    assert [p.shape for p in parts] == [(16384, 16)] * 2
    assert peak_bytes(first_seen, parts) < sum(p.nbytes for p in parts)


@pytest.mark.parametrize("label", ["wl1", "epwl:A", "girt:K=4", "fwl2", "pswl", "ign2wl", "siamese:A", "spectralign:A"])
def test_updates_match_reference_in_small_blocks(label, monkeypatch):
    """Blocks of 256 bytes: the exactness check and the 15-slot tokens run
    block by block, and the parts of one call are checked one by one."""
    monkeypatch.setattr(refinement, "_BLOCK_BYTES", 256)
    _assert_matches_reference(label, _defined_for(label, [*_mixed_sizes(), *_hunt_pair(24)]))
