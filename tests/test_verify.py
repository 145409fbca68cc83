import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from eigenwl import spectral, verify
from eigenwl.distances import DistanceKind, distance_matrix
from eigenwl.furer import Witness
from eigenwl.graphs import MatrixKind, cycle_graph, random_connected_graph, write_graph6
from eigenwl.refinement import AlgorithmSpec, stable_coloring
from eigenwl.spectral import Quantization, exact_pair_token, pair_token
from eigenwl.verify import (
    CheckResult,
    VerifyConfig,
    check_exact_float_agreement,
    check_witness_corpus,
    connected_corpus,
    hierarchy_directions,
    random_corpus,
)


def test_corpora_are_deterministic():
    a = random_corpus(10, 9, 123)
    b = random_corpus(10, 9, 123)
    assert a == b
    assert all(g.is_connected() for g in a)
    assert len(connected_corpus(5)) == 1 + 1 + 2 + 6 + 21


def test_hierarchy_direction_list_is_complete():
    dirs = hierarchy_directions()
    assert len(dirs) == 31
    labels = {d[0] for d in dirs} | {d[1] for d in dirs}
    # every algorithm family appears
    for family in ("wl1", "epwl", "pswl", "fwl2", "gdwl", "spectralign", "weakspectralign",
                   "siamese", "basisnet", "spe", "peg", "girt"):
        assert any(label.startswith(family) for label in labels), family
    equivalences = [d for d in dirs if d[2] == "equivalent"]
    assert len(equivalences) == 6  # three kinds each for the two equal-power pairs


def test_fault_injection_one_digit_rounding_fails():
    """Corrupted quantization must break the exact/float agreement check."""
    cfg = replace(VerifyConfig(), quant=Quantization(digits=1))
    result = check_exact_float_agreement(cfg)
    assert not result.passed
    assert "failures" in result.details


def test_quick_config_shrinks_every_corpus():
    quick = VerifyConfig().quick()
    assert quick.corpus_max_n <= 5
    assert quick.random_graphs <= 25
    assert quick.parity_max_base_n <= 4


def test_witness_check_rejects_an_isomorphic_pair(monkeypatch):
    """A recorded pair of isomorphic graphs fails the witness check, also
    when its flags replay and it is not the first gadget pair."""
    witnesses, statuses = verify.bundled_witnesses()
    c6 = cycle_graph(6)
    relabelled = write_graph6(c6.relabel([3, 1, 5, 0, 2, 4]))
    pair = Witness("wl1", "epwl:A", write_graph6(c6), relabelled, False, False, "seed:c6-relabelled")
    monkeypatch.setattr(verify, "bundled_witnesses", lambda: (witnesses + [pair], statuses))
    result = check_witness_corpus(replace(VerifyConfig(), parity_max_base_n=2))
    assert not result.passed
    assert "witness-pair-isomorphic" in result.details and relabelled in result.details


def test_exact_pair_ids_keep_no_power_tables(fresh_store):
    """Check 2's exact ids leave no power table in ``g.derived`` and
    equal the first-seen numbering of the tokens read from the tables."""
    graphs = [random_connected_graph(n, 0.5, 900 + n) for n in range(1, 9)]
    graphs.append(graphs[-1].relabel([7, 6, 5, 4, 3, 2, 1, 0]))
    for kind in (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN):
        ids = verify._exact_pair_ids(kind, graphs)
        assert not any(("powers", kind) in g.derived for g in graphs)
        seen = {}
        want = [
            [seen.setdefault(exact_pair_token(g, kind, u, v), len(seen)) for u in range(g.n) for v in range(g.n)]
            for g in graphs
        ]
        assert [part.tolist() for part in ids] == want


# ---------------------------------------------------------------------------
# reference oracle: the pair checks as they compared rendered string
# tokens, pair by pair in dicts


def _ref_exact_float_agreement(cfg) -> CheckResult:
    """Per graph, the quantized pair tokens and the exact rational tokens
    must induce the same partition of ordered vertex pairs (adjacency and
    Laplacian kinds); across graphs, equal exact tokens must imply equal
    quantized tokens."""
    start = time.time()
    corpus = connected_corpus(cfg.corpus_max_n)
    bad = []
    count = 0
    # exact tokens are keyed by their bytes, which name the kind: hashing
    # and comparing the Fraction tuples themselves costs far more
    cross: dict[bytes, bytes] = {}
    for g in corpus:
        for kind in (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN):
            f2e: dict[bytes, bytes] = {}
            e2f: dict[bytes, bytes] = {}
            for u in range(g.n):
                for v in range(g.n):
                    ft = pair_token(g, kind, u, v, cfg.quant).data
                    ekey = exact_pair_token(g, kind, u, v).serialize()
                    count += 1
                    if f2e.setdefault(ft, ekey) != ekey or e2f.setdefault(ekey, ft) != ft:
                        bad.append((write_graph6(g), kind.value, u, v))
                    if cross.setdefault(ekey, ft) != ft:
                        bad.append((write_graph6(g), kind.value, u, v, "cross-graph"))
    details = f"failures {bad[:3]}" if bad else ""
    return CheckResult("exact-float-agreement", not bad, details, time.time() - start, count)


def _ref_distances_determined(cfg) -> CheckResult:
    """Grouping ordered pairs of the random corpus by (stable projection
    refinement colors of u and v, pair invariant of (u, v)) leaves every
    distance constant inside each group (exact for shortest paths)."""
    start = time.time()
    corpus = random_corpus(cfg.random_graphs, cfg.random_max_n, cfg.seed)
    spec = AlgorithmSpec.parse("epwl:Lhat")
    state = stable_coloring(spec, corpus, cfg.quant)
    kinds = DistanceKind.all_default()
    matrices = [[distance_matrix(g, kind).values for kind in kinds] for g in corpus]

    groups: dict[tuple, list[float]] = {}
    bad = []
    count = 0
    for gi, g in enumerate(corpus):
        cols = state.colors[gi].tolist()
        for u in range(g.n):
            for v in range(g.n):
                key = (cols[u], cols[v], pair_token(g, MatrixKind.NORMALIZED_LAPLACIAN, u, v, cfg.quant).data)
                vals = [mat[u, v] for mat in matrices[gi]]
                count += 1
                ref = groups.get(key)
                if ref is None:
                    groups[key] = vals
                    continue
                for ki, (a, b) in enumerate(zip(ref, vals)):
                    if np.isinf(a) != np.isinf(b):
                        bad.append((write_graph6(g), u, v, kinds[ki].label(), "inf-mismatch"))
                    elif np.isinf(a):
                        continue
                    elif kinds[ki].compares_exactly:
                        if a != b:
                            bad.append((write_graph6(g), u, v, kinds[ki].label()))
                    elif abs(a - b) > verify.DISTANCE_GROUP_TOL:
                        bad.append((write_graph6(g), u, v, kinds[ki].label(), abs(a - b)))
    details = f"{len(groups)} groups" + (f"; violations {bad[:3]}" if bad else "")
    return CheckResult("distances-determined-by-stable-colors", not bad, details, time.time() - start, count)


def _ref_pair_colors_determine_projections(cfg) -> CheckResult:
    """Equal stable subgraph-refinement pair colors imply equal projection
    pair invariants, for all three matrix kinds, across the corpus."""
    start = time.time()
    corpus = connected_corpus(cfg.corpus_max_n)
    state = stable_coloring(AlgorithmSpec.parse("pswl"), corpus, cfg.quant)
    bad = []
    count = 0
    for kind in (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN, MatrixKind.NORMALIZED_LAPLACIAN):
        seen: dict[int, bytes] = {}
        for gi, g in enumerate(corpus):
            if kind is MatrixKind.NORMALIZED_LAPLACIAN and g.has_isolated:
                continue
            cols = state.colors[gi].tolist()
            n = g.n
            for u in range(n):
                for v in range(n):
                    tok = pair_token(g, kind, u, v, cfg.quant).data
                    count += 1
                    if seen.setdefault(cols[u * n + v], tok) != tok:
                        bad.append((kind.value, write_graph6(g), u, v))
    details = f"failures {bad[:3]}" if bad else ""
    return CheckResult("pair-colors-determine-projections", not bad, details, time.time() - start, count)


PAIR_CHECKS = [
    (verify.check_exact_float_agreement, _ref_exact_float_agreement),
    (verify.check_distances_determined, _ref_distances_determined),
    (verify.check_pair_colors_determine_projections, _ref_pair_colors_determine_projections),
]


@pytest.mark.parametrize("digits", [None, 1, 2, 3])
@pytest.mark.parametrize("check, reference", PAIR_CHECKS, ids=lambda f: f.__name__)
def test_pair_checks_match_string_reference(check, reference, digits):
    """The id form of checks 2, 4 and 7 gives the string form's verdict,
    count and details, also at digits where checks 2 and 7 fail."""
    cfg = VerifyConfig().quick()
    if digits is not None:
        cfg = replace(cfg, quant=Quantization(digits=digits))
    got, want = check(cfg), reference(cfg)
    assert (got.passed, got.count, got.details) == (want.passed, want.count, want.details)


def test_quick_run_renders_no_string_tokens(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a check rendered a string token")

    for module in (spectral, verify):
        monkeypatch.setattr(module, "pair_token", boom, raising=False)
        monkeypatch.setattr(module, "exact_pair_token", boom, raising=False)
    results = verify.run_all(VerifyConfig().quick(), report=None)
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


@pytest.mark.parametrize("seed", [5, 7])
def test_distances_check_matches_string_reference_on_violations(seed, monkeypatch):
    """Distances shifted by the row's vertex, so that pairs of one group
    disagree in every way the check tells apart: exactly (seed 7), on
    being infinite (seed 5) and beyond the tolerance (both)."""
    original = distance_matrix

    class Shifted:
        def __init__(self, g, kind):
            row = np.arange(g.n) % 4
            self.values = original(g, kind).values.copy()
            if kind.compares_exactly:
                self.values[row == 1] += 1
            else:
                self.values[row == 2] += 1e-5
            if kind.name == "rd":
                self.values[row == 3, 0] = np.inf

    monkeypatch.setattr(verify, "distance_matrix", Shifted)
    monkeypatch.setattr(sys.modules[__name__], "distance_matrix", Shifted)
    cfg = replace(VerifyConfig().quick(), seed=seed)
    got, want = verify.check_distances_determined(cfg), _ref_distances_determined(cfg)
    assert not got.passed
    assert (got.passed, got.count, got.details) == (want.passed, want.count, want.details)
