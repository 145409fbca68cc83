import itertools
import random
from importlib import resources

import pytest

from eigenwl import furer as furer_module
from eigenwl.furer import Witness, furer, parity_check, search_counterexamples, twist
from eigenwl.graphs import (
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    is_isomorphic,
    path_graph,
    write_graph6,
)
from eigenwl.refinement import AlgorithmSpec, distinguishes
from eigenwl.spectral import DEFAULT_QUANT
from eigenwl.witnesses import bundled_witnesses, hunt_status


def test_k2_product_is_k2(k2):
    fg = furer(k2)
    assert fg.product == k2
    assert all(len(m) == 1 for m in fg.meta_index)


def test_k4_product_has_16_vertices():
    fg = furer(complete_graph(4))
    assert fg.product.n == 16
    assert [len(m) for m in fg.meta_index] == [4, 4, 4, 4]


def test_c6_product_has_12_vertices():
    fg = furer(cycle_graph(6))
    assert fg.product.n == 12
    assert all(len(m) == 2 for m in fg.meta_index)


def test_meta_sets_partition_product():
    for base in (complete_graph(4), cycle_graph(5), path_graph(4)):
        fg = furer(base)
        seen = sorted(p for meta in fg.meta_index for p in meta)
        assert seen == list(range(fg.product.n))
        for x, meta in enumerate(fg.meta_index):
            assert len(meta) == 1 << (base.degree(x) - 1)


def test_edge_rule_holds_on_small_bases():
    for n in range(2, 7):
        for base in enumerate_graphs(n, connected_only=True):
            if base.has_isolated:
                continue
            fg = furer(base)
            owner = {}
            for x, meta in enumerate(fg.meta_index):
                for p in meta:
                    owner[p] = x
            for p in range(fg.product.n):
                for q in range(fg.product.n):
                    x, y = owner[p], owner[q]
                    expect = base.has_edge(x, y) and (
                        bool(fg.subset_masks[p] >> y & 1) == bool(fg.subset_masks[q] >> x & 1)
                    )
                    assert fg.product.has_edge(p, q) == expect


def test_furer_rejects_bad_bases():
    with pytest.raises(ValueError, match="connected"):
        furer(path_graph(1))
    from eigenwl.graphs import disjoint_union

    with pytest.raises(ValueError, match="connected"):
        furer(disjoint_union(complete_graph(2), complete_graph(2)))


def test_twist_empty_is_identity():
    fg = furer(complete_graph(4))
    assert twist(fg, []) == fg.product


def test_twist_is_involution_and_order_free():
    base = complete_graph(4)
    fg = furer(base)
    edges = list(base.edges())
    once = twist(fg, [edges[0]])
    assert once != fg.product
    # twisting the same edge again undoes it
    assert twist(fg, [edges[0]], start=once) == fg.product
    # a two-edge set equals sequential twisting in either order
    both = twist(fg, [edges[0], edges[1]])
    assert twist(fg, [edges[1]], start=once) == both
    assert twist(fg, [edges[0]], start=twist(fg, [edges[1]])) == both


def test_twist_rejects_non_base_edge():
    fg = furer(cycle_graph(4))
    with pytest.raises(ValueError, match="not a base edge"):
        twist(fg, [(0, 2)])


def test_twist_edge_count_change_on_k4():
    base = complete_graph(4)
    fg = furer(base)
    edge = next(base.edges())
    x, y = edge
    block = len(fg.meta_index[x]) * len(fg.meta_index[y])
    present = sum(
        1 for p in fg.meta_index[x] for q in fg.meta_index[y] if fg.product.has_edge(p, q)
    )
    twisted = twist(fg, [edge])
    assert twisted.num_edges == fg.product.num_edges + block - 2 * present


def test_parity_theorem_examples():
    k4 = complete_graph(4)
    first, second = list(k4.edges())[:2]
    assert parity_check(k4, [], [first]) is False
    assert parity_check(k4, [], [first, second]) is True
    c6 = cycle_graph(6)
    assert parity_check(c6, [(0, 1)], [(2, 3)]) is True


def test_parity_theorem_small_bases_single_and_double():
    for n in range(2, 5):
        for base in enumerate_graphs(n, connected_only=True):
            if base.has_isolated:
                continue
            edges = list(base.edges())
            first = edges[0]
            assert parity_check(base, [], [first]) is False
            for other in edges[1:]:
                assert parity_check(base, [first], [other]) is True
            for pair in itertools.combinations(edges, 2):
                assert parity_check(base, [], list(pair)) is True


def test_vertex_refinement_blind_on_twists():
    wl1 = AlgorithmSpec.parse("wl1")
    for base in (complete_graph(4), cycle_graph(5), complete_graph(3)):
        fg = furer(base)
        twisted = twist(fg, [next(base.edges())])
        assert is_isomorphic(fg.product, twisted) is None
        assert not distinguishes(wl1, fg.product, twisted)


def test_twist_of_k5_product_is_not_isomorphic():
    """CFI pair on 40 vertices.  Both graphs are 16-regular, so the cheap
    rejections pass and the search has to decide."""
    fg = furer(complete_graph(5))
    assert fg.product.n == 40
    assert is_isomorphic(fg.product, twist(fg, [next(fg.base.edges())])) is None


def test_search_finds_seed_witness():
    result = search_counterexamples(
        AlgorithmSpec.parse("wl1"), AlgorithmSpec.parse("epwl:A"), max_base_n=3, budget=5, seed=1
    )
    assert any(w.note.startswith("seed") for w in result.witnesses)
    assert all(not w.a_distinguishes and w.b_distinguishes for w in result.witnesses)


def test_search_self_comparison_is_empty():
    spec = AlgorithmSpec.parse("wl1")
    result = search_counterexamples(spec, spec, max_base_n=3, budget=10, seed=1)
    assert result.witnesses == ()


def test_search_budget_zero():
    result = search_counterexamples(
        AlgorithmSpec.parse("wl1"), AlgorithmSpec.parse("epwl:A"), budget=0, seed=1
    )
    assert result.witnesses == ()
    assert result.status == "budget exhausted"


def test_search_is_deterministic():
    args = dict(max_base_n=4, budget=12, seed=77)
    a = search_counterexamples(AlgorithmSpec.parse("wl1"), AlgorithmSpec.parse("epwl:A"), **args)
    b = search_counterexamples(AlgorithmSpec.parse("wl1"), AlgorithmSpec.parse("epwl:A"), **args)
    assert a == b


def test_search_skips_oversized_products_without_building_them(monkeypatch):
    built = []
    build = furer_module.furer

    def recording(base):
        fg = build(base)
        built.append(fg.product.n)
        return fg

    monkeypatch.setattr(furer_module, "furer", recording)
    spec = AlgorithmSpec.parse("wl1")
    result = search_counterexamples(spec, spec, max_base_n=5, budget=40, seed=1, max_product_n=16)
    assert result.skipped > 0
    assert built and max(built) <= 16
    assert result.examined == 1 + len(built)  # the seed pair, then one pair per product built


def test_product_size_from_base_degrees():
    """The size a hunt checks before building a product, over the bundled
    hunts' candidate stream."""
    for base, _ in furer_module._candidate_bases(6, 140, 1729):
        assert furer_module._product_n(base) == furer(base).product.n


def test_witness_line_round_trip():
    w = Witness("wl1", "epwl:A", "EhEG", "EwCW", False, True, "seed:c6-vs-2c3")
    assert Witness.from_line(w.to_line()) == w


def test_witness_line_round_trip_with_pipe_in_graph6():
    """graph6 byte 124 is ``|``, the field separator of witness lines."""
    w = Witness("wl1", "fwl2", "F?o|W", "F?o|W", False, True, "furer:F?o|W")
    assert Witness.from_line(w.to_line()) == w


def test_witness_line_round_trip_with_long_graph6_headers():
    big = write_graph6(path_graph(70))
    assert big.startswith("~") and not big.startswith("~~")
    w = Witness("swl", "pswl", big, write_graph6(cycle_graph(3)), True, False, "note|with|pipes")
    assert Witness.from_line(w.to_line()) == w


def test_bundled_witness_lines_parse_as_seven_fields():
    """No bundled line has a ``|`` inside a field, and each parses to the
    witness its seven ``|``-separated fields name."""
    text = resources.files("eigenwl").joinpath("data/witnesses.txt").read_text()
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    assert lines
    for line in lines:
        parts = line.split("|")
        assert len(parts) == 7
        assert Witness.from_line(line) == Witness(*parts[:4], parts[4] == "1", parts[5] == "1", parts[6])


@pytest.mark.parametrize(
    "line",
    [
        "",
        "wl1|fwl2",
        "wl1|fwl2|EhEG|EwCW|0|1",  # no note
        "wl1|fwl2|EhEG|EwCWX|0|1|n",  # graph6 longer than its header says
        "wl1|fwl2|EhE|EwCW|0|1|n",  # graph6 shorter than its header says
        "wl1|fwl2||EwCW|0|1|n",
        "wl1|fwl2|~??|EwCW|0|1|n",  # truncated long header
        "wl1|fwl2|EhEG|EwCW|x|y|n",  # flags neither 0 nor 1
        "wl1|fwl2|EhEG|EwCW|1|true|n",
        "wl1|fwl2|EhEG|EwCW||0|n",
        "wl1|fwl2|EhEG|EwCW|01|1|n",
    ],
)
def test_malformed_witness_lines_are_rejected(line):
    with pytest.raises(ValueError, match="bad witness line"):
        Witness.from_line(line)


@pytest.mark.parametrize("spec_a, spec_b", [("fwl2", "pswl"), ("swl", "epwl:Lhat")])
def test_bundled_hunts_replay(spec_a, spec_b):
    """The two hunts of the benchmark, rerun with their bundled parameters,
    examine, skip and find what their bundled status lines record, and
    find every bundled witness line of their two specs again."""
    params = {"max_base_n": 6, "budget": 140, "seed": 1729, "max_product_n": 48}
    result = search_counterexamples(AlgorithmSpec.parse(spec_a), AlgorithmSpec.parse(spec_b), **params)
    bundled, statuses = bundled_witnesses()
    status = hunt_status(spec_a, spec_b, result=result, **params)
    [line] = [s for s in statuses if s.startswith(status.partition("examined=")[0])]
    assert status == line
    lines = [w.to_line() for w in bundled if (w.spec_a, w.spec_b) == (spec_a, spec_b)]
    assert lines and set(lines) <= {w.to_line() for w in result.witnesses}


def test_isomorphic_bases_give_isomorphic_products_and_twists():
    """The lemma behind the hunt memo: relabelling a base relabels its
    product, and its first-edge twist stays in the same class, over the
    bundled hunts' bases."""
    rng = random.Random(24)
    bases = [b for b, _ in furer_module._candidate_bases(6, 140, 1729) if furer_module._product_n(b) <= 48]
    assert len(bases) > 90
    for base in bases:
        perm = list(range(base.n))
        rng.shuffle(perm)
        copy = base.relabel(perm)
        fg, fc = furer(base), furer(copy)
        assert is_isomorphic(fg.product, fc.product) is not None
        assert is_isomorphic(twist(fg, [next(base.edges())]), twist(fc, [next(copy.edges())])) is not None


def _unmemoized_search(spec_a, spec_b, max_base_n, budget, seed, max_product_n):
    """The witnesses, examined, skipped and status of a hunt of two exact
    specs, with every verdict computed afresh."""
    candidates = furer_module._seed_pairs()
    assert budget > len(candidates)
    remaining = budget - len(candidates)
    skipped = 0
    status = "complete"
    for base, note in furer_module._candidate_bases(max_base_n, budget, seed):
        if remaining == 0:
            status = "budget exhausted"
            break
        remaining -= 1
        if furer_module._product_n(base) > max_product_n:
            skipped += 1
            continue
        fg = furer(base)
        candidates.append((fg.product, twist(fg, [next(base.edges())]), note))
    witnesses = []
    for ga, gb, note in candidates:
        a, b = distinguishes(spec_a, ga, gb), distinguishes(spec_b, ga, gb)
        if a != b:
            witnesses.append(Witness(spec_a.label(), spec_b.label(), write_graph6(ga), write_graph6(gb), a, b, note))
    return tuple(witnesses), len(candidates), skipped, status


@pytest.mark.parametrize("spec_a, spec_b", [("wl1", "fwl2"), ("swl", "pswl")])
def test_memoized_search_equals_recomputed_verdicts(spec_a, spec_b):
    params = {"max_base_n": 6, "budget": 500, "seed": 1729, "max_product_n": 32}
    sa, sb = AlgorithmSpec.parse(spec_a), AlgorithmSpec.parse(spec_b)
    result = search_counterexamples(sa, sb, **params)
    assert result.repeats > 0
    assert result.unstable == 0
    assert (result.witnesses, result.examined, result.skipped, result.status) == _unmemoized_search(sa, sb, **params)


def test_exact_specs_run_once_per_base_class(monkeypatch):
    """swl (exact) is refined once per seed pair and base class, epwl:Lhat
    (quantized) on every examined pair at the hunt's quantization."""
    calls = {}
    run = furer_module.distinguishes

    def counting(spec, g, h, quant=DEFAULT_QUANT):
        if quant == DEFAULT_QUANT:
            calls[spec.label()] = calls.get(spec.label(), 0) + 1
        return run(spec, g, h, quant)

    monkeypatch.setattr(furer_module, "distinguishes", counting)
    params = {"max_base_n": 6, "budget": 140, "seed": 1729, "max_product_n": 48}
    result = search_counterexamples(AlgorithmSpec.parse("swl"), AlgorithmSpec.parse("epwl:Lhat"), **params)
    assert result.repeats == 22
    assert calls == {"swl": result.examined - result.repeats, "epwl:Lhat": result.examined}
