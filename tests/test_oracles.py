"""Independent implementations of the simplest refinements, used as
oracles for the engine, plus classical known-hard graph pairs."""

import random
from itertools import combinations

from eigenwl.graphs import enumerate_graphs, is_isomorphic, random_connected_graph
from eigenwl.refinement import AlgorithmSpec, compare_partitions, distinguishes


def _joint_vertex_refinement(copies, init_colors):
    """Plain joint vertex refinement over (graph, colors) copies; returns
    the stable per-copy color lists.  Deliberately written with its own
    loop shape and token layout, independent of the engine."""
    colors = [list(c) for c in init_colors]
    prev = len({c for cols in colors for c in cols})
    for _ in range(sum(g.n for g in copies) + 1):
        table = {}
        new_colors = []
        for g, cols in zip(copies, colors):
            out = []
            for u in range(g.n):
                bag = sorted((cols[v], g.has_edge(u, v)) for v in range(g.n) if v != u)
                key = (cols[u], tuple(bag))
                out.append(table.setdefault(key, len(table)))
            new_colors.append(out)
        colors = new_colors
        if len(table) == prev:
            return colors
        prev = len(table)
    raise AssertionError("oracle refinement failed to stabilize")


def wl1_oracle_distinguishes(g, h):
    stable = _joint_vertex_refinement([g, h], [[0] * g.n, [0] * h.n])
    return sorted(stable[0]) != sorted(stable[1])


def swl_oracle_distinguishes(g, h):
    """Refine every rooted copy jointly; pool per copy, then per graph."""
    copies = [g] * g.n + [h] * h.n
    inits = [[1 if v == r else 0 for v in range(g.n)] for r in range(g.n)]
    inits += [[1 if v == r else 0 for v in range(h.n)] for r in range(h.n)]
    stable = _joint_vertex_refinement(copies, inits)
    reps = [tuple(sorted(cols)) for cols in stable]
    return sorted(reps[: g.n]) != sorted(reps[g.n :])


def test_engine_wl1_matches_independent_oracle():
    corpus = list(enumerate_graphs(5)) + list(enumerate_graphs(6, connected_only=True))[:40]
    spec = AlgorithmSpec.parse("wl1")
    for g, h in combinations(corpus, 2):
        if g.n != h.n:
            continue
        assert distinguishes(spec, g, h) == wl1_oracle_distinguishes(g, h)


def test_engine_swl_matches_independent_oracle():
    rng = random.Random(31)
    corpus = list(enumerate_graphs(5, connected_only=True))
    corpus += [random_connected_graph(7, 0.5, rng.randrange(1 << 30)) for _ in range(8)]
    spec = AlgorithmSpec.parse("swl")
    pairs = [(g, h) for g, h in combinations(corpus, 2) if g.n == h.n]
    for g, h in rng.sample(pairs, 120):
        assert distinguishes(spec, g, h) == swl_oracle_distinguishes(g, h)


def test_plain_pair_refinement_has_vertex_refinement_power():
    """The 15-slot equivariant pair update with atomic-type initialization
    separates exactly the graphs plain vertex refinement separates."""
    corpus = []
    for n in range(2, 7):
        corpus.extend(enumerate_graphs(n))
    report = compare_partitions(
        AlgorithmSpec.parse("ign2wl:atp"), AlgorithmSpec.parse("wl1"), corpus
    )
    assert report.relation == "equivalent"


def test_strongly_regular_pair_is_blind_spot(rook_4x4, shrikhande):
    """The two 16-vertex strongly regular graphs with identical parameters
    are non-isomorphic yet indistinguishable by every implemented
    refinement up to the folklore pair refinement; anything the chain
    bounds must therefore be blind too."""
    rook, shrik = rook_4x4, shrikhande
    assert rook.degrees == shrik.degrees == (6,) * 16
    assert is_isomorphic(rook, shrik) is None
    for label in ("wl1", "swl", "pswl", "fwl2", "epwl:A", "epwl:Lhat", "spectralign:A", "gdwl:rd"):
        assert not distinguishes(AlgorithmSpec.parse(label), rook, shrik), label
