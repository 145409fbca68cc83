import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eigenwl.cli import main
from eigenwl.distances import (
    DistanceKind,
    biharmonic,
    commute_time,
    cross_validate,
    diffusion_distance,
    distance_matrix,
    distance_tokens,
    hitting_time,
    pagerank_distance,
    resistance,
    spd,
)
from eigenwl.graphs import (
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
from eigenwl.spectral import DEFAULT_QUANT, Quantization, _render_code

INF = float("inf")


def rendered_tokens(tokens, digits=DEFAULT_QUANT.digits):
    """The decimal strings that ``distance_tokens`` codes stand for, as the
    former string route spelled them: ``b"inf"`` across components."""
    return [b"inf" if inf else _render_code(code, digits).encode() for inf, code in tokens.tolist()]


# ---------------------------------------------------------------------------
# distance kind grammar


def test_distance_kind_parsing():
    assert DistanceKind.parse("spd").name == "spd"
    assert DistanceKind.parse("prd:w=0,1,0.5").weights == (0, 1, 0.5)
    assert DistanceKind.parse("diffusion:tau=2.5").tau == 2.5
    assert DistanceKind.parse("diff").tau == 1.0
    assert len(DistanceKind.parse("prd").weights) == 17  # default truncation
    for text in ("prd:w=0,1,0.5", "prd", "diffusion:tau=2", "rd", "diffusion:tau=1.2345678"):
        kind = DistanceKind.parse(text)
        assert DistanceKind.parse(kind.label()) == kind
    assert DistanceKind.parse("diffusion:tau=1").label() == "diffusion:tau=1"


@pytest.mark.parametrize(
    "bad",
    [
        *("spd:x=1", "prd:gamma=1", "diffusion:tau=-1", "hop", "diffusion:tau=nan", "diffusion:tau=inf"),
        *("rd:", "prd:", "diffusion:"),
    ],
)
def test_distance_kind_rejects(bad):
    with pytest.raises(ValueError):
        DistanceKind.parse(bad)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"name": "diffusion", "tau": float("nan")},
        {"name": "diffusion", "tau": float("inf")},
        {"name": "spd", "tau": 2.0},
        {"name": "rd", "weights": (Fraction(1),)},
        {"name": "prd", "weights": (Fraction(1),), "tau": 1.0},
        {"name": "diffusion", "tau": 1.0, "weights": (Fraction(1),)},
    ],
    ids=["nan-tau", "inf-tau", "spd-tau", "rd-weights", "prd-tau", "diffusion-weights"],
)
def test_distance_kind_constructor_rejects(kwargs):
    # label() prints only the kind's own parameter, so a kind carrying
    # another would label as a different kind
    with pytest.raises(ValueError):
        DistanceKind(**kwargs)


def test_float_walk_weights_are_exact_fractions():
    kind = DistanceKind("prd", weights=(0, 1, 0.5))
    assert kind == DistanceKind.parse("prd:w=0,1,1/2")
    g = random_connected_graph(7, 0.4, 3)
    assert np.array_equal(distance_tokens(g, kind), distance_tokens(g, DistanceKind.parse("prd:w=0,1,1/2")))


# ---------------------------------------------------------------------------
# individual distances against hand values


def test_spd_examples(p3, k2):
    assert spd(p3).entry(0, 2) == 2.0
    assert spd(k2).entry(0, 1) == 1.0
    assert spd(disjoint_union(k2, k2)).entry(0, 2) == INF


def test_resistance_examples(k2):
    assert resistance(k2).entry(0, 1) == pytest.approx(1.0)
    # triangle: series-parallel 1 || (1 + 1)
    assert resistance(complete_graph(3)).entry(0, 1) == pytest.approx(2.0 / 3.0)
    # C4 adjacent: 1 || 3
    assert resistance(cycle_graph(4)).entry(0, 1) == pytest.approx(3.0 / 4.0)


def test_hitting_time_examples(k2, p3):
    h = hitting_time(k2)
    assert h.entry(0, 1) == pytest.approx(1.0)
    assert h.entry(1, 0) == pytest.approx(1.0)
    hp = hitting_time(p3)
    # first-step recursion oracle: from an end the middle is one forced step;
    # middle -> end solves h = 1 + (1 + h)/2
    assert hp.entry(0, 1) == pytest.approx(1.0)
    assert hp.entry(1, 0) == pytest.approx(3.0)
    assert hp.entry(0, 2) == pytest.approx(4.0)
    assert not hp.symmetric
    assert np.all(np.diag(hp.values) == 0.0)


def test_commute_time_examples(k2):
    assert commute_time(k2).entry(0, 1) == pytest.approx(2.0)
    c4 = cycle_graph(4)
    # via commute = 2|E| * resistance with resistance 3/4
    assert commute_time(c4).entry(0, 1) == pytest.approx(6.0)
    vals = commute_time(c4).values
    assert np.allclose(vals, vals.T)


def test_pagerank_examples(k2):
    assert pagerank_distance(k2, (0.0, 1.0)).entry(0, 1) == pytest.approx(1.0)
    s3 = star_graph(3)
    prd = pagerank_distance(s3, (0.0, 1.0))
    assert prd.entry(0, 1) == pytest.approx(1.0 / 3.0)  # center -> leaf
    assert prd.entry(1, 0) == pytest.approx(1.0)  # leaf -> center
    ident = pagerank_distance(s3, (1.0,))
    assert np.allclose(ident.values, np.eye(4))


def test_pagerank_rejects_isolated():
    with pytest.raises(ValueError, match="isolated"):
        pagerank_distance(disjoint_union(complete_graph(2), empty_graph(1)), (0.0, 1.0))


def test_diffusion_examples(k2):
    c4 = cycle_graph(4)
    assert diffusion_distance(c4, 0.0).entry(0, 1) == pytest.approx(math.sqrt(2.0))
    assert diffusion_distance(c4, 0.0).entry(2, 2) == 0.0
    assert diffusion_distance(k2, 1.0).entry(0, 1) == pytest.approx(math.sqrt(2.0) * math.exp(-2.0))


def test_biharmonic_examples(k2):
    b = biharmonic(k2)
    assert b.entry(0, 1) == pytest.approx(0.5)
    assert np.all(np.diag(b.values) == 0.0)
    assert np.allclose(b.values, b.values.T)


def test_infinity_tokens_are_distinct():
    g = disjoint_union(complete_graph(2), complete_graph(2))
    for kind in DistanceKind.all_default():
        tokens = distance_tokens(g, kind).reshape(4, 4, 2)
        if kind.name in ("prd", "diffusion"):
            assert not tokens[:, :, 0].any(), kind  # walks stay finite across components
            continue
        assert tokens[0, 2].tolist() == [1, 0], kind  # the Infinity flag, code 0
        assert not tokens[0, 0, 0] and not tokens[0, 1, 0], kind
    assert rendered_tokens(distance_tokens(g, DistanceKind("spd")))[1:3] == [b"1.000000", b"inf"]


# ---------------------------------------------------------------------------
# dual-route agreement and metric properties


@pytest.fixture(scope="module")
def random_connected():
    rng = random.Random(99)
    return [
        random_connected_graph(rng.randint(4, 11), rng.uniform(0.3, 0.7), rng.randrange(1 << 30))
        for _ in range(15)
    ]


def test_cross_validation_on_random_connected(random_connected):
    for g in random_connected:
        for kind in DistanceKind.all_default():
            rep = cross_validate(g, kind)
            assert rep.passed(), (write_graph6(g), kind.label(), rep)


def test_cross_validation_on_disconnected():
    g = disjoint_union(cycle_graph(3), path_graph(4))
    for kind in DistanceKind.all_default():
        rep = cross_validate(g, kind)
        assert rep.passed(), kind.label()


def _triangle_ok(vals):
    n = vals.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if vals[i, k] > vals[i, j] + vals[j, k] + 1e-9:
                    return False
    return True


def test_triangle_inequality_spd_rd_diffusion(random_connected, connected_n6):
    for g in random_connected[:8] + connected_n6[::7]:
        assert _triangle_ok(spd(g).values)
        assert _triangle_ok(resistance(g).values)
        if not g.has_isolated:
            assert _triangle_ok(diffusion_distance(g, 1.0).values)


def test_commute_equals_scaled_resistance(random_connected):
    for g in random_connected:
        scaled = 2.0 * g.num_edges * resistance(g).values
        np.fill_diagonal(scaled, 0.0)
        assert np.max(np.abs(commute_time(g).values - scaled)) <= 1e-8


def test_distances_relabel_invariant():
    g = random_connected_graph(8, 0.45, 17)
    perm = [5, 2, 7, 0, 3, 6, 1, 4]
    h = g.relabel(perm)
    for kind in DistanceKind.all_default():
        a = distance_matrix(g, kind).values
        b = distance_matrix(h, kind).values
        for u in range(g.n):
            for v in range(g.n):
                x, y = a[u, v], b[perm[u], perm[v]]
                assert (math.isinf(x) and math.isinf(y)) or abs(x - y) < 1e-9


def test_spd_min_power_matches_bfs_on_sweep():
    rng = random.Random(4)
    mismatches = 0
    for _ in range(50):
        g = random_connected_graph(rng.randint(4, 12), rng.uniform(0.25, 0.75), rng.randrange(1 << 30))
        rep = cross_validate(g, DistanceKind("spd"))
        mismatches += rep.exact_mismatches + rep.infinity_mismatches
    assert mismatches == 0


# ---------------------------------------------------------------------------
# byte-identity of every distance output


# sha256 over the records of _output_records as the per-kind if-chains
# produced them before the distance table replaced them.
OUTPUT_DIGEST = "f2691bb49bd847bd1f0e29af9e91a29687777bfc2660ae3210101edb061409f7"

OUTPUT_KINDS = DistanceKind.all_default() + [
    DistanceKind.parse(text)
    for text in ("prd:w=0,1,0.5", "prd:w=1/3,2/7,0,5", "diffusion:tau=0", "diffusion:tau=2.5")
]


def _output_corpus():
    """Every graph with n <= 4, C3 + P4, then 16 seeded random graphs with
    n <= 10, half of them sparse enough to be disconnected."""
    out = []
    for n in range(1, 5):
        out.extend(enumerate_graphs(n))
    out.append(disjoint_union(cycle_graph(3), path_graph(4)))
    rng = random.Random(5)
    for i in range(16):
        n = rng.randint(5, 10)
        p = rng.uniform(0.1, 0.3) if i % 2 else rng.uniform(0.35, 0.7)
        out.append(random_graph(n, p, rng.randrange(1 << 30)))
    return out


def _attempt(fn):
    """The call's records, or its exception type and message."""
    try:
        return fn()
    except ValueError as exc:
        return [f"{type(exc).__name__}: {exc}".encode()]


def _output_records(graphs, capsys):
    for g in graphs:
        yield write_graph6(g).encode()
        for kind in OUTPUT_KINDS:
            yield kind.label().encode()
            yield from _attempt(
                lambda: [
                    ",".join(format(float(x), ".17g") for x in row).encode()
                    for row in distance_matrix(g, kind).values
                ]
            )
            for quant in (DEFAULT_QUANT, Quantization(digits=2)):
                yield from _attempt(lambda: rendered_tokens(distance_tokens(g, kind, quant), quant.digits))
            rep = _attempt(lambda: cross_validate(g, kind))
            if isinstance(rep, list):
                yield from rep
            else:
                yield (
                    f"{rep.kind},{rep.max_residual!r},{rep.infinity_mismatches},"
                    f"{rep.exact_mismatches},{rep.passed()}"
                ).encode()
            code = main(["distances", "--kind", kind.label(), "--g", write_graph6(g)])
            captured = capsys.readouterr()
            yield f"{code}\n{captured.out}{captured.err}".encode()


def test_distance_outputs_digest(capsys):
    graphs = _output_corpus()
    assert sum(not g.is_connected() for g in graphs) >= 12
    h = hashlib.sha256()
    for rec in _output_records(graphs, capsys):
        h.update(rec + b"\n")
    assert h.hexdigest() == OUTPUT_DIGEST
