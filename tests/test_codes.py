"""Integer decimal codes of the projector, distance and walk data against
the decimal strings they replaced.

The reference oracles below are the string routes the codes replaced:
per-entry ``quantize`` strings, sorted ``"lam:ent"`` records as static
keys, tokens joined from the cached strings, and exact rationals
rendered by ``round_ratio`` and numbered in a dict.  Static ids and
token bytes must come out identical.
"""

import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenwl import exact, furer, refinement, spectral
from eigenwl.distances import DistanceKind, _subgraph, distance_matrix
from eigenwl.graphs import MatrixKind, complete_graph, cycle_graph, disjoint_union, path_graph, random_connected_graph
from eigenwl.refinement import _VARIANTS, AlgorithmSpec
from eigenwl.spectral import (
    NEAR_TIE,
    Quantization,
    _decimal_codes,
    _render_code,
    decomposition_for,
    near_ties,
    pair_token,
    quantize,
    quantized_projections,
    spectrum_token,
)
from test_refinement import _digest_corpus, _hypercube, _Interner

KINDS = (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN, MatrixKind.NORMALIZED_LAPLACIAN)


# ---------------------------------------------------------------------------
# codes render exactly like quantize


def _assert_renders_like_quantize(values, digits):
    codes, _ = _decimal_codes(np.array(values, float), digits)
    quant = Quantization(digits=digits)
    for x, code in zip(values, codes.tolist()):
        assert _render_code(code, digits) == quantize(x, quant), (x, digits)


TIES = [0.0078125, -0.0078125, 2.5e-7, -2.5e-7, 1 / 1024, -1 / 1024, 0.5, 1.5, 2.5, -2.5, -0.0, 0.0]


@pytest.mark.parametrize("digits", range(18))
def test_codes_render_like_quantize_on_ties(digits):
    _assert_renders_like_quantize(TIES, digits)


@pytest.mark.parametrize("digits", range(18))
def test_codes_render_like_quantize_near_two_to_the_52(digits):
    """Around 2**52 / 10**digits the scaled float stops holding every
    half-integer, so the codes come from ``format`` from there on."""
    edge = 2.0**52 / 10**digits
    values = [edge, (2.0**52 - 0.5) / 10**digits, 2.0**53 / 10**digits]
    values += [np.nextafter(x, d) for x in values[:] for d in (0.0, np.inf)]
    _assert_renders_like_quantize(values + [-x for x in values], digits)


def test_negative_zero_has_code_zero():
    codes, _ = _decimal_codes(np.array([-0.0, -1e-9, 1e-9]), 6)
    assert codes.tolist() == [0, 0, 0]
    assert _render_code(0, 6) == quantize(-0.0) == "0.000000"
    assert _render_code(0, 0) == quantize(-0.0, Quantization(digits=0)) == "0"


@settings(max_examples=400, deadline=None)
@given(
    x=st.one_of(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        # dyadic rationals: exact decimals, often exactly on a tie
        st.builds(lambda a, b: a / 2**b, st.integers(-(2**24), 2**24), st.integers(0, 40)),
    ),
    digits=st.integers(0, 17),
)
def test_codes_render_like_quantize_on_any_float(x, digits):
    want = quantize(x, Quantization(digits=digits))
    if abs(int(want.replace(".", ""))) < 2**63:
        _assert_renders_like_quantize([x], digits)
    else:
        with pytest.raises(ValueError, match="64-bit"):
            _decimal_codes(np.array([x]), digits)


@pytest.mark.parametrize("x, digits", [(0.15, 1), (0.45, 1), (0.0015, 3), (1.5e-06, 6), (1.5e-07, 7)])
def test_codes_round_the_exact_product_not_its_float(x, digits):
    """x * 10**digits rounds to a half-integer in floats, but the exact
    product of the double x is not one: rint alone would round it the
    wrong way half of the time."""
    p = x * 10**digits
    assert p == int(p) + 0.5 and Fraction(x) * 10**digits != Fraction(p)
    _assert_renders_like_quantize([x, -x], digits)


# ---------------------------------------------------------------------------
# codes must fit in 64 bits


def test_code_that_does_not_fit_in_64_bits_raises():
    assert _decimal_codes(np.array([9.2e18, -9.2e18]), 0)[0].tolist() == [9200000000000000000, -9200000000000000000]
    for x, digits in ((9.3e18, 0), (1.0, 19), (0.5, 22), (1e-30, 400), (1e-300, 10**9)):
        with pytest.raises(ValueError, match="64-bit"):
            _decimal_codes(np.array([0.0, x]), digits)


def test_projection_codes_reject_too_many_digits():
    k2 = complete_graph(2)
    lams, codes = quantized_projections(k2, MatrixKind.ADJACENCY, Quantization(digits=18))
    assert lams.tolist() == [-(10**18), 10**18]
    with pytest.raises(ValueError, match="64-bit"):
        quantized_projections(k2, MatrixKind.ADJACENCY, Quantization(digits=19))
    with pytest.raises(ValueError, match="64-bit"):
        refinement.distinguishes(AlgorithmSpec.parse("epwl:L"), k2, k2, Quantization(digits=19))


@pytest.mark.parametrize("digits", [0, 6, 9, 10, 18])
def test_entry_codes_are_int32_while_ten_to_the_digits_fits(digits):
    """Entries lie in [-1, 1], so int32 holds their codes up to 9 digits;
    the values are the int64 codes either way."""
    quant = Quantization(digits=digits)
    # P(3, 3) = 1 at the isolated vertex, the largest code an entry has
    pendant = disjoint_union(path_graph(3), complete_graph(1))
    cases = [(random_connected_graph(12, 0.4, 3), kind) for kind in KINDS]
    cases += [(pendant, MatrixKind.ADJACENCY), (pendant, MatrixKind.LAPLACIAN)]
    for g, kind in cases:
        lams, codes = quantized_projections(g, kind, quant)
        assert lams.dtype == np.int64
        assert codes.dtype == (np.int32 if digits <= 9 else np.int64)
        dec = decomposition_for(g, kind, quant)
        values = np.concatenate([np.asarray(dec.eigenvalues, float), *(p.ravel() for p in dec.projectors())])
        ref = _decimal_codes(values, digits)[0]
        assert lams.tolist() == ref[: dec.m].tolist()
        assert codes.ravel().tolist() == ref[dec.m :].tolist()
    assert quantized_projections(pendant, MatrixKind.ADJACENCY, quant)[1].max() == 10**digits


# ---------------------------------------------------------------------------
# near ties


def _scan_graph_48():
    """The n = 48 graph of the perfbench scan workload (its base corpus
    draws n = 16, 32, 48 from this seed in turn)."""
    rng = random.Random(2406)
    graphs = [random_connected_graph(n, rng.uniform(0.1, 0.3), rng.randrange(1 << 30)) for n in (16, 32, 48)]
    return graphs[-1]


def test_near_ties_on_the_7_cube():
    """Every Q7 projector entry is j/128, and 10**6 j/128 ends in .5 for odd j."""
    assert near_ties(_hypercube(7), MatrixKind.ADJACENCY) >= 32768


@pytest.mark.parametrize("kind", KINDS)
def test_no_near_ties_on_the_scan_graph(kind):
    assert near_ties(_scan_graph_48(), kind) == 0


def test_near_tie_threshold():
    values = np.array([0.0078125, 0.0078125 + 0.5 * NEAR_TIE * 1e-6, 0.0078125 + 3 * NEAR_TIE * 1e-6, 0.25])
    assert _decimal_codes(values, 6)[1] == 2


# ---------------------------------------------------------------------------
# reference oracle: the string route the codes replaced


@functools.lru_cache(maxsize=4)
def _ref_quantized_projections(g, kind, quant):
    dec = decomposition_for(g, kind, quant)
    lams = tuple(quantize(lam, quant) for lam in dec.eigenvalues)
    entries = [[[quantize(p[u, v], quant) for v in range(g.n)] for u in range(g.n)] for p in dec.projectors()]
    return lams, entries


def _ref_proj_static(spec, g, quant, static):
    kind = spec.kind
    lams, entries = _ref_quantized_projections(g, kind, quant)
    n = g.n
    out = [0] * (n * n)
    for u in range(n):
        for v in range(n):
            rec = ";".join(sorted(f"{lam}:{ent[u][v]}" for lam, ent in zip(lams, entries)))
            out[u * n + v] = static.id(_Interner.STATIC, (kind.value, rec))
    return out


def _ref_eig_static(spec, g, quant):
    """(eigenvalue strings, multiplicities, each eigenvalue's flat n*n
    projection entry strings)."""
    lams, entries = _ref_quantized_projections(g, spec.kind, quant)
    mults = decomposition_for(g, spec.kind, quant).multiplicities
    n = g.n
    return list(lams), mults, [[ent[u][v] for u in range(n) for v in range(n)] for ent in entries]


def _ref_pair_token(g, kind, u, v, quant):
    lams, entries = _ref_quantized_projections(g, kind, quant)
    records = sorted(f"{lam}:{ent[u][v]}" for lam, ent in zip(lams, entries))
    return f"P[{kind.value}]".encode() + ";".join(records).encode()


def _ref_spectrum_token(g, kind, quant):
    dec = decomposition_for(g, kind, quant)
    records = sorted(f"{quantize(lam, quant)}x{mult}" for lam, mult in zip(dec.eigenvalues, dec.multiplicities))
    return f"S[{kind.value}]".encode() + ";".join(records).encode()


def _hunt_products():
    """Every eighth product of at most 48 vertices in the candidate stream
    of the bundled hunts, with its one-edge twist."""
    out = []
    for base, _ in furer._candidate_bases(6, 140, 1729):
        fg = furer.furer(base)
        if fg.product.n <= 48:
            out.append((fg.product, furer.twist(fg, [next(fg.base.edges())])))
    return [g for pair in out[::8] for g in pair]


CORPORA = {
    "digest": _digest_corpus,
    "hunt": _hunt_products,
    "Q6": lambda: [_hypercube(6)],
    "random48": lambda: [_scan_graph_48()],
}


@functools.lru_cache(maxsize=None)
def _corpus(name):
    return tuple(CORPORA[name]())


PROJECTION_VARIANTS = ("epwl", "peg", "ign2wl:proj", "spe", "spectralign", "siamese", "weakspectralign", "basisnet")


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("kind", ["A", "L", "Lhat"])
def test_static_ids_match_string_reference(kind, corpus):
    """Each variant's static data of a joint run over the corpus: the
    projection variants' static ids against the string route's over one
    table, and the spectral variants' eigenvalue and entry codes, which
    the initial tokens number directly, against the string route's
    strings."""
    quant, graphs = spectral.DEFAULT_QUANT, _corpus(corpus)
    table = _Interner()
    epwl, siamese = AlgorithmSpec.parse(f"epwl:{kind}"), AlgorithmSpec.parse(f"siamese:{kind}")
    refs = {
        refinement._proj_static: [_ref_proj_static(epwl, g, quant, table) for g in graphs],
        refinement._eig_static: [_ref_eig_static(siamese, g, quant) for g in graphs],
    }

    def render(codes):
        return [_render_code(code, quant.digits) for code in codes]

    for variant in PROJECTION_VARIANTS:
        spec = AlgorithmSpec.parse(f"{variant}:{kind}")
        row = _VARIANTS[spec.variant, spec.init]
        for g, want, got in zip(graphs, refs[row.static], row.static(spec, graphs, quant)):
            if row.static is refinement._proj_static:
                assert got.tolist() == want, (spec.label(), g)
            else:
                lams, mults, slices = got
                assert (render(lams.tolist()), mults) == want[:2], (spec.label(), g)
                assert [render(codes) for codes in slices.tolist()] == want[2], (spec.label(), g)


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("kind", KINDS)
def test_tokens_match_string_reference(kind, corpus):
    quant = spectral.DEFAULT_QUANT
    for g in _corpus(corpus):
        assert spectrum_token(g, kind, quant).data == _ref_spectrum_token(g, kind, quant)
        for u in range(g.n):
            for v in range(g.n):
                assert pair_token(g, kind, u, v, quant).data == _ref_pair_token(g, kind, u, v, quant)


@pytest.mark.parametrize("digits", [0, 1, 3, 9])
def test_tokens_match_string_reference_at_other_digits(digits):
    quant = Quantization(digits=digits)
    for g in _corpus("digest")[::5]:
        for kind in KINDS:
            assert spectrum_token(g, kind, quant).data == _ref_spectrum_token(g, kind, quant)
            for u in range(g.n):
                for v in range(g.n):
                    assert pair_token(g, kind, u, v, quant).data == _ref_pair_token(g, kind, u, v, quant)


# ---------------------------------------------------------------------------
# reference oracle for the distance and walk tokens: the string route the
# codes replaced, exact rationals rendered by round_ratio and numbered in a
# dict one token at a time


def _round_ratio(p, q, digits):
    """p / q (q > 0) rounded half-even to ``digits`` places, rendered like
    ``format(x, f".{digits}f")`` with negative zero normalized."""
    whole, rem = divmod(p * 10**digits, q)
    if 2 * rem > q or (2 * rem == q and whole % 2):
        whole += 1
    sign = "-" if whole < 0 else ""
    if not digits:
        return f"{sign}{abs(whole)}"
    ip, fp = divmod(abs(whole), 10**digits)
    return f"{sign}{ip}.{fp:0{digits}d}"


def _ref_exact_ratios(g, kind):
    """Every pair's exact distance as (p, q), None across components."""
    n = g.n
    if kind.name == "prd":
        scale, powers = exact.powers(g, exact.WALK, len(kind.weights) - 1)
        den = math.lcm(*(w.denominator for w in kind.weights)) * scale ** (len(powers) - 1)
        coeffs = [int(w * den / scale**k) for k, w in enumerate(kind.weights)]  # gamma_k den / l^k
        return [(sum(c * p[u][v] for c, p in zip(coeffs, powers)), den) for u in range(n) for v in range(n)]
    out = [None] * (n * n)
    for comp, (num, den) in zip(g.components(), exact.laplacian_pinvs(g)):
        sub = _subgraph(g, comp)
        if kind.name == "biharmonic":
            num, den = exact.matmul(num, num), den * den
        edges2 = sum(sub.degrees)
        weighted = [sum(d * x for d, x in zip(sub.degrees, row)) for row in num]
        for i, u in enumerate(comp):
            for j, v in enumerate(comp):
                rd = num[i][i] + num[j][j] - 2 * num[i][j]
                out[u * n + v] = {
                    "rd": rd,
                    "biharmonic": rd,
                    "ctd": edges2 * rd,
                    "htd": weighted[i] - weighted[j] + edges2 * (num[j][j] - num[i][j]),
                }[kind.name], den
    return out


def _ref_distance_strings(g, kind, quant):
    if kind.name in ("spd", "diffusion"):
        values = distance_matrix(g, kind).values.ravel().tolist()
        return ["inf" if math.isinf(x) else quantize(x, quant) for x in values]
    return ["inf" if pq is None else _round_ratio(*pq, quant.digits) for pq in _ref_exact_ratios(g, kind)]


def _ref_girt_strings(g, steps, quant):
    scale, powers = exact.powers(g, exact.WALK, steps)
    return [
        tuple(_round_ratio(p[u][v], scale**k, quant.digits) for k, p in enumerate(powers))
        for u in range(g.n)
        for v in range(g.n)
    ]


def _dict_ids(token_lists):
    table = {}
    return [[table.setdefault(tok, len(table)) for tok in tokens] for tokens in token_lists]


def _token_corpus():
    """The digest and hunt corpora, then a disconnected graph, whose
    cross-component distances take the Infinity flag."""
    return [*_corpus("digest"), *_corpus("hunt"), disjoint_union(cycle_graph(3), path_graph(4))]


@pytest.mark.parametrize("digits", [6, 2])
@pytest.mark.parametrize("distance", [kind.name for kind in DistanceKind.all_default()])
def test_distance_static_ids_match_string_reference(distance, digits):
    spec, quant, graphs = AlgorithmSpec.parse(f"gdwl:{distance}"), Quantization(digits=digits), _token_corpus()
    want = _dict_ids(_ref_distance_strings(g, spec.distance, quant) for g in graphs)
    assert [ids.tolist() for ids in refinement._dist_static(spec, graphs, quant)] == want


@pytest.mark.parametrize("digits", [6, 2])
@pytest.mark.parametrize("steps", [4, 16])
def test_walk_static_ids_match_string_reference(steps, digits):
    spec, quant, graphs = AlgorithmSpec.parse(f"girt:K={steps}"), Quantization(digits=digits), _token_corpus()
    want = _dict_ids(_ref_girt_strings(g, steps, quant) for g in graphs)
    assert [ids.tolist() for ids in refinement._girt_static(spec, graphs, quant)] == want
