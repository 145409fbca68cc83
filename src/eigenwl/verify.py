"""Property suites: every corpus-level guarantee as a runnable check.

Each check returns a :class:`CheckResult`; ``run_all`` executes the full
battery in order.  The same functions back the ``eigenwl verify``
command and the acceptance test module, so there is exactly one
implementation of every checked property.

Corpora are deterministic: exhaustive connected graphs up to a size cap
plus seeded random connected graphs.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Iterable, Optional

import numpy as np

from . import exact
from . import furer as furer_mod
from .distances import DistanceKind, cross_validate, distance_matrix
from .graphs import (
    Graph,
    MatrixKind,
    biconnectivity_report,
    build_matrix,
    enumerate_graphs,
    is_isomorphic,
    parse_graph6,
    random_connected_graph,
    write_graph6,
)
from .refinement import (
    AlgorithmSpec, _first_seen, _projection_pair_ids, distinguishes, refinement_violations, signatures, stable_coloring
)
from .spectral import DEFAULT_QUANT, EPS_ALG, Quantization, decomposition_for, validate_decomposition
from .witnesses import bundled_witnesses

__all__ = ["CheckResult", "VerifyConfig", "run_all", "ALL_CHECKS"]

DISTANCE_GROUP_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str
    seconds: float
    count: int

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f": {self.details}" if self.details else ""
        return f"{status} {self.name} ({self.count} items, {self.seconds:.1f}s){extra}"


@dataclass(frozen=True)
class VerifyConfig:
    corpus_max_n: int = 7
    random_graphs: int = 200
    random_max_n: int = 12
    hierarchy_random_graphs: int = 200
    hierarchy_random_max_n: int = 10
    parity_max_base_n: int = 5
    seed: int = 1729
    quant: Quantization = DEFAULT_QUANT

    def quick(self) -> "VerifyConfig":
        """Shrunk corpora for smoke runs."""
        return replace(
            self,
            corpus_max_n=min(self.corpus_max_n, 5),
            random_graphs=min(self.random_graphs, 25),
            random_max_n=min(self.random_max_n, 9),
            hierarchy_random_graphs=min(self.hierarchy_random_graphs, 25),
            hierarchy_random_max_n=min(self.hierarchy_random_max_n, 8),
            parity_max_base_n=min(self.parity_max_base_n, 4),
        )


# ---------------------------------------------------------------------------
# corpora


def connected_corpus(max_n: int) -> list[Graph]:
    """All connected graphs on 1..max_n vertices, one per class."""
    out: list[Graph] = []
    for n in range(1, max_n + 1):
        out.extend(enumerate_graphs(n, connected_only=True))
    return out


def random_corpus(num: int, max_n: int, seed: int) -> list[Graph]:
    """Seeded random connected graphs, 4 <= n <= max_n."""
    rng = random.Random(seed)
    out = []
    for _ in range(num):
        n = rng.randint(4, max(4, max_n))
        p = rng.uniform(0.25, 0.75)
        out.append(random_connected_graph(n, p, rng.randrange(1 << 30)))
    return out


def _no_isolated(corpus: Iterable[Graph]) -> list[Graph]:
    return [g for g in corpus if not g.has_isolated]


def _kinds_for(g: Graph) -> list[MatrixKind]:
    kinds = [MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN]
    if not g.has_isolated:
        kinds.append(MatrixKind.NORMALIZED_LAPLACIAN)
    return kinds


def _joined(arrays) -> np.ndarray:
    """The int64 arrays one after the other, also when there are none."""
    return np.concatenate([np.empty(0, np.int64), *arrays])


def _pair_at(graphs: list[Graph], i: int) -> tuple[Graph, int, int]:
    """The graph and the pair (u, v) of element i of the graphs' flat n*n
    arrays, joined graph after graph."""
    for g in graphs:
        if i < g.n * g.n:
            return g, *divmod(i, g.n)
        i -= g.n * g.n


def _differs(values: np.ndarray, *keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mask of the elements whose value differs from the value at the
    first element with the same keys, index of that first element), as a
    dict from keys to first values finds them element by element.  The
    nonnegative key columns are packed into one int64 by shifts."""
    packed, bits = np.zeros(len(values), np.int64), 0
    for col in reversed(keys):
        packed |= col << bits
        bits += int(col.max(initial=0)).bit_length()
    if bits > 63:
        raise ValueError(f"pair keys need {bits} bits, more than an int64 holds")
    _, at, inverse = np.unique(packed, return_index=True, return_inverse=True)
    first = at[inverse]
    return values[first] != values, first


def _exact_pair_ids(kind: MatrixKind, graphs: list[Graph]) -> list[np.ndarray]:
    """Flat n*n ids of the ``exact_pair_token``s of an integer kind (A, L),
    numbered jointly over the graphs from rows of the id of the graph's
    characteristic polynomial, then the moments M^k(u, v) for k < n.  The
    powers are a local list, not the graph's table: once numbered, only
    the rows are needed."""
    polys, rows = [], []
    for g in graphs:
        mat = exact.int_matrix(g, kind)
        powers = [exact.identity(g.n), mat]
        exact.extend_powers(powers, g.n - 1)
        del powers[g.n :]  # M^0, ..., M^{n-1}, also for n = 1
        polys.append(np.array([exact.power_charpoly(powers, mat)], np.int64))
        row = np.empty((g.n * g.n, g.n + 1), np.int64)
        row[:, 1:] = np.array(powers, np.int64).reshape(g.n, -1).T
        rows.append(row)
    for row, poly in zip(rows, _first_seen(polys)):
        row[:, 0] = poly
    return _first_seen(rows)


# ---------------------------------------------------------------------------
# the checks


def check_spectral_algebra(cfg: VerifyConfig) -> CheckResult:
    """Projector residuals (idempotence, orthogonality, completeness,
    reconstruction, trace) within EPS_ALG on the whole corpus."""
    start = time.time()
    corpus = connected_corpus(cfg.corpus_max_n)
    worst = 0.0
    bad = []
    count = 0
    for g in corpus:
        for kind in _kinds_for(g):
            dec = decomposition_for(g, kind, cfg.quant)
            rep = validate_decomposition(dec, build_matrix(g, kind))
            count += 1
            worst = max(
                worst, rep.idempotence, rep.orthogonality, rep.completeness, rep.reconstruction,
                rep.trace_error,
            )
            if not rep.passed(EPS_ALG):
                bad.append((write_graph6(g), kind.value))
    details = f"max residual {worst:.2e}" + (f"; failures {bad[:3]}" if bad else "")
    return CheckResult("spectral-algebra", not bad, details, time.time() - start, count)


def check_exact_float_agreement(cfg: VerifyConfig) -> CheckResult:
    """Per graph, the quantized pair invariants and the exact rational
    ones must induce the same partition of ordered vertex pairs (adjacency
    and Laplacian kinds); across graphs, equal exact invariants must imply
    equal quantized ones.  Both sides compare as ids: the projection pair
    ids and the ids of the exact integer rows."""
    start = time.time()
    corpus = connected_corpus(cfg.corpus_max_n)
    owner = np.repeat(np.arange(len(corpus)), [g.n * g.n for g in corpus])
    kinds = (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN)
    # (graph, kind, pair, cross-graph) of the first three failures of each
    # kind and test: sorted, they start with the first three failures of a
    # walk graph by graph, kind by kind, pair by pair
    found = []
    for ki, kind in enumerate(kinds):
        floats = _joined(_projection_pair_ids(kind, corpus, cfg.quant))
        exacts = _joined(_exact_pair_ids(kind, corpus))
        within, _ = _differs(exacts, owner, floats)
        # a pair flagged already never becomes the first of its exact key
        kept = ~within
        within[kept] = _differs(floats[kept], owner[kept], exacts[kept])[0]
        for cross, mask in enumerate((within, _differs(floats, exacts)[0])):
            found += [(int(owner[i]), ki, i, cross) for i in np.flatnonzero(mask)[:3].tolist()]
    bad = []
    for _, ki, i, cross in sorted(found)[:3]:
        g, u, v = _pair_at(corpus, i)
        bad.append((write_graph6(g), kinds[ki].value, u, v) + ("cross-graph",) * cross)
    details = f"failures {bad}" if bad else ""
    return CheckResult("exact-float-agreement", not bad, details, time.time() - start, 2 * len(owner))


def check_distance_cross_forms(cfg: VerifyConfig) -> CheckResult:
    """Dual-route agreement for all seven distances on random graphs."""
    start = time.time()
    corpus = random_corpus(cfg.random_graphs, cfg.random_max_n, cfg.seed)
    worst = 0.0
    bad = []
    count = 0
    for g in corpus:
        for kind in DistanceKind.all_default():
            rep = cross_validate(g, kind)
            count += 1
            worst = max(worst, rep.max_residual if math.isfinite(rep.max_residual) else 0.0)
            if not rep.passed():
                bad.append((write_graph6(g), kind.label()))
    details = f"max residual {worst:.2e}" + (f"; failures {bad[:3]}" if bad else "")
    return CheckResult("distance-cross-forms", not bad, details, time.time() - start, count)


def check_distances_determined(cfg: VerifyConfig) -> CheckResult:
    """Grouping ordered pairs of the random corpus by (stable projection
    refinement colors of u and v, pair invariant of (u, v)) leaves every
    distance constant inside each group (exact for shortest paths)."""
    start = time.time()
    corpus = random_corpus(cfg.random_graphs, cfg.random_max_n, cfg.seed)
    state = stable_coloring(AlgorithmSpec.parse("epwl:Lhat"), corpus, cfg.quant)
    kinds = DistanceKind.all_default()
    exact = np.array([kind.compares_exactly for kind in kinds])
    values = np.concatenate(
        [np.empty((0, len(kinds)))]
        + [np.stack([distance_matrix(g, kind).values.ravel() for kind in kinds], axis=1) for g in corpus]
    )
    _, first = _differs(
        values,
        _joined(np.repeat(cols, g.n) for g, cols in zip(corpus, state.colors)),
        _joined(np.tile(cols, g.n) for g, cols in zip(corpus, state.colors)),
        _joined(_projection_pair_ids(MatrixKind.NORMALIZED_LAPLACIAN, corpus, cfg.quant)),
    )
    # each pair against the first of its group: infinite on one side only,
    # or both finite and apart
    ref = values[first]
    inf = np.isinf(ref) != np.isinf(values)
    with np.errstate(invalid="ignore"):
        apart = ~np.isinf(ref) & np.where(exact, ref != values, np.abs(ref - values) > DISTANCE_GROUP_TOL)
    bad = []
    for i, ki in np.argwhere(inf | apart)[:3].tolist():
        g, u, v = _pair_at(corpus, i)
        tail = ("inf-mismatch",) if inf[i, ki] else () if exact[ki] else (abs(ref[i, ki] - values[i, ki]),)
        bad.append((write_graph6(g), u, v, kinds[ki].label(), *tail))
    groups = np.count_nonzero(first == np.arange(len(first)))
    details = f"{groups} groups" + (f"; violations {bad}" if bad else "")
    return CheckResult("distances-determined-by-stable-colors", not bad, details, time.time() - start, len(first))


def hierarchy_directions() -> list[tuple[str, str, str]]:
    """(finer spec, coarser spec, relation) triples checked on the corpus."""
    kinds = ["A", "L", "Lhat"]
    dirs: list[tuple[str, str, str]] = []
    for m in kinds:
        dirs.append((f"epwl:{m}", "wl1", "refines"))
    for m in kinds:
        dirs.append(("pswl", f"epwl:{m}", "refines"))
    dirs.append(("fwl2", "pswl", "refines"))
    for d in DistanceKind.all_default():
        dirs.append(("epwl:Lhat", f"gdwl:{d.name}", "refines"))
    for m in kinds:
        dirs.append((f"spectralign:{m}", f"epwl:{m}", "equivalent"))
    for m in kinds:
        dirs.append((f"spectralign:{m}", f"weakspectralign:{m}", "refines"))
    for m in kinds:
        dirs.append((f"weakspectralign:{m}", f"siamese:{m}", "refines"))
    for m in kinds:
        dirs.append((f"weakspectralign:{m}", f"basisnet:{m}:layers=1", "refines"))
    for m in kinds:
        dirs.append((f"spe:{m}", f"spectralign:{m}", "equivalent"))
    dirs.append(("epwl:Lhat", "peg:Lhat", "refines"))
    dirs.append(("epwl:Lhat", "girt:K=16", "refines"))
    return dirs


def hierarchy_corpus(cfg: VerifyConfig) -> list[Graph]:
    corpus = _no_isolated(connected_corpus(cfg.corpus_max_n))
    corpus += random_corpus(cfg.hierarchy_random_graphs, cfg.hierarchy_random_max_n, cfg.seed + 1)
    return corpus


def check_hierarchy_directions(cfg: VerifyConfig) -> CheckResult:
    """Every expressiveness direction holds on the corpus with zero violations."""
    start = time.time()
    corpus = hierarchy_corpus(cfg)
    dirs = hierarchy_directions()
    labels = sorted({label for a, b, _ in dirs for label in (a, b)})
    sigs: dict[str, list[int]] = {}
    for label in labels:
        state = stable_coloring(AlgorithmSpec.parse(label), corpus, cfg.quant)
        sigs[label] = [s.value for s in signatures(state)]
    bad = []
    count = 0
    for finer, coarser, relation in dirs:
        count += 1
        viol = refinement_violations(sigs[finer], sigs[coarser])
        if viol:
            bad.append((finer, coarser, viol[:2]))
        if relation == "equivalent":
            viol = refinement_violations(sigs[coarser], sigs[finer])
            if viol:
                bad.append((coarser, finer, viol[:2]))
    details = f"{len(corpus)} graphs, {len(labels)} algorithms" + (
        f"; violations {bad[:2]}" if bad else ""
    )
    return CheckResult("hierarchy-directions", not bad, details, time.time() - start, count)


def check_witness_corpus(cfg: VerifyConfig) -> CheckResult:
    """Replay the bundled witness corpus and the gadget parity law.

    Asserts: (a) a vertex-refinement-blind but projection-visible pair is
    present and re-derives; (b) a gadget-derived pair is present and the
    twist parity law holds for every connected base up to the configured
    size and every single/double twist set; (c) every recorded witness
    replays with the recorded outcome and is re-verified non-isomorphic,
    since a flag that tells isomorphic graphs apart would be an invariance
    bug, not evidence.
    Search-dependent witnesses are reported found/not-found, never
    asserted absent.
    """
    start = time.time()
    witnesses, statuses = bundled_witnesses()
    bad = []
    count = 0

    for w in witnesses:
        ga = parse_graph6(w.graph6_a)
        gb = parse_graph6(w.graph6_b)
        count += 1
        if distinguishes(AlgorithmSpec.parse(w.spec_a), ga, gb) != w.a_distinguishes:
            bad.append(("replay-a", w.to_line()))
        if distinguishes(AlgorithmSpec.parse(w.spec_b), ga, gb) != w.b_distinguishes:
            bad.append(("replay-b", w.to_line()))

    blind_visible = [
        w
        for w in witnesses
        if w.spec_a == "wl1" and w.spec_b.startswith("epwl:") and not w.a_distinguishes and w.b_distinguishes
    ]
    if not blind_visible:
        bad.append(("missing", "no vertex-refinement-blind, projection-visible pair"))

    if not any(w.note.startswith("furer") for w in witnesses):
        bad.append(("missing", "no gadget-derived pair"))
    for w in witnesses:
        count += 1
        if is_isomorphic(parse_graph6(w.graph6_a), parse_graph6(w.graph6_b)) is not None:
            bad.append(("witness-pair-isomorphic", w.to_line()))

    # parity law sweep: one non-isomorphism proof per base, isomorphisms
    # covering every single and double twist set
    for n in range(2, cfg.parity_max_base_n + 1):
        for base in enumerate_graphs(n, connected_only=True):
            if base.has_isolated:
                continue
            edges = list(base.edges())
            first = edges[0]
            count += 1
            if furer_mod.parity_check(base, [], [first]):
                bad.append(("parity", write_graph6(base), "single twist isomorphic"))
            for other in edges[1:]:
                count += 1
                if not furer_mod.parity_check(base, [first], [other]):
                    bad.append(("parity", write_graph6(base), "odd-odd non-isomorphic"))
            for pair in combinations(edges, 2):
                count += 1
                if not furer_mod.parity_check(base, [], list(pair)):
                    bad.append(("parity", write_graph6(base), "double twist non-isomorphic"))

    found = sum(1 for s in statuses if s.endswith("found=yes"))
    details = f"{len(witnesses)} witnesses, {len(statuses)} hunt statuses ({found} found)" + (
        f"; failures {bad[:3]}" if bad else ""
    )
    return CheckResult("witness-corpus", not bad, details, time.time() - start, count)


def check_pair_colors_determine_projections(cfg: VerifyConfig) -> CheckResult:
    """Equal stable subgraph-refinement pair colors imply equal projection
    pair invariants, for all three matrix kinds, across the corpus."""
    start = time.time()
    corpus = connected_corpus(cfg.corpus_max_n)
    state = stable_coloring(AlgorithmSpec.parse("pswl"), corpus, cfg.quant)
    bad = []
    count = 0
    for kind in (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN, MatrixKind.NORMALIZED_LAPLACIAN):
        picked = [gi for gi, g in enumerate(corpus) if kind in _kinds_for(g)]
        graphs = [corpus[gi] for gi in picked]
        ids = _joined(_projection_pair_ids(kind, graphs, cfg.quant))
        mask, _ = _differs(ids, _joined(state.colors[gi] for gi in picked))
        count += len(mask)
        for i in np.flatnonzero(mask)[:3].tolist():
            g, u, v = _pair_at(graphs, i)
            bad.append((kind.value, write_graph6(g), u, v))
    details = f"failures {bad[:3]}" if bad else ""
    return CheckResult("pair-colors-determine-projections", not bad, details, time.time() - start, count)


def check_biconnectivity_separation(cfg: VerifyConfig) -> CheckResult:
    """Graphs with equal stable projection-refinement signatures must agree
    on cut-vertex count, cut-edge count, and block count."""
    start = time.time()
    corpus = _no_isolated(connected_corpus(cfg.corpus_max_n))
    state = stable_coloring(AlgorithmSpec.parse("epwl:Lhat"), corpus, cfg.quant)
    sigs = [s.value for s in signatures(state)]
    seen: dict[int, tuple] = {}
    bad = []
    for g, sig in zip(corpus, sigs):
        rep = biconnectivity_report(g)
        stats = (len(rep.cut_vertices), len(rep.cut_edges), rep.biconnected_component_count)
        if seen.setdefault(sig, stats) != stats:
            bad.append((write_graph6(g), stats, seen[sig]))
    details = f"failures {bad[:3]}" if bad else ""
    return CheckResult("biconnectivity-separation", not bad, details, time.time() - start, len(corpus))


def check_distinguishing_count_ordering(cfg: VerifyConfig) -> CheckResult:
    """On the bundled pair corpus, the projection refinement distinguishes
    at least as many pairs as plain vertex refinement and at most as many
    as the folklore pair refinement."""
    start = time.time()
    witnesses, _ = bundled_witnesses()
    pairs = sorted({(w.graph6_a, w.graph6_b) for w in witnesses})
    graphs = [(parse_graph6(a), parse_graph6(b)) for a, b in pairs]
    counts = {}
    labels = ["wl1", "epwl:A", "epwl:L", "epwl:Lhat", "fwl2"]
    for label in labels:
        spec = AlgorithmSpec.parse(label)
        counts[label] = sum(1 for ga, gb in graphs if distinguishes(spec, ga, gb))
    bad = []
    for m in ("A", "L", "Lhat"):
        if not counts["wl1"] <= counts[f"epwl:{m}"] <= counts["fwl2"]:
            bad.append((m, counts))
    details = ", ".join(f"{k}={v}" for k, v in counts.items())
    if bad:
        details += f"; ordering violated: {bad}"
    return CheckResult(
        "distinguishing-count-ordering", not bad, details, time.time() - start, len(graphs)
    )


ALL_CHECKS: list[Callable[[VerifyConfig], CheckResult]] = [
    check_spectral_algebra,
    check_exact_float_agreement,
    check_distance_cross_forms,
    check_distances_determined,
    check_hierarchy_directions,
    check_witness_corpus,
    check_pair_colors_determine_projections,
    check_biconnectivity_separation,
    check_distinguishing_count_ordering,
]


def run_all(cfg: Optional[VerifyConfig] = None, report=print) -> list[CheckResult]:
    """Run every check, reporting one line per check; returns all results."""
    cfg = cfg or VerifyConfig()
    results = []
    for check in ALL_CHECKS:
        result = check(cfg)
        results.append(result)
        if report is not None:
            report(result.line())
    return results
