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
from .refinement import AlgorithmSpec, distinguishes, refinement_violations, signatures, stable_coloring
from .spectral import (
    DEFAULT_QUANT,
    EPS_ALG,
    Quantization,
    decomposition_for,
    exact_pair_token,
    pair_token,
    validate_decomposition,
)
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
                    elif abs(a - b) > DISTANCE_GROUP_TOL:
                        bad.append((write_graph6(g), u, v, kinds[ki].label(), abs(a - b)))
    details = f"{len(groups)} groups" + (f"; violations {bad[:3]}" if bad else "")
    return CheckResult("distances-determined-by-stable-colors", not bad, details, time.time() - start, count)


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
