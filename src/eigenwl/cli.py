"""The ``eigenwl`` command: corpus scans, pair comparisons, verification
suites, counterexample hunts, distance dumps, and gadget construction.

Exit codes: 0 success (or "indistinguishable"), 1 distinguished or a
failed verification, 2 usage error, 3 violated internal invariant or
eigensolver failure.
Reports are deterministic under a fixed configuration: randomness is
seed-threaded and timing is only emitted on request.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .distances import DistanceKind, distance_matrix
from .furer import furer, search_counterexamples, twist
from .graphs import Graph, Graph6Error, parse_graph6, read_corpus, write_graph6
from .highorder import token_graph
from .refinement import (
    AlgorithmSpec,
    ComparisonReport,
    InternalError,
    UsageError,
    signatures,
    stable_coloring,
)
from .spectral import DEFAULT_QUANT, Quantization, SpectralError
from .verify import VerifyConfig, run_all
from .witnesses import append_corpus, hunt_status

ENV_PREFIX = "EIGENWL_"

SCAN_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["meta", "algorithms", "graphs", "buckets", "relations"],
    "properties": {
        "meta": {
            "type": "object",
            "required": ["version", "config_hash", "digits", "eig_gap_scale", "seed"],
            "properties": {
                "version": {"type": "string"},
                "config_hash": {"type": "string"},
                "digits": {"type": "integer"},
                "eig_gap_scale": {"type": "number"},
                "seed": {"type": "integer"},
            },
        },
        "algorithms": {"type": "array", "items": {"type": "string"}},
        "graphs": {"type": "array", "items": {"type": "string"}},
        "buckets": {
            "type": "object",
            "additionalProperties": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "integer"}},
            },
        },
        "relations": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["a", "b", "relation", "witnesses_a_not_finer", "witnesses_b_not_finer"],
                "properties": {
                    "a": {"type": "string"},
                    "b": {"type": "string"},
                    "relation": {
                        "enum": ["equivalent", "a_strictly_finer", "b_strictly_finer", "incomparable"]
                    },
                    "witnesses_a_not_finer": {"type": "array"},
                    "witnesses_b_not_finer": {"type": "array"},
                },
            },
        },
        "timing": {"type": "object"},
    },
}


# sizes and counts, for which 0 is valid and a negative value means nothing
_NONNEGATIVE = (
    "budget",
    "max_base_n",
    "max_product_n",
    "corpus_max_n",
    "random_graphs",
    "random_max_n",
    "hierarchy_random_graphs",
    "hierarchy_random_max_n",
    "parity_max_base_n",
)


@dataclass(frozen=True)
class RunConfig:
    """All tunables of a CLI invocation; seed fixes every random choice."""

    seed: int = VerifyConfig.seed
    budget: int = 140
    max_base_n: int = 5
    max_product_n: int = 48
    digits: int = DEFAULT_QUANT.digits
    eig_gap_scale: float = DEFAULT_QUANT.eig_gap_scale
    corpus_max_n: int = VerifyConfig.corpus_max_n
    random_graphs: int = VerifyConfig.random_graphs
    random_max_n: int = VerifyConfig.random_max_n
    hierarchy_random_graphs: int = VerifyConfig.hierarchy_random_graphs
    hierarchy_random_max_n: int = VerifyConfig.hierarchy_random_max_n
    parity_max_base_n: int = VerifyConfig.parity_max_base_n
    jobs: int = 1

    def __post_init__(self):
        # checked here, so flags, config files and EIGENWL_* variables all pass through it
        for name in _NONNEGATIVE:
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.jobs < 1:
            raise UsageError(f"jobs must be at least 1, got {self.jobs}")

    @property
    def quant(self) -> Quantization:
        return Quantization(digits=self.digits, eig_gap_scale=self.eig_gap_scale)

    def config_hash(self) -> str:
        # jobs is an execution detail: it cannot affect any output
        payload = ";".join(
            f"{f.name}={getattr(self, f.name)}" for f in fields(self) if f.name != "jobs"
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_text(self) -> str:
        return "\n".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self)) + "\n"

    @classmethod
    def from_sources(cls, config_file: Optional[str], args: argparse.Namespace) -> "RunConfig":
        """Defaults, then config file, then environment, then CLI flags."""
        values: dict = {}
        if config_file:
            for lineno, line in enumerate(Path(config_file).read_text().splitlines(), 1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise UsageError(f"{config_file}:{lineno}: expected key=value")
                key, _, val = stripped.partition("=")
                values[key.strip()] = val.strip()
        for f in fields(cls):
            env = os.environ.get(ENV_PREFIX + f.name.upper())
            if env is not None:
                values[f.name] = env
        known = {f.name: f.type for f in fields(cls)}
        parsed: dict = {}
        for key, val in values.items():
            if key not in known:
                raise UsageError(f"unknown config key {key!r}")
            parsed[key] = float(val) if key == "eig_gap_scale" else int(val)
        for f in fields(cls):
            if getattr(args, f.name, None) is not None:
                parsed[f.name] = getattr(args, f.name)
        # built once from the merged values, so only the final ones are checked
        return cls(**parsed)

    def verify_config(self) -> VerifyConfig:
        return VerifyConfig(**{f.name: getattr(self, f.name) for f in fields(VerifyConfig)})


def _meta(cfg: RunConfig) -> dict:
    return {
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "digits": cfg.digits,
        "eig_gap_scale": cfg.eig_gap_scale,
        "seed": cfg.seed,
    }


def _scan_one(spec: AlgorithmSpec, corpus, quant) -> tuple[list[int], float]:
    start = time.time()
    state = stable_coloring(spec, corpus, quant)
    return [s.value for s in signatures(state)], round(time.time() - start, 3)


def _parse_graph_arg(text: str) -> Graph:
    try:
        return parse_graph6(text)
    except Graph6Error as exc:
        raise UsageError(f"bad graph6 argument {text!r}: {exc}") from None


def _parse_edge_list(text: str) -> list[tuple[int, int]]:
    edges = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            u, v = part.split("-")
            edges.append((int(u), int(v)))
        except ValueError:
            raise UsageError(f"bad edge {part!r}; expected u-v") from None
    return edges


# ---------------------------------------------------------------------------
# subcommands


def cmd_compare(cfg: RunConfig, args) -> int:
    spec = AlgorithmSpec.parse(args.alg)
    g = _parse_graph_arg(args.g)
    h = _parse_graph_arg(getattr(args, "h_graph"))
    state = stable_coloring(spec, [g, h], cfg.quant)
    sig = signatures(state)
    distinguished = sig[0].value != sig[1].value
    detail = {
        "meta": _meta(cfg),
        "algorithm": spec.label(),
        "graphs": [write_graph6(g), write_graph6(h)],
        "distinguished": distinguished,
        "iterations": state.iteration,
    }
    print(json.dumps(detail, sort_keys=True))
    return 1 if distinguished else 0


def cmd_scan(cfg: RunConfig, args) -> int:
    specs = [AlgorithmSpec.parse(s) for s in args.algs.split(",") if s.strip()]
    if not specs:
        raise UsageError("scan requires at least one algorithm spec")
    try:
        corpus = read_corpus(Path(args.corpus).read_text().splitlines())
    except OSError as exc:
        raise UsageError(f"cannot read corpus {args.corpus!r}: {exc}") from None
    if not corpus:
        raise UsageError(f"corpus {args.corpus!r} contains no graphs")

    timing: dict[str, float] = {}
    sigs: dict[str, list[int]] = {}
    run = functools.partial(_scan_one, corpus=corpus, quant=cfg.quant)
    # independent joint runs; results merged in algorithm order.  The pool
    # starts every worker at the first submit, so it gets no more workers
    # than there are runs.
    parallel = cfg.jobs > 1
    with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(specs))) if parallel else contextlib.nullcontext() as pool:
        for spec, (vals, elapsed) in zip(specs, pool.map(run, specs) if parallel else map(run, specs)):
            sigs[spec.label()] = vals
            timing[spec.label()] = elapsed

    buckets: dict[str, list[list[int]]] = {}
    for label, vals in sigs.items():
        groups: dict[int, list[int]] = {}
        for idx, v in enumerate(vals):
            groups.setdefault(v, []).append(idx)
        buckets[label] = sorted(groups.values())

    relations = []
    for i, a in enumerate(specs):
        for b in specs[i + 1 :]:
            rep = ComparisonReport.from_signatures(
                a.label(), b.label(), sigs[a.label()], sigs[b.label()]
            )
            relations.append(
                {
                    "a": rep.spec_a,
                    "b": rep.spec_b,
                    "relation": rep.relation,
                    "witnesses_a_not_finer": [list(p) for p in rep.violations_ab],
                    "witnesses_b_not_finer": [list(p) for p in rep.violations_ba],
                }
            )

    report = {
        "meta": _meta(cfg),
        "algorithms": [s.label() for s in specs],
        "graphs": [write_graph6(g) for g in corpus],
        "buckets": buckets,
        "relations": relations,
    }
    if args.timings:
        report["timing"] = timing
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if args.csv:
        lines = ["alg_a,alg_b,relation"]
        lines += [f"{r['a']},{r['b']},{r['relation']}" for r in relations]
        Path(args.csv).write_text("\n".join(lines) + "\n")
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    vcfg = cfg.verify_config()
    if args.quick:
        vcfg = vcfg.quick()
    if vcfg.corpus_max_n < 1:
        print("warning: empty corpus, verification is vacuous", file=sys.stderr)
        return 0
    results = run_all(vcfg)
    return 0 if all(r.passed for r in results) else 1


def cmd_hunt(cfg: RunConfig, args) -> int:
    spec_a = AlgorithmSpec.parse(args.a)
    spec_b = AlgorithmSpec.parse(args.b)
    result = search_counterexamples(
        spec_a,
        spec_b,
        max_base_n=cfg.max_base_n,
        budget=cfg.budget,
        seed=cfg.seed,
        max_product_n=cfg.max_product_n,
        quant=cfg.quant,
    )
    status = hunt_status(
        spec_a.label(), spec_b.label(), cfg.max_base_n, cfg.budget, cfg.seed, cfg.max_product_n, result
    )
    append_corpus(Path(args.out), result.witnesses, [status])
    print(status)
    if result.unstable:
        print(f"note: {result.unstable} disagreements dropped as unstable at one digit more or fewer", file=sys.stderr)
    for w in result.witnesses:
        print(w.to_line())
    return 0


def cmd_distances(cfg: RunConfig, args) -> int:
    kind = DistanceKind.parse(args.kind)
    g = _parse_graph_arg(args.g)
    mat = distance_matrix(g, kind)
    print("u,v,value")
    for u in range(g.n):
        for v in range(g.n):
            x = mat.values[u, v]
            text = "inf" if x == float("inf") else format(float(x), ".12g")
            print(f"{u},{v},{text}")
    return 0


def cmd_furer(cfg: RunConfig, args) -> int:
    base = _parse_graph_arg(args.base)
    fg = furer(base)
    out = twist(fg, _parse_edge_list(args.twist)) if args.twist else fg.product
    print(write_graph6(out))
    return 0


def cmd_token(cfg: RunConfig, args) -> int:
    g = _parse_graph_arg(args.g)
    print(write_graph6(token_graph(g, args.k).product))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_options(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--budget", type=int)
    sub.add_argument("--digits", type=int, help="token quantization digits")
    sub.add_argument("--eig-gap-scale", dest="eig_gap_scale", type=float)
    sub.add_argument("--corpus-max-n", dest="corpus_max_n", type=int)
    sub.add_argument("--random-graphs", dest="random_graphs", type=int)
    sub.add_argument("--random-max-n", dest="random_max_n", type=int)
    sub.add_argument("--hierarchy-random-graphs", dest="hierarchy_random_graphs", type=int)
    sub.add_argument("--hierarchy-random-max-n", dest="hierarchy_random_max_n", type=int)
    sub.add_argument("--parity-max-base-n", dest="parity_max_base_n", type=int)
    sub.add_argument("--max-product-n", dest="max_product_n", type=int)
    sub.add_argument("--jobs", type=int, help="parallel joint runs for corpus scans")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenwl",
        description="Spectral invariants, distances, and refinement hierarchies on small graphs",
    )
    parser.add_argument("--version", action="version", version=f"eigenwl {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compare", help="run one algorithm on a graph pair")
    p.add_argument("--alg", required=True, help="algorithm spec, e.g. epwl:Lhat")
    p.add_argument("--g", required=True, help="first graph (graph6)")
    p.add_argument("--h", dest="h_graph", required=True, help="second graph (graph6)")
    _add_config_options(p)

    p = subs.add_parser("scan", help="signature buckets and pairwise relations over a corpus")
    p.add_argument("--algs", required=True, help="comma-separated algorithm specs")
    p.add_argument("--corpus", required=True, help="file with one graph6 per line")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--csv", help="also write the relation matrix as CSV")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings in the JSON")
    _add_config_options(p)

    p = subs.add_parser("verify", help="run every corpus-level property suite")
    p.add_argument("--quick", action="store_true", help="shrunken corpora for a fast smoke run")
    _add_config_options(p)

    p = subs.add_parser("hunt", help="search for pairs where two algorithms disagree")
    p.add_argument("--a", required=True, help="first algorithm spec")
    p.add_argument("--b", required=True, help="second algorithm spec")
    p.add_argument("--max-base-n", dest="max_base_n", type=int, default=None)
    p.add_argument("--out", default="witnesses.txt", help="witness corpus file to append to")
    _add_config_options(p)

    p = subs.add_parser("distances", help="emit one distance matrix as CSV")
    p.add_argument("--kind", required=True, help="distance spec, e.g. rd or prd:w=0,1,0.5")
    p.add_argument("--g", required=True, help="graph (graph6)")
    _add_config_options(p)

    p = subs.add_parser("furer", help="emit the gadget product of a base graph")
    p.add_argument("--base", required=True, help="base graph (graph6)")
    p.add_argument("--twist", help="comma-separated base edges u-v to twist")
    _add_config_options(p)

    p = subs.add_parser("token", help="emit the k-th symmetric power of a graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", required=True, help="graph (graph6)")
    _add_config_options(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process-wide parser: building it costs more than a small command."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a replaced cmd_* function is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        cfg = RunConfig.from_sources(getattr(args, "config", None), args)
        return command(cfg, args)
    except (ValueError, Graph6Error, OSError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, SpectralError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
