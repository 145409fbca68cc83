"""Span tracing and compare timers installed from outside the package.

Both instruments work the same way: a wrapper replaces a function object
under every name that refers to it in an ``eigenwl`` module namespace
(``from .x import f`` copies the reference, so patching only the defining
module would miss most calls) and in ``verify.ALL_CHECKS``.  ``uninstall``
puts every original back.

The tracer keeps spans in memory as tuples
``(name, start, end, parent, item, attrs)``; ``parent`` is the index of
the enclosing span (-1 at the root) and ``item`` numbers the
benchmark-level operation the span belongs to.  Layer metrics are
derived from self time: a span's duration minus the part of it its child
spans cover.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("graphs", "spectral", "distances", "refinement", "furer", "verify", "cli")

# Public helpers called once per matrix entry or per vertex: a wrapper
# around them would cost more than the work it measures.  Their time
# stays in the caller's self time.
HOT_LEAVES = {
    "spectral.quantize",
    "spectral.quantize_fraction",
    "graphs.atomic_type",
}

# Private functions wrapped anyway because a layer boundary sits there.
EXTRA = ("spectral._exact_data",)

# Spans that start a new benchmark-level item when no item is open.
ITEM_SPANS = {"refinement.distinguishes", "cli.main", "furer.search_counterexamples"}

DISTANCE_KINDS = ("spd", "rd", "htd", "ctd", "biharmonic", "prd", "diffusion")
DOMAINS = ("nodes", "pairs", "spectral_pairs")

# Self-time layers; together with bench.unattributed_s they partition the
# traced wall time.
SELF_LAYERS = (
    "spectral.eigensolve_s",
    "spectral.exact_s",
    "spectral.quantize_s",
    "spectral.other_s",
    "distances.tokens_s",
    "distances.matrix_s",
    "distances.cross_validate_s",
    "refinement.init_s",
    *(f"refinement.refine_s.{d}" for d in DOMAINS),
    "refinement.pool_s",
    "refinement.other_s",
    "graphs.enumerate_s",
    "graphs.isomorphism_s",
    "graphs.other_s",
    "furer.product_s",
    "furer.other_s",
    "verify.self_s",
    "cli.self_s",
    "bench.unattributed_s",
)

# The exact rational backend, as the verify prediction names it.
EXACT_BACKEND = ("distances.tokens_s", "refinement.init_s.girt", "spectral.exact_s")

_LAYER_OF = {
    "spectral.decompose": "spectral.eigensolve_s",
    "spectral.exact_pair_token": "spectral.exact_s",
    "spectral._exact_data": "spectral.exact_s",
    "spectral.quantized_projections": "spectral.quantize_s",
    "spectral.pair_token": "spectral.quantize_s",
    "spectral.spectrum_token": "spectral.quantize_s",
    "distances.distance_tokens": "distances.tokens_s",
    "distances.cross_validate": "distances.cross_validate_s",
    "refinement.joint_initial_coloring": "refinement.init_s",
    "refinement.initial_coloring": "refinement.init_s",
    "refinement.signatures": "refinement.pool_s",
    "refinement.signature": "refinement.pool_s",
    "graphs.enumerate_graphs": "graphs.enumerate_s",
    "graphs.is_isomorphic": "graphs.isomorphism_s",
    "furer.furer": "furer.product_s",
    "furer.twist": "furer.product_s",
}


def layer_of(name: str, attrs) -> str:
    if name in _LAYER_OF:
        return _LAYER_OF[name]
    if name == "refinement.refine_once" and attrs:
        return f"refinement.refine_s.{attrs['domain']}"
    module = name.partition(".")[0]
    if module == "distances":
        # distance_matrix and the seven per-kind matrix functions
        return "distances.matrix_s"
    if module in ("verify", "cli"):
        return f"{module}.self_s"
    return f"{module}.other_s"


def _eigenwl_namespaces():
    return [m for name, m in sys.modules.items() if name == "eigenwl" or name.startswith("eigenwl.")]


class _Patcher:
    """Replaces function objects in every eigenwl namespace, reversibly."""

    def __init__(self):
        self._undo = []

    def replace(self, original, wrapper):
        for mod in _eigenwl_namespaces():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
        checks = sys.modules["eigenwl.verify"].ALL_CHECKS
        for i, fn in enumerate(checks):
            if fn is original:
                checks[i] = wrapper
                self._undo.append((checks, i, original))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            if isinstance(target, list):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()


def install_compare_timer(samples: list) -> _Patcher:
    """Bare timer around every ``distinguishes`` call; seconds go to ``samples``."""
    original = sys.modules["eigenwl.refinement"].distinguishes

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(perf_counter() - start)

    patcher = _Patcher()
    patcher.replace(original, timed)
    return patcher


def traced_functions():
    """(qualified name, function) for every function the tracer wraps."""
    out = []
    for short in MODULES:
        mod = sys.modules[f"eigenwl.{short}"]
        for attr, val in vars(mod).items():
            qual = f"{short}.{attr}"
            if (
                inspect.isfunction(val)
                and val.__module__ == mod.__name__
                and not attr.startswith("_")
                and qual not in HOT_LEAVES
            ):
                out.append((qual, val))
    for qual in EXTRA:
        short, _, attr = qual.partition(".")
        out.append((qual, getattr(sys.modules[f"eigenwl.{short}"], attr)))
    return out


def _default(args, kwargs, index, key, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


class Tracer:
    """In-memory span recorder with per-call attributes for the counts."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._item = 0
        self._item_depth = 0
        self._patcher = _Patcher()
        spectral = sys.modules["eigenwl.spectral"]
        self._default_quant = spectral.DEFAULT_QUANT
        # cache membership is read before the call, never changed
        self._decomp_cache = spectral._DECOMP_CACHE
        self._qproj_cache = spectral._QPROJ_CACHE
        self._attrs = {
            "spectral.decomposition_for": self._decomposition_attrs,
            "spectral.quantized_projections": self._quantize_attrs,
            "distances.distance_tokens": self._tokens_attrs,
            "refinement.joint_initial_coloring": self._init_attrs,
            "refinement.refine_once": self._refine_attrs,
            "refinement.stable_coloring": self._stable_attrs,
        }

    # -- per-call attributes: (args, kwargs) -> post(result) -> dict

    def _decomposition_attrs(self, args, kwargs):
        key = (args[0], args[1], _default(args, kwargs, 2, "quant", self._default_quant))
        reused = key in self._decomp_cache
        return lambda result: {"reused": reused}

    def _quantize_attrs(self, args, kwargs):
        key = (args[0], args[1], _default(args, kwargs, 2, "quant", self._default_quant))
        miss = key not in self._qproj_cache

        def post(result):
            lams, entries = result
            n = args[0].n
            return {"entries": len(lams) * (1 + n * n) if miss else 0}

        return post

    def _tokens_attrs(self, args, kwargs):
        return lambda result: {"kind": args[1].name}

    def _init_attrs(self, args, kwargs):
        return lambda result: {"variant": args[0].variant}

    def _refine_attrs(self, args, kwargs):
        state = args[1]
        size = sum(len(c) for c in state.colors)
        return lambda result: {"domain": state.domain, "size": size}

    def _stable_attrs(self, args, kwargs):
        def post(result):
            return {"colors": len({c for cols in result.colors for c in cols})}

        return post

    # -- wrapping

    def _open(self, name):
        is_item = name in ITEM_SPANS or name.startswith("verify.check_")
        if is_item:
            if self._item_depth == 0:
                self._item += 1
            self._item_depth += 1
        elif not self._stack and self._item_depth == 0:
            self._item += 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self._item, None))
        self._stack.append(idx)
        return idx, is_item

    def _close(self, idx, is_item, start):
        end = perf_counter()
        self._stack.pop()
        if is_item:
            self._item_depth -= 1
        name, _, _, parent, item, _ = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, item, None)

    def _wrap(self, name, fn):
        tracer = self
        attr_fn = self._attrs.get(name)

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx, is_item = tracer._open(name)
                    start = perf_counter()
                    try:
                        value = next(it)
                    except StopIteration:
                        tracer._close(idx, is_item, start)
                        return
                    except BaseException:
                        tracer._close(idx, is_item, start)
                        raise
                    tracer._close(idx, is_item, start)
                    yield value

            return gen_wrapper

        def wrapper(*args, **kwargs):
            post = attr_fn(args, kwargs) if attr_fn else None
            idx, is_item = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, is_item, start)
                raise
            tracer._close(idx, is_item, start)
            if post is not None:
                # attributes are computed after the span closed
                span = tracer.spans[idx]
                tracer.spans[idx] = span[:5] + (post(result),)
            return result

        return wrapper

    def install(self):
        for name, fn in traced_functions():
            self._patcher.replace(fn, self._wrap(name, fn))

    def uninstall(self):
        self._patcher.uninstall()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, item, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "item": item, "attrs": attrs}
                    )
                    + "\n"
                )


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer self times and counts of one traced repetition."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for name in SELF_LAYERS:
        out[name] = 0.0
    for kind in DISTANCE_KINDS:
        out[f"distances.tokens_s.{kind}"] = 0.0
    out["refinement.init_s.girt"] = 0.0
    counts = defaultdict(int)
    decomp_calls = decomp_reused = 0
    root = 0.0
    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        dur = end - start
        self_s = dur - child[i]
        out[layer_of(name, attrs)] += self_s
        if parent < 0:
            root += dur
        if name.startswith("verify.check_"):
            out[f"verify.{name[len('verify.check_'):].replace('_', '-')}_s"] += dur
        elif name == "distances.distance_tokens":
            out[f"distances.tokens_s.{attrs['kind']}"] += self_s
        elif name == "refinement.joint_initial_coloring":
            if attrs["variant"] == "girt":
                out["refinement.init_s.girt"] += self_s
        elif name == "refinement.refine_once":
            counts["refinement.iterations"] += 1
            counts["refinement.domain_updates"] += attrs["size"]
        elif name == "refinement.stable_coloring":
            counts["refinement.runs"] += 1
            counts["refinement.final_colors"] += attrs["colors"]
        elif name == "spectral.decompose":
            counts["spectral.eigensolve_calls"] += 1
        elif name == "spectral.decomposition_for":
            decomp_calls += 1
            decomp_reused += attrs["reused"]
        elif name == "spectral.quantized_projections":
            counts["spectral.quantized_entries"] += attrs["entries"]
        elif name == "spectral.exact_pair_token":
            counts["spectral.exact_calls"] += 1
        elif name == "graphs.is_isomorphic":
            counts["graphs.isomorphism_calls"] += 1
        elif name == "furer.furer":
            counts["furer.candidates"] += 1
    out["bench.unattributed_s"] = wall_s - root
    for key in (
        "spectral.exact_calls", "spectral.quantized_entries", "spectral.eigensolve_calls",
        "refinement.iterations", "refinement.domain_updates", "refinement.final_colors",
        "refinement.runs", "graphs.isomorphism_calls", "furer.candidates",
    ):
        out[key] = counts[key]
    out["spectral.eigensolve_reuse_ratio"] = decomp_reused / decomp_calls if decomp_calls else 0.0
    out["trace.spans"] = len(spans)
    return dict(out)
