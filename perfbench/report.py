"""Aggregation of repetitions into the reported metrics."""

from __future__ import annotations

import statistics

from tracing import DISTANCE_KINDS, EXACT_BACKEND, SELF_LAYERS

CHECKS = (
    "spectral-algebra", "exact-float-agreement", "distance-cross-forms", "distances-determined",
    "hierarchy-directions", "witness-corpus", "pair-colors-determine-projections",
    "biconnectivity-separation", "distinguishing-count-ordering",
)

# Counts that must repeat exactly for the same code and inputs.
COUNTS = (
    "spectral.exact_calls", "spectral.quantized_entries", "spectral.eigensolve_calls",
    "spectral.eigensolve_reuse_ratio", "refinement.iterations", "refinement.domain_updates",
    "refinement.final_colors", "refinement.runs", "graphs.isomorphism_calls", "furer.candidates",
    "trace.spans",
)
COUNT_UNITS = {"spectral.eigensolve_reuse_ratio": "ratio"}

PREDICTED = {
    "verify": "exact backend",
    "scan": "refinement.refine_s.spectral_pairs",
    "hunt": "refinement.refine_s.pairs",
}


def _metric(value, unit, note=None) -> dict:
    out = {"value": value, "unit": unit}
    if note:
        out["note"] = note
    return out


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def end_to_end(reps: list[dict], setups: list[dict]) -> dict:
    """Timings scaled to the reference host speed (``calibration.py``),
    with the raw medians in the notes."""

    def timing(key, group, unit, what):
        raw = statistics.median(r[key] for r in group)
        scaled = statistics.median(r[key] * r["scale"] for r in group)
        return _metric(scaled, unit, f"{what}; raw {raw:.4g} {unit}")

    def compare_ms(scaled: bool) -> list[float]:
        return sorted(1000.0 * s * (r["scale"] if scaled else 1.0) for r in reps for s in r["compare_s"])

    n_reps = f"median of {len(reps)} repetitions"
    raw_ms, scaled_ms = compare_ms(False), compare_ms(True)
    n_cmp = f"{len(raw_ms)} compares"
    return {
        "wall_s": timing("wall_s", reps, "s", n_reps),
        "cpu_s": timing("cpu_s", reps, "s", n_reps),
        "setup_s": timing("setup_s", setups, "s", f"median of {len(setups)} starts"),
        "peak_rss_mb": _metric(_median(reps, "peak_rss_mb"), "MB", n_reps),
        "compare_p50_ms": _metric(
            statistics.median(scaled_ms), "ms", f"{n_cmp}; raw {statistics.median(raw_ms):.4g} ms"
        ),
        "compare_p95_ms": _metric(_p95(scaled_ms), "ms", f"{n_cmp}; raw {_p95(raw_ms):.4g} ms"),
    }


def _p95(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=20)[18] if len(samples) > 1 else samples[0]


def layer_names() -> list[str]:
    names = list(SELF_LAYERS)
    names += [f"distances.tokens_s.{k}" for k in DISTANCE_KINDS]
    names += ["refinement.init_s.girt"]
    names += [f"verify.{c}_s" for c in CHECKS]
    return names


def per_layer(workload: str, untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics; like the end-to-end timings, every time is scaled
    to the reference host speed."""
    layers = [r["layers"] for r in traced]
    out = {}
    for name in layer_names():
        out[name] = _metric(statistics.median(r["layers"].get(name, 0.0) * r["scale"] for r in traced), "s")
    repeat = all(lay[c] == layers[0][c] for lay in layers for c in COUNTS)
    for name in COUNTS:
        out[name] = _metric(layers[0][name], COUNT_UNITS.get(name, "count"))
    traced_wall = statistics.median(r["wall_s"] * r["scale"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] * r["scale"] for r in untraced)
    out["trace.counts_repeat"] = _metric(1 if repeat else 0, "bool", f"over {len(traced)} traced repetitions")
    out["trace.wall_s"] = _metric(traced_wall, "s", f"median of {len(traced)}")
    out["trace.untraced_wall_s"] = _metric(untraced_wall, "s", f"median of {len(untraced)}")
    out["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s", "traced minus untraced wall_s")
    ranking = rank_layers({k: v["value"] for k, v in out.items()})
    top, top_s = ranking[0]
    exact = sum(out[k]["value"] for k in EXACT_BACKEND)
    out["dominant.share"] = _metric(top_s / traced_wall, "ratio", top)
    out["dominant.exact_backend_share"] = _metric(exact / traced_wall, "ratio")
    out["dominant.prediction_confirmed"] = _metric(1 if top == PREDICTED[workload] else 0, "bool", PREDICTED[workload])
    return out


def rank_layers(values: dict) -> list[tuple[str, float]]:
    """Self-time layers by size, with the exact backend as one entry."""
    entries = {k: values[k] for k in SELF_LAYERS if k != "bench.unattributed_s"}
    entries["exact backend"] = sum(values[k] for k in EXACT_BACKEND)
    entries["distances.tokens_s"] = 0.0
    entries["spectral.exact_s"] = 0.0
    entries["refinement.init_s"] -= values["refinement.init_s.girt"]
    return sorted(entries.items(), key=lambda kv: -kv[1])


def dominant_layers(workload: str, metrics: dict) -> list[str]:
    wall = metrics["trace.wall_s"]["value"]
    ranking = rank_layers({k: v["value"] for k, v in metrics.items()})
    top = ranking[0][0]
    lines = [
        f"layer {name} {seconds:.3f} s ({seconds / wall:.1%} of traced wall)"
        for name, seconds in ranking[:5]
    ]
    outcome = "confirmed" if top == PREDICTED[workload] else "refuted"
    lines.append(f"dominant layer: {top}; predicted {PREDICTED[workload]}: {outcome}")
    return lines
