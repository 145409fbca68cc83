#!/usr/bin/env python3
"""Regenerate the bundled regression witness corpus.

Runs the documented counterexample hunts, curates at most one witness
per disagreement direction per hunt, adds a couple of always-blind
gadget regression pairs, and writes src/eigenwl/data/witnesses.txt.
Rerunning is deterministic (fixed seeds and budgets).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eigenwl.furer import Witness, furer, search_counterexamples, twist
from eigenwl.graphs import complete_graph, write_graph6
from eigenwl.refinement import AlgorithmSpec, distinguishes
from eigenwl.witnesses import format_witness_corpus, hunt_status

SEED = 1729

# (spec_a, spec_b, max_base_n, budget, max_product_n)
HUNTS = [
    ("wl1", "epwl:A", 5, 60, 64),
    ("swl", "epwl:Lhat", 6, 140, 48),
    ("pswl", "epwl:Lhat", 6, 140, 48),
    ("fwl2", "pswl", 6, 140, 48),
    ("siamese:Lhat", "weakspectralign:Lhat", 6, 140, 44),
    ("weakspectralign:Lhat", "spectralign:Lhat", 6, 140, 44),
    ("weakspectralign:A", "spectralign:A", 6, 140, 44),
    ("weakspectralign:Lhat", "gdwl:spd", 6, 140, 44),
    ("weakspectralign:Lhat", "gdwl:rd", 6, 140, 44),
]


def curate(witnesses):
    """Keep the first witness of each disagreement direction."""
    kept = []
    seen = set()
    for w in witnesses:
        key = (w.a_distinguishes, w.b_distinguishes)
        if key not in seen:
            seen.add(key)
            kept.append(w)
    return kept


def gadget_regression_pairs():
    """Gadget pairs recorded with their (possibly agreeing) flags; the
    first doubles as the non-isomorphism exhibit, all of them guard the
    vertex-refinement blindness expectation."""
    out = []
    for base, specs in [
        (complete_graph(3), ("wl1", "epwl:A")),
        (complete_graph(4), ("wl1", "fwl2")),
    ]:
        fg = furer(base)
        twisted = twist(fg, [next(base.edges())])
        sa, sb = (AlgorithmSpec.parse(s) for s in specs)
        out.append(
            Witness(
                specs[0],
                specs[1],
                write_graph6(fg.product),
                write_graph6(twisted),
                distinguishes(sa, fg.product, twisted),
                distinguishes(sb, fg.product, twisted),
                f"furer:{write_graph6(base)}",
            )
        )
    return out


def main():
    witnesses = gadget_regression_pairs()
    statuses = []
    for a, b, max_base_n, budget, max_product_n in HUNTS:
        result = search_counterexamples(
            AlgorithmSpec.parse(a),
            AlgorithmSpec.parse(b),
            max_base_n=max_base_n,
            budget=budget,
            seed=SEED,
            max_product_n=max_product_n,
        )
        kept = curate(result.witnesses)
        witnesses.extend(kept)
        statuses.append(hunt_status(a, b, max_base_n, budget, SEED, max_product_n, result))
        print(statuses[-1])
        for w in kept:
            print("  ", w.to_line())

    out_path = Path(__file__).resolve().parent.parent / "src" / "eigenwl" / "data" / "witnesses.txt"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(format_witness_corpus(witnesses, statuses))
    print(f"wrote {out_path} ({len(witnesses)} witnesses, {len(statuses)} statuses)")


if __name__ == "__main__":
    main()
