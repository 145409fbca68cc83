"""The witness corpus script against the corpus it wrote."""

import importlib.util
from pathlib import Path

from eigenwl.witnesses import bundled_witnesses

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "build_witness_corpus.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("build_witness_corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_witness_script_hunts_match_bundled_statuses():
    """Each hunt of the script names exactly one bundled hunt-status line by
    its parameters (specs, bases, budget, seed, max-product), and each line
    is named by exactly one hunt."""
    script = _load_script()
    prefixes = [
        f"{a}|{b}|bases<={max_base_n}:mindeg>=2+random|budget={budget}|seed={script.SEED}|max-product={max_product_n}|"
        for a, b, max_base_n, budget, max_product_n in script.HUNTS
    ]
    _, statuses = bundled_witnesses()
    assert len(prefixes) == len(statuses) == 9
    for prefix in prefixes:
        assert sum(s.startswith(prefix) for s in statuses) == 1, prefix
    for status in statuses:
        assert sum(status.startswith(prefix) for prefix in prefixes) == 1, status
