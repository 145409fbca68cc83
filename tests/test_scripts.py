"""The witness corpus script against the corpus it wrote."""

import importlib.util
from pathlib import Path

from eigenwl.furer import SearchResult
from eigenwl.witnesses import bundled_witnesses, hunt_status

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


def test_hunt_status_gives_back_the_bundled_statuses():
    """``hunt_status``, the record the script and the CLI write, gives
    every bundled hunt-status line back from its hunt and counts."""
    script = _load_script()
    _, statuses = bundled_witnesses()
    for a, b, max_base_n, budget, max_product_n in script.HUNTS:
        [line] = [s for s in statuses if s.startswith(f"{a}|{b}|")]
        counts = dict(field.split("=", 1) for field in line[line.index("examined=") :].split("|"))
        found = (None,) if counts["found"] == "yes" else ()
        result = SearchResult(found, int(counts["examined"]), int(counts["skipped"]), 0, "complete")
        assert hunt_status(a, b, max_base_n, budget, script.SEED, max_product_n, result) == line


def test_check_passes_on_the_written_corpus_and_names_the_first_drift(tmp_path, monkeypatch, capsys):
    """``--out`` writes the corpus to the given file; ``--check`` exits 0
    on that file, and 1 naming the first differing line once it drifts."""
    script = _load_script()
    monkeypatch.setattr(script, "HUNTS", [("wl1", "fwl2", 4, 8, 16)])
    out = tmp_path / "w.txt"
    bundled = script.BUNDLED.read_text()
    assert script.main(["--out", str(out)]) == 0
    assert script.BUNDLED.read_text() == bundled
    assert script.main(["--out", str(out), "--check"]) == 0
    text = out.read_text()
    lines = text.splitlines()
    lines[1] += "x"
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert script.main(["--out", str(out), "--check"]) == 1
    err = capsys.readouterr().err
    assert "differs at line 2" in err and lines[1] in err
    out.write_text(text.rsplit("\n", 2)[0])  # the last line and the newline before it gone
    assert script.main(["--out", str(out), "--check"]) == 1
    assert f"differs at line {len(lines) - 1}" in capsys.readouterr().err
