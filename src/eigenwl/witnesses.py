"""The bundled regression witness corpus: graph6 pairs plus annotations.

Witness lines record two algorithm specs, a graph pair, and which of
the two algorithms distinguished the pair when it was first discovered;
replaying them is the deterministic form of every strict-gap and
incomparability claim.  Hunt-status lines document searches that were
run (including unsuccessful ones) with their budgets, so absence of a
witness is always reported as a bounded search, never asserted as a
theorem.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import Iterable

from .furer import SearchResult, Witness

__all__ = [
    "STATUS_PREFIX",
    "append_corpus",
    "bundled_witnesses",
    "format_witness_corpus",
    "hunt_status",
    "parse_witness_corpus",
]

STATUS_PREFIX = "# hunt-status: "


def hunt_status(
    spec_a: str, spec_b: str, max_base_n: int, budget: int, seed: int, max_product_n: int, result: SearchResult
) -> str:
    """The hunt-status record of one search: its parameters, everything
    before ``examined=``, then what it examined, skipped and found."""
    return (
        f"{spec_a}|{spec_b}|bases<={max_base_n}:mindeg>=2+random|budget={budget}|seed={seed}|"
        f"max-product={max_product_n}|examined={result.examined}|skipped={result.skipped}|"
        f"found={'yes' if result.witnesses else 'no'}"
    )


def _search(status: str) -> str:
    """The search parameters of a hunt-status record."""
    return status.partition("examined=")[0]


def parse_witness_corpus(text: str) -> tuple[list[Witness], list[str]]:
    """Witness entries and hunt-status records from corpus text."""
    witnesses = []
    statuses = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(STATUS_PREFIX):
            statuses.append(stripped[len(STATUS_PREFIX) :])
        elif stripped.startswith("#"):
            continue
        else:
            witnesses.append(Witness.from_line(stripped))
    return witnesses, statuses


def format_witness_corpus(witnesses: Iterable[Witness], statuses: Iterable[str]) -> str:
    lines = ["# regression witness corpus: specA|specB|g6A|g6B|aDistinguishes|bDistinguishes|note"]
    lines += [STATUS_PREFIX + s for s in statuses]
    lines += [w.to_line() for w in witnesses]
    return "\n".join(lines) + "\n"


def bundled_witnesses() -> tuple[list[Witness], list[str]]:
    """The corpus shipped with the package."""
    text = resources.files("eigenwl").joinpath("data/witnesses.txt").read_text()
    return parse_witness_corpus(text)


def append_corpus(path: Path, witnesses: Iterable[Witness], statuses: Iterable[str]) -> None:
    """Append witnesses and statuses to a corpus file, creating it if absent.

    A witness already in the file is not appended again, nor a status
    whose search (its parameters, see ``hunt_status``) the file records."""
    path = Path(path)
    existing = path.read_text() if path.exists() else ""
    known, searched = set(), set()
    if existing:
        old_wits, old_stats = parse_witness_corpus(existing)
        known = {w.to_line() for w in old_wits}
        searched = {_search(s) for s in old_stats}
    with path.open("a") as fh:
        if not existing:
            fh.write("# regression witness corpus: specA|specB|g6A|g6B|aDistinguishes|bDistinguishes|note\n")
        for s in statuses:
            if _search(s) not in searched:
                searched.add(_search(s))
                fh.write(STATUS_PREFIX + s + "\n")
        for w in witnesses:
            if w.to_line() not in known:
                fh.write(w.to_line() + "\n")
