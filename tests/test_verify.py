from dataclasses import replace

from eigenwl import verify
from eigenwl.furer import Witness
from eigenwl.graphs import cycle_graph, write_graph6
from eigenwl.spectral import Quantization
from eigenwl.verify import (
    VerifyConfig,
    check_exact_float_agreement,
    check_witness_corpus,
    connected_corpus,
    hierarchy_directions,
    random_corpus,
)


def test_corpora_are_deterministic():
    a = random_corpus(10, 9, 123)
    b = random_corpus(10, 9, 123)
    assert a == b
    assert all(g.is_connected() for g in a)
    assert len(connected_corpus(5)) == 1 + 1 + 2 + 6 + 21


def test_hierarchy_direction_list_is_complete():
    dirs = hierarchy_directions()
    assert len(dirs) == 31
    labels = {d[0] for d in dirs} | {d[1] for d in dirs}
    # every algorithm family appears
    for family in ("wl1", "epwl", "pswl", "fwl2", "gdwl", "spectralign", "weakspectralign",
                   "siamese", "basisnet", "spe", "peg", "girt"):
        assert any(label.startswith(family) for label in labels), family
    equivalences = [d for d in dirs if d[2] == "equivalent"]
    assert len(equivalences) == 6  # three kinds each for the two equal-power pairs


def test_fault_injection_one_digit_rounding_fails():
    """Corrupted quantization must break the exact/float agreement check."""
    cfg = replace(VerifyConfig(), quant=Quantization(digits=1))
    result = check_exact_float_agreement(cfg)
    assert not result.passed
    assert "failures" in result.details


def test_quick_config_shrinks_every_corpus():
    quick = VerifyConfig().quick()
    assert quick.corpus_max_n <= 5
    assert quick.random_graphs <= 25
    assert quick.parity_max_base_n <= 4


def test_witness_check_rejects_an_isomorphic_pair(monkeypatch):
    """A recorded pair of isomorphic graphs fails the witness check, also
    when its flags replay and it is not the first gadget pair."""
    witnesses, statuses = verify.bundled_witnesses()
    c6 = cycle_graph(6)
    relabelled = write_graph6(c6.relabel([3, 1, 5, 0, 2, 4]))
    pair = Witness("wl1", "epwl:A", write_graph6(c6), relabelled, False, False, "seed:c6-relabelled")
    monkeypatch.setattr(verify, "bundled_witnesses", lambda: (witnesses + [pair], statuses))
    result = check_witness_corpus(replace(VerifyConfig(), parity_max_base_n=2))
    assert not result.passed
    assert "witness-pair-isomorphic" in result.details and relabelled in result.details
