"""Acceptance battery: every corpus-level guarantee at full size.

Each test runs one named check from :mod:`eigenwl.verify` with the
default configuration (the same code path as ``eigenwl verify``) and
prints its PASS/FAIL line, so a verbose run shows one line per
criterion.  Tolerances are fixed inside the checks themselves.
"""

from eigenwl.verify import (
    VerifyConfig,
    check_biconnectivity_separation,
    check_distance_cross_forms,
    check_distances_determined,
    check_distinguishing_count_ordering,
    check_exact_float_agreement,
    check_hierarchy_directions,
    check_pair_colors_determine_projections,
    check_spectral_algebra,
    check_witness_corpus,
)

CFG = VerifyConfig()


def _run(check):
    result = check(CFG)
    print(result.line())
    assert result.passed, result.line()
    return result


def test_01_spectral_algebra_residuals():
    result = _run(check_spectral_algebra)
    assert result.count >= 2900  # ~1000 classes x three matrix kinds


def test_02_exact_float_agreement():
    _run(check_exact_float_agreement)


def test_03_distance_cross_forms():
    result = _run(check_distance_cross_forms)
    assert result.count == CFG.random_graphs * 7


def test_04_distances_determined_by_stable_colors():
    _run(check_distances_determined)


def test_05_hierarchy_directions():
    from eigenwl.verify import hierarchy_directions

    result = _run(check_hierarchy_directions)
    assert result.count == len(hierarchy_directions()) == 31


def test_06_witness_corpus_and_parity():
    _run(check_witness_corpus)


def test_07_pair_colors_determine_projections():
    _run(check_pair_colors_determine_projections)


def test_08_biconnectivity_separation():
    _run(check_biconnectivity_separation)


def test_09_distinguishing_count_ordering():
    _run(check_distinguishing_count_ordering)
