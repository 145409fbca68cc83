"""Lifetime of the data derived per graph (``Graph.derived``): kept while
an equal graph is alive, then in a pool of ``POOL_BYTES``."""

import gc
import pickle
import random
import sys
import threading
import tracemalloc

import pytest

from eigenwl import exact, graphs, spectral
from eigenwl.graphs import MatrixKind, parse_graph6, random_connected_graph, write_graph6
from eigenwl.refinement import AlgorithmSpec, distinguishes, stable_coloring
from eigenwl.spectral import Quantization

A = MatrixKind.ADJACENCY
LHAT = MatrixKind.NORMALIZED_LAPLACIAN


@pytest.fixture
def eigensolves(monkeypatch):
    """The matrices passed to ``spectral.decompose``, one per eigensolve."""
    calls = []
    original = spectral.decompose

    def counted(matrix, *args, **kwargs):
        calls.append(matrix)
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(spectral, "decompose", counted)
    return calls


def test_memory_stays_bounded_over_a_stream_of_distinct_graphs():
    spec = AlgorithmSpec.parse("epwl:Lhat")

    def compare_with_relabelled_copy(seed):
        g = random_connected_graph(40, 0.2, seed)
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        distinguishes(spec, g, g.relabel(perm))

    compare_with_relabelled_copy(0)  # first-use imports and tables
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for seed in range(1, 41):
            compare_with_relabelled_copy(seed)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # each pair derives about 0.55 MB; the last pair's entries wait in the
    # release queue until the next graph reads its derived data
    assert grown < graphs.POOL_BYTES + (6 << 20)


def test_live_graph_reads_its_codes_back_while_the_pool_overflows(fresh_store, eigensolves):
    g = random_connected_graph(24, 0.3, 7)
    ties = spectral.near_ties(g, LHAT)
    token = spectral.pair_token(g, LHAT, 0, 1)
    released = 0
    for seed in range(100, 140):
        h = random_connected_graph(64, 0.2, seed)
        spectral.quantized_projections(h, LHAT)
        released += graphs._entry_nbytes(h.derived, {})
        del h
    gc.collect()
    assert released > 4 * graphs.POOL_BYTES
    random_connected_graph(5, 0.5, 1).derived  # pools the queued entries
    assert 0 < fresh_store.pool_bytes <= graphs.POOL_BYTES
    assert spectral.near_ties(g, LHAT) == ties
    assert spectral.pair_token(g, LHAT, 0, 1) == token
    assert len(eigensolves) == 41


def _project(g):
    for kind in ("A", "L", "Lhat"):
        stable_coloring(AlgorithmSpec.parse(f"epwl:{kind}"), [g])


def test_projection_data_of_an_n48_graph_stays_small():
    """Eigenvector blocks (n^2 floats per kind) and int32 entry codes, not
    m stored n x n float projectors beside int64 codes."""
    g = random_connected_graph(48, 0.2, 5)
    _project(g)
    assert graphs._entry_nbytes(g.derived, {}) <= 1.5e6


def test_pool_keeps_an_n48_graph_while_copies_are_compared(fresh_store, eigensolves):
    """As in ``scan``: a scanned graph's data waits in the pool while
    relabelled copies of it are compared and released, so the graph
    parsed again from its line costs no second eigensolve."""
    g = random_connected_graph(48, 0.2, 5)
    line, rng = write_graph6(g), random.Random(5)
    _project(g)
    copies = [write_graph6(g.relabel(rng.sample(range(g.n), g.n))) for _ in range(6)]
    del g
    spec = AlgorithmSpec.parse("epwl:Lhat")
    for a, b in zip(copies[::2], copies[1::2]):
        distinguishes(spec, parse_graph6(a), parse_graph6(b))
    gc.collect()
    assert len(eigensolves) == 3 + 6
    spectral.quantized_projections(parse_graph6(line), LHAT)
    assert len(eigensolves) == 3 + 6


def test_reparsed_graph_costs_no_second_eigensolve(eigensolves):
    line = write_graph6(random_connected_graph(30, 0.2, 11))
    g = parse_graph6(line)
    dec = spectral.decomposition_for(g, A)
    # decompose never reads the digits: one decomposition per clustering scale
    assert spectral.decomposition_for(g, A, Quantization(digits=5)) is dec
    assert (g, A, Quantization(digits=7)) in spectral._DECOMP_CACHE
    assert (g, A, Quantization(eig_gap_scale=1e-6)) not in spectral._DECOMP_CACHE
    assert len(eigensolves) == 1
    # an equal graph alive at the same time shares the entry
    assert parse_graph6(line).derived is g.derived
    del g, dec
    gc.collect()
    # released, then back from the pool
    spectral.decomposition_for(parse_graph6(line), A, Quantization(digits=8))
    assert len(eigensolves) == 1


def test_pool_drops_the_oldest_released_entries_first(fresh_store, eigensolves):
    lines = [write_graph6(random_connected_graph(20, 0.3, seed)) for seed in range(3)]
    for line in lines:
        spectral.decomposition_for(parse_graph6(line), A)
    gc.collect()
    # a lease pools the queued entries; the probes stay alive, out of the pool
    probe = random_connected_graph(5, 0.5, 1)
    probe.derived
    keys = [(g.n, g.rows) for g in map(parse_graph6, lines)]
    assert list(fresh_store.pool) == keys
    # room for the newest two only
    fresh_store.budget = fresh_store.pool_bytes - fresh_store.pool[keys[0]][2]
    other_probe = random_connected_graph(5, 0.5, 2)
    other_probe.derived
    assert list(fresh_store.pool) == keys[1:]
    for line in reversed(lines):
        spectral.decomposition_for(parse_graph6(line), A)
    assert len(eigensolves) == 4


def test_pool_sizes_walk_powers_again_once_grown(fresh_store):
    g = random_connected_graph(9, 0.5, 4)
    key, line = (g.n, g.rows), write_graph6(g)
    del g

    def pooled_bytes(steps):
        exact.powers(parse_graph6(line), exact.WALK, steps)  # released at once
        probe = random_connected_graph(5, 0.5, steps)
        probe.derived  # pools the queued entry
        return fresh_store.pool[key][2]

    short, long = pooled_bytes(2), pooled_bytes(16)  # the second extends the list in place
    assert long > short
    assert long == graphs._entry_nbytes(fresh_store.pool[key][0], {None: (key, graphs._nbytes(key))})


def test_pickled_graph_carries_no_derived_data():
    g = random_connected_graph(16, 0.3, 5)
    bare = pickle.dumps(g)
    spectral.quantized_projections(g, MatrixKind.LAPLACIAN)
    assert g.degrees and g.derived
    data = pickle.dumps(g)
    assert data == bare
    copy = pickle.loads(data)
    assert vars(copy) == {"n": g.n, "rows": g.rows}
    assert copy == g and copy.derived is g.derived


def test_store_stays_consistent_under_threads(fresh_store):
    """Threads lease and release equal and distinct graphs at once; the
    pool's byte count must stay the sum of its entries, and no graph may
    be both live and pooled."""
    graphs_ = [random_connected_graph(8, 0.5, seed) for seed in range(8)]
    for g in graphs_:
        spectral.decomposition_for(g, A)
    fresh_store.budget = 3 * graphs._entry_nbytes(graphs_[0].derived, {})
    lines = [write_graph6(g) for g in graphs_]
    entries = [dict(g.derived) for g in graphs_]
    del graphs_

    def work(offset):
        for i in range(3000):
            k = (i * (offset + 1)) % len(lines)
            parse_graph6(lines[k]).derived.update(entries[k])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    gc.collect()
    probe = random_connected_graph(5, 0.5, 3)
    probe.derived  # pools the queued entries
    assert fresh_store.pool_bytes == sum(nbytes for _, _, nbytes in fresh_store.pool.values())
    assert fresh_store.pool_bytes <= fresh_store.budget
    assert not set(fresh_store.pool) & set(fresh_store.live)
