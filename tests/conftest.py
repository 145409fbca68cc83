from itertools import combinations

import pytest

from eigenwl import graphs
from eigenwl.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    enumerate_graphs,
    path_graph,
)


@pytest.fixture
def fresh_store(monkeypatch):
    """An empty store in place of the process-wide one, so that a new
    graph starts with no derived data."""
    store = graphs._DerivedStore(graphs.POOL_BYTES)
    monkeypatch.setattr(graphs, "_STORE", store)
    return store


@pytest.fixture(scope="session")
def corpus_n5():
    """All graphs on up to 5 vertices, one per isomorphism class."""
    out = []
    for n in range(1, 6):
        out.extend(enumerate_graphs(n))
    return out


@pytest.fixture(scope="session")
def connected_n6():
    out = []
    for n in range(1, 7):
        out.extend(enumerate_graphs(n, connected_only=True))
    return out


@pytest.fixture(scope="session")
def connected_n7():
    out = []
    for n in range(1, 8):
        out.extend(enumerate_graphs(n, connected_only=True))
    return out


@pytest.fixture(scope="session")
def c6():
    return cycle_graph(6)


@pytest.fixture(scope="session")
def two_triangles():
    return disjoint_union(cycle_graph(3), cycle_graph(3))


@pytest.fixture(scope="session")
def k2():
    return complete_graph(2)


@pytest.fixture(scope="session")
def p3():
    return path_graph(3)


@pytest.fixture(scope="session")
def rook_4x4():
    """The 4x4 rook's graph, srg(16, 6, 2, 2)."""
    edges = []
    for a, b in combinations(range(16), 2):
        r1, c1 = divmod(a, 4)
        r2, c2 = divmod(b, 4)
        if r1 == r2 or c1 == c2:
            edges.append((a, b))
    return Graph.from_edges(16, edges)


@pytest.fixture(scope="session")
def shrikhande():
    """The Shrikhande graph: srg(16, 6, 2, 2) too, not isomorphic to the rook's graph."""
    conn = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    edges = set()
    for a in range(4):
        for b in range(4):
            for da, db in conn:
                u = 4 * a + b
                v = 4 * ((a + da) % 4) + ((b + db) % 4)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(16, sorted(edges))
