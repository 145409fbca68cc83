"""eigenwl: eigenspace projection invariants and the WL refinement hierarchy.

Submodules:

* :mod:`eigenwl.graphs` - graph type, graph6 I/O, matrices, structural oracles
* :mod:`eigenwl.spectral` - eigendecompositions, projection pair tokens, exact backend
* :mod:`eigenwl.exact` - fraction-free integer linear algebra for the exact tokens
* :mod:`eigenwl.distances` - the seven spectral distances with dual-route checks
* :mod:`eigenwl.refinement` - generic color-refinement engine and algorithm zoo
* :mod:`eigenwl.furer` - Furer gadgets, twists, and counterexample search
* :mod:`eigenwl.highorder` - k-th symmetric powers (token graphs)
* :mod:`eigenwl.verify` - corpus-level property suites
* :mod:`eigenwl.cli` - the ``eigenwl`` command

The most common entry points are re-exported here.
"""

from .distances import DistanceKind, distance_matrix
from .graphs import Graph, MatrixKind, is_isomorphic, parse_graph6, write_graph6
from .refinement import AlgorithmSpec, compare_partitions, distinguishes, signatures, stable_coloring
from .spectral import decomposition_for, exact_pair_token, pair_token, spectrum_token

__version__ = "0.1.0"

__all__ = [
    "AlgorithmSpec",
    "DistanceKind",
    "Graph",
    "MatrixKind",
    "__version__",
    "compare_partitions",
    "decomposition_for",
    "distance_matrix",
    "distinguishes",
    "exact_pair_token",
    "is_isomorphic",
    "pair_token",
    "parse_graph6",
    "signatures",
    "spectrum_token",
    "stable_coloring",
    "write_graph6",
]
