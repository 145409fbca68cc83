"""The seven spectral node distances, each with two computation routes.

Every distance has a direct definition (BFS, pseudo-inverse formula,
truncated walk sum, linear-system recursion) and, where a closed form in
terms of the normalized-Laplacian eigenprojections exists, a spectral
route used as a cross-check.  ``cross_validate`` reports the worst
disagreement between the two routes.

Cross-component entries carry a dedicated Infinity token (never a large
float) so that distance values remain exact discrete symbols inside
refinement tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Optional

import numpy as np

from . import exact
from .graphs import Graph, MatrixKind, build_matrix
from .spectral import DEFAULT_QUANT, Quantization, _walk_powers, decomposition_for, quantize

__all__ = [
    "CrossCheckReport",
    "DistanceKind",
    "DistanceMatrix",
    "biharmonic",
    "commute_time",
    "cross_validate",
    "diffusion_distance",
    "distance_matrix",
    "distance_tokens",
    "hitting_time",
    "pagerank_distance",
    "resistance",
    "spd",
]

CROSS_TOL = 1e-8

_DEFAULT_PRD_WEIGHTS = tuple(Fraction(1, 2**k) for k in range(17))
_DEFAULT_TAU = 1.0


@dataclass(frozen=True)
class DistanceKind:
    """Distance selector: spd, rd, htd, ctd, prd(weights), diffusion(tau), biharmonic.

    Walk weights are exact rationals so that per-pair tokens are exact;
    accepted spellings include decimals and fractions ('0.5' or '1/2').
    """

    name: str
    weights: Optional[tuple[Fraction, ...]] = None
    tau: Optional[float] = None

    def __post_init__(self):
        if self.name not in {"spd", "rd", "htd", "ctd", "prd", "diffusion", "biharmonic"}:
            raise ValueError(f"unknown distance kind {self.name!r}")
        if self.name == "prd" and not self.weights:
            raise ValueError("prd requires a finite weight list")
        if self.name == "diffusion":
            if self.tau is None or self.tau < 0:
                raise ValueError("diffusion requires tau >= 0")

    @classmethod
    def parse(cls, text: str) -> "DistanceKind":
        """Parse e.g. 'spd', 'rd', 'prd:w=0,1,0.5', 'diffusion:tau=2'."""
        head, _, rest = text.strip().lower().partition(":")
        if head in {"spd", "rd", "htd", "ctd", "biharmonic"}:
            if rest:
                raise ValueError(f"distance {head!r} takes no parameters")
            return cls(head)
        if head == "prd":
            if not rest:
                return cls("prd", weights=_DEFAULT_PRD_WEIGHTS)
            if not rest.startswith("w="):
                raise ValueError("prd parameter must be w=g0,g1,...")
            try:
                weights = tuple(Fraction(x) for x in rest[2:].split(","))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad prd weights: {exc}") from None
            return cls("prd", weights=weights)
        if head in {"diffusion", "diff"}:
            if not rest:
                return cls("diffusion", tau=_DEFAULT_TAU)
            if not rest.startswith("tau="):
                raise ValueError("diffusion parameter must be tau=<float>")
            return cls("diffusion", tau=float(rest[4:]))
        raise ValueError(f"unknown distance kind {text!r}")

    def label(self) -> str:
        if self.name == "prd":
            return "prd:w=" + ",".join(str(w) for w in self.weights)
        if self.name == "diffusion":
            return f"diffusion:tau={format(self.tau, 'g')}"
        return self.name

    @staticmethod
    def all_default() -> list["DistanceKind"]:
        """The seven distances with default parameters."""
        return [
            DistanceKind("spd"),
            DistanceKind("rd"),
            DistanceKind("htd"),
            DistanceKind("ctd"),
            DistanceKind("prd", weights=_DEFAULT_PRD_WEIGHTS),
            DistanceKind("diffusion", tau=_DEFAULT_TAU),
            DistanceKind("biharmonic"),
        ]


@dataclass(frozen=True)
class DistanceMatrix:
    """Distance values with np.inf marking cross-component entries."""

    values: np.ndarray
    symmetric: bool

    def __post_init__(self):
        self.values.flags.writeable = False

    def entry(self, u: int, v: int) -> float:
        return float(self.values[u, v])

    def token(self, u: int, v: int, quant: Quantization = DEFAULT_QUANT) -> bytes:
        """Canonical per-pair token; Infinity is its own symbol."""
        x = self.values[u, v]
        if np.isinf(x):
            return b"inf"
        return quantize(float(x), quant).encode()


# ---------------------------------------------------------------------------
# component helpers


def _component_ids(g: Graph) -> list[int]:
    ids = [0] * g.n
    for ci, comp in enumerate(g.components()):
        for v in comp:
            ids[v] = ci
    return ids


def _subgraph(g: Graph, verts: list[int]) -> Graph:
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[u], pos[v]) for u in verts for v in g.neighbors(u) if u < v and v in pos]
    return Graph.from_edges(len(verts), edges)


def _per_component(g: Graph, fn: Callable[[Graph], np.ndarray]) -> np.ndarray:
    """Assemble a full matrix from per-component computations, inf across."""
    out = np.full((g.n, g.n), np.inf)
    for comp in g.components():
        if len(comp) == 1:
            out[comp[0], comp[0]] = 0.0
            continue
        block = fn(_subgraph(g, comp))
        for i, u in enumerate(comp):
            for j, v in enumerate(comp):
                out[u, v] = block[i, j]
    return out


# ---------------------------------------------------------------------------
# shortest-path distance


def spd(g: Graph) -> DistanceMatrix:
    """BFS distances; Infinity across components."""
    n = g.n
    vals = np.full((n, n), np.inf)
    for s in range(n):
        vals[s, s] = 0.0
        seen = 1 << s
        frontier = 1 << s
        d = 0
        while frontier:
            d += 1
            nxt = 0
            rem = frontier
            while rem:
                low = rem & -rem
                nxt |= g.rows[low.bit_length() - 1]
                rem ^= low
            frontier = nxt & ~seen
            seen |= frontier
            rem = frontier
            while rem:
                low = rem & -rem
                vals[s, low.bit_length() - 1] = float(d)
                rem ^= low
    return DistanceMatrix(vals, symmetric=True)


def _spd_min_power(g: Graph) -> np.ndarray:
    """Least walk length with a positive power entry (exact integer walks).

    The positivity pattern of A^i equals that of the normalized adjacency
    power, since both sum strictly positive weights over the same walks.
    """
    n = g.n
    adj = exact.int_matrix(g, MatrixKind.ADJACENCY)
    vals = np.full((n, n), np.inf)
    np.fill_diagonal(vals, 0.0)
    power = exact.identity(n)
    for i in range(1, n):
        power = exact.matmul(power, adj)
        vals[np.isinf(vals) & np.array([[x > 0 for x in row] for row in power])] = float(i)
    return vals


# ---------------------------------------------------------------------------
# resistance distance


def _laplacian_pinv(g: Graph) -> np.ndarray:
    return decomposition_for(g, MatrixKind.LAPLACIAN).pseudo_inverse()


def resistance(g: Graph) -> DistanceMatrix:
    """Effective resistance via the Laplacian pseudo-inverse; inf across components."""
    n = g.n
    ldag = _laplacian_pinv(g)
    diag = np.diag(ldag)
    vals = diag[:, None] + diag[None, :] - 2.0 * ldag
    ids = _component_ids(g)
    for u in range(n):
        for v in range(n):
            if ids[u] != ids[v]:
                vals[u, v] = np.inf
    np.fill_diagonal(vals, 0.0)
    return DistanceMatrix(vals, symmetric=True)


def _resistance_normalized_route(g: Graph) -> np.ndarray:
    """Degree-weighted normalized-Laplacian form of the resistance."""

    def block(sub: Graph) -> np.ndarray:
        deg = np.array([float(d) for d in sub.degrees])
        nd = decomposition_for(sub, MatrixKind.NORMALIZED_LAPLACIAN).pseudo_inverse()
        diag = np.diag(nd)
        scale = 1.0 / np.sqrt(np.outer(deg, deg))
        return diag[:, None] / deg[:, None] + diag[None, :] / deg[None, :] - 2.0 * nd * scale

    return _per_component(g, block)


# ---------------------------------------------------------------------------
# random-walk distances


def hitting_time(g: Graph) -> DistanceMatrix:
    """Expected steps of a walk from u until it first reaches v.

    Computed per component from the Laplacian pseudo-inverse closed form;
    asymmetric in general; Infinity across components.
    """

    def block(sub: Graph) -> np.ndarray:
        ldag = _laplacian_pinv(sub)
        dvec = np.array([float(d) for d in sub.degrees])
        edges2 = float(sum(sub.degrees))  # 2|E|
        a = ldag @ dvec
        vals = a[:, None] - a[None, :] + edges2 * np.diag(ldag)[None, :] - edges2 * ldag
        np.fill_diagonal(vals, 0.0)
        return vals

    return DistanceMatrix(_per_component(g, block), symmetric=False)


def _hitting_time_recursion(g: Graph) -> np.ndarray:
    """First-step recursion solved as one linear system per target vertex."""

    def block(sub: Graph) -> np.ndarray:
        n = sub.n
        walk = np.zeros((n, n))
        for u in range(n):
            for w in sub.neighbors(u):
                walk[u, w] = 1.0 / sub.degree(u)
        vals = np.zeros((n, n))
        for v in range(n):
            others = [u for u in range(n) if u != v]
            system = np.eye(n - 1) - walk[np.ix_(others, others)]
            sol = np.linalg.solve(system, np.ones(n - 1))
            for i, u in enumerate(others):
                vals[u, v] = sol[i]
        return vals

    return _per_component(g, block)


def commute_time(g: Graph) -> DistanceMatrix:
    """Round-trip expectation: hitting time plus its transpose."""
    h = hitting_time(g).values
    return DistanceMatrix(h + h.T, symmetric=True)


def _commute_time_via_resistance(g: Graph) -> np.ndarray:
    """Per-component identity CTD = 2|E| * RD."""
    rd = resistance(g).values
    out = np.full((g.n, g.n), np.inf)
    for comp in g.components():
        edges2 = float(sum(g.degree(u) for u in comp))
        for u in comp:
            for v in comp:
                out[u, v] = edges2 * rd[u, v] if u != v else 0.0
    return out


# ---------------------------------------------------------------------------
# PageRank distance


def _walk_matrix(g: Graph) -> np.ndarray:
    if g.has_isolated:
        raise ValueError("PageRank distance undefined: graph has an isolated vertex")
    walk = np.zeros((g.n, g.n))
    for u in range(g.n):
        for w in g.neighbors(u):
            walk[u, w] = 1.0 / g.degree(u)
    return walk


def pagerank_distance(g: Graph, weights: tuple[Fraction, ...]) -> DistanceMatrix:
    """Truncated weighted walk sum  sum_k gamma_k (D^-1 A)^k;  asymmetric."""
    walk = _walk_matrix(g)
    power = np.eye(g.n)
    vals = float(weights[0]) * power if weights else np.zeros((g.n, g.n))
    for gamma in weights[1:]:
        power = power @ walk
        vals = vals + float(gamma) * power
    return DistanceMatrix(vals, symmetric=False)


def _pagerank_spectral_route(g: Graph, weights: tuple[Fraction, ...]) -> np.ndarray:
    """Eigenprojection form with degree factors on either side."""
    if g.has_isolated:
        raise ValueError("PageRank distance undefined: graph has an isolated vertex")
    dec = decomposition_for(g, MatrixKind.NORMALIZED_LAPLACIAN)
    deg = np.array([float(d) for d in g.degrees])
    left = 1.0 / np.sqrt(deg)
    right = np.sqrt(deg)
    vals = np.zeros((g.n, g.n))
    for lam, proj in zip(dec.eigenvalues, dec.projections):
        coeff = sum(float(gamma) * (1.0 - lam) ** k for k, gamma in enumerate(weights))
        vals += coeff * proj
    return left[:, None] * vals * right[None, :]


# ---------------------------------------------------------------------------
# diffusion distance


def diffusion_distance(g: Graph, tau: float) -> DistanceMatrix:
    """L2 mass-difference of heat diffusion started at u vs v (time tau)."""
    if g.has_isolated:
        raise ValueError("diffusion distance undefined: graph has an isolated vertex")
    dec = decomposition_for(g, MatrixKind.NORMALIZED_LAPLACIAN)
    sq = np.zeros((g.n, g.n))
    for lam, proj in zip(dec.eigenvalues, dec.projections):
        diag = np.diag(proj)
        sq += math.exp(-2.0 * tau * lam) * (diag[:, None] + diag[None, :] - 2.0 * proj)
    vals = np.sqrt(np.clip(sq, 0.0, None))
    np.fill_diagonal(vals, 0.0)
    return DistanceMatrix(vals, symmetric=True)


def _diffusion_series_route(g: Graph, tau: float) -> np.ndarray:
    """Truncated matrix-exponential series for exp(-tau Lhat)."""
    lhat = build_matrix(g, MatrixKind.NORMALIZED_LAPLACIAN)
    n = g.n
    term = np.eye(n)
    total = np.eye(n)
    for j in range(1, 200):
        term = term @ (-tau * lhat) / j
        total = total + term
        if float(np.max(np.abs(term))) < 1e-18:
            break
    vals = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            vals[u, v] = float(np.linalg.norm(total[:, u] - total[:, v]))
    return vals


# ---------------------------------------------------------------------------
# biharmonic distance


def biharmonic(g: Graph) -> DistanceMatrix:
    """Squared-Laplacian pseudo-inverse form; inf across components."""
    dec = decomposition_for(g, MatrixKind.LAPLACIAN)
    l2dag = dec.pseudo_inverse(power=2)
    diag = np.diag(l2dag)
    vals = diag[:, None] + diag[None, :] - 2.0 * l2dag
    ids = _component_ids(g)
    for u in range(g.n):
        for v in range(g.n):
            if ids[u] != ids[v]:
                vals[u, v] = np.inf
    np.fill_diagonal(vals, 0.0)
    return DistanceMatrix(vals, symmetric=True)


def _biharmonic_pinv_route(g: Graph) -> np.ndarray:
    lap = build_matrix(g, MatrixKind.LAPLACIAN)
    l2dag = np.linalg.pinv(lap @ lap, hermitian=True)
    diag = np.diag(l2dag)
    vals = diag[:, None] + diag[None, :] - 2.0 * l2dag
    ids = _component_ids(g)
    for u in range(g.n):
        for v in range(g.n):
            if ids[u] != ids[v]:
                vals[u, v] = np.inf
    np.fill_diagonal(vals, 0.0)
    return vals


# ---------------------------------------------------------------------------
# dispatch, cache, cross-validation

_DIST_CACHE: dict[tuple, DistanceMatrix] = {}


def distance_matrix(g: Graph, kind: DistanceKind) -> DistanceMatrix:
    """Cached distance matrix of the requested kind."""
    key = (g, kind)
    cached = _DIST_CACHE.get(key)
    if cached is not None:
        return cached
    if kind.name == "spd":
        out = spd(g)
    elif kind.name == "rd":
        out = resistance(g)
    elif kind.name == "htd":
        out = hitting_time(g)
    elif kind.name == "ctd":
        out = commute_time(g)
    elif kind.name == "prd":
        out = pagerank_distance(g, kind.weights)
    elif kind.name == "diffusion":
        out = diffusion_distance(g, kind.tau)
    elif kind.name == "biharmonic":
        out = biharmonic(g)
    else:  # pragma: no cover - DistanceKind validates names
        raise ValueError(f"unknown distance kind {kind.name!r}")
    _DIST_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# exact per-pair tokens
#
# Every distance except diffusion is rational, and walk probabilities
# routinely terminate with a 5 in the digit just beyond the rounding
# width: a floating-point route would leave the rounding direction to
# solver noise and break relabeling invariance of the derived tokens.
# Tokens for the rational kinds are therefore computed with exact
# arithmetic; diffusion values are transcendental, where exact decimal
# ties cannot occur, so the float route is safe.

_INF_TOKEN = b"inf"
_TOKEN_CACHE: dict[tuple, list[bytes]] = {}


def _exact_ratio_tokens(g: Graph, kind: DistanceKind, digits: int) -> list[bytes]:
    """rd, htd, ctd and biharmonic tokens from the exact per-component L^+."""
    n = g.n
    out = [_INF_TOKEN] * (n * n)
    for comp in g.components():
        sub = _subgraph(g, comp)
        num, den = exact.laplacian_pinv(sub)
        k = sub.n
        if kind.name == "biharmonic":
            num, den = exact.matmul(num, num), den * den
        diag = [num[i][i] for i in range(k)]
        if kind.name == "htd":
            edges2 = sum(sub.degrees)
            weighted = [sum(map(mul, row, sub.degrees)) for row in num]
            block = [
                [weighted[i] - weighted[j] + edges2 * (diag[j] - num[i][j]) for j in range(k)]
                for i in range(k)
            ]
        else:  # rd, biharmonic, and ctd = 2|E| rd per component
            f = sum(sub.degrees) if kind.name == "ctd" else 1
            block = [[f * (diag[i] + diag[j] - 2 * num[i][j]) for j in range(k)] for i in range(k)]
        for i, u in enumerate(comp):
            for j, v in enumerate(comp):
                out[u * n + v] = exact.round_ratio(block[i][j], den, digits).encode()
    return out


def _prd_tokens(g: Graph, weights: tuple[Fraction, ...], digits: int) -> list[bytes]:
    """Exact PageRank tokens sum_k gamma_k M^k(u, v) / l^k over one denominator."""
    if g.has_isolated:
        raise ValueError("PageRank distance undefined: graph has an isolated vertex")
    steps = len(weights) - 1
    scale, powers = _walk_powers(g, steps)
    den = math.lcm(*(w.denominator for w in weights)) * scale**steps
    coeffs = [w.numerator * den // (w.denominator * scale**k) for k, w in enumerate(weights)]
    n = g.n
    return [
        exact.round_ratio(sum(c * p[u][v] for c, p in zip(coeffs, powers)), den, digits).encode()
        for u in range(n)
        for v in range(n)
    ]


def distance_tokens(g: Graph, kind: DistanceKind, quant: Quantization = DEFAULT_QUANT) -> list[bytes]:
    """Canonical per-pair tokens, flat row-major; exact for rational kinds."""
    key = (g, kind, quant)
    cached = _TOKEN_CACHE.get(key)
    if cached is not None:
        return cached
    n = g.n
    if kind.name == "spd":
        vals = distance_matrix(g, kind).values
        out = [
            _INF_TOKEN if np.isinf(vals[u, v]) else quantize(vals[u, v], quant).encode()
            for u in range(n)
            for v in range(n)
        ]
    elif kind.name == "diffusion":
        vals = distance_matrix(g, kind).values
        out = [quantize(vals[u, v], quant).encode() for u in range(n) for v in range(n)]
    elif kind.name == "prd":
        out = _prd_tokens(g, kind.weights, quant.digits)
    else:
        out = _exact_ratio_tokens(g, kind, quant.digits)
    _TOKEN_CACHE[key] = out
    return out


@dataclass(frozen=True)
class CrossCheckReport:
    kind: str
    max_residual: float
    infinity_mismatches: int
    exact_mismatches: int

    def passed(self, tol: float = CROSS_TOL) -> bool:
        if self.infinity_mismatches:
            return False
        if self.kind == "spd":
            return self.exact_mismatches == 0
        return self.max_residual <= tol


def _compare(kind: str, a: np.ndarray, b: np.ndarray) -> CrossCheckReport:
    inf_a = np.isinf(a)
    inf_b = np.isinf(b)
    inf_mismatch = int(np.sum(inf_a != inf_b))
    finite = ~inf_a & ~inf_b
    if kind == "spd":
        exact = int(np.sum(a[finite] != b[finite]))
        residual = float(np.max(np.abs(a[finite] - b[finite]))) if finite.any() else 0.0
        return CrossCheckReport(kind, residual, inf_mismatch, exact)
    residual = float(np.max(np.abs(a[finite] - b[finite]))) if finite.any() else 0.0
    return CrossCheckReport(kind, residual, inf_mismatch, 0)


def cross_validate(g: Graph, kind: DistanceKind) -> CrossCheckReport:
    """Compare the direct and alternate routes for one distance kind."""
    direct = distance_matrix(g, kind).values
    if kind.name == "spd":
        other = _spd_min_power(g)
    elif kind.name == "rd":
        other = _resistance_normalized_route(g)
    elif kind.name == "htd":
        other = _hitting_time_recursion(g)
    elif kind.name == "ctd":
        other = _commute_time_via_resistance(g)
    elif kind.name == "prd":
        other = _pagerank_spectral_route(g, kind.weights).copy()
    elif kind.name == "diffusion":
        other = _diffusion_series_route(g, kind.tau)
    elif kind.name == "biharmonic":
        other = _biharmonic_pinv_route(g)
    else:  # pragma: no cover
        raise ValueError(f"unknown distance kind {kind.name!r}")
    return _compare(kind.name, direct, other)
