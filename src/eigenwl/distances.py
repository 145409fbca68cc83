"""The seven spectral node distances, each with two computation routes.

Every distance has a direct definition (BFS, pseudo-inverse formula,
truncated walk sum, linear-system recursion) and, where a closed form in
terms of the normalized-Laplacian eigenprojections exists, a spectral
route used as a cross-check.  ``cross_validate`` reports the worst
disagreement between the two routes.  What a kind is (its parameters,
its precondition, its routes) is one row of the ``_KINDS`` table at the
end of the module.

Per-pair tokens are int64 rows (is_inf, code).  A cross-component entry
sets the Infinity flag column, with code 0, never a large float; any other
entry carries the decimal code of its value (``spectral._decimal_codes``),
so that distance values remain exact discrete symbols inside refinement
tokens.
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
from .spectral import DEFAULT_QUANT, Quantization, _decimal_codes, _int64_codes, decomposition_for

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


@dataclass(frozen=True)
class _Param:
    """One parameter of a spec, as labels spell it: its value alone, or
    ``key=value`` if it has a key (matched case-insensitively)."""

    key: Optional[str]  # 'w' in 'prd:w=0,1,1/2'
    field: str  # the spec field holding it
    default: object  # its value when not spelled
    read: Callable  # label text -> raw value
    coerce: Callable  # raw value -> canonical value; ValueError if invalid
    show: Callable  # canonical value -> label text that reads back equal

    def parse(self, token: str):
        """The raw value a label token spells."""
        if self.key is not None:
            key, eq, token = token.partition("=")
            if not eq or key.lower() != self.key.lower():
                raise ValueError(f"parameter must be {self.key}=<value>")
        return self.read(token)

    def label(self, value) -> str:
        return self.show(value) if self.key is None else f"{self.key}={self.show(value)}"


def parse_params(params: tuple[_Param, ...], text: Optional[str]) -> dict:
    """Raw field values of the parameters spelled in ``text`` (None when
    nothing follows the head), one ``:``-separated token each, in order;
    the last reads the rest of ``text``, colons and all."""
    if text is None:
        return {}
    tokens = text.split(":", max(len(params) - 1, 0))
    if len(tokens) > len(params):
        raise ValueError("too many parameters")
    return {param.field: param.parse(token) for param, token in zip(params, tokens)}


def label_params(head: str, params: tuple[_Param, ...], spec) -> str:
    """``head`` followed by the label of each parameter of ``spec``."""
    return ":".join([head, *(param.label(getattr(spec, param.field)) for param in params)])


def _coerce_weights(weights) -> tuple[Fraction, ...]:
    try:
        out = tuple(Fraction(w) for w in weights)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad walk weights: {exc}") from None
    if not out:
        raise ValueError("walk weights must be a nonempty list")
    return out


def _coerce_tau(tau) -> float:
    tau = float(tau)
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"diffusion time must be finite and >= 0, got {tau}")
    return tau


def _show_tau(tau: float) -> str:
    text = format(tau, "g")
    return text if float(text) == tau else repr(tau)


_WEIGHTS = _Param(
    "w", "weights", tuple(Fraction(1, 2**k) for k in range(17)),
    lambda text: text.split(","), _coerce_weights, lambda ws: ",".join(map(str, ws)),
)
_TAU = _Param("tau", "tau", 1.0, float, _coerce_tau, _show_tau)
_ALIASES = {"diff": "diffusion"}


@dataclass(frozen=True)
class DistanceKind:
    """Distance selector: spd, rd, htd, ctd, prd(weights), diffusion(tau), biharmonic.

    Walk weights are exact rationals so that per-pair tokens are exact;
    accepted spellings include decimals and fractions ('0.5' or '1/2').
    A parameter left out takes its default.
    """

    name: str
    weights: Optional[tuple[Fraction, ...]] = None
    tau: Optional[float] = None

    def __post_init__(self):
        row = _KINDS.get(self.name)
        if row is None:
            raise ValueError(f"unknown distance kind {self.name!r}")
        # label() prints only the kind's own parameter, so a spec carrying
        # another would not survive parse(label())
        for param in (_WEIGHTS, _TAU):
            value = getattr(self, param.field)
            if param in row.params:
                value = param.default if value is None else value
                object.__setattr__(self, param.field, param.coerce(value))
            elif value is not None:
                raise ValueError(f"distance {self.name!r} takes no {param.key} parameter")

    @classmethod
    def parse(cls, text: str) -> "DistanceKind":
        """Parse e.g. 'spd', 'rd', 'prd:w=0,1,0.5', 'diffusion:tau=2'; a
        ':' must be followed by a parameter."""
        head, colon, rest = text.strip().lower().partition(":")
        name = _ALIASES.get(head, head)
        if name not in _KINDS:
            raise ValueError(f"unknown distance kind {text!r}")
        return cls(name, **parse_params(_KINDS[name].params, rest if colon else None))

    def label(self) -> str:
        return label_params(self.name, _KINDS[self.name].params, self)

    @property
    def params(self) -> tuple:
        """The route arguments after the graph: () or (weights,) or (tau,)."""
        return tuple(getattr(self, param.field) for param in _KINDS[self.name].params)

    @property
    def rejects_isolated(self) -> bool:
        """Whether the distance is undefined on a graph with an isolated vertex."""
        return _KINDS[self.name].undefined_isolated is not None

    @property
    def compares_exactly(self) -> bool:
        """Whether values are integers that must agree exactly, not within a tolerance."""
        return _KINDS[self.name].exact

    @staticmethod
    def all_default() -> list["DistanceKind"]:
        """The seven distances with default parameters."""
        return [DistanceKind(name) for name in _KINDS]


@dataclass(frozen=True)
class DistanceMatrix:
    """Distance values with np.inf marking cross-component entries."""

    values: np.ndarray
    symmetric: bool

    def __post_init__(self):
        self.values.flags.writeable = False

    def entry(self, u: int, v: int) -> float:
        return float(self.values[u, v])


# ---------------------------------------------------------------------------
# component helpers


def _subgraph(g: Graph, verts: list[int]) -> Graph:
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[u], pos[v]) for u in verts for v in g.neighbors(u) if u < v and v in pos]
    return Graph.from_edges(len(verts), edges)


def _pinv_distance(g: Graph, pinv: np.ndarray) -> np.ndarray:
    """P(u, u) + P(v, v) - 2 P(u, v) inside components, inf across, 0 on the diagonal."""
    diag = np.diag(pinv)
    vals = diag[:, None] + diag[None, :] - 2.0 * pinv
    ids = np.zeros(g.n, dtype=int)
    for ci, comp in enumerate(g.components()):
        ids[comp] = ci
    vals[ids[:, None] != ids[None, :]] = np.inf
    np.fill_diagonal(vals, 0.0)
    return vals


_PRD_SUBJECT = "PageRank distance"
_DIFFUSION_SUBJECT = "diffusion distance"


def _require_no_isolated(g: Graph, subject: Optional[str]):
    """Raise for a distance (``subject``) undefined with an isolated vertex."""
    if subject is not None and g.has_isolated:
        raise ValueError(f"{subject} undefined: graph has an isolated vertex")


def _walk_matrix(g: Graph) -> np.ndarray:
    """Float random-walk matrix D^-1 A (no isolated vertex)."""
    deg = np.array([float(d) for d in g.degrees])
    return build_matrix(g, MatrixKind.ADJACENCY) / deg[:, None]


def _per_component(g: Graph, fn: Callable[[Graph], np.ndarray]) -> np.ndarray:
    """Assemble a full matrix from per-component computations, inf across."""
    out = np.full((g.n, g.n), np.inf)
    for comp in g.components():
        if len(comp) == 1:
            out[comp[0], comp[0]] = 0.0
            continue
        out[np.ix_(comp, comp)] = fn(_subgraph(g, comp))
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
    vals = np.full((n, n), np.inf)
    np.fill_diagonal(vals, 0.0)
    # a local list, not the graph's power table: kept in ``g.derived`` it
    # would cost the store a sizing pass for a cross-check that reads it once
    powers = [exact.identity(n), exact.int_matrix(g, MatrixKind.ADJACENCY)]
    for i in range(1, n):
        exact.extend_powers(powers, i)
        vals[np.isinf(vals) & np.array([[x > 0 for x in row] for row in powers[i]])] = float(i)
    return vals


# ---------------------------------------------------------------------------
# resistance distance


def _laplacian_pinv(g: Graph) -> np.ndarray:
    return decomposition_for(g, MatrixKind.LAPLACIAN).pseudo_inverse()


def resistance(g: Graph) -> DistanceMatrix:
    """Effective resistance via the Laplacian pseudo-inverse; inf across components."""
    return DistanceMatrix(_pinv_distance(g, _laplacian_pinv(g)), symmetric=True)


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
        walk = _walk_matrix(sub)
        vals = np.zeros((n, n))
        for v in range(n):
            others = [u for u in range(n) if u != v]
            system = np.eye(n - 1) - walk[np.ix_(others, others)]
            vals[others, v] = np.linalg.solve(system, np.ones(n - 1))
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
        block = np.ix_(comp, comp)
        out[block] = float(sum(g.degree(u) for u in comp)) * rd[block]
    np.fill_diagonal(out, 0.0)
    return out


# ---------------------------------------------------------------------------
# PageRank distance


def pagerank_distance(g: Graph, weights: tuple[Fraction, ...]) -> DistanceMatrix:
    """Truncated weighted walk sum  sum_k gamma_k (D^-1 A)^k;  asymmetric."""
    _require_no_isolated(g, _PRD_SUBJECT)
    walk = _walk_matrix(g)
    power = np.eye(g.n)
    vals = float(weights[0]) * power if weights else np.zeros((g.n, g.n))
    for gamma in weights[1:]:
        power = power @ walk
        vals = vals + float(gamma) * power
    return DistanceMatrix(vals, symmetric=False)


def _pagerank_spectral_route(g: Graph, weights: tuple[Fraction, ...]) -> np.ndarray:
    """Eigenprojection form with degree factors on either side."""
    dec = decomposition_for(g, MatrixKind.NORMALIZED_LAPLACIAN)
    deg = np.array([float(d) for d in g.degrees])
    left = 1.0 / np.sqrt(deg)
    right = np.sqrt(deg)
    vals = np.zeros((g.n, g.n))
    for lam, proj in zip(dec.eigenvalues, dec.projectors()):
        coeff = sum(float(gamma) * (1.0 - lam) ** k for k, gamma in enumerate(weights))
        vals += coeff * proj
    return left[:, None] * vals * right[None, :]


# ---------------------------------------------------------------------------
# diffusion distance


def diffusion_distance(g: Graph, tau: float) -> DistanceMatrix:
    """L2 mass-difference of heat diffusion started at u vs v (time tau)."""
    _require_no_isolated(g, _DIFFUSION_SUBJECT)
    dec = decomposition_for(g, MatrixKind.NORMALIZED_LAPLACIAN)
    sq = np.zeros((g.n, g.n))
    for lam, proj in zip(dec.eigenvalues, dec.projectors()):
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
    l2dag = decomposition_for(g, MatrixKind.LAPLACIAN).pseudo_inverse(power=2)
    return DistanceMatrix(_pinv_distance(g, l2dag), symmetric=True)


def _biharmonic_pinv_route(g: Graph) -> np.ndarray:
    lap = build_matrix(g, MatrixKind.LAPLACIAN)
    return _pinv_distance(g, np.linalg.pinv(lap @ lap, hermitian=True))


# ---------------------------------------------------------------------------
# exact per-pair tokens
#
# Every distance except diffusion is rational, and walk probabilities
# routinely terminate with a 5 in the digit just beyond the rounding
# width: a floating-point route would leave the rounding direction to
# solver noise and break relabeling invariance of the derived tokens.
# Tokens for the rational kinds are therefore computed with exact
# arithmetic and rounded by ``exact.round_code``; diffusion values are
# transcendental, where exact decimal ties cannot occur, so the float
# route is safe.


def _token_rows(inf, codes: np.ndarray) -> np.ndarray:
    """(n*n, 2) int64 rows (is_inf, code)."""
    out = np.empty((len(codes), 2), np.int64)
    out[:, 0] = inf
    out[:, 1] = codes
    return out


def _float_tokens(g: Graph, kind: DistanceKind, quant: Quantization) -> np.ndarray:
    """spd and diffusion tokens: the codes of the float matrix."""
    values = distance_matrix(g, kind).values.ravel()
    inf = np.isinf(values)
    return _token_rows(inf, _decimal_codes(np.where(inf, 0.0, values), quant.digits)[0])


def _exact_ratio_tokens(g: Graph, kind: DistanceKind, quant: Quantization) -> np.ndarray:
    """rd, htd, ctd and biharmonic tokens from the exact per-component L^+,
    one per graph for all four kinds (``exact.laplacian_pinvs``)."""
    n, digits = g.n, quant.digits
    inf, codes = [1] * (n * n), [0] * (n * n)
    for comp, (num, den) in zip(g.components(), exact.laplacian_pinvs(g)):
        k, degrees = len(comp), [g.degree(u) for u in comp]
        if kind.name == "biharmonic":
            num, den = exact.matmul(num, num), den * den
        diag = [num[i][i] for i in range(k)]
        if kind.name == "htd":
            edges2 = sum(degrees)
            weighted = [sum(map(mul, row, degrees)) for row in num]
            block = [
                [weighted[i] - weighted[j] + edges2 * (diag[j] - num[i][j]) for j in range(k)]
                for i in range(k)
            ]
        else:  # rd, biharmonic, and ctd = 2|E| rd per component
            f = sum(degrees) if kind.name == "ctd" else 1
            block = [[f * (diag[i] + diag[j] - 2 * num[i][j]) for j in range(k)] for i in range(k)]
        for u, row in zip(comp, block):
            for v, x in zip(comp, row):
                inf[u * n + v], codes[u * n + v] = 0, exact.round_code(x, den, digits)
    return _token_rows(inf, _int64_codes(codes, digits))


def _prd_tokens(g: Graph, kind: DistanceKind, quant: Quantization) -> np.ndarray:
    """Exact PageRank tokens sum_k gamma_k M^k(u, v) / l^k over one denominator."""
    weights = kind.weights
    steps = len(weights) - 1
    scale, powers = exact.powers(g, exact.WALK, steps)
    den = math.lcm(*(w.denominator for w in weights)) * scale**steps
    coeffs = [w.numerator * den // (w.denominator * scale**k) for k, w in enumerate(weights)]
    n, digits = g.n, quant.digits
    codes = [
        exact.round_code(sum(c * p[u][v] for c, p in zip(coeffs, powers)), den, digits)
        for u in range(n)
        for v in range(n)
    ]
    return _token_rows(0, _int64_codes(codes, digits))


# ---------------------------------------------------------------------------
# the distance kind table


@dataclass(frozen=True)
class _Kind:
    """Everything one distance kind is, in one record."""

    params: tuple[_Param, ...]  # its parameters, as labels spell them
    undefined_isolated: Optional[str]  # error subject if undefined with an isolated vertex
    exact: bool  # integer values: the two routes must agree exactly
    matrix: Callable  # (graph, *params) -> DistanceMatrix
    alternate: Callable  # (graph, *params) -> the cross-check route's np.ndarray
    tokens: Callable  # (graph, kind, quant) -> row-major per-pair (is_inf, code) rows


# keyed by DistanceKind.name, in all_default() order; the columns are the
# _Kind fields in order
_KINDS: dict[str, _Kind] = {
    "spd":        _Kind((),          None,               True,  spd,                _spd_min_power,               _float_tokens),
    "rd":         _Kind((),          None,               False, resistance,         _resistance_normalized_route, _exact_ratio_tokens),
    "htd":        _Kind((),          None,               False, hitting_time,       _hitting_time_recursion,      _exact_ratio_tokens),
    "ctd":        _Kind((),          None,               False, commute_time,       _commute_time_via_resistance, _exact_ratio_tokens),
    "prd":        _Kind((_WEIGHTS,), _PRD_SUBJECT,       False, pagerank_distance,  _pagerank_spectral_route,     _prd_tokens),
    "diffusion":  _Kind((_TAU,),     _DIFFUSION_SUBJECT, False, diffusion_distance, _diffusion_series_route,      _float_tokens),
    "biharmonic": _Kind((),          None,               False, biharmonic,         _biharmonic_pinv_route,       _exact_ratio_tokens),
}


# ---------------------------------------------------------------------------
# entry points, kept in ``Graph.derived``, and cross-validation


def _row(g: Graph, kind: DistanceKind) -> _Kind:
    """The table row of ``kind``, once its precondition holds on ``g``."""
    row = _KINDS[kind.name]
    _require_no_isolated(g, row.undefined_isolated)
    return row


def distance_matrix(g: Graph, kind: DistanceKind) -> DistanceMatrix:
    """Distance matrix of the requested kind, kept in ``g.derived``."""
    key = ("dist", kind)
    out = g.derived.get(key)
    if out is None:
        out = g.derived[key] = _row(g, kind).matrix(g, *kind.params)
    return out


def distance_tokens(g: Graph, kind: DistanceKind, quant: Quantization = DEFAULT_QUANT) -> np.ndarray:
    """Canonical per-pair tokens: a read-only (n*n, 2) int64 array of
    row-major (is_inf, code) rows, exact for rational kinds.  Kept in
    ``g.derived``; ``ValueError`` when a code does not fit in 64 bits."""
    key = ("tokens", kind, quant)
    out = g.derived.get(key)
    if out is None:
        out = _row(g, kind).tokens(g, kind, quant)
        out.flags.writeable = False
        g.derived[key] = out
    return out


@dataclass(frozen=True)
class CrossCheckReport:
    kind: str
    max_residual: float
    infinity_mismatches: int
    exact_mismatches: int  # counted only for kinds whose values compare exactly

    def passed(self, tol: float = CROSS_TOL) -> bool:
        if self.infinity_mismatches or self.exact_mismatches:
            return False
        return _KINDS[self.kind].exact or self.max_residual <= tol


def cross_validate(g: Graph, kind: DistanceKind) -> CrossCheckReport:
    """Compare the direct and alternate routes for one distance kind."""
    row = _row(g, kind)
    a = distance_matrix(g, kind).values
    b = row.alternate(g, *kind.params)
    inf_a = np.isinf(a)
    inf_b = np.isinf(b)
    finite = ~inf_a & ~inf_b
    residual = float(np.max(np.abs(a[finite] - b[finite]))) if finite.any() else 0.0
    exact_mismatches = int(np.sum(a[finite] != b[finite])) if row.exact else 0
    return CrossCheckReport(kind.name, residual, int(np.sum(inf_a != inf_b)), exact_mismatches)
