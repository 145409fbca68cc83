"""Eigendecompositions, projection matrices, and canonical invariant tokens.

A symmetric graph matrix M decomposes as M = sum_i lambda_i P_i over its
distinct eigenvalues; the P_i are the unique orthogonal projectors onto
the eigenspaces.  The pair invariant of (u, v) is the multiset
{(lambda_i, P_i(u, v))}, rendered here as a canonical byte string after
decimal quantization so that tokens compare exactly across graphs and
platforms.

An exact rational backend (characteristic polynomial plus the moment
sequence M^k(u, v), both read fraction-free over the integers from the
power table of :mod:`eigenwl.exact`, the polynomial from the traces of
the powers) cross-validates the floating-point tokens: equal exact
tokens always imply equal invariant values, and for the adjacency and
Laplacian kinds the converse holds within a fixed spectrum
(Vandermonde invertibility).  For the normalized Laplacian the exact
token is a sufficient-only certificate.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Optional

import numpy as np

from . import exact
from .graphs import Graph, MatrixKind, build_matrix

__all__ = [
    "ExactPairToken",
    "PairToken",
    "Quantization",
    "ResidualReport",
    "SpectralDecomposition",
    "SpectralError",
    "SpectrumToken",
    "decompose",
    "decomposition_for",
    "dump_decomposition",
    "exact_pair_token",
    "near_ties",
    "pair_token",
    "quantize",
    "spectrum_token",
    "validate_decomposition",
]

EPS_ALG = 1e-8


class SpectralError(RuntimeError):
    """Eigensolver failure; carries the offending matrix."""

    def __init__(self, message: str, matrix: np.ndarray):
        super().__init__(message)
        self.matrix = matrix


@dataclass(frozen=True)
class Quantization:
    """Token quantization parameters.

    ``digits`` (at least 0) is the decimal rounding (half-even) applied to
    eigenvalues and projection entries before serialization;
    ``eig_gap_scale`` (positive and finite) scales the eigenvalue
    clustering threshold tau = scale * max(1, max|M|).
    """

    digits: int = 6
    eig_gap_scale: float = 1e-8

    def __post_init__(self):
        if self.digits < 0:
            raise ValueError(f"quantization digits must be >= 0, got {self.digits}")
        # at tau <= 0 a repeated eigenvalue splits into basis-dependent
        # projectors; at NaN or inf the whole spectrum is one cluster
        if not 0 < self.eig_gap_scale < math.inf:
            raise ValueError(f"eig_gap_scale must be positive and finite, got {self.eig_gap_scale}")


DEFAULT_QUANT = Quantization()


def quantize(x: float, quant: Quantization = DEFAULT_QUANT) -> str:
    """Fixed-width decimal string, round-half-even, negative zero normalized."""
    s = format(float(x), f".{quant.digits}f")
    if s.startswith("-") and float(s) == 0.0:
        s = s[1:]
    return s


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct ascending eigenvalues with multiplicities and, per
    eigenvalue, the orthonormal eigenvectors of its cluster as an
    (n, multiplicity) block U_i: n^2 floats in all, where the projectors
    P_i = U_i U_i^T take m n^2.  ``projectors`` builds the P_i."""

    eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]
    blocks: tuple[np.ndarray, ...]

    @property
    def m(self) -> int:
        return len(self.eigenvalues)

    def projectors(self) -> np.ndarray:
        """The projectors P_i = U_i U_i^T, symmetrized, as one (m, n, n)
        array.  They are built anew on every call, so a caller builds
        them once and indexes the result."""
        n = sum(self.multiplicities)
        out = np.empty((self.m, n, n))
        for proj, block in zip(out, self.blocks):
            gram = block @ block.T
            np.add(gram, gram.T, out=proj)
            proj /= 2.0
        return out

    def pseudo_inverse(self, power: int = 1) -> np.ndarray:
        """Moore-Penrose inverse of M^power, inverting nonzero eigenvalue
        clusters and zeroing the kernel cluster (same clustering threshold
        as the decomposition itself)."""
        n = sum(self.multiplicities)
        out = np.zeros((n, n))
        for lam, proj in zip(self.eigenvalues, self.projectors()):
            if lam != 0.0:
                out += proj / (lam**power)
        return out


@dataclass(frozen=True)
class ResidualReport:
    idempotence: float
    orthogonality: float
    completeness: float
    reconstruction: float
    trace_error: float

    def passed(self, eps: float = EPS_ALG) -> bool:
        return (
            max(self.idempotence, self.orthogonality, self.completeness, self.reconstruction) <= eps
            and self.trace_error <= eps
        )


def decompose(matrix: np.ndarray, quant: Quantization = DEFAULT_QUANT) -> SpectralDecomposition:
    """Eigendecomposition into distinct-eigenvalue clusters.

    Eigenvalues are sorted ascending and split into clusters wherever the
    gap exceeds tau = eig_gap_scale * max(1, max|M|); each cluster keeps
    its orthonormal eigenvectors, whose Gram matrix is its projector.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if matrix.size and np.max(np.abs(matrix - matrix.T)) != 0.0:
        raise ValueError("matrix must be exactly symmetric")
    n = matrix.shape[0]
    if n == 0:
        return SpectralDecomposition((), (), ())
    try:
        w, v = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigensolver failed: {exc}", matrix) from exc

    tau = quant.eig_gap_scale * max(1.0, float(np.max(np.abs(matrix))))
    clusters: list[list[int]] = [[0]]
    for i in range(1, n):
        if w[i] - w[i - 1] > tau:
            clusters.append([i])
        else:
            clusters[-1].append(i)

    eigenvalues = []
    mults = []
    blocks = []
    for idxs in clusters:
        lam = float(np.mean(w[idxs]))
        # snap the kernel cluster exactly to zero so pseudo-inverses are clean
        if abs(lam) <= tau:
            lam = 0.0
        # a copy, so that v itself is not kept
        block = v[:, idxs]
        block.flags.writeable = False
        eigenvalues.append(lam)
        mults.append(len(idxs))
        blocks.append(block)
    return SpectralDecomposition(tuple(eigenvalues), tuple(mults), tuple(blocks))


def validate_decomposition(dec: SpectralDecomposition, matrix: np.ndarray) -> ResidualReport:
    """Max residuals for idempotence, orthogonality, completeness,
    reconstruction, and trace-vs-multiplicity agreement."""
    n = matrix.shape[0]
    if dec.m == 0:
        return ResidualReport(0.0, 0.0, 0.0, 0.0, 0.0)
    projs = dec.projectors()
    idem = max(float(np.max(np.abs(p @ p - p))) for p in projs)
    orth = 0.0
    for i in range(dec.m):
        for j in range(i + 1, dec.m):
            orth = max(orth, float(np.max(np.abs(projs[i] @ projs[j]))))
    total = sum(projs)
    comp = float(np.max(np.abs(total - np.eye(n))))
    recon = sum(lam * p for lam, p in zip(dec.eigenvalues, projs))
    rec = float(np.max(np.abs(recon - matrix)))
    tr = max(abs(float(np.trace(p)) - mult) for p, mult in zip(projs, dec.multiplicities))
    return ResidualReport(idem, orth, comp, rec, tr)


# ---------------------------------------------------------------------------
# decompositions and codes, kept in ``Graph.derived``


def _decomp_key(kind: MatrixKind, quant: Quantization) -> tuple:
    # decompose reads the clustering scale, never the digits
    return ("decomp", kind, quant.eig_gap_scale)


def _codes_key(kind: MatrixKind, quant: Quantization) -> tuple:
    return ("codes", kind, quant)


class _DerivedView:
    """``(g, kind, quant) in view``: whether ``g.derived`` already holds
    what a call with these arguments computes.  perfbench's tracer asks
    ``_DECOMP_CACHE`` and ``_QPROJ_CACHE`` before each call to count
    misses."""

    def __init__(self, key):
        self.key = key

    def __contains__(self, args) -> bool:
        g, kind, quant = args
        return self.key(kind, quant) in g.derived


_DECOMP_CACHE = _DerivedView(_decomp_key)
_QPROJ_CACHE = _DerivedView(_codes_key)


def decomposition_for(
    g: Graph, kind: MatrixKind, quant: Quantization = DEFAULT_QUANT
) -> SpectralDecomposition:
    """Decomposition of the graph's matrix of the given kind, kept in
    ``g.derived`` per clustering scale.

    Concurrent first computation is benign: results are identical, so a
    duplicated fill is a wasted eigensolve, never an inconsistency.
    """
    key = _decomp_key(kind, quant)
    dec = g.derived.get(key)
    if dec is None:
        dec = g.derived[key] = decompose(build_matrix(g, kind), quant)
    return dec


def quantized_projections(
    g: Graph, kind: MatrixKind, quant: Quantization = DEFAULT_QUANT
) -> tuple[np.ndarray, np.ndarray]:
    """Decimal codes of the eigenvalues and projector entries.

    Returns (lams, codes): read-only arrays of shapes (m,) and (m, n, n),
    with codes[i, u, v] the code of P_i(u, v).  A code k stands for the
    decimal k / 10**digits, so ``_render_code(k, digits)`` is the
    ``quantize`` string and equal codes are equal strings.  Eigenvalue
    codes are int64.  Entry codes are int32 while 10**digits < 2**31
    (entries lie in [-1, 1], so up to 9 digits) and int64 past that.
    Raises ``ValueError`` when a code does not fit in 64 bits.
    """
    key = _codes_key(kind, quant)
    cached = g.derived.get(key)
    if cached is None:
        dec = decomposition_for(g, kind, quant)
        lams, lam_ties = _decimal_codes(np.asarray(dec.eigenvalues, float), quant.digits)
        width = np.int32 if quant.digits <= _INT32_DIGITS else np.int64
        projs = dec.projectors().ravel()
        entries = np.empty(len(projs), width)
        near_ties = lam_ties
        for a in range(0, len(projs), _QUANT_BLOCK):
            entries[a : a + _QUANT_BLOCK], ties = _decimal_codes(projs[a : a + _QUANT_BLOCK], quant.digits, width)
            near_ties += ties
        entries = entries.reshape(dec.m, g.n, g.n)
        lams.flags.writeable = entries.flags.writeable = False
        # "lam:" record prefixes of the pair tokens
        prefixes = tuple(f"{_render_code(lam, quant.digits)}:" for lam in lams.tolist())
        cached = g.derived[key] = (lams, entries, near_ties, prefixes)
    return cached[:2]


def near_ties(g: Graph, kind: MatrixKind, quant: Quantization = DEFAULT_QUANT) -> int:
    """How many of the m(1 + n^2) quantized eigenvalues and projector
    entries lie within ``NEAR_TIE`` of a rounding boundary, where float
    noise may pick the rounding direction."""
    quantized_projections(g, kind, quant)
    return g.derived[_codes_key(kind, quant)][2]


# ---------------------------------------------------------------------------
# decimal codes

# A value counts as a near tie when x * 10**digits lies within NEAR_TIE of
# a half-integer, i.e. within NEAR_TIE units of the last kept digit of a
# rounding boundary.
NEAR_TIE = 1e-6

# below 2**52 a float64 holds every half-integer; up to 10**22 the power
# of ten is a float64 too
_ROUNDS_EXACTLY = 2.0**52
_EXACT_POWERS = 22
_INT64 = 1 << 63
# 10**9 < 2**31 < 10**10, and projector entries lie in [-1, 1]
_INT32_DIGITS = 9
# Projector entries quantized at a time: ``_decimal_codes`` makes several
# float64 temporaries the size of its input, so quantizing the stacked
# projectors in blocks bounds them at a few MB whatever m n^2 is
_QUANT_BLOCK = 1 << 16
_SPLIT = 134217729.0  # 2**27 + 1


def _split(a):
    """Veltkamp split of a into two halves of at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _decimal_codes(values: np.ndarray, digits: int, dtype=np.int64) -> tuple[np.ndarray, int]:
    """(codes k with ``_render_code(k, digits) == quantize(x)``, number
    of near ties).  The codes are int64, or ``dtype`` where the caller
    knows that they fit in it.

    k is the half-even rounding of the exact x * 10**digits.  The float
    product p has an exact error e = x * 10**digits - p (Dekker's product),
    and below 2**52 rint(p) is that rounding unless p is itself a
    half-integer and e is not zero, which decides the side.  Past 2**52 or
    22 digits the code is read off ``format``.
    """
    x = np.asarray(values, dtype=float)
    scale = 10.0 ** min(digits, _EXACT_POWERS)
    with np.errstate(over="ignore", invalid="ignore"):
        p = x * scale
        codes = np.rint(p)
        off = 0.5 - np.abs(p - codes)  # distance to the nearest half-integer
        # on a half-integer p, the sign of the product's exact error picks the side
        tie = np.flatnonzero(off == 0)
        (xh, xl), (sh, sl) = _split(x[tie]), _split(scale)
        err = ((xh * sh - p[tie]) + xh * sl + xl * sh) + xl * sl
        codes[tie] = np.where(err == 0, codes[tie], p[tie] + np.copysign(0.5, err))
        slow = np.flatnonzero(~(np.abs(p) < _ROUNDS_EXACTLY) if digits <= _EXACT_POWERS else x)
        codes[slow] = 0
        codes = codes.astype(dtype)
    for i in slow.tolist():
        codes[i] = _format_code(float(x[i]), digits)
    return codes, int(np.count_nonzero(off <= NEAR_TIE))


def _format_code(x: float, digits: int) -> int:
    """The code of a nonzero x read off its ``format`` string;
    ``ValueError`` when it does not fit in 64 bits."""
    # past 1000 digits even the smallest float has a code of hundreds of digits
    text = format(x, f".{digits}f").replace(".", "") if digits <= 1000 else "9" * 20
    if len(text.lstrip("-").lstrip("0")) > 19 or not -_INT64 <= int(text) < _INT64:
        raise ValueError(f"{x!r} at {digits} digits does not fit in a 64-bit decimal code; use fewer digits")
    return int(text)


def _int64_codes(codes: list[int], digits: int) -> np.ndarray:
    """A list of Python-int codes (``exact.round_code``) as an int64 array;
    ``ValueError`` when one does not fit in 64 bits."""
    try:
        return np.array(codes, np.int64)
    except OverflowError:
        wide = _render_code(max(codes, key=abs), digits)
        raise ValueError(f"{wide} at {digits} digits does not fit in a 64-bit decimal code; use fewer digits") from None


def _render_code(code: int, digits: int) -> str:
    """The decimal string of a code: ``quantize(x) == _render_code(k, digits)``
    for the code k of x."""
    if not digits:
        return str(code)
    if code < 0:
        text = str(-code).zfill(digits + 1)
        return f"-{text[:-digits]}.{text[-digits:]}"
    text = str(code).zfill(digits + 1)
    return f"{text[:-digits]}.{text[-digits:]}"


# ---------------------------------------------------------------------------
# canonical tokens


@dataclass(frozen=True)
class PairToken:
    """Canonical byte encoding of the multiset {(lambda_i, P_i(u, v))}."""

    data: bytes

    @property
    def digest(self) -> str:
        return hashlib.blake2b(self.data, digest_size=16).hexdigest()

    def __repr__(self):
        return f"PairToken({self.data.decode()})"


@dataclass(frozen=True)
class SpectrumToken:
    """Canonical byte encoding of the eigenvalue multiset (with multiplicities)."""

    data: bytes

    @property
    def digest(self) -> str:
        return hashlib.blake2b(self.data, digest_size=16).hexdigest()

    def __repr__(self):
        return f"SpectrumToken({self.data.decode()})"


def pair_token(
    g: Graph, kind: MatrixKind, u: int, v: int, quant: Quantization = DEFAULT_QUANT
) -> PairToken:
    """Projection pair invariant of (u, v) as a canonical token."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise IndexError(f"vertex pair ({u}, {v}) out of range")
    _, codes = quantized_projections(g, kind, quant)
    prefixes, d = g.derived[_codes_key(kind, quant)][3], quant.digits
    records = sorted([lam + _render_code(ent, d) for lam, ent in zip(prefixes, codes[:, u, v].tolist())])
    return PairToken(f"P[{kind.value}]" .encode() + ";".join(records).encode())


def spectrum_token(g: Graph, kind: MatrixKind, quant: Quantization = DEFAULT_QUANT) -> SpectrumToken:
    """Eigenvalue multiset of the graph's matrix as a canonical token."""
    dec = decomposition_for(g, kind, quant)
    lams, _ = _decimal_codes(np.asarray(dec.eigenvalues, float), quant.digits)
    records = sorted(
        f"{_render_code(lam, quant.digits)}x{mult}" for lam, mult in zip(lams.tolist(), dec.multiplicities)
    )
    return SpectrumToken(f"S[{kind.value}]".encode() + ";".join(records).encode())


# ---------------------------------------------------------------------------
# exact rational backend


@dataclass(frozen=True)
class ExactPairToken:
    """Exact certificate for pair-invariant equality.

    Holds the rational characteristic polynomial and the moment sequence
    (M^k(u, v) for k = 0..n-1); for the normalized Laplacian the matrix
    is D^{-1} L (similar to L-hat, hence the same characteristic
    polynomial) together with the endpoint degrees, since
    Lhat^k(u, v) = sqrt(deg u) (D^{-1} L)^k(u, v) / sqrt(deg v).

    Equality of tokens implies equality of the float pair invariants.
    The converse holds for adjacency/Laplacian kinds within one spectrum;
    for the normalized Laplacian the token is sufficient-only.
    """

    kind: str
    charpoly: tuple[Fraction, ...]
    moments: tuple[Fraction, ...]
    degrees: Optional[tuple[int, int]] = None

    def serialize(self) -> bytes:
        deg = "" if self.degrees is None else f"|d={self.degrees[0]},{self.degrees[1]}"
        cp = ",".join(str(c) for c in self.charpoly)
        mo = ",".join(str(c) for c in self.moments)
        return f"X[{self.kind}]cp={cp}|m={mo}{deg}".encode()

    @property
    def digest(self) -> str:
        return hashlib.blake2b(self.serialize(), digest_size=16).hexdigest()


def _exact_data(g: Graph, kind: MatrixKind):
    """(charpoly, scale, [M^0, ..., M^{n-1}]) of the integer matrix M with
    M / scale the exact matrix of the kind: the powers from the table of
    ``exact.powers``, and the charpoly, in Fractions, from their traces,
    kept in ``g.derived``.  (M / scale)^k is M^k / scale**k, its powers
    stay integers."""
    n = g.n
    scale, powers = exact.powers(g, kind, n - 1)
    key = ("charpoly", kind)
    cp = g.derived.get(key)
    if cp is None:
        mat = exact.powers(g, kind, 1)[1][1]
        # tr(M^n) = sum over (u, v) of M^{n-1}(u, v) M(v, u): M^n is never built
        traces = [sum(p[i][i] for i in range(n)) for p in powers[1:]]
        traces.append(sum(map(mul, chain.from_iterable(powers[-1]), chain.from_iterable(zip(*mat)))))
        cp = g.derived[key] = tuple(Fraction(c, scale**k) for k, c in enumerate(exact.charpoly(traces)))
    return cp, scale, powers


def exact_pair_token(g: Graph, kind: MatrixKind, u: int, v: int) -> ExactPairToken:
    """Exact rational token for the pair invariant of (u, v)."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise IndexError(f"vertex pair ({u}, {v}) out of range")
    if kind is MatrixKind.DEGREE:
        raise ValueError("exact backend covers adjacency, Laplacian, and normalized Laplacian")
    cp, scale, powers = _exact_data(g, kind)
    moments = tuple(Fraction(p[u][v], scale**k) for k, p in enumerate(powers))
    degrees = None
    if kind is MatrixKind.NORMALIZED_LAPLACIAN:
        degrees = (g.degree(u), g.degree(v))
    return ExactPairToken(kind.value, cp, moments, degrees)


# ---------------------------------------------------------------------------
# inspection dump


def dump_decomposition(g: Graph, kind: MatrixKind, quant: Quantization = DEFAULT_QUANT) -> str:
    """JSON record of the decomposition with 17-significant-digit floats."""
    dec = decomposition_for(g, kind, quant)
    record = {
        "kind": kind.value,
        "eigenvalues": [float(format(x, ".17g")) for x in dec.eigenvalues],
        "multiplicities": list(dec.multiplicities),
        "projections": [
            [[float(format(p[i, j], ".17g")) for j in range(g.n)] for i in range(g.n)]
            for p in dec.projectors()
        ],
    }
    return json.dumps(record, sort_keys=True)
