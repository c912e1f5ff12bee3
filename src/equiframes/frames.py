"""Unimodular simplices, Steiner and Tremain frames, and exact certification.

A frame is its row-graded integer planes: entry (r, j) is
s_r * sum_a X[a, r, j] zeta_m^a / 2^k, with one surd s_r in {1, sqrt2,
sqrt3, sqrt6} per row (row weight w_r = s_r^2), integer planes X of shape
(phi(m), M, N) in the power basis, and one power of two.  The builders
fill X by indexing a table of root-of-unity coefficients with the Hadamard
exponent tables; the .etf reader and writer convert between planes and
per-entry (a|b|c|d|k) tokens.  Frames are stored unscaled: every vector of
a Tremain frame has squared norm R + 2 and distinct vectors meet in a
unimodular inner product, so the coherence of the unit-normalized family
is 1/(R + 2), the Welch bound for these dimensions.  Verification
recomputes the Gram matrix and frame operator from the planes; it never
trusts the construction.

Exact verification runs one kernel for real and complex frames: Gram
entries are sum_{a,b} X_a^T diag(w) X_b zeta_m^(a-b) / 4^k, BLAS products
summed in cyclic slots (a - b) mod m, reduced modulo Phi_m, with
no surd left.  The products run in float32 when an a-priori bound on every
slot sum is below 2^24 and in float64 below 2^52; past that the kernel
raises ValueError.  The Gram is never held whole: one pass per frame walks
its upper triangle in row tiles, checks norms and moduli tile by tile and
keeps one small integer per pair, the phase e with Gram(i, j) a positive
rational multiple of zeta_(m')^e, m' = lcm(2, m) (-1 when there is none).
Real frames compare |Gram| directly; complex ones compare |Gram|^2, the
same slot products taken elementwise in int64.  The frame operator and the
flat functional's inner products are slot products too.  gram_matrix
recomputes the Gram in ExtScalar arithmetic, as the tests' independent
reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, pi
from pathlib import Path

import numpy as np

from equiframes.designs import EmbeddingAssignment, SteinerTripleSystem
from equiframes.hadamard import ButsonMatrix
from equiframes.scalar import (
    _SQRT2_F,
    _SQRT3_F,
    _SQRT6_F,
    CycInt,
    ExtScalar,
    _unit_roots,
    cyclotomic_poly,
)


@dataclass(frozen=True)
class UnimodularSimplex:
    """Columns of a Hadamard matrix with one row removed.

    The removed row is kept as the Naimark complement: its entries a_i
    satisfy <phi_i, phi_j> + a_i * conj(a_j) = n [i = j].
    """

    entries: tuple[tuple[ExtScalar, ...], ...]  # (n-1) rows x n columns
    naimark: tuple[ExtScalar, ...]
    source: ButsonMatrix
    removed_row: int

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def count(self) -> int:
        return len(self.naimark)


def simplex_from_hadamard(h: ButsonMatrix, row: int) -> UnimodularSimplex:
    """Delete one row of a (verified) Hadamard matrix; keep it as complement."""
    if row < 0 or row >= h.order:
        raise ValueError(f"row {row} out of range for order {h.order}")
    table = h.value_table
    entries = tuple(
        tuple(table[e] for e in h.exponents[i])
        for i in range(h.order)
        if i != row
    )
    naimark = tuple(table[e] for e in h.exponents[row])
    return UnimodularSimplex(entries, naimark, h, row)


def naimark_residuals(sim: UnimodularSimplex) -> list[tuple[int, int]]:
    """Pairs (i, j) violating the complement identity; empty when exact."""
    n = sim.count
    bad = []
    for i in range(n):
        for j in range(n):
            total = sim.naimark[i] * sim.naimark[j].conjugate()
            for row in sim.entries:
                total = total + row[i] * row[j].conjugate()
            expect = ExtScalar.from_int(n if i == j else 0)
            if total != expect:
                bad.append((i, j))
    return bad


@dataclass(frozen=True)
class WelchBound:
    squared: Fraction
    value: float


def welch_bound(m: int, n: int) -> WelchBound:
    """Lower bound on the coherence of n unit vectors in dimension m."""
    if not (1 <= m < n):
        raise ValueError(f"need N > M >= 1, got M={m}, N={n}")
    sq = Fraction(n - m, m * (n - 1))
    return WelchBound(sq, float(sq) ** 0.5)


def tremain_params(v: int | None = None, h: int | None = None) -> tuple[int, int]:
    """(dimension, vector count) for the complex (by V) or real (by h) family."""
    if (v is None) == (h is None):
        raise ValueError("give exactly one of v, h")
    if v is not None:
        if v < 3 or v % 6 not in (1, 3):
            raise ValueError(f"V must be 1 or 3 (mod 6) and >= 3, got {v}")
        return (v + 2) * (v + 3) // 6, (v + 1) * (v + 2) // 2
    if h < 1 or h % 3 == 0:
        raise ValueError(f"h must be 1 or 2 (mod 3) and >= 1, got {h}")
    return (h + 1) * (2 * h + 1) // 3, h * (2 * h + 1)


@dataclass(frozen=True)
class SteinerProvenance:
    sts: SteinerTripleSystem
    embedding: EmbeddingAssignment
    simplex: UnimodularSimplex


@dataclass(frozen=True)
class TremainProvenance:
    sts: SteinerTripleSystem
    embedding: EmbeddingAssignment
    sim_r: UnimodularSimplex  # R+1 vectors in dimension R
    sim_v: UnimodularSimplex  # V+1 vectors in dimension V


@dataclass(frozen=True, eq=False)
class FrameMatrix:
    """A frame as row-graded integer planes with labelled coordinate bands.

    Entry (r, j) is sqrt(weights[r]) * sum_a planes[a, r, j] zeta_m^a / 2^k:
    one surd per row, a cyclotomic integer per entry, one common power of
    two.  Rows split into block coordinates, point coordinates and one
    optional extra coordinate (Tremain frames use all three bands; Steiner
    frames only the first).  The arrays are read-only.
    """

    planes: np.ndarray  # (phi(m), M, N) float64 holding integers
    weights: np.ndarray  # (M,) int64, each one of _SURD_WEIGHTS
    k: int
    order: int
    block_rows: int
    point_rows: int
    extra_rows: int
    provenance: SteinerProvenance | TremainProvenance | None = None

    def __post_init__(self) -> None:
        planes = np.array(self.planes, dtype=np.float64)
        weights = np.array(self.weights, dtype=np.int64)
        phi = len(cyclotomic_poly(self.order)) - 1
        if planes.ndim != 3 or len(planes) != phi:
            raise ValueError(f"order {self.order} needs {phi} planes, got shape {planes.shape}")
        if weights.shape != planes.shape[1:2] or not np.isin(weights, _SURD_WEIGHTS).all():
            raise ValueError(f"need one row weight from {_SURD_WEIGHTS} per row")
        if self.k < 0:
            raise ValueError(f"denominator exponent k={self.k} is negative")
        bands = (self.block_rows, self.point_rows, self.extra_rows)
        if min(bands) < 0 or sum(bands) != planes.shape[1]:
            raise ValueError(f"bands {bands} do not split M={planes.shape[1]} rows")
        planes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.planes.shape[1]

    @property
    def count(self) -> int:
        return self.planes.shape[2]

    def is_real_rational(self) -> bool:
        """True when every entry lives in Z[sqrt2, sqrt3]/2^k (no roots)."""
        return len(self.planes) == 1

    def entry(self, r: int, j: int) -> ExtScalar:
        """Entry (r, j) as an ExtScalar, for reference arithmetic."""
        parts = [CycInt.from_int(0, self.order)] * 4
        parts[_SURD_WEIGHTS.index(int(self.weights[r]))] = CycInt(
            self.order, [int(c) for c in self.planes[:, r, j]])
        return ExtScalar(*parts, k=self.k)

    @cached_property
    def gram_pass(self) -> GramPass:
        """The one streaming pass over the exact Gram, made on first use."""
        return _gram_pass(self)

    def to_complex_array(self) -> np.ndarray:
        """Entries as complex128, rounded exactly as ExtScalar.to_complex rounds."""
        roots = _unit_roots(self.order)
        # ascending powers from +0.0, as CycInt.to_complex sums: no -0.0 appears
        out = np.zeros(self.planes.shape[1:], dtype=np.complex128)
        for a, p in enumerate(self.planes):
            out += p * roots[a]
        surd = np.take(_SURD_FLOATS, np.searchsorted(_SURD_WEIGHTS, self.weights))
        return out * surd[:, None] * 0.5 ** self.k


def _root_table(q: int, order: int) -> np.ndarray:
    """(q, phi(order)) power-basis coefficients of zeta_q^e at the given order."""
    return np.array([CycInt.root(order, e * (order // q)).coeffs for e in range(q)],
                    dtype=np.float64)


def _simplex_exponents(sim: UnimodularSimplex) -> tuple[np.ndarray, np.ndarray]:
    """Root exponents of the simplex rows (dim, count) and of its complement."""
    e = np.array(sim.source.exponents)
    return np.delete(e, sim.removed_row, axis=0), e[sim.removed_row]


def _embed_blocks(planes: np.ndarray, table: np.ndarray, emb: EmbeddingAssignment,
                  exps: np.ndarray) -> None:
    """Simplex vector s at point v is column v(R+1)+s; coordinate pos goes to
    block row emb.orders[v][pos]."""
    r = exps.shape[0]
    rows = np.array(emb.orders)[:, :, None]
    cols = np.arange(len(emb.orders))[:, None, None] * (r + 1) + np.arange(r + 1)
    planes[:, rows, cols] = np.moveaxis(table[exps], -1, 0)[:, None]


def steiner_etf(
    sts: SteinerTripleSystem,
    emb: EmbeddingAssignment,
    sim: UnimodularSimplex,
) -> FrameMatrix:
    """Embed each simplex vector at each point: B x V(R+1) frame."""
    r = sts.replication
    if sim.dim != r or sim.count != r + 1:
        raise ValueError(
            f"need a simplex of {r + 1} vectors in dimension {r}, "
            f"got {sim.count} in dimension {sim.dim}"
        )
    if emb.sts is not sts and emb.sts != sts:
        raise ValueError("embedding belongs to a different system")
    q = sim.source.root_order
    table = _root_table(q, q)
    b = sts.block_count
    planes = np.zeros((table.shape[1], b, sts.num_points * (r + 1)))
    _embed_blocks(planes, table, emb, _simplex_exponents(sim)[0])
    return FrameMatrix(
        planes,
        np.ones(b, dtype=np.int64),
        0,
        q,
        block_rows=b,
        point_rows=0,
        extra_rows=0,
        provenance=SteinerProvenance(sts, emb, sim),
    )


def tremain_etf(
    sts: SteinerTripleSystem,
    emb: EmbeddingAssignment,
    sim_r: UnimodularSimplex,
    sim_v: UnimodularSimplex,
) -> FrameMatrix:
    """Combine an embedded simplex family with a point-space simplex.

    Columns come in two kinds: for each point v and simplex index s, the
    embedded vector with a sqrt(2)-weighted complement entry at point row v;
    then V+1 columns carrying the point-space simplex at weight sqrt(1/2)
    with a sqrt(3/2)-weighted complement entry in the last row.  At the
    common denominator 2^1 the first kind's coefficients are doubled.
    """
    r, v_pts = sts.replication, sts.num_points
    if sim_r.dim != r or sim_r.count != r + 1:
        raise ValueError(f"first simplex must be {r + 1} vectors in dimension {r}")
    if sim_v.dim != v_pts or sim_v.count != v_pts + 1:
        raise ValueError(
            f"second simplex must be {v_pts + 1} vectors in dimension {v_pts}"
        )
    q1 = sim_r.source.root_order
    q2 = sim_v.source.root_order
    order = q1 * q2 // gcd(q1, q2)
    t1 = 2 * _root_table(q1, order)
    t2 = _root_table(q2, order)
    b = sts.block_count
    m = b + v_pts + 1
    first = v_pts * (r + 1)
    planes = np.zeros((t1.shape[1], m, first + v_pts + 1))
    points = b + np.arange(v_pts)

    e1, naimark1 = _simplex_exponents(sim_r)
    _embed_blocks(planes, t1, emb, e1)
    planes[:, points[:, None], np.arange(first).reshape(v_pts, r + 1)] = t1[naimark1].T[:, None]

    e2, naimark2 = _simplex_exponents(sim_v)
    planes[:, points, first:] = np.moveaxis(t2[e2], -1, 0)
    planes[:, m - 1, first:] = t2[naimark2].T

    return FrameMatrix(
        planes,
        np.repeat([1, 2, 6], [b, v_pts, 1]),
        1,
        order,
        block_rows=b,
        point_rows=v_pts,
        extra_rows=1,
        provenance=TremainProvenance(sts, emb, sim_r, sim_v),
    )


def gram_matrix(frame: FrameMatrix) -> list[list[ExtScalar]]:
    """Exact Gram by ExtScalar column dot products: the kernel's test oracle."""
    support = frame.planes.any(axis=0)
    cols = [
        {r: frame.entry(r, j) for r in np.flatnonzero(support[:, j]).tolist()}
        for j in range(frame.count)
    ]
    conj = [{r: x.conjugate() for r, x in col.items()} for col in cols]
    zero = ExtScalar.from_int(0, frame.order)
    n = frame.count
    g = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            total = zero
            for r in cols[i].keys() & cols[j].keys():
                total = total + cols[i][r] * conj[j][r]
            g[i][j] = total
            if i != j:
                g[j][i] = total.conjugate()
    return g


# ---------------------------------------------------------------------------
# exact kernel: row-graded integer planes, products in cyclic slots

_SURD_WEIGHTS = (1, 2, 3, 6)  # squares of the ExtScalar surds 1, sqrt2, sqrt3, sqrt6
_SURD_FLOATS = (1.0, _SQRT2_F, _SQRT3_F, _SQRT6_F)
_EXACT_LIMIT = 2 ** 52  # float64 holds every integer below 2^53
_FLOAT32_LIMIT = 2 ** 24  # float32 holds every integer up to 2^24
_GUARD_NOTE = "float64 would round the sums, so the exact kernel refuses"
_GRAM_TILE = 256  # Gram rows per tile of the streaming pass


def _cyclic_product(left, right, m: int, mul, bound: float, what: str) -> np.ndarray:
    """Power-basis coefficients of sum_{a,b} mul(left[a], right[b]) zeta_m^(a-b).

    Products accumulate one cyclic slot (a - b) mod m at a time, in float
    for BLAS matmuls or in int64; ``bound`` caps every partial sum, so below
    2^52 (2^24 for float32 operands) every float sum is an exact integer.
    Each slot is folded into the phi(m) output planes, reduced modulo Phi_m,
    as soon as it is summed.
    """
    if not bound < _EXACT_LIMIT:
        raise ValueError(f"{what} slot sums may reach {bound:.4g} >= 2^52; {_GUARD_NOTE}")
    out = None
    for d in range(m):
        slot = None
        for a, x in enumerate(left):
            b = (a - d) % m
            if b < len(right):
                if slot is None:
                    slot = mul(x, right[b])
                else:
                    slot += mul(x, right[b])
        if slot is None:
            continue
        if d == 0:  # zeta^0 = 1: the slot is the constant plane
            out = np.zeros((len(left), *slot.shape), dtype=np.int64)
            out[0] = slot
            continue
        slot = slot.astype(np.int64, copy=False)
        for c, coef in enumerate(CycInt.root(m, d).coeffs):
            if coef:
                out[c] += slot if coef == 1 else coef * slot
    return out


def _abs_sum(planes: np.ndarray) -> np.ndarray:
    """sum_a |X_a| entrywise, (M, N), up to sign: its squares bound the slot sums."""
    if len(planes) == 1:
        return planes[0]
    total = np.abs(planes[0])
    for p in planes[1:]:
        total += np.abs(p)
    return total


def _exact_float(planes: np.ndarray, bound: float) -> np.ndarray:
    """The planes in float32 when ``bound`` keeps products exact there, else float64."""
    return planes.astype(np.float32 if bound < _FLOAT32_LIMIT else np.float64, copy=False)


def _gram_tiles(frame: FrameMatrix, tile: int = _GRAM_TILE):
    """Yield (s, G) for the row tiles of the Gram's upper triangle.

    G holds the power-basis coefficients, at scale 4^k, of the Gram entries
    in rows s:s+tile and columns s:N, shape (phi(m), rows, N - s).
    """
    t = _abs_sum(frame.planes)
    bound = float(np.einsum("r,rj,rj->j", frame.weights, t, t).max(initial=0))
    del t
    x = _exact_float(frame.planes, bound)
    w = frame.weights[:, None].astype(x.dtype)
    for s in range(0, frame.count, tile):
        yield s, _cyclic_product([(p[:, s:s + tile] * w).T for p in x], [p[:, s:] for p in x],
                                 frame.order, np.matmul, bound, "Gram")


def _phase_roots(m: int) -> np.ndarray:
    """(m', phi(m)) power-basis coefficients of zeta_(m')^e, m' = lcm(2, m)."""
    if m % 2:  # zeta_(2m) = -zeta_m^((m+1)/2)
        return np.array([CycInt.root(m, e * (m + 1) // 2 % m).coeffs for e in range(2 * m)],
                        dtype=np.int64) * np.where(np.arange(2 * m) % 2, -1, 1)[:, None]
    return np.array([CycInt.root(m, e).coeffs for e in range(m)], dtype=np.int64)


def _tile_phase(g: np.ndarray, m: int) -> np.ndarray:
    """Per entry the e with g a positive rational multiple of zeta_(m')^e, else -1."""
    if len(g) == 1:  # real: 0 positive, 1 negative, -1 zero
        phase = (g[0] < 0).astype(np.int8)
        phase[g[0] == 0] = -1
        return phase
    m2 = lcm(2, m)
    # the angle of the float value names the only candidate; integers confirm it
    z = np.zeros(g.shape[1:], dtype=np.complex128)
    for root, coeffs in zip(_unit_roots(m), g):
        z += coeffs * root
    e = np.rint(np.angle(z) * (m2 / (2 * pi))).astype(np.int64) % m2
    roots = _phase_roots(m)
    pivot = (roots != 0).argmax(axis=1)  # first nonzero coefficient of each root
    r_piv = roots[np.arange(m2), pivot][e]
    g_piv = np.take_along_axis(g, pivot[e][None], axis=0)[0]
    ok = g_piv * r_piv > 0
    for c, coeffs in enumerate(g):
        ok &= coeffs * r_piv == roots[:, c][e] * g_piv
    return np.where(ok, e, -1).astype(_phase_dtype(m))


def _phase_dtype(m: int):
    return np.int8 if lcm(2, m) < 128 else np.int16


@dataclass(frozen=True, eq=False)
class GramPass:
    """What one streaming pass over a frame's exact Gram keeps.

    ``phase[i, j]`` is the e for which Gram(i, j) is a positive rational
    multiple of zeta_(m')^e, m' = lcm(2, m), or -1 (a zero entry, say); for
    a real frame 0 is positive and 1 negative.  ``norm`` and ``abs_sq`` are
    the power-basis coefficients of Gram(0, 0) at scale 4^k and of
    |Gram(0, 1)|^2 at scale 16^k.  The witnesses name the first column
    whose norm differs from column 0's and the first pair (i, j), i < j in
    row-major order, whose modulus differs from that of pair (0, 1).
    """

    phase: np.ndarray  # (N, N) int8 (int16 past m' = 127), read-only
    norm: tuple[int, ...]
    abs_sq: tuple[int, ...]
    norm_witness: int | None
    pair_witness: tuple[int, int] | None


def _gram_pass(frame: FrameMatrix, tile: int = _GRAM_TILE) -> GramPass:
    """Walk the Gram's upper triangle in row tiles; keep only what GramPass holds."""
    n, m = frame.count, frame.order
    welch_bound(frame.dim, n)  # reject degenerate shapes before any array work
    real = len(frame.planes) == 1
    m2 = lcm(2, m)
    phase = np.empty((n, n), dtype=_phase_dtype(m))
    norm = ref = norm_at = pair_at = None
    for s, g in _gram_tiles(frame, tile):
        e = s + g.shape[1]
        rows = np.arange(e - s)
        if s == 0:
            norm = g[:, 0, 0].copy()
        if real:  # |g| against |g_01| unsquared: a square could leave int64
            ref = abs(int(g[0, 0, 1])) if ref is None else ref
            pairs = (g[0] != ref) & (g[0] != -ref)
        else:
            mod = _cyclic_product(g, g, m, np.multiply,
                                  sum(max(-int(p.min()), int(p.max())) for p in g) ** 2,
                                  "|Gram|^2")
            ref = mod[:, 0, 1].copy() if ref is None else ref
            pairs = (mod != ref[:, None, None]).any(axis=0)
            del mod
        differs = (g[:, rows, rows] != norm[:, None]).any(axis=0)
        if norm_at is None and differs.any():
            norm_at = s + int(differs.argmax())
        pairs &= np.arange(s, n) > np.arange(s, e)[:, None]
        if pair_at is None and pairs.any():
            i, j = np.unravel_index(pairs.argmax(), pairs.shape)
            pair_at = (s + int(i), s + int(j))
        tile_phase = _tile_phase(g, m)
        phase[s:e, s:] = tile_phase
        if m2 != 2:  # conj(zeta^e) = zeta^(-e)
            tile_phase = np.where(tile_phase >= 0, -tile_phase % m2, -1)
        phase[s:, s:e] = tile_phase.T
        del g  # before the next tile is made
    abs_sq = (ref * ref,) if real else tuple(int(c) for c in ref)
    phase.flags.writeable = False
    return GramPass(phase, tuple(int(c) for c in norm), abs_sq, norm_at, pair_at)


def _rational(coeffs, scale: int) -> Fraction | None:
    """Value of power-basis coefficients over ``scale`` when it is rational."""
    return None if any(coeffs[1:]) else Fraction(int(coeffs[0]), scale)


def real_gram_signs(frame: FrameMatrix) -> np.ndarray:
    """Sign matrix (int8, zero diagonal) of a real frame's exact Gram.

    Read from the phases of the frame's Gram pass.  Requires every
    off-diagonal Gram value to be nonzero, which holds for real Steiner and
    Tremain frames.
    """
    if not frame.is_real_rational():
        raise ValueError("frame has genuine root-of-unity entries")
    phase = frame.gram_pass.phase
    vanish = phase < 0
    np.fill_diagonal(vanish, False)
    if vanish.any():
        raise ValueError("some off-diagonal Gram values vanish")
    del vanish
    signs = phase * np.int8(-2)  # phase 0 -> +1, phase 1 -> -1
    signs += 1
    np.fill_diagonal(signs, 0)
    return signs


@dataclass(frozen=True)
class ETFReport:
    mode: str
    dim: int
    count: int
    equal_norms: bool
    norm_sq: Fraction | None
    is_tight: bool
    tight_constant: Fraction | None
    is_equiangular: bool
    gram_abs_sq: Fraction | None
    coherence_sq: Fraction | None
    coherence: float | None
    welch_sq: Fraction
    welch: float
    is_etf: bool
    meets_welch: bool
    max_residual: float | None = None
    witness: str | None = None

    def to_dict(self) -> dict:
        def frac(x):
            return None if x is None else [x.numerator, x.denominator]

        return {
            "mode": self.mode,
            "M": self.dim,
            "N": self.count,
            "equal_norms": self.equal_norms,
            "norm_sq": frac(self.norm_sq),
            "is_tight": self.is_tight,
            "tight_constant": frac(self.tight_constant),
            "is_equiangular": self.is_equiangular,
            "gram_abs_sq": frac(self.gram_abs_sq),
            "coherence_sq": frac(self.coherence_sq),
            "coherence": self.coherence,
            "welch_sq": frac(self.welch_sq),
            "welch": self.welch,
            "is_etf": self.is_etf,
            "meets_welch": self.meets_welch,
            "max_residual": self.max_residual,
            "witness": self.witness,
        }


def _report(
    frame: FrameMatrix,
    mode: str,
    equal_norms: bool,
    norm_sq: Fraction | None,
    is_tight: bool,
    is_equiangular: bool,
    gram_abs_sq: Fraction | None,
    max_residual: float | None = None,
    witness: str | None = None,
) -> ETFReport:
    m, n = frame.dim, frame.count
    wb = welch_bound(m, n)
    tight_constant = None
    if is_tight and norm_sq is not None:
        tight_constant = Fraction(n, m) * norm_sq
    coherence_sq = None
    coherence = None
    if equal_norms and norm_sq and gram_abs_sq is not None:
        coherence_sq = gram_abs_sq / (norm_sq * norm_sq)
        coherence = float(coherence_sq) ** 0.5
    is_etf = is_tight and is_equiangular
    meets = coherence_sq == wb.squared if coherence_sq is not None else False
    return ETFReport(
        mode, m, n, equal_norms, norm_sq, is_tight, tight_constant,
        is_equiangular, gram_abs_sq, coherence_sq, coherence,
        wb.squared, wb.value, is_etf, meets, max_residual, witness,
    )


def _verify_exact(frame: FrameMatrix) -> ETFReport:
    m, n = frame.dim, frame.count
    gp = frame.gram_pass
    scale = 1 << (2 * frame.k)
    witness = None

    norm0 = gp.norm
    equal_norms = gp.norm_witness is None
    if not equal_norms:
        witness = f"norms differ at columns 0 and {gp.norm_witness}"
    norm_frac = _rational(norm0, scale)

    is_equi = gp.pair_witness is None
    gram_abs = None
    if is_equi:
        gram_abs = _rational(gp.abs_sq, scale * scale)
    else:
        i, j = gp.pair_witness
        witness = witness or f"|Gram| differs at pair (0,1) vs ({i},{j})"

    is_tight = equal_norms
    if is_tight:
        t = _abs_sum(frame.planes)
        bound = float(np.einsum("rj,rj->r", t, t).max(initial=0))
        del t
        x = _exact_float(frame.planes, bound)
        fo = _cyclic_product(x, [p.T for p in x], frame.order, np.matmul, bound,
                             "frame operator")
        # M * w_r * fo[r, r] == N * norm, compared in Python integers
        target = [n * int(c) for c in norm0]
        bad = fo.any(axis=0)
        for r, (w, diag) in enumerate(zip(frame.weights.tolist(),
                                          fo[:, range(m), range(m)].T.tolist())):
            bad[r, r] = [m * w * c for c in diag] != target
        bad = np.triu(bad)
        if bad.any():
            is_tight = False
            r, s = np.unravel_index(bad.argmax(), bad.shape)
            witness = witness or (
                f"frame operator diagonal off at {r}" if r == s
                else f"frame operator off-diagonal ({r},{s})"
            )

    return _report(
        frame, "exact", equal_norms, norm_frac, is_tight, is_equi, gram_abs,
        witness=witness,
    )


def _verify_float(frame: FrameMatrix, tol: float) -> ETFReport:
    a = frame.to_complex_array()
    n, m = frame.count, frame.dim
    g = a.conj().T @ a
    norms = g.diagonal().real
    norm_mean = norms.mean()
    dev_norms = np.abs(norms - norm_mean)
    res_norms = float(dev_norms.max())
    off = ~np.eye(n, dtype=bool)
    mods = np.abs(g)
    mod_mean = mods[off].mean()
    dev_equi = np.where(off, np.abs(mods - mod_mean), 0)
    res_equi = float(dev_equi.max())
    fo = a @ a.conj().T
    const = n * norm_mean / m
    dev_tight = np.abs(fo - const * np.eye(m))
    res_tight = float(dev_tight.max())
    max_res = max(res_norms, res_equi, res_tight)
    equal_norms = res_norms <= tol
    is_equi = res_equi <= tol
    is_tight = res_tight <= tol and equal_norms
    witness = None
    if not equal_norms:
        witness = f"norm of column {int(dev_norms.argmax())} off the mean by {res_norms:.3g}"
    elif not is_equi:
        i, j = np.unravel_index(dev_equi.argmax(), dev_equi.shape)
        witness = f"|Gram| at pair ({i},{j}) off the mean by {res_equi:.3g}"
    elif not is_tight:
        r, s = np.unravel_index(dev_tight.argmax(), dev_tight.shape)
        witness = f"frame operator off a multiple of the identity at ({r},{s}) by {res_tight:.3g}"
    norm_frac = Fraction(round(norm_mean)) if abs(norm_mean - round(norm_mean)) < tol else None
    gram_sq = mod_mean * mod_mean
    gram_frac = None
    if gram_sq and abs(gram_sq - round(gram_sq)) < max(tol, 1e-8):
        gram_frac = Fraction(round(gram_sq))
    return _report(
        frame, "float", equal_norms, norm_frac, is_tight, is_equi, gram_frac,
        max_residual=max_res, witness=witness,
    )


def verify_etf(frame: FrameMatrix, mode: str = "exact", tol: float = 1e-10) -> ETFReport:
    """Certify equal norms, tightness, and equiangularity of a frame.

    Exact mode reads the frame's one Gram pass (norms, moduli, phases; made
    on first use and cached on the frame) and computes the frame operator
    with the exact kernel; float mode does the same numerically under
    ``tol``.
    """
    if mode == "float":
        return _verify_float(frame, tol)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    return _verify_exact(frame)


# ---------------------------------------------------------------------------
# file formats


def store_frame_exact(path: str | Path, frame: FrameMatrix) -> None:
    """Header `M N m`, band sizes, then entries as (a|b|c|d|k) tuples.

    Each entry is written in ExtScalar's canonical form: only the part of
    its row's surd is nonzero, and its own k is as small as it goes, so some
    coefficient is odd unless k = 0 (a zero entry has k = 0).
    """
    c = frame.planes.astype(np.int64)
    halvings = np.zeros(c.shape[1:], dtype=np.int64)
    even = c.any(axis=0)
    for _ in range(frame.k):
        even &= (c % 2 == 0).all(axis=0)
        if not even.any():
            break
        c[:, even] //= 2
        halvings += even
    surd = np.broadcast_to(np.searchsorted(_SURD_WEIGHTS, frame.weights)[:, None], halvings.shape)
    keys = np.concatenate([surd[None], halvings[None], c]).reshape(len(c) + 2, -1).T
    distinct, inverse = np.unique(keys, axis=0, return_inverse=True)
    zero = ",".join("0" * len(c))
    tokens = []
    for s, shift, *coeffs in distinct.tolist():
        parts, k = [zero] * 4, 0
        if any(coeffs):
            parts[s], k = ",".join(map(str, coeffs)), frame.k - shift
        tokens.append(f"({'|'.join(parts)}|{k})")
    grid = np.array(tokens, dtype=object)[inverse.reshape(frame.dim, frame.count)]
    lines = [
        f"{frame.dim} {frame.count} {frame.order}",
        f"bands {frame.block_rows} {frame.point_rows} {frame.extra_rows}",
        *(" ".join(row) for row in grid.tolist()),
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_frame_exact(path: str | Path) -> FrameMatrix:
    """Inverse of store_frame_exact; raises ValueError naming the file."""
    try:
        return _parse_frame(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_token(tok: str, order: int) -> tuple[int, list[int], int]:
    """(surd index, coefficients, canonical k) of one entry; index -1 for zero."""
    parts = tok[1:-1].split("|")
    if not (tok.startswith("(") and tok.endswith(")") and len(parts) == 5):
        raise ValueError(f"bad entry token {tok!r}")
    try:
        comps = [[int(c) for c in part.split(",")] for part in parts[:4]]
        k = int(parts[4])
    except ValueError:
        raise ValueError(f"entry token {tok!r} has a non-integer field") from None
    if k < 0:
        raise ValueError(f"entry token {tok!r} has a negative k")
    # phi(m) >= sqrt(m/2): a count below that bound needs no cyclotomic polynomial
    n = len(comps[0])
    if any(len(c) != n for c in comps) or 2 * n * n < order or n != len(cyclotomic_poly(order)) - 1:
        raise ValueError(f"entry token {tok!r} does not have phi({order}) coefficients per part")
    nonzero = [s for s, c in enumerate(comps) if any(c)]
    if not nonzero:
        return -1, comps[0], 0
    if len(nonzero) > 1:
        raise ValueError(f"entry token {tok!r} mixes surds")
    c = comps[nonzero[0]]
    while k and not any(x % 2 for x in c):
        c, k = [x // 2 for x in c], k - 1
    return nonzero[0], c, k


def _parse_frame(text: str) -> FrameMatrix:
    raw = [ln.split() for ln in text.split("\n") if ln.strip()]
    if len(raw) < 2:
        raise ValueError("missing frame header or band line")
    head, band_line = raw[0], raw[1]
    if len(head) != 3:
        raise ValueError(f"bad frame header {' '.join(head)!r}")
    if band_line[0] != "bands" or len(band_line) != 4:
        raise ValueError(f"bad band line {' '.join(band_line)!r}")
    try:
        m, n, order, *bands = (int(t) for t in head + band_line[1:])
    except ValueError:
        raise ValueError("non-integer field in the header or the band line") from None
    if m < 1 or n < 1 or order < 1:
        raise ValueError(f"M, N and the order must be positive, got {' '.join(head)!r}")
    if len(raw) != m + 2:
        raise ValueError(f"expected {m} entry rows")
    distinct: dict[str, int] = {}
    idx = []
    for row in raw[2:]:
        if len(row) != n:
            raise ValueError(f"row has {len(row)} entries, expected {n}")
        idx.append([distinct.setdefault(tok, len(distinct)) for tok in row])
    idx = np.array(idx)
    parsed = [_parse_token(tok, order) for tok in distinct]

    surd = np.array([s for s, _, _ in parsed])[idx]
    hi = surd.max(axis=1)
    mixed = (np.where(surd < 0, hi[:, None], surd) != hi[:, None]).any(axis=1)
    if mixed.any():
        raise ValueError(
            f"row {int(mixed.argmax())} mixes surds: every entry of a row must be "
            "one of 1, sqrt2, sqrt3, sqrt6 times a cyclotomic integer over 2^k"
        )
    k = max(kx for _, _, kx in parsed)
    table = np.zeros((len(parsed), len(parsed[0][1])))
    for u, (_, c, kx) in enumerate(parsed):
        if max(map(abs, c)).bit_length() + k - kx > 52:
            raise ValueError(f"entry coefficients reach 2^52; {_GUARD_NOTE}")
        table[u] = [x << (k - kx) for x in c]
    return FrameMatrix(table.T[:, idx], np.take(_SURD_WEIGHTS, np.maximum(hi, 0)), k, order,
                       *bands)


def store_frame_csv(path: str | Path, frame: FrameMatrix) -> None:
    """Float CSV: M rows of alternating real,imag parts (2N fields).

    Each field is the repr of its float64; every distinct bit pattern is
    formatted once.
    """
    fields = frame.to_complex_array().view(np.float64)  # (M, 2N): real, imag, ...
    distinct, inverse = np.unique(fields.view(np.uint64), return_inverse=True)
    tokens = np.array([repr(x) for x in distinct.view(np.float64)], dtype=object)
    lines = [",".join(row) for row in tokens[inverse.reshape(fields.shape)].tolist()]
    Path(path).write_text("\n".join(lines) + "\n")
