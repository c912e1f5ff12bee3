"""Unimodular simplices, Steiner and Tremain frames, and exact certification.

A frame is its row-graded integer planes: entry (r, j) is
s_r * sum_a X[a, r, j] zeta_m^a / 2^k, with one surd s_r in {1, sqrt2,
sqrt3, sqrt6} per row (row weight w_r = s_r^2), integer planes X of shape
(phi(m), M, N) in the power basis (int8 when every coefficient fits, else
int64), and one power of two.  The builders fill X, refused past
scalar._ARRAY_LIMIT_BYTES, by indexing a table of root-of-unity
coefficients with the Hadamard exponent tables; the .etf reader and
writer convert between planes and per-entry (a|b|c|d|k) tokens.
Simplices are exponent arrays too: the rows of a Butson matrix without
the removed one, and that row as the Naimark complement.  Frames are
stored unscaled: every vector of a Tremain frame has squared norm R + 2
and distinct vectors meet in a unimodular inner product, so the
coherence of the unit-normalized family is 1/(R + 2), the Welch bound
for these dimensions.  Verification is one exact pass with zero
tolerance: it recomputes the Gram matrix from the planes, and the frame
operator when the Welch equality does not already prove tightness; it
never trusts the construction.

That pass runs one kernel for real and complex frames: Gram entries are
sum_{a,b} X_a^T diag(w) X_b zeta_m^(a-b) / 4^k, BLAS products summed in
cyclic slots (a - b) mod m, reduced modulo Phi_m, with no surd left.
The products run in float32 when an a-priori bound on every slot sum is
below 2^24 and in float64 below 2^52; past that the kernel raises
ValueError.  Each row tile multiplies only the coordinates its
vectors touch, converted to float tile by tile: no float copy of the
planes is made.  The Gram is never held whole, nor a row tile of it: one
pass, _gram_pass, walks its upper triangle in row tiles of column blocks,
reads the norms off each diagonal block, checks the moduli block by block
(each row keeps its first miss, so the witness is the row-major first
pair) and writes each block's phases and their conjugates straight into
the one N x N array it returns with the ETF report: one small integer per
pair, the phase e with Gram(i, j) a positive rational multiple of
zeta_(m')^e, m' = lcm(2, m) (-1 when there is none).  Beside it the pass
holds one block and the tile's rows; nothing is cached on the frame.
Real frames compare |Gram| directly; complex ones compare |Gram|^2, the
same slot products taken elementwise in int64.  The Gram, the frame
operator (also in row tiles) and a Hadamard matrix's H H* are one
Hermitian product, scalar._hermitian_tiles; the flat functional's inner products
are slot products too (scalar._cyclic_product).  FrameMatrix.entry and
gram_matrix are the only code here that builds ExtScalar values: gram_matrix
recomputes the Gram entry by entry, as the tests' independent reference.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd, lcm, pi
from pathlib import Path

import numpy as np

from equiframes.designs import EmbeddingAssignment, SteinerTripleSystem
from equiframes.hadamard import ButsonMatrix
from equiframes.scalar import (
    _GUARD_NOTE,
    _SURDS,
    MAX_ROOT_ORDER,
    CycInt,
    ExtScalar,
    _adopted,
    _cyclic_product,
    _first_marked,
    _hermitian_tiles,
    _refuse_array,
    _square_tiles,
    _unit_roots,
    cyclotomic_poly,
    root_coeffs,
)


@dataclass(frozen=True, eq=False)
class UnimodularSimplex:
    """Columns of a Butson Hadamard matrix with one row removed, as exponents.

    Entry (r, i) is zeta_q^exponents[r, i], q the source's root order.  The
    removed row is kept as the Naimark complement: its entries
    a_i = zeta_q^complement[i] satisfy <phi_i, phi_j> + a_i * conj(a_j) =
    n [i = j].  Both arrays are read-only.
    """

    exponents: np.ndarray  # (n-1, n) int64
    complement: np.ndarray  # (n,) int64
    source: ButsonMatrix
    removed_row: int

    @property
    def dim(self) -> int:
        return len(self.exponents)

    @property
    def count(self) -> int:
        return len(self.complement)


def simplex_from_hadamard(h: ButsonMatrix, row: int) -> UnimodularSimplex:
    """Delete one row of a (verified) Hadamard matrix; keep it as complement."""
    if row < 0 or row >= h.order:
        raise ValueError(f"row {row} out of range for order {h.order}")
    rows = np.delete(h.exponents, row, axis=0)
    rows.flags.writeable = False
    return UnimodularSimplex(rows, h.exponents[row], h, row)


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
    if h < 2 or h % 3 == 0:  # h = 1 would be V = 2h - 1 = 1, below the V >= 3 above
        raise ValueError(f"h must be 1 or 2 (mod 3) and >= 2, got {h}")
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
    frames only the first).  The arrays are read-only.  The planes are int8
    when every coefficient fits and int64 otherwise: an int8 or int64 array
    that owns its memory is adopted without a copy (scalar._adopted), and a
    float array is converted after a check that it holds integers.
    """

    planes: np.ndarray  # (phi(m), M, N) int8, or int64 when a coefficient needs it
    weights: np.ndarray  # (M,) int64, each one of _SURD_WEIGHTS
    k: int
    order: int
    block_rows: int
    point_rows: int
    extra_rows: int
    provenance: SteinerProvenance | TremainProvenance | None = None

    def __post_init__(self) -> None:
        planes = _integer_planes(self.planes)
        weights = _adopted(self.weights, np.int64)
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
        """Entry (r, j) as an ExtScalar, for reference arithmetic: its row's
        surd times its cyclotomic integer, over 2^k."""
        z = CycInt(self.order, [int(c) for c in self.planes[:, r, j]])
        return ExtScalar(_SURDS[int(self.weights[r])] * z, self.k)

    def to_complex_array(self) -> np.ndarray:
        """Entries as complex128, refused past scalar._ARRAY_LIMIT_BYTES before
        anything is allocated.  Each is the float sum, in ascending powers,
        of its coefficients times the unit roots, times its row's rounded
        float sqrt(w) and 2^-k (exact)."""
        _refuse_array(self.planes.shape[1:], "complex frame array", 16)
        roots = _unit_roots(self.order)
        # ascending powers from +0.0, as CycInt.to_complex sums: no -0.0 appears,
        # so the real and imaginary parts can be summed apart, in place
        out = np.zeros(self.planes.shape[1:], dtype=np.complex128)
        for a, p in enumerate(self.planes):
            out.real += p * roots[a].real
            out.imag += p * roots[a].imag
        surd = np.take(_SURD_FLOATS, np.searchsorted(_SURD_WEIGHTS, self.weights))
        out *= (surd * 0.5 ** self.k)[:, None]  # exact: a power of two does not round
        return out


def _integer_planes(a) -> np.ndarray:
    """Planes for FrameMatrix: int8 or int64 adopted as they are, else converted.

    Any other array must hold integers (a float one is checked, and a
    fraction, NaN or infinity raises ValueError); it becomes int8 when every
    value fits and int64 otherwise.
    """
    a = np.asarray(a)
    if a.dtype in (np.int8, np.int64):
        return _adopted(a, a.dtype)
    if a.dtype.kind not in "biuf" or (a.dtype.kind == "f" and not np.array_equal(a, np.trunc(a))):
        raise ValueError(f"frame planes must hold integers, got dtype {a.dtype}")
    if a.size and not (-2 ** 63 <= a.min() and a.max() < 2 ** 63):
        raise ValueError("frame plane coefficients do not fit in int64")
    return a.astype(_plane_dtype(a))


def _plane_dtype(*tables) -> type:
    """int8 when every value of the integer tables fits in it, else int64."""
    fits = all(t.size == 0 or (-128 <= t.min() and t.max() <= 127) for t in tables)
    return np.int8 if fits else np.int64


def _zero_planes(shape: tuple[int, int, int], *tables) -> np.ndarray:
    """Zero planes that hold the tables' values, refused past the array limit."""
    dtype = _plane_dtype(*tables)
    _refuse_array(shape, "plane array", np.dtype(dtype).itemsize)
    return np.zeros(shape, dtype=dtype)


def _embed_blocks(planes: np.ndarray, table: np.ndarray, sts: SteinerTripleSystem,
                  emb: EmbeddingAssignment, exps: np.ndarray) -> None:
    """Simplex vector s at point v is column v(R+1)+s; coordinate pos goes to
    block row emb.orders[v, pos].  Refused unless ``emb`` embeds ``sts`` or a
    system with the same points and blocks."""
    if emb.sts is not sts and (emb.sts.num_points != sts.num_points
                               or not np.array_equal(emb.sts.blocks, sts.blocks)):
        raise ValueError("embedding belongs to a different system")
    r = exps.shape[0]
    cols = np.arange(len(emb.orders))[:, None, None] * (r + 1) + np.arange(r + 1)
    planes[:, emb.orders[:, :, None], cols] = np.moveaxis(table[exps], -1, 0)[:, None]


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
    q = sim.source.root_order
    table = root_coeffs(q)
    b = sts.block_count
    planes = _zero_planes((table.shape[1], b, sts.num_points * (r + 1)), table)
    _embed_blocks(planes, table, sts, emb, sim.exponents)
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
    t1 = 2 * root_coeffs(order)[:: order // q1]  # zeta_q1^e is zeta_order^(e order/q1)
    t2 = root_coeffs(order)[:: order // q2]
    b = sts.block_count
    m = b + v_pts + 1
    first = v_pts * (r + 1)
    planes = _zero_planes((t1.shape[1], m, first + v_pts + 1), t1, t2)
    points = b + np.arange(v_pts)

    _embed_blocks(planes, t1, sts, emb, sim_r.exponents)
    cols = np.arange(first).reshape(v_pts, r + 1)
    planes[:, points[:, None], cols] = t1[sim_r.complement].T[:, None]

    planes[:, points, first:] = np.moveaxis(t2[sim_v.exponents], -1, 0)
    planes[:, m - 1, first:] = t2[sim_v.complement].T

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

_SURD_WEIGHTS = (1, 2, 3, 6)  # squares of the row surds 1, sqrt2, sqrt3, sqrt6
_SURD_FLOATS = (1.0, 2.0 ** 0.5, 3.0 ** 0.5, 6.0 ** 0.5)
_CSV_ROWS = 16  # frame rows formatted per write of the CSV writer


def _phase_roots(m: int) -> np.ndarray:
    """(m', phi(m)) power-basis coefficients of zeta_(m')^e, m' = lcm(2, m)."""
    roots = root_coeffs(m)
    if m % 2:  # zeta_(2m) = -zeta_m^((m+1)/2)
        e = np.arange(2 * m)
        return roots[e * (m + 1) // 2 % m] * np.where(e % 2, -1, 1)[:, None]
    return roots


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


def _gram_pass(frame: FrameMatrix) -> tuple[ETFReport, np.ndarray]:
    """The exact ETF report and the phases, from one walk over the Gram's
    upper triangle in row tiles, each tile reduced block by block as
    _hermitian_tiles makes it.

    ``phase[i, j]`` (read-only, int8, int16 past m' = 127) is the e for which
    Gram(i, j) is a positive rational multiple of zeta_(m')^e, m' = lcm(2, m),
    or -1 (a zero entry, say); for a real frame 0 is positive and 1 negative.
    A block's phases go to phase[rows, cols] and their conjugates to
    phase[cols, rows], so beside the phases the pass holds one block.
    The witness is the first column whose norm differs from column 0's, or
    the zero norm of every column (zero vectors form no tight frame), else
    the first pair (i, j), i < j in row-major order, whose modulus differs
    from pair (0, 1)'s, else the frame operator's, computed only when the
    Welch equality does not already prove tightness.
    """
    n, m = frame.count, frame.order
    wb = welch_bound(frame.dim, n)  # reject degenerate shapes before any array work
    dtype = _phase_dtype(m)
    _refuse_array((n, n), "Gram phase matrix", np.dtype(dtype).itemsize)
    real = len(frame.planes) == 1
    m2 = lcm(2, m)
    phase = np.empty((n, n), dtype=dtype)
    norm = ref = norm_at = pair_at = None

    def mark(g, rows, cols):  # the block's modulus misses, its norms and phases kept on the way
        nonlocal norm, ref, norm_at
        if cols.start == rows.start:  # the square diagonal block: the norms
            diag = g[:, range(g.shape[1]), range(g.shape[1])]
            norm = diag[:, 0].copy() if norm is None else norm
            differs = (diag != norm[:, None]).any(axis=0)
            if norm_at is None and differs.any():
                norm_at = rows.start + int(differs.argmax())
        if real:  # |g| against |g_01| unsquared: a square could leave int64
            mod = np.abs(g)
        else:
            mod = _cyclic_product(g, g, m, np.multiply,
                                  sum(max(-int(p.min()), int(p.max())) for p in g) ** 2,
                                  "|Gram|^2")
        if ref is None and cols.stop > 1:  # pair (0, 1): row 0's first block past (0, 0)
            ref = mod[:, 0, 1 - cols.start].copy()
        if ref is None:  # the block is (0, 0) alone, in a one-row tile: no pair yet
            pairs = np.zeros((1, 1), dtype=bool)
        else:
            pairs = (mod != ref[:, None, None]).any(axis=0)
        del mod  # before the phases' temporaries
        block = _tile_phase(g, m)
        phase[rows, cols] = block
        if m2 != 2:  # conj(zeta^e) = zeta^(-e)
            block = np.where(block >= 0, -block % m2, -1)
        phase[cols, rows] = block.T
        return pairs

    columns = frame.planes.transpose(0, 2, 1)
    for tile in _hermitian_tiles(columns, m, "Gram", frame.weights):
        pair = _first_marked([tile], mark)  # every tile: mark writes the phases
        pair_at = pair_at or pair
    phase.flags.writeable = False

    norm = tuple(int(c) for c in norm)  # Gram(0, 0) at scale 4^k
    scale = 1 << (2 * frame.k)
    norm_sq = _rational(norm, scale)
    equal_norms, is_equiangular = norm_at is None, pair_at is None
    spans = equal_norms and any(norm)  # zero columns span nothing, so are no tight frame
    witness = (f"norms differ at columns 0 and {norm_at}" if not equal_norms
               else None if spans else "every column has norm 0")
    gram_abs_sq = coherence_sq = coherence = tight_constant = None
    if is_equiangular:  # |Gram(0, 1)|^2, at scale 16^k
        abs_sq = (int(ref[0]) ** 2,) if real else tuple(map(int, ref))
        gram_abs_sq = _rational(abs_sq, scale * scale)
    else:
        witness = witness or f"|Gram| differs at pair (0,1) vs ({pair_at[0]},{pair_at[1]})"
    if equal_norms and norm_sq and gram_abs_sq is not None:
        coherence_sq = gram_abs_sq / (norm_sq * norm_sq)
        coherence = float(coherence_sq) ** 0.5
    # At the Welch bound tr S^2 = ||Gram||_F^2 = (tr S)^2 / M for the frame
    # operator S, so Cauchy-Schwarz on its eigenvalues forces S = (tr S / M) I
    meets = coherence_sq == wb.squared
    off = None if meets or not spans else _frame_operator_witness(frame, norm)
    is_tight = spans and off is None
    if is_tight and norm_sq is not None:
        tight_constant = Fraction(n, frame.dim) * norm_sq
    rep = ETFReport(frame.dim, n, equal_norms, norm_sq, is_tight, tight_constant,
                    is_equiangular, gram_abs_sq, coherence_sq, coherence, wb.squared,
                    wb.value, is_tight and is_equiangular, meets, witness or off)
    return rep, phase


def _rational(coeffs, scale: int) -> Fraction | None:
    """Value of power-basis coefficients over ``scale`` when it is rational."""
    return None if any(coeffs[1:]) else Fraction(int(coeffs[0]), scale)


def real_gram_signs(frame: FrameMatrix) -> np.ndarray:
    """Sign matrix (int8, zero diagonal) of a real frame's exact Gram (own pass).

    Requires every off-diagonal Gram value to be nonzero, which holds for
    real Steiner and Tremain frames; that is checked block by block over
    the upper triangle, so no N x N mask is made.  A zero norm counts too:
    its column is zero, so its off-diagonal Gram values vanish as well.
    """
    if not frame.is_real_rational():
        raise ValueError("frame has genuine root-of-unity entries")
    phase = _gram_pass(frame)[1]
    if _first_marked(_square_tiles(phase), lambda b, rows, cols: b < 0) is not None:
        raise ValueError("some off-diagonal Gram values vanish")
    signs = phase * np.int8(-2)  # phase 0 -> +1, phase 1 -> -1
    signs += 1
    np.fill_diagonal(signs, 0)
    return signs


@dataclass(frozen=True)
class ETFReport:
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
    witness: str | None

    def to_dict(self) -> dict:
        """The fields in order, dim and count as M and N, each Fraction as [num, den]."""
        keys, out = {"dim": "M", "count": "N"}, {}
        for f in fields(self):
            x = getattr(self, f.name)
            out[keys.get(f.name, f.name)] = (
                [x.numerator, x.denominator] if isinstance(x, Fraction) else x)
        return out


def _frame_operator_witness(frame: FrameMatrix, norm: tuple[int, ...]) -> str | None:
    """The first entry, walking row tiles, at which the frame operator is
    off (N/M) norm times the identity; None when the frame is tight.
    ``norm`` is the power basis of every column's squared norm at scale 4^k."""
    m, n = frame.dim, frame.count
    # M * w_r * fo[r, r] == N * norm, compared in Python integers
    target = [n * c for c in norm]
    weights = frame.weights.tolist()

    def mark(fo, rows, cols):
        bad = fo.any(axis=0)
        if cols.start == rows.start:  # the square diagonal block
            for r, diag in enumerate(fo[:, range(len(bad)), range(len(bad))].T.tolist()):
                bad[r, r] = [m * weights[rows.start + r] * c for c in diag] != target
        return bad

    pair = _first_marked(_hermitian_tiles(frame.planes, frame.order, "frame operator"), mark,
                         diagonal=True)
    if pair is None:
        return None
    r, c = pair
    return (f"frame operator diagonal off at {r}" if r == c
            else f"frame operator off-diagonal ({r},{c})")


def verify_etf(frame: FrameMatrix, *,
               phases: bool = False) -> ETFReport | tuple[ETFReport, np.ndarray]:
    """Certify equal norms, tightness, and equiangularity of a frame exactly.

    One pass over the Gram (see _gram_pass) decides all three with zero
    tolerance: equal norms and moduli at the Welch bound prove tightness,
    and otherwise the frame operator is computed with the exact kernel.  It
    keeps nothing of the pass unless ``phases`` asks for ``(report, phase)``,
    as the graph builders do.
    """
    return _gram_pass(frame) if phases else _gram_pass(frame)[0]


# ---------------------------------------------------------------------------
# file formats


def store_frame_exact(path: str | Path, frame: FrameMatrix) -> None:
    """Header `M N m`, band sizes, then entries as (a|b|c|d|k) tuples.

    Each entry is its row's surd part (the others zero) with its own k as
    small as that part's coefficients allow, so some coefficient is odd
    unless k = 0 (a zero entry has k = 0).  That k is read off the surd's
    coefficient, not the value: sqrt2 (1 + i) / 2 is written with k = 1,
    though as a cyclotomic integer it is zeta_8.
    """
    phi = len(frame.planes)
    # one key (surd, halvings, coefficients) per entry, in the planes' own dtype:
    # no int64 copy of int8 planes, and a nonzero int64 halves fewer than 64 times
    keys = np.zeros((frame.dim, frame.count, phi + 2), dtype=frame.planes.dtype)
    keys[..., 0] = np.searchsorted(_SURD_WEIGHTS, frame.weights)[:, None]
    c = keys[..., 2:]
    c[...] = np.moveaxis(frame.planes, 0, -1)
    even = c.any(axis=-1)
    for _ in range(frame.k):
        even &= (c % 2 == 0).all(axis=-1)
        if not even.any():
            break
        c[even] //= 2
        keys[..., 1] += even
    # distinct keys through a raw-byte view of each contiguous key row
    keys = keys.reshape(-1, phi + 2)
    _, first, inverse = np.unique(keys.view(np.dtype((np.void, keys.strides[0]))).ravel(),
                                  return_index=True, return_inverse=True)
    zero = ",".join("0" * phi)
    tokens = []
    for s, shift, *coeffs in keys[first].tolist():
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
    if order > MAX_ROOT_ORDER:
        raise ValueError(f"root order {order} exceeds the supported {MAX_ROOT_ORDER}")
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
    table = np.zeros((len(parsed), len(parsed[0][1])), dtype=np.int64)
    for u, (_, c, kx) in enumerate(parsed):
        if max(map(abs, c)).bit_length() + k - kx > 52:
            raise ValueError(f"entry coefficients reach 2^52; {_GUARD_NOTE}")
        table[u] = [x << (k - kx) for x in c]
    # np.take returns an array that owns its memory, so FrameMatrix adopts it uncopied
    planes = np.take(table.astype(_plane_dtype(table), copy=False).T, idx, axis=1)
    return FrameMatrix(planes, np.take(_SURD_WEIGHTS, np.maximum(hi, 0)), k, order, *bands)


def store_frame_csv(path: str | Path, frame: FrameMatrix) -> None:
    """Float CSV: M rows of alternating real,imag parts (2N fields).

    Each field is the repr of its value as a Python float, whatever the
    numpy version.  Rows are formatted and written _CSV_ROWS at a time, each
    distinct bit pattern of a block formatted once, so beside the complex
    copy the writer holds one block.
    """
    fields = frame.to_complex_array().view(np.float64)  # (M, 2N): real, imag, ...
    with Path(path).open("w") as fh:
        for s in range(0, len(fields), _CSV_ROWS):
            block = fields[s:s + _CSV_ROWS]
            distinct, inverse = np.unique(block.view(np.uint64), return_inverse=True)
            tokens = np.array([repr(x) for x in distinct.view(np.float64).tolist()], dtype=object)
            grid = tokens[inverse.reshape(block.shape)].tolist()
            fh.writelines(",".join(row) + "\n" for row in grid)
