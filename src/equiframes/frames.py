"""Unimodular simplices, Steiner and Tremain frames, and exact certification.

Frames are stored unscaled: every vector of a Tremain frame has squared
norm R + 2 and distinct vectors meet in a unimodular inner product, so the
coherence of the unit-normalized family is 1/(R + 2), the Welch bound for
these dimensions.  Verification recomputes the full Gram matrix and frame
operator from the entries; it never trusts the construction.

Exact verification runs one kernel for real and complex frames.  Each row
carries a single surd s_r in {1, sqrt2, sqrt3, sqrt6}, so the entries pack
into integer planes X (phi(m), M, N) with row weights w_r = s_r^2, and the
Gram is sum_{a,b} X_a^T diag(w) X_b zeta_m^(a-b) / 4^k: float64 products
summed in cyclic slots (a - b) mod m, rounded, reduced modulo Phi_m, with
no surd left.  The frame operator and |Gram|^2 are the same slot products.
Past 2^52 in a slot sum, or on a row that mixes surds, it raises ValueError.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from pathlib import Path

import numpy as np

from equiframes.designs import EmbeddingAssignment, SteinerTripleSystem
from equiframes.hadamard import ButsonMatrix
from equiframes.scalar import CycInt, ExtScalar, cyclotomic_poly


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


@dataclass(frozen=True)
class FrameMatrix:
    """Dense matrix of exact scalars with labelled coordinate bands.

    Rows split into block coordinates, point coordinates and one optional
    extra coordinate (Tremain frames use all three bands; Steiner frames
    only the first).
    """

    entries: tuple[tuple[ExtScalar, ...], ...]
    order: int
    block_rows: int
    point_rows: int
    extra_rows: int
    provenance: SteinerProvenance | TremainProvenance | None = None

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def count(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def is_real_rational(self) -> bool:
        """True when every entry lives in Z[sqrt2, sqrt3]/2^k (no roots)."""
        return len(cyclotomic_poly(self.order)) - 1 == 1

    @cached_property
    def column_supports(self) -> tuple[tuple[int, ...], ...]:
        zero_ids: dict[int, bool] = {}

        def is_zero(x: ExtScalar) -> bool:
            r = zero_ids.get(id(x))
            if r is None:
                r = zero_ids[id(x)] = x.is_zero()
            return r

        cols: list[list[int]] = [[] for _ in range(self.count)]
        for r, row in enumerate(self.entries):
            for j, x in enumerate(row):
                if not is_zero(x):
                    cols[j].append(r)
        return tuple(tuple(c) for c in cols)

    @cached_property
    def row_graded(self) -> RowGraded:
        return _row_graded(self)

    @cached_property
    def exact_gram(self) -> np.ndarray:
        """Gram at scale 4^k: (phi(m), N, N) power-basis coefficients."""
        g = self.row_graded
        return _cyclic_product([p.T for p in g.planes], g.planes * g.weights[:, None],
                               self.order, np.matmul, g.gram_bound, "Gram")

    def to_complex_array(self) -> np.ndarray:
        cache: dict[int, complex] = {}
        out = np.empty((self.dim, self.count), dtype=np.complex128)
        for r, row in enumerate(self.entries):
            for j, x in enumerate(row):
                v = cache.get(id(x))
                if v is None:
                    v = cache[id(x)] = x.to_complex()
                out[r, j] = v
        return out


def _zeta_tables(q: int, order: int) -> dict[str, list[ExtScalar]]:
    """Shared entry objects for every weighted root of unity a frame needs."""
    roots = [ExtScalar.root(order, e * (order // q)) for e in range(q)]
    s2 = ExtScalar.sqrt2(order=order)
    half_s2 = ExtScalar.sqrt2(order=order, k=1)
    half_s6 = ExtScalar.sqrt6(order=order, k=1)
    return {
        "one": roots,
        "sqrt2": [s2 * z for z in roots],
        "half_sqrt2": [half_s2 * z for z in roots],
        "half_sqrt6": [half_s6 * z for z in roots],
    }


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
    order = q
    tables = _zeta_tables(q, order)
    zero = ExtScalar.from_int(0, order)
    b = sts.block_count
    n_cols = sts.num_points * (r + 1)
    rows = [[zero] * n_cols for _ in range(b)]
    hexp = sim.source.exponents
    src_rows = [i for i in range(sim.source.order) if i != sim.removed_row]
    for v in range(sts.num_points):
        for s in range(r + 1):
            col = v * (r + 1) + s
            for pos in range(r):
                rows[emb.orders[v][pos]][col] = tables["one"][hexp[src_rows[pos]][s]]
    return FrameMatrix(
        tuple(tuple(row) for row in rows),
        order,
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
    with a sqrt(3/2)-weighted complement entry in the last row.
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
    t1 = _zeta_tables(q1, order)
    t2 = _zeta_tables(q2, order)
    zero = ExtScalar.from_int(0, order)
    b = sts.block_count
    m = b + v_pts + 1
    n_cols = v_pts * (r + 1) + v_pts + 1
    rows = [[zero] * n_cols for _ in range(m)]

    h1 = sim_r.source.exponents
    rows1 = [i for i in range(sim_r.source.order) if i != sim_r.removed_row]
    naimark1 = h1[sim_r.removed_row]
    for v in range(v_pts):
        for s in range(r + 1):
            col = v * (r + 1) + s
            for pos in range(r):
                rows[emb.orders[v][pos]][col] = t1["one"][h1[rows1[pos]][s]]
            rows[b + v][col] = t1["sqrt2"][naimark1[s]]

    h2 = sim_v.source.exponents
    rows2 = [i for i in range(sim_v.source.order) if i != sim_v.removed_row]
    naimark2 = h2[sim_v.removed_row]
    for t in range(v_pts + 1):
        col = v_pts * (r + 1) + t
        for v in range(v_pts):
            rows[b + v][col] = t2["half_sqrt2"][h2[rows2[v]][t]]
        rows[m - 1][col] = t2["half_sqrt6"][naimark2[t]]

    return FrameMatrix(
        tuple(tuple(row) for row in rows),
        order,
        block_rows=b,
        point_rows=v_pts,
        extra_rows=1,
        provenance=TremainProvenance(sts, emb, sim_r, sim_v),
    )


def gram_matrix(frame: FrameMatrix) -> list[list[ExtScalar]]:
    """Exact Gram via sparse column dot products (reference path)."""
    supports = frame.column_supports
    cols = [
        {r: frame.entries[r][j] for r in supports[j]} for j in range(frame.count)
    ]
    conj_cache: dict[int, ExtScalar] = {}

    def conj(x: ExtScalar) -> ExtScalar:
        c = conj_cache.get(id(x))
        if c is None:
            c = conj_cache[id(x)] = x.conjugate()
        return c

    zero = ExtScalar.from_int(0, frame.order)
    n = frame.count
    g = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a, bm = cols[i], cols[j]
            if len(bm) < len(a):
                total = zero
                for r, y in bm.items():
                    x = a.get(r)
                    if x is not None:
                        total = total + x * conj(y)
            else:
                total = zero
                for r, x in a.items():
                    y = bm.get(r)
                    if y is not None:
                        total = total + x * conj(y)
            g[i][j] = total
            if i != j:
                g[j][i] = conj(total)
    return g


# ---------------------------------------------------------------------------
# exact kernel: row-graded integer planes, products in cyclic slots

_SURD_WEIGHTS = (1, 2, 3, 6)  # squares of the ExtScalar surds 1, sqrt2, sqrt3, sqrt6
_EXACT_LIMIT = 2 ** 52  # float64 holds every integer below 2^53
_GUARD_NOTE = "float64 would round the sums, so the exact kernel refuses"


@dataclass(frozen=True)
class RowGraded:
    """Entry (r, j) is sqrt(weights[r]) * sum_a planes[a, r, j] zeta_m^a / 2^k.

    The bounds cap the slot sums of the Gram (sum_r w_r S_ri^2) and of the
    frame operator (sum_j S_rj^2), S being an entry's absolute coefficient sum.
    """

    planes: np.ndarray  # (phi(m), M, N) float64 holding integers
    weights: np.ndarray  # (M,) int64, each one of _SURD_WEIGHTS
    k: int
    gram_bound: float
    operator_bound: float


def _row_graded(frame: FrameMatrix) -> RowGraded:
    """Pack a frame's entries; raise ValueError on a row that mixes surds."""
    order = frame.order
    index: dict[int, int] = {}
    values: list[ExtScalar] = []
    idx = np.empty((frame.dim, frame.count), dtype=np.int32)
    for r, row in enumerate(frame.entries):
        ids = []
        for x in row:
            u = index.get(id(x))
            if u is None:
                u = index[id(x)] = len(values)
                values.append(x)
            ids.append(u)
        idx[r] = ids

    surd = np.full(len(values), -1)  # -1 zero, 4 more than one surd
    parts = []
    for u, x in enumerate(values):
        x = x.promote(order)
        nonzero = [s for s, c in enumerate((x.a, x.b, x.c, x.d)) if not c.is_zero()]
        if nonzero:
            surd[u] = nonzero[0] if len(nonzero) == 1 else 4
            parts.append((u, (x.a, x.b, x.c, x.d)[nonzero[0]].coeffs, x.k))

    row_surd = surd[idx]
    hi = row_surd.max(axis=1, initial=-1)
    lo = np.where(row_surd < 0, 4, row_surd).min(axis=1, initial=4)
    mixed = (hi >= 0) & ((lo != hi) | (hi == 4))
    if mixed.any():
        raise ValueError(
            f"row {int(mixed.argmax())} mixes surds: the exact kernel needs every "
            "entry of a row to be one of 1, sqrt2, sqrt3, sqrt6 times a "
            "cyclotomic integer over 2^k"
        )

    k = max((kx for _, _, kx in parts), default=0)
    table = np.zeros((len(values), len(cyclotomic_poly(order)) - 1))
    for u, coeffs, kx in parts:
        scaled = [c << (k - kx) for c in coeffs]
        if max(map(abs, scaled)) >= _EXACT_LIMIT:
            raise ValueError(f"entry coefficients reach 2^52; {_GUARD_NOTE}")
        table[u] = scaled
    planes = table.T[:, idx]
    weights = np.take(_SURD_WEIGHTS, np.maximum(hi, 0))
    sq = np.abs(planes).sum(axis=0) ** 2
    return RowGraded(planes, weights, k,
                     float((weights @ sq).max(initial=0)),
                     float(sq.sum(axis=1).max(initial=0)))


def _cyclic_product(left, right, m: int, mul, bound: float, what: str) -> np.ndarray:
    """Power-basis coefficients of sum_{a,b} mul(left[a], right[b]) zeta_m^(a-b).

    Products accumulate per cyclic slot (a - b) mod m, in float64 for BLAS
    matmuls or in int64; ``bound`` caps every partial sum, so below 2^52
    both are exact and rounding recovers each float slot.  The slots are
    then reduced modulo Phi_m.
    """
    if not bound < _EXACT_LIMIT:
        raise ValueError(f"{what} slot sums may reach {bound:.4g} >= 2^52; {_GUARD_NOTE}")
    slots: dict[int, np.ndarray] = {}
    for a, x in enumerate(left):
        for b, y in enumerate(right):
            d = (a - b) % m
            if d in slots:
                slots[d] += mul(x, y)
            else:
                slots[d] = mul(x, y)
    out = np.zeros((len(left), *slots[0].shape), dtype=np.int64)
    while slots:
        d, s = slots.popitem()
        if s.dtype != np.int64:
            s = np.rint(s, out=s).astype(np.int64)
        for c, coef in enumerate(CycInt.root(m, d).coeffs):
            if coef:
                out[c] += s if coef == 1 else coef * s
    return out


def _rational(coeffs: np.ndarray, scale: int) -> Fraction | None:
    """Value of power-basis coefficients over ``scale`` when it is rational."""
    return None if coeffs[1:].any() else Fraction(int(coeffs[0]), scale)


def real_gram_signs(frame: FrameMatrix) -> np.ndarray:
    """Sign matrix of a real frame's exact Gram (read from its cache).

    Requires every off-diagonal Gram value to be nonzero, which holds for
    real Steiner and Tremain frames.
    """
    if not frame.is_real_rational():
        raise ValueError("frame has genuine root-of-unity entries")
    g = frame.exact_gram[0]
    nonzero = g != 0
    np.fill_diagonal(nonzero, True)
    if not nonzero.all():
        raise ValueError("some off-diagonal Gram values vanish")
    signs = np.sign(g).astype(np.int8)
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
    welch_bound(m, n)  # reject degenerate shapes before any array work
    g = frame.exact_gram
    graded = frame.row_graded
    scale = 1 << (2 * graded.k)
    witness = None

    norm0 = g[:, 0, 0]
    differs = (g[:, range(n), range(n)] != norm0[:, None]).any(axis=0)
    equal_norms = not differs.any()
    if not equal_norms:
        witness = f"norms differ at columns 0 and {int(differs.argmax())}"
    norm_frac = _rational(norm0, scale)

    # |g|^2 = g * conj(g): the same slot products, elementwise in int64
    sq = _cyclic_product(g, g, frame.order, np.multiply,
                         sum(max(-int(p.min()), int(p.max())) for p in g) ** 2,
                         "|Gram|^2")
    pairs = np.triu((sq != sq[:, :1, 1:2]).any(axis=0), 1)
    is_equi = not pairs.any()
    gram_abs = None
    if is_equi:
        gram_abs = _rational(sq[:, 0, 1], scale * scale)
    else:
        i, j = np.unravel_index(pairs.argmax(), pairs.shape)
        witness = witness or f"|Gram| differs at pair (0,1) vs ({i},{j})"

    is_tight = equal_norms
    if is_tight:
        fo = _cyclic_product(graded.planes, [p.T for p in graded.planes], frame.order,
                             np.matmul, graded.operator_bound, "frame operator")
        # M * w_r * fo[r, r] == N * norm, compared in Python integers
        target = [n * int(c) for c in norm0]
        bad = fo.any(axis=0)
        for r, (w, diag) in enumerate(zip(graded.weights.tolist(),
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

    Exact mode computes the Gram matrix (cached on the frame) and the frame
    operator from the entries with the exact kernel; float mode does the
    same numerically under ``tol``.
    """
    if mode == "float":
        return _verify_float(frame, tol)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    return _verify_exact(frame)


# ---------------------------------------------------------------------------
# file formats


def _cyc_token(c: CycInt) -> str:
    return ",".join(map(str, c.coeffs))


def store_frame_exact(path: str | Path, frame: FrameMatrix) -> None:
    """Header `M N m`, band sizes, then entries as (a|b|c|d|k) tuples."""
    lines = [
        f"{frame.dim} {frame.count} {frame.order}",
        f"bands {frame.block_rows} {frame.point_rows} {frame.extra_rows}",
    ]
    for row in frame.entries:
        toks = []
        for x in row:
            toks.append(
                f"({_cyc_token(x.a)}|{_cyc_token(x.b)}|{_cyc_token(x.c)}"
                f"|{_cyc_token(x.d)}|{x.k})"
            )
        lines.append(" ".join(toks))
    Path(path).write_text("\n".join(lines) + "\n")


def load_frame_exact(path: str | Path) -> FrameMatrix:
    raw = [ln for ln in Path(path).read_text().split("\n") if ln.strip()]
    if len(raw) < 2:
        raise ValueError(f"{path}: missing frame header or band line")
    head = raw[0].split()
    if len(head) != 3:
        raise ValueError(f"{path}: bad frame header {raw[0]!r}")
    m, n, order = map(int, head)
    if m < 1 or n < 1 or order < 1:
        raise ValueError(f"{path}: M, N and the order must be positive, got {raw[0]!r}")
    band_line = raw[1].split()
    if band_line[0] != "bands" or len(band_line) != 4:
        raise ValueError(f"{path}: bad band line {raw[1]!r}")
    b, p, e = map(int, band_line[1:])
    if b + p + e != m:
        raise ValueError(f"{path}: bands {b}+{p}+{e} != M={m}")
    if len(raw) != m + 2:
        raise ValueError(f"{path}: expected {m} entry rows")
    cache: dict[str, ExtScalar] = {}

    def parse(tok: str) -> ExtScalar:
        got = cache.get(tok)
        if got is not None:
            return got
        if not (tok.startswith("(") and tok.endswith(")")):
            raise ValueError(f"{path}: bad entry token {tok!r}")
        parts = tok[1:-1].split("|")
        if len(parts) != 5:
            raise ValueError(f"{path}: bad entry token {tok!r}")
        comps = [
            CycInt(order, [int(t) for t in part.split(",")]) for part in parts[:4]
        ]
        val = ExtScalar(*comps, k=int(parts[4]))
        cache[tok] = val
        return val

    rows = []
    for ln in raw[2:]:
        row = tuple(parse(tok) for tok in ln.split())
        if len(row) != n:
            raise ValueError(f"{path}: row has {len(row)} entries, expected {n}")
        rows.append(row)
    return FrameMatrix(tuple(rows), order, b, p, e)


def store_frame_csv(path: str | Path, frame: FrameMatrix) -> None:
    """Float CSV: M rows of alternating real,imag parts (2N fields)."""
    a = frame.to_complex_array()
    lines = []
    for r in range(frame.dim):
        fields = []
        for j in range(frame.count):
            fields.append(repr(a[r, j].real))
            fields.append(repr(a[r, j].imag))
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n")
