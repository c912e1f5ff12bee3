"""Strongly regular graphs and antipodal covers derived from certified ETFs.

All three builders certify the frame and read its Gram phases in one
exact pass (verify_etf with ``phases``) through _certified_phases: the
covers take the p-th-root exponent of each Gram value, the SRGs its sign
(p = 2), positive-adjacent (switched by XOR for Waldron's graph).  The
cover drops the phases once its adjacency is made; a sign graph is made
in the phases' own buffer (_sign_adjacency), so an SRG pipeline holds
one N x N byte array from the Gram pass to the export, validated and
counted once.  A graph is a read-only boolean adjacency matrix,
one byte per vertex pair, and it is the only N x N array counting holds:
derivation, counting and I/O read it in tiles of scalar._TILE rows, so
every other array scales with _TILE * N, and the symmetry and phase
checks walk _TILE x _TILE blocks (scalar._square_tiles).  Certification
is pure counting: degrees are row sums and common-neighbor counts are
the entries of A·A, each row tile times each block of _TILE columns
(A[:, c:c2] is A[c:c2].T by symmetry), both converted to float32 as the
loop reaches them (exact, since every count is below 2^24).  The sign
graphs of a Steiner or Tremain frame have a second product: two points
share one block, so over the R + 1 vertices of each point every block of
the Seidel matrix J - I - 2A is rank one (Fickus, Mixon and Tremain,
Steiner equiangular tight frames, 2012).  srg_check reads the factors off
one row per group, checks every pair against them and then counts in
O(N^2 G) for G groups, not O(N^3), holding one N x (G+2) float32 array
of factors and pieces made a chunk of groups at a time; a graph that
fails the check, or one given no group size, is counted by A·A.
Strongly regular graphs need constant degree and constant counts over
adjacent and non-adjacent pairs; covers of the complete graph need fiber matchings, read off A·F
for the fiber indicator F, and a constant count over non-adjacent pairs
in distinct fibers, fiber f being the r consecutive vertices f*r .. f*r +
r - 1; a p = 2 cover is the Z_2 lift of an N-vertex quotient (Godsil and
Hensel 1992), counted by either product on that quotient.  Each
certifier reads the counts it expects off row 0, at the first pair of
each kind, and marks the off counts of each block; scalar._first_marked
names the first pair marked.  The certifiers never read the closed-form
parameters they are compared against.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path

import numpy as np

from equiframes.frames import (
    ETFReport,
    FrameMatrix,
    TremainProvenance,
    verify_etf,
    welch_bound,
)
from equiframes.hadamard import _is_prime
from equiframes.scalar import (
    _FLOAT32_EXACT,
    _TILE,
    _WRITE_LINES,
    _adopted,
    _cyclic_product,
    _first_marked,
    _refuse_array,
    _square_tiles,
    _write_lines,
)


class CertificationError(RuntimeError):
    """A constructed object failed its exhaustive certification."""


@dataclass(frozen=True, eq=False)
class Graph:
    adj: np.ndarray  # n x n bool, symmetric, zero diagonal, read-only

    def __post_init__(self) -> None:
        adj = _adopted(self.adj, bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency of shape {adj.shape} is not square")
        loops = np.flatnonzero(adj.diagonal())
        if loops.size:
            raise ValueError(f"loop at vertex {loops[0]}")
        marks = np.empty((_TILE, _TILE), dtype=bool)  # one buffer for every block's marks
        pair = _first_marked(_square_tiles(adj), lambda block, rows, cols: np.not_equal(
            block, adj[cols, rows].T, out=marks[:len(block), :block.shape[1]]))
        if pair is not None:
            raise ValueError(f"adjacency is not symmetric at pair ({pair[0]},{pair[1]})")
        adj.flags.writeable = False
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_edges(cls, order: int, edges) -> Graph:
        e = np.array([(u, v) for u, v in edges], dtype=np.int64).reshape(-1, 2)
        out = (e < 0) | (e >= order)
        if out.any():
            u, v = e[out.any(axis=1).argmax()]
            raise ValueError(f"edge ({u},{v}) leaves the vertex range [0,{order})")
        loops = e[:, 0] == e[:, 1]
        if loops.any():
            raise ValueError(f"loop at {e[loops.argmax(), 0]}")
        adj = np.zeros((order, order), dtype=bool)
        adj[e[:, 0], e[:, 1]] = True
        adj[e[:, 1], e[:, 0]] = True
        return cls(adj)

    @classmethod
    def from_adjacency(cls, adj: np.ndarray) -> Graph:
        return cls(adj)

    @property
    def order(self) -> int:
        return self.adj.shape[0]


def _edge_runs(adj: np.ndarray):
    """The edges u < v as (L, 2) arrays of (u, v), in runs of the rows of a
    row tile that hold at most _WRITE_LINES edges (one row when it holds more)."""
    for s in range(0, adj.shape[0], _TILE):
        upper = np.triu(adj[s:s + _TILE, s:], 1)  # columns from s on
        ends = np.cumsum(np.count_nonzero(upper, axis=1))  # edges up to each row's end
        a = done = 0
        while a < len(upper):
            b = max(a + 1, int(np.searchsorted(ends, done + _WRITE_LINES, "right")))
            yield np.stack(np.nonzero(upper[a:b]), axis=1) + [s + a, s]
            a, done = b, ends[b - 1]


@dataclass(frozen=True)
class SRGParams:
    v: int
    k: int
    lam: int
    mu: int | None  # None on graphs with no non-adjacent pairs

    def as_tuple(self) -> tuple:
        return (self.v, self.k, self.lam, self.mu)


@dataclass(frozen=True)
class Certificate:
    """An exhaustive count's verdict: its parameters or the first witness."""

    ok: bool
    params: SRGParams | tuple[int, int, int] | None  # a cover's are (n, r, c)
    witness: str | None = None
    counting: str | None = None  # the product that counted: "factored" or "dense"


def _dense_tiles(adj: np.ndarray):
    """A·A as _first_marked's tiles: each tile of _TILE rows times each
    block of _TILE rows of A from the tile's first row on, both in float32
    (A[:, c:c2] is A[c:c2].T by symmetry)."""
    n = adj.shape[0]
    if n - 2 >= _FLOAT32_EXACT:
        raise ValueError(f"{n} vertices: float32 common-neighbor counts not exact")
    for s in range(0, n, _TILE):
        x = adj[s:s + _TILE].astype(np.float32)
        yield slice(s, s + len(x)), (
            (slice(c, min(c + _TILE, n)), x @ adj[c:c + _TILE].astype(np.float32).T)
            for c in range(s, n, _TILE)
        )


def _factored_tiles(adj: np.ndarray, size: int, deg: np.ndarray):
    """The common-neighbor counts from the rank-one blocks of the Seidel
    matrix, as _first_marked's tiles, or None when a block is not rank
    one or the groups are too small to pay.

    Group a is the ``size`` consecutive vertices from p_a = a * size (the
    last may be short), g(i) the group of vertex i, and S_ij = 1 - 2 A_ij
    off the diagonal.  The signs are read off the first vertices' rows:
    U[i, c] = S[p_c, i] and Q[a, c] = S[p_a, p_c] for a != c; Q[a, a] =
    U[p_a + 1, a] U[p_a + 2, a] S[p_a + 1, p_a + 2] (1 in a group of at
    most two) and U[p_a, a] = Q[a, a].  Every pair i < j is checked for
    S_ij = T_ij = U[i, g(j)] W[j, g(i)], W[j, a] = U[j, a] Q[a, g(j)]; T is
    symmetric, with diagonal d_i = Q[g(i), g(i)].  Then, off the diagonal,

        4 count_ij = (N-2) - r_i - r_j + S_ij (2 - d_i - d_j) + (T^2)_ij,

    r_i = N - 1 - 2 deg_i, and the rows of group a have (T^2)_ij =
    sum_h U[i, h] C[h, a, g(j)] W[j, h], C[h, a, c] = Q[a, h] UU[h, a, c] for
    UU[h, a, c] the sum over k in group h of U[k, a] U[k, c].  So W is never
    made: one float32 product per block gives it all, the rows u_i = [U[i],
    (N-2) - r_i, 1] against [U[j] coeff[g(j)], 1, -r_j], coeff[c, h] =
    Q[h, c] Q[a, h] UU[h, a, c], with the S term, U[i, g(j)] U[j, a] Q[a, g(j)]
    (2 - d_a - d_j), added at column g(j).  Its partial sums are integers
    of magnitude at most 4N.  Beside the N x (G+2) array u, the walk holds
    UU for a chunk of groups a and the right operand of a block of whole
    groups, each of at most _TILE * N / 2 bytes.  G groups with G^2 > 4N
    (groups of fewer than about sqrt(N)/2 vertices) are refused: the
    factors would no longer be small beside A, nor the product much
    cheaper than A·A.
    """
    n = adj.shape[0]
    if 4 * n > _FLOAT32_EXACT:
        raise ValueError(f"{n} vertices: float32 factored common-neighbor counts not exact")
    size = min(size, n)  # one group at most
    groups = -(-n // max(size, 1))
    if size < 1 or groups * groups > 4 * n:
        return None
    first = np.arange(0, n, size)
    group_of = np.arange(n) // size
    neg_u = np.ascontiguousarray(adj[first].T)  # neg_u[i, c]: U[i, c] = -1
    neg_q = neg_u[first]  # neg_q[a, c]: Q[a, c] = -1, the diagonal still +1
    big = np.flatnonzero(np.minimum(size, n - first) >= 3)  # groups of three or more
    one, two = first[big] + 1, first[big] + 2
    neg_q[big, big] = adj[one, two] ^ neg_u[one, big] ^ neg_u[two, big]
    neg_u[first, np.arange(groups)] = neg_q.diagonal()
    neg_wt = neg_u.T ^ neg_q[:, group_of]  # neg_wt[a, j]: W[j, a] = -1
    for s in range(0, n, _TILE):
        e, a = min(s + _TILE, n), s // size
        # U[i, g(j)] for the columns j >= s: each U[i, c] repeated over group c
        miss = np.repeat(neg_u[s:e, a:], size, axis=1)[:, s - a * size:n - a * size]
        miss ^= neg_wt[group_of[s:e], s:]
        miss ^= adj[s:e, s:]
        miss[:, :e - s][np.eye(e - s, dtype=bool)] = False
        if miss.any():
            return None

    q = 1 - 2 * neg_q.astype(np.float32)  # Q, its diagonal d
    d = q.diagonal()
    u = np.zeros((groups * size, groups + 2), dtype=np.float32)  # padded to whole groups
    np.multiply(neg_u, -2, out=u[:n, :groups])
    u[:n, groups] = 2 * deg - 2
    u[:n] += 1  # U, then (N-2) - r_i = 2 deg_i - 1 and the ones
    u3 = u.reshape(groups, size, groups + 2)
    per_uu = max(1, _TILE * n // (8 * groups * groups))
    per_block = max(1, _TILE * n // (8 * size * (groups + 2)))
    k3 = np.empty((min(per_block, groups), size, groups + 2), dtype=np.float32)

    def blocks(a, t, e, coeff):  # rows t:e of group a, columns from group a on
        for c0 in range(a, groups, per_block):
            c1 = min(c0 + per_block, groups)
            k = np.multiply(u3[c0:c1], coeff[c0:c1, None], out=k3[:c1 - c0])
            k[:, :, groups] = 1
            np.subtract(u3[c0:c1, :, groups], n - 2, out=k[:, :, groups + 1])  # -r_j
            block = np.arange(c1 - c0)
            k[block, :, c0 + block] += u3[c0:c1, :, a] * (
                q[a, c0:c1] * (2 - d[a] - d[c0:c1]))[:, None]
            first, stop = max(t, c0 * size), min(c1 * size, n)
            counts = u[t:e] @ k.reshape(-1, groups + 2)[first - c0 * size:stop - c0 * size].T
            counts *= 0.25
            yield slice(first, stop), counts

    def tiles():
        coeff = np.zeros((groups, groups + 2), dtype=np.float32)
        for a in range(groups):
            if a % per_uu == 0:  # UU[h, a, c] for this chunk of groups a
                uu = np.matmul(u3[:, :, a:a + per_uu].transpose(0, 2, 1), u3[:, :, :groups])
            np.multiply(uu[:, a % per_uu].T, q * q[a], out=coeff[:, :groups])
            s = a * size
            for t in range(s, min(s + size, n), _TILE):
                e = min(t + _TILE, s + size, n)
                yield slice(t, e), blocks(a, t, e, coeff)

    return tiles()


def _common_neighbors(adj: np.ndarray, i: int, j: int) -> int:
    return int(np.count_nonzero(adj[i] & adj[j]))


def srg_check(g: Graph, group: int | None = None) -> Certificate:
    """Exhaustively count degrees and common neighbors; no formulas trusted.

    lambda and mu are counted at vertex 0 and its first neighbor and first
    non-neighbor, the first pairs of each kind in a regular graph.  With a
    ``group`` size the counts come from the rank-one blocks of the sign
    matrix over consecutive groups of that many vertices (_factored_tiles),
    once every pair is checked against them; otherwise, or when a block is
    not rank one, from the dense A·A.  ``counting`` names the product used.
    """
    adj, n = g.adj, g.order
    if n == 0:
        return Certificate(False, None, "empty graph")
    deg = np.count_nonzero(adj, axis=1)
    irregular = np.flatnonzero(deg != deg[0])
    if irregular.size:
        i = irregular[0]
        witness = f"degree {deg[i]} at vertex {i} differs from {deg[0]} at vertex 0"
        return Certificate(False, None, witness)
    k = int(deg[0])
    lam = _common_neighbors(adj, 0, int(adj[0].argmax())) if k else 0
    mu = _common_neighbors(adj, 0, int(adj[0, 1:].argmin()) + 1) if k < n - 1 else None
    other = -1 if mu is None else mu  # no non-adjacent pair when mu is None

    def off(counts, rows, cols):  # counts != (lam if adjacent else other), in bool ops
        miss = counts != other
        return miss ^ (adj[rows, cols] & (miss ^ (counts != lam)))

    tiles = None if group is None else _factored_tiles(adj, group, deg)
    counting = "dense" if tiles is None else "factored"
    pair = _first_marked(_dense_tiles(adj) if tiles is None else tiles, off)
    if pair is not None:
        i, j = pair
        name = "adjacent" if adj[i, j] else "non-adjacent"
        return Certificate(False, None, f"{name} pair ({i},{j}) has "
                           f"{_common_neighbors(adj, i, j)} common neighbors", counting)
    return Certificate(True, SRGParams(n, k, lam, mu), counting=counting)


def _welch_beta(m: int, n: int) -> Fraction:
    """The Welch bound of (M, N) as a Fraction; ValueError when irrational."""
    sq = welch_bound(m, n).squared  # positive, in lowest terms
    num, den = isqrt(sq.numerator), isqrt(sq.denominator)
    if num * num != sq.numerator or den * den != sq.denominator:
        raise ValueError(f"irrational Welch bound for (M,N)=({m},{n})")
    return Fraction(num, den)


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ValueError(f"{what} = {x} is not an integer")
    return x.numerator


def srg_params_waldron(m: int, n: int) -> SRGParams:
    """Closed-form SRG parameters on N-1 vertices for a real M,N frame."""
    beta = _welch_beta(m, n)
    k = Fraction(n, 2) - 1 + (Fraction(n, m) - 2) / (2 * beta)
    v = n - 1
    lam = (3 * k - v - 1) / 2
    mu = k / 2
    return SRGParams(
        v,
        _as_int(k, "k"),
        _as_int(lam, "lambda"),
        _as_int(mu, "mu"),
    )


def srg_params_gs(m: int, n: int) -> SRGParams:
    """Closed-form SRG parameters on N vertices (flat-functional family)."""
    beta = _welch_beta(m, n)
    alpha = Fraction(n, m)
    k = Fraction(n - 1, 2) + (alpha - 1) / (2 * beta)
    lam = Fraction(n, 4) - 1 + (3 * alpha - 4) / (4 * beta)
    mu = Fraction(n, 4) + alpha / (4 * beta)
    return SRGParams(n, _as_int(k, "k"), _as_int(lam, "lambda"), _as_int(mu, "mu"))


def _certified_phases(frame: FrameMatrix, p: int) -> tuple[ETFReport, np.ndarray, int]:
    """(report, phase, step) of a certified ETF whose Gram(i, j), i != j, is
    a positive multiple of zeta_p^(phase // step): negative at step if p = 2.

    Gram(i, j) is a positive multiple of zeta_(m')^f, f its phase, m' =
    lcm(2, m), so m'/p must divide f.  The phases are checked block by
    block over the upper triangle (the remainder only past step 1: on int8
    it is the slow part); the witness is the first failing pair i < j.
    """
    rep, phase = verify_etf(frame, phases=True)
    if not rep.is_etf:
        raise CertificationError(f"input is not a certified ETF: {rep.witness}")
    m2 = lcm(2, frame.order)
    if m2 % p:
        raise ValueError(f"order-{frame.order} Gram values are not {p}-th roots of unity")
    step = m2 // p
    marks = np.empty((_TILE, _TILE), dtype=bool)  # one buffer for every block's marks

    def missing(block, rows, cols):
        out = np.less(block, 0, out=marks[:len(block), :block.shape[1]])
        if step > 1:
            out |= block % step != 0
        return out

    pair = _first_marked(_square_tiles(phase), missing)
    if pair is not None:
        raise ValueError(f"Gram entry at ({pair[0]},{pair[1]}) is not a {p}-th root of unity")
    return rep, phase, step


@dataclass(frozen=True)
class SRGResult:
    graph: Graph  # positive-adjacent: i ~ j iff the (switched) Gram value is positive
    params: SRGParams
    counting: str  # the product that counted it: "factored" or "dense"


def _point_group(frame: FrameMatrix) -> int | None:
    """The R + 1 columns of each point of a Steiner or Tremain frame, R the
    replication number of its triple system: its sign graphs' group size."""
    sts = getattr(frame.provenance, "sts", None)
    return None if sts is None else sts.replication + 1


def _sign_adjacency(phase: np.ndarray, k: int, flip=None) -> np.ndarray:
    """phase[:k, :k] == 0 (a positive Gram value), switched by ``flip`` (k,)
    when given and with its diagonal cleared, as a (k, k) bool array made in
    phase's own buffer: phase becomes that array.

    ``phase`` is an N x N int8 or int16 array that owns its memory and has
    no view left.  Row tile by row tile, the comparison is written to the
    buffer's leading k^2 bytes: row i goes to byte i k, never past byte
    i N itemsize where it is read from, so a forward walk never overwrites
    a row it has yet to read.  The buffer then shrinks in place to those
    bytes, so the adjacency is the one N x N array held, with no copy.
    """
    phase.flags.writeable = True
    out = phase.reshape(-1).view(np.bool_)  # the buffer's bytes
    for s in range(0, k, _TILE):
        e = min(s + _TILE, k)
        tile = phase[s:e, :k] == 0
        if flip is not None:  # switching flips bit (i, j) once for each flipped end
            tile ^= flip[s:e, None]
            tile ^= flip
        np.fill_diagonal(tile[:, s:e], False)
        out[s * k:s * k + tile.size] = tile.ravel()
    del out  # no view may outlive the buffer's move
    phase.dtype = np.bool_
    phase.resize((k, k), refcheck=False)  # the callers' names are phase itself, not views
    return phase


def _certify_sign_graph(adj: np.ndarray, expected: SRGParams, what: str,
                        group: int | None) -> SRGResult:
    """Count the positive-adjacent sign graph once and hold it to its
    closed form.  ``adj`` is the phase buffer _sign_adjacency took over,
    which only the caller holds: the graph takes it without a copy."""
    g = Graph.from_adjacency(adj)
    cert = srg_check(g, group)
    if not cert.ok:
        raise CertificationError(f"{what} is not strongly regular: {cert.witness}")
    if cert.params != expected:
        raise CertificationError(f"{what}: counted parameters {cert.params.as_tuple()} "
                                 f"!= closed form {expected.as_tuple()}")
    return SRGResult(g, cert.params, cert.counting)


def waldron_srg(frame: FrameMatrix) -> SRGResult:
    """Switch the Gram signs against the last vector, drop it and certify the
    graph on the first N-1 vectors: i ~ j iff their switched Gram value is positive."""
    _, phase, _ = _certified_phases(frame, 2)
    n = frame.count
    flip = phase[:n - 1, n - 1] != 0  # out of the buffer before it is overwritten
    adj = _sign_adjacency(phase, n - 1, flip)
    expected = srg_params_waldron(frame.dim, frame.count)
    return _certify_sign_graph(adj, expected, "waldron graph", _point_group(frame))


@dataclass(frozen=True, eq=False)
class FlatFunctional:
    """Vector x with <x, column> = 1 for all columns, stored 3x scaled.

    3x is held in the frame's row grading: coordinate r of 3x is
    graded[r] * sqrt(weights[r]), an integer times the row's surd (3x has
    sqrt(6) in its last coordinate where x itself would need sqrt(2/3)).
    Certificates check <3x, column> = 3 instead, clearing the denominator.
    """

    graded: np.ndarray  # (M,) int64, read-only
    weights: np.ndarray  # (M,) the frame's row weights
    scale: int


def tremain_flat_functional(frame: FrameMatrix) -> FlatFunctional:
    """The parallel-class indicator functional, exactly certified.

    Requires a frame built from a parallel-class-first embedding with the
    all-ones rows placed per the real construction (first simplex keeps its
    all-ones first row, second simplex removes its all-ones row).
    """
    prov = frame.provenance
    if not isinstance(prov, TremainProvenance):
        raise ValueError("flat functional needs a frame with full provenance")
    if prov.sts.num_points % 3:
        raise ValueError(
            f"V={prov.sts.num_points} is not divisible by 3: no parallel class"
        )
    if prov.embedding.parallel_class is None:
        raise ValueError("frame was not built with a parallel-class-first embedding")
    # 3x in the frame's row grading: 3 on the class rows, and 1 (times sqrt6,
    # 3 * sqrt(2/3)) on the extra row, whose weight is 6; <3x, column j> at
    # scale 2^k in one product.  Only those support rows of the planes are
    # read: they bound the slot sums and make the product.
    rows = [*sorted(prov.embedding.parallel_class), frame.dim - 1]
    graded = np.zeros(frame.dim, dtype=np.int64)
    graded[rows[:-1]] = 3
    graded[-1] = 1
    graded.flags.writeable = False
    support = [p.astype(np.float64) for p in frame.planes[:, rows]]
    left = np.zeros((len(support), 1, len(rows)))
    left[0, 0] = (graded * frame.weights)[rows]
    bound = float(sum(left[0, 0] @ np.abs(p) for p in support).max())
    ips = _cyclic_product(left, support, frame.order, np.matmul, bound, "flat functional")
    target = np.zeros((len(ips), 1), dtype=np.int64)
    target[0] = 3 << frame.k
    bad = (ips[:, 0] != target).any(axis=0)
    if bad.any():
        j = int(bad.argmax())
        raise CertificationError(
            f"column {j}: <x, column> != 1 (scaled value {ips[:, 0, j].tolist()}/2^{frame.k}); "
            "check row-removal conventions and the parallel class"
        )
    return FlatFunctional(graded, frame.weights, 3)


def gs_srg(frame: FrameMatrix, functional: FlatFunctional) -> SRGResult:
    """Graph on all N vectors, i ~ j iff their Gram value is positive: the
    sign pattern the flat functional fixes, with no switching."""
    _, phase, _ = _certified_phases(frame, 2)
    if len(functional.graded) != frame.dim:
        raise ValueError("functional dimension does not match the frame")
    adj = _sign_adjacency(phase, frame.count)
    expected = srg_params_gs(frame.dim, frame.count)
    return _certify_sign_graph(adj, expected, "flat-functional graph", _point_group(frame))


# ---------------------------------------------------------------------------
# distance-regular antipodal covers


def drackn_check(g: Graph, r: int, group: int | None = None) -> Certificate:
    """Verify the three cover axioms by exhaustive counting.

    Fiber f is the r consecutive vertices f*r .. f*r + r - 1.  (i) no edges
    inside a fiber; (ii) a perfect matching between any two fibers; (iii) a
    constant common-neighbor count c over non-adjacent pairs in distinct
    fibers.  Same-fiber pairs are antipodal: (ii) already forces their
    common-neighbor count to zero, so they carry no constant to check.
    Vertex 0 meets fiber 1 once, so the first pair (iii) checks is (0, j),
    j its first non-neighbor past fiber 0, and its count is c.
    Fiber size 1 and the empty graph are rejected: the axioms hold vacuously.

    At r = 2, (ii) leaves the identity or the swap between two fibers: A is
    the Z_2 lift of Q = A[0::2, 1::2], counted by srg_check's tiles (factored
    by ``group`` if they can be).  With x = deg_i + deg_j - 2 (Q·Q)_ij, row
    2i's non-adjacent pair in fiber j is (2i, 2j + 1) with x common neighbors
    if Q_ij = 0, else (2i, 2j) with n - x; rows 2i + 1 mirror rows 2i.
    """
    if r < 2:
        return Certificate(False, None, "fiber size must be at least 2")
    if g.order == 0:
        return Certificate(False, None, "empty graph")
    if g.order % r:
        return Certificate(False, None, "fibers do not cover the graph")
    n_fibers = g.order // r

    # inside[f, t]: vertex f*r + t has a neighbor in its fiber, read off a view of
    # the diagonal blocks of A (indexed [t, u, f])
    inside = np.diagonal(g.adj.reshape(n_fibers, r, n_fibers, r), 0, 0, 2).any(axis=1).T
    if inside.any():
        fi, t = np.unravel_index(inside.argmax(), inside.shape)
        return Certificate(False, None, f"edge inside fiber {fi} at vertex {fi * r + t}")
    # A·F in tiles of whole fibers: hits[f, t, f2] = (A·F)[(f0 + f)*r + t, f2], the
    # sum of the r strided column slices (a sum over a size-r axis is ~10x slower)
    per_tile = max(1, _TILE // r)
    for f0 in range(0, n_fibers, per_tile):
        f1 = min(f0 + per_tile, n_fibers)
        rows = g.adj[f0 * r:f1 * r]
        hits = rows[:, 0::r].astype(np.min_scalar_type(r))
        for k in range(1, r):
            hits += rows[:, k::r]
        hits.shape = (f1 - f0, r, n_fibers)
        unmatched = hits.transpose(0, 2, 1) != 1
        unmatched[np.arange(f1 - f0), np.arange(f0, f1)] = False
        if unmatched.any():
            fi, fj, t = np.unravel_index(unmatched.argmax(), unmatched.shape)
            return Certificate(False, None, f"vertex {(f0 + fi) * r + t} has "
                               f"{hits[fi, t, fj]} neighbors in fiber {fj}, not 1")

    c_val = _common_neighbors(g.adj, 0, int(g.adj[0, r:].argmin()) + r) if n_fibers > 1 else 0
    if r == 2:
        a = g.adj[0::2, 1::2]  # Q
        deg = np.count_nonzero(a, axis=1).astype(np.float32)
        tiles = None if group is None else _factored_tiles(a, group, deg)

        def off(counts, rows, cols):
            x = deg[rows, None] + deg[cols] - 2 * counts
            return np.where(a[rows, cols], n_fibers - x, x) != c_val
    else:
        tiles, a, fiber_of = None, g.adj, np.arange(g.order) // r

        def off(counts, rows, cols):
            return (counts != c_val) & ~a[rows, cols] & (fiber_of[rows, None] != fiber_of[cols])

    counting = "dense" if tiles is None else "factored"
    pair = _first_marked(_dense_tiles(a) if tiles is None else tiles, off)
    if pair is None:
        return Certificate(True, (n_fibers, r, c_val), counting=counting)
    i, j = pair if r > 2 else (2 * pair[0], 2 * pair[1] + 1 - int(a[pair]))
    witness = f"non-adjacent pair ({i},{j}) has {_common_neighbors(g.adj, i, j)} common neighbors"
    return Certificate(False, None, f"{witness}, expected {c_val}", counting)


def drackn_params(m: int, n: int, p: int) -> int:
    """Common-neighbor count c, cross-checked between the two closed forms.

    Evaluates (N - 2 + (2M - N)/(beta M))/p exactly; when (M, N) sit on the
    Tremain curve N = h(2h+1), M = (h+1)(2h+1)/3, the value must also equal
    2h^2/p.
    """
    beta = _welch_beta(m, n)
    c = Fraction(n - 2 + Fraction(2 * m - n) / (beta * m), p)
    c_int = _as_int(c, "c")
    disc = 1 + 8 * n
    root = isqrt(disc)
    if root * root == disc and (root - 1) % 4 == 0:
        h = (root - 1) // 4
        if m * 3 == (h + 1) * (2 * h + 1) and n == h * (2 * h + 1):
            closed = Fraction(2 * h * h, p)
            if closed != c:
                raise ValueError(
                    f"closed form 2h^2/p = {closed} disagrees with {c} "
                    f"for (M,N,p)=({m},{n},{p})"
                )
    return c_int


def require_prime(p: int) -> None:
    """ValueError unless ``p``, the fiber size of a cover, is a prime."""
    if not _is_prime(p):
        raise ValueError(f"p must equal a prime, got {p}")


@dataclass(frozen=True)
class CoverResult:
    graph: Graph
    params: tuple[int, int, int]  # (n, p, c): fiber f is the vertices f*p .. f*p + p - 1
    counting: str  # the product that counted it: "factored" or "dense"


def drackn_cover(frame: FrameMatrix, p: int) -> CoverResult:
    """Antipodal cover on N*p vertices from a frame with root-of-unity Gram.

    Vertex (i, a) is index i*p + a; fibers are the p copies of each vector;
    for i < j, (i, a) ~ (j, b) iff Gram(i, j) = zeta_p^(b - a), the exponent
    read off exactly.  The result must pass drackn_check.
    """
    require_prime(p)
    n = frame.count
    _refuse_array((n * p, n * p), "cover adjacency")
    rep, phase, step = _certified_phases(frame, p)
    if rep.gram_abs_sq != 1:  # every pair misses; the first one is the witness
        raise ValueError(f"Gram entry at (0,1) is not a {p}-th root of unity")
    # adj[i, a, j, b] iff the exponent of Gram(i, j) is (b - a) mod p; below the
    # diagonal this mirrors the upper half, as phase[j, i] is -phase[i, j]
    b_minus_a = ((np.arange(p) - np.arange(p)[:, None]) % p).astype(phase.dtype)
    adj = np.empty((n, p, n, p), dtype=bool)
    for s in range(0, n, _TILE):
        exps = phase[s:s + _TILE] // step
        np.equal(exps[:, None, :, None], b_minus_a[:, None, :], out=adj[s:s + _TILE])
    adj[np.arange(n), :, np.arange(n)] = False  # no edges inside a fiber
    adj.shape = (n * p, n * p)
    del phase  # counting holds only the adjacency
    g = Graph(adj)
    cert = drackn_check(g, p, _point_group(frame))
    if not cert.ok:
        raise CertificationError(f"cover failed certification: {cert.witness}")
    return CoverResult(g, cert.params, cert.counting)


# ---------------------------------------------------------------------------
# graph I/O


def _graph6_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise ValueError("graph too large for this graph6 writer")


def _graph6_body(adj: np.ndarray):
    """The graph6 body bytes, in runs of rows a .. b - 1 that hold at most
    _TILE^2 bits, (b (b - 1) - a (a - 1)) / 2, or of one row: the upper
    triangle column by column is, by symmetry, the lower one row by row.
    The bits of a run that do not fill a 6-bit group are carried on."""
    n = adj.shape[0]
    carry = np.zeros(0, dtype=bool)
    a = 1  # row 0 has no bits
    while a < n:
        b = min(n, max(a + 1, (1 + isqrt(1 + 4 * a * (a - 1) + 8 * _TILE * _TILE)) // 2))
        run = adj[a:b, :b - 1]
        bits = np.concatenate([carry, run[np.arange(b - 1) < np.arange(a, b)[:, None]]])
        whole = len(bits) - len(bits) % 6
        carry = bits[whole:]
        yield _six_bit_bytes(bits[:whole])
        a = b
    yield _six_bit_bytes(np.pad(carry, (0, -len(carry) % 6)))


def _six_bit_bytes(bits: np.ndarray) -> bytes:
    """Each group of 6 bits, high bit first, as one byte offset by 63: six
    shifted columns OR-ed together, about five times faster than
    np.packbits along an axis of length 6."""
    six = bits.reshape(-1, 6).view(np.uint8)
    out = six[:, 0] << 5
    for b in range(1, 6):
        out |= six[:, b] << (5 - b)
    out += 63
    return out.tobytes()


def _graph6_parse(data: bytes) -> Graph:
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    raw = np.frombuffer(data, dtype=np.uint8)
    if not raw.size or raw.min() < 63 or raw.max() > 126:
        raise ValueError("graph6 data is empty or has bytes outside 63..126")
    if data[0] == 126:
        if data[1:2] == b"~":
            raise ValueError("graph6 long-long size not supported")
        if len(data) < 4:
            raise ValueError("graph6 size header is truncated")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = raw[4:]
    else:
        n = data[0] - 63
        body = raw[1:]
    _refuse_array((n, n), "adjacency")
    need = -(-n * (n - 1) // 12)  # ceil(n(n-1)/2 bits / 6 bits per byte)
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, {n} vertices need {need}")
    adj = np.zeros((n, n), dtype=bool)
    done = 0  # bits placed so far
    for s in range(0, n, _TILE):
        e = min(s + _TILE, n)
        size = (s + e - 1) * (e - s) // 2  # rows s:e hold s, s+1, ..., e-1 bits
        first = done // 6  # the body byte that holds bit `done`
        six = np.unpackbits((body[first:-(-(done + size) // 6)] - 63)[:, None], axis=1)
        tile = adj[s:e]
        tile[np.arange(n) < np.arange(s, e)[:, None]] = six[:, 2:].ravel()[done - 6 * first:][:size]
        adj[:s, s:e] = tile[:, :s].T  # mirror into the rows above
        corner = adj[s:e, s:e]
        corner |= corner.T
        done += size
    return Graph(adj)


def export_graph(
    path: str | Path,
    g: Graph,
    fmt: str = "graph6",
    fibers: int | None = None,
) -> None:
    """graph6 (standard bit packing) or edge list with n/p header lines.

    ``fibers`` is a cover's fiber size r, written as the edge list's ``p r``
    line: fiber f is the vertices f*r .. f*r + r - 1.
    """
    path = Path(path)
    if fmt == "graph6":
        head = _graph6_header(g.order)
        with path.open("wb") as fh:
            fh.write(head)
            fh.writelines(_graph6_body(g.adj))
            fh.write(b"\n")
    elif fmt == "edges":
        with path.open("w") as fh:
            fh.write(f"n {g.order}\n")
            if fibers is not None:
                fh.write(f"p {fibers}\n")
            _write_lines(fh, g.order, _edge_runs(g.adj))
    else:
        raise ValueError(f"unknown graph format {fmt!r}")


def load_graph(path: str | Path) -> tuple[Graph, int | None]:
    """Inverse of export_graph: the graph and the fiber size of its ``p``
    line, if any; detects the format from the content."""
    data = Path(path).read_bytes()
    try:
        if not data.lstrip().startswith(b"n "):
            return _graph6_parse(data), None
        return _edge_list_parse(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _edge_list_parse(data: bytes) -> tuple[Graph, int | None]:
    lines = [ln.split() for ln in data.decode().split("\n") if ln.strip()]
    if len(lines[0]) != 2:
        raise ValueError(f"bad header {' '.join(lines[0])!r}")
    order = _count_field(lines[0][1], "vertex count")
    _refuse_array((order, order), "adjacency")
    edge_lines = lines[1:]
    size = None
    if edge_lines and edge_lines[0][0] == "p" and len(edge_lines[0]) == 2:
        size = _count_field(edge_lines[0][1], "fiber size")
        edge_lines = edge_lines[1:]
    edges = []
    for t in edge_lines:
        if len(t) != 2:
            raise ValueError(f"edge line {' '.join(t)!r} does not have two vertices")
        u, v = (_count_field(x, "vertex") for x in t)
        if max(u, v) >= order:  # checked here: huge ints would overflow int64
            raise ValueError(f"edge ({u},{v}) leaves the vertex range [0,{order})")
        edges.append((u, v))
    g = Graph.from_edges(order, edges)  # before the fibers: refuses a huge order first
    if size is not None and (size < 1 or order % size):
        raise ValueError(f"fiber size {size} does not split {order} vertices")
    return g, size


def _count_field(token: str, what: str) -> int:
    """A non-negative integer field of an edge list."""
    try:
        value = int(token)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{what} {token!r} is not a non-negative integer")
    return value
