"""Strongly regular graphs and antipodal covers derived from certified ETFs.

The builders read their graph off the Gram phases in the exact pass that
certifies the frame (verify_etf with a ``phases`` sink, in _phase_graph):
covers take each Gram value's p-th-root exponent, the SRGs its sign (p =
2), positive-adjacent.  Each block's edges go straight into the graph's
bits, so a derive run holds one bit per vertex pair (Graph.bits) from the
Gram pass to the export, and every reader unpacks bool tiles on demand.
Certification is pure counting: degrees are popcounts and common-neighbor
counts the entries of A·A, each row tile times each block of _TILE
columns (A[:, c:c2] = A[c:c2].T) in float32 (exact below 2^24).  The
sign graphs of a Steiner or Tremain frame have a second product: two
points share one block, so over the R + 1 vertices of each point every
block of the Seidel matrix J - I - 2A is rank one (Fickus, Mixon and
Tremain, Steiner equiangular tight frames, 2012); srg_check checks every
pair against those factors and counts in O(N^2 G) for G groups.  Covers of the
complete graph need fiber matchings, read off A·F for the fiber
indicator F, and a constant count over non-adjacent pairs in distinct
fibers, fiber f being the r consecutive vertices f*r .. f*r + r - 1; a
p = 2 cover is the Z_2 lift of an N-vertex quotient (Godsil and Hensel
1992), counted by either product.  Only _certify reads the closed forms.
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


class Graph:
    """A simple graph on vertices 0 .. n - 1, held at one bit per vertex pair.

    ``bits`` is a read-only (n, ceil(n/8)) uint8 array, row i adjacency row
    i as np.packbits packs it, its padding bits clear.  g[rows] and g[rows,
    cols] (slices) are bool tiles unpacked from the bytes that hold them;
    len(g) is n.  Graph(adj) packs a dense square array and leaves it as it
    was; from_adjacency also takes packed rows.  Both are checked for loops
    and, block by block, symmetry."""

    __slots__ = ("bits", "order")

    def __new__(cls, adj) -> Graph:
        adj = np.asarray(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency of shape {adj.shape} is not square")
        return cls._packed(np.packbits(adj, axis=1), len(adj), check=True)

    @classmethod
    def _packed(cls, bits: np.ndarray, n: int, check: bool = False) -> Graph:
        """The graph on n vertices' packed rows, checked first with ``check``."""
        g = object.__new__(cls)
        g.bits, g.order = bits, n
        if check:
            g._check()
        bits.flags.writeable = False
        return g

    def _check(self) -> None:
        bits, n = self.bits, self.order
        if bits.shape != (n, -(-n // 8)):
            raise ValueError(f"packed rows of shape {bits.shape} do not hold {n} vertices")
        if n % 8 and (bits[:, -1] & 0xFF >> n % 8).any():
            raise ValueError(f"bits set past vertex {n - 1}")
        loops = np.flatnonzero(self.adjacent(np.arange(n), np.arange(n)))
        if loops.size:
            raise ValueError(f"loop at vertex {loops[0]}")
        pair = _first_marked(_square_tiles(self),
                             lambda block, rows, cols: block != self[cols, rows].T)
        if pair is not None:
            raise ValueError(f"adjacency is not symmetric at pair ({pair[0]},{pair[1]})")

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
        bits = np.zeros((order, -(-order // 8)), dtype=np.uint8)
        u, v = np.concatenate([e, e[:, ::-1]]).T  # both ends of every edge
        np.bitwise_or.at(bits, (u, v >> 3), (0x80 >> (v & 7)).astype(np.uint8))
        return cls._packed(bits, order)

    @classmethod
    def from_adjacency(cls, adj: np.ndarray, order: int | None = None) -> Graph:
        """Graph(adj) for a dense ``adj``; given the ``order`` n, ``adj`` is the
        packed rows instead, held without a copy when it owns its memory."""
        return cls(adj) if order is None else cls._packed(_adopted(adj, np.uint8), order, True)

    def __len__(self) -> int:
        return self.order

    def __reduce__(self):  # pickled and copied as its packed rows
        return Graph._packed, (self.bits, self.order)

    def __getitem__(self, key) -> np.ndarray:
        """The bool tile g[rows] (every column) or g[rows, cols]; ``cols`` steps by 1."""
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))
        c0, c1, _ = cols.indices(self.order)
        a = c0 // 8
        tile = np.unpackbits(self.bits[rows, a:-(-c1 // 8)], axis=1, count=max(c1 - 8 * a, 0))
        return tile[:, c0 - 8 * a:].view(np.bool_)

    def adjacent(self, i, j) -> np.ndarray:
        """A[i, j] for vertices, or arrays of vertices, i and j."""
        j = np.asarray(j)
        return (self.bits[i, j >> 3] >> (7 - (j & 7)) & 1).astype(bool)

    def degrees(self) -> np.ndarray:
        """Every vertex's degree: popcounts of a tile of rows at a time."""
        deg = np.zeros(self.order, dtype=np.int64)
        for s in range(0, self.order, _TILE):
            deg[s:s + _TILE] = np.bitwise_count(self.bits[s:s + _TILE]).sum(axis=1)
        return deg

    @property
    def adj(self) -> np.ndarray:
        """The whole n x n bool adjacency, made anew, read-only; never read here."""
        a = self[0:self.order]
        a.flags.writeable = False
        return a


_BIT_WEIGHTS = (0x80 >> np.arange(8)).astype(np.uint8)  # bit 7 - t of a byte, t = 0 .. 7


def _put(bits: np.ndarray, row: int, col: int, block: np.ndarray, transpose=False) -> None:
    """OR a bool block, or its transpose, into packed rows at (row, col); a
    transpose is packed by a product with the bit weights (np.packbits of a
    transposed array reads strided memory, about ten times slower)."""
    shift = col % 8
    if transpose:
        padded = np.zeros((-(-(shift + len(block)) // 8) * 8, block.shape[1]), dtype=np.uint8)
        padded[shift:shift + len(block)] = block
        packed = np.einsum("bkj,k->jb", padded.reshape(-1, 8, block.shape[1]), _BIT_WEIGHTS)
    else:
        packed = np.packbits(np.pad(block, ((0, 0), (shift, 0))) if shift else block, axis=1)
    bits[row:row + len(packed), col // 8:col // 8 + packed.shape[1]] |= packed


def _edge_runs(g: Graph):
    """The edges u < v as (L, 2) arrays of (u, v), in runs of the rows of a
    row tile that hold at most _WRITE_LINES edges (one row when it holds more)."""
    for s in range(0, g.order, _TILE):
        upper = np.triu(g[s:s + _TILE, s:], 1)  # columns from s on
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


def _dense_tiles(g: Graph):
    """A·A as _first_marked's tiles: each tile of _TILE rows times each
    block of _TILE rows of A from the tile's first row on, both in float32
    (A[:, c:c2] is A[c:c2].T by symmetry)."""
    n = g.order
    if n - 2 >= _FLOAT32_EXACT:
        raise ValueError(f"{n} vertices: float32 common-neighbor counts not exact")
    for s in range(0, n, _TILE):
        x = g[s:s + _TILE].astype(np.float32)
        yield slice(s, s + len(x)), (
            (slice(c, min(c + _TILE, n)), x @ g[c:c + _TILE].astype(np.float32).T)
            for c in range(s, n, _TILE)
        )


def _factored_tiles(g: Graph, size: int, deg: np.ndarray):
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
    n = g.order
    if 4 * n > _FLOAT32_EXACT:
        raise ValueError(f"{n} vertices: float32 factored common-neighbor counts not exact")
    size = min(size, n)  # one group at most
    groups = -(-n // max(size, 1))
    if size < 1 or groups * groups > 4 * n:
        return None
    first = np.arange(0, n, size)
    group_of = np.arange(n) // size
    neg_u = np.ascontiguousarray(g[0:n:size].T)  # neg_u[i, c]: U[i, c] = -1
    neg_q = neg_u[first]  # neg_q[a, c]: Q[a, c] = -1, the diagonal still +1
    big = np.flatnonzero(np.minimum(size, n - first) >= 3)  # groups of three or more
    one, two = first[big] + 1, first[big] + 2
    neg_q[big, big] = g.adjacent(one, two) ^ neg_u[one, big] ^ neg_u[two, big]
    neg_u[first, np.arange(groups)] = neg_q.diagonal()
    neg_wt = neg_u.T ^ neg_q[:, group_of]  # neg_wt[a, j]: W[j, a] = -1
    for s in range(0, n, _TILE):
        e, a = min(s + _TILE, n), s // size
        # U[i, g(j)] for the columns j >= s: each U[i, c] repeated over group c
        miss = np.repeat(neg_u[s:e, a:], size, axis=1)[:, s - a * size:n - a * size]
        miss ^= neg_wt[group_of[s:e], s:]
        miss ^= g[s:e, s:]
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


def _common_neighbors(g: Graph, i: int, j: int) -> int:
    return int(np.bitwise_count(g.bits[i] & g.bits[j]).sum())


def srg_check(g: Graph, group: int | None = None) -> Certificate:
    """Exhaustively count degrees and common neighbors; no formulas trusted.

    lambda and mu are counted at vertex 0 and its first neighbor and first
    non-neighbor, the first pairs of each kind in a regular graph.  With a
    ``group`` size the counts come from the rank-one blocks of the sign
    matrix over consecutive groups of that many vertices (_factored_tiles),
    once every pair is checked against them; otherwise, or when a block is
    not rank one, from the dense A·A.  ``counting`` names the product used.
    """
    n = g.order
    if n == 0:
        return Certificate(False, None, "empty graph")
    deg = g.degrees()
    irregular = np.flatnonzero(deg != deg[0])
    if irregular.size:
        i = irregular[0]
        witness = f"degree {deg[i]} at vertex {i} differs from {deg[0]} at vertex 0"
        return Certificate(False, None, witness)
    k = int(deg[0])
    row = g[0:1][0]
    lam = _common_neighbors(g, 0, int(row.argmax())) if k else 0
    mu = _common_neighbors(g, 0, int(row[1:].argmin()) + 1) if k < n - 1 else None
    other = -1 if mu is None else mu  # no non-adjacent pair when mu is None

    def off(counts, rows, cols):  # counts != (lam if adjacent else other), in bool ops
        miss = counts != other
        return miss ^ (g[rows, cols] & (miss ^ (counts != lam)))

    tiles = None if group is None else _factored_tiles(g, group, deg)
    counting = "dense" if tiles is None else "factored"
    pair = _first_marked(_dense_tiles(g) if tiles is None else tiles, off)
    if pair is not None:
        i, j = pair
        name = "adjacent" if g.adjacent(i, j) else "non-adjacent"
        return Certificate(False, None, f"{name} pair ({i},{j}) has "
                           f"{_common_neighbors(g, i, j)} common neighbors", counting)
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
    return SRGParams(v, _as_int(k, "k"), _as_int(lam, "lambda"), _as_int(mu, "mu"))


def srg_params_gs(m: int, n: int) -> SRGParams:
    """Closed-form SRG parameters on N vertices (flat-functional family)."""
    beta = _welch_beta(m, n)
    alpha = Fraction(n, m)
    k = Fraction(n - 1, 2) + (alpha - 1) / (2 * beta)
    lam = Fraction(n, 4) - 1 + (3 * alpha - 4) / (4 * beta)
    mu = Fraction(n, 4) + alpha / (4 * beta)
    return SRGParams(n, _as_int(k, "k"), _as_int(lam, "lambda"), _as_int(mu, "mu"))


def _phase_graph(frame: FrameMatrix, p: int, r: int, k: int) -> tuple[ETFReport, np.ndarray]:
    """(report, bits) of a certified ETF whose Gram(i, j), i != j, is a positive
    multiple of zeta_p^e: each block of phases f = e m'/p (m' = lcm(2, m)) is
    checked (the first failing pair i < j raised after the ETF verdict) and
    written with its transpose into the packed rows of the graph on vertices
    (i, a) = i r + a, i < k, fibers of r (1 or p), (i, a) ~ (j, b) iff e(i, j)
    = b - a mod r; at k = N - 1 switched against vector k (Waldron)."""
    n, m2 = frame.count, lcm(2, frame.order)
    step = m2 // p if m2 % p == 0 else None
    b_minus_a = (np.arange(r) - np.arange(r)[:, None]) % r
    flip = np.zeros(k, dtype=bool) if k < n else None
    bits, misses = np.zeros((k * r, -(-k * r // 8)), dtype=np.uint8), []

    def sink(phase, rows, cols):
        miss = phase < 0
        if step > 1:
            miss |= phase % step != 0
        corner = cols.start == rows.start  # the diagonal block: pairs i < j only
        if corner:
            miss &= ~np.tri(*miss.shape, dtype=bool)
        if miss.any():
            misses.append(tuple(np.argwhere(miss)[0] + (rows.start, cols.start)))
        i1, j1 = min(rows.stop, k) - rows.start, min(cols.stop, k) - cols.start
        if flip is not None and cols.start <= k < cols.stop:
            flip[rows.start:rows.start + i1] = phase[:i1, k - cols.start] != 0
        if i1 > 0 and j1 > 0:
            e = phase[:i1, :j1] // step if step > 1 else phase[:i1, :j1]
            edge = (e[:, None, :, None] == b_minus_a[:, None, :]).reshape(i1 * r, j1 * r)
            if corner:
                edge = np.triu(edge, 1)
            _put(bits, rows.start * r, cols.start * r, edge)
            _put(bits, cols.start * r, rows.start * r, edge, transpose=True)

    rep = verify_etf(frame, phases=step and sink)
    if not rep.is_etf:
        raise CertificationError(f"input is not a certified ETF: {rep.witness}")
    if step is None:
        raise ValueError(f"order-{frame.order} Gram values are not {p}-th roots of unity")
    if misses:
        i, j = min(misses)
        raise ValueError(f"Gram entry at ({i},{j}) is not a {p}-th root of unity")
    if flip is not None:
        bits ^= np.packbits(flip)
        np.bitwise_xor(bits, np.packbits(np.ones(k, dtype=bool)), out=bits, where=flip[:, None])
    return rep, bits


def _point_group(frame: FrameMatrix) -> int | None:
    """The R + 1 columns of each point of a Steiner or Tremain frame, R the
    replication number of its triple system: its sign graphs' group size."""
    sts = getattr(frame.provenance, "sts", None)
    return None if sts is None else sts.replication + 1


@dataclass(frozen=True)
class CertifiedGraph:
    """A sign graph, positive-adjacent (i ~ j iff the (switched) Gram value
    is positive), or a cover with params (n, p, c), fiber f the vertices
    f*p .. f*p + p - 1: counted once and equal to its closed form."""

    graph: Graph
    params: SRGParams | tuple[int, int, int]
    counting: str  # the product that counted it: "factored" or "dense"


def _certify(bits: np.ndarray, order: int, count, expected, name: str) -> CertifiedGraph:
    """Build the graph on the packed rows ``bits`` that only the caller holds,
    count it once with ``count`` (srg_check or drackn_check, given the
    frame's group size) and raise unless it meets the closed form ``expected``."""
    g = Graph.from_adjacency(bits, order)
    cert = count(g)
    srg = isinstance(expected, SRGParams)
    if not cert.ok:
        verdict = "is not strongly regular" if srg else "failed certification"
        raise CertificationError(f"{name} {verdict}: {cert.witness}")
    if cert.params != expected:
        got, want = (x.as_tuple() if srg else x for x in (cert.params, expected))
        raise CertificationError(f"{name}: counted parameters {got} != closed form {want}")
    return CertifiedGraph(g, cert.params, cert.counting)


def waldron_srg(frame: FrameMatrix) -> CertifiedGraph:
    """Switch the Gram signs against the last vector, drop it and certify the
    graph on the first N-1 vectors: i ~ j iff their switched Gram value is positive."""
    n = frame.count
    _, bits = _phase_graph(frame, 2, 1, n - 1)
    return _certify(bits, n - 1, lambda g: srg_check(g, _point_group(frame)),
                    srg_params_waldron(frame.dim, n), "waldron graph")


def tremain_flat_functional(frame: FrameMatrix) -> np.ndarray:
    """The parallel-class indicator functional x, exactly certified, as 3x
    in the frame's row grading: a read-only (M,) int64 array whose entry r
    times sqrt(frame.weights[r]) is coordinate r of 3x (3x has sqrt(6) in
    its last coordinate where x itself would need sqrt(2/3)).  The
    certificate checks <3x, column> = 3, clearing the denominator.

    Requires a frame built from a parallel-class-first embedding with the
    all-ones rows placed per the real construction (first simplex keeps its
    all-ones first row, second simplex removes its all-ones row).
    """
    prov = frame.provenance
    if not isinstance(prov, TremainProvenance):
        raise ValueError("flat functional needs a frame with full provenance")
    if prov.sts.num_points % 3:
        raise ValueError(f"V={prov.sts.num_points} is not divisible by 3: no parallel class")
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
    return graded


def gs_srg(frame: FrameMatrix) -> CertifiedGraph:
    """Graph on all N vectors, i ~ j iff their Gram value is positive: the
    sign pattern the frame's flat functional fixes, with no switching.  The
    ETF certificate comes first, then the functional's, then the graph's."""
    _, bits = _phase_graph(frame, 2, 1, frame.count)
    tremain_flat_functional(frame)
    return _certify(bits, frame.count, lambda g: srg_check(g, _point_group(frame)),
                    srg_params_gs(frame.dim, frame.count), "flat-functional graph")


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

    # inside[f, t]: vertex f*r + t has a neighbor in its fiber, read off the bits
    fiber = np.arange(g.order).reshape(n_fibers, r)
    inside = g.adjacent(fiber[:, :, None], fiber[:, None, :]).any(axis=2)
    if inside.any():
        fi, t = np.unravel_index(inside.argmax(), inside.shape)
        return Certificate(False, None, f"edge inside fiber {fi} at vertex {fi * r + t}")
    # A·F in tiles of whole fibers: hits[f, t, f2] = (A·F)[(f0 + f)*r + t, f2], the
    # sum of the r strided column slices (a sum over a size-r axis is ~10x slower)
    per_tile = max(1, _TILE // r)
    for f0 in range(0, n_fibers, per_tile):
        f1 = min(f0 + per_tile, n_fibers)
        rows = g[f0 * r:f1 * r]
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

    c_val = _common_neighbors(g, 0, int(g[0:1, r:].argmin()) + r) if n_fibers > 1 else 0
    if r == 2:
        # Q = A[0::2, 1::2], symmetric with a clear diagonal once the fibers match
        q = np.empty((n_fibers, -(-n_fibers // 8)), dtype=np.uint8)
        for s in range(0, n_fibers, _TILE):
            q[s:s + _TILE] = np.packbits(g[2 * s:2 * (s + _TILE):2][:, 1::2], axis=1)
        a = Graph._packed(q, n_fibers)
        deg = a.degrees().astype(np.float32)
        tiles = None if group is None else _factored_tiles(a, group, deg)

        def off(counts, rows, cols):
            x = deg[rows, None] + deg[cols] - 2 * counts
            return np.where(a[rows, cols], n_fibers - x, x) != c_val
    else:
        tiles, a, fiber_of = None, g, np.arange(g.order) // r

        def off(counts, rows, cols):
            return (counts != c_val) & ~a[rows, cols] & (fiber_of[rows, None] != fiber_of[cols])

    counting = "dense" if tiles is None else "factored"
    pair = _first_marked(_dense_tiles(a) if tiles is None else tiles, off)
    if pair is None:
        return Certificate(True, (n_fibers, r, c_val), counting=counting)
    i, j = pair if r > 2 else (2 * pair[0], 2 * pair[1] + 1 - int(a.adjacent(*pair)))
    witness = f"non-adjacent pair ({i},{j}) has {_common_neighbors(g, i, j)} common neighbors"
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


def drackn_cover(frame: FrameMatrix, p: int) -> CertifiedGraph:
    """Antipodal cover on N*p vertices from a frame with root-of-unity Gram.

    Vertex (i, a) is index i*p + a; fibers are the p copies of each vector;
    for i < j, (i, a) ~ (j, b) iff Gram(i, j) = zeta_p^(b - a), the exponent
    read off exactly.  The result must pass drackn_check with the closed
    form (N, p, drackn_params(M, N, p)).
    """
    require_prime(p)
    n = frame.count
    _refuse_array((n * p, n * p), "cover adjacency")
    rep, bits = _phase_graph(frame, p, p, n)
    if rep.gram_abs_sq != 1:  # every pair misses; the first one is the witness
        raise ValueError(f"Gram entry at (0,1) is not a {p}-th root of unity")
    return _certify(bits, n * p, lambda g: drackn_check(g, p, _point_group(frame)),
                    (n, p, drackn_params(frame.dim, n, p)), "cover")


# ---------------------------------------------------------------------------
# graph I/O


def _graph6_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise ValueError("graph too large for this graph6 writer")


def _graph6_body(g: Graph):
    """The graph6 body bytes, in runs of rows a .. b - 1 whose tile g[a:b,
    :b - 1] holds at most _TILE^2 entries, (b - a)(b - 1), or of one row: the
    upper triangle column by column is, by symmetry, the lower one row by
    row.  The bits of a run that do not fill a 6-bit group are carried on."""
    n = g.order
    carry = np.zeros(0, dtype=bool)
    a = 1  # row 0 has no bits
    while a < n:
        b = min(n, max(a + 1, (1 + a + isqrt((a - 1) ** 2 + 4 * _TILE * _TILE)) // 2))
        run = g[a:b, :b - 1]
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
    bits = np.zeros((n, -(-n // 8)), dtype=np.uint8)
    done = 0  # bits placed so far
    for s in range(0, n, _TILE):
        e = min(s + _TILE, n)
        size = (s + e - 1) * (e - s) // 2  # rows s:e hold s, s+1, ..., e-1 bits
        first = done // 6  # the body byte that holds bit `done`
        six = np.unpackbits((body[first:-(-(done + size) // 6)] - 63)[:, None], axis=1)
        low = np.zeros((e - s, e), dtype=bool)  # rows s:e below the diagonal
        low[np.arange(e) < np.arange(s, e)[:, None]] = six[:, 2:].ravel()[done - 6 * first:][:size]
        _put(bits, s, 0, low)
        _put(bits, 0, s, low, transpose=True)  # mirrored into columns s:e
        done += size
    return Graph._packed(bits, n)


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
            fh.writelines(_graph6_body(g))
            fh.write(b"\n")
    elif fmt == "edges":
        with path.open("w") as fh:
            fh.write(f"n {g.order}\n")
            if fibers is not None:
                fh.write(f"p {fibers}\n")
            _write_lines(fh, g.order, _edge_runs(g))
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
