"""Strongly regular graphs and antipodal covers derived from certified ETFs.

All three builders certify the frame and read its Gram phases in one
exact pass (verify_etf with ``phases``) through _certified_phases: the
covers take the p-th-root exponent of each Gram value, the SRGs its sign
(p = 2), switched by XOR.  Each builder drops the phases once its
adjacency is made.  A graph is a read-only boolean adjacency matrix, one
byte per vertex pair, and it is the only N x N array counting holds:
validation, derivation, counting and I/O read it in tiles of _TILE rows,
so every other array scales with _TILE * N.  Certification is pure
counting: degrees are row sums and common-neighbor counts are the
entries of A·A, each row tile times each block of _BLOCK columns
(A[:, c:c2] is A[c:c2].T by symmetry), both converted to float32 as the
loop reaches them (exact, since every count is below 2^24).  Strongly
regular graphs need constant degree and constant counts over adjacent
and non-adjacent pairs; covers of the complete graph need fiber
matchings, read off A·F for the fiber indicator F, and a constant count
over non-adjacent pairs in distinct fibers, fiber f being the r
consecutive vertices f*r .. f*r + r - 1.  The certifiers never read the
closed-form parameters they are compared against.
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
from equiframes.scalar import _FLOAT32_EXACT, _adopted, _cyclic_product, _refuse_array

_TILE = 256  # rows of A read at once, by counting and every other pass
_BLOCK = 256  # rows of A converted to float32 at once: the columns of one A·A block
_WRITE_EDGES = 1 << 14  # edges formatted per write of the edge-list writer


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
        for s in range(0, adj.shape[0], _TILE):
            # columns s: only: a mismatch left of them mirrors one in an earlier row
            asym = adj[s:s + _TILE, s:] != adj[s:, s:s + _TILE].T
            if asym.any():
                i, j = np.unravel_index(asym.argmax(), asym.shape)
                raise ValueError(f"adjacency is not symmetric at pair ({s + i},{s + j})")
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

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u, v])

    def degree(self, u: int) -> int:
        return int(np.count_nonzero(self.adj[u]))

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    def with_edge_flipped(self, u: int, v: int) -> Graph:
        if u == v:
            raise ValueError("cannot flip a loop")
        adj = self.adj.copy()
        adj[u, v] = adj[v, u] = not adj[u, v]
        return Graph(adj)

    def complement(self) -> Graph:
        adj = ~self.adj
        np.fill_diagonal(adj, False)
        return Graph(adj)

    def edges(self):
        """Edges (u, v), u < v, in lexicographic order."""
        for us, vs in _edge_tiles(self.adj):
            yield from zip(us.tolist(), vs.tolist())


def _edge_tiles(adj: np.ndarray):
    """The edges u < v as arrays (us, vs), one row tile at a time."""
    for s in range(0, adj.shape[0], _TILE):
        us, vs = np.nonzero(np.triu(adj[s:s + _TILE], s + 1))
        yield us + s, vs


@dataclass(frozen=True)
class SRGParams:
    v: int
    k: int
    lam: int
    mu: int | None  # None on graphs with no non-adjacent pairs

    def feasible(self) -> bool:
        if self.mu is None:
            return True
        return self.k * (self.k - self.lam - 1) == (self.v - self.k - 1) * self.mu

    def as_tuple(self) -> tuple:
        return (self.v, self.k, self.lam, self.mu)

    def complement(self) -> SRGParams:
        """Parameters of the complement graph."""
        if self.mu is None:
            raise ValueError("a complete graph has no complement parameters")
        v, k = self.v, self.k
        return SRGParams(v, v - k - 1, v - 2 - 2 * k + self.mu, v - 2 * k + self.lam)


@dataclass(frozen=True)
class SRGCertificate:
    ok: bool
    params: SRGParams | None
    witness: str | None = None


def _scan_pair_counts(adj: np.ndarray, kinds, n_kinds: int):
    """Check common-neighbor counts against the first count of each kind.

    Walks the pairs (i, j), i < j, in lexicographic order, one tile of rows
    of A·A at a time.  kinds(s, e) gives the kind (0 = unchecked, else
    1..n_kinds) of the pairs in rows s:e and columns s:.  Returns (ref,
    witness): ref[t] is the count at the first pair of kind t (None if no
    pair has it; ref[0] is always None) and witness is (i, j, count, kind)
    at the first pair whose count differs from ref[kind], or None.

    A tile's counts are its rows times one block of _BLOCK rows of A at a
    time, both in float32; each row keeps the first column whose count is
    off.  A single count (the first of a kind, a witness's) is the size of
    a row intersection.
    """
    n = adj.shape[0]
    if n - 2 >= _FLOAT32_EXACT:
        raise ValueError(f"{n} vertices: float32 common-neighbor counts not exact")
    ref: list[int | None] = [None] * (n_kinds + 1)
    for s in range(0, n, _TILE):
        e = min(s + _TILE, n)
        kind = np.asarray(kinds(s, e), dtype=np.int8)
        kind[:, :e - s][np.tri(e - s, dtype=bool)] = 0  # pairs i < j only
        for t in range(1, n_kinds + 1):
            if ref[t] is None:
                r, c = divmod(int((kind == t).argmax()), kind.shape[1])
                if kind[r, c] == t:
                    ref[t] = _common_neighbors(adj, s + r, s + c)
        x = adj[s:e].astype(np.float32)
        bad_col = np.full(e - s, n)
        for c in range(s, n, _BLOCK):
            c2 = min(c + _BLOCK, n)
            counts = x @ adj[c:c2].astype(np.float32).T  # A[:, c:c2] = A[c:c2].T
            bad = np.zeros(counts.shape, dtype=bool)
            for t, want in enumerate(ref):
                if want is not None:
                    bad |= (kind[:, c - s:c2 - s] == t) & (counts != want)
            rows = np.flatnonzero(bad.any(axis=1) & (bad_col == n))
            bad_col[rows] = c + bad[rows].argmax(axis=1)
        if (bad_col < n).any():
            r = int((bad_col < n).argmax())
            i, j = s + r, int(bad_col[r])
            return ref, (i, j, _common_neighbors(adj, i, j), int(kind[r, j - s]))
    return ref, None


def _common_neighbors(adj: np.ndarray, i: int, j: int) -> int:
    return int(np.count_nonzero(adj[i] & adj[j]))


def srg_check(g: Graph) -> SRGCertificate:
    """Exhaustively count degrees and common neighbors; no formulas trusted."""
    n = g.order
    if n == 0:
        return SRGCertificate(False, None, "empty graph")
    deg = np.count_nonzero(g.adj, axis=1)
    irregular = np.flatnonzero(deg != deg[0])
    if irregular.size:
        i = irregular[0]
        witness = f"degree {deg[i]} at vertex {i} differs from {deg[0]} at vertex 0"
        return SRGCertificate(False, None, witness)
    # kind 1: adjacent pair, kind 2: non-adjacent pair
    (_, lam, mu), witness = _scan_pair_counts(
        g.adj, lambda s, e: np.where(g.adj[s:e, s:], np.int8(1), np.int8(2)), 2
    )
    if witness is not None:
        i, j, c, kind = witness
        name = "adjacent" if kind == 1 else "non-adjacent"
        return SRGCertificate(
            False, None, f"{name} pair ({i},{j}) has {c} common neighbors"
        )
    lam = lam if lam is not None else 0
    return SRGCertificate(True, SRGParams(n, int(deg[0]), lam, mu))


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
    lcm(2, m), so m'/p must divide f.  The phases are checked in row tiles
    (the remainder only past step 1); the witness is the first failing pair
    i < j.
    """
    rep, phase = verify_etf(frame, phases=True)
    if not rep.is_etf:
        raise CertificationError(f"input is not a certified ETF: {rep.witness}")
    m2 = lcm(2, frame.order)
    if m2 % p:
        raise ValueError(f"order-{frame.order} Gram values are not {p}-th roots of unity")
    step = m2 // p
    for s in range(0, len(phase), _TILE):
        tile = phase[s:s + _TILE, s:]
        missing = tile < 0
        if step > 1:
            missing |= tile % step != 0
        missing[:, :len(tile)][np.tri(len(tile), dtype=bool)] = False
        if missing.any():
            i, j = np.unravel_index(missing.argmax(), missing.shape)
            raise ValueError(f"Gram entry at ({s + i},{s + j}) is not a {p}-th root of unity")
    return rep, phase, step


@dataclass(frozen=True)
class SRGResult:
    graph: Graph
    params: SRGParams
    convention: str  # "negative-adjacent" or "positive-adjacent"


def _certify_sign_graph(negative: np.ndarray, expected: SRGParams, what: str) -> SRGResult:
    """Count the negative sign graph once; its complement is the positive one.

    ``negative`` is a fresh array that only the caller made: the graph takes
    it, and the complement is made by flipping it in place, not by a copy.
    """
    g = Graph.from_adjacency(negative)
    cert = srg_check(g)
    if cert.ok and cert.params == expected:
        return SRGResult(g, cert.params, "negative-adjacent")
    if cert.ok and cert.params.mu is not None and cert.params.complement() == expected:
        negative.flags.writeable = True
        np.logical_not(negative, out=negative)
        np.fill_diagonal(negative, False)
        return SRGResult(Graph(negative), cert.params.complement(), "positive-adjacent")
    raise CertificationError(
        f"{what}: counted parameters match {expected.as_tuple()} under neither "
        "sign convention"
    )


def waldron_srg(frame: FrameMatrix) -> SRGResult:
    """Switch the Gram sign pattern against the last vector, drop it, certify.

    The graph lives on the first N-1 vectors with adjacency read off the
    switched signs; if the count matches the closed form only after
    complementing, the complement is returned and the convention recorded.
    """
    _, phase, step = _certified_phases(frame, 2)
    n = frame.count
    negative = phase[: n - 1, : n - 1] == step
    # switching against the last vector flips bit (i, j) once for each of i, j
    # whose Gram value with it is negative
    flip = phase[: n - 1, n - 1] == step
    negative ^= flip[:, None]
    negative ^= flip
    del phase  # counting holds only the adjacency
    expected = srg_params_waldron(frame.dim, frame.count)
    return _certify_sign_graph(negative, expected, "waldron graph")


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

    def to_complex(self) -> np.ndarray:
        return self.graded * np.sqrt(self.weights) / self.scale


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
    """Graph on all N vectors from the Gram sign pattern fixed by the functional."""
    _, phase, step = _certified_phases(frame, 2)
    if len(functional.graded) != frame.dim:
        raise ValueError("functional dimension does not match the frame")
    negative = phase == step
    del phase  # counting holds only the adjacency
    expected = srg_params_gs(frame.dim, frame.count)
    return _certify_sign_graph(negative, expected, "flat-functional graph")


# ---------------------------------------------------------------------------
# distance-regular antipodal covers


@dataclass(frozen=True)
class DracknCertificate:
    ok: bool
    params: tuple[int, int, int] | None  # (n, r, c)
    witness: str | None = None


def drackn_check(g: Graph, r: int) -> DracknCertificate:
    """Verify the three cover axioms by exhaustive counting.

    Fiber f is the r consecutive vertices f*r .. f*r + r - 1.  (i) no edges
    inside a fiber; (ii) a perfect matching between any two fibers; (iii) a
    constant common-neighbor count over non-adjacent pairs in distinct
    fibers.  Same-fiber pairs are antipodal: (ii) already forces their
    common-neighbor count to zero, so they carry no constant to check.
    Fiber size 1 and the empty graph are rejected: the axioms hold vacuously.
    """
    if r < 2:
        return DracknCertificate(False, None, "fiber size must be at least 2")
    if g.order == 0:
        return DracknCertificate(False, None, "empty graph")
    if g.order % r:
        return DracknCertificate(False, None, "fibers do not cover the graph")
    n_fibers = g.order // r
    fiber_of = np.arange(g.order) // r

    # inside[f, t]: vertex f*r + t has a neighbor in its fiber, read off a view of
    # the diagonal blocks of A (indexed [t, u, f])
    inside = np.diagonal(g.adj.reshape(n_fibers, r, n_fibers, r), 0, 0, 2).any(axis=1).T
    if inside.any():
        fi, t = np.unravel_index(inside.argmax(), inside.shape)
        return DracknCertificate(False, None, f"edge inside fiber {fi} at vertex {fi * r + t}")
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
            return DracknCertificate(
                False,
                None,
                f"vertex {(f0 + fi) * r + t} has {hits[fi, t, fj]} neighbors in "
                f"fiber {fj}, not 1",
            )

    (_, c_val), witness = _scan_pair_counts(
        g.adj,
        lambda s, e: ~g.adj[s:e, s:] & (fiber_of[s:e, None] != fiber_of[s:]),
        1,
    )
    if witness is not None:
        i, j, c, _ = witness
        return DracknCertificate(
            False,
            None,
            f"non-adjacent pair ({i},{j}) has {c} common neighbors, expected {c_val}",
        )
    return DracknCertificate(True, (n_fibers, r, c_val if c_val is not None else 0))


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
    fibers: int  # the fiber size p: fiber f is the vertices f*p .. f*p + p - 1
    params: tuple[int, int, int]


def drackn_cover(frame: FrameMatrix, p: int) -> CoverResult:
    """Antipodal cover on N*p vertices from a frame with root-of-unity Gram.

    Vertex (i, a) is index i*p + a; fibers are the p copies of each vector;
    for i < j, (i, a) ~ (j, b) iff Gram(i, j) = zeta_p^(b - a), the exponent
    read off exactly.  The result must pass drackn_check.
    """
    require_prime(p)
    rep, phase, step = _certified_phases(frame, p)
    if rep.gram_abs_sq != 1:  # every pair misses; the first one is the witness
        raise ValueError(f"Gram entry at (0,1) is not a {p}-th root of unity")
    n = frame.count
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
    cert = drackn_check(g, p)
    if not cert.ok:
        raise CertificationError(f"cover failed certification: {cert.witness}")
    return CoverResult(g, p, cert.params)


# ---------------------------------------------------------------------------
# graph I/O


def _graph6_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise ValueError("graph too large for this graph6 writer")


def _graph6_body(adj: np.ndarray):
    """The graph6 body bytes, one row tile at a time.

    The upper triangle column by column is, by symmetry, the lower one row
    by row; the bits of a tile that do not fill a 6-bit group are carried
    into the next tile.
    """
    n = adj.shape[0]
    carry = np.zeros(0, dtype=bool)
    for s in range(0, n, _TILE):
        e = min(s + _TILE, n)
        bits = np.concatenate([carry, adj[s:e][np.arange(n) < np.arange(s, e)[:, None]]])
        whole = len(bits) - len(bits) % 6
        carry = bits[whole:]
        yield _six_bit_bytes(bits[:whole])
    yield _six_bit_bytes(np.pad(carry, (0, -len(carry) % 6)))


def _six_bit_bytes(bits: np.ndarray) -> bytes:
    """Each group of 6 bits, high bit first, as one byte offset by 63."""
    return ((np.packbits(bits.reshape(-1, 6), axis=1)[:, 0] >> 2) + 63).tobytes()


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
        n = g.order
        # one "u " and one "v\n" label per vertex; each tile's lines interleave them
        heads = np.array([f"{u} " for u in range(n)], dtype=object)
        tails = np.array([f"{v}\n" for v in range(n)], dtype=object)
        with path.open("w") as fh:
            fh.write(f"n {n}\n")
            if fibers is not None:
                fh.write(f"p {fibers}\n")
            for us, vs in _edge_tiles(g.adj):
                for c in range(0, len(us), _WRITE_EDGES):
                    u, v = us[c:c + _WRITE_EDGES], vs[c:c + _WRITE_EDGES]
                    lines = np.empty(2 * len(u), dtype=object)
                    lines[0::2] = heads[u]
                    lines[1::2] = tails[v]
                    fh.write("".join(lines.tolist()))
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
