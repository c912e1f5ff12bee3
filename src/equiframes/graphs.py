"""Strongly regular graphs and antipodal covers derived from real frames.

Both read the phases of the frame's one exact Gram pass (frames.py): the
SRGs take the sign bits of a real Gram, switched by XOR; the covers take
the root-of-unity exponent of each Gram entry.  A graph is a read-only
boolean adjacency matrix.  Certification is pure counting: degrees are
row sums and common-neighbor counts are the entries of A·A, computed in
float32 row tiles (exact, since every count is below 2^24).  Strongly
regular graphs need constant degree and constant counts over adjacent and
non-adjacent pairs; covers of the complete graph need fiber matchings,
read off A·F for the fiber indicator F, and a constant count over
non-adjacent pairs in distinct fibers.  The certifiers never read the
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
    _cyclic_product,
    real_gram_signs,
    verify_etf,
    welch_bound,
)
from equiframes.scalar import CycInt, ExtScalar

_TILE = 256  # rows of A·A held at once


class CertificationError(RuntimeError):
    """A constructed object failed its exhaustive certification."""


@dataclass(frozen=True, eq=False)
class Graph:
    adj: np.ndarray  # n x n bool, symmetric, zero diagonal, read-only

    def __post_init__(self) -> None:
        adj = np.array(self.adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency of shape {adj.shape} is not square")
        loops = np.flatnonzero(adj.diagonal())
        if loops.size:
            raise ValueError(f"loop at vertex {loops[0]}")
        asym = adj != adj.T
        if asym.any():  # symmetric mask: its first entry lies above the diagonal
            i, j = np.unravel_index(asym.argmax(), asym.shape)
            raise ValueError(f"adjacency is not symmetric at pair ({i},{j})")
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
        return int(self.adj[u].sum())

    @property
    def num_edges(self) -> int:
        return int(self.adj.sum()) // 2

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
        us, vs = np.nonzero(np.triu(self.adj, 1))
        return zip(us.tolist(), vs.tolist())


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

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "params": self.params.as_tuple() if self.params else None,
            "witness": self.witness,
        }


def _scan_pair_counts(adj: np.ndarray, kinds, n_kinds: int):
    """Check common-neighbor counts against the first count of each kind.

    Walks the pairs (i, j), i < j, in lexicographic order, one tile of rows
    of A·A at a time.  kinds(s, e) gives the kind (0 = unchecked, else
    1..n_kinds) of the pairs in rows s:e and columns s:.  Returns (ref,
    witness): ref[t] is the count at the first pair of kind t (None if no
    pair has it; ref[0] is always None) and witness is (i, j, count, kind)
    at the first pair whose count differs from ref[kind], or None.
    """
    n = adj.shape[0]
    if n - 2 >= 2**24:
        raise ValueError(f"{n} vertices: float32 common-neighbor counts not exact")
    a = adj.astype(np.float32)
    ref: list[int | None] = [None] * (n_kinds + 1)
    for s in range(0, n, _TILE):
        e = min(s + _TILE, n)
        counts = a[s:e] @ a[:, s:]
        upper = np.arange(s, n) > np.arange(s, e)[:, None]
        kind = np.where(upper, kinds(s, e), 0)
        for t in range(1, n_kinds + 1):
            if ref[t] is None:
                first = kind == t
                if first.any():
                    ref[t] = int(counts.flat[first.argmax()])
        want = np.array([-1 if r is None else r for r in ref], np.float32)
        bad = (kind > 0) & (counts != want[kind])
        if bad.any():
            r, c = np.unravel_index(bad.argmax(), bad.shape)
            return ref, (s + int(r), s + int(c), int(counts[r, c]), int(kind[r, c]))
    return ref, None


def srg_check(g: Graph) -> SRGCertificate:
    """Exhaustively count degrees and common neighbors; no formulas trusted."""
    n = g.order
    if n == 0:
        return SRGCertificate(False, None, "empty graph")
    deg = g.adj.sum(axis=1)
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


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    pn, pd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ValueError(f"{what} = {x} is not an integer")
    return x.numerator


def srg_params_waldron(m: int, n: int) -> SRGParams:
    """Closed-form SRG parameters on N-1 vertices for a real M,N frame."""
    beta = _fraction_sqrt(welch_bound(m, n).squared)
    if beta is None or beta == 0:
        raise ValueError(f"irrational Welch bound for (M,N)=({m},{n})")
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
    beta = _fraction_sqrt(welch_bound(m, n).squared)
    if beta is None or beta == 0:
        raise ValueError(f"irrational Welch bound for (M,N)=({m},{n})")
    alpha = Fraction(n, m)
    k = Fraction(n - 1, 2) + (alpha - 1) / (2 * beta)
    lam = Fraction(n, 4) - 1 + (3 * alpha - 4) / (4 * beta)
    mu = Fraction(n, 4) + alpha / (4 * beta)
    return SRGParams(n, _as_int(k, "k"), _as_int(lam, "lambda"), _as_int(mu, "mu"))


@dataclass(frozen=True)
class SRGResult:
    graph: Graph
    params: SRGParams
    convention: str  # "negative-adjacent" or "positive-adjacent"

    def to_dict(self) -> dict:
        return {
            "params": self.params.as_tuple(),
            "convention": self.convention,
            "vertices": self.graph.order,
            "edges": self.graph.num_edges,
        }


def _certify_sign_graph(negative: np.ndarray, expected: SRGParams, what: str) -> SRGResult:
    """Count the negative sign graph once; its complement is the positive one."""
    g = Graph.from_adjacency(negative)
    cert = srg_check(g)
    if cert.ok and cert.params == expected:
        return SRGResult(g, cert.params, "negative-adjacent")
    if cert.ok and cert.params.mu is not None and cert.params.complement() == expected:
        return SRGResult(g.complement(), cert.params.complement(), "positive-adjacent")
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
    rep = verify_etf(frame)
    if not rep.is_etf:
        raise CertificationError(f"input is not a certified ETF: {rep.witness}")
    n = frame.count
    negative = real_gram_signs(frame)[: n - 1] < 0
    # switching against the last vector flips bit (i, j) once for each of i, j
    # whose Gram value with it is negative
    flip = negative[:, n - 1].copy()
    negative = negative[:, : n - 1]
    negative ^= flip[:, None]
    negative ^= flip
    expected = srg_params_waldron(frame.dim, frame.count)
    return _certify_sign_graph(negative, expected, "waldron graph")


@dataclass(frozen=True)
class FlatFunctional:
    """Vector x with <x, column> = 1 for all columns, stored 3x scaled.

    The exact entries of 3x live in the scalar ring (3x has sqrt(6) in its
    last coordinate where x itself would need sqrt(2/3)); certificates
    check <3x, column> = 3 instead, clearing the denominator.
    """

    scaled_entries: tuple[ExtScalar, ...]
    scale: int

    def to_complex(self) -> np.ndarray:
        return np.array([x.to_complex() for x in self.scaled_entries]) / self.scale


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
    b = frame.block_rows
    order = frame.order
    zero = ExtScalar.from_int(0, order)
    three = ExtScalar.from_int(3, order)
    in_class = set(prov.embedding.parallel_class)
    scaled = [three if i in in_class else zero for i in range(b)]
    scaled += [zero] * frame.point_rows
    scaled += [ExtScalar.sqrt6(order=order)]  # 3 * sqrt(2/3)
    x = tuple(scaled)

    # 3x in the frame's row grading: 3 on the class rows, and sqrt6 on the
    # extra row, whose weight is 6; <3x, column j> at scale 2^k in one product
    graded = np.zeros((len(frame.planes), 1, frame.dim))
    graded[0, 0, list(in_class)] = 3
    graded[0, 0, -1] = 1
    graded *= frame.weights
    bound = float((graded[0, 0] @ np.abs(frame.planes).sum(axis=0)).max())
    ips = _cyclic_product(graded, frame.planes, order, np.matmul, bound, "flat functional")
    target = np.zeros((len(ips), 1), dtype=np.int64)
    target[0] = 3 << frame.k
    bad = (ips[:, 0] != target).any(axis=0)
    if bad.any():
        j = int(bad.argmax())
        total = ExtScalar.from_cyc(CycInt(order, ips[:, 0, j].tolist()), frame.k)
        raise CertificationError(
            f"column {j}: <x, column> != 1 (scaled value {total!r}); "
            "check row-removal conventions and the parallel class"
        )
    return FlatFunctional(x, 3)


def gs_srg(frame: FrameMatrix, functional: FlatFunctional) -> SRGResult:
    """Graph on all N vectors from the Gram sign pattern fixed by the functional."""
    rep = verify_etf(frame)
    if not rep.is_etf:
        raise CertificationError(f"input is not a certified ETF: {rep.witness}")
    if len(functional.scaled_entries) != frame.dim:
        raise ValueError("functional dimension does not match the frame")
    negative = real_gram_signs(frame) < 0
    expected = srg_params_gs(frame.dim, frame.count)
    return _certify_sign_graph(negative, expected, "flat-functional graph")


# ---------------------------------------------------------------------------
# distance-regular antipodal covers


@dataclass(frozen=True)
class FiberPartition:
    fibers: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        sizes = {len(f) for f in self.fibers}
        if len(sizes) != 1:
            raise ValueError("fibers must all have the same size")
        flat = [v for f in self.fibers for v in f]
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("fibers must partition the vertex set")

    @property
    def fiber_size(self) -> int:
        return len(self.fibers[0])


@dataclass(frozen=True)
class DracknCertificate:
    ok: bool
    params: tuple[int, int, int] | None  # (n, r, c)
    witness: str | None = None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "params": list(self.params) if self.params else None,
            "witness": self.witness,
        }


def drackn_check(g: Graph, fibers: FiberPartition) -> DracknCertificate:
    """Verify the three cover axioms by exhaustive counting.

    (i) no edges inside a fiber; (ii) a perfect matching between any two
    fibers; (iii) a constant common-neighbor count over non-adjacent pairs
    in distinct fibers.  Same-fiber pairs are antipodal: (ii) already forces
    their common-neighbor count to zero, so they carry no constant to check.
    Fiber size 1 is rejected: the axioms hold vacuously on complete graphs.
    """
    n_fibers = len(fibers.fibers)
    r = fibers.fiber_size
    if r < 2:
        return DracknCertificate(False, None, "fiber size must be at least 2")
    if g.order != n_fibers * r:
        return DracknCertificate(False, None, "fibers do not cover the graph")

    # members[f, t] is the t-th vertex v of fiber f; hits[f, t, f2] = (A·F)[v, f2]
    members = np.array(fibers.fibers)
    fiber_of = np.empty(g.order, dtype=np.int64)
    fiber_of[members] = np.arange(n_fibers)[:, None]
    hits = g.adj[members][:, :, members].sum(axis=3)

    own = np.arange(n_fibers)
    inside = hits[own, :, own] > 0
    if inside.any():
        fi, t = np.unravel_index(inside.argmax(), inside.shape)
        return DracknCertificate(
            False, None, f"edge inside fiber {fi} at vertex {members[fi, t]}"
        )
    unmatched = hits.transpose(0, 2, 1) != 1
    unmatched[own, own] = False
    if unmatched.any():
        fi, fj, t = np.unravel_index(unmatched.argmax(), unmatched.shape)
        return DracknCertificate(
            False,
            None,
            f"vertex {members[fi, t]} has {hits[fi, t, fj]} neighbors in fiber {fj}, "
            "not 1",
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
    beta = _fraction_sqrt(welch_bound(m, n).squared)
    if beta is None or beta == 0:
        raise ValueError(f"irrational Welch bound for (M,N)=({m},{n})")
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


@dataclass(frozen=True)
class CoverResult:
    graph: Graph
    fibers: FiberPartition
    params: tuple[int, int, int]

    def to_dict(self) -> dict:
        return {
            "params": list(self.params),
            "vertices": self.graph.order,
            "edges": self.graph.num_edges,
        }


def _gram_root_exponents(frame: FrameMatrix, rep: ETFReport, p: int) -> np.ndarray:
    """Exponent e with Gram(i,j) = zeta_p^e for every off-diagonal pair.

    Read off the phases of the frame's Gram pass: Gram(i, j) is a positive
    multiple of zeta_(m')^f, m' = lcm(2, m), and it equals zeta_p^e, e =
    f p / m', exactly when m'/p divides f and the certified report says
    |Gram|^2 = 1.
    """
    m2 = lcm(2, frame.order)
    if m2 % p:
        raise ValueError(f"order-{frame.order} Gram values are not {p}-th roots of unity")
    step = m2 // p
    phase = frame.gram_pass.phase
    missing = np.triu((phase < 0) | (phase % step != 0), 1)
    if rep.gram_abs_sq != 1:
        missing[0, 1] = True  # every pair misses; the first one is the witness
    if missing.any():
        i, j = np.unravel_index(missing.argmax(), missing.shape)
        raise ValueError(f"Gram entry at ({i},{j}) is not a {p}-th root of unity")
    exps = phase // step
    np.fill_diagonal(exps, 0)
    return exps


def drackn_cover(frame: FrameMatrix, p: int) -> CoverResult:
    """Antipodal cover on N*p vertices from a frame with root-of-unity Gram.

    Vertex (i, a) is index i*p + a; fibers are the p copies of each vector;
    for i < j, (i, a) ~ (j, b) iff Gram(i, j) = zeta_p^(b - a), the exponent
    read off exactly.  The result must pass drackn_check.
    """
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise ValueError(f"p must equal a prime, got {p}")
    rep = verify_etf(frame)
    if not rep.is_etf:
        raise CertificationError(f"input is not a certified ETF: {rep.witness}")
    exps = _gram_root_exponents(frame, rep, p)
    n = frame.count
    a = np.arange(p)
    # adj[i, a, j, b] for i < j, mirrored below
    adj = (exps[:, None, :, None] + a[:, None, None] - a) % p == 0
    adj &= np.triu(np.ones((n, n), dtype=bool), 1)[:, None, :, None]
    adj = adj.reshape(n * p, n * p)
    g = Graph(adj | adj.T)
    fibers = FiberPartition(tuple(tuple(range(i * p, i * p + p)) for i in range(n)))
    cert = drackn_check(g, fibers)
    if not cert.ok:
        raise CertificationError(f"cover failed certification: {cert.witness}")
    return CoverResult(g, fibers, cert.params)


# ---------------------------------------------------------------------------
# graph I/O


def _graph6_bytes(g: Graph) -> bytes:
    n = g.order
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        raise ValueError("graph too large for this graph6 writer")
    # the upper triangle column by column is, by symmetry, the lower one row by row
    bits = g.adj[np.tri(n, n, -1, dtype=bool)]
    six = np.pad(bits, (0, -len(bits) % 6)).reshape(-1, 6)
    return head + (np.packbits(np.pad(six, ((0, 0), (2, 0))), axis=1) + 63).tobytes()


def _graph6_parse(data: bytes) -> Graph:
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    raw = np.frombuffer(data, dtype=np.uint8)
    if not raw.size or ((raw < 63) | (raw > 126)).any():
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
    need = -(-n * (n - 1) // 12)  # ceil(n(n-1)/2 bits / 6 bits per byte)
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, {n} vertices need {need}")
    bits = np.unpackbits((body - 63)[:, None], axis=1)[:, 2:].ravel()
    adj = np.zeros((n, n), dtype=bool)
    adj[np.tri(n, n, -1, dtype=bool)] = bits[: n * (n - 1) // 2]
    return Graph(adj | adj.T)


def export_graph(
    path: str | Path,
    g: Graph,
    fmt: str = "graph6",
    fibers: FiberPartition | None = None,
) -> None:
    """graph6 (standard bit packing) or edge list with n/p header lines."""
    path = Path(path)
    if fmt == "graph6":
        path.write_bytes(_graph6_bytes(g) + b"\n")
    elif fmt == "edges":
        n = g.order
        # one "u " and one "v\n" label per vertex; each tile's lines interleave them
        heads = np.array([f"{u} " for u in range(n)], dtype=object)
        tails = np.array([f"{v}\n" for v in range(n)], dtype=object)
        with path.open("w") as fh:
            fh.write(f"n {n}\n")
            if fibers is not None:
                fh.write(f"p {fibers.fiber_size}\n")
            for s in range(0, n, _TILE):
                us, vs = np.nonzero(np.triu(g.adj[s:s + _TILE], s + 1))
                lines = np.empty(2 * len(us), dtype=object)
                lines[0::2] = heads[us + s]
                lines[1::2] = tails[vs]
                fh.write("".join(lines.tolist()))
    else:
        raise ValueError(f"unknown graph format {fmt!r}")


def load_graph(path: str | Path) -> tuple[Graph, FiberPartition | None]:
    """Inverse of export_graph; detects the format from the content."""
    data = Path(path).read_bytes()
    try:
        if not data.lstrip().startswith(b"n "):
            return _graph6_parse(data), None
        return _edge_list_parse(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _edge_list_parse(data: bytes) -> tuple[Graph, FiberPartition | None]:
    lines = [ln.split() for ln in data.decode().split("\n") if ln.strip()]
    if len(lines[0]) != 2:
        raise ValueError(f"bad header {' '.join(lines[0])!r}")
    order = _count_field(lines[0][1], "vertex count")
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
    if size is None:
        return g, None
    if size < 1 or order % size:
        raise ValueError(f"fiber size {size} does not split {order} vertices")
    return g, FiberPartition(tuple(tuple(range(i, i + size)) for i in range(0, order, size)))


def _count_field(token: str, what: str) -> int:
    """A non-negative integer field of an edge list."""
    try:
        value = int(token)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{what} {token!r} is not a non-negative integer")
    return value
