"""Strongly regular graphs and antipodal covers derived from real frames.

Certification is pure counting over packed bitset rows: constant degree,
constant common-neighbor counts over adjacent and non-adjacent pairs for
strongly regular graphs; fiber matchings and non-adjacent common-neighbor
counts for covers of the complete graph.  The certifiers never read the
closed-form parameters they are compared against.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np

from equiframes.frames import (
    FrameMatrix,
    TremainProvenance,
    real_gram_signs,
    verify_etf,
    welch_bound,
)
from equiframes.scalar import CycInt, ExtScalar


class CertificationError(RuntimeError):
    """A constructed object failed its exhaustive certification."""


@dataclass(frozen=True)
class Graph:
    order: int
    rows: tuple[int, ...]  # bitset adjacency rows, symmetric, zero diagonal

    def __post_init__(self) -> None:
        n = self.order
        if len(self.rows) != n:
            raise ValueError("row count does not match order")
        for i, r in enumerate(self.rows):
            if r >> n:
                raise ValueError(f"row {i} has bits beyond the vertex range")
            if (r >> i) & 1:
                raise ValueError(f"loop at vertex {i}")

    @classmethod
    def from_edges(cls, order: int, edges) -> Graph:
        rows = [0] * order
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(order, tuple(rows))

    @classmethod
    def from_adjacency(cls, adj: np.ndarray) -> Graph:
        n = adj.shape[0]
        packed = np.packbits(adj.astype(np.uint8), axis=1, bitorder="little")
        rows = tuple(int.from_bytes(packed[i].tobytes(), "little") for i in range(n))
        return cls(n, rows)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    @property
    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def with_edge_flipped(self, u: int, v: int) -> Graph:
        if u == v:
            raise ValueError("cannot flip a loop")
        rows = list(self.rows)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        return Graph(self.order, tuple(rows))

    def complement(self) -> Graph:
        full = (1 << self.order) - 1
        return Graph(
            self.order,
            tuple((full ^ r) & ~(1 << i) for i, r in enumerate(self.rows)),
        )

    def edges(self):
        for u in range(self.order):
            r = self.rows[u] >> (u + 1)
            v = u + 1
            while r:
                if r & 1:
                    yield (u, v)
                r >>= 1
                v += 1


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


def _srg_scan_rows(rows, start, stop, order):
    """Scan pairs (i, j) with start <= i < stop, j > i, in lexicographic order.

    Returns ((lam, lam_pair), (mu, mu_pair), witness): the first count and
    pair seen of each kind plus the first pair whose count deviates from the
    first value of its kind (or None).  A chunk reporting no witness is
    internally constant, so on merge the first pair of a later chunk that
    disagrees with the global reference is the first violation it contains.
    """
    byte_len = (order + 7) // 8
    lam = mu = None
    lam_pair = mu_pair = None
    for i in range(start, stop):
        ri = rows[i]
        bi = ri.to_bytes(byte_len, "little")
        for j in range(i + 1, order):
            c = (ri & rows[j]).bit_count()
            if (bi[j >> 3] >> (j & 7)) & 1:
                if lam is None:
                    lam, lam_pair = c, (i, j)
                elif c != lam:
                    return (lam, lam_pair), (mu, mu_pair), (i, j, c, "adjacent")
            else:
                if mu is None:
                    mu, mu_pair = c, (i, j)
                elif c != mu:
                    return (lam, lam_pair), (mu, mu_pair), (i, j, c, "non-adjacent")
    return (lam, lam_pair), (mu, mu_pair), None


_POOL_GRAPH: Graph | None = None


def _pool_init(graph: Graph) -> None:
    global _POOL_GRAPH
    _POOL_GRAPH = graph


def _pool_scan(args):
    start, stop = args
    g = _POOL_GRAPH
    return _srg_scan_rows(g.rows, start, stop, g.order)


def srg_check(g: Graph, threads: int = 1) -> SRGCertificate:
    """Exhaustively count degrees and common neighbors; no formulas trusted."""
    n = g.order
    if n == 0:
        return SRGCertificate(False, None, "empty graph")
    k = g.degree(0)
    for i in range(1, n):
        d = g.degree(i)
        if d != k:
            return SRGCertificate(
                False, None, f"degree {d} at vertex {i} differs from {k} at vertex 0"
            )

    if threads > 1 and n >= 256:
        chunk = max(1, -(-n // (4 * threads)))
        spans = [(s, min(s + chunk, n)) for s in range(0, n, chunk)]
        with ProcessPoolExecutor(
            max_workers=threads, initializer=_pool_init, initargs=(g,)
        ) as pool:
            results = list(pool.map(_pool_scan, spans))
        lam = mu = None
        witness = None
        for (lv, lp), (mv, mp), w in results:
            if lv is not None:
                if lam is None:
                    lam = lv
                elif lv != lam:
                    witness = (*lp, lv, "adjacent")
                    break
            if mv is not None:
                if mu is None:
                    mu = mv
                elif mv != mu:
                    witness = (*mp, mv, "non-adjacent")
                    break
            if w is not None:
                witness = w
                break
    else:
        (lam, _), (mu, _), witness = _srg_scan_rows(g.rows, 0, n, n)

    if witness is not None:
        i, j, c, kind = witness
        return SRGCertificate(
            False, None, f"{kind} pair ({i},{j}) has {c} common neighbors"
        )
    return SRGCertificate(True, SRGParams(n, k, lam if lam is not None else 0, mu))


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


def _certify_sign_graph(
    signs: np.ndarray,
    expected: SRGParams,
    threads: int,
    what: str,
) -> SRGResult:
    """Build the sign graph, certify by counting, else certify the complement."""
    n = signs.shape[0]
    for convention, target in (("negative-adjacent", -1), ("positive-adjacent", 1)):
        adj = signs == target
        np.fill_diagonal(adj, False)
        g = Graph.from_adjacency(adj)
        cert = srg_check(g, threads=threads)
        if cert.ok and cert.params == expected:
            return SRGResult(g, cert.params, convention)
    raise CertificationError(
        f"{what}: counted parameters match {expected.as_tuple()} under neither "
        "sign convention"
    )


def waldron_srg(frame: FrameMatrix, threads: int = 1) -> SRGResult:
    """Switch the Gram sign pattern against the last vector, drop it, certify.

    The graph lives on the first N-1 vectors with adjacency read off the
    switched signs; if counting contradicts the closed form, the complement
    convention is tried and the choice recorded.
    """
    rep = verify_etf(frame)
    if not rep.is_etf:
        raise CertificationError(f"input is not a certified ETF: {rep.witness}")
    signs = real_gram_signs(frame).astype(np.int64)
    n = frame.count
    eps = signs[:, n - 1].copy()
    eps[n - 1] = 1
    switched = signs * np.outer(eps, eps)
    expected = srg_params_waldron(frame.dim, frame.count)
    return _certify_sign_graph(
        switched[: n - 1, : n - 1], expected, threads, "waldron graph"
    )


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

    target = ExtScalar.from_int(3, order)
    supports = frame.column_supports
    for j in range(frame.count):
        total = zero
        for r in supports[j]:
            if not x[r].is_zero():
                total = total + x[r] * frame.entries[r][j].conjugate()
        if total != target:
            raise CertificationError(
                f"column {j}: <x, column> != 1 (scaled value {total!r}); "
                "check row-removal conventions and the parallel class"
            )
    return FlatFunctional(x, 3)


def gs_srg(frame: FrameMatrix, functional: FlatFunctional, threads: int = 1) -> SRGResult:
    """Graph on all N vectors from the Gram sign pattern fixed by the functional."""
    rep = verify_etf(frame)
    if not rep.is_etf:
        raise CertificationError(f"input is not a certified ETF: {rep.witness}")
    if len(functional.scaled_entries) != frame.dim:
        raise ValueError("functional dimension does not match the frame")
    signs = real_gram_signs(frame).astype(np.int64)
    expected = srg_params_gs(frame.dim, frame.count)
    return _certify_sign_graph(signs, expected, threads, "flat-functional graph")


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

    masks = []
    for f in fibers.fibers:
        m = 0
        for v in f:
            m |= 1 << v
        masks.append(m)

    for fi, mask in enumerate(masks):
        for v in fibers.fibers[fi]:
            if g.rows[v] & mask:
                return DracknCertificate(
                    False, None, f"edge inside fiber {fi} at vertex {v}"
                )
    for fi in range(n_fibers):
        for fj in range(n_fibers):
            if fi == fj:
                continue
            for v in fibers.fibers[fi]:
                hits = (g.rows[v] & masks[fj]).bit_count()
                if hits != 1:
                    return DracknCertificate(
                        False,
                        None,
                        f"vertex {v} has {hits} neighbors in fiber {fj}, not 1",
                    )

    fiber_of = [0] * g.order
    for fi, f in enumerate(fibers.fibers):
        for v in f:
            fiber_of[v] = fi

    c_val: int | None = None
    rows = g.rows
    order = g.order
    byte_len = (order + 7) // 8
    for i in range(order):
        bi = rows[i].to_bytes(byte_len, "little")
        fi = fiber_of[i]
        for j in range(i + 1, order):
            if fiber_of[j] == fi or (bi[j >> 3] >> (j & 7)) & 1:
                continue
            c = (rows[i] & rows[j]).bit_count()
            if c_val is None:
                c_val = c
            elif c != c_val:
                return DracknCertificate(
                    False,
                    None,
                    f"non-adjacent pair ({i},{j}) has {c} common neighbors, "
                    f"expected {c_val}",
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


def _gram_root_exponents(frame: FrameMatrix, p: int) -> list[list[int]]:
    """Exponent e with Gram(i,j) = zeta_p^e for every off-diagonal pair."""
    m = frame.order
    if m % p:
        if p != 2:
            raise ValueError(f"order-{m} Gram values are not {p}-th roots of unity")
        roots = [CycInt.from_int(1, m), CycInt.from_int(-1, m)]
    else:
        roots = [CycInt.root(m, e * (m // p)) for e in range(p)]
    g = frame.exact_gram
    scale = 1 << (2 * frame.row_graded.k)
    exps = np.full(g.shape[1:], -1, dtype=np.int64)
    for e, root in enumerate(roots):
        target = np.array(root.coeffs, dtype=np.int64)[:, None, None] * scale
        exps[(g == target).all(axis=0)] = e
    np.fill_diagonal(exps, 0)
    missing = np.triu(exps < 0, 1)
    if missing.any():
        i, j = np.unravel_index(missing.argmax(), missing.shape)
        raise ValueError(f"Gram entry at ({i},{j}) is not a {p}-th root of unity")
    return exps.tolist()


def drackn_cover(frame: FrameMatrix, p: int, check: bool = True) -> CoverResult:
    """Antipodal cover on N*p vertices from a frame with root-of-unity Gram.

    Vertex (i, a) is index i*p + a; fibers are the p copies of each vector;
    (i, a) ~ (j, b) iff Gram(i, j) = zeta_p^(b - a), the exponent read off
    exactly.  The result must pass drackn_check.
    """
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise ValueError(f"p must equal a prime, got {p}")
    rep = verify_etf(frame)
    if not rep.is_etf:
        raise CertificationError(f"input is not a certified ETF: {rep.witness}")
    exps = _gram_root_exponents(frame, p)
    n = frame.count
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            e = exps[i][j]
            for a in range(p):
                edges.append((i * p + a, j * p + (a + e) % p))
    g = Graph.from_edges(n * p, edges)
    fibers = FiberPartition(
        tuple(tuple(i * p + a for a in range(p)) for i in range(n))
    )
    cert = drackn_check(g, fibers)
    if check and not cert.ok:
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
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = bytearray()
    for t in range(0, len(bits), 6):
        word = 0
        for b in bits[t : t + 6]:
            word = (word << 1) | b
        body.append(word + 63)
    return head + bytes(body)


def _graph6_parse(data: bytes) -> Graph:
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    if not data or any(ch < 63 or ch > 126 for ch in data):
        raise ValueError("graph6 data is empty or has bytes outside 63..126")
    if data[0] == 126:
        if data[1:2] == b"~":
            raise ValueError("graph6 long-long size not supported")
        if len(data) < 4:
            raise ValueError("graph6 size header is truncated")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    need = -(-n * (n - 1) // 12)  # ceil(n(n-1)/2 bits / 6 bits per byte)
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, {n} vertices need {need}")
    bits = []
    for ch in body:
        w = ch - 63
        for t in range(5, -1, -1):
            bits.append((w >> t) & 1)
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return Graph.from_edges(n, edges)


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
        lines = [f"n {g.order}"]
        if fibers is not None:
            lines.append(f"p {fibers.fiber_size}")
        lines += [f"{u} {v}" for u, v in g.edges()]
        path.write_text("\n".join(lines) + "\n")
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
    order = int(lines[0][1])
    fiber_size = None
    edge_lines = lines[1:]
    if edge_lines and edge_lines[0][0] == "p" and len(edge_lines[0]) == 2:
        fiber_size = int(edge_lines[0][1])
        edge_lines = edge_lines[1:]
    edges = []
    for toks in edge_lines:
        u, v = map(int, toks)
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"edge ({u},{v}) leaves the vertex range [0,{order})")
        edges.append((u, v))
    fibers = None
    if fiber_size:
        fibers = FiberPartition(tuple(
            tuple(range(i, i + fiber_size)) for i in range(0, order, fiber_size)
        ))
    return Graph.from_edges(order, edges), fibers
