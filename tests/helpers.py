"""Reference helpers shared by the test modules: reads of graphs, embeddings
and parameter sets that the package itself has no use for, and one-at-a-time
references for its vectorised checks."""
from __future__ import annotations

import sys
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

from equiframes.designs import STSReport
from equiframes.graphs import Graph, SRGParams
from equiframes.scalar import ExtScalar


def flipped(g: Graph, u: int, v: int) -> Graph:
    """``g`` with the pair (u, v), u != v, toggled between edge and non-edge."""
    adj = g.adj.copy()
    adj[u, v] = adj[v, u] = not adj[u, v]
    return Graph(adj)


def edges(g: Graph) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, in lexicographic order."""
    return [tuple(e) for e in np.argwhere(np.triu(g.adj, 1)).tolist()]


def complement(g: Graph) -> Graph:
    return Graph(~g.adj ^ np.eye(g.order, dtype=bool))


def complement_params(params: SRGParams) -> SRGParams:
    """The parameters of a strongly regular graph's complement."""
    v, k, lam, mu = params.as_tuple()
    if mu is None:
        raise ValueError("a complete graph has no complement parameters")
    return SRGParams(v, v - k - 1, v - 2 - 2 * k + mu, v - 2 * k + lam)


def srg_identity_holds(params) -> bool:
    """k (k - lambda - 1) = (v - k - 1) mu; vacuous without mu."""
    v, k, lam, mu = params.as_tuple()
    return mu is None or k * (k - lam - 1) == (v - k - 1) * mu


def shared_block(emb, v: int, w: int) -> tuple[int, int, int]:
    """The unique common block of points v and w and its positions in their orders."""
    row_v, row_w = emb.orders[v].tolist(), emb.orders[w].tolist()
    common = set(row_v) & set(row_w)
    if len(common) != 1:
        raise ValueError(f"points {v},{w} share {len(common)} blocks")
    blk = common.pop()
    return blk, row_v.index(blk), row_w.index(blk)


def reference_verify_sts(s) -> STSReport:
    """designs.verify_sts one block at a time over Python tuples, with a byte
    row per point: the walk whose witnesses the chunked check must repeat."""
    v = s.num_points
    r, b, k = s.replication, s.block_count, 3

    def fail(msg: str) -> STSReport:
        return STSReport(False, v, b, r, msg)

    seen = [bytearray(v) for _ in range(v)]  # seen[p][q]: pair (p, q) covered
    lies_in = [0] * v  # blocks through each point
    for blk in map(tuple, s.blocks.tolist()):
        if len(set(blk)) != 3 or min(blk) < 0 or max(blk) >= v:
            return fail(f"malformed block {blk}")
        for p, q in ((blk[0], blk[1]), (blk[0], blk[2]), (blk[1], blk[2])):
            if seen[p][q]:
                return fail(f"pair ({p},{q}) covered twice")
            seen[p][q] = 1
        for p in blk:
            lies_in[p] += 1
    for p in range(v):
        q = seen[p].find(0, p + 1)
        if q >= 0:
            return fail(f"pair ({p},{q}) not covered")
    if v * r != b * k:
        return fail(f"identity V*R == B*K fails: {v}*{r} != {b}*{k}")
    if v - 1 != r * (k - 1):
        return fail(f"identity V-1 == R*(K-1) fails for V={v}, R={r}")
    for p, count in enumerate(lies_in):
        if count != r:
            return fail(f"point {p} lies in {count} blocks, expected {r}")
    return STSReport(True, v, b, r)


def simplex_scalars(sim):
    """The simplex rows and its complement as ExtScalars, from its exponent arrays."""
    q = sim.source.root_order
    rows = [[ExtScalar.root(q, int(e)) for e in r] for r in (*sim.exponents, sim.complement)]
    return rows[:-1], rows[-1]


def reference_naimark_residuals(sim):
    """The complement identity one pair at a time in ExtScalar arithmetic: the
    pairs (i, j) where <phi_i, phi_j> + a_i conj(a_j) misses n [i = j]."""
    entries, naimark = simplex_scalars(sim)
    n, bad = sim.count, []
    for i in range(n):
        for j in range(n):
            total = naimark[i] * naimark[j].conjugate()
            for row in entries:
                total = total + row[i] * row[j].conjugate()
            if total != ExtScalar.from_int(n if i == j else 0):
                bad.append((i, j))
    return bad


def assembled(tiles, n: int):
    """The row tiles of scalar._hermitian_tiles as (s, P), P over columns s:n:
    each tile's column blocks, checked to run in order from the tile's first
    row to column n, joined along the columns."""
    for rows, blocks in tiles:
        parts, c = [], rows.start
        for cols, block in blocks:
            assert cols.start == c and block.shape[1:] == (rows.stop - rows.start, cols.stop - c)
            parts.append(block)
            c = cols.stop
        assert c == n
        yield rows.start, np.concatenate(parts, axis=2)


@contextmanager
def tiled(tile: int):
    """Patch _TILE, the one tile size of every pairwise pass, in every
    package module that binds it."""
    with ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.startswith("equiframes.") and hasattr(module, "_TILE"):
                stack.enter_context(mock.patch.object(module, "_TILE", tile))
        yield
