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


# --- dense references: one pair, bit or edge at a time over an n x n bool array ---


def reference_pairs(adj, kind_of):
    """First count per kind and first deviating pair, scanning i < j in order."""
    nbrs = [set(np.flatnonzero(row).tolist()) for row in adj]
    first = {}
    for i in range(len(adj)):
        for j in range(i + 1, len(adj)):
            kind, c = kind_of(i, j), len(nbrs[i] & nbrs[j])
            if kind is not None and first.setdefault(kind, c) != c:
                return first, (i, j, c, kind)
    return first, None


def reference_srg(adj):
    """srg_check's (ok, params, witness), pair by pair."""
    n = len(adj)
    if n == 0:
        return False, None, "empty graph"
    deg = [int(row.sum()) for row in adj]
    for v in range(n):
        if deg[v] != deg[0]:
            return (False, None,
                    f"degree {deg[v]} at vertex {v} differs from {deg[0]} at vertex 0")
    kinds = {True: "adjacent", False: "non-adjacent"}
    first, bad = reference_pairs(adj, lambda i, j: kinds[bool(adj[i, j])])
    if bad:
        i, j, c, kind = bad
        return False, None, f"{kind} pair ({i},{j}) has {c} common neighbors"
    return True, (n, deg[0], first.get("adjacent", 0), first.get("non-adjacent")), None


def reference_drackn(adj, r):
    """drackn_check's (ok, params, witness), fiber by fiber and pair by pair."""
    n = len(adj)
    if r < 2:
        return False, None, "fiber size must be at least 2"
    if n == 0:
        return False, None, "empty graph"
    if n % r:
        return False, None, "fibers do not cover the graph"
    fibers = [range(f, f + r) for f in range(0, n, r)]
    for fi, f in enumerate(fibers):
        for v in f:
            if adj[v, f].any():
                return False, None, f"edge inside fiber {fi} at vertex {v}"
    for fi, f in enumerate(fibers):
        for fj, other in enumerate(fibers):
            for v in f:
                hits = int(adj[v, other].sum())
                if fi != fj and hits != 1:
                    return (False, None,
                            f"vertex {v} has {hits} neighbors in fiber {fj}, not 1")
    first, bad = reference_pairs(adj, lambda i, j: None if i // r == j // r or adj[i, j] else 1)
    if bad:
        return False, None, (f"non-adjacent pair ({bad[0]},{bad[1]}) has {bad[2]} "
                             f"common neighbors, expected {first[1]}")
    return True, (len(fibers), r, first.get(1, 0)), None


def reference_graph6_bytes(adj):
    """graph6 by its definition, one bit at a time: the upper triangle
    column by column, six bits per byte, high bit first, offset by 63."""
    n = len(adj)
    head = [n + 63] if n <= 62 else [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    bits = [bool(adj[i, j]) for j in range(n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    body = [63 + sum(b << (5 - t) for t, b in enumerate(bits[c:c + 6]))
            for c in range(0, len(bits), 6)]
    return bytes(head + body)


def reference_edge_list(adj) -> bytes:
    """The edge-list file: the n line, then each edge u < v in row-major order."""
    lines = [f"n {len(adj)}"]
    lines += [f"{u} {v}" for u in range(len(adj)) for v in range(u + 1, len(adj)) if adj[u, v]]
    return ("\n".join(lines) + "\n").encode()


def planted_lift(exps, r):
    """The Z_r voltage lift of an n x n exponent matrix (read above the
    diagonal): (i, a) ~ (j, b), i != j, iff exps[i, j] = (b - a) mod r for
    i < j, vertex (i, a) being i r + a."""
    n = len(exps)
    up = np.triu(exps, 1)
    e = (up - up.T) % r  # e[j, i] = -e[i, j]
    a = np.arange(r)
    adj = e[:, None, :, None] == (a[None, :] - a[:, None])[None, :, None, :] % r
    adj[np.arange(n), :, np.arange(n)] = False  # no edges inside a fiber
    return adj.reshape(n * r, n * r)


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
