"""Graph kernels: SRG/DRACKN certification, parameter formulas, graph I/O."""
from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import tracemalloc
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiframes import graphs as graphs_module
from equiframes import scalar as scalar_module
from equiframes.frames import FrameMatrix, verify_etf
from equiframes.graphs import (
    CertificationError,
    Graph,
    SRGParams,
    drackn_check,
    drackn_cover,
    drackn_params,
    export_graph,
    gs_srg,
    load_graph,
    srg_check,
    srg_params_gs,
    srg_params_waldron,
    tremain_flat_functional,
    waldron_srg,
)
from equiframes.pipelines import (
    build_steiner,
    build_tremain,
    drackn_pipeline,
    gs_pipeline,
    waldron_pipeline,
)
from equiframes.scalar import ExtScalar
from helpers import (
    complement,
    complement_params,
    edges,
    flipped,
    planted_lift,
    reference_drackn,
    reference_edge_list,
    reference_graph6_bytes,
    reference_srg,
    srg_identity_holds,
    tiled,
)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def test_graph_basics():
    g = petersen()
    assert g.order == 10 and np.count_nonzero(g.adj) == 2 * 15
    assert np.count_nonzero(g.adj[0]) == 3
    assert g.adj[0, 5] and not g.adj[0, 2]
    assert flipped(g, 0, 2).adj[0, 2]
    assert np.array_equal(flipped(flipped(g, 0, 2), 0, 2).adj, g.adj)


def test_graph_rejects_loops():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])


def test_graph_rejects_malformed_adjacency():
    directed = np.zeros((4, 4), dtype=bool)
    directed[0, 1] = directed[1, 2] = directed[2, 3] = directed[3, 0] = True
    with pytest.raises(ValueError, match=r"not symmetric at pair \(0,1\)"):
        Graph.from_adjacency(directed)
    with pytest.raises(ValueError, match="not square"):
        Graph.from_adjacency(np.zeros((3, 4), dtype=bool))
    with pytest.raises(ValueError, match="loop at vertex 2"):
        Graph.from_adjacency(np.diag([False, False, True, False]))


def test_graph_adjacency_is_read_only():
    g = petersen()
    with pytest.raises(ValueError):
        g.adj[0, 2] = True


def test_graph_packs_a_dense_array_and_leaves_it_as_it_was():
    """Graph(adj) packs a dense adjacency into read-only bits, np.packbits
    rows, and leaves the caller's array (a view, another dtype, a rejected
    one) as it was; a graph pickles and copies as its bits; from_adjacency
    given the order holds owning packed rows without a copy, after the
    checks a dense array gets, and a rejected one stays writeable."""
    adj = petersen().adj.copy()
    before = adj.copy()
    g = Graph(adj)
    assert g.bits.dtype == np.uint8 and g.bits.shape == (10, 2) and not g.bits.flags.writeable
    assert np.array_equal(g.bits, np.packbits(adj, axis=1)) and not np.shares_memory(g.bits, adj)
    assert adj.flags.writeable and np.array_equal(adj, before)
    wide = np.zeros((10, 11), dtype=bool)
    wide[:, :10] = adj
    assert np.array_equal(Graph(wide[:, :10]).bits, g.bits) and wide.flags.writeable
    assert np.array_equal(Graph(adj.astype(np.int8)).bits, g.bits)
    bad = np.eye(3, dtype=bool)
    with pytest.raises(ValueError, match="loop at vertex 0"):
        Graph(bad)
    assert bad.flags.writeable
    again = pickle.loads(pickle.dumps(g))
    assert np.array_equal(again.bits, g.bits) and again.order == 10
    assert not again.bits.flags.writeable and copy.copy(g).bits is g.bits
    bits = np.packbits(adj, axis=1)
    assert Graph.from_adjacency(bits, 10).bits is bits and not bits.flags.writeable
    for edit, message in ((lambda b: b.__setitem__((3, 1), 0x20), r"bits set past vertex 9"),
                          (lambda b: b.__setitem__((4, 0), b[4, 0] | 0x08), "loop at vertex 4"),
                          (lambda b: b.__setitem__((0, 0), b[0, 0] ^ 0x20),
                           r"not symmetric at pair \(0,2\)")):
        bits = np.packbits(adj, axis=1)
        edit(bits)
        with pytest.raises(ValueError, match=message):
            Graph.from_adjacency(bits, 10)
        assert bits.flags.writeable
    with pytest.raises(ValueError, match=r"packed rows of shape \(10, 3\) do not hold 10"):
        Graph.from_adjacency(np.zeros((10, 3), dtype=np.uint8), 10)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32), st.sampled_from([1, 3, 7, 256]))
def test_asymmetry_witness_is_the_first_pair_at_every_tile_size(n, seed, tile):
    """The tiled symmetry check names the first asymmetric pair (i, j),
    i < j, in row-major order, as a whole-matrix comparison does."""
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < 0.4, 1)
    adj |= adj.T
    for _ in range(int(rng.integers(0, 3))):
        i, j = rng.integers(0, n, 2)
        if i != j:
            adj[i, j] = ~adj[i, j]
    asym = np.argwhere(np.triu(adj != adj.T))
    with tiled(tile):
        if not len(asym):
            assert np.array_equal(Graph(adj.copy()).adj, adj)
            return
        i, j = asym[0]
        with pytest.raises(ValueError, match=rf"not symmetric at pair \({i},{j}\)$"):
            Graph(adj)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 70), st.integers(0, 2**32), st.sampled_from([1, 3, 7, 256]))
def test_packed_tiles_equal_the_dense_matrix(tmp_path_factory, n, seed, tile):
    """Random symmetric graphs on 0..70 vertices, most of them not a whole
    number of bytes wide, at tiles 1, 3, 7 and 256: every row tile and
    block (either side of the diagonal), stepped rows, degrees and single
    pairs read off the bits equal the dense matrix; srg_check's verdict and
    witness and the graph6 and edge-list bytes equal the dense references,
    and both files load back to the same bits."""
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < rng.random(), 1)
    adj |= adj.T
    g = Graph(adj)
    path = tmp_path_factory.mktemp("packed") / "g"
    with tiled(tile):
        for s in range(0, n, tile):
            rows = slice(s, s + tile)
            assert np.array_equal(g[rows], adj[rows])
            for c in range(0, n, tile):
                assert np.array_equal(g[rows, c:c + tile], adj[rows, c:c + tile])
        for start, step in ((0, 2), (1, 2), (2, 5)):
            assert np.array_equal(g[start:n:step], adj[start:n:step])
        assert np.array_equal(g.degrees(), adj.sum(axis=1))
        i, j = np.indices((n, n)).reshape(2, -1)
        assert np.array_equal(g.adjacent(i, j), adj[i, j])
        assert outcome(srg_check(g)) == reference_srg(adj)
        export_graph(path, g)
        assert path.read_bytes() == reference_graph6_bytes(adj) + b"\n"
        assert np.array_equal(load_graph(path)[0].bits, g.bits)
        export_graph(path, g, fmt="edges")
        assert path.read_bytes() == reference_edge_list(adj)
        assert np.array_equal(load_graph(path)[0].bits, g.bits)
    assert np.array_equal(g.adj, adj)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 14), st.integers(0, 2**32),
       st.lists(st.booleans(), max_size=2), st.sampled_from([1, 3, 7, 256]),
       st.sampled_from([None, 2, 3]))
def test_drackn_check_on_packed_lifts_matches_the_dense_reference(r, n, seed, edits, tile,
                                                                   group):
    """Planted Z_r lifts of random exponent matrices, r = 2, 3, 5, after up
    to two edits, each a lifted change of one exponent (every matching
    survives) or one flipped pair: drackn_check on the bits gives the dense
    reference's verdict and witness at every tile size."""
    rng = np.random.default_rng(seed)
    exps = rng.integers(0, r, (n, n))
    for lifted in edits:
        i, j = sorted(rng.choice(n, 2, replace=False)) if n > 1 else (0, 0)
        if lifted:
            exps[i, j] = (exps[i, j] + 1) % r
    adj = planted_lift(exps, r)
    for lifted in edits:
        if not lifted:
            u, v = rng.choice(n * r, 2, replace=False)
            adj[u, v] = adj[v, u] = not adj[u, v]
    with tiled(tile):
        cert = drackn_check(Graph(adj), r, group)
    assert outcome(cert) == reference_drackn(adj, r)


# --- plain pairwise reference counters for the array kernels ---------------


def outcome(cert):
    params = cert.params
    if isinstance(params, SRGParams):
        params = params.as_tuple()
    return cert.ok, params, cert.witness


@lru_cache(maxsize=None)
def waldron_graph(h):
    return waldron_pipeline(h)[1].graph


@lru_cache(maxsize=None)
def cover_h2():
    return drackn_pipeline(2, 2)[1]


@st.composite
def graphs(draw):
    """Random graphs, half of them circulant (regular, so counting is reached)."""
    n = draw(st.integers(0, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = rng.random()
    if draw(st.booleans()):
        return Graph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        )
    conn = {d for d in range(1, n // 2 + 1) if rng.random() < p}
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)
            if min(j - i, n + i - j) in conn]
    )


# small tiles put the row tile and column block boundaries of A·A inside
# these small graphs
tiles = st.sampled_from([1, 3, 7, scalar_module._TILE])


@settings(max_examples=150, deadline=None)
@given(graphs(), tiles)
def test_srg_check_matches_reference_on_random_graphs(g, tile):
    with tiled(tile):
        assert outcome(srg_check(g)) == reference_srg(g.adj)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 8]), st.integers(0, 2**32), st.booleans(), tiles)
def test_srg_check_matches_reference_on_edited_waldron_graphs(h, seed, swap, tile):
    """One flipped edge, or a degree-preserving swap of two edges."""
    g = waldron_graph(h)
    rng = random.Random(seed)
    u, v = rng.sample(range(g.order), 2)
    edited = flipped(g, u, v)
    if swap:
        a, b = rng.choice(edges(g))
        c, d = rng.choice(edges(g))
        if len({a, b, c, d}) == 4 and not g.adj[a, d] and not g.adj[c, b]:
            edited = g
            for x, y in ((a, b), (c, d), (a, d), (c, b)):
                edited = flipped(edited, x, y)
    with tiled(tile):
        assert outcome(srg_check(edited)) == reference_srg(edited.adj)


@st.composite
def planted_block_graphs(draw):
    """(graph, size, planted): a sign graph whose blocks over consecutive
    groups of ``size`` vertices (the last one short) are rank one, then up
    to two edits, each a flipped pair or, in a regular graph, a swap of
    two edges when one is drawn; ``planted`` when none was made.

    Half are regular and reach counting: even groups, every factor column
    balanced within each group and one sign on all diagonal blocks make
    every row of the Seidel matrix sum to minus that sign.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    regular = draw(st.booleans())
    if regular:
        size = 2 * draw(st.integers(1, 3))
        last = 2 * draw(st.integers(1, size // 2))
    else:
        size = draw(st.integers(2, 7))
        last = draw(st.integers(1, size))
    n_groups = draw(st.integers(1, 2 * size + 1))
    n = (n_groups - 1) * size + last
    group_of = np.arange(n) // size
    u = rng.choice([-1, 1], size=(n, n_groups))
    if regular:
        for f in range(n_groups):
            rows = np.flatnonzero(group_of == f)
            for c in range(n_groups):
                u[rows, c] = rng.permutation(np.repeat([-1, 1], len(rows) // 2))
    q = np.triu(rng.choice([-1, 1], size=(n_groups, n_groups)), 1)
    q += q.T
    q[np.diag_indices(n_groups)] = rng.choice([-1, 1]) if regular else rng.choice(
        [-1, 1], size=n_groups)
    seidel = u[:, group_of] * u[:, group_of].T * q[group_of][:, group_of]
    adj = seidel < 0
    np.fill_diagonal(adj, False)
    edits = draw(st.integers(0, 2)) if n > 1 else 0
    for _ in range(edits):
        pairs = [tuple(rng.choice(n, 2, replace=False))]
        edge_list = np.argwhere(adj)
        if regular and len(edge_list):
            (a, b), (c, d) = edge_list[rng.choice(len(edge_list), 2)]
            if len({a, b, c, d}) == 4 and not (adj[a, d] or adj[c, b]):
                pairs = [(a, b), (c, d), (a, d), (c, b)]  # a swap keeps the degrees
        for i, j in pairs:
            adj[i, j] = adj[j, i] = not adj[i, j]
    return Graph(adj), size, edits == 0


def recorded_counts(g, tiles=None):
    """The count the walk reads for every pair i < j off ``tiles`` (the dense
    A·A by default), recorded through its mark (0 elsewhere); the walk marks
    nothing."""
    n = g.order
    seen = np.full((n, n), -1.0)

    def off(counts, rows, cols):
        seen[rows, cols] = counts
        return np.zeros(counts.shape, dtype=bool)

    tiles = graphs_module._dense_tiles(g) if tiles is None else tiles
    assert scalar_module._first_marked(tiles, off) is None
    upper = np.triu(seen, 1)
    assert (upper[np.triu_indices(n, 1)] >= 0).all()  # every pair counted
    return upper.astype(np.int64)


def dense_counts(adj):
    a = adj.astype(np.int64)
    return np.triu(a @ a, 1)


# besides the row tiles, 32 and 64 split these graphs' UU chunks of groups and
# their right operands' column blocks of groups (both sized from _TILE * N)
factor_tiles = st.sampled_from([1, 3, 7, 32, 64, scalar_module._TILE])


@settings(max_examples=150, deadline=None)
@given(planted_block_graphs(), factor_tiles)
def test_factored_tiles_count_every_pair_of_planted_block_graphs(case, tile):
    """Every pair's count from the block factors equals A·A; a planted graph
    always passes the rank-one check, and a flipped one passes it only when
    its blocks are still rank one."""
    g, size, planted = case
    with tiled(tile):
        tiles_ = graphs_module._factored_tiles(g, size, g.degrees())
        assert tiles_ is not None or not planted
        if tiles_ is not None:
            assert np.array_equal(recorded_counts(g, tiles_), dense_counts(g.adj))


@settings(max_examples=150, deadline=None)
@given(planted_block_graphs(), factor_tiles)
def test_srg_check_with_groups_matches_dense_and_reference(case, tile):
    """The factored path's verdict and witness equal the dense path's and the
    pairwise reference's."""
    g, size, planted = case
    with tiled(tile):
        got = srg_check(g, group=size)
        assert outcome(got) == outcome(srg_check(g)) == reference_srg(g.adj)
    if planted and got.counting is not None:
        assert got.counting == "factored"


@pytest.mark.parametrize("pipeline", [gs_pipeline, waldron_pipeline])
def test_sign_graphs_are_counted_from_their_block_factors(pipeline):
    """At h=8 both builders count with the factors of their groups of h
    vertices, and every count equals A·A; a wrong group size (the check
    fails, also for one group of all vertices), a size too small to pay
    (G^2 > 4N), no group at all and no size count densely, with the same
    certificate."""
    res = pipeline(8)[-1]
    assert res.counting == "factored"
    g = res.graph
    want = outcome(srg_check(g))
    for group, counting in ((8, "factored"), (16, "dense"), (1, "dense"), (0, "dense"),
                            (10**12, "dense"), (None, "dense")):
        cert = srg_check(g, group=group)
        assert (outcome(cert), cert.counting) == (want, counting)
    deg = g.degrees()
    factored = recorded_counts(g, graphs_module._factored_tiles(g, 8, deg))
    assert np.array_equal(factored, dense_counts(g.adj))
    assert np.array_equal(recorded_counts(g), factored)


@pytest.mark.parametrize("tile, blocks", [(1, 17), (7, 17), (16, 17), (64, 3),
                                          (scalar_module._TILE, 1)])
def test_factored_counts_do_not_depend_on_the_chunks_of_groups(tile, blocks):
    """The h=8 gs graph has 17 groups of 8 vertices (N = 136).  Its UU
    chunks and right-operand column blocks hold at most _TILE * N / 2 bytes,
    so tile 64 counts the first row tile in 3 column blocks of at most 7
    groups and builds UU 3 groups at a time; 256 takes one block and UU in
    chunks of 15 groups.  Every count equals A·A at each size."""
    g = gs_pipeline(8)[-1].graph
    deg = g.degrees()
    with tiled(tile):
        _, first = next(graphs_module._factored_tiles(g, 8, deg))
        assert len(list(first)) == blocks
        factored = recorded_counts(g, graphs_module._factored_tiles(g, 8, deg))
    assert np.array_equal(factored, dense_counts(g.adj))


@st.composite
def fibered_graphs(draw):
    """Random matchings between fibers, then up to two flipped pairs."""
    n_fibers, r = draw(st.integers(1, 7)), draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    fibers = [range(f * r, (f + 1) * r) for f in range(n_fibers)]
    matching = []
    for fi in range(n_fibers):
        for fj in range(fi + 1, n_fibers):
            perm = rng.sample(fibers[fj], r)
            matching += zip(fibers[fi], perm)
    g = Graph.from_edges(n_fibers * r, matching)
    for _ in range(draw(st.integers(0, 2))):
        if g.order > 1:
            g = flipped(g, *rng.sample(range(g.order), 2))
    return g, r


@settings(max_examples=150, deadline=None)
@given(fibered_graphs(), tiles)
def test_drackn_check_matches_reference_on_random_covers(case, tile):
    g, r = case
    with tiled(tile):
        assert outcome(drackn_check(g, r)) == reference_drackn(g.adj, r)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), tiles)
def test_drackn_check_matches_reference_on_flipped_cover(seed, tile):
    cov = cover_h2()
    u, v = random.Random(seed).sample(range(cov.graph.order), 2)
    g = flipped(cov.graph, u, v)
    with tiled(tile):
        assert outcome(drackn_check(g, 2)) == reference_drackn(g.adj, 2)


@pytest.mark.parametrize("tile", [1, 3, 7, scalar_module._TILE])
def test_drackn_cover_is_the_same_at_every_tile_size(tile):
    """The cover's adjacency, built in row tiles, and its certificate."""
    frame, cov = drackn_pipeline(4, 2)
    with tiled(tile):
        again = drackn_cover(frame, 2)
    assert np.array_equal(again.graph.adj, cov.graph.adj) and again.params == (36, 2, 16)


def lift(q):
    """The cover on 2n vertices whose quotient is the symmetric n x n ``q``:
    (i, 0) ~ (j, 1) and (i, 1) ~ (j, 0) iff q_ij, else (i, a) ~ (j, a), i != j."""
    n = len(q)
    adj = np.zeros((2 * n, 2 * n), dtype=bool)
    adj[0::2, 1::2] = adj[1::2, 0::2] = q
    adj[0::2, 0::2] = adj[1::2, 1::2] = ~q & ~np.eye(n, dtype=bool)
    return Graph(adj)


@st.composite
def planted_lifts(draw):
    """The Z_2 lift of a random symmetric quotient on 2..12 vertices or of
    the h=2 cover's, after 0-2 lifted flips: both copies of the edges
    between a pair of fibers swapped, so every matching survives."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        q = cover_h2().graph.adj[0::2, 1::2].copy()
    else:
        n = draw(st.integers(2, 12))
        q = np.triu(rng.random((n, n)) < rng.random(), 1)
        q |= q.T
    for _ in range(draw(st.integers(0, 2))):
        i, j = rng.choice(len(q), 2, replace=False)
        q[i, j] = q[j, i] = not q[i, j]
    return lift(q)


def quotient_counting(g, group):
    """The product drackn_check must name for a p = 2 cover: the factors when
    a group size is given and the quotient's blocks are rank one."""
    q = Graph(g.adj[0::2, 1::2])
    if group is None:
        return "dense"
    tiles_ = graphs_module._factored_tiles(q, group, q.degrees())
    return "dense" if tiles_ is None else "factored"


@settings(max_examples=150, deadline=None)
@given(planted_lifts(), tiles, st.sampled_from([None, 1, 2, 3]))
def test_drackn_check_counts_planted_lifts_on_their_quotient(g, tile, group):
    """Counts from the quotient's products, dense or factored, give the
    pairwise reference's verdict and witness on the 2n-vertex cover."""
    with tiled(tile):
        cert = drackn_check(g, 2, group)
        assert cert.counting == quotient_counting(g, group)
    assert outcome(cert) == reference_drackn(g.adj, 2)


@pytest.mark.parametrize("tile", [1, 3, 7, scalar_module._TILE])
def test_drackn_check_counts_lifted_flips_of_the_h4_cover_by_its_factors(tile):
    """The h=4 cover is counted by the block factors of its point groups; a
    lifted flip leaves every matching and breaks a rank-one block, so it is
    counted densely, with the reference's witness."""
    frame, cov = drackn_pipeline(4, 2)
    group = graphs_module._point_group(frame)
    assert cov.counting == "factored"
    q = cov.graph.adj[0::2, 1::2]
    for seed in range(3):
        flips = q.copy()
        i, j = random.Random(seed).sample(range(len(q)), 2)
        flips[i, j] = flips[j, i] = not q[i, j]
        g = lift(flips)
        with tiled(tile):
            cert = drackn_check(g, 2, group)
        assert cert.counting == quotient_counting(g, group)
        assert outcome(cert) == reference_drackn(g.adj, 2) and not cert.ok


@pytest.mark.parametrize("tile", [1, 7, scalar_module._TILE])
def test_a_single_flipped_edge_is_named_before_any_count(tile):
    """One flipped edge of a p = 2 cover breaks its Z_2 lift, and with it the
    matching of two fibers: that check names it, as the reference does,
    before the quotient or the N·p vertices are counted."""
    frame, cov = drackn_pipeline(4, 2)
    group = graphs_module._point_group(frame)
    for seed in range(5):
        u, v = random.Random(seed).sample(range(cov.graph.order), 2)
        g = flipped(cov.graph, u, v)
        with tiled(tile):
            cert = drackn_check(g, 2, group)
        assert outcome(cert) == reference_drackn(g.adj, 2)
        assert cert.counting is None and not cert.ok


# --- independent oracle: networkx ------------------------------------------


def nx_graph(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.order))
    G.add_edges_from(edges(g))
    return G


def assert_srg_agrees_with_networkx(g):
    """srg_check against networkx: the verdict, and every count it reports.

    networkx calls a graph strongly regular only when it is connected and
    not complete (distance-regular of diameter 2), that is when mu > 0.
    """
    cert = srg_check(g)
    if g.order == 0:
        assert not cert.ok
        return
    G = nx_graph(g)
    mu_positive = cert.ok and cert.params.mu not in (None, 0)
    assert nx.is_strongly_regular(G) == mu_positive
    if cert.ok:
        v, k, lam, mu = cert.params.as_tuple()
        assert v == G.number_of_nodes()
        assert {d for _, d in G.degree()} == {k}
        counts = {(a, b): len(list(nx.common_neighbors(G, a, b)))
                  for a in range(v) for b in range(a + 1, v)}
        assert {c for (a, b), c in counts.items() if G.has_edge(a, b)} <= {lam}
        assert {c for (a, b), c in counts.items() if not G.has_edge(a, b)} == (
            set() if mu is None else {mu})
    elif "pair" in cert.witness:  # "... pair (i,j) has c common neighbors"
        pair, count = cert.witness.split(" pair ")[1].split(" has ")
        a, b = map(int, pair.strip("()").split(","))
        assert int(count.split()[0]) == len(list(nx.common_neighbors(G, a, b)))
    else:  # "degree d at vertex i differs from d0 at vertex 0"
        words = cert.witness.split()
        assert G.degree(int(words[4])) == int(words[1]) != G.degree(0)


@settings(max_examples=100, deadline=None)
@given(graphs(), tiles)
def test_srg_check_agrees_with_networkx_on_random_graphs(g, tile):
    with tiled(tile):
        assert_srg_agrees_with_networkx(g)


@pytest.mark.parametrize("family, h", [("waldron", 2), ("waldron", 4), ("waldron", 8),
                                       ("gs", 2), ("gs", 8)])
def test_srg_check_agrees_with_networkx_on_derived_graphs(family, h):
    res = (waldron_pipeline if family == "waldron" else gs_pipeline)(h)[1]
    assert nx.is_strongly_regular(nx_graph(res.graph))
    assert_srg_agrees_with_networkx(res.graph)
    assert srg_check(res.graph).params == res.params


def test_drackn_check_agrees_with_networkx_intersection_array():
    """An antipodal r-cover of K_n with constant c is distance-regular with
    intersection array {n-1, (r-1)c, 1; 1, c, n-1}."""
    cov = drackn_pipeline(4, 2)[1]
    assert drackn_check(cov.graph, 2).params == (36, 2, 16)
    assert nx.intersection_array(nx_graph(cov.graph)) == ([35, 16, 1], [1, 16, 35])


def test_srg_check_five_cycle():
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    cert = srg_check(c5)
    assert cert.ok and cert.params.as_tuple() == (5, 2, 0, 1)


def test_srg_check_complete_graph_mu_absent():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    cert = srg_check(k4)
    assert cert.ok
    assert cert.params.as_tuple() == (4, 3, 2, None)
    assert srg_identity_holds(cert.params)


def test_srg_check_petersen():
    cert = srg_check(petersen())
    assert cert.ok and cert.params.as_tuple() == (10, 3, 0, 1)


def test_srg_check_rejects_irregular():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    cert = srg_check(path)
    assert not cert.ok and "degree" in cert.witness


def test_srg_check_witness_pair():
    cert = srg_check(flipped(petersen(), 0, 2))
    assert cert.witness == "degree 3 at vertex 1 differs from 4 at vertex 0"
    # degree check already fails; force a common-neighbor witness instead
    c6 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), ])
    cert = srg_check(c6)
    assert not cert.ok
    assert "pair" in cert.witness


def test_srg_complement_params():
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    for g in (petersen(), c5, waldron_graph(8)):
        cert = srg_check(g)
        assert cert.ok
        assert srg_check(complement(g)).params == complement_params(cert.params)
    with pytest.raises(ValueError):
        complement_params(SRGParams(4, 3, 2, None))


def unread_graph(n):
    """A graph on n vertices whose bits are a broadcast view: no memory."""
    return Graph._packed(np.broadcast_to(np.uint8(0), (n, -(-n // 8))), n)


def test_count_guard_raises_past_float32_exact_range():
    huge = unread_graph(2**24 + 2)
    with pytest.raises(ValueError, match="not exact"):
        scalar_module._first_marked(graphs_module._dense_tiles(huge), None)


def test_factored_count_guard_raises_past_float32_exact_range():
    """The factored counts' partial sums reach 4N: refused past 2^24 / 4
    vertices, before anything is read or allocated."""
    huge = unread_graph(2**22 + 1)
    with pytest.raises(ValueError, match=r"^4194305 vertices: float32 factored "
                                         r"common-neighbor counts not exact$"):
        graphs_module._factored_tiles(huge, 2**11, None)


def test_waldron_params_table():
    assert srg_params_waldron(5, 10).as_tuple() == (9, 4, 1, 2)
    assert srg_params_waldron(15, 36).as_tuple() == (35, 18, 9, 9)
    assert srg_params_waldron(51, 136).as_tuple() == (135, 70, 37, 35)
    assert srg_params_waldron(187, 528).as_tuple() == (527, 270, 141, 135)
    assert srg_params_waldron(287, 820).as_tuple() == (819, 418, 217, 209)
    assert srg_params_waldron(551, 1596).as_tuple() == (1595, 810, 417, 405)


def test_gs_params_table():
    assert srg_params_gs(5, 10).as_tuple() == (10, 6, 3, 4)
    assert srg_params_gs(51, 136).as_tuple() == (136, 75, 42, 40)
    assert srg_params_gs(287, 820).as_tuple() == (820, 429, 228, 220)
    assert srg_params_gs(715, 2080).as_tuple() == (2080, 1071, 558, 544)


def test_params_reject_non_integral():
    with pytest.raises(ValueError, match="not an integer"):
        srg_params_waldron(10, 25)  # beta = 1/4 but k = 25/2
    with pytest.raises(ValueError, match="irrational"):
        srg_params_waldron(5, 9)
    with pytest.raises(ValueError, match="irrational"):
        srg_params_gs(5, 9)


def test_waldron_h2():
    frame, res = waldron_pipeline(2)
    assert res.params.as_tuple() == (9, 4, 1, 2)
    assert srg_identity_holds(res.params)


def test_waldron_h4():
    _, res = waldron_pipeline(4)
    assert res.params.as_tuple() == (35, 18, 9, 9)


def test_waldron_rejects_broken_frame():
    f = build_tremain(h=2)
    planes = f.planes.copy()
    planes[:, 0, 0] = 0
    broken = dataclasses.replace(f, planes=planes)
    with pytest.raises(CertificationError):
        waldron_srg(broken)


def test_flat_functional_h2():
    frame = build_tremain(h=2, parallel=True)
    x = tremain_flat_functional(frame)
    # all 10 inner products exactly 1: recheck independently in float
    xs = x * np.sqrt(frame.weights) / 3
    a = frame.to_complex_array()
    ips = xs.conj() @ a
    assert np.abs(ips - 1).max() < 1e-12


def test_flat_functional_h8():
    frame = build_tremain(h=8, parallel=True)
    x = tremain_flat_functional(frame)
    assert len(x) == frame.dim


def test_flat_functional_refuses_v_not_divisible_by_3():
    frame = build_tremain(v=7)
    with pytest.raises(ValueError, match="divisible by 3"):
        tremain_flat_functional(frame)


def test_flat_functional_refuses_without_parallel_embedding():
    frame = build_tremain(h=2, parallel=False)
    with pytest.raises(ValueError, match="parallel-class"):
        tremain_flat_functional(frame)


def test_flat_functional_detects_wrong_row_convention():
    # removing the first row of H1 breaks <x, column> = 1; the witness is the
    # first column whose ExtScalar inner product with 3x misses 3
    frame = build_tremain(h=2, parallel=True, row1=0)
    good_frame = build_tremain(h=2, parallel=True)
    good = tremain_flat_functional(good_frame)
    surds = {1: ExtScalar.from_int(1), 2: ExtScalar.sqrt2(), 3: ExtScalar.sqrt3(), 6: ExtScalar.sqrt6()}
    x = [int(c) * surds[int(w)] for c, w in zip(good, good_frame.weights)]
    zero, three = ExtScalar.from_int(0, frame.order), ExtScalar.from_int(3, frame.order)
    first = next(
        j for j in range(frame.count)
        if sum((x[r] * frame.entry(r, j).conjugate() for r in range(frame.dim)), zero) != three
    )
    with pytest.raises(CertificationError, match=f"column {first}:"):
        tremain_flat_functional(frame)


def test_gs_h2():
    _, res = gs_pipeline(2)
    assert res.params.as_tuple() == (10, 6, 3, 4)


def test_gs_rejects_wrong_congruence():
    with pytest.raises(ValueError):
        gs_pipeline(4)


def test_drackn_cover_h2():
    _, cov = drackn_pipeline(2, 2)
    assert cov.params == (10, 2, 4)
    n, r, c = cov.params
    assert n - r * c == 2


def test_drackn_check_rejects_edge_removal():
    _, cov = drackn_pipeline(2, 2)
    u, v = edges(cov.graph)[0]
    broken = flipped(cov.graph, u, v)
    cert = drackn_check(broken, 2)
    assert not cert.ok


def test_drackn_check_rejects_fiber_size_one():
    """Fiber size 1, a fiber size that does not divide the order, and the
    empty graph, which srg_check refuses too."""
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    empty = Graph.from_edges(0, [])
    for g, r, message in ((k3, 1, "fiber size must be at least 2"),
                          (k3, 2, "fibers do not cover the graph"),
                          (empty, 2, "empty graph")):
        cert = drackn_check(g, r)
        assert not cert.ok and cert.witness == message
        assert outcome(cert) == reference_drackn(g.adj, r)
    assert srg_check(empty).witness == "empty graph"


def clique(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# (graph, fiber size): srg_check when the size is None, else drackn_check
ROW_ZERO_CASES = {
    "empty graph on 5": lambda: (Graph.from_edges(5, []), None),  # k = 0
    "K5": lambda: (clique(5), None),  # mu absent
    "perfect matching": lambda: (Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]), None),
    "K1": lambda: (Graph.from_edges(1, []), None),
    "one-fiber cover": lambda: (Graph.from_edges(3, []), 3),
    "h=2 cover": lambda: (cover_h2().graph, 2),
    "h=4 cover": lambda: (drackn_pipeline(4, 2)[1].graph, 2),
}


@pytest.mark.parametrize("tile", [1, 3, 7])
@pytest.mark.parametrize("case", list(ROW_ZERO_CASES))
def test_row_zero_references_match_the_reference_counters(case, tile):
    """The counts each certifier reads off row 0, where a kind of pair may
    be missing, against the first count of each kind the references find."""
    g, r = ROW_ZERO_CASES[case]()
    with tiled(tile):
        if r is None:
            assert outcome(srg_check(g)) == reference_srg(g.adj)
        else:
            assert outcome(drackn_check(g, r)) == reference_drackn(g.adj, r)


def test_drackn_cover_refuses_its_adjacency_past_the_array_limit(monkeypatch):
    """At a 200-byte limit the h=2, p=2 cover's 20 x 20 adjacency is refused
    before the Gram pass runs."""
    frame = build_tremain(h=2, real=True)
    monkeypatch.setattr(scalar_module, "_ARRAY_LIMIT_BYTES", 200)
    monkeypatch.setattr(graphs_module, "verify_etf",
                        mock.Mock(side_effect=AssertionError("the Gram pass ran")))
    with pytest.raises(ValueError, match=r"^20 x 20 cover adjacency needs 400 bytes, past the "
                                         r"200-byte limit$"):
        drackn_cover(frame, 2)


def test_drackn_params():
    assert drackn_params(5, 10, 2) == 4
    assert drackn_params(15, 36, 2) == 16
    with pytest.raises(ValueError):
        drackn_params(15, 36, 3)  # non-integral


def test_drackn_cover_rejects_non_root_gram():
    frame = build_tremain(h=2)
    with pytest.raises(ValueError):
        drackn_cover(frame, 3)


def test_drackn_cover_rejects_non_unit_gram():
    # an ETF whose Gram values are 4 * (+-1): right phases, wrong modulus
    f = build_tremain(h=2)
    scaled = dataclasses.replace(f, planes=2 * f.planes)
    assert verify_etf(scaled).is_etf
    with pytest.raises(ValueError, match=r"Gram entry at \(0,1\) is not a 2-th root of unity"):
        drackn_cover(scaled, 2)


@pytest.mark.parametrize("tile", [1, 7, scalar_module._TILE])
def test_drackn_cover_names_the_first_phase_pair_before_the_modulus(tile):
    """An ETF whose Gram values have modulus 4, not 1, and whose phases also
    miss the 5-th roots: the witness is the first pair the phase scan fails."""
    f = build_tremain(v=9)
    scaled = dataclasses.replace(f, planes=2 * f.planes)
    assert verify_etf(scaled).is_etf and verify_etf(scaled).gram_abs_sq == 16
    with tiled(tile), pytest.raises(
            ValueError, match=r"^Gram entry at \(0,46\) is not a 5-th root of unity$"):
        drackn_cover(scaled, 5)


@lru_cache(maxsize=None)
def _parallel_frame(h):
    return build_tremain(h=h, parallel=True, real=True)


PHASE_BUILDERS = {
    "waldron": waldron_srg,
    "gs": gs_srg,
    "drackn": lambda f: drackn_cover(f, 2),
}


@pytest.mark.parametrize("builder", list(PHASE_BUILDERS))
def test_phase_builders_refuse_a_non_etf_with_one_witness(builder):
    f = _parallel_frame(2)
    planes = f.planes.copy()
    planes[:, :, 3] *= 2  # column 3's norm is four times the others'
    broken = dataclasses.replace(f, planes=planes)
    assert verify_etf(broken).witness == "norms differ at columns 0 and 3"
    with pytest.raises(CertificationError,
                       match=r"^input is not a certified ETF: norms differ at columns 0 and 3$"):
        PHASE_BUILDERS[builder](broken)


@pytest.mark.parametrize("builder", list(PHASE_BUILDERS))
def test_phase_builders_refuse_a_zero_frame(builder):
    """Zero columns are no ETF: the builders name that, not a Gram phase."""
    zero = FrameMatrix(np.zeros((1, 2, 3), np.int8), np.ones(2, np.int64), 0, 2, 2, 0, 0)
    with pytest.raises(CertificationError,
                       match=r"^input is not a certified ETF: every column has norm 0$"):
        PHASE_BUILDERS[builder](zero)


@pytest.mark.parametrize("h", [2, 8])
def test_real_gram_over_root_order_4_gives_the_same_graphs(h):
    """The real frame written over the 4th roots of unity (planes [X, 0]):
    its Gram values are the same reals, so the sign graphs, their
    parameters and counting and the p = 2 cover are too."""
    real = _parallel_frame(h)
    four = dataclasses.replace(real, planes=np.stack([real.planes[0], 0 * real.planes[0]]),
                               order=4)
    assert not four.is_real_rational()
    for build in (waldron_srg, gs_srg):
        want, got = build(real), build(four)
        assert np.array_equal(got.graph.adj, want.graph.adj)
        assert (got.params, got.counting) == (want.params, want.counting)
    want, got = drackn_cover(real, 2), drackn_cover(four, 2)
    assert np.array_equal(got.graph.adj, want.graph.adj) and got.params == want.params


def mask_graph6_bytes(g):
    """The whole-matrix graph6 writer the streamed one replaced: the reference."""
    n = g.order
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    bits = g.adj[np.tri(n, n, -1, dtype=bool)]
    six = np.pad(bits, (0, -len(bits) % 6)).reshape(-1, 6)
    return head + (np.packbits(np.pad(six, ((0, 0), (2, 0))), axis=1) + 63).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.one_of(graphs(), st.integers(60, 80).map(
    lambda n: Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                   if (i * 7 + j * j) % 5 < 2]))),
       st.sampled_from([1, 3, 7, 256]))
def test_streamed_graph6_matches_mask_writer(tmp_path_factory, g, tile):
    """Byte for byte, with 6-bit groups carried across row tiles, and the
    tiled reader restores the graph."""
    path = tmp_path_factory.mktemp("g6") / "g.g6"
    with tiled(tile):
        export_graph(path, g)
        assert path.read_bytes() == mask_graph6_bytes(g) + b"\n"
        loaded, fibers = load_graph(path)
    assert np.array_equal(loaded.adj, g.adj) and fibers is None


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(0, 12), st.integers(58, 68)), st.integers(0, 2**32),
       st.sampled_from([1, 3, 7]))
def test_graph6_bytes_match_a_pure_python_encoder(tmp_path_factory, n, seed, tile):
    """Random graphs on both sides of the 62/63-vertex header switch, with
    6-bit groups cut by row tiles of 1, 3 and 7."""
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < rng.random(), 1)
    g = Graph(adj | adj.T)
    path = tmp_path_factory.mktemp("g6") / "g.g6"
    with tiled(tile):
        export_graph(path, g)
    assert path.read_bytes() == reference_graph6_bytes(g.adj) + b"\n"


def test_graph6_k3(tmp_path):
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    path = tmp_path / "k3.g6"
    export_graph(path, k3)
    assert path.read_bytes() == b"Bw\n"
    loaded, fibers = load_graph(path)
    assert np.array_equal(loaded.adj, k3.adj) and fibers is None


def test_graph6_roundtrip_medium(tmp_path):
    rng = random.Random(3)
    n = 70  # exercises the multi-byte size header
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    g = Graph.from_edges(n, edges)
    path = tmp_path / "g.g6"
    export_graph(path, g)
    loaded, _ = load_graph(path)
    assert np.array_equal(loaded.adj, g.adj)


def test_edge_list_roundtrip_with_fibers(tmp_path):
    _, cov = drackn_pipeline(2, 2)
    path = tmp_path / "cover.edges"
    export_graph(path, cov.graph, fmt="edges", fibers=2)
    text = path.read_text().splitlines()
    assert text[0] == "n 20" and text[1] == "p 2"
    loaded, fibers = load_graph(path)
    assert np.array_equal(loaded.adj, cov.graph.adj)
    assert fibers == 2
    assert drackn_check(loaded, fibers).ok


@pytest.mark.parametrize("name, text", [
    ("huge.edges", "n 100000\n0 1\n"),
    ("huge.g6", "~" + "".join(chr(63 + (258047 >> k & 63)) for k in (12, 6, 0)) + "??\n"),
])
def test_loaders_refuse_a_huge_order_before_allocating(tmp_path, name, text):
    """A tiny file whose header names 10^5 (or 258047) vertices: refused
    from the header, naming the file; the adjacency is never allocated."""
    path = tmp_path / name
    path.write_text(text)
    with mock.patch.object(np, "zeros", side_effect=AssertionError("allocated")):
        with pytest.raises(ValueError, match=rf"^{path}: .* adjacency needs .*-byte limit$"):
            load_graph(path)


@pytest.mark.parametrize("fmt", ["graph6", "edges"])
def test_load_limit_is_the_adjacency_size(tmp_path, fmt):
    """At a limit of 100 bytes a 10-vertex graph loads and an 11-vertex one
    is refused."""
    for n, ok in ((10, True), (11, False)):
        path = tmp_path / f"c{n}.{fmt}"
        export_graph(path, Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]), fmt=fmt)
        with mock.patch.object(scalar_module, "_ARRAY_LIMIT_BYTES", 100):
            if ok:
                assert load_graph(path)[0].order == n
            else:
                with pytest.raises(ValueError, match="11 x 11 adjacency needs 121 bytes"):
                    load_graph(path)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("tile", [1, 7])
def test_edge_list_bytes_do_not_depend_on_the_write_chunk(tmp_path, chunk, tile):
    cov = cover_h2()
    export_graph(tmp_path / "want.edges", cov.graph, fmt="edges", fibers=2)
    with tiled(tile), mock.patch.object(graphs_module, "_WRITE_LINES", chunk):
        export_graph(tmp_path / "got.edges", cov.graph, fmt="edges", fibers=2)
    assert (tmp_path / "got.edges").read_bytes() == (tmp_path / "want.edges").read_bytes()


def test_edge_list_roundtrip_plain(tmp_path):
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    path = tmp_path / "c5.edges"
    export_graph(path, c5, fmt="edges")
    loaded, fibers = load_graph(path)
    assert np.array_equal(loaded.adj, c5.adj) and fibers is None


def test_switching_normalization_is_canonical():
    """Random switching of the sign matrix never changes the derived graph."""
    frame = build_tremain(h=2)
    from equiframes.frames import real_gram_signs

    signs = real_gram_signs(frame).astype(np.int64)
    n = signs.shape[0]
    rng = np.random.default_rng(5)

    def normalize_and_build(s):
        eps = s[:, n - 1].copy()
        eps[n - 1] = 1
        switched = s * np.outer(eps, eps)
        adj = switched[: n - 1, : n - 1] == -1
        np.fill_diagonal(adj, False)
        return Graph.from_adjacency(adj)

    reference = normalize_and_build(signs)
    for _ in range(10):
        eps = rng.choice([-1, 1], size=n)
        resigned = signs * np.outer(eps, eps)
        assert np.array_equal(normalize_and_build(resigned).adj, reference.adj)


def test_large_graph_roundtrips(tmp_path):
    _, res = waldron_pipeline(20)
    assert res.graph.order == 819
    g6 = tmp_path / "g.g6"
    edges = tmp_path / "g.edges"
    export_graph(g6, res.graph)
    export_graph(edges, res.graph, fmt="edges")
    assert np.array_equal(load_graph(g6)[0].adj, res.graph.adj)
    assert np.array_equal(load_graph(edges)[0].adj, res.graph.adj)


def test_feasibility_identity():
    for params in (SRGParams(9, 4, 1, 2), SRGParams(35, 18, 9, 9),
                   SRGParams(135, 70, 37, 35), SRGParams(819, 418, 217, 209)):
        assert srg_identity_holds(params)
    assert not srg_identity_holds(SRGParams(9, 4, 1, 3))


@lru_cache(maxsize=None)
def _stored_edge_list(which):
    if which == "cover":
        _, cov = drackn_pipeline(2, 2)
        g, fibers = cov.graph, 2
    else:
        g, fibers = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), None
    lines = [f"n {g.order}"] + ([f"p {fibers}"] if fibers else [])
    return "\n".join(lines + [f"{u} {v}" for u, v in edges(g)]) + "\n"


@settings(max_examples=200, deadline=None)
@given(
    which=st.sampled_from(["cover", "c5"]),
    line=st.integers(min_value=0),
    field=st.integers(min_value=0),
    whole_line=st.booleans(),
    value=st.one_of(
        st.integers(min_value=-3, max_value=70).map(str),
        st.sampled_from(["", "x", "1.5", "-0", "n", "p", "n 4", "p 3", "p 0", "0 1 2", "3 3",
                         str(2**63), str(10**30)]),
        # at most three characters, so no header asks for a large adjacency
        st.text(alphabet="0123456789 np-\n", max_size=3),
    ),
)
def test_edge_list_fuzz_raises_naming_file_or_round_trips(
    tmp_path_factory, which, line, field, whole_line, value
):
    """One mutated field or line: ValueError naming the file, or a graph
    and fibers that export -> load reproduces exactly."""
    lines = _stored_edge_list(which).split("\n")
    i = line % len(lines)
    if whole_line:
        lines[i] = value
    else:
        parts = lines[i].split(" ")
        parts[field % len(parts)] = value
        lines[i] = " ".join(parts)
    path = tmp_path_factory.mktemp("fuzz") / "graph.edges"
    path.write_text("\n".join(lines))
    try:
        g, fibers = load_graph(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    again = path.with_name("again.edges")
    export_graph(again, g, fmt="edges", fibers=fibers)
    g2, fibers2 = load_graph(again)
    assert np.array_equal(g2.adj, g.adj) and fibers2 == fibers


# --- memory: one N x N bool adjacency, everything else in row tiles --------


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@lru_cache(maxsize=None)
def verified_gs_frame():
    frame = build_tremain(h=32, parallel=True)
    assert verify_etf(frame).is_etf
    return frame


def test_graph_validation_holds_a_few_tile_blocks_beside_the_adjacency():
    """Graph(adj) on a symmetric 2080-vertex adjacency packs it, N^2/8
    bytes, and checks symmetry block by block, two bool blocks and their
    marks at a time: the traced peak is the bits plus at most six _TILE^2
    bytes (measured 0.28 MB of them; a _TILE x N strip of marks is 0.52 MB),
    and the caller's array is left as it was."""
    n, tile = 2080, scalar_module._TILE
    adj = np.random.default_rng(0).random((n, n)) < 0.5
    adj = np.triu(adj, 1)
    adj |= adj.T
    before = adj.copy()
    g, peak = traced_peak(lambda: Graph(adj))
    assert g.bits.nbytes == n * n // 8 and np.array_equal(adj, before) and adj.flags.writeable
    assert peak <= n * n / 8 + 6 * tile * tile, peak


def test_flat_functional_reads_only_its_support_rows():
    """Its slot bound and product read the 22 class and extra rows of the
    h=32 frame (715 x 2080), never a float64 copy of the planes (11.9 MB):
    at most 1 MiB, about three float64 copies of those rows."""
    frame = verified_gs_frame()
    _, peak = traced_peak(lambda: tremain_flat_functional(frame))
    assert peak <= 1 << 20, peak


def test_gs_srg_and_graph6_export_hold_at_most_four_bytes_per_pair(tmp_path):
    """Sign graph, count, complement and graph6 export of the v=2080 graph:
    the adjacency (one byte per pair) plus row tiles, no float32 copy of A."""
    frame = verified_gs_frame()
    n = frame.count

    def run():
        res = gs_srg(frame)
        export_graph(tmp_path / "g.g6", res.graph)
        return res

    res, peak = traced_peak(run)
    assert res.params.as_tuple() == (2080, 1071, 558, 544)
    assert peak <= 4 * n * n, peak / (n * n)


@pytest.mark.parametrize("h", [32, 56])
def test_factored_counting_holds_one_factor_array_and_bounded_pieces(h):
    """srg_check on the gs sign graph, N = 2080 or 6328 vertices in G = 65 or
    113 groups of h: the N x (G+2) float32 array u, and beside it pieces
    within four _TILE x N bytes (the rank-one check's marks, a UU chunk, a
    column block of the right operand and its counts).  Measured 1.42 and
    5.51 MB against bounds of 2.69 and 9.39 MB; holding W, the G^3 sums and
    a whole right operand peaked at 3.65 and 19.0 MB."""
    frame, res = gs_pipeline(h)
    g, group = res.graph, graphs_module._point_group(frame)
    n = g.order
    groups = -(-n // group)
    cert, peak = traced_peak(lambda: srg_check(g, group))
    assert cert.ok and cert.counting == "factored"
    assert peak <= 4 * n * (groups + 2) + 4 * scalar_module._TILE * n, peak


def test_graph6_writer_holds_a_few_runs_of_bits(tmp_path):
    """graph6 export of the v=2080 gs graph takes runs of rows that hold at
    most _TILE^2 bits: within six _TILE^2 bytes (measured 0.29 MB; the masks
    and bits of whole _TILE x N row tiles peaked at 1.46 MB)."""
    g = gs_pipeline(32)[-1].graph
    _, peak = traced_peak(lambda: export_graph(tmp_path / "g.g6", g))
    assert peak <= 6 * scalar_module._TILE ** 2, peak


def test_drackn_cover_holds_at_most_two_bytes_per_pair():
    """The h=16, p=2 cover on 1056 vertices: adjacency built in the
    exponents' dtype, A·F in row tiles and the counts on the 528-vertex
    quotient, so the Gram pass sets the peak (1.8 bytes per pair; the dense
    A·A on all 1056 vertices peaked at 3.5)."""
    frame = build_tremain(h=16)
    assert verify_etf(frame).is_etf
    cov, peak = traced_peak(lambda: drackn_cover(frame, 2))
    n = cov.graph.order
    assert cov.params == (528, 2, 256) and cov.counting == "factored"
    assert peak <= 2 * n * n, peak / (n * n)


def test_drackn_cover_adds_at_most_two_bits_per_pair_to_its_gram_pass(monkeypatch):
    """The h=16, p=2 cover on N p = 1056 vertices: beside the Gram pass's
    own traced peak it adds at most (N p)^2 / 4 bytes, two bits per pair,
    and two (_TILE p)^2 blocks of the sink's cover edges (measured 0.30
    MB).  When drackn_check starts the cover is held as its bits, (N p)^2
    / 8 bytes, and at most _TILE N p bytes beside them: 0.14 MB of 0.41
    (a byte adjacency is 1.1 MB)."""
    frame = build_tremain(h=16)
    _, pass_peak = traced_peak(lambda: verify_etf(frame))
    current, real_check = [], graphs_module.drackn_check

    def check(g, r, group=None):
        current.append(tracemalloc.get_traced_memory()[0])
        return real_check(g, r, group)

    monkeypatch.setattr(graphs_module, "drackn_check", check)
    cov, peak = traced_peak(lambda: drackn_cover(frame, 2))
    size, block = cov.graph.order, 2 * scalar_module._TILE
    assert cov.params == (528, 2, 256) and cov.counting == "factored"
    assert peak <= pass_peak + size * size / 4 + 2 * block * block, (peak - pass_peak, size)
    assert current[0] <= size * size / 8 + scalar_module._TILE * size, (current, size)


def test_no_package_path_reads_the_whole_matrix(tmp_path, monkeypatch):
    """With Graph.adj, the whole dense matrix, failing when read, every path
    runs from tiles of the bits: the three builders through the CLI at p = 2
    and p = 5, counting, both writers and both loaders."""
    def whole(self):
        raise AssertionError("the whole adjacency was read")

    monkeypatch.setattr(Graph, "adj", property(whole))
    from equiframes.cli import main

    for argv in (["derive", "srg", "gs", "--h", "8"], ["derive", "srg", "waldron", "--h", "8"],
                 ["derive", "drackn", "--h", "4", "--p", "2"],
                 ["derive", "drackn", "--h", "5", "--p", "5"]):
        assert main(["--out", str(tmp_path), *argv]) == 0, argv
    g, _ = load_graph(tmp_path / "srg_gs_h8.g6")
    assert srg_check(g, 8).ok
    for name, r in (("drackn_h4_p2.edges", 2), ("drackn_h5_p5.edges", 5)):
        cover, fibers = load_graph(tmp_path / name)
        assert fibers == r and drackn_check(cover, r).ok


def test_edge_list_writer_formats_a_bounded_number_of_edges_at_once(tmp_path):
    """The h=16, p=2 cover (1056 vertices, 278256 edges): the writer takes
    each row tile in runs of rows with at most _WRITE_LINES edges, so beside
    the tile's upper triangle it holds one run's indices and labels.
    Measured peak 1.14 MB; the row tile's whole index arrays peaked at 4.87 MB."""
    cov = drackn_pipeline(16, 2)[1]
    path = tmp_path / "cover.edges"
    _, peak = traced_peak(lambda: export_graph(path, cov.graph, fmt="edges", fibers=2))
    assert peak <= 1.5 * 2**20, peak


def test_graph_builders_leave_the_frame_as_it_was():
    """The Gram pass is not cached on the frame: verify_etf and the three
    builders add no attribute to it."""
    frame = build_tremain(h=8, parallel=True, real=True)
    keys = list(vars(frame))
    for build in (verify_etf, waldron_srg, gs_srg,
                  lambda f: drackn_cover(f, 2)):
        build(frame)
        assert list(vars(frame)) == keys


def test_srg_counting_holds_the_adjacency_but_not_the_phases(monkeypatch):
    """When srg_check starts inside gs_srg at h=20 (N = 820), the memory
    traced since the frame was built is at most N^2/8 + _TILE N: the
    adjacency, one bit per pair, and no N x N phase matrix (N^2 bytes)
    beside it.  Measured 2.5 KB past the bits."""
    frame = build_tremain(h=20, parallel=True, real=True)
    n = frame.count
    current = []
    real_check = graphs_module.srg_check

    def check(g, group=None):
        current.append(tracemalloc.get_traced_memory()[0])
        return real_check(g, group=group)

    monkeypatch.setattr(graphs_module, "srg_check", check)
    res, _ = traced_peak(lambda: gs_srg(frame))
    assert res.params == srg_params_gs(frame.dim, n)
    assert len(current) == 1 and current[0] <= n * n / 8 + scalar_module._TILE * n, (current, n)


@pytest.mark.parametrize("builder", ["gs", "waldron"])
def test_sign_graphs_hold_the_bits_their_pass_wrote(monkeypatch, builder):
    """The sign graph holds the packed rows the Gram pass's sink filled, one
    (k, ceil(k/8)) uint8 array, without a copy: it owns its memory and is
    read-only."""
    frame = _parallel_frame(8)
    captured = []
    real = graphs_module._phase_graph

    def capture(*args):
        rep, bits = real(*args)
        captured.append(bits)
        return rep, bits

    monkeypatch.setattr(graphs_module, "_phase_graph", capture)
    res = gs_srg(frame) if builder == "gs" else waldron_srg(frame)
    (bits,) = captured
    k = res.graph.order
    assert res.graph.bits is bits and bits.dtype == np.uint8 and bits.shape == (k, -(-k // 8))
    assert bits.flags.owndata and not bits.flags.writeable


@pytest.mark.parametrize("dtype, step", [(np.int8, 1), (np.int8, 4), (np.int16, 200)])
@pytest.mark.parametrize("cut", [0, 1])
@pytest.mark.parametrize("switched", [False, True])
@pytest.mark.parametrize("tile", [1, 3, 7, scalar_module._TILE])
def test_sign_adjacency_is_made_in_the_phase_buffer(monkeypatch, dtype, step, cut, switched,
                                                    tile):
    """The sign adjacency is made from each buffer of phases the Gram pass
    hands over, block by block in its order, straight into bits: int8 and
    int16 phases of signs (0 or step), of a sign matrix switched or not, on
    k = N vectors, or on k = N - 1 switched against the last.  The bits are
    phase[:k, :k] == 0 (switched) with a clear diagonal; Waldron's switching
    gives the same graph whatever the sign matrix was switched by."""
    rng = np.random.default_rng(step + cut)
    n = 20
    signs = np.triu(rng.integers(0, 2, (n, n)), 1)
    signs |= signs.T  # 1 where the Gram value is negative
    eps = rng.integers(0, 2, n) if switched else np.zeros(n, dtype=int)
    seen = signs ^ eps[:, None] ^ eps  # the signs switched by eps
    np.fill_diagonal(seen, 0)
    phase = (step * seen).astype(dtype)
    k = n - cut

    def sink_pass(frame, *, phases):  # the Gram pass's blocks, in its order
        for rows, blocks in scalar_module._square_tiles(phase):
            for cols, block in blocks:
                phases(block.copy(), rows, cols)
        return mock.Mock(is_etf=True)

    monkeypatch.setattr(graphs_module, "verify_etf", sink_pass)
    with tiled(tile):
        _, bits = graphs_module._phase_graph(SimpleNamespace(count=n, order=2 * step), 2, 1, k)
    base = signs if cut else seen  # switching against vector k undoes any switching
    want = base[:k, :k] == 0
    if cut:
        flip = base[:k, k] != 0
        want ^= flip[:, None] ^ flip
    np.fill_diagonal(want, False)
    assert bits.dtype == np.uint8 and bits.shape == (k, -(-k // 8))
    assert np.array_equal(np.unpackbits(bits, axis=1, count=k).astype(bool), want)


@pytest.mark.parametrize("pipeline", [gs_pipeline, waldron_pipeline])
def test_positive_adjacent_graph_is_the_complement_validated_once(monkeypatch, pipeline):
    """The positive-adjacent sign graph is made in place, validated once and
    counted once, and it equals the reference complement of the negative
    sign graph."""
    frame = pipeline(8)[0]
    _, phase = verify_etf(frame, phases=True)
    negative = phase == 1
    if pipeline is waldron_pipeline:  # switch against the last vector, then drop it
        flip = negative[:-1, -1]
        negative = negative[:-1, :-1] ^ flip[:, None] ^ flip
    validated, counted = [], []
    real_init, real_check = Graph._check, graphs_module.srg_check

    def validating(self):
        validated.append((self.order, self.order))
        real_init(self)

    def counting(g, group=None):
        counted.append(g.order)
        return real_check(g, group)

    monkeypatch.setattr(Graph, "_check", validating)
    monkeypatch.setattr(graphs_module, "srg_check", counting)
    res = gs_srg(frame) if pipeline is gs_pipeline else waldron_srg(frame)
    monkeypatch.undo()
    assert validated == [negative.shape] and counted == [len(negative)]
    assert np.array_equal(res.graph.adj, complement(Graph(negative)).adj)


@pytest.mark.parametrize("pipeline, h", [(gs_pipeline, 2), (gs_pipeline, 8),
                                         (waldron_pipeline, 4), (waldron_pipeline, 8)])
def test_a_closed_form_met_only_by_the_complement_is_refused(monkeypatch, pipeline, h):
    """The certificate holds the positive-adjacent graph to its closed form:
    given the complement's parameters instead, both builders raise, naming
    the counted and the closed-form tuples.  (Waldron h = 2 is left out: its
    (9,4,1,2) equals its complement's.)"""
    for name in ("srg_params_waldron", "srg_params_gs"):
        real = getattr(graphs_module, name)
        monkeypatch.setattr(graphs_module, name,
                            lambda m, n, real=real: complement_params(real(m, n)))
    with pytest.raises(CertificationError, match=r"counted parameters \(.*\) != closed form"):
        pipeline(h)


def test_a_cover_is_held_to_its_closed_form(monkeypatch):
    """drackn_cover compares its count with (N, p, drackn_params): given a
    closed form c + 1, the h=4 cover is refused naming both tuples."""
    real = graphs_module.drackn_params
    monkeypatch.setattr(graphs_module, "drackn_params", lambda m, n, p: real(m, n, p) + 1)
    with pytest.raises(CertificationError, match=r"^cover: counted parameters "
                                                 r"\(36, 2, 16\) != closed form \(36, 2, 17\)$"):
        drackn_pipeline(4, 2)


@pytest.mark.parametrize("v", [7, 15, 39])
def test_steiner_sign_graphs_are_counted_from_their_block_factors(v):
    """A Steiner frame's points group its columns as a Tremain frame's do,
    so its Waldron graph is counted by the factors over groups of
    (V + 1)/2 vertices, with the dense count's and the closed form's
    parameters."""
    frame = build_steiner(v)
    res = waldron_srg(frame)
    dense = srg_check(res.graph)
    assert res.counting == "factored" and dense.counting == "dense"
    assert res.params == dense.params == srg_params_waldron(frame.dim, frame.count)
