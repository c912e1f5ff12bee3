"""Graph kernels: SRG/DRACKN certification, parameter formulas, graph I/O."""
from __future__ import annotations

import dataclasses
import random
import tracemalloc
from functools import lru_cache
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiframes import graphs as graphs_module
from equiframes import scalar as scalar_module
from equiframes.frames import verify_etf
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
from equiframes.pipelines import build_tremain, drackn_pipeline, gs_pipeline, waldron_pipeline
from equiframes.scalar import ExtScalar


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def test_graph_basics():
    g = petersen()
    assert g.order == 10 and g.num_edges == 15
    assert g.degree(0) == 3
    assert g.has_edge(0, 5) and not g.has_edge(0, 2)
    flipped = g.with_edge_flipped(0, 2)
    assert flipped.has_edge(0, 2)
    assert np.array_equal(flipped.with_edge_flipped(0, 2).adj, g.adj)


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


def test_graph_adopts_a_bool_array_without_a_copy():
    """An owning bool array becomes the graph's read-only adjacency; a view,
    another dtype and a rejected array are left as they were."""
    adj = petersen().adj.copy()
    g = Graph.from_adjacency(adj)
    assert g.adj is adj and not adj.flags.writeable
    wide = np.zeros((10, 11), dtype=bool)
    wide[:, :10] = adj
    assert not np.shares_memory(Graph(wide[:, :10]).adj, wide) and wide.flags.writeable
    assert Graph(adj.astype(np.int8)).adj.dtype == bool
    bad = np.eye(3, dtype=bool)
    with pytest.raises(ValueError, match="loop"):
        Graph(bad)
    assert bad.flags.writeable


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


# --- plain pairwise reference counters for the array kernels ---------------


def reference_pairs(g, kind_of):
    """First count per kind and first deviating pair, scanning i < j in order."""
    nbrs = [set(np.flatnonzero(row).tolist()) for row in g.adj]
    first = {}
    for i in range(g.order):
        for j in range(i + 1, g.order):
            kind, c = kind_of(i, j), len(nbrs[i] & nbrs[j])
            if kind is not None and first.setdefault(kind, c) != c:
                return first, (i, j, c, kind)
    return first, None


def reference_srg(g):
    n = g.order
    if n == 0:
        return False, None, "empty graph"
    deg = [int(row.sum()) for row in g.adj]
    for v in range(n):
        if deg[v] != deg[0]:
            return (False, None,
                    f"degree {deg[v]} at vertex {v} differs from {deg[0]} at vertex 0")
    kinds = {True: "adjacent", False: "non-adjacent"}
    first, bad = reference_pairs(g, lambda i, j: kinds[g.has_edge(i, j)])
    if bad:
        i, j, c, kind = bad
        return False, None, f"{kind} pair ({i},{j}) has {c} common neighbors"
    return True, (n, deg[0], first.get("adjacent", 0), first.get("non-adjacent")), None


def reference_drackn(g, r):
    if r < 2:
        return False, None, "fiber size must be at least 2"
    if g.order == 0:
        return False, None, "empty graph"
    if g.order % r:
        return False, None, "fibers do not cover the graph"
    fibers = [range(f, f + r) for f in range(0, g.order, r)]
    for fi, f in enumerate(fibers):
        for v in f:
            if any(g.has_edge(v, u) for u in f):
                return False, None, f"edge inside fiber {fi} at vertex {v}"
    for fi, f in enumerate(fibers):
        for fj, other in enumerate(fibers):
            for v in f:
                hits = sum(g.has_edge(v, u) for u in other)
                if fi != fj and hits != 1:
                    return (False, None,
                            f"vertex {v} has {hits} neighbors in fiber {fj}, not 1")
    first, bad = reference_pairs(
        g, lambda i, j: None if i // r == j // r or g.has_edge(i, j) else 1
    )
    if bad:
        return False, None, (f"non-adjacent pair ({bad[0]},{bad[1]}) has {bad[2]} "
                             f"common neighbors, expected {first[1]}")
    return True, (len(fibers), r, first.get(1, 0)), None


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


# small row tiles and column blocks put the tile and block boundaries of A·A
# inside these small graphs
tiles = st.sampled_from([1, 3, 7, graphs_module._TILE])
blocks = st.sampled_from([1, 3, 7, graphs_module._BLOCK])


def tiled(tile, block=None):
    """Patch the row tile and, if given, the column block of the kernels."""
    return mock.patch.multiple(graphs_module, _TILE=tile,
                               _BLOCK=graphs_module._BLOCK if block is None else block)


@settings(max_examples=150, deadline=None)
@given(graphs(), tiles, blocks)
def test_srg_check_matches_reference_on_random_graphs(g, tile, block):
    with tiled(tile, block):
        assert outcome(srg_check(g)) == reference_srg(g)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 8]), st.integers(0, 2**32), st.booleans(), tiles, blocks)
def test_srg_check_matches_reference_on_edited_waldron_graphs(h, seed, swap, tile, block):
    """One flipped edge, or a degree-preserving swap of two edges."""
    g = waldron_graph(h)
    rng = random.Random(seed)
    u, v = rng.sample(range(g.order), 2)
    edited = g.with_edge_flipped(u, v)
    if swap:
        a, b = rng.choice(list(g.edges()))
        c, d = rng.choice(list(g.edges()))
        if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(c, b):
            edited = g
            for x, y in ((a, b), (c, d), (a, d), (c, b)):
                edited = edited.with_edge_flipped(x, y)
    with tiled(tile, block):
        assert outcome(srg_check(edited)) == reference_srg(edited)


@st.composite
def fibered_graphs(draw):
    """Random matchings between fibers, then up to two flipped pairs."""
    n_fibers, r = draw(st.integers(1, 7)), draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    fibers = [range(f * r, (f + 1) * r) for f in range(n_fibers)]
    edges = []
    for fi in range(n_fibers):
        for fj in range(fi + 1, n_fibers):
            perm = rng.sample(fibers[fj], r)
            edges += zip(fibers[fi], perm)
    g = Graph.from_edges(n_fibers * r, edges)
    for _ in range(draw(st.integers(0, 2))):
        if g.order > 1:
            g = g.with_edge_flipped(*rng.sample(range(g.order), 2))
    return g, r


@settings(max_examples=150, deadline=None)
@given(fibered_graphs(), tiles, blocks)
def test_drackn_check_matches_reference_on_random_covers(case, tile, block):
    g, r = case
    with tiled(tile, block):
        assert outcome(drackn_check(g, r)) == reference_drackn(g, r)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), tiles, blocks)
def test_drackn_check_matches_reference_on_flipped_cover(seed, tile, block):
    cov = cover_h2()
    u, v = random.Random(seed).sample(range(cov.graph.order), 2)
    g = cov.graph.with_edge_flipped(u, v)
    with tiled(tile, block):
        assert outcome(drackn_check(g, cov.fibers)) == reference_drackn(g, cov.fibers)


@pytest.mark.parametrize("tile", [1, 3, 7, graphs_module._TILE])
def test_drackn_cover_is_the_same_at_every_tile_size(tile):
    """The cover's adjacency, built in row tiles, and its certificate."""
    frame, cov = drackn_pipeline(4, 2)
    with tiled(tile):
        again = drackn_cover(frame, 2)
    assert np.array_equal(again.graph.adj, cov.graph.adj) and again.params == (36, 2, 16)


# --- independent oracle: networkx ------------------------------------------


def nx_graph(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.order))
    G.add_edges_from(g.edges())
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
@given(graphs(), tiles, blocks)
def test_srg_check_agrees_with_networkx_on_random_graphs(g, tile, block):
    with tiled(tile, block):
        assert_srg_agrees_with_networkx(g)


@pytest.mark.parametrize("family, h", [("waldron", 2), ("waldron", 4), ("waldron", 8),
                                       ("gs", 2), ("gs", 8)])
def test_srg_check_agrees_with_networkx_on_derived_graphs(family, h):
    res = waldron_pipeline(h)[1] if family == "waldron" else gs_pipeline(h)[2]
    assert nx.is_strongly_regular(nx_graph(res.graph))
    assert_srg_agrees_with_networkx(res.graph)
    assert srg_check(res.graph).params == res.params


def test_drackn_check_agrees_with_networkx_intersection_array():
    """An antipodal r-cover of K_n with constant c is distance-regular with
    intersection array {n-1, (r-1)c, 1; 1, c, n-1}."""
    cov = drackn_pipeline(4, 2)[1]
    assert drackn_check(cov.graph, cov.fibers).params == (36, 2, 16)
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
    assert cert.params.feasible()


def test_srg_check_petersen():
    cert = srg_check(petersen())
    assert cert.ok and cert.params.as_tuple() == (10, 3, 0, 1)


def test_srg_check_rejects_irregular():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    cert = srg_check(path)
    assert not cert.ok and "degree" in cert.witness


def test_srg_check_witness_pair():
    cert = srg_check(petersen().with_edge_flipped(0, 2))
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
        assert srg_check(g.complement()).params == cert.params.complement()
    with pytest.raises(ValueError):
        SRGParams(4, 3, 2, None).complement()


def test_count_guard_raises_past_float32_exact_range():
    huge = np.broadcast_to(np.False_, (2**24 + 2, 2**24 + 2))  # a view, no memory
    with pytest.raises(ValueError, match="not exact"):
        graphs_module._scan_pair_counts(huge, None, 1)


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
    assert res.params.feasible()


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
    xs = x.to_complex()
    a = frame.to_complex_array()
    ips = xs.conj() @ a
    assert np.abs(ips - 1).max() < 1e-12


def test_flat_functional_h8():
    frame = build_tremain(h=8, parallel=True)
    x = tremain_flat_functional(frame)
    assert len(x.graded) == frame.dim


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
    good = tremain_flat_functional(build_tremain(h=2, parallel=True))
    surds = {1: ExtScalar.from_int(1), 2: ExtScalar.sqrt2(), 3: ExtScalar.sqrt3(), 6: ExtScalar.sqrt6()}
    x = [int(c) * surds[int(w)] for c, w in zip(good.graded, good.weights)]
    zero, three = ExtScalar.from_int(0, frame.order), ExtScalar.from_int(3, frame.order)
    first = next(
        j for j in range(frame.count)
        if sum((x[r] * frame.entry(r, j).conjugate() for r in range(frame.dim)), zero) != three
    )
    with pytest.raises(CertificationError, match=f"column {first}:"):
        tremain_flat_functional(frame)


def test_gs_h2():
    _, _, res = gs_pipeline(2)
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
    u, v = next(iter(cov.graph.edges()))
    broken = cov.graph.with_edge_flipped(u, v)
    cert = drackn_check(broken, cov.fibers)
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
        assert outcome(cert) == reference_drackn(g, r)
    assert srg_check(empty).witness == "empty graph"


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


@pytest.mark.parametrize("tile", [1, 7, graphs_module._TILE])
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
    "gs": lambda f: gs_srg(f, tremain_flat_functional(_parallel_frame(2))),
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


@pytest.mark.parametrize("h", [2, 8])
def test_real_gram_over_root_order_4_gives_the_same_graphs(h):
    """The real frame written over the 4th roots of unity (planes [X, 0]):
    its Gram values are the same reals, so the sign graphs, their
    convention and the p = 2 cover are too."""
    real = _parallel_frame(h)
    four = dataclasses.replace(real, planes=np.stack([real.planes[0], 0 * real.planes[0]]),
                               order=4)
    assert not four.is_real_rational()
    functional = tremain_flat_functional(real)
    for build in (waldron_srg, lambda f: gs_srg(f, functional)):
        want, got = build(real), build(four)
        assert np.array_equal(got.graph.adj, want.graph.adj)
        assert (got.params, got.convention) == (want.params, want.convention)
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
    export_graph(path, cov.graph, fmt="edges", fibers=cov.fibers)
    text = path.read_text().splitlines()
    assert text[0] == "n 20" and text[1] == "p 2"
    loaded, fibers = load_graph(path)
    assert np.array_equal(loaded.adj, cov.graph.adj)
    assert fibers == cov.fibers
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
    export_graph(tmp_path / "want.edges", cov.graph, fmt="edges", fibers=cov.fibers)
    with tiled(tile), mock.patch.object(graphs_module, "_WRITE_EDGES", chunk):
        export_graph(tmp_path / "got.edges", cov.graph, fmt="edges", fibers=cov.fibers)
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
        assert params.feasible()
    assert not SRGParams(9, 4, 1, 3).feasible()


@lru_cache(maxsize=None)
def _stored_edge_list(which):
    if which == "cover":
        _, cov = drackn_pipeline(2, 2)
        g, fibers = cov.graph, cov.fibers
    else:
        g, fibers = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), None
    lines = [f"n {g.order}"] + ([f"p {fibers}"] if fibers else [])
    return "\n".join(lines + [f"{u} {v}" for u, v in g.edges()]) + "\n"


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
    x = tremain_flat_functional(frame)
    n = frame.count

    def run():
        res = gs_srg(frame, x)
        export_graph(tmp_path / "g.g6", res.graph)
        return res

    res, peak = traced_peak(run)
    assert res.params.as_tuple() == (2080, 1071, 558, 544)
    assert peak <= 4 * n * n, peak / (n * n)


def test_drackn_cover_holds_at_most_four_bytes_per_pair():
    """The h=16, p=2 cover on 1056 vertices: adjacency built in the
    exponents' dtype, A·F and A·A in row tiles."""
    frame = build_tremain(h=16)
    assert verify_etf(frame).is_etf
    cov, peak = traced_peak(lambda: drackn_cover(frame, 2))
    n = cov.graph.order
    assert cov.params == (528, 2, 256)
    assert peak <= 4 * n * n, peak / (n * n)


def test_edge_list_writer_formats_a_bounded_number_of_edges_at_once(tmp_path):
    """The h=16, p=2 cover (1056 vertices, 278256 edges): the writer formats
    at most _WRITE_EDGES lines per write, so beside the row tile's edge
    indices it holds one chunk of labels.  Measured peak 5.1 MB; joining a
    whole row tile's lines (up to 135k of them) at once peaks at 7.7 MB."""
    cov = drackn_pipeline(16, 2)[1]
    path = tmp_path / "cover.edges"
    _, peak = traced_peak(lambda: export_graph(path, cov.graph, fmt="edges",
                                               fibers=cov.fibers))
    assert peak <= 6 * 2**20, peak


def test_graph_builders_leave_the_frame_as_it_was():
    """The Gram pass is not cached on the frame: verify_etf and the three
    builders add no attribute to it."""
    frame = build_tremain(h=8, parallel=True, real=True)
    keys = list(vars(frame))
    functional = tremain_flat_functional(frame)
    for build in (verify_etf, waldron_srg, lambda f: gs_srg(f, functional),
                  lambda f: drackn_cover(f, 2)):
        build(frame)
        assert list(vars(frame)) == keys


def test_srg_counting_holds_the_adjacency_but_not_the_phases(monkeypatch):
    """When srg_check starts inside gs_srg at h=20 (N = 820), the memory
    traced since the frame was built is at most 1.5 N^2: the adjacency,
    one byte per pair, and no N x N phase matrix beside it (2 N^2)."""
    frame = build_tremain(h=20, parallel=True, real=True)
    functional = tremain_flat_functional(frame)
    n = frame.count
    current = []
    real_check = graphs_module.srg_check

    def check(g):
        current.append(tracemalloc.get_traced_memory()[0])
        return real_check(g)

    monkeypatch.setattr(graphs_module, "srg_check", check)
    res, _ = traced_peak(lambda: gs_srg(frame, functional))
    assert res.params == srg_params_gs(frame.dim, n)
    assert len(current) == 1 and current[0] <= 1.5 * n * n, (current, n * n)
