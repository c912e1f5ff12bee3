"""Graph kernels: SRG/DRACKN certification, parameter formulas, graph I/O."""
from __future__ import annotations

import dataclasses
import random
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiframes import graphs as graphs_module
from equiframes.frames import verify_etf
from equiframes.graphs import (
    CertificationError,
    FiberPartition,
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


def reference_drackn(g, fibers):
    n_fibers, r = len(fibers.fibers), fibers.fiber_size
    if r < 2:
        return False, None, "fiber size must be at least 2"
    if g.order != n_fibers * r:
        return False, None, "fibers do not cover the graph"
    for fi, f in enumerate(fibers.fibers):
        for v in f:
            if any(g.has_edge(v, u) for u in f):
                return False, None, f"edge inside fiber {fi} at vertex {v}"
    for fi, f in enumerate(fibers.fibers):
        for fj, other in enumerate(fibers.fibers):
            for v in f:
                hits = sum(g.has_edge(v, u) for u in other)
                if fi != fj and hits != 1:
                    return (False, None,
                            f"vertex {v} has {hits} neighbors in fiber {fj}, not 1")
    fiber_of = {v: fi for fi, f in enumerate(fibers.fibers) for v in f}
    first, bad = reference_pairs(
        g, lambda i, j: None if fiber_of[i] == fiber_of[j] or g.has_edge(i, j) else 1
    )
    if bad:
        return False, None, (f"non-adjacent pair ({bad[0]},{bad[1]}) has {bad[2]} "
                             f"common neighbors, expected {first[1]}")
    return True, (n_fibers, r, first.get(1, 0)), None


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


# small row tiles put the tile boundaries of A·A inside these small graphs
tiles = st.sampled_from([1, 3, 7, graphs_module._TILE])


@settings(max_examples=150, deadline=None)
@given(graphs(), tiles)
def test_srg_check_matches_reference_on_random_graphs(g, tile):
    with mock.patch.object(graphs_module, "_TILE", tile):
        assert outcome(srg_check(g)) == reference_srg(g)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 8]), st.integers(0, 2**32), st.booleans(), tiles)
def test_srg_check_matches_reference_on_edited_waldron_graphs(h, seed, swap, tile):
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
    with mock.patch.object(graphs_module, "_TILE", tile):
        assert outcome(srg_check(edited)) == reference_srg(edited)


@st.composite
def fibered_graphs(draw):
    """Random matchings between shuffled fibers, then up to two flipped pairs."""
    n_fibers, r = draw(st.integers(1, 7)), draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    verts = list(range(n_fibers * r))
    if draw(st.booleans()):
        rng.shuffle(verts)
    fibers = [verts[f * r:(f + 1) * r] for f in range(n_fibers)]
    edges = []
    for fi in range(n_fibers):
        for fj in range(fi + 1, n_fibers):
            perm = rng.sample(fibers[fj], r)
            edges += zip(fibers[fi], perm)
    g = Graph.from_edges(n_fibers * r, edges)
    for _ in range(draw(st.integers(0, 2))):
        if g.order > 1:
            g = g.with_edge_flipped(*rng.sample(range(g.order), 2))
    return g, FiberPartition(tuple(tuple(f) for f in fibers))


@settings(max_examples=150, deadline=None)
@given(fibered_graphs(), tiles)
def test_drackn_check_matches_reference_on_random_covers(case, tile):
    g, fibers = case
    with mock.patch.object(graphs_module, "_TILE", tile):
        assert outcome(drackn_check(g, fibers)) == reference_drackn(g, fibers)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), tiles)
def test_drackn_check_matches_reference_on_flipped_cover(seed, tile):
    cov = cover_h2()
    u, v = random.Random(seed).sample(range(cov.graph.order), 2)
    g = cov.graph.with_edge_flipped(u, v)
    with mock.patch.object(graphs_module, "_TILE", tile):
        assert outcome(drackn_check(g, cov.fibers)) == reference_drackn(g, cov.fibers)


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
    assert len(x.scaled_entries) == frame.dim


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
    x = tremain_flat_functional(build_tremain(h=2, parallel=True)).scaled_entries
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
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    fibers = FiberPartition(((0,), (1,), (2,)))
    cert = drackn_check(k3, fibers)
    assert not cert.ok and "fiber size" in cert.witness


def test_drackn_params():
    assert drackn_params(5, 10, 2) == 4
    assert drackn_params(15, 36, 2) == 16
    with pytest.raises(ValueError):
        drackn_params(15, 36, 3)  # non-integral


def test_drackn_cover_rejects_non_root_gram():
    frame = build_tremain(h=2)
    with pytest.raises(ValueError):
        drackn_cover(frame, 3)


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
