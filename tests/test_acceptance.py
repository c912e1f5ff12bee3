"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Frozen expected values are the published parameter tables;
every certified value here is recounted from scratch by the exhaustive
kernels, never copied from the formulas being checked.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from equiframes.cli import h510_path
from equiframes.designs import make_sts, standard_embedding
from equiframes.frames import (
    gram_matrix,
    simplex_from_hadamard,
    tremain_params,
    verify_etf,
    welch_bound,
)
from equiframes.graphs import (
    drackn_check,
    drackn_params,
    srg_check,
    srg_params_gs,
    srg_params_waldron,
    tremain_flat_functional,
)
from equiframes.hadamard import (
    fourier,
    kronecker,
    load_butson,
    paley,
    sylvester,
)
from equiframes.pipelines import (
    build_tremain,
    drackn_pipeline,
    gs_pipeline,
    waldron_pipeline,
)
from equiframes.scalar import CycInt, ExtScalar
from helpers import (
    flipped,
    reference_naimark_residuals,
    shared_block,
    simplex_scalars,
    srg_identity_holds,
)

# printed tables, frozen
FIRST_TABLE_MN = {2: (5, 10), 4: (15, 36), 8: (51, 136), 16: (187, 528),
                  20: (287, 820), 28: (551, 1596)}
WALDRON_PRINTED = {2: (9, 4, 1, 2), 4: (35, 18, 9, 9), 8: (135, 70, 37, 35),
                   16: (527, 270, 141, 135), 20: (819, 418, 217, 209),
                   28: (1595, 810, 417, 405)}
GS_PRINTED = {2: (10, 6, 3, 4), 8: (136, 75, 42, 40), 20: (820, 429, 228, 220),
              32: (2080, 1071, 558, 544)}
DRACKN_PRINTED = {2: (10, 2, 4), 4: (36, 2, 16), 8: (136, 2, 64)}

WALDRON_BUDGETS = {2: 30.0, 4: 30.0, 8: 30.0, 16: 60.0, 20: 60.0, 28: 60.0}
GS_BUDGETS = {2: 30.0, 8: 30.0, 20: 120.0, 32: 120.0}


@pytest.fixture(scope="module")
def waldron_runs():
    runs = {}
    for h in sorted(WALDRON_PRINTED):
        t0 = time.perf_counter()
        frame, res = waldron_pipeline(h)
        runs[h] = (frame, res, time.perf_counter() - t0)
    return runs


@pytest.fixture(scope="module")
def gs_runs():
    runs = {}
    for h in sorted(GS_PRINTED):
        t0 = time.perf_counter()
        frame, res = gs_pipeline(h)
        runs[h] = (frame, tremain_flat_functional(frame), res, time.perf_counter() - t0)
    return runs


@pytest.fixture(scope="module")
def drackn_runs():
    runs = {}
    for h in sorted(DRACKN_PRINTED):
        t0 = time.perf_counter()
        frame, cov = drackn_pipeline(h, 2)
        runs[h] = (frame, cov, time.perf_counter() - t0)
    return runs


def test_criterion_1_tremain_v7_exact(frame_residual):
    t0 = time.perf_counter()
    frame = build_tremain(v=7)
    rep = verify_etf(frame)
    elapsed = time.perf_counter() - t0
    assert (rep.dim, rep.count) == (15, 36)
    assert rep.equal_norms and rep.norm_sq == 5
    assert rep.is_tight and rep.tight_constant == 12
    assert rep.is_equiangular and rep.gram_abs_sq == 1  # unimodular off-diagonals
    assert rep.coherence_sq == Fraction(1, 25) == rep.welch_sq
    assert rep.is_etf and rep.meets_welch
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    residual = frame_residual(frame)
    assert residual < 1e-10
    print(f"\nACCEPTANCE 1: PASS (15x36, norms 5, tight 12, coherence 1/5, "
          f"{elapsed:.3f}s, float residual {residual:.2e})")


def test_criterion_2_parameter_tables():
    for h, (m, n) in FIRST_TABLE_MN.items():
        assert tremain_params(h=h) == (m, n), f"h={h}"
    for v in range(3, 64):
        if v % 6 not in (1, 3):
            continue
        m, n = tremain_params(v=v)
        assert 6 * m == (v + 2) * (v + 3)
        assert 2 * n == (v + 1) * (v + 2)
        # real/complex parametrizations agree on the overlap V = 2h - 1
        if (v + 1) // 2 % 3 != 0:
            assert tremain_params(h=(v + 1) // 2) == (m, n)
    print("\nACCEPTANCE 2: PASS (first-table pairs h=2..28 and corollary "
          "pairs V=3..63, exact integer match)")


def test_criterion_3_waldron_srgs(waldron_runs):
    for h, printed in WALDRON_PRINTED.items():
        frame, res, elapsed = waldron_runs[h]
        assert (frame.dim, frame.count) == FIRST_TABLE_MN[h]
        assert res.params.as_tuple() == printed, f"h={h}"
        # recount independently of the builder's internal certification
        recount = srg_check(res.graph)
        assert recount.ok and recount.params.as_tuple() == printed
        assert elapsed < WALDRON_BUDGETS[h], f"h={h} took {elapsed:.1f}s"
    t28 = waldron_runs[28][2]
    print(f"\nACCEPTANCE 3: PASS (h=2..28 certified by counting; "
          f"h=28 in {t28:.1f}s < 60s)")


def test_criterion_4_gs_srgs(gs_runs):
    for h, printed in GS_PRINTED.items():
        frame, functional, res, elapsed = gs_runs[h]
        # the functional certificate: <x, column> = 1 exactly, all columns
        # (tremain_flat_functional raises otherwise); recheck the scaling:
        # 3x is 3 on the class rows and 1 (times sqrt 6) on the extra row
        assert set(functional[:-1].tolist()) == {0, 3} and functional[-1] == 1
        assert len(functional) == frame.dim
        assert res.params.as_tuple() == printed, f"h={h}"
        recount = srg_check(res.graph)
        assert recount.ok and recount.params.as_tuple() == printed
        assert elapsed < GS_BUDGETS[h], f"h={h} took {elapsed:.1f}s"
    t32 = gs_runs[32][3]
    print(f"\nACCEPTANCE 4: PASS (h=2,8,20,32 flat functionals exact and "
          f"graphs certified; h=32 in {t32:.1f}s < 120s)")


def test_criterion_5_drackns_p2(drackn_runs):
    for h, printed in DRACKN_PRINTED.items():
        frame, cov, elapsed = drackn_runs[h]
        assert cov.params == printed, f"h={h}"
        recount = drackn_check(cov.graph, cov.params[1])
        assert recount.ok and recount.params == printed
        n, r, c = cov.params
        assert n - r * c == h != 0
        assert elapsed < 5.0, f"h={h} took {elapsed:.1f}s"
    print("\nACCEPTANCE 5: PASS (p=2 covers (10,2,4), (36,2,16), (136,2,64); "
          "n - rc = h for every cover)")


@pytest.mark.skipif(h510_path() is None, reason="no H(5,10) input file present")
def test_criterion_6_drackn_p5():
    h2 = load_butson(h510_path())
    frame, cov = drackn_pipeline(5, 5, h2=h2)
    assert cov.params == (55, 5, 10)
    recount = drackn_check(cov.graph, cov.params[1])
    assert recount.ok and recount.params == (55, 5, 10)
    assert cov.params[0] - cov.params[1] * cov.params[2] == 5
    print(f"\nACCEPTANCE 6: PASS ((55,5,10) cover from {h510_path().name})")


def _all_sts_up_to_63():
    return [make_sts(v) for v in range(3, 64) if v % 6 in (1, 3)]


def test_criterion_7a_embedding_invariants():
    for sts in _all_sts_up_to_63():
        emb = standard_embedding(sts)
        hits = [0] * sts.block_count
        for p in range(sts.num_points):
            row = emb.orders[p]
            assert len(set(row)) == len(row) == sts.replication  # (b)
            for bi in row:
                hits[bi] += 1
        assert all(count == 3 for count in hits)  # (a): K = 3
        for p, q in combinations(range(sts.num_points), 2):  # (c)
            shared = set(emb.orders[p]) & set(emb.orders[q])
            assert len(shared) == 1
    print("\nACCEPTANCE 7a: PASS (embedding invariants on all STS up to V=63)")


def _built_hadamards_up_to_40():
    mats = [sylvester(k) for k in range(6)]
    mats += [paley(19), paley(13), fourier(3), fourier(4), fourier(5),
             fourier(6), fourier(7), kronecker(sylvester(1), paley(19)),
             kronecker(fourier(5), sylvester(1))]
    return [h for h in mats if h.order <= 40]


def test_criterion_7b_naimark_identity():
    # Removing row r splits each column-pair sum into <phi_i, phi_j> plus the
    # complement term, so the identity for every removed row of one matrix is
    # exactly column-pair orthogonality, checked here by exact count vectors.
    for h in _built_hadamards_up_to_40():
        n, q = h.order, h.root_order
        cols = list(zip(*h.exponents))
        for i in range(n):
            for j in range(i, n):
                counts = [0] * q
                for a, b in zip(cols[i], cols[j]):
                    counts[(a - b) % q] += 1
                total = CycInt(q, counts)
                if i == j:
                    assert total == CycInt.from_int(n, q)
                else:
                    assert total.is_zero()
        # direct object-level form on small orders, every row removed
        if n <= 10:
            for row in range(n):
                assert reference_naimark_residuals(simplex_from_hadamard(h, row)) == []
    print("\nACCEPTANCE 7b: PASS (complement identity for all rows of all "
          "built matrices up to order 40)")


def _case_formula_gram(frame):
    """Predicted Gram from the construction's four structural cases."""
    prov = frame.provenance
    sim_r, sim_v, emb = prov.sim_r, prov.sim_v, prov.embedding
    v_pts = prov.sts.num_points
    entries_r, naimark_r = simplex_scalars(sim_r)
    entries_v, naimark_v = simplex_scalars(sim_v)
    r1 = sim_r.count
    n = frame.count

    def predict(i, j):
        if i > j:
            return predict(j, i).conjugate()
        split = v_pts * r1
        if i < split and j < split:
            v, s = divmod(i, r1)
            w, s2 = divmod(j, r1)
            if v == w:
                if s == s2:
                    return None  # norm, handled separately
                return naimark_r[s] * naimark_r[s2].conjugate()
            blk, pos_v, pos_w = shared_block(emb, v, w)
            return entries_r[pos_v][s] * entries_r[pos_w][s2].conjugate()
        if i >= split and j >= split:
            t, t2 = i - split, j - split
            if t == t2:
                return None
            return naimark_v[t] * naimark_v[t2].conjugate()
        v, s = divmod(i, r1)
        t = j - split
        return naimark_r[s] * entries_v[v][t].conjugate()

    return predict


@pytest.mark.parametrize("v", [3, 7, 9])
def test_criterion_7c_case_formulas_vs_gram(v):
    frame = build_tremain(v=v)
    g = gram_matrix(frame)
    predict = _case_formula_gram(frame)
    norm = ExtScalar.from_int(frame.provenance.sts.replication + 2, frame.order)
    n = frame.count
    for i in range(n):
        for j in range(i, n):
            expected = predict(i, j)
            if expected is None:
                assert g[i][j] == norm
            else:
                assert g[i][j] == expected, f"pair ({i},{j})"
    if v == 9:
        print("\nACCEPTANCE 7c: PASS (structural case values equal the "
              "independent Gram, exact, V=3,7,9)")


def test_criterion_7d_edge_flip_fuzzing(waldron_runs, gs_runs, drackn_runs):
    rng = random.Random(2024)
    graphs = [(f"waldron h={h}", waldron_runs[h][1].graph) for h in (2, 4, 8)]
    graphs += [(f"gs h={h}", gs_runs[h][2].graph) for h in (2, 8)]
    covers = [(f"drackn h={h}", drackn_runs[h][1]) for h in (2, 4, 8)]
    for name, g in graphs:
        for _ in range(100):
            u = rng.randrange(g.order)
            w = rng.randrange(g.order)
            while w == u:
                w = rng.randrange(g.order)
            cert = srg_check(flipped(g, u, w))
            assert not cert.ok, f"{name}: flip ({u},{w}) kept the certificate"
    for name, cov in covers:
        g = cov.graph
        for _ in range(100):
            u = rng.randrange(g.order)
            w = rng.randrange(g.order)
            while w == u:
                w = rng.randrange(g.order)
            cert = drackn_check(flipped(g, u, w), cov.params[1])
            assert not cert.ok, f"{name}: flip ({u},{w}) kept the certificate"
    print("\nACCEPTANCE 7d: PASS (100 single-edge flips break every "
          "certificate, 8 graphs)")


def test_criterion_8_cross_formula_consistency(waldron_runs, gs_runs, drackn_runs):
    # closed form 2h^2/p against the general form, for every pair exercised
    for h in (2, 4, 8, 16):
        m, n = tremain_params(h=h)
        assert drackn_params(m, n, 2) == 2 * h * h // 2
    assert drackn_params(*tremain_params(h=5), 5) == 10
    # Welch bound equals 1/(R+2) on every Tremain instance up to V=63
    for v in range(3, 64):
        if v % 6 in (1, 3):
            m, n = tremain_params(v=v)
            r = (v - 1) // 2
            assert welch_bound(m, n).squared == Fraction(1, (r + 2) ** 2)
    # feasibility identity on every certified parameter set
    certified = [res.params for _, res, _ in waldron_runs.values()]
    certified += [res.params for _, _, res, _ in gs_runs.values()]
    for params in certified:
        assert srg_identity_holds(params), params
    for h, (_, cov, _) in drackn_runs.items():
        n, r, c = cov.params
        assert srg_identity_holds(srg_params_waldron(*FIRST_TABLE_MN[h]))
    print("\nACCEPTANCE 8: PASS (closed forms agree; Welch = 1/(R+2) on all "
          "instances; feasibility identity on all certified sets)")
