"""Simplices, Welch bounds, Steiner/Tremain frames, and the exact verifier."""
from __future__ import annotations

import dataclasses
import hashlib
import re
import tempfile
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equiframes.designs import (
    SteinerTripleSystem,
    find_parallel_class,
    make_sts,
    standard_embedding,
)
from equiframes.frames import (
    FrameMatrix,
    SteinerProvenance,
    _tile_phase,
    gram_matrix,
    load_frame_exact,
    real_gram_signs,
    simplex_from_hadamard,
    steiner_etf,
    store_frame_csv,
    store_frame_exact,
    tremain_etf,
    tremain_params,
    verify_etf,
    welch_bound,
)
from equiframes.hadamard import (
    fourier,
    kronecker,
    normalize,
    real_hadamard,
    sylvester,
)
from equiframes.scalar import (
    _TILE,
    MAX_ROOT_ORDER,
    CycInt,
    ExtScalar,
    _hermitian_tiles,
    cyclotomic_poly,
)
from helpers import assembled, reference_naimark_residuals, simplex_scalars, tiled


def build_tremain(v=None, h=None, parallel=False, rows=None):
    if h is not None:
        v = 2 * h - 1
    else:
        h = (v + 1) // 2
    sts = make_sts(v)
    cls = find_parallel_class(sts) if parallel else None
    emb = standard_embedding(sts, cls)
    h1 = normalize(real_hadamard(h))
    h2 = normalize(kronecker(sylvester(1), h1))
    r1, r2 = rows if rows else (h - 1, 0)
    return tremain_etf(
        sts, emb, simplex_from_hadamard(h1, r1), simplex_from_hadamard(h2, r2)
    )


def test_simplex_sylvester1():
    sim = simplex_from_hadamard(sylvester(1), 0)
    assert sim.dim == 1 and sim.count == 2
    entries, naimark = simplex_scalars(sim)
    assert [x.to_complex() for x in entries[0]] == [1, -1]
    assert [x.to_complex() for x in naimark] == [1, 1]
    assert reference_naimark_residuals(sim) == []


def test_simplex_row_out_of_range():
    with pytest.raises(ValueError):
        simplex_from_hadamard(sylvester(1), 2)


def test_naimark_identity_fourier5():
    sim = simplex_from_hadamard(fourier(5), 0)
    assert sim.dim == 4 and sim.count == 5
    assert reference_naimark_residuals(sim) == []
    # inner products of distinct columns are the negated removed-row products
    entries, naimark = simplex_scalars(sim)
    g = ExtScalar.from_int(0, 5)
    for r in range(4):
        g = g + entries[r][0] * entries[r][1].conjugate()
    assert g == -(naimark[0] * naimark[1].conjugate())


def test_welch_bound_values():
    assert welch_bound(15, 36).squared == Fraction(1, 25)
    assert abs(welch_bound(15, 36).value - 0.2) < 1e-15
    assert welch_bound(7, 28).squared == Fraction(1, 9)
    assert welch_bound(5, 10).squared == Fraction(1, 9)
    with pytest.raises(ValueError):
        welch_bound(10, 10)
    with pytest.raises(ValueError):
        welch_bound(12, 7)


def test_tremain_params_examples():
    assert tremain_params(v=7) == (15, 36)
    assert tremain_params(h=8) == (51, 136)
    assert tremain_params(h=28) == (551, 1596)
    with pytest.raises(ValueError):
        tremain_params(v=5)
    with pytest.raises(ValueError):
        tremain_params(h=6)
    # h = 1 is the frame at V = 2h - 1 = 1, which the V form refuses
    for kw in ({"h": 1}, {"v": 1}):
        with pytest.raises(ValueError, match=">= [23], got 1"):
            tremain_params(**kw)
    with pytest.raises(ValueError):
        tremain_params()


def test_steiner_etf_fano():
    sts = make_sts(7)
    emb = standard_embedding(sts)
    f = steiner_etf(sts, emb, simplex_from_hadamard(sylvester(2), 3))
    assert (f.dim, f.count) == (7, 28)
    rep = verify_etf(f)
    assert rep.is_etf
    assert rep.norm_sq == 3
    assert rep.tight_constant == 12
    assert rep.gram_abs_sq == 1
    # off-diagonal Gram values are exactly +-1
    signs = real_gram_signs(f)
    assert set(np.unique(signs)) <= {-1, 0, 1}


def test_steiner_etf_v3_degenerate():
    sts = make_sts(3)
    f = steiner_etf(sts, standard_embedding(sts), simplex_from_hadamard(sylvester(1), 0))
    assert (f.dim, f.count) == (1, 6)
    rep = verify_etf(f)
    assert rep.is_tight and rep.is_equiangular


def test_steiner_etf_bose9():
    # R = 4 here, so the simplex needs 5 vectors in dimension 4
    sts = make_sts(9)
    f = steiner_etf(sts, standard_embedding(sts), simplex_from_hadamard(fourier(5), 0))
    assert (f.dim, f.count) == (12, 45)
    assert verify_etf(f).is_etf


def test_steiner_etf_dimension_mismatch():
    sts = make_sts(7)
    with pytest.raises(ValueError):
        steiner_etf(sts, standard_embedding(sts), simplex_from_hadamard(sylvester(3), 0))


def test_tremain_v7_certificate():
    f = build_tremain(v=7)
    assert (f.dim, f.count) == (15, 36)
    rep = verify_etf(f)
    assert rep.is_etf and rep.meets_welch
    assert rep.norm_sq == 5
    assert rep.tight_constant == 12
    assert rep.coherence_sq == Fraction(1, 25)


def test_tremain_h2_real():
    f = build_tremain(h=2)
    assert (f.dim, f.count) == (5, 10)
    rep = verify_etf(f)
    assert rep.is_etf and rep.norm_sq == 3


def test_tremain_complex_v7():
    sts = make_sts(7)
    emb = standard_embedding(sts)
    f = tremain_etf(
        sts, emb,
        simplex_from_hadamard(fourier(4), 0),
        simplex_from_hadamard(fourier(8), 0),
    )
    assert not f.is_real_rational()
    rep = verify_etf(f)
    assert rep.is_etf and rep.norm_sq == 5 and rep.meets_welch


def _kernel_cases():
    from equiframes.pipelines import build_tremain as pipeline_build

    yield "h=2", build_tremain(h=2)
    yield "h=8", build_tremain(h=8)
    yield "V=7", build_tremain(v=7)
    yield "V=9", pipeline_build(v=9)
    yield "V=13", pipeline_build(v=13)
    yield "V=7 rows (1,3)", pipeline_build(v=7, row1=1, row2=3)
    yield "V=9 rows (0,5)", pipeline_build(v=9, row1=0, row2=5)
    yield "V=15 fourier(8)", pipeline_build(v=15, h1=fourier(8))


def _oracle_phases(ref, order):
    """Per Gram value the e with it a positive rational multiple of
    zeta_(m')^e, m' = lcm(2, m), by ExtScalar search over every e; -1 if none."""
    m2 = lcm(2, order)
    roots = [ExtScalar.root(m2, -e % m2) for e in range(m2)]
    known = {}

    def phase(x):
        key = repr(x)
        if key not in known:
            quotients = ((x * r).as_fraction() for r in roots)
            known[key] = next((e for e, q in enumerate(quotients) if q is not None and q > 0), -1)
        return known[key]

    return np.array([[phase(x) for x in row] for row in ref])


def test_kernel_gram_matches_extscalar_oracle():
    """The tiled kernel equals the ExtScalar Gram entry for entry, and the
    pass's phases name each entry's root of unity, at tile sizes that put
    tile boundaries inside the frames."""
    from equiframes.pipelines import build_steiner

    def zeroed(f):  # one entry zeroed: some Gram values leave every root's ray
        planes = f.planes.copy()
        planes[:, 0, 0] = 0
        return dataclasses.replace(f, planes=planes)

    extra = [("Steiner V=9 (order 5)", build_steiner(9)),
             ("h=2 zeroed", zeroed(build_tremain(h=2))),
             ("V=7 fourier zeroed", zeroed(_perturbation_base("V=7 fourier")[0]))]
    orders = set()
    for name, f in [*_kernel_cases(), *extra]:
        ref = gram_matrix(f)
        n, phi = f.count, len(f.planes)
        want_phase = _oracle_phases(ref, f.order)
        first = None
        for tile in (1, 3, 7, _TILE):
            g = np.zeros((phi, n, n), dtype=np.int64)
            with tiled(tile):
                for s, block in assembled(_hermitian_tiles(f.planes.transpose(0, 2, 1), f.order,
                                                           "Gram", f.weights), n):
                    assert block.shape == (phi, min(tile, n - s), n - s)
                    g[:, s:s + block.shape[1], s:] = block
                phase = verify_etf(f, phases=True)[1]
            g = np.triu(g)
            if first is None:
                first = g
                for i in range(n):
                    for j in range(i, n):
                        got = ExtScalar(CycInt(f.order, g[:, i, j].tolist()), 2 * f.k)
                        assert got == ref[i][j], f"{name}: Gram mismatch at ({i},{j})"
            assert np.array_equal(g, first), f"{name}: tile {tile} changes the Gram"
            assert np.array_equal(phase, want_phase), f"{name}: tile {tile} phases"
        orders.add(f.order)
    assert orders == {2, 5, 8, 10, 14}


@settings(max_examples=150, deadline=None)
@given(
    order=st.integers(min_value=1, max_value=30),
    terms=st.lists(st.tuples(st.integers(min_value=0, max_value=29),
                             st.integers(min_value=-3, max_value=3)), min_size=1, max_size=3),
)
def test_tile_phase_matches_search_on_cyclotomic_integers(order, terms):
    """Sums of one to three integer multiples of roots: the phase the pass
    keeps equals the ExtScalar search (single terms give every root of
    order lcm(2, m); most sums lie on no root's ray)."""
    x = CycInt.from_int(0, order)
    for a, c in terms:
        x = x + CycInt.root(order, a % order) * c
    g = np.array(x.coeffs, dtype=np.int64)[:, None, None]
    want = _oracle_phases([[ExtScalar(x)]], order)
    assert _tile_phase(g, order)[0, 0] == want[0, 0], x


@pytest.mark.parametrize("order", [2, 4])
def test_a_zero_frame_is_no_etf(tmp_path, order):
    """Zero columns have equal norms (0), equal moduli and frame operator
    0 = 0 I, but they span nothing, so they are no tight frame and no ETF;
    the witness says so, for the frame and for its all-zero .etf file."""
    phi = len(cyclotomic_poly(order)) - 1
    zero = FrameMatrix(np.zeros((phi, 2, 3), np.int8), np.ones(2, np.int64), 0, order, 2, 0, 0)
    token = "(" + "|".join([",".join("0" * phi)] * 4) + "|0)"
    path = tmp_path / "zero.etf"
    path.write_text(f"2 3 {order}\nbands 2 0 0\n" + f"{token} {token} {token}\n" * 2)
    for f in (zero, load_frame_exact(path)):
        rep = verify_etf(f)
        assert rep.equal_norms and rep.norm_sq == 0 and rep.is_equiangular
        assert not rep.is_tight and rep.tight_constant is None and rep.coherence is None
        assert not rep.is_etf and rep.witness == "every column has norm 0"


@pytest.mark.parametrize("order, plane", [(2, 0), (4, 1)])
def test_equiangularity_witness_on_tight_equal_norm_frame(order, plane):
    """Columns e1, e2, z e1, z e2 (z = 1 or i): equal norms and tight, but
    |Gram| is 0 at pair (0,1) and 1 at (0,2)."""
    planes = np.zeros((1 if order == 2 else 2, 2, 4))
    planes[0, [0, 1], [0, 1]] = 1
    planes[plane, [0, 1], [2, 3]] = 1
    f = FrameMatrix(planes, np.ones(2, dtype=np.int64), 0, order, 2, 0, 0)
    rep = verify_etf(f)
    assert rep.equal_norms and rep.is_tight and not rep.is_equiangular
    assert rep.witness == "|Gram| differs at pair (0,1) vs (0,2)"


@pytest.mark.parametrize("tile", [1, 256])
@pytest.mark.parametrize("zero_at", [None, 1])
def test_real_signs_refuse_a_vanishing_gram_value(tile, zero_at):
    """Columns e1, e2, e1 + e2: Gram(0, 1) = 0.  With column 1 zeroed its
    norm vanishes too, and so do its off-diagonal values."""

    planes = np.array([[[1.0, 0, 1], [0, 1, 1]]])
    if zero_at is not None:
        planes[0, :, zero_at] = 0
    f = FrameMatrix(planes, np.ones(2, dtype=np.int64), 0, 2, 2, 0, 0)
    with tiled(tile), pytest.raises(ValueError, match="off-diagonal Gram values vanish"):
        real_gram_signs(f)


def test_gram_is_computed_once_per_frame(monkeypatch):
    """One tile pass per pipeline run, shared by the ETF check, the signs
    and the cover exponents."""
    from equiframes import frames

    passes = []
    real_pass = frames._gram_pass

    def counted(frame, *args, **kwargs):
        passes.append(frame)
        return real_pass(frame, *args, **kwargs)

    monkeypatch.setattr(frames, "_gram_pass", counted)
    from equiframes.cli import h510_path
    from equiframes.hadamard import load_butson
    from equiframes.pipelines import drackn_pipeline, gs_pipeline, waldron_pipeline

    runs = [
        lambda: waldron_pipeline(4),
        lambda: gs_pipeline(8),
        lambda: drackn_pipeline(4, 2),
        lambda: drackn_pipeline(5, 5, h2=load_butson(h510_path())),
    ]
    for run in runs:
        passes.clear()
        frame = run()[0]
        assert len(passes) == 1 and passes[0] is frame


def test_verify_and_signs_hold_no_dense_gram():
    """verify_etf plus real_gram_signs on the h=32 gs frame stay within
    4 bytes per pair plus two copies of the planes: no N x N int64 array."""
    from equiframes.pipelines import build_tremain as pipeline_build

    f = pipeline_build(h=32, parallel=True)
    n = f.count
    tracemalloc.start()
    try:
        assert verify_etf(f).is_etf
        signs = real_gram_signs(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert signs.shape == (n, n)
    assert peak <= 4 * n * n + 2 * f.planes.nbytes, (peak, n)


def test_verify_without_phases_holds_nothing_per_pair():
    """verify_etf(frame) makes no phases: from h=20 (N = 820) to h=56
    (N = 6328) its traced peak grows by less than a bit per 8 new pairs
    (measured 2.06 MB at h=56, 0.25 MB above h=20; the phase matrix it
    once filled was 40 MB there), and at h=56 it is below N^2 / 8 bytes,
    one bit per pair."""
    from equiframes.pipelines import build_tremain as pipeline_build

    peaks, sizes = [], []
    for h in (20, 56):
        f = pipeline_build(h=h, parallel=True)
        tracemalloc.start()
        try:
            assert verify_etf(f).is_etf
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(f.count)
    (n0, n1), (p0, p1) = sizes, peaks
    assert p1 - p0 <= (n1 * n1 - n0 * n0) / 64, (peaks, sizes)
    assert p1 <= n1 * n1 / 8, (peaks, sizes)


# Per entry of a tile x N band: beside the phases the pass holds the tile's
# float32 rows (4 bytes per coordinate they touch, at most 715 of them here)
# and one tile x tile block's operand and products; they measure 3.5 bytes
# at tile 256 and 4.0 at tile 64.  An int64 tile x N product alone is 8.
_TILE_ENTRY_BYTES = 4
# Independent of the tile: the slot bound's float64 row chunk (2^16 entries,
# 0.5 MiB) and small objects measure 0.64 MB.
_FIXED_BYTES = 1 << 20


@pytest.mark.parametrize("tile", [64, 256])
def test_verify_holds_no_float_copy_of_the_planes(tile):
    """verify_etf on the h=32 gs frame, Gram pass included: the pass keeps
    one phase byte per pair, and everything else is per tile or fixed.  The
    planes are built before tracing starts, so only temporaries count; the
    budget's room over the measured peak (1.05 MB at tile 64, 1.3 MB at
    256) is less than a float32 copy of the planes (4 bytes per coefficient,
    5.9 MB), so such a copy would not fit, nor an int64 tile x N product."""
    from equiframes.pipelines import build_tremain as pipeline_build

    f = pipeline_build(h=32, parallel=True)
    n = f.count
    tracemalloc.start()
    try:
        with tiled(tile):
            assert verify_etf(f).is_etf
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.planes.dtype == np.int8
    budget = n * n + _TILE_ENTRY_BYTES * tile * n + _FIXED_BYTES
    assert peak <= budget, (peak, budget, tile, n)


@pytest.mark.parametrize("which, negated, bad", [
    # at tile 3, row 0's first bad pair is in column block 1, row 1's in block 0
    ("h=4", [(2, 2), (2, 3)], [(0, 3), (1, 2)]),
    ("V=7 fourier", [(1, 2), (1, 3)], [(0, 3), (1, 2)]),
    # at tile 7, row 4's first bad pair is in column block 1, row 5's in block 0
    ("h=4", [(3, 4), (3, 6)], [(4, 7), (5, 6)]),
    ("V=7 fourier", [(3, 4), (3, 5)], [(4, 7), (5, 6)]),
])
def test_modulus_witness_is_row_major_across_column_blocks(which, negated, bad):
    """Two negated entries of a real and a complex frame keep every norm and
    break exactly the moduli of the pairs ``bad`` (ExtScalar Gram).  The
    first of them lies in a later column block than a later row's pair of
    the same row tile; at every tile the witness is the row-major first pair
    and the report is the same."""

    f = build_tremain(h=4) if which == "h=4" else _perturbation_base(which)[0]
    planes = f.planes.copy()
    for r, j in negated:
        planes[:, r, j] *= -1
    broken = dataclasses.replace(f, planes=planes)
    ref = gram_matrix(broken)
    mods = [[x.abs_sq() for x in row] for row in ref]
    n = broken.count
    assert [(i, j) for i in range(n) for j in range(i + 1, n) if mods[i][j] != mods[0][1]] == bad
    reports = []
    for tile in (1, 3, 7, _TILE):
        with tiled(tile):
            reports.append(verify_etf(broken))
    want = f"|Gram| differs at pair (0,1) vs ({bad[0][0]},{bad[0][1]})"
    assert reports[0].equal_norms and reports[0].witness == want
    assert all(rep == reports[0] for rep in reports)


def test_int64_promoted_frame_gram_matches_the_dense_product():
    """One coefficient past int8 promotes the planes to int64; the tiled
    Gram still equals one dense int64 product, at tiles that cut supports."""
    f = build_tremain(h=4)
    planes = f.planes.astype(np.int64)
    planes[0, 0, 0] = 300
    g = dataclasses.replace(f, planes=planes)
    assert g.planes.dtype == np.int64
    x = g.planes[0]
    want = (x.T * g.weights) @ x
    for tile in (1, 3, 7, _TILE):
        with tiled(tile):
            for s, block in assembled(_hermitian_tiles(g.planes.transpose(0, 2, 1), g.order,
                                                       "Gram", g.weights), g.count):
                assert np.array_equal(block[0], want[s:s + tile, s:])
    rep = verify_etf(g)
    assert not rep.equal_norms and rep.witness == "norms differ at columns 0 and 1"


def _with_zero_row():
    """The h=2 ETF with a zero row appended: norms and moduli are unchanged,
    but the frame operator is no longer a multiple of the identity."""
    f = build_tremain(h=2)
    planes = np.concatenate([f.planes, np.zeros((1, 1, f.count))], axis=1)
    return dataclasses.replace(f, planes=planes, weights=np.append(f.weights, 1),
                               extra_rows=f.extra_rows + 1)


@pytest.mark.parametrize("tile", [1, 3, 256])
@pytest.mark.parametrize("make, witness", [
    (_with_zero_row, "frame operator diagonal off at 0"),
    # three equal columns (1, 1): equal norms and moduli, the diagonal is right
    (lambda: FrameMatrix(np.ones((1, 2, 3)), np.ones(2, dtype=np.int64), 0, 2, 2, 0, 0),
     "frame operator off-diagonal (0,1)"),
])
def test_frame_operator_witnesses_at_every_tile(tile, make, witness):

    with tiled(tile):
        rep = verify_etf(make())
    assert rep.equal_norms and rep.is_equiangular
    assert not rep.is_tight and not rep.is_etf
    assert rep.witness == witness


def _norm_coeffs(f):
    """The power basis of a certified frame's squared column norm at scale 4^k."""
    rep = verify_etf(f)
    assert rep.equal_norms
    return (int(rep.norm_sq * 4 ** f.k),) + (0,) * (len(f.planes) - 1)


def test_frame_operator_is_streamed_in_row_tiles():
    """The frame operator walk on the tight h=16 frame reads every tile and
    holds a few of them: no phi(m) x M x M int64 frame operator (nor a
    float32 copy of the planes)."""
    from equiframes import frames

    f = build_tremain(h=16)
    norm = _norm_coeffs(f)  # the Gram pass runs before tracing starts
    tracemalloc.start()
    try:
        with tiled(16):
            assert frames._frame_operator_witness(f, norm) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    copy, operator = 4 * f.planes.size, 8 * len(f.planes) * f.dim * f.dim
    assert peak < copy + operator, (peak, copy, operator)


def test_certified_etfs_take_tightness_from_the_welch_equality(monkeypatch):
    """Equal norms and moduli at the Welch bound force a tight frame, so
    verify_etf makes no frame-operator product on a built ETF; the streamed
    frame operator, run directly, agrees that each one is tight."""
    from equiframes import frames
    from equiframes.cli import BUNDLED_H510
    from equiframes.hadamard import load_butson
    from equiframes.pipelines import build_steiner, drackn_pipeline

    products = []
    real_tiles = frames._hermitian_tiles

    def counted(vectors, m, what, *args, **kwargs):
        products.append(what)
        return real_tiles(vectors, m, what, *args, **kwargs)

    built = [*_kernel_cases(), ("Steiner V=7", build_steiner(7)), ("Steiner V=9", build_steiner(9)),
             ("cover h=5 p=5", drackn_pipeline(5, 5, h2=load_butson(BUNDLED_H510))[0])]
    monkeypatch.setattr(frames, "_hermitian_tiles", counted)
    for name, f in built:
        assert verify_etf(f).is_etf, name
    assert "Gram" in products and "frame operator" not in products
    monkeypatch.undo()
    for name, f in built:
        assert frames._frame_operator_witness(f, _norm_coeffs(f)) is None, name


def test_gram_pass_refuses_phases_past_the_array_limit(monkeypatch):
    """The N x N phase matrix is refused before it is allocated: one byte
    per pair, two past m' = 127."""
    from equiframes import frames, scalar

    f = build_tremain(h=2)  # N = 10, m' = 2
    planes = np.zeros((64, 1, 2), dtype=np.int8)  # order 128: N = 2, m' = 128
    planes[0, 0] = 1
    g = FrameMatrix(planes, np.ones(1, dtype=np.int64), 0, 128, 1, 0, 0)
    for frame, fits, n, needs in ((f, 100, 10, 100), (g, 8, 2, 8)):
        monkeypatch.setattr(scalar, "_ARRAY_LIMIT_BYTES", fits)
        verify_etf(frame)
        monkeypatch.setattr(scalar, "_ARRAY_LIMIT_BYTES", fits - 1)
        monkeypatch.setattr(frames, "_hermitian_tiles", None)  # no tile is made
        with pytest.raises(ValueError, match=rf"^{n} x {n} Gram phase matrix needs {needs} "
                                             rf"bytes, past the {fits - 1}-byte limit$"):
            verify_etf(frame)
        monkeypatch.undo()


def test_builders_refuse_past_the_array_limit_before_the_triple_system():
    """At one byte per pair the limit admits N <= 46340: real Tremain frames
    up to V = 301 (h = 151), Steiner frames up to V = 303 and p = 2 covers
    up to h = 107 (N p = 46010).  Past it the builders refuse before any
    triple system is made; below it they go on to build (here: stopped at
    make_sts, or at a missing real Hadamard matrix)."""
    from unittest import mock

    from equiframes import pipelines

    cases = [
        (lambda v: pipelines.build_tremain(v=v, real=True), 301, 303,
         "46360 x 46360 Gram phase matrix"),
        (lambda h: pipelines.build_tremain(h=h, real=True), 151, 152,
         "46360 x 46360 Gram phase matrix"),
        (pipelines.build_steiner, 303, 307, "47278 x 47278 Gram phase matrix"),
        (lambda h: pipelines.drackn_pipeline(h, 2), 107, 108, "46872 x 46872 cover adjacency"),
    ]
    built = mock.Mock(side_effect=RuntimeError("make_sts reached"))
    with mock.patch.object(pipelines, "make_sts", built):
        for build, fits, past, what in cases:
            with pytest.raises((RuntimeError, ValueError), match="reached|no real Hadamard"):
                build(fits)
            calls = built.call_count
            with pytest.raises(ValueError, match=rf"^{what} needs \d+ bytes, past the "
                                                 rf"2147483648-byte limit$"):
                build(past)
            assert built.call_count == calls


def test_planes_outgrow_two_byte_phases():
    """The builders check the phase matrix at one byte per pair only.  A
    phase takes two past m' = 127, and there phi(m) >= 40, while M > N/3
    for a Tremain frame and M >= N/6 for a Steiner one: the phi(m) x M x N
    planes are always the larger array, refused before the phases."""
    two_byte = [m for m in range(1, MAX_ROOT_ORDER + 1) if lcm(2, m) >= 128]
    assert min(len(cyclotomic_poly(m)) - 1 for m in two_byte) == 40
    for v in range(3, 400, 2):
        if v % 6 in (1, 3):
            m, n = tremain_params(v=v)
            assert 3 * m > n and 6 * (v * (v - 1) // 6) >= v * (v + 1) // 2


@pytest.mark.parametrize("family, v, shape", [
    ("tremain", 9, (4, 22, 55)),  # m = 10, phi = 4
    ("steiner", 9, (4, 12, 45)),  # m = 5
    ("tremain", 141, (70, 3432, 10153)),  # m = 142: 2.4 GB of int8 planes
    ("tremain", 301, (150, 15352, 45753)),  # m' = 302: the 4.2 GB phase matrix would pass too
    ("steiner", 259, (48, 11137, 33670)),  # m' = 130: so would its 2.3 GB phases
])
def test_frame_planes_past_the_array_limit_are_refused(monkeypatch, family, v, shape):
    """The phi(m) x M x N planes of the default frame are refused before
    they are allocated: at the limit the frame builds, one byte under it
    the request is refused."""
    from equiframes import pipelines, scalar

    def build():
        return pipelines.build_steiner(v) if family == "steiner" else pipelines.build_tremain(v=v)

    needs = shape[0] * shape[1] * shape[2]
    if needs < 2**31:
        monkeypatch.setattr(scalar, "_ARRAY_LIMIT_BYTES", needs)
        assert build().planes.shape == shape
        monkeypatch.setattr(scalar, "_ARRAY_LIMIT_BYTES", needs - 1)
    zeros = np.zeros

    def no_planes(size, *args, **kwargs):
        assert size != shape, "the plane array was allocated"
        return zeros(size, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", no_planes)
    with pytest.raises(ValueError, match=rf"^{' x '.join(map(str, shape))} plane array needs "
                                         rf"{needs} bytes, past the \d+-byte limit$"):
        build()


def test_report_dict_is_pinned():
    """Key order and values of the JSON report, dim and count as M and N."""
    got = verify_etf(build_tremain(h=2)).to_dict()
    assert list(got.items()) == list({
        "M": 5, "N": 10, "equal_norms": True, "norm_sq": [3, 1],
        "is_tight": True, "tight_constant": [6, 1], "is_equiangular": True,
        "gram_abs_sq": [1, 1], "coherence_sq": [1, 9], "coherence": 0.3333333333333333,
        "welch_sq": [1, 9], "welch": 0.3333333333333333, "is_etf": True,
        "meets_welch": True, "witness": None,
    }.items())


def test_real_equiangularity_compares_moduli_unsquared(tmp_path):
    """One entry coefficient 2^20: the Gram stays below 2^52, its square
    (|Gram|^2 in int64) would not, so real moduli are compared unsquared
    and the report carries a witness instead of a refusal."""
    path = tmp_path / "frame.etf"
    store_frame_exact(path, build_tremain(h=2))
    text = path.read_text()
    path.write_text(text.replace("(1|0|0|0|0)", f"({1 << 20}|0|0|0|0)", 1))
    rep = verify_etf(load_frame_exact(path))
    assert not rep.is_etf and not rep.is_equiangular
    assert rep.witness == "norms differ at columns 0 and 1"


def test_mixed_surd_row_is_rejected(tmp_path):
    path = tmp_path / "frame.etf"
    store_frame_exact(path, build_tremain(v=7))
    lines = path.read_text().split("\n")
    tokens = lines[2].split()
    tokens[0] = "(0|1|0|0|0)"  # sqrt2, but block rows carry weight 1
    lines[2] = " ".join(tokens)
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=re.escape(f"{path}: row 0 mixes surds")):
        load_frame_exact(path)


def test_frame_matrix_validates_its_arrays():
    f = build_tremain(h=2)
    with pytest.raises(ValueError, match="read-only"):
        f.planes[0, 0, 0] = 5
    with pytest.raises(ValueError, match="row weight"):
        dataclasses.replace(f, weights=np.full(f.dim, 5))
    with pytest.raises(ValueError, match="bands"):
        dataclasses.replace(f, block_rows=f.block_rows + 1)
    with pytest.raises(ValueError, match="planes"):
        dataclasses.replace(f, order=8)


def test_frame_matrix_adopts_integer_planes_without_a_copy():
    """An int8 or int64 array that owns its memory is taken as it is and
    turns read-only; a view is copied, leaving the input alone.  Any other
    array is converted, to int8 when every coefficient fits (-128 and 127
    do) and to int64 otherwise; a float one must hold integers."""
    f = build_tremain(h=2)
    assert f.planes.dtype == np.int8
    for dtype in (np.int8, np.int64):
        planes = 2 * f.planes.astype(dtype)
        g = dataclasses.replace(f, planes=planes)
        assert g.planes is planes and not planes.flags.writeable
    wide = np.zeros((1, f.dim, f.count + 1), dtype=np.int8)
    wide[..., :-1] = f.planes
    view = wide[..., :-1]
    h = dataclasses.replace(f, planes=view)
    assert not np.shares_memory(h.planes, wide) and wide.flags.writeable
    for low, high, dtype in [(-128, 127, np.int8), (-129, 0, np.int64), (0, 128, np.int64)]:
        planes = f.planes.astype(np.float64)
        planes[0, 0, :2] = low, high
        k = dataclasses.replace(f, planes=planes)
        assert k.planes.dtype == dtype and np.array_equal(k.planes, planes)
        assert dataclasses.replace(f, planes=planes.astype(np.int32)).planes.dtype == dtype
    for bad in (0.5, np.nan, np.inf, 2.0 ** 63):
        planes = f.planes.astype(np.float64)
        planes[0, 0, 0] = bad
        with pytest.raises(ValueError, match="integers|int64"):
            dataclasses.replace(f, planes=planes)


@pytest.mark.parametrize("coeff, raises", [(1 << 10, False), (1 << 27, True)])
def test_exactness_guard_raises_on_loaded_frame(tmp_path, coeff, raises):
    path = tmp_path / "frame.etf"
    store_frame_exact(path, build_tremain(h=2))
    text = path.read_text()
    assert "(1|0|0|0|0)" in text
    path.write_text(text.replace("(1|0|0|0|0)", f"({coeff}|0|0|0|0)", 1))
    frame = load_frame_exact(path)
    if raises:
        with pytest.raises(ValueError, match="2\\^52"):
            verify_etf(frame)
    else:
        assert not verify_etf(frame).is_etf


@lru_cache(maxsize=None)
def _perturbation_base(which):
    from equiframes.pipelines import build_tremain as pipeline_build

    if which == "h=2":
        f = build_tremain(h=2)
    elif which == "V=7 fourier":
        f = pipeline_build(v=7, h1=fourier(4), h2=fourier(8))
    else:
        f = pipeline_build(v=9)
    return f, np.argwhere(f.planes.any(axis=0)).tolist()


@settings(max_examples=40, deadline=None)
@given(
    which=st.sampled_from(["h=2", "V=7 fourier", "V=9"]),
    pick=st.integers(min_value=0),
    negate=st.booleans(),
)
def test_one_perturbed_entry_fails_both_modes(frame_residual, which, pick, negate):
    """The exact certifier rejects with a witness, and the float oracle sees it too."""
    f, nonzero = _perturbation_base(which)
    r, j = nonzero[pick % len(nonzero)]
    planes = f.planes.copy()
    planes[:, r, j] = -planes[:, r, j] if negate else 0
    broken = dataclasses.replace(f, planes=planes)
    rep = verify_etf(broken)
    assert not rep.is_etf, (r, j)
    assert rep.witness, (r, j)
    assert frame_residual(broken) > 1e-10, (r, j)


def test_verifier_flags_broken_frame(frame_residual):
    f = build_tremain(v=7)
    # zero out the first nonzero entry
    r, j = np.argwhere(f.planes.any(axis=0))[0]
    planes = f.planes.copy()
    planes[:, r, j] = 0
    broken = dataclasses.replace(f, planes=planes)
    rep = verify_etf(broken)
    assert not rep.is_etf
    assert rep.witness is not None
    assert frame_residual(broken) > 1e-10


def test_float_and_exact_agree(frame_residual):
    from equiframes.pipelines import build_tremain as pipeline_build

    for make in (lambda: build_tremain(v=7), lambda: build_tremain(h=2),
                 lambda: build_tremain(h=8), lambda: pipeline_build(v=9)):
        f = make()
        assert verify_etf(f).is_etf
        assert frame_residual(f) < 1e-10


def test_tremain_rejects_bad_simplex_sizes():
    sts = make_sts(7)
    emb = standard_embedding(sts)
    good_r = simplex_from_hadamard(sylvester(2), 0)
    good_v = simplex_from_hadamard(sylvester(3), 0)
    with pytest.raises(ValueError):
        tremain_etf(sts, emb, good_v, good_v)
    with pytest.raises(ValueError):
        tremain_etf(sts, emb, good_r, good_r)


def test_builders_refuse_an_embedding_of_another_system():
    """Both builders take an embedding of the system or of a copy of it, and
    refuse one of another system, of another size or relabelled, alike."""
    from equiframes.pipelines import build_tremain as pipeline_build

    prov = pipeline_build(v=9).provenance
    sts, emb, steiner_sim = prov.sts, prov.embedding, simplex_from_hadamard(fourier(5), 0)
    copy = SteinerTripleSystem(9, sts.blocks.copy())
    builds = {"tremain": lambda s, e: tremain_etf(s, e, prov.sim_r, prov.sim_v),
              "steiner": lambda s, e: steiner_etf(s, e, steiner_sim)}
    relabelled = SteinerTripleSystem(9, (sts.blocks + 1) % 9)
    for name, build in builds.items():
        assert np.array_equal(build(copy, emb).planes, build(sts, emb).planes), name
        for other in (make_sts(7), relabelled):
            with pytest.raises(ValueError, match="embedding belongs to a different system"):
                build(sts, standard_embedding(other))


def test_gram_case_values_match_construction():
    """Spot-check the four structural Gram cases against provenance data."""
    f = build_tremain(v=7)
    prov = f.provenance
    g = gram_matrix(f)
    r1 = prov.sim_r.count  # R+1
    v = prov.sts.num_points
    naimark_r, naimark_v = simplex_scalars(prov.sim_r)[1], simplex_scalars(prov.sim_v)[1]
    # same point, different simplex indices: a_s * conj(a_s')
    for s in range(r1):
        for s2 in range(s + 1, r1):
            expect = naimark_r[s] * naimark_r[s2].conjugate()
            assert g[0 * r1 + s][0 * r1 + s2] == expect
    # between the point-space columns: b_t * conj(b_t')
    base = v * r1
    for t in range(3):
        for t2 in range(t + 1, 4):
            expect = naimark_v[t] * naimark_v[t2].conjugate()
            assert g[base + t][base + t2] == expect


def test_exact_file_roundtrip(tmp_path):
    f = build_tremain(v=7)
    path = tmp_path / "frame.etf"
    store_frame_exact(path, f)
    loaded = load_frame_exact(path)
    assert_same_frame(loaded, f)
    assert verify_etf(loaded).is_etf
    again = tmp_path / "again.etf"
    store_frame_exact(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def assert_same_frame(got, want):
    assert np.array_equal(got.planes, want.planes)
    assert np.array_equal(got.weights, want.weights)
    assert (got.k, got.order, got.block_rows, got.point_rows, got.extra_rows) == (
        want.k, want.order, want.block_rows, want.point_rows, want.extra_rows)


@lru_cache(maxsize=None)
def _stored_text(which):
    from equiframes.pipelines import build_tremain as pipeline_build

    f = build_tremain(h=2) if which == "h=2" else pipeline_build(v=7, h1=fourier(4), h2=fourier(8))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.etf"
        store_frame_exact(path, f)
        return path.read_text()


@settings(max_examples=200, deadline=None)
@example(which="h=2", line=2, field=0, whole_token=True, value="(2|0|0|0|9)")  # k not minimal
@given(
    which=st.sampled_from(["h=2", "V=7 fourier"]),
    line=st.integers(min_value=0),
    field=st.integers(min_value=0),
    whole_token=st.booleans(),
    value=st.one_of(
        st.integers(min_value=-3, max_value=70).map(str),
        st.sampled_from(["", "-0", "1.5", "x", "()", "(0|1|0|0|0)", "(1|0|0|0|0)",
                         "(2|0|0|0|1)", "bands", str(2**51), str(10**10), str(2**60),
                         str(10**400)]),
        st.text(alphabet="0123456789-,|() x\n", max_size=6),
    ),
)
def test_loader_fuzz_raises_naming_file_or_round_trips(
    tmp_path_factory, which, line, field, whole_token, value
):
    """One mutated field or token: ValueError naming the file, or a frame
    that store -> load reproduces exactly."""
    lines = _stored_text(which).split("\n")
    i = line % len(lines)
    parts = lines[i].split(" ") if whole_token else re.split(r"([ |,()])", lines[i])
    step = 1 if whole_token else 2  # re.split keeps the separators at odd indices
    parts[step * (field % ((len(parts) + step - 1) // step))] = value
    lines[i] = (" " if whole_token else "").join(parts)
    path = tmp_path_factory.mktemp("fuzz") / "frame.etf"
    path.write_text("\n".join(lines))
    try:
        frame = load_frame_exact(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    again = path.with_name("again.etf")
    store_frame_exact(again, frame)
    assert_same_frame(load_frame_exact(again), frame)


def test_csv_export(tmp_path):
    f = build_tremain(h=2)
    path = tmp_path / "frame.csv"
    store_frame_csv(path, f)
    rows = path.read_text().strip().split("\n")
    assert len(rows) == 5
    assert len(rows[0].split(",")) == 20


# SHA-256 of store_frame_csv output, pinned from fields written as the repr
# of a Python float ("1.0"; numpy >= 2 spells a numpy scalar "np.float64(1.0)")
CSV_SHA256 = {
    "h=2": "d5910106242b7057a4c1a460dffec7f6c57165655f6fe295bf0f17adb07a941d",
    "V=7": "a5d40798b1919cf1cde4dc0a383e4209ea58642941cf4cb52a9d69e9caa768e2",
    "V=7 fourier": "8a7676fd06969e3348b46b6da4fe2f3cebd4c83b37e95c03c91c6a22343f55a7",
    "V=13": "5f29f37811a35e69fbbf1f64c0bcdcb6c0036f7732a8778099a2e29ad791209b",
}


@pytest.mark.parametrize("name", CSV_SHA256)
def test_csv_bytes_are_pinned(tmp_path, name):
    from equiframes.pipelines import build_tremain as pipeline_build

    f = {
        "h=2": lambda: pipeline_build(h=2),
        "V=7": lambda: pipeline_build(v=7),
        "V=7 fourier": lambda: pipeline_build(v=7, h1=fourier(4), h2=fourier(8)),
        "V=13": lambda: pipeline_build(v=13),
    }[name]()
    path = tmp_path / "frame.csv"
    store_frame_csv(path, f)
    data = path.read_bytes()
    fields = [row.split(",") for row in data.decode().splitlines()]
    assert "-0.0" not in {x for row in fields for x in row}
    # every field is a number, equal bit for bit to the entry it stands for
    values = np.array([[float(x) for x in row] for row in fields])
    want = f.to_complex_array().view(np.float64)
    assert values.shape == want.shape
    assert np.array_equal(values.view(np.uint64), want.view(np.uint64))
    assert hashlib.sha256(data).hexdigest() == CSV_SHA256[name]


@pytest.mark.parametrize("rows", [1, 7])
def test_csv_bytes_do_not_depend_on_the_row_block(tmp_path, monkeypatch, rows):
    """The complex V=7 frame (15 rows), each block deduplicated on its own."""
    from equiframes import frames
    from equiframes.pipelines import build_tremain as pipeline_build

    f = pipeline_build(v=7, h1=fourier(4), h2=fourier(8))
    store_frame_csv(tmp_path / "want.csv", f)
    monkeypatch.setattr(frames, "_CSV_ROWS", rows)
    store_frame_csv(tmp_path / "got.csv", f)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_csv_writer_holds_one_row_block_beside_the_complex_copy(tmp_path):
    """The h=20 frame (287 x 820): the writer peaks at most at twice the
    16 M N bytes of its complex copy (measured 1.5x; formatting the whole
    frame at once peaked at 6.1x)."""
    f = build_tremain(h=20)
    tracemalloc.start()
    try:
        store_frame_csv(tmp_path / "frame.csv", f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    copy = 16 * f.dim * f.count
    assert peak <= 2 * copy, peak / copy


def _named_entries(f):
    """Each entry as the construction names it: a simplex ExtScalar times
    the weight 1, sqrt2, sqrt2/2 or sqrt6/2 of its place."""
    prov = f.provenance
    steiner = isinstance(prov, SteinerProvenance)
    sim_r = prov.simplex if steiner else prov.sim_r
    entries_r, naimark_r = simplex_scalars(sim_r)
    zero = ExtScalar.from_int(0)
    want = [[zero] * f.count for _ in range(f.dim)]
    r1 = sim_r.count
    for v, blocks in enumerate(prov.embedding.orders):
        for s in range(r1):
            for pos, blk in enumerate(blocks):
                want[blk][v * r1 + s] = entries_r[pos][s]
            if not steiner:
                want[f.block_rows + v][v * r1 + s] = ExtScalar.sqrt2() * naimark_r[s]
    if not steiner:
        entries_v, naimark_v = simplex_scalars(prov.sim_v)
        first = len(prov.embedding.orders) * r1
        for t in range(prov.sim_v.count):
            for v in range(prov.sim_v.dim):
                want[f.block_rows + v][first + t] = ExtScalar.sqrt2(k=1) * entries_v[v][t]
            want[-1][first + t] = ExtScalar.sqrt6(k=1) * naimark_v[t]
    return want


def test_builders_match_simplex_entries():
    """The planes filled from exponent tables name the simplices' values."""
    from equiframes.pipelines import build_steiner

    cases = [*_kernel_cases(), ("Steiner V=7", build_steiner(7)), ("Steiner V=9", build_steiner(9))]
    for name, f in cases:
        want = _named_entries(f)
        for r in range(f.dim):
            for j in range(f.count):
                assert f.entry(r, j) == want[r][j], f"{name}: entry ({r},{j})"


def test_naimark_identity_all_rows_small_orders():
    for h in (sylvester(2), fourier(3), fourier(5), sylvester(3)):
        for row in range(h.order):
            assert reference_naimark_residuals(simplex_from_hadamard(h, row)) == []
