"""Simplices, Welch bounds, Steiner/Tremain frames, and the exact verifier."""
from __future__ import annotations

import dataclasses
import hashlib
import re
import tempfile
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equiframes.designs import find_parallel_class, make_sts, standard_embedding
from equiframes.frames import (
    SteinerProvenance,
    gram_matrix,
    load_frame_exact,
    naimark_residuals,
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
from equiframes.hadamard import fourier, kronecker, normalize, real_hadamard, sylvester
from equiframes.scalar import CycInt, ExtScalar


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
    assert [x.to_complex() for x in sim.entries[0]] == [1, -1]
    assert [x.to_complex() for x in sim.naimark] == [1, 1]
    assert naimark_residuals(sim) == []


def test_simplex_row_out_of_range():
    with pytest.raises(ValueError):
        simplex_from_hadamard(sylvester(1), 2)


def test_naimark_identity_fourier5():
    sim = simplex_from_hadamard(fourier(5), 0)
    assert sim.dim == 4 and sim.count == 5
    assert naimark_residuals(sim) == []
    # inner products of distinct columns are the negated removed-row products
    g = ExtScalar.from_int(0, 5)
    for r in range(4):
        g = g + sim.entries[r][0] * sim.entries[r][1].conjugate()
    assert g == -(sim.naimark[0] * sim.naimark[1].conjugate())


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


def test_kernel_gram_matches_extscalar_oracle():
    """The array kernel equals the ExtScalar Gram entry for entry."""
    orders = set()
    for name, f in _kernel_cases():
        g = f.exact_gram
        k2 = 2 * f.k
        ref = gram_matrix(f)
        for i in range(f.count):
            for j in range(f.count):
                got = ExtScalar.from_cyc(CycInt(f.order, g[:, i, j].tolist()), k2)
                assert got == ref[i][j], f"{name}: Gram mismatch at ({i},{j})"
        orders.add(f.order)
    assert orders == {2, 8, 10, 14}


def test_gram_is_computed_once_per_frame():
    f = build_tremain(h=2)
    assert verify_etf(f).is_etf
    assert real_gram_signs(f).shape == (10, 10)
    assert f.exact_gram is f.exact_gram


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
def test_one_perturbed_entry_fails_both_modes(which, pick, negate):
    f, nonzero = _perturbation_base(which)
    r, j = nonzero[pick % len(nonzero)]
    planes = f.planes.copy()
    planes[:, r, j] = -planes[:, r, j] if negate else 0
    broken = dataclasses.replace(f, planes=planes)
    for mode in ("exact", "float"):
        rep = verify_etf(broken, mode=mode)
        assert not rep.is_etf, (mode, r, j)
        assert rep.witness, (mode, r, j)


def test_verifier_flags_broken_frame():
    f = build_tremain(v=7)
    # zero out the first nonzero entry
    r, j = np.argwhere(f.planes.any(axis=0))[0]
    planes = f.planes.copy()
    planes[:, r, j] = 0
    broken = dataclasses.replace(f, planes=planes)
    rep = verify_etf(broken)
    assert not rep.is_etf
    assert rep.witness is not None
    repf = verify_etf(broken, mode="float")
    assert not repf.is_etf


def test_float_and_exact_agree():
    from equiframes.pipelines import build_tremain as pipeline_build

    for make in (lambda: build_tremain(v=7), lambda: build_tremain(h=2),
                 lambda: build_tremain(h=8), lambda: pipeline_build(v=9)):
        f = make()
        exact = verify_etf(f)
        approx = verify_etf(f, mode="float")
        assert exact.is_etf and approx.is_etf
        assert approx.max_residual < 1e-10


def test_tremain_rejects_bad_simplex_sizes():
    sts = make_sts(7)
    emb = standard_embedding(sts)
    good_r = simplex_from_hadamard(sylvester(2), 0)
    good_v = simplex_from_hadamard(sylvester(3), 0)
    with pytest.raises(ValueError):
        tremain_etf(sts, emb, good_v, good_v)
    with pytest.raises(ValueError):
        tremain_etf(sts, emb, good_r, good_r)


def test_gram_case_values_match_construction():
    """Spot-check the four structural Gram cases against provenance data."""
    f = build_tremain(v=7)
    prov = f.provenance
    g = gram_matrix(f)
    r1 = prov.sim_r.count  # R+1
    v = prov.sts.num_points
    # same point, different simplex indices: a_s * conj(a_s')
    for s in range(r1):
        for s2 in range(s + 1, r1):
            expect = prov.sim_r.naimark[s] * prov.sim_r.naimark[s2].conjugate()
            assert g[0 * r1 + s][0 * r1 + s2] == expect
    # between the point-space columns: b_t * conj(b_t')
    base = v * r1
    for t in range(3):
        for t2 in range(t + 1, 4):
            expect = prov.sim_v.naimark[t] * prov.sim_v.naimark[t2].conjugate()
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


# SHA-256 of store_frame_csv output, pinned from the per-entry ExtScalar
# conversion that preceded the array one
CSV_SHA256 = {
    "h=2": "4a8baefb59e961f96324ee4d1d6d854845204e0277fa9f0121096ee3afded0b6",
    "V=7": "56d30dd2b8b169c97d4a4638d14b765f2449cd4c2512e1a599db70acc209e0ed",
    "V=7 fourier": "397981fb4879a12b6d2e388a0fd6da6c35959bb28711d5a3f740bd1cf24ff2e2",
    "V=13": "6224f7bbd4e1ce83e754ffbac37c8c5dbf56001292a5e7161a0b15f2e7e98858",
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
    assert "-0.0" not in re.split("[,\n]", data.decode())
    assert hashlib.sha256(data).hexdigest() == CSV_SHA256[name]


def _named_entries(f):
    """Each entry as the construction names it: a simplex ExtScalar times
    the weight 1, sqrt2, sqrt2/2 or sqrt6/2 of its place."""
    prov = f.provenance
    steiner = isinstance(prov, SteinerProvenance)
    sim_r = prov.simplex if steiner else prov.sim_r
    zero = ExtScalar.from_int(0)
    want = [[zero] * f.count for _ in range(f.dim)]
    r1 = sim_r.count
    for v, blocks in enumerate(prov.embedding.orders):
        for s in range(r1):
            for pos, blk in enumerate(blocks):
                want[blk][v * r1 + s] = sim_r.entries[pos][s]
            if not steiner:
                want[f.block_rows + v][v * r1 + s] = ExtScalar.sqrt2() * sim_r.naimark[s]
    if not steiner:
        first = len(prov.embedding.orders) * r1
        for t in range(prov.sim_v.count):
            for v in range(prov.sim_v.dim):
                want[f.block_rows + v][first + t] = ExtScalar.sqrt2(k=1) * prov.sim_v.entries[v][t]
            want[-1][first + t] = ExtScalar.sqrt6(k=1) * prov.sim_v.naimark[t]
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
            assert naimark_residuals(simplex_from_hadamard(h, row)) == []
