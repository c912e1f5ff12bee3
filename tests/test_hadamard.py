"""Hadamard constructions all pass the exact H H* = nI verifier."""
from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equiframes import cli
from equiframes import scalar as scalar_module
from equiframes.hadamard import (
    ButsonMatrix,
    fourier,
    kronecker,
    load_butson,
    normalize,
    paley,
    real_hadamard,
    search_butson,
    store_butson,
    sylvester,
    verify_hadamard,
)
from equiframes.scalar import (
    _TILE,
    MAX_HADAMARD_ORDER,
    MAX_ROOT_ORDER,
    CycInt,
    _cyclic_product,
    root_coeffs,
)
from helpers import tiled


def numeric_gram_residual(h: ButsonMatrix) -> float:
    """Independent float oracle: max |(H H*)_{ik} - n [i=k]|."""
    n, q = h.order, h.root_order
    vals = [[cmath.exp(2j * cmath.pi * e / q) for e in row] for row in h.exponents]
    worst = 0.0
    for i in range(n):
        for k in range(n):
            g = sum(vals[i][j] * vals[k][j].conjugate() for j in range(n))
            worst = max(worst, abs(g - (n if i == k else 0)))
    return worst


def test_sylvester_base_cases():
    assert sylvester(0).exponents.tolist() == [[0]]
    h = sylvester(1)
    assert h.exponents.tolist() == [[0, 0], [0, 1]]
    assert verify_hadamard(h).ok


def test_sylvester_32():
    h = sylvester(5)
    assert h.order == 32
    assert verify_hadamard(h).ok
    assert numeric_gram_residual(h) < 1e-9


@pytest.mark.parametrize("q,n", [(3, 4), (19, 20), (13, 28), (11, 12), (43, 44)])
def test_paley_orders(q, n):
    h = paley(q)
    assert h.order == n and h.root_order == 2
    assert verify_hadamard(h).ok


def test_paley_rejects_non_prime():
    for q in (2, 9, 15, 1):
        with pytest.raises(ValueError):
            paley(q)


def test_fourier():
    assert fourier(1).order == 1
    assert fourier(2).exponents.tolist() == sylvester(1).exponents.tolist()
    h5 = fourier(5)
    assert h5.root_order == 5
    assert verify_hadamard(h5).ok
    assert numeric_gram_residual(h5) < 1e-9
    assert verify_hadamard(fourier(6)).ok


def test_kronecker_matches_sylvester():
    h = kronecker(sylvester(1), sylvester(1))
    assert h.exponents.tolist() == sylvester(2).exponents.tolist()


def test_kronecker_order_40():
    h = kronecker(sylvester(1), paley(19))
    assert h.order == 40 and h.root_order == 2
    assert verify_hadamard(h).ok


def test_kronecker_lcm_rule():
    h = kronecker(fourier(5), sylvester(1))
    assert h.order == 10
    assert h.root_order == 10  # lcm(5, 2), not 5
    assert verify_hadamard(h).ok


def test_normalize_idempotent_and_preserving():
    for h in (sylvester(2), paley(19), paley(13), fourier(5)):
        nh = normalize(h)
        assert all(e == 0 for e in nh.exponents[0])
        assert all(row[0] == 0 for row in nh.exponents)
        assert verify_hadamard(nh).ok
        assert normalize(nh).exponents.tolist() == nh.exponents.tolist()


def test_normalize_restores_permuted_sylvester():
    h = sylvester(1)
    permuted = ButsonMatrix(2, 2, (h.exponents[1], h.exponents[0]))
    nh = normalize(permuted)
    assert all(e == 0 for e in nh.exponents[0])
    assert verify_hadamard(nh).ok


def test_verify_catches_flipped_sign():
    h = sylvester(2)
    rows = [list(r) for r in h.exponents]
    rows[2][1] ^= 1
    bad = ButsonMatrix(4, 2, tuple(tuple(r) for r in rows))
    rep = verify_hadamard(bad)
    assert not rep.ok
    assert rep.failure is not None


def test_real_hadamard_coverage():
    for n in (1, 2, 4, 8, 12, 16, 20, 28, 32, 40, 44, 56, 64, 88):
        h = real_hadamard(n)
        assert h.order == n and h.is_real()
        assert verify_hadamard(h).ok
    for n in (3, 6, 10):
        with pytest.raises(ValueError):
            real_hadamard(n)


def test_butson_file_roundtrip(tmp_path):
    h = sylvester(2)
    path = tmp_path / "h.txt"
    store_butson(path, h)
    assert load_butson(path).exponents.tolist() == h.exponents.tolist()


def test_butson_file_rejects_out_of_range_exponent(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n0 0\n0 2\n")
    with pytest.raises(ValueError):
        load_butson(path)


def test_butson_file_rejects_non_hadamard(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n0 0\n0 0\n")
    with pytest.raises(ValueError, match="not a Hadamard"):
        load_butson(path)


def test_search_finds_order_2():
    h = search_butson(2, 2, seed=1, budget=50)
    assert h is not None
    assert verify_hadamard(h).ok


def test_search_finds_order_4():
    h = search_butson(4, 2, seed=3, budget=5000)
    assert h is not None
    assert verify_hadamard(h).ok


def test_search_deterministic_under_seed():
    a = search_butson(4, 2, seed=5, budget=3000)
    b = search_butson(4, 2, seed=5, budget=3000)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.exponents.tolist() == b.exponents.tolist()


def test_search_result_always_verified():
    h = search_butson(6, 3, seed=0, budget=4000)
    if h is not None:
        assert verify_hadamard(h).ok


# --- per-pair CycInt reference ----------------------------------------------


def reference_verify(h: ButsonMatrix) -> tuple[bool, tuple[int, int] | None]:
    """H H* = n I one row pair at a time: the difference counts of rows i and
    k, reduced as a CycInt; the first failing pair in row-major order."""
    n, q = h.order, h.root_order
    for i in range(n):
        for k in range(i + 1, n):
            counts = [0] * q
            for a, b in zip(h.exponents[i], h.exponents[k]):
                counts[(a - b) % q] += 1
            if not CycInt(q, counts).is_zero():
                return False, (i, k)
    return True, None


@st.composite
def exponent_tables(draw):
    n, q = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    row = st.tuples(*[st.integers(0, q - 1)] * n)
    return ButsonMatrix(n, q, draw(st.tuples(*[row] * n)))


@settings(max_examples=100, deadline=None)
@given(exponent_tables(), exponent_tables())
def test_normalize_and_kronecker_match_per_entry_loops(h, g):
    """The array builders against the entry-by-entry loops they replaced:
    scale columns by row 0, then rows by column 0; the Kronecker entry
    ((i1, i2), (j1, j2)) is e1 * q/q1 + e2 * q/q2 mod lcm(q1, q2)."""
    n, q, e = h.order, h.root_order, h.exponents.tolist()
    tmp = [[(e[i][j] - e[0][j]) % q for j in range(n)] for i in range(n)]
    want = [[(tmp[i][j] - tmp[i][0]) % q for j in range(n)] for i in range(n)]
    assert normalize(h).exponents.tolist() == want
    m, r, f = g.order, g.root_order, g.exponents.tolist()
    lcm = q * r // math.gcd(q, r)
    want = [[(e[i1][j1] * (lcm // q) + f[i2][j2] * (lcm // r)) % lcm
             for j1 in range(n) for j2 in range(m)] for i1 in range(n) for i2 in range(m)]
    k = kronecker(h, g)
    assert (k.order, k.root_order, k.exponents.tolist()) == (n * m, lcm, want)


def perturbed(h: ButsonMatrix, i: int, j: int, e: int) -> ButsonMatrix:
    rows = [list(r) for r in h.exponents]
    rows[i % h.order][j % h.order] = e % h.root_order
    return ButsonMatrix(h.order, h.root_order, tuple(map(tuple, rows)))


KNOWN = {"sylvester(3)": sylvester(3), "paley(7)": paley(7), "fourier(6)": fourier(6),
         "H(5,10)": load_butson(cli.BUNDLED_H510)}


# small tiles put the row tile and column block boundaries of H H* inside the tables
tiles = st.sampled_from([1, 3, 7, _TILE])


@settings(max_examples=300, deadline=None)
@given(exponent_tables(), tiles)
def test_verify_matches_pairwise_reference_on_random_tables(h, tile):
    with tiled(tile):
        rep = verify_hadamard(h)
    assert (rep.ok, rep.failure) == reference_verify(h)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(KNOWN)), st.integers(0, 99), st.integers(0, 99), st.integers(0, 99),
       tiles)
def test_verify_matches_pairwise_reference_on_perturbed_matrices(name, i, j, e, tile):
    h = perturbed(KNOWN[name], i, j, e)
    with tiled(tile):
        rep = verify_hadamard(h)
    assert (rep.ok, rep.failure) == reference_verify(h)


def test_verify_bounds_slot_sums_with_large_root_coefficients():
    """At q = 105 reduced roots have coefficients of size 2; the check stays
    exact and agrees with the reference."""
    assert abs(root_coeffs(105)).max() == 2
    h = ButsonMatrix(3, 105, ((0, 7, 14), (0, 35, 70), (0, 15, 30)))
    rep = verify_hadamard(h)
    assert (rep.ok, rep.failure) == reference_verify(h) == (False, (0, 1))


def test_slot_kernel_multiplies_only_nonzero_planes():
    """Exponents 0-5 declared at q = 1000 fill 6 of the phi(1000) = 400 planes
    on each side: 36 products, equal to the per-pair CycInt product."""
    q = 1000
    h = ButsonMatrix(6, q, fourier(6).exponents)
    planes = np.moveaxis(root_coeffs(q)[h.exponents], -1, 0).astype(np.float64)
    calls = []

    def mul(x, y):
        calls.append(1)
        return x @ y

    prod = _cyclic_product(planes, [p.T for p in planes], q, mul, 6.0, "H H*")
    assert len(calls) == 36
    for i, row in enumerate(h.exponents.tolist()):
        for k, other in enumerate(h.exponents.tolist()):
            ref = CycInt.from_int(0, q)
            for a, b in zip(row, other):
                ref = ref + CycInt.root(q, a) * CycInt.root(q, b).conjugate()
            assert prod[:, i, k].tolist() == list(ref.coeffs)
    rep = verify_hadamard(h)
    assert (rep.ok, rep.failure) == reference_verify(h)
    calls.clear()
    zero = _cyclic_product(np.zeros_like(planes), [p.T for p in planes], q, mul, 6.0, "H H*")
    assert len(calls) == 6 and zero.shape == (400, 6, 6) and not zero.any()


# --- the root order bound -----------------------------------------------------


def test_huge_root_order_is_refused_before_any_table(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("2 1000000\n0 0\n0 500000\n")
    fail = mock.Mock(side_effect=AssertionError("built a root table"))
    with mock.patch("equiframes.scalar.cyclotomic_poly", fail), \
            mock.patch("equiframes.hadamard.root_coeffs", fail):
        with pytest.raises(ValueError, match=re.escape(f"{path}: root order 1000000")):
            load_butson(path)
        assert cli.main(["--out", str(tmp_path), "make", "hadamard",
                         "--hadamard-file", str(path)]) == 1
        for build in (lambda: ButsonMatrix(1, MAX_ROOT_ORDER + 1, ((0,),)),
                      lambda: fourier(MAX_ROOT_ORDER + 1),
                      lambda: root_coeffs(MAX_ROOT_ORDER + 1)):
            with pytest.raises(ValueError, match=str(MAX_ROOT_ORDER)):
                build()
    fail.assert_not_called()
    assert f"{path}: root order" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["huge.txt"]


def test_largest_root_order_is_accepted():
    assert root_coeffs(MAX_ROOT_ORDER).shape == (MAX_ROOT_ORDER, MAX_ROOT_ORDER // 2)
    assert ButsonMatrix(1, MAX_ROOT_ORDER, ((0,),)).root_order == MAX_ROOT_ORDER


# --- the order bound ----------------------------------------------------------


@pytest.mark.parametrize("spec, build, args", [
    ("sylvester:16", sylvester, (16,)),
    ("paley:19997", paley, (19997,)),
    ("fourier:20000", fourier, (20000,)),
    ("search:2000:2", search_butson, (2000, 2)),
    ("kron(fourier:200,fourier:200)", kronecker, (fourier(200), fourier(200))),
    ("real:8192", real_hadamard, (8192,)),
])
def test_an_order_past_the_bound_is_refused_before_any_table(tmp_path, capsys, spec, build,
                                                             args):
    """The builder raises ValueError having allocated under 1 MB, and the
    CLI exits 1 naming the bound and writes nothing."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=str(MAX_HADAMARD_ORDER)):
            build(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert cli.main(["--out", str(tmp_path), "make", "hadamard", "--spec", spec]) == 1
    assert str(MAX_HADAMARD_ORDER) in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("spec, shape", [("fourier:1024", "1024 x 1024 x 512"),
                                         ("kron(fourier:64,fourier:64)", "4096 x 4096 x 32")])
def test_hadamard_planes_past_the_array_limit_are_refused_before_they_are_made(
        tmp_path, capsys, spec, shape):
    """Both tables are within the order bound, but the int64 planes of their
    H H* (n x n x phi(q)) need 4 GiB: verify_hadamard refuses them before
    they are allocated, and the CLI exits 1 and writes nothing."""
    assert cli.main(["--out", str(tmp_path), "make", "hadamard", "--spec", spec]) == 1
    assert capsys.readouterr().err == (f"configuration error: {shape} H H* plane array needs "
                                       "4294967296 bytes, past the 2147483648-byte limit\n")
    assert not any(tmp_path.iterdir())


def test_loaded_butson_planes_past_the_array_limit_are_refused(tmp_path, monkeypatch):
    """load_butson verifies through the same refusal: fourier(8)'s planes
    are 8 x 8 x 4 int64 entries, 2048 bytes."""
    path = tmp_path / "f8.txt"
    store_butson(path, fourier(8))
    monkeypatch.setattr(scalar_module, "_ARRAY_LIMIT_BYTES", 2048)
    assert verify_hadamard(load_butson(path)).ok
    monkeypatch.setattr(scalar_module, "_ARRAY_LIMIT_BYTES", 2047)
    with pytest.raises(ValueError, match=re.escape(f"{path}: 8 x 8 x 4 H H* plane array needs "
                                                   "2048 bytes, past the 2047-byte limit")):
        load_butson(path)


def test_butson_header_past_the_order_bound_is_refused_before_the_rows(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(f"{MAX_HADAMARD_ORDER + 1} 2\n0 0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: order {MAX_HADAMARD_ORDER + 1} "
                                                   f"exceeds the supported {MAX_HADAMARD_ORDER}")):
        load_butson(path)


# --- loader fuzz --------------------------------------------------------------


STORED = {"sylvester(2)": sylvester(2), "fourier(6)": KNOWN["fourier(6)"],
          "H(5,10)": KNOWN["H(5,10)"]}


def _mutate(lines: list[str], kind: str, where: int, value: str) -> list[str]:
    n = len(lines) - 1
    row = 1 + where % n
    fields = lines[row].split(" ")
    if kind == "header":
        head = lines[0].split(" ")
        head[where % 2] = value
        lines[0] = " ".join(head)
    elif kind == "exponent":
        fields[(where // n) % n] = value
        lines[row] = " ".join(fields)
    elif kind == "row length":
        lines[row] = " ".join(fields[:-1] if where % 2 else [*fields, value])
    elif where % 2:  # row count
        del lines[row]
    else:
        lines.insert(row, lines[row])
    return lines


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(STORED)),
    kind=st.sampled_from(["header", "exponent", "row length", "row count"]),
    where=st.integers(0, 10**6),
    value=st.one_of(
        st.integers(-3, 40).map(str),
        st.sampled_from(["", "x", "1.5", "-0", "0x1", str(MAX_ROOT_ORDER), str(MAX_ROOT_ORDER + 1),
                         str(10**6), str(2**63), str(10**400)]),
    ),
)
def test_butson_loader_fuzz_round_trips_refuses_or_exits_2(tmp_path_factory, name, kind,
                                                            where, value):
    """One mutated header field, exponent, row length or row count: the file
    round-trips, or load_butson raises a ValueError naming it; the CLI exits
    0, 1 or, for a well-formed table that is not Hadamard, 2."""
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "h.txt"
    store_butson(path, STORED[name])
    lines = _mutate(path.read_text().rstrip("\n").split("\n"), kind, where, value)
    path.write_text("\n".join(lines) + "\n")
    try:
        h = load_butson(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        want = 2 if "not a Hadamard" in str(exc) else 1
    else:
        again = tmp / "again.txt"
        store_butson(again, h)
        back = load_butson(again)
        assert (back.order, back.root_order, back.exponents.tolist()) == (
            h.order, h.root_order, h.exponents.tolist())
        want = 0
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["--out", str(tmp / "out"), "make", "hadamard",
                         "--hadamard-file", str(path)]) == want


# --- search against the per-pair loop it replaced -----------------------------


def reference_search(n, q, seed=0, budget=20000):
    """Per-pair CycInt local search, one list of difference counts per row pair."""
    rng = random.Random(seed)

    def pair_bad(c):
        return not CycInt(q, c).is_zero()

    moves_left = budget
    while moves_left > 0:
        exps = [[0] * n for _ in range(n)]
        for i in range(1, n):
            for j in range(1, n):
                exps[i][j] = rng.randrange(q)
        counts = {}
        for i in range(n):
            for k in range(i + 1, n):
                counts[i, k] = [0] * q
                for a, b in zip(exps[i], exps[k]):
                    counts[i, k][(a - b) % q] += 1
        bad = {pair for pair, c in counts.items() if pair_bad(c)}
        stall = 0
        while moves_left > 0 and bad and stall < 4 * n * n:
            moves_left -= 1
            i, j = rng.randrange(1, n), rng.randrange(1, n)
            old, new = exps[i][j], rng.randrange(q)
            if new == old:
                continue
            trial = {}
            for k in range(n):
                if k != i:
                    lo, hi = min(i, k), max(i, k)
                    c = list(counts[lo, hi])
                    sign = 1 if lo == i else -1
                    c[sign * (old - exps[k][j]) % q] -= 1
                    c[sign * (new - exps[k][j]) % q] += 1
                    trial[lo, hi] = c
            changed = sum(pair_bad(c) - (pair in bad) for pair, c in trial.items())
            if changed <= 0:
                exps[i][j] = new
                counts.update(trial)
                bad = {pair for pair in bad if pair not in trial}
                bad |= {pair for pair, c in trial.items() if pair_bad(c)}
                stall = stall + 1 if changed == 0 else 0
            else:
                stall += 1
        if not bad:
            return exps
    return None


@settings(max_examples=40, deadline=None)
@example(4, 2, 5, 5000)
@example(4, 2, 1, 3000)
@example(3, 3, 0, 2000)
@example(4, 4, 1, 3000)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**32), st.integers(1, 3000))
def test_search_matches_pairwise_reference(n, q, seed, budget):
    """The same result for every seed and budget; the examples succeed only
    after many accepted moves, which read the counts of earlier ones."""
    found = search_butson(n, q, seed=seed, budget=budget)
    want = reference_search(n, q, seed, budget)
    assert (None if found is None else found.exponents.tolist()) == want


# --- one read-only exponent array -------------------------------------------


def test_exponents_are_one_read_only_int64_array():
    e = np.array([[0, 0], [0, 1]], dtype=np.int64)
    h = ButsonMatrix(2, 2, e)
    assert h.exponents is e and not e.flags.writeable  # adopted, not copied
    base = np.arange(8).reshape(2, 4) % 2
    for given in ([[0, 0], [0, 1]], e.astype(np.int32), base[:, :2]):  # copied
        h = ButsonMatrix(2, 2, given)
        assert h.exponents.dtype == np.int64 and h.exponents.shape == (2, 2)
        assert not h.exponents.flags.writeable and h.exponents.flags.owndata
    assert base.flags.writeable
    for bad in (np.array([[0, 0], [0, 2]]), np.zeros((3, 3), dtype=np.int64)):
        with pytest.raises(ValueError):
            ButsonMatrix(2, 2, bad)
        assert bad.flags.writeable  # a rejected table stays the caller's
    for h in (sylvester(3), paley(13), fourier(6), kronecker(fourier(3), sylvester(1)),
              normalize(paley(7)), real_hadamard(12), search_butson(4, 2, seed=3, budget=5000)):
        assert h.exponents.dtype == np.int64 and not h.exponents.flags.writeable
        with pytest.raises(ValueError):
            h.exponents[0, 0] = 1


def test_fractional_exponents_are_refused():
    with pytest.raises(ValueError, match="exponents must be integers"):
        ButsonMatrix(2, 2, [[0, 0], [0, 1.7]])
    assert ButsonMatrix(2, 2, [[0.0, 0.0], [0.0, 1.0]]).exponents.tolist() == [[0, 0], [0, 1]]


def test_empty_table_is_vacuously_hadamard():
    assert verify_hadamard(ButsonMatrix(0, 2, np.zeros((0, 0), dtype=np.int64))).ok


def test_undecodable_butson_file_is_named(tmp_path):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"2 2\n0 0\n0 \xff\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: 'utf-8' codec")):
        load_butson(path)


def test_butson_equality_is_identity():
    h = sylvester(2)
    assert h == h and h != sylvester(2)
    assert np.array_equal(h.exponents, sylvester(2).exponents)


@pytest.mark.parametrize("table, message", [
    ([[0, 0], [0]], "exponent table is not 2x2"),
    ([[0, 0], [0, 1], [0, 0]], "exponent table is not 2x2"),
    ([0, 0, 0, 1], "exponent table is not 2x2"),
    ([[0, 0], [0, 2]], "exponents must lie in [0,2)"),
    ([[0, 0], [0, -1]], "exponents must lie in [0,2)"),
    ([[0, 0], [0, 2**70]], "exponents must lie in [0,2)"),
    ([[0, 0], [0, -2**70]], "exponents must lie in [0,2)"),
])
def test_bad_tables_raise_value_error(table, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ButsonMatrix(2, 2, table)


def _pinned_builds():
    for k in range(7):
        yield f"sylvester({k})", sylvester(k)
    for q in (3, 5, 7, 11, 13, 19, 43, 103):
        yield f"paley({q})", paley(q)
    for n in range(1, 13):
        yield f"fourier({n})", fourier(n)
    yield "kronecker(fourier(3), real_hadamard(4))", kronecker(fourier(3), real_hadamard(4))
    for n in (1, 2, *range(4, 129, 4)):  # every order the pipelines normalize
        if n not in (52, 92, 100, 116):  # no built-in construction
            yield f"normalize(real_hadamard({n}))", normalize(real_hadamard(n))
    for n in (2, 4, 8, 12, 16, 28, 40):  # the second factor of the real family
        yield (f"normalize(kronecker(sylvester(1), normalize(real_hadamard({n}))))",
               normalize(kronecker(sylvester(1), normalize(real_hadamard(n)))))


# SHA-256 of store_butson output, recorded from the tuple-of-tuples builders
BUTSON_SHA256 = {
    "sylvester(0)": "95198717a29030a624fe38decec301cbf19da26be66945d0ac8da27dc60a5b61",
    "sylvester(1)": "1ae95006c2485c45b453b2a4909d69230f4111309aa5699e71e60f13fcc08a64",
    "sylvester(2)": "358007cc01e2b91b1f67cbc6b281a508615e07b261f3510340eb5ee6b353722d",
    "sylvester(3)": "dcf2c238b877bb2d57640e52cde9ee95596193c0f5d2685d490a3e38ab6971c6",
    "sylvester(4)": "3daaf4546ae858607867d1515cab6628b945e162e43e4c5f6690dea18bfbd3e6",
    "sylvester(5)": "547229a38abc8ff37ee36262c896b723288ddc1ae03d38ea11cc860499a4438e",
    "sylvester(6)": "d23dc1c61eb5e7c92e233fb66878343f1ef875d0457ef23843c2153cfa190932",
    "paley(3)": "b4fec9781a4315b5b41b518d4deac604a4b40bffcc5c970e7c46ebf1c0a6cd2d",
    "paley(5)": "194cde00ad8fb01c26606d11db21201be7c07557dbecb405790fd7e80cd8a841",
    "paley(7)": "47eedf47e81193e947b44c68281c96b593f7576f4f03bf9e89ae662d9485c031",
    "paley(11)": "aa34ebb2ec98f132c6dc4b022b530892b0fb6badb2b6d012ebf6900231fdfd7f",
    "paley(13)": "0f88234f7ba79f861380ea487da6546d08ad0322f5218df03fbaafc2c7b71e7f",
    "paley(19)": "659476b73d7f29281fe553c9c8850acafe9ddcf237a0e07317179e7f5db01607",
    "paley(43)": "fbc103cfd1a2e224496c371640be0487578ae93bca53b60c117ed2525596f8df",
    "paley(103)": "d4c9f9415868774e74cf417effda72bcaca91fd741649a481987126124301faf",
    "fourier(1)": "908516a06a4532ef8c3708d1fb614131df17df5acd9dc1821abf7bb3b533af43",
    "fourier(2)": "1ae95006c2485c45b453b2a4909d69230f4111309aa5699e71e60f13fcc08a64",
    "fourier(3)": "b25b8c9b1e43d572ee2212facd4973a1867d7cfdbfca5a549b8cce825f1f9674",
    "fourier(4)": "a25752db029aa24669b562a52d4b0c9245bb92d374078b914ad5adb9e51efa5e",
    "fourier(5)": "aab010d364ca4b4ea6f27aea1528d6c717b96534c6556900c0a39cdb4dfcdc26",
    "fourier(6)": "1d4e774e06c77d7e5c9cfde3f18b4e84fb29bc62c1a2e7160f7ae66698fcafe4",
    "fourier(7)": "34ac975d1a3874822d1d9d4dead8b1cab32538f723a9ea4eef4fee4634173dad",
    "fourier(8)": "53dd406a282ba2f08a2b78137020db4718ea7e58190a47cf1f714b7670b38e5e",
    "fourier(9)": "18790cfe90a3b24960683b0394199caa7d26ac068ad12a9ddc591a0a87fb29a2",
    "fourier(10)": "370f76f71e46aa59bdf04bf66c627d735795916712ebc59d6858a681d4f91a25",
    "fourier(11)": "fd612f6d2580e9a07f7bd515e893aedbd2a862fa724691b2581cf35fa1962201",
    "fourier(12)": "5794af75dfa2ad9d7dcf12ff75fc9bc8dfd7f765db768a090632619011fd7d24",
    "kronecker(fourier(3), real_hadamard(4))": "085e15d2805e61e389ce275b6ffbbbdf0db85e2449ff86374fc676080d3cb139",
    "normalize(real_hadamard(1))": "95198717a29030a624fe38decec301cbf19da26be66945d0ac8da27dc60a5b61",
    "normalize(real_hadamard(2))": "1ae95006c2485c45b453b2a4909d69230f4111309aa5699e71e60f13fcc08a64",
    "normalize(real_hadamard(4))": "358007cc01e2b91b1f67cbc6b281a508615e07b261f3510340eb5ee6b353722d",
    "normalize(real_hadamard(8))": "dcf2c238b877bb2d57640e52cde9ee95596193c0f5d2685d490a3e38ab6971c6",
    "normalize(real_hadamard(12))": "999ac3b2cc662d07390968b531822024437d8e050f6f3678ddc13484f004fbe6",
    "normalize(real_hadamard(16))": "3daaf4546ae858607867d1515cab6628b945e162e43e4c5f6690dea18bfbd3e6",
    "normalize(real_hadamard(20))": "82fc764896c689345646b7c4a070c7f4d9dc248b85c72e7d7a16abfd490a1b6f",
    "normalize(real_hadamard(24))": "f53feac089d7837cc5fcf474678c4a411f808f775428095750451f8833c10113",
    "normalize(real_hadamard(28))": "58eb307b264187829a5372f3a2d3f8cbe341e770ac6626d49285aa95e092fce0",
    "normalize(real_hadamard(32))": "547229a38abc8ff37ee36262c896b723288ddc1ae03d38ea11cc860499a4438e",
    "normalize(real_hadamard(36))": "2d4a5609a633d09026d871bb16a07fd7b960dacb703c3091426fe74747775a0f",
    "normalize(real_hadamard(40))": "9a706de989a2b3c724841b2685c03fb7b7133d376517c9bd1d1b226389e3ebfb",
    "normalize(real_hadamard(44))": "c40f357d8ab5aa3342be6dc8fd5be6d861c267af2a69f35aa0642f76da319753",
    "normalize(real_hadamard(48))": "49bda57cffbaf7f69200112a6144c73aa71c19c290fbbb441fb34d252df89747",
    "normalize(real_hadamard(56))": "724d04144e12bc14a66348f1b1d96066b2e7b5a4eb2c841d1b385ae2fffad730",
    "normalize(real_hadamard(60))": "26771c0320cde5f596c6d39c63c1f39981f92b2e21f72277e89f3941fa380619",
    "normalize(real_hadamard(64))": "d23dc1c61eb5e7c92e233fb66878343f1ef875d0457ef23843c2153cfa190932",
    "normalize(real_hadamard(68))": "b6ce525318f03afa42dbc483132cbdf89fc0a839b6dcadc23c545af603f44897",
    "normalize(real_hadamard(72))": "a5df7907d013d0ab13ccf741fefd0e916e095f33af97aa93f26a93f780723d53",
    "normalize(real_hadamard(76))": "3ca5dc0b4c361aa7bcc9286669d5329752b627ec17ffffb15d026ff90ab60895",
    "normalize(real_hadamard(80))": "0e4fc1ab4ea426e053745f6393c5fdae0fb0748399d0ff5e1308a7383af3d512",
    "normalize(real_hadamard(84))": "69c9eab5a6505dbff6b0ca45da1ca678cf31657058191f4a641b7537806e3a71",
    "normalize(real_hadamard(88))": "6ffa0159745ac5fda4c033a5ba266b1fdc88062210abe84a0de43eee861e2fd6",
    "normalize(real_hadamard(96))": "be2397e67a937e743984a59501e881fd17d5e27dd47e2a3e0d86b6c3ce818c1e",
    "normalize(real_hadamard(104))": "4997bb557d60b2c96f888fbfb394df425771d372d4e779344c36bfa79bc1ab0f",
    "normalize(real_hadamard(108))": "692925047cd01ddd3a932df5b927ea857379d76718bd2e2d0b3b80f0add8bb9f",
    "normalize(real_hadamard(112))": "b0d6c93f74baa38f1b8bd6cad2b12ca8f215d7311e394514d6f600542b4f19bb",
    "normalize(real_hadamard(120))": "5f444c64ae63dac17e701d7f21136451d4159fc4bb164bb99c50c7024b0556a4",
    "normalize(real_hadamard(124))": "34ab6000514ce595e241a32148a97bbbfc48bf60c0332ce6a8897e1c61d5b4d7",
    "normalize(real_hadamard(128))": "77ccc558f1ff4917bbdc5be20b6e734ee5154cc89eaf5ea9cf4a9d71f45ecd29",
    "normalize(kronecker(sylvester(1), normalize(real_hadamard(2))))": "358007cc01e2b91b1f67cbc6b281a508615e07b261f3510340eb5ee6b353722d",
    "normalize(kronecker(sylvester(1), normalize(real_hadamard(4))))": "dcf2c238b877bb2d57640e52cde9ee95596193c0f5d2685d490a3e38ab6971c6",
    "normalize(kronecker(sylvester(1), normalize(real_hadamard(8))))": "3daaf4546ae858607867d1515cab6628b945e162e43e4c5f6690dea18bfbd3e6",
    "normalize(kronecker(sylvester(1), normalize(real_hadamard(12))))": "cd476fbe6bf9614fb195989da69e791e9b118843d253187cacb04f6b00deeb1a",
    "normalize(kronecker(sylvester(1), normalize(real_hadamard(16))))": "547229a38abc8ff37ee36262c896b723288ddc1ae03d38ea11cc860499a4438e",
    "normalize(kronecker(sylvester(1), normalize(real_hadamard(28))))": "724d04144e12bc14a66348f1b1d96066b2e7b5a4eb2c841d1b385ae2fffad730",
    "normalize(kronecker(sylvester(1), normalize(real_hadamard(40))))": "e1f4a79a57de022650d8f40708d2b9e52bd7187d4f2c43b1aad357a1b393be97",
}


def test_stored_butson_bytes_are_pinned(tmp_path):
    got = {}
    for name, h in _pinned_builds():
        path = tmp_path / "h.txt"
        store_butson(path, h)
        got[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == BUTSON_SHA256
