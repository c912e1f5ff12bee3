"""Exact scalar arithmetic: cyclotomic integers with quadratic surds."""
from __future__ import annotations

import cmath
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from equiframes import scalar
from equiframes.scalar import (
    MAX_ROOT_ORDER,
    CycInt,
    ExtScalar,
    _cyclic_product,
    _first_marked,
    _hermitian_tiles,
    _square_tiles,
    cyclotomic_poly,
    root_coeffs,
)
from helpers import assembled, tiled


def brute_poly_div(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Independent long division oracle for monic integer polynomials."""
    num = list(num)
    quo = [0] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        lead = num[-1]
        quo[shift] = lead
        for i, c in enumerate(den):
            num[shift + i] -= lead * c
    return quo, num


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)


def test_cyclotomic_12_against_division_oracle():
    # divide x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 with the oracle
    num = [-1] + [0] * 11 + [1]
    for d in (1, 2, 3, 4, 6):
        num, rem = brute_poly_div(num, list(cyclotomic_poly(d)))
        assert not any(rem)
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    assert tuple(num) == (1, 0, -1, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_degree_is_totient():
    def totient(m):
        return sum(1 for i in range(1, m + 1) if __import__("math").gcd(i, m) == 1)

    for m in range(1, 40):
        assert len(cyclotomic_poly(m)) - 1 == totient(m)


def test_sqrt2_squared_is_two():
    s2 = ExtScalar.sqrt2()
    assert s2 * s2 == ExtScalar.from_int(2)


def test_surd_multiplication_table():
    s2, s3, s6 = ExtScalar.sqrt2(), ExtScalar.sqrt3(), ExtScalar.sqrt6()
    assert s2 * s3 == s6
    assert s2 * s6 == ExtScalar.from_int(2) * s3
    assert s3 * s6 == ExtScalar.from_int(3) * s2
    assert s3 * s3 == ExtScalar.from_int(3)
    assert s6 * s6 == ExtScalar.from_int(6)


def test_root_of_unity_inverse():
    z = ExtScalar.root(5, 1)
    z4 = ExtScalar.root(5, 4)
    assert z * z4 == ExtScalar.from_int(1, order=5)


def test_vanishing_cyclotomic_sum():
    total = ExtScalar.from_int(1, 3) + ExtScalar.root(3, 1) + ExtScalar.root(3, 2)
    assert total.is_zero()


def test_promotion():
    one = ExtScalar.from_int(1)
    assert one.promote(12) == ExtScalar.from_int(1, 12)
    assert ExtScalar.root(2, 1).promote(4) == ExtScalar.root(4, 2)
    assert ExtScalar.root(3, 1).promote(6) == ExtScalar.root(6, 2)
    with pytest.raises(ValueError):
        CycInt.root(4).promote(6)


def test_to_complex_values():
    assert ExtScalar.from_int(0).to_complex() == 0
    half_sqrt2 = ExtScalar.sqrt2(k=1)
    assert abs(half_sqrt2.to_complex() - 0.7071067811865476) < 1e-15
    z8 = ExtScalar.root(8)
    assert abs(z8.to_complex() - complex(0.70710678118, 0.70710678118)) < 1e-10


def _random_scalar(rng: random.Random, order: int) -> ExtScalar:
    """(a + b sqrt2 + c sqrt3 + d sqrt6) / 2^k, cyclotomic a, b, c, d, by arithmetic."""
    deg = len(cyclotomic_poly(order)) - 1
    comps = [ExtScalar(CycInt(order, [rng.randint(-3, 3) for _ in range(deg)])) for _ in range(4)]
    surds = (ExtScalar.from_int(1), ExtScalar.sqrt2(), ExtScalar.sqrt3(), ExtScalar.sqrt6())
    total = sum((c * s for c, s in zip(comps, surds)), ExtScalar.from_int(0))
    return total * ExtScalar.from_int(1, k=rng.randint(0, 2))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 8, 12])
def test_random_products_match_numeric(order):
    rng = random.Random(order)
    rounds = 1000 // 7 + 1
    for _ in range(rounds):
        x = _random_scalar(rng, order)
        y = _random_scalar(rng, order)
        exact = (x * y).to_complex()
        approx = x.to_complex() * y.to_complex()
        assert abs(exact - approx) <= 1e-12 * max(1.0, abs(approx))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 8, 12])
def test_is_zero_matches_numeric_zero(order):
    rng = random.Random(100 + order)
    for _ in range(200):
        x = _random_scalar(rng, order)
        y = _random_scalar(rng, order)
        for probe in (x, x - x, x * y - x * y, x - y):
            assert probe.is_zero() == (abs(probe.to_complex()) < 1e-9)


def test_is_zero_in_ramified_orders():
    # sqrt2 lies in Q(zeta_8): zeta_8 + zeta_8^7 - sqrt2 == 0
    z = CycInt.root(8, 1) + CycInt.root(8, 7)
    x = ExtScalar(z) - ExtScalar.sqrt2(order=8)
    assert x.is_zero()
    assert x == ExtScalar.from_int(0)
    # sqrt3 lies in Q(zeta_12)
    w = CycInt.root(12, 1) + CycInt.root(12, 11)
    y = ExtScalar(w) - ExtScalar.sqrt3(order=12)
    assert y.is_zero()


def test_conjugation_laws():
    rng = random.Random(7)
    for order in (1, 3, 4, 5, 8, 12):
        for _ in range(50):
            x = _random_scalar(rng, order)
            y = _random_scalar(rng, order)
            assert x.conjugate().conjugate() == x
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_canonical_form_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        x = _random_scalar(rng, 4)
        rebuilt = ExtScalar(x.z, x.k)
        assert (rebuilt.z.order, rebuilt.z.coeffs, rebuilt.k) == (x.z.order, x.z.coeffs, x.k)


def test_canonical_k_is_minimal():
    two = CycInt.from_int(2)
    zero = CycInt.from_int(0)
    x = ExtScalar(two, 1)  # 2/2 -> 1
    assert x.k == 0 and x.z.coeffs == (1,)
    assert ExtScalar.from_int(0, k=0) == ExtScalar(zero, 3)


def test_as_fraction():
    from fractions import Fraction

    assert ExtScalar.from_int(3, k=1).as_fraction() == Fraction(3, 2)
    assert ExtScalar.sqrt2().as_fraction() is None
    assert ExtScalar.root(5).as_fraction() is None


@pytest.mark.parametrize("order, exponents, surd, square", [
    (8, (1, 7), ExtScalar.sqrt2, 2),
    (12, (1, 11), ExtScalar.sqrt3, 3),
    (24, (1, 5, 19, 23), ExtScalar.sqrt6, 6),  # sqrt6 = (zeta_8 + zeta_8^7)(zeta_12 + zeta_12^11)
])
def test_surd_products_are_exactly_rational(order, exponents, surd, square):
    """A surd written with roots of unity, times the surd, is its square:
    rational at every order it is read at and over any power of two."""
    roots = sum((ExtScalar.root(order, e) for e in exponents), ExtScalar.from_int(0))
    for at in (1, order, 2 * order):
        for k in (0, 1, 3):
            x = roots * surd(order=at, k=k)
            assert x.is_rational() and x.as_fraction() == Fraction(square, 2 ** k)
            assert x == ExtScalar.from_int(square, k=k)
    assert not (roots * ExtScalar.root(order)).is_rational()
    assert (roots * ExtScalar.sqrt2() * ExtScalar.sqrt3()).is_rational() == (square == 6)


def test_abs_sq_of_root_is_one():
    for order in (3, 5, 8, 12):
        for e in range(order):
            z = ExtScalar.root(order, e)
            assert z.abs_sq() == ExtScalar.from_int(1, order)


def test_exactness_guards_raise_instead_of_asserting():
    from equiframes.scalar import _poly_divmod_exact

    with pytest.raises(ValueError, match="not monic"):
        _poly_divmod_exact([1, 0, 1], (1, 2))


# --- sympy as the oracle for the coefficient tables ---------------------------


def _sympy_coeffs(poly, x, length):
    """Coefficients, constant first, of a sympy polynomial in x, padded to length."""
    coeffs = sympy.Poly(poly, x).all_coeffs()[::-1] if poly != 0 else []
    return tuple(int(c) for c in coeffs) + (0,) * (length - len(coeffs))


@pytest.mark.parametrize("m", range(1, 121))
def test_cyclotomic_poly_matches_sympy(m):
    x = sympy.Symbol("x")
    phi = cyclotomic_poly(m)
    assert phi == _sympy_coeffs(sympy.cyclotomic_poly(m, x), x, len(phi))


@pytest.mark.parametrize("m", range(1, 121))
def test_root_coeffs_match_sympy_and_cycint(m):
    """Row e is x^e mod Phi_m (sympy) and CycInt.root(m, e); the table is read-only."""
    x = sympy.Symbol("x")
    phi_m = sympy.Poly(sympy.cyclotomic_poly(m, x), x)
    table = root_coeffs(m)
    assert table.shape == (m, phi_m.degree()) and table.dtype == np.int64
    for e in range(m):
        want = _sympy_coeffs(sympy.rem(sympy.Poly(x**e, x), phi_m).as_expr(), x, table.shape[1])
        assert tuple(table[e].tolist()) == want == CycInt.root(m, e).coeffs, f"m={m}, e={e}"
    with pytest.raises(ValueError):
        table[0, 0] = 5


@pytest.mark.parametrize("m", [0, -3, MAX_ROOT_ORDER + 1])
def test_root_coeffs_refuse_orders_outside_the_bound(m):
    with pytest.raises(ValueError, match="root order"):
        root_coeffs(m)


# --- the one Hermitian product ----------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 3, 4, 5, 8, 12]), st.integers(1, 7), st.integers(1, 5),
       st.integers(1, 8), st.booleans())
def test_hermitian_tiles_reassemble_one_float64_product(data, m, n, d, tile, weighted):
    """Real (phi = 1) and complex planes: the row tiles of V diag(w) V*
    cover its upper triangle and equal one float64 slot product there."""
    phi = len(cyclotomic_poly(m)) - 1
    vectors = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=phi * n * d,
                                          max_size=phi * n * d)), dtype=np.float64)
    vectors = vectors.reshape(phi, n, d)
    w = np.array(data.draw(st.lists(st.sampled_from([1, 2, 3, 6]), min_size=d, max_size=d)))
    scaled = vectors * w if weighted else vectors
    want = _cyclic_product(scaled, [p.T for p in vectors], m, np.matmul, 0.0, "test")
    starts = []
    with tiled(tile):
        for s, block in assembled(_hermitian_tiles(vectors, m, "test", w if weighted else None),
                                  n):
            assert block.dtype == np.int64
            assert np.array_equal(block, want[:, s:s + tile, s:])
            starts.append(s)
    assert starts == list(range(0, n, tile))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 3, 4, 5, 8, 12]), st.integers(1, 9), st.integers(1, 9),
       st.integers(1, 10), st.booleans(), st.sampled_from([np.int8, np.int64]), st.booleans(),
       st.booleans())
def test_row_restricted_tiles_equal_the_dense_product(data, m, n, d, tile, sparse, dtype,
                                                       weighted, transposed):
    """Sparse (about 4 in 5 entries zero) and dense integer planes, int8 with
    its extremes -128 and 127 or int64 past int8, contiguous or a transposed
    view as the Gram passes them: the row-restricted tiles equal one dense
    int64 slot product, at tile sizes that cut the supports."""
    phi = len(cyclotomic_poly(m)) - 1
    size = phi * n * d
    values = (st.one_of(st.sampled_from([-128, 127]), st.integers(-128, 127)) if dtype == np.int8
              else st.integers(-2**20, 2**20))
    vectors = np.array(data.draw(st.lists(values, min_size=size, max_size=size)), dtype=dtype)
    if sparse:
        zero = data.draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
        vectors[np.array(zero) > 0] = 0
    if transposed:
        vectors = vectors.reshape(phi, d, n).transpose(0, 2, 1)
    vectors = vectors.reshape(phi, n, d)
    w = np.array(data.draw(st.lists(st.sampled_from([1, 2, 3, 6]), min_size=d, max_size=d)))
    wide = vectors.astype(np.int64)
    want = _cyclic_product(wide * w if weighted else wide, [p.T for p in wide], m, np.matmul,
                           0.0, "test")
    starts = []
    with tiled(tile):
        for s, block in assembled(_hermitian_tiles(vectors, m, "test", w if weighted else None),
                                  n):
            assert np.array_equal(block, want[:, s:s + tile, s:])
            starts.append(s)
    assert starts == list(range(0, n, tile))


@pytest.mark.parametrize("chunk", [1, 5, scalar._BOUND_CHUNK])
def test_slot_bound_reads_int8_extremes_without_overflow(monkeypatch, chunk):
    """int8 -128 in every plane, in row chunks of any size: the bound is
    sum_j w_j (2 * 128)^2 with no int8 wrap-around, as for int64 planes."""
    monkeypatch.setattr(scalar, "_BOUND_CHUNK", chunk)
    v = np.full((2, 3, 4), -128, dtype=np.int8)
    v[1, 2] = 0  # the last row's sizes are 128 only
    w = np.array([1, 2, 3, 6])
    assert scalar._slot_bound(v) == 4 * 256 ** 2
    assert scalar._slot_bound(v, w) == 12 * 256 ** 2 == scalar._slot_bound(v.astype(np.int64), w)
    assert scalar._slot_bound(v[:, 2:]) == 4 * 128 ** 2


def test_tiles_multiply_only_the_coordinates_their_rows_touch(monkeypatch):
    """Block-diagonal V, rows 0-2 on coordinates 0-1 and rows 3-5 on 2-6: in
    tiles of 3 rows every product's inner size is its tile's support."""
    seen = []

    def spy(left, right, *args):
        seen.append((left[0].shape[1], right[0].shape[0]))
        return _cyclic_product(left, right, *args)

    monkeypatch.setattr(scalar, "_cyclic_product", spy)
    v = np.zeros((1, 6, 7), dtype=np.int8)
    v[0, :3, :2] = -128
    v[0, 3:, 2:] = 127
    with tiled(3):
        got = dict(assembled(_hermitian_tiles(v, 2, "test"), 6))
    assert seen == [(2, 2), (2, 2), (5, 5)]
    want = v[0].astype(np.int64) @ v[0].T.astype(np.int64)
    assert np.array_equal(got[0][0], want[:3]) and np.array_equal(got[3][0], want[3:, 3:])


@pytest.mark.parametrize("weight, dtype", [(2**24 - 1, np.float32), (2**24, np.float64),
                                           (2**52 - 1, np.float64)])
def test_hermitian_tiles_switch_to_float64_at_2_24(monkeypatch, weight, dtype):
    seen = []

    def spy(left, right, *args):
        seen.append((left[0].dtype, right[0].dtype))
        return _cyclic_product(left, right, *args)

    monkeypatch.setattr(scalar, "_cyclic_product", spy)
    ((_, prod),) = assembled(_hermitian_tiles(np.ones((1, 1, 1)), 2, "test", np.array([weight])), 1)
    assert seen == [(dtype, dtype)] and prod.tolist() == [[[weight]]]


def test_hermitian_tiles_refuse_at_2_52():
    with pytest.raises(ValueError, match=r"test slot sums may reach .* >= 2\^52"):
        list(assembled(_hermitian_tiles(np.ones((1, 1, 1)), 2, "test", np.array([2**52])), 1))


# --- the one first-pair walk -----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.integers(0, 2**32), st.sampled_from([0, 0.002, 0.02, 0.3]),
       st.sampled_from([1, 3, 7, 256]), st.booleans())
def test_first_marked_square_walk_finds_the_brute_force_first_pair(n, seed, density, tile,
                                                                   diagonal):
    """Random masks at tile sizes that do and do not divide n: the walk over
    _square_tiles names the row-major first marked pair i < j (i <= j with
    ``diagonal``), reads every block of each row tile up to the one that
    holds it, in order, and no block after that tile."""
    mask = np.random.default_rng(seed).random((n, n)) < density
    hits = np.argwhere(np.triu(mask, 0 if diagonal else 1))
    want = tuple(hits[0].tolist()) if len(hits) else None
    read = []

    def mark(block, rows, cols):
        assert np.array_equal(block, mask[rows, cols])
        read.append((rows.start, cols.start))
        return block.copy()  # the walk masks its marks in place

    with tiled(tile):
        got = _first_marked(_square_tiles(mask), mark, diagonal)
    assert got == want
    last = n if want is None else want[0] // tile * tile + 1
    assert read == [(s, c) for s in range(0, last, tile) for c in range(s, n, tile)]
