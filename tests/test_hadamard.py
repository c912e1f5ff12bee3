"""Hadamard constructions all pass the exact H H* = nI verifier."""
from __future__ import annotations

import cmath
import contextlib
import io
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equiframes import cli
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
from equiframes.scalar import MAX_ROOT_ORDER, CycInt, root_coeffs


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
    assert sylvester(0).exponents == ((0,),)
    h = sylvester(1)
    assert h.exponents == ((0, 0), (0, 1))
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
    assert fourier(2).exponents == sylvester(1).exponents
    h5 = fourier(5)
    assert h5.root_order == 5
    assert verify_hadamard(h5).ok
    assert numeric_gram_residual(h5) < 1e-9
    assert verify_hadamard(fourier(6)).ok


def test_kronecker_matches_sylvester():
    h = kronecker(sylvester(1), sylvester(1))
    assert h.exponents == sylvester(2).exponents


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
        assert normalize(nh).exponents == nh.exponents


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
    assert load_butson(path).exponents == h.exponents


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
        assert a.exponents == b.exponents


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


def perturbed(h: ButsonMatrix, i: int, j: int, e: int) -> ButsonMatrix:
    rows = [list(r) for r in h.exponents]
    rows[i % h.order][j % h.order] = e % h.root_order
    return ButsonMatrix(h.order, h.root_order, tuple(map(tuple, rows)))


KNOWN = {"sylvester(3)": sylvester(3), "paley(7)": paley(7), "fourier(6)": fourier(6),
         "H(5,10)": load_butson(cli.BUNDLED_H510)}


@settings(max_examples=300, deadline=None)
@given(exponent_tables())
def test_verify_matches_pairwise_reference_on_random_tables(h):
    rep = verify_hadamard(h)
    assert (rep.ok, rep.failure) == reference_verify(h)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(KNOWN)), st.integers(0, 99), st.integers(0, 99), st.integers(0, 99))
def test_verify_matches_pairwise_reference_on_perturbed_matrices(name, i, j, e):
    h = perturbed(KNOWN[name], i, j, e)
    rep = verify_hadamard(h)
    assert (rep.ok, rep.failure) == reference_verify(h)


def test_verify_bounds_slot_sums_with_large_root_coefficients():
    """At q = 105 reduced roots have coefficients of size 2; the check stays
    exact and agrees with the reference."""
    assert abs(root_coeffs(105)).max() == 2
    h = ButsonMatrix(3, 105, ((0, 7, 14), (0, 35, 70), (0, 15, 30)))
    rep = verify_hadamard(h)
    assert (rep.ok, rep.failure) == reference_verify(h) == (False, (0, 1))


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
        assert load_butson(again) == h
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
            return tuple(map(tuple, exps))
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
    assert (None if found is None else found.exponents) == reference_search(n, q, seed, budget)
