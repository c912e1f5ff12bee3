"""Butson-type Hadamard matrices: construction, verification, search, I/O.

A matrix of order n with entries that are q-th roots of unity is its
exponent table mod q, a read-only (n, n) int64 array; q = 2 is the real
+-1 case, q is at most scalar.MAX_ROOT_ORDER and n at most
scalar.MAX_HADAMARD_ORDER, both checked before any table is made.  The
builders are array expressions on that table.  ButsonMatrix compares by
identity, as FrameMatrix does: compare two tables with np.array_equal.
The Hadamard property H H* = n I is checked exactly and for all row pairs
at once: the table indexes root_coeffs(q) into integer planes, and the
slot kernel multiplies them and reduces the products modulo the q-th
cyclotomic polynomial.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt, lcm
from pathlib import Path

import numpy as np

from equiframes.scalar import (
    MAX_HADAMARD_ORDER,
    MAX_ROOT_ORDER,
    _adopted,
    _hermitian_tiles,
    root_coeffs,
)


@dataclass(frozen=True, eq=False)
class ButsonMatrix:
    """Exponent table of an order-n matrix over the q-th roots of unity.

    ``exponents`` is read-only; see scalar._adopted.
    """

    order: int
    root_order: int
    exponents: np.ndarray  # (order, order) int64 in [0, root_order)

    def __post_init__(self) -> None:
        n, q = self.order, self.root_order
        _check_size(n, q)
        shape_error = ValueError(f"exponent table is not {n}x{n}")
        range_error = ValueError(f"exponents must lie in [0,{q})")
        try:
            e = _adopted(self.exponents, np.int64)
        except OverflowError:
            raise range_error from None
        except ValueError:  # ragged rows
            raise shape_error from None
        if e.shape != (n, n):
            raise shape_error
        if not np.array_equal(e, self.exponents):  # int64 truncated a fraction
            raise ValueError("exponents must be integers")
        if e.size and (e.min() < 0 or e.max() >= q):
            raise range_error
        e.flags.writeable = False
        object.__setattr__(self, "exponents", e)

    def is_real(self) -> bool:
        return self.root_order in (1, 2)


def _check_size(n: int, q: int) -> None:
    """Refuse an order or root order past its bound, before any table is made."""
    if n > MAX_HADAMARD_ORDER:
        raise ValueError(f"order {n} exceeds the supported {MAX_HADAMARD_ORDER}")
    if q > MAX_ROOT_ORDER:
        raise ValueError(f"root order {q} exceeds the supported {MAX_ROOT_ORDER}")


@dataclass(frozen=True)
class HadamardReport:
    ok: bool
    order: int
    root_order: int
    failure: tuple[int, int] | None = None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "n": self.order,
            "q": self.root_order,
            "failure": list(self.failure) if self.failure else None,
        }


def _identity_misses(exponents: np.ndarray, q: int) -> np.ndarray:
    """(n, n) bool: where H H* differs from n I, H = zeta_q^exponents (n x n).

    Entry (i, k) of H H* is row i times conj(row k): one tile of the
    Hermitian product over the planes root_coeffs(q)[exponents].
    """
    ((_, prod),) = _hermitian_tiles(np.moveaxis(root_coeffs(q)[exponents], -1, 0), q, "H H*")
    n = len(exponents)
    prod[0, range(n), range(n)] -= n
    return prod.any(axis=0)


def verify_hadamard(h: ButsonMatrix) -> HadamardReport:
    """Exact check of H H* = n I; reports the first failing row pair.

    The pair is the first (i, k), i < k, in row-major order.
    """
    n, q = h.order, h.root_order
    bad = np.triu(_identity_misses(h.exponents, q), 1)
    if bad.any():
        i, k = np.unravel_index(bad.argmax(), bad.shape)
        return HadamardReport(False, n, q, (int(i), int(k)))
    return HadamardReport(True, n, q)


def sylvester(k: int) -> ButsonMatrix:
    """k-fold Kronecker power of the 2x2 sign matrix [[+,+],[+,-]]."""
    if k < 0:
        raise ValueError("Kronecker power must be non-negative")
    if k >= MAX_HADAMARD_ORDER.bit_length():  # not 2**k: k may be huge
        raise ValueError(f"order 2^{k} exceeds the supported {MAX_HADAMARD_ORDER}")
    # exponent of entry (i, j) is the parity of popcount(i & j)
    e = np.zeros((1, 1), dtype=np.int64)
    for _ in range(k):
        e = np.block([[e, e], [e, 1 - e]])
    return ButsonMatrix(len(e), 2, e)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, isqrt(n) + 1))


def paley(q: int) -> ButsonMatrix:
    """Real Hadamard matrix from quadratic residues modulo an odd prime q.

    q = 3 (mod 4) gives order q + 1 via the skew conference matrix;
    q = 1 (mod 4) gives order 2(q + 1) via the symmetric one.
    """
    _check_size(q + 1 if q % 4 == 3 else 2 * (q + 1), 2)  # first: the prime test is O(sqrt q)
    if q == 2 or not _is_prime(q):
        raise ValueError(f"Paley construction needs an odd prime, got {q}")
    chi = np.full(q, -1, dtype=np.int64)  # quadratic character of Z_q
    chi[np.arange(1, q) ** 2 % q] = 1
    chi[0] = 0
    # conference matrix with 0 diagonal: first row/col all ones modulo sign
    conf = np.zeros((q + 1, q + 1), dtype=np.int64)
    conf[0, 1:] = 1
    conf[1:, 0] = 1 if q % 4 == 1 else -1
    conf[1:, 1:] = chi[(np.arange(q) - np.arange(q)[:, None]) % q]
    eye = np.eye(q + 1, dtype=np.int64)  # the zeros of conf
    if q % 4 == 3:
        signs = conf + eye
    else:
        # double the order: 0 -> [[1,-1],[-1,-1]], +-1 -> +-[[1,1],[1,-1]]
        signs = np.kron(conf, [[1, 1], [1, -1]]) + np.kron(eye, [[1, -1], [-1, -1]])
    return ButsonMatrix(len(signs), 2, (1 - signs) // 2)


def fourier(n: int) -> ButsonMatrix:
    """Character table of Z_n: exponent of entry (i, j) is i*j mod n."""
    if n < 1:
        raise ValueError("order must be positive")
    _check_size(n, n)
    return ButsonMatrix(n, n, np.outer(np.arange(n), np.arange(n)) % n)


def kronecker(h1: ButsonMatrix, h2: ButsonMatrix) -> ButsonMatrix:
    """Kronecker product; the root order is the lcm of the factors'."""
    q = lcm(h1.root_order, h2.root_order)
    _check_size(h1.order * h2.order, q)
    e1 = h1.exponents[:, None, :, None] * (q // h1.root_order)
    e2 = h2.exponents[None, :, None, :] * (q // h2.root_order)
    n = h1.order * h2.order
    return ButsonMatrix(n, q, ((e1 + e2) % q).reshape(n, n))


def normalize(h: ButsonMatrix) -> ButsonMatrix:
    """Scale columns then rows so the first row and column are all ones."""
    e = h.exponents
    return ButsonMatrix(h.order, h.root_order, (e - e[0] - e[:, :1] + e[0, 0]) % h.root_order)


def real_hadamard(n: int) -> ButsonMatrix:
    """Real Hadamard matrix of order n from the built-in constructions.

    Uses Sylvester for powers of two, Paley when n-1 (or n/2-1) is a
    suitable prime, and Kronecker doubling otherwise.
    """
    _check_size(n, 2)
    if n == 1:
        return ButsonMatrix(1, 2, np.zeros((1, 1), dtype=np.int64))
    if n == 2:
        return sylvester(1)
    if n < 4 or n % 4:
        raise ValueError(f"no real Hadamard matrix of order {n}")
    if n & (n - 1) == 0:
        return sylvester(n.bit_length() - 1)
    if _is_prime(n - 1) and (n - 1) % 4 == 3:
        return paley(n - 1)
    if _is_prime(n // 2 - 1) and (n // 2 - 1) % 4 == 1:
        return paley(n // 2 - 1)
    if n // 2 % 4 == 0:
        return kronecker(sylvester(1), real_hadamard(n // 2))
    raise ValueError(f"no real Hadamard matrix of order {n} among the built-in constructions")


def store_butson(path: str | Path, h: ButsonMatrix) -> None:
    lines = [f"{h.order} {h.root_order}"]
    lines += [" ".join(map(str, row)) for row in h.exponents.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


class NotHadamardError(ValueError):
    """A Butson file that parses but whose table is not Hadamard."""


def load_butson(path: str | Path) -> ButsonMatrix:
    """Parse and exactly verify a Butson exponent file; raises ValueError naming
    the file, NotHadamardError when the table parses but is not Hadamard."""
    try:
        raw = [ln for ln in Path(path).read_text().split("\n") if ln.strip()]
        if not raw:
            raise ValueError("empty Butson file")
        head = raw[0].split()
        if len(head) != 2:
            raise ValueError(f"bad header {raw[0]!r}")
        try:
            n, q = int(head[0]), int(head[1])
        except ValueError:
            raise ValueError(f"non-integer field in header {raw[0]!r}") from None
        if n < 1 or q < 1:
            raise ValueError(f"order and root order must be positive, got {n} {q}")
        _check_size(n, q)
        if len(raw) != n + 1:
            raise ValueError(f"expected {n} rows, found {len(raw) - 1}")
        rows = []
        for ln in raw[1:]:
            try:
                row = [int(t) for t in ln.split()]
            except ValueError:
                raise ValueError(f"non-integer exponent in row {ln!r}") from None
            if len(row) != n:
                raise ValueError(f"row has {len(row)} entries, expected {n}")
            rows.append(row)
        h = ButsonMatrix(n, q, rows)  # refuses exponents outside [0, q)
        rep = verify_hadamard(h)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not rep.ok:
        raise NotHadamardError(f"{path}: not a Hadamard matrix (rows {rep.failure})")
    return h


def search_butson(n: int, q: int, seed: int = 0, budget: int = 20000) -> ButsonMatrix | None:
    """Stochastic local search for an order-n Butson matrix over q-th roots.

    Minimizes the number of non-orthogonal row pairs under single-entry
    moves with restarts; deterministic for a fixed seed.  Absence of a
    result is a normal outcome.
    """
    if n < 2 or q < 2:
        raise ValueError("need n, q >= 2")
    if n * n * max(n, q) > MAX_HADAMARD_ORDER**2:  # the diff and counts tables below
        raise ValueError(f"search tables of {n}x{n}x{max(n, q)} entries exceed an "
                         f"order-{MAX_HADAMARD_ORDER} table's {MAX_HADAMARD_ORDER}^2")
    roots = root_coeffs(q)
    rng = random.Random(seed)
    vertices = np.arange(n)
    moves_left = budget
    while moves_left > 0:
        # first row and column pinned to ones; the rest random
        exps = np.zeros((n, n), dtype=np.int64)
        exps[1:, 1:] = np.reshape([rng.randrange(q) for _ in range((n - 1) ** 2)], (n - 1, n - 1))
        # counts[i, k, d]: columns j with exps[i, j] - exps[k, j] = d (mod q);
        # rows i and k are orthogonal iff counts[i, k] @ roots vanishes
        diff = (exps[:, None] - exps[None]) % q
        counts = np.stack([(diff == d).sum(axis=2) for d in range(q)], axis=2)
        bad = (counts @ roots).any(axis=2)
        np.fill_diagonal(bad, False)
        stall = 0
        while moves_left > 0 and bad.any() and stall < 4 * n * n:
            moves_left -= 1
            i, j = rng.randrange(1, n), rng.randrange(1, n)
            old = int(exps[i, j])
            new = rng.randrange(q)
            if new == old:
                continue
            others = vertices != i
            k = vertices[others]
            c = counts[i].copy()
            c[k, (old - exps[k, j]) % q] -= 1
            c[k, (new - exps[k, j]) % q] += 1
            now = (c @ roots).any(axis=1) & others
            changed = int(now.sum()) - int(bad[i].sum())
            if changed <= 0:
                exps[i, j] = new
                counts[i] = c
                counts[:, i] = c[:, -np.arange(q) % q]
                bad[i] = bad[:, i] = now
                stall = stall + 1 if changed == 0 else 0
            else:
                stall += 1
        if not bad.any():
            found = ButsonMatrix(n, q, exps)
            if verify_hadamard(found).ok:
                return found
    return None
