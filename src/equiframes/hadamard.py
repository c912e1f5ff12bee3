"""Butson-type Hadamard matrices: construction, verification, search, I/O.

A matrix of order n with entries that are q-th roots of unity is stored as
its n x n exponent table mod q; the Hadamard property H H* = n I is checked
exactly by reducing root-of-unity count vectors modulo the q-th cyclotomic
polynomial.  q = 2 is the real +-1 case.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from pathlib import Path

from equiframes.scalar import CycInt, ExtScalar


@dataclass(frozen=True)
class ButsonMatrix:
    order: int
    root_order: int
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n, q = self.order, self.root_order
        if len(self.exponents) != n or any(len(r) != n for r in self.exponents):
            raise ValueError(f"exponent table is not {n}x{n}")
        if any(e < 0 or e >= q for row in self.exponents for e in row):
            raise ValueError(f"exponents must lie in [0,{q})")

    @cached_property
    def value_table(self) -> tuple[ExtScalar, ...]:
        """Shared scalar objects for the q possible entries."""
        return tuple(ExtScalar.root(self.root_order, e) for e in range(self.root_order))

    def entry(self, i: int, j: int) -> ExtScalar:
        return self.value_table[self.exponents[i][j]]

    def is_real(self) -> bool:
        return self.root_order in (1, 2)


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


def _row_pair_is_orthogonal(
    row_i: tuple[int, ...], row_k: tuple[int, ...], q: int
) -> bool:
    counts = [0] * q
    for a, b in zip(row_i, row_k):
        counts[(a - b) % q] += 1
    return CycInt(q, counts).is_zero()


def verify_hadamard(h: ButsonMatrix) -> HadamardReport:
    """Exact check of H H* = n I; reports the first failing row pair."""
    n, q = h.order, h.root_order
    exps = h.exponents
    for i in range(n):
        for k in range(i + 1, n):
            if not _row_pair_is_orthogonal(exps[i], exps[k], q):
                return HadamardReport(False, n, q, (i, k))
    return HadamardReport(True, n, q)


def sylvester(k: int) -> ButsonMatrix:
    """k-fold Kronecker power of the 2x2 sign matrix [[+,+],[+,-]]."""
    if k < 0:
        raise ValueError("Kronecker power must be non-negative")
    n = 1 << k
    # exponent of entry (i, j) is the parity of popcount(i & j)
    rows = tuple(
        tuple((i & j).bit_count() & 1 for j in range(n)) for i in range(n)
    )
    return ButsonMatrix(n, 2, rows)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(n ** 0.5) + 1):
        if n % p == 0:
            return False
    return True


def paley(q: int) -> ButsonMatrix:
    """Real Hadamard matrix from quadratic residues modulo an odd prime q.

    q = 3 (mod 4) gives order q + 1 via the skew conference matrix;
    q = 1 (mod 4) gives order 2(q + 1) via the symmetric one.
    """
    if q == 2 or not _is_prime(q):
        raise ValueError(f"Paley construction needs an odd prime, got {q}")
    residues = {(x * x) % q for x in range(1, q)}

    def chi(x: int) -> int:
        x %= q
        if x == 0:
            return 0
        return 1 if x in residues else -1

    m = q + 1
    # conference matrix with 0 diagonal: first row/col all ones modulo sign
    conf = [[0] * m for _ in range(m)]
    for j in range(1, m):
        conf[0][j] = 1
        conf[j][0] = 1 if q % 4 == 1 else -1
    for i in range(1, m):
        for j in range(1, m):
            conf[i][j] = chi(j - i)

    if q % 4 == 3:
        signs = [[conf[i][j] + (1 if i == j else 0) for j in range(m)] for i in range(m)]
    else:
        # double the order: 0 -> [[1,-1],[-1,-1]], +-1 -> +-[[1,1],[1,-1]]
        n2 = 2 * m
        signs = [[0] * n2 for _ in range(n2)]
        for i in range(m):
            for j in range(m):
                c = conf[i][j]
                if c == 0:
                    block = ((1, -1), (-1, -1))
                else:
                    block = ((c, c), (c, -c))
                for a in range(2):
                    for b in range(2):
                        signs[2 * i + a][2 * j + b] = block[a][b]
    rows = tuple(tuple(0 if s == 1 else 1 for s in row) for row in signs)
    return ButsonMatrix(len(rows), 2, rows)


def fourier(n: int) -> ButsonMatrix:
    """Character table of Z_n: exponent of entry (i, j) is i*j mod n."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return ButsonMatrix(1, 1, ((0,),))
    return ButsonMatrix(n, n, tuple(tuple(i * j % n for j in range(n)) for i in range(n)))


def kronecker(h1: ButsonMatrix, h2: ButsonMatrix) -> ButsonMatrix:
    """Kronecker product; the root order is the lcm of the factors'."""
    q = h1.root_order * h2.root_order // gcd(h1.root_order, h2.root_order)
    f1, f2 = q // h1.root_order, q // h2.root_order
    n1, n2 = h1.order, h2.order
    rows = []
    for i1 in range(n1):
        for i2 in range(n2):
            row = []
            for j1 in range(n1):
                e1 = h1.exponents[i1][j1] * f1
                row.extend((e1 + h2.exponents[i2][j2] * f2) % q for j2 in range(n2))
            rows.append(tuple(row))
    return ButsonMatrix(n1 * n2, q, tuple(rows))


def normalize(h: ButsonMatrix) -> ButsonMatrix:
    """Scale columns then rows so the first row and column are all ones."""
    n, q = h.order, h.root_order
    exps = h.exponents
    col0 = exps[0]
    tmp = [[(exps[i][j] - col0[j]) % q for j in range(n)] for i in range(n)]
    rows = tuple(
        tuple((tmp[i][j] - tmp[i][0]) % q for j in range(n)) for i in range(n)
    )
    return ButsonMatrix(n, q, rows)


def real_hadamard(n: int) -> ButsonMatrix:
    """Real Hadamard matrix of order n from the built-in constructions.

    Uses Sylvester for powers of two, Paley when n-1 (or n/2-1) is a
    suitable prime, and Kronecker doubling otherwise.
    """
    if n == 1:
        return ButsonMatrix(1, 2, ((0,),))
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
    lines += [" ".join(map(str, row)) for row in h.exponents]
    Path(path).write_text("\n".join(lines) + "\n")


def load_butson(path: str | Path) -> ButsonMatrix:
    """Parse and exactly verify a Butson exponent file; reject invalid input."""
    raw = [ln for ln in Path(path).read_text().split("\n") if ln.strip()]
    if not raw:
        raise ValueError(f"{path}: empty Butson file")
    head = raw[0].split()
    if len(head) != 2:
        raise ValueError(f"{path}: bad header {raw[0]!r}")
    try:
        n, q = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"{path}: non-integer field in header {raw[0]!r}") from None
    if n < 1 or q < 1:
        raise ValueError(f"{path}: order and root order must be positive, got {n} {q}")
    if len(raw) != n + 1:
        raise ValueError(f"{path}: expected {n} rows, found {len(raw) - 1}")
    rows = []
    for ln in raw[1:]:
        try:
            row = tuple(int(t) for t in ln.split())
        except ValueError:
            raise ValueError(f"{path}: non-integer exponent in row {ln!r}") from None
        if len(row) != n:
            raise ValueError(f"{path}: row has {len(row)} entries, expected {n}")
        if any(e < 0 or e >= q for e in row):
            raise ValueError(f"{path}: exponent out of range [0,{q})")
        rows.append(row)
    h = ButsonMatrix(n, q, tuple(rows))
    rep = verify_hadamard(h)
    if not rep.ok:
        raise ValueError(f"{path}: not a Hadamard matrix (rows {rep.failure})")
    return h


def search_butson(
    n: int, q: int, seed: int = 0, budget: int = 20000
) -> ButsonMatrix | None:
    """Stochastic local search for an order-n Butson matrix over q-th roots.

    Minimizes the number of non-orthogonal row pairs under single-entry
    moves with restarts; deterministic for a fixed seed.  Absence of a
    result is a normal outcome.
    """
    if n < 2 or q < 2:
        raise ValueError("need n, q >= 2")
    rng = random.Random(seed)

    def pair_counts(exps: list[list[int]]) -> list[list[list[int]]]:
        counts = [[[0] * q for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for k in range(i + 1, n):
                c = counts[i][k]
                for a, b in zip(exps[i], exps[k]):
                    c[(a - b) % q] += 1
        return counts

    def pair_bad(c: list[int]) -> bool:
        return not CycInt(q, c).is_zero()

    moves_left = budget
    while moves_left > 0:
        # first row and column pinned to ones; the rest random
        exps = [[0] * n for _ in range(n)]
        for i in range(1, n):
            for j in range(1, n):
                exps[i][j] = rng.randrange(q)
        counts = pair_counts(exps)
        bad = {
            (i, k)
            for i in range(n)
            for k in range(i + 1, n)
            if pair_bad(counts[i][k])
        }
        stall = 0
        while moves_left > 0 and bad and stall < 4 * n * n:
            moves_left -= 1
            i = rng.randrange(1, n)
            j = rng.randrange(1, n)
            old = exps[i][j]
            new = rng.randrange(q)
            if new == old:
                continue
            delta: list[tuple[int, int]] = []
            changed = 0
            for k in range(n):
                if k == i:
                    continue
                lo, hi = (k, i) if k < i else (i, k)
                c = counts[lo][hi]
                if lo == i:
                    c[(old - exps[k][j]) % q] -= 1
                    c[(new - exps[k][j]) % q] += 1
                else:
                    c[(exps[k][j] - old) % q] -= 1
                    c[(exps[k][j] - new) % q] += 1
                was = (lo, hi) in bad
                now = pair_bad(c)
                if was != now:
                    changed += 1 if now else -1
                delta.append((lo, hi))
            if changed <= 0:
                exps[i][j] = new
                for lo, hi in delta:
                    if pair_bad(counts[lo][hi]):
                        bad.add((lo, hi))
                    else:
                        bad.discard((lo, hi))
                stall = stall + 1 if changed == 0 else 0
            else:
                # revert counts
                for k in range(n):
                    if k == i:
                        continue
                    lo, hi = (k, i) if k < i else (i, k)
                    c = counts[lo][hi]
                    if lo == i:
                        c[(new - exps[k][j]) % q] -= 1
                        c[(old - exps[k][j]) % q] += 1
                    else:
                        c[(exps[k][j] - new) % q] -= 1
                        c[(exps[k][j] - old) % q] += 1
                stall += 1
        if not bad:
            found = ButsonMatrix(n, q, tuple(tuple(r) for r in exps))
            if verify_hadamard(found).ok:
                return found
    return None
