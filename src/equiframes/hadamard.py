"""Butson-type Hadamard matrices: construction, verification, search, I/O.

A matrix of order n with entries that are q-th roots of unity is stored as
its n x n exponent table mod q; q = 2 is the real +-1 case, and q is at
most scalar.MAX_ROOT_ORDER.  The Hadamard property H H* = n I is checked
exactly and for all row pairs at once: the table indexes root_coeffs(q)
into integer planes, and the slot kernel multiplies them and reduces the
products modulo the q-th cyclotomic polynomial.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import numpy as np

from equiframes.scalar import MAX_ROOT_ORDER, _cyclic_product, root_coeffs


@dataclass(frozen=True)
class ButsonMatrix:
    order: int
    root_order: int
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n, q = self.order, self.root_order
        if q > MAX_ROOT_ORDER:
            raise ValueError(f"root order {q} exceeds the supported {MAX_ROOT_ORDER}")
        if len(self.exponents) != n or any(len(r) != n for r in self.exponents):
            raise ValueError(f"exponent table is not {n}x{n}")
        if any(e < 0 or e >= q for row in self.exponents for e in row):
            raise ValueError(f"exponents must lie in [0,{q})")

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


def _identity_misses(exponents: np.ndarray, q: int) -> np.ndarray:
    """(n, n) bool: where H H* differs from n I, H = zeta_q^exponents (n x n).

    Entry (i, k) of H H* is row i times conj(row k), so the product is one
    slot kernel call over the planes root_coeffs(q)[exponents].  A slot sum
    of rows i and k is at most sum_j t_ij t_kj, t the coefficient size sums
    of the entries, hence at most the largest sum_j t_ij^2.
    """
    roots = root_coeffs(q)
    planes = np.moveaxis(roots[exponents], -1, 0).astype(np.float64)
    t = np.abs(roots).sum(axis=1)[exponents]
    bound = float((t * t).sum(axis=1).max(initial=0))
    live = planes.any(axis=(1, 2)).nonzero()[0].max() + 1  # trailing zero planes add nothing
    prod = _cyclic_product(planes, [p.T for p in planes[:live]], q, np.matmul, bound, "H H*")
    n = len(exponents)
    prod[0, range(n), range(n)] -= n
    return prod.any(axis=0)


def verify_hadamard(h: ButsonMatrix) -> HadamardReport:
    """Exact check of H H* = n I; reports the first failing row pair.

    The pair is the first (i, k), i < k, in row-major order.
    """
    n, q = h.order, h.root_order
    bad = np.triu(_identity_misses(np.array(h.exponents, dtype=np.int64), q), 1)
    if bad.any():
        i, k = np.unravel_index(bad.argmax(), bad.shape)
        return HadamardReport(False, n, q, (int(i), int(k)))
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
    if q > MAX_ROOT_ORDER:
        raise ValueError(f"{path}: root order {q} exceeds the supported {MAX_ROOT_ORDER}")
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
    roots = root_coeffs(q)
    rng = random.Random(seed)
    vertices = np.arange(n)
    moves_left = budget
    while moves_left > 0:
        # first row and column pinned to ones; the rest random
        exps = np.zeros((n, n), dtype=np.int64)
        for i in range(1, n):
            for j in range(1, n):
                exps[i, j] = rng.randrange(q)
        # counts[i, k, d]: columns j with exps[i, j] - exps[k, j] = d (mod q);
        # rows i and k are orthogonal iff counts[i, k] @ roots vanishes
        diff = (exps[:, None] - exps[None]) % q
        counts = np.stack([(diff == d).sum(axis=2) for d in range(q)], axis=2)
        bad = (counts @ roots).any(axis=2)
        np.fill_diagonal(bad, False)
        stall = 0
        while moves_left > 0 and bad.any() and stall < 4 * n * n:
            moves_left -= 1
            i = rng.randrange(1, n)
            j = rng.randrange(1, n)
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
            found = ButsonMatrix(n, q, tuple(map(tuple, exps.tolist())))
            if verify_hadamard(found).ok:
                return found
    return None
