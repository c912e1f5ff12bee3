"""Steiner triple systems, parallel classes, and per-point block embeddings.

A triple system on V points is a set of 3-element blocks covering every
pair of points exactly once; it exists iff V = 1 or 3 (mod 6).  Its blocks
are one (B, 3) int32 array in lexicographic order.  The embedding
assignment orders, for each point, the R = (V-1)/2 blocks through it, one
(V, R) array: the data needed to lift simplex vectors into block coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from equiframes.scalar import _WRITE_LINES, _adopted, _refuse_array, _write_lines

# Peak bytes per block while bose or skolem builds a system, with room: the int32 rows,
# the int64 sort key and one int64 digit of its decoding (28 at V = 2001, 2005)
_BLOCK_BYTES = 32
_VERIFY_BLOCKS = 1 << 14  # blocks per chunk of verify_sts's walk


@dataclass(frozen=True, eq=False)
class SteinerTripleSystem:
    """Any (B, 3) integer array of points that fit in int32 is adopted as
    the read-only int32 ``blocks`` (scalar._adopted), sorted or not."""

    num_points: int
    blocks: np.ndarray  # (B, 3) int32

    def __post_init__(self) -> None:
        blocks = np.asarray(self.blocks)
        if blocks.shape[1:] != (3,) or blocks.dtype.kind not in "iu" or (
                blocks.size and not -2 ** 31 <= blocks.min() <= blocks.max() < 2 ** 31):
            raise ValueError(f"blocks must be a (B, 3) array of int32 points, got "
                             f"{blocks.dtype} of shape {blocks.shape}")
        blocks = _adopted(blocks, np.int32)
        blocks.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)

    @property
    def replication(self) -> int:
        return (self.num_points - 1) // 2

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @cached_property
    def blocks_through(self) -> np.ndarray:
        """(V, R): row p the ascending indices of the blocks through point p,
        one stable argsort of the flattened blocks."""
        v, r, flat = self.num_points, self.replication, self.blocks.ravel()
        order = np.argsort(flat, kind="stable")
        if not np.array_equal(flat[order], np.repeat(np.arange(v), r)):
            raise ValueError(f"the points 0..{v - 1} do not each lie in R={r} blocks")
        through = (order // 3).reshape(v, r)
        through.flags.writeable = False
        return through


@dataclass(frozen=True)
class STSReport:
    ok: bool
    num_points: int
    block_count: int
    replication: int
    failure: str | None = None

    def to_dict(self) -> dict:
        return {"ok": self.ok, "V": self.num_points, "B": self.block_count,
                "R": self.replication, "failure": self.failure}


def _triples(head: np.ndarray, m: int, third) -> np.ndarray:
    """The int32 rows ``head``, then {3x+i, 3y+i, 3z+(i+1)%3} for x < y < m,
    i in Z_3 and z = third(x, y)."""
    x, y = np.triu_indices(m, 1)
    z = third(x, y)
    blocks = np.empty((len(head) + 3 * len(x), 3), dtype=np.int32)
    blocks[:len(head)] = head
    for i, rows in enumerate(blocks[len(head):].reshape(3, len(x), 3)):
        rows[:, 0], rows[:, 1], rows[:, 2] = 3 * x + i, 3 * y + i, 3 * z + (i + 1) % 3
    return blocks


def _sorted_system(v: int, blocks: np.ndarray) -> SteinerTripleSystem:
    """The system of ``blocks``, sorted in place by row, then rows in
    lexicographic order by one sort of the int64 key ((a - lo) W + b - lo) W
    + c - lo, W = hi - lo + 1 for lo <= 0 <= hi bounding the points, decoded
    back into the rows (np.lexsort where W^3 > 2^63: the key would not fit)."""
    blocks.sort(axis=1)
    lo, hi = int(blocks.min(initial=0)), int(blocks.max(initial=0))
    if (w := hi - lo + 1) ** 3 > 2 ** 63:
        return SteinerTripleSystem(v, blocks[np.lexsort(blocks.T[::-1])])
    key = np.zeros(len(blocks), dtype=np.int64)
    for col in blocks.T:
        key *= w
        key += col
        key -= lo
    key.sort()
    for col in blocks.T[::-1]:
        np.add(key % w, lo, out=col, casting="unsafe")
        key //= w
    return SteinerTripleSystem(v, blocks)


def bose(v: int) -> SteinerTripleSystem:
    """Triple system on v = 3 (mod 6) points over Z_n x Z_3, n = v/3 odd.

    Point (x, i) is flattened to 3x + i.  Blocks are the verticals
    {(x,0),(x,1),(x,2)} plus {(x,i),(y,i),((x+y)/2, i+1)} for x < y,
    halving taken mod n.
    """
    if v < 3 or v % 6 != 3:
        raise ValueError(f"Bose construction needs V = 3 (mod 6), got {v}")
    n, half = v // 3, pow(2, -1, v // 3)
    verticals = np.arange(v).reshape(n, 3)
    return _sorted_system(v, _triples(verticals, n, lambda x, y: (x + y) * half % n))


def skolem(v: int) -> SteinerTripleSystem:
    """Triple system on v = 1 (mod 6) points via a half-idempotent quasigroup.

    Writing v = 6n + 1, the points are Z_2n x Z_3 plus one extra point;
    (i, k) flattens to 3i + k and the extra point is v - 1.  On Z_2n the
    commutative quasigroup i * j = sigma(i + j) with sigma(2t) = t,
    sigma(2t+1) = n + t is idempotent on 0..n-1, which makes every pair
    fall into exactly one of the three block families below.
    """
    if v < 7 or v % 6 != 1:
        raise ValueError(f"Skolem construction needs V = 1 (mod 6) and V >= 7, got {v}")
    n = (v - 1) // 6
    i, k = np.arange(n)[:, None], np.arange(3)
    through_inf = np.stack(np.broadcast_arrays(v - 1, 3 * (n + i) + k, 3 * i + (k + 1) % 3), -1)
    head = np.concatenate([np.arange(3 * n).reshape(n, 3), through_inf.reshape(-1, 3)])
    return _sorted_system(v, _triples(head, 2 * n,
                                      lambda x, y: (x + y) % (2 * n) // 2 + n * ((x + y) % 2)))


def make_sts(v: int) -> SteinerTripleSystem:
    """Dispatch on the congruence class of v; refused before any block is
    made when its V(V-1)/6 blocks would pass scalar._ARRAY_LIMIT_BYTES."""
    if v % 6 not in (1, 3):
        raise ValueError(f"no Steiner triple system exists for V={v}")
    _refuse_array((v * (v - 1) // 6,), "block triple system", _BLOCK_BYTES)
    return bose(v) if v % 6 == 3 else skolem(v)


def verify_sts(s: SteinerTripleSystem) -> STSReport:
    """Exhaustive pair-coverage check plus the counting identities: the
    blocks are walked _VERIFY_BLOCKS at a time against one V x V byte mask of
    their pairs (a,b), (a,c), (b,c), naming what a one-block walk would."""
    v = s.num_points
    r, b, k = s.replication, s.block_count, 3

    def fail(msg: str) -> STSReport:
        return STSReport(False, v, b, r, msg)

    seen = bytearray(max(v, 0) ** 2)  # seen[p * V + q]: pair (p, q) covered
    mask = np.frombuffer(seen, dtype=np.uint8)
    lies_in = np.zeros(max(v, 0), dtype=np.int64)  # blocks through each point
    for start in range(0, b, _VERIFY_BLOCKS):
        chunk = s.blocks[start:start + _VERIFY_BLOCKS].astype(np.int64)
        a, bb, c = chunk.T
        outside = (chunk < 0) | (chunk >= v)
        bad = outside[:, 0] | outside[:, 1] | outside[:, 2] | (a == bb) | (a == c) | (bb == c)
        good = int(bad.argmax()) if bad.any() else len(chunk)
        keys = np.stack([a * v + bb, a * v + c, bb * v + c], axis=1)[:good].ravel()
        order = np.argsort(keys, kind="stable")
        twice = mask[keys].astype(bool)
        twice[order[1:]] |= keys[order[1:]] == keys[order[:-1]]
        if twice.any():
            return fail("pair (%d,%d) covered twice" % divmod(int(keys[twice.argmax()]), v))
        if good < len(chunk):
            return fail(f"malformed block {tuple(chunk[good].tolist())}")
        mask[keys] = 1
        lies_in += np.bincount(chunk.ravel(), minlength=v)
    for p in range(v):
        q = seen.find(0, p * v + p + 1, (p + 1) * v)
        if q >= 0:
            return fail(f"pair ({p},{q - p * v}) not covered")
    if v * r != b * k:
        return fail(f"identity V*R == B*K fails: {v}*{r} != {b}*{k}")
    if v - 1 != r * (k - 1):
        return fail(f"identity V-1 == R*(K-1) fails for V={v}, R={r}")
    wrong = np.flatnonzero(lies_in != r)
    if wrong.size:
        return fail(f"point {wrong[0]} lies in {lies_in[wrong[0]]} blocks, expected {r}")
    return STSReport(True, v, b, r)


def find_parallel_class(s: SteinerTripleSystem) -> tuple[int, ...] | None:
    """A set of V/3 pairwise disjoint blocks covering all points, if any.

    The blocks {3x, 3x+1, 3x+2} (the Bose verticals) are taken directly when
    there is one for every x; otherwise an exact-cover backtracking search
    runs, branching on the point with the fewest usable blocks.
    """
    v = s.num_points
    if v % 3:
        return None
    first = s.blocks[:, 0]
    verticals = np.flatnonzero((first % 3 == 0) & (s.blocks == first[:, None] + [0, 1, 2]).all(1))
    if np.array_equal(np.sort(first[verticals]), np.arange(0, v, 3)):
        return tuple(verticals.tolist())

    blocks, through = s.blocks.tolist(), s.blocks_through.tolist()
    chosen: list[int] = []
    covered = np.zeros(v, dtype=bool)

    def search() -> bool:
        free = np.flatnonzero(~covered)
        if not free.size:
            return True
        usable = ([bi for bi in through[p] if not covered[blocks[bi]].any()] for p in free)
        for bi in min(usable, key=len):
            covered[blocks[bi]] = True
            chosen.append(bi)
            if search():
                return True
            chosen.pop()
            covered[blocks[bi]] = False
        return False

    return tuple(sorted(chosen)) if search() else None


def is_parallel_class(s: SteinerTripleSystem, class_indices) -> bool:
    """True when the blocks at ``class_indices``, all in [0, B), cover each point once."""
    if not all(0 <= bi < s.block_count for bi in class_indices):
        return False
    pts = s.blocks[list(class_indices)].ravel().tolist()
    return len(pts) == s.num_points and len(set(pts)) == s.num_points


@dataclass(frozen=True, eq=False)
class EmbeddingAssignment:
    """Ordered block lists realizing one isometric embedding per point.

    ``orders[v]`` lists the R block indices through point v; position r of
    the row says which block coordinate receives the r-th simplex
    coordinate.  When built parallel-class-first, position 0 of every row
    is the unique class block through that point.
    """

    sts: SteinerTripleSystem
    orders: np.ndarray  # (V, R) block indices, read-only
    parallel_class: tuple[int, ...] | None = None


def standard_embedding(
    s: SteinerTripleSystem,
    parallel: tuple[int, ...] | None = None,
) -> EmbeddingAssignment:
    """Ascending block order per point; class block first when one is given,
    by one more stable sort of each row."""
    orders = s.blocks_through
    if parallel is not None:
        if not is_parallel_class(s, parallel):
            raise ValueError("not a parallel class of this system")
        later = ~np.isin(orders, parallel)
        orders = np.take_along_axis(orders, np.argsort(later, axis=1, kind="stable"), 1)
        orders.flags.writeable = False
    return EmbeddingAssignment(s, orders, parallel)


def store_sts(path: str | Path, s: SteinerTripleSystem) -> None:
    """The header line "V B", then one "a b c" line per block, formatted
    _WRITE_LINES blocks per write."""
    cuts = range(_WRITE_LINES, s.block_count, _WRITE_LINES)
    with Path(path).open("w") as fh:
        fh.write(f"{s.num_points} {s.block_count}\n")
        _write_lines(fh, s.num_points, np.split(s.blocks, cuts))


def _ints(tokens, what: str) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ValueError(f"non-integer field in {what}") from None


def load_sts(path: str | Path) -> SteinerTripleSystem:
    """Parse a triple-system file; every error is a ValueError naming the file."""
    try:
        raw = Path(path).read_text().split("\n")
        head = raw[0].split()
        if len(head) != 2:
            raise ValueError(f"bad triple-system header: {raw[0]!r}")
        v, b = _ints(head, f"header {raw[0]!r}")
        rows = []
        for line in raw[1:]:
            if not line.strip():
                continue
            parts = _ints(line.split(), f"block line {line!r}")
            if len(parts) != 3:
                raise ValueError(f"bad block line: {line!r}")
            rows.append(parts)
        if len(rows) != b:
            raise ValueError(f"header says {b} blocks, file has {len(rows)}")
        blocks = np.array(rows, dtype=np.int32).reshape(-1, 3)
    except (ValueError, OverflowError) as exc:  # UnicodeDecodeError included; a point past int32
        raise ValueError(f"{path}: {exc}") from exc
    return _sorted_system(v, blocks)


def store_parallel_class(path: str | Path, class_indices) -> None:
    Path(path).write_text(" ".join(map(str, class_indices)) + "\n")


def load_parallel_class(path: str | Path) -> tuple[int, ...]:
    """Parse a parallel-class file; every error is a ValueError naming the file."""
    try:
        return tuple(_ints(Path(path).read_text().split(), "parallel class"))
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from exc
