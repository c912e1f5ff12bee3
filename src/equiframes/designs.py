"""Steiner triple systems, parallel classes, and per-point block embeddings.

A triple system on V points is a set of 3-element blocks covering every
pair of points exactly once; it exists iff V = 1 or 3 (mod 6).  The
embedding assignment orders, for each point, the R = (V-1)/2 blocks
through it, which is exactly the data needed to lift simplex vectors
into block coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

Block = tuple[int, int, int]


@dataclass(frozen=True)
class SteinerTripleSystem:
    num_points: int
    blocks: tuple[Block, ...]  # sorted triples, lexicographic order

    @property
    def replication(self) -> int:
        return (self.num_points - 1) // 2

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @cached_property
    def blocks_through(self) -> tuple[tuple[int, ...], ...]:
        """For each point, the ascending indices of blocks containing it."""
        through: list[list[int]] = [[] for _ in range(self.num_points)]
        for idx, blk in enumerate(self.blocks):
            for p in blk:
                through[p].append(idx)
        return tuple(tuple(t) for t in through)


@dataclass(frozen=True)
class STSReport:
    ok: bool
    num_points: int
    block_count: int
    replication: int
    failure: str | None = None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "V": self.num_points,
            "B": self.block_count,
            "R": self.replication,
            "failure": self.failure,
        }


def bose(v: int) -> SteinerTripleSystem:
    """Triple system on v = 3 (mod 6) points over Z_n x Z_3, n = v/3 odd.

    Point (x, i) is flattened to 3x + i.  Blocks are the verticals
    {(x,0),(x,1),(x,2)} plus {(x,i),(y,i),((x+y)/2, i+1)} for x < y,
    halving taken mod n.
    """
    if v < 3 or v % 6 != 3:
        raise ValueError(f"Bose construction needs V = 3 (mod 6), got {v}")
    n = v // 3
    inv2 = pow(2, -1, n)
    blocks = []
    for x in range(n):
        blocks.append(tuple(sorted((3 * x, 3 * x + 1, 3 * x + 2))))
    for x in range(n):
        for y in range(x + 1, n):
            z = (x + y) * inv2 % n
            for i in range(3):
                blocks.append(tuple(sorted((3 * x + i, 3 * y + i, 3 * z + (i + 1) % 3))))
    blocks.sort()
    return SteinerTripleSystem(v, tuple(blocks))


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
    inf = v - 1
    two_n = 2 * n

    def mix(i: int, j: int) -> int:
        s = (i + j) % two_n
        return s // 2 if s % 2 == 0 else n + (s - 1) // 2

    blocks = []
    for i in range(n):
        blocks.append(tuple(sorted((3 * i, 3 * i + 1, 3 * i + 2))))
        for k in range(3):
            blocks.append(tuple(sorted((inf, 3 * (n + i) + k, 3 * i + (k + 1) % 3))))
    for i in range(two_n):
        for j in range(i + 1, two_n):
            z = mix(i, j)
            for k in range(3):
                blocks.append(tuple(sorted((3 * i + k, 3 * j + k, 3 * z + (k + 1) % 3))))
    blocks.sort()
    return SteinerTripleSystem(v, tuple(blocks))


def make_sts(v: int) -> SteinerTripleSystem:
    """Dispatch on the congruence class of v."""
    if v % 6 == 3:
        return bose(v)
    if v % 6 == 1:
        return skolem(v)
    raise ValueError(f"no Steiner triple system exists for V={v}")


def verify_sts(s: SteinerTripleSystem) -> STSReport:
    """Exhaustive pair-coverage check plus the counting identities."""
    v = s.num_points
    r, b, k = s.replication, s.block_count, 3

    def fail(msg: str) -> STSReport:
        return STSReport(False, v, b, r, msg)

    seen = bytearray(v * v)
    for blk in s.blocks:
        if len(set(blk)) != 3 or any(p < 0 or p >= v for p in blk):
            return fail(f"malformed block {blk}")
        for a_idx in range(3):
            for b_idx in range(a_idx + 1, 3):
                p, q = blk[a_idx], blk[b_idx]
                if seen[p * v + q]:
                    return fail(f"pair ({p},{q}) covered twice")
                seen[p * v + q] = 1
    for p in range(v):
        for q in range(p + 1, v):
            if not seen[p * v + q]:
                return fail(f"pair ({p},{q}) not covered")
    if v * r != b * k:
        return fail(f"identity V*R == B*K fails: {v}*{r} != {b}*{k}")
    if v - 1 != r * (k - 1):
        return fail(f"identity V-1 == R*(K-1) fails for V={v}, R={r}")
    for p, through in enumerate(s.blocks_through):
        if len(through) != r:
            return fail(f"point {p} lies in {len(through)} blocks, expected {r}")
    return STSReport(True, v, b, r)


def find_parallel_class(s: SteinerTripleSystem) -> tuple[int, ...] | None:
    """A set of V/3 pairwise disjoint blocks covering all points, if any.

    Blocks of the shape {3x, 3x+1, 3x+2} (the Bose verticals) are taken
    directly; otherwise an exact-cover backtracking search runs, branching
    on the point with the fewest usable blocks.
    """
    v = s.num_points
    if v % 3:
        return None
    index = {blk: i for i, blk in enumerate(s.blocks)}
    fast = []
    for x in range(v // 3):
        idx = index.get((3 * x, 3 * x + 1, 3 * x + 2))
        if idx is None:
            break
        fast.append(idx)
    else:
        return tuple(sorted(fast))

    through = s.blocks_through
    chosen: list[int] = []
    covered = bytearray(v)

    def search() -> bool:
        best_point, best_opts = -1, None
        for p in range(v):
            if covered[p]:
                continue
            opts = [
                bi for bi in through[p]
                if not any(covered[q] for q in s.blocks[bi])
            ]
            if best_opts is None or len(opts) < len(best_opts):
                best_point, best_opts = p, opts
                if not opts:
                    return False
        if best_opts is None:
            return True
        for bi in best_opts:
            for q in s.blocks[bi]:
                covered[q] = 1
            chosen.append(bi)
            if search():
                return True
            chosen.pop()
            for q in s.blocks[bi]:
                covered[q] = 0
        return False

    if search():
        return tuple(sorted(chosen))
    return None


def is_parallel_class(s: SteinerTripleSystem, class_indices) -> bool:
    pts = [p for bi in class_indices for p in s.blocks[bi]]
    return len(pts) == s.num_points and len(set(pts)) == s.num_points


@dataclass(frozen=True)
class EmbeddingAssignment:
    """Ordered block lists realizing one isometric embedding per point.

    ``orders[v]`` lists the R block indices through point v; position r of
    the list says which block coordinate receives the r-th simplex
    coordinate.  When built parallel-class-first, position 0 of every list
    is the unique class block through that point.
    """

    sts: SteinerTripleSystem
    orders: tuple[tuple[int, ...], ...]
    parallel_class: tuple[int, ...] | None = None

    @cached_property
    def _positions(self) -> tuple[dict[int, int], ...]:
        return tuple(
            {blk: pos for pos, blk in enumerate(row)} for row in self.orders
        )

    def position_of(self, point: int, block_index: int) -> int:
        return self._positions[point][block_index]

    def shared_block(self, v: int, w: int) -> tuple[int, int, int]:
        """The unique common block of two points and its positions (in v, in w)."""
        common = set(self.orders[v]) & set(self.orders[w])
        if len(common) != 1:
            raise ValueError(f"points {v},{w} share {len(common)} blocks")
        blk = common.pop()
        return blk, self.position_of(v, blk), self.position_of(w, blk)


def standard_embedding(
    s: SteinerTripleSystem,
    parallel: tuple[int, ...] | None = None,
) -> EmbeddingAssignment:
    """Ascending block order per point; class block first when one is given."""
    if parallel is not None and not is_parallel_class(s, parallel):
        raise ValueError("not a parallel class of this system")
    in_class = set(parallel or ())
    orders = []
    for p in range(s.num_points):
        through = list(s.blocks_through[p])
        if parallel is not None:
            first = [bi for bi in through if bi in in_class]
            if len(first) != 1:
                raise ValueError(f"point {p} lies in {len(first)} class blocks")
            through.remove(first[0])
            through.insert(0, first[0])
        orders.append(tuple(through))
    return EmbeddingAssignment(s, tuple(orders), parallel)


def store_sts(path: str | Path, s: SteinerTripleSystem) -> None:
    lines = [f"{s.num_points} {s.block_count}"]
    lines += [" ".join(map(str, blk)) for blk in s.blocks]
    Path(path).write_text("\n".join(lines) + "\n")


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
        blocks = []
        for line in raw[1:]:
            if not line.strip():
                continue
            parts = tuple(sorted(_ints(line.split(), f"block line {line!r}")))
            if len(parts) != 3:
                raise ValueError(f"bad block line: {line!r}")
            blocks.append(parts)
        if len(blocks) != b:
            raise ValueError(f"header says {b} blocks, file has {len(blocks)}")
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from exc
    return SteinerTripleSystem(v, tuple(sorted(blocks)))


def store_parallel_class(path: str | Path, class_indices) -> None:
    Path(path).write_text(" ".join(map(str, class_indices)) + "\n")


def load_parallel_class(path: str | Path) -> tuple[int, ...]:
    """Parse a parallel-class file; every error is a ValueError naming the file."""
    try:
        return tuple(_ints(Path(path).read_text().split(), "parallel class"))
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from exc
