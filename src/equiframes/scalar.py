"""Exact arithmetic for frame entries, Gram values and Hadamard checks.

Values live in Z[zeta_m][sqrt2, sqrt3] / 2^k: a cyclotomic integer part for
the roots of unity, plus the quadratic surds sqrt(2), sqrt(3) and their
product sqrt(6), over power-of-two denominators.  Every matrix entry and
every Gram value in this package is one of these numbers, so equality,
zero tests and conjugation are exact (no epsilon).

Production code works on arrays of power-basis coefficients: root_coeffs(m)
is the table of zeta_m^e for every exponent e, so an exponent array indexes
straight into integer planes, and _cyclic_product is the one kernel that
multiplies such planes, summing products in cyclic slots (a - b) mod m and
reducing them modulo Phi_m.  _hermitian_tiles feeds it every Hermitian
product V diag(w) V* (the Gram, the frame operator, H H*): it alone bounds
the slot sums, picks float32 or float64, tiles the rows and converts, per
tile, only the coordinates the tile's rows touch.  CycInt and
ExtScalar hold single values; they are the reference arithmetic that
FrameMatrix.entry, frames.gram_matrix and the tests check the kernels
against.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import numpy as np


def _poly_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def _poly_divmod_exact(n: list[int], d: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials; d must be monic."""
    if d[-1] != 1:
        raise ValueError(f"divisor {d} is not monic")
    n = list(n)
    q = [0] * max(1, len(n) - len(d) + 1)
    for i in range(len(n) - 1, len(d) - 2, -1):
        c = n[i]
        if c:
            q[i - len(d) + 1] = c
            for t, dc in enumerate(d):
                n[i - len(d) + 1 + t] -= c * dc
    return q, n[: len(d) - 1]


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the m-th cyclotomic polynomial.

    Computed by exact division of x^m - 1 by the product of the cyclotomic
    polynomials of the proper divisors of m.
    """
    if m < 1:
        raise ValueError(f"cyclotomic order must be positive, got {m}")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            q, r = _poly_divmod_exact(poly, cyclotomic_poly(d))
            if any(r):
                raise ValueError(f"non-exact cyclotomic division at m={m}, d={d}")
            while len(q) > 1 and q[-1] == 0:
                q.pop()
            poly = q
    return tuple(poly)


# Largest root order of a Butson matrix, a loaded Butson file or root_coeffs.
# The built-in constructions stay far below it (complex Tremain frames reach
# order V + 1, 74 at V = 73), as does the bundled H(5,10) (order 5); past it
# cyclotomic_poly and the root table cost time that no certifiable input needs.
MAX_ROOT_ORDER = 1024

# Largest order of a Butson matrix: the builders and the loader's header refuse
# a larger one before making any table.  The pipelines need at most order 2h,
# 256 at h = 128; an order-4096 int64 exponent table is already 128 MB.
MAX_HADAMARD_ORDER = 4096

# Largest array a builder, the Gram pass or a loader allocates, refused before
# it is: an N x N phase matrix or adjacency (one byte per entry, so N <= 46340;
# two for phases past m' = 127) or a frame's phi(m) x M x N planes.
_ARRAY_LIMIT_BYTES = 2**31


def _refuse_array(shape: tuple[int, ...], what: str, itemsize: int = 1) -> None:
    """ValueError, before anything is allocated, when a ``shape`` array of
    ``itemsize``-byte entries would pass _ARRAY_LIMIT_BYTES."""
    size = prod(shape) * itemsize
    if size > _ARRAY_LIMIT_BYTES:
        raise ValueError(f"{' x '.join(map(str, shape))} {what} needs {size} bytes, past the "
                         f"{_ARRAY_LIMIT_BYTES}-byte limit")


@lru_cache(maxsize=None)
def root_coeffs(m: int) -> np.ndarray:
    """Read-only (m, phi(m)) int64 table; row e is zeta_m^e in the power basis.

    Built by multiplying by zeta one row at a time and reducing the overflow
    with Phi_m.  Coefficients can exceed 1 in size (at m = 105, say).
    """
    if not 1 <= m <= MAX_ROOT_ORDER:
        raise ValueError(f"root order {m} is outside [1, {MAX_ROOT_ORDER}]")
    phi = np.array(cyclotomic_poly(m), dtype=np.int64)
    table = np.zeros((m, len(phi) - 1), dtype=np.int64)
    table[0, 0] = 1
    for e in range(1, m):
        prev = table[e - 1]
        table[e, 1:] = prev[:-1]
        table[e] -= prev[-1] * phi[:-1]  # zeta^phi(m) = -(Phi_m - x^phi(m))(zeta)
    table.flags.writeable = False
    return table


_EXACT_LIMIT = 2 ** 52  # float64 holds every integer below 2^53
_GUARD_NOTE = "float64 would round the sums, so the exact kernel refuses"


def _adopted(a, dtype) -> np.ndarray:
    """``a`` as an array of ``dtype`` that owns its memory, for a read-only field.

    An array that already is one is taken as it is, not copied, so the
    caller's handle turns read-only with the field; anything else (another
    dtype, a list, a view whose base could still be written) is copied.
    """
    a = np.asarray(a, dtype=dtype)
    return a if a.flags.owndata else a.copy()


_FLOAT32_EXACT = 2 ** 24  # float32 holds every integer up to 2^24
_BOUND_CHUNK = 1 << 16  # entries per row chunk of the slot bound's float64 temporaries


def _slot_bound(vectors: np.ndarray, weights=None) -> float:
    """The largest sum_j w_j t_ij^2 over rows i of V, t the entries' coefficient size sums.

    Computed in float64 row chunks straight from integer planes of any
    width, so int8 -128 cannot overflow and no plane-sized temporary is
    made.  Every partial sum below 2^53 is exact and rounding is monotone,
    so the result is past 2^52 exactly when the true bound is.
    """
    n, d = vectors.shape[1:]
    w = np.ones(d) if weights is None else np.asarray(weights, dtype=np.float64)
    step = max(1, _BOUND_CHUNK // max(d, 1))
    bound = 0.0
    for i in range(0, n, step):
        t = vectors[0, i:i + step].astype(np.float64)
        if len(vectors) > 1:  # one plane: its square is its size's
            np.abs(t, out=t)
            for p in vectors[1:]:
                x = p[i:i + step].astype(np.float64)
                t += np.abs(x, out=x)
        t *= t
        bound = max(bound, float((t @ w).max(initial=0)))
        del t  # before the next chunk is made
    return bound


def _hermitian_tiles(vectors: np.ndarray, m: int, what: str, weights=None, tile=None):
    """Yield (s, P) for the row tiles of the upper triangle of V diag(w) V*.

    Row i of V is sum_a vectors[a, i] zeta_m^a, the vectors integer planes
    (phi(m), n, d) of any integer (or integral float) dtype, and w is
    ``weights`` (d,) or all ones.  P holds the power-basis coefficients of
    rows s:s+tile and columns s:n, shape (phi(m), rows, n - s); tile None
    makes one tile of all n rows.  A slot sum of rows i and k is at most
    sum_j w_j t_ij t_kj, t the coefficient size sums of the entries, hence
    at most the largest sum_j w_j t_ij^2 (_slot_bound): the products run in
    float32 below 2^24 and in float64 below 2^52, and _cyclic_product
    refuses past that.

    Products are row-restricted (Gustavson): a tile multiplies only the
    inner coordinates j that its own rows touch, and P is filled in column
    blocks of ``tile`` rows of V.  Each operand is converted to float only
    as a block of the tile's rows or of one column block, so no float copy
    of the whole planes is ever made.
    """
    bound = _slot_bound(vectors, weights)
    ftype = np.float32 if bound < _FLOAT32_EXACT else np.float64
    phi, n, d = vectors.shape
    w = None if weights is None else np.asarray(weights).astype(ftype)
    tile = tile or max(n, 1)  # an empty V still gets its one (empty) tile

    def product(s: int) -> np.ndarray:  # operands die on return, before the caller reads P
        rows = vectors[:, s:s + tile]
        touched = np.flatnonzero(rows.any(axis=(0, 1)))
        # a tile that touches every coordinate reads plain slices: no gather
        cols = slice(None) if len(touched) == d else touched
        left = []
        for p in rows:
            x = p[:, cols].astype(ftype)
            if w is not None:
                x *= w[cols]
            left.append(x)
        out = np.empty((phi, rows.shape[1], n - s), dtype=np.int64)
        for c in range(s, n, tile):
            right = [p[c:c + tile][:, cols].astype(ftype).T for p in vectors]
            out[:, :, c - s:c - s + tile] = _cyclic_product(left, right, m, np.matmul, bound, what)
        return out

    for s in range(0, max(n, 1), tile):
        yield s, product(s)


def _cyclic_product(left, right, m: int, mul, bound: float, what: str) -> np.ndarray:
    """Power-basis coefficients of sum_{a,b} mul(left[a], right[b]) zeta_m^(a-b).

    Only nonzero planes are multiplied.  Products accumulate one cyclic slot
    (a - b) mod m at a time, in float for BLAS matmuls or in int64;
    ``bound`` caps every partial sum, so below 2^52 (2^24 for float32
    operands) every float sum is an exact integer.  Each slot is folded
    into the phi(m) output planes, reduced modulo Phi_m, as soon as it is
    summed.  One plane on each side (a real product) is one product, with
    no slots and no zero-filled output.
    """
    if not bound < _EXACT_LIMIT:
        raise ValueError(f"{what} slot sums may reach {bound:.4g} >= 2^52; {_GUARD_NOTE}")
    if len(left) == len(right) == 1:  # real: one product, slot 0 is the constant plane
        return mul(left[0], right[0]).astype(np.int64, copy=False)[None]
    roots = root_coeffs(m)
    # an all-zero side keeps its plane 0, so the output shape is still known
    lhs = [(a, x) for a, x in enumerate(left) if x.any()] or [(0, left[0])]
    rhs = [(b, y) for b, y in enumerate(right) if y.any()] or [(0, right[0])]
    slots: dict[int, list] = {}
    for a, x in lhs:
        for b, y in rhs:
            slots.setdefault((a - b) % m, []).append((x, y))
    out = None
    for d, pairs in sorted(slots.items()):
        slot = mul(*pairs[0])
        for x, y in pairs[1:]:
            slot += mul(x, y)
        if out is None:  # slot 0 may be empty, so the first slot sets the shape
            out = np.zeros((roots.shape[1], *slot.shape), dtype=np.int64)
        if d == 0:  # zeta^0 = 1, and no slot came before: the constant plane
            out[0] = slot
            continue
        slot = slot.astype(np.int64, copy=False)
        for c, coef in enumerate(roots[d].tolist()):
            if coef:
                out[c] += slot if coef == 1 else coef * slot
    return out


@lru_cache(maxsize=None)
def _unit_roots(m: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * cmath.pi * j / m) for j in range(m))


class CycInt:
    """Cyclotomic integer: an element of Z[zeta_m] in the power basis.

    ``coeffs`` has length deg(Phi_m) and stores coordinates in the basis
    1, zeta, ..., zeta^(deg-1); arithmetic always reduces modulo Phi_m, so
    coefficient-wise equality is faithful at a fixed order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        deg = len(cyclotomic_poly(order)) - 1
        cs = list(coeffs)
        if len(cs) > deg:
            phi = cyclotomic_poly(order)
            for i in range(len(cs) - 1, deg - 1, -1):
                c = cs[i]
                if c:
                    cs[i] = 0
                    for t in range(deg):
                        cs[i - deg + t] -= c * phi[t]
            cs = cs[:deg]
        elif len(cs) < deg:
            cs.extend([0] * (deg - len(cs)))
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def from_int(cls, n: int, order: int = 1) -> CycInt:
        return cls(order, [n])

    @classmethod
    def root(cls, order: int, exponent: int = 1) -> CycInt:
        """zeta_order ** exponent."""
        e = exponent % order
        return cls(order, [0] * e + [1])

    def promote(self, order: int) -> CycInt:
        """Re-express at a larger root order (current order must divide it)."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot promote order {self.order} to {order}")
        step = order // self.order
        out = [0] * order
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * step] += c
        return CycInt(order, out)

    def _common(self, other: CycInt) -> tuple[CycInt, CycInt]:
        if self.order == other.order:
            return self, other
        m = self.order * other.order // gcd(self.order, other.order)
        return self.promote(m), other.promote(m)

    def __add__(self, other: CycInt) -> CycInt:
        x, y = self._common(other)
        return CycInt(x.order, [a + b for a, b in zip(x.coeffs, y.coeffs)])

    def __sub__(self, other: CycInt) -> CycInt:
        x, y = self._common(other)
        return CycInt(x.order, [a - b for a, b in zip(x.coeffs, y.coeffs)])

    def __neg__(self) -> CycInt:
        return CycInt(self.order, [-a for a in self.coeffs])

    def __mul__(self, other: CycInt | int) -> CycInt:
        if isinstance(other, int):
            return CycInt(self.order, [a * other for a in self.coeffs])
        x, y = self._common(other)
        return CycInt(x.order, _poly_mul(x.coeffs, y.coeffs))

    __rmul__ = __mul__

    def conjugate(self) -> CycInt:
        m = self.order
        out = [0] * m
        for i, c in enumerate(self.coeffs):
            if c:
                out[(m - i) % m] += c
        return CycInt(m, out)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> int:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def to_complex(self) -> complex:
        roots = _unit_roots(self.order)
        return sum((c * roots[i] for i, c in enumerate(self.coeffs) if c), 0j)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycInt):
            return NotImplemented
        x, y = self._common(other)
        return x.coeffs == y.coeffs

    def __repr__(self) -> str:
        return f"CycInt(order={self.order}, coeffs={list(self.coeffs)})"


@lru_cache(maxsize=None)
def _surd_embeddings(order: int) -> tuple[CycInt, CycInt, CycInt]:
    """sqrt2, sqrt3, sqrt6 as cyclotomic integers at an order divisible by 24."""
    if order % 24:
        raise ValueError(f"surd embeddings need an order divisible by 24, got {order}")
    s2 = CycInt.root(order, order // 8) + CycInt.root(order, 7 * order // 8)
    s3 = CycInt.root(order, order // 12) + CycInt.root(order, 11 * order // 12)
    return s2, s3, s2 * s3


_SQRT2_F = 2.0 ** 0.5
_SQRT3_F = 3.0 ** 0.5
_SQRT6_F = 6.0 ** 0.5


class ExtScalar:
    """(a + b*sqrt2 + c*sqrt3 + d*sqrt6) / 2^k with cyclotomic a, b, c, d.

    Canonical form keeps k minimal: either k = 0 or some component has an
    odd coefficient.  All operations are pure and instances are immutable.
    """

    __slots__ = ("a", "b", "c", "d", "k")

    def __init__(self, a: CycInt, b: CycInt, c: CycInt, d: CycInt, k: int = 0) -> None:
        if k < 0:
            raise ValueError("denominator exponent must be non-negative")
        orders = {a.order, b.order, c.order, d.order}
        if len(orders) > 1:
            m = 1
            for o in orders:
                m = m * o // gcd(m, o)
            a, b, c, d = (x.promote(m) for x in (a, b, c, d))
        while k > 0 and all(
            cf % 2 == 0 for x in (a, b, c, d) for cf in x.coeffs
        ):
            a, b, c, d = (
                CycInt(x.order, [cf // 2 for cf in x.coeffs]) for x in (a, b, c, d)
            )
            k -= 1
        self.a, self.b, self.c, self.d, self.k = a, b, c, d, k

    @property
    def order(self) -> int:
        return self.a.order

    @classmethod
    def from_int(cls, n: int, order: int = 1, k: int = 0) -> ExtScalar:
        z = CycInt.from_int(0, order)
        return cls(CycInt.from_int(n, order), z, z, z, k)

    @classmethod
    def from_cyc(cls, a: CycInt, k: int = 0) -> ExtScalar:
        z = CycInt.from_int(0, a.order)
        return cls(a, z, z, z, k)

    @classmethod
    def root(cls, order: int, exponent: int = 1) -> ExtScalar:
        return cls.from_cyc(CycInt.root(order, exponent))

    @classmethod
    def sqrt2(cls, order: int = 1, k: int = 0) -> ExtScalar:
        z = CycInt.from_int(0, order)
        return cls(z, CycInt.from_int(1, order), z, z, k)

    @classmethod
    def sqrt3(cls, order: int = 1, k: int = 0) -> ExtScalar:
        z = CycInt.from_int(0, order)
        return cls(z, z, CycInt.from_int(1, order), z, k)

    @classmethod
    def sqrt6(cls, order: int = 1, k: int = 0) -> ExtScalar:
        z = CycInt.from_int(0, order)
        return cls(z, z, z, CycInt.from_int(1, order), k)

    def promote(self, order: int) -> ExtScalar:
        if order == self.order:
            return self
        return ExtScalar(
            self.a.promote(order),
            self.b.promote(order),
            self.c.promote(order),
            self.d.promote(order),
            self.k,
        )

    def _common(self, other: ExtScalar) -> tuple[ExtScalar, ExtScalar]:
        if self.order == other.order:
            return self, other
        m = self.order * other.order // gcd(self.order, other.order)
        return self.promote(m), other.promote(m)

    def _scaled_components(self, k: int) -> tuple[CycInt, CycInt, CycInt, CycInt]:
        f = 1 << (k - self.k)
        if f == 1:
            return self.a, self.b, self.c, self.d
        return self.a * f, self.b * f, self.c * f, self.d * f

    def __add__(self, other: ExtScalar) -> ExtScalar:
        x, y = self._common(other)
        k = max(x.k, y.k)
        xa, xb, xc, xd = x._scaled_components(k)
        ya, yb, yc, yd = y._scaled_components(k)
        return ExtScalar(xa + ya, xb + yb, xc + yc, xd + yd, k)

    def __sub__(self, other: ExtScalar) -> ExtScalar:
        return self + (-other)

    def __neg__(self) -> ExtScalar:
        return ExtScalar(-self.a, -self.b, -self.c, -self.d, self.k)

    def __mul__(self, other: ExtScalar | int) -> ExtScalar:
        if isinstance(other, int):
            return ExtScalar(self.a * other, self.b * other, self.c * other,
                             self.d * other, self.k)
        x, y = self._common(other)
        a1, b1, c1, d1 = x.a, x.b, x.c, x.d
        a2, b2, c2, d2 = y.a, y.b, y.c, y.d
        # sqrt2*sqrt3 = sqrt6, sqrt2*sqrt6 = 2*sqrt3, sqrt3*sqrt6 = 3*sqrt2
        a = a1 * a2 + (b1 * b2) * 2 + (c1 * c2) * 3 + (d1 * d2) * 6
        b = a1 * b2 + b1 * a2 + (c1 * d2 + d1 * c2) * 3
        c = a1 * c2 + c1 * a2 + (b1 * d2 + d1 * b2) * 2
        d = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
        return ExtScalar(a, b, c, d, x.k + y.k)

    __rmul__ = __mul__

    def conjugate(self) -> ExtScalar:
        return ExtScalar(
            self.a.conjugate(),
            self.b.conjugate(),
            self.c.conjugate(),
            self.d.conjugate(),
            self.k,
        )

    def abs_sq(self) -> ExtScalar:
        return self * self.conjugate()

    def is_zero(self) -> bool:
        if self.a.is_zero() and self.b.is_zero() and self.c.is_zero() and self.d.is_zero():
            return True
        m = self.order
        if m % 8 and m % 12:
            # 1, sqrt2, sqrt3, sqrt6 are independent over Q(zeta_m)
            return False
        big = m * 24 // gcd(m, 24)
        s2, s3, s6 = _surd_embeddings(big)
        total = (
            self.a.promote(big)
            + self.b.promote(big) * s2
            + self.c.promote(big) * s3
            + self.d.promote(big) * s6
        )
        return total.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtScalar):
            return NotImplemented
        x, y = self._common(other)
        if x.k == y.k and x.a == y.a and x.b == y.b and x.c == y.c and x.d == y.d:
            return True
        m = x.order
        if m % 8 and m % 12:
            return False
        return (x - y).is_zero()

    def is_rational(self) -> bool:
        return (
            self.a.is_rational()
            and self.b.is_zero()
            and self.c.is_zero()
            and self.d.is_zero()
        )

    def as_fraction(self) -> Fraction | None:
        """Exact rational value, or None when the value has a surd or root part.

        Componentwise test only.  At orders divisible by 8 or 12 a surd can
        also be written with roots of unity, so a rational value stored that
        way reads as None; the exact frame kernel never meets this, because
        its Gram values carry no surd components.
        """
        if not self.is_rational():
            return None
        return Fraction(self.a.rational_value(), 1 << self.k)

    def to_complex(self) -> complex:
        val = (
            self.a.to_complex()
            + self.b.to_complex() * _SQRT2_F
            + self.c.to_complex() * _SQRT3_F
            + self.d.to_complex() * _SQRT6_F
        )
        return val / (1 << self.k)

    def __repr__(self) -> str:
        parts = []
        for name, comp in (("", self.a), ("sqrt2", self.b), ("sqrt3", self.c), ("sqrt6", self.d)):
            if not comp.is_zero():
                parts.append(f"{list(comp.coeffs)}{name and '*' + name}")
        body = " + ".join(parts) if parts else "0"
        return f"ExtScalar({body}, order={self.order}, k={self.k})"
