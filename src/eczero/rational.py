"""Global Weierstrass models over Q: invariants, per-prime minimization,
reduction-type classification, bounded point search and pointwise
division-polynomial evaluation.

Models are short Weierstrass y^2 = x^3 + a*x + b with exact integer
coefficients; long models [a1, a2, a3, a4, a6] are accepted for ingestion
and converted by completing the square and cube (valid for the supported
primes p >= 5, which the 2- and 3-powers of the conversion never touch).

The bounded point search is one pure-Python sieve after M. Stoll's
*ratpoints*, with no size limit on the coefficients: for each denominator e,
the numerators m of x = m/e^2 are the bits of one Python int, ANDed with
rows marking where m^3 + a e^4 m + b e^6 is a square modulo small moduli.
The rows live in one LRU cache of sum(q) = 730 rows, the most one search
uses, so the curves of a family survey share them.  Only the survivors are
tested with isqrt and then confirmed exactly.  The box is sieved one row at
a time, in increasing e (:func:`search_rows`).
Every point of row e has naive height max(|m|, e^2) >= e^2, so a caller
looking for the first point of some kind in height order may stop once its
best point has height < (e + 1)^2: no later row holds a smaller one, and
the answer is the one the whole box gives.  ``survey.find_generator``
stops there, as ratpoints does.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, isqrt

from .arith import double_and_add, kronecker_symbol, require_curve_prime
from .errors import DomainError
from .fp import FpCurve, trace_of_frobenius

@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + a*x + b over Q with nonzero discriminant."""

    a: int
    b: int
    label: str | None = None

    def __post_init__(self):
        if self.discriminant == 0:
            raise DomainError("singular model: -16(4a^3 + 27b^2) = 0")

    @property
    def discriminant(self) -> int:
        return -16 * (4 * self.a**3 + 27 * self.b**2)

    @property
    def c4(self) -> int:
        return -48 * self.a

    @property
    def c6(self) -> int:
        return -864 * self.b

    def rhs(self, x: Fraction) -> Fraction:
        return x * x * x + self.a * x + self.b

    def contains(self, point: "QPoint") -> bool:
        if point.is_identity:
            return True
        return point.y * point.y == self.rhs(point.x)

    def __str__(self):
        name = f"[{self.label}] " if self.label else ""
        return f"{name}y^2 = x^3 + {self.a}x + {self.b}"


@dataclass(frozen=True)
class QPoint:
    """Rational affine point or the identity; coordinates are exact."""

    x: Fraction | None
    y: Fraction | None

    @classmethod
    def identity(cls) -> "QPoint":
        return cls(None, None)

    @classmethod
    def from_pair(cls, x, y) -> "QPoint":
        return cls(Fraction(x), Fraction(y))

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def height_key(self) -> tuple[int, Fraction, Fraction]:
        """(max(|m|, e^2), x, y) for an affine point with x = m/e^2 in lowest
        terms: the naive height of x, then x, then y.  The point search's order."""
        return max(abs(self.x.numerator), self.x.denominator), self.x, self.y

    def __str__(self):
        return "O" if self.is_identity else f"({self.x}, {self.y})"


def q_neg(point: QPoint) -> QPoint:
    if point.is_identity:
        return point
    return QPoint(point.x, -point.y)


def q_add(curve: Curve, P: QPoint, Q: QPoint) -> QPoint:
    """Exact chord-tangent addition over Q."""
    if P.is_identity:
        return Q
    if Q.is_identity:
        return P
    if P.x == Q.x:
        if P.y + Q.y == 0:
            return QPoint.identity()
        lam = (3 * P.x * P.x + curve.a) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return QPoint(x3, y3)


def q_scalar_mul(curve: Curve, k: int, P: QPoint) -> QPoint:
    """[k]P by double-and-add; [0]P = O and [-k]P = -[k]P."""
    if k < 0:
        k, P = -k, q_neg(P)
    return double_and_add(partial(q_add, curve), k, P, QPoint.identity())


# Mazur: a rational point of finite order has order at most 12.
_TORSION_BOUND = 12


def torsion_order(curve: Curve, P: QPoint) -> int | None:
    """Order of P if it is finite, None if P has infinite order.

    Walks P, 2P, ..., 12P with one addition per step and returns the first
    k with kP = O.  On an integral short model every torsion point has
    integral coordinates (Nagell-Lutz; Silverman, AEC VIII.7), so the walk
    stops with None at the first multiple with a non-integral coordinate;
    by Mazur it also stops with None after 12 integral multiples none of
    which is O.  The answer is the smallest m <= 12 with [m]P = O.
    """
    Q = P
    for k in range(1, _TORSION_BOUND + 1):
        if Q.is_identity:
            return k
        if Q.x.denominator != 1 or Q.y.denominator != 1:
            return None
        Q = q_add(curve, Q, P)
    return None


def curve_from_long_weierstrass(ai: list[int], label: str | None = None) -> Curve:
    """Short model integrally equivalent to y^2+a1xy+a3y = x^3+a2x^2+a4x+a6.

    The returned model is the (u = 1/6)-scaled one y^2 = x^3 - 27c4 x - 54c6;
    use :func:`long_point_to_short` to carry points across.
    """
    a1, a2, a3, a4, a6 = ai
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    return Curve(-27 * c4, -54 * c6, label=label)


def long_point_to_short(ai: list[int], x, y) -> QPoint:
    """Image of a long-model point on the model of curve_from_long_weierstrass."""
    a1, a2, a3, a4, a6 = ai
    x, y = Fraction(x), Fraction(y)
    b2 = a1 * a1 + 4 * a2
    return QPoint(36 * x + 3 * b2, 216 * y + 108 * (a1 * x + a3))


def _minimal_with_scale(curve: Curve, p: int) -> tuple[Curve, int]:
    # The model with minimal v_p(discriminant) among u = p^k rescalings, and k.
    a, b = curve.a, curve.b
    k = 0
    while a % p**4 == 0 and b % p**6 == 0:
        a //= p**4
        b //= p**6
        k += 1
    return Curve(a, b, label=curve.label), k


class ReductionKind(enum.Enum):
    GOOD_ORDINARY = "good ordinary"
    GOOD_SUPERSINGULAR = "good supersingular"
    SPLIT_MULTIPLICATIVE = "split multiplicative"
    NONSPLIT_MULTIPLICATIVE = "nonsplit multiplicative"
    ADDITIVE = "additive"

    @property
    def is_good(self) -> bool:
        return self in (ReductionKind.GOOD_ORDINARY, ReductionKind.GOOD_SUPERSINGULAR)


@dataclass(frozen=True)
class ReductionType:
    kind: ReductionKind
    anomalous: bool = False
    trace: int | None = None

    def __post_init__(self):
        if self.anomalous and self.kind is not ReductionKind.GOOD_ORDINARY:
            raise DomainError("anomalous reduction is necessarily good ordinary")

    def __str__(self):
        extra = ", anomalous" if self.anomalous else ""
        return f"{self.kind.value}{extra}"


def reduction_type(curve: Curve, p: int) -> ReductionType:
    """Classify the special fiber at p >= 5 after minimizing the model.

    Good iff p does not divide the minimal discriminant; multiplicative
    fibers are split iff -c6 is a square mod p; additive otherwise.
    """
    require_curve_prime(p)
    minimal = _minimal_with_scale(curve, p)[0]
    disc = minimal.discriminant
    if disc % p != 0:
        reduced = FpCurve(p, minimal.a % p, minimal.b % p)
        ap = trace_of_frobenius(reduced)
        if ap % p == 0:
            return ReductionType(ReductionKind.GOOD_SUPERSINGULAR, trace=ap)
        return ReductionType(ReductionKind.GOOD_ORDINARY, anomalous=(ap == 1), trace=ap)
    if minimal.c4 % p != 0:
        if kronecker_symbol(-minimal.c6, p) == 1:
            return ReductionType(ReductionKind.SPLIT_MULTIPLICATIVE)
        return ReductionType(ReductionKind.NONSPLIT_MULTIPLICATIVE)
    return ReductionType(ReductionKind.ADDITIVE)


# Sieve moduli: 64, 63 = 7*9, 65 = 5*13 and the primes 11 and 17..67 (65
# covers 13).  A square is a square modulo each, so no point is sieved out.
_SIEVE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)
_SQUARES_MOD = {q: frozenset(i * i % q for i in range(q)) for q in _SIEVE_MODULI}

# The one sieve cache.  A search asks for (q, a e^4 mod q, b e^6 mod q, H),
# which depends on e only through e mod q: at most sum(q) = 730 keys, so an
# LRU cache of 730 rows never evicts one the running search still uses.  It
# holds at most 730 rows of about 2H bits (~1.9 MB at H = 10^4), and curves
# that share residues share rows.
@lru_cache(maxsize=sum(_SIEVE_MODULI))
def _sieve_row(q: int, A: int, B: int, height: int) -> int:
    """Bitset whose bit j says m = j - H passes the sieve mod q; bits past 2H are junk."""
    squares = _SQUARES_MOD[q]
    pattern = sum(1 << r for r in range(q) if (r * r * r + A * r + B) % q in squares)
    copies = 8 // gcd(q, 8)  # q * copies = lcm(q, 8)
    tiled = pattern * ((1 << q * copies) - 1) // ((1 << q) - 1)
    chunk = tiled.to_bytes(q * copies // 8, "little")
    # bit k of the tiling stands for m = k mod q; the shift makes bit 0 stand for m = -H
    shift = -height % q
    return int.from_bytes(chunk * ((2 * height + shift) // (8 * len(chunk)) + 1), "little") >> shift


def search_rows(curve: Curve, height: int) -> Iterator[tuple[int, list[QPoint]]]:
    """(e, points) for e = 1, 2, ..., isqrt(height), one sieved row at a time.

    Row e holds, unsorted, every rational point with x = m/e^2 in lowest
    terms and |m| <= height; each sieve hit is confirmed exactly.  Every
    point of row e has naive height max(|m|, e^2) >= e^2, which is what lets
    a caller stop before the next row.  Rows are sieved on demand, so a
    caller that stops early pays only for the rows it read.
    """
    if height < 1:
        raise DomainError("height bound must be >= 1")
    a, b = curve.a, curve.b
    box = (1 << 2 * height + 1) - 1
    for e in range(1, isqrt(height) + 1):
        ae4, be6 = a * e**4, b * e**6
        alive = box
        for q in _SIEVE_MODULI:
            alive &= _sieve_row(q, ae4 % q, be6 % q, height)
            if not alive:
                break
        points = []
        while alive:
            low = alive & -alive
            alive ^= low
            m = low.bit_length() - 1 - height
            if e > 1 and gcd(m, e) != 1:
                continue
            t = m * m * m + ae4 * m + be6
            if t < 0:
                continue
            s = isqrt(t)
            if s * s != t:
                continue
            x, y = Fraction(m, e * e), Fraction(s, e**3)
            if y * y != curve.rhs(x):  # exact confirmation of the sieve hit
                continue
            points.append(QPoint(x, y))
            if s != 0:
                points.append(QPoint(x, -y))
        yield e, points


def naive_point_search(curve: Curve, height: int) -> list[QPoint]:
    """All rational points with x = m/e^2, |m| <= height, e <= sqrt(height).

    The box is sieved row by row, in increasing e, by :func:`search_rows`:
    modulo 64, 63, 65 and the primes 11, 17, ..., 67, so a candidate is
    tested with isqrt only when t = m^3 + a e^4 m + b e^6 is a square modulo
    all of them; each hit is then confirmed exactly.  One cache serves the
    sieve, :func:`_sieve_row`: an LRU cache of sum(q) = 730 rows of about
    2*height bits, the most one search asks for.  gcd(m, e) = 1 puts each x
    in lowest terms, so no two hits share an x; the rows are flattened and
    sorted by :meth:`QPoint.height_key`.  This reads every row;
    ``survey.find_generator`` reads the same rows in the same order but stops
    at the first row that cannot beat its best point (see the module
    docstring), and so returns the point this list would give.
    """
    return sorted((P for _, row in search_rows(curve, height) for P in row), key=QPoint.height_key)


# --- division polynomials -------------------------------------------------
#
# psi_m is never expanded: for odd m the y-free family P_n (psi_n = P_n for
# odd n, psi_n = 2y * P_n for even n, with y^2 eliminated via
# f = x^3 + a x + b) is run pointwise on dual numbers, pairs (value,
# derivative) of plain integers modulo the working modulus.


def divpoly_eval_with_derivative(curve: Curve, m: int, x0: int, modulus: int) -> tuple[int, int]:
    """(psi_m(x0), psi_m'(x0)) modulo `modulus` for odd m, without expanding psi_m.

    Runs the division-polynomial recurrence on dual numbers, so only
    O(log m) windowed values are ever materialized; this is what makes
    torsion lifting at m = p feasible for primes like 223.
    """
    if m < 1 or m % 2 == 0:
        raise DomainError("dual evaluation is defined for odd m >= 1")
    a, b = curve.a, curve.b
    mod = modulus

    def mul(u, w):
        return u[0] * w[0] % mod, (u[0] * w[1] + u[1] * w[0]) % mod

    def cube(u):
        # (u, u')^3 = (u^3, 3 u^2 u'): three products where mul(u, mul(u, u)) takes six
        sq = u[0] * u[0] % mod
        return sq * u[0] % mod, 3 * sq * u[1] % mod

    x0 %= mod
    x2 = x0 * x0 % mod
    x3 = x2 * x0 % mod
    x4 = x2 * x2 % mod
    f = (x3 + a * x0 + b, 3 * x2 + a)
    f_sq16 = mul(f, (16 * f[0], 16 * f[1]))
    base: dict[int, tuple[int, int]] = {
        0: (0, 0),
        1: (1 % mod, 0),
        2: (1 % mod, 0),
        3: (
            (3 * x4 + 6 * a * x2 + 12 * b * x0 - a * a) % mod,
            (12 * x3 + 12 * a * x0 + 12 * b) % mod,
        ),
        4: (
            2 * (x3 * x3 + 5 * a * x4 + 20 * b * x3 - 5 * a * a * x2 - 4 * a * b * x0 - 8 * b * b - a**3) % mod,
            2 * (6 * x3 * x2 + 20 * a * x3 + 60 * b * x2 - 10 * a * a * x0 - 4 * a * b) % mod,
        ),
    }

    def rec(n: int) -> tuple[int, int]:
        if n in base:
            return base[n]
        h = n // 2
        if n % 2 == 1:
            t1 = mul(rec(h + 2), cube(rec(h)))
            t2 = mul(rec(h - 1), cube(rec(h + 1)))
            if h % 2 == 0:
                t1 = mul(f_sq16, t1)
            else:
                t2 = mul(f_sq16, t2)
            out = (t1[0] - t2[0]) % mod, (t1[1] - t2[1]) % mod
        else:
            t1 = mul(rec(h + 2), mul(rec(h - 1), rec(h - 1)))
            t2 = mul(rec(h - 2), mul(rec(h + 1), rec(h + 1)))
            out = mul(rec(h), (t1[0] - t2[0], t1[1] - t2[1]))
        base[n] = out
        return out

    return rec(m)
