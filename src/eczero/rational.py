"""Global Weierstrass models over Q: invariants, per-prime minimization,
reduction-type classification and bounded point search.

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
a time, in increasing e (:func:`search_rows`), and only on the real locus:
x^3 + a x + b < 0 for every x below an integer R (:func:`_real_locus_start`),
so when R > 0 row e sieves only m >= R e^2, and the rows with R e^2 > H are
not read at all.
Every point of row e has naive height max(|m|, e^2) >= e^2, so a caller
looking for the first point of some kind in height order may stop once its
best point has height < (e + 1)^2: no later row holds a smaller one, and
the answer is the one the whole box gives.  ``survey.find_generator``
stops there, as ratpoints does.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, isqrt

from .arith import double_and_add, kronecker_symbol, require_curve_prime, squares_mod
from .bounds import MAX_HEIGHT
from .errors import DomainError, IngestError
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

    def contains(self, point: "QPoint") -> bool:
        """y^2 = x^3 + a x + b, on integers: with x = xn/xd and y = yn/yd,
        yn^2 xd^3 = yd^2 (xn^3 + a xn xd^2 + b xd^3).  O is on every curve."""
        if point.is_identity:
            return True
        xn, xd = point.x.numerator, point.x.denominator
        yn, yd = point.y.numerator, point.y.denominator
        xd2 = xd * xd
        return yn * yn * xd2 * xd == yd * yd * (xn * xn * xn + self.a * xn * xd2 + self.b * xd2 * xd)

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

    On an integral short model every torsion point has integral coordinates
    (Nagell-Lutz; Silverman, AEC VIII.7), so a non-integral P returns None.
    An integral P is walked P, 2P, ..., 12P on integers, one chord or
    tangent a step: with (k-1)P and P integral, kP is integral exactly when
    the slope is an integer, so the walk returns None at the first slope
    that is not, k at the first vertical chord (kP = O), and None after 12
    multiples none of which is O (Mazur).  The answer is the smallest
    m <= 12 with [m]P = O.
    """
    if P.is_identity:
        return 1
    if P.x.denominator != 1 or P.y.denominator != 1:
        return None
    x0, y0 = P.x.numerator, P.y.numerator
    x, y = x0, y0
    for k in range(2, _TORSION_BOUND + 1):
        # (x, y) is (k-1)P, integral and not O
        if x == x0:
            if y == -y0:
                return k
            num, den = 3 * x * x + curve.a, 2 * y
        else:
            num, den = y - y0, x - x0
        lam, r = divmod(num, den)
        if r:
            return None
        x3 = lam * lam - x - x0
        x, y = x3, lam * (x - x3) - y
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


def _is_int(value) -> bool:
    # An integer of a curve file or --gen: JSON's true and false decode to
    # bool, which is an int subclass but no integer there.
    return isinstance(value, int) and not isinstance(value, bool)


def parse_generator(raw) -> tuple[Fraction, Fraction]:
    """(x, y) from [x_num, x_den, y_num, y_den]: a curve file's gen field or
    the CLI's --gen."""
    if not (isinstance(raw, list) and len(raw) == 4 and all(_is_int(t) for t in raw)):
        raise IngestError("gen must be [x_num, x_den, y_num, y_den] with integer entries")
    xn, xd, yn, yd = raw
    if xd <= 0 or yd <= 0:
        raise IngestError("gen denominators must be positive")
    return Fraction(xn, xd), Fraction(yn, yd)


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
    """The special fiber at p: its kind, and a_p when good.  reduction_type
    also keeps the model minimal at p, its scale k (u = p^k) and, when good,
    its reduction; they take no part in equality, hashing or printing."""

    kind: ReductionKind
    trace: int | None = None
    minimal: Curve | None = field(default=None, compare=False, repr=False)
    scale: int | None = field(default=None, compare=False, repr=False)
    reduced: FpCurve | None = field(default=None, compare=False, repr=False)

    @property
    def anomalous(self) -> bool:
        """|E(F_p)| = p: good ordinary with trace 1."""
        return self.kind is ReductionKind.GOOD_ORDINARY and self.trace == 1

    def __str__(self):
        extra = ", anomalous" if self.anomalous else ""
        return f"{self.kind.value}{extra}"


def reduction_type(curve: Curve, p: int) -> ReductionType:
    """Classify the special fiber at p >= 5 after minimizing the model.

    Good iff p does not divide the minimal discriminant; multiplicative
    fibers are split iff -c6 is a square mod p; additive otherwise.
    """
    require_curve_prime(p)
    minimal, scale = _minimal_with_scale(curve, p)
    if minimal.discriminant % p != 0:
        reduced = FpCurve._at_checked_prime(p, minimal.a, minimal.b)
        ap = trace_of_frobenius(reduced)
        kind = ReductionKind.GOOD_SUPERSINGULAR if ap % p == 0 else ReductionKind.GOOD_ORDINARY
        return ReductionType(kind, ap, minimal, scale, reduced)
    if minimal.c4 % p == 0:
        kind = ReductionKind.ADDITIVE
    elif kronecker_symbol(-minimal.c6, p) == 1:
        kind = ReductionKind.SPLIT_MULTIPLICATIVE
    else:
        kind = ReductionKind.NONSPLIT_MULTIPLICATIVE
    return ReductionType(kind, None, minimal, scale, None)


def require_height(height: int) -> None:
    """Every point search takes a height bound in 1..MAX_HEIGHT; check it before a search or a survey."""
    if height < 1:
        raise DomainError("height bound must be >= 1")
    if height > MAX_HEIGHT:
        raise DomainError(f"height bound must be <= {MAX_HEIGHT}")


# Sieve moduli: 64, 63 = 7*9, 65 = 5*13 and the primes 11 and 17..67 (65
# covers 13).  A square is a square modulo each, so no point is sieved out.
_SIEVE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)
_SQUARES_MOD = {q: squares_mod(q) for q in _SIEVE_MODULI}

# The one sieve cache.  A search asks for (q, a e^4 mod q, b e^6 mod q, H),
# which depends on e only through e mod q: at most sum(q) = 730 keys, so an
# LRU cache of 730 rows never evicts one the running search still uses.  It
# holds at most 730 rows of about 2H bits (~1.9 MB at H = 10^4), and curves
# that share residues share rows.
@lru_cache(maxsize=sum(_SIEVE_MODULI))
def _sieve_row(q: int, A: int, B: int, height: int) -> int:
    """Bitset whose bit j says m = H - j passes the sieve mod q; bits past 2H are junk.

    The bits run down from m = H, so a row that starts at m_lo is ANDed
    through a mask of H - m_lo + 1 bits and costs only that many.
    """
    squares = _SQUARES_MOD[q]
    pattern = sum(1 << r for r in range(q) if squares[(-r * r * r - A * r + B) % q])
    copies = 8 // gcd(q, 8)  # q * copies = lcm(q, 8)
    tiled = pattern * ((1 << q * copies) - 1) // ((1 << q) - 1)
    chunk = tiled.to_bytes(q * copies // 8, "little")
    # bit k of the tiling stands for m = -k mod q; the shift makes bit 0 stand for m = H
    shift = -height % q
    return int.from_bytes(chunk * ((2 * height + shift) // (8 * len(chunk)) + 1), "little") >> shift


def _real_locus_start(a: int, b: int) -> int:
    """An integer R with x^3 + a x + b < 0 for every real x < R.

    With one real root r1 (4a^3 + 27b^2 > 0), f(x) <= 0 iff x <= r1, and R
    = floor(r1).  With three (4a^3 + 27b^2 < 0, so a < 0), f increases up
    to -sqrt(-a/3) > -(isqrt(-a) + 1), and R is the largest integer <=
    -(isqrt(-a) + 1) with f(R) <= 0, below the smallest root.  Both are a
    binary search on exact integers from the Cauchy bound: every root has
    |r| < 1 + max(|a|, |b|), and f(-1 - max(|a|, |b|)) < 0.
    """
    lo = -1 - max(abs(a), abs(b))
    hi = -lo if 4 * a**3 + 27 * b**2 > 0 else -isqrt(-a)
    # f(lo) <= 0, and R is the largest x in [lo, hi) with f(x) <= 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * mid * mid + a * mid + b <= 0:
            lo = mid
        else:
            hi = mid
    return lo


def search_rows(curve: Curve, height: int) -> Iterator[tuple[int, list[QPoint]]]:
    """(e, points) for e = 1, 2, ..., at most isqrt(height), one sieved row at a time.

    Row e holds, unsorted, every rational point with x = m/e^2 in lowest
    terms and |m| <= height; each sieve hit is confirmed exactly.  Every
    point of row e has naive height max(|m|, e^2) >= e^2, which is what lets
    a caller stop before the next row.  Rows are sieved on demand, so a
    caller that stops early pays only for the rows it read.  A height
    outside 1..MAX_HEIGHT raises DomainError before any row is built.

    Only the real locus is sieved: there is no point with x below R =
    :func:`_real_locus_start`, so when R > 0 row e reads only m >= R e^2,
    and the rows end at e = isqrt(height // R), before the rows with R e^2 >
    height, which hold no point.  When R <= 0 every row reads the box.
    """
    require_height(height)
    a, b = curve.a, curve.b
    start = _real_locus_start(a, b)
    last = isqrt(height // start) if start > 0 else isqrt(height)
    # With start <= 0 the window [start e^2, height] is at least half the box,
    # and building its mask (a subtraction, several times slower per digit
    # than &) costs more than its shorter ANDs save: those rows take the box.
    box = (1 << 2 * height + 1) - 1
    for e in range(1, last + 1):
        ae4, be6 = a * e**4, b * e**6
        # bit j stands for m = height - j, down to m = start e^2 when start > 0
        alive = (1 << height - start * e * e + 1) - 1 if start > 0 else box
        for q in _SIEVE_MODULI:
            alive &= _sieve_row(q, ae4 % q, be6 % q, height)
            if not alive:
                break
        points = []
        while alive:
            low = alive & -alive
            alive ^= low
            m = height + 1 - low.bit_length()
            if e > 1 and gcd(m, e) != 1:
                continue
            t = m * m * m + ae4 * m + be6
            if t < 0:
                continue
            s = isqrt(t)
            if s * s != t:
                continue
            x, y = Fraction(m, e * e), Fraction(s, e**3)
            points.append(QPoint(x, y))
            if s != 0:
                points.append(QPoint(x, -y))
        yield e, points


def naive_point_search(curve: Curve, height: int) -> list[QPoint]:
    """All rational points with x = m/e^2, |m| <= height, e <= sqrt(height).

    The box is sieved row by row, in increasing e, by :func:`search_rows`:
    modulo 64, 63, 65 and the primes 11, 17, ..., 67, so a candidate is
    tested with isqrt only when t = m^3 + a e^4 m + b e^6 is a square modulo
    all of them; each hit is then confirmed exactly.  When R > 0, where R
    (:func:`_real_locus_start`) has no real point to its left, only x >= R
    is sieved, and rows past the real locus (R e^2 > height) are not read.
    One cache serves the sieve, :func:`_sieve_row`: an LRU cache of sum(q) =
    730 rows of about 2*height bits, the most one search asks for.
    gcd(m, e) = 1 puts each x in lowest terms, so no two hits share an x;
    the rows are flattened and sorted by :meth:`QPoint.height_key`.  This
    reads every row;
    ``survey.find_generator`` reads the same rows in the same order but stops
    at the first row that cannot beat its best point (see the module
    docstring), and so returns the point this list would give.
    """
    return sorted((P for _, row in search_rows(curve, height) for P in row), key=QPoint.height_key)

