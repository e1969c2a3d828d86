"""Elliptic curves over prime fields: group law, point counting, traces.

Counting has two routes.  For p <= 229 a sweep reads `arith.squares_mod`.
Above Mestre's bound, 229 < p <= 2^40, a curve with the j-invariant of one
of the nine class-number-one maximal orders O_D starts from its CM orders
(Cornacchia's 4p = u^2 + |D| v^2 and `arith.unit_orbit`), any other curve
from the Hasse interval, which each point cuts to the multiples of its
kill step.  A kill step comes from baby-step/giant-step with +- baby
steps (Shanks-Mestre; Cohen, GTM 138, Sec. 7.4): the baby steps [j]P,
j <= m ~ sqrt(width / 2), are keyed by x, so each giant step of 2m + 1
tests [c]P = [j]P and [c]P = -[j]P at once.  Both walks add their steps
in blocks that double, and each block takes one field inversion
(Montgomery's simultaneous inversion, _add_many), about 2 log2(m) in all
where one addition at a time takes 2m.  The walk's points cut either
set, then the quadratic twist's points cut the mirrored orders; E or its
twist always has a point that leaves one.  If more are left, the sweep
decides for p <= 2^16 and an InternalConsistencyError is raised above, so
the returned order is always exact and no sweep runs past 2^16 steps.

A count tests its prime once: FpCurve tests p when it is built, and
reduction_type, which tests p itself, builds its curve, the twist and the
CM route's Cornacchia call through private paths that skip that test; the
local layer's entries and anomalous_residues_d3 build theirs the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from math import isqrt, lcm

from .arith import (
    CM_J_INVARIANTS,
    _cornacchia,
    double_and_add,
    kronecker_symbol,
    least_nonresidue,
    require_curve_prime,
    sqrt_mod_p,
    squares_mod,
    unit_orbit,
)
from .errors import DomainError, InternalConsistencyError, UnsupportedModulusError

# Mestre's bound (J.-F. Mestre; R. Schoof, "Counting points on elliptic
# curves over finite fields", J. Theor. Nombres Bordeaux 7, 1995): for
# p > 229, E or its quadratic twist has a point whose order has exactly one
# multiple in the Hasse interval, so their points leave one candidate order.
_NAIVE_LIMIT = 229
# Largest p at which an ambiguous count may fall back to the sweep (about
# 30 ms); above it the ambiguity is raised as a bug.
_FALLBACK_LIMIT = 1 << 16
# Most points of a curve (and again of its twist) that cut its candidate orders.
_ORDER_POINTS = 24
COUNT_LIMIT = 1 << 40


@dataclass(frozen=True)
class FpCurve:
    """Nonsingular curve y^2 = x^3 + a*x + b over F_p with p >= 5."""

    p: int
    a: int
    b: int

    def __post_init__(self):
        require_curve_prime(self.p)
        self._reduce()

    def _reduce(self):
        object.__setattr__(self, "a", self.a % self.p)
        object.__setattr__(self, "b", self.b % self.p)
        if (4 * self.a**3 + 27 * self.b**2) % self.p == 0:
            raise DomainError("singular curve: 4a^3 + 27b^2 = 0 mod p")

    @classmethod
    def _at_checked_prime(cls, p: int, a: int, b: int) -> "FpCurve":
        # FpCurve(p, a, b) without the primality test, for a p its caller
        # has tested (reduction_type's p, or the p of a curve it twists), so
        # that one count tests its prime once.
        curve = object.__new__(cls)
        vars(curve).update(p=p, a=a, b=b)
        curve._reduce()
        return curve

    def rhs(self, x: int) -> int:
        return (x * x % self.p * x + self.a * x + self.b) % self.p

    def contains(self, point: "FpPoint") -> bool:
        if point.is_identity:
            return True
        return point.y * point.y % self.p == self.rhs(point.x)

    def __str__(self):
        return f"y^2 = x^3 + {self.a}x + {self.b} over F_{self.p}"


@dataclass(frozen=True)
class FpPoint:
    """Affine point or the identity; coordinates are residues mod p."""

    x: int | None
    y: int | None

    @classmethod
    def identity(cls) -> "FpPoint":
        return cls(None, None)

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def __str__(self):
        return "O" if self.is_identity else f"({self.x}, {self.y})"


# Tuple-based kernels; (None, None) is the identity.  FpPoint wraps these.


def _add(p: int, a: int, P, Q):
    if P[0] is None:
        return Q
    if Q[0] is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return (None, None)
        num = (3 * x1 * x1 + a) % p
        den = 2 * y1 % p
    else:
        num = (y2 - y1) % p
        den = (x2 - x1) % p
    lam = num * pow(den, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def _add_many(p: int, a: int, pairs: list) -> list:
    # [_add(p, a, P, Q) for P, Q in pairs] with one field inversion for the
    # whole list (Montgomery's trick; Cohen, GTM 138, Alg. 10.3.4): the
    # forward pass multiplies up the slopes' denominators, the product is
    # inverted once, and the backward pass peels each 1/den off it.  An
    # identity operand or P = -Q needs no denominator.
    slopes = []  # (num, den, product of the dens before it), or None
    acc = 1
    for (x1, y1), (x2, y2) in pairs:
        if x1 is None or x2 is None:
            slopes.append(None)
            continue
        if x1 != x2:
            num, den = y2 - y1, x2 - x1
        elif (y1 + y2) % p:
            num, den = 3 * x1 * x1 + a, 2 * y1
        else:
            slopes.append(None)
            continue
        slopes.append((num, den, acc))
        acc = acc * den % p
    inv = pow(acc, -1, p)  # 1 / (the dens so far), as the pass walks back
    out = []
    for (P, Q), slope in zip(reversed(pairs), reversed(slopes)):
        if slope is None:
            out.append(Q if P[0] is None else P if Q[0] is None else (None, None))
            continue
        num, den, before = slope
        lam = num * before * inv % p
        inv = inv * den % p
        x1, y1 = P
        x3 = (lam * lam - x1 - Q[0]) % p
        out.append((x3, (lam * (x1 - x3) - y1) % p))
    out.reverse()
    return out


def fp_neg(curve: FpCurve, point: FpPoint) -> FpPoint:
    if point.is_identity:
        return point
    return FpPoint(point.x, (-point.y) % curve.p)


def fp_add(curve: FpCurve, P: FpPoint, Q: FpPoint) -> FpPoint:
    """Chord-tangent addition; the identity is neutral."""
    x, y = _add(curve.p, curve.a, (P.x, P.y), (Q.x, Q.y))
    return FpPoint(x, y)


def fp_scalar_mul(curve: FpCurve, k: int, P: FpPoint) -> FpPoint:
    """[k]P by double-and-add; [0]P = O and [-k]P = -[k]P."""
    if k < 0:
        k, P = -k, fp_neg(curve, P)
    x, y = double_and_add(partial(_add, curve.p, curve.a), k, (P.x, P.y), (None, None))
    return FpPoint(x, y)


def point_at_x(curve: FpCurve, x: int) -> FpPoint | None:
    """A point with the given x-coordinate (smaller y), if one exists."""
    y = sqrt_mod_p(curve.rhs(x % curve.p), curve.p)
    if y is None:
        return None
    return FpPoint(x % curve.p, y)


def count_points_naive(curve: FpCurve) -> int:
    """|E(F_p)| by a full x-sweep with a precomputed residue table."""
    p, a, b = curve.p, curve.a, curve.b
    qr = squares_mod(p)
    total = p + 1
    for x in range(p):
        t = (x * x % p * x + a * x + b) % p
        if t == 0:
            continue
        total += 1 if qr[t] else -1
    return total


def _kill_step(curve: FpCurve, P, lo: int, width: int) -> int:
    # The L whose multiples in [lo, lo + width) are exactly the n there with
    # [n]P = O.  In the Hasse interval those n are the multiples of ord(P):
    # a small order is its own step, two hits differ by ord(P), and one hit
    # n0 is a step too, since 2 n0 lies past the interval.  No hit, which
    # only a bug can cause, gives 0, whose one multiple 0 lies below it.
    #
    # Baby steps [j]P, 1 <= j <= m, are keyed by x, which [j]P shares with
    # -[j]P, so each giant step of 2m + 1 covers the n within m of its
    # centre.  The first repeat among them gives any order up to 2m: the
    # identity at j gives j (O is in the table as [0]P), y = 0 gives 2j, and
    # [j]P = -[i]P gives i + j ([j]P = [i]P would have met O at j - i).
    #
    # Both walks grow in blocks that double, one _add_many each: the next
    # block is every point so far plus [len]P (baby steps) or [len] stride
    # (giant steps; the call also doubles the addend if a block follows).
    # Each block is scanned in order before the next one is built.
    p, a = curve.p, curve.a
    m = isqrt(width // 2) + 1
    table: dict[int | None, tuple] = {None: (0, None)}  # x([j]P) -> (j, y([j]P))
    babies, block = [], [P]
    while True:
        for j, R in enumerate(block, len(babies) + 1):
            if (hit := table.get(R[0])) is not None:
                return hit[0] + j
            if R[1] == 0:
                return 2 * j
            table[R[0]] = (j, R[1])
        babies += block
        if len(babies) == m:
            break
        block = _add_many(p, a, [(B, babies[-1]) for B in babies[: m - len(babies)]])
    # ord(P) > 2m now, so a window [c - m, c + m] holds at most one hit.  The
    # stride [2m + 1]P is 2 [m]P + P, and with lo + m = q (2m + 1) + r - m,
    # 0 <= r <= 2m, the first centre's [lo + m]P is [q] stride plus the baby
    # step [r - m]P or the negative of [m - r]P.
    stride = _add(p, a, _add(p, a, babies[-1], babies[-1]), P)
    q, r = divmod(lo + 2 * m, 2 * m + 1)
    G = double_and_add(partial(_add, p, a), q, stride, (None, None))
    if r != m:
        x, y = babies[abs(r - m) - 1]
        G = _add(p, a, G, (x, y if r > m else -y % p))
    first = 0
    centres = range(lo + m, lo + m + width, 2 * m + 1)
    giants, block, addend = [], [G], stride  # addend: [len(giants)] stride after each scan
    while True:
        for c, G in zip(centres[len(giants):], block):
            # [c - j]P = O if [c]P = [j]P, [c + j]P = O if [c]P = -[j]P; a
            # hit past the interval is still the next multiple of ord(P), so
            # it needs no test
            if (hit := table.get(G[0])) is not None:
                j, y = hit
                n = c - j if y == G[1] else c + j
                if first:
                    return n - first
                first = n
        giants += block
        if len(giants) == len(centres):
            return first
        rest = len(centres) - len(giants)
        more = rest > len(giants)  # another block follows this one
        block = _add_many(p, a, [(G, addend) for G in giants[:rest]] + [(addend, addend)] * more)
        addend = block.pop() if more else addend


def _walk_points(curve: FpCurve):
    # The first _ORDER_POINTS points met by x = 0, 1, 2, ..., as tuples.
    points = (point_at_x(curve, x) for x in range(curve.p))
    return islice(((P.x, P.y) for P in points if P is not None), _ORDER_POINTS)


def _kill_cut(curve: FpCurve, P, cands: range) -> range:
    # The candidates n with [n]P = O: the multiples of both steps, or none.
    s = isqrt(4 * curve.p)
    lo, width = curve.p + 1 - s, 2 * s + 1
    step = lcm(cands.step, _kill_step(curve, P, lo, width))
    return range(lo + (-lo) % step, lo + width, step) if step else range(0)


def _multiple_cut(curve: FpCurve, P, cands: set[int]) -> set[int]:
    # The candidates n with [n]P = O, as [t]P = [p + 1]P for t = p + 1 - n:
    # [p + 1]P once, then [|t|]P once per distinct |t|, since [-t]P = -[t]P.
    p = curve.p
    add = partial(_add, p, curve.a)
    Q = double_and_add(add, p + 1, P, (None, None))
    kept = set()
    for t in {abs(p + 1 - n) for n in cands}:
        T = double_and_add(add, t, P, (None, None))
        negT = T if T[0] is None else (T[0], -T[1] % p)
        kept |= {p + 1 - s for s, R in ((t, T), (-t, negT)) if R == Q}
    return cands & kept


def _order_candidates(curve: FpCurve, cands: range | set[int]) -> range | set[int]:
    # Cut by each walked point until at most one candidate is left: a range
    # (the Hasse interval) by kill steps, a set (CM orders) by shared multiples.
    cut = _kill_cut if isinstance(cands, range) else _multiple_cut
    points = _walk_points(curve)
    while len(cands) > 1 and (P := next(points, None)) is not None:
        cands = cut(curve, P, cands)
    return cands


def _twist(curve: FpCurve) -> FpCurve:
    p = curve.p
    g = least_nonresidue(p)
    return FpCurve._at_checked_prime(p, curve.a * g * g, curve.b * g**3)


def _resolve(curve: FpCurve, cands: range | set[int]) -> int:
    # The one order in `cands` left by the curve's points and its twist's,
    # which start from the mirrored orders 2p + 2 - n (the Hasse interval
    # mirrors to itself); else the sweep for p <= 2^16 or an error.
    p = curve.p
    left = _order_candidates(curve, cands)
    if len(left) > 1:
        mirror = cands if isinstance(cands, range) else {2 * p + 2 - n for n in cands}
        twist = _order_candidates(_twist(curve), mirror)
        if len(left) <= len(twist):
            left = [n for n in left if 2 * p + 2 - n in twist]
        else:
            left = [2 * p + 2 - n for n in twist if 2 * p + 2 - n in left]
    if len(left) == 1:
        return next(iter(left))
    if p <= _FALLBACK_LIMIT:
        return count_points_naive(curve)
    raise InternalConsistencyError(f"point counting left {len(left)} candidate orders for {curve}")


def count_points_bsgs(curve: FpCurve) -> int:
    """|E(F_p)| from the whole Hasse interval, whatever j(E) is.

    The curve's and then its quadratic twist's points cut the interval to
    the multiples of their kill steps.  A point's kill step takes baby steps
    [j]P, j <= m ~ sqrt(width / 2), keyed by x, and giant steps of 2m + 1
    that each test both signs, about sqrt(2) fewer group operations than a
    plain table; the baby steps alone give any order up to 2m.  Both walks
    add their steps in blocks that double, with one field inversion per
    block.  If more than one order is left, the sweep decides for
    p <= 2^16 and InternalConsistencyError is raised above.
    """
    s = isqrt(4 * curve.p)
    return _resolve(curve, range(curve.p + 1 - s, curve.p + 2 + s))


def _cm_disc(curve: FpCurve) -> int | None:
    # D with j(E) = j_D mod p, tested as 1728 * 4a^3 = j_D * (4a^3 + 27b^2)
    # so that no inverse is taken.
    p = curve.p
    a3 = 4 * curve.a**3 % p
    num = 1728 * a3 % p
    den = (a3 + 27 * curve.b**2) % p
    for D, j in CM_J_INVARIANTS.items():
        if (num - j * den) % p == 0:
            return D
    return None


def _cm_traces(D: int, p: int) -> set[int]:
    # Every trace of a norm-p element of O_D, at a prime p split in it.  O_D
    # has class number one, so p is a norm: 4p = u^2 + |D| v^2 always has a
    # solution, and Cornacchia finding none is a bug.
    uv = _cornacchia(-D, p)
    if uv is None:
        raise InternalConsistencyError(f"Cornacchia found no 4p = u^2 + {-D} v^2 at the split prime {p}")
    return {t for u, _ in unit_orbit(-D, *uv) for t in (u, -u)}


def _cm_orders(curve: FpCurve) -> set[int] | None:
    # The orders a curve with j(E) = j_D can have, or None without such a D.
    # An inert p makes E supersingular, so a_p = 0 (Deuring, p >= 5).  At a
    # split p, E is ordinary with End(E) = O_D, so Frobenius is a norm-p
    # element of O_D.
    D = _cm_disc(curve)
    if D is None:
        return None
    p = curve.p
    traces = {0} if kronecker_symbol(D, p) == -1 else _cm_traces(D, p)
    return {p + 1 - t for t in traces}


def count_points(curve: FpCurve) -> int:
    """Exact group order |E(F_p)| including the identity.

    The sweep counts for p <= 229.  Up to 2^40 a curve with the j-invariant
    of a class-number-one maximal order is resolved from its CM orders and
    never reaches count_points_bsgs, any other curve from the Hasse interval
    (count_points_bsgs); both routes use the twist and the same fallback.
    Larger p raise UnsupportedModulusError.
    """
    p = curve.p
    if p <= _NAIVE_LIMIT:
        return count_points_naive(curve)
    if p > COUNT_LIMIT:
        raise UnsupportedModulusError(f"point counting supports p <= 2^40, got {p}")
    orders = _cm_orders(curve)
    return count_points_bsgs(curve) if orders is None else _resolve(curve, orders)


def trace_of_frobenius(curve: FpCurve) -> int:
    """a_p = p + 1 - |E(F_p)|, bounded by 2*sqrt(p)."""
    return curve.p + 1 - count_points(curve)


def is_anomalous(curve: FpCurve) -> bool:
    """True iff |E(F_p)| = p, i.e. a_p = 1."""
    return count_points(curve) == curve.p

