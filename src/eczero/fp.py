"""Elliptic curves over prime fields: group law, point counting, traces.

Counting is dual-route.  For p <= 229 a table-driven sweep counts points.
Above Mestre's bound, 229 < p <= 2^40, baby-step/giant-step order finding
with quadratic-twist disambiguation does: there E or its twist always has
a point whose order has a unique multiple in the Hasse interval.  If BSGS
still finds more than one order, the sweep decides for p <= 2^16; above
that an InternalConsistencyError is raised, so the returned order is
always exact and no route runs a sweep of more than 2^16 steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import isqrt, lcm

from .arith import double_and_add, kronecker_symbol, require_curve_prime, sqrt_mod_p
from .errors import DomainError, InternalConsistencyError, UnsupportedModulusError

# Mestre's bound (J.-F. Mestre; R. Schoof, "Counting points on elliptic
# curves over finite fields", J. Theor. Nombres Bordeaux 7, 1995): for
# p > 229, E or its quadratic twist has a point whose order has exactly one
# multiple in the Hasse interval, so BSGS with the twist determines |E(F_p)|.
_NAIVE_LIMIT = 229
# Largest p at which an ambiguous BSGS result may fall back to the sweep
# (about 30 ms); above it the ambiguity is raised as a bug.
_FALLBACK_LIMIT = 1 << 16
# Most points of a curve (and again of its twist) whose orders BSGS intersects.
_ORDER_POINTS = 24
_BSGS_LIMIT = 1 << 40


@dataclass(frozen=True)
class FpCurve:
    """Nonsingular curve y^2 = x^3 + a*x + b over F_p with p >= 5."""

    p: int
    a: int
    b: int

    def __post_init__(self):
        require_curve_prime(self.p)
        object.__setattr__(self, "a", self.a % self.p)
        object.__setattr__(self, "b", self.b % self.p)
        if (4 * self.a**3 + 27 * self.b**2) % self.p == 0:
            raise DomainError("singular curve: 4a^3 + 27b^2 = 0 mod p")

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


def _qr_table(p: int) -> bytearray:
    # table[t] = 1 iff t is a nonzero square mod p
    table = bytearray(p)
    s = 0
    for i in range(1, (p - 1) // 2 + 1):
        s = (s + 2 * i - 1) % p  # i^2 = (i-1)^2 + 2i - 1
        table[s] = 1
    return table


def count_points_naive(curve: FpCurve) -> int:
    """|E(F_p)| by a full x-sweep with a precomputed residue table."""
    p, a, b = curve.p, curve.a, curve.b
    qr = _qr_table(p)
    total = p + 1
    for x in range(p):
        t = (x * x % p * x + a * x + b) % p
        if t == 0:
            continue
        total += 1 if qr[t] else -1
    return total


def _kill_values(curve: FpCurve, P, lo: int, width: int) -> range | set[int]:
    # All n in [lo, lo + width) with [n]P = O.  A small order comes back as
    # the progression of its multiples, which may hold millions of numbers.
    p = curve.p
    add = partial(_add, p, curve.a)
    m = isqrt(width) + 1
    table: dict[tuple, int] = {}
    R = (None, None)
    for j in range(m):
        if R in table:
            # Walk revisited a point: ord(P) = j - table[R] (= j, since R
            # first repeats at the identity).
            order = j - table[R]
            return range(lo + (-lo) % order, lo + width, order)
        table[R] = j
        R = add(R, P)
    hits = set()
    base = double_and_add(add, lo, P, (None, None))
    stride = double_and_add(add, m, P, (None, None))
    G = base
    i = 0
    while i * m < width:
        # [lo + i*m + j]P = O  <=>  [j]P = -G
        negG = (G[0], (-G[1]) % p) if G[0] is not None else G
        j = table.get(negG)
        if j is not None and i * m + j < width:
            hits.add(lo + i * m + j)
        G = add(G, stride)
        i += 1
    return hits


def _intersect(u: range | set[int], v: range | set[int], lo: int, width: int) -> range | set[int]:
    # Every range here holds all multiples of its step in [lo, lo + width).
    if isinstance(u, range) and isinstance(v, range):
        step = lcm(u.step, v.step)
        return range(lo + (-lo) % step, lo + width, step)
    small, big = (u, v) if len(u) <= len(v) else (v, u)
    return {n for n in small if n in big}


def _order_candidates(curve: FpCurve, lo: int, width: int) -> range | set[int]:
    cands: range | set[int] | None = None
    tried = 0
    x = 0
    while tried < _ORDER_POINTS and x < curve.p:
        P = point_at_x(curve, x)
        x += 1
        if P is None:
            continue
        tried += 1
        hits = _kill_values(curve, (P.x, P.y), lo, width)
        cands = hits if cands is None else _intersect(cands, hits, lo, width)
        if len(cands) <= 1:
            break
    return cands if cands is not None else set()


def _twist(curve: FpCurve) -> FpCurve:
    p = curve.p
    g = 2
    while kronecker_symbol(g, p) != -1:
        g += 1
    return FpCurve(p, curve.a * g * g % p, curve.b * g**3 % p)


def count_points_bsgs(curve: FpCurve) -> int:
    """|E(F_p)| by BSGS order finding over the Hasse interval.

    Ambiguities are resolved against the quadratic twist (the two orders
    sum to 2p + 2), which always suffices above Mestre's bound p > 229 once
    the sampled points' orders reach the group exponent.  If a unique order
    still cannot be certified, the naive sweep decides for p <= 2^16; above
    that an InternalConsistencyError names the curve.
    """
    p = curve.p
    s = isqrt(4 * p)
    lo = p + 1 - s
    width = 2 * s + 1
    cands = _order_candidates(curve, lo, width)
    if len(cands) == 1:
        return next(iter(cands))
    twist_cands = _order_candidates(_twist(curve), lo, width)
    if len(cands) <= len(twist_cands):
        pairs = [n for n in cands if 2 * p + 2 - n in twist_cands]
    else:
        pairs = [2 * p + 2 - n for n in twist_cands if 2 * p + 2 - n in cands]
    if len(pairs) == 1:
        return pairs[0]
    if p <= _FALLBACK_LIMIT:
        return count_points_naive(curve)
    raise InternalConsistencyError(
        f"BSGS left {len(pairs)} candidate orders for {curve} with its twist"
    )


def count_points(curve: FpCurve) -> int:
    """Exact group order |E(F_p)| including the identity."""
    if curve.p <= _NAIVE_LIMIT:
        return count_points_naive(curve)
    if curve.p <= _BSGS_LIMIT:
        return count_points_bsgs(curve)
    raise UnsupportedModulusError(f"point counting supports p <= 2^40, got {curve.p}")


def trace_of_frobenius(curve: FpCurve) -> int:
    """a_p = p + 1 - |E(F_p)|, bounded by 2*sqrt(p)."""
    return curve.p + 1 - count_points(curve)


def is_anomalous(curve: FpCurve) -> bool:
    """True iff |E(F_p)| = p, i.e. a_p = 1."""
    return count_points(curve) == curve.p

