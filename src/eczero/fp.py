"""Elliptic curves over prime fields: group law, point counting, traces.

Counting has two routes.  For p <= 229 a sweep reads `arith.squares_mod`.
Above Mestre's bound, 229 < p <= 2^40, a curve with the j-invariant of one
of the nine class-number-one maximal orders O_D has one CM order and walks
no point: p + 1 at an inert p, and at a split p, p + 1 - a_p with a_p read
off Cornacchia's 4p = u^2 + |D| v^2 and residue symbols.  For j = 0
(a = 0) and j = 1728 (b = 0) the sextic or quartic residue symbol of b or
-a (Ireland and Rosen, GTM 84, Ch. 18, Sec. 3 and 4) picks a_p; for the
other seven D, a_p = +-u, and the sign is the quadratic-twist symbol
(c_D a b | p) times the Hecke character's value at (u + v sqrt(D)) / 2
(Stark, 1996; Rubin and Silverberg, 2010; _cm_order).  Any other curve
starts from the Hasse interval, or from its even orders only when
-(4a^3 + 27b^2) is a non-square mod p: then x^3 + a x + b has exactly one
root in F_p (Stickelberger's theorem; Swan, Pacific J. Math. 12, 1962), so
E has a point of order 2, and so has its twist, whose discriminant differs
by a sixth power.  The candidates are always the multiples of one step L
in the interval, and each point P cuts them to the multiples of a larger
one: Q = [L]P walks only the k with L k in the interval, 1/L as many,
and Q's kill step M leaves the multiples of L M.  A kill step comes from
baby-step/giant-step with +- baby steps (Shanks-Mestre; Cohen, GTM 138,
Sec. 7.4): the baby steps [j]Q, j <= m ~ sqrt(width / 2), are keyed by x,
so each giant step of 2m + 1 tests [c]Q = [j]Q and [c]Q = -[j]Q at once.
Both walks add their steps in blocks that double, and each block takes
one field inversion (Montgomery's simultaneous inversion in _add_many, the
one affine addition, which fp_add calls with one pair), about 2 log2(m) in
all where one addition at a time takes 2m.  Every scalar multiple ([L]P,
the first giant step, fp_scalar_mul) runs double-and-add in Jacobian
coordinates (`arith._jacobian_add` modulo p) with one inversion at the
end.  The walk's points cut either start, then the quadratic twist's
points cut the mirrored orders 2p + 2 - n; both starts are their own
mirror, so the twist starts from the same one.  E or its twist always has
a point that leaves one.  If more are left, the sweep decides for
p <= 2^16 and an InternalConsistencyError is raised above, so the returned
order is always exact and no sweep runs past 2^16 steps.

A count tests its prime once: FpCurve tests p when it is built, and
reduction_type, which tests p itself, builds its curve, the twist and the
CM route's Cornacchia call (_norm_form) through private paths that skip
that test; the local layer's entries and anomalous_residues_d3 build
theirs the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from math import isqrt

from .arith import (
    _JACOBIAN_O,
    CM_J_INVARIANTS,
    _cornacchia,
    _jacobian_add,
    double_and_add,
    kronecker_symbol,
    least_nonresidue,
    require_curve_prime,
    sqrt_mod_p,
    squares_mod,
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
        if _delta(self) == 0:
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


def _delta(curve: FpCurve) -> int:
    # 4a^3 + 27b^2 mod p, the negative of the discriminant of x^3 + a x + b:
    # zero for a singular curve; its negative is a non-residue exactly when
    # the cubic has one root in F_p.
    return (4 * curve.a**3 + 27 * curve.b**2) % curve.p


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


def _add_many(p: int, a: int, pairs: list) -> list:
    # [P + Q for P, Q in pairs] by chord and tangent, the one affine addition
    # on F_p, with one field inversion for the whole list (Montgomery's
    # trick; Cohen, GTM 138, Alg. 10.3.4): the forward pass multiplies up the
    # slopes' denominators, the product is inverted once, and the backward
    # pass peels each 1/den off it.  An identity operand or P = -Q needs no
    # denominator.
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


def _mul(p: int, a: int, k: int, P):
    # [k]P for k >= 0 on tuples, by double-and-add in Jacobian coordinates:
    # one field inversion at the end where affine steps take one each.
    if P[0] is None:
        return P
    X, Y, Z = double_and_add(partial(_jacobian_add, a, p), k, (P[0], P[1], 1), _JACOBIAN_O)
    if not Z:
        return (None, None)
    w = pow(Z, -1, p)
    ww = w * w % p
    return (X * ww % p, Y * ww * w % p)


def fp_neg(curve: FpCurve, point: FpPoint) -> FpPoint:
    if point.is_identity:
        return point
    return FpPoint(point.x, (-point.y) % curve.p)


def fp_add(curve: FpCurve, P: FpPoint, Q: FpPoint) -> FpPoint:
    """Chord-tangent addition; the identity is neutral."""
    [(x, y)] = _add_many(curve.p, curve.a, [((P.x, P.y), (Q.x, Q.y))])
    return FpPoint(x, y)


def fp_scalar_mul(curve: FpCurve, k: int, P: FpPoint) -> FpPoint:
    """[k]P by double-and-add in Jacobian coordinates, with one field
    inversion; [0]P = O and [-k]P = -[k]P."""
    if k < 0:
        k, P = -k, fp_neg(curve, P)
    x, y = _mul(curve.p, curve.a, k, (P.x, P.y))
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
    [twice] = _add_many(p, a, [(babies[-1], babies[-1])])
    [stride] = _add_many(p, a, [(twice, P)])
    q, r = divmod(lo + 2 * m, 2 * m + 1)
    G = _mul(p, a, q, stride)
    if r != m:
        x, y = babies[abs(r - m) - 1]
        [G] = _add_many(p, a, [(G, (x, y if r > m else -y % p))])
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
    # The candidates n with [n]P = O, where cands is every multiple of its
    # step L in the Hasse interval [lo, hi].  n = L k has [n]P = O exactly
    # when [k]Q = O for Q = [L]P, so Q's kill step over k in
    # [ceil(lo / L), floor(hi / L)], an interval 1/L as wide, leaves the
    # multiples of L times that step, or none.  Its one-hit rule holds there
    # too: hi / lo < 2 for p > 229.  Q = O keeps every candidate.
    p, L = curve.p, cands.step
    Q = _mul(p, curve.a, L, P)
    if Q[0] is None:
        return cands
    s = isqrt(4 * p)
    lo, hi = p + 1 - s, p + 1 + s
    k = -(-lo // L)
    step = L * _kill_step(curve, Q, k, hi // L - k + 1)
    return range(lo + (-lo) % step, hi + 1, step) if step else range(0)


def _order_candidates(curve: FpCurve, cands: range) -> range:
    # Cut by each walked point's kill step until at most one candidate is left.
    points = _walk_points(curve)
    while len(cands) > 1 and (P := next(points, None)) is not None:
        cands = _kill_cut(curve, P, cands)
    return cands


def _twist(curve: FpCurve) -> FpCurve:
    p = curve.p
    g = least_nonresidue(p)
    return FpCurve._at_checked_prime(p, curve.a * g * g, curve.b * g**3)


def _resolve(curve: FpCurve, cands: range) -> int:
    # The one order in `cands` left by the curve's points and its twist's;
    # else the sweep for p <= 2^16 or an error.  The twist's orders are the
    # mirrored 2p + 2 - n, and both starts (the Hasse interval and its even
    # orders) are their own mirror.
    p = curve.p
    left = _order_candidates(curve, cands)
    if len(left) > 1:
        twist = _order_candidates(_twist(curve), cands)
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
    """|E(F_p)| for p > 229 from the Hasse interval, whatever j(E) is
    (from its even orders alone when -(4a^3 + 27b^2) is a non-square mod p).

    The order is exact: where the points of E and its twist leave more than
    one candidate, the sweep decides for p <= 2^16 and
    InternalConsistencyError is raised above.
    """
    p = curve.p
    s = isqrt(4 * p)
    lo, hi = p + 1 - s, p + 1 + s
    step = 2 if kronecker_symbol(-_delta(curve), p) == -1 else 1
    return _resolve(curve, range(lo + lo % step, hi + 1, step))


def _cm_disc(curve: FpCurve) -> int | None:
    # D with j(E) = j_D mod p, tested as 1728 * 4a^3 = j_D * (4a^3 + 27b^2)
    # so that no inverse is taken.
    p = curve.p
    num = 1728 * 4 * curve.a**3 % p
    den = _delta(curve)
    for D, j in CM_J_INVARIANTS.items():
        if (num - j * den) % p == 0:
            return D
    return None


def _norm_form(D: int, p: int) -> tuple[int, int]:
    # Cornacchia's 4p = u^2 + |D| v^2, u, v >= 0, at a prime p split in O_D.
    # O_D has class number one, so p is a norm: finding none is a bug.
    uv = _cornacchia(-D, p)
    if uv is None:
        raise InternalConsistencyError(f"Cornacchia found no 4p = u^2 + {-D} v^2 at the split prime {p}")
    return uv


def _sextic_trace(p: int, b: int) -> int:
    # a_p of y^2 = x^3 + b at p = 1 mod 3 (Ireland and Rosen, GTM 84,
    # Ch. 18, Sec. 3): N_p = p + 1 + conj(chi) pi + chi conj(pi), so
    # a_p = -Tr(conj(chi) pi), where p = pi conj(pi) with pi = c + d w
    # primary (c = 2, d = 0 mod 3; w = (-1 + sqrt(-3)) / 2) and chi is the
    # sextic residue symbol (4b / pi)_6, the sixth root of unity that is
    # (4b)^((p - 1) / 6) mod pi.  F_p = Z[w] / pi reads w as -c / d.
    u, v = _norm_form(-3, p)
    c, d = (u + v) // 2, v  # pi = (u + v sqrt(-3)) / 2
    while c % 3 != 2 or d % 3:
        c, d = c - d, c  # times the unit 1 + w, a primitive sixth root of 1
    w = -c * pow(d, -1, p) % p
    chi = pow(4 * b, (p - 1) // 6, p)
    while chi != 1:  # times conj(1 + w) = -w until conj(chi) pi
        c, d, chi = d, d - c, chi * -w % p
    return d - 2 * c  # -Tr(c + d w)


def _quartic_trace(p: int, a: int) -> int:
    # a_p of y^2 = x^3 + a x = x^3 - (-a) x at p = 1 mod 4 (Ireland and
    # Rosen, GTM 84, Ch. 18, Sec. 4): N_p = p + 1 - conj(chi) pi - chi
    # conj(pi), so a_p = Tr(conj(chi) pi), where p = pi conj(pi) with
    # pi = c + d i primary ((c, d) = (1, 0) or (3, 2) mod 4) and chi is the
    # quartic residue symbol (-a / pi)_4, the fourth root of unity that is
    # (-a)^((p - 1) / 4) mod pi.  F_p = Z[i] / pi reads i as -c / d.
    u, v = _norm_form(-4, p)
    c, d = u // 2, v  # pi = (u + v sqrt(-4)) / 2
    while (c % 4, d % 4) not in ((1, 0), (3, 2)):
        c, d = -d, c  # times i
    i = -c * pow(d, -1, p) % p
    chi = pow(-a, (p - 1) // 4, p)
    while chi != 1:  # times conj(i) = -i until conj(chi) pi
        c, d, chi = d, -c, chi * -i % p
    return 2 * c  # Tr(c + d i)


# c_D for the seven D whose only units are +-1: (c_D a b | p) is the
# quadratic-twist symbol of _cm_order.  Each was found by search over the
# squarefree products, of either sign, of the primes dividing
# 6 D j_D (j_D - 1728): at every split prime 229 < p < 2500, on the short
# model y^2 = x^3 + 3k x + 2k (1728 - j_D), k = j_D (1728 - j_D), and its
# twist by a non-residue, exactly c_D and the squarefree part of c_D D
# (which has the same symbol at a split p) give the sweep's count.  Every
# prime factor of a c_D is below 229, so the symbol is never 0 above it.
_CM_TWIST_CLASS = {-7: -10, -8: 35, -11: 14, -19: 2, -43: 105, -67: 23870, -163: 619646335}


def _cm_order(curve: FpCurve) -> int | None:
    # |E(F_p)| for a curve with j(E) = j_D, or None without such a D.  An
    # inert p makes E supersingular, so a_p = 0 (Deuring, p >= 5).  At a
    # split p, E is ordinary with End(E) = O_D, so Frobenius is a norm-p
    # element of O_D.  For j = 0 and j = 1728 the residue symbol picks it.
    # For the other seven D, whose only units are +-1, it is +-pi with
    # pi = (u + v sqrt(D)) / 2 for Cornacchia's 4p = u^2 + |D| v^2, so
    # a_p = +-u, and the sign is read off the Hecke character (Stark,
    # "Counting points on CM elliptic curves", Rocky Mountain J. Math. 26,
    # 1996; Rubin and Silverberg, "Choosing the correct elliptic curve in the
    # CM method", Math. Comp. 79, 2010).  One curve E_D with j = j_D has
    # Frobenius eps_D(pi) pi, where eps_D is a quadratic character with
    # eps_D(-pi) = -eps_D(pi), so the product does not depend on the sign of
    # pi.  For odd |D| it is the one such character mod sqrt(D), where
    # pi = u / 2: eps_D(pi) = (u / 2 | |D|) = (2u | |D|).  For D = -8 it is
    # (-2 | u / 2), negated when v = 2 mod 4, a function of pi mod
    # 4 sqrt(-2).  E is the quadratic twist of E_D by some d, which
    # multiplies a_p by (d|p); the twist scales (a, b) to (a d^2, b d^3) and
    # a b by d^5, so (d|p) = (c_D a b | p) for c_D the squarefree class of
    # a b on E_D (_CM_TWIST_CLASS).
    D = _cm_disc(curve)
    if D is None:
        return None
    p = curve.p
    if kronecker_symbol(D, p) == -1:
        return p + 1
    if D == -3:
        return p + 1 - _sextic_trace(p, curve.b)
    if D == -4:
        return p + 1 - _quartic_trace(p, curve.a)
    u, v = _norm_form(D, p)
    if D == -8:
        eps = kronecker_symbol(-2, u // 2) * (-1 if v % 4 == 2 else 1)
    else:
        eps = kronecker_symbol(2 * u, -D)
    return p + 1 - kronecker_symbol(_CM_TWIST_CLASS[D] * curve.a * curve.b, p) * eps * u


def count_points(curve: FpCurve) -> int:
    """Exact group order |E(F_p)| including the identity.

    The sweep counts for p <= 229.  Up to 2^40 a curve with the j-invariant
    of a class-number-one maximal order has one CM order, read off
    Cornacchia's 4p = u^2 + |D| v^2 and residue symbols, so it walks no
    point, builds no twist and never reaches count_points_bsgs; any other
    curve is counted from the Hasse interval (count_points_bsgs).  Larger p
    raise UnsupportedModulusError.
    """
    p = curve.p
    if p <= _NAIVE_LIMIT:
        return count_points_naive(curve)
    if p > COUNT_LIMIT:
        raise UnsupportedModulusError(f"point counting supports p <= 2^40, got {p}")
    order = _cm_order(curve)
    return count_points_bsgs(curve) if order is None else order


def trace_of_frobenius(curve: FpCurve) -> int:
    """a_p = p + 1 - |E(F_p)|, bounded by 2*sqrt(p)."""
    return curve.p + 1 - count_points(curve)


def is_anomalous(curve: FpCurve) -> bool:
    """True iff |E(F_p)| = p, i.e. a_p = 1."""
    return count_points(curve) == curve.p

