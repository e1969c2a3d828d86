"""Independent brute-force oracles used by the test suite.

The point-search oracle tries every x = m/e^2 of the search box one by one.
The torsion-order oracle computes each multiple [m]P, m = 1..12, by its own
double-and-add and never uses integrality.
The generator oracle is the first point of the point-search oracle, in
height order, to which the torsion-order oracle gives no finite order.
The decomposition oracle classifies a global point's image in
E(Q_p)/p = (Z/p)^2 by enumerating the classes of a*T0 + b*G1 over a
p-torsion generator T0 and a depth-1 formal point G1, deciding membership
in p*E(Q_p) by "reduces to the identity and the formal parameter has
valuation >= 2".  It never consults decompose_point's F-component path,
and it adds points by the affine chord-tangent law below (embed_point,
qp_add, t_parameter, ...), which the library does not use: decompose_point
forms F by a Jacobian chord on integers mod p^N.  The law computes on the
oracle's PadicNumber, the library's output value with exact conversion and
interval-style arithmetic added, and its square roots come from the
oracle's newton_lift, a Hensel lift of a simple root of any integer
polynomial.
The division-polynomial oracle expands psi_m as an integer polynomial by
the classical recurrence, whose roots the library's torsion lifts must be.
The point-count oracle tries every (x, y) in F_p^2.
The CM trace oracle reads the trace of y^2 = x^3 + b or y^2 = x^3 + a x
off the norm-p elements of Z[zeta_3] or Z[i] that Cornacchia gives, and
never runs baby-step/giant-step.
The outcome helper runs calls in a fresh interpreter under a timeout, so a
call that loops forever fails its test instead of stalling the suite; the
interpreter can import this module as ``oracles``.
"""

from eczero import localpoints
from eczero.localpoints import (
    DEFAULT_PRECISION, GUARD_DIGITS, MAX_PRECISION, MIN_RELATIVE_PRECISION, QpPoint, _require, lift_p_torsion, pval,
)
from eczero.arith import cornacchia, double_and_add, is_prime, require_curve_prime
from eczero.errors import DomainError, InternalConsistencyError, PrecisionExhaustedError
from eczero.fp import FpCurve, FpPoint, fp_scalar_mul, point_at_x
from eczero.rational import Curve, QPoint, _minimal_with_scale, q_scalar_mul
from fractions import Fraction
from functools import partial
from math import isqrt
from pathlib import Path
import os
import subprocess
import sys

import eczero


def outcomes_within(setup: str, calls: list[str], timeout: float = 10.0) -> list[str]:
    """For each call, in one fresh interpreter after `setup`, the repr of its
    value or the name of the exception it raised.

    A run that does not finish within `timeout` seconds raises
    subprocess.TimeoutExpired.
    """
    code = setup + (
        f"\nfor call in {calls!r}:"
        "\n    try:\n        print(repr(eval(call)))"
        "\n    except Exception as exc:\n        print(type(exc).__name__)"
    )
    src = str(Path(eczero.__file__).resolve().parent.parent)
    here = str(Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, here, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-"], input=code, capture_output=True, text=True, timeout=timeout, env=env, check=True
    )
    return out.stdout.splitlines()


def point_search_oracle(curve: Curve, height: int) -> list[QPoint]:
    """Points with x = m/e^2, |m| <= height, e <= isqrt(height), sorted by naive height."""
    points = set()
    for e in range(1, isqrt(height) + 1):
        for m in range(-height, height + 1):
            t = m**3 + curve.a * m * e**4 + curve.b * e**6
            if t >= 0 and isqrt(t) ** 2 == t:
                x, y = Fraction(m, e * e), Fraction(isqrt(t), e**3)
                points.update({QPoint(x, y), QPoint(x, -y)})
    return sorted(points, key=lambda P: (max(abs(P.x.numerator), P.x.denominator), P.x, P.y))


def torsion_order_oracle(curve: Curve, point: QPoint) -> int | None:
    """Smallest m <= 12 with [m]P = O, else None (Mazur's bound)."""
    for m in range(1, 13):
        if q_scalar_mul(curve, m, point).is_identity:
            return m
    return None


def generator_oracle(curve: Curve, height: int) -> QPoint | None:
    """First point of point_search_oracle(curve, height) of infinite order, or None."""
    return next((P for P in point_search_oracle(curve, height) if torsion_order_oracle(curve, P) is None), None)


# --- p-adic arithmetic, for the affine group law -----------------------------
#
# The library's PadicNumber is an output value without arithmetic, built only
# from a residue.  The oracle's subclass adds exact conversion of a rational
# and interval-style arithmetic: every operation returns the precision its
# operands justify (addition may lose relative digits on cancellation,
# multiplication keeps the minimum), and a result certified to fewer than
# MIN_RELATIVE_PRECISION digits raises PrecisionExhaustedError.  Library
# outputs enter it through as_oracle.

# decompose_point reports a point in E_1 with GUARD_DIGITS past the precision
# asked for, and from_fraction converts at most MAX_DIGITS.
MAX_DIGITS = MAX_PRECISION + GUARD_DIGITS


class NonSimpleRootError(DomainError):
    """Root-lifting started at a root where the derivative vanishes."""


class PadicNumber(localpoints.PadicNumber):
    """A library PadicNumber with from_fraction, + - * /, agrees_with and truncate."""

    @classmethod
    def from_fraction(cls, q, p: int, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        """q to `precision` relative digits, 1 <= precision <= MAX_DIGITS."""
        if p < 2 or not is_prime(p):
            raise DomainError(f"p-adic numbers need a prime p, got {p}")
        if not 1 <= precision <= MAX_DIGITS:
            raise DomainError(f"precision must be between 1 and {MAX_DIGITS}, got {precision}")
        q = Fraction(q)
        if q == 0:
            return cls.zero(p, precision)
        vn = pval(q.numerator, p)
        vd = pval(q.denominator, p)
        num = q.numerator // p**vn
        den = q.denominator // p**vd
        mod = p**precision
        return cls(p, vn - vd, num * pow(den, -1, mod) % mod, precision)

    from_int = from_fraction  # an integer converts as the fraction n/1

    def truncate(self, abs_precision: int) -> "PadicNumber":
        """The same value re-certified at a smaller absolute precision."""
        if abs_precision > self.abs_precision:
            raise PrecisionExhaustedError("cannot truncate upward")
        if self.is_zero or self.valuation >= abs_precision:
            return PadicNumber.zero(self.p, abs_precision)
        n = abs_precision - self.valuation
        return PadicNumber(self.p, self.valuation, self.unit % self.p**n, n)

    def _check(self, other) -> "PadicNumber":
        if isinstance(other, (int, Fraction)):
            return _coerce_exact(other, self.p, self.abs_precision + abs(self.valuation) + 4)
        if not isinstance(other, localpoints.PadicNumber):
            raise DomainError(f"cannot combine PadicNumber with {type(other).__name__}")
        if other.p != self.p:
            raise DomainError("mixed residue characteristics")
        return as_oracle(other)

    def __neg__(self):
        if self.is_zero:
            return self
        return PadicNumber(self.p, self.valuation, (-self.unit) % self.p**self.precision, self.precision)

    def __add__(self, other):
        other = self._check(other)
        va = 0 if self.is_zero else self.valuation
        vb = 0 if other.is_zero else other.valuation
        s = max(0, -min(va, vb))
        if s:
            # clear denominators: add p^s * x and shift back, exactly
            return (self.shift(s) + other.shift(s)).shift(-s)
        abs_prec = min(self.abs_precision, other.abs_precision)
        if abs_prec <= 0:
            raise PrecisionExhaustedError("sum carries no certified digits")
        total = self.residue_mod(abs_prec) + other.residue_mod(abs_prec)
        return _make(self.p, total, abs_prec)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + self._check(other)

    def __mul__(self, other):
        other = self._check(other)
        if self.is_zero or other.is_zero:
            # 0 mod p^k times a value of valuation v is 0 mod p^(k+v)
            k = self.valuation if self.is_zero else other.valuation
            v = other.valuation if self.is_zero else self.valuation
            return PadicNumber.zero(self.p, k + v)
        n = min(self.precision, other.precision)
        _require(n, self.p)
        return PadicNumber(
            self.p,
            self.valuation + other.valuation,
            self.unit * other.unit % self.p**n,
            n,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other.is_zero:
            raise PrecisionExhaustedError(
                f"division by a value indistinguishable from 0 mod p^{other.valuation}"
            )
        if self.is_zero:
            k = self.valuation - other.valuation
            if k < 1:
                raise PrecisionExhaustedError("quotient carries no certified digits")
            return PadicNumber.zero(self.p, k)
        n = min(self.precision, other.precision)
        _require(n, self.p)
        mod = self.p**n
        return PadicNumber(
            self.p,
            self.valuation - other.valuation,
            self.unit * pow(other.unit, -1, mod) % mod,
            n,
        )

    def __rtruediv__(self, other):
        return self._check(other) / self

    def agrees_with(self, other: "PadicNumber") -> bool:
        """True when the two values coincide at their shared precision."""
        other = self._check(other)
        va = 0 if self.is_zero else self.valuation
        vb = 0 if other.is_zero else other.valuation
        s = max(0, -min(va, vb))
        a, b = self.shift(s), other.shift(s)
        k = min(a.abs_precision, b.abs_precision)
        if k <= 0:
            raise PrecisionExhaustedError("values share no certified digits")
        return a.residue_mod(k) == b.residue_mod(k)


def as_oracle(z: localpoints.PadicNumber) -> PadicNumber:
    """A library PadicNumber as the same value with the oracle's arithmetic."""
    return PadicNumber(z.p, z.valuation, z.unit, z.precision)


def _make(p: int, residue: int, abs_prec: int) -> PadicNumber:
    # every value the oracle's arithmetic makes keeps the digit floor
    z = localpoints._make(p, residue, abs_prec)
    if not z.is_zero:
        _require(z.precision, p)
    return as_oracle(z)


def _coerce_exact(value, p: int, abs_prec: int) -> PadicNumber:
    # exact integers/rationals enter at whatever precision the context needs
    q = Fraction(value)
    if q == 0:
        return PadicNumber.zero(p, max(abs_prec, 1))
    v = pval(q.numerator, p) - pval(q.denominator, p)
    rel = max(abs_prec - v, MIN_RELATIVE_PRECISION)
    return PadicNumber.from_fraction(q, p, rel)


def newton_lift(f: list[int], r0: int, p: int, precision: int) -> PadicNumber:
    """The unique root r = r0 (mod p) of f in Z_p, to absolute precision N.

    Requires Hensel's simple-root condition: f(r0) = 0 and f'(r0) != 0
    modulo p.  Precision doubles each Newton step.  N must be at least
    MIN_RELATIVE_PRECISION, the fewest digits a PadicNumber may carry;
    a smaller N raises DomainError.
    """
    if not is_prime(p):
        raise DomainError("newton_lift requires a prime p")
    if precision < MIN_RELATIVE_PRECISION:
        raise DomainError(f"precision must be >= {MIN_RELATIVE_PRECISION}")
    fprime = poly_deriv(f)
    r0 %= p
    if poly_eval(f, r0, p) != 0:
        raise DomainError(f"{r0} is not a root of f modulo {p}")
    if poly_eval(fprime, r0, p) == 0:
        raise NonSimpleRootError("f'(r0) = 0 mod p: Hensel's condition fails")
    x = r0
    k = 1
    while k < precision:
        k = min(2 * k, precision)
        mod = p**k
        d = poly_eval(fprime, x, mod)
        x = (x - poly_eval(f, x, mod) * pow(d, -1, mod)) % mod
    return _make(p, x % p**precision, precision)


# --- the affine group law on E(Q_p), for the decomposition oracle -----------


def embed_point(curve: Curve, point: QPoint, p: int, precision: int = DEFAULT_PRECISION) -> QpPoint:
    """Image of a rational point in E(Q_p) at the given relative precision."""
    require_curve_prime(p)
    if point.is_identity:
        return QpPoint.identity()
    if not curve.contains(point):
        raise DomainError(f"{point} is not on {curve}")
    return QpPoint(
        PadicNumber.from_fraction(point.x, p, precision),
        PadicNumber.from_fraction(point.y, p, precision),
    )


def on_curve(curve: Curve, point: QpPoint) -> bool:
    """Check y^2 = x^3 + ax + b at the precision the coordinates carry."""
    if point.is_identity:
        return True
    x, y = as_oracle(point.x), as_oracle(point.y)
    return (y * y - (x * x * x + x * curve.a + curve.b)).is_zero


def qp_neg(point: QpPoint) -> QpPoint:
    if point.is_identity:
        return point
    return QpPoint(point.x, -as_oracle(point.y))


def qp_add(curve: Curve, P: QpPoint, Q: QpPoint) -> QpPoint:
    """Chord-tangent addition with precision-aware equality decisions."""
    if P.is_identity:
        return Q
    if Q.is_identity:
        return P
    P, Q = (QpPoint(as_oracle(R.x), as_oracle(R.y)) for R in (P, Q))
    dx = Q.x - P.x
    if dx.is_zero:
        dy = Q.y - P.y
        if not dy.is_zero:
            s = Q.y + P.y
            if s.is_zero:
                return QpPoint.identity()
            raise PrecisionExhaustedError(
                "x-coordinates collide at precision but y-coordinates resolve neither"
            )
        # same point at precision: tangent line
        if P.y.is_zero:
            return QpPoint.identity()
        lam = (P.x * P.x * 3 + curve.a) / (P.y * 2)
    else:
        lam = (Q.y - P.y) / dx
    x3 = lam * lam - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return QpPoint(x3, y3)


def qp_scalar_mul(curve: Curve, k: int, P: QpPoint) -> QpPoint:
    """[k]P by double-and-add; [0]P = O and [-k]P = -[k]P."""
    if k < 0:
        k, P = -k, qp_neg(P)
    return double_and_add(partial(qp_add, curve), k, P, QpPoint.identity())


def reduce_point(curve: Curve, point: QpPoint, p: int) -> FpPoint:
    """Reduction map E(Q_p) -> E(F_p) for a model with good reduction at p.

    Points with negative coordinate valuations lie in the kernel of
    reduction and map to the identity; on a good model those valuations can
    only be (-2m, -3m).
    """
    if point.is_identity:
        return FpPoint.identity()
    vx = point.x.valuation if not point.x.is_zero else 0
    vy = point.y.valuation if not point.y.is_zero else 0
    if vx < 0 or vy < 0:
        if point.x.is_zero or point.y.is_zero:
            raise PrecisionExhaustedError("cannot classify a coordinate indistinguishable from 0")
        if vx >= 0 or vy >= 0 or vx % 2 != 0 or 3 * vx != 2 * vy:
            raise InternalConsistencyError(
                f"impossible coordinate valuations ({vx}, {vy}) on a good model"
            )
        return FpPoint.identity()
    return FpPoint(point.x.residue_mod(1), point.y.residue_mod(1))


def t_parameter(curve: Curve, point: QpPoint, p: int) -> PadicNumber:
    """Formal-group parameter t = -x/y of a point in the kernel of reduction.

    Its valuation m >= 1 locates the layer E_m \\ E_{m+1}.
    """
    if point.is_identity:
        raise DomainError("the identity has no formal parameter")
    if not reduce_point(curve, point, p).is_identity:
        raise DomainError("point is not in the kernel of reduction")
    t = -(as_oracle(point.x) / point.y)
    if t.is_zero or t.valuation < 1:
        raise InternalConsistencyError("formal parameter must have valuation >= 1")
    return t


def formal_layer_point(curve: Curve, p: int, layer: int = 1, precision: int = DEFAULT_PRECISION) -> QpPoint:
    """A point of E(Q_p) with t-valuation exactly `layer` (deep in E_1).

    Takes x = p^(-2*layer) and solves for y; on a good model the right-hand
    side is p^(-6*layer) times a 1-unit, so the square root is a plain
    Hensel lift from 1.
    """
    require_curve_prime(p)
    if layer < 1:
        raise DomainError("layer must be >= 1")
    m = layer
    # y = p^(-3m) * sqrt(u), u = 1 + a p^(4m) + b p^(6m)
    u = 1 + curve.a * p ** (4 * m) + curve.b * p ** (6 * m)
    x = PadicNumber.from_fraction(Fraction(1, p ** (2 * m)), p, precision + 2)
    y = newton_lift([-u, 0, 1], 1, p, precision + 2).shift(-3 * m)
    point = QpPoint(x, y)
    if not on_curve(curve, point):
        raise InternalConsistencyError("formal layer point failed the curve equation")
    return point


def in_p_multiples(curve: Curve, D: QpPoint, p: int) -> bool:
    """Membership of D in pE(Q_p) = {identity} u {F in E_1 : v(t(F)) >= 2}."""
    if D.is_identity:
        return True
    if not reduce_point(curve, D, p).is_identity:
        return False
    return t_parameter(curve, D, p).valuation >= 2


def decompose_class_oracle(curve: Curve, point: QPoint, p: int, precision: int = 24):
    """(a, b) with P = a*T0 + b*G1 in E(Q_p)/p; formal part is nontrivial iff b != 0."""
    minimal, scale = _minimal_with_scale(curve, p)
    if scale:
        u2 = Fraction(1, p ** (2 * scale))
        point = QPoint(point.x * u2, point.y * u2 / p**scale)
    P = embed_point(minimal, point, p, precision + 8)
    bar = reduce_point(minimal, P, p)
    seed = bar if not bar.is_identity else None
    if seed is None:
        # any nonzero fiber point will do as the torsion direction
        from eczero.fp import FpCurve, point_at_x

        reduced = FpCurve(p, minimal.a % p, minimal.b % p)
        x = 0
        while (seed := point_at_x(reduced, x)) is None:
            x += 1
    T0 = lift_p_torsion(minimal, p, seed, precision)
    G1 = formal_layer_point(minimal, p, 1, precision)
    A = P
    for a in range(p):
        D = A
        for b in range(p):
            if in_p_multiples(minimal, D, p):
                return a, b
            D = qp_add(minimal, D, qp_neg(G1))
        A = qp_add(minimal, A, qp_neg(T0))
    raise AssertionError("class enumeration failed to locate the point")


def formal_nontrivial_oracle(curve: Curve, point: QPoint, p: int, precision: int = 24) -> bool:
    return decompose_class_oracle(curve, point, p, precision)[1] != 0


def count_points_oracle(p: int, a: int, b: int) -> int:
    """|E(F_p)| for y^2 = x^3 + a x + b: every (x, y) in F_p^2, plus the identity."""
    return 1 + sum((y * y - x * x * x - a * x - b) % p == 0 for x in range(p) for y in range(p))


def cm_trace_oracle(curve: FpCurve, rng, tries: int = 64) -> int:
    """a_p of y^2 = x^3 + b (j = 0) or y^2 = x^3 + a x (j = 1728) over F_p.

    a_p is the trace of a norm-p element: with 4p = u^2 + 3v^2 one of
    +-u, +-(u + 3v)/2, +-(u - 3v)/2, with 4p = u^2 + 4v^2 one of +-u, +-2v,
    and 0 where p is inert.  Candidates t with [p + 1 - t]P != O at a
    random point P are dropped until one is left.
    """
    p = curve.p
    if curve.a == 0:
        if p % 3 == 2:
            return 0
        u, v = cornacchia(3, p)
        traces = {u, (u + 3 * v) // 2, (u - 3 * v) // 2}
    elif curve.b == 0:
        if p % 4 == 3:
            return 0
        u, v = cornacchia(4, p)
        traces = {u, 2 * v}
    else:
        raise DomainError("cm_trace_oracle needs j = 0 or j = 1728")
    candidates = traces | {-t for t in traces}
    for _ in range(tries):
        if len(candidates) == 1:
            return candidates.pop()
        while (P := point_at_x(curve, rng.randrange(p))) is None:
            pass
        candidates = {t for t in candidates if fp_scalar_mul(curve, p + 1 - t, P).is_identity}
    raise AssertionError(f"{tries} points left traces {sorted(candidates)} for {curve}")


# --- expanded division polynomials -----------------------------------------
#
# psi_m is stored through the y-free family P_n: psi_n = P_n for odd n and
# psi_n = 2y * P_n for even n, with y^2 eliminated via f = x^3 + a x + b.
# Polynomials are integer coefficient lists in ascending powers.

Poly = list


def poly_add(u: Poly, v: Poly) -> Poly:
    n = max(len(u), len(v))
    out = [0] * n
    for i, c in enumerate(u):
        out[i] += c
    for i, c in enumerate(v):
        out[i] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_sub(u: Poly, v: Poly) -> Poly:
    return poly_add(u, [-c for c in v])


def poly_mul(u: Poly, v: Poly) -> Poly:
    out = [0] * (len(u) + len(v) - 1)
    for i, ci in enumerate(u):
        if ci == 0:
            continue
        for j, cj in enumerate(v):
            out[i + j] += ci * cj
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_scale(u: Poly, c: int) -> Poly:
    return [c * ci for ci in u]


def poly_degree(u: Poly) -> int:
    d = len(u) - 1
    while d > 0 and u[d] == 0:
        d -= 1
    return d


def poly_eval(u: list[int], x, mod: int | None = None):
    """u(x) by Horner's rule, coefficients in ascending order; reduced mod `mod` if given."""
    acc = 0
    for c in reversed(u):
        acc = acc * x + c
        if mod is not None:
            acc %= mod
    return acc


def poly_deriv(u: list[int]) -> list[int]:
    """Formal derivative, coefficients in ascending order; [0] for a constant."""
    if len(u) <= 1:
        return [0]
    return [i * c for i, c in enumerate(u)][1:]


class _DivisionPolynomials:
    """Cache of the y-free division polynomial family for one curve."""

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b
        f = [b, a, 0, 1]
        self.f = f
        self.cache: dict[int, Poly] = {
            0: [0],
            1: [1],
            2: [1],
            3: [-a * a, 12 * b, 6 * a, 0, 3],
            4: poly_scale(
                [-(a**3) - 8 * b * b, -4 * a * b, -5 * a * a, 20 * b, 5 * a, 0, 1], 2
            ),
        }
        self.f_sq = poly_mul(f, f)

    def get(self, n: int) -> Poly:
        if n in self.cache:
            return self.cache[n]
        m = n // 2
        if n % 2 == 1:
            t1 = poly_mul(self.get(m + 2), poly_mul(self.get(m), poly_mul(self.get(m), self.get(m))))
            t2 = poly_mul(self.get(m - 1), poly_mul(self.get(m + 1), poly_mul(self.get(m + 1), self.get(m + 1))))
            if m % 2 == 0:
                out = poly_sub(poly_scale(poly_mul(self.f_sq, t1), 16), t2)
            else:
                out = poly_sub(t1, poly_scale(poly_mul(self.f_sq, t2), 16))
        else:
            t1 = poly_mul(self.get(m + 2), poly_mul(self.get(m - 1), self.get(m - 1)))
            t2 = poly_mul(self.get(m - 2), poly_mul(self.get(m + 1), self.get(m + 1)))
            out = poly_mul(self.get(m), poly_sub(t1, t2))
        self.cache[n] = out
        return out


def division_polynomial(curve: Curve, m: int) -> Poly:
    """psi_m as a univariate integer polynomial (odd m >= 3), ascending powers.

    Its degree is (m^2 - 1)/2 and its roots are the x-coordinates of the
    nonzero m-torsion points.
    """
    if m < 3 or m % 2 == 0:
        raise DomainError("division_polynomial is defined here for odd m >= 3")
    return _DivisionPolynomials(curve.a, curve.b).get(m)
