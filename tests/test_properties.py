"""Property tests: group laws over F_p and Q, the Jacobian chord modulo p^N
and the affine p-adic group law against the rational one, the certified
precision of the oracle's PadicNumber arithmetic, the generator search against brute
force, the start of the real locus the search sieves, the on-curve test
against Fraction arithmetic, and torsion orders against the oracle."""

import operator
from fractions import Fraction
from math import gcd, isqrt

import pytest

from eczero.errors import DomainError, PrecisionExhaustedError
from eczero.fp import FpCurve, FpPoint, count_points, fp_add, fp_neg, point_at_x
from eczero.localpoints import QpPoint, _jacobian_add
from eczero.rational import (
    Curve,
    QPoint,
    _real_locus_start,
    curve_from_long_weierstrass,
    long_point_to_short,
    q_add,
    q_neg,
    q_scalar_mul,
    torsion_order,
)
from eczero.survey import find_generator

from oracles import PadicNumber, embed_point, generator_oracle, qp_add, torsion_order_oracle

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, reject, settings = hypothesis.given, hypothesis.reject, hypothesis.settings

# derandomized and without an example database: the same examples every run
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

PRIMES = (5, 7, 11, 13, 101, 1009, 65537)
LOCAL_PRIMES = (5, 7, 11, 43)


@st.composite
def fp_points(draw, count):
    p = draw(st.sampled_from(PRIMES))
    a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    if (4 * a**3 + 27 * b**2) % p == 0:
        reject()
    curve = FpCurve(p, a, b)
    points = []
    for _ in range(count):
        x = draw(st.integers(0, p - 1))
        while (P := point_at_x(curve, x)) is None:
            x = (x + 1) % p
        points.append(fp_neg(curve, P) if draw(st.booleans()) else P)
    return curve, points


@st.composite
def q_points(draw):
    """A curve through two integral points with x-coordinates x1 and x1 + 1,
    and a third point [k]P1 + [j]P2 of the group they generate."""
    x1, y1, y2 = draw(st.integers(-30, 30)), draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
    c1, c2 = y1 * y1 - x1**3, y2 * y2 - (x1 + 1) ** 3
    a = c2 - c1
    try:
        curve = Curve(a, c1 - a * x1)
    except DomainError:
        reject()
    P1, P2 = QPoint.from_pair(x1, y1), QPoint.from_pair(x1 + 1, y2)
    k, j = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    return curve, [P1, P2, q_add(curve, q_scalar_mul(curve, k, P1), q_scalar_mul(curve, j, P2))]


@PROPERTY
@given(fp_points(3))
def test_fp_group_law_is_associative_with_inverses(case):
    curve, (P, Q, R) = case
    O = FpPoint.identity()
    assert fp_add(curve, fp_add(curve, P, Q), R) == fp_add(curve, P, fp_add(curve, Q, R))
    assert fp_add(curve, P, fp_neg(curve, P)) == O
    assert fp_add(curve, P, O) == P == fp_add(curve, O, P)


@PROPERTY
@given(q_points())
def test_q_group_law_is_associative_with_inverses(case):
    curve, (P, Q, R) = case
    assert q_add(curve, q_add(curve, P, Q), R) == q_add(curve, P, q_add(curve, Q, R))
    assert q_add(curve, R, q_neg(R)).is_identity
    assert q_add(curve, R, QPoint.identity()) == R


@PROPERTY
@given(q_points(), st.sampled_from(LOCAL_PRIMES), st.integers(0, 2), st.integers(0, 2))
def test_qp_add_agrees_with_q_add_after_embedding(case, p, i, j):
    curve, points = case
    P, Q = points[i], points[j]
    exact = q_add(curve, P, Q)
    try:
        approx = qp_add(curve, embed_point(curve, P, p, 20), embed_point(curve, Q, p, 20))
    except PrecisionExhaustedError:
        reject()  # e.g. P and Q distinct but equal in x mod p^20 with neither y-test decisive
    if exact.is_identity:
        assert approx == QpPoint.identity()
        return
    want = embed_point(curve, exact, p, 40)
    assert approx.x.agrees_with(want.x) and approx.y.agrees_with(want.y)


def _jacobian(point, scale=1):
    """(m s^2, n s^3, e s) for x = m/e^2, y = n/e^3 on an integral model."""
    e = isqrt(point.x.denominator)
    assert e * e == point.x.denominator and e**3 == point.y.denominator
    return point.x.numerator * scale**2, point.y.numerator * scale**3, e * scale


@PROPERTY
@given(
    q_points(),
    st.sampled_from(LOCAL_PRIMES),
    st.integers(0, 2),
    st.sampled_from(["chord", "tangent", "inverse"]),
    st.booleans(),
    st.integers(0, 2),
)
def test_jacobian_add_mod_p_power_agrees_with_q_add(case, p, i, kind, into_e1, s):
    # P written with Z = e p^s, or on request [|E(F_p)|] times an integral
    # point, which lies in E_1 (p | e); Q is another point, P itself or -P
    curve, points = case
    P = points[i]
    if into_e1:
        if curve.discriminant % p == 0:
            reject()
        P = q_scalar_mul(curve, count_points(FpCurve(p, curve.a % p, curve.b % p)), points[i % 2])
    if P.is_identity:
        reject()
    Q = {"chord": points[(i + 1) % 3], "tangent": P, "inverse": q_neg(P)}[kind]
    if Q.is_identity:
        reject()
    mod = p**20
    (X1, Y1, Z1), (X2, Y2, Z2) = _jacobian(P, p**s), _jacobian(Q)
    H, R = X2 * Z1**2 - X1 * Z2**2, Y2 * Z1**3 - Y1 * Z2**3
    if (H and H % mod == 0) or (not H and R and R % mod == 0):
        reject()  # P and Q differ, but not modulo p^20
    X, Y, Z = _jacobian_add(curve.a % mod, mod, (X1 % mod, Y1 % mod, Z1 % mod), (X2 % mod, Y2 % mod, Z2 % mod))
    exact = q_add(curve, P, Q)
    if exact.is_identity:
        assert Z == 0
        return
    m, n, e = _jacobian(exact)
    assert Z % mod != 0
    assert (X * e * e - m * Z * Z) % mod == 0 and (Y * e**3 - n * Z**3) % mod == 0


fractions = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))


@PROPERTY
@given(
    st.sampled_from(LOCAL_PRIMES),
    fractions,
    fractions,
    st.integers(4, 20),
    st.integers(4, 20),
    st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]),
)
def test_padic_arithmetic_never_raises_precision(p, x, y, kx, ky, op):
    # the digits an operation certifies are digits of the exact result, and
    # it certifies no more than its operands carry
    a, b = PadicNumber.from_fraction(x, p, kx), PadicNumber.from_fraction(y, p, ky)
    try:
        result = op(a, b)
    except PrecisionExhaustedError:
        reject()
    assert result.agrees_with(PadicNumber.from_fraction(op(x, y), p, 60))
    if op in (operator.add, operator.sub):
        assert result.abs_precision <= min(a.abs_precision, b.abs_precision)
    elif not result.is_zero:
        assert result.precision <= min(a.precision, b.precision)


@PROPERTY
@given(st.integers(-30, 30), st.integers(-60, 60), st.integers(1, 50))
def test_find_generator_is_the_first_infinite_order_point_of_the_box(a, b, height):
    try:
        curve = Curve(a, b)
    except DomainError:
        reject()
    assert find_generator(curve, height) == generator_oracle(curve, height)


@st.composite
def cubics(draw, kind):
    """(a, b) of a nonsingular x^3 + a x + b: a >= 0, or a < 0 with one real
    root, or three real roots (27 b^2 < -4 a^3)."""
    if kind == "a >= 0":
        a, b = draw(st.integers(0, 10**6)), draw(st.integers(-(10**9), 10**9))
    else:
        a = -draw(st.integers(1, 10**4))
        bound = isqrt(-4 * a**3 // 27)  # |b| <= bound iff 27 b^2 <= -4 a^3
        if kind == "three roots":
            b = draw(st.integers(-bound, bound))
        else:
            b = draw(st.sampled_from((1, -1))) * draw(st.integers(bound + 1, bound + 10**7))
    if 4 * a**3 + 27 * b**2 == 0:
        reject()
    return a, b


@PROPERTY
@given(st.data(), st.sampled_from(["a >= 0", "one real root, a < 0", "three roots"]))
def test_real_locus_start_has_no_point_below_it(data, kind):
    a, b = data.draw(cubics(kind))
    assert (4 * a**3 + 27 * b**2 < 0) == (kind == "three roots")
    R = _real_locus_start(a, b)

    def f(x):
        return x * x * x + a * x + b

    for x in (R - 1, R - 2, R - 10**6, -1 - max(abs(a), abs(b))):
        assert f(x) < 0, (a, b, R, x)
    below = data.draw(st.fractions(max_value=R, max_denominator=10**6).filter(lambda t: t < R))
    assert f(below) < 0 and f(R - Fraction(1, 10**9)) < 0, (a, b, R, below)
    assert f(R) <= 0
    if kind != "three roots":
        # the one real root r1 has R = floor(r1)
        assert f(R + 1) > 0, (a, b, R)
    else:
        # f increases up to -sqrt(-a/3), and R is the last integer of that branch at or below r1
        assert f(R + 1) > 0 or R + 1 > -(isqrt(-a) + 1), (a, b, R)


@st.composite
def rational_points(draw):
    """A point of q_points, which is mostly not integral, or that point with
    x or y moved off the curve by a fraction of any denominator, so x may
    have a denominator that is not a square."""
    curve, points = draw(q_points())
    P = draw(st.sampled_from(points))
    if P.is_identity:
        reject()
    shift = Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 50)))
    move = draw(st.sampled_from(("none", "x", "y")))
    if move == "x":
        return curve, QPoint(P.x + shift, P.y)
    return curve, QPoint(P.x, P.y + shift) if move == "y" else P


@PROPERTY
@given(rational_points())
def test_contains_is_the_curve_equation_over_fractions(case):
    curve, P = case
    assert curve.contains(P) == (P.y**2 == P.x**3 + curve.a * P.x + curve.b)


# Kubert's Tate normal forms y^2 + (1 - c)xy - by = x^3 - bx^2: (b, c) as
# functions of t, with (0, 0) of order N wherever the curve is nonsingular
# (Kubert 1976, Table 3)
KUBERT = {
    4: lambda t: (t, 0),
    5: lambda t: (t, t),
    6: lambda t: (t + t * t, t),
    7: lambda t: (t**3 - t * t, t * t - t),
    8: lambda t: ((2 * t - 1) * (t - 1), (2 * t - 1) * (t - 1) / t),
    9: lambda t: (t * t * (t - 1) * (t * t - t + 1), t * t * (t - 1)),
    10: lambda t: (
        t**3 * (t - 1) * (2 * t - 1) / (t * t - 3 * t + 1) ** 2,
        -t * (t - 1) * (2 * t - 1) / (t * t - 3 * t + 1),
    ),
    12: lambda t: (
        t * (2 * t - 1) * (2 * t * t - 2 * t + 1) * (3 * t * t - 3 * t + 1) / (t - 1) ** 4,
        -t * (2 * t - 1) * (3 * t * t - 3 * t + 1) / (t - 1) ** 3,
    ),
}


def _torsion_point(order: int, t: Fraction) -> tuple[Curve, QPoint]:
    """An integral short model with a point of the given order, from t."""
    if order == 1:
        return Curve(t.numerator, t.denominator), QPoint.identity()
    if order == 2:
        # (0, 0) on y^2 = x (x^2 + r x + s)
        ai = [0, t.numerator, 0, t.denominator, 0]
    elif order == 3:
        # (0, 0) on y^2 + a1 xy + a3 y = x^3
        ai = [t.numerator, 0, t.denominator, 0, 0]
    else:
        b, c = (Fraction(v) for v in KUBERT[order](t))
        # (x, y) -> (x u^2, y u^3) scales a_i by u^i and keeps (0, 0)
        u = b.denominator * c.denominator
        ai = [int(v) for v in ((1 - c) * u, -b * u * u, -b * u**3, 0, 0)]
    return curve_from_long_weierstrass(ai), long_point_to_short(ai, 0, 0)


@PROPERTY
@given(
    st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)),
    st.integers(-15, 15),
    st.integers(1, 6),
    st.integers(1, 13),
)
def test_torsion_order_matches_the_oracle_on_every_mazur_order(order, num, den, k):
    # [k]T has order order / gcd(k, order); the oracle multiplies over Q
    t = Fraction(num, den)
    try:
        curve, T = _torsion_point(order, t)
    except (DomainError, ZeroDivisionError):
        reject()
    assert curve.contains(T)
    assert torsion_order(curve, T) == torsion_order_oracle(curve, T) == order
    Q = q_scalar_mul(curve, k, T)
    assert torsion_order(curve, Q) == torsion_order_oracle(curve, Q) == order // gcd(k, order)
