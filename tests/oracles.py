"""Independent brute-force oracles used by the test suite.

The point-search oracle tries every x = m/e^2 of the search box one by one.
The torsion-order oracle computes each multiple [m]P, m = 1..12, by its own
double-and-add and never uses integrality.
The decomposition oracle classifies a global point's image in
E(Q_p)/p = (Z/p)^2 by enumerating the classes of a*T0 + b*G1 over a
p-torsion generator T0 and a depth-1 formal point G1, deciding membership
in p*E(Q_p) by "reduces to the identity and the formal parameter has
valuation >= 2".  It never consults decompose_point's F-component path.
"""

from eczero.localpoints import (
    QpPoint,
    embed_point,
    formal_layer_point,
    lift_p_torsion,
    qp_add,
    qp_neg,
    reduce_point,
    t_parameter,
)
from eczero.rational import Curve, QPoint, _minimal_with_scale, q_scalar_mul
from fractions import Fraction
from math import isqrt


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
