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
valuation >= 2".  It never consults decompose_point's F-component path.
The division-polynomial oracle expands psi_m as an integer polynomial by
the classical recurrence, for checking the library's pointwise evaluator.
The point-count oracle tries every (x, y) in F_p^2.
The CM trace oracle reads the trace of y^2 = x^3 + b or y^2 = x^3 + a x
off the norm-p elements of Z[zeta_3] or Z[i] that Cornacchia gives, and
never runs baby-step/giant-step.
The outcome helper runs calls in a fresh interpreter under a timeout, so a
call that loops forever fails its test instead of stalling the suite.
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
from eczero.arith import cornacchia
from eczero.errors import DomainError
from eczero.fp import FpCurve, fp_scalar_mul, point_at_x
from eczero.rational import Curve, QPoint, _minimal_with_scale, q_scalar_mul
from fractions import Fraction
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
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
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
