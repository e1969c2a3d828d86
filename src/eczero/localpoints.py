"""Local machinery at a good anomalous prime: the kernel-of-reduction
filtration E_1 of E(Q_p), p-torsion lifting, and the decomposition of a
global point into a formal part and a special-fiber part.

The decomposition of P works on a model that is minimal and anomalous at p:
the reduction barP of P is lifted to the unique Q_p-rational p-torsion
point T0 above it, and F = P - T0 lands in the kernel of reduction.  The
valuation of the formal parameter t = -x/y of F (1 versus >= 2) is the
decision bit consumed by the verdict layer; formal_t_valuation reads it
from [p]P = [p]F without lifting T0.

Every entry reads one checked datum, the ReductionType of
rational.reduction_type(curve, p): it tested p, counted E(F_p) once and
carries the model minimal at p, its scale and its reduction.  _anomalous
checks it good and anomalous; t_valuation_at reads the t-valuation off it.
A survey row and ``eczero verdict --gen`` pass t_valuation_at the datum
the middle-term rule fired on, so they count no point at p again.

P is read as its Jacobian triple (m, n, e), x = m/e^2 and y = n/e^3, which
is exact on the integral minimal model.  A point already in E_1 is its own
formal part: F is (m, n, e), exactly, with t_valuation = v_p(e).
Otherwise F is one Jacobian chord of (m, n, e) and (x(T0), -y(T0), 1) on
integers modulo p^N, with N = precision + MIN_RELATIVE_PRECISION the lift's
precision, so F keeps MIN_RELATIVE_PRECISION digits whenever t <= precision.
Its Z is e^3 (x(T0) - x(P)) with e a unit, so t_valuation = v_p(x(P) - x(T0)).
Either way F = (X/Z^2, Y/Z^3) with X and Y units and Z = p^t u, and one
reporter turns it into PadicNumbers: X u^-2 and Y u^-3 to d digits, shifted
by -2t and -3t.  d is precision + GUARD_DIGITS for the exact triple and
N - t for the chord; fewer than MIN_RELATIVE_PRECISION digits, or Z = 0
modulo p^N, raise PrecisionExhaustedError.

Torsion lifting and formal_t_valuation share one kernel, [p] of an
integral point in Jacobian coordinates modulo p^N (_p_times), and one split
criterion.  [p] maps E_m \\ E_{m+1} onto E_{m+1} \\ E_{m+2}, and maps E_0 \\ E_1
into E_1 \\ E_2 exactly when E_0(Q_p) does not split, i.e. when no
Q_p-rational p-torsion point lies above barP (Silverman, AEC IV.6, VII.2-3).
So v(Z) = 1 raises SplitHypothesisError, and otherwise v(Z) - 1 is the
t-valuation of the formal part.  The lift is Newton on x through [p]: a
point P above barP is T0 + S with S in E_1, t([p]P) = p t(S) to first
order, and dx/2y is dt on E_1 to first order, so x - 2y t([p]P)/p is
x(T0) up to terms of twice the valuation.  v(Z) about doubles each step,
so each step works modulo p^k with k doubling, and y is re-solved from x
on integers modulo p^k by Hensel.  The lift stops at k = precision + 1
with Z = 0 modulo p^k, i.e. v(Z) >= precision + 1, which certifies every
one of its precision digits.

Every coordinate is reported as a PadicNumber, the layer's output value.
A nonzero value is (valuation, unit, precision): it equals
unit * p^valuation modulo p^(valuation + precision), with precision >= 1 and
the unit prime to p and in [1, p^precision).  Zero is a distinct sentinel
"0 mod p^k" carrying only the absolute precision k, as valuation k and
precision 0; comparisons against it are explicit via ``is_zero``.  The
constructor raises DomainError for a value that breaks these invariants.
There is no arithmetic on it: ``_make`` turns a residue into a value with
every digit the residue certifies, and ``_require`` raises
PrecisionExhaustedError for fewer than MIN_RELATIVE_PRECISION digits, where
a caller's digits may be noise rather than a short certified answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from math import isqrt

from .arith import _JACOBIAN_O, _jacobian_add, double_and_add
from .bounds import DEFAULT_PRECISION, MAX_PRECISION
from .errors import (
    DomainError,
    InternalConsistencyError,
    PrecisionExhaustedError,
    SplitHypothesisError,
)
from .fp import FpPoint
from .rational import Curve, QPoint, ReductionType, reduction_type, torsion_order

MIN_RELATIVE_PRECISION = 4
# decompose_point reports a point in E_1 with this many digits past the
# precision asked for.
GUARD_DIGITS = 8
_RETRY_FACTOR = 2
MIN_LIFT_PRECISION = 6


def pval(n: int, p: int) -> int:
    """v_p(n) for n != 0 and p >= 2."""
    if p < 2:
        raise DomainError(f"valuation needs p >= 2, got {p}")
    if n == 0:
        raise DomainError("valuation of exact zero is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class PadicNumber:
    p: int
    valuation: int
    unit: int
    precision: int

    def __post_init__(self):
        p, u, n = self.p, self.unit, self.precision
        if not (u == n == 0 or n >= 1 and 0 < u < p**n and u % p):
            raise DomainError(f"unit {u} at precision {n} is neither 0 at precision 0 nor prime to {p} in [1, {p}^{n})")

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def abs_precision(self) -> int:
        """Exponent k such that the value is known modulo p^k."""
        return self.valuation + self.precision

    @classmethod
    def zero(cls, p: int, abs_precision: int) -> "PadicNumber":
        return cls(p, abs_precision, 0, 0)

    def residue_mod(self, k: int) -> int:
        """The value modulo p^k (p-integral values only, k <= abs_precision)."""
        if k > self.abs_precision:
            raise PrecisionExhaustedError(
                f"value certified only mod p^{self.abs_precision}, asked mod p^{k}"
            )
        if self.is_zero or self.valuation >= k:
            return 0
        if self.valuation < 0:
            raise DomainError("residue of a non-integral value is undefined")
        return self.unit * self.p**self.valuation % self.p**k

    def shift(self, s: int) -> "PadicNumber":
        """Exact multiplication by p^s."""
        return replace(self, valuation=self.valuation + s)

    def digits(self) -> list[int]:
        """Base-p digits of the unit part, least significant first."""
        out = []
        u = self.unit
        for _ in range(self.precision):
            u, r = divmod(u, self.p)
            out.append(r)
        return out

    def __str__(self):
        if self.is_zero:
            return f"O({self.p}^{self.valuation})"
        return f"{self.unit}*{self.p}^{self.valuation} + O({self.p}^{self.abs_precision})"


def _require(n: int, p: int):
    if n < MIN_RELATIVE_PRECISION:
        raise PrecisionExhaustedError(
            f"result would carry {n} < {MIN_RELATIVE_PRECISION} certified {p}-adic digits"
        )


def _make(p: int, residue: int, abs_prec: int) -> PadicNumber:
    residue %= p**abs_prec
    if residue == 0:
        return PadicNumber.zero(p, abs_prec)
    v = pval(residue, p)
    n = abs_prec - v
    return PadicNumber(p, v, (residue // p**v) % p**n, n)


@dataclass(frozen=True)
class QpPoint:
    """Point on E over Q_p with fixed-precision coordinates, or the identity."""

    x: PadicNumber | None
    y: PadicNumber | None

    @classmethod
    def identity(cls) -> "QpPoint":
        return cls(None, None)

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def __str__(self):
        return "O" if self.is_identity else f"({self.x}, {self.y})"


def _anomalous(r: ReductionType, p: int) -> None:
    """Refuse r unless reduction_type verified it good and anomalous at p."""
    if not r.kind.is_good:
        raise DomainError(f"model has bad reduction at {p}")
    if not r.anomalous:
        raise DomainError(f"reduction at {p} is not anomalous")
    if r.reduced is None or r.reduced.p != p:
        raise DomainError(f"reduction at {p} carries no model verified by reduction_type at {p}")


def lift_p_torsion(curve: Curve, p: int, target: FpPoint, precision: int = DEFAULT_PRECISION) -> QpPoint:
    """The p-torsion point T0 of E(Q_p) reducing to `target`.

    Requires a prime p >= 5, an anomalous good model at p and a nonzero
    target, whose coordinates are read mod p.  Raises SplitHypothesisError
    when no Q_p-rational lift exists, and DomainError for a precision below
    MIN_LIFT_PRECISION or above MAX_PRECISION.  The iteration stops once
    [p]T0 = O modulo p^(precision + 1), so all precision digits of T0 are
    certified; it raises no PrecisionExhaustedError.
    """
    _require_bounded(precision)
    r = reduction_type(curve, p)
    if r.scale:
        raise DomainError(f"model has bad reduction at {p}")
    _anomalous(r, p)
    if target.is_identity:
        raise DomainError("target must be a nonzero special-fiber point")
    target = FpPoint(target.x % p, target.y % p)
    if not r.reduced.contains(target):
        raise DomainError(f"{target} is not on the reduction of {curve} mod {p}")
    x, y = _lift_torsion(curve, p, target, precision)
    return QpPoint(_make(p, x, precision), _make(p, y, precision))


def _require_bounded(precision: int) -> None:
    if precision > MAX_PRECISION:
        raise DomainError(f"precision must be <= {MAX_PRECISION}, got {precision}")


def _lift_torsion(curve: Curve, p: int, target: FpPoint, precision: int) -> tuple[int, int]:
    """lift_p_torsion after its checks of curve, prime and target, as the
    residues of T0's coordinates modulo p^precision, by Newton on x
    through [p] (see the module docstring).

    Each step works modulo p^k, with k doubling up to n = precision + 1, and
    re-solves y^2 = x^3 + a x + b modulo p^k on integers, by Hensel from the
    last y.  One Hensel correction is not enough: when x moves by a multiple
    of p, (x, y) lands on a nearby curve, whose torsion point the Newton on
    x then chases.  The Hensel loop ends because y stays a root of g mod p
    and a unit: x keeps its residue mod p (v(Z) >= 2), and E(F_p) has odd
    order p, so no 2-torsion.  An x that left its residue class raises
    InternalConsistencyError before the loop.
    """
    if precision < MIN_LIFT_PRECISION:
        raise DomainError(f"torsion lifting needs precision >= {MIN_LIFT_PRECISION}")
    n = precision + 1
    x, y = target.x, target.y
    k = 2
    steps = n.bit_length() + 2
    for _ in range(steps):
        k = min(2 * k, n)
        mod = p**k
        g = (x * x * x + curve.a * x + curve.b) % mod
        if (y * y - g) % p:
            raise InternalConsistencyError(f"torsion lift above x = {target.x} left its residue class mod {p}")
        while (y * y - g) % mod:
            y = (y - (y * y - g) * pow(2 * y, -1, mod)) % mod
        X, Y, Z = _p_times(curve, p, x, y, k)
        if not Z and k == n:
            return x % p**precision, y % p**precision
        t = -X * Z * pow(Y, -1, mod) % mod
        x = (x - 2 * y * (t // p)) % mod
    raise InternalConsistencyError(f"torsion lift above x = {target.x} did not converge in {steps} steps")


# The Jacobian kernel, (X, Y, Z) for (X/Z^2, Y/Z^3) with Z = 0 for O, is
# arith._jacobian_add, which F_p multiples run modulo p; here it runs
# modulo p^N.


def _p_times(curve: Curve, p: int, x: int, y: int, precision: int) -> tuple[int, int, int]:
    """[p](x, y, 1) in Jacobian coordinates modulo p^precision, precision >= 2;
    (x, y) are the residues of an integral point whose reduction is not O.

    [p] maps the reduction to O, so p divides Z.  v(Z) = 1 means the point
    lies above no p-torsion point of E(Q_p), and raises SplitHypothesisError
    (see the module docstring).
    """
    mod = p**precision
    add = partial(_jacobian_add, curve.a % mod, mod)
    X, Y, Z = double_and_add(add, p, (x % mod, y % mod, 1), _JACOBIAN_O)
    if Z % (p * p):
        raise SplitHypothesisError(f"no {p}-adic torsion lift above x = {x % p}: [{p}]P has t-valuation 1")
    return X, Y, Z


@dataclass(frozen=True)
class Decomposition:
    """P = F + T0 with F in the kernel of reduction and [p]T0 = O.

    ``t_valuation`` is the valuation of the formal parameter of F.
    """

    p: int
    bar_point: FpPoint
    torsion: QpPoint
    formal: QpPoint
    t_valuation: int
    precision: int

    @property
    def formal_nontrivial(self) -> bool:
        """The t_valuation == 1 criterion."""
        return self.t_valuation == 1


def decompose_point(curve: Curve, point: QPoint, p: int, precision: int = DEFAULT_PRECISION) -> Decomposition:
    """Split a global infinite-order point locally at an anomalous prime.

    The point is moved to the model minimal at p, which is integral, and
    certified there by :func:`torsion_order`: a non-integral multiple proves
    infinite order (Nagell-Lutz), and so do 12 integral multiples none of
    which is O (Mazur).  A point of finite order raises DomainError naming
    its order.

    On PrecisionExhaustedError the computation is retried once at doubled
    precision; a second failure propagates.  A precision below 1 or above
    MAX_PRECISION raises DomainError, whichever component the point has; the
    retry may double MAX_PRECISION.
    """
    if precision < 1:
        raise DomainError(f"decomposition needs precision >= 1, got {precision}")
    _require_bounded(precision)
    r = reduction_type(curve, p)
    _anomalous(r, p)
    P = _onto_minimal(r, point, p)
    try:
        return _decompose(r.minimal, P, p, precision)
    except PrecisionExhaustedError:
        return _decompose(r.minimal, P, p, _RETRY_FACTOR * precision)


def formal_t_valuation(curve: Curve, point: QPoint, p: int) -> int:
    """decompose_point(curve, point, p).t_valuation, without lifting T0.

    A point (m/e^2, n/e^3) in E_1 is its own formal part: v_p(e).
    Otherwise [p]P = [p]F, so v(Z) of Jacobian [p]P mod p^N decides, as the
    module docstring says: 1 raises SplitHypothesisError, and v(Z) < N gives
    v(Z) - 1.  N doubles from 4 until v(Z) < N, which ends because P has
    infinite order; a pass at N = 2 could not end it, since v(Z) >= 2 there
    reads as v(Z) = N.  So a t-valuation of 1 or 2 costs one [p].  Other
    errors are decompose_point's.
    """
    return t_valuation_at(reduction_type(curve, p), point, p)


def t_valuation_at(r: ReductionType, point: QPoint, p: int) -> int:
    """formal_t_valuation(curve, point, p) with r = reduction_type(curve, p).

    r must come from reduction_type at this p (a hand-built ReductionType
    carries no model and raises DomainError), and is checked good and
    anomalous; no point at p is counted again.  The point is the caller's,
    so it is still moved onto r's minimal model, checked on it and
    certified of infinite order before the [p].
    """
    _anomalous(r, p)
    m, n, e = _onto_minimal(r, point, p)
    if e % p == 0:
        return pval(e, p)
    precision = 4
    while True:
        u = pow(e, -1, p**precision)
        _, _, Z = _p_times(r.minimal, p, m * u * u, n * u**3, precision)
        vz = pval(Z, p) if Z else precision
        if vz < precision:
            return vz - 1
        precision *= 2


def _onto_minimal(r: ReductionType, point: QPoint, p: int) -> tuple[int, int, int]:
    """The point moved onto r's minimal model (scaled by u = p^r.scale),
    checked on it and certified of infinite order, as its Jacobian triple
    (m, n, e): on an integral model x = m/e^2 and y = n/e^3 in lowest
    terms, exactly."""
    if point.is_identity:
        raise DomainError("decomposition needs a nonzero global point")
    if r.scale:
        u2 = Fraction(1, p ** (2 * r.scale))
        point = QPoint(point.x * u2, point.y * u2 / p**r.scale)
    if not r.minimal.contains(point):
        raise DomainError(f"{point} is not on {r.minimal}")
    order = torsion_order(r.minimal, point)
    if order is not None:
        raise DomainError(f"point has finite order {order}; decomposition needs infinite order")
    return point.x.numerator, point.y.numerator, isqrt(point.x.denominator)


def _decompose(minimal: Curve, P: tuple[int, int, int], p: int, precision: int) -> Decomposition:
    m, n, e = P
    if e % p == 0:
        # P is in E_1, so it is its own formal part, and its triple is exact
        bar, torsion = FpPoint.identity(), QpPoint.identity()
        X, Y, Z = P
        tval, digits = pval(e, p), precision + GUARD_DIGITS
    else:
        # F = P - T0 by one Jacobian chord: Z(F) = e^3 (x(T0) - x(P))
        work = precision + MIN_RELATIVE_PRECISION
        if work < MIN_LIFT_PRECISION:
            least = MIN_LIFT_PRECISION - MIN_RELATIVE_PRECISION
            raise DomainError(f"decomposition outside E_1 needs precision >= {least}, got {precision}")
        bar = FpPoint(m * pow(e, -2, p) % p, n * pow(e, -3, p) % p)
        x0, y0 = _lift_torsion(minimal, p, bar, work)
        mod = p**work
        torsion = QpPoint(_make(p, x0, work), _make(p, y0, work))
        X, Y, Z = _jacobian_add(minimal.a % mod, mod, P, (x0, -y0 % mod, 1))
        if not Z:
            raise PrecisionExhaustedError("formal component vanished at working precision")
        # mod p the chord has H = Z = 0 and R = -2n, a unit, so X = R^2 and
        # Y = -R^3 are units, and F is known to work - v(Z) digits
        tval = pval(Z, p)
        digits = work - tval
    # F = (X/Z^2, Y/Z^3) with X and Y units and Z = p^tval u
    _require(digits, p)
    inv = pow(Z // p**tval, -1, p**digits)
    formal = QpPoint(
        _make(p, X * inv * inv, digits).shift(-2 * tval),
        _make(p, Y * inv**3, digits).shift(-3 * tval),
    )
    return Decomposition(p=p, bar_point=bar, torsion=torsion, formal=formal, t_valuation=tval, precision=precision)


# --- serialization helpers (CLI / survey reports) --------------------------


def padic_to_dict(z: PadicNumber) -> dict:
    if z.is_zero:
        return {"zero": True, "abs_precision": z.abs_precision}
    return {"valuation": z.valuation, "digits": z.digits(), "precision": z.precision}


def qppoint_to_dict(point: QpPoint) -> dict:
    if point.is_identity:
        return {"identity": True}
    return {"x": padic_to_dict(point.x), "y": padic_to_dict(point.y)}


def decomposition_to_dict(dec: Decomposition) -> dict:
    bar = (
        {"identity": True}
        if dec.bar_point.is_identity
        else {"x": dec.bar_point.x, "y": dec.bar_point.y}
    )
    return {
        "p": dec.p,
        "bar_point": bar,
        "torsion": qppoint_to_dict(dec.torsion),
        "formal": qppoint_to_dict(dec.formal),
        "t_valuation": dec.t_valuation,
        "formal_nontrivial": dec.formal_nontrivial,
        "precision": dec.precision,
    }
