"""Class-number-one imaginary quadratic field bookkeeping.

CM and splitting tests, the Frobenius-trace test 4p = a^2 + |D| v^2, and
enumeration of anomalous primes (trace-1 representations) and of the
anomalous residue classes of the cubic-twist family y^2 = x^3 + c.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import CM_J_INVARIANTS, is_prime, kronecker_symbol, require_curve_prime
from .errors import DomainError, InternalConsistencyError, UnsupportedModulusError
from .fp import COUNT_LIMIT, FpCurve, is_anomalous
from .rational import Curve

CLASS_NUMBER_ONE_DISCS = tuple(CM_J_INVARIANTS)
# The largest p anomalous_residues_d3 takes.  Its time and output grow as p:
# 0.14 s and 16,110 residues at p = 96,661 on one Xeon vCPU.
RESIDUE_LIMIT = 10**5


@dataclass(frozen=True)
class ImagQuadField:
    """Q(sqrt(D)) for D in the class-number-one list."""

    D: int

    def __post_init__(self):
        if self.D not in CLASS_NUMBER_ONE_DISCS:
            raise DomainError(f"D={self.D} is not a class-number-one discriminant")

    def __str__(self):
        return f"Q(sqrt({self.D}))"


def has_cm(curve: Curve, field: ImagQuadField) -> bool:
    """True iff E/Q has CM by O_D, i.e. j(E) = 1728 * 4a^3 / (4a^3 + 27b^2) is j_D."""
    a3 = 4 * curve.a**3
    return 1728 * a3 == CM_J_INVARIANTS[field.D] * (a3 + 27 * curve.b**2)


def splits_completely(field: ImagQuadField, p: int) -> bool:
    """True iff p >= 5 splits in the field, i.e. (D|p) = 1."""
    require_curve_prime(p)
    return kronecker_symbol(field.D, p) == 1


def is_frobenius_trace(field: ImagQuadField, p: int, a_p: int) -> bool:
    """True iff p splits in the field and 4p - a_p^2 = |D| v^2 for an integer v."""
    if not splits_completely(field, p):
        return False
    v2, r = divmod(4 * p - a_p * a_p, abs(field.D))
    return r == 0 and v2 >= 0 and isqrt(v2) ** 2 == v2


def anomalous_primes(field: ImagQuadField, bound: int) -> list[int]:
    """All primes 5 <= p <= bound with 4p = 1 + |D| v^2, ascending.

    The trace-1 identity forces |D| and v odd, so even discriminants yield
    the empty list; emptiness is established by the enumeration itself
    rather than assumed.  A bound above 2^40 raises UnsupportedModulusError.
    """
    if bound < 5:
        raise DomainError("bound must be >= 5")
    if bound > COUNT_LIMIT:
        raise UnsupportedModulusError(f"anomalous primes are listed for bound <= 2^40, got {bound}")
    d = abs(field.D)
    found = []
    v = 1
    while 1 + d * v * v <= 4 * bound:
        q, r = divmod(1 + d * v * v, 4)
        if r == 0 and q >= 5 and is_prime(q):
            found.append(q)
        v += 1
    return sorted(found)


def anomalous_residues_d3(p: int) -> list[int]:
    """All c in 1..p-1 with |{y^2 = x^3 + c over F_p}| = p, one count per sextic class.

    Valid for anomalous primes p >= 5 of Q(sqrt(-3)), all of them 1 mod 6.
    y^2 = x^3 + c and y^2 = x^3 + c u^6 are isomorphic over F_p, so the
    count depends only on c^((p-1)/6) and one curve per class is counted.
    The returned list must have exactly (p-1)/6 members, anything else is
    an internal bug.  A p above RESIDUE_LIMIT raises UnsupportedModulusError.
    """
    if p > RESIDUE_LIMIT:
        raise UnsupportedModulusError(f"anomalous residues are listed for p <= {RESIDUE_LIMIT}, got {p}")
    field = ImagQuadField(-3)
    if not is_frobenius_trace(field, p, 1):
        raise DomainError(f"p={p} is not an anomalous prime for {field}")
    k = (p - 1) // 6
    anomalous_class: dict[int, bool] = {}
    residues = []
    # is_frobenius_trace has tested p, so each class's curve skips that test
    for c in range(1, p):
        key = pow(c, k, p)
        if key not in anomalous_class:
            anomalous_class[key] = is_anomalous(FpCurve._at_checked_prime(p, 0, c))
        if anomalous_class[key]:
            residues.append(c)
    if len(residues) != k:
        raise InternalConsistencyError(
            f"expected (p-1)/6 = {k} anomalous residues mod {p}, "
            f"found {len(residues)}"
        )
    return residues
