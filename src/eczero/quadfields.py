"""Class-number-one imaginary quadratic field bookkeeping.

Splitting tests, Frobenius-trace representations 4p = t^2 + |D| v^2, and
enumeration of anomalous primes (trace-1 representations) and of the
anomalous residue classes of the cubic-twist family y^2 = x^3 + c.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import is_prime, kronecker_symbol, require_curve_prime
from .errors import DomainError, InternalConsistencyError, NoSolutionError
from .fp import FpCurve, is_anomalous

CLASS_NUMBER_ONE_DISCS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)


@dataclass(frozen=True)
class ImagQuadField:
    """Q(sqrt(D)) for D in the class-number-one list."""

    D: int

    def __post_init__(self):
        if self.D not in CLASS_NUMBER_ONE_DISCS:
            raise DomainError(f"D={self.D} is not a class-number-one discriminant")

    def __str__(self):
        return f"Q(sqrt({self.D}))"


@dataclass(frozen=True)
class FrobeniusPair:
    """The conjugate pair (trace +- v*sqrt(D)) / 2 of norm p.

    Which conjugate reduces to the Frobenius is deliberately left open;
    nothing downstream needs the choice, only the trace.
    """

    trace: int
    v: int
    D: int

    @property
    def norm_times_4(self) -> int:
        return self.trace**2 + abs(self.D) * self.v**2


def splits_completely(field: ImagQuadField, p: int) -> bool:
    """True iff p >= 5 splits in the field, i.e. (D|p) = 1."""
    require_curve_prime(p)
    return kronecker_symbol(field.D, p) == 1


def frobenius_candidates(field: ImagQuadField, p: int, a_p: int) -> FrobeniusPair:
    """The trace-a_p element pair with 4p = a_p^2 + |D| v^2.

    Raises NoSolutionError when a_p is not a trace of norm-p elements.
    """
    if not splits_completely(field, p):
        raise NoSolutionError(f"{p} does not split in {field}")
    rest = 4 * p - a_p * a_p
    d = abs(field.D)
    if rest < 0 or rest % d != 0:
        raise NoSolutionError(f"4*{p} - {a_p}^2 is not |D| times a square")
    v2 = rest // d
    v = isqrt(v2)
    if v * v != v2:
        raise NoSolutionError(f"({4 * p} - {a_p}^2)/{d} = {v2} is not a perfect square")
    return FrobeniusPair(trace=a_p, v=v, D=field.D)


def anomalous_primes(field: ImagQuadField, bound: int) -> list[int]:
    """All primes 5 <= p <= bound with 4p = 1 + |D| v^2, ascending.

    The trace-1 identity forces |D| and v odd, so even discriminants yield
    the empty list; emptiness is established by the enumeration itself
    rather than assumed.
    """
    if bound < 5:
        raise DomainError("bound must be >= 5")
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
    """All c in 1..p-1 with |{y^2 = x^3 + c over F_p}| = p, counting each curve.

    Valid for anomalous primes p >= 5 of Q(sqrt(-3)); the returned list
    must have exactly (p-1)/6 members, anything else is an internal bug.
    """
    require_curve_prime(p)
    field = ImagQuadField(-3)
    if p not in anomalous_primes(field, p):
        raise DomainError(f"p={p} is not an anomalous prime for {field}")
    residues = [c for c in range(1, p) if is_anomalous(FpCurve(p, 0, c))]
    if len(residues) != (p - 1) // 6:
        raise InternalConsistencyError(
            f"expected (p-1)/6 = {(p - 1) // 6} anomalous residues mod {p}, "
            f"found {len(residues)}"
        )
    return residues
