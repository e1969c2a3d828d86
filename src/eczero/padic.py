"""Fixed-precision p-adic values: the output form of the local layer.

A nonzero value is (valuation, unit, precision): it equals
unit * p^valuation modulo p^(valuation + precision), with precision >= 1 and
the unit prime to p and in [1, p^precision).  Zero is a distinct sentinel
"0 mod p^k" carrying only the absolute precision k, as valuation k and
precision 0; comparisons against it are explicit via ``is_zero``.  The
constructor raises DomainError for a value that breaks these invariants.

The local layer computes on integers modulo p^N and reports its results
as PadicNumbers; there is no arithmetic on them.  ``_make`` turns a residue
into a value with every digit the residue certifies.  ``_require`` raises
``PrecisionExhaustedError`` for fewer than ``MIN_RELATIVE_PRECISION`` digits,
where a caller's digits may be noise rather than a short certified answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .arith import is_prime
from .errors import DomainError, PrecisionExhaustedError

DEFAULT_PRECISION = 16
MIN_RELATIVE_PRECISION = 4
# The largest precision a caller may ask of the local layer.  A lift's time
# grows about as N^2 at N digits: ~0.5 s at p = 223 and N = 1024 on one Xeon vCPU.
MAX_PRECISION = 1024
# decompose_point reports a point in E_1 with this many digits past the
# precision asked for, and from_fraction converts at most MAX_DIGITS.
GUARD_DIGITS = 8
MAX_DIGITS = MAX_PRECISION + GUARD_DIGITS


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
