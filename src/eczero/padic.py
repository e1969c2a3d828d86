"""Fixed-precision p-adic scalars with explicit precision accounting.

A nonzero value is (valuation, unit, precision): it equals
unit * p^valuation modulo p^(valuation + precision), with the unit coprime
to p.  Zero is a distinct sentinel "0 mod p^k" carrying only the absolute
precision k; comparisons against it are explicit via ``is_zero``.

Every operation returns the precision actually justified by its operands
(interval-style accounting: addition may lose relative digits on
cancellation, multiplication keeps the minimum).  A result that would be
certified to fewer than ``MIN_RELATIVE_PRECISION`` digits raises
``PrecisionExhaustedError`` instead of flowing on as noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime
from .errors import DomainError, NonSimpleRootError, PrecisionExhaustedError

DEFAULT_PRECISION = 16
MIN_RELATIVE_PRECISION = 4


def pval(n: int, p: int, cap: int | None = None) -> int:
    """v_p(n) for n != 0 and p >= 2; with a cap, min(v_p(n), cap) and v(0) = cap."""
    if p < 2:
        raise DomainError(f"valuation needs p >= 2, got {p}")
    if n == 0:
        if cap is None:
            raise DomainError("valuation of exact zero is infinite")
        return cap
    v = 0
    while n % p == 0:
        n //= p
        v += 1
        if cap is not None and v >= cap:
            return cap
    return v


@dataclass(frozen=True)
class PadicNumber:
    p: int
    valuation: int
    unit: int
    precision: int

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def abs_precision(self) -> int:
        """Exponent k such that the value is known modulo p^k."""
        if self.is_zero:
            return self.valuation
        return self.valuation + self.precision

    @classmethod
    def zero(cls, p: int, abs_precision: int) -> "PadicNumber":
        return cls(p, abs_precision, 0, 0)

    @classmethod
    def from_fraction(cls, q, p: int, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        if p < 2 or not is_prime(p):
            raise DomainError(f"p-adic numbers need a prime p, got {p}")
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

    # -- representation helpers ------------------------------------------

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

    def truncate(self, abs_precision: int) -> "PadicNumber":
        """The same value re-certified at a smaller absolute precision."""
        if abs_precision > self.abs_precision:
            raise PrecisionExhaustedError("cannot truncate upward")
        if self.is_zero or self.valuation >= abs_precision:
            return PadicNumber.zero(self.p, abs_precision)
        n = abs_precision - self.valuation
        return PadicNumber(self.p, self.valuation, self.unit % self.p**n, n)

    def shift(self, s: int) -> "PadicNumber":
        """Exact multiplication by p^s."""
        if self.is_zero:
            return PadicNumber.zero(self.p, self.valuation + s)
        return PadicNumber(self.p, self.valuation + s, self.unit, self.precision)

    def digits(self) -> list[int]:
        """Base-p digits of the unit part, least significant first."""
        if self.is_zero:
            return []
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

    # -- arithmetic -------------------------------------------------------

    def _check(self, other) -> "PadicNumber":
        if isinstance(other, (int, Fraction)):
            return _coerce_exact(other, self.p, self.abs_precision + abs(self.valuation) + 4)
        if not isinstance(other, PadicNumber):
            raise DomainError(f"cannot combine PadicNumber with {type(other).__name__}")
        if other.p != self.p:
            raise DomainError("mixed residue characteristics")
        return other

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
    _require(n, p)
    return PadicNumber(p, v, (residue // p**v) % p**n, n)


def _coerce_exact(value, p: int, abs_prec: int) -> PadicNumber:
    # exact integers/rationals enter at whatever precision the context needs
    q = Fraction(value)
    if q == 0:
        return PadicNumber.zero(p, max(abs_prec, 1))
    v = pval(q.numerator, p) - pval(q.denominator, p)
    rel = max(abs_prec - v, MIN_RELATIVE_PRECISION)
    return PadicNumber.from_fraction(q, p, rel)


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
