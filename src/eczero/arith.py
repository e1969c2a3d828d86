"""Exact integer and modular arithmetic primitives.

Everything here is pure and deterministic: primality is decided by a
Miller-Rabin witness set that is exact for the whole 64-bit range,
square roots / Cornacchia representations are computed with integer
arithmetic only, and one generic double-and-add serves every group law.
"""

from __future__ import annotations

from math import isqrt

from .errors import DomainError, UnsupportedModulusError

# Witnesses making Miller-Rabin deterministic for n < 3.3 * 10^24 (covers 2^64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)

# Squarefree parts of the nine class-number-one discriminants.
SUPPORTED_CORNACCHIA_D = frozenset({3, 4, 7, 8, 11, 19, 43, 67, 163})


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n < 0 or n >= 1 << 64:
        raise UnsupportedModulusError(f"is_prime supports 0 <= n < 2^64, got {n}")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_curve_prime(p: int) -> None:
    """Every local computation needs a prime p >= 5; check it before minimizing a model at p."""
    if p < 5 or not is_prime(p):
        raise DomainError(f"p must be a prime >= 5, got {p}")


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n); equals the Legendre symbol for odd prime n."""
    if n == 0:
        raise DomainError("kronecker_symbol requires n != 0")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    # Factor out powers of two from n: (a|2) is 0 for even a, +-1 by a mod 8.
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    # Jacobi loop with quadratic reciprocity.
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod_p(a: int, p: int) -> int | None:
    """Smaller square root of a modulo an odd prime p, or None for a non-residue.

    Tonelli-Shanks in the general case, with the p % 4 == 3 shortcut.
    """
    a %= p
    if a == 0:
        return 0
    if kronecker_symbol(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # Write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker_symbol(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def _d3_orbit(u: int, v: int, p: int) -> list[tuple[int, int]]:
    # Unit action of Z[zeta_3]: one norm-4p element gives up to three
    # essentially different representations 4p = u^2 + 3 v^2.
    reps = {(abs(u), abs(v))}
    for uu, vv in ((u + 3 * v, u - v), (u - 3 * v, u + v)):
        if uu % 2 == 0 and vv % 2 == 0:
            reps.add((abs(uu) // 2, abs(vv) // 2))
    return [(a, b) for a, b in reps if a * a + 3 * b * b == 4 * p]


def cornacchia(d: int, p: int) -> tuple[int, int] | None:
    """Solve 4p = u^2 + d*v^2 with u, v >= 0 by the modified Euclid descent.

    Supported d are the class-number-one magnitudes.  When several unit-
    equivalent representations exist (d = 3 or 4) the one with smallest u is
    returned, so trace-1 representations appear as (1, v).
    """
    if d not in SUPPORTED_CORNACCHIA_D:
        raise DomainError(f"unsupported Cornacchia coefficient d={d}")
    if p == 2 or not is_prime(p):
        raise DomainError("cornacchia requires an odd prime p")
    D = -d
    if kronecker_symbol(D, p) == -1:
        return None
    x0 = sqrt_mod_p(D % p, p)
    if x0 is None:
        return None
    # Fix parity so that x0^2 = D mod 4p.
    if (x0 - D) % 2 != 0:
        x0 = p - x0
    a, b = 2 * p, x0
    limit = isqrt(4 * p)
    while b > limit:
        a, b = b, a % b
    rem = 4 * p - b * b
    if rem % d != 0:
        return None
    c = rem // d
    t = isqrt(c)
    if t * t != c:
        return None
    u, v = b, t
    if d == 3:
        u, v = min(_d3_orbit(u, v, p))
    elif d == 4:
        # Units +-i swap the two squares of p = (u/2)^2 + v^2.
        alt = (2 * v, u // 2)
        u, v = min((u, v), alt)
    return u, v


def double_and_add(add, k: int, P, zero):
    """[k]P for k >= 0 in the group with addition `add` and identity `zero`.

    Right-to-left binary method: popcount(k) additions and bit_length(k) - 1
    doublings, none after the top bit.  The F_p, Q and Q_p scalar
    multiplications all run this one loop.
    """
    R = zero
    while k:
        if k & 1:
            R = add(R, P)
        k >>= 1
        if k:
            P = add(P, P)
    return R
