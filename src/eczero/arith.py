"""Exact integer and modular arithmetic primitives.

Everything here is pure and deterministic: primality is decided by
trial division below 61^2 and above it by Miller-Rabin with the first k
prime witnesses, k the least with n < psi_k (OEIS A014233; Jaeschke,
Math. Comp. 61, 1993), which is exact for the whole 64-bit range.
Square roots / Cornacchia representations are computed with integer
arithmetic only, and one generic double-and-add serves every group law.
The Jacobian addition that runs under it for F_p multiples and for the
local layer's [p] mod p^N lives here too, beside it.  The residue table,
the non-residue search and the unit orbit of 4p = u^2 + d v^2 have one
copy each, shared by every caller.
"""

from __future__ import annotations

from math import isqrt

from .errors import DomainError, InternalConsistencyError, UnsupportedModulusError

# The first twelve primes as Miller-Rabin witnesses, and psi_k (OEIS A014233;
# Jaeschke, Math. Comp. 61, 1993): the least odd composite that passes the
# test to each of the first k of them, so those k decide every n < psi_k.
# psi_12 ~ 3.2 * 10^23 lies past 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUNDS = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
    318665857834031151167461,
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)

# j-invariants of the elliptic curves with CM by the nine class-number-one
# maximal orders O_D, keyed by the discriminant D (Cox, Primes of the Form
# x^2 + ny^2, Sec. 12-13).  The key order is the order every list of D uses.
CM_J_INVARIANTS = {
    -3: 0,
    -4: 1728,
    -7: -3375,
    -8: 8000,
    -11: -32768,
    -19: -884736,
    -43: -884736000,
    -67: -147197952000,
    -163: -262537412640768000,
}

# |D| for the nine class-number-one discriminants.
SUPPORTED_CORNACCHIA_D = frozenset(-D for D in CM_J_INVARIANTS)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64.

    Trial division by the primes up to 59 decides every n < 61^2, since a
    composite below 61^2 has a prime factor of at most 59.  Miller-Rabin
    decides the rest with the first k prime witnesses, stopping once
    n < psi_k (A014233): 2 witnesses below 1373653, 4 below 3215031751,
    5 below 2.15 * 10^12 and all 12 from 3.8 * 10^18 to 2^64.
    """
    if n < 0 or n >= 1 << 64:
        raise UnsupportedModulusError(f"is_prime supports 0 <= n < 2^64, got {n}")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n < 61 * 61:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, bound in zip(_MR_WITNESSES, _MR_BOUNDS):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < bound:
            return True
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


def squares_mod(n: int) -> bytes:
    """Table of the squares mod n >= 1: table[t] = 1 iff t = x^2 mod n, 0 included."""
    table = bytearray(n)
    for x in range(n // 2 + 1):
        table[x * x % n] = 1
    return bytes(table)


def least_nonresidue(p: int) -> int:
    """Least z >= 2 with (z|p) = -1 for an odd prime p; a (z|p) = 0 raises DomainError."""
    z = 2
    while (k := kronecker_symbol(z, p)) == 1:
        z += 1
    if k == 0:
        raise DomainError(f"least_nonresidue requires an odd prime, got {p}")
    return z


def sqrt_mod_p(a: int, p: int) -> int | None:
    """Smaller square root of a modulo an odd prime p, or None for a non-residue.

    Tonelli-Shanks in the general case, with the p % 4 == 3 shortcut.
    DomainError for p < 3, or when (a|p) = 0, no non-residue or r^2 != a
    shows p composite.
    """
    if p < 3:
        raise DomainError(f"sqrt_mod_p requires an odd prime modulus, got {p}")
    a %= p
    if a == 0:
        return 0
    k = kronecker_symbol(a, p)
    if k == -1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        # Write p - 1 = q * 2^s with q odd.
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        c = pow(least_nonresidue(p), q, p)
        r = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            i, t2 = 0, t
            while t2 != 1 and i < m:
                t2 = t2 * t2 % p
                i += 1
            if i == m:  # only for a composite p
                break
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            c = b * b % p
            t = t * c % p
            m = i
    if k == 0 or r * r % p != a:
        raise DomainError(f"sqrt_mod_p requires an odd prime modulus, got {p}")
    return min(r, p - r)


def unit_orbit(d: int, u: int, v: int) -> set[tuple[int, int]]:
    """(|u'|, |v'|) for the unit multiples (u' + v' sqrt(-d))/2 of (u + v sqrt(-d))/2.

    From one 4p = u^2 + d v^2, its unit-equivalent forms: three for d = 3, where
    u = v mod 2 makes the halvings exact, two for d = 4, one otherwise.
    """
    u, v = abs(u), abs(v)
    if d == 3:  # times zeta_3 = (-1 + sqrt(-3))/2 and zeta_3^2
        return {(u, v), ((u + 3 * v) // 2, abs(u - v) // 2), (abs(u - 3 * v) // 2, (u + v) // 2)}
    return {(u, v), (2 * v, u // 2)} if d == 4 else {(u, v)}


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
    return _cornacchia(d, p)


def _cornacchia(d: int, p: int) -> tuple[int, int] | None:
    # cornacchia for a supported d and an odd prime p its caller has checked.
    D = -d
    x0 = sqrt_mod_p(D % p, p)
    if x0 is None:  # (D|p) = -1
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
    return min(unit_orbit(d, b, t))


def double_and_add(add, k: int, P, zero):
    """[k]P for k >= 0 in the group with addition `add` and identity `zero`.

    Right-to-left binary method: popcount(k) additions and bit_length(k) - 1
    doublings, none after the top bit.  The F_p multiples (on
    _jacobian_add modulo p), the Q scalar multiplication and the local
    layer's Jacobian [p] mod p^N all run this one loop.  Every caller
    passes k >= 0 by construction, so a negative k, on which k >>= 1 would
    stay at -1 for ever, raises InternalConsistencyError.
    """
    if k < 0:
        raise InternalConsistencyError(f"[k]P needs k >= 0, got {k}")
    R = zero
    while k:
        if k & 1:
            R = add(R, P)
        k >>= 1
        if k:
            P = add(P, P)
    return R


# Jacobian coordinates: (X, Y, Z) stands for (X/Z^2, Y/Z^3); Z = 0 is O.
_JACOBIAN_O = (1, 1, 0)


def _jacobian_add(a: int, mod: int, P: tuple[int, int, int], Q: tuple[int, int, int]) -> tuple[int, int, int]:
    """P + Q on y^2 = x^3 + a x + b modulo `mod`, by the chord or, for two
    points that agree modulo `mod`, the tangent (Cohen-Frey et al., Handbook
    of Elliptic and Hyperelliptic Curve Cryptography, 13.2.1).  No inversion:
    modulo a prime p it is the group law of E(F_p), modulo p^N the local
    layer's [p]."""
    X1, Y1, Z1 = P
    if not Z1:
        return Q
    X2, Y2, Z2 = Q
    if not Z2:
        return P
    Z1Z1 = Z1 * Z1 % mod
    if P != Q:
        Z2Z2 = Z2 * Z2 % mod
        U1 = X1 * Z2Z2 % mod
        S1 = Y1 * Z2 * Z2Z2 % mod
        H = (X2 * Z1Z1 - U1) % mod
        R = (Y2 * Z1 * Z1Z1 - S1) % mod
        if H:
            HH = H * H % mod
            HHH = H * HH % mod
            V = U1 * HH % mod
            X3 = (R * R - HHH - 2 * V) % mod
            return X3, (R * (V - X3) - S1 * HHH) % mod, Z1 * Z2 * H % mod
        if R:
            return _JACOBIAN_O
    YY = Y1 * Y1 % mod
    S = 4 * X1 * YY % mod
    M = (3 * X1 * X1 + a * Z1Z1 * Z1Z1) % mod
    X3 = (M * M - 2 * S) % mod
    return X3, (M * (S - X3) - 8 * YY * YY) % mod, 2 * Y1 * Z1 % mod
