"""Differential tests of the exact kernels against sympy.

sympy is an independent implementation, not a dependency of eczero: the
module is skipped where it is not installed.
"""

import random

import pytest

from eczero.arith import is_prime, kronecker_symbol, sqrt_mod_p
from eczero.fp import FpCurve, count_points

from oracles import newton_lift

sympy = pytest.importorskip("sympy")
EllipticCurve = pytest.importorskip("sympy.ntheory.elliptic_curve").EllipticCurve

# The smallest strong pseudoprimes to all of the first 1, 2, 3, 4, 5, 6, 7
# and 9 prime bases (OEIS A014233); the last passes every base up to 31.
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051,
)


def test_sqrt_mod_p_matches_sympy():
    # every residue at small primes (both Tonelli-Shanks and the p = 3 mod 4
    # shortcut), then random residues at primes up to 2^40
    for p in sympy.primerange(3, 200):
        for a in range(p):
            assert sqrt_mod_p(a, p) == sympy.sqrt_mod(a, p), (a, p)
    rng = random.Random(11)
    for _ in range(300):
        p = sympy.nextprime(rng.randrange(3, 1 << rng.choice((12, 40))))
        a = rng.randrange(p)
        assert sqrt_mod_p(a, p) == sympy.sqrt_mod(a, p), (a, p)


def test_newton_lift_square_roots_match_sympy():
    rng = random.Random(12)
    primes = list(sympy.primerange(3, 1010))
    for _ in range(300):
        p = rng.choice(primes)
        k = rng.randrange(4, 12)  # newton_lift certifies at least 4 digits
        y0 = rng.randrange(1, p)
        g = y0 * y0 + p * rng.randrange(p**k)  # a unit square mod p^k
        r = newton_lift([-g, 0, 1], y0, p, k).residue_mod(k)
        assert r % p == y0 and (r * r - g) % p**k == 0, (g, y0, p, k)
        assert r in sympy.sqrt_mod(g, p**k, all_roots=True), (g, y0, p, k)


def test_count_points_matches_sympy():
    # sympy counts affine points only: y^2 = x^3 + 5 over F_7 has 6 and the identity
    assert EllipticCurve(0, 5, modulus=7).order == 6
    assert count_points(FpCurve(7, 0, 5)) == 7
    # both counting routes: the sweep for p <= 229, BSGS above
    rng = random.Random(13)
    cases = [(p, 3) for p in sympy.primerange(5, 100)] + [(p, 1) for p in (233, 251, 307)]
    for p, n in cases:
        for _ in range(n):
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            assert count_points(FpCurve(p, a, b)) == EllipticCurve(a, b, modulus=p).order + 1, (p, a, b)


def test_is_prime_matches_sympy_near_2_64():
    for n in STRONG_PSEUDOPRIMES:
        assert not is_prime(n) and not sympy.isprime(n), n
    top = 1 << 64
    rng = random.Random(14)
    cases = list(range(top - 2000, top))
    cases += [rng.randrange(top >> 1, top) for _ in range(2000)]
    # semiprimes of two ~32-bit primes, where a weak witness set would slip
    for _ in range(200):
        q = sympy.nextprime(rng.randrange(1 << 31, 1 << 32))
        r = sympy.nextprime(rng.randrange(1 << 31, (top - 1) // q))
        cases.append(q * r)
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


def test_kronecker_symbol_matches_sympy_jacobi():
    rng = random.Random(15)
    # every residue, negative ones included, for small odd n
    for n in range(1, 150, 2):
        for a in range(-n - 2, n + 3):
            assert kronecker_symbol(a, n) == sympy.jacobi_symbol(a, n), (a, n)
    for _ in range(1000):
        n = rng.randrange(1, 1 << 64) | 1
        a = rng.randrange(-(1 << 70), 1 << 70)
        assert kronecker_symbol(a, n) == sympy.jacobi_symbol(a, n), (a, n)
