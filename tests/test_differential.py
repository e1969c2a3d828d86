"""Differential tests of the exact kernels against sympy.

sympy is an independent implementation, not a dependency of eczero: the
module is skipped where it is not installed.
"""

import random

import pytest

from eczero.arith import sqrt_mod_p
from eczero.fp import FpCurve, count_points
from eczero.padic import newton_lift

sympy = pytest.importorskip("sympy")
EllipticCurve = pytest.importorskip("sympy.ntheory.elliptic_curve").EllipticCurve


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
