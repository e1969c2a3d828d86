import random
from math import isqrt

import pytest

from eczero.arith import (
    SUPPORTED_CORNACCHIA_D,
    cornacchia,
    is_prime,
    kronecker_symbol,
    sqrt_mod_p,
)
from eczero.errors import DomainError


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def test_is_prime_examples():
    assert is_prime(7)
    assert not is_prime(91)  # 7 * 13
    assert is_prime(223)
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)


def test_is_prime_matches_trial_division_below_one_million():
    limit = 10**6
    flags = _sieve(limit)
    for n in range(limit):
        assert is_prime(n) == bool(flags[n]), n


def test_is_prime_large_composites():
    # Carmichael numbers and strong-pseudoprime bait.
    for n in (561, 1105, 1729, 25326001, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime((1 << 61) - 1)  # Mersenne prime


def test_kronecker_examples():
    assert kronecker_symbol(-3, 7) == 1
    assert 4 in {x * x % 7 for x in range(1, 7)}  # -3 = 4 is a square mod 7
    assert kronecker_symbol(14, 7) == 0
    assert kronecker_symbol(-11, 223) == 1


def test_kronecker_matches_euler_criterion():
    rng = random.Random(20260809)
    primes = [p for p in range(3, 3000) if is_prime(p)]
    for _ in range(400):
        p = rng.choice(primes)
        a = rng.randrange(-(10**6), 10**6)
        euler = pow(a % p, (p - 1) // 2, p) if a % p else 0
        expected = -1 if euler == p - 1 else euler
        assert kronecker_symbol(a, p) == expected


def test_kronecker_multiplicative_in_n():
    rng = random.Random(7)
    for _ in range(300):
        a = rng.randrange(-500, 500)
        m = rng.randrange(1, 200)
        n = rng.randrange(1, 200)
        assert kronecker_symbol(a, m * n) == kronecker_symbol(a, m) * kronecker_symbol(a, n)


def test_kronecker_rejects_zero_modulus():
    with pytest.raises(DomainError):
        kronecker_symbol(5, 0)


def test_sqrt_mod_p_examples():
    assert sqrt_mod_p(4, 7) == 2
    assert sqrt_mod_p(5, 7) is None
    assert {x * x % 7 for x in range(1, 7)} == {1, 2, 4}
    assert sqrt_mod_p(2, 7) == 3
    assert sqrt_mod_p(0, 13) == 0


def test_sqrt_mod_p_properties():
    rng = random.Random(99)
    primes = [p for p in range(3, 2000) if is_prime(p)]
    for _ in range(500):
        p = rng.choice(primes)
        a = rng.randrange(p)
        r = sqrt_mod_p(a, p)
        if r is None:
            assert kronecker_symbol(a, p) == -1
        else:
            assert r * r % p == a
            assert r <= p - r or a == 0


def _cornacchia_brute(d, p):
    # every (u, v) with u, v >= 0 and u^2 + d v^2 = 4p, by exhaustive search
    sols = []
    for v in range(isqrt(4 * p // d) + 1):
        rest = 4 * p - d * v * v
        u = isqrt(rest)
        if u * u == rest:
            sols.append((u, v))
    return sols


def test_cornacchia_paper_values():
    assert cornacchia(3, 7) == (1, 3)
    assert cornacchia(11, 223) == (1, 9)
    assert cornacchia(19, 43) == (1, 3)


def test_cornacchia_identity_and_minimality():
    primes = [p for p in range(3, 2000) if is_prime(p)]
    for d in sorted(SUPPORTED_CORNACCHIA_D):
        for p in primes:
            got = cornacchia(d, p)
            brute = _cornacchia_brute(d, p)
            if got is None:
                assert brute == [], (d, p, brute)
            else:
                u, v = got
                assert u * u + d * v * v == 4 * p
                assert (u, v) == min(brute), (d, p, got, brute)


def test_cornacchia_no_solution():
    assert cornacchia(3, 5) is None
    assert kronecker_symbol(-3, 5) == -1


def test_cornacchia_rejects_bad_inputs():
    with pytest.raises(DomainError):
        cornacchia(5, 7)
    with pytest.raises(DomainError):
        cornacchia(3, 9)
