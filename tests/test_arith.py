import random
from math import isqrt

import pytest

from eczero.arith import (
    SUPPORTED_CORNACCHIA_D,
    cornacchia,
    double_and_add,
    is_prime,
    kronecker_symbol,
    least_nonresidue,
    sqrt_mod_p,
    squares_mod,
    unit_orbit,
)
from eczero.errors import DomainError, InternalConsistencyError

from oracles import outcomes_within


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


def test_sqrt_mod_p_never_hangs_or_returns_a_non_root():
    # Every odd modulus below 200, in a subprocess: a square modulus has no
    # Jacobi symbol -1 and Tonelli's inner loop need not end mod a composite,
    # so these once hung (9, 21, 33, 65, 105); 15 once gave the non-root 1
    # for 2.  None only for a true non-square, DomainError never at a prime.
    # Moduli below 3 are refused too: -7 once called 1 a non-square.
    refused = [(1, 9), (4, 9), (5, 21), (2, 33), (7, 65), (2, 105), (2, 15),
               (1, -7), (0, 2), (1, 2), (1, 1), (1, 0)]
    cases = [(a, n) for n in range(3, 200, 2) for a in range(n)]
    got = outcomes_within("from eczero.arith import sqrt_mod_p", [f"sqrt_mod_p{c}" for c in cases + refused])
    outcome = dict(zip(cases + refused, got))
    for a, n in refused:
        assert outcome.pop((a, n)) == "DomainError", (a, n)
    squares = {n: {x * x % n for x in range(n)} for n in range(3, 200, 2)}
    for (a, n), r in outcome.items():
        if r == "DomainError":
            assert not is_prime(n), (a, n)
        elif r == "None":
            assert a not in squares[n], (a, n)
        else:
            r = int(r)
            assert r * r % n == a and r <= n - r, (a, n, r)


def test_squares_mod_matches_brute_force():
    for n in range(1, 301):
        table = squares_mod(n)
        assert len(table) == n
        assert {t for t in range(n) if table[t]} == {x * x % n for x in range(n)}, n


def test_least_nonresidue_by_euler_criterion():
    for p in range(3, 10**4, 2):
        if is_prime(p):
            z = least_nonresidue(p)
            assert pow(z, (p - 1) // 2, p) == p - 1, p
            assert all(pow(w, (p - 1) // 2, p) == 1 for w in range(2, z)), p
    with pytest.raises(DomainError):
        least_nonresidue(9)  # (z|9) is never -1


def test_unit_orbit_members_are_representations_with_one_orbit():
    sizes = {3: 3, 4: 2}
    for d in sorted(SUPPORTED_CORNACCHIA_D):
        for p in range(5, 3000, 2):
            if not is_prime(p) or (uv := cornacchia(d, p)) is None:
                continue
            orbit = unit_orbit(d, *uv)
            assert len(orbit) == sizes.get(d, 1), (d, p, orbit)
            for u, v in orbit:
                assert u * u + d * v * v == 4 * p, (d, p, u, v)
                assert unit_orbit(d, u, v) == orbit, (d, p, u, v)
                assert unit_orbit(d, -u, v) == orbit, (d, p, u, v)


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


def test_double_and_add_does_no_doubling_after_the_top_bit():
    calls = []

    def add(u, w):
        calls.append((u, w))
        return u + w

    assert double_and_add(add, 0, 1, 0) == 0
    assert calls == []
    for k in [1, 2, 3, 7, 8, 13, 223, 1 << 20, (1 << 40) - 1, 1000003]:
        calls.clear()
        assert double_and_add(add, k, 1, 0) == k
        assert len(calls) == k.bit_length() + bin(k).count("1") - 1, k


def test_double_and_add_refuses_a_negative_k():
    # k >>= 1 stays at -1, so without the guard the loop would never end;
    # the add below gives up after 64 calls, more than any k < 2^32 needs
    calls = []

    def add(u, w):
        calls.append((u, w))
        if len(calls) > 64:
            raise AssertionError("double_and_add kept adding for a negative k")
        return u + w

    for k in (-1, -2, -(1 << 40)):
        with pytest.raises(InternalConsistencyError, match=f"^\\[k\\]P needs k >= 0, got {k}$"):
            double_and_add(add, k, 1, 0)
    assert calls == []
