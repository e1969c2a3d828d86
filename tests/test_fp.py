import hashlib
import random
import re
import tracemalloc
from itertools import islice
from math import isqrt

import pytest

import eczero.fp
import eczero.arith
from eczero.arith import CM_J_INVARIANTS, cornacchia, is_prime, kronecker_symbol
from eczero.errors import DomainError, InternalConsistencyError, UnsupportedModulusError
from eczero.fp import (
    FpCurve,
    FpPoint,
    count_points,
    count_points_bsgs,
    count_points_naive,
    fp_add,
    fp_neg,
    fp_scalar_mul,
    is_anomalous,
    point_at_x,
    trace_of_frobenius,
)
from eczero.localpoints import decompose_point, formal_t_valuation, lift_p_torsion
from eczero.quadfields import ImagQuadField, anomalous_residues_d3, is_frobenius_trace
from eczero.rational import Curve, QPoint, reduction_type

from oracles import cm_trace_oracle, fp_add_oracle, fp_scalar_mul_oracle

E7 = FpCurve(7, 0, 5)  # y^2 = x^3 + 5 over F_7, order 7


def _brute_points(curve):
    pts = [FpPoint.identity()]
    for x in range(curve.p):
        for y in range(curve.p):
            if y * y % curve.p == curve.rhs(x):
                pts.append(FpPoint(x, y))
    return pts


def _brute_count(curve):
    return len(_brute_points(curve))


def test_curve_validation():
    with pytest.raises(DomainError):
        FpCurve(7, 0, 0)  # singular
    with pytest.raises(DomainError):
        FpCurve(4, 1, 1)  # not prime
    with pytest.raises(DomainError):
        FpCurve(3, 1, 1)  # p < 5


def test_identity_is_neutral():
    P = FpPoint(3, 5)
    assert fp_add(E7, P, FpPoint.identity()) == P
    assert fp_add(E7, FpPoint.identity(), P) == P
    assert fp_add(E7, P, fp_neg(E7, P)).is_identity


def test_doubling_lands_in_group():
    # exhaustive table of the 7-element group
    pts = _brute_points(E7)
    assert len(pts) == 7
    D = fp_add(E7, FpPoint(3, 5), FpPoint(3, 5))
    assert D in pts
    assert D == FpPoint(5, 5)


def test_group_law_matches_exhaustive_table():
    curve = FpCurve(11, 3, 7)
    pts = _brute_points(curve)
    for P in pts:
        for Q in pts:
            R = fp_add(curve, P, Q)
            assert curve.contains(R)
            # commutativity
            assert R == fp_add(curve, Q, P)


def test_scalar_mul_basics():
    P = FpPoint(3, 5)
    assert fp_scalar_mul(E7, 7, P).is_identity
    assert fp_scalar_mul(E7, 1, P) == P
    assert fp_scalar_mul(E7, 0, P).is_identity
    assert fp_scalar_mul(E7, -2, P) == fp_neg(E7, fp_scalar_mul(E7, 2, P))


def test_scalar_mul_matches_repeated_addition():
    # [k]P against |k| chord-tangent additions of P (of -P for k < 0), k in [-13, 13]
    rng = random.Random(6)
    for p in (5, 7, 13, 31, 251, 1009):
        while True:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p:
                break
        curve = FpCurve(p, a, b)
        P = next(Q for x in range(p) if (Q := point_at_x(curve, x)) is not None)
        for k in range(-13, 14):
            step = P if k >= 0 else fp_neg(curve, P)
            expected = FpPoint.identity()
            for _ in range(abs(k)):
                expected = fp_add(curve, expected, step)
            assert fp_scalar_mul(curve, k, P) == expected, (curve, k)


def test_order_annihilates_random_points():
    rng = random.Random(5)
    for _ in range(10):
        p = rng.choice([13, 17, 19, 23, 29])
        while True:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p:
                break
        curve = FpCurve(p, a, b)
        n = count_points(curve)
        for _ in range(20):
            P = point_at_x(curve, rng.randrange(p))
            if P is None:
                continue
            assert fp_scalar_mul(curve, n, P).is_identity


def test_count_points_examples():
    assert count_points(E7) == 7
    assert count_points(FpCurve(5, -4, 0)) == 4
    assert count_points(FpCurve(223, -1056, 13552)) == 223
    assert count_points(FpCurve(43, -152, 722)) == 43


def test_count_points_matches_brute_force():
    rng = random.Random(11)
    for p in (5, 7, 11, 13, 37, 101):
        for _ in range(4):
            while True:
                a, b = rng.randrange(p), rng.randrange(p)
                if (4 * a**3 + 27 * b**2) % p:
                    break
            curve = FpCurve(p, a, b)
            assert count_points(curve) == _brute_count(curve)


def test_count_points_rejects_huge_modulus():
    for a, b in ((1, 1), (0, 1), (1, 0)):  # the CM curves j = 0, 1728 too
        curve = FpCurve.__new__(FpCurve)
        object.__setattr__(curve, "p", (1 << 41) + 81)
        object.__setattr__(curve, "a", a)
        object.__setattr__(curve, "b", b)
        with pytest.raises(UnsupportedModulusError):
            count_points(curve)


def test_trace_examples():
    assert trace_of_frobenius(E7) == 1
    assert trace_of_frobenius(FpCurve(5, -4, 0)) == 2
    assert trace_of_frobenius(FpCurve(5, 0, 1)) == 0


def test_anomalous_examples():
    assert is_anomalous(E7)
    assert not is_anomalous(FpCurve(5, -4, 0))
    assert is_anomalous(FpCurve(43, -152, 722))


def test_hasse_bound_sample():
    rng = random.Random(42)
    primes = [p for p in range(5, 10**4) if is_prime(p)]
    for _ in range(100):
        p = rng.choice(primes)
        while True:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p:
                break
        assert abs(trace_of_frobenius(FpCurve(p, a, b))) <= 2 * isqrt(p) + 1


def test_twist_trace_negates():
    rng = random.Random(17)
    for _ in range(15):
        p = rng.choice([11, 13, 17, 19, 23, 29, 31])
        while True:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p:
                break
        g = next(g for g in range(2, p) if kronecker_symbol(g, p) == -1)
        curve = FpCurve(p, a, b)
        twist = FpCurve(p, a * g * g, b * g**3)
        assert trace_of_frobenius(twist) == -trace_of_frobenius(curve)


def test_bsgs_agrees_with_naive():
    rng = random.Random(2024)
    primes = [p for p in range(2**14, 2**16) if is_prime(p)]
    for _ in range(6):
        p = rng.choice(primes)
        while True:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p:
                break
        curve = FpCurve(p, a, b)
        assert count_points_bsgs(curve) == count_points_naive(curve)


def test_bsgs_on_large_prime_satisfies_lagrange():
    p = (1 << 20) + 7
    assert is_prime(p)
    curve = FpCurve(p, 2, 3)
    n = count_points(curve)
    assert abs(p + 1 - n) <= 2 * isqrt(p) + 1
    for x in (1, 5, 10, 77):
        P = point_at_x(curve, x)
        if P is not None:
            assert fp_scalar_mul(curve, n, P).is_identity


def test_associativity_sampled():
    rng = random.Random(321)
    curve = FpCurve(101, 17, 3)
    pts = [P for x in range(101) if (P := point_at_x(curve, x)) is not None]
    pts.append(FpPoint.identity())
    for _ in range(200):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        lhs = fp_add(curve, fp_add(curve, P, Q), R)
        rhs = fp_add(curve, P, fp_add(curve, Q, R))
        assert lhs == rhs


# The paper's four CM curves and two without CM.
SWEEP_CURVES = ((0, -2), (-4, 0), (-1056, 13552), (-152, 722), (-1, 1), (3, 7))


def _naive_must_not_run(curve):
    raise AssertionError(f"naive sweep ran for {curve}")


def _random_curve(rng, p):
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b**2) % p:
            return FpCurve(p, a, b)


def test_bsgs_alone_matches_naive_above_mestre_bound(monkeypatch):
    # Above p = 229 BSGS with the twist decides every order by itself: the
    # naive sweep is neither the route nor a fallback.  BSGS is called
    # directly, since count_points sends the four CM curves elsewhere.
    naive = count_points_naive
    monkeypatch.setattr(eczero.fp, "count_points_naive", _naive_must_not_run)
    rng = random.Random(230)
    classes = set()
    for i in range(48):
        # log-uniform in [230, 2^16], cycling through the four classes of
        # ((-2|p), (-3|p)), which fix the small torsion of y^2 = x^3 - 2 and
        # y^2 = x^3 - 4x at x = 0
        want = ((1, 1), (1, -1), (-1, 1), (-1, -1))[i % 4]
        p = int(230 * (2**16 / 230) ** rng.random())
        while not (is_prime(p) and (kronecker_symbol(-2, p), kronecker_symbol(-3, p)) == want):
            p += 1
        classes.add(want)
        curves = [FpCurve(p, a, b) for a, b in SWEEP_CURVES if (4 * a**3 + 27 * b**2) % p]
        curves.append(_random_curve(rng, p))
        for curve in curves:
            assert count_points_bsgs(curve) == naive(curve), curve
    assert len(classes) == 4


def test_bsgs_matches_cm_trace_oracle_up_to_2_40():
    # Above 2^16 no sweep can check BSGS; the j = 0 and j = 1728 traces are
    # read off Cornacchia instead, at primes log-uniform in [2^17, 2^40]
    # that cycle through the four classes of ((-2|p), (-3|p)).  BSGS is
    # called directly: count_points reads these traces off the residue
    # symbol, checked against the same oracle below.
    rng = random.Random(2040)
    classes = set()
    for i in range(24):
        want = ((1, 1), (1, -1), (-1, 1), (-1, -1))[i % 4]
        p = int(2 ** (17 + 23 * rng.random()))
        while not (is_prime(p) and (kronecker_symbol(-2, p), kronecker_symbol(-3, p)) == want):
            p += 1
        classes.add(want)
        curves = [FpCurve(p, 0, -2), FpCurve(p, -4, 0)]
        curves += [FpCurve(p, 0, rng.randrange(1, p)), FpCurve(p, rng.randrange(1, p), 0)]
        for curve in curves:
            assert count_points_bsgs(curve) == p + 1 - cm_trace_oracle(curve, rng), curve
    assert len(classes) == 4


def test_router_switches_at_mestre_bound(monkeypatch):
    E229 = FpCurve(229, 1, 1)
    expected = count_points_naive(E229)
    calls = []
    monkeypatch.setattr(eczero.fp, "count_points_naive", lambda c: calls.append(c) or expected)
    assert count_points(E229) == expected
    assert calls == [E229]
    monkeypatch.setattr(eczero.fp, "count_points_naive", _naive_must_not_run)
    for p in (233, 239, 20011, (1 << 20) + 7, (1 << 40) - 87):
        assert is_prime(p)
        for a, b in SWEEP_CURVES:
            if (4 * a**3 + 27 * b**2) % p:
                count_points(FpCurve(p, a, b))


def _twist_of(curve):
    p = curve.p
    g = next(g for g in range(2, p) if kronecker_symbol(g, p) == -1)
    return FpCurve(p, curve.a * g * g, curve.b * g**3)


@pytest.mark.parametrize("ab", [(0, -2), (-4, 0)])
def test_small_order_points_near_2_40_stay_small(ab):
    # At this p, x = 0 gives y^2 = x^3 - 2 a point of order 3 and
    # y^2 = x^3 - 4x one of order 2: their multiples in the Hasse interval
    # number in the millions and must not be listed.  count_points takes
    # the CM route on these curves, so BSGS is called directly.
    p = 1099511627609
    curve = FpCurve(p, *ab)
    tracemalloc.start()
    try:
        n = count_points_bsgs(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert abs(p + 1 - n) <= isqrt(4 * p)
    twist = _twist_of(curve)
    for E, order in ((curve, n), (twist, 2 * p + 2 - n)):
        for x in range(40):
            P = point_at_x(E, x)
            if P is not None:
                assert fp_scalar_mul(E, order, P).is_identity


def test_kill_step_multiples_are_the_kill_set():
    # In the Hasse interval the n with [n]P = O are exactly the multiples of
    # _kill_step's L, checked by brute force at every prime in (229, 1500) on
    # the first walked point of three seeded curves and of y^2 = x^3 - 2 and
    # y^2 = x^3 - 4x.  There x = 0 gives order 3 where (-2|p) = 1 and order
    # 2 always, so each of the three ways to an L is taken: a small order,
    # one hit, and the difference of two.  _kill_cut must then keep exactly
    # the candidates in that set, from the multiples of 2, 3 or 4.
    rng = random.Random(1500)
    kinds, smalls = set(), set()
    for p in range(231, 1500, 2):
        if not is_prime(p):
            continue
        s = isqrt(4 * p)
        lo, width = p + 1 - s, 2 * s + 1
        cases = [(_random_curve(rng, p), None) for _ in range(3)]
        cases += [(FpCurve(p, 0, -2), 3), (FpCurve(p, -4, 0), 2)]
        for curve, small in cases:
            P = next(eczero.fp._walk_points(curve))
            L = eczero.fp._kill_step(curve, P, lo, width)
            kill = {n for n in range(lo, lo + width) if fp_scalar_mul(curve, n, FpPoint(*P)).is_identity}
            assert {n for n in range(lo, lo + width) if n % L == 0} == kill, (curve, P)
            for k in (2, 3, 4):
                cands = range(lo + (-lo) % k, lo + width, k)
                assert set(eczero.fp._kill_cut(curve, P, cands)) == set(cands) & kill, (curve, P, k)
            kinds.add("small" if L <= isqrt(width) else "one hit" if L >= lo else "two hits")
            if small and P[0] == 0:
                assert L == small, curve
                smalls.add(small)
    assert kinds == {"small", "one hit", "two hits"} and smalls == {2, 3}


def test_add_many_is_add_elementwise():
    # _add_many is the oracle's chord-tangent addition with one inversion per
    # list.  At seeded primes from 5 to 2^40, lists that mix chords with the
    # identity on either side, P = Q, P = -Q and a 2-torsion point doubled
    # to O, in a shuffled order, must give the oracle's sum at every
    # position, alone or together.
    rng = random.Random(2727)
    add_many = eczero.fp._add_many
    O = (None, None)
    assert add_many(5, 1, []) == []
    for bits in range(3, 41):
        p = rng.randrange(max(5, 1 << (bits - 1)), 1 << bits)
        while not is_prime(p):
            p = rng.randrange(max(5, 1 << (bits - 1)), 1 << bits)
        while True:  # y^2 = x^3 + a x + b through (x0, 0)
            x0, a = rng.randrange(p), rng.randrange(p)
            b = -(x0**3 + a * x0) % p
            if (4 * a**3 + 27 * b**2) % p:
                break
        curve = FpCurve(p, a, b)
        points = []
        while len(points) < 6:
            P = point_at_x(curve, rng.randrange(p))
            if P is not None and P.y:
                points.append((P.x, P.y))
        T, P = (x0, 0), points[0]
        pairs = [(O, P), (P, O), (O, O), (P, P), (P, (P[0], p - P[1])), (T, T), (T, P), (P, T)]
        pairs += [(R, S) for R in points for S in points if R != S]
        rng.shuffle(pairs)
        expected = [fp_add_oracle(curve, FpPoint(*R), FpPoint(*S)) for R, S in pairs]
        expected = [(R.x, R.y) for R in expected]
        assert add_many(p, curve.a, pairs) == expected, p
        assert [add_many(p, curve.a, [pair])[0] for pair in pairs] == expected, p
        assert expected.count(O) >= 3 and fp_add_oracle(curve, FpPoint(*T), FpPoint(*T)).is_identity


def test_kill_step_makes_no_unused_addition(monkeypatch):
    # A point of prime order N near p has one hit in the Hasse interval, so
    # its kill step walks every baby and every giant step.  The baby blocks
    # add the m - 1 steps after P; then one-pair calls build the stride
    # 2 [m]P + P and, unless the first centre is a multiple of the stride,
    # add its baby-step offset; the giant blocks add the giant steps after
    # the first, and each giant block but the last also doubles its addend
    # for the next one.  One more addition would be one nothing reads.
    rng = random.Random(6969)
    real, sizes = eczero.fp._add_many, []
    monkeypatch.setattr(eczero.fp, "_add_many", lambda p, a, pairs: sizes.append(len(pairs)) or real(p, a, pairs))
    for bits in (9, 12, 16, 20, 24):
        p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        while not is_prime(p):
            p += 2
        while True:
            curve = _random_curve(rng, p)
            N = count_points(curve)
            if is_prime(N):
                break
        s = isqrt(4 * p)
        lo, width = p + 1 - s, 2 * s + 1
        m = isqrt(width // 2) + 1
        giants = len(range(lo + m, lo + m + width, 2 * m + 1))
        sizes.clear()
        assert eczero.fp._kill_step(curve, next(eczero.fp._walk_points(curve)), lo, width) == N
        baby_calls, giant_calls = (m - 1).bit_length(), (giants - 1).bit_length()
        singles = 2 + ((lo + 2 * m) % (2 * m + 1) != m)
        assert giant_calls >= 2 and len(sizes) == baby_calls + singles + giant_calls, p
        assert sum(sizes[:baby_calls]) == m - 1, p
        assert sizes[baby_calls:baby_calls + singles] == [1] * singles, p
        assert sum(sizes[baby_calls + singles:]) == (giants - 1) + (giant_calls - 1), p


def _order_of(curve, P, N):
    # ord(P) from the group order N: strip each prime factor q while [d/q]P = O
    d, q, rest = N, 2, N
    while rest > 1:
        if rest % q == 0:
            rest //= q
            if fp_scalar_mul(curve, d // q, P).is_identity:
                d //= q
        else:
            q += 1
    return d


def test_plus_minus_baby_steps_give_every_order_up_to_2m_exactly():
    # The baby steps [j]P, 1 <= j <= m, end at the first repeat of x: the
    # identity at j gives order j, y = 0 gives 2j and [j]P = -[i]P gives
    # i + j, so every order up to 2m is its own step, and 2m + 1 is left to
    # the giant steps.  At seeded primes in (229, 2^12), points of each
    # order d <= 2m + 1 (the identity, order 2, odd and even orders, and
    # exactly 2m + 1) must give L = d, whose multiples are the n in the
    # Hasse interval with [n]P = O, found by walking P across it.
    rng = random.Random(4096)
    primes = rng.sample([p for p in range(231, 1 << 12, 2) if is_prime(p)], 10)
    kinds = set()
    for p in primes:
        s = isqrt(4 * p)
        lo, width = p + 1 - s, 2 * s + 1
        m = isqrt(width // 2) + 1
        points = {}  # order d -> (curve, a point of order d)
        while 2 * m + 1 not in points:
            curve = _random_curve(rng, p)
            N = count_points_naive(curve)
            for x, y in islice(eczero.fp._walk_points(curve), 4):
                e = _order_of(curve, FpPoint(x, y), N)
                for d in range(1, 2 * m + 2):
                    if e % d == 0:
                        points.setdefault(d, (curve, fp_scalar_mul(curve, e // d, FpPoint(x, y))))
        for d, (curve, P) in points.items():
            L = eczero.fp._kill_step(curve, (P.x, P.y), lo, width)
            R, kill = fp_scalar_mul(curve, lo, P), set()
            for n in range(lo, lo + width):
                if R.is_identity:
                    kill.add(n)
                R = fp_add(curve, R, P)
            assert L == d, (curve, P, d)
            assert {n for n in range(lo, lo + width) if n % L == 0} == kill, (curve, P)
            kinds.add("2m + 1" if d == 2 * m + 1 else "identity" if d == 1 else "two" if d == 2 else d % 2)
    assert kinds == {"identity", "two", 0, 1, "2m + 1"}


# The cubic's discriminant fixes the parity of the count (Stickelberger;
# Swan, Pacific J. Math. 12, 1962): where -(4a^3 + 27b^2) is a non-square
# mod p, x^3 + a x + b has one root, so E(F_p) has one point of order 2.


def _nonsquare_disc(curve):
    return kronecker_symbol(-(4 * curve.a**3 + 27 * curve.b**2), curve.p) == -1


def test_a_nonsquare_discriminant_makes_the_count_even():
    # every nonsingular curve at p = 233 and 239, then a seeded sample of
    # curves at primes up to 2^12.  At 233 and 239 one curve of each
    # isomorphism class is swept: (x, y) -> (u^2 x, u^3 y) takes
    # y^2 = x^3 + a x + b to y^2 = x^3 + u^4 a x + u^6 b, which keeps the
    # order and scales the discriminant by u^12, a square.
    for p in (233, 239):
        seen = set()
        for a in range(p):
            for b in range(p):
                if (a, b) in seen or (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                orbit = {(u**4 * a % p, u**6 * b % p) for u in range(1, p)}
                seen |= orbit
                curve = FpCurve._at_checked_prime(p, a, b)
                nonsquare = _nonsquare_disc(curve)
                assert all(_nonsquare_disc(FpCurve._at_checked_prime(p, *ab)) == nonsquare for ab in orbit), curve
                if nonsquare:
                    assert count_points_naive(curve) % 2 == 0, curve
        assert len(seen) == sum((4 * a**3 + 27 * b**2) % p != 0 for a in range(p) for b in range(p))
    rng = random.Random(1962)
    primes = [p for p in range(5, 1 << 12) if is_prime(p)]
    parities = set()
    for _ in range(400):
        curve = _random_curve(rng, rng.choice(primes))
        n = count_points_naive(curve)
        if _nonsquare_disc(curve):
            assert n % 2 == 0, curve
        parities.add((_nonsquare_disc(curve), n % 2))
    assert parities == {(True, 0), (False, 0), (False, 1)}


def test_hasse_route_starts_from_the_even_orders_exactly_at_a_nonsquare_discriminant(monkeypatch):
    # A spy on _resolve: count_points_bsgs hands it the Hasse interval's
    # even orders when the discriminant is a non-square mod p, else the
    # whole interval, and the count is exact either way.
    starts = []
    resolve = eczero.fp._resolve
    monkeypatch.setattr(eczero.fp, "_resolve", lambda curve, cands: starts.append(cands) or resolve(curve, cands))
    rng = random.Random(1993)
    primes = [p for p in range(231, 1 << 14, 2) if is_prime(p)]
    kinds = set()
    for p in rng.sample(primes, 30):
        s = isqrt(4 * p)
        lo, hi = p + 1 - s, p + 1 + s
        for curve in (_random_curve(rng, p), _random_curve(rng, p)):
            starts.clear()
            assert count_points_bsgs(curve) == count_points_naive(curve), curve
            even = _nonsquare_disc(curve)
            assert starts == [range(lo + lo % 2, hi + 1, 2) if even else range(lo, hi + 1)], curve
            kinds.add(even)
    assert kinds == {True, False}


def _kill_set(curve, P, lo, hi):
    # the n in [lo, hi] with [n]P = O, by walking P across the interval
    R, kill = fp_scalar_mul_oracle(curve, lo, P), set()
    for n in range(lo, hi + 1):
        if R.is_identity:
            kill.add(n)
        R = fp_add(curve, R, P)
    return kill


def test_kill_cut_walks_only_its_progression():
    # _kill_cut on the multiples of L in the Hasse interval walks [L]P over
    # the k with L k in it, and must keep exactly the n there with [n]P = O.
    # At seeded primes in (230, 5000), walked points of random curves and of
    # y^2 = x^3 - 4x (order 2 at x = 0), and points of order 2, 3, 4, 6 and
    # 12 where the group has them, so that [L]P = O is met too.
    rng = random.Random(5000)
    primes = rng.sample([p for p in range(231, 5000, 2) if is_prime(p)], 12)
    branches, orders = set(), set()
    for p in primes:
        s = isqrt(4 * p)
        lo, hi = p + 1 - s, p + 1 + s
        for curve in (_random_curve(rng, p), _random_curve(rng, p), FpCurve(p, -4, 0)):
            N = count_points_naive(curve)
            walked = [FpPoint(*P) for P in islice(eczero.fp._walk_points(curve), 2)]
            points = list(walked)
            for P in walked:
                e = _order_of(curve, P, N)
                points += [fp_scalar_mul(curve, e // d, P) for d in (2, 3, 4, 6, 12) if e % d == 0]
            for P in points:
                kill = _kill_set(curve, P, lo, hi)
                for L in (1, 2, 3, 4, 6, 12):
                    cands = range(lo + (-lo) % L, hi + 1, L)
                    cut = eczero.fp._kill_cut(curve, (P.x, P.y), cands)
                    assert set(cut) == set(cands) & kill, (curve, P, L)
                    assert not cut or cut.step % L == 0, (curve, P, L)
                    branches.add(fp_scalar_mul(curve, L, P).is_identity)
                orders.add(_order_of(curve, P, N))
    assert branches == {True, False} and {2, 3, 4, 6, 12} <= orders


def test_scalar_mul_matches_the_affine_oracle():
    # Jacobian [k]P against affine double-and-add, at k = 0, 1, 2, ord(P)
    # and ord(P) +- 1 and their negatives, on walked points and on the
    # 2-torsion point (x0, 0) of curves built through it; above 2^16, where
    # no order is at hand, at random k up to 2^42 of either sign.
    rng = random.Random(4242)
    for bits in range(9, 41):
        p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        while not is_prime(p):
            p += 2
        while True:  # y^2 = x^3 + a x + b through (x0, 0)
            x0, a = rng.randrange(p), rng.randrange(p)
            b = -(x0**3 + a * x0) % p
            if (4 * a**3 + 27 * b**2) % p:
                break
        curve = FpCurve(p, a, b)
        points = [FpPoint(x0, 0), FpPoint.identity()]
        points += [FpPoint(*P) for P in islice(eczero.fp._walk_points(curve), 3)]
        N = count_points(curve) if bits <= 16 else None
        for P in points:
            ks = [0, 1, 2, 3] + [rng.randrange(1 << 42) for _ in range(3)]
            if N is not None:
                e = _order_of(curve, P, N)
                ks += [e - 1, e, e + 1]
            for k in ks:
                for signed in (k, -k):
                    assert fp_scalar_mul(curve, signed, P) == fp_scalar_mul_oracle(curve, signed, P), (curve, P, signed)
        assert fp_scalar_mul(curve, 2, FpPoint(x0, 0)).is_identity


def _ambiguous(curve, cands):
    return cands


# Curves counted from the Hasse interval, below and above 2^16.  A CM curve
# has one order, so it is never ambiguous.
_AMBIGUOUS_SMALL = FpCurve(20011, 3, 7)
_AMBIGUOUS_LARGE = FpCurve((1 << 20) + 7, 2, 3)


def test_ambiguous_bsgs_falls_back_to_naive_up_to_2_16(monkeypatch):
    expected = count_points_naive(_AMBIGUOUS_SMALL)
    calls = []
    monkeypatch.setattr(eczero.fp, "count_points_naive", lambda c: calls.append(c) or count_points_naive(c))
    monkeypatch.setattr(eczero.fp, "_order_candidates", _ambiguous)
    assert eczero.fp._cm_disc(_AMBIGUOUS_SMALL) is None
    assert count_points(_AMBIGUOUS_SMALL) == expected
    assert calls == [_AMBIGUOUS_SMALL]


def test_ambiguous_bsgs_raises_above_2_16(monkeypatch):
    monkeypatch.setattr(eczero.fp, "_order_candidates", _ambiguous)
    monkeypatch.setattr(eczero.fp, "count_points_naive", _naive_must_not_run)
    assert eczero.fp._cm_disc(_AMBIGUOUS_LARGE) is None
    with pytest.raises(InternalConsistencyError, match=re.escape(str(_AMBIGUOUS_LARGE))):
        count_points(_AMBIGUOUS_LARGE)


def test_a_walk_without_hits_ends_in_the_fallback(monkeypatch):
    # No kill step (0, which only a bug gives) leaves no candidate, so the
    # count ends in the sweep up to 2^16 and in an error above, never in a
    # TypeError.
    monkeypatch.setattr(eczero.fp, "_kill_step", lambda curve, P, lo, width: 0)
    small, large = _AMBIGUOUS_SMALL, _AMBIGUOUS_LARGE
    assert count_points(small) == count_points_naive(small)
    with pytest.raises(InternalConsistencyError, match="left 0 candidate orders"):
        count_points(large)


# CM route: curves whose j-invariant is that of a class-number-one maximal
# order are counted from Cornacchia's 4p = u^2 + |D| v^2 above p = 229.


def test_cm_j_invariants_are_the_class_number_one_cubes():
    # j(O_D) for the nine maximal orders, as the cubes they are (Cox, Sec. 12).
    assert CM_J_INVARIANTS == {
        -3: 0, -4: 12**3, -7: -(15**3), -8: 20**3, -11: -(32**3), -19: -(96**3),
        -43: -(960**3), -67: -(5280**3), -163: -(640320**3),
    }


def _j_model(j):
    """(a, b) of y^2 = x^3 + a x + b with j-invariant j: y^2 = x^3 + 3c x + 2c
    with c = j / (1728 - j), scaled by (1728 - j)^2 to integers; that formula
    has no curve at j = 0 or 1728, where y^2 = x^3 + 1 and y^2 = x^3 + x serve."""
    return {0: (0, 1), 1728: (1, 0)}.get(j, (3 * j * (1728 - j), 2 * j * (1728 - j) ** 2))


def test_cm_orders_give_every_frobenius_trace_of_O_D():
    # At a split p, Frobenius of a j_D model is a norm-p element of O_D, of
    # trace t with 4p = t^2 + |D| v^2, and the CM order gives its one trace
    # exactly, as the sweep counts it.  Checked for all nine D at every split
    # prime to 2^11.
    split = 0
    for p in range(231, 2**11, 2):
        if not is_prime(p):
            continue
        for D, j in CM_J_INVARIANTS.items():
            a, b = _j_model(j)
            if kronecker_symbol(D, p) != 1 or (4 * a**3 + 27 * b**2) % p == 0:
                continue
            curve = FpCurve(p, a, b)
            assert eczero.fp._cm_disc(curve) == D, curve
            trace = p + 1 - eczero.fp._cm_order(curve)
            assert is_frobenius_trace(ImagQuadField(D), p, trace), curve
            assert trace == p + 1 - count_points_naive(curve), curve
            split += 1
    assert split > 1000


def test_cm_order_matches_the_sweep_on_every_split_prime_to_2_12():
    # The sign rule of the seven D whose only units are +-1, a_p =
    # (c_D a b | p) eps_D(pi) u, on the j_D model and its twist by a
    # non-residue (whose a b differs by g^5, so the symbol flips), at every
    # split prime from 233 to 2^12; v = 2 mod 4 and the other classes of
    # v mod 4 both occur for D = -8.
    seen = set()
    for p in range(233, 2**12, 2):
        if not is_prime(p):
            continue
        g = eczero.arith.least_nonresidue(p)
        for D, j in CM_J_INVARIANTS.items():
            a, b = _j_model(j)
            if D in (-3, -4) or kronecker_symbol(D, p) != 1 or (4 * a**3 + 27 * b**2) % p == 0:
                continue
            for curve in (FpCurve(p, a, b), FpCurve(p, a * g * g, b * g**3)):
                assert eczero.fp._cm_order(curve) == count_points_naive(curve), curve
            if D == -8:
                seen.add(cornacchia(8, p)[1] % 4 == 2)
    assert seen == {True, False}


def _cm_curves(p, rng):
    """(D, curve, model) at p: the short model of each j_D (_j_model) and its
    quadratic twist (model is the curve twisted, or None), one random sextic
    twist y^2 = x^3 + b and one random quartic twist y^2 = x^3 + a x."""
    out = []
    for D, j in CM_J_INVARIANTS.items():
        a, b = _j_model(j)
        if (4 * a**3 + 27 * b**2) % p:
            model = FpCurve(p, a, b)
            out += [(D, model, None), (D, _twist_of(model), model)]
    out += [(-3, FpCurve(p, 0, rng.randrange(1, p)), None), (-4, FpCurve(p, rng.randrange(1, p), 0), None)]
    return out


def _check_cm_route(primes, rng, monkeypatch):
    # count_points equals a direct BSGS count on every case, and no case
    # reaches BSGS through count_points; returns the (D, (D|p)) classes it
    # met.  A twist is checked against its model's BSGS count, since the two
    # orders sum to 2p + 2.
    calls = _spy_bsgs(monkeypatch)
    classes = set()
    cases = [case for p in primes for case in _cm_curves(p, rng)]
    bsgs = {}
    for D, curve, model in cases:
        assert eczero.fp._cm_disc(curve) is not None, curve
        if model is None:
            expected = bsgs[curve] = count_points_bsgs(curve)
        else:
            if model not in bsgs:
                bsgs[model] = count_points_bsgs(model)
            expected = 2 * curve.p + 2 - bsgs[model]
        assert count_points(curve) == expected, curve
        classes.add((D, kronecker_symbol(D, curve.p)))
    assert calls == []
    return classes


def test_cm_route_matches_bsgs_on_every_prime_to_2_12(monkeypatch):
    primes = [p for p in range(230, 2**12 + 1) if is_prime(p)]
    classes = _check_cm_route(primes, random.Random(4096), monkeypatch)
    assert classes == {(D, s) for D in CM_J_INVARIANTS for s in (1, -1)}


def test_cm_route_matches_bsgs_up_to_2_40(monkeypatch):
    rng = random.Random(1440)
    primes = []
    for _ in range(24):
        p = int(2 ** (12 + 28 * rng.random()))
        while not is_prime(p):
            p += 1
        primes.append(p)
    assert max(primes) > 2**38
    classes = _check_cm_route(primes, rng, monkeypatch)
    assert classes == {(D, s) for D in CM_J_INVARIANTS for s in (1, -1)}


def test_cm_route_matches_naive_on_sweep_curves_to_2_12():
    for p in range(230, 2**12 + 1):
        if is_prime(p):
            for a, b in SWEEP_CURVES[:4]:
                if (4 * a**3 + 27 * b**2) % p:
                    curve = FpCurve(p, a, b)
                    assert count_points(curve) == count_points_naive(curve), curve


def _bsgs_must_not_run(curve):
    raise AssertionError(f"BSGS ran for {curve}")


def test_cm_curves_never_reach_bsgs(monkeypatch):
    monkeypatch.setattr(eczero.fp, "count_points_bsgs", _bsgs_must_not_run)
    seen = set()
    for p in (20011, 20021, 65537, 65539, (1 << 20) + 7, 1048589, (1 << 40) - 87, 1099511627609):
        assert is_prime(p)
        for (a, b), D in zip(SWEEP_CURVES[:4], (-3, -4, -11, -19)):
            if (4 * a**3 + 27 * b**2) % p:
                n = count_points(FpCurve(p, a, b))
                assert abs(p + 1 - n) <= isqrt(4 * p)
                seen.add((D, kronecker_symbol(D, p)))
    assert seen == {(D, s) for D in (-3, -4, -11, -19) for s in (1, -1)}


def test_non_cm_curves_still_reach_bsgs(monkeypatch):
    monkeypatch.setattr(eczero.fp, "count_points_bsgs", _bsgs_must_not_run)
    for p in (233, 20011, (1 << 40) - 87):
        for a, b in SWEEP_CURVES[4:]:
            curve = FpCurve(p, a, b)
            assert eczero.fp._cm_disc(curve) is None
            with pytest.raises(AssertionError, match="BSGS ran"):
                count_points(curve)


def _spy_bsgs(monkeypatch):
    calls = []
    bsgs = count_points_bsgs
    monkeypatch.setattr(eczero.fp, "count_points_bsgs", lambda c: calls.append(c) or bsgs(c))
    return calls


def test_hasse_route_resolves_two_survivors_with_the_twist(monkeypatch):
    # At p = 233 every walked point of y^2 = x^3 - 3x - 1 (j = 2304, no CM)
    # is killed by two orders of the Hasse interval; the twist's points
    # leave one, so the sweep does not run.
    small = FpCurve(233, -3, -1)
    assert eczero.fp._cm_disc(small) is None
    expected = count_points_naive(small)
    s = isqrt(4 * 233)
    assert len(eczero.fp._order_candidates(small, range(234 - s, 234 + s + 1))) == 2
    monkeypatch.setattr(eczero.fp, "count_points_naive", _naive_must_not_run)
    assert count_points(small) == expected
    # Forced: E's own points cut nothing from the interval, so the twist's
    # points alone must leave the one order.
    curve = FpCurve((1 << 40) - 87, 3, 7)
    expected = count_points(curve)
    cut, seen = eczero.fp._order_candidates, []

    def keeps_e(c, cands):
        seen.append(c)
        return cands if c == curve else cut(c, cands)

    monkeypatch.setattr(eczero.fp, "_order_candidates", keeps_e)
    assert count_points(curve) == expected
    assert seen == [curve, eczero.fp._twist(curve)]


def test_cm_route_raises_without_cornacchia(monkeypatch):
    # O_D has class number one, so a split p is a norm and Cornacchia always
    # finds 4p = u^2 + |D| v^2: finding none is a bug, raised as such, and
    # the curve is not sent to BSGS.
    curve = FpCurve(65537, -4, 0)  # 65537 = 1 mod 4 splits in Q(i)
    calls = _spy_bsgs(monkeypatch)
    monkeypatch.setattr(eczero.fp, "_cornacchia", lambda d, p: None)
    with pytest.raises(InternalConsistencyError, match="split prime 65537"):
        count_points(curve)
    assert calls == []


# j = 0 and j = 1728 at a split p: one order from the sextic or quartic
# residue symbol (Ireland and Rosen, GTM 84, Ch. 18, Sec. 3 and 4).


def _j0_j1728_curves(p):
    # every y^2 = x^3 + b at p = 1 mod 3 and y^2 = x^3 + a x at p = 1 mod 4
    if p % 3 == 1:
        yield from (FpCurve(p, 0, b) for b in range(1, p))
    if p % 4 == 1:
        yield from (FpCurve(p, a, 0) for a in range(1, p))


def _symbol_trace(curve):
    if curve.a == 0:
        return eczero.fp._sextic_trace(curve.p, curve.b)
    return eczero.fp._quartic_trace(curve.p, curve.a)


def test_residue_symbol_matches_the_sweep_on_every_split_curve_below_2_10():
    # count_points from p = 233 on, and the kernels themselves below, where
    # count_points sweeps, on every coefficient of every split p < 2^10,
    # against one sweep per isomorphism class: (x, y) -> (u^2 x, u^3 y) takes
    # y^2 = x^3 + b to y^2 = x^3 + u^6 b and y^2 = x^3 + a x to
    # y^2 = x^3 + u^4 a x, so b^((p - 1)/6) and a^((p - 1)/4) name the class.
    # Below p = 100 each curve's own sweep must agree with its class's.
    seen = set()
    for p in range(5, 1 << 10):
        if not is_prime(p):
            continue
        swept = {}
        for curve in _j0_j1728_curves(p):
            j0 = curve.a == 0
            key = (j0, pow(curve.b, (p - 1) // 6, p) if j0 else pow(curve.a, (p - 1) // 4, p))
            if key not in swept:
                swept[key] = count_points_naive(curve)
            if p < 100:
                assert count_points_naive(curve) == swept[key], curve
            if p > 229:
                assert count_points(curve) == swept[key], curve
            else:
                assert _symbol_trace(curve) == p + 1 - swept[key], curve
            seen.add((j0, p > 229))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_residue_symbol_matches_the_cm_trace_oracle_up_to_2_40():
    # Above 2^16 no sweep can check the symbol: the oracle cuts Cornacchia's
    # candidate traces by random points, at split primes log-uniform in
    # [2^17, 2^40], p = 1 mod 12 or not, on random coefficients.
    rng = random.Random(1841)
    classes = set()
    for i in range(24):
        want = ((1, 1), (1, 3), (2, 1))[i % 3]  # (p mod 3, p mod 4), one split at least
        p = int(2 ** (17 + 23 * rng.random()))
        while not (is_prime(p) and (p % 3, p % 4) == want):
            p += 1
        classes.add(want)
        curves = [FpCurve(p, 0, rng.randrange(1, p))] if p % 3 == 1 else []
        curves += [FpCurve(p, rng.randrange(1, p), 0)] if p % 4 == 1 else []
        for curve in curves:
            assert count_points(curve) == p + 1 - cm_trace_oracle(curve, rng), curve
    assert len(classes) == 3


def test_cm_order_matches_the_cm_trace_oracle_up_to_2_40():
    # Above 2^16 no sweep can check the sign rule: the oracle cuts Cornacchia's
    # candidate traces by random points, on seeded twists (a d^2, b d^3) of
    # each j_D model at split primes log-uniform in [2^17, 2^40], for all
    # nine D.
    rng = random.Random(3540)
    for D, j in CM_J_INVARIANTS.items():
        a, b = _j_model(j)
        for _ in range(4):
            p = int(2 ** (17 + 23 * rng.random()))
            while not (is_prime(p) and kronecker_symbol(D, p) == 1):
                p += 1
            d = rng.randrange(1, p)
            curve = FpCurve(p, a * d * d, b * d**3)
            assert count_points(curve) == p + 1 - cm_trace_oracle(curve, rng), curve


def _must_not_run(name):
    def fail(*args):
        raise AssertionError(f"{name} ran")
    return fail


def test_a_split_j_0_or_j_1728_count_walks_no_point(monkeypatch):
    # A CM curve at a split p of any of the nine D walks no point, builds no
    # twist and takes no [k]P: the residue symbol, or Cornacchia's u and two
    # symbols, give the one order.
    for name in ("_walk_points", "_twist", "_mul", "count_points_bsgs", "count_points_naive"):
        monkeypatch.setattr(eczero.fp, name, _must_not_run(name))
    seen = set()
    for p in (233, 20011, 65537, 1048589, (1 << 40) - 87, 1099511627609):
        assert is_prime(p)
        curves = [FpCurve(p, 0, b) for b in (1, -2, 5)] if p % 3 == 1 else []
        curves += [FpCurve(p, a, 0) for a in (1, -4, 7)] if p % 4 == 1 else []
        for D, j in CM_J_INVARIANTS.items():
            a, b = _j_model(j)
            if D not in (-3, -4) and kronecker_symbol(D, p) == 1:
                curves += [FpCurve(p, a * d * d, b * d**3) for d in (1, 2, 3)]
        for curve in curves:
            seen.add(eczero.fp._cm_disc(curve))
            assert abs(trace_of_frobenius(curve)) <= isqrt(4 * p), curve
    assert seen == set(CM_J_INVARIANTS)


# One primality test per count: reduction_type tests p, and nothing under it
# tests p again (the private FpCurve constructor and Cornacchia kernel).


def _count_is_prime(monkeypatch):
    calls = []
    test = eczero.arith.is_prime
    monkeypatch.setattr(eczero.arith, "is_prime", lambda n: calls.append(n) or test(n))
    return calls


@pytest.mark.parametrize("ab, p, route", [
    ((3, 7), 1000003, "hasse"),
    ((0, 1), 1000003, "cm split"),
    ((0, 1), 1000037, "cm inert"),
    ((-3, -1), 233, "twist"),
])
def test_reduction_type_tests_its_prime_once(monkeypatch, ab, p, route):
    expected = reduction_type(Curve(*ab), p)
    curve = FpCurve(p, *ab)
    D = eczero.fp._cm_disc(curve)
    assert (D is None) == (route in ("hasse", "twist"))
    if D is not None:
        assert kronecker_symbol(D, p) == (-1 if route == "cm inert" else 1)
    twists = []
    twist = eczero.fp._twist
    monkeypatch.setattr(eczero.fp, "_twist", lambda c: twists.append(c) or twist(c))
    calls = _count_is_prime(monkeypatch)
    assert reduction_type(Curve(*ab), p) == expected
    assert calls == [p]
    assert bool(twists) == (route == "twist")


def test_checked_prime_constructor_keeps_every_other_check(monkeypatch):
    calls = _count_is_prime(monkeypatch)
    curve = FpCurve._at_checked_prime(233, -1, 240)
    assert calls == []
    assert curve == FpCurve(233, -1, 240) and (curve.a, curve.b) == (232, 7)
    with pytest.raises(DomainError, match="singular"):
        FpCurve._at_checked_prime(233, 230, 235)  # x^3 - 3x + 2 = (x - 1)^2 (x + 2) mod 233


# The local layer and the residue table test p once too: each entry calls
# require_curve_prime, and the curves it reduces and counts skip that test.
_ENTRIES_AT_A_TESTED_PRIME = {
    "anomalous_residues_d3": (anomalous_residues_d3, 96661),
    "lift_p_torsion": (lambda p: lift_p_torsion(Curve(0, -2), p, FpPoint(3, 5), 16), 7),
    "decompose_point": (lambda p: decompose_point(Curve(0, 5), QPoint.from_pair(-1, 2), p, 16), 7),
    "formal_t_valuation": (lambda p: formal_t_valuation(Curve(0, 5), QPoint.from_pair(-1, 2), p), 7),
}


@pytest.mark.parametrize("name", sorted(_ENTRIES_AT_A_TESTED_PRIME))
def test_local_and_residue_entries_test_their_prime_once(monkeypatch, name):
    # 8911 = 7 * 11 * 13 * 89 is a Carmichael number, 1 mod 6
    entry, p = _ENTRIES_AT_A_TESTED_PRIME[name]
    expected = entry(p)
    calls = _count_is_prime(monkeypatch)
    assert entry(p) == expected
    assert calls == [p]
    for composite in (8911, 3215031751):
        with pytest.raises(DomainError):
            entry(composite)


@pytest.mark.parametrize("p", [1000001, 3215031751])
def test_a_composite_p_still_raises_at_every_public_entry(p):
    # 3215031751 passes Miller-Rabin to the bases 2, 3, 5 and 7
    with pytest.raises(DomainError):
        reduction_type(Curve(3, 7), p)
    with pytest.raises(DomainError):
        FpCurve(p, 3, 7)
    with pytest.raises(DomainError):
        cornacchia(3, p)
    with pytest.raises(DomainError):
        count_points(FpCurve(p, 0, 1))


# sha256 of the lines "p,a,b,N" of _pinned_count_lines, pinned from a kill
# step that added one step at a time, so batched additions keep every count.
COUNT_PIN_SHA256 = "1e8b307acea02cc49195546a13f841462d27debf17f3f1d2b2b1f7509c3e9995"


def _pinned_count_lines():
    # One seeded prime of each bit size from 9 to 40, and at each the six
    # trace-sweep curves (where nonsingular) and one random curve.
    rng = random.Random(2740)
    for bits in range(9, 41):
        p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        while not is_prime(p):
            p += 2
        assert p.bit_length() == bits
        models = [ab for ab in SWEEP_CURVES if (4 * ab[0] ** 3 + 27 * ab[1] ** 2) % p]
        while True:
            ab = rng.randrange(p), rng.randrange(p)
            if (4 * ab[0] ** 3 + 27 * ab[1] ** 2) % p:
                break
        for a, b in models + [ab]:
            curve = FpCurve(p, a, b)
            yield f"{p},{curve.a},{curve.b},{count_points(curve)}\n"


def test_counts_at_every_bit_size_match_the_pin():
    lines = list(_pinned_count_lines())
    assert len(lines) == 224
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == COUNT_PIN_SHA256
