import random
import re
import tracemalloc
from math import isqrt

import pytest

import eczero.fp
from eczero.arith import is_prime, kronecker_symbol
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

from oracles import cm_trace_oracle

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
    curve = FpCurve.__new__(FpCurve)
    object.__setattr__(curve, "p", (1 << 41) + 81)
    object.__setattr__(curve, "a", 1)
    object.__setattr__(curve, "b", 1)
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
    # naive sweep is neither the route nor a fallback.
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
            assert count_points(curve) == naive(curve), curve
    assert len(classes) == 4


def test_bsgs_matches_cm_trace_oracle_up_to_2_40():
    # Above 2^16 no sweep can check BSGS; the j = 0 and j = 1728 traces are
    # read off Cornacchia instead, at primes log-uniform in [2^17, 2^40]
    # that cycle through the four classes of ((-2|p), (-3|p)).
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
            assert count_points(curve) == p + 1 - cm_trace_oracle(curve, rng), curve
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
    # number in the millions and must not be listed.
    p = 1099511627609
    curve = FpCurve(p, *ab)
    tracemalloc.start()
    try:
        n = count_points(curve)
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


def test_kill_set_intersection_matches_set_intersection():
    # A small order's kill set is kept as the progression of its multiples
    # in [lo, lo + width); intersecting must agree with the sets it stands for.
    lo, width = 1000, 127
    rng = random.Random(4)
    for _ in range(300):
        steps = (rng.randint(1, 40), rng.randint(1, 40))
        u, v = (range(lo + (-lo) % k, lo + width, k) for k in steps)
        hits = set(rng.sample(range(lo, lo + width), rng.randint(0, 12)))
        for x, y in ((u, v), (u, hits), (hits, v), (hits, set(v))):
            assert set(eczero.fp._intersect(x, y, lo, width)) == set(x) & set(y)


def _ambiguous(curve, lo, width):
    return range(lo, lo + width)


def test_ambiguous_bsgs_falls_back_to_naive_up_to_2_16(monkeypatch):
    curve = FpCurve(20011, 3, 7)
    expected = count_points_naive(curve)
    monkeypatch.setattr(eczero.fp, "_order_candidates", _ambiguous)
    assert count_points_bsgs(curve) == expected


def test_ambiguous_bsgs_raises_above_2_16(monkeypatch):
    curve = FpCurve((1 << 20) + 7, 2, 3)
    monkeypatch.setattr(eczero.fp, "_order_candidates", _ambiguous)
    monkeypatch.setattr(eczero.fp, "count_points_naive", _naive_must_not_run)
    with pytest.raises(InternalConsistencyError, match=re.escape(str(curve))):
        count_points(curve)
