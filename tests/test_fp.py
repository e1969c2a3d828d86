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
    # called directly: count_points takes these traces from Cornacchia, so
    # checking it here would check Cornacchia against itself.
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
    # _add_many is _add with one inversion per list.  At seeded primes from 5
    # to 2^40, lists that mix chords with the identity on either side, P = Q,
    # P = -Q and a 2-torsion point doubled to O, in a shuffled order, must
    # give _add's result at every position, alone or together.
    rng = random.Random(2727)
    add, add_many = eczero.fp._add, eczero.fp._add_many
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
        expected = [add(p, curve.a, R, S) for R, S in pairs]
        assert add_many(p, curve.a, pairs) == expected, p
        assert [add_many(p, curve.a, [pair])[0] for pair in pairs] == expected, p
        assert expected.count(O) >= 3 and add(p, curve.a, T, T) == O


def test_kill_step_makes_no_unused_addition(monkeypatch):
    # A point of prime order N near p has one hit in the Hasse interval, so
    # its kill step walks every baby and every giant step.  The baby blocks
    # add the m - 1 steps after P; the giant blocks add the giant steps after
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
        assert giant_calls >= 2 and len(sizes) == baby_calls + giant_calls, p
        assert sum(sizes[:baby_calls]) == m - 1, p
        assert sum(sizes[baby_calls:]) == (giants - 1) + (giant_calls - 1), p


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


def _ambiguous(curve, cands):
    return cands


# Each pair: a curve counted from the Hasse interval, and a CM curve at a
# split prime, counted from its CM orders.
_AMBIGUOUS_SMALL = (FpCurve(20011, 3, 7), FpCurve(20011, 0, 1))
_AMBIGUOUS_LARGE = (FpCurve((1 << 20) + 7, 2, 3), FpCurve(1048589, -4, 0))


def test_ambiguous_bsgs_falls_back_to_naive_up_to_2_16(monkeypatch):
    expected = [count_points_naive(curve) for curve in _AMBIGUOUS_SMALL]
    calls = []
    monkeypatch.setattr(eczero.fp, "count_points_naive", lambda c: calls.append(c) or count_points_naive(c))
    monkeypatch.setattr(eczero.fp, "_order_candidates", _ambiguous)
    assert [eczero.fp._cm_disc(curve) for curve in _AMBIGUOUS_SMALL] == [None, -3]
    assert kronecker_symbol(-3, 20011) == 1
    assert [count_points(curve) for curve in _AMBIGUOUS_SMALL] == expected
    assert calls == list(_AMBIGUOUS_SMALL)


def test_ambiguous_bsgs_raises_above_2_16(monkeypatch):
    monkeypatch.setattr(eczero.fp, "_order_candidates", _ambiguous)
    monkeypatch.setattr(eczero.fp, "count_points_naive", _naive_must_not_run)
    assert [eczero.fp._cm_disc(curve) for curve in _AMBIGUOUS_LARGE] == [None, -4]
    assert kronecker_symbol(-4, 1048589) == 1
    for curve in _AMBIGUOUS_LARGE:
        with pytest.raises(InternalConsistencyError, match=re.escape(str(curve))):
            count_points(curve)


def test_a_walk_without_hits_ends_in_the_fallback(monkeypatch):
    # No kill step (0, which only a bug gives) leaves no candidate, so the
    # count ends in the sweep up to 2^16 and in an error above, never in a
    # TypeError.
    monkeypatch.setattr(eczero.fp, "_kill_step", lambda curve, P, lo, width: 0)
    small, large = _AMBIGUOUS_SMALL[0], _AMBIGUOUS_LARGE[0]
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


def test_cm_traces_are_every_frobenius_trace_of_O_D():
    # The unit orbit of Cornacchia's representation gives every t with
    # 4p = t^2 + |D| v^2, checked for all nine D at every split prime to 2^11.
    split = 0
    for p in range(231, 2**11, 2):
        if not is_prime(p):
            continue
        bound = isqrt(4 * p)
        for D in CM_J_INVARIANTS:
            if kronecker_symbol(D, p) == 1:
                field = ImagQuadField(D)
                # is_frobenius_trace reads t only through t^2
                expected = {s for t in range(bound + 1) if is_frobenius_trace(field, p, t) for s in (t, -t)}
                assert eczero.fp._cm_traces(D, p) == expected, (D, p)
                split += 1
    assert split > 1000


def _cm_curves(p, rng):
    """(D, curve, model) at p: the short model of each j_D and its quadratic
    twist (model is the curve twisted, or None),
    one random sextic twist y^2 = x^3 + b and one random quartic twist
    y^2 = x^3 + a x.  The model is y^2 = x^3 + 3c x + 2c with
    c = j / (1728 - j), scaled by (1728 - j)^2 to integers; that formula has
    no curve at j = 0 or 1728, where y^2 = x^3 + 1 and y^2 = x^3 + x serve."""
    out = []
    for D, j in CM_J_INVARIANTS.items():
        a, b = {0: (0, 1), 1728: (1, 0)}.get(j, (3 * j * (1728 - j), 2 * j * (1728 - j) ** 2))
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


def test_cm_route_resolves_two_survivors_with_the_twist(monkeypatch):
    # At p = 233 every walked point of y^2 = x^3 + x is killed by two of the
    # CM orders; the twist's points leave one, so neither BSGS nor the
    # sweep runs.
    small = FpCurve(233, 1, 0)
    expected = count_points_naive(small)
    assert len(eczero.fp._order_candidates(small, eczero.fp._cm_orders(small))) == 2
    calls = _spy_bsgs(monkeypatch)
    monkeypatch.setattr(eczero.fp, "count_points_naive", _naive_must_not_run)
    assert count_points(small) == expected
    # Forced: 2t - p - 1 gives the order 2(p + 1 - t), which every point of
    # the true order p + 1 - t survives too.
    curve = FpCurve((1 << 40) - 87, 0, -2)
    expected = count_points_bsgs(curve)
    traces = eczero.fp._cm_traces
    monkeypatch.setattr(
        eczero.fp, "_cm_traces", lambda D, p: {s for t in traces(D, p) for s in (t, 2 * t - p - 1)}
    )
    assert len(eczero.fp._order_candidates(curve, eczero.fp._cm_orders(curve))) > 1
    assert count_points(curve) == expected
    assert calls == []


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
    ((1, 0), 233, "twist"),
])
def test_reduction_type_tests_its_prime_once(monkeypatch, ab, p, route):
    expected = reduction_type(Curve(*ab), p)
    curve = FpCurve(p, *ab)
    D = eczero.fp._cm_disc(curve)
    assert (D is None) == (route == "hasse")
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
