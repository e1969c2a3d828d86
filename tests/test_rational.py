import random
from collections import Counter
from fractions import Fraction

import pytest

import eczero.rational
from eczero.arith import sqrt_mod_p
from eczero.errors import DomainError
from eczero.fp import FpCurve, FpPoint, fp_scalar_mul, is_anomalous
from eczero.padic import poly_deriv, poly_eval
from eczero.rational import (
    _SIEVE_MODULI,
    Curve,
    QPoint,
    ReductionKind,
    _minimal_with_scale,
    curve_from_long_weierstrass,
    divpoly_eval_with_derivative,
    long_point_to_short,
    naive_point_search,
    q_add,
    q_neg,
    q_scalar_mul,
    reduction_type,
    torsion_order,
)
from eczero.survey import find_generator

from oracles import (
    division_polynomial,
    generator_oracle,
    point_search_oracle,
    poly_degree,
    torsion_order_oracle,
)


def test_curve_rejects_singular():
    with pytest.raises(DomainError):
        Curve(0, 0)
    with pytest.raises(DomainError):
        Curve(-3, 2)  # 4*(-27) + 27*4 = 0


def test_group_law_over_q():
    E = Curve(0, -2)
    P = QPoint.from_pair(3, 5)
    assert E.contains(P)
    assert q_add(E, P, QPoint.identity()) == P
    assert q_add(E, P, q_neg(P)).is_identity
    twoP = q_add(E, P, P)
    assert E.contains(twoP)
    assert twoP == QPoint(Fraction(129, 100), Fraction(-383, 1000))
    assert q_scalar_mul(E, 2, P) == twoP
    assert q_scalar_mul(E, -1, P) == q_neg(P)


def test_minimal_at_p_examples():
    assert _minimal_with_scale(Curve(-2500, 0), 5)[0] == Curve(-4, 0)
    assert _minimal_with_scale(Curve(-4, 0), 5)[0] == Curve(-4, 0)
    # v_7(a) = 5 allows one strip of u = 7 when b = 0
    assert _minimal_with_scale(Curve(-(7**5), 0), 7)[0] == Curve(-7, 0)
    # non-strippable mixed valuations stay put
    assert _minimal_with_scale(Curve(7**4, 7**5), 7)[0] == Curve(7**4, 7**5)


def test_minimal_at_p_minimizes_discriminant_valuation():
    rng = random.Random(3)
    for _ in range(50):
        p = rng.choice([5, 7, 11])
        a = rng.randrange(-20, 20) * p ** rng.randrange(0, 5)
        b = rng.randrange(-20, 20) * p ** rng.randrange(0, 7)
        try:
            E = Curve(a, b)
        except DomainError:
            continue
        M = _minimal_with_scale(E, p)[0]
        va = 0
        aa = M.a
        while aa and aa % p == 0:
            aa //= p
            va += 1
        bb = M.b
        vb = 0
        while bb and bb % p == 0:
            bb //= p
            vb += 1
        assert M.a == 0 or M.b == 0 or va < 4 or vb < 6


def test_reduction_type_good_cases():
    r = reduction_type(Curve(-4, 0), 13)
    assert r.kind is ReductionKind.GOOD_ORDINARY and not r.anomalous
    r = reduction_type(Curve(0, -2), 7)
    assert r.kind is ReductionKind.GOOD_ORDINARY and r.anomalous and r.trace == 1
    r = reduction_type(Curve(0, -2), 5)
    assert r.kind is ReductionKind.GOOD_SUPERSINGULAR


def test_reduction_type_good_iff_minimal_disc_coprime():
    rng = random.Random(8)
    for _ in range(60):
        p = rng.choice([5, 7, 11, 13])
        try:
            E = Curve(rng.randrange(-30, 30), rng.randrange(-30, 30))
        except DomainError:
            continue
        good = reduction_type(E, p).kind.is_good
        assert good == (_minimal_with_scale(E, p)[0].discriminant % p != 0)


def test_reduction_type_multiplicative_split_test():
    # y^2 = x^3 - x + 5 has a node at p = 11 with tangent slopes^2 = 3*x0
    E = Curve(-1, 5)
    assert E.discriminant % 11 == 0
    r = reduction_type(E, 11)
    # independent check via the singular-point tangent slopes
    roots = [x for x in range(11) if (x**3 - x + 5) % 11 == 0]
    x0 = next(x for x in roots if (3 * x * x - 1) % 11 == 0)
    slopes_rational = sqrt_mod_p(3 * x0 % 11, 11) is not None
    assert r.kind is (
        ReductionKind.SPLIT_MULTIPLICATIVE
        if slopes_rational
        else ReductionKind.NONSPLIT_MULTIPLICATIVE
    )
    assert r.kind is ReductionKind.NONSPLIT_MULTIPLICATIVE


def test_reduction_type_split_multiplicative_case():
    # force a split node: need -c6 = 864*b a square mod p with p | disc, p !| c4
    found = None
    for b in range(1, 60):
        for p in (11, 13, 17, 19, 23):
            try:
                E = Curve(-1, b)
            except DomainError:
                continue
            if E.discriminant % p == 0 and E.c4 % p != 0:
                r = reduction_type(E, p)
                roots = [x for x in range(p) if (x**3 - x + b) % p == 0]
                x0 = next(x for x in roots if (3 * x * x - 1) % p == 0)
                rational = sqrt_mod_p(3 * x0 % p, p) is not None
                expect = (
                    ReductionKind.SPLIT_MULTIPLICATIVE
                    if rational
                    else ReductionKind.NONSPLIT_MULTIPLICATIVE
                )
                assert r.kind is expect
                if rational:
                    found = (b, p)
    assert found is not None


def test_reduction_type_additive():
    assert reduction_type(Curve(5, 25), 5).kind is ReductionKind.ADDITIVE


def test_anomalous_flag_matches_fp_route():
    for n in (-3, 0, 1, 4):
        E = Curve(0, -2 + 7 * n)
        r = reduction_type(E, 7)
        assert r.anomalous == is_anomalous(FpCurve(7, 0, (-2 + 7 * n) % 7))


def test_naive_point_search_examples():
    pts = naive_point_search(Curve(0, -2), 10)
    assert QPoint.from_pair(3, 5) in pts
    pts = naive_point_search(Curve(0, 1), 10)
    for xy in ((-1, 0), (0, 1), (2, 3)):
        assert QPoint.from_pair(*xy) in pts
    assert naive_point_search(Curve(0, 6), 5) == []


def test_naive_point_search_fractional_hits():
    pts = naive_point_search(Curve(-4, 1), 10)
    assert QPoint(Fraction(1, 4), Fraction(1, 8)) in pts
    assert QPoint(Fraction(1, 4), Fraction(-1, 8)) in pts


def test_naive_point_search_exactness_and_order():
    E = Curve(-7, 10)
    pts = naive_point_search(E, 50)
    assert pts, "curve 496a-like model should have small points"
    heights = []
    for P in pts:
        assert E.contains(P)
        heights.append(max(abs(P.x.numerator), P.x.denominator))
    assert heights == sorted(heights)


SEARCH_CURVES = [
    (0, -2), (-4, 0), (-1056, 13552), (-152, 722),  # the paper's CM curves
    (-4, 1),  # points with x = 1/4
    (0, 17),  # eight integral points up to x = 5234
    (-1, 0), (-25, 0), (-36, 0), (0, 1),  # 2-torsion points with y = 0
    # H^3 (1 + |a| + |b|) >= 2^62 at H = 300, past any int64 sieve
    (10**9 + 7, -3 * 10**12), (-(10**12), 0), (10**9, 1562250312500),
]


def test_point_search_matches_brute_force():
    rng = random.Random(2402)
    curves = SEARCH_CURVES + [(rng.randrange(-300, 300), rng.randrange(-3000, 3000)) for _ in range(12)]
    found = 0
    for a, b in curves:
        try:
            E = Curve(a, b)
        except DomainError:
            continue
        for height in (1, 2, 7, 30, 300):
            got = naive_point_search(E, height)
            assert got == point_search_oracle(E, height), (a, b, height)
            assert max(Counter(P.x for P in got).values(), default=0) <= 2
            found += len(got)
    assert found > 100


def test_find_generator_matches_brute_force():
    # the search stops at the first row that cannot beat its best point, so it
    # must still give the first infinite-order point of the whole box
    rng = random.Random(1207)
    curves = SEARCH_CURVES + [(rng.randrange(-300, 300), rng.randrange(-3000, 3000)) for _ in range(12)]
    found = 0
    for a, b in curves:
        try:
            E = Curve(a, b)
        except DomainError:
            continue
        for height in (1, 2, 4, 9, 30, 300):  # 4 and 9 close the rows e = 2 and 3
            got = find_generator(E, height)
            assert got == generator_oracle(E, height), (a, b, height)
            found += got is not None
    assert found > 20


# (a, b, generator at H = 30, whether a torsion point comes first), found by
# brute force over |a| <= 12, |b| <= 40
@pytest.mark.parametrize(
    "a, b, gen, torsion_first",
    [
        (-10, -24, (22, -102), True),  # after the 2-torsion point (4, 0)
        (-9, -10, (Fraction(-7, 4), Fraction(-5, 8)), True),  # in row e = 2, after (-2, 0)
        (-12, -6, (Fraction(-5, 9), Fraction(-19, 27)), False),  # in row e = 3, naive height e^2 = 9
    ],
)
def test_find_generator_at_row_boundaries(a, b, gen, torsion_first):
    E = Curve(a, b)
    assert find_generator(E, 30) == QPoint.from_pair(*gen) == generator_oracle(E, 30)
    assert (torsion_order(E, naive_point_search(E, 30)[0]) is not None) == torsion_first


def test_find_generator_does_not_stop_on_a_tie_in_height():
    # Row 1 of y^2 = x^3 - 7x + 28 holds the infinite-order point (4, -8) of
    # naive height 4 = (1 + 1)^2; row 2 holds (1/4, -41/8), of the same height
    # and smaller x.  Stopping after row 1 would return the wrong one.
    E = Curve(-7, 28)
    rival, gen = QPoint.from_pair(4, -8), QPoint(Fraction(1, 4), Fraction(-41, 8))
    assert torsion_order(E, rival) is None
    assert rival.height_key()[0] == gen.height_key()[0] == 4
    for height in (4, 30):
        assert find_generator(E, height) == gen == generator_oracle(E, height)


def _search_recording_misses(monkeypatch, curve, height):
    # {key: rows built for it} over the sieve keys one search asks for
    built = Counter()
    real = eczero.rational._sieve_row

    def recording(*key):
        misses = real.cache_info().misses
        row = real(*key)
        built[key] += real.cache_info().misses - misses
        return row

    monkeypatch.setattr(eczero.rational, "_sieve_row", recording)
    naive_point_search(curve, height)
    monkeypatch.setattr(eczero.rational, "_sieve_row", real)
    return built


def test_sieve_rows_come_from_one_bounded_cache(monkeypatch):
    cache = eczero.rational._sieve_row
    assert cache.cache_info().maxsize == sum(_SIEVE_MODULI) == 730
    E, height = Curve(-7, 10), 10**4
    cache.cache_clear()
    built = _search_recording_misses(monkeypatch, E, height)
    # a key depends on the row e only through e mod q
    assert set(built) <= {(q, E.a * e**4 % q, E.b * e**6 % q, height) for q in _SIEVE_MODULI for e in range(q)}
    info = cache.cache_info()
    assert set(built.values()) == {1}
    assert info.misses == info.currsize == len(built) <= sum(_SIEVE_MODULI)
    assert info.hits > 0

    # a repeat search adds no misses
    again = _search_recording_misses(monkeypatch, E, height)
    assert set(again) == set(built) and sum(again.values()) == 0

    # on a cache filled with other curves' rows, the search still builds each
    # of its rows at most once: no row it uses is evicted while it runs
    for b in range(11, 31):
        naive_point_search(Curve(-7, b), height)
    assert cache.cache_info().currsize == sum(_SIEVE_MODULI)
    warm = _search_recording_misses(monkeypatch, E, height)
    assert set(warm) == set(built) and max(warm.values()) == 1
    assert cache.cache_info().currsize == sum(_SIEVE_MODULI)


# members of the criterion-9 family y^2 = x^3 + (-2 + 7n) and of one with a != 0
_FAMILIES = [[Curve(0, -2 + 7 * n) for n in range(-4, 5)], [Curve(n - 3, 2 * n + 5) for n in range(9)]]


@pytest.mark.parametrize("height", [1, 30, 10**4])
def test_point_search_does_not_depend_on_the_cache(height):
    cache = eczero.rational._sieve_row
    for family in _FAMILIES:
        for i, E in enumerate(family):
            cache.cache_clear()
            cold = naive_point_search(E, height), find_generator(E, height)
            cache.cache_clear()
            for other in family[:i] + family[i + 1:]:
                naive_point_search(other, height)
                find_generator(other, 2 * height)
            assert (naive_point_search(E, height), find_generator(E, height)) == cold, (E, height)


def _tate_normal_form(b: int, c: int) -> tuple[Curve, QPoint]:
    # y^2 + (1 - c)xy - by = x^3 - bx^2 with the point (0, 0), on the short model
    ai = [1 - c, -b, -b, 0, 0]
    return curve_from_long_weierstrass(ai), long_point_to_short(ai, 0, 0)


# order -> an integral short model and a point of that order on it
TORSION_EXAMPLES = {
    1: (Curve(0, -2), QPoint.identity()),
    2: (Curve(0, 1), QPoint.from_pair(-1, 0)),
    3: (Curve(0, 1), QPoint.from_pair(0, 1)),
    4: (Curve(4, 0), QPoint.from_pair(2, 4)),
    5: _tate_normal_form(1, 1),
    6: (Curve(0, 1), QPoint.from_pair(2, 3)),
    7: _tate_normal_form(4, 2),
    8: _tate_normal_form(6, -6),
    9: _tate_normal_form(12, 4),
    10: _tate_normal_form(24, 6),
    12: _tate_normal_form(210, -42),
}


def test_torsion_order_on_points_of_every_order():
    for order, (E, T) in TORSION_EXAMPLES.items():
        assert E.contains(T)
        assert torsion_order(E, T) == torsion_order_oracle(E, T) == order
        # every multiple kT has order order / gcd(k, order)
        Q = T
        for k in range(1, order + 1):
            assert torsion_order(E, Q) == torsion_order_oracle(E, Q)
            Q = q_add(E, Q, T)


def test_torsion_order_on_criterion_9_search_hits():
    for n in range(-200, 201):
        E = Curve(0, -2 + 7 * n)
        for P in naive_point_search(E, 300):
            assert torsion_order(E, P) == torsion_order_oracle(E, P), (n, P)


def test_torsion_order_on_integral_twist_points():
    # the twist of y^2 = x^3 + Ax + B by d = x0^3 + A x0 + B carries the
    # integral point (d x0, d^2); integrality alone cannot certify it
    rng = random.Random(43)
    for A, B in ((-152, 722), (-1056, 13552), (0, -2), (-4, 1)):
        for _ in range(8):
            x0 = rng.choice((1, -1)) * rng.randrange(2, 5000)
            d = x0**3 + A * x0 + B
            if d == 0:
                continue
            E = Curve(A * d * d, B * d**3)
            P = QPoint.from_pair(d * x0, d * d)
            assert E.contains(P)
            assert torsion_order(E, P) == torsion_order_oracle(E, P)


# Tate normal forms (b(t), c(t)) whose point (0, 0) has the given order
TATE_FAMILIES = {
    4: lambda t: (t, 0),
    5: lambda t: (t, t),
    6: lambda t: (t + t * t, t),
    7: lambda t: (t**3 - t * t, t * t - t),
    9: lambda t: (t * t * (t - 1) * (t * t - t + 1), t * t * (t - 1)),
}


def test_torsion_order_on_random_curves_and_points():
    rng = random.Random(2024)
    cases = []
    while len(cases) < 150:
        # a random multiple of (0, 0) on a Tate normal form, from a torsion
        # family or with free (b, c), which mostly gives infinite order
        if rng.random() < 0.5:
            b, c = rng.choice(list(TATE_FAMILIES.values()))(rng.randrange(-40, 41))
        else:
            b, c = rng.randrange(-40, 41), rng.randrange(-40, 41)
        try:
            E, T = _tate_normal_form(b, c)
        except DomainError:
            continue
        cases.append((E, q_scalar_mul(E, rng.randrange(1, 13), T)))
        # the sum of two search hits on a random short model
        a, b = rng.randrange(-60, 61), rng.randrange(-60, 61)
        if 4 * a**3 + 27 * b**2 == 0:
            continue
        E = Curve(a, b)
        points = naive_point_search(E, 40)
        if points:
            cases.append((E, q_add(E, rng.choice(points), rng.choice(points))))
    orders = [torsion_order(E, P) for E, P in cases]
    assert orders == [torsion_order_oracle(E, P) for E, P in cases]
    assert sum(m is None for m in orders) >= 30 and sum(m not in (None, 1) for m in orders) >= 30


def test_division_polynomial_psi3():
    E = Curve(-11, 14)
    got = division_polynomial(E, 3)
    a, b = E.a, E.b
    assert got == [-a * a, 12 * b, 6 * a, 0, 3]


def test_division_polynomial_degree():
    E = Curve(0, -2)
    assert poly_degree(division_polynomial(E, 7)) == 24
    assert poly_degree(division_polynomial(E, 5)) == 12
    assert poly_degree(division_polynomial(E, 9)) == 40


def test_division_polynomial_rejects_even_or_small():
    with pytest.raises(DomainError):
        division_polynomial(Curve(0, -2), 4)
    with pytest.raises(DomainError):
        division_polynomial(Curve(0, -2), 1)


def test_five_torsion_root():
    # short model of the conductor-11 curve with rational 5-torsion
    ai = [0, -1, 1, 0, 0]
    E = curve_from_long_weierstrass(ai)
    assert (E.a, E.b) == (-432, 8208)
    T = long_point_to_short(ai, 0, 0)
    assert T == QPoint.from_pair(-12, 108)
    assert E.contains(T)
    assert q_scalar_mul(E, 5, T).is_identity
    assert not q_scalar_mul(E, 2, T).is_identity
    assert poly_eval(division_polynomial(E, 5), -12) == 0


def test_psi3_behavior_on_torsion_and_nontorsion():
    E = Curve(0, 1)
    T = QPoint.from_pair(0, 1)
    assert q_scalar_mul(E, 3, T).is_identity
    assert poly_eval(division_polynomial(E, 3), 0) == 0
    E2 = Curve(0, -2)
    assert poly_eval(division_polynomial(E2, 3), 3) == 171 != 0


def test_divpoly_roots_match_fp_torsion():
    # independent cross-check of the recurrence against the F_p group law
    curve = FpCurve(13, 2, 3)
    E = Curve(2, 3)
    for m in (3, 5, 7):
        psi = division_polynomial(E, m)
        for x in range(13):
            y2 = curve.rhs(x)
            y = sqrt_mod_p(y2, 13)
            if y is None:
                continue
            P = FpPoint(x, y)
            is_root = poly_eval(psi, x, 13) == 0
            killed = fp_scalar_mul(curve, m, P).is_identity
            assert is_root == killed, (m, x)


def test_dual_evaluation_matches_polynomial():
    # every odd m <= 25 reaches the recurrence at n >= 13 with both parities
    # of h = n // 2, at a small and a large prime-power modulus
    rng = random.Random(77)
    E = Curve(-4, 1)
    for mod in (7**10, 223**8):
        assert divpoly_eval_with_derivative(E, 1, rng.randrange(mod), mod) == (1, 0)
        for m in range(3, 26, 2):
            psi = division_polynomial(E, m)
            dpsi = poly_deriv(psi)
            for _ in range(5):
                x0 = rng.randrange(mod)
                v, d = divpoly_eval_with_derivative(E, m, x0, mod)
                assert v == poly_eval(psi, x0, mod)
                assert d == poly_eval(dpsi, x0, mod)


def test_long_weierstrass_examples():
    # already-short input stays identical up to the 6-scaling convention
    E = curve_from_long_weierstrass([0, 0, 0, -4, 1])
    assert (E.a, E.b) == (-4 * 6**4, 1 * 6**6)
    P = long_point_to_short([0, 0, 0, -4, 1], Fraction(1, 4), Fraction(1, 8))
    assert E.contains(P)
