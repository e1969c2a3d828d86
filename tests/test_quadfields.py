import random
from fractions import Fraction

import pytest

from eczero.arith import is_prime
from eczero.errors import DomainError, UnsupportedModulusError
from eczero.fp import FpCurve, count_points, is_anomalous
from eczero.quadfields import (
    CLASS_NUMBER_ONE_DISCS,
    RESIDUE_LIMIT,
    ImagQuadField,
    anomalous_primes,
    anomalous_residues_d3,
    has_cm,
    is_frobenius_trace,
    splits_completely,
)

from eczero.rational import Curve

from oracles import count_points_oracle, outcomes_within

K3 = ImagQuadField(-3)
K11 = ImagQuadField(-11)
K19 = ImagQuadField(-19)


# One curve for each of the 13 rational CM j-invariants, keyed by the
# discriminant of its endomorphism ring, with that j (Cox, Primes of the Form
# x^2 + ny^2, Sec. 13): nine maximal orders, then the four of conductor 2, 2,
# 3 and 2 (D = -12, -16, -27, -28), whose fields already have a j_D.
CM_CURVES = {
    -3: (0, 1, 0),
    -4: (1, 0, 1728),
    -7: (-35, -98, -3375),
    -8: (-30, 56, 8000),
    -11: (-264, 1694, -32768),
    -19: (-152, 722, -884736),
    -43: (-3440, 77658, -884736000),
    -67: (-29480, 1948226, -147197952000),
    -163: (-8697680, 9873093538, -262537412640768000),
    -12: (-15, 22, 54000),
    -16: (-11, -14, 287496),
    -27: (-120, 506, -12288000),
    -28: (-595, 5586, 16581375),
}


def test_has_cm_holds_for_the_own_maximal_order_only():
    # j(E) = j_D decides CM by O_D over Q: each curve, its quadratic twists
    # and its rescaled models pass for their own maximal order and for no
    # other field, and the four non-maximal orders pass for none.
    assert len(CM_CURVES) == 13 and len({j for _, _, j in CM_CURVES.values()}) == 13
    for D, (a, b, j) in CM_CURVES.items():
        for d, u in ((1, 1), (-1, 1), (5, 1), (1, 3), (-7, 2)):
            curve = Curve(a * d * d * u**4, b * d**3 * u**6)
            assert Fraction(1728 * 4 * curve.a**3, 4 * curve.a**3 + 27 * curve.b**2) == j
            passes = [K for K in CLASS_NUMBER_ONE_DISCS if has_cm(curve, ImagQuadField(K))]
            assert passes == ([D] if D in CLASS_NUMBER_ONE_DISCS else []), (D, d, u)
    for curve in (Curve(3, -2), Curve(7, 49), Curve(-1, 1), Curve(1, 1)):
        assert not any(has_cm(curve, ImagQuadField(K)) for K in CLASS_NUMBER_ONE_DISCS), curve


def test_field_validation():
    for D in CLASS_NUMBER_ONE_DISCS:
        ImagQuadField(D)
    with pytest.raises(DomainError):
        ImagQuadField(-5)
    with pytest.raises(DomainError):
        ImagQuadField(3)


def test_splits_completely_examples():
    assert splits_completely(K3, 7)
    assert not splits_completely(K3, 5)
    assert splits_completely(K11, 223)


def test_is_frobenius_trace_examples():
    assert is_frobenius_trace(K3, 7, 1)  # 28 = 1 + 3 * 3^2
    assert is_frobenius_trace(K19, 43, 1)  # 172 = 1 + 19 * 3^2
    assert not is_frobenius_trace(K3, 7, 2)
    assert not is_frobenius_trace(K3, 5, 1)  # 5 is inert in Q(sqrt(-3))
    assert not is_frobenius_trace(K3, 7, 6)  # 4p - a^2 < 0
    with pytest.raises(DomainError):
        is_frobenius_trace(K3, 9, 1)


def test_is_frobenius_trace_brute_force():
    # against every v in the range 4p = a^2 + |D| v^2 allows, for split p < 200
    for D in CLASS_NUMBER_ONE_DISCS:
        field = ImagQuadField(D)
        for p in range(5, 200):
            if not is_prime(p) or not splits_completely(field, p):
                continue
            bound = 2 * int(p**0.5) + 2
            traces = {a for a in range(-bound, bound + 1) for v in range(bound + 1) if 4 * p == a * a - D * v * v}
            assert traces, (D, p)
            for a in range(-bound - 2, bound + 3):
                assert is_frobenius_trace(field, p, a) == (a in traces), (D, p, a)


def test_anomalous_primes_d3():
    got = anomalous_primes(K3, 100)
    assert got == [7, 19, 37, 61]
    for p in got:
        assert is_prime(p)
        v = round(((4 * p - 1) / 3) ** 0.5)
        assert 4 * p == 1 + 3 * v * v


def test_anomalous_primes_refuses_bound_below_5():
    with pytest.raises(DomainError, match="^bound must be >= 5$"):
        anomalous_primes(K3, 4)


def test_anomalous_primes_refuses_bounds_past_2_40_at_once():
    # No anomalous prime past 2^40 can be counted, and the enumeration grows
    # like sqrt(bound): the bound is refused before the loop starts.
    calls = [f"anomalous_primes(ImagQuadField(-3), {2**40 + 1})", "anomalous_primes(ImagQuadField(-3), 10**20)"]
    setup = "from eczero.quadfields import ImagQuadField, anomalous_primes"
    assert outcomes_within(setup, calls) == ["UnsupportedModulusError"] * 2


def test_anomalous_residues_refuse_p_past_the_limit_at_once():
    # the residue loop is linear in p: 1,000,556,719 = (1 + 3 * 36525^2) / 4
    # is an anomalous prime that would take about half an hour
    calls = [f"anomalous_residues_d3({RESIDUE_LIMIT + 1})", "anomalous_residues_d3(1000556719)"]
    setup = "from eczero.quadfields import anomalous_residues_d3"
    assert outcomes_within(setup, calls) == ["UnsupportedModulusError"] * 2
    with pytest.raises(UnsupportedModulusError, match=f"^anomalous residues are listed for p <= {RESIDUE_LIMIT}, got"):
        anomalous_residues_d3(RESIDUE_LIMIT + 1)
    largest = max(anomalous_primes(K3, RESIDUE_LIMIT))
    assert len(anomalous_residues_d3(largest)) == (largest - 1) // 6
    assert RESIDUE_LIMIT == 10**5  # the bound the README documents


def test_anomalous_primes_other_fields():
    assert anomalous_primes(ImagQuadField(-163), 40) == []
    assert anomalous_primes(ImagQuadField(-4), 500) == []
    assert anomalous_primes(ImagQuadField(-8), 500) == []
    assert anomalous_primes(ImagQuadField(-7), 500) == []
    assert 223 in anomalous_primes(K11, 250)
    assert 43 in anomalous_primes(K19, 50)


def test_anomalous_primes_members_split():
    for D in (-3, -11, -19, -43, -67, -163):
        field = ImagQuadField(D)
        for p in anomalous_primes(field, 2000):
            assert splits_completely(field, p)


def test_anomalous_prime_19_has_anomalous_curve():
    assert 19 in anomalous_primes(K3, 100)
    cs = anomalous_residues_d3(19)
    assert len(cs) == 3
    assert is_anomalous(FpCurve(19, 0, cs[0]))


def test_anomalous_residues_examples():
    assert anomalous_residues_d3(7) == [5]
    assert count_points(FpCurve(7, 0, 5)) == 7
    assert len(anomalous_residues_d3(19)) == 3
    assert len(anomalous_residues_d3(37)) == 6
    assert len(anomalous_residues_d3(61)) == 10


def test_anomalous_residues_complete_classification():
    # brute force over F_p^2: independent of is_anomalous, which the function calls
    for p in (7, 19, 37):
        members = set(anomalous_residues_d3(p))
        for c in range(1, p):
            assert (count_points_oracle(p, 0, c) == p) == (c in members)


def test_anomalous_residues_rejects_bad_prime():
    with pytest.raises(DomainError):
        anomalous_residues_d3(11)
    with pytest.raises(DomainError):
        anomalous_residues_d3(13)


def test_anomalous_residues_match_per_curve_counts():
    # one count per curve, against the one count per sextic class the function makes
    for p in anomalous_primes(K3, 400):
        expected = [c for c in range(1, p) if count_points(FpCurve(p, 0, c)) == p]
        assert anomalous_residues_d3(p) == expected, p


def test_anomalous_residues_large_prime_sampled():
    p = 8269  # 4 * 8269 = 1 + 3 * 105^2
    residues = anomalous_residues_d3(p)
    assert len(residues) == (p - 1) // 6 == 1378
    members = set(residues)
    rng = random.Random(8269)
    for c in rng.sample(residues, 12):
        assert count_points(FpCurve(p, 0, c)) == p
    others = [c for c in range(1, p) if c not in members]
    for c in rng.sample(others, 12):
        assert count_points(FpCurve(p, 0, c)) != p
