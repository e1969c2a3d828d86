import random

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
    is_frobenius_trace,
    splits_completely,
)

from oracles import count_points_oracle, outcomes_within

K3 = ImagQuadField(-3)
K11 = ImagQuadField(-11)
K19 = ImagQuadField(-19)


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
