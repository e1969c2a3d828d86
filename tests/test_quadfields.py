import pytest

from eczero.arith import is_prime
from eczero.errors import DomainError, NoSolutionError
from eczero.fp import FpCurve, count_points, is_anomalous
from eczero.quadfields import (
    CLASS_NUMBER_ONE_DISCS,
    FrobeniusPair,
    ImagQuadField,
    anomalous_primes,
    anomalous_residues_d3,
    frobenius_candidates,
    splits_completely,
)

from oracles import count_points_oracle

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


def test_frobenius_candidates_examples():
    assert frobenius_candidates(K3, 7, 1) == FrobeniusPair(1, 3, -3)
    assert frobenius_candidates(K19, 43, 1) == FrobeniusPair(1, 3, -19)
    with pytest.raises(NoSolutionError):
        frobenius_candidates(K3, 7, 2)


def test_frobenius_candidates_norm_identity():
    for p in (7, 19, 37, 61):
        pair = frobenius_candidates(K3, p, 1)
        assert pair.norm_times_4 == 4 * p


def test_anomalous_primes_d3():
    got = anomalous_primes(K3, 100)
    assert got == [7, 19, 37, 61]
    for p in got:
        assert is_prime(p)
        v = round(((4 * p - 1) / 3) ** 0.5)
        assert 4 * p == 1 + 3 * v * v


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
