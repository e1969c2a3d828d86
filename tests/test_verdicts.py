import dataclasses
import random

import pytest

from eczero.errors import DomainError
from eczero.localpoints import decompose_point
from eczero.quadfields import ImagQuadField
from eczero.rational import Curve, QPoint, ReductionKind, ReductionType
from eczero.verdicts import (
    CITATIONS,
    AdmissibilityConfig,
    Conclusion,
    Fact,
    HypothesisRecord,
    asserted,
    brauer_middle_term_verdict,
    cm_tower_verdict,
    divisibility_verdict,
    global_lift_verdict,
    nd_structure_verdict,
    prime_admissibility,
    quartic_verdict,
    verified,
)

K3 = ImagQuadField(-3)
K11 = ImagQuadField(-11)
K19 = ImagQuadField(-19)

E_QUARTIC = Curve(-4, 0)
E_CUBIC = Curve(0, -2)
E_D11 = Curve(-1056, 13552)
E_D19 = Curve(-152, 722)


def record_for(e1, e2, p, **kw):
    return HypothesisRecord.for_pair(e1, e2, p, **kw)


def self_record(curve, p, field=None):
    return record_for(curve, curve, p, cm_field=field)


def test_divisibility_fires():
    h = record_for(E_QUARTIC, E_QUARTIC, 13, base_unramified=True)
    v = divisibility_verdict(h)
    assert v is not None and v.conclusion is Conclusion.DIVISIBLE
    assert v.citation == CITATIONS[Conclusion.DIVISIBLE]
    assert any("unramified" in s for s in v.hypotheses_used)
    assert v.conditional  # the unramified flag is an assertion


def test_divisibility_allows_one_supersingular():
    # E_CUBIC is supersingular at 5, E(0,1): y^2=x^3+1 is also supersingular at 5
    h = record_for(E_CUBIC, E_QUARTIC, 5, base_unramified=True)
    assert divisibility_verdict(h) is not None
    h2 = record_for(E_CUBIC, Curve(0, 1), 5, base_unramified=True)
    assert divisibility_verdict(h2) is None  # both supersingular


def test_divisibility_refusals():
    assert divisibility_verdict(record_for(E_QUARTIC, E_QUARTIC, 13)) is None
    h = record_for(E_QUARTIC, E_QUARTIC, 13, base_unramified=False)
    assert divisibility_verdict(h) is None
    # p = 2: reduction types are not computable, facts stay absent
    h2 = record_for(E_QUARTIC, E_QUARTIC, 2, base_unramified=True)
    assert divisibility_verdict(h2) is None
    # bad reduction at p: y^2 = x^3 + 25 has additive reduction at 5
    h3 = record_for(Curve(5, 25), E_QUARTIC, 5, base_unramified=True)
    assert divisibility_verdict(h3) is None


def test_nd_structure_fires_and_parameterizes():
    for n in (1, 3):
        h = record_for(
            E_CUBIC,
            E_CUBIC,
            7,
            torsion_level=n,
            wild_ramification=True,
            trivial_ns_action=True,
        )
        v = nd_structure_verdict(h)
        assert v is not None
        assert v.level == n and v.name == f"NdIsZmodPn({n})"


def test_nd_structure_ablations():
    base = dict(torsion_level=1, wild_ramification=True, trivial_ns_action=True)
    assert nd_structure_verdict(record_for(E_CUBIC, E_CUBIC, 7, **base)) is not None
    for missing in ("torsion_level", "wild_ramification", "trivial_ns_action"):
        kw = {k: v for k, v in base.items() if k != missing}
        assert nd_structure_verdict(record_for(E_CUBIC, E_CUBIC, 7, **kw)) is None
    for unfavorable in (dict(wild_ramification=False), dict(trivial_ns_action=False)):
        assert nd_structure_verdict(record_for(E_CUBIC, E_CUBIC, 7, **{**base, **unfavorable})) is None
    # for_pair refuses a level below 1; a record built directly with one fires nothing
    h = dataclasses.replace(record_for(E_CUBIC, E_CUBIC, 7, **base), torsion_level=asserted(0))
    assert nd_structure_verdict(h) is None
    # supersingular factor blocks the rule
    h = record_for(E_CUBIC, E_CUBIC, 5, **base)
    assert nd_structure_verdict(h) is None
    # so does E2 alone: y^2 = x^3 - 4x is supersingular at 7 = 3 mod 4
    h = record_for(E_CUBIC, E_QUARTIC, 7, **base)
    assert h.e1_reduction.value.kind is ReductionKind.GOOD_ORDINARY
    assert h.e2_reduction.value.kind is ReductionKind.GOOD_SUPERSINGULAR
    assert nd_structure_verdict(h) is None


def test_fact_rejects_unknown_provenance():
    with pytest.raises(DomainError, match="^unknown provenance 'guessed'$"):
        Fact(1, "guessed")


def test_cm_tower_verdict():
    h7 = self_record(E_CUBIC, 7, K3)
    v = cm_tower_verdict(h7, 1)
    assert v is not None and v.level == 1
    assert v.conditional  # the tower field is an assertion
    assert "CM by the full ring of integers of Q(sqrt(-3)) (verified)" in v.hypotheses_used
    assert "trivial Neron-Severi Galois action (verified)" in v.hypotheses_used
    assert cm_tower_verdict(h7, 2).level == 2
    # 5 is supersingular for this curve: no ordinary route
    assert cm_tower_verdict(self_record(E_CUBIC, 5, K3), 1) is None
    # no CM fact: no field named, the wrong field, or a curve without CM
    assert cm_tower_verdict(self_record(E_CUBIC, 7), 1) is None
    assert cm_tower_verdict(self_record(E_CUBIC, 7, K19), 1) is None
    assert cm_tower_verdict(self_record(Curve(3, -2), 7, K3), 1) is None
    with pytest.raises(DomainError):
        cm_tower_verdict(h7, 0)


def test_for_pair_verifies_cm_from_j_of_e1():
    assert self_record(E_CUBIC, 7, K3).cm_field == verified(K3)
    assert self_record(E_D19, 43, K19).cm_field == verified(K19)
    assert self_record(E_CUBIC, 7).cm_field is None
    assert self_record(E_CUBIC, 7, K19).cm_field is None
    assert self_record(Curve(3, -2), 7, K3).cm_field is None
    # CM is recorded for a self-product only: a CM E2 lends E1 nothing, and
    # a CM E1 paired with another curve is no CM self-product
    assert record_for(Curve(3, -2), E_CUBIC, 7, cm_field=K3).cm_field is None
    assert record_for(E_CUBIC, Curve(3, -2), 7, cm_field=K3).cm_field is None
    assert record_for(E_CUBIC, Curve(E_CUBIC.a, E_CUBIC.b), 7, cm_field=K3).cm_field == verified(K3)


def test_brauer_middle_term_fires_on_the_three_families():
    for curve, field, p in (
        (E_CUBIC, K3, 7),
        (E_D11, K11, 223),
        (E_D19, K19, 43),
    ):
        out = brauer_middle_term_verdict(self_record(curve, p, field))
        assert {v.conclusion for v in out} == {
            Conclusion.MIDDLE_TERM_ZP_SQUARED,
            Conclusion.BRAUER_P_VANISHES,
        }
        for v in out:
            assert v.citation == CITATIONS[v.conclusion]
            assert not v.conditional  # j(E) = j_D verifies CM
            assert f"CM by the full ring of integers of {field} (verified)" in v.hypotheses_used


def test_brauer_middle_term_ablations():
    # no CM fact: no field named
    assert brauer_middle_term_verdict(self_record(E_CUBIC, 7)) == []
    # curve without CM by O_D: y^2 = x^3 + 3x - 2 is anomalous at the split 7, j = 864
    assert self_record(Curve(3, -2), 7).e1_reduction.value.anomalous
    assert brauer_middle_term_verdict(self_record(Curve(3, -2), 7, K3)) == []
    # wrong field: 7 splits in Q(sqrt(-19)), but j(E_CUBIC) = 0 is j_{-3}
    assert brauer_middle_term_verdict(self_record(E_CUBIC, 7, K19)) == []
    # non-split prime: 4*11 = 1 + 11 v^2 has no solution and 11 is inert-ish
    assert brauer_middle_term_verdict(self_record(E_D11, 11, K11)) == []
    # split but not anomalous: p = 13 splits in Q(sqrt(-3)) but a_13 != 1
    assert brauer_middle_term_verdict(self_record(E_CUBIC, 13, K3)) == []
    # bad reduction at p (and j = 6912/193, no CM either)
    assert brauer_middle_term_verdict(self_record(Curve(7, 49), 7, K3)) == []
    # p < 5
    assert brauer_middle_term_verdict(self_record(E_CUBIC, 3, K3)) == []
    # no reduction type in the record
    assert brauer_middle_term_verdict(HypothesisRecord(prime=verified(7), cm_field=verified(K3))) == []


def test_brauer_middle_term_classifies_for_itself():
    # y^2 = x^3 + 1 is ordinary but not anomalous at the split prime 7.  A
    # caller's anomalous type fires the rule only on its word, never as
    # fully verified; the type for_pair computes fires nothing.
    fake = ReductionType(ReductionKind.GOOD_ORDINARY, trace=1)
    h = HypothesisRecord(prime=verified(7), e1_reduction=asserted(fake), cm_field=verified(K3))
    out = brauer_middle_term_verdict(h)
    assert [v.conclusion for v in out] == [
        Conclusion.MIDDLE_TERM_ZP_SQUARED,
        Conclusion.BRAUER_P_VANISHES,
    ]
    for v in out:
        assert v.conditional
        assert "anomalous reduction: |E(F_7)| = 7 (asserted)" in v.hypotheses_used
        assert "good reduction at 7 (p coprime to the minimal discriminant) (asserted)" in v.hypotheses_used
    assert brauer_middle_term_verdict(self_record(Curve(0, 1), 7, K3)) == []


def test_rules_report_the_record_provenance():
    # a caller-asserted fact keeps its provenance in every rule that reads it
    fake = ReductionType(ReductionKind.GOOD_ORDINARY, trace=3)
    h = HypothesisRecord(prime=verified(7), e1_reduction=asserted(fake), cm_field=asserted(K3))
    v = cm_tower_verdict(h, 1)
    assert "good ordinary reduction at 7 (trace 3) (asserted)" in v.hypotheses_used
    # a hand-asserted CM fact stays asserted, and what follows from it is derived
    assert "CM by the full ring of integers of Q(sqrt(-3)) (asserted)" in v.hypotheses_used
    assert "trivial Neron-Severi Galois action (derived)" in v.hypotheses_used
    h13 = HypothesisRecord(prime=asserted(13), base_unramified=asserted(True))
    assert quartic_verdict(h13)[0].hypotheses_used[0] == "p = 13 = 1 (mod 4) (asserted)"
    with pytest.raises(DomainError):
        prime_admissibility(HypothesisRecord())
    # a record without reduction types cannot pass condition 1
    res = prime_admissibility(HypothesisRecord(prime=verified(7)))
    assert res.reasons[0] == "condition 1: fail (reduction types undetermined in the record)"


def test_brauer_agrees_with_anomalous_and_split_sample():
    from eczero.fp import FpCurve, is_anomalous
    from eczero.quadfields import splits_completely

    rng = random.Random(808)
    count = 0
    for _ in range(200):
        p = rng.choice([7, 11, 13, 19, 31, 37, 43, 61, 223])
        c = rng.randrange(1, p)
        curve = Curve(0, c)
        fires = bool(brauer_middle_term_verdict(self_record(curve, p, K3)))
        expected = splits_completely(K3, p) and is_anomalous(FpCurve(p, 0, c % p))
        assert fires == expected
        count += 1
    assert count == 200


def test_global_lift_verdict():
    prior = brauer_middle_term_verdict(self_record(E_CUBIC, 7, K3))[0]
    dec = decompose_point(E_CUBIC, QPoint.from_pair(3, 5), 7, 16)
    v = global_lift_verdict(dec.t_valuation, prior)
    assert v is not None and v.conclusion is Conclusion.UNCONDITIONAL_EXACTNESS
    # decompose_point certified infinite order; the prior is fully verified
    assert not v.conditional
    assert v.hypotheses_used == (
        "middle term (Z/p)^2 established (verified)",
        "global point of infinite order (verified)",
        "formal component nontrivial (t-valuation 1) (verified)",
    )
    # a conditional prior makes the middle term derived, and the verdict conditional
    h = dataclasses.replace(self_record(E_CUBIC, 7), cm_field=asserted(K3))
    conditional_prior = brauer_middle_term_verdict(h)[0]
    assert conditional_prior.conditional
    v = global_lift_verdict(dec.t_valuation, conditional_prior)
    assert v.conditional and v.hypotheses_used[0] == "middle term (Z/p)^2 established (derived)"
    # trivial formal part: no conclusion, not a disproof
    dec19 = decompose_point(Curve(0, -2 + 7 * 19), QPoint.from_pair(5, -16), 7, 16)
    assert dec19.formal_nontrivial is False
    assert global_lift_verdict(dec19.t_valuation, prior) is None
    # missing or wrong prior verdict
    assert global_lift_verdict(dec.t_valuation, None) is None
    wrong_prior = brauer_middle_term_verdict(self_record(E_CUBIC, 7, K3))[1]
    assert global_lift_verdict(dec.t_valuation, wrong_prior) is None


def test_quartic_verdict():
    flags = HypothesisRecord(prime=verified(13), base_unramified=asserted(True))
    out = quartic_verdict(flags)
    assert [v.conclusion for v in out] == [Conclusion.QUARTIC_ND_2_PRIMARY]
    assert quartic_verdict(dataclasses.replace(flags, prime=verified(7))) == []  # 7 = 3 mod 4
    assert quartic_verdict(HypothesisRecord(prime=verified(13))) == []
    assert quartic_verdict(HypothesisRecord(base_unramified=asserted(True))) == []
    flags_good = dataclasses.replace(flags, surface_good_reduction=asserted(True))
    out = quartic_verdict(flags_good)
    assert [v.conclusion for v in out] == [
        Conclusion.QUARTIC_ND_2_PRIMARY,
        Conclusion.DIVISIBLE,
    ]


def test_prime_admissibility_examples():
    res = prime_admissibility(self_record(E_CUBIC, 7))
    assert res.admissible
    assert all("pass" in r for r in res.reasons)
    res2 = prime_admissibility(self_record(E_CUBIC, 2))
    assert not res2.admissible and "condition 1: fail" in res2.reasons[0]
    res3 = prime_admissibility(self_record(E_CUBIC, 3))
    assert not res3.admissible
    assert any("M = 6" in r and "fail" in r for r in res3.reasons)


def test_prime_admissibility_config():
    h7 = self_record(E_CUBIC, 7)
    res = prime_admissibility(h7, AdmissibilityConfig(isogeny_degree=7))
    assert not res.admissible
    res2 = prime_admissibility(h7, AdmissibilityConfig(bad_fiber_orders=(7, 3)))
    assert not res2.admissible
    res3 = prime_admissibility(
        h7, AdmissibilityConfig(isogeny_degree=2, field_degree=3, bad_fiber_orders=(5,))
    )
    assert res3.admissible
    # supersingular pair fails condition 2
    res4 = prime_admissibility(record_for(E_CUBIC, Curve(0, 1), 5))
    assert not res4.admissible
    assert any("condition 2: fail" in r for r in res4.reasons)


def test_levels_degrees_and_orders_below_1_are_refused():
    # a field degree of -1 once passed with "p coprime to -2", an isogeny
    # degree or bad-fiber order of 0 failed with "p divides ... = 0", and a
    # torsion level of 0 fired nothing
    for n in (0, -1):
        with pytest.raises(DomainError, match="^torsion level n must be >= 1$"):
            record_for(E_CUBIC, E_CUBIC, 7, torsion_level=n)
        for kw, what in (
            (dict(isogeny_degree=n), "isogeny degree"),
            (dict(field_degree=n), "field degree"),
            (dict(bad_fiber_orders=(5, n)), "bad-fiber order"),
        ):
            with pytest.raises(DomainError, match=f"^{what} must be >= 1$"):
                AdmissibilityConfig(**kw)
    # 1 is the least value each accepts
    assert record_for(E_CUBIC, E_CUBIC, 7, torsion_level=1).torsion_level == asserted(1)
    assert AdmissibilityConfig(isogeny_degree=1, field_degree=1, bad_fiber_orders=(1,)).m_constant == 6


def test_monotonicity_unrelated_facts_do_not_change_verdicts():
    h = record_for(E_QUARTIC, E_QUARTIC, 13, base_unramified=True)
    v1 = divisibility_verdict(h)
    h2 = dataclasses.replace(
        h,
        torsion_level=asserted(2),
        wild_ramification=asserted(True),
        trivial_ns_action=asserted(True),
    )
    v2 = divisibility_verdict(h2)
    assert v1 == v2


def test_citation_table_is_total_and_fixed():
    assert set(CITATIONS) == set(Conclusion)
    for text in CITATIONS.values():
        assert text and isinstance(text, str)
