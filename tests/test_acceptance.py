"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
All arithmetic checks are exact; runtime budgets are asserted with
time.monotonic around the measured work.
"""

import hashlib
import json
import random
import time
from math import isqrt

from click.testing import CliRunner

from eczero.arith import is_prime
from eczero.cli import cli
from eczero.fp import (
    FpCurve,
    FpPoint,
    count_points,
    count_points_bsgs,
    count_points_naive,
    fp_add,
    point_at_x,
    trace_of_frobenius,
)
from eczero.localpoints import decompose_point, lift_p_torsion
from eczero.quadfields import ImagQuadField, anomalous_residues_d3, splits_completely
from eczero.rational import Curve, QPoint, ReductionKind, reduction_type
from eczero.survey import FamilySpec, emit_report, scan_family
from eczero.verdicts import Conclusion, HypothesisRecord, brauer_middle_term_verdict

from oracles import as_oracle, embed_point, formal_nontrivial_oracle, qp_add, qp_scalar_mul, reduce_point

runner = CliRunner()


def _ok(n, message):
    print(f"PASS criterion {n}: {message}")


def test_criterion_1_anomalous_primes_cli():
    t0 = time.monotonic()
    res = runner.invoke(cli, ["anomalous-primes", "--disc", "-3", "--bound", "100", "--json"])
    elapsed = time.monotonic() - t0
    assert res.exit_code == 0
    primes = json.loads(res.output)
    assert {7, 37, 61} <= set(primes)
    for p in primes:
        assert is_prime(p)
        v2, rem = divmod(4 * p - 1, 3)
        assert rem == 0
        v = isqrt(v2)
        assert 4 * p == 1 + 3 * v * v
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(1, f"anomalous primes for disc -3 up to 100 are {primes} ({elapsed:.3f}s)")


def test_criterion_2_residue_class_counts():
    t0 = time.monotonic()
    for p in (7, 19, 37, 61):
        members = anomalous_residues_d3(p)
        assert len(members) == (p - 1) // 6
        member_set = set(members)
        for c in range(1, p):
            assert (count_points_naive(FpCurve(p, 0, c)) == p) == (c in member_set)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _ok(2, f"residue classes have size (p-1)/6 with exhaustive verification ({elapsed:.2f}s)")


def test_criterion_3_point_counts():
    t0 = time.monotonic()
    assert count_points(FpCurve(223, -1056, 13552)) == 223
    assert count_points(FpCurve(43, -152, 722)) == 43
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(3, f"|E(F_223)| = 223 and |E(F_43)| = 43 exactly ({elapsed:.3f}s)")


def test_criterion_4_family_always_anomalous():
    t0 = time.monotonic()
    rng = random.Random(408)
    sample = rng.sample(range(-5000, 5001), 50)
    for n in sample:
        reduced = FpCurve(7, 0, (-2 + 7 * n) % 7)
        assert count_points(reduced) == 7
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(4, f"50 sampled family members reduce to the anomalous fiber mod 7 ({elapsed:.3f}s)")


def test_criterion_5_quartic_ordinary():
    t0 = time.monotonic()
    quartic = Curve(-4, 0)
    checked = 0
    for p in range(5, 1001):
        if not is_prime(p) or p % 4 != 1:
            continue
        assert reduction_type(quartic, p).kind is ReductionKind.GOOD_ORDINARY
        checked += 1
    assert checked == 80  # primes = 1 mod 4 up to 1000
    assert quartic.discriminant % 5 != 0
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _ok(5, f"y^2 = x^3 - 4x is ordinary at all {checked} primes p = 1 mod 4 up to 1000 ({elapsed:.2f}s)")


def test_criterion_6_torsion_lift():
    E = Curve(0, -2)
    target = FpPoint(3, 5)
    T0 = lift_p_torsion(E, 7, target, 12)
    assert qp_scalar_mul(E, 7, T0).is_identity
    assert reduce_point(E, T0, 7) == target
    assert T0.x.abs_precision >= 12 and T0.y.abs_precision >= 12
    T0_hi = lift_p_torsion(E, 7, target, 24)
    assert as_oracle(T0_hi.x).truncate(12).agrees_with(T0.x)
    assert as_oracle(T0_hi.y).truncate(12).agrees_with(T0.y)
    _ok(6, "7-torsion lift above (3,5): [7]T0 = O, reduces to target, stable under doubling")


def test_criterion_7_decomposition_soundness():
    E = Curve(0, -2)
    P = QPoint.from_pair(3, 5)
    dec = decompose_point(E, P, 7, 16)
    S = qp_add(E, dec.formal, dec.torsion)
    Pq = embed_point(E, P, 7, 16)
    assert S.x.agrees_with(Pq.x) and S.y.agrees_with(Pq.y)
    assert reduce_point(E, dec.formal, 7).is_identity
    oracle = formal_nontrivial_oracle(E, P, 7, 24)
    assert dec.formal_nontrivial == oracle
    assert oracle is True  # frozen from the pre-build oracle run
    _ok(7, f"decomposition is sound and formal_nontrivial = {dec.formal_nontrivial} matches the oracle")


def test_criterion_8_verdict_matrix():
    triples = [
        (Curve(0, -2), ImagQuadField(-3), 7),
        (Curve(-1056, 13552), ImagQuadField(-11), 223),
        (Curve(-152, 722), ImagQuadField(-19), 43),
    ]
    both = {Conclusion.MIDDLE_TERM_ZP_SQUARED, Conclusion.BRAUER_P_VANISHES}
    for curve, field, p in triples:
        record = HypothesisRecord.for_pair(curve, curve, p, cm_field=field)
        out = brauer_middle_term_verdict(record)
        assert {v.conclusion for v in out} == both

    # single-hypothesis ablations must refuse
    E, K3 = Curve(0, -2), ImagQuadField(-3)
    ablations = [
        (Curve(3, -2), K3, 7),  # curve without CM by O_D (j = 864), anomalous at the split 7
        (E, ImagQuadField(-19), 7),  # wrong field: 7 splits in Q(sqrt(-19)), but j = 0
        (E, K3, 5),  # 5 does not split in Q(sqrt(-3))
        (E, K3, 13),  # splits but not anomalous (a_13 != 1)
        (Curve(7, 49), K3, 7),  # bad reduction at 7
        (E, K3, 3),  # p < 5
        (Curve(-1056, 13552), ImagQuadField(-11), 11),  # no trace-1 option
    ]
    for curve, field, p in ablations:
        record = HypothesisRecord.for_pair(curve, curve, p, cm_field=field)
        assert brauer_middle_term_verdict(record) == []
    _ok(8, "verdict engine fires exactly on the three family triples and refuses all ablations")


CRITERION_9_CSV_SHA256 = "b784a165980b34cd9153ab0afa6cc2bc3da5e37aa99f59b6e8854089b43ef751"
CRITERION_9_JSON_SHA256 = "39335264691d2aa76da62f1f18d75ea03771abe4b1c09386ff229570ee82e154"


def test_criterion_9_desk_scale_survey():
    spec = FamilySpec(
        a_const=0, a_slope=0, b_const=-2, b_slope=7,
        n_min=-200, n_max=200, p=7, disc=-3, height=10**4,
    )
    t0 = time.monotonic()
    rows, agg = scan_family(spec)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"scan took {elapsed:.1f}s"

    report1 = emit_report(rows, agg, "csv").encode()
    rows2, agg2 = scan_family(spec)
    report2 = emit_report(rows2, agg2, "csv").encode()
    assert report1 == report2  # bit-reproducible
    # pinned bytes: any change to the search, the pipeline or the format shows here
    assert hashlib.sha256(report1).hexdigest() == CRITERION_9_CSV_SHA256
    json_report = emit_report(rows, agg, "json").encode()
    assert hashlib.sha256(json_report).hexdigest() == CRITERION_9_JSON_SHA256
    assert (agg["eligible"], agg["with_generator"], agg["nontrivial"], agg["generator_unknown"]) == (
        401, 224, 195, 177
    )

    # independent second pass: hypotheses via primitives, flags via the oracle
    eligible = with_gen = nontrivial = 0
    field = ImagQuadField(-3)
    for row in rows:
        assert row.error is None
        curve = Curve(row.curve_a, row.curve_b)
        good = curve.discriminant % 7 != 0
        anomalous = count_points(FpCurve(7, curve.a % 7, curve.b % 7)) == 7
        splits = splits_completely(field, 7)
        assert (good, anomalous, splits) == (row.good_p, row.anomalous, row.splits)
        if not (good and anomalous and splits):
            continue
        eligible += 1
        if row.formal_nontrivial is None:
            assert row.generator_status == "unknown"
            continue
        with_gen += 1
        if formal_nontrivial_oracle(curve, row.generator, 7, 24):
            nontrivial += 1
    assert agg["eligible"] == eligible
    assert agg["with_generator"] == with_gen
    assert agg["nontrivial"] == nontrivial
    assert agg["fraction"] == f"{nontrivial}/{with_gen}"

    # the report must state the proxy nature of the statistic
    assert "not a rank-filtered statistic" in report1.decode()
    assert "ingested" in agg["note"]
    _ok(
        9,
        f"survey of 401 curves in {elapsed:.1f}s, reproducible, aggregate "
        f"{agg['fraction']} confirmed by oracle rerun; external rank statistic "
        "explicitly not reproduced",
    )


def test_criterion_10_property_suites():
    t0 = time.monotonic()
    rng = random.Random(1009)
    primes = [p for p in range(5, 10**4) if is_prime(p)]

    # Hasse bound on 1000 random curves
    for _ in range(1000):
        p = rng.choice(primes)
        while True:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p:
                break
        assert abs(trace_of_frobenius(FpCurve(p, a, b))) <= isqrt(4 * p)
    hasse_t = time.monotonic() - t0

    # naive and BSGS agree on 50 curves with 2^14 <= p <= 2^16
    t0 = time.monotonic()
    mid_primes = [p for p in range(2**14, 2**16 + 1) if is_prime(p)]
    for _ in range(50):
        p = rng.choice(mid_primes)
        while True:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p:
                break
        curve = FpCurve(p, a, b)
        assert count_points_bsgs(curve) == count_points_naive(curve)
    bsgs_t = time.monotonic() - t0

    # p-adic precision monotonicity on 200 random expressions
    import test_padic

    test_padic.test_precision_monotonicity()

    # group laws on 500 sampled triples
    curve = FpCurve(211, 33, 41)
    pts = [P for x in range(211) if (P := point_at_x(curve, x)) is not None]
    pts.append(FpPoint.identity())
    for _ in range(500):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert fp_add(curve, P, Q) == fp_add(curve, Q, P)
        assert fp_add(curve, fp_add(curve, P, Q), R) == fp_add(curve, P, fp_add(curve, Q, R))
        assert fp_add(curve, P, FpPoint.identity()) == P
    _ok(
        10,
        f"Hasse x1000 ({hasse_t:.1f}s), naive=BSGS x50 ({bsgs_t:.1f}s), "
        "p-adic monotonicity x200, group laws x500 - all exact",
    )
