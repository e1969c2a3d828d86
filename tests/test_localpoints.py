import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import eczero

from eczero.arith import kronecker_symbol
from eczero.errors import (
    DomainError,
    InternalConsistencyError,
    PrecisionExhaustedError,
    SplitHypothesisError,
)
from eczero.fp import FpCurve, FpPoint, is_anomalous, point_at_x
from eczero.localpoints import (
    MAX_PRECISION,
    QpPoint,
    _make,
    _p_times,
    decompose_point,
    decomposition_to_dict,
    formal_t_valuation,
    lift_p_torsion,
    pval,
    t_valuation_at,
)
from eczero.rational import (
    Curve,
    QPoint,
    ReductionKind,
    ReductionType,
    curve_from_long_weierstrass,
    long_point_to_short,
    q_scalar_mul,
    reduction_type,
)
from eczero.survey import find_generator

from oracles import (
    PadicNumber,
    as_oracle,
    division_polynomial,
    embed_point,
    formal_layer_point,
    formal_nontrivial_oracle,
    newton_lift,
    on_curve,
    outcomes_within,
    poly_eval,
    qp_add,
    qp_neg,
    qp_scalar_mul,
    reduce_point,
    t_parameter,
)

E = Curve(0, -2)
P35 = QPoint.from_pair(3, 5)


def test_embed_and_on_curve():
    P = embed_point(E, P35, 7, 16)
    assert on_curve(E, P)
    assert P.x.residue_mod(1) == 3
    with pytest.raises(DomainError):
        embed_point(E, QPoint.from_pair(3, 6), 7)


def test_qp_group_law_matches_rational():
    P = embed_point(E, P35, 7, 20)
    for k in (2, 3, 5, 11):
        exact = q_scalar_mul(E, k, P35)
        approx = qp_scalar_mul(E, k, P)
        assert approx.x.agrees_with(PadicNumber.from_fraction(exact.x, 7, 12))
        assert approx.y.agrees_with(PadicNumber.from_fraction(exact.y, 7, 12))


def test_reduce_point_cases():
    P = embed_point(E, P35, 7, 16)
    assert reduce_point(E, P, 7) == FpPoint(3, 5)
    assert reduce_point(E, QpPoint.identity(), 7).is_identity
    G = formal_layer_point(E, 7, 1, 16)
    assert reduce_point(E, G, 7).is_identity


def test_reduce_point_rejects_impossible_valuations():
    bogus = QpPoint(
        PadicNumber.from_fraction(Fraction(1, 7), 7, 12),
        PadicNumber.from_fraction(Fraction(1, 7), 7, 12),
    )
    with pytest.raises(InternalConsistencyError):
        reduce_point(E, bogus, 7)


def test_t_parameter_valuations():
    for layer in (1, 2):
        G = formal_layer_point(E, 7, layer, 18)
        t = t_parameter(E, G, 7)
        assert t.valuation == layer
        assert G.x.valuation == -2 * layer and G.y.valuation == -3 * layer


def test_multiplication_by_p_raises_layer():
    G = formal_layer_point(E, 7, 1, 20)
    assert t_parameter(E, qp_scalar_mul(E, 7, G), 7).valuation == 2
    # prime-to-p multiples stay in the layer
    assert t_parameter(E, qp_scalar_mul(E, 3, G), 7).valuation == 1


def test_t_parameter_preconditions():
    with pytest.raises(DomainError):
        t_parameter(E, QpPoint.identity(), 7)
    P = embed_point(E, P35, 7, 16)
    with pytest.raises(DomainError):
        t_parameter(E, P, 7)


def test_lift_p_torsion_core():
    T0 = lift_p_torsion(E, 7, FpPoint(3, 5), 12)
    assert qp_scalar_mul(E, 7, T0).is_identity
    assert reduce_point(E, T0, 7) == FpPoint(3, 5)
    assert on_curve(E, T0)


def test_lift_p_torsion_precision_stability():
    T0 = lift_p_torsion(E, 7, FpPoint(3, 5), 12)
    T0_hi = lift_p_torsion(E, 7, FpPoint(3, 5), 24)
    assert as_oracle(T0_hi.x).truncate(12).agrees_with(T0.x)
    assert as_oracle(T0_hi.y).truncate(12).agrees_with(T0.y)


def test_lift_p_torsion_uniqueness_and_conjugates():
    T = lift_p_torsion(E, 7, FpPoint(3, 5), 16)
    T_again = lift_p_torsion(E, 7, FpPoint(3, 5), 16)
    assert T == T_again  # deterministic
    T_neg = lift_p_torsion(E, 7, FpPoint(3, 2), 16)  # (3, -5) mod 7
    assert as_oracle(T_neg.x).agrees_with(T.x)
    assert as_oracle(T_neg.y).agrees_with(qp_neg(T).y)


def test_lift_p_torsion_other_fiber_points():
    from eczero.fp import FpCurve, fp_scalar_mul

    reduced = FpCurve(7, 0, 5)
    base = FpPoint(3, 5)
    for k in range(2, 7):
        tgt = fp_scalar_mul(reduced, k, base)
        T = lift_p_torsion(E, 7, tgt, 12)
        assert qp_scalar_mul(E, 7, T).is_identity
        assert reduce_point(E, T, 7) == tgt


# CM curves anomalous at 7, 43 and 223, with up to 12 nonzero points of
# each reduction as lift targets
ANOMALOUS_CM = (Curve(0, -2), Curve(0, -2 + 7 * 19), Curve(-152, 722), Curve(-1056, 13552))
ANOMALOUS_P = (7, 7, 43, 223)


def _targets(curve, p, count=12):
    reduced = FpCurve(p, curve.a % p, curve.b % p)
    points = (point_at_x(reduced, x) for x in range(p))
    return [P for P in points if P is not None][:count]


def _affine_check(curve, p, x, y, precision):
    """The affine [p]P = O decision on the same residues: True, False or an exception."""
    point = QpPoint(_make(p, x, precision), _make(p, y, precision))
    try:
        return qp_scalar_mul(curve, p, point).is_identity
    except PrecisionExhaustedError:
        return PrecisionExhaustedError


def _jacobian_check(curve, p, x, y, precision):
    """Whether [p](x, y) = O modulo p^precision, from the Z of _p_times."""
    try:
        return not _p_times(curve, p, x, y, precision)[2]
    except SplitHypothesisError:
        return False


def _moved_lift(curve, p, T0, target, k, precision):
    """Residues of the point with x = x(T0) + p^k and y re-solved by Newton."""
    mod = p**precision
    x = (T0.x.residue_mod(precision) + p**k) % mod
    g = (x**3 + curve.a * x + curve.b) % mod
    return x, newton_lift([-g, 0, 1], target.y, p, precision).residue_mod(precision)


def test_jacobian_check_agrees_with_affine_on_every_lift():
    # every lift passes the oracle's affine [p]T0 = O and the Jacobian one
    for curve, p in zip(ANOMALOUS_CM, ANOMALOUS_P):
        for target in _targets(curve, p):
            for precision in range(6, 31):
                T0 = lift_p_torsion(curve, p, target, precision)
                x, y = T0.x.residue_mod(precision), T0.y.residue_mod(precision)
                assert _jacobian_check(curve, p, x, y, precision) is True
                assert _affine_check(curve, p, x, y, precision) is True


def test_jacobian_check_rejects_planted_faults():
    for curve, p in zip(ANOMALOUS_CM, ANOMALOUS_P):
        for target in _targets(curve, p, 4):
            for precision in (10, 16, 23, 30):
                T0 = lift_p_torsion(curve, p, target, precision)
                # x moved by p^k puts the point k deep in T0 + E_1, and [p]
                # adds one: Z-valuation k + 1 < precision
                for k in range(1, precision - 1):
                    x, y = _moved_lift(curve, p, T0, target, k, precision)
                    assert pval(_p_times(curve, p, x, y, precision)[2], p) == k + 1, (p, precision, k)
                    if k <= precision // 2:  # the affine law keeps too few digits beyond
                        assert _affine_check(curve, p, x, y, precision) is False
                # the plain Hensel lift of barP from x = target.x is not torsion
                g = target.x**3 + curve.a * target.x + curve.b
                y = newton_lift([-g, 0, 1], target.y, p, precision).residue_mod(precision)
                assert _jacobian_check(curve, p, target.x, y, precision) is False
                assert _affine_check(curve, p, target.x, y, precision) is False


def test_lift_is_a_root_of_the_division_polynomial():
    # the expanded psi_p of the oracle vanishes at x(T0) to every digit the
    # lift reports, on anomalous curves whose E_0(Q_p) splits at p = 5..13;
    # the lift's working precision doubles to precision + 1, and at 6, 33
    # and 64 its last step is a partial one
    for p in (5, 7, 11, 13):
        lifted = 0
        for a in range(-12, 13):
            for b in range(-12, 13):
                if (4 * a**3 + 27 * b**2) % p == 0 or not is_anomalous(FpCurve(p, a % p, b % p)):
                    continue
                curve = Curve(a, b)
                target = _targets(curve, p, 1)[0]
                psi = division_polynomial(curve, p)
                for precision in (6, 12, 33, 64):
                    try:
                        T0 = lift_p_torsion(curve, p, target, precision)
                    except SplitHypothesisError:
                        break
                    assert poly_eval(psi, T0.x.residue_mod(precision), p**precision) == 0, (a, b, p, precision)
                else:
                    lifted += 1
        assert lifted >= 2, p


def test_lift_re_solves_y_in_full_after_x_moves():
    # the first Newton step moves x(T0) by a multiple of 5 here; one Hensel
    # correction of y then leaves (x, y) on a nearby curve, and the lift
    # chases that curve's torsion point until it gives up
    curve = Curve(173, 272)
    for precision in (6, 7, 12):
        T0 = lift_p_torsion(curve, 5, FpPoint(1, 1), precision)
        x, y = T0.x.residue_mod(precision), T0.y.residue_mod(precision)
        assert (x % 5, y % 5) == (1, 1)
        assert (y * y - x**3 - 173 * x - 272) % 5**precision == 0
        assert _p_times(curve, 5, x, y, precision)[2] % 5**precision == 0


def test_lift_returns_a_coordinate_near_0_with_its_certified_digits():
    # x(T0) = 15757*13^4 + O(13^8), so at precision 6 it carries 2 digits
    # past its valuation; each is certified, so the lift returns them
    curve, target = Curve(6625, -8518), FpPoint(0, 6)
    T0 = lift_p_torsion(curve, 13, target, 6)
    T0_hi = lift_p_torsion(curve, 13, target, 8)
    assert (T0.x.valuation, T0.x.precision) == (4, 2)
    assert T0.x.residue_mod(6) == T0_hi.x.residue_mod(6)
    assert T0.y.residue_mod(6) == T0_hi.y.residue_mod(6)


def test_lift_p_torsion_preconditions():
    with pytest.raises(DomainError):
        lift_p_torsion(E, 7, FpPoint.identity(), 12)
    with pytest.raises(DomainError):
        lift_p_torsion(Curve(-4, 0), 13, FpPoint(0, 0), 12)  # not anomalous
    with pytest.raises(DomainError):
        lift_p_torsion(E, 7, FpPoint(1, 1), 12)  # not on the reduction
    with pytest.raises(DomainError, match="^model has bad reduction at 7$"):
        lift_p_torsion(Curve(0, -2 * 7**6), 7, FpPoint(3, 5))  # lifts read the model as given


def test_local_precision_is_bounded():
    # A lift's time grows about as the square of its precision: a precision
    # past MAX_PRECISION is refused before any p^N is formed.  The calls run
    # under a timeout first, so a regression fails instead of hanging.
    setup = (
        "from eczero.fp import FpPoint\n"
        "from eczero.localpoints import decompose_point, lift_p_torsion\n"
        "from eczero.rational import Curve, QPoint"
    )
    calls = [
        f"{call}, {prec})"
        for prec in (MAX_PRECISION + 1, 10**6)
        for call in ("lift_p_torsion(Curve(0, -2), 7, FpPoint(3, 5)", "decompose_point(Curve(0, -2), QPoint(3, 5), 7")
    ]
    assert outcomes_within(setup, calls) == ["DomainError"] * 4
    with pytest.raises(DomainError, match="^precision must be <= 1024, got 1025$"):
        lift_p_torsion(E, 7, FpPoint(3, 5), 1025)
    with pytest.raises(DomainError, match="^precision must be <= 1024, got 1025$"):
        decompose_point(E, P35, 7, 1025)
    T0 = lift_p_torsion(E, 7, FpPoint(3, 5), MAX_PRECISION)
    x, y = T0.x.residue_mod(MAX_PRECISION), T0.y.residue_mod(MAX_PRECISION)
    assert (x % 7, y % 7) == (3, 5)
    assert (y * y - x**3 + 2) % 7**MAX_PRECISION == 0
    assert _p_times(E, 7, x, y, MAX_PRECISION)[2] % 7**MAX_PRECISION == 0


def test_decompose_point_paper_example():
    dec = decompose_point(E, P35, 7, 16)
    assert dec.bar_point == FpPoint(3, 5)
    # frozen oracle value: the class of (3,5) in E(Q_7)/7 has a nonzero
    # formal component (independently recomputed below)
    assert dec.formal_nontrivial is True
    assert dec.t_valuation == 1
    assert formal_nontrivial_oracle(E, P35, 7, 24) is True


def test_decompose_point_soundness():
    dec = decompose_point(E, P35, 7, 16)
    # F + T0 = P at output precision
    S = qp_add(E, dec.formal, dec.torsion)
    Pq = embed_point(E, P35, 7, 16)
    assert S.x.agrees_with(Pq.x) and S.y.agrees_with(Pq.y)
    assert reduce_point(E, dec.formal, 7).is_identity
    assert qp_scalar_mul(E, 7, dec.torsion).is_identity


def test_decompose_point_stability_under_doubling():
    lo = decompose_point(E, P35, 7, 16)
    hi = decompose_point(E, P35, 7, 32)
    assert lo.formal_nontrivial == hi.formal_nontrivial
    assert lo.t_valuation == hi.t_valuation


def test_decompose_matches_oracle_on_trivial_formal_part():
    # n = 19 member of the cubic family: generator (5, -16), t-valuation 2
    E19 = Curve(0, -2 + 7 * 19)
    gen = QPoint.from_pair(5, -16)
    dec = decompose_point(E19, gen, 7, 16)
    assert dec.t_valuation == 2
    assert dec.formal_nontrivial is False
    assert formal_nontrivial_oracle(E19, gen, 7, 24) is False


def test_decompose_layer_arithmetic():
    dec = decompose_point(E, P35, 7, 20)
    bumped = qp_scalar_mul(E, 7, dec.formal)
    assert t_parameter(E, bumped, 7).valuation == dec.t_valuation + 1


def _decision_bit_cases():
    # criterion-9 family members at p = 7, and seeded twists of the CM curves
    # anomalous at 43 and 223 by d = f(x0) carrying the point (d x0, d^2)
    cases = [(E, q_scalar_mul(E, 7, P35), 7)]
    for n in range(-200, 201, 8):
        curve = Curve(0, -2 + 7 * n)
        gen = find_generator(curve, 10**4)
        if gen is not None:
            cases.append((curve, gen, 7))
    rng = random.Random(9)
    for p, A, B in ((43, -152, 722), (223, -1056, 13552)):
        twists = 0
        while twists < 6:
            x0 = rng.randint(-300, 300)
            d = x0**3 + A * x0 + B
            if d != 0 and kronecker_symbol(d, p) == 1:
                cases.append((Curve(A * d * d, B * d**3), QPoint.from_pair(d * x0, d * d), p))
                twists += 1
    return cases


def test_decision_bit_matches_p_times_the_point():
    # [p]P = [p]F since [p]T0 = O, and for p >= 3 [p] moves E_m onto E_{m+1}:
    # so v(t([p]P)) = v(t(F)) + 1, computed here without lifting any torsion;
    # formal_t_valuation reads the same valuation from Jacobian [p]P
    seen = set()
    for curve, point, p in _decision_bit_cases():
        dec = decompose_point(curve, point, p)
        pP = qp_scalar_mul(curve, p, embed_point(curve, point, p, 20))
        assert dec.t_valuation + 1 == t_parameter(curve, pP, p).valuation, (curve, point, p)
        assert formal_t_valuation(curve, point, p) == dec.t_valuation, (curve, point, p)
        seen.add((p, dec.t_valuation))
    assert {(7, 1), (7, 2), (43, 1), (223, 1)} <= seen


def _t_valuation_or_refusal(route, curve, point, p):
    try:
        return route(curve, point, p)
    except SplitHypothesisError:
        return "refused"


def test_formal_t_valuation_refuses_exactly_where_the_torsion_lift_does():
    # anomalous curves y^2 = x^3 + ax + b at 7 with a point of height <= 300:
    # most have no 7-adic torsion point above their F_7 points
    outcomes = []
    for a in range(-30, 31):
        for b in range(-30, 31):
            if (4 * a**3 + 27 * b**2) % 7 == 0 or not is_anomalous(FpCurve(7, a % 7, b % 7)):
                continue
            curve = Curve(a, b)
            gen = find_generator(curve, 300)
            if gen is None:
                continue
            expected = _t_valuation_or_refusal(lambda c, P, p: decompose_point(c, P, p).t_valuation, curve, gen, 7)
            assert _t_valuation_or_refusal(formal_t_valuation, curve, gen, 7) == expected, (curve, gen)
            outcomes.append(expected)
    assert outcomes.count("refused") > 100 and 1 in outcomes


def test_decompose_point_counts_points_once(monkeypatch):
    # the minimal model is checked anomalous once per call, also when the
    # first attempt runs out of precision and is retried: reduction_type
    # counts its points once
    counted = []
    real_trace = eczero.rational.trace_of_frobenius
    monkeypatch.setattr(eczero.rational, "trace_of_frobenius", lambda c: counted.append(c) or real_trace(c))
    expected = decompose_point(E, P35, 7, 16)
    assert len(counted) == 1
    real, attempts = eczero.localpoints._decompose, []

    def exhausted_once(*args):
        attempts.append(args)
        if len(attempts) == 1:
            raise PrecisionExhaustedError("first attempt")
        return real(*args)

    monkeypatch.setattr(eczero.localpoints, "_decompose", exhausted_once)
    assert decompose_point(E, P35, 7, 8) == decompose_point(E, P35, 7, 16) == expected
    assert len(attempts) == 3 and len(counted) == 3
    assert formal_t_valuation(E, P35, 7) == 1 and len(counted) == 4


def test_formal_t_valuation_decides_a_t_valuation_up_to_2_with_one_p_times(monkeypatch):
    # points outside E_1 at 7 with t-valuation 1 and 2, and one above no
    # 7-adic torsion point: [7]P modulo 7^4 decides each, so none pays a pass
    # modulo 7^2 that could not end
    calls = []
    real = eczero.localpoints._p_times
    monkeypatch.setattr(eczero.localpoints, "_p_times", lambda *args: calls.append(args[-1]) or real(*args))
    for curve, point, expected in (
        (E, P35, 1),
        (Curve(0, 12), QPoint.from_pair(-2, -2), 2),
        (Curve(3, 5), QPoint.from_pair(-1, -1), "refused"),
    ):
        calls.clear()
        assert _t_valuation_or_refusal(formal_t_valuation, curve, point, 7) == expected, (curve, point)
        assert calls == [4], (curve, point)
    # a point in E_1 reads v_7(e) and needs no [p]
    calls.clear()
    assert formal_t_valuation(E, q_scalar_mul(E, 7, P35), 7) == 2 and calls == []


def test_decompose_preconditions():
    with pytest.raises(DomainError):
        decompose_point(Curve(-4, 0), QPoint.from_pair(0, 0), 13, 16)
    with pytest.raises(DomainError):
        decompose_point(Curve(0, 1), QPoint.from_pair(0, 1), 7, 16)  # 3-torsion point
    with pytest.raises(DomainError):
        decompose_point(E, QPoint.identity(), 7, 16)
    with pytest.raises(DomainError, match="^model has bad reduction at 7$"):
        decompose_point(Curve(-7, 7), QPoint.from_pair(1, 1), 7)  # minimal at 7, 7 | disc
    with pytest.raises(DomainError, match=r"^\(3, 6\) is not on y\^2 = x\^3 \+ 0x \+ -2$"):
        decompose_point(E, QPoint.from_pair(3, 6), 7)


def test_t_valuation_at_reads_only_the_datum_reduction_type_built():
    # the kernel reads the minimal model and scale off reduction_type's
    # result, also for a model rescaled by u = 7, and refuses a datum that
    # is bad, not anomalous, built by hand or built at another prime
    r = reduction_type(E, 7)
    assert t_valuation_at(r, P35, 7) == formal_t_valuation(E, P35, 7) == 1
    scaled = Curve(0, -2 * 7**6)
    assert t_valuation_at(reduction_type(scaled, 7), QPoint.from_pair(3 * 7**2, 5 * 7**3), 7) == 1
    with pytest.raises(DomainError, match="^model has bad reduction at 7$"):
        t_valuation_at(reduction_type(Curve(-7, 7), 7), QPoint.from_pair(1, 1), 7)
    with pytest.raises(DomainError, match="^reduction at 13 is not anomalous$"):
        t_valuation_at(reduction_type(Curve(-4, 0), 13), QPoint.from_pair(0, 0), 13)
    for datum, p in ((ReductionType(ReductionKind.GOOD_ORDINARY, trace=1), 7), (r, 13)):
        with pytest.raises(DomainError, match=f"^reduction at {p} carries no model verified by reduction_type at {p}$"):
            t_valuation_at(datum, P35, p)


@pytest.mark.parametrize("precision", [-4, 0, 1])
def test_decompose_point_rejects_precision_below_1(precision):
    # [7]P is in E_1 and is its own formal part; P needs a torsion lift
    P7 = q_scalar_mul(E, 7, P35)
    if precision < 1:
        for point in (P7, P35):
            with pytest.raises(DomainError, match=f"^decomposition needs precision >= 1, got {precision}$"):
                decompose_point(E, point, 7, precision)
        return
    assert decompose_point(E, P7, 7, precision).precision == 1
    with pytest.raises(DomainError, match="^decomposition outside E_1 needs precision >= 2, got 1$"):
        decompose_point(E, P35, 7, precision)
    assert decompose_point(E, P35, 7, 2).precision == 2


def test_decompose_point_in_kernel_of_reduction():
    # [7]P reduces to the identity: the torsion part is trivial and the
    # whole point is its own formal component, one layer deeper than P's
    P7 = q_scalar_mul(E, 7, P35)
    dec = decompose_point(E, P7, 7, 16)
    assert dec.bar_point.is_identity
    assert dec.torsion.is_identity
    assert dec.t_valuation == 2
    assert dec.formal_nontrivial is False
    assert formal_nontrivial_oracle(E, P7, 7, 24) is False


def test_decompose_rescales_nonminimal_models():
    # same curve scaled by u = 7: (a, b) -> (a * 7^4, b * 7^6)
    E_big = Curve(0, -2 * 7**6)
    P_big = QPoint.from_pair(3 * 49, 5 * 343)
    assert E_big.contains(P_big)
    dec = decompose_point(E_big, P_big, 7, 16)
    assert dec.bar_point == FpPoint(3, 5)
    assert dec.formal_nontrivial is True


def test_decompose_on_a_nonminimal_model_matches_the_minimal_one():
    # y^2 = x^3 - 2 * 7^6 is y^2 = x^3 - 2 scaled by u = 7; a point outside
    # E_1 and one in E_1 (its triple is F itself) decompose as on the minimal model
    E_big = Curve(0, -2 * 7**6)
    for P, t_valuation in ((P35, 1), (q_scalar_mul(E, 7, P35), 2)):
        P_big = QPoint(P.x * 49, P.y * 343)
        assert E_big.contains(P_big)
        for precision in (2, 16):
            dec = decompose_point(E_big, P_big, 7, precision)
            assert dec == decompose_point(E, P, 7, precision) and dec.t_valuation == t_valuation
        assert formal_t_valuation(E_big, P_big, 7) == t_valuation


def test_decompose_rejects_torsion_point_naming_its_order():
    # (0, 0) on the Tate normal forms y^2 - y = x^3 - x^2 (order 5, anomalous
    # at 5) and y^2 - xy - 4y = x^3 - 4x^2 (order 7, anomalous at 7)
    for ai, p in (([0, -1, -1, 0, 0], 5), ([-1, -4, -4, 0, 0], 7)):
        E, T = curve_from_long_weierstrass(ai), long_point_to_short(ai, 0, 0)
        # also through a model that is not minimal at p
        E_big = Curve(E.a * p**4, E.b * p**6)
        T_big = QPoint(T.x * p**2, T.y * p**3)
        for curve, point in ((E, T), (E_big, T_big)):
            with pytest.raises(DomainError, match=f"point has finite order {p};"):
                decompose_point(curve, point, p, 16)


def test_decomposition_serialization():
    dec = decompose_point(E, P35, 7, 16)
    d = decomposition_to_dict(dec)
    assert d["formal_nontrivial"] is True
    assert d["bar_point"] == {"x": 3, "y": 5}
    assert d["torsion"]["x"]["valuation"] == 0
    assert len(d["torsion"]["x"]["digits"]) == d["torsion"]["x"]["precision"]


def test_split_hypothesis_failure_is_detected():
    # anomalous at 5 but generic (no CM): y^2 = x^3 + 3x + 2 mod 5 has 5 points
    from eczero.fp import FpCurve, count_points

    candidates = []
    for a in range(-6, 7):
        for b in range(-6, 7):
            try:
                C = Curve(a, b)
            except DomainError:
                continue
            if C.discriminant % 5 == 0:
                continue
            if count_points(FpCurve(5, a % 5, b % 5)) == 5:
                candidates.append(C)
    assert candidates
    from eczero.fp import point_at_x

    outcomes = set()
    for C in candidates:
        reduced = FpCurve(5, C.a % 5, C.b % 5)
        target = next(point_at_x(reduced, x) for x in range(5) if point_at_x(reduced, x))
        try:
            T = lift_p_torsion(C, 5, target, 12)
            assert qp_scalar_mul(C, 5, T).is_identity
            outcomes.add("lifted")
        except SplitHypothesisError:
            outcomes.add("refused")
    # both behaviors occur across the sample: rational 5-torsion lifts exist
    # for some anomalous curves and provably not for others
    assert "refused" in outcomes


@pytest.mark.parametrize("p", [-1, 0, 1, 4, 9])
def test_local_layer_rejects_p_that_is_not_a_prime_at_least_5(p):
    # p in {-1, 0, 1} once looped forever in _minimal_with_scale, so the CLI
    # runs in a subprocess with a timeout and comes first
    src = str(Path(eczero.__file__).resolve().parent.parent)
    message = f"p must be a prime >= 5, got {p}"
    for args in (
        ["decompose", "--a", "0", "--b", "-2", "--p", str(p), "--gen", "3,1,5,1"],
        ["lift-torsion", "--a", "0", "--b", "-2", "--p", str(p), "--x", "3", "--y", "5"],
    ):
        out = subprocess.run(
            [sys.executable, "-m", "eczero.cli", *args, "--json"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
        )
        assert out.returncode == 1 and out.stdout == ""
        assert json.loads(out.stderr) == {"error": message}
    with pytest.raises(DomainError, match=f"^{message}$"):
        decompose_point(E, P35, p)
    with pytest.raises(DomainError, match=f"^{message}$"):
        lift_p_torsion(E, p, FpPoint(3, 5))
