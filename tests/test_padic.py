import random
from fractions import Fraction

import pytest

from eczero import localpoints
from eczero.errors import DomainError, PrecisionExhaustedError
from eczero.localpoints import (
    DEFAULT_PRECISION, GUARD_DIGITS, MAX_PRECISION, MIN_RELATIVE_PRECISION, QpPoint, decompose_point, pval,
)
from eczero.rational import Curve, QPoint, q_scalar_mul

from oracles import NonSimpleRootError, PadicNumber, as_oracle, newton_lift, outcomes_within


def test_from_int_and_fraction():
    z = PadicNumber.from_int(98, 7)  # 2 * 7^2
    assert (z.valuation, z.unit) == (2, 2)
    assert z.precision == DEFAULT_PRECISION
    q = PadicNumber.from_fraction(Fraction(3, 7), 7)
    assert q.valuation == -1
    assert (q * 7).residue_mod(3) == 3
    w = PadicNumber.from_fraction(Fraction(1, 3), 5, 4)
    assert (w.unit * 3) % 5**4 == 1


def test_unit_times_unit_keeps_precision():
    one = PadicNumber.from_int(1, 7, 16)
    z = one * one
    assert z.precision == 16 and z.valuation == 0 and z.unit == 1


def test_mul_adds_valuations():
    seven = PadicNumber.from_int(7, 7, 16)
    z = seven * seven
    assert z.valuation == 2 and z.unit == 1


def test_cancellation_flags_zero():
    seven = PadicNumber.from_int(7, 7, 16)
    z = seven - PadicNumber.from_int(7, 7, 16)
    assert z.is_zero
    assert z.abs_precision == 17  # both known mod 7^17


def test_partial_cancellation_loses_precision():
    a = PadicNumber.from_int(1 + 7**10, 7, 16)
    b = PadicNumber.from_int(1, 7, 16)
    z = a - b
    assert not z.is_zero
    assert z.valuation == 10
    assert z.precision == 6  # 16 absolute digits minus the 10 cancelled


def test_too_much_cancellation_aborts():
    a = PadicNumber.from_int(1 + 7**14, 7, 16)
    b = PadicNumber.from_int(1, 7, 16)
    with pytest.raises(PrecisionExhaustedError):
        a - b


def test_division_by_indistinguishable_zero():
    z = PadicNumber.zero(7, 12)
    x = PadicNumber.from_int(3, 7)
    with pytest.raises(PrecisionExhaustedError):
        x / z


def test_mixed_characteristic_rejected():
    with pytest.raises(DomainError):
        PadicNumber.from_int(1, 7) + PadicNumber.from_int(1, 5)


def test_exact_int_operands():
    x = PadicNumber.from_int(10, 7, 16)
    assert (x + 4).residue_mod(3) == 14
    assert (x * 7).valuation == 1
    assert (3 * x).residue_mod(2) == 30
    assert (x - 10).is_zero


def test_zero_sentinel_arithmetic():
    z = PadicNumber.zero(7, 8)
    x = PadicNumber.from_int(49, 7, 16)
    s = z + x
    assert s.residue_mod(8) == 49 and s.abs_precision == 8
    prod = z * x
    assert prod.is_zero and prod.abs_precision == 10
    quot = z / x
    assert quot.is_zero and quot.abs_precision == 6
    # a sum whose surviving digits fall below the certification floor aborts
    shallow = PadicNumber.zero(7, 5)
    with pytest.raises(PrecisionExhaustedError):
        shallow + x


def test_ring_laws_sampled():
    rng = random.Random(1234)
    p = 7
    vals = []
    for _ in range(30):
        n = rng.randrange(-(7**6), 7**6)
        if n:
            vals.append(PadicNumber.from_int(n, p, 12))
    for _ in range(300):
        a, b, c = (rng.choice(vals) for _ in range(3))
        lhs = (a + b) + c
        rhs = a + (b + c)
        assert lhs.agrees_with(rhs)
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert lhs.agrees_with(rhs)
        assert (a * b).agrees_with(b * a)


def _random_expression(rng, p, precision):
    value = Fraction(rng.randrange(1, 400))
    acc = PadicNumber.from_fraction(value, p, precision)
    for _ in range(6):
        n = Fraction(rng.randrange(1, 200), rng.choice([1, 1, 1, 2, 3]))
        op = rng.choice(["add", "sub", "mul", "div"])
        z = PadicNumber.from_fraction(n, p, precision)
        if op == "add":
            acc, value = acc + z, value + n
        elif op == "sub":
            acc, value = acc - z, value - n
        elif op == "mul":
            acc, value = acc * z, value * n
        else:
            acc, value = acc / z, value / n
        if acc.is_zero:
            break
    return acc, value


def test_precision_monotonicity():
    # the same expression at two precisions agrees with itself and with its
    # exact rational value
    rng = random.Random(2026)
    for p in (5, 7, 43, 223):
        for _ in range(200):
            seed = rng.randrange(1 << 30)
            lo, value = _random_expression(random.Random(seed), p, 12)
            hi, _ = _random_expression(random.Random(seed), p, 24)
            assert hi.truncate(lo.abs_precision).agrees_with(lo)
            assert lo.agrees_with(value) and hi.agrees_with(value)


def test_newton_lift_sqrt2_mod7():
    r = newton_lift([-2, 0, 1], 3, 7, 8)
    x = r.residue_mod(8)
    assert x % 7 == 3
    assert x * x % 7**8 == 2
    # stability under doubled precision
    r2 = newton_lift([-2, 0, 1], 3, 7, 16)
    assert r2.truncate(8).agrees_with(r)


def test_newton_lift_linear_and_errors():
    r = newton_lift([-5, 1], 5, 11, 10)
    assert r.residue_mod(10) == 5
    with pytest.raises(NonSimpleRootError):
        newton_lift([0, 0, 1], 0, 7, 8)
    with pytest.raises(DomainError):
        newton_lift([-2, 0, 1], 1, 7, 8)  # 1 is not a root of x^2-2 mod 7


def test_newton_lift_rejects_precision_below_the_digit_floor():
    # sqrt(2) mod 7^k: below MIN_RELATIVE_PRECISION = 4 no PadicNumber can
    # hold the root, so the call is refused up front
    assert MIN_RELATIVE_PRECISION == 4
    for k in (1, 2, 3):
        with pytest.raises(DomainError, match="precision must be >= 4"):
            newton_lift([-2, 0, 1], 3, 7, k)
    r = newton_lift([-2, 0, 1], 3, 7, 4)
    assert r.abs_precision == 4 and r.residue_mod(4) ** 2 % 7**4 == 2


def test_newton_lift_root_invariants():
    rng = random.Random(5)
    for _ in range(50):
        p = rng.choice([5, 7, 11, 13])
        a = rng.randrange(1, p)
        f = [-(a * a) % p - p * rng.randrange(100), 0, 1]  # x^2 - (a^2 + p*junk)
        if pow(f[0] % p, 1, p) and (-f[0]) % p == a * a % p:
            try:
                r = newton_lift(f, a, p, 12)
            except NonSimpleRootError:
                continue
            x = r.residue_mod(12)
            assert (x * x + f[0]) % p**12 == 0
            assert x % p == a


def test_pval():
    assert pval(49, 7) == 2
    with pytest.raises(DomainError):
        pval(0, 7)


def test_p_adic_entry_points_reject_p_below_2_without_hanging():
    # v_1(n) once looped forever, and every conversion below called it; a
    # composite p once gave a fake unit or a bare ValueError
    setup = (
        "from fractions import Fraction\n"
        "from eczero import Curve, QPoint\n"
        "from eczero.localpoints import pval\n"
        "from oracles import MAX_DIGITS, PadicNumber, embed_point, formal_layer_point"
    )
    calls = ["pval(3, 1)", "pval(3, 0)", "pval(3, -1)", "PadicNumber.from_int(3, 1)",
             "PadicNumber.from_fraction(3, 1)", "embed_point(Curve(0, -2), QPoint.from_pair(3, 5), 1)",
             "formal_layer_point(Curve(0, -2), 1)", "PadicNumber.from_int(6, 4)",
             "PadicNumber.from_fraction(Fraction(1, 2), 4)",
             # a precision below 1 once gave a nonzero value that read as 0
             "PadicNumber.from_fraction(3, 7, 0)", "PadicNumber.from_fraction(3, 7, -1)",
             "PadicNumber.from_int(3, 7, MAX_DIGITS + 1)", "PadicNumber.from_fraction(Fraction(1, 7), 7, 10**9)"]
    assert outcomes_within(setup, calls) == ["DomainError"] * len(calls)


def test_constructor_refuses_values_that_break_the_invariants():
    # a unit divisible by p, a zero with digits, a unit outside [1, p^precision)
    # and a nonzero value without digits
    for args in ((7, 0, 14, 3), (7, 3, 0, 5), (7, 0, -1, 3), (7, 0, 7**3 + 1, 3), (7, 0, 3, 0), (7, 0, 3, -1)):
        with pytest.raises(DomainError):
            localpoints.PadicNumber(*args)
    # the extremes that keep them
    assert [localpoints.PadicNumber(7, v, u, n).digits() for v, u, n in ((3, 0, 0), (-2, 1, 1), (0, 7**3 - 1, 3))] == [
        [], [1], [6, 6, 6]]


def test_from_fraction_converts_what_decompose_reports_at_the_bound():
    # a point in E_1 is its own formal part, reported with GUARD_DIGITS past
    # the precision asked for, so from_fraction converts up to MAX_DIGITS
    E = Curve(0, -2)
    P7 = q_scalar_mul(E, 7, QPoint.from_pair(3, 5))
    dec = decompose_point(E, P7, 7, MAX_PRECISION)
    digits = MAX_PRECISION + GUARD_DIGITS
    formal = QpPoint(as_oracle(dec.formal.x), as_oracle(dec.formal.y))
    assert formal == QpPoint(PadicNumber.from_fraction(P7.x, 7, digits), PadicNumber.from_fraction(P7.y, 7, digits))
