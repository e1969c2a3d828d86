"""Each checker accepts a right answer and rejects a planted wrong one.

    python3 -m pytest -q bench/selftest_checks.py

The file name keeps it out of the repository's default test collection:
it tests the benchmark, not eczero.
"""

from fractions import Fraction as F
import random

import pytest

import checks
from checks import CheckFailed


def row(**overrides):
    # y^2 = x^3 - 2 at p = 7, D = -3: good, anomalous, split; (3, -5) has t_valuation 1.
    base = {"n": 0, "label": "n=0", "A": 0, "B": -2, "good_p": True, "anomalous": True, "splits": True,
            "generator": "found", "gen": [3, 1, -5, 1], "formal_nontrivial": True, "t_valuation": 1,
            "verdicts": [checks.MIDDLE, checks.BRAUER, checks.EXACT], "error": None}
    base.update(overrides)
    return base


def test_reduction_flags():
    assert checks.reduction_flags(0, -2, 7, -3) == (True, True, True)
    assert checks.reduction_flags(0, -2 * 7**6, 7, -3) == (True, True, True)  # minimized first
    checks.check_row(row(), 7, -3, "ok")
    with pytest.raises(CheckFailed, match="flags"):
        checks.check_row(row(anomalous=False), 7, -3, "planted")
    with pytest.raises(CheckFailed, match="flags"):
        checks.check_row(row(splits=False), 7, -3, "planted")


def test_infinite_order():
    checks.check_infinite_order(0, -2, F(3), F(5), "ok")
    checks.check_infinite_order(0, -2, F(129, 100), F(383, 1000), "ok")  # Nagell-Lutz: not integral
    with pytest.raises(CheckFailed, match="torsion"):
        checks.check_infinite_order(0, 1, F(2), F(3), "planted")  # order 6
    with pytest.raises(CheckFailed, match="not on"):
        checks.check_infinite_order(0, -2, F(3), F(6), "planted")


def test_brute_force_search():
    checks.check_search(0, -2, 100, "found", (F(3), F(-5)), "ok")
    with pytest.raises(CheckFailed, match="smallest"):
        checks.check_search(0, -2, 100, "found", (F(3), F(5)), "planted")
    with pytest.raises(CheckFailed, match="unknown"):
        checks.check_search(0, -2, 100, "unknown", None, "planted")
    # y^2 = x^3 + 1 has only torsion points: unknown is the right answer.
    checks.check_search(0, 1, 100, "unknown", None, "ok")
    with pytest.raises(CheckFailed):
        checks.check_search(0, 1, 100, "found", (F(2), F(3)), "planted")


def test_t_valuation():
    checks.check_t_valuation(0, -2, 7, F(3), F(5), 1, "ok")
    with pytest.raises(CheckFailed, match="t_valuation"):
        checks.check_t_valuation(0, -2, 7, F(3), F(5), 2, "planted")
    # [7](3, 5) lies in E_1 with t-valuation 2; start the check from there.
    P = (F(3), F(5))
    Q = P
    for _ in range(6):
        Q = checks.q_add(Q, P, 0)
    checks.check_t_valuation(0, -2, 7, Q[0], Q[1], 2, "ok")
    with pytest.raises(CheckFailed, match="t_valuation"):
        checks.check_t_valuation(0, -2, 7, Q[0], Q[1], 1, "planted")
    with pytest.raises(CheckFailed, match="t_valuation"):
        checks.check_row(row(t_valuation=2, formal_nontrivial=False, verdicts=[checks.MIDDLE, checks.BRAUER]),
                         7, -3, "planted")


def test_verdicts():
    with pytest.raises(CheckFailed, match="verdicts"):
        checks.check_row(row(verdicts=[checks.MIDDLE, checks.BRAUER]), 7, -3, "planted")


def test_long_model_twin():
    short = row()
    long = row(A=0, B=-2 * 6**6, gen=[3 * 36, 1, -5 * 216, 1])
    checks.check_twin(long, short, "ok")
    with pytest.raises(CheckFailed, match="t_valuation"):
        checks.check_twin(dict(long, t_valuation=2), short, "planted")
    with pytest.raises(CheckFailed, match="generator"):
        checks.check_twin(dict(long, gen=[3 * 36, 1, 5 * 216, 1]), short, "planted")


def test_rejected_lines():
    err = "ingest line 3: parse error\ningest line 9: generator (1, 2) is not on the curve\nwrote out.json\n"
    checks.check_rejected(err, [9, 3], "ok")
    with pytest.raises(CheckFailed, match="rejected"):
        checks.check_rejected(err, [3], "planted")


def test_aggregate_and_csv():
    rows = [row(), row(n=1, label="n=1", generator="unknown", gen=None, formal_nontrivial=None,
                       t_valuation=None, verdicts=[checks.MIDDLE, checks.BRAUER])]
    agg = {"eligible": 2, "with_generator": 1, "nontrivial": 1, "fraction": "1/1", "generator_unknown": 1,
           "errors": 0}
    checks.check_aggregate(rows, agg)
    with pytest.raises(CheckFailed, match="aggregate"):
        checks.check_aggregate(rows, dict(agg, nontrivial=0, fraction="0/1"))
    csv_text = ("n,label,good7,anomalous,splits,generator,formal_nontrivial,verdicts\n"
                "0,n=0,true,true,true,found,true,MiddleTermZpSquared;BrauerPVanishes;UnconditionalExactness\n"
                "1,n=1,true,true,true,unknown,,MiddleTermZpSquared;BrauerPVanishes\n"
                "# aggregate eligible=2 with_generator=1 nontrivial=1 fraction=1/1 generator_unknown=1 note='x'\n")
    payload = {"rows": rows, "aggregate": agg}
    checks.check_csv_matches_json(csv_text, payload)
    with pytest.raises(CheckFailed, match="CSV row"):
        checks.check_csv_matches_json(csv_text.replace("unknown,,", "found,,"), payload)


def test_trace_properties():
    rng = random.Random(0)
    ap = 1033 + 1 - checks.euler_count(0, -2, 1033)
    checks.check_trace(0, -2, 1033, "good ordinary", ap == 1, ap, -3, rng)
    with pytest.raises(CheckFailed, match="Hasse"):
        checks.check_trace(0, -2, 1033, "good ordinary", False, 70, -3, rng)
    with pytest.raises(CheckFailed, match="O"):
        checks.check_trace(0, -2, 1033, "good ordinary", False, ap + 2, None, rng)
    with pytest.raises(CheckFailed, match="kind"):
        checks.check_trace(0, -2, 1033, "good supersingular", ap == 1, ap, -3, rng)
    # p = 1031 is 2 mod 3, so a j = 0 curve is supersingular there.
    checks.check_trace(0, -2, 1031, "good supersingular", False, 0, -3, rng)
    assert not checks.cm_trace_ok(-3, 1031, 2)
    assert checks.cm_trace_ok(-3, 7, 1) and not checks.cm_trace_ok(-3, 7, 2)
    assert checks.cm_trace_ok(-4, 13, 6) and not checks.cm_trace_ok(-4, 13, 2)
