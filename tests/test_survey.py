import csv
import io
import json
import random
import re
import sys

import pytest

import eczero.arith
import eczero.fp
import eczero.localpoints
import eczero.survey
import eczero.verdicts
from eczero.arith import kronecker_symbol
from eczero.errors import DomainError, InternalConsistencyError
from eczero.quadfields import ImagQuadField
from eczero.rational import Curve, QPoint, naive_point_search
from eczero.survey import (
    CSV_COLUMNS,
    CSV_HEADER,
    FamilySpec,
    IngestRecord,
    aggregate_rows,
    build_row,
    emit_report,
    find_generator,
    ingest_curves,
    scan_family,
    survey_records,
)

from oracles import formal_nontrivial_oracle

EN_SPEC = dict(a_const=0, a_slope=0, b_const=-2, b_slope=7, p=7, disc=-3)


def _spec(n_min, n_max, **kw):
    params = dict(EN_SPEC, n_min=n_min, n_max=n_max, height=500)
    params.update(kw)
    return FamilySpec(**params)


def test_ingest_basic(tmp_path):
    f = tmp_path / "curves.jsonl"
    f.write_text(
        '{"label": "E0", "A": 0, "B": -2, "gen": [3, 1, 5, 1]}\n'
        '{"label": "bad-gen", "A": 0, "B": -2, "gen": [0, 1, 0, 1]}\n'
        "not json at all\n"
        '{"label": "no-coeffs"}\n'
        '{"label": "long", "a1": 0, "a2": -1, "a3": 1, "a4": 0, "a6": 0, "gen": [0, 1, 0, 1]}\n'
    )
    result = ingest_curves(f)
    assert len(result.records) == 2
    rec = result.records[0]
    assert rec.curve == Curve(0, -2, label="E0")
    assert rec.generator == QPoint.from_pair(3, 5)
    long_rec = result.records[1]
    assert (long_rec.curve.a, long_rec.curve.b) == (-432, 8208)
    assert long_rec.generator == QPoint.from_pair(-12, 108)
    assert [ln for ln, _ in result.rejected] == [2, 3, 4]
    assert "not on the curve" in result.rejected[0][1]
    assert "parse error" in result.rejected[1][1]


def test_ingest_long_model_bad_generator_is_rejected(tmp_path):
    f = tmp_path / "curves.jsonl"
    f.write_text(
        '{"label": "zero-den", "a1": 0, "a2": 0, "a3": 0, "a4": -152, "a6": 722, "gen": [1, 0, 1, 1]}\n'
        '{"label": "E0", "A": 0, "B": -2, "gen": [3, 1, 5, 1]}\n'
        '{"label": "float", "a1": 0, "a2": -1, "a3": 1, "a4": 0, "a6": 0, "gen": [0.5, 1, 0, 1]}\n'
        '{"label": "long", "a1": 0, "a2": -1, "a3": 1, "a4": 0, "a6": 0, "gen": [0, 1, 0, 1]}\n'
    )
    result = ingest_curves(f)
    assert [rec.label for rec in result.records] == ["E0", "long"]
    assert [ln for ln, _ in result.rejected] == [1, 3]
    assert "denominators must be positive" in result.rejected[0][1]
    assert "integer entries" in result.rejected[1][1]


@pytest.fixture
def default_digit_limit():
    """CPython's default limit on the digits str() and int() convert, for the test's duration."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def write_overlong_curves(path):
    """Two lines with an integer past 4300 digits, one as written and one only
    once converted to the short model (c6 ~ a2^3), then one valid line."""
    path.write_text(
        f'{{"label": "wide", "A": 1{"0" * 4999}, "B": 1}}\n'
        f'{{"label": "tall", "a1": 0, "a2": {10**1500}, "a3": 0, "a4": 1, "a6": 1}}\n'
        '{"label": "E0", "A": 0, "B": -2, "gen": [3, 1, 5, 1]}\n'
    )


def test_ingest_rejects_integers_the_report_cannot_print(tmp_path, default_digit_limit):
    f = tmp_path / "curves.jsonl"
    write_overlong_curves(f)
    # the largest integer str() prints, 4300 nines, is kept, and the smallest
    # it refuses, 10^4300, is the short x = 36 x of a 4300-digit generator x
    f.write_text(
        f.read_text()
        + f'{{"label": "edge", "A": {"9" * 4300}, "B": 1}}\n'
        + f'{{"label": "x-edge", "a1": 0, "a2": 0, "a3": 0, "a4": 1, "a6": 1, "gen": [25{"0" * 4298}, 9, 0, 1]}}\n'
    )
    result = ingest_curves(f)
    assert [rec.label for rec in result.records] == ["E0", "edge"]
    assert result.records[1].curve.a == 10**4300 - 1
    assert [ln for ln, _ in result.rejected] == [1, 2, 5]
    assert result.rejected[0][1].startswith("parse error: ")
    too_long = "short model or generator has an integer of more than 4300 digits"
    assert [reason for _, reason in result.rejected[1:]] == [too_long, too_long]


def test_ingest_empty_file(tmp_path):
    f = tmp_path / "empty.jsonl"
    f.write_text("")
    result = ingest_curves(f)
    assert result.records == () and result.rejected == ()


def test_ingest_rank_and_source(tmp_path):
    f = tmp_path / "curves.jsonl"
    f.write_text('{"label": "E", "A": -4, "B": 1, "rank": 1, "source": "external table"}\n')
    result = ingest_curves(f)
    assert result.records[0].rank == 1
    assert result.records[0].source == "external table"


def test_ingest_rejects_bad_fields_by_line(tmp_path):
    f = tmp_path / "curves.jsonl"
    f.write_text(
        "# comment lines are skipped\n"
        "[0, -2]\n"
        '{"label": "float-A", "A": 0.5, "B": -2}\n'
        '{"label": "string-B", "A": 0, "B": "-2"}\n'
        '{"label": "float-a4", "a1": 0, "a2": 0, "a3": 0, "a4": 1.5, "a6": 0}\n'
        '{"label": "string-rank", "A": 0, "B": -2, "rank": "1"}\n'
        '{"label": "E0", "A": 0, "B": -2, "gen": [3, 1, 5, 1]}\n'
    )
    result = ingest_curves(f)
    assert [rec.label for rec in result.records] == ["E0"]
    assert result.rejected == (
        (2, "record must be a JSON object"),
        (3, "A and B must be integers"),
        (4, "A and B must be integers"),
        (5, "a1..a6 must be integers"),
        (6, "rank must be an integer"),
    )


def test_ingest_rejects_json_booleans_by_line(tmp_path):
    # bool is an int subclass, so true would pass an isinstance(int) test as
    # 1 and be printed back as true: every integer field holding it rejects
    # its line, and the other lines survey as they do without it.
    good = [
        '{"label": "E0", "A": 0, "B": -2, "gen": [3, 1, 5, 1], "rank": 1}',
        '{"label": "long", "a1": 0, "a2": -1, "a3": 1, "a4": 0, "a6": 0, "gen": [0, 1, 0, 1]}',
    ]
    long_ai = {"a1": 0, "a2": -1, "a3": 1, "a4": 0, "a6": 0}
    bad = [({"A": True, "B": 1}, "A and B must be integers"), ({"A": 0, "B": True}, "A and B must be integers")]
    bad += [({**long_ai, key: True}, "a1..a6 must be integers") for key in long_ai]
    for i in range(4):
        gen = [3, 1, 5, 1]
        gen[i] = True
        bad.append(({"A": 0, "B": -2, "gen": gen}, "gen must be [x_num, x_den, y_num, y_den] with integer entries"))
    bad.append(({"A": 0, "B": -2, "rank": True}, "rank must be an integer"))
    lines = [good[0]] + [json.dumps({"label": f"bool-{i}", **obj}) for i, (obj, _) in enumerate(bad)] + [good[1]]
    f, clean = tmp_path / "curves.jsonl", tmp_path / "clean.jsonl"
    f.write_text("\n".join(lines) + "\n")
    clean.write_text("\n".join(good) + "\n")
    result, expected = ingest_curves(f), ingest_curves(clean)
    assert result.rejected == tuple((2 + i, reason) for i, (_, reason) in enumerate(bad))
    assert result.records == expected.records and len(expected.records) == 2
    assert survey_records(result.records, 7, -3, 100) == survey_records(expected.records, 7, -3, 100)


def test_find_generator():
    gen = find_generator(Curve(0, -2), 100)
    assert gen == QPoint.from_pair(3, 5) or gen == QPoint.from_pair(3, -5)
    # torsion-only curve must not produce a generator: y^2 = x^3 + 1 has
    # rational 6-torsion and rank 0
    assert find_generator(Curve(0, 1), 60) is None


@pytest.mark.parametrize("height", [0, -5])
def test_height_below_one_is_an_error_not_an_empty_box(height):
    # an empty search would make every row "unknown" without saying why
    E = Curve(0, -2)
    for search in (find_generator, naive_point_search):
        with pytest.raises(DomainError, match="height bound must be >= 1"):
            search(E, height)


@pytest.mark.parametrize("height", [0, 10**6 + 1])
def test_survey_height_is_checked_once_at_entry(height, monkeypatch):
    # a survey refuses a height the search would refuse, before any row
    monkeypatch.setattr(eczero.survey, "build_row", lambda *a, **k: pytest.fail("a row was built"))
    message = "height bound must be >= 1" if height < 1 else "height bound must be <= 1000000"
    with pytest.raises(DomainError, match=message):
        _spec(0, 1, height=height)
    record = IngestRecord(label="E0", curve=Curve(0, -2), generator=None, rank=None, source=None)
    with pytest.raises(DomainError, match=message):
        survey_records([record], 7, -3, height)


def test_family_ends_bound_the_integers_the_report_prints(default_digit_limit):
    # A(n) and B(n) are linear in n, so the ends of the range bound every row
    too_long = re.escape("n, A(n) or B(n) has an integer of more than 4300 digits")
    big = 10**4000
    for ends in ((0, 10**400), (-(10**400), 0)):
        with pytest.raises(DomainError, match=too_long):
            FamilySpec(0, big, 1, 0, *ends, 7, -3, height=10)
        with pytest.raises(DomainError, match=too_long):
            FamilySpec(0, 0, 1, big, *ends, 7, -3, height=10)
    with pytest.raises(DomainError, match=too_long):
        FamilySpec(0, 0, 10**4300, 0, 0, 0, 7, -3, height=10)
    FamilySpec(0, 0, 10**4300 - 1, 0, 0, 0, 7, -3, height=10)  # 4300 nines print


def test_family_members_are_the_n_with_those_coefficients():
    # members(a, b) solves n from a nonzero slope; checked by brute force on
    # families with A, B, both or neither moving, for every (a, b) they reach
    # and for near misses
    for slopes in ((0, 7), (3, 0), (-2, 5), (4, -6), (0, 0)):
        spec = FamilySpec(1, slopes[0], -2, slopes[1], -4, 5, 7, -3, height=10)
        reached = {(spec.a_const + spec.a_slope * n, spec.b_const + spec.b_slope * n) for n in range(-6, 8)}
        for a, b in reached | {(a + 1, b) for a, b in reached} | {(a, b - 1) for a, b in reached}:
            brute = [n for n in range(-4, 6) if (1 + slopes[0] * n, -2 + slopes[1] * n) == (a, b)]
            assert list(spec.members(a, b)) == brute, (slopes, a, b)


def test_scan_family_single_row_matches_oracle():
    spec = _spec(0, 0, generators={0: QPoint.from_pair(3, 5)})
    rows, agg = scan_family(spec)
    assert len(rows) == 1
    row = rows[0]
    assert row.generator_status == "ingested"
    assert row.good_p and row.anomalous and row.splits
    expected = formal_nontrivial_oracle(Curve(0, -2), QPoint.from_pair(3, 5), 7, 24)
    assert row.formal_nontrivial == expected
    assert "MiddleTermZpSquared" in row.verdicts
    assert "BrauerPVanishes" in row.verdicts
    assert ("UnconditionalExactness" in row.verdicts) == expected
    assert agg == {
        "eligible": 1,
        "with_generator": 1,
        "nontrivial": 1 if expected else 0,
        "fraction": "1/1" if expected else "0/1",
        "generator_unknown": 0,
        "errors": 0,
        "note": agg["note"],
    }


def test_scan_family_good_reduction_everywhere():
    rows, _ = scan_family(_spec(-12, 12))
    assert all(r.good_p and r.anomalous for r in rows if r.error is None)
    # discriminant of E_n is never divisible by 7
    for n in range(-12, 13):
        assert Curve(0, -2 + 7 * n).discriminant % 7 != 0


def test_scan_rows_are_range_independent():
    a, _ = scan_family(_spec(-6, 6))
    b1, _ = scan_family(_spec(-6, -1))
    b2, _ = scan_family(_spec(0, 6))
    assert a == b1 + b2


def test_scan_determinism():
    spec = _spec(-5, 5)
    rows1, agg1 = scan_family(spec)
    rows2, agg2 = scan_family(spec)
    assert rows1 == rows2 and agg1 == agg2
    assert emit_report(rows1, agg1, "csv") == emit_report(rows2, agg2, "csv")
    assert emit_report(rows1, agg1, "json") == emit_report(rows2, agg2, "json")


def test_empty_denominator_reported_not_crashed():
    # a family that never satisfies the split hypothesis: disc -11 at p = 7
    spec = FamilySpec(
        a_const=0, a_slope=0, b_const=-2, b_slope=7, n_min=0, n_max=2, p=7, disc=-11, height=10
    )
    rows, agg = scan_family(spec)
    assert all(r.splits is False for r in rows)
    assert agg["eligible"] == 0 and agg["with_generator"] == 0
    assert agg["fraction"] is None


def test_singular_member_is_an_error_row():
    # y^2 = x^3 + n: n = 0 is singular, its neighbours are ordinary rows
    spec = FamilySpec(0, 0, 0, 1, -1, 1, 7, -3, height=50)
    rows, agg = scan_family(spec)
    assert [r.n for r in rows] == [-1, 0, 1]
    assert rows[1].error == "singular model: -16(4a^3 + 27b^2) = 0"
    assert (rows[1].curve_a, rows[1].curve_b) == (None, None)
    assert agg["errors"] == 1
    for row in (rows[0], rows[2]):
        alone, _ = scan_family(FamilySpec(0, 0, 0, 1, row.n, row.n, 7, -3, height=50))
        assert alone == [row] and row.error is None


def test_aggregate_counts():
    rows, agg = scan_family(_spec(-30, 30))
    assert agg["eligible"] == 61 - agg["errors"]
    assert agg["nontrivial"] <= agg["with_generator"] <= agg["eligible"]
    ran = [r for r in rows if r.formal_nontrivial is not None]
    assert len(ran) == agg["with_generator"]
    assert sum(1 for r in ran if r.formal_nontrivial) == agg["nontrivial"]


def test_emit_csv_shape():
    rows, agg = scan_family(_spec(0, 0, generators={0: QPoint.from_pair(3, 5)}))
    text = emit_report(rows, agg, "csv")
    lines = text.strip().split("\n")
    assert len(lines) == 3  # header, row, footer
    assert lines[0] == CSV_HEADER
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "true" and first[5] == "ingested"
    assert lines[2].startswith("# aggregate ")


def test_emit_csv_quotes_labels(tmp_path):
    labels = ["a,b", 'q"x', "two\nlines"]
    f = tmp_path / "labels.jsonl"
    f.write_text("".join(json.dumps({"label": s, "A": 0, "B": -2, "gen": [3, 1, 5, 1]}) + "\n" for s in labels))
    result = ingest_curves(f)
    rows, agg = survey_records(result.records, 7, -3, 10)
    table = list(csv.reader(io.StringIO(emit_report(rows, agg, "csv"))))
    assert table[0] == CSV_HEADER.split(",")
    assert [len(cells) for cells in table[1:-1]] == [8, 8, 8]
    assert [cells[1] for cells in table[1:-1]] == labels


def _csv_cell(value):
    # the report's cell for a JSON value, written out independently
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return ";".join(value) if isinstance(value, list) else str(value)


def test_csv_rows_are_json_rows_read_through_the_columns():
    # every row shape: singular n, domain error, unknown, found with three
    # verdicts, ingested; eligible and not
    K3 = ImagQuadField(-3)
    rows, _ = scan_family(FamilySpec(0, 0, 0, 1, -3, 3, 7, -3, height=50))
    rows += [
        build_row(Curve(0, -9, label="n=-1 of y^2 = x^3 - 2 + 7n"), 7, K3, 100),
        build_row(Curve(0, -2, label="E0,ingested"), 7, K3, 10, ingested_generator=QPoint.from_pair(3, 5)),
        build_row(Curve(0, -2, label="off"), 7, K3, 10, ingested_generator=QPoint.from_pair(1, 1)),
    ]
    agg = aggregate_rows(rows)
    shapes = {(r.error is not None, r.generator_status, len(r.verdicts)) for r in rows}
    assert {(True, "unknown", 0), (False, "unknown", 0), (False, "unknown", 2), (False, "found", 3),
            (False, "found", 0), (False, "ingested", 3)} <= shapes
    assert any(r.n is not None and r.error and r.error.startswith("singular") for r in rows)
    table = list(csv.reader(io.StringIO(emit_report(rows, agg, "csv"))))
    payload = json.loads(emit_report(rows, agg, "json"))
    assert table[0] == list(CSV_COLUMNS)
    assert table[1:-1] == [[_csv_cell(row[c]) for c in CSV_COLUMNS] for row in payload["rows"]]
    eligible = [row for row in payload["rows"] if "MiddleTermZpSquared" in row["verdicts"]]
    assert agg["eligible"] == payload["aggregate"]["eligible"] == len(eligible) == 3
    # the rule fires exactly where the row's flags say it may
    assert eligible == [row for row in payload["rows"]
                        if row["error"] is None and row["good_p"] and row["anomalous"] and row["splits"]]


def test_emit_csv_empty():
    text = emit_report([], aggregate_rows([]), "csv")
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER


def test_json_report_roundtrips_through_ingest(tmp_path):
    spec = _spec(-3, 3, generators={0: QPoint.from_pair(3, 5)})
    rows, agg = scan_family(spec)
    payload = json.loads(emit_report(rows, agg, "json"))
    assert payload["aggregate"]["note"]
    jsonl = tmp_path / "roundtrip.jsonl"
    lines = []
    for row in payload["rows"]:
        rec = {"label": row["label"], "A": row["A"], "B": row["B"]}
        if row["gen"]:
            rec["gen"] = row["gen"]
        lines.append(json.dumps(rec))
    jsonl.write_text("\n".join(lines) + "\n")
    result = ingest_curves(jsonl)
    assert not result.rejected
    assert [r.curve.a for r in result.records] == [row["A"] for row in payload["rows"]]
    assert [r.curve.b for r in result.records] == [row["B"] for row in payload["rows"]]
    by_label = {r.label: r for r in result.records}
    assert by_label["n=0"].generator == QPoint.from_pair(3, 5)
    for rec in result.records:
        if rec.generator is not None:
            assert rec.curve.contains(rec.generator)


def test_build_row_for_ingested_record():
    row = build_row(
        Curve(0, -2, label="E0"),
        7,
        ImagQuadField(-3),
        height=100,
        ingested_generator=QPoint.from_pair(3, 5),
    )
    assert row.label == "E0"
    assert row.formal_nontrivial is not None



def test_build_row_classifies_reduction_once(monkeypatch):
    # build_row's one record (HypothesisRecord.for_pair) classifies the
    # reduction the row reports and the verdict reads, so points at p are
    # counted once per row.
    expected = build_row(Curve(0, -2), 7, ImagQuadField(-3), height=100)
    calls = []
    real = eczero.verdicts.reduction_type

    def counted(curve, p):
        calls.append((curve, p))
        return real(curve, p)

    monkeypatch.setattr(eczero.verdicts, "reduction_type", counted)
    row = build_row(Curve(0, -2), 7, ImagQuadField(-3), height=100)
    assert row == expected
    assert row.error is None and len(row.verdicts) == 3
    assert calls == [(Curve(0, -2), 7)]

def test_row_eligibility_is_the_middle_term_rule(monkeypatch):
    # No second eligibility test: a rule that fires nothing leaves every row
    # without verdicts or t-valuation, and no row fails.
    def fires_nothing(record):
        return []

    monkeypatch.setattr(eczero.survey, "brauer_middle_term_verdict", fires_nothing)
    rows, agg = scan_family(_spec(-1, 1, height=100))
    assert [r.n for r in rows] == [-1, 0, 1]
    assert [r.generator_status for r in rows] == ["unknown", "found", "found"]
    for r in rows:
        assert r.error is None and r.good_p and r.anomalous and r.splits
        assert r.verdicts == () and r.t_valuation is None and r.formal_nontrivial is None
    assert agg["errors"] == 0


def test_survey_row_label_is_the_record_label(tmp_path):
    # y^2 + 2xy + 2y = x^3 + 2x^2 + x - 2 is y^2 = x^3 - 2 moved by x = X + 1,
    # y = Y + X + 1, and carries (3, 5) as (2, 2)
    f = tmp_path / "curves.jsonl"
    f.write_text(
        '{"label": "E0-long", "a1": 2, "a2": 2, "a3": 2, "a4": 1, "a6": -2, "gen": [2, 1, 2, 1]}\n'
        '{"A": 0, "B": -2, "gen": [3, 1, 5, 1]}\n'
    )
    result = ingest_curves(f)
    rows, _ = survey_records(result.records, 7, -3)
    assert [r.label for r in rows] == ["E0-long", "line2"]
    assert [r.label for r in rows] == [rec.curve.label for rec in result.records]
    assert rows[0].generator_status == "ingested" and rows[0].t_valuation == 1
    assert rows[0].verdicts == rows[1].verdicts == (
        "MiddleTermZpSquared", "BrauerPVanishes", "UnconditionalExactness",
    )


def test_rows_fire_the_cm_rules_only_on_curves_with_cm():
    # y^2 = x^3 + 3x + b is good, anomalous and split at 7 for these b, but
    # j != 0, so it has no CM by O_{-3}: no rule fires.  On b = -9 the rule
    # once fired on an assumed CM and the row then failed its torsion lift.
    K3 = ImagQuadField(-3)
    for b in (-2, -16, -23, -30, -9):
        row = build_row(Curve(3, b), 7, K3, 1000)
        assert row.error is None, (b, row.error)
        assert (row.good_p, row.anomalous, row.splits) == (True, True, True), b
        assert row.verdicts == () and row.t_valuation is None, b
    records = [IngestRecord(str(c), c, None, None, None) for c in (Curve(3, -2), Curve(0, -2))]
    rows, agg = survey_records(records, 7, -3, 1000)
    assert [r.verdicts for r in rows] == [(), ("MiddleTermZpSquared", "BrauerPVanishes", "UnconditionalExactness")]
    assert agg["eligible"] == 1


def test_emit_report_rejects_unknown_format():
    rows, agg = scan_family(_spec(0, 0))
    with pytest.raises(DomainError, match="^unknown report format 'xml'$"):
        emit_report(rows, agg, "xml")


def test_build_row_captures_errors():
    # ingested generator that is not on the curve
    row = build_row(
        Curve(0, -2),
        7,
        ImagQuadField(-3),
        height=10,
        ingested_generator=QPoint.from_pair(1, 1),
    )
    assert row.error is not None and "not on" in row.error


@pytest.mark.parametrize("error", [InternalConsistencyError("bad lift"), ZeroDivisionError("bad lift")])
def test_internal_error_in_one_row_does_not_abort_scan(monkeypatch, error):
    spec = _spec(-3, 3)
    clean, _ = scan_family(spec)
    broken_n = next(r.n for r in clean if r.formal_nontrivial is not None)
    real = eczero.survey.t_valuation_at

    def t_valuation_or_fail(r, point, p):
        if r.minimal.b == -2 + 7 * broken_n:
            raise error
        return real(r, point, p)

    monkeypatch.setattr(eczero.survey, "t_valuation_at", t_valuation_or_fail)
    rows, agg = scan_family(spec)
    assert [r for r in rows if r.n != broken_n] == [r for r in clean if r.n != broken_n]
    (row,) = [r for r in rows if r.n == broken_n]
    assert row.error == f"internal error: {type(error).__name__}: bad lift"
    assert agg["errors"] == 1


def _seeded_twist_records(p, A, B, count=6, symbol=1):
    # twists of a CM curve anomalous at p by d = f(x0), carrying (d x0, d^2);
    # with symbol=-1 the twists by a non-residue d, which are not anomalous
    rng, records = random.Random(p), []
    while len(records) < count:
        x0 = rng.randint(-300, 300)
        d = x0**3 + A * x0 + B
        if d != 0 and kronecker_symbol(d, p) == symbol:
            curve = Curve(A * d * d, B * d**3)
            records.append(IngestRecord(f"d={d}", curve, QPoint.from_pair(d * x0, d * d), None, None))
    return records


def test_survey_rows_lift_no_torsion(monkeypatch):
    # a row's t-valuation comes from [p]P alone: no torsion lift, no
    # p-adic number and no precision retry
    surveys = [
        lambda: scan_family(_spec(-50, 50, height=10**4)),
        lambda: survey_records(_seeded_twist_records(43, -152, 722), 43, -19),
        lambda: survey_records(_seeded_twist_records(223, -1056, 13552), 223, -11),
    ]
    expected = [survey() for survey in surveys]
    tvals = {r.t_valuation for rows, _ in expected for r in rows}
    assert {1, 2} <= tvals

    def forbidden(*args, **kwargs):
        raise AssertionError("the survey path reached the torsion lift")

    for module, name in (
        (eczero.localpoints, "lift_p_torsion"),
        (eczero.localpoints, "_lift_torsion"),
        (eczero.localpoints, "_decompose"),
        (eczero.localpoints.PadicNumber, "__init__"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    assert [survey() for survey in surveys] == expected


def test_rows_count_points_at_p_once(monkeypatch):
    # a row's record counts E(F_p) once, and its t-valuation reads that
    # record's verified good, anomalous reduction instead of counting again:
    # at p = 7, at 43 and 223, and at 271 > 229, where a j = 0 curve is
    # counted by the CM route rather than the sweep
    surveys = [
        lambda: scan_family(_spec(0, 1, height=100))[0],
        lambda: survey_records(_seeded_twist_records(43, -152, 722, count=3), 43, -19)[0],
        lambda: survey_records(_seeded_twist_records(223, -1056, 13552, count=3), 223, -11)[0],
        lambda: [build_row(Curve(0, -288), 271, ImagQuadField(-3), 100, ingested_generator=QPoint.from_pair(9, -21))],
    ]
    calls = []
    real = eczero.fp.count_points
    monkeypatch.setattr(eczero.fp, "count_points", lambda curve: calls.append(curve.p) or real(curve))
    for survey, p in zip(surveys, (7, 43, 223, 271)):
        calls.clear()
        rows = survey()
        assert all(r.error is None and r.t_valuation is not None for r in rows), p
        assert "UnconditionalExactness" in rows[0].verdicts
        assert calls == [p] * len(rows), p


def test_rows_test_their_prime_three_times(monkeypatch):
    # a classified row tests p for primality three times: the record's own
    # test, reduction_type's and one splitting test (the middle-term rule's,
    # or the splits column's when the rule does not read it), whether the
    # rule fires or not; the row adds none, since its callers test p.  A
    # direct call refuses p = 3, which the record leaves unclassified, and a
    # composite p with the record's text.
    calls = []
    real = eczero.arith.is_prime
    for module in (eczero.arith, eczero.verdicts):
        monkeypatch.setattr(module, "is_prime", lambda n: calls.append(n) or real(n))
    K3 = ImagQuadField(-3)
    for curve, fires in ((Curve(0, -2), True), (Curve(0, 5), True), (Curve(0, 1), False)):
        calls.clear()
        row = build_row(curve, 7, K3, 100)
        assert row.error is None and ("MiddleTermZpSquared" in row.verdicts) == fires, curve
        assert calls == [7] * 3, curve
    assert build_row(Curve(0, -2), 3, K3, 100).error == "p must be a prime >= 5, got 3"
    assert build_row(Curve(0, -2), 9, K3, 100).error == "9 is not prime"


def test_rows_test_splitting_at_p_once(monkeypatch):
    # (D|p) is tested once per row: a firing of the middle-term rule verified
    # that p splits, so the splits column reads the firing, and a row where
    # the rule did not fire (not anomalous, or no CM by the field) tests it
    # itself.  At p = 7, at 43 and 223 on anomalous and non-anomalous twists,
    # and at 43 against Q(sqrt(-3)), which the D = -19 twists have no CM by.
    twists43 = _seeded_twist_records(43, -152, 722, count=3)
    twists43 += _seeded_twist_records(43, -152, 722, count=3, symbol=-1)
    surveys = [
        (lambda: scan_family(_spec(-20, 20, height=100))[0], 7, -3),
        (lambda: survey_records(twists43, 43, -19)[0], 43, -19),
        (lambda: survey_records(_seeded_twist_records(223, -1056, 13552, count=3), 223, -11)[0], 223, -11),
        (lambda: survey_records(twists43, 43, -3)[0], 43, -3),
    ]
    calls = []
    for module in (eczero.survey, eczero.verdicts):
        real = module.splits_completely
        monkeypatch.setattr(module, "splits_completely", lambda field, p, real=real: calls.append(p) or real(field, p))
    fired = set()
    for survey, p, D in surveys:
        calls.clear()
        rows = survey()
        assert all(r.error is None and r.splits == (kronecker_symbol(D, p) == 1) for r in rows), p
        assert calls == [p] * len(rows), p
        fired |= {"MiddleTermZpSquared" in r.verdicts for r in rows}
    assert fired == {True, False}


def test_family_spec_validation():
    with pytest.raises(DomainError):
        FamilySpec(**dict(EN_SPEC, n_min=3, n_max=1))
    with pytest.raises(DomainError):
        FamilySpec(a_const=0, a_slope=0, b_const=-2, b_slope=7, n_min=0, n_max=1, p=3, disc=-3)
