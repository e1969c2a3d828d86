import contextlib
import gc
import hashlib
import importlib
import io
import json
import subprocess
import sys
import time
import types
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner

import eczero
import eczero.cli
from eczero.cli import cli
from eczero.errors import DomainError, InternalConsistencyError
from eczero.quadfields import RESIDUE_LIMIT

from test_survey import default_digit_limit, write_overlong_curves  # noqa: F401  (a fixture)

runner = CliRunner()


def run(*args):
    return runner.invoke(cli, list(args))


def test_anomalous_primes_json():
    res = run("anomalous-primes", "--disc", "-3", "--bound", "100", "--json")
    assert res.exit_code == 0
    assert json.loads(res.output) == [7, 19, 37, 61]


def test_anomalous_primes_text():
    res = run("anomalous-primes", "--disc", "-3", "--bound", "100")
    assert res.exit_code == 0
    assert "4*7 = 1^2 + 3*3^2" in res.output


def test_anomalous_primes_refuses_bound_past_2_40():
    bound = 2**40 + 1
    res = run("anomalous-primes", "--disc", "-3", "--bound", str(bound), "--json")
    assert res.exit_code == 1 and res.stdout == ""
    assert json.loads(res.stderr) == {"error": f"anomalous primes are listed for bound <= 2^40, got {bound}"}


def test_anomalous_primes_refuses_bound_below_5():
    res = run("anomalous-primes", "--disc", "-3", "--bound", "4", "--json")
    assert res.exit_code == 1 and res.stdout == ""
    assert json.loads(res.stderr) == {"error": "bound must be >= 5"}


def test_anomalous_residues():
    res = run("anomalous-residues", "--p", "7", "--json")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload == {"p": 7, "residues": [5], "count": 1}
    res = run("anomalous-residues", "--p", str(RESIDUE_LIMIT + 1), "--json")
    assert res.exit_code == 1 and res.stdout == ""
    message = f"anomalous residues are listed for p <= {RESIDUE_LIMIT}, got {RESIDUE_LIMIT + 1}"
    assert json.loads(res.stderr) == {"error": message}


def test_classify_json():
    res = run("classify", "--a", "0", "--b", "-2", "--p", "7", "--json")
    payload = json.loads(res.output)
    assert payload == {
        "p": 7,
        "kind": "good ordinary",
        "anomalous": True,
        "trace": 1,
        "count": 7,
    }


def test_check_curve_reports_splitting():
    res = run("check-curve", "--a", "0", "--b", "-2", "--p", "7", "--json")
    payload = json.loads(res.output)
    assert payload["anomalous"] is True
    assert payload["splits"]["-3"] is True
    assert payload["trace_compatible_discs"] == [-3]
    text = run("check-curve", "--a", "0", "--b", "-2", "--p", "7")
    assert "anomalous" in text.output and "Q(sqrt(-3))" in text.output
    # a CM curve's trace is always compatible with its own field: 4p = a_p^2 + 11 v^2
    res = run("check-curve", "--a", "-1056", "--b", "13552", "--p", "1000033", "--json")
    payload = json.loads(res.output)
    assert payload["splits"]["-11"] is True and -11 in payload["trace_compatible_discs"]


def test_lift_torsion_json():
    res = run(
        "lift-torsion", "--a", "0", "--b", "-2", "--p", "7",
        "--x", "3", "--y", "5", "--prec", "12", "--json",
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["torsion"]["x"]["valuation"] == 0
    assert payload["torsion"]["x"]["digits"][0] == 3  # reduces to x = 3


def test_decompose_matches_library():
    res = run("decompose", "--a", "0", "--b", "-2", "--p", "7", "--gen", "3,1,5,1", "--json")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    from eczero.localpoints import decompose_point, decomposition_to_dict
    from eczero.rational import Curve, QPoint

    expected = decomposition_to_dict(decompose_point(Curve(0, -2), QPoint.from_pair(3, 5), 7, 16))
    assert payload == json.loads(json.dumps(expected))


def test_decompose_rejects_precision_below_1():
    # 3,1,5,1 needs a torsion lift; [7](3, 5) is in E_1 and needs none
    from eczero.rational import Curve, QPoint, q_scalar_mul

    P7 = q_scalar_mul(Curve(0, -2), 7, QPoint.from_pair(3, 5))
    e1_gen = f"{P7.x.numerator},{P7.x.denominator},{P7.y.numerator},{P7.y.denominator}"
    for gen in ("3,1,5,1", e1_gen):
        base = ["decompose", "--a", "0", "--b", "-2", "--p", "7", "--gen", gen, "--json"]
        for prec in (-4, 0):
            res = run(*base, "--prec", str(prec))
            assert res.exit_code == 2 and res.stdout == ""
            assert json.loads(res.stderr) == {"error": f"--prec must be >= 1, got {prec}"}
        res = run(*base, "--prec", "1")
        if gen == e1_gen:
            assert res.exit_code == 0 and json.loads(res.stdout)["precision"] == 1
        else:
            assert res.exit_code == 1
            assert json.loads(res.stderr) == {"error": "decomposition outside E_1 needs precision >= 2, got 1"}


def test_decompose_converts_an_e1_point_at_the_precision_bound():
    # a point in E_1 converts with GUARD_DIGITS past --prec, so the
    # conversion's own bound must lie above MAX_PRECISION
    from eczero.localpoints import GUARD_DIGITS, MAX_PRECISION
    from eczero.rational import Curve, QPoint, q_scalar_mul

    P7 = q_scalar_mul(Curve(0, -2), 7, QPoint.from_pair(3, 5))
    e1_gen = f"{P7.x.numerator},{P7.x.denominator},{P7.y.numerator},{P7.y.denominator}"
    res = run("decompose", "--a", "0", "--b", "-2", "--p", "7", "--gen", e1_gen, "--prec", str(MAX_PRECISION), "--json")
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["precision"] == MAX_PRECISION and payload["t_valuation"] == 2
    assert payload["formal"]["x"]["precision"] == MAX_PRECISION + GUARD_DIGITS


def test_local_commands_refuse_precision_past_the_bound():
    # in a child process under a timeout, so a lift that runs for hours fails
    src = str(Path(eczero.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); from eczero.cli import main; main()"
    point = {"decompose": ["--gen", "3,1,5,1"], "lift-torsion": ["--x", "3", "--y", "5"]}
    for command, args in point.items():
        base = [sys.executable, "-c", code, command, "--a", "0", "--b", "-2", "--p", "7", *args]
        out = subprocess.run([*base, "--prec", "1000000", "--json"], capture_output=True, text=True, timeout=30)
        assert out.returncode == 1 and out.stdout == ""
        assert json.loads(out.stderr) == {"error": "precision must be <= 1024, got 1000000"}
        assert "at most 1024" in run(command, "--help").output


def test_verdict_json_fires_rules():
    res = run(
        "verdict", "--a", "0", "--b", "-2", "--p", "7",
        "--disc", "-3", "--gen", "3,1,5,1", "--json",
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    names = [v["conclusion"] for v in payload["verdicts"]]
    assert names == ["MiddleTermZpSquared", "BrauerPVanishes", "UnconditionalExactness"]
    assert all(not v["conditional"] for v in payload["verdicts"])
    assert "CM by the full ring of integers of Q(sqrt(-3)) (verified)" in payload["verdicts"][0]["hypotheses"]
    assert payload["admissibility"]["admissible"] is True
    # ablations: no field, the wrong field, and a curve without CM (j = 864),
    # anomalous at the split 7; the last two also run the CM tower rule
    for extra in (["--a", "0", "--b", "-2"], ["--a", "0", "--b", "-2", "--disc", "-19", "--tower-level", "1"],
                  ["--a", "3", "--b", "-2", "--disc", "-3", "--tower-level", "1"]):
        res2 = run("verdict", *extra, "--p", "7", "--gen", "3,1,5,1", "--json")
        assert res2.exit_code == 0, (extra, res2.output)
        assert json.loads(res2.output)["verdicts"] == [], extra


def test_verdict_has_no_cm_option():
    # CM by O_D is verified from j(E1); it is not the caller's to assert
    res = run("verdict", "--a", "0", "--b", "-2", "--p", "7", "--disc", "-3", "--cm")
    assert res.exit_code == 2
    assert "No such option '--cm'" in res.output
    assert "--cm" not in run("verdict", "--help").output


def test_verdict_fires_the_cm_rules_on_a_self_product_only():
    # the CM rules speak about E x E: a second curve that is not E1 (here
    # j = 864, without CM) fires none of them, and one equal to E1 all three
    base = ["verdict", "--a", "0", "--b", "-2", "--p", "7", "--disc", "-3", "--tower-level", "1", "--json"]
    cm_rules = ["MiddleTermZpSquared", "BrauerPVanishes", "NdIsZmodPn(1)"]
    for e2, expected in ((["--e2-a", "3", "--e2-b", "-2"], []), (["--e2-a", "0", "--e2-b", "-2"], cm_rules), ([], cm_rules)):
        res = run(*base, *e2)
        assert res.exit_code == 0, (e2, res.output)
        assert [v["conclusion"] for v in json.loads(res.output)["verdicts"]] == expected, e2


def test_verdict_has_no_precision_option():
    # --gen is decided on [p]P by formal_t_valuation, which needs no precision
    res = run("verdict", "--a", "0", "--b", "-2", "--p", "7", "--prec", "16")
    assert res.exit_code == 2
    assert "No such option '--prec'" in res.output


def test_verdict_gen_lifts_no_torsion(monkeypatch):
    import eczero.localpoints

    def forbidden(*args, **kwargs):
        raise AssertionError("verdict --gen reached the torsion lift")

    for module, name in (
        (eczero.localpoints, "lift_p_torsion"),
        (eczero.localpoints, "_lift_torsion"),
        (eczero.localpoints, "_decompose"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    res = run(
        "verdict", "--a", "0", "--b", "-2", "--p", "7",
        "--disc", "-3", "--gen", "3,1,5,1", "--json",
    )
    assert res.exit_code == 0, res.output
    names = [v["conclusion"] for v in json.loads(res.output)["verdicts"]]
    assert names[-1] == "UnconditionalExactness"


def test_verdict_quartic_and_divisibility():
    res = run("verdict", "--a", "-4", "--b", "0", "--p", "13", "--unramified", "--json")
    payload = json.loads(res.output)
    names = [v["conclusion"] for v in payload["verdicts"]]
    assert "Divisible" in names and "QuarticNd2Primary" in names


def test_verdict_counts_points_once_per_curve(monkeypatch):
    import eczero.fp

    calls = []
    real = eczero.fp.count_points
    monkeypatch.setattr(eczero.fp, "count_points", lambda c: calls.append(c) or real(c))
    base = ["verdict", "--a", "0", "--b", "-2", "--p", "7", "--disc", "-3", "--tower-level", "1"]
    res = run(*base)
    assert res.exit_code == 0 and "NdIsZmodPn(1)" in res.stdout
    assert len(calls) == 1
    calls.clear()
    res = run(*base, "--e2-a", "-4", "--e2-b", "0")
    assert res.exit_code == 0
    assert len(calls) == 2


def test_verdict_checks_gen_and_tower_level_whatever_fires():
    # --gen was once parsed only when the middle-term rule fired, and
    # --tower-level checked only when the CM tower rule could run
    base = ["verdict", "--a", "0", "--b", "-2", "--p", "7"]
    for extra in ([], ["--disc", "-3"], ["--disc", "-19"]):
        res = run(*base, *extra, "--gen", "garbage")
        assert res.exit_code == 2 and res.stdout == ""
        assert "Error: --gen: invalid literal for int() with base 10: 'garbage'\n" in res.stderr
        for level in ("0", "-1"):
            res = run(*base, *extra, "--tower-level", level)
            assert res.exit_code == 1 and res.stdout == ""
            assert json.loads(res.stderr) == {"error": "tower level n must be >= 1"}


def test_verdict_refuses_degrees_orders_and_levels_below_1():
    # each once gave a nonsense admissibility reason or fired nothing
    base = ["verdict", "--a", "0", "--b", "-2", "--p", "7", "--json"]
    flags = {
        "--deg-phi": "isogeny degree",
        "--field-degree": "field degree",
        "--bad-fiber-order": "bad-fiber order",
        "--torsion-level": "torsion level n",
    }
    for flag, what in flags.items():
        for value in ("0", "-7"):
            res = run(*base, flag, value)
            assert res.exit_code == 1 and res.stdout == "", (flag, value)
            assert json.loads(res.stderr) == {"error": f"{what} must be >= 1"}


def test_verdict_rejects_half_given_e2():
    for flag in ("--e2-a", "--e2-b"):
        res = run("verdict", "--a", "0", "--b", "-2", "--p", "7", flag, "5")
        assert res.exit_code == 2
        assert "--e2-a and --e2-b must be given together" in res.stderr


def test_scan_csv_and_roundtrip(tmp_path):
    out = tmp_path / "scan.csv"
    res = run(
        "scan", "--a0", "0", "--b0", "-2", "--b1", "7", "--p", "7", "--disc", "-3",
        "--nmin", "0", "--nmax", "2", "--height", "100", "--out", str(out),
    )
    assert res.exit_code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("n,label,good_p")
    assert len(lines) == 5  # header + 3 rows + footer
    assert lines[-1].startswith("# aggregate ")


def test_scan_fires_no_cm_rule_for_the_wrong_field():
    # y^2 = x^3 - 2 + 7n has j = 0, so CM by O_{-3}; 7 splits in Q(sqrt(-19))
    # too, but the curves have no CM by O_{-19}
    family = ["scan", "--a0", "0", "--b0", "-2", "--b1", "7", "--p", "7", "--nmin", "0", "--nmax", "3",
              "--height", "100", "--json"]
    wrong = json.loads(run(*family, "--disc", "-19").output)
    right = json.loads(run(*family, "--disc", "-3").output)
    assert [r["splits"] for r in wrong["rows"]] == [True] * 4
    assert [r["verdicts"] for r in wrong["rows"]] == [[]] * 4
    assert all(r["error"] is None and r["t_valuation"] is None for r in wrong["rows"])
    assert wrong["aggregate"]["eligible"] == 0
    assert right["aggregate"]["eligible"] == 4


def test_scan_json_parses_and_is_deterministic(tmp_path):
    args = (
        "scan", "--a0", "0", "--b0", "-2", "--b1", "7", "--p", "7", "--disc", "-3",
        "--nmin", "-2", "--nmax", "2", "--height", "100", "--json",
    )
    a, b = run(*args), run(*args)
    assert a.exit_code == 0
    assert a.output == b.output
    payload = json.loads(a.output)
    assert len(payload["rows"]) == 5
    assert payload["aggregate"]["eligible"] == 5


def test_survey_height_outside_the_bound_is_refused_at_entry(tmp_path):
    # a height the search refuses once made every row an error, which the
    # CSV, having no error column, showed as a plain "unknown"
    f = tmp_path / "curves.jsonl"
    f.write_text('{"label": "E0", "A": 0, "B": -2}\n{"label": "no-coeffs"}\n')
    family = ["--a0", "0", "--b0", "-2", "--b1", "7", "--p", "7", "--disc", "-3", "--nmin", "0", "--nmax", "1"]
    for height, message in (("0", "height bound must be >= 1"), ("2000000", "height bound must be <= 1000000")):
        for args in (["scan", *family, "--ingest", str(f)], ["report", "--input", str(f), "--p", "7", "--disc", "-3"]):
            res = run(*args, "--height", height)
            assert res.exit_code == 1 and res.stdout == "", args
            # one JSON error, and no ingest rejection: no survey ran
            assert res.stderr.count("\n") == 1 and json.loads(res.stderr) == {"error": message}


def test_scan_with_ingested_generators(tmp_path):
    gen_file = tmp_path / "gens.jsonl"
    gen_file.write_text('{"label": "E0", "A": 0, "B": -2, "gen": [3, 1, 5, 1]}\n{"label": "no-coeffs"}\n')
    res = run(
        "scan", "--a0", "0", "--b0", "-2", "--b1", "7", "--p", "7", "--disc", "-3",
        "--nmin", "0", "--nmax", "0", "--height", "1", "--ingest", str(gen_file), "--json",
    )
    assert res.exit_code == 0
    assert res.stderr == "ingest line 2: record needs A,B or a1..a6\n"
    payload = json.loads(res.stdout)
    assert payload["rows"][0]["generator"] == "ingested"
    assert payload["rows"][0]["formal_nontrivial"] is True


def test_scan_checks_the_family_before_reading_the_curve_file(tmp_path):
    # generators are matched by solving n from each record's (A, B), so
    # neither a refused family nor a wide range costs time linear in the range
    f = tmp_path / "gens.jsonl"
    f.write_text('{"label": "E0", "A": 0, "B": -2, "gen": [3, 1, 5, 1]}\n'
                 '{"label": "E1", "A": 0, "B": 5, "gen": [-1, 1, 2, 1]}\n')
    family = ["--a0", "0", "--b0", "-2", "--disc", "-3", "--nmin", "0"]
    start = time.perf_counter()
    res = run("scan", *family, "--b1", "7", "--p", "4", "--nmax", "20000000", "--ingest", str(f))
    assert time.perf_counter() - start < 0.5
    assert res.exit_code == 1 and res.stdout == ""
    assert json.loads(res.stderr) == {"error": "p must be a prime >= 5, got 4"}
    res = run("scan", *family, "--b1", "7", "--p", "7", "--nmax", "2", "--height", "1", "--ingest", str(f), "--json")
    assert res.exit_code == 0
    assert [r["generator"] for r in json.loads(res.stdout)["rows"]] == ["ingested", "ingested", "unknown"]


def test_report_pipeline(tmp_path):
    f = tmp_path / "curves.jsonl"
    f.write_text(
        '{"label": "quartic", "A": -4, "B": 0}\n'
        '{"label": "no-coeffs"}\n'
        '{"label": "E0", "A": 0, "B": -2, "gen": [3, 1, 5, 1]}\n'
    )
    res = run("report", "--input", str(f), "--p", "7", "--disc", "-3", "--json")
    assert res.exit_code == 0
    assert res.stderr == "ingest line 2: record needs A,B or a1..a6\n"
    payload = json.loads(res.stdout)
    # rows keep the input order, which is not the sorted one
    assert [r["label"] for r in payload["rows"]] == ["quartic", "E0"]
    by_label = {r["label"]: r for r in payload["rows"]}
    assert by_label["E0"]["formal_nontrivial"] is True
    assert by_label["quartic"]["anomalous"] is False


def test_report_and_scan_reject_integers_they_cannot_print_by_line(tmp_path, default_digit_limit):
    # a 5000-digit literal once escaped json.loads's handler, and a short
    # model past 4300 digits once failed only when the report was written
    f = tmp_path / "curves.jsonl"
    write_overlong_curves(f)
    res = run("report", "--input", str(f), "--p", "7", "--disc", "-3", "--json")
    assert res.exit_code == 0 and res.exception is None
    assert [r["label"] for r in json.loads(res.stdout)["rows"]] == ["E0"]
    assert [line.split(":")[0] for line in res.stderr.splitlines()] == ["ingest line 1", "ingest line 2"]
    family = ["--a0", "0", "--b0", "-2", "--b1", "7", "--p", "7", "--disc", "-3", "--nmin", "0", "--nmax", "0"]
    res = run("scan", *family, "--ingest", str(f), "--json")
    assert res.exit_code == 0 and res.exception is None
    assert json.loads(res.stdout)["rows"][0]["generator"] == "ingested"
    assert [line.split(":")[0] for line in res.stderr.splitlines()] == ["ingest line 1", "ingest line 2"]


def test_scan_refuses_a_family_whose_integers_the_report_cannot_print(default_digit_limit):
    # A(n) = 10^4000 n at n = 10^400 has 4401 digits; --json once died in str()
    big, n = "1" + "0" * 4000, "1" + "0" * 400
    for fmt in ("csv", "json"):
        res = run("scan", "--a0", "0", "--a1", big, "--b0", "1", "--p", "7", "--disc", "-3",
                  "--nmin", n, "--nmax", n, "--height", "10", "--format", fmt)
        assert res.exit_code == 1 and res.stdout == "" and isinstance(res.exception, SystemExit)
        assert json.loads(res.stderr) == {"error": "n, A(n) or B(n) has an integer of more than 4300 digits"}


def test_a_directory_as_curve_file_is_a_usage_error(tmp_path):
    family = ["--a0", "0", "--b0", "-2", "--p", "7", "--disc", "-3", "--nmin", "0", "--nmax", "0"]
    for args, option in (
        (["report", "--input", str(tmp_path), "--p", "7", "--disc", "-3"], "--input"),
        (["scan", *family, "--ingest", str(tmp_path)], "--ingest"),
    ):
        res = run(*args)
        assert res.exit_code == 2 and res.stdout == "" and isinstance(res.exception, SystemExit)
        assert f"Invalid value for '{option}': File '{tmp_path}' is a directory." in res.stderr


def test_an_unwritable_out_path_is_a_domain_error(tmp_path):
    f = tmp_path / "curves.jsonl"
    f.write_text('{"label": "E0", "A": 0, "B": -2}\n')
    out = tmp_path / "missing" / "x.csv"
    family = ["--a0", "0", "--b0", "-2", "--p", "7", "--disc", "-3", "--nmin", "0", "--nmax", "0", "--height", "10"]
    for args in (["scan", *family], ["report", "--input", str(f), "--p", "7", "--disc", "-3"]):
        res = run(*args, "--out", str(out))
        assert res.exit_code == 1 and res.stdout == "" and isinstance(res.exception, SystemExit)
        assert json.loads(res.stderr) == {"error": f"cannot write {out}: No such file or directory"}


def test_an_undecodable_curve_file_line_is_rejected_alone(tmp_path):
    f = tmp_path / "curves.jsonl"
    f.write_bytes(b'{"label":"ok","A":0,"B":-2}\n{"label":"caf\xe9","A":0,"B":1}\n{"label":"E3","A":0,"B":-2}\n')
    res = run("report", "--input", str(f), "--p", "7", "--disc", "-3", "--json")
    assert res.exit_code == 0 and res.exception is None
    assert [r["label"] for r in json.loads(res.stdout)["rows"]] == ["ok", "E3"]
    assert res.stderr == "ingest line 2: parse error: not UTF-8 (invalid continuation byte) at byte 14\n"


def test_every_subcommand_maps_library_errors_to_exit_codes():
    # the boundary is the command group's: a command covered without opting in
    group = type(cli)()

    @group.command("domain")
    def domain():
        raise DomainError("bad input")

    @group.command("internal")
    def internal():
        raise InternalConsistencyError("broken invariant")

    for name, code, message in (("domain", 1, "bad input"), ("internal", 3, "broken invariant")):
        res = runner.invoke(group, [name])
        assert res.exit_code == code and res.stdout == ""
        assert json.loads(res.stderr) == {"error": message}
        with pytest.raises(SystemExit) as raised:
            group.main(args=[name], standalone_mode=False)
        assert raised.value.code == code


@pytest.mark.parametrize("p", [-1, 0, 1, 2, 3, 4, 9, 25])
def test_p_must_be_a_prime_at_least_5(tmp_path, p):
    # one rule and one text for every command that works at a prime p >= 5
    f = tmp_path / "curves.jsonl"
    f.write_text('{"label": "E0", "A": 0, "B": -2}\n')
    curve = ["--a", "0", "--b", "-2", "--p", str(p)]
    family = ["--a0", "0", "--b0", "-2", "--b1", "7", "--p", str(p), "--disc", "-3"]
    for args in (
        ["classify", *curve],
        ["check-curve", *curve],
        ["anomalous-residues", "--p", str(p)],
        ["scan", *family, "--nmin", "0", "--nmax", "2", "--height", "10"],
        ["report", "--input", str(f), "--p", str(p), "--disc", "-3"],
    ):
        res = run(*args)
        assert res.exit_code == 1, args
        assert res.stdout == ""
        assert json.loads(res.stderr) == {"error": f"p must be a prime >= 5, got {p}"}


def test_verdict_names_a_negative_p_as_not_prime():
    # verdict takes any prime; a negative p is refused as not prime, not as
    # a value outside the primality test's range
    for p in (-1, -7):
        res = run("verdict", "--a", "0", "--b", "-2", "--p", str(p), "--json")
        assert res.exit_code == 1
        assert json.loads(res.stderr) == {"error": f"{p} is not prime"}
    assert run("verdict", "--a", "0", "--b", "-2", "--p", "3", "--json").exit_code == 0


def test_exit_codes():
    # domain error -> 1
    res = run("anomalous-residues", "--p", "11", "--json")
    assert res.exit_code == 1
    assert "error" in res.stderr
    # singular curve -> 1
    res = run("classify", "--a", "0", "--b", "0", "--p", "7")
    assert res.exit_code == 1
    # usage errors -> 2
    res = run("anomalous-primes", "--disc", "-3")
    assert res.exit_code == 2
    res = run("classify", "--a", "0", "--b", "-2", "--p", "7", "--unknown-flag")
    assert res.exit_code == 2
    res = run("decompose", "--a", "0", "--b", "-2", "--p", "7", "--gen", "3,1")
    assert res.exit_code == 2
    # success -> 0
    res = run("classify", "--a", "0", "--b", "-2", "--p", "7")
    assert res.exit_code == 0


@pytest.mark.parametrize(
    "gen, message",
    [
        ("3,1", "gen must be [x_num, x_den, y_num, y_den] with integer entries"),
        ("3,1,5,x", "invalid literal for int() with base 10: 'x'"),
        ("3,0,5,1", "gen denominators must be positive"),
    ],
)
def test_gen_usage_errors(gen, message):
    res = run("decompose", "--a", "0", "--b", "-2", "--p", "7", "--gen", gen)
    assert res.exit_code == 2
    assert f"Error: --gen: {message}\n" in res.stderr


def test_in_process_calls_keep_no_stderr_stream_alive(tmp_path):
    # each call writes to a fresh stderr buffer, as an embedding program
    # would; once the caller drops it, the buffer must be freed
    calls = [
        ["classify", "--a", "0", "--b", "0", "--p", "7"],
        ["scan", "--a0", "0", "--b0", "-2", "--p", "7", "--disc", "-3", "--nmin", "0", "--nmax", "0",
         "--height", "10", "--out", str(tmp_path / "scan.csv")],
        ["anomalous-residues", "--p", "11", "--json"],
    ]
    buffers = []
    for args in calls:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.suppress(SystemExit):
            cli.main(args=args, prog_name="eczero", standalone_mode=False)
        assert err.getvalue()
        buffers.append(weakref.ref(err))
    del err
    gc.collect()
    assert [ref() for ref in buffers] == [None, None, None]


def test_internal_error_exits_3(monkeypatch):
    import eczero.rational

    def broken(curve, p):
        raise InternalConsistencyError("broken invariant")

    monkeypatch.setattr(eczero.rational, "reduction_type", broken)
    res = run("classify", "--a", "0", "--b", "-2", "--p", "7")
    assert res.exit_code == 3
    assert json.loads(res.stderr) == {"error": "broken invariant"}


def test_one_version_string():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    version = tomllib.loads(pyproject.read_text())["project"]["version"]
    assert eczero.__version__ == version
    res = run("--version")
    assert res.exit_code == 0
    assert res.output == f"eczero, version {version}\n"


# sha256 over `eczero --help`, `eczero --version` and each command's --help
HELP_PIN_SHA256 = "98ff6adf1f1811b673779e80c1d4a6a66512ce2bb7fc18d86ab4128e480f25e9"


def test_help_and_version_output_is_pinned():
    # option defaults and help text are read from eczero.bounds; at a fixed
    # width, so the terminal cannot move the pin
    digest = hashlib.sha256()
    calls = [["--help"], ["--version"]] + [[name, "--help"] for name in sorted(cli.commands)]
    assert len(calls) == 11
    for args in calls:
        res = runner.invoke(cli, args, prog_name="eczero", terminal_width=80)
        digest.update(f"{args}\n{res.exit_code}\n{res.output}\n".encode())
    assert digest.hexdigest() == HELP_PIN_SHA256


def test_every_public_name_resolves():
    # a name deleted from a module must leave __all__ too
    assert [name for name in eczero.__all__ if not hasattr(eczero, name)] == []


def test_json_flag_everywhere():
    cases = [
        ("anomalous-primes", "--disc", "-3", "--bound", "50", "--json"),
        ("anomalous-residues", "--p", "7", "--json"),
        ("classify", "--a", "0", "--b", "-2", "--p", "7", "--json"),
        ("check-curve", "--a", "0", "--b", "-2", "--p", "7", "--json"),
        ("lift-torsion", "--a", "0", "--b", "-2", "--p", "7", "--x", "3", "--y", "5", "--json"),
        ("decompose", "--a", "0", "--b", "-2", "--p", "7", "--gen", "3,1,5,1", "--json"),
        ("verdict", "--a", "0", "--b", "-2", "--p", "7", "--json"),
    ]
    for args in cases:
        res = run(*args)
        assert res.exit_code == 0, args
        json.loads(res.output)  # parses


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    src = str(Path(eczero.__file__).resolve().parent.parent)
    probe = f"import sys; sys.path.insert(0, {src!r})\n{code}\nprint(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return set(out.stdout.splitlines()[-1].split())


def _eczero_modules_after(code: str) -> set[str]:
    return {m for m in _modules_after(code) if m.split(".")[0] == "eczero"}


def test_cli_import_does_not_load_numpy():
    assert "numpy" not in _modules_after("import eczero.cli")


def test_imports_load_no_layer():
    # a public name loads its module on first use; the CLI reads its option
    # defaults from eczero.bounds
    assert _eczero_modules_after("import eczero; assert set(eczero.__all__) <= set(dir(eczero))") == {"eczero"}
    assert _eczero_modules_after("import eczero.cli") == {"eczero", "eczero.cli", "eczero.errors", "eczero.bounds"}


def test_each_command_loads_only_its_layers():
    heavy = {"eczero.survey", "eczero.verdicts", "eczero.localpoints"}
    unused = {
        ("anomalous-primes", "--disc", "-3", "--bound", "50"): heavy,
        ("anomalous-residues", "--p", "7"): heavy,
        ("classify", "--a", "0", "--b", "-2", "--p", "7"): heavy,
        ("check-curve", "--a", "0", "--b", "-2", "--p", "7"): heavy,
        ("decompose", "--a", "0", "--b", "-2", "--p", "7", "--gen", "3,1,5,1"): {"eczero.survey", "eczero.verdicts"},
        ("verdict", "--a", "0", "--b", "-2", "--p", "7"): {"eczero.survey", "eczero.localpoints"},
    }
    for args, modules in unused.items():
        call = f"from eczero.cli import cli; cli.main(args={list(args)!r}, prog_name='eczero', standalone_mode=False)"
        assert not _eczero_modules_after(call) & modules, args


def test_public_names_are_their_home_modules_objects():
    # resolved on first access, then cached in the package namespace
    for name in eczero.__all__:
        home = importlib.import_module(f"eczero.{eczero._HOME[name]}")
        value = getattr(eczero, name)
        assert value is getattr(home, name) and vars(eczero)[name] is value, name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home.__name__, name  # defined there, not re-exported
    assert set(eczero.__all__) <= set(dir(eczero))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        eczero.no_such_name


# (a, b, CM discriminant, generator or None): the three CM families, the
# quartic's Jacobian, a torsion-only curve and a curve with bad reduction at 7
_VERDICT_CURVES = [
    (0, -2, -3, "3,1,5,1"),
    (-1056, 13552, -11, "33,1,-121,1"),
    (-152, 722, -19, "7,1,-1,1"),
    (-4, 0, -4, None),
    (0, 1, -3, None),
    (7, 49, -3, "0,1,-7,1"),
]
_VERDICT_PRIMES = (2, 3, 5, 7, 9, 13, 43, 223, 1000033)
VERDICT_MATRIX_SHA256 = "8b089a9acf3da0d355e070d31cb16c50cf9d35386ab6306d6730b6fc9885ef35"


def _verdict_flag_sets(disc, gen):
    d = str(disc)
    gen_args = ["--gen", gen] if gen else []
    return [
        [],
        ["--unramified", "--surface-good-reduction"],
        ["--torsion-level", "2", "--wild-ramification", "--trivial-ns"],
        ["--disc", d],
        ["--disc", d, "--tower-level", "1", *gen_args],
        ["--disc", d, "--tower-level", "3"],
        ["--e2-a", "0", "--e2-b", "1", "--unramified", "--deg-phi", "2",
         "--field-degree", "3", "--bad-fiber-order", "5"],
    ]


def test_verdict_matrix_output_is_pinned():
    # exit code, stdout and stderr of 756 verdict calls; any change to a
    # rule's firing, its hypothesis text or an error message shows here
    digest = hashlib.sha256()
    calls = 0
    for a, b, disc, gen in _VERDICT_CURVES:
        for p in _VERDICT_PRIMES:
            for flags in _verdict_flag_sets(disc, gen):
                for fmt in ([], ["--json"]):
                    args = ["verdict", "--a", str(a), "--b", str(b), "--p", str(p), *flags, *fmt]
                    res = run(*args)
                    raised = res.exception if not isinstance(res.exception, SystemExit) else None
                    digest.update(
                        f"{args}\n{res.exit_code}\n{type(raised).__name__}\n"
                        f"{res.stdout}\n{res.stderr}\n".encode()
                    )
                    calls += 1
    assert calls == 756
    assert digest.hexdigest() == VERDICT_MATRIX_SHA256


# (a, b, p, generator): points outside E_1 at 7, 43 and 223 (two of them on
# seeded twists), [7](3, 5) in E_1, a model that is not minimal at 7, a
# point with no 5-adic torsion lift and a point of order 7
_DECOMPOSE_CASES = [
    (0, -2, 7, "3,1,5,1"),
    (0, -2, 7, "49680317504529227786118937923,3458519104702616679044719441,"
               "-11069550171650699467350859369161931440285365,203392656460831967707109939312836961532761"),
    (0, 131, 7, "5,1,-16,1"),
    (0, -2 * 7**6, 7, "147,1,1715,1"),
    (-152, 722, 43, "7,1,-1,1"),
    (-33551028248, -2367721226732546, 43, "401139,1,220730449,1"),
    (-1056, 13552, 223, "33,1,-121,1"),
    (-664663479317612544, -213998259251504790405668864, 223, "7375921392,1,629416173596224,1"),
    (-2, 2, 5, "1,1,-1,1"),
    (-3483, 121014, 7, "-45,1,-432,1"),
]
# (a, b, p, x, y): lift targets, one with no 5-adic lift and one off the curve
_LIFT_CASES = [
    (0, -2, 7, 3, 5),
    (0, -2, 7, 3, 2),
    (-152, 722, 43, 7, 42),
    (-1056, 13552, 223, 33, 102),
    (-2, 2, 5, 1, 4),
    (0, -2, 7, 1, 1),
]
DECOMPOSE_MATRIX_SHA256 = "c6ec89f4e456a3104f507b3b2d0e4ec85ec1e9282cd6b81672ebececb93befa5"


def test_decompose_matrix_output_is_pinned():
    # exit code, stdout and stderr of 120 decompose and 30 lift-torsion
    # calls, down to precisions below the torsion lift's minimum
    digest = hashlib.sha256()
    calls = []
    for a, b, p, gen in _DECOMPOSE_CASES:
        for prec in (1, 2, 6, 8, 16, 24):
            for fmt in ([], ["--json"]):
                calls.append(["decompose", "--a", str(a), "--b", str(b), "--p", str(p), "--gen", gen,
                              "--prec", str(prec), *fmt])
    for a, b, p, x, y in _LIFT_CASES:
        for prec in (5, 6, 8, 16, 24):
            calls.append(["lift-torsion", "--a", str(a), "--b", str(b), "--p", str(p), "--x", str(x),
                          "--y", str(y), "--prec", str(prec), "--json"])
    for args in calls:
        res = run(*args)
        raised = res.exception if not isinstance(res.exception, SystemExit) else None
        digest.update(
            f"{args}\n{res.exit_code}\n{type(raised).__name__}\n{res.stdout}\n{res.stderr}\n".encode()
        )
    assert len(calls) == 150
    assert digest.hexdigest() == DECOMPOSE_MATRIX_SHA256
