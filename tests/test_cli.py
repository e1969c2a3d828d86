import contextlib
import gc
import hashlib
import io
import json
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner

import eczero
import eczero.cli
from eczero.cli import cli
from eczero.errors import InternalConsistencyError

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


def test_anomalous_residues():
    res = run("anomalous-residues", "--p", "7", "--json")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload == {"p": 7, "residues": [5], "count": 1}


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


def test_verdict_json_fires_rules():
    res = run(
        "verdict", "--a", "0", "--b", "-2", "--p", "7",
        "--disc", "-3", "--cm", "--gen", "3,1,5,1", "--json",
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    names = [v["conclusion"] for v in payload["verdicts"]]
    assert names == ["MiddleTermZpSquared", "BrauerPVanishes", "UnconditionalExactness"]
    assert payload["admissibility"]["admissible"] is True
    # ablation: no --cm
    res2 = run("verdict", "--a", "0", "--b", "-2", "--p", "7", "--disc", "-3", "--json")
    names2 = [v["conclusion"] for v in json.loads(res2.output)["verdicts"]]
    assert "MiddleTermZpSquared" not in names2


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
        (eczero.cli, "lift_p_torsion"),
        (eczero.localpoints, "lift_p_torsion"),
        (eczero.localpoints, "_lift_torsion"),
        (eczero.localpoints, "_decompose"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    res = run(
        "verdict", "--a", "0", "--b", "-2", "--p", "7",
        "--disc", "-3", "--cm", "--gen", "3,1,5,1", "--json",
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
    base = ["verdict", "--a", "0", "--b", "-2", "--p", "7", "--disc", "-3", "--cm", "--tower-level", "1"]
    res = run(*base)
    assert res.exit_code == 0 and "NdIsZmodPn(1)" in res.stdout
    assert len(calls) == 1
    calls.clear()
    res = run(*base, "--e2-a", "-4", "--e2-b", "0")
    assert res.exit_code == 0
    assert len(calls) == 2


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
    assert lines[0].startswith("n,label,good7")
    assert len(lines) == 5  # header + 3 rows + footer
    assert lines[-1].startswith("# aggregate ")


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


def test_scan_height_zero_is_a_row_error():
    res = run(
        "scan", "--a0", "0", "--b0", "-2", "--b1", "7", "--p", "7", "--disc", "-3",
        "--nmin", "0", "--nmax", "1", "--height", "0", "--json",
    )
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert [(r["generator"], r["error"]) for r in payload["rows"]] == [("unknown", "height bound must be >= 1")] * 2
    assert payload["aggregate"]["errors"] == 2


def test_scan_with_ingested_generators(tmp_path):
    gen_file = tmp_path / "gens.jsonl"
    gen_file.write_text('{"label": "E0", "A": 0, "B": -2, "gen": [3, 1, 5, 1]}\n')
    res = run(
        "scan", "--a0", "0", "--b0", "-2", "--b1", "7", "--p", "7", "--disc", "-3",
        "--nmin", "0", "--nmax", "0", "--height", "1", "--ingest", str(gen_file), "--json",
    )
    payload = json.loads(res.output)
    assert payload["rows"][0]["generator"] == "ingested"
    assert payload["rows"][0]["formal_nontrivial"] is True


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
    def broken(curve, p):
        raise InternalConsistencyError("broken invariant")

    monkeypatch.setattr(eczero.cli, "reduction_type", broken)
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


def test_cli_import_does_not_load_numpy():
    src = str(Path(eczero.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import eczero.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
VERDICT_MATRIX_SHA256 = "4e5850b5e47900f23b47d22864de6b4df271850d32ebd580e47c1da2cee239a4"


def _verdict_flag_sets(disc, gen):
    d = str(disc)
    gen_args = ["--gen", gen] if gen else []
    return [
        [],
        ["--unramified", "--surface-good-reduction"],
        ["--torsion-level", "2", "--wild-ramification", "--trivial-ns"],
        ["--disc", d, "--cm"],
        ["--disc", d, "--cm", "--tower-level", "1", *gen_args],
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
