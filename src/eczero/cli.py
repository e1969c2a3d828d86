"""Command-line surface. Every subcommand supports --json for structured
output; numeric output is exact (integers, rational strings, p-adic digit
vectors).

Exit codes: 0 success, 1 domain error (precondition violations, unsupported
inputs), 2 usage error, 3 internal error (a broken invariant, i.e. a bug).
Exit codes 1 and 3 write {"error": ...} as JSON to stderr.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import __version__
from .arith import cornacchia
from .errors import DomainError, InternalConsistencyError
from .fp import FpPoint
from .localpoints import (
    decompose_point, decomposition_to_dict, formal_t_valuation, lift_p_torsion, qppoint_to_dict,
)
from .padic import DEFAULT_PRECISION
from .quadfields import (
    CLASS_NUMBER_ONE_DISCS,
    ImagQuadField,
    anomalous_primes,
    anomalous_residues_d3,
    is_frobenius_trace,
    splits_completely,
)
from .rational import Curve, QPoint, ReductionType, reduction_type
from .survey import (
    DEFAULT_HEIGHT, FamilySpec, emit_report, ingest_curves, parse_generator, scan_family, survey_records,
)
from .verdicts import (
    AdmissibilityConfig,
    HypothesisRecord,
    brauer_middle_term_verdict,
    cm_tower_verdict,
    divisibility_verdict,
    global_lift_verdict,
    nd_structure_verdict,
    prime_admissibility,
    quartic_verdict,
)


def errors_to_exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (DomainError, InternalConsistencyError) as exc:
            print(json.dumps({"error": str(exc)}), file=sys.stderr)
            sys.exit(1 if isinstance(exc, DomainError) else 3)

    return wrapper


@click.group()
@click.version_option(version=__version__, prog_name="eczero")
def cli():
    """Anomalous primes, reduction types, p-adic decompositions and surveys
    for CM elliptic curves."""


def _emit(payload: dict, as_json: bool, text_lines):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_gen(spec: str) -> QPoint:
    try:
        return QPoint(*parse_generator([int(t) for t in spec.split(",")]))
    except (ValueError, DomainError) as exc:
        raise click.UsageError(f"--gen: {exc}")


@cli.command("anomalous-primes")
@click.option("--disc", type=int, required=True, help="field discriminant, e.g. -3")
@click.option("--bound", type=int, required=True, help="upper bound for p")
@click.option("--json", "as_json", is_flag=True, help="emit a JSON array")
@errors_to_exit_codes
def anomalous_primes_cmd(disc: int, bound: int, as_json: bool):
    """Primes p <= bound with 4p = 1 + |D| v^2 (trace-1 split primes)."""
    field = ImagQuadField(disc)
    primes = anomalous_primes(field, bound)
    if as_json:
        print(json.dumps(primes))
        return
    for p in primes:
        u, v = cornacchia(abs(disc), p)
        print(f"{p}  (4*{p} = {u}^2 + {abs(disc)}*{v}^2)")


@cli.command("anomalous-residues")
@click.option("--p", "p", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
@errors_to_exit_codes
def anomalous_residues_cmd(p: int, as_json: bool):
    """Residues c mod p for which y^2 = x^3 + c has exactly p points."""
    residues = anomalous_residues_d3(p)
    _emit(
        {"p": p, "residues": residues, "count": len(residues)},
        as_json,
        [" ".join(str(c) for c in residues)],
    )


def _reduction_payload(r: ReductionType, p: int) -> dict:
    return {
        "p": p,
        "kind": r.kind.value,
        "anomalous": r.anomalous,
        "trace": r.trace,
        "count": (p + 1 - r.trace) if r.trace is not None else None,
    }


@cli.command("classify")
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
@errors_to_exit_codes
def classify_cmd(a: int, b: int, p: int, as_json: bool):
    """Reduction type of y^2 = x^3 + a x + b at p (model minimized first)."""
    r = reduction_type(Curve(a, b), p)
    _emit(_reduction_payload(r, p), as_json, [str(r)])


@cli.command("check-curve")
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--disc", type=int, default=None, help="restrict the splitting report to one field")
@click.option("--json", "as_json", is_flag=True)
@errors_to_exit_codes
def check_curve_cmd(a: int, b: int, p: int, disc: int | None, as_json: bool):
    """Good/ordinary/anomalous report plus compatible CM splitting fields."""
    r = reduction_type(Curve(a, b), p)
    discs = [disc] if disc is not None else list(CLASS_NUMBER_ONE_DISCS)
    splits = {D: splits_completely(ImagQuadField(D), p) for D in discs}
    compatible = [
        D for D in discs if r.trace is not None and is_frobenius_trace(ImagQuadField(D), p, r.trace)
    ]
    payload = _reduction_payload(r, p)
    payload["splits"] = {str(D): ok for D, ok in splits.items()}
    payload["trace_compatible_discs"] = compatible
    lines = [str(r)]
    if r.trace is not None:
        lines.append(f"|E(F_{p})| = {p + 1 - r.trace}, a_p = {r.trace}")
    split_names = [f"Q(sqrt({D}))" for D, ok in splits.items() if ok]
    lines.append("splits in: " + (", ".join(split_names) if split_names else "none of the nine"))
    if compatible:
        lines.append(
            "trace-compatible CM fields: " + ", ".join(f"Q(sqrt({D}))" for D in compatible)
        )
    _emit(payload, as_json, lines)


@cli.command("lift-torsion")
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--x", "x", type=int, required=True, help="target x mod p")
@click.option("--y", "y", type=int, required=True, help="target y mod p")
@click.option("--prec", type=int, default=DEFAULT_PRECISION, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@errors_to_exit_codes
def lift_torsion_cmd(a: int, b: int, p: int, x: int, y: int, prec: int, as_json: bool):
    """p-adic p-torsion point above a special-fiber point of an anomalous curve."""
    T0 = lift_p_torsion(Curve(a, b), p, FpPoint(x, y), prec)
    payload = {"p": p, "precision": prec, "torsion": qppoint_to_dict(T0)}
    _emit(payload, as_json, [f"T0.x = {T0.x}", f"T0.y = {T0.y}", f"[{p}]T0 = O (verified)"])


@cli.command("decompose")
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--gen", required=True, help="x_num,x_den,y_num,y_den of the global point")
@click.option("--prec", type=int, default=DEFAULT_PRECISION, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@errors_to_exit_codes
def decompose_cmd(a: int, b: int, p: int, gen: str, prec: int, as_json: bool):
    """Split a global point into formal and special-fiber components at p."""
    point = _parse_gen(gen)
    dec = decompose_point(Curve(a, b), point, p, prec)
    payload = decomposition_to_dict(dec)
    lines = [
        f"barP = {dec.bar_point}",
        f"t-valuation of formal part = {dec.t_valuation}",
        f"formal_nontrivial = {str(dec.formal_nontrivial).lower()}",
    ]
    _emit(payload, as_json, lines)


@cli.command("verdict")
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--e2-a", type=int, default=None, help="second curve (defaults to the first)")
@click.option("--e2-b", type=int, default=None)
@click.option("--disc", type=int, default=None, help="CM field discriminant")
@click.option("--cm", is_flag=True, help="assert CM by the full ring of integers of --disc")
@click.option("--unramified", is_flag=True, help="assert the base field is unramified")
@click.option("--torsion-level", type=int, default=None, help="assert full p^n-torsion level n")
@click.option("--wild-ramification", is_flag=True, help="assert wild ramification above level n")
@click.option("--trivial-ns", is_flag=True, help="assert trivial Neron-Severi action")
@click.option("--surface-good-reduction", is_flag=True)
@click.option("--tower-level", type=int, default=None, help="run the CM tower rule at level n")
@click.option("--gen", default=None, help="infinite-order point for the global lifting rule")
@click.option("--deg-phi", type=int, default=1)
@click.option("--field-degree", type=int, default=1)
@click.option("--bad-fiber-order", "bad_fiber_orders", type=int, multiple=True)
@click.option("--json", "as_json", is_flag=True)
@errors_to_exit_codes
def verdict_cmd(
    a,
    b,
    p,
    e2_a,
    e2_b,
    disc,
    cm,
    unramified,
    torsion_level,
    wild_ramification,
    trivial_ns,
    surface_good_reduction,
    tower_level,
    gen,
    deg_phi,
    field_degree,
    bad_fiber_orders,
    as_json,
):
    """Evaluate every decision rule whose hypotheses are supplied.

    Facts this tool can compute are verified; the flags mark caller
    assertions, and each emitted verdict lists which is which.
    """
    if (e2_a is None) != (e2_b is None):
        raise click.UsageError("--e2-a and --e2-b must be given together")
    e1 = Curve(a, b)
    e2 = Curve(e2_a, e2_b) if e2_a is not None else e1
    record = HypothesisRecord.for_pair(
        e1,
        e2,
        p,
        base_unramified=unramified or None,
        torsion_level=torsion_level,
        wild_ramification=wild_ramification or None,
        trivial_ns_action=trivial_ns or None,
        surface_good_reduction=surface_good_reduction or None,
    )
    fired = [v for v in (divisibility_verdict(record), nd_structure_verdict(record)) if v is not None]
    fired.extend(quartic_verdict(record))
    field = ImagQuadField(disc) if disc is not None else None
    brauer = []
    if field is not None:
        brauer = brauer_middle_term_verdict(record, field, cm_asserted=cm)
        fired.extend(brauer)
        if tower_level is not None and cm:
            v = cm_tower_verdict(record, field, tower_level)
            if v is not None:
                fired.append(v)
    if gen is not None and brauer:
        v = global_lift_verdict(formal_t_valuation(e1, _parse_gen(gen), p), brauer[0])
        if v is not None:
            fired.append(v)
    config = AdmissibilityConfig(
        isogeny_degree=deg_phi, field_degree=field_degree, bad_fiber_orders=tuple(bad_fiber_orders)
    )
    adm = prime_admissibility(record, config)
    payload = {
        "verdicts": [v.to_dict() for v in fired],
        "admissibility": adm.to_dict(),
    }
    lines = []
    if not fired:
        lines.append("no rule fired (missing or unfavorable hypotheses; not a refutation)")
    for v in fired:
        tag = "conditional on assertions" if v.conditional else "fully verified"
        lines.append(f"{v.name} [{tag}]")
        for h in v.hypotheses_used:
            lines.append(f"    - {h}")
    lines.append(f"prime admissibility: {'pass' if adm.admissible else 'fail'}")
    lines.extend(f"    - {r}" for r in adm.reasons)
    _emit(payload, as_json, lines)


def _write_or_echo(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text, end="")


@cli.command("scan")
@click.option("--a0", type=int, required=True, help="constant term of A(n)")
@click.option("--a1", type=int, default=0, show_default=True, help="slope of A(n)")
@click.option("--b0", type=int, required=True, help="constant term of B(n)")
@click.option("--b1", type=int, default=0, show_default=True, help="slope of B(n)")
@click.option("--p", "p", type=int, required=True)
@click.option("--disc", type=int, required=True)
@click.option("--nmin", type=int, required=True)
@click.option("--nmax", type=int, required=True)
@click.option("--height", type=int, default=DEFAULT_HEIGHT, show_default=True)
@click.option("--ingest", "ingest_path", type=click.Path(exists=True), default=None,
              help="curve file supplying generators, matched by coefficients")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True, help="shorthand for --format json")
@errors_to_exit_codes
def scan_cmd(a0, a1, b0, b1, p, disc, nmin, nmax, height, ingest_path, fmt, out, as_json):
    """Scan the family y^2 = x^3 + (a0 + a1 n) x + (b0 + b1 n) over n."""
    generators = {}
    ingest_problems = []
    if ingest_path:
        result = ingest_curves(ingest_path)
        ingest_problems = list(result.rejected)
        by_coeffs = {
            (rec.curve.a, rec.curve.b): rec.generator
            for rec in result.records
            if rec.generator is not None
        }
        for n in range(nmin, nmax + 1):
            key = (a0 + a1 * n, b0 + b1 * n)
            if key in by_coeffs:
                generators[n] = by_coeffs[key]
    spec = FamilySpec(
        a_const=a0,
        a_slope=a1,
        b_const=b0,
        b_slope=b1,
        n_min=nmin,
        n_max=nmax,
        p=p,
        disc=disc,
        height=height,
        generators=generators,
    )
    rows, aggregate = scan_family(spec)
    for lineno, reason in ingest_problems:
        print(f"ingest line {lineno}: {reason}", file=sys.stderr)
    _write_or_echo(emit_report(rows, aggregate, "json" if as_json else fmt), out)


@cli.command("report")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--disc", type=int, required=True)
@click.option("--height", type=int, default=DEFAULT_HEIGHT, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True, help="shorthand for --format json")
@errors_to_exit_codes
def report_cmd(input_path, p, disc, height, fmt, out, as_json):
    """Run the survey pipeline over an ingested curve file."""
    result = ingest_curves(input_path)
    rows, aggregate = survey_records(result.records, p, disc, height)
    for lineno, reason in result.rejected:
        print(f"ingest line {lineno}: {reason}", file=sys.stderr)
    _write_or_echo(emit_report(rows, aggregate, "json" if as_json else fmt), out)


def main():
    cli(prog_name="eczero")


if __name__ == "__main__":
    main()
