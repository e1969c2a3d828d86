"""Command-line surface. Every subcommand supports --json for structured
output; numeric output is exact (integers, rational strings, p-adic digit
vectors).

Exit codes: 0 success, 1 domain error (precondition violations, unsupported
inputs), 2 usage error, 3 internal error (a broken invariant, i.e. a bug).
Exit codes 1 and 3 write {"error": ...} as JSON to stderr, and so does
`decompose` for a --prec below 1, which exits 2.  The command group
(`_ExitCodes.invoke`) maps DomainError and InternalConsistencyError to 1
and 3 for every subcommand; click reports usage errors itself.

Importing this module loads click, `eczero.bounds` (the option defaults and
help text) and `eczero.errors` only.  Each command imports the layers it
runs when it runs, so `classify` never loads the survey, the verdicts or the
local layer.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

import click

from . import __version__
from .bounds import DEFAULT_HEIGHT, DEFAULT_PRECISION, MAX_HEIGHT, MAX_PRECISION
from .errors import DomainError, InternalConsistencyError

if TYPE_CHECKING:
    from .rational import QPoint, ReductionType


_HEIGHT_HELP = f"point-search height bound, 1 to {MAX_HEIGHT}"
_PREC_HELP = f"p-adic digits, at most {MAX_PRECISION}"
# a curve file must exist and be a file: a directory is a usage error
_CURVE_FILE = click.Path(exists=True, dir_okay=False)
_OUT_FILE = click.Path()


def _dumps(obj, **kwargs) -> str:
    """JSON text; json is imported here, since a call that prints text needs none."""
    import json

    return json.dumps(obj, **kwargs)


class _ExitCodes(click.Group):
    """The one place a library error becomes an exit code, for every subcommand."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (DomainError, InternalConsistencyError) as exc:
            print(_dumps({"error": str(exc)}), file=sys.stderr)
            sys.exit(1 if isinstance(exc, DomainError) else 3)


@click.group(cls=_ExitCodes)
@click.version_option(version=__version__, prog_name="eczero")
def cli():
    """Anomalous primes, reduction types, p-adic decompositions and surveys
    for CM elliptic curves."""


def _emit(payload: dict, as_json: bool, text_lines):
    if as_json:
        print(_dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_gen(spec: str) -> QPoint:
    from .rational import QPoint, parse_generator

    try:
        return QPoint(*parse_generator([int(t) for t in spec.split(",")]))
    except (ValueError, DomainError) as exc:
        raise click.UsageError(f"--gen: {exc}")


@cli.command("anomalous-primes")
@click.option("--disc", type=int, required=True, help="field discriminant, e.g. -3")
@click.option("--bound", type=int, required=True, help="upper bound for p")
@click.option("--json", "as_json", is_flag=True, help="emit a JSON array")
def anomalous_primes_cmd(disc: int, bound: int, as_json: bool):
    """Primes p <= bound with 4p = 1 + |D| v^2 (trace-1 split primes)."""
    from .arith import cornacchia
    from .quadfields import ImagQuadField, anomalous_primes

    field = ImagQuadField(disc)
    primes = anomalous_primes(field, bound)
    if as_json:
        print(_dumps(primes))
        return
    for p in primes:
        u, v = cornacchia(abs(disc), p)
        print(f"{p}  (4*{p} = {u}^2 + {abs(disc)}*{v}^2)")


@cli.command("anomalous-residues")
@click.option("--p", "p", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def anomalous_residues_cmd(p: int, as_json: bool):
    """Residues c mod p for which y^2 = x^3 + c has exactly p points."""
    from .quadfields import anomalous_residues_d3

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
def classify_cmd(a: int, b: int, p: int, as_json: bool):
    """Reduction type of y^2 = x^3 + a x + b at p (model minimized first)."""
    from .rational import Curve, reduction_type

    r = reduction_type(Curve(a, b), p)
    _emit(_reduction_payload(r, p), as_json, [str(r)])


@cli.command("check-curve")
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--disc", type=int, default=None, help="restrict the splitting report to one field")
@click.option("--json", "as_json", is_flag=True)
def check_curve_cmd(a: int, b: int, p: int, disc: int | None, as_json: bool):
    """Good/ordinary/anomalous report plus compatible CM splitting fields."""
    from .quadfields import CLASS_NUMBER_ONE_DISCS, ImagQuadField, is_frobenius_trace, splits_completely
    from .rational import Curve, reduction_type

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
@click.option("--prec", type=int, default=DEFAULT_PRECISION, show_default=True, help=_PREC_HELP)
@click.option("--json", "as_json", is_flag=True)
def lift_torsion_cmd(a: int, b: int, p: int, x: int, y: int, prec: int, as_json: bool):
    """p-adic p-torsion point above a special-fiber point of an anomalous curve."""
    from .fp import FpPoint
    from .localpoints import lift_p_torsion, qppoint_to_dict
    from .rational import Curve

    T0 = lift_p_torsion(Curve(a, b), p, FpPoint(x, y), prec)
    payload = {"p": p, "precision": prec, "torsion": qppoint_to_dict(T0)}
    _emit(payload, as_json, [f"T0.x = {T0.x}", f"T0.y = {T0.y}", f"[{p}]T0 = O (verified)"])


@cli.command("decompose")
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--gen", required=True, help="x_num,x_den,y_num,y_den of the global point")
@click.option("--prec", type=int, default=DEFAULT_PRECISION, show_default=True, help=_PREC_HELP)
@click.option("--json", "as_json", is_flag=True)
def decompose_cmd(a: int, b: int, p: int, gen: str, prec: int, as_json: bool):
    """Split a global point into formal and special-fiber components at p."""
    from .localpoints import decompose_point, decomposition_to_dict
    from .rational import Curve

    if prec < 1:
        print(_dumps({"error": f"--prec must be >= 1, got {prec}"}), file=sys.stderr)
        sys.exit(2)
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
@click.option("--disc", type=int, default=None, help="CM field discriminant (j decides CM by O_D)")
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
def verdict_cmd(
    a,
    b,
    p,
    e2_a,
    e2_b,
    disc,
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

    Facts this tool can compute are verified (CM by O_D of --disc from j(E1),
    recorded only when E2 is E1); the flags mark caller assertions, and each
    emitted verdict lists which is which.
    """
    from .quadfields import ImagQuadField
    from .rational import Curve
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
        require_tower_level,
    )

    if (e2_a is None) != (e2_b is None):
        raise click.UsageError("--e2-a and --e2-b must be given together")
    point = _parse_gen(gen) if gen is not None else None
    if tower_level is not None:
        require_tower_level(tower_level)
    config = AdmissibilityConfig(
        isogeny_degree=deg_phi, field_degree=field_degree, bad_fiber_orders=tuple(bad_fiber_orders)
    )
    e1 = Curve(a, b)
    e2 = Curve(e2_a, e2_b) if e2_a is not None else e1
    record = HypothesisRecord.for_pair(
        e1,
        e2,
        p,
        cm_field=ImagQuadField(disc) if disc is not None else None,
        base_unramified=unramified or None,
        torsion_level=torsion_level,
        wild_ramification=wild_ramification or None,
        trivial_ns_action=trivial_ns or None,
        surface_good_reduction=surface_good_reduction or None,
    )
    fired = [v for v in (divisibility_verdict(record), nd_structure_verdict(record)) if v is not None]
    fired.extend(quartic_verdict(record))
    brauer = brauer_middle_term_verdict(record)
    tower = cm_tower_verdict(record, tower_level) if tower_level is not None else None
    fired += brauer + ([tower] if tower is not None else [])
    if point is not None and brauer:
        from .localpoints import formal_t_valuation

        v = global_lift_verdict(formal_t_valuation(e1, point, p), brauer[0])
        if v is not None:
            fired.append(v)
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


def _write_report(text: str, rejected, out: str | None):
    """The survey's ingest rejections on stderr, then its report text to --out or stdout."""
    for lineno, reason in rejected:
        print(f"ingest line {lineno}: {reason}", file=sys.stderr)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {out}: {exc.strerror}")
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
@click.option("--height", type=int, default=DEFAULT_HEIGHT, show_default=True, help=_HEIGHT_HELP)
@click.option("--ingest", "ingest_path", type=_CURVE_FILE, metavar="PATH", default=None,
              help="curve file supplying generators, matched by coefficients")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=_OUT_FILE, default=None)
@click.option("--json", "as_json", is_flag=True, help="shorthand for --format json")
def scan_cmd(a0, a1, b0, b1, p, disc, nmin, nmax, height, ingest_path, fmt, out, as_json):
    """Scan the family y^2 = x^3 + (a0 + a1 n) x + (b0 + b1 n) over n."""
    from .survey import FamilySpec, emit_report, ingest_curves, scan_family

    spec = FamilySpec(a0, a1, b0, b1, nmin, nmax, p, disc, height)  # checked before the curve file is read
    ingest_problems = ()
    if ingest_path:
        from dataclasses import replace

        result = ingest_curves(ingest_path)
        ingest_problems = result.rejected
        # the last record with a generator wins for equal coefficients
        by_coeffs = {(rec.curve.a, rec.curve.b): rec.generator for rec in result.records if rec.generator is not None}
        spec = replace(spec, generators={n: gen for (a, b), gen in by_coeffs.items() for n in spec.members(a, b)})
    rows, aggregate = scan_family(spec)
    _write_report(emit_report(rows, aggregate, "json" if as_json else fmt), ingest_problems, out)


@cli.command("report")
@click.option("--input", "input_path", type=_CURVE_FILE, metavar="PATH", required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--disc", type=int, required=True)
@click.option("--height", type=int, default=DEFAULT_HEIGHT, show_default=True, help=_HEIGHT_HELP)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=_OUT_FILE, default=None)
@click.option("--json", "as_json", is_flag=True, help="shorthand for --format json")
def report_cmd(input_path, p, disc, height, fmt, out, as_json):
    """Run the survey pipeline over an ingested curve file."""
    from .survey import emit_report, ingest_curves, survey_records

    result = ingest_curves(input_path)
    rows, aggregate = survey_records(result.records, p, disc, height)
    _write_report(emit_report(rows, aggregate, "json" if as_json else fmt), result.rejected, out)


def main():
    cli(prog_name="eczero")


if __name__ == "__main__":
    main()
