"""Batch pipeline over curve families: ingest, hypothesis checks, generator
search, the formal part's t-valuation (from [p]P, with no torsion lift and
no precision to choose), verdicts, and deterministic CSV/JSON reports.

Rank is never computed here.  The aggregate statistic is the fraction of
*curves with a certified infinite-order point* whose formal component is
nontrivial; replicating any externally published rank-filtered statistic
requires ingesting that external generator/rank data, and every report
says so in its aggregate note.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .arith import require_curve_prime
from .bounds import DEFAULT_HEIGHT
from .errors import DomainError, IngestError, InternalConsistencyError
from .localpoints import t_valuation_at
from .quadfields import ImagQuadField, splits_completely
from .rational import (
    Curve,
    QPoint,
    _is_int,
    curve_from_long_weierstrass,
    long_point_to_short,
    parse_generator,
    require_height,
    search_rows,
    torsion_order,
)
from .verdicts import Conclusion, HypothesisRecord, brauer_middle_term_verdict, global_lift_verdict

PROXY_NOTE = (
    "statistic counts curves with a certified infinite-order point found by "
    "bounded search; it is not a rank-filtered statistic and externally "
    "computed rank/generator data must be ingested to replicate one"
)

# The CSV row is the JSON row (SurveyRow.to_dict) read through these keys.
CSV_COLUMNS = ("n", "label", "good_p", "anomalous", "splits", "generator", "formal_nontrivial", "verdicts")
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass(frozen=True)
class FamilySpec:
    """Integer-linear family y^2 = x^3 + (a0 + a1 n) x + (b0 + b1 n)."""

    a_const: int
    a_slope: int
    b_const: int
    b_slope: int
    n_min: int
    n_max: int
    p: int
    disc: int
    height: int = DEFAULT_HEIGHT
    generators: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_min > self.n_max:
            raise DomainError("empty parameter range")
        require_curve_prime(self.p)
        require_height(self.height)
        # A(n) and B(n) are linear in n, so if the report can print n, A(n)
        # and B(n) at both ends, it can print them for every row
        limit = sys.get_int_max_str_digits()
        ends = [(n, self.a_const + self.a_slope * n, self.b_const + self.b_slope * n)
                for n in (self.n_min, self.n_max)]
        if not all(_printable(v, limit) for end in ends for v in end):
            raise DomainError(f"n, A(n) or B(n) has an integer of more than {limit} digits")

    def curve(self, n: int) -> Curve:
        return Curve(
            self.a_const + self.a_slope * n,
            self.b_const + self.b_slope * n,
            label=f"n={n}",
        )

    def members(self, a: int, b: int) -> range:
        """The n in [n_min, n_max] with (A(n), B(n)) = (a, b).

        n is solved from a nonzero slope, so the cost does not grow with the
        range: at most one n, or the whole range when both slopes are 0.
        """
        span = range(self.n_min, self.n_max + 1)
        if self.a_slope or self.b_slope:
            const, slope, value = (self.a_const, self.a_slope, a) if self.a_slope else (self.b_const, self.b_slope, b)
            n, r = divmod(value - const, slope)
            span = range(n, n + 1) if r == 0 and n in span else range(0)
        n = span.start
        fits = span and (self.a_const + self.a_slope * n, self.b_const + self.b_slope * n) == (a, b)
        return span if fits else range(0)


@dataclass(frozen=True)
class SurveyRow:
    n: int | None
    label: str
    good_p: bool | None = None
    anomalous: bool | None = None
    splits: bool | None = None
    generator_status: str = "unknown"  # found | ingested | unknown
    generator: QPoint | None = None
    t_valuation: int | None = None  # None = not run
    verdicts: tuple = ()
    error: str | None = None
    curve_a: int | None = None
    curve_b: int | None = None

    @property
    def formal_nontrivial(self) -> bool | None:
        return None if self.t_valuation is None else self.t_valuation == 1

    def to_dict(self) -> dict:
        g = self.generator
        gen = None if g is None or g.is_identity else [g.x.numerator, g.x.denominator, g.y.numerator, g.y.denominator]
        return {
            "n": self.n,
            "label": self.label,
            "A": self.curve_a,
            "B": self.curve_b,
            "good_p": self.good_p,
            "anomalous": self.anomalous,
            "splits": self.splits,
            "generator": self.generator_status,
            "gen": gen,
            "formal_nontrivial": self.formal_nontrivial,
            "t_valuation": self.t_valuation,
            "verdicts": list(self.verdicts),
            "error": self.error,
        }


@dataclass(frozen=True)
class IngestRecord:
    label: str
    curve: Curve
    generator: QPoint | None
    rank: int | None
    source: str | None


@dataclass(frozen=True)
class IngestResult:
    records: tuple
    rejected: tuple  # (line number, reason)


def _printable(n: int, limit: int) -> bool:
    """Whether str(n) keeps within `limit` digits, 0 meaning no limit; since
    8^limit < 10^limit, an n of at most 3 * limit bits needs no power of ten."""
    return not limit or n.bit_length() <= 3 * limit or abs(n) < 10**limit


def ingest_curves(path) -> IngestResult:
    """Parse a line-delimited curve file; invalid rows are reported, not fatal.

    Each line is a JSON object with label, A/B or a1..a6, and optional
    gen = [x_num, x_den, y_num, y_den], rank, source.  Each line is decoded
    as UTF-8 on its own, so a line that is not UTF-8 is rejected alone.  A
    record whose short model or generator holds an integer str() cannot
    print is rejected, since its report row could not be written.
    """
    records = []
    rejected = []
    limit = sys.get_int_max_str_digits()
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode().strip()
        except UnicodeDecodeError as exc:
            rejected.append((lineno, f"parse error: not UTF-8 ({exc.reason}) at byte {exc.start + 1}"))
            continue
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            rejected.append((lineno, f"parse error: {exc.msg} at column {exc.colno}"))
            continue
        except ValueError as exc:  # an integer literal past the digit limit
            rejected.append((lineno, f"parse error: {exc}"))
            continue
        try:
            if not isinstance(obj, dict):
                raise IngestError("record must be a JSON object")
            label = str(obj.get("label", f"line{lineno}"))
            if "A" in obj and "B" in obj:
                if not (_is_int(obj["A"]) and _is_int(obj["B"])):
                    raise IngestError("A and B must be integers")
                curve = Curve(obj["A"], obj["B"], label=label)
                gen = QPoint(*parse_generator(obj["gen"])) if obj.get("gen") is not None else None
            elif all(f"a{i}" in obj for i in (1, 2, 3, 4, 6)):
                ai = [obj[f"a{i}"] for i in (1, 2, 3, 4, 6)]
                if not all(_is_int(t) for t in ai):
                    raise IngestError("a1..a6 must be integers")
                curve = curve_from_long_weierstrass(ai, label=label)
                gen = None
                if obj.get("gen") is not None:
                    gen = long_point_to_short(ai, *parse_generator(obj["gen"]))
            else:
                raise IngestError("record needs A,B or a1..a6")
            values = (curve.a, curve.b) if gen is None else (curve.a, curve.b, gen.x, gen.y)
            if not all(_printable(n, limit) for q in values for n in (q.numerator, q.denominator)):
                raise IngestError(f"short model or generator has an integer of more than {limit} digits")
            if gen is not None and not curve.contains(gen):
                raise IngestError(f"generator {gen} is not on the curve")
            rank = obj.get("rank")
            if rank is not None and not _is_int(rank):
                raise IngestError("rank must be an integer")
            records.append(
                IngestRecord(
                    label=label,
                    curve=curve,
                    generator=gen,
                    rank=rank,
                    source=obj.get("source"),
                )
            )
        except DomainError as exc:
            rejected.append((lineno, str(exc)))
    return IngestResult(records=tuple(records), rejected=tuple(rejected))


def find_generator(curve: Curve, height: int) -> QPoint | None:
    """Smallest-height infinite-order point from the bounded search, if any.

    The smallest is by :meth:`QPoint.height_key`, the order of
    ``rational.naive_point_search``.  The box is read one row of :func:`search_rows`
    at a time, in increasing e, and only points whose key is below the best
    found so far are certified.  Every point of a later row e' > e has naive
    height >= e'^2 >= (e + 1)^2, so once the best has height < (e + 1)^2 it
    is returned without sieving another row: it is the point the whole box
    would give.  The rows sieve only x >= R, the start of the real locus, and
    end once R e^2 > height, since no point lies left of R.

    Each hit is certified by :func:`torsion_order`: on the integral model a
    torsion point is integral (Nagell-Lutz), so most hits are certified by
    the first multiple with a non-integral coordinate, and by Mazur a point
    none of whose first 12 multiples is the identity has infinite order.
    """
    best = None
    for e, row in search_rows(curve, height):
        for P in sorted(row, key=QPoint.height_key):
            if best is not None and P.height_key() >= best.height_key():
                break
            if torsion_order(curve, P) is None:
                best = P
                break
        if best is not None and best.height_key()[0] < (e + 1) ** 2:
            return best
    return best


def build_row(
    curve: Curve,
    p: int,
    cm_field: ImagQuadField,
    height: int,
    n: int | None = None,
    ingested_generator: QPoint | None = None,
) -> SurveyRow:
    """Hypotheses, generator, formal t-valuation and verdicts for one curve.

    The row is labelled by ``curve.label``.  Its one record is
    ``HypothesisRecord.for_pair(curve, curve, p, cm_field=cm_field)``, which
    classifies the reduction the row reports and holds CM by O_D only if
    j(E) = j_D.  Eligibility is the middle-term rule's: every row that
    classifies runs ``brauer_middle_term_verdict`` on it, and the formal part's
    t-valuation is read only when the rule fired and a generator exists,
    by ``localpoints.t_valuation_at`` from the record's reduction, the
    checked datum the rule fired on, so no point at p is counted again.  A
    firing also verified that p splits in the field, so the ``splits``
    column reads it and tests (D|p) only when the rule did not fire.  The
    callers test p; the record refuses a p that is not prime, and the row
    p = 2 and 3, which the record leaves unclassified.  A DomainError
    becomes the row's error text; an InternalConsistencyError or
    ArithmeticError becomes "internal error: <Type>: <message>", so a bug
    is told apart from a bad input and never aborts the batch.
    """
    base = dict(n=n, label=curve.label or "?", curve_a=curve.a, curve_b=curve.b)
    try:
        record = HypothesisRecord.for_pair(curve, curve, p, cm_field=cm_field)
        if record.e1_reduction is None:
            raise DomainError(f"p must be a prime >= 5, got {p}")
        r = record.e1_reduction.value
        if ingested_generator is not None:
            if not curve.contains(ingested_generator):
                raise DomainError(f"ingested generator is not on {curve}")
            gen, status = ingested_generator, "ingested"
        else:
            gen = find_generator(curve, height)
            status = "found" if gen is not None else "unknown"
        fired = brauer_middle_term_verdict(record)
        splits = bool(fired) or splits_completely(cm_field, p)  # a firing verified (D|p) = 1
        names = [v.name for v in fired]
        tval = t_valuation_at(r, gen, p) if fired and gen is not None else None
        lifted = global_lift_verdict(tval, fired[0] if fired else None)
        if lifted is not None:
            names.append(lifted.name)
        return SurveyRow(
            good_p=r.kind.is_good,
            anomalous=r.anomalous,
            splits=splits,
            generator_status=status,
            generator=gen,
            t_valuation=tval,
            verdicts=tuple(names),
            **base,
        )
    except DomainError as exc:
        return SurveyRow(error=str(exc), **base)
    except (InternalConsistencyError, ArithmeticError) as exc:
        return SurveyRow(error=f"internal error: {type(exc).__name__}: {exc}", **base)


def aggregate_rows(rows) -> dict:
    eligible = [r for r in rows if Conclusion.MIDDLE_TERM_ZP_SQUARED.value in r.verdicts]
    ran = [r for r in eligible if r.formal_nontrivial is not None]
    nontrivial = sum(1 for r in ran if r.formal_nontrivial)
    unknown = sum(1 for r in eligible if r.generator_status == "unknown")
    fraction = f"{nontrivial}/{len(ran)}" if ran else None
    return {
        "eligible": len(eligible),
        "with_generator": len(ran),
        "nontrivial": nontrivial,
        "fraction": fraction,
        "generator_unknown": unknown,
        "errors": sum(1 for r in rows if r.error is not None),
        "note": PROXY_NOTE,
    }


def scan_family(spec: FamilySpec):
    """Per-curve rows plus the aggregate; row failures never abort the scan."""
    cm_field = ImagQuadField(spec.disc)
    rows = []
    for n in range(spec.n_min, spec.n_max + 1):
        try:
            curve = spec.curve(n)
        except DomainError as exc:
            rows.append(SurveyRow(n=n, label=f"n={n}", error=str(exc)))
            continue
        rows.append(
            build_row(
                curve,
                spec.p,
                cm_field,
                spec.height,
                n=n,
                ingested_generator=spec.generators.get(n),
            )
        )
    return rows, aggregate_rows(rows)


def survey_records(records, p: int, disc: int, height: int = DEFAULT_HEIGHT):
    """Rows for ingested records, in input order, plus the aggregate."""
    cm_field = ImagQuadField(disc)
    require_curve_prime(p)
    require_height(height)
    rows = [
        build_row(rec.curve, p, cm_field, height, ingested_generator=rec.generator)
        for rec in records
    ]
    return rows, aggregate_rows(rows)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(value)
    return str(value)


def emit_report(rows, aggregate: dict, format: str = "csv") -> str:
    """Deterministic report text; identical inputs give identical bytes."""
    if format == "csv":
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        csv.writer(out, lineterminator="\n").writerows(
            [_csv_cell(row[c]) for c in CSV_COLUMNS] for row in (r.to_dict() for r in rows)
        )
        agg = " ".join(
            f"{k}={aggregate[k]}"
            for k in ("eligible", "with_generator", "nontrivial", "fraction", "generator_unknown")
        )
        out.write(f"# aggregate {agg} note={aggregate['note']!r}\n")
        return out.getvalue()
    if format == "json":
        payload = {"rows": [r.to_dict() for r in rows], "aggregate": aggregate}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise DomainError(f"unknown report format {format!r}")
