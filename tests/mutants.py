"""Mutation catalogue: one-line faults the test suite must catch.

Each entry is (file, old text, new text, test node ids).  The old text must
occur exactly once in the file, so a refactor that moves it fails loudly
and the entry is updated with it.  For each entry the runner copies src/
and tests/ to a temporary directory, applies that one edit and runs the
named tests there.  It exits 0 only if the unmutated copy passes every
named test and every mutant fails its own.  A mutant that runs past
TIMEOUT seconds counts as killed, and is reported as such.

Usage: python tests/mutants.py

The file has no test_ prefix, so the test suite does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LOCAL = "src/eczero/localpoints.py"
QUAD = "src/eczero/quadfields.py"
FP = "src/eczero/fp.py"
ARITH = "src/eczero/arith.py"
RATIONAL = "src/eczero/rational.py"
SURVEY = "src/eczero/survey.py"
VERDICTS = "src/eczero/verdicts.py"
CLI = "src/eczero/cli.py"
BOUNDS = "src/eczero/bounds.py"
INIT = "src/eczero/__init__.py"
TIMEOUT = 300

# (file, old text, new text, test node ids)
MUTANTS = [
    # the torsion lift: Hensel loop on y, the stop test and the doubling
    (LOCAL, "        while (y * y - g) % mod:", "        if (y * y - g) % mod:",
     ["tests/test_localpoints.py"]),
    (LOCAL, "        if not Z and k == n:", "        if not Z:",
     ["tests/test_localpoints.py"]),
    (LOCAL, "        k = min(2 * k, n)", "        k = 2 * k",
     ["tests/test_localpoints.py"]),
    (LOCAL, "        x = (x - 2 * y * (t // p)) % mod", "        x = (x - y * (t // p)) % mod",
     ["tests/test_localpoints.py"]),
    # the [p] kernel's split criterion and the decomposition's chord
    (LOCAL, "    if Z % (p * p):", "    if Z % p:",
     ["tests/test_localpoints.py"]),
    # the t-valuation's first [p] works modulo p^4, where v(Z) = 2 and 3 end it
    (LOCAL, "    precision = 4\n", "    precision = 2\n",
     ["tests/test_localpoints.py::test_formal_t_valuation_decides_a_t_valuation_up_to_2_with_one_p_times"]),
    (LOCAL, "(x0, -y0 % mod, 1)", "(x0, y0 % mod, 1)",
     ["tests/test_localpoints.py"]),
    # the formal part's one reporter: a point in E_1 keeps GUARD_DIGITS past the precision
    (LOCAL, "tval, digits = pval(e, p), precision + GUARD_DIGITS", "tval, digits = pval(e, p), precision",
     ["tests/test_padic.py::test_from_fraction_converts_what_decompose_reports_at_the_bound"]),
    # the Jacobian doubling under the lift, the chord and the F_p multiples
    (ARITH, "8 * YY * YY", "4 * YY * YY",
     ["tests/test_localpoints.py::test_jacobian_check_agrees_with_affine_on_every_lift"]),
    # the output value's shift
    (LOCAL, "        return replace(self, valuation=self.valuation + s)",
     "        return replace(self, valuation=self.valuation - s)",
     ["tests/test_localpoints.py"]),
    # the reported values' single sources: the CSV's verdict join, the
    # eligibility verdict and the anomalous trace
    (SURVEY, '        return ";".join(value)', '        return ",".join(value)',
     ["tests/test_survey.py::test_csv_rows_are_json_rows_read_through_the_columns"]),
    (SURVEY, "Conclusion.MIDDLE_TERM_ZP_SQUARED.value in r.verdicts", "Conclusion.UNCONDITIONAL_EXACTNESS.value in r.verdicts",
     ["tests/test_survey.py::test_csv_rows_are_json_rows_read_through_the_columns"]),
    (RATIONAL, "and self.trace == 1", "and self.trace == -1",
     ["tests/test_rational.py"]),
    # a row's splits column reads a firing and tests (D|p) only without one
    (SURVEY, "splits = bool(fired) or splits_completely(cm_field, p)", "splits = splits_completely(cm_field, p)",
     ["tests/test_survey.py::test_rows_test_splitting_at_p_once"]),
    (SURVEY, "splits = bool(fired) or splits_completely(cm_field, p)", "splits = bool(fired)",
     ["tests/test_survey.py::test_rows_test_splitting_at_p_once"]),
    # a verdict is conditional when any hypothesis it used is asserted
    (VERDICTS, "conditional=any(prov != VERIFIED", "conditional=all(prov != VERIFIED",
     ["tests/test_verdicts.py::test_divisibility_fires"]),
    # CM by O_D is j(E) = j_D: the j_D lookup, the 1728 factor and the
    # comparison; the record holds it only when E1 passes, and what follows
    # from a fact is verified only if that fact is
    (QUAD, "CM_J_INVARIANTS[field.D]", "CM_J_INVARIANTS[-3]",
     ["tests/test_quadfields.py::test_has_cm_holds_for_the_own_maximal_order_only"]),
    (QUAD, "    return 1728 * a3 ==", "    return a3 ==",
     ["tests/test_quadfields.py::test_has_cm_holds_for_the_own_maximal_order_only"]),
    (QUAD, "    return 1728 * a3 == CM_J_INVARIANTS", "    return 1728 * a3 != CM_J_INVARIANTS",
     ["tests/test_quadfields.py::test_has_cm_holds_for_the_own_maximal_order_only"]),
    (VERDICTS, "if cm_field is not None and e2 == e1 and has_cm(e1, cm_field) else None",
     "if cm_field is not None else None",
     ["tests/test_verdicts.py::test_for_pair_verifies_cm_from_j_of_e1"]),
    (VERDICTS, "cm_field is not None and e2 == e1 and has_cm", "cm_field is not None and has_cm",
     ["tests/test_verdicts.py::test_for_pair_verifies_cm_from_j_of_e1"]),
    (VERDICTS, "VERIFIED if cm.provenance == VERIFIED else DERIVED", "DERIVED",
     ["tests/test_verdicts.py::test_cm_tower_verdict"]),
    (VERDICTS, "DERIVED if prior.conditional else VERIFIED", "VERIFIED",
     ["tests/test_verdicts.py::test_global_lift_verdict"]),
    # one bad row or record never aborts a batch, and the CSV quotes its cells
    (SURVEY, "    except (InternalConsistencyError, ArithmeticError) as exc:", "    except InternalConsistencyError as exc:",
     ["tests/test_survey.py::test_internal_error_in_one_row_does_not_abort_scan"]),
    (SURVEY, "n.bit_length() <= 3 * limit or abs(n) < 10**limit", "n.bit_length() <= 3 * limit or abs(n) <= 10**limit",
     ["tests/test_survey.py::test_ingest_rejects_integers_the_report_cannot_print"]),
    (SURVEY, "n.bit_length() <= 3 * limit or abs(n) < 10**limit", "n.bit_length() <= 4 * limit or abs(n) < 10**limit",
     ["tests/test_survey.py::test_ingest_rejects_integers_the_report_cannot_print"]),
    (SURVEY, "    return not limit or n.bit_length()", "    return limit or n.bit_length()",
     ["tests/test_survey.py::test_ingest_rejects_integers_the_report_cannot_print"]),
    (SURVEY, "        except ValueError as exc:", "        except TypeError as exc:",
     ["tests/test_survey.py::test_ingest_rejects_integers_the_report_cannot_print"]),
    (SURVEY, 'csv.writer(out, lineterminator="\\n")',
     'csv.writer(out, lineterminator="\\n", quoting=csv.QUOTE_NONE, escapechar="\\\\")',
     ["tests/test_survey.py::test_emit_csv_quotes_labels"]),
    # the CLI's one error boundary: DomainError exits 1, InternalConsistencyError 3
    (CLI, "sys.exit(1 if isinstance(exc, DomainError) else 3)", "sys.exit(3 if isinstance(exc, DomainError) else 1)",
     ["tests/test_cli.py::test_every_subcommand_maps_library_errors_to_exit_codes"]),
    (CLI, "        except (DomainError, InternalConsistencyError) as exc:", "        except InternalConsistencyError as exc:",
     ["tests/test_cli.py::test_every_subcommand_maps_library_errors_to_exit_codes"]),
    # cold start: importing the CLI loads no layer, a command loads only its
    # own, and each public name is its home module's object, cached on first use
    (CLI, "from .errors import DomainError, InternalConsistencyError\n",
     "from .errors import DomainError, InternalConsistencyError\nfrom .survey import scan_family\n",
     ["tests/test_cli.py::test_imports_load_no_layer"]),
    (CLI, "    from .rational import QPoint, parse_generator\n", "    from .survey import QPoint, parse_generator\n",
     ["tests/test_cli.py::test_each_command_loads_only_its_layers"]),
    (INIT, '"trace_of_frobenius": "fp"', '"trace_of_frobenius": "rational"',
     ["tests/test_cli.py::test_public_names_are_their_home_modules_objects"]),
    (INIT, "    globals()[name] = value\n", "",
     ["tests/test_cli.py::test_public_names_are_their_home_modules_objects"]),
    (INIT, "    return sorted({*globals(), *__all__})", "    return sorted(globals())",
     ["tests/test_cli.py::test_imports_load_no_layer"]),
    # the verdict inputs' refusals below 1: the bound and each call site
    (VERDICTS, "    if value < 1:\n", "    if value < 0:\n",
     ["tests/test_verdicts.py::test_levels_degrees_and_orders_below_1_are_refused"]),
    (VERDICTS, 'require_positive(torsion_level, "torsion level n")', 'require_positive(torsion_level + 1, "torsion level n")',
     ["tests/test_verdicts.py::test_levels_degrees_and_orders_below_1_are_refused"]),
    (VERDICTS, 'require_positive(self.isogeny_degree, "isogeny degree")',
     'require_positive(self.isogeny_degree + 1, "isogeny degree")',
     ["tests/test_verdicts.py::test_levels_degrees_and_orders_below_1_are_refused"]),
    (VERDICTS, 'require_positive(self.field_degree, "field degree")', 'require_positive(self.field_degree + 1, "field degree")',
     ["tests/test_verdicts.py::test_levels_degrees_and_orders_below_1_are_refused"]),
    (VERDICTS, "        for order in self.bad_fiber_orders:\n", "        for order in self.bad_fiber_orders[:1]:\n",
     ["tests/test_verdicts.py::test_levels_degrees_and_orders_below_1_are_refused"]),
    # the entry checks: the height's two bounds, the family's two ends, the
    # ingested generators' n and the curve file's per-line decode
    (RATIONAL, "    if height < 1:", "    if height < 0:",
     ["tests/test_cli.py::test_survey_height_outside_the_bound_is_refused_at_entry"]),
    (RATIONAL, "    if height > MAX_HEIGHT:", "    if height > 2 * MAX_HEIGHT:",
     ["tests/test_cli.py::test_survey_height_outside_the_bound_is_refused_at_entry"]),
    (SURVEY, "for n in (self.n_min, self.n_max)]", "for n in (self.n_min,)]",
     ["tests/test_survey.py::test_family_ends_bound_the_integers_the_report_prints"]),
    (SURVEY, "range(n, n + 1) if r == 0 and n in span else range(0)", "range(n, n + 1) if r == 0 else range(0)",
     ["tests/test_survey.py::test_family_members_are_the_n_with_those_coefficients"]),
    (SURVEY, "        return span if fits else range(0)", "        return span",
     ["tests/test_survey.py::test_family_members_are_the_n_with_those_coefficients"]),
    (SURVEY, "            line = raw.decode().strip()", '            line = raw.decode(errors="replace").strip()',
     ["tests/test_cli.py::test_an_undecodable_curve_file_line_is_rejected_alone"]),
    # a curve file's integers exclude JSON's true and false, and a survey row
    # reads its reduction and CM off one for_pair record
    (RATIONAL, "    return isinstance(value, int) and not isinstance(value, bool)", "    return isinstance(value, int)",
     ["tests/test_survey.py::test_ingest_rejects_json_booleans_by_line"]),
    (SURVEY, "record = HypothesisRecord.for_pair(curve, curve, p, cm_field=cm_field)",
     "record = HypothesisRecord.for_pair(curve, curve, p)",
     ["tests/test_survey.py::test_rows_fire_the_cm_rules_only_on_curves_with_cm"]),
    # the t-valuation of a row or of `verdict --gen` reads the reduction of
    # the record the middle-term rule fired on, so it counts no point at p
    # again and runs only when the rule fired
    (SURVEY, "tval = t_valuation_at(r, gen, p) if fired",
     "tval = t_valuation_at(HypothesisRecord.for_pair(curve, curve, p).e1_reduction.value, gen, p) if fired",
     ["tests/test_survey.py::test_rows_count_points_at_p_once"]),
    (CLI, "t_valuation_at(record.e1_reduction.value, point, p)",
     "t_valuation_at(HypothesisRecord.for_pair(e1, e1, p).e1_reduction.value, point, p)",
     ["tests/test_cli.py::test_verdict_counts_points_once_per_curve"]),
    (SURVEY, "t_valuation_at(r, gen, p) if fired and gen is not None else None",
     "t_valuation_at(r, gen, p) if gen is not None else None",
     ["tests/test_cli.py::test_report_output_is_pinned",
      "tests/test_survey.py::test_rows_fire_the_cm_rules_only_on_curves_with_cm"]),
    # a row leaves p to its callers and refuses the record's unclassified p
    (SURVEY, "        if record.e1_reduction is None:\n            raise DomainError",
     "        if False:\n            raise DomainError",
     ["tests/test_survey.py::test_rows_test_their_prime_three_times"]),
    # the one local datum: reduction_type keeps it out of equality and
    # printing, and every local entry checks it before reading it
    (RATIONAL, "reduced: FpCurve | None = field(default=None, compare=False, repr=False)",
     "reduced: FpCurve | None = field(default=None, repr=False)",
     ["tests/test_rational.py::test_reduction_type_keeps_its_datum_out_of_equality_hash_and_print"]),
    (RATIONAL, "minimal: Curve | None = field(default=None, compare=False, repr=False)",
     "minimal: Curve | None = field(default=None, compare=False)",
     ["tests/test_rational.py::test_reduction_type_keeps_its_datum_out_of_equality_hash_and_print"]),
    (LOCAL, "    if r.scale:\n        raise DomainError", "    if False:\n        raise DomainError",
     ["tests/test_localpoints.py::test_lift_p_torsion_preconditions"]),
    (LOCAL, "    _anomalous(r, p)\n    m, n, e = _onto_minimal(r, point, p)\n", "    m, n, e = _onto_minimal(r, point, p)\n",
     ["tests/test_localpoints.py::test_t_valuation_at_reads_only_the_datum_reduction_type_built"]),
    (LOCAL, "    _anomalous(r, p)\n    P = _onto_minimal(r, point, p)\n", "    P = _onto_minimal(r, point, p)\n",
     ["tests/test_localpoints.py::test_decompose_preconditions"]),
    (LOCAL, "    if r.reduced is None or r.reduced.p != p:", "    if r.reduced is None:",
     ["tests/test_localpoints.py::test_t_valuation_at_reads_only_the_datum_reduction_type_built"]),
    # the search's sieve alignment, height cap, real-locus start and
    # torsion certification's early stop
    (RATIONAL, "    shift = -height % q", "    shift = height % q",
     ["tests/test_rational.py::test_point_search_matches_brute_force"]),
    (BOUNDS, "MAX_HEIGHT = 10**6", "MAX_HEIGHT = 10**7",
     ["tests/test_rational.py::test_search_height_above_the_cap_raises_before_building_a_row"]),
    (RATIONAL, "            hi = mid\n    return lo", "            hi = mid\n    return lo + 1",
     ["tests/test_rational.py::test_point_search_on_the_real_locus_matches_brute_force"]),
    (RATIONAL, "        if r:\n            return None", "        if False:\n            return None",
     ["tests/test_rational.py::test_torsion_order_stops_at_the_first_non_integral_multiple"]),
    # certification on integers: the on-curve test's cross-multiplied b term
    # and the torsion walk's tangent slope
    (RATIONAL, " + self.b * xd2 * xd)", " + self.b)",
     ["tests/test_properties.py::test_contains_is_the_curve_equation_over_fractions"]),
    (RATIONAL, "num, den = 3 * x * x + curve.a, 2 * y", "num, den = 3 * x * x, 2 * y",
     ["tests/test_rational.py::test_torsion_order_on_points_of_every_order"]),
    # the bounds on the anomalous-residue loop and on point counting
    (QUAD, "    if p > RESIDUE_LIMIT:", "    if p > 10 * RESIDUE_LIMIT:",
     ["tests/test_quadfields.py::test_anomalous_residues_refuse_p_past_the_limit_at_once"]),
    (QUAD, "RESIDUE_LIMIT = 10**5", "RESIDUE_LIMIT = 10**6",
     ["tests/test_quadfields.py::test_anomalous_residues_refuse_p_past_the_limit_at_once"]),
    (FP, "COUNT_LIMIT = 1 << 40", "COUNT_LIMIT = 1 << 41",
     ["tests/test_quadfields.py::test_anomalous_primes_refuses_bounds_past_2_40_at_once"]),
    # order resolution: the parity start, the kill step and its cut on the
    # progression
    (FP, "    step = 2 if kronecker_symbol(-_delta(curve), p) == -1 else 1",
     "    step = 2 if kronecker_symbol(-_delta(curve), p) == 1 else 1",
     ["tests/test_fp.py::test_hasse_route_starts_from_the_even_orders_exactly_at_a_nonsquare_discriminant"]),
    (FP, "    step = L * _kill_step(curve, Q, k, hi // L - k + 1)", "    step = _kill_step(curve, Q, k, hi // L - k + 1)",
     ["tests/test_fp.py::test_kill_cut_walks_only_its_progression"]),
    (FP, "    Q = _mul(p, curve.a, L, P)", "    Q = P",
     ["tests/test_fp.py::test_kill_cut_walks_only_its_progression"]),
    # the Jacobian multiple's identity
    (FP, "    if not Z:\n        return (None, None)\n", "",
     ["tests/test_fp.py::test_scalar_mul_matches_the_affine_oracle"]),
    (FP, "                return n - first", "                return n",
     ["tests/test_fp.py::test_kill_step_multiples_are_the_kill_set"]),
    # batched additions: the backward pass's running inverse and prefix
    # product, and the kill step's stride, first centre and giant addend
    (FP, "        inv = inv * den % p\n", "",
     ["tests/test_fp.py::test_add_many_is_add_elementwise"]),
    (FP, "        lam = num * before * inv % p", "        lam = num * inv % p",
     ["tests/test_fp.py::test_add_many_is_add_elementwise"]),
    (FP, "    [stride] = _add_many(p, a, [(twice, P)])", "    stride = twice",
     ["tests/test_fp.py::test_kill_step_multiples_are_the_kill_set"]),
    (FP, "(x, y if r > m else -y % p)", "(x, -y % p if r > m else y)",
     ["tests/test_fp.py::test_kill_step_multiples_are_the_kill_set"]),
    (FP, "+ [(addend, addend)] * more", "+ [(addend, stride)] * more",
     ["tests/test_fp.py::test_kill_step_multiples_are_the_kill_set"]),
    # the giant addend is doubled only while another block will read it
    (FP, "        more = rest > len(giants)", "        more = rest > 0",
     ["tests/test_fp.py::test_kill_step_makes_no_unused_addition"]),
    (FP, "(B, babies[-1]) for B in babies", "(B, babies[0]) for B in babies",
     ["tests/test_fp.py::test_plus_minus_baby_steps_give_every_order_up_to_2m_exactly"]),
    # the +- baby steps: a giant step's sign, and the orders the baby steps return
    (FP, "n = c - j if y == G[1] else c + j", "n = c + j if y == G[1] else c - j",
     ["tests/test_fp.py::test_kill_step_multiples_are_the_kill_set"]),
    (FP, "            return 2 * j", "            return j",
     ["tests/test_fp.py::test_plus_minus_baby_steps_give_every_order_up_to_2m_exactly"]),
    (FP, "            return hit[0] + j", "            return 2 * j",
     ["tests/test_fp.py::test_plus_minus_baby_steps_give_every_order_up_to_2m_exactly"]),
    (FP, "    return range(lo + (-lo) % step, hi + 1, step) if step else range(0)",
     "    return range(lo + (-lo) % step, hi + 1, step)",
     ["tests/test_fp.py::test_a_walk_without_hits_ends_in_the_fallback"]),
    # the sign rule of the seven D with units +-1: the Hecke character, its
    # v-term at D = -8, the quadratic-twist symbol and one c_D
    (FP, "        eps = kronecker_symbol(2 * u, -D)", "        eps = -kronecker_symbol(2 * u, -D)",
     ["tests/test_fp.py::test_cm_order_matches_the_sweep_on_every_split_prime_to_2_12"]),
    (FP, "        eps = kronecker_symbol(-2, u // 2) * (-1 if v % 4 == 2 else 1)",
     "        eps = kronecker_symbol(-2, u // 2)",
     ["tests/test_fp.py::test_cm_order_matches_the_sweep_on_every_split_prime_to_2_12"]),
    (FP, "    return p + 1 - kronecker_symbol(_CM_TWIST_CLASS[D] * curve.a * curve.b, p) * eps * u",
     "    return p + 1 - eps * u",
     ["tests/test_fp.py::test_cm_order_matches_the_sweep_on_every_split_prime_to_2_12"]),
    (FP, "-11: 14,", "-11: 7,",
     ["tests/test_fp.py::test_cm_order_matches_the_sweep_on_every_split_prime_to_2_12"]),
    # the twist that cuts what E's points leave of the Hasse interval
    (FP, "        twist = _order_candidates(_twist(curve), cands)", "        twist = cands",
     ["tests/test_fp.py::test_hasse_route_resolves_two_survivors_with_the_twist"]),
    # the residue symbols at j = 0 and j = 1728: the primary associate, the
    # symbol's exponent and its conjugate
    (FP, "    while c % 3 != 2 or d % 3:", "    while c % 3 != 1 or d % 3:",
     ["tests/test_fp.py::test_residue_symbol_matches_the_sweep_on_every_split_curve_below_2_10"]),
    (FP, "((1, 0), (3, 2))", "((1, 0), (1, 2))",
     ["tests/test_fp.py::test_residue_symbol_matches_the_sweep_on_every_split_curve_below_2_10"]),
    (FP, "    chi = pow(4 * b, (p - 1) // 6, p)", "    chi = pow(4 * b, (p - 1) // 3, p)",
     ["tests/test_fp.py::test_residue_symbol_matches_the_sweep_on_every_split_curve_below_2_10"]),
    (FP, "    chi = pow(-a, (p - 1) // 4, p)", "    chi = pow(-a, (p - 1) // 2, p)",
     ["tests/test_fp.py::test_residue_symbol_matches_the_sweep_on_every_split_curve_below_2_10"]),
    (FP, "        c, d, chi = d, d - c, chi * -w % p", "        c, d, chi = c - d, c, chi * -w % p",
     ["tests/test_fp.py::test_residue_symbol_matches_the_sweep_on_every_split_curve_below_2_10"]),
    (FP, "        c, d, chi = d, -c, chi * -i % p", "        c, d, chi = -d, c, chi * -i % p",
     ["tests/test_fp.py::test_residue_symbol_matches_the_sweep_on_every_split_curve_below_2_10"]),
    # a CM curve has one order: no point is walked for it
    (FP, "    return count_points_bsgs(curve) if order is None else order",
     "    return count_points_bsgs(curve) if order is None else _resolve(curve, range(order, order + 2))",
     ["tests/test_fp.py::test_a_split_j_0_or_j_1728_count_walks_no_point"]),
    # one primality test per count: reduction_type's curve, the twist and the
    # CM route's Cornacchia take the private paths, which keep every other check
    (RATIONAL, "FpCurve._at_checked_prime(p, minimal.a, minimal.b)", "FpCurve(p, minimal.a, minimal.b)",
     ["tests/test_fp.py::test_reduction_type_tests_its_prime_once"]),
    (FP, "FpCurve._at_checked_prime(p, curve.a * g * g, curve.b * g**3)", "FpCurve(p, curve.a * g * g, curve.b * g**3)",
     ["tests/test_fp.py::test_reduction_type_tests_its_prime_once"]),
    (FP, "    _cornacchia,\n", "    cornacchia as _cornacchia,\n",
     ["tests/test_fp.py::test_reduction_type_tests_its_prime_once"]),
    (FP, "        curve._reduce()\n", "",
     ["tests/test_fp.py::test_checked_prime_constructor_keeps_every_other_check"]),
    # lift_p_torsion reads the reduction in its datum instead of reducing again
    (LOCAL, "    if not r.reduced.contains(target):", "    if not type(r.reduced)(p, curve.a, curve.b).contains(target):",
     ["tests/test_fp.py::test_local_and_residue_entries_test_their_prime_once"]),
    (QUAD, "FpCurve._at_checked_prime(p, 0, c)", "FpCurve(p, 0, c)",
     ["tests/test_fp.py::test_local_and_residue_entries_test_their_prime_once"]),
    # the number-theory kernels under it
    (ARITH, "((u + 3 * v) // 2, abs(u - v) // 2)", "((u + v) // 2, abs(u - v) // 2)",
     ["tests/test_arith.py::test_unit_orbit_members_are_representations_with_one_orbit"]),
    (ARITH, "    if n < 61 * 61:", "    if n < 67 * 67:",
     ["tests/test_arith.py::test_is_prime_matches_trial_division_below_one_million"]),
    (ARITH, "_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)",
     "_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23)",
     ["tests/test_arith.py::test_is_prime_large_composites"]),
    # Miller-Rabin stops after k witnesses strictly below psi_k, each bound
    # paired with its own k
    (ARITH, "        if n < bound:", "        if n <= bound:",
     ["tests/test_arith.py::test_is_prime_large_composites"]),
    (ARITH, "    2047, 1373653, 25326001,", "    1373653, 25326001,",
     ["tests/test_arith.py::test_is_prime_large_composites"]),
    (ARITH, "        r = pow(a, (p + 1) // 4, p)", "        r = pow(a, (p - 1) // 4, p)",
     ["tests/test_arith.py::test_sqrt_mod_p_examples"]),
    (ARITH, "        x0 = p - x0", "        x0 = x0",
     ["tests/test_arith.py::test_cornacchia_identity_and_minimality"]),
    # [k]P refuses a negative k instead of looping for ever
    (ARITH, "    if k < 0:\n        raise InternalConsistencyError", "    if False:\n        raise InternalConsistencyError",
     ["tests/test_arith.py::test_double_and_add_refuses_a_negative_k"]),
]


def _copy() -> tempfile.TemporaryDirectory:
    tmp = tempfile.TemporaryDirectory(prefix="eczero-mutant-")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, Path(tmp.name) / part, ignore=shutil.ignore_patterns("__pycache__"))
    return tmp


def _run(where: Path, tests: list[str]) -> str:
    """'passed', 'failed' or 'timeout' for the named tests in a copy."""
    env = {**os.environ, "PYTHONPATH": str(where / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        out = subprocess.run(cmd, cwd=where, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if out.returncode == 0 else "failed"


def _apply(where: Path, file: str, old: str, new: str) -> None:
    path = where / file
    text = path.read_text()
    count = text.count(old)
    if count != 1:
        raise SystemExit(f"{file}: old text occurs {count} times, not once: {old!r}")
    path.write_text(text.replace(old, new))


def main() -> int:
    start = time.monotonic()
    with _copy() as clean:
        tests = sorted({t for m in MUTANTS for t in m[3]})
        baseline = _run(Path(clean), tests)
        print(f"unmutated: {baseline}", flush=True)
        if baseline != "passed":
            return 1
    survivors = 0
    for file, old, new, tests in MUTANTS:
        t0 = time.monotonic()
        with _copy() as tmp:
            _apply(Path(tmp), file, old, new)
            outcome = _run(Path(tmp), tests)
        verdict = "survived" if outcome == "passed" else f"killed ({outcome})"
        survivors += outcome == "passed"
        print(f"{verdict:16} {time.monotonic() - t0:6.1f}s  {file}: {old.strip()!r} -> {new.strip()!r}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed in {time.monotonic() - start:.0f}s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
