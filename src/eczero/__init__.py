"""eczero: desk-scale toolkit for anomalous primes of CM elliptic curves,
p-adic point decompositions and curve-family surveys.

A public name imports its home module on first access (PEP 562) and is then
cached here, so `import eczero` loads none of the layers.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOME = {
    "AdmissibilityConfig": "verdicts",
    "AdmissibilityResult": "verdicts",
    "CLASS_NUMBER_ONE_DISCS": "quadfields",
    "Conclusion": "verdicts",
    "Curve": "rational",
    "Decomposition": "localpoints",
    "DomainError": "errors",
    "EczeroError": "errors",
    "FamilySpec": "survey",
    "FpCurve": "fp",
    "FpPoint": "fp",
    "HypothesisRecord": "verdicts",
    "ImagQuadField": "quadfields",
    "IngestError": "errors",
    "InternalConsistencyError": "errors",
    "PadicNumber": "localpoints",
    "PrecisionExhaustedError": "errors",
    "QPoint": "rational",
    "QpPoint": "localpoints",
    "ReductionKind": "rational",
    "ReductionType": "rational",
    "SplitHypothesisError": "errors",
    "SurveyRow": "survey",
    "UnsupportedModulusError": "errors",
    "Verdict": "verdicts",
    "anomalous_primes": "quadfields",
    "anomalous_residues_d3": "quadfields",
    "brauer_middle_term_verdict": "verdicts",
    "cm_tower_verdict": "verdicts",
    "cornacchia": "arith",
    "count_points": "fp",
    "decompose_point": "localpoints",
    "divisibility_verdict": "verdicts",
    "emit_report": "survey",
    "formal_t_valuation": "localpoints",
    "fp_add": "fp",
    "fp_neg": "fp",
    "fp_scalar_mul": "fp",
    "global_lift_verdict": "verdicts",
    "ingest_curves": "survey",
    "is_anomalous": "fp",
    "is_frobenius_trace": "quadfields",
    "is_prime": "arith",
    "kronecker_symbol": "arith",
    "lift_p_torsion": "localpoints",
    "naive_point_search": "rational",
    "nd_structure_verdict": "verdicts",
    "prime_admissibility": "verdicts",
    "quartic_verdict": "verdicts",
    "reduction_type": "rational",
    "scan_family": "survey",
    "splits_completely": "quadfields",
    "sqrt_mod_p": "arith",
    "survey_records": "survey",
    "trace_of_frobenius": "fp",
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
