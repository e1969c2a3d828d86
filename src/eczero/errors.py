"""Exception hierarchy shared across the package.

``DomainError`` and its subclasses mark violated preconditions or inputs
outside the supported range; the CLI maps them to exit code 1.
``InternalConsistencyError`` signals a broken internal invariant (a bug),
never a bad input.
"""


class EczeroError(Exception):
    """Base class for all package errors."""


class DomainError(EczeroError):
    """Input violates a documented precondition or supported range."""


class UnsupportedModulusError(DomainError):
    """Modulus outside the range the operation supports."""


class PrecisionExhaustedError(DomainError):
    """A p-adic result can no longer be certified at the working precision."""


class SplitHypothesisError(DomainError):
    """Torsion lifting failed: no p-torsion lift exists over the base field."""


class IngestError(DomainError):
    """A curve-file record could not be parsed or validated."""


class InternalConsistencyError(EczeroError):
    """An internal invariant failed; indicates an implementation bug."""
