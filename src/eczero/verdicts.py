"""Hypothesis-checked decision rules with citations.

Every rule reads p, the reduction types and CM from one record of named
facts (classified by HypothesisRecord.for_pair), each fact carrying its
provenance: "verified" means this package computed it (CM by O_D too, which
j(E) = j_D decides over Q), "asserted" means the caller supplied it
(Galois-theoretic inputs beyond desk-scale computation), "derived" means it
follows mechanically from an unverified fact.  A rule reports the provenance
its facts carry and marks verified only what it computes itself (splitting,
p mod 4, coprimality) or what follows from verified facts alone.  Rules
fire only when every required fact is present and favorable; a silent
None/empty result is *not* a refutation, the results are one-directional.

Every emitted Verdict names its conclusion, quotes a fixed citation string
keyed by the conclusion, and lists exactly the hypotheses it consumed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .arith import is_prime
from .errors import DomainError
from .quadfields import ImagQuadField, has_cm, splits_completely
from .rational import Curve, ReductionKind, ReductionType, reduction_type

VERIFIED = "verified"
ASSERTED = "asserted"
DERIVED = "derived"


@dataclass(frozen=True)
class Fact:
    value: object
    provenance: str

    def __post_init__(self):
        if self.provenance not in (VERIFIED, ASSERTED, DERIVED):
            raise DomainError(f"unknown provenance {self.provenance!r}")


def verified(value) -> Fact:
    return Fact(value, VERIFIED)


def asserted(value) -> Fact:
    return Fact(value, ASSERTED)


class Conclusion(enum.Enum):
    DIVISIBLE = "Divisible"
    ND_IS_Z_MOD_PN = "NdIsZmodPn"
    MIDDLE_TERM_ZP_SQUARED = "MiddleTermZpSquared"
    BRAUER_P_VANISHES = "BrauerPVanishes"
    UNCONDITIONAL_EXACTNESS = "UnconditionalExactness"
    QUARTIC_ND_2_PRIMARY = "QuarticNd2Primary"


CITATIONS: dict[Conclusion, str] = {
    Conclusion.DIVISIBLE: (
        "divisibility rule: over an unramified base with odd residue "
        "characteristic, good ordinary or almost-ordinary product reduction "
        "makes the degree-zero cycle class group divisible"
    ),
    Conclusion.ND_IS_Z_MOD_PN: (
        "non-divisible structure rule: good ordinary self-pairs with full "
        "p^n-torsion, wildly ramified next torsion layer and trivial "
        "Neron-Severi action have non-divisible part Z/p^n away from 2"
    ),
    Conclusion.MIDDLE_TERM_ZP_SQUARED: (
        "anomalous split-prime rule: for a CM curve with anomalous good "
        "reduction at a split p >= 5, the local middle term over the "
        "degree-(p-1) ramified extension is (Z/p)^2"
    ),
    Conclusion.BRAUER_P_VANISHES: (
        "anomalous split-prime rule: under the same hypotheses the p-primary "
        "transcendental Brauer quotient of the Kummer surface vanishes"
    ),
    Conclusion.UNCONDITIONAL_EXACTNESS: (
        "global lifting rule: a nontrivial formal component of an "
        "infinite-order global point lifts the (Z/p)^2 middle term, making "
        "the degree-zero complex exact with no rational-point assumptions"
    ),
    Conclusion.QUARTIC_ND_2_PRIMARY: (
        "diagonal quartic rule: for p = 1 mod 4 prime to the quartic model, "
        "the non-divisible part over an unramified base is 2-primary"
    ),
}


@dataclass(frozen=True)
class Verdict:
    conclusion: Conclusion
    hypotheses_used: tuple[str, ...]
    level: int | None = None
    conditional: bool = False

    @property
    def citation(self) -> str:
        return CITATIONS[self.conclusion]

    @property
    def name(self) -> str:
        if self.conclusion is Conclusion.ND_IS_Z_MOD_PN:
            return f"{self.conclusion.value}({self.level})"
        return self.conclusion.value

    def to_dict(self) -> dict:
        return {
            "conclusion": self.name,
            "citation": self.citation,
            "hypotheses": list(self.hypotheses_used),
            "conditional": self.conditional,
        }


def _verdict(conclusion: Conclusion, used: list[tuple[str, str]], level: int | None = None) -> Verdict:
    return Verdict(
        conclusion=conclusion,
        hypotheses_used=tuple(f"{name} ({prov})" for name, prov in used),
        level=level,
        conditional=any(prov != VERIFIED for _, prov in used),
    )


@dataclass(frozen=True)
class HypothesisRecord:
    """Named facts a verdict rule may consume; None marks an absent fact."""

    prime: Fact | None = None
    base_unramified: Fact | None = None
    e1_reduction: Fact | None = None
    e2_reduction: Fact | None = None
    torsion_level: Fact | None = None
    wild_ramification: Fact | None = None
    trivial_ns_action: Fact | None = None
    surface_good_reduction: Fact | None = None
    cm_field: Fact | None = None  # its value is the field K with CM by O_K

    @classmethod
    def for_pair(
        cls,
        e1: Curve,
        e2: Curve,
        p: int,
        *,
        base_unramified: bool | None = None,
        torsion_level: int | None = None,
        wild_ramification: bool | None = None,
        trivial_ns_action: bool | None = None,
        surface_good_reduction: bool | None = None,
        cm_field: ImagQuadField | None = None,
    ) -> "HypothesisRecord":
        """Verify the computable facts (E2 classified only if it differs from E1;
        CM by O_D of cm_field recorded only for a self-product E2 = E1 with
        j(E1) = j_D, the only pair the CM rules speak about), assert the rest."""
        if p < 2 or not is_prime(p):
            raise DomainError(f"{p} is not prime")
        if torsion_level is not None:
            _require_positive(torsion_level, "torsion level n")
        r1 = reduction_type(e1, p) if p >= 5 else None
        r2 = r1 if e2 == e1 or r1 is None else reduction_type(e2, p)
        return cls(
            prime=verified(p),
            base_unramified=None if base_unramified is None else asserted(base_unramified),
            e1_reduction=None if r1 is None else verified(r1),
            e2_reduction=None if r2 is None else verified(r2),
            torsion_level=None if torsion_level is None else asserted(torsion_level),
            wild_ramification=None if wild_ramification is None else asserted(wild_ramification),
            trivial_ns_action=None if trivial_ns_action is None else asserted(trivial_ns_action),
            surface_good_reduction=None
            if surface_good_reduction is None
            else asserted(surface_good_reduction),
            cm_field=verified(cm_field) if cm_field is not None and e2 == e1 and has_cm(e1, cm_field) else None,
        )


def _pair_ordinary_or_almost(r1: ReductionType, r2: ReductionType) -> bool:
    if not (r1.kind.is_good and r2.kind.is_good):
        return False
    supersingular = sum(
        1 for r in (r1, r2) if r.kind is ReductionKind.GOOD_SUPERSINGULAR
    )
    return supersingular <= 1


def divisibility_verdict(h: HypothesisRecord) -> Verdict | None:
    """Divisible cycle classes for good ordinary/almost-ordinary products."""
    if h.prime is None or h.base_unramified is None or h.e1_reduction is None or h.e2_reduction is None:
        return None
    if h.prime.value <= 2 or not h.base_unramified.value:
        return None
    if not _pair_ordinary_or_almost(h.e1_reduction.value, h.e2_reduction.value):
        return None
    used = [
        (f"p = {h.prime.value} odd", h.prime.provenance),
        ("base field unramified", h.base_unramified.provenance),
        (f"E1 reduction {h.e1_reduction.value}", h.e1_reduction.provenance),
        (f"E2 reduction {h.e2_reduction.value}", h.e2_reduction.provenance),
    ]
    return _verdict(Conclusion.DIVISIBLE, used)


def nd_structure_verdict(h: HypothesisRecord) -> Verdict | None:
    """Z/p^n structure of the non-divisible part for good ordinary pairs."""
    needed = (
        h.prime,
        h.e1_reduction,
        h.e2_reduction,
        h.torsion_level,
        h.wild_ramification,
        h.trivial_ns_action,
    )
    if any(f is None for f in needed):
        return None
    if h.prime.value <= 2:
        return None
    if h.e1_reduction.value.kind is not ReductionKind.GOOD_ORDINARY:
        return None
    if h.e2_reduction.value.kind is not ReductionKind.GOOD_ORDINARY:
        return None
    n = h.torsion_level.value
    if n < 1 or not h.wild_ramification.value or not h.trivial_ns_action.value:
        return None
    used = [
        (f"p = {h.prime.value} odd", h.prime.provenance),
        ("E1 good ordinary", h.e1_reduction.provenance),
        ("E2 good ordinary", h.e2_reduction.provenance),
        (f"full p^{n}-torsion over the base", h.torsion_level.provenance),
        ("wild ramification of the next torsion layer", h.wild_ramification.provenance),
        ("trivial Neron-Severi Galois action", h.trivial_ns_action.provenance),
    ]
    return _verdict(Conclusion.ND_IS_Z_MOD_PN, used, level=n)


def _require_positive(value: int, what: str) -> None:
    """A level, degree or order the rules read is a positive integer."""
    if value < 1:
        raise DomainError(f"{what} must be >= 1")


def require_tower_level(n: int) -> None:
    """The CM tower rule's level n is a positive integer."""
    _require_positive(n, "tower level n")


def cm_tower_verdict(h: HypothesisRecord, n: int) -> Verdict | None:
    """Z/p^n over the p^n-torsion tower field of a CM self-product.

    CM by the full ring of integers and good ordinary reduction of E1 come
    from the record; triviality of the Neron-Severi action follows from the
    CM fact, verified with it or derived from its assertion.
    """
    require_tower_level(n)
    cm = h.cm_field
    if cm is None or h.prime is None or h.e1_reduction is None or h.prime.value < 5:
        return None
    p, r = h.prime.value, h.e1_reduction.value
    if r.kind is not ReductionKind.GOOD_ORDINARY:
        return None
    used = [
        (f"p = {p} odd", h.prime.provenance),
        (f"CM by the full ring of integers of {cm.value}", cm.provenance),
        (f"good ordinary reduction at {p} (trace {r.trace})", h.e1_reduction.provenance),
        ("trivial Neron-Severi Galois action", VERIFIED if cm.provenance == VERIFIED else DERIVED),
        (f"base extended to the p^{n}-torsion tower field", ASSERTED),
    ]
    return _verdict(Conclusion.ND_IS_Z_MOD_PN, used, level=n)


def brauer_middle_term_verdict(h: HypothesisRecord) -> list[Verdict]:
    """The (Z/p)^2 middle term and Brauer vanishing at an anomalous split prime.

    Reads p >= 5, E1's anomalous (hence good) reduction type and CM by the
    full ring of integers of a field K from the record, and fires nothing
    without them; p not dividing the minimal discriminant stands in for
    conductor coprimality.  The rule verifies that p splits in K.
    """
    cm = h.cm_field
    if cm is None or h.prime is None or h.e1_reduction is None:
        return []
    p, r, cm_field = h.prime.value, h.e1_reduction.value, cm.value
    if p < 5 or not r.anomalous or not splits_completely(cm_field, p):
        return []
    used = [
        (f"p = {p} >= 5 prime", h.prime.provenance),
        (f"{p} splits completely in {cm_field}", VERIFIED),
        (f"good reduction at {p} (p coprime to the minimal discriminant)", h.e1_reduction.provenance),
        (f"anomalous reduction: |E(F_{p})| = {p}", h.e1_reduction.provenance),
        (f"CM by the full ring of integers of {cm_field}", cm.provenance),
    ]
    return [
        _verdict(Conclusion.MIDDLE_TERM_ZP_SQUARED, used),
        _verdict(Conclusion.BRAUER_P_VANISHES, used),
    ]


def global_lift_verdict(t_valuation: int | None, prior: Verdict | None) -> Verdict | None:
    """Unconditional exactness from a nontrivial formal component, i.e. one
    whose formal parameter has t-valuation 1.

    t_valuation must come from formal_t_valuation, its kernel
    localpoints.t_valuation_at or decompose_point, which certify
    infinite order; the middle term is verified only if the prior
    verdict is.  One-directional: a trivial formal component yields no conclusion.
    """
    if t_valuation != 1 or prior is None:
        return None
    if prior.conclusion is not Conclusion.MIDDLE_TERM_ZP_SQUARED:
        return None
    used = [
        ("middle term (Z/p)^2 established", DERIVED if prior.conditional else VERIFIED),
        ("global point of infinite order", VERIFIED),
        ("formal component nontrivial (t-valuation 1)", VERIFIED),
    ]
    return _verdict(Conclusion.UNCONDITIONAL_EXACTNESS, used)


_QUARTIC_CURVE = Curve(-4, 0)
# discriminant of the genus-one quartic model (x^2 - 1)(2x^2 - 1); a 2-power,
# so the coprimality test below is vacuous for every odd p, but it is checked
# rather than assumed
_QUARTIC_MODEL_DISC = 32


def quartic_verdict(h: HypothesisRecord) -> list[Verdict]:
    """Diagonal-quartic conclusions at p = 1 mod 4.

    Emits the 2-primary bound whenever p = 1 (mod 4) is coprime to the
    quartic models and the base is unramified; adds Divisible when good
    reduction of the surface is additionally asserted.
    """
    if h.prime is None or h.base_unramified is None or not h.base_unramified.value:
        return []
    p = h.prime.value
    if p % 4 != 1 or p < 5:
        return []
    if _QUARTIC_CURVE.discriminant % p == 0 or _QUARTIC_MODEL_DISC % p == 0:
        return []
    used = [
        (f"p = {p} = 1 (mod 4)", h.prime.provenance),
        ("p coprime to the quartic and its Jacobian model", VERIFIED),
        ("base field unramified", h.base_unramified.provenance),
    ]
    out = [_verdict(Conclusion.QUARTIC_ND_2_PRIMARY, used)]
    if h.surface_good_reduction is not None and h.surface_good_reduction.value:
        used_div = used + [
            ("good reduction of the quartic surface", h.surface_good_reduction.provenance)
        ]
        out.append(_verdict(Conclusion.DIVISIBLE, used_div))
    return out


@dataclass(frozen=True)
class AdmissibilityConfig:
    isogeny_degree: int = 1
    field_degree: int = 1
    bad_fiber_orders: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        _require_positive(self.isogeny_degree, "isogeny degree")
        _require_positive(self.field_degree, "field degree")
        for order in self.bad_fiber_orders:
            _require_positive(order, "bad-fiber order")

    @property
    def m_constant(self) -> int:
        return 6 * math.prod(self.bad_fiber_orders)


@dataclass(frozen=True)
class AdmissibilityResult:
    admissible: bool
    reasons: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"admissible": self.admissible, "reasons": list(self.reasons)}


def prime_admissibility(
    h: HypothesisRecord, config: AdmissibilityConfig = AdmissibilityConfig()
) -> AdmissibilityResult:
    """Three-condition filter for primes entering the local-to-global set.

    1: p coprime to 2 * isogeny degree * field degree, with good reduction
    of both curves above p; 2: good ordinary or almost-ordinary pair;
    3: p coprime to M = 6 * product of the asserted bad-fiber orders.
    """
    if h.prime is None:
        raise DomainError("prime admissibility needs p in the record")
    p = h.prime.value
    r1, r2 = (None if f is None else f.value for f in (h.e1_reduction, h.e2_reduction))
    deg_product = 2 * config.isogeny_degree * config.field_degree
    # each condition is (passed, why); why None means "not evaluated"
    if p > 0 and deg_product % p == 0:
        cond1 = False, f"p divides 2*deg(phi)*[K:F] = {deg_product}"
        cond2 = False, None
    elif r1 is None or r2 is None:
        cond1 = False, f"reduction types undetermined {'for p < 5' if p < 5 else 'in the record'}"
        cond2 = False, None
    elif not (r1.kind.is_good and r2.kind.is_good):
        cond1 = False, f"reduction at {p}: E1 {r1}, E2 {r2}"
        cond2 = False, "good reduction required first"
    else:
        cond1 = True, f"p coprime to {deg_product}; good reduction of both curves"
        if _pair_ordinary_or_almost(r1, r2):
            cond2 = True, "good ordinary or almost-ordinary pair"
        else:
            cond2 = False, "both factors supersingular"
    m = config.m_constant
    cond3 = (True, f"p coprime to M = {m}") if m % p else (False, f"p divides M = {m}")

    conditions = (cond1, cond2, cond3)
    reasons = tuple(
        f"condition {i}: not evaluated" if why is None else f"condition {i}: {'pass' if ok else 'fail'} ({why})"
        for i, (ok, why) in enumerate(conditions, 1)
    )
    return AdmissibilityResult(admissible=all(ok for ok, _ in conditions), reasons=reasons)
