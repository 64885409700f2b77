"""Independence theory for covariant families: relations over the function
field, relations with relative-invariant coefficients, the reflection
degree-lowering descent, and the bridges between module-level and generic
independence.

Whether module-level conclusions are available depends on global geometric
hypotheses (the invariant field being the fraction field of the invariant
ring, or the group being generated by pseudo-reflections).  Those hypotheses
are caller-asserted flags recorded in every report, never inferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .action import FiniteGroupAction
from .covariant import (
    Covariant,
    cleared_rows,
    generic_independence,
    weight_of,
)
from .exactalg import (
    ExactAlgError,
    ExactDivisionError,
    Matrix,
    Poly,
    RatFn,
    common_denominator,
    echelon_kernel,
    field_one,
    qmat_rank,
)
from .report import Report, Stopwatch


class ReflectError(ExactAlgError):
    pass


class NoDependenceError(ReflectError):
    """The family is generically independent; no relation exists."""


class HypothesisError(ReflectError):
    """Caller-asserted hypotheses are contradictory or visibly violated."""


@dataclass
class Relation:
    """Coefficients h_1..h_e with sum_i h_i F_i = 0 as a vector of
    polynomials (or rational functions)."""

    coeffs: list
    covariants: list[Covariant]
    verified: bool = False

    @property
    def is_zero(self) -> bool:
        return all(h.is_zero() for h in self.coeffs)

    def max_degree(self) -> int:
        degs = []
        for h in self.coeffs:
            if isinstance(h, RatFn):
                h = h.as_poly()
            degs.append(h.total_degree())
        return max(degs)

    def check(self) -> bool:
        """Exact verification that sum h_i F_i is the zero vector: with the
        coefficients over one denominator and row r of the frame as
        N_r / D_r, one polynomial identity sum_i h_i N_ri = 0 per row."""
        hs, _ = common_denominator(self.coeffs)
        N, _ = cleared_rows(self.covariants)
        zero = hs[0].ring_zero()
        return all(not sum((h * e for h, e in zip(hs, row)), zero) for row in N.entries)

    def verify(self) -> "Relation":
        self.verified = self.check()
        if not self.verified:
            raise ReflectError("relation coefficients do not annihilate the family")
        return self


@dataclass
class IndependenceCertificate:
    """A nonvanishing maximal minor certifying full column rank."""

    rows: list[int]
    cols: list[int]
    minor: Poly

    def __str__(self):
        return (f"minor on rows {self.rows}, columns {self.cols}: {self.minor}")


def relation_over_function_field(Fs: list[Covariant]):
    """A kernel vector of the coordinate matrix over k(X), normalized so the
    last nonzero coefficient is 1, or an :class:`IndependenceCertificate`.

    Both come from the cleared rows N of the frame, which have its kernel;
    the certificate is a nonzero maximal minor of N.  Coefficients that
    happen to be polynomial are returned as Poly.
    """
    N, _ = cleared_rows(Fs)
    echelon, pivots, _ = N._echelon_ff()
    kernel = echelon_kernel(echelon, pivots)
    if kernel is None:
        return _independence_certificate(N, pivots)
    coeffs = [v.as_poly() if v.is_poly() else v for v in kernel]
    return Relation(coeffs, list(Fs)).verify()


def _independence_certificate(mat: Matrix, pivots: list[int]) -> IndependenceCertificate:
    """The minor on the pivot columns of ``mat`` and, among the rows, the
    first that are independent on them: the pivot columns of the transposed
    submatrix, in ascending order.  The last Bareiss pivot of that transpose
    is the minor of its row-permuted form, so the row-swap sign makes it the
    minor on those rows."""
    sub = Matrix([[mat.entries[r][c] for c in pivots] for r in range(mat.rows)])
    echelon, rows, sign = sub.transpose()._echelon_ff()
    minor = echelon[-1][rows[-1]]
    return IndependenceCertificate(rows, list(pivots), minor if sign == 1 else -minor)


@dataclass
class XSpaceFlags:
    """Caller-asserted hypotheses on X: factorial affine coordinate ring with
    only scalar units."""

    factorial_affine: bool = False
    scalar_units: bool = False
    note: str = ""


def relative_invariant_relation(Fs: list[Covariant], flags: XSpaceFlags) -> Relation:
    """Clear a function-field relation into one whose coefficients are
    relative invariants of one common weight.

    Requires the caller to assert that X is factorial affine with only
    scalar units; under those hypotheses the numerator and denominator of
    each invariant kernel coefficient are themselves relative invariants,
    and multiplying the relation through by the least common denominator
    leaves relative-invariant coefficients of equal weight.
    """
    if not (flags.factorial_affine and flags.scalar_units):
        raise HypothesisError(
            "relative_invariant_relation needs the factorial-affine and "
            "scalar-units hypotheses asserted")
    found = relation_over_function_field(Fs)
    if isinstance(found, IndependenceCertificate):
        raise NoDependenceError(
            f"family is generically independent ({found})")
    return _relative_invariant_coefficients(found)


def _relative_invariant_coefficients(rel: Relation) -> Relation:
    """The verified relation ``rel`` over its coefficients' common
    denominator, each coefficient checked to be a relative invariant of one
    common weight (the factorial-affine, scalar-units hypotheses)."""
    action = rel.covariants[0].action
    coeffs, _ = common_denominator(rel.coeffs)
    weights = []
    for i, h in enumerate(coeffs):
        if h.is_zero():
            weights.append(None)
            continue
        w = weight_of(action, h)
        if w is None:
            raise HypothesisError(
                f"coefficient {i + 1} is not a relative invariant; the "
                "asserted hypotheses on X are violated")
        weights.append(w)
    nonzero = [w for w in weights if w is not None]
    if any(w != nonzero[0] for w in nonzero[1:]):
        raise HypothesisError("coefficient weights differ; the asserted "
                              "hypotheses on X are violated")
    return Relation(coeffs, rel.covariants).verify()


# ---------------------------------------------------------------------------
# reflections and the degree-lowering descent
# ---------------------------------------------------------------------------


@dataclass
class Reflection:
    """A group element fixing a hyperplane pointwise, with a linear form l
    cutting out that hyperplane."""

    element: int
    hyperplane_form: Poly
    action: FiniteGroupAction = dc_field(repr=False, default=None)

    def validate(self) -> bool:
        """Whether the element is a pseudo-reflection and the form is a
        nonzero multiple of the one read off it."""
        l = _hyperplane_form(self.action, self.element)
        return l is not None and self.hyperplane_form.monic() == l


def _hyperplane_form(action: FiniteGroupAction, g: int) -> Poly | None:
    """The monic first nonzero row of M - I, as a linear form on X, when
    M - I has rank 1 (g fixes a hyperplane pointwise); None otherwise."""
    one = field_one(action.field)
    diff = [[e - one if i == j else e for j, e in enumerate(row)]
            for i, row in enumerate(action.x_mats[g])]
    if qmat_rank(diff) != 1:
        return None
    row = next(r for r in diff if any(r))
    units = [tuple(int(i == j) for j in range(len(row))) for i in range(len(row))]
    return Poly(action.x_vars, dict(zip(units, row)), action.field).monic()


def find_reflections(action: FiniteGroupAction) -> list[Reflection]:
    """Scan the element list for pseudo-reflections on the X-space, each
    with the form of :func:`_hyperplane_form`."""
    forms = ((g, _hyperplane_form(action, g)) for g in action.elements())
    return [Reflection(g, l, action) for g, l in forms if l is not None]


def lower_relation(rel: Relation, s: Reflection) -> Relation:
    """One descent step: replace each coefficient h_j by (h_j - s.h_j) / l.

    The divisions must be exact (h - s.h vanishes on the fixed hyperplane);
    a remainder signals that s is not a reflection for this action.  The
    zero relation is a legal output and means every coefficient is fixed by
    s.  A nonzero output has strictly smaller maximal degree (checked).
    """
    if not rel.verified:
        raise ReflectError("lower_relation requires a verified relation")
    action = rel.covariants[0].action
    if s.action is not action:
        raise ReflectError("reflection belongs to a different action")
    if not s.validate():
        raise ReflectError("element does not fix a hyperplane pointwise")
    l = s.hyperplane_form
    new_coeffs = []
    for h in rel.coeffs:
        if isinstance(h, RatFn):
            h = h.as_poly()
        # s.h = h(s^-1 x), moved forward by the inverse element
        moved, _ = action.act_cleared(h, "x", h.vars, action.inv[s.element])
        diff = h - moved
        try:
            new_coeffs.append(diff.exact_div(l) if not diff.is_zero() else diff)
        except ExactDivisionError:
            raise ReflectError(
                "difference is not divisible by the hyperplane form; the "
                "element is not a reflection for this action") from None
    out = Relation(new_coeffs, rel.covariants)
    if out.is_zero:
        out.verified = True
        return out
    out.verify()
    if out.max_degree() >= rel.max_degree():
        raise ReflectError("internal: descent step failed to lower the degree")
    return out


def descend_to_invariant_relation(rel: Relation) -> Relation:
    """Iterate the descent across all reflections until no step changes the
    relation; for reflection-generated groups the result has invariant
    coefficients."""
    action = rel.covariants[0].action
    reflections = find_reflections(action)
    current = rel
    changed = True
    while changed:
        changed = False
        for s in reflections:
            lowered = lower_relation(current, s)
            if not lowered.is_zero:
                current = lowered
                changed = True
                break
    return current


# ---------------------------------------------------------------------------
# module-independence verdicts
# ---------------------------------------------------------------------------


@dataclass
class BridgeFlags:
    """Which bridge between generic and module independence the caller
    asserts.  ``fraction_field``: the invariant field is the fraction field
    of the invariant ring (finite group on affine X, or commutator-group /
    factorial conditions).  ``reflection``: the group is generated by
    pseudo-reflections."""

    fraction_field: bool = False
    reflection: bool = False
    note: str = ""


def module_independence_verdict(Fs: list[Covariant], flags: BridgeFlags,
                                seed: int = 0) -> Report:
    """Decide independence in the module of covariants over the invariant
    ring, as far as the asserted hypotheses allow.

    With a bridge flagged, the module verdict coincides with generic
    independence.  With no bridge, generic independence still implies module
    independence (one direction holds unconditionally); generic dependence
    leaves the module question open and the verdict abstains.
    """
    report = Report("module independence")
    with Stopwatch(report):
        if flags.fraction_field and flags.reflection:
            raise HypothesisError("flag exactly one bridge, not both")
        generic = generic_independence(Fs, seed=seed)
        report.data["generic"] = generic.data.get("verdict")
        report.data["rank"] = generic.data.get("rank")
        if flags.note:
            report.data["hypothesis_note"] = flags.note
        independent = generic.ok
        if flags.fraction_field or flags.reflection:
            bridge = ("invariant field is the fraction field of the invariant ring"
                      if flags.fraction_field else
                      "group is generated by pseudo-reflections")
            report.data["bridge"] = bridge
            report.data["verdict"] = "independent" if independent else "dependent"
            report.add("module_independent", independent,
                       f"generic verdict transfers through the bridge: {bridge}")
        elif independent:
            report.data["bridge"] = None
            report.data["verdict"] = "independent"
            report.add("module_independent", True,
                       "generic independence implies independence over the "
                       "invariant ring unconditionally")
        else:
            report.data["bridge"] = None
            report.data["verdict"] = "abstain"
            report.add("module_independent", False,
                       "generically dependent; without a bridge hypothesis the "
                       "module-level question stays open (families independent "
                       "over a trivial invariant ring can still be generically "
                       "dependent)")
    return report
