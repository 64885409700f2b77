"""Explicit localized isomorphisms from independent covariants.

Given d verified, generically independent covariants F_1..F_d into a
d-dimensional module W, the map

    (x, w)  ->  (x, Phi(x, w)),      Phi = adj(F)/det(F) applied to w,

is an equivariant isomorphism between X_f x W and X_f x k^d over the open
set X_f where f = det(F) does not vanish, with inverse
(x, a) -> (x, sum_i a_i F_i(x)).  The coordinates Phi_i are invariant
rational functions and generate the invariant field of X x W over that of X.
F may be rational: written as diag(D)^-1 N with N polynomial, it gives
Phi = adj(N) diag(D)/det(N).

The frame F is the certificate: once phi * F = I is checked over k(X)_f
(F * phi = I follows, both being square over a domain), the generators
Phi_i are invariant exactly when the d frame columns are equivariant
(F(gx) = g_W F(x) gives phi(gx) = phi(x) g_W^{-1}, and conversely), so the
equivariance ledger decides invariance.

This module builds the map, verifies it, and runs the converse
constructions: recovering covariants from a matrix of invariant generators,
and extracting covariants from the linear component of an invariant
polynomial map.

Internally every identity is checked on cleared data: each rational matrix
is written as a polynomial matrix over one denominator per matrix, as Phi
lives over the one localization k[X]_f, so no gcd computation happens inside
the hot verification loops.
"""

from __future__ import annotations

import operator
from functools import cached_property, reduce

from .action import GroupAction, det_w_inverse_character, vector_names
from .covariant import (
    Covariant,
    DependentCovariantsError,
    RelativeInvariant,
    _first_failure,
    cleared_rows,
    covariant_matrix,
    ensure_equivariant,
    frame_invariant,
    require_certified,
    verify_equivariance,
)
from .exactalg import (
    DimensionError,
    ExactAlgError,
    ExactDivisionError,
    Matrix,
    Poly,
    RatFn,
    coeff_div,
    common_denominator,
    qmat_det,
    unit_keys,
)
from .report import Report, Stopwatch


class IsomorphismError(ExactAlgError):
    pass


def _taken_names(action: GroupAction) -> set[str]:
    """The x, w and g variable names, which output coordinates must avoid."""
    return set(action.x_vars) | set(action.w_vars) | set(action.g_vars)


def _pick_out_vars(action: GroupAction, d: int) -> tuple[str, ...]:
    for prefix in ("a", "t", "u", "aa"):
        names = vector_names(prefix, d)
        if not (set(names) & _taken_names(action)):
            return names
    raise IsomorphismError("could not pick fresh output coordinate names")


def _ratfn_quotient(num: Poly, den: Poly) -> Poly | RatFn:
    """num/den, preferring the exact polynomial quotient when it exists."""
    try:
        return num.exact_div(den)
    except ExactDivisionError:
        return RatFn(num, den)


def _cleared_rows(mat: Matrix) -> tuple[list[list[Poly]], Poly]:
    """Write the matrix over one denominator: mat equals nums / den."""
    flat, den = common_denominator([e for row in mat.entries for e in row])
    n = mat.cols
    return [flat[i:i + n] for i in range(0, len(flat), n)], den


def _dot(row: list[Poly], vec: list[Poly]) -> Poly:
    acc = None
    for a, b in zip(row, vec):
        term = a * b
        acc = term if acc is None else acc + term
    return acc


class NoNameMap:
    """The pair of mutually inverse equivariant maps over X_f.

    ``phi`` is the d x d matrix of invariant rational functions, stored as
    adj(N) diag(D) / det(N) over the one shared denominator det(N), where
    F = diag(D)^-1 N has each row cleared of its denominator (for a
    polynomial frame, adj(F)/f); ``phi_inv`` is the covariant matrix F, so
    that phi * phi_inv is the identity over the localization at f.
    ``phi_rows`` and ``frame_rows`` hold the two matrices written over one
    denominator per matrix, as (numerator rows, denominator).  They are
    computed once per map, so ``phi`` and ``phi_inv`` must not be
    reassigned.
    """

    def __init__(self, action: GroupAction, invariant: RelativeInvariant, phi: Matrix,
                 phi_inv: Matrix, covariants: list[Covariant] | None = None,
                 report: Report | None = None):
        self.action = action
        self.invariant = invariant
        self.phi = phi
        self.phi_inv = phi_inv
        self.covariants = [] if covariants is None else covariants
        # the verify_isomorphism report that accepted the map at build time
        self.report = report

    @property
    def f(self):
        return self.invariant.f

    @property
    def dim(self) -> int:
        return self.phi.rows

    @cached_property
    def phi_rows(self) -> tuple[list[list[Poly]], Poly]:
        return _cleared_rows(self.phi)

    @cached_property
    def frame_rows(self) -> tuple[list[list[Poly]], Poly]:
        return _cleared_rows(self.phi_inv)

    def generators(self) -> list[RatFn]:
        """The invariant generators Phi_i = sum_j phi_ij w_j in the
        (x, w)-ring, all over phi's one denominator."""
        action = self.action
        ring = action.x_vars + action.w_vars
        ws = [Poly.var(v, ring, action.field) for v in action.w_vars]
        nums, den = self.phi_rows
        return [RatFn(_dot([e.embed(ring) for e in row], ws), den.embed(ring),
                      reduce=False) for row in nums]


def _monomial_links(action: GroupAction) -> list[list[tuple]] | None:
    """Per W basis line m, the (generator s, line k, s_W[m][k]/det(s_W))
    of each distinct generator, whose W-matrix has its one nonzero of row
    m in column k; None unless the group is finite and every W-generator
    is monomial (one nonzero per row, so per column too)."""
    if not action.is_finite:
        return None
    links: list[list[tuple]] = [[] for _ in range(action.w_dim)]
    for s in action.check_elements():
        w = action.w_mats[s]
        if any(sum(1 for e in row if e) != 1 for row in w):
            return None
        det = qmat_det(w, action.field)
        for m, row in enumerate(w):
            k = next(k for k, e in enumerate(row) if e)
            links[m].append((s, k, coeff_div(row[k], det, action.field)))
    return links


def _frame_adjugate(action: GroupAction, N: Matrix, D: list[Poly]) -> Matrix:
    """adj(N) for the frame F = diag(D)^-1 N of certified covariants.

    For a polynomial frame (every D_r = 1, so F = N) on a finite group
    whose W-generators are monomial, the adjugate follows from
    equivariance: F(sx) = s_W F(x) gives adj F(sx) s_W = det(s_W) adj F(x),
    so where s_W[m][k] != 0, column k of adj F is s_W[m][k]/det(s_W) times
    column m taken at s x.  One cofactor column is formed per orbit of the
    W basis lines, and a breadth-first walk over the generators moves it to
    the rest of its orbit, each entry by one relabel substitution.  Any
    other frame or group takes the cofactor adjugate.  Either way the map
    is accepted only once phi F = I is checked.
    """
    links = _monomial_links(action) if all(den == 1 for den in D) else None
    if links is None:
        return N.adjugate()
    cols: list[list[Poly] | None] = [None] * N.cols
    for start in range(N.cols):
        if cols[start] is not None:
            continue
        cols[start] = N.cofactor_column(start)
        walk = [start]
        for m in walk:
            for s, k, scale in links[m]:
                if cols[k] is None:
                    moved = [action.act_cleared(e, "x", e.vars, s)[0] for e in cols[m]]
                    cols[k] = moved if scale == 1 else [e * scale for e in moved]
                    walk.append(k)
    return Matrix([list(row) for row in zip(*cols)])


def build_isomorphism(Fs: list[Covariant]) -> NoNameMap:
    """Construct the localized isomorphism from d independent covariants.

    phi = adj(N) diag(D) / det(N) for the frame F = diag(D)^-1 N.  Its
    adjugate is :func:`_frame_adjugate`: on a finite group with monomial
    W-generators and a polynomial frame, one cofactor column per orbit of
    the W basis lines, moved by relabel substitutions; else the cofactor
    adjugate.  Its column 0 is N's cofactor column 0 either way, so det N
    is the Laplace expansion along row 0 of N, d products.  The map is
    accepted only if :func:`verify_isomorphism` passes every structural
    check (two-sided inverse over the localization, invariance of every
    generator, both substitution round trips, ...); that report is
    returned with the map as ``m.report``.  The frame
    columns are the given, already certified covariants, so invariance
    needs no new substitution.
    """
    if not Fs:
        raise DimensionError("empty covariant list")
    action = Fs[0].action
    require_certified(Fs, "build_isomorphism")
    frame = covariant_matrix(Fs)
    N, D = cleared_rows(Fs)
    adj = _frame_adjugate(action, N, D)
    # Laplace along row 0 against the adjugate's column 0
    det = _dot(N.entries[0], [row[0] for row in adj.entries])
    if det.is_zero():
        raise DependentCovariantsError(
            "covariants are generically dependent (determinant vanishes)")
    # F = diag(D)^-1 N, so phi = F^-1 = adj(N) diag(D) / det N
    phi = Matrix([[RatFn(e * D[j], det, reduce=False) for j, e in enumerate(row)]
                  for row in adj.entries])
    m = NoNameMap(action, frame_invariant(action, frame, D, det), phi, frame, list(Fs))
    m.report = verify_isomorphism(m)
    if not m.report.ok:
        raise IsomorphismError("failed checks: " + ", ".join(
            c.name for c in m.report.failed_checks()))
    return m


# ---------------------------------------------------------------------------
# structural checks (all on cleared matrices)
# ---------------------------------------------------------------------------


def _rows_off_identity(left, right) -> list[int]:
    """The rows i where left * right differs from the identity, for two
    matrices given as (nums, den): Ln * Rn != (ld * rd) * e_i."""
    ln, ld = left
    rn, rd = right
    scale = ld * rd
    zero = scale.ring_zero()
    cols = list(zip(*rn))
    return [i for i, row in enumerate(ln)
            if any(_dot(row, col) != (scale if i == j else zero)
                   for j, col in enumerate(cols))]


def _is_frame_determinant(m: NoNameMap, phi_is_inverse: bool) -> bool:
    """f == det(phi_inv) as one cleared identity: with the frame fn/fd and
    f = num/den, num * fd^d == det(fn) * den.  When phi * phi_inv = I holds,
    that is pn fn = pd fd I for phi = pn/pd, every entry has
    pn[i][j] det(fn) = pd fd adj(fn)[i][j]; so a nonzero pn[i][j] (one
    exists, as pd fd != 0) and its one signed (d-1)-minor decide it."""
    fn, fd = m.frame_rows
    (num,), den = common_denominator([m.f])
    if not phi_is_inverse:
        return _products_equal([num, fd ** m.dim], [Matrix(fn).det(), den])
    pn, pd = m.phi_rows
    i, j = next((i, j) for i, row in enumerate(pn) for j, e in enumerate(row) if e)
    return _products_equal([num, fd ** m.dim, pn[i][j]],
                           [pd, fd, Matrix(fn).cofactor(j, i), den])


def _products_equal(left: list[Poly], right: list[Poly]) -> bool:
    """Whether the factors ``left`` and ``right`` have one product.  k[X] is
    a domain, so a nonzero factor a on the left and b on the right with
    a = c b for a scalar c are struck, c staying on the left, before
    anything is multiplied: for a polynomial frame, f and phi's denominator
    are both det N up to a scalar, and their products with the
    (d-1)-minors would be the largest."""
    pool = [(b.monic(), b) for b in right]
    factors = []
    for a in left:
        monic = a.monic()
        hit = next((k for k, (mb, _) in enumerate(pool) if a and mb == monic), None)
        factors.append(a if hit is None else
                       coeff_div(a.lc(), pool.pop(hit)[1].lc(), a.field))
    one = left[0].ring_one()
    return (reduce(operator.mul, factors, one)
            == reduce(operator.mul, (b for _, b in pool), one))


def _is_frame_of(Fs: list[Covariant], frame: Matrix) -> bool:
    """Whether the covariants are, in order, the columns of ``frame``."""
    return len(Fs) == frame.cols and all(
        F.coords[i] == frame.entries[i][j]
        for j, F in enumerate(Fs) for i in range(frame.rows))


def _frame_columns(m: NoNameMap) -> list[Covariant]:
    """The columns of phi_inv as covariants: the map's own (with their
    ledger status) when they are those columns, else fresh unchecked ones."""
    if _is_frame_of(m.covariants, m.phi_inv):
        return m.covariants
    return [Covariant(m.action, [row[j] for row in m.phi_inv.entries])
            for j in range(m.phi_inv.cols)]


def _over_x(entries: list[list[Poly | RatFn]], x_vars: tuple[str, ...]) -> bool:
    """Whether every entry uses the X-variables alone.  An entry over a
    subset of them cannot use another variable, so only an entry over a
    larger ring has its terms scanned."""
    x_vars = set(x_vars)
    return all(set(e.vars) <= x_vars or not (e.support_vars() - x_vars)
               for row in entries for e in row)


def verify_isomorphism(m: NoNameMap) -> Report:
    """Re-derive and check every structural property of the map, each as a
    named check.

    ``generators_invariant`` is decided by the ledger on the d frame
    columns: certified columns stand, unchecked ones are verified once each.
    It proves invariance together with ``phi_linear_in_w`` and the two
    inverse identities, and the report is ``ok`` only when all of them pass.
    The same ledger, with ``f_equals_det_of_frame`` and
    ``weight_is_det_w_inverse``, decides ``f_relative_invariant``; only when
    one of those fails is the weight identity substituted.
    """
    report = Report("no-name isomorphism verification")
    with Stopwatch(report):
        action = m.action
        d = m.dim
        if not (m.phi.cols == d and m.phi_inv.rows == m.phi_inv.cols == d):
            raise DimensionError(f"phi and phi_inv must both be {d} x {d}")

        linear = _over_x(m.phi.entries, action.x_vars)
        report.add("phi_linear_in_w", linear,
                   "phi entries depend only on the X-variables")

        report.add("f_nonzero", not m.f.is_zero(), "denominator is not zero")
        # Round trip (1) returns a_i exactly when row i of phi * F is e_i, the
        # a being fresh variables; round trip (2) reads F * phi the same way.
        # Both are d x d over the domain k[X], so phi * F = I gives F * phi = I,
        # and F * phi is multiplied out only to name its failing rows.
        phi_off = _rows_off_identity(m.phi_rows, m.frame_rows)
        # f made as det(phi_inv) by frame_invariant needs no second det
        is_det = m.invariant.frame is m.phi_inv or _is_frame_determinant(m, not phi_off)
        report.add("f_equals_det_of_frame", is_det,
                   "localization denominator equals the frame determinant")

        is_weight = m.invariant.weight == det_w_inverse_character(action)
        report.add("weight_is_det_w_inverse", is_weight,
                   "weight of f matches the inverse W-determinant character")
        # the frame ledger, reported as generators_invariant below
        frame = ensure_equivariant(_frame_columns(m)).checks if linear else []
        bad = next((j for j, c in enumerate(frame) if not c.passed), None)
        # Certified columns give det F(gx) = det(g_W) det F(x), so f = det F
        # has weight det(g_W)^-1 with no substitution; if a premise fails,
        # the weight identity is checked directly.
        certified = linear and bad is None and is_det and is_weight
        report.add("f_relative_invariant", certified or m.invariant.verify(),
                   "f transforms by its weight under the whole group")

        frame_off = phi_off and _rows_off_identity(m.frame_rows, m.phi_rows)
        report.add("phi_times_frame_is_identity", not phi_off)
        report.add("frame_times_phi_is_identity", not frame_off)
        if phi_off:
            for where, rows in (("phi fails at output", phi_off),
                                ("the frame fails at coordinate", frame_off)):
                for i in rows:
                    report.add("round_trips", False, f"round trip through {where} {i + 1}")
        else:
            report.add("round_trips", True,
                       "both substitution round trips return the inputs exactly")

        if linear:
            report.add("generators_invariant", bad is None,
                       "every generator is fixed by the group action" if bad is None
                       else f"frame column {bad + 1} is not equivariant, so a generator "
                       "moves", None if bad is None else frame[bad].witness)
        else:
            report.add("generators_invariant", False,
                       "phi entries must depend only on the X-variables")

        report.data["f"] = str(m.f)
        report.data["dim"] = d
    return report


# ---------------------------------------------------------------------------
# converse constructions
# ---------------------------------------------------------------------------


def covariants_from_generators(phi: Matrix, action: GroupAction) -> list[Covariant]:
    """Recover d generically independent covariants from a d x d matrix of
    invariant-generator coefficients over the function field of X.

    Row i of ``phi`` holds the coefficients of the generator
    sum_j phi_ij w_j; the matrix must be invertible over k(X).  The returned
    covariants are the columns of the inverse matrix, each verified
    equivariant; a column is equivariant exactly when the rows are
    invariant, so that check also decides the rows.
    """
    if phi.rows != phi.cols:
        raise DimensionError("generator matrix must be square")
    if phi.rows != action.w_dim:
        raise DimensionError("generator matrix size must match dim W")
    nums, den = _cleared_rows(phi)
    P = Matrix(nums)
    detP = P.det()
    if detP.is_zero():
        raise IsomorphismError("generator matrix is singular over k(X)")
    # phi = P / den, so phi^{-1} = adj(P) * den / det(P)
    return _inverse_columns(P, den, detP, action,
                            "the generator rows are not invariant: recovered")


def _inverse_columns(P: Matrix, num: Poly, den: Poly, action: GroupAction,
                     what: str) -> list[Covariant]:
    """The columns of adj(P) * num / den as covariants, each verified
    equivariant."""
    adj = P.adjugate()
    out = []
    for j in range(P.cols):
        F = Covariant(action, [_ratfn_quotient(adj.entries[i][j] * num, den)
                               for i in range(P.rows)])
        if not verify_equivariance(F).ok:
            raise IsomorphismError(f"{what} column {j + 1} is not equivariant "
                                   f"(witness: {F.refutation})")
        out.append(F)
    return out


def linearize_isomorphism(coords: list[Poly], action: GroupAction,
                          unit_denominator: Poly | None = None
                          ) -> tuple[Matrix, list[Covariant]]:
    """Extract covariants from an invariant polynomial map X x W -> k^d.

    Each coordinate must be an invariant polynomial in the (x, w)-ring; its
    degree-one-in-w component sum_j L_ij w_j is collected into the matrix L,
    whose determinant must be a unit (a nonzero constant, or, when
    ``unit_denominator`` f is given, an exact divisor of a power of f).  The
    covariants are the columns of L^{-1}.
    """
    d = action.w_dim
    if len(coords) != d:
        raise DimensionError(f"need {d} coordinates, got {len(coords)}")
    ring = action.x_vars + action.w_vars
    field = action.field
    fixed = [c.embed(ring) if c.vars != ring else c for c in coords]

    bad = _map_invariance_failure(fixed, action, ring)
    if bad is not None:
        raise IsomorphismError(
            f"coordinate {bad[0] + 1} is not invariant (witness: {bad[1]})")

    # L_ij collects the terms of coordinate i that are w_j times a monomial
    # in x, whose packed key is the term's key less the key of w_j
    units = unit_keys(len(ring))
    w_positions = [ring.index(v) for v in action.w_vars]
    L_entries = []
    for p in fixed:
        parts: list[dict] = [{} for _ in range(d)]
        for key, coeff in p.terms.items():
            exps = p.exponents(key)
            degrees = [exps[pos] for pos in w_positions]
            if sum(degrees) == 1:
                j = degrees.index(1)
                parts[j][key - units[w_positions[j]]] = coeff
        L_entries.append([Poly.packed(ring, t, field).embed(action.x_vars) for t in parts])
    L = Matrix(L_entries)
    det = L.det()
    inv_scale = _unit_inverse(det, unit_denominator, action)
    if inv_scale is None:
        raise IsomorphismError(
            f"linear component determinant is not a unit: {det}")
    return L, _inverse_columns(L, inv_scale.num, inv_scale.den, action, "extracted")


def _map_invariance_failure(coords: list[Poly], action: GroupAction, ring):
    """The first (coordinate, element label) with p(gx, g_W w) != p(x, w)
    over the check elements: the covariant identity of the map into the
    trivial module, whose M(g) is I."""
    identity = [[int(i == j) for j in range(len(coords))] for i in range(len(coords))]
    failure = _first_failure(action, coords, "xw", tuple(ring) + action.g_vars,
                             lambda e, ring: (identity, None, 0))
    return None if failure is None else (failure[1], action.element_label(failure[0]))


def _unit_inverse(det: Poly, f: Poly | None, action: GroupAction) -> RatFn | None:
    """1/det as a RatFn when det is a unit in k[X] (constant) or in the
    localization k[X]_f (an exact divisor of some f^k); None otherwise."""
    if det.is_zero():
        return None
    one = Poly.one(action.x_vars, action.field)
    if det.is_constant():
        return RatFn(one, reduce=False) * coeff_div(1, det.constant_value(), action.field)
    if f is None or f.is_zero() or f.is_constant():
        return None
    f = f if f.vars == det.vars else f.embed(det.vars)
    power = one
    for _ in range(det.total_degree() + 1):
        power = power * f
        if det.divides(power):
            return RatFn(power.exact_div(det), power, reduce=False)
    return None
