"""Covariants: W-valued polynomial (or rational) maps on the X-space,
equivariance verification, the covariant coordinate matrix, determinant
relative invariants with their weights, and generic-independence testing
over the function field.
"""

from __future__ import annotations

import itertools
import math
import random

from .action import Character, GroupAction, det_w_inverse_character
from .exactalg import (
    DimensionError,
    ExactAlgError,
    Matrix,
    Poly,
    RatFn,
    coeff_div,
    common_denominator,
    int_form,
    int_rank_det,
    lift_coeff,
)
from .report import Report, Stopwatch


class CovariantError(ExactAlgError):
    pass


class UnverifiedCovariantError(CovariantError):
    """An operation required covariants whose equivariance is verified."""


class DependentCovariantsError(CovariantError):
    """The covariant family is generically dependent where independence is
    required."""


UNCHECKED = "unchecked"
EQUIVARIANT = "equivariant"
REFUTED = "refuted"


class Covariant:
    """A W-valued map on the X-space stored as a coordinate vector.

    ``coords[i]`` is the coefficient of the i-th W-basis vector, a polynomial
    (integral covariant) or rational function (rational covariant) in the
    X-variables.  ``status`` is one of ``unchecked`` / ``equivariant`` /
    ``refuted``.  It is promoted by :func:`verify_equivariance`, or set to
    ``equivariant`` where an exact argument certifies the map by its
    construction (the template families, products of certified covariants
    and invariants).

    A covariant made by :meth:`from_program` is kept as entry ``key`` of a
    ``record`` shared by its family, and its coordinates are formed on the
    first read of ``coords``.  Until then ``source`` is ``(record, key)``;
    the witness scan evaluates such a family through the record.
    """

    def __init__(self, action: GroupAction, coords, status: str = UNCHECKED,
                 refutation: dict | None = None):
        self.action = action
        self.source = None
        x_vars = tuple(action.x_vars)
        fixed = []
        for c in coords:
            if not isinstance(c, (Poly, RatFn)):
                raise CovariantError("coordinates must be Poly or RatFn")
            # a coordinate over a subset of the X-variables needs no scan of
            # its terms
            if tuple(c.vars) != x_vars:
                if not set(c.vars) <= set(x_vars) and set(c.support_vars()) - set(x_vars):
                    raise DimensionError("coordinate uses variables outside the X-space")
                c = c.embed(x_vars)
            fixed.append(c)
        if len(fixed) != action.w_dim:
            raise DimensionError(
                f"covariant has {len(fixed)} coordinates, W has dimension {action.w_dim}")
        self._coords = fixed
        self.status = status
        self.refutation = refutation

    @classmethod
    def from_program(cls, action: GroupAction, record, key,
                     status: str = UNCHECKED) -> "Covariant":
        """The covariant ``record.expand(key)``, expanded on first read.

        The record promises dim W coordinates over the X-variables, and
        ``record.point_values(keys)`` for the integer values of its entries
        at a point (see :func:`_point_values`)."""
        F = cls.__new__(cls)
        F.action, F.source, F._coords = action, (record, key), None
        F.status, F.refutation = status, None
        return F

    @property
    def coords(self) -> list:
        if self._coords is None:
            record, key = self.source
            self._coords = record.expand(key)
        return self._coords

    @property
    def is_rational(self) -> bool:
        return any(isinstance(c, RatFn) and not c.is_poly() for c in self.coords)

    def poly_coords(self) -> list[Poly]:
        out = []
        for c in self.coords:
            out.append(c.as_poly() if isinstance(c, RatFn) else c)
        return out

    def same_coords(self, other: "Covariant") -> bool:
        return all(a == b for a, b in zip(self.coords, other.coords))

    def evaluate(self, point) -> list:
        return [c.eval(point) for c in self.coords]

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"Covariant({self})"


# ---------------------------------------------------------------------------
# witness point search
# ---------------------------------------------------------------------------

SPIRAL_MAX_VARS = 6
SPIRAL_MAX_SHELL = 3


def candidate_points(n_vars: int, rng: random.Random):
    """Candidate integer points.  In low dimension the shells max |c| <= 3
    come first: their points with strictly increasing coordinates, shell by
    shell in lexicographic order, then every other point of the shells in
    the same order.  Then seeded random draws of growing range.

    Frames of Vandermonde type, such as the S_n power maps, vanish wherever
    two coordinates agree, so the increasing points hold their witnesses;
    every point of a shell still comes once.  Every consumer confirms
    candidates exactly, so the stream only affects which witness is found,
    not correctness."""
    if n_vars <= SPIRAL_MAX_VARS:
        shells = range(SPIRAL_MAX_SHELL + 1)
        for shell in shells:
            for point in itertools.combinations(range(-shell, shell + 1), n_vars):
                if _shell(point) == shell:
                    yield point
        for shell in shells:
            for point in itertools.product(range(-shell, shell + 1), repeat=n_vars):
                if _shell(point) == shell and not _increasing(point):
                    yield point
    for bound in (9, 99, 10**6):
        for _ in range(80):
            yield tuple(rng.randint(-bound, bound) for _ in range(n_vars))


def _shell(point) -> int:
    return max((abs(c) for c in point), default=0)


def _increasing(point) -> bool:
    return all(a < b for a, b in zip(point, point[1:]))


def _point_dict(vars, point, field):
    return {v: lift_coeff(int(c), field) for v, c in zip(vars, point)}


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------


def _product(*factors):
    """The product of the factors, None standing for 1: a finite element
    clears no det power, and a polynomial has no denominator."""
    out = None
    for x in factors:
        if x is not None:
            out = x if out is None else out * x
    return out


def _first_failure(action: GroupAction, coords, side: str, ring: tuple[str, ...],
                   target) -> tuple | None:
    """The first (element, coordinate, difference, nonzero) where F(gx) =
    M(g) F(x) fails on a check element (the elements where it holds form a
    subgroup), or None.  F is ``coords``, moved on ``side``, and
    ``target(e, ring)`` gives M = rows / (den det^h) as (rows, den, h): g_W
    for a covariant, theta^-1 for a relative invariant of weight theta, I
    for invariants.  With F = nums/D, N_c(gx) = N'/det^a and D(gx) =
    D'/det^b, coordinate c is N' den det^(b+h) D = (rows nums)_c D' det^a,
    divided by det^min(b+h, a), so det(g) is formed only when the powers
    differ.  Where ``difference`` and each of ``nonzero`` (None standing
    for 1) are nonzero, the two sides of the identity differ."""
    nums, den = common_denominator(coords)
    nums_emb = [p.embed(ring) for p in nums]
    den_emb = den.embed(ring) if den != 1 else None
    for e in action.check_elements():
        den_moved, b = (None, 0) if den_emb is None else action.act_cleared(den, side, ring, e)
        rows, m_den, h = target(e, ring)
        for c, p in enumerate(nums):
            num_moved, a = action.act_cleared(p, side, ring, e)
            rhs = Poly.zero(ring, action.field)
            for entry, q in zip(rows[c], nums_emb):
                if entry:
                    rhs = rhs + (q if entry == 1 else q * entry)
            low = min(b + h, a)
            lhs = _product(num_moved, m_den, action.det_to(b + h - low, ring), den_emb)
            rhs = _product(rhs, den_moved, action.det_to(a - low, ring))
            if lhs != rhs:
                return e, c, lhs - rhs, (den_emb, den_moved, m_den, action.det_to(1, ring))
    return None


def _equivariance_witness(F: Covariant) -> dict | None:
    """None if F(gx) = g_W F(x) holds for every element, else a witness: the
    element, the coordinate, and the first candidate point of the check's
    ring (x, and g for the generic element) where the cleared difference and
    each of its ``nonzero`` factors are nonzero, so that the sides differ."""
    action = F.action
    ring = action.x_vars + action.g_vars
    failure = _first_failure(action, F.coords, "x", ring, action.w_cleared)
    if failure is None:
        return None
    e, c, diff, nonzero = failure
    witness = {"element": e, "coordinate": c, "point": None}
    for point in candidate_points(len(ring), random.Random(17)):
        vals = _point_dict(ring, point, action.field)
        if all(p is None or p.eval(vals) for p in nonzero) and diff.eval(vals):
            witness["point"] = str(dict(zip(ring, point)))
            break
    return witness


def verify_equivariance(F: Covariant) -> Report:
    """Exact identity check of F(gx) = g_W F(x); promotes F.status."""
    report = Report("equivariance")
    with Stopwatch(report):
        witness = _equivariance_witness(F)
        if witness is None:
            F.status = EQUIVARIANT
            report.add("equivariant", True, f"identity holds {F.action.checked_on()}")
        else:
            F.status = REFUTED
            F.refutation = witness
            report.add("equivariant", False, "equivariance refuted", witness)
        report.data["status"] = F.status
    return report


def verified(action: GroupAction, coords, expect: bool = True) -> Covariant:
    """Build a covariant and verify it; raise if refuted and expect=True."""
    F = Covariant(action, coords)
    rep = verify_equivariance(F)
    if expect and not rep.ok:
        raise CovariantError(f"covariant is not equivariant: {rep.failed_checks()[0].witness}")
    return F


def ensure_equivariant(Fs: list[Covariant]) -> Report:
    """One check per covariant, deciding each status at most once: only
    ``unchecked`` covariants are verified; a status certified earlier (e.g.
    while a family was built) is recorded as it stands."""
    report = Report("equivariance of the covariant family")
    for i, F in enumerate(Fs):
        name = f"covariant_{i + 1}_equivariant"
        if F.status == EQUIVARIANT:
            report.add(name, True, "certified during family construction")
        elif F.status == REFUTED:
            report.add(name, False, "equivariance refuted", F.refutation)
        else:
            sub = verify_equivariance(F)
            check = sub.checks[0]
            report.add(name, check.passed, check.detail, check.witness)
            report.seconds += sub.seconds
    return report


def require_certified(Fs: list[Covariant], caller: str) -> None:
    """Refuse, naming ``caller``, unless every covariant is certified
    equivariant."""
    if any(F.status != EQUIVARIANT for F in Fs):
        raise UnverifiedCovariantError(f"{caller} requires verified covariants")


# ---------------------------------------------------------------------------
# coordinate matrices and the determinant relative invariant
# ---------------------------------------------------------------------------


def coordinate_matrix(Fs: list[Covariant]) -> Matrix:
    """d x e matrix whose column j holds the coordinates of Fs[j]."""
    if not Fs:
        raise DimensionError("empty covariant list")
    action = Fs[0].action
    for F in Fs:
        if F.action is not action:
            raise CovariantError("covariants do not share one action")
    return Matrix([[F.coords[i] for F in Fs] for i in range(action.w_dim)])


def cleared_rows(Fs: list[Covariant]) -> tuple[Matrix, list[Poly]]:
    """The coordinate matrix written as diag(D)^-1 N: row r is N_r / D_r,
    with D_r the common denominator of that row.  N is polynomial, so every
    elimination on the frame (rank, kernel, minors, det, adjugate) runs
    fraction-free on it; rank and kernel are those of the frame."""
    rows = [common_denominator(row) for row in coordinate_matrix(Fs).entries]
    return Matrix([nums for nums, _ in rows]), [den for _, den in rows]


def covariant_matrix(Fs: list[Covariant]) -> Matrix:
    """The square coordinate matrix (count must equal dim W)."""
    action = Fs[0].action
    if len(Fs) != action.w_dim:
        raise DimensionError(
            f"need exactly {action.w_dim} covariants, got {len(Fs)}")
    return coordinate_matrix(Fs)


class RelativeInvariant:
    """A polynomial f with g.f = weight(g) f, exactly."""

    def __init__(self, f: Poly | RatFn, weight: Character, action: GroupAction = None):
        self.f = f
        self.weight = weight
        self.action = action
        # Set where f is made as the determinant of certified columns, so
        # later checks reuse them: the frame matrix F and the verdict of the
        # weight identity, which those columns imply.  The constructor does
        # not take them, so an invariant built from the same f, weight and
        # action re-derives them.
        self.frame = None
        self.verdict = None

    @property
    def is_zero(self) -> bool:
        return self.f.is_zero()

    def verify(self) -> bool:
        if self.verdict is not None:
            return self.verdict
        return _is_relative_invariant(self.action, self.f, self.weight)


def _is_relative_invariant(action: GroupAction, f: Poly | RatFn,
                           weight: Character) -> bool:
    """g.f = theta(g) f for every g exactly when f(gx) = theta(g)^-1 f(x)
    for every g (put gx for x): the covariant identity of f into the line
    of weight theta^-1, decided on each check element.  A nonzero f
    determines its weight, which is a character, so a finite weight table
    that is not one is refused without a substitution."""
    if f.is_zero():
        return True
    if weight.table is not None and not weight.check_multiplicative():
        return False
    ring = tuple(dict.fromkeys(f.vars + action.g_vars))
    return _first_failure(action, [f], "x", ring, weight.inverse_cleared) is None


def weight_of(action: GroupAction, f: Poly) -> Character | None:
    """The character theta with g.f = theta(g) f, or None if f is not a
    relative invariant."""
    if f.is_zero():
        return Character.trivial(action)
    if action.is_finite:
        # theta(g) = f / f(gx) on each generator.  The g with g.f in k^x f
        # form a subgroup and theta is a character on it, so the generators
        # decide the whole group.
        exps, coeff = f.leading()
        values = []
        for g in action.check_elements():
            moved, _ = action.act_cleared(f, "x", f.vars, g)
            if moved.terms.keys() != f.terms.keys():
                return None
            theta = coeff_div(coeff, moved.terms[exps], action.field)
            if moved * theta != f:
                return None
            values.append(theta)
        return Character.from_generators(action, values)
    # g.f = theta(g) f with theta(g) = f(x) / f(gx) = f det^k / num
    num, k = action.act_cleared(f, "x")
    ring = num.vars
    theta = RatFn(_product(f.embed(ring), action.det_to(k, ring)), num)
    if set(theta.support_vars()) - set(action.g_vars):
        return None
    return Character(action, ratfn=theta.embed(action.g_vars))


def det_relative_invariant(Fs: list[Covariant]) -> RelativeInvariant:
    """Determinant of the covariant matrix with its weight g -> det(g_W)^{-1}.

    Requires every covariant verified equivariant.  A zero determinant is a
    legal outcome (the family is generically dependent); the caller can test
    ``result.is_zero``.
    """
    require_certified(Fs, "det_relative_invariant")
    mat = covariant_matrix(Fs)
    N, D = cleared_rows(Fs)
    return frame_invariant(Fs[0].action, mat, D, N.det())


def frame_invariant(action: GroupAction, mat: Matrix, D: list[Poly],
                    det: Poly) -> RelativeInvariant:
    """f = det(mat) with its weight g -> det(g_W)^{-1}, for the square frame
    ``mat`` of certified covariants written as diag(D)^-1 N with
    ``det`` = det N."""
    # F = diag(D)^-1 N, so f = det N / prod D, in canonical form
    f = RatFn(det, _product(*D))
    f = f.num if f.is_poly() else f
    # every column is certified, F(gx) = g_W F(x), so
    # det F(gx) = det(g_W) det F(x): f has weight det(g_W)^{-1} with no
    # further substitution
    ri = RelativeInvariant(f, det_w_inverse_character(action), action)
    ri.frame, ri.verdict = mat, True
    return ri


# ---------------------------------------------------------------------------
# generic independence
# ---------------------------------------------------------------------------


def _symbolic_rank(Fs: list[Covariant]) -> int:
    return cleared_rows(Fs)[0].rank()


# witness candidates tried before any symbolic elimination
WITNESS_FIRST_CANDIDATES = 32


def generic_independence(Fs: list[Covariant], seed: int = 0) -> Report:
    """Rank of the coordinate matrix over the function field.

    The rank at a rational point is at most the generic rank, which is at
    most min(e, dim W); a point where the e covariants take that full rank
    decides the generic rank exactly.  So the first
    ``WITNESS_FIRST_CANDIDATES`` points of :func:`candidate_points` are
    tried first, and the symbolic rank is computed only when none of them
    has full rank.  In up to ``SPIRAL_MAX_VARS`` variables those lead with
    the points of distinct coordinates, which Vandermonde-type frames such
    as the S_n power maps need to be nonzero.  For an independent family
    the reported witness is the first full-rank candidate of the stream.
    """
    report = Report("generic independence")
    with Stopwatch(report):
        action = Fs[0].action
        e = len(Fs)
        d = action.w_dim
        report.data["family_size"] = e
        report.data["w_dim"] = d
        if any(F.action is not action for F in Fs):
            raise CovariantError("covariants do not share one action")
        points = candidate_points(action.x_dim, random.Random(seed))
        witness = _independence_witness(
            Fs, itertools.islice(points, WITNESS_FIRST_CANDIDATES))
        rank = min(e, d) if witness is not None else _symbolic_rank(Fs)
        report.data["rank"] = rank
        if e > d:
            report.data["verdict"] = "dependent"
            report.add("independent", False,
                       f"{e} covariants into a {d}-dimensional module are "
                       f"automatically dependent (rank {rank} < {e})")
            return report
        if rank < e:
            report.data["verdict"] = "dependent"
            report.add("independent", False, f"rank {rank} < family size {e}")
            return report
        if witness is None:
            witness = _independence_witness(Fs, points)
        report.data["verdict"] = "independent"
        if witness is None:
            report.add("independent", True,
                       f"rank {rank} = family size; no rational witness found "
                       "in the search budget")
        else:
            point, minor = witness
            report.data["witness_point"] = {v: str(c) for v, c in point.items()}
            if minor is not None:
                report.data["witness_minor"] = str(minor)
            report.add("independent", True,
                       f"rank {rank} = family size; witness point confirmed exactly")
    return report


class _IntegerColumns:
    """The coordinate matrix compiled once for exact evaluation over ints.

    Column j is written over one denominator, and its numerators and that
    denominator are scaled by one multiplier to integer coefficients
    (:func:`int_form`), so at a point it equals ``nums[j](pt) /
    dens[j](pt)``.  Each polynomial is a tuple of ``(int coeff, ((var index,
    exp), ...))`` terms.  Over GF(p) the coefficients are the
    representatives in [0, p).
    """

    def __init__(self, Fs: list[Covariant]):
        field = Fs[0].action.field
        self.p = None if field is None else field.p
        self.nums, self.dens = [], []
        for F in Fs:
            nums, den = common_denominator(F.coords)
            polys = nums + [den]
            ints = iter(int_form([c for q in polys for c in q.terms.values()], field)[1])
            compiled = [tuple((next(ints), tuple((i, k) for i, k in enumerate(exps) if k))
                              for exps, _ in q.exponent_items()) for q in polys]
            self.nums.append(compiled[:-1])
            self.dens.append(compiled[-1])
        self.max_exp = [0] * len(Fs[0].action.x_vars)
        for terms in self.dens + [t for col in self.nums for t in col]:
            for _, mono in terms:
                for i, k in mono:
                    self.max_exp[i] = max(self.max_exp[i], k)

    def at(self, point):
        """The numerators of each column at the point, and each column's
        denominator value; None where a denominator vanishes.  Over GF(p)
        the values are taken mod p."""
        p = self.p
        powers = []
        for x, top in zip(point, self.max_exp):
            row = [1]
            for _ in range(top):
                row.append(row[-1] * x if p is None else row[-1] * x % p)
            powers.append(row)
        dens = [_eval_int(den, powers) for den in self.dens]
        if p is not None:
            dens = [v % p for v in dens]
        if not all(dens):
            return None
        return [[_eval_int(num, powers) for num in col] for col in self.nums], dens


def _eval_int(terms: tuple, powers: list[list[int]]) -> int:
    total = 0
    for coeff, mono in terms:
        for i, k in mono:
            coeff *= powers[i][k]
        total += coeff
    return total


def _point_values(Fs: list[Covariant]):
    """The family's integer evaluator, chosen from its form: the shared
    record when every covariant is kept as a program of one record, else
    :class:`_IntegerColumns` compiled from the coordinates.  Evaluation at
    a point is a ring map, so both give the same values."""
    record = Fs[0].source[0] if Fs[0].source else None
    if record is not None and all(F.source and F.source[0] is record for F in Fs):
        return record.point_values([F.source[1] for F in Fs])
    return _IntegerColumns(Fs)


def _independence_witness(Fs: list[Covariant], points):
    """The first of ``points`` where the family has full rank min(e, dim W),
    with the e x e minor when e = dim W; None if no point qualifies.

    Points where a column's denominator vanishes are skipped: it is the lcm
    of the entry denominators, so these are exactly the points where an
    entry is undefined.  The rank and the minor come from one integer
    Bareiss elimination of the column numerators N at the point, over Z or
    over GF(p), the minor being det(N) / prod(D_j)."""
    action = Fs[0].action
    values = _point_values(Fs)
    p = None if action.field is None else action.field.p
    full = min(len(Fs), action.w_dim)
    for point in points:
        at = values.at(point)
        if at is None:
            continue
        cols, dens = at
        rank, minor = int_rank_det(list(zip(*cols)), p)
        if rank < full:
            continue
        if minor is not None:
            minor = coeff_div(minor, math.prod(dens), action.field)
        return _point_dict(action.x_vars, point, action.field), minor
    return None
