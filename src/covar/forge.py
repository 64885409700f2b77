"""Producing covariants: group averaging for finite groups, a greedy
degree-bounded search for a full independent family, denominator clearing
for rational covariants, lifting through product projections, and the
built-in example families (matrix words under conjugation, vector
projections, coordinate power maps under permutations).
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, islice

from .action import (
    ActionError,
    FiniteGroupAction,
    GroupAction,
    SymbolicGroupAction,
    TemplateSpec,
)
from .covariant import (
    Covariant,
    EQUIVARIANT,
    WITNESS_FIRST_CANDIDATES,
    _independence_witness,
    candidate_points,
    cleared_rows,
    require_certified,
    verify_equivariance,
)
from .exactalg import (
    MAX_DEGREE,
    DegreeOverflowError,
    DimensionError,
    ExactAlgError,
    Matrix,
    Poly,
    coeff_div,
    common_denominator,
    qmat_identity,
    qmat_mul,
    reduce_terms,
    unit_keys,
    unpack_exponents,
)


class ForgeError(ExactAlgError):
    pass


class ModularObstructionError(ForgeError):
    """The group order is not invertible in the coefficient field."""


class GenerationExhaustedError(ForgeError):
    """The degree bound was reached before a full independent family."""

    def __init__(self, message: str, achieved_rank: int, found: list[Covariant]):
        super().__init__(message)
        self.achieved_rank = achieved_rank
        self.found = found


def _group_order_inverse(G: FiniteGroupAction):
    order = G.order
    if G.field is not None and order % G.field.p == 0:
        raise ModularObstructionError(
            f"group order {order} vanishes in GF({G.field.p})")
    return coeff_div(1, order, G.field)


def _monomial_step(alpha: int, units: list[int]) -> tuple[int, int]:
    """(alpha - e_k, k) for the packed key alpha, with k the last variable
    that occurs in x^alpha."""
    exps = unpack_exponents(alpha, len(units))
    k = max(i for i, e in enumerate(exps) if e)
    return alpha - units[k], k


class _Orbit:
    """Reynolds averaging over one finite group, local to one call.

    ``images`` yields, level by level in degree, the image of each wanted
    monomial x^alpha under every g^{-1}: the image of x^(alpha - e_k) times
    the image of x_k, all on packed keys, so a monomial times x_j is its
    key plus the key of x_j.  Only the previous level is kept.  ``average``
    sums a seed map against those images with the W-matrices, accumulating
    coefficients directly, and scales by 1/|G| once at the end.  Over GF(p)
    the images and sums are unreduced ints, reduced once there too.
    """

    def __init__(self, G: FiniteGroupAction):
        self.G = G
        self.scale = _group_order_inverse(G)
        d = G.w_dim
        # per element: the nonzero (c, w[c][l]) of each W-column l, and the
        # image of each x_k under g^{-1} as (key of x_l, coefficient) pairs
        self.w_cols = [[[(c, w[c][l]) for c in range(d) if w[c][l]]
                        for l in range(d)] for w in G.w_mats]
        self.units = unit_keys(G.x_dim)
        self.linear = [[[(self.units[l], c) for l, c in enumerate(row) if c]
                        for row in G.x_mats[G.inv[g]]] for g in G.elements()]

    def images(self, wanted):
        """Yield (alpha, images) for each wanted packed key in increasing
        degree, then sorted order; images[g] is the term dict of x^alpha
        evaluated at g^{-1} x."""
        degree = {a: sum(unpack_exponents(a, self.G.x_dim)) for a in wanted}
        top = max(degree.values(), default=-1)
        levels = [set() for _ in range(top + 1)]
        for a, t in degree.items():
            levels[t].add(a)
        for t in range(top, 0, -1):
            levels[t - 1].update(_monomial_step(a, self.units)[0] for a in levels[t])
        prev = {0: [{0: 1}] * self.G.order}
        for t, level in enumerate(levels):
            if t:
                prev = {a: self._step(prev, a) for a in level}
            for a in sorted(level.intersection(degree)):
                yield a, prev[a]

    def _step(self, prev, alpha):
        base, k = _monomial_step(alpha, self.units)
        out = []
        for img, lin in zip(prev[base], self.linear):
            acc: dict[int, object] = {}
            for exps, c in img.items():
                for unit, a in lin[k]:
                    key = exps + unit
                    v = acc.get(key)
                    acc[key] = c * a if v is None else v + c * a
            out.append({e: c for e, c in acc.items() if c})
        return out

    def average(self, seeds) -> list[Poly]:
        """(1/|G|) sum_g g_W H(g^{-1} x) for H = sum x^alpha sum_l h_l e_l,
        given as (images of x^alpha, [(l, h_l), ...]) pairs."""
        acc = [{} for _ in range(self.G.w_dim)]
        for images, coeffs in seeds:
            for img, cols in zip(images, self.w_cols):
                for l, h in coeffs:
                    for c, w in cols[l]:
                        f, target = w * h, acc[c]
                        for exps, v in img.items():
                            old = target.get(exps)
                            target[exps] = f * v if old is None else old + f * v
        field = self.G.field
        return [Poly.packed(self.G.x_vars,
                            reduce_terms({e: v * self.scale for e, v in a.items() if v}, field),
                            field) for a in acc]


def reynolds_project(H: list[Poly], G: FiniteGroupAction) -> Covariant:
    """Group-average a polynomial map H: X -> W into a covariant.

    F = (1/|G|) sum_g g_W H(g^{-1} x) is certified by construction, with no
    substitution: for k in G, F(kx) = (1/|G|) sum_g g_W H(g^{-1} k x), and
    g = kh runs over G as h does, so F(kx) = k_W F(x).  The elements of G
    are (X, W) matrix pairs closed under products, so (kh)_W = k_W h_W, and
    1/|G| exists, as :func:`_group_order_inverse` refuses a field where |G|
    vanishes.  Maps that are already equivariant are fixed.
    """
    if len(H) != G.w_dim:
        raise DimensionError("seed map has the wrong number of coordinates")
    orbit = _Orbit(G)
    coeffs: dict[int, list] = {}
    for l, h in enumerate(Covariant(G, H).poly_coords()):
        for exps, c in h.terms.items():
            coeffs.setdefault(exps, []).append((l, c))
    return Covariant(G, orbit.average((images, coeffs[a])
                                      for a, images in orbit.images(coeffs)), EQUIVARIANT)


def _monomials(nx: int, degree_bound: int) -> list[int]:
    """Packed keys of the monomials in nx variables of total degree at most
    degree_bound; a bound past ``MAX_DEGREE`` is refused."""
    if degree_bound > MAX_DEGREE:
        raise DegreeOverflowError(f"degree bound {degree_bound} is past total degree "
                                  f"{MAX_DEGREE}, the most a packed exponent holds")
    units = unit_keys(nx)
    return [sum(units[i] for i in combo) for degree in range(degree_bound + 1)
            for combo in combinations_with_replacement(range(nx), degree)]


def _ray_key(coords: list[Poly]):
    """A key shared exactly by the nonzero scalar multiples of a nonzero map."""
    lead = next(c for c in coords if c).lc()
    return tuple(frozenset((e, coeff_div(v, lead, c.field)) for e, v in c.terms.items())
                 for c in coords)


def generate_covariants(G: FiniteGroupAction, degree_bound: int) -> list[Covariant]:
    """Greedy search for dim(W) generically independent covariants.

    Averages the monomial seed maps x^alpha e_i in increasing degree, then
    monomial order, then W-basis index, and keeps each average that raises
    the rank of the accumulated coordinate matrix over the function field
    (see :func:`_raises_rank`).
    The d seeds of one monomial share its orbit images.  An average equal
    up to a nonzero constant to an earlier one is not tried again: the
    earlier one was kept or lay in the span of the covariants kept then, so
    the rank cannot rise.  Each average is a Reynolds average, certified
    by construction as in :func:`reynolds_project`, so none is substituted
    into the group action.  Raises
    :class:`GenerationExhaustedError` with the achieved rank if the bound is
    hit first (a meaningful outcome: a stabilizer acting nontrivially on W
    makes a full family impossible).
    """
    d = G.w_dim
    orbit = _Orbit(G)
    points = list(islice(candidate_points(G.x_dim, random.Random(0)),
                         WITNESS_FIRST_CANDIDATES))
    kept: list[Covariant] = []
    seen = set()
    for _alpha, images in orbit.images(_monomials(G.x_dim, degree_bound)):
        for i in range(d):
            coords = orbit.average([(images, [(i, 1)])])
            if not any(coords):
                continue
            key = _ray_key(coords)
            if key in seen:
                continue
            seen.add(key)
            F = Covariant(G, coords, EQUIVARIANT)
            if _raises_rank(kept, F, points):
                kept.append(F)
                if len(kept) == d:
                    return kept
    raise GenerationExhaustedError(
        f"degree bound {degree_bound} reached with rank {len(kept)} < {d}",
        len(kept), kept)


def _raises_rank(kept: list[Covariant], F: Covariant, points) -> bool:
    """Whether F raises the generic rank of the kept covariants.  A point
    of ``points`` where kept + [F] has rank len(kept) + 1 proves the rise
    exactly, as the rank at a point never exceeds the generic rank; only
    when no point shows it is the symbolic rank computed."""
    family = kept + [F]
    if _independence_witness(family, points) is not None:
        return True
    return cleared_rows(family)[0].rank() > len(kept)


def clear_denominators(Fs: list[Covariant], G: FiniteGroupAction
                       ) -> tuple[Poly, list[Covariant]]:
    """Clear certified rational covariants Fs to integral ones with one
    invariant factor.

    h is the least common denominator of all coordinates and f the product
    of h(gx) over g in G.  f is an absolute invariant by construction, with
    no substitution: f(kx) is the product of h(gkx), and gk runs over G as g
    does; f is nonzero, as h is.  The returned covariants are f^n F_i for
    the smallest n making every coordinate integral, certified equivariant
    as an absolute invariant times a certified covariant.  All are scaled by
    the same nonzero f^n, so independence verdicts are unchanged.
    """
    require_certified(Fs, "clear_denominators")
    nums, h = common_denominator([c for F in Fs for c in F.coords])
    # the product of the h(gx) over all g is that of the g.h = h(g^-1 x),
    # as g -> g^-1 permutes G
    f = Poly.one(G.x_vars, G.field)
    for g in G.elements():
        f = f * G.act_cleared(h, "x", G.x_vars, g)[0]
    # every denominator divides f^n exactly when their lcm h does, and h
    # divides f, h(x) being the identity's factor: n is 1, or 0 for a
    # constant h
    power = Poly.one(G.x_vars, G.field) if h.is_constant() else f
    scale = power.exact_div(h)
    d = G.w_dim
    # nums / h are the coordinates of F_k and scale = f^n / h, so each
    # F_int = f^n F_k: an absolute invariant times a certified covariant,
    # equivariant with no substitution
    return f, [Covariant(G, [p * scale for p in nums[k * d:(k + 1) * d]], EQUIVARIANT)
               for k in range(len(Fs))]


def lift_through_projection(Fs: list[Covariant], extended: GroupAction
                            ) -> list[Covariant]:
    """Reinterpret certified covariants on X as covariants on X x Y via the
    projection.

    ``extended`` must be the product action: same group, X-variables a prefix
    of its X-variables, same W.  For a finite group every element must act
    on X as before, with no Y-term in its X-coordinates; a symbolic group
    must be the same GL_n on more copies of the same X template.  Then
    F(g.(x, y)) = F(g.x) = g.F(x), so the lifts are certified by construction;
    coordinates are unchanged and independence verdicts carry over.
    """
    if not Fs:
        raise DimensionError("empty covariant list")
    require_certified(Fs, "lift_through_projection")
    base = Fs[0].action
    if any(F.action is not base for F in Fs):
        raise ActionError("covariants do not share one action")
    if extended.x_vars[:len(base.x_vars)] != base.x_vars:
        raise ActionError("extended action does not start with the base X-variables")
    if set(base.x_vars) >= set(extended.x_vars):
        raise ActionError("extended action adds no new variables")
    if extended.w_vars != base.w_vars:
        raise ActionError("extended action must keep the same W-space")
    if base.is_finite != extended.is_finite or base.field != extended.field:
        raise ActionError("group models do not match")
    if base.is_finite:
        if extended.order != base.order:
            raise ActionError("extended group has a different order")
        nx = base.x_dim
        for g in base.elements():
            top_left = tuple(tuple(row[:nx]) for row in extended.x_mats[g][:nx])
            if top_left != base.x_mats[g]:
                raise ActionError("extended action is not the product action")
            if any(any(row[nx:]) for row in extended.x_mats[g][:nx]):
                raise ActionError("extended action mixes X and Y coordinates")
            if extended.w_mats[g] != base.w_mats[g]:
                raise ActionError("extended action changes the W-action")
    elif (extended.n, extended.x_spec.kind, extended.w_spec) != (
            base.n, base.x_spec.kind, base.w_spec):
        raise ActionError("extended action is not the same GL_n on more copies "
                          "of the same X template")
    return [Covariant(extended, [c.embed(extended.x_vars) for c in F.coords], EQUIVARIANT)
            for F in Fs]


# ---------------------------------------------------------------------------
# example families
# ---------------------------------------------------------------------------


class _Words:
    """The word program over one ring, given its product ``mul`` and its
    ``one``: A^i B^j is the product of a power of A and one of B.  Each
    power is formed once, as the largest power already formed below it
    times A or B to the gap, by repeated squaring."""

    def __init__(self, A, B, mul, one):
        self.mul, self.one = mul, one
        # _powers[copy][k] is A^k (copy 0) or B^k (copy 1)
        self._powers = ({1: A}, {1: B})

    def power(self, copy: int, k: int):
        """A^k or B^k for k >= 1."""
        powers = self._powers[copy]
        if k not in powers:
            below = max(e for e in powers if e < k)
            gap, step, base = k - below, None, powers[1]
            while gap:
                if gap & 1:
                    step = base if step is None else self.mul(step, base)
                gap >>= 1
                if gap:
                    base = self.mul(base, base)
            powers[k] = self.mul(powers[below], step)
        return powers[k]

    def word(self, i: int, j: int):
        if i and j:
            return self.mul(self.power(0, i), self.power(1, j))
        if i or j:
            return self.power(0, i) if i else self.power(1, j)
        return self.one


class MatrixWords:
    """The shared record of one word family: the generic n x n matrices A
    and B of the conjugation action on pairs, and the words A^i B^j kept as
    programs (i, j).

    Entry (r, c) of copy k is X-variable k n^2 + r n + c, as the
    conjugation template lists them.  :meth:`expand` runs the word program
    (:class:`_Words`) on the generic matrices, so each power is formed once
    across words; :meth:`point_values` runs it on scalar matrices at
    integer points, expanding nothing.
    """

    def __init__(self, action: SymbolicGroupAction):
        self.action = action
        self.n = n = action.n
        x = Poly.gens(action.x_vars, action.field)
        A, B = (Matrix([x[copy * n * n + r * n:copy * n * n + (r + 1) * n] for r in range(n)])
                for copy in (0, 1))
        self.words = _Words(A, B, Matrix.__mul__, Matrix.identity(n, x[0]))

    def expand(self, word: tuple[int, int]) -> list[Poly]:
        """The n^2 entries of A^i B^j, row by row."""
        return [e for row in self.words.word(*word).entries for e in row]

    def point_values(self, words: list[tuple[int, int]]) -> "_WordValues":
        return _WordValues(self.n, words, self.action.field)


class _WordValues:
    """Words evaluated at integer points: A and B are read off the point,
    and the word program forms each needed power once per point, all over
    Z, or mod p over GF(p)."""

    def __init__(self, n: int, words: list[tuple[int, int]], field):
        self.n, self.words = n, words
        self.mul = lambda a, b: qmat_mul(a, b, field)

    def at(self, point):
        """One column per word, its entries row by row, and no denominator
        values, as every word is a polynomial with integer coefficients."""
        n = self.n
        A, B = (tuple(tuple(point[copy * n * n + r * n:copy * n * n + (r + 1) * n])
                      for r in range(n)) for copy in (0, 1))
        words = _Words(A, B, self.mul, qmat_identity(n))
        return [[x for row in words.word(i, j) for x in row] for i, j in self.words], ()


def _generic_action(n: int, kind: str, x_copies: int,
                    group: GroupAction | None) -> SymbolicGroupAction:
    """The generic GL_n element acting by ``kind`` on x_copies copies of X
    and one copy of W: ``group`` itself when given, else a new action."""
    x_spec, w_spec = TemplateSpec(kind, x_copies), TemplateSpec(kind, 1)
    if group is None:
        return SymbolicGroupAction(n, x_spec, w_spec)
    if group.is_finite or (group.n, group.x_spec, group.w_spec) != (n, x_spec, w_spec):
        raise DimensionError(f"the family needs the generic GL_{n} element with "
                             f"{kind} on {x_copies} copies of X and one of W")
    return group


def matrix_word_family(n: int, words: list[tuple[int, int]] | None = None,
                       group: GroupAction | None = None) -> list[Covariant]:
    """Covariants (A, B) -> A^i B^j on pairs of n x n matrices under
    simultaneous conjugation.

    Every word is certified by construction, with no substitution.  X
    carries two copies of the conjugation block M -> g M adj(g)/det(g) and W
    one copy of the same block, so the words A and B are equivariant as
    projections onto one copy.  The word I is, as g I adj(g) = det(g) I.
    A longer word is by the product argument: the block is multiplicative,
    as adj(g) g = det(g) I, so the images of A and B multiply to the image
    of A^i B^j.  Both adjugate identities are theorems over any
    commutative ring; the action checks them on the one adj(g) it forms,
    when a conjugation block is first built, and the family reads neither.
    The family lives on ``group`` when given (which must be that
    conjugation action), else on a new action.

    The words are kept as programs (i, j) over one shared
    :class:`MatrixWords` record, and a word's coordinates are expanded on
    the first read of its ``coords``.  Nothing reads them in ``verify`` and
    ``module-verdict`` (the ledger holds the certificate) or in
    ``independence`` (the witness scan multiplies scalar point matrices),
    unless no candidate point shows full rank and the symbolic rank is
    needed.  ``relation``, ``noname-build`` and ``example`` expand every
    word.
    """
    if words is None:
        words = [(i, j) for i in range(n) for j in range(n)]
    for i, j in words:
        if i < 0 or j < 0:
            raise ForgeError(f"malformed word exponents ({i}, {j})")
    action = _generic_action(n, "conjugation", 2, group)
    record = MatrixWords(action)
    # certified by the argument of the docstring: _generic_action checked
    # that X and W carry the conjugation template, W one copy, and
    # SymbolicGroupAction builds both from one block and one det power
    return [Covariant.from_program(action, record, (i, j), EQUIVARIANT) for i, j in words]


def projection_family(n: int, m: int, group: GroupAction | None = None
                      ) -> tuple[list[Covariant], SymbolicGroupAction]:
    """The first n projections (v_1..v_m) -> v_j from m copies of the natural
    module, under the generic diagonal GL_n action (``group`` when given).

    Each projection is certified by construction, with no substitution: X
    carries m copies of the block g and W one copy of the same block, so
    the projection onto copy j is equivariant.
    """
    if m < n:
        raise ForgeError("need at least n copies to project onto n of them")
    action = _generic_action(n, "natural", m, group)
    # copy j is X-variables j n .. j n + n - 1, as the natural template lists
    # them.  _generic_action checked that X and W carry the natural template,
    # W one copy, and SymbolicGroupAction builds both from one block g with
    # one det power: v_j(g v) = g v_j = g_W v_j
    xs = Poly.gens(action.x_vars, action.field)
    return [Covariant(action, xs[j * n:(j + 1) * n], EQUIVARIANT) for j in range(n)], action


def _symmetric_group_action(n: int) -> FiniteGroupAction:
    """S_n by permutation matrices on both X = k^n and W = k^n."""
    if n < 2:
        raise ForgeError("need n >= 2 for a nontrivial permutation action")
    cycle = [[1 if i == (j + 1) % n else 0 for j in range(n)] for i in range(n)]
    swap01 = [[1 if (i, j) in ((0, 1), (1, 0)) or (i == j and i > 1) else 0
               for j in range(n)] for i in range(n)]
    gens = [(cycle, cycle)] if n == 2 else [(cycle, cycle), (swap01, swap01)]
    from .action import make_finite_group
    return make_finite_group(gens)


def power_map_family(n: int, powers: list[int] | None = None,
                     group: GroupAction | None = None) -> list[Covariant]:
    """Coordinate power maps (x_1..x_n) -> (x_1^i..x_n^i) under a
    permutation action (the full symmetric group by default)."""
    if powers is None:
        powers = list(range(1, n + 1))
    action = group if group is not None else _symmetric_group_action(n)
    if not action.is_finite or action.x_dim != n or action.w_dim != n:
        raise DimensionError("group must be finite and act on k^n for both X and W")
    xs = Poly.gens(action.x_vars, action.field)
    out = []
    for i in powers:
        if i < 0:
            raise ForgeError(f"malformed power {i}")
        F = Covariant(action, [x ** i for x in xs])
        rep = verify_equivariance(F)
        if not rep.ok:
            raise ForgeError(f"power map {i} failed its equivariance check")
        out.append(F)
    return out


def example_family(name: str, **params) -> list[Covariant]:
    """Named covariant families with pre-verified equivariance.

    ``matrix_words`` (n, words), ``projections`` (n, m), ``power_maps``
    (n, powers); each takes an optional ``group`` to build the family on.
    """
    group = params.get("group")
    if name == "matrix_words":
        return matrix_word_family(params["n"], params.get("words"), group)
    if name == "projections":
        return projection_family(params["n"], params["m"], group)[0]
    if name == "power_maps":
        return power_map_family(params["n"], params.get("powers"), group)
    raise ForgeError(f"unknown example family {name!r}")
