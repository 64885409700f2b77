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
    DimensionError,
    ExactAlgError,
    Matrix,
    Poly,
    coeff_div,
    common_denominator,
    field_one,
    lift_coeff,
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
    return coeff_div(field_one(G.field), lift_coeff(order, G.field))


def _monomial_step(alpha: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(alpha - e_k, k) with k the last variable that occurs in x^alpha."""
    k = max(i for i, e in enumerate(alpha) if e)
    return alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:], k


class _Orbit:
    """Reynolds averaging over one finite group, local to one call.

    ``images`` yields, level by level in degree, the image of each wanted
    monomial x^alpha under every g^{-1}: the image of x^(alpha - e_k) times
    the image of x_k.  Only the previous level is kept.  ``average`` sums a
    seed map against those images with the W-matrices, accumulating
    coefficients directly, and scales by 1/|G| once at the end.
    """

    def __init__(self, G: FiniteGroupAction):
        self.G = G
        self.scale = _group_order_inverse(G)
        self.one = field_one(G.field)
        d = G.w_dim
        # per element: the nonzero (c, w[c][l]) of each W-column l, and the
        # image of each x_k under g^{-1} as (variable index, coefficient) pairs
        self.w_cols = [[[(c, w[c][l]) for c in range(d) if w[c][l]]
                        for l in range(d)] for w in G.w_mats]
        self.linear = [[[(l, c) for l, c in enumerate(row) if c]
                        for row in G.x_mats[G.inv[g]]] for g in G.elements()]

    def images(self, wanted):
        """Yield (alpha, images) for each wanted exponent tuple in increasing
        degree, then sorted order; images[g] is the term dict of x^alpha
        evaluated at g^{-1} x."""
        wanted = set(wanted)
        top = max((sum(a) for a in wanted), default=-1)
        levels = [set() for _ in range(top + 1)]
        for a in wanted:
            levels[sum(a)].add(a)
        for t in range(top, 0, -1):
            levels[t - 1].update(_monomial_step(a)[0] for a in levels[t])
        zero = (0,) * self.G.x_dim
        prev = {zero: [{zero: self.one}] * self.G.order}
        for t, level in enumerate(levels):
            if t:
                prev = {a: self._step(prev, a) for a in level}
            for a in sorted(level & wanted):
                yield a, prev[a]

    def _step(self, prev, alpha):
        base, k = _monomial_step(alpha)
        out = []
        for img, lin in zip(prev[base], self.linear):
            acc: dict[tuple[int, ...], object] = {}
            for exps, c in img.items():
                for j, a in lin[k]:
                    key = exps[:j] + (exps[j] + 1,) + exps[j + 1:]
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
        return [Poly(self.G.x_vars, {e: v * self.scale for e, v in a.items()}, self.G.field)
                for a in acc]


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
    coeffs: dict[tuple[int, ...], list] = {}
    for l, h in enumerate(Covariant(G, H).poly_coords()):
        for exps, c in h.terms.items():
            coeffs.setdefault(exps, []).append((l, c))
    return Covariant(G, orbit.average((images, coeffs[a])
                                      for a, images in orbit.images(coeffs)), EQUIVARIANT)


def _monomials(nx: int, degree_bound: int) -> list[tuple[int, ...]]:
    """Exponent tuples in nx variables of total degree at most degree_bound."""
    out = []
    for degree in range(degree_bound + 1):
        for combo in combinations_with_replacement(range(nx), degree):
            e = [0] * nx
            for idx in combo:
                e[idx] += 1
            out.append(tuple(e))
    return out


def _ray_key(coords: list[Poly]):
    """A key shared exactly by the nonzero scalar multiples of a nonzero map."""
    lead = next(c for c in coords if c).lc()
    return tuple(frozenset((e, coeff_div(v, lead)) for e, v in c.terms.items()) for c in coords)


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
            coords = orbit.average([(images, [(i, orbit.one)])])
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


def _word_matrix(action: SymbolicGroupAction, copy: int) -> Matrix:
    n = action.n
    labels = "abcdefghijklmnopqrstuvwxyz"
    return Matrix([[Poly.var(f"{labels[copy]}{i}{j}", action.x_vars, action.field)
                    for j in range(1, n + 1)] for i in range(1, n + 1)])


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
    of A^i B^j.  The action checked both adjugate identities when it was
    built.  The family lives on ``group`` when given (which must be that
    conjugation action), else on a new action.
    """
    if words is None:
        words = [(i, j) for i in range(n) for j in range(n)]
    for i, j in words:
        if i < 0 or j < 0:
            raise ForgeError(f"malformed word exponents ({i}, {j})")
    action = _generic_action(n, "conjugation", 2, group)
    A = _word_matrix(action, 0)
    B = _word_matrix(action, 1)
    out = []
    for i, j in words:
        M = Matrix.identity(n, A.entries[0][0])
        for _ in range(i):
            M = M * A
        for _ in range(j):
            M = M * B
        # certified by the argument of the docstring: _generic_action checked
        # that X and W carry the conjugation template, W one copy, and
        # SymbolicGroupAction builds both from one block and one det power
        out.append(Covariant(action, [e for row in M.entries for e in row], EQUIVARIANT))
    return out


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
    out = []
    for j in range(n):
        # _generic_action checked that X and W carry the natural template, W
        # one copy, and SymbolicGroupAction builds both from one block g with
        # one det power: v_j(g v) = g v_j = g_W v_j
        out.append(Covariant(action, [Poly.var(f"x{i + 1}{j + 1}", action.x_vars, action.field)
                                      for i in range(n)], EQUIVARIANT))
    return out, action


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
