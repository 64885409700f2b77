"""Producing covariants: group averaging for finite groups, a greedy
degree-bounded search for a full independent family, denominator clearing
for rational covariants, lifting through product projections, and the
built-in example families (matrix words under conjugation, vector
projections, coordinate power maps under permutations).
"""

from __future__ import annotations

import math
import random
from functools import cached_property
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
    candidate_points,
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
    int_form,
    int_rank_det,
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
    """Orbit sums over one finite group, local to one call.

    ``images`` yields the image of each wanted monomial x^alpha under every
    g^{-1}, by one of two routes.  When every X-matrix is monomial, with one
    nonzero per row (a permutation group, a signed or a diagonal one), the
    image is one term c x^beta: beta moves the exponent of each x_k into the
    field of the variable that x_k goes to, and c is the product of their
    scalars to those exponents.  These images are a :class:`_MonomialImages`,
    one key and one scalar per element, formed on first read.  Otherwise
    they are term dicts, built level by level in degree as the image of
    x^(alpha - e_k) times the image of x_k, keeping only the previous level.

    ``transfer`` sums a seed map against the images with the W-matrices,
    accumulating coefficients directly, into the orbit sum
    sum_g g_W H(g^{-1} x); ``scaled`` multiplies one by 1/|G| into the
    Reynolds average.  Over GF(p) the sums are unreduced ints, reduced once
    per result.
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
        self.monomial = all(len(row) == 1 for rows in self.linear for row in rows)
        if self.monomial:
            # per variable x_k, over G: the key of the variable that x_k goes
            # to under g^{-1}, and its scalars, None when every one is 1
            images = [[rows[k][0] for rows in self.linear] for k in range(G.x_dim)]
            self.targets = [[unit for unit, _ in col] for col in images]
            self.scalars = [None if all(c == 1 for _, c in col) else [c for _, c in col]
                            for col in images]

    def images(self, wanted):
        """Yield (alpha, images) for each wanted packed key in increasing
        degree, then sorted order: a :class:`_MonomialImages` on a monomial
        group, else the list whose entry g is the term dict of x^alpha
        evaluated at g^{-1} x."""
        if self.monomial:
            for a in sorted(set(wanted)):
                yield a, _MonomialImages(self, a)
            return
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

    def transfer(self, seeds) -> list[Poly]:
        """sum_g g_W H(g^{-1} x) for H = sum x^alpha sum_l h_l e_l, given as
        (images of x^alpha, [(l, h_l), ...]) pairs."""
        acc = [{} for _ in range(self.G.w_dim)]
        for images, coeffs in seeds:
            if not self.monomial:
                for img, cols in zip(images, self.w_cols):
                    for l, h in coeffs:
                        for c, w in cols[l]:
                            f, target = w * h, acc[c]
                            for exps, v in img.items():
                                old = target.get(exps)
                                target[exps] = f * v if old is None else old + f * v
                continue
            keys, scalars = images.terms
            for key, s, cols in zip(keys, scalars, self.w_cols):
                for l, h in coeffs:
                    for c, w in cols[l]:
                        f, target = w * h * s, acc[c]
                        old = target.get(key)
                        target[key] = f if old is None else old + f
        field = self.G.field
        return [Poly.packed(self.G.x_vars, reduce_terms({e: v for e, v in a.items() if v}, field),
                            field) for a in acc]

    def scaled(self, transfer: list[Poly]) -> list[Poly]:
        """(1/|G|) times an orbit sum: the Reynolds average."""
        field = self.G.field
        return [Poly.packed(t.vars, reduce_terms({e: v * self.scale for e, v in t.terms.items()},
                                                 field), field) for t in transfer]

    def seed_orbit(self, images, i: int):
        """Seeds (beta, j) whose orbit sum is a nonzero multiple of that of
        x^alpha e_i, for the images of x^alpha: for each g with one nonzero
        w in column i of g_W, g_W (c x^beta e_i) = w c x^beta e_j.  Only a
        monomial group names them."""
        if not self.monomial:
            return ()
        return ((key, cols[i][0][0]) for key, cols in zip(images.terms[0], self.w_cols)
                if len(cols[i]) == 1)


class _MonomialImages:
    """The images c_g x^beta_g of one monomial x^alpha under every g^{-1} of
    a monomial group, formed on first read of ``terms``: the list of keys
    beta_g and the list of scalars c_g, both indexed by element."""

    def __init__(self, orbit: _Orbit, alpha: int):
        self.orbit, self.alpha = orbit, alpha

    @cached_property
    def terms(self) -> tuple[list[int], list]:
        orbit, G = self.orbit, self.orbit.G
        keys, scalars = [0] * G.order, [1] * G.order
        for k, e in enumerate(unpack_exponents(self.alpha, G.x_dim)):
            if not e:
                continue
            # x_k goes to c x_l under g^{-1}: e times the key of x_l, which
            # carries its degree, and a factor c^e
            keys = [a + e * unit for a, unit in zip(keys, orbit.targets[k])]
            if orbit.scalars[k] is not None:
                scalars = [s * c ** e for s, c in zip(scalars, orbit.scalars[k])]
        if G.field is not None:
            scalars = [s % G.field.p for s in scalars]
        return keys, scalars


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
    return Covariant(G, orbit.scaled(orbit.transfer((images, coeffs[a])
                                                    for a, images in orbit.images(coeffs))),
                     EQUIVARIANT)


def _monomials(nx: int, degree_bound: int) -> list[int]:
    """Packed keys of the monomials in nx variables of total degree at most
    degree_bound; a bound past ``MAX_DEGREE`` is refused."""
    if degree_bound > MAX_DEGREE:
        raise DegreeOverflowError(f"degree bound {degree_bound} is past total degree "
                                  f"{MAX_DEGREE}, the most a packed exponent holds")
    units = unit_keys(nx)
    return [sum(units[i] for i in combo) for degree in range(degree_bound + 1)
            for combo in combinations_with_replacement(range(nx), degree)]


class _Transfer:
    """One nonzero orbit sum in integer form.

    ``keys`` holds each coordinate's packed keys in sorted order and
    ``ints`` their coefficients as integers: over Q the integer form
    (:func:`int_form`) divided by its content, with the first one
    positive; over GF(p) the representatives times the inverse of the
    first one.  So ``ray`` = (keys, ints) is shared exactly by the nonzero
    scalar multiples of the map, and ``ints`` is itself one of them, with
    integer coefficients.  ``values`` caches its values at the candidate
    points by index, and ``residual`` its reduced echelon row once formed.
    """

    def __init__(self, coords: list[Poly], field):
        self.keys = tuple(tuple(sorted(c.terms)) for c in coords)
        _, ints = int_form([c.terms[k] for c, keys in zip(coords, self.keys) for k in keys],
                           field)
        if field is None:
            content = math.gcd(*ints)
            content = content if ints[0] > 0 else -content
            ints = [v // content for v in ints]
        else:
            inv = pow(ints[0], -1, field.p)
            ints = [v * inv % field.p for v in ints]
        it = iter(ints)
        self.ints = tuple(tuple(islice(it, len(keys))) for keys in self.keys)
        self.values: dict[int, list[int]] = {}
        self.residual = None

    @property
    def ray(self):
        return self.keys, self.ints

    def row(self, vars: tuple[str, ...], field) -> list[Poly]:
        return [Poly.packed(vars, dict(zip(keys, ints)), field)
                for keys, ints in zip(self.keys, self.ints)]


class _Kept:
    """The transfers kept by one generate call, and what a trial reads of
    them: their values at one candidate point, and one fraction-free
    echelon of their rows over k[X].

    ``rows`` holds the values of the kept ones at candidate point
    ``cursor``, where they have full rank; a trial moves the cursor past
    the points where a kept one found since is dependent, evaluating it
    only there.  Rows 1..k+1 independent at a point make rows 1..k
    independent there, so no point passed over has full rank again.  The
    echelon (Bareiss, Math. Comp. 22, 1968) is built on the first symbolic
    trial and extended by one row per kept transfer after that: row k is
    the kept row k reduced against rows 1..k-1, with pivot p_k at column
    c_k, and its entries are the k-minors of kept rows 1..k on columns
    c_1..c_{k-1} and one more.  By Sylvester's identity a new row v reduced
    in order, v <- (p_k v - v[c_k] E_k) / p_{k-1} with p_0 = 1, stays
    polynomial: each division is exact.
    """

    def __init__(self, G: FiniteGroupAction, points: list[tuple[int, ...]]):
        self.vars, self.field = G.x_vars, G.field
        self.p = None if G.field is None else G.field.p
        self.points = points
        self.cursor = 0
        self.rows: list[list[int]] = []
        # per point: the value of each monomial met so far, by packed key
        self.monomials: list[dict[int, int]] = [{} for _ in points]
        self.kept: list[_Transfer] = []
        self.echelon: list[tuple[list[Poly], int]] = []

    def raises(self, t: _Transfer) -> bool:
        """Whether t raises the rank of the kept transfers over k(X).  A
        point where the kept ones have full rank k and t is off their span
        proves the rise exactly, as the rank at a point never exceeds the
        generic rank.  A trial that does not rise shows no rise at any
        point, so only the first of those points is tried before the
        symbolic reduction."""
        if self._full_rank_point():
            row = self._at(t, self.cursor)
            if int_rank_det(self.rows + [row], self.p)[0] > len(self.rows):
                return True
        return not self._in_span(t)

    def keep(self, t: _Transfer) -> None:
        self.kept.append(t)
        if t.residual is not None:
            # the trial caught the echelon up before reducing t
            self._insert(t.residual)

    def _full_rank_point(self) -> bool:
        """Move the cursor to the first candidate point where the kept
        transfers have full rank; False when none is left."""
        while self.cursor < len(self.points):
            for t in self.kept[len(self.rows):]:
                row = self._at(t, self.cursor)
                if int_rank_det(self.rows + [row], self.p)[0] == len(self.rows):
                    self.cursor += 1
                    self.rows = []
                    break
                self.rows.append(row)
            else:
                return True
        return False

    def _at(self, t: _Transfer, j: int) -> list[int]:
        """t's value vector at candidate point j, mod p over GF(p)."""
        vec = t.values.get(j)
        if vec is None:
            p, point, known = self.p, self.points[j], self.monomials[j]
            vec = []
            for keys, ints in zip(t.keys, t.ints):
                total = 0
                for key, n in zip(keys, ints):
                    v = known.get(key)
                    if v is None:
                        v = known[key] = math.prod(
                            x ** e for x, e in zip(point, unpack_exponents(key, len(point))))
                    total += n * v
                vec.append(total if p is None else total % p)
            t.values[j] = vec
        return vec

    def _in_span(self, t: _Transfer) -> bool:
        """Whether t lies in the span of the kept transfers over k(X): its
        row reduced against every pivot is zero exactly then, as the
        echelon rows are triangular on their pivot columns."""
        while len(self.echelon) < len(self.kept):
            self._insert(self._reduce(self.kept[len(self.echelon)].row(self.vars, self.field)))
        t.residual = self._reduce(t.row(self.vars, self.field))
        return not any(t.residual)

    def _reduce(self, v: list[Poly]) -> list[Poly]:
        prev = None
        for row, c in self.echelon:
            p, f = row[c], v[c]
            v = [p * x - f * y for x, y in zip(v, row)] if f else [p * x for x in v]
            if prev is not None:
                v = [x.exact_div(prev) for x in v]
            prev = p
        return v

    def _insert(self, v: list[Poly]) -> None:
        self.echelon.append((v, next(c for c, x in enumerate(v) if x)))


def generate_covariants(G: FiniteGroupAction, degree_bound: int) -> list[Covariant]:
    """Greedy search for dim(W) generically independent covariants.

    Forms the orbit sum T = sum_g g_W H(g^{-1} x) of each monomial seed map
    H = x^alpha e_i in increasing degree, then monomial order, then W-basis
    index, and keeps each T that raises the rank of the kept ones over the
    function field, as its Reynolds average (1/|G|) T.  Rank and ray do not
    change under the nonzero scalar 1/|G|, so only what is kept is scaled.
    The d seeds of one monomial share its orbit images.

    Three shortcuts skip a seed or decide it at once, each exact:

    - On a monomial group a seed in the orbit of one already summed is
      skipped: T(g.H) = T(H) for g.H = g_W H(g^{-1} x), as h -> hg permutes
      G, and g.H is a nonzero multiple of a seed (:meth:`_Orbit.seed_orbit`),
      so that seed's sum is zero or on a ray already met.
    - A T equal up to a nonzero constant to an earlier one is not tried
      again: the earlier one was kept or lay in the span of the ones kept
      then.  The test is on the integer ray key of :class:`_Transfer`.
    - A trial (:meth:`_Kept.raises`) reads the kept ones' values at the
      first candidate point where they have full rank, each computed when
      a trial first reads that point; T off their span there proves the
      rise.  Else T's row is reduced
      against one fraction-free echelon of the kept rows over k[X], built
      on the first such trial and extended row by row, so no trial
      re-eliminates the kept ones.

    Each kept average is certified by construction, as in
    :func:`reynolds_project`, so none is substituted into the group action.
    Raises :class:`GenerationExhaustedError` with the achieved rank if the
    bound is hit first (a meaningful outcome: a stabilizer acting
    nontrivially on W makes a full family impossible).
    """
    d = G.w_dim
    orbit = _Orbit(G)
    points = list(islice(candidate_points(G.x_dim, random.Random(0)),
                         WITNESS_FIRST_CANDIDATES))
    family = _Kept(G, points)
    kept: list[Covariant] = []
    seen, summed = set(), set()
    for alpha, images in orbit.images(_monomials(G.x_dim, degree_bound)):
        for i in range(d):
            if (alpha, i) in summed:
                continue
            coords = orbit.transfer([(images, [(i, 1)])])
            summed.update(orbit.seed_orbit(images, i))
            if not any(coords):
                continue
            t = _Transfer(coords, G.field)
            if t.ray in seen:
                continue
            seen.add(t.ray)
            if family.raises(t):
                family.keep(t)
                kept.append(Covariant(G, orbit.scaled(coords), EQUIVARIANT))
                if len(kept) == d:
                    return kept
    raise GenerationExhaustedError(
        f"degree bound {degree_bound} reached with rank {len(kept)} < {d}",
        len(kept), kept)


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
