"""Linear group actions on affine spaces.

Two group models share one forward interface:

* :class:`FiniteGroupAction` holds an explicit element list (closed under
  products and inverses) of invertible scalar matrices acting on the X-space,
  with a matching list acting on the W-space.
* :class:`SymbolicGroupAction` holds one generic matrix ``g`` with
  indeterminate entries; the action matrices on X and W have entries
  polynomial in the ``g``-variables divided by a power of ``det(g)``.

Both check an identity as one forward cleared identity per element of
``check_elements``: ``act_cleared`` gives p(g x) as a numerator over a power
of det(g), ``w_cleared`` gives g_W the same way, and ``det_to`` gives a
power of det(g).  A finite element clears nothing (power 0, det 1).  As
g -> g^{-1} permutes the group, an identity holds for every g . f exactly
when it holds for every f(g x).  A finite group is checked on its distinct
generators, and a finite character is read off them
(``Character.from_generators``).  The function action ``act_on_poly``
stays as a reference; no library routine calls it.

Both ``act_cleared`` methods are thin wrappers over one substitution: a check
element moves each space by numerator rows over det^h, and its substitution
tables are cached per (side, element, ring).  A new check element needs only
its rows and its det power, and det(g) is read only where some h is nonzero.

Conventions (fixed throughout the package):

* points transform by ``x -> M_g x`` (column vectors);
* functions transform by ``(g . f)(x) = f(g^{-1} x)``;
* maps ``F : X -> W`` transform by ``(g . F)(x) = g_W F(g^{-1} x)``, so the
  equivariant maps are exactly the fixed points.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property
from operator import add, itemgetter, mul

from .exactalg import (
    Coeff,
    DimensionError,
    ExactAlgError,
    Matrix,
    Poly,
    PrimeField,
    QMat,
    RatFn,
    coeff_div,
    int_form,
    int_rank_det,
    lift_coeff,
    qmat_det,
)


class ActionError(ExactAlgError):
    """Invalid group data (non-invertible generator, broken homomorphism...)."""


class ClosureCapError(ActionError):
    """Group closure exceeded the configured order cap."""


class SpaceSizeError(ActionError):
    """Over ``MAX_SPACE_VARS``, ``COPY_LETTERS`` or ``MAX_GENERIC_N``; the
    message starts with ``x_copies:``, ``w_copies:`` or ``n:``."""


def indexed_name(prefix: str, *indices: int) -> str:
    """The naming rule: ``prefix`` and the indices, run together while each is at most 9
    (``a12``), else joined by ``_`` (``a1_11``, ``a11_1``), so equal-length tuples differ."""
    sep = "_" if len(indices) > 1 and max(indices) > 9 else ""
    return prefix + sep.join(map(str, indices))


def vector_names(prefix: str, d: int) -> tuple[str, ...]:
    return tuple(indexed_name(prefix, i) for i in range(1, d + 1))


def matrix_names(prefix: str, n: int) -> tuple[str, ...]:
    """The entries of an n x n matrix, row by row."""
    return tuple(indexed_name(prefix, i, j) for i in range(1, n + 1) for j in range(1, n + 1))


# ---------------------------------------------------------------------------
# the cleared substitution, shared by both group models
# ---------------------------------------------------------------------------

def _linear_images(rows, space_vars: tuple[str, ...], out_vars: tuple[str, ...],
                   field: PrimeField | None) -> list[Poly]:
    """The images sum_l rows[k][l] v_l of the space variables v_k over
    ``out_vars``; an entry is a scalar or a polynomial in the g-variables.
    Every term of row k carries exactly one space variable, v_l, so no two
    entries share a key and each image is the concatenation of their term
    dicts."""
    gens = {name: Poly.var(name, out_vars, field) for name in space_vars}
    images = []
    for row in rows:
        out: dict[int, Coeff] = {}
        for name, c in zip(space_vars, row):
            if c:
                x = gens[name]
                out.update((x * c.embed(out_vars)).terms if isinstance(c, Poly)
                           else {key: c for key in x.terms})
        images.append(Poly.packed(out_vars, out, field))
    return images


def _table(action: "GroupAction", side: str, element, out_vars: tuple[str, ...],
           rows) -> dict[str, Poly]:
    """The substitution table of one side of an element, built once per
    (side, element, out_vars) and shared: callers must not mutate it."""
    key = side, element, out_vars
    table = action._tables.get(key)
    if table is None:
        space = action.x_vars if side == "x" else action.w_vars
        table = action._tables[key] = dict(
            zip(space, _linear_images(rows, space, out_vars, action.field)))
    return table


def _cleared_substitution(action: "GroupAction", p: Poly, side: str,
                          out_vars: tuple[str, ...], element,
                          moves) -> tuple[Poly, int]:
    """(num, k) with p(g x) = num / det^k (with side ``xw``, p(g x, g_W w)),
    g an element that moves side s by ``moves(s)`` = (rows, h), that is
    v_k -> sum_l rows[k][l] v_l / det^h.

    A term of degree e_s on side s lands over det^(sum_s h_s e_s), its
    weight.  Each class of terms of equal weight is substituted at once and
    padded by det^(k - weight), k = sum_s h_s (p's largest degree on side
    s).  When every h is 0 (a finite element, a natural or scalar block),
    k = 0 and det(g) is not read.  A monomial element's images are one
    term each, so ``Poly.subs`` relabels the packed keys.
    """
    if side not in ("x", "w", "xw"):
        raise ActionError(f"unknown side {side!r}")
    table = None
    # per space clearing a denominator: (positions of its variables in p, h)
    spans = []
    for name in side:  # "xw" moves both spaces
        rows, h = moves(name)
        images = _table(action, name, element, out_vars, rows)
        # a one-side move reads the shared table as it is
        table = images if table is None else {**table, **images}
        if h:
            spans.append(([i for i, v in enumerate(p.vars) if v in images], h))
    # only a polynomial over variables off the table has its terms scanned
    if not set(p.vars) <= table.keys() and p.support_vars() - table.keys():
        raise DimensionError("polynomial does not live on the declared space")
    if not spans:
        return p.subs(table, out_vars), 0
    classes: dict[int, dict] = {}
    tops = [0] * len(spans)
    for key, coeff in p.terms.items():
        exps = p.exponents(key)
        degrees = [sum(exps[i] for i in pos) for pos, _ in spans]
        tops = [max(t, e) for t, e in zip(tops, degrees)]
        weight = sum(h * e for (_, h), e in zip(spans, degrees))
        classes.setdefault(weight, {})[key] = coeff
    k = sum(h * t for (_, h), t in zip(spans, tops))
    det = action.det_to(1, out_vars)
    num = Poly.zero(out_vars, action.field)
    for weight, terms in classes.items():
        num = num + Poly.packed(p.vars, terms, p.field).subs(table, out_vars) * det ** (k - weight)
    return num, k


class _Spaces:
    """The dimensions both group models read off their variables."""

    @property
    def x_dim(self) -> int:
        return len(self.x_vars)

    @property
    def w_dim(self) -> int:
        return len(self.w_vars)


class FiniteGroupAction(_Spaces):
    """A finite matrix group with linear actions on the X- and W-spaces.

    Elements are indexed 0..order-1 with index 0 the identity; the element
    order is the breadth-first closure order of the generators, so it is
    reproducible from the generator list.
    """

    is_finite = True
    # a finite element moves no g-variables: a check runs over the space ring
    g_vars: tuple[str, ...] = ()

    def __init__(self, x_mats: Sequence[QMat], w_mats: Sequence[QMat],
                 x_vars: tuple[str, ...], w_vars: tuple[str, ...],
                 right: list[list[int]], inv: list[int],
                 field: PrimeField | None = None):
        self.x_mats = x_mats
        self.w_mats = w_mats
        self.x_vars = x_vars
        self.w_vars = w_vars
        # Cayley table: right[i][k] is the index of element i times generator k
        self.right = right
        self.field = field
        self.identity = 0
        # inv[i] is the index of the inverse of element i
        self.inv = inv
        # substitution tables of act_cleared, per (side, element, out_vars)
        self._tables: dict[tuple, dict[str, Poly]] = {}

    # -- structure -----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.right)

    @property
    def generators(self) -> list[int]:
        """The element index of each generator: the identity times it."""
        return self.right[0]

    def elements(self) -> range:
        return range(self.order)

    def check_elements(self) -> list[int]:
        """The elements an identity is checked on: the generators without
        repeats.  The elements satisfying an equivariance identity, or a
        relative-invariance identity under a character, form a subgroup, so
        the identity holds on the whole group iff it holds on these."""
        return list(dict.fromkeys(self.generators))

    def checked_on(self) -> str:
        k = len(self.check_elements())
        return f"on {k} generator{'s' * (k != 1)} ({k} of {self.order} elements)"

    def element_label(self, element: int) -> str:
        return f"element {element}"

    # -- actions on polynomials ------------------------------------------------

    def x_substitution(self, i: int, out_vars: tuple[str, ...] | None = None) -> dict[str, Poly]:
        """Map x_k -> sum_l (M)_{kl} x_l with M the matrix of element i; pass
        ``inv[i]`` for the inverse.  This is the cached X-side table of
        :meth:`act_cleared`; callers must not mutate it."""
        out_vars = tuple(out_vars or self.x_vars)
        return _table(self, "x", i, out_vars, self.x_mats[i])

    def act_cleared(self, p: Poly, side: str, out_vars: tuple[str, ...],
                    element: int) -> tuple[Poly, int]:
        """(p(g x), 0) for the element g, over ``out_vars`` (with side ``xw``,
        p(g x, g_W w)): a finite element clears no denominator."""
        return _cleared_substitution(
            self, p, side, out_vars, element,
            lambda s: ((self.x_mats if s == "x" else self.w_mats)[element], 0))

    def det_to(self, k: int, ring: tuple[str, ...]) -> None:
        """det(g)^k of a check element, None standing for 1: a finite
        element clears no denominator."""
        return None

    def w_cleared(self, element: int, ring: tuple[str, ...]) -> tuple[QMat, None, int]:
        """g_W as (numerator rows, denominator, det power): scalar rows, with
        the denominator None standing for 1."""
        return self.w_mats[element], None, 0

    def act_on_poly(self, i: int, p: Poly | RatFn) -> Poly | RatFn:
        """Function action (g . p)(x) = p(g^{-1} x) on the X-space."""
        if set(p.vars) != set(self.x_vars):
            raise DimensionError("polynomial does not live on the X-space")
        return p.subs(self.x_substitution(self.inv[i], p.vars), p.vars)


def make_finite_group(generators: list[tuple], x_vars: tuple[str, ...] | None = None,
                      w_vars: tuple[str, ...] | None = None, max_order: int = 10_000,
                      field: PrimeField | None = None) -> FiniteGroupAction:
    """Breadth-first closure of (x-matrix, w-matrix) generator pairs.

    The w-images must define a homomorphism from the generated matrix group;
    a collision (same x-matrix reached with two different w-matrices) is
    reported as an error.  Closure past ``max_order`` pairs aborts.

    All of it is integer work.  Each generator entry is read straight to an
    integer form (:func:`int_form`), invertibility is decided by
    ``int_rank_det`` on the numerators (the representatives mod p), and each
    generator is compiled into gather layers (:func:`_layers`), so a product
    is one gather per layer plus one gcd.  The products fill the Cayley
    table ``right``; the inverses are read off it, with no inverse formed.
    The element matrices stay integer forms until something reads them.
    """
    if not generators:
        raise ActionError("at least one generator pair is required")
    gen_pairs = [([[lift_coeff(e, field) for e in row] for row in x],
                  [[lift_coeff(e, field) for e in row] for row in w]) for x, w in generators]
    nx = len(gen_pairs[0][0])
    nw = len(gen_pairs[0][1])
    p = field.p if field is not None else None
    gens = []
    for gx, gw in gen_pairs:
        if len(gx) != nx or any(len(r) != nx for r in gx):
            raise DimensionError("x-generators must be square and of equal size")
        if len(gw) != nw or any(len(r) != nw for r in gw):
            raise DimensionError("w-generators must be square and of equal size")
        pair = []
        for side, m, n in (("x", gx, nx), ("w", gw, nw)):
            form = int_form([e for row in m for e in row], field)
            nums = form[1]
            if not int_rank_det([nums[r:r + n] for r in range(0, n * n, n)], p)[1]:
                raise ActionError(f"{side}-generator is not invertible")
            pair.append(_layers(form, n))
        gens.append(pair)
    x_vars = tuple(x_vars) if x_vars else vector_names("x", nx)
    w_vars = tuple(w_vars) if w_vars else vector_names("w", nw)
    if len(x_vars) != nx or len(w_vars) != nw:
        raise DimensionError("variable names do not match matrix sizes")
    if set(x_vars) & set(w_vars):
        raise ActionError("X and W variable names overlap")

    # breadth first over integer forms: the loop walks the element lists
    # while they grow, and each product with a generator fills one
    # Cayley-table entry
    x_forms = [(1, _identity_nums(nx))]
    w_forms = [(1, _identity_nums(nw))]
    index = {x_forms[0]: 0}
    # element j > 0 was first reached as parent[j] times generator via[j]
    parent, via = [0], [0]
    right: list[list[int]] = []
    for i, (cur_x, cur_w) in enumerate(zip(x_forms, w_forms)):
        row = []
        for k, (gx, gw) in enumerate(gens):
            nxt_x = _int_mul(cur_x, gx, p)
            j = index.get(nxt_x)
            if j is None:
                if len(x_forms) >= max_order:
                    raise ClosureCapError(
                        f"closure exceeded the cap of {max_order} elements")
                j = index[nxt_x] = len(x_forms)
                x_forms.append(nxt_x)
                w_forms.append(_int_mul(cur_w, gw, p))
                parent.append(i)
                via.append(k)
            elif w_forms[j] != _int_mul(cur_w, gw, p):
                raise ActionError(
                    "w-images do not define a homomorphism: one x-matrix "
                    "carries two distinct w-matrices")
            row.append(j)
        right.append(row)
    inv = _inverses(right, parent, via)
    # rows repeat across elements and sides, so each distinct (den,
    # numerators) row is lifted once
    rows: dict[tuple, tuple[Coeff, ...]] = {}
    return FiniteGroupAction(_ElementMatrices(x_forms, nx, rows),
                             _ElementMatrices(w_forms, nw, rows),
                             x_vars, w_vars, right, inv, field)


class _ElementMatrices(Sequence):
    """The matrices of a closure's elements, kept as the closure's integer
    forms (den, flat numerators) and each lifted to rows of field elements
    on its first read: most commands read only the generators.  Over GF(p)
    den is 1, so one division serves both fields."""

    def __init__(self, forms: list, n: int, rows: dict):
        self._forms, self._n, self._rows = forms, n, rows
        self._lifted: list[QMat | None] = [None] * len(forms)

    def __len__(self) -> int:
        return len(self._forms)

    def __getitem__(self, i: int) -> QMat:
        mat = self._lifted[i]
        if mat is None:
            den, nums = self._forms[i]
            n, rows = self._n, self._rows
            out = []
            for r in range(0, n * n, n):
                key = den, nums[r:r + n]
                row = rows.get(key)
                if row is None:
                    row = rows[key] = tuple(coeff_div(v, den) for v in key[1])
                out.append(row)
            mat = self._lifted[i] = tuple(out)
        return mat

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


def _inverses(right: list[list[int]], parent: list[int], via: list[int]) -> list[int]:
    """inv[j], read off the Cayley table of a breadth-first closure.

    Left multiplication L_k by generator k commutes with every right
    multiplication, so L_k[0] = right[0][k] and, for j = parent[j] g_via[j],
    L_k[j] = right[L_k[parent[j]]][via[j]].  Then j^-1 = g_via[j]^-1
    parent[j]^-1 is L_via[j]^-1 at inv[parent[j]], and the parent comes
    first in the closure order.
    """
    order = len(right)
    left_inv = {}
    for k in dict.fromkeys(via[1:]):
        left = [right[0][k]]
        for j in range(1, order):
            left.append(right[left[parent[j]]][via[j]])
        # the inverse permutation: position t holds the j with left[j] = t
        left_inv[k] = sorted(range(order), key=left.__getitem__)
    inv = [0]
    for j in range(1, order):
        inv.append(left_inv[via[j]][inv[parent[j]]])
    return inv


def _identity_nums(n: int) -> tuple[int, ...]:
    """The flattened n x n identity."""
    return tuple(int(k % (n + 1) == 0) for k in range(n * n))


def _layers(form: tuple[int, tuple[int, ...]], n: int) -> tuple[int, list]:
    """(den, layers) of a generator b: b = sum_t B_t, where B_t takes the
    t-th nonzero of each column, so (a B_t)[i][c] = a[i][s] B_t[s][c] for
    the one row s of that nonzero.  A layer is (gather, scales): the gather
    takes a's flat numerators to the a[i][s] at each flat (i, c), and the
    scales are the B_t[s][c] at each (i, c), 0 where column c has no t-th
    nonzero, or None when every one is 1.  A generator is invertible, so
    every column has a nonzero; a permutation or monomial generator has one
    layer."""
    den, nums = form
    cols = [[(s, nums[s * n + c]) for s in range(n) if nums[s * n + c]] for c in range(n)]
    layers = []
    for t in range(max(map(len, cols))):
        picks = [col[t] if t < len(col) else (0, 0) for col in cols]
        idx = [r + s for r in range(0, n * n, n) for s, _ in picks]
        scales = tuple(v for _ in range(n) for _, v in picks)
        # with n = 1, itemgetter of one index returns the entry, not a tuple
        gather = itemgetter(*idx) if n > 1 else lambda nums: nums
        layers.append((gather, None if scales.count(1) == len(scales) else scales))
    return den, layers


def _int_mul(a: tuple[int, tuple[int, ...]], b: tuple,
             p: int | None) -> tuple[int, tuple[int, ...]]:
    """The canonical form of a b, with b given by :func:`_layers`: one
    gather per layer, scaled and summed, then reduced mod p over GF(p) or
    by one gcd over Q."""
    den_a, nums = a
    den_b, layers = b
    acc = None
    for gather, scales in layers:
        part = gather(nums)
        if scales is not None:
            part = map(mul, part, scales)
        acc = part if acc is None else map(add, acc, part)
    if p is not None:
        return 1, tuple(map(p.__rmod__, acc))
    acc = tuple(acc)
    den = den_a * den_b
    if den != 1:
        g = math.gcd(den, *acc)
        if g != 1:
            den //= g
            acc = tuple(map(g.__rfloordiv__, acc))
    return den, acc


# ---------------------------------------------------------------------------
# symbolic (generic-element) actions
# ---------------------------------------------------------------------------


class TemplateSpec:
    """How a space carries the generic GL_n element.

    ``kind`` is one of ``conjugation`` (m-tuples of n x n matrices, acted on
    by simultaneous conjugation), ``natural`` (m-tuples of column vectors),
    ``scalar`` (n must be 1; scaling on a dim-m space), or ``trivial``
    (dim-m space with no action).
    """

    def __init__(self, kind: str, m: int = 1):
        self.kind = kind
        self.m = m

    def __eq__(self, other):
        if not isinstance(other, TemplateSpec):
            return NotImplemented
        return (self.kind, self.m) == (other.kind, other.m)

    def var_names(self, n: int, role: str) -> tuple[str, ...]:
        rows, copies = range(1, n + 1), range(1, self.m + 1)
        if self.kind == "conjugation" and role == "x":
            if self.m > len(COPY_LETTERS):
                raise SpaceSizeError(f"x_copies: {self.m} matrix copies, more than the "
                                     f"{len(COPY_LETTERS)} letters that name them")
            return tuple(name for c in range(self.m)
                         for name in matrix_names(COPY_LETTERS[c], n))
        if self.m == 1 and role == "w" and self.kind in ("conjugation", "natural"):
            return matrix_names("w", n) if self.kind == "conjugation" else vector_names("w", n)
        if self.kind == "conjugation":
            return tuple(indexed_name("w", c, i, j) for c in copies for i in rows for j in rows)
        if self.kind == "natural":
            return tuple(indexed_name(role, i, j) for j in copies for i in rows)
        return vector_names(role, self.m)

    def det_power(self) -> int:
        """h with the action on one copy = block / det(g)^h."""
        return 1 if self.kind == "conjugation" else 0

    def det_exponent(self) -> int:
        """e with det(block / det(g)^h) = det(g)^e: 1 for the block g, 0 for [1].  The
        conjugation block g (x) adj(g)^T has determinant det(g)^n det(adj g)^n =
        det(g)^(n^2) (Kronecker: det(A (x) B) = det(A)^n det(B)^n for n x n A and
        B), and h = 1 divides each of its n^2 rows by det(g), so e = 0."""
        return 1 if self.kind in ("natural", "scalar") else 0

    def block(self, g: Matrix, adj_g: Matrix | None) -> Matrix:
        """Numerator of the action on one copy: ``[1]`` (trivial), ``[s]``
        (scalar), ``g`` (natural) or the n^2 x n^2 conjugation block, the
        only one that reads ``adj_g``."""
        n = g.rows
        if self.kind == "trivial":
            return Matrix.identity(1, g.entries[0][0])
        if self.kind in ("scalar", "natural"):
            return g
        # conjugation, coordinates a_{ij} row-major: (g A adj_g)_{ij} = sum g_{ik} a_{kl} adj_{lj}
        return Matrix([[g.entries[i][k] * adj_g.entries[l][j]
                        for k in range(n) for l in range(n)]
                       for i in range(n) for j in range(n)])


def _block_diagonal(block: Matrix, copies: int) -> Matrix:
    """``copies`` copies of ``block`` down the diagonal."""
    size = block.rows
    zero = block.entries[0][0].ring_zero()
    total = size * copies
    out = [[zero] * total for _ in range(total)]
    for c in range(copies):
        for i in range(size):
            out[c * size + i][c * size:(c + 1) * size] = block.entries[i]
    return Matrix(out)


# the letters of the conjugation copies of X: all but those that start the
# g-, h-, w- and x-variables
COPY_LETTERS = "abcdefijklmnopqrstuvyz"

# the check element of a symbolic action
GENERIC = "generic"

# the most variables of X, W or g in a symbolic action, whose matrices are dense
MAX_SPACE_VARS = 1000

# the largest n whose det(g) is formed.  det(g) has n! terms: on a shared
# 2-CPU machine, forming det(g), adj(g) and Cramer's two products took 51 s
# and 649 MB at n = 7, and was killed at 90 s and 1 GB at n = 8
MAX_GENERIC_N = 7


def generic_matrix(n: int, vars: tuple[str, ...], prefix: str = "g",
                   field: PrimeField | None = None) -> Matrix:
    return Matrix([[Poly.var(indexed_name(prefix, i, j), vars, field) for j in range(1, n + 1)]
                   for i in range(1, n + 1)])


class SymbolicGroupAction(_Spaces):
    """The generic element of GL_n acting through declared templates.

    The X- and W-side action matrices are stored cleared: a numerator matrix
    of polynomials in the g-variables together with the power of ``det(g)``
    it is implicitly divided by.  All identity checks compare cleared
    polynomials, never rational functions.

    Construction checks only what needs no algebra: the template kinds,
    scalar needs n = 1, the sizes of X, W and g, counted before any name is
    built, and the names.  Each part of
    the generic element is built on its first read, once, from the parts it
    reads: ``g_mat``; ``det_poly``; ``adj_mat``; one block per template
    kind, of which only the conjugation block reads ``adj_mat``; and the
    numerators ``x_num`` and ``w_num`` over det^h.  The matrix words read
    none of it, and a natural or scalar action, which has no denominator,
    forms det(g) only for a weight or an identity left with a power of it.
    """

    is_finite = False

    def __init__(self, n: int, x_spec: TemplateSpec, w_spec: TemplateSpec,
                 field: PrimeField | None = None):
        self.n = n
        self.x_spec = x_spec
        self.w_spec = w_spec
        self.field = field
        for spec in (x_spec, w_spec):
            if spec.kind not in _TEMPLATES.values():
                raise ActionError(f"unknown action template {spec.kind!r}")
            if spec.kind == "scalar" and n != 1:
                raise ActionError("scalar template requires a 1x1 generic element")
        # sizes are counted before any name is built
        for role, spec in (("x", x_spec), ("w", w_spec)):
            size = spec.m * {"conjugation": n * n, "natural": n}.get(spec.kind, 1)
            if size > MAX_SPACE_VARS:
                raise SpaceSizeError(
                    f"{role}_copies: {spec.m} copies give {size} {role.upper()}-"
                    f"variables, more than the {MAX_SPACE_VARS} a symbolic action takes")
        if n * n > MAX_SPACE_VARS:
            raise SpaceSizeError(
                f"n: the generic element of GL_{n} has {n * n} g-variables, more than "
                f"the {MAX_SPACE_VARS} a symbolic action takes")
        self.g_vars = matrix_names("g", n)
        self.x_vars = x_spec.var_names(n, "x")
        self.w_vars = w_spec.var_names(n, "w")
        if set(self.x_vars) & set(self.w_vars):
            raise ActionError("X and W variable names overlap")
        if (set(self.x_vars) | set(self.w_vars)) & set(self.g_vars):
            raise ActionError("space variables collide with g-variables")
        # g = id: the diagonal of the row-major g is every (n + 1)-th entry
        self.g_identity = {v: int(k % (n + 1) == 0) for k, v in enumerate(self.g_vars)}
        # substitution tables of act_cleared, per (side, element, out_vars)
        self._tables: dict[tuple, dict[str, Poly]] = {}
        # the rows of w_cleared, per ring
        self._w_rows: dict[tuple, list[list[Poly]]] = {}
        self._blocks: dict[str, Matrix] = {}

    # -- the generic element, part by part ------------------------------------------

    @cached_property
    def g_mat(self) -> Matrix:
        return generic_matrix(self.n, self.g_vars, "g", self.field)

    @cached_property
    def det_poly(self) -> Poly:
        n = self.n
        if n > MAX_GENERIC_N:
            raise SpaceSizeError(
                f"n: the generic element of GL_{n} is not built: its det(g) has "
                f"{n}! = {math.factorial(n)} terms, more than the "
                f"{math.factorial(MAX_GENERIC_N)} of n = {MAX_GENERIC_N}")
        return self.g_mat.det()

    @cached_property
    def adj_mat(self) -> Matrix:
        """adj(g), checked by adj(g) g == det(g) I == g adj(g): adj(g)/det(g)
        is then the two-sided inverse of g, so the conjugation block
        M -> g M adj(g)/det(g) is an action by algebra automorphisms that
        fixes I, the fact the word family's certificate rests on."""
        g, det = self.g_mat, self.det_poly
        adj = g.adjugate()
        det_i = Matrix.identity(self.n, det).scale(det)
        if adj * g != det_i:
            raise ActionError("adjugate check failed: adj(g) g != det(g) I")
        if g * adj != det_i:
            raise ActionError("adjugate check failed: g adj(g) != det(g) I")
        return adj

    def _block(self, spec: TemplateSpec) -> Matrix:
        """The block of ``spec``'s kind, built once and checked to be I at g = id."""
        block = self._blocks.get(spec.kind)
        if block is None:
            adj = self.adj_mat if spec.kind == "conjugation" else None
            block = spec.block(self.g_mat, adj)
            if any(e.eval(self.g_identity) != (1 if i == j else 0)
                   for i, row in enumerate(block.entries) for j, e in enumerate(row)):
                raise ActionError("template does not specialize to the identity at g = id")
            self._blocks[spec.kind] = block
        return block

    @cached_property
    def x_num(self) -> Matrix:
        return _block_diagonal(self._block(self.x_spec), self.x_spec.m)

    @cached_property
    def w_num(self) -> Matrix:
        return _block_diagonal(self._block(self.w_spec), self.w_spec.m)

    # -- cleared actions -----------------------------------------------------------

    def check_elements(self) -> list[str]:
        """The one check element: the generic g stands for every element."""
        return [GENERIC]

    def checked_on(self) -> str:
        return "for the generic element"

    def element_label(self, element: str) -> str:
        return "the generic element"

    def det_to(self, k: int, ring: tuple[str, ...]) -> Poly | None:
        """det(g)^k over ``ring``; det(g)^0 is None, standing for 1."""
        return self.det_poly.embed(ring) ** k if k else None

    def w_cleared(self, element: str, ring: tuple[str, ...]
                  ) -> tuple[list[list[Poly]], None, int]:
        """g_W as (numerator rows over ``ring``, denominator, det power): the
        rows are over det^h alone, and the denominator None stands for 1.
        The rows are embedded once per ring and shared: callers must not
        mutate them."""
        rows = self._w_rows.get(ring)
        if rows is None:
            rows = self._w_rows[ring] = [[e.embed(ring) if e else e for e in row]
                                         for row in self.w_num.entries]
        return rows, None, self.w_spec.det_power()

    def act_cleared(self, p: Poly, side: str = "x",
                    out_vars: tuple[str, ...] | None = None,
                    element: str = GENERIC) -> tuple[Poly, int]:
        """Substitute the point maps into p with determinant powers cleared.

        Returns (num, k) with p(g x) = num / det^k (and, with side ``xw``,
        p(g x, g_W w) = num / det^k), g being the one check element.  The
        function action p(g^{-1} x) is never formed: g -> g^{-1} is an
        automorphism of k[g_ij, 1/det], so an identity holds for every g . p
        exactly when it holds for every p(g x).
        """
        out_vars = out_vars or tuple(dict.fromkeys(p.vars + self.g_vars))
        return _cleared_substitution(
            self, p, side, out_vars, element,
            lambda s: ((self.x_num.entries, self.x_spec.det_power()) if s == "x"
                       else (self.w_num.entries, self.w_spec.det_power())))

    def act_on_poly(self, p: Poly | RatFn, side: str = "x") -> RatFn:
        """Function action p(g^{-1} x) by the generic element, as a rational
        function in the space variables extended by the g-variables: the
        cleared forward image at g -> adj(g)/det(g), times det^k."""
        out_vars = tuple(dict.fromkeys(p.vars + self.g_vars))
        det = self.det_poly.embed(out_vars)
        adj = (a for row in self.adj_mat.entries for a in row)
        inverse = {v: RatFn(a.embed(out_vars), det, reduce=False)
                   for v, a in zip(self.g_vars, adj)}

        def moved(q: Poly) -> RatFn:
            num, k = self.act_cleared(q, side, out_vars)
            return RatFn(det ** k) * num.subs(inverse, out_vars)

        if isinstance(p, RatFn):
            return moved(p.num) / moved(p.den)
        return moved(p)


_TEMPLATES = {"gl_conjugation": "conjugation", "gl_natural": "natural",
              "scalar": "scalar", "trivial": "trivial"}


def symbolic_general_linear(n: int, x_template: str, w_template: str,
                            x_copies: int = 1, w_copies: int = 1,
                            field: PrimeField | None = None) -> SymbolicGroupAction:
    """Build a symbolic action from the template names ``gl_conjugation``,
    ``gl_natural``, ``scalar`` and ``trivial`` (see :class:`TemplateSpec`)."""
    for name in (x_template, w_template):
        if name not in _TEMPLATES:
            raise ActionError(
                f"unknown template {name!r}; expected one of {sorted(_TEMPLATES)}")
    x_spec = TemplateSpec(_TEMPLATES[x_template], x_copies)
    w_spec = TemplateSpec(_TEMPLATES[w_template], w_copies)
    return SymbolicGroupAction(n, x_spec, w_spec, field)


GroupAction = FiniteGroupAction | SymbolicGroupAction


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


class Character:
    """A multiplicative character of the group model.

    Finite model: a table of nonzero field values aligned with the element
    indices.  Symbolic model: a rational function of the g-variables (in
    practice, a power of det(g)).
    """

    def __init__(self, action: GroupAction, table: list | None = None,
                 ratfn: RatFn | None = None):
        self.action = action
        if action.is_finite:
            if table is None:
                raise ActionError("finite characters need a value table")
            if len(table) != action.order:
                raise DimensionError("character table length mismatch")
            if any(not v for v in table):
                raise ActionError("character values must be nonzero")
            self.table = list(table)
            self.ratfn = None
        else:
            if ratfn is None:
                raise ActionError("symbolic characters need a rational function")
            if not set(ratfn.support_vars()) <= set(action.g_vars):
                raise ActionError("symbolic character must depend only on the "
                                  "g-variables")
            self.table = None
            self.ratfn = ratfn

    @classmethod
    def trivial(cls, action: GroupAction) -> "Character":
        if action.is_finite:
            return cls(action, table=[1] * action.order)
        return cls(action, ratfn=RatFn.one(action.g_vars, action.field))

    @classmethod
    def from_generators(cls, action: FiniteGroupAction, values: list) -> "Character":
        """The character with ``values`` on the distinct generators, which
        the caller vouches belong to a character.  Over the Cayley table,
        an element takes the value of its breadth-first parent times that
        of the generator it was first reached by."""
        at = dict(zip(action.check_elements(), values))
        gen_values = [at[g] for g in action.generators]
        field = action.field
        table = [1] + [None] * (action.order - 1)
        for i, row in enumerate(action.right):
            for j, v in zip(row, gen_values):
                if table[j] is None:
                    table[j] = lift_coeff(table[i] * v, field)
        return cls(action, table=table)

    def value(self, i: int):
        return self.table[i]

    def inverse_cleared(self, element, ring: tuple[str, ...]) -> tuple:
        """theta^-1 at a check element as (rows, denominator, det power), the
        1 x 1 M(g) of f(gx) = M(g) f(x) for f of weight theta: 1 over the
        table value for a finite element, den over num of the rational
        function, both over ``ring``, for the generic one."""
        if self.table is not None:
            return [[1]], self.table[element], 0
        return [[self.ratfn.den.embed(ring)]], self.ratfn.num.embed(ring), 0

    def is_trivial(self) -> bool:
        if self.table is not None:
            return all(v == 1 for v in self.table)
        return self.ratfn == 1

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        if self.table is not None and other.table is not None:
            return self.table == other.table
        if self.ratfn is not None and other.ratfn is not None:
            return self.ratfn == other.ratfn
        return False

    __hash__ = None

    def check_multiplicative(self) -> bool:
        """theta(gh) = theta(g) theta(h); a two-generic-element polynomial
        identity for symbolic groups.  For finite groups theta(e) = 1 and
        theta(i gen_k) = theta(i) theta(gen_k) over the Cayley table: every
        element is a word in the generators, so that is the whole identity."""
        action = self.action
        if action.is_finite:
            t, field = self.table, action.field
            gen_values = [t[g] for g in action.generators]
            return t[action.identity] == 1 and all(
                t[j] == lift_coeff(t[i] * v, field)
                for i, row in enumerate(action.right) for j, v in zip(row, gen_values))
        n = action.n
        ring = action.g_vars + matrix_names("h", n)
        g = generic_matrix(n, ring, "g", action.field)
        h = generic_matrix(n, ring, "h", action.field)
        theta = self.ratfn.embed(ring)

        def at(mat: Matrix) -> RatFn:
            entries = (e for row in mat.entries for e in row)
            return theta.subs(dict(zip(action.g_vars, entries)), ring)

        at_identity = self.ratfn.eval(action.g_identity)
        return at(g * h) == theta * at(h) and at_identity == 1

    def __str__(self):
        if self.table is not None:
            return "[" + ", ".join(str(v) for v in self.table) + "]"
        return str(self.ratfn)

    def __repr__(self):
        return f"Character({self})"


def det_w_inverse_character(action: GroupAction) -> Character:
    """The character g -> det(g_W)^{-1} attached to determinant invariants."""
    if action.is_finite:
        return Character.from_generators(action, [
            coeff_div(1, qmat_det(action.w_mats[g], action.field), action.field)
            for g in action.check_elements()])
    # g_W is m copies of one W block: det(g_W) = det(g)^(e m), with no elimination
    power = action.w_spec.det_exponent() * action.w_spec.m
    if not power:
        return Character.trivial(action)
    return Character(action, ratfn=RatFn(action.det_poly.ring_one(), action.det_poly ** power))


# ---------------------------------------------------------------------------
# product spaces (X x Y with the same group)
# ---------------------------------------------------------------------------


def extend_finite_action(action: FiniteGroupAction, y_vars: tuple[str, ...],
                         y_mats: list[QMat]) -> FiniteGroupAction:
    """Product action on X x Y: same elements, block-diagonal x-matrices.

    ``y_mats`` must be aligned with the element indices of ``action``.  The
    block-diagonal generators are closed, capped at |G|.  The closure maps
    onto G, so it stays within the cap exactly when that map is a
    bijection; the closure then walks the Cayley graph of G, element i is
    element i of ``action``, and Y is a homomorphism exactly when element i
    carries ``y_mats[i]``.  A singular Y at a generator, or a closure past
    the cap, is no homomorphism.
    """
    if len(y_mats) != action.order:
        raise DimensionError("need one Y-matrix per group element")
    y_vars = tuple(y_vars)
    if set(y_vars) & (set(action.x_vars) | set(action.w_vars)):
        raise ActionError("variable-name collision between X and Y")
    nx, ny, field = action.x_dim, len(y_vars), action.field
    ys = [tuple(tuple(lift_coeff(e, field) for e in row) for row in y) for y in y_mats]
    if any(len(y) != ny or any(len(r) != ny for r in y) for y in ys):
        raise DimensionError("Y-matrix size does not match y_vars")
    gens = [([list(row) + [0] * ny for row in action.x_mats[g]]
             + [[0] * nx + list(row) for row in ys[g]], action.w_mats[g])
            for g in action.generators]
    try:
        product = make_finite_group(gens, action.x_vars + y_vars, action.w_vars,
                                    action.order, field)
        if all(tuple(row[nx:] for row in m[nx:]) == y for m, y in zip(product.x_mats, ys)):
            return product
    except ActionError:
        pass
    raise ActionError("Y-matrices do not define a homomorphism")
