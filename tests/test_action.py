"""Group models: finite closure, symbolic templates, characters, actions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from covar.action import (
    ActionError,
    Character,
    ClosureCapError,
    SymbolicGroupAction,
    TemplateSpec,
    _block_diagonal,
    det_w_inverse_character,
    extend_finite_action,
    generic_matrix,
    make_finite_group,
    matrix_names,
    symbolic_general_linear,
    vector_names,
)
from covar import action as action_module
from covar import exactalg as exactalg_module
from covar.exactalg import (
    DimensionError,
    ExactAlgError,
    Matrix,
    Poly,
    PrimeField,
    RatFn,
    qmat,
    qmat_identity,
    qmat_mul,
)

from conftest import CYCLE3, SWAP, SWAP3, group_mul, qmat_inv


def test_swap_closure_order_two():
    G = make_finite_group([(SWAP, SWAP)])
    assert G.order == 2
    assert G.identity == 0
    assert G.inv == [0, 1]


def test_s3_closure_order_six():
    G = make_finite_group([(CYCLE3, CYCLE3), (SWAP3, SWAP3)])
    assert G.order == 6
    for i in G.elements():
        assert group_mul(G, i, G.inv[i]) == G.identity


def test_unipotent_hits_closure_cap():
    with pytest.raises(ClosureCapError):
        make_finite_group([([["1", "1"], ["0", "1"]],
                           [["1", "0"], ["0", "1"]])], max_order=64)


def test_non_invertible_generator_rejected():
    with pytest.raises(ActionError):
        make_finite_group([([["1", "1"], ["1", "1"]], SWAP)])


def test_w_images_must_be_homomorphic():
    order4 = [["0", "-1"], ["1", "0"]]
    with pytest.raises(ActionError, match="homomorphism"):
        make_finite_group([(SWAP, order4)])


def test_x_w_name_collision_rejected():
    with pytest.raises(ActionError):
        make_finite_group([(SWAP, SWAP)], x_vars=("x1", "x2"), w_vars=("x1", "w2"))


def test_act_on_poly_examples():
    G = make_finite_group([(SWAP, SWAP)])
    x1, x2 = Poly.gens(G.x_vars)
    assert G.act_on_poly(1, x1 * x2**2) == x2 * x1**2
    p = x1**3 - 2 * x2
    assert G.act_on_poly(0, p) == p


def test_act_preserves_degree_for_linear_actions():
    G = make_finite_group([(CYCLE3, CYCLE3), (SWAP3, SWAP3)])
    p = Poly.parse("x1^2*x2 - x3^3", G.x_vars)
    for g in G.elements():
        assert G.act_on_poly(g, p).total_degree() == p.total_degree()


@settings(max_examples=20, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                 st.integers(0, 2)),
                       st.fractions(min_value=-4, max_value=4,
                                    max_denominator=3).filter(bool),
                       max_size=3))
def test_finite_action_composes(terms):
    G = make_finite_group([(CYCLE3, CYCLE3), (SWAP3, SWAP3)])
    p = Poly(G.x_vars, terms)
    for g in G.elements():
        for h in G.elements():
            assert G.act_on_poly(g, G.act_on_poly(h, p)) == \
                G.act_on_poly(group_mul(G, g, h), p)


def test_scalar_action_on_variable():
    S = symbolic_general_linear(1, "scalar", "scalar", x_copies=2, w_copies=1)
    x1 = Poly.var("x1", S.x_vars)
    moved = S.act_on_poly(x1)
    ring = moved.vars
    assert moved == RatFn(Poly.var("x1", ring), Poly.var("g11", ring))


@pytest.mark.parametrize("kind,n,copies,text,expected", [
    ("gl_natural", 2, 1, "x11^2 + 3*x21",
     "(-3*x21*g11*g12*g21 + 3*x21*g11^2*g22 + x21^2*g12^2 + 3*x11*g12*g21^2 "
     "- 3*x11*g11*g21*g22 - 2*x11*x21*g12*g22 + x11^2*g22^2)/"
     "(g12^2*g21^2 - 2*g11*g12*g21*g22 + g11^2*g22^2)"),
    ("gl_conjugation", 2, 1, "a12",
     "(-a22*g12*g22 - a21*g12^2 + a12*g22^2 + a11*g12*g22)/(-g12*g21 + g11*g22)"),
    ("gl_conjugation", 2, 1, "a11 + a22", "a22 + a11"),
    ("scalar", 1, 2, "x1^2 - x2", "(-x2*g11 + x1^2)/(g11^2)"),
    ("scalar", 1, 2, "(x1)/(x2^2 + 1)", "(x1*g11)/(g11^2 + x2^2)"),
], ids=["natural", "conjugation", "conjugation-trace", "scalar", "scalar-ratfn"])
def test_symbolic_act_on_poly_is_the_function_action(kind, n, copies, text, expected):
    """p(g^{-1} x) as a reduced rational function, in pinned canonical form:
    the function action is derived from the forward point maps."""
    G = symbolic_general_linear(n, kind, kind, x_copies=copies)
    p = RatFn.parse(text, G.x_vars)
    assert str(G.act_on_poly(p.as_poly() if p.is_poly() else p)) == expected


def test_symbolic_templates_dimensions():
    C = symbolic_general_linear(2, "gl_conjugation", "gl_conjugation",
                                x_copies=2, w_copies=1)
    assert len(C.x_vars) == 8 and len(C.w_vars) == 4 and len(C.g_vars) == 4
    N = symbolic_general_linear(3, "gl_natural", "gl_natural", x_copies=4)
    assert len(N.x_vars) == 12 and len(N.w_vars) == 3


def test_unknown_template_rejected():
    with pytest.raises(ActionError, match="unknown template"):
        symbolic_general_linear(2, "so_adjoint", "gl_natural")


def test_scalar_template_needs_n_equal_one():
    with pytest.raises(ActionError):
        symbolic_general_linear(2, "scalar", "scalar")


@pytest.mark.parametrize("kind,n,copies", [
    ("conjugation", 2, 1), ("conjugation", 3, 1), ("natural", 2, 3),
    ("scalar", 1, 2), ("trivial", 2, 2),
])
def test_template_operator_is_multiplicative(kind, n, copies):
    """The action numerator, one block per copy down the diagonal as the
    symbolic action builds it, is multiplicative."""
    spec = TemplateSpec(kind, copies)
    ring = matrix_names("g", n) + matrix_names("h", n)
    g = generic_matrix(n, ring, "g")
    h = generic_matrix(n, ring, "h")

    def operator(m):
        return _block_diagonal(spec.block(m, m.adjugate()), copies)

    assert operator(g) * operator(h) == operator(g * h)


def test_wrong_adjugate_or_identity_block_is_rejected(monkeypatch):
    adjugate, block = Matrix.adjugate, TemplateSpec.block

    def one_wrong_entry(self):
        # doubled off the diagonal, so every block is still I at g = id
        out = adjugate(self)
        out.entries[0][1] = out.entries[0][1] * 2
        return out

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "adjugate", one_wrong_entry)
        G = symbolic_general_linear(3, "gl_conjugation", "gl_conjugation", x_copies=2)
        with pytest.raises(ActionError, match="adjugate check"):
            G.x_num

    def wrong_at_identity(self, g, adj_g):
        out = block(self, g, adj_g)
        if self.kind == "conjugation":
            out.entries[0][0] = out.entries[0][0] + out.entries[0][0].ring_one()
        return out

    monkeypatch.setattr(TemplateSpec, "block", wrong_at_identity)
    G = symbolic_general_linear(3, "gl_conjugation", "gl_conjugation", x_copies=2)
    with pytest.raises(ActionError, match="identity at g = id"):
        G.x_num


def test_conjugation_fixes_trace_and_det():
    C = symbolic_general_linear(2, "gl_conjugation", "gl_conjugation", x_copies=1)
    for text in ("a11 + a22", "a11*a22 - a12*a21"):
        p = Poly.parse(text, C.x_vars)
        num, k = C.act_cleared(p, "x")
        det = C.det_poly.embed(num.vars)
        assert num == p.embed(num.vars) * det**k


def test_act_cleared_inverse_composition():
    C = symbolic_general_linear(2, "gl_conjugation", "gl_conjugation", x_copies=1)
    p = Poly.parse("a11^2 - a12*a21", C.x_vars)
    fwd, kf = C.act_cleared(p, "x")
    # the cleared image at g = [[1, 2], [3, 4]] is p(g A g^{-1}) det(g)^kf,
    # with g A g^{-1} multiplied out over Fractions
    g = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    det_val = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    g_inv = [[g[1][1] / det_val, -g[0][1] / det_val],
             [-g[1][0] / det_val, g[0][0] / det_val]]
    A = [[2, -1], [5, 3]]
    moved = [[sum(g[i][k] * A[k][l] * g_inv[l][j] for k in range(2) for l in range(2))
              for j in range(2)] for i in range(2)]
    moved_point = {f"a{i + 1}{j + 1}": moved[i][j] for i in range(2) for j in range(2)}
    point = {f"a{i + 1}{j + 1}": A[i][j] for i in range(2) for j in range(2)}
    g_point = {f"g{i + 1}{j + 1}": g[i][j] for i in range(2) for j in range(2)}
    assert fwd.eval({**point, **g_point}) == p.eval(moved_point) * det_val**kf


ROTATION = [["0", "-1"], ["1", "0"]]
ROTATION_AND_SIGN = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "-1"]]

# one group per model and template: (name, factory)
CLEARED_GROUPS = {
    "s3": lambda: make_finite_group([(CYCLE3, CYCLE3), (SWAP3, SWAP3)]),
    "rotation-on-k3": lambda: make_finite_group([(ROTATION, ROTATION_AND_SIGN)]),
    "gl2-conjugation": lambda: symbolic_general_linear(
        2, "gl_conjugation", "gl_conjugation", x_copies=2, w_copies=1),
    "gl2-natural-2-copies": lambda: symbolic_general_linear(
        2, "gl_natural", "gl_natural", x_copies=2),
    "scalar": lambda: symbolic_general_linear(1, "scalar", "scalar", x_copies=2),
}


def _reference_images(G, side: str, ring: tuple, element) -> dict:
    """The point maps of one element as RatFn images over ``ring``, written
    as the matrix product rows * (v_1, ..., v_n)^T over det^h."""
    out = {}
    for s in ("x", "w") if side == "xw" else (side,):
        space = G.x_vars if s == "x" else G.w_vars
        if G.is_finite:
            rows, den = (G.x_mats if s == "x" else G.w_mats)[element], Poly.one(ring, G.field)
            rows = [[Poly.const(c, ring, G.field) for c in row] for row in rows]
        else:
            num, spec = (G.x_num, G.x_spec) if s == "x" else (G.w_num, G.w_spec)
            h = spec.det_power()
            rows, den = num.embed(ring).entries, G.det_poly.embed(ring) ** h
        column = Matrix([[Poly.var(v, ring, G.field)] for v in space])
        for v, (img,) in zip(space, (Matrix(rows) * column).entries):
            out[v] = RatFn(img, den)
    return out


@pytest.mark.parametrize("group,side,text,k", [
    ("s3", "x", "x1^2*x2 - x3^3", 0),
    ("s3", "x", "x1^2 + 2*x2 + 1", 0),
    ("s3", "w", "w1*w3 + w2^2", 0),
    ("s3", "xw", "x1*w2 - x3^2*w1 + w3 + 5", 0),
    ("rotation-on-k3", "x", "x1^3 + x1*x2", 0),
    ("rotation-on-k3", "w", "w1*w3 - w2^2", 0),
    ("rotation-on-k3", "xw", "x1*w3 + x2^2*w2 - 1", 0),
    ("gl2-conjugation", "x", "a11*b12 - a21*b12", 2),
    ("gl2-conjugation", "x", "a11^2*b22 + a12 + 3", 3),
    ("gl2-conjugation", "w", "w11*w22 - w12*w21", 2),
    ("gl2-conjugation", "w", "w12^2 + w21", 2),
    # k = 1 * 2 + 1 * 1: the largest degrees on each side, not the largest
    # weight of a term (2)
    ("gl2-conjugation", "xw", "a11^2 + b12*w21", 3),
    ("gl2-conjugation", "xw", "a12*w11 + w22^2 + 1", 3),
    ("gl2-natural-2-copies", "x", "x11*x22 - x21*x12", 0),
    ("gl2-natural-2-copies", "xw", "x11^2*w2 + x12 + w1", 0),
    ("scalar", "x", "x1^2 + x2", 0),
    ("scalar", "xw", "x1*w1 - x2^3", 0),
])
def test_act_cleared_matches_a_matrix_product_reference(group, side, text, k):
    """num equals p at the reference images times det^k, k pinned, on every
    element of a finite group and at the generic element."""
    G = CLEARED_GROUPS[group]()
    ring = G.x_vars + G.w_vars + G.g_vars
    p = Poly.parse(text, ring)
    det = None if G.is_finite else G.det_poly.embed(ring)
    for e in G.elements() if G.is_finite else G.check_elements():
        num, got_k = G.act_cleared(p, side, ring, e)
        assert got_k == k
        ref = p.subs(_reference_images(G, side, ring, e), ring)
        assert RatFn(num) == (ref if det is None else ref * RatFn(det ** k))


@pytest.mark.parametrize("group,moved", [
    ("s2", "w2"),
    ("gl2-natural", "g11*w1 + g12*w2"),
])
def test_act_cleared_moves_its_side_and_refuses_the_rest(group, moved):
    """Side w moves the W-variables; an unknown side, a variable of the other
    side and one of neither space are refused by both models."""
    G = (make_finite_group([(SWAP, SWAP)]) if group == "s2"
         else symbolic_general_linear(2, "gl_natural", "gl_natural"))
    ring = G.x_vars + G.w_vars + G.g_vars + ("t",)
    e = G.check_elements()[0]
    w1, x1, t = (Poly.var(v, ring) for v in (G.w_vars[0], G.x_vars[0], "t"))
    num, k = G.act_cleared(w1, "w", ring, e)
    assert (num, k) == (Poly.parse(moved, ring), 0)
    with pytest.raises(ActionError, match="unknown side"):
        G.act_cleared(w1, "wx", ring, e)
    for p, side in ((w1, "x"), (x1, "w"), (x1 * t, "x"), (t, "xw")):
        with pytest.raises(DimensionError, match="declared space"):
            G.act_cleared(p, side, ring, e)


def test_act_cleared_reads_one_side_table_as_it_is(s3, monkeypatch):
    """A one-side move hands the shared substitution table itself to
    Poly.subs, and a polynomial whose ring lies in the table's variables is
    not scanned for the variables it uses; a two-side move merges the two
    tables into a fresh dict, leaving both shared ones as they were."""
    ring = s3.x_vars + s3.w_vars
    seen, scans = [], []
    subs, support = Poly.subs, Poly.support_vars
    monkeypatch.setattr(Poly, "subs", lambda self, images, out_vars=None:
                        seen.append(images) or subs(self, images, out_vars))
    monkeypatch.setattr(Poly, "support_vars", lambda self: scans.append(self) or support(self))
    p = Poly.parse("x1^2*x2 + x3", s3.x_vars)
    num, k = s3.act_cleared(p, "x", s3.x_vars, 1)
    table = s3._tables["x", 1, s3.x_vars]
    assert (num, k) == (p.subs(dict(table), s3.x_vars), 0)
    assert seen[0] is table and scans == []
    q = Poly.parse("x1*w2 + x3", ring)
    s3.act_cleared(q, "xw", ring, 1)
    x_table, w_table = s3._tables["x", 1, ring], s3._tables["w", 1, ring]
    assert seen[-1] == {**x_table, **w_table} and seen[-1] is not x_table
    assert set(x_table) == set(s3.x_vars) and set(w_table) == set(s3.w_vars)
    assert scans == []


def test_two_generic_elements_compose():
    """Substituting the point map of g and then that of h is substituting
    the point map of h g: q(x) = p(h x) gives q(g x) = p(h g x)."""
    C = symbolic_general_linear(2, "gl_natural", "gl_natural")
    x1 = Poly.var("x11", C.x_vars)
    g_point = {"g11": 1, "g12": 2, "g21": 0, "g22": 1}
    h_point = {"g11": 3, "g12": 0, "g21": 1, "g22": 1}
    hg = [[3, 6], [1, 3]]  # h * g for the two matrices above

    def act_at(point, p):
        num, k = C.act_cleared(p, "x")
        vals = {**{v: point[v] for v in C.g_vars},
                **{v: Poly.var(v, C.x_vars) for v in C.x_vars}}
        det_val = C.det_poly.eval(point)
        out = Poly.zero(C.x_vars)
        for exps, coeff in num.exponent_items():
            term = Poly.const(coeff, C.x_vars)
            for name, e in zip(num.vars, exps):
                if not e:
                    continue
                v = vals[name]
                term = term * (v**e if isinstance(v, Poly)
                               else Poly.const(v**e, C.x_vars))
            out = out + term
        return out * Fraction(1, int(det_val**k))

    p = x1
    one_then_other = act_at(g_point, act_at(h_point, p))
    combined = act_at({"g11": hg[0][0], "g12": hg[0][1],
                       "g21": hg[1][0], "g22": hg[1][1]}, p)
    assert one_then_other == combined


def test_character_multiplicative_finite():
    G = make_finite_group([(SWAP, SWAP)])
    theta = det_w_inverse_character(G)
    assert theta.table == [Fraction(1), Fraction(-1)]
    assert theta.check_multiplicative()
    with pytest.raises(ActionError):
        Character(G, table=[Fraction(1), Fraction(0)])


def test_character_multiplicative_symbolic():
    C = symbolic_general_linear(2, "gl_conjugation", "gl_conjugation", x_copies=2)
    theta = det_w_inverse_character(C)
    assert theta.is_trivial()
    assert theta.check_multiplicative()
    N = symbolic_general_linear(2, "gl_natural", "gl_natural")
    theta_n = det_w_inverse_character(N)
    assert not theta_n.is_trivial()
    assert theta_n.check_multiplicative()


# (template, n) of every kind; scalar needs n = 1, trivial takes any n
WEIGHT_TEMPLATES = [("gl_conjugation", 1), ("gl_conjugation", 2), ("gl_natural", 1),
                    ("gl_natural", 2), ("gl_natural", 3), ("scalar", 1), ("trivial", 1),
                    ("trivial", 2)]


@pytest.mark.parametrize("template,n", WEIGHT_TEMPLATES)
@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("prime", [None, 5])
def test_template_weight_equals_the_eliminated_determinant(template, n, copies, prime,
                                                          monkeypatch):
    """det(g_W)^-1 read off the template is the reference
    det(g)^(h dim W) / det(w_num), in value and in print, and takes no
    determinant."""
    field = PrimeField(prime) if prime else None
    G = symbolic_general_linear(n, template, template, w_copies=copies, field=field)
    reference = RatFn(G.det_poly ** (G.w_spec.det_power() * G.w_dim), G.w_num.det())

    def no_det(self):
        raise AssertionError("the weight took a determinant")

    monkeypatch.setattr(Matrix, "det", no_det)
    theta = det_w_inverse_character(G).ratfn
    assert theta == reference
    assert str(theta) == str(reference)


def test_weight_prints_as_before():
    conj = symbolic_general_linear(2, "gl_conjugation", "gl_conjugation", x_copies=2)
    natural = symbolic_general_linear(2, "gl_natural", "gl_natural")
    assert str(det_w_inverse_character(conj)) == "1"
    assert str(det_w_inverse_character(natural)) == "(1)/(-g12*g21 + g11*g22)"


@pytest.mark.parametrize("x_template,w_template,kinds", [
    ("gl_conjugation", "gl_conjugation", ["conjugation"]),
    ("gl_natural", "gl_natural", ["natural"]),
    ("gl_natural", "trivial", ["natural", "trivial"]),
    ("trivial", "gl_conjugation", ["trivial", "conjugation"]),
])
def test_one_block_per_distinct_kind(x_template, w_template, kinds, monkeypatch):
    built = []
    block = TemplateSpec.block
    monkeypatch.setattr(TemplateSpec, "block",
                        lambda self, g, adj: built.append(self.kind) or block(self, g, adj))
    G = symbolic_general_linear(2, x_template, w_template, x_copies=2)
    G.x_num, G.w_num
    assert sorted(built) == sorted(kinds)


def _names_before(kind, m, n, role):
    """The names every template gave before indices could reach 10; a
    conjugation W of several copies had names for one copy only."""
    if kind == "conjugation":
        if role == "w":
            return tuple(f"w{i}{j}" for i in range(1, n + 1)
                         for j in range(1, n + 1)) if m == 1 else None
        return tuple(f"{'abc'[c]}{i}{j}" for c in range(m)
                     for i in range(1, n + 1) for j in range(1, n + 1))
    if kind == "natural" and not (role == "w" and m == 1):
        return tuple(f"{role}{i}{j}" for j in range(1, m + 1) for i in range(1, n + 1))
    return tuple(f"{role}{i}" for i in range(1, (n if kind == "natural" else m) + 1))


@pytest.mark.parametrize("kind", ["conjugation", "natural", "scalar", "trivial"])
def test_names_are_distinct_and_unchanged_below_ten(kind):
    """Every template and role, and the g- and h-names, stay distinct up to
    n = 12 (only names are made: no action is built), and are as before
    while every index is at most 9."""
    for n in range(1, 13):
        g_names, h_names = matrix_names("g", n), matrix_names("h", n)
        assert len(set(g_names + h_names)) == 2 * n * n
        if n <= 9:
            assert g_names == tuple(f"g{i}{j}" for i in range(1, n + 1)
                                    for j in range(1, n + 1))
        for m in (1, 2, 3) + ((10, 11) if kind != "conjugation" else ()):
            x, w = (TemplateSpec(kind, m).var_names(n, role) for role in ("x", "w"))
            size = m * {"conjugation": n * n, "natural": n}.get(kind, 1)
            assert len(set(x)) == len(x) == size and len(set(w)) == len(w) == size
            assert not set(x) & set(w) and not set(x + w) & set(g_names)
            for role, names in (("x", x), ("w", w)):
                before = _names_before(kind, m, n, role)
                if n <= 9 and m <= 9 and before:
                    assert names == before
    assert TemplateSpec("conjugation", 2).var_names(11, "x")[10] == "a1_11"
    assert TemplateSpec("conjugation", 2).var_names(11, "x")[110] == "a11_1"


def test_conjugation_copies_skip_the_letters_of_other_variables():
    """Copies 1-6 keep the letters a-f; from the seventh on no copy takes
    g, h, w or x, so 22 copies build and the 23rd is refused by name."""
    names = TemplateSpec("conjugation", 22).var_names(1, "x")
    assert names[:6] == ("a11", "b11", "c11", "d11", "e11", "f11")
    assert names[6] == "i11" and not {name[0] for name in names} & set("ghwx")
    G = symbolic_general_linear(1, "gl_conjugation", "gl_conjugation", x_copies=22)
    assert G.x_vars == names
    with pytest.raises(action_module.SpaceSizeError,
                       match="^x_copies: 23 matrix copies, more than the 22 letters"):
        symbolic_general_linear(1, "gl_conjugation", "gl_conjugation", x_copies=23)


def test_the_word_family_at_n_12_fits_a_symbolic_space():
    assert len(TemplateSpec("conjugation", 2).var_names(12, "x")) == 288
    assert 288 <= action_module.MAX_SPACE_VARS


@pytest.mark.parametrize("copies", ["x_copies", "w_copies"])
def test_a_space_past_the_bound_is_refused_before_any_block(copies, monkeypatch):
    monkeypatch.setattr(TemplateSpec, "block", None)
    with pytest.raises(action_module.SpaceSizeError, match=f"^{copies}: 40000 copies "
                       "give 40000 [XW]-variables"):
        symbolic_general_linear(1, "trivial", "trivial", **{copies: 40000})


def test_symbolic_character_must_avoid_space_variables():
    N = symbolic_general_linear(2, "gl_natural", "gl_natural")
    bad = RatFn(Poly.var("g11", N.g_vars))
    ok = Character(N, ratfn=bad)  # depends only on g-variables
    assert ok.ratfn == bad
    mixed_ring = N.x_vars + N.g_vars
    with pytest.raises(ActionError):
        Character(N, ratfn=RatFn(Poly.var("x11", mixed_ring)))


def test_extend_finite_action_product_blocks():
    G = make_finite_group([(SWAP, SWAP)])
    ext = extend_finite_action(G, ("y1", "y2"), [
        [["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]])
    assert ext.x_vars == ("x1", "x2", "y1", "y2")
    assert ext.order == G.order
    p = Poly.parse("y1 - x1", ext.x_vars)
    assert ext.act_on_poly(1, p) == Poly.parse("y2 - x2", ext.x_vars)
    with pytest.raises(ActionError, match="collision"):
        extend_finite_action(G, ("x1", "y2"), [
            [["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]])


def _perm(images):
    n = len(images)
    return [["1" if images[i] == j else "0" for j in range(n)] for i in range(n)]


def _symmetric_generators(n):
    cycle = _perm([(i + 1) % n for i in range(n)])
    swap = _perm([1, 0] + list(range(2, n)))
    return [(cycle, cycle), (swap, swap)]


@pytest.mark.parametrize("n,order", [(4, 24), (5, 120)])
def test_inverses_read_off_the_closure_tree(n, order):
    G = make_finite_group(_symmetric_generators(n))
    assert G.order == order
    ident = G.x_mats[G.identity]
    for i in G.elements():
        assert qmat_mul(G.x_mats[i], G.x_mats[G.inv[i]]) == ident


def _naive_closure(generators, field=None):
    """Breadth-first closure by matrix products over Q or GF(p), a list
    search per product and one Gauss-Jordan inverse per element."""
    gens = [(qmat(x, field), qmat(w, field)) for x, w in generators]
    xs = [qmat_identity(len(gens[0][0]))]
    ws = [qmat_identity(len(gens[0][1]))]
    right = []
    for cur_x, cur_w in zip(xs, ws):
        row = []
        for gx, gw in gens:
            nxt = qmat_mul(cur_x, gx, field)
            if nxt not in xs:
                xs.append(nxt)
                ws.append(qmat_mul(cur_w, gw, field))
            row.append(xs.index(nxt))
        right.append(row)
    inv = [xs.index(qmat_inv(m, field)) for m in xs]
    return xs, ws, right, inv, right[0]


def test_reference_inverse():
    m = qmat([["0", "1"], ["1", "0"]])
    assert qmat_inv(m) == m
    m = qmat([["1/2", "-3/2"], ["1/2", "1/2"]])
    assert qmat_mul(m, qmat_inv(m)) == qmat_identity(2)
    F7 = PrimeField(7)
    m = qmat([["0", "-1"], ["1", "-1"]], F7)
    assert qmat_mul(qmat_inv(m, F7), m, F7) == qmat_identity(2)
    with pytest.raises(ExactAlgError, match="singular"):
        qmat_inv(qmat([["1", "2"], ["2", "4"]]))


IDENTITY3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
# the signed permutations of two coordinates, B2: the quarter turn and the swap
QUARTER_TURN = [["0", "-1"], ["1", "0"]]
# order 3, with two nonzeros in its second column
ROTATION3 = [["0", "-1"], ["1", "-1"]]


@pytest.mark.parametrize("generators,field,order", [
    (_symmetric_generators(3), None, 6),
    (_symmetric_generators(4), None, 24),
    (_symmetric_generators(5), None, 120),
    (_symmetric_generators(6), None, 720),
    # the 3-cycle conjugated by diag(1, 2, 3), acting on W as the 3-cycle
    ([([["0", "0", "1/3"], ["2", "0", "0"], ["0", "3/2", "0"]], CYCLE3)], None, 3),
    ([([["0", "1"], ["4", "0"]], [["2"]])], PrimeField(5), 4),
    ([(IDENTITY3, IDENTITY3), (SWAP3, SWAP3), (CYCLE3, CYCLE3), (SWAP3, SWAP3)],
     None, 6),
    ([([["-1"]], [["-1"]])], None, 2),
    ([([["3"]], [["1"]])], PrimeField(7), 6),
    ([(QUARTER_TURN, QUARTER_TURN), (SWAP, SWAP)], None, 8),
    ([(ROTATION3, ROTATION3)], None, 3),
    ([(ROTATION3, ROTATION3)], PrimeField(7), 3),
    ([(ROTATION3, [["1"]]), (SWAP, [["-1"]])], None, 6),
    ([(CYCLE3, ROTATION3), (SWAP3, [["0", "1"], ["1", "0"]])], None, 6),
], ids=["s3", "s4", "s5", "s6", "rational-entries", "gf5", "identity-and-repeat",
        "one-by-one", "one-by-one-gf7", "b2", "two-nonzeros-in-a-column",
        "two-nonzeros-in-a-column-gf7", "w-of-size-one", "x-three-w-two"])
def test_closure_matches_a_naive_reference(generators, field, order):
    G = make_finite_group(generators, field=field)
    x_mats, w_mats, right, inv, gens = _naive_closure(generators, field)
    assert G.order == order
    assert G.x_mats == x_mats and G.w_mats == w_mats
    assert G.right == right and G.inv == inv and G.generators == gens


def test_closure_forms_no_matrix_product_inverse_or_determinant(monkeypatch):
    calls = dict.fromkeys(("qmat_det", "qmat_mul", "qmat_inv", "_int_mul"), 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module in (action_module, exactalg_module):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    G = make_finite_group(_symmetric_generators(5))
    assert G.order == 120
    # one product on each side per Cayley-table entry, and none for an inverse
    assert calls == {"qmat_det": 0, "qmat_mul": 0, "qmat_inv": 0,
                     "_int_mul": 2 * G.order * len(G.generators)}


def test_cayley_table_agrees_with_products():
    G = make_finite_group(_symmetric_generators(4))
    assert len(G.right) == G.order
    for i in G.elements():
        for k, g in enumerate(G.generators):
            j = G.x_mats.index(qmat_mul(G.x_mats[i], G.x_mats[g]))
            assert G.right[i][k] == j
            assert qmat_mul(G.w_mats[i], G.w_mats[g]) == G.w_mats[j]


def test_check_multiplicative_rejects_a_non_character_table():
    G = make_finite_group([(CYCLE3, CYCLE3), (SWAP3, SWAP3)])
    assert det_w_inverse_character(G).check_multiplicative()
    other = next(i for i in G.elements() if i not in G.generators and i != G.identity)
    table = [Fraction(1)] * G.order
    table[other] = Fraction(2)
    assert not Character(G, table=table).check_multiplicative()
    assert not Character(G, table=[Fraction(-1)] * G.order).check_multiplicative()


def test_extend_finite_action_rejects_non_homomorphic_y():
    G = make_finite_group([(SWAP, SWAP)])
    with pytest.raises(ActionError, match="homomorphism"):
        extend_finite_action(G, ("y1", "y2"), [SWAP, SWAP])
    identity = [["1", "0"], ["0", "1"]]
    # the swap scaled to square to I, and one that squares to 2/3 I
    ext = extend_finite_action(G, ("y1", "y2"), [identity, [["0", "2"], ["1/2", "0"]]])
    assert ext.x_mats[1][2:] == ((0, 0, 0, 2), (0, 0, Fraction(1, 2), 0))
    with pytest.raises(ActionError, match="homomorphism"):
        extend_finite_action(G, ("y1", "y2"), [identity, [["0", "2"], ["1/3", "0"]]])
    # over GF(5), 2 * 3 = 1 is a homomorphism and 2 * 2 = 4 is not
    F5 = PrimeField(5)
    G5 = make_finite_group([(SWAP, SWAP)], field=F5)
    assert extend_finite_action(G5, ("y1", "y2"), [identity, [["0", "2"], ["3", "0"]]])
    with pytest.raises(ActionError, match="homomorphism"):
        extend_finite_action(G5, ("y1", "y2"), [identity, [["0", "2"], ["2", "0"]]])


@pytest.mark.parametrize("generators,field", [
    (_symmetric_generators(3), None),
    (_symmetric_generators(3), PrimeField(5)),
    ([([["0", "0", "1/3"], ["2", "0", "0"], ["0", "3/2", "0"]], CYCLE3)], None),
    ([([["0", "1"], ["4", "0"]], [["2"]])], PrimeField(5)),
    ([(IDENTITY3, IDENTITY3), (SWAP3, SWAP3), (CYCLE3, CYCLE3), (SWAP3, SWAP3)], None),
    ([(QUARTER_TURN, QUARTER_TURN), (SWAP, SWAP)], PrimeField(5)),
    ([(CYCLE3, ROTATION3), (SWAP3, [["0", "1"], ["1", "0"]])], None),
], ids=["s3", "s3-gf5", "rational-entries", "gf5", "identity-and-repeat", "b2-gf5",
        "x-three-w-two"])
def test_extended_action_is_the_block_product(generators, field):
    """Y = X and Y = W are homomorphisms: the product action keeps the
    elements, their order, the Cayley table and the inverses, and element i
    acts on X x Y by the blocks of element i."""
    G = make_finite_group(generators, field=field)
    for y_mats in (G.x_mats, G.w_mats):
        ny = len(y_mats[0])
        ext = extend_finite_action(G, vector_names("y", ny), y_mats)
        assert ext.x_vars == G.x_vars + vector_names("y", ny)
        assert ext.x_mats == [tuple(row + (0,) * ny for row in x)
                              + tuple((0,) * len(x) + row for row in y)
                              for x, y in zip(G.x_mats, y_mats)]
        assert (ext.w_mats, ext.right, ext.inv, ext.generators) == (
            G.w_mats, G.right, G.inv, G.generators)


@pytest.mark.parametrize("y", [
    [["1", "0"], ["0", "0"]],  # singular at the generator
    [["1", "1"], ["0", "1"]],  # of infinite order: the closure outgrows |G| = 2
    ROTATION3,  # of order 3: the closure has order 6
], ids=["singular", "unipotent", "order-three"])
def test_extend_refuses_a_y_whose_closure_is_not_g(y):
    G = make_finite_group([(SWAP, SWAP)])
    with pytest.raises(ActionError, match="^Y-matrices do not define a homomorphism$"):
        extend_finite_action(G, ("y1", "y2"), [[["1", "0"], ["0", "1"]], y])


def test_unknown_template_kind_is_refused():
    with pytest.raises(ActionError, match="^unknown action template 'bogus'$"):
        SymbolicGroupAction(2, TemplateSpec("bogus"), TemplateSpec("natural"))


def test_generic_element_past_the_bound_is_refused_before_any_name(monkeypatch):
    """n^2 > MAX_SPACE_VARS is refused, naming n, before a g-, X- or
    W-name is made; n = 31 has 961 g-variables and builds."""
    assert symbolic_general_linear(31, "trivial", "trivial").g_vars[-1] == "g31_31"
    monkeypatch.setattr(action_module, "indexed_name", None)
    with pytest.raises(action_module.SpaceSizeError,
                       match="^n: the generic element of GL_32 has 1024 g-variables, "
                             "more than the 1000 a symbolic action takes$"):
        symbolic_general_linear(32, "trivial", "trivial")
    with pytest.raises(action_module.SpaceSizeError,
                       match="^x_copies: 1 copies give 9000000 X-variables"):
        symbolic_general_linear(3000, "gl_conjugation", "gl_conjugation")


def test_linear_images_write_each_sum_into_one_term_dict(monkeypatch):
    """The images sum_l rows[k][l] v_l of a conjugation block over k[g] are
    built with no Poly sum, and equal the sum of the products."""
    C = symbolic_general_linear(2, "gl_conjugation", "gl_conjugation")
    rows = C.x_num.entries
    out_vars = C.x_vars + C.g_vars
    expected = []
    for row in rows:
        acc = Poly.zero(out_vars)
        for name, c in zip(C.x_vars, row):
            acc = acc + Poly.var(name, out_vars) * c.embed(out_vars)
        expected.append(acc)
    calls = []
    add = Poly.__add__
    monkeypatch.setattr(Poly, "__add__", lambda a, b: calls.append(1) or add(a, b))
    images = action_module._linear_images(rows, C.x_vars, out_vars, None)
    assert not calls
    assert images == expected
    # scalar rows: a finite element's images over the X-ring
    G = make_finite_group([(CYCLE3, [[1]])])
    assert action_module._linear_images(G.x_mats[1], G.x_vars, G.x_vars, None) == [
        Poly.parse(t, G.x_vars) for t in ("x3", "x1", "x2")]


@pytest.mark.parametrize("generators,field", [
    (_symmetric_generators(4), PrimeField(5)),
    ([(QUARTER_TURN, QUARTER_TURN)], None),
], ids=["s4-gf5", "rotation"])
def test_substitution_tables_equal_subs_of_the_linear_forms(generators, field):
    """Each table entry, a concatenation of one term per nonzero entry of
    row k, equals the generic linear form sum_l a_l x_l with a_l set to
    row k of the element by Poly.subs."""
    G = make_finite_group(generators, field=field)
    coeffs = vector_names("a", G.x_dim)
    ring = coeffs + G.x_vars
    form = Poly.zero(ring, field)
    for a, x in zip(coeffs, G.x_vars):
        form = form + Poly.var(a, ring, field) * Poly.var(x, ring, field)
    for g in G.elements():
        table = G.x_substitution(g)
        for name, row in zip(G.x_vars, G.x_mats[g]):
            expect = form.subs({a: Poly.const(c, G.x_vars, field) for a, c in zip(coeffs, row)},
                               G.x_vars)
            assert table[name] == expect
