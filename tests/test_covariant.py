"""Covariants: equivariance, determinant invariants, generic independence."""

import ast
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from covar.covariant import (
    WITNESS_FIRST_CANDIDATES,
    Covariant,
    DimensionError,
    UnverifiedCovariantError,
    _independence_witness,
    _is_relative_invariant,
    _point_dict,
    candidate_points,
    covariant_matrix,
    coordinate_matrix,
    det_relative_invariant,
    ensure_equivariant,
    generic_independence,
    verified,
    verify_equivariance,
    weight_of,
)
from covar.exactalg import (
    Matrix,
    Poly,
    PrimeField,
    RatFn,
    coeff_div,
    lift_coeff,
    qmat_det,
    qmat_rank,
    qmat_rank_det,
)
from covar.action import (
    Character,
    FiniteGroupAction,
    det_w_inverse_character,
    make_finite_group,
    symbolic_general_linear,
)
from covar.forge import _symmetric_group_action

from conftest import CYCLE3, SWAP, SWAP3, evaluate_matrix, word_covariants


def test_identity_map_is_equivariant(s3):
    xs = Poly.gens(s3.x_vars)
    F = Covariant(s3, list(xs))
    rep = verify_equivariance(F)
    assert rep.ok and F.status == "equivariant"


def test_coordinate_count_must_match_w(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    with pytest.raises(DimensionError):
        Covariant(s2, [x1])


def test_coordinates_in_the_x_ring_are_not_scanned(s2, monkeypatch):
    """A coordinate over the X-variables, or a subset of them, cannot use
    another variable, so only a coordinate over a larger ring has its terms
    scanned; one that uses a variable outside X is still refused."""
    calls = []
    support = Poly.support_vars
    monkeypatch.setattr(Poly, "support_vars",
                        lambda self: calls.append(self.vars) or support(self))
    x1, x2 = Poly.gens(s2.x_vars)
    F = Covariant(s2, [x1 * x2, RatFn(x1, x1 + x2)])
    G = Covariant(s2, [Poly.var("x1", ("x1",)), x2])
    assert calls == []
    assert G.coords[0] == x1
    wider = ("x1", "x2", "y")
    H = Covariant(s2, [Poly.parse("x1 + x2", wider), x2])
    assert calls == [wider] and H.coords[0] == x1 + x2
    with pytest.raises(DimensionError, match="outside the X-space"):
        Covariant(s2, [Poly.parse("x1 + y", wider), x2])
    assert F.coords[1] == RatFn(x1, x1 + x2)


def test_product_word_is_equivariant(conj2):
    [F] = word_covariants(conj2, [(1, 1)])
    assert F.status == "equivariant"


def test_transpose_is_refuted(conj2):
    v = {name: Poly.var(name, conj2.x_vars) for name in conj2.x_vars}
    F = Covariant(conj2, [v["a11"], v["a21"], v["a12"], v["a22"]])
    rep = verify_equivariance(F)
    assert not rep.ok and F.status == "refuted"
    witness = rep.failed_checks()[0].witness
    assert witness is not None and witness.get("point")


@pytest.mark.parametrize("template,coords,prime", [
    ("gl_conjugation", ["a11", "a21", "a12", "a22"], None),
    ("gl_natural", ["x21", "x11"], None),
    ("gl_natural", ["x21", "x11"], 5),
    # the two sides differ by g12 (x21 - x11) in the first coordinate
    ("gl_natural", ["x11", "x11"], None),
], ids=["gl2-transpose", "swapped-natural", "gf5-swapped-natural", "first-coordinate-twice"])
def test_symbolic_refutation_point_is_a_genuine_refutation(template, coords, prime):
    field = PrimeField(prime) if prime else None
    G = symbolic_general_linear(2, template, template, field=field)
    F = Covariant(G, [Poly.var(c, G.x_vars, field) for c in coords])
    witness = verify_equivariance(F).failed_checks()[0].witness
    assert witness["element"] == "generic"
    point = ast.literal_eval(witness["point"])
    g = [[lift_coeff(point[f"g{i}{j}"], field) for j in (1, 2)] for i in (1, 2)]
    det = lift_coeff(g[0][0] * g[1][1] - g[0][1] * g[1][0], field)
    assert det

    def act(vec):
        """The point map of g on X = W, multiplied out by hand."""
        if template == "gl_natural":
            return [lift_coeff(g[i][0] * vec[0] + g[i][1] * vec[1], field) for i in range(2)]
        d = Fraction(det)  # the conjugation case is over Q
        inv = [[g[1][1] / d, -g[0][1] / d], [-g[1][0] / d, g[0][0] / d]]
        A = [vec[0:2], vec[2:4]]
        return [sum(g[i][k] * A[k][l] * inv[l][j] for k in range(2) for l in range(2))
                for i in range(2) for j in range(2)]

    def at(vals):
        return [c.eval(dict(zip(G.x_vars, vals))) for c in F.coords]

    x = [lift_coeff(point[v], field) for v in G.x_vars]
    assert at(act(x)) != act(at(x))


def test_refutation_witness_for_finite_group(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    F = Covariant(s2, [x1, x1])  # second coordinate should be x2
    rep = verify_equivariance(F)
    assert not rep.ok
    witness = rep.failed_checks()[0].witness
    assert witness == {"element": 1, "coordinate": 0, "point": "{'x1': -1, 'x2': 0}"}


def test_refutation_witness_avoids_poles_of_the_moved_map(s2):
    # the first candidate where the cleared sides differ is (0, -1), where
    # F(gx) has a pole
    x1, x2 = Poly.gens(s2.x_vars)
    F = Covariant(s2, [RatFn(x1, x1 + 1), RatFn(x2, x2 + 2)])
    witness = verify_equivariance(F).failed_checks()[0].witness
    assert witness == {"element": 1, "coordinate": 0, "point": "{'x1': 0, 'x2': 1}"}


@pytest.mark.parametrize("n,template,coords,point", [
    (2, "gl_natural", ["x11^2", "x21"],
     "{'x11': -3, 'x21': -2, 'g11': -1, 'g12': 0, 'g21': 1, 'g22': 2}"),
    # coordinate 1 clears det^2 on the left and det^1 on the right
    (2, "gl_conjugation", ["a11^2", "a12", "a21", "a22"],
     "{'a11': 7, 'a12': 4, 'a21': 0, 'a22': 2, 'g11': 0, 'g12': -4, 'g21': 8, 'g22': -1}"),
    # the first candidate where the sides differ has g11 = det(g) = 0
    (1, "scalar", ["x1 + 1"], "{'x1': -2, 'g11': -1}"),
], ids=["gl2-natural", "gl2-conjugation", "scalar"])
def test_symbolic_refutation_witness_is_pinned(n, template, coords, point):
    """The whole witness of a refuted covariant on each symbolic template.
    Dividing the cleared difference by a common power of det(g) leaves the
    points where it is nonzero, and so the first of them, unchanged."""
    G = symbolic_general_linear(n, template, template)
    F = Covariant(G, [Poly.parse(c, G.x_vars) for c in coords])
    witness = verify_equivariance(F).failed_checks()[0].witness
    assert witness == {"element": "generic", "coordinate": 0, "point": point}


def test_covariant_matrix_examples(vandermonde_pair):
    m = covariant_matrix(vandermonde_pair)
    x1, x2 = Poly.gens(vandermonde_pair[0].action.x_vars)
    assert m == Matrix([[x1, x1**2], [x2, x2**2]])


def test_covariant_matrix_rejects_mixed_actions(s2, s3):
    x1, x2 = Poly.gens(s2.x_vars)
    a = verified(s2, [x1, x2])
    b = verified(s3, list(Poly.gens(s3.x_vars)))
    for rank in (coordinate_matrix, generic_independence):
        with pytest.raises(Exception, match="share one action"):
            rank([a, b])


def test_covariant_matrix_needs_square_count(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    a = verified(s2, [x1, x2])
    with pytest.raises(DimensionError):
        covariant_matrix([a])


def test_generic_coordinate_matrix_for_projections():
    from covar.forge import projection_family

    fam, action = projection_family(3, 4)
    m = covariant_matrix(fam[:3])
    for i in range(3):
        for j in range(3):
            assert m.entries[i][j] == Poly.var(f"x{i+1}{j+1}", action.x_vars)


def test_det_relative_invariant_vandermonde(vandermonde_pair):
    ri = det_relative_invariant(vandermonde_pair)
    x1, x2 = Poly.gens(vandermonde_pair[0].action.x_vars)
    assert ri.f == x1 * x2**2 - x1**2 * x2
    assert ri.weight.table == [Fraction(1), Fraction(-1)]
    assert ri.weight.check_multiplicative()
    assert ri.verify()


def test_det_relative_invariant_requires_verification(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    unverified = Covariant(s2, [x1, x2])
    other = verified(s2, [x1**2, x2**2])
    with pytest.raises(UnverifiedCovariantError):
        det_relative_invariant([unverified, other])


def test_word_covariant_weight_is_trivial(conj2):
    Fs = word_covariants(conj2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    ri = det_relative_invariant(Fs)
    assert ri.weight.is_trivial()
    assert not ri.is_zero


def test_symbolic_relative_invariance_refutes_a_wrong_weight(conj2):
    """The gl2 frame determinant is an absolute invariant: det(g)^1 is not
    its weight."""
    Fs = word_covariants(conj2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    ri = det_relative_invariant(Fs)
    det = Character(conj2, ratfn=RatFn(conj2.det_poly))
    assert _is_relative_invariant(conj2, ri.f, ri.weight)
    assert not _is_relative_invariant(conj2, ri.f, det)


def test_symbolic_relative_invariance_of_rational_functions():
    """g.f = f(g^{-1} x) = det(g) f for f = 1/det[v1 v2] on two vectors;
    f / x11 is no relative invariant, and 1/det(g) is not the weight of f."""
    N = symbolic_general_linear(2, "gl_natural", "gl_natural", x_copies=2)
    f = RatFn.parse("(1)/(x11*x22 - x21*x12)", N.x_vars)
    det = RatFn(N.det_poly)
    assert _is_relative_invariant(N, f, Character(N, ratfn=det))
    assert not _is_relative_invariant(N, f, Character(N, ratfn=1 / det))
    x11 = RatFn(Poly.var("x11", N.x_vars))
    assert not _is_relative_invariant(N, f / x11, Character(N, ratfn=det))
    assert not _is_relative_invariant(N, f / x11, Character.trivial(N))


def test_duplicate_covariant_gives_zero_det(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    F = verified(s2, [x1, x2])
    G = verified(s2, [x1, x2])
    ri = det_relative_invariant([F, G])
    assert ri.is_zero


def test_scalar_pair_is_dependent(scalar_action):
    xs = Poly.gens(scalar_action.x_vars)
    Fx = verified(scalar_action, [xs[0]])
    Fy = verified(scalar_action, [xs[1]])
    rep = generic_independence([Fx, Fy])
    assert not rep.ok
    assert rep.data["rank"] == 1 and rep.data["verdict"] == "dependent"


def test_word_independence_with_evaluated_witness(conj2):
    Fs = word_covariants(conj2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    rep = generic_independence(Fs)
    assert rep.ok
    point = {"a11": 1, "a12": 0, "a21": 0, "a22": 2,
             "b11": 0, "b12": 1, "b21": 1, "b22": 0}
    rows = evaluate_matrix(Fs, point)
    assert qmat_rank(rows) == 4


def test_projections_are_independent():
    from covar.forge import projection_family

    fam, _ = projection_family(3, 5)
    rep = generic_independence(fam)
    assert rep.ok and rep.data["rank"] == 3


def test_witness_vectors_independent_over_rationals(vandermonde_pair):
    rep = generic_independence(vandermonde_pair)
    assert rep.ok
    point = {k: Fraction(v) for k, v in rep.data["witness_point"].items()}
    rows = evaluate_matrix(vandermonde_pair, point)
    assert qmat_rank(rows) == 2


def test_independence_iff_nonzero_det_on_square_families(s2, conj2, scalar_action):
    x1, x2 = Poly.gens(s2.x_vars)
    families = [
        [verified(s2, [x1, x2]), verified(s2, [x1**2, x2**2])],
        [verified(s2, [x1, x2]), verified(s2, [x1 + x2, x1 + x2])],
        word_covariants(conj2, [(0, 0), (1, 0), (0, 1), (1, 1)]),
    ]
    for fam in families:
        ri = det_relative_invariant(fam)
        rep = generic_independence(fam)
        assert rep.ok == (not ri.is_zero)


def test_permutation_changes_det_only_by_sign(vandermonde_pair):
    base = det_relative_invariant(vandermonde_pair).f
    for perm in itertools.permutations(vandermonde_pair):
        fam = list(perm)
        f = det_relative_invariant(fam).f
        assert f == base or f == -base
        assert generic_independence(fam).ok


def test_rational_covariant_equivariance(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    den = x1 + x2
    F = verified(s2, [RatFn(x1, den), RatFn(x2, den)])
    assert F.is_rational and F.status == "equivariant"
    rep = generic_independence([F])
    assert rep.ok


def test_weight_of_detects_relative_invariants(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    diff = x1 - x2
    w = weight_of(s2, diff)
    assert w is not None and w.table == [Fraction(1), Fraction(-1)]
    assert weight_of(s2, x1) is None
    sym = x1 + x2
    assert weight_of(s2, sym).is_trivial()


def _vandermonde(xs):
    out = xs[0] ** 0
    for i, j in itertools.combinations(range(len(xs)), 2):
        out = out * (xs[j] - xs[i])
    return out


def _s3_weight_case():
    # the 3-cycle listed twice: three generators, two distinct
    G = make_finite_group([(CYCLE3, CYCLE3), (SWAP3, SWAP3), (CYCLE3, CYCLE3)])
    x1, x2, x3 = Poly.gens(G.x_vars)
    return G, [_vandermonde([x1, x2, x3]), x1 + x2 + x3,
               x1 * x2 * x3 * _vandermonde([x1, x2, x3]), x1]


def _s4_weight_case():
    G = _symmetric_group_action(4)
    xs = Poly.gens(G.x_vars)
    return G, [_vandermonde(xs), sum(xs[1:], xs[0]) ** 2, xs[0] * xs[1]]


def _rational_weight_case():
    # S3 conjugated by D = diag(1, 2, 3): entries d_i m_ij / d_j such as 2/3,
    # with relative invariants p(D^-1 x)
    scale = [1, 2, 3]

    def conj(m):
        return [[str(Fraction(int(m[i][j]) * scale[i], scale[j])) for j in range(3)]
                for i in range(3)]

    G = make_finite_group([(conj(CYCLE3), conj(CYCLE3)), (conj(SWAP3), conj(SWAP3))])
    ys = [x * Fraction(1, d) for x, d in zip(Poly.gens(G.x_vars), scale)]
    return G, [_vandermonde(ys), ys[0] * ys[1] * ys[2], ys[0] + ys[1]]


def _gf5_weight_case():
    # diag(2, 1) and the swap over GF(5): characters with values 2^k, not only +-1
    F5 = PrimeField(5)
    diag = [["2", "0"], ["0", "1"]]
    G = make_finite_group([(diag, diag), (SWAP, SWAP)], field=F5)
    x1, x2 = Poly.gens(G.x_vars, F5)
    return G, [x1 * x2, x1 ** 4 + x2 ** 4, x1 * x2 * (x1 ** 4 - x2 ** 4), x1 + x2]


WEIGHT_CASES = {"s3": _s3_weight_case, "s4": _s4_weight_case,
                "rational": _rational_weight_case, "gf5": _gf5_weight_case}


def _weight_reference(G, f):
    """theta with g.f = theta(g) f on every element, by the function
    action; None when some element moves f off its line."""
    values = []
    for i in G.elements():
        moved = G.act_on_poly(i, f)
        theta = coeff_div(moved.lc(), f.lc(), G.field)
        if moved != f * theta:
            return None
        values.append(theta)
    return values


@pytest.mark.parametrize("case", sorted(WEIGHT_CASES))
def test_finite_weights_match_an_every_element_reference(case, monkeypatch):
    """weight_of and det_w_inverse_character read the generators only, one
    act_cleared per distinct generator, and agree with the tables built on
    every element."""
    G, polys = WEIGHT_CASES[case]()
    assert det_w_inverse_character(G).table == [
        coeff_div(1, qmat_det(G.w_mats[i], G.field), G.field) for i in G.elements()]
    moved = []
    real = FiniteGroupAction.act_cleared
    monkeypatch.setattr(FiniteGroupAction, "act_cleared",
                        lambda self, *args: moved.append(args[3]) or real(self, *args))
    found = 0
    for f in polys:
        moved.clear()
        w = weight_of(G, f)
        reference = _weight_reference(G, f)
        if reference is None:
            assert w is None
            assert moved and moved == G.check_elements()[:len(moved)]
        else:
            found += 1
            assert w.table == reference and w.check_multiplicative()
            assert moved == G.check_elements()
    # the last polynomial of each case is not a relative invariant
    assert found == len(polys) - 1


def test_non_character_weight_is_refused_without_a_substitution(monkeypatch):
    G = make_finite_group([(CYCLE3, CYCLE3), (SWAP3, SWAP3)])
    f = Poly.parse("x1 + x2 + x3", G.x_vars)
    table = [Fraction(1)] * G.order
    table[-1] = Fraction(2)
    monkeypatch.setattr(FiniteGroupAction, "act_cleared",
                        lambda *args: pytest.fail("substituted into f"))
    assert not _is_relative_invariant(G, f, Character(G, table=table))


def test_relative_invariance_reads_the_inverse_of_the_weight():
    """x -> 2x over GF(5) has order 4, so x1 has a weight theta with
    theta(g) = 1/2 = 3 that is not its own inverse: theta passes, and
    theta^-1 is refused."""
    F5 = PrimeField(5)
    G = make_finite_group([([["2"]], [["2"]])], field=F5)
    f = Poly.var("x1", G.x_vars, F5)
    theta = weight_of(G, f)
    assert theta.value(G.generators[0]) == 3
    assert _is_relative_invariant(G, f, theta)
    assert not _is_relative_invariant(G, f, Character(G, table=[coeff_div(1, v, F5)
                                                                for v in theta.table]))


def test_weight_of_symbolic_scalar(scalar_action):
    xs = Poly.gens(scalar_action.x_vars)
    w = weight_of(scalar_action, xs[0])
    assert w is not None
    g11 = Poly.var("g11", scalar_action.g_vars)
    assert w.ratfn == RatFn(Poly.one(scalar_action.g_vars), g11)


def test_dependent_square_family_reports_symbolic_rank(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    F = verified(s2, [x1, x2])
    G = verified(s2, [2 * x1, 2 * x2])
    rep = generic_independence([F, G])
    assert not rep.ok
    assert rep.data["verdict"] == "dependent" and rep.data["rank"] == 1
    assert "witness_point" not in rep.data


def test_ensure_equivariant_honours_certified_families(monkeypatch):
    from covar import covariant
    from covar.cli import parse_problem

    families = [parse_problem(name).covariants
                for name in ("matrix_words_gl2", "matrix_words_gl3")]
    calls = []
    monkeypatch.setattr(covariant, "verify_equivariance",
                        lambda F: calls.append(F) or verify_equivariance(F))
    for Fs in families:
        rep = ensure_equivariant(Fs)
        assert rep.ok and len(rep.checks) == len(Fs)
        assert {c.detail for c in rep.checks} == {"certified during family construction"}
    assert calls == []


def test_ensure_equivariant_verifies_unchecked_once(s2, monkeypatch):
    from covar import covariant

    x1, x2 = Poly.gens(s2.x_vars)
    good, bad = Covariant(s2, [x1, x2]), Covariant(s2, [x1, x1])
    calls = []
    monkeypatch.setattr(covariant, "verify_equivariance",
                        lambda F: calls.append(F) or verify_equivariance(F))
    first = ensure_equivariant([good, bad])
    assert [c.passed for c in first.checks] == [True, False]
    again = ensure_equivariant([good, bad])
    assert [c.passed for c in again.checks] == [True, False]
    assert again.checks[1].witness == bad.refutation
    assert calls == [good, bad]


def _holds_on_every_element(F) -> bool:
    """Test-local oracle: F(gx) = g_W F(x) for every element, by substitution."""
    G = F.action
    for i in G.elements():
        subst = G.x_substitution(i)
        moved = [c.subs(subst, G.x_vars) for c in F.coords]
        w = G.w_mats[i]
        for c in range(G.w_dim):
            rhs = Poly.zero(G.x_vars)
            for l in range(G.w_dim):
                rhs = rhs + F.coords[l] * w[c][l]
            if moved[c] != rhs:
                return False
    return True


def test_covariant_moved_by_one_generator_is_refuted_there():
    # the swap is listed first and fixes F; the 3-cycle moves it
    G = make_finite_group([(SWAP3, SWAP3), (CYCLE3, CYCLE3)])
    x1, x2, x3 = Poly.gens(G.x_vars)
    F = Covariant(G, [x1, x2, x1 + x2 + x3])
    rep = verify_equivariance(F)
    assert not rep.ok and F.status == "refuted"
    assert rep.failed_checks()[0].witness["element"] == G.generators[1]
    assert not _holds_on_every_element(F)
    good = Covariant(G, [x1 * x2 * x3 * x for x in (x1, x2, x3)])
    rep = verify_equivariance(good)
    assert rep.ok and _holds_on_every_element(good)
    assert rep.checks[0].detail == "identity holds on 2 generators (2 of 6 elements)"


def test_non_character_weight_is_checked_on_every_element():
    G = make_finite_group([(CYCLE3, CYCLE3), (SWAP3, SWAP3)])
    f = Poly.parse("x1 + x2 + x3", G.x_vars)
    other = next(i for i in G.elements() if i not in G.generators and i != G.identity)
    table = [Fraction(1)] * G.order
    table[other] = Fraction(2)
    weight = Character(G, table=table)
    assert not weight.check_multiplicative()
    every_element = all(G.act_on_poly(i, f) == f * weight.value(i) for i in G.elements())
    assert not every_element
    assert not _is_relative_invariant(G, f, weight)
    assert _is_relative_invariant(G, f, Character.trivial(G))


# -- the witness scan over the integers ------------------------------------------


def _fraction_witness(Fs, points):
    """The reference scan: every candidate evaluated over the coefficient
    field by evaluate_matrix and eliminated by qmat_rank_det."""
    action = Fs[0].action
    full = min(len(Fs), action.w_dim)
    for point in points:
        vals = _point_dict(action.x_vars, point, action.field)
        try:
            rows = evaluate_matrix(Fs, vals)
        except ZeroDivisionError:
            continue
        rank, minor = qmat_rank_det(rows, action.field)
        if rank == full:
            return vals, minor
    return None


def _gf5_problem(template, x_copies, family):
    return {"field": {"prime": 5},
            "group": {"type": "symbolic", "n": 2, "x_template": template,
                      "w_template": template, "x_copies": x_copies, "w_copies": 1},
            "family": family}


def _witness_families():
    from covar.cli import list_presets, parse_problem
    from covar.forge import power_map_family

    out = {name: parse_problem(name).covariants for name in list_presets()}
    out = {name: Fs for name, Fs in out.items() if Fs}
    out["s4_power_maps"] = power_map_family(4)
    out["s5_power_maps"] = power_map_family(5)
    out["gf5_matrix_words"] = parse_problem(
        _gf5_problem("gl_conjugation", 2, {"name": "matrix_words", "n": 2})).covariants
    out["gf5_projections"] = parse_problem(
        _gf5_problem("gl_natural", 3, {"name": "projections", "n": 2, "m": 3})).covariants
    # rational coefficients in numerators and denominators: nontrivial scales
    s2 = make_finite_group([(SWAP, SWAP)])
    x1, x2 = Poly.gens(s2.x_vars)
    out["fractional_pair"] = [
        verified(s2, [RatFn(x1 / 2, x1 + x2), RatFn(x2 / 2, x1 + x2)]),
        verified(s2, [RatFn(x1**2, 3 * x1 * x2 + 1), RatFn(x2**2, 3 * x1 * x2 + 1)])]
    return out


def test_integer_witness_scan_matches_the_fraction_route():
    """Point by point over the first 500 candidates, the compiled integer
    scan skips the same points and returns the same (point, minor).  The
    18-variable gl3 words take about 8 ms a point over Fractions, so they
    are compared on their first 40 candidates."""
    families = _witness_families()
    assert {"rational_swap", "powers_s2_cubic", "scalar_counterexample",
            "matrix_words_gl3"} <= set(families)
    for name, Fs in families.items():
        stream = candidate_points(Fs[0].action.x_dim, random.Random(0))
        points = list(itertools.islice(stream, 40 if name == "matrix_words_gl3" else 500))
        found = 0
        for point in points:
            got = _independence_witness(Fs, [point])
            assert got == _fraction_witness(Fs, [point]), (name, point)
            found += got is not None
        assert found, name
    # rational_swap's denominators vanish at some candidates, which both skip
    Fs = families["rational_swap"]
    action = Fs[0].action
    skipped = 0
    for point in itertools.islice(candidate_points(action.x_dim, random.Random(0)), 500):
        try:
            evaluate_matrix(Fs, _point_dict(action.x_vars, point, action.field))
        except ZeroDivisionError:
            skipped += 1
    assert skipped


def test_integer_witness_scan_finds_the_s5_witness():
    from covar.forge import power_map_family

    Fs = power_map_family(5)
    point, minor = _independence_witness(Fs, candidate_points(5, random.Random(0)))
    assert [int(c) for c in point.values()] == [-3, -2, -1, 1, 2]
    assert minor == Fraction(-34560)
    assert type(minor) is int


def test_integer_witness_scan_finds_the_s6_witness():
    Fs = _power_maps(6)
    point, minor = _independence_witness(Fs, candidate_points(6, random.Random(0)))
    xs = [int(c) for c in point.values()]
    assert xs == [-3, -2, -1, 1, 2, 3]
    # det [x_i^j] = prod x_i * prod_{i<j} (x_j - x_i)
    assert minor == math.prod(xs) * math.prod(b - a for a, b in itertools.combinations(xs, 2))
    assert minor == Fraction(-24883200)


@functools.cache
def _power_maps(n):
    from covar.forge import power_map_family

    return power_map_family(n)


# -- the candidate stream --------------------------------------------------------


def _spiral(n):
    """The points of shells max |c| <= 3, shell by shell in product order."""
    return [p for shell in range(4)
            for p in itertools.product(range(-shell, shell + 1), repeat=n)
            if max((abs(c) for c in p), default=0) == shell]


@pytest.mark.parametrize("n", range(1, 7))
def test_candidate_stream_reorders_the_shells_increasing_points_first(n):
    spiral = _spiral(n)
    stream = list(itertools.islice(candidate_points(n, random.Random(0)), len(spiral)))
    assert len(set(stream)) == len(stream) and set(stream) == set(spiral)
    increasing = [p for p in spiral if all(a < b for a, b in zip(p, p[1:]))]
    assert stream[:len(increasing)] == increasing
    rest = set(spiral) - set(increasing)
    assert stream[len(increasing):] == [p for p in spiral if p in rest]
    # the seeded draws follow, as before
    rng = random.Random(0)
    draw = tuple(rng.randint(-9, 9) for _ in range(n))
    assert next(itertools.islice(candidate_points(n, random.Random(0)), len(spiral), None)) == draw


@pytest.mark.parametrize("n", range(2, 7))
def test_distinct_nonzero_point_among_the_first_candidates(n):
    first = itertools.islice(candidate_points(n, random.Random(0)), WITNESS_FIRST_CANDIDATES)
    assert any(0 not in p and len(set(p)) == n for p in first)


@pytest.mark.parametrize("n", [5, 6])
def test_power_maps_are_independent_without_a_symbolic_rank(n, monkeypatch):
    from covar import covariant

    calls = []
    original = covariant._symbolic_rank
    monkeypatch.setattr(covariant, "_symbolic_rank",
                        lambda Fs: calls.append(Fs) or original(Fs))
    rep = generic_independence(_power_maps(n))
    assert rep.ok and rep.data["rank"] == n
    assert calls == []


def test_more_covariants_than_dim_w_are_decided_by_a_point(s2, monkeypatch):
    from covar import covariant
    from covar.cli import parse_problem

    calls = []
    original = covariant._symbolic_rank
    monkeypatch.setattr(covariant, "_symbolic_rank",
                        lambda Fs: calls.append(Fs) or original(Fs))
    for name, detail in (
            ("powers_s2_cubic", "3 covariants into a 2-dimensional module are "
                                "automatically dependent (rank 2 < 3)"),
            ("scalar_counterexample", "2 covariants into a 1-dimensional module are "
                                      "automatically dependent (rank 1 < 2)")):
        rep = generic_independence(parse_problem(name).covariants)
        assert [c.detail for c in rep.checks] == [detail], name
    assert calls == []
    # no point has rank dim W when the generic rank is smaller
    x1, x2 = Poly.gens(s2.x_vars)
    fam = [verified(s2, [x1, x2]), verified(s2, [x1 * x1 * x2, x1 * x2 * x2]),
           verified(s2, [(x1 + x2) * x1, (x1 + x2) * x2])]
    rep = generic_independence(fam)
    assert rep.data["rank"] == 1 and len(calls) == 1
    assert rep.checks[0].detail == ("3 covariants into a 2-dimensional module are "
                                    "automatically dependent (rank 1 < 3)")
