"""Relations among covariants and the reflection descent."""

from fractions import Fraction

import pytest

from covar.covariant import UnverifiedCovariantError, verified, weight_of
from covar.action import make_finite_group
from covar.exactalg import Matrix, Poly, PrimeField, RatFn
from covar.forge import power_map_family, _symmetric_group_action
from covar.reflect import (
    IndependenceCertificate,
    NoDependenceError,
    ReflectError,
    Reflection,
    Relation,
    _independence_certificate,
    _relative_invariant_coefficients,
    descend_to_invariant_relation,
    find_reflections,
    lower_relation,
    module_independence_verdict,
    relation_over_function_field,
    relative_invariant_relation,
)

from conftest import SWAP, group_mul


@pytest.fixture
def cubic_family():
    return power_map_family(2, [1, 2, 3])


def expand_relation(rel):
    """Independent oracle: direct expansion of sum h_i F_i, coordinatewise."""
    action = rel.covariants[0].action
    for c in range(action.w_dim):
        acc = Poly.zero(action.x_vars, action.field)
        for h, F in zip(rel.coeffs, rel.covariants):
            h_poly = h.as_poly() if isinstance(h, RatFn) else h
            coord = F.coords[c]
            coord = coord.as_poly() if isinstance(coord, RatFn) else coord
            acc = acc + h_poly * coord
        if not acc.is_zero():
            return False
    return True


def test_cubic_powers_relation(cubic_family):
    rel = relation_over_function_field(cubic_family)
    G = cubic_family[0].action
    x1, x2 = Poly.gens(G.x_vars)
    e1, e2 = x1 + x2, x1 * x2
    assert rel.coeffs == [e2, -e1, Poly.one(G.x_vars)]
    assert expand_relation(rel)


def test_scalar_pair_relation(scalar_action):
    xs = Poly.gens(scalar_action.x_vars)
    Fx = verified(scalar_action, [xs[0]])
    Fy = verified(scalar_action, [xs[1]])
    rel = relation_over_function_field([Fx, Fy])
    # normalized kernel: (-y/x, 1)
    assert rel.coeffs[1] == 1
    lifted = rel.coeffs[0] if isinstance(rel.coeffs[0], RatFn) \
        else RatFn(rel.coeffs[0], reduce=False)
    assert lifted == RatFn(-xs[1], xs[0])


def test_independent_family_gets_certificate(vandermonde_pair):
    cert = relation_over_function_field(vandermonde_pair)
    assert isinstance(cert, IndependenceCertificate)
    # the maximal minor here is the full frame determinant
    from covar.covariant import covariant_matrix

    assert cert.minor == covariant_matrix(vandermonde_pair).det()


def test_find_reflections_over_gf5():
    """The swap over GF(5): M - I has entries -1 = 4, so its rank is taken
    on prime-field entries without a field argument."""
    from covar.action import make_finite_group
    from covar.exactalg import PrimeField

    G = make_finite_group([([["0", "1"], ["1", "0"]], [["0", "1"], ["1", "0"]])],
                          field=PrimeField(5))
    refls = find_reflections(G)
    assert [(r.element, str(r.hyperplane_form)) for r in refls] == [(1, "4*x2 + x1")]
    assert refls[0].validate()


def test_certificate_rows_are_the_first_independent_rows():
    """Pivot columns 0 and 2; row 0 vanishes and row 2 is twice row 1 there,
    so the first rows independent on them are rows 1 and 3."""
    P = lambda text: Poly.parse(text, ("x1", "x2"))  # noqa: E731
    mat = Matrix([[P(t) for t in row] for row in (
        ["0", "0", "0"],
        ["x1", "x1^2", "x1 + x2"],
        ["2*x1", "2*x1^2", "2*x1 + 2*x2"],
        ["x2", "x1*x2", "1"])])
    cert = _independence_certificate(mat, mat._echelon_ff()[1])
    assert (cert.rows, cert.cols) == ([1, 3], [0, 2])
    assert cert.minor == P("-x2^2 - x1*x2 + x1")


def test_relation_and_independence_never_disagree(s2, cubic_family,
                                                  vandermonde_pair, scalar_action):
    from covar.covariant import generic_independence

    xs = Poly.gens(scalar_action.x_vars)
    scalar_pair = [verified(scalar_action, [xs[0]]),
                   verified(scalar_action, [xs[1]])]
    for fam in (cubic_family, vandermonde_pair, scalar_pair):
        found = relation_over_function_field(fam)
        independent = isinstance(found, IndependenceCertificate)
        assert independent == generic_independence(fam).ok


@pytest.mark.parametrize("rational", [False, True], ids=["polynomial", "rational"])
def test_relation_check_covers_every_row(s2, rational):
    """The coefficients (x1 + x2, -1) cancel the first row of the frame but
    not the second, so the relation is refused."""
    from covar.covariant import Covariant

    x1, x2 = Poly.gens(s2.x_vars)
    e1 = x1 + x2
    first = [RatFn(x1 * e1, e1, reduce=False), RatFn(x2, e1)] if rational else [x1, x2]
    rel = Relation([e1, -Poly.one(s2.x_vars)], [Covariant(s2, first),
                                                Covariant(s2, [x1 * e1, x1 * e1])])
    assert not rel.check()
    with pytest.raises(ReflectError):
        rel.verify()


def test_relative_invariant_relation_cubic(cubic_family):
    rel = relative_invariant_relation(cubic_family)
    G = cubic_family[0].action
    x1, x2 = Poly.gens(G.x_vars)
    assert rel.coeffs == [x1 * x2, -(x1 + x2), Poly.one(G.x_vars)]
    for h in rel.coeffs:
        w = weight_of(G, h)
        assert w is not None and w.is_trivial()
    assert expand_relation(rel)


def test_relative_invariant_relation_scalar(scalar_action):
    xs = Poly.gens(scalar_action.x_vars)
    Fx = verified(scalar_action, [xs[0]])
    Fy = verified(scalar_action, [xs[1]])
    rel = relative_invariant_relation([Fx, Fy])
    assert rel.coeffs == [-xs[1], xs[0]]
    weights = [weight_of(scalar_action, h) for h in rel.coeffs]
    assert weights[0] == weights[1]
    g11 = Poly.var("g11", scalar_action.g_vars)
    assert weights[0].ratfn == RatFn(Poly.one(scalar_action.g_vars), g11)


def test_relative_invariant_coefficients_refuse_a_non_invariant_relation(cubic_family):
    """x1 (e2, -e1, 1) is a relation, but x1 is no relative invariant of the
    swap: the check that certifies the output refuses it."""
    x1, x2 = Poly.gens(cubic_family[0].action.x_vars)
    rel = Relation([x1 * x1 * x2, -x1 * (x1 + x2), x1], cubic_family).verify()
    with pytest.raises(ReflectError, match="coefficient 1 is not a relative invariant"):
        _relative_invariant_coefficients(rel)


def test_relative_invariant_relation_needs_dependence(vandermonde_pair):
    with pytest.raises(NoDependenceError):
        relative_invariant_relation(vandermonde_pair)


# -- reflections ------------------------------------------------------------------


def test_swap_reflection_detected(cubic_family):
    G = cubic_family[0].action
    refls = find_reflections(G)
    assert len(refls) == 1
    x1, x2 = Poly.gens(G.x_vars)
    assert refls[0].hyperplane_form == x1 - x2
    assert refls[0].validate()


def test_s3_reflections_are_the_transpositions(s3):
    refls = find_reflections(s3)
    assert len(refls) == 3
    for r in refls:
        assert r.validate()
        mat = s3.x_mats[r.element]
        assert group_mul(s3, r.element, r.element) == s3.identity


def test_lower_multiplied_relation(cubic_family):
    G = cubic_family[0].action
    x1, x2 = Poly.gens(G.x_vars)
    e1, e2 = x1 + x2, x1 * x2
    rel = Relation([x1 * e2, -x1 * e1, x1], cubic_family).verify()
    [s] = find_reflections(G)
    lowered = lower_relation(rel, s)
    assert lowered.coeffs == [e2, -e1, Poly.one(G.x_vars)]
    assert lowered.max_degree() < rel.max_degree()


def test_lower_minimal_relation_is_zero(cubic_family):
    rel = relation_over_function_field(cubic_family)
    for s in find_reflections(cubic_family[0].action):
        assert lower_relation(rel, s).is_zero


def test_lower_requires_verified_relation(cubic_family):
    G = cubic_family[0].action
    x1, _ = Poly.gens(G.x_vars)
    unverified = Relation([x1, x1, x1], cubic_family)
    [s] = find_reflections(G)
    with pytest.raises(ReflectError, match="verified"):
        lower_relation(unverified, s)


def test_lower_rejects_non_reflection(s3, cubic_family):
    # a 3-cycle of S3 does not fix a hyperplane
    three_cycle = next(g for g in s3.elements()
                       if g != s3.identity
                       and group_mul(s3, g, group_mul(s3, g, g)) == s3.identity
                       and group_mul(s3, g, g) != s3.identity)
    x1 = Poly.var("x1", s3.x_vars)
    fake = Reflection(three_cycle, x1, s3)
    fam3 = power_map_family(3, [1, 2, 3, 4], group=s3)
    rel = relation_over_function_field(fam3)
    with pytest.raises(ReflectError):
        lower_relation(rel, fake)


def _multiplied_relation(family, first=lambda h: h):
    """x1 times the minimal relation of the S2 cubic powers, with ``first``
    applied to its first coefficient."""
    x1, x2 = Poly.gens(family[0].action.x_vars)
    return Relation([first(x1 * x1 * x2), -x1 * (x1 + x2), x1], family).verify()


def test_lower_refuses_a_reflection_of_another_action(cubic_family):
    [s] = find_reflections(make_finite_group([(SWAP, SWAP)]))
    with pytest.raises(ReflectError, match="^reflection belongs to a different action$"):
        lower_relation(_multiplied_relation(cubic_family), s)


def test_lower_refuses_a_difference_the_form_does_not_divide(cubic_family, monkeypatch):
    """A form that validates divides every difference h - s.h, which
    vanishes on the fixed hyperplane; so the refusal is reached only with
    validation bypassed and x1 + x2 for the swap's x1 - x2."""
    G = cubic_family[0].action
    [s] = find_reflections(G)
    monkeypatch.setattr(Reflection, "validate", lambda self: True)
    x1, x2 = Poly.gens(G.x_vars)
    with pytest.raises(ReflectError, match="^difference is not divisible by the hyperplane "
                                           "form; the element is not a reflection"):
        lower_relation(_multiplied_relation(cubic_family), Reflection(s.element, x1 + x2, G))


def test_lower_reads_a_polynomial_ratfn_coefficient(cubic_family):
    [s] = find_reflections(cubic_family[0].action)
    as_poly = lower_relation(_multiplied_relation(cubic_family), s)
    as_ratfn = lower_relation(_multiplied_relation(cubic_family, RatFn), s)
    x1, x2 = Poly.gens(cubic_family[0].action.x_vars)
    assert as_ratfn.coeffs == as_poly.coeffs == [x1 * x2, -x1 - x2, Poly.one(x1.vars)]


@pytest.mark.parametrize("field", [None, PrimeField(5)], ids=["Q", "GF5"])
def test_reflection_validate_accepts_any_nonzero_multiple_of_the_form(field):
    G = make_finite_group([(SWAP, SWAP)], field=field)
    [s] = find_reflections(G)
    x1, x2 = Poly.gens(G.x_vars, field)
    assert s.validate() and s.hyperplane_form in (x1 - x2, x2 - x1)
    for form in ((x1 - x2) * 2, (x2 - x1) * 3):
        assert Reflection(s.element, form, G).validate()
    for form in (x1 + x2, x1 - x2 + 1, Poly.zero(G.x_vars, field)):
        assert not Reflection(s.element, form, G).validate()
    assert not Reflection(G.identity, x1 - x2, G).validate()


def test_s3_minimal_relation_lowers_to_zero_everywhere(s3):
    fam = power_map_family(3, [1, 2, 3, 4], group=s3)
    rel = relation_over_function_field(fam)
    assert expand_relation(rel)
    for s in find_reflections(s3):
        assert lower_relation(rel, s).is_zero


def test_descent_reaches_invariant_coefficients(cubic_family):
    G = cubic_family[0].action
    x1, x2 = Poly.gens(G.x_vars)
    e1, e2 = x1 + x2, x1 * x2
    start = Relation([x1 * e2, -x1 * e1, x1], cubic_family).verify()
    final = descend_to_invariant_relation(start)
    assert not final.is_zero
    for h in final.coeffs:
        w = weight_of(G, h)
        assert w is not None and w.is_trivial()


# -- module verdicts -------------------------------------------------------------------


def test_verdict_with_fraction_field_bridge(vandermonde_pair):
    rep = module_independence_verdict(vandermonde_pair, fraction_field=True)
    assert rep.ok and rep.data["verdict"] == "independent"
    assert "fraction field" in rep.data["bridge"]
    assert "(decided, as G is finite)" in rep.checks[0].detail


def test_verdict_decides_the_bridge_for_a_finite_group(cubic_family, vandermonde_pair):
    rep = module_independence_verdict(cubic_family)
    assert not rep.ok and rep.data["verdict"] == "dependent"
    assert "(decided, as G is finite)" in rep.checks[0].detail
    rep = module_independence_verdict(vandermonde_pair)
    assert rep.ok and rep.data["verdict"] == "independent"
    assert rep.data["bridge"] == "invariant field is the fraction field of the invariant ring"


def test_verdict_abstains_without_bridge(scalar_action):
    xs = Poly.gens(scalar_action.x_vars)
    fam = [verified(scalar_action, [xs[0]]), verified(scalar_action, [xs[1]])]
    rep = module_independence_verdict(fam)
    assert not rep.ok
    assert rep.data["verdict"] == "abstain" and rep.data["rank"] == 1


def test_verdict_one_direction_without_bridge(scalar_action):
    xs = Poly.gens(scalar_action.x_vars)
    rep = module_independence_verdict([verified(scalar_action, [xs[0]])])
    assert rep.ok and rep.data["verdict"] == "independent"
    assert rep.data["bridge"] is None


def test_verdict_with_the_bridge_asserted_for_a_symbolic_group(scalar_action):
    xs = Poly.gens(scalar_action.x_vars)
    fam = [verified(scalar_action, [xs[0]]), verified(scalar_action, [xs[1]])]
    rep = module_independence_verdict(fam, fraction_field=True)
    assert not rep.ok and rep.data["verdict"] == "dependent"
    assert "(asserted)" in rep.checks[0].detail


def test_bridge_refuses_non_covariants(s2):
    """(x1, x1) and (x2, x2) are not covariants of the swap; the decided
    bridge transfers no verdict for them."""
    x1, x2 = Poly.gens(s2.x_vars)
    fam = [verified(s2, [x1, x1], expect=False), verified(s2, [x2, x2], expect=False)]
    with pytest.raises(UnverifiedCovariantError):
        module_independence_verdict(fam)
