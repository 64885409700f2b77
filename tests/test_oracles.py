"""Cross-validation against independent computational routes: sympy's
symbolic linear algebra and pointwise sampling.  These guard the library's
conventions end to end, not just individual kernels."""

import random
from fractions import Fraction

import pytest
import sympy

from covar.covariant import verified, verify_equivariance, Covariant
from covar.exactalg import Matrix, Poly, RatFn, echelon_kernel
from covar.forge import power_map_family, reynolds_project, _symmetric_group_action
from covar.noname import build_isomorphism


def to_sympy(p: Poly, table):
    expr = sympy.Integer(0)
    for exps, coeff in p.exponent_items():
        term = sympy.Rational(coeff)
        for name, e in zip(p.vars, exps):
            if e:
                term *= table[name] ** e
        expr += term
    return expr


def ratfn_to_sympy(r: RatFn, table):
    return to_sympy(r.num, table) / to_sympy(r.den, table)


def test_generators_match_sympy_matrix_inverse():
    """The emitted generators equal F^{-1} w computed by sympy."""
    fam = power_map_family(3, [1, 2, 3])
    m = build_isomorphism(fam)
    G = m.action
    names = list(G.x_vars) + list(G.w_vars)
    table = {n: sympy.Symbol(n) for n in names}
    F_sym = sympy.Matrix([[to_sympy(m.phi_inv.entries[i][j], table)
                           for j in range(3)] for i in range(3)])
    w_sym = sympy.Matrix([table[v] for v in G.w_vars])
    expected = F_sym.inv() * w_sym
    gens = m.generators()
    for i in range(3):
        got = ratfn_to_sympy(gens[i], table)
        assert sympy.simplify(got - expected[i]) == 0


def test_relative_invariant_weight_matches_sympy_det():
    fam = power_map_family(3, [1, 2, 3])
    m = build_isomorphism(fam)
    G = m.action
    table = {n: sympy.Symbol(n) for n in G.x_vars}
    F_sym = sympy.Matrix([[to_sympy(m.phi_inv.entries[i][j], table)
                           for j in range(3)] for i in range(3)])
    assert sympy.expand(F_sym.det() - to_sympy(m.f, table)) == 0


def _sample_points(n_vars, rng, count):
    for _ in range(count):
        yield tuple(Fraction(rng.randint(-20, 20)) for _ in range(n_vars))


def test_exact_equivariance_agrees_with_pointwise_sampling():
    """Exactly-verified covariants satisfy the defining identity at every
    sampled rational point; refuted ones fail at their reported witness."""
    rng = random.Random(3)
    for G in (_symmetric_group_action(2), _symmetric_group_action(3)):
        for _ in range(6):
            coords = []
            for _c in range(G.w_dim):
                terms = {}
                for _t in range(rng.randint(1, 2)):
                    exps = tuple(rng.randint(0, 2) for _ in G.x_vars)
                    coeff = Fraction(rng.randint(-4, 4))
                    if coeff:
                        terms[exps] = coeff
                coords.append(Poly(G.x_vars, terms))
            F = reynolds_project(coords, G)
            for g in G.elements():
                mat = G.x_mats[g]
                w = G.w_mats[g]
                for point in _sample_points(G.x_dim, rng, 5):
                    moved = tuple(sum(mat[i][j] * point[j]
                                      for j in range(G.x_dim))
                                  for i in range(G.x_dim))
                    lhs = [c.eval(moved) for c in F.coords]
                    fx = [c.eval(point) for c in F.coords]
                    rhs = [sum(w[i][j] * fx[j] for j in range(G.w_dim))
                           for i in range(G.w_dim)]
                    assert lhs == rhs


def test_refuted_covariant_fails_at_its_witness():
    G = _symmetric_group_action(2)
    x1, x2 = Poly.gens(G.x_vars)
    F = Covariant(G, [x1, x1 * x2])
    rep = verify_equivariance(F)
    assert not rep.ok
    import ast

    witness = rep.failed_checks()[0].witness
    g = witness["element"]
    point_text = witness["point"]
    assert point_text is not None
    point = ast.literal_eval(point_text)  # a dict of ints
    values = [Fraction(point[v]) for v in G.x_vars]
    mat = G.x_mats[g]
    w = G.w_mats[g]
    moved = [sum(mat[i][j] * values[j] for j in range(2)) for i in range(2)]
    lhs = [c.eval(moved) for c in F.coords]
    fx = [c.eval(values) for c in F.coords]
    rhs = [sum(w[i][j] * fx[j] for j in range(2)) for i in range(2)]
    assert lhs != rhs


def test_primality_matches_sympy():
    from covar.exactalg import ExactAlgError, PrimeField

    def accepted(p):
        try:
            PrimeField(p)
            return True
        except ExactAlgError:
            return False

    rng = random.Random(11)
    # small moduli, Carmichael numbers, strong pseudoprimes to small base
    # sets, and random moduli up to the deterministic bound
    candidates = list(range(-2, 2000)) + [561, 41041, 3215031751, 3825123056546413051]
    candidates += [rng.randrange(2**40, 2**81) | 1 for _ in range(200)]
    for p in candidates:
        assert accepted(p) == sympy.isprime(p), p


def test_scalar_rank_and_det_match_sympy():
    from covar.exactalg import qmat, qmat_rank_det

    rng = random.Random(5)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        # small entries so that singular and rank-deficient matrices occur
        entries = [[rng.randint(-1, 1) * rng.choice([1, 2]) for _ in range(cols)]
                   for _ in range(rows)]
        rank, det = qmat_rank_det(qmat(entries))
        expected = sympy.Matrix(entries)
        assert rank == expected.rank()
        assert det == (expected.det() if rows == cols else None)


@pytest.mark.parametrize("rows", [
    [["x1", "x1^2", "x1^3"], ["x2", "x2^2", "x2^3"]],
    [["x1", "x2", "x1 + x2", "1"], ["x2", "x1", "x1 + x2", "x1*x2"]],
    [["0", "x1", "x2"], ["0", "x1^2", "x1*x2"]],
    [["x1 + x2", "x1*x2", "x1^2"], ["1", "x2", "x1"], ["x1 + x2 + 1", "x1*x2 + x2", "x1^2 + x1"]],
    [["x1", "1/2*x2"], ["2*x1", "x2"]],
    [["0", "0"], ["0", "0"]],
])
def test_kernel_vector_matches_sympy_nullspace(rows):
    """The kernel vector against sympy's nullspace vector of the last free
    column, both scaled so that the last nonzero coefficient is 1."""
    m = Matrix([[Poly.parse(t, ("x1", "x2")) for t in row] for row in rows])
    table = {v: sympy.Symbol(v) for v in ("x1", "x2")}
    expected = sympy.Matrix([[to_sympy(e, table) for e in row] for row in m.entries]
                            ).nullspace()[-1]
    last = max(i for i, x in enumerate(expected) if x != 0)
    ker = echelon_kernel(*m._echelon_ff()[:2])
    assert ker[last] == 1 and not any(ker[last + 1:])
    for got, want in zip(ker, expected / expected[last]):
        assert sympy.simplify(ratfn_to_sympy(got, table) - want) == 0
