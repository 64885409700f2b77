"""Acceptance suite: end-to-end checks at desk scale, each with a stated
runtime budget, printing one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import io
import itertools
import json
import time
from fractions import Fraction

import pytest

from covar.action import make_finite_group
from covar.cli import load_certificate, main, parse_problem
from covar.covariant import (
    det_relative_invariant,
    generic_independence,
    verified,
    verify_equivariance,
    weight_of,
)
from covar.exactalg import Matrix, Poly, RatFn, qmat_rank
from covar.forge import (
    clear_denominators,
    generate_covariants,
    matrix_word_family,
    power_map_family,
    reynolds_project,
    _symmetric_group_action,
)
from covar.noname import build_isomorphism, covariants_from_generators, verify_isomorphism
from covar.reflect import (
    Relation,
    find_reflections,
    lower_relation,
    relation_over_function_field,
    relative_invariant_relation,
)

from conftest import evaluate_matrix


@contextlib.contextmanager
def criterion(number: int, slug: str, budget_seconds: float):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if failed is None and elapsed < budget_seconds else "FAIL"
        print(f"ACCEPTANCE {number:02d} {slug}: {status} ({elapsed:.2f}s, "
              f"budget {budget_seconds:g}s)")
        if failed is None:
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget "
                f"({elapsed:.2f}s)")


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue()


# -- oracles (independent of the library paths they check) ----------------------------


def perm_expansion_det(m):
    """Integer determinant by permutation expansion with parity bookkeeping."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
            if prod == 0:
                break
        if prod == 0:
            continue
        visited = [False] * n
        sign = 1
        for i in range(n):
            if visited[i]:
                continue
            length = 0
            j = i
            while not visited[j]:
                visited[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        total += sign * prod
    return total


def int_mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def int_mat_pow(m, e):
    n = len(m)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = int_mat_mul(out, m)
    return out


def cofactor_adjugate(mat: Matrix) -> Matrix:
    """Test-local adjugate from first-row cofactor expansions."""

    def det(m: Matrix):
        if m.rows == 1:
            return m.entries[0][0]
        total = None
        for j in range(m.cols):
            entry = m.entries[0][j]
            if not entry:
                continue
            minor = Matrix([row[:j] + row[j + 1:] for row in m.entries[1:]])
            term = entry * det(minor)
            if j % 2:
                term = -term
            total = term if total is None else total + term
        return total if total is not None else m.entries[0][0].ring_zero()

    n = mat.rows
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = Matrix([[mat.entries[r][c] for c in range(n) if c != j]
                            for r in range(n) if r != i])
            cof = det(minor)
            if (i + j) % 2:
                cof = -cof
            out[j][i] = cof
    return Matrix(out)


# frozen by the brute-force oracle above, before the library paths existed
WITNESS_DET = {2: -1, 3: -8}


# -- criteria ---------------------------------------------------------------------------


def test_criterion_01_vandermonde_noname(tmp_path):
    with criterion(1, "vandermonde-noname-build-verify", 1.0):
        cert_path = str(tmp_path / "cert.json")
        code, _ = run_cli(["noname-build", "vandermonde_s2", "--out", cert_path])
        assert code == 0
        m, _problem = load_certificate(cert_path)
        x1, x2 = Poly.gens(m.action.x_vars)
        expected_f = x1 * x2 * (x2 - x1)
        assert m.f == expected_f or m.f == -expected_f
        assert m.invariant.weight.table == [Fraction(1), Fraction(-1)]
        swap_w = m.action.w_mats[1]
        from covar.exactalg import qmat_det

        assert m.invariant.weight.value(1) == 1 / qmat_det(swap_w)
        code2, out = run_cli(["noname-verify", cert_path])
        assert code2 == 0
        payload_code, payload = run_cli(["noname-verify", cert_path,
                                         "--format", "machine"])
        assert payload_code == 0
        report = json.loads(payload)["report"]
        assert report["ok"] and all(c["passed"] for c in report["checks"])


def test_criterion_02_symbolic_words():
    with criterion(2, "gl2-word-covariants-symbolic", 60.0):
        Fs = matrix_word_family(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        action = Fs[0].action
        assert len(action.x_vars) == 8 and len(action.g_vars) == 4
        for F in Fs:
            assert F.status == "equivariant"
        ri = det_relative_invariant(Fs)
        assert ri.weight.is_trivial()          # absolute invariant
        assert ri.verify()                     # efficient cleared identity
        # direct clearing: f(gx) = num / det^k equals f
        num, k = action.act_cleared(ri.f, "x")
        det = action.det_poly.embed(num.vars)
        assert num == ri.f.embed(num.vars) * det**k
        m = build_isomorphism(Fs)
        adj_times_frame = m.phi.map(lambda e: e.num) * m.phi_inv
        ident_f = Matrix.identity(4, ri.f).scale(ri.f)
        assert adj_times_frame == ident_f      # adjugate round trip phi*F = I
        assert verify_isomorphism(m).ok


def test_criterion_03_witness_determinants():
    with criterion(3, "word-witness-determinants", 10.0):
        for n in (2, 3):
            A = [[i + 1 if i == j else 0 for j in range(n)] for i in range(n)]
            B = [[1 if i == (j + 1) % n else 0 for j in range(n)]
                 for i in range(n)]
            # oracle: brute-force integer determinant of the evaluated matrix
            cols = []
            for i in range(n):
                for j in range(n):
                    M = int_mat_mul(int_mat_pow(A, i), int_mat_pow(B, j))
                    cols.append([M[r][c] for r in range(n) for c in range(n)])
            oracle_matrix = [[cols[c][r] for c in range(n * n)]
                             for r in range(n * n)]
            oracle_value = perm_expansion_det(oracle_matrix)
            assert oracle_value == WITNESS_DET[n] != 0
            # library path: evaluate the family at the same witness
            Fs = matrix_word_family(n)
            point = {}
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    point[f"a{i}{j}"] = Fraction(A[i - 1][j - 1])
                    point[f"b{i}{j}"] = Fraction(B[i - 1][j - 1])
            rows = evaluate_matrix(Fs, point)
            from covar.exactalg import qmat_det

            lib_value = qmat_det(tuple(tuple(r) for r in rows))
            assert lib_value == Fraction(WITNESS_DET[n])
            assert qmat_rank(rows) == n * n


def test_criterion_04_generator_round_trip():
    with criterion(4, "generators-to-covariants-round-trip", 30.0):
        vander = parse_problem("vandermonde_s2")
        for F in vander.covariants:
            verify_equivariance(F)
        m = build_isomorphism(vander.covariants)
        recovered = covariants_from_generators(m.phi, vander.group)
        for F, R in zip(vander.covariants, recovered):
            assert R.same_coords(F)

        proj = parse_problem("projections_v3_m4")
        for F in proj.covariants:
            verify_equivariance(F)
        m2 = build_isomorphism(proj.covariants)
        recovered2 = covariants_from_generators(m2.phi, proj.group)
        for F, R in zip(proj.covariants, recovered2):
            assert R.same_coords(F)


def test_criterion_05_generation_and_projector():
    import random

    with criterion(5, "reynolds-generation", 30.0):
        s2 = make_finite_group([([["0", "1"], ["1", "0"]],
                                 [["0", "1"], ["1", "0"]])])
        fam2 = generate_covariants(s2, 2)
        assert len(fam2) == 2 and generic_independence(fam2).ok
        s3 = _symmetric_group_action(3)
        fam3 = generate_covariants(s3, 3)
        assert len(fam3) == 3 and generic_independence(fam3).ok
        for G in (s2, s3):
            rng = random.Random(11)
            for _ in range(20):
                coords = []
                for _c in range(G.w_dim):
                    terms = {}
                    for _t in range(rng.randint(1, 3)):
                        exps = tuple(rng.randint(0, 3) for _ in G.x_vars)
                        coeff = Fraction(rng.randint(-6, 6))
                        if coeff:
                            terms[exps] = terms.get(exps, Fraction(0)) + coeff
                    coords.append(Poly(G.x_vars,
                                       {e: c for e, c in terms.items() if c}))
                P = reynolds_project(coords, G)
                assert P.status == "equivariant"
                twice = reynolds_project(P.poly_coords(), G)
                assert twice.poly_coords() == P.poly_coords()


def test_criterion_06_denominator_clearing():
    with criterion(6, "denominator-clearing", 30.0):
        s2 = make_finite_group([([["0", "1"], ["1", "0"]],
                                 [["0", "1"], ["1", "0"]])])
        x1, x2 = Poly.gens(s2.x_vars)
        den = x1 + x2
        F = verified(s2, [RatFn(x1, den), RatFn(x2, den)])
        f, cleared = clear_denominators([F], s2)
        assert not cleared[0].is_rational
        assert cleared[0].status == "equivariant"
        w = weight_of(s2, f)
        assert w is not None and w.is_trivial()
        families = [
            [verified(s2, [RatFn(x1, den), RatFn(x2, den)])],
            [verified(s2, [RatFn(x1, den), RatFn(x2, den)]),
             verified(s2, [x1**2, x2**2])],
            [verified(s2, [RatFn(x1, den), RatFn(x2, den)]),
             verified(s2, [RatFn(x1 * x1, den * x1), RatFn(x2 * x1, den * x1)])],
        ]
        for fam in families:
            before = generic_independence(fam).data["verdict"]
            _, out = clear_denominators(fam, s2)
            after = generic_independence(out).data["verdict"]
            assert before == after


def test_criterion_07_invariant_relation():
    with criterion(7, "cubic-powers-relation", 30.0):
        fam = power_map_family(2, [1, 2, 3])
        G = fam[0].action
        x1, x2 = Poly.gens(G.x_vars)
        e1, e2 = x1 + x2, x1 * x2
        rel = relation_over_function_field(fam)
        assert isinstance(rel, Relation)
        assert rel.coeffs == [e2, -e1, Poly.one(G.x_vars)]
        cleared = relative_invariant_relation(fam)
        assert cleared.coeffs == [e2, -e1, Poly.one(G.x_vars)]
        for h in cleared.coeffs:
            w = weight_of(G, h)
            assert w is not None and w.is_trivial()
        # oracle: direct expansion of e2*F1 - e1*F2 + F3, coordinatewise
        for c in range(2):
            total = (e2 * fam[0].poly_coords()[c]
                     - e1 * fam[1].poly_coords()[c]
                     + fam[2].poly_coords()[c])
            assert total.is_zero()


def test_criterion_08_reflection_descent():
    with criterion(8, "reflection-descent", 30.0):
        fam = power_map_family(2, [1, 2, 3])
        G = fam[0].action
        x1, x2 = Poly.gens(G.x_vars)
        e1, e2 = x1 + x2, x1 * x2
        minimal = Relation([e2, -e1, Poly.one(G.x_vars)], fam).verify()
        multiplied = Relation([x1 * e2, -x1 * e1, x1], fam).verify()
        [swap] = find_reflections(G)
        lowered = lower_relation(multiplied, swap)
        assert lowered.coeffs == minimal.coeffs
        assert lower_relation(minimal, swap).is_zero
        s3 = _symmetric_group_action(3)
        fam3 = power_map_family(3, [1, 2, 3, 4], group=s3)
        minimal3 = relation_over_function_field(fam3)
        refls = find_reflections(s3)
        assert len(refls) == 3
        for s in refls:
            assert lower_relation(minimal3, s).is_zero


def test_criterion_09_scalar_counterexample_cli():
    with criterion(9, "scalar-counterexample", 30.0):
        code, out = run_cli(["module-verdict", "scalar_counterexample",
                             "--format", "machine"])
        assert code == 1
        payload = json.loads(out)["report"]
        assert payload["data"]["verdict"] == "abstain"
        assert payload["data"]["rank"] == 1
        code2, out2 = run_cli(["independence", "scalar_counterexample",
                               "--format", "machine"])
        assert code2 == 1
        data = json.loads(out2)["report"]["data"]
        assert data["rank"] == 1 and data["verdict"] == "dependent"


def test_criterion_10_projection_generators():
    with criterion(10, "projection-field-generators", 30.0):
        problem = parse_problem("projections_v3_m4")
        group = problem.group
        assert len(group.generators) == 2
        for F in problem.covariants:
            rep = verify_equivariance(F)
            assert rep.ok
        m = build_isomorphism(problem.covariants)
        gens = m.generators()
        # oracle: entries of D^{-1} x_4 via test-local cofactor adjugate and
        # permutation-expansion determinant
        ring = group.x_vars + group.w_vars
        D = Matrix([[Poly.var(f"x{i}{j}", ring) for j in (1, 2, 3)]
                    for i in (1, 2, 3)])
        x4 = [Poly.var(f"x{i}4", ring) for i in (1, 2, 3)]
        adj = cofactor_adjugate(D)
        det_rows = [[D.entries[i][j] for j in range(3)] for i in range(3)]
        det_oracle = None
        for perm in itertools.permutations(range(3)):
            prod = Poly.one(ring)
            for i in range(3):
                prod = prod * det_rows[i][perm[i]]
            visited = [False] * 3
            sign = 1
            for i in range(3):
                if visited[i]:
                    continue
                j, length = i, 0
                while not visited[j]:
                    visited[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
            prod = prod if sign == 1 else -prod
            det_oracle = prod if det_oracle is None else det_oracle + prod
        expected = [RatFn(sum((adj.entries[i][j] * x4[j] for j in range(3)),
                              Poly.zero(ring)), det_oracle)
                    for i in range(3)]
        assert len(gens) == 3
        for got, want in zip(gens, expected):
            assert got == want
        rep = verify_isomorphism(m)
        assert rep.ok
        inv_check = [c for c in rep.checks if c.name == "generators_invariant"]
        assert inv_check and inv_check[0].passed


def test_criterion_11_witness_first_independence():
    from covar.exactalg import qmat_det

    with criterion(11, "gl3-independence-witness-first", 10.0):
        code, out = run_cli(["independence", "matrix_words_gl3", "--format", "machine"])
        assert code == 0
        data = json.loads(out)["report"]["data"]
        assert data["verdict"] == "independent" and data["rank"] == 9
        point = {v: Fraction(c) for v, c in data["witness_point"].items()}
        rows = evaluate_matrix(parse_problem("matrix_words_gl3").covariants, point)
        assert qmat_det(tuple(tuple(r) for r in rows)) == Fraction(data["witness_minor"])


def test_criterion_12_s6_power_maps_on_generators(tmp_path):
    n = 6
    cycle = [["1" if i == (j + 1) % n else "0" for j in range(n)] for i in range(n)]
    swap = [["1" if (i, j) in ((0, 1), (1, 0)) or (i == j > 1) else "0"
             for j in range(n)] for i in range(n)]
    xs = [f"x{i}" for i in range(1, n + 1)]
    problem = {"group": {"type": "finite",
                         "generators": [{"x": cycle, "w": cycle}, {"x": swap, "w": swap}]},
               "covariants": [[x if k == 1 else f"{x}^{k}" for x in xs]
                              for k in range(1, n + 1)]}
    path = tmp_path / "s6_power_maps.json"
    path.write_text(json.dumps(problem))
    with criterion(12, "s6-closure-and-verify-on-generators", 10.0):
        assert parse_problem(str(path)).group.order == 720
        code, out = run_cli(["verify", str(path), "--format", "machine"])
        assert code == 0
        checks = json.loads(out)["report"]["checks"]
        assert len(checks) == n
        assert {c["detail"] for c in checks} == {
            "identity holds on 2 generators (2 of 720 elements)"}
