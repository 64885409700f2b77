"""Construction and verification of the localized isomorphism."""

import functools
import operator
from fractions import Fraction

import pytest

from covar.covariant import Covariant, DependentCovariantsError, verified
from covar.exactalg import Matrix, Poly, PrimeField, RatFn
from covar.action import make_finite_group, symbolic_general_linear
from covar.noname import (
    IsomorphismError,
    NoNameMap,
    build_isomorphism,
    covariants_from_generators,
    linearize_isomorphism,
    verify_isomorphism,
)

from conftest import word_covariants


def test_vandermonde_map_explicitly(vandermonde_pair):
    m = build_isomorphism(vandermonde_pair)
    G = m.action
    x1, x2 = Poly.gens(G.x_vars)
    f = x1 * x2**2 - x1**2 * x2
    assert m.f == f
    gens = m.generators()
    ring = gens[0].vars
    w1, w2 = (Poly.var(v, ring) for v in ("w1", "w2"))
    x1e, x2e = (Poly.var(v, ring) for v in ("x1", "x2"))
    assert gens[0] == RatFn(x2e**2 * w1 - x1e**2 * w2, f.embed(ring))
    assert gens[1] == RatFn(-x2e * w1 + x1e * w2, f.embed(ring))


def test_frame_columns_map_to_standard_vectors(vandermonde_pair):
    """Substituting the j-th covariant for w in phi returns the j-th
    standard basis vector of the output space."""
    m = build_isomorphism(vandermonde_pair)
    G = m.action
    gens = m.generators()
    for j, F in enumerate(vandermonde_pair):
        subst = dict(zip(G.w_vars, F.poly_coords()))
        for i in range(m.dim):
            num = gens[i].num.subs(subst, G.x_vars)
            den = gens[i].den.subs({}, G.x_vars)
            assert RatFn(num, den) == (1 if i == j else 0)


def test_verify_passes_for_built_map(vandermonde_pair):
    m = build_isomorphism(vandermonde_pair)
    rep = verify_isomorphism(m)
    assert rep.ok
    names = {c.name for c in rep.checks}
    assert {"phi_linear_in_w", "round_trips", "generators_invariant",
            "weight_is_det_w_inverse"} <= names


def test_dependent_covariants_rejected(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    F = verified(s2, [x1, x2])
    G2 = verified(s2, [x1 + x1, x2 + x2])
    with pytest.raises(DependentCovariantsError):
        build_isomorphism([F, G2])


def test_perturbed_entry_is_caught(vandermonde_pair):
    m = build_isomorphism(vandermonde_pair)
    bad_entries = [row[:] for row in m.phi.entries]
    bad_entries[0][0] = bad_entries[0][0] + 1
    bad = NoNameMap(m.action, m.invariant, Matrix(bad_entries), m.phi_inv)
    rep = verify_isomorphism(bad)
    assert not rep.ok
    details = " ".join(c.detail for c in rep.failed_checks())
    assert "round trip" in details or "identity" in " ".join(
        c.name for c in rep.failed_checks())


def test_trivial_one_dimensional_map():
    triv = make_finite_group([([["1"]], [["1"]])], x_vars=("x1",), w_vars=("w1",))
    F = verified(triv, [Poly.one(("x1",))])
    m = build_isomorphism([F])
    assert m.f == 1
    assert m.generators()[0] == RatFn(Poly.var("w1", ("x1", "w1")))
    assert verify_isomorphism(m).ok


def test_generator_round_trip_vandermonde(vandermonde_pair):
    m = build_isomorphism(vandermonde_pair)
    recovered = covariants_from_generators(m.phi, m.action)
    for F, R in zip(vandermonde_pair, recovered):
        assert R.same_coords(F)
        assert R.status == "equivariant"


def test_generator_round_trip_projections():
    from covar.forge import projection_family

    fam, action = projection_family(3, 4)
    m = build_isomorphism(fam)
    recovered = covariants_from_generators(m.phi, action)
    for F, R in zip(fam, recovered):
        assert R.same_coords(F)


def test_identity_generators_give_coordinate_covariants():
    triv = make_finite_group([([["1", "0"], ["0", "1"]],
                               [["1", "0"], ["0", "1"]])])
    ident = Matrix.identity(2, RatFn.one(triv.x_vars))
    out = covariants_from_generators(ident, triv)
    one = Poly.one(triv.x_vars)
    zero = Poly.zero(triv.x_vars)
    assert out[0].same_coords(Covariant(triv, [one, zero]))
    assert out[1].same_coords(Covariant(triv, [zero, one]))


def test_non_invariant_row_rejected(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    one = Poly.one(s2.x_vars)
    zero = Poly.zero(s2.x_vars)
    bad = Matrix([[RatFn(x1), RatFn(zero)], [RatFn(zero), RatFn(one)]])
    with pytest.raises(IsomorphismError, match="not invariant"):
        covariants_from_generators(bad, s2)


def test_singular_generator_matrix_rejected(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    sym = x1 + x2
    row = [RatFn(sym), RatFn(sym)]
    bad = Matrix([row, row])
    with pytest.raises(IsomorphismError, match="singular"):
        covariants_from_generators(bad, s2)


def test_symbolic_word_isomorphism(conj2):
    Fs = word_covariants(conj2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    m = build_isomorphism(Fs)
    assert m.invariant.weight.is_trivial()
    rep = verify_isomorphism(m)
    assert rep.ok
    recovered = covariants_from_generators(m.phi, conj2)
    for F, R in zip(Fs, recovered):
        assert R.same_coords(F)


# -- linear-component extraction ------------------------------------------------


def test_linearize_discards_higher_order_terms():
    triv = make_finite_group([([["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]])])
    ring = triv.x_vars + triv.w_vars
    w1, w2 = (Poly.var(v, ring) for v in triv.w_vars)
    L, covs = linearize_isomorphism([w1 + w2**2, w2], triv)
    one = Poly.one(triv.x_vars)
    zero = Poly.zero(triv.x_vars)
    assert L == Matrix([[one, zero], [zero, one]])
    assert covs[0].poly_coords() == [one, zero]
    assert covs[1].poly_coords() == [zero, one]


def test_linearize_recovers_vandermonde_up_to_f_power(vandermonde_pair):
    """Clearing the map's denominators needs an even power of f (f itself has
    a sign weight under the swap); the extracted covariants recover the
    original frame divided by that power."""
    m = build_isomorphism(vandermonde_pair)
    G = m.action
    ring = G.x_vars + G.w_vars
    f = m.f
    f2 = (f * f).embed(ring)
    cleared = [g.num.embed(ring) * f2.exact_div(g.den.embed(ring))
               for g in m.generators()]
    L, covs = linearize_isomorphism(cleared, G, unit_denominator=f)
    assert L == m.phi_inv.adjugate().scale(f)
    f2 = f * f
    for F, R in zip(vandermonde_pair, covs):
        for a, b in zip(R.coords, F.poly_coords()):
            lifted = a if isinstance(a, RatFn) else RatFn(a, reduce=False)
            assert lifted == RatFn(b, f2)


def test_linearize_rejects_zero_linear_part():
    triv = make_finite_group([([["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]])])
    ring = triv.x_vars + triv.w_vars
    w1, w2 = (Poly.var(v, ring) for v in triv.w_vars)
    with pytest.raises(IsomorphismError, match="not a unit"):
        linearize_isomorphism([w1**2, w2**2], triv)


def test_linearize_rejects_non_invariant_input(s2):
    ring = s2.x_vars + s2.w_vars
    w1, w2 = (Poly.var(v, ring) for v in s2.w_vars)
    x1 = Poly.var("x1", ring)
    with pytest.raises(IsomorphismError, match="not invariant"):
        linearize_isomorphism([w1 + x1, w2], s2)


def test_linearize_invariant_map_under_swap(s2):
    """An invariant map with unit linear part under the swap action."""
    ring = s2.x_vars + s2.w_vars
    w1, w2 = (Poly.var(v, ring) for v in s2.w_vars)
    x1, x2 = (Poly.var(v, ring) for v in ("x1", "x2"))
    # symmetric combinations: w1 + w2 and an x-weighted swap-stable pairing
    coords = [w1 + w2 + (w1 * w2), x1 * w1 + x2 * w2]
    # the determinant x2 - x1 is only a unit after localizing at it
    diff = Poly.parse("x2 - x1", s2.x_vars)
    L, covs = linearize_isomorphism(coords, s2, unit_denominator=diff)
    assert L.det() == diff
    for F in covs:
        assert F.status == "equivariant"


def test_noname_build_runs_each_structural_check_once(monkeypatch, tmp_path):
    """On a passing map the one product phi * F decides both inverse checks
    and both round trips: F * phi is never multiplied out."""
    import contextlib
    import io

    from covar import noname
    from covar.cli import main

    products = []
    original = noname._rows_off_identity

    def spy(left, right):
        # the gl2 frame is polynomial, so only phi has a nonconstant denominator
        products.append("F*phi" if left[1].is_constant() else "phi*F")
        return original(left, right)
    monkeypatch.setattr(noname, "_rows_off_identity", spy)
    cert = str(tmp_path / "cert.json")
    for argv in (["noname-build", "matrix_words_gl2", "--out", cert],
                 ["noname-verify", cert]):
        products.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert products == ["phi*F"], argv


def test_build_isomorphism_returns_its_report(vandermonde_pair):
    m = build_isomorphism(vandermonde_pair)
    assert m.report.ok
    assert m.report.checks == verify_isomorphism(m).checks


def test_build_isomorphism_names_failed_checks(vandermonde_pair, monkeypatch):
    from covar import noname

    monkeypatch.setattr(noname, "_rows_off_identity", lambda left, right: [0])
    with pytest.raises(IsomorphismError, match="phi_times_frame_is_identity, "
                       "frame_times_phi_is_identity, round_trips, round_trips"):
        build_isomorphism(vandermonde_pair)


def _phi_scans(m, monkeypatch):
    """The phi entries of ``m`` whose terms verify_isomorphism scans."""
    entries = {id(e) for row in m.phi.entries for e in row}
    scanned = []
    for cls in (Poly, RatFn):
        monkeypatch.setattr(cls, "support_vars", lambda self, support=cls.support_vars:
                            scanned.append(id(self)) or support(self))
    assert verify_isomorphism(m).ok
    monkeypatch.undo()
    return entries & set(scanned)


def test_phi_entries_over_x_are_not_scanned(vandermonde_pair, tmp_path, monkeypatch):
    """build_isomorphism and load_certificate make every entry of phi over
    the X-variables, so phi_linear_in_w passes them without a scan."""
    import contextlib
    import io

    from covar.cli import load_certificate, main

    assert not _phi_scans(build_isomorphism(vandermonde_pair), monkeypatch)
    cert = str(tmp_path / "cert.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["noname-build", "projections_v3_m4", "--out", cert]) == 0
    m, _ = load_certificate(cert)
    assert not _phi_scans(m, monkeypatch)


def test_phi_entry_over_the_xw_ring_is_scanned(vandermonde_pair):
    """An entry over a ring larger than X is scanned: a w-term fails
    phi_linear_in_w, and the same entry without it passes."""
    from covar.noname import _over_x

    m = build_isomorphism(vandermonde_pair)
    x_vars = m.action.x_vars
    ring = x_vars + m.action.w_vars
    e = m.phi.entries[0][0]
    num, den = e.num.embed(ring), e.den.embed(ring)
    for extra, linear in ((Poly.var("w1", ring), False), (Poly.zero(ring), True)):
        rows = [row[:] for row in m.phi.entries]
        rows[0][0] = RatFn(num + extra * den, den, reduce=False)
        assert _over_x(rows, x_vars) is linear
    assert _over_x(m.phi.entries, x_vars)


def test_non_square_phi_inv_is_a_dimension_error(vandermonde_pair):
    from covar.exactalg import DimensionError

    m = build_isomorphism(vandermonde_pair)
    x1, x2 = Poly.gens(m.action.x_vars)
    wide = NoNameMap(m.action, m.invariant, m.phi,
                     Matrix([[x1, x1**2, x1], [x2, x2**2, x2]]), m.covariants)
    with pytest.raises(DimensionError, match="phi and phi_inv must both be 2 x 2"):
        verify_isomorphism(wide)


def test_each_report_clears_phi_and_the_frame_once(monkeypatch, tmp_path):
    import contextlib
    import io

    from covar import noname
    from covar.cli import main

    calls = []
    original = noname._cleared_rows
    monkeypatch.setattr(noname, "_cleared_rows",
                        lambda mat: calls.append(mat) or original(mat))
    cert = str(tmp_path / "cert.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["noname-build", "matrix_words_gl2"]) == 0
        assert len(calls) == 2
        assert main(["noname-build", "projections_v3_m4", "--out", cert]) == 0
        assert len(calls) == 4
        assert main(["noname-verify", cert]) == 0
    assert len(calls) == 6


def test_generator_invariance_routes(monkeypatch, tmp_path):
    """generators_invariant is decided by the equivariance ledger on the
    frame columns: noname-build finds them certified by the command's own
    ledger call, and noname-verify checks each certificate column once."""
    import contextlib
    import io

    from covar import cli, covariant, noname
    from covar.cli import main

    calls = []  # one entry per verify_equivariance call: inside verify_isomorphism?
    inside = [False]
    verify_equivariance = covariant.verify_equivariance
    monkeypatch.setattr(covariant, "verify_equivariance",
                        lambda F: calls.append(inside[0]) or verify_equivariance(F))
    verify_isomorphism = noname.verify_isomorphism

    def spy(m):
        inside[0] = True
        try:
            return verify_isomorphism(m)
        finally:
            inside[0] = False
    monkeypatch.setattr(noname, "verify_isomorphism", spy)
    monkeypatch.setattr(cli, "verify_isomorphism", spy)
    cert = str(tmp_path / "cert.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["noname-build", "projections_v3_m4", "--out", cert]) == 0
        assert calls == [False] * 3
        assert main(["noname-verify", cert]) == 0
        assert calls == [False] * 3 + [True] * 3
        assert main(["noname-build", "matrix_words_gl2"]) == 0
    assert calls == [False] * 3 + [True] * 3


# -- certificates: the frame decides generator invariance ----------------------------


def _certificate(tmp_path, problem) -> dict:
    """The payload noname-build writes for a preset name or a problem dict."""
    import contextlib
    import io
    import json

    from covar.cli import main

    if isinstance(problem, dict):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        problem = str(path)
    cert = tmp_path / "built.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["noname-build", problem, "--out", str(cert)]) == 0
    return json.loads(cert.read_text())


def _with_frame(payload: dict, frame: Matrix) -> dict:
    """The certificate with ``frame`` as phi_inv and as its covariants, f its
    determinant and phi = adj(frame)/f its exact inverse."""
    f = frame.det()
    return dict(payload, f=str(f),
                phi=[[str(RatFn(e, f, reduce=False)) for e in row]
                     for row in frame.adjugate().entries],
                phi_inv=[[str(e) for e in row] for row in frame.entries],
                covariants=[[str(row[j]) for row in frame.entries]
                            for j in range(frame.cols)])


def _run_verify(tmp_path, payload: dict):
    """noname-verify on the payload: (exit code, {check name: passed}, map)."""
    import contextlib
    import io
    import json

    from covar.cli import load_certificate, main

    path = tmp_path / "verify.json"
    path.write_text(json.dumps(payload))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["noname-verify", str(path), "--format", "machine"])
    checks = json.loads(out.getvalue())["report"]["checks"]
    return code, {c["name"]: c["passed"] for c in checks}, load_certificate(str(path))[0]


def _generators_fixed_by_every_element(m: NoNameMap) -> bool:
    """Reference: every generator sum_j phi_ij w_j, moved by every element
    of the finite group through the full (x, w)-substitution, is unchanged."""
    action = m.action
    ring = action.x_vars + action.w_vars
    ws = [Poly.var(v, ring, action.field) for v in action.w_vars]
    for g in action.elements():
        subst = dict(action.x_substitution(action.inv[g], ring))
        for v, row in zip(action.w_vars, action.w_mats[action.inv[g]]):
            subst[v] = sum((w * c for w, c in zip(ws, row) if c),
                           Poly.zero(ring, action.field))
        for gen in m.generators():
            if gen.num.subs(subst, ring) * gen.den != gen.num * gen.den.subs(subst, ring):
                return False
    return True


def _power_map_problem(n: int) -> dict:
    cycle = [["1" if i == (j + 1) % n else "0" for j in range(n)] for i in range(n)]
    swap = [["1" if (i, j) in ((0, 1), (1, 0)) or (i == j > 1) else "0"
             for j in range(n)] for i in range(n)]
    xs = [f"x{i}" for i in range(1, n + 1)]
    return {"group": {"type": "finite",
                      "generators": [{"x": cycle, "w": cycle}, {"x": swap, "w": swap}]},
            "covariants": [[x if k == 1 else f"{x}^{k}" for x in xs]
                           for k in range(1, n + 1)]}


def _bad_frame_vandermonde(tmp_path) -> dict:
    """Frame columns (x1, x2) and (2 x1^2, x2^2 + x1 x2): the second is not
    equivariant under the swap, f is still x1 x2^2 - x1^2 x2, and phi is
    the frame's exact inverse."""
    good = _certificate(tmp_path, "vandermonde_s2")
    bad = _bad_vandermonde_column(good)
    assert bad["f"] == good["f"]
    return bad


def _bad_vandermonde_column(payload: dict, m: NoNameMap | None = None) -> dict:
    x1, x2 = Poly.gens(("x1", "x2"))
    return _with_frame(payload, Matrix([[x1, 2 * x1**2], [x2, x2**2 + x1 * x2]]))


def test_bad_frame_certificate_fails_only_generators_invariant(tmp_path):
    code, checks, _ = _run_verify(tmp_path, _bad_frame_vandermonde(tmp_path))
    assert code == 1
    assert [name for name, passed in checks.items() if not passed] == [
        "generators_invariant"]


def test_transposed_gl2_frame_column_fails_generators_invariant(tmp_path):
    good = _certificate(tmp_path, "matrix_words_gl2")
    code, checks, m = _run_verify(tmp_path, good)
    assert code == 0 and all(checks.values())
    rows = [row[:] for row in m.phi_inv.entries]
    # column 2 holds the word A; row-major coordinates 2 and 3 are a12, a21
    rows[1][1], rows[2][1] = rows[2][1], rows[1][1]
    code, checks, _ = _run_verify(tmp_path, _with_frame(good, Matrix(rows)))
    assert code == 1
    assert not checks["generators_invariant"]
    assert checks["phi_times_frame_is_identity"] and checks["frame_times_phi_is_identity"]


def test_frame_verdict_matches_all_elements_reference(tmp_path):
    vandermonde = _certificate(tmp_path, "vandermonde_s2")
    swapped = dict(vandermonde, phi=vandermonde["phi"][::-1])
    bad_frame = _bad_frame_vandermonde(tmp_path)
    # without a covariants field the columns come from phi_inv alone
    bare_bad_frame = {k: v for k, v in bad_frame.items() if k != "covariants"}
    cases = [("vandermonde", vandermonde, 0, True),
             ("s4 power maps", _certificate(tmp_path, _power_map_problem(4)), 0, True),
             ("bad frame", bad_frame, 1, False),
             ("bad frame without covariants", bare_bad_frame, 1, False),
             ("swapped rows", swapped, 1, True)]
    for name, payload, want_code, want_invariant in cases:
        code, checks, m = _run_verify(tmp_path, payload)
        assert code == want_code, name
        assert checks["generators_invariant"] is want_invariant, name
        assert _generators_fixed_by_every_element(m) is want_invariant, name
    # the swapped rows keep every generator invariant and fail the product
    assert not checks["phi_times_frame_is_identity"]


def test_tampered_weight_certificate_fails_noname_verify(tmp_path):
    import contextlib
    import io
    import json

    from covar.cli import load_certificate, main

    cert = tmp_path / "cert.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["noname-build", "projections_v3_m4", "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    values = payload["weight"]["values"]
    assert len(values) == 6
    # one value off at a non-generator element: no longer a character, so
    # relative invariance is checked on every element and fails there
    values[-1] = "2"
    cert.write_text(json.dumps(payload))
    m, _ = load_certificate(str(cert))
    assert len(values) - 1 not in m.action.generators
    assert not m.invariant.weight.check_multiplicative()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["noname-verify", str(cert)]) == 1
    text = out.getvalue()
    assert "[FAIL] f_relative_invariant" in text
    assert "[FAIL] weight_is_det_w_inverse" in text


def _doubled_f(payload: dict, m: NoNameMap) -> dict:
    return dict(payload, f=str(m.f * 2))


def _f_plus_first_variable(payload: dict, m: NoNameMap) -> dict:
    return dict(payload, f=str(m.f + Poly.var(m.f.vars[0], m.f.vars, m.f.field)))


def _transposed_word_a(payload: dict, m: NoNameMap) -> dict:
    rows = [row[:] for row in m.phi_inv.entries]
    rows[1][1], rows[2][1] = rows[2][1], rows[1][1]
    return _with_frame(payload, Matrix(rows))


# (problem, tampering, failed checks): the verdicts of the route that
# substitutes the weight identity whenever it is asked
WEIGHT_ROUTE_CASES = {
    "vandermonde": ("vandermonde_s2", None, []),
    "gl2": ("matrix_words_gl2", None, []),
    "s4": (_power_map_problem(4), None, []),
    "vandermonde 2f": ("vandermonde_s2", _doubled_f, ["f_equals_det_of_frame"]),
    "gl2 2f": ("matrix_words_gl2", _doubled_f, ["f_equals_det_of_frame"]),
    "s4 2f": (_power_map_problem(4), _doubled_f, ["f_equals_det_of_frame"]),
    "vandermonde f+x1": ("vandermonde_s2", _f_plus_first_variable,
                         ["f_equals_det_of_frame", "f_relative_invariant"]),
    "gl2 f+a11": ("matrix_words_gl2", _f_plus_first_variable,
                  ["f_equals_det_of_frame", "f_relative_invariant"]),
    "gl2 transposed A": ("matrix_words_gl2", _transposed_word_a,
                         ["f_relative_invariant", "generators_invariant"]),
    "vandermonde bad frame": ("vandermonde_s2", _bad_vandermonde_column,
                              ["generators_invariant"]),
}


@pytest.mark.parametrize("name", list(WEIGHT_ROUTE_CASES))
def test_weight_verdict_substitutes_only_when_a_premise_fails(name, tmp_path, monkeypatch):
    """f_relative_invariant passes with no substitution when f is det(frame),
    its weight is det(g_W)^-1 and every frame column is certified; if any of
    those fails, the weight identity is substituted.  Either way every
    verdict and the exit code are those the substituting route gives, and
    the direct check of the weight identity agrees."""
    from covar import covariant

    problem, tamper, failed = WEIGHT_ROUTE_CASES[name]
    payload = _certificate(tmp_path, problem)
    if tamper is not None:
        payload = tamper(payload, _run_verify(tmp_path, payload)[2])
    substitutions = []
    direct = covariant._is_relative_invariant
    monkeypatch.setattr(covariant, "_is_relative_invariant",
                        lambda *args: substitutions.append(args) or direct(*args))
    code, checks, m = _run_verify(tmp_path, payload)
    assert code == (1 if failed else 0)
    assert [check for check, passed in checks.items() if not passed] == failed
    premises = ("f_equals_det_of_frame", "weight_is_det_w_inverse", "generators_invariant")
    assert len(substitutions) == (0 if all(checks[c] for c in premises) else 1)
    assert direct(m.action, m.f, m.invariant.weight) is checks["f_relative_invariant"]


@pytest.mark.parametrize("problem", ["vandermonde_s2", "matrix_words_gl2", _power_map_problem(4)],
                         ids=["vandermonde", "gl2", "s4"])
def test_doubled_f_is_refuted_by_one_cofactor(problem, tmp_path, monkeypatch):
    """With only f doubled, phi keeps its own denominator text, so
    phi * frame = I still passes and f = det(frame) is decided from one
    signed (d-1)-minor: noname-verify exits 1 naming f_equals_det_of_frame
    alone, and takes no d x d determinant of the frame."""
    good = _certificate(tmp_path, problem)
    bad = _doubled_f(good, _run_verify(tmp_path, good)[2])
    assert bad["phi"] == good["phi"] and bad["f"] != good["f"]
    dets = []
    det = Matrix.det
    monkeypatch.setattr(Matrix, "det", lambda self: dets.append(
        (self.rows, self.entries[0][0].vars)) or det(self))
    code, checks, m = _run_verify(tmp_path, bad)
    assert code == 1 and checks["phi_times_frame_is_identity"]
    assert [name for name, passed in checks.items() if not passed] == ["f_equals_det_of_frame"]
    assert (m.dim, m.action.x_vars) not in dets and (m.dim - 1, m.action.x_vars) in dets


@pytest.mark.parametrize("left,right,field,equal", [
    (["2*x1", "x2"], ["x1", "2*x2"], None, True),
    (["-x1", "x2"], ["x1", "-x2"], None, True),
    (["x1*x2"], ["x1", "x2"], None, True),
    (["2*x1", "x2"], ["x1", "x2"], None, False),
    (["x1", "x2"], ["x1", "x1"], None, False),
    (["0", "x1"], ["0", "x2"], None, True),
    (["0", "x1"], ["x1"], None, False),
    (["2*x1", "x2"], ["x1", "2*x2"], 5, True),
    (["3*x1"], ["x1", "3"], 5, True),
    (["3*x1"], ["x1", "2"], 5, False),
])
def test_products_equal_strikes_scalar_multiples(left, right, field, equal):
    """The product identity behind f = det(frame) agrees with multiplying
    both sides out, also when a factor is struck against a scalar multiple
    of itself or is zero."""
    from covar.noname import _products_equal

    ring, k = ("x1", "x2"), None if field is None else PrimeField(field)
    lhs, rhs = ([Poly.parse(t, ring, k) for t in side] for side in (left, right))
    product = lambda fs: functools.reduce(operator.mul, fs)
    assert (product(lhs) == product(rhs)) is equal
    assert _products_equal(lhs, rhs) is equal


def test_frame_rows_with_different_denominators(s2):
    """F1 = (1/x1, 1/x2) and F2 = (1, 1): the frame's two rows have the
    denominators x1 and x2, so the frame is cleared over their product."""
    x1, x2 = Poly.gens(s2.x_vars)
    one = Poly.one(s2.x_vars)
    Fs = [verified(s2, [RatFn(one, x1), RatFn(one, x2)]), verified(s2, [one, one])]
    m = build_isomorphism(Fs)
    assert m.frame_rows[1] == x1 * x2
    assert verify_isomorphism(m).ok

    rows = [row[:] for row in m.phi_inv.entries]
    rows[1] = [2 * e for e in rows[1]]
    bad = NoNameMap(m.action, m.invariant, m.phi, Matrix(rows), m.covariants)
    failed = {c.name for c in verify_isomorphism(bad).failed_checks()}
    assert {"f_equals_det_of_frame", "phi_times_frame_is_identity",
            "frame_times_phi_is_identity", "round_trips"} <= failed


def test_build_reuses_the_frame_determinant_and_weight_verdict(tmp_path, monkeypatch):
    """noname-build takes det(frame) by Laplace from the adjugate column it
    forms and substitutes nothing for the weight of f, which follows from
    the certified frame columns; noname-verify checks f = det(frame) from
    one cofactor once phi * frame = I, and its frame ledger with that
    verdict decides the weight, again with no substitution.  Neither takes
    the 4 x 4 determinant of the frame."""
    import contextlib
    import io

    from covar import covariant
    from covar.cli import main

    dets, weights = [], []
    det = Matrix.det
    monkeypatch.setattr(Matrix, "det", lambda self: dets.append(
        (self.rows, self.entries[0][0].vars)) or det(self))
    weight_check = covariant._is_relative_invariant
    monkeypatch.setattr(covariant, "_is_relative_invariant",
                        lambda *args: weights.append(args) or weight_check(*args))
    cert = tmp_path / "gl2.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["noname-build", "matrix_words_gl2", "--out", str(cert)]) == 0
    # the frame is 4 x 4 over the x-ring (the adjugate takes 3 x 3 minors,
    # the W-determinant character a 4 x 4 determinant over the g-ring)
    frame = (4, tuple(f"{m}{i}{j}" for m in "ab" for i in (1, 2) for j in (1, 2)))
    assert dets.count(frame) == 0 and len(weights) == 0
    dets.clear()
    weights.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["noname-verify", str(cert)]) == 0
    # the one cofactor is a 3 x 3 minor of the frame
    assert dets.count(frame) == 0 and dets.count((3, frame[1])) == 1 and len(weights) == 0


def test_parse_round_trips_preset_and_certificate_polynomials(tmp_path):
    from covar.cli import list_presets, parse_problem

    texts = []
    for name in list_presets():
        for F in parse_problem(name).covariants:
            texts += [(str(c), c.vars, c.field) for c in F.coords]
    payload = _certificate(tmp_path, _power_map_problem(4))
    xs = ("x1", "x2", "x3", "x4")
    entries = [payload["f"]] + [e for key in ("phi", "phi_inv")
                                for row in payload[key] for e in row]
    texts += [(text, xs, None) for text in entries]
    assert any(text.startswith("(") for text, _, _ in texts)
    for text, vars, field in texts:
        assert str(RatFn.parse(text, vars, field, reduce=False)) == text


# -- the adjugate of the frame: by equivariance or by cofactors ----------------


def _finite_problem(generators: list, covariants: list) -> dict:
    """A finite group acting on X and W by the same matrices, or by the
    given (x, w) pairs."""
    pairs = [g if isinstance(g, tuple) else (g, g) for g in generators]
    return {"group": {"type": "finite", "generators": [{"x": x, "w": w} for x, w in pairs]},
            "covariants": covariants}


_SWAP3 = [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]]
_CYCLE3 = [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]
_NEGATE1 = [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
_SWAP2 = [["0", "1"], ["1", "0"]]

# (problem, the W basis lines whose cofactor column is formed: one per orbit)
MONOMIAL_FRAMES = {
    **{f"s{n} power maps": (_power_map_problem(n), [0]) for n in (4, 5, 6)},
    # the signed permutations of k^3 and their odd power maps: det(s_W) = -1
    "signed permutations": (_finite_problem(
        [_CYCLE3, _SWAP3, _NEGATE1],
        [[f"x{i}^{k}" for i in (1, 2, 3)] for k in (1, 3, 5)]), [0]),
    # s_W[m][k]/det(s_W) = 2/(-1) and (1/2)/(-1)
    "halving swap": (_finite_problem(
        [[["0", "2"], ["1/2", "0"]]], [["x1", "x2"], ["8*x2^2", "x1^2"]]), [0]),
    # W = k^2 + k: the lines {w1, w2} and {w3} are two orbits
    "two orbits": (_finite_problem(
        [(_SWAP2, _SWAP3)],
        [["x1", "x2", "x1 + x2"], ["x1^2", "x2^2", "x1*x2"], ["1", "1", "1"]]), [0, 2]),
}


@pytest.mark.parametrize("field", [None, {"prime": 32003}], ids=["Q", "mod32003"])
@pytest.mark.parametrize("name", list(MONOMIAL_FRAMES))
def test_the_adjugate_by_equivariance_equals_the_cofactor_adjugate(name, field, monkeypatch):
    """On a monomial W-action a polynomial frame's adjugate is one cofactor
    column per orbit of the W basis lines, moved by the generators, and it
    equals the cofactor adjugate; the map built on it passes its checks."""
    from covar.cli import parse_problem
    from covar.covariant import cleared_rows, ensure_equivariant
    from covar.noname import _frame_adjugate

    raw, representatives = MONOMIAL_FRAMES[name]
    problem = parse_problem(dict(raw, field=field))
    Fs = problem.covariants
    assert ensure_equivariant(Fs).ok
    N, D = cleared_rows(Fs)
    expected = N.adjugate()
    columns, adjugates = [], []
    column, adjugate = Matrix.cofactor_column, Matrix.adjugate
    monkeypatch.setattr(Matrix, "cofactor_column",
                        lambda self, i: columns.append(i) or column(self, i))
    monkeypatch.setattr(Matrix, "adjugate", lambda self: adjugates.append(1) or adjugate(self))
    assert _frame_adjugate(problem.group, N, D) == expected
    assert columns == representatives and not adjugates
    columns.clear()
    assert build_isomorphism(Fs).report.ok
    assert columns == representatives and not adjugates


# (problem, why its frame takes the cofactor adjugate)
COFACTOR_FRAMES = {
    # a rotation of order 3 over Q: its W-matrix has two nonzeros in a row
    "non-monomial W": _finite_problem(
        [[["0", "-1"], ["1", "-1"]]],
        [["x1", "x2"], ["x1^2 - x2^2", "x1^2 - 2*x1*x2"]]),
    # a rational frame: F = diag(D)^-1 N with D = (x1 + x2, x1 + x2)
    "rational frame": _finite_problem(
        [_SWAP2], [["(x1)/(x1 + x2)", "(x2)/(x1 + x2)"], ["x1^2", "x2^2"]]),
    "gl2 words": "matrix_words_gl2",
}


@pytest.mark.parametrize("name", list(COFACTOR_FRAMES))
def test_other_frames_take_the_cofactor_adjugate(name, monkeypatch):
    from covar.cli import parse_problem
    from covar.covariant import ensure_equivariant

    problem = parse_problem(COFACTOR_FRAMES[name])
    assert ensure_equivariant(problem.covariants).ok
    adjugates = []
    adjugate = Matrix.adjugate
    monkeypatch.setattr(Matrix, "adjugate", lambda self: adjugates.append(1) or adjugate(self))
    assert build_isomorphism(problem.covariants).report.ok
    assert len(adjugates) == 1
