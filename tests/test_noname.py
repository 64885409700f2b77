"""Construction and verification of the localized isomorphism."""

from fractions import Fraction

import pytest

from covar.covariant import Covariant, DependentCovariantsError, verified
from covar.exactalg import Matrix, Poly, RatFn
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
        subst = dict(zip(m.w_vars, F.poly_coords()))
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
    bad = NoNameMap(m.action, m.invariant, Matrix(bad_entries), m.phi_inv,
                    m.w_vars, m.out_vars)
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


def test_noname_build_runs_each_structural_check_once(monkeypatch):
    import contextlib
    import io

    from covar import noname
    from covar.cli import main

    counts = {"_product_is_identity": 0, "_round_trip_failures": 0}
    for name in counts:
        original = getattr(noname, name)

        def spy(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(noname, name, spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["noname-build", "matrix_words_gl2"]) == 0
    assert counts == {"_product_is_identity": 2, "_round_trip_failures": 1}


def test_build_isomorphism_returns_its_report(vandermonde_pair):
    m = build_isomorphism(vandermonde_pair)
    assert m.report.ok
    assert m.report.checks == verify_isomorphism(m).checks


def test_build_isomorphism_names_failed_checks(vandermonde_pair, monkeypatch):
    from covar import noname

    monkeypatch.setattr(noname, "_round_trip_failures", lambda m: ["forced failure"])
    with pytest.raises(IsomorphismError, match="round_trips"):
        build_isomorphism(vandermonde_pair)


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
    """noname-build decides generators_invariant by the matrix identity on
    the generators; noname-verify cross-checks by the full substitution on
    every element."""
    import contextlib
    import io

    from covar import noname
    from covar.cli import main

    counts = {"_generator_invariance": 0, "_generator_invariance_direct": 0}
    for name in counts:
        original = getattr(noname, name)

        def spy(m, _name=name, _original=original):
            counts[_name] += 1
            return _original(m)
        monkeypatch.setattr(noname, name, spy)
    cert = str(tmp_path / "cert.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["noname-build", "projections_v3_m4", "--out", cert]) == 0
        assert counts == {"_generator_invariance": 1, "_generator_invariance_direct": 0}
        assert main(["noname-verify", cert]) == 0
    assert counts == {"_generator_invariance": 1, "_generator_invariance_direct": 1}


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


def test_frame_rows_with_different_denominators(s2):
    """F1 = (1/x1, 1/x2) and F2 = (1, 1): the frame's two rows have the
    denominators x1 and x2, so the frame is cleared over their product."""
    import dataclasses

    x1, x2 = Poly.gens(s2.x_vars)
    one = Poly.one(s2.x_vars)
    Fs = [verified(s2, [RatFn(one, x1), RatFn(one, x2)]), verified(s2, [one, one])]
    m = build_isomorphism(Fs)
    assert m.frame_rows[1] == x1 * x2
    assert verify_isomorphism(m).ok

    rows = [row[:] for row in m.phi_inv.entries]
    rows[1] = [2 * e for e in rows[1]]
    bad = dataclasses.replace(m, phi_inv=Matrix(rows), report=None)
    failed = {c.name for c in verify_isomorphism(bad).failed_checks()}
    assert {"phi_times_frame_is_identity", "frame_times_phi_is_identity",
            "round_trips"} <= failed
