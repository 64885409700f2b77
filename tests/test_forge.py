"""Covariant production: averaging, greedy generation, clearing, lifting,
and the built-in families."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from covar.action import (
    ActionError,
    extend_finite_action,
    make_finite_group,
    symbolic_general_linear,
)
from covar.cli import parse_problem
from covar.covariant import (
    Covariant,
    UnverifiedCovariantError,
    coordinate_matrix,
    det_relative_invariant,
    generic_independence,
    verified,
    verify_equivariance,
)
from covar.exactalg import Matrix, Poly, PrimeField, RatFn, qmat_rank
from covar.forge import (
    GenerationExhaustedError,
    ModularObstructionError,
    clear_denominators,
    example_family,
    generate_covariants,
    lift_through_projection,
    matrix_word_family,
    power_map_family,
    projection_family,
    reynolds_project,
    _symmetric_group_action,
)

from conftest import CYCLE3, SWAP, SWAP3, evaluate_matrix


def test_average_of_non_equivariant_seed(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    F = reynolds_project([x1**2, Poly.zero(s2.x_vars)], s2)
    half = Fraction(1, 2)
    assert F.coords[0] == x1**2 * half
    assert F.coords[1] == x2**2 * half
    assert F.status == "equivariant"


def test_average_fixes_equivariant_maps(s3):
    xs = Poly.gens(s3.x_vars)
    F = reynolds_project(list(xs), s3)
    assert F.poly_coords() == list(xs)


def test_average_of_constant_seed(s2):
    one = Poly.one(s2.x_vars)
    zero = Poly.zero(s2.x_vars)
    F = reynolds_project([one, zero], s2)
    half = Fraction(1, 2)
    assert F.coords[0] == one * half and F.coords[1] == one * half


def random_seed_map(G, rng):
    coords = []
    for _ in range(G.w_dim):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in G.x_vars)
            c = Fraction(rng.randint(-5, 5))
            if c:
                terms[exps] = terms.get(exps, Fraction(0)) + c
        coords.append(Poly(G.x_vars, {e: c for e, c in terms.items() if c}))
    return coords


@pytest.mark.parametrize("group_fixture", ["s2", "s3"])
def test_average_is_idempotent_and_linear(group_fixture, request):
    G = request.getfixturevalue(group_fixture)
    rng = random.Random(7)
    for _ in range(20):
        H1 = random_seed_map(G, rng)
        H2 = random_seed_map(G, rng)
        P1 = reynolds_project(H1, G)
        P2 = reynolds_project(H2, G)
        again = reynolds_project(P1.poly_coords(), G)
        assert again.poly_coords() == P1.poly_coords()
        summed = reynolds_project([a + 3 * b for a, b in zip(H1, H2)], G)
        expect = [a + 3 * b for a, b in zip(P1.poly_coords(), P2.poly_coords())]
        assert summed.poly_coords() == expect


def test_generate_s2_bound_two(s2):
    fam = generate_covariants(s2, 2)
    assert len(fam) == 2
    ri = det_relative_invariant(fam)
    assert not ri.is_zero
    assert generic_independence(fam).ok


def test_generate_s3_bound_three(s3):
    fam = generate_covariants(s3, 3)
    assert len(fam) == 3
    assert not det_relative_invariant(fam).is_zero


def test_generate_is_deterministic(s2):
    a = generate_covariants(s2, 2)
    b = generate_covariants(s2, 2)
    for F, G2 in zip(a, b):
        assert F.same_coords(G2)


def test_generate_trivial_and_sign_modules():
    pm_triv = make_finite_group([([["-1"]], [["1"]])],
                                x_vars=("x1",), w_vars=("w1",))
    fam = generate_covariants(pm_triv, 2)
    assert len(fam) == 1 and fam[0].coords[0].is_constant()
    pm_sign = make_finite_group([([["-1"]], [["-1"]])],
                                x_vars=("x1",), w_vars=("w1",))
    fam2 = generate_covariants(pm_sign, 1)
    assert fam2[0].coords[0] == Poly.var("x1", ("x1",))


def test_generate_reports_achieved_rank_on_failure():
    pm_sign = make_finite_group([([["-1"]], [["-1"]])],
                                x_vars=("x1",), w_vars=("w1",))
    with pytest.raises(GenerationExhaustedError) as info:
        generate_covariants(pm_sign, 0)  # degree 0 cannot be sign-equivariant
    assert info.value.achieved_rank == 0


def test_modular_obstruction():
    F2 = PrimeField(2)
    G = make_finite_group([(SWAP, SWAP)], field=F2)
    with pytest.raises(ModularObstructionError):
        reynolds_project([Poly.var("x1", G.x_vars, F2),
                          Poly.zero(G.x_vars, F2)], G)


def test_generate_over_odd_prime_field():
    F5 = PrimeField(5)
    G = make_finite_group([(SWAP, SWAP)], field=F5)
    fam = generate_covariants(G, 2)
    assert len(fam) == 2
    assert not det_relative_invariant(fam).is_zero


# -- generate_covariants against the seed-by-seed route ------------------------

ROTATION = [["0", "-1"], ["1", "0"]]
# W = the rotation plane plus a line on which the rotation acts by -1, so
# the degree-one averages fill only two of the three directions
ROTATION_AND_SIGN = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "-1"]]
REFLECTION = [["3/5", "4/5"], ["4/5", "-3/5"]]
FLIP = [["1", "0"], ["0", "-1"]]


def _symmetric_generators(n):
    """A cycle and a transposition as string matrices."""
    cycle = [["1" if i == (j + 1) % n else "0" for j in range(n)] for i in range(n)]
    swap = [["1" if (i, j) in ((0, 1), (1, 0)) or (i == j > 1) else "0" for j in range(n)]
            for i in range(n)]
    return [cycle, swap]


def _seed_by_seed(G, degree_bound):
    """The reference route: every monomial seed x^alpha e_i averaged on its
    own by reynolds_project, then a full symbolic rank of the kept ones plus
    the average.  Returns (kept, achieved rank, full family found)."""
    d = G.w_dim
    zero = Poly.zero(G.x_vars, G.field)
    kept = []
    for degree in range(degree_bound + 1):
        exps = sorted(e for e in itertools.product(range(degree + 1), repeat=G.x_dim)
                      if sum(e) == degree)
        for e in exps:
            mono = Poly(G.x_vars, {e: 1}, G.field)
            for i in range(d):
                F = reynolds_project([mono if c == i else zero for c in range(d)], G)
                if all(c.is_zero() for c in F.coords):
                    continue
                if coordinate_matrix(kept + [F]).rank() > len(kept):
                    kept.append(F)
                    if len(kept) == d:
                        return kept, d, True
    return kept, len(kept), False


def _s4_power_map_group():
    """S4 from a relabelled 4-cycle and a transposition, as in the power-map
    problems, so its element order differs from _symmetric_group_action(4)."""
    def perm(images):
        return [["1" if images[j] == i else "0" for j in range(4)] for i in range(4)]
    cycle, swap = perm([2, 3, 1, 0]), perm([0, 3, 2, 1])
    return make_finite_group([(cycle, cycle), (swap, swap)])


def _preset_group(name):
    return parse_problem(name).group


# name -> (group builder, degree bound by which a full family exists)
DIFFERENTIAL_GROUPS = {
    "s2": (lambda: make_finite_group([(SWAP, SWAP)]), 3),
    "s3": (lambda: make_finite_group([(CYCLE3, CYCLE3), (SWAP3, SWAP3)]), 3),
    "s4": (lambda: _symmetric_group_action(4), 4),
    "s4_power_maps": (_s4_power_map_group, 4),
    "pm_triv": (lambda: make_finite_group([([["-1"]], [["1"]])]), 2),
    "pm_sign": (lambda: make_finite_group([([["-1"]], [["-1"]])]), 2),
    # two copies of the sign line in W: averages that agree on w1 differ
    "sign_twice": (lambda: make_finite_group(
        [([["-1"]], [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]])]), 2),
    "gf5_swap": (lambda: make_finite_group([(SWAP, SWAP)], field=PrimeField(5)), 3),
    "rotation": (lambda: make_finite_group([(ROTATION, ROTATION)]), 2),
    "rotation_and_sign": (lambda: make_finite_group([(ROTATION, ROTATION_AND_SIGN)]), 2),
    "vandermonde_s2": (lambda: _preset_group("vandermonde_s2"), 3),
    "powers_s2_cubic": (lambda: _preset_group("powers_s2_cubic"), 3),
    "rational_swap": (lambda: _preset_group("rational_swap"), 3),
    "s4_gf32003": (lambda: make_finite_group(
        [(g, g) for g in _symmetric_generators(4)], field=PrimeField(32003)), 3),
    # a reflection with Fraction entries: orbit sums with Fraction coefficients
    "reflection": (lambda: make_finite_group([(REFLECTION, REFLECTION)]), 1),
    # the signed permutations of two coordinates, of order 8
    "signed_permutations": (lambda: make_finite_group(
        [(ROTATION, ROTATION), (FLIP, FLIP)]), 3),
}


@pytest.mark.parametrize("name", DIFFERENTIAL_GROUPS)
def test_generate_matches_seed_by_seed_route(name):
    build, top = DIFFERENTIAL_GROUPS[name]
    G = build()
    for bound in range(top + 1):
        expect, rank, full = _seed_by_seed(G, bound)
        if full:
            got = generate_covariants(G, bound)
        else:
            with pytest.raises(GenerationExhaustedError) as info:
                generate_covariants(G, bound)
            assert info.value.achieved_rank == rank
            got = info.value.found
        assert len(got) == len(expect)
        assert all(F.same_coords(E) and F.status == "equivariant"
                   for F, E in zip(got, expect))
    assert full, f"{name} should reach a full family by degree {top}"


def _trials(monkeypatch, G, bound, kept_class, origin_first=False):
    """generate_covariants(G, bound) through ``kept_class``: the family as
    text, each trial's (ray, outcome, whether it was reduced against the
    echelon), and the kept-transfer record.  With ``origin_first`` the
    origin leads the candidate points; every transfer of positive degree
    vanishes there."""
    from covar import forge

    trials, records = [], []

    class Recording(kept_class):
        def __init__(self, G, points):
            super().__init__(G, [(0,) * G.x_dim] + points if origin_first else points)
            records.append(self)

        def raises(self, t):
            rises = super().raises(t)
            trials.append((t.ray, rises, t.residual is not None))
            return rises

    monkeypatch.setattr(forge, "_Kept", Recording)
    try:
        fam = generate_covariants(G, bound)
    except GenerationExhaustedError as exc:
        fam = exc.found
    monkeypatch.undo()
    return [[str(c) for c in F.coords] for F in fam], trials, records[0]


@pytest.mark.parametrize("origin_first", [False, True], ids=["stream", "origin_first"])
@pytest.mark.parametrize("name", DIFFERENTIAL_GROUPS)
def test_kept_cursor_matches_the_eager_reference(name, origin_first, monkeypatch):
    """The cursor reads, at every trial, the point the eager reference
    reads, so the kept family, every trial's outcome and the trials that
    take the symbolic reduction agree."""
    from covar.forge import _Kept

    from conftest import EagerKept

    build, top = DIFFERENTIAL_GROUPS[name]
    G = build()
    for bound in range(top + 1):
        fam, trials, kept = _trials(monkeypatch, G, bound, _Kept, origin_first)
        assert (fam, trials) == _trials(monkeypatch, G, bound, EagerKept, origin_first)[:2]
        assert len(kept.kept) == len(fam) and kept.cursor < len(kept.points)


def test_kept_cursor_passes_a_degenerate_first_point(monkeypatch):
    """At the origin only the constant transfer is nonzero, so the kept
    ones lose full rank there with the second kept transfer, and the cursor
    moves on to the first point of the stream."""
    from covar.forge import _Kept

    fam, trials, kept = _trials(monkeypatch, _symmetric_group_action(4), 4, _Kept,
                                origin_first=True)
    assert len(fam) == 4 and fam[0] == ["1/4"] * 4
    assert kept.cursor == 1 and len(kept.rows) == 3
    # the second kept transfer is the one read at the origin; the later
    # ones are evaluated at the first point of the stream only
    assert [sorted(t.values) for t in kept.kept] == [[0, 1], [0, 1], [1], [1]]


def test_generate_s4_evaluates_kept_transfers_at_one_point(monkeypatch):
    """S4 at bound 4 keeps full rank at the first candidate point, so every
    transfer, kept or tried, is evaluated there only: one evaluation per
    trial and one per kept transfer that a later trial reads."""
    from covar import forge

    points = []
    at = forge._Kept._at
    monkeypatch.setattr(forge._Kept, "_at",
                        lambda self, t, j: points.append(j) or at(self, t, j))
    assert len(generate_covariants(_symmetric_group_action(4), 4)) == 4
    assert len(points) <= 11 and set(points) == {0}


def test_generate_modular_obstruction_over_gf2():
    G = make_finite_group([(SWAP, SWAP)], field=PrimeField(2))
    for bound in range(3):
        with pytest.raises(ModularObstructionError):
            generate_covariants(G, bound)


@pytest.mark.parametrize("name", ["s3", "s4_power_maps", "gf5_swap", "rotation", "reflection",
                                  "signed_permutations"])
def test_reynolds_project_matches_substitution_sum(name):
    """The shared orbit images against the plain sum over elements of
    g_W H(g^{-1} x), each term substituted with act_on_poly."""
    G = DIFFERENTIAL_GROUPS[name][0]()
    rng = random.Random(11)
    for _ in range(5):
        H = [Poly(G.x_vars, {tuple(rng.randint(0, 2) for _ in G.x_vars):
                             Fraction(rng.randint(1, 5)) if G.field is None
                             else rng.randint(1, 4)
                             for _ in range(3)}, G.field)
             for _ in range(G.w_dim)]
        total = [Poly.zero(G.x_vars, G.field) for _ in range(G.w_dim)]
        for g in G.elements():
            moved = [G.act_on_poly(g, h) for h in H]
            for c in range(G.w_dim):
                for l in range(G.w_dim):
                    total[c] = total[c] + moved[l] * G.w_mats[g][c][l]
        # over GF(p) the product lifts 1/|G| into the field
        assert reynolds_project(H, G).poly_coords() == [t * Fraction(1, G.order) for t in total]


@pytest.mark.parametrize("name,monomial", [
    ("s4", True), ("rotation", True), ("signed_permutations", True), ("gf5_swap", True),
    ("reflection", False), ("rotation_and_sign", True),
])
def test_orbit_images_take_the_monomial_route_on_monomial_groups(name, monomial):
    """A group whose X-matrices have one nonzero per row relabels keys, one
    key and one scalar per element; any other builds term dicts level by
    level.  Both give the same images."""
    from covar.forge import _MonomialImages, _Orbit, _monomials

    G = DIFFERENTIAL_GROUPS[name][0]()
    orbit = _Orbit(G)
    assert orbit.monomial is monomial
    wanted = _monomials(G.x_dim, 3)
    got = list(orbit.images(wanted))
    assert [a for a, _ in got] == sorted(wanted)
    assert all(isinstance(images, _MonomialImages) is monomial for _, images in got)
    if monomial:
        orbit.monomial = False
        for (a, images), (b, dicts) in zip(got, orbit.images(wanted)):
            keys, scalars = images.terms
            assert a == b and [{k: c} for k, c in zip(keys, scalars)] == dicts


def test_generate_s4_ranks_distinct_averages_and_certifies_what_it_keeps(monkeypatch):
    from covar import action, forge

    G = _symmetric_group_action(4)
    calls = {"verify": 0, "trial": 0, "rank": 0, "reduce": 0}
    built = []
    verify, trial, rank = forge.verify_equivariance, forge._Kept.raises, Matrix.rank
    in_span = forge._Kept._in_span
    images = action._linear_images

    def spy_verify(F):
        calls["verify"] += 1
        return verify(F)

    def spy_trial(self, t):
        calls["trial"] += 1
        return trial(self, t)

    def spy_rank(self):
        calls["rank"] += 1
        return rank(self)

    def spy_in_span(self, t):
        calls["reduce"] += 1
        return in_span(self, t)

    def spy_images(rows, space_vars, out_vars, field):
        built.append((id(rows), space_vars, out_vars))
        return images(rows, space_vars, out_vars, field)

    monkeypatch.setattr(forge, "verify_equivariance", spy_verify)
    monkeypatch.setattr(forge._Kept, "raises", spy_trial)
    monkeypatch.setattr(forge._Kept, "_in_span", spy_in_span)
    monkeypatch.setattr(Matrix, "rank", spy_rank)
    monkeypatch.setattr(action, "_linear_images", spy_images)
    fam = generate_covariants(G, 4)
    # every average is certified by construction: none is substituted
    assert len(fam) == 4 and all(F.status == "equivariant" for F in fam)
    assert calls["verify"] == 0
    # 8 distinct orbit sums are tried; each of the 4 kept rises at a witness
    # point, so only the 4 that do not rise are reduced against the echelon
    # of the kept rows, and no trial takes a full symbolic rank
    assert calls["trial"] == 8
    assert calls["reduce"] == 4
    assert calls["rank"] == 0
    # averaging reads the matrix of every g^{-1}, and neither it nor the
    # rank trials build a substitution table
    assert built == []


def test_generate_does_not_rank_a_multiple_of_an_earlier_average(monkeypatch):
    from covar import forge

    G = make_finite_group([(ROTATION, ROTATION_AND_SIGN)])
    trials, reductions = [], []
    trial, in_span = forge._Kept.raises, forge._Kept._in_span
    monkeypatch.setattr(forge._Kept, "raises",
                        lambda self, t: trials.append(t) or trial(self, t))
    monkeypatch.setattr(forge._Kept, "_in_span",
                        lambda self, t: reductions.append(t) or in_span(self, t))
    fam = generate_covariants(G, 2)
    assert [str(F) for F in fam] == ["(1/2*x2, -1/2*x1, 0)", "(1/2*x1, 1/2*x2, 0)",
                                     "(0, 0, 1/2*x2^2 - 1/2*x1^2)"]
    # x2 e_1, x2 e_2 and x2^2 e_3 are ranked; x1 e_1 sums to the same map
    # as x2 e_2, and x1 e_2 to -1 times the sum of x2 e_1
    assert len(trials) == 3
    # each of the three raises the rank at a witness point
    assert reductions == []


def test_substitution_tables_are_cached(s3, monkeypatch):
    from covar import action

    built = []
    images = action._linear_images
    monkeypatch.setattr(action, "_linear_images",
                        lambda *args: built.append(args[1:3]) or images(*args))
    assert s3.x_substitution(2) is s3.x_substitution(2, out_vars=s3.x_vars)
    assert s3.x_substitution(2) is not s3.x_substitution(3)
    ring = s3.x_vars + s3.w_vars
    assert s3.x_substitution(2, ring) is not s3.x_substitution(2)
    # act_cleared reads the same tables, and builds the W-table once
    p = Poly.parse("x1*w2 + x3", ring)
    for _ in range(2):
        s3.act_cleared(p, "xw", ring, 2)
    assert built == [(s3.x_vars, s3.x_vars), (s3.x_vars, s3.x_vars),
                     (s3.x_vars, ring), (s3.w_vars, ring)]


# The family generate_covariants returned for S5 at degree bound 5 before
# averaging shared its orbit images (11 s then), pinned as text.
S5_FAMILY = [["1/5"] * 5] + [
    [" + ".join(f"1/20*x{j}{power}" for j in range(5, 0, -1) if j != i)
     for i in range(1, 6)]
    for power in ("", "^2", "^3", "^4")
]


def test_generate_s5_bound_five_regression():
    G = _symmetric_group_action(5)
    start = time.perf_counter()
    fam = generate_covariants(G, 5)
    elapsed = time.perf_counter() - start
    assert [[str(c) for c in F.coords] for F in fam] == S5_FAMILY
    assert elapsed < 3.0, f"S5 generate took {elapsed:.2f} s"


def test_clear_denominators_swap_example(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    den = x1 + x2
    F = verified(s2, [RatFn(x1, den), RatFn(x2, den)])
    f, cleared = clear_denominators([F], s2)
    assert f == den**2
    assert cleared[0].coords[0] == den * x1
    assert cleared[0].coords[1] == den * x2
    from covar.covariant import weight_of

    assert weight_of(s2, f).is_trivial()


def test_clear_denominators_integral_input(s2, vandermonde_pair):
    f, out = clear_denominators(vandermonde_pair, s2)
    assert f == 1
    for a, b in zip(out, vandermonde_pair):
        assert a.same_coords(b)


def test_clear_denominators_coprime_pair(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    F1 = verified(s2, [RatFn(x1, x1 + x2), RatFn(x2, x1 + x2)])
    F2 = verified(s2, [RatFn(x1**2, x1 * x2), RatFn(x2**2, x1 * x2)])
    f, cleared = clear_denominators([F1, F2], s2)
    # one shared invariant factor clears both denominators
    for F in cleared:
        assert not F.is_rational
    before = generic_independence([F1, F2])
    after = generic_independence(cleared)
    assert before.data["verdict"] == after.data["verdict"]


def test_clear_preserves_independence_verdicts(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    den = x1 + x2
    fam_one = [verified(s2, [RatFn(x1, den), RatFn(x2, den)])]
    fam_two = fam_one + [verified(s2, [RatFn(x1**2, den**2), RatFn(x2**2, den**2)])]
    dependent = fam_one + [verified(s2, [RatFn(x1 * x1 * 2, den * x1),
                                         RatFn(x2 * x1 * 2, den * x1)])]
    for fam in (fam_one, fam_two, dependent):
        before = generic_independence(fam)
        f, cleared = clear_denominators(fam, s2)
        after = generic_independence(cleared)
        assert before.data["verdict"] == after.data["verdict"]


def test_lift_through_projection(s2, vandermonde_pair):
    ext = extend_finite_action(s2, ("y1", "y2"),
                               [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]])
    lifted = lift_through_projection(vandermonde_pair, ext)
    for orig, new in zip(vandermonde_pair, lifted):
        assert new.coords[0].vars == ext.x_vars
        assert new.status == "equivariant"
        assert set(new.coords[0].support_vars()) <= set(s2.x_vars)
    assert generic_independence(lifted).ok


def test_lift_then_build_uses_only_first_factor(s2, vandermonde_pair):
    from covar.noname import build_isomorphism

    ext = extend_finite_action(s2, ("y1", "y2"),
                               [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]])
    lifted = lift_through_projection(vandermonde_pair, ext)
    m = build_isomorphism(lifted)
    for gen in m.generators():
        assert not (gen.support_vars() & {"y1", "y2"})


def test_lift_rejects_non_product_action(s2, vandermonde_pair):
    other = make_finite_group([(SWAP, SWAP)], x_vars=("y1", "y2"))
    with pytest.raises(Exception):
        lift_through_projection(vandermonde_pair, other)


def test_lift_is_certified_without_an_equivariance_check(monkeypatch, s2, vandermonde_pair):
    from covar import covariant, forge

    calls = []
    for module in (covariant, forge):
        check = module.verify_equivariance
        monkeypatch.setattr(module, "verify_equivariance",
                            lambda F, check=check: calls.append(F) or check(F))
    ext = extend_finite_action(s2, ("y1", "y2"),
                               [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]])
    lifted = lift_through_projection(vandermonde_pair, ext)
    fam = matrix_word_family(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    lifted += lift_through_projection(fam, symbolic_general_linear(
        2, "gl_conjugation", "gl_conjugation", x_copies=3, w_copies=1))
    assert calls == [] and all(F.status == "equivariant" for F in lifted)


def test_lift_rejects_uncertified_covariants(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    ext = extend_finite_action(s2, ("y1",), [[["1"]], [["1"]]])
    with pytest.raises(UnverifiedCovariantError):
        lift_through_projection([Covariant(s2, [x1, x2])], ext)


def test_lift_rejects_another_x_template():
    """x1 scaled by s is a covariant of the scalar action; on three trivial
    copies of X it is not, though the X-variables extend x1, x2."""
    scalar = symbolic_general_linear(1, "scalar", "scalar", x_copies=2)
    trivial = symbolic_general_linear(1, "trivial", "scalar", x_copies=3)
    x1, _ = Poly.gens(scalar.x_vars)
    with pytest.raises(ActionError, match="same X template"):
        lift_through_projection([verified(scalar, [x1])], trivial)


def test_lift_word_covariants_to_more_copies():
    """Word covariants on pairs of matrices stay independent when viewed on
    longer tuples through the projection onto the first two factors."""
    from covar.action import symbolic_general_linear

    fam = matrix_word_family(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    bigger = symbolic_general_linear(2, "gl_conjugation", "gl_conjugation",
                                     x_copies=3, w_copies=1)
    lifted = lift_through_projection(fam, bigger)
    assert lifted[0].action is bigger
    for F in lifted:
        assert F.status == "equivariant"
        assert not (set().union(*(c.support_vars() for c in F.coords))
                    & {v for v in bigger.x_vars if v.startswith("c")})
    assert generic_independence(lifted).ok


def test_word_family_sizes_and_independence():
    fam = matrix_word_family(2)
    assert len(fam) == 4
    assert generic_independence(fam).ok
    for F in fam:
        assert F.status == "equivariant"


def test_word_family_rejects_bad_words():
    with pytest.raises(Exception):
        matrix_word_family(2, [(0, -1)])


def test_word_family_witness_evaluation_n2_n3():
    for n in (2, 3):
        fam = matrix_word_family(n)
        point = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                point[f"a{i}{j}"] = Fraction(i) if i == j else Fraction(0)
                point[f"b{i}{j}"] = Fraction(1) if i == (j % n) + 1 else Fraction(0)
        rows = evaluate_matrix(fam, point)
        assert qmat_rank(rows) == n * n


def test_word_family_direct_vs_product_verification():
    """Every word the product argument certifies is equivariant by the
    direct generic-element identity too."""
    words = [(i, j) for i in range(3) for j in range(3)]
    fam = matrix_word_family(2, words=words)
    assert len(fam) == len(words)
    for F in fam:
        assert F.status == "equivariant"
        fresh = Covariant(F.action, F.coords)
        assert fresh.status == "unchecked"
        assert verify_equivariance(fresh).ok and fresh.status == "equivariant"
        assert fresh.same_coords(F)


def _words_from_identity(action, words):
    """The reference expansion: each word starts from I and takes i + j
    products, A and B read off the X-variables by name."""
    n = action.n

    def generic(label):
        return Matrix([[Poly.var(f"{label}{i}{j}", action.x_vars, action.field)
                        for j in range(1, n + 1)] for i in range(1, n + 1)])

    A, B = generic("a"), generic("b")
    out = []
    for i, j in words:
        M = Matrix.identity(n, A.entries[0][0])
        for _ in range(i):
            M = M * A
        for _ in range(j):
            M = M * B
        out.append([e for row in M.entries for e in row])
    return out


def _conjugation_pairs(n, field=None):
    return symbolic_general_linear(n, "gl_conjugation", "gl_conjugation",
                                   x_copies=2, w_copies=1, field=field)


@pytest.mark.parametrize("field", [None, PrimeField(5)], ids=["Q", "GF5"])
@pytest.mark.parametrize("n,words,products", [
    # A^2, A^3, B^2, B^3 one product each, and the nine A^i B^j with i, j > 0
    (2, [(i, j) for i in range(4) for j in range(4)], 4 + 9),
    # A^3 = A (A A), B^2 and A B^2; the second (3, 0) forms nothing
    (2, [(3, 0), (1, 2), (3, 0), (0, 0)], 2 + 1 + 1),
    # A^2, B^2 and the four A^i B^j with i, j > 0
    (3, None, 2 + 4),
], ids=["gl2-to-cubes", "gl2-repeated", "gl3"])
def test_word_expansion_reuses_powers_and_matches_the_identity_loop(n, words, products,
                                                                    field):
    fam = matrix_word_family(n, words, _conjugation_pairs(n, field))
    words = words or [(i, j) for i in range(n) for j in range(n)]
    program = fam[0].source[0].words
    made = []
    program.mul = lambda a, b, _mul=program.mul: made.append(1) or _mul(a, b)
    assert all(F._coords is None for F in fam)
    assert [F.coords for F in fam] == _words_from_identity(fam[0].action, words)
    # each requested power of A and B was formed once: the count above, and
    # expanding every word again multiplies only A^i by B^j
    assert len(made) == products
    for word in words:
        fam[0].source[0].expand(word)
    assert len(made) == products + sum(1 for i, j in words if i and j)


def _explicit(Fs):
    """The same covariants with their coordinates given explicitly, which
    the witness scan compiles with _IntegerColumns."""
    return [Covariant(F.action, F.coords, F.status) for F in Fs]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("field", [None, PrimeField(5)], ids=["Q", "GF5"])
@pytest.mark.parametrize("n,words,verdict", [
    (2, None, "independent"),
    (3, None, "independent"),
    (2, [(0, 0), (1, 0), (1, 0), (1, 1)], "dependent"),
], ids=["gl2", "gl3", "gl2-repeated-word"])
def test_word_point_route_matches_the_compiled_coordinates(n, words, verdict, field, seed):
    """Evaluation at a point is a ring map: the products of scalar point
    matrices and the compiled expanded coordinates give the same witness
    point and minor at every candidate, and the same report.  The repeated
    word has no full-rank point and falls back to the symbolic rank."""
    from covar.covariant import (WITNESS_FIRST_CANDIDATES, _IntegerColumns,
                                 _independence_witness, _point_values, candidate_points)

    fam = matrix_word_family(n, words, _conjugation_pairs(n, field))
    explicit = _explicit(fam)
    assert isinstance(_point_values(explicit), _IntegerColumns)
    assert not isinstance(_point_values(fam), _IntegerColumns)
    stream = candidate_points(fam[0].action.x_dim, random.Random(seed))
    for point in itertools.islice(stream, WITNESS_FIRST_CANDIDATES):
        assert _independence_witness(fam, [point]) == _independence_witness(explicit, [point])
    words_report = generic_independence(fam, seed=seed)
    coords_report = generic_independence(explicit, seed=seed)
    assert words_report.data == coords_report.data
    assert words_report.data["verdict"] == verdict
    assert [c.to_dict() for c in words_report.checks] == [
        c.to_dict() for c in coords_report.checks]


def test_word_point_route_expands_nothing(monkeypatch):
    from covar import forge

    expanded = []
    expand = forge.MatrixWords.expand
    monkeypatch.setattr(forge.MatrixWords, "expand",
                        lambda self, word: expanded.append(word) or expand(self, word))
    fam = matrix_word_family(3)
    assert generic_independence(fam).data["witness_minor"] == "-713682493594416"
    assert expanded == []
    # a dependent family needs the symbolic rank, which reads the coordinates
    assert not generic_independence(matrix_word_family(2, [(1, 0), (1, 0)])).ok
    assert expanded == [(1, 0), (1, 0)]


def test_word_point_route_takes_far_powers_by_squaring():
    """A^1000000 over GF(5) at a point, against the matrix powers taken by
    Fermat: GL_2(F_5) has order 480, so A^1000000 = A^(1000000 mod 480) when
    A is invertible."""
    from covar.forge import _WordValues

    point = (2, 1, 1, 1) + (0, 0, 0, 0)  # A = ((2, 1), (1, 1)), B = 0
    far, near = _WordValues(2, [(1000000, 0), (1000000 % 480, 0)], PrimeField(5)).at(point)[0]
    assert far == near
    assert _WordValues(2, [(1, 0), (2, 0), (5, 0)], None).at(point) == (
        [[2, 1, 1, 1], [5, 3, 3, 2], [89, 55, 55, 34]], ())


# the words whose direct generic-element check takes well under a second;
# the longest gl3 words (A^2 B, A B^2, A^2 B^2) take minutes by substitution
CONSTRUCTION_CASES = {
    "words_gl2": (2, "conjugation", 2, lambda g: matrix_word_family(2, group=g)),
    "words_gl3": (3, "conjugation", 2, lambda g: matrix_word_family(
        3, [(0, 0), (0, 1), (1, 0), (1, 1)], g)),
    "projections_3_4": (3, "natural", 4, lambda g: projection_family(3, 4, g)[0]),
    "projections_3_5": (3, "natural", 5, lambda g: projection_family(3, 5, g)[0]),
}


@pytest.mark.parametrize("field", [None, PrimeField(5)], ids=["Q", "GF5"])
@pytest.mark.parametrize("name", sorted(CONSTRUCTION_CASES))
def test_template_families_certified_by_construction_pass_the_direct_check(name, field):
    """Each member the template argument certifies is equivariant by the
    direct generic-element identity too, and the same check refutes a
    member with two coordinates exchanged."""
    from covar.action import SymbolicGroupAction, TemplateSpec

    n, kind, copies, build = CONSTRUCTION_CASES[name]
    group = SymbolicGroupAction(n, TemplateSpec(kind, copies), TemplateSpec(kind, 1), field)
    fam = build(group)
    for F in fam:
        assert F.status == "equivariant" and F.action is group
        fresh = Covariant(group, F.coords)
        assert verify_equivariance(fresh).ok and fresh.status == "equivariant"
    # the last member is a projection or a product word, never constant
    swapped = list(fam[-1].coords)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not verify_equivariance(Covariant(group, swapped)).ok


# name -> (group builder, degree bound for generate)
AVERAGE_CASES = {
    "s2": (lambda: make_finite_group([(SWAP, SWAP)]), 3),
    "s3": (lambda: make_finite_group([(CYCLE3, CYCLE3), (SWAP3, SWAP3)]), 3),
    "s4": (lambda: _symmetric_group_action(4), 4),
    "s5": (lambda: _symmetric_group_action(5), 5),
    "s3_gf7": (lambda: make_finite_group([(CYCLE3, CYCLE3), (SWAP3, SWAP3)],
                                         field=PrimeField(7)), 3),
    "rotation_and_sign": (lambda: make_finite_group([(ROTATION, ROTATION_AND_SIGN)]), 2),
}


@pytest.mark.parametrize("name", sorted(AVERAGE_CASES))
def test_averages_certified_by_construction_pass_the_direct_check(name):
    """Every covariant generate returns and every Reynolds average is
    certified with no substitution; a fresh copy of each passes the direct
    identity check, and the same check refutes the last generated member
    with its first two distinct coordinates exchanged."""
    build, bound = AVERAGE_CASES[name]
    G = build()
    fam = generate_covariants(G, bound)
    rng = random.Random(5)
    seeds = [[Poly(G.x_vars, {tuple(rng.randint(0, 2) for _ in G.x_vars):
                              rng.randint(1, 6) if G.field else rng.randint(-5, 5)
                              for _ in range(3)}, G.field)
              for _ in range(G.w_dim)] for _ in range(3)]
    averages = [reynolds_project(H, G) for H in seeds]
    assert len(fam) == G.w_dim and any(not F.same_coords(fam[0]) for F in averages)
    for F in fam + averages:
        assert F.status == "equivariant" and F.action is G
        fresh = Covariant(G, F.coords)
        assert verify_equivariance(fresh).ok and fresh.status == "equivariant"
    swapped = list(fam[-1].coords)
    a, b = next((a, b) for a, b in itertools.combinations(range(G.w_dim), 2)
                if swapped[a] != swapped[b])
    swapped[a], swapped[b] = swapped[b], swapped[a]
    # for S2 the exchange is the generator's own W-matrix, so the exchanged
    # member s_W F = F(s x) is again a covariant; no other group here has
    # an exchange that commutes with its W-action
    assert verify_equivariance(Covariant(G, swapped)).ok == (name == "s2")


def _spy_equivariance_checks(monkeypatch) -> list:
    """Record every direct equivariance check, through the forge's own
    import and through the substitution every check runs."""
    from covar import covariant, forge

    calls = []
    witness, verify = covariant._equivariance_witness, forge.verify_equivariance
    monkeypatch.setattr(covariant, "_equivariance_witness",
                        lambda F: calls.append(F) or witness(F))
    monkeypatch.setattr(forge, "verify_equivariance",
                        lambda F: calls.append(F) or verify(F))
    return calls


def test_gl3_word_preset_is_parsed_without_an_equivariance_check(monkeypatch):
    calls = _spy_equivariance_checks(monkeypatch)
    problem = parse_problem("matrix_words_gl3")
    assert len(problem.covariants) == 9 and calls == []
    assert all(F.status == "equivariant" for F in problem.covariants)


def test_clear_denominators_certifies_its_output_without_an_equivariance_check(
        s2, monkeypatch):
    x1, x2 = Poly.gens(s2.x_vars)
    den = x1 + x2
    fam = [verified(s2, [RatFn(x1, den), RatFn(x2, den)]),
           verified(s2, [RatFn(x1**2, den**2), RatFn(x2**2, den**2)])]
    calls = _spy_equivariance_checks(monkeypatch)
    weights = []
    from covar import covariant, forge
    weight_of = covariant.weight_of
    for module in (covariant, forge):
        monkeypatch.setattr(module, "weight_of",
                            lambda G, f: weights.append(f) or weight_of(G, f), raising=False)
    f, cleared = clear_denominators(fam, s2)
    assert calls == [] and weights == []
    # the orbit product is an absolute invariant by construction; the
    # direct computation of its weight agrees
    assert weight_of(s2, f).is_trivial()
    for F, G in zip(cleared, fam):
        assert F.status == "equivariant" and not F.is_rational
        assert all(a == b * f for a, b in zip(F.coords, G.coords))
        # the direct check agrees
        assert verify_equivariance(Covariant(s2, F.coords)).ok


def test_projection_family_shape():
    fam, action = projection_family(3, 5)
    assert len(fam) == 3 and action.x_dim == 15
    assert generic_independence(fam).ok


def test_power_map_family_defaults():
    fam = power_map_family(3)
    xs = Poly.gens(fam[0].action.x_vars)
    assert fam[0].poly_coords() == [x**1 for x in xs]
    assert fam[2].poly_coords() == [x**3 for x in xs]
    assert generic_independence(fam).ok


def test_example_family_dispatch():
    assert len(example_family("matrix_words", n=2)) == 4
    assert len(example_family("projections", n=3, m=5)) == 3
    assert len(example_family("power_maps", n=2)) == 2
    with pytest.raises(Exception, match="unknown"):
        example_family("mystery", n=2)
