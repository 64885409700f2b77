"""Exact arithmetic layer: polynomials, rational functions, matrices."""

import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from covar.exactalg import (
    EXP_BITS,
    MAX_DEGREE,
    DegreeOverflowError,
    DimensionError,
    ExactAlgError,
    ExactDivisionError,
    Matrix,
    ParseError,
    Poly,
    PrimeField,
    RatFn,
    _grlex_key,
    _parse_poly,
    _rational,
    _split_fraction,
    coeff_div,
    echelon_kernel,
    int_rank_det,
    key_layout,
    lift_coeff,
    pack_exponents,
    parse_entry,
    poly_gcd,
    poly_lcm,
    qmat,
    qmat_det,
    qmat_rank,
    qmat_rank_det,
    unpack_exponents,
)

V2 = ("x1", "x2")
V3 = ("x1", "x2", "x3")


def p2(text):
    return Poly.parse(text, V2)


def p3(text):
    return Poly.parse(text, V3)


# -- hypothesis strategies ----------------------------------------------------

coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=6).filter(bool)


def polys(vars=V2, max_terms=4, max_exp=3, coeff=coeffs):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda terms: Poly(vars, terms))


# -- ring axioms ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert (p + q) * r == p * r + q * r


@settings(max_examples=40, deadline=None)
@given(polys())
def test_additive_structure(p):
    zero = Poly.zero(V2)
    assert p + zero == p
    assert p - p == zero
    assert p * Poly.one(V2) == p


def test_no_zero_coefficients_stored():
    p = p2("x1 + x2") - p2("x2")
    assert list(p.terms.values()) == [Fraction(1)]


def test_exponent_length_enforced():
    with pytest.raises(DimensionError):
        Poly(V2, {(1,): Fraction(1)})


# -- parsing and canonical text ------------------------------------------------


def test_canonical_example_round_trip():
    p = p2("x1*x2^2 - x1^2*x2")
    assert str(p) == "x1*x2^2 - x1^2*x2"
    assert Poly.parse(str(p), V2) == p


@pytest.mark.parametrize("text", [
    "0", "1", "-1", "5/3", "x1", "-x1", "x1 + x2", "2*x1^3 - 1/2*x2",
    "x1*x2^2 - x1^2*x2", "-3/7*x1^2*x2^3 + x1 - 4",
])
def test_parse_serialize_identity(text):
    p = p2(text)
    assert Poly.parse(str(p), V2) == p


@settings(max_examples=50, deadline=None)
@given(polys(max_terms=5))
def test_random_round_trip(p):
    assert Poly.parse(str(p), V2) == p


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        p2("x9 + 1")


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        p2("x1 + + x2")
    with pytest.raises(ParseError):
        p2("x1 $ x2")
    with pytest.raises(ParseError):
        p2("")


@pytest.mark.parametrize("text,message", [
    ("x1 + + x2", "expected a coefficient or variable (at position 5)"),
    ("x1 $ x2", "unexpected character ' ' (at position 2)"),
    ("   ", "empty polynomial text"),
    ("x9 + 1", "undeclared variable 'x9' (at position 0)"),
    ("2*x1 x2", "expected '+' or '-', found 'x2' (at position 5)"),
    ("x1^x2", "expected an integer exponent (at position 3)"),
    ("1/x1", "expected an integer denominator (at position 2)"),
    ("2^3", "expected '+' or '-', found '^' (at position 1)"),
    ("x1 * ", "expected a coefficient or variable (at position 5)"),
    ("-", "expected a coefficient or variable (at position 1)"),
    ("x1^2^3", "expected '+' or '-', found '^' (at position 4)"),
    ("2x1", "expected '+' or '-', found 'x1' (at position 1)"),
    ("x1 +", "expected a coefficient or variable (at position 4)"),
    ("x1**2", "expected a coefficient or variable (at position 3)"),
    # int() reads "1_0" as 10; no token has an underscore after a digit
    ("x1^1_0", "unexpected character '_' (at position 4)"),
    ("1/1_0", "unexpected character '_' (at position 3)"),
])
def test_parse_errors_name_the_position(text, message):
    with pytest.raises(ParseError) as err:
        p2(text)
    assert str(err.value) == message


def test_parse_folds_repeated_factors_and_terms():
    assert str(p2("x1*x1*x2^2 - 3*x2^2*x1^2")) == "-2*x1^2*x2^2"
    assert str(p2("+x1^0*x2^0 + 1 - 1/2*x1*2")) == "2 - x1"
    F5 = PrimeField(5)
    assert str(Poly.parse("5*x1 + 3*x2*2", V2, F5)) == "x2"
    with pytest.raises(ZeroDivisionError):
        Poly.parse("1/5*x1", V2, F5)


def test_parse_round_trips_a_2000_term_polynomial(monkeypatch):
    """The scanner reads a whole signed term per match of its one compiled
    pattern; a token-at-a-time scan of the same text makes about five."""
    from covar import exactalg

    class Spy:
        def __init__(self, pattern):
            self.pattern, self.calls = pattern, 0

        def match(self, *args):
            self.calls += 1
            return self.pattern.match(*args)

    terms = {(i, j, k): Fraction((-1) ** (i + j) * (7 * i + 3 * j + k + 1), 1 + k % 4)
             for i in range(13) for j in range(13) for k in range(13)}
    p = Poly(V3, dict(list(terms.items())[:2000]))
    text = str(p)
    assert len(p.terms) == 2000
    spy = Spy(exactalg._TERM)
    monkeypatch.setattr(exactalg, "_TERM", spy)
    q = p3(text)
    assert q == p and str(q) == text
    assert spy.calls <= len(p.terms) + 1


# -- the term scanner against the token parser it replaced ---------------------

_REF_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^]))")


def _token_parse(text, vars, field=None):
    """The token-by-token recursive descent the term scanner replaced, kept
    here only as the reference for its results and its error messages."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    if not tokens:
        raise ParseError("empty polynomial text")
    pos = 0
    index = {v: i for i, v in enumerate(vars)}

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, len(text))

    def parse_factor(coeff, exps):
        nonlocal pos
        kind, value, at = peek()
        if kind == "int":
            pos += 1
            num = int(value)
            kind2, value2, _ = peek()
            if kind2 == "op" and value2 == "/":
                pos += 1
                kind3, value3, at3 = peek()
                if kind3 != "int":
                    raise ParseError("expected an integer denominator", at3)
                pos += 1
                return coeff * lift_coeff(Fraction(num, int(value3)), field)
            return coeff * lift_coeff(num, field)
        if kind == "name":
            pos += 1
            if value not in index:
                raise ParseError(f"undeclared variable {value!r}", at)
            power = 1
            kind2, value2, _ = peek()
            if kind2 == "op" and value2 == "^":
                pos += 1
                kind3, value3, at3 = peek()
                if kind3 != "int":
                    raise ParseError("expected an integer exponent", at3)
                pos += 1
                power = int(value3)
            exps[index[value]] += power
            return coeff
        raise ParseError("expected a coefficient or variable", at)

    def parse_term():
        nonlocal pos
        exps = [0] * len(vars)
        coeff = parse_factor(lift_coeff(1, field), exps)
        while True:
            kind, value, _ = peek()
            if kind == "op" and value == "*":
                pos += 1
                coeff = parse_factor(coeff, exps)
            else:
                return coeff, tuple(exps)

    terms = {}

    def add_term(negate):
        coeff, exps = parse_term()
        if negate:
            coeff = -coeff
        terms[exps] = terms[exps] + coeff if exps in terms else coeff

    kind, value, _ = peek()
    negate = kind == "op" and value == "-"
    if kind == "op" and value in "+-":
        pos += 1
    add_term(negate)
    while pos < len(tokens):
        kind, value, at = peek()
        if kind != "op" or value not in "+-":
            raise ParseError(f"expected '+' or '-', found {value!r}", at)
        pos += 1
        add_term(value == "-")
    return Poly(vars, terms, field)


_GAP = st.sampled_from(["", "", "", " ", "  ", "\t"])


@st.composite
def _term_texts(draw):
    """A signed term in the grammar with any spacing: repeated factors, ^0,
    denominators (0 among them, and 5, which GF(5) refuses)."""
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        gap, gap2 = draw(_GAP), draw(_GAP)
        if draw(st.booleans()):
            name, power = draw(st.sampled_from(V2)), draw(st.sampled_from([None, 0, 1, 2, 3]))
            factors.append(name if power is None else f"{name}{gap}^{gap2}{power}")
        else:
            num = draw(st.integers(0, 12))
            den = draw(st.sampled_from([None, None, 1, 2, 3, 5, 0]))
            factors.append(str(num) if den is None else f"{num}{gap}/{gap2}{den}")
    joined = "".join(f"{draw(_GAP)}*{draw(_GAP)}{f}" for f in factors[1:])
    return draw(st.sampled_from(["", "+", "-"])) + draw(_GAP) + factors[0] + joined


_polynomial_texts = st.builds(
    lambda first, rest, lead, tail: lead + first + "".join(rest) + tail,
    _term_texts(),
    st.lists(st.builds(lambda g, s, g2, t: f"{g}{s}{g2}{t.lstrip('+-')}", _GAP,
                       st.sampled_from("+-"), _GAP, _term_texts()), max_size=4),
    _GAP, _GAP)

# token soup: characters no token starts with, undeclared names, stray operators
_noise = st.lists(st.sampled_from(
    ["x1", "x2", "x9", "y", "2", "0", "13", "+", "-", "*", "/", "^", " ", "$", "_",
     "x1_", "٣", "\t"]), max_size=8).map("".join)


@st.composite
def _mutated_texts(draw):
    """A valid text with one stretch replaced by token soup."""
    text = draw(_polynomial_texts)
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, len(text)))
    return text[:i] + draw(_noise) + text[j:]


def _parse_outcome(parse, text, field):
    try:
        p = parse(text, V2, field)
    except (ParseError, DegreeOverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return [(e, c, type(c)) for e, c in p.exponent_items()], str(p)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_polynomial_texts, _noise, _mutated_texts()),
       st.sampled_from([None, PrimeField(5)]))
def test_term_scanner_matches_the_token_parser(text, field):
    """Same polynomial, or the same error and message, on texts in and out
    of the grammar, over Q and over GF(5)."""
    assert _parse_outcome(_parse_poly, text, field) == _parse_outcome(_token_parse, text, field)


def test_ratfn_parse_forms():
    f = RatFn.parse("(x1)/(x2 + x1)", V2)
    assert f == RatFn(p2("x1"), p2("x1 + x2"))
    g = RatFn.parse("x1^2", V2)
    assert g.is_poly() and g.as_poly() == p2("x1^2")


# the pattern RatFn.parse matched before it split with string methods
_FRACTION = re.compile(r"\(([^()]*)\)\s*/\s*\(([^()]*)\)")


def _regex_ratfn_parse(text, vars, field, reduce):
    text = text.strip()
    m = _FRACTION.fullmatch(text)
    if m:
        return RatFn(Poly.parse(m.group(1), vars, field),
                     Poly.parse(m.group(2), vars, field), reduce=reduce)
    return RatFn(Poly.parse(text, vars, field), reduce=reduce)


# parentheses, slashes and whitespace (with a no-break space and a line
# separator, which str.strip and \s both take) among polynomial pieces
_fraction_soup = st.lists(st.sampled_from(
    ["(", ")", "/", "()", " ", "\t", "\xa0", "\u2028", "x1", "x2", "+", "-", "2", "*",
     "^"]), max_size=12).map("".join)

_fraction_texts = st.builds(
    lambda g1, num, g2, g3, den, g4: f"{g1}({num}){g2}/{g3}({den}){g4}",
    _GAP, st.one_of(_polynomial_texts, _fraction_soup), st.sampled_from(["", " ", "\xa0"]),
    _GAP, st.one_of(_polynomial_texts, _fraction_soup), _GAP)


def _ratfn_outcome(parse, text, field, reduce):
    try:
        f = parse(text, V2, field, reduce)
    except (ParseError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return sorted(f.num.exponent_items()), sorted(f.den.exponent_items()), str(f)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_fraction_texts, _fraction_soup, _polynomial_texts),
       st.sampled_from([None, PrimeField(5)]), st.booleans())
def test_ratfn_parse_splits_as_the_fraction_pattern(text, field, reduce):
    """The string split reads the parts the old pattern read, and RatFn.parse
    gives the same value, or the same error, on fractions with spaces,
    nested or unbalanced parentheses, a missing slash, ``()/()`` and plain
    polynomials."""
    m = _FRACTION.fullmatch(text.strip())
    assert _split_fraction(text.strip()) == (m.groups() if m else None)
    new = _ratfn_outcome(lambda t, v, f, r: RatFn.parse(t, v, f, reduce=r), text, field, reduce)
    assert new == _ratfn_outcome(_regex_ratfn_parse, text, field, reduce)


@pytest.mark.parametrize("text,parts", [
    ("(x1)/(x2)", ("x1", "x2")),
    ("( x1 ) \t/\xa0( x2 )", (" x1 ", " x2 ")),
    ("()/()", ("", "")),
    ("((x1))/(x2)", None),
    ("(x1)/((x2))", None),
    ("(x1)/(x2", None),
    ("(x1)(x2)", None),
    ("(x1)/(x2)/(x1)", None),
    ("x1 + x2", None),
])
def test_split_fraction_table(text, parts):
    assert _split_fraction(text) == parts


# -- gcd and exact division ------------------------------------------------------


def test_gcd_simple():
    a = p2("x1^2 - x2^2")
    b = p2("x1 + x2") * p2("x1")
    assert poly_gcd(a, b) == p2("x2 + x1").monic()


def test_gcd_coprime():
    assert poly_gcd(p2("x1"), p2("x2")) == Poly.one(V2)


def test_gcd_zero_cases():
    z = Poly.zero(V2)
    p = p2("2*x1")
    assert poly_gcd(z, p) == p.monic()
    assert poly_gcd(p, z) == p.monic()


@settings(max_examples=25, deadline=None)
@given(polys(max_terms=3, max_exp=2), polys(max_terms=3, max_exp=2),
       polys(max_terms=2, max_exp=2))
def test_gcd_divides_both_and_matches_sympy(a, b, g):
    a, b = a * g, b * g
    if a.is_zero() and b.is_zero():
        return
    d = poly_gcd(a, b)
    if not a.is_zero():
        assert d.divides(a)
    if not b.is_zero():
        assert d.divides(b)
    if not g.is_zero():
        assert g.divides(d) or d.divides(g) or poly_gcd(d, g) == g.monic()
    import sympy

    sx1, sx2 = sympy.symbols("x1 x2")
    table = {"x1": sx1, "x2": sx2}

    def to_sympy(p):
        return sympy.Add(*[sympy.Rational(c) * sx1**e[0] * sx2**e[1]
                           for e, c in p.exponent_items()])

    expected = sympy.gcd(to_sympy(a), to_sympy(b))
    got = to_sympy(d)
    quot = sympy.simplify(got / expected)
    assert quot.is_constant(), f"gcd differs from sympy by {quot}"


def test_exact_division_and_failure():
    prod = p2("x1 + x2") * p2("x1 - x2")
    assert prod.exact_div(p2("x1 + x2")) == p2("x1 - x2")
    with pytest.raises(ExactDivisionError):
        p2("x1^2 + x2").exact_div(p2("x1 + x2"))


F5 = PrimeField(5)
F32003 = PrimeField(32003)
_SX = sympy.symbols("x1 x2")


def _to_sympy(p):
    """p as a sympy Poly over QQ, or over GF(p) when p is."""
    if p.field is None:
        return sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                     for e, c in _ref(p).items()}, *_SX, domain="QQ")
    return sympy.Poly.from_dict(dict(p.exponent_items()), *_SX, modulus=p.field.p)


def _over(field):
    """Polynomials over ``field``.  Over Q and GF(5) the coefficients are
    small and unit-heavy, so that products cancel and remainder keys
    vanish and come back during a division; over a word-sized prime they
    are drawn from [0, p), so that sums and products pass p."""
    if field is not None and field.p > 5:
        return polys(max_terms=5, max_exp=3, coeff=st.integers(0, field.p - 1)).map(
            lambda p: Poly(V2, dict(p.exponent_items()), field))
    coeff = st.sampled_from([1, -1, 1, -1, 2, Fraction(1, 2)])
    if field is None:
        return polys(max_terms=5, max_exp=3, coeff=coeff)
    return polys(max_terms=5, max_exp=3, coeff=coeff).map(
        lambda p: Poly(V2, {e: lift_coeff(c, field) for e, c in p.exponent_items()}, field))


def _assert_reduced(p):
    """Every coefficient of p over GF(p) is a plain int in [1, p)."""
    assert all(type(c) is int and 0 < c < p.field.p for c in p.terms.values()), p.terms


@pytest.mark.parametrize("field", [None, F5, F32003], ids=["Q", "GF5", "GF32003"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_exact_division_matches_sympy(field, data):
    """a*b is sympy's product, and gcd(a*b, a*r) is sympy's gcd up to a
    constant; (a*b)/b == a and equals sympy's exquo; a remainder r either
    leaves one in sympy's div too and raises, or the quotient is sympy's.
    Over GF(p) every result holds ints in [1, p)."""
    a, b, r = (data.draw(_over(field)) for _ in range(3))
    assert _to_sympy(a * b) == _to_sympy(a) * _to_sympy(b)
    g = poly_gcd(a * b, a * r)
    if g:
        # monic in sympy's lex order, as poly_gcd is monic in grlex
        assert _to_sympy(g).monic() == _to_sympy(a * b).gcd(_to_sympy(a * r)).monic()
    if field is not None:
        for result in (a * b, a + b, a - b, -a, g):
            _assert_reduced(result)
    if not b:
        return
    assert (a * b).exact_div(b) == a
    if a:
        assert _to_sympy(a) == _to_sympy(a * b).exquo(_to_sympy(b))
    c = a * b + r
    quot, rem = _to_sympy(c).div(_to_sympy(b))
    if rem.is_zero:
        got = c.exact_div(b)
        assert _to_sympy(got) == quot
        if field is not None:
            _assert_reduced(got)
    else:
        with pytest.raises(ExactDivisionError):
            c.exact_div(b)


def test_a_remainder_key_that_vanishes_and_returns_is_taken_once(monkeypatch):
    """Dividing (1 + x1*x2 + x1^2*x2)(2 - x1 + x1^2*x2) by its second factor:
    the first step cancels the dividend's x1^2*x2 and the second gains it
    again, so the heap holds a stale entry for it and one it pushed."""
    from covar import exactalg

    pushed = []
    push = exactalg.heappush
    monkeypatch.setattr(exactalg, "heappush", lambda heap, item:
                        pushed.append(prod.exponents(-item)) or push(heap, item))
    a, b = p2("1 + x1*x2 + x1^2*x2"), p2("2 - x1 + x1^2*x2")
    prod = a * b
    assert (2, 1) in dict(prod.exponent_items())
    assert prod.exact_div(b) == a
    assert (2, 1) in pushed


def test_exact_division_is_linear_in_the_unreduced_product(monkeypatch):
    """A division takes each leading remainder term off a heap: the grlex
    key is evaluated only to find the divisor's leading term, and a heap
    entry is pushed only when the remainder gains a key.  A scan of the
    remainder at every step would evaluate the key about 700 times per
    quotient term here."""
    from covar import exactalg

    V4 = ("x1", "x2", "x3", "x4")
    a = Poly(V4, {(i, j, k, l): (-1) ** (i + k) * (1 + (i * j + k * l) % 5)
                  for i in range(9) for j in range(9) for k in range(9) for l in range(9)
                  if i + j + k + l <= 8})
    b = Poly.parse("x1 - x2 + 2*x3 - x4 + 3", V4)
    prod = a * b
    assert len(prod.terms) >= 500
    calls = {"key": 0, "push": 0}
    key, push = exactalg._grlex_key, exactalg.heappush

    def counted_key(exps):
        calls["key"] += 1
        return key(exps)

    def counted_push(heap, item):
        calls["push"] += 1
        push(heap, item)

    monkeypatch.setattr(exactalg, "_grlex_key", counted_key)
    monkeypatch.setattr(exactalg, "heappush", counted_push)
    assert prod.exact_div(b) == a
    assert calls["key"] <= len(b.terms)
    assert calls["push"] <= len(a.terms) * len(b.terms)


# -- packed exponent keys -------------------------------------------------------------


@st.composite
def _exponent_tuples(draw, n):
    """n exponents of total degree at most MAX_DEGREE, often at the bound:
    each takes all that is left, nothing, or a draw in between."""
    left, out = MAX_DEGREE, []
    for _ in range(n):
        e = draw(st.one_of(st.just(left), st.just(0), st.integers(0, left)))
        out.append(e)
        left -= e
    return tuple(draw(st.permutations(out)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 6))
def test_packed_keys_order_as_grlex_and_round_trip(data, n):
    """Int order of keys is the grlex order of the tuples; a key unpacks to
    its tuple; a sum of keys within the degree bound is the key of the sum;
    a difference sets a guard bit exactly when some exponent goes
    negative, which is how exact_div tests divisibility."""
    a, b = data.draw(_exponent_tuples(n)), data.draw(_exponent_tuples(n))
    ka, kb = pack_exponents(a), pack_exponents(b)
    assert (ka < kb) == (_grlex_key(a) < _grlex_key(b))
    assert (ka == kb) == (a == b)
    assert unpack_exponents(ka, n) == a and unpack_exponents(kb, n) == b
    if sum(a) + sum(b) <= MAX_DEGREE:
        assert ka + kb == pack_exponents(tuple(x + y for x, y in zip(a, b)))
    guard = key_layout(n)[2]
    assert bool((ka - kb) & guard) == any(x < y for x, y in zip(a, b))
    if not (ka - kb) & guard:
        assert ka - kb == pack_exponents(tuple(x - y for x, y in zip(a, b)))


def test_packed_keys_at_the_width_boundary():
    V = ("x1", "x2", "x3")
    for exps in [(MAX_DEGREE, 0, 0), (0, 0, MAX_DEGREE), (1, MAX_DEGREE - 2, 1)]:
        p = Poly(V, {exps: 3})
        assert p.exponent_items() == [(exps, 3)] and p.total_degree() == MAX_DEGREE
        assert Poly.parse(str(p), V) == p
    half = MAX_DEGREE // 2
    top = Poly.parse(f"x1^{half}", V) * Poly.parse(f"x1^{MAX_DEGREE - half}", V)
    assert str(top) == f"x1^{MAX_DEGREE}"
    assert top.exact_div(Poly.parse("x1", V)).total_degree() == MAX_DEGREE - 1
    with pytest.raises(ExactDivisionError):
        top.exact_div(Poly.parse("x2", V))
    # a key of another layout, or one with a guard bit set, is refused
    for key in (-1, 1 << (EXP_BITS - 1), pack_exponents((1, 0, 0)) + 1):
        with pytest.raises(DimensionError):
            Poly(V, {key: 1})


@pytest.mark.parametrize("make,message", [
    (lambda x: x ** (MAX_DEGREE // 2) * x ** (MAX_DEGREE // 2 + 2),
     f"a product of total degree {MAX_DEGREE + 1} is past"),
    (lambda x: x ** (MAX_DEGREE + 1), f"a power of total degree {MAX_DEGREE + 1} is past"),
    (lambda x: (x + 1) ** (MAX_DEGREE + 1), f"a power of total degree {MAX_DEGREE + 1} is past"),
    (lambda x: Poly.parse(f"x1^{MAX_DEGREE + 1}", V2), "a term is past"),
    (lambda x: Poly.parse(f"3 + x1^{MAX_DEGREE}*x2", V2), "a term is past"),
    (lambda x: Poly.parse(f"x2^{MAX_DEGREE} - x2^{MAX_DEGREE}*x1^5 + x2^{MAX_DEGREE}*x1^5", V2),
     "a term is past"),
    (lambda x: Poly.parse(f"x1^{2 ** EXP_BITS}", V2), "a term is past"),
    (lambda x: Poly(V2, {(MAX_DEGREE, 1): 1}), "a term is past"),
], ids=["product", "power", "power-of-a-sum", "parsed", "parsed-product-term",
        "parsed-cancelling", "parsed-full-field", "tuple"])
def test_a_degree_past_the_packed_width_is_refused(make, message):
    """A product, a power or a parsed term past MAX_DEGREE raises, and a
    power is refused before any product is formed; a parsed term that
    cancels is refused too, as its key was formed."""
    with pytest.raises(DegreeOverflowError, match=f"^{message} total degree {MAX_DEGREE}, "):
        make(Poly.var("x1", V2))


def test_exact_division_pushes_only_int_keys(monkeypatch):
    from covar import exactalg

    heaped, pushed = [], []
    heapify, push = exactalg.heapify, exactalg.heappush
    monkeypatch.setattr(exactalg, "heapify", lambda heap: heaped.extend(heap) or heapify(heap))
    monkeypatch.setattr(exactalg, "heappush",
                        lambda heap, item: pushed.append(item) or push(heap, item))
    # the product cancels x1^2*x2, which the division gains back and pushes
    a, b = p2("1 + x1*x2 + x1^2*x2"), p2("2 - x1 + x1^2*x2")
    assert (a * b).exact_div(b) == a
    assert heaped and pushed
    assert {type(item) for item in heaped + pushed} == {int}


def test_subs_writes_its_sum_into_one_term_dict(monkeypatch):
    """A polynomial substitution makes no Poly sum: each term's image is
    added into one dict, so the work is linear in the output."""
    p = p3("1 + x1*x2 - 2*x3^2 + x1^2*x2 + 5*x2*x3")
    images = {"x1": p3("x2 + x3"), "x2": p3("x1 - 1"), "x3": p3("2*x1*x2")}
    expected = p.subs(images)
    calls = []
    add = Poly.__add__
    monkeypatch.setattr(Poly, "__add__", lambda a, b: calls.append(1) or add(a, b))
    assert p.subs(images) == expected
    assert not calls
    ref = Poly.zero(V3)
    for exps, c in p.exponent_items():
        term = Poly.const(c, V3)
        for name, e in zip(V3, exps):
            term = term * images[name] ** e
        ref = add(ref, term)
    assert expected == ref


@settings(max_examples=300, deadline=None)
@given(st.one_of(_fraction_texts, _fraction_soup, _polynomial_texts),
       st.sampled_from([None, PrimeField(5)]))
def test_parse_entry_matches_the_ratfn_route(text, field):
    """A coordinate read by parse_entry equals RatFn.parse then as_poly when
    it is polynomial: the same value, type and text, or the same error."""
    def outcome(read):
        try:
            e = read()
        except (ParseError, DegreeOverflowError, ZeroDivisionError) as exc:
            return type(exc), str(exc)
        terms = e.exponent_items() if isinstance(e, Poly) else (
            e.num.exponent_items(), e.den.exponent_items())
        return type(e), terms, str(e)

    def old():
        f = RatFn.parse(text, V2, field)
        return f.as_poly() if f.is_poly() else f

    assert outcome(lambda: parse_entry(text, V2, field)) == outcome(old)


# -- rational functions -------------------------------------------------------------


def test_ratfn_canonical_form():
    f = RatFn(p2("2*x1^2 + 2*x1*x2"), p2("2*x1"))
    assert f.num == p2("x2 + x1") and f.den == Poly.one(V2)
    g = RatFn(p2("x1"), p2("2*x2"))
    assert g.den.lc() == 1


def test_ratfn_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFn(p2("x1"), Poly.zero(V2))


@settings(max_examples=30, deadline=None)
@given(polys(max_terms=2), polys(max_terms=2).filter(lambda p: not p.is_zero()),
       polys(max_terms=2), polys(max_terms=2).filter(lambda p: not p.is_zero()))
def test_ratfn_addition_two_ways(a, b, c, d):
    direct = RatFn(a * d + c * b, b * d)
    via_canonical = RatFn(a, b) + RatFn(c, d)
    assert direct == via_canonical
    # cross-multiplication agreement with canonical-form equality
    assert direct.num * via_canonical.den == via_canonical.num * direct.den


def test_ratfn_sum_collapses():
    den = p2("x1 + x2")
    assert RatFn(p2("x1"), den) + RatFn(p2("x2"), den) == 1


def test_unreduced_ratfn_compares_equal_to_reduced():
    f = RatFn(p2("x1^2"), p2("x1*x2"), reduce=False)
    assert f == RatFn(p2("x1"), p2("x2"))


# -- matrices -------------------------------------------------------------------------


def cofactor_det(m: Matrix):
    """Independent oracle: recursive cofactor expansion along the first row."""
    n = m.rows
    if n == 1:
        return m.entries[0][0]
    total = None
    for j in range(n):
        entry = m.entries[0][j]
        if not entry:
            continue
        minor = Matrix([row[:j] + row[j + 1:] for row in m.entries[1:]])
        term = entry * cofactor_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return m.entries[0][0].ring_zero()
    return total


def test_det_examples():
    x1, x2 = Poly.gens(V2)
    M = Matrix([[x1, x1**2], [x2, x2**2]])
    assert M.det() == x1 * x2**2 - x1**2 * x2
    assert Matrix.identity(3, x1).det() == 1
    repeated = Matrix([[x1, x2], [x1, x2]])
    assert repeated.det().is_zero()


def test_det_non_square_rejected():
    x1, x2 = Poly.gens(V2)
    with pytest.raises(DimensionError):
        Matrix([[x1, x2]]).det()
    with pytest.raises(DimensionError):
        Matrix([[x1, x2]]).adjugate()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(polys(max_terms=2, max_exp=1), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_bareiss_matches_cofactor(entries):
    m = Matrix(entries)
    assert m.det() == cofactor_det(m)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(polys(max_terms=2, max_exp=1), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_adjugate_identity(entries):
    m = Matrix(entries)
    d = m.det()
    like = entries[0][0]
    expected = Matrix.identity(3, like).scale(d)
    assert m * m.adjugate() == expected
    assert m.adjugate() * m == expected


def test_adjugate_examples():
    x1, x2 = Poly.gens(V2)
    M = Matrix([[x1, x1**2], [x2, x2**2]])
    assert M.adjugate() == Matrix([[x2**2, -(x1**2)], [-x2, x1]])
    assert Matrix.identity(4, x1).adjugate() == Matrix.identity(4, x1)
    a, b, c, d = Poly.gens(("a", "b", "c", "d"))
    sym = Matrix([[a, b], [c, d]])
    assert sym.adjugate() == Matrix([[d, -b], [-c, a]])


def test_rank_examples():
    x1, x2 = Poly.gens(V2)
    assert Matrix([[x1, x2]]).rank() == 1
    assert Matrix([[x1, x1**2], [x2, x2**2]]).rank() == 2
    zero = Poly.zero(V2)
    assert Matrix([[zero, zero], [zero, zero]]).rank() == 0


def test_rank_invariant_under_permutations():
    x1, x2, x3 = Poly.gens(V3)
    m = Matrix([[x1, x2, x3], [x1**2, x2**2, x3**2]])
    base = m.rank()
    perm_rows = Matrix([m.entries[1], m.entries[0]])
    perm_cols = Matrix([[row[2], row[0], row[1]] for row in m.entries])
    assert perm_rows.rank() == base == perm_cols.rank()


def _all_minors_max_size(m: Matrix):
    from itertools import combinations

    best = 0
    for size in range(1, min(m.rows, m.cols) + 1):
        for rows in combinations(range(m.rows), size):
            for cols in combinations(range(m.cols), size):
                sub = Matrix([[m.entries[r][c] for c in cols] for r in rows])
                if not sub.det().is_zero():
                    best = max(best, size)
    return best


@settings(max_examples=15, deadline=None)
@given(st.lists(st.lists(polys(max_terms=2, max_exp=1), min_size=3, max_size=3),
                min_size=2, max_size=3))
def test_rank_equals_max_nonvanishing_minor(entries):
    m = Matrix(entries)
    assert m.rank() == _all_minors_max_size(m)


def test_bareiss_matches_cofactor_4x4_mixed_degrees():
    x1, x2, x3 = Poly.gens(V3)
    one = Poly.one(V3)
    m = Matrix([
        [one, x1, x1**2, x2],
        [one, x2, x2**2, x3],
        [one, x3, x3**2, x1],
        [x1, x2, x3, x1 * x2],
    ])
    assert m.det() == cofactor_det(m)


def test_rank_agrees_with_evaluation_at_good_points():
    """Rank over the function field matches the scalar rank at points where
    a discovered maximal minor does not vanish."""
    x1, x2 = Poly.gens(V2)
    m = Matrix([[x1, x1**2, x1 + x2], [x2, x2**2, x1 + x2]])
    r = m.rank()
    assert r == 2
    minor = Matrix([[m.entries[0][0], m.entries[0][1]],
                    [m.entries[1][0], m.entries[1][1]]]).det()
    for point in [{"x1": 1, "x2": 2}, {"x1": -3, "x2": 5}, {"x1": 2, "x2": 7}]:
        if not minor.eval(point):
            continue
        rows = [[e.eval(point) for e in row] for row in m.entries]
        assert qmat_rank(rows) == r


def test_kernel_vector_normalization():
    x1, x2 = Poly.gens(V2)
    m = Matrix([[x1, x1**2, x1**3], [x2, x2**2, x2**3]])
    ker = echelon_kernel(*m._echelon_ff()[:2])
    assert ker[-1] == 1
    assert ker[0] == RatFn(x1 * x2) and ker[1] == RatFn(-(x1 + x2))
    full = Matrix([[x1, x1**2], [x2, x2**2]])
    assert echelon_kernel(*full._echelon_ff()[:2]) is None


# -- scalar matrices --------------------------------------------------------------------


def test_qmat_helpers():
    m = qmat([["0", "1"], ["1", "0"]])
    assert qmat_det(m) == Fraction(-1)
    assert qmat_rank(m) == 2
    singular = qmat([["1", "2"], ["2", "4"]])
    assert qmat_rank(singular) == 1
    # elimination swaps rows twice here, so the sign comes back to +
    m = qmat([["0", "2", "1"], ["0", "0", "3"], ["5", "1", "0"]])
    assert qmat_rank_det(m) == (3, Fraction(30)) and qmat_det(m) == Fraction(30)
    assert qmat_rank_det(singular) == (1, Fraction(0))
    assert qmat_rank_det(qmat([["1", "2", "3"], ["2", "4", "6"]])) == (1, None)
    assert qmat_rank_det(qmat([["0", "0", "1"], ["1", "0", "0"]])) == (2, None)
    F7 = PrimeField(7)
    assert qmat_rank_det(qmat([["3", "1"], ["1", "5"]], F7), F7) == (1, 0)
    assert qmat_rank_det(qmat([["3", "1"], ["1", "4"]], F7), F7) == (2, 4)


@st.composite
def int_matrices(draw):
    """Small integer matrices, square about half the time, some with a
    dependent row, a zero row or a zero column."""
    n_rows = draw(st.integers(1, 5))
    n_cols = n_rows if draw(st.booleans()) else draw(st.integers(1, 5))
    entries = st.one_of(st.integers(-4, 4), st.integers(-10**12, 10**12))
    rows = draw(st.lists(st.lists(entries, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    if n_rows > 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n_rows - 1))] = [0] * n_cols
    if draw(st.booleans()):
        j = draw(st.integers(0, n_cols - 1))
        for row in rows:
            row[j] = 0
    return rows


@settings(max_examples=300, deadline=None)
@given(int_matrices(), st.sampled_from([2, 3, 7, 10**9 + 7]))
def test_int_rank_det_matches_sympy(rows, p):
    """The Bareiss elimination over Z and over GF(p) against sympy's
    Matrix and DomainMatrix over GF(p)."""
    square = len(rows) == len(rows[0])
    rank, det = int_rank_det(rows)
    expected = sympy.Matrix(rows)
    assert rank == expected.rank()
    assert det == (expected.det() if square else None)
    assert det is None or type(det) is int
    K = sympy.GF(p)
    mod_p = DomainMatrix.from_list(rows, sympy.ZZ).convert_to(K)
    rank, det = int_rank_det(rows, p)
    assert rank == mod_p.rank()
    assert det == (int(mod_p.det()) % p if square else None)


def test_scalar_rank_and_det_over_a_prime_field_take_the_field():
    swap_minus_one = qmat([["-1", "1"], ["1", "-1"]], F5)
    assert qmat_rank(swap_minus_one, F5) == 1
    # 2 and 3 are dependent mod 5 only: 2*4 - 3*1 = 5
    rows = qmat([["2", "3"], ["1", "4"]], F5)
    assert qmat_rank(rows, F5) == 1 and qmat_rank_det(rows, F5) == (1, 0)
    assert qmat_rank(qmat([["2", "3"], ["1", "4"]])) == 2
    assert qmat_rank_det(qmat([["1", "2"], ["3", "4"]], F5), F5) == (2, 3)


def test_int_rank_det_examples():
    assert int_rank_det([[0, 1], [1, 0]]) == (2, -1)
    assert int_rank_det([[0, 2, 1], [0, 0, 3], [5, 1, 0]]) == (3, 30)
    assert int_rank_det([[1, 2], [2, 4]]) == (1, 0)
    assert int_rank_det([[1, 2, 3], [2, 4, 6]]) == (1, None)
    assert int_rank_det([[0, 0], [0, 0], [0, 0]]) == (0, None)
    assert int_rank_det([]) == qmat_rank_det(()) == (0, 1)
    assert int_rank_det([[3, 1], [1, 5]], 7) == (1, 0)
    assert int_rank_det([[3, 1], [1, 4]], 7) == (2, 4)


# -- prime-field mode ---------------------------------------------------------------------


def test_prime_field_arithmetic():
    F7 = PrimeField(7)
    y1, y2 = Poly.gens(V2, F7)
    assert (y1 + y2) ** 7 == y1**7 + y2**7
    half = coeff_div(1, 2, F7)
    assert half == 4 and lift_coeff(half * 2, F7) == 1
    assert (4 * y1 + 3).eval([2, 0]) == 4
    # pow(0, -1, p) raises ValueError; the field division keeps ZeroDivisionError
    for zero in (0, 7, -14):
        with pytest.raises(ZeroDivisionError):
            coeff_div(3, zero, F7)
    # the constructor lifts each coefficient into the field
    assert Poly(("x",), {(1,): 5}, F5).is_zero()
    assert str(Poly(("x",), {(1,): 7}, F5)) == "2*x"
    with pytest.raises(Exception):
        PrimeField(6)


def test_prime_field_decides_large_moduli_quickly():
    import time

    start = time.perf_counter()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ExactAlgError, match="not prime"):
        PrimeField(2**61 + 1)  # 3 divides it
    # a strong pseudoprime to every prime base up to 37
    with pytest.raises(ExactAlgError, match="not prime"):
        PrimeField(318665857834031151167461)
    # a Mersenne prime above the bound of the deterministic test is refused
    with pytest.raises(ExactAlgError, match="too large"):
        PrimeField(2**89 - 1)


def test_prime_field_ratfn_and_det():
    F5 = PrimeField(5)
    y1, y2 = Poly.gens(V2, F5)
    m = Matrix([[y1, y1**2], [y2, y2**2]])
    assert m.det() == y1 * y2**2 - y1**2 * y2
    f = RatFn(y1**2 - y2**2, y1 - y2)
    assert f.is_poly() and f.as_poly() == y1 + y2


LIFTED_STRINGS = ["0", "7", "+4", "-0", "-12", "1_0", " 5 ", "\u0663", "1e3", "1.5",
                  "3/4", "-2/4", "14/7", " -3/6 "]


def _lifted_by_fraction(text, field):
    """The reference route: every string through ``Fraction``, and over
    GF(p) the x in [0, p) with x * den = num mod p, found by search."""
    q = _rational(Fraction(text))
    if field is None:
        return q
    q, p = Fraction(q), field.p
    if not q.denominator % p:
        raise ZeroDivisionError(text)
    return next(x for x in range(p) if (x * q.denominator - q.numerator) % p == 0)


@pytest.mark.parametrize("field", [None, PrimeField(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("text", LIFTED_STRINGS)
def test_lift_coeff_of_a_string_matches_the_fraction_route(text, field):
    got, expected = lift_coeff(text, field), _lifted_by_fraction(text, field)
    assert got == expected and type(got) is type(expected)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**30, 10**30), st.integers(1, 50), st.booleans(),
       st.sampled_from([None, PrimeField(7)]))
def test_lift_coeff_of_integer_and_fraction_strings_matches_the_fraction_route(
        num, den, as_fraction, field):
    text = f"{num}/{den}" if as_fraction else str(num)
    try:
        expected = _lifted_by_fraction(text, field)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            lift_coeff(text, field)
        return
    got = lift_coeff(text, field)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("field", [None, PrimeField(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("text", ["abc", "0x10", "", "1/", "2 3"])
def test_lift_coeff_refuses_a_string_that_is_no_rational(text, field):
    with pytest.raises(ValueError):
        lift_coeff(text, field)


def test_lcm():
    x1, x2 = Poly.gens(V2)
    l = poly_lcm(x1 * (x1 + x2), x2 * (x1 + x2))
    assert l == (x1 * x2 * (x1 + x2)).monic()


# -- the coefficient representation: ints unless a division makes a non-integer --

small_ints = st.integers(-6, 6).filter(bool)
rationals = st.one_of(small_ints, st.fractions(-6, 6, max_denominator=4).filter(bool).map(
    lambda q: lift_coeff(q, None)))


def q_polys(coeff=rationals, max_terms=3):
    return polys(max_terms=max_terms, max_exp=2, coeff=coeff)


def _ref(p):
    """The terms of p as an all-Fraction dict, the reference's representation."""
    return {e: Fraction(c) for e, c in p.exponent_items()}


def _checked(p):
    """The reference dict of p, after checking that every coefficient is
    an int or a Fraction."""
    assert all(type(c) in (int, Fraction) for c in p.terms.values()), p.terms
    return _ref(p)


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_pow(a, k):
    out = {(0,) * len(V2): Fraction(1)}
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _ref_monic(a):
    if not a:
        return a
    lead = a[max(a, key=lambda e: (sum(e), e))]
    return {e: c / lead for e, c in a.items()}


def _ref_subs(a, images):
    """a with variable i replaced by the reference dict images[i]."""
    total = {}
    for e, c in a.items():
        term = {(0,) * len(V2): c}
        for img, k in zip(images, e):
            term = _ref_mul(term, _ref_pow(img, k))
        total = _ref_add(total, term)
    return total


def _ref_eval(a, point):
    total = Fraction(0)
    for e, c in a.items():
        for v, k in zip(point, e):
            c = c * Fraction(v) ** k
        total += c
    return total


@settings(max_examples=60, deadline=None)
@given(q_polys(), q_polys(), st.integers(0, 3), rationals, rationals)
def test_rational_arithmetic_matches_an_all_fraction_reference(p, q, k, a, b):
    rp, rq = _ref(p), _ref(q)
    assert _checked(p + q) == _ref_add(rp, rq)
    assert _checked(p - q) == _ref_add(rp, {e: -c for e, c in rq.items()})
    assert _checked(p * q) == _ref_mul(rp, rq)
    assert _checked(p ** k) == _ref_pow(rp, k)
    assert _checked(p.monic()) == _ref_monic(rp)
    assert _checked(p.subs({"x1": q, "x2": p})) == _ref_subs(rp, [rq, rp])
    value = p.eval([a, b])
    assert type(value) in (int, Fraction) and value == _ref_eval(rp, [a, b])
    if q:
        quot = (p * q).exact_div(q)
        assert _checked(quot) == rp
    assert _checked(p.exact_div(Poly.const(a, V2))) == {
        e: c / Fraction(a) for e, c in rp.items()}
    expected = Fraction(a) / Fraction(b)
    got = coeff_div(a, b)
    assert got == expected
    assert type(got) is (int if expected.denominator == 1 else Fraction)


def _from_sympy(expr, gens):
    return {tuple(e): Fraction(int(c.p), int(c.q))
            for e, c in sympy.Poly(expr, *gens, domain="QQ").terms() if c}


@settings(max_examples=25, deadline=None)
@given(q_polys(), q_polys(), q_polys(max_terms=2))
def test_rational_gcd_matches_an_all_fraction_reference(a, b, g):
    a, b = a * g, b * g
    if not a and not b:
        return
    gens = sympy.symbols("x1 x2")

    def to_sympy(p):
        return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                           * gens[0]**e[0] * gens[1]**e[1] for e, c in _ref(p).items()])

    expected = _ref_monic(_from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)), gens))
    assert _checked(poly_gcd(a, b)) == expected


@settings(max_examples=60, deadline=None)
@given(q_polys(small_ints), q_polys(small_ints), st.integers(0, 3), st.sampled_from([1, -1]))
def test_integer_inputs_give_int_coefficients(p, q, k, unit):
    def ints(r):
        return all(type(c) is int for c in r.terms.values())

    assert ints(p + q) and ints(p - q) and ints(p * q) and ints(p ** k)
    if q:
        # a divisor whose leading coefficient is a unit of Z
        lead = q.leading()[0]
        q = Poly(V2, {**q.terms, lead: unit})
        quot = (p * q).exact_div(q)
        assert quot == p and ints(quot)
