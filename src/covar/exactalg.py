"""Exact arithmetic foundation: sparse multivariate polynomials, rational
functions, and fraction-free matrix algebra.

A polynomial is a finite map from monomials to nonzero coefficients, over a
fixed ordered tuple of named variables.  Each monomial is stored as one
packed int key: its total degree in the top field, then the exponents of
x1, ..., xn in fields of ``EXP_BITS`` = 16 bits, so int order is the
monomial order, a product of monomials is one int add and a quotient one
int subtract.  A total degree past ``MAX_DEGREE`` = 32767 is refused with
:class:`DegreeOverflowError`, checked once per product, power and parsed
polynomial; :meth:`Poly.exponent_items` reads the keys back as exponent
tuples, and the constructor takes either form.  Coefficients are exact:
rationals by default, or elements of a prime field ``GF(p)`` when a
:class:`PrimeField` is attached.

* Over Q a coefficient is a Python ``int`` unless a division made it a
  non-integer, and then a ``fractions.Fraction``: :func:`lift_coeff` and
  the parser give ints, ``+ - *`` keep ints as ints, and
  :func:`coeff_div`, the one true division of coefficients, returns an
  int whenever the quotient is integral.  A sum or product of Fractions
  may still be a Fraction of denominator 1; since ``int`` and ``Fraction``
  compare, hash and print alike on equal values, no result depends on
  which of the two holds a value.
* Over GF(p) a coefficient is an ``int`` in [0, p), and the field is known
  only to this module.  :func:`lift_coeff` gives the representative of a
  value, :func:`coeff_div` divides by the inverse ``pow(b, -1, p)``, and
  each operation sums plain int products and reduces its result once per
  key in one post-pass, :func:`reduce_terms`.  The Q loops are the same
  loops, with no branch per term.

Zero coefficients are never stored, so dict equality is semantic equality.

The monomial order is graded lexicographic with the declared variable order
(total degree first, then the exponent tuple compared left to right), the
int order of the keys.  The canonical text form lists terms in ascending
order under it, e.g.
``x1*x2^2 - x1^2*x2``, with coefficients printed as ``p/q`` integers.
Parsing accepts exactly that grammar.

Matrices over polynomials or rational functions share one class; the
determinant and rank routines use fraction-free (Bareiss) elimination, whose
intermediate divisions are exact over any integral domain.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence, Union


class ExactAlgError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class DimensionError(ExactAlgError):
    """Matrix or vector dimensions do not match the operation."""


class ExactDivisionError(ExactAlgError):
    """An exact polynomial division left a remainder."""


class ParseError(ExactAlgError):
    """Input text does not conform to the canonical grammar."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


# Miller-Rabin on these bases decides primality for every p below the bound
# (Sorenson & Webster 2015); larger moduli are refused, not guessed at.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    if p >= _MR_BOUND:
        raise ExactAlgError(f"a modulus of {len(str(p))} digits is too large: "
                            f"primality is proven only below {_MR_BOUND}")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) for a prime p: the tag of a ring whose coefficients are the
    ints in [0, p); :func:`lift_coeff` and :func:`reduce_terms` reduce
    into it."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ExactAlgError(f"{p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


Coeff = Union[int, Fraction]


def _rational(q: Fraction) -> int | Fraction:
    """q as an int when it is integral, else unchanged."""
    return q.numerator if q.denominator == 1 else q


def coeff_div(a: Coeff, b: Coeff, field: PrimeField | None = None) -> Coeff:
    """a / b for coefficients, the one true division of the exact layer.

    Over Q the quotient is an int when it is integral and a Fraction
    otherwise; over GF(p), a times the inverse of b, in [0, p).  A b that
    is 0 in the field raises ``ZeroDivisionError``."""
    if field is not None:
        p = field.p
        if not b % p:
            raise ZeroDivisionError("division by zero in prime field")
        return a * pow(b, -1, p) % p
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _rational(a / b)


def _read_rational(text: str) -> int | Fraction:
    """A rational string as an int when ``int`` reads it, which agrees with
    ``Fraction`` wherever it succeeds, else as ``_rational(Fraction(text))``;
    a string neither reads raises ``ValueError``."""
    try:
        return int(text)
    except ValueError:
        return _rational(Fraction(text))


def lift_coeff(value, field: PrimeField | None) -> Coeff:
    """Lift an int, Fraction or string into the coefficient field: over Q
    an integral value becomes an int, and over GF(p) every value becomes
    its representative in [0, p)."""
    if isinstance(value, str):
        value = _read_rational(value)
    elif not isinstance(value, (int, Fraction)):
        raise ExactAlgError(f"cannot use {value!r} as a "
                            f"{'rational' if field is None else f'GF({field.p})'} coefficient")
    if field is None:
        return value if type(value) is int else _rational(value)
    p = field.p
    if type(value) is int:
        return value % p
    if not value.denominator % p:
        raise ZeroDivisionError(f"denominator {value.denominator} vanishes mod {p}")
    return value.numerator * pow(value.denominator, -1, p) % p


def reduce_terms(terms: dict[int, Coeff], field: PrimeField | None) -> dict[int, Coeff]:
    """The term dict of one operation's result.  Over GF(p) its int sums
    of products are reduced here, once per key, into [0, p), and the keys
    that reduce to 0 are dropped; over Q ``terms`` is returned as it is,
    as the loops that build it drop zeros as they go."""
    if field is None:
        return terms
    p = field.p
    return {k: r for k, c in terms.items() if (r := c % p)}


# ---------------------------------------------------------------------------
# packed exponents
# ---------------------------------------------------------------------------

# A monomial x1^e1 ... xn^en of a ring of n variables is stored as one int,
# its key: the total degree in the top field, then e1, ..., en in fields of
# EXP_BITS bits each, x1 the most significant.  The int order of keys is
# then the graded lex order, the key of a product of monomials is the sum
# of their keys, and the key of a quotient their difference.  The top bit of
# each exponent field is a guard that no stored key sets: a difference of
# keys sets it exactly when some exponent went negative, and no sum of keys
# carries out of a field while the total degree is at most MAX_DEGREE.
EXP_BITS = 16
MAX_DEGREE = (1 << (EXP_BITS - 1)) - 1
EXP_MASK = (1 << EXP_BITS) - 1


class DegreeOverflowError(ExactAlgError):
    """A total degree past ``MAX_DEGREE``, the most a packed key holds."""


def _degree_error(what: str) -> DegreeOverflowError:
    return DegreeOverflowError(f"{what} is past total degree {MAX_DEGREE}, the most "
                               "a packed exponent holds")


# the layout of each ring size met so far; a pure function of the size
_KEY_LAYOUTS: dict[int, tuple[tuple[int, ...], int, int]] = {}


def key_layout(n: int) -> tuple[tuple[int, ...], int, int]:
    """(shifts, top, guard) of a ring of n variables: the shift of each
    exponent field, the shift of the degree field, and the guard bits."""
    layout = _KEY_LAYOUTS.get(n)
    if layout is None:
        shifts = tuple(EXP_BITS * (n - 1 - i) for i in range(n))
        guard = sum(1 << (s + EXP_BITS - 1) for s in shifts)
        layout = _KEY_LAYOUTS[n] = shifts, EXP_BITS * n, guard
    return layout


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    """The graded lex order on exponent tuples: total degree first, then
    the tuple.  The int order of packed keys is this order."""
    return (sum(exps), exps)


def pack_exponents(exps: Sequence[int]) -> int:
    """The packed key of an exponent tuple; a negative exponent or a total
    degree past ``MAX_DEGREE`` is refused."""
    shifts, top, _ = key_layout(len(exps))
    degree = key = 0
    for e, s in zip(exps, shifts):
        if e < 0:
            raise ExactAlgError(f"negative exponent in {tuple(exps)}")
        degree += e
        key += e << s
    if degree > MAX_DEGREE:
        raise _degree_error("a term")
    return key + (degree << top)


def unpack_exponents(key: int, n: int) -> tuple[int, ...]:
    """The exponent tuple of a packed key of a ring of n variables."""
    return tuple((key >> s) & EXP_MASK for s in key_layout(n)[0])


def unit_keys(n: int) -> list[int]:
    """The packed key of each variable of a ring of n variables: a monomial
    times x_i has its key plus the i-th."""
    shifts, top, _ = key_layout(n)
    return [(1 << top) + (1 << s) for s in shifts]


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Sparse multivariate polynomial over an exact coefficient field.

    ``vars`` is the ordered tuple of variable names; ``terms`` maps the
    packed key of each monomial (see :func:`pack_exponents`) to its nonzero
    coefficient, and :meth:`exponent_items` reads them back as exponent
    tuples.  Instances are treated as immutable: every operation returns a
    new polynomial, so shared values are safe under concurrent use.

    Over Q a coefficient is an ``int`` unless a division made it a
    non-integer ``Fraction`` (see the module docstring): products and sums of
    integer polynomials stay in int arithmetic, and :meth:`exact_div` and
    :meth:`monic` divide through :func:`coeff_div`.

    Binary operations require both operands to live in the same ring (same
    variable tuple and coefficient field); use :meth:`embed` to move a
    polynomial into a larger ring first.
    """

    __slots__ = ("vars", "terms", "field")

    def __init__(self, vars: Sequence[str],
                 terms: Mapping[tuple[int, ...] | int, Coeff] | None = None,
                 field: PrimeField | None = None):
        """``terms`` is keyed by exponent tuples, one entry per variable, or
        by packed keys of this ring; over GF(p) each coefficient is lifted
        into the field, and zero coefficients are dropped."""
        self.vars = tuple(vars)
        self.field = field
        cleaned: dict[int, Coeff] = {}
        if terms:
            nv = len(self.vars)
            _, top, guard = key_layout(nv)
            for exps, coeff in terms.items():
                if type(exps) is int:
                    key = exps
                    if (key < 0 or key & guard
                            or key >> top != sum(unpack_exponents(key, nv))):
                        raise DimensionError(f"{key} is not a packed key of {nv} variables")
                    if key >> top > MAX_DEGREE:
                        raise _degree_error("a term")
                elif len(exps) != nv:
                    raise DimensionError(
                        f"exponent vector {exps} has length {len(exps)}, expected {nv}")
                else:
                    key = pack_exponents(exps)
                if field is not None:
                    coeff = lift_coeff(coeff, field)
                if coeff:
                    cleaned[key] = coeff
        self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def packed(cls, vars: tuple[str, ...], terms: dict[int, Coeff],
               field: PrimeField | None = None) -> "Poly":
        """The polynomial on ``terms``, already keyed by packed keys of the
        ring ``vars`` and free of zero coefficients; the dict is taken as
        it is, neither copied nor checked."""
        p = cls.__new__(cls)
        p.vars, p.terms, p.field = vars, terms, field
        return p

    @classmethod
    def zero(cls, vars: Sequence[str], field: PrimeField | None = None) -> "Poly":
        return cls.packed(tuple(vars), {}, field)

    @classmethod
    def const(cls, value, vars: Sequence[str], field: PrimeField | None = None) -> "Poly":
        c = lift_coeff(value, field)
        return cls.packed(tuple(vars), {0: c} if c else {}, field)

    @classmethod
    def one(cls, vars: Sequence[str], field: PrimeField | None = None) -> "Poly":
        return cls.const(1, vars, field)

    @classmethod
    def var(cls, name: str, vars: Sequence[str], field: PrimeField | None = None) -> "Poly":
        vars = tuple(vars)
        try:
            idx = vars.index(name)
        except ValueError:
            raise ParseError(f"undeclared variable {name!r}") from None
        return cls.packed(vars, {unit_keys(len(vars))[idx]: 1}, field)

    @classmethod
    def gens(cls, vars: Sequence[str], field: PrimeField | None = None) -> list["Poly"]:
        """The variables of the ring, taken by position."""
        vars = tuple(vars)
        return [cls.packed(vars, {key: 1}, field) for key in unit_keys(len(vars))]

    @classmethod
    def parse(cls, text: str, vars: Sequence[str], field: PrimeField | None = None) -> "Poly":
        return _parse_poly(text, tuple(vars), field)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_value(self) -> Coeff:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ExactAlgError("polynomial is not constant")
        return self.terms[0]

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(self.terms) >> (EXP_BITS * len(self.vars))

    def exponents(self, key: int) -> tuple[int, ...]:
        """The exponent tuple of a packed key of this ring."""
        return unpack_exponents(key, len(self.vars))

    def exponent_items(self) -> list[tuple[tuple[int, ...], Coeff]]:
        """(exponent tuple, coefficient) of each term, in stored order."""
        n = len(self.vars)
        return [(unpack_exponents(k, n), c) for k, c in self.terms.items()]

    def _used(self) -> int:
        """The OR of the keys: its field of a variable is nonzero exactly
        when some term has that variable."""
        used = 0
        for key in self.terms:
            used |= key
        return used

    def support_vars(self) -> set[str]:
        used = self._used()
        return {name for name, s in zip(self.vars, key_layout(len(self.vars))[0])
                if (used >> s) & EXP_MASK}

    def leading(self) -> tuple[int, Coeff]:
        """Leading (packed key, coefficient) under graded lex; error on zero."""
        if not self.terms:
            raise ExactAlgError("zero polynomial has no leading term")
        key = max(self.terms)
        return key, self.terms[key]

    def lc(self) -> Coeff:
        return self.leading()[1]

    # -- ring plumbing -----------------------------------------------------

    def _check_ring(self, other: "Poly"):
        if self.vars != other.vars:
            raise DimensionError(
                f"variable mismatch: {self.vars} vs {other.vars}")
        if self.field != other.field:
            raise ExactAlgError("coefficient field mismatch")

    def _lift(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other, self.vars, self.field)
        return None

    def ring_one(self) -> "Poly":
        return Poly.one(self.vars, self.field)

    def ring_zero(self) -> "Poly":
        return Poly.zero(self.vars, self.field)

    def embed(self, new_vars: Sequence[str]) -> "Poly":
        """Reindex into another ring, which must hold every variable that
        occurs; the degree field of each key moves with its exponents."""
        new_vars = tuple(new_vars)
        if new_vars == self.vars:
            return self
        shifts, top, _ = key_layout(len(self.vars))
        new_shifts, new_top, _ = key_layout(len(new_vars))
        moves, missing = [], 0
        for name, s in zip(self.vars, shifts):
            if name in new_vars:
                moves.append((s, new_shifts[new_vars.index(name)]))
            else:
                missing |= EXP_MASK << s
        if self._used() & missing:
            raise DimensionError("target ring is missing a variable that occurs")
        terms = {}
        for key, coeff in self.terms.items():
            out = (key >> top) << new_top
            for s, t in moves:
                out += ((key >> s) & EXP_MASK) << t
            terms[out] = coeff
        return Poly.packed(new_vars, terms, self.field)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        self._check_ring(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key)
            val = coeff if acc is None else acc + coeff
            if val:
                out[key] = val
            elif acc is not None:
                del out[key]
        return Poly.packed(self.vars, reduce_terms(out, self.field), self.field)

    __radd__ = __add__

    def __neg__(self):
        return Poly.packed(self.vars, reduce_terms({e: -c for e, c in self.terms.items()},
                                                   self.field), self.field)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, RatFn):
            return NotImplemented
        other = self._lift(other)
        if other is None:
            return NotImplemented
        self._check_ring(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.vars, self.field)
        # the leading keys add to the product's leading key, whose degree
        # field is exact, as two stored keys add with no carry
        degree = (max(self.terms) + max(other.terms)) >> (EXP_BITS * len(self.vars))
        if degree > MAX_DEGREE:
            raise _degree_error(f"a product of total degree {degree}")
        out: dict[int, Coeff] = {}
        terms = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in terms:
                key = e1 + e2
                acc = out.get(key)
                val = c1 * c2 if acc is None else acc + c1 * c2
                if val:
                    out[key] = val
                elif acc is not None:
                    del out[key]
        return Poly.packed(self.vars, reduce_terms(out, self.field), self.field)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ExactAlgError("polynomial powers must be nonnegative integers")
        degree = n * max(self.total_degree(), 0)
        if degree > MAX_DEGREE:
            raise _degree_error(f"a power of total degree {degree}")
        result = Poly.one(self.vars, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        """Exact division; raises :class:`ExactDivisionError` on a remainder."""
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.exact_div(other)

    def exact_div(self, divisor: "Poly") -> "Poly":
        divisor = self._lift(divisor)
        self._check_ring(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("exact division by the zero polynomial")
        if self.is_zero():
            return self
        field = self.field
        # over GF(p) each quotient coefficient is a product by the one
        # inverse of the divisor's leading coefficient
        p = None if field is None else field.p
        dk, dc = divisor.leading()
        inv = None if p is None else pow(dc, -1, p)
        if divisor.is_constant():
            if p is None:
                quot = {e: coeff_div(v, dc) for e, v in self.terms.items()}
            else:
                quot = {e: v * inv % p for e, v in self.terms.items()}
            return Poly.packed(self.vars, quot, field)
        # the leading remainder term comes off a max-heap of negated keys,
        # deleted lazily: every key the remainder gains is below the one
        # just taken, so a key that has left the remainder never returns.
        # Each step takes its key off the remainder and skips the divisor's
        # leading term, which cancels it: over GF(p) the remainder holds
        # unreduced int sums, so that term would leave a multiple of p, not
        # 0, and a popped key that is 0 mod p is dropped.
        rem = dict(self.terms)
        heap = [-k for k in rem]
        heapify(heap)
        quot = {}
        guard = key_layout(len(self.vars))[2]
        terms = [(e, c) for e, c in divisor.terms.items() if e != dk]
        while rem:
            rk = -heappop(heap)
            rc = rem.pop(rk, None)
            if rc is None:
                continue
            qc = coeff_div(rc, dc) if p is None else rc * inv % p
            if not qc:
                continue
            qk = rk - dk
            if qk & guard:
                raise ExactDivisionError("division leaves a remainder")
            quot[qk] = qc
            for e2, c2 in terms:
                key = qk + e2
                acc = rem.get(key)
                if acc is None:
                    rem[key] = -qc * c2
                    heappush(heap, -key)
                else:
                    val = acc - qc * c2
                    if val:
                        rem[key] = val
                    else:
                        del rem[key]
        return Poly.packed(self.vars, quot, self.field)

    def divides(self, other: "Poly") -> bool:
        try:
            other.exact_div(self)
            return True
        except ExactDivisionError:
            return False

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        c = self.lc()
        if c == 1:
            return self
        return Poly.packed(self.vars, {e: coeff_div(v, c, self.field)
                                       for e, v in self.terms.items()}, self.field)

    # -- substitution and evaluation ----------------------------------------

    def subs(self, images: Mapping[str, "Poly | RatFn"], out_vars: Sequence[str] | None = None):
        """Substitute variables by polynomials or rational functions.

        Unmapped variables map to themselves and must exist in the output
        ring; variables that never occur are ignored, so a polynomial can be
        moved into a smaller ring as long as its support fits.  Returns a
        Poly when every image is a Poly, else a RatFn.

        When the image of every variable that occurs is one term c*m, as
        under a monomial matrix (a permutation, signs, scalars), each term
        maps to one term and the substitution is a relabel of the packed
        keys (:meth:`_relabel`); otherwise the powers of the images are
        multiplied out.  Both routes raise :class:`DegreeOverflowError` on
        an image term past ``MAX_DEGREE``.
        """
        if out_vars is None:
            sample = next(iter(images.values()), None)
            out_vars = sample.vars if sample is not None else self.vars
        out_vars = tuple(out_vars)
        used = self._used()
        # (shift, image) of each variable that occurs
        table = []
        rational = False
        for name, s in zip(self.vars, key_layout(len(self.vars))[0]):
            if not (used >> s) & EXP_MASK:
                continue
            img = images.get(name)
            if img is None:
                img = Poly.var(name, out_vars, self.field)
            elif img.vars != out_vars:
                img = img.embed(out_vars)
            if isinstance(img, RatFn):
                rational = True
            table.append((s, img))
        if rational:
            table = [(s, v if isinstance(v, RatFn) else RatFn(v, reduce=False))
                     for s, v in table]
        elif all(len(img.terms) == 1 for _, img in table):
            return self._relabel(table, out_vars)
        powers: dict[tuple[int, int], object] = {}
        out: dict[int, Coeff] = {}
        total = RatFn(Poly.zero(out_vars, self.field)) if rational else None
        for key, coeff in self.terms.items():
            term = None
            for s, img in table:
                e = (key >> s) & EXP_MASK
                if e:
                    power = powers.get((s, e))
                    if power is None:
                        power = powers[s, e] = img ** e
                    term = power if term is None else term * power
            if rational:
                total = total + (RatFn(Poly.const(coeff, out_vars, self.field))
                                 if term is None else term * coeff)
                continue
            # a Poly sum goes into one term dict, not a new sum per term
            for k, c in (term.terms.items() if term is not None else ((0, 1),)):
                acc = out.get(k)
                val = coeff * c if acc is None else acc + coeff * c
                if val:
                    out[k] = val
                elif acc is not None:
                    del out[k]
        return total if rational else Poly.packed(out_vars, reduce_terms(out, self.field),
                                                  self.field)

    def _relabel(self, table: list[tuple[int, "Poly"]], out_vars: tuple[str, ...]) -> "Poly":
        """:meth:`subs` by one-term images, given as (shift, image) of each
        variable that occurs: x^a goes to the one term of key
        sum_k a_k key(m_k) and coefficient coeff * prod_k c_k^a_k, c_k m_k
        the image of x_k.  Terms that meet on one key are summed.  The key
        sum carries out of no field while its total degree is at most
        ``MAX_DEGREE``, and past it the degree field only grows, so the
        largest key sum decides the overflow."""
        field = self.field
        p = None if field is None else field.p
        # (shift, key of m, c or None for 1) per variable that occurs
        monos = []
        for s, img in table:
            (key, c), = img.terms.items()
            monos.append((s, key, None if c == 1 else c))
        out: dict[int, Coeff] = {}
        top = 0
        for key, coeff in self.terms.items():
            k = 0
            for s, mk, mc in monos:
                e = (key >> s) & EXP_MASK
                if e:
                    k += e * mk
                    if mc is not None:
                        coeff = coeff * (mc ** e if p is None else pow(mc, e, p))
            if k > top:
                top = k
            acc = out.get(k)
            val = coeff if acc is None else acc + coeff
            if val:
                out[k] = val
            elif acc is not None:
                del out[k]
        if top >> (EXP_BITS * len(out_vars)) > MAX_DEGREE:
            raise _degree_error("a substituted term")
        return Poly.packed(out_vars, reduce_terms(out, field), field)

    def eval(self, point: Mapping[str, object] | Sequence[object]) -> Coeff:
        """Exact evaluation at a point; the point must cover all variables."""
        if isinstance(point, Mapping):
            vals = [lift_coeff(point[v], self.field) for v in self.vars]
        else:
            vals = [lift_coeff(v, self.field) for v in point]
            if len(vals) != len(self.vars):
                raise DimensionError("point length does not match variable count")
        pairs = list(zip(vals, key_layout(len(self.vars))[0]))
        total = 0
        for key, coeff in self.terms.items():
            term = coeff
            for v, s in pairs:
                e = (key >> s) & EXP_MASK
                if e:
                    term = term * v**e
            total = total + term
        return lift_coeff(total, self.field)

    # -- comparison and text -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (self.vars == other.vars and self.field == other.field
                    and self.terms == other.terms)
        if isinstance(other, (int, Fraction)):
            lifted = self._lift(other)
            return lifted is not None and self.terms == lifted.terms
        if isinstance(other, RatFn):
            return other.__eq__(self)
        return NotImplemented

    __hash__ = None  # mutable dict inside; polynomials are not hashable

    def __str__(self):
        if not self.terms:
            return "0"
        terms = self.terms
        # per variable: its shift and the text of each power met so far
        fields = [(s, {1: name}, name)
                  for name, s in zip(self.vars, key_layout(len(self.vars))[0])]
        pieces: list[str] = []
        # ascending graded lex, the canonical text order, is the key order
        for key in sorted(terms):
            factors = []
            for s, texts, name in fields:
                e = (key >> s) & EXP_MASK
                if e:
                    text = texts.get(e)
                    if text is None:
                        text = texts[e] = f"{name}^{e}"
                    factors.append(text)
            c_str = str(terms[key])
            negative = c_str.startswith("-")
            if negative:
                c_str = c_str[1:]
            if not factors:
                body = c_str
            elif c_str == "1":
                body = "*".join(factors)
            else:
                body = c_str + "*" + "*".join(factors)
            if not pieces:
                pieces.append("-" + body if negative else body)
            else:
                pieces.append(("- " if negative else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"Poly({str(self)!r})"


# ---------------------------------------------------------------------------
# multivariate gcd: content and primitive part with a primitive remainder
# sequence in the first variable that actually occurs
# ---------------------------------------------------------------------------


def _coeffs_in_var(p: Poly, idx: int) -> dict[int, Poly]:
    """View p as univariate in variable idx; coefficients keep the full ring."""
    shifts, top, _ = key_layout(len(p.vars))
    s = shifts[idx]
    buckets: dict[int, dict[int, Coeff]] = {}
    for key, coeff in p.terms.items():
        d = (key >> s) & EXP_MASK
        buckets.setdefault(d, {})[key - (d << s) - (d << top)] = coeff
    return {d: Poly.packed(p.vars, t, p.field) for d, t in buckets.items()}


def _content(p: Poly, idx: int) -> Poly:
    coeffs = list(_coeffs_in_var(p, idx).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = poly_gcd(g, c)
        if g.is_constant():
            break
    return g.monic()


def _pseudo_rem(a: Poly, b: Poly, idx: int) -> Poly:
    """Pseudo-remainder of a by b as univariate polynomials in variable idx."""
    b_coeffs = _coeffs_in_var(b, idx)
    db = max(b_coeffs)
    lb = b_coeffs[db]
    x = Poly.var(a.vars[idx], a.vars, a.field)
    while not a.is_zero():
        a_coeffs = _coeffs_in_var(a, idx)
        da = max(a_coeffs)
        if da < db:
            break
        la = a_coeffs[da]
        a = lb * a - la * x ** (da - db) * b
    return a


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via content/primitive-part recursion and a primitive PRS."""
    if a.vars != b.vars or a.field != b.field:
        raise DimensionError("gcd operands live in different rings")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_constant() or b.is_constant():
        return Poly.one(a.vars, a.field)
    shifts = key_layout(len(a.vars))[0]
    used = a._used() | b._used()
    idx = next((i for i, s in enumerate(shifts) if (used >> s) & EXP_MASK), None)
    if idx is None:
        return Poly.one(a.vars, a.field)
    s = shifts[idx]
    da = max((k >> s) & EXP_MASK for k in a.terms)
    db = max((k >> s) & EXP_MASK for k in b.terms)
    if da == 0:
        return poly_gcd(a, _content(b, idx))
    if db == 0:
        return poly_gcd(_content(a, idx), b)
    ca, cb = _content(a, idx), _content(b, idx)
    g = poly_gcd(ca, cb)
    pa, pb = a.exact_div(ca), b.exact_div(cb)
    while not pb.is_zero():
        r = _pseudo_rem(pa, pb, idx)
        pa = pb
        if r.is_zero():
            pb = r
        else:
            # monic scaling keeps each remainder's rational coefficients at
            # their canonical size instead of compounding lb factors
            pb = r.exact_div(_content(r, idx)).monic()
    pa = pa.exact_div(_content(pa, idx))
    return (g * pa).monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.vars, a.field)
    return (a * b).exact_div(poly_gcd(a, b)).monic()


def common_denominator(entries) -> tuple[list[Poly], Poly]:
    """Write Poly/RatFn entries over one monic denominator: entry k equals
    nums[k] / den, with den the lcm of the entry denominators."""
    lifted = [x if isinstance(x, RatFn) else RatFn(x, reduce=False) for x in entries]
    den = lifted[0].den.ring_one()
    folded: list[Poly] = [den]
    for x in lifted:
        if x.den not in folded:  # lcm(l, b) = l once b is folded in
            folded.append(x.den)
            den = poly_lcm(den, x.den)
    return [x.num if x.den == den else x.num * den.exact_div(x.den) for x in lifted], den


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFn:
    """Quotient of two polynomials in the same ring.

    The default constructor canonicalizes: the gcd of numerator and
    denominator is removed and the denominator is scaled monic under the
    graded-lex order, so equal fractions have equal parts.  ``reduce=False``
    skips the gcd step (useful for adjugate/determinant pairs kept in their
    shared-denominator shape); equality always goes through cross
    multiplication, so unreduced instances compare correctly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, *, reduce: bool = True):
        if den is None:
            den = Poly.one(num.vars, num.field)
        if not isinstance(num, Poly) or not isinstance(den, Poly):
            raise ExactAlgError("RatFn parts must be polynomials")
        num._check_ring(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly.one(num.vars, num.field)
        elif reduce:
            g = poly_gcd(num, den)
            if not (g.is_constant()):
                num = num.exact_div(g)
                den = den.exact_div(g)
            c = den.lc()
            if c != 1:
                num, den = num.exact_div(c), den.exact_div(c)
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str], field: PrimeField | None = None) -> "RatFn":
        return cls(Poly.zero(vars, field))

    @classmethod
    def one(cls, vars: Sequence[str], field: PrimeField | None = None) -> "RatFn":
        return cls(Poly.one(vars, field))

    @classmethod
    def parse(cls, text: str, vars: Sequence[str], field: PrimeField | None = None,
              *, reduce: bool = True) -> "RatFn":
        """Read ``(num)/(den)`` or a polynomial; ``reduce=False`` keeps the
        written denominator instead of removing the gcd."""
        text = text.strip()
        parts = _split_fraction(text)
        if parts:
            return cls(Poly.parse(parts[0], vars, field),
                       Poly.parse(parts[1], vars, field), reduce=reduce)
        return cls(Poly.parse(text, vars, field), reduce=reduce)

    # -- queries ---------------------------------------------------------------

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    @property
    def field(self) -> PrimeField | None:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_poly(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> Poly:
        """Return the numerator over a constant denominator as a Poly."""
        reduced = self.reduced()
        if not reduced.den.is_constant():
            raise ExactAlgError(f"{self} is not polynomial")
        return reduced.num.exact_div(reduced.den)

    def reduced(self) -> "RatFn":
        return RatFn(self.num, self.den)

    def support_vars(self) -> set[str]:
        return self.num.support_vars() | self.den.support_vars()

    def ring_one(self) -> "RatFn":
        return RatFn.one(self.vars, self.field)

    def ring_zero(self) -> "RatFn":
        return RatFn.zero(self.vars, self.field)

    def embed(self, new_vars: Sequence[str]) -> "RatFn":
        return RatFn(self.num.embed(new_vars), self.den.embed(new_vars), reduce=False)

    # -- arithmetic --------------------------------------------------------------

    def _lift(self, other) -> "RatFn | None":
        if isinstance(other, RatFn):
            return other
        if isinstance(other, Poly):
            return RatFn(other, reduce=False)
        if isinstance(other, (int, Fraction)):
            return RatFn(Poly.const(other, self.vars, self.field), reduce=False)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RatFn(self.num + other.num, self.den)
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other / self

    def exact_div(self, other) -> "RatFn":
        return self / other

    def __pow__(self, n: int):
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFn(self.den**(-n), self.num**(-n))
        return RatFn(self.num**n, self.den**n, reduce=False)

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def subs(self, images: Mapping[str, "Poly | RatFn"], out_vars: Sequence[str] | None = None) -> "RatFn":
        num = self.num.subs(images, out_vars)
        den = self.den.subs(images, out_vars)
        num = num if isinstance(num, RatFn) else RatFn(num, reduce=False)
        den = den if isinstance(den, RatFn) else RatFn(den, reduce=False)
        return num / den

    def eval(self, point: Mapping[str, object] | Sequence[object]) -> Coeff:
        d = self.den.eval(point)
        if not d:
            raise ZeroDivisionError("denominator vanishes at the point")
        return coeff_div(self.num.eval(point), d, self.field)

    def __str__(self):
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFn({str(self)!r})"


def parse_entry(text: str, vars: Sequence[str], field: PrimeField | None = None) -> Poly | RatFn:
    """Read a polynomial or ``(num)/(den)`` text as a Poly when its value is
    one, else as a reduced RatFn.  A text with no fraction is read straight
    to a Poly, with no gcd and no division."""
    text = text.strip()
    if _split_fraction(text) is None:
        return Poly.parse(text, vars, field)
    f = RatFn.parse(text, vars, field)
    return f.as_poly() if f.is_poly() else f


# ---------------------------------------------------------------------------
# matrices over Poly or RatFn entries
# ---------------------------------------------------------------------------


Entry = Union[Poly, RatFn]


class Matrix:
    """Row-major matrix whose entries all live in one ring (Poly or RatFn).

    Determinant, rank, kernel and adjugate use fraction-free (Bareiss)
    elimination: every division performed is exact, so the routines are
    valid over the polynomial ring itself.  The library eliminates on
    polynomial entries only: a rational matrix is first written over its
    row (or matrix) denominators.  RatFn entries are held, multiplied and
    compared, as in the matrix phi of invertible rational functions.
    """

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Sequence[Sequence[Entry]]):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionError("ragged rows in matrix")

    @classmethod
    def identity(cls, n: int, like: Entry) -> "Matrix":
        one, zero = like.ring_one(), like.ring_zero()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return all(self.entries[i][j] == other.entries[i][j]
                   for i in range(self.rows) for j in range(self.cols))

    __hash__ = None

    def map(self, fn) -> "Matrix":
        return Matrix([[fn(x) for x in row] for row in self.entries])

    def transpose(self) -> "Matrix":
        return Matrix([[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            out = []
            for i in range(self.rows):
                row = []
                for j in range(other.cols):
                    acc = None
                    for k in range(self.cols):
                        term = self.entries[i][k] * other.entries[k][j]
                        acc = term if acc is None else acc + term
                    row.append(acc)
                out.append(row)
            return Matrix(out)
        return self.scale(other)

    def scale(self, factor) -> "Matrix":
        return Matrix([[x * factor for x in row] for row in self.entries])

    def embed(self, new_vars: Sequence[str]) -> "Matrix":
        return self.map(lambda x: x.embed(new_vars))

    # -- fraction-free elimination ------------------------------------------

    def det(self) -> Entry:
        """Determinant by Bareiss fraction-free elimination: the last pivot,
        signed by the row swaps, or zero when the rank is short."""
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        if self.rows == 0:
            raise DimensionError("determinant of an empty matrix")
        m, pivots, sign = self._echelon_ff()
        if len(pivots) < self.rows:
            return self.entries[0][0].ring_zero()
        d = m[-1][-1]
        return d if sign == 1 else -d

    def adjugate(self) -> "Matrix":
        """Adjugate via signed cofactors; satisfies M*adj(M) = det(M)*I."""
        cols = [self.cofactor_column(i) for i in range(self.rows)]
        return Matrix([list(row) for row in zip(*cols)])

    def cofactor_column(self, i: int) -> list[Entry]:
        """Column i of the adjugate of a square matrix: entry j is
        :meth:`cofactor` (i, j)."""
        return [self.cofactor(i, j) for j in range(self.cols)]

    def cofactor(self, i: int, j: int) -> Entry:
        """The signed cofactor (-1)^(i+j) det of the minor without row i and
        column j: entry (j, i) of the adjugate of a square matrix."""
        if self.rows != self.cols:
            raise DimensionError("adjugate of a non-square matrix")
        if self.rows == 1:
            return self.entries[0][0].ring_one()
        cof = Matrix([[e for c, e in enumerate(row) if c != j]
                      for r, row in enumerate(self.entries) if r != i]).det()
        return -cof if (i + j) % 2 else cof

    def _echelon_ff(self) -> tuple[list[list[Entry]], list[int], int]:
        """Fraction-free (Bareiss) row echelon; returns (rows, pivot column
        indices, sign of the row permutation)."""
        m = [row[:] for row in self.entries]
        pivots, sign = _bareiss(m, lambda a, b: a.exact_div(b))
        return m, pivots, sign

    def rank(self) -> int:
        """Rank over the fraction field of the entry ring."""
        if self.rows == 0 or self.cols == 0:
            return 0
        if all(not x for row in self.entries for x in row):
            return 0
        return len(self._echelon_ff()[1])

    def __str__(self):
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in self.entries) + "]"

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _bareiss(m: list[list], div) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon of ``m`` in place, over any
    integral domain whose exact division is ``div(a, b)``; returns the pivot
    columns and the sign of the row permutation.

    After the step on pivot k every entry below it is a (k+1)-minor of the
    row-permuted input, so each division by the previous pivot is exact,
    and the last pivot is the minor on the pivot rows and columns.  A row
    with a zero in the pivot column is left alone when the pivot equals the
    previous one, as the step would only multiply it by one.
    """
    pivots: list[int] = []
    sign, prev, n = 1, 1, len(m)
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == n:
            break
        for k in range(r, n):
            if m[k][c]:
                break
        else:
            continue
        if k != r:
            m[r], m[k] = m[k], m[r]
            sign = -sign
        p, tail = m[r][c], m[r][c + 1:]
        zero = p - p
        for row in m[r + 1:]:
            f = row[c]
            if f or p != prev:
                row[c + 1:] = [div(p * x - f * y, prev) for x, y in zip(row[c + 1:], tail)]
                row[c] = zero
        prev = p
        pivots.append(c)
    return pivots, sign


def echelon_kernel(echelon: list[list[Poly]], pivots: list[int]) -> list[RatFn] | None:
    """One kernel vector of a polynomial matrix over the fraction field,
    from its Bareiss echelon and pivot columns, or None if every column is
    a pivot.

    The last free column carries the last pivot d, which is the minor on
    the pivot rows and columns, and earlier free columns carry 0.  The
    pivot coordinates are then Cramer's numerators, polynomials, so every
    division of the back substitution is exact.  Dividing by d at the end
    makes the last nonzero coefficient 1.
    """
    cols = len(echelon[0])
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return None
    target, r = free[-1], len(pivots)
    d = echelon[r - 1][pivots[-1]] if pivots else echelon[0][0].ring_one()
    zero = d.ring_zero()
    vec = [zero] * cols
    vec[target] = d
    for k in range(r - 1, -1, -1):
        c, row = pivots[k], echelon[k]
        acc = sum((row[j] * vec[j] for j in range(c + 1, cols) if row[j] and vec[j]), zero)
        vec[c] = (-acc).exact_div(row[c])
    one = RatFn(d.ring_one())
    return [one if j == target else RatFn(x, d) for j, x in enumerate(vec)]


# ---------------------------------------------------------------------------
# scalar matrices (tuples of tuples of field elements)
# ---------------------------------------------------------------------------

QMat = tuple  # tuple of tuples of coefficients


def int_form(values: Iterable[Coeff], field: PrimeField | None) -> tuple[int, tuple[int, ...]]:
    """Exact scalars written as integers: over Q, (den, numerators) with den
    the lcm of the denominators, so each value is its numerator / den, and
    den is coprime to the numerators' content; over GF(p), (1, the
    representatives in [0, p)).  Equal value tuples have equal forms."""
    if field is not None:
        return 1, tuple(lift_coeff(v, field) for v in values)
    values = tuple(values)
    den = math.lcm(*(v.denominator for v in values))
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


def qmat(rows: Iterable[Iterable], field: PrimeField | None = None) -> QMat:
    return tuple(tuple(lift_coeff(x, field) for x in row) for row in rows)


def qmat_identity(n: int) -> QMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def qmat_mul(a: QMat, b: QMat, field: PrimeField | None = None) -> QMat:
    """Product of scalar matrices over ``field``, skipping zero entries.  It
    serves the matrix words at integer points; finite groups do not use
    it, as ``make_finite_group`` multiplies integer forms by gathers."""
    if len(a[0]) != len(b):
        raise DimensionError("scalar matrix shapes do not match")
    zero = b[0][0] - b[0][0]
    out = []
    for row in a:
        acc = [zero] * len(b[0])
        for x, b_row in zip(row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc) if field is None else tuple(x % field.p for x in acc))
    return tuple(out)


def qmat_det(a: QMat, field: PrimeField | None = None) -> Coeff:
    if any(len(row) != len(a) for row in a):
        raise DimensionError("determinant of a non-square scalar matrix")
    return qmat_rank_det(a, field)[1]


def qmat_rank(a: Sequence[Sequence[Coeff]], field: PrimeField | None = None) -> int:
    return qmat_rank_det(a, field)[0]


def qmat_rank_det(a: Sequence[Sequence[Coeff]], field: PrimeField | None = None
                  ) -> tuple[int, Coeff | None]:
    """Rank of a scalar matrix over ``field`` and, when it is square, its
    determinant (None otherwise), by :func:`int_rank_det` on the numerators
    of its integer form (the representatives over GF(p)): the matrix is
    N / den, so its determinant is det(N) / den^rows."""
    den, nums = int_form([x for row in a for x in row], field)
    n = len(a[0]) if a else 0
    rank, det = int_rank_det([nums[r * n:(r + 1) * n] for r in range(len(a))],
                             None if field is None else field.p)
    return rank, None if det is None else coeff_div(det, den ** len(a), field)


def int_rank_det(a: Sequence[Sequence[int]], p: int | None = None) -> tuple[int, int | None]:
    """Rank of an integer matrix and, when it is square, its determinant
    (None otherwise), by the Bareiss elimination over Z, or over GF(p) on
    the representatives in [0, p) when ``p`` is given."""
    if p is None:
        rows = [list(r) for r in a]
        div = operator.floordiv
    else:
        rows = [[x % p for x in r] for r in a]
        div = lambda x, y: x * pow(y, -1, p) % p  # noqa: E731
    pivots, sign = _bareiss(rows, div)
    if rows and len(rows[0]) != len(rows):
        return len(pivots), None
    if len(pivots) < len(rows):
        return len(pivots), 0
    det = rows[-1][-1] if rows else 1
    det = det if sign == 1 else -det
    return len(pivots), det if p is None else det % p


# ---------------------------------------------------------------------------
# canonical-grammar parser
# ---------------------------------------------------------------------------


def _split_fraction(text: str) -> tuple[str, str] | None:
    """(num, den) when ``text`` is ``(num)/(den)``, with any whitespace
    around the slash and no parenthesis inside either part; None otherwise.
    String methods, so that no pattern is compiled in each process."""
    if not (text.startswith("(") and text.endswith(")")):
        return None
    close = text.find(")")
    num, rest = text[1:close], text[close + 1:].lstrip()
    if "(" in num or not rest.startswith("/"):
        return None
    rest = rest[1:].lstrip()
    den = rest[1:-1]
    if not rest.startswith("(") or "(" in den or ")" in den:
        return None
    return num, den


# one signed term: its sign, then all up to the next sign, which
# _read_factor checks factor by factor
_TERM = re.compile(r"\s*([-+]?)([^-+]*)")


def _parse_poly(text: str, vars: tuple[str, ...], field: PrimeField | None) -> Poly:
    """One match of ``_TERM`` per signed term, whose factors string methods
    split and check, each distinct factor text once; a term's key is the
    sum of its factors' packed keys, and each term is added into one term
    dict, so parsing is linear in the length of the text.  A term that does
    not parse goes to :func:`_parse_error`; a term past ``MAX_DEGREE`` is
    refused once the whole text has parsed."""
    end = len(text.rstrip())
    if not end:
        raise ParseError("empty polynomial text")
    top = key_layout(len(vars))[1]
    units = dict(zip(vars, unit_keys(len(vars))))
    terms: dict[int, Coeff] = {}
    factors: dict[str, tuple[int, Coeff | None]] = {}
    pos = 0
    while pos < end:
        m = _TERM.match(text, pos, end)
        coeff, key = 1, 0
        try:
            for factor in m.group(2).split("*"):
                got = factors.get(factor)
                if got is None:
                    got = factors[factor] = _read_factor(factor, units, field)
                key += got[0]
                if got[1] is not None:
                    coeff = coeff * got[1]
        except (KeyError, ArithmeticError, ValueError):
            raise _parse_error(text, pos, units, field) from None
        if m.group(1) == "-":
            coeff = -coeff
        terms[key] = terms[key] + coeff if key in terms else coeff
        pos = m.end()
    # a field that carried only raised the degree field it carried into
    if max(terms) >> top > MAX_DEGREE:
        raise _degree_error("a term")
    return Poly.packed(vars, reduce_terms({k: c for k, c in terms.items() if c}, field), field)


def _read_factor(factor: str, units: dict[str, int],
                 field: PrimeField | None) -> tuple[int, Coeff | None]:
    """(packed key, None) of a factor text that is a name with an optional
    ``^`` exponent, or (0, coefficient) of one that is an integer with an
    optional ``/`` denominator, spaces around each part; ValueError or
    KeyError for any other text."""
    base, hat, power = factor.partition("^")
    base, power = base.strip(), power.strip()
    if base[:1].isalpha() and base.isascii() and base.replace("_", "").isalnum():
        if hat and not power.isdecimal():
            raise ValueError(power)
        return units[base] * int(power) if hat else units[base], None
    num, slash, den = base.partition("/")
    num, den = num.strip(), den.strip()
    if hat or not num.isdecimal() or slash and not den.isdecimal():
        raise ValueError(factor)
    return 0, lift_coeff(Fraction(int(num), int(den)) if slash else int(num), field)


def _parse_error(text: str, pos: int, index: dict[str, int],
                 field: PrimeField | None) -> ParseError:
    """The error for the term at ``pos`` that :func:`_parse_poly` could not
    take, found on its tokens: a character no token starts with, anywhere
    after ``pos``; else, in token order, an undeclared variable, a
    coefficient that fails, or the first token no term continues with."""
    tokens = []
    for m in re.compile(r"\s*(?:(?P<d>\d+)|(?P<n>[A-Za-z][A-Za-z0-9_]*)|(?P<o>[-+*/^])|\S)"
                        ).finditer(text, pos):
        if m.lastgroup is None:
            return ParseError(f"unexpected character {text[m.start()]!r}", m.start())
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
    kinds = "".join(value if kind == "o" else kind for kind, value, _ in tokens)
    # the longest prefix of the tokens that some term extends
    n = re.match(r"[-+]?(?:(?:d/d|d|n\^d|n)\*)*(?:d/d?|d|n\^d?|n)?", kinds).end()
    # read that prefix as the parse does: it raises on an undeclared name, an
    # integer past the int digit limit, or a denominator that is 0 (mod p)
    for i, (kind, value, at) in enumerate(tokens[:n]):
        if kind == "n" and value not in index:
            return ParseError(f"undeclared variable {value!r}", at)
        if kind == "d":
            int(value)
        elif value == "/" and i + 1 < n:
            lift_coeff(Fraction(int(tokens[i - 1][1]), int(tokens[i + 1][1])), field)
    at = tokens[n][2] if n < len(tokens) else len(text)
    last = kinds[n - 1] if n else "+"
    if last in "dn":
        return ParseError(f"expected '+' or '-', found {tokens[n][1]!r}", at)
    wanted = {"/": "an integer denominator", "^": "an integer exponent"}
    return ParseError(f"expected {wanted.get(last, 'a coefficient or variable')}", at)
