"""Sparse exact polynomials, ordinary or Laurent, over the coefficient fields.

A Poly stores a map from exponent tuples to nonzero scalars.  Exponents are
non-negative for ordinary rings and arbitrary integers when the ring is
Laurent.  Equality is on-the-nose equality of term maps.
"""

from fractions import Fraction
from itertools import islice
from operator import add
import re

from .errors import ParseError, PreconditionError, ResourceLimitError
from .fields import embedding


class Ring:
    """A polynomial (or Laurent polynomial) ring over a field.

    variables: ordered tuple of names.  monomial order ('grlex' or 'lex',
    with earlier variables larger) applies to ordinary rings only; Laurent
    rings carry no global order.
    """

    __slots__ = ("field", "variables", "laurent", "order")

    def __init__(self, field, variables, laurent=False, order="grlex"):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise PreconditionError("duplicate variable names: %r" % (variables,))
        if laurent:
            order = None
        elif order not in ("grlex", "lex"):
            raise PreconditionError("unknown monomial order %r" % (order,))
        self.field = field
        self.variables = variables
        self.laurent = laurent
        self.order = order

    @property
    def nvars(self):
        return len(self.variables)

    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.const(self.field.one)

    def const(self, c):
        if c == self.field.zero:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): self.field.one})

    def monomial(self, exps, coeff=None):
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise PreconditionError("exponent tuple has wrong length")
        if not self.laurent and any(e < 0 for e in exps):
            raise PreconditionError("negative exponent in a non-Laurent ring")
        if coeff is None:
            coeff = self.field.one
        if coeff == self.field.zero:
            return self.zero()
        return Poly(self, {exps: coeff})

    def monomial_key(self):
        """Key function turning an exponent tuple into a flat tuple of ints
        (larger key = larger monomial)."""
        if self.order == "lex":
            return lambda e: e
        return lambda e: (sum(e), *e)  # grlex; also the canonical display order

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, Ring) and self.field == other.field
                and self.variables == other.variables
                and self.laurent == other.laurent and self.order == other.order)

    def __hash__(self):
        return hash((self.field, self.variables, self.laurent, self.order))

    def __repr__(self):
        if self.laurent:
            vs = ", ".join("%s^±1" % v for v in self.variables)
        else:
            vs = ", ".join(self.variables)
        return "%r[%s]" % (self.field, vs)


class Poly:
    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_unit(self):
        """Unit test: nonzero constant, or (Laurent) a single term c*t^e."""
        if not self.terms:
            return False
        if self.ring.laurent:
            return len(self.terms) == 1
        return len(self.terms) == 1 and next(iter(self.terms)) == (0,) * self.ring.nvars

    def constant_value(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    def total_degree(self):
        """Max over terms of the sum of exponents (0 for the zero polynomial)."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise PreconditionError("polynomials from different rings")

    def __add__(self, other):
        self._check(other)
        F = self.ring.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = F.add(terms.get(e, F.zero), c)
            if s == F.zero:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Poly(self.ring, terms)

    def __neg__(self):
        F = self.ring.field
        return Poly(self.ring, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        F = self.ring.field
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = F.add(terms.get(e, F.zero), F.mul(c1, c2))
                if s == F.zero:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return Poly(self.ring, terms)

    def scale(self, c):
        F = self.ring.field
        if c == F.zero:
            return self.ring.zero()
        return Poly(self.ring, {e: F.mul(c, v) for e, v in self.terms.items()})

    def shift(self, exps):
        """Multiply by the monomial t^exps (unit shift in a Laurent ring)."""
        exps = tuple(exps)
        if not self.ring.laurent and any(e < 0 for e in exps):
            raise PreconditionError("negative shift in a non-Laurent ring")
        return Poly(self.ring, {tuple(a + b for a, b in zip(e, exps)): c
                                for e, c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise PreconditionError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, coords, field=None):
        """Evaluate at a coordinate tuple over `field`, the field the
        coordinates live in (default: the coefficient field), which the
        coefficients enter through `fields.embedding`."""
        F = field if field is not None else self.ring.field
        table = embedding(self.ring.field, F)
        acc = F.zero
        for exps, c in self.terms.items():
            v = table[c] if table is not None else c
            for i, e in enumerate(exps):
                if e:
                    v = F.mul(v, F.pow(coords[i], e))
            acc = F.add(acc, v)
        return acc

    # -- Laurent normalization --------------------------------------------

    def min_exponents(self):
        if not self.terms:
            return (0,) * self.ring.nvars
        return tuple(min(e[i] for e in self.terms) for i in range(self.ring.nvars))

    def laurent_normalize(self):
        """Canonical associate in a Laurent ring: shift so every minimal
        exponent is 0, then divide by the leading coefficient (largest
        exponent tuple) to make it monic.  Returns self for the zero poly."""
        if not self.terms:
            return self
        shifted = self.shift(tuple(-m for m in self.min_exponents()))
        lead = max(shifted.terms)
        c = shifted.terms[lead]
        return shifted.scale(self.ring.field.inv(c))

    def monic(self):
        """Divide by the leading coefficient under the ring's order."""
        if not self.terms:
            return self
        lead = max(self.terms, key=self.ring.monomial_key())
        return self.scale(self.ring.field.inv(self.terms[lead]))

    # -- hashing / comparison ---------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def sort_key(self):
        """Deterministic key for canonical generator ordering."""
        items = sorted(self.terms.items(), key=lambda kv: kv[0])
        return (len(items), tuple((e, _scalar_sort_key(c)) for e, c in items))

    def __repr__(self):
        return poly_to_str(self)


def _scalar_sort_key(c):
    if isinstance(c, Fraction):
        return (c.numerator, c.denominator)
    return (c, 1)


# -- textual form ------------------------------------------------------------


def _term_str(ring, exps, coeff):
    F = ring.field
    factors = []
    for name, e in zip(ring.variables, exps):
        if e == 0:
            continue
        factors.append(name if e == 1 else "%s^%d" % (name, e))
    cs = F.scalar_str(coeff)
    needs_parens = any(ch in cs[1:] for ch in "+- ") and factors
    if not factors:
        return cs if not needs_parens else "(%s)" % cs
    if cs == "1":
        return "*".join(factors)
    if cs == "-1" and not needs_parens:
        return "-" + "*".join(factors)
    if needs_parens:
        cs = "(%s)" % cs
    return cs + "*" + "*".join(factors)


def poly_to_str(p):
    """Canonical textual form: terms sorted by descending (grlex) exponent."""
    if not p.terms:
        return "0"
    key = lambda e: (sum(e), e)
    parts = []
    for exps in sorted(p.terms, key=key, reverse=True):
        s = _term_str(p.ring, exps, p.terms[exps])
        if parts:
            if s.startswith("-"):
                parts.append(" - ")
                s = s[1:]
            else:
                parts.append(" + ")
        parts.append(s)
    return "".join(parts)


# a token of a polynomial string, after white space: digits, with "/" and
# digits for a fraction; a name; or any other character.  \s, \d and \w are
# str.isspace, str.isdecimal and str.isalnum or "_"
_TOKEN = re.compile(r"\s*(\d+(?:/\d*)?|\w+|\S)")


class _PolyParser:
    """Recursive descent, over the tokens of one string, of the grammar

        expr   := ('+' | '-')? term (('+' | '-') term)*
        term   := factor ('*' factor)*
        factor := (digits ('/' digits)? | '(' expr ')' | name) ('^' int)?

    where int is '-'? digits and a name is a variable or, over F_{p^m}, the
    generator u.  An expr is built as a term dict, and the monomial factors
    of a term as one coefficient and exponent list: Poly arithmetic runs
    only for a parenthesized factor that is not a scalar, and its power.  A
    power is expanded only when its estimated size is at most
    MAX_POWER_SIZE: the product over the variables of (exponent x the base's
    exponent spread + 1), which bounds its terms, times over Q the exponent
    x the bits of the base's longest numerator or denominator, which bounds
    the bits of its coefficients.
    """

    MAX_POWER_SIZE = 2048

    def __init__(self, ring, text):
        self.ring, self.text = ring, text
        self.tokens = _TOKEN.findall(text) + [None]
        self.i = 0  # the current token, one past the last one read

    def fail(self, message, limit=False):
        """Raise `message` at the end of the current token (of the text, past
        the last), unless a token up to it is malformed: a lexer that reads
        a token ahead, as the errors' positions have it, fails there first."""
        for m in islice(_TOKEN.finditer(self.text), self.i + 1):
            tok, pos = m[1], m.end()
            c = tok[0]
            if not (c in "+-*^()" or c.isdecimal() or c.isalpha() or c == "_"):
                raise ParseError("unexpected character %r" % c, m.start(1))
            if tok[-1] == "/":
                raise ParseError("fraction %r has no denominator" % tok, pos)
        if limit:
            raise ResourceLimitError(message)
        raise ParseError(message, pos if self.tokens[self.i] else len(self.text))

    def expr(self):
        F, tokens = self.ring.field, self.tokens
        terms, zero = {}, F.zero
        sign = tokens[self.i]
        self.i += sign == "+" or sign == "-"
        while True:
            c, e, poly = self.term()
            if sign == "-":
                c = F.neg(c)
            for k, v in (((tuple(e), c),) if poly is None else [
                    (tuple(map(add, k, e)), F.mul(v, c))
                    for k, v in poly.terms.items() if c != zero]):
                s = F.add(terms.get(k, zero), v)
                if s == zero:
                    terms.pop(k, None)
                else:
                    terms[k] = s
            sign = tokens[self.i]
            if sign != "+" and sign != "-":
                return terms
            self.i += 1

    def term(self):
        """(c, e, poly): the term is c * x^e * poly, where poly, or None, is
        the product of its parenthesized factors."""
        ring, tokens = self.ring, self.tokens
        F, variables = ring.field, ring.variables
        c, e, poly = F.one, [0] * len(variables), None
        while True:
            tok = tokens[self.i]
            if tok is None:
                self.fail("unexpected end of input")
            if tok in "+-*^)":
                self.fail("unexpected token %r" % tok)
            self.i += 1
            if tok == "(":
                inner = self.expr()
                if tokens[self.i] != ")":
                    self.fail("expected ')', found %r" % tokens[self.i])
                self.i += 1
                if tokens[self.i] != "^" and not any(map(any, inner)):
                    c = F.mul(c, inner.get((0,) * len(e), F.zero))  # a scalar
                else:
                    inner = Poly(ring, inner)
                    if tokens[self.i] == "^":
                        inner = self.power(inner)
                    poly = inner if poly is None else poly * inner
            elif tok[0].isdecimal():
                num, slash, den = tok.partition("/")
                k = F.from_int(self.integer(num))
                if slash:  # a fraction, or no denominator, which fail finds
                    den = F.from_int(self.integer(den))
                    if den == F.zero:
                        self.fail("zero denominator in %r over %r" % (tok, F))
                    k = F.div(k, den)
                if tokens[self.i] == "^":
                    k = self.power(ring.const(k)).constant_value()
                c = F.mul(c, k)
            elif tok in variables and (tok[0].isalpha() or tok[0] == "_"):
                n = self.exponent()
                if n < 0 and not ring.laurent:
                    self.fail("negative exponent in a non-Laurent ring")
                e[variables.index(tok)] += n
            elif tok == "u" and F.kind == "extension-field":
                c = F.mul(c, F.pow(F.p, self.exponent()))  # u is p, encoded
            else:
                self.fail("unknown name %r" % tok)
            if tokens[self.i] != "*":
                return c, e, poly
            self.i += 1

    def exponent(self):
        """The exponent that a '^' at the current token starts, else 1."""
        tokens = self.tokens
        if tokens[self.i] != "^":
            return 1
        neg = tokens[self.i + 1] == "-"
        self.i += 1 + neg
        tok = tokens[self.i]
        if tok is None or not tok.isdecimal():
            self.fail("expected integer exponent")
        n = self.integer(tok)
        self.i += 1
        return -n if neg else n

    def integer(self, digits):
        try:
            return int(digits)
        except ValueError as exc:  # past sys.get_int_max_str_digits()
            self.fail("integer literal too long: %s" % exc)

    def power(self, base):
        """The power of base that a '^' at the current token makes."""
        n = self.exponent()
        if n < 0 and not base.is_unit():
            self.fail("negative power of a non-unit")
        self.check_power_size(base, abs(n))
        if n < 0:  # a unit is one term
            (e, c), = base.terms.items()
            return Poly(self.ring, {tuple(x * n for x in e):
                                    self.ring.field.pow(c, n)})
        return base ** n

    def check_power_size(self, base, n):
        """Refuse base^n, n >= 0, when its size passes MAX_POWER_SIZE."""
        if not base.terms:
            return
        size = 1
        for column in zip(*base.terms):
            size *= n * (max(column) - min(column)) + 1
        if self.ring.field.characteristic == 0:
            size *= n * max(max(abs(c.numerator), c.denominator).bit_length()
                            for c in base.terms.values())
        if size > self.MAX_POWER_SIZE:
            self.fail("a power of size %d (terms, times coefficient bits over "
                      "Q) is past MAX_POWER_SIZE = %d"
                      % (size, self.MAX_POWER_SIZE), limit=True)


def parse_poly(ring, text):
    parser = _PolyParser(ring, text)
    try:
        terms = parser.expr()
    except RecursionError:  # one level of recursion per parenthesis
        parser.fail("parentheses nested past sys.getrecursionlimit()",
                    limit=True)
    if parser.tokens[parser.i] is not None:
        parser.fail("trailing input %r" % parser.tokens[parser.i])
    return Poly(ring, terms)


# -- ideals and points ---------------------------------------------------------


class Ideal:
    """A finitely generated ideal, kept as a canonical generator list:
    zero generators dropped, duplicates removed, each generator normalized
    (monic under grlex; Laurent generators shifted to minimal exponent 0),
    sorted deterministically."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring, generators):
        self.ring = ring
        gens = []
        seen = set()
        for g in generators:
            if g.is_zero():
                continue
            g = g.laurent_normalize() if ring.laurent else g.monic()
            if g not in seen:
                seen.add(g)
                gens.append(g)
        gens.sort(key=lambda g: g.sort_key())
        self.generators = tuple(gens)

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.ring == other.ring
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.ring, self.generators))

    def __repr__(self):
        if not self.generators:
            return "(0)"
        return "(%s)" % ", ".join(poly_to_str(g) for g in self.generators)


def unit_ideal(ring):
    return Ideal(ring, [ring.one()])


def zero_ideal(ring):
    return Ideal(ring, [])
