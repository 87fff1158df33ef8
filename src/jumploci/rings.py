"""Sparse exact polynomials, ordinary or Laurent, over the coefficient fields.

A Poly stores a map from exponent tuples to nonzero scalars.  Exponents are
non-negative for ordinary rings and arbitrary integers when the ring is
Laurent.  Equality is on-the-nose equality of term maps.
"""

from .errors import ParseError, PreconditionError, ResourceLimitError

from fractions import Fraction


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

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

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

    def evaluate(self, coords, field=None, coeff_map=None):
        """Evaluate at a coordinate tuple.

        `field` is the field the coordinates live in (defaults to the
        coefficient field); `coeff_map` embeds coefficients into it.  The
        default embedding covers: same field, and prime field into one of
        its extensions (the int encoding is unchanged).
        """
        F = field if field is not None else self.ring.field
        acc = F.zero
        for exps, c in self.terms.items():
            v = coeff_map(c) if coeff_map is not None else c
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


class _Tokenizer:
    SYMBOLS = ("+", "-", "*", "^", "(", ")")

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def next_token(self):
        ch = self.peek()
        if ch is None:
            return None
        if ch in self.SYMBOLS:
            self.pos += 1
            return ch
        if ch.isdecimal():  # what int() reads; isdigit() also takes "²"
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdecimal():
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] == "/":
                self.pos += 1
                den = self.pos
                while self.pos < len(self.text) and self.text[self.pos].isdecimal():
                    self.pos += 1
                if self.pos == den:
                    raise ParseError("fraction %r has no denominator"
                                     % self.text[start:self.pos], self.pos)
            return self.text[start:self.pos]
        if ch.isalpha() or ch == "_":
            start = self.pos
            while (self.pos < len(self.text)
                   and (self.text[self.pos].isalnum() or self.text[self.pos] == "_")):
                self.pos += 1
            return self.text[start:self.pos]
        raise ParseError("unexpected character %r" % ch, self.pos)


class _PolyParser:
    """Recursive-descent parser for the canonical polynomial form.

    expr    := term (('+'|'-') term)*
    term    := factor ('*'? factor)*      (juxtaposition not allowed; '*' required
                                           except for a leading sign)
    factor  := number | name ('^' int)? | '(' expr ')'
    The name 'u' denotes the generator of an extension coefficient field.

    A power is expanded only when its estimated size is at most
    MAX_POWER_SIZE: the product over the variables of (exponent x the
    base's exponent spread + 1), which bounds its terms, times over Q the
    exponent x the bits of the base's longest numerator or denominator,
    which bounds the bits of its coefficients.
    """

    MAX_POWER_SIZE = 2048

    def __init__(self, ring, text):
        self.ring = ring
        self.tok = _Tokenizer(text)
        self.current = self.tok.next_token()

    def advance(self):
        self.current = self.tok.next_token()

    def expect(self, sym):
        if self.current != sym:
            raise ParseError("expected %r, found %r" % (sym, self.current), self.tok.pos)
        self.advance()

    def parse(self):
        p = self.expr()
        if self.current is not None:
            raise ParseError("trailing input %r" % self.current, self.tok.pos)
        return p

    def expr(self):
        if self.current == "-":
            self.advance()
            acc = -self.term()
        else:
            if self.current == "+":
                self.advance()
            acc = self.term()
        while self.current in ("+", "-"):
            op = self.current
            self.advance()
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self):
        acc = self.factor()
        while self.current == "*":
            self.advance()
            acc = acc * self.factor()
        return acc

    def factor(self):
        tok = self.current
        if tok is None:
            raise ParseError("unexpected end of input", self.tok.pos)
        if tok in self.tok.SYMBOLS and tok != "(":
            raise ParseError("unexpected token %r" % tok, self.tok.pos)
        if tok == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return self._maybe_power(inner)
        if tok[0].isdecimal():
            self.advance()
            if "/" in tok:
                F = self.ring.field
                num, den = (F.from_int(self._int(n)) for n in tok.split("/"))
                if den == F.zero:
                    raise ParseError("zero denominator in %r over %r" % (tok, F),
                                     self.tok.pos)
                c = F.div(num, den)
            else:
                c = self.ring.field.from_int(self._int(tok))
            return self._maybe_power(self.ring.const(c))
        # a name: ring variable or the extension generator u
        self.advance()
        if tok in self.ring.variables:
            base = self.ring.var(self.ring.variables.index(tok))
            exp = self._power_suffix()
            if exp is None:
                return base
            if exp < 0 and not self.ring.laurent:
                raise ParseError("negative exponent in a non-Laurent ring", self.tok.pos)
            e = [0] * self.ring.nvars
            e[self.ring.variables.index(tok)] = exp
            return self.ring.monomial(e)
        if tok == "u" and getattr(self.ring.field, "kind", None) == "extension-field":
            F = self.ring.field
            gen = F.idx((0, 1) + (0,) * (F.m - 2)) if F.m >= 2 else F.one
            exp = self._power_suffix()
            c = F.pow(gen, exp if exp is not None else 1)
            return self.ring.const(c)
        raise ParseError("unknown name %r" % tok, self.tok.pos)

    def _power_suffix(self):
        if self.current != "^":
            return None
        self.advance()
        neg = False
        if self.current == "-":
            neg = True
            self.advance()
        if self.current is None or not self.current.lstrip("-").isdecimal():
            raise ParseError("expected integer exponent", self.tok.pos)
        val = self._int(self.current)
        self.advance()
        return -val if neg else val

    def _int(self, digits):
        try:
            return int(digits)
        except ValueError as exc:  # past sys.get_int_max_str_digits()
            raise ParseError("integer literal too long: %s" % exc, self.tok.pos)

    def _maybe_power(self, base):
        exp = self._power_suffix()
        if exp is None:
            return base
        if exp < 0 and not base.is_unit():
            raise ParseError("negative power of a non-unit", self.tok.pos)
        self._check_power_size(base, abs(exp))
        if exp < 0:
            if base.is_constant():
                return self.ring.const(self.ring.field.pow(base.constant_value(), exp))
            (e, c), = base.terms.items()
            return Poly(self.ring, {tuple(x * exp for x in e):
                                    self.ring.field.pow(c, exp)})
        return base ** exp

    def _check_power_size(self, base, n):
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
            raise ResourceLimitError(
                "a power of size %d (terms, times coefficient bits over Q) "
                "is past MAX_POWER_SIZE = %d" % (size, self.MAX_POWER_SIZE))


def parse_poly(ring, text):
    return _PolyParser(ring, text).parse()


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
