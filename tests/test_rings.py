import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumploci.errors import ParseError, PreconditionError, ResourceLimitError
from jumploci.fields import PrimeField, Rationals, finite_field
from jumploci.rings import (Ideal, Poly, Ring, parse_poly, poly_to_str,
                            unit_ideal, zero_ideal)

from oracles import number, parse_poly_by_tokens


Q = Rationals()
F5 = PrimeField(5)


def test_parse_format_round_trip_rationals():
    R = Ring(Q, ("x", "y"))
    for text in ["0", "1", "x", "2*x^2*y - 3*x + 1/2", "x*y + y", "-x"]:
        p = parse_poly(R, text)
        assert parse_poly(R, poly_to_str(p)) == p


def test_parse_format_round_trip_laurent():
    R = Ring(F5, ("t",), laurent=True)
    for text in ["t^-1", "t^2 - t + 1", "2*t^-3 + t", "t - t^-1"]:
        p = parse_poly(R, text)
        assert parse_poly(R, poly_to_str(p)) == p


@pytest.mark.parametrize("laurent, text, expected", [
    (False, "(x + 1)^2", "x^2 + 2*x + 1"),
    (False, "2^3", "3"),
    (False, "(2)^-1", "3"),
    (True, "(t)^-2", "t^-2"),
    (True, "(2*t)^-1", "3*t^-1"),
])
def test_power_of_a_parenthesised_or_numeric_base(laurent, text, expected):
    # over F_5: 2^3 = 8 = 3 and 2^-1 = 3
    R = Ring(F5, ("t",) if laurent else ("x",), laurent=laurent)
    assert poly_to_str(parse_poly(R, text)) == expected


@pytest.mark.parametrize("laurent, text", [
    (False, "(x + 1)^-1"), (False, "(x)^-1"), (True, "(t + 1)^-1")])
def test_negative_power_of_a_non_unit_is_a_parse_error(laurent, text):
    R = Ring(F5, ("t",) if laurent else ("x",), laurent=laurent)
    with pytest.raises(ParseError, match="negative power of a non-unit"):
        parse_poly(R, text)


@pytest.mark.parametrize("field, text", [
    (PrimeField(7), "(x + y + 1)^300"), (PrimeField(7), "(x + 1)^20000"),
    (PrimeField(7), "(x*y + 1)^3000"), (Q, "2^3000000000"),
    (Q, "(1/2)^-3000000000"), (Q, "(x + 1)^45")])
def test_a_power_past_the_size_bound_is_refused(field, text):
    # sizes 301^2, 20001, 3001^2, 3*10^9 * 2 bits, 3*10^9 * 2 bits, and
    # 46 terms * 45 bits, each past 2048
    R = Ring(field, ("x", "y"))
    with pytest.raises(ResourceLimitError, match="MAX_POWER_SIZE = 2048"):
        parse_poly(R, text)


@pytest.mark.parametrize("field, text, terms", [
    (PrimeField(7), "(x + y + 1)^44", 168), (PrimeField(7), "7^3000000000", 0),
    (PrimeField(7), "x^3000000000", 1), (PrimeField(7), "(x - x)^3000000000", 0),
    (Q, "2^1024", 1), (Q, "(x + 1)^44", 45)])
def test_a_power_within_the_size_bound_is_expanded(field, text, terms):
    R = Ring(field, ("x", "y"))
    assert len(parse_poly(R, text).terms) == terms


ROUND_TRIP_FIELDS = (Q, F5, finite_field(8), finite_field(9), finite_field(25))


@st.composite
def _polys(draw):
    """A polynomial over Q, F_5, F_8, F_9 or F_25, ordinary or Laurent, in
    one or two variables."""
    field = draw(st.sampled_from(ROUND_TRIP_FIELDS))
    nvars = draw(st.integers(1, 2))
    laurent = draw(st.booleans())
    ring = Ring(field, ("x", "y")[:nvars], laurent=laurent)
    exps = st.tuples(*[st.integers(-3 if laurent else 0, 4)] * nvars)
    if field.is_finite:
        coeffs = st.integers(1, field.order - 1)
    else:
        coeffs = st.fractions(-50, 50, max_denominator=20).filter(bool)
    p = ring.zero()
    for e, c in draw(st.dictionaries(exps, coeffs, max_size=5)).items():
        p = p + ring.monomial(e, c)
    return p


@settings(derandomize=True, max_examples=300)
@given(_polys())
def test_parse_format_round_trip_generated(p):
    assert parse_poly(p.ring, poly_to_str(p)) == p


def test_parse_extension_scalar():
    F4 = finite_field(4)
    R = Ring(F4, ("x",))
    p = parse_poly(R, "(u + 1)*x + u")
    u = number((0, 1), 2)
    assert p.terms[(1,)] == F4.add(u, F4.one)
    assert p.terms[(0,)] == u
    assert parse_poly(R, poly_to_str(p)) == p


def test_negative_exponent_rejected_in_ordinary_ring():
    R = Ring(F5, ("x",))
    with pytest.raises(ParseError):
        parse_poly(R, "x^-1")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on integer string conversion")
@pytest.mark.parametrize("text", ["9" * 5001, "x^" + "9" * 5000,
                                  "-x^-" + "9" * 5000, "1/" + "3" * 5000],
                         ids=["entry", "exponent", "negative-exponent",
                              "denominator"])
def test_over_long_integer_literal_is_a_parse_error(text):
    R = Ring(Q, ("x",), laurent=True)
    with pytest.raises(ParseError, match="integer literal too long"):
        parse_poly(R, text)


def test_arithmetic_identities_random():
    rng = random.Random(11)
    R = Ring(F5, ("x", "y"))

    def rand_poly():
        p = R.zero()
        for _ in range(rng.randint(0, 4)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            p = p + R.monomial(e, rng.randint(1, 4))
        return p

    for _ in range(50):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == R.zero()
        assert (a * b) * c == a * (b * c)


def test_evaluate_against_direct_substitution():
    R = Ring(F5, ("x", "y"))
    p = parse_poly(R, "2*x^2*y + 3*x + 4")
    for x in range(5):
        for y in range(5):
            assert p.evaluate((x, y)) == (2 * x * x * y + 3 * x + 4) % 5


def test_laurent_normalize():
    R = Ring(F5, ("t",), laurent=True)
    p = parse_poly(R, "2*t^-2 + 2*t")
    n = p.laurent_normalize()
    # shifted to minimal exponent 0 and monic in the top term
    assert min(e[0] for e in n.terms) == 0
    assert poly_to_str(n) == "t^3 + 1"


def test_is_unit():
    R = Ring(F5, ("t",), laurent=True)
    assert parse_poly(R, "3*t^-2").is_unit()
    assert not parse_poly(R, "t + 1").is_unit()
    S = Ring(F5, ("x",))
    assert parse_poly(S, "3").is_unit()
    assert not parse_poly(S, "x").is_unit()


def test_ideal_canonicalization():
    R = Ring(F5, ("x",))
    x = R.var(0)
    a = Ideal(R, [x, x.scale(2), R.zero()])
    b = Ideal(R, [x.scale(3)])
    assert a == b
    assert len(a.generators) == 1
    assert Ideal(R, []) == zero_ideal(R)
    assert Ideal(R, [R.const(2)]) == unit_ideal(R)



# -- the parser against the token-by-token oracle ----------------------------

PARSE_FIELDS = (Q, F5, PrimeField(7), finite_field(4), finite_field(9),
                finite_field(25))


def _outcome(parse, ring, text):
    """The Poly a parser reads, or the type and text of its error."""
    try:
        return parse(ring, text)
    except (ParseError, ResourceLimitError) as exc:
        return type(exc), str(exc)


@st.composite
def _poly_strings(draw):
    """(ring, text): a polynomial string over Q, F_p or F_{p^m}, ordinary or
    Laurent, in 1-3 variables, with signs, products, powers, fractions,
    parenthesized sums and their powers, and u^k over F_{p^m}."""
    field = draw(st.sampled_from(PARSE_FIELDS))
    laurent = draw(st.booleans())
    ring = Ring(field, ("x", "y", "z")[:draw(st.integers(1, 3))],
                laurent=laurent)
    p = field.characteristic
    space = st.sampled_from(("", " ", "  "))

    def factor(depth):
        kinds = ["int", "fraction", "name"]
        kinds += ["u"] if field.kind == "extension-field" else []
        kinds += ["paren"] if depth else []
        kind = draw(st.sampled_from(kinds))
        if kind == "int":
            text = str(draw(st.integers(0, 40)))
        elif kind == "fraction":
            den = draw(st.integers(1, 12).filter(lambda d: p == 0 or d % p))
            return "%d/%d" % (draw(st.integers(0, 40)), den)
        elif kind == "name":
            text = draw(st.sampled_from(ring.variables))
            low = -3 if laurent else 0
            if draw(st.booleans()):
                return text + "^" + str(draw(st.integers(low, 4)))
            return text
        elif kind == "u":
            text = "u"
            if draw(st.booleans()):
                return text + "^" + str(draw(st.integers(-3, 5)))
            return text
        else:
            text = "(" + expr(depth - 1) + ")"
        if draw(st.booleans()):
            text += "^" + str(draw(st.integers(0, 9)))
        return text

    def term(depth):
        return (draw(space) + "*" + draw(space)).join(
            factor(depth) for _ in range(draw(st.integers(1, 3))))

    def expr(depth):
        text = draw(st.sampled_from(("", "-", "+"))) + term(depth)
        for _ in range(draw(st.integers(0, 3))):
            text += draw(space) + draw(st.sampled_from("+-")) + draw(space)
            text += term(depth)
        return text

    return ring, draw(space) + expr(2) + draw(space)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_poly_strings())
def test_parser_agrees_with_the_token_parser(case):
    ring, text = case
    want = _outcome(parse_poly_by_tokens, ring, text)
    assert isinstance(want, Poly) or want[0] is ResourceLimitError
    assert _outcome(parse_poly, ring, text) == want


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_poly_strings(), st.data())
def test_parser_agrees_with_the_token_parser_on_mutated_strings(case, data):
    # one character inserted, deleted or replaced: the same Poly, or the
    # same error type and message, position included
    ring, text = case
    at = data.draw(st.integers(0, len(text)))
    char = data.draw(st.sampled_from(list("+-*^()/ 0123456789xyzutv_$²١\t")))
    edit = data.draw(st.sampled_from(("insert", "delete", "replace")))
    text = text[:at] + (char if edit != "delete" else "") + text[
        at + (edit != "insert"):]
    assert (_outcome(parse_poly, ring, text)
            == _outcome(parse_poly_by_tokens, ring, text))
