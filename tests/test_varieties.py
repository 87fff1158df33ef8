from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumploci.complexes import (FreeChainComplex, jump_locus_points,
                                support_points)
from jumploci.errors import PreconditionError
from jumploci.fields import (PrimeField, Rationals, embedding, extension_of,
                             finite_field)
from jumploci.matrices import Matrix
from jumploci.rings import Ideal, Ring, parse_poly
from jumploci.varieties import Space, extension_fields, zero_locus_points

from oracles import number

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_principal_locus():
    R = Ring(F3, ("x",))
    I = Ideal(R, [R.var(0)])
    assert zero_locus_points(I) == {(0,)}


def test_zero_ideal_locus_is_everything():
    R = Ring(F3, ("x",))
    I = Ideal(R, [])
    assert {p[0] for p in zero_locus_points(I)} == {0, 1, 2}


def test_quadratic_roots_against_direct_evaluation():
    R = Ring(F5, ("x",))
    I = Ideal(R, [parse_poly(R, "x^2 + 1")])
    got = {p[0] for p in zero_locus_points(I)}
    expected = {v for v in range(5) if (v * v + 1) % 5 == 0}
    assert got == expected == {2, 3}


def test_locus_is_intersection_of_generator_loci():
    R = Ring(F3, ("x", "y"))
    gens = [parse_poly(R, "x^2 - y"), parse_poly(R, "x*y + 1"),
            parse_poly(R, "x + y + 1")]
    whole = zero_locus_points(Ideal(R, gens))
    per_gen = [zero_locus_points(Ideal(R, [g])) for g in gens]
    inter = set.intersection(*per_gen)
    assert whole == inter


def test_laurent_ring_forces_torus():
    L = Ring(F5, ("t",), laurent=True)
    I = Ideal(L, [])
    pts = {p[0] for p in zero_locus_points(I)}
    assert pts == {1, 2, 3, 4}


def test_infinite_field_refused():
    R = Ring(Q, ("x",))
    with pytest.raises(PreconditionError):
        zero_locus_points(Ideal(R, [R.var(0)]))


def test_locus_over_extensions():
    R = Ring(F3, ("x",))
    # x^2 + 1 has no roots in F_3, two in F_9
    I = Ideal(R, [parse_poly(R, "x^2 + 1")])
    by_degree = {e: zero_locus_points(I, F)
                 for e, F in extension_fields(F3, 2)}
    assert by_degree[1] == set()
    assert len(by_degree[2]) == 2
    F9 = extension_of(F3, 2)
    for p in by_degree[2]:
        a = p[0]
        assert F9.add(F9.mul(a, a), F9.one) == F9.zero


def test_extension_tower_embedding_path():
    # base field already an extension: the ideal's coefficients must be
    # embedded through the tower
    F4 = __import__("jumploci").finite_field(4)
    R = Ring(F4, ("x",))
    u = number((0, 1), 2)
    I = Ideal(R, [R.var(0) - R.const(u)])  # x - u
    by_degree = {e: zero_locus_points(I, F)
                 for e, F in extension_fields(F4, 2)}
    assert {p[0] for p in by_degree[1]} == {u}
    F16 = extension_of(F4, 2)
    assert {p[0] for p in by_degree[2]} == {embedding(F4, F16)[u]}


@pytest.mark.parametrize("source, target", [
    (finite_field(4), finite_field(8)), (finite_field(8), finite_field(4)),
    (F5, PrimeField(7)), (Q, F5)], ids=repr)
def test_fields_with_no_embedding_are_refused(source, target):
    # neither field lies in the other, so no locus over `target` is read
    # from coefficients in `source`: the refusal names both fields, from
    # fields.embedding, from each locus that evaluates through it, and
    # from the answers given with no evaluation (depth 0, a depth above
    # c_1 = 2, the support at depth 0, the zero ideal)
    R = Ring(source, ("x", "y"))
    x, y = R.var(0), R.var(1)
    koszul = FreeChainComplex(R, [1, 2, 1], [Matrix(R, 1, 2, [[x, y]]),
                                             Matrix(R, 2, 1, [[-y], [x]])])
    for refused in (lambda: embedding(source, target),
                    lambda: jump_locus_points(koszul, 1, 1, target),
                    lambda: zero_locus_points(Ideal(R, [x]), target),
                    lambda: jump_locus_points(koszul, 1, 0, target),
                    lambda: jump_locus_points(koszul, 1, 3, target),
                    lambda: support_points(koszul, 1, 0, target),
                    lambda: zero_locus_points(Ideal(R, []), target)):
        with pytest.raises(PreconditionError) as exc:
            refused()
        assert "%r into %r" % (source, target) in str(exc.value)


@st.composite
def _spaces(draw):
    """(Space, its tuples, a set of tuples near it): the other set keeps
    some of the tuples and adds some of any length 0..4 whose coordinates
    run one past the field's ints at each end."""
    field = draw(st.sampled_from([PrimeField(2), PrimeField(5),
                                  finite_field(4), finite_field(9)]))
    torus, r = draw(st.booleans()), draw(st.integers(0, 3))
    tuples = set(product(field.units() if torus else field.elements(),
                         repeat=r))
    near = st.lists(st.integers(-1, field.order), max_size=4).map(tuple)
    other = (tuples - draw(st.sets(st.sampled_from(sorted(tuples)))) if
             draw(st.booleans()) else set()) | draw(st.sets(near, max_size=4))
    return Space(field, r, torus), tuples, other, draw(st.lists(near))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_spaces())
def test_a_space_is_the_set_of_its_tuples(case):
    space, tuples, other, probes = case
    assert len(space) == space.size == len(tuples) and bool(space)
    assert set(space) == tuples and len(list(space)) == len(tuples)
    for c in [*tuples, *other, *probes]:
        assert (c in space) == (c in tuples)
    assert space == tuples and tuples == space
    assert (space == other) == (other == space) == (tuples == other)
    assert (space != other) == (tuples != other)
    twin = Space(space.field, space.r, not space.torus)
    assert (space == twin) == (tuples == set(twin))
    other_field = Space(F5, space.r, space.torus)
    assert (space == other_field) == (tuples == set(other_field))
    for got, want in [(space | other, tuples | other),
                      (other | space, other | tuples),
                      (space & other, tuples & other),
                      (other & space, other & tuples),
                      (space - other, tuples - other),
                      (other - space, other - tuples)]:
        assert type(got) is set and got == want


def test_a_space_is_compared_without_walking_it(monkeypatch):
    # equality reads the field's pool and r, and against a set its size and
    # the set's own points: no tuple of the Space is listed, and q^2 >= 2^63
    # needs no len()
    def refuse(self):
        raise AssertionError("a Space was listed")
    monkeypatch.setattr(Space, "__iter__", refuse)
    huge = finite_field(1000000000000000003)
    F = finite_field(1009)
    assert Space(huge, 2, False) == Space(huge, 2, False)
    assert Space(huge, 2, False) != Space(huge, 2, True)
    assert Space(huge, 2, False) != Space(huge, 3, False)
    assert Space(F, 0, False) == Space(F, 0, True) == {()}
    assert Space(F, 2, False) != Space(finite_field(1013), 2, False)
    assert Space(huge, 2, False) != {(0, 0)} != Space(F, 2, True)
    assert Space(F, 1, True) == set(product(range(1, 1009)))
    assert Space(F, 1, False) != set(product(range(1, 1010)))
