import random

import pytest

from jumploci.complexes import (jump_locus_points, support_points,
                                validate_complex)
from jumploci.corpus import random_word
from jumploci.equivariant import FinAbGroup, NuData
from jumploci.errors import ParseError, PreconditionError, ResourceLimitError
from jumploci.fields import PrimeField, Rationals
from jumploci.fox import (MAX_RELATOR_LENGTH, GroupPresentation,
                          alexander_complex, alexander_invariant,
                          characteristic_variety_points, fox_derivative,
                          magnus_quadratic, parse_word, quadratic_cup,
                          word_image)
from jumploci.cga import resonance_points, validate_cga
from jumploci.rings import Ring, poly_to_str

from oracles import fox_rules, magnus_triple

Q = Rationals()
F5 = PrimeField(5)
F7 = PrimeField(7)


def nu_onto_z(n_gens):
    return NuData(n_gens, [[1] * n_gens], (), FinAbGroup(1))


def nu_identity(n_gens):
    block = [[1 if i == j else 0 for j in range(n_gens)] for i in range(n_gens)]
    return NuData(n_gens, block, (), FinAbGroup(n_gens))


TREFOIL = GroupPresentation(("a", "b"), ["a b a b^-1 a^-1 b^-1"])
CIRCLE = GroupPresentation(("a",), [])
WEDGE = GroupPresentation(("a", "b"), [])
A2B = GroupPresentation(("a", "b"), ["a a b a^-1 a^-1 b^-1"])


# -- word parsing ----------------------------------------------------------------


def test_parse_word_notations_agree():
    gens = ("a", "b")
    w1 = parse_word(gens, "a b a^-1 b^-1")
    w2 = parse_word(gens, "abAB")
    assert w1 == w2 == ((0, 1), (1, 1), (0, -1), (1, -1))


def test_parse_word_exponents_and_reduction():
    gens = ("a", "b")
    assert parse_word(gens, "a^2 b^-2") == ((0, 1), (0, 1), (1, -1), (1, -1))
    assert parse_word(gens, "a a^-1") == ()
    assert parse_word(gens, "a b b^-1 a") == ((0, 1), (0, 1))


def test_parse_word_inverse_letter_with_exponent():
    gens = ("a", "b")
    assert parse_word(gens, "A^2 b") == ((0, -1), (0, -1), (1, 1))
    assert parse_word(gens, "a^-2") == ((0, -1), (0, -1))
    assert parse_word(gens, "A^-1") == ((0, 1),)


def test_parse_word_errors():
    with pytest.raises(ParseError):
        parse_word(("a",), "c")
    with pytest.raises(ParseError):
        parse_word(("gen1", "gen2"), "gen1gen2")


@pytest.mark.parametrize("text", ["a^x b", "a^ b", "a^- b", "a^1.5", "^2 a",
                                  "a^2^3", "a^2 ^3", "A^-1^2"])
def test_parse_word_malformed_exponents(text):
    with pytest.raises(ParseError):
        parse_word(("a", "b"), text)


def test_parse_word_length_bound():
    n = MAX_RELATOR_LENGTH
    assert len(parse_word(("a", "b"), "a^%d" % n)) == n
    assert len(parse_word(("a", "b"), "b a^-%d" % (n - 1))) == n
    assert len(parse_word(("a",), "a" * n)) == n
    for text in ("a^%d" % (n + 1), "b a^%d" % n, "a^-%d" % (n + 1),
                 "a " * n + "a"):
        with pytest.raises(ResourceLimitError):
            parse_word(("a", "b"), text)
    with pytest.raises(ResourceLimitError):
        parse_word(("a",), "a" * (n + 1))


# -- the derivative ---------------------------------------------------------------


def test_rule_examples():
    ring = Ring(Q, ("t1", "t2"), laurent=True)
    nu = nu_identity(2)
    ab = parse_word(("a", "b"), "a b")
    assert fox_derivative(ab, 0, nu, ring) == ring.one()
    a_inv = parse_word(("a", "b"), "a^-1")
    expected = -ring.monomial((-1, 0))
    assert fox_derivative(a_inv, 0, nu, ring) == expected


def test_trefoil_derivative_against_rule_oracle():
    ring = Ring(Q, ("t",), laurent=True)
    nu = nu_onto_z(2)
    rel = TREFOIL.relators[0]
    got = fox_derivative(rel, 0, nu, ring)
    # oracle: the defining recursion on word splits, images a, b -> t
    expected_terms = fox_rules(rel, 0, [(1,), (1,)], 1)
    assert {e: int(c) for e, c in got.terms.items()} == expected_terms
    assert poly_to_str(got) == "t^2 - t + 1"
    got_b = fox_derivative(rel, 1, nu, ring)
    expected_b = fox_rules(rel, 1, [(1,), (1,)], 1)
    assert {e: int(c) for e, c in got_b.terms.items()} == expected_b


def test_fundamental_identity_many_random_words():
    # sum_j (dw/dg_j)(image(g_j) - 1) = image(w) - 1
    rng = random.Random(97)
    ring2 = Ring(F5, ("t1", "t2"), laurent=True)
    nus = {2: nu_identity(2), 3: NuData(3, [[1, 0, 1], [0, 1, 1]], (),
                                        FinAbGroup(2))}
    ring_for = {2: ring2, 3: Ring(F5, ("t1", "t2"), laurent=True)}
    checked = 0
    for _ in range(500):
        ngens = rng.choice((2, 3))
        nu = nus[ngens]
        ring = ring_for[ngens]
        w = random_word(rng, ngens, 12)
        from jumploci.fox import free_reduce
        w = free_reduce(w)
        total = ring.zero()
        for j in range(ngens):
            dj = fox_derivative(w, j, nu, ring)
            gj = word_image(((j, 1),), nu, ring)
            total = total + dj * (gj - ring.one())
        assert total == word_image(w, nu, ring) - ring.one()
        checked += 1
    assert checked == 500


def test_free_reduction_invariance():
    ring = Ring(Q, ("t1", "t2"), laurent=True)
    nu = nu_identity(2)
    gens = ("a", "b")
    reduced = parse_word(gens, "a b a^-1")
    padded = ((0, 1), (1, 1), (1, -1), (1, 1), (0, -1))
    from jumploci.fox import free_reduce
    assert free_reduce(padded) == reduced
    for j in (0, 1):
        assert (fox_derivative(reduced, j, nu, ring)
                == fox_derivative(free_reduce(padded), j, nu, ring))


# -- the abelianized complex -------------------------------------------------------


def test_circle_complex():
    nu = NuData(1, [[1]], (), FinAbGroup(1))
    E = alexander_complex(CIRCLE, nu, Q)
    assert list(E.ranks) == [1, 1]
    assert poly_to_str(E.differentials[0][0, 0]) == "t - 1"
    pres, verdict = alexander_invariant(CIRCLE, nu, Q)
    assert pres.gens == 0
    assert verdict.kind == "finite" and verdict.dim == 0


def test_trefoil_complex_and_invariant():
    nu = nu_onto_z(2)
    E = alexander_complex(TREFOIL, nu, Q)
    assert validate_complex(E).ok
    pres, verdict = alexander_invariant(TREFOIL, nu, Q)
    assert pres.gens == 1
    rel = pres.relations[0, 0].laurent_normalize()
    assert poly_to_str(rel) == "t^2 - t + 1"
    assert verdict.kind == "finite" and verdict.dim == 2


def test_wedge_invariant_free_rank_one():
    nu = nu_identity(2)
    pres, verdict = alexander_invariant(WEDGE, nu, Q)
    assert pres.gens == 1
    assert pres.relations.ncols == 0
    assert verdict.kind == "infinite"
    # the kernel generator of the boundary row (t1 - 1, t2 - 1) is the
    # standard relation (t2 - 1, -(t1 - 1)) up to a unit
    from jumploci.groebner import syzygy_matrix
    from jumploci.matrices import Matrix
    E = alexander_complex(WEDGE, nu, Q)
    d1 = E.differentials[0]
    ordinary = Ring(Q, ("t1", "t2"))
    from jumploci.rings import Poly
    cleared = Matrix(ordinary, 1, 2,
                     [[Poly(ordinary, dict(d1[0, 0].terms)),
                       Poly(ordinary, dict(d1[0, 1].terms))]])
    syz = syzygy_matrix(cleared)
    assert syz.ncols == 1
    col = [poly_to_str(syz[i, 0]) for i in range(2)]
    assert col in (["t2 - 1", "-t1 + 1"], ["-t2 + 1", "t1 - 1"])


def test_a2b_infinite_dimensional():
    nu = nu_identity(2)
    pres, verdict = alexander_invariant(A2B, nu, Q)
    assert verdict.kind == "infinite"


def test_alexander_complex_requires_surjective():
    with pytest.raises(PreconditionError):
        NuData(2, [[2, 0]], (), FinAbGroup(1))


# -- character tori ------------------------------------------------------------------


def test_trefoil_characteristic_points():
    nu = nu_onto_z(2)
    pts = characteristic_variety_points(TREFOIL, nu, 1, 1, F7)
    got = {p[0] for p in pts}
    # required check: the roots of t^2 - t + 1 in F_7 are exactly {3, 5};
    # the unit circle oracle evaluates the polynomial at every unit
    roots = {t for t in range(1, 7) if (t * t - t + 1) % 7 == 0}
    assert roots == {3, 5}
    assert got - {1} == roots
    # no hand assertion about the identity character: compute it honestly
    from jumploci.complexes import homology_dim_at
    E = alexander_complex(TREFOIL, nu, F7)
    ident = homology_dim_at(E, 1, F7)((1,))
    assert (1 in got) == (ident >= 1)


def test_circle_characteristic_identity_only():
    # the degree-one module of the cover vanishes (ker(t-1) = 0 in the
    # Laurent ring), so the SUPPORT is empty; the pointwise jump locus
    # still contains the identity character, where the specialized
    # complex k ->0 k has one-dimensional degree-one homology
    nu = NuData(1, [[1]], (), FinAbGroup(1))
    for q in (5, 7):
        F = PrimeField(q)
        pts = characteristic_variety_points(CIRCLE, nu, 1, 1, F)
        assert pts == {(1,)}
        E = alexander_complex(CIRCLE, nu, F)
        assert support_points(E, 1, 1, F) == set()


def test_identity_character_in_degree_zero():
    # H_0 jumps exactly at the identity character
    nu = nu_identity(2)
    for P in (WEDGE, TREFOIL, A2B):
        nu_p = nu if P is not TREFOIL else nu_onto_z(2)
        pts = characteristic_variety_points(P, nu_p, 0, 1, F5)
        expected = {tuple([1] * nu_p.group.rank)}
        assert pts == expected


def test_support_jump_union_comparison():
    # union over i <= 1 of supports equals union of jump loci, on the torus
    nu = nu_onto_z(2)
    for P, nu_p, F in ((TREFOIL, nu, F7), (WEDGE, nu_identity(2), F5),
                       (A2B, nu_identity(2), F5), (CIRCLE,
                                                   NuData(1, [[1]], (),
                                                          FinAbGroup(1)), F5)):
        E = alexander_complex(P, nu_p, F)
        v_union, w_union = set(), set()
        for i in (0, 1):
            v_union |= jump_locus_points(E, i, 1, F)
            w_union |= support_points(E, i, 1, F)
        assert v_union == w_union


def test_unit_column_scaling_invariance():
    # multiplying a relator column by a unit changes no point set
    from jumploci.complexes import FreeChainComplex
    from jumploci.matrices import Matrix
    nu = nu_onto_z(2)
    E = alexander_complex(TREFOIL, nu, F7)
    ring = E.ring
    t = ring.var(0)
    d2 = E.differentials[1]
    scaled = d2 * Matrix(ring, 1, 1, [[t]])
    E2 = FreeChainComplex(ring, E.ranks, [E.differentials[0], scaled])
    for i in (0, 1, 2):
        for d in (1, 2):
            assert (jump_locus_points(E, i, d, F7)
                    == jump_locus_points(E2, i, d, F7))


# -- the quadratic pairing -------------------------------------------------------------


def test_magnus_expansion_against_triple_oracle():
    rng = random.Random(55)
    for _ in range(60):
        n = rng.choice((2, 3))
        w = random_word(rng, n, 8)
        lin, quad = magnus_quadratic(GroupPresentation(tuple("abc"[:n]), []), w)
        c, lin_o, quad_o = magnus_triple(w, n)
        assert c == 1
        assert all(lin.get(i, 0) == lin_o[i] for i in range(n))
        for i in range(n):
            for j in range(n):
                assert quad.get((i, j), 0) == quad_o[i][j]


def test_quadratic_cup_torus():
    P = GroupPresentation(("a", "b"), ["a b a^-1 b^-1"])
    A = quadratic_cup(P, Q)
    assert validate_cga(A).ok
    assert A.mu(1, 1, 0, 1) == (Q.one,)
    assert A.mu(1, 1, 1, 0) == (Q.neg(Q.one),)


def test_quadratic_cup_a2b_coefficient_two():
    A = quadratic_cup(A2B, Q)
    assert validate_cga(A).ok
    assert A.mu(1, 1, 0, 1) == (Q.from_int(2),)
    # over an odd-characteristic field the pairing is nondegenerate, so the
    # degree-one resonance is trivial
    A5 = quadratic_cup(A2B, F5)
    pts = resonance_points(A5, 1, 1)
    assert pts == {(0, 0)}


def test_quadratic_cup_rejects_noncommutator():
    with pytest.raises(PreconditionError):
        quadratic_cup(TREFOIL, Q)
