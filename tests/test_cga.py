import itertools
import json
import random

import pytest

from jumploci import cga, complexes
from jumploci.cli import main
from jumploci.complexes import jump_locus_points
from jumploci.cga import (BShape, GradedAlgebra, aomoto_complex,
                          exterior_algebra, generic_vanishing_experiment,
                          in_resonance, pairing_cga, resonance_ideal,
                          resonance_points, sample_cga, validate_cga)
from jumploci.documents import dump_cga
from jumploci.errors import InternalError, PreconditionError
from jumploci.fields import (PrimeField, Rationals, embedding, extension_of,
                             finite_field)
from jumploci.matrices import Matrix
from jumploci.rings import Poly, unit_ideal, zero_ideal
from jumploci.varieties import (Space, extension_fields, points_where,
                                zero_locus_points)

from families import graph_algebra, graph_resonance, surface_algebra
from oracles import _matmul_mod_p, base_change, rank_by_minors

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)


def exterior2(field):
    return pairing_cga(field, 2, 1, {(0, 1): [1]})


def zero_mult(field):
    return pairing_cga(field, 2, 1, {})


def test_validate_exterior_and_zero():
    assert validate_cga(exterior2(Q)).ok
    assert validate_cga(zero_mult(Q)).ok


def test_validate_rejects_symmetric_pairing():
    # e1 e2 = +e2 e1 violates the sign rule in odd degree over Q
    block = [[[Q.zero, ], [Q.one, ]], [[Q.one, ], [Q.zero, ]]]
    A = GradedAlgebra(Q, (1, 2, 1), {(1, 1): block})
    v = validate_cga(A)
    assert not v.ok
    assert "commutativity" in v.message


def delta(A, a, i):
    """Left multiplication by a from A^i to A^{i+1}: the transpose of d_{i+1}
    of the universal Aomoto complex, evaluated at a."""
    return aomoto_complex(A).differential(i + 1).transpose().evaluate(a, A.field)


def test_aomoto_exterior_matrices():
    # oracle: expand by hand; e1*e1 = 0, e1*e2 = e12
    A = exterior2(Q)
    a = (Q.one, Q.zero)
    assert delta(A, a, 0) == [[Q.one], [Q.zero]]
    assert delta(A, a, 1) == [[Q.zero, Q.one]]


def test_aomoto_zero_element_and_zero_algebra():
    A = exterior2(F3)
    assert all(c == 0 for i in range(A.top) for row in delta(A, (0, 0), i)
               for c in row)
    Z = zero_mult(F3)
    assert all(c == 0 for i in range(1, Z.top) for row in delta(Z, (1, 2), i)
               for c in row)


def test_resonance_member_degree_zero():
    for A in (exterior2(F3), zero_mult(F3), exterior2(Q)):
        zero = tuple(A.field.zero for _ in range(2))
        assert in_resonance(A, zero, 0, 1)
        assert not in_resonance(A, zero, 0, 2)


def test_resonance_member_exterior_nonzero_false():
    A = exterior2(F3)
    # oracle: the rank computation on the closed-form matrices
    a = (1, 0)
    d0 = [[1], [0]]
    d1 = [[0, 1]]
    assert 2 - rank_by_minors(d0, 3) - rank_by_minors(d1, 3) == 0
    assert not in_resonance(A, a, 1, 1)


def test_resonance_member_zero_mult_true():
    A = zero_mult(F3)
    assert in_resonance(A, (1, 2), 1, 1)


def test_resonance_points_exterior_exhaustive():
    A = exterior2(F3)
    got = resonance_points(A, 1, 1)
    # oracle: closed-form membership over all 9 vectors: delta^0 = a as a
    # column, delta^1 = (-a2, a1); H^1 = 2 - rank - rank
    expected = set()
    for a1 in range(3):
        for a2 in range(3):
            r0 = rank_by_minors([[a1], [a2]], 3)
            r1 = rank_by_minors([[(-a2) % 3, a1]], 3)
            if 2 - r0 - r1 >= 1:
                expected.add((a1, a2))
    assert got == expected == {(0, 0)}


def test_resonance_points_zero_mult_everything():
    A = zero_mult(F3)
    assert len(resonance_points(A, 1, 1)) == 9


def test_resonance_points_degree_zero():
    A = sample_cga(BShape((1, 2, 1)), F3, "any")
    assert resonance_points(A, 0, 1) == {(0, 0)}


def test_resonance_ideal_matches_points():
    for A in (exterior2(F3), zero_mult(F3), exterior2(F5)):
        F = A.field
        for i in (0, 1, 2):
            for d in (1, 2):
                ideal = resonance_ideal(A, i, d)
                locus = zero_locus_points(ideal, F)
                pts = resonance_points(A, i, d)
                assert locus == pts, (i, d)


def test_resonance_ideal_extension_degree_two():
    A = exterior2(F3)
    ideal = resonance_ideal(A, 1, 1)
    F9 = extension_of(F3, 2)
    locus = zero_locus_points(ideal, F9)
    # reload the algebra over F_9 to enumerate there directly
    A9 = pairing_cga(F9, 2, 1, {(0, 1): [1]})
    pts = resonance_points(A9, 1, 1)
    assert locus == pts == {(0, 0)}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_extension_resonance_against_the_base_changed_algebra(q):
    # resonance over F_{q^e}, whose evaluators map the coefficients in,
    # equals the resonance of the algebra rebuilt over F_{q^e}; F_4 ->
    # F_16 is the case whose embedding is a table, not None
    F = finite_field(q)
    nontrivial = 0
    for e, big in extension_fields(F, 3):
        assert (embedding(F, big) is not None) == (e > 1 and q == 4)
        for shape in ((1, 3, 2), (1, 4, 3)):
            if e == 1 or big.order ** (shape[1] - 1) > 5000:
                continue
            for seed in range(2):
                A = sample_cga(BShape(shape), F, "ext:%d" % seed)
                B = base_change(A, big)
                for i, d in ((1, 1), (1, 2), (2, 1)):
                    got = resonance_points(A, i, d, big)
                    assert got == resonance_points(B, i, d), (shape, e, i, d)
                    nontrivial += len(got) > 1
    assert nontrivial


@pytest.mark.parametrize("q", [2, 4, 8])
def test_square_zero_cut_against_in_resonance_in_characteristic_2(q):
    # in characteristic 2 an element can have a^2 != 0: the cut by the
    # entries of d_1 d_2 drops exactly the elements in_resonance refuses,
    # which multiplies a by itself in A
    F = finite_field(q)
    cut = 0
    for seed in range(6):
        A = sample_cga(BShape((1, 3, 2)), F, "char2:%d" % seed)
        for i, d in ((1, 1), (1, 2), (2, 1)):
            got = resonance_points(A, i, d)
            assert got == points_where(F, 3, False, lambda a: in_resonance(
                A, a, i, d)), (seed, i, d)
            cut += len(jump_locus_points(aomoto_complex(A), i, d, F)) > len(got)
    assert cut


def test_resonance_ideal_empty_cases():
    A = exterior2(F3)
    ideal = resonance_ideal(A, 0, 2)
    assert ideal == unit_ideal(ideal.ring)
    Z = zero_mult(F3)
    ideal = resonance_ideal(Z, 1, 1)
    assert ideal == zero_ideal(ideal.ring)


def test_cone_and_nesting_exhaustive():
    for field in (F3, F5):
        for seed in range(4):
            A = sample_cga(BShape((1, 2, 1)), field, seed)
            for i in (0, 1, 2):
                sets = {}
                for d in (1, 2, 3):
                    sets[d] = resonance_points(A, i, d)
                assert sets[3] <= sets[2] <= sets[1]
                zero = tuple(field.zero for _ in range(A.dim(1)))
                for d in (1, 2, 3):
                    if A.dim(i) >= d:
                        assert zero in sets[d]  # multiplication by 0 is zero
                for d in (1, 2):
                    for coords in sets[d]:
                        for lam in field.units():
                            scaled = tuple(field.mul(lam, c) for c in coords)
                            assert scaled in sets[d]


@pytest.mark.parametrize("planted", [
    # not closed under any unit but 1
    {(0, 0), (1, 2)},
    # closed under 2, of order 3 in F_7^x, but not under the generator 3
    {(1, 0), (2, 0), (4, 0)},
])
def test_a_planted_non_cone_is_an_internal_error(planted, monkeypatch):
    monkeypatch.setattr(cga, "square_zero_jump_points",
                        lambda *args: set(planted))
    with pytest.raises(InternalError, match="not a cone"):
        resonance_points(zero_mult(PrimeField(7)), 1, 1)


def test_a_planted_cone_passes_the_generator_check(monkeypatch):
    # the two lines through the origin spanned by (1, 0) and (1, 1)
    F7 = PrimeField(7)
    cone = {(F7.mul(t, a), F7.mul(t, b)) for a, b in ((1, 0), (1, 1))
            for t in F7.elements()}
    monkeypatch.setattr(cga, "square_zero_jump_points",
                        lambda *args: set(cone))
    assert resonance_points(zero_mult(F7), 1, 1) == cone


def test_sample_cga_validity_and_classification():
    # any sampled pairing is a valid algebra; the zero pairing is resonant in
    # degree 1 and a nondegenerate one is not
    for seed in range(6):
        A = sample_cga(BShape((1, 2, 1)), F5, seed)
        assert validate_cga(A).ok
    zero = zero_mult(F5)
    assert resonance_points(zero, 1, 1) == {
        (a, b) for a in range(5) for b in range(5)}
    nondeg = exterior2(F5)
    assert resonance_points(nondeg, 1, 1) == {
        (0, 0)}


@pytest.mark.parametrize("q,shape", [(5, (1, 2, 1)), (5, (1, 3, 2)),
                                     (4, (1, 2, 2)), (3, (1, 0, 1))])
def test_unit_products_are_the_scalar_action(q, shape):
    # the basis element of A^0 is the unit, so a degree-0 factor (c,)
    # scales the other factor by c, on either side
    F = finite_field(q)
    rng = random.Random("unit:%d:%r" % (q, shape))
    elems = list(F.elements())
    for seed in range(3):
        A = sample_cga(BShape(shape), F, seed)
        for j in range(A.top + 1):
            b = tuple(rng.choice(elems) for _ in range(A.dim(j)))
            for c in elems:
                cb = tuple(F.mul(c, x) for x in b)
                assert A.multiply(0, j, (c,), b) == cb
                assert A.multiply(j, 0, b, (c,)) == cb


def test_sample_cga_rejects_long_shapes():
    with pytest.raises(PreconditionError):
        sample_cga(BShape((1, 2, 2, 1)), F3, 0)


def test_experiment_classifies_shape_121():
    rep = generic_vanishing_experiment(BShape((1, 2, 1)), 1, 60, F5, 0)
    assert rep["vanishing_count"] + rep["resonant_count"] == 60
    # the zero pairing must occur and be classified resonant: its exemplar
    # has no nonzero structure constants
    assert rep["resonant_exemplar"] is not None
    assert dump_cga(rep["resonant_exemplar"]["algebra"])["mult"] == []
    assert rep["vanishing_exemplar"] is not None


def test_experiment_shape_110_all_vanishing():
    # B^1 one-dimensional with zero products: every nonzero a kills H^1
    rep = generic_vanishing_experiment(BShape((1, 1, 0)), 1, 25, F3, 1)
    assert rep["resonant_count"] == 0
    assert rep["vanishing_count"] == 25


def test_experiment_reads_a_whole_space_resonance_without_listing_it(
        capsys, monkeypatch):
    # on (1, 40, 3), e = c_2 - c_1 + 1 + d = 3 - 40 + 2 < 0, so R^1_1 is
    # all of F_3^40, a Space: the experiment calls it resonant with its
    # least nonzero point for a witness, and never walks its 3^40 points
    def refuse(self):
        raise AssertionError("a Space was listed")
    monkeypatch.setattr(Space, "__iter__", refuse)
    assert main("genres-experiment --shape 1,40,3 --i 1 --trials 1 "
                "--q 3".split()) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "results.resonant_count: 1" in lines
    assert ("results.resonant_exemplar.witness: %s"
            % json.dumps([0] * 39 + [1])) in lines


def test_experiment_zero_trials_error():
    with pytest.raises(PreconditionError):
        generic_vanishing_experiment(BShape((1, 2, 1)), 1, 0, F3, 0)


def test_aomoto_composes_to_zero():
    # delta(a) . delta(a) = 0 for every square-zero a of every sampled algebra
    for field in (F3, F5):
        for seed in range(5):
            A = sample_cga(BShape((1, 2, 2)), field, "dd:%d" % seed)
            for coords in ((field.one, field.zero), (field.one, field.one),
                           (field.zero, field.zero)):
                for i in range(A.top - 1):
                    lo, hi = delta(A, coords, i), delta(A, coords, i + 1)
                    if not lo or not hi:
                        continue
                    prod = _matmul_mod_p(hi, lo, field.order)
                    assert all(c == field.zero for row in prod for c in row)


def test_char2_square_condition():
    F2 = PrimeField(2)
    # symmetric pairing with a nonzero square: e1*e1 = f
    A = pairing_cga(F2, 1, 1, {(0, 0): [1]})
    assert validate_cga(A).ok  # legal in characteristic 2
    # a square-nonzero element is simply outside the locus
    assert not in_resonance(A, (F2.one,), 1, 1)


def test_resonance_evaluates_only_the_two_maps_it_ranks(monkeypatch):
    # R^1 of the exterior algebra on 4 generators over F_5: the Aomoto
    # complex is graded by all of Z^4, so each of the 16 coordinate strata
    # is one torus orbit, and one point of each is ranked, 16 of the 625;
    # at each only d_1 (1 x 4) and d_2 (4 x 6) are evaluated, each from
    # its plan, and ranked, with no prefix substituted; the six a^2
    # quadrics are the zero polynomial away from characteristic 2, so none
    # is evaluated
    counts = {"evaluate": 0, "rank": 0, (1, 4): 0, (4, 6): 0}
    evaluate, evaluator, rank = Poly.evaluate, Matrix.evaluator, complexes.mat_rank

    def counted_evaluate(*args, **kwargs):
        counts["evaluate"] += 1
        return evaluate(*args, **kwargs)

    def counted_evaluator(self, field=None, kept=None):
        at = evaluator(self, field, kept)
        key = (self.nrows, self.ncols)
        if kept is not None:
            key = ("prefix",) + key

        def counted_at(coords):
            counts[key] = counts.get(key, 0) + 1
            return at(coords)
        return counted_at

    def counted_rank(*args):
        counts["rank"] += 1
        return rank(*args)
    monkeypatch.setattr(Poly, "evaluate", counted_evaluate)
    monkeypatch.setattr(Matrix, "evaluator", counted_evaluator)
    monkeypatch.setattr(complexes, "mat_rank", counted_rank)
    pts = resonance_points(exterior_algebra(PrimeField(5), 4), 1, 1)
    assert pts == {(0, 0, 0, 0)}
    assert counts == {"evaluate": 0, "rank": 2 * 16,
                      (1, 4): 16, (4, 6): 16}


def test_resonance_of_a_1_4_3_algebra_is_57_eliminations(monkeypatch):
    # over F_7, R^1_1 of a (1, 4, 3) algebra is the union of the kernels
    # of the 4 x 4 matrices B_phi, one null space for each of the
    # (7^3 - 1) / 6 = 57 projective phi in (A^2)^*, instead of a rank per
    # torus orbit; the one mat_rank is the route's check that the forms of
    # d_1 have rank 4, and none is taken at a point
    F = finite_field(7)
    A = sample_cga((1, 4, 3), F, "count:0")
    counts = {"null_space": 0, "mat_rank": 0}
    for name in counts:
        def counted(*args, real=getattr(complexes, name), name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(complexes, name, counted)
    pts = resonance_points(A, 1, 1)
    assert counts == {"null_space": 57, "mat_rank": 1}
    monkeypatch.undo()
    E = aomoto_complex(A)
    assert pts == complexes._orbit_jump_points(E, 1, 1, F, False)
    assert len(pts) > 1


@pytest.mark.parametrize("q, g", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                                  (5, 3), (9, 1), (9, 2)])
def test_surface_algebra_resonance_is_the_closed_form(q, g):
    F = finite_field(q)
    A = surface_algebra(F, g)
    for d in range(2 * g + 2):
        pts = resonance_points(A, 1, d)
        if d <= 2 * g - 2:
            assert isinstance(pts, Space) and pts == Space(F, 2 * g, False)
        else:
            assert pts == ({(F.zero,) * (2 * g)} if d <= 2 * g else set())


_GRAPHS = {
    # trees, with b_2 = b_1 - 1: e = b_2 - b_1 + 1 + 1 = 1
    "P3": (3, [(0, 1), (1, 2)], "_kernel_jump_points"),
    "P4": (4, [(0, 1), (1, 2), (2, 3)], "_kernel_jump_points"),
    # e = 2 for the 4-cycle, and K_4 gives the exterior algebra, e = 4
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)], "_orbit_jump_points"),
    "K4": (4, list(itertools.combinations(range(4), 2)),
           "_orbit_jump_points"),
}


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
@pytest.mark.parametrize("graph", sorted(_GRAPHS))
def test_graph_algebra_resonance_is_the_closed_form(graph, q, monkeypatch):
    # R^1_1 of the cohomology of a right-angled Artin group is the union
    # of the coordinate subspaces of its disconnected vertex sets, over
    # F_3, F_5, F_7 and the extension fields F_4 and F_9; the paths take
    # the kernel route, the 4-cycle and K_4 the orbit route
    n, edges, route = _GRAPHS[graph]
    F = finite_field(q)
    A = graph_algebra(F, n, edges)
    assert validate_cga(A).ok
    answered = []

    def spied(entry):
        def run(*args):
            out = entry(*args)
            if out is not None:
                answered.append(entry.__name__)
            return out
        return run
    monkeypatch.setattr(complexes, "ROUTES",
                        tuple(map(spied, complexes.ROUTES)))
    assert resonance_points(A, 1, 1) == graph_resonance(F, n, edges)
    assert answered == [route]
    if graph == "P4" and q == 7:
        assert len(graph_resonance(F, n, edges)) == 637


def test_the_graph_algebra_of_k4_is_the_exterior_algebra():
    F = finite_field(5)
    K4 = graph_algebra(F, 4, _GRAPHS["K4"][1])
    assert (K4.dims, K4.mult) == (exterior_algebra(F, 4).dims,
                                  exterior_algebra(F, 4).mult)
