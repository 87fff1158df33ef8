import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from jumploci import complexes, smith
from jumploci.cga import aomoto_complex, exterior_algebra, sample_cga
from jumploci.complexes import (FIBER_MIN_Q, FinVerdict, FreeChainComplex,
                                ModulePresentation, PresentedChainComplex,
                                fitting_ideal, homology_dim_at,
                                homology_dims_table,
                                homology_presentation, is_finite_dimensional,
                                jump_locus_ideal, jump_locus_points,
                                prune_presentation, support_points,
                                validate_complex, validate_presented)
from jumploci.corpus import (random_bivariate_complex, random_free_complex,
                             random_laurent_complex)
from jumploci.equivariant import (FinAbGroup, NuData, build_E1, identity_nu,
                                  pulled_back_aomoto_complex)
from jumploci.errors import PreconditionError
from jumploci.fields import (PrimeField, Rationals, embedding, extension_of,
                             finite_field)
from jumploci.groebner import ModuleSolver
from jumploci.matrices import Matrix
from jumploci.rings import (Ideal, Poly, Ring, parse_poly, poly_to_str,
                            unit_ideal, zero_ideal)
from jumploci.smith import _dense_divisors, divisors_at_heads
from jumploci.varieties import (enumerate_coords, extension_fields, on_torus,
                                zero_locus_points)

from oracles import (add_acyclic_summand, rank_by_minors,
                     reference_smith_form, udivmod as poly_udivmod, umin)

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def koszul_complex(field):
    """0 -> S -> S^2 -> S -> 0 over S = k[x, y]: d1 = (x, y),
    d2 = (-y, x)^T."""
    R = Ring(field, ("x", "y"))
    x, y = R.var(0), R.var(1)
    d1 = Matrix(R, 1, 2, [[x, y]])
    d2 = Matrix(R, 2, 1, [[-y], [x]])
    return FreeChainComplex(R, (1, 2, 1), (d1, d2))


def times_x_complex(field):
    R = Ring(field, ("x",))
    return FreeChainComplex(R, (1, 1), (Matrix(R, 1, 1, [[R.var(0)]]),))


def times_poly_laurent(field, text):
    R = Ring(field, ("t",), laurent=True)
    return FreeChainComplex(R, (1, 1),
                            (Matrix(R, 1, 1, [[parse_poly(R, text)]]),))


def dims_at(E, field, coords):
    """[dim H_0, ..., dim H_n] of E at one point, read degree by degree."""
    return [homology_dim_at(E, j, field)(coords) for j in range(E.top + 1)]


def augmentation_complex(field):
    """Example with a non-free degree-0 term: S -> S/(x) over S = k[x]."""
    R = Ring(field, ("x",))
    e0 = ModulePresentation(R, 1, Matrix(R, 1, 1, [[R.var(0)]]))
    e1 = ModulePresentation(R, 1, Matrix(R, 1, 0, [[]]))
    return PresentedChainComplex(R, (e0, e1), (Matrix(R, 1, 1, [[R.one()]]),))


# -- validation ---------------------------------------------------------------


def test_validate_koszul():
    assert validate_complex(koszul_complex(Q)).ok


def test_validate_detects_bad_sign():
    R = Ring(Q, ("x", "y"))
    x, y = R.var(0), R.var(1)
    d1 = Matrix(R, 1, 2, [[x, y]])
    d2_bad = Matrix(R, 2, 1, [[y], [x]])
    E = FreeChainComplex(R, (1, 2, 1), (d1, d2_bad))
    v = validate_complex(E)
    assert not v.ok
    assert v.location == (1, 0, 0)
    assert "2*x*y" in v.message


def test_presented_complex_checks_rings():
    R5, R3 = Ring(F5, ("x",)), Ring(F3, ("x",))

    def free_term(R):
        return ModulePresentation(R, 1, Matrix.zero(R, 1, 0))

    with pytest.raises(PreconditionError, match="differential over a different ring"):
        PresentedChainComplex(R5, (free_term(R5), free_term(R5)),
                              (Matrix(R3, 1, 1, [[R3.var(0)]]),))
    with pytest.raises(PreconditionError, match="term 1 over a different ring"):
        PresentedChainComplex(R5, (free_term(R5), free_term(R3)),
                              (Matrix(R5, 1, 1, [[R5.var(0)]]),))


def test_validate_single_differential():
    assert validate_complex(times_x_complex(Q)).ok


def test_validate_presented_augmentation():
    assert validate_presented(augmentation_complex(F5)).ok


def test_validate_presented_multivariate_pointwise():
    # a presented complex over k[x, y]: quotient by (x) in degree zero,
    # the inclusion-of-multiples map x: S -> S/(x) is zero on relations;
    # it is sampled at the points of its ring's field, so Q[x, y] is refused
    def complex_over(field):
        R = Ring(field, ("x", "y"))
        x = R.var(0)
        e0 = ModulePresentation(R, 1, Matrix(R, 1, 1, [[x]]))
        e1 = ModulePresentation(R, 1, Matrix(R, 1, 0, [[]]))
        return PresentedChainComplex(R, (e0, e1), (Matrix(R, 1, 1, [[x]]),))
    assert validate_presented(complex_over(F3)).ok
    with pytest.raises(PreconditionError, match="supply a finite sample field"):
        validate_presented(complex_over(Q))


def _quotient_then_two_free_terms(ring, d_2):
    """E_0 = S/(v), v the first variable, then free E_1 and E_2 of rank 1,
    with d_1 = [1] and d_2 = [d_2]: d_1 d_2 = d_2 vanishes in E_0 exactly
    when d_2 lies in (v)."""
    v = ring.var(0)
    e0 = ModulePresentation(ring, 1, Matrix(ring, 1, 1, [[v]]))
    free = ModulePresentation(ring, 1, Matrix(ring, 1, 0, [[]]))
    return PresentedChainComplex(
        ring, (e0, free, free),
        (Matrix(ring, 1, 1, [[ring.one()]]), Matrix(ring, 1, 1, [[d_2(v)]])))


def test_validate_presented_composite_modulo_relations():
    # d_1 . d_2 = [1] is not in (v): refused by exact membership over a
    # univariate ring, and at the first sampled point over k[x, y]
    R = Ring(F3, ("t",))
    verdict = validate_presented(
        _quotient_then_two_free_terms(R, lambda v: R.one()))
    assert not verdict.ok
    assert verdict.message == ("d_1 . d_2 nonzero modulo relations at "
                               "generator 0")
    assert verdict.location == (2, 0)
    R2 = Ring(F3, ("x", "y"))
    verdict = validate_presented(
        _quotient_then_two_free_terms(R2, lambda v: R2.one()))
    assert not verdict.ok
    assert verdict.message == ("d_1 . d_2 nonzero modulo relations at point "
                               "(0, 0)")
    assert verdict.location == (2,)
    # d_2 = [v] lands in the relations; over F_3[t^±1] t is a unit, so (t)
    # is the whole ring and d_2 = [1] lands there too
    assert validate_presented(_quotient_then_two_free_terms(R, lambda v: v)).ok
    assert validate_presented(
        _quotient_then_two_free_terms(R2, lambda v: v)).ok
    L = Ring(F3, ("t",), laurent=True)
    assert validate_presented(
        _quotient_then_two_free_terms(L, lambda v: L.one())).ok


def test_validate_presented_relation_outside_the_relations():
    # E_0 = S/(t^2), E_1 = S/(t), d_1 = [1]: the relation t of E_1 lands
    # outside (t^2)
    R = Ring(F3, ("t",))
    t = R.var(0)
    e0 = ModulePresentation(R, 1, Matrix(R, 1, 1, [[t * t]]))
    e1 = ModulePresentation(R, 1, Matrix(R, 1, 1, [[t]]))
    verdict = validate_presented(
        PresentedChainComplex(R, (e0, e1), (Matrix(R, 1, 1, [[R.one()]]),)))
    assert not verdict.ok
    assert verdict.message == "d_1 sends relation 0 outside the relations"
    assert verdict.location == (1, 0)


def test_validate_presented_reports_the_first_failing_point():
    # over F_3[x, y], E = S/(x) <- S/(x) <- S/(y) with d_1 = d_2 = [1]: in
    # degree 2 the composite [1] leaves (x) first at (0, 0) and the relation
    # y of E_2 leaves (x) first at (0, 1), so the point order decides
    R = Ring(F3, ("x", "y"))
    x, y = R.var(0), R.var(1)

    def term(p):
        return ModulePresentation(R, 1, Matrix(R, 1, 1, [[p]]))
    one = Matrix(R, 1, 1, [[R.one()]])
    E = PresentedChainComplex(R, (term(x), term(x), term(y)), (one, one))
    assert validate_presented(E) == complexes.Verdict(
        False, "d_1 . d_2 nonzero modulo relations at point (0, 0)", (2,))


def test_validate_presented_reports_the_relation_condition_first():
    # over F_3[t], E = S/(t) <- S/(t) <- S/(1) with d_1 = d_2 = [1]: in
    # degree 2 both the relation 1 of E_2 and the composite [1] leave (t)
    R = Ring(F3, ("t",))
    t = R.var(0)

    def term(p):
        return ModulePresentation(R, 1, Matrix(R, 1, 1, [[p]]))
    one = Matrix(R, 1, 1, [[R.one()]])
    E = PresentedChainComplex(R, (term(t), term(t), term(R.one())),
                              (one, one))
    assert validate_presented(E) == complexes.Verdict(
        False, "d_2 sends relation 0 outside the relations", (2, 0))


def test_presentation_refuses_a_relation_outside_the_kernel():
    # E_0 = S/(t^2), E_1 = S/(t), d_1 = [1] over F_3[t]: ker d_1 is (t^2),
    # which does not hold the relation t of E_1
    R = Ring(F3, ("t",))
    t = R.var(0)
    e0 = ModulePresentation(R, 1, Matrix(R, 1, 1, [[t * t]]))
    e1 = ModulePresentation(R, 1, Matrix(R, 1, 1, [[t]]))
    E = PresentedChainComplex(R, (e0, e1), (Matrix(R, 1, 1, [[R.one()]]),))
    with pytest.raises(PreconditionError) as info:
        homology_presentation(E, 1)
    assert str(info.value) == (
        "relation column 0 of term 1 is not carried by ker d_1; the "
        "presented complex is inconsistent")


@pytest.mark.parametrize("field", [F5, Q], ids=["F5", "Q"])
def test_validate_presented_over_a_ring_in_no_variables(field):
    # presented vector spaces: span membership is a rank comparison at ()
    R = Ring(field, ())

    def matrix(rows):
        return Matrix(R, len(rows), len(rows[0]),
                      [[R.monomial((), field.from_int(c)) if c else R.zero()
                        for c in row] for row in rows])

    def term(relations):
        return ModulePresentation(R, len(relations), matrix(relations))

    e0 = term([[1], [2]])  # k^2 / span (1, 2)
    free = term([[]])
    # d_1 sends the relation of k / span (1) to (1, 2), d_1 d_2 = (3, 6)
    valid = PresentedChainComplex(R, (e0, term([[1]]), free),
                                  (matrix([[1], [2]]), matrix([[3]])))
    assert validate_presented(valid).ok
    # relation 0 of k^2 / span (e_1, e_2) goes to (1, 2), relation 1 to
    # (0, 1), outside span (1, 2)
    moved = PresentedChainComplex(R, (e0, term([[1, 0], [0, 1]])),
                                  (matrix([[1, 0], [2, 1]]),))
    verdict = validate_presented(moved)
    assert not verdict.ok
    assert verdict.message == "d_1 sends relation 1 outside the relations"
    assert verdict.location == (1, 1)
    # d_1 d_2 = [[0, 1], [0, 0]]: generator 0 goes to zero, generator 1 to
    # (1, 0), outside span (1, 2)
    composite = PresentedChainComplex(
        R, (e0, free, term([[], []])),
        (matrix([[1], [0]]), matrix([[0, 1]])))
    verdict = validate_presented(composite)
    assert not verdict.ok
    assert verdict.message == ("d_1 . d_2 nonzero modulo relations at "
                               "generator 1")
    assert verdict.location == (2, 1)


_SPAN_RINGS = [Ring(F5, ("t",)), Ring(F5, ("t",), laurent=True),
               Ring(Q, ("t",)), Ring(Q, ("t",), laurent=True)]


def _in_span_by_oracle(R, c):
    """Whether c lies in the column span of R, solved through the oracle's
    U R V = D: U c must be zero past the divisors of D, and each entry
    before them divisible by its divisor."""
    U, _, _, _, divisors = reference_smith_form(R)
    ring = R.ring
    y = (U * Matrix(ring, len(c), 1, [[p] for p in c])).col(0)
    for i, p in enumerate(y):
        if p.is_zero():
            continue
        if i >= len(divisors):
            return False
        # a Laurent entry is first moved onto k[t] by a unit
        p = p.shift((-umin(p),)) if ring.laurent else p
        if not poly_udivmod(p, divisors[i])[1].is_zero():
            return False
    return True


@st.composite
def _span_inputs(draw):
    """(R, M) over one of _SPAN_RINGS: R of at most 3 x 3, and each column
    of M either R times a drawn vector, a drawn column, or zero."""
    ring = draw(st.sampled_from(_SPAN_RINGS))
    if ring.field.is_finite:
        coeff = st.integers(1, 4)
    else:
        coeff = st.fractions(-3, 3, max_denominator=3).filter(bool)
    exponent = st.integers(-1 if ring.laurent else 0, 2)

    def entries(count, nonzero=False):
        terms = st.dictionaries(exponent, coeff, min_size=int(nonzero),
                                max_size=2)
        return [Poly(ring, {(e,): c for e, c in draw(terms).items()})
                for _ in range(count)]
    m, n = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    R = Matrix(ring, m, n, [entries(n) for _ in range(m)])
    cols = []
    for kind in draw(st.lists(st.sampled_from(["member", "drawn", "zero"]),
                              min_size=1, max_size=3)):
        if kind == "member":
            v = Matrix(ring, n, 1, [[p] for p in entries(n, True)])
            cols.append((R * v).col(0))
        else:
            cols.append(entries(m, True) if kind == "drawn"
                        else [ring.zero()] * m)
    return R, Matrix(ring, m, len(cols), [list(r) for r in zip(*cols)])


def _span_case(ring, R_rows, M_rows):
    """(R, M) from rows of polynomial strings."""
    return tuple(Matrix(ring, len(rows), len(rows[0]),
                        [[parse_poly(ring, e) for e in row] for row in rows])
                 for rows in (R_rows, M_rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_span_inputs())
# A = [[t, 0], [0, 0]]: a zero column, then [t, 0] = A [1, 0] inside and
# [0, 1], which meets the zero divisor, outside
@example(_span_case(Ring(F3, ("t",)), [["t", "0"], ["0", "0"]],
                    [["0", "t", "0"], ["0", "0", "1"]]))
# R with no columns: only the zero column lies in its span
@example(_span_case(_SPAN_RINGS[0], [[], []], [["0", "1"], ["0", "t"]]))
# t is a unit of F_5[t^±1] but not of F_5[t]
@example(_span_case(_SPAN_RINGS[1], [["t"]], [["1"]]))
@example(_span_case(_SPAN_RINGS[0], [["t"]], [["t^2", "1"]]))
def test_membership_by_invariants_agrees_with_a_solve(case):
    R, M = case
    ring = R.ring
    inside = [_in_span_by_oracle(R, M.col(j)) for j in range(M.ncols)]
    if not ring.laurent:
        solver = ModuleSolver(R)
        assert inside == [solver.solve(M.col(j)) is not None
                          for j in range(M.ncols)]
    assert [complexes._first_outside(R, Matrix(ring, M.nrows, 1,
                                                [[p] for p in M.col(j)]))
            is None for j in range(M.ncols)] == inside
    assert complexes._first_outside(R, M) == next(
        (j for j, ok in enumerate(inside) if not ok), None)


# -- specialization -------------------------------------------------------------


def test_specialize_unit_point():
    E = times_x_complex(F5)
    assert dims_at(E, F5, (2,)) == [0, 0]


def test_specialize_zero_point():
    E = times_x_complex(F5)
    assert dims_at(E, F5, (0,)) == [1, 1]


def test_specialize_koszul_at_unit_against_rank_oracle():
    E = koszul_complex(F3)
    pt = (1, 1)
    # oracle: direct rank computation of the two evaluated integer matrices
    d1 = [[1, 1]]
    d2 = [[-1], [1]]
    r1 = rank_by_minors(d1, 3)
    r2 = rank_by_minors(d2, 3)
    expected = [1 - r1, 2 - r1 - r2, 1 - r2]
    assert dims_at(E, F3, pt) == expected == [0, 0, 0]


def test_homology_dims_torus_koszul_origin():
    # all differentials evaluate to zero, so dims equal the ranks
    E = koszul_complex(F3)
    assert dims_at(E, F3, (0, 0)) == [1, 2, 1]


def test_homology_dims_times_x():
    E = times_x_complex(F5)
    assert dims_at(E, F5, (0,)) == [1, 1]
    assert dims_at(E, F5, (3,)) == [0, 0]


# -- jump locus ideals -----------------------------------------------------------


def test_jump_ideal_times_x():
    E = times_x_complex(F5)
    I = jump_locus_ideal(E, 1, 1)
    assert I == Ideal(E.ring, [E.ring.var(0)])
    pts = zero_locus_points(I, F5)
    assert pts == {(0,)}
    # oracle: pointwise dims over all of F_5
    expected = {c for c in range(5)
                if dims_at(E, F5, (c,))[1] >= 1}
    assert {p[0] for p in pts} == expected


def test_jump_ideal_rank_zero_term():
    R = Ring(F5, ("x",))
    E = FreeChainComplex(R, (0, 1), (Matrix(R, 0, 1, [[]][0:0]),))
    I = jump_locus_ideal(E, 0, 1)
    assert I == unit_ideal(R)


def test_jump_ideal_d_zero_is_whole_space():
    E = times_x_complex(F5)
    I = jump_locus_ideal(E, 0, 0)
    assert I == zero_ideal(E.ring)


def test_jump_ideal_refuses_presented():
    E = augmentation_complex(F5)
    with pytest.raises(PreconditionError) as err:
        jump_locus_ideal(E, 1, 1)
    assert "free" in str(err.value)


# -- pointwise jump loci ----------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 7])
def test_augmentation_jump_points(q):
    F = finite_field(q)
    E = augmentation_complex(F)
    pts = jump_locus_points(E, 1, 1, F)
    assert {p[0] for p in pts} == set(range(1, q))


def test_koszul_jump_points_exhaustive_oracle():
    E = koszul_complex(F3)
    pts = jump_locus_points(E, 1, 1, F3)
    # oracle: exhaustive dims at all 9 points, every degree
    expected = {(a, b) for a in range(3) for b in range(3)
                if dims_at(E, F3, (a, b))[1] >= 1}
    assert pts == expected == {(0, 0)}


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_jump_points_stream_instead_of_tabulating():
    # the locus is one point of the 101^2; the streamed route keeps only
    # that point, the oracle table keeps all of them
    F = finite_field(101)
    E = koszul_complex(F)
    streamed = _peak_bytes(lambda: jump_locus_points(E, 1, 1, F))
    tabulated = _peak_bytes(lambda: homology_dims_table(E, F))
    assert streamed * 20 < tabulated, (streamed, tabulated)


def test_jump_locus_result_invariant():
    # every enumerated point lies on the minor ideal's zero set, and a
    # point off the locus is not on it
    E = times_x_complex(F5)
    locus = zero_locus_points(jump_locus_ideal(E, 1, 1), F5)
    assert jump_locus_points(E, 1, 1, F5) <= locus
    assert (2,) not in locus


def test_jump_points_d_zero_everything():
    E = koszul_complex(F3)
    pts = jump_locus_points(E, 1, 0, F3)
    assert len(pts) == 9


def test_negative_degree_empty():
    E = koszul_complex(F3)
    assert jump_locus_points(E, -1, 1, F3) == set()
    assert jump_locus_ideal(E, -1, 1) == unit_ideal(E.ring)
    assert jump_locus_ideal(E, -1, 0) == zero_ideal(E.ring)


def test_negative_depth_is_refused():
    E = koszul_complex(F3)
    for locus in (lambda: jump_locus_points(E, 1, -1, F3),
                  lambda: jump_locus_ideal(E, 1, -1),
                  lambda: support_points(E, 1, -1, F3)):
        with pytest.raises(PreconditionError, match="d must be non-negative"):
            locus()


# -- the fibered route, against the brute-force table ---------------------------


def _table_locus(table, i, d):
    """The jump locus read off homology_dims_table, the brute-force oracle."""
    return {c for c, dims in table.items()
            if (dims[i] if 0 <= i < len(dims) else 0) >= d}


def _assert_fibered_matches_table(E, field, torus=False):
    # so jump_locus_points goes fibered, or by orbits with fibered strata
    assert field.order >= FIBER_MIN_Q
    _assert_locus_matches_table(E, field, torus)


def _assert_locus_matches_table(E, field, torus=False):
    table = homology_dims_table(E, field, torus=torus)
    for i in range(-1, E.top + 2):
        for d in range(4):
            got = jump_locus_points(E, i, d, field, torus=torus)
            assert got == _table_locus(table, i, d), (E, i, d, field)


def _laurent_twist(E, seed):
    """E over the Laurent ring in E's variables, with every basis vector of
    every term scaled by a random unit monomial: d_k[r][c] picks up
    t^(a_c - a_r), so d.d = 0 still holds and negative exponents appear."""
    rng = random.Random("twist:%s" % (seed,))
    R = Ring(E.ring.field, E.ring.variables, laurent=True)
    shifts = [[tuple(rng.randint(-1, 1) for _ in R.variables)
               for _ in range(c)] for c in E.ranks]
    diffs = []
    for k, d in enumerate(E.differentials, start=1):
        grid = [[Poly(R, d[r, c].terms).shift(
                    tuple(b - a for a, b in zip(shifts[k - 1][r], shifts[k][c])))
                 for c in range(d.ncols)] for r in range(d.nrows)]
        diffs.append(Matrix(R, d.nrows, d.ncols, grid))
    return FreeChainComplex(R, E.ranks, diffs)


def test_fibered_route_bivariate_corpus_f17():
    F = finite_field(17)
    for seed in range(100):
        _assert_fibered_matches_table(random_bivariate_complex(F, seed), F)


def test_fibered_route_through_extension_embeddings():
    # F_5 -> F_25, whose encoding is unchanged, and F_4 -> F_16 from
    # extension_fields, which maps u through fields.embedding's table
    f25 = extension_of(F5, 2)
    f4 = finite_field(4)
    (_, f16), = [x for x in extension_fields(f4, 2) if x[0] == 2]
    assert embedding(F5, f25) is None and embedding(f4, f16) is not None
    for seed in range(12):
        _assert_fibered_matches_table(random_bivariate_complex(F5, seed), f25)
        _assert_fibered_matches_table(random_bivariate_complex(f4, seed), f16)


@pytest.mark.parametrize("q", [16, 17])
def test_fibered_route_laurent_corpora(q):
    F = finite_field(q)
    for seed in range(25):
        E = random_laurent_complex(F, seed)
        _assert_fibered_matches_table(E, F, torus=True)
    for seed in range(12):
        E = _laurent_twist(random_bivariate_complex(F, seed), seed)
        assert validate_complex(E).ok
        _assert_fibered_matches_table(E, F, torus=True)


def test_fibered_route_ordinary_ring_on_the_torus():
    F = finite_field(16)
    _assert_fibered_matches_table(koszul_complex(F), F, torus=True)
    for seed in range(12):
        _assert_fibered_matches_table(random_bivariate_complex(F, seed), F,
                                      torus=True)


def _count_divisor_calls(monkeypatch):
    calls = []
    real = complexes._dense_divisors

    def counted(ring, rows, ncols):
        calls.append(rows)
        return real(ring, rows, ncols)
    monkeypatch.setattr(complexes, "_dense_divisors", counted)
    return calls


def _spy(monkeypatch, name):
    """The list of the first arguments of every call to complexes.<name>."""
    taken = []
    real = getattr(complexes, name)

    def spied(*args):
        taken.append(args[0])
        return real(*args)
    monkeypatch.setattr(complexes, name, spied)
    return taken


def _answering_routes(monkeypatch):
    """The list of the names of the entries of complexes.ROUTES that
    answer, one per jump_locus_points call that reaches the table: every
    entry is wrapped, and one that declines is not listed."""
    answered = []

    def spied(route):
        def wrapped(*args):
            out = route(*args)
            if out is not None:
                answered.append(route.__name__)
            return out
        return wrapped
    monkeypatch.setattr(complexes, "ROUTES",
                        tuple(map(spied, complexes.ROUTES)))
    return answered


def test_route_is_fixed_by_the_field_order(monkeypatch):
    answered = _answering_routes(monkeypatch)
    for q in (13, 16):
        F = finite_field(q)
        E = random_bivariate_complex(F, 3)
        del answered[:]
        pts = jump_locus_points(E, 1, 1, F)
        assert pts == _table_locus(homology_dims_table(E, F), 1, 1)
        assert answered == ["_fibered_jump_points" if q >= FIBER_MIN_Q
                            else "_pointwise_jump_points"], q
    # presented complexes stay pointwise at any order
    del answered[:]
    augmentation = augmentation_complex(finite_field(17))
    assert len(jump_locus_points(augmentation, 1, 1, finite_field(17))) == 16
    assert answered == ["_pointwise_jump_points"]


def test_fibered_koszul_over_f729_counts(monkeypatch):
    # the Koszul complex of x + 1, y + 1, which no weight grades: one
    # Smith form per exceptional head at most
    calls = _count_divisor_calls(monkeypatch)
    F = finite_field(729)
    R = Ring(F3, ("x", "y"))
    x, y = parse_poly(R, "x + 1"), parse_poly(R, "y + 1")
    E = FreeChainComplex(R, (1, 2, 1), (Matrix(R, 1, 2, [[x, y]]),
                                        Matrix(R, 2, 1, [[-y], [x]])))
    assert complexes._strata(E, 1) is None
    assert jump_locus_points(E, 1, 1, F) == {(F.neg(F.one), F.neg(F.one))}
    assert 0 < len(calls) <= 2 * 729


def test_fibered_route_builds_no_matrix_or_poly_per_head(monkeypatch):
    # d_1 and d_2 go from their plans to the Smith worker as term dicts:
    # one elimination over F_16(x) each, read off at every head, and a
    # Smith form over F_16[y] at each exceptional head only; no Matrix or
    # Poly is built
    F = finite_field(16)
    cases = [(random_bivariate_complex(F, seed), exceptional)
             for seed, exceptional in (
                 (18, 1 + 2),     # d_1 and d_2 have 1 and 2 exceptional heads
                 (3, 16 + 0))]    # d_1 swells over F_16(x): each head is one
    wants = [_table_locus(homology_dims_table(E, F), 1, 1) for E, _ in cases]
    calls = _count_divisor_calls(monkeypatch)
    built = []
    for cls in (Matrix, Poly):
        def counted(self, *args, _init=cls.__init__):
            built.append(type(self).__name__)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    for (E, exceptional), want in zip(cases, wants):
        del calls[:]
        assert jump_locus_points(E, 1, 1, F) == want
        assert len(calls) == exceptional
    assert built == []


# -- one elimination over F(x)[y], read off at every head ------------------------


def _divisors_at_every_head(M, F, torus):
    """(the fiber, divisors_at_heads on it, _dense_divisors at each head)
    for M over F[x, y] or F[x^±1, y^±1]."""
    ring = M.ring
    line = Ring(F, ring.variables[-1:], laurent=ring.laurent)
    plane = Ring(F, ring.variables, laurent=ring.laurent)
    fiber = [b for (b,) in enumerate_coords(F, 1, on_torus(ring, torus))]
    shared = divisors_at_heads(F, M.evaluator(F, plane)(()), M.ncols,
                               ring.laurent, fiber)
    at = M.evaluator(F, line)
    return fiber, shared, [_dense_divisors(line, at((h,)), M.ncols)
                           for h in fiber]


_F25 = extension_of(F5, 2)


@st.composite
def _plane_matrices(draw):
    """(a differential of a random bivariate complex, possibly Laurent
    twisted, the field F_q it is read over, torus) for q = 16, 17, 27,
    101, and F_5 read over F_25."""
    q = draw(st.sampled_from([16, 17, 27, 101, 25]))
    F = F5 if q == 25 else finite_field(q)
    seed = draw(st.integers(0, 199))
    E = random_bivariate_complex(F, seed)
    if draw(st.booleans()):
        E = _laurent_twist(E, seed)
    M = E.differential(draw(st.integers(1, len(E.differentials))))
    return M, (_F25 if q == 25 else F), draw(st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_plane_matrices())
def test_shared_elimination_equals_each_heads_smith_form(case):
    M, F, torus = case
    _, shared, own = _divisors_at_every_head(M, F, torus)
    assert len(shared) == len(own)
    for chain, want in zip(shared, own):
        assert chain is None or chain == want


def test_a_head_where_an_inverted_pivot_vanishes_is_exceptional():
    # [[x, y]]: over F(x) the pivot x is a unit, so the one divisor is 1,
    # but at x = 0 the matrix is [[0, y]] with divisor y
    for F in (finite_field(16), finite_field(17)):
        R = Ring(F, ("x", "y"))
        M = Matrix(R, 1, 2, [[parse_poly(R, "x"), parse_poly(R, "y")]])
        fiber, shared, own = _divisors_at_every_head(M, F, False)
        assert fiber[0] == F.zero and shared[0] is None
        assert own[0] == [[F.zero, F.one]]
        assert shared[1:] == own[1:] == [[[F.one]]] * (F.order - 1)


def test_a_swelling_elimination_falls_back_to_every_head():
    # d_1 of random_bivariate_complex(F_16, 3), a 3 x 2 matrix of degree
    # <= 3: over F_16(x) a num or den passes x-degree floor(sqrt(16)) = 4
    F = finite_field(16)
    M = random_bivariate_complex(F, 3).differential(1)
    K = smith.RationalFunctions(F)
    rows = M.evaluator(F, M.ring)(())
    with pytest.raises(smith._Swell):
        smith._diagonalize(K, False, [[K.of_terms(t) for t in row]
                                      for row in rows], M.ncols, False)
    _, shared, _ = _divisors_at_every_head(M, F, False)
    assert shared == [None] * 16


def test_the_shared_elimination_serves_most_heads():
    # exceptional heads are few: on 40 bivariate complexes over F_101, 8080
    # heads of d_1 and d_2, fewer than 2 % fall back
    F = finite_field(101)
    served = total = 0
    for seed in range(40):
        E = random_bivariate_complex(F, seed)
        for M in E.differentials[:2]:
            _, shared, own = _divisors_at_every_head(M, F, False)
            assert all(c is None or c == w for c, w in zip(shared, own))
            served += sum(c is not None for c in shared)
            total += len(shared)
    assert total - served < total // 50, (served, total)


@pytest.mark.parametrize("q", [16, 17])
def test_fibered_route_reads_every_outer_head(q, monkeypatch):
    # three variables: one elimination over F(y)[z] per outer head x, on
    # F^3, on the torus, and over the Laurent ring, for the first four
    # complexes of the corpus that some degree leaves ungraded; the graded
    # ones among seeds 0-9 go by orbits, with fibered strata, and are
    # checked on the same three inputs
    shared = _spy(monkeypatch, "divisors_at_heads")
    F = finite_field(q)
    R = Ring(F, ("x", "y", "z"))
    corpus = [random_free_complex(R, "trivariate:%d" % seed, max_len=2,
                                  max_rank=3) for seed in range(40)]
    graded = [(seed, E) for seed, E in enumerate(corpus[:10]) if _graded(E)]
    ungraded = [(seed, E) for seed, E in enumerate(corpus)
                if not _graded(E)][:4]
    assert len(ungraded) == 4 and graded
    for seed, E in graded + ungraded:
        _assert_fibered_matches_table(E, F)
        _assert_fibered_matches_table(E, F, torus=True)
        _assert_fibered_matches_table(_laurent_twist(E, seed), F, torus=True)
    assert shared


def test_pointwise_homology_evaluates_each_block_once_per_point(monkeypatch):
    # F_5[x] --1--> F_5[x]/(x): dim H_1 = 1 - (rank [1 | x] - rank [x])
    # reads the relations [x] twice per point and evaluates them once
    applied = {}
    evaluator = Matrix.evaluator

    def counted_evaluator(self, *args):
        at = evaluator(self, *args)

        def counted_at(coords):
            applied[repr(self)] = applied.get(repr(self), 0) + 1
            return at(coords)
        return counted_at
    monkeypatch.setattr(Matrix, "evaluator", counted_evaluator)
    dim_at = homology_dim_at(augmentation_complex(F5), 1, F5)
    assert [dim_at((a,)) for a in range(5)] == [0, 1, 1, 1, 1]
    assert applied == {"[1]": 5, "[x]": 5}


# -- the orbit route: one point per torus orbit on each coordinate stratum ----


def _graded(E):
    """Whether d_i and d_{i+1} have a nonzero weight lattice in every
    degree i, so that every jump_locus_points call on E takes the orbit
    route.  A column-graded map (one total degree per column: a cone) is
    graded by w = (1, ..., 1)."""
    return all(complexes._strata(E, i) is not None for i in range(E.top + 1))


def koszul3_complex(field):
    """0 -> S -> S^3 -> S^3 -> S -> 0 over S = k[x, y, z]."""
    R = Ring(field, ("x", "y", "z"))
    x, y, z = (R.var(k) for k in range(3))
    zero = R.zero()
    d1 = Matrix(R, 1, 3, [[x, y, z]])
    d2 = Matrix(R, 3, 3, [[-y, -z, zero], [x, zero, -z], [zero, x, y]])
    d3 = Matrix(R, 3, 1, [[z], [-y], [x]])
    return FreeChainComplex(R, (1, 3, 3, 1), (d1, d2, d3))


@pytest.mark.parametrize("q", [3, 17])
@pytest.mark.parametrize("torus", [False, True])
def test_cone_route_koszul_in_three_variables(q, torus):
    F = finite_field(q)
    E = koszul3_complex(F)
    assert validate_complex(E).ok and _graded(E)
    _assert_locus_matches_table(E, F, torus=torus)


@pytest.mark.parametrize("q", [3, 17])
def test_cone_route_conical_bivariate_corpus(q):
    F = finite_field(q)
    graded = [E for E in (random_bivariate_complex(F, seed)
                          for seed in range(100)) if _graded(E)]
    assert len(graded) >= 20
    for E in graded:
        _assert_locus_matches_table(E, F)


@pytest.mark.parametrize("q", [5, 17])
def test_cone_route_laurent_complexes_on_the_torus(q):
    F = finite_field(q)
    L = Ring(F, ("x", "y"), laurent=True)
    # columns of degree 1: x - y and x^2 y^-1 - y
    handmade = FreeChainComplex(L, (1, 2), (Matrix(L, 1, 2, [[
        parse_poly(L, "x - y"), parse_poly(L, "x^2*y^-1 - y")]]),))
    laurent = [random_laurent_complex(F, seed) for seed in range(40)]
    twisted = [_laurent_twist(random_bivariate_complex(F, seed), seed)
               for seed in range(40)]
    graded = [E for E in [handmade] + laurent + twisted if _graded(E)]
    assert len(graded) >= 15
    for E in graded:
        _assert_locus_matches_table(E, F, torus=True)


@pytest.mark.parametrize("q", [5, 17])
def test_cone_route_columns_of_different_degrees(q):
    F = finite_field(q)
    R = Ring(F, ("x", "y"))
    for rows in ([["x", "y^2"]], [["x", "y^2"], ["y", "x*y"]]):
        M = Matrix(R, len(rows), 2, [[parse_poly(R, e) for e in row]
                                     for row in rows])
        E = FreeChainComplex(R, (len(rows), 2), (M,))
        assert _graded(E)
        _assert_locus_matches_table(E, F)


@pytest.mark.parametrize("q, text, route", [
    (5, "x^2 - x*y", "_orbit_jump_points"),     # graded by w = (1, 1)
    (17, "x^2 - x*y", "_orbit_jump_points"),
    (16, "x*y - x", "_orbit_jump_points"),      # graded by w = (1, 0)
    (16, "x^2 + x*y - x", "_fibered_jump_points"),
    (17, "x^2 + x*y - x", "_fibered_jump_points"),
    (5, "x^2 + x*y - x", None),                 # point by point
])
def test_torus_loci_have_no_zero_coordinate(q, text, route, monkeypatch):
    # a point of the torus, or of a Laurent ring's affine space, has every
    # coordinate a unit; off the torus each of these loci meets x = 0
    answered = _answering_routes(monkeypatch)
    F = finite_field(q)

    def one_map(ring):
        return FreeChainComplex(ring, (1, 1), (Matrix(
            ring, 1, 1, [[parse_poly(ring, text)]]),))
    E = one_map(Ring(F, ("x", "y")))
    L = one_map(Ring(F, ("x", "y"), laurent=True))
    for i in (0, 1):
        whole = jump_locus_points(E, i, 1, F)
        assert any(p[0] == F.zero for p in whole)
        del answered[:]
        torus = jump_locus_points(E, i, 1, F, torus=True)
        assert answered == [route or "_pointwise_jump_points"]
        assert torus and all(F.zero not in p for p in torus)
        assert torus == {p for p in whole if F.zero not in p}
        assert jump_locus_points(L, i, 1, F) == torus


def test_cone_route_is_fixed_by_the_column_degrees(monkeypatch):
    # the orbit route is taken exactly when the weight lattice is
    # nonzero: column degrees give w = (1, 1), and so do row shifts, and a
    # weight may live in one variable; over F_5 any other goes point by
    # point
    answered = _answering_routes(monkeypatch)
    R = Ring(F5, ("x", "y"))

    def one_map(rows):
        return FreeChainComplex(R, (len(rows), len(rows[0])), (Matrix(
            R, len(rows), len(rows[0]),
            [[parse_poly(R, e) for e in row] for row in rows]),))
    for E, graded in ((koszul_complex(F5), True),
                      (one_map([["x", "y^2"]]), True),
                      # graded by w = (1, 1) with row shifts (1, 0)
                      (one_map([["x", "y"], ["1", "1"]]), True),
                      (one_map([["x + 1", "y"]]), True),  # by w = (0, 1)
                      (one_map([["x + 1", "y + 1"]]), False),
                      (one_map([["x^2 + x*y - x"]]), False)):
        table = homology_dims_table(E, F5)
        for i in (0, 1):
            del answered[:]
            got = jump_locus_points(E, i, 1, F5)
            assert got == _table_locus(table, i, 1)
            assert answered == [
                "_kernel_jump_points" if E.ranks == (1, 2, 1) and i == 1
                else "_orbit_jump_points" if graded
                else "_pointwise_jump_points"], (E, i)


def test_a_lattice_with_no_chart_takes_general_coordinates():
    # x^3 - y^2 is graded by w = (2, 3) alone, and neither coordinate of
    # (2, 3) is a unit, so no coordinate can be set to 1: the torus
    # coordinates are x = t^a s^2, y = t^b s^3 with 3a - 2b = +-1
    for q in (5, 7, 16, 17):
        F = finite_field(q)
        R = Ring(F, ("x", "y"))
        E = FreeChainComplex(R, (1, 1), (Matrix(
            R, 1, 1, [[parse_poly(R, "x^3 - y^2")]]),))
        assert complexes._strata(E, 0) is not None
        pcols, kernel = complexes._stratum(E, 0, (0, 1))
        assert [list(map(abs, k)) for k in kernel] == [[2, 3]]
        assert len(pcols) == 1 and abs(3 * pcols[0][0] - 2 * pcols[0][1]) == 1
        small = complexes._stratum_complex(E, 0, (0, 1), pcols)
        assert small.ring.nvars == 1 and small.ring.laurent
        assert complexes._strata(small, 1) is None
        _assert_locus_matches_table(E, F)
        _assert_locus_matches_table(E, F, torus=True)


def _planted_map(draw, R, w, nrows, ncols):
    """A nrows x ncols matrix over R graded by w: random row and column
    shifts a, b, and in entry (j, k) up to two monomials x^e with
    w.e = b_k - a_j."""
    box = range(-2, 3) if R.laurent else range(0, 4)
    shifts = st.integers(-3, 3)
    a = [draw(shifts) for _ in range(nrows)]
    b = [draw(shifts) for _ in range(ncols)]
    by_weight = {}
    for e in itertools.product(box, repeat=R.nvars):
        by_weight.setdefault(sum(x * y for x, y in zip(w, e)), []).append(e)
    coeffs = st.integers(1, R.field.order - 1)
    rows = []
    for j in range(nrows):
        row = []
        for k in range(ncols):
            monomials = by_weight.get(b[k] - a[j], [])
            chosen = draw(st.lists(st.sampled_from(monomials), max_size=2,
                                   unique=True)) if monomials else []
            row.append(Poly(R, {e: draw(coeffs) for e in chosen}))
        rows.append(row)
    return Matrix(R, nrows, ncols, rows)


@st.composite
def _planted_complexes(draw):
    """(E, torus): a complex A (+) B with d_1 = [A | 0], d_2 = [0 ; B] for
    maps A and B graded by one planted nonzero w in Z^r (entries -2..2)
    with shifts of their own, so d_1 d_2 = 0; r = 1..3 over F_4, F_5,
    F_16, F_17, F_27 and F_101 (fewer variables over the larger fields),
    on the plane, on the torus, or over the Laurent ring."""
    q = draw(st.sampled_from([4, 5, 16, 17, 27, 101]))
    F = finite_field(q)
    r = draw(st.integers(1, {4: 3, 5: 3, 16: 2, 17: 2, 27: 2, 101: 1}[q]))
    kind = draw(st.sampled_from(["plane", "torus", "laurent"]))
    R = Ring(F, ("x", "y", "z")[:r], laurent=kind == "laurent")
    w = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any))
    size = st.integers(1, 2)
    c0, c1a, c1b, c2 = (draw(size) for _ in range(4))
    A = _planted_map(draw, R, w, c0, c1a)
    B = _planted_map(draw, R, w, c1b, c2)
    z = R.zero()
    d1 = Matrix(R, c0, c1a + c1b, [list(row) + [z] * c1b for row in A.entries])
    d2 = Matrix(R, c1a + c1b, c2,
                [[z] * c2] * c1a + [list(row) for row in B.entries])
    return FreeChainComplex(R, (c0, c1a + c1b, c2), (d1, d2)), kind != "plane"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_planted_complexes())
def test_orbit_route_on_planted_gradings(case):
    E, torus = case
    assert validate_complex(E).ok and _graded(E)
    _assert_locus_matches_table(E, E.ring.field, torus=torus)


def _brute_force_orbits(E, i, S, field):
    """The number of orbits on the stratum S, a tuple of variable indices,
    of the group generated by g^w, g a generator of F^x, for every w in
    [-3, 3]^S that grades each of d_i and d_{i+1} on the monomials nonzero
    on S: shifts are propagated from each row in turn and checked on every
    monomial, and the orbits are the components of (F^x)^S."""
    ring = E.ring
    off = [v for v in range(ring.nvars) if v not in S]

    def grades(M, w):
        shift = {}
        monomials = [(("r", j), ("c", k), sum(w[a] * e[v]
                                              for a, v in enumerate(S)))
                     for j, row in enumerate(M.entries)
                     for k, p in enumerate(row) for e in p.terms
                     if not any(e[v] for v in off)]
        changed = True
        while changed:
            changed = False
            for u, v, de in monomials:
                if u not in shift and v not in shift:
                    shift[u], changed = 0, True
                if u in shift and v not in shift:
                    shift[v], changed = shift[u] + de, True
                elif v in shift and u not in shift:
                    shift[u], changed = shift[v] - de, True
        return all(shift[v] - shift[u] == de for u, v, de in monomials)
    maps = (E.differential(i), E.differential(i + 1))
    weights = [w for w in itertools.product(range(-3, 4), repeat=len(S))
               if all(grades(M, w) for M in maps)]
    g, pow_, mul = field.primitive(), field.pow, field.mul
    movers = [tuple(pow_(g, c) for c in w) for w in weights]
    seen, orbits = set(), 0
    for x in itertools.product(list(field.units()), repeat=len(S)):
        if x in seen:
            continue
        orbits += 1
        seen.add(x)
        stack = [x]
        while stack:
            y = stack.pop()
            for m in movers:
                z = tuple(map(mul, y, m))
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return orbits


@pytest.mark.parametrize("q", [4, 5, 7, 9])
def test_orbit_route_ranks_one_point_per_orbit(q, monkeypatch):
    # below FIBER_MIN_Q each stratum's complex is ranked at every point of
    # its torus, so the points ranked are the representatives: as many as
    # the orbits a brute-force closure finds, (q - 1)^(|S| - k) on a
    # stratum whose lattice has rank k.  The route is called itself, as
    # H_1 of the Koszul complex of x, y is answered before it
    F = finite_field(q)
    R2, R3 = Ring(F, ("x", "y")), Ring(F, ("x", "y", "z"))

    def one_map(R, rows):
        return FreeChainComplex(R, (len(rows), len(rows[0])), (Matrix(
            R, len(rows), len(rows[0]),
            [[parse_poly(R, e) for e in row] for row in rows]),))

    # the map (x + 1  y) alone has H_1 != 0 everywhere, a locus of the
    # whole plane that the grid of _whole_space gives with no orbit ranked;
    # its Koszul complex has the same lattice and a point for a locus
    def koszul_of(R, f, g):
        f, g = parse_poly(R, f), parse_poly(R, g)
        return FreeChainComplex(R, (1, 2, 1), (Matrix(R, 1, 2, [[f, g]]),
                                               Matrix(R, 2, 1, [[-g], [f]])))
    cases = [koszul_complex(F), koszul3_complex(F),
             one_map(R2, [["x^3 - y^2"]]), one_map(R2, [["x^2 - x*y"]]),
             koszul_of(R2, "x + 1", "y"),
             one_map(R3, [["x*z - y^2", "x*y"], ["y*z", "z^2 - x^2"]]),
             aomoto_complex(exterior_algebra(F, 3))]
    ranked = []
    real = complexes.points_where

    def counted(field, r, torus, test):
        def spied(coords):
            ranked.append(coords)
            return test(coords)
        return real(field, r, torus, spied)
    monkeypatch.setattr(complexes, "points_where", counted)
    for E in cases:
        r = E.ring.nvars
        strata = [S for k in range(r + 1)
                  for S in itertools.combinations(range(r), k)]
        for i in range(E.top + 1):
            del ranked[:]
            got = complexes._orbit_jump_points(E, i, 1, F, False)
            assert got == _table_locus(homology_dims_table(E, F), i, 1)
            want = sum(_brute_force_orbits(E, i, S, F) for S in strata)
            assert len(ranked) == want, (E, i)
            assert want == sum(
                (q - 1) ** (len(S) - len(complexes._stratum(E, i, S)[1]))
                for S in strata)


def test_each_map_is_evaluated_once_per_representative(monkeypatch):
    # F_5[x, y]: d_1 = (x  y), a star with no cycle, and d_2 = (y(x + y),
    # -x(x + y))^T, whose entries of two monomials grade it by (1, 1)
    # alone.  The torus has q - 1 = 4 representatives; on x = 0 and y = 0
    # one monomial of each entry is left, and at the origin none, so each
    # of those strata is one orbit.  `homology_dim_at` evaluates both maps
    # at each of the 7 representatives
    F = finite_field(5)
    R = Ring(F, ("x", "y"))
    d1 = Matrix(R, 1, 2, [[parse_poly(R, "x"), parse_poly(R, "y")]])
    d2 = Matrix(R, 2, 1, [[parse_poly(R, "x*y + y^2")],
                          [parse_poly(R, "-x^2 - x*y")]])
    E = FreeChainComplex(R, (1, 2, 1), (d1, d2))
    assert complexes._strata(E, 1) is not None
    assert [len(complexes._stratum(E, 1, S)[0])
            for S in ((), (0,), (1,), (0, 1))] == [0, 0, 0, 1]
    counts = {}
    evaluator = Matrix.evaluator

    def counted_evaluator(self, *args):
        at = evaluator(self, *args)

        def counted_at(coords):
            key = (self.nrows, self.ncols)
            counts[key] = counts.get(key, 0) + 1
            return at(coords)
        return counted_at
    monkeypatch.setattr(Matrix, "evaluator", counted_evaluator)
    got = jump_locus_points(E, 1, 1, F)
    assert counts == {(1, 2): 7, (2, 1): 7}
    monkeypatch.undo()
    assert got == _table_locus(homology_dims_table(E, F), 1, 1)


@st.composite
def _column_graded_complexes(draw):
    """One-differential complexes whose d_1 has one total degree per
    column, over F_5, F_7 or F_17, ordinary or Laurent."""
    F = PrimeField(draw(st.sampled_from([5, 7, 17])))
    laurent = draw(st.booleans())
    nvars = draw(st.integers(1, 2 if F.order > 7 else 3))
    R = Ring(F, ("x", "y", "z")[:nvars], laurent=laurent)
    nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    low = -2 if laurent else 0
    cols = []
    for _ in range(ncols):
        deg = draw(st.integers(-1 if laurent else 0, 3))
        monomials = [e for e in itertools.product(range(low, 4), repeat=nvars)
                     if sum(e) == deg]
        cols.append([Poly(R, {e: draw(st.integers(1, F.order - 1)) for e in
                              draw(st.lists(st.sampled_from(monomials),
                                            max_size=2, unique=True))})
                     for _ in range(nrows)])
    M = Matrix(R, nrows, ncols, [list(row) for row in zip(*cols)])
    return FreeChainComplex(R, (nrows, ncols), (M,))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_column_graded_complexes())
def test_cone_route_on_random_column_graded_maps(E):
    assert _graded(E)
    _assert_locus_matches_table(E, E.ring.field, torus=E.ring.laurent)


@pytest.mark.parametrize("q, count", [(5, 3), (7, 2), (17, 1)])
def test_cone_route_aomoto_complexes_of_sampled_algebras(q, count):
    # resonance of (1,4,3) algebras; at F_17 the strata go fibered
    F = finite_field(q)
    for seed in range(count):
        E = aomoto_complex(sample_cga((1, 4, 3), F, "cone:%d" % seed))
        assert _graded(E)
        _assert_locus_matches_table(E, F)


@pytest.mark.parametrize("q", [5, 7])
def test_cone_route_exterior_aomoto_complex_and_pages(q):
    # R(exterior(4)), and the E1 pages of exterior(3) and exterior(4) with
    # the identity nu
    F = finite_field(q)
    for E in (aomoto_complex(exterior_algebra(F, 4)),
              build_E1(exterior_algebra(F, 3), identity_nu(3)),
              build_E1(exterior_algebra(F, 4), identity_nu(4))):
        assert _graded(E)
        _assert_locus_matches_table(E, F)


@pytest.mark.parametrize("q", [4, 9, 16])
def test_orbit_route_on_koszul_aomoto_and_page_corpora(q):
    # every degree of the Koszul complexes in 2 and 3 variables, of the
    # Aomoto complexes of exterior(3) and exterior(4), and of the E1 pages
    # of their identity covers, on the plane and on the torus: all are
    # graded by all of Z^r, so each stratum is one orbit
    F = finite_field(q)
    corpus = [koszul_complex(F), koszul3_complex(F)]
    for n in (3, 4):
        corpus += [aomoto_complex(exterior_algebra(F, n)),
                   build_E1(exterior_algebra(F, n), identity_nu(n))]
    for E in corpus:
        if E.ring.nvars == 4 and q > 9:
            continue
        for i in range(E.top + 1):
            assert complexes._strata(E, i) is not None
            full = tuple(range(E.ring.nvars))
            assert complexes._stratum(E, i, full)[0] == []
        _assert_locus_matches_table(E, F)
        _assert_locus_matches_table(E, F, torus=True)


# -- the whole-space grid, before any route -------------------------------------


def _with_free_summand(E, i, a):
    """E (+) (0 -> S^a -> 0) in degree i: d_i gains a zero columns and
    d_{i+1} a zero rows, so dim H_i rises by a at every point, and for
    d <= a the minors of size c_i + a - d + 1 vanish identically."""
    ring, z = E.ring, E.ring.zero()
    ranks = list(E.ranks)
    ranks[i] += a
    diffs = []
    for k, M in enumerate(E.differentials, start=1):
        rows = [list(row) + [z] * (a if k == i else 0) for row in M.entries]
        rows += [[z] * M.ncols for _ in range(a if k == i + 1 else 0)]
        diffs.append(Matrix(ring, ranks[k - 1], ranks[k], rows))
    return FreeChainComplex(ring, ranks, diffs)


def _map_complex(F, rows, laurent=False):
    """The one-map complex of `rows` of polynomial strings in x, y."""
    R = Ring(F, ("x", "y"), laurent=laurent)
    return FreeChainComplex(R, (len(rows), len(rows[0])), (Matrix(
        R, len(rows), len(rows[0]),
        [[parse_poly(R, e) for e in row] for row in rows]),))


def _frobenius_complex(F, j):
    """The 1 x 1 map (x^p - x) y^j over F[x, y], p the characteristic of
    F: x^p - x vanishes at every point of F_p without being zero."""
    return _map_complex(F, [["(x^%d - x) * y^%d" % (F.characteristic, j)]])


def _grid_fits(E, i, d, F, torus):
    """The size rule of the grid, restated: k = c_i - d + 1 >= 1, and
    every side k * s_v + 1 is at most half the pool, s_v the largest
    x_v-exponent of d_i and d_{i+1}, less the least one on the torus."""
    k = E.rank(i) - d + 1
    exps = [e for M in (E.differential(i), E.differential(i + 1))
            for row in M.entries for p in row for e in p.terms]
    pool = F.order - 1 if torus else F.order
    return k >= 1 and all(
        2 * (k * (max(col) - (min(col) if torus else 0)) + 1) <= pool
        for col in zip(*exps or [(0,) * E.ring.nvars]))


_F4 = finite_field(4)
_, _F16 = list(extension_fields(_F4, 2))[1]


_GRID_KINDS = ("bivariate", "laurent", "laurent1", "koszul", "extension",
               "frobenius")


@st.composite
def _whole_space_cases(draw, kinds=_GRID_KINDS):
    """(E, i, d, F, torus), E of one of `kinds`: a random bivariate
    complex over F_q, its Laurent twist, a univariate Laurent complex, a
    Koszul complex, or a complex over F_5 or F_4 read over F_25 or F_16
    through extension_of and extension_fields; the map (x^p - x) y^j; and
    beyond the default kinds, a complex graded by a planted weight or by
    its column degrees in 1 to 3 variables, or a diagonal map over F_p
    whose entries are y - a for 2 or 3 distinct a, or the products of y - a
    over the first 1, 2, 3 of them (a chain of Smith divisors on every line
    x = h), times 1, x or x + 1 (the last leaves it ungraded).  A free
    summand is planted in degree i half of the time, so that depths d <= a
    have the whole space for a locus.  i runs over 0..top and d up to
    c_i + 2."""
    kind = draw(st.sampled_from(kinds))
    seed = draw(st.integers(0, 99))
    F = finite_field(draw(st.sampled_from([7, 11, 16, 17, 23])))
    if kind == "bivariate":
        E = random_bivariate_complex(F, seed)
    elif kind == "laurent":
        E = _laurent_twist(random_bivariate_complex(F, seed), seed)
    elif kind == "laurent1":
        E = random_laurent_complex(F, seed)
    elif kind == "koszul":
        E = draw(st.sampled_from([koszul_complex(F), koszul3_complex(F7)]))
        F = E.ring.field
    elif kind == "extension":
        base, F = draw(st.sampled_from([(F5, _F25), (_F4, _F16)]))
        E = random_bivariate_complex(base, seed)
    elif kind == "frobenius":
        F = finite_field(draw(st.sampled_from([3, 5, 7])))
        E = _frobenius_complex(F, draw(st.integers(0, 2)))
    elif kind == "diagonal":
        F = finite_field(draw(st.sampled_from([7, 17])))
        roots = draw(st.lists(st.integers(0, 3), min_size=2, max_size=3,
                              unique=True))
        nested, twist = draw(st.booleans()), draw(st.sampled_from(
            ["1", "x", "x + 1"]))
        entries = ["(%s) * (%s)" % (" * ".join(
            "(y - %d)" % b for b in (roots[:j + 1] if nested else [a])), twist)
                   for j, a in enumerate(roots)]
        E = _map_complex(F, [[e if j == k else "0" for k in range(len(roots))]
                             for j, e in enumerate(entries)])
    else:
        E = draw(_planted_complexes().map(lambda case: case[0])
                 if kind == "planted" else _column_graded_complexes())
        F = E.ring.field
    i = draw(st.integers(0, E.top))
    a = draw(st.integers(0, 2))
    if a:
        E = _with_free_summand(E, i, a)
    d = draw(st.integers(1, a if a and draw(st.booleans()) else E.rank(i) + 2))
    return E, i, d, F, on_torus(E.ring, draw(st.booleans()))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_whole_space_cases())
@example((_frobenius_complex(PrimeField(5), 1), 0, 1, PrimeField(5), False))
@example((_with_free_summand(koszul_complex(finite_field(17)), 1, 1), 1, 1,
          finite_field(17), False))
@example((_map_complex(PrimeField(7), [["x", "0"], ["0", "x - 1"]]), 1, 1,
          PrimeField(7), False))
@example((_map_complex(PrimeField(7), [["x^-1 - x^-2"]], laurent=True), 0,
          1, PrimeField(7), True))
def test_whole_space_grid_agrees_with_the_table(case):
    # the grid certifies exactly the whole-space loci whose grid fits: it
    # lies inside the space, and by the grid lemma a certified locus has
    # minors that vanish identically, which the minor ideal confirms.  The
    # route runs only for 1 <= d <= c_i, as jump_locus_points answers the
    # other depths itself.  The 2-minor x (x - 1) of diag(x, x - 1)
    # vanishes on x in {0, 1}: its grid needs a side of 3; x^-1 - x^-2 =
    # x^-2 (x - 1) has degree -1 and spread 1 in x.  The locus itself is
    # checked route by route in test_every_route_agrees_with_both_oracles
    E, i, d, F, torus = case
    table = homology_dims_table(E, F, torus)
    whole = all(dims[i] >= d for dims in table.values())
    answer = (complexes._whole_space(E, i, d, F, torus)
              if d <= E.rank(i) else None)
    certified = answer is not None
    assert certified == (whole and _grid_fits(E, i, d, F, torus))
    if certified:
        assert answer == set(table)
        assert all(g.is_zero() for g in jump_locus_ideal(E, i, d).generators)


def test_a_frobenius_entry_is_declined_and_the_route_keeps_every_point():
    # x^p - x vanishes on F_p, so H_0 of (x^p - x) y is 1 at all of F_p^2,
    # but only where x is in F_p or y = 0 over F_{p^2}: a grid side of
    # degree p is more than half of F_p, and the route lists every point
    for p in (3, 5, 7):
        F = PrimeField(p)
        E = _frobenius_complex(F, 1)
        assert complexes._whole_space(E, 0, 1, F, False) is None
        assert jump_locus_points(E, 0, 1, F) == set(
            itertools.product(range(p), repeat=2))
        big = extension_of(F, 2)
        assert len(jump_locus_points(E, 0, 1, big)) == (
            p * p ** 2 + p ** 2 - p)


def test_a_whole_space_locus_takes_no_route(monkeypatch):
    # a free summand in degree 1 of the Koszul complex of x, y over F_17:
    # H_1 >= 1 everywhere.  The grid of k = 3 and linear entries has
    # sides {0..3} and ranks its 3^2 torus points and then the 7 others;
    # no later entry of the table runs, and each would fail the test
    F = finite_field(17)
    E = _with_free_summand(koszul_complex(F), 1, 1)
    whole_space, *later = complexes.ROUTES
    assert whole_space.__name__ == "_whole_space" and later

    def unreachable(*args):
        raise AssertionError("a route after the grid ran")
    monkeypatch.setattr(complexes, "ROUTES",
                        (whole_space,) + (unreachable,) * len(later))
    ranked = []
    rank = complexes.mat_rank

    def counted(field, rows):
        ranked.append(rows)
        return rank(field, rows)
    monkeypatch.setattr(complexes, "mat_rank", counted)
    assert jump_locus_points(E, 1, 1, F) == set(
        itertools.product(range(17), repeat=2))
    assert len(ranked) == 2 * 4 ** 2


def test_a_locus_deeper_than_the_generators_is_empty_with_no_work(
        monkeypatch):
    # dim H_i <= g_i, so depth g_i + 1 is empty in every degree, and
    # jump_locus_points answers before any route: no rank and no Smith
    # form, on a graded complex (which the orbit route would take), on
    # ungraded ones over F_1009 (fibered) and F_7 (point by point), and
    # on a presented complex (point by point)
    F7, F1009 = finite_field(7), finite_field(1009)
    cases = [koszul_complex(F5), random_bivariate_complex(F1009, 3),
             random_bivariate_complex(F7, 3), augmentation_complex(F5)]
    assert _graded(cases[0])
    assert complexes._strata(cases[1], 1) is None
    assert complexes._strata(cases[2], 1) is None
    calls = [_spy(monkeypatch, name) for name in (
        "mat_rank", "mat_rank_stacked", "_dense_divisors",
        "divisors_at_heads")]
    answered = _answering_routes(monkeypatch)
    for E in cases:
        for i in range(-1, E.top + 2):
            assert jump_locus_points(E, i, E.gens(i) + 1,
                                     E.ring.field) == set(), (E, i)
    assert calls == [[]] * 4 and answered == []


def test_an_infinite_field_is_refused_at_every_depth():
    E = koszul_complex(Q)
    for i, d in ((1, 0), (1, 1), (1, 3), (5, 1)):
        with pytest.raises(PreconditionError, match="finite field"):
            jump_locus_points(E, i, d, Q)


# -- every route against both oracles ----------------------------------------------


def _tensor_with_quotient(E, f, top):
    """E (x) S/(f) in degrees 0..top, and E above: term k <= top is
    presented by the relations f times the identity.  d_k carries f E_k
    into f E_{k-1}, and a free term above top has no relations to carry,
    so this is a presented complex."""
    ring, zero = E.ring, E.ring.zero()

    def term(k, c):
        rows = [[f if a == b else zero for b in range(c)] for a in range(c)]
        return ModulePresentation(ring, c, Matrix(ring, c, c, rows)
                                  if k <= top else Matrix.zero(ring, c, 0))
    return PresentedChainComplex(ring, [term(k, c) for k, c in
                                        enumerate(E.ranks)], E.differentials)


_F2 = finite_field(2)
_EXTENSIONS = [(base, extension_of(base, e)) for base, e in
               ((_F2, 2), (_F2, 3), (finite_field(3), 2), (_F4, 2))]


@st.composite
def _aomoto_cases(draw):
    """(E, 1, d, F, torus): the universal Aomoto complex E_A of a
    sampled algebra of shape (1, b, b - k), b <= 4 and k = 1, 2, so that
    depth k has e = c_2 - c_1 + 1 + k = 1, over F_q with q < FIBER_MIN_Q
    in any characteristic, 2 included, or read over F_{q^e} through
    extension_of; or the pullback of E_A along a nu-bar onto Z^r, r = b or
    b - 1, whose block is [I | N] with its columns permuted (so nu-bar^* is
    injective) and to which jump_locus_points gives the algebra's own
    field.  Shapes with q^b above 4096 points are cut to fewer
    generators."""
    kind = draw(st.sampled_from(["prime", "extension", "pullback"]))
    F = draw(st.sampled_from([finite_field(q) for q in
                              (2, 3, 4, 5, 7, 8, 9, 11, 13)]))
    if kind == "extension":
        base, F = draw(st.sampled_from(_EXTENSIONS))
    k = draw(st.integers(1, 2))
    b = draw(st.integers(k, 4))
    while F.order ** b > 4096:
        b -= 1
    A = sample_cga((1, b, b - k), base if kind == "extension" else F,
                   draw(st.integers(0, 99)))
    E = aomoto_complex(A)
    if kind == "pullback":
        r = draw(st.integers(max(b - 1, 1), b))
        rows = [[int(a == c) for c in range(r)] + [
            draw(st.integers(-2, 2)) for _ in range(b - r)] for a in range(r)]
        order = draw(st.permutations(range(b)))
        E = pulled_back_aomoto_complex(A, NuData(
            b, [[row[c] for c in order] for row in rows], (), FinAbGroup(r)))
    return E, 1, draw(st.integers(1, b)), F, draw(st.booleans())


@st.composite
def _route_cases(draw):
    """(E, i, d, F, torus): a case of `_whole_space_cases` of any
    kind, graded or not, and a quarter of the time that complex tensored
    with S/(f) in degrees up to a drawn one, for f one of x, x - 1,
    x z + 1 (z the last variable) and 0: a presented complex; or, a
    quarter of the time, a case of `_aomoto_cases`, which the kernel route
    answers."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_aomoto_cases())
    E, i, d, F, torus = draw(_whole_space_cases(
        _GRID_KINDS + ("planted", "column", "diagonal")))
    if draw(st.integers(0, 3)) == 0:
        R = E.ring
        x, z, one = R.var(0), R.var(R.nvars - 1), R.one()
        f = draw(st.sampled_from([x, x - one, x * z + one, R.zero()]))
        E = _tensor_with_quotient(E, f, draw(st.integers(0, E.top)))
    return E, i, d, F, torus


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_route_cases())
@example((random_bivariate_complex(F5, 0), 1, 1, _F25, False))
@example((_map_complex(PrimeField(7), [["x", "0"], ["0", "x - 1"]]), 1, 1,
          PrimeField(7), False))
@example((_map_complex(PrimeField(17), [["y * (x + 1)", "0"],
                                        ["0", "y * (y - 1) * (x + 1)"]]),
          1, 1, PrimeField(17), False))
def test_every_route_agrees_with_both_oracles(case):
    # jump_locus_points gives the locus of homology_dims_table at the
    # drawn depth, and so does the zero set of the minor ideal of a free
    # complex; at every depth 1 <= d <= g_i, where jump_locus_points walks
    # the table, each entry of ROUTES that answers gives the table's
    # locus, and the last entry answers.  The explicit examples set a trap
    # for each fast route: the locus x in {0, 1} of diag(x, x - 1) holds
    # the grid of side 2, but not that of side 3 that the factor k = 2
    # gives, and its origin is a coordinate stratum of its own; on every
    # line of the last one, the divisors y | y (y - 1) must be read in
    # chain order
    E, i, d, F, torus = case
    table = homology_dims_table(E, F, torus)
    want = _table_locus(table, i, d)
    assert jump_locus_points(E, i, d, F, torus) == want
    if isinstance(E, FreeChainComplex):
        assert zero_locus_points(jump_locus_ideal(E, i, d), F, torus) == want
    for depth in range(1, E.gens(i) + 1):
        want = _table_locus(table, i, depth)
        answers = [route(E, i, depth, F, torus)
                   for route in complexes.ROUTES]
        assert answers[-1] is not None
        for route, got in zip(complexes.ROUTES, answers):
            assert got is None or got == want, (route.__name__, depth)


# -- homology presentations -------------------------------------------------------


def test_presentation_cokernel_t_minus_1():
    E = times_poly_laurent(Q, "t - 1")
    pres = homology_presentation(E, 0)
    assert pres.gens == 1
    assert [poly_to_str(pres.relations[0, j])
            for j in range(pres.relations.ncols)] == ["t - 1"]


def test_presentation_koszul_h1_is_zero():
    E = koszul_complex(Q)
    pres = homology_presentation(E, 1)
    assert pres.gens == 0


def test_presentation_top_of_times_x():
    E = times_x_complex(Q)
    pres = homology_presentation(E, 1)
    # ker(x) = 0 in k[x]: no generators survive
    assert pres.gens == 0


# -- Fitting ideals ---------------------------------------------------------------


def test_fitting_examples():
    R = Ring(Q, ("x",))
    f = parse_poly(R, "x - 1")
    g = parse_poly(R, "x - 2")
    P = ModulePresentation(R, 2, Matrix(R, 2, 2,
                                        [[f, R.zero()], [R.zero(), g]]))
    assert fitting_ideal(P, 0) == Ideal(R, [f * g])
    assert fitting_ideal(P, 1) == Ideal(R, [f, g])
    assert fitting_ideal(P, 2) == unit_ideal(R)
    free = ModulePresentation(R, 1, Matrix(R, 1, 0, [[]]))
    assert fitting_ideal(free, 0) == zero_ideal(R)


def test_fitting_bridge_pointwise():
    # w in V(Fitt_{d-1})  iff  dim coker(relations(w)) >= d
    rng = random.Random(37)
    R = Ring(F3, ("x", "y"))
    for _ in range(10):
        g = rng.randint(1, 3)
        k = rng.randint(0, 3)
        rows = []
        for _ in range(g):
            row = []
            for _ in range(k):
                if rng.random() < 0.4:
                    row.append(R.zero())
                else:
                    row.append(R.monomial((rng.randint(0, 1), rng.randint(0, 1)),
                                          rng.randint(1, 2)))
            rows.append(row)
        P = ModulePresentation(R, g, Matrix(R, g, k, rows))
        for d in range(1, g + 2):
            locus = zero_locus_points(fitting_ideal(P, d - 1), F3)
            from jumploci.linalg import mat_rank
            expected = {(a, b) for a in range(3) for b in range(3)
                        if g - mat_rank(F3, P.relations.evaluate((a, b))) >= d}
            assert locus == expected


# -- supports -------------------------------------------------------------------


def test_support_t_minus_1_squared():
    E = times_poly_laurent(F5, "(t - 1)*(t - 1)")
    pts = support_points(E, 0, 1, F5)
    assert {p[0] for p in pts} == {1}


def test_support_trefoil_roots():
    E = times_poly_laurent(F7, "1 - t + t^2")
    pts = support_points(E, 0, 1, F7)
    # oracle: evaluate t^2 - t + 1 at all units of F_7
    expected = {t for t in range(1, 7) if (t * t - t + 1) % 7 == 0}
    assert {p[0] for p in pts} == expected == {3, 5}


def test_support_union_augmentation_is_everything():
    E = augmentation_complex(F5)
    union = set()
    for i in (0, 1):
        union |= {p[0] for p in support_points(E, i, 1, F5)}
    assert union == set(range(5))
    jump_union = set()
    for i in (0, 1):
        jump_union |= {p[0] for p in jump_locus_points(E, i, 1, F5)}
    assert jump_union == set(range(1, 5))


# -- finiteness -----------------------------------------------------------------


def test_finite_dimension_examples():
    L = Ring(Q, ("t",), laurent=True)
    P = ModulePresentation(L, 1, Matrix(L, 1, 1,
                                        [[parse_poly(L, "t^2 - t + 1")]]))
    v = is_finite_dimensional(P)
    assert v.kind == "finite" and v.dim == 2
    free = ModulePresentation(L, 1, Matrix(L, 1, 0, [[]]))
    assert is_finite_dimensional(free).kind == "infinite"
    R = Ring(Q, ("x", "y"))
    P2 = ModulePresentation(R, 1, Matrix(R, 1, 2, [[R.var(0), R.var(1)]]))
    v2 = is_finite_dimensional(P2)
    assert v2.kind == "finite" and v2.dim == 1


@pytest.mark.parametrize("relations,dim", [
    (["s - 1", "t - 1"], 1),
    (["s^2 - 1", "t + 1"], 2),
])
def test_finite_dimension_over_a_bivariate_laurent_ring(relations, dim):
    L = Ring(F3, ("s", "t"), laurent=True)
    P = ModulePresentation(L, 1, Matrix(L, 1, 2, [
        [parse_poly(L, r) for r in relations]]))
    assert is_finite_dimensional(P) == FinVerdict(
        "finite", dim, "standard monomial count after saturation")


@pytest.mark.parametrize("variables,laurent,relations,verdict", [
    (("t",), False, ["t^2"], FinVerdict("finite", 2, "standard monomial count")),
    (("t",), False, [], FinVerdict("infinite", None,
                                   "standard monomials are unbounded")),
    (("t",), True, [], FinVerdict("infinite", None,
                                  "a free summand survives the relations")),
    (("s", "t"), True, ["s - 1"], FinVerdict(
        "infinite", None, "torus support is positive-dimensional")),
], ids=["torsion", "free", "free-laurent", "laurent-curve"])
def test_finite_dimension_verdicts_with_their_notes(variables, laurent,
                                                    relations, verdict):
    R = Ring(F3, variables, laurent=laurent)
    P = ModulePresentation(R, 1, Matrix(R, 1, len(relations), [
        [parse_poly(R, r) for r in relations]]))
    assert is_finite_dimensional(P) == verdict


def test_finite_dimension_past_a_bound_is_unknown(monkeypatch):
    # S(xy, x^2 + y^2) reduces to y^3, past a degree bound of 2: the
    # verdict is "unknown" with the bound named, never finite or infinite
    from jumploci import groebner
    R = Ring(Q, ("x", "y"))
    P = ModulePresentation(R, 1, Matrix(R, 1, 2, [
        [parse_poly(R, "x*y"), parse_poly(R, "x^2 + y^2")]]))
    assert is_finite_dimensional(P).kind == "finite"
    monkeypatch.setattr(groebner, "ENGINE_MAX_DEGREE", 2)
    v = is_finite_dimensional(P)
    assert (v.kind, v.dim) == ("unknown", None)
    assert v.note == "intermediate degree exceeds the desk-scale bound 2"


def test_prune_presentation_unit():
    R = Ring(Q, ("x",))
    P = ModulePresentation(R, 2, Matrix(R, 2, 1, [[R.one()], [R.var(0)]]))
    pruned = prune_presentation(P)
    assert pruned.gens == 1
    assert pruned.relations.ncols == 0


# -- structural properties ---------------------------------------------------------


def _all_jump_sets(E, F, dmax=4):
    table = homology_dims_table(E, F)
    out = {}
    for i in range(E.top + 1):
        for d in range(1, dmax + 1):
            out[(i, d)] = {c for c, dims in table.items() if dims[i] >= d}
    return out


def test_nesting_property_random():
    for seed in range(6):
        E = random_laurent_complex(F3, seed)
        sets = _all_jump_sets(E, F3)
        for i in range(E.top + 1):
            for d in range(1, 4):
                assert sets[(i, d + 1)] <= sets[(i, d)]


def test_homotopy_invariance_smoke():
    for seed in (0, 1, 2):
        E = random_laurent_complex(F5, seed)
        m = 1
        E2 = add_acyclic_summand(E, m)
        assert validate_complex(E2).ok
        t1 = _all_jump_sets(E, F5)
        t2 = _all_jump_sets(E2, F5)
        for key in t1:
            assert t1[key] == t2[key]
        for i in range(E.top + 1):
            s1 = support_points(E, i, 1, F5)
            s2 = support_points(E2, i, 1, F5)
            assert s1 == s2


def test_closedness_oracle_small():
    # zero_locus_points(jump_locus_ideal) == jump_locus_points on a few
    # random complexes over both supported ring shapes
    for seed in range(4):
        E = random_laurent_complex(F3, seed)
        for i in range(E.top + 1):
            for d in (1, 2):
                lhs = zero_locus_points(jump_locus_ideal(E, i, d), F3)
                rhs = jump_locus_points(E, i, d, F3)
                assert lhs == rhs
    for seed in range(2):
        E = random_bivariate_complex(F3, seed)
        for i in range(E.top + 1):
            for d in (1, 2):
                lhs = zero_locus_points(jump_locus_ideal(E, i, d), F3)
                rhs = jump_locus_points(E, i, d, F3)
                assert lhs == rhs


def test_presented_dims_against_quotient_basis_oracle():
    # random valid presented complexes: start from a free complex and quotient
    # each term by part of the incoming image (relations automatically map
    # into relations); compare the rank formula against explicit quotient
    # bases computed independently
    from oracles import quotient_complex_dims
    rng = random.Random(71)
    R = Ring(F3, ("x",))
    for seed in range(8):
        E = None
        from jumploci.corpus import random_free_complex
        E = random_free_complex(R, "presented:%d" % seed, max_len=2, max_rank=3)
        terms = []
        for i in range(E.top + 1):
            d_next = E.differential(i + 1)
            pick = [j for j in range(d_next.ncols) if rng.random() < 0.5]
            cols = [[d_next[r, j] for j in pick] for r in range(E.rank(i))]
            if i == 0:
                # the bottom term has no outgoing differential, so its
                # relations are unconstrained
                for _ in range(rng.randint(0, 2)):
                    extra = [R.monomial((rng.randint(0, 2),), rng.randint(1, 2))
                             if rng.random() < 0.7 else R.zero()
                             for _ in range(E.rank(0))]
                    for r in range(E.rank(0)):
                        cols[r].append(extra[r])
            ncols = len(cols[0]) if cols else 0
            terms.append(ModulePresentation(
                R, E.rank(i), Matrix(R, E.rank(i), ncols, cols)))
        P = PresentedChainComplex(R, terms, list(E.differentials))
        assert validate_presented(P).ok
        for w in range(3):
            got = dims_at(P, F3, (w,))
            gens = [P.gens(i) for i in range(P.top + 1)]
            rels = [P.relations(i).evaluate((w,)) for i in range(P.top + 1)]
            rels = [[list(map(int, row)) for row in m] for m in rels]
            diffs = [P.differential(i).evaluate((w,))
                     for i in range(1, P.top + 1)]
            diffs = [[list(map(int, row)) for row in m] for m in diffs]
            expected = quotient_complex_dims(3, gens, rels, diffs)
            assert got == expected, (seed, w)


def test_free_as_presented_dims_agree():
    for seed in (0, 3):
        E = random_laurent_complex(F5, seed)
        terms = [ModulePresentation(E.ring, c, Matrix.zero(E.ring, c, 0))
                 for c in E.ranks]
        P = PresentedChainComplex(E.ring, terms, list(E.differentials))
        t_free = homology_dims_table(E, F5)
        t_pres = homology_dims_table(P, F5)
        assert t_free == t_pres


def test_closedness_oracle_q5_with_extension():
    from jumploci.fields import extension_of
    F5loc = PrimeField(5)
    f25 = extension_of(F5loc, 2)
    for seed in range(4):
        E = random_laurent_complex(F5loc, seed)
        for field in (F5loc, f25):
            for i in range(E.top + 1):
                for d in (1, 2):
                    lhs = zero_locus_points(jump_locus_ideal(E, i, d), field)
                    rhs = jump_locus_points(E, i, d, field)
                    assert lhs == rhs


def test_multivariate_laurent_presentation():
    # H_1 of the one-relator complex with boundary the Koszul relation:
    # kernel generated by one element, one relation
    F = F3
    R = Ring(F, ("t1", "t2"), laurent=True)
    t1, t2 = R.var(0), R.var(1)
    one = R.one()
    d1 = Matrix(R, 1, 2, [[t1 - one, t2 - one]])
    d2 = Matrix(R, 2, 1, [[(one + t1) * (one - t2)], [t1 * t1 - one]])
    E = FreeChainComplex(R, (1, 2, 1), (d1, d2))
    assert validate_complex(E).ok
    pres = homology_presentation(E, 1)
    assert pres.gens == 1
    v = is_finite_dimensional(pres)
    assert v.kind == "infinite"


def test_laurent_presentations_at_the_ends():
    # H_0 of a free Laurent complex is presented by d_1 itself, and a degree
    # outside 0..n has the empty presentation
    R = Ring(F3, ("t1", "t2"), laurent=True)
    t1, t2 = R.var(0), R.var(1)
    bivariate = FreeChainComplex(
        R, (1, 2), (Matrix(R, 1, 2, [[t1 - R.one(), t2 - R.one()]]),))
    cases = [bivariate] + [random_laurent_complex(finite_field(q), seed)
                           for q in (3, 5, 16) for seed in range(15)]
    for E in cases:
        pres = homology_presentation(E, 0)
        expected = prune_presentation(
            ModulePresentation(E.ring, E.rank(0), E.differential(1)))
        assert pres == expected
        assert (pres.relations.nrows, pres.relations.ncols) == (
            expected.relations.nrows, expected.relations.ncols)
        for i in (-1, E.top + 1):
            pres = homology_presentation(E, i)
            assert (pres.gens, pres.relations.nrows,
                    pres.relations.ncols) == (0, 0, 0)


@pytest.mark.parametrize("q", [3, 5, 16, 17])
def test_supports_match_the_fitting_oracle(q):
    # support_points is a jump locus of the two-term complex [P]; the
    # Fitting route it replaced, V(Fitt_{d-1}), stays here as its oracle,
    # over F_q and F_{q^2} (bivariate over F_{q^2} only while q^4 is small)
    F = finite_field(q)
    for make in (random_bivariate_complex, random_laurent_complex):
        max_ext = 1 if make is random_bivariate_complex and q > 5 else 2
        for seed in range(40):
            E = make(F, seed)
            for i in range(E.top + 1):
                pres = homology_presentation(E, i)
                for d in (1, 2):
                    fitt = fitting_ideal(pres, d - 1)
                    for _, big in extension_fields(F, max_ext):
                        assert (support_points(E, i, d, big)
                                == zero_locus_points(fitt, big)), \
                            (seed, i, d, big)
