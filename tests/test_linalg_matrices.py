import itertools
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from jumploci.errors import PreconditionError
from jumploci.fields import PrimeField, Rationals, extension_of
from jumploci.linalg import mat_rank, null_space
from jumploci.matrices import (Matrix, all_minors, block_diag_minors_ideal,
                               minors_ideal)
from jumploci.rings import (Ideal, Poly, Ring, parse_poly, unit_ideal,
                            zero_ideal)

from oracles import block_diag, det, det_mod_p, rank_by_minors

F5 = PrimeField(5)
F3 = PrimeField(3)
Q = Rationals()


def test_rank_trivial_examples():
    assert mat_rank(F5, [[1, 0], [0, 1]]) == 2
    assert mat_rank(F5, [[0, 0], [0, 0]]) == 0
    assert mat_rank(F5, [[1, 2], [2, 4]]) == 1
    assert mat_rank(F5, []) == 0


def test_rank_equals_minor_rank_exhaustive_random():
    # s <= rank(M)  iff  some s x s minor is nonzero
    rng = random.Random(7)
    for p in (3, 5):
        F = PrimeField(p)
        for _ in range(120):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
            assert mat_rank(F, rows) == rank_by_minors(rows, p)


def test_null_space_is_the_kernel_and_one_basis_per_kernel():
    # the span of the basis is every x with rows x = 0, listed by brute
    # force, and a matrix with the same row space (its rows mixed by an
    # invertible matrix, with a zero row added) gives the same basis
    rng = random.Random(11)
    for p in (2, 3, 5):
        F = PrimeField(p)
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
            basis = null_space(F, rows, n)
            kernel = {x for x in itertools.product(range(p), repeat=n)
                      if all(sum(a * b for a, b in zip(row, x)) % p == 0
                             for row in rows)}
            span = {tuple(sum(c * v[j] for c, v in zip(cs, basis)) % p
                          for j in range(n))
                    for cs in itertools.product(range(p), repeat=len(basis))}
            assert len(basis) == n - rank_by_minors(rows, p)
            assert span == kernel
            while True:
                mix = [[rng.randrange(p) for _ in range(m)] for _ in range(m)]
                if rank_by_minors(mix, p) == m:
                    break
            mixed = [[sum(c * row[j] for c, row in zip(coeffs, rows)) % p
                      for j in range(n)] for coeffs in mix] + [[0] * n]
            assert null_space(F, mixed, n) == basis


def test_det_against_cofactor_oracle():
    rng = random.Random(3)
    R = Ring(F5, ())
    for _ in range(30):
        n = rng.randint(1, 4)
        ints = [[rng.randrange(5) for _ in range(n)] for _ in range(n)]
        M = Matrix(R, n, n, [[R.const(c) for c in row] for row in ints])
        got = det(M).constant_value()
        assert got == det_mod_p(ints, 5)


def test_minors_ideal_examples():
    R = Ring(Q, ("x",))
    x = R.var(0)
    M = Matrix(R, 2, 2, [[x, R.zero()], [R.zero(), x]])
    assert minors_ideal(M, 1) == Ideal(R, [x])
    assert minors_ideal(M, 2) == Ideal(R, [x * x])
    assert minors_ideal(M, 0) == unit_ideal(R)
    assert minors_ideal(M, 3) == zero_ideal(R)


def test_block_diag_minors_match_generic_route():
    rng = random.Random(13)
    R = Ring(F3, ("x", "y"))

    def rand_matrix(m, n):
        rows = []
        for _ in range(m):
            row = []
            for _ in range(n):
                if rng.random() < 0.5:
                    row.append(R.zero())
                else:
                    row.append(R.monomial((rng.randint(0, 1), rng.randint(0, 1)),
                                          rng.randint(1, 2)))
            rows.append(row)
        return Matrix(R, m, n, rows)

    def reference(M, s):
        # the determinant of every s x s submatrix: one empty submatrix at
        # s = 0 (the unit ideal), none past the smaller dimension
        return Ideal(R, [det(Matrix(R, s, s, [[M[r, c] for c in cols]
                                             for r in rows]))
                         for rows in combinations(range(M.nrows), s)
                         for cols in combinations(range(M.ncols), s)])

    for _ in range(15):
        a = rand_matrix(rng.randint(0, 2), rng.randint(0, 2))
        b = rand_matrix(rng.randint(0, 2), rng.randint(0, 2))
        big = block_diag(a, b)
        for s in range(0, min(big.nrows, big.ncols) + 2):
            expected = reference(big, s)
            assert block_diag_minors_ideal(a, b, s) == expected
            assert minors_ideal(big, s) == expected


def test_matrix_shape_checks():
    R = Ring(Q, ("x",))
    with pytest.raises(PreconditionError):
        Matrix(R, 2, 1, [[R.zero()]])
    M = Matrix.zero(R, 0, 3)
    assert M.nrows == 0 and M.ncols == 3
    assert all_minors(M, 1) == []


def test_matrix_equality_sees_the_shape():
    # matrices with no rows have equal (empty) entries whatever their width
    R = Ring(F5, ("t",))
    empty = [Matrix(R, 0, 0, []), Matrix(R, 0, 3, [])]
    assert empty[0] != empty[1] and len(set(empty)) == 2
    assert Matrix.zero(R, 3, 0) != Matrix.zero(R, 2, 0)
    assert Matrix.zero(R, 0, 3) == Matrix(R, 0, 3, [])
    assert hash(Matrix.zero(R, 0, 3)) == hash(Matrix(R, 0, 3, []))


# Matrix.evaluate runs through the matrix's evaluation plan; the reference is
# Poly.evaluate entry by entry.  Cases: Q, F_p, a ring over F_p evaluated in
# F_{p^m} through the prime field's embedding, and Laurent F_p[t^±1] at
# torus points, with negative exponents; zero and constant entries, and
# 0 x n and n x 0 shapes.
@st.composite
def _evaluation_cases(draw):
    kind = draw(st.sampled_from(["rationals", "prime", "extension", "laurent"]))
    nvars = draw(st.integers(0, 3))
    nrows, ncols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    base = Q if kind == "rationals" else PrimeField(draw(st.sampled_from([2, 3, 5])))
    laurent = kind == "laurent"
    ring = Ring(base, ("x", "y", "z")[:nvars], laurent=laurent)
    if kind == "extension":
        field = extension_of(base, draw(st.integers(2, 3)))
    else:
        field = base
    if base.is_finite:
        coeffs = st.integers(1, base.order - 1)
    else:
        coeffs = st.fractions(-9, 9, max_denominator=5).filter(bool)
    exps = st.tuples(*[st.integers(-3 if laurent else 0, 3)] * nvars)

    def entry():
        p = ring.zero()
        for e, c in draw(st.dictionaries(exps, coeffs, max_size=4)).items():
            p = p + ring.monomial(e, c)
        return p
    M = Matrix(ring, nrows, ncols,
               [[entry() for _ in range(ncols)] for _ in range(nrows)])
    if field.is_finite:
        low = 1 if laurent else 0
        values = st.integers(low, field.order - 1)
    else:
        values = st.fractions(-9, 9, max_denominator=5)
    points = draw(st.lists(st.tuples(*[values] * nvars), min_size=1, max_size=3))
    return M, field, points, draw(st.integers(0, nvars))


# With a prefix length k, the plan that keeps the last nvars - k variables
# substitutes the first k coordinates; each returned term dict (no zero
# coefficient), evaluated at the rest, is the entry's value at the point.
# k = nvars keeps no variable and still gives term dicts.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_evaluation_cases())
def test_matrix_evaluate_is_entrywise_poly_evaluate(case):
    M, field, points, k = case
    at = M.evaluator(field)  # one plan, applied at every point
    kept = Ring(field, M.ring.variables[k:], laurent=M.ring.laurent)
    at_prefix = M.evaluator(field, kept)
    for coords in points:
        want = [[p.evaluate(coords, field) for p in row]
                for row in M.entries]
        assert M.evaluate(coords, field) == want
        assert at(coords) == want
        rows = at_prefix(coords[:k])
        assert all(c != field.zero for row in rows for t in row
                   for c in t.values())
        assert [[Poly(kept, t).evaluate(coords[k:]) for t in row]
                for row in rows] == want
    assert len(want) == M.nrows and all(len(r) == M.ncols for r in want)


def test_evaluator_substitutes_a_head_or_a_chart_prefix():
    # the fibered route keeps the last variable; a prefix of all the
    # variables keeps none, and still gets term dicts
    R2 = Ring(F5, ("x", "y"))
    line, none = Ring(F5, ("y",)), Ring(F5, ())
    M = Matrix(R2, 1, 2, [[parse_poly(R2, "x^2*y + 3*x"),
                           parse_poly(R2, "y^2 - x*y")]])
    at = M.evaluator(F5, line)
    assert at((2,)) == [[{(1,): 4, (0,): 1}, {(2,): 1, (1,): 3}]]
    assert at((0,)) == [[{}, {(2,): 1}]]
    # x^2*y + 3*x vanishes at (2, 1), and no zero coefficient is kept
    assert M.evaluator(F5, none)((2, 1)) == [[{}, {(): 4}]]
    assert M.evaluator(F5, R2)(()) == [[p.terms for p in M.entries[0]]]
    L2 = Ring(F5, ("x", "y"), laurent=True)
    N = Matrix(L2, 1, 1, [[parse_poly(L2, "x^-1*y^-2 + x")]])
    assert N.evaluator(F5, Ring(F5, ("y",), laurent=True))((2,)) == [
        [{(-2,): 3, (0,): 2}]]


def test_matrix_evaluate_of_empty_shapes():
    R = Ring(F5, ("x",))
    assert Matrix.zero(R, 0, 3).evaluate((2,)) == []
    assert Matrix.zero(R, 3, 0).evaluate((2,)) == [[], [], []]
    assert Matrix(R, 1, 2, [[R.const(3), R.zero()]]).evaluate((2,)) == [[3, 0]]
