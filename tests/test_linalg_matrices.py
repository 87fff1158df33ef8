import random

import pytest

from jumploci.errors import PreconditionError
from jumploci.fields import PrimeField, Rationals
from jumploci.linalg import mat_rank
from jumploci.matrices import (Matrix, all_minors, block_diag_minors_ideal,
                               minors_ideal)
from jumploci.rings import Ideal, Ring, unit_ideal, zero_ideal

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

    for _ in range(15):
        a = rand_matrix(rng.randint(0, 2), rng.randint(0, 2))
        b = rand_matrix(rng.randint(0, 2), rng.randint(0, 2))
        big = block_diag(a, b)
        for s in range(0, min(big.nrows, big.ncols) + 1):
            assert block_diag_minors_ideal(a, b, s) == minors_ideal(big, s)


def test_matrix_shape_checks():
    R = Ring(Q, ("x",))
    with pytest.raises(PreconditionError):
        Matrix(R, 2, 1, [[R.zero()]])
    M = Matrix.zero(R, 0, 3)
    assert M.nrows == 0 and M.ncols == 3
    assert all_minors(M, 1) == []
