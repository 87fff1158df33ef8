import random

import pytest

from jumploci.errors import UnsupportedRingError
from jumploci.fields import PrimeField, Rationals
from jumploci.matrices import Matrix
from jumploci.rings import Ring, parse_poly, poly_to_str
from jumploci.smith import (kernel_matrix, line_restriction, smith_divisors,
                            smith_normal_form, snf_solve, udeg, udivmod,
                            vanishing_counts)

from oracles import upoly_gcd

F5 = PrimeField(5)
Q = Rationals()
L5 = Ring(F5, ("t",), laurent=True)
LQ = Ring(Q, ("t",), laurent=True)


def _poly(ring, text):
    return parse_poly(ring, text)


def test_udivmod():
    R = Ring(Q, ("t",))
    a = _poly(R, "t^3 + 2*t + 1")
    b = _poly(R, "t^2 + 1")
    q, r = udivmod(a, b)
    assert q * b + r == a
    assert udeg(r) < udeg(b)


def test_diagonal_example():
    d1 = _poly(LQ, "t - 1")
    d2 = _poly(LQ, "(t - 1)*(t - 1)")
    M = Matrix(LQ, 2, 2, [[d1, LQ.zero()], [LQ.zero(), d2]])
    snf = smith_normal_form(M)
    assert [poly_to_str(d) for d in snf.divisors] == ["t - 1", "t^2 - 2*t + 1"]


def test_identity_divisors():
    M = Matrix.identity(LQ, 2)
    snf = smith_normal_form(M)
    assert [poly_to_str(d) for d in snf.divisors] == ["1", "1"]


def test_one_by_two_matches_gcd_oracle():
    # derived value: divisors of [f, -f] are [gcd(f, -f)] = [f] up to units
    f = _poly(L5, "1 - t + t^2")
    M = Matrix(L5, 1, 2, [[f, -f]])
    snf = smith_normal_form(M)
    assert len(snf.divisors) == 1
    got = snf.divisors[0]
    expected = upoly_gcd([1, 4, 1], [4, 1, 4], 5)  # coefficient lists mod 5
    got_coeffs = [0] * (udeg(got) + 1)
    for (e,), c in got.terms.items():
        got_coeffs[e] = c
    assert got_coeffs == expected


def _random_laurent_matrix(rng, ring, m, n):
    low = -2 if ring.laurent else 0
    rows = []
    for _ in range(m):
        row = []
        for _ in range(n):
            if rng.random() < 0.3:
                row.append(ring.zero())
            else:
                p = ring.zero()
                for _ in range(rng.randint(1, 2)):
                    p = p + ring.monomial((rng.randint(low, 3),),
                                          rng.randint(1, 4))
                row.append(p)
        rows.append(row)
    return Matrix(ring, m, n, rows)


@pytest.mark.parametrize("ring", [Ring(F5, ("t",)), L5],
                         ids=["ordinary", "laurent"])
def test_smith_divisors_equal_the_full_form(ring):
    rng = random.Random(31)
    cases = [Matrix.zero(ring, 0, 3), Matrix.zero(ring, 3, 0),
             Matrix.zero(ring, 0, 0), Matrix.zero(ring, 2, 3)]
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = _random_laurent_matrix(rng, ring, m, n)
        if rng.random() < 0.4:  # rank-deficient: through a thinner middle
            k = rng.randint(1, max(1, min(m, n) - 1))
            M = (_random_laurent_matrix(rng, ring, m, k)
                 * _random_laurent_matrix(rng, ring, k, n))
        cases.append(M)
    deficient = 0
    for M in cases:
        divisors = smith_divisors(M)
        assert divisors == smith_normal_form(M).divisors
        deficient += len(divisors) < min(M.nrows, M.ncols)
    assert deficient >= 10


def test_snf_transform_identities_random():
    rng = random.Random(23)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = _random_laurent_matrix(rng, L5, m, n)
        snf = smith_normal_form(M)
        # exact transform identity
        assert snf.U * M * snf.V == snf.D
        identity = Matrix.identity(L5, n)
        assert snf.V * snf.V_inv == identity
        assert snf.V_inv * snf.V == identity
        # U, V invertible over the ring: determinants are units c * t^e
        from jumploci.matrices import det
        assert det(snf.U).is_unit()
        assert det(snf.V).is_unit()
        # diagonal, with a divisibility chain, normalized
        for i in range(snf.D.nrows):
            for j in range(snf.D.ncols):
                if i != j:
                    assert snf.D[i, j].is_zero()
        divisors = snf.divisors
        for a, b in zip(divisors, divisors[1:]):
            q, r = udivmod(b, a)
            assert r.is_zero()
        for d in divisors:
            assert min(e[0] for e in d.terms) == 0
            assert d.terms[max(e for e in d.terms)] == F5.one


def test_kernel_matrix_and_solve():
    rng = random.Random(29)
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        M = _random_laurent_matrix(rng, L5, m, n)
        snf = smith_normal_form(M)
        K = kernel_matrix(snf)
        assert (M * K).is_zero()
        # solve M x = M v for random v: must succeed
        v = [_random_laurent_matrix(rng, L5, 1, 1)[0, 0] for _ in range(n)]
        rhs = [sum((M[i, j] * v[j] for j in range(n)), L5.zero())
               for i in range(m)]
        x = snf_solve(snf, rhs)
        assert x is not None
        back = [sum((M[i, j] * x[j] for j in range(n)), L5.zero())
                for i in range(m)]
        assert back == rhs


def test_snf_refuses_multivariate():
    R = Ring(F5, ("x", "y"))
    with pytest.raises(UnsupportedRingError):
        smith_normal_form(Matrix.zero(R, 1, 1))


def test_vanishing_counts_read_a_divisor_chain():
    # 1 | t - 1 | (t - 1)(t - 2)(t + 1): at 1 two divisors vanish, at 2 and
    # at -1 = 4 one does; t alone vanishes only at 0, which the torus lacks
    R = Ring(F5, ("t",))
    chain = smith_divisors(Matrix(R, 3, 3, [
        [R.one(), R.zero(), R.zero()],
        [R.zero(), _poly(R, "t - 1"), R.zero()],
        [R.zero(), R.zero(), _poly(R, "(t - 1)*(t - 2)*(t + 1)")]]))
    assert dict(vanishing_counts(chain, range(5))) == {1: 2, 2: 1, 4: 1}
    line = (_poly(R, "t"),)
    assert dict(vanishing_counts(line, range(5))) == {0: 1}
    assert dict(vanishing_counts(line, range(1, 5), torus=True)) == {}
    assert dict(vanishing_counts((R.one(),), range(5))) == {}


def test_line_restriction_substitutes_the_head():
    R2 = Ring(F5, ("x", "y"))
    line = Ring(F5, ("y",))
    M = Matrix(R2, 1, 2, [[_poly(R2, "x^2*y + 3*x"), _poly(R2, "y^2 - x*y")]])
    at = line_restriction(M, line)
    assert at((2,)) == Matrix(line, 1, 2, [[_poly(line, "4*y + 1"),
                                            _poly(line, "y^2 - 2*y")]])
    assert at((0,)) == Matrix(line, 1, 2, [[line.zero(), _poly(line, "y^2")]])
