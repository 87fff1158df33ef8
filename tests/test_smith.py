import random

import pytest

from jumploci.errors import UnsupportedRingError
from jumploci.fields import PrimeField, Rationals
from jumploci.matrices import Matrix
from jumploci.rings import Ring, parse_poly, poly_to_str
from jumploci.smith import (kernel_matrix, smith_normal_form, snf_solve,
                            udeg, udivmod)

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
    rows = []
    for _ in range(m):
        row = []
        for _ in range(n):
            if rng.random() < 0.3:
                row.append(ring.zero())
            else:
                p = ring.zero()
                for _ in range(rng.randint(1, 2)):
                    p = p + ring.monomial((rng.randint(-2, 3),),
                                          rng.randint(1, 4))
                row.append(p)
        rows.append(row)
    return Matrix(ring, m, n, rows)


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
