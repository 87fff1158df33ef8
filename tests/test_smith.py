import random

import pytest
from hypothesis import example, given, settings, strategies as st

from jumploci.errors import UnsupportedRingError
from jumploci.fields import (PrimeField, Rationals, _gcd, _horner, _mul,
                             _powmod, finite_field, udivmod)
from jumploci.matrices import Matrix
from jumploci.rings import Poly, Ring, parse_poly, poly_to_str
from jumploci.smith import (_dense_divisors, kernel_matrix, smith_divisors,
                            smith_normal_form, vanishing_counts)

from oracles import det, reference_smith_form, udivmod as poly_udivmod
from oracles import upoly_gcd, upoly_mod, upoly_mul

F5 = PrimeField(5)
Q = Rationals()
L5 = Ring(F5, ("t",), laurent=True)
LQ = Ring(Q, ("t",), laurent=True)


def _poly(ring, text):
    return parse_poly(ring, text)


def test_udivmod():
    # coefficient lists, lowest degree first: t^3 + 2t + 1 = t (t^2 + 1) + t + 1
    a, b = [Q.one, Q.from_int(2), Q.zero, Q.one], [Q.one, Q.zero, Q.one]
    assert udivmod(Q, a, b) == ([Q.zero, Q.one], [Q.one, Q.one])
    assert udivmod(Q, b, a) == ([], b)
    assert udivmod(Q, a, [Q.from_int(2)]) == ([x / 2 for x in a], [])
    with pytest.raises(ZeroDivisionError):
        udivmod(Q, a, [])
    # over F_5, against the oracle's product: q * b + r == a, deg r < deg b;
    # and the rest of the coefficient-list kit against the oracles
    rng, exponents = random.Random(7), random.Random(8)
    for _ in range(50):
        a = [rng.randrange(5) for _ in range(rng.randint(0, 6))]
        b = [rng.randrange(5) for _ in range(rng.randint(0, 3))] + [rng.randrange(1, 5)]
        while a and a[-1] == 0:
            a.pop()
        q, r = udivmod(F5, a, b)
        assert len(r) < len(b) and (not r or r[-1])
        qb = upoly_mul(q, b, 5)
        total = [(x + y) % 5 for x, y in zip(qb + [0] * len(r), r + [0] * len(qb))]
        while total and total[-1] == 0:
            total.pop()
        assert total == a
        assert _mul(F5, a, b) == upoly_mul(a, b, 5)
        g = _gcd(F5, a, b)
        assert upoly_gcd(g, [], 5) == upoly_gcd(a, b, 5)
        e, f = exponents.randrange(30), b + [1]  # f of degree >= 1
        power = [1]
        for _ in range(e):
            power = upoly_mod(upoly_mul(power, a, 5), f, 5)
        assert _powmod(F5, a, e, f) == power
        if a:
            assert _horner(F5, a, range(5)) == [
                sum(c * x ** i for i, c in enumerate(a)) % 5 for x in range(5)]


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
    got_coeffs = [0] * (got.total_degree() + 1)
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
        identity = Matrix.identity(L5, n)
        assert snf.V * snf.V_inv == identity
        assert snf.V_inv * snf.V == identity
        # V invertible over the ring: its determinant is a unit c * t^e
        assert det(snf.V).is_unit()
        # M V vanishes past the divisors, and only there
        MV = M * snf.V
        k = len(snf.divisors)
        assert all(p.is_zero() for row in MV.entries for p in row[k:])
        assert all(any(not p.is_zero() for p in MV.col(j)) for j in range(k))
        # a divisibility chain, normalized
        divisors = snf.divisors
        for a, b in zip(divisors, divisors[1:]):
            q, r = poly_udivmod(b, a)
            assert r.is_zero()
        for d in divisors:
            assert min(e[0] for e in d.terms) == 0
            assert d.terms[max(e for e in d.terms)] == F5.one


def test_kernel_matrix():
    rng = random.Random(29)
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        M = _random_laurent_matrix(rng, L5, m, n)
        snf = smith_normal_form(M)
        K = kernel_matrix(snf)
        assert (M * K).is_zero()
        assert K.ncols == n - len(snf.divisors)


def test_snf_refuses_multivariate():
    R = Ring(F5, ("x", "y"))
    with pytest.raises(UnsupportedRingError):
        smith_normal_form(Matrix.zero(R, 1, 1))


def test_vanishing_counts_read_a_divisor_chain():
    # 1 | t - 1 | (t - 1)(t - 2)(t + 1): at 1 two divisors vanish, at 2 and
    # at -1 = 4 one does; t alone vanishes only at 0, which the torus lacks
    R = Ring(F5, ("t",))
    M = Matrix(R, 3, 3, [
        [R.one(), R.zero(), R.zero()],
        [R.zero(), _poly(R, "t - 1"), R.zero()],
        [R.zero(), R.zero(), _poly(R, "(t - 1)*(t - 2)*(t + 1)")]])
    # the worker takes rows of term dicts, as a plan that keeps t gives them
    chain = _dense_divisors(R, M.evaluator(F5, R)(()), 3)
    assert chain == [[1], [4, 1], [2, 4, 3, 1]]  # lowest degree first
    assert dict(vanishing_counts(F5, chain, range(5))) == {1: 2, 2: 1, 4: 1}
    line = ([0, 1],)
    assert dict(vanishing_counts(F5, line, range(5))) == {0: 1}
    assert dict(vanishing_counts(F5, line, range(1, 5), torus=True)) == {}
    assert dict(vanishing_counts(F5, ([1],), range(5))) == {}


# -- the coefficient-list worker against the Poly oracle -----------------------

_ORACLE_RINGS = [Ring(F5, ("t",)), Ring(finite_field(16), ("t",)),
                 Ring(finite_field(27), ("t",)), Ring(Q, ("t",)), L5, LQ]


@st.composite
def _smith_inputs(draw):
    """A matrix of at most 4 x 4 over one of _ORACLE_RINGS, entries of
    degree at most 3 (exponents from -2 in a Laurent ring), some of its
    rows and columns zero."""
    ring = draw(st.sampled_from(_ORACLE_RINGS))
    F = ring.field
    if F.is_finite:
        coeff = st.integers(1, F.order - 1)
    else:
        coeff = st.fractions(-3, 3, max_denominator=3).filter(bool)
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    zero_rows = draw(st.sets(st.integers(0, 3), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 3), max_size=2))
    entry = st.dictionaries(st.integers(-2 if ring.laurent else 0, 3), coeff,
                            max_size=3)
    return Matrix(ring, m, n, [
        [Poly(ring, {} if i in zero_rows or j in zero_cols else
              {(e,): c for e, c in draw(entry).items()})
         for j in range(n)] for i in range(m)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_smith_inputs())
@example(Matrix.zero(L5, 0, 3))
@example(Matrix.zero(LQ, 3, 0))
@example(Matrix.zero(Ring(Q, ("t",)), 0, 0))
@example(Matrix(L5, 2, 2, [[_poly(L5, "t^-1 + 2"), L5.zero()],
                           [_poly(L5, "3*t^2"), L5.zero()]]))
def test_smith_form_equals_the_poly_oracle(M):
    snf = smith_normal_form(M)
    U, D, V, V_inv, divisors = reference_smith_form(M)
    assert snf.V.entries == V.entries
    assert snf.V_inv.entries == V_inv.entries
    assert snf.divisors == divisors == smith_divisors(M)
    assert U * M * snf.V == D
    assert snf.V * snf.V_inv == Matrix.identity(M.ring, M.ncols)


def test_the_elimination_makes_no_poly_arithmetic(monkeypatch):
    R = Ring(F5, ("t",))
    M = _random_laurent_matrix(random.Random(5), R, 4, 4)
    expected = reference_smith_form(M)[4]
    assert [d.total_degree() for d in expected] == [0, 0, 1, 6]
    calls = []
    for name in ("__add__", "__mul__", "__neg__"):
        def spy(*args, _real=getattr(Poly, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(Poly, name, spy)
    assert smith_divisors(M) == expected
    assert calls == []
