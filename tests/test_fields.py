import hashlib
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from jumploci.errors import PreconditionError, ResourceLimitError
from jumploci.fields import (_DEFAULTS, _TABLE_CAP, ExtensionField,
                             PrimeField, Rationals, _is_irreducible, _tabled,
                             embedding, extension_of, factor_prime_power,
                             field_make, finite_field, irreducible_modulus,
                             is_prime)

from oracles import (extension_field_tables, first_irreducible,
                     first_primitive, is_irreducible_by_trial_division,
                     monic_polys, number, upoly_mod, upoly_mul)


def test_field_make_prime():
    F = field_make("prime-field", p=5)
    assert F.characteristic == 5
    assert F.order == 5


def test_field_make_f4_modulus():
    F = field_make("extension-field", p=2, m=2)
    # the unique irreducible quadratic over F_2 is u^2 + u + 1
    assert F.modulus == (1, 1, 1)
    assert F.order == 4


def test_field_make_rationals():
    F = field_make("rationals")
    assert F.characteristic == 0
    assert not F.is_finite


def test_non_prime_rejected():
    with pytest.raises(PreconditionError):
        PrimeField(6)
    with pytest.raises(PreconditionError):
        ExtensionField(4, 2)


def test_reducible_modulus_rejected():
    # u^2 + 1 = (u + 1)^2 over F_2
    with pytest.raises(PreconditionError):
        ExtensionField(2, 2, modulus=(1, 0, 1))
    # u^4 + u^2 + 1 = (u^2 + u + 1)^2 over F_2 has no root
    with pytest.raises(PreconditionError):
        ExtensionField(2, 4, modulus=(1, 0, 1, 0, 1))
    assert ExtensionField(2, 4, modulus=(1, 0, 0, 1, 1)).order == 16


def test_factor_prime_power():
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(7) == (7, 1)
    with pytest.raises(PreconditionError):
        factor_prime_power(12)


def test_factor_prime_power_of_every_order_up_to_the_table_cap():
    # the reference: a sieve of the primes, and their powers
    n = _TABLE_CAP
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for d in range(2, int(n ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytearray(len(sieve[d * d::d]))
    want = {}
    for p in range(2, n + 1):
        if sieve[p]:
            q, m = p, 1
            while q <= n:
                want[q] = (p, m)
                q, m = q * p, m + 1
    for q in range(2, n + 1):
        if q in want:
            assert factor_prime_power(q) == want[q]
        else:
            with pytest.raises(PreconditionError):
                factor_prime_power(q)
    assert all(is_prime(p) == bool(sieve[p]) for p in range(n + 1))


def test_primality_past_trial_division():
    # Carmichael numbers, and strong pseudoprimes to the bases 2, 3, 5, 7
    for n in (561, 41041, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(1000000000000000003) and is_prime(2 ** 61 - 1)
    assert factor_prime_power(1000000000000000003) == (1000000000000000003, 1)
    assert factor_prime_power((2 ** 31 - 1) ** 2) == (2 ** 31 - 1, 2)
    assert factor_prime_power(3 ** 40) == (3, 40)
    for q in (10 ** 18, 1000000007 * 1000000009, 6 ** 30):
        with pytest.raises(PreconditionError):
            factor_prime_power(q)
    # past the range where the bases decide exactly, a report
    with pytest.raises(ResourceLimitError):
        is_prime(10 ** 30 + 57)


@pytest.mark.parametrize("q", [7, 8, 9, 25])
def test_field_axioms_exhaustive(q):
    F = finite_field(q)
    elems = list(F.elements())
    for a in elems:
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.one) == a
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
    # a couple of distributivity spot checks across the whole table
    for a in elems:
        for b in elems[:4]:
            for c in elems[:4]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_pow_negative_exponents():
    F = PrimeField(7)
    assert F.pow(3, -1) == F.inv(3)
    F9 = finite_field(9)
    for a in F9.units():
        assert F9.mul(F9.pow(a, -2), F9.pow(a, 2)) == F9.one


def _image(small, big):
    """a -> its image in big, read from fields.embedding."""
    table = embedding(small, big)
    return (lambda a: a) if table is None else table.__getitem__


def test_extension_of_prime_field_is_constant_preserving():
    F3 = PrimeField(3)
    F9 = extension_of(F3, 2)
    assert F9.order == 9
    assert embedding(F3, F9) is None
    emb = _image(F3, F9)
    for a in F3.elements():
        for b in F3.elements():
            assert emb(F3.add(a, b)) == F9.add(emb(a), emb(b))
            assert emb(F3.mul(a, b)) == F9.mul(emb(a), emb(b))


def test_extension_of_extension_is_a_homomorphism():
    F4 = finite_field(4)
    F16 = extension_of(F4, 2)
    assert F16.order == 16
    emb = _image(F4, F16)
    for a in F4.elements():
        for b in F4.elements():
            assert emb(F4.add(a, b)) == F16.add(emb(a), emb(b))
            assert emb(F4.mul(a, b)) == F16.mul(emb(a), emb(b))
    assert emb(F4.one) == F16.one


def test_irreducible_search_deterministic():
    assert irreducible_modulus(2, 2) == irreducible_modulus(2, 2)
    assert irreducible_modulus(3, 2) == irreducible_modulus(3, 2)
    # degree-3 modulus over F_2 must be one of the two irreducible cubics
    assert irreducible_modulus(2, 3) in ((1, 1, 0, 1), (1, 0, 1, 1))


def test_scalar_str():
    F9 = finite_field(9)
    u = number((0, 1), 3)
    assert F9.scalar_str(u) == "u"
    assert F9.scalar_str(F9.add(u, F9.one)) == "u + 1"
    assert F9.scalar_str(F9.zero) == "0"


# -- exp/log/Zech arithmetic against the digit-wise / oracle-product reference

EXT_ORDERS = (4, 8, 9, 25, 27, 512, 625, 729, 1024)
EXT_FIELDS = {q: finite_field(q) for q in EXT_ORDERS}


def _ref_mul(F, a, b):
    prod = upoly_mul(list(F.vec(a)), list(F.vec(b)), F.p)
    return number(upoly_mod(prod, list(F.modulus), F.p), F.p)


def _ref_pow(F, a, e):
    """a**e by square-and-multiply over _ref_mul; a**-k = a**(k(q-2))."""
    if e < 0:
        e = -e * (F.order - 2)
    result = F.one
    while e:
        if e & 1:
            result = _ref_mul(F, result, a)
        a = _ref_mul(F, a, a)
        e >>= 1
    return result


def _digitwise(F, op, *xs):
    return number([op(*cs) % F.p for cs in zip(*map(F.vec, xs))], F.p)


@pytest.mark.parametrize("q", EXT_ORDERS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_extension_ops_match_reference(q, data):
    F = EXT_FIELDS[q]
    a, b = (data.draw(st.integers(0, q - 1)) for _ in range(2))
    e = data.draw(st.integers(-2 * q, 2 * q))
    assert F.add(a, b) == _digitwise(F, lambda x, y: x + y, a, b)
    assert F.sub(a, b) == _digitwise(F, lambda x, y: x - y, a, b)
    assert F.neg(a) == _digitwise(F, lambda x: -x, a)
    assert F.mul(a, b) == _ref_mul(F, a, b)
    if a:
        assert _ref_mul(F, a, F.inv(a)) == F.one
        assert F.pow(a, e) == _ref_pow(F, a, e)
    else:
        with pytest.raises(ZeroDivisionError):
            F.inv(a)
        if e < 0:
            with pytest.raises(ZeroDivisionError):
                F.pow(a, e)
        else:
            assert F.pow(a, e) == _ref_pow(F, a, e)
    if b:
        assert F.div(a, b) == _ref_mul(F, a, F.inv(b))


@pytest.mark.parametrize("q", EXT_ORDERS)
def test_pow_of_zero(q):
    F = EXT_FIELDS[q]
    assert F.pow(0, 0) == F.one
    assert F.pow(0, 5) == F.zero


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64])
def test_exp_log_are_inverse_bijections_onto_units(q):
    F = finite_field(q)
    n = q - 1
    powers = F._exp[:n]
    assert sorted(powers) == list(F.units())
    assert F._exp[n:2 * n] == powers
    assert all(F._log[F._exp[k]] == k for k in range(n))
    assert all(F._exp[F._log[a]] == a for a in F.units())
    g = powers[1]
    assert all(_ref_mul(F, powers[k], g) == F._exp[k + 1] for k in range(n))


@pytest.mark.parametrize("base,e", [(5, 4), (3, 6), (25, 2), (9, 3)])
def test_extension_of_is_a_ring_homomorphism(base, e):
    small = finite_field(base)
    big = extension_of(small, e)
    assert big.order == base ** e
    emb = _image(small, big)
    assert emb(small.one) == big.one
    for a in small.elements():
        for b in small.elements():
            assert emb(small.add(a, b)) == big.add(emb(a), emb(b))
            assert emb(small.mul(a, b)) == big.mul(emb(a), emb(b))


def test_extension_fields_above_the_cap_are_refused():
    assert 3 ** 10 <= _TABLE_CAP and 5 ** 7 <= _TABLE_CAP < 2 ** 18
    for p, m in ((2, 18), (2, 10 ** 9), (3, 11)):
        with pytest.raises(ResourceLimitError) as exc:
            ExtensionField(p, m)
        assert "_TABLE_CAP = %d" % _TABLE_CAP in str(exc.value)
        assert "F_%d^%d" % (p, m) in str(exc.value)
    with pytest.raises(ResourceLimitError):
        finite_field(2 ** 18)


# -- table construction and the modulus search against the oracles ----------


def _extension_orders(cap):
    return [(p, m) for p in range(2, isqrt(cap) + 1) if is_prime(p)
            for m in range(2, cap.bit_length()) if p ** m <= cap]


@pytest.mark.parametrize("p, m", _extension_orders(2 ** 12))
def test_tables_equal_one_product_per_power(p, m):
    F = ExtensionField(p, m)
    exp, log, zech = extension_field_tables(p, m, F.modulus)
    assert F._exp == exp
    assert F._log == log
    assert F._zech == zech


def test_primitive_element_is_found_by_the_table_walk(monkeypatch):
    # a modulus that is not the default one has no tabled g: each candidate
    # is tested by its walk, which returns to 1 before q - 1 steps unless
    # it is primitive, with no polynomial power (Ben-Or's test, which
    # takes them, is stood in for by trial division)
    from jumploci import fields
    cases = (((1, 1, 0, 1, 1, 1, 1, 0, 1), 2, 9), ((2, 0, 1, 0, 1), 3, 12),
             ((5, 0, 0, 0, 1), 17, 309))
    for modulus, p, g in cases:
        assert is_irreducible_by_trial_division(p, list(modulus))
        assert modulus != irreducible_modulus(p, len(modulus) - 1)
        assert first_primitive(p, modulus) == g
    monkeypatch.setattr(fields, "_is_irreducible", lambda p, poly: True)
    monkeypatch.setattr(fields, "_powmod", None)
    for modulus, p, g in cases:
        assert ExtensionField(p, len(modulus) - 1, modulus).primitive() == g


# the sha256 of the embedding table of F_q in extension_of(F_q, e), recorded
# before the root search and the table ran on fields._horner: the first
# root of F_q's modulus in int order fixes every printed coordinate of an
# --ext locus over a non-prime base
EMBEDDING_DIGESTS = {
    (4, 2): "9b6f1e813d68772f9a644a6d64d3b46b34e2d55659dca4e24273f5275f9e5b17",
    (4, 3): "eb75b00f069d2428fe6a34f120afb7f6cdd6d4514e7f92d44a591b14a740200d",
    (8, 2): "9ed4e86cc8cbfc6d875af5e43b76aa27573e84a39b18070f65e8a0347e97fdd4",
    (8, 3): "a71165fd02ea663b907f571f98d658c405659e2c04c83048c1077da2fff4a246",
    (9, 2): "f72b2e5eceb770b8233b66e8ad89f5733ea0891bb86e835626e76cc670a69507",
    (9, 3): "9a5c095f639e788cef719363a62cef9b1e3e23a0c8b8d15bcc0c33d6e7902821",
    (16, 2): "512b518ea60d1ff9e594455cdf243eb44c0248869f905303beacb906ad0e9eac",
    (16, 3): "dffa8889dd6994ce6cfd9c64bf9f8d81ab5b63ee1aeeb606be64cb2472ba8bdf",
    (25, 2): "f41b8a8ebc74ef9b09e0af766f9b2142b97bf25f01e6921922a597c37ab66692",
    (25, 3): "6680ad181629e85e68dca5fbbf9e8705e5619f976b6592fe16e5ed489caf7902",
    (27, 2): "79f79e48340ef9cff65afdbd411d072995e969744b471932d717e49cbd48160b",
    (27, 3): "c002e8b75f702a20803c82c32c0d0f9ecc7f3edd3786d91fb3715f6d6f1cb2e1",
    (32, 2): "9e9a9b4790806767c00a76d73cc32db9d3b9b7b332f8018d943c8260a609f379",
    (32, 3): "4303a3f363ffe89137ea09a540da32ee9ab1aee999b7e2d83b765e0b22d713e5",
}


def test_tower_embeddings_are_pinned():
    assert all(q ** e <= _TABLE_CAP for q, e in EMBEDDING_DIGESTS)
    for (q, e), digest in EMBEDDING_DIGESTS.items():
        small = finite_field(q)
        text = " ".join(map(str, embedding(small, extension_of(small, e))))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (q, e)


def test_embedding_table_is_built_once_per_field_pair():
    # equal fields built apart share one table, so a plan per point set
    # costs one lookup, not a root search
    small, big = finite_field(4), extension_of(finite_field(4), 3)
    assert embedding(small, big) is embedding(ExtensionField(2, 2),
                                              finite_field(64))
    assert embedding(small, small) is None
    assert embedding(PrimeField(2), big) is None
    assert embedding(Rationals(), Rationals()) is None


@pytest.mark.parametrize("p, top", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_ben_or_agrees_with_trial_division(p, top):
    for d in range(top + 1):
        for poly in monic_polys(p, d):
            assert (_is_irreducible(p, poly)
                    == is_irreducible_by_trial_division(p, list(poly))), poly


def test_the_table_is_the_search_and_the_walk():
    # each entry is the first irreducible modulus, by trial division, and
    # the least primitive element modulo it, by powers
    keys = []
    for entry in _DEFAULTS.split():
        p, m = map(int, entry.split(":")[0].split("^"))
        keys.append((p, m))
        modulus = first_irreducible(p, m)
        assert _tabled(p, m) == (modulus, first_primitive(p, modulus))
    assert keys == _extension_orders(_TABLE_CAP)


def test_default_moduli_up_to_the_table_cap():
    """The default modulus of every extension order up to the cap, as the
    trial-division search found it before Ben-Or's test replaced it."""
    pairs = _extension_orders(_TABLE_CAP)
    text = ""
    for p, m in pairs:
        modulus = " ".join(map(str, irreducible_modulus(p, m)))
        text += "%d %d %s\n" % (p, m, modulus)
    assert len(pairs) == 119
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "727a2d1618b0648123029a821b5a2c8804ec59c606d8baaa96678781334779c5")
