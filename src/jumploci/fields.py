"""Exact coefficient fields: the rationals and finite fields F_{p^m}.

Field elements are plain Python values so that the hot loops (point
enumeration, Gaussian elimination) stay cheap:

  * rationals        -- ``fractions.Fraction``
  * F_p              -- ints in ``range(p)``
  * F_{p^m}, m >= 2  -- ints in ``range(p**m)``, encoding the coefficient
                        vector of the residue polynomial base p:
                        ``a = sum(c_i * p**i)`` represents ``sum(c_i * u**i)``.

All arithmetic goes through the field object; elements never carry their
field around.  Extension fields keep exp/log/Zech-logarithm tables of a
primitive element, built with a few list lookups per element, so each
operation is a list lookup or two; orders above ``_TABLE_CAP`` raise
ResourceLimitError.  The default modulus of each order up to the cap and
its primitive element are read from one shipped table, ``_DEFAULTS``, the
way computer-algebra systems ship Conway polynomials: a build searches
for neither.

Univariate polynomials over any of these fields, or over any object with
their operations (`smith.RationalFunctions`), are dense coefficient lists,
lowest degree first and trimmed, so [] is zero and len - 1 the degree.
One kit here serves every caller: `_mul`, `_submul` (x - q*y), `udivmod`,
`_gcd` (Euclid), `_powmod` (square and multiply modulo a polynomial) and
`_horner` (evaluation at many points).
"""

from fractions import Fraction
from functools import lru_cache
import operator

from .errors import InternalError, PreconditionError, ResourceLimitError

_TABLE_CAP = 2 ** 17  # largest extension-field order; covers F_{5^7}, F_{3^10}


def _prime_factors(n):
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def is_prime(n):
    """Miller-Rabin to the prime bases 2..41, which is exact below
    3317044064679887385961981 (Sorenson and Webster, 2017); a larger n is
    refused rather than guessed at."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or n in bases:
        return n in bases
    if any(n % b == 0 for b in bases):
        return False
    if n >= 3317044064679887385961981:
        raise ResourceLimitError(
            "%d is past 3317044064679887385961981, below which primality "
            "is decided exactly" % n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _root(q, m):
    """The integer r with r**m == q, or None: Newton's step from above."""
    r = 1 << -(-q.bit_length() // m)  # 2^ceil(bits/m) >= the m-th root
    while True:
        s = ((m - 1) * r + q // r ** (m - 1)) // m
        if s >= r:
            return r if r ** m == q else None
        r = s


def factor_prime_power(q):
    """Write q = p**m with p prime, or raise.  If q = p**m, the root of q
    for the largest m that has one is p, so that one root's primality
    decides: no q is trial-divided."""
    if q < 2:
        raise PreconditionError("field order must be at least 2, got %r" % (q,))
    for m in range(q.bit_length(), 0, -1):
        p = _root(q, m)
        if p is not None:
            if p > 1 and is_prime(p):
                return p, m
            break
    raise PreconditionError("%d is not a prime power" % q)


class Rationals:
    kind = "rationals"
    characteristic = 0
    is_finite = False

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def pow(self, a, e):
        return Fraction(a) ** e

    def from_int(self, n):
        return Fraction(n)

    def scalar_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "Q"


class PrimeField:
    kind = "prime-field"
    is_finite = True

    def __init__(self, p):
        if not is_prime(p):
            raise PreconditionError("%r is not prime" % (p,))
        self.p = p
        self.characteristic = p
        self.order = p
        self.degree = 1
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def pow(self, a, e):
        if e >= 0:
            return pow(a, e, self.p)
        if a == 0:
            raise ZeroDivisionError("negative power of 0")
        return pow(a, e % (self.p - 1), self.p)

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return range(self.p)

    def units(self):
        return range(1, self.p)

    def primitive(self):
        """A generator of the units: the least element of order p - 1."""
        n = self.p - 1
        return next(g for g in self.units()
                    if all(pow(g, n // r, self.p) != 1
                           for r in _prime_factors(n)))

    def scalar_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))

    def __repr__(self):
        return "F%d" % self.p


def _mul(F, a, b):
    """a*b on coefficient lists."""
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    add, mul = F.add, F.mul
    for i, c in enumerate(a):
        for j, v in enumerate(b, i):
            out[j] = add(out[j], mul(c, v))
    return out


def _submul(F, x, q, y):
    """x - q*y on coefficient lists."""
    out = x + [F.zero] * (len(q) + len(y) - 1 - len(x))
    sub, mul = F.sub, F.mul
    for i, c in enumerate(q):
        if c != F.zero:
            for j, b in enumerate(y, i):
                out[j] = sub(out[j], mul(c, b))
    while out and out[-1] == F.zero:
        out.pop()
    return out


def udivmod(F, a, b):
    """Quotient and remainder of the coefficient list a by b over F."""
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError("division by the zero polynomial")
    sub, mul, zero = F.sub, F.mul, F.zero
    lead_inv = F.inv(b[db])
    r = list(a)
    q = [zero] * (len(a) - db)  # [] when deg a < deg b
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db]
        if c != zero:
            q[k] = c = mul(c, lead_inv)
            for j in range(db):
                r[k + j] = sub(r[k + j], mul(c, b[j]))
    del r[db:]
    while r and r[-1] == zero:
        r.pop()
    return q, r


def _gcd(F, a, b):
    """A gcd of the coefficient lists a and b, not made monic: Euclid's
    last nonzero remainder."""
    while b:
        a, b = b, udivmod(F, a, b)[1]
    return a


def _powmod(F, a, e, f):
    """a**e mod f, e >= 0 and f of degree >= 1, on coefficient lists:
    square and multiply."""
    out = [F.one]
    while e:
        if e & 1:
            out = udivmod(F, _mul(F, out, a), f)[1]
        a = udivmod(F, _mul(F, a, a), f)[1]
        e >>= 1
    return out


def _horner(F, coeffs, values):
    """The coefficient list coeffs (not []) evaluated at each of `values`."""
    add, mul = F.add, F.mul
    acc = [coeffs[-1]] * len(values)
    for c in coeffs[-2::-1]:
        acc = [add(mul(a, b), c) for a, b in zip(acc, values)]
    return acc


def _is_irreducible(p, poly):
    """Whether the monic `poly` is irreducible over F_p: no root, and then
    Ben-Or's test (FOCS 1981): gcd(poly, x^(p^i) - x) = 1 for 2 <= i <= d/2,
    so a factor of degree i is found at step i."""
    d = len(poly) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    F = PrimeField(p)
    if F.zero in _horner(F, poly, range(p)):
        return False
    power = [0, 1]  # x^(p^i) mod poly, from i = 0
    for i in range(1, d // 2 + 1):
        power = _powmod(F, power, p, poly)
        if i == 1:
            continue  # gcd(poly, x^p - x) = 1: poly has no root
        if len(_gcd(F, poly, _submul(F, power, [1], [0, 1]))) > 1:
            return False
    return True


# "p^m:a:g" for each prime p and m >= 2 with p^m <= _TABLE_CAP: the default
# modulus of F_{p^m} is u^m + a, a in the int encoding, with the least a that
# makes it irreducible, and g is its first element of order p^m - 1 (the
# oracles of the tests search for both)
_DEFAULTS = (
    " 2^2:3:2 2^3:3:2 2^4:3:2 2^5:5:2 2^6:3:2 2^7:3:2 2^8:27:3 2^9:3:7"
    " 2^10:9:2 2^11:5:2 2^12:9:3 2^13:27:2 2^14:33:7 2^15:3:2 2^16:43:3"
    " 2^17:9:2 3^2:1:4 3^3:7:3 3^4:5:3 3^5:7:3 3^6:5:3 3^7:11:5 3^8:11:38"
    " 3^9:64:3 3^10:19:34 5^2:2:6 5^3:6:9 5^4:2:6 5^5:21:10 5^6:7:5 5^7:6:9"
    " 7^2:1:9 7^3:2:22 7^4:8:12 7^5:10:9 7^6:2:8 11^2:1:15 11^3:15:11"
    " 11^4:13:11 13^2:2:15 13^3:2:15 13^4:2:17 17^2:3:19 17^3:20:17 17^4:3:307"
    " 19^2:1:22 19^3:2:29 19^4:27:21 23^2:1:25 23^3:26:23 29^2:2:30 29^3:33:30"
    " 31^2:1:35 31^3:3:34 37^2:2:41 37^3:2:75 41^2:3:43 41^3:42:44 43^2:1:45"
    " 43^3:3:45 47^2:1:49 47^3:51:47 53^2:2:54 59^2:1:62 61^2:2:63 67^2:1:74"
    " 71^2:1:79 73^2:5:76 79^2:1:85 83^2:1:93 89^2:3:91 97^2:5:101 101^2:2:102"
    " 103^2:1:105 107^2:1:109 109^2:2:111 113^2:3:117 127^2:1:135 131^2:1:134"
    " 137^2:3:145 139^2:1:143 149^2:2:152 151^2:1:160 157^2:2:159 163^2:1:170"
    " 167^2:1:169 173^2:2:174 179^2:1:182 181^2:2:185 191^2:1:201 193^2:5:198"
    " 197^2:2:200 199^2:1:212 211^2:1:215 223^2:1:225 227^2:1:229 229^2:2:231"
    " 233^2:3:241 239^2:1:247 241^2:7:248 251^2:1:256 257^2:3:259 263^2:1:265"
    " 269^2:2:278 271^2:1:276 277^2:2:279 281^2:3:285 283^2:1:285 293^2:2:294"
    " 307^2:1:316 311^2:1:315 313^2:5:316 317^2:2:327 331^2:1:337 337^2:5:356"
    " 347^2:1:351 349^2:2:353 353^2:3:360 359^2:1:370 ")


def _tabled(p, m):
    """(modulus, g) of F_{p^m} from _DEFAULTS, for an order it holds."""
    at = _DEFAULTS.index(" %d^%d:" % (p, m))
    a, g = map(int, _DEFAULTS[at:_DEFAULTS.find(" ", at + 1)].split(":")[1:])
    return tuple(a // p ** i % p for i in range(m)) + (1,), g


def irreducible_modulus(p, m):
    """The first irreducible monic polynomial of degree m over F_p in
    ascending order of its lower coefficients read as a base-p number, the
    default modulus of F_{p^m}: read from _DEFAULTS, not searched for."""
    return _tabled(p, m)[0]


class ExtensionField:
    """F_{p^m} modulo an irreducible `modulus`, elements in the int encoding.

    Arithmetic reads lists built from the primitive element g (the first
    element of order n = q - 1 in the int encoding): ``_exp[k] = g^k``
    for k < 2n, so a sum of two logs needs no modulo; ``_log``, its inverse;
    and the Zech logarithms ``_zech[k] = log(1 + g^k)``, doubled so that a
    difference of two logs is an index.  So a*b = exp[log a + log b], a + b
    = exp[log a + zech[log b - log a]], and -a adds n/2 to log a (g^(n/2) =
    -1 for odd p; 0 when p = 2).  ``_log[0]``, and ``_zech[k]`` where
    1 + g^k = 0, are 2n, which lands in the zero tail ``_exp[2n:]``, so
    results that are 0 need no branch.

    Each power of g costs a few list lookups (`_build_tables`), not a
    polynomial product.  The default modulus and its g are read from
    _DEFAULTS, and g is walked once; a supplied modulus is tested by
    Ben-Or's test, and candidates for g by the walk, with no polynomial
    power: a candidate whose powers return to 1 early is discarded after
    as many steps as its order.  Builds are timed in README.md.
    """

    kind = "extension-field"
    is_finite = True

    def __init__(self, p, m, modulus=None):
        if m < 2:
            raise PreconditionError("extension degree must be >= 2, got %r" % (m,))
        # before p ** m is formed (m may be huge) or the table is read
        if m >= _TABLE_CAP.bit_length() or p ** m > _TABLE_CAP:
            raise ResourceLimitError(
                "F_%d^%d is larger than _TABLE_CAP = %d, the largest "
                "extension-field order that gets exp/log/Zech tables"
                % (p, m, _TABLE_CAP))
        if not is_prime(p):
            raise PreconditionError("%r is not prime" % (p,))
        default, g = _tabled(p, m)
        modulus = default if modulus is None else tuple(c % p for c in modulus)
        if modulus != default:
            g = None  # for the walk to find
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise PreconditionError("modulus must be monic of degree %d" % m)
            if not _is_irreducible(p, modulus):
                raise PreconditionError("supplied modulus is reducible over F_%d" % p)
        self.p = p
        self.m = m
        self.modulus = modulus
        self.characteristic = p
        self.degree = m
        self.order = p ** m
        self.zero = 0
        self.one = 1
        self._build_tables(g)

    # -- encoding ---------------------------------------------------------

    def vec(self, a):
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def _build_tables(self, g):
        p, m, q, n = self.p, self.m, self.order, self.order - 1
        # a -> a*g is F_p-linear.  With a = lo + P*hi, P = p^h, a*g is
        # lo*g + (P*hi)*g: two lookups, written in base R = 2p - 1 so that
        # their digit-wise sum carries nothing; its low and high h digits,
        # each reduced mod p, are the lo and hi of the next power.
        h = (m + 1) // 2
        P, R = p ** h, 2 * p - 1
        RH = R ** h
        weights = [R ** j for j in range(m)]

        def span(vectors):  # every sum of c_i * vectors[i], in base-p order
            out = [[0] * m]
            for v in vectors:
                out += [[(x + d * y) % p for x, y in zip(w, v)]
                        for d in range(1, p) for w in out]
            return [sum(map(operator.mul, w, weights)) for w in out]

        def mod_p(digits):  # base-R numeral, digits < R -> base p, mod p
            t = [0]
            for i in range(digits):
                t = [x + d % p * p ** i for d in range(R) for x in t]
            return t

        lo_of, hi_of = mod_p(h), mod_p(m - h)
        log = [2 * n] * q
        log[1] = 0

        def powers(g):
            """[g^0, ..., g^(n-1)], with log[g^k] = k, or None once a power
            g^k, 0 < k < n, is 1: g is primitive exactly when its powers
            first return to 1 at n.  The primitive walk writes the log of
            every unit, over whatever a discarded walk left."""
            basis = [list(self.vec(g))]  # u^i g, i < m: shift up, cancel u^m
            for _ in range(m - 1):
                v = basis[-1]
                basis.append([(a - v[-1] * c) % p
                              for a, c in zip([0] + v[:-1], self.modulus)])
            low, high = span(basis[:h]), span(basis[h:])
            exp = [1]
            append = exp.append
            lo, hi = 1, 0
            for k in range(1, n):
                s = low[lo] + high[hi]
                lo, hi = lo_of[s % RH], hi_of[s // RH]
                a = lo + P * hi
                if a == 1:
                    return None
                append(a)
                log[a] = k
            return exp

        # g tabled is walked once.  Else 0..p-1 is F_p, whose units have
        # order < n, and a discarded walk leaves a log below 2n on each
        # power of its candidate, a proper subgroup, so that no later
        # candidate in it is walked: each walk is of a subgroup not walked
        # before
        exp = next(filter(None, map(powers, [g] if g else (
            c for c in range(p, q) if log[c] == 2 * n))))
        # log(1 + a) for every a: 1 + a changes digit 0 only; log[0] = 2n
        # where 1 + a = 0
        log_succ = log[1:] + [0]
        log_succ[p - 1::p] = log[::p]
        zech = list(map(log_succ.__getitem__, exp))
        exp *= 2
        exp += [0] * (2 * n + 1)
        zech *= 2
        self._exp, self._log, self._zech, self._n = exp, log, zech, n
        self._half = n // 2 if p != 2 else 0

    # -- arithmetic -------------------------------------------------------

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la]]

    def sub(self, a, b):
        if not b:
            return a
        lb = self._log[b] + self._half
        if not a:
            return self._exp[lb]
        la = self._log[a]
        return self._exp[la + self._zech[lb - la]]

    def neg(self, a):
        return self._exp[self._log[a] + self._half]

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.order)
        return self._exp[self._n - self._log[a]]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of 0 in F_%d" % self.order)
            return 0 if e else 1
        return self._exp[self._log[a] * e % self._n]

    def from_int(self, n):
        return n % self.p  # constants embed as base-p digit 0

    def elements(self):
        return range(self.order)

    def units(self):
        return range(1, self.order)

    def primitive(self):
        """The generator g of the units whose powers the tables hold."""
        return self._exp[1]

    def scalar_str(self, a):
        parts = []
        for i, c in enumerate(self.vec(a)):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("u" if c == 1 else "%d*u" % c)
            else:
                parts.append("u^%d" % i if c == 1 else "%d*u^%d" % (c, i))
        if not parts:
            return "0"
        return " + ".join(reversed(parts))

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.p == self.p
                and other.m == self.m and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("extension-field", self.p, self.m, self.modulus))

    def __repr__(self):
        return "F%d" % self.order


def field_make(kind, p=None, m=None, modulus=None):
    """Build a field descriptor.

    kind: "rationals" | "prime-field" | "extension-field".
    An extension with m == 1 collapses to the prime field.
    """
    if kind == "rationals":
        return Rationals()
    if kind == "prime-field":
        return PrimeField(p)
    if kind == "extension-field":
        if m == 1:
            return PrimeField(p)
        return ExtensionField(p, m, modulus)
    raise PreconditionError("unknown field kind %r" % (kind,))


def finite_field(q):
    """F_q for a prime power q, with the default modulus when q is not prime."""
    p, m = factor_prime_power(q)
    return PrimeField(p) if m == 1 else ExtensionField(p, m)


def extension_of(field, e):
    """The degree-e extension of a finite field: the field itself for
    e == 1, else F_{p^(me)} with its default modulus."""
    if not field.is_finite:
        raise PreconditionError("extensions are only enumerated for finite fields")
    if e < 1:
        raise PreconditionError("extension degree must be >= 1")
    return field if e == 1 else ExtensionField(field.p, field.degree * e)


def embedding(source, target):
    """How the coefficients of `source` enter `target`, for Poly.evaluate
    and Matrix.evaluator: None where the int encoding is unchanged (equal
    fields, or a prime field, whose constants are digit 0, in a finite
    field of its characteristic); for F_{p^m} in F_{p^(me)}, the table of
    a -> its image, u sent to the least root of source.modulus in int
    order, built once per pair; else PreconditionError."""
    if source == target:
        return None
    if (source.is_finite and target.is_finite
            and source.characteristic == target.characteristic
            and target.degree % source.degree == 0):
        return None if source.degree == 1 else _least_root_table(source, target)
    raise PreconditionError("no embedding of %r into %r" % (source, target))


@lru_cache(maxsize=None)
def _least_root_table(small, big):
    # the roots of small.modulus lie in the copy of F_q in big, whose units
    # are the powers of g^((Q - 1)/(q - 1)): the least is the first root in
    # int order
    units = big._exp[:big._n:big._n // (small.order - 1)]
    root = min((c for c, v in zip(units, _horner(big, small.modulus, units))
                if v == big.zero), default=None)
    if root is None:
        raise InternalError("modulus has no root in the extension (impossible)")
    return tuple(_horner(big, small.vec(a), (root,))[0]
                 for a in small.elements())
