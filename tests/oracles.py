"""Independent oracles for derived expected values.

Everything here is deliberately written from scratch against the defining
formulas, without touching the package's own linear algebra, polynomial,
or calculus code paths; the reference Smith form runs on the package's
Poly arithmetic, which its Smith worker does not use, and so does the
token-at-a-time polynomial parser, where the package's parser multiplies
monomial factors out of Poly arithmetic.  Tests compute
expected values with these and freeze or compare them against the package.
The few constructions on the package's own matrices and complexes that
only the tests need (a determinant, a block sum, an acyclic summand) live
here too.
"""

from fractions import Fraction
from itertools import combinations

from jumploci.complexes import FreeChainComplex
from jumploci.errors import (ParseError, PreconditionError,
                             ResourceLimitError, UnsupportedRingError)
from jumploci.fields import embedding
from jumploci.matrices import Matrix, all_minors
from jumploci.rings import Ideal, Poly


# -- integer matrices mod p ---------------------------------------------------


def det_mod_p(rows, p):
    """Cofactor-expansion determinant of an int matrix, reduced mod p."""
    n = len(rows)
    if n == 0:
        return 1 % p
    if n == 1:
        return rows[0][0] % p
    total = 0
    for j in range(n):
        if rows[0][j] % p == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * rows[0][j] * det_mod_p(minor, p)
    return total % p


def rank_by_minors(rows, p):
    """Max s such that some s x s minor is nonzero mod p (exhaustive)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    best = 0
    for s in range(1, min(m, n) + 1):
        found = False
        for rs in combinations(range(m), s):
            for cs in combinations(range(n), s):
                sub = [[rows[i][j] for j in cs] for i in rs]
                if det_mod_p(sub, p) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = s
        else:
            break
    return best


def rank_fractions(rows):
    """Row-reduction rank over Q with Fractions (for rational inputs)."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    rank = 0
    row = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, len(m)):
            f = m[r][col] / m[row][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


# -- univariate polynomials as coefficient lists mod p ------------------------


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def upoly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def upoly_mod(a, b, p):
    a = [x % p for x in a]
    _trim(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and a:
        c = (a[-1] * inv) % p
        shift = len(a) - 1 - db
        for k in range(db + 1):
            a[shift + k] = (a[shift + k] - c * b[k]) % p
        _trim(a)
    return a


def upoly_gcd(a, b, p):
    """Monic gcd of coefficient lists mod p (Euclid)."""
    a = _trim([x % p for x in list(a)])
    b = _trim([x % p for x in list(b)])
    while b:
        a, b = b, upoly_mod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(x * inv) % p for x in a]
    return a


# -- finite fields F_{p^m} by one polynomial product per element --------------


def _digits(a, p, m):
    return [a // p ** i % p for i in range(m)]


def number(coeffs, p):
    """The int encoding of a coefficient list: sum c_i * p**i."""
    return sum(c * p ** i for i, c in enumerate(coeffs))


def is_irreducible_by_trial_division(p, poly):
    """Whether the monic coefficient list `poly` is irreducible over F_p:
    no root, and no monic factor of degree 2..d/2 that passes this same
    test."""
    d = len(poly) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    if any(sum(c * a ** i for i, c in enumerate(poly)) % p == 0
           for a in range(p)):
        return False
    for e in range(2, d // 2 + 1):
        for idx in range(p ** e):
            g = _digits(idx, p, e) + [1]
            if (is_irreducible_by_trial_division(p, g)
                    and not upoly_mod(list(poly), g, p)):
                return False
    return True


def extension_field_tables(p, m, modulus):
    """The exp, log and Zech-log lists of F_{p^m} = F_p[u]/(modulus) in the
    layout of `ExtensionField`, one polynomial product per power of g:
    g is the least int encoding whose powers first return to 1 at q - 1."""
    q, n = p ** m, p ** m - 1

    def times(a, b):
        prod = upoly_mul(_digits(a, p, m), _digits(b, p, m), p)
        return number(upoly_mod(prod, list(modulus), p), p)

    for g in range(p, q):
        powers, a = [1], g
        while a != 1:
            powers.append(a)
            a = times(a, g)
        if len(powers) == n:
            break
    log = [2 * n] * q
    for k, a in enumerate(powers):
        log[a] = k
    plus_one = [a - a % p + (a + 1) % p for a in range(q)]
    zech = [log[plus_one[a]] for a in powers]
    return powers * 2 + [0] * (2 * n + 1), log, zech * 2


def monic_polys(p, d):
    """All monic coefficient tuples of degree d over F_p, in ascending order
    of their lower coefficients read as a base-p number."""
    for idx in range(p ** d):
        yield tuple(_digits(idx, p, d)) + (1,)


def first_irreducible(p, m):
    """The first irreducible of monic_polys(p, m), by trial division: the
    default modulus of F_{p^m}."""
    return next(poly for poly in monic_polys(p, m)
                if is_irreducible_by_trial_division(p, list(poly)))


def first_primitive(p, modulus):
    """The least int encoding g of F_p[u]/(modulus) of order q - 1: g^(n/r)
    is not 1 for any prime r dividing n = q - 1, powered by products."""
    m = len(modulus) - 1
    n = p ** m - 1
    primes, k = set(), n
    for r in range(2, n + 1):
        while k % r == 0:
            primes.add(r)
            k //= r
        if k == 1:
            break

    def power(a, e):
        out = [1]
        for bit in bin(e)[2:]:
            out = upoly_mod(upoly_mul(out, out, p), list(modulus), p)
            if bit == "1":
                out = upoly_mod(upoly_mul(out, a, p), list(modulus), p)
        return out

    return next(g for g in range(p, n + 1)
                if all(power(_digits(g, p, m), n // r) != [1] for r in primes))


# -- quotient complexes by explicit bases --------------------------------------


def _rank_rows(rows, p):
    m = [[x % p for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    rank = 0
    row = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(row, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], p - 2, p)
        for r in range(row + 1, len(m)):
            f = (m[r][col] * inv) % p
            m[r] = [(a - f * b) % p for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


def _inverse_mod_p(rows, p):
    n = len(rows)
    aug = [[rows[i][j] % p for j in range(n)]
           + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = pow(aug[row][col], p - 2, p)
        aug[row] = [(x * inv) % p for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[row])]
        row += 1
    return [r[n:] for r in aug]


def _matmul_mod_p(a, b, p):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(m)]
            for i in range(n)]


def quotient_complex_dims(p, gens, relations, diffs):
    """Homology dimensions of a complex of quotient spaces k^{g_i}/im(R_i),
    built the pedestrian way: pick explicit complement bases, write the
    induced maps in those bases, take honest ranks.

    relations[i]: g_i x * int matrix; diffs[i]: g_{i-1} x g_i for i >= 1.
    """
    n = len(gens) - 1
    proj = []
    incl = []
    for i in range(n + 1):
        g = gens[i]
        cols = [[relations[i][r][c] for r in range(g)]
                for c in range(len(relations[i][0]) if relations[i] and relations[i][0] else 0)]
        # greedily extend a basis of the image by standard vectors
        chosen = []
        base = list(cols)
        for j in range(g):
            e = [1 if r == j else 0 for r in range(g)]
            if _rank_rows([list(v) for v in base + [e]], p) > _rank_rows(
                    [list(v) for v in base], p):
                base.append(e)
                chosen.append(j)
        # base spans k^g: [image basis | complement]; drop dependent columns
        im_basis = []
        for v in cols:
            if _rank_rows(im_basis + [v], p) > _rank_rows(im_basis, p):
                im_basis.append(v)
        full = im_basis + [[1 if r == j else 0 for r in range(g)]
                           for j in chosen]
        if g == 0:
            proj.append([])
            incl.append([])
            continue
        inv = _inverse_mod_p([[full[c][r] for c in range(g)]
                              for r in range(g)], p)
        proj.append(inv[len(im_basis):])  # quotient coordinates
        incl.append([[1 if r == j else 0 for j in chosen] for r in range(g)])
    dims = []
    q_dims = [len(proj[i]) for i in range(n + 1)]
    induced = []
    for i in range(1, n + 1):
        if q_dims[i - 1] == 0 or q_dims[i] == 0:
            induced.append([])
            continue
        m = _matmul_mod_p(_matmul_mod_p(proj[i - 1], diffs[i - 1], p),
                          incl[i], p)
        induced.append(m)
    for i in range(n + 1):
        r_out = _rank_rows(induced[i - 1], p) if i >= 1 else 0
        r_in = _rank_rows(induced[i], p) if i < n else 0
        dims.append(q_dims[i] - r_out - r_in)
    return dims


# -- Fox rules, computed by the defining recursion ----------------------------


def fox_rules(word, j, images, r):
    """Derivative of a word by the four rules, recursing on u v splits.

    word: tuple of (gen, +-1); images: per-generator exponent vectors in
    Z^r.  Returns a dict exponent-tuple -> int coefficient."""
    def image(w):
        out = [0] * r
        for g, e in w:
            for k in range(r):
                out[k] += e * images[g][k]
        return tuple(out)

    def add(d, mono, c):
        d[mono] = d.get(mono, 0) + c
        if d[mono] == 0:
            del d[mono]

    def deriv(w):
        if len(w) == 0:
            return {}
        if len(w) == 1:
            g, e = w[0]
            if g != j:
                return {}
            if e == 1:
                return {(0,) * r: 1}
            out = {}
            add(out, image(w), -1)  # -image(g_j^{-1}) = -image(g_j)^{-1}
            return out
        mid = len(w) // 2
        u, v = w[:mid], w[mid:]
        out = dict(deriv(u))
        iu = image(u)
        for mono, c in deriv(v).items():
            add(out, tuple(a + b for a, b in zip(iu, mono)), c)
        return out

    return deriv(tuple(word))


# -- truncated expansion via (constant, linear, quadratic) triples -------------


def magnus_triple(word, n):
    """Expansion of a word to degree 2 as (c, lin[n], quad[n][n]) ints."""
    c, lin, quad = 1, [0] * n, [[0] * n for _ in range(n)]

    def mul(t1, t2):
        c1, l1, q1 = t1
        c2, l2, q2 = t2
        c = c1 * c2
        lin = [c1 * y + x * c2 for x, y in zip(l1, l2)]
        quad = [[c1 * q2[i][j] + q1[i][j] * c2 + l1[i] * l2[j]
                 for j in range(n)] for i in range(n)]
        return c, lin, quad

    acc = (c, lin, quad)
    for g, e in word:
        lg = [0] * n
        lg[g] = 1 if e == 1 else -1
        qg = [[0] * n for _ in range(n)]
        if e == -1:
            qg[g][g] = 1
        acc = mul(acc, (1, lg, qg))
    return acc


# -- module Groebner bases by plain Buchberger ---------------------------------


def _m_add(F, a, b):
    out = dict(a)
    for k, c in b.items():
        s = F.add(out.get(k, F.zero), c)
        if s == F.zero:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _m_scale_term(F, v, mono, coeff):
    return {(comp, tuple(x + y for x, y in zip(e, mono))): F.mul(c, coeff)
            for (comp, e), c in v.items()}


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def module_normal_form(F, v, basis, key):
    """Remainder of v on division by basis, a list of (element, lead)."""
    remainder = {}
    work = dict(v)
    while work:
        lt = max(work, key=key)
        comp, mono = lt
        for g, (gcomp, gmono) in basis:
            if gcomp == comp and _divides(gmono, mono):
                factor = F.neg(F.div(work[lt], g[(gcomp, gmono)]))
                work = _m_add(F, work, _m_scale_term(
                    F, g, tuple(a - b for a, b in zip(mono, gmono)), factor))
                break
        else:
            remainder[lt] = work.pop(lt)
    return remainder


def ideal_normal_form(ideal_gb, p):
    """Normal form of p against a Groebner basis (list of Poly or Ideal)
    under its ring's monomial order: module_normal_form in one component."""
    gens = ideal_gb.generators if isinstance(ideal_gb, Ideal) else ideal_gb
    monokey = p.ring.monomial_key()
    key = lambda term: monokey(term[1])
    basis = []
    for g in gens:
        v = {(0, e): c for e, c in g.terms.items()}
        basis.append((v, max(v, key=key)))
    r = module_normal_form(p.ring.field, {(0, e): c for e, c in p.terms.items()},
                           basis, key)
    return Poly(p.ring, {e: c for (_, e), c in r.items()})


def s_polynomial(F, a, b, key):
    """S-polynomial of two monic module elements with leads in one
    component."""
    (_, ea), (_, eb) = max(a, key=key), max(b, key=key)
    lcm = tuple(max(x, y) for x, y in zip(ea, eb))
    return _m_add(F, _m_scale_term(F, a, tuple(x - y for x, y in zip(lcm, ea)),
                                   F.one),
                  _m_scale_term(F, b, tuple(x - y for x, y in zip(lcm, eb)),
                                F.neg(F.one)))


def _m_normalize(F, v, key):
    inv = F.inv(v[max(v, key=key)])
    return {k: F.mul(inv, c) for k, c in v.items()}


def _pure_component(v):
    comps = {comp for (comp, _) in v}
    return comps.pop() if len(comps) == 1 else None


def reference_module_groebner(field, gens, key):
    """Reduced Groebner basis of the submodule spanned by gens (dicts
    (component, exponent) -> coefficient) under the module order `key`.

    Plain Buchberger: every same-component pair is reduced, in order of
    lcm degree, and only the coprime criterion of one-component elements
    skips any.  No resource bounds.  Returns the basis sorted by lead.
    """
    F = field
    basis = []
    for g in gens:
        if g:
            g = _m_normalize(F, g, key)
            basis.append((g, max(g, key=key), _pure_component(g)))

    def make_pairs(new):
        out = []
        ci, ei = basis[new][1]
        for t in range(new):
            ct, et = basis[t][1]
            if ct != ci:
                continue
            if (basis[new][2] is not None and basis[t][2] is not None
                    and all(min(a, b) == 0 for a, b in zip(ei, et))):
                continue
            out.append((sum(max(a, b) for a, b in zip(ei, et)), new, t))
        return out

    pairs = [p for idx in range(len(basis)) for p in make_pairs(idx)]
    reducers = [(g, lead) for (g, lead, _) in basis]
    while pairs:
        pairs.sort(key=lambda p: p[0], reverse=True)
        _, i, j = pairs.pop()
        gi, gj = basis[i][0], basis[j][0]
        r = module_normal_form(F, s_polynomial(F, gi, gj, key), reducers, key)
        if r:
            r = _m_normalize(F, r, key)
            basis.append((r, max(r, key=key), _pure_component(r)))
            reducers.append((r, basis[-1][1]))
            pairs.extend(make_pairs(len(basis) - 1))
    minimal = []
    for idx, (g, lead, _) in enumerate(basis):
        if not any(lead2[0] == lead[0] and _divides(lead2[1], lead[1])
                   and not (lead2[1] == lead[1] and jdx > idx)
                   for jdx, (_, lead2, _) in enumerate(basis) if jdx != idx):
            minimal.append((g, lead))
    reduced = []
    for idx, (g, lead) in enumerate(minimal):
        tail = dict(g)
        tail.pop(lead)
        r = module_normal_form(F, tail, minimal[:idx] + minimal[idx + 1:], key)
        r[lead] = F.one
        reduced.append((r, lead))
    reduced.sort(key=lambda gl: key(gl[1]))
    return [g for g, _ in reduced]


# -- constructions on polynomial matrices and free complexes ------------------


def det(matrix):
    """Determinant of a square matrix: its one full-size minor, 1 when 0x0."""
    return (all_minors(matrix, matrix.nrows) or [matrix.ring.one()])[0]


def block_diag(a, b):
    if a.ring != b.ring:
        raise PreconditionError("blocks over different rings")
    ring = a.ring
    z = ring.zero()
    rows = []
    for i in range(a.nrows):
        rows.append(list(a.entries[i]) + [z] * b.ncols)
    for i in range(b.nrows):
        rows.append([z] * a.ncols + list(b.entries[i]))
    return Matrix(ring, a.nrows + b.nrows, a.ncols + b.ncols, rows)


def add_acyclic_summand(E, m):
    """Direct-sum an elementary acyclic complex (identity S -> S in degrees
    m, m-1) onto a free complex; homology is unchanged."""
    if not (1 <= m <= E.top):
        raise PreconditionError("summand degree out of range")
    ring = E.ring
    ranks = list(E.ranks)
    ranks[m] += 1
    ranks[m - 1] += 1
    diffs = []
    for i in range(1, E.top + 1):
        d = E.differential(i)
        if i == m:
            rows = [list(r) + [ring.zero()] for r in d.entries]
            rows.append([ring.zero()] * d.ncols + [ring.one()])
            diffs.append(Matrix(ring, d.nrows + 1, d.ncols + 1, rows))
        elif i == m + 1:
            rows = [list(r) for r in d.entries]
            rows.append([ring.zero()] * d.ncols)
            diffs.append(Matrix(ring, d.nrows + 1, d.ncols, rows))
        elif i == m - 1:
            rows = [list(r) + [ring.zero()] for r in d.entries]
            diffs.append(Matrix(ring, d.nrows, d.ncols + 1, rows))
        else:
            diffs.append(d)
    return FreeChainComplex(ring, ranks, diffs)


# -- graded algebras over an extension field -----------------------------------


def base_change(A, field):
    """The graded algebra A over an extension `field`, each structure
    constant mapped in through the table of fields.embedding (None: the
    encoding is unchanged, as for a prime field inside its extensions).
    Its loci are enumerated over `field` as the algebra's own field."""
    table = embedding(A.field, field)
    mult = {key: [[[c if table is None else table[c] for c in vec]
                   for vec in row] for row in block]
            for key, block in A.mult.items()}
    return type(A)(field, A.dims, mult)


# -- the Smith form on generic Poly arithmetic --------------------------------
#
# The Euclidean elimination of `jumploci.smith` as it ran on Poly entries
# before it moved to coefficient lists: the same pivots, and the same row
# and column operations in the same order, done with Poly's own +, - and *.
# So U, D, V, V^{-1} and the divisors must agree entry by entry.


def udeg(p):
    """Degree of a univariate polynomial; -1 for zero."""
    if not p.terms:
        return -1
    return max(e[0] for e in p.terms)


def umin(p):
    if not p.terms:
        return 0
    return min(e[0] for e in p.terms)


def ucoeff(p, k):
    return p.terms.get((k,), p.ring.field.zero)


def udivmod(a, b):
    """Division with remainder in k[t] (entries must be ordinary)."""
    F = a.ring.field
    db = udeg(b)
    if db < 0:
        raise ZeroDivisionError("division by the zero polynomial")
    lead_inv = F.inv(ucoeff(b, db))
    if db == 0:
        return a.scale(lead_inv), a.ring.zero()
    q = a.ring.zero()
    r = a
    while not r.is_zero() and udeg(r) >= db:
        d = udeg(r)
        c = F.mul(ucoeff(r, d), lead_inv)
        qt = Poly(a.ring, {(d - db,): c})
        q = q + qt
        r = r - qt * b
    return q, r


class _Worker:
    """Euclidean elimination on a copy of `matrix`.  With `transforms`, U, V
    and V^{-1} are kept alongside; without, only the diagonal is wanted and
    u, v and vinv are None."""

    def __init__(self, matrix, transforms=True):
        ring = matrix.ring
        self.ring = ring
        self.m = matrix.nrows
        self.n = matrix.ncols
        self.a = [list(row) for row in matrix.entries]
        self.u = self.v = self.vinv = None
        if transforms:
            self.u = [list(row) for row in Matrix.identity(ring, self.m).entries]
            self.v = [list(row) for row in Matrix.identity(ring, self.n).entries]
            self.vinv = [list(row) for row in Matrix.identity(ring, self.n).entries]
        # the grids each row operation and each column operation acts on
        self.row_grids = [g for g in (self.a, self.u) if g is not None]
        self.col_grids = [g for g in (self.a, self.v) if g is not None]

    # invariant:  a == u * a_orig * v   and   v * vinv == 1

    def row_swap(self, i, j):
        if i == j:
            return
        for g in self.row_grids:
            g[i], g[j] = g[j], g[i]

    def col_swap(self, i, j):
        if i == j:
            return
        for g in self.col_grids:
            for r in g:
                r[i], r[j] = r[j], r[i]
        if self.vinv is not None:
            self.vinv[i], self.vinv[j] = self.vinv[j], self.vinv[i]

    def row_addmul(self, i, j, q):
        """row_i += q * row_j"""
        if q.is_zero():
            return
        for g in self.row_grids:
            g[i] = [x + q * y if y.terms else x for x, y in zip(g[i], g[j])]

    def col_addmul(self, i, j, q):
        """col_i += q * col_j"""
        if q.is_zero():
            return
        for g in self.col_grids:
            for r in g:
                if r[j].terms:
                    r[i] = r[i] + q * r[j]
        if self.vinv is not None:
            self.vinv[j] = [x - q * y for x, y in zip(self.vinv[j], self.vinv[i])]

    def row_scale(self, i, unit):
        for g in self.row_grids:
            g[i] = [unit * x for x in g[i]]

    def _find_min(self, k):
        best = None
        for i in range(k, self.m):
            for j in range(k, self.n):
                p = self.a[i][j]
                if not p.is_zero():
                    d = udeg(p)
                    if best is None or d < best[0]:
                        best = (d, i, j)
        return best

    def run(self):
        k = 0
        limit = min(self.m, self.n)
        while k < limit:
            found = self._find_min(k)
            if found is None:
                break
            _, i, j = found
            self.row_swap(k, i)
            self.col_swap(k, j)
            dirty = False
            pivot = self.a[k][k]
            for i in range(k + 1, self.m):
                if not self.a[i][k].is_zero():
                    q, r = udivmod(self.a[i][k], pivot)
                    self.row_addmul(i, k, -q)
                    if not r.is_zero():
                        dirty = True
            if dirty:
                continue
            for j in range(k + 1, self.n):
                if not self.a[k][j].is_zero():
                    q, r = udivmod(self.a[k][j], pivot)
                    self.col_addmul(j, k, -q)
                    if not r.is_zero():
                        dirty = True
            if dirty:
                continue
            # pivot row and column are clear; enforce divisibility of the rest
            offender = self._indivisible_row(k, pivot)
            if offender is not None:
                self.row_addmul(k, offender, self.ring.one())
                continue
            k += 1

    def _indivisible_row(self, k, pivot):
        """A row below k with an entry the pivot does not divide, or None
        (always None for a constant pivot, a unit)."""
        if udeg(pivot) == 0:
            return None
        for i in range(k + 1, self.m):
            for j in range(k + 1, self.n):
                if not self.a[i][j].is_zero():
                    _, r = udivmod(self.a[i][j], pivot)
                    if not r.is_zero():
                        return i
        return None


def _diagonalize(matrix, transforms):
    """Run the elimination and normalize the diagonal: monic, and (Laurent)
    lowest exponent 0.  Returns the worker and the nonzero divisors."""
    ring = matrix.ring
    if ring.nvars != 1:
        raise UnsupportedRingError(
            "Smith normal form requires a univariate ring, got %d variables"
            % ring.nvars)
    w = _Worker(matrix, transforms)
    if ring.laurent:
        for i in range(w.m):
            shift = min((umin(p) for p in w.a[i] if not p.is_zero()), default=0)
            if shift < 0:
                w.row_scale(i, Poly(ring, {(-shift,): ring.field.one}))
    w.run()
    F = ring.field
    divisors = []
    for k in range(min(w.m, w.n)):
        p = w.a[k][k]
        if p.is_zero():
            continue
        shift = umin(p) if ring.laurent else 0
        lead = ucoeff(p, udeg(p))
        w.row_scale(k, Poly(ring, {(-shift,): F.inv(lead)}))
        divisors.append(w.a[k][k])
    return w, tuple(divisors)


def reference_smith_form(matrix):
    """Smith normal form U*A*V = D over a univariate (Laurent) polynomial ring.

    Returns (U, D, V, V^{-1}, divisors), the divisors forming the chain
    d_1 | d_2 | ..., normalized to monic with lowest exponent 0 (Laurent).
    U and V are invertible over the ring; V's inverse is included.
    """
    w, divisors = _diagonalize(matrix, True)
    ring = matrix.ring
    return (Matrix(ring, w.m, w.m, w.u), Matrix(ring, w.m, w.n, w.a),
            Matrix(ring, w.n, w.n, w.v), Matrix(ring, w.n, w.n, w.vinv),
            divisors)


# -- polynomial strings, parsed a token at a time ---------------------------


class Tokenizer:
    SYMBOLS = ("+", "-", "*", "^", "(", ")")

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def next_token(self):
        ch = self.peek()
        if ch is None:
            return None
        if ch in self.SYMBOLS:
            self.pos += 1
            return ch
        if ch.isdecimal():  # what int() reads; isdigit() also takes "²"
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdecimal():
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] == "/":
                self.pos += 1
                den = self.pos
                while self.pos < len(self.text) and self.text[self.pos].isdecimal():
                    self.pos += 1
                if self.pos == den:
                    raise ParseError("fraction %r has no denominator"
                                     % self.text[start:self.pos], self.pos)
            return self.text[start:self.pos]
        if ch.isalpha() or ch == "_":
            start = self.pos
            while (self.pos < len(self.text)
                   and (self.text[self.pos].isalnum() or self.text[self.pos] == "_")):
                self.pos += 1
            return self.text[start:self.pos]
        raise ParseError("unexpected character %r" % ch, self.pos)


class PolyParser:
    """The oracle of rings.parse_poly: a lexer that reads one token ahead,
    and recursive descent in Poly arithmetic, for the canonical form.

    expr    := term (('+'|'-') term)*
    term    := factor ('*'? factor)*      (juxtaposition not allowed; '*' required
                                           except for a leading sign)
    factor  := number | name ('^' int)? | '(' expr ')'
    The name 'u' denotes the generator of an extension coefficient field.

    A power is expanded only when its estimated size is at most
    MAX_POWER_SIZE: the product over the variables of (exponent x the
    base's exponent spread + 1), which bounds its terms, times over Q the
    exponent x the bits of the base's longest numerator or denominator,
    which bounds the bits of its coefficients.
    """

    MAX_POWER_SIZE = 2048

    def __init__(self, ring, text):
        self.ring = ring
        self.tok = Tokenizer(text)
        self.current = self.tok.next_token()

    def advance(self):
        self.current = self.tok.next_token()

    def expect(self, sym):
        if self.current != sym:
            raise ParseError("expected %r, found %r" % (sym, self.current), self.tok.pos)
        self.advance()

    def parse(self):
        p = self.expr()
        if self.current is not None:
            raise ParseError("trailing input %r" % self.current, self.tok.pos)
        return p

    def expr(self):
        if self.current == "-":
            self.advance()
            acc = -self.term()
        else:
            if self.current == "+":
                self.advance()
            acc = self.term()
        while self.current in ("+", "-"):
            op = self.current
            self.advance()
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self):
        acc = self.factor()
        while self.current == "*":
            self.advance()
            acc = acc * self.factor()
        return acc

    def factor(self):
        tok = self.current
        if tok is None:
            raise ParseError("unexpected end of input", self.tok.pos)
        if tok in self.tok.SYMBOLS and tok != "(":
            raise ParseError("unexpected token %r" % tok, self.tok.pos)
        if tok == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return self._maybe_power(inner)
        if tok[0].isdecimal():
            self.advance()
            if "/" in tok:
                F = self.ring.field
                num, den = (F.from_int(self._int(n)) for n in tok.split("/"))
                if den == F.zero:
                    raise ParseError("zero denominator in %r over %r" % (tok, F),
                                     self.tok.pos)
                c = F.div(num, den)
            else:
                c = self.ring.field.from_int(self._int(tok))
            return self._maybe_power(self.ring.const(c))
        # a name: ring variable or the extension generator u
        self.advance()
        if tok in self.ring.variables:
            base = self.ring.var(self.ring.variables.index(tok))
            exp = self._power_suffix()
            if exp is None:
                return base
            if exp < 0 and not self.ring.laurent:
                raise ParseError("negative exponent in a non-Laurent ring", self.tok.pos)
            e = [0] * self.ring.nvars
            e[self.ring.variables.index(tok)] = exp
            return self.ring.monomial(e)
        if tok == "u" and getattr(self.ring.field, "kind", None) == "extension-field":
            F = self.ring.field
            gen = number((0, 1), F.p) if F.m >= 2 else F.one
            exp = self._power_suffix()
            c = F.pow(gen, exp if exp is not None else 1)
            return self.ring.const(c)
        raise ParseError("unknown name %r" % tok, self.tok.pos)

    def _power_suffix(self):
        if self.current != "^":
            return None
        self.advance()
        neg = False
        if self.current == "-":
            neg = True
            self.advance()
        if self.current is None or not self.current.lstrip("-").isdecimal():
            raise ParseError("expected integer exponent", self.tok.pos)
        val = self._int(self.current)
        self.advance()
        return -val if neg else val

    def _int(self, digits):
        try:
            return int(digits)
        except ValueError as exc:  # past sys.get_int_max_str_digits()
            raise ParseError("integer literal too long: %s" % exc, self.tok.pos)

    def _maybe_power(self, base):
        exp = self._power_suffix()
        if exp is None:
            return base
        if exp < 0 and not base.is_unit():
            raise ParseError("negative power of a non-unit", self.tok.pos)
        self._check_power_size(base, abs(exp))
        if exp < 0:
            if not any(map(any, base.terms)):  # a constant
                return self.ring.const(self.ring.field.pow(base.constant_value(), exp))
            (e, c), = base.terms.items()
            return Poly(self.ring, {tuple(x * exp for x in e):
                                    self.ring.field.pow(c, exp)})
        return base ** exp

    def _check_power_size(self, base, n):
        """Refuse base^n, n >= 0, when its size passes MAX_POWER_SIZE."""
        if not base.terms:
            return
        size = 1
        for column in zip(*base.terms):
            size *= n * (max(column) - min(column)) + 1
        if self.ring.field.characteristic == 0:
            size *= n * max(max(abs(c.numerator), c.denominator).bit_length()
                            for c in base.terms.values())
        if size > self.MAX_POWER_SIZE:
            raise ResourceLimitError(
                "a power of size %d (terms, times coefficient bits over Q) "
                "is past MAX_POWER_SIZE = %d" % (size, self.MAX_POWER_SIZE))


def parse_poly_by_tokens(ring, text):
    return PolyParser(ring, text).parse()
