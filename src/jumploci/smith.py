"""Smith normal form over k[t] and k[t^{+-1}].

Both rings are PIDs; the algorithm is the classical Euclidean one.  Row
operations act on the matrix alone; column operations are also kept as V
and V^{-1} when the caller asks for them, so the columns of A V past the
divisors are zero and the matching columns of V span ker A.  It runs on
the coefficient lists of `fields`, through that module's kit and the
field's own operations.  The worker takes rows of term dicts: a Matrix
gives its entries' terms and gets Poly entries back once on exit, while
the fibered route of `complexes` hands it the term dicts of a
Matrix.evaluator plan and keeps the divisors as lists, so no Poly or
Matrix is built per head.  Laurent input is first cleared by row shifts
(unit scalings), so the elimination itself always runs on ordinary
polynomials.  Divisors are normalized per the ring: monic, and for
Laurent rings additionally shifted so the lowest exponent is 0.

The same worker runs over F(x), the rational functions in one more
variable (`RationalFunctions`), for a matrix over F[x][y]:
`divisors_at_heads` eliminates once and reads the divisors of M(h, y)
off the generic ones at every head h where nothing the elimination
inverted vanishes (the specialization argument of comprehensive Groebner
systems, Weispfenning 1992), and leaves the other heads to their own
Smith form.

Over Z itself there is one column reduction, `integer_column_echelon`:
`NuData` checks with it that a map is onto, and the orbit route of
`complexes` solves its weight lattices with it.
"""

from collections import namedtuple
from math import isqrt

from .errors import UnsupportedRingError
from .fields import _gcd, _horner, _mul, _submul, udivmod
from .matrices import Matrix
from .rings import Poly


def _dense(F, terms, shift=0):
    """The coefficient list of t^shift times a univariate term dict
    {(e,): c} as Poly.terms holds it (no zero c; every e + shift >= 0)."""
    if not terms:
        return []
    c = [F.zero] * (max(terms)[0] + shift + 1)
    for (e,), v in terms.items():
        c[e + shift] = v
    return c


def _poly(ring, c):
    """The Poly of the coefficient list c."""
    zero = ring.field.zero
    return Poly(ring, {(e,): v for e, v in enumerate(c) if v != zero})


class SmithForm(namedtuple("SmithForm", "V divisors V_inv")):
    """The divisors d_1 | d_2 | ... of A and a unimodular V with V V_inv = 1
    such that A V is zero past its first len(divisors) columns."""
    __slots__ = ()


def _identity(F, n):
    """The n x n identity as coefficient lists."""
    return [[[F.one] if i == j else [] for j in range(n)] for i in range(n)]


class _Worker:
    """Euclidean elimination on coefficient lists over the field F.  Row i
    of `rows` (term dicts) enters times t^shifts[i], shifts[i] >= 0.  With
    `transforms`, V and V^{-1} are kept alongside; without, only the
    diagonal is wanted and v and vinv are None.  The nonzero pivots end in
    positions 0..k-1, and every other entry of a is zero."""

    def __init__(self, F, rows, ncols, shifts, transforms):
        self.F = F
        self.m, self.n = len(rows), ncols
        self.a = [[_dense(F, terms, s) for terms in row]
                  for row, s in zip(rows, shifts)]
        self.v = self.vinv = None
        if transforms:
            self.v = _identity(F, self.n)
            self.vinv = _identity(F, self.n)
        # the grids each column operation acts on
        self.col_grids = [self.a] if self.v is None else [self.a, self.v]

    # invariant:  a == (row operations) * a_orig * v   and   v * vinv == 1

    def row_swap(self, i, j):
        self.a[i], self.a[j] = self.a[j], self.a[i]

    def col_swap(self, i, j):
        for g in self.col_grids:
            for r in g:
                r[i], r[j] = r[j], r[i]
        if self.vinv is not None:
            self.vinv[i], self.vinv[j] = self.vinv[j], self.vinv[i]

    def row_submul(self, i, j, q):
        """row_i -= q * row_j"""
        F = self.F
        self.a[i] = [_submul(F, x, q, y) if y else x
                     for x, y in zip(self.a[i], self.a[j])]

    def col_submul(self, i, j, q):
        """col_i -= q * col_j"""
        F = self.F
        for g in self.col_grids:
            for r in g:
                if r[j]:
                    r[i] = _submul(F, r[i], q, r[j])
        if self.vinv is not None:
            minus_q = [F.neg(c) for c in q]
            self.vinv[j] = [_submul(F, x, minus_q, y) if y else x
                            for x, y in zip(self.vinv[j], self.vinv[i])]

    def _find_min(self, k):
        best = None
        for i in range(k, self.m):
            for j in range(k, self.n):
                p = self.a[i][j]
                if p and (best is None or len(p) < best[0]):
                    best = (len(p), i, j)
        return best

    def run(self):
        F = self.F
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
                if self.a[i][k]:
                    q, r = udivmod(F, self.a[i][k], pivot)
                    self.row_submul(i, k, q)
                    if r:
                        dirty = True
            if dirty:
                continue
            for j in range(k + 1, self.n):
                if self.a[k][j]:
                    q, r = udivmod(F, self.a[k][j], pivot)
                    self.col_submul(j, k, q)
                    if r:
                        dirty = True
            if dirty:
                continue
            # pivot row and column are clear; enforce divisibility of the rest
            offender = self._indivisible_row(k, pivot)
            if offender is not None:
                self.row_submul(k, offender, [F.neg(F.one)])
                continue
            k += 1

    def _indivisible_row(self, k, pivot):
        """A row below k with an entry the pivot does not divide, or None
        (always None for a constant pivot, a unit)."""
        if len(pivot) == 1:
            return None
        for i in range(k + 1, self.m):
            for j in range(k + 1, self.n):
                if self.a[i][j] and udivmod(self.F, self.a[i][j], pivot)[1]:
                    return i
        return None


def _rows(matrix):
    """The entries of a matrix over a univariate ring as term dicts."""
    if matrix.ring.nvars != 1:
        raise UnsupportedRingError(
            "Smith normal form requires a univariate ring, got %d variables"
            % matrix.ring.nvars)
    return [[p.terms for p in row] for row in matrix.entries]


def _diagonalize(F, laurent, rows, ncols, transforms):
    """Run the elimination on `rows`, term dicts in one variable over the
    field F (Laurent when `laurent`), and normalize the diagonal: monic,
    and (Laurent) lowest exponent 0.  Returns the worker and the nonzero
    divisors as coefficient lists."""
    # each row of a Laurent matrix times the least t^s, s >= 0, that leaves
    # no negative exponent: a unit scaling
    shifts = ([-min([min(terms)[0] for terms in row if terms] + [0])
               for row in rows] if laurent else [0] * len(rows))
    w = _Worker(F, rows, ncols, shifts, transforms)
    w.run()
    divisors = []
    for k in range(min(w.m, w.n)):
        p = w.a[k][k]
        if not p:
            break
        shift = 0
        while laurent and p[shift] == F.zero:
            shift += 1
        lead_inv = F.inv(p[-1])
        divisors.append([F.mul(lead_inv, c) for c in p[shift:]])
    return w, divisors


def smith_normal_form(matrix):
    """Smith normal form of a matrix A over a univariate (Laurent)
    polynomial ring.

    Returns a SmithForm whose divisors form the divisibility chain
    d_1 | d_2 | ..., normalized to monic with lowest exponent 0 (Laurent),
    and a V invertible over the ring, with its inverse, such that A V
    equals diag(divisors) up to a row transform invertible over the ring:
    its columns past the divisors are zero, so they span ker A.
    """
    ring = matrix.ring
    w, divisors = _diagonalize(ring.field, ring.laurent, _rows(matrix),
                               matrix.ncols, True)

    def back(grid):
        return Matrix(ring, w.n, w.n, [[_poly(ring, c) for c in row]
                                       for row in grid])
    return SmithForm(V=back(w.v), V_inv=back(w.vinv),
                     divisors=tuple(_poly(ring, c) for c in divisors))


def _dense_divisors(ring, rows, ncols):
    """The invariant factors of `rows`, term dicts over the univariate
    `ring`, as coefficient lists, lowest degree first."""
    return _diagonalize(ring.field, ring.laurent, rows, ncols, False)[1]


def smith_divisors(matrix):
    """The invariant factors of `matrix` alone, equal to
    smith_normal_form(matrix).divisors, without the V and V^{-1}
    bookkeeping.  Over a PID, rank A(b) is the number of them that do not
    vanish at b, for every b where the ring's units stay units."""
    ring = matrix.ring
    return tuple(_poly(ring, c)
                 for c in _dense_divisors(ring, _rows(matrix), matrix.ncols))


class _Swell(Exception):
    """A numerator or denominator of a shared elimination passed its bound."""


class RationalFunctions:
    """The field F(x), for the Smith worker and udivmod.  An element is a
    pair (num, den) of coprime coefficient lists over F, den monic, so
    equal elements are equal pairs.  `guards` collects polynomials in x:
    the num and the den of every element inverted, and the den of every
    entry read by `of_terms`.  An element whose num or den passes x-degree
    floor(sqrt(q)) raises _Swell: from there the shared elimination costs
    more than the q Smith forms over F[y] it replaces."""

    def __init__(self, F):
        self.F = F
        self.bound = isqrt(F.order)
        self.zero = ([], [F.one])
        self.one = ([F.one], [F.one])
        self.guards = []
        self._minus_one = [F.neg(F.one)]

    def _make(self, num, den):
        """num/den in lowest terms, den monic."""
        F = self.F
        if not num:
            return self.zero
        if len(den) > 1:
            g = _gcd(F, num, den)
            if len(g) > 1:
                num, den = udivmod(F, num, g)[0], udivmod(F, den, g)[0]
        if den[-1] != F.one:
            c = F.inv(den[-1])
            num, den = [F.mul(c, v) for v in num], [F.mul(c, v) for v in den]
        if len(num) > self.bound + 1 or len(den) > self.bound + 1:
            raise _Swell
        return num, den

    def of_terms(self, terms):
        """A term dict {(ex, ey): c} over F[x, y] (or F[x^±1, y^±1]) as
        {(ey,): the coefficient of y^ey in F(x)}."""
        F = self.F
        by_y = {}
        for (ex, ey), c in terms.items():
            by_y.setdefault(ey, {})[ex] = c
        out = {}
        for ey, col in by_y.items():
            low = min(min(col), 0)
            num = [F.zero] * (max(col) - low + 1)
            for ex, c in col.items():
                num[ex - low] = c
            den = [F.zero] * -low + [F.one]
            if low:
                self.guards.append(den)
            out[(ey,)] = self._make(num, den)
        return out

    def add(self, a, b):
        return self._combine(a, self._minus_one, b)

    def sub(self, a, b):
        return self._combine(a, [self.F.one], b)

    def _combine(self, a, c, b):
        """a - c*b for a constant c, given as the list [c]."""
        F, (an, ad), (bn, bd) = self.F, a, b
        if ad == bd:
            return self._make(_submul(F, an, c, bn), ad)
        return self._make(_submul(F, _mul(F, an, bd), c, _mul(F, bn, ad)),
                          _mul(F, ad, bd))

    def mul(self, a, b):
        return self._make(_mul(self.F, a[0], b[0]), _mul(self.F, a[1], b[1]))

    def neg(self, a):
        return [self.F.neg(c) for c in a[0]], a[1]

    def inv(self, a):
        num, den = a
        if not num:
            raise ZeroDivisionError("inverse of 0")
        self.guards += (num, den)
        c = self.F.inv(num[-1])
        return [self.F.mul(c, v) for v in den], [self.F.mul(c, v) for v in num]


def _values(F, c, xs):
    """The element c = (num, den) of F(x) at each x of xs."""
    num, den = c
    if not num:
        return [F.zero] * len(xs)
    values = _horner(F, num, xs)
    if len(den) > 1:
        values = [F.div(a, b) for a, b in zip(values, _horner(F, den, xs))]
    return values


def divisors_at_heads(F, rows, ncols, laurent, heads):
    """The invariant factors over F[y] (F[y^±1] when `laurent`) of M(h, y)
    at x = h for each h of `heads`, M given as rows of term dicts in
    (x, y): a list of chains as _dense_divisors gives them, with None at
    each head the caller must eliminate on its own.

    The worker eliminates once over F(x)[y].  A head is exceptional when
    a guard of RationalFunctions vanishes there, or, over a Laurent ring,
    the lowest coefficient of a divisor (the normalization shifts by it).
    Anywhere else every operation of the elimination is defined at h and
    unimodular over F[y], and each δ_j is monic, so δ_j(h) keeps its
    degree, δ_{j+1}(h)/δ_j(h) is a division by a monic polynomial with no
    new denominator, and the δ_j(h) are the Smith divisors of M(h, y).
    Every head is None when the elimination swells."""
    K = RationalFunctions(F)
    try:
        grid = [[K.of_terms(terms) for terms in row] for row in rows]
        divisors = _diagonalize(K, laurent, grid, ncols, False)[1]
    except _Swell:
        return [None] * len(heads)
    guards = K.guards + ([p[0][0] for p in divisors] if laurent else [])
    keep = [True] * len(heads)
    for g in {tuple(g) for g in guards if len(g) > 1}:
        for k, v in enumerate(_horner(F, g, heads)):
            if v == F.zero:
                keep[k] = False
    good = [h for h, ok in zip(heads, keep) if ok]
    values = [[_values(F, c, good) for c in p] for p in divisors]
    chains = iter([[[v[k] for v in p] for p in values]
                   for k in range(len(good))])
    return [next(chains) if ok else None for ok in keep]


def vanishing_counts(F, divisors, values, torus=False):
    """(b, how many of `divisors` vanish at b) for each b of `values` where
    any does.  `divisors` is a chain d_1 | d_2 | ... of monic coefficient
    lists over F, lowest degree first, as _dense_divisors gives it, so the
    ones vanishing at b are a suffix: only the last non-constant one is
    solved (read off when linear, else evaluated at every b), and the
    others are evaluated at its roots only.  `torus` says that `values`
    holds no 0."""
    chain = [c for c in divisors if len(c) > 1]
    if not chain:
        return
    *rest, last = chain
    if len(last) == 2:  # monic t + c
        roots = [F.neg(last[0])]
        if torus and roots[0] == F.zero:
            roots = []
    else:
        roots = [b for b, v in zip(values, _horner(F, last, values))
                 if v == F.zero]
    for b in roots:
        k = 1
        for c in reversed(rest):
            if _horner(F, c, (b,))[0] != F.zero:
                break
            k += 1
        yield b, k


def kernel_matrix(snf):
    """Matrix whose columns freely generate ker(A): the columns of V past
    the divisors."""
    V, k = snf.V, len(snf.divisors)
    return Matrix(V.ring, V.nrows, V.ncols - k, [row[k:] for row in V.entries])


def integer_column_echelon(cols, m):
    """Euclid on integer columns over Z, one row k = 0..m-1 at a time: the
    columns nonzero at k are reduced against the one of least |entry|
    until it alone is nonzero there, and it is set aside as the pivot of
    row k, its entry the gcd of theirs.  Entries past row m ride along, so
    a column that carries a unit vector there records its transform.
    Returns (pivots, rest): pivots[k] is the pivot column of row k or None,
    and rest the columns left zero in rows 0..m-1.  Every step is
    unimodular, so pivots and rest span what `cols` spanned.  The lists
    of `cols` are reduced in place."""
    pivots = []
    for k in range(m):
        live = [c for c in cols if c[k]]
        while len(live) > 1:
            pivot = min(live, key=lambda c: abs(c[k]))
            for c in live:
                if c is not pivot:
                    q = c[k] // pivot[k]
                    c[k:] = [x - q * y for x, y in zip(c[k:], pivot[k:])]
            live = [c for c in live if c[k]]
        pivots.append(live[0] if live else None)
        if live:
            cols = [c for c in cols if c is not live[0]]
    return pivots, cols
