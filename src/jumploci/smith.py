"""Smith normal form over k[t] and k[t^{+-1}].

Both rings are PIDs; the algorithm is the classical Euclidean one, done
with explicit row/column transforms.  Laurent input is first cleared by
row shifts (unit scalings), so the elimination itself always runs on
ordinary polynomials.  Divisors are normalized per the ring: monic, and
for Laurent rings additionally shifted so the lowest exponent is 0.
"""

from dataclasses import dataclass

from .errors import UnsupportedRingError
from .matrices import Matrix
from .rings import Poly


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


@dataclass
class SmithForm:
    U: Matrix
    D: Matrix
    V: Matrix
    divisors: tuple
    V_inv: Matrix


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


def smith_normal_form(matrix):
    """Smith normal form U*A*V = D over a univariate (Laurent) polynomial ring.

    Returns a SmithForm whose divisors form the divisibility chain
    d_1 | d_2 | ..., normalized to monic with lowest exponent 0 (Laurent).
    U and V are invertible over the ring; V's inverse is included.
    """
    w, divisors = _diagonalize(matrix, True)
    ring = matrix.ring
    return SmithForm(
        U=Matrix(ring, w.m, w.m, w.u),
        D=Matrix(ring, w.m, w.n, w.a),
        V=Matrix(ring, w.n, w.n, w.v),
        divisors=divisors,
        V_inv=Matrix(ring, w.n, w.n, w.vinv),
    )


def smith_divisors(matrix):
    """The invariant factors of `matrix` alone, equal to
    smith_normal_form(matrix).divisors, without the U, V and V^{-1}
    bookkeeping.  Over a PID, rank A(b) is the number of them that do not
    vanish at b, for every b where the ring's units stay units."""
    return _diagonalize(matrix, False)[1]


def line_restriction(M, line, emb=None):
    """A callable head -> M with x_1..x_k set to head: a matrix over
    `line`, the (Laurent) ring in the remaining variables over the field of
    the heads, so k = r - 1 for a line and less for a chart.  `emb` maps
    M's coefficients into that field (None: unchanged)."""
    F = line.field
    split = M.ring.nvars - line.nvars
    grid = [[[(e[:split], e[split:], emb(c) if emb is not None else c)
              for e, c in p.terms.items()] for p in row] for row in M.entries]

    def at(head):
        rows = []
        for row in grid:
            out = []
            for terms in row:
                acc = {}
                for head_exps, e, c in terms:
                    for x, k in zip(head, head_exps):
                        if k:
                            c = F.mul(c, F.pow(x, k))
                    acc[e] = F.add(acc.get(e, F.zero), c)
                out.append(Poly(line, {e: c for e, c in acc.items()
                                       if c != F.zero}))
            rows.append(out)
        return Matrix(line, M.nrows, M.ncols, rows)
    return at


def _horner(F, coeffs, b):
    acc = F.zero
    for c in coeffs:
        acc = F.add(F.mul(acc, b), c)
    return acc


def vanishing_counts(divisors, values, torus=False):
    """(b, how many of `divisors` vanish at b) for each b of `values` where
    any does.  `divisors` is a chain d_1 | d_2 | ... as smith_divisors
    gives it, so the ones vanishing at b are a suffix: only the last
    non-constant one is solved (read off when linear, else evaluated at
    every b), and the others are evaluated at its roots only.  `torus`
    says that `values` holds no 0."""
    chain = [p for p in divisors if udeg(p) > 0]
    if not chain:
        return
    F = chain[0].ring.field
    *rest, last = [[p.terms.get((k,), F.zero) for k in range(udeg(p), -1, -1)]
                   for p in chain]  # coefficients, highest first
    if len(last) == 2:  # monic t + c
        roots = [F.neg(last[1])]
        if torus and roots[0] == F.zero:
            roots = []
    else:
        roots = [b for b in values if _horner(F, last, b) == F.zero]
    for b in roots:
        k = 1
        for p in reversed(rest):
            if _horner(F, p, b) != F.zero:
                break
            k += 1
        yield b, k


def kernel_positions(snf):
    """Column indices j of V whose images span ker(A):  positions with a
    zero (or absent) diagonal divisor."""
    positions = []
    for j in range(snf.D.ncols):
        if j >= snf.D.nrows or snf.D[j, j].is_zero():
            positions.append(j)
    return positions


def kernel_matrix(snf):
    """Matrix whose columns freely generate ker(A)."""
    cols = kernel_positions(snf)
    ring = snf.V.ring
    return Matrix(ring, snf.V.nrows, len(cols),
                  [[snf.V[i, j] for j in cols] for i in range(snf.V.nrows)])


def snf_solve(snf, rhs):
    """Solve A x = rhs (rhs a list of Poly, one per row), or return None.

    Works over the PID via the diagonal form: exact divisions against the
    divisors, zero elsewhere.
    """
    ring = snf.D.ring
    m, n = snf.D.nrows, snf.D.ncols
    y = []
    for i in range(m):
        acc = ring.zero()
        for j in range(m):
            u = snf.U[i, j]
            if not u.is_zero() and not rhs[j].is_zero():
                acc = acc + u * rhs[j]
        y.append(acc)
    x_diag = []
    for i in range(m):
        if i < n and not snf.D[i, i].is_zero():
            if y[i].is_zero():
                x_diag.append(ring.zero())
                continue
            d = snf.D[i, i]
            if ring.laurent:
                sh = umin(y[i])
                q, r = udivmod(y[i].shift((-sh,)), d)
                q = q.shift((sh,))
            else:
                q, r = udivmod(y[i], d)
            if not r.is_zero():
                return None
            x_diag.append(q)
        elif not y[i].is_zero():
            return None
        else:
            x_diag.append(ring.zero())
    while len(x_diag) < n:
        x_diag.append(ring.zero())
    x = []
    for i in range(n):
        acc = ring.zero()
        for j in range(n):
            v = snf.V[i, j]
            if not v.is_zero() and not x_diag[j].is_zero():
                acc = acc + v * x_diag[j]
        x.append(acc)
    return x
