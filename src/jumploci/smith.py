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
    def __init__(self, matrix):
        ring = matrix.ring
        self.ring = ring
        self.m = matrix.nrows
        self.n = matrix.ncols
        self.a = [list(row) for row in matrix.entries]
        self.u = [list(row) for row in Matrix.identity(ring, self.m).entries]
        self.v = [list(row) for row in Matrix.identity(ring, self.n).entries]
        self.vinv = [list(row) for row in Matrix.identity(ring, self.n).entries]

    # invariant:  a == u * a_orig * v   and   v * vinv == 1

    def row_swap(self, i, j):
        if i == j:
            return
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]

    def col_swap(self, i, j):
        if i == j:
            return
        for r in self.a:
            r[i], r[j] = r[j], r[i]
        for r in self.v:
            r[i], r[j] = r[j], r[i]
        self.vinv[i], self.vinv[j] = self.vinv[j], self.vinv[i]

    def row_addmul(self, i, j, q):
        """row_i += q * row_j"""
        if q.is_zero():
            return
        self.a[i] = [x + q * y for x, y in zip(self.a[i], self.a[j])]
        self.u[i] = [x + q * y for x, y in zip(self.u[i], self.u[j])]

    def col_addmul(self, i, j, q):
        """col_i += q * col_j"""
        if q.is_zero():
            return
        for r in self.a:
            r[i] = r[i] + q * r[j]
        for r in self.v:
            r[i] = r[i] + q * r[j]
        self.vinv[j] = [x - q * y for x, y in zip(self.vinv[j], self.vinv[i])]

    def row_scale(self, i, unit):
        self.a[i] = [unit * x for x in self.a[i]]
        self.u[i] = [unit * x for x in self.u[i]]

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
            offender = None
            for i in range(k + 1, self.m):
                for j in range(k + 1, self.n):
                    if not self.a[i][j].is_zero():
                        _, r = udivmod(self.a[i][j], pivot)
                        if not r.is_zero():
                            offender = i
                            break
                if offender is not None:
                    break
            if offender is not None:
                self.row_addmul(k, offender, self.ring.one())
                continue
            k += 1


def smith_normal_form(matrix):
    """Smith normal form U*A*V = D over a univariate (Laurent) polynomial ring.

    Returns a SmithForm whose divisors form the divisibility chain
    d_1 | d_2 | ..., normalized to monic with lowest exponent 0 (Laurent).
    U and V are invertible over the ring; their inverses are included.
    """
    ring = matrix.ring
    if ring.nvars != 1:
        raise UnsupportedRingError(
            "Smith normal form requires a univariate ring, got %d variables"
            % ring.nvars)
    w = _Worker(matrix)
    if ring.laurent:
        for i in range(w.m):
            shift = min((umin(p) for p in w.a[i] if not p.is_zero()), default=0)
            if shift < 0:
                w.row_scale(i, Poly(ring, {(-shift,): ring.field.one}))
    w.run()
    # normalize the diagonal: monic, and (Laurent) lowest exponent 0
    F = ring.field
    for k in range(min(w.m, w.n)):
        p = w.a[k][k]
        if p.is_zero():
            continue
        shift = umin(p) if ring.laurent else 0
        lead = ucoeff(p, udeg(p))
        w.row_scale(k, Poly(ring, {(-shift,): F.inv(lead)}))
    divisors = []
    for k in range(min(w.m, w.n)):
        if not w.a[k][k].is_zero():
            divisors.append(w.a[k][k])
    return SmithForm(
        U=Matrix(ring, w.m, w.m, w.u),
        D=Matrix(ring, w.m, w.n, w.a),
        V=Matrix(ring, w.n, w.n, w.v),
        divisors=tuple(divisors),
        V_inv=Matrix(ring, w.n, w.n, w.vinv),
    )


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
