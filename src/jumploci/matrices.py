"""Matrices with polynomial entries, their minors, and minor ideals."""

from itertools import combinations

from .errors import PreconditionError
from .rings import Ideal, Poly, unit_ideal, zero_ideal


class Matrix:
    """A rows x cols matrix of Poly entries sharing one ring.

    Zero-row and zero-column matrices are legal; they show up as the
    boundary differentials of a chain complex.
    """

    __slots__ = ("ring", "nrows", "ncols", "entries")

    def __init__(self, ring, nrows, ncols, entries):
        if len(entries) != nrows or any(len(r) != ncols for r in entries):
            raise PreconditionError("entry grid does not match the stated shape")
        for row in entries:
            for p in row:
                if p.ring != ring:
                    raise PreconditionError("matrix entry from a different ring")
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def zero(cls, ring, nrows, ncols):
        z = ring.zero()
        return cls(ring, nrows, ncols, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, ring, n):
        z, o = ring.zero(), ring.one()
        return cls(ring, n, n, [[o if i == j else z for j in range(n)]
                                for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return list(self.entries[i])

    def col(self, j):
        return [self.entries[i][j] for i in range(self.nrows)]

    def transpose(self):
        return Matrix(self.ring, self.ncols, self.nrows,
                      [[self.entries[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)])

    def is_zero(self):
        return all(p.is_zero() for row in self.entries for p in row)

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise PreconditionError("shape mismatch in matrix product")
        z = self.ring.zero()
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = z
                for k in range(self.ncols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return Matrix(self.ring, self.nrows, other.ncols, out)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.ring, self.entries))

    def over(self, ring):
        """The same entries over `ring`, which has this ring's field and
        variables: a Laurent ring and its ordinary twin."""
        return Matrix(ring, self.nrows, self.ncols,
                      [[Poly(ring, p.terms) for p in row] for row in self.entries])

    def evaluate(self, coords, field=None, coeff_map=None):
        """Entrywise evaluation; returns a list-of-lists scalar matrix."""
        return [[p.evaluate(coords, field, coeff_map) for p in row]
                for row in self.entries]

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return "Matrix(%dx%d)" % (self.nrows, self.ncols)
        body = "; ".join(", ".join(str(p) for p in row) for row in self.entries)
        return "[%s]" % body


def _det_submatrix(matrix, rows, cols, memo):
    """The minor on `rows` x `cols`, by cofactor expansion along the first
    row, memoized per pair of subsets."""
    key = (rows, cols)
    cached = memo.get(key)
    if cached is not None:
        return cached
    ring = matrix.ring
    if len(rows) == 1:
        result = matrix.entries[rows[0]][cols[0]]
    else:
        # expand along the first row; skip zero entries
        r0 = rows[0]
        rest = rows[1:]
        result = ring.zero()
        for pos, c in enumerate(cols):
            e = matrix.entries[r0][c]
            if e.is_zero():
                continue
            sub = _det_submatrix(matrix, rest, cols[:pos] + cols[pos + 1:], memo)
            if sub.is_zero():
                continue
            term = e * sub
            result = result + term if pos % 2 == 0 else result - term
    memo[key] = result
    return result


def all_minors(matrix, size, memo=None):
    """All size x size minors as a list of Poly (zeros included)."""
    if size <= 0 or size > min(matrix.nrows, matrix.ncols):
        return []
    if memo is None:
        memo = {}
    out = []
    for rows in combinations(range(matrix.nrows), size):
        for cols in combinations(range(matrix.ncols), size):
            out.append(_det_submatrix(matrix, rows, cols, memo))
    return out


def minors_ideal(matrix, size):
    """Ideal generated by all size x size minors.

    size == 0 is the unit ideal (the empty determinant is 1: rank >= 0
    always holds); size beyond min(rows, cols) is the zero ideal.
    """
    if size < 0:
        raise PreconditionError("minor size must be non-negative")
    if size == 0:
        return unit_ideal(matrix.ring)
    if size > min(matrix.nrows, matrix.ncols):
        return zero_ideal(matrix.ring)
    return Ideal(matrix.ring, all_minors(matrix, size))


def block_diag_minors_ideal(a, b, size):
    """Minor ideal of the block-diagonal matrix with blocks a and b,
    computed blockwise.

    A minor of a block-diagonal matrix vanishes unless its row and column
    subsets split along the blocks with equal sizes, in which case it is
    the product of the two block minors.  The generator list is therefore
    the set of such products; the mixed minors are zero polynomials and
    would be dropped from the ideal anyway.
    """
    if size < 0:
        raise PreconditionError("minor size must be non-negative")
    if size == 0:
        return unit_ideal(a.ring)
    if size > min(a.nrows + b.nrows, a.ncols + b.ncols):
        return zero_ideal(a.ring)
    # the cofactor expansions of all sizes share one memo per block
    memo_a, memo_b = {}, {}
    gens = []
    one = a.ring.one()
    for sa in range(size + 1):
        sb = size - sa
        if sa > min(a.nrows, a.ncols) or sb > min(b.nrows, b.ncols):
            continue
        minors_a = all_minors(a, sa, memo_a) if sa else [one]
        minors_b = all_minors(b, sb, memo_b) if sb else [one]
        minors_a = [p for p in minors_a if not p.is_zero()]
        minors_b = [p for p in minors_b if not p.is_zero()]
        for pa in minors_a:
            for pb in minors_b:
                gens.append(pa * pb)
    return Ideal(a.ring, gens)


def clear_laurent_rows(matrix):
    """Shift every row by a monomial so all entries become ordinary
    (non-negative exponents).  Row scalings by units do not change any
    module-theoretic content.  Returns (new_matrix, shifts)."""
    ring = matrix.ring
    shifts = []
    rows = []
    for i in range(matrix.nrows):
        mins = [0] * ring.nvars
        for p in matrix.entries[i]:
            pm = p.min_exponents()
            for v in range(ring.nvars):
                mins[v] = min(mins[v], pm[v])
        shift = tuple(-m for m in mins)
        shifts.append(shift)
        rows.append([p.shift(shift) for p in matrix.entries[i]])
    return Matrix(ring, matrix.nrows, matrix.ncols, rows), shifts


def clear_laurent_cols(matrix):
    """Column version of clear_laurent_rows."""
    cleared, shifts = clear_laurent_rows(matrix.transpose())
    return cleared.transpose(), shifts
