"""Exact linear algebra over a coefficient field.

Matrices here are plain lists of lists of field elements; every routine
takes the field object first.  Everything is Gaussian elimination -- exact
over our fields, no pivoting subtleties.
"""


def mat_rank(F, rows):
    """Rank by row reduction.  `rows` is a list of lists (not mutated)."""
    if not rows or not rows[0]:
        return 0
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if m[r][col] != F.zero:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = F.inv(m[row][col])
        prow = m[row]
        for r in range(row + 1, nrows):
            c = m[r][col]
            if c != F.zero:
                factor = F.mul(c, inv)
                mr = m[r]
                for j in range(col, ncols):
                    mr[j] = F.sub(mr[j], F.mul(factor, prow[j]))
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def mat_rank_stacked(F, blocks):
    """Rank of the column-wise concatenation [A | B | ...] of blocks with a
    common row count.  Empty blocks are skipped."""
    rows = None
    for b in blocks:
        if not b or not b[0]:
            continue
        if rows is None:
            rows = [list(r) for r in b]
        else:
            for r, br in zip(rows, b):
                r.extend(br)
    if rows is None:
        return 0
    return mat_rank(F, rows)


def null_space(F, rows, ncols):
    """A basis of {x in F^ncols : rows x = 0}, one vector per free column f
    of the reduced echelon form of `rows` (1 at f, 0 at the other free
    columns): that form depends only on the row space, so matrices with
    one kernel give one basis."""
    m, zero, pivots = [list(r) for r in rows], F.zero, []
    for col in range(ncols):
        k = len(pivots)
        pivot = next((r for r in range(k, len(m)) if m[r][col] != zero), None)
        if pivot is None:
            continue
        inv = F.inv(m[pivot][col])
        m[pivot], m[k] = m[k], [F.mul(inv, c) for c in m[pivot]]
        for r, mr in enumerate(m):
            if r != k and mr[col] != zero:
                m[r] = [F.sub(a, F.mul(mr[col], b)) for a, b in zip(mr, m[k])]
        pivots.append(col)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        x = [zero] * ncols
        x[f] = F.one
        for k, p in enumerate(pivots):
            x[p] = F.neg(m[k][f])
        basis.append(tuple(x))
    return basis
