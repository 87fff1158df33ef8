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

