"""Chain complexes over affine rings and their jump and support loci.

A FreeChainComplex holds ranks c_0..c_n and differentials d_i of shape
c_{i-1} x c_i with d_i d_{i+1} = 0.  Jump loci come in two independent
flavors: symbolic determinantal ideals (free complexes only), and pointwise
homology dimensions over a finite field (free or presented).  A support
locus is the degree-0 jump locus of a homology presentation matrix.
"""

from collections import namedtuple
from functools import reduce, wraps
from itertools import chain, combinations, islice, product
from operator import add, neg, sub

from .errors import PreconditionError, ResourceLimitError, UnsupportedRingError
from .fields import embedding
from .groebner import (ModuleSolver, module_lead_terms, module_saturate,
                       standard_monomial_count, syzygy_matrix)
from .linalg import mat_rank, mat_rank_stacked, null_space
from .matrices import (Matrix, block_diag_minors_ideal, clear_laurent_cols,
                       clear_laurent_rows, minors_ideal)
from .rings import Poly, Ring, unit_ideal
from .smith import (_dense_divisors, divisors_at_heads,
                    integer_column_echelon, smith_divisors, smith_normal_form,
                    vanishing_counts)
from .varieties import Space, enumerate_coords, on_torus, points_where


class Verdict(namedtuple("Verdict", "ok message location",
                         defaults=("", None))):
    __slots__ = ()

    def __bool__(self):
        return self.ok


class _ChainComplex:
    """Terms E_0..E_n of g_0..g_n generators and differentials d_i of shape
    g_{i-1} x g_i, all over `ring`.  Both kinds of complex share these checks
    and a cache of homology presentations; a free term has no relations."""

    def __init__(self, ring, gens, differentials):
        gens = tuple(gens)
        if not gens:
            raise PreconditionError("a complex needs at least one term")
        if any(c < 0 for c in gens):
            raise PreconditionError("negative rank")
        if len(differentials) != len(gens) - 1:
            raise PreconditionError(
                "expected %d differentials, got %d" % (len(gens) - 1,
                                                       len(differentials)))
        for i, d in enumerate(differentials, start=1):
            if d.ring != ring:
                raise PreconditionError("differential over a different ring")
            if (d.nrows, d.ncols) != (gens[i - 1], gens[i]):
                raise PreconditionError(
                    "d_%d has shape %dx%d, expected %dx%d"
                    % (i, d.nrows, d.ncols, gens[i - 1], gens[i]))
        self.ring = ring
        self._gens = gens
        self.differentials = tuple(differentials)
        self._pres_cache = {}

    @property
    def top(self):
        return len(self._gens) - 1

    def gens(self, i):
        if 0 <= i <= self.top:
            return self._gens[i]
        return 0

    def relations(self, i):
        return Matrix.zero(self.ring, self.gens(i), 0)

    def differential(self, i):
        """d_i: E_i -> E_{i-1}; zero-shaped matrices outside 1..n."""
        if 1 <= i <= self.top:
            return self.differentials[i - 1]
        return Matrix.zero(self.ring, self.gens(i - 1), self.gens(i))


class FreeChainComplex(_ChainComplex):
    """ranks: list c_0..c_n;  differentials: [d_1..d_n], d_i of shape
    c_{i-1} x c_i.  Immutable after construction."""

    def __init__(self, ring, ranks, differentials):
        super().__init__(ring, ranks, differentials)
        self.ranks = self._gens
        self._orbit_cache = {}

    rank = _ChainComplex.gens

    def __repr__(self):
        return "FreeChainComplex(ranks=%r over %r)" % (list(self.ranks), self.ring)


class ModulePresentation(namedtuple("ModulePresentation",
                                    "ring gens relations")):
    """gens generators, columns of `relations` (a Matrix with `gens` rows)
    are the relations."""
    __slots__ = ()

    def __new__(cls, ring, gens, relations):
        if relations.nrows != gens:
            raise PreconditionError("relations matrix must have one row per generator")
        if relations.ring != ring:
            raise PreconditionError("relations over a different ring")
        return super().__new__(cls, ring, gens, relations)


class PresentedChainComplex(_ChainComplex):
    """Terms are presented modules; differentials act on generators and must
    carry relations into relations."""

    def __init__(self, ring, terms, differentials):
        terms = tuple(terms)
        for k, t in enumerate(terms):
            if t.ring != ring:
                raise PreconditionError("term %d over a different ring" % k)
        super().__init__(ring, [t.gens for t in terms], differentials)
        self.terms = terms

    def relations(self, i):
        if 0 <= i <= self.top:
            return self.terms[i].relations
        return super().relations(i)


# ---------------------------------------------------------------------------
# validation


def validate_complex(E):
    """Shape consistency plus the exact identity d_i d_{i+1} = 0; reports the
    first violating (i, row, col) entry."""
    for i in range(1, E.top):
        prod = E.differential(i) * E.differential(i + 1)
        for r in range(prod.nrows):
            for c in range(prod.ncols):
                if not prod[r, c].is_zero():
                    return Verdict(False,
                                   "d_%d . d_%d is nonzero at entry (%d, %d): %s"
                                   % (i, i + 1, r, c, prod[r, c]),
                                   (i, r, c))
    return Verdict(True, "complex valid: shapes consistent and d.d = 0")


def _first_outside(R, M):
    """The index of the first column of M outside the column span of R, or
    None, over a ring in at most one variable.  Over k[t] or k[t^±1], a
    PID, c lies in span R exactly when R and [R | c] have the same Smith
    divisors: coker R maps onto coker [R | c], a finitely generated module
    is fixed by its invariant factors, and a surjection between isomorphic
    finitely generated modules is injective (Vasconcelos 1969).  Over the
    field itself the invariant is the rank at the one point ()."""
    ring = R.ring
    if ring.nvars == 1:
        invariant = smith_divisors
    else:
        def invariant(A):
            return mat_rank(ring.field, A.evaluate(()))
    base = invariant(R)
    for j in range(M.ncols):
        col = M.col(j)
        if all(p.is_zero() for p in col):
            continue
        augmented = Matrix(ring, R.nrows, R.ncols + 1,
                           [R.row(r) + [col[r]] for r in range(R.nrows)])
        if invariant(augmented) != base:
            return j
    return None


def validate_presented(E):
    """Check differentials map relations into relations and composites vanish
    modulo relations.  Each degree lists its conditions in order: a matrix
    that must lie in the span of some relations, with its message at a
    column and at a point.  Rings in at most one variable get exact
    membership, read from invariants (`_first_outside`); multivariate rings
    are checked at every point of their own field, which must be finite,
    every condition at a point before the next point."""
    ring = E.ring
    for i in range(1, E.top + 1):
        d = E.differential(i)
        checks = [(d * E.relations(i), E.relations(i - 1),
                   "d_%d sends relation %%d outside the relations" % i,
                   "d_%d fails to preserve relations at point %%r" % i)]
        if i >= 2:
            checks.append((E.differential(i - 1) * d, E.relations(i - 2),
                           "d_%d . d_%d nonzero modulo relations at generator "
                           "%%d" % (i - 1, i),
                           "d_%d . d_%d nonzero modulo relations at point %%r"
                           % (i - 1, i)))
        if ring.nvars <= 1:
            for M, R, at_column, _ in checks:
                j = _first_outside(R, M)
                if j is not None:
                    return Verdict(False, at_column % j, (i, j))
            continue
        F = ring.field
        if not F.is_finite:
            raise PreconditionError(
                "multivariate presented complexes are validated pointwise; "
                "supply a finite sample field")
        plans = [(M.evaluator(), R.evaluator(), at_point)
                 for M, R, _, at_point in checks]
        for coords in enumerate_coords(F, ring.nvars, on_torus(ring)):
            for M_at, R_at, at_point in plans:
                rv = R_at(coords)
                if mat_rank_stacked(F, [rv, M_at(coords)]) != mat_rank(F, rv):
                    return Verdict(False, at_point % (coords,), (i,))
    return Verdict(True, "presented complex valid at desk scale")


# ---------------------------------------------------------------------------
# pointwise homology


def homology_dim_at(E, i, field):
    """The per-point evaluator: a callable coords -> dim H_i over `field`.

    Term k is g_k generators modulo the columns R_k of its relations (a free
    term has none), so dim H_i = g_i - rank R_i - sum over d = d_i, d_{i+1}
    of (rank [d | R_t] - rank R_t), R_t the relations of the term d lands
    in.  The R_i terms cancel against d_{i+1}, and d_i counts only when it
    is nonempty.  Empty blocks are dropped here, so a free complex
    evaluates and ranks d_i and d_{i+1} only.  Each distinct block's plan
    is built once here and applied once per point: R_{i-1}, read by two
    ranks, is evaluated once."""
    d_out, rel_prev = E.differential(i), E.relations(i - 1)
    signed = [(-1, (E.differential(i + 1), E.relations(i)))]
    if d_out.nrows and d_out.ncols:
        signed += [(-1, (d_out, rel_prev)), (1, (rel_prev,))]
    live = [(sign, [m for m in blocks if m.nrows and m.ncols])
            for sign, blocks in signed]
    distinct = {id(m): m for _, blocks in live for m in blocks}
    plans = {key: m.evaluator(field) for key, m in distinct.items()}
    terms = [(sign, [id(m) for m in blocks]) for sign, blocks in live if blocks]
    g_i = E.gens(i)

    def rank(values):
        if len(values) == 1:  # nothing to concatenate, so no copy
            return mat_rank(field, values[0])
        return mat_rank_stacked(field, values)

    def dim(coords):
        values = {key: at(coords) for key, at in plans.items()}
        return g_i + sum(sign * rank([values[k] for k in keys])
                         for sign, keys in terms)
    return dim


def homology_dims_table(E, field, torus=False):
    """{coords: [dim H_0, ..., dim H_n]} at every point of F^r (or the
    torus): a brute-force oracle for the tests, which no command calls.
    Independent of `homology_dim_at`, it ranks each d_j and relation block
    R_k once per point: dim H_j = g_j - rank R_j - im_j - im_{j+1}, with
    im_j = rank [d_j | R_{j-1}] - rank R_{j-1}, and 0 outside 1..n."""
    ring, n = E.ring, E.top
    diffs = [d.evaluator(field) for d in E.differentials]
    rels = [E.relations(k).evaluator(field) for k in range(n + 1)]

    def dims(c):
        rel = [R(c) for R in rels]
        rk = [mat_rank(field, R) for R in rel]
        im = [0] + [mat_rank_stacked(field, [d(c), rel[j]])
                    - rk[j] for j, d in enumerate(diffs)] + [0]
        return [E.gens(j) - rk[j] - im[j] - im[j + 1] for j in range(n + 1)]
    return {c: dims(c)
            for c in enumerate_coords(field, ring.nvars, on_torus(ring, torus))}


def jump_locus_points(E, i, d, field, torus=False):
    """{w : dim H_i(E (x) S/m_w) >= d} over the finite field `field`, for
    1 <= d <= g_i the first answer of ROUTES, whose comment has the rule;
    a `Space` when it is all of F^r or of the torus."""
    embedding(E.ring.field, field)  # refuses a field E cannot be read in
    if d < 0:
        raise PreconditionError("d must be non-negative")
    ring = E.ring
    torus = on_torus(ring, torus)
    whole = Space(field, ring.nvars, torus)
    if d == 0:
        return whole
    if d > E.gens(i):  # dim H_i <= g_i, and g_i = 0 outside 0..n
        return set()
    for route in ROUTES:
        points = route(E, i, d, field, torus)
        if points is not None:
            # a set of s^r points is the whole space, and printed as one
            return (whole if isinstance(points, set)
                    and len(points) == whole.size else points)


def _whole_space(E, i, d, field, torus):
    """All of F^r (or the torus) when the grid below certifies that the
    jump locus of the free complex E is the whole space, else None.

    The locus is the zero set of the k-minors of d_i (+) d_{i+1}, k = c_i -
    d + 1, and a k-minor has degree at most D_v = k * s_v in x_v, s_v the
    largest x_v-degree of an entry.  On the torus s_v is the spread of the
    x_v-exponents instead: the unit x^-lo that scales every entry to a
    polynomial of x_v-degree s_v scales each k-minor by x^(-k lo).  A
    polynomial of degree at most D_v in each x_v that vanishes on S_1 x
    ... x S_r with |S_v| > D_v is zero (Alon, Combinatorial
    Nullstellensatz, Lemma 2.1), so if dim H_i >= d at every point of that
    grid, every k-minor vanishes identically.  S_v is the first D_v + 1
    elements of the pool, taken only when they are at most half of it, so
    the grid never holds more than 2^-r of the points; the points with no
    zero coordinate are ranked first, and the first point outside the
    locus ends the check."""
    k = E.rank(i) - d + 1
    maps = (E.differential(i), E.differential(i + 1))
    exps = [e for M in maps for row in M.entries for p in row for e in p.terms]
    line = Space(field, 1, torus)  # size s, with no len() of a range
    sides = []
    for v in range(E.ring.nvars):
        top = max((e[v] for e in exps), default=0)
        low = min((e[v] for e in exps), default=0) if torus else 0
        side = k * (top - low) + 1
        if 2 * side > line.size:
            return None
        sides.append(tuple(islice(line.pool, side)))
    zero = field.zero
    grid = chain(product(*[[c for c in s if c != zero] for s in sides]),
                 (x for x in product(*sides) if zero in x))
    # dim H_i >= d where rank d_i + rank d_{i+1} < k
    plans = [M.evaluator(field) for M in maps if M.nrows and M.ncols]
    if all(sum(mat_rank(field, at(x)) for at in plans) < k for x in grid):
        return Space(field, E.ring.nvars, torus)
    return None


def _kernel_jump_points(E, i, d, field, torus):
    """The jump locus of a free complex whose d_i is one row of linear
    forms of rank r, so nonzero away from 0, and whose d_{i+1} has linear
    entries, d_{i+1}(x) = sum_j x_j M_j: E_A at i = 1, and its pullback
    along an injective nu-bar^*.

    Away from 0 rank d_i = 1, so dim H_i >= d exactly where rank d_{i+1}
    <= c_{i+1} - e, e = c_{i+1} - c_i + 1 + d; at 0, dim H_i = c_i >= d.
    For e <= 0 that is every point.  For e = 1 it says the columns of
    d_{i+1}(x) are dependent: d_{i+1}(x) phi = B_phi x = 0 for some phi !=
    0, with B_phi[t][j] = sum_u M_j[t][u] phi_u.  So the locus is the
    union of the kernels of B_phi over the projective phi, one `null_space`
    each, and the origin, which c_{i+1} = 0 leaves with no phi."""
    r, zero = E.ring.nvars, field.zero
    d_i, d_next = E.differential(i), E.differential(i + 1)
    e = E.rank(i + 1) - E.rank(i) + 1 + d
    if d_i.nrows != 1 or e > 1 or (e == 1 and field.order >= FIBER_MIN_Q):
        return None
    if not all(x.count(1) == 1 and x.count(0) == r - 1
               for M in (d_i, d_next) for row in M.entries for p in row
               for x in p.terms):
        return None
    units = [tuple(field.one if v == j else zero for v in range(r))
             for j in range(r)]
    forms = d_i.evaluator(field)
    if mat_rank(field, [forms(x)[0] for x in units]) < r:
        return None
    if e <= 0:
        return Space(field, r, torus)
    at = d_next.evaluator(field)
    M = [at(x) for x in units]
    add, mul = field.add, field.mul
    kernels = set()
    for k in range(d_next.ncols):  # phi = (0, .., 0, 1, tail)
        for tail in product(field.elements(), repeat=d_next.ncols - k - 1):
            phi = [(u, c) for u, c in enumerate(tail, k + 1) if c != zero]
            kernels.add(tuple(null_space(field, [
                [reduce(add, [mul(Mj[t][u], c) for u, c in phi], Mj[t][k])
                 for Mj in M] for t in range(d_i.ncols)], r)))
    if any(len(K) == r for K in kernels):
        return Space(field, r, torus)
    out = {(zero,) * r}
    for K in kernels:
        points = [(zero,) * r]
        for v in K:
            multiples = [tuple(mul(c, b) for b in v) for c in field.elements()]
            points = [tuple(map(add, x, y)) for x in points for y in multiples]
        out.update(points)
    return {x for x in out if zero not in x} if torus else out


def _orbit_jump_points(E, i, d, field, torus):
    """The jump locus of a free complex whose d_i and d_{i+1} are graded,
    one coordinate stratum at a time, ranked at one point per torus orbit.

    If w.e = b_k - a_j for each monomial x^e of entry (j, k) of d, with
    row and column shifts a and b of its own for each of d = d_i and
    d_{i+1}, then d(λ^w x) = diag(λ^-a) d(x) diag(λ^b) for λ in F^x, so
    both ranks, and dim H_i, are constant on the orbits of λ -> λ^w.  The
    stratum S holds the points whose nonzero coordinates are S (only the
    full torus on request or over a Laurent ring).  `_stratum` gives its
    weight lattice L_S, re-solved from the monomials nonzero there, and a
    unimodular V = [P | K] with K a basis of L_S.  In the coordinates
    x_v = prod_j t_j^V[v][j] of (F^x)^S the shifts absorb t_K, so the rank
    is that at t_K = 1: a Laurent complex in the |S| - k coordinates t_P
    on the smaller torus.  Over a field of at least FIBER_MIN_Q elements
    it is read line by line (`_fibered_jump_points`); otherwise each of
    its (q - 1)^(|S| - k) points is ranked through `homology_dim_at` of E.
    Each point of the locus is then spread over its orbit, and when every
    point is in it, so is the whole stratum."""
    if _strata(E, i) is None:
        return None
    F, r = field, E.ring.nvars
    mul, units = F.mul, F.units()
    dim_at = homology_dim_at(E, i, F)
    out = set()
    for S in ([tuple(range(r))] if torus else
              [S for k in range(r + 1) for S in combinations(range(r), k)]):
        pcols, kernel = _stratum(E, i, S)
        lift = _lifter(F, r, S, pcols)
        if pcols and F.order >= FIBER_MIN_Q:
            reps = _fibered_jump_points(_stratum_complex(E, i, S, pcols), 1,
                                        d, F, True)
        else:
            reps = points_where(F, len(pcols), True,
                                lambda t: dim_at(lift(t)) >= d)
        if len(reps) == (F.order - 1) ** len(pcols):
            out.update(product(*[units if v in S else (F.zero,)
                                 for v in range(r)]))
        elif reps:
            orbit = list(map(_lifter(F, r, S, kernel),
                             product(units, repeat=len(kernel))))
            for x in map(lift, reps):
                out.update(tuple(map(mul, x, o)) for o in orbit)
    return out


def _strata(E, i):
    """The per-degree cache of the orbit route: None when the weight
    lattice L of d_i and d_{i+1} on the full torus is 0, else their
    monomial graph and a dict from each stratum asked for to its
    `_stratum`.  The graph has a node per row and per column of each map,
    and each monomial x^e of an entry is an edge from its row to its
    column, kept at both ends as (the other end, +-e, whether it leaves
    this end, the bit mask of the variables x^e holds)."""
    cache = E._orbit_cache
    if i not in cache:
        adj, base = {}, 0
        for M in (E.differential(i), E.differential(i + 1)):
            for j, row in enumerate(M.entries):
                for k, p in enumerate(row):
                    a, b = base + j, base + M.nrows + k
                    for e in p.terms:
                        mask = sum(1 << v for v, x in enumerate(e) if x)
                        adj.setdefault(a, []).append((b, e, True, mask))
                        adj.setdefault(b, []).append(
                            (a, tuple(map(neg, e)), False, mask))
            base += M.nrows + M.ncols
        cache[i] = (adj, {})
        if not _stratum(E, i, tuple(range(E.ring.nvars)))[1]:
            cache[i] = None
    return cache[i]


def _stratum(E, i, S):
    """The (P, K) of the stratum S, a tuple of variable indices: `_kernel`
    of the cycles of the monomials nonzero on S."""
    adj, lattices = E._orbit_cache[i]
    if S not in lattices:
        lattices[S] = _kernel(_cycles(adj, S), S)
    return lattices[S]


def _cycles(adj, S):
    """The nonzero cycle vectors of the monomials of the graph `adj`
    nonzero on S: shifts propagate along a spanning forest, s(column) =
    s(row) + e, and every other edge gives s(row) + e - s(column)."""
    on = sum(1 << v for v in S)
    shift, cycles = {}, set()
    for root in adj:
        if root not in shift:
            e = adj[root][0][1]
            shift[root], stack = tuple(map(sub, e, e)), [root]
            while stack:
                u = stack.pop()
                for v, e, forward, mask in adj[u]:
                    if mask & on != mask:
                        continue
                    if v not in shift:
                        shift[v] = tuple(map(add, shift[u], e))
                        stack.append(v)
                    elif forward:
                        z = tuple(map(sub, map(add, shift[u], e), shift[v]))
                        if any(z):
                            cycles.add(z)
    return cycles


def _kernel(cycles, S):
    """(P, K), columns over S: K a basis of the weights w in Z^S with
    w.z = 0 for every vector z of `cycles` (zero off S), and P its
    completion to a basis of Z^S, the pivot columns of one
    `integer_column_echelon` of the coordinates as columns of the
    cycles."""
    n = len(S)
    rows = list({tuple(z[v] for v in S) for z in cycles})
    m = len(rows)
    pivots, rest = integer_column_echelon(
        [[z[a] for z in rows] + [int(a == b) for b in range(n)]
         for a in range(n)], m)
    return [c[m:] for c in pivots if c is not None], [c[m:] for c in rest]


def _stratum_complex(E, i, S, pcols):
    """d_i and d_{i+1} at x_v = prod_j t_j^P[v][j] on S and 0 off S: a
    Laurent complex in t_P, whose weight lattice is 0.  Two monomials of
    one entry differ by a cycle vector, which has no K-part and so a
    nonzero P-part: their terms stay distinct."""
    ring = E.ring
    small = Ring(ring.field, [ring.variables[v] for v in S[:len(pcols)]],
                 laurent=True)
    off = [v for v in range(ring.nvars) if v not in S]

    def term(e):
        return tuple(sum(e[v] * c for v, c in zip(S, col)) for col in pcols)
    return FreeChainComplex(
        small, [E.rank(i - 1), E.rank(i), E.rank(i + 1)],
        [Matrix(small, M.nrows, M.ncols, [
            [Poly(small, {term(e): c for e, c in p.terms.items()
                          if not any(e[v] for v in off)}) for p in row]
            for row in M.entries])
         for M in (E.differential(i), E.differential(i + 1))])


def _lifter(F, r, S, cols):
    """t -> the point of F^r, 0 off S, whose coordinate x_v on S is
    prod_j t_j^C[v][j], C the columns `cols` over S: for C = P the orbit
    representative t_K = 1, for C = K the point λ^K of the torus of L_S."""
    one, zero, mul, pow_ = F.one, F.zero, F.mul, F.pow
    factors = [(v, [(j, col[a]) for j, col in enumerate(cols) if col[a]])
               for a, v in enumerate(S)]

    def lift(t):
        x = [zero] * r
        for v, fs in factors:
            value = one
            for j, k in fs:
                value = mul(value, t[j] if k == 1 else pow_(t[j], k))
            x[v] = value
        return tuple(x)
    return lift


def _fibered_jump_points(E, i, d, F, torus):
    """The jump locus of a free complex, one line x_1..x_{r-1} = h at a time.

    Substituting the head h turns d_i and d_{i+1} into matrices over F[t]
    (F[t^±1] for a Laurent ring), t = x_r, whose invariant factors
    `_head_divisors` gives.  If M = U diag(δ_1 | δ_2 | ...) V with U, V
    unimodular, rank M(b) is the number of δ_k with δ_k(b) != 0, so
    dim H_i(h, b) = c_i - #divisors + #divisors vanishing at b.  The
    divisors form a chain, so the ones vanishing at b are a suffix: only
    the last one is solved on the line, the others are evaluated at its
    roots, and a line whose divisors are all constant has one value
    throughout."""
    if F.order < FIBER_MIN_Q:
        return None
    fiber = [b for (b,) in enumerate_coords(F, 1, torus)]
    c_i = E.rank(i)
    out = set()
    for head, chains in _head_divisors(E, i, F, torus, fiber):
        # how many divisors must vanish at b for dim H_i >= d
        need = d - c_i + sum(len(ch) for ch in chains)
        if need <= 0:
            out.update(head + (b,) for b in fiber)
            continue
        vanishing = {}
        for ch in chains:
            for b, k in vanishing_counts(F, ch, fiber, torus):
                vanishing[b] = vanishing.get(b, 0) + k
        out.update(head + (b,) for b, k in vanishing.items() if k >= need)
    return out


def _head_divisors(E, i, F, torus, fiber):
    """(h, [the divisors of d_i(h, t), of d_{i+1}(h, t)]) for every head h.

    The plans that keep x_{r-1} and x_r give each matrix at an outer head
    x_1..x_{r-2} as term dicts, which `smith.divisors_at_heads` eliminates
    once over F(x_{r-1})[x_r] and reads at every x_{r-1} of `fiber`.  A
    head it leaves out, and every head of a complex in one variable, gets
    its own Smith form from the plan that keeps x_r: no Poly or Matrix per
    head either way."""
    ring = E.ring
    line = Ring(F, ring.variables[-1:], laurent=ring.laurent)
    maps = [(M, M.evaluator(F, line))
            for M in (E.differential(i), E.differential(i + 1))]
    if ring.nvars == 1:
        yield (), [_dense_divisors(line, at(()), M.ncols) for M, at in maps]
        return
    plane = Ring(F, ring.variables[-2:], laurent=ring.laurent)
    plans = [M.evaluator(F, plane) for M, _ in maps]
    for outer in enumerate_coords(F, ring.nvars - 2, torus):
        shared = [divisors_at_heads(F, plan(outer), M.ncols, ring.laurent,
                                    fiber)
                  for plan, (M, _) in zip(plans, maps)]
        for k, h in enumerate(fiber):
            head = outer + (h,)
            yield head, [
                chains[k] if chains[k] is not None
                else _dense_divisors(line, at(head), M.ncols)
                for chains, (M, at) in zip(shared, maps)]


def _free_in_some_variable(route):
    """`route`, declining a presented complex and a ring in no variable."""
    @wraps(route)
    def guarded(E, i, d, field, torus):
        if isinstance(E, FreeChainComplex) and E.ring.nvars >= 1:
            return route(E, i, d, field, torus)
        return None
    return guarded


def _pointwise_jump_points(E, i, d, field, torus):
    """The jump locus of any complex, dim H_i ranked at every point."""
    dim_at = homology_dim_at(E, i, field)
    return points_where(field, E.ring.nvars, torus, lambda c: dim_at(c) >= d)


# The routes of jump_locus_points in the order it tries them, a fixed
# rule with no flag or option: each returns the locus or declines with
# None.  The first four read the minors of a free complex along its
# coordinates, and decline a presented complex and a ring in no variable;
# `_whole_space` also declines a locus its grid does not certify whole;
# `_kernel_jump_points` a d_i that is not one row of linear forms of rank
# r, a d_{i+1} with a nonlinear entry, and an e = c_{i+1} - c_i + 1 + d
# above 1, or of 1 over a field of at least FIBER_MIN_Q elements, where
# the orbit route reads its lines by Smith forms and is as fast;
# `_orbit_jump_points` a d_i and d_{i+1} with no grading; and
# `_fibered_jump_points` a field of fewer than FIBER_MIN_Q elements, over
# which the Smith divisors of a line cost more than ranking its q points
# (README gives the measured crossover, and why the threshold sits above
# it).  The last declines nothing.
FIBER_MIN_Q = 16
ROUTES = (*map(_free_in_some_variable, (_whole_space, _kernel_jump_points,
                                        _orbit_jump_points,
                                        _fibered_jump_points)),
          _pointwise_jump_points)


# ---------------------------------------------------------------------------
# determinantal jump-locus ideals (free complexes only)


def jump_locus_ideal(E, i, d):
    """Ideal of minors of size c_i - d + 1 of the block matrix
    d_{i+1} (+) d_i; its zero locus over any extension is the jump locus.

    Presented complexes are refused: without freeness the pointwise locus
    need not be closed at all, so no ideal can represent it.
    """
    if not isinstance(E, FreeChainComplex):
        raise PreconditionError(
            "jump-locus ideals require a complex of free modules; a presented "
            "term can make the locus non-closed, so no minor ideal exists")
    if d < 0:
        raise PreconditionError("d must be non-negative")
    c_i = E.rank(i)
    size = c_i - d + 1
    if size <= 0:
        return unit_ideal(E.ring)
    return block_diag_minors_ideal(E.differential(i + 1), E.differential(i),
                                   size)


# ---------------------------------------------------------------------------
# homology presentations


def prune_presentation(P):
    """Remove generators with a unit relation entry (standard minimal
    presentation reduction); exact over the ring."""
    ring = P.ring
    rows = [list(r) for r in P.relations.entries]
    gens = P.gens
    while True:
        # the first unit entry, generator by generator
        pivot = next(((gi, cj) for gi, row in enumerate(rows)
                      for cj, e in enumerate(row) if e.is_unit()), None)
        if pivot is None:
            break
        gi, cj = pivot
        # invert the unit: constant, or c*t^k in a Laurent ring
        (exp, coeff), = rows[gi][cj].terms.items()
        inv = ring.monomial(tuple(-x for x in exp), ring.field.inv(coeff))
        # clear the pivot column from the other columns
        for c2 in range(len(rows[gi])):
            if c2 == cj:
                continue
            factor = rows[gi][c2] * inv
            if factor.is_zero():
                continue
            for row in rows:
                row[c2] = row[c2] - factor * row[cj]
        # drop generator gi and column cj
        rows.pop(gi)
        for r in rows:
            r.pop(cj)
        gens -= 1
    # drop zero relation columns
    ncols = len(rows[0]) if rows else 0
    keep = [j for j in range(ncols)
            if any(not rows[g][j].is_zero() for g in range(gens))]
    rows = [[r[j] for j in keep] for r in rows]
    return ModulePresentation(ring, gens, Matrix(ring, gens, len(keep), rows))


def _univariate_free_presentation(E, i):
    # ker d_i is spanned by the columns of V past the divisors, so H_i is
    # presented by the rows of V^{-1} d_{i+1} past them (all rows of d_1
    # for i = 0, where d_0 has no rows and V = 1)
    ring = E.ring
    snf = smith_normal_form(E.differential(i))
    vin_d = snf.V_inv * E.differential(i + 1)
    rows = vin_d.entries[len(snf.divisors):]
    return ModulePresentation(ring, len(rows),
                              Matrix(ring, len(rows), vin_d.ncols, rows))


def _laurent_multivariate_presentation(E, i):
    """Clear denominators by unit basis scalings, present over the ordinary
    ring, and reinterpret over the Laurent ring (localization is exact)."""
    ring = E.ring
    ordinary = type(ring)(ring.field, ring.variables, False, "grlex")
    d_i = E.differential(i)
    d_next = E.differential(i + 1)
    d_i, _ = clear_laurent_rows(d_i)
    d_i, col_shifts = clear_laurent_cols(d_i)
    # the column scaling of d_i is a basis change of E_i: undo it on the rows
    # of d_{i+1}, then clear the columns of d_{i+1} (a basis change of E_{i+1})
    rows = []
    for r, shift in zip(d_next.entries, col_shifts):
        rows.append([p.shift(tuple(-s for s in shift)) for p in r])
    d_next = Matrix(ring, d_next.nrows, d_next.ncols, rows)
    d_next, _ = clear_laurent_cols(d_next)
    sub = FreeChainComplex(ordinary, [d_i.nrows, d_i.ncols, d_next.ncols],
                           [d_i.over(ordinary), d_next.over(ordinary)])
    pres = _presented_homology_presentation(sub, 1)
    return ModulePresentation(ring, pres.gens,
                              pres.relations.over(ring))


def homology_presentation(E, i):
    """Presentation of H_i(E) = ker d_i / im d_{i+1}, computed once per
    complex and degree and then read from the complex's cache.

    Ordinary rings within the desk-scale Groebner scope go through
    syzygies, a free complex read as a presented one with no relations.
    Free complexes over univariate Laurent rings go through the Smith form;
    multivariate Laurent rings are cleared by unit scalings first.
    """
    cache = E._pres_cache
    if i in cache:
        return cache[i]
    if not E.ring.laurent or isinstance(E, PresentedChainComplex):
        pres = _presented_homology_presentation(E, i)
    elif E.ring.nvars == 1:
        pres = _univariate_free_presentation(E, i)
    else:
        pres = _laurent_multivariate_presentation(E, i)
    cache[i] = pres = prune_presentation(pres)
    return pres


def _presented_homology_presentation(E, i):
    """H_i of a presented complex, unpruned: generators are the
    syzygy-computed lifts {v : D_i v in im R_{i-1}}, relations are R_i
    columns and D_{i+1} columns expressed in those generators.  Ordinary
    rings only."""
    ring = E.ring
    if ring.laurent:
        raise UnsupportedRingError(
            "presented-complex homology is implemented over ordinary "
            "polynomial rings; Laurent terms are only handled pointwise")
    if i < 0 or i > E.top:
        return ModulePresentation(ring, 0, Matrix(ring, 0, 0, []))
    g_i = E.gens(i)
    d_i = E.differential(i)
    if i == 0:
        lifts = Matrix.identity(ring, g_i)
    else:
        rel_prev = E.relations(i - 1)
        stacked = Matrix(ring, d_i.nrows, g_i + rel_prev.ncols,
                         [d_i.row(r) + rel_prev.row(r) for r in range(d_i.nrows)])
        syz = syzygy_matrix(stacked)
        lifts = Matrix(ring, g_i, syz.ncols, [syz.row(r) for r in range(g_i)])
    if lifts.ncols == 0:
        return ModulePresentation(ring, 0, Matrix(ring, 0, 0, []))
    solver = ModuleSolver(lifts)
    rel_cols = []
    for M, refusal in (
            (E.relations(i), "relation column %%d of term %d is not carried "
             "by ker d_%d; the presented complex is inconsistent" % (i, i)),
            (E.differential(i + 1), "image column %%d of d_%d is not inside "
             "ker d_%d; the complex does not satisfy d.d = 0" % (i + 1, i))):
        for j in range(M.ncols):
            x = solver.solve(M.col(j))
            if x is None:
                raise PreconditionError(refusal % j)
            rel_cols.append(x)
    inner = solver.syzygies()
    rel_cols += [inner.col(j) for j in range(inner.ncols)]
    rel = Matrix(ring, len(rel_cols), lifts.ncols, rel_cols).transpose()
    return ModulePresentation(ring, lifts.ncols, rel)


# ---------------------------------------------------------------------------
# Fitting ideals, supports, finiteness


def fitting_ideal(P, j):
    """Fitt_j(M) = ideal of (g - j)-minors of the relations matrix.
    Unit ideal when j >= g; zero ideal when there are not enough relations."""
    if j < 0:
        raise PreconditionError("Fitting index must be non-negative")
    size = P.gens - j
    if size <= 0:
        return unit_ideal(P.ring)
    return minors_ideal(P.relations, size)


def support_points(E, i, d, field, torus=False):
    """Support of the d-th exterior power of H_i(E), as a point set: the
    zero locus of Fitt_{d-1} of a presentation S^m --P--> S^g of H_i(E).
    As dim (H_i(E) (x) S/m_w) = g - rank P(w), that is the degree-0,
    depth-d jump locus of the two-term free complex [P]: no minors."""
    embedding(E.ring.field, field)  # refuses a field E cannot be read in
    if d < 0:
        raise PreconditionError("d must be non-negative")
    if d == 0:
        return Space(field, E.ring.nvars, on_torus(E.ring, torus))
    P = homology_presentation(E, i).relations
    two_term = FreeChainComplex(P.ring, [P.nrows, P.ncols], [P])
    return jump_locus_points(two_term, 0, d, field, torus)


class FinVerdict(namedtuple("FinVerdict", "kind dim note",
                            defaults=(None, ""))):
    """kind: "finite" | "infinite" | "unknown"; dim when finite."""
    __slots__ = ()


def is_finite_dimensional(P):
    """Finite-dimensionality of a presented module over its ground field.

    Univariate Laurent: Smith divisors decide exactly (dim = sum of divisor
    degrees).  Ordinary rings: standard-monomial count of the column-module
    basis.  Multivariate Laurent: saturate away the coordinate hyperplanes
    first, then count.  Degrades to "unknown" when out of Groebner scope.
    """
    ring = P.ring
    P = prune_presentation(P)
    if P.gens == 0:
        return FinVerdict("finite", 0, "zero module")
    try:
        if ring.nvars == 1 and ring.laurent:
            divisors = smith_divisors(P.relations)
            if len(divisors) < P.gens:
                return FinVerdict("infinite",
                                  note="a free summand survives the relations")
            dim = sum(d.total_degree() for d in divisors)
            return FinVerdict("finite", dim, "Smith divisor degrees")
        relations = P.relations
        notes = ("standard monomial count", "standard monomials are unbounded")
        if ring.laurent:
            # multivariate Laurent: clear columns (unit scalings) and
            # saturate by the product of the variables over the ordinary twin
            cleared, _ = clear_laurent_cols(relations)
            ring = type(ring)(ring.field, ring.variables, False, "grlex")
            relations = module_saturate(ring, cleared.over(ring),
                                        (1,) * ring.nvars)
            notes = ("standard monomial count after saturation",
                     "torus support is positive-dimensional")
        count = standard_monomial_count(
            ring, module_lead_terms(ring, relations), P.gens)
        if count is None:
            return FinVerdict("infinite", note=notes[1])
        return FinVerdict("finite", count, notes[0])
    except ResourceLimitError as exc:
        return FinVerdict("unknown", note=str(exc))
