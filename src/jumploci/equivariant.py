"""From a graded algebra and a surjection onto an abelian group to the
graded chain complex of the associated cover, and the two verdicts built
on it: the jump-locus/resonance comparison and the finiteness test.

The ring of definition is the polynomial ring k[x_1..x_r] on the free rank
of the group; in characteristic p, p-torsion contributes nilpotent
directions which carry no points and are recorded but quotiented away.
"""

from collections import namedtuple
from functools import reduce

from .cga import aomoto_complex, square_zero_jump_points, validate_cga
from .complexes import (FreeChainComplex, homology_presentation,
                        is_finite_dimensional, jump_locus_points,
                        support_points, validate_complex)
from .errors import InternalError, PreconditionError
from .matrices import Matrix
from .rings import Ring
from .smith import integer_column_echelon


class FinAbGroup:
    """Z^rank (+) Z/n_1 (+) ... (+) Z/n_s with n_1 | n_2 | ... | n_s."""

    def __init__(self, rank, torsion=()):
        torsion = tuple(torsion)
        if rank < 0:
            raise PreconditionError("negative rank")
        for n in torsion:
            if n < 2:
                raise PreconditionError("invariant factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise PreconditionError(
                    "invariant factors must form a divisibility chain")
        self.rank = rank
        self.torsion = torsion

    @property
    def ngens(self):
        return self.rank + len(self.torsion)

    def __eq__(self, other):
        return (isinstance(other, FinAbGroup) and self.rank == other.rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        parts = ["Z"] * self.rank + ["Z/%d" % n for n in self.torsion]
        return " + ".join(parts) if parts else "0"


class GrRingDescriptor(namedtuple("GrRingDescriptor",
                                  "group field sbar nilpotent_parts")):
    """The associated graded ring of the group algebra along powers of the
    augmentation ideal: a polynomial ring `sbar` = k[x_1..x_r] on the free
    rank, with one nilpotent truncated variable per torsion factor
    divisible by the characteristic (`nilpotent_parts`, per torsion
    factor: ("trivial",) or ("truncated", p^s)).  Points only see the
    polynomial part."""
    __slots__ = ()


def gr_ring(G, field):
    """Associated graded descriptor for kG.

    Torsion factor Z/n with char k = p | n contributes k[x]/(x^{p^v}) where
    p^v is the p-part of n; torsion prime to the characteristic contributes
    nothing.  Either way the point set is that of k[x_1..x_r]."""
    names = tuple("x%d" % (i + 1) for i in range(G.rank))
    sbar = Ring(field, names, order="grlex")
    parts = []
    p = field.characteristic
    for n in G.torsion:
        if p > 0 and n % p == 0:
            ppart = 1
            while n % p == 0:
                ppart *= p
                n //= p
            parts.append(("truncated", ppart))
        else:
            parts.append(("trivial",))
    return GrRingDescriptor(G, field, sbar, tuple(parts))


class NuData:
    """A homomorphism Z^{b1} -> G given by integer blocks: `free_block` is
    rank(G) x b1, `torsion_blocks[j]` is the row onto Z/n_j.  Surjectivity
    onto G is required (checked by a column reduction)."""

    def __init__(self, b1, free_block, torsion_blocks=(), group=None):
        free_block = tuple(tuple(int(c) for c in row) for row in free_block)
        torsion_blocks = tuple(tuple(int(c) for c in row) for row in torsion_blocks)
        if group is None:
            group = FinAbGroup(len(free_block))
        if len(free_block) != group.rank:
            raise PreconditionError("free block must have rank(G) rows")
        if len(torsion_blocks) != len(group.torsion):
            raise PreconditionError("one torsion row per invariant factor")
        for row in free_block + torsion_blocks:
            if len(row) != b1:
                raise PreconditionError("matrix rows must have b1 columns")
        self.b1 = b1
        self.group = group
        self.free_block = free_block
        self.torsion_blocks = torsion_blocks
        if not self.is_surjective():
            raise PreconditionError(
                "the map is not onto the group; only epimorphisms are accepted")

    def is_surjective(self):
        """Whether the columns of the blocks, with n_j e_j for each torsion
        factor Z/n_j, span Z^m: whether their integer column echelon form
        has a pivot of +-1 in every row."""
        G, m = self.group, self.group.ngens
        cols = [list(c) for c in zip(*self.free_block, *self.torsion_blocks)]
        cols += [[n if k == G.rank + j else 0 for k in range(m)]
                 for j, n in enumerate(G.torsion)]
        pivots, _ = integer_column_echelon(cols, m)
        return all(c is not None and abs(c[k]) == 1
                   for k, c in enumerate(pivots))

    def nu_bar_star(self, field):
        """The induced map H_1(X,k) -> k^r: the free block reduced into k."""
        return [[field.from_int(c) for c in row] for row in self.free_block]

    def nu_bar_pullback(self, field, w):
        """nu-bar^*(w) in A^1 coordinates: the transpose acting on w."""
        F, nbar = field, self.nu_bar_star(field)
        return tuple(reduce(F.add, [F.mul(row[s], c) for row, c in zip(nbar, w)],
                            F.zero) for s in range(self.b1))

    def __repr__(self):
        return "NuData(b1=%d onto %r)" % (self.b1, self.group)


def identity_nu(b1):
    """The identity surjection Z^{b1} -> Z^{b1}."""
    block = [[1 if i == j else 0 for j in range(b1)] for i in range(b1)]
    return NuData(b1, block, (), FinAbGroup(b1))


def build_E1(A, nu):
    """The first page: ranks b_i(A) over k[x_1..x_r], with the differential
    determined on generators by comultiplication followed by the induced
    map into the group's degree-one homology, embedded as linear forms.

    With the bases fixed here, the defining transpose identity is exact:
    the page equals `pulled_back_aomoto_complex(A, nu)` matrix for matrix,
    so d_i(w) transposed is left-multiplication by the pulled-back element
    (tested, not just asserted).
    """
    verdict = validate_cga(A)
    if not verdict.ok:
        raise PreconditionError("invalid algebra: %s" % verdict.message)
    if nu.b1 != A.dim(1):
        raise PreconditionError("nu source rank %d != b_1(A) = %d"
                                % (nu.b1, A.dim(1)))
    F = A.field
    if F.characteristic == 2:
        # squares of pulled-back degree-one elements must vanish for the
        # differential to square to zero; automatic away from char 2
        for rho in range(nu.group.rank):
            w = tuple(F.one if k == rho else F.zero for k in range(nu.group.rank))
            a = nu.nu_bar_pullback(F, w)
            if any(c != F.zero for c in A.multiply(1, 1, a, a)):
                raise PreconditionError(
                    "in characteristic 2 the pulled-back basis element %d has "
                    "nonzero square; the page differential would not compose "
                    "to zero" % rho)
    grd = gr_ring(nu.group, F)
    ring = grd.sbar
    r = nu.group.rank
    nbar = nu.nu_bar_star(F)
    diffs = []
    for i in range(1, A.top + 1):
        rows, cols = A.dim(i - 1), A.dim(i)
        grid = [[ring.zero() for _ in range(cols)] for _ in range(rows)]
        for rho in range(r):
            x = ring.var(rho)
            for s in range(A.dim(1)):
                c_ns = nbar[rho][s]
                if c_ns == F.zero:
                    continue
                for t in range(rows):
                    mu = A.mu(1, i - 1, s, t)
                    for u in range(cols):
                        if mu[u] != F.zero:
                            grid[t][u] = grid[t][u] + x.scale(F.mul(c_ns, mu[u]))
        diffs.append(Matrix(ring, rows, cols, grid))
    E = FreeChainComplex(ring, A.dims, diffs)
    verdict = validate_complex(E)
    if not verdict.ok:
        raise InternalError("page differential fails d.d = 0: %s"
                             % verdict.message)
    return E


def pulled_back_aomoto_complex(A, nu):
    """nu-bar^*E_A over the ring of gr_ring(group, k): the universal Aomoto
    complex with each a_s replaced by sum_rho n-bar[rho][s] x_rho.  Built
    from E_A, never from build_E1, so the comparison still sets two
    constructions against each other."""
    if nu.b1 != A.dim(1):
        raise PreconditionError("nu source rank %d != b_1(A) = %d"
                                % (nu.b1, A.dim(1)))
    ring = gr_ring(nu.group, A.field).sbar
    nbar = nu.nu_bar_star(A.field)
    forms = [sum((ring.var(rho).scale(row[s]) for rho, row in enumerate(nbar)),
                 ring.zero()) for s in range(nu.b1)]

    def pull(p):  # every entry of E_A is a linear form sum c_s a_s
        return sum((forms[e.index(1)].scale(c) for e, c in p.terms.items()),
                   ring.zero())
    return FreeChainComplex(ring, A.dims, [
        Matrix(ring, d.nrows, d.ncols, [[pull(p) for p in row] for row in d.entries])
        for d in aomoto_complex(A).differentials])


def verify_cv_res(A, nu, i, d):
    """Both sides of the comparison at every point of F^r, F the algebra's
    finite field: the jump loci of the page and of the pulled-back Aomoto
    complex, the latter cut by nu-bar^*(w)^2 = 0, the entries of its d_1 d_2.
    `equal` must be true; a false value signals an implementation fault."""
    field = A.field
    E = build_E1(A, nu)
    lhs = jump_locus_points(E, i, d, field)
    rhs = square_zero_jump_points(pulled_back_aomoto_complex(A, nu), i, d, field)
    return {
        "i": i,
        "d": d,
        "lhs_points": lhs,
        "rhs_points": rhs,
        "equal": lhs == rhs,
    }


def finiteness_test(A, nu, k_range):
    """Hypothesis: the pullback of every nonzero w avoids all degree <= k
    resonance (beyond 0), over the algebra's finite field.  Its violations
    are each nonzero w of the pulled-back resonance loci for i = 0..k, with
    the first i that holds it, in coordinate (enumeration) order.  When it
    holds, the page homology supports are checked to sit inside the origin
    and the homology dimensions are reported; the conclusion transfers to
    the completed invariants of the cover (the completion itself is never
    materialized).  A failed hypothesis is reported as inconclusive: the
    criterion is one-directional.
    """
    field = A.field
    if k_range < 0:
        raise PreconditionError("k must be non-negative")
    if k_range > A.top:
        raise PreconditionError("k exceeds the top degree of the algebra")
    E = build_E1(A, nu)
    zero = tuple(field.zero for _ in range(nu.group.rank))
    P = pulled_back_aomoto_complex(A, nu)
    first = {}
    for i in range(0, k_range + 1):
        for w in square_zero_jump_points(P, i, 1, field):
            if w != zero:
                first.setdefault(w, i)
    violations = [{"w": w, "i": first[w]} for w in sorted(first)]
    holds = not violations
    report = {
        "k_range": k_range,
        "hypothesis_holds": holds,
        "violations": violations,
        "group": repr(nu.group),
        "nilpotent_parts": list(gr_ring(nu.group, field).nilpotent_parts),
    }
    if not holds:
        report["conclusion"] = ("inconclusive: the finiteness criterion is "
                                "one-directional, a resonant direction in the "
                                "image decides nothing")
        return report
    supports, dims = {}, {}
    for i in range(0, k_range + 1):
        supports[i] = support_points(E, i, 1, field)
        dims[i] = is_finite_dimensional(homology_presentation(E, i))
    report["e2_supports"] = supports
    report["e2_supports_in_origin"] = all(
        w == zero for pts in supports.values() for w in pts)
    report["e2_dims"] = dims
    report["conclusion"] = ("completed homology through degree %d is "
                            "finite-dimensional" % k_range)
    return report
