"""Connected graded-commutative algebras and their resonance loci.

An algebra is given by its dimensions b_0..b_n (b_0 = 1) and structure
constants for products of positive-degree basis elements; products landing
above degree n are zero.  Left-multiplication by a square-zero degree-one
element turns the algebra into a cochain complex, and the resonance locus
in degree i collects the elements where its i-th cohomology is at least
d-dimensional.  All of these complexes are the specializations of one free
complex over k[a1..a_{b_1}], the universal Aomoto complex, so resonance is
its jump locus on the quadric a^2 = 0.  The quadrics are the entries of
d_1 d_2, so `square_zero_jump_points` makes the one cut for E_A and for
every pullback of it.  Loci are sets of coordinate tuples, or a `Space`
for all of A^1, over F_q or an extension F_{q^e} given by its field alone,
as for every other locus.
"""

import random
from collections import namedtuple

from .complexes import (FreeChainComplex, Verdict, homology_dim_at,
                        jump_locus_ideal, jump_locus_points)
from .errors import InternalError, PreconditionError
from .matrices import Matrix
from .rings import Ideal, Ring, unit_ideal, zero_ideal
from .varieties import Space


class GradedAlgebra:
    """dims: (1, b_1, ..., b_n).  mult[(i, j)][s][t] is the coefficient
    vector (length b_{i+j}) of the product of basis element s of degree i
    with basis element t of degree j, for i, j >= 1 and i + j <= n.
    Missing (i, j) blocks mean the zero map."""

    def __init__(self, field, dims, mult):
        dims = tuple(dims)
        if not dims or dims[0] != 1:
            raise PreconditionError("a connected algebra needs dims[0] == 1")
        if any(b < 0 for b in dims):
            raise PreconditionError("negative dimension")
        self.field = field
        self.dims = dims
        store = {}
        for (i, j), block in mult.items():
            if i < 1 or j < 1 or i + j > self.top:
                continue
            block = tuple(tuple(tuple(v) for v in row) for row in block)
            if len(block) != dims[i] or any(len(row) != dims[j] for row in block):
                raise PreconditionError("structure block (%d,%d) has wrong shape" % (i, j))
            for row in block:
                for vec in row:
                    if len(vec) != dims[i + j]:
                        raise PreconditionError(
                            "product vector in block (%d,%d) has wrong length" % (i, j))
            store[(i, j)] = block
        self.mult = store
        self._aomoto = None  # built on demand by aomoto_complex

    @property
    def top(self):
        return len(self.dims) - 1

    def dim(self, i):
        if 0 <= i <= self.top:
            return self.dims[i]
        return 0

    def basis(self, i, s):
        """Coordinates of basis element s of A^i."""
        F = self.field
        return tuple(F.one if t == s else F.zero for t in range(self.dim(i)))

    def mu(self, i, j, s, t):
        """Coefficient vector of (basis s of A^i) * (basis t of A^j); the
        basis element of A^0 is the unit."""
        if i == 0:
            return self.basis(j, t)
        if j == 0:
            return self.basis(i, s)
        block = self.mult.get((i, j))
        if block is None:
            return (self.field.zero,) * self.dim(i + j)
        return block[s][t]

    def multiply(self, i, j, avec, bvec):
        """Product of a in A^i (coords avec) and b in A^j; zero above top."""
        F = self.field
        if i + j > self.top:
            return ()
        out = [F.zero] * self.dim(i + j)
        for s, ca in enumerate(avec):
            if ca == F.zero:
                continue
            for t, cb in enumerate(bvec):
                if cb == F.zero:
                    continue
                coeffs = self.mu(i, j, s, t)
                w = F.mul(ca, cb)
                for u, c in enumerate(coeffs):
                    if c != F.zero:
                        out[u] = F.add(out[u], F.mul(w, c))
        return tuple(out)

    def __repr__(self):
        return "GradedAlgebra(dims=%r over %r)" % (list(self.dims), self.field)


class BShape(namedtuple("BShape", "dims")):
    __slots__ = ()

    def __new__(cls, dims):
        if not dims or dims[0] != 1:
            raise PreconditionError("shape must start with 1")
        if any(b < 0 for b in dims):
            raise PreconditionError("negative dimension in shape")
        return super().__new__(cls, dims)


def validate_cga(A):
    """Unit, graded-commutativity, associativity; in characteristic 2 the
    square-zero condition on degree-1 elements is per element, not an axiom.
    Reports the first violating tuple."""
    F = A.field
    n = A.top
    char2 = F.characteristic == 2
    # graded commutativity: mu_{j,i}(t,s) = (-1)^{ij} mu_{i,j}(s,t)
    for i in range(1, n):
        for j in range(1, n - i + 1):
            for s in range(A.dim(i)):
                for t in range(A.dim(j)):
                    lhs = A.mu(j, i, t, s)
                    rhs = A.mu(i, j, s, t)
                    sign = -1 if (i * j) % 2 == 1 else 1
                    for u in range(A.dim(i + j)):
                        want = rhs[u] if sign == 1 else F.neg(rhs[u])
                        if lhs[u] != want:
                            return Verdict(False,
                                           "graded-commutativity fails on "
                                           "(deg %d basis %d) * (deg %d basis %d)"
                                           % (i, s, j, t), (i, j, s, t))
    # odd-degree squares vanish when char != 2
    if not char2:
        for i in range(1, n + 1):
            if i % 2 == 1 and 2 * i <= n:
                for s in range(A.dim(i)):
                    sq = A.multiply(i, i, A.basis(i, s), A.basis(i, s))
                    if any(c != F.zero for c in sq):
                        return Verdict(False,
                                       "odd-degree basis element %d of degree %d "
                                       "has nonzero square" % (s, i), (i, s))
    # associativity on basis triples
    for i in range(1, n - 1):
        for j in range(1, n - i):
            for l in range(1, n - i - j + 1):
                for s in range(A.dim(i)):
                    es = A.basis(i, s)
                    for t in range(A.dim(j)):
                        et = A.basis(j, t)
                        st = A.multiply(i, j, es, et)
                        for u in range(A.dim(l)):
                            eu = A.basis(l, u)
                            left = A.multiply(i + j, l, st, eu)
                            tu = A.multiply(j, l, et, eu)
                            right = A.multiply(i, j + l, es, tu)
                            if left != right:
                                return Verdict(False,
                                               "associativity fails on degrees "
                                               "(%d,%d,%d) basis (%d,%d,%d)"
                                               % (i, j, l, s, t, u),
                                               (i, j, l, s, t, u))
    return Verdict(True, "algebra valid: unit, commutativity, associativity")


# ---------------------------------------------------------------------------
# the universal Aomoto complex and its jump loci


def aomoto_complex(A):
    """The universal Aomoto complex E_A, built once per algebra: the free
    chain complex over S = k[a1..a_{b_1}] with ranks b_0..b_n whose d_i
    (b_{i-1} x b_i) is the transpose of left multiplication by
    a = sum a_s e_s from A^{i-1} to A^i.  Its rank formula at a point a is
    dim H^i(A, a), so resonance is its jump locus cut by a^2 = 0.  d_1 d_2
    is the row of coordinates of a^2, and every d_i d_{i+1} vanishes where
    a^2 does: identically, away from characteristic 2."""
    if A._aomoto is not None:
        return A._aomoto
    F = A.field
    ring = Ring(F, tuple("a%d" % (s + 1) for s in range(A.dim(1))), order="grlex")
    avars = [ring.var(s) for s in range(A.dim(1))]
    diffs = []
    for i in range(1, A.top + 1):
        rows, cols = A.dim(i - 1), A.dim(i)
        grid = [[ring.zero() for _ in range(cols)] for _ in range(rows)]
        for s, x in enumerate(avars):
            for t in range(rows):
                for u, c in enumerate(A.mu(1, i - 1, s, t)):
                    if c != F.zero:
                        grid[t][u] = grid[t][u] + x.scale(c)
        diffs.append(Matrix(ring, rows, cols, grid))
    A._aomoto = FreeChainComplex(ring, A.dims, diffs)
    return A._aomoto


def square_zero_quadrics(E):
    """The entries of d_1 d_2.  On E_A they are the coordinates of a^2; on
    a pullback of E_A, those of the pulled-back element's square."""
    return (E.differential(1) * E.differential(2)).row(0)


def square_zero_jump_points(E, i, d, field):
    """The jump locus of E (E_A or a pullback of it) over `field`, cut by
    the square-zero quadrics when d >= 1: resonance, or pulled-back
    resonance.  `field` is that of jump_locus_points."""
    pts = jump_locus_points(E, i, d, field)
    if d < 1:
        return pts
    quadrics, zero = square_zero_quadrics(E), field.zero
    if all(q.is_zero() for q in quadrics):  # on E_A away from characteristic 2
        return pts
    return {w for w in pts
            if all(q.evaluate(w, field) == zero for q in quadrics)}


def in_resonance(A, a, i, d):
    """Whether a lies in the degree-i, depth-d resonance locus: a^2 must
    vanish (an element with a^2 != 0, possible only in characteristic 2,
    is outside) and dim H^i(A, a) >= d, by the rank formula of E_A at a.
    One point at a time, with a^2 multiplied out in A rather than read
    from the square-zero quadrics, so it stays an independent check."""
    if d <= 0:
        return True
    if i < 0 or i > A.top:
        return False
    if len(a) != A.dim(1):
        raise PreconditionError("element has wrong length for A^1")
    if any(c != A.field.zero for c in A.multiply(1, 1, a, a)):
        return False
    return homology_dim_at(aomoto_complex(A), i, A.field)(tuple(a)) >= d


def resonance_points(A, i, d, field=None):
    """All a in A^1 over `field` (default: the algebra's finite field) with
    a^2 = 0 and dim H^i(A, a) >= d: the jump locus of E_A cut by a^2 = 0
    when d >= 1.  `field` is that of jump_locus_points.

    The result is checked to be a cone (closed under scaling): closed
    under a generator g of F^x, since for a finite set g*S in S is g*S = S,
    and so g^k*S = S for every unit g^k."""
    F = field if field is not None else A.field
    pts = square_zero_jump_points(aomoto_complex(A), i, d, F)
    if pts and isinstance(pts, set):  # a whole Space is a cone
        g, mul = F.primitive(), F.mul
        if any(tuple(mul(g, c) for c in p) not in pts for p in pts):
            raise InternalError("resonance locus is not a cone")
    return pts


def resonance_ideal(A, i, d):
    """Bihomogeneous equations for the degree-i resonance locus: the
    coordinates of a^2 (the square-zero quadrics, the entries of d_1 d_2)
    together with the jump locus ideal of E_A.  Zero locus
    equals resonance_points over every finite field; for d = 0 that is all
    of A^1, the zero ideal."""
    if d < 0:
        raise PreconditionError("d must be non-negative")
    E = aomoto_complex(A)
    if d == 0:
        return zero_ideal(E.ring)
    if A.dim(i) - d + 1 <= 0:
        return unit_ideal(E.ring)
    # the quadrics are emitted even when char != 2 makes them vanish
    return Ideal(E.ring, [*square_zero_quadrics(E),
                          *jump_locus_ideal(E, i, d).generators])


# ---------------------------------------------------------------------------
# sampling the parameter space of algebras on a fixed graded vector space


def sample_cga(shape, field, seed):
    """A random algebra with the given dims.

    Length <= 3 shapes only: there the parameter space is the affine space
    of graded-commutative pairings B^1 x B^1 -> B^2 (anti-symmetric away
    from characteristic 2, symmetric in characteristic 2), sampled uniformly
    over the structure constants.  Longer shapes must be supplied explicitly.
    """
    dims = shape.dims if isinstance(shape, BShape) else tuple(shape)
    if len(dims) > 3:
        raise PreconditionError(
            "sampling is implemented for shapes (1, b1, b2) only; longer "
            "shapes carry associativity constraints and must be given "
            "explicit structure constants")
    rng = random.Random(seed)
    F = field
    if len(dims) < 3:
        return GradedAlgebra(F, dims, {})
    b1, b2 = dims[1], dims[2]
    if not F.is_finite:
        raise PreconditionError("sampling draws uniformly from a finite field")
    elems = list(F.elements())
    diagonal = F.characteristic == 2
    return _pairing_algebra(F, b1, b2, (
        ((s, t), [rng.choice(elems) for _ in range(b2)])
        for s in range(b1) for t in range(s if diagonal else s + 1, b1)))


def exterior_algebra(field, n):
    """The exterior algebra on n degree-one generators: basis of degree k
    is the sorted k-subsets, products are signed unions.  This is the
    cohomology of the rank-n torus over any field."""
    from itertools import combinations
    from math import comb
    F = field
    dims = tuple(comb(n, k) for k in range(n + 1))
    basis = {k: list(combinations(range(n), k)) for k in range(n + 1)}
    index = {k: {s: i for i, s in enumerate(basis[k])} for k in range(n + 1)}
    mult = {}
    for i in range(1, n):
        for j in range(1, n - i + 1):
            block = []
            for s in basis[i]:
                row = []
                for t in basis[j]:
                    vec = [F.zero] * dims[i + j]
                    if not set(s) & set(t):
                        merged = tuple(sorted(s + t))
                        # sign of the permutation sorting the concatenation
                        swaps = sum(a > b for a, b in combinations(s + t, 2))
                        sign = F.one if swaps % 2 == 0 else F.neg(F.one)
                        vec[index[i + j][merged]] = sign
                    row.append(tuple(vec))
                block.append(row)
            mult[(i, j)] = block
    return GradedAlgebra(F, dims, mult)


def pairing_cga(field, b1, b2, pairing):
    """Explicit length-3 algebra from pairing[(s, t)] = coefficient vector
    for s < t (and s <= t in characteristic 2); int coefficients are read
    through the field's from_int."""
    F = field
    return _pairing_algebra(F, b1, b2, (
        ((s, t), [F.from_int(c) if isinstance(c, int) else c for c in vec])
        for (s, t), vec in pairing.items()))


def _pairing_algebra(field, b1, b2, pairing):
    """The (1, b1, b2) algebra whose product of degree-one basis elements
    s, t is the vector given for (s, t) in the iterable `pairing` of
    ((s, t), vector), and its graded-commutative mirror at (t, s)."""
    F = field
    block = [[[F.zero] * b2 for _ in range(b1)] for _ in range(b1)]
    char2 = F.characteristic == 2
    for (s, t), vec in pairing:
        block[s][t] = list(vec)
        if t != s:
            block[t][s] = [c if char2 else F.neg(c) for c in vec]
    return GradedAlgebra(F, (1, b1, b2), {(1, 1): block})


def generic_vanishing_experiment(shape, i, trials, field, seed):
    """Sample algebras on the shape and classify each by whether its degree-i
    resonance is trivial (contains only 0) or not.  Per-trial seeds are
    derived by counter, so any execution schedule sees the same algebras.

    Returns a report dict with counts, one exemplar per class (its trial and
    algebra), and a witness element for each resonant trial."""
    dims = shape.dims if isinstance(shape, BShape) else tuple(shape)
    if len(dims) > 3:
        raise PreconditionError("the experiment runs on shapes of length <= 3")
    if trials <= 0:
        raise PreconditionError("at least one trial is required")
    F = field
    zero = tuple(F.zero for _ in range(dims[1] if len(dims) > 1 else 0))
    trivial_count = 0
    resonant_count = 0
    trivial_exemplar = None
    resonant_exemplar = None
    witnesses = []
    for trial in range(trials):
        A = sample_cga(BShape(dims), F, "%s:%d" % (seed, trial))
        pts = resonance_points(A, i, 1)
        if isinstance(pts, Space):  # all of A^1: its least nonzero point
            nontrivial = [zero[:-1] + (F.one,)] if zero else []
        else:
            nontrivial = [p for p in pts if p != zero]
        if nontrivial:
            resonant_count += 1
            witness = min(nontrivial)
            witnesses.append({"trial": trial, "witness": witness})
            if resonant_exemplar is None:
                resonant_exemplar = {"trial": trial, "algebra": A,
                                     "witness": witness}
        else:
            trivial_count += 1
            if trivial_exemplar is None:
                trivial_exemplar = {"trial": trial, "algebra": A}
    return {
        "shape": list(dims),
        "i": i,
        "trials": trials,
        "seed": seed,
        "vanishing_count": trivial_count,
        "resonant_count": resonant_count,
        "vanishing_fraction": trivial_count / trials,
        "vanishing_exemplar": trivial_exemplar,
        "resonant_exemplar": resonant_exemplar,
        "resonant_witnesses": witnesses,
    }
