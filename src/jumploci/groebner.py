"""A small Buchberger engine for ideals and submodules of free modules.

Everything here is desk scale by design: Buchberger's algorithm with the
Gebauer-Moeller pair criteria and sugar selection, sparse dictionaries, and
fixed resource bounds that raise instead of letting a computation run
unbounded.  The normal form keeps the terms left to reduce in a heap of
order keys, each computed once per basis computation (`TermOrder`), and
adds each multiple of a reducer into them in place.

Module elements are dicts mapping (component, exponent_tuple) to nonzero
scalars.  Module monomial orders are key functions on those pairs, each
returning a flat tuple of ints; the built-in ones are position-over-term
(used for syzygies: an elimination order across the component blocks) and
a variable-elimination order used for saturation.
"""

import heapq
import operator
from itertools import product

from .errors import InternalError, ResourceLimitError, UnsupportedRingError
from .matrices import Matrix
from .rings import Ideal, Poly, Ring


# Desk-scale bounds, which stop runaway growth in every Groebner
# computation: the degree of an element the S-pair loop adds, and how many
# it adds.
ENGINE_MAX_DEGREE = 48
ENGINE_MAX_BASIS = 600


def _require_ordinary(ring):
    if ring.laurent:
        raise UnsupportedRingError(
            "Groebner computations need an ordinary polynomial ring; "
            "clear denominators first (Laurent units t^e can be scaled away)")


# ---------------------------------------------------------------------------
# module elements


class TermOrder(dict):
    """A module monomial order with each term's heap entry computed once.

    `key` is the order's key function; it returns a flat tuple of ints.
    order[term] is (negated key, term), made on first use and kept, so the
    smallest entry of a heap is the largest term.
    """

    def __init__(self, key):
        super().__init__()
        self.key = key

    def __missing__(self, term):
        entry = self[term] = (tuple([-x for x in self.key(term)]), term)
        return entry


def m_lead(v, order):
    """The leading term of a nonzero module element."""
    return min(map(order.__getitem__, v))[1]


def _divides(e1, e2):
    return all(map(operator.le, e1, e2))


def _add_multiple(F, work, g, shift, coeff, order, heap):
    """work += coeff * x^shift * g, in place; a term new to work is pushed
    on heap."""
    zero, add, mul = F.zero, F.add, F.mul
    for (comp, e), c in g.items():
        term = (comp, tuple(map(operator.add, e, shift)))
        old = work.get(term)
        if old is None:
            work[term] = mul(c, coeff)
            heapq.heappush(heap, order[term])
        else:
            s = add(old, mul(c, coeff))
            if s == zero:
                del work[term]
            else:
                work[term] = s


def m_reduce(F, v, basis, order):
    """Full normal form of v against basis (list of (elem, lead) pairs).

    The lead of what is left is reduced by the first basis element whose
    lead divides it, or else moves to the remainder, so the remainder's
    terms come in decreasing order.  The terms left sit in a heap of their
    cached entries (Yan's geobuckets, J. Symb. Comput. 25, 1998, with one
    bucket): a term that cancels stays in the heap until it is popped and
    skipped.
    """
    work = dict(v)
    heap = [order[t] for t in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        lt = heapq.heappop(heap)[1]
        if lt not in work:
            continue  # cancelled after it was pushed
        comp, mono = lt
        for g, glead in basis:
            gcomp, gmono = glead
            if gcomp == comp and _divides(gmono, mono):
                _add_multiple(F, work, g, tuple(map(operator.sub, mono, gmono)),
                              F.neg(F.div(work[lt], g[glead])), order, heap)
                if lt in work:
                    raise InternalError(
                        "reducing by a basis element left its lead %r" % (lt,))
                break
        else:
            remainder[lt] = work.pop(lt)
    if work:
        raise InternalError("%d terms of a normal form were never popped"
                            % len(work))
    return remainder


def _pure_component(v):
    comps = {comp for (comp, _) in v}
    return comps.pop() if len(comps) == 1 else None


def _lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def module_groebner(ring, gens, key):
    """Buchberger for a submodule of a free module, returning a reduced basis.

    gens: module elements (dicts).  key: module monomial order key.
    Pairs are formed only between leads in one component and kept by the
    Gebauer-Moeller update (J. Symb. Comput. 6, 1988).  The next pair is the
    one of least sugar, then lcm degree, then indices (Giovini et al., ISSAC
    1991): an input's sugar is its highest total degree, a pair's is that
    of the larger of its two lcm multiples, and a new element keeps the
    sugar of its pair.
    """
    _require_ordinary(ring)
    F = ring.field
    basis = []      # (element, lead, pure component or None, sugar)
    reducers = []   # (element, lead) of every element, in basis order
    active = []     # indices of the elements no later lead divides
    pairs = {}      # component -> {(i, j): lcm of the leads}, i > j
    queue = []      # heap of (sugar, lcm degree, i, j) over `pairs`
    order = TermOrder(key)

    def update(h):
        """Add the pairs of basis[h] and drop the ones it makes useless."""
        _, (c, eh), pure_h, sugar_h = basis[h]
        old = pairs.setdefault(c, {})
        # chain criterion: lead(h) divides lcm(i, j) strictly below it
        for (i, j), lij in list(old.items()):
            if (_divides(eh, lij) and _lcm(basis[i][1][1], eh) != lij
                    and _lcm(basis[j][1][1], eh) != lij):
                del old[(i, j)]
        new = []
        for g in active:
            _, (cg, eg), pure_g, _ = basis[g]
            if cg == c:
                # coprime leads only count for one-component elements (the
                # criterion is unsound for genuinely vector-valued ones)
                coprime = (pure_h is not None and pure_g is not None
                           and all(min(a, b) == 0 for a, b in zip(eg, eh)))
                new.append((g, _lcm(eg, eh), coprime))
        # criteria M and F: one new pair per minimal lcm; a coprime pair
        # stays long enough to stand for its lcm, then goes
        kept = []
        for n, (g, lcm, coprime) in enumerate(new):
            if coprime or not any(_divides(other, lcm) for _, other, _ in
                                  new[n + 1:] + kept):
                kept.append((g, lcm, coprime))
        for g, lcm, coprime in kept:
            if not coprime:
                old[(h, g)] = lcm
                deg = sum(lcm)
                sugar = max(sugar_h + deg - sum(eh),
                            basis[g][3] + deg - sum(basis[g][1][1]))
                heapq.heappush(queue, (sugar, deg, h, g))
        active[:] = [g for g in active
                     if basis[g][1][0] != c or not _divides(eh, basis[g][1][1])]
        active.append(h)

    def add(g, sugar):
        lead = m_lead(g, order)
        inv = F.inv(g[lead])
        g = {t: F.mul(inv, c) for t, c in g.items()}
        basis.append((g, lead, _pure_component(g), sugar))
        reducers.append((g, lead))
        update(len(basis) - 1)

    for g in gens:
        if g:
            add(g, max(sum(e) for (_, e) in g))
    added = 0
    while queue:
        sugar, _, i, j = heapq.heappop(queue)
        (gi, (ci, ei), _, _), (gj, (_, ej), _, _) = basis[i], basis[j]
        lcm = pairs[ci].pop((i, j), None)
        if lcm is None:
            continue  # dropped by the chain criterion
        s = {}  # its heap is built by m_reduce, so the pushes go nowhere
        _add_multiple(F, s, gi, tuple(a - b for a, b in zip(lcm, ei)), F.one,
                      order, [])
        _add_multiple(F, s, gj, tuple(a - b for a, b in zip(lcm, ej)),
                      F.neg(F.one), order, [])
        r = m_reduce(F, s, reducers, order)
        if r:
            if max(sum(e) for (_, e) in r) > ENGINE_MAX_DEGREE:
                raise ResourceLimitError(
                    "intermediate degree exceeds the desk-scale bound %d"
                    % ENGINE_MAX_DEGREE)
            added += 1
            if added > ENGINE_MAX_BASIS:
                raise ResourceLimitError(
                    "basis grew past the desk-scale bound %d" % ENGINE_MAX_BASIS)
            add(r, sugar)
    # minimalize: drop elements whose lead is divisible by another lead
    minimal = []
    for idx, (g, lead, _, _) in enumerate(basis):
        keep = True
        for jdx, (_, lead2, _, _) in enumerate(basis):
            if jdx == idx:
                continue
            if lead2[0] == lead[0] and _divides(lead2[1], lead[1]):
                if lead2[1] == lead[1] and jdx > idx:
                    continue  # equal leads: keep the earliest
                keep = False
                break
        if keep:
            minimal.append((g, lead))
    # inter-reduce for a unique reduced basis
    reduced = []
    for idx, (g, lead) in enumerate(minimal):
        others = [minimal[t] for t in range(len(minimal)) if t != idx]
        tail = dict(g)
        tail.pop(lead)
        r = m_reduce(F, tail, others, order)
        r[lead] = F.one
        reduced.append((r, lead))
    reduced.sort(key=lambda gl: key(gl[1]))
    return [g for g, _ in reduced]


# ---------------------------------------------------------------------------
# orders


def pot_key(ring):
    """Position-over-term key: lower component index wins; inside a
    component, the ring's monomial order.  Because the component dominates,
    this is an elimination order across any leading block of components:
    a lead in a later component certifies the whole element avoids the
    earlier ones."""
    monokey = ring.monomial_key()
    def key(term):
        comp, e = term
        return (-comp, *monokey(e))
    return key


def elim_var_key(ring, var_index):
    """Module order eliminating one variable: any monomial containing the
    variable beats any that does not, then position-over-term."""
    monokey = ring.monomial_key()
    def key(term):
        comp, e = term
        return (e[var_index], -comp, *monokey(e))
    return key


# ---------------------------------------------------------------------------
# polynomial (ideal) interface


def buchberger(ideal):
    """Reduced Groebner basis of an ideal, under the ring's monomial order,
    within the engine bounds of every Groebner computation."""
    ring = ideal.ring
    gens = ideal.generators
    basis = module_groebner(ring, _columns_as_module(
        Matrix(ring, 1, len(gens), [gens])), pot_key(ring))
    return Ideal(ring, _module_as_columns(ring, basis, 1).row(0))


# ---------------------------------------------------------------------------
# syzygies, membership, quotients


def _columns_as_module(matrix):
    cols = []
    for j in range(matrix.ncols):
        v = {}
        for i in range(matrix.nrows):
            p = matrix.entries[i][j]
            for e, c in p.terms.items():
                v[(i, e)] = c
        cols.append(v)
    return cols


def _module_as_columns(ring, elems, nrows):
    """The matrix over `ring` whose column j is elems[j]: the inverse of
    _columns_as_module."""
    cols = []
    for v in elems:
        col = [dict() for _ in range(nrows)]
        for (comp, e), c in v.items():
            col[comp][e] = c
        cols.append([Poly(ring, t) for t in col])
    return Matrix(ring, nrows, len(cols),
                  [[col[i] for col in cols] for i in range(nrows)])


def syzygy_matrix(matrix):
    """Generators of the kernel module {v : M v = 0}, as matrix columns."""
    return ModuleSolver(matrix).syzygies()


class ModuleSolver:
    """Solve K x = c repeatedly for the same K (membership in the column
    span, with the certificate), and read off the syzygies of K.

    Standard elimination trick: tag column j of K with the j-th basis
    vector of a second block and take a position-over-term basis, with the
    image block dominant.
    """

    def __init__(self, matrix):
        ring = matrix.ring
        self.ring = ring
        self.m = matrix.nrows
        self.n = matrix.ncols
        self.order = TermOrder(pot_key(ring))
        gens = _columns_as_module(matrix)
        for j, v in enumerate(gens):
            v[(self.m + j, (0,) * ring.nvars)] = ring.field.one
        basis = module_groebner(ring, gens, self.order.key)
        self.basis = [(g, m_lead(g, self.order)) for g in basis]

    def syzygies(self):
        """Generators of {v : K v = 0}, as matrix columns: the basis
        elements supported purely on the tag block."""
        m = self.m
        kernel = [{(comp - m, e): c for (comp, e), c in g.items()}
                  for g, _ in self.basis if all(comp >= m for (comp, _) in g)]
        return _module_as_columns(self.ring, kernel, self.n)

    def solve(self, rhs):
        """rhs: list of Poly of length m.  Returns list of Poly (length n)
        with K x = rhs, or None if rhs is not in the column span."""
        ring, m = self.ring, self.m
        v, = _columns_as_module(Matrix(ring, m, 1, [[p] for p in rhs]))
        r = m_reduce(ring.field, v, self.basis, self.order)
        if any(comp < m for (comp, _) in r):
            return None
        neg = ring.field.neg
        x = {(comp - m, e): neg(c) for (comp, e), c in r.items()}
        return _module_as_columns(ring, [x], self.n).col(0)


def module_lead_terms(ring, columns_matrix):
    """Leading terms of the reduced basis of the column module."""
    order = TermOrder(pot_key(ring))
    basis = module_groebner(ring, _columns_as_module(columns_matrix), order.key)
    return [m_lead(v, order) for v in basis]


def standard_monomial_count(ring, lead_terms, ncomponents):
    """Dimension of S^g / (module with the given lead terms); None = infinite.

    Per component, the quotient by a monomial ideal is finite exactly when
    every variable appears as a pure power among the leads.
    """
    r = ring.nvars
    total = 0
    for comp in range(ncomponents):
        leads = [e for (c, e) in lead_terms if c == comp]
        if any(all(x == 0 for x in e) for e in leads):
            continue  # unit lead: component contributes 0
        bounds = []
        finite = True
        for v in range(r):
            pure = [e[v] for e in leads if all(x == 0 for i, x in enumerate(e) if i != v)]
            pure = [x for x in pure if x > 0]
            if not pure:
                finite = False
                break
            bounds.append(min(pure))
        if not finite:
            return None
        # the exponent tuples below the pure-power bounds that no lead divides
        total += sum(not any(_divides(e, x) for e in leads)
                     for x in product(*map(range, bounds)))
    return total


def module_saturate(ring, columns_matrix, monomial_exps):
    """Saturation (M : f^inf) of the column module by f = x^monomial_exps.

    Standard auxiliary-variable computation: adjoin y, add the columns
    (1 - y f) e_c, take a basis under a y-elimination order, and keep the
    y-free elements.  Returns the saturated column matrix over `ring`.
    """
    _require_ordinary(ring)
    g = columns_matrix.nrows
    aux_name = "_y"
    while aux_name in ring.variables:
        aux_name += "_"
    big = Ring(ring.field, ring.variables + (aux_name,), False, ring.order or "grlex")
    y_index = big.nvars - 1

    gens = []
    for col in _columns_as_module(columns_matrix):
        gens.append({(comp, e + (0,)): c for (comp, e), c in col.items()})
    one = big.field.one
    f_mono = tuple(monomial_exps) + (1,)
    for comp in range(g):
        v = {(comp, (0,) * big.nvars): one,
             (comp, f_mono): big.field.neg(one)}
        gens.append(v)
    basis = module_groebner(big, gens, elim_var_key(big, y_index))
    kept = [{(comp, e[:-1]): c for (comp, e), c in v.items()}
            for v in basis if all(e[y_index] == 0 for (_, e) in v)]
    return _module_as_columns(ring, kept, g)
