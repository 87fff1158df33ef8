"""A small Buchberger engine for ideals and submodules of free modules.

Everything here is desk scale by design: Buchberger's algorithm with the
Gebauer-Moeller pair criteria and sugar selection, dense dictionaries, and
fixed resource bounds that raise instead of letting a computation run
unbounded.

Module elements are dicts mapping (component, exponent_tuple) to nonzero
scalars.  Module monomial orders are key functions on those pairs; the
built-in ones are position-over-term (used for syzygies: an elimination
order across the component blocks) and a variable-elimination order used
for saturation.
"""

import heapq

from .errors import ResourceLimitError, UnsupportedRingError
from .matrices import Matrix
from .rings import Ideal, Poly, Ring


# Desk-scale bounds.  `buchberger` refuses an ideal beyond the input bounds;
# the engine bounds stop runaway growth in every Groebner computation:
# the degree of an element the S-pair loop adds, and how many it adds.
MAX_VARS = 3
MAX_GENERATORS = 6
MAX_DEGREE = 6
ENGINE_MAX_DEGREE = 48
ENGINE_MAX_BASIS = 600


def _require_ordinary(ring):
    if ring.laurent:
        raise UnsupportedRingError(
            "Groebner computations need an ordinary polynomial ring; "
            "clear denominators first (Laurent units t^e can be scaled away)")


# ---------------------------------------------------------------------------
# module elements


def m_add(F, a, b):
    out = dict(a)
    for k, c in b.items():
        s = F.add(out.get(k, F.zero), c)
        if s == F.zero:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def m_scale_term(F, v, mono, coeff):
    """Multiply a module element by coeff * x^mono."""
    out = {}
    for (comp, e), c in v.items():
        out[(comp, tuple(x + y for x, y in zip(e, mono)))] = F.mul(c, coeff)
    return out


def m_lead(v, key):
    return max(v, key=key)


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def m_reduce(F, v, basis, key):
    """Full normal form of v against basis (list of (elem, lead) pairs)."""
    remainder = {}
    work = dict(v)
    while work:
        lt = m_lead(work, key)
        comp, mono = lt
        reduced = False
        for g, glead in basis:
            gcomp, gmono = glead
            if gcomp == comp and _divides(gmono, mono):
                factor_mono = tuple(a - b for a, b in zip(mono, gmono))
                factor_coeff = F.neg(F.div(work[lt], g[glead]))
                work = m_add(F, work, m_scale_term(F, g, factor_mono, factor_coeff))
                reduced = True
                break
        if not reduced:
            remainder[lt] = work.pop(lt)
    return remainder


def m_normalize(F, v, key):
    """Scale so the leading coefficient is 1."""
    if not v:
        return v
    inv = F.inv(v[m_lead(v, key)])
    return {k: F.mul(inv, c) for k, c in v.items()}


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
        g = m_normalize(F, g, key)
        basis.append((g, m_lead(g, key), _pure_component(g), sugar))
        reducers.append(basis[-1][:2])
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
        s = m_add(
            F,
            m_scale_term(F, gi, tuple(a - b for a, b in zip(lcm, ei)), F.one),
            m_scale_term(F, gj, tuple(a - b for a, b in zip(lcm, ej)),
                         F.neg(F.one)),
        )
        r = m_reduce(F, s, reducers, key)
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
        r = m_reduce(F, tail, others, key)
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
        return (-comp, monokey(e))
    return key


def elim_var_key(ring, var_index):
    """Module order eliminating one variable: any monomial containing the
    variable beats any that does not, then position-over-term."""
    monokey = ring.monomial_key()
    def key(term):
        comp, e = term
        return (e[var_index], -comp, monokey(e))
    return key


# ---------------------------------------------------------------------------
# polynomial (ideal) interface


def poly_to_module(p, comp=0):
    return {(comp, e): c for e, c in p.terms.items()}


def module_to_poly(ring, v, comp=0):
    return Poly(ring, {e: c for (c0, e), c in v.items() if c0 == comp})


def buchberger(ideal):
    """Reduced Groebner basis of an ideal, under the ring's monomial order.

    Enforces the strict desk-scale input bounds: at most `MAX_VARS`
    variables, `MAX_GENERATORS` generators, total degree `MAX_DEGREE`.
    """
    ring = ideal.ring
    _require_ordinary(ring)
    if ring.nvars > MAX_VARS:
        raise ResourceLimitError(
            "%d variables exceeds the desk-scale bound %d"
            % (ring.nvars, MAX_VARS))
    if len(ideal.generators) > MAX_GENERATORS:
        raise ResourceLimitError(
            "%d generators exceeds the desk-scale bound %d"
            % (len(ideal.generators), MAX_GENERATORS))
    for g in ideal.generators:
        if g.total_degree() > MAX_DEGREE:
            raise ResourceLimitError(
                "generator degree %d exceeds the desk-scale bound %d"
                % (g.total_degree(), MAX_DEGREE))
    gens = [poly_to_module(g) for g in ideal.generators]
    basis = module_groebner(ring, gens, pot_key(ring))
    return Ideal(ring, [module_to_poly(ring, v) for v in basis])


def ideal_normal_form(ideal_gb, p):
    """Normal form of p against a Groebner basis (list of Poly or Ideal)."""
    gens = ideal_gb.generators if isinstance(ideal_gb, Ideal) else ideal_gb
    ring = p.ring
    key = pot_key(ring)
    basis = []
    for g in gens:
        v = poly_to_module(g)
        basis.append((v, m_lead(v, key)))
    r = m_reduce(ring.field, poly_to_module(p), basis, key)
    return module_to_poly(ring, r)


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
        _require_ordinary(ring)
        self.ring = ring
        self.m = matrix.nrows
        self.n = matrix.ncols
        self.key = pot_key(ring)
        gens = _columns_as_module(matrix)
        for j, v in enumerate(gens):
            v[(self.m + j, (0,) * ring.nvars)] = ring.field.one
        basis = module_groebner(ring, gens, self.key)
        self.basis = [(g, m_lead(g, self.key)) for g in basis]

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
        v = {}
        for i, p in enumerate(rhs):
            for e, c in p.terms.items():
                v[(i, e)] = c
        r = m_reduce(self.ring.field, v, self.basis, self.key)
        if any(comp < self.m for (comp, _) in r):
            return None
        x = [dict() for _ in range(self.n)]
        for (comp, e), c in r.items():
            x[comp - self.m][e] = self.ring.field.neg(c)
        return [Poly(self.ring, t) for t in x]


def module_lead_terms(ring, columns_matrix):
    """Leading terms of the reduced basis of the column module."""
    key = pot_key(ring)
    basis = module_groebner(ring, _columns_as_module(columns_matrix), key)
    return [m_lead(v, key) for v in basis]


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
        count = 0
        # enumerate exponent tuples below the pure-power bounds
        def rec(prefix):
            nonlocal count
            if len(prefix) == r:
                for e in leads:
                    if _divides(e, prefix):
                        return
                count += 1
                return
            for x in range(bounds[len(prefix)]):
                rec(prefix + (x,))
        rec(())
        total += count
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
