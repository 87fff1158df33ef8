import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from jumploci import groebner
from jumploci.cli import main
from jumploci.complexes import homology_presentation, is_finite_dimensional
from jumploci.corpus import random_bivariate_complex, random_free_complex
from jumploci.documents import dump_complex
from jumploci.errors import ResourceLimitError, UnsupportedRingError
from jumploci.fields import PrimeField, Rationals, finite_field
from jumploci.groebner import (ModuleSolver, buchberger, elim_var_key,
                               module_lead_terms, module_saturate, pot_key,
                               standard_monomial_count, syzygy_matrix)
from jumploci.matrices import Matrix
from jumploci.rings import Ideal, Poly, Ring, parse_poly, poly_to_str
from oracles import (ideal_normal_form, module_normal_form,
                     reference_module_groebner, s_polynomial)

Q = Rationals()
F3 = PrimeField(3)
FIELDS = [finite_field(2), F3, finite_field(4), finite_field(5), Q]


class GroebnerRecorder:
    """Records every `module_groebner` call made inside a `with` block:
    its ring, inputs, order key and output, and how many of its S-pair
    reductions reached zero.

    The engine ends with one inter-reduction per output element, so of
    the `m_reduce` calls it makes, all but the last len(output) reduce an
    S-pair.  Past `limit` reductions in one call the recorder raises, so a
    runaway computation fails instead of running on.
    """

    def __init__(self, limit=None):
        self.limit = limit
        self.calls = []     # (ring, gens, key, output)
        self.s_pairs = 0
        self.zeros = 0

    def __enter__(self):
        engine, reduce = groebner.module_groebner, groebner.m_reduce
        self._saved = engine, reduce
        outcomes = []

        def recording_reduce(F, v, basis, order):
            r = reduce(F, v, basis, order)
            outcomes.append(not r)
            if self.limit is not None and len(outcomes) > self.limit:
                raise AssertionError("over %d reductions in one Groebner "
                                     "basis" % self.limit)
            return r

        def recording_engine(ring, gens, key):
            gens = [dict(g) for g in gens]
            outcomes.clear()
            groebner.m_reduce = recording_reduce
            try:
                out = engine(ring, gens, key)
            finally:
                groebner.m_reduce = reduce
            pairs = outcomes[:len(outcomes) - len(out)]
            self.s_pairs += len(pairs)
            self.zeros += sum(pairs)
            self.calls.append((ring, gens, key, out))
            return out

        groebner.module_groebner = recording_engine
        return self

    def __exit__(self, *exc):
        groebner.module_groebner, groebner.m_reduce = self._saved


def _assert_reference_bases(calls):
    for ring, gens, key, out in calls:
        assert out == reference_module_groebner(ring.field, gens, key)


def _assert_buchberger_criterion(ring, gens, key, out):
    # the output is a Groebner basis of the module the inputs span: every
    # S-pair of it and every input reduce to zero against it
    F = ring.field
    basis = [(g, max(g, key=key)) for g in out]
    for a, (ga, la) in enumerate(basis):
        for gb, lb in basis[:a]:
            if la[0] == lb[0]:
                assert module_normal_form(
                    F, s_polynomial(F, ga, gb, key), basis, key) == {}
    for g in gens:
        assert module_normal_form(F, g, basis, key) == {}


@pytest.fixture(scope="module")
def symbolic_workload(tmp_path_factory):
    """The Groebner calls of the benchmark's symbolic `supports` reports:
    `supports --compare-v --i 1 --q 3` on random_free_complex(F_3[x, y],
    seed, max_rank=4) for seeds 0-99."""
    ring = Ring(F3, ("x", "y"))
    folder = tmp_path_factory.mktemp("symbolic")
    paths = []
    for seed in range(100):
        path = folder / ("free-%d.cc" % seed)
        path.write_text(json.dumps(dump_complex(
            random_free_complex(ring, seed, max_rank=4))))
        paths.append(str(path))
    with GroebnerRecorder() as rec, contextlib.redirect_stdout(io.StringIO()):
        for path in paths:
            assert main(["supports", "--complex", path, "--i", "1", "--q",
                         "3", "--compare-v"]) == 0
    return rec


def _ideal(ring, *texts):
    return Ideal(ring, [parse_poly(ring, t) for t in texts])


def _module(p):
    """The polynomial p as a module element in component 0."""
    return {(0, e): c for e, c in p.terms.items()}


def test_principal_and_monomial_ideals_fixed():
    R = Ring(Q, ("x",))
    assert buchberger(_ideal(R, "x")) == _ideal(R, "x")
    R2 = Ring(Q, ("x", "y"))
    assert buchberger(_ideal(R2, "x", "y")) == _ideal(R2, "x", "y")


def test_hand_run_example_lex():
    # under lex with y > x the S-pair of (y - x^2, x*y) is
    #   x*(y - x^2) - x*y = -x^3,
    # which is irreducible against both leads, so the reduced basis is
    # {y - x^2, x^3}
    R = Ring(Q, ("y", "x"), order="lex")
    G = buchberger(_ideal(R, "y - x^2", "x*y"))
    gens = {poly_to_str(g) for g in G.generators}
    assert "x^3" in gens
    assert G == _ideal(R, "y - x^2", "x^3")


def test_hand_run_example_grlex():
    # under graded lex the lead of y - x^2 is x^2; the S-pair gives -y^2 and
    # the reduced basis is {x^2 - y, x*y, y^2}
    R = Ring(Q, ("x", "y"), order="grlex")
    G = buchberger(_ideal(R, "y - x^2", "x*y"))
    assert G == _ideal(R, "x^2 - y", "x*y", "y^2")


def test_spolys_of_output_reduce_to_zero():
    rng = random.Random(5)
    R = Ring(F3, ("x", "y"), order="grlex")
    for _ in range(10):
        gens = []
        for _ in range(rng.randint(1, 3)):
            p = R.zero()
            for _ in range(rng.randint(1, 3)):
                p = p + R.monomial((rng.randint(0, 2), rng.randint(0, 2)),
                                   rng.randint(1, 2))
            gens.append(p)
        G = buchberger(Ideal(R, gens))
        _assert_buchberger_criterion(
            R, [_module(g) for g in gens if not g.is_zero()],
            pot_key(R), [_module(g) for g in G.generators])


def test_ideal_membership_via_normal_form():
    R = Ring(Q, ("x", "y"), order="grlex")
    G = buchberger(_ideal(R, "y - x^2", "x*y"))
    x3 = parse_poly(R, "x^3")
    assert ideal_normal_form(G, x3).is_zero()
    assert not ideal_normal_form(G, parse_poly(R, "x + 1")).is_zero()


def test_buchberger_refuses_only_laurent_rings():
    L = Ring(Q, ("t",), laurent=True)
    with pytest.raises(UnsupportedRingError):
        buchberger(Ideal(L, [L.var(0)]))
    # four variables, degree 7 and seven generators are within the engine
    # bounds, which are the only ones
    R4 = Ring(Q, ("a", "b", "c", "d"))
    assert buchberger(Ideal(R4, [R4.var(0)])) == Ideal(R4, [R4.var(0)])
    R = Ring(Q, ("x", "y"), order="grlex")
    assert buchberger(_ideal(R, "x^7 + y")) == _ideal(R, "x^7 + y")
    many = _ideal(R, *["x^%d*y" % k for k in range(1, 8)])
    assert buchberger(many) == _ideal(R, "x*y")


def test_basis_bound_counts_only_added_elements(monkeypatch):
    monkeypatch.setattr(groebner, "ENGINE_MAX_BASIS", 0)
    R = Ring(Q, ("x", "y"), order="grlex")
    # three inputs, and the one S-pair reduction reaches zero
    assert buchberger(_ideal(R, "x", "y", "x*y + x")) == _ideal(R, "x", "y")
    # the S-pair of (y - x^2, x*y) adds y^2
    with pytest.raises(ResourceLimitError, match="desk-scale bound 0"):
        buchberger(_ideal(R, "y - x^2", "x*y"))

def test_koszul_syzygy():
    R = Ring(Q, ("x", "y"))
    x, y = R.var(0), R.var(1)
    M = Matrix(R, 1, 2, [[x, y]])
    S = syzygy_matrix(M)
    assert (M * S).is_zero()
    assert S.ncols == 1
    col = {poly_to_str(S[0, 0]), poly_to_str(S[1, 0])}
    assert col in ({"y", "-x"}, {"-y", "x"})


def test_syzygy_identity_is_empty():
    R = Ring(Q, ("x", "y"))
    S = syzygy_matrix(Matrix.identity(R, 2))
    assert S.ncols == 0


def test_syzygy_x2_xy():
    # kernel of (x^2, xy) is generated by (y, -x): check the generator is
    # hit and every output column is a multiple of it
    R = Ring(Q, ("x", "y"))
    x, y = R.var(0), R.var(1)
    M = Matrix(R, 1, 2, [[x * x, x * y]])
    S = syzygy_matrix(M)
    assert (M * S).is_zero()
    gen = Matrix(R, 2, 1, [[y], [-x]])
    solver = ModuleSolver(gen)
    for j in range(S.ncols):
        assert solver.solve(S.col(j)) is not None
    back = ModuleSolver(S)
    assert back.solve([y, -x]) is not None


def test_syzygy_specialized_kernel_coverage():
    # at finite-field points where the matrix keeps its generic rank, the
    # specialized syzygy columns span the specialized kernel
    rng = random.Random(17)
    from jumploci.linalg import mat_rank
    R = Ring(F3, ("x", "y"))
    for _ in range(12):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = []
        for _ in range(m):
            row = []
            for _ in range(n):
                if rng.random() < 0.4:
                    row.append(R.zero())
                else:
                    row.append(R.monomial((rng.randint(0, 1), rng.randint(0, 1)),
                                          rng.randint(1, 2)))
            rows.append(row)
        M = Matrix(R, m, n, rows)
        S = syzygy_matrix(M)
        assert (M * S).is_zero()
        generic_rank = max(mat_rank(F3, M.evaluate((a, b)))
                           for a in range(3) for b in range(3))
        for a in range(3):
            for b in range(3):
                Mv = M.evaluate((a, b))
                if mat_rank(F3, Mv) != generic_rank:
                    continue
                kernel_dim = n - generic_rank
                Sv = S.evaluate((a, b))
                span = mat_rank(F3, [[Sv[i][j] for j in range(S.ncols)]
                                     for i in range(n)]) if S.ncols else 0
                assert span == kernel_dim


def test_module_solver_membership():
    R = Ring(Q, ("x", "y"))
    x, y = R.var(0), R.var(1)
    K = Matrix(R, 2, 1, [[-y], [x]])
    solver = ModuleSolver(K)
    assert solver.solve([-y * x, x * x]) == [x]
    assert solver.solve([R.one(), R.zero()]) is None


def test_standard_monomial_counts():
    R = Ring(Q, ("x", "y"))
    x, y = R.var(0), R.var(1)
    leads = module_lead_terms(R, Matrix(R, 1, 2, [[x, y]]))
    assert standard_monomial_count(R, leads, 1) == 1
    leads = module_lead_terms(R, Matrix(R, 1, 2, [[x * x, y]]))
    assert standard_monomial_count(R, leads, 1) == 2
    leads = module_lead_terms(R, Matrix(R, 1, 1, [[x]]))
    assert standard_monomial_count(R, leads, 1) is None
    # zero-variable ring: the quotient by nothing is one-dimensional per
    # generator
    R0 = Ring(Q, ())
    assert standard_monomial_count(R0, [], 2) == 2


def test_module_saturation():
    R = Ring(Q, ("x", "y"))
    x, y = R.var(0), R.var(1)
    one = R.one()
    # (x*y - x) : x^inf = (y - 1)
    sat = module_saturate(R, Matrix(R, 1, 1, [[x * y - x]]), (1, 0))
    gens = {poly_to_str(sat[0, j]) for j in range(sat.ncols)}
    assert gens == {"y - 1"}
    # the zero module saturates to the zero module
    empty = module_saturate(R, Matrix(R, 1, 0, [[]]), (1, 1))
    assert empty.ncols == 0


def test_symbolic_workload_reduces_few_s_pairs_to_zero(symbolic_workload):
    # plain Buchberger, with only the coprime criterion, reduces 973 S-pairs
    # here and 721 of them to zero; the Gebauer-Moeller criteria with sugar
    # selection reduce 258, 26 of them to zero
    assert symbolic_workload.s_pairs < 400
    assert symbolic_workload.zeros < 100


def test_engine_equals_reference_on_symbolic_workload(symbolic_workload):
    assert len(symbolic_workload.calls) > 100
    _assert_reference_bases(symbolic_workload.calls)


def test_engine_equals_reference_on_bivariate_corpus():
    # generation (syzygies), homology presentations (tagged modules),
    # finiteness verdicts (lead terms) and saturations of the relations
    with GroebnerRecorder() as rec:
        for seed in range(50):
            E = random_bivariate_complex(F3, seed)
            for i in range(E.top + 1):
                P = homology_presentation(E, i)
                is_finite_dimensional(P)
                if P.relations.ncols:
                    module_saturate(E.ring, P.relations, (1, 1))
                    module_saturate(E.ring, P.relations, (0, 1))
    keys = {key.__qualname__.split(".")[0] for _, _, key, _ in rec.calls}
    assert keys == {"pot_key", "elim_var_key"}
    _assert_reference_bases(rec.calls)


@pytest.mark.parametrize("field", [F3, Q], ids=["F3", "Q"])
@pytest.mark.parametrize("order", ["grlex", "lex"])
def test_engine_equals_reference_on_ideals(field, order):
    rng = random.Random("ideals:%s:%s" % (field, order))
    for nvars in (1, 2, 3):
        R = Ring(field, ("x", "y", "z")[:nvars], order=order)
        for _ in range(15):
            gens = []
            for _ in range(rng.randint(1, 4)):
                terms = {tuple(rng.randint(0, 2) for _ in range(nvars)):
                         field.from_int(rng.choice((1, 2, -1)))
                         for _ in range(rng.randint(1, 3))}
                gens.append(Poly(R, terms))
            with GroebnerRecorder() as rec:
                buchberger(Ideal(R, gens))
            assert len(rec.calls) == 1
            _assert_reference_bases(rec.calls)


def _units(field):
    return list(field.units()) if field.is_finite else [
        field.from_int(c) for c in (1, -1, 2, -3)]


@st.composite
def _random_modules(draw):
    field = draw(st.sampled_from(FIELDS))
    ring = Ring(field, ("x", "y"), order=draw(st.sampled_from(["grlex",
                                                               "lex"])))
    units = _units(field)
    ncomp = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        v = {}
        for _ in range(draw(st.integers(1, 4))):
            term = (draw(st.integers(0, ncomp - 1)),
                    (draw(st.integers(0, 2)), draw(st.integers(0, 2))))
            v[term] = draw(st.sampled_from(units))
        gens.append(v)
    key = (pot_key(ring) if draw(st.booleans())
           else elim_var_key(ring, draw(st.integers(0, 1))))
    return ring, gens, key


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_random_modules())
def test_engine_equals_reference_on_random_modules(case):
    ring, gens, key = case
    out = groebner.module_groebner(ring, gens, key)
    assert out == reference_module_groebner(ring.field, gens, key)
    _assert_buchberger_criterion(ring, gens, key, out)


@st.composite
def _normal_form_cases(draw):
    """A module element (possibly zero) and a list of reducers (possibly
    empty): the drawn generators, or the reduced basis they span.  The
    element is random terms plus multiples of some reducers."""
    ring, gens, key = draw(_random_modules())
    F = ring.field
    units = _units(F)
    ncomp = 1 + max(comp for g in gens for comp, _ in g)
    if draw(st.booleans()):
        gens = groebner.module_groebner(ring, gens, key)
    if draw(st.integers(0, 5)) == 5:
        gens = []
    v = {}
    for _ in range(draw(st.integers(0, 6))):
        term = (draw(st.integers(0, ncomp - 1)),
                (draw(st.integers(0, 4)), draw(st.integers(0, 4))))
        v[term] = draw(st.sampled_from(units))
    for g in gens:
        if draw(st.booleans()):
            shift, c = ((draw(st.integers(0, 2)), draw(st.integers(0, 2))),
                        draw(st.sampled_from(units)))
            for (comp, e), a in g.items():
                term = (comp, (e[0] + shift[0], e[1] + shift[1]))
                v[term] = F.add(v.get(term, F.zero), F.mul(a, c))
    v = {t: c for t, c in v.items() if c != F.zero}
    return ring, v, [(g, max(g, key=key)) for g in gens], key


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_normal_form_cases(), _normal_form_cases())
def test_normal_form_equals_oracle(case, other):
    # the heap normal form gives the oracle's remainder with its terms in
    # the oracle's order, and one TermOrder serves any number of calls
    ring, v, basis, key = case
    F = ring.field
    order = groebner.TermOrder(key)
    before = list(v.items())
    for w in (v, v, {t: F.neg(c) for t, c in v.items()}):
        assert (list(groebner.m_reduce(F, w, basis, order).items())
                == list(module_normal_form(F, w, basis, key).items()))
    assert list(v.items()) == before
    ring, v, basis, key = other
    assert (list(groebner.m_reduce(ring.field, v, basis,
                                   groebner.TermOrder(key)).items())
            == list(module_normal_form(ring.field, v, basis, key).items()))


def _oracle_solve(K, rhs):
    """ModuleSolver.solve built on the oracles: the reference basis of the
    tagged columns and the plain normal form."""
    ring, F, m = K.ring, K.ring.field, K.nrows
    key = pot_key(ring)
    gens = []
    for j in range(K.ncols):
        v = {(i, e): c for i in range(m) for e, c in K[i, j].terms.items()}
        v[(m + j, (0,) * ring.nvars)] = F.one
        gens.append(v)
    basis = [(g, max(g, key=key))
             for g in reference_module_groebner(F, gens, key)]
    r = module_normal_form(F, {(i, e): c for i, p in enumerate(rhs)
                               for e, c in p.terms.items()}, basis, key)
    if any(comp < m for comp, _ in r):
        return None
    x = [dict() for _ in range(K.ncols)]
    for (comp, e), c in r.items():
        x[comp - m][e] = F.neg(c)
    return [list(t.items()) for t in x]


@st.composite
def _solve_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    ring = Ring(field, ("x", "y"), order=draw(st.sampled_from(["grlex",
                                                               "lex"])))
    units = _units(field)

    def poly(most):
        return Poly(ring, {(draw(st.integers(0, 2)), draw(st.integers(0, 2))):
                           draw(st.sampled_from(units))
                           for _ in range(draw(st.integers(0, most)))})

    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    K = Matrix(ring, m, n, [[poly(2) for _ in range(n)] for _ in range(m)])
    if draw(st.booleans()):
        rhs = (K * Matrix(ring, n, 1, [[poly(2)] for _ in range(n)])).col(0)
    else:
        rhs = [poly(3) for _ in range(m)]
    return K, rhs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_solve_cases())
def test_module_solver_equals_oracle_solve(case):
    K, rhs = case
    x = ModuleSolver(K).solve(rhs)
    expected = _oracle_solve(K, rhs)
    if expected is None:
        assert x is None
    else:
        assert [list(p.terms.items()) for p in x] == expected


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F3", "F4", "F5", "Q"])
def test_module_bases_satisfy_buchberger_criterion(field):
    # ModuleSolver's tagged modules (position over term) and the
    # saturation modules (y eliminated) of random bivariate differentials
    with GroebnerRecorder() as rec:
        for seed in range(30):
            E = random_bivariate_complex(field, seed)
            for i in range(1, E.top + 1):
                d = E.differential(i)
                ModuleSolver(d)
                module_saturate(E.ring, d, (1, seed % 2))
    keys = {key.__qualname__.split(".")[0] for _, _, key, _ in rec.calls}
    assert keys == {"pot_key", "elim_var_key"}
    for call in rec.calls:
        _assert_buchberger_criterion(*call)


def test_f16_presentation_reduces_few_s_pairs():
    # H_1 of this complex is the syzygy module of a 4x4 matrix over
    # F_16[x, y]; plain Buchberger spent minutes presenting it
    E = random_free_complex(Ring(finite_field(16), ("x", "y")), 9,
                            max_rank=4)
    assert list(E.ranks) == [4, 4, 0]
    with GroebnerRecorder(limit=200) as rec:
        P = homology_presentation(E, 1)
    assert (P.gens, P.relations.ncols) == (0, 0)
    assert rec.s_pairs < 100
