import itertools
import random

import pytest

from jumploci.cga import BShape, pairing_cga, resonance_points, sample_cga
from jumploci.complexes import (homology_dims_table, jump_locus_points,
                                validate_complex)
from jumploci.equivariant import (FinAbGroup, NuData, build_E1,
                                  finiteness_test, gr_ring, identity_nu,
                                  integer_smith_divisors,
                                  transpose_identity_holds, verify_cv_res)
from jumploci.errors import PreconditionError
from jumploci.fields import PrimeField, Rationals
from jumploci.rings import poly_to_str

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)


def exterior2(field):
    return pairing_cga(field, 2, 1, {(0, 1): [1]})


def zero_mult(field):
    return pairing_cga(field, 2, 1, {})


# -- groups and the graded ring ------------------------------------------------


def test_finabgroup_invariants():
    G = FinAbGroup(2, (2, 4))
    assert G.ngens == 4
    with pytest.raises(PreconditionError):
        FinAbGroup(1, (4, 2))
    with pytest.raises(PreconditionError):
        FinAbGroup(-1)


def test_integer_smith():
    assert integer_smith_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert integer_smith_divisors([[1, 0], [0, 1]]) == [1, 1]
    assert integer_smith_divisors([[2, 4]]) == [2]
    # pivots that do not divide their column / row: reduce and pivot again
    assert integer_smith_divisors([[4], [6]]) == [2]
    assert integer_smith_divisors([[4, 6]]) == [2]
    assert integer_smith_divisors([[6, 4], [4, 6]]) == [2, 10]


def test_gr_ring_free_part():
    grd = gr_ring(FinAbGroup(2), F5)
    assert grd.sbar.variables == ("x1", "x2")
    assert grd.nilpotent_parts == ()
    assert grd.specm_size() == 25


def test_gr_ring_p_torsion_in_char_p():
    # Z/p^s in characteristic p: one truncated variable x with x^{p^s} = 0,
    # a single point
    grd = gr_ring(FinAbGroup(0, (9,)), F3)
    assert grd.sbar.variables == ()
    assert grd.nilpotent_parts == (("truncated", 9),)
    assert grd.specm_size() == 1


def test_gr_ring_torsion_prime_to_char():
    grd = gr_ring(FinAbGroup(0, (9,)), F5)
    assert grd.nilpotent_parts == (("trivial",),)
    assert grd.specm_size() == 1
    mixed = gr_ring(FinAbGroup(1, (6,)), F3)
    assert mixed.nilpotent_parts == (("truncated", 3),)


def test_nu_surjectivity_enforced():
    with pytest.raises(PreconditionError):
        NuData(2, [[2, 0], [0, 1]], (), FinAbGroup(2))
    with pytest.raises(PreconditionError):
        NuData(1, [[2]], (), FinAbGroup(1))
    # onto Z/2 x Z/4 needs the torsion rows to generate
    NuData(2, [], [[1, 0], [0, 1]], FinAbGroup(0, (2, 4)))
    with pytest.raises(PreconditionError):
        NuData(2, [], [[1, 0], [0, 2]], FinAbGroup(0, (2, 4)))


# -- the page and its differential ------------------------------------------------


def test_build_e1_torus_is_koszul():
    E = build_E1(exterior2(F5), identity_nu(2))
    assert list(E.ranks) == [1, 2, 1]
    d1 = E.differentials[0]
    assert [poly_to_str(d1[0, j]) for j in range(2)] == ["x1", "x2"]
    d2 = E.differentials[1]
    col = [poly_to_str(d2[i, 0]) for i in range(2)]
    assert col == ["4*x2", "x1"]  # (-x2, x1) over F_5
    assert validate_complex(E).ok


def test_build_e1_zero_mult():
    E = build_E1(zero_mult(F3), identity_nu(2))
    assert [poly_to_str(E.differentials[0][0, j]) for j in range(2)] == ["x1", "x2"]
    assert E.differentials[1].is_zero()


def test_build_e1_trivial_group():
    A = exterior2(F5)
    nu = NuData(2, [], [[1, 0], [0, 1]], FinAbGroup(0, (2, 2)))
    E = build_E1(A, nu)
    assert E.ring.nvars == 0
    for d in E.differentials:
        assert d.is_zero()
    # homology equals the algebra's dimensions at the single point
    table = homology_dims_table(E, F5)
    assert table[()] == [1, 2, 1]


def test_transpose_identity_oracle():
    # the defining identity, at every point, for several algebras and maps
    rng = random.Random(41)
    for seed in range(8):
        b1 = rng.randint(1, 3)
        b2 = rng.randint(0, 2)
        A = sample_cga(BShape((1, b1, b2)), F3, "ti:%d" % seed)
        nu = identity_nu(b1)
        E = build_E1(A, nu)
        for w in itertools.product(range(3), repeat=b1):
            assert transpose_identity_holds(A, nu, E, w, F3)


def test_build_e1_random_validates():
    for seed in range(10):
        A = sample_cga(BShape((1, 2, 2)), F5, "val:%d" % seed)
        E = build_E1(A, identity_nu(2))
        assert validate_complex(E).ok


def test_build_e1_shape_mismatch():
    with pytest.raises(PreconditionError):
        build_E1(exterior2(F5), identity_nu(3))


# -- the comparison ---------------------------------------------------------------


def test_verify_cvres_torus():
    rep = verify_cv_res(exterior2(F3), identity_nu(2), 1, 1)
    assert rep["equal"]
    assert {p.coords for p in rep["lhs_points"]} == {(0, 0)}


def test_verify_cvres_zero_mult():
    rep = verify_cv_res(zero_mult(F3), identity_nu(2), 1, 1)
    assert rep["equal"]
    assert len(rep["lhs_points"]) == 9


def test_membership_builds_one_rank_formula_per_degree(monkeypatch):
    # the right side of verify_cv_res asks in_resonance at each of the 125
    # points of F_5^3; the rank formula of E_A is built once per degree
    from jumploci import cga
    builds = []
    real = cga.homology_dim_at

    def counted(E, i, field):
        builds.append(i)
        return real(E, i, field)
    monkeypatch.setattr(cga, "homology_dim_at", counted)
    rep = verify_cv_res(cga.exterior_algebra(F5, 3), identity_nu(3), 1, 1)
    assert rep["equal"] and {p.coords for p in rep["rhs_points"]} == {(0, 0, 0)}
    assert builds == [1]
    del builds[:]
    rep = finiteness_test(cga.exterior_algebra(F5, 3), identity_nu(3), 1)
    assert rep["hypothesis_holds"]
    assert sorted(builds) == [0, 1]


def test_verify_cvres_degree_zero():
    for A in (exterior2(F3), zero_mult(F3)):
        rep = verify_cv_res(A, identity_nu(2), 0, 1)
        assert rep["equal"]
        assert {p.coords for p in rep["lhs_points"]} == {(0, 0)}


def test_identity_specialization_matches_resonance():
    # with the identity map on a torsion-free group, page jump loci equal
    # resonance point sets on the nose
    for seed in range(5):
        A = sample_cga(BShape((1, 2, 1)), F3, "rem:%d" % seed)
        E = build_E1(A, identity_nu(2))
        for i in (0, 1, 2):
            for d in (1, 2):
                lhs = {p.coords for p in jump_locus_points(E, i, d, F3)}
                rhs = {p.coords
                       for p in resonance_points(A, i, d)}
                assert lhs == rhs


def test_torsion_collapse():
    # groups of equal rank with matching induced maps give identical loci
    A = sample_cga(BShape((1, 2, 1)), F3, "collapse")
    nu_free = NuData(2, [[1, 0]], [], FinAbGroup(1))
    nu_tors = NuData(2, [[1, 0]], [[0, 1]], FinAbGroup(1, (4,)))
    nu_tors3 = NuData(2, [[1, 0]], [[0, 1]], FinAbGroup(1, (3,)))
    E0 = build_E1(A, nu_free)
    for nu in (nu_tors, nu_tors3):
        E = build_E1(A, nu)
        for i in (0, 1, 2):
            for d in (1, 2):
                assert ({p.coords for p in jump_locus_points(E, i, d, F3)}
                        == {p.coords for p in jump_locus_points(E0, i, d, F3)})


# -- finiteness ---------------------------------------------------------------------


def test_finiteness_torus():
    rep = finiteness_test(exterior2(F5), identity_nu(2), 2)
    assert rep["hypothesis_holds"]
    assert rep["e2_supports_in_origin"]
    dims = {i: (v.kind, v.dim) for i, v in rep["e2_dims"].items()}
    assert dims == {0: ("finite", 1), 1: ("finite", 0), 2: ("finite", 0)}


def test_finiteness_zero_mult_inconclusive():
    rep = finiteness_test(zero_mult(F3), identity_nu(2), 1)
    assert not rep["hypothesis_holds"]
    assert "inconclusive" in rep["conclusion"]
    assert rep["violations"]


def test_finiteness_k_out_of_range():
    with pytest.raises(PreconditionError):
        finiteness_test(exterior2(F3), identity_nu(2), 5)


def test_rank3_exterior_page_is_koszul():
    # the rank-3 torus model: the page over k[x1,x2,x3] is the length-3
    # Koszul complex, exact off the origin
    from jumploci.cga import exterior_algebra, validate_cga
    from jumploci.complexes import cached_homology_presentation, is_finite_dimensional, support_points
    A = exterior_algebra(F3, 3)
    assert A.dims == (1, 3, 3, 1)
    assert validate_cga(A).ok
    nu = identity_nu(3)
    E = build_E1(A, nu)
    assert validate_complex(E).ok
    rng = random.Random(9)
    for _ in range(10):
        w = tuple(rng.randrange(3) for _ in range(3))
        assert transpose_identity_holds(A, nu, E, w, F3)
    for i in range(4):
        pts = {p.coords for p in jump_locus_points(E, i, 1, F3)}
        assert pts == {(0, 0, 0)}, i
    rep = finiteness_test(A, nu, 3)
    assert rep["hypothesis_holds"] and rep["e2_supports_in_origin"]
    dims = {i: (v.kind, v.dim) for i, v in rep["e2_dims"].items()}
    assert dims == {0: ("finite", 1), 1: ("finite", 0), 2: ("finite", 0),
                    3: ("finite", 0)}
    for i in (0, 1, 2, 3):
        rep2 = verify_cv_res(A, nu, i, 1)
        assert rep2["equal"]


def test_finiteness_symbolic_confirmation():
    # every pointwise membership is re-derived from the resonance equations
    rep = finiteness_test(exterior2(F5), identity_nu(2), 2, symbolic=True)
    assert rep["hypothesis_holds"]
    rep2 = finiteness_test(zero_mult(F3), identity_nu(2), 1, symbolic=True)
    assert not rep2["hypothesis_holds"]


def test_finiteness_chain_on_random_corpus():
    # whenever the hypothesis holds, the page supports must collapse to the
    # origin; checked blind over a random corpus
    held = 0
    for seed in range(12):
        b1 = 1 + seed % 3
        A = sample_cga(BShape((1, b1, 1 + seed % 2)), F3, "chain:%d" % seed)
        rep = finiteness_test(A, identity_nu(b1), 2)
        if rep["hypothesis_holds"]:
            held += 1
            assert rep["e2_supports_in_origin"]
            for i, verdict in rep["e2_dims"].items():
                assert verdict.kind == "finite"
    assert held > 0  # the corpus must include at least one conclusive case
