import random

import pytest

from jumploci.cga import (BShape, exterior_algebra, in_resonance, pairing_cga,
                          resonance_ideal, resonance_points, sample_cga)
from jumploci.complexes import (homology_dims_table, jump_locus_points,
                                validate_complex)
from jumploci.equivariant import (FinAbGroup, NuData, build_E1,
                                  finiteness_test, gr_ring, identity_nu,
                                  pulled_back_aomoto_complex, verify_cv_res)
from jumploci.errors import PreconditionError
from jumploci.fields import PrimeField, Rationals, finite_field
from jumploci.rings import poly_to_str
from jumploci.varieties import enumerate_coords, points_where

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


def test_surjectivity_by_column_reduction():
    # each accepted map needs more than one Euclid step on some coordinate
    NuData(2, [[2, 3]], (), FinAbGroup(1))
    NuData(2, [[3, 5], [1, 2]], (), FinAbGroup(2))
    NuData(2, [[1, 0]], [[1, 3]], FinAbGroup(1, (2,)))
    # image lattices of index 2, 20, 6 and 2
    for b1, free, torsion, group in (
            (2, [[4, 6]], (), FinAbGroup(1)),
            (2, [[6, 4], [4, 6]], (), FinAbGroup(2)),
            (2, [[2, 0], [0, 3]], (), FinAbGroup(2)),
            (2, [[1, 1]], [[2, 4]], FinAbGroup(1, (4,)))):
        with pytest.raises(PreconditionError, match="not onto"):
            NuData(b1, free, torsion, group)


def test_gr_ring_free_part():
    grd = gr_ring(FinAbGroup(2), F5)
    assert grd.sbar.variables == ("x1", "x2")
    assert grd.nilpotent_parts == ()
    assert len(list(enumerate_coords(F5, grd.sbar.nvars, False))) == 25


def test_gr_ring_p_torsion_in_char_p():
    # Z/p^s in characteristic p: one truncated variable x with x^{p^s} = 0,
    # a single point
    grd = gr_ring(FinAbGroup(0, (9,)), F3)
    assert grd.sbar.variables == ()
    assert grd.nilpotent_parts == (("truncated", 9),)


def test_gr_ring_torsion_prime_to_char():
    grd = gr_ring(FinAbGroup(0, (9,)), F5)
    assert grd.nilpotent_parts == (("trivial",),)
    assert list(enumerate_coords(F5, grd.sbar.nvars, False)) == [()]
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


def _algebra(field, b1, b2, seed):
    """A sampled (1, b1, b2) algebra; in characteristic 2 the pairing has
    no diagonal, so build_E1 accepts every map out of it."""
    if field.characteristic != 2:
        return sample_cga(BShape((1, b1, b2)), field, seed)
    rng = random.Random(seed)
    elems = list(field.elements())
    return pairing_cga(field, b1, b2, {
        (s, t): [rng.choice(elems) for _ in range(b2)]
        for s in range(b1) for t in range(s + 1, b1)})


def _nus(b1):
    """The identity, onto Z, and (b1 >= 2) a map onto Z + Z/4."""
    nus = [identity_nu(b1), NuData(b1, [[1] * b1], (), FinAbGroup(1))]
    if b1 >= 2:
        nus.append(NuData(b1, [[1] + [0] * (b1 - 1)],
                          [[0, 1] + [0] * (b1 - 2)], FinAbGroup(1, (4,))))
    return nus


def test_transpose_identity_oracle():
    # the defining identity, exactly: the page equals the universal Aomoto
    # complex pulled back along nu-bar, ring for ring and matrix for matrix
    cases = 0
    for q in (2, 3, 4, 5, 7):
        F = finite_field(q)
        for seed in range(4):
            b1 = 1 + seed % 3
            A = _algebra(F, b1, seed % 3, "ti:%d:%d" % (q, seed))
            for nu in _nus(b1):
                E = build_E1(A, nu)
                P = pulled_back_aomoto_complex(A, nu)
                assert E.ring == P.ring
                assert E.differentials == P.differentials
                cases += 1
    assert cases == 50


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
    assert rep["lhs_points"] == {(0, 0)}


def test_verify_cvres_zero_mult():
    rep = verify_cv_res(zero_mult(F3), identity_nu(2), 1, 1)
    assert rep["equal"]
    assert len(rep["lhs_points"]) == 9


def test_pullback_side_ranks_the_cone_charts_only(monkeypatch):
    # exterior(3) over F_5 with the identity: the pulled-back Aomoto
    # complex is graded by all of Z^3, so on each coordinate stratum the
    # pullback side ranks each nonempty map of d_i and d_{i+1} once (d_1
    # for i = 0, where d_0 is empty), 2^3 or 2 * 2^3 ranks per degree, not
    # at all 125 points of F_5^3.  The whole-space grid that every free
    # locus tries first is counted apart.  For i = 0 its sides are {0, 1}
    # (k = 1, linear entries), and its first point, (1, 1, 1), is outside
    # the locus: one rank of d_1 per locus.  For i = 1 (k = 3) a side of 4
    # is more than half of F_5, and no grid is ranked
    from jumploci import complexes, equivariant
    ranked, grid = [], []
    rank, whole_space = complexes.mat_rank, complexes._whole_space

    def counted_rank(*args):
        ranked.append(args)
        return rank(*args)

    def counted_whole_space(*args):
        start = len(ranked)
        out = whole_space(*args)
        grid.extend(ranked[start:])
        del ranked[start:]
        return out
    monkeypatch.setattr(complexes, "mat_rank", counted_rank)
    monkeypatch.setattr(complexes, "_whole_space", counted_whole_space)

    def count(thunk):
        del ranked[:], grid[:]
        out = thunk()
        return len(ranked), len(grid), out
    A, nu = exterior_algebra(F5, 3), identity_nu(3)
    strata = 2 ** 3
    E = build_E1(A, nu)
    for i, maps, grid_ranks in ((0, 1, 1), (1, 2, 0)):
        page, page_grid, _ = count(lambda: jump_locus_points(E, i, 1, F5))
        both, both_grid, rep = count(lambda: verify_cv_res(A, nu, i, 1))
        assert rep["equal"] and rep["rhs_points"] == {(0, 0, 0)}
        assert both - page == maps * strata
        assert page_grid == both_grid - page_grid == grid_ranks
    supports, _, _ = count(lambda: [equivariant.support_points(E, i, 1, F5)
                                    for i in (0, 1)])
    total, _, rep = count(lambda: finiteness_test(A, nu, 1))
    assert rep["hypothesis_holds"]
    assert total - supports == (1 + 2) * strata


def test_verify_cvres_degree_zero():
    for A in (exterior2(F3), zero_mult(F3)):
        rep = verify_cv_res(A, identity_nu(2), 0, 1)
        assert rep["equal"]
        assert rep["lhs_points"] == {(0, 0)}


def test_identity_specialization_matches_resonance():
    # with the identity map on a torsion-free group, page jump loci equal
    # resonance point sets on the nose
    for seed in range(5):
        A = sample_cga(BShape((1, 2, 1)), F3, "rem:%d" % seed)
        E = build_E1(A, identity_nu(2))
        for i in (0, 1, 2):
            for d in (1, 2):
                lhs = jump_locus_points(E, i, d, F3)
                rhs = resonance_points(A, i, d)
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
                assert (jump_locus_points(E, i, d, F3)
                        == jump_locus_points(E0, i, d, F3))


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
    A = exterior_algebra(F3, 3)
    assert A.dims == (1, 3, 3, 1)
    assert validate_cga(A).ok
    nu = identity_nu(3)
    E = build_E1(A, nu)
    assert validate_complex(E).ok
    assert E.differentials == pulled_back_aomoto_complex(A, nu).differentials
    for i in range(4):
        pts = jump_locus_points(E, i, 1, F3)
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
    # the hypothesis loci against the resonance equations: for every
    # nonzero w, nu-bar^*(w) lies in V(resonance_ideal(A, i, 1)) exactly
    # when w is in the pulled-back locus i
    for F in (F3, F5):
        for seed in range(6):
            b1 = 1 + seed % 3
            A = sample_cga(BShape((1, b1, 1 + seed % 2)), F, "sym:%d" % seed)
            for nu in _nus(b1):
                zero = (F.zero,) * nu.group.rank
                for i in range(A.top + 1):
                    gens = resonance_ideal(A, i, 1).generators
                    locus = verify_cv_res(A, nu, i, 1)["rhs_points"]
                    for w in enumerate_coords(F, nu.group.rank, False):
                        if w != zero:
                            a = nu.nu_bar_pullback(F, w)
                            on_v = all(g.evaluate(a, F) == F.zero for g in gens)
                            assert on_v == (w in locus)


def _pullback_oracle(A, nu, i, d):
    """The pullback side one point at a time, as it was computed before it
    became a jump locus: a points_where pass asking in_resonance."""
    F = A.field
    return points_where(F, nu.group.rank, False, lambda w: in_resonance(
        A, nu.nu_bar_pullback(F, w), i, d))


def _violations_oracle(A, nu, k):
    """finiteness_test's violations by the per-point loop it replaced."""
    F = A.field
    zero = (F.zero,) * nu.group.rank
    out = []
    for w in enumerate_coords(F, nu.group.rank, False):
        if w == zero:
            continue
        a = nu.nu_bar_pullback(F, w)
        i = next((i for i in range(k + 1) if in_resonance(A, a, i, 1)), None)
        if i is not None:
            out.append({"w": w, "i": i})
    return out


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16, 17])
def test_pullback_side_matches_the_per_point_oracle(q):
    # verify-cvres's right side and finiteness violations, in order,
    # against the in_resonance loop; b_1 <= 2 above F_9 keeps q^r small
    F = finite_field(q)
    for seed in range(4 if q > 9 else 8):
        b1 = 1 + seed % (2 if q > 9 else 3)
        A = _algebra(F, b1, 1 + seed % 3, "pb:%d:%d" % (q, seed))
        for nu in _nus(b1):
            for i in range(A.top + 1):
                for d in (1, 2):
                    rep = verify_cv_res(A, nu, i, d)
                    assert rep["equal"]
                    assert rep["rhs_points"] == _pullback_oracle(A, nu, i, d)
            rep = finiteness_test(A, nu, A.top)
            assert rep["violations"] == _violations_oracle(A, nu, A.top)


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
