"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  All arithmetic is exact; every equality is on-the-nose set or
value equality, no tolerances anywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from itertools import product

from jumploci.cga import (BShape, generic_vanishing_experiment, pairing_cga,
                          resonance_points, sample_cga)
from jumploci.complexes import (ModulePresentation, PresentedChainComplex,
                                homology_dims_table, jump_locus_ideal,
                                jump_locus_points, support_points)
from jumploci.corpus import random_bivariate_complex, random_laurent_complex, random_word
from jumploci.documents import dump_cga
from jumploci.equivariant import (FinAbGroup, NuData, finiteness_test,
                                  gr_ring, identity_nu, verify_cv_res)
from jumploci.fields import PrimeField, Rationals, extension_of, finite_field
from jumploci.fox import (GroupPresentation, alexander_invariant,
                          characteristic_variety_points, fox_derivative,
                          free_reduce, quadratic_cup, word_image)
from jumploci.matrices import Matrix
from jumploci.rings import Ring, poly_to_str
from jumploci.varieties import enumerate_coords, zero_locus_points

from oracles import fox_rules

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)

UNIVARIATE_SEEDS = range(50)
BIVARIATE_SEEDS = range(50)


def _report(n, label, started):
    print("ACCEPTANCE %2d PASS  (%5.2fs)  %s" % (n, time.monotonic() - started,
                                                 label))


def augmentation_complex(field):
    R = Ring(field, ("x",))
    e0 = ModulePresentation(R, 1, Matrix(R, 1, 1, [[R.var(0)]]))
    e1 = ModulePresentation(R, 1, Matrix(R, 1, 0, [[]]))
    return PresentedChainComplex(R, (e0, e1), (Matrix(R, 1, 1, [[R.one()]]),))


def test_criterion_01_augmentation_example():
    started = time.monotonic()
    for q in (3, 5, 7):
        F = finite_field(q)
        E = augmentation_complex(F)
        jump = {p[0] for p in jump_locus_points(E, 1, 1, F)}
        assert jump == set(range(1, q)), "V^1_1 must be F_q minus the origin"
        supp_union = set()
        for i in (0, 1):
            supp_union |= {p[0] for p in support_points(E, i, 1, F)}
        assert supp_union == set(range(q)), "the union of supports is all of F_q"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, "non-closed jump locus vs closed supports, q in {3,5,7}", started)


def _corpora():
    univariate = [random_laurent_complex(F3, s) for s in UNIVARIATE_SEEDS]
    bivariate = [random_bivariate_complex(F3, s) for s in BIVARIATE_SEEDS]
    return univariate, bivariate


def _ideal_vs_points(E, fields, dmax=4):
    for field in fields:
        table = homology_dims_table(E, field)
        for i in range(E.top + 1):
            for d in range(1, dmax + 1):
                ideal = jump_locus_ideal(E, i, d)
                lhs = zero_locus_points(ideal, field)
                rhs = {c for c, dims in table.items() if dims[i] >= d}
                assert lhs == rhs, (E.ring, i, d, field)
                # the streamed route the CLI runs gives the same locus
                streamed = jump_locus_points(E, i, d, field)
                assert streamed == lhs, (E.ring, i, d, field)


def test_criterion_02_minor_ideal_oracle():
    started = time.monotonic()
    univariate, bivariate = _corpora()
    fields = [F3, extension_of(F3, 2)]
    for E in univariate:
        _ideal_vs_points(E, fields)
    for E in bivariate:
        _ideal_vs_points(E, fields)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(2, "minor ideals match pointwise loci on %d+%d random complexes"
            % (len(univariate), len(bivariate)), started)


def test_criterion_03_support_vs_jump_unions():
    started = time.monotonic()
    univariate, bivariate = _corpora()
    f9 = extension_of(F3, 2)
    for E in univariate + bivariate:
        for field in (F3, f9):
            table = homology_dims_table(E, field)
            v_sets = {i: {c for c, dims in table.items() if dims[i] >= 1}
                      for i in range(E.top + 1)}
            w_sets = {i: support_points(E, i, 1, field)
                      for i in range(E.top + 1)}
            v_union, w_union = set(), set()
            for trunc in range(E.top + 1):
                v_union |= v_sets[trunc]
                w_union |= w_sets[trunc]
                assert w_union == v_union, (E.ring, trunc, field)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(3, "support unions equal jump unions at every truncation", started)


def _cga_corpus(field):
    algebras = [pairing_cga(field, 2, 1, {(0, 1): [1]}),
                pairing_cga(field, 2, 1, {})]
    for seed in range(8):
        b1 = 1 + seed % 3
        b2 = seed % 2 + 1
        algebras.append(sample_cga(BShape((1, b1, b2)), field,
                                   "corpus:%d" % seed))
    return algebras


def test_criterion_04_resonance_basics():
    started = time.monotonic()
    for field in (F3, F5):
        for A in _cga_corpus(field):
            zero = tuple(field.zero for _ in range(A.dim(1)))
            r01 = resonance_points(A, 0, 1)
            assert r01 == {zero}
            for d in (2, 3):
                assert resonance_points(A, 0, d) == set()
            for i in (1, 2):
                sets = {}
                for d in (1, 2, 3):
                    sets[d] = resonance_points(A, i, d)
                assert sets[3] <= sets[2] <= sets[1]
                for d in (1, 2):
                    for coords in sets[d]:
                        for lam in field.units():
                            scaled = tuple(field.mul(lam, c) for c in coords)
                            assert scaled in sets[d]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(4, "degree-0 resonance, cones, nesting over F_3 and F_5", started)


def test_criterion_05_section6_examples():
    started = time.monotonic()
    # zero-multiplication pairing: the whole degree-one space is resonant
    for q in (3, 5):
        F = finite_field(q)
        heis = pairing_cga(F, 2, 1, {})
        pts = resonance_points(heis, 1, 1)
        assert pts == set(product(F.elements(), repeat=2))
        nondeg = pairing_cga(F, 2, 1, {(0, 1): [1]})
        pts2 = resonance_points(nondeg, 1, 1)
        assert pts2 == {(F.zero, F.zero)}
    # the two-generator group with a^2 b = b a^2: quadratic pairing is
    # nondegenerate, the finiteness hypothesis holds with supports at the
    # origin, yet the uncompleted degree-one invariant is infinite
    P = GroupPresentation(("a", "b"), ["a a b a^-1 a^-1 b^-1"])
    nu = NuData(2, [[1, 0], [0, 1]], (), FinAbGroup(2))
    for F in (F3, F5):
        A = quadratic_cup(P, F)
        rep = finiteness_test(A, nu, 1)
        assert rep["hypothesis_holds"] is True
        assert rep["e2_supports_in_origin"] is True
        assert all(v.kind == "finite" for v in rep["e2_dims"].values())
    pres, verdict = alexander_invariant(P, nu, Q)
    assert verdict.kind == "infinite"
    # the zero-pairing analogue is inconclusive for the same test
    heis5 = pairing_cga(F5, 2, 1, {})
    rep = finiteness_test(heis5, identity_nu(2), 1)
    assert rep["hypothesis_holds"] is False
    assert "inconclusive" in rep["conclusion"]
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(5, "vanishing resonance with infinite uncompleted invariant",
            started)


def _nu_suite():
    return [
        # rank-lowering Z^3 -> Z^2
        (3, NuData(3, [[1, 0, 1], [0, 1, 1]], (), FinAbGroup(2))),
        # non-identity automorphism of Z^2
        (2, NuData(2, [[1, 1], [0, 1]], (), FinAbGroup(2))),
        # torsion factor 3: divisible by char 3, prime to char 5
        (2, NuData(2, [[1, 0]], [[0, 1]], FinAbGroup(1, (3,)))),
        # torsion factor 5: prime to char 3, divisible by char 5
        (2, NuData(2, [[1, 1]], [[0, 1]], FinAbGroup(1, (5,)))),
        # mixed torsion 6 on a rank-2 target from Z^3
        (3, NuData(3, [[1, 0, 0], [0, 1, 0]], [[0, 0, 1]],
                   FinAbGroup(2, (6,)))),
    ]


def test_criterion_06_comparison_theorem():
    started = time.monotonic()
    checks = 0
    for field in (F3, F5):
        pairs = [(pairing_cga(field, 2, 1, {(0, 1): [1]}), identity_nu(2)),
                 (pairing_cga(field, 2, 1, {}), identity_nu(2))]
        count = 0
        seed = 0
        while count < 20:
            b1 = 1 + (seed % 3)
            b2 = 1 + (seed % 2)
            A = sample_cga(BShape((1, b1, b2)), field, "cv:%d" % seed)
            pairs.append((A, identity_nu(b1)))
            count += 1
            seed += 1
        for b1, nu in _nu_suite():
            A = sample_cga(BShape((1, b1, 2)), field, "cvnu:%d" % b1)
            pairs.append((A, nu))
        for A, nu in pairs:
            for i in (0, 1, 2):
                for d in (1, 2):
                    rep = verify_cv_res(A, nu, i, d)
                    assert rep["equal"], (field, i, d, nu.group)
                    checks += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(6, "page loci match pulled-back resonance (%d checks)" % checks,
            started)


def test_criterion_07_graded_group_ring_cases():
    started = time.monotonic()
    # Z/p^s in characteristic p: truncated polynomial ring on one nilpotent
    # variable, a single point
    for p, s in ((3, 2), (5, 1), (2, 3)):
        F = PrimeField(p)
        grd = gr_ring(FinAbGroup(0, (p ** s,)), F)
        assert grd.nilpotent_parts == (("truncated", p ** s),)
        assert list(enumerate_coords(F, grd.sbar.nvars, False)) == [()]
    # torsion prime to the characteristic contributes nothing
    for p, n in ((3, 5), (5, 9), (7, 4)):
        F = PrimeField(p)
        grd = gr_ring(FinAbGroup(0, (n,)), F)
        assert grd.nilpotent_parts == (("trivial",),)
        assert list(enumerate_coords(F, grd.sbar.nvars, False)) == [()]
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(7, "graded group-ring degenerate cases", started)


def test_criterion_08_trefoil_pipeline():
    started = time.monotonic()
    P = GroupPresentation(("a", "b"), ["a b a b^-1 a^-1 b^-1"])
    nu = NuData(2, [[1, 1]], (), FinAbGroup(1))
    ring = Ring(Q, ("t",), laurent=True)
    rel = P.relators[0]
    got = fox_derivative(rel, 0, nu, ring)
    oracle = fox_rules(rel, 0, [(1,), (1,)], 1)
    assert {e: int(c) for e, c in got.terms.items()} == oracle
    assert poly_to_str(got) == "t^2 - t + 1"
    pres, verdict = alexander_invariant(P, nu, Q)
    assert pres.gens == 1
    assert poly_to_str(pres.relations[0, 0].laurent_normalize()) == "t^2 - t + 1"
    assert verdict.kind == "finite" and verdict.dim == 2
    points = characteristic_variety_points(P, nu, 1, 1, F7)
    pts = {p[0] for p in points}
    assert pts - {1} == {3, 5}
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(8, "trefoil: derivative, module, characters", started)


def test_criterion_09_generic_vanishing_experiment():
    started = time.monotonic()
    trials = 200
    seed = 0
    rep = generic_vanishing_experiment(BShape((1, 2, 1)), 1, trials, F5, seed)
    assert rep["vanishing_count"] + rep["resonant_count"] == trials
    # replay the seeded trials: the zero pairing must land in the resonant
    # class and every nonzero (hence nondegenerate) pairing in the
    # vanishing class
    zero_trials = 0
    for trial in range(trials):
        A = sample_cga(BShape((1, 2, 1)), F5, "%s:%d" % (seed, trial))
        c = A.mu(1, 1, 0, 1)[0]
        pts = resonance_points(A, 1, 1)
        if c == F5.zero:
            zero_trials += 1
            assert pts == set(product(range(5), repeat=2))
        else:
            assert pts == {(0, 0)}
    assert zero_trials == rep["resonant_count"]
    assert zero_trials > 0, "the seeded run must include the zero pairing"
    # every recorded witness really is a nonzero resonant element of its trial
    assert len(rep["resonant_witnesses"]) == rep["resonant_count"]
    for w in rep["resonant_witnesses"]:
        A_w = sample_cga(BShape((1, 2, 1)), F5, "%s:%d" % (seed, w["trial"]))
        coords = tuple(w["witness"])
        assert coords != (F5.zero, F5.zero)
        assert coords in resonance_points(A_w, 1, 1)
    # the two recorded exemplars recompute consistently
    res_ex = rep["resonant_exemplar"]
    assert dump_cga(res_ex["algebra"])["mult"] == []
    witness = tuple(res_ex["witness"])
    A0 = pairing_cga(F5, 2, 1, {})
    assert witness in resonance_points(A0, 1, 1)
    van_ex = rep["vanishing_exemplar"]
    pairing = {}
    for (i, j, s, t, vec) in dump_cga(van_ex["algebra"])["mult"]:
        if (s, t) == (0, 1):
            pairing[(0, 1)] = vec
    A1 = pairing_cga(F5, 2, 1, pairing)
    assert resonance_points(A1, 1, 1) == {(0, 0)}
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(9, "200-trial classification over F_5 (zero pairing resonant: "
               "%d hits)" % zero_trials, started)


def test_criterion_10_fundamental_identity():
    started = time.monotonic()
    rng = random.Random(2024)
    ring2 = Ring(F5, ("t1", "t2"), laurent=True)
    nu2 = NuData(2, [[1, 0], [0, 1]], (), FinAbGroup(2))
    nu3 = NuData(3, [[1, 0, 1], [0, 1, 1]], (), FinAbGroup(2))
    count = 0
    while count < 500:
        ngens = rng.choice((2, 3))
        nu = nu2 if ngens == 2 else nu3
        w = free_reduce(random_word(rng, ngens, 12))
        total = ring2.zero()
        for j in range(ngens):
            dj = fox_derivative(w, j, nu, ring2)
            gj = word_image(((j, 1),), nu, ring2)
            total = total + dj * (gj - ring2.one())
        assert total == word_image(w, nu, ring2) - ring2.one()
        count += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(10, "derivative summation identity on 500 random words", started)
