"""Families of algebras whose loci are known in closed form.

Each generator builds an algebra from its formula, so the tests can check
the library against the literature rather than against itself.
"""

from jumploci.cga import pairing_cga


def surface_algebra(field, g):
    """H^*(Σ_g) over `field`: dims (1, 2g, 1), with e_{2j} e_{2j+1} the
    generator of H^2 for j < g and every other product of basis elements
    of H^1 zero, up to the graded-commutative sign.

    For a != 0 in H^1, dim H^1(A, a) = 2g - 2, and at a = 0 it is 2g, so
    R^1_d is all of H^1 for 0 <= d <= 2g - 2, {0} for 2g - 2 < d <= 2g,
    and empty above 2g."""
    return pairing_cga(field, 2 * g, 1,
                       {(2 * j, 2 * j + 1): [1] for j in range(g)})
