"""Families of algebras whose loci are known in closed form.

Each generator builds an algebra from its formula, so the tests can check
the library against the literature rather than against itself.
"""

from itertools import combinations, product

from jumploci.cga import GradedAlgebra, pairing_cga


def surface_algebra(field, g):
    """H^*(Σ_g) over `field`: dims (1, 2g, 1), with e_{2j} e_{2j+1} the
    generator of H^2 for j < g and every other product of basis elements
    of H^1 zero, up to the graded-commutative sign.

    For a != 0 in H^1, dim H^1(A, a) = 2g - 2, and at a = 0 it is 2g, so
    R^1_d is all of H^1 for 0 <= d <= 2g - 2, {0} for 2g - 2 < d <= 2g,
    and empty above 2g."""
    return pairing_cga(field, 2 * g, 1,
                       {(2 * j, 2 * j + 1): [1] for j in range(g)})


def _cliques(n, edges):
    """The cliques of the graph on vertices 0..n-1, by size, each a sorted
    tuple, in lexicographic order; size 0 is the empty clique."""
    adjacent = {frozenset(e) for e in edges}
    out = [[()]]
    while True:
        bigger = [c for c in combinations(range(n), len(out))
                  if all(frozenset(p) in adjacent
                         for p in combinations(c, 2))]
        if not bigger:
            return out
        out.append(bigger)


def graph_algebra(field, n, edges):
    """The cohomology of the right-angled Artin group of a graph on
    vertices 0..n-1: the exterior algebra on e_0..e_{n-1} modulo e_u e_v
    for each non-edge uv.  A basis of degree k is the k-cliques, and the
    product of two cliques is their signed union when that is a clique
    (the sign of the permutation that sorts their concatenation), else 0."""
    basis = _cliques(n, edges)
    index = [{c: k for k, c in enumerate(cs)} for cs in basis]
    dims = [len(cs) for cs in basis]
    mult = {}
    for i in range(1, len(basis)):
        for j in range(1, len(basis) - i):
            block = []
            for s in basis[i]:
                row = []
                for t in basis[j]:
                    vec = [field.zero] * dims[i + j]
                    union = tuple(sorted(s + t))
                    if union in index[i + j]:
                        swaps = sum(a > b for a, b in combinations(s + t, 2))
                        vec[index[i + j][union]] = (
                            field.one if swaps % 2 == 0
                            else field.neg(field.one))
                    row.append(vec)
                block.append(row)
            mult[(i, j)] = block
    return GradedAlgebra(field, dims, mult)


def graph_resonance(field, n, edges):
    """R^1_1 of `graph_algebra`, by the closed form of Papadima and Suciu
    (Math. Ann. 334, 2006): the union of the coordinate subspaces F^W over
    the vertex sets W whose induced subgraph is disconnected, and the
    origin."""
    adjacent = {frozenset(e) for e in edges}
    zero = field.zero
    out = {(zero,) * n}
    for size in range(2, n + 1):
        for W in combinations(range(n), size):
            reached, stack = {W[0]}, [W[0]]
            while stack:
                u = stack.pop()
                for v in W:
                    if v not in reached and frozenset((u, v)) in adjacent:
                        reached.add(v)
                        stack.append(v)
            if len(reached) < size:
                out.update(product(*[field.elements() if v in W else (zero,)
                                     for v in range(n)]))
    return out
