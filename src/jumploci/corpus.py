"""Seeded random inputs for property tests and cross-checks.

Random free complexes are built to satisfy d.d = 0 exactly: the first
differential is sampled sparse, and each later one has columns drawn from
the kernel of its predecessor (Smith form kernel for univariate Laurent
rings, syzygies otherwise).
"""

import random

from .complexes import FreeChainComplex
from .groebner import syzygy_matrix
from .matrices import Matrix
from .rings import Poly, Ring
from .smith import kernel_matrix, smith_normal_form


def _random_poly(rng, ring, max_terms=2, exp_lo=0, exp_hi=2, zero_chance=0.45,
                 max_total=3):
    if rng.random() < zero_chance:
        return ring.zero()
    F = ring.field
    nonzero = [c for c in F.elements() if c != F.zero] if F.is_finite else None
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(exp_lo, exp_hi) for _ in range(ring.nvars))
        while sum(exps) > max_total:
            exps = tuple(rng.randint(exp_lo, exp_hi) for _ in range(ring.nvars))
        if F.is_finite:
            c = rng.choice(nonzero)
        else:
            c = F.from_int(rng.randint(-3, 3) or 1)
        terms[exps] = c
    return Poly(ring, {e: c for e, c in terms.items() if c != F.zero})


def _random_matrix(rng, ring, nrows, ncols, **kw):
    return Matrix(ring, nrows, ncols,
                  [[_random_poly(rng, ring, **kw) for _ in range(ncols)]
                   for _ in range(nrows)])


def _kernel_generators(ring, d):
    if ring.nvars == 1 and ring.laurent:
        return kernel_matrix(smith_normal_form(d))
    return syzygy_matrix(d)


def random_free_complex(ring, seed, max_len=3, max_rank=4):
    """A random complex with d.d = 0 by construction: later differentials
    factor through the kernel of the previous one with small coefficients.
    Ranks avoid 0 most of the time so the loci stay interesting."""
    rng = random.Random("complex:%s" % (seed,))
    n_diffs = rng.randint(1, max_len)
    ranks = [rng.randint(1, max_rank) if rng.random() < 0.9 else 0
             for _ in range(n_diffs + 1)]
    poly_kw = dict(exp_lo=-1 if ring.laurent else 0, exp_hi=2, max_terms=2,
                   zero_chance=0.25)
    diffs = []
    prev = None
    for i in range(1, n_diffs + 1):
        nrows, ncols = ranks[i - 1], ranks[i]
        if i == 1:
            d = _random_matrix(rng, ring, nrows, ncols, **poly_kw)
        else:
            kernel = _kernel_generators(ring, prev)
            if kernel.ncols == 0 or ncols == 0:
                d = Matrix.zero(ring, nrows, ncols)
            else:
                mix = _random_matrix(rng, ring, kernel.ncols, ncols,
                                     exp_lo=0, exp_hi=1, max_terms=1,
                                     zero_chance=0.25)
                d = kernel * mix
        diffs.append(d)
        prev = d
    return FreeChainComplex(ring, ranks, diffs)


def random_laurent_complex(field, seed, max_len=3, max_rank=4):
    ring = Ring(field, ("t",), laurent=True)
    return random_free_complex(ring, "laurent:%s" % (seed,), max_len, max_rank)


def random_bivariate_complex(field, seed, max_len=3, max_rank=3):
    ring = Ring(field, ("x", "y"), order="grlex")
    return random_free_complex(ring, "bivariate:%s" % (seed,), max_len, max_rank)


def random_word(rng, ngens, max_len=12):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        letters.append((rng.randrange(ngens), rng.choice((1, -1))))
    return tuple(letters)
