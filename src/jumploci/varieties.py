"""Pointwise loci over finite fields.

Enumeration is the desk-scale stand-in for an algebraically closed field:
ideals are exact over any field, and their points are listed over F_q and
its extensions F_{q^e}.  Laurent rings only have torus points (all
coordinates invertible), so `on_torus` forces the torus restriction there.

No pointwise locus of the package holds a table of the q^r points.  Zero
loci, and the jump-locus routes that rank point by point or line by line
(and so supports, resonance and its pullback when they take them), stream
their coordinates from `enumerate_coords` and keep only the points of the
locus, so memory is O(locus).  The other routes of
`complexes.jump_locus_points` build their loci otherwise: `_whole_space`
ranks an `islice` grid of at most 2^-r of the points and answers with a
`Space`, `_kernel_jump_points` lists the multiples of kernel bases, and the
orbit route spreads each ranked point over its torus orbit.  A locus is a
set of coordinate tuples over the enumeration field, or a `Space` of all
of them.
Every command takes its loci from `complexes.jump_locus_points`;
`zero_locus_points` and `complexes.homology_dims_table` are oracles.
"""

from collections.abc import Set
from itertools import product

from .errors import PreconditionError
from .fields import embedding, extension_of


def enumerate_coords(field, r, torus):
    """All coordinate tuples of F^r, or of the torus (F^x)^r."""
    return product(Space(field, r, torus).pool, repeat=r)


class Space(Set):
    """All of F^r, or of the torus (F^x)^r, as a set that holds no tuple:
    `pool` is F or F^x, a range, and iteration walks `enumerate_coords`.
    `size` (s^r), bool() and == read no len(), which refuses 2^63 or
    more, and == walks no tuple of it."""

    __slots__ = ("field", "r", "torus", "pool", "size")

    def __init__(self, field, r, torus):
        if not field.is_finite:
            raise PreconditionError("point enumeration needs a finite field")
        self.field, self.r, self.torus = field, r, torus
        self.pool = field.units() if torus else field.elements()
        self.size = (self.pool.stop - self.pool.start) ** r

    def __len__(self):
        return self.size

    def __bool__(self):
        return True  # s >= 1

    def __contains__(self, c):
        return (isinstance(c, tuple) and len(c) == self.r
                and all(map(self.pool.__contains__, c)))

    def __iter__(self):
        return enumerate_coords(self.field, self.r, self.torus)

    def __eq__(self, other):
        if isinstance(other, Space):
            return self.r == other.r and (not self.r or self.pool == other.pool)
        if not isinstance(other, Set):
            return NotImplemented
        return len(other) == self.size and all(map(self.__contains__, other))

    _from_iterable = set  # |, & and - with a set give a set


def on_torus(ring, torus=False):
    """Whether the points of `ring`'s affine space are torus points: on
    request, and always over a Laurent ring, whose variables are units."""
    return torus or ring.laurent


def points_where(field, r, torus, test):
    """The coordinate tuples of F^r (or the torus) that pass `test`,
    streamed: no table of the q^r points is held."""
    return {c for c in enumerate_coords(field, r, torus) if test(c)}


def zero_locus_points(ideal, field=None, torus=False):
    """The points of F^r (or the torus) where every generator vanishes,
    over `field` (default: the ring's own), which the coefficients enter
    as in Poly.evaluate."""
    ring = ideal.ring
    F = field if field is not None else ring.field
    embedding(ring.field, F)  # refuses a field the ideal cannot be read in
    gens = sorted(ideal.generators, key=lambda g: len(g.terms))
    return points_where(F, ring.nvars, on_torus(ring, torus), lambda c: all(
        g.evaluate(c, F) == F.zero for g in gens))


def extension_fields(base, max_ext):
    """Yield (e, F_{q^e}) for e = 1..max_ext, each field built once."""
    for e in range(1, max_ext + 1):
        yield e, extension_of(base, e)
