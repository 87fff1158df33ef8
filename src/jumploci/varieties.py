"""Pointwise loci over finite fields.

Enumeration is the desk-scale stand-in for an algebraically closed field:
ideals are exact over any field, and their points are listed over F_q and
its extensions F_{q^e}.  Laurent rings only have torus points (all
coordinates invertible), so `on_torus` forces the torus restriction there.

Every pointwise locus of the package (zero loci, and jump loci and so
supports, resonance and its pullback) streams its coordinates from
`enumerate_coords`, tests them one at a time, and keeps only the points of
the locus, so memory is O(locus), not O(q^r).  A locus is a set of
coordinate tuples over the enumeration field; over an extension F_{q^e}
that field comes with the `embed` of `extension_fields`.  Every command
takes its loci from `complexes.jump_locus_points`; `zero_locus_points`
and `complexes.homology_dims_table` are oracles.
"""

from itertools import product

from .errors import PreconditionError
from .fields import extension_of


def coefficient_embedding(ring_field, target_field):
    """Default embedding of the coefficient field into the enumeration field,
    as a coeff_map for Poly.evaluate (None means the encoding is unchanged).

    Covers identical fields and a prime field inside any finite field of the
    same characteristic.  Other towers need an explicit embedding from
    fields.extension_of.
    """
    if ring_field == target_field:
        return None
    if (ring_field.is_finite and target_field.is_finite
            and ring_field.characteristic == target_field.characteristic
            and getattr(ring_field, "degree", None) == 1):
        return None  # prime-field ints are valid indices in the extension
    raise PreconditionError(
        "no default embedding of %r into %r; pass one from extension_of"
        % (ring_field, target_field))


def enumerate_coords(field, r, torus):
    """All coordinate tuples of F^r, or of the torus (F^x)^r."""
    if not field.is_finite:
        raise PreconditionError("point enumeration needs a finite field")
    pool = field.units() if torus else field.elements()
    return product(pool, repeat=r)


def on_torus(ring, torus=False):
    """Whether the points of `ring`'s affine space are torus points: on
    request, and always over a Laurent ring, whose variables are units."""
    return torus or ring.laurent


def points_where(field, r, torus, test):
    """The coordinate tuples of F^r (or the torus) that pass `test`,
    streamed: no table of the q^r points is held."""
    return {c for c in enumerate_coords(field, r, torus) if test(c)}


def zero_locus_points(ideal, field=None, torus=False, embed=None):
    """The points of F^r (or the torus) where every generator vanishes.

    `field` may be the coefficient field, a finite extension of a prime
    coefficient field, or any field reachable through an explicit `embed`
    map; default is the ring's own field.
    """
    ring = ideal.ring
    F = field if field is not None else ring.field
    emb = embed if embed is not None else coefficient_embedding(ring.field, F)
    gens = sorted(ideal.generators, key=lambda g: len(g.terms))
    return points_where(F, ring.nvars, on_torus(ring, torus), lambda c: all(
        g.evaluate(c, F, emb) == F.zero for g in gens))


def extension_fields(base, max_ext):
    """Yield (e, F_{q^e}, embed) for e = 1..max_ext, each field built once;
    embed is the coeff_map from `base` into F_{q^e} (None where the
    encoding is unchanged: e == 1, or a prime base field)."""
    for e in range(1, max_ext + 1):
        big, emb = extension_of(base, e)
        yield e, big, (emb if e > 1 and base.degree > 1 else None)
