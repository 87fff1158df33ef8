"""Finitely presented groups: free differential calculus, the chain complex
of the abelianized presentation 2-complex, character-torus jump loci, the
degree-one homology module of the cover, and the quadratic part of the cup
product read off commutator relators.

Words are tuples of (generator_index, +-1), always freely reduced.  Relator
strings accept two notations: whitespace-separated tokens `a b a^-1 b^-1`
(exponents allowed on a token), and compact single-letter form `abAB`
where an uppercase letter is the inverse (usable when every generator is a
single lowercase letter).
"""

import re

from .cga import GradedAlgebra
from .complexes import (FreeChainComplex, homology_presentation,
                        is_finite_dimensional, jump_locus_points)
from .errors import ParseError, PreconditionError, ResourceLimitError
from .matrices import Matrix
from .rings import Ring


def free_reduce(letters):
    out = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


MAX_RELATOR_LENGTH = 10000  # letters of a relator before free reduction

_EXPONENT = re.compile(r"([+-]?)0*([0-9]+)")


def parse_word(generators, text):
    """Parse a relator string in either accepted notation; freely reduces.
    The empty word is "" or "1" (the form word_to_str writes).  A relator
    longer than MAX_RELATOR_LENGTH letters, exponents expanded, is refused
    before it is built."""
    generators = list(generators)
    text = text.strip()
    if text in ("", "1"):
        return ()
    letters = []
    if any(ch.isspace() for ch in text) or "^" in text:
        bare = False  # the last token is a generator without an exponent
        for token in text.replace("^", " ^").split():
            if token.startswith("^"):
                # exponent applies to the previous letter, composing with its
                # own sign ("A^2" is a^-2)
                if not bare:
                    raise ParseError(
                        "second exponent on one generator" if letters
                        else "exponent with no preceding generator")
                g, sign = letters.pop()
                exp = _exponent(token, len(letters))
                letters.extend(_letter_power(g, sign * exp))
                bare = False
                continue
            idx = _gen_index(generators, token)
            letters.append((idx, 1) if not token[0].isupper() else (idx, -1))
            bare = True
    else:
        if not all(len(g) == 1 and g.islower() for g in generators):
            raise ParseError(
                "compact notation needs single lowercase generator names")
        for ch in text:
            if ch.islower():
                letters.append((_gen_index(generators, ch), 1))
            elif ch.isupper():
                letters.append((_gen_index(generators, ch.lower()), -1))
            else:
                raise ParseError("unexpected character %r in compact word" % ch)
    if len(letters) > MAX_RELATOR_LENGTH:
        raise _too_long()
    return free_reduce(letters)


def _exponent(token, written):
    """The integer of an exponent token `^n`; refused when its letters and
    the `written` ones before it would pass MAX_RELATOR_LENGTH."""
    m = _EXPONENT.fullmatch(token[1:])
    if m is None:
        raise ParseError("malformed exponent %r" % token)
    sign, digits = m.groups()
    # digits are counted before int(), which refuses very long strings
    if (len(digits) > len(str(MAX_RELATOR_LENGTH))
            or written + int(digits) > MAX_RELATOR_LENGTH):
        raise _too_long()
    return -int(digits) if sign == "-" else int(digits)


def _too_long():
    return ResourceLimitError("relator longer than MAX_RELATOR_LENGTH = %d "
                              "letters" % MAX_RELATOR_LENGTH)


def _letter_power(g, exp):
    if exp >= 0:
        return [(g, 1)] * exp
    return [(g, -1)] * (-exp)


def _gen_index(generators, token):
    name = token.lower() if len(token) == 1 and token.isupper() else token
    if name not in generators:
        raise ParseError("unknown generator %r" % token)
    return generators.index(name)


def word_to_str(generators, word):
    if not word:
        return "1"
    return " ".join(generators[g] if e == 1 else "%s^-1" % generators[g]
                    for g, e in word)


class GroupPresentation:
    def __init__(self, generators, relators):
        generators = tuple(generators)
        if not generators:
            raise PreconditionError("a presentation needs at least one generator")
        parsed = []
        for r in relators:
            parsed.append(parse_word(generators, r) if isinstance(r, str)
                          else free_reduce(tuple(r)))
        self.generators = generators
        self.relators = tuple(parsed)

    @property
    def ngens(self):
        return len(self.generators)

    def abelianized(self, word):
        """Exponent sums per generator."""
        out = [0] * self.ngens
        for g, e in word:
            out[g] += e
        return tuple(out)

    def __repr__(self):
        rels = ", ".join(word_to_str(self.generators, r) for r in self.relators)
        return "<%s | %s>" % (", ".join(self.generators), rels)


def _check_onto_free(nu):
    if nu.group.torsion:
        raise PreconditionError(
            "Fox ingestion targets free abelian groups; torsion targets are "
            "handled at the associated-graded level elsewhere")


def _exponent_of_prefix(nu, counts):
    """Image of a prefix (as generator exponent counts) in Z^r."""
    r = nu.group.rank
    out = [0] * r
    for rho in range(r):
        row = nu.free_block[rho]
        out[rho] = sum(row[g] * c for g, c in enumerate(counts))
    return tuple(out)


def fox_derivative(word, j, nu, ring):
    """The abelianized free derivative with respect to generator j, as a
    Laurent polynomial in the images t_1..t_r.

    Characterized by: d(g_j)/d(g_j) = 1, d(g_i)/d(g_j) = 0 for i != j,
    d(uv) = d(u) + image(u) d(v), and d(g_j^{-1}) = -image(g_j)^{-1}.
    """
    _check_onto_free(nu)
    if not ring.laurent or ring.nvars != nu.group.rank:
        raise PreconditionError("the derivative lives in the Laurent ring on "
                                "the target's rank")
    F = ring.field
    counts = [0] * nu.b1
    result = ring.zero()
    for g, e in word:
        if g == j:
            if e == 1:
                mono = _exponent_of_prefix(nu, counts)
                result = result + ring.monomial(mono, F.one)
            else:
                after = list(counts)
                after[g] -= 1
                mono = _exponent_of_prefix(nu, after)
                result = result - ring.monomial(mono, F.one)
        counts[g] += e
    return result


def word_image(word, nu, ring):
    """The image of a word as a monomial t^{nu(w)}."""
    counts = [0] * nu.b1
    for g, e in word:
        counts[g] += e
    return ring.monomial(_exponent_of_prefix(nu, counts), ring.field.one)


def _check_kills_relators(P, nu):
    """Raise PreconditionError naming the first relator that nu does not
    send to 0 in Z^r (such a nu is not defined on the group)."""
    for rel in P.relators:
        image = _exponent_of_prefix(nu, P.abelianized(rel))
        if any(image):
            raise PreconditionError(
                "nu sends the relator %s to %s in Z^%d, not to 0; nu must "
                "kill every relator" % (word_to_str(P.generators, rel),
                                        list(image), nu.group.rank))


def alexander_complex(P, nu, field):
    """The chain complex of the abelianized presentation 2-complex over
    k[t_1^{+-1}..t_r^{+-1}]: one 0-cell, a 1-cell per generator with
    boundary image(g_i) - 1, a 2-cell per relator with boundary the
    abelianized Jacobian of the derivatives."""
    _check_onto_free(nu)
    if nu.b1 != P.ngens:
        raise PreconditionError("nu must be defined on the %d generators"
                                % P.ngens)
    r = nu.group.rank
    names = tuple("t%d" % (i + 1) for i in range(r)) if r != 1 else ("t",)
    ring = Ring(field, names, laurent=True)
    one = ring.one()
    d1 = Matrix(ring, 1, P.ngens,
                [[word_image(((g, 1),), nu, ring) - one for g in range(P.ngens)]])
    diffs = [d1]
    if P.relators:
        grid = [[fox_derivative(rel, g, nu, ring) for rel in P.relators]
                for g in range(P.ngens)]
        diffs.append(Matrix(ring, P.ngens, len(P.relators), grid))
        ranks = [1, P.ngens, len(P.relators)]
    else:
        ranks = [1, P.ngens]
    return FreeChainComplex(ring, ranks, diffs)


def characteristic_variety_points(P, nu, i, d, field):
    """Jump loci of the abelianized complex inside the character torus of
    `field` (unit-valued characters only).  The complex is built over
    `field` itself: its coefficients are integers, read in `field`
    directly."""
    return jump_locus_points(alexander_complex(P, nu, field), i, d, field,
                             torus=True)


def alexander_invariant(P, nu, field):
    """Presentation of the degree-one homology of the abelianized cover,
    plus its finite-dimensionality verdict."""
    E = alexander_complex(P, nu, field)
    try:
        pres = homology_presentation(E, 1)
    except PreconditionError:
        # column r of d_1 d_2 is t^nu(r) - 1, so a refused complex most
        # often means nu does not kill a relator; name it if so
        _check_kills_relators(P, nu)
        raise
    return pres, is_finite_dimensional(pres)


# ---------------------------------------------------------------------------
# quadratic part of the cup product, from the series expansion of relators


def _series_mul(a, b):
    """Multiply truncated series with noncommuting symbols: keys are (),
    (i,), (i, j); coefficients are ints."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if len(ka) + len(kb) > 2:
                continue
            k = ka + kb
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _series_of_letter(g, e):
    if e == 1:
        return {(): 1, (g,): 1}
    return {(): 1, (g,): -1, (g, g): 1}


def magnus_quadratic(P, word):
    """Degree <= 2 coefficients of the expansion sending g to 1 + x_g.
    Returns (linear, quadratic) as dicts over generator indices/pairs."""
    series = {(): 1}
    for g, e in word:
        series = _series_mul(series, _series_of_letter(g, e))
    linear = {k[0]: c for k, c in series.items() if len(k) == 1}
    quadratic = {k: c for k, c in series.items() if len(k) == 2}
    return linear, quadratic


def quadratic_cup(P, field):
    """The degree <= 2 algebra of a commutator-relator presentation: degree
    one dual to the generators, degree two dual to the relators, and the
    pairing of generators s, t on relator rho given by the x_s x_t minus
    x_t x_s grouping of the expansion of rho.

    Every relator must abelianize to zero (the expansion has no linear
    term exactly then)."""
    n, m = P.ngens, len(P.relators)
    for idx, rel in enumerate(P.relators):
        if any(c != 0 for c in P.abelianized(rel)):
            raise PreconditionError(
                "relator %d does not abelianize to zero; the quadratic pairing "
                "needs commutator relators" % idx)
    F = field
    block = [[[F.zero] * m for _ in range(n)] for _ in range(n)]
    for rho, rel in enumerate(P.relators):
        _, quad = magnus_quadratic(P, rel)
        for (s, t), c in quad.items():
            if c:
                vec = block[s][t]
                vec[rho] = F.add(vec[rho], F.from_int(c))
    return GradedAlgebra(F, (1, n, m), {(1, 1): block})
