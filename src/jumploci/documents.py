"""JSON document formats for every input the command line accepts, and the
matching emitters.  Every emitted document re-parses to an equal value.

Field documents:      {"kind": "rationals"}
                      {"kind": "prime-field", "p": 5}
                      {"kind": "extension-field", "p": 2, "m": 2,
                       "modulus": [1, 1, 1]}        (modulus optional)
Ring documents:       {"field": ..., "variables": ["x", "y"],
                       "laurent": false, "order": "grlex"}
Free complexes:       {"type": "free-complex", "ring": ..., "ranks": [...],
                       "differentials": [[["x", "0"], ...], ...]}  (row-major)
Presented complexes add a per-term block:
                      {"type": "presented-complex", "ring": ...,
                       "terms": [{"gens": 1, "relations": [["x"]]}, ...],
                       "differentials": ...}
Algebras:             {"type": "cga", "field": ..., "dims": [1, 2, 1],
                       "mult": [[i, j, s, t, [coeffs...]], ...]}
Groups:               {"type": "group", "rank": 2, "torsion": [2, 4]}
Maps onto groups:     {"type": "nu", "b1": 2, "group": ...,
                       "free_block": [[1, 0], [0, 1]], "torsion_blocks": []}
Presentations:        {"type": "presentation", "generators": ["a", "b"],
                       "relators": ["a b a^-1 b^-1"]}

Scalars in documents are integers, fraction strings "3/4", or (over an
extension field) polynomial strings in the field generator "u + 1".
Coefficients of a rational-field document can be reduced into F_q when a
command asks for a finite field; a zero denominator is a ParseError.
"""

import json
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii

from .cga import GradedAlgebra
from .complexes import (FreeChainComplex, ModulePresentation,
                        PresentedChainComplex)
from .equivariant import FinAbGroup, NuData
from .errors import DocumentError
from .fields import (ExtensionField, PrimeField, Rationals, field_make,
                     irreducible_modulus)
from .fox import GroupPresentation
from .matrices import Matrix
from .rings import Ring, parse_poly, poly_to_str


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# the JSON kinds a document value is checked against: (description, test)
_KINDS = {
    "object": ("a JSON object", lambda v: isinstance(v, dict)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("an integer", _is_int),
    "count": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
    "entry": ("a polynomial string or an integer",
              lambda v: isinstance(v, str) or _is_int(v)),
}


def _fits(value, kind):
    """Whether `value` is of the JSON kind `kind`, as _check decides."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(
            map(_fits, value, repeat(kind[0])))
    return _KINDS[kind][1](value)


def _check(value, kind, what):
    """`value` when it is of the JSON kind `kind` (a _KINDS name, or [k]
    for a list of k); anything else is a DocumentError naming `what`, not a
    TypeError, ValueError or IndexError further in.  A list is tested
    whole first, and its entries are named only when one fails."""
    if isinstance(kind, list):
        if not _fits(value, kind):
            for n, item in enumerate(_check(value, "list", what)):
                _check(item, kind[0], "entry %d of %s" % (n, what))
        return value
    description, test = _KINDS[kind]
    if not test(value):
        raise DocumentError("%s must be %s, not %.40r" % (what, description, value))
    return value


_REQUIRED = object()


def _require(doc, key, kind, default=_REQUIRED):
    """doc[key] checked against `kind`; a missing key is a DocumentError
    when the format requires it (no default), else `default`."""
    if key not in doc:
        if default is _REQUIRED:
            raise DocumentError("document is missing the required key %r" % (key,))
        return default
    return _check(doc[key], kind, repr(key))


# -- fields and rings --------------------------------------------------------


def load_field(doc):
    if doc is None:
        return Rationals()
    kind = _check(doc, "object", "a field").get("kind")
    if kind == "rationals":
        return Rationals()
    if kind == "prime-field":
        return field_make(kind, p=_require(doc, "p", "int"))
    if kind == "extension-field":
        return field_make(kind, p=_require(doc, "p", "int"),
                          m=_require(doc, "m", "int"),
                          modulus=_require(doc, "modulus", ["int"], None))
    raise DocumentError("unknown field kind %r" % (kind,))


def dump_field(field):
    if isinstance(field, Rationals):
        return {"kind": "rationals"}
    if isinstance(field, PrimeField):
        return {"kind": "prime-field", "p": field.p}
    if isinstance(field, ExtensionField):
        return {"kind": "extension-field", "p": field.p, "m": field.m,
                "modulus": list(field.modulus)}
    raise DocumentError("cannot serialize field %r" % (field,))


def _declares(doc, field):
    """Whether the field document `doc` declares exactly the finite field
    `field` (same kind, p, m and modulus; an omitted modulus is the default
    one).  Read from the document alone, because building an extension
    field is the costly step of loading one."""
    spec = dump_field(field)
    if isinstance(doc, dict) and "modulus" not in doc and "modulus" in spec:
        doc = dict(doc, modulus=list(irreducible_modulus(field.p, field.m)))
    return doc == spec


def load_ring(doc, field_override=None):
    doc = _check(doc, "object", "a ring")
    field = field_override if field_override is not None else load_field(doc.get("field"))
    return Ring(field, _require(doc, "variables", ["str"]),
                laurent=_require(doc, "laurent", "bool", False),
                order=_require(doc, "order", "str", "grlex"))


def dump_ring(ring):
    doc = {"field": dump_field(ring.field), "variables": list(ring.variables),
           "laurent": ring.laurent}
    if not ring.laurent:
        doc["order"] = ring.order
    return doc


def load_scalar(field, value):
    if isinstance(value, bool):
        raise DocumentError("booleans are not scalars")
    if isinstance(value, int):
        return field.from_int(value)
    if isinstance(value, str):
        return parse_poly(Ring(field, ()), value).constant_value()
    raise DocumentError("cannot read scalar %r" % (value,))


def dump_scalar(field, c):
    if isinstance(field, Rationals):
        return str(c) if c.denominator != 1 else int(c)
    if isinstance(field, ExtensionField):
        return field.scalar_str(c)
    return c


# -- complexes ---------------------------------------------------------------


def _load_matrix(ring, rows_doc, nrows, ncols, what):
    if len(rows_doc) != nrows or any(len(r) != ncols for r in rows_doc):
        raise DocumentError("%s must be %dx%d row-major" % (what, nrows, ncols))
    return Matrix(ring, nrows, ncols,
                  [[parse_poly(ring, str(s)) for s in row] for row in rows_doc])


def _load_differentials(ring, doc, ranks):
    """The differentials d_i : ranks[i] -> ranks[i-1] of a complex document."""
    diffs = _require(doc, "differentials", [[["entry"]]], [])
    expected = max(len(ranks) - 1, 0)
    if len(diffs) != expected:
        raise DocumentError("expected %d differentials, got %d"
                            % (expected, len(diffs)))
    return [_load_matrix(ring, rows, ranks[i - 1], ranks[i],
                         "differential %d" % i)
            for i, rows in enumerate(diffs, start=1)]


def load_complex(doc, field_override=None):
    ring = load_ring(_require(doc, "ring", "object"), field_override)
    kind = doc.get("type", "free-complex")
    if kind == "free-complex":
        ranks = _require(doc, "ranks", ["count"])
        return FreeChainComplex(ring, ranks, _load_differentials(ring, doc, ranks))
    if kind == "presented-complex":
        terms = []
        for t in _require(doc, "terms", ["object"]):
            gens = _require(t, "gens", "count")
            rel_rows = _require(t, "relations", [["entry"]],
                                [[] for _ in range(gens)])
            ncols = len(rel_rows[0]) if rel_rows and rel_rows[0] else 0
            terms.append(ModulePresentation(
                ring, gens, _load_matrix(ring, rel_rows, gens, ncols,
                                         "relations")))
        gens = [t.gens for t in terms]
        return PresentedChainComplex(ring, terms,
                                     _load_differentials(ring, doc, gens))
    raise DocumentError("unknown complex type %r" % (kind,))


def dump_matrix(m):
    return [[poly_to_str(m[i, j]) for j in range(m.ncols)]
            for i in range(m.nrows)]


def dump_complex(E):
    if isinstance(E, FreeChainComplex):
        return {"type": "free-complex", "ring": dump_ring(E.ring),
                "ranks": list(E.ranks),
                "differentials": [dump_matrix(d) for d in E.differentials]}
    return {"type": "presented-complex", "ring": dump_ring(E.ring),
            "terms": [{"gens": t.gens, "relations": dump_matrix(t.relations)}
                      for t in E.terms],
            "differentials": [dump_matrix(d) for d in E.differentials]}


# -- graded algebras ---------------------------------------------------------


def load_cga(doc, field_override=None):
    field = field_override if field_override is not None else load_field(doc.get("field"))
    dims = _require(doc, "dims", ["count"])
    mult = {}
    for n, entry in enumerate(_require(doc, "mult", ["list"], [])):
        what = "entry %d of 'mult'" % n
        if len(entry) != 5:
            raise DocumentError("%s must be [i, j, s, t, [coefficients]]" % what)
        i, j, s, t = (_check(v, "int", what) for v in entry[:4])
        vec = _check(entry[4], "list", what)
        if not (i >= 1 and j >= 1 and i + j < len(dims)
                and 0 <= s < dims[i] and 0 <= t < dims[j]):
            raise DocumentError("%s: (i, j, s, t) = (%d, %d, %d, %d) is out of "
                                "range for dims %r" % (what, i, j, s, t, dims))
        block = mult.setdefault((i, j),
                                [[[field.zero] * dims[i + j]
                                  for _ in range(dims[j])]
                                 for _ in range(dims[i])])
        block[s][t] = [load_scalar(field, c) for c in vec]
    return GradedAlgebra(field, dims, mult)


def dump_cga(A):
    F = A.field
    entries = []
    for (i, j), block in sorted(A.mult.items()):
        for s, row in enumerate(block):
            for t, vec in enumerate(row):
                if any(c != F.zero for c in vec):
                    entries.append([i, j, s, t,
                                    [dump_scalar(F, c) for c in vec]])
    return {"type": "cga", "field": dump_field(F), "dims": list(A.dims),
            "mult": entries}


# -- groups, maps, presentations ---------------------------------------------


def load_group(doc):
    doc = _check(doc, "object", "a group")
    return FinAbGroup(_require(doc, "rank", "int", 0),
                      _require(doc, "torsion", ["int"], []))


def dump_group(G):
    return {"type": "group", "rank": G.rank, "torsion": list(G.torsion)}


def load_nu(doc):
    group = load_group(doc["group"]) if "group" in doc else None
    free_block = _require(doc, "free_block", [["int"]], [])
    torsion_blocks = _require(doc, "torsion_blocks", [["int"]], [])
    rows = free_block + torsion_blocks
    b1 = _require(doc, "b1", "count", len(rows[0]) if rows else _REQUIRED)
    return NuData(b1, free_block, torsion_blocks, group)


def dump_nu(nu):
    return {"type": "nu", "b1": nu.b1, "group": dump_group(nu.group),
            "free_block": [list(r) for r in nu.free_block],
            "torsion_blocks": [list(r) for r in nu.torsion_blocks]}


def load_presentation(doc):
    return GroupPresentation(_require(doc, "generators", ["str"]),
                             _require(doc, "relators", ["str"], []))


def dump_presentation(P):
    from .fox import word_to_str
    return {"type": "presentation", "generators": list(P.generators),
            "relators": [word_to_str(P.generators, r) for r in P.relators]}


# -- files -------------------------------------------------------------------


_LOADERS = {
    "free-complex": load_complex,
    "presented-complex": load_complex,
    "cga": load_cga,
    "group": lambda doc, field_override=None: load_group(doc),
    "nu": lambda doc, field_override=None: load_nu(doc),
    "presentation": lambda doc, field_override=None: load_presentation(doc),
}


def load_document(path, expect=None, field_override=None):
    """Read and parse one document file.  A complex or algebra over Q is
    reduced into `field_override` when one is given; one over a finite
    field must already be over `field_override`."""
    try:
        with open(path) as fh:
            doc = _check(json.load(fh), "object", "the document in %s" % path)
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise DocumentError("%s is not valid JSON: %s" % (path, exc))
    except ValueError as exc:
        # bytes that are not text, or an integer longer than
        # sys.get_int_max_str_digits() allows
        raise DocumentError("%s cannot be read: %s" % (path, exc))
    except RecursionError as exc:  # arrays or objects nested too deep
        raise DocumentError("%s is nested too deep to read: %s" % (path, exc))
    kind = _require(doc, "type", "str", "free-complex" if "ranks" in doc else None)
    if expect is not None:
        allowed = {"complex": ("free-complex", "presented-complex")}.get(
            expect, (expect,))
        if kind not in allowed:
            raise DocumentError("%s holds a %r document, expected %s"
                                % (path, kind, expect))
    loader = _LOADERS.get(kind)
    if loader is None:
        raise DocumentError("%s: unknown document type %r" % (path, kind))
    if field_override is not None and kind in ("free-complex",
                                               "presented-complex", "cga"):
        holder = doc if kind == "cga" else _require(doc, "ring", "object")
        field_doc = holder.get("field")
        if not _declares(field_doc, field_override):
            declared = load_field(field_doc)
            if declared.is_finite and declared != field_override:
                raise DocumentError("%s is over %r but --q selected %r"
                                    % (path, declared, field_override))
    return loader(doc, field_override=field_override)


def _scalar(v):
    """The JSON text of the scalar `v` as json.dumps writes it, or None
    for a list, tuple or dict."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return int.__repr__(v)
    if isinstance(v, (list, tuple, dict)):
        return None
    return json.dumps(v)


def write_rows(cells, columns, count, nl, write):
    """Write `count` rows as json.dumps writes that list of lists: indented
    by 2 when `nl` is the newline and indent that precede its closing
    bracket, on one line when `nl` is None.  cells[j] lists the distinct
    scalars of the rows' j-th cells, each an int or a string, and
    columns[j] their ranks in that list in row order.  Each distinct cell
    of a column is rendered once with the separator that follows it
    attached (after the last column, the close of its row and the open of
    the next), and the text is a join of those shared strings in row
    order, written 4096 cells at a time."""
    inner, cell, comma = (("", "", ", ") if nl is None
                          else (nl + "  ", nl + "    ", ","))
    seps = [comma + cell] * (len(cells) - 1)
    seps.append(inner + "]" + comma + inner + "[" + cell)
    texts = [[_scalar(v) + sep for v in col].__getitem__
             for col, sep in zip(cells, seps)]
    stream = chain.from_iterable(zip(*map(map, texts, columns)))
    # every cell but the last, whose row closes the array instead
    left = len(cells) * count - 1
    write("[" + inner + "[" + cell)
    while left:
        chunk = min(left, 4096)
        write("".join(islice(stream, chunk)))
        left -= chunk
    write(next(stream)[:-len(seps[-1])] + inner + "]" + (nl or "") + "]")


def _write(value, nl, write):
    """Write the text of json.dumps(value, sort_keys=True, indent=2)
    through `write`, one call per array that holds no array or object, so
    that a point is one join and not one call per coordinate; a value with
    a write_json(nl, write) method, such as a cli.Locus, writes its own
    text for the list it stands for.  `nl` is the newline and indent that
    precede the closing bracket of `value`.  Object keys must be strings,
    as they are in every document."""
    if isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            write(sep + encode_basestring_ascii(key) + ": ")
            _write(item, inner, write)
            sep = "," + inner
        write(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = nl + "  "
        texts = []
        for item in value:
            text = _scalar(item)
            if text is None:
                break
            texts.append(text)
        else:
            write("[" + inner + ("," + inner).join(texts) + nl + "]")
            return
        sep = "[" + inner
        for item in value:
            write(sep)
            _write(item, inner, write)
            sep = "," + inner
        write(nl + "]")
    elif hasattr(value, "write_json"):  # a value that streams itself
        value.write_json(nl, write)
    else:
        write(_scalar(value))


def dumps(doc):
    parts = []
    _write(doc, "\n", parts.append)
    return "".join(parts) + "\n"


def dump(doc, out):
    """Write dumps(doc) to the stream `out` piece by piece, so the whole
    text and the list of its pieces are never held at once."""
    _write(doc, "\n", out.write)
    out.write("\n")
