"""Batch command line: parse input documents, dispatch to the library, and
emit one deterministic report per run.

Reports are byte-identical for identical inputs, flags, and seed: point
sets are sorted canonically, structured output is JSON with sorted keys,
and timing goes to stderr only.
"""

import json
import os
import sys
import time
import types
from collections import deque
from itertools import chain, count, repeat
from math import prod
from operator import add, floordiv, itemgetter, mod, mul

from .cga import BShape, generic_vanishing_experiment, resonance_ideal, resonance_points, validate_cga
from .complexes import (FreeChainComplex, jump_locus_ideal, jump_locus_points,
                        support_points, validate_complex, validate_presented)
from .documents import (dump, dump_cga, dump_complex, dump_matrix, dump_scalar,
                        load_document, write_rows)
from .equivariant import build_E1, finiteness_test, verify_cv_res
from .errors import (AlgebraError, DocumentError, InternalError,
                     ResourceLimitError)
from .fields import Rationals, finite_field
from .fox import alexander_invariant, characteristic_variety_points
from .rings import poly_to_str
from .varieties import Space, extension_fields


class Locus:
    """A point set of F^r as a report prints it: the list of its points'
    rows of document scalars (dump_scalar) in the canonical order, sorted
    by the printed scalar of each coordinate in turn: numeric over F_p,
    string order over F_{p^m}, and over Q the ints before the strings.

    A report never builds the rows.  Each column's distinct coordinates
    are dumped and ranked once; the points are bucketed by the rank of
    their first coordinate and sorted inside each bucket by the ranks of
    the others, packed into one int; and documents.write_rows streams
    them.  A `Space`, all of F_q^r or of the torus, is printed in product
    order of one sorted column of the q (or q - 1) scalars, with no bucket
    or sort, and no tuple, of the points: its pool is listed in one
    allocation, while the command runs, where a MemoryError is a report."""

    __slots__ = ("field", "points", "pool")

    def __init__(self, field, points):
        self.field = field
        self.points = points
        self.pool = (list(points.pool) if type(points) is Space and points.r
                     else [])

    def _ranked(self):
        """(cells, columns, count): cells[j] lists the distinct scalars of
        column j in ascending order, columns[j] the ranks among them of the
        coordinates of column j in canonical row order, and count the rows
        (no point, and the one point of F^0, have no column)."""
        field, points = self.field, self.points
        if type(points) is Space:  # isinstance on an ABC: 0.1 ms a process
            return self._product_order(points)
        r = len(next(iter(points), ()))
        if not r:
            return [], [], len(points)
        cells, keys = [], []
        for j in range(r):
            col = tuple(map(itemgetter(j), points))
            scalars = {c: dump_scalar(field, c) for c in set(col)}
            key = scalars.__getitem__
            if len(set(map(type, scalars.values()))) > 1:  # ints and strings
                key = lambda c: (type(scalars[c]) is str, scalars[c])
            order = sorted(scalars, key=key)
            cells.append(list(map(scalars.__getitem__, order)))
            keys.append(map(dict(zip(order, count())).__getitem__, col))
        sizes = list(map(len, cells))
        # the ranks after the first, packed into one int base sizes[j]
        rest = keys[1] if len(keys) > 1 else repeat(0)
        for key, size in zip(keys[2:], sizes[2:]):
            rest = map(add, map(mul, rest, repeat(size)), key)
        buckets = [[] for _ in cells[0]]
        deque(map(list.append, map(buckets.__getitem__, keys[0]), rest),
              maxlen=0)
        for bucket in buckets:
            bucket.sort()
        packed = list(chain.from_iterable(buckets))
        columns = [chain.from_iterable(map(repeat, count(), map(len, buckets)))]
        for j in range(1, len(sizes)):
            stride = prod(sizes[j + 1:])
            col = packed if stride == 1 else map(floordiv, packed,
                                                 repeat(stride))
            columns.append(col if j == 1 else map(mod, col, repeat(sizes[j])))
        return cells, columns, len(points)

    def _product_order(self, space):
        """_ranked of a Space: the scalars of its pool sorted once make
        every column's cells, and row n has rank n // s^(r-1-j) mod s in
        column j, s = |pool|: runs of each rank, the runs of column j
        repeated s^j times, all streamed."""
        r = space.r
        scalars = [dump_scalar(self.field, c) for c in self.pool]
        scalars.sort()  # one type: ints over F_p, strings over F_{p^m}
        s = len(scalars)
        columns = []
        for j in range(r):
            ranks = chain.from_iterable(repeat(range(s), s ** j))
            run = s ** (r - 1 - j)
            columns.append(chain.from_iterable(map(repeat, ranks, repeat(run)))
                           if run > 1 else ranks)
        return [scalars] * r, columns, space.size

    def write_json(self, nl, write):
        """Write json.dumps of the rows as documents.write_rows does (`nl`
        as there: None for one line)."""
        cells, columns, rows = self._ranked()
        if not rows:
            write("[]")
        elif not cells:  # the one point of F^0
            write("[[]]" if nl is None else "[" + nl + "  []" + nl + "]")
        else:
            write_rows(cells, columns, rows, nl, write)


def point_list(field, pts):
    """The points `pts` as lists of document scalars, in the canonical
    order a report prints them in (Locus)."""
    cells, columns, rows = Locus(field, pts)._ranked()
    if not cells:
        return [[] for _ in range(rows)]
    return list(map(list, zip(*map(map, [c.__getitem__ for c in cells],
                                   columns))))


def _by_extension(extensions, locus):
    """The by_extension block: for each (e, F_{q^e}) of `extensions`, the
    field order and the points of locus(F_{q^e})."""
    return {str(e): {"field_order": big.order,
                     "points": Locus(big, locus(big))}
            for e, big in extensions}


def _target_field(args, declared=None):
    """The enumeration field: the document's own field once loaded (which
    --q has already reduced or checked), else the field from --q."""
    if declared is not None and declared.is_finite:
        return declared
    if args.q is None:
        raise DocumentError("this command needs a finite field: pass --q")
    return finite_field(args.q)


def _load(args, kind):
    """The document of `kind` at the path of --<kind>; --q overrides the
    field of an algebra or a complex."""
    override = None
    if kind in ("cga", "complex") and args.q is not None:
        override = finite_field(args.q)
    return load_document(getattr(args, kind), kind, field_override=override)


# -- commands ----------------------------------------------------------------


def cmd_validate(args):
    verdicts = {}
    if args.cga:
        verdicts["cga"] = validate_cga(_load(args, "cga"))
    if args.complex:
        E = _load(args, "complex")
        # a presented complex is sampled over the document's field, which
        # --q has replaced
        verdicts["complex"] = (validate_complex(E)
                               if isinstance(E, FreeChainComplex)
                               else validate_presented(E))
    results = {name: {"ok": v.ok, "message": v.message,
                      "location": list(v.location) if v.location else None}
               for name, v in verdicts.items()}
    if args.presentation:
        P = _load(args, "presentation")
        results["presentation"] = {"ok": True,
                                   "message": "%d generators, %d relators"
                                              % (P.ngens, len(P.relators))}
    if not results:
        raise DocumentError("validate needs --cga, --complex, or --presentation")
    ok = all(v.ok for v in verdicts.values())
    return {"results": results, "ok": ok}, (0 if ok else 1)


def cmd_jumploci(args, E):
    base = _target_field(args, E.ring.field)
    result = {"i": args.i, "d": args.d, "by_extension": _by_extension(
        extension_fields(base, args.ext),
        lambda big: jump_locus_points(E, args.i, args.d, big,
                                      torus=args.torus))}
    if isinstance(E, FreeChainComplex):
        ideal = jump_locus_ideal(E, args.i, args.d)
        result["ideal"] = [poly_to_str(g) for g in ideal.generators]
    else:
        result["ideal"] = None
        result["ideal_note"] = ("no minor ideal: the complex has presented "
                                "terms, and the pointwise locus need not be "
                                "closed")
    return {"results": result}, 0


def _union(loci):
    """The union of loci of one space: the Space among them, else a set."""
    return next((s for s in loci if type(s) is Space), None) or set().union(
        *loci)


def cmd_supports(args, E):
    base = _target_field(args, E.ring.field)
    extensions = list(extension_fields(base, args.ext))
    supports = {}  # (i, d, field) -> a support locus already computed

    def support(i, d, big):
        key = (i, d, big)
        if key not in supports:
            supports[key] = support_points(E, i, d, big, torus=args.torus)
        return supports[key]
    result = {"i": args.i, "d": args.d, "by_extension": _by_extension(
        extensions, lambda big: support(args.i, args.d, big))}
    if args.compare_v:
        comparison = {}
        agree = True
        for e, big in extensions:
            w_union = _union([support(i2, 1, big)
                              for i2 in range(args.i + 1)])
            v_union = _union([jump_locus_points(E, i2, 1, big,
                                                torus=args.torus)
                              for i2 in range(args.i + 1)])
            same = w_union == v_union
            agree = agree and same
            comparison[str(e)] = {
                "support_union": Locus(big, w_union),
                "jump_union": Locus(big, v_union),
                "equal": same,
            }
        result["compare_v"] = comparison
        result["compare_v_equal"] = agree
    return {"results": result}, 0


def cmd_resonance(args, A):
    if not A.field.is_finite:
        raise DocumentError("resonance enumeration needs --q")
    by_extension = _by_extension(
        extension_fields(A.field, args.ext),
        lambda big: resonance_points(A, args.i, args.d, big))
    ideal = resonance_ideal(A, args.i, args.d)
    return {"results": {"i": args.i, "d": args.d, "by_extension": by_extension,
                        "ideal": [poly_to_str(g) for g in ideal.generators]}}, 0


def cmd_e1(args, A, nu):
    E = build_E1(A, nu)
    doc = dump_complex(E)
    return {"results": {"ranks": list(E.ranks)}, "complex": doc}, 0


def cmd_verify_cvres(args, A, nu):
    F = A.field
    if not F.is_finite:
        raise DocumentError("verify-cvres enumerates points: pass --q")
    rep = verify_cv_res(A, nu, args.i, args.d)
    result = {
        "i": args.i, "d": args.d, "field_order": F.order,
        "lhs_points": Locus(F, rep["lhs_points"]),
        "rhs_points": Locus(F, rep["rhs_points"]),
        "equal": rep["equal"],
    }
    return {"results": result}, 0 if rep["equal"] else 1


def cmd_finiteness(args, A, nu):
    F = A.field
    if not F.is_finite:
        raise DocumentError("the finiteness hypothesis is checked pointwise: "
                            "pass --q")
    rep = finiteness_test(A, nu, args.k)
    result = {
        "k_range": rep["k_range"],
        "hypothesis_holds": rep["hypothesis_holds"],
        "group": rep["group"],
        "nilpotent_parts": [list(p) for p in rep["nilpotent_parts"]],
        "conclusion": rep["conclusion"],
    }
    if rep["violations"]:
        result["violations"] = sorted(
            [{"w": [dump_scalar(F, c) for c in v["w"]], "i": v["i"]}
             for v in rep["violations"]],
            key=lambda v: (v["i"], v["w"]))
    if rep["hypothesis_holds"]:
        result["e2_supports_in_origin"] = rep["e2_supports_in_origin"]
        result["e2_supports"] = {str(i): Locus(F, pts)
                                 for i, pts in rep["e2_supports"].items()}
        result["e2_dims"] = {str(i): v._asdict()
                             for i, v in rep["e2_dims"].items()}
    return {"results": result}, 0


def cmd_alexander(args, P, nu):
    F = finite_field(args.q) if args.q is not None else Rationals()
    pres, verdict = alexander_invariant(P, nu, F)
    result = {
        "generators": pres.gens,
        "relations": dump_matrix(pres.relations),
        "finiteness": verdict._asdict(),
    }
    return {"results": result}, 0


def cmd_charvar(args, P, nu):
    result = {"i": args.i, "d": args.d, "by_extension": _by_extension(
        extension_fields(_target_field(args), args.ext),
        lambda big: characteristic_variety_points(P, nu, args.i, args.d,
                                                  big))}
    return {"results": result}, 0


def cmd_genres_experiment(args):
    F = _target_field(args)
    rep = generic_vanishing_experiment(BShape(args.shape), args.i,
                                       args.trials, F, args.seed)
    for key in ("vanishing_exemplar", "resonant_exemplar"):
        ex = rep.get(key)
        if ex:
            ex["mult"] = dump_cga(ex.pop("algebra"))["mult"]
            if "witness" in ex:
                ex["witness"] = [dump_scalar(F, c) for c in ex["witness"]]
    rep["resonant_witnesses"] = [
        {"trial": w["trial"], "witness": [dump_scalar(F, c) for c in w["witness"]]}
        for w in rep["resonant_witnesses"]]
    return {"results": rep}, 0


# -- output ------------------------------------------------------------------


def _render_text(report, out):
    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk("%s.%s" % (prefix, k) if prefix else str(k), value[k])
        elif isinstance(value, Locus):
            out.write(prefix + ": ")
            value.write_json(None, out.write)
            out.write("\n")
        elif isinstance(value, list):
            out.write("%s: %s\n" % (prefix, json.dumps(value)))
        else:
            out.write("%s: %s\n" % (prefix, value))
    walk("", report)


def emit(report, args, out=None):
    out = out if out is not None else sys.stdout
    if args.format == "structured":
        dump(report, out)
    else:
        _render_text(report, out)


# -- argument parsing ----------------------------------------------------------


def _at_least(low):
    """An argparse type: an int no smaller than `low`."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            message = "invalid int value: %r" % text
        else:
            if value >= low:
                return value
            message = "must be at least %d, got %d" % (low, value)
        import argparse
        raise argparse.ArgumentTypeError(message)
    return parse


def _shape(text):
    """An argparse type: comma-separated dimensions, each at least 0."""
    return tuple(_at_least(0)(part) for part in text.split(","))


# name -> (--help line, provenance, documents, flags).  main loads the
# documents in this order and passes them to cmd_<name>; --help lists each
# document (a required --<kind>) and then each flag, in this order.
COMMANDS = {
    "validate": (
        "axiom checks for input documents",
        "axiom check: shapes, d.d = 0, commutativity, associativity",
        (), ("cga", "complex", "presentation", "format", "q")),
    "jumploci": (
        "pointwise jump loci and minor ideals",
        "pointwise homology ranks; ideal route: determinantal minors of the "
        "adjacent differentials (free complexes only)",
        ("complex",), ("format", "q", "ext", "i", "d", "torus")),
    "supports": (
        "support loci via Fitting ideals",
        "Fitting ideals of a homology presentation; set-level equal to the "
        "pointwise exterior-power support",
        ("complex",), ("compare-v", "format", "q", "ext", "i", "d", "torus")),
    "resonance": (
        "resonance points and equations",
        "rank of left-multiplication in the algebra; ideal route: square-zero "
        "quadrics plus block minors",
        ("cga",), ("format", "q", "ext", "i", "d")),
    "e1": (
        "the graded page of a cover as a complex document",
        "graded page of the cover: comultiplication followed by the induced "
        "map, embedded as linear forms",
        ("cga", "nu"), ("format", "q")),
    "verify-cvres": (
        "compare page jump loci with pulled-back resonance",
        "jump loci of the graded page against resonance pulled back along "
        "the induced degree-one map",
        ("cga", "nu"), ("format", "q", "i", "d")),
    "finiteness": (
        "vanishing-resonance finiteness test",
        "trivial resonance in the image forces page supports into the "
        "origin; finiteness of the completed invariants follows "
        "(one-directional)",
        ("cga", "nu"), ("format", "q", "k")),
    "alexander": (
        "degree-one homology of the abelianized cover",
        "degree-one homology presentation of the abelianized cover; "
        "finiteness by divisor degrees or standard monomials",
        ("presentation", "nu"), ("format", "q")),
    "charvar": (
        "character-torus jump loci of a presentation",
        "unit-character jump loci of the abelianized complex",
        ("presentation", "nu"), ("format", "q", "ext", "i", "d")),
    "genres-experiment": (
        "classify random algebras by vanishing resonance",
        "random structure constants classified by whether degree-i resonance "
        "is trivial",
        (), ("shape", "format", "q", "i", "seed", "trials")),
}

# flag -> the argparse keywords of --<flag>; validate reads its documents
# through the first three, optional there
FLAGS = {
    "cga": {}, "complex": {}, "presentation": {},
    "compare-v": {"action": "store_true",
                  "help": "also compare the union of supports with the union "
                          "of jump loci up to degree i"},
    "shape": {"type": _shape, "required": True,
              "help": "comma-separated dims, e.g. 1,2,1"},
    "format": {"choices": ("text", "structured"), "default": "text"},
    "q": {"type": int, "default": None,
          "help": "prime power order of the coefficient field"},
    "ext": {"type": _at_least(1), "default": 1,
            "help": "also enumerate over extensions up to this degree"},
    "i": {"type": _at_least(0), "required": True},
    "d": {"type": _at_least(0), "default": 1},
    "k": {"type": _at_least(0), "required": True},
    "torus": {"action": "store_true",
              "help": "restrict to points with invertible coordinates"},
    "seed": {"type": int, "default": 0},
    "trials": {"type": _at_least(1), "required": True},
}


def _options(name):
    """The options of command `name`, each --<option> with its argparse
    keywords: every document, a required --<kind>, then every flag."""
    _, _, documents, flags = COMMANDS[name]
    options = {kind: {"required": True} for kind in documents}
    options.update((flag, FLAGS[flag]) for flag in flags)
    return options


def _parse_plain(argv):
    """What argparse makes of a well-formed `argv`, read off the tables, or
    None.  Well formed: a command, then only exact --<name> tokens of its
    documents and flags, each but a store_true one followed by one value
    that does not start with "-" and passes the flag's type and choices,
    and every required flag given.  Anything else (help, a usage error, an
    abbreviation, --name=value, a value starting with "-") is left to
    argparse, whose texts and exit codes stay the only ones."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = _options(argv[0])
    values = {flag: False if kw.get("action") == "store_true"
              else kw.get("default") for flag, kw in options.items()}
    missing = {flag for flag, kw in options.items() if kw.get("required")}
    tokens = iter(argv[1:])
    for token in tokens:
        flag = token[2:]
        if not token.startswith("--") or flag not in options:
            return None
        kw = options[flag]
        missing.discard(flag)
        if kw.get("action") == "store_true":
            values[flag] = True
            continue
        text = next(tokens, "-")  # a missing value is refused as "-" is
        if text.startswith("-"):
            return None
        try:
            values[flag] = kw.get("type", str)(text)
        except Exception:  # argparse reports it, or raises it, itself
            return None
        if "choices" in kw and values[flag] not in kw["choices"]:
            return None
    if missing:
        return None
    return types.SimpleNamespace(
        command=argv[0], fn=globals()["cmd_" + argv[0].replace("-", "_")],
        **{flag.replace("-", "_"): value for flag, value in values.items()})


def build_parser(argv=()):
    """The parser of `argv`.  When argv[0] names a command, only that
    command's sub-parser is built, and the metavar keeps every command in
    the usage line; --help, a bare argv and an unknown command build all."""
    import argparse
    ap = argparse.ArgumentParser(
        prog="jumploci",
        description="Exact jump loci, supports, and resonance of chain "
                    "complexes, graded algebras, and group presentations.")
    named = argv[0] if argv and argv[0] in COMMANDS else None
    metavar = "{%s}" % ",".join(COMMANDS) if named else None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (line, _, _, _) in COMMANDS.items():
        if named and name != named:
            continue
        sp = sub.add_parser(name, help=line)
        for option, kw in _options(name).items():
            sp.add_argument("--" + option, **kw)
        # the module attribute, so that a wrapper set on it is the one called
        sp.set_defaults(fn=globals()["cmd_" + name.replace("-", "_")])
    return ap


def error_code(exc):
    """The exit code of an error report: 3 for a resource limit, 4 for a
    broken internal invariant, 2 for a usage or document error (1 is kept
    for a false verdict)."""
    if isinstance(exc, ResourceLimitError):
        return 3
    if isinstance(exc, InternalError):
        return 4
    return 2


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv) or build_parser(argv).parse_args(argv)
    _, provenance, documents, _ = COMMANDS[args.command]
    started = time.monotonic()
    try:
        body, code = args.fn(args, *[_load(args, kind) for kind in documents])
        report = {"command": args.command, "provenance": provenance, **body}
    except (AlgebraError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # a pool or table too large to hold
            exc = ResourceLimitError("out of memory computing the report")
        report = {"command": args.command, "error": {
            "type": type(exc).__name__, "message": str(exc)}}
        code = error_code(exc)
    try:
        emit(report, args)
    except BrokenPipeError:
        # the reader closed stdout: the report ends here, with exit code 5.
        # stdout now points at os.devnull, so the interpreter's final flush
        # of what is still buffered cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 5
    print("elapsed: %.3fs" % (time.monotonic() - started), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
