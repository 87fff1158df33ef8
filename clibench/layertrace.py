"""Traced run: wrappers around each layer's public functions, installed
from the benchmark's own files before the parent process forks.

A function wrapper is set on every `jumploci` module that holds the
function (its home module and each module that bound it through
`from .x import y`); a method wrapper is set on its class.  Each wrapped
call is a span.  The child keeps a stack of open spans and sums, per span
name, the calls, the inclusive time and the self time (the span minus the
child spans inside it); one record per call would run to hundreds of
thousands per report.  Field operations are counted without spans, and
`enumerate_coords` is wrapped so that it counts the tuples it yields and
the time from its first tuple to the end of its loop.
"""

import sys
import time
from functools import wraps

# span name -> (module, names); a dotted name is a method on a class
SPANS = {
    "cli.cmd": ("jumploci.cli", "cmd_*"),
    "documents.load": ("jumploci.documents", ("load_document",)),
    "documents.dump": ("jumploci.documents", ("dumps",)),
    "fields.build": ("jumploci.fields", ("finite_field", "extension_of", "field_make")),
    "rings.evaluate": ("jumploci.rings", ("Poly.evaluate",)),
    "matrices.evaluate": ("jumploci.matrices", ("Matrix.evaluate",)),
    "matrices.minors": ("jumploci.matrices",
                        ("minors_ideal", "block_diag_minors_ideal", "all_minors")),
    "linalg.rank": ("jumploci.linalg", ("mat_rank", "mat_rank_stacked")),
    "smith.snf": ("jumploci.smith", ("smith_normal_form",)),
    "groebner.gb": ("jumploci.groebner", ("module_groebner", "buchberger")),
    "groebner.syzygy": ("jumploci.groebner", ("syzygy_matrix",)),
    "varieties.zero_locus": ("jumploci.varieties", ("zero_locus_points",)),
    "complexes.table": ("jumploci.complexes", ("homology_dims_table",)),
    "complexes.presentation": ("jumploci.complexes", ("homology_presentation",)),
    "cga.resonance": ("jumploci.cga", ("resonance_points",)),
    "cga.in_resonance": ("jumploci.cga", ("in_resonance",)),
    "equivariant.verify": ("jumploci.equivariant", ("verify_cv_res", "build_E1")),
    "fox.charvar": ("jumploci.fox", ("characteristic_variety_points",)),
    "fox.alexander": ("jumploci.fox", ("alexander_invariant",)),
}

FIELD_OPS = ("mul", "add", "sub", "neg", "inv", "pow")
OP_KINDS = ("prime", "ext_table", "ext_poly")

# per-layer metric -> (unit, how to read it from the summed trace)
LAYER_METRICS = {
    "cli.reports": ("count", ("calls", "cli.cmd")),
    "cli.report_s": ("s", ("self", "cli.cmd")),
    "documents.load_calls": ("count", ("calls", "documents.load")),
    "documents.load_s": ("s", ("self", "documents.load")),
    "documents.dump_s": ("s", ("self", "documents.dump")),
    "fields.builds": ("count", ("calls", "fields.build")),
    "fields.build_s": ("s", ("self", "fields.build")),
    "fields.prime_ops": ("count", ("ops", "prime")),
    "fields.ext_table_ops": ("count", ("ops", "ext_table")),
    "fields.ext_poly_ops": ("count", ("ops", "ext_poly")),
    "rings.evaluate_calls": ("count", ("calls", "rings.evaluate")),
    "rings.evaluate_s": ("s", ("self", "rings.evaluate")),
    "matrices.evaluate_s": ("s", ("self", "matrices.evaluate")),
    "matrices.minors_calls": ("count", ("calls", "matrices.minors")),
    "matrices.minors_s": ("s", ("self", "matrices.minors")),
    "linalg.rank_calls": ("count", ("calls", "linalg.rank")),
    "linalg.rank_s": ("s", ("self", "linalg.rank")),
    "smith.snf_calls": ("count", ("calls", "smith.snf")),
    "smith.snf_s": ("s", ("self", "smith.snf")),
    "groebner.gb_calls": ("count", ("calls", "groebner.gb")),
    "groebner.gb_s": ("s", ("self", "groebner.gb")),
    "groebner.syzygy_s": ("s", ("self", "groebner.syzygy")),
    "varieties.points": ("count", ("points",)),
    "varieties.enumerate_s": ("s", ("self", "varieties.zero_locus")),
    "varieties.points_per_s": ("1/s", ("points_per_s",)),
    "complexes.table_s": ("s", ("self", "complexes.table")),
    "complexes.presentation_calls": ("count", ("calls", "complexes.presentation")),
    "complexes.presentation_s": ("s", ("self", "complexes.presentation")),
    "cga.resonance_s": ("s", ("self", "cga.resonance")),
    "cga.in_resonance_calls": ("count", ("calls", "cga.in_resonance")),
    "equivariant.verify_s": ("s", ("self", "equivariant.verify")),
    "fox.charvar_s": ("s", ("self", "fox.charvar")),
    "fox.alexander_s": ("s", ("self", "fox.alexander")),
}


class Tracer:
    """Span and counter state of one traced child; `install` patches the
    library, `begin`/`end` bracket one report in the child."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total, self
        self.ops = [0] * len(OP_KINDS)
        self.loop = [0, 0.0]  # enumerated tuples, seconds inside their loops
        self.stack = []
        self._patched = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        stat = self.stats[name]
        stack = self.stack
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            inner = [0.0]
            stack.append(inner)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += took
                stat[0] += 1
                stat[1] += took
                stat[2] += took - inner[0]
        return wrapper

    def _op(self, fn, extension, table_cap):
        ops = self.ops

        if extension:
            @wraps(fn)
            def wrapper(field, *args):
                ops[1 if field.order <= table_cap else 2] += 1
                return fn(field, *args)
        else:
            @wraps(fn)
            def wrapper(field, *args):
                ops[0] += 1
                return fn(field, *args)
        return wrapper

    def _enumerate(self, fn):
        loop = self.loop
        clock = time.perf_counter

        def counted(it):
            started = clock()
            n = 0
            try:
                for coords in it:
                    n += 1
                    yield coords
            finally:
                loop[0] += n
                loop[1] += clock() - started

        @wraps(fn)
        def wrapper(*args, **kwargs):
            return counted(fn(*args, **kwargs))
        return wrapper

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_function(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "jumploci":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        from jumploci import fields, varieties
        for name, (modname, names) in SPANS.items():
            mod = sys.modules[modname]
            if names == "cmd_*":
                names = sorted(a for a in vars(mod) if a.startswith("cmd_"))
            for fname in names:
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(mod, cls_name)
                    self._set(cls, meth, self._span(name, getattr(cls, meth)))
                else:
                    original = getattr(mod, fname)
                    self._set_function(original, self._span(name, original))
        # the library's own bound of the table regime; if it is renamed,
        # tracing fails here rather than splitting the counts in the wrong place
        table_cap = fields._TABLE_CAP
        for cls, extension in ((fields.PrimeField, False), (fields.ExtensionField, True)):
            for op in FIELD_OPS:
                self._set(cls, op, self._op(getattr(cls, op), extension, table_cap))
        original = varieties.enumerate_coords
        self._set_function(original, self._enumerate(original))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- per report ---------------------------------------------------------------

    def begin(self):
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.ops[:] = [0] * len(OP_KINDS)
        self.loop[:] = [0, 0.0]
        del self.stack[:]

    def end(self):
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "ops": list(self.ops), "loop": list(self.loop)}


def sum_traces(traces):
    total = {"stats": {name: [0, 0.0, 0.0] for name in SPANS},
             "ops": [0] * len(OP_KINDS), "loop": [0, 0.0]}
    for tr in traces:
        for name, stat in tr["stats"].items():
            acc = total["stats"][name]
            for i in range(3):
                acc[i] += stat[i]
        for i, n in enumerate(tr["ops"]):
            total["ops"][i] += n
        total["loop"][0] += tr["loop"][0]
        total["loop"][1] += tr["loop"][1]
    return total


def layer_metrics(total):
    out = {}
    for metric, (unit, (kind, *arg)) in LAYER_METRICS.items():
        if kind == "calls":
            value = total["stats"][arg[0]][0]
        elif kind == "self":
            value = total["stats"][arg[0]][2]
        elif kind == "ops":
            value = total["ops"][OP_KINDS.index(arg[0])]
        elif kind == "points":
            value = total["loop"][0]
        else:
            points, seconds = total["loop"]
            value = points / seconds if seconds else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
