"""Field micro-benchmarks and source line counts, reported with the
per-layer metrics of a traced run.

The field numbers call the public methods of field objects from outside
the package: `mul` and `add` throughput at F_101 (prime field), F_256
(table regime) and F_729 (polynomial regime), and the table-build time of
F_256 and F_512.  Each measurement runs in its own forked child, so that
every field is built from scratch.
"""

import os
import random
import statistics
import time

from replay import run_in_child

THROUGHPUT = (  # (q, op, operations per batch)
    (101, "mul", 200000), (101, "add", 200000),
    (256, "mul", 200000), (256, "add", 40000),
    (729, "mul", 4000), (729, "add", 40000),
)
BATCHES = 5
BUILDS = ((256, 3), (512, 1))  # (q, builds; the median is reported)


def _throughput(q, op, n):
    from jumploci.fields import finite_field
    F = finite_field(q)
    rng = random.Random("%s:%d" % (op, q))
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(n)]
    fn = getattr(F, op)
    rates = []
    for _ in range(BATCHES):
        started = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        rates.append(n / (time.perf_counter() - started))
    return statistics.median(rates)


def _build(q):
    from jumploci.fields import finite_field
    started = time.perf_counter()
    finite_field(q)
    return time.perf_counter() - started


def field_metrics():
    """Returns (metrics, failures); a measurement whose child was lost
    reads 0 and is listed in failures."""
    out, failures = {}, []

    def measure(name, unit, fn, repeats=1):
        values = [run_in_child(fn) for _ in range(repeats)]
        ok = [v for v in values if isinstance(v, float)]
        failures.extend("%s: %s" % (name, v["lost"]) for v in values
                        if not isinstance(v, float))
        out[name] = {"value": statistics.median(ok) if ok else 0.0, "unit": unit}

    for q, op, n in THROUGHPUT:
        measure("fields.F%d.%s_per_s" % (q, op), "1/s",
                lambda: _throughput(q, op, n))
    for q, repeats in BUILDS:
        measure("fields.F%d.build_s" % q, "s", lambda: _build(q), repeats)
    return out, failures


SRC_MODULES = ("__init__", "cga", "cli", "complexes", "corpus", "documents",
               "equivariant", "errors", "fields", "fox", "groebner", "linalg",
               "matrices", "rings", "smith", "varieties")


def line_metrics(pkg_dir):
    """Line count of each module under src/jumploci (0 once deleted), and
    the total over every .py file there."""
    def count(path):
        with open(path, "rb") as fh:
            return sum(1 for _ in fh)
    out = {}
    for mod in SRC_MODULES:
        path = os.path.join(pkg_dir, mod + ".py")
        out["src.lines.%s" % mod] = {
            "value": count(path) if os.path.exists(path) else 0, "unit": "count"}
    total = sum(count(os.path.join(pkg_dir, f))
                for f in os.listdir(pkg_dir) if f.endswith(".py"))
    out["src.lines.total"] = {"value": total, "unit": "count"}
    return out
