"""The three workloads: which documents each one generates, and which CLI
reports it replays on them.

Every document comes from a public generator of the library (`corpus`,
`cga.sample_cga`, `cga.exterior_algebra`, `equivariant.identity_nu`) or from
a seeded word sampler here, with contiguous generator seeds.  The document
set of a workload is the same for every workload seed, so that each report
has an expected output recorded in `expected.json` and runs with different
seeds replay the same work; the workload seed fixes the replay order.

A report is `Report(rid, argv, docs, points, oracle)`:
  rid     stable identifier, the key into `expected.json`
  argv    the arguments of `jumploci.cli.main`
  docs    the document files the report reads, relative to the checkout root
  points  nominal points enumerated: sum over e = 1..ext of |F_{q^e}|^r, or
          of (|F_{q^e}| - 1)^r on the torus; 0 for symbolic-only reports
  oracle  True for reports whose printed points are checked against the
          zero set of the printed minor-ideal generators
"""

import os
import random
from collections import namedtuple

from jumploci.cga import BShape, exterior_algebra, sample_cga
from jumploci.corpus import (random_bivariate_complex, random_free_complex,
                             random_laurent_complex, random_word)
from jumploci.documents import (dump_cga, dump_complex, dump_nu,
                                dump_presentation, dumps)
from jumploci.equivariant import FinAbGroup, NuData, identity_nu
from jumploci.fields import finite_field
from jumploci.fox import GroupPresentation, free_reduce
from jumploci.rings import Ring

Report = namedtuple("Report", "rid argv docs points oracle")

WORKLOADS = ("enum-prime", "ext-field", "symbolic")

ENUM_PRIMES = (31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101)
ENUM_COMPLEXES = 80          # seeds 0..79, prime ENUM_PRIMES[seed % 16]
ENUM_SAMPLED_CGA = ((5, 12), (7, 8))   # (q, count) of sample_cga (1, 4, 3)
ENUM_EXTERIOR_RES = (5, 7)   # exterior(4) resonance fields
ENUM_CVRES = ((3, 3), (3, 5), (3, 7), (4, 3), (4, 5), (4, 7))  # (n, q)

EXT_BIVARIATE = ((16, 16), (25, 16), (27, 28), (32, 8), (49, 8), (64, 8))  # seeds 0..83
EXT_LAURENT = ((256, 11), (512, 1), (625, 2), (729, 2), (1024, 1))  # seeds 0..16
EXT_CHARVAR = ((5, 4, 1), (3, 6, 1))   # (q, ext, count); seeds 0..1

SYM_COMPLEXES = 100          # seeds 0..99 of rank <= 4 bivariate complexes
SYM_PRESENTATIONS = 40       # seeds 0..39 of two-generator presentations


def _points(q, ext, r, torus):
    return sum(((q ** e - 1) if torus else q ** e) ** r
               for e in range(1, ext + 1))


def _onto_z():
    """The map Z^2 -> Z sending both generators to 1."""
    return NuData(2, [[1, 1]], (), FinAbGroup(1))


def random_presentation(seed, max_relators=2, max_len=8):
    """Two generators a, b and one or two nonempty reduced relators."""
    rng = random.Random("presentation:%d" % seed)
    relators = []
    for _ in range(rng.randint(1, max_relators)):
        word = ()
        while not word:
            word = free_reduce(random_word(rng, 2, max_len))
        relators.append(word)
    return GroupPresentation(("a", "b"), relators)


class _Writer:
    """Writes documents under a work dir and collects the reports."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.reports = []

    def doc(self, name, doc):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(dumps(doc))
        return path

    def add(self, rid, argv, docs, points=0, oracle=False):
        self.reports.append(Report(rid, argv + ["--format", "structured"],
                                   docs, points, oracle))


def _enum_prime(w):
    for seed in range(ENUM_COMPLEXES):
        q = ENUM_PRIMES[seed % len(ENUM_PRIMES)]
        E = random_bivariate_complex(finite_field(q), seed)
        path = w.doc("bivariate-%d.cc" % seed, dump_complex(E))
        w.add("jumploci/bivariate-%d/F%d" % (seed, q),
              ["jumploci", "--complex", path, "--i", "1", "--q", str(q)],
              [path], _points(q, 1, 2, False), oracle=True)
    seed = 0
    for q, count in ENUM_SAMPLED_CGA:
        for _ in range(count):
            A = sample_cga(BShape((1, 4, 3)), finite_field(q), seed)
            path = w.doc("sampled-%d.cga" % seed, dump_cga(A))
            w.add("resonance/sampled-%d/F%d" % (seed, q),
                  ["resonance", "--cga", path, "--i", "1", "--q", str(q)],
                  [path], _points(q, 1, 4, False))
            seed += 1
    for q in ENUM_EXTERIOR_RES:
        path = w.doc("exterior4-F%d.cga" % q, dump_cga(exterior_algebra(finite_field(q), 4)))
        w.add("resonance/exterior4/F%d" % q,
              ["resonance", "--cga", path, "--i", "1", "--q", str(q)],
              [path], _points(q, 1, 4, False))
    for n, q in ENUM_CVRES:
        cga = w.doc("exterior%d-F%d.cga" % (n, q),
                    dump_cga(exterior_algebra(finite_field(q), n)))
        nu = w.doc("identity-%d.nu" % n, dump_nu(identity_nu(n)))
        w.add("verify-cvres/exterior%d/F%d" % (n, q),
              ["verify-cvres", "--cga", cga, "--nu", nu, "--i", "1", "--q", str(q)],
              [cga, nu], _points(q, 1, n, False))


def _ext_field(w):
    seed = 0
    for q, count in EXT_BIVARIATE:
        F = finite_field(q)
        for _ in range(count):
            E = random_bivariate_complex(F, seed)
            path = w.doc("bivariate-%d.cc" % seed, dump_complex(E))
            w.add("jumploci/bivariate-%d/F%d" % (seed, q),
                  ["jumploci", "--complex", path, "--i", "1", "--q", str(q)],
                  [path], _points(q, 1, 2, False))
            seed += 1
    seed = 0
    for q, count in EXT_LAURENT:
        F = finite_field(q)
        for _ in range(count):
            path = w.doc("laurent-%d.cc" % seed,
                         dump_complex(random_laurent_complex(F, seed)))
            w.add("jumploci/laurent-%d/F%d" % (seed, q),
                  ["jumploci", "--complex", path, "--i", "1", "--q", str(q)],
                  [path], _points(q, 1, 1, True))
            seed += 1
    nu = w.doc("onto-z.nu", dump_nu(_onto_z()))
    seed = 0
    for q, ext, count in EXT_CHARVAR:
        for _ in range(count):
            path = w.doc("presentation-%d.pres" % seed,
                         dump_presentation(random_presentation(seed)))
            w.add("charvar/presentation-%d/F%d-ext%d" % (seed, q, ext),
                  ["charvar", "--presentation", path, "--nu", nu, "--i", "1",
                   "--q", str(q), "--ext", str(ext)],
                  [path, nu], _points(q, ext, 1, True))
            seed += 1


def _symbolic(w):
    ring = Ring(finite_field(3), ("x", "y"))
    for seed in range(SYM_COMPLEXES):
        E = random_free_complex(ring, seed, max_rank=4)
        path = w.doc("free-%d.cc" % seed, dump_complex(E))
        w.add("supports/free-%d/F3" % seed,
              ["supports", "--complex", path, "--i", "1", "--q", "3",
               "--compare-v"], [path], _points(3, 1, 2, False))
        w.add("jumploci/free-%d/F3" % seed,
              ["jumploci", "--complex", path, "--i", "1", "--q", "3"],
              [path], _points(3, 1, 2, False))
    nu = w.doc("onto-z.nu", dump_nu(_onto_z()))
    for seed in range(SYM_PRESENTATIONS):
        path = w.doc("presentation-%d.pres" % seed,
                     dump_presentation(random_presentation(seed)))
        w.add("alexander/presentation-%d/Q" % seed,
              ["alexander", "--presentation", path, "--nu", nu], [path, nu])


_GENERATORS = {"enum-prime": _enum_prime, "ext-field": _ext_field,
             "symbolic": _symbolic}


def generate(workload, workdir):
    """Write the workload's documents under `workdir`; return its reports."""
    os.makedirs(workdir, exist_ok=True)
    w = _Writer(workdir)
    _GENERATORS[workload](w)
    return w.reports
