"""Mutated sample documents end in a report, never in a traceback.

A seeded sweep: for each document a README command reads, and for each of
twelve JSON values, a few positions of the document (a key's value or a
list entry, at any depth) are set to that value, and the command is run
through `cli.main`.  Every run must print a structured report: a result,
or an error report of an `AlgebraError` type.
"""

import contextlib
import io
import json
import os
import random

import pytest

from jumploci import errors
from jumploci.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

COMMANDS = [
    "jumploci --complex samples/augmentation.cc --i 1 --d 1 --q 5",
    "supports --complex samples/augmentation.cc --i 1 --d 1 --q 5 --compare-v",
    "resonance --cga samples/zero-pairing.cga --i 1 --d 1 --q 3",
    "e1 --cga samples/exterior.cga --nu samples/identity-z2.nu --q 5",
    "verify-cvres --cga samples/exterior.cga --nu samples/identity-z2.nu "
    "--i 1 --d 1 --q 3",
    "finiteness --cga samples/exterior.cga --nu samples/identity-z2.nu --k 2 "
    "--q 5",
    "alexander --presentation samples/trefoil.pres --nu samples/onto-z.nu",
    "charvar --presentation samples/trefoil.pres --nu samples/onto-z.nu --i 1 "
    "--d 1 --q 7",
    "validate --cga samples/exterior.cga --complex samples/koszul2.cc",
    "alexander --presentation samples/central-square.pres --nu "
    "samples/onto-z.nu",
]
VALUES = [None, True, False, 0, -1, 3, 2.5, "", "x", [], [0], {}]
POSITIONS_PER_VALUE = 4
REPORTED = {name for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, errors.AlgebraError)}


def _positions(doc, path=()):
    """Paths to every value inside `doc`, in a fixed order."""
    if isinstance(doc, dict):
        items = sorted(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _positions(value, path + (key,))


def _set(doc, path, value):
    doc = json.loads(json.dumps(doc))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return doc


@pytest.mark.parametrize("command", COMMANDS,
                         ids=["%s-%d" % (c.split()[0], n)
                              for n, c in enumerate(COMMANDS)])
def test_mutated_documents_give_reports(command, tmp_path):
    argv = command.split() + ["--format", "structured"]
    rng = random.Random(command)
    failures = []
    for at, arg in enumerate(argv):
        if not arg.startswith("samples/"):
            continue
        with open(os.path.join(ROOT, arg)) as fh:
            doc = json.load(fh)
        paths = list(_positions(doc))
        mutated = tmp_path / os.path.basename(arg)
        for value in VALUES:
            for path in rng.sample(paths, min(POSITIONS_PER_VALUE, len(paths))):
                mutated.write_text(json.dumps(_set(doc, path, value)))
                run = argv[:at] + [str(mutated)] + argv[at + 1:]
                out = io.StringIO()
                try:
                    with contextlib.redirect_stdout(out):
                        code = main(run)
                    report = json.loads(out.getvalue())
                except Exception as exc:  # any escape is a failure
                    failures.append((arg, path, value, repr(exc)))
                    continue
                error = report.get("error")
                if error is not None and error["type"] not in REPORTED:
                    failures.append((arg, path, value, error))
                # 0 and 1 are a verdict, 2..4 an error report
                if (error is not None) != (code in (2, 3, 4)):
                    failures.append((arg, path, value, "exit %s" % code))
    assert failures == []
