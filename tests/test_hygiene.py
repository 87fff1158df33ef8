"""Repository hygiene: the README documents exactly the CLI's long options
and the jump-locus route threshold the library uses, the library holds no
`assert` statement (they vanish under -O) and no `raise AssertionError` (a
broken invariant is an InternalError report), and every library name the
benchmark's traced run wraps still exists."""

import argparse
import ast
import importlib
import importlib.util
import os
import re

from jumploci.cli import build_parser

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
EXEMPT = {"--help", "--no-build-isolation"}


def _parser_long_options():
    found = set()
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            found.update(o for o in action.option_strings if o.startswith("--"))
    return found - EXEMPT


def test_readme_flags_match_the_parser():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = set(re.findall(r"--[a-z][a-z0-9-]*", fh.read())) - EXEMPT
    accepted = _parser_long_options()
    assert accepted - readme == set(), "options missing from README"
    assert readme - accepted == set(), "README flags the CLI does not accept"


def test_readme_states_the_route_threshold():
    from jumploci.complexes import FIBER_MIN_Q
    with open(os.path.join(ROOT, "README.md")) as fh:
        stated = re.findall(r"FIBER_MIN_Q = (\d+)", fh.read())
    assert stated and all(int(q) == FIBER_MIN_Q for q in stated), stated


def test_library_has_no_assert_statements():
    src = os.path.join(ROOT, "src", "jumploci")
    offenders = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        offenders += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Assert) or _raises_assertion(node)]
    assert offenders == []


def _raises_assertion(node):
    """`raise AssertionError(...)`: an invariant belongs in an
    errors.InternalError, which the CLI reports instead of a traceback."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_traced_names_resolve():
    """`clibench/layertrace.py` wraps library functions by name; a rename or
    deletion in the library would otherwise break `--trace 1` silently."""
    path = os.path.join(ROOT, "clibench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = []
    for modname, names in layertrace.SPANS.values():
        mod = importlib.import_module(modname)
        if names == "cmd_*":
            if not any(a.startswith("cmd_") for a in vars(mod)):
                missing.append(modname + ".cmd_*")
            continue
        for name in names:
            owner = mod
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append("%s.%s" % (modname, name))
    from jumploci import fields, varieties
    assert isinstance(fields._TABLE_CAP, int)
    assert callable(varieties.enumerate_coords)
    assert missing == []
