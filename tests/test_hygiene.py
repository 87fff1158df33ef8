"""Repository hygiene: the README documents exactly the CLI's long options
and the jump-locus route threshold the library uses, the library holds no
`assert` statement (they vanish under -O) and no `raise AssertionError` (a
broken invariant is an InternalError report), every library name the
benchmark's traced run wraps still exists, and every public name of the
library has a caller."""

import argparse
import ast
import importlib
import importlib.util
import os
import re
from collections import Counter

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


def _traced_spans():
    """The `SPANS` table of `clibench/layertrace.py`."""
    path = os.path.join(ROOT, "clibench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace.SPANS


def test_traced_names_resolve():
    """`clibench/layertrace.py` wraps library functions by name; a rename or
    deletion in the library would otherwise break `--trace 1` silently."""
    missing = []
    for modname, names in _traced_spans().values():
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


# Public names no command reaches that stay in the library on purpose.
KEEP = {
    # the Fitting route of supports, kept as the independent oracle of
    # support_points, and the ideal behind the local finiteness verdict at 1
    "fitting_ideal",
    # the CGA of a cup-product pairing, which the tangent-cone checks on
    # group presentations build from quadratic_cup
    "pairing_cga",
    "quadratic_cup",
}


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _uses(node):
    """How often each name occurs in `node` as an AST name or attribute."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _calls(node):
    """How often each name is called as a method, `x.<name>(...)`, in
    `node`."""
    return Counter(sub.func.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Call)
                   and isinstance(sub.func, ast.Attribute))


def _is_property(node):
    return any(isinstance(dec, ast.Name) and dec.id == "property"
               for dec in node.decorator_list)


def _uncalled(trees, exempt):
    """The public definitions of `trees` ({file name: module}) without a
    caller.  A function or class has one when its name occurs outside its
    own body; a method that is not a property, only when `x.<name>(...)`
    is called outside its own body.  Command handlers (`cmd_*`) and the
    qualified names in `exempt` are let through."""
    uses, calls = Counter(), Counter()
    for tree in trees.values():
        uses.update(_uses(tree))
        calls.update(_calls(tree))
    uncalled = []
    for fname, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            name = node.name
            if "." in qualified and not _is_property(node):
                used = calls[name] > _calls(node)[name]
            else:
                used = uses[name] > _uses(node)[name]
            if used or name.startswith("cmd_") or qualified in exempt:
                continue
            uncalled.append("%s:%s" % (fname, qualified))
    return uncalled


def _public_definitions(tree):
    """(qualified name, node) of each public module-level function and
    class of a module, and of each public method of such a class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield "%s.%s" % (node.name, item.name), item


def _benchmark_names():
    """The library names the benchmark imports, reads off a library module
    it imports (`cli.point_list` after `from jumploci import cli`), or its
    traced run wraps, read from `clibench/`, so that the list follows the
    benchmark."""
    bench = os.path.join(ROOT, "clibench")
    names = set()
    for fname in sorted(os.listdir(bench)):
        if not fname.endswith(".py"):
            continue
        tree = _parse(os.path.join(bench, fname))
        imported = [alias for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("jumploci")
                    for alias in node.names]
        names.update(alias.name for alias in imported)
        modules = {alias.asname or alias.name for alias in imported}
        names.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name)
                     and node.value.id in modules)
    for _, traced in _traced_spans().values():
        if traced != "cmd_*":
            names.update(traced)
    return names


def test_public_names_have_a_caller():
    """A public function, class or method of the library is called from
    elsewhere in the library, is a command handler, serves the benchmark,
    or is kept on purpose (KEEP); code only the tests need belongs in
    tests/oracles.py."""
    src = os.path.join(ROOT, "src", "jumploci")
    trees = {name: _parse(os.path.join(src, name))
             for name in sorted(os.listdir(src)) if name.endswith(".py")}
    assert _uncalled(trees, _benchmark_names() | KEEP) == []


def test_uncalled_names_a_method_that_is_only_read():
    """A method whose name is only read as an attribute, as
    `FinVerdict.is_finite` was through every `field.is_finite`, or that
    only calls itself, has no caller; a property read has one."""
    tree = ast.parse(
        "class Verdict:\n"
        "    @property\n"
        "    def order(self):\n"
        "        return 1\n"
        "    def is_finite(self):\n"
        "        return True\n"
        "    def add(self, other):\n"
        "        return self\n"
        "    def spin(self):\n"
        "        return self.spin()\n"
        "def helper():\n"
        "    return 0\n"
        "def lonely():\n"
        "    return lonely\n"
        "def cmd_run(field):\n"
        "    return field.is_finite, field.order, field.add(helper())\n")
    assert _uncalled({"m.py": tree}, set()) == [
        "m.py:Verdict", "m.py:Verdict.is_finite", "m.py:Verdict.spin",
        "m.py:lonely"]
    assert _uncalled({"m.py": tree}, {"Verdict", "lonely"}) == [
        "m.py:Verdict.is_finite", "m.py:Verdict.spin"]
