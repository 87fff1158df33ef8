"""The CLI surface, pinned: `--help` of the top level and of every command,
the usage error and exit code of each bare command and of an unknown one
(a bare `validate` parses, and is an error report), the usage errors of an
unrecognized argument, a stray positional, an out-of-range and an ambiguous
flag after a command, the stdout of one structured run of each command on
`samples/`, which error `validate` reports first, and which sub-parsers
`main` builds for each kind of argv, and the error report of each command
that enumerates points when no finite field is given.  A well-formed argv
is read off the command tables into what argparse would give it, and a
report in a fresh interpreter loads neither argparse, gettext nor locale.
`cli_surface.json` holds the help and usage texts as argparse printed them
at 80 columns.

Help and usage texts are compared with each run of whitespace collapsed to
one space: from Python 3.13 on argparse wraps a long usage line at other
points, while the words and their order, which the parser declares, stay
the same.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from jumploci.cli import (COMMANDS, _options, _parse_plain, build_parser,
                          main)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

with open(os.path.join(os.path.dirname(__file__), "cli_surface.json")) as fh:
    SURFACE = json.load(fh)

RUNS = [
    ("validate --cga samples/exterior.cga --complex samples/koszul2.cc "
     "--presentation samples/trefoil.pres",
     0, "1f1ab1df006c21f912a2323e146f46cd553eb86f4b1dfe372922fa698a11a32a"),
    ("jumploci --complex samples/koszul2.cc --i 1 --q 3 --ext 2 --torus",
     0, "c951bcb61a7a57a75f0438be7a35073a21b915334e7132bac269ab36ad30db3b"),
    ("supports --complex samples/augmentation.cc --i 1 --d 2 --q 5 --compare-v",
     0, "1a1b127138583cb626420d4ca68d42b17a42395be16cfcc31bcc3c388c58ef12"),
    ("resonance --cga samples/f4-pairing.cga --i 1 --ext 2",
     0, "42fafae157052a604f077f00fe7187d1908bfcf67fbbb77a4de1d0c2fb3e3643"),
    ("e1 --cga samples/exterior.cga --nu samples/identity-z2.nu --q 3",
     0, "fc0e8755e310176f496a52021a0921276dff21b10f8b3dc7ac47dd6bfb5fd6b2"),
    ("verify-cvres --cga samples/exterior.cga --nu samples/identity-z2.nu "
     "--i 0 --q 3",
     0, "495f7c3518f5835f140c25cc0798a3f7b17f83fc62a35615e06fbf6ad34a8a6e"),
    ("finiteness --cga samples/zero-pairing.cga --nu samples/identity-z2.nu "
     "--k 1 --q 3",
     0, "c33d217119af1d2da38cef5fd178ff4dc90df709dbd586cb01030534f4914e09"),
    ("alexander --presentation samples/central-square.pres "
     "--nu samples/onto-z.nu --q 5",
     0, "bf28636d3bd1e3fafc3a7754a7605657cfadecf7c81f8bfa8f602f909514d620"),
    ("charvar --presentation samples/central-square.pres "
     "--nu samples/onto-z.nu --i 1 --q 5 --ext 2",
     0, "209e1f437a892425b1bf0419f70706c4bafb37d876609ad4d4aff14d90d246a3"),
    ("genres-experiment --shape 1,2,1 --i 1 --trials 30 --q 3 --seed 7",
     0, "0b2511f89dfad2833247f1dea32dd992a69bd1082abec864ca4279b4c096c1a8"),
]


def _words(text):
    return " ".join(text.split())


@pytest.mark.parametrize("argv", sorted(SURFACE), ids=lambda a: a or "bare")
def test_help_and_usage_errors(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = SURFACE[argv]
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    got = capsys.readouterr()
    assert exc.value.code == want["code"]
    assert _words(got.out) == _words(want["stdout"])
    assert _words(got.err) == _words(want["stderr"])


@pytest.mark.parametrize("command, code, digest", RUNS,
                         ids=[r[0].split(" --")[0] for r in RUNS])
def test_structured_stdout_digest(command, code, digest, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(command.split() + ["--format", "structured"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bare_validate_is_an_error_report(capsys):
    assert main(["validate"]) == 2
    assert capsys.readouterr().out == (
        "command: validate\n"
        "error.message: validate needs --cga, --complex, or --presentation\n"
        "error.type: DocumentError\n")


# commands that enumerate points, run with no finite field:
# samples/exterior.cga is over Q, and a presentation or a shape names no field
REFUSALS = [
    ("resonance --cga samples/exterior.cga --i 1",
     "resonance enumeration needs --q"),
    ("verify-cvres --cga samples/exterior.cga --nu samples/identity-z2.nu "
     "--i 1", "verify-cvres enumerates points: pass --q"),
    ("finiteness --cga samples/exterior.cga --nu samples/identity-z2.nu "
     "--k 1", "the finiteness hypothesis is checked pointwise: pass --q"),
    ("charvar --presentation samples/trefoil.pres --nu samples/onto-z.nu "
     "--i 1", "this command needs a finite field: pass --q"),
    ("genres-experiment --shape 1,2,1 --i 1 --trials 3",
     "this command needs a finite field: pass --q"),
]


@pytest.mark.parametrize("command, message", REFUSALS,
                         ids=[c.split()[0] for c, _ in REFUSALS])
def test_enumerating_without_a_finite_field_is_an_error_report(
        command, message, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(command.split()) == 2
    assert capsys.readouterr().out == (
        "command: %s\nerror.message: %s\nerror.type: DocumentError\n"
        % (command.split()[0], message))


def _presented_xy(field):
    """A presented complex over field[x, y] whose d_1 does not preserve the
    relations: it sends y to y, outside (x)."""
    return json.dumps({
        "type": "presented-complex",
        "ring": {"field": field, "variables": ["x", "y"], "laurent": False},
        "terms": [{"gens": 1, "relations": [["x"]]},
                  {"gens": 1, "relations": [["y"]]}],
        "differentials": [[["1"]]]})


def test_validate_checks_the_complex_before_loading_the_presentation(
        capsys, tmp_path):
    # a complex over Q[x, y] needs a finite sample field, which is refused
    # before the malformed presentation is read
    cc, pres = tmp_path / "c.cc", tmp_path / "p.pres"
    cc.write_text(_presented_xy({"kind": "rationals"}))
    pres.write_text(json.dumps({"generators": 5}))
    argv = ["validate", "--complex", str(cc), "--presentation", str(pres),
            "--format", "structured"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "PreconditionError"
    assert "supply a finite sample field" in err["message"]
    assert main(argv + ["--q", "3"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "DocumentError"


def test_validate_samples_a_finite_field_document_over_its_own_field(
        capsys, tmp_path):
    # over F_3[x, y] the document's own field is the sample field, so no
    # --q is needed, and --q 3 gives the same report
    cc = tmp_path / "c.cc"
    cc.write_text(_presented_xy({"kind": "prime-field", "p": 3}))
    argv = ["validate", "--complex", str(cc), "--format", "structured"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["results"]["complex"] == {
        "ok": False, "location": [1],
        "message": "d_1 fails to preserve relations at point (0, 1)"}
    assert main(argv + ["--q", "3"]) == 1
    assert capsys.readouterr().out == out


@pytest.fixture()
def built(monkeypatch):
    """The names of the sub-parsers main builds, in order."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    return names


def test_a_named_command_builds_only_its_sub_parser(built, capsys, monkeypatch):
    # a well-formed argv is read off the tables and builds no sub-parser;
    # help and a usage error after a command build that command's alone
    monkeypatch.chdir(ROOT)
    assert main(RUNS[2][0].split()) == 0
    assert built == []
    with pytest.raises(SystemExit):
        main(["supports", "-h"])
    assert built == ["supports"]
    with pytest.raises(SystemExit) as exc:
        main(RUNS[2][0].split() + ["--bogus"])
    assert exc.value.code == 2
    assert built == ["supports"] * 2


@pytest.mark.parametrize("argv", [["--help"], [], ["bogus"], ["-h", "supports"]],
                         ids=["help", "bare", "unknown", "help-first"])
def test_help_bare_and_unknown_argv_build_every_sub_parser(argv, built, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    assert built == list(COMMANDS)


def test_main_without_argv_reads_sys_argv(built, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = RUNS[1][0].split() + ["--format", "structured"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["jumploci"] + argv)
    assert main() == 0
    assert capsys.readouterr().out == want
    assert built == []


def _canonical(name):
    """The items of a well-formed argv of `name`: every document and flag of
    its row, each with a value that passes the flag's type and choices."""
    return [["--" + option] if kw.get("action") == "store_true" else
            ["--" + option, kw["choices"][-1] if "choices" in kw
             else "1" if "type" in kw else "x." + option]
            for option, kw in _options(name).items()]


def _argv(name, items):
    return [name] + [token for item in items for token in item]


@pytest.mark.parametrize("argv", [r[0].split() for r in RUNS]
                         + [_argv(name, _canonical(name)) for name in COMMANDS],
                         ids=[r[0].split()[0] for r in RUNS]
                         + ["canonical-" + name for name in COMMANDS])
def test_a_well_formed_argv_takes_the_table_path(argv):
    args = _parse_plain(argv)
    assert args is not None
    assert vars(args) == vars(build_parser(argv).parse_args(argv))


# tokens and values that make an argv not well formed: help, the end of
# options, an abbreviation, --name=value, a short option, stray
# positionals, negative, empty and out-of-range values, bad choices and
# bad shapes
HOSTILE = ["-h", "--help", "--", "--comp", "--q=5", "--i=1", "-q", "x",
           "supports"]
VALUES = ["-1", "", "0", "2", "-", "x", "text", "json", "1,2,1", "1,,2",
          "a,b", " 3", "--i"]


@st.composite
def _argvs(draw):
    """A command, then items in any order: its own flags with valid values
    (a store_true flag alone) or with drawn ones; any flag or hostile
    token, with a drawn value or alone; and in half of the argvs every
    item of the canonical argv too, so that many are well formed and some
    repeat a flag."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    own = _canonical(name)
    every = sorted({"--" + option for command in COMMANDS
                    for option in _options(command)})
    token = st.sampled_from(every + HOSTILE)
    value = st.sampled_from(VALUES)
    item = st.one_of(st.sampled_from(own),
                     st.tuples(st.sampled_from([it[0] for it in own]),
                               value).map(list),
                     st.tuples(token, value).map(list),
                     token.map(lambda t: [t]))
    items = draw(st.lists(item, max_size=6))
    if draw(st.booleans()):
        items += own
    return _argv(name, draw(st.permutations(items)))


@settings(max_examples=800, deadline=None, derandomize=True)
@given(_argvs())
def test_the_table_path_agrees_with_argparse(argv):
    args = _parse_plain(argv)
    if args is None:
        return
    try:
        want = vars(build_parser(argv).parse_args(argv))
    except SystemExit:
        want = None
    assert vars(args) == want


# run in a fresh interpreter: import the CLI, run the argvs of sys.argv,
# print the modules main imported and which of argparse, gettext and locale
# are loaded
_FRESH = """
import io, json, sys
import jumploci.cli
before = set(sys.modules)
sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
codes = [jumploci.cli.main(argv.split()) for argv in sys.argv[1:]]
print(json.dumps([codes, sorted(set(sys.modules) - before),
                  sorted({"argparse", "gettext", "locale"} & set(sys.modules))]),
      file=sys.__stdout__)
"""


def test_a_report_loads_no_argparse_gettext_or_locale():
    import jumploci
    src = os.path.dirname(os.path.dirname(jumploci.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", _FRESH] + [r[0] for r in RUNS],
                       capture_output=True, text=True, cwd=ROOT,
                       env=dict(os.environ, PYTHONPATH=path))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [[code for _, code, _ in RUNS], [], []]


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    import jumploci
    src = os.path.dirname(os.path.dirname(jumploci.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, jumploci.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=path))
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
