import hashlib
import json
import os
import sys
import time

import pytest

from jumploci import cli, errors
from jumploci.cli import error_code, main

SAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "samples", "")


@pytest.fixture()
def docs(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    out = {}
    out["heis"] = write("heis.cga", {
        "type": "cga", "field": {"kind": "rationals"}, "dims": [1, 2, 1],
        "mult": []})
    out["ext"] = write("ext.cga", {
        "type": "cga", "field": {"kind": "rationals"}, "dims": [1, 2, 1],
        "mult": [[1, 1, 0, 1, [1]], [1, 1, 1, 0, [-1]]]})
    out["bad"] = write("bad.cga", {
        "type": "cga", "field": {"kind": "rationals"}, "dims": [1, 2, 1],
        "mult": [[1, 1, 0, 1, [1]], [1, 1, 1, 0, [1]]]})
    out["ex27"] = write("ex27.cc", {
        "type": "presented-complex",
        "ring": {"field": {"kind": "prime-field", "p": 5},
                 "variables": ["x"], "laurent": False},
        "terms": [{"gens": 1, "relations": [["x"]]},
                  {"gens": 1, "relations": [[]]}],
        "differentials": [[["1"]]]})
    out["nu2"] = write("nu2.nu", {
        "type": "nu", "b1": 2,
        "group": {"type": "group", "rank": 2, "torsion": []},
        "free_block": [[1, 0], [0, 1]], "torsion_blocks": []})
    out["tref"] = write("tref.pres", {
        "type": "presentation", "generators": ["a", "b"],
        "relators": ["a b a b^-1 a^-1 b^-1"]})
    out["nut"] = write("nut.nu", {
        "type": "nu", "b1": 2,
        "group": {"type": "group", "rank": 1, "torsion": []},
        "free_block": [[1, 1]], "torsion_blocks": []})
    out["tmp"] = tmp_path
    return out


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def test_jumploci_example(docs, capsys):
    code, out = run(capsys, "jumploci", "--complex", docs["ex27"],
                    "--i", "1", "--d", "1", "--q", "5", "--format",
                    "structured")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["by_extension"]["1"]["points"] == [[1], [2], [3], [4]]


def test_resonance_heisenberg_f3(docs, capsys):
    code, out = run(capsys, "resonance", "--cga", docs["heis"], "--i", "1",
                    "--d", "1", "--q", "3", "--format", "structured")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["results"]["by_extension"]["1"]["points"]) == 9


def test_validate_bad_cga_nonzero_exit(docs, capsys):
    code, out = run(capsys, "validate", "--cga", docs["bad"])
    assert code == 1
    assert "commutativity" in out
    # the first violating tuple is reported
    assert "location" in out


def test_validate_good_inputs(docs, capsys):
    code, out = run(capsys, "validate", "--cga", docs["ext"],
                    "--complex", docs["ex27"], "--presentation", docs["tref"])
    assert code == 0


def test_reports_are_byte_identical(docs, capsys):
    args = ("supports", "--complex", docs["ex27"], "--i", "1", "--d", "1",
            "--q", "5", "--compare-v", "--format", "structured")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2
    args2 = ("genres-experiment", "--shape", "1,2,1", "--i", "1", "--trials",
             "25", "--q", "5", "--seed", "3", "--format", "structured")
    _, out3 = run(capsys, *args2)
    _, out4 = run(capsys, *args2)
    assert out3 == out4


def test_reports_identical_across_hash_seeds(docs):
    # byte-identical output from separate interpreter processes with
    # different hash randomization
    import subprocess
    import sys

    import jumploci
    # the child imports the package the tests import, with or without
    # PYTHONPATH set by the caller
    src = os.path.dirname(os.path.dirname(jumploci.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    args = [sys.executable, "-m", "jumploci.cli", "genres-experiment",
            "--shape", "1,2,1", "--i", "1", "--trials", "30", "--q", "5",
            "--seed", "7", "--format", "structured"]
    outs = []
    for hash_seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        r = subprocess.run(args, capture_output=True, env=env)
        assert r.returncode == 0
        outs.append(r.stdout)
    assert outs[0] == outs[1] == outs[2]
    args2 = [sys.executable, "-m", "jumploci.cli", "supports", "--complex",
             docs["ex27"], "--i", "1", "--d", "1", "--q", "5", "--compare-v",
             "--format", "structured"]
    outs2 = []
    for hash_seed in ("0", "99"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        r = subprocess.run(args2, capture_output=True, env=env)
        assert r.returncode == 0
        outs2.append(r.stdout)
    assert outs2[0] == outs2[1]


def test_one_modulus_search_per_extension_field(capsys, monkeypatch):
    """A document over Q read under an extension --q is checked against
    the field --q built, which reads its modulus and g from the table: no
    search for either runs, no irreducibility test, and one build."""
    from jumploci import fields
    builds = []
    build = fields.ExtensionField._build_tables
    monkeypatch.setattr(fields, "_is_irreducible", None)
    monkeypatch.setattr(fields.ExtensionField, "_build_tables",
                        lambda F, g: builds.append(g) or build(F, g))
    code, _ = run(capsys, "jumploci", "--complex", SAMPLES + "koszul3.cc",
                  "--i", "1", "--d", "1", "--q", "64")
    assert code == 0
    assert builds == [fields._tabled(2, 6)[1]]


def test_supports_compare_v(docs, capsys):
    code, out = run(capsys, "supports", "--complex", docs["ex27"], "--i", "1",
                    "--d", "1", "--q", "5", "--compare-v", "--format",
                    "structured")
    assert code == 0
    rep = json.loads(out)
    cmp1 = rep["results"]["compare_v"]["1"]
    assert cmp1["support_union"] == [[0], [1], [2], [3], [4]]
    assert cmp1["jump_union"] == [[1], [2], [3], [4]]
    assert cmp1["equal"] is False  # the designed counterexample
    assert rep["results"]["by_extension"]["1"]["points"] == [
        [0], [1], [2], [3], [4]]


@pytest.mark.parametrize("d, calls", [(1, 2 + 2 * 1), (2, 2 + 2 * 2)])
def test_supports_compare_v_reuses_the_printed_support(d, calls, docs,
                                                       capsys, monkeypatch):
    # with --ext 2 and i = 1: one support locus per extension for the
    # by_extension block, then the union of degrees 0 and 1 at depth 1 per
    # extension, whose degree-1 term is that block's locus when d = 1
    taken = []
    real = cli.support_points

    def spied(E, i, d, *args, **kwargs):
        taken.append((i, d))
        return real(E, i, d, *args, **kwargs)
    argv = ("supports", "--complex", docs["ex27"], "--i", "1", "--d", str(d),
            "--q", "5", "--ext", "2", "--compare-v", "--format", "structured")
    want = run(capsys, *argv)
    monkeypatch.setattr(cli, "support_points", spied)
    assert run(capsys, *argv) == want
    assert len(taken) == calls, taken


def test_e1_round_trip_through_jumploci(docs, capsys, tmp_path):
    code, out = run(capsys, "e1", "--cga", docs["ext"], "--nu", docs["nu2"],
                    "--q", "3", "--format", "structured")
    assert code == 0
    rep = json.loads(out)
    page = tmp_path / "page.cc"
    page.write_text(json.dumps(rep["complex"]))
    code2, out2 = run(capsys, "jumploci", "--complex", str(page), "--i", "1",
                      "--d", "1", "--q", "3", "--format", "structured")
    assert code2 == 0
    rep2 = json.loads(out2)
    assert rep2["results"]["by_extension"]["1"]["points"] == [[0, 0]]
    # emitted document re-parses to an equal complex
    from jumploci.documents import load_complex
    assert load_complex(rep["complex"]).differentials == \
        load_complex(json.loads(json.dumps(rep["complex"]))).differentials


def test_verify_cvres_cli(docs, capsys):
    code, out = run(capsys, "verify-cvres", "--cga", docs["ext"], "--nu",
                    docs["nu2"], "--i", "1", "--d", "1", "--q", "3",
                    "--format", "structured")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["equal"] is True


def test_finiteness_cli(docs, capsys):
    code, out = run(capsys, "finiteness", "--cga", docs["ext"], "--nu",
                    docs["nu2"], "--k", "2", "--q", "5", "--format",
                    "structured")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["hypothesis_holds"] is True
    assert rep["results"]["e2_dims"]["0"]["dim"] == 1


def test_alexander_and_charvar_cli(docs, capsys):
    code, out = run(capsys, "alexander", "--presentation", docs["tref"],
                    "--nu", docs["nut"], "--format", "structured")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["finiteness"] == {"kind": "finite", "dim": 2,
                                            "note": "Smith divisor degrees"}
    code2, out2 = run(capsys, "charvar", "--presentation", docs["tref"],
                      "--nu", docs["nut"], "--i", "1", "--d", "1", "--q", "7",
                      "--format", "structured")
    assert code2 == 0
    rep2 = json.loads(out2)
    assert rep2["results"]["by_extension"]["1"]["points"] == [[1], [3], [5]]


def test_field_mismatch_rejected(docs, capsys, tmp_path):
    doc = {"type": "cga", "field": {"kind": "prime-field", "p": 3},
           "dims": [1, 2, 1], "mult": []}
    p = tmp_path / "f3.cga"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "resonance", "--cga", str(p), "--i", "1",
                    "--d", "1", "--q", "5")
    assert code == 2
    assert "error" in out


def test_error_report_is_structured(docs, capsys):
    code, out = run(capsys, "jumploci", "--complex", "/nonexistent.cc",
                    "--i", "1", "--d", "1", "--q", "3", "--format",
                    "structured")
    assert code == 2
    rep = json.loads(out)
    assert rep["error"]["type"] == "DocumentError"


def _write(tmp_path, name, doc):
    """Write `doc` as JSON to tmp_path/name, or verbatim when a string."""
    p = tmp_path / name
    p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(p)


def test_zero_denominators_are_parse_errors(capsys, tmp_path):
    def complex_doc(entry):
        return {"type": "free-complex",
                "ring": {"field": {"kind": "rationals"}, "variables": ["x"]},
                "ranks": [1, 1], "differentials": [[[entry]]]}

    fifth = _write(tmp_path, "fifth.cc", complex_doc("x - 1/5"))
    zero = _write(tmp_path, "zero.cc", complex_doc("x - 1/0"))
    cga = _write(tmp_path, "zero.cga", {
        "type": "cga", "field": {"kind": "rationals"}, "dims": [1, 2, 1],
        "mult": [[1, 1, 0, 1, ["1/0"]], [1, 1, 1, 0, [-1]]]})
    for argv in (["jumploci", "--complex", fifth, "--i", "0", "--q", "5"],
                 ["jumploci", "--complex", zero, "--i", "0", "--q", "7"],
                 ["resonance", "--cga", cga, "--i", "1", "--q", "5"]):
        code, out = run(capsys, *argv, "--format", "structured")
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "ParseError"
        assert "zero denominator" in err["message"]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on integer string conversion")
@pytest.mark.parametrize("entry,error", [
    ("9" * 5001, "DocumentError"),
    ('"%s"' % ("9" * 5001), "ParseError"),
    ('"x^%s"' % ("9" * 5000), "ParseError"),
    ('"1/%s"' % ("3" * 5000), "ParseError"),
], ids=["json-integer", "entry", "exponent", "denominator"])
def test_over_long_integers_give_error_reports(entry, error, capsys,
                                               tmp_path):
    # JSON text written by hand: json.dumps cannot write the bare integer
    path = tmp_path / "long.cc"
    path.write_text(
        '{"type": "free-complex", "ring": {"field": {"kind": "rationals"}, '
        '"variables": ["x"]}, "ranks": [1, 1], "differentials": [[[%s]]]}'
        % entry)
    code, out = run(capsys, "jumploci", "--complex", str(path), "--i", "0",
                    "--q", "5", "--format", "structured")
    assert code == 2
    assert json.loads(out)["error"]["type"] == error


def test_undecodable_document_is_a_document_error(capsys, tmp_path):
    path = tmp_path / "bytes.cc"
    path.write_bytes(b'{"ranks": [1], "note": "\xff"}')
    code, out = run(capsys, "jumploci", "--complex", str(path), "--i", "0",
                    "--format", "structured")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DocumentError"


@pytest.mark.parametrize("argv", [
    ["jumploci", "--complex", "x.cc", "--i", "1", "--q", "5", "--ext", "0"],
    ["jumploci", "--complex", "x.cc", "--i", "-3", "--q", "5"],
    ["finiteness", "--cga", "x.cga", "--nu", "x.nu", "--k", "-1"],
    ["genres-experiment", "--shape", "1,2,1", "--i", "1", "--trials", "-1",
     "--q", "5"],
    ["genres-experiment", "--shape", "1,-2,1", "--i", "1", "--trials", "1",
     "--q", "5"],
    ["jumploci", "--complex", "x.cc", "--i", "1", "--d", "-1", "--q", "5"],
    ["supports", "--complex", "x.cc", "--i", "1", "--d", "-1", "--q", "5"],
    ["resonance", "--cga", "x.cga", "--i", "1", "--d", "-1", "--q", "5"],
    ["verify-cvres", "--cga", "x.cga", "--nu", "x.nu", "--i", "1", "--d", "-2",
     "--q", "5"],
    ["genres-experiment", "--shape", "1,2,1", "--i", "1", "--trials", "0",
     "--q", "5"],
])
def test_out_of_range_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least" in err
    assert "Traceback" not in err


def test_main_calls_the_handler_the_module_holds(capsys, monkeypatch):
    # a wrapper set on the module attribute (as a tracer sets one) is the
    # handler main calls, with the documents of the command loaded
    calls = []

    def spy(args, A):
        calls.append((args.i, A.dims))
        return {"results": {}}, 0
    monkeypatch.setattr(cli, "cmd_resonance", spy)
    code, out = run(capsys, "resonance", "--cga", SAMPLES + "exterior.cga",
                    "--i", "1", "--q", "3")
    assert code == 0 and calls == [(1, (1, 2, 1))]
    assert out.startswith("command: resonance\nprovenance: ")


@pytest.mark.parametrize("argv", [
    ["supports", "--complex", SAMPLES + "koszul2.cc", "--i", "1", "--q", "3"],
    ["finiteness", "--cga", SAMPLES + "exterior.cga", "--nu",
     SAMPLES + "identity-z2.nu", "--k", "1", "--q", "5"],
    ["alexander", "--presentation", SAMPLES + "trefoil.pres", "--nu",
     SAMPLES + "onto-z.nu"],
])
@pytest.mark.parametrize("flag", ["--max-degree", "--max-vars"])
def test_groebner_bounds_are_not_flags(argv, flag, capsys):
    # the desk-scale bounds are constants of the Groebner engine
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


def test_supports_reports_nonzero_square(capsys, tmp_path):
    # d_1 d_2 = x: the image of d_2 is not inside ker d_1
    path = _write(tmp_path, "square.cc", {
        "type": "free-complex",
        "ring": {"field": {"kind": "prime-field", "p": 3},
                 "variables": ["x", "y"]},
        "ranks": [1, 2, 1], "differentials": [[["x", "y"]], [["1"], ["0"]]]})
    code, out = run(capsys, "supports", "--complex", path, "--i", "1",
                    "--format", "structured")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "PreconditionError",
        "message": "image column 0 of d_2 is not inside ker d_1; "
                   "the complex does not satisfy d.d = 0"}


def test_resonance_extensions_of_a_finite_document(docs, capsys, tmp_path):
    f5 = _write(tmp_path, "ext5.cga", {
        "type": "cga", "field": {"kind": "prime-field", "p": 5},
        "dims": [1, 2, 1], "mult": [[1, 1, 0, 1, [1]], [1, 1, 1, 0, [4]]]})
    reports = []
    for argv in (["--cga", f5], ["--cga", f5, "--q", "5"],
                 ["--cga", docs["ext"], "--q", "5"]):
        code, out = run(capsys, "resonance", *argv, "--i", "1", "--ext", "2",
                        "--format", "structured")
        assert code == 0
        reports.append(json.loads(out)["results"])
    assert reports[0]["by_extension"]["2"]["field_order"] == 25
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["by_extension"]["2"]["points"] == [["0", "0"]]


def test_jumploci_builds_the_q_field_once(capsys, tmp_path, monkeypatch):
    from jumploci import fields
    path = _write(tmp_path, "f256.cc", {
        "type": "free-complex",
        "ring": {"field": {"kind": "extension-field", "p": 2, "m": 8},
                 "variables": ["x"]},
        "ranks": [1, 1], "differentials": [[["x - u"]]]})
    builds = []
    init = fields.ExtensionField.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fields.ExtensionField, "__init__", counting_init)
    code, out = run(capsys, "jumploci", "--complex", path, "--i", "0",
                    "--q", "256", "--format", "structured")
    assert code == 0
    assert json.loads(out)["results"]["by_extension"]["1"]["points"] == [["u"]]
    assert builds == [(2, 8)]


NON_OBJECT_RING = {"type": "free-complex", "ring": 5, "ranks": [1, 1],
                   "differentials": [[["x"]]]}
NON_OBJECT_FIELD = {"type": "cga", "field": 7, "dims": [1, 1]}
RING_X = {"field": {"kind": "prime-field", "p": 5}, "variables": ["x"]}
CGA_Q = {"type": "cga", "field": {"kind": "rationals"}, "dims": [1, 2, 1]}


def _load_argv(doc, path):
    """A command that loads `doc` from `path`: resonance for an algebra,
    jumploci for anything else."""
    if isinstance(doc, dict) and doc["type"] == "cga":
        return ("resonance", "--cga", path, "--i", "0")
    return ("jumploci", "--complex", path, "--i", "0")


@pytest.mark.parametrize("doc,error", [
    ({"type": "free-complex",
      "ring": {"field": {"kind": "rationals"}, "variables": ["x"]},
      "ranks": [1, 1], "differentials": [[["x - 1/"]]]}, "ParseError"),
    ({"type": "free-complex", "ranks": [1, 1], "differentials": [[["x"]]]},
     "DocumentError"),
    ({"type": "free-complex",
      "ring": {"field": {"kind": "extension-field", "p": 2, "m": 18},
               "variables": ["x"]},
      "ranks": [1, 1], "differentials": [[["x"]]]}, "ResourceLimitError"),
    ([1, 2], "DocumentError"),
    (NON_OBJECT_RING, "DocumentError"),
    (NON_OBJECT_FIELD, "DocumentError"),
    # values of the wrong JSON type or out of range
    (dict(NON_OBJECT_RING, ring=RING_X, ranks=[1, 2, {}]), "DocumentError"),
    (dict(NON_OBJECT_RING, ring=dict(RING_X, variables=[[], "y"])),
     "DocumentError"),
    (dict(NON_OBJECT_RING, ring=dict(RING_X, field={"kind": "prime-field",
                                                    "p": {}})),
     "DocumentError"),
    ({"type": "presented-complex", "ring": RING_X, "terms": None},
     "DocumentError"),
    (dict(CGA_Q, mult=None), "DocumentError"),
    (dict(CGA_Q, mult=[[1, 5, 1, 0, [-1]]]), "DocumentError"),
    (dict(CGA_Q, mult=[[0, 1, 0, 0, [1]]]), "DocumentError"),
    # nested past the recursion limit: an entry in 1200 parentheses, and a
    # ring of 100 000 nested arrays, which json.load cannot read
    (dict(NON_OBJECT_RING, ring=RING_X,
          differentials=[[["(" * 1200 + "x" + ")" * 1200]]]),
     "ResourceLimitError"),
    pytest.param('{"type": "free-complex", "ring": %s}'
                 % ("[" * 100000 + "]" * 100000), "DocumentError",
                 id="doc14-DocumentError"),
])
def test_malformed_documents_give_error_reports(doc, error, capsys, tmp_path):
    path = _write(tmp_path, "bad.cc", doc)
    code, out = run(capsys, *_load_argv(doc, path), "--q", "5",
                    "--format", "structured")
    assert code == (3 if error == "ResourceLimitError" else 2)
    assert json.loads(out)["error"]["type"] == error


def test_non_object_ring_or_field_without_q(capsys, tmp_path):
    # without --q the document's own ring and field are read
    for doc in (NON_OBJECT_RING, NON_OBJECT_FIELD):
        path = _write(tmp_path, "bad.cc", doc)
        code, out = run(capsys, *_load_argv(doc, path), "--format", "structured")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DocumentError"


def test_field_above_the_cap_is_an_error_report(capsys):
    code, out = run(capsys, "charvar", "--presentation", SAMPLES + "trefoil.pres",
                    "--nu", SAMPLES + "onto-z.nu", "--i", "1", "--q", "512",
                    "--ext", "2", "--format", "structured")
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "ResourceLimitError"
    assert "F_2^18" in err["message"] and "_TABLE_CAP" in err["message"]


@pytest.mark.parametrize("relator,error", [
    ("a^x b", "ParseError"),
    ("a^ b", "ParseError"),
    ("a^2^3 b", "ParseError"),
    ("a^10001 b", "ResourceLimitError"),
])
def test_bad_relator_exponents_give_error_reports(relator, error, capsys,
                                                  tmp_path):
    # 10001 is one letter past fox.MAX_RELATOR_LENGTH
    path = _write(tmp_path, "bad.pres", {
        "type": "presentation", "generators": ["a", "b"],
        "relators": [relator]})
    code, out = run(capsys, "alexander", "--presentation", path, "--nu",
                    SAMPLES + "onto-z.nu", "--format", "structured")
    assert code == (3 if error == "ResourceLimitError" else 2)
    assert json.loads(out)["error"]["type"] == error


def test_alexander_names_a_relator_nu_does_not_kill(capsys):
    code, out = run(capsys, "alexander", "--presentation",
                    SAMPLES + "trefoil.pres", "--nu", SAMPLES + "identity-z2.nu",
                    "--format", "structured")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "PreconditionError",
        "message": "nu sends the relator a b a b^-1 a^-1 b^-1 to [1, -1] in "
                   "Z^2, not to 0; nu must kill every relator"}


@pytest.mark.parametrize("q", ["4", "7"])
def test_charvar_points_are_characters(q, capsys):
    # a character takes unit values: no printed coordinate is 0, over F_q
    # or over F_{q^2} (where F_4 -> F_16 goes through an embedding)
    code, out = run(capsys, "charvar", "--presentation",
                    SAMPLES + "trefoil.pres", "--nu", SAMPLES + "onto-z.nu",
                    "--i", "1", "--q", q, "--ext", "2", "--format",
                    "structured")
    assert code == 0
    by_ext = json.loads(out)["results"]["by_extension"]
    assert sorted(by_ext) == ["1", "2"]
    for block in by_ext.values():
        assert block["points"]
        assert all(c not in (0, "0") for p in block["points"] for c in p)


@pytest.mark.parametrize("q", ["0", "1"])
def test_alexander_refuses_a_field_order_below_two(q, capsys):
    # --q 0 is a field order like any other, not a request for Q
    code, out = run(capsys, "alexander", "--presentation",
                    SAMPLES + "trefoil.pres", "--nu", SAMPLES + "onto-z.nu",
                    "--q", q, "--format", "structured")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "PreconditionError",
        "message": "field order must be at least 2, got %s" % q}


def test_alexander_presentation_past_a_bound_is_an_error_report(
        capsys, tmp_path, monkeypatch):
    # H_1 of Z^2 = <a, b | [a, b]> over k[t1^±1, t2^±1] needs a Groebner
    # basis; with no degree allowed, the presentation is refused, never
    # printed as a zero module
    from jumploci import groebner
    monkeypatch.setattr(groebner, "ENGINE_MAX_DEGREE", 0)
    path = _write(tmp_path, "z2.pres", {
        "type": "presentation", "generators": ["a", "b"],
        "relators": ["a b a^-1 b^-1"]})
    code, out = run(capsys, "alexander", "--presentation", path, "--nu",
                    SAMPLES + "identity-z2.nu", "--format", "structured")
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "ResourceLimitError",
        "message": "intermediate degree exceeds the desk-scale bound 0"}


def test_shape_that_is_not_integers_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["genres-experiment", "--shape", "a,b", "--i", "1", "--trials",
              "1", "--q", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid int value: 'a'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("d", ["0", "1"])
def test_resonance_ideal_cuts_out_the_printed_points(d, capsys):
    from jumploci.fields import finite_field
    from jumploci.rings import Ideal, Ring, parse_poly
    from jumploci.varieties import zero_locus_points
    code, out = run(capsys, "resonance", "--cga", SAMPLES + "exterior.cga",
                    "--i", "1", "--d", d, "--q", "3", "--format", "structured")
    assert code == 0
    res = json.loads(out)["results"]
    ring = Ring(finite_field(3), ("a1", "a2"))
    ideal = Ideal(ring, [parse_poly(ring, g) for g in res["ideal"]])
    locus = sorted(list(p) for p in zero_locus_points(ideal))
    assert locus == res["by_extension"]["1"]["points"]
    assert (res["ideal"] == []) == (d == "0")


def test_broken_invariant_is_an_internal_error_report(capsys, monkeypatch):
    # a locus that is not scaling-invariant breaks the cone check
    from jumploci import cga
    monkeypatch.setattr(cga, "jump_locus_points",
                        lambda E, i, d, field: {(1, 0)})
    code, out = run(capsys, "resonance", "--cga", SAMPLES + "exterior.cga",
                    "--i", "1", "--q", "3", "--format", "structured")
    assert code == 4
    assert json.loads(out)["error"] == {
        "type": "InternalError", "message": "resonance locus is not a cone"}


@pytest.mark.parametrize("doc, q", [("augmentation.cc", ["--q", "5"]),
                                    ("koszul2.cc", [])])
def test_compare_v_presents_each_degree_once(doc, q, capsys, monkeypatch):
    # the support union and the printed support share one cached
    # presentation per degree, for presented complexes as for free ones:
    # the syzygy route behind homology_presentation runs once per degree
    from jumploci import complexes
    present = complexes._presented_homology_presentation
    calls = []

    def counting(E, i):
        calls.append(i)
        return present(E, i)

    monkeypatch.setattr(complexes, "_presented_homology_presentation",
                        counting)
    code, _ = run(capsys, "supports", "--complex", SAMPLES + doc, "--i", "1",
                  *q, "--compare-v", "--ext", "2")
    assert code == 0
    assert sorted(calls) == [0, 1]


def test_compare_v_union_of_a_rational_complex_at_q17(capsys, tmp_path):
    # stdout digest recorded while the jump union was still read from all
    # homology dimensions point by point; at q = 17 it is now the union of
    # fibered jump loci
    path = _write(tmp_path, "rational.cc", {
        "type": "free-complex",
        "ring": {"field": {"kind": "rationals"}, "variables": ["x", "y"]},
        "ranks": [2, 3, 1],
        "differentials": [[["x^2 - 2", "y - 3", "0"], ["0", "0", "x - y"]],
                          [["3 - y"], ["x^2 - 2"], ["0"]]]})
    code, out = run(capsys, "supports", "--complex", path, "--i", "1",
                    "--q", "17", "--compare-v")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8a5d2908d5670682cd7d346daebbc8718248fddd4e1e6fda08e36327f18e98aa")


@pytest.mark.parametrize("error, code", [
    (errors.DocumentError, 2), (errors.ParseError, 2),
    (errors.PreconditionError, 2), (errors.UnsupportedRingError, 2),
    (errors.ResourceLimitError, 3), (errors.InternalError, 4)])
def test_each_kind_of_error_has_its_exit_code(error, code):
    # 0 is ok and 1 a false verdict, so no error report exits 0 or 1
    assert error_code(error("message")) == code


def test_a_closed_stdout_ends_the_report_without_a_traceback():
    # a reader that closes the pipe after the first bytes of a 200 kB
    # report, as `| head` does: exit code 5, and no traceback on stderr,
    # neither from the report's writes nor from the final flush
    import subprocess

    import jumploci
    src = os.path.dirname(os.path.dirname(jumploci.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "jumploci.cli", "resonance", "--cga",
         SAMPLES + "two-tori.cga", "--i", "1", "--d", "1", "--q", "7",
         "--format", "structured"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path))
    assert child.stdout.read(64).startswith(b"{")
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait() == 5
    assert b"Traceback" not in err and b"Error" not in err, err
    assert err.startswith(b"elapsed: ")


@pytest.mark.parametrize("q", [3, 5, 16, 17])
def test_supports_compare_v_matches_the_fitting_oracle(q, capsys, tmp_path):
    # the complexes of the benchmark's symbolic supports reports, over F_q:
    # printed supports and support unions against V(Fitt_0) of each degree.
    from jumploci.cli import point_list
    from jumploci.complexes import fitting_ideal, homology_presentation
    from jumploci.corpus import random_free_complex
    from jumploci.documents import dump_complex
    from jumploci.fields import finite_field
    from jumploci.rings import Ring
    from jumploci.varieties import zero_locus_points
    F = finite_field(q)
    for seed in range(10):
        E = random_free_complex(Ring(F, ("x", "y")), seed, max_rank=4)
        path = tmp_path / ("free-%d.cc" % seed)
        path.write_text(json.dumps(dump_complex(E)))
        code, out = run(capsys, "supports", "--complex", str(path), "--i",
                        "1", "--compare-v", "--format", "structured")
        assert code == 0
        res = json.loads(out)["results"]
        oracle = [zero_locus_points(
            fitting_ideal(homology_presentation(E, j), 0), F)
            for j in (0, 1)]
        assert res["by_extension"]["1"]["points"] == point_list(F, oracle[1])
        assert (res["compare_v"]["1"]["support_union"]
                == point_list(F, oracle[0] | oracle[1]))


def _each_coordinate(field, pts):
    """point_list as one dump_scalar call per coordinate, the reference."""
    from jumploci.documents import dump_scalar
    return sorted([[dump_scalar(field, c) for c in p] for p in pts])


def _point_sets():
    from fractions import Fraction
    from itertools import product
    from jumploci.fields import PrimeField, Rationals, finite_field
    from jumploci.varieties import Space
    Q, F7, F9, F16 = (Rationals(), PrimeField(7), finite_field(9),
                      finite_field(16))
    half, three = Fraction(1, 2), Fraction(3)

    def space(F, r, torus=False):
        # the bucket path of its tuples, and the product order of a Space
        return [(F, set(product(F.units() if torus else F.elements(),
                                repeat=r))), (F, Space(F, r, torus))]
    return [
        (Q, {(half, three), (Fraction(-1, 3), three), (half, Fraction(7))}),
        (Q, {(three, three)}),
        *space(F7, 2),
        (F7, {(3, 3, 3), (3, 0, 3), (0, 3, 6)}),
        (F7, set()),
        *space(F9, 2),
        (F16, {(5, 5), (5, 11), (11, 5), (0, 5)}),
        *space(F16, 1),
        (F7, {()}),
        *space(F7, 0), *space(F7, 0, True),
        *space(F7, 1), *space(F7, 3),
        *space(F7, 1, True), *space(F7, 2, True), *space(F7, 3, True),
        *space(F9, 2, True),
        *space(F16, 2), *space(F16, 1, True), *space(F16, 2, True),
        # (q - 1)^r points that are not the torus, and q^r - 1 points
        (F7, set(product(range(6), repeat=2))),
        (F16, set(product(range(16), repeat=2)) - {(0, 0)}),
    ]


@pytest.mark.parametrize("field, pts", _point_sets())
def test_point_list_matches_the_per_coordinate_conversion(field, pts):
    assert cli.point_list(field, pts) == _each_coordinate(field, pts)


def test_a_whole_plane_is_counted_and_printed_without_its_points():
    # H_1 of the zero-pairing page is 1-dimensional or more everywhere: at
    # q = 1009, computing and printing its 1018081 rows held all of them
    # as tuples (87-91 MB traced), and at q = 1000003 the locus holds 10^12
    # points, which are counted only after the smaller case has passed
    import tracemalloc

    from jumploci.complexes import jump_locus_points
    from jumploci.documents import load_document
    from jumploci.fields import finite_field

    def locus(q):
        F = finite_field(q)
        E = load_document(SAMPLES + "zero-pairing-page.cc", "complex",
                          field_override=F)
        return F, jump_locus_points(E, 1, 1, F)
    written = [0]

    def discard(text):
        written[0] += len(text)
    tracemalloc.start()
    try:
        cli.Locus(*locus(1009)).write_json("\n", discard)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert written[0] > 10 * 1009 ** 2
    started = time.perf_counter()
    assert len(locus(1000003)[1]) == 1000003 ** 2
    assert time.perf_counter() - started < 1


def test_a_structured_report_builds_no_list_of_rows(capsys, monkeypatch):
    # each locus reaches the writer as its point set, and is streamed from
    # it: no list of row lists is built, and none is handed to the writer
    from jumploci import documents
    built, handed = [], []
    write = documents._write

    def spy_write(value, nl, out):
        if isinstance(value, list) and value and all(
                isinstance(row, (list, tuple)) for row in value):
            handed.append(value)
        write(value, nl, out)
    monkeypatch.setattr(cli, "point_list",
                        lambda *args: built.append("point_list"))
    monkeypatch.setattr(documents, "_write", spy_write)
    code, out = run(capsys, "jumploci", "--complex",
                    SAMPLES + "plane-curves.cc", "--i", "1", "--q", "17",
                    "--ext", "2", "--format", "structured")
    assert code == 0
    assert built == [] and handed == []
    points = json.loads(out)["results"]["by_extension"]["2"]["points"]
    assert len(points) > 3


def test_zero_variable_locus_prints_the_empty_point(capsys, tmp_path):
    # F_5^0 is one point, the empty tuple; H_0 of [0] : F_5 -> F_5 is 1
    # there, so the locus is that point and prints as [[]]
    path = _write(tmp_path, "point.cc", {
        "type": "free-complex",
        "ring": {"field": {"kind": "prime-field", "p": 5}, "variables": []},
        "ranks": [1, 1], "differentials": [[["0"]]]})
    code, out = run(capsys, "jumploci", "--complex", path, "--i", "0",
                    "--format", "structured")
    assert code == 0
    assert json.loads(out)["results"]["by_extension"]["1"]["points"] == [[]]
    assert '"points": [\n          []\n        ]' in out


@pytest.mark.parametrize("field, entry", [
    ({"kind": "prime-field", "p": 7}, "(x + y + 1)^300"),
    ({"kind": "prime-field", "p": 7}, "(x + 1)^20000"),
    ({"kind": "rationals"}, "2^3000000000"),
])
def test_a_power_past_the_parser_bound_is_an_error_report(field, entry, capsys,
                                                          tmp_path):
    # the first two ran for 5 s and over 30 s, the third ended in a
    # MemoryError; the document over Q is read over Q, without --q
    path = _write(tmp_path, "power.cc", {
        "type": "free-complex",
        "ring": {"field": field, "variables": ["x", "y"]},
        "ranks": [1, 1], "differentials": [[[entry]]]})
    code, out = run(capsys, "jumploci", "--complex", path, "--i", "0",
                    "--format", "structured")
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "ResourceLimitError"
    assert "MAX_POWER_SIZE" in err["message"]


def test_running_out_of_memory_is_an_error_report(capsys, tmp_path):
    # over a prime near 10^18 the fibered route lists the q points of a
    # line, which cannot be held: a resource limit, not a traceback
    path = _write(tmp_path, "line.cc", {
        "type": "free-complex",
        "ring": {"field": {"kind": "rationals"}, "variables": ["x"]},
        "ranks": [1, 1], "differentials": [[["x - 1"]]]})
    code = main(["jumploci", "--complex", path, "--i", "0", "--q",
                 "1000000000000000003", "--format", "structured"])
    out, err = capsys.readouterr()
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "ResourceLimitError",
        "message": "out of memory computing the report"}
    assert "Traceback" not in err and err.startswith("elapsed: ")


def test_a_whole_plane_too_large_to_list_is_an_error_report(capsys):
    # the zero-pairing page's locus is all of F_q^2, whose pool cannot be
    # listed over a prime near 10^18: it is listed while the command runs,
    # so the MemoryError is a report, and no line of the locus is printed
    code = main(["jumploci", "--complex", SAMPLES + "zero-pairing-page.cc",
                 "--i", "1", "--d", "1", "--q", "1000000000000000003"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ("command: jumploci\n"
                   "error.message: out of memory computing the report\n"
                   "error.type: ResourceLimitError\n")
    assert "Traceback" not in err and err.startswith("elapsed: ")


def test_comparing_two_whole_planes_too_large_to_list_is_an_error_report(
        capsys):
    # both sides of verify-cvres are all of F_q^2, q^2 >= 2^63: they are
    # compared as Spaces, with no len() of either, and the listing of the
    # pool while the command runs is a report, as under jumploci
    code = main(["verify-cvres", "--cga", SAMPLES + "zero-pairing.cga",
                 "--nu", SAMPLES + "identity-z2.nu", "--i", "1",
                 "--q", "1000000000000000003"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ("command: verify-cvres\n"
                   "error.message: out of memory computing the report\n"
                   "error.type: ResourceLimitError\n")
    assert "Traceback" not in err and err.startswith("elapsed: ")


def test_a_union_that_holds_a_space_is_that_space(monkeypatch):
    # both unions of supports --compare-v over the zero-pairing page hold
    # the whole plane, so each is that Space, printed in product order,
    # with the rows the set of its points prints
    from jumploci.fields import finite_field
    from jumploci.varieties import Space
    reports = []
    monkeypatch.setattr(cli, "emit",
                        lambda report, args, out=None: reports.append(report))
    assert main(["supports", "--complex", SAMPLES + "zero-pairing-page.cc",
                 "--i", "1", "--d", "1", "--q", "5", "--compare-v"]) == 0
    compared = reports[0]["results"]["compare_v"]["1"]
    F = finite_field(5)
    for key in ("support_union", "jump_union"):
        union = compared[key].points
        assert type(union) is Space and len(union) == 25
        assert cli.point_list(F, union) == cli.point_list(F, set(union))
    assert compared["equal"] is True


def test_a_huge_prime_q_is_factored_without_trial_division(capsys):
    # a prime near 10^18: the F_3 document cannot be read over it, which is
    # reported at once, where trial division of q ran for many seconds
    started = time.perf_counter()
    code, out = run(capsys, "jumploci", "--complex", SAMPLES + "koszul2.cc",
                    "--i", "0", "--q", "1000000000000000003",
                    "--format", "structured")
    assert time.perf_counter() - started < 5
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "DocumentError"
    assert "F1000000000000000003" in err["message"]
