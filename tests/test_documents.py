import io
import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from jumploci.cga import pairing_cga
from jumploci.cli import Locus, _render_text, point_list
from jumploci.documents import (dump, dump_cga, dump_complex, dump_field,
                                dump_group, dump_nu, dump_presentation,
                                dump_scalar, dumps, load_cga,
                                load_complex, load_document, load_field,
                                load_group, load_nu, load_presentation)
from jumploci.equivariant import FinAbGroup, NuData
from jumploci.errors import DocumentError
from jumploci.fields import PrimeField, Rationals, finite_field
from jumploci.fox import GroupPresentation, alexander_complex
from jumploci.matrices import Matrix
from jumploci.rings import Ring

Q = Rationals()
F5 = PrimeField(5)


def test_field_round_trip():
    for F in (Rationals(), PrimeField(7), finite_field(9)):
        assert load_field(dump_field(F)) == F


def test_free_complex_round_trip():
    R = Ring(F5, ("x", "y"))
    x, y = R.var(0), R.var(1)
    from jumploci.complexes import FreeChainComplex
    E = FreeChainComplex(R, (1, 2, 1),
                         (Matrix(R, 1, 2, [[x, y]]),
                          Matrix(R, 2, 1, [[-y], [x]])))
    doc = dump_complex(E)
    E2 = load_complex(json.loads(json.dumps(doc)))
    assert E2.ring == E.ring
    assert E2.ranks == E.ranks
    assert E2.differentials == E.differentials


def test_laurent_complex_round_trip():
    P = GroupPresentation(("a", "b"), ["a b a b^-1 a^-1 b^-1"])
    nu = NuData(2, [[1, 1]], (), FinAbGroup(1))
    E = alexander_complex(P, nu, F5)
    doc = dump_complex(E)
    E2 = load_complex(doc)
    assert E2.differentials == E.differentials
    assert E2.ring.laurent


def test_presented_complex_round_trip():
    from jumploci.complexes import ModulePresentation, PresentedChainComplex
    R = Ring(F5, ("x",))
    e0 = ModulePresentation(R, 1, Matrix(R, 1, 1, [[R.var(0)]]))
    e1 = ModulePresentation(R, 1, Matrix(R, 1, 0, [[]]))
    E = PresentedChainComplex(R, (e0, e1), (Matrix(R, 1, 1, [[R.one()]]),))
    doc = dump_complex(E)
    E2 = load_complex(doc)
    assert isinstance(E2, PresentedChainComplex)
    assert E2.terms[0].relations == e0.relations
    assert E2.differentials == E.differentials


def test_cga_round_trip_and_reduction():
    A = pairing_cga(Q, 2, 1, {(0, 1): [1]})
    doc = dump_cga(A)
    A2 = load_cga(doc)
    assert A2.dims == A.dims
    assert A2.mult == A.mult
    # reduce the rational document into F_5
    A5 = load_cga(doc, field_override=F5)
    assert A5.field == F5
    assert A5.mu(1, 1, 0, 1) == (1,)
    assert A5.mu(1, 1, 1, 0) == (4,)


def test_group_nu_presentation_round_trips():
    G = FinAbGroup(2, (2, 4))
    assert load_group(dump_group(G)) == G
    nu = NuData(3, [[1, 0, 0], [0, 1, 0]], [[0, 0, 1]], FinAbGroup(2, (2,)))
    nu2 = load_nu(dump_nu(nu))
    assert nu2.free_block == nu.free_block
    assert nu2.torsion_blocks == nu.torsion_blocks
    assert nu2.group == nu.group
    # "b b^-1" reduces to the empty relator, which is dumped as "1"
    P = GroupPresentation(("a", "b"), ["a b a^-1 b^-1", "a^2 b^-2", "b b^-1"])
    P2 = load_presentation(dump_presentation(P))
    assert P2.generators == P.generators
    assert P2.relators == P.relators


def test_load_document_type_guard(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(dump_group(FinAbGroup(1))))
    assert load_document(str(path), "group").rank == 1
    with pytest.raises(DocumentError):
        load_document(str(path), "cga")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DocumentError):
        load_document(str(bad))


def test_a_list_names_its_entries_only_when_one_fails(monkeypatch):
    # a valid list of lists is checked whole, with no "entry %d of" text
    # formatted for it; a bad entry is named by its path, as before
    from jumploci import documents
    named = []
    check = documents._check

    def counted(value, kind, what):
        named.append(what)
        return check(value, kind, what)
    monkeypatch.setattr(documents, "_check", counted)
    rows = [[["x", 1]] * 3] * 4
    assert documents._check(rows, [[["entry"]]], "'differentials'") is rows
    assert named == ["'differentials'"]
    bad = [[["x", 1], ["y", 1.5]]]
    with pytest.raises(DocumentError) as err:
        documents._check(bad, [[["entry"]]], "'differentials'")
    assert str(err.value) == (
        "entry 1 of entry 1 of entry 0 of 'differentials' must be a "
        "polynomial string or an integer, not 1.5")


# JSON-like documents: scalars of every JSON kind (strings with quotes,
# backslashes, control characters and non-ASCII; every float json writes,
# NaN and the infinities included), lists, tuples, and objects with string
# keys, empty containers included
_STRINGS = st.one_of(st.text(), st.sampled_from(
    ["", '"', "\\", 'a"b\\c', "\x00\x1f\n\t\x7f", "\u00e9\u2211\U0001f600", "\ud800"]))
_DOCS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _STRINGS),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(_STRINGS, inner)),
    max_leaves=40)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_DOCS)
def test_dump_and_dumps_write_what_json_dumps_writes(doc):
    want = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert dumps(doc) == want
    out = io.StringIO()
    dump(doc, out)
    assert out.getvalue() == want


def test_dumps_refuses_values_json_refuses_and_keys_that_are_not_strings():
    for doc in ({"a": object()}, [1, {1, 2}]):
        with pytest.raises(TypeError):
            json.dumps(doc, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            dumps(doc)
    with pytest.raises(TypeError):
        dumps({1: 0})


# Arrays shaped like point lists, which reach the column-by-column writer:
# lists of rows of one length of ints and strings (non-ASCII included), and
# near misses that must take the general path: ragged rows, tuple rows, and
# a bool, float or None among the cells (True beside a 1 above all).
_CELLS = st.one_of(st.integers(), _STRINGS)
_ODD_CELLS = st.one_of(st.booleans(), st.floats(), st.none(), st.just(1))


@st.composite
def _point_arrays(draw):
    k = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(_CELLS, min_size=k, max_size=k), max_size=8))
    if rows and draw(st.booleans()):
        n = draw(st.integers(0, len(rows) - 1))
        miss = draw(st.sampled_from(["ragged", "tuple", "cell", "true"]))
        if miss == "ragged":
            rows[n] = rows[n] + [draw(_CELLS)]
        elif miss == "tuple":
            rows[n] = tuple(rows[n])
        elif k:
            j = draw(st.integers(0, k - 1))
            rows[n][j] = draw(_ODD_CELLS) if miss == "cell" else True
            if miss == "true":  # True and 1 are one key of a dict
                rows.append(rows[n][:j] + [1] + rows[n][j + 1:])
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_point_arrays(), st.dictionaries(_STRINGS, _point_arrays()),
                 st.lists(_point_arrays(), max_size=3)))
def test_point_arrays_are_written_as_json_dumps_writes(doc):
    want = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert dumps(doc) == want
    out = io.StringIO()
    dump(doc, out)
    assert out.getvalue() == want


def test_a_large_point_list_is_written_in_bounded_chunks():
    # 101^2 points of F_101^2, as a jump locus prints them
    doc = {"points": [[a, b] for a in range(101) for b in range(101)],
           "strings": [["u + %d" % a, "é"] for a in range(3000)],
           "flags": [[True, 1], [1, True]] * 1500}
    want = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    sizes = []

    class Out(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)
    out = Out()
    dump(doc, out)
    if out.getvalue() != want:  # no diff of half a megabyte
        pytest.fail("dump wrote other text than json.dumps")
    assert max(sizes) < len(want) // 4


# Loci, which a report holds as their point sets and the writer streams:
# each must print as its rows from point_list print through json.dumps,
# in the structured form and in the text form.  Over Q a column can hold
# ints and fraction strings, over F_16 and F_9 the printed strings sort
# otherwise than the field's ints.
_LOCUS_FIELDS = [Q, PrimeField(2), PrimeField(7), finite_field(9),
                 finite_field(16)]


@st.composite
def _loci(draw):
    field = draw(st.sampled_from(_LOCUS_FIELDS))
    if field.is_finite:
        scalar = st.integers(0, field.order - 1)
    else:
        scalar = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    r = draw(st.integers(0, 4))
    return field, draw(st.sets(st.tuples(*[scalar] * r), max_size=30))


def _report(points):
    return {"command": "jumploci", "results": {
        "by_extension": {"1": {"field_order": 7, "points": points}},
        "ideal": ["x"], "lhs_points": points}}


def _text(report):
    out = io.StringIO()
    _render_text(report, out)
    return out.getvalue()


def _check_locus(field, points):
    rows = point_list(field, points)
    try:  # the per-coordinate order, where Python can sort the rows
        assert rows == sorted([dump_scalar(field, c) for c in p]
                              for p in points)
    except TypeError:  # a Q column whose ints and strings meet
        pass
    streamed, built = _report(Locus(field, points)), _report(rows)
    want = json.dumps(built, sort_keys=True, indent=2) + "\n"
    if dumps(streamed) != want:  # no diff of a large text
        pytest.fail("dumps wrote other text than json.dumps of the rows")
    out = io.StringIO()
    dump(streamed, out)
    assert out.getvalue() == want
    if _text(streamed) != _text(built):
        pytest.fail("the text form differs from that of the rows")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_loci())
@example((PrimeField(7), set()))
@example((PrimeField(7), {()}))
@example((Q, {(Fraction(1, 2), Fraction(3)), (Fraction(1, 3), Fraction(-1, 2))}))
def test_a_locus_prints_as_its_rows_print(locus):
    _check_locus(*locus)


@pytest.mark.parametrize("rows", [4095, 4096, 4097, 8193])
@pytest.mark.parametrize("r", [1, 2])
def test_a_locus_of_many_rows_prints_as_its_rows_print(rows, r):
    # 4096 cells are written at a time: one row short of, at, and one past
    # a chunk of cells, and past two
    field = PrimeField(8209) if r == 1 else finite_field(101)
    points = random.Random(rows).sample(
        list(product(range(field.order), repeat=r)), rows)
    _check_locus(field, set(points))


def test_a_locus_is_written_in_bounded_chunks():
    # 101^2 points of F_101^2, as a jump locus prints them
    F101 = PrimeField(101)
    report = {"points": Locus(F101, set(product(range(101), repeat=2)))}
    for render in (dump, _render_text):
        sizes = []

        class Out(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)
        out = Out()
        render(report, out)
        assert max(sizes) < len(out.getvalue()) // 4
