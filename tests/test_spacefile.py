import contextlib
import copy
import io
import json
import math
import os
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nk6 import s3xs3, spaces
from nk6.cli import main
from nk6.exterior import KForm
from nk6.lie import LieAlgebraData, ReductiveSpace
from nk6.spacefile import (
    SpaceFormatError,
    dump_space,
    load_space,
    parse_space,
)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
FIXTURES = os.path.join(ROOT, "fixtures")


@pytest.mark.parametrize("name", ["s3xs3", "flag", "cp3"])
def test_fixtures_load(name):
    doc = load_space(os.path.join(FIXTURES, f"{name}.json"))
    space = doc.reductive_space()
    assert space.dim_m == 6
    assert "omega" in doc.forms
    assert doc.forms["omega"].k == 2


def test_fixture_matches_catalog():
    catalog = {"s3xs3": s3xs3.cyclic_space(),
               "flag": spaces.flag_model().space,
               "cp3": spaces.cp3_model().space}
    for name, built in catalog.items():
        doc = load_space(os.path.join(FIXTURES, f"{name}.json"))
        space = doc.reductive_space()
        assert space.algebra.c == built.algebra.c, name
        assert space.algebra.labels == built.algebra.labels, name
        assert (space.h_idx, space.m_idx) == (built.h_idx, built.m_idx), name
    doc = load_space(os.path.join(FIXTURES, "s3xs3.json"))
    assert doc.forms["omega"] == s3xs3.omega_diagonal(
        Fraction(1), Fraction(1), Fraction(1))


def test_roundtrip_dump_load():
    fm = spaces.flag_model()
    text = dump_space(fm.space, forms={"omega": fm.omega(1, 2, 3)},
                      metric=fm.metric(1, 2, 3))
    doc = parse_space(json.loads(text))
    assert doc.forms["omega"] == fm.omega(1, 2, 3)
    assert doc.metric == fm.metric(1, 2, 3)
    assert doc.reductive_space().algebra.c == fm.space.algebra.c


MODELS = {"s3xs3": s3xs3.cyclic_space(), "flag": spaces.flag_model().space,
          "cp3": spaces.cp3_model().space}
exact_values = st.one_of(
    st.just(0), st.integers(-10 ** 20, 10 ** 20),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.builds(Fraction, st.integers(-9, 9)))   # whole Fractions too
entries = st.one_of(exact_values, st.floats(-1e3, 1e3, allow_nan=False))


def _kind(x):
    """The type of an entry after a round trip: int where exact and whole."""
    return int if not isinstance(x, float) and x.denominator == 1 else type(x)


def _flat(nested):
    return [x for item in nested for x in (_flat(item) if isinstance(item, list)
                                           else [item])]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(sorted(MODELS)),
       exact_values.filter(lambda t: t != 0), st.data())
def test_dump_then_parse_gives_back_the_data(name, scale, data):
    # a model's algebra with its constants times ``scale`` (a Lie algebra
    # still), a 2-form, a 3-form and a symmetric metric of random entries
    base = MODELS[name]
    c = [[[scale * x for x in row] for row in plane] for plane in base.algebra.c]
    space = ReductiveSpace(LieAlgebraData(c, labels=base.algebra.labels),
                           base.h_idx, base.m_idx)
    forms = {f"w{k}": KForm(6, k, data.draw(st.lists(entries, min_size=size,
                                                      max_size=size)))
             for k, size in ((2, 15), (3, 20))}
    rows = data.draw(st.lists(st.lists(entries, min_size=6, max_size=6),
                              min_size=6, max_size=6))
    metric = [[rows[min(i, j)][max(i, j)] for j in range(6)] for i in range(6)]
    doc = parse_space(json.loads(dump_space(space, forms=forms, metric=metric)))
    got = doc.reductive_space().algebra.c
    assert got == c
    assert [_kind(x) for x in _flat(c)] == [type(x) for x in _flat(got)]
    for key, form in forms.items():
        assert doc.forms[key] == form
        # a zero term is not written, and reads back as the int 0
        assert [int if x == 0 else _kind(x) for x in form.c] == [
            type(x) for x in doc.forms[key].c]
    assert doc.metric == metric
    assert [_kind(x) for x in _flat(metric)] == [type(x) for x in _flat(doc.metric)]


def test_rational_and_float_values():
    doc = parse_space({
        "dimension": 3,
        "structure_constants": [[0, 1, 2, "-1/2"], [1, 2, 0, -0.5],
                                [0, 2, 1, "1/2"]],
    })
    assert doc.constants[0][1][2] == Fraction(-1, 2)
    assert doc.constants[1][2][0] == -0.5


def _three_dim():
    """so(3)-shaped [e0, e1] = a e2, [e1, e2] = b e0, [e0, e2] = c e1 (any a,
    b, c satisfy Jacobi), with whole exact entries in every place."""
    return {
        "dimension": 3,
        "structure_constants": [[0, 1, 2, 2], [1, 2, 0, "4/2"], [0, 2, 1, "-3"],
                                [0, 1, 1, "0"]],
        "forms": {"omega": [[[0, 1], 2], [[0, 2], "4/2"], [[1, 2], "-3"]],
                  "zero": [[[1], "0"]], "half": [[[0], "1/2"]]},
        "metric": [[2, "4/2", "-3"], ["4/2", "0", "1/2"], ["-3", "1/2", 0.5]],
    }


def test_whole_exact_entries_are_ints():
    # JSON 2, "4/2", "-3" and "0" are ints, as in the kernels; "1/2" is a
    # Fraction and 0.5 a float
    doc = parse_space(_three_dim())
    c = doc.constants
    assert (c[0][1][2], c[1][2][0], c[0][2][1], c[0][1][1]) == (2, 2, -3, 0)
    assert {type(x) for plane in c for row in plane for x in row} == {int}
    assert doc.forms["omega"].c == [2, 2, -3] and doc.forms["zero"].c == [0, 0, 0]
    for name in ("omega", "zero"):
        assert {type(x) for x in doc.forms[name].c} == {int}
    assert doc.forms["half"].c[0] == Fraction(1, 2)
    assert type(doc.forms["half"].c[0]) is Fraction
    assert [[type(x) for x in row] for row in doc.metric] == [
        [int, int, int], [int, int, Fraction], [int, Fraction, float]]


def _set_constant(data, v):
    data["structure_constants"][0][3] = v


def _set_form(data, v):
    data["forms"]["omega"][1][1] = v


def _set_metric(data, v):
    data["metric"][0][2] = data["metric"][2][0] = v


@pytest.mark.parametrize("huge", [10 ** 400, str(-10 ** 400), f"{2 * 10 ** 400}/2"],
                         ids=["json-int", "string", "whole-quotient"])
@pytest.mark.parametrize("edit, path, read", [
    (_set_constant, "$.structure_constants[0]", lambda doc: doc.constants[0][1][2]),
    (_set_form, "$.forms.omega[1]", lambda doc: doc.forms["omega"].c[1]),
    (_set_metric, "$.metric[0][2]", lambda doc: doc.metric[0][2]),
], ids=["constant", "form", "metric"])
def test_whole_entries_beyond_the_float_range(huge, edit, path, read):
    # exact mode keeps the int; float mode rejects it where it stands, as
    # it rejects a Fraction
    data = _three_dim()
    edit(data, huge)
    assert type(read(parse_space(data))) is int
    with pytest.raises(SpaceFormatError,
                       match=re.escape(f"{path}: outside the float range")):
        parse_space(data, floats=True)


def test_bad_jacobi_rejected():
    with pytest.raises(SpaceFormatError):
        parse_space({
            "dimension": 3,
            "structure_constants": [[0, 1, 0, "1"], [1, 2, 1, "1"],
                                    [0, 2, 2, "-1"]],
        })


def test_dimension_is_bounded():
    assert parse_space({"dimension": 14, "structure_constants": []}).dimension == 14
    for dim in (0, 15, 120, 6.5, "6", True, None):
        with pytest.raises(SpaceFormatError, match=r"\$\.dimension"):
            parse_space({"dimension": dim, "structure_constants": []})


def test_error_paths():
    with pytest.raises(SpaceFormatError, match=r"\$\.dimension"):
        parse_space({})
    with pytest.raises(SpaceFormatError, match="i < j"):
        parse_space({"dimension": 2, "structure_constants": [[1, 0, 0, "1"]]})
    with pytest.raises(SpaceFormatError, match="duplicate"):
        parse_space({"dimension": 3,
                     "structure_constants": [[0, 1, 2, "1"], [0, 1, 2, "1"]]})
    with pytest.raises(SpaceFormatError, match="out of range"):
        parse_space({"dimension": 2, "structure_constants": [[0, 1, 5, "1"]]})
    with pytest.raises(SpaceFormatError, match="bad rational"):
        parse_space({"dimension": 2, "structure_constants": [[0, 1, 0, "x"]]})
    with pytest.raises(SpaceFormatError, match="partition"):
        parse_space({"dimension": 2, "structure_constants": [],
                     "h_indices": [0], "m_indices": [0, 1]})
    with pytest.raises(SpaceFormatError, match="not an m-index"):
        parse_space({"dimension": 2, "structure_constants": [],
                     "h_indices": [0],
                     "forms": {"omega": [[[0, 1], "1"]]}})
    with pytest.raises(SpaceFormatError, match="not symmetric"):
        parse_space({"dimension": 2, "structure_constants": [],
                     "metric": [["1", "1"], ["0", "1"]]})


def test_parse_error_carries_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "dimension": 2,\n  "oops"\n}\n')
    with pytest.raises(SpaceFormatError, match=r"bad\.json:\d+:\d+"):
        load_space(str(bad))


def test_fixtures_validate_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    with open(os.path.join(ROOT, "schemas", "space.schema.json")) as fh:
        schema = json.load(fh)
    for name in ("s3xs3", "flag", "cp3"):
        with open(os.path.join(FIXTURES, f"{name}.json")) as fh:
            jsonschema.validate(json.load(fh), schema)


def _rescaled_s3xs3(scale):
    """su(2) + su(2) with every structure constant times ``scale``: a valid
    algebra, distinct for each scale."""
    with open(os.path.join(FIXTURES, "s3xs3.json")) as fh:
        doc = json.load(fh)
    for entry in doc["structure_constants"]:
        entry[3] = str(scale * Fraction(entry[3]))
    return doc


def test_identical_algebras_share_one_validated_space():
    first = parse_space(_rescaled_s3xs3(3)).reductive_space()
    doc = _rescaled_s3xs3(3)
    doc["forms"] = {}
    assert parse_space(doc).reductive_space() is first
    # 3 and "3" are different spellings: a miss, never a shared space
    for entry in doc["structure_constants"]:
        entry[3] = int(Fraction(entry[3]))
    other = parse_space(doc).reductive_space()
    assert other is not first and other.algebra.c == first.algebra.c


def test_cache_of_validated_spaces_stays_at_capacity():
    from nk6.spacefile import SPACE_CACHE_SIZE, _SPACES

    spaces_seen = [parse_space(_rescaled_s3xs3(k)).reductive_space()
                   for k in range(1, 21)]
    assert len({id(s) for s in spaces_seen}) == 20
    assert len(_SPACES) == SPACE_CACHE_SIZE
    # the most recent algebra is kept, the oldest was dropped
    assert parse_space(_rescaled_s3xs3(20)).reductive_space() is spaces_seen[-1]
    assert parse_space(_rescaled_s3xs3(1)).reductive_space() is not spaces_seen[0]
    assert len(_SPACES) == SPACE_CACHE_SIZE


def test_invalid_algebra_is_not_stored():
    from nk6.spacefile import _SPACES

    doc = _rescaled_s3xs3(1)
    doc["structure_constants"].append([0, 1, 3, "1"])
    before = dict(_SPACES)
    for _ in range(2):
        with pytest.raises(SpaceFormatError, match="Jacobi"):
            parse_space(doc)
    assert _SPACES == before


# -- what a cached algebra skips, and what it never hides ----------------------
def _fixture(name):
    with open(os.path.join(FIXTURES, f"{name}.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["s3xs3", "flag", "cp3"])
def test_cached_algebra_parses_no_structure_constant(name, monkeypatch):
    from nk6 import spacefile

    doc = _fixture(name)
    parse_space(doc)   # the algebra is validated and stored
    calls = []
    original = spacefile.parse_rational
    monkeypatch.setattr(spacefile, "parse_rational",
                        lambda text: calls.append(text) or original(text))
    parse_space(_fixture(name))
    # the forms' and the metric's strings are read; no structure constant is
    written = [v for entries in doc["forms"].values() for _, v in entries]
    written += [v for row in doc.get("metric") or [] for v in row]
    assert calls == written
    monkeypatch.setattr(spacefile, "_SPACES", {})
    calls.clear()
    parse_space(_fixture(name))
    assert len(calls) == len(written) + len(doc["structure_constants"])


def _set_value(doc):
    doc["structure_constants"][3][3] = "1/0"


def _set_index(doc):
    doc["structure_constants"][3][2] = doc["dimension"]


def _swap_ij(doc):
    entry = doc["structure_constants"][3]
    entry[0], entry[1] = entry[1], entry[0]


def _duplicate(doc):
    doc["structure_constants"][3] = list(doc["structure_constants"][2])


@pytest.mark.parametrize("name", ["s3xs3", "flag", "cp3"])
@pytest.mark.parametrize("change, message", [
    (_set_value, r"\$\.structure_constants\[3\]: bad rational '1/0'"),
    (_set_index, r"\$\.structure_constants\[3\]\.k: index out of range"),
    (_swap_ij, r"\$\.structure_constants\[3\]: give entries for i < j only"),
    (_duplicate, r"\$\.structure_constants\[3\]: duplicate entry")])
def test_one_changed_constant_fails_as_on_a_cold_cache(name, change, message,
                                                       tmp_path, monkeypatch,
                                                       capsys):
    # a document one constant away from a cached algebra exits 2 with the
    # JSON-path message it gets when nothing is cached
    from nk6 import spacefile
    from nk6.cli import main

    doc = _fixture(name)
    change(doc)
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(doc))
    errors = []
    for cache in ("warm", "cold"):
        if cache == "warm":
            parse_space(_fixture(name))
        else:
            monkeypatch.setattr(spacefile, "_SPACES", {})
        assert main(["check", str(path), "--cone"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert re.match(r"error: " + message, errors[0])


# -- fuzzing: one value of a document replaced by a drawn JSON value ------
def _paths(node, path=()):
    """The paths of every value below the top level of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


S3XS3 = _fixture("s3xs3")
S3XS3_PATHS = list(_paths(S3XS3))
BIG = "@big-int@"   # stands in the JSON text for an int json cannot write


@st.composite
def big_ints(draw):
    """(value, digits) of an int of up to 5,000 digits, built without str()."""
    lead, exp = draw(st.integers(1, 9)), draw(st.integers(0, 4999))
    tail, sign = draw(st.integers(0, 999)), draw(st.sampled_from([1, -1]))
    text = "-" * (sign < 0) + str(lead) + str(tail).zfill(exp)[-exp:] * (exp > 0)
    return sign * (lead * 10 ** exp + (tail % 10 ** exp if exp else 0)), text


# text without e or E: an exponent string like "1e100000" is valid input,
# only slow
json_leaves = st.one_of(
    st.integers(-10, 10), big_ints(), st.booleans(), st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(-1e3, 1e3),
    st.text(st.characters(blacklist_characters="eE"), max_size=8))
json_values = st.recursive(json_leaves, lambda inner: st.lists(inner, max_size=3),
                           max_leaves=6)


def _replaced(path, value):
    doc = copy.deepcopy(S3XS3)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _with_big_ints(value, digits):
    """``value`` for parse_space and its stand-in for the JSON text."""
    if isinstance(value, tuple):
        digits.append(value[1])
        return value[0], BIG
    if isinstance(value, list):
        pairs = [_with_big_ints(v, digits) for v in value]
        return [p for p, _ in pairs], [t for _, t in pairs]
    return value, value


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(S3XS3_PATHS), json_values)
def test_a_replaced_value_is_parsed_or_rejected(tmp_path_factory, path, value):
    digits = []
    parsed, stand_in = _with_big_ints(value, digits)
    try:
        parse_space(_replaced(path, parsed))
    except SpaceFormatError:
        pass
    text = json.dumps(_replaced(path, stand_in))
    for d in digits:
        text = text.replace(f'"{BIG}"', d, 1)
    file = tmp_path_factory.mktemp("fuzz") / "space.json"
    file.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", str(file), "--cone"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
