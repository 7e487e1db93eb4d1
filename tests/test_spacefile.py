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


def test_rational_and_float_values():
    doc = parse_space({
        "dimension": 3,
        "structure_constants": [[0, 1, 2, "-1/2"], [1, 2, 0, -0.5],
                                [0, 2, 1, "1/2"]],
    })
    assert doc.constants[0][1][2] == Fraction(-1, 2)
    assert doc.constants[1][2][0] == -0.5


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
