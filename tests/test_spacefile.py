import json
import os
from fractions import Fraction

import pytest

from nk6 import s3xs3, spaces
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
    from nk6.spacefile import SPACE_CACHE_SIZE, _validated_space

    spaces_seen = [parse_space(_rescaled_s3xs3(k)).reductive_space()
                   for k in range(1, 21)]
    assert len({id(s) for s in spaces_seen}) == 20
    assert _validated_space.cache_info().currsize == SPACE_CACHE_SIZE
    # the most recent algebra is kept, the oldest was dropped
    assert parse_space(_rescaled_s3xs3(20)).reductive_space() is spaces_seen[-1]
    assert parse_space(_rescaled_s3xs3(1)).reductive_space() is not spaces_seen[0]
    assert _validated_space.cache_info().currsize == SPACE_CACHE_SIZE


def test_invalid_algebra_is_not_stored():
    from nk6.spacefile import _validated_space

    doc = _rescaled_s3xs3(1)
    doc["structure_constants"].append([0, 1, 3, "1"])
    before = _validated_space.cache_info()
    for _ in range(2):
        with pytest.raises(SpaceFormatError, match="Jacobi"):
            parse_space(doc)
    after = _validated_space.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)
