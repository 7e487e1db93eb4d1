"""Lint-style guard for the one algebra representation.

Every model Lie algebra in ``src/nk6`` is spanned by matrices and built by
``LieAlgebraData.from_matrices``; structure constants are never entered by
hand.  So ``LieAlgebraData(...)`` is called only in ``lie.py`` (the
constructors themselves) and in ``spacefile.py`` (constants read from a
space document).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nk6"

ALLOWED = {"lie.py", "spacefile.py"}


def direct_constructions(source):
    """Lines that call LieAlgebraData(...) itself, not one of its classmethods."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == "LieAlgebraData"
                 or isinstance(node.func, ast.Attribute)
                 and node.func.attr == "LieAlgebraData")]


def test_lie_algebras_are_constructed_only_in_lie_and_spacefile():
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if path.name not in ALLOWED
             and (lines := direct_constructions(path.read_text()))}
    assert found == {}


def test_guard_sees_the_forms_it_forbids():
    assert direct_constructions(
        "a = LieAlgebraData(c)\n"
        "b = lie.LieAlgebraData(c, labels=x)\n"
        "c = LieAlgebraData.from_matrices(basis)\n") == [1, 2]
