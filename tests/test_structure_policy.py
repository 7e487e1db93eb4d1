"""Lint-style guard for the one SU(3) build.

Every ``SU3Structure`` in ``src/nk6`` comes out of ``hitchin.build_su3``,
which proves each identity the structure carries.  A check at another
scale reads the build and the scaling laws (``cone.cone_check``); it never
assembles a second structure.  So ``SU3Structure(...)`` is called once, in
``build_su3``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nk6"


def constructions(source):
    """(line, enclosing function) of each call of SU3Structure(...) itself."""
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "SU3Structure"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "SU3Structure"):
            out.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return out


def test_su3_structures_are_constructed_only_in_build_su3():
    found = [(path.name, function) for path in sorted(SRC.glob("*.py"))
             for _, function in constructions(path.read_text())]
    assert found == [("hitchin.py", "build_su3")]


def test_guard_sees_the_forms_it_forbids():
    assert constructions(
        "a = SU3Structure(omega=w)\n"
        "class S:\n"
        "    def scaled(self, c):\n"
        "        return hitchin.SU3Structure(omega=c)\n"
        "b = SU3Structure.__init__\n"
        "def build_su3():\n"
        "    return SU3Structure()\n") == [
            (1, None), (4, "scaled"), (7, "build_su3")]
