"""Lint-style guard for the one verdict rule and the one arithmetic.

Every pass/fail in ``src/nk6`` is decided by the zero policy of
``nk6.scalars`` at the threaded tolerance.  So no module outside
``scalars.py`` compares a value with a tolerance itself, the only
tolerance-like literal is ``scalars.EPS``, and no collection is tested
for zero by hand: ``scalars.lattice_zero`` is the one zero test of a
collection.

Float data are decided on their binary values by the exact kernels, so
no float lane comes back: ``src/nk6`` names none of its parts
(``FORBIDDEN``), and ``isinstance(x, float)`` is asked only where data
enter, in ``scalars.lift`` and ``spacefile._value``.  (``scalars.tolerance``
tells measured data apart as inexact reals, ``numbers.Real`` that are not
``numbers.Rational``.)
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nk6"

SMALL_LITERAL = re.compile(r"^[0-9.]*[eE]-[0-9]+$")
ALLOWED_LITERALS = Counter({("scalars.py", "1e-10"): 1})
# DiagonalInvariantForm asks whether any coefficient is 0, on Poly
# coefficients too, which ``is_zero`` cannot size by ``float``
ALLOWED_ZERO_SCANS = Counter({"s3xs3.py": 1})


FORBIDDEN = ("FloatRangeError", "is_float_data", "math.ldexp", "math.frexp",
             ".exponent")
FLOAT_TESTS = Counter({("scalars.py", "lift"): 2, ("spacefile.py", "_value"): 1})


def _modules():
    return sorted(SRC.glob("*.py"))


def float_tests(source):
    """The enclosing function of each ``isinstance(..., float)`` or
    ``isinstance(..., (..., float, ...))`` call."""
    out = []

    def names_float(node):
        return (isinstance(node, ast.Name) and node.id == "float"
                or isinstance(node, ast.Tuple) and any(map(names_float, node.elts)))

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and names_float(node.args[1])):
            out.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return out


def _mentions_tol(node):
    return any(isinstance(n, ast.Name) and (n.id == "tol" or n.id.endswith("_tol"))
               for n in ast.walk(node))


def tolerance_comparisons(source):
    """Lines that compare a value with a tolerance by < or <=."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if (isinstance(op, (ast.Lt, ast.LtE)) and _mentions_tol(right)
                    or isinstance(op, (ast.Gt, ast.GtE)) and _mentions_tol(left)):
                out.append(node.lineno)
            left = right
    return out


def _compares_with_zero(node):
    return isinstance(node, ast.Compare) and any(
        isinstance(x, ast.Constant) and type(x.value) in (int, float) and x.value == 0
        for x in (node.left, *node.comparators))


def zero_scans(source):
    """Lines where all() or any() runs over a comprehension that compares an
    element with 0: a zero test of a collection by hand."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("all", "any") and node.args
                and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
                and any(map(_compares_with_zero, ast.walk(node.args[0].elt)))):
            out.append(node.lineno)
    return out


def small_literals(source):
    """Numeric literals written as 1e-N (comments and strings excluded)."""
    return [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.NUMBER and SMALL_LITERAL.match(tok.string)]


def test_no_hidden_tolerance_literals():
    found = Counter((path.name, lit) for path in _modules()
                    for lit in small_literals(path.read_text()))
    assert found == ALLOWED_LITERALS


def test_no_tolerance_comparison_outside_scalars():
    found = {path.name: lines for path in _modules()
             if path.name != "scalars.py"
             and (lines := tolerance_comparisons(path.read_text()))}
    assert found == {}


def test_collections_are_zero_tested_by_lattice_zero():
    found = Counter(path.name for path in _modules() if path.name != "scalars.py"
                    for _ in zero_scans(path.read_text()))
    assert found == ALLOWED_ZERO_SCANS


def test_no_float_lane_is_named():
    found = {(path.name, word) for path in _modules() for word in FORBIDDEN
             if word in path.read_text()}
    assert found == set()


def test_floats_are_told_apart_only_where_data_enter():
    found = Counter((path.name, function) for path in _modules()
                    for function in float_tests(path.read_text()))
    assert found == FLOAT_TESTS


def test_float_guard_sees_the_forms_it_forbids():
    assert float_tests(
        "def lift(v):\n"
        "    return isinstance(v, float) or isinstance(v, (int, float))\n"
        "x = isinstance(1, float)\n"
        "def f(v):\n"
        "    return isinstance(v, int) or type(v) is float\n") == [
            "lift", "lift", None]


def test_guard_sees_the_forms_it_forbids():
    assert small_literals("x = 1e-8\ny = 2.5E-3  # 1e-9\n'1e-7'\n") == ["1e-8", "2.5E-3"]
    assert tolerance_comparisons(
        "a = r <= tol\nb = x < 2 * slot_tol\nc = tol >= r\nd = r <= 1\n") == [1, 2, 3]
    assert zero_scans(
        "a = all(x == 0 for x in v)\nb = any(0 != y for r in m for y in r)\n"
        "c = all([x == 0.0 for x in v])\nd = all(v)\ne = any(x == 1 for x in v)\n"
        "f = all(is_zero(x) for x in v)\ng = all(x is False for x in v)\n") == [1, 2, 3]
