"""Lint-style guard for the one verdict rule.

Every pass/fail in ``src/nk6`` is decided by the zero policy of
``nk6.scalars`` at the threaded tolerance.  So no module outside
``scalars.py`` compares a value with a tolerance itself, and the only
tolerance-like literal is ``scalars.EPS``.
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


def _modules():
    return sorted(SRC.glob("*.py"))


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


def test_guard_sees_the_forms_it_forbids():
    assert small_literals("x = 1e-8\ny = 2.5E-3  # 1e-9\n'1e-7'\n") == ["1e-8", "2.5E-3"]
    assert tolerance_comparisons(
        "a = r <= tol\nb = x < 2 * slot_tol\nc = tol >= r\nd = r <= 1\n") == [1, 2, 3]
