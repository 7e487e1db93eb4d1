"""Lint-style guard for the one report type.

Every command and model verification returns a ``report.Report``, whose
facts are keyword attributes.  So no module of ``src/nk6`` derives a class
from ``Report`` or ``Verdicts``, and none defines a ``Verdicts`` base.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nk6"

FORBIDDEN_BASES = {"Report", "Verdicts"}


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def extra_report_classes(source):
    """Names of classes that define Verdicts or derive from Report/Verdicts."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            and (node.name == "Verdicts"
                 or any(_name(b) in FORBIDDEN_BASES for b in node.bases))]


def test_report_is_the_only_report_class():
    found = {path.name: names for path in sorted(SRC.glob("*.py"))
             if (names := extra_report_classes(path.read_text()))}
    assert found == {}


def test_guard_sees_the_forms_it_forbids():
    assert extra_report_classes(
        "class Verdicts:\n    pass\n"
        "class FlagReport(Verdicts):\n    pass\n"
        "class SolveReport(report.Report):\n    pass\n"
        "class ConeReport:\n    pass\n"
        "class Report:\n    pass\n") == ["Verdicts", "FlagReport", "SolveReport"]
