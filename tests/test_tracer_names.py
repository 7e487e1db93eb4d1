"""Every function that bench/tracer.py wraps exists in nk6.

``Tracer.install`` looks each name of its ``FUNCTIONS`` up with
``getattr`` on the ``nk6`` module, so deleting or renaming one of them
breaks a traced benchmark run.  The names are read from the file with
``ast``; the tracer itself is not imported.
"""

import ast
import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _traced_functions():
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FUNCTIONS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py assigns no FUNCTIONS")


@pytest.mark.parametrize("qualname", _traced_functions())
def test_traced_function_resolves(qualname):
    modname, fname = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"nk6.{modname}"), fname))
