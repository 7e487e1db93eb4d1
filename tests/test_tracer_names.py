"""Every function that bench/tracer.py wraps exists in nk6.

``Tracer.install`` looks each name of its ``FUNCTIONS`` up with
``getattr`` on the ``nk6`` module, so deleting or renaming one of them
breaks a traced benchmark run, and so does an ``import nk6.cli`` that
no longer puts one of their modules in ``sys.modules``.  The names are
read from the file with ``ast``; the tracer itself is not imported.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

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


def test_cli_import_loads_every_traced_module_and_no_dataclasses():
    # The records of nk6 are plain classes: no nk6 module pulls in
    # dataclasses nor, through it, inspect, which cost a fresh command
    # about 20 ms.  The package registers its submodules lazily, so each is
    # run (by reading its namespace) before that is checked.  Tracer.install
    # reads each traced module from sys.modules right after `import nk6.cli`,
    # so the import must still register every one of them.
    src = os.path.abspath(os.path.join(os.path.dirname(TRACER), os.pardir, "src"))
    code = ("import json, sys; before = set(sys.modules); import nk6.cli; "
            "registered = set(sys.modules) - before; "
            "[vars(m) for n, m in list(sys.modules.items()) "
            "if n.startswith('nk6.')]; "
            "print(json.dumps([sorted(registered), "
            "sorted(set(sys.modules) - before)]))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    registered, loaded = map(set, json.loads(done.stdout))
    assert not {"dataclasses", "inspect"} & loaded
    traced = {f"nk6.{name.split('.')[0]}" for name in _traced_functions()}
    assert traced <= registered <= loaded, traced - registered
