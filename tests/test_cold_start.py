"""What a fresh ``nk6`` command compiles and runs.

The package registers its submodules lazily: a module is in ``sys.modules``
from ``import nk6`` on, but its code runs (and, without bytecode, is
compiled) only when one of its attributes is first read.  Until then its
type is a subclass of ``types.ModuleType``, not ``types.ModuleType`` itself.
Each test runs a fresh interpreter, so that no other test has run a module.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

# run the command, then report on stderr which nk6 modules never ran
FOOTPRINT = """\
import json, sys, types
from nk6.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(name[4:] for name, m in sys.modules.items()
                               if name.startswith("nk6.")
                               and type(m) is not types.ModuleType)]),
      file=sys.stderr)
"""


@pytest.mark.parametrize("argv, unexecuted", [
    (["table"], {"hitchin", "lie", "cone", "spaces"}),
    (["check", "fixtures/s3xs3.json", "--cone"],
     {"spaces", "s3xs3", "octonion", "certificate", "poly"}),
    (["verify", "s6"],
     {"spaces", "s3xs3", "lie", "spacefile", "certificate", "poly"}),
], ids=["table", "check", "verify-s6"])
def test_command_runs_only_the_modules_it_uses(argv, unexecuted):
    done = subprocess.run([sys.executable, "-c", FOOTPRINT, "--json", *argv],
                          cwd=ROOT, env=ENV, capture_output=True, text=True,
                          timeout=120)
    code, never_ran = json.loads(done.stderr.splitlines()[-1])
    assert code == 0, done.stderr
    assert unexecuted <= set(never_ran), unexecuted - set(never_ran)


@pytest.mark.parametrize("argv, spans", [
    (["check", "fixtures/s3xs3.json", "--cone"],
     {"hitchin.build_su3", "spaces.build_either_orientation"}),
    (["verify", "flag"],
     {"hitchin.build_su3", "spaces.build_either_orientation",
      "spaces.flag_verify"}),
], ids=["check", "verify-flag"])
def test_traced_command_records_its_spans(tmp_path, argv, spans):
    # the tracer wraps functions of modules that the command has not run yet
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "traced_cli.py"), str(trace),
         "--json", *argv],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    recorded = json.loads(trace.read_text())
    names = {recorded["names"][ident] for ident, *_ in recorded["spans"]}
    assert spans <= names, spans - names


def test_module_run_warns_nothing():
    # nk6.cli is left out of the lazy registration: runpy would warn that
    # the module it is about to run as __main__ is already in sys.modules
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nk6.cli", "--json", "table"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stderr == ""
