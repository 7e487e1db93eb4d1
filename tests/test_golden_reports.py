"""Golden reports: the ``--json`` report of each command in ``CASES``,
without its ``timing_s``, against the one kept in ``tests/golden/``.

Exact reports must be equal (``==`` on the parsed JSON, exit code
included): a change to the exact kernels may make them faster, never
change a verdict, a residual or a scalar.  ``--scalar float`` reports keep
their exit code and every verdict's name, status, label and detail; their
residuals and scalars may move by rounding, within 1e-12 relative (and
1e-12 absolute below 1), because a kernel may sum in another order.

The ``candidate-*`` cases check the documents of ``golden/candidates/``:
the first round of ``bench/candidates.py`` at seed 1 (``CandidateStream(
load_fixtures(root), random.Random(1)).next_round()``, each written with
``json.dumps``), 20 exact checks and the round's two ``--scalar float``
re-checks.  Every document is passed by its path from the repository root,
from the root, so ``inputs.file`` and ``command`` read the same on any
checkout.

To regenerate the files, at a commit whose reports are trusted, run
``PYTHONPATH=src python tests/test_golden_reports.py`` from the repository
root: it rewrites only the files whose comparison fails (or that are
missing), so a float report that moved by rounding is kept.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from nk6.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = ("s3xs3", "flag", "cp3")
CANDIDATES = sorted(p.stem for p in (GOLDEN / "candidates").glob("*.json"))
RECHECKED = ("candidate-00", "candidate-05")   # the round's float re-checks

CASES = {
    **{f"check-{f}": ["check", f"fixtures/{f}.json", "--cone"] for f in FIXTURES},
    **{f"verify-{m}": ["verify", m] for m in ("s3xs3", "flag", "cp3", "s6")},
    "solve-s3xs3": ["solve-s3xs3"],
    "table": ["table"],
    **{f"check-float-{f}": ["--scalar", "float", "check", f"fixtures/{f}.json",
                            "--cone"] for f in FIXTURES},
    **{c: ["check", f"tests/golden/candidates/{c}.json", "--cone"]
       for c in CANDIDATES},
    **{c.replace("-", "-float-", 1): ["--scalar", "float", "check",
                                      f"tests/golden/candidates/{c}.json", "--cone"]
       for c in RECHECKED},
}


def run(argv):
    """(exit code, the --json report without timing_s), run from the root."""
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(["--json", *argv])
    finally:
        os.chdir(cwd)
    report = json.loads(out.getvalue())
    del report["timing_s"]
    return {"argv": argv, "exit": code, "report": report}


def _close(a, b):
    return a == b or (a is not None and b is not None
                      and abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    _compare(name, run(CASES[name]))


def _compare(name, got):
    """Assert that ``got``, a :func:`run` of case ``name``, matches its golden."""
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert golden["argv"] == CASES[name]
    if "--scalar" not in CASES[name]:
        assert got == golden
        return
    want, have = golden["report"], got["report"]
    assert got["exit"] == golden["exit"]
    assert have.keys() == want.keys()
    for key in ("all_pass", "command", "inputs", "tolerance"):
        assert have[key] == want[key]
    assert have["scalars"].keys() == want["scalars"].keys()
    for key, value in want["scalars"].items():
        assert _close(have["scalars"][key], value), key
    assert len(have["verdicts"]) == len(want["verdicts"])
    for v, w in zip(have["verdicts"], want["verdicts"]):
        assert {k: x for k, x in v.items() if k != "residual"} == \
            {k: x for k, x in w.items() if k != "residual"}
        assert _close(v.get("residual"), w.get("residual")), w["name"]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        got = run(argv)
        try:
            _compare(name, got)
        except (AssertionError, FileNotFoundError):
            text = json.dumps(got, indent=1, sort_keys=True)
            (GOLDEN / f"{name}.json").write_text(text + "\n")
            print(f"rewrote {name}.json")
