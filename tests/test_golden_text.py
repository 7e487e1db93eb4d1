"""Golden text reports: what ``nk6`` prints without ``--json``.

Each case in ``CASES`` is run from the repository root, and its output,
with the ``time=`` field removed and the exit code appended as a last
``exit N`` line, must equal ``tests/golden/text/<case>.txt`` byte for byte.
The JSON goldens (``test_golden_reports.py``) pin the report's content;
these pin how the text renderer writes it, exact scalars included.

To regenerate the files, at a commit whose output is trusted, run
``PYTHONPATH=src python tests/test_golden_text.py`` from the repository
root.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
from pathlib import Path

import pytest

from nk6.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "text"

CASES = {
    **{f"verify-{m}": ["verify", m] for m in ("s3xs3", "flag", "cp3", "s6")},
    "solve-s3xs3": ["solve-s3xs3"],
    "table": ["table"],
    **{f"check-{f}": ["check", f"fixtures/{f}.json", "--cone"]
       for f in ("s3xs3", "flag", "cp3")},
}


def run(argv):
    """The text output of ``nk6 argv`` without its time, then ``exit N``."""
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    text = re.sub(r" time=\S+s$", "", out.getvalue(), flags=re.M)
    return f"{text}exit {code}\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_matches_golden(name):
    assert run(CASES[name]) == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(run(argv))
