"""Correctness checks on nk6 reports, from facts computed apart from nk6.

Each check returns a list of problems; an operation with any problem counts
as failed.  The facts come from the paper or from properties the method
must have, never from stored output:

- every report is JSON that validates against ``schemas/report.schema.json``,
  its exit code matches its verdict, and every failing verdict is labelled;
- ``table``: dim g - dim h = 6 on every row, from the dimension list below;
- S^3 x S^3: mu = 1/(2 |lambda| sqrt 3) (``math.sqrt``);
- CP^3: t_nk = 1/2, t_kahler = 1, ratio = 2 within the report's tolerance;
- exactness: a passing check on exact inputs that build exactly has
  structure-equation and cone residuals of exactly 0.0;
- a ``--scalar float`` re-check gives the verdict of the exact check.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import jsonschema

from candidates import s3_mu

# dimensions of the compact Lie algebras in the classification table
ALGEBRA_DIMS = {"0": 0, "u(1)": 1, "su(2)": 3, "u(2)": 4, "su(3)": 8,
                "sp(2)": 10, "g2": 14}
TARGETS = {"S3xS3", "F3", "CP3", "S6"}
STRUCTURE_LABELS = {"NotStable", "NotType11", "DegenerateOmega", "NotPositive",
                    "SlotInconsistent"}
# verdicts whose residual must be exactly 0.0 in an exact passing check
EXACT_VERDICTS = ("structure equation", "cone form", "nearly Kahler system",
                  "exact agreement")
BUILD_VERDICT = "stable pair builds"


def algebra_dim(label):
    """Dimension of a sum such as '2u(1)+su(2)+su(2)'."""
    total = 0
    for part in label.split("+"):
        count, name = re.fullmatch(r"(\d*)(.+)", part.strip()).groups()
        total += int(count or 1) * ALGEBRA_DIMS[name]
    return total


def _close(value, want, tol):
    return value is not None and abs(value - want) <= tol * max(1.0, abs(want))


def _find(report, prefix):
    for v in report["verdicts"]:
        if v["name"].startswith(prefix):
            return v
    return None


class Checker:
    def __init__(self, root):
        schema = json.loads((Path(root) / "schemas" / "report.schema.json").read_text())
        self.validator = jsonschema.Draft7Validator(schema)

    # -- shared ---------------------------------------------------------
    def report(self, result, expect_pass):
        """Parse and validate one command's report.

        ``expect_pass`` is True, False or None (either verdict allowed).
        Returns (report or None, problems).
        """
        problems = []
        try:
            rep = json.loads(result.stdout)
        except ValueError:
            tail = result.stderr.strip().splitlines()[-1:] or [""]
            return None, [f"exit {result.code}, no JSON report ({tail[0][:120]})"]
        for err in self.validator.iter_errors(rep):
            problems.append(f"schema: {err.message[:120]}")
            break
        if not isinstance(rep, dict) or not isinstance(rep.get("verdicts"), list):
            return None, problems or ["report has no verdicts"]
        verdict = rep.get("all_pass")
        if expect_pass is not None and verdict is not expect_pass:
            problems.append(f"all_pass = {verdict}, expected {expect_pass}")
        want_code = 0 if verdict else 1
        if result.code != want_code:
            problems.append(f"exit {result.code} with all_pass = {verdict}")
        for v in rep["verdicts"]:
            if v.get("status") == "fail" and not v.get("label"):
                problems.append(f"failing verdict without label: {v.get('name')}")
        return rep, problems

    @staticmethod
    def exact_zeros(rep):
        problems = []
        seen = 0
        for v in rep["verdicts"]:
            if any(k in v["name"] for k in EXACT_VERDICTS) and "residual" in v:
                seen += 1
                if v["residual"] != 0.0:
                    problems.append(f"exact check has residual {v['residual']!r}: {v['name']}")
        if not seen:
            problems.append("no structure-equation or cone residual reported")
        return problems

    # -- cli-cold and verify-models ----------------------------------------
    def command(self, name, result, expect=None):
        """Check one command of the cli-cold or verify-models workloads.

        ``name`` is ``table``, ``check`` (with the fixture's ``expect``) or
        ``verify <space>``.
        """
        if name == "table":
            return self.table(result)
        if name == "check":
            return self.candidate(result, expect)
        rep, problems = self.report(result, True)
        if rep is None:
            return problems
        space = name.split()[1]
        scalars, tol = rep.get("scalars", {}), rep.get("tolerance", 1e-10)
        if space == "s3xs3":
            if not _close(scalars.get("mu"), s3_mu(1), tol):
                problems.append(f"mu = {scalars.get('mu')}, expected 1/(2 sqrt 3)")
            if not scalars.get("scal", 0) > 0:
                problems.append(f"scalar curvature {scalars.get('scal')} is not positive")
            problems += self.exact_zeros(rep)
        elif space == "flag":
            v = _find(rep, "nearly Kahler verdict iff r = s = t")
            if v is None or v["status"] != "pass":
                problems.append("flag grid verdict r = s = t missing or failing")
        elif space == "cp3":
            for name, want in (("t_nk", 0.5), ("t_kahler", 1.0), ("ratio", 2.0)):
                if not _close(scalars.get(name), want, tol):
                    problems.append(f"{name} = {scalars.get(name)}, expected {want}")
        elif space == "s6":
            problems += self.exact_zeros(rep)
        return problems

    def table(self, result):
        rep, problems = self.report(result, True)
        if rep is None:
            return problems
        targets = set()
        for v in rep["verdicts"]:
            m = re.fullmatch(r"(\S+) in (\S+) -> (\S+)", v["name"])
            if m is None:
                problems.append(f"unreadable table row {v['name']!r}")
                continue
            h, g, target = m.groups()
            dh, dg = algebra_dim(h), algebra_dim(g)
            targets.add(target)
            if dg - dh != 6:
                problems.append(f"{v['name']}: dim g - dim h = {dg - dh}")
            if v.get("detail") != f"{dg} - {dh} = 6":
                problems.append(f"{v['name']}: detail {v.get('detail')!r}")
        if targets != TARGETS:
            problems.append(f"table covers {sorted(targets)}")
        return problems

    # -- check-candidates -------------------------------------------------
    def candidate(self, result, expect, float_mode=False):
        """Check one ``nk6 check`` report against its candidate's expectation."""
        rep, problems = self.report(result, expect.get("pass"))
        if rep is None:
            return problems
        build = _find(rep, BUILD_VERDICT)
        if build is None:
            return problems + ["no build verdict"]
        if build["status"] == "fail" and build.get("label") not in STRUCTURE_LABELS:
            problems.append(f"build rejected with label {build.get('label')!r}")
        if "label" in expect and build.get("label") != expect["label"]:
            problems.append(f"build label {build.get('label')!r}, expected {expect['label']}")
        if rep["all_pass"]:
            tol = rep.get("tolerance", 1e-10)
            if "mu" in expect and not _close(rep["scalars"].get("mu"), expect["mu"], tol):
                problems.append(f"mu = {rep['scalars'].get('mu')}, expected {expect['mu']}")
            if expect.get("exact") and not float_mode:
                problems += self.exact_zeros(rep)
        return problems

    @staticmethod
    def same_verdict(exact_result, float_result):
        """A --scalar float re-check must reach the exact check's verdict."""
        if exact_result.code != float_result.code:
            return [f"float re-check exit {float_result.code}, exact exit {exact_result.code}"]
        return []


class PairCheck:
    """CP^3 at t = 1/2: exactly one fiber sign passes, the same one every time."""

    def __init__(self):
        self.fiber = None

    def __call__(self, pair):
        passing = [expect["fiber"] for expect, result in pair if result.code == 0]
        if len(passing) != 1:
            return [f"CP^3 t = 1/2: {len(passing)} of 2 fiber signs pass"]
        if self.fiber is None:
            self.fiber = passing[0]
        if passing[0] != self.fiber:
            return ["CP^3 t = 1/2: the passing fiber sign changed"]
        return []
