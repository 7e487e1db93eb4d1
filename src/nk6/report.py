"""Machine-readable verification reports.

Every command and model verification returns one :class:`Report`: a list
of named tri-state verdicts (pass / fail / na), the derived scalars, the
run parameters, and a model's facts as attributes.  Failing verdicts carry
the label of the violated condition (the same labels the structure errors
use, e.g. ``NotStable``), so a consumer can tell stability failures from
positivity failures without parsing prose.

:meth:`Report.to_json` writes one line with sorted keys, which CPython's C
encoder serves (an ``indent`` would select its pure-Python encoder);
``python -m json.tool`` pretty-prints it.  :meth:`Report.render` is the
text form.
"""

from __future__ import annotations

import json
import math

from .scalars import EPS


PASS, FAIL, NA = "pass", "fail", "na"


class Verdict:
    def __init__(self, name, status, label="", residual=None, detail=""):
        self.name, self.status = name, status
        self.label = label
        self.residual = residual
        self.detail = detail

    def as_dict(self):
        out = {"name": self.name, "status": self.status}
        if self.label:
            out["label"] = self.label
        if self.residual is not None:
            out["residual"] = self.residual
        if self.detail:
            out["detail"] = self.detail
        return out


def _number(x):
    """float(x) for a report: None (JSON null) for None and non-finite values."""
    try:
        x = None if x is None else float(x)
    except OverflowError:   # an exact value beyond the float range
        return None
    return x if x is None or math.isfinite(x) else None


def verdict(name, ok, label="", residual=None, detail=""):
    """A pass/fail verdict; only a failing one keeps its label."""
    return Verdict(name=name, status=PASS if ok else FAIL, residual=_number(residual),
                   label="" if ok else label, detail=detail)


class Report:
    """Verdicts, scalars, run parameters and ``facts`` (kept as attributes,
    such as ``rep.certificate`` or ``rep.rows``).  Scalars stay exact until
    the report is written, by :meth:`as_dict` or :meth:`render`."""

    def __init__(self, verdicts=None, scalars=None, *, command="", inputs=None,
                 tolerance=EPS, timing_s=0.0, **facts):
        self.verdicts = [] if verdicts is None else verdicts
        self.scalars = {} if scalars is None else scalars
        self.command = command
        self.inputs = {} if inputs is None else inputs
        self.tolerance = tolerance
        self.timing_s = timing_s
        vars(self).update(facts)

    def check(self, name, ok, label="", residual=None, detail=""):
        self.verdicts.append(verdict(name, ok, label, residual, detail))
        return ok

    @property
    def ok(self):
        return all(v.status != FAIL for v in self.verdicts)

    all_pass = ok

    def as_dict(self):
        return {
            "command": self.command,
            "inputs": self.inputs,
            "verdicts": [v.as_dict() for v in self.verdicts],
            "scalars": {k: _number(v) for k, v in self.scalars.items()},
            "tolerance": self.tolerance,
            "timing_s": self.timing_s,
            "all_pass": self.all_pass,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        rep = cls(command=data["command"], inputs=data.get("inputs", {}),
                  scalars=data.get("scalars", {}),
                  tolerance=data.get("tolerance", EPS),
                  timing_s=data.get("timing_s", 0.0))
        for v in data.get("verdicts", []):
            rep.verdicts.append(Verdict(
                name=v["name"], status=v["status"], label=v.get("label", ""),
                residual=v.get("residual"), detail=v.get("detail", "")))
        return rep

    def render(self):
        lines = [f"# {self.command}"]
        for v in self.verdicts:
            mark = {"pass": "PASS", "fail": "FAIL", "na": " na "}[v.status]
            extra = ""
            if v.residual is not None and not math.isnan(v.residual):
                extra += f"  residual={v.residual:.3e}"
            if v.label:
                extra += f"  [{v.label}]"
            if v.detail:
                extra += f"  ({v.detail})"
            lines.append(f"[{mark}] {v.name}{extra}")
        for k, v in sorted(self.scalars.items()):
            lines.append(f"    {k} = {_number(v)}")
        lines.append(f"    tolerance={self.tolerance:g} "
                     f"time={self.timing_s:.2f}s")
        return "\n".join(lines)
