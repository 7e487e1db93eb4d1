"""Machine-readable verification reports.

A report is a list of named tri-state verdicts (pass / fail / na), the
derived scalars, and the run parameters.  Failing verdicts carry the label
of the violated condition (the same labels the structure errors use, e.g.
``NotStable``), so a consumer can tell stability failures from positivity
failures without parsing prose.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


PASS, FAIL, NA = "pass", "fail", "na"


@dataclass
class Verdict:
    name: str
    status: str
    label: str = ""
    residual: float = None
    detail: str = ""

    def as_dict(self):
        out = {"name": self.name, "status": self.status}
        if self.label:
            out["label"] = self.label
        if self.residual is not None:
            out["residual"] = self.residual
        if self.detail:
            out["detail"] = self.detail
        return out


def verdict(name, ok, label="", residual=None, detail=""):
    """A pass/fail verdict; only a failing one keeps its label."""
    return Verdict(name=name, status=PASS if ok else FAIL,
                   label="" if ok else label, residual=residual, detail=detail)


class Verdicts:
    """A model report that decides its named ``verdicts`` once."""

    @property
    def ok(self):
        return all(v.status != FAIL for v in self.verdicts)


@dataclass
class Report(Verdicts):
    command: str
    inputs: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    scalars: dict = field(default_factory=dict)
    tolerance: float = 1e-10
    seed: int = 0
    timing_s: float = 0.0

    def check(self, name, ok, label="", residual=None, detail=""):
        self.verdicts.append(verdict(name, ok, label, residual, detail))
        return ok

    @property
    def all_pass(self):
        return self.ok

    def scalar(self, name, value):
        self.scalars[name] = float(value) if value is not None else None

    def as_dict(self):
        return {
            "command": self.command,
            "inputs": self.inputs,
            "verdicts": [v.as_dict() for v in self.verdicts],
            "scalars": self.scalars,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "timing_s": self.timing_s,
            "all_pass": self.all_pass,
        }

    def to_json(self, indent=2):
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        rep = cls(command=data["command"], inputs=data.get("inputs", {}),
                  scalars=data.get("scalars", {}),
                  tolerance=data.get("tolerance", 1e-10),
                  seed=data.get("seed", 0), timing_s=data.get("timing_s", 0.0))
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
            lines.append(f"    {k} = {v}")
        lines.append(f"    tolerance={self.tolerance:g} seed={self.seed} "
                     f"time={self.timing_s:.2f}s")
        return "\n".join(lines)
