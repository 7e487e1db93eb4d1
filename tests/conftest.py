import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from nk6.hitchin import StructureError, build_either_orientation, nk_check  # noqa: E402


def pipeline_nk_verdict(omega, differential):
    """The sampled oracle behind the certificates: build at one point, then
    decide the first-order system there."""
    try:
        s, _ = build_either_orientation(omega, differential(omega) / 3)
    except StructureError:
        return False
    return nk_check(s, differential).verdict


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid or rep.when != "call":
                continue
            name = nodeid.split("::")[-1]
            lines.append((name, "PASS" if status == "passed" else "FAIL"))
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, status in sorted(lines):
        terminalreporter.write_line(f"[{status}] {name}")
