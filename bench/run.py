#!/usr/bin/env python3
"""Benchmark of the nk6 command line and library entry point.

Usage, from the repository root:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each one exists):

- ``cli-cold``: one ``python -m nk6.cli`` command per fresh interpreter, in a
  fixed rotation of ``check fixtures/{s3xs3,flag,cp3}.json --cone`` and
  ``table`` (twice); an operation is one command.
- ``verify-models``: an operation is one pass of ``verify s3xs3``,
  ``verify flag --grid 4``, ``verify cp3`` and ``verify s6 --samples 100``,
  each in a fresh interpreter.
- ``check-candidates``: ``nk6.cli.main(["--json", "check", FILE, "--cone"])``
  called in one long-lived process on seeded candidate documents; an
  operation is one batch of 22 such calls.

Every operation's output is checked (bench/checks.py); an operation with a
problem counts as failed.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run and its overhead against untraced rounds of the same
run.  Every end-to-end time metric is scaled to a reference host speed,
measured by bench/reference.py in fresh interpreters spread over the run.
Progress, the make-up of the run and the unscaled figures go to standard
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import candidates
import reference
import tracer
from checks import Checker, PairCheck

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".bench_run"

COMMON = ["--json", "--threads", "1"]
SETUP_SAMPLES = 15
REFERENCE_SAMPLES = 15
IMPORTTIME_SAMPLES = 5
OP_TIMEOUT = 120
# the percentile reported as latency_tail_ms; each needs ten samples beyond it
TAIL_PERCENTILE = {"cli-cold": 80.0, "verify-models": 50.0, "check-candidates": 50.0}
LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    seconds: float
    rss_kb: int = 0  # peak resident set of the process that ran the operation


def per_layer_names():
    """Every per-layer metric with its unit, in output order."""
    names = {"startup.import_nk6_ms": "ms", "startup.import_numpy_ms": "ms"}
    for fn in tracer.FUNCTIONS:
        names[f"{fn}.calls"] = "calls/op"
        names[f"{fn}.self_ms"] = "ms/op"
    for counter in tracer.COUNTERS:
        names[counter] = "count/op"
    names["trace.overhead_pct"] = "%"
    return names


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class Context:
    """Paths, environment and trace files shared by a run's workload."""

    def __init__(self, seed, run_dir):
        self.seed = seed
        self.run_dir = run_dir
        self.env = dict(os.environ)
        path = [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        self.layers = defaultdict(float)
        self._traces = 0

    def trace_file(self):
        self._traces += 1
        return self.run_dir / f"trace-{self._traces}.json"

    def collect(self, path):
        with open(path) as fh:
            tracer.aggregate(json.load(fh), self.layers)
        os.unlink(path)

    def python(self, args):
        """A fresh interpreter, reaped with os.wait4 for its own peak RSS."""
        with tempfile.TemporaryFile(dir=self.run_dir) as out, \
                tempfile.TemporaryFile(dir=self.run_dir) as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(OP_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Result(proc.returncode, out.read().decode(), err.read().decode(),
                          seconds, usage.ru_maxrss)

    def nk6(self, argv, traced=False):
        """One nk6 command in a fresh interpreter."""
        argv = COMMON + ["--seed", str(self.seed)] + argv
        if not traced:
            return self.python(["-m", "nk6.cli", *argv])
        path = self.trace_file()
        result = self.python([str(HERE / "traced_cli.py"), str(path), *argv])
        self.collect(path)
        return result


# ---------------------------------------------------------------------------
# workloads: prepare() is untimed, execute() is timed, check() is untimed
class CliCold:
    def __init__(self, ctx, checker):
        self.ctx, self.checker = ctx, checker
        fixtures = candidates.load_fixtures(ROOT)
        check = {name: ("check", ["check", f"fixtures/{name}.json", "--cone"],
                        candidates.fixture_expectation(name, fixtures[name]))
                 for name in ("s3xs3", "flag", "cp3")}
        table = ("table", ["table"], None)
        # by cost: table < check s3xs3 < check flag ~ check cp3; with table
        # twice the median and p80 fall inside a command's cluster, not
        # between two of them
        rotation = [check["s3xs3"], table, check["flag"], table, check["cp3"]]
        start = ctx.seed % len(rotation)
        self.rotation = rotation[start:] + rotation[:start]

    def prepare(self):
        return self.rotation

    def execute(self, ops, traced):
        return [self.ctx.nk6(argv, traced) for _, argv, _ in ops]

    def check(self, ops, results):
        return [(r.seconds, self.checker.command(name, r, expect))
                for (name, _, expect), r in zip(ops, results)]


class VerifyModels:
    PASS = (("verify s3xs3", ["verify", "s3xs3"]),
            ("verify flag", ["verify", "flag", "--grid", "4"]),
            ("verify cp3", ["verify", "cp3"]),
            ("verify s6", ["verify", "s6", "--samples", "100"]))

    def __init__(self, ctx, checker):
        self.ctx, self.checker = ctx, checker

    def prepare(self):
        return self.PASS

    def execute(self, ops, traced):
        return [self.ctx.nk6(argv, traced) for _, argv in ops]

    def check(self, ops, results):
        problems = []
        for (name, _), r in zip(ops, results):
            problems += [f"{name}: {p}" for p in self.checker.command(name, r)]
        return [(sum(r.seconds for r in results), problems)]


class CheckCandidates:
    def __init__(self, ctx, checker, traced_run):
        self.ctx, self.checker = ctx, checker
        self.stream = candidates.CandidateStream(candidates.load_fixtures(ROOT),
                                                 random.Random(ctx.seed))
        self.pairs = PairCheck()
        self.mix = {}
        self.trace_path = ctx.trace_file() if traced_run else None
        args = [sys.executable, str(HERE / "worker.py")]
        if self.trace_path:
            args.append(str(self.trace_path))
        self.proc = subprocess.Popen(args, cwd=ROOT, env=ctx.env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.trace_path and self.trace_path.exists():
            self.ctx.collect(self.trace_path)

    def prepare(self):
        ops = []
        for pos, (doc, expect, recheck) in enumerate(self.stream.next_round()):
            path = self.ctx.run_dir / f"candidate-{pos}.json"
            path.write_text(json.dumps(doc))
            argv = ["--json", "check", str(path.relative_to(ROOT)), "--cone"]
            ops.append((argv, expect, None))
            if recheck:
                ops.append((["--json", "--scalar", "float"] + argv[1:], expect, len(ops) - 1))
        return ops

    def call(self, argv, traced):
        self.proc.stdin.write(json.dumps({"argv": argv, "trace": traced}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        reply = json.loads(line)
        return Result(reply["code"], reply["stdout"], reply["stderr"], reply["seconds"],
                      reply["rss_kb"])

    def execute(self, ops, traced):
        return [self.call(argv, traced) for argv, _, _ in ops]

    def check(self, ops, results):
        pair = [(expect, r) for (_, expect, exact_index), r in zip(ops, results)
                if exact_index is None and expect["kind"] == "cp3-half-pair"]
        problems = self.pairs(pair)
        for pos, ((_, expect, exact_index), r) in enumerate(zip(ops, results)):
            if exact_index is None:
                found = self.checker.candidate(r, expect)
                self._count(expect["kind"], r)
            else:
                found = (self.checker.candidate(r, expect, float_mode=True)
                         + self.checker.same_verdict(results[exact_index], r))
                self._count("float-recheck", r)
            problems += [f"check {pos} ({expect['kind']}): {p}" for p in found]
        # the operation is the whole batch (see bench/README.md)
        return [(sum(r.seconds for r in results), problems)]

    def _count(self, kind, result):
        try:
            rep = json.loads(result.stdout)
            built = rep["verdicts"][0]["status"] == "pass"
            outcome = "pass" if rep["all_pass"] else ("fail" if built else "rejected")
        except (ValueError, KeyError, IndexError):
            outcome = "error"
        key = f"{kind}:{outcome}"
        self.mix.setdefault(key, []).append(result.seconds)


# ---------------------------------------------------------------------------
def percentile(values, p):
    xs = sorted(values)
    rank = p / 100 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n, preferred):
    """The highest percentile up to ``preferred`` with ten samples beyond it."""
    if n < 40:
        return 50.0
    for p in LADDER:
        if p <= preferred and n * (1 - p / 100) >= 10:
            return p
    return 50.0


class Sampler:
    """Wall times of one fresh-interpreter command, spread over the run.

    Machine speed on a shared host drifts over seconds, so the samples are
    taken at evenly spaced moments between rounds, not in one burst.  The
    setup sampler runs ``import nk6.cli`` (its median is ``setup_s``), the
    reference sampler bench/reference.py (its mean gives the host speed).
    """

    def __init__(self, ctx, seconds, args, count):
        self.ctx, self.args, self.count = ctx, args, count
        self.interval = seconds / count
        self.samples = []
        self.run()  # untimed: compiles bytecode once

    def run(self):
        result = self.ctx.python(self.args)
        if result.code != 0:
            raise RuntimeError(f"{' '.join(self.args)} failed: {result.stderr.strip()[-300:]}")
        return result.seconds

    def due(self, elapsed):
        while len(self.samples) < min(self.count, int(elapsed / self.interval) + 1):
            self.samples.append(self.run())

    def all(self):
        while len(self.samples) < self.count:
            self.samples.append(self.run())
        return self.samples


def import_times(ctx):
    """Medians of -X importtime: all of nk6 (with numpy) and numpy alone, in ms."""
    nk6_ms, numpy_ms = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        r = ctx.python(["-X", "importtime", "-c", "import nk6.cli"])
        top, numpy = 0, None
        for line in r.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            if name.startswith(" nk6") and not name.startswith("  "):
                top += int(cumulative)
            if name.strip() == "numpy" and numpy is None:
                numpy = int(cumulative)
        nk6_ms.append(top / 1000)
        numpy_ms.append((numpy or 0) / 1000)
    return statistics.median(nk6_ms), statistics.median(numpy_ms)


def measure(workload, seconds, traced_run, between=None):
    """Run whole rounds until ``seconds`` have passed; return per-round records.

    ``between(elapsed)`` runs before each round, outside its timing.  In a
    traced run every round runs twice on the same inputs, untraced and then
    traced, so the two walls give the tracing overhead.
    """
    rounds = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not rounds:
        if between is not None:
            between(time.perf_counter() - start)
        ops = workload.prepare()
        for traced in ((False, True) if traced_run else (False,)):
            t0 = time.perf_counter()
            results = workload.execute(ops, traced)
            wall = time.perf_counter() - t0
            rounds.append({"traced": traced, "wall": wall,
                           "rss_kb": max(r.rss_kb for r in results),
                           "ops": workload.check(ops, results)})
    return rounds


def run(args, run_dir):
    ctx = Context(args.seed, run_dir)
    checker = Checker(ROOT)
    traced_run = bool(args.trace)
    if traced_run:
        import_nk6_ms, import_numpy_ms = import_times(ctx)
        between = None
    else:
        setup = Sampler(ctx, args.seconds, ["-c", "import nk6.cli"], SETUP_SAMPLES)
        host = Sampler(ctx, args.seconds, [str(HERE / "reference.py")], REFERENCE_SAMPLES)

        def between(elapsed):
            setup.due(elapsed)
            host.due(elapsed)

    if args.workload == "cli-cold":
        workload = CliCold(ctx, checker)
    elif args.workload == "verify-models":
        workload = VerifyModels(ctx, checker)
    else:
        workload = CheckCandidates(ctx, checker, traced_run)
    try:
        rounds = measure(workload, args.seconds, traced_run, between)
    finally:
        if isinstance(workload, CheckCandidates):
            workload.close()

    ops = [op for r in rounds for op in r["ops"]]
    failed = [problems for _, problems in ops if problems]
    for problems in failed[:5]:
        log("FAILED:", "; ".join(problems))
    plain = [r for r in rounds if not r["traced"]]
    latencies = [s for r in plain for s, _ in r["ops"]]
    log(f"{args.workload}: {len(rounds)} rounds, {len(ops)} operations, {len(failed)} failed")
    if isinstance(workload, CheckCandidates):
        checks = sum(len(seconds) for seconds in workload.mix.values())
        for key, seconds in sorted(workload.mix.items()):
            log(f"  {key}: {len(seconds)} ({100 * len(seconds) / checks:.1f}%),"
                f" median {1000 * statistics.median(seconds):.1f} ms")

    if traced_run:
        traced = [r for r in rounds if r["traced"]]
        n_traced = sum(len(r["ops"]) for r in traced)
        overhead = (sum(s for r in traced for s, _ in r["ops"])
                    / sum(latencies) - 1) * 100
        values = {"startup.import_nk6_ms": import_nk6_ms,
                  "startup.import_numpy_ms": import_numpy_ms}
        for name in per_layer_names():
            values.setdefault(name, ctx.layers.get(name, 0) / n_traced)
        values["trace.overhead_pct"] = overhead
        log(f"  traced operations: {n_traced}, tracing overhead {overhead:.1f}%")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_names().items()}
    else:
        wall = sum(r["wall"] for r in plain)
        p_tail = tail_percentile(len(latencies), TAIL_PERCENTILE[args.workload])
        # times at the reference host speed (bench/reference.py)
        speed = reference.REFERENCE_SECONDS / statistics.fmean(host.all())
        raw = {"setup_s": statistics.median(setup.all()),
               "throughput_per_s": len(latencies) / wall,
               "latency_p50_ms": statistics.median(latencies) * 1000,
               "latency_tail_ms": percentile(latencies, p_tail) * 1000}
        log(f"  latency_tail_ms is p{p_tail:g} of {len(latencies)} operations")
        log(f"  reference program: mean {statistics.fmean(host.samples):.4f} s of"
            f" {len(host.samples)}, speed factor {speed:.4f}; unscaled: "
            + ", ".join(f"{name} {value:.4g}" for name, value in raw.items()))
        values = {
            "setup_s": raw["setup_s"] * speed,
            "throughput_per_s": raw["throughput_per_s"] / speed,
            "latency_p50_ms": raw["latency_p50_ms"] * speed,
            "latency_tail_ms": raw["latency_tail_ms"] * speed,
            "peak_rss_mb": max(r["rss_kb"] for r in plain) / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-cold", "verify-models", "check-candidates"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/nk6/cli.py", "fixtures/cp3.json", "schemas/report.schema.json")
               if not (ROOT / p).is_file()]
    if missing:
        log(f"error: {ROOT} is not an nk6 checkout (missing {', '.join(missing)})")
        return 2

    if hasattr(os, "sched_setaffinity"):
        # one core for this process and every process it starts, so that the
        # operations and the reference program share the speed of one core
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    RUN_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        out = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
