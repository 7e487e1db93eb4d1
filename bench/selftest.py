#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks: they can fail.

Usage, from the repository root:  python3 bench/selftest.py

Runs a few real nk6 commands, confirms that their reports pass the checks,
then tampers with each report (a wrong mu, a flipped verdict, a float
residual where exact arithmetic must give 0.0, a wrong CP^3 scaling, a wrong
table row, ...) and confirms that the workload counts every tampered
operation as failed.  Also confirms that BENCHMARK.json names exactly the
metrics run.py prints.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import tempfile
from pathlib import Path

import candidates
import run
from checks import Checker, PairCheck


def tampered(result, edit):
    rep = json.loads(result.stdout)
    code = edit(rep)
    return run.Result(result.code if code is None else code, json.dumps(rep),
                      result.stderr, result.seconds)


def set_scalar(name, value):
    def edit(rep):
        rep["scalars"][name] = value
    return edit


def set_residual(prefix, value):
    def edit(rep):
        for v in rep["verdicts"]:
            if v["name"].startswith(prefix):
                v["residual"] = value
    return edit


def flip_verdict(rep):
    v = rep["verdicts"][-1]
    v["status"], v["label"] = "fail", "cone-coclosed"
    rep["all_pass"] = False
    return 1


def flip_exit_only(rep):
    return 1


def extra_key(rep):
    rep["unexpected"] = True


def wrong_table_row(rep):
    rep["verdicts"][0]["name"] = "u(1) in su(2)+su(2) -> S3xS3"


def main():
    ok = True

    def expect(label, problems, want_fail):
        nonlocal ok
        good = bool(problems) == want_fail
        ok &= good
        state = "counted failed" if problems else "passes"
        print(f"{'ok ' if good else 'BAD'} {label}: {state}"
              + (f" ({problems[0]})" if problems else ""))

    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        ctx = run.Context(seed=0, run_dir=Path(tmp))
        checker = Checker(run.ROOT)
        cold = run.CliCold(ctx, checker)
        ops = {argv[1] if name == "check" else name: (name, argv, exp)
               for name, argv, exp in cold.rotation}

        # cli-cold: the workload's own check() decides what counts as failed
        def cold_case(label, key, edit=None):
            op = ops[key]
            result = ctx.nk6(op[1])
            if edit is not None:
                result = tampered(result, edit)
            (_, problems), = cold.check([op], [result])
            expect(label, problems, edit is not None)

        s3 = "fixtures/s3xs3.json"
        cold_case("check s3xs3 as reported", s3)
        cold_case("check s3xs3, wrong mu", s3, set_scalar("mu", 0.3))
        cold_case("check s3xs3, flipped verdict", s3, flip_verdict)
        cold_case("check s3xs3, exit code disagrees with verdict", s3, flip_exit_only)
        cold_case("check s3xs3, float near-zero residual", s3,
                  set_residual("second structure equation", 1e-17))
        cold_case("check s3xs3, report outside the schema", s3, extra_key)
        cold_case("table as reported", "table")
        cold_case("table, row with dim g - dim h != 6", "table", wrong_table_row)

        # verify-models
        verify = run.VerifyModels(ctx, checker)
        cp3 = [p for p in verify.PASS if p[0] == "verify cp3"]
        good = ctx.nk6(cp3[0][1])
        for label, edit in (("verify cp3 as reported", None),
                            ("verify cp3, wrong t_nk", set_scalar("t_nk", 0.51)),
                            ("verify cp3, wrong ratio", set_scalar("ratio", 1.0))):
            result = good if edit is None else tampered(good, edit)
            (_, problems), = verify.check(cp3, [result])
            expect(label, problems, edit is not None)

        # check-candidates: float re-check and the CP^3 fiber pair
        stream = candidates.CandidateStream(candidates.load_fixtures(run.ROOT),
                                            random.Random(0))
        doc, exp = stream.make("s3-nk")[0]
        path = Path(tmp) / "candidate.json"
        path.write_text(json.dumps(doc))
        exact = ctx.nk6(["check", str(path), "--cone"])
        floated = ctx.nk6(["--scalar", "float", "check", str(path), "--cone"])
        expect("s3-nk candidate as reported", checker.candidate(exact, exp), False)
        expect("s3-nk candidate, wrong mu",
               checker.candidate(tampered(exact, set_scalar("mu", exp["mu"] * 2)), exp), True)
        expect("float re-check as reported", checker.same_verdict(exact, floated), False)
        expect("float re-check, flipped verdict",
               checker.same_verdict(exact, tampered(floated, flip_verdict)), True)
        pair = stream.make("cp3-half-pair")
        results = []
        for doc, exp in pair:
            path.write_text(json.dumps(doc))
            results.append((exp, ctx.nk6(["check", str(path), "--cone"])))
        expect("CP^3 t = 1/2 pair as reported", PairCheck()(results), False)
        both = [(exp, copy.copy(r)) for exp, r in results]
        for _, r in both:
            r.code = 0
        expect("CP^3 t = 1/2 pair, both fiber signs pass", PairCheck()(both), True)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names_ok = ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
                == list(run.END_TO_END.items())
                and [(m["name"], m["unit"]) for m in spec["per_layer"]]
                == list(run.per_layer_names().items()))
    ok &= names_ok
    print(f"{'ok ' if names_ok else 'BAD'} BENCHMARK.json names the metrics run.py prints")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
