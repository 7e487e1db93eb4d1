import json
import os
import subprocess
import sys

import pytest

from nk6.cli import main
from nk6.report import Report

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
FIX = os.path.join(ROOT, "fixtures")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_table_exit_zero(capsys):
    code, out = run(capsys, "table")
    assert code == 0
    assert out.count("[PASS]") == 8


def test_table_json_roundtrip(capsys):
    code, out = run(capsys, "--json", "table")
    assert code == 0
    rep = Report.from_json(out)
    assert rep.all_pass
    assert Report.from_json(rep.to_json()).as_dict() == rep.as_dict()


def test_json_reports_validate_against_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    with open(os.path.join(ROOT, "schemas", "report.schema.json")) as fh:
        schema = json.load(fh)
    for argv in (["--json", "table"],
                 ["--json", "check", os.path.join(FIX, "s3xs3.json")]):
        code, out = run(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        data.pop("timing_s", None) is None
        jsonschema.validate(json.loads(out), schema)


def test_verify_unknown_space_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "torus"])
    assert exc.value.code == 2


def test_no_command_prints_help(capsys):
    assert main([]) == 2


def test_check_fixture_passes(capsys):
    code, out = run(capsys, "check", os.path.join(FIX, "s3xs3.json"))
    assert code == 0
    assert "[FAIL]" not in out


def test_check_cone_flag(capsys):
    code, out = run(capsys, "--json", "check", os.path.join(FIX, "s3xs3.json"),
                    "--cone")
    assert code == 0
    rep = Report.from_json(out)
    names = [v.name for v in rep.verdicts]
    assert any("cone form closed" in n for n in names)
    assert rep.scalars["mu"] == pytest.approx(1 / (2 * 3 ** 0.5), abs=1e-12)


def test_check_unstable_fixture_fails(tmp_path, capsys):
    from fractions import Fraction
    from nk6 import s3xs3
    from nk6.spacefile import dump_space

    text = dump_space(s3xs3.cyclic_space(),
                      forms={"omega": s3xs3.omega_diagonal(
                          Fraction(1), Fraction(1), Fraction(3))})
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out = run(capsys, "--json", "check", str(path))
    assert code == 1
    rep = Report.from_json(out)
    fails = [v for v in rep.verdicts if v.status == "fail"]
    assert fails and fails[0].label == "NotStable"


def test_check_malformed_file_is_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": 3, "structure_constants": '
                    '[[0, 1, 0, "1"], [1, 2, 1, "1"], [0, 2, 2, "-1"]]}')
    code = main(["check", str(path)])
    assert code == 2


def test_check_missing_form_is_exit_two(capsys):
    code = main(["check", os.path.join(FIX, "s3xs3.json"),
                 "--omega", "nonexistent"])
    assert code == 2


def test_check_psi_of_wrong_degree_is_exit_two(capsys):
    code = main(["check", os.path.join(FIX, "s3xs3.json"), "--psi", "omega"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: $.forms.omega: degree must be 3\n"


def test_reports_deterministic(capsys):
    code1, out1 = run(capsys, "--json", "--seed", "3", "verify", "s6",
                      "--samples", "10")
    code2, out2 = run(capsys, "--json", "--seed", "3", "verify", "s6",
                      "--samples", "10")
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timing_s")
    b.pop("timing_s")
    assert a == b


def test_verify_flag_small_grid(capsys):
    code, out = run(capsys, "verify", "flag", "--grid", "2")
    assert code == 0
    assert "[FAIL]" not in out


def test_check_uses_supplied_metric(capsys):
    code, out = run(capsys, "--json", "check", os.path.join(FIX, "flag.json"))
    assert code == 0
    rep = Report.from_json(out)
    names = [v.name for v in rep.verdicts]
    assert any("supplied metric" in n for n in names)
    assert any("verdicts agree" in n for n in names)
    assert rep.all_pass
    assert rep.scalars["metric_scale"] > 0


def test_check_with_named_psi_and_float_mode(tmp_path, capsys):
    from fractions import Fraction
    from nk6 import s3xs3
    from nk6.lie import ce_differential
    from nk6.spacefile import dump_space

    space = s3xs3.cyclic_space()
    om = s3xs3.omega_diagonal(Fraction(1), Fraction(1), Fraction(1))
    psi = ce_differential(space, om) / 3
    path = tmp_path / "named.json"
    path.write_text(dump_space(space, forms={"omega": om, "psi3": psi}))
    code, out = run(capsys, "--json", "check", str(path), "--psi", "psi3")
    assert code == 0
    rep = Report.from_json(out)
    assert rep.scalars["mu"] == pytest.approx(1 / (2 * 3 ** 0.5), abs=1e-12)

    code2, out2 = run(capsys, "--json", "--scalar", "float", "check", str(path))
    assert code2 == 0
    rep2 = Report.from_json(out2)
    assert rep2.scalars["mu"] == pytest.approx(1 / (2 * 3 ** 0.5), abs=1e-10)


def test_check_cone_builds_the_structure_once(monkeypatch, capsys):
    import sys
    from nk6 import hitchin

    calls = []
    original = hitchin.build_su3

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("nk6") and getattr(module, "build_su3", None) is original:
            monkeypatch.setattr(module, "build_su3", counting)
    code, _ = run(capsys, "check", os.path.join(FIX, "s3xs3.json"), "--cone")
    assert code == 0
    assert len(calls) == 1


def test_check_builds_the_lie_algebra_once(monkeypatch, capsys):
    from nk6 import lie

    calls = []
    original = lie.LieAlgebraData.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(lie.LieAlgebraData, "__init__", counting)
    code, _ = run(capsys, "check", os.path.join(FIX, "flag.json"))
    assert code == 0
    assert len(calls) == 1


def test_check_marks_float_fallback(tmp_path, capsys):
    with open(os.path.join(FIX, "s3xs3.json")) as fh:
        doc = json.load(fh)
    for term, coeff in zip(doc["forms"]["omega"], ("1", "2", "2")):
        term[1] = coeff
    path = tmp_path / "s3xs3_122.json"
    path.write_text(json.dumps(doc))
    fallback = "float arithmetic: kappa not in Q(sqrt 3)"

    _, out = run(capsys, "--json", "check", str(path), "--cone")
    build = Report.from_json(out).verdicts[0]
    assert build.status == "pass" and build.detail == fallback
    # float inputs and an exact build in Q(sqrt 3) are not fallbacks
    _, out = run(capsys, "--json", "--scalar", "float", "check", str(path))
    assert Report.from_json(out).verdicts[0].detail == ""
    _, out = run(capsys, "--json", "check", os.path.join(FIX, "s3xs3.json"))
    assert Report.from_json(out).verdicts[0].detail == ""


@pytest.mark.parametrize("argv,name,certificate", [
    (["verify", "s3xs3"],
     "uniqueness certificate (no admissible non-equal solution)",
     "certificate S^3xS^3 (l1^2, l2^2, l3^2): 8 branches, "
     "solution ray (1, 1, 1)"),
    (["solve-s3xs3"],
     "uniqueness certificate (no admissible non-equal solution)",
     "certificate S^3xS^3 (l1^2, l2^2, l3^2): 8 branches, "
     "solution ray (1, 1, 1)"),
    (["verify", "flag", "--grid", "2"], "nearly Kahler verdict iff r = s = t",
     "certificate flag (r, s, t): 1 branch, solution ray (1, 1, 1)"),
    (["verify", "cp3"], "unique nearly Kahler fiber scaling",
     "certificate CP^3 fiber -1 (a, t): 1 branch, solution ray (1, 1/2); "
     "certificate CP^3 fiber +1 (a, t): 1 branch, no solution"),
], ids=["s3xs3", "solve", "flag", "cp3"])
def test_uniqueness_verdicts_name_their_certificates(capsys, argv, name,
                                                     certificate):
    code, out = run(capsys, "--json", "--threads", "1", *argv)
    assert code == 0
    rep = Report.from_json(out)
    verdict = next(v for v in rep.verdicts if v.name == name)
    assert verdict.status == "pass"
    assert verdict.detail == certificate
    assert verdict.residual is None
    assert not any("sweep" in v.name for v in rep.verdicts)


def test_verify_cp3_reports_exact_scalings(capsys):
    code, out = run(capsys, "--json", "verify", "cp3")
    assert code == 0
    scalars = Report.from_json(out).scalars
    assert (scalars["t_nk"], scalars["t_kahler"], scalars["ratio"]) == \
        (0.5, 1.0, 2.0)


def _s3xs3_copy(tmp_path, edit):
    with open(os.path.join(FIX, "s3xs3.json")) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


def _set_coefficient(value):
    return lambda doc: doc["forms"]["omega"][0].__setitem__(1, value)


@pytest.mark.parametrize("edit,path", [
    (_set("basis", 5), "$.basis"),
    (_set("basis", ["e1", "e2"]), "$.basis"),
    (_set("h_indices", ["a"]), "$.h_indices"),
    (_set("m_indices", [0, 1, 2, 3, 4, 4]), "$.m_indices"),
    (_set("m_indices", [0, 1, 2, 3, 4, 9]), "$.m_indices"),
    (_set("structure_constants", 5), "$.structure_constants"),
    (_set("forms", [1]), "$.forms"),
    (_set("forms", {"omega": [[[[0]], "1"]]}), "$.forms.omega[0]"),
    (_set("metric", 5), "$.metric"),
    (_set("metric", [1, 2, 3, 4, 5, 6]), "$.metric"),
    (_set_coefficient(float("nan")), "$.forms.omega[0]"),
    (_set_coefficient(float("inf")), "$.forms.omega[0]"),
    (_set_coefficient(float("-inf")), "$.forms.omega[0]"),
    (lambda doc: doc["forms"]["omega"].append([[0, 0], "5"]),
     "$.forms.omega[3]"),
    (_set("dimension", 120), "$.dimension"),
], ids=["basis-int", "basis-short", "h-str", "m-repeated", "m-range",
        "constants-int", "forms-list", "form-index-list", "metric-int",
        "metric-flat", "nan", "inf", "-inf", "form-index-repeated",
        "dimension-large"])
def test_malformed_space_document_is_exit_two(tmp_path, capsys, edit, path):
    code = main(["check", _s3xs3_copy(tmp_path, edit)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {path}")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["table"], ["verify", "flag", "--grid", "1"], ["solve-s3xs3"]])
def test_scalar_float_outside_check_is_usage_error(capsys, argv):
    code = main(["--scalar", "float"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --scalar float applies only to check\n"
    assert captured.out == ""


def test_import_leaves_numpy_out():
    src = os.path.abspath(os.path.join(ROOT, "src"))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, nk6.cli, nk6.spaces, nk6.s3xs3, nk6.poly; "
         "print('numpy' in sys.modules, 'sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False False"
