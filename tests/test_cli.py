import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from nk6.cli import main
from nk6.report import Report
from nk6.scalars import EPS

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


@pytest.mark.parametrize("argv", [
    ["table"], ["verify", "s6"], ["check", os.path.join(FIX, "flag.json"), "--cone"],
    ["--scalar", "float", "check", os.path.join(FIX, "cp3.json"), "--cone"]])
def test_json_report_is_one_line_with_sorted_keys(capsys, argv):
    # the C encoder's output: no indent, keys sorted at every level
    code, out = run(capsys, "--json", *argv)
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    assert out[:-1] == json.dumps(json.loads(out), sort_keys=True)


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


CANDIDATES = os.path.join(ROOT, "tests", "golden", "candidates")


def test_check_cone_flag(capsys):
    # check always decides the cone: --cone is accepted and changes nothing,
    # in the text and the --json report, on the fixtures and the golden
    # candidates, exact and in floats
    paths = [os.path.join(FIX, f"{name}.json") for name in ("s3xs3", "flag", "cp3")]
    paths += sorted(os.path.join(CANDIDATES, f) for f in os.listdir(CANDIDATES))
    assert len(paths) == 23
    for path in paths:
        for scalar in ("exact", "float"):
            for json_flag in ([], ["--json"]):
                argv = [*json_flag, "--scalar", scalar, "check", path]
                (code, out), (cone_code, cone_out) = (
                    run(capsys, *argv), run(capsys, *argv, "--cone"))
                assert code == cone_code
                if json_flag:
                    out, cone_out = json.loads(out), json.loads(cone_out)
                    del out["timing_s"], cone_out["timing_s"]
                else:
                    out, cone_out = (re.sub(r" time=\S+s$", "", text, flags=re.M)
                                     for text in (out, cone_out))
                assert out == cone_out, argv
    rep = Report.from_json(run(capsys, "--json", "check", paths[0])[1])
    assert [v.name for v in rep.verdicts][-2:] == [
        "cone form closed", "cone form coclosed"]
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
    code1, out1 = run(capsys, "--json", "verify", "s6")
    code2, out2 = run(capsys, "--json", "verify", "s6")
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timing_s")
    b.pop("timing_s")
    assert a == b
    assert "seed" not in a


def test_verify_flag_passes(capsys):
    code, out = run(capsys, "verify", "flag")
    assert code == 0
    assert "[FAIL]" not in out


def test_verify_s6_is_exact(capsys):
    code, out = run(capsys, "--json", "verify", "s6")
    assert code == 0
    rep = Report.from_json(out)
    assert rep.all_pass
    assert rep.scalars == {"g2_dimension": 14, "orbit_rank": 6,
                           "isotropy_dimension": 8, "g2_identity_constant": -6}
    residuals = [v.residual for v in rep.verdicts if v.residual is not None]
    assert residuals and all(r == 0.0 for r in residuals)
    assert rep.inputs == {}


# the argv that bench/run.py builds: COMMON, then --seed, then the command
BENCH_PREFIX = ["--json", "--threads", "1", "--seed", "7"]


@pytest.mark.parametrize("argv,extra", [
    (["verify", "s3xs3"], []), (["verify", "flag"], ["--grid", "4"]),
    (["verify", "cp3"], []), (["verify", "s6"], ["--samples", "100"]),
    (["table"], [])], ids=["s3xs3", "flag", "cp3", "s6", "table"])
def test_benchmark_argv_options_have_no_effect(capsys, argv, extra):
    code, out = run(capsys, *BENCH_PREFIX, *argv, *extra)
    bare_code, bare_out = run(capsys, "--json", *argv)
    assert code == bare_code == 0
    a, b = json.loads(out), json.loads(bare_out)
    a.pop("timing_s")
    b.pop("timing_s")
    assert a == b


@pytest.mark.parametrize("argv,tamper", [
    *((["verify", m], False) for m in ("s3xs3", "flag", "cp3", "s6")),
    (["solve-s3xs3"], False),
    *((["check", os.path.join(FIX, f"{f}.json"), "--cone"], False)
      for f in ("s3xs3", "flag", "cp3")),
    (["verify", "s3xs3"], True)],
    ids=["verify-s3xs3", "verify-flag", "verify-cp3", "verify-s6",
         "solve-s3xs3", "check-s3xs3", "check-flag", "check-cp3",
         "verify-s3xs3-tampered"])
def test_each_command_builds_the_structure_once(monkeypatch, capsys, argv,
                                                tamper):
    # every module's name for build_su3 is counted; the tampered su(2)
    # constants fail the certificate, so solve_nk builds omega(1, 1, 1)
    from conftest import tampered_su2_space
    from nk6 import hitchin, s3xs3

    if tamper:
        monkeypatch.setattr(s3xs3, "_SPACE", tampered_su2_space())
    calls = []
    original = hitchin.build_su3

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("nk6") and getattr(module, "build_su3", None) is original:
            monkeypatch.setattr(module, "build_su3", counting)
    code, _ = run(capsys, *argv)
    assert code == (1 if tamper else 0)
    assert len(calls) == 1


def test_check_uses_supplied_metric(capsys):
    code, out = run(capsys, "--json", "check", os.path.join(FIX, "flag.json"))
    assert code == 0
    rep = Report.from_json(out)
    names = [v.name for v in rep.verdicts]
    assert any("supplied metric" in n for n in names)
    assert any("verdicts agree" in n for n in names)
    assert rep.all_pass
    assert rep.scalars["metric_scale"] > 0


def _with_metric(tmp_path, name, metric):
    """A copy of a fixture whose metric is ``metric`` (rows of strings), or,
    given a function, that function of each entry of the fixture's metric."""
    with open(os.path.join(FIX, f"{name}.json")) as fh:
        doc = json.load(fh)
    if callable(metric):
        metric = [[metric(Fraction(x)) for x in row] for row in doc["metric"]]
    doc["metric"] = metric
    path = tmp_path / f"{name}_metric.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("scalar", ["exact", "float"])
@pytest.mark.parametrize("metric", ["negated", "zero", "tiny"])
def test_homothety_needs_a_positive_scale(metric, scalar, tmp_path, capsys):
    # -g and 0 are multiples of g, by -1 and 0, but not homotheties; 10^-12 g
    # in JSON floats is one, and its inverse is not singular at any scale
    make = {"negated": lambda x: str(-x), "zero": lambda x: "0",
            "tiny": lambda x: float(x) * 1e-12}[metric]
    path = _with_metric(tmp_path, "cp3", make)
    code, out = run(capsys, "--json", "--scalar", scalar, "check", path, "--cone")
    rep = Report.from_json(out)
    if metric == "tiny":
        assert code == 0 and rep.all_pass
        assert rep.scalars["metric_scale"] == pytest.approx(1e-12)
        return
    assert code == 1
    [homothety] = [v for v in rep.verdicts if v.label == "metric"]
    assert homothety.status == "fail"
    assert homothety.name == "supplied metric is the induced one up to homothety"
    assert rep.scalars["metric_scale"] == {"negated": -1.0, "zero": 0.0}[metric]
    [nabla_j] = [v for v in rep.verdicts if v.name.startswith("connection-level")]
    if metric == "zero":   # the exact proof and the float inverse say so alike
        assert nabla_j.status == "fail" and nabla_j.detail == "matrix is singular"
    else:
        assert nabla_j.status == "pass"


def test_check_cone_with_a_metric_inverts_nothing(monkeypatch, capsys, tmp_path):
    # an exact supplied metric is proved invertible without its inverse, and
    # the cone star takes the build's g^-1: no smallmat.inv on any fixture
    from nk6 import smallmat

    # the S^3 x S^3 metric is sqrt 3 / 3 times this one
    s3 = [["2" if i == j else "-1" if abs(i - j) == 3 else "0" for j in range(6)]
          for i in range(6)]
    paths = [_with_metric(tmp_path, "s3xs3", s3)]
    paths += [os.path.join(FIX, f"{name}.json") for name in ("flag", "cp3")]
    calls = _count_calls(monkeypatch, smallmat, "inv")
    for path in paths:
        code, out = run(capsys, "--json", "check", path, "--cone")
        assert code == 0, path
        assert "connection-level" in out
        assert not calls, path


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


@pytest.fixture
def cold_space_cache():
    """An empty cache of validated algebras, so that builds can be counted."""
    from nk6.spacefile import _SPACES

    _SPACES.clear()
    yield
    _SPACES.clear()


def test_check_builds_the_lie_algebra_once(monkeypatch, capsys, tmp_path,
                                           cold_space_cache):
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
    # a second document on the same algebra reuses the validated space
    with open(os.path.join(FIX, "flag.json")) as fh:
        doc = json.load(fh)
    doc.pop("metric")
    for term in doc["forms"]["omega"]:
        term[1] = str(2 * Fraction(term[1]))
    path = tmp_path / "flag_scaled.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "check", str(path), "--cone")
    assert code == 0
    assert len(calls) == 1


CANDIDATE_06 = os.path.join(ROOT, "tests", "golden", "candidates", "candidate-06.json")


def _scaled_document(tmp_path, src, factor, drop_metric=False):
    """A copy of the document ``src`` with omega times ``factor``."""
    with open(src) as fh:
        doc = json.load(fh)
    doc["forms"]["omega"] = [[idx, str(Fraction(v) * factor)]
                             for idx, v in doc["forms"]["omega"]]
    if drop_metric:
        doc.pop("metric")
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("factor", [
    1, 100, Fraction(1, 10 ** 4), 10 ** 6, 10 ** 8, 10 ** 100, Fraction(1, 10 ** 100)],
    ids=["1", "1e2", "1e-4", "1e6", "1e8", "1e100", "1e-100"])
def test_exact_candidate_with_kappa_outside_q_sqrt3_is_decided_exactly(
        tmp_path, capsys, factor):
    # kappa = sqrt(-tau0) of candidate-06 is not in Q(sqrt 3); the build,
    # the structure equations and the cone are decided on K = kappa J, so
    # at every scale the first equation and the closed cone form are exact
    # zeros, and the second equation and the coclosed form fail
    path = _scaled_document(tmp_path, CANDIDATE_06, factor)
    code, out = run(capsys, "--json", "check", path, "--cone")
    assert code == 1
    verdicts = Report.from_json(out).verdicts
    assert [(v.name, v.status, v.label, v.detail) for v in verdicts] == [
        ("stable pair builds an SU(3)-structure", "pass", "", ""),
        ("first structure equation (d omega = 3 psi)", "pass", "", ""),
        ("second structure equation (d phi = -2 mu omega^2)", "fail",
         "diff-system", ""),
        ("cone form closed", "pass", "", ""),
        ("cone form coclosed", "fail", "cone-coclosed", "")]
    residuals = [v.residual for v in verdicts]
    assert residuals[1] == residuals[3] == 0.0
    assert residuals[2] > 0 and residuals[4] > 0


@pytest.mark.parametrize("factor", [10 ** 100, Fraction(1, 10 ** 100)],
                         ids=["1e100", "1e-100"])
def test_float_check_beyond_the_float_range_gives_the_exact_verdict(
        tmp_path, capsys, factor):
    # K = kappa J of candidate-06 with omega times 10^100 or 10^-100 squares
    # outside the float range; --scalar float decides the document's own
    # values, which have no range, and reaches the exact verdict
    path = _scaled_document(tmp_path, CANDIDATE_06, factor)
    exact = _verdicts(capsys, "check", path, "--cone")
    assert exact[0] == 1
    assert _verdicts(capsys, "--scalar", "float", "check", path, "--cone") == exact


@pytest.mark.parametrize("name", ["s3xs3", "flag"])
@pytest.mark.parametrize("factor", [Fraction(1, 10 ** 4), 10 ** 6, 10 ** 8],
                         ids=["1e-4", "1e6", "1e8"])
def test_float_verdicts_hold_at_every_scale(tmp_path, capsys, name, factor):
    # each float identity is tested at the size of its own data, so the
    # nearly Kahler fixtures pass at every scale, like the documents
    path = _scaled_document(tmp_path, os.path.join(FIX, f"{name}.json"), factor,
                            drop_metric=name == "flag")
    code, out = run(capsys, "--json", "--scalar", "float", "check", path, "--cone")
    assert code == 0, out


def _verdicts(capsys, *argv):
    """(exit code, (name, status, label) of each verdict) of ``nk6 --json argv``."""
    code, out = run(capsys, "--json", *argv)
    return code, out and [(v.name, v.status, v.label)
                          for v in Report.from_json(out).verdicts]


@pytest.mark.parametrize("name", ["s3xs3", "flag", "cp3"])
@pytest.mark.parametrize("k", [-40, -30, -20, -15, 0, 15, 20, 30, 40, 45, 50, 60])
def test_float_check_agrees_with_exact_far_from_unit_size(tmp_path, capsys, name, k):
    # omega times 10^k, metric dropped: the measured pair has no range to
    # leave, and float and exact give the same verdicts at every scale
    path = _scaled_document(tmp_path, os.path.join(FIX, f"{name}.json"),
                            Fraction(10) ** k, drop_metric=name != "s3xs3")
    exact = _verdicts(capsys, "check", path)
    floats = _verdicts(capsys, "--scalar", "float", "check", path)
    assert exact[0] == 0
    assert floats == exact


def _scaled_constants(tmp_path, name, factor, value):
    """The fixture ``name`` with every structure constant times ``factor``,
    written by ``value``, as a file path."""
    with open(os.path.join(FIX, f"{name}.json")) as fh:
        doc = json.load(fh)
    for entry in doc["structure_constants"]:
        entry[3] = value(Fraction(entry[3]) * factor)
    path = tmp_path / f"{name}-{value.__name__}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name,factor,value", [
    ("s3xs3", Fraction(10 ** 6, 3), str), ("cp3", Fraction(10 ** 9, 7), str),
    ("flag", Fraction(10 ** 6, 3), float),
    *((name, Fraction(10) ** k, str) for name in ("s3xs3", "cp3") for k in (100, 150))],
    ids=["s3xs3", "cp3", "flag-json-float", "s3xs3-1e100", "s3xs3-1e150",
         "cp3-1e100", "cp3-1e150"])
@pytest.mark.parametrize("tol", [[], ["--tolerance", "1e-6"]], ids=["default", "1e-6"])
def test_float_check_of_scaled_structure_constants_agrees_with_exact(
        tmp_path, capsys, name, factor, value, tol):
    # the cone verdicts and the Jacobi identity of float constants are
    # decided at the size of their data: a Jacobi defect of rounding (the
    # flag's constants as JSON floats) does not fail, at the default
    # tolerance or at 1e-6, and with the constants times 10^100 or 10^150
    # the measured data have no range to leave
    exact = _verdicts(capsys, *tol, "check",
                      _scaled_constants(tmp_path, name, factor, str))
    floats = _verdicts(capsys, *tol, "--scalar", "float", "check",
                       _scaled_constants(tmp_path, name, factor, value))
    assert exact[0] == 0
    assert floats == exact


def test_float_algebra_is_validated_at_the_run_tolerance(tmp_path, capsys):
    # S^3xS^3's constants as JSON floats, with [X1, X2] leaking 10^-9 into
    # the second factor: the Jacobi identity holds at --tolerance 1e-6, not
    # at the default, and the algebra validated at 1e-6 is not reused
    with open(os.path.join(FIX, "s3xs3.json")) as fh:
        doc = json.load(fh)
    for entry in doc["structure_constants"]:
        entry[3] = float(Fraction(entry[3]))
    doc["structure_constants"].append([0, 1, 3, 1e-9])
    path = tmp_path / "leak.json"
    path.write_text(json.dumps(doc))
    for tol, rejected in (("1e-6", False), ("1e-10", True), ("1e-6", False)):
        assert (main(["--tolerance", tol, "check", str(path)]) == 2) == rejected
        assert ("Jacobi" in capsys.readouterr().err) == rejected


def test_supplied_metric_g_equals_w_k_is_decided_exactly(tmp_path, capsys):
    # the metric G = W K = kappa g of candidate-06 is rational although g is
    # not: the homothety and the connection-level verdict are exact on it
    from nk6.hitchin import build_either_orientation
    from nk6.lie import ce_differential
    from nk6.scalars import lower
    from nk6.spacefile import load_space

    doc = load_space(CANDIDATE_06, EPS)
    omega = doc.forms["omega"]
    s, _ = build_either_orientation(
        omega, ce_differential(doc.reductive_space(), omega) / 3)
    assert s.kappa is None
    with open(CANDIDATE_06) as fh:
        raw = json.load(fh)
    G = lower(s.G)
    raw["metric"] = [[str(x) for x in G[i:i + 6]] for i in range(0, 36, 6)]
    path = tmp_path / "c06_metric.json"
    path.write_text(json.dumps(raw))
    code, out = run(capsys, "--json", "check", str(path))
    assert code == 1
    verdicts = {v.name: v for v in Report.from_json(out).verdicts}
    homothety = verdicts["supplied metric is the induced one up to homothety"]
    agree = verdicts["connection-level and form-level verdicts agree"]
    assert (homothety.status, homothety.residual) == ("pass", 0.0)
    assert (agree.status, agree.detail) == ("pass", "")
    assert agree.residual > 0


# (l1, l2, l3) with kappa in Q(sqrt 3), up to order and scale (as in
# tests/test_closed_forms.py); a random triple almost never is
S3_EXACT = [(1, 1, 1), (2, 7, 7), (3, 4, 5), (3, 5, 7), (5, 5, 6)]
_lambdas = st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6)


@st.composite
def _s3xs3_triples(draw):
    if draw(st.booleans()):
        base = draw(st.permutations(draw(st.sampled_from(S3_EXACT))))
        triple = [draw(_lambdas) * x for x in base]
    else:
        triple = [draw(_lambdas) for _ in range(3)]
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3))
    return [x * sign for x, sign in zip(triple, signs)]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_s3xs3_triples())
def test_exact_and_float_checks_agree_on_s3xs3_triples(triple):
    # S^3 x S^3 with omega = l1 e1^f1 + l2 e2^f2 + l3 e3^f3: exact and
    # --scalar float check --cone give the same exit code and the same
    # status, label and detail on every verdict, with residuals within
    # 1e-9 (relative above 1), and every passing exact residual is 0.0
    s = [x * x for x in triple]
    assume(s[0] ** 2 + s[1] ** 2 + s[2] ** 2
           < 2 * (s[0] * s[1] + s[1] * s[2] + s[0] * s[2]))   # psi stable
    with open(os.path.join(FIX, "s3xs3.json")) as fh:
        doc = json.load(fh)
    for term, x in zip(doc["forms"]["omega"], triple):
        term[1] = str(x)
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s3xs3.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for scalar in ("exact", "float"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["--json", "--scalar", scalar, "check", path, "--cone"])
            reports[scalar] = code, Report.from_json(out.getvalue()).verdicts
    (code, exact), (float_code, floats) = reports["exact"], reports["float"]
    assert code == float_code
    assert [(v.name, v.status, v.label, v.detail) for v in exact] == \
        [(v.name, v.status, v.label, v.detail) for v in floats]
    for e, f in zip(exact, floats):
        assert (e.residual is None) == (f.residual is None)
        if e.residual is not None:
            assert abs(e.residual - f.residual) <= 1e-9 * max(1.0, abs(e.residual))
            assert e.status == "fail" or e.residual == 0.0


@pytest.mark.parametrize("argv,name,certificate", [
    (["verify", "s3xs3"],
     "uniqueness certificate (no admissible non-equal solution)",
     "certificate S^3xS^3 (l1^2, l2^2, l3^2): 8 branches, "
     "solution ray (1, 1, 1)"),
    (["solve-s3xs3"],
     "uniqueness certificate (no admissible non-equal solution)",
     "certificate S^3xS^3 (l1^2, l2^2, l3^2): 8 branches, "
     "solution ray (1, 1, 1)"),
    (["verify", "flag"], "nearly Kahler verdict iff r = s = t",
     "certificate flag (r, s, t): 1 branch, solution ray (1, 1, 1)"),
    (["verify", "cp3"], "unique nearly Kahler fiber scaling",
     "certificate CP^3 (a, x): 1 branch, solution ray (1, -1/2)"),
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


@pytest.mark.parametrize("text", [
    lambda fixture: fixture.replace('"-1"', "1" + "0" * 5000, 1),
    lambda fixture: "[" * 100_000 + "]" * 100_000,
], ids=["int-of-5001-digits", "nesting-100000"])
def test_json_the_decoder_cannot_convert_is_exit_two(tmp_path, capsys, text):
    # json.loads raises ValueError beyond the int-to-str digit limit and
    # RecursionError on deep nesting, neither a JSONDecodeError
    with open(os.path.join(FIX, "s3xs3.json")) as fh:
        path = tmp_path / "undecodable.json"
        path.write_text(text(fh.read()))
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1


def test_not_stable_message_of_a_tau0_beyond_str(tmp_path, capsys):
    # 10^100000 is exact input; tau0 then has more digits than str() writes,
    # so the message quotes it by its float range
    code, out = run(capsys, "--json", "check",
                    _s3xs3_copy(tmp_path, _set_coefficient("1e100000")))
    assert code == 1
    [build] = Report.from_json(out).verdicts
    assert (build.label, build.detail) == (
        "NotStable", "tau0 beyond the float range is not negative")


def test_float_k_beyond_the_float_range_is_decided_exactly(tmp_path, capsys):
    # omega = 10^300 (e1f1 + e2f2 + e3f3) as JSON floats: the products of K
    # lie beyond the float range, and the binary values decide them as the
    # same numbers written exactly do: nearly Kahler, as at every scale
    def edit(value):
        def set_omega(doc):
            for term in doc["forms"]["omega"]:
                term[1] = value
        return set_omega
    floats = _verdicts(capsys, "check", _s3xs3_copy(tmp_path, edit(1e300)))
    exact = _verdicts(capsys, "check",
                      _s3xs3_copy(tmp_path, edit(str(Fraction(1e300)))))
    assert floats == exact and exact[0] == 0


@pytest.mark.parametrize("argv", [
    ["table"], ["verify", "flag"], ["solve-s3xs3"]])
def test_scalar_float_outside_check_is_usage_error(capsys, argv):
    code = main(["--scalar", "float"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --scalar float applies only to check\n"
    assert captured.out == ""


def test_import_leaves_numpy_out():
    # the submodules are registered lazily, so each is run (by reading its
    # namespace) before the check, which would otherwise pass on no code
    src = os.path.abspath(os.path.join(ROOT, "src"))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, nk6.cli; "
         "[vars(m) for n, m in list(sys.modules.items()) if n.startswith('nk6.')]; "
         "print('numpy' in sys.modules, 'sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False False"


def _flag_with_forms(tmp_path, **forms):
    """The flag fixture with its forms replaced, as a file path."""
    with open(os.path.join(FIX, "flag.json")) as fh:
        doc = json.load(fh)
    doc.pop("metric")
    doc["forms"] = {name: [[list(idx), v] for idx, v in terms]
                    for name, terms in forms.items()}
    path = tmp_path / "flag_forms.json"
    path.write_text(json.dumps(doc))
    return str(path)


# omega = e02 + e13 + e45 is not torus-invariant.  omega = e01 - e23 + e45
# is, and with psi = Re((e0 + i e1)(e2 - i e3)(e4 + i e5)) it builds a
# structure, but psi (and so phi) is not: d phi used to raise NotInvariant.
NON_INVARIANT = {
    "omega": ({"omega": [((0, 2), "1"), ((1, 3), "1"), ((4, 5), "1")]}, []),
    "psi": ({"omega": [((0, 1), "1"), ((2, 3), "-1"), ((4, 5), "1")],
             "psi": [((0, 2, 4), "1"), ((1, 3, 4), "1"), ((1, 2, 5), "-1"),
                     ((0, 3, 5), "1")]}, ["--psi", "psi"]),
}


@pytest.mark.parametrize("name", sorted(NON_INVARIANT))
def test_check_non_invariant_form_is_a_failing_verdict(tmp_path, name):
    forms, extra = NON_INVARIANT[name]
    path = _flag_with_forms(tmp_path, **forms)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(ROOT, "src")))
    done = subprocess.run(
        [sys.executable, "-m", "nk6.cli", "--json", "check", path, "--cone"]
        + extra, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr == ""
    rep = Report.from_json(done.stdout)
    assert [(v.name, v.status, v.label, v.detail) for v in rep.verdicts] == [
        ("forms are h-invariant", "fail", "NotInvariant",
         f"{name} is not h-invariant")]


def test_check_cone_eliminates_no_metric(monkeypatch, capsys):
    # build_su3 proves g positive and carries g^-1 and omega^3 / 6 in closed
    # form, so cone_check runs no Sylvester test, inverse or determinant
    from nk6 import cone, smallmat

    inside, calls = [], []
    for fname in ("inv", "det", "is_positive_definite"):
        original = getattr(smallmat, fname)

        def counting(*args, _name=fname, _original=original, **kwargs):
            if inside:
                calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(smallmat, fname, counting)
    original_check = cone.cone_check

    def in_cone_check(*args, **kwargs):
        inside.append(True)
        try:
            return original_check(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(cone, "cone_check", in_cone_check)
    code, _ = run(capsys, "check", os.path.join(FIX, "cp3.json"), "--cone")
    assert code == 0
    assert calls == []


def _count_calls(monkeypatch, module, fname):
    calls = []
    original = getattr(module, fname)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, fname, counting)
    return calls


def test_check_cone_computes_no_determinant_per_minor(monkeypatch, capsys):
    # the Sylvester test is one elimination, the Hodge star's minors of g^-1
    # are Laplace expansions and its volume is omega^3 / 6: an exact check
    # takes one determinant per supplied metric (its invertibility proof in
    # nearly_kahler_residual) and none inside cone_check or HodgeStar
    from nk6 import cone, exterior, smallmat

    calls, inside = _count_calls(monkeypatch, smallmat, "det"), []
    for module, name in ((cone, "cone_check"), (exterior.HodgeStar, "__init__"),
                         (exterior.HodgeStar, "__call__")):
        original = getattr(module, name)

        def marked(*args, _original=original, **kwargs):
            inside.append(len(calls))
            result = _original(*args, **kwargs)
            assert len(calls) == inside.pop()
            return result

        monkeypatch.setattr(module, name, marked)
    for name, metrics in (("s3xs3", 0), ("flag", 1), ("cp3", 1)):
        calls.clear()
        code, _ = run(capsys, "check", os.path.join(FIX, f"{name}.json"), "--cone")
        assert code == 0, name
        assert len(calls) == metrics, name


def test_check_cone_differentiates_phi_once_per_fit(monkeypatch, capsys):
    # cone_check takes the d phi and omega^2 of nk_check's fit; cli calls
    # lie.ce_differential by its qualified name, so it is counted there
    from nk6 import lie

    calls = _count_calls(monkeypatch, lie, "ce_differential")
    code, _ = run(capsys, "check", os.path.join(FIX, "s3xs3.json"), "--cone")
    assert code == 0
    assert len(calls) == 7


def test_main_builds_the_parser_once(monkeypatch, capsys):
    import argparse

    builds = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "nk6":
            builds.append(kwargs)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(2):
        code, _ = run(capsys, "table")
        assert code == 0
    assert len(builds) <= 1


def test_reused_parser_keeps_no_state(capsys):
    from nk6 import cli

    assert cli._parser() is cli._parser()
    path = os.path.join(FIX, "s3xs3.json")
    reports = []
    for argv in (["check", path, "--cone"],
                 ["--scalar", "float", "--tolerance", "1e-6", "check", path,
                  "--cone"],
                 ["check", path, "--cone"]):
        code, out = run(capsys, "--json", *argv)
        assert code == 0
        reports.append(Report.from_json(out).as_dict())
    for rep in reports:
        rep.pop("timing_s")
    exact, floats, again = reports
    assert again == exact and floats != exact
    assert all(v.get("residual", 0.0) == 0.0 for v in again["verdicts"])


@pytest.mark.parametrize("fixture", ["s3xs3", "flag", "cp3"])
def test_check_compiles_each_table_once(monkeypatch, capsys, fixture,
                                        cold_space_cache):
    from nk6 import lie

    built = []
    for fname in ("_differential_table", "_invariance_table"):
        original = getattr(lie, fname)

        def counting(space, k, _name=fname, _original=original):
            built.append((id(space), _name, k))
            return _original(space, k)

        monkeypatch.setattr(lie, fname, counting)
    code, _ = run(capsys, "check", os.path.join(FIX, f"{fixture}.json"),
                  "--cone")
    assert code == 0
    assert built and len(set(built)) == len(built)
    assert len({space for space, _, _ in built}) == 1
    # the same document again: the cached space keeps its tables
    compiled = list(built)
    code, _ = run(capsys, "check", os.path.join(FIX, f"{fixture}.json"),
                  "--cone")
    assert code == 0
    assert built == compiled


def _module_dict_sizes():
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name == "nk6" or name.startswith("nk6."):
            for attr, value in vars(module).items():
                if isinstance(value, dict) and not attr.startswith("__"):
                    sizes[f"{name}.{attr}"] = len(value)
    return sizes


def test_checks_leave_module_dicts_the_same_size(tmp_path, capsys):
    # compiled tables live on the space of one document, so a long-lived
    # caller does not grow with the candidates it has seen
    from fractions import Fraction

    def candidate(fixture, scale, number):
        with open(os.path.join(FIX, f"{fixture}.json")) as fh:
            doc = json.load(fh)
        for term in doc["forms"]["omega"]:
            term[1] = str(Fraction(term[1]) * scale)
        doc.pop("metric", None)
        path = tmp_path / f"{fixture}-{number}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    for fixture in ("s3xs3", "flag", "cp3"):
        assert main(["check", candidate(fixture, 1, 0), "--cone"]) == 0
    before = _module_dict_sizes()
    for number in range(1, 51):
        fixture = ("s3xs3", "flag", "cp3")[number % 3]
        scale = Fraction(number + 1, 3)
        assert main(["check", candidate(fixture, scale, number), "--cone"]) == 0
    capsys.readouterr()
    assert _module_dict_sizes() == before


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["verify", "s3xs3"], ["check", os.path.join(FIX, "flag.json"), "--cone"]],
    ids=["verify", "check"])
def test_malformed_tolerance_is_exit_two(capsys, value, argv):
    code = main([f"--tolerance={value}"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --tolerance must be finite and >= 0\n"
    assert captured.out == ""


def _unreadable(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "missing.json"
    if kind == "directory":
        return tmp_path
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dimension": "\xe9"}')
    return path


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
def test_unreadable_space_file_is_exit_two(tmp_path, capsys, kind):
    path = str(_unreadable(tmp_path, kind))
    code = main(["check", path])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {path}: cannot read (")
    assert err.count("\n") == 1


def _perturbed_flag(tmp_path):
    """The flag fixture at t = 1 + 10^-12: omega and metric, exactly."""
    with open(os.path.join(FIX, "flag.json")) as fh:
        doc = json.load(fh)
    t = "1000000000001/1000000000000"
    doc["forms"]["omega"][2][1] = t
    doc["metric"][4][4] = doc["metric"][5][5] = t
    path = tmp_path / "flag_perturbed.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_decides_exact_data_exactly(tmp_path, capsys):
    # residuals of 8e-12 and 2.7e-12 are below the default tolerance, but
    # the data are exact, so they are not zero
    code, out = run(capsys, "--json", "check", _perturbed_flag(tmp_path),
                    "--cone")
    assert code == 1
    rep = Report.from_json(out)
    assert [(v.name, v.label) for v in rep.verdicts if v.status == "fail"] == [
        ("second structure equation (d phi = -2 mu omega^2)", "diff-system"),
        ("cone form coclosed", "cone-coclosed")]
    assert all(0 < v.residual < 1e-10 for v in rep.verdicts
               if v.status == "fail")



def test_level_disagreement_names_each_outcome(tmp_path, capsys):
    # omega at t = 1 + 10^-12 with the identity metric left in place: the
    # connection-level defect is exactly zero while the form level fails
    with open(os.path.join(FIX, "flag.json")) as fh:
        doc = json.load(fh)
    doc["forms"]["omega"][2][1] = "1000000000001/1000000000000"
    path = tmp_path / "flag_omega_only.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "--json", "check", str(path))
    assert code == 1
    agree = [v for v in Report.from_json(out).verdicts
             if v.name == "connection-level and form-level verdicts agree"]
    assert [(v.status, v.label, v.residual, v.detail) for v in agree] == [
        ("fail", "nabla-J", 0.0,
         "connection level: nearly Kahler, form level: not nearly Kahler")]


def test_cone_rescale_decision_scales_with_the_data(capsys):
    # c = 0.096 on the float fixture: above --tolerance 0.1 times the
    # size of d phi over omega^2, so the structure is rescaled
    code, out = run(capsys, "--json", "--tolerance", "0.1", "--scalar",
                    "float", "check", os.path.join(FIX, "s3xs3.json"), "--cone")
    assert code == 0
    cone = {v.name: v.status for v in Report.from_json(out).verdicts
            if v.name.startswith("cone form")}
    assert cone == {"cone form closed": "pass", "cone form coclosed": "pass"}


def test_unscaled_cone_check_says_so(capsys):
    # at --tolerance 1 the fitted c = 0.096 is not positive on the scale
    # 0.19 of d phi over omega^2: the cone is checked unscaled, and both
    # verdicts name the skipped rescale and c; the coclosed defect, no
    # larger than the terms it is formed from, is zero at that tolerance
    code, out = run(capsys, "--json", "--tolerance", "1", "--scalar",
                    "float", "check", os.path.join(FIX, "s3xs3.json"), "--cone")
    assert code == 0
    cone = [v for v in Report.from_json(out).verdicts
            if v.name.startswith("cone form")]
    assert [v.status for v in cone] == ["pass", "pass"]
    assert cone[1].residual > 0
    for v in cone:
        assert v.detail.startswith(
            "structure left unscaled: the fitted c = 0.09623 is not positive")


EXACT_COMMANDS = {
    **{f"verify {space}": ["verify", space]
       for space in ("s3xs3", "flag", "cp3", "s6")},
    "solve-s3xs3": ["solve-s3xs3"],
    **{f"check {name}": ["check", os.path.join(FIX, f"{name}.json"), "--cone"]
       for name in ("s3xs3", "flag", "cp3")},
    "check perturbed flag": None,
}


@pytest.mark.parametrize("name", sorted(EXACT_COMMANDS))
def test_exact_verdicts_do_not_depend_on_tolerance(tmp_path, capsys, name):
    argv = EXACT_COMMANDS[name] or ["check", _perturbed_flag(tmp_path), "--cone"]
    verdicts = {}
    for tol in ([], ["--tolerance", "0"], ["--tolerance", "1e-3"], ["--tolerance", "1"]):
        code, out = run(capsys, "--json", *tol, *argv)
        verdicts[tuple(tol)] = code, [
            (v.name, v.status, v.label, v.residual, v.detail)
            for v in Report.from_json(out).verdicts]
    assert len(set(map(repr, verdicts.values()))) == 1


def test_float_build_inconsistency_is_a_labelled_verdict(tmp_path, capsys):
    # S^3xS^3 with a JSON float 10^-13 on e1 ^ e2 of omega, a rounding-size
    # defect: omega ^ psi is not 0 on the binary values, so at tolerance 0
    # the build fails with a labelled verdict; at the default it passes
    def edit(doc):
        doc["forms"]["omega"].append([[0, 1], 1e-13])
    path = _s3xs3_copy(tmp_path, edit)
    code, out = run(capsys, "--json", "--tolerance", "0", "check", path)
    assert code == 1
    build = Report.from_json(out).verdicts[0]
    assert (build.name, build.status, build.label) == (
        "stable pair builds an SU(3)-structure", "fail", "NotType11")
    assert _verdicts(capsys, "check", path)[0] == 0


def test_cone_rescale_at_half_tolerance(capsys):
    # c = 2 is half of max|d phi| / max|omega^2| = 4 on the float CP^3
    # fixture, so at --tolerance 1/2 it is positive and the cone rescales
    code, out = run(capsys, "--json", "--tolerance", "0.5", "--scalar",
                    "float", "check", os.path.join(FIX, "cp3.json"), "--cone")
    assert code == 0
    cone = {v.name: (v.status, v.detail) for v in Report.from_json(out).verdicts
            if v.name.startswith("cone form")}
    assert cone == {"cone form closed": ("pass", ""),
                    "cone form coclosed": ("pass", "")}


def test_zero_supplied_metric_is_singular(tmp_path, capsys):
    with open(os.path.join(FIX, "flag.json")) as fh:
        doc = json.load(fh)
    doc["metric"] = [["0"] * 6 for _ in range(6)]
    path = tmp_path / "flag_zero_metric.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "--json", "check", str(path))
    assert code == 1
    agree = [v for v in Report.from_json(out).verdicts
             if v.name == "connection-level and form-level verdicts agree"]
    assert [(v.status, v.label, v.detail) for v in agree] == [
        ("fail", "nabla-J", "matrix is singular")]


def _s3xs3_constants_as(tmp_path, name, value):
    """The S^3xS^3 fixture with every structure constant passed through
    ``value``, as a file path."""
    with open(os.path.join(FIX, "s3xs3.json")) as fh:
        doc = json.load(fh)
    for entry in doc["structure_constants"]:
        entry[3] = value(entry[3])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_exact_document_after_a_float_one_stays_exact(tmp_path, capsys,
                                                      cold_space_cache):
    from nk6.scalars import is_exact
    from nk6.spacefile import load_space

    exact = _s3xs3_constants_as(tmp_path, "exact", lambda v: int(v))
    floats = _s3xs3_constants_as(tmp_path, "floats", lambda v: float(v))
    reports = []
    for path in (exact, floats, exact):
        code, out = run(capsys, "--json", "check", path, "--cone")
        assert code == 0
        rep = json.loads(out)
        rep.pop("timing_s")
        reports.append(rep)
    assert reports[2] == reports[0]
    assert all(v["residual"] == 0.0 for v in reports[2]["verdicts"]
               if "residual" in v)
    # the two documents have their own algebras, both on exact values, and
    # only the float one is measured data
    docs = [load_space(path, EPS) for path in (floats, exact)]
    assert docs[0].reductive_space() is not docs[1].reductive_space()
    assert [doc.tol for doc in docs] == [Fraction(EPS), 0]
    assert all(is_exact(v) for doc in docs
               for *_, v in doc.reductive_space().algebra.nonzero())


def test_jacobi_violation_is_exit_two_with_a_cached_algebra(tmp_path, capsys):
    assert main(["check", os.path.join(FIX, "s3xs3.json")]) == 0
    capsys.readouterr()
    # the same shape, with [X1, X2] leaking into the second su(2) factor
    bad = _s3xs3_copy(tmp_path, lambda doc: doc["structure_constants"]
                      .append([0, 1, 3, "1"]))
    code = main(["check", bad])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: $: structure constants violate the Jacobi identity\n"


def test_cone_check_on_tiny_exact_data(tmp_path, capsys):
    # at 10^-200 the float size of omega^2 underflows to 0.0, which the
    # rescale's zero test once divided by; an exact c needs no size.  At
    # 10^100, tau0 (about 10^400) and the float size of K^2 lie beyond the
    # float range: no size is formed, and tau0 is reported as null
    with open(os.path.join(FIX, "cp3.json")) as fh:
        doc = json.load(fh)
    del doc["metric"]
    omega = doc["forms"]["omega"]
    path = tmp_path / "cp3_scaled.json"
    verdicts = []
    for scale in (1, Fraction(1, 10 ** 200), 10 ** 100):
        doc["forms"]["omega"] = [[idx, str(Fraction(v) * scale)] for idx, v in omega]
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "--json", "check", str(path), "--cone")
        assert code == 0 and "Infinity" not in out
        verdicts.append([(v.name, v.status, v.label, v.residual, v.detail)
                         for v in Report.from_json(out).verdicts])
    assert verdicts[2] == verdicts[1] == verdicts[0]
    assert Report.from_json(out).scalars["tau0"] is None
    assert [name for name, *_ in verdicts[1]][-2:] == [
        "cone form closed", "cone form coclosed"]


@pytest.mark.parametrize("edit,path", [
    (lambda doc: doc["forms"]["omega"][0].__setitem__(1, "1e400"),
     "$.forms.omega[0]"),
    (lambda doc: doc["forms"]["omega"][2].__setitem__(1, -10 ** 400),
     "$.forms.omega[2]"),
    (lambda doc: doc["metric"][0].__setitem__(0, "1e999"), "$.metric[0][0]"),
], ids=["omega-string", "omega-int", "metric"])
def test_scalar_float_takes_numbers_beyond_the_float_range(tmp_path, capsys,
                                                           edit, path):
    # --scalar float decides the number at ``path`` as exact mode does
    with open(os.path.join(FIX, "cp3.json")) as fh:
        doc = json.load(fh)
    edit(doc)
    file = tmp_path / "huge.json"
    file.write_text(json.dumps(doc))
    exact = _verdicts(capsys, "check", str(file), "--cone")
    floats = _verdicts(capsys, "--scalar", "float", "check", str(file), "--cone")
    assert exact[0] == floats[0] == 1, path
    if path == "$.forms.omega[2]":
        # one entry of omega 10^400 times the others: at 10^-10 times its
        # size cubed, omega^3 is zero, a degenerate form as measured data
        assert floats[1] == [("stable pair builds an SU(3)-structure", "fail",
                              "DegenerateOmega")]
    else:
        assert floats == exact
    if path == "$.forms.omega[0]":
        # the edited omega is not invariant
        assert exact[1][0][2] == "NotInvariant"


def test_exact_metric_beyond_the_float_range_fails_the_homothety(tmp_path, capsys):
    # exact arithmetic takes 10^999; its relative deviation, a ratio of the
    # exact largest entries, is of order 1, and the scale, beyond the float
    # range, is reported as null
    with open(os.path.join(FIX, "cp3.json")) as fh:
        metric = json.load(fh)["metric"]
    metric[0][0] = "1e999"
    path = _with_metric(tmp_path, "cp3", metric)
    code, out = run(capsys, "--json", "check", path, "--cone")
    assert code == 1 and "Infinity" not in out and "NaN" not in out
    rep = Report.from_json(out)
    [homothety] = [v for v in rep.verdicts if v.label == "metric"]
    assert homothety.name == "supplied metric is the induced one up to homothety"
    assert homothety.status == "fail" and 0 < homothety.residual <= 1
    assert rep.scalars["metric_scale"] is None


def test_scalar_float_takes_structure_constants_beyond_the_float_range(
        tmp_path, capsys, cold_space_cache):
    # S^3 x S^3 with its constants times 10^400 is a valid algebra, nearly
    # Kahler in either mode, also when the algebra is cached
    path = _s3xs3_constants_as(tmp_path, "huge",
                               lambda v: str(Fraction(v) * 10 ** 400))
    for argv in (["--scalar", "float"], [], ["--scalar", "float"]):
        assert _verdicts(capsys, *argv, "check", path, "--cone")[0] == 0


def _tiny(v):
    return str(Fraction(v) / 10 ** 400)   # nonzero, 0.0 as a float


def _tiny_omega(doc):
    for term in doc["forms"]["omega"]:
        term[1] = _tiny(term[1])


@pytest.mark.parametrize("document,json_path", [
    (lambda tmp: _s3xs3_copy(tmp, _tiny_omega), "$.forms.omega[0]"),
    (lambda tmp: _s3xs3_constants_as(tmp, "tiny", _tiny),
     "$.structure_constants[0]"),
    (lambda tmp: _with_metric(tmp, "cp3", _tiny), "$.metric[0][0]"),
], ids=["omega", "constants", "metric"])
def test_scalar_float_takes_numbers_that_underflow(tmp_path, capsys, document,
                                                   json_path, cold_space_cache):
    # 10^-400 times the data at ``json_path`` is 0.0 as a float, but no
    # value is rounded: both modes find it still nearly Kahler
    path = document(tmp_path)
    exact = _verdicts(capsys, "check", path, "--cone")
    assert exact[0] == 0, json_path
    assert _verdicts(capsys, "--scalar", "float", "check", path, "--cone") == exact
