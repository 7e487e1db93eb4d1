"""The polynomial certificates, against sympy and the sampled pipeline.

sympy is an independent oracle here only; no module of nk6 imports it.
"""

import itertools
from fractions import Fraction

import pytest

from conftest import pipeline_nk_verdict
from nk6 import s3xs3, spaces
from nk6.certificate import (
    Certificate, Claim, check_certificate, pair_polynomials)
from nk6.cli import main
from nk6.lie import ce_differential
from nk6.poly import Poly
from nk6.report import Report

sympy = pytest.importorskip("sympy")


def to_sympy(p, symbols):
    return sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.Mul(*[x ** k for x, k in zip(symbols, e)])
               for e, c in p.terms.items())


def assert_same_up_to_sign(polys, symbols, expected):
    got = [sympy.expand(to_sympy(p, symbols)) for p in polys]
    assert len(got) == len(expected)
    for want in expected:
        assert any(sympy.expand(g - want) == 0 or sympy.expand(g + want) == 0
                   for g in got), want


def family_polys(cert):
    return pair_polynomials(cert.omega(*Poly.variables(len(cert.variables))),
                            cert.differential)


def test_s3xs3_polynomials_match_sympy():
    l1, l2, l3 = sympy.symbols("l1 l2 l3")
    tau0, minors = family_polys(s3xs3.uniqueness_certificate())
    assert sympy.expand(81 * to_sympy(tau0, (l1, l2, l3))
                        - (l1 - l2 - l3) * (l1 - l2 + l3) * (l1 + l2 - l3)
                        * (l1 + l2 + l3)) == 0
    x = (l1 ** 2, l2 ** 2, l3 ** 2)
    lams = (l1, l2, l3)
    assert_same_up_to_sign(minors, lams, [
        sympy.Rational(4, 27) * lams[i] * (x[j] - x[k]) * (x[i] - x[j] - x[k])
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))])


def test_flag_polynomials_match_sympy():
    r, s, t = sympy.symbols("r s t")
    tau0, minors = family_polys(spaces.flag_certificate(spaces.flag_model()))
    assert sympy.expand(to_sympy(tau0, (r, s, t))
                        + sympy.Rational(4, 81) * (r + s + t) ** 4) == 0
    c = sympy.Rational(-16, 27) * (r + s + t) ** 3
    assert_same_up_to_sign(minors, (r, s, t), [
        c * r * (s - t), c * s * (r - t), c * t * (r - s)])


@pytest.mark.parametrize("fiber,tau0_root,minor", [
    (-1, "a + t", "a * (2*t - a) * (a + t)**3"),
    (1, "t - a", "a * (t - a)**3 * (a + 2*t)"),
])
def test_cp3_polynomials_match_sympy(fiber, tau0_root, minor):
    a, t = sympy.symbols("a t")
    names = {"a": a, "t": t}
    tau0, minors = family_polys(spaces.cp3_certificate(spaces.cp3_model(),
                                                       fiber))
    assert sympy.expand(to_sympy(tau0, (a, t)) + sympy.Rational(64, 81)
                        * sympy.sympify(tau0_root, names) ** 4) == 0
    assert_same_up_to_sign(minors, (a, t), [
        sympy.Rational(128, 27) * sympy.sympify(minor, names)])


def test_minors_evaluate_like_the_numeric_pair():
    # the polynomial pipeline at a point equals the numeric one there
    cert = spaces.flag_certificate(spaces.flag_model())
    point = (Fraction(1), Fraction(2, 3), Fraction(5, 4))
    _, minors = family_polys(cert)
    _, numeric = pair_polynomials(cert.omega(*point), cert.differential)
    assert sorted(abs(m(*point)) for m in minors) == sorted(map(abs, numeric))


def test_certificate_rays():
    flag = check_certificate(spaces.flag_certificate(spaces.flag_model()))
    assert flag.ok and flag.solutions == [(1, 1, 1)]
    model = spaces.cp3_model()
    minus = check_certificate(spaces.cp3_certificate(model, -1))
    plus = check_certificate(spaces.cp3_certificate(model, 1))
    assert minus.solutions == [(1, Fraction(1, 2))]
    # t = a is the one branch of fiber +1, where the build is not stable
    assert plus.ok and plus.solutions == []
    assert plus.detail.endswith("1 branch, no solution")


def _with_claims(cert, claims):
    """The certificate with the same family, variables, maps and squares."""
    return Certificate(cert.family, cert.variables, cert.omega,
                       cert.differential, tuple(claims), squares=cert.squares)


def _tampered(cert, index, claim):
    claims = list(cert.claims)
    claims[index] = claim
    return _with_claims(cert, claims)


def test_tampered_certificates_fail_with_a_reason():
    cert = s3xs3.uniqueness_certificate()
    first = cert.claims[0]
    l1, l2, l3 = Poly.variables(3)
    cases = {
        "wrong constant": _tampered(cert, 0, Claim(Fraction(5, 27),
                                                   first.factors)),
        "dropped factor": _tampered(cert, 0, Claim(first.constant,
                                                   first.factors[:-1])),
        "dropped claim": _with_claims(cert, cert.claims[:2]),
        "extra claim": _with_claims(cert, cert.claims + (first,)),
        # l1 (l2 + l3)(l2 - l3) expands to the same minor, but l2 + l3 is
        # neither linear in the squares nor nonvanishing
        "factor kind": _tampered(cert, 0, Claim(first.constant, (
            l1, l2 + l3, l2 - l3, first.factors[2]))),
    }
    reasons = {}
    for name, bad in cases.items():
        res = check_certificate(bad)
        assert not res.ok and not res.unique and res.solutions == [], name
        reasons[name] = res.detail.split(": ", 1)[1]
    assert reasons == {
        "wrong constant": "minor 1 of 3 matches no claim",
        "dropped factor": "minor 1 of 3 matches no claim",
        "dropped claim": "minor 3 of 3 matches no claim",
        "extra claim": "a claim matches no minor",
        "factor kind": "factor l2 + l3 is neither nonvanishing nor linear",
    }


def test_tampered_certificate_is_a_labelled_failing_verdict(monkeypatch,
                                                            capsys):
    good = spaces.flag_certificate

    def wrong_constant(model):
        cert = good(model)
        return _tampered(cert, 1, Claim(Fraction(-8, 27),
                                        cert.claims[1].factors))

    monkeypatch.setattr(spaces, "flag_certificate", wrong_constant)
    code = main(["--json", "verify", "flag"])
    assert code == 1
    rep = Report.from_json(capsys.readouterr().out)
    nk = next(v for v in rep.verdicts
              if v.name == "nearly Kahler verdict iff r = s = t")
    assert nk.status == "fail" and nk.label == "diff-system"
    assert nk.detail == ("certificate flag (r, s, t): "
                         "minor 2 of 3 matches no claim")


def test_flag_grid_oracle_agrees_with_the_certificate():
    # the 64-point pipeline grid that the certificate replaced
    model = spaces.flag_model()
    d = lambda a: ce_differential(model.space, a)
    ray = check_certificate(spaces.flag_certificate(model)).solutions
    for r, s, t in itertools.product(range(1, 5), repeat=3):
        on_ray = [(1, Fraction(s, r), Fraction(t, r))] == ray
        assert pipeline_nk_verdict(model.omega(r, s, t), d) == on_ray


def test_cp3_pipeline_oracle_agrees_with_the_certificate():
    model = spaces.cp3_model()
    d = lambda a: ce_differential(model.space, a, check_invariance=False)
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
        assert pipeline_nk_verdict(model.omega(t, -1), d) == (t == Fraction(1, 2))
        assert not pipeline_nk_verdict(model.omega(t, 1), d)
