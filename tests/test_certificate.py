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
    # the one certificate over a (e01 + e23) + x e45 holds both fiber
    # signs: x = (fiber) t is the Kahler form of a g_p + t g_v, J_p (+) J_v
    a, t = sympy.symbols("a t")
    names = {"a": a, "t": t}
    tau0, minors = family_polys(spaces.cp3_certificate(spaces.cp3_model()))
    assert sympy.expand(to_sympy(tau0, (a, fiber * t)) + sympy.Rational(64, 81)
                        * sympy.sympify(tau0_root, names) ** 4) == 0
    assert_same_up_to_sign(minors, (a, fiber * t), [
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
    cp3 = check_certificate(spaces.cp3_certificate(spaces.cp3_model()))
    # a - x, where tau0 vanishes, is no branch: one certificate, one ray
    assert cp3.ok and cp3.solutions == [(1, Fraction(-1, 2))]
    assert cp3.detail == ("certificate CP^3 (a, x): "
                          "1 branch, solution ray (1, -1/2)")


def _with_claims(cert, claims, **changed):
    """The certificate with the same family, space, basis and squares."""
    fields = {"tau0": cert.tau0, "omega3": cert.omega3, **changed}
    return Certificate(cert.family, cert.variables, cert.space, tuple(claims),
                       basis=cert.basis, squares=cert.squares, **fields)


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
        "wrong tau0": _with_claims(cert, cert.claims, tau0=Claim(
            -cert.tau0.constant, cert.tau0.factors)),
        "wrong omega^3": _with_claims(cert, cert.claims, omega3=Claim(
            cert.omega3.constant, (l1, l2, l2))),
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
        "wrong tau0": "tau0 matches no claim",
        "wrong omega^3": "omega^3 matches no claim",
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
    # a 64-point pipeline grid over every sign of every summand: the
    # certificate's one ray is +-(1, 1, 1)
    model = spaces.flag_model()
    d = lambda a: ce_differential(model.space, a)
    ray = check_certificate(spaces.flag_certificate(model)).solutions
    for r, s, t in itertools.product((-2, -1, 1, 2), repeat=3):
        on_ray = [(1, Fraction(s, r), Fraction(t, r))] == ray
        assert pipeline_nk_verdict(model.omega(r, s, t), d) == on_ray
        assert on_ray == (r == s == t)


def test_cp3_pipeline_oracle_agrees_with_the_certificate():
    # a (e01 + e23) + t fiber e45 over both signs of a and of the fiber: the
    # certificate's one ray is +-(1, -1/2)
    model = spaces.cp3_model()
    d = lambda a: ce_differential(model.space, a, check_invariance=False)
    [ray] = check_certificate(spaces.cp3_certificate(model)).solutions
    for a, fiber in itertools.product((1, -2), (1, -1)):
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
            on_ray = (1, t * fiber / a) == ray
            assert pipeline_nk_verdict(model.omega(t, fiber, a), d) == on_ray
            assert on_ray == (t == Fraction(1, 2) and fiber == -1 if a > 0
                              else t == 1 and fiber == 1)
