import os
import random
from fractions import Fraction

import pytest

from conftest import tampered_su2_space
from nk6 import s3xs3, smallmat, spacefile
from nk6.certificate import check_certificate
from nk6.cli import main
from nk6.exterior import KForm, wedge
from nk6.hitchin import StructureError, build_su3, nk_check
from nk6.lie import LieAlgebraData, ReductiveSpace
from nk6.report import Report
from nk6.scalars import QSqrt3
from nk6.spaces import build_either_orientation


def rnd_abc(rng, bound=2):
    A = [s3xs3.random_rational(rng, bound) for _ in range(3)]
    B = [s3xs3.random_rational(rng, bound) for _ in range(3)]
    C = [[s3xs3.random_rational(rng, bound) for _ in range(3)] for _ in range(3)]
    return s3xs3.ABCForm(A, B, C)


def test_nondegenerate_examples():
    eye = smallmat.identity(3, Fraction(1))
    zero = [Fraction(0)] * 3
    assert s3xs3.nondegeneracy_scalar(s3xs3.ABCForm(zero, zero, eye)) == 1
    singular = [[Fraction(1), Fraction(0), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(0)],
                [Fraction(0), Fraction(0), Fraction(0)]]
    assert s3xs3.nondegeneracy_scalar(s3xs3.ABCForm(zero, zero, singular)) == 0


def test_nondegeneracy_scalar_matches_wedge_oracle():
    rng = random.Random(13)
    for _ in range(25):
        w = rnd_abc(rng)
        om = w.to_form()
        o3 = wedge(wedge(om, om), om)
        assert o3.c[0] == -6 * s3xs3.nondegeneracy_scalar(w)


def test_reduction_identities_hold():
    assert s3xs3.type_identity()
    assert s3xs3.rotation_identity()


def test_type_identity_at_the_rejected_points():
    # A^t C != 0: omega ^ d omega has the coefficient -(A^t C)_1 = -1
    zero = [Fraction(0)] * 3
    a = [Fraction(1), Fraction(0), Fraction(0)]
    eye = smallmat.identity(3, Fraction(1))
    om = s3xs3.ABCForm(a, zero, eye).to_form()
    assert wedge(om, s3xs3.differential(om)).c == [0, 0, -1, 0, 0, 0]
    # type (1,1) but det C = 0: omega^3 vanishes
    singular = [[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(0)]]
    om = s3xs3.ABCForm(zero, zero, singular).to_form()
    assert wedge(om, s3xs3.differential(om)).is_zero()
    assert wedge(wedge(om, om), om).is_zero()


def _unit_rotation(q):
    """R(q) / |q|^2 for a rational quaternion q: a rational matrix in SO(3)."""
    norm = sum(Fraction(x) ** 2 for x in q)
    return [[x / norm for x in row] for row in s3xs3.quaternion_rotation(
        *map(Fraction, q))]


def _pullback(m, n, form):
    """The pullback under e_a -> sum_i M_ia e_i, f_b -> sum_j N_jb f_j."""
    images = [KForm.from_terms(6, 1, [((3 * side + i,), p[i][a])
                                      for i in range(3)])
              for side, p in ((0, m), (1, n)) for a in range(3)]
    out = KForm.zero(6, form.k)
    for idx, value in form.terms():
        term = KForm.constant(6, value)
        for i in idx:
            term = wedge(term, images[i])
        out = out + term
    return out


QUATERNION_PAIRS = [((1, 2, -1, 3), (2, 0, 1, -1)), ((3, -1, 1, 1), (1, 1, 2, 5))]


def test_rotation_pullback_maps_c_to_m_c_nt():
    # exact unit rotations: the pullback sends sum c_ij e_i f_j to
    # M C N^t and commutes with d on the whole 2-form
    zero = [Fraction(0)] * 3
    rng = random.Random(23)
    for q, q2 in QUATERNION_PAIRS:
        m, n = _unit_rotation(q), _unit_rotation(q2)
        assert smallmat.det(m) == 1 and smallmat.det(n) == 1
        assert smallmat.mat_mul(m, smallmat.transpose(m)) == \
            smallmat.identity(3, 1)
        c = [[s3xs3.random_rational(rng, 3) for _ in range(3)]
             for _ in range(3)]
        om = s3xs3.ABCForm(zero, zero, c).to_form()
        mcnt = smallmat.mat_mul(m, smallmat.mat_mul(c, smallmat.transpose(n)))
        assert _pullback(m, n, om) == s3xs3.ABCForm(zero, zero, mcnt).to_form()
        assert s3xs3.differential(_pullback(m, n, om)) == \
            _pullback(m, n, s3xs3.differential(om))


def test_det_invariant_under_coframe_changes():
    rng = random.Random(7)
    zero = [Fraction(0)] * 3
    for q, q2 in QUATERNION_PAIRS:
        m, n = _unit_rotation(q), _unit_rotation(q2)
        c = [[s3xs3.random_rational(rng, 3) for _ in range(3)]
             for _ in range(3)]
        mcnt = smallmat.mat_mul(m, smallmat.mat_mul(c, smallmat.transpose(n)))
        assert s3xs3.nondegeneracy_scalar(s3xs3.ABCForm(zero, zero, mcnt)) \
            == s3xs3.nondegeneracy_scalar(s3xs3.ABCForm(zero, zero, c)) \
            == smallmat.det(c)


def _flipped_rotation(*q):
    r = ORIGINAL_ROTATION(*q)
    r[0][1] = -r[0][1]
    return r


ORIGINAL_ROTATION = s3xs3.quaternion_rotation
ORIGINAL_SCALAR = s3xs3.nondegeneracy_scalar
TYPE_VERDICT = ("type (1,1) and omega^3 != 0 force A = B = 0, det C != 0",
                "type-11")
ROTATION_VERDICT = ("co-frame rotations commute with d (C -> M C N^t)",
                    "co-frame")
REDUCTION_NAMES = (TYPE_VERDICT[0], ROTATION_VERDICT[0])


@pytest.mark.parametrize("tamper, failing", [
    ("su2-constants", {TYPE_VERDICT, ROTATION_VERDICT}),
    ("omega3-sign", {TYPE_VERDICT}),
    ("rotation-entry", {ROTATION_VERDICT}),
])
@pytest.mark.parametrize("argv", [["verify", "s3xs3"], ["solve-s3xs3"]])
def test_reduction_verdicts_fail_on_tampered_inputs(
        monkeypatch, capsys, tamper, failing, argv):
    if tamper == "su2-constants":
        monkeypatch.setattr(s3xs3, "_SPACE", tampered_su2_space())
    elif tamper == "omega3-sign":
        monkeypatch.setattr(s3xs3, "nondegeneracy_scalar",
                            lambda w: -ORIGINAL_SCALAR(w))
    else:
        monkeypatch.setattr(s3xs3, "quaternion_rotation", _flipped_rotation)
    assert main(["--json", *argv]) == 1
    rep = Report.from_json(capsys.readouterr().out)
    reduction = [v for v in rep.verdicts if v.name in REDUCTION_NAMES]
    assert len(reduction) == 2
    assert {(v.name, v.label) for v in reduction
            if v.status == "fail"} == failing
    assert all(v.residual is None for v in reduction)


def test_reduction_verdicts_cover_all_parameters(capsys):
    assert main(["--json", "solve-s3xs3"]) == 0
    rep = Report.from_json(capsys.readouterr().out)
    reduction = [v for v in rep.verdicts if v.name in REDUCTION_NAMES]
    assert [v.status for v in reduction] == ["pass", "pass"]
    for v in reduction:
        assert v.residual is None
        assert v.detail.endswith(
            "the reduction covers all 15 parameters of (A, B, C)")


def test_su3_admissible_examples():
    assert s3xs3.quartic_factored((1, 1, 1)) == -3
    assert s3xs3.su3_admissible((Fraction(1),) * 3)
    assert s3xs3.quartic_factored((1, 1, 3)) == 45
    assert not s3xs3.su3_admissible((Fraction(1), Fraction(1), Fraction(3)))
    assert not s3xs3.su3_admissible((Fraction(1), Fraction(1), Fraction(-1)))


def test_su3_admissible_agrees_with_build():
    # at the fixed co-frame orientation e123 ^ f123; the opposite
    # orientation realizes the product-negative triples instead
    rng = random.Random(37)
    checked = 0
    while checked < 60:
        lams = tuple(s3xs3.random_rational(rng, 3) for _ in range(3))
        if any(l == 0 for l in lams) or s3xs3.quartic_factored(lams) == 0:
            continue
        checked += 1
        admissible = s3xs3.su3_admissible(lams)
        cand = s3xs3.candidate(s3xs3.DiagonalInvariantForm(lams))
        try:
            build_su3(cand)
            built = True
        except StructureError:
            built = False
        assert built == admissible


def test_one_positive_pattern_builds():
    cand = s3xs3.candidate(s3xs3.DiagonalInvariantForm(
        (Fraction(-1), Fraction(-1), Fraction(1))))
    s = build_su3(cand)
    assert smallmat.is_positive_definite(s.g)


def test_nk_residual_examples():
    lam = Fraction(3)
    assert s3xs3.nk_residual((lam, lam, lam)) == 0
    c = s3xs3.system_constants((lam, lam, lam))
    assert c[0] == -lam ** 4
    assert s3xs3.system_constants((1, 1, 2)) == (-4, -4, 8)
    assert s3xs3.nk_residual((1, 1, 2)) == 12


def test_mu_link_identity():
    # common c = -2 mu k det C with k = lam^2 sqrt3 exactly in Q(sqrt 3)
    for lam in (Fraction(1), Fraction(2), Fraction(1, 3)):
        mu = s3xs3.mu_of(lam)
        c = -(lam ** 4)
        k = lam * lam * QSqrt3(0, 1)
        detc = lam ** 3
        assert -2 * mu * k * detc == c
        assert mu == 1 / (2 * lam * QSqrt3(0, 1))


def test_k_identity_on_admissible_triples():
    rng = random.Random(41)
    checked = 0
    while checked < 25:
        lams = tuple(s3xs3.random_rational(rng, 3) for _ in range(3))
        if any(l == 0 for l in lams) or not s3xs3.su3_admissible(lams):
            continue
        checked += 1
        cand = s3xs3.candidate(s3xs3.DiagonalInvariantForm(lams))
        s, _ = build_either_orientation(cand.omega, cand.psi)
        # kappa^2 = -tau0, exact also when kappa is not in Q(sqrt 3)
        assert 81 * -s.tau0 == -s3xs3.quartic_factored(lams)


def test_sweep_no_counterexamples():
    # the sampled oracle agrees with the certificate: no admissible
    # non-equal triple solves the system
    accepted, bad = s3xs3.sweep_nonequal(samples=600, seed=5)
    assert accepted == 600
    assert bad == 0


def test_sweep_is_deterministic():
    assert s3xs3.sweep_nonequal(samples=300, seed=9) == \
        s3xs3.sweep_nonequal(samples=300, seed=9)


def test_uniqueness_certificate_leaves_only_the_equal_family():
    res = check_certificate(s3xs3.uniqueness_certificate())
    assert res.ok and res.unique
    assert res.solutions == [(1, 1, 1)]
    assert res.detail == ("certificate S^3xS^3 (l1^2, l2^2, l3^2): "
                          "8 branches, solution ray (1, 1, 1)")


def test_sign_pattern_analysis():
    survivors, certificates = s3xs3.sign_pattern_analysis()
    assert set(survivors) == {(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)}
    assert set(certificates) == {(1, -1, -1), (-1, 1, -1), (-1, -1, 1)}
    for signs, (m, n) in certificates.items():
        assert smallmat.det(m) == 1 and smallmat.det(n) == 1
        d = [[signs[i] if i == j else 0 for j in range(3)] for i in range(3)]
        prod = smallmat.mat_mul(m, smallmat.mat_mul(d, smallmat.transpose(n)))
        assert prod == smallmat.identity(3, 1)


def test_solve_nk_full():
    rep = s3xs3.solve_nk()
    assert rep.ok
    assert rep.certificate.solutions == [(1, 1, 1)]
    assert rep.mu_at_one == s3xs3.mu_of(1)
    assert float(rep.mu_at_one) == pytest.approx(1 / (2 * 3 ** 0.5), abs=1e-14)


SHARED = ("stable pair builds", "first structure equation",
          "second structure equation", "cone form")


def test_verify_and_check_share_the_structure_verdicts(capsys):
    # the fixture is the certificate's algebra with omega(1, 1, 1): both
    # commands judge it by hitchin.structure_verdicts and cone_verdicts
    path = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                        "s3xs3.json")
    doc = spacefile.load_space(path)
    assert doc.space.algebra.c == s3xs3.cyclic_space().algebra.c
    assert doc.forms["omega"] == s3xs3.uniqueness_certificate().omega(1, 1, 1)
    reports = []
    for argv in (["verify", "s3xs3"], ["check", path, "--cone"]):
        assert main(["--json", *argv]) == 0
        reports.append(Report.from_json(capsys.readouterr().out))
    verify, check = ([(v.name, v.status, v.label, v.residual) for v in rep.verdicts
                      if v.name.startswith(SHARED)] for rep in reports)
    assert verify == check
    assert [name for name, *_ in verify] == [
        "stable pair builds an SU(3)-structure",
        "first structure equation (d omega = 3 psi)",
        "second structure equation (d phi = -2 mu omega^2)",
        "cone form closed", "cone form coclosed"]
    assert [residual for *_, residual in verify] == [None] + [0.0] * 4
    for key in ("mu", "tau0", "kappa"):
        assert reports[0].scalars[key] == reports[1].scalars[key], key


def test_verify_reports_a_failed_build_of_the_solution(monkeypatch, capsys):
    # on an abelian algebra d omega = 0, so psi = 0 is not stable: the
    # certificate builds nothing and omega(1, 1, 1) fails to build
    zero = [[[0] * 6 for _ in range(6)] for _ in range(6)]
    monkeypatch.setattr(s3xs3, "_SPACE",
                        ReductiveSpace(LieAlgebraData(zero), [], range(6)))
    assert main(["--json", "verify", "s3xs3"]) == 1
    last = Report.from_json(capsys.readouterr().out).verdicts[-1]
    assert (last.name, last.status, last.label) == (
        "stable pair builds an SU(3)-structure", "fail", "NotStable")


def test_residual_zero_iff_nk_verdict():
    rng = random.Random(17)
    checked = 0
    while checked < 30:
        lams = tuple(s3xs3.random_rational(rng, 3) for _ in range(3))
        if any(l == 0 for l in lams) or not s3xs3.su3_admissible(lams):
            continue
        checked += 1
        rep = nk_check(build_su3(s3xs3.candidate(
            s3xs3.DiagonalInvariantForm(lams))), s3xs3.differential)
        assert rep.verdict == (s3xs3.nk_residual(lams) == 0)
