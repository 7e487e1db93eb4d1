import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nk6 import s3xs3, smallmat
from nk6.exterior import KForm, interior, wedge
from nk6.hitchin import (
    NKReport,
    NotPositive,
    NotStable,
    NotType11,
    DegenerateOmega,
    SlotInconsistent,
    SU3Candidate,
    build_either_orientation,
    build_su3,
    hitchin_K,
    nk_check,
    phi_from,
    tau,
)
from nk6.scalars import QSqrt3


VOL = KForm.basis(6, tuple(range(6)))
OMEGA0 = KForm.from_terms(6, 2, [((0, 1), 1), ((2, 3), 1), ((4, 5), 1)])
PSI0 = KForm.from_terms(6, 3, [((0, 2, 4), 1), ((0, 3, 5), -1),
                               ((1, 2, 5), -1), ((1, 3, 4), -1)])


def test_K_of_decomposable_form_is_zero():
    psi = KForm.basis(6, (0, 1, 2))
    K, tau0 = hitchin_K(psi, VOL)
    assert all(x == 0 for row in K for x in row)
    assert tau0 == 0
    assert tau(psi, VOL) == 0


def test_K_of_model_form():
    K, tau0 = hitchin_K(PSI0, VOL)
    assert tau0 < 0
    k2 = smallmat.mat_mul(K, K)
    assert k2 == smallmat.mat_scale(tau0, smallmat.identity(6, Fraction(1)))


def test_K_scaling_homogeneity():
    s = Fraction(3)
    K1, tau1 = hitchin_K(PSI0, VOL)
    K2, tau2 = hitchin_K(PSI0.scale(s), VOL)
    assert K2 == smallmat.mat_scale(s * s, K1)
    assert tau2 == s ** 4 * tau1


def test_tau_family_identity_exact():
    rng = random.Random(31)
    for _ in range(100):
        lams = tuple(s3xs3.random_rational(rng, 4) for _ in range(3))
        if any(l == 0 for l in lams):
            continue
        psi = s3xs3.differential(s3xs3.omega_diagonal(*lams)) / 3
        tau0 = tau(psi, s3xs3.volume_form())
        assert 81 * tau0 == s3xs3.quartic_invariant(lams)
        assert 81 * tau0 == s3xs3.quartic_factored(lams)


def test_tau_at_unit_triple():
    psi = s3xs3.differential(s3xs3.omega_diagonal(
        Fraction(1), Fraction(1), Fraction(1))) / 3
    assert tau(psi, s3xs3.volume_form()) == Fraction(-1, 27)


def test_build_model_pair():
    s, orient = build_model()
    assert s.g == smallmat.identity(6, Fraction(1))
    # block rotation up to overall sign
    j = s.J
    sign = j[1][0]
    assert sign in (1, -1)
    want = [[Fraction(0)] * 6 for _ in range(6)]
    for a, b in ((0, 1), (2, 3), (4, 5)):
        want[b][a] = Fraction(sign)
        want[a][b] = Fraction(-sign)
    assert j == want
    assert s.kappa == 2 and s.tau0 == -4


def build_model():
    for orient in (1, -1):
        try:
            return build_su3(SU3Candidate(
                OMEGA0, PSI0, KForm.basis(6, tuple(range(6)),
                                          Fraction(orient)))), orient
        except NotPositive:
            continue
    raise AssertionError("neither orientation builds")


def test_build_diagonal_solution_matches_coefficient_formulas():
    lam = Fraction(1)
    cand = s3xs3.candidate(s3xs3.DiagonalInvariantForm((lam,) * 3))
    s = build_su3(cand)
    # J X_i = alpha_i X_i + beta_i Y_i with |alpha| = 1/sqrt3, |beta| = 2/sqrt3
    third = QSqrt3(0, Fraction(1, 3))
    for i in range(3):
        alpha = s.J[i][i]
        beta = s.J[3 + i][i]
        assert alpha in (third, -third)
        assert beta in (2 * third, -2 * third)
        assert s.J[3 + i][3 + i] == -alpha
        assert s.J[i][3 + i] == -beta
    # k-identity: 9 kappa = k = lam^2 sqrt(3)
    assert 9 * s.kappa == lam * lam * QSqrt3(0, 1)


def test_build_rejects_unstable_triple():
    cand = s3xs3.candidate(s3xs3.DiagonalInvariantForm(
        (Fraction(1), Fraction(1), Fraction(3))))
    assert s3xs3.quartic_factored((1, 1, 3)) == 45
    with pytest.raises(NotStable):
        build_su3(cand)


def test_build_rejects_non_type11():
    skewed = OMEGA0 + KForm.basis(6, (0, 2))
    assert not wedge(skewed, PSI0).is_zero()
    with pytest.raises(NotType11):
        build_su3(SU3Candidate(skewed, PSI0, VOL))


def test_build_rejects_degenerate_omega():
    # omega supported on e12 only: omega ^ psi = 0 but omega^3 = 0
    om = KForm.basis(6, (0, 1))
    psi = KForm.from_terms(6, 3, [((2, 3, 4), 1), ((2, 3, 5), 1)])
    cand_psi = PSI0
    # build a psi with om ^ psi = 0: the model psi has no (0,1)-free terms;
    # use a stable psi and a degenerate omega orthogonal to it
    om2 = KForm.from_terms(6, 2, [((0, 1), 1), ((2, 3), -1)])
    pair_ok = wedge(om2, PSI0).is_zero()
    assert pair_ok
    with pytest.raises(DegenerateOmega):
        build_su3(SU3Candidate(om2, PSI0, VOL))


def test_build_rejects_negative_metric():
    with pytest.raises(NotPositive):
        build_su3(SU3Candidate(OMEGA0.scale(Fraction(-1)), PSI0,
                               KForm.basis(6, tuple(range(6)),
                                           Fraction(build_model()[1]))))


def test_phi_model_value_and_sign_behavior():
    s, _ = build_model()
    phi0 = KForm.from_terms(6, 3, [((1, 2, 4), 1), ((0, 3, 4), 1),
                                   ((0, 2, 5), 1), ((1, 3, 5), -1)])
    # e235 + e145 + e136 - e246, up to the global sign from the slot convention
    assert s.phi in (phi0, phi0.scale(Fraction(-1)))
    assert wedge(s.phi, s.omega).is_zero()
    minus_j = [[-x for x in row] for row in s.J]
    assert phi_from(s.psi, minus_j) == -s.phi


def test_phi_contraction_identity():
    s, _ = build_model()
    for i in range(6):
        e = [0] * 6
        e[i] = 1
        je = [s.J[r][i] for r in range(6)]
        assert interior(e, s.psi) == interior(je, s.phi)


def test_phi_slot_inconsistency_detected():
    # J compatible with a generic stable psi fails for a *different* psi
    s, _ = build_model()
    other = s3xs3.differential(s3xs3.omega_diagonal(
        Fraction(1), Fraction(1), Fraction(1))) / 3
    with pytest.raises(SlotInconsistent):
        phi_from(other, s.J)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(st.fractions(min_value=Fraction(1, 60), max_value=60, max_denominator=60))
@example(Fraction(1))
@example(Fraction(2))
def test_nk_check_diagonal_family(lam):
    # every condition is homogeneous in lambda, so the certificate's one
    # build of its ray (1, 1, 1) decides the whole ray lambda > 0
    omega = s3xs3.uniqueness_certificate().omega(lam, lam, lam)
    s, _ = build_either_orientation(omega, s3xs3.differential(omega) / 3)
    rep = nk_check(s, s3xs3.differential)
    assert rep.verdict
    assert rep.residual_r1 == 0.0 and rep.residual_r2 == 0.0
    assert rep.mu == s3xs3.mu_of(lam)
    assert s.tau0 == -lam ** 4 / 27


def test_nk_check_boundary_triple_raises_not_stable():
    with pytest.raises(NotStable):
        nk_check(build_su3(s3xs3.candidate(s3xs3.DiagonalInvariantForm(
            (Fraction(1), Fraction(1), Fraction(2))))), s3xs3.differential)


def test_nk_check_admissible_non_solution_fails():
    lams = (Fraction(1), Fraction(1), Fraction(3, 2))
    assert s3xs3.su3_admissible(lams)
    rep = nk_check(build_su3(s3xs3.candidate(s3xs3.DiagonalInvariantForm(lams))),
                   s3xs3.differential)
    assert not rep.verdict
    assert rep.residual_r2 > 0


def test_j_invariant_under_psi_scaling():
    s1 = build_su3(s3xs3.candidate(
        s3xs3.DiagonalInvariantForm((Fraction(1),) * 3)))
    cand = s3xs3.candidate(s3xs3.DiagonalInvariantForm((Fraction(1),) * 3))
    scaled = SU3Candidate(cand.omega, cand.psi.scale(Fraction(2)), cand.vol)
    s2 = build_su3(scaled)
    assert s2.J == s1.J
    assert s2.kappa == 4 * s1.kappa


def test_structure_wedge_normalizations():
    s, _ = build_model()
    assert wedge(s.psi, s.omega).is_zero()
    assert wedge(s.phi, s.omega).is_zero()
    assert not wedge(s.psi, s.phi).is_zero()


def test_mu_scaling_family():
    base = None
    for lam in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
        rep = nk_check(build_su3(s3xs3.candidate(
            s3xs3.DiagonalInvariantForm((lam,) * 3))), s3xs3.differential)
        prod = float(rep.mu) * float(lam)
        if base is None:
            base = prod
        assert abs(prod - base) <= 1e-10
    assert abs(base - 1 / (2 * 3 ** 0.5)) <= 1e-10
