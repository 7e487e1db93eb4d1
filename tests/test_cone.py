import random
from fractions import Fraction

import pytest

from nk6 import cone, octonion as oc, s3xs3
from nk6.exterior import HodgeStar, KForm, hodge_star, index_tuples, metric_volume
from nk6.hitchin import SU3Candidate, build_su3, nk_check, omega3_sign


def diagonal_structure(lams=(1, 1, 1)):
    lams = tuple(Fraction(x) for x in lams)
    return build_su3(s3xs3.candidate(s3xs3.DiagonalInvariantForm(lams)))


def test_cone_differential_leibniz_monomial():
    psi = KForm.basis(6, (0, 2, 4), Fraction(2))
    c = cone.ConeForm().add(3, False, psi)
    d = cone.cone_differential(c, s3xs3.differential)
    dr_part = d.term(2, True, 3)
    assert dr_part == psi.scale(3)
    tangential = d.term(3, False, 4)
    assert tangential == s3xs3.differential(psi)


def test_cone_differential_dr_part():
    alpha = KForm.basis(6, (0,), Fraction(1))
    c = cone.ConeForm().add(2, True, alpha)
    d = cone.cone_differential(c, s3xs3.differential)
    assert d.term(2, True, 2) == s3xs3.differential(alpha).scale(-1)
    assert len(d.terms) == 1


def test_cone_d_squared_zero():
    rng = random.Random(21)
    for _ in range(20):
        c = cone.ConeForm()
        for _ in range(3):
            k = rng.randint(1, 3)
            tuples, _ = index_tuples(6, k)
            f = KForm(6, k, [Fraction(rng.randint(-3, 3)) for _ in tuples])
            c.add(rng.randint(1, 4), rng.choice([True, False]), f)
        dd = cone.cone_differential(
            cone.cone_differential(c, s3xs3.differential), s3xs3.differential)
        assert dd.is_zero()


def test_cone_hodge_matches_seven_dimensional_star():
    """Term-wise cone star against the direct 7-dim star at radius 1."""
    s = diagonal_structure()
    g7 = [[Fraction(0)] * 7 for _ in range(7)]
    g7[0][0] = Fraction(1)
    for i in range(6):
        for j in range(6):
            g7[i + 1][j + 1] = s.g[i][j]
    orient = omega3_sign(s.omega)
    vol6 = metric_volume(s.g, orientation=orient)
    vol7 = metric_volume(g7, orientation=orient)
    rho = cone.cone_rho(s.omega, s.psi)
    lhs = cone.u_basis_expansion(cone.cone_hodge(rho, HodgeStar(s.g, vol6)))
    rhs = hodge_star(cone.u_basis_expansion(rho), g7, vol7)
    assert lhs == rhs


def test_cone_check_solution_exact_zeros():
    s = diagonal_structure()
    rep = cone.cone_check(s, s3xs3.differential)
    assert rep.verdict
    assert rep.d_rho_residual == 0 and rep.d_star_rho_residual == 0
    assert rep.omega2_coefficient == Fraction(1, 2)
    assert rep.phi_term_residual == 0


def test_cone_check_s6_exact_zeros():
    x = [Fraction(0)] * 7
    x[0] = Fraction(1)
    s6, _, _ = oc.s6_structure_at(x)
    rep = cone.cone_check(s6, cone.s6_link_differential(s6))
    assert rep.verdict
    assert rep.d_rho_residual == 0 and rep.d_star_rho_residual == 0
    assert rep.omega2_coefficient == Fraction(1, 2)
    assert rep.phi_term_residual == 0


def test_cone_check_matches_u_basis_display():
    s = diagonal_structure()
    # the model co-frame expansion: r^2 dr^omega + r^3 psi at r = 1 is the
    # signed 7-term unit sum for the standard pair
    om0 = KForm.from_terms(6, 2, [((0, 1), 1), ((2, 3), 1), ((4, 5), 1)])
    psi0 = KForm.from_terms(6, 3, [((0, 2, 4), 1), ((0, 3, 5), -1),
                                   ((1, 2, 5), -1), ((1, 3, 4), -1)])
    u = cone.u_basis_expansion(cone.cone_rho(om0, psi0))
    expected = KForm.from_terms(7, 3, [
        ((0, 1, 2), 1), ((0, 3, 4), 1), ((0, 5, 6), 1),
        ((1, 3, 5), 1), ((1, 4, 6), -1), ((2, 3, 6), -1), ((2, 4, 5), -1)])
    assert u == expected


def test_g2_identity_constant_six():
    om0 = KForm.from_terms(6, 2, [((0, 1), 1), ((2, 3), 1), ((4, 5), 1)])
    psi0 = KForm.from_terms(6, 3, [((0, 2, 4), 1), ((0, 3, 5), -1),
                                   ((1, 2, 5), -1), ((1, 3, 4), -1)])
    rho7 = cone.u_basis_expansion(cone.cone_rho(om0, psi0))
    c, dev = cone.g2_metric_identity(rho7)
    assert dev == 0
    assert abs(c) == 6


def test_cone_check_perturbed_inputs_fail_both():
    rng = random.Random(29)
    count = 0
    while count < 20:
        lams = tuple(s3xs3.random_rational(rng, 3) for _ in range(3))
        if (any(l == 0 for l in lams)
                or abs(lams[0]) == abs(lams[1]) == abs(lams[2])
                or not s3xs3.su3_admissible(lams)):
            continue
        count += 1
        factor = Fraction(rng.randint(2, 5), rng.randint(6, 9))  # != 1
        base = s3xs3.candidate(s3xs3.DiagonalInvariantForm(lams))
        cand = SU3Candidate(base.omega, base.psi.scale(1 + factor), base.vol)
        s = build_su3(cand)
        rep = cone.cone_check(s, s3xs3.differential)
        assert not rep.verdict
        assert rep.d_rho_residual > 0
        assert rep.d_star_rho_residual > 0


def test_cone_check_agrees_with_nk_check():
    rng = random.Random(33)
    count = 0
    while count < 15:
        lams = tuple(s3xs3.random_rational(rng, 2) for _ in range(3))
        if any(l == 0 for l in lams) or not s3xs3.su3_admissible(lams):
            continue
        count += 1
        cand = s3xs3.candidate(s3xs3.DiagonalInvariantForm(lams))
        s = build_su3(cand)
        nk = nk_check(s, s3xs3.differential)
        crep = cone.cone_check(s, s3xs3.differential)
        assert crep.verdict == nk.verdict


def test_cone_check_agrees_on_all_catalog_structures():
    from nk6 import spaces
    from nk6.lie import ce_differential

    fm = spaces.flag_model()
    cm = spaces.cp3_model()
    cases = [
        (fm.space, fm.omega(1, 1, 1), True),
        (fm.space, fm.omega(1, 1, 2), False),
        (cm.space, cm.omega(Fraction(1, 2), -1), True),
        (cm.space, cm.omega(Fraction(3, 2), -1), False),
        # 10^-12 off the solution: exact data is decided exactly
        (fm.space, fm.omega(1, 1, 1 + Fraction(1, 10 ** 12)), False),
        (cm.space, cm.omega(Fraction(1, 2) + Fraction(1, 10 ** 12), -1), False),
    ]
    for space, omega, expect in cases:
        diff = lambda a: ce_differential(space, a, check_invariance=False)
        psi = diff(omega) / 3
        s, _ = spaces.build_either_orientation(omega, psi)
        nk = nk_check(s, diff)
        crep = cone.cone_check(s, diff)
        assert nk.verdict == expect
        assert crep.verdict == expect


def test_cone_check_s6_float_mode():
    import numpy as np

    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.normal(size=7)
        v /= np.linalg.norm(v)
        s6, _, _ = oc.s6_structure_at([float(t) for t in v])
        rep = cone.cone_check(s6, cone.s6_link_differential(s6))
        assert rep.verdict
        assert rep.d_rho_residual < 1e-10
        assert rep.d_star_rho_residual < 1e-10


def test_span_differential_rejects_outside_span():
    x = [Fraction(0)] * 7
    x[0] = Fraction(1)
    s6, _, _ = oc.s6_structure_at(x)
    d = cone.s6_link_differential(s6)
    with pytest.raises(Exception):
        d(KForm.basis(6, (0, 1)) + s6.omega.scale(Fraction(1, 7)))


def test_cone_form_merging_and_scaling():
    f = KForm.basis(6, (0, 1))
    c = cone.ConeForm()
    c.add(2, False, f)
    c.add(2, False, f.scale(Fraction(-1)))
    assert c.is_zero()
    c2 = cone.ConeForm().add(1, True, f).scale(Fraction(3))
    assert c2.term(1, True, 2) == f.scale(Fraction(3))
    with pytest.raises(ValueError):
        cone.ConeForm().add(-1, False, f)


def _rescale_cases():
    from nk6 import spaces
    from nk6.lie import ce_differential

    for lam in (1, 2, Fraction(1, 2)):
        yield diagonal_structure((lam,) * 3), s3xs3.differential
    fm = spaces.flag_model()
    flag_d = lambda a: ce_differential(fm.space, a)
    for rst in ((1, 1, 1), (1, 2, 3)):
        omega = fm.omega(*rst)
        yield spaces.build_either_orientation(omega, flag_d(omega) / 3)[0], flag_d
    cm = spaces.cp3_model()
    cp3_d = lambda a: ce_differential(cm.space, a, check_invariance=False)
    omega = cm.omega(Fraction(1, 2), -1)
    yield spaces.build_either_orientation(omega, cp3_d(omega) / 3)[0], cp3_d
    x = [Fraction(0)] * 7
    x[0] = Fraction(1)
    s6, _, _ = oc.s6_structure_at(x)
    yield s6, cone.s6_link_differential(s6)


def test_closed_form_rescale_equals_rebuild():
    # the check of s at its fitted scale c reads s's build through the
    # star's scaling law; the structure built again from (c omega, c psi)
    # has fit 1 and the same cone report
    for s, d in _rescale_cases():
        rep = cone.cone_check(s, d)
        assert rep.rescaled and rep.fit > 0 and rep.normalization == rep.fit
        c = rep.fit
        rebuilt = build_su3(SU3Candidate(s.omega.scale(c), s.psi.scale(c), s.vol))
        again = cone.cone_check(rebuilt, d)
        assert again.fit == again.normalization == 1
        for report in (rep, again):
            report.fit = report.normalization = None
        assert vars(again) == vars(rep)
