from fractions import Fraction

import pytest

from nk6 import smallmat, spaces
from nk6.lie import (
    acs_from_automorphism,
    check_3symmetric,
    is_naturally_reductive,
)


def test_ledger_obata_dimensions():
    lo = spaces.ledger_obata_su2()
    assert lo.space.dim_h == 3 and lo.space.dim_m == 6
    assert lo.space_last_two.dim_h == 3 and lo.space_last_two.dim_m == 6


def test_ledger_obata_shift_is_order_three():
    lo = spaces.ledger_obata_su2()
    for s in (lo.s_matrix, lo.s_matrix_last_two):
        s3 = smallmat.mat_mul(s, smallmat.mat_mul(s, s))
        assert s3 == smallmat.identity(6, Fraction(1))


def test_ledger_obata_displayed_s_formula():
    # S(X, Y) = (Y - X, -X) through the (X, Y)-identification
    lo = spaces.ledger_obata_su2()
    iota = lo.identification()
    sxy = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(3):
        sxy[i][i] = Fraction(-1)
        sxy[3 + i][i] = Fraction(-1)
        sxy[i][3 + i] = Fraction(1)
    assert smallmat.mat_mul(lo.s_matrix_last_two, iota) == \
        smallmat.mat_mul(iota, sxy)


def test_ledger_obata_displayed_metric_formula():
    # g_e((X,Y),(X',Y')) = q(Y-X, Y'-X') + q(X, X')
    lo = spaces.ledger_obata_su2()
    iota = lo.identification()
    pulled = smallmat.mat_mul(
        smallmat.transpose(iota),
        smallmat.mat_mul(lo.metric_last_two, iota))
    expected = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(3):
        expected[i][i] = Fraction(2)
        expected[3 + i][3 + i] = Fraction(1)
        expected[i][3 + i] = expected[3 + i][i] = Fraction(-1)
    assert pulled == expected


def test_ledger_obata_naturally_reductive_both_presentations():
    lo = spaces.ledger_obata_su2()
    assert is_naturally_reductive(lo.space, lo.metric)
    assert is_naturally_reductive(lo.space_last_two, lo.metric_last_two)


def test_ledger_obata_canonical_complement_is_3symmetric():
    lo = spaces.ledger_obata_su2()
    j = acs_from_automorphism(lo.s_matrix)
    assert check_3symmetric(lo.space, j)
    # the projected shift on the last-two complement is not bracket
    # compatible: the conditions fail there
    j2 = acs_from_automorphism(lo.s_matrix_last_two)
    assert not check_3symmetric(lo.space_last_two, j2)


def test_flag_model_brackets_and_weights():
    fm = spaces.flag_model()
    failures, display = spaces._flag_bracket_family_checks(fm)
    assert not failures
    assert display  # the classical <0,0,ab> display deviates; recorded
    ok, display_match = spaces._flag_weight_checks(fm)
    assert ok and not display_match


def test_flag_displayed_bracket_example():
    # [<1,0,0>, <0,1,0>] lands in the r-summand with unit size
    one = (Fraction(1), Fraction(0))
    zero = (Fraction(0), Fraction(0))
    lhs = spaces.cmat_bracket(spaces.flag_matrix(one, zero, zero),
                              spaces.flag_matrix(zero, one, zero))
    assert spaces.cmat_eq(lhs, spaces.flag_matrix(zero, zero,
                                                  (Fraction(-1), Fraction(0))))


def test_flag_torus_bracket_example():
    # [<1,0,0>, <i,0,0>] = diag(iy, -iy, 0) with y = 2 Im(1 * conj(i)) = -2
    one = (Fraction(1), Fraction(0))
    eye = (Fraction(0), Fraction(1))
    zero = (Fraction(0), Fraction(0))
    lhs = spaces.cmat_bracket(spaces.flag_matrix(one, zero, zero),
                              spaces.flag_matrix(eye, zero, zero))
    rhs = spaces.cmat([[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                      [[-2, 0, 0], [0, 2, 0], [0, 0, 0]])
    assert spaces.cmat_eq(lhs, rhs)


def test_flag_verify_small_grid():
    rep = spaces.flag_verify(grid=2)
    assert rep.ok
    assert rep.canonical_3symmetric
    mixed = {k: v for k, v in rep.flipped_integrable.items()
             if k not in ((1, 1, 1), (-1, -1, -1))}
    assert len(mixed) == 6 and all(mixed.values())
    assert not rep.flipped_integrable[(1, 1, 1)]
    assert rep.natred_grid[(1, 1, 1)] and not rep.natred_grid[(1, 1, 2)]
    assert rep.certificate.solutions == [(1, 1, 1)]
    nk = next(v for v in rep.verdicts
              if v.name == "nearly Kahler verdict iff r = s = t")
    assert nk.status == "pass"
    assert nk.detail == "certificate flag (r, s, t): 1 branch, solution ray (1, 1, 1)"


def test_cp3_model_reductive_split():
    cm = spaces.cp3_model()
    assert cm.space.dim_h == 4 and cm.space.dim_m == 6
    assert cm.space.algebra.dim == 10


def test_cp3_isotropy_commutant():
    cm = spaces.cp3_model()
    comm = spaces.isotropy_commutant(cm.space)
    assert len(comm) == 4
    blocks = [spaces._block_support(m) for m in comm]
    assert all(not b[2] for b in blocks)  # no cross terms
    assert sum(1 for b in blocks if b[0] and not b[1]) == 2
    assert sum(1 for b in blocks if b[1] and not b[0]) == 2


def test_cp3_acs_count_is_exact():
    cm = spaces.cp3_model()
    comm = spaces.isotropy_commutant(cm.space)
    assert spaces._count_acs_candidates(cm, comm) == 4
    # outside the span of the identity alone: no candidate survives
    assert spaces._count_acs_candidates(cm, [smallmat.identity(6)]) == 0


def test_cp3_verify():
    rep = spaces.cp3_verify()
    assert rep.ok
    assert rep.commutant_dimension == 4
    assert rep.summand_dims == (4, 2)
    assert rep.acs_candidates == 4
    assert rep.nk_fiber_sign == -rep.kahler_fiber_sign
    assert rep.nk_fiber_sign == -1
    assert rep.t_nk == Fraction(1, 2)
    assert rep.t_kahler == 1
    assert rep.ratio == 2
    assert all(isinstance(x, Fraction)
               for x in (rep.t_nk, rep.t_kahler, rep.ratio))


def test_table_rows():
    rep = spaces.table_check()
    assert rep.ok
    assert len(rep.rows) == 8
    by_target = {}
    for row in rep.rows:
        assert row["codimension"] == 6
        assert row["h"] in spaces.ALLOWED_ISOTROPY
        by_target.setdefault(row["target"], 0)
        by_target[row["target"]] += 1
    assert by_target == {"S3xS3": 5, "F3": 1, "CP3": 1, "S6": 1}
    specific = {(r["h"], r["g"]): r for r in rep.rows}
    assert specific[("su(3)", "g2")]["dim_g"] == 14
    assert specific[("su(3)", "g2")]["dim_h"] == 8
    assert specific[("0", "su(2)+su(2)")]["dim_g"] == 6
    assert specific[("u(2)", "sp(2)")]["dim_g"] == 10


def test_algebra_dimension_parser():
    assert spaces.algebra_dimension("su(3)") == 8
    assert spaces.algebra_dimension("2u(1)") == 2
    assert spaces.algebra_dimension("u(1)+su(2)+su(2)+su(2)") == 10
    assert spaces.algebra_dimension("g2") == 14


def _two_orientation_build(omega, psi):
    """Reference: try the orientation +1, then -1; raise the last error."""
    from nk6.exterior import KForm
    from nk6.hitchin import SU3Candidate, StructureError, build_su3

    last = None
    for orient in (1, -1):
        vol = KForm.basis(6, (0, 1, 2, 3, 4, 5), Fraction(orient))
        try:
            return build_su3(SU3Candidate(omega, psi, vol)), orient
        except StructureError as ex:
            last = ex
    raise last


def _orientation_candidates():
    import random

    from nk6 import s3xs3
    from nk6.lie import ce_differential

    out = [(s3xs3.omega_diagonal(*lams), s3xs3.differential)
           for lams in ((1, 1, 1), (-2, -2, -2), (1, -1, -1))]
    rng = random.Random(7)
    while len(out) < 12:
        lams = tuple(s3xs3.random_rational(rng, 3) for _ in range(3))
        if all(l != 0 for l in lams):
            out.append((s3xs3.omega_diagonal(*lams), s3xs3.differential))
    fm = spaces.flag_model()
    flag_d = lambda a: ce_differential(fm.space, a)
    for rst, signs in (((1, 1, 1), (1, 1, 1)), ((1, 2, 3), (1, 1, 1)),
                       ((1, 1, 1), (-1, -1, -1)), ((2, 1, 1), (1, -1, 1))):
        out.append((fm.omega(*rst, signs=signs), flag_d))
    cm = spaces.cp3_model()
    cp3_d = lambda a: ce_differential(cm.space, a, check_invariance=False)
    for t in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        for fiber in (1, -1):
            out.append((cm.omega(t, fiber), cp3_d))
    exact = [(omega, d(omega) / 3) for omega, d in out]
    floats = [(omega.to_float(), psi.to_float()) for omega, psi in exact[::2]]
    return exact + floats


def test_one_build_orientation_matches_two_orientation_loop():
    from nk6.hitchin import StructureError

    outcomes = set()
    for omega, psi in _orientation_candidates():
        try:
            want, want_orient = _two_orientation_build(omega, psi)
        except StructureError as ex:
            with pytest.raises(StructureError) as got:
                spaces.build_either_orientation(omega, psi)
            assert got.value.label == ex.label
            outcomes.add(ex.label)
            continue
        s, orient = spaces.build_either_orientation(omega, psi)
        assert orient == want_orient
        assert s.kappa == want.kappa and s.tau0 == want.tau0
        assert s.g == want.g and s.J == want.J
        assert s.phi == want.phi and s.vol == want.vol
        outcomes.add(orient)
    # both orientations and at least one structure error were exercised
    assert {1, -1} <= outcomes and len(outcomes) > 2
