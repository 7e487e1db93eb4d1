"""End-to-end acceptance criteria, one test per criterion.

Each test pins its stated tolerance; the terminal summary prints one
pass/fail line per criterion (see conftest).
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from conftest import pipeline_nk_verdict
from nk6 import cone, octonion as oc, s3xs3, smallmat, spaces
from nk6.certificate import pair_polynomials
from nk6.exterior import KForm
from nk6.hitchin import SU3Candidate, build_su3, nk_check
from nk6.lie import (
    ce_differential,
    eta_parallel_residual,
    eta_total_skew_residual,
    intrinsic_eta,
    is_naturally_reductive,
    nearly_kahler_residual,
    ricci,
)
from nk6.poly import Poly


def test_criterion_1_s3xs3_uniqueness_and_mu():
    """Diagonal family solve: the polynomial certificate leaves only
    |l1| = |l2| = |l3|, mu = 1/(2 sqrt 3) at lambda 1, under 30 seconds."""
    started = time.time()
    rep = s3xs3.solve_nk()
    elapsed = time.time() - started
    assert rep.ok
    assert rep.certificate.unique
    assert rep.certificate.solutions == [(1, 1, 1)]
    assert rep.family.startswith("(lambda, lambda, lambda)")
    nk = nk_check(build_su3(s3xs3.candidate(s3xs3.DiagonalInvariantForm(
        (Fraction(1),) * 3))), s3xs3.differential)
    assert nk.verdict
    assert nk.mu == s3xs3.mu_of(1)
    assert abs(float(nk.mu) - 1 / (2 * 3 ** 0.5)) <= 1e-10
    assert elapsed < 30


def test_criterion_2_tau_formula_identity():
    """81 tau0 equals the quartic and its factorization as polynomials, and
    on 500 exact triples."""
    lams = Poly.variables(3)
    tau0, _ = pair_polynomials(s3xs3.omega_diagonal(*lams), s3xs3.differential)
    assert 81 * tau0 == s3xs3.quartic_invariant(lams)
    assert 81 * tau0 == s3xs3.quartic_factored(lams)

    rng = random.Random(101)
    vol = s3xs3.volume_form()
    checked = 0
    while checked < 500:
        lams = tuple(s3xs3.random_rational(rng, 5) for _ in range(3))
        if any(l == 0 for l in lams):
            continue
        checked += 1
        psi = s3xs3.differential(s3xs3.omega_diagonal(*lams)) / 3
        from nk6.hitchin import tau
        tau0 = tau(psi, vol)
        assert 81 * tau0 == s3xs3.quartic_invariant(lams)
        assert 81 * tau0 == s3xs3.quartic_factored(lams)
    assert checked == 500


def test_criterion_3_flag_manifold():
    """Exact brackets and order-3 conditions; natural reductivity holds iff
    r = s = t (the defect's nullspace is the ray (1, 1, 1), and the 64-point
    grid {1..4}^3 agrees), and the certificate proves the nearly Kahler
    system holds iff r = s = t.  Under 60 seconds."""
    started = time.time()
    rep = spaces.flag_verify()
    elapsed = time.time() - started
    assert rep.ok
    assert rep.bracket_families_exact
    assert rep.weights_exact
    assert rep.canonical_3symmetric
    assert rep.natred_rays == [[1, 1, 1]]
    model = spaces.flag_model()
    for r, s, t in itertools.product(range(1, 5), repeat=3):
        assert is_naturally_reductive(model.space, model.metric(r, s, t)) == \
            (r == s == t)
    assert rep.certificate.unique
    assert rep.certificate.solutions == [(1, 1, 1)]
    assert elapsed < 60


def test_criterion_4_cp3():
    """Two irreducible summands (4,2); one nearly Kahler fiber scaling for one
    sign pattern and one Kahler scaling for the opposite sign, exactly
    t_nk = 1/2 and t_kahler = 1."""
    rep = spaces.cp3_verify()
    assert rep.ok
    assert rep.commutant_dimension == 4
    assert rep.summand_dims == (4, 2) and rep.summands_irreducible
    assert rep.acs_candidates == 4
    assert rep.nk_unique and rep.kahler_unique
    assert rep.kahler_fiber_sign == -rep.nk_fiber_sign
    assert rep.t_nk == Fraction(1, 2)
    assert rep.t_kahler == 1
    assert rep.ratio == 2


def test_criterion_5_cone_g2():
    """Cone 3-form closed and coclosed: exact zeros for the diagonal solution
    and the octonionic sphere data, float residuals < 1e-10, 20 perturbed
    inputs fail both, and the unit-radius expansion is the signed 7-term sum."""
    # exact lane: diagonal solution
    s = build_su3(s3xs3.candidate(s3xs3.DiagonalInvariantForm(
        (Fraction(1),) * 3)))
    rep = cone.cone_check(s, s3xs3.differential)
    assert rep.verdict
    assert rep.d_rho_residual == 0 and rep.d_star_rho_residual == 0

    # exact lane: octonionic sphere point
    x = [Fraction(0)] * 7
    x[0] = Fraction(1)
    s6, _, _ = oc.s6_structure_at(x)
    rep6 = cone.cone_check(s6, cone.s6_link_differential(s6))
    assert rep6.verdict
    assert rep6.d_rho_residual == 0 and rep6.d_star_rho_residual == 0

    # float lane: the diagonal solution and a random sphere point
    cand = s3xs3.candidate(s3xs3.DiagonalInvariantForm((Fraction(1),) * 3))
    sf = build_su3(SU3Candidate(cand.omega.to_float(), cand.psi.to_float(),
                                cand.vol.to_float()))
    repf = cone.cone_check(sf, s3xs3.differential)
    assert repf.d_rho_residual < 1e-10 and repf.d_star_rho_residual < 1e-10
    v = np.random.default_rng(5).normal(size=7)
    v /= np.linalg.norm(v)
    s6f, _, _ = oc.s6_structure_at([float(t) for t in v])
    rep6f = cone.cone_check(s6f, cone.s6_link_differential(s6f))
    assert rep6f.d_rho_residual < 1e-10 and rep6f.d_star_rho_residual < 1e-10

    # 20 perturbed non-solutions fail both checks
    rng = random.Random(55)
    count = 0
    while count < 20:
        lams = tuple(s3xs3.random_rational(rng, 3) for _ in range(3))
        if (any(l == 0 for l in lams)
                or abs(lams[0]) == abs(lams[1]) == abs(lams[2])
                or not s3xs3.su3_admissible(lams)):
            continue
        count += 1
        base = s3xs3.candidate(s3xs3.DiagonalInvariantForm(lams))
        scale = 1 + Fraction(rng.randint(1, 4), 10)
        bent = build_su3(SU3Candidate(base.omega, base.psi.scale(scale),
                                      base.vol))
        brep = cone.cone_check(bent, s3xs3.differential)
        assert not brep.verdict
        assert brep.d_rho_residual > 0 and brep.d_star_rho_residual > 0

    # u-basis expansion of the model pair
    om0 = KForm.from_terms(6, 2, [((0, 1), 1), ((2, 3), 1), ((4, 5), 1)])
    psi0 = KForm.from_terms(6, 3, [((0, 2, 4), 1), ((0, 3, 5), -1),
                                   ((1, 2, 5), -1), ((1, 3, 4), -1)])
    u = cone.u_basis_expansion(cone.cone_rho(om0, psi0))
    expected = KForm.from_terms(7, 3, [
        ((0, 1, 2), 1), ((0, 3, 4), 1), ((0, 5, 6), 1),
        ((1, 3, 5), 1), ((1, 4, 6), -1), ((2, 3, 6), -1), ((2, 4, 5), -1)])
    assert u == expected


def test_criterion_6_s6_octonionic():
    """100 random unit points: the stable-form J is the octonion product up
    to one global sign within 1e-10; basis identities exact."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=7)
        v /= np.linalg.norm(v)
        _, _, dev = oc.s6_structure_at([float(t) for t in v])
        worst = max(worst, dev)
    assert worst < 1e-10
    # the proof that verify s6 reports: G2-homogeneity and agreement at e1
    assert oc.s6_verify().ok

    # alternativity and norm multiplicativity, exact on basis elements
    for i in range(8):
        x = [0] * 8
        x[i] = 1
        for j in range(8):
            y = [0] * 8
            y[j] = 1
            xx = oc.oct_mul(x, x)
            assert all(c == 0 for c in xx[1:])
            assert oc.oct_mul(x, oc.oct_mul(x, y)) == [xx[0] * v for v in y]
            assert sum(c * c for c in oc.oct_mul(x, y)) == 1


CATALOG_NK = None


def _catalog_nk_structures():
    """The nearly Kahler data of the three bracket-presented model spaces."""
    global CATALOG_NK
    if CATALOG_NK is not None:
        return CATALOG_NK
    out = []
    space = s3xs3.cyclic_space()
    cand = s3xs3.candidate(s3xs3.DiagonalInvariantForm((Fraction(1),) * 3))
    out.append(("s3xs3", space, cand.omega, lambda a: ce_differential(space, a)))
    fm = spaces.flag_model()
    out.append(("flag", fm.space, fm.omega(1, 1, 1),
                lambda a: ce_differential(fm.space, a)))
    cm = spaces.cp3_model()
    out.append(("cp3", cm.space, cm.omega(Fraction(1, 2), -1),
                lambda a: ce_differential(cm.space, a)))
    CATALOG_NK = out
    return out


def test_criterion_7_cross_oracle_consistency():
    """Connection-level and form-level nearly Kahler verdicts agree on every
    bracket-presented catalog structure, with eta totally skew and parallel."""
    for name, space, omega, diff in _catalog_nk_structures():
        psi = diff(omega) / 3
        s, _ = spaces.build_either_orientation(omega, psi)
        ok, res = nearly_kahler_residual(space, s.g, s.J)
        assert ok and res < 1e-10, name
        eta = intrinsic_eta(space, s.g, s.J)
        assert eta_total_skew_residual(s.g, eta) < 1e-10, name
        assert eta_parallel_residual(space, s.g, s.J) < 1e-10, name
        rep = nk_check(s, diff)
        assert rep.verdict == ok, name
    # and a negative control: off the locus both oracles say no
    fm = spaces.flag_model()
    g = fm.metric(1, 1, 2)
    ok, res = nearly_kahler_residual(fm.space, g, fm.acs((1, 1, 1)))
    assert not ok
    assert not pipeline_nk_verdict(fm.omega(1, 1, 2),
                                   lambda a: ce_differential(fm.space, a))


def test_criterion_8_einstein():
    """Ric = (scal/6) g with positive scalar curvature on the diagonal
    solution metric, relative deviation < 1e-8."""
    s = build_su3(s3xs3.candidate(s3xs3.DiagonalInvariantForm(
        (Fraction(1),) * 3)))
    ric, scal, einstein_ok, rel = ricci(s3xs3.cyclic_space(), s.g)
    assert einstein_ok
    assert rel < 1e-8
    assert float(scal) > 0
    lam = scal / 6
    dev = smallmat.mat_max_abs(
        smallmat.mat_sub(ric, smallmat.mat_scale(lam, s.g)))
    assert dev <= 1e-8 * max(smallmat.mat_max_abs(ric), 1.0)


def test_criterion_9_isotropy_table():
    """All 8 rows have codimension 6 and an allowed isotropy algebra."""
    rep = spaces.table_check()
    assert len(rep.rows) == 8
    for row in rep.rows:
        assert row["dim_g"] - row["dim_h"] == 6
        assert row["isotropy_allowed"]
    assert rep.ok
