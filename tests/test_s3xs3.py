import random
from fractions import Fraction

import numpy as np
import pytest

from nk6 import s3xs3, smallmat
from nk6.certificate import check_certificate
from nk6.exterior import wedge
from nk6.hitchin import StructureError, build_su3, nk_check
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
    assert s3xs3.nondegenerate(s3xs3.ABCForm(zero, zero, eye))
    singular = [[Fraction(1), Fraction(0), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(0)],
                [Fraction(0), Fraction(0), Fraction(0)]]
    assert not s3xs3.nondegenerate(s3xs3.ABCForm(zero, zero, singular))


def test_nondegeneracy_scalar_matches_wedge_oracle():
    rng = random.Random(13)
    for _ in range(25):
        w = rnd_abc(rng)
        om = w.to_form()
        o3 = wedge(wedge(om, om), om)
        assert o3.c[0] == -6 * s3xs3.nondegeneracy_scalar(w)


def test_reduce_diagonal_fast_path():
    zero = [Fraction(0)] * 3
    c = [[Fraction(1), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(3)]]
    d, m, n = s3xs3.reduce_to_diagonal(s3xs3.ABCForm(zero, zero, c))
    assert d.lams == (1, 2, 3)
    assert m == smallmat.identity(3, Fraction(1))
    assert n == smallmat.identity(3, Fraction(1))


def _rotation(axis, th):
    i, j = [k for k in range(3) if k != axis]
    r = np.eye(3)
    r[i, i] = r[j, j] = np.cos(th)
    r[i, j], r[j, i] = -np.sin(th), np.sin(th)
    return r


def test_reduce_svd_path_recovers_values():
    # one rotation with det C > 0, then two-sided rotations with det C < 0
    # (between them they flip U and V into SO(3))
    cases = [
        (_rotation(2, 0.9), [1.0, 1.0, 2.0], np.eye(3)),
        (_rotation(2, 0.9), [1.0, -2.0, 3.0], _rotation(0, 0.4)),
        (_rotation(1, 0.7), [3.0, -2.0, 1.0], _rotation(2, 0.4)),
    ]
    zero = [0.0] * 3
    for left, diag, right in cases:
        c = (left @ np.diag(diag) @ right.T).tolist()
        d, m, n = s3xs3.reduce_to_diagonal(s3xs3.ABCForm(zero, zero, c))
        vals = sorted(abs(x) for x in d.lams)
        assert vals == pytest.approx(sorted(abs(x) for x in diag), abs=1e-9)
        prod = d.lams[0] * d.lams[1] * d.lams[2]
        assert prod == pytest.approx(float(np.linalg.det(np.array(c))),
                                     abs=1e-9)
        # reconstruction M D N^t = C
        recon = np.array(m) @ np.diag(d.lams) @ np.array(n).T
        assert np.abs(recon - np.array(c)).max() < 1e-12
        assert np.linalg.det(np.array(m)) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(np.array(n)) == pytest.approx(1.0, abs=1e-12)


def test_reduce_rejects_type_failures():
    zero = [Fraction(0)] * 3
    a = [Fraction(1), Fraction(0), Fraction(0)]
    eye = smallmat.identity(3, Fraction(1))
    with pytest.raises(s3xs3.TypeConditionFails):
        s3xs3.reduce_to_diagonal(s3xs3.ABCForm(a, zero, eye))
    singular = [[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(0)]]
    with pytest.raises(s3xs3.Degenerate):
        s3xs3.reduce_to_diagonal(s3xs3.ABCForm(zero, zero, singular))


def test_det_invariant_under_coframe_changes():
    rng = np.random.default_rng(7)
    c = np.array([[1.0, 0.5, 0.0], [-0.25, 2.0, 1.0], [0.0, 0.5, -1.0]])
    det = np.linalg.det(c)
    for _ in range(100):
        qm, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        qn, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(qm) < 0:
            qm[:, 0] *= -1
        if np.linalg.det(qn) < 0:
            qn[:, 0] *= -1
        assert np.linalg.det(qm @ c @ qn.T) == pytest.approx(det, rel=1e-9)


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
        k2 = 81 * float(s.kappa) ** 2
        assert abs(k2 - float(-s3xs3.quartic_factored(lams))) <= 1e-10 * max(k2, 1)


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
    assert all(rep.verified_examples)
    assert rep.mu_at_one == s3xs3.mu_of(1)
    assert float(rep.mu_at_one) == pytest.approx(1 / (2 * 3 ** 0.5), abs=1e-14)


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
