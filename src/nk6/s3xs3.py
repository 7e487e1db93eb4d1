"""Invariant nearly Kahler structures on S^3 x S^3.

The left-invariant calculus happens on su(2) (+) su(2) in a cyclic
co-frame (e1,e2,e3,f1,f2,f3) with d e_i = e_{i+1} ^ e_{i+2} and
d f_i = f_{i+1} ^ f_{i+2}.  A generic invariant 2-form is a triple
(A, B, C) with 15 parameters; type (1,1) forces A = B = 0
(:func:`type_identity`), and co-frame rotations act by C -> M C N^t
(:func:`rotation_identity`), so the real SVD (cited) leaves the diagonal
triple (lambda_1, lambda_2, lambda_3).  A polynomial certificate in the
lambda_i^2 (:func:`uniqueness_certificate`) shows that the nearly Kahler
system holds only on (lambda, lambda, lambda), up to co-frame signs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import smallmat
from .certificate import Certificate, Claim, check_certificate
from .cone import cone_verdicts
from .exterior import KForm, wedge
from .hitchin import SU3Candidate, build_su3, nk_check
from .lie import (
    LieAlgebraData, ReductiveSpace, ce_differential, ricci, su2_sum)
from .poly import Poly
from .report import Report, verdict
from .scalars import EPS, QSqrt3, exact_div, is_zero


_SPACE = None


def cyclic_space():
    """su(2) (+) su(2) as block-diagonal 6 x 6 matrices X_i (+) 0, 0 (+) X_i.

    With X_i = -L_i (:func:`nk6.lie.su2_sum`) the constants are those for
    which the cyclic co-frame axiom d e_i = e_{i+1} ^ e_{i+2} holds; this
    is asserted on first use.
    """
    global _SPACE
    if _SPACE is None:
        algebra = LieAlgebraData.from_matrices(
            [su2_sum(i, (1, 0)) for i in range(3)]
            + [su2_sum(i, (0, 1)) for i in range(3)],
            labels=["e1", "e2", "e3", "f1", "f2", "f3"])
        space = ReductiveSpace(algebra, [], list(range(6)))
        for base in (0, 3):
            for i in range(3):
                want = KForm.basis(6, (base + (i + 1) % 3, base + (i + 2) % 3))
                got = ce_differential(space, KForm.basis(6, (base + i,)))
                if got != want:
                    raise AssertionError("cyclic co-frame axiom failed")
        _SPACE = space
    return _SPACE


def volume_form(orientation=1):
    """e123 ^ f123, the reference orientation of the diagonal family."""
    return KForm.basis(6, (0, 1, 2, 3, 4, 5), Fraction(orientation))


def differential(alpha):
    return ce_differential(cyclic_space(), alpha)


# ---------------------------------------------------------------------------
class ABCForm:
    """omega = sum a_i e_{i+1}e_{i+2} + sum b_i f_{i+1}f_{i+2} + sum c_ij e_i f_j."""

    def __init__(self, A, B, C):
        self.A, self.B, self.C = A, B, C  # 3, 3 and 3 x 3 coefficients

    def to_form(self):
        terms = []
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            terms.append(((j, k), self.A[i]))
            terms.append(((3 + j, 3 + k), self.B[i]))
        for i in range(3):
            for j in range(3):
                terms.append(((i, 3 + j), self.C[i][j]))
        return KForm.from_terms(6, 2, terms)


class DiagonalInvariantForm:
    """omega = lambda_1 e1^f1 + lambda_2 e2^f2 + lambda_3 e3^f3, lambdas nonzero."""

    def __init__(self, lams):
        if len(lams) != 3 or any(l == 0 for l in lams):
            raise ValueError("need three nonzero coefficients")
        self.lams = tuple(lams)

    def to_form(self):
        return KForm.from_terms(
            6, 2, [((i, 3 + i), self.lams[i]) for i in range(3)])


def omega_diagonal(l1, l2, l3):
    return DiagonalInvariantForm((l1, l2, l3)).to_form()


def candidate(diag, orientation=1):
    """SU(3) candidate (omega, d omega / 3) of a diagonal triple."""
    om = diag.to_form() if isinstance(diag, DiagonalInvariantForm) else diag
    psi = differential(om) / 3
    return SU3Candidate(om, psi, volume_form(orientation))


# ---------------------------------------------------------------------------
def nondegeneracy_scalar(w):
    """det C - A^t C B, det C as a Leibniz sum so that Poly entries work."""
    c = w.C
    det = (c[0][0] * c[1][1] * c[2][2] + c[0][1] * c[1][2] * c[2][0]
           + c[0][2] * c[1][0] * c[2][1] - c[0][2] * c[1][1] * c[2][0]
           - c[0][0] * c[1][2] * c[2][1] - c[0][1] * c[1][0] * c[2][2])
    return det - smallmat.vec_dot(smallmat.mat_vec(c, w.B), w.A)


def type_identity():
    """Type (1,1) and omega^3 != 0 force A = B = 0 and det C != 0.

    Over the 15 parameters of (A, B, C) as variables: omega ^ d omega has
    the coefficients +-(A^t C)_i, +-(C B)_i, and omega^3 is -6 times
    :func:`nondegeneracy_scalar`.  So A^t C = C B = 0 and det C != 0, and
    then A = B = 0.
    """
    v = Poly.variables(15)
    w = ABCForm(v[:3], v[3:6], [v[6 + 3 * i:9 + 3 * i] for i in range(3)])
    om = w.to_form()
    atc = smallmat.mat_vec(smallmat.transpose(w.C), w.A)
    cb = smallmat.mat_vec(w.C, w.B)
    return (wedge(om, differential(om)).c
            == [-atc[2], atc[1], -atc[0], cb[2], -cb[1], cb[0]]
            and wedge(wedge(om, om), om).c[0] == -6 * nondegeneracy_scalar(w))


def quaternion_rotation(a, b, c, d):
    """R(q), quadratic in q = a + bi + cj + dk; R(q) / |q|^2 is in SO(3)."""
    return [[a * a + b * b - c * c - d * d, 2 * (b * c - a * d),
             2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d,
             2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b),
             a * a - b * b - c * c + d * d]]


def rotation_identity():
    """Co-frame rotations R(q) (+) R(q'), 4 variables each, commute with d.

    With R^* e_a = sum_i R_ia e_i: |q|^2 d(R^* e_a) = R^*(d e_a) on the six
    co-frame 1-forms, and R R^t = |q|^4 Id.  For unit q, q' the pullback
    then commutes with d on all forms and sends C to M C N^t.
    """
    q = Poly.variables(8)
    rotations = [quaternion_rotation(*q[:4]), quaternion_rotation(*q[4:])]
    norms = [sum(x * x for x in q[:4]), sum(x * x for x in q[4:])]
    images = [KForm.from_terms(6, 1, [((3 * s + i,), rotations[s][i][a])
                                      for i in range(3)])
              for s in (0, 1) for a in range(3)]
    pullback = lambda form: sum(  # of a 2-form
        (wedge(images[i], images[j]).scale(x) for (i, j), x in form.terms()),
        KForm.zero(6, 2))
    return all(differential(images[a]).scale(norms[a // 3])
               == pullback(differential(KForm.basis(6, (a,))))
               for a in range(6)) and all(
        smallmat.mat_mul(r, smallmat.transpose(r))
        == smallmat.identity(3, n * n) for r, n in zip(rotations, norms))


def quartic_invariant(lams):
    """lambda_1^4 + ... - 2 lambda_i^2 lambda_j^2; equals 81 tau0."""
    l1, l2, l3 = lams
    s1, s2, s3 = l1 * l1, l2 * l2, l3 * l3
    return (s1 * s1 + s2 * s2 + s3 * s3
            - 2 * s1 * s2 - 2 * s2 * s3 - 2 * s1 * s3)


def quartic_factored(lams):
    """(l1-l2-l3)(-l1+l2-l3)(-l1-l2+l3)(l1+l2+l3), the factored quartic."""
    l1, l2, l3 = lams
    return ((l1 - l2 - l3) * (-l1 + l2 - l3)
            * (-l1 - l2 + l3) * (l1 + l2 + l3))


def su3_admissible(d):
    """Stability plus metric positivity for a diagonal triple.

    Exact test: the factored quartic is negative and the product of the
    lambdas is positive; agrees with build_su3 succeeding on the candidate.
    """
    lams = d.lams if isinstance(d, DiagonalInvariantForm) else tuple(d)
    return quartic_factored(lams) < 0 and lams[0] * lams[1] * lams[2] > 0


def system_constants(lams):
    """c_i = lambda_i^2 (lambda_i^2 - lambda_{i+1}^2 - lambda_{i+2}^2)."""
    s = [l * l for l in lams]
    return tuple(s[i] * (s[i] - s[(i + 1) % 3] - s[(i + 2) % 3])
                 for i in range(3))


def nk_residual(d):
    """max |c_i - c_j| over the three system constants; 0 iff a common c exists."""
    lams = d.lams if isinstance(d, DiagonalInvariantForm) else tuple(d)
    c = system_constants(lams)
    return max(abs(c[0] - c[1]), abs(c[1] - c[2]), abs(c[0] - c[2]))


def mu_of(lam):
    """The system constant of the solution (lam, lam, lam):  1/(2 lam sqrt 3).

    Obtained from the common c = -lam^4 through c = -2 mu k det C with
    k = lam^2 sqrt 3 and det C = lam^3 (all exact in Q(sqrt 3)).
    """
    lam = Fraction(lam) if not isinstance(lam, (Fraction, QSqrt3)) else lam
    c = -(lam ** 4)
    k = lam * lam * QSqrt3(0, 1)
    detc = lam ** 3
    return exact_div(-c, 2 * k * detc)


# ---------------------------------------------------------------------------
def uniqueness_certificate():
    """|l1| = |l2| = |l3| for omega = diag(l1, l2, l3), as a certificate.

    In the squares x_i = l_i^2 the three minors are
    4/27 l_i (x_j - x_k)(x_i - x_j - x_k), up to sign.  Of the 8 branches
    only x1 = x2 = x3 meets the open orthant: the others force x = 0 or
    one x_i = 0.
    """
    l1, l2, l3 = Poly.variables(3)
    x1, x2, x3 = l1 * l1, l2 * l2, l3 * l3
    c = Fraction(4, 27)
    return Certificate(
        family="S^3xS^3", variables=("l1", "l2", "l3"), omega=omega_diagonal,
        differential=differential,
        claims=(Claim(c, (l1, x2 - x3, x1 - x2 - x3)),
                Claim(c, (l2, x1 - x3, x2 - x1 - x3)),
                Claim(c, (l3, x1 - x2, x3 - x1 - x2))),
        squares=True)


def random_rational(rng, bound=5, max_den=9):
    den = rng.randint(1, max_den)
    num = rng.randint(-bound * den, bound * den)
    return Fraction(num, den)


def sweep_nonequal(samples=1000, seed=0, bound=5):
    """Sampled cross-check of the certificate, serial and seeded.

    Draws rational triples in [-bound, bound]^3 and keeps the admissible
    ones whose |lambda_i| are not all equal.  Returns (accepted,
    counterexamples), a counterexample being a zero system residual.  No
    verdict uses it; the tests do, and bench/tracer.py wraps it by name.
    """
    rng = random.Random(seed)
    accepted = bad = 0
    while accepted < samples:
        lams = tuple(random_rational(rng, bound) for _ in range(3))
        if (0 in lams or abs(lams[0]) == abs(lams[1]) == abs(lams[2])
                or not su3_admissible(lams)):
            continue
        accepted += 1
        bad += nk_residual(lams) == 0
    return accepted, bad


def sign_pattern_analysis(lam=Fraction(1)):
    """Which sign patterns of (+-lam, +-lam, +-lam) pass admissibility.

    Expected: all-positive and the three one-positive patterns (the ones
    with positive product); each surviving non-all-positive pattern gets an
    exact co-frame certificate (diagonal rotations M, N in SO(3)) carrying
    it to the all-positive one.
    """
    survivors = []
    certificates = {}
    for signs in itertools.product((1, -1), repeat=3):
        lams = tuple(s * lam for s in signs)
        if su3_admissible(lams):
            survivors.append(signs)
            if signs != (1, 1, 1):
                cert = _diagonal_certificate(signs)
                if cert is not None:
                    certificates[signs] = cert
    return survivors, certificates


def _diagonal_certificate(signs):
    """M = diag(signs) and N = Id in SO(3), so that M diag(s) N^t = Id; None
    when the signs multiply to -1, as then det(M diag(s) N^t) = -1."""
    if signs[0] * signs[1] * signs[2] != 1:
        return None
    return ([[signs[i] if i == j else 0 for j in range(3)] for i in range(3)],
            smallmat.identity(3))


def solve_nk(tol=EPS):
    """Classify the diagonal nearly Kahler triples: the family (l, l, l), l > 0.

    Combines (a) the reduction of (A, B, C) to the diagonal family, (b)
    the polynomial certificate that |l1| = |l2| = |l3|, (c) the
    sign-pattern analysis with co-frame certificates, and (d) full
    pipeline verification (build, first-order system, exact mu) at sample
    points of the family.  The lambda = 1 structure and its NKReport are
    the certificate's, from its ray (1, 1, 1), and are kept as
    ``structure`` and ``nk``.
    """
    cert = check_certificate(uniqueness_certificate(), tol)
    built = dict(zip(cert.solutions, cert.builds))
    survivors, certificates = sign_pattern_analysis()
    verified = []
    for lam in (Fraction(2), Fraction(1, 2), Fraction(1)):  # s, nk: lambda 1
        if lam == 1 and (1, 1, 1) in built:
            s, nk = built[1, 1, 1]  # the certificate's build of its ray
        else:
            s = build_su3(candidate(DiagonalInvariantForm((lam,) * 3)), tol=tol)
            nk = nk_check(s, differential, tol=tol)
        verified.append(nk.verdict and is_zero(nk.mu - mu_of(lam), tol))
    patterns = {(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)}
    covers = "; the reduction covers all 15 parameters of (A, B, C)"
    verdicts = [verdict(*v) for v in (
        ("type (1,1) and omega^3 != 0 force A = B = 0, det C != 0",
         type_identity(), "type-11", None,
         "omega ^ d omega = +-(A^t C)_i, +-(C B)_i and omega^3 = "
         "-6 (det C - A^t C B) e123^f123 as polynomials" + covers),
        ("co-frame rotations commute with d (C -> M C N^t)",
         rotation_identity(), "co-frame", None,
         "|q|^2 d(R(q)^* e_i) = R(q)^*(d e_i), R R^t = |q|^4 Id; with the "
         "real SVD C = M diag(l) N^t, M, N in SO(3) (cited)" + covers),
        ("uniqueness certificate (no admissible non-equal solution)",
         cert.unique and cert.solutions == [(1, 1, 1)], "diff-system", None,
         cert.detail),
        ("sign patterns are all-positive or one-positive",
         set(survivors) == patterns, "g-positivity"),
        ("one-positive patterns have co-frame certificates",
         len(certificates) == 3, "co-frame"),
        ("family points verify end to end", all(verified), "diff-system"))]
    family = "(lambda, lambda, lambda), lambda > 0, up to co-frame sign"
    rep = Report(verdicts, {"mu_at_lambda_1": mu_of(1)}, family=family,
                 mu_at_one=mu_of(1), certificate=cert, survivors=survivors,
                 certificates=certificates, verified_examples=verified,
                 structure=s, nk=nk)
    rep.verdicts.insert(0, verdict(
        "solution family is (lambda, lambda, lambda), lambda > 0", rep.ok,
        "diff-system", detail=family))
    return rep


def verify(tol=EPS):
    """``nk6 verify s3xs3``: :func:`solve_nk`, then the nearly Kahler, mu,
    Einstein and cone verdicts of its lambda = 1 structure, built once."""
    solved = solve_nk(tol)
    s, nk = solved.structure, solved.nk
    mu_err = nk.mu - mu_of(1)
    _, scal, einstein, rel = ricci(cyclic_space(), s.g, tol)
    # the family summary is solve-s3xs3's headline, not repeated here
    verdicts = solved.verdicts[1:] + [verdict(*v) for v in (
        ("nearly Kahler system at lambda = 1", nk.verdict, "diff-system",
         max(nk.residual_r1, nk.residual_r2)),
        ("mu matches 1/(2 sqrt 3)", is_zero(mu_err, tol), "diff-system",
         abs(float(mu_err))),
        ("Einstein with positive scalar curvature", einstein and scal > 0,
         "einstein", rel))]
    verdicts += cone_verdicts(s, differential, tol, nk.fit)[0]
    return Report(verdicts, {
        "mu": nk.mu, "scal": scal, "kappa": s.kappa, "tau0": s.tau0})
