"""Invariant nearly Kahler structures on S^3 x S^3.

The left-invariant calculus happens on su(2) (+) su(2) in a cyclic
co-frame (e1,e2,e3,f1,f2,f3) with d e_i = e_{i+1} ^ e_{i+2} and
d f_i = f_{i+1} ^ f_{i+2}.  A generic invariant 2-form is a triple
(A, B, C); the type-(1,1) condition forces A = B = 0 and C diagonalizes
under the co-frame action C -> M C N^t with M, N in SO(3), leaving the
diagonal triple (lambda_1, lambda_2, lambda_3).  A polynomial certificate
in the lambda_i^2 (:func:`uniqueness_certificate`) shows that the nearly
Kahler system holds only on the family (lambda, lambda, lambda), up to
co-frame signs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import smallmat
from .certificate import Certificate, Claim, check_certificate
from .exterior import KForm
from .hitchin import SU3Candidate, build_su3, nk_check
from .lie import LieAlgebraData, ReductiveSpace, ce_differential
from .poly import Poly
from .report import Verdicts, verdict
from .scalars import EPS, QSqrt3, all_zero, exact_div, is_zero, scalar_like


class TypeConditionFails(ValueError):
    """The pair (omega, d omega) is not of type (1,1): A^t C or C B nonzero."""


class Degenerate(ValueError):
    """det C = 0 once A = B = 0 is forced, so omega^3 = 0."""


_SPACE = None


def cyclic_space():
    """su(2) (+) su(2) with constants chosen so that d e_i = e_{i+1} ^ e_{i+2}.

    The sign of the structure constants is exactly the one that makes the
    cyclic co-frame axiom hold; this is asserted on first use.
    """
    global _SPACE
    if _SPACE is None:
        c = [[[0] * 6 for _ in range(6)] for _ in range(6)]
        for base in (0, 3):
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                c[base + i][base + j][base + k] = Fraction(-1)
                c[base + j][base + i][base + k] = Fraction(1)
        algebra = LieAlgebraData(
            c, labels=["e1", "e2", "e3", "f1", "f2", "f3"])
        space = ReductiveSpace(algebra, [], list(range(6)))
        for base in (0, 3):
            for i in range(3):
                want = KForm.basis(6, (base + (i + 1) % 3, base + (i + 2) % 3))
                got = ce_differential(space, KForm.basis(6, (base + i,)))
                if got != want:
                    raise AssertionError("cyclic co-frame axiom failed")
        _SPACE = space
    return _SPACE


VOL_INDEX = (0, 1, 2, 3, 4, 5)


def volume_form(orientation=1):
    """e123 ^ f123, the reference orientation of the diagonal family."""
    return KForm.basis(6, VOL_INDEX, Fraction(orientation))


def differential(alpha):
    return ce_differential(cyclic_space(), alpha)


# ---------------------------------------------------------------------------
@dataclass
class ABCForm:
    """omega = sum a_i e_{i+1}e_{i+2} + sum b_i f_{i+1}f_{i+2} + sum c_ij e_i f_j."""

    A: list
    B: list
    C: list

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


@dataclass
class DiagonalInvariantForm:
    """omega = lambda_1 e1^f1 + lambda_2 e2^f2 + lambda_3 e3^f3, lambdas nonzero."""

    lams: tuple

    def __post_init__(self):
        if len(self.lams) != 3 or any(l == 0 for l in self.lams):
            raise ValueError("need three nonzero coefficients")
        self.lams = tuple(self.lams)

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
    """det C - A^t C B;  omega^3 = -6 (det C - A^t C B) e123^f123.

    The closed form is frozen against the brute-force wedge computation
    (exact, random rational coefficients); the relative sign of the two
    terms is the one the oracle confirms.
    """
    atcb = smallmat.vec_dot(smallmat.mat_vec(w.C, w.B), w.A)
    return smallmat.det(w.C) - atcb


def nondegenerate(w):
    """True iff omega ^ omega ^ omega != 0, by the closed-form scalar."""
    return nondegeneracy_scalar(w) != 0


def reduce_to_diagonal(w, tol=1e-12):
    """Diagonalize a type-(1,1) nondegenerate invariant 2-form.

    Requires A^t C = C B = 0 (else TypeConditionFails), which together with
    nondegeneracy forces A = B = 0 and det C != 0 (else Degenerate).
    Returns (DiagonalInvariantForm, M, N) with M, N in SO(3) realizing the
    co-frame change C = M diag(lams) N^t; det C = lambda_1 lambda_2 lambda_3.
    """
    atc = smallmat.mat_vec(smallmat.transpose(w.C), w.A)
    cb = smallmat.mat_vec(w.C, w.B)
    if not all_zero(atc + cb, tol):
        raise TypeConditionFails("A^t C or C B is nonzero")
    if is_zero(smallmat.det(w.C), tol):
        raise Degenerate("det C = 0 after forcing A = B = 0")

    if all_zero([w.C[i][j] for i in range(3) for j in range(3) if i != j], tol):
        eye = smallmat.identity(3, scalar_like((w.A, w.B, w.C)))
        return DiagonalInvariantForm(tuple(w.C[i][i] for i in range(3))), eye, eye

    u, lams, v = _jacobi_svd(w.C)
    # u and v hold columns; det is the same for a matrix and its transpose
    if smallmat.det(u) < 0:
        u[2] = [-x for x in u[2]]
        lams[2] = -lams[2]
    if smallmat.det(v) < 0:
        v[2] = [-x for x in v[2]]
        lams[2] = -lams[2]
    recon = [[sum(lams[i] * u[i][r] * v[i][col] for i in range(3))
              for col in range(3)] for r in range(3)]
    scale = max(1.0, smallmat.mat_max_abs(w.C))
    if smallmat.mat_max_abs(smallmat.mat_sub(recon, w.C)) > 1e-9 * scale:
        raise ArithmeticError("signed SVD reconstruction failed")
    return (DiagonalInvariantForm(tuple(lams)),
            smallmat.transpose(u), smallmat.transpose(v))


def _jacobi_svd(c):
    """C = U diag(s) V^T by one-sided (Hestenes) Jacobi on the columns of C.

    Plane rotations collected in V make the columns of C V orthogonal;
    their norms are the singular values s, sorted decreasing, and
    U = C V diag(s)^-1.  Returns (columns of U, s, columns of V).
    """
    a = [[float(c[r][i]) for r in range(3)] for i in range(3)]
    v = [[float(r == i) for r in range(3)] for i in range(3)]
    for _ in range(32):  # converges quadratically; a sweep cap guards NaN
        rotated = False
        for p, q in ((0, 1), (0, 2), (1, 2)):
            alpha, beta = (math.fsum(x * x for x in a[i]) for i in (p, q))
            gamma = math.fsum(x * y for x, y in zip(a[p], a[q]))
            if abs(gamma) <= math.ulp(1.0) * math.sqrt(alpha * beta):
                continue
            rotated = True
            zeta = (beta - alpha) / (2 * gamma)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            cs = 1.0 / math.hypot(1.0, t)
            sn = cs * t
            for cols in (a, v):
                cols[p], cols[q] = (
                    [cs * x - sn * y for x, y in zip(cols[p], cols[q])],
                    [sn * x + cs * y for x, y in zip(cols[p], cols[q])])
        if not rotated:
            break
    s = [math.sqrt(math.fsum(x * x for x in col)) for col in a]
    order = sorted(range(3), key=lambda i: -s[i])
    return ([[x / s[i] for x in a[i]] for i in order],
            [s[i] for i in order], [v[i] for i in order])


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
    """Diagonal M, N in SO(3) with M diag(s) N^t = Id, if one exists."""
    for m in itertools.product((1, -1), repeat=3):
        if m[0] * m[1] * m[2] != 1:
            continue
        n = tuple(m[i] * signs[i] for i in range(3))
        if n[0] * n[1] * n[2] != 1:
            continue
        return ([[m[i] if i == j else 0 for j in range(3)] for i in range(3)],
                [[n[i] if i == j else 0 for j in range(3)] for i in range(3)])
    return None


@dataclass
class SolveReport(Verdicts):
    family: str
    mu_at_one: object
    certificate: object
    survivors: list
    certificates: dict
    verified_examples: list
    verdicts: list


def solve_nk(tol=EPS):
    """Classify the diagonal nearly Kahler triples: the family (l, l, l), l > 0.

    Combines (a) the polynomial certificate that |l1| = |l2| = |l3|, (b)
    the sign-pattern analysis with co-frame certificates, and (c) full
    pipeline verification (build, first-order system, exact mu) at sample
    points of the family.
    """
    cert = check_certificate(uniqueness_certificate(), tol)
    survivors, certificates = sign_pattern_analysis()
    verified = []
    for lam in (Fraction(1), Fraction(2), Fraction(1, 2)):
        s = build_su3(candidate(DiagonalInvariantForm((lam,) * 3)), tol=tol)
        rep = nk_check(s, differential, tol=tol)
        verified.append(rep.verdict and is_zero(rep.mu - mu_of(lam), tol))
    patterns = {(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)}
    verdicts = [verdict(*v) for v in (
        ("uniqueness certificate (no admissible non-equal solution)",
         cert.unique and cert.solutions == [(1, 1, 1)], "diff-system", None,
         cert.detail),
        ("sign patterns are all-positive or one-positive",
         set(survivors) == patterns, "g-positivity"),
        ("one-positive patterns have co-frame certificates",
         len(certificates) == 3, "co-frame"),
        ("family points verify end to end", all(verified), "diff-system"))]
    return SolveReport(
        family="(lambda, lambda, lambda), lambda > 0, up to co-frame sign",
        mu_at_one=mu_of(1),
        certificate=cert,
        survivors=survivors,
        certificates=certificates,
        verified_examples=verified,
        verdicts=verdicts,
    )
