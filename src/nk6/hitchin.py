"""SU(3)-structures from a stable pair of forms in dimension 6.

A 2-form omega and a 3-form psi determine, when psi lies in the open
GL(6)-orbit with stabilizer SL(3,C) and the compatibility conditions hold,
an almost complex structure J, a metric g and a second 3-form phi with
psi + i phi of type (3,0).  The nearly Kahler property is then the first
order system  d omega = 3 psi,  d phi = -2 mu omega ^ omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import smallmat
from .exterior import KForm, index_tuples, interior, lambda5_to_vector, wedge
from .scalars import (
    EPS, all_zero, exact_div, is_positive, scalar_like, simplify, sqrt_scalar)


class StructureError(ValueError):
    """A named algebraic condition of the construction failed."""

    label = "structure"

    def __init__(self, message=""):
        super().__init__(message or self.__doc__)


class NotStable(StructureError):
    """psi is not stable: the quartic invariant tau(psi) is >= 0."""

    label = "NotStable"


class NotType11(StructureError):
    """omega ^ psi != 0, so omega is not of type (1,1) for J(psi)."""

    label = "NotType11"


class DegenerateOmega(StructureError):
    """omega ^ omega ^ omega = 0, so omega is degenerate."""

    label = "DegenerateOmega"


class NotPositive(StructureError):
    """The symmetric form omega(., J .) is not positive definite."""

    label = "NotPositive"


class SlotInconsistent(StructureError):
    """psi(J.,.,.) depends on the slot, so psi is not of pure type for J."""

    label = "SlotInconsistent"


@dataclass
class SU3Candidate:
    """A 2-form and a 3-form on the same 6-dimensional space, plus an
    orientation (a reference nonzero 6-form)."""

    omega: KForm
    psi: KForm
    vol: KForm

    def __post_init__(self):
        if self.omega.n != 6 or self.psi.n != 6 or self.vol.n != 6:
            raise ValueError("candidate forms must live in dimension 6")
        if self.omega.k != 2 or self.psi.k != 3 or self.vol.k != 6:
            raise ValueError("candidate degrees must be (2, 3, 6)")
        if self.vol.is_zero():
            raise ValueError("reference volume form vanishes")


@dataclass
class SU3Structure:
    """Validated bundle (omega, psi, phi, J, g, kappa, tau0, vol)."""

    omega: KForm
    psi: KForm
    phi: KForm
    J: list
    g: list
    kappa: object
    tau0: object
    vol: KForm

    def scaled(self, c):
        """The structure of the pair (c omega, c psi), c > 0, in closed form.

        K is quadratic in psi, so tau0 scales by c^4 and kappa by c^2; J =
        K / kappa and the reference volume stay, and g = omega(., J .) and
        phi = -psi(J ., ., .) scale by c like omega and psi.
        """
        return SU3Structure(
            omega=self.omega.scale(c), psi=self.psi.scale(c),
            phi=self.phi.scale(c), J=self.J,
            g=[[simplify(c * x) for x in row] for row in self.g],
            kappa=simplify(c * c * self.kappa),
            tau0=simplify(c ** 4 * self.tau0), vol=self.vol)


@dataclass
class NKReport:
    """Residuals of the first-order system plus the fitted constant mu."""

    residual_r1: float
    residual_r2: float
    mu: object
    verdict: bool


# ---------------------------------------------------------------------------
def k_matrix(psi, vol):
    """K: X -> the vector of interior(X, psi) ^ psi against vol, no checks."""
    if psi.n != 6 or psi.k != 3:
        raise ValueError("expected a 3-form in dimension 6")
    cols = []
    for i in range(6):
        e = [0] * 6
        e[i] = 1
        cols.append(lambda5_to_vector(wedge(interior(e, psi), psi), vol))
    return smallmat.transpose(cols)


def contract(psi, m, slot=0):
    """The 3-form  -psi(.., m ., ..)  with the endomorphism m in one slot.

    With m = J this is phi; with m = K = kappa J it is kappa phi.
    """
    tuples, _ = index_tuples(psi.n, 3)
    coeffs = []
    for t in tuples:
        total = 0
        for s in range(psi.n):
            ms = m[s][t[slot]]
            if ms == 0:
                continue
            val = psi.coeff(t[:slot] + (s,) + t[slot + 1:])
            if val != 0:
                total = total + ms * val
        coeffs.append(-total)
    return KForm(psi.n, 3, coeffs)


def hitchin_K(psi, vol, tol=EPS):
    """Endomorphism K with K(X) the vector of  interior(X, psi) ^ psi.

    Normalized against the given orientation form; returns (K, tau0) where
    K^2 = tau0 * Id (verified) and tau0 = trace(K^2)/6.
    """
    K = k_matrix(psi, vol)
    K2 = smallmat.mat_mul(K, K)
    tau0 = exact_div(smallmat.trace(K2), 6)
    dev = smallmat.mat_sub(
        K2, smallmat.mat_scale(tau0, smallmat.identity(6, scalar_like(K2))))
    if not all_zero(dev, 1e-8 * max(smallmat.mat_max_abs(K2), 1.0)):
        raise ArithmeticError("K^2 is not a multiple of the identity")
    return K, simplify(tau0)


def tau(psi, vol):
    """Quartic invariant tau0 with tau(psi) = tau0 vol^2; stable iff < 0."""
    _, tau0 = hitchin_K(psi, vol)
    return tau0


def phi_from(psi, J, tol=EPS):
    """The partner 3-form phi with  interior(X, psi) = interior(JX, phi).

    Computed as phi(X,Y,Z) = -psi(JX,Y,Z); the three slot placements are
    compared and must agree (exactly in exact mode), which holds precisely
    when psi is of type (3,0)+(0,3) for J.
    """
    phis = [contract(psi, J, slot) for slot in range(3)]
    slot_tol = max(tol, 1e-8 * max(phis[0].max_abs(), 1.0))
    if not all((phis[0] - other).is_zero(slot_tol) for other in phis[1:]):
        raise SlotInconsistent()
    return phis[0]


def omega3_sign(omega):
    """Sign (1 or -1) of the e012345 coefficient of omega ^ omega ^ omega.

    omega^3 carries the orientation the almost complex structure induces.
    K is normalized against a reference volume form, and the induced
    metric omega(., J .) is positive only when that volume form and omega^3
    have opposite signs.
    """
    o3 = wedge(wedge(omega, omega), omega)
    return 1 if float(o3.c[0]) > 0 else -1


def build_su3(cand, tol=EPS):
    """Assemble the full SU(3)-structure from a candidate pair, or raise.

    Errors name the violated condition: NotStable (stability of psi),
    NotType11 (omega ^ psi != 0), DegenerateOmega (omega^3 = 0),
    NotPositive (the induced symmetric form is not positive definite).
    """
    omega, psi, vol = cand.omega, cand.psi, cand.vol
    n = 6
    exact = not any(isinstance(c, float)
                    for c in (*omega.c, *psi.c, *vol.c))

    K, tau0 = hitchin_K(psi, vol, tol=tol)
    if not is_positive(-tau0):
        raise NotStable(f"tau0 = {tau0} is not negative")

    op = wedge(omega, psi)
    if not op.is_zero(tol):
        raise NotType11(f"omega ^ psi has size {op.max_abs()}")

    if wedge(wedge(omega, omega), omega).is_zero(tol):
        raise DegenerateOmega()

    kappa = sqrt_scalar(-tau0)
    if isinstance(kappa, float) and exact:
        # no exact square root in Q(sqrt 3); continue in floats
        K = [[float(x) for x in row] for row in K]
        omega = omega.to_float()
        psi = psi.to_float()
        vol = vol.to_float()
    J = [[exact_div(x, kappa) for x in row] for row in K]

    j2 = smallmat.mat_add(smallmat.mat_mul(J, J), smallmat.identity(n, scalar_like(J)))
    if not all_zero(j2, 1e-8):
        raise ArithmeticError("J^2 differs from -Id")

    # g(X, Y) = omega(X, JY)
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            jy = [J[r][j] for r in range(n)]
            val = 0
            for r in range(n):
                if jy[r] != 0:
                    val = val + omega.coeff((i, r)) * jy[r]
            g[i][j] = simplify(val)
    if not smallmat.is_symmetric(g, tol=1e-8):
        raise ArithmeticError("induced bilinear form is not symmetric")
    if not smallmat.is_positive_definite(g):
        raise NotPositive()
    jgj = smallmat.mat_mul(smallmat.transpose(J), smallmat.mat_mul(g, J))
    if not all_zero(smallmat.mat_sub(jgj, g), 1e-8):
        raise ArithmeticError("J is not orthogonal for the induced metric")

    phi = phi_from(psi, J, tol=tol)
    # interior(X, psi) = interior(JX, phi) on the basis
    contraction_tol = 1e-8 * max(psi.max_abs(), 1.0)
    for i in range(n):
        e = [0] * n
        e[i] = 1
        je = [J[r][i] for r in range(n)]
        if not (interior(e, psi) - interior(je, phi)).is_zero(contraction_tol):
            raise ArithmeticError("contraction identity for phi fails")

    return SU3Structure(omega=omega, psi=psi, phi=phi, J=J, g=g,
                        kappa=kappa, tau0=tau0, vol=vol)


def build_either_orientation(omega, psi, tol=EPS):
    """Build once, against the reference volume -sign(omega^3) e012345.

    Flipping the orientation flips J and g, and only this one can give a
    positive metric (see ``omega3_sign``).  Returns (structure,
    orientation) or raises the structure error.
    """
    orient = -omega3_sign(omega)
    vol = KForm.basis(6, (0, 1, 2, 3, 4, 5), Fraction(orient))
    return build_su3(SU3Candidate(omega, psi, vol), tol=tol), orient


def form_dot(a, b):
    """Flat coefficient pairing used for least-squares fits."""
    a._check_compatible(b)
    total = 0
    for x, y in zip(a.c, b.c):
        total = total + x * y
    return total


def nk_check(s, differential, tol=EPS):
    """Decide the nearly Kahler system for a built SU(3)-structure.

    ``differential`` maps k-forms on the space to (k+1)-forms (for a
    homogeneous space, the invariant-form differential).  mu is fitted by
    least squares over the degree-4 coefficients, so a dphi that is not
    proportional to omega^omega shows up as a residual instead of being
    divided away.

    The constant is quoted at the scale of d(omega): with both structure
    equations written  d omega = 3 psi  and  d(3 phi) = -2 mu omega^omega,
    the diagonal family on S^3 x S^3 has mu = 1/(2 lambda sqrt 3), the
    classical value.  (The fit itself runs on d phi; only the quoted mu
    and residual carry the factor 3.)
    """
    domega = differential(s.omega)
    r1_form = domega - s.psi.scale(3)
    r1 = r1_form.max_abs()
    mu_fit, r2_fit = mu_volume_fit(s, differential)
    mu = simplify(3 * mu_fit)
    r2 = 3 * r2_fit
    verdict = r1 <= tol and r2 <= tol
    return NKReport(residual_r1=r1, residual_r2=r2, mu=mu, verdict=verdict)


def mu_volume_fit(s, differential):
    """Least-squares constant in  d phi = -2 c omega^omega  and its residual.

    This is the metric-normalization scalar: c = 1 exactly when the cone
    over the structure is parallel (the structure equations at unit scale).
    """
    dphi = differential(s.phi)
    o2 = wedge(s.omega, s.omega)
    denom = form_dot(o2, o2)
    c = simplify(exact_div(-form_dot(dphi, o2), 2 * denom))
    resid = (dphi + o2.scale(2 * c)).max_abs()
    return c, resid
