"""SU(3)-structures from a stable pair of forms in dimension 6.

A 2-form omega and a 3-form psi determine, when psi lies in the open
GL(6)-orbit with stabilizer SL(3,C) and the compatibility conditions hold,
an almost complex structure J, a metric g and a second 3-form phi with
psi + i phi of type (3,0).  The nearly Kahler property is then the first
order system  d omega = 3 psi,  d phi = -2 mu omega ^ omega.

Exact values stay in their lattices (:mod:`nk6.scalars`): J^2, g = W J,
J^t g J, phi and g^-1 are products of the lattice of J = K / kappa, decided
on integers, lowered only for the API; a matrix argument may be a lattice.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import smallmat
from .exterior import KForm, complement, index_tuples, sort_index, wedge, wedge_rows
from .scalars import (
    EPS, bilinear, exact_div, is_exact, is_positive, kernel_rows,
    lattice_sum, lattice_zero, lower, scaled_tol, simplify, sqrt_scalar, times)


class StructureError(ValueError):
    """A named algebraic condition of the construction failed.

    Raised itself when an identity the construction guarantees fails, on
    float data by rounding beyond the tolerance; a subclass's label is its
    name.
    """

    label = "structure"

    def __init_subclass__(cls):
        cls.label = cls.__name__

    def __init__(self, message=""):
        super().__init__(message or self.__doc__)


class FloatRangeError(ArithmeticError):
    """Exact data need float arithmetic, and their tau0 lies outside the
    float range: a limit of the arithmetic, not a failed condition."""


class NotStable(StructureError):
    """psi is not stable: the quartic invariant tau(psi) is >= 0."""


class NotType11(StructureError):
    """omega ^ psi != 0, so omega is not of type (1,1) for J(psi)."""


class DegenerateOmega(StructureError):
    """omega ^ omega ^ omega = 0, so omega is degenerate."""


class NotPositive(StructureError):
    """The symmetric form omega(., J .) is not positive definite."""


class SlotInconsistent(StructureError):
    """psi(J.,.,.) depends on the slot, so psi is not of pure type for J."""


class SU3Candidate:
    """A 2-form and a 3-form on the same 6-dimensional space, plus an
    orientation (a reference nonzero 6-form)."""

    def __init__(self, omega, psi, vol):
        if omega.n != 6 or psi.n != 6 or vol.n != 6:
            raise ValueError("candidate forms must live in dimension 6")
        if omega.k != 2 or psi.k != 3 or vol.k != 6:
            raise ValueError("candidate degrees must be (2, 3, 6)")
        if vol.is_zero():
            raise ValueError("reference volume form vanishes")
        self.omega, self.psi, self.vol = omega, psi, vol


class SU3Structure:
    """Validated bundle (omega, psi, phi, J, g, kappa, tau0, vol), with the
    build's omega^2, omega^3 (/ 6: the volume form of g) and the lattice of
    g^-1 (:func:`metric_inverse`)."""

    def __init__(self, omega, psi, phi, J, g, kappa, tau0, vol, omega2,
                 omega3, ginv):
        self.omega, self.psi, self.phi = omega, psi, phi
        self.J, self.g = J, g  # 6 x 6 lists
        self.kappa, self.tau0 = kappa, tau0
        self.vol = vol
        self.omega2, self.omega3 = omega2, omega3
        self.ginv = ginv


class NKReport:
    """Each structure equation decided by the zero policy (``first``,
    ``second``), its residual for display, and the fitted constant mu.
    ``fit`` keeps the (d phi, omega^omega) of the fit for :func:`cone_check`."""

    def __init__(self, residual_r1, residual_r2, mu, first, second, fit=None):
        self.residual_r1, self.residual_r2 = residual_r1, residual_r2
        self.mu = mu
        self.first, self.second = first, second
        self.fit = fit

    @property
    def verdict(self):
        return self.first and self.second


# ---------------------------------------------------------------------------
def k_matrix(psi, vol):
    """K: X -> the vector of interior(X, psi) ^ psi against vol, no checks."""
    return smallmat.unflatten(lower(_k_lattice(psi, vol)), 6, 6)


def _k_lattice(psi, vol):
    """The lattice of K: psi times itself in the order and signs of that wedge."""
    if psi.n != 6 or psi.k != 3:
        raise ValueError("expected a 3-form in dimension 6")
    pos2, fives = index_tuples(6, 2)[1], index_tuples(6, 5)[0]
    rows = kernel_rows("K", lambda: [   # psi(a) psi(b) at K[i][j], j in a
        [(b, i * 6 + j, (-1) ** (slot + i) * sign) for slot, j in enumerate(a)
         for b, o, sign in wedge_rows(6, 2, 3)[pos2[a[:slot] + a[slot + 1:]]]
         for i in [15 - sum(fives[o])]] for a in index_tuples(6, 3)[0]])
    lattice, v = psi.lattice(), vol.c[0]
    flat = bilinear(rows, lattice, lattice, 36)
    if is_exact(v) and flat[2]:
        return times(exact_div(1, v), flat)
    return [exact_div(x, v) for x in lower(flat)], None, None


def contract(psi, m, slot=0):
    """The 3-form  -psi(.., m ., ..)  with the endomorphism m in one slot.

    With m = J this is phi; with m = K = kappa J it is kappa phi.  One
    lattice product (:func:`scalars.bilinear`) of m, flattened, with psi.
    """
    n = psi.n
    tuples, pos = index_tuples(n, 3)
    rows = kernel_rows(("contract", n, slot), lambda: [   # m[s][j], psi(t[slot] = s)
        [(pos[u], o, -sign) for o, t in enumerate(tuples) if t[slot] == j
         for sign, u in [sort_index(t[:slot] + (s,) + t[slot + 1:])] if sign]
        for s in range(n) for j in range(n)])
    return KForm(n, 3, lattice=bilinear(rows, smallmat.mat_lattice(m), psi.lattice(),
                                        len(tuples)))


def hitchin_K(psi, vol, tol=EPS):
    """Endomorphism K with K(X) the vector of  interior(X, psi) ^ psi.

    Normalized against the given orientation form; returns (K, tau0) where
    K^2 = tau0 * Id (verified, relative to the size of K^2 on floats) and
    tau0 = trace(K^2)/6.
    """
    K = _k_lattice(psi, vol)
    P, Q, d = K2 = smallmat.lattice_mul(K, K, 6, 6, 6)
    tau0 = exact_div(sum(lower((P[::7], Q and Q[::7], d))), 6)
    if not smallmat.is_scalar_matrix(K2, tau0, scaled_tol(tol, K2)):
        raise StructureError("K^2 is not a multiple of the identity")
    return smallmat.unflatten(lower(K), 6, 6), simplify(tau0)


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
    slot_tol = scaled_tol(tol, phis[0].lattice())
    if not all((phis[0] - other).is_zero(slot_tol) for other in phis[1:]):
        raise SlotInconsistent()
    return phis[0]


def contraction_defect(psi, phi, J):
    """The lattice of  interior(e_j, psi) - interior(J e_j, phi), j = 0..5,
    15 coefficients each: a lattice product of J with phi plus one of 1
    with psi."""
    (t3, pos3), (_, pos2) = index_tuples(6, 3), index_tuples(6, 2)
    drop = lambda t, slot: (pos2[t[:slot] + t[slot + 1:]], (-1) ** slot)
    rows = kernel_rows("contraction", lambda: [   # J[s][j] phi(t), s in t
        [(pos3[t], j * 15 + p, -sign) for t in t3 if s in t
         for p, sign in [drop(t, t.index(s))]]
        for s in range(6) for j in range(6)] + [   # 1 psi(t), j in t
        [(pos3[t], j * 15 + p, sign) for t in t3
         for slot, j in enumerate(t) for p, sign in [drop(t, slot)]]])
    return lattice_sum(bilinear(rows[36:], ([1], None, 1), psi.lattice(), 90),
                       bilinear(rows[:36], smallmat.mat_lattice(J), phi.lattice(), 90))


def metric_inverse(J, o2, o3):
    """The lattice of g^-1 = -J W^-1 for g = W J, W the matrix of omega, with
    no elimination: W^-1_jk = -3 s_jk (omega^2)_{(jk)^c} / (omega^3)_012345,
    s_jk the sign of :func:`exterior.complement`, from ``o2`` = omega^2,
    ``o3`` = omega^3."""
    def build():   # J[i][j] omega^2((jk)^c) at [i][k]
        pos4 = index_tuples(6, 4)[1]
        comp = [[(k, *complement(6, (j, k))) for k in range(6) if k != j]
                for j in range(6)]
        return [[(pos4[c], i * 6 + k, sign) for k, c, sign in comp[j]]
                for i in range(6) for j in range(6)]

    rows = kernel_rows("g^-1", build)
    flat = bilinear(rows, smallmat.mat_lattice(J), o2.lattice(), 36)
    return times(exact_div(3, o3.c[0]), flat)


def omega_powers(omega):
    """(omega ^ omega, omega ^ omega ^ omega)."""
    o2 = wedge(omega, omega)
    return o2, wedge(o2, omega)


def omega3_sign(omega, o3=None):
    """Sign (1 or -1) of the e012345 coefficient of omega^3 (``o3``).

    omega^3 carries the orientation the almost complex structure induces.
    K is normalized against a reference volume form, and the induced
    metric omega(., J .) is positive only when that volume form and omega^3
    have opposite signs.
    """
    o3 = omega_powers(omega)[1] if o3 is None else o3
    return 1 if is_positive(o3.c[0]) else -1


def build_su3(cand, tol=EPS, powers=None):
    """Assemble the full SU(3)-structure from a candidate pair, or raise.

    Errors name the violated condition: NotStable (stability of psi),
    NotType11 (omega ^ psi != 0), DegenerateOmega (omega^3 = 0),
    NotPositive (the induced symmetric form is not positive definite),
    SlotInconsistent, or StructureError itself (see there).  ``powers``:
    the :func:`omega_powers` of omega, when known.
    """
    omega, psi, vol = cand.omega, cand.psi, cand.vol
    n = 6
    exact = all(form.lattice()[2] is not None for form in (omega, psi, vol))

    K, tau0 = hitchin_K(psi, vol, tol)
    if not is_positive(-tau0):
        raise NotStable(f"tau0 = {tau0} is not negative")

    op = wedge(omega, psi)
    if not op.is_zero(tol):
        raise NotType11(f"omega ^ psi has size {op.max_abs()}")

    o2, o3 = powers or omega_powers(omega)
    if o3.is_zero(tol):
        raise DegenerateOmega()

    try:
        kappa = sqrt_scalar(-tau0)
    except OverflowError:   # an exact tau0 beyond the float range
        kappa = math.inf
    if isinstance(kappa, float) and exact:
        # no exact square root in Q(sqrt 3); continue in floats
        if not 0 < kappa < math.inf:
            raise FloatRangeError("kappa = sqrt(-tau0) is not in Q(sqrt 3), "
                                  "and tau0 lies outside the float range")
        omega = omega.to_float()
        o2, o3 = wedge(omega, omega), o3.to_float()
        psi = psi.to_float()
        vol = vol.to_float()
    J = (times(exact_div(1, kappa), smallmat.mat_lattice(K)) if is_exact(kappa)
         else ([float(x) / kappa for row in K for x in row], None, None))
    mul = lambda x, y: smallmat.lattice_mul(x, y, n, n, n)

    if not smallmat.is_scalar_matrix(mul(J, J), -1, tol):
        raise StructureError("J^2 differs from -Id")

    # g(X, Y) = omega(X, JY): g = W J, W the antisymmetric matrix of omega
    g = bilinear(kernel_rows("W J", lambda: [   # omega(a, b) J[b][k], -J[a][k]
        [(b * n + k, a * n + k, 1) for k in range(n)]
        + [(a * n + k, b * n + k, -1) for k in range(n)]
        for a, b in index_tuples(n, 2)[0]]), omega.lattice(), J, n * n)
    if not lattice_zero(lattice_sum(g, smallmat.lattice_transpose(g, n), -1), tol):
        raise StructureError("induced bilinear form is not symmetric")
    P, Q, d = g   # (P + Q sqrt 3) / d, d > 0, is positive iff P is, or Q when P = 0
    Q = Q if Q and any(Q) else None
    tested = g if d is None or Q and any(P) else (Q or P, None, 1)
    if not smallmat.is_positive_definite(smallmat.unflatten(lower(tested), n, n)):
        raise NotPositive()
    jgj = mul(smallmat.lattice_transpose(J, n), mul(g, J))
    if not lattice_zero(lattice_sum(jgj, g, -1), tol):
        raise StructureError("J is not orthogonal for the induced metric")

    phi = phi_from(psi, J, tol=tol)
    # interior(X, psi) = interior(JX, phi) on the basis
    if not lattice_zero(contraction_defect(psi, phi, J),
                        scaled_tol(tol, psi.lattice())):
        raise StructureError("contraction identity for phi fails")

    ginv = metric_inverse(J, o2, o3)
    J, g = (smallmat.unflatten(lower(x), n, n) for x in (J, g))
    return SU3Structure(omega=omega, psi=psi, phi=phi, J=J, g=g, kappa=kappa,
                        tau0=tau0, vol=vol, omega2=o2, omega3=o3, ginv=ginv)


def build_either_orientation(omega, psi, tol=EPS):
    """Build once, against the reference volume -sign(omega^3) e012345.

    Flipping the orientation flips J and g, and only this one can give a
    positive metric (see ``omega3_sign``).  Returns (structure,
    orientation) or raises the structure error.
    """
    powers = omega_powers(omega)
    orient = -omega3_sign(omega, powers[1])
    vol = KForm.basis(6, (0, 1, 2, 3, 4, 5), Fraction(orient))
    return build_su3(SU3Candidate(omega, psi, vol), tol=tol, powers=powers), orient


def form_dot(a, b):
    """Flat coefficient pairing used for least-squares fits."""
    a._check_compatible(b)
    x = a.lattice()
    return lower(smallmat.lattice_mul(x, b.lattice(), 1, len(x[0]), 1))[0]


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
    r1 = differential(s.omega) - s.psi.scale(3)
    fit = differential(s.phi), s.omega2
    mu_fit, r2 = volume_fit(*fit)  # r2 at the scale of phi
    return NKReport(residual_r1=r1.max_abs(), residual_r2=3 * r2.max_abs(),
                    mu=simplify(3 * mu_fit), first=r1.is_zero(tol),
                    second=r2.is_zero(tol / 3), fit=fit)


def volume_fit(dphi, o2):
    """Least-squares constant in  d phi = -2 c omega^omega  and the
    residual 4-form  d phi + 2 c omega^omega, from d phi and omega^omega.

    This is the metric-normalization scalar: c = 1 exactly when the cone
    over the structure is parallel (the structure equations at unit scale).
    """
    c = simplify(exact_div(-form_dot(dphi, o2), 2 * form_dot(o2, o2)))
    return c, dphi + o2.scale(2 * c)
