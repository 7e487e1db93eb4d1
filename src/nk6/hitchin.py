"""SU(3)-structures from a stable pair of forms in dimension 6.

A 2-form omega and a 3-form psi determine, when psi lies in the open
GL(6)-orbit with stabilizer SL(3,C) and the compatibility conditions hold,
an almost complex structure J, a metric g and a second 3-form phi with
psi + i phi of type (3,0).  The nearly Kahler property is then the first
order system  d omega = 3 psi,  d phi = -2 mu omega ^ omega, decided for
``check``, the certificates and ``verify s3xs3`` by :func:`structure_verdicts`.

Every identity is homogeneous in kappa = sqrt(-tau0), so each is decided
on the K-forms K = kappa J, G = W K = kappa g and Phi = kappa phi, which
are rational in psi: data are decided exactly whatever kappa is, at the
tolerance of the pair (:func:`scalars.tolerance`) times their size.
Values stay in lattices (:mod:`nk6.scalars`), rational ones decided on
integers, and are lowered only for the API; a matrix may be a lattice.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import smallmat
from .exterior import KForm, complement, index_tuples, sort_index, wedge, wedge_rows
from .report import verdict
from .scalars import (
    EPS, bilinear, exact, exact_div, is_exact, is_positive, kernel_rows,
    lattice_max_abs, lattice_sum, lattice_zero, lift, lower, scaled_tol,
    simplify, sqrt_scalar, times, tolerance)


class StructureError(ValueError):
    """A named algebraic condition of the construction failed.

    Raised itself when an identity the construction guarantees fails, on
    measured data by rounding beyond the tolerance; a subclass's label is
    its name.
    """

    label = "structure"

    def __init_subclass__(cls):
        cls.label = cls.__name__

    def __init__(self, message=""):
        super().__init__(message or self.__doc__)


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
    """Validated K-forms (omega, psi, Phi, K, G, tau0, vol), omega^2, omega^3
    (/ 6: the volume form of g) and G^-1; ``kappa`` exact in Q(sqrt 3), else
    None; J, g, phi the K-forms over kappa, formed when read; ``tol`` the
    tolerance of the pair, of every verdict on the structure."""

    def __init__(self, omega, psi, Phi, K, G, tau0, vol, omega2, omega3, Ginv,
                 tol):
        self.omega, self.psi, self.Phi = omega, psi, Phi
        self.K, self.G, self.Ginv = K, G, Ginv  # 6 x 6 lattices
        self.tau0, self.vol, self.omega2, self.omega3 = tau0, vol, omega2, omega3
        self.tol = tol
        root = sqrt_scalar(-tau0)
        self.kappa = root if is_exact(root) else None

    def per_kappa(self, x):
        """x / kappa, x a scalar or a lattice: exact when kappa is, else the
        float quotients (a lattice of their binary values)."""
        if not isinstance(x, tuple):   # sign(x) sqrt(x^2 / kappa^2), in range
            r = sqrt_scalar(exact_div(x * x, -self.tau0))
            return -r if x < 0 else r
        if self.kappa is None:
            return lift([float(self.per_kappa(v)) for v in lower(x)])
        return times(exact_div(1, self.kappa), x)

    @functools.cached_property
    def J(self):
        return smallmat.unflatten(lower(self.per_kappa(self.K)), 6, 6)

    @functools.cached_property
    def g(self):
        return smallmat.unflatten(lower(self.per_kappa(self.G)), 6, 6)

    @functools.cached_property
    def phi(self):
        return KForm(6, 3, lattice=self.per_kappa(self.Phi.lattice()))


class NKReport:
    """Each structure equation decided by the zero policy (``first``,
    ``second``), its residual for display, and the fitted constant mu.
    ``fit`` keeps the (d Phi, omega^omega) of the fit for :func:`cone_check`."""

    def __init__(self, residual_r1, residual_r2, mu, first, second, fit=None):
        self.residual_r1, self.residual_r2 = residual_r1, residual_r2
        self.mu = mu
        self.first, self.second = first, second
        self.fit = fit

    @property
    def verdict(self):
        return self.first and self.second


# ---------------------------------------------------------------------------
def kappa_phi(psi, vol):
    """(K's lattice, Phi = contract(psi, K) = kappa phi), with no checks."""
    K = _k_lattice(psi, vol)
    return K, contract(psi, K)


def _k_lattice(psi, vol):
    """The lattice of K: psi times itself in the order and signs of that wedge."""
    if psi.n != 6 or psi.k != 3:
        raise ValueError("expected a 3-form in dimension 6")
    pos2, fives = index_tuples(6, 2)[1], index_tuples(6, 5)[0]
    rows = kernel_rows("K", lambda: [   # psi(a) psi(b) at K[i][j], j in a
        [(b, i * 6 + j, (-1) ** (slot + i) * sign) for slot, j in enumerate(a)
         for b, o, sign in wedge_rows(6, 2, 3)[pos2[a[:slot] + a[slot + 1:]]]
         for i in [15 - sum(fives[o])]] for a in index_tuples(6, 3)[0]])
    lattice = psi.lattice()
    flat = bilinear(rows, lattice, lattice, 36)
    return times(exact_div(1, exact(vol.c)[0]), flat)


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
    """(K, tau0): K(X) the vector of interior(X, psi) ^ psi against the
    orientation form ``vol``, K^2 = tau0 Id verified (:func:`_tau0`)."""
    K = _k_lattice(psi, vol)
    return (smallmat.unflatten(lower(K), 6, 6),
            _tau0(K, tolerance(tol, psi.c, vol.c)))


def _tau0(K, tol):
    """tau0 = trace(K^2) / 6 with K^2 = tau0 Id verified."""
    P, d = K2 = smallmat.lattice_mul(K, K, 6, 6, 6)
    tau0 = exact_div(sum(lower((P[::7], d))), 6)
    if not smallmat.is_scalar_matrix(K2, tau0, scaled_tol(tol, K2)):
        raise StructureError("K^2 is not a multiple of the identity")
    return simplify(tau0)


def _quote(x):
    """"= x" for a message; for an x >= 0 of more digits than ``str`` writes,
    "~" its float or "beyond the float range"."""
    try:
        return f"= {x}"
    except ValueError:
        size = lattice_max_abs(lift([x]))
        return f"~ {size:.6g}" if size < math.inf else "beyond the float range"


def tau(psi, vol):
    """Quartic invariant tau0 with tau(psi) = tau0 vol^2; stable iff < 0."""
    return hitchin_K(psi, vol)[1]


def phi_from(psi, J, tol=EPS):
    """The partner 3-form phi with  interior(X, psi) = interior(JX, phi).

    Computed as phi(X,Y,Z) = -psi(JX,Y,Z); the three slot placements are
    compared and must agree (exactly on exact data), which holds precisely
    when psi is of type (3,0)+(0,3) for J.
    """
    phi = contract(psi, J)
    _check_slots(psi, J, phi, tolerance(tol, psi.c, J))
    return phi


def _check_slots(psi, m, phi, tol):
    slot_tol = scaled_tol(tol, phi.lattice())
    if not all((phi - contract(psi, m, slot)).is_zero(slot_tol) for slot in (1, 2)):
        raise SlotInconsistent()


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
    return lattice_sum(bilinear(rows[36:], ([1], 1), psi.lattice(), 90),
                       bilinear(rows[:36], smallmat.mat_lattice(J), phi.lattice(), 90))


def metric_inverse(J, o2, o3):
    """The lattice of g^-1 = -J W^-1 for g = W J, W the matrix of omega, with
    no elimination: W^-1_jk = -3 s_jk (omega^2)_{(jk)^c} / (omega^3)_012345,
    s_jk the sign of :func:`exterior.complement`, from ``o2`` = omega^2,
    ``o3`` = omega^3.  Of K = kappa J it is kappa g^-1 = -tau0 G^-1."""
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

    Each identity is decided on the K-forms at the tolerance of the pair
    times the size of its data.  Errors name the violated condition:
    NotStable (stability of psi), NotType11 (omega ^ psi != 0),
    DegenerateOmega (omega^3 = 0), NotPositive (the induced symmetric form
    is not positive definite), SlotInconsistent, or StructureError itself
    (see there).  ``powers``: the :func:`omega_powers` of omega, when known.
    """
    omega, psi, vol = cand.omega, cand.psi, cand.vol
    tol = tolerance(tol, omega.c, psi.c, vol.c)
    n = 6
    K, Phi = kappa_phi(psi, vol)
    tau0 = _tau0(K, tol)
    if not is_positive(-tau0):
        raise NotStable(f"tau0 {_quote(tau0)} is not negative")

    w = omega.lattice()
    op = wedge(omega, psi)
    if not op.is_zero(scaled_tol(tol, w, psi.lattice())):
        raise NotType11(f"omega ^ psi has size {op.max_abs()}")

    o2, o3 = powers or omega_powers(omega)
    if o3.is_zero(scaled_tol(tol, w, w, w)):
        raise DegenerateOmega()
    mul = lambda x, y: smallmat.lattice_mul(x, y, n, n, n)

    # G(X, Y) = omega(X, KY): G = W K, W the antisymmetric matrix of omega
    G = bilinear(kernel_rows("W J", lambda: [   # omega(a, b) K[b][k], -K[a][k]
        [(b * n + k, a * n + k, 1) for k in range(n)]
        + [(a * n + k, b * n + k, -1) for k in range(n)]
        for a, b in index_tuples(n, 2)[0]]), w, K, n * n)
    if not lattice_zero(lattice_sum(G, smallmat.lattice_transpose(G, n), -1),
                        scaled_tol(tol, w, K)):
        raise StructureError("induced bilinear form is not symmetric")
    if not smallmat.is_positive_definite(smallmat.unflatten(G[0], n, n)):   # P / d
        raise NotPositive()
    kgk = mul(smallmat.lattice_transpose(K, n), mul(G, K))   # J^t g J = g
    if not lattice_zero(lattice_sum(kgk, times(tau0, G)), scaled_tol(tol, K, K, G)):
        raise StructureError("J is not orthogonal for the induced metric")

    _check_slots(psi, K, Phi, tol)
    # interior(X, psi) = interior(JX, phi) on the basis, times -tau0
    psi_k = psi.scale(-tau0)
    if not lattice_zero(contraction_defect(psi_k, Phi, K),
                        scaled_tol(tol, psi_k.lattice())):
        raise StructureError("contraction identity for phi fails")

    Ginv = times(exact_div(-1, tau0), metric_inverse(K, o2, o3))
    return SU3Structure(omega=omega, psi=psi, Phi=Phi, K=K, G=G, tau0=tau0,
                        vol=vol, omega2=o2, omega3=o3, Ginv=Ginv, tol=tol)


def build_either_orientation(omega, psi, tol=EPS):
    """Build once, against the reference volume -sign(omega^3) e012345.

    Flipping the orientation flips J and g, and only this one can give a
    positive metric (see ``omega3_sign``).  Returns (structure,
    orientation) or raises the structure error.
    """
    powers = omega_powers(omega)
    orient = -omega3_sign(omega, powers[1])
    vol = KForm.basis(6, (0, 1, 2, 3, 4, 5), Fraction(orient))
    cand = SU3Candidate(omega, psi, vol)
    return build_su3(cand, tol=tol, powers=powers), orient


def form_dot(a, b):
    """Flat coefficient pairing used for least-squares fits."""
    a._check_compatible(b)
    x = a.lattice()
    return lower(smallmat.lattice_mul(x, b.lattice(), 1, len(x[0]), 1))[0]


def nk_check(s, differential):
    """Decide the nearly Kahler system for a built SU(3)-structure.

    ``differential`` maps k-forms on the space to (k+1)-forms (for a
    homogeneous space, the invariant-form differential).  mu is fitted by
    least squares over the degree-4 coefficients, so a dphi that is not
    proportional to omega^omega shows up as a residual instead of being
    divided away.  Each equation is decided at the structure's tolerance
    times its data's size, and that of d's ``constants`` (else 1) with d.

    The constant is quoted at the scale of d(omega): with both structure
    equations written  d omega = 3 psi  and  d(3 phi) = -2 mu omega^omega,
    the diagonal family on S^3 x S^3 has mu = 1/(2 lambda sqrt 3), the
    classical value.  (The fit itself runs on d Phi = kappa d phi; the
    quoted mu and residual are over kappa and carry the factor 3.)
    """
    r1 = differential(s.omega) - s.psi.scale(3)
    fit = differential(s.Phi), s.omega2
    c, r2 = volume_fit(*fit)  # at the scale of Phi
    size, top = getattr(differential, "constants", ([1], 1)), max(map(abs, r2.c))
    return NKReport(residual_r1=r1.max_abs(),
                    residual_r2=3 * lattice_max_abs(([s.per_kappa(top)], None)),
                    mu=simplify(3 * s.per_kappa(c)),
                    first=r1.is_zero(scaled_tol(s.tol, size, s.omega.lattice())
                                     + scaled_tol(s.tol, s.psi.lattice())),
                    second=r2.is_zero(scaled_tol(s.tol, size, s.Phi.lattice())),
                    fit=fit)


def structure_verdicts(omega, psi, differential, tol=EPS):
    """(verdicts, scalars, built) of one build of (omega, psi): the verdicts
    that it builds, that d omega = 3 psi and that d phi = -2 mu omega^2, the
    scalars mu, tau0 and kappa, built = (structure, NKReport, orientation).
    A failed build gives its one labelled verdict, no scalars, built None."""
    name = "stable pair builds an SU(3)-structure"
    try:
        s, orient = build_either_orientation(omega, psi, tol)
    except StructureError as ex:
        return [verdict(name, False, ex.label, detail=str(ex))], {}, None
    nk = nk_check(s, differential)
    verdicts = [verdict(name, True),
                verdict("first structure equation (d omega = 3 psi)", nk.first,
                        "diff-system", nk.residual_r1),
                verdict("second structure equation (d phi = -2 mu omega^2)",
                        nk.second, "diff-system", nk.residual_r2)]
    scalars = dict(mu=nk.mu, tau0=s.tau0, kappa=sqrt_scalar(-s.tau0))
    return verdicts, scalars, (s, nk, orient)


def volume_fit(dphi, o2):
    """Least-squares constant in  d phi = -2 c omega^omega  and the
    residual 4-form  d phi + 2 c omega^omega, from d phi and omega^omega.

    This is the metric-normalization scalar: c = 1 exactly when the cone
    over the structure is parallel (the structure equations at unit scale).
    Of d Phi = kappa d phi it gives kappa c and kappa times the residual.
    """
    c = simplify(exact_div(-form_dot(dphi, o2), 2 * form_dot(o2, o2)))
    return c, dphi + o2.scale(2 * c)
