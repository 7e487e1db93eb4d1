"""Forms on the metric cone over a 6-dimensional link.

A cone form is a sum of terms r^a * beta and r^a dr ^ alpha with alpha,
beta constant-coefficient forms on the link.  The differential needs only
the link differential; the Hodge star of the cone metric r^2 g + dr^2 has
a closed form per term, so the parallel-form test (d rho = 0, d *rho = 0
for rho = r^2 dr ^ omega + r^3 psi) runs exactly in exact scalar mode.
"""

from __future__ import annotations

from . import smallmat
from .exterior import HodgeStar, KForm, NotUnitNorm, interior, wedge
from .hitchin import form_dot, volume_fit
from .report import verdict
from .scalars import EPS, exact_div, is_exact, is_positive, simplify, sqrt_scalar


class ConeForm:
    """Formal sum of terms r^a * beta (no dr) and r^a dr ^ alpha."""

    def __init__(self):
        self.terms = {}

    def add(self, exponent, with_dr, form):
        if exponent < 0:
            raise ValueError("cone exponents must be nonnegative integers")
        if form.is_zero():
            return self
        key = (int(exponent), bool(with_dr), form.k)
        if key in self.terms:
            self.terms[key] = self.terms[key] + form
            if self.terms[key].is_zero():
                del self.terms[key]
        else:
            self.terms[key] = form
        return self

    def scale(self, s):
        out = ConeForm()
        for (a, dr, _), f in self.terms.items():
            out.add(a, dr, f.scale(s))
        return out

    def max_abs(self):
        return max((f.max_abs() for f in self.terms.values()), default=0.0)

    def is_zero(self, tol=0.0):
        return all(f.is_zero(tol) for f in self.terms.values())

    def term(self, exponent, with_dr, degree):
        return self.terms.get((exponent, with_dr, degree))


def cone_rho(omega, psi):
    """rho = r^2 dr ^ omega + r^3 psi."""
    out = ConeForm()
    out.add(2, True, omega)
    out.add(3, False, psi)
    return out


def cone_differential(c, link_d):
    """d(r^a b) = a r^(a-1) dr^b + r^a d b;  d(r^a dr^al) = -r^a dr^(d al)."""
    out = ConeForm()
    for (a, dr, _), f in c.terms.items():
        if dr:
            out.add(a, True, link_d(f).scale(-1))
        else:
            if a > 0:
                out.add(a - 1, True, f.scale(a))
            out.add(a, False, link_d(f))
    return out


def cone_hodge(c, link_star):
    """Hodge star of the cone metric r^2 g + dr^2, term by term.

    With p the degree of the link form:
      *(r^a beta)      = (-1)^p r^(a+6-2p) dr ^ *6(beta)
      *(r^a dr^alpha)  =        r^(a+6-2p) *6(alpha)
    where *6 is ``link_star`` (an :class:`exterior.HodgeStar` of g).
    Exponents must stay >= 0.
    """
    out = ConeForm()
    for (a, dr, _), f in c.terms.items():
        star = link_star(f)
        p = f.k
        exponent = a + 6 - 2 * p
        if dr:
            out.add(exponent, False, star)
        else:
            sign = -1 if p % 2 else 1
            out.add(exponent, True, star.scale(sign))
    return out


def u_basis_expansion(c):
    """The cone form at radius 1 as a 7-form-algebra element.

    Index 0 is the radial co-vector (dr); link indices shift up by one.
    At radius 1 the orthonormal co-frame of the cone metric restricts to
    (dr, e1..e6), so rho = r^2 dr^omega + r^3 psi expands into the signed
    sum of unit monomials.
    """
    degrees = {k[2] + (1 if k[1] else 0) for k in c.terms}
    if len(degrees) > 1:
        raise ValueError("mixed total degrees in u-basis expansion")
    deg = degrees.pop() if degrees else 0
    total = KForm.zero(7, deg)
    for (_, dr, _), f in c.terms.items():
        for idx, v in f.terms():
            shifted = tuple(i + 1 for i in idx)
            if dr:
                shifted = (0,) + shifted
            total = total + KForm.basis(7, shifted, v)
    return total


# ---------------------------------------------------------------------------
class ConeReport:
    def __init__(self, d_rho_residual, d_star_rho_residual, omega2_coefficient,
                 phi_term_residual, normalization, fit, rescaled, closed,
                 coclosed):
        self.d_rho_residual = d_rho_residual
        self.d_star_rho_residual = d_star_rho_residual
        self.omega2_coefficient = omega2_coefficient
        self.phi_term_residual = phi_term_residual
        self.normalization, self.fit, self.rescaled = normalization, fit, rescaled
        self.closed, self.coclosed = closed, coclosed

    @property
    def verdict(self):
        return self.closed and self.coclosed


def cone_check(s, link_d, tol=EPS, fit=None):
    """Closed-and-coclosed test for the cone 3-form of an SU(3)-structure.

    The test runs at the scale k that brings the structure to unit metric
    normalization: the least-squares constant c of d phi = -2 c omega^2,
    the scale a cone can absorb into the radius, or k = 1 when c is not
    positive at ``tol`` (``rescaled`` False).  (k omega, k psi) has metric
    k g, *_{k g} = k^(3-p) *_g on p-forms, and the build's G^-1 = g^-1 /
    kappa with omega^3 / 6 gives kappa^(-p) *_g: on cone_rho(k^2 kappa^2
    omega, k kappa^3 psi), at k = c on (c~^2 omega, -c~ tau0 psi) for the
    fit c~ = kappa c of d Phi, that is the star of rho, exact on exact data.
    ``fit`` is the (d Phi, omega^omega) of :func:`nk_check`, if known.
    Also reports the fitted coefficient of the r^4 omega^omega term of
    *rho (1/2 for a parallel cone form) and the residual of its r^3 dr
    term against -k phi.
    """
    dphi, o2 = fit or (link_d(s.Phi), s.omega2)
    cphi, _ = volume_fit(dphi, o2)
    # when d Phi is proportional to omega^2, c~ is half their ratio: a float
    # c~ is tested at that scale, an exact one exactly (the scale may underflow)
    rescaled = is_positive(cphi, 0.0 if is_exact(cphi) else
                           tol * dphi.max_abs() / (2 * o2.max_abs()))
    tau0, c = s.tau0, s.per_kappa(cphi)
    k = c if rescaled else 1
    # (k kappa)^2 and k kappa^3, in floats at k = 1 when kappa is
    a, b = ((cphi * cphi, -cphi * tau0) if rescaled
            else (-tau0, -tau0 * sqrt_scalar(-tau0)))

    d_rho = cone_differential(cone_rho(s.omega, s.psi), link_d)   # over k
    # the link star in the orientation of omega^3, the one J induces, makes
    # *psi = phi and hence  *rho = -r^3 dr ^ phi + (1/2) r^4 omega^omega
    star = HodgeStar.of_inverse(s.Ginv, s.omega3 / 6, -tau0 * tau0 * tau0, tol)
    star_rho = cone_hodge(cone_rho(s.omega.scale(a), s.psi.scale(b)), star)
    d_star_rho = cone_differential(star_rho, link_d)

    q, o2 = star_rho.term(4, False, 4), s.omega2   # against k^2 o2, k^2 = a / -tau0
    coeff = 0 if q is None else simplify(
        exact_div(-tau0 * form_dot(q, o2), a * form_dot(o2, o2)))
    # k phi = (k kappa) Phi / kappa^2 = b Phi / tau0^2
    phi, phi_term = s.Phi.scale(exact_div(b, tau0 * tau0)), star_rho.term(3, True, 3)
    phi_resid = (phi if phi_term is None else phi_term + phi).max_abs()

    return ConeReport(
        d_rho_residual=d_rho.scale(k).max_abs(),
        d_star_rho_residual=d_star_rho.max_abs(),
        omega2_coefficient=coeff,
        phi_term_residual=phi_resid,
        normalization=k,
        fit=c,
        rescaled=rescaled,
        closed=d_rho.is_zero(tol if is_exact(k) else tol / k),
        coclosed=d_star_rho.is_zero(tol),
    )


def cone_verdicts(s, link_d, tol=EPS, fit=None):
    """Run :func:`cone_check`; returns (its two verdicts, the ConeReport).

    Both verdicts say so when the structure was left unscaled, and both
    fail, with no report, when the star's unit-norm test fails.
    """
    try:
        crep = cone_check(s, link_d, tol=tol, fit=fit)
    except NotUnitNorm as ex:
        crep, detail = None, f"no cone star: {ex} at tolerance {tol:g}"
    else:
        detail = "" if crep.rescaled else (
            f"structure left unscaled: the fitted c = {float(crep.fit):.4g} is "
            f"not positive at tolerance {tol:g} times "
            f"max|d phi| / (2 max|omega^2|)")
    return [verdict("cone form closed", bool(crep and crep.closed), "cone-closed",
                    crep and crep.d_rho_residual, detail),
            verdict("cone form coclosed", bool(crep and crep.coclosed),
                    "cone-coclosed", crep and crep.d_star_rho_residual, detail)], crep


def g2_metric_identity(rho7):
    """Fitted constant of  i_X rho ^ i_Y rho ^ rho = c <X, Y> vol7.

    Evaluated on the standard basis of R^7; returns (c, the largest entry
    of q - c * identity in absolute value), both exact on exact input.
    For the unit cone form of a parallel structure the standard identity
    gives |c| = 6 (recorded by callers, not asserted).
    """
    rows = [interior(e, rho7) for e in smallmat.identity(7)]
    q = [[wedge(wedge(ri, rj), rho7).c[0] for rj in rows] for ri in rows]
    c = exact_div(smallmat.trace(q), 7)
    dev = smallmat.mat_sub(q, smallmat.mat_scale(c, smallmat.identity(7)))
    return simplify(c), max(abs(x) for row in dev for x in row)


# ---------------------------------------------------------------------------
class SpanDifferential:
    """Link differential defined on an explicit invariant span.

    Pairs (form, derivative) fix the operator; an input is decomposed in
    the span (exactly in exact mode) and mapped linearly.  Raises when the
    input is outside the span.
    """

    def __init__(self, pairs):
        self.by_degree = {}
        for form, deriv in pairs:
            self.by_degree.setdefault(form.k, []).append((form, deriv))

    def __call__(self, form):
        pairs = self.by_degree.get(form.k)
        if form.k == 0 or (pairs is None and form.is_zero()):
            return KForm.zero(form.n, form.k + 1)
        if pairs is None:
            raise ValueError(f"no invariant forms of degree {form.k} in the span")
        columns = [list(f.c) for f, _ in pairs]
        coords = smallmat.solve_in_span(columns, list(form.c))
        out = KForm.zero(form.n, form.k + 1)
        for x, (_, deriv) in zip(coords, pairs):
            out = out + deriv.scale(x)
        return out


def s6_link_differential(candidate_structure):
    """The sphere differential on the invariant span at a point of S^6.

    The values are pinned by flat 7-space calculus:  the radial-contraction
    identity d(i_E alpha) = k alpha for constant k-forms (verified exactly
    in the octonion module's tests) gives d omega = 3 psi and
    d phi = -2 omega^2, and pullback of a constant form gives d psi = 0;
    d(omega^2) follows by Leibniz.
    """
    s = candidate_structure
    return SpanDifferential([
        (s.omega, s.psi.scale(3)),
        (s.psi, KForm.zero(6, 4)),
        (s.phi, s.omega2.scale(-2)),
        (s.omega2, wedge(s.omega, s.psi.scale(6))),
        (s.omega3 / 6, KForm.zero(6, 7)),
    ])
