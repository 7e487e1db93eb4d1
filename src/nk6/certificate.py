"""Polynomial certificates for the uniqueness claims of the model spaces.

A family is omega = sum x_i w_i, by default over every invariant 2-form
w_i.  With psi = d omega / 3 and phi~ = -psi(K., ., .) = kappa phi, the
system d phi = -2 mu omega^2 says that every 2x2 minor of (d phi~,
omega^2) vanishes; kappa drops out, so the minors are polynomials.  They
are formed from 3 psi = d omega, which scales K by 9 and phi~ and the
minors by 27, divided out once at the end: a family with integral
coefficients runs in Python integers.  A certificate claims the
factorisations of the minors (up to sign), of tau0 and of omega^3; the
checker expands them and compares by ``==``.  A factor of tau0 or
omega^3 is nonvanishing at every solution, as psi is stable only where
tau0 < 0 and omega nondegenerate only where omega^3 != 0.  Every other
factor must be linear (in the squares for ``squares`` families).  One
linear factor per minor is a branch, whose solutions are a nullspace;
the exact pipeline runs once per ray, in every orthant, up to the sign
of omega.  One run covers its whole ray: the minors, tau0, omega^3 and
every condition of the build are homogeneous in x.  Nothing is factored
or solved.
"""

from __future__ import annotations

import itertools
import math

from . import smallmat
from .exterior import KForm, wedge
from .hitchin import kappa_phi, omega_powers, structure_verdicts
from .lie import ce_differential, invariant_forms
from .poly import Poly
from .report import PASS
from .scalars import exact_div, exact_sqrt, is_zero, lower


class Claim:
    """constant times the product of the factors."""

    def __init__(self, constant, factors):
        self.constant, self.factors = constant, factors  # a rational, Polys

    def expand(self):
        return math.prod(self.factors, start=self.constant)

    def format(self, names):
        return " * ".join([str(self.constant)]
                          + [f"({f.format(names)})" for f in self.factors])


class Certificate:
    def __init__(self, family, variables, space, claims, tau0, omega3,
                 basis=None, squares=False):
        self.family, self.variables, self.space = family, variables, space
        self.claims = claims              # one Claim per distinct minor
        self.tau0, self.omega3 = tau0, omega3  # a Claim each
        self.basis = invariant_forms(space, 2) if basis is None else basis
        self.squares = squares
        self.differential = lambda a: ce_differential(space, a,
                                                      check_invariance=False)

    def omega(self, *x):
        """sum x_i w_i, in the arithmetic of x (numbers or Polys)."""
        return sum((w.scale(v) for w, v in zip(self.basis, x)),
                   KForm.zero(self.space.dim_m, 2))


class CertificateResult:
    """``ok``: the claims hold.  ``builds``: per ray of ``solutions``, its
    (structure, NKReport, verdicts, scalars) by :func:`judge`."""

    def __init__(self, ok, detail, solutions, builds=()):
        self.ok, self.detail = ok, detail
        self.solutions, self.builds = solutions, builds

    @property
    def unique(self):
        return self.ok and len(self.solutions) == 1


def pair_polynomials(omega, differential):
    """tau0 and the nonzero 2x2 minors of (d phi~, omega^2), distinct up to sign.

    K is normalised against e012345; the orientation only flips signs.  On
    3 psi = d omega, trace(K K) is 486 tau0 and each minor 27 times itself.
    """
    vol = KForm.basis(6, (0, 1, 2, 3, 4, 5), 1)
    K, phi_k = kappa_phi(differential(omega), vol)
    tau0 = exact_div(sum(lower(smallmat.lattice_mul(K, K, 6, 6, 6))[::7]), 486)
    dphi = differential(phi_k).c
    o2 = wedge(omega, omega).c
    minors = []
    for a, b in itertools.combinations(range(len(o2)), 2):
        m = dphi[a] * o2[b] - dphi[b] * o2[a]
        if m != 0 and _match(m, minors) is None:
            minors.append(m)
    return tau0, [exact_div(m, 27) for m in minors]


def _match(p, polys):
    return next((i for i, q in enumerate(polys) if p == q or p == -q), None)


def _linear(f, squares):
    """Coefficients of f as a linear form (in the squares), or None."""
    deg = 2 if squares else 1
    vec = [0] * f.n
    for e, c in f.terms.items():
        if sum(e) != deg or max(e) != deg:
            return None
        vec[e.index(deg)] = c
    return vec


def check_certificate(cert):
    """The solution rays of a family; a false claim gives ``ok`` False."""
    names = ", ".join(f"{v}^2" if cert.squares else v for v in cert.variables)
    where = f"certificate {cert.family} ({names})"

    def fail(why):
        return CertificateResult(False, f"{where}: {why}", [])

    if len(cert.basis) != len(cert.variables):
        return fail(f"{len(cert.basis)} 2-forms, {len(cert.variables)} variables")
    omega = cert.omega(*Poly.variables(len(cert.variables)))
    tau0, minors = pair_polynomials(omega, cert.differential)
    if cert.tau0.expand() != tau0:
        return fail("tau0 matches no claim")
    if cert.omega3.expand() != omega_powers(omega)[1].c[0]:
        return fail("omega^3 matches no claim")
    if not minors:
        return fail("every minor vanishes identically")
    used = [_match(m, [c.expand() for c in cert.claims]) for m in minors]
    if None in used:
        return fail(f"minor {used.index(None) + 1} of {len(minors)} "
                    "matches no claim")
    if sorted(used) != list(range(len(cert.claims))):
        return fail("a claim matches no minor")

    nonvanishing = cert.tau0.factors + cert.omega3.factors
    choices = []
    for claim in cert.claims:
        linear = []
        for f in claim.factors:
            if _match(f, nonvanishing) is not None:
                continue
            vec = _linear(f, cert.squares)
            if vec is None:
                return fail(f"factor {f.format(cert.variables)} is neither "
                            "nonvanishing nor linear")
            if vec not in linear:
                linear.append(vec)
        choices.append(linear)

    branches = list(itertools.product(*choices))
    rays, solutions, builds = [], [], []
    for rows in branches:
        kernel = smallmat.nullspace(list(rows))
        if len(kernel) > 1:
            return fail("a branch has more than a ray of solutions")
        if not kernel:
            continue
        lead = next(x for x in kernel[0] if x != 0)  # fixes the sign of omega
        ray = tuple(exact_div(x, lead) for x in kernel[0])
        if ray in rays or cert.squares and min(ray) < 0:
            continue  # no new solution, or no real point
        rays.append(ray)
        point = [exact_sqrt(x) for x in ray] if cert.squares else ray
        if None in point:
            return fail(f"no exact point on the ray {format_ray(ray)}")
        if any(is_zero(f(*point)) for f in nonvanishing):
            continue  # tau0 = 0 or omega^3 = 0: no SU(3)-structure
        built = judge(cert, point)
        if all(v.status == PASS for v in built[2]):
            solutions.append(ray)
            builds.append(built)
    found = ", ".join(f"solution ray {format_ray(r)}" for r in solutions)
    plural = "es" if len(branches) != 1 else ""
    return CertificateResult(
        True, f"{where}: {len(branches)} branch{plural}, "
              f"{found or 'no solution'}", solutions, builds)


def judge(cert, point):
    """(structure, NKReport, verdicts, scalars) of :func:`structure_verdicts`
    on omega(point); structure and NKReport are None when it does not build."""
    om, d = cert.omega(*point), cert.differential
    verdicts, scalars, built = structure_verdicts(om, d(om) / 3, d)
    return (*(built or (None, None))[:2], verdicts, scalars)


def format_ray(ray):
    return "(" + ", ".join(map(str, ray)) + ")"
