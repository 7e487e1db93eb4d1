"""Polynomial certificates for the uniqueness claims of the model spaces.

A family is a 2-form omega(v), polynomial in the metric parameters v.  With
psi = d omega / 3 and phi~ = -psi(K., ., .) = kappa phi, the system
d phi = -2 mu omega^2 says that every 2x2 minor of (d phi~, omega^2)
vanishes; kappa drops out, so the minors are polynomials.  A certificate
claims each minor's factorisation.  The checker expands the claims and
compares them with the minors by ``==``, up to sign.  Every factor must be
nonvanishing on the admissible region (a monomial, or positive
coefficients on the positive orthant) or a homogeneous linear form in the
parameters (in their squares for ``squares`` families).  One linear factor
per minor is a branch, whose solutions are a nullspace; the exact pipeline
runs once per ray in the open orthant.  Nothing is factored or solved.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import smallmat
from .exterior import KForm, wedge
from .hitchin import StructureError, build_either_orientation, kappa_phi, nk_check
from .poly import Poly
from .scalars import EPS, exact_div, exact_sqrt, lower


class Claim:
    """constant times the product of the factors."""

    def __init__(self, constant, factors):
        self.constant, self.factors = constant, factors  # Fraction, Polys

    def expand(self):
        out = Fraction(self.constant)
        for f in self.factors:
            out = out * f
        return out

    def format(self, names):
        return " * ".join([str(self.constant)]
                          + [f"({f.format(names)})" for f in self.factors])


class Certificate:
    def __init__(self, family, variables, omega, differential, claims,
                 squares=False):
        self.family, self.variables = family, variables
        self.omega = omega                # parameter values -> 2-form
        self.differential = differential  # form -> form
        self.claims = claims              # one Claim per distinct minor
        self.squares = squares


class CertificateResult:
    def __init__(self, ok, detail, solutions, builds=None):
        self.ok, self.detail = ok, detail  # ok: the claims hold
        self.solutions = solutions  # the rays that pass the pipeline
        self.builds = [] if builds is None else builds  # (structure, NKReport) per ray

    @property
    def unique(self):
        return self.ok and len(self.solutions) == 1


def pair_polynomials(omega, differential):
    """tau0 and the nonzero 2x2 minors of (d phi~, omega^2), distinct up to sign.

    K is normalised against e012345; the orientation only flips signs.
    """
    psi = differential(omega) / 3
    K, phi_k = kappa_phi(psi, KForm.basis(6, (0, 1, 2, 3, 4, 5), Fraction(1)))
    tau0 = exact_div(sum(lower(smallmat.lattice_mul(K, K, 6, 6, 6))[::7]), 6)
    dphi = differential(phi_k).c
    o2 = wedge(omega, omega).c
    minors = []
    for a, b in itertools.combinations(range(len(o2)), 2):
        m = dphi[a] * o2[b] - dphi[b] * o2[a]
        if m != 0 and _match(m, minors) is None:
            minors.append(m)
    return tau0, minors


def _match(p, polys):
    return next((i for i, q in enumerate(polys) if p == q or p == -q), None)


def _linear(f, squares):
    """Coefficients of f as a linear form (in the squares), or None."""
    deg = 2 if squares else 1
    vec = [Fraction(0)] * f.n
    for e, c in f.terms.items():
        if sum(e) != deg or max(e) != deg:
            return None
        vec[e.index(deg)] = c
    return vec


def check_certificate(cert, tol=EPS):
    """The solution rays of a family; a false claim gives ``ok`` False."""
    names = ", ".join(f"{v}^2" if cert.squares else v for v in cert.variables)
    where = f"certificate {cert.family} ({names})"

    def fail(why):
        return CertificateResult(False, f"{where}: {why}", [])

    _, minors = pair_polynomials(
        cert.omega(*Poly.variables(len(cert.variables))), cert.differential)
    if not minors:
        return fail("every minor vanishes identically")
    used = [_match(m, [c.expand() for c in cert.claims]) for m in minors]
    if None in used:
        return fail(f"minor {used.index(None) + 1} of {len(minors)} "
                    "matches no claim")
    if sorted(used) != list(range(len(cert.claims))):
        return fail("a claim matches no minor")

    choices = []
    for claim in cert.claims:
        linear = []
        for f in claim.factors:
            odd = cert.squares and any(k % 2 for e in f.terms for k in e)
            if len(f.terms) == 1 or (not odd and min(f.terms.values()) > 0):
                continue  # a monomial or a positive polynomial
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
        v = kernel[0] if kernel else [0]
        ray = tuple(x / v[0] for x in v) if v[0] != 0 else (0,)
        if not all(x > 0 for x in ray) or ray in rays:
            continue  # no new solution in the open orthant
        rays.append(ray)
        point = [exact_sqrt(x) for x in ray] if cert.squares else ray
        if None in point:
            return fail(f"no exact point on the ray {_fmt(ray)}")
        built = _passes(cert, point, tol)
        if built is not None:
            solutions.append(ray)
            builds.append(built)
    found = ", ".join(f"solution ray {_fmt(r)}" for r in solutions)
    plural = "es" if len(branches) != 1 else ""
    return CertificateResult(
        True, f"{where}: {len(branches)} branch{plural}, "
              f"{found or 'no solution'}", solutions, builds)


def _passes(cert, point, tol):
    """(structure, NKReport) of the point when it is nearly Kahler, else None."""
    om = cert.omega(*point)
    try:
        s, _ = build_either_orientation(om, cert.differential(om) / 3, tol=tol)
    except StructureError:
        return None
    nk = nk_check(s, cert.differential, tol=tol)
    return (s, nk) if nk.verdict else None


def _fmt(ray):
    return "(" + ", ".join(map(str, ray)) + ")"
