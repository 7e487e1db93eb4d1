"""Octonions by Cayley-Dickson doubling, the 7-dimensional cross product,
and the pointwise SU(3)-structures on the unit 6-sphere.

The doubling rule is (a, b)(c, d) = (ac - d*b, da + bc*) over the
quaternions, which are doubled from the complexes the same way.  All table
entries are integers, so basis identities hold exactly; float vectors are
fine for randomized checks.
"""

from __future__ import annotations

from fractions import Fraction

from . import smallmat
from .exterior import KForm, index_tuples
from .hitchin import SU3Candidate, build_su3
from .scalars import EPS, exact_div, scalar_like


def quat_mul(a, b):
    """Quaternion product on length-4 coefficient lists (1, i, j, k)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return [
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ]


def quat_conj(a):
    return [a[0], -a[1], -a[2], -a[3]]


def oct_mul(x, y):
    """Octonion product on length-8 lists via Cayley-Dickson doubling."""
    a, b = list(x[:4]), list(x[4:])
    c, d = list(y[:4]), list(y[4:])
    first = [p - q for p, q in zip(quat_mul(a, c), quat_mul(quat_conj(d), b))]
    second = [p + q for p, q in zip(quat_mul(d, a), quat_mul(b, quat_conj(c)))]
    return first + second


def _build_table():
    table = []
    for i in range(8):
        ei = [0] * 8
        ei[i] = 1
        row = []
        for j in range(8):
            ej = [0] * 8
            ej[j] = 1
            row.append(oct_mul(ei, ej))
        table.append(row)
    return table


MULT_TABLE = _build_table()


def cross(x, y):
    """2-fold vector cross product on R^7 (imaginary octonions).

    P(x, y) is the imaginary part of the octonion product of the two
    imaginary octonions; bilinear, orthogonal to both arguments, and
    (x, y, z) -> <P(x,y), z> is alternating.
    """
    if len(x) != 7 or len(y) != 7:
        raise ValueError("cross product expects 7-vectors")
    p = oct_mul([0] + list(x), [0] + list(y))
    return p[1:]


def cross_matrix(x):
    """Matrix of y -> P(x, y) acting on R^7."""
    cols = []
    for j in range(7):
        e = [0] * 7
        e[j] = 1
        cols.append(cross(x, e))
    return smallmat.transpose(cols)


def g2_three_form():
    """phi0 with phi0(x, y, z) = <P(x,y), z>, entries +-1 on 7 triples."""
    tuples, _ = index_tuples(7, 3)
    terms = []
    for (i, j, k) in tuples:
        ei = [0] * 7
        ei[i] = 1
        ej = [0] * 7
        ej[j] = 1
        v = cross(ei, ej)[k]
        if v != 0:
            terms.append(((i, j, k), Fraction(v)))
    return KForm.from_terms(7, 3, terms)


def euler_radial_derivative(alpha):
    """d of the radial contraction of a constant form:  sum_i e_i ^ i_{e_i} alpha.

    For a constant k-form this equals k * alpha (the degree identity); it is
    the exterior derivative of the contraction of alpha with the position
    field, and pins the sphere differential of the invariant forms below.
    """
    from .exterior import interior, wedge

    n = alpha.n
    out = KForm.zero(n, alpha.k)
    for i in range(n):
        e = [0] * n
        e[i] = 1
        out = out + wedge(KForm.basis(n, (i,)), interior(e, alpha))
    return out


def tangent_basis(x):
    """Orthonormal basis of the orthogonal complement of a unit 7-vector.

    Returns a 7x6 column matrix B with det([x | B]) = +1: the columns j != k
    of the Householder reflection H = I - 2 w w^T / (w.w), where
    k = argmax |x_k| and w = x + sign(x_k) e_k.  H e_k = -sign(x_k) x, so
    these columns span the complement of x.  The entries are rational in x:
    the frame is exact at every rational unit point.
    """
    k = max(range(7), key=lambda i: abs(x[i]))
    sign = 1 if x[k] > 0 else -1
    w = [v + (sign if i == k else 0) for i, v in enumerate(x)]
    f = exact_div(2, smallmat.vec_dot(w, w))
    b = [[(r == c) - f * w[r] * w[c] for c in range(7) if c != k]
         for r in range(7)]
    # det([x | B]) = -sign det(H) (-1)^k = sign (-1)^k, as det(H) = -1
    if sign * (-1) ** k < 0:
        for row in b:
            row[5] = -row[5]
    return b


S6_ORIENTATION = 1


def s6_candidate(x):
    """Pointwise SU(3) candidate on the tangent space of the unit sphere.

    omega is the contraction of the cross-product 3-form with the point,
    psi its tangential restriction, both expressed in the oriented
    orthonormal frame ``tangent_basis(x)``.  Returns (candidate, basis).
    """
    phi0 = g2_three_form()
    basis = tangent_basis(x)
    cols = smallmat.transpose(basis)
    omega = KForm.from_terms(6, 2, [
        ((a, b), phi0(list(x), cols[a], cols[b]))
        for a in range(6) for b in range(a + 1, 6)])
    psi = KForm.from_terms(6, 3, [
        ((a, b, c), phi0(cols[a], cols[b], cols[c]))
        for a in range(6) for b in range(a + 1, 6) for c in range(b + 1, 6)])
    vol = KForm.basis(6, (0, 1, 2, 3, 4, 5), scalar_like(x, S6_ORIENTATION))
    return SU3Candidate(omega, psi, vol), basis


def s6_structure_at(x, tol=EPS):
    """Build the SU(3)-structure at a unit point and compare J with x.(-).

    Returns (structure, basis, deviation) where deviation is the smallest
    over a global sign of the difference between the built J, lifted to the
    ambient space, and the cross-product operator y -> P(x, y) on the
    tangent space.
    """
    nrm = sum(float(v) ** 2 for v in x)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError("point must lie on the unit sphere")
    cand, basis = s6_candidate(x)
    s = build_su3(cand, tol=tol)
    px = cross_matrix(x)
    bt = smallmat.transpose(basis)
    j_oct = smallmat.mat_mul(bt, smallmat.mat_mul(px, basis))
    dev = min(
        smallmat.mat_max_abs(smallmat.mat_sub(s.J, j_oct)),
        smallmat.mat_max_abs(smallmat.mat_add(s.J, j_oct)),
    )
    return s, basis, dev
