"""Octonions by Cayley-Dickson doubling, the 7-dimensional cross product,
the pointwise SU(3)-structures on the unit 6-sphere, and S^6 = G2/SU(3).

The doubling rule is (a, b)(c, d) = (ac - d*b, da + bc*) over the
quaternions, which are doubled from the complexes the same way.  All table
entries are integers, so basis identities hold exactly, and so does every
verdict of :func:`s6_verify`: g2 is computed as a nullspace over Q and the
structure is compared with the octonion product at one exact point.
"""

from __future__ import annotations


from . import smallmat
from .cone import (
    cone_rho, cone_verdicts, g2_metric_identity, s6_link_differential,
    u_basis_expansion)
from .exterior import KForm, index_tuples
from .hitchin import StructureError, build_either_orientation, contract
from .report import Report, verdict
from .scalars import EPS, exact_div, is_zero, lattice_zero


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
    return smallmat.transpose([cross(x, e) for e in smallmat.identity(7)])


def g2_three_form():
    """phi0 with phi0(x, y, z) = <P(x,y), z>, entries +-1 on 7 triples."""
    eye = smallmat.identity(7)
    return KForm.from_terms(7, 3, [
        ((i, j, k), cross(eye[i], eye[j])[k])
        for i, j, k in index_tuples(7, 3)[0]])


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


def s6_candidate(x):
    """Pointwise SU(3) pair on the tangent space of the unit sphere.

    omega is the contraction of the cross-product 3-form with the point,
    psi its tangential restriction, both expressed in the oriented
    orthonormal frame ``tangent_basis(x)``.  Returns (omega, psi, basis).
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
    return omega, psi, basis


def s6_structure_at(x, tol=EPS):
    """Build the SU(3)-structure at a unit point and compare J with x.(-).

    Built once by the omega^3 orientation rule (``build_either_orientation``),
    which picks the frame's own.  Returns (structure, basis, deviation) where
    deviation is the smallest over a global sign of the largest entry, in
    absolute value, of the difference between the built J and the
    cross-product operator y -> P(x, y) on the tangent space: exact on exact
    input.
    """
    if not is_zero(sum(v * v for v in x) - 1, tol):
        raise ValueError("point must lie on the unit sphere")
    omega, psi, basis = s6_candidate(x)
    s, _ = build_either_orientation(omega, psi, tol)
    px = cross_matrix(x)
    bt = smallmat.transpose(basis)
    j_oct = smallmat.mat_mul(bt, smallmat.mat_mul(px, basis))
    dev = min(max(abs(v) for row in diff(s.J, j_oct) for v in row)
              for diff in (smallmat.mat_sub, smallmat.mat_add))
    return s, basis, dev


def stabiliser(phi):
    """Basis of {D in gl(n) : D . phi = 0}, the Lie algebra fixing a 3-form.

    D . phi = -(phi(D., ., .) + phi(., D., .) + phi(., ., D.)) is linear in
    D, so this is one nullspace: a column per matrix unit of gl(n), a row
    per coefficient of the 3-form.
    """
    n = phi.n
    columns = []
    for a in range(n):
        for b in range(n):
            unit = [[int(r == a and c == b) for c in range(n)]
                    for r in range(n)]
            parts = [contract(phi, unit, slot).c for slot in range(3)]
            columns.append([sum(col) for col in zip(*parts)])
    kernel = smallmat.nullspace(smallmat.transpose(columns))
    return [[v[r * n:(r + 1) * n] for r in range(n)] for v in kernel]


def s6_verify():
    """S^6 = G2/SU(3), and its nearly Kahler structure, from one exact point.

    g2 is the stabiliser of phi0: 14-dimensional and inside so(7).  The
    orbit map D -> D e1 has rank 6, so G2 acts transitively on S^6, and the
    isotropy at e1 has dimension 8 = dim su(3).  The stable-form J and the
    octonion J are both built from phi0, the point and the metric alone,
    so both are G2-equivariant: exact agreement at e1 is agreement on all
    of S^6.  The cone checks then run on the exact structure at e1.
    """
    g2 = stabiliser(g2_three_form())
    e1 = [1] + [0] * 6
    isotropy = smallmat.nullspace(
        smallmat.transpose([smallmat.mat_vec(d, e1) for d in g2]))
    rank = len(g2) - len(isotropy)
    report = Report(scalars={"g2_dimension": len(g2), "orbit_rank": rank,
                             "isotropy_dimension": len(isotropy)})
    skew = [smallmat.mat_add(d, smallmat.transpose(d)) for d in g2]
    report.verdicts = [verdict(*v) for v in (
        ("stabiliser g2 of phi0 has dimension 14", len(g2) == 14, "g2"),
        ("g2 lies in so(7)",
         all(lattice_zero(smallmat.mat_lattice(m)) for m in skew), "g2"),
        ("G2 acts transitively on S^6 (orbit map at e1 has rank 6)",
         rank == 6, "homogeneity"),
        ("isotropy at e1 has dimension 8 = dim su(3)", len(isotropy) == 8,
         "homogeneity"))]
    try:
        s6, _, dev = s6_structure_at(e1)
    except StructureError as ex:
        report.verdicts.append(verdict("structure builds at e1", False,
                                       ex.label, detail=str(ex)))
        return report
    report.verdicts.append(verdict(
        "exact agreement at a basis point", is_zero(dev), "octonion-J",
        float(dev), "with G2-equivariance: agreement on all of S^6"))
    report.verdicts += cone_verdicts(s6, s6_link_differential(s6))[0]
    c, dev = g2_metric_identity(
        u_basis_expansion(cone_rho(s6.omega, s6.psi)))
    report.verdicts.append(verdict(
        "constant metric identity of the cone 3-form", is_zero(dev),
        "g2-identity", float(dev)))
    report.scalars["g2_identity_constant"] = c
    return report
