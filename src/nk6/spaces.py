"""Model spaces: Ledger-Obata S^3 x S^3, the flag manifold of C^3 on su(3)
and CP^3 on sp(2); the subalgebra/dimension table of the classification is
``nk6.table``, re-exported here.

Structure constants are never hand-entered: every algebra is spanned by
integer real matrices and built by ``LieAlgebraData.from_matrices``, the
commutator being the one bracket.  A complex entry a + ib enters as the
block [[a, -b], [b, a]], a quaternion as its left-multiplication matrix and
su(2)^k as block-diagonal so(3) generators; the constants are rebuilt
exactly from coordinates and Jacobi-checked on construction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import smallmat
from .exterior import KForm
from .certificate import Certificate, Claim, check_certificate, format_ray
from .hitchin import build_either_orientation  # noqa: F401  (spaces API)
from .lie import (
    LieAlgebraData,
    ReductiveSpace,
    ce_differential,
    check_3symmetric,
    is_complex_subalgebra,
    is_invariant_endo,
    isotropy_commutant,
    natural_reductivity_defect,
    span_coordinates,
    su2_sum,
)
from .octonion import quat_conj, quat_mul
from .poly import Poly
from .report import NA, Report, Verdict, verdict
from .scalars import exact_div
from .table import ALLOWED_ISOTROPY, algebra_dimension, table_check  # noqa: F401


# ---------------------------------------------------------------------------
# real matrix forms of the complex and quaternionic model algebras
def _blocks(grid):
    """The matrix assembled from a grid of equal-size square blocks."""
    return [[x for block in row for x in block[r]]
            for row in grid for r in range(len(row[0]))]


def _complex_matrix(re, im):
    """The real 2n x 2n form of re + i im: a + ib becomes [[a, -b], [b, a]]."""
    return _blocks([[[[a, -b], [b, a]] for a, b in zip(rr, ir)]
                    for rr, ir in zip(re, im)])


def _quaternion_matrix(entries):
    """The real 4n x 4n form of a quaternionic matrix: each entry q becomes
    its left-multiplication matrix x -> q x, so products are preserved."""
    units = smallmat.identity(4)
    return _blocks([[smallmat.transpose([quat_mul(q, e) for e in units])
                     for q in row] for row in entries])


# ---------------------------------------------------------------------------
# Ledger-Obata: G x G x G / diagonal, for G = SU(2)
class LedgerObata:
    """The 3-symmetric presentation of S^3 x S^3 inside su(2)^3.

    ``space`` uses the canonical complement (zero-sum triples), on which
    the cyclic shift genuinely restricts; ``space_last_two`` is the
    complement spanned by the last two factors, on which the shift acts
    only after projection.  S and the metrics are in m-coordinates
    (first-component basis A1_i, second A2_i; or factors M1_i, M2_i).
    """

    def __init__(self, space, s_matrix, metric, space_last_two,
                 s_matrix_last_two, metric_last_two):
        self.space, self.s_matrix, self.metric = space, s_matrix, metric
        self.space_last_two = space_last_two
        self.s_matrix_last_two = s_matrix_last_two
        self.metric_last_two = metric_last_two

    def identification(self):
        """Columns of the map (X, Y) -> m of the last-two-factors complement.

        (X, Y) in su(2)+su(2), viewed in the tangent space of the group,
        goes to the projection of (X, Y, 0) along the diagonal, i.e.
        (0, Y - X, -X): first-slot coefficients Y - X, second -X.
        """
        cols = []
        for i in range(3):  # X-directions
            v = [Fraction(0)] * 6
            v[i] = Fraction(-1)
            v[3 + i] = Fraction(-1)
            cols.append(v)
        for i in range(3):  # Y-directions
            v = [Fraction(0)] * 6
            v[i] = Fraction(1)
            cols.append(v)
        return smallmat.transpose(cols)


def ledger_obata_su2():
    """Build both presentations of SU(2)^3 / diagonal."""
    # canonical complement: basis Delta_i, A1_i = (X,-X,0), A2_i = (0,X,-X)
    basis_can = ([su2_sum(i, (1, 1, 1)) for i in range(3)]
                 + [su2_sum(i, (1, -1, 0)) for i in range(3)]
                 + [su2_sum(i, (0, 1, -1)) for i in range(3)])
    labels = (["D1", "D2", "D3"] + [f"A{i+1}" for i in range(3)]
              + [f"B{i+1}" for i in range(3)])
    # last-two-factors complement: basis Delta_i, M1_i = (0,X,0), M2_i = (0,0,X)
    basis_lt = ([su2_sum(i, (1, 1, 1)) for i in range(3)]
                + [su2_sum(i, (0, 1, 0)) for i in range(3)]
                + [su2_sum(i, (0, 0, 1)) for i in range(3)])
    labels_lt = (["D1", "D2", "D3"] + [f"M{i+1}" for i in range(3)]
                 + [f"N{i+1}" for i in range(3)])

    # cyclic shift ds(A,B,C) = (B,C,A): conjugation by a block permutation
    eye, zero = smallmat.identity(3), [[0] * 3 for _ in range(3)]
    perm = _blocks([[zero, zero, eye], [eye, zero, zero], [zero, eye, zero]])

    def presentation(basis, labels):
        space = ReductiveSpace(LieAlgebraData.from_matrices(basis, labels),
                               [0, 1, 2], [3, 4, 5, 6, 7, 8])
        coordinates = span_coordinates(basis)
        shift = smallmat.transpose([
            coordinates(smallmat.mat_mul(smallmat.transpose(perm),
                                         smallmat.mat_mul(b, perm)))[3:]
            for b in basis[3:]])
        # half the trace form -tr(XY): the factors' Euclidean products
        metric = [[Fraction(-1, 2) * smallmat.trace(smallmat.mat_mul(a, b))
                   for b in basis[3:]] for a in basis[3:]]
        return space, shift, metric

    return LedgerObata(*presentation(basis_can, labels),
                       *presentation(basis_lt, labels_lt))


# ---------------------------------------------------------------------------
# The flag manifold of C^3 on su(3)
def flag_matrix(a, b, c):
    """The su(3) element with complex off-diagonal slots (a, b, c).

    a, b, c are (re, im) pairs; the complex matrix
        [[0, -conj a, b], [a, 0, -conj c], [-conj b, c, 0]]
    is returned in its real 6 x 6 form.
    """
    (ar, ai), (br, bi), (cr, ci) = a, b, c
    re = [[0, -ar, br], [ar, 0, -cr], [-br, cr, 0]]
    im = [[0, ai, bi], [ai, 0, ci], [bi, ci, 0]]
    return _complex_matrix(re, im)


def _flag_torus(r, s, t):
    """diag(i r, i s, i t), trace-free when r + s + t = 0."""
    return _complex_matrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                           [[r, 0, 0], [0, s, 0], [0, 0, t]])


def kahler_form(g, j):
    """The 2-form omega(X, Y) = g(JX, Y) of a metric g and a structure J."""
    n = len(g)
    return KForm.from_terms(n, 2, [
        ((a, b), sum(g[r][b] * j[r][a] for r in range(n)))
        for a in range(n) for b in range(a + 1, n)])


def _block_acs(signs):
    """J e_{2i} = s_i e_{2i+1} on the three planes (e_{2i}, e_{2i+1})."""
    out = [[0] * 6 for _ in range(6)]
    for i, s in enumerate(signs):
        out[2 * i + 1][2 * i], out[2 * i][2 * i + 1] = s, -s
    return out


class FlagModel:
    def __init__(self, space, summands):
        self.space = space
        self.summands = summands  # name -> the two indices of the summand

    def metric(self, r, s, t):
        """diag(r, r, s, s, t, t)."""
        return [[x if i == j else 0 for j in range(6)]
                for i, x in enumerate((r, r, s, s, t, t))]

    def acs(self, signs=(1, 1, 1)):
        """Block almost complex structure s_p J_p (+) s_q J_q (+) s_r J_r."""
        return _block_acs(signs)

    def omega(self, r, s, t, signs=(1, 1, 1)):
        """Kahler form of (metric(r,s,t), acs(signs))."""
        return kahler_form(self.metric(r, s, t), self.acs(signs))


def flag_model():
    """su(3) with the 2-torus isotropy and the three 2-dim summands."""
    one, eye, zero = (1, 0), (0, 1), (0, 0)
    basis = [
        flag_matrix(one, zero, zero), flag_matrix(eye, zero, zero),
        flag_matrix(zero, one, zero), flag_matrix(zero, eye, zero),
        flag_matrix(zero, zero, one), flag_matrix(zero, zero, eye),
        _flag_torus(1, -1, 0), _flag_torus(0, 1, -1),
    ]
    labels = ["p1", "p2", "q1", "q2", "r1", "r2", "h1", "h2"]
    space = ReductiveSpace(LieAlgebraData.from_matrices(basis, labels),
                           [6, 7], [0, 1, 2, 3, 4, 5])
    return FlagModel(space=space,
                     summands={"p": (0, 1), "q": (2, 3), "r": (4, 5)})


def _flag_bracket_family_checks():
    """Closed-form bracket families against the matrix commutator.

    The commutator is authoritative.  It confirms
        [<a,0,0>, <0,b,0>]   = <0, 0, -conj(a) conj(b)>
        [<a,0,0>, <a',0,0>]  = diag(iy, -iy, 0),  y = 2 Im(a conj(a'))
    (the conjugation in the first family is what sends the product of two
    holomorphic slots into the anti-holomorphic third summand).  Both
    sides of each identity are R-bilinear in (a, b), so the four basis
    pairs {1, i} x {1, i} prove it for all complex a, b.  Returns
    (failures, display_discrepancies): failures break the verified forms;
    display discrepancies record where the classical display
    [<a,0,0>,<0,b,0>] = <0,0,ab> differs from the oracle.
    """
    failures = []
    display = []
    zero = (0, 0)
    for a, b in itertools.product(((1, 0), (0, 1)), repeat=2):
        x = flag_matrix(a, zero, zero)
        pq = smallmat.commutator(x, flag_matrix(zero, b, zero))
        ab = (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
        # -conj(a) conj(b) = -conj(ab)
        if pq != flag_matrix(zero, zero, (-ab[0], ab[1])):
            failures.append(("pq-verified", a, b))
        if pq != flag_matrix(zero, zero, ab):
            display.append(("pq-display <0,0,ab>", a, b))
        y = 2 * (a[1] * b[0] - a[0] * b[1])  # 2 Im(a conj(b))
        if (smallmat.commutator(x, flag_matrix(b, zero, zero))
                != _flag_torus(y, -y, 0)):
            failures.append(("aa'", a, b))
    return failures, display


def _flag_weight_checks(model):
    """ad(h) acts on each summand as a rotation generator, one torus
    character per summand.

    For h = diag(ir, is, it) the slot positions of the basis matrix give
    the characters (s - r, r - t, t - s) on (p, q, r); this is what the
    commutator-built ad matrices must realize, each summand invariant and
    the three weights distinct and nonzero for generic h.  Returns
    (ok, display_matches): the second flags whether the classical display
    (s - t, t - r, r - s) happens to agree (it does not; the oracle wins).
    """
    space = model.space
    ok = True
    display_matches = True
    for h_pos, (r, s, t) in enumerate([(1, -1, 0), (0, 1, -1)]):
        weights = {"p": s - r, "q": r - t, "r": t - s}
        displayed = {"p": s - t, "q": t - r, "r": r - s}
        mat = space.ad_h[h_pos]
        for name, (i, j) in model.summands.items():
            w = weights[name]
            want = [[Fraction(0), Fraction(-w)], [Fraction(w), Fraction(0)]]
            got = [[mat[i][i], mat[i][j]], [mat[j][i], mat[j][j]]]
            if got != want:
                ok = False
            if w != displayed[name]:
                display_matches = False
            for other in range(6):
                if other not in (i, j) and (mat[other][i] != 0 or mat[other][j] != 0):
                    ok = False
    return ok, display_matches


def flag_certificate(model):
    """Nearly Kahler iff r = s = t, over the invariant 2-forms r e01 + s e23
    + t e45 (of diag(r, r, s, s, t, t) and the canonical J if r, s, t > 0).

    The three minors are -16/27 r (s - t) (r + s + t)^3 and its two
    companions, with tau0 = -4/81 (r + s + t)^4 and omega^3 = 6 r s t, so
    the one branch is s = t, r = t, r = s.
    """
    r, s, t = Poly.variables(3)
    cube = (r + s + t,) * 3
    c = Fraction(-16, 27)
    return Certificate(
        family="flag", variables=("r", "s", "t"), space=model.space,
        claims=(Claim(c, (r, s - t) + cube), Claim(c, (s, r - t) + cube),
                Claim(c, (t, r - s) + cube)),
        tau0=Claim(Fraction(-4, 81), cube + (r + s + t,)),
        omega3=Claim(6, (r, s, t)))


def natural_reductivity_rays(model):
    """Basis of the (r, s, t) for which diag(r, r, s, s, t, t) is naturally
    reductive.

    The defect g([X,Y]_m, Z) + g([X,Z]_m, Y) is linear in g, so it is one
    nullspace: a column per unit metric (1, 0, 0), (0, 1, 0), (0, 0, 1).
    """
    columns = [natural_reductivity_defect(model.space, model.metric(*unit))
               for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return smallmat.nullspace(smallmat.transpose(columns))


def flag_verify():
    """Full verification of the flag manifold case.

    (a) displayed bracket families match the matrix commutator exactly;
    (b) torus weights on the three summands are the displayed characters;
    (c) the canonical almost complex structure satisfies the order-3
        eigenspace conditions, while every one-summand flip is integrable;
    (d) natural reductivity holds iff r = s = t: the defect's nullspace is
        the ray (1, 1, 1);
    (e) the nearly Kahler system holds iff r = s = t, by certificate.
    """
    model = flag_model()
    space = model.space

    failures, display = _flag_bracket_family_checks()
    weights_ok, weights_display = _flag_weight_checks(model)
    canonical_ok = check_3symmetric(space, model.acs((1, 1, 1)))
    flipped = {signs: is_complex_subalgebra(space, model.acs(signs))
               for signs in itertools.product((1, -1), repeat=3)}
    canonical = ((1, 1, 1), (-1, -1, -1))
    mixed = [v for k, v in flipped.items() if k not in canonical]
    rays = natural_reductivity_rays(model)
    cert = check_certificate(flag_certificate(model))

    verdicts = [verdict(*v) for v in (
        ("bracket families match matrix commutators", not failures,
         "brackets"),
        ("torus weights as computed characters", weights_ok, "weights"),
        ("canonical structure satisfies order-3 conditions", canonical_ok,
         "3symmetric"),
        ("one-summand flips are integrable", len(mixed) == 6 and all(mixed),
         "integrable"),
        ("canonical structure is not integrable",
         not any(flipped[k] for k in canonical), "integrable"),
        ("naturally reductive iff r = s = t", rays == [[1, 1, 1]],
         "naturally-reductive", None,
         f"defect nullspace: span{{{', '.join(map(format_ray, rays))}}}"),
        ("nearly Kahler verdict iff r = s = t",
         cert.unique and cert.solutions == [(1, 1, 1)], "diff-system", None,
         cert.detail))]
    if display or not weights_display:
        verdicts.append(Verdict(
            "classical display deviations recorded", NA,
            detail=f"{len(display)} bracket display(s), "
                   f"weights display match = {weights_display}"))
    return Report(
        verdicts, bracket_families_exact=not failures, weights_exact=weights_ok,
        canonical_3symmetric=canonical_ok, flipped_integrable=flipped,
        natred_rays=rays, certificate=cert)


# ---------------------------------------------------------------------------
# CP^3 on sp(2)
_Q0 = (0, 0, 0, 0)


def _offdiag(a):
    """[[0, a], [-conj a, 0]] in its real 8 x 8 form."""
    return _quaternion_matrix([[_Q0, a], [[-c for c in quat_conj(a)], _Q0]])


def _diag_first(b):
    return _quaternion_matrix([[b, _Q0], [_Q0, _Q0]])


def _diag_second(b):
    return _quaternion_matrix([[_Q0, _Q0], [_Q0, b]])


class CP3Model:
    def __init__(self, space):
        self.space = space

    def metric(self, t, a=1):
        """a g_p + t g_v."""
        vals = [a, a, a, a, t, t]
        return [[vals[i] if i == j else 0 for j in range(6)] for i in range(6)]

    def acs(self, fiber_sign=1, global_sign=1):
        """J_p (+) (fiber_sign) J_v, times a global sign."""
        return _block_acs((global_sign, global_sign, global_sign * fiber_sign))

    def omega(self, t, fiber_sign=1, a=1):
        """Kahler form of (metric(t, a), acs(fiber_sign))."""
        return kahler_form(self.metric(t, a), self.acs(fiber_sign))


def cp3_model():
    """sp(2) with isotropy u(1) (+) sp(1) and the splitting m = p (+) v."""
    basis = [
        _offdiag((1, 0, 0, 0)), _offdiag((0, 1, 0, 0)),
        _offdiag((0, 0, 1, 0)), _offdiag((0, 0, 0, 1)),
        _diag_first((0, 0, 1, 0)), _diag_first((0, 0, 0, 1)),
        _diag_first((0, 1, 0, 0)),
        _diag_second((0, 1, 0, 0)), _diag_second((0, 0, 1, 0)),
        _diag_second((0, 0, 0, 1)),
    ]
    labels = ["p0", "p1", "p2", "p3", "v1", "v2", "z", "s1", "s2", "s3"]
    return CP3Model(space=ReductiveSpace(
        LieAlgebraData.from_matrices(basis, labels),
        [6, 7, 8, 9], [0, 1, 2, 3, 4, 5]))


def _block_support(mat):
    """Whether the endomorphism touches p x p, v x v and a cross block.

    p = {0..3} and v = {4, 5} index the two summands of m.
    """
    hit = {(i < 4, j < 4) for i in range(6) for j in range(6) if mat[i][j] != 0}
    return ((True, True) in hit, (False, False) in hit,
            (True, False) in hit or (False, True) in hit)


def cp3_certificate(model):
    """The nearly Kahler rays of the invariant 2-forms a (e01 + e23) + x e45.

    The one minor is -128/27 a (a - x)^3 (a + 2x), with tau0 =
    -64/81 (a - x)^4 and omega^3 = 6 a^2 x: one branch, the ray (1, -1/2).
    """
    a, x = Poly.variables(2)
    return Certificate(
        family="CP^3", variables=("a", "x"), space=model.space,
        claims=(Claim(Fraction(-128, 27), (a,) + (a - x,) * 3 + (a + 2 * x,)),),
        tau0=Claim(Fraction(-64, 81), (a - x,) * 4),
        omega3=Claim(6, (a, a, x)))


def _fiber_scaling(ray):
    """(t, fiber sign) of omega = a (e01 + e23) + x e45: the Kahler form of
    a g_p + t g_v and J_p (+) (fiber sign) J_v, t = |x / a|."""
    x = exact_div(ray[1], ray[0])
    return abs(x), 1 if x > 0 else -1


def cp3_verify():
    """Isotropy analysis plus the exact fiber scalings and their ratio: the
    nearly Kahler ray of a (e01 + e23) + x e45 by certificate, the Kahler
    rays as the nullspace of (a, x) -> d omega.
    """
    model = cp3_model()
    space = model.space

    comm = isotropy_commutant(space)
    dim_comm = len(comm)
    p_only = [m for m in comm if _block_support(m) == (True, False, False)]
    v_only = [m for m in comm if _block_support(m) == (False, True, False)]
    cross = [m for m in comm if _block_support(m)[2]]
    irreducible = (len(p_only) == 2 and len(v_only) == 2 and not cross
                   and _has_complex_generator(p_only, 4, (0, 1, 2, 3))
                   and _has_complex_generator(v_only, 2, (4, 5)))
    acs_count = _count_acs_candidates(model)

    spec = cp3_certificate(model)   # one basis for both rays
    kahler = smallmat.nullspace(smallmat.transpose(
        [ce_differential(space, w).c for w in spec.basis]))
    kahler_unique = len(kahler) == 1 and all(kahler[0])
    t_k, kahler_sign = _fiber_scaling(kahler[0]) if kahler_unique else (None, 0)

    cert = check_certificate(spec)
    t_nk, nk_sign = _fiber_scaling(cert.solutions[0]) if cert.unique else (None, 0)

    ratio = exact_div(t_k, t_nk) if t_k and t_nk else None
    verdicts = [verdict(*v) for v in (
        ("isotropy commutant has dimension 4", dim_comm == 4, "isotropy"),
        ("two irreducible summands of dims (4, 2)", irreducible, "isotropy"),
        ("four invariant almost complex structures", acs_count == 4,
         "isotropy"),
        ("unique nearly Kahler fiber scaling", cert.unique, "diff-system", None,
         cert.detail),
        ("unique Kahler fiber scaling, opposite sign",
         kahler_unique and kahler_sign == -nk_sign, "kahler"))]
    return Report(
        verdicts, {"t_nk": t_nk, "t_kahler": t_k, "ratio": ratio},
        commutant_dimension=dim_comm, summand_dims=(4, 2),
        summands_irreducible=irreducible, acs_candidates=acs_count,
        nk_fiber_sign=nk_sign, t_nk=t_nk, t_kahler=t_k,
        kahler_fiber_sign=kahler_sign, ratio=ratio, nk_unique=cert.unique,
        kahler_unique=kahler_unique, certificate=cert)


def _has_complex_generator(block_endos, size, idx):
    """The 2-dim commutant of a summand is {Id, E} with E^2 < 0: complex type."""
    if len(block_endos) != 2:
        return False
    for m in block_endos:
        sub = [[m[i][j] for j in idx] for i in idx]
        # subtract the trace part; the rest must square negative
        c = exact_div(smallmat.trace(sub), size)
        if smallmat.is_scalar_matrix(sub, c):
            continue
        dev = smallmat.mat_sub(sub, smallmat.mat_scale(c, smallmat.identity(size)))
        sq = smallmat.mat_mul(dev, dev)
        if sq[0][0] >= 0 or not smallmat.is_scalar_matrix(sq, sq[0][0]):
            return False
    return True


def _count_acs_candidates(model):
    """Count the invariant J with J^2 = -Id among the model's candidates.

    Within each summand the commutant is spanned by the identity and one
    complex generator; its two units per summand give the candidates
    J_p (+) +-J_v up to a global sign.  Each is verified exactly against
    J^2 = -Id and invariance under the isotropy, and counted once.
    """
    seen = []
    for signs in itertools.product((1, -1), repeat=2):
        j = model.acs(fiber_sign=signs[1], global_sign=signs[0])
        if (smallmat.is_scalar_matrix(smallmat.mat_mul(j, j), -1)
                and is_invariant_endo(model.space, j) and j not in seen):
            seen.append(j)
    return len(seen)
