"""Model spaces: Ledger-Obata S^3 x S^3, the flag manifold of C^3 on su(3),
CP^3 on sp(2), and the subalgebra/dimension table of the classification.

Structure constants are never hand-entered: each algebra is generated from
matrix (or direct-sum) commutators over an exact basis and Jacobi-checked
on construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import smallmat
from .exterior import KForm
from .hitchin import (
    SU3Candidate,
    StructureError,
    build_su3,
    nk_check,
    omega3_sign,
)
from .lie import (
    LieAlgebraData,
    ReductiveSpace,
    ce_differential,
    check_3symmetric,
    is_complex_subalgebra,
    is_naturally_reductive,
)
from .octonion import quat_conj, quat_mul
from .scalars import EPS, all_zero


# ---------------------------------------------------------------------------
# generic construction of structure constants from a bracket closure
def algebra_from_basis(basis, bracket, flatten, labels=None):
    """LieAlgebraData from basis elements, a bracket, and a flattener.

    The bracket of every basis pair is decomposed exactly in the basis;
    a failure to decompose means the basis does not close and raises.
    """
    dim = len(basis)
    columns = [flatten(b) for b in basis]
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            w = flatten(bracket(basis[i], basis[j]))
            coords = smallmat.solve_in_span(columns, w)
            for k, x in enumerate(coords):
                c[i][j][k] = Fraction(x)
                c[j][i][k] = -Fraction(x)
    return LieAlgebraData(c, labels=labels)


# -- exact complex matrices (pairs of rational matrices) --------------------
def cmat(re, im):
    return (tuple(tuple(Fraction(x) for x in row) for row in re),
            tuple(tuple(Fraction(x) for x in row) for row in im))


def cmat_mul(x, y):
    a, b = x
    c, d = y
    re = smallmat.mat_sub(smallmat.mat_mul(a, c), smallmat.mat_mul(b, d))
    im = smallmat.mat_add(smallmat.mat_mul(a, d), smallmat.mat_mul(b, c))
    return re, im


def cmat_bracket(x, y):
    re1, im1 = cmat_mul(x, y)
    re2, im2 = cmat_mul(y, x)
    return smallmat.mat_sub(re1, re2), smallmat.mat_sub(im1, im2)


def cmat_flatten(x):
    re, im = x
    return [v for row in re for v in row] + [v for row in im for v in row]


def cmat_eq(x, y):
    return all(a == b for a, b in zip(cmat_flatten(x), cmat_flatten(y)))


# -- exact quaternionic matrices (entries are 4-lists) -----------------------
def qmat(entries):
    return tuple(tuple(tuple(Fraction(c) for c in e) for e in row)
                 for row in entries)


def qmat_mul(x, y):
    n = len(x)
    out = []
    for i in range(n):
        row = []
        for k in range(n):
            acc = [Fraction(0)] * 4
            for j in range(n):
                p = quat_mul(list(x[i][j]), list(y[j][k]))
                acc = [a + b for a, b in zip(acc, p)]
            row.append(tuple(acc))
        out.append(tuple(row))
    return tuple(out)


def qmat_bracket(x, y):
    xy = qmat_mul(x, y)
    yx = qmat_mul(y, x)
    return tuple(tuple(tuple(a - b for a, b in zip(xy[i][j], yx[i][j]))
                       for j in range(len(x))) for i in range(len(x)))


def qmat_flatten(x):
    return [c for row in x for e in row for c in e]


# ---------------------------------------------------------------------------
# Ledger-Obata: G x G x G / diagonal, for G = SU(2)
def _su2_bracket(x, y):
    """su(2) in the cyclic-co-frame convention: [X_i, X_j] = -eps_ijk X_k."""
    return [
        -(x[1] * y[2] - x[2] * y[1]),
        -(x[2] * y[0] - x[0] * y[2]),
        -(x[0] * y[1] - x[1] * y[0]),
    ]


def _triple_bracket(x, y):
    return tuple(_su2_bracket(list(a), list(b)) for a, b in zip(x, y))


def _triple_flatten(x):
    return [Fraction(v) for comp in x for v in comp]


def _triple(i, coeffs):
    """Element of su(2)^3 with the i-th su(2) basis vector in given slots."""
    out = []
    for c in coeffs:
        v = [Fraction(0)] * 3
        v[i] = Fraction(c)
        out.append(tuple(v))
    return tuple(out)


@dataclass
class LedgerObata:
    """The 3-symmetric presentation of S^3 x S^3 inside su(2)^3.

    ``space`` uses the canonical complement (zero-sum triples), on which
    the cyclic shift genuinely restricts; ``space_last_two`` is the
    complement spanned by the last two factors, on which the shift acts
    only after projection.  S and the metrics are in m-coordinates
    (first-component basis A1_i, second A2_i; or factors M1_i, M2_i).
    """

    space: ReductiveSpace
    s_matrix: list
    metric: list
    space_last_two: ReductiveSpace
    s_matrix_last_two: list
    metric_last_two: list

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
    basis_can = ([_triple(i, (1, 1, 1)) for i in range(3)]
                 + [_triple(i, (1, -1, 0)) for i in range(3)]
                 + [_triple(i, (0, 1, -1)) for i in range(3)])
    labels = (["D1", "D2", "D3"] + [f"A{i+1}" for i in range(3)]
              + [f"B{i+1}" for i in range(3)])
    alg_can = algebra_from_basis(basis_can, _triple_bracket, _triple_flatten,
                                 labels=labels)
    space_can = ReductiveSpace(alg_can, [0, 1, 2], [3, 4, 5, 6, 7, 8])

    # last-two-factors complement: basis Delta_i, M1_i = (0,X,0), M2_i = (0,0,X)
    basis_lt = ([_triple(i, (1, 1, 1)) for i in range(3)]
                + [_triple(i, (0, 1, 0)) for i in range(3)]
                + [_triple(i, (0, 0, 1)) for i in range(3)])
    labels_lt = (["D1", "D2", "D3"] + [f"M{i+1}" for i in range(3)]
                 + [f"N{i+1}" for i in range(3)])
    alg_lt = algebra_from_basis(basis_lt, _triple_bracket, _triple_flatten,
                                labels=labels_lt)
    space_lt = ReductiveSpace(alg_lt, [0, 1, 2], [3, 4, 5, 6, 7, 8])

    # cyclic shift ds(A,B,C) = (B,C,A), projected to each complement
    def s_matrix_for(basis_m, proj_cols):
        cols = []
        for b in basis_m:
            shifted = (b[1], b[2], b[0])
            coords = smallmat.solve_in_span(proj_cols, _triple_flatten(shifted))
            cols.append(coords[3:])  # m-part of the coordinates
        return smallmat.transpose(cols)

    cols_can = [_triple_flatten(b) for b in basis_can]
    cols_lt = [_triple_flatten(b) for b in basis_lt]
    s_can = s_matrix_for(basis_can[3:], cols_can)
    s_lt = s_matrix_for(basis_lt[3:], cols_lt)

    def restricted_metric(basis_m):
        return [[sum(x * y for ca, cb in zip(a, b) for x, y in zip(ca, cb))
                 for b in basis_m] for a in basis_m]

    return LedgerObata(
        space=space_can,
        s_matrix=s_can,
        metric=restricted_metric(basis_can[3:]),
        space_last_two=space_lt,
        s_matrix_last_two=s_lt,
        metric_last_two=restricted_metric(basis_lt[3:]),
    )


# ---------------------------------------------------------------------------
# The flag manifold of C^3 on su(3)
def flag_matrix(a, b, c):
    """The su(3) element with complex off-diagonal slots (a, b, c).

    a, b, c are (re, im) pairs; the matrix is
        [[0, -conj a, b], [a, 0, -conj c], [-conj b, c, 0]].
    """
    (ar, ai), (br, bi), (cr, ci) = a, b, c
    re = [[0, -ar, br], [ar, 0, -cr], [-br, cr, 0]]
    im = [[0, ai, bi], [ai, 0, ci], [bi, ci, 0]]
    return cmat(re, im)


def _flag_torus(r, s, t):
    """diag(i r, i s, i t), trace-free when r + s + t = 0."""
    return cmat([[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                [[r, 0, 0], [0, s, 0], [0, 0, t]])


def kahler_form(g, j):
    """The 2-form omega(X, Y) = g(JX, Y) of a metric g and a structure J."""
    n = len(g)
    return KForm.from_terms(n, 2, [
        ((a, b), sum(g[r][b] * j[r][a] for r in range(n)))
        for a in range(n) for b in range(a + 1, n)])


@dataclass
class FlagModel:
    space: ReductiveSpace
    summands: dict
    J_blocks: list
    basis_matrices: list

    def metric(self, r, s, t):
        vals = [r, r, s, s, t, t]
        return [[Fraction(vals[i]) if i == j else Fraction(0)
                 for j in range(6)] for i in range(6)]

    def acs(self, signs=(1, 1, 1)):
        """Block almost complex structure s_p J_p (+) s_q J_q (+) s_r J_r."""
        out = [[Fraction(0)] * 6 for _ in range(6)]
        for block, sign in enumerate(signs):
            base = 2 * block
            out[base][base + 1] = Fraction(-sign)
            out[base + 1][base] = Fraction(sign)
        return out

    def omega(self, r, s, t, signs=(1, 1, 1)):
        """Kahler form of (metric(r,s,t), acs(signs))."""
        return kahler_form(self.metric(r, s, t), self.acs(signs))


def flag_model():
    """su(3) with the 2-torus isotropy and the three 2-dim summands."""
    one = (Fraction(1), Fraction(0))
    eye = (Fraction(0), Fraction(1))
    zero = (Fraction(0), Fraction(0))
    basis = [
        flag_matrix(one, zero, zero), flag_matrix(eye, zero, zero),
        flag_matrix(zero, one, zero), flag_matrix(zero, eye, zero),
        flag_matrix(zero, zero, one), flag_matrix(zero, zero, eye),
        _flag_torus(1, -1, 0), _flag_torus(0, 1, -1),
    ]
    labels = ["p1", "p2", "q1", "q2", "r1", "r2", "h1", "h2"]
    algebra = algebra_from_basis(basis, cmat_bracket, cmat_flatten, labels=labels)
    space = ReductiveSpace(algebra, [6, 7], [0, 1, 2, 3, 4, 5])
    return FlagModel(
        space=space,
        summands={"p": (0, 1), "q": (2, 3), "r": (4, 5)},
        J_blocks=[(0, 1), (2, 3), (4, 5)],
        basis_matrices=basis,
    )


@dataclass
class FlagReport:
    bracket_families_exact: bool
    display_discrepancies: list
    weights_exact: bool
    weights_match_display: bool
    canonical_3symmetric: bool
    flipped_integrable: dict
    natred_grid: dict
    nk_grid: dict
    grid: int

    @property
    def ok(self):
        diag_ok = all(
            (r == s == t) == v for (r, s, t), v in self.natred_grid.items())
        nk_ok = all((r == s == t) == v for (r, s, t), v in self.nk_grid.items())
        mixed = {k: v for k, v in self.flipped_integrable.items()
                 if k not in ((1, 1, 1), (-1, -1, -1))}
        canonical_not_integrable = not any(
            self.flipped_integrable.get(k, True)
            for k in ((1, 1, 1), (-1, -1, -1)))
        return (self.bracket_families_exact and self.weights_exact
                and self.canonical_3symmetric and diag_ok and nk_ok
                and all(mixed.values()) and len(mixed) == 6
                and canonical_not_integrable)


def _flag_bracket_family_checks(model):
    """Closed-form bracket families against the matrix commutator.

    The commutator is authoritative.  It confirms
        [<a,0,0>, <0,b,0>]   = <0, 0, -conj(a) conj(b)>
        [<a,0,0>, <a',0,0>]  = diag(iy, -iy, 0),  y = 2 Im(a conj(a'))
    (the conjugation in the first family is what sends the product of two
    holomorphic slots into the anti-holomorphic third summand).  Returns
    (failures, display_discrepancies): failures break the verified forms;
    display discrepancies record where the classical display
    [<a,0,0>,<0,b,0>] = <0,0,ab> differs from the oracle.
    """
    failures = []
    display = []
    zero = (Fraction(0), Fraction(0))

    samples = [((1, 0), (1, 0)), ((1, 0), (0, 1)), ((1, 2), (3, -1)),
               ((0, 1), (1, 1)), ((2, 3), (-1, 5))]
    for (ar, ai), (br, bi) in samples:
        a = (Fraction(ar), Fraction(ai))
        b = (Fraction(br), Fraction(bi))
        lhs = cmat_bracket(flag_matrix(a, zero, zero), flag_matrix(zero, b, zero))
        # -conj(a) conj(b) = -(a0 - i a1)(b0 - i b1)
        c = (-(a[0] * b[0] - a[1] * b[1]), a[0] * b[1] + a[1] * b[0])
        if not cmat_eq(lhs, flag_matrix(zero, zero, c)):
            failures.append((("pq-verified", (ar, ai), (br, bi)), lhs))
        ab = (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
        if not cmat_eq(lhs, flag_matrix(zero, zero, ab)):
            display.append(("pq-display <0,0,ab>", (ar, ai), (br, bi)))

    for (ar, ai), (br, bi) in samples:
        a = (Fraction(ar), Fraction(ai))
        ap = (Fraction(br), Fraction(bi))
        lhs = cmat_bracket(flag_matrix(a, zero, zero), flag_matrix(ap, zero, zero))
        y = 2 * (ai * br - ar * bi)  # 2 Im(a conj(a'))
        rhs = cmat([[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                   [[y, 0, 0], [0, -y, 0], [0, 0, 0]])
        if not cmat_eq(lhs, rhs):
            failures.append((("aa'", (ar, ai), (br, bi)), lhs))
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


def flag_verify(grid=4, tol=EPS):
    """Full verification of the flag manifold case.

    (a) displayed bracket families match the matrix commutator exactly;
    (b) torus weights on the three summands are the displayed characters;
    (c) the canonical almost complex structure satisfies the order-3
        eigenspace conditions, while every one-summand flip is integrable;
    (d) on the (r,s,t) grid, natural reductivity and the nearly Kahler
        verdict both hold exactly on the diagonal r = s = t and fail off it.
    """
    model = flag_model()
    space = model.space

    failures, display = _flag_bracket_family_checks(model)
    weights_ok, weights_display = _flag_weight_checks(model)

    j_can = model.acs((1, 1, 1))
    canonical_ok = check_3symmetric(space, j_can, tol=tol)

    flipped = {}
    for signs in itertools.product((1, -1), repeat=3):
        flipped[signs] = is_complex_subalgebra(space, model.acs(signs), tol=tol)

    natred = {}
    nk = {}
    rng = range(1, grid + 1)
    for r, s, t in itertools.product(rng, rng, rng):
        g = model.metric(r, s, t)
        natred[(r, s, t)] = is_naturally_reductive(space, g, tol=tol)
        nk[(r, s, t)] = _flag_nk_verdict(model, r, s, t, tol=tol)

    return FlagReport(
        bracket_families_exact=not failures,
        display_discrepancies=display,
        weights_exact=weights_ok,
        weights_match_display=weights_display,
        canonical_3symmetric=canonical_ok,
        flipped_integrable=flipped,
        natred_grid=natred,
        nk_grid=nk,
        grid=grid,
    )


def build_either_orientation(omega, psi, tol=EPS):
    """Build once, against the reference volume -sign(omega^3) e012345.

    Flipping the orientation flips J and g, and only this one can give a
    positive metric (see ``omega3_sign``).  Returns (structure,
    orientation) or raises the structure error.
    """
    orient = -omega3_sign(omega)
    vol = KForm.basis(6, (0, 1, 2, 3, 4, 5), Fraction(orient))
    return build_su3(SU3Candidate(omega, psi, vol), tol=tol), orient


def _flag_nk_verdict(model, r, s, t, tol=EPS):
    d = lambda a: ce_differential(model.space, a)
    om = model.omega(r, s, t)
    try:
        structure, _ = build_either_orientation(om, d(om) / 3, tol=tol)
    except StructureError:
        return False
    return nk_check(structure, d, tol=tol).verdict


# ---------------------------------------------------------------------------
# CP^3 on sp(2)
def _offdiag(a):
    """[[0, a], [-conj a, 0]] as an exact quaternionic matrix."""
    return qmat([[(0, 0, 0, 0), tuple(a)],
                 [tuple(-c for c in quat_conj(list(a))), (0, 0, 0, 0)]])


def _diag_first(b):
    return qmat([[tuple(b), (0, 0, 0, 0)], [(0, 0, 0, 0), (0, 0, 0, 0)]])


def _diag_second(b):
    return qmat([[(0, 0, 0, 0), (0, 0, 0, 0)], [(0, 0, 0, 0), tuple(b)]])


@dataclass
class CP3Model:
    space: ReductiveSpace
    p_indices: tuple
    v_indices: tuple

    def metric(self, t):
        vals = [1, 1, 1, 1, t, t]
        return [[vals[i] if i == j else 0 for j in range(6)] for i in range(6)]

    def acs(self, fiber_sign=1, global_sign=1):
        """J_p (+) (fiber_sign) J_v, times a global sign."""
        out = [[Fraction(0)] * 6 for _ in range(6)]
        for (a, b) in ((0, 1), (2, 3)):
            out[a][b] = Fraction(-global_sign)
            out[b][a] = Fraction(global_sign)
        fib = global_sign * fiber_sign
        out[4][5] = Fraction(-fib)
        out[5][4] = Fraction(fib)
        return out

    def omega(self, t, fiber_sign=1):
        """Kahler form of (metric(t), acs(fiber_sign))."""
        return kahler_form(self.metric(t), self.acs(fiber_sign))


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
    algebra = algebra_from_basis(basis, qmat_bracket, qmat_flatten, labels=labels)
    space = ReductiveSpace(algebra, [6, 7, 8, 9], [0, 1, 2, 3, 4, 5])
    return CP3Model(space=space, p_indices=(0, 1, 2, 3), v_indices=(4, 5))


def isotropy_commutant(space):
    """Basis of endomorphisms of m commuting with the whole ad(h) action."""
    n = space.dim_m
    rows = []
    for mat in space.ad_h:
        for r in range(n):
            for s in range(n):
                row = [Fraction(0)] * (n * n)
                # ([ad, E])_{rs} = sum_k ad[r][k] E[k][s] - E[r][k] ad[k][s]
                for k in range(n):
                    row[k * n + s] += mat[r][k]
                    row[r * n + k] -= mat[k][s]
                rows.append(row)
    kernel = smallmat.nullspace(rows)
    return [[vec[i * n:(i + 1) * n] for i in range(n)] for vec in kernel]


def _block_support(mat):
    """Whether the endomorphism touches p x p, v x v and a cross block.

    p = {0..3} and v = {4, 5} index the two summands of m.
    """
    hit = {(i < 4, j < 4) for i in range(6) for j in range(6) if mat[i][j] != 0}
    return ((True, True) in hit, (False, False) in hit,
            (True, False) in hit or (False, True) in hit)


@dataclass
class CP3Report:
    commutant_dimension: int
    summand_dims: tuple
    summands_irreducible: bool
    acs_candidates: int
    nk_fiber_sign: int
    t_nk: float
    t_kahler: float
    kahler_fiber_sign: int
    ratio: float
    nk_unique: bool
    kahler_unique: bool

    @property
    def ok(self):
        return (self.commutant_dimension == 4
                and self.summand_dims == (4, 2)
                and self.summands_irreducible
                and self.acs_candidates == 4
                and self.nk_unique and self.kahler_unique
                and self.t_nk > 0 and self.t_kahler > 0)


def _cp3_nk_residual(model, t, fiber_sign, tol):
    d = lambda a: ce_differential(model.space, a, check_invariance=False)
    om = model.omega(t, fiber_sign)
    try:
        s, _ = build_either_orientation(om, d(om) / 3, tol=tol)
    except StructureError:
        return float("inf")
    rep = nk_check(s, d, tol=tol)
    return max(rep.residual_r1, rep.residual_r2)


def _golden_min(f, lo, hi, iters=80):
    invphi = (5 ** 0.5 - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2
    return x, f(x)


def cp3_verify(tol=EPS, t_max=4.0, coarse=80):
    """Isotropy analysis plus the fiber-scaling scan.

    The invariant metrics are g_t = g_p + t g_v up to homothety; the scan
    locates the unique t where one fiber sign of the almost complex
    structure solves the nearly Kahler system, and the unique t where the
    opposite sign gives a closed Kahler form (d omega = 0, solved linearly
    in t); their ratio is reported.
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

    acs_count = _count_acs_candidates(model, comm)

    # Kahler scaling: d omega_t = u + t * w is linear in t
    results = {}
    for sv in (1, -1):
        om0 = model.omega(0, sv)  # t = 0 part
        om1 = (model.omega(1, sv) - om0)  # fiber part coefficient
        u = ce_differential(space, om0, check_invariance=False)
        w = ce_differential(space, om1, check_invariance=False)
        uw = sum(float(a) * float(b) for a, b in zip(u.c, w.c))
        ww = sum(float(b) * float(b) for b in w.c)
        t_star = -uw / ww
        resid = (u + w.scale(t_star)).max_abs()
        results[sv] = (t_star, resid)

    kahler = [(sv, ts) for sv, (ts, r) in results.items() if ts > 0 and r <= 1e-9]
    kahler_sign, t_k = kahler[-1] if kahler else (None, None)
    kahler_unique = len(kahler) == 1

    # nearly Kahler scaling: scan then refine
    nk_sign = None
    t_nk = None
    nk_unique = True
    for sv in (1, -1):
        f = lambda t: _cp3_nk_residual(model, t, sv, tol)
        ts = [t_max * (k + 1) / coarse for k in range(coarse)]
        vals = [f(t) for t in ts]
        finite = [v for v in vals if v != float("inf")]
        if not finite:
            continue
        basins = []
        for k in range(1, coarse - 1):
            if vals[k] < vals[k - 1] and vals[k] < vals[k + 1]:
                basins.append(k)
        hits = []
        for k in basins:
            x, v = _golden_min(f, ts[max(0, k - 1)], ts[min(coarse - 1, k + 1)])
            if v <= 1e-8:
                hits.append((x, v))
        if hits:
            if nk_sign is not None or len(hits) > 1:
                nk_unique = False
            nk_sign = sv
            t_nk = hits[0][0]
    nk_unique = nk_unique and nk_sign is not None

    ratio = (t_k / t_nk) if (t_k and t_nk) else float("nan")
    return CP3Report(
        commutant_dimension=dim_comm,
        summand_dims=(4, 2),
        summands_irreducible=irreducible,
        acs_candidates=acs_count,
        nk_fiber_sign=nk_sign if nk_sign else 0,
        t_nk=t_nk if t_nk else float("nan"),
        t_kahler=t_k if t_k else float("nan"),
        kahler_fiber_sign=kahler_sign if kahler_sign else 0,
        ratio=ratio,
        nk_unique=nk_unique,
        kahler_unique=kahler_unique,
    )


def _has_complex_generator(block_endos, size, idx):
    """The 2-dim commutant of a summand is {Id, E} with E^2 < 0: complex type."""
    if len(block_endos) != 2:
        return False
    for m in block_endos:
        sub = [[m[i][j] for j in idx] for i in idx]
        eye = smallmat.identity(size, Fraction(1))
        # subtract the trace part; the rest must square negative
        tr = smallmat.trace(sub)
        dev = smallmat.mat_sub(sub, smallmat.mat_scale(tr / size, eye))
        if all(x == 0 for row in dev for x in row):
            continue
        sq = smallmat.mat_mul(dev, dev)
        lam = sq[0][0]
        if lam >= 0:
            return False
        if any(sq[i][j] != (lam if i == j else 0)
               for i in range(size) for j in range(size)):
            return False
    return True


def _count_acs_candidates(model, comm):
    """Enumerate invariant J with J^2 = -Id from the commutant.

    Within each summand the commutant is spanned by the identity and one
    complex generator; scaling the generator to a square root of -Id (when
    the scale admits one) gives two units per summand.  Every candidate is
    verified exactly against J^2 = -Id and membership in the commutant
    span, and counted once.
    """
    columns = [[x for row in m for x in row] for m in comm]
    seen = []
    for signs in itertools.product((1, -1), repeat=2):
        j = model.acs(fiber_sign=signs[1], global_sign=signs[0])
        if not all_zero(smallmat.mat_add(smallmat.mat_mul(j, j),
                                         smallmat.identity(len(j)))):
            continue
        try:
            smallmat.solve_in_span(columns, [x for row in j for x in row])
        except smallmat.SingularMatrix:
            continue
        if j not in seen:
            seen.append(j)
    return len(seen)


# ---------------------------------------------------------------------------
# dimension table of admissible isotropy pairs
ALLOWED_ISOTROPY = ["0", "u(1)", "2u(1)", "su(2)", "u(2)", "su(3)"]

TABLE_ROWS = [
    ("0", "su(2)+su(2)", "S3xS3"),
    ("u(1)", "u(1)+su(2)+su(2)", "S3xS3"),
    ("2u(1)", "2u(1)+su(2)+su(2)", "S3xS3"),
    ("2u(1)", "su(3)", "F3"),
    ("su(2)", "su(2)+su(2)+su(2)", "S3xS3"),
    ("u(2)", "u(1)+su(2)+su(2)+su(2)", "S3xS3"),
    ("u(2)", "sp(2)", "CP3"),
    ("su(3)", "g2", "S6"),
]

_DIMS = {"0": 0, "u(1)": 1, "su(2)": 3, "su(3)": 8, "sp(2)": 10, "g2": 14,
         "u(2)": 4}


def algebra_dimension(label):
    """Dimension of a direct sum like '2u(1)+su(2)+su(2)'."""
    total = 0
    for part in label.split("+"):
        part = part.strip()
        if part[0].isdigit() and part not in _DIMS:
            count, rest = int(part[0]), part[1:]
            total += count * _DIMS[rest]
        else:
            total += _DIMS[part]
    return total


@dataclass
class TableReport:
    rows: list

    @property
    def ok(self):
        return all(r["codimension"] == 6 and r["isotropy_allowed"]
                   for r in self.rows)


def table_check():
    """Each table row: dim g - dim h = 6 and h in the allowed isotropy list."""
    rows = []
    for h, g, target in TABLE_ROWS:
        rows.append({
            "h": h,
            "g": g,
            "target": target,
            "dim_h": algebra_dimension(h),
            "dim_g": algebra_dimension(g),
            "codimension": algebra_dimension(g) - algebra_dimension(h),
            "isotropy_allowed": h in ALLOWED_ISOTROPY,
        })
    return TableReport(rows=rows)
