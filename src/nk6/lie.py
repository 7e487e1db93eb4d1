"""Lie algebras by structure constants and reductive homogeneous geometry.

A homogeneous space enters as a Lie algebra g with a distinguished index
splitting g = h (+) m satisfying [h,h] c h and [h,m] c m.  Invariant
tensors on the space are constant tensors on m; this module evaluates the
invariant-form differential, the Levi-Civita connection via Nomizu's
formula, the canonical Hermitian connection and its torsion, the normal
connection, order-3 symmetries and their almost complex structures, and
curvature/Ricci.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import smallmat
from .exterior import KForm, index_tuples, sort_index
from .scalars import (
    EPS, all_zero, bilinear, exact_div, is_zero, kernel_rows, lattice_zero, lift,
    lower, scalar_like, sqrt_scalar)


class NotInvariant(ValueError):
    pass


class HasFixedVector(ValueError):
    pass


class LieAlgebraData:
    """Structure constants c[i][j][k] with [X_i, X_j] = sum_k c[i][j][k] X_k.

    ``brackets[i][j]`` lists the pairs (k, c[i][j][k]) with a nonzero
    constant; the Jacobi and antisymmetry checks and the bracket tables of
    :class:`ReductiveSpace` run over these alone.
    """

    def __init__(self, constants, labels=None, check=True, tol=EPS):
        self.dim = len(constants)
        r = range(self.dim)
        self.c = [[list(constants[i][j]) for j in r] for i in r]
        self.brackets = [[[(k, v) for k, v in enumerate(self.c[i][j]) if v != 0]
                          for j in r] for i in r]
        self.labels = list(labels) if labels else [f"X{i+1}" for i in range(self.dim)]
        if check:
            self._check_antisymmetry(tol)
            if not check_jacobi(self, tol=tol):
                raise ValueError("structure constants violate the Jacobi identity")

    @classmethod
    def from_sparse(cls, dim, triples, labels=None, check=True, tol=EPS):
        """Build from entries (i, j, k, value) given for i < j only."""
        c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, v in triples:
            if i == j:
                raise ValueError(f"diagonal bracket entry [{i},{i}]")
            c[i][j][k] = c[i][j][k] + v
            c[j][i][k] = c[j][i][k] - v
        return cls(c, labels=labels, check=check, tol=tol)

    @classmethod
    def from_matrices(cls, basis, labels=None):
        """The algebra spanned by the matrices ``basis`` under the commutator.

        Each [X_i, X_j] is rebuilt exactly from its coordinates in the
        basis (:func:`span_coordinates`), which raises when the bracket
        leaves the span; the antisymmetry and Jacobi checks then run on
        the constants as for any other algebra.
        """
        coordinates = span_coordinates(basis)
        dim = len(basis)
        triples = [(i, j, k, v) for i in range(dim) for j in range(i + 1, dim)
                   for k, v in enumerate(coordinates(
                       smallmat.commutator(basis[i], basis[j]))) if v != 0]
        return cls.from_sparse(dim, triples, labels=labels)

    def nonzero(self):
        """The nonzero constants as (i, j, k, c[i][j][k])."""
        for i, row in enumerate(self.brackets):
            for j, entries in enumerate(row):
                for k, v in entries:
                    yield i, j, k, v

    def _check_antisymmetry(self, tol):
        c = self.c
        if not all_zero([v + c[j][i][k] for i, j, k, v in self.nonzero()], tol):
            raise ValueError("structure constants are not antisymmetric")


def span_coordinates(basis):
    """The coordinate map of the span of the matrices ``basis``.

    The trace-form Gram matrix tr(A^t B) of the basis, the dot products of
    the flattened matrices, is inverted once.
    The returned function sends a matrix to its coordinates and raises
    ValueError when the coordinates do not rebuild the matrix exactly,
    i.e. when it lies outside the span.
    """
    flat = [[x for row in b for x in row] for b in basis]
    ginv = smallmat.inv(smallmat.mat_mul(flat, smallmat.transpose(flat)))
    # the basis matrices are sparse: keep each one's nonzero entries only
    support = [[(p, v) for p, v in enumerate(u) if v != 0] for u in flat]

    def coordinates(m):
        rest = [x for row in m for x in row]
        x = smallmat.mat_vec(ginv, [sum(v * rest[p] for p, v in u)
                                    for u in support])
        for xk, u in zip(x, support):
            if xk != 0:
                for p, v in u:
                    rest[p] = rest[p] - xk * v
        if not all_zero(rest):
            raise ValueError("matrix is outside the span of the basis")
        return x

    return coordinates


def su2_sum(i, coeffs):
    """c_1 X_i (+) ... (+) c_k X_i in su(2)^k, a block-diagonal 3k x 3k matrix.

    X_i = -L_i for the so(3) generators (L_i)_jk = -eps_ijk, so
    [X_i, X_j] = -eps_ijk X_k: the sign of the cyclic co-frame
    d e_i = e_{i+1} ^ e_{i+2}.
    """
    j, k = (i + 1) % 3, (i + 2) % 3
    out = [[0] * (3 * len(coeffs)) for _ in range(3 * len(coeffs))]
    for s, c in enumerate(coeffs):
        out[3 * s + j][3 * s + k] = c
        out[3 * s + k][3 * s + j] = -c
    return out


def bilinear_apply(table, x, y):
    """sum_ij x_i y_j table[i][j]: the bilinear map of a table of vectors.

    ``table[i][j]`` is the image of the basis pair (i, j): structure
    constants, a bracket projection, a Nomizu operator or the torsion eta.
    Zero coefficients of x, y and the table are skipped.
    """
    out = [0] * (len(table[0][0]) if table else 0)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = table[i]
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            coef = xi * yj
            for k, w in enumerate(row[j]):
                if w != 0:
                    out[k] = out[k] + coef * w
    return out


def _mvec(n, i):
    """The i-th standard basis vector of length n."""
    v = [0] * n
    v[i] = 1
    return v


def check_jacobi(L, tol=EPS):
    """True iff [[X,Y],Z] + [[Y,Z],X] + [[Z,X],Y] = 0 on all basis triples.

    [[X_a, X_b], X_z] = sum c_ab^l c_lz^w X_w, over nonzero constants only.
    """
    d, br = L.dim, L.brackets
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                total = {}
                for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, u in br[a][b]:
                        for w, v in br[l][z]:
                            total[w] = total.get(w, 0) + u * v
                if not all_zero(list(total.values()), tol):
                    return False
    return True


def _compile(entries):
    """The :func:`scalars.bilinear` (rows, first operand) of the map of summed
    {(out, in): coefficient}: its coefficients, by input, lifted once."""
    terms = sorted((i, o, c) for (o, i), c in entries.items() if c != 0)
    return [[(i, o, 1)] for i, o, _ in terms], lift([c for *_, c in terms])


class ReductiveSpace:
    """g = h (+) m along basis indices, with Ad(H)-invariance at bracket level.

    The invariant differential and the invariance tests of k-forms, metrics
    and endomorphisms are fixed sparse linear maps of the space; each is
    compiled on first use and kept on the instance (:meth:`compiled`).
    """

    def __init__(self, algebra, h_indices, m_indices, check=True):
        self.algebra = algebra
        self.h_idx = list(h_indices)
        self.m_idx = list(m_indices)
        if sorted(self.h_idx + self.m_idx) != list(range(algebra.dim)):
            raise ValueError("h and m indices must partition the basis")
        self.dim_h = len(self.h_idx)
        self.dim_m = len(self.m_idx)
        self._compiled = {}
        if check:
            self._check_reductive()
        self._tables()

    def _tables(self):
        nm, nh = self.dim_m, self.dim_h
        m_pos = {g: p for p, g in enumerate(self.m_idx)}
        h_pos = {g: p for p, g in enumerate(self.h_idx)}
        # m x m brackets split into m- and h-components
        self.bm = [[[0] * nm for _ in range(nm)] for _ in range(nm)]
        self.bh = [[[0] * nh for _ in range(nm)] for _ in range(nm)]
        # ad of the h-basis on m as column-action matrices:
        # ad(H_h) X_a = sum_b ad_h[h][b][a] X_b
        self.ad_h = [[[0] * nm for _ in range(nm)] for _ in range(nh)]
        for i, j, k, v in self.algebra.nonzero():
            if i in m_pos and j in m_pos:
                a, b = m_pos[i], m_pos[j]
                if k in m_pos:
                    self.bm[a][b][m_pos[k]] = v
                else:
                    self.bh[a][b][h_pos[k]] = v
            elif i in h_pos and j in m_pos and k in m_pos:
                self.ad_h[h_pos[i]][m_pos[k]][m_pos[j]] = v

    def _check_reductive(self):
        h = set(self.h_idx)
        for i, j, k, _ in self.algebra.nonzero():
            if i in h and j in h and k not in h:
                raise ValueError("[h,h] is not contained in h")
            if i in h and j not in h and k in h:
                raise ValueError("[h,m] is not contained in m")

    def ad_h_action(self, h_coeffs):
        """Matrix of ad(sum h_i H_i) acting on m."""
        r = range(self.dim_m)
        return [[sum(c * m[a][b] for c, m in zip(h_coeffs, self.ad_h) if c != 0)
                 for b in r] for a in r]

    def compiled(self, build, k):
        """The linear map ``build(self, k)`` (on k-forms, say), compiled once."""
        if (build, k) not in self._compiled:
            self._compiled[build, k] = build(self, k)
        return self._compiled[build, k]


def _differential_table(space, k):
    """Columns of d: k-forms -> (k+1)-forms, for :func:`ce_differential`.

    (d a)(X_0..X_k) = sum_{a<b} (-1)^{a+b} a([X_a,X_b]_m, X_0..^a..^b..X_k)
    on each increasing output index; every term is sorted to its input
    position once, here.
    """
    n = space.dim_m
    _, pos_in = index_tuples(n, k)
    tuples, pos_out = index_tuples(n, k + 1)
    entries = {}
    for t_out in tuples:
        o = pos_out[t_out]
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                w = space.bm[t_out[a]][t_out[b]]
                rest = t_out[:a] + t_out[a + 1:b] + t_out[b + 1:]
                sgn = -1 if (a + b) % 2 else 1
                for s in range(n):
                    if w[s] == 0:
                        continue
                    sign, t_in = sort_index((s,) + rest)
                    if sign:
                        key = (o, pos_in[t_in])
                        entries[key] = entries.get(key, 0) + sign * sgn * w[s]
    return _compile(entries)


def _invariance_table(space, k):
    """Columns of a -> (ad(H_h) . a) for every h-basis element H_h.

    Output position h * C(n, k) + p is the coefficient at the p-th index
    of sum over slots of a(.., ad(H_h) X_slot, ..), for :func:`is_invariant`.
    """
    n = space.dim_m
    tuples, pos = index_tuples(n, k)
    entries = {}
    for h, mat in enumerate(space.ad_h):
        for idx in tuples:
            o = h * len(tuples) + pos[idx]
            for slot in range(k):
                for s in range(n):
                    coef = mat[s][idx[slot]]
                    if coef == 0:
                        continue
                    sign, t_in = sort_index(idx[:slot] + (s,) + idx[slot + 1:])
                    if sign:
                        key = (o, pos[t_in])
                        entries[key] = entries.get(key, 0) + sign * coef
    return _compile(entries)


def tensor_invariance(space, kind):
    """{(out, in): coefficient} of the map T -> ad(H_h)^t T + T ad(H_h)
    (``kind`` "metric") or ad(H_h) T - T ad(H_h) ("endo") on matrices T of m,
    for every h-basis element H_h: out = (h n + i) n + k for entry (i, k)."""
    n, r = space.dim_m, range(space.dim_m)
    metric = kind == "metric"
    entries = {}
    for h, ad in enumerate(space.ad_h):
        o = h * n * n
        for a, b in itertools.product(r, r):
            v = ad[a][b]
            if v == 0:
                continue
            i, s = (b, a) if metric else (a, b)   # v is ad^t or ad at [i][s]
            for k in r:   # v T[s][k] at (i, k), T[k][a] v at (k, b)
                for key, c in (((o + i * n + k, s * n + k), v),
                               ((o + k * n + b, k * n + a), v if metric else -v)):
                    entries[key] = entries[key] + c if key in entries else c
    return entries


def _tensor_invariance_table(space, kind):
    return _compile(tensor_invariance(space, kind))


# ---------------------------------------------------------------------------
def is_invariant(space, alpha, tol=EPS):
    """True iff the form on m is annihilated by every ad(h), h in h."""
    n = space.dim_m
    if alpha.n != n:
        raise ValueError("form dimension does not match dim m")
    size = space.dim_h * len(alpha.c)
    table = space.compiled(_invariance_table, alpha.k)
    return lattice_zero(bilinear(*table, alpha.lattice(), size), tol)


def _is_invariant_tensor(space, kind, t, tol):
    table = space.compiled(_tensor_invariance_table, kind)
    flat = lift([x for row in t for x in row])
    return lattice_zero(bilinear(*table, flat, space.dim_h * len(flat[0])), tol)


def is_invariant_endo(space, J, tol=EPS):
    """True iff the endomorphism of m commutes with every ad(h)."""
    return _is_invariant_tensor(space, "endo", J, tol)


def is_invariant_metric(space, g, tol=EPS):
    """g([h,X],Y) + g(X,[h,Y]) = 0 for all basis h, X, Y."""
    return _is_invariant_tensor(space, "metric", g, tol)


def ce_differential(space, alpha, tol=EPS, check_invariance=True):
    """Differential of an invariant form on the homogeneous space.

    (d a)(X_0..X_p) = sum_{i<j} (-1)^{i+j} a([X_i,X_j]_m, X_0..^i..^j..X_p).
    The sign convention is pinned by the cyclic co-frame requirement
    d e_1 = e_2 ^ e_3 on the S^3 x S^3 model algebra.  The map is the
    space's compiled :func:`_differential_table`.
    """
    n = space.dim_m
    if check_invariance and not is_invariant(space, alpha, tol=tol):
        raise NotInvariant("form is not h-invariant")
    size = len(index_tuples(n, alpha.k + 1)[0])
    return KForm(n, alpha.k + 1,
                 lattice=bilinear(*space.compiled(_differential_table, alpha.k),
                                  alpha.lattice(), size))


# ---------------------------------------------------------------------------
def nomizu_levi_civita(space, g, tol=EPS):
    """Levi-Civita connection of an invariant metric, as the Nomizu operator.

    Returns Gamma with Gamma[i][j] the m-vector of the covariant derivative
    of X_j along X_i at the base point:
        Gamma(X,Y) = [X,Y]_m / 2 + U(X,Y),
        2 g(U(X,Y), Z) = g([Z,X]_m, Y) + g(X, [Z,Y]_m),
    i.e. the Koszul table of :func:`_koszul` raised by g^-1.
    """
    koszul = _koszul(space, g, tol)
    ginv = smallmat.inv(g)
    return [_mat_vecs(ginv, row) for row in koszul]


def _koszul(space, g, tol):
    """The lowered Levi-Civita table G[i][j][z] = g(nabla_i X_j, X_z).

    By Nomizu's formula G[i][j][z] = (gb[i][j][z] + gb[z][i][j]
    + gb[z][j][i]) / 2 with gb the lowered brackets of :func:`_g_brackets`.
    Raises unless g is h-invariant.
    """
    if not is_invariant_metric(space, g, tol=tol):
        raise ValueError("metric is not h-invariant")
    n = space.dim_m
    half = scalar_like(g, Fraction(1, 2))
    gb = _g_brackets(space, g)
    # only entries with a nonzero term are computed; the rest are 0
    support = {t for a, row in enumerate(gb) for b, vec in enumerate(row)
               for c, v in enumerate(vec) if v != 0
               for t in ((a, b, c), (b, c, a), (c, b, a))}
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, z in support:
        table[i][j][z] = half * (gb[i][j][z] + gb[z][i][j] + gb[z][j][i])
    return table


def _g_brackets(space, g):
    """The table g [X_i, X_j]_m of lowered bracket projections."""
    n = space.dim_m
    rows = _mat_vecs(g, [v for row in space.bm for v in row])
    return [rows[i * n:(i + 1) * n] for i in range(n)]


def _mat_vecs(a, vectors):
    """[a v for v in vectors] as one row-sparse product, each entry summed
    as ``smallmat.mat_vec`` sums it."""
    return smallmat.mat_mul(vectors, smallmat.transpose(a))


def _nomizu_matrix(gamma, x):
    """Matrix of Y -> Gamma(x, Y)."""
    n = len(gamma)
    return smallmat.transpose([bilinear_apply(gamma, x, _mvec(n, j)) for j in range(n)])


def _nabla_j(gamma, J):
    """The matrices nabla_i J = [L_i, J], L_i the Nomizu matrix of X_i."""
    return [smallmat.commutator(smallmat.transpose(gi), J) for gi in gamma]


def nearly_kahler_residual(space, g, J, tol=EPS):
    """The defining identity (nabla_X J) X = 0, proved by polarisation.

    Checks the preconditions (J^2 = -Id, orthogonality, invariance) and
    reports them distinctly.  X -> (nabla_X J) X is quadratic, so it
    vanishes iff its polarisation does on the basis pairs i <= j:
    (nabla_i J) X_j + (nabla_j J) X_i = 0.  The polarisation is formed
    lowered, from the Koszul table G of :func:`_koszul`: since J is
    g-orthogonal with J^2 = -Id, g(J u, w) = -g(u, J w), so
        g((nabla_i J) X_j, X_z) = sum_s J_sj G[i][s][z] + sum_s J_sz G[i][j][s],
    one lattice product (:func:`scalars.bilinear`) of J, twice, with G,
    each sum in increasing s.  The 21 lowered vectors are raised by
    g^-1 for the verdict and the residual: on exact data an exact zero
    test (g^-1 is invertible, so it decides the lowered vectors alike), on
    floats a comparison with ``tol``.  Returns (ok, residual), the
    residual being the largest coefficient of the raised vectors.
    """
    n = space.dim_m
    j2 = smallmat.mat_mul(J, J)
    if not all_zero(smallmat.mat_add(j2, smallmat.identity(n, scalar_like(J))), tol):
        raise ValueError("J^2 differs from -Id")
    jgj = smallmat.mat_mul(smallmat.transpose(J), smallmat.mat_mul(g, J))
    if not all_zero(smallmat.mat_sub(jgj, g), tol):
        raise ValueError("J is not orthogonal for g")
    if not is_invariant_endo(space, J, tol=tol):
        raise ValueError("J is not an invariant tensor")
    koszul = lift([v for row in _koszul(space, g, tol) for vec in row for v in vec])
    ginv = smallmat.inv(g)
    r = range(n)
    rows = kernel_rows(("nabla J", n), lambda: [   # J_sj G[i][s][z], J_sz G[i][j][s]
        [((i * n + s) * n + z, (i * n + j) * n + z, 1) for i in r for z in r]
        for s in r for j in r] + [
        [((i * n + j) * n + s, (i * n + j) * n + z, 1) for i in r for j in r]
        for s in r for z in r])
    twice = lift([x for row in J for x in row] * 2)
    flat = lower(bilinear(rows, twice, koszul, n ** 3))
    low = [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in r] for i in r]
    polar = [smallmat.vec_add(low[i][j], low[j][i])
             for i in range(n) for j in range(i, n)]
    raised = _mat_vecs(ginv, polar)
    return all_zero(raised, tol), _max_vec(*raised)


def intrinsic_eta(space, g, J, tol=EPS):
    """Torsion of the canonical Hermitian connection:  eta_X = J (nabla_X J)/2.

    Returns eta[i][j] = the m-vector eta_{X_i} X_j.
    """
    return _eta(nomizu_levi_civita(space, g, tol=tol), J)


def _eta(gamma, J):
    """eta[i][j] = J (nabla_i J) X_j / 2 from the Nomizu operator gamma."""
    n = len(gamma)
    half = scalar_like(gamma, Fraction(1, 2))
    eta = [[None] * n for _ in range(n)]
    for i, d in enumerate(_nabla_j(gamma, J)):
        jd = smallmat.mat_mul(J, d)
        for j in range(n):
            eta[i][j] = [half * jd[r][j] for r in range(n)]
    return eta


def eta_total_skew_residual(g, eta):
    """Max deviation of (X,Y,Z) -> g(eta_X Y, Z) from total skew-symmetry."""
    r = range(len(eta))
    t = [[smallmat.mat_vec(g, eta[i][j]) for j in r] for i in r]
    return _max_vec([t[i][j][k] + t[j][i][k] for i in r for j in r for k in r],
                    [t[i][j][k] + t[i][k][j] for i in r for j in r for k in r])


def eta_parallel_residual(space, g, J, tol=EPS):
    """Max coefficient of the canonical-connection derivative of eta.

    The canonical Hermitian connection is nabla - eta; its torsion eta is
    parallel exactly on nearly Kahler structures.
    """
    gamma = nomizu_levi_civita(space, g, tol=tol)
    eta = _eta(gamma, J)
    n = space.dim_m
    gbar = [[smallmat.vec_sub(gamma[i][j], eta[i][j]) for j in range(n)]
            for i in range(n)]
    worst = 0.0
    for w in range(n):
        lam = _nomizu_matrix(gbar, _mvec(n, w))
        for i in range(n):
            for j in range(n):
                term = smallmat.mat_vec(lam, eta[i][j])
                lx = smallmat.mat_vec(lam, _mvec(n, i))
                ly = smallmat.mat_vec(lam, _mvec(n, j))
                e_lx = bilinear_apply(eta, lx, _mvec(n, j))
                e_ly = bilinear_apply(eta, _mvec(n, i), ly)
                resid = smallmat.vec_sub(smallmat.vec_sub(term, e_lx), e_ly)
                worst = max(worst, max(abs(float(r)) for r in resid))
    return worst


def normal_torsion_curvature(space):
    """Torsion and curvature of the normal connection, as bracket projections.

    T(X,Y) = -[X,Y]_m (m-valued), R_{X,Y} = [X,Y]_h (h-valued).
    """
    n = space.dim_m
    t = [[[-c for c in space.bm[i][j]] for j in range(n)] for i in range(n)]
    r = [[list(space.bh[i][j]) for j in range(n)] for i in range(n)]
    return t, r


def natural_reductivity_defect(space, g):
    """g([X,Y]_m, Z) + g([X,Z]_m, Y) over all basis triples, linear in g."""
    n = space.dim_m
    gb = _g_brackets(space, g)
    return [gb[i][j][k] + gb[i][k][j]
            for i in range(n) for j in range(n) for k in range(n)]


def is_naturally_reductive(space, g, tol=EPS):
    """g([X,Y]_m, Z) = -g([X,Z]_m, Y) over all basis triples."""
    return all_zero(natural_reductivity_defect(space, g), tol)


# ---------------------------------------------------------------------------
def _cplx_pair_bracket(space, u, v, s, t):
    """Full bracket of (u + i v) and (s + i t), m-vectors, split parts.

    Returns ((re_m, im_m), (re_h, im_h)).
    """
    bm, bh = space.bm, space.bh
    re_m = smallmat.vec_sub(bilinear_apply(bm, u, s), bilinear_apply(bm, v, t))
    im_m = smallmat.vec_add(bilinear_apply(bm, u, t), bilinear_apply(bm, v, s))
    re_h = smallmat.vec_sub(bilinear_apply(bh, u, s), bilinear_apply(bh, v, t))
    im_h = smallmat.vec_add(bilinear_apply(bh, u, t), bilinear_apply(bh, v, s))
    return (re_m, im_m), (re_h, im_h)


def _max_vec(*vecs):
    return max((abs(float(x)) for v in vecs for x in v), default=0.0)


def _plus_brackets(space, J):
    """[w_i, w_j] for w_i = X_i + i J X_i, over all basis pairs (i, j).

    Yields (x, jx, y, jy, ((re_m, im_m), (re_h, im_h))) with x = X_i and
    y = X_j.  The brackets of m- = conj(m+) are the conjugates of these,
    so they add no condition.
    """
    n = space.dim_m
    cols = smallmat.transpose(J)
    for i in range(n):
        for j in range(n):
            x, y = _mvec(n, i), _mvec(n, j)
            yield x, cols[i], y, cols[j], _cplx_pair_bracket(
                space, x, cols[i], y, cols[j])


def _eigen_parts(J, a, b):
    """The m+ and m- parts of A + iB, each as (re, im), up to a factor 1/2."""
    ja, jb = smallmat.transpose(smallmat.mat_mul(J, smallmat.transpose([a, b])))
    return ((smallmat.vec_sub(a, jb), smallmat.vec_add(b, ja)),
            (smallmat.vec_add(a, jb), smallmat.vec_sub(b, ja)))


def check_3symmetric(space, J, tol=EPS):
    """Eigenspace bracket conditions of an order-3 splitting.

    With m+ spanned by X + i J X over the basis, verifies
    [m+, m+] c m-,  [m-, m-] c m+ (its conjugate),  [m+, m-] c complexified
    h, entirely in real arithmetic.  Raises unless J^2 = -Id.
    """
    n = space.dim_m
    j2 = smallmat.mat_mul(J, J)
    if not all_zero(smallmat.mat_add(j2, smallmat.identity(n, scalar_like(J))), tol):
        raise ValueError("J^2 differs from -Id")
    defects = []
    for x, jx, y, jy, ((am, bm), h_part) in _plus_brackets(space, J):
        plus, _ = _eigen_parts(J, am, bm)
        mixed, _ = _cplx_pair_bracket(space, x, jx, y, [-c for c in jy])
        defects += [*h_part, *plus, *mixed]
    return all_zero(defects, tol)


def is_complex_subalgebra(space, J, tol=EPS):
    """True iff m+ = span{X + i J X} is closed under bracket mod h (x) C.

    Closure of the (1,0)-distribution characterizes the integrable invariant
    almost complex structures.
    """
    defects = []
    for *_, ((am, bm), _) in _plus_brackets(space, J):
        defects += _eigen_parts(J, am, bm)[1]
    return all_zero(defects, tol)


def acs_from_automorphism(S, tol=EPS):
    """Almost complex structure of an order-3 symmetry:  J = (2 S + Id)/sqrt 3.

    Requires S^3 = Id with 1 not an eigenvalue; the returned J satisfies
    J^2 = -Id (exactly over Q(sqrt 3) for exact S).
    """
    n = len(S)
    eye = smallmat.identity(n, scalar_like(S))
    s3 = smallmat.mat_mul(S, smallmat.mat_mul(S, S))
    if not all_zero(smallmat.mat_sub(s3, eye), tol):
        raise ValueError("S^3 differs from the identity")
    if is_zero(smallmat.det(smallmat.mat_sub(S, eye)), tol):
        raise HasFixedVector("1 is an eigenvalue of S")
    coef = 2 / sqrt_scalar(scalar_like(S, 3))
    half = scalar_like(S, Fraction(1, 2))
    J = [[coef * (S[i][j] + (half if i == j else 0)) for j in range(n)]
         for i in range(n)]
    if not all_zero(smallmat.mat_add(smallmat.mat_mul(J, J), eye), tol):
        raise ValueError("derived J does not square to -Id")
    return J


# ---------------------------------------------------------------------------
def curvature_operator(space, gamma, i, j):
    """R(X_i, X_j) as a matrix on m.

    R(X,Y) = [Lambda(X), Lambda(Y)] - Lambda([X,Y]_m) - ad([X,Y]_h),
    the curvature of the invariant connection with Nomizu operator Lambda.
    """
    n = space.dim_m
    li = _nomizu_matrix(gamma, _mvec(n, i))
    lj = _nomizu_matrix(gamma, _mvec(n, j))
    out = smallmat.mat_sub(smallmat.commutator(li, lj),
                           _nomizu_matrix(gamma, space.bm[i][j]))
    out = smallmat.mat_sub(out, space.ad_h_action(space.bh[i][j]))
    return out


def ricci(space, g, tol=EPS):
    """Ricci tensor of an invariant metric plus the Einstein verdict.

    Returns (ric, scal, einstein_ok, max_rel_dev): einstein_ok is the check
    Ric = (scal / dim m) g, exact on exact data and at relative tolerance
    ``tol`` on floats; max_rel_dev is max |Ric - (scal / dim m) g| / max |Ric|.
    """
    gamma = nomizu_levi_civita(space, g, tol=tol)
    n = space.dim_m
    # Ric_jk = sum_i R(X_i, X_j)_ik, with R(X_i, X_j) = -R(X_j, X_i)
    ops = {(i, j): curvature_operator(space, gamma, i, j)
           for i in range(n) for j in range(i + 1, n)}
    ric = [[sum(ops[i, j][i][k] if i < j else -ops[j, i][i][k]
                for i in range(n) if i != j) for k in range(n)] for j in range(n)]
    ginv = smallmat.inv(g)
    scal = smallmat.trace(smallmat.mat_mul(ginv, ric))
    lam = exact_div(scal, n)
    diff = smallmat.mat_sub(ric, smallmat.mat_scale(lam, g))
    scale = smallmat.mat_max_abs(ric)
    rel = smallmat.mat_max_abs(diff) / max(scale, 1e-30)
    return ric, scal, all_zero(diff, tol * scale), rel
