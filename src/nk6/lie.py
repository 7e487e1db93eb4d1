"""Lie algebras by structure constants and reductive homogeneous geometry.

A homogeneous space enters as a Lie algebra g with a distinguished index
splitting g = h (+) m satisfying [h,h] c h and [h,m] c m.  Invariant
tensors on the space are constant tensors on m; this module evaluates the
invariant-form differential, the Levi-Civita connection via Nomizu's
formula, the canonical Hermitian connection and its torsion, the normal
connection, order-3 symmetries and their almost complex structures, and
curvature/Ricci.

The connection layer runs on matrices: the bracket maps [X_i, .] projected
to m and h, the Nomizu matrices L_i of nabla_{X_i} and the torsion matrices
E_i of eta_{X_i}.  Curvature, the derivative of eta and the eigenspace
brackets of J are products of these (``smallmat.mat_mul``, and
``smallmat.mat_combinations`` for sums sum_k c_k M_k), all through the one
kernel :func:`scalars.bilinear`.  One compiled Koszul map per space gives
the lowered Levi-Civita table, from which the nabla J verdict is read on
the lowered vectors once g is proved invertible.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import smallmat
from .exterior import KForm, index_tuples, sort_index
from .scalars import (
    EPS, bilinear, exact_div, is_exact, is_positive, is_zero, kernel_rows,
    lattice_exact, lattice_max_abs, lattice_sum, lattice_zero, lift, lower,
    scaled_tol, sqrt_scalar, times)


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
        defect = [v + c[j][i][k] for i, j, k, v in self.nonzero()]
        if not lattice_zero(lift(defect), tol):
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
        if not lattice_zero(lift(rest)):
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
                if not lattice_zero(lift(list(total.values())), tol):
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

    def __init__(self, algebra, h_indices, m_indices):
        self.algebra = algebra
        self.h_idx = list(h_indices)
        self.m_idx = list(m_indices)
        if sorted(self.h_idx + self.m_idx) != list(range(algebra.dim)):
            raise ValueError("h and m indices must partition the basis")
        self.dim_h = len(self.h_idx)
        self.dim_m = len(self.m_idx)
        self._compiled = {}
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


def _invariant_kernel(space, build, k, size):
    """The nullspace of the compiled invariance map ``build(space, k)`` on
    vectors of ``size`` entries; when h = 0 its matrix has no rows."""
    rows, coefs = space.compiled(build, k)
    matrix = [[0] * size for _ in range(space.dim_h * size)]
    for [(i, o, _)], c in zip(rows, lower(coefs)):
        matrix[o][i] = c
    return smallmat.nullspace(matrix, ncols=size)


def invariant_forms(space, k):
    """A basis of the invariant k-forms on m."""
    size = len(index_tuples(space.dim_m, k)[0])
    return [KForm(space.dim_m, k, v)
            for v in _invariant_kernel(space, _invariance_table, k, size)]


def isotropy_commutant(space):
    """A basis of the endomorphisms of m that commute with every ad(h)."""
    n = space.dim_m
    return [smallmat.unflatten(v, n, n) for v in
            _invariant_kernel(space, _tensor_invariance_table, "endo", n * n)]


def _tensor_invariance_table(space, kind):
    """The compiled map T -> ad(H_h)^t T + T ad(H_h) (``kind`` "metric") or
    ad(H_h) T - T ad(H_h) ("endo") on matrices T of m, for every h-basis
    element H_h: out = (h n + i) n + k for entry (i, k)."""
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
    return _compile(entries)


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
    return lattice_zero(bilinear(*table, smallmat.mat_lattice(t),
                                 space.dim_h * space.dim_m ** 2), tol)


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
    i.e. the Koszul table of :func:`_koszul` raised by g^-1, in one product.
    """
    n = space.dim_m
    koszul = _koszul(space, smallmat.mat_lattice(g), tol)
    ginv_t = smallmat.mat_lattice(smallmat.transpose(smallmat.inv(g)))
    flat = lower(smallmat.lattice_mul(koszul, ginv_t, n * n, n, n))
    return [smallmat.unflatten(row, n, n) for row in smallmat.unflatten(flat, n, n * n)]


def _koszul_table(space, _):
    """The map g -> G of :func:`_koszul`: by Nomizu's formula G[i][j][z] =
    (gb[i][j][z] + gb[z][i][j] + gb[z][j][i]) / 2 with the lowered brackets
    gb[a][b][c] = sum_s g[c][s] bm[a][b][s]."""
    n, r = space.dim_m, range(space.dim_m)
    entries = {}
    for a, b in itertools.product(r, r):
        for s, v in enumerate(space.bm[a][b]):
            if v != 0:
                for c in r:
                    for i, j, z in ((a, b, c), (b, c, a), (c, b, a)):
                        key = ((i * n + j) * n + z, c * n + s)
                        entries[key] = entries.get(key, 0) + v * Fraction(1, 2)
    return _compile(entries)


def _koszul(space, g, tol):
    """The lattice of the lowered Levi-Civita table G[i][j][z] = g(nabla_i X_j,
    X_z) from that of g, by :func:`_koszul_table`.  Raises unless g is
    h-invariant."""
    if not is_invariant_metric(space, g, tol=tol):
        raise ValueError("metric is not h-invariant")
    return bilinear(*space.compiled(_koszul_table, None), g, space.dim_m ** 3)


def _lowered(g, table):
    """The table g table[i][j] of lowered vectors, in one product."""
    n = len(table)
    rows = smallmat.mat_mul([v for row in table for v in row], smallmat.transpose(g))
    return [rows[i * n:(i + 1) * n] for i in range(n)]


def _maps(table):
    """The matrices table[i]^t of Y -> table(X_i, Y) for a table of vectors
    (brackets, a Nomizu operator, the torsion eta), one per basis vector."""
    return [smallmat.transpose(t) for t in table]


def nearly_kahler_residual(space, g, J, tol=EPS):
    """The defining identity (nabla_X J) X = 0, proved by polarisation.

    It is homogeneous in J, so ``J`` may be any K = kappa J, kappa > 0: it
    is decided on K and quoted for J.  Checks the preconditions (K^2 =
    -kappa^2 Id, orthogonality, invariance) and reports them distinctly.
    X -> (nabla_X J) X is quadratic, so it vanishes iff its polarisation
    does on the basis pairs i <= j: (nabla_i J) X_j + (nabla_j J) X_i = 0.
    The polarisation is formed lowered, from the Koszul table G of
    :func:`_koszul`: since J is g-antisymmetric, g(J u, w) = -g(u, J w), so
        g((nabla_i J) X_j, X_z) = sum_s J_sj G[i][s][z] + sum_s J_sz G[i][j][s],
    the 21 lowered vectors are one lattice product of J with G, (i, j) and
    (j, i) added in its table.  g is proved invertible first by its
    determinant, with no inverse (a singular g fails with ``matrix is
    singular``), so exact lowered vectors that are all zero give (True,
    0.0); otherwise they are raised by g^-1, and (ok, residual) is decided
    on them, exactly or at ``tol`` on floats, with the largest coefficient.
    """
    n = space.dim_m
    mul = lambda x, y, rows=n: smallmat.lattice_mul(x, y, rows, n, n)
    Jl, gl = smallmat.mat_lattice(J), smallmat.mat_lattice(g)
    J2 = mul(Jl, Jl)
    t = lower((J2[0][:1], J2[1]))[0]   # -kappa^2
    if not (is_positive(-t) and smallmat.is_scalar_matrix(J2, t, scaled_tol(tol, J2))):
        raise ValueError("J^2 is not a negative multiple of the identity")
    jgj = mul(smallmat.lattice_transpose(Jl, n), mul(gl, Jl))
    if not lattice_zero(lattice_sum(jgj, times(t, gl)), scaled_tol(tol, Jl, Jl, gl)):
        raise ValueError("J is not orthogonal for g")
    if not is_invariant_endo(space, Jl, tol=tol):
        raise ValueError("J is not an invariant tensor")
    koszul = _koszul(space, gl, tol)
    if smallmat.det(g) == 0:
        raise smallmat.SingularMatrix("matrix is singular")
    r, pairs = range(n), [(i, j) for i in range(n) for j in range(i, n)]
    out = lambda i, j, z: pairs.index((min(i, j), max(i, j))) * n + z
    # J_st G[i][s][z], J_st G[i][j][s]; a diagonal pair (i, i) takes its
    # term twice, as (i, j) and (j, i) do once each
    rows = kernel_rows(("nabla J", n), lambda: [
        [((i * n + s) * n + z, out(i, t, z), 1) for i in r for z in r
         for _ in range(1 + (i == t))]
        + [((i * n + j) * n + s, out(i, j, t), 1) for i in r for j in r
           for _ in range(1 + (i == j))]
        for s in r for t in r])
    polar = bilinear(rows, Jl, koszul, len(pairs) * n)
    if lattice_exact(polar) and lattice_zero(polar):
        return True, 0.0
    ginv_t = smallmat.transpose(smallmat.inv(g))
    raised = mul(polar, smallmat.mat_lattice(ginv_t), len(pairs))
    kappa = sqrt_scalar(-t)
    if lattice_exact(raised) and not is_exact(kappa):   # decided on K
        return lattice_zero(raised), lattice_max_abs(raised) / kappa
    raised = times(exact_div(1, kappa), raised)
    return lattice_zero(raised, tol), lattice_max_abs(raised)


def intrinsic_eta(space, g, J, tol=EPS):
    """Torsion of the canonical Hermitian connection:  eta_X = J (nabla_X J)/2.

    Returns eta[i][j] = the m-vector eta_{X_i} X_j.
    """
    L = _maps(nomizu_levi_civita(space, g, tol=tol))
    return [smallmat.transpose(e) for e in _torsion(L, J)]


def _torsion(L, J):
    """The torsion matrices E_i = J [L_i, J] / 2 of eta_{X_i}, from the
    Nomizu matrices L_i (nabla_i J = [L_i, J])."""
    half = Fraction(1, 2)
    return [smallmat.mat_scale(half, smallmat.mat_mul(J, smallmat.commutator(l, J)))
            for l in L]


def eta_total_skew_residual(g, eta):
    """Max deviation of (X,Y,Z) -> g(eta_X Y, Z) from total skew-symmetry."""
    r = range(len(eta))
    t = _lowered(g, eta)
    return smallmat.mat_max_abs(
        [[t[i][j][k] + t[j][i][k] for i in r for j in r for k in r],
         [t[i][j][k] + t[i][k][j] for i in r for j in r for k in r]])


def eta_parallel_residual(space, g, J, tol=EPS):
    """Max coefficient of the canonical-connection derivative of eta.

    The canonical Hermitian connection is nabla - eta; its torsion eta is
    parallel on nearly Kahler structures, and not only there (the flag
    metric (2, 1, 1) with the canonical J).  With Lambda_w = L_w - E_w
    (Nomizu and torsion matrices), the derivative along X_w of eta_{X_i} is
    [Lambda_w, E_i] - sum_k (Lambda_w)_ki E_k.
    """
    L = _maps(nomizu_levi_civita(space, g, tol=tol))
    E = _torsion(L, J)
    lam = [smallmat.mat_sub(l, e) for l, e in zip(L, E)]
    n = space.dim_m
    # sum_k (Lambda_w)_ki E_k at w n + i: the coefficients are the rows of
    # the transposed Lambda_w
    moved = smallmat.mat_combinations(
        [row for lw in lam for row in smallmat.transpose(lw)], E)
    defects = [smallmat.mat_sub(smallmat.commutator(lw, e), moved[w * n + i])
               for w, lw in enumerate(lam) for i, e in enumerate(E)]
    return smallmat.mat_max_abs([row for d in defects for row in d])


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
    gb = _lowered(g, space.bm)
    return [gb[i][j][k] + gb[i][k][j]
            for i in range(n) for j in range(n) for k in range(n)]


def is_naturally_reductive(space, g, tol=EPS):
    """g([X,Y]_m, Z) = -g([X,Z]_m, Y) over all basis triples."""
    return lattice_zero(lift(natural_reductivity_defect(space, g)), tol)


# ---------------------------------------------------------------------------
def _pair_brackets(table, J):
    """Per i, the brackets of w_i = X_i + i J X_i with w_j and with conj w_j,
    projected by ``table`` (``space.bm`` or ``space.bh``), as (re, im)
    matrices whose column j is the bracket with index j.  With
    P_i = [X_i, .] and PJ_i = [J X_i, .] = sum_k J_ki P_k they are
        [w_i, w_j] = P_i - PJ_i J + i (P_i J + PJ_i),
        [w_i, conj w_j] = P_i + PJ_i J + i (PJ_i - P_i J).
    The brackets of m- = conj(m+) are the conjugates of these, so they add
    no condition.
    """
    P = _maps(table)
    for p, pj in zip(P, smallmat.mat_combinations(smallmat.transpose(J), P)):
        p_j, pj_j = smallmat.mat_mul(p, J), smallmat.mat_mul(pj, J)
        yield ((smallmat.mat_sub(p, pj_j), smallmat.mat_add(p_j, pj)),
               (smallmat.mat_add(p, pj_j), smallmat.mat_sub(pj, p_j)))


def check_3symmetric(space, J, tol=EPS):
    """Eigenspace bracket conditions of an order-3 splitting.

    With m+ spanned by X + i J X over the basis, verifies
    [m+, m+] c m-,  [m-, m-] c m+ (its conjugate),  [m+, m-] c complexified
    h, entirely in real arithmetic.  Raises unless J^2 = -Id.
    """
    if not smallmat.is_scalar_matrix(smallmat.mat_mul(J, J), -1, tol):
        raise ValueError("J^2 differs from -Id")
    # [m+, m+] has no h part
    defects = [z for plus, _ in _pair_brackets(space.bh, J) for z in plus]
    for (re, im), mixed in _pair_brackets(space.bm, J):
        # nor an m+ part, re - J im + i (im + J re); [m+, m-] has no m part
        defects += [smallmat.mat_sub(re, smallmat.mat_mul(J, im)),
                    smallmat.mat_add(im, smallmat.mat_mul(J, re)), *mixed]
    return lattice_zero(lift([x for d in defects for row in d for x in row]), tol)


def is_complex_subalgebra(space, J, tol=EPS):
    """True iff m+ = span{X + i J X} is closed under bracket mod h (x) C.

    Closure of the (1,0)-distribution characterizes the integrable invariant
    almost complex structures.
    """
    defects = []
    for (re, im), _ in _pair_brackets(space.bm, J):
        # the m- part of [m+, m+], re + J im + i (im - J re), vanishes
        defects += [smallmat.mat_add(re, smallmat.mat_mul(J, im)),
                    smallmat.mat_sub(im, smallmat.mat_mul(J, re))]
    return lattice_zero(lift([x for d in defects for row in d for x in row]), tol)


def acs_from_automorphism(S, tol=EPS):
    """Almost complex structure of an order-3 symmetry:  J = (2 S + Id)/sqrt 3.

    Requires S^3 = Id with 1 not an eigenvalue; the returned J satisfies
    J^2 = -Id (exactly over Q(sqrt 3) for exact S).
    """
    n = len(S)
    s3 = smallmat.mat_mul(S, smallmat.mat_mul(S, S))
    if not smallmat.is_scalar_matrix(s3, 1, tol):
        raise ValueError("S^3 differs from the identity")
    if is_zero(smallmat.det(smallmat.mat_sub(S, smallmat.identity(n))), tol):
        raise HasFixedVector("1 is an eigenvalue of S")
    # a QSqrt3 times a float raises TypeError: float data take a float sqrt 3
    three, half = (3.0, 0.5) if smallmat.is_float_data(S) else (3, Fraction(1, 2))
    coef = 2 / sqrt_scalar(three)
    J = [[coef * (S[i][j] + (half if i == j else 0)) for j in range(n)]
         for i in range(n)]
    if not smallmat.is_scalar_matrix(smallmat.mat_mul(J, J), -1, tol):
        raise ValueError("derived J does not square to -Id")
    return J


# ---------------------------------------------------------------------------
def ricci(space, g, tol=EPS):
    """Ricci tensor of an invariant metric plus the Einstein verdict.

    Returns (ric, scal, einstein_ok, max_rel_dev): einstein_ok is the check
    Ric = (scal / dim m) g, exact on exact data and at relative tolerance
    ``tol`` on floats; max_rel_dev is max |Ric - (scal / dim m) g| / max |Ric|,
    and 0.0 when Ric = 0.
    """
    L = _maps(nomizu_levi_civita(space, g, tol=tol))
    n = space.dim_m
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # R(X_i, X_j) = [L_i, L_j] - L([X_i, X_j]_m) - ad([X_i, X_j]_h), the
    # curvature of the invariant connection with Nomizu matrices L_i
    lin = smallmat.mat_combinations(
        [space.bm[i][j] + space.bh[i][j] for i, j in pairs], L + space.ad_h)
    R = {(i, j): smallmat.mat_sub(smallmat.commutator(L[i], L[j]), m)
         for (i, j), m in zip(pairs, lin)}
    # Ric_jk = sum_i R(X_i, X_j)_ik, with R(X_i, X_j) = -R(X_j, X_i)
    ric = [[sum(R[i, j][i][k] if i < j else -R[j, i][i][k]
                for i in range(n) if i != j) for k in range(n)] for j in range(n)]
    ginv = smallmat.inv(g)
    scal = smallmat.trace(smallmat.mat_mul(ginv, ric))
    lam = exact_div(scal, n)
    diff = smallmat.mat_sub(ric, smallmat.mat_scale(lam, g))
    scale = smallmat.mat_max_abs(ric)
    rel = smallmat.mat_max_abs(diff) / scale if scale else 0.0
    return ric, scal, lattice_zero(smallmat.mat_lattice(diff), tol * scale), rel
