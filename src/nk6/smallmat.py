"""Small dense linear algebra over generic scalars.

Matrices are lists of row lists, vectors plain lists.  The same Gaussian
elimination serves exact scalars (pivot on any nonzero entry, arithmetic
stays exact) and floats (partial pivoting).  Products skip terms with a
zero factor, so sparse matrices cost only their nonzero entries.  Zero
tests follow the zero policy of :mod:`nk6.scalars`: scalars that are all
exact are compared with 0 exactly, otherwise by ``abs(float(x))`` against a
tolerance.  Dimensions never exceed a few dozen here, so nothing clever is
needed.  Positive definiteness is Sylvester's test, read off one
elimination without row swaps (:func:`is_positive_definite`).
"""

from __future__ import annotations

from .scalars import (
    EPS, all_zero, bilinear, exact_div, is_exact, is_positive, is_zero,
    kernel_rows, lattice_sum, lattice_zero, lift, lower, scalar_like, times)


class SingularMatrix(ValueError):
    pass


def identity(n, one=1):
    return [[one if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    """a b as lists: :func:`lattice_mul` of the matrices' lattices, lowered."""
    n, m, w = len(a), len(b), len(b[0]) if b else 0
    return unflatten(lower(lattice_mul(mat_lattice(a), mat_lattice(b), n, m, w)),
                      n, w)


def lattice_mul(x, y, n, m, w):
    """The lattice of a b from the lattices x of a (n x m) and y of b (m x w),
    flattened row by row: one :func:`scalars.bilinear` product.

    Each entry sums a[i][k] b[k][j] in increasing k, skipping every term
    with a zero factor: the matrices of the Lie layer are sparse, and a
    skipped term changes no value (an empty sum is the exact 0) and, on
    floats, at most the sign of a zero, so float results are bitwise those
    of the row-by-column products.  Non-finite entries, for which 0 * inf
    is NaN, are rejected by ``parse_space``.
    """
    rows = kernel_rows(("mat_mul", n, m, w), lambda: [
        [(k * w + j, i * w + j, 1) for j in range(w)]
        for i in range(n) for k in range(m)])
    return bilinear(rows, x, y, n * w)


def mat_lattice(a):
    """The lattice of a matrix, row by row; a lattice passes through."""
    return a if isinstance(a, tuple) else lift([x for row in a for x in row])


def lattice_transpose(x, n):
    """The lattice of the transpose of an n x n matrix from its lattice."""
    order = [i * n + j for j in range(n) for i in range(n)]
    return tuple(v and [v[k] for k in order] for v in x[:2]) + x[2:]


def unflatten(values, n, w):
    """The n x w matrix of a flat row-by-row list."""
    return [values[i * w:(i + 1) * w] for i in range(n)]


def mat_vec(a, v):
    """a v, the one-column case of :func:`mat_mul`."""
    return [row[0] for row in mat_mul(a, [[x] for x in v])] if v else [0] * len(a)


def vec_dot(u, v):
    """u . v, the one-entry case of :func:`mat_mul`."""
    return mat_vec([u], v)[0]


def vec_add(u, v):
    return [x + y for x, y in zip(u, v)]


def vec_sub(u, v):
    return [x - y for x, y in zip(u, v)]


def mat_add(a, b):
    return [vec_add(r, s) for r, s in zip(a, b)]


def mat_sub(a, b):
    return [vec_sub(r, s) for r, s in zip(a, b)]


def mat_scale(c, a):
    """c a, entrywise products in the integer lattice (:func:`scalars.times`)."""
    return unflatten(lower(times(c, mat_lattice(a))), len(a), len(a[0]) if a else 0)


def mat_combinations(coeffs, mats):
    """[sum_k c[k] mats[k] for c in coeffs] for matrices of one shape, which
    may have no rows: one :func:`mat_mul` of the coefficient rows with the
    flattened matrices."""
    rows, cols = len(mats[0]), len(mats[0][0]) if mats[0] else 0
    flat = mat_mul(coeffs, [[x for row in m for x in row] for m in mats])
    return [unflatten(v, rows, cols) for v in flat]


def is_scalar_matrix(m, c, tol=0.0):
    """Is m (a matrix or its lattice) c Id under the zero policy?  The entries
    m[i][j] - (c if i == j else 0) are tested, exact ones in integers."""
    x = mat_lattice(m)
    n = round(len(x[0]) ** 0.5)
    eye = [1 if i % (n + 1) == 0 else 0 for i in range(n * n)], None, 1
    return lattice_zero(lattice_sum(x, times(c, eye), -1), tol)


def commutator(a, b):
    """[a, b] = a b - b a, the bracket of every matrix Lie algebra here."""
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def trace(a):
    s = 0
    for i in range(len(a)):
        s = s + a[i][i]
    return s


def mat_max_abs(a):
    return max((abs(float(x)) for row in a for x in row), default=0.0)


def is_float_data(a):
    return not all(is_exact(x) for row in a for x in row)


def _pivot(m, col, start, float_mode, tol):
    """The pivot row of column ``col`` from row ``start`` on, or None: the
    largest entry on floats (unless zero at ``tol``), else the first nonzero."""
    if float_mode:
        best = max(range(start, len(m)), key=lambda r: abs(float(m[r][col])))
        return None if is_zero(m[best][col], tol) else best
    return next((r for r in range(start, len(m)) if m[r][col] != 0), None)


def _forward_eliminate(m, ncols, float_mode, tol):
    """Row-reduce in place; returns list of pivot column indices."""
    pivots = []
    row = 0
    nrows = len(m)
    for col in range(ncols):
        if row >= nrows:
            break
        best = _pivot(m, col, row, float_mode, tol)
        if best is None:
            continue
        m[row], m[best] = m[best], m[row]
        piv = m[row][col]
        m[row] = [exact_div(x, piv) for x in m[row]]
        for r in range(nrows):
            f = m[r][col]
            if r == row or f == 0 or float_mode and is_zero(f, tol):
                continue
            m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return pivots


def solve(a, b, tol=EPS):
    """Solve a x = b for square a; b a vector or a matrix of columns."""
    n = len(a)
    vector_rhs = not isinstance(b[0], list)
    rhs = [[x] for x in b] if vector_rhs else [list(r) for r in b]
    width = len(rhs[0])
    m = [list(a[i]) + rhs[i] for i in range(n)]
    float_mode = is_float_data(m)
    pivots = _forward_eliminate(m, n, float_mode, tol)
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular")
    sol = [row[n:] for row in m]
    if vector_rhs:
        return [row[0] for row in sol]
    return sol


def inv(a):
    return solve(a, identity(len(a), scalar_like(a)))


def det(a):
    n = len(a)
    m = [list(row) for row in a]
    float_mode = is_float_data(m)
    sign = 1
    out = 1
    for col in range(n):
        best = _pivot(m, col, col, float_mode, 0.0)
        if best is None:
            return 0 if not float_mode else 0.0
        if best != col:
            m[col], m[best] = m[best], m[col]
            sign = -sign
        piv = m[col][col]
        out = out * piv
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = exact_div(m[r][col], piv)
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return sign * out


def bareiss_det(a):
    """det of a square integer matrix by fraction-free (Bareiss) elimination:
    every division is exact, so each entry stays an integer (a minor of a)."""
    m, sign, prev = [list(row) for row in a], 1, 1
    for k in range(len(m)):
        best = next((r for r in range(k, len(m)) if m[r][k]), None)
        if best is None:
            return 0
        m[k], m[best], sign = m[best], m[k], sign if best == k else -sign
        top, piv = m[k], m[k][k]
        for r in range(k + 1, len(m)):
            m[r] = [(x * piv - m[r][k] * y) // prev for x, y in zip(m[r], top)]
        prev = piv
    return sign * prev


def solve_in_span(columns, target, tol=EPS):
    """Coordinates of ``target`` in the span of ``columns``.

    ``columns`` is a list of vectors (same length as ``target``).  Raises
    SingularMatrix when the system is inconsistent, i.e. the target is not
    in the span.
    """
    nrows = len(target)
    ncols = len(columns)
    m = [[columns[j][i] for j in range(ncols)] + [target[i]]
         for i in range(nrows)]
    float_mode = is_float_data(m)
    pivots = _forward_eliminate(m, ncols, float_mode, tol)
    coords = [0] * ncols
    for row, col in enumerate(pivots):
        coords[col] = m[row][ncols]
    if not all_zero([m[row][ncols] for row in range(len(pivots), nrows)], tol):
        raise SingularMatrix("target not in span")
    return coords


def nullspace(a, tol=EPS):
    """Basis of the kernel of a (list of vectors)."""
    nrows = len(a)
    if nrows == 0:
        return []
    ncols = len(a[0])
    m = [list(row) for row in a]
    float_mode = is_float_data(m)
    pivots = _forward_eliminate(m, ncols, float_mode, tol)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    one = scalar_like(a)
    for f in free:
        v = [0] * ncols
        v[f] = one
        for row, col in enumerate(pivots):
            v[col] = -m[row][f]
        basis.append(v)
    return basis


def is_positive_definite(a, tol=0.0):
    """Sylvester's test: every leading principal minor of a is positive.

    One elimination without row swaps.  While the minors D_1 .. D_k stay
    nonzero, the k-th pivot is D_k / D_(k-1), so the running product of
    the pivots is each leading minor in turn; the test stops at the first
    one that is not positive, before it would divide by it.
    """
    m = [list(row) for row in a]
    minor = 1
    for k, top in enumerate(m):
        minor = minor * top[k]
        if not is_positive(minor, tol):
            return False
        for r in range(k + 1, len(m)):
            if m[r][k] != 0:
                f = exact_div(m[r][k], top[k])
                m[r] = [x - f * y if y != 0 else x for x, y in zip(m[r], top)]
    return True
