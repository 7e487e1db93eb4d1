"""Small dense linear algebra over generic scalars.

Matrices are lists of row lists, vectors plain lists.  One forward
elimination (:func:`_eliminate`) and one back-substitution serve every
solver, on exact scalars (pivot on the first nonzero entry, arithmetic
stays exact) and on floats (partial pivoting): :func:`det` is the swap sign
times the product of the pivots, :func:`is_positive_definite` is
Sylvester's test on the running products of a pass without row swaps, and
:func:`solve`, :func:`inv`, :func:`solve_in_span` and :func:`nullspace`
back-substitute over the pivot rows.  Products skip terms with a zero
factor, so sparse matrices cost only their nonzero entries.  Zero tests
of a collection are :func:`scalars.lattice_zero` on its lattice, a pivot's
is :func:`scalars.is_zero`: scalars that are all exact are compared with 0
exactly, otherwise by ``abs(float(x))`` against a tolerance.  The unit of
:func:`inv` and :func:`nullspace` is the int 1, which arithmetic turns into
a float next to float data.  Dimensions never exceed a few dozen here, so
nothing clever is needed.
"""

from __future__ import annotations

from .scalars import (
    EPS, bilinear, exact_div, is_exact, is_positive, is_zero, kernel_rows,
    lattice_sum, lattice_zero, lift, lower, times)


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
    return [x[0][i * n + j] for j in range(n) for i in range(n)], x[1]


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
    m[i][j] - (c if i == j else 0) are tested, rational ones in integers."""
    x = mat_lattice(m)
    n = round(len(x[0]) ** 0.5)
    eye = [1 if i % (n + 1) == 0 else 0 for i in range(n * n)], 1
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


def _eliminate(a, ncols, tol=EPS, swaps=True):
    """Forward elimination on the first ``ncols`` columns of a copy of the
    rows ``a``: (rows, pivots, minors, sign).

    Row i < len(pivots) of ``rows`` has its pivot in column ``pivots[i]``;
    the rows below a pivot are cleared, but only columns right of it are
    written.  ``minors`` are the running products of the pivots and
    ``sign`` that of the row swaps.  A column's pivot is its first nonzero
    entry on exact data, its largest on floats, or none when that is zero
    at ``tol`` times the largest entry of the ``ncols`` columns (a rank at
    every scale).  Without ``swaps`` only the next row's entry is a
    candidate, so the running products are the leading principal minors.
    """
    m, float_mode = [list(row) for row in a], is_float_data(a)
    if float_mode:
        tol *= max((abs(float(x)) for row in m for x in row[:ncols]), default=0.0)
    pivots, minors, sign = [], [], 1
    for col in range(ncols):
        row = len(pivots)
        rows = range(row, len(m) if swaps else min(row + 1, len(m)))
        best = (max(rows, key=lambda r: abs(float(m[r][col])), default=None)
                if float_mode else next((r for r in rows if m[r][col] != 0), None))
        if best is None or float_mode and is_zero(m[best][col], tol):
            continue
        top, piv = m[best], m[best][col]
        if best != row:
            m[row], m[best], sign = top, m[row], -sign
        pivots.append(col)
        minors.append(minors[-1] * piv if minors else piv)
        for r in range(row + 1, len(m)):
            f = m[r][col]
            if f != 0 and not (float_mode and is_zero(f, tol)):
                f = exact_div(f, piv)
                m[r][col + 1:] = [x - f * y if y != 0 else x
                                  for x, y in zip(m[r][col + 1:], top[col + 1:])]
    return m, pivots, minors, sign


def _back_substitute(m, pivots, cols):
    """x[i][k] with sum_j m[i][pivots[j]] x[j][k] = m[i][cols[k]] on the
    pivot rows i of :func:`_eliminate`, from the last one up."""
    x = [None] * len(pivots)
    for i in reversed(range(len(pivots))):
        row, acc = m[i], [m[i][c] for c in cols]
        for p, xp in zip(pivots[i + 1:], x[i + 1:]):
            if row[p] != 0:
                acc = [u - row[p] * v if v != 0 else u for u, v in zip(acc, xp)]
        x[i] = [exact_div(u, row[pivots[i]]) for u in acc]
    return x


def solve(a, b, tol=EPS):
    """Solve a x = b for square a; b a vector or a matrix of columns."""
    n, vector_rhs = len(a), not isinstance(b[0], list)
    rhs = [[x] for x in b] if vector_rhs else b
    m, pivots, _, _ = _eliminate([[*r, *s] for r, s in zip(a, rhs)], n, tol)
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular")
    sol = _back_substitute(m, pivots, range(n, len(m[0])))
    return [row[0] for row in sol] if vector_rhs else sol


def inv(a):
    return solve(a, identity(len(a)))


def det(a):
    """The swap sign times the product of the pivots: 0 (0.0 on floats)
    when a column has none, 1 for the empty matrix."""
    _, pivots, minors, sign = _eliminate(a, len(a), 0.0)
    if len(pivots) < len(a):
        return 0.0 if is_float_data(a) else 0
    return sign * minors[-1] if a else 1


def solve_in_span(columns, target, tol=EPS):
    """Coordinates of ``target`` in the span of ``columns``.

    ``columns`` is a list of vectors (same length as ``target``).  Raises
    SingularMatrix when the system is inconsistent, i.e. the target is not
    in the span.  A column that depends on earlier ones gets 0.
    """
    n = len(columns)
    m, pivots, _, _ = _eliminate(
        [[col[i] for col in columns] + [t] for i, t in enumerate(target)], n, tol)
    if not lattice_zero(lift([row[n] for row in m[len(pivots):]]), tol):
        raise SingularMatrix("target not in span")
    solved = dict(zip(pivots, _back_substitute(m, pivots, [n])))
    return [solved[c][0] if c in solved else 0 for c in range(n)]


def nullspace(a, tol=EPS, ncols=None):
    """Basis of the kernel of a (list of vectors): per free column f, the
    solution with 1 at f and 0 at the other free columns.

    ``ncols`` is the width of a, by default that of its first row; a
    matrix with no rows needs it, as its kernel is every vector.
    """
    n = ncols if ncols is not None else len(a[0]) if a else 0
    m, pivots, _, _ = _eliminate(a, n, tol)
    free = [c for c in range(n) if c not in pivots]
    solved = dict(zip(pivots, _back_substitute(m, pivots, free)))
    return [[1 if c == f else -solved[c][k] if c in solved else 0
             for c in range(n)] for k, f in enumerate(free)]


def is_positive_definite(a, tol=0.0):
    """Sylvester's test: every leading principal minor of a is positive.

    They are the running products of the pivots of an elimination without
    row swaps; a zero one leaves its column without a pivot.
    """
    _, pivots, minors, _ = _eliminate(a, len(a), tol, swaps=False)
    return len(pivots) == len(a) and all(is_positive(d, tol) for d in minors)
