import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nk6 import smallmat as sm
from nk6.scalars import QSqrt3, is_exact


def rnd_mat(rng, n, bound=5):
    return [[Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
             for _ in range(n)] for _ in range(n)]


def test_solve_and_inverse_exact():
    rng = random.Random(2)
    for _ in range(20):
        a = rnd_mat(rng, 4)
        if sm.det(a) == 0:
            continue
        b = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        x = sm.solve(a, b)
        assert sm.mat_vec(a, x) == b
        inv = sm.inv(a)
        assert sm.mat_mul(a, inv) == sm.identity(4, Fraction(1))


def test_singular_raises():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(sm.SingularMatrix):
        sm.solve(a, [Fraction(1), Fraction(0)])
    assert sm.det(a) == 0


def test_det_multiplicative():
    rng = random.Random(9)
    for _ in range(20):
        a, b = rnd_mat(rng, 3), rnd_mat(rng, 3)
        assert sm.det(sm.mat_mul(a, b)) == sm.det(a) * sm.det(b)


def test_nullspace_of_no_rows_is_every_vector():
    # a matrix with no rows has every vector of its width in its kernel
    assert sm.nullspace([], ncols=3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert sm.nullspace([]) == []


def test_nullspace_exact():
    a = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(2), Fraction(4), Fraction(6)]]
    basis = sm.nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in sm.mat_vec(a, v))


def test_solve_in_span():
    cols = [[Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(0), Fraction(1), Fraction(1)]]
    coords = sm.solve_in_span(cols, [Fraction(2), Fraction(3), Fraction(5)])
    assert coords == [Fraction(2), Fraction(3)]
    with pytest.raises(sm.SingularMatrix):
        sm.solve_in_span(cols, [Fraction(1), Fraction(0), Fraction(0)])


def test_positive_definite():
    assert sm.is_positive_definite(sm.identity(5, Fraction(1)))
    g = [[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    assert sm.is_positive_definite(g)
    assert not sm.is_positive_definite([[Fraction(1), Fraction(2)],
                                        [Fraction(2), Fraction(1)]])


def test_float_mode_pivoting():
    a = [[1e-14, 1.0], [1.0, 0.0]]
    x = sm.solve(a, [1.0, 2.0])
    assert abs(x[0] - 2.0) < 1e-9


def _sparse(rng, rows, cols, entry, zero):
    """A matrix with about a third of its entries nonzero."""
    return [[entry(rng) if rng.random() < 0.35 else zero for _ in range(cols)]
            for _ in range(rows)]


_KERNEL_SCALARS = [
    ("Fraction", lambda r: Fraction(r.randint(-7, 7), r.randint(1, 4)),
     Fraction(0)),
    ("QSqrt3", lambda r: QSqrt3(Fraction(r.randint(-3, 3), r.randint(1, 3)),
                                Fraction(r.randint(-3, 3), r.randint(1, 3))),
     QSqrt3(0)),
    ("float", lambda r: r.uniform(-2, 2), 0.0),
]


@pytest.mark.parametrize("name,entry,zero", _KERNEL_SCALARS,
                         ids=[k[0] for k in _KERNEL_SCALARS])
def test_sparse_kernels_match_dense_double_sum(name, entry, zero):
    rng = random.Random(11)
    for _ in range(25):
        n, k, m = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        a = _sparse(rng, n, k, entry, zero)
        b = _sparse(rng, k, m, entry, zero)
        v = _sparse(rng, 1, k, entry, zero)[0]
        w = _sparse(rng, 1, k, entry, zero)[0]
        dense_ab = [[sum((a[i][l] * b[l][j] for l in range(k)), 0)
                     for j in range(m)] for i in range(n)]
        dense_av = [sum((a[i][l] * v[l] for l in range(k)), 0) for i in range(n)]
        dense_vw = sum((v[l] * w[l] for l in range(k)), 0)
        ab, av, vw = sm.mat_mul(a, b), sm.mat_vec(a, v), sm.vec_dot(v, w)
        assert ab == dense_ab
        assert av == dense_av
        assert vw == dense_vw
        if name != "float":
            assert all(is_exact(x) for x in [vw] + av + [y for r in ab for y in r])


# -- the row-sparse product against the row-by-column one ------------------
def _row_by_column(a, b):
    """The product as it was computed before: each entry the dot product of
    a row of a and a column of b, in increasing k, zero factors skipped."""
    def dot(u, v):
        s = 0
        for x, y in zip(u, v):
            if x != 0 and y != 0:
                s = s + x * y
        return s
    return [[dot(row, col) for col in zip(*b)] for row in a]


_PRODUCT_SCALARS = {
    "Fraction": st.fractions(min_value=-5, max_value=5, max_denominator=6),
    "QSqrt3": st.builds(
        QSqrt3, st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4))),
    "float": st.floats(min_value=-4, max_value=4, allow_nan=False,
                       allow_infinity=False),
}


@st.composite
def _products(draw, kind):
    """(a, b) of shapes n x k and k x m, n and m possibly 0, with zero
    entries, and whole zero rows of a and zero columns of b, drawn often."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    k = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), _PRODUCT_SCALARS[kind])
    a = [[draw(entry) for _ in range(k)] for _ in range(n)]
    b = [[draw(entry) for _ in range(m)] for _ in range(k)]
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2)):
        if n:
            a[i] = [0] * k
    for j in draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=2)):
        for row in b:
            if m:
                row[j] = 0
    return a, b


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(sorted(_PRODUCT_SCALARS)).flatmap(
    lambda kind: st.tuples(st.just(kind), _products(kind))))
def test_row_sparse_mat_mul_matches_the_dense_product(case):
    kind, (a, b) = case
    got, want = sm.mat_mul(a, b), _row_by_column(a, b)
    assert len(got) == len(a) and all(len(row) == len(b[0]) for row in got)
    if kind == "float":
        # the same additions in the same order: bitwise equal, zero signs too
        assert [[repr(x) for x in row] for row in got] == \
            [[repr(x) for x in row] for row in want]
    else:
        assert got == want
        assert all(is_exact(x) for row in got for x in row)
    dense = [[sum((a[i][l] * b[l][j] for l in range(len(b))), 0)
              for j in range(len(b[0]))] for i in range(len(a))]
    assert got == dense


def test_scalar_matrix_test_decides_exact_data_exactly():
    off = [[Fraction(-1), 0], [0, Fraction(-1) + Fraction(1, 10 ** 12)]]
    assert sm.is_scalar_matrix([[Fraction(-1), 0], [0, Fraction(-1)]], -1)
    assert not sm.is_scalar_matrix(off, -1, 1e-8)
    assert sm.is_scalar_matrix([[float(x) for x in row] for row in off], -1, 1e-8)
    assert not sm.is_scalar_matrix([[QSqrt3(2), QSqrt3(0, 1)], [0, QSqrt3(2)]], 2)
    assert sm.is_scalar_matrix([[QSqrt3(0, 1), 0], [0, QSqrt3(0, 1)]], QSqrt3(0, 1))


def test_matrix_combinations_match_the_sums():
    mats = [[[1, 2], [3, 4]], [[0, 1], [1, 0]]]
    coeffs = [[2, 0], [1, Fraction(1, 2)], [0, 0]]
    assert sm.mat_combinations(coeffs, mats) == [
        [[sum((c[k] * m[i][j] for k, m in enumerate(mats)), 0) for j in range(2)]
         for i in range(2)] for c in coeffs]
    # maps into a zero space (h = 0) have no rows
    assert sm.mat_combinations([[1, 1], [2, 0]], [[], []]) == [[], []]


# -- the one elimination against naive references ---------------------------
_EXACT_ENTRIES = {
    "int": st.integers(min_value=-9, max_value=9),
    "Fraction": st.fractions(min_value=-5, max_value=5, max_denominator=4),
    "QSqrt3": st.builds(
        QSqrt3, st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-3, max_value=3, max_denominator=3))),
    # dyadic, so that the float matrix is the exact one, entry for entry
    "float": st.builds(Fraction, st.integers(min_value=-20, max_value=20),
                       st.sampled_from([1, 2, 4])),
}


@st.composite
def integer_matrices(draw, entries=_EXACT_ENTRIES["int"]):
    """Square matrices up to 6 x 6, often sparse, now and then with two
    equal rows (singular), a zero leading entry (a row swap) or of the form
    b b^t (symmetric, often positive definite)."""
    n = draw(st.integers(min_value=0, max_value=6))
    entry = st.one_of(st.just(0), entries)
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        m[draw(st.integers(1, n - 1))] = list(m[0])
    if n and draw(st.booleans()):
        m[0][0] = 0
    if draw(st.booleans()):
        m = [[sum((x * y for x, y in zip(r, s)), 0) for s in m] for r in m]
    return m


def _leibniz(m):
    """det m as the sum over permutations (1 for the empty matrix)."""
    total = 0
    for p in itertools.permutations(range(len(m))):
        inversions = sum(p[i] > p[j] for i in range(len(p))
                         for j in range(i + 1, len(p)))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(p):
            term = term * m[i][j]
        total = total + term
    return total


def _rank(m):
    """The largest k with a nonzero k x k minor of m."""
    rows, cols = len(m), len(m[0]) if m else 0
    for k in range(min(rows, cols), 0, -1):
        for r in itertools.combinations(range(rows), k):
            for c in itertools.combinations(range(cols), k):
                if _leibniz([[m[i][j] for j in c] for i in r]) != 0:
                    return k
    return 0


def _close(got, want, scale):
    return abs(float(got) - float(want)) <= 1e-9 * max(1.0, scale)


def _size(m):
    """Hadamard's bound on every minor of m: the product of its row norms."""
    out = 1.0
    for row in m:
        out *= max(1.0, sum(float(x) ** 2 for x in row) ** 0.5)
    return out


@pytest.mark.parametrize("kind", sorted(_EXACT_ENTRIES))
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_elimination_matches_naive_references(kind, data):
    exact = data.draw(integer_matrices(_EXACT_ENTRIES[kind]))
    floats = kind == "float"
    a = [[float(x) for x in row] for row in exact] if floats else exact
    n, size, d = len(a), _size(exact), _leibniz(exact)
    same = lambda got, want: _close(got, want, size) if floats else got == want
    # det: the Leibniz expansion; an exact singular matrix gives the int 0
    assert same(sm.det(a), d)
    if not floats and d == 0:
        assert type(sm.det(a)) is int
    # Sylvester's test: every leading minor positive, by Leibniz
    minors = [_leibniz([row[:k] for row in exact[:k]]) for k in range(1, n + 1)]
    if not floats or all(abs(float(x)) > 1e-9 * size for x in minors):
        assert sm.is_positive_definite(a) == all(x > 0 for x in minors)
    if n == 0:
        assert sm.nullspace(a) == []
        return
    b = [data.draw(_EXACT_ENTRIES[kind]) for _ in range(n)]
    b = [float(x) for x in b] if floats else b
    if d != 0:
        # solve and inv: a x = b, a a^-1 = Id
        x = sm.solve(a, b)
        assert all(same(y, t) for y, t in zip(sm.mat_vec(a, x), b))
        eye = sm.mat_mul(a, sm.inv(a))
        assert all(same(eye[i][j], int(i == j)) for i in range(n) for j in range(n))
    elif not floats:
        with pytest.raises(sm.SingularMatrix):
            sm.solve(a, b)
        with pytest.raises(sm.SingularMatrix):
            sm.inv(a)
    # nullspace: n - rank independent vectors v with a v = 0
    rank = _rank(exact)
    basis = sm.nullspace(a)
    assert len(basis) == n - rank
    assert all(same(y, 0) for v in basis for y in sm.mat_vec(a, v))
    assert not basis or _rank(basis) == len(basis)
    # solve_in_span on the columns of a and a dependent one, their sum
    columns = sm.transpose(a) + [[sum(row, 0) for row in a]]
    coeffs = [data.draw(_EXACT_ENTRIES[kind]) for _ in range(n)]
    target = sm.mat_vec(a, [float(c) for c in coeffs] if floats else coeffs)
    coords = sm.solve_in_span(columns, target)
    got = sm.mat_vec(sm.transpose(columns), coords)
    assert all(same(y, t) for y, t in zip(got, target))
    if not floats and rank < n:
        # a unit vector outside the column space is not in the span
        k = next(k for k in range(n)
                 if _rank([row + [int(i == k)] for i, row in enumerate(a)]) > rank)
        with pytest.raises(sm.SingularMatrix):
            sm.solve_in_span(columns, [int(i == k) for i in range(n)])
