"""The lean exact kernels against the formulas they replace.

- ``QSqrt3`` arithmetic on parts, with its rational fast paths, against the
  plain Fraction formulas of a + b sqrt 3 (every operand coerced, four cross
  products per product).
- Sylvester's test read off one elimination against the leading principal
  minors computed one by one with ``smallmat.det``.
- The Laplace minors of ``HodgeStar`` against ``smallmat.det`` of the same
  submatrix of g^-1.
- The compiled slot contraction against the per-term ``KForm.coeff`` loop.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nk6 import smallmat
from nk6.exterior import (
    HodgeStar, KForm, hodge_star, index_tuples, metric_volume)
from nk6.hitchin import contract
from nk6.scalars import SQRT3, QSqrt3

# derandomized, so that every run draws the same examples
SETTINGS = settings(max_examples=60, deadline=None, database=None,
                    derandomize=True)

rationals = st.fractions(min_value=-7, max_value=7, max_denominator=12)
ints = st.integers(min_value=-7, max_value=7)
# b = 0 often, so that the rational fast paths are drawn
parts = st.tuples(rationals, st.one_of(st.just(Fraction(0)), rationals))
operands = st.one_of(parts.map(lambda p: QSqrt3(*p)), rationals, ints)


# -- Q(sqrt 3) ----------------------------------------------------------------
def _parts(x):
    if isinstance(x, QSqrt3):
        return x.a, x.b
    return Fraction(x), Fraction(0)


def oracle(op, x, y):
    """(a, b) of x op y by the Fraction formulas, both operands coerced."""
    (a, b), (c, d) = _parts(x), _parts(y)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "/":
        n = c * c - 3 * d * d
        c, d = c / n, -d / n
    return a * c + 3 * b * d, a * d + b * c


def oracle_sign(a, b):
    """Sign of a + b sqrt 3: a and b agree, or the larger of a^2, 3 b^2 wins."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    return sa if a * a > 3 * b * b else sb


def _apply(op, x, y):
    return {"+": lambda: x + y, "-": lambda: x - y, "*": lambda: x * y,
            "/": lambda: x / y}[op]()


@SETTINGS
@given(operands, operands, st.sampled_from("+-*/"))
def test_qsqrt3_arithmetic_matches_the_fraction_formulas(x, y, op):
    if not isinstance(x, QSqrt3) and not isinstance(y, QSqrt3):
        x = QSqrt3(x)
    if op == "/" and _parts(y) == (0, 0):
        try:
            _apply(op, x, y)
        except ZeroDivisionError:
            return
        raise AssertionError("division by zero did not raise")
    got = _apply(op, x, y)
    assert type(got) is QSqrt3
    assert type(got.a) is Fraction and type(got.b) is Fraction
    assert (got.a, got.b) == oracle(op, x, y)


@SETTINGS
@given(parts, operands)
def test_qsqrt3_equality_hash_and_sign_match_the_fraction_formulas(p, y):
    x = QSqrt3(*p)
    a, b = p
    c, d = _parts(y)
    assert (x == y) == (a == c and b == d)
    assert (x != y) == (not (a == c and b == d))
    assert (x == 0) == (a == 0 and b == 0)
    assert hash(x) == (hash(a) if b == 0 else hash((a, b)))
    if b == 0:
        assert hash(x) == hash(a) and x == a
    assert x.sign() == oracle_sign(a, b)
    assert (x < y) == (oracle_sign(a - c, b - d) < 0)
    assert (x >= y) == (oracle_sign(a - c, b - d) >= 0)


def test_qsqrt3_keeps_fraction_parts_and_coerces_others():
    half = Fraction(1, 2)
    x = QSqrt3(half, 3)
    assert x.a is half and type(x.b) is Fraction
    assert QSqrt3(0.5).a == half
    assert (2 * SQRT3) * SQRT3 == 6 and type(SQRT3 * SQRT3) is QSqrt3


# -- Sylvester's test ---------------------------------------------------------
@st.composite
def symmetric_matrices(draw):
    """Symmetric rational n x n, n in 4..6: A^T A (singular when A has fewer
    rows than columns), shifted by a rational multiple of the identity that
    may make it indefinite, or a plain random symmetric matrix."""
    n = draw(st.integers(min_value=4, max_value=6))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if draw(st.booleans()):
        rows = draw(st.integers(min_value=1, max_value=n + 1))
        a = [[draw(small) for _ in range(n)] for _ in range(rows)]
        m = smallmat.mat_mul(smallmat.transpose(a), a)
        shift = draw(st.one_of(st.just(Fraction(0)), small))
        return [[m[i][j] + (shift if i == j else 0) for j in range(n)]
                for i in range(n)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(small)
    return m


def sylvester(m):
    return all(smallmat.det([row[:k] for row in m[:k]]) > 0
               for k in range(1, len(m) + 1))


@SETTINGS
@given(symmetric_matrices())
def test_positive_definite_matches_sylvester_on_det_minors(m):
    assert smallmat.is_positive_definite(m) == sylvester(m)


def test_positive_definite_edge_cases():
    assert smallmat.is_positive_definite([[Fraction(0)] * 4 for _ in range(4)]) is False
    assert smallmat.is_positive_definite([[2, 1], [1, 2]])
    assert not smallmat.is_positive_definite([[1, 2], [2, 1]])
    assert smallmat.is_positive_definite([[2.0, 0.5], [0.5, 1.0]])


# -- Hodge star minors --------------------------------------------------------
# positive weights, rational or in Q(sqrt 3); 1 most often
WEIGHTS = st.one_of(st.just(1), st.sampled_from(
    [2, 3, Fraction(1, 2), QSqrt3(2, 1), QSqrt3(2, -1), QSqrt3(1, 1)]))


@st.composite
def gram_matrices(draw):
    """Positive definite g = B^T D B, B = L U with L, U unit triangular
    6 x 6 over Q or over Q(sqrt 3) and D a diagonal of positive weights:
    det g = det D, so sqrt(det g) is in Q(sqrt 3) (all weights 1 gives
    det g = 1) or not, and then the volume form is a float."""
    small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    if draw(st.booleans()):
        entry = small
    else:
        entry = st.builds(QSqrt3, small, small)
    entry = st.one_of(st.just(0), entry)
    lower = [[1 if i == j else (draw(entry) if j < i else 0) for j in range(6)]
             for i in range(6)]
    upper = smallmat.transpose(
        [[1 if i == j else (draw(entry) if j < i else 0) for j in range(6)]
         for i in range(6)])
    b = smallmat.mat_mul(lower, upper)
    weights = [[draw(WEIGHTS) if i == j else 0 for j in range(6)]
               for i in range(6)]
    return smallmat.mat_mul(smallmat.transpose(b), smallmat.mat_mul(weights, b))


@settings(SETTINGS, max_examples=40)
@given(gram_matrices(), st.data())
def test_every_hodge_minor_is_the_det_of_its_submatrix(g, data):
    star = HodgeStar(g)
    inv = star.gram_inv
    for k in range(7):
        tuples, _ = index_tuples(6, k)
        for _ in range(4):
            rows = data.draw(st.sampled_from(tuples))
            cols = data.draw(st.sampled_from(tuples))
            want = smallmat.det([[inv[r][c] for c in cols] for r in rows])
            assert star.minor(rows, cols) == want
    full = tuple(range(6))
    assert star.minor(full, full) * smallmat.det(g) == 1
    # the star of an exact form is exact iff sqrt(det g) is, else all floats
    assert star.floats == isinstance(metric_volume(g).c[0], float)
    out = [x for x in star(KForm.basis(6, (0, 2), QSqrt3(1, 1))).c if x != 0]
    assert out and all(isinstance(x, float) == star.floats for x in out)


def test_hodge_star_with_a_float_volume_runs_in_floats():
    # det g = 2 + sqrt 3 has no square root in Q(sqrt 3)
    g = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    g[0][0] = QSqrt3(2, 1)
    out = hodge_star(KForm.basis(6, (0,)), g)
    # *e0 = g^00 sqrt(det g) e12345 = (2 - sqrt 3) sqrt(2 + sqrt 3) e12345
    want = (2 - 3 ** 0.5) * (2 + 3 ** 0.5) ** 0.5
    assert abs(out.c[-1] - want) <= 1e-12 and not any(out.c[:-1])
    assert isinstance(out.c[-1], float)


# -- the slot contraction -----------------------------------------------------
def oracle_contract(psi, m, slot):
    coeffs = []
    for t in index_tuples(psi.n, 3)[0]:
        total = 0
        for s in range(psi.n):
            total = total + m[s][t[slot]] * psi.coeff(t[:slot] + (s,) + t[slot + 1:])
        coeffs.append(-total)
    return KForm(psi.n, 3, coeffs)


@SETTINGS
@given(st.sampled_from([6, 7]), st.integers(min_value=0, max_value=2),
       st.data())
def test_contraction_matches_the_per_term_loop(n, slot, data):
    scalars = data.draw(st.sampled_from(
        [rationals, st.builds(QSqrt3, rationals, rationals)]))
    size = len(index_tuples(n, 3)[0])
    coeffs = [0] * size
    for p in data.draw(st.lists(st.integers(0, size - 1), max_size=10)):
        coeffs[p] = data.draw(scalars)
    psi = KForm(n, 3, coeffs)
    m = [[0] * n for _ in range(n)]
    for r, c in data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)),
                                   max_size=12)):
        m[r][c] = data.draw(scalars)
    assert contract(psi, m, slot) == oracle_contract(psi, m, slot)


def test_contraction_with_the_identity_is_minus_psi():
    psi = KForm.from_terms(6, 3, [((0, 2, 4), 1), ((1, 3, 5), Fraction(1, 2))])
    m = [[int(r == c) for c in range(6)] for r in range(6)]
    for slot in range(3):
        assert contract(psi, m, slot) == -psi
