"""The compiled operator tables against the per-term kernels they replace.

The oracles below are the term-by-term invariant differential, invariance
test and Hodge star that the compiled sparse tables replaced: every term
is sorted with ``sort_index`` and looked up with ``KForm.coeff`` per call,
and every minor of g^-1 is computed per call.  Hypothesis draws forms on
the three fixture spaces and the cyclic S^3 x S^3 space in every degree.
"""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import form_inner
from nk6 import smallmat
from nk6.exterior import (
    HodgeStar, KForm, complement, hodge_star, index_tuples, metric_volume)
from nk6.lie import LieAlgebraData, ce_differential, check_jacobi, is_invariant
from nk6.s3xs3 import cyclic_space
from nk6.scalars import EPS, SQRT3, QSqrt3, exact, is_exact, tolerance
from nk6.spacefile import load_space

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

# derandomized, so that every run draws the same examples
SETTINGS = settings(max_examples=40, deadline=None, database=None,
                    derandomize=True)


# -- oracles -------------------------------------------------------------
def oracle_ad_images(space, alpha):
    """The coefficients of ad(H) . alpha for every h-basis element H."""
    n = space.dim_m
    tuples, _ = index_tuples(n, alpha.k)
    out = []
    for mat in space.ad_h:
        for idx in tuples:
            total = 0
            for slot in range(len(idx)):
                for s in range(n):
                    coef = mat[s][idx[slot]]
                    if coef == 0:
                        continue
                    replaced = idx[:slot] + (s,) + idx[slot + 1:]
                    total = total + coef * alpha.coeff(replaced)
            out.append(total)
    return out


def oracle_is_invariant(space, alpha, tol=1e-10):
    """Every image zero at the tolerance of alpha times the largest structure
    constant and coefficient of alpha, on alpha's binary values."""
    values = exact(alpha.c)
    size = lambda xs: max(map(abs, xs), default=0)
    bound = (tolerance(tol, alpha.c) * size(values)
             * size(x for plane in space.algebra.c for row in plane for x in row))
    images = oracle_ad_images(space, KForm(alpha.n, alpha.k, values))
    return all(abs(x) <= bound for x in images)


def oracle_ce_differential(space, alpha):
    n, k = space.dim_m, alpha.k
    out = KForm.zero(n, k + 1)
    if k + 1 > n:
        return out
    tuples, pos = index_tuples(n, k + 1)
    for t_out in tuples:
        total = 0
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                w = space.bm[t_out[a]][t_out[b]]
                rest = t_out[:a] + t_out[a + 1:b] + t_out[b + 1:]
                sgn = -1 if (a + b) % 2 else 1
                for s in range(n):
                    if w[s] == 0:
                        continue
                    val = alpha.coeff((s,) + rest)
                    if val != 0:
                        total = total + sgn * (w[s] * val)
        out.c[pos[t_out]] = total
    return out


def oracle_hodge_star(a, gram, vol):
    n = a.n
    gram_inv = smallmat.inv(gram)
    v = vol.c[0]
    out = KForm.zero(n, n - a.k)
    tuples_k, _ = index_tuples(n, a.k)
    _, pos_out = index_tuples(n, n - a.k)
    for idx in tuples_k:
        inner = form_inner(KForm.basis(n, idx), a, gram_inv)
        if inner == 0:
            continue
        comp, sign = complement(n, idx)
        out.c[pos_out[comp]] = out.c[pos_out[comp]] + sign * (v * inner)
    return out


def oracle_double_sum(table, x, y):
    """sum_ij x_i y_j table[i][j] over the pairs of nonzero coefficients."""
    terms = [(xi * yj, table[i][j]) for i, xi in enumerate(x) if xi != 0
             for j, yj in enumerate(y) if yj != 0]
    return [sum((c * w[k] for c, w in terms), 0) for k in range(len(table[0][0]))]


def oracle_check_jacobi(L):
    d, c = L.dim, L.c
    e = [[int(i == j) for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                total = [0] * d
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    total = smallmat.vec_add(total, oracle_double_sum(
                        c, oracle_double_sum(c, e[x], e[y]), e[z]))
                if any(t != 0 for t in total):
                    return False
    return True


# -- data ----------------------------------------------------------------
SPACES = {name: load_space(os.path.join(FIX, f"{name}.json"), EPS).reductive_space()
          for name in ("s3xs3", "flag", "cp3")}
SPACES["cyclic"] = cyclic_space()

_INVARIANT_BASES = {}


def invariant_basis(name, k):
    """A basis of the invariant k-forms, from the oracle's linear map."""
    if (name, k) not in _INVARIANT_BASES:
        space = SPACES[name]
        tuples, _ = index_tuples(6, k)
        images = [oracle_ad_images(space, KForm.basis(6, t)) for t in tuples]
        rows = [list(r) for r in zip(*images)] or [[0] * len(tuples)]
        _INVARIANT_BASES[name, k] = smallmat.nullspace(rows)
    return _INVARIANT_BASES[name, k]


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=9)
floats = st.floats(min_value=-5, max_value=5, allow_nan=False)
quadratic = st.builds(QSqrt3, rationals, rationals)
space_names = st.sampled_from(sorted(SPACES))
degrees = st.integers(min_value=0, max_value=6)


@st.composite
def forms(draw, scalars, k=None):
    """A sparse 6-dimensional form with coefficients from ``scalars``."""
    k = draw(degrees) if k is None else k
    size = len(index_tuples(6, k)[0])
    coeffs = [0] * size
    for p in draw(st.lists(st.integers(0, size - 1), max_size=6)):
        coeffs[p] = draw(scalars)
    return KForm(6, k, coeffs)


@st.composite
def invariant_forms(draw, name):
    k = draw(degrees)
    basis = invariant_basis(name, k)
    coeffs = [0] * len(index_tuples(6, k)[0])
    for vec in basis:
        x = draw(rationals)
        coeffs = [c + x * b for c, b in zip(coeffs, vec)]
    return KForm(6, k, coeffs)


@st.composite
def block_metrics(draw):
    """The S^3 x S^3 metric of 2 x 2 blocks lam_i B_i on the pairs (e_i, f_i).

    Each B_i has determinant 1 and entries in Q(sqrt 3), so sqrt(det g) is
    the rational lam_1 lam_2 lam_3 and the unit volume form is exact.
    """
    blocks = [[[2, SQRT3], [SQRT3, 2]], [[7, 4 * SQRT3], [4 * SQRT3, 7]],
              [[1, 0], [0, 1]]]
    g = [[QSqrt3(0)] * 6 for _ in range(6)]
    for i in range(3):
        lam = draw(st.fractions(min_value=Fraction(1, 4), max_value=4,
                                max_denominator=5))
        block = draw(st.sampled_from(blocks))
        for r in range(2):
            for c in range(2):
                g[i + 3 * r][i + 3 * c] = QSqrt3(lam) * block[r][c]
    return g


def _all_exact(form):
    return all(is_exact(x) for x in form.c)


def _close(a, b):
    return all(abs(float(x) - float(y)) <= 1e-9 * max(1.0, abs(float(y)))
               for x, y in zip(a.c, b.c))


# -- the differential ------------------------------------------------------
@SETTINGS
@given(space_names, st.data())
def test_differential_matches_the_oracle_on_exact_forms(name, data):
    space = SPACES[name]
    alpha = data.draw(forms(st.one_of(rationals, quadratic)))
    got = ce_differential(space, alpha, check_invariance=False)
    assert got == oracle_ce_differential(space, alpha)
    assert _all_exact(got)


@SETTINGS
@given(space_names, st.data())
def test_differential_matches_the_oracle_on_float_forms(name, data):
    space = SPACES[name]
    alpha = data.draw(forms(floats))
    got = ce_differential(space, alpha, check_invariance=False)
    assert _close(got, oracle_ce_differential(space, alpha))


# -- the invariance test ---------------------------------------------------
@SETTINGS
@given(space_names, st.data())
def test_invariance_matches_the_oracle(name, data):
    space = SPACES[name]
    alpha = data.draw(st.one_of(forms(rationals), forms(floats),
                                invariant_forms(name)))
    assert is_invariant(space, alpha) == oracle_is_invariant(space, alpha)


@SETTINGS
@given(space_names, st.data())
def test_invariant_forms_pass_and_their_differential_is_exact(name, data):
    space = SPACES[name]
    alpha = data.draw(invariant_forms(name))
    assert is_invariant(space, alpha)
    got = ce_differential(space, alpha)
    assert got == oracle_ce_differential(space, alpha)
    assert _all_exact(got)


# -- the Hodge star --------------------------------------------------------
@SETTINGS
@given(block_metrics(), st.data())
def test_star_of_the_block_metric_matches_the_oracle(g, data):
    vol = metric_volume(g)
    star = HodgeStar(g, vol)
    for _ in range(3):
        alpha = data.draw(forms(st.one_of(rationals, quadratic)))
        got = star(alpha)
        assert got == oracle_hodge_star(alpha, g, vol)
        assert got == hodge_star(alpha, g, vol)
        assert _all_exact(got)


@SETTINGS
@given(st.lists(st.fractions(min_value=Fraction(1, 9), max_value=9,
                             max_denominator=9), min_size=6, max_size=6),
       st.sampled_from([1, -1]), st.data())
def test_star_of_a_diagonal_metric_matches_the_oracle(diag, orientation, data):
    g = [[diag[i] if i == j else Fraction(0) for j in range(6)]
         for i in range(6)]
    vol = metric_volume(g, orientation=orientation)
    alpha = data.draw(forms(st.one_of(rationals, floats)))
    got = HodgeStar(g, vol)(alpha)
    want = oracle_hodge_star(alpha, g, vol)
    assert _close(got, want)
    if _all_exact(alpha) and _all_exact(vol):
        assert _all_exact(got)


@SETTINGS
@given(block_metrics(), st.data())
def test_star_of_a_float_metric_matches_the_oracle(g, data):
    g = [[float(x) for x in row] for row in g]
    vol = metric_volume(g)
    alpha = data.draw(forms(floats))
    assert _close(HodgeStar(g, vol)(alpha), oracle_hodge_star(alpha, g, vol))


# -- the structure constants -----------------------------------------------
@pytest.mark.parametrize("name", sorted(SPACES))
def test_bracket_tables_match_bilinear_apply(name):
    space = SPACES[name]
    c, d = space.algebra.c, space.algebra.dim
    e = [[int(i == j) for j in range(d)] for i in range(d)]
    for a, ia in enumerate(space.m_idx):
        for b, ib in enumerate(space.m_idx):
            w = oracle_double_sum(c, e[ia], e[ib])
            assert space.bm[a][b] == [w[i] for i in space.m_idx]
            assert space.bh[a][b] == [w[i] for i in space.h_idx]
    for h, ih in enumerate(space.h_idx):
        for a, ia in enumerate(space.m_idx):
            w = oracle_double_sum(c, e[ih], e[ia])
            assert [row[a] for row in space.ad_h[h]] == [w[i] for i in space.m_idx]


@SETTINGS
@given(space_names, st.data())
def test_jacobi_matches_the_oracle_on_perturbed_constants(name, data):
    algebra = SPACES[name].algebra
    d = algebra.dim
    c = [[list(row) for row in plane] for plane in algebra.c]
    i, j = sorted(data.draw(st.lists(st.integers(0, d - 1), min_size=2,
                                     max_size=2, unique=True)))
    k = data.draw(st.integers(0, d - 1))
    delta = data.draw(rationals)
    c[i][j][k] += delta
    c[j][i][k] -= delta
    perturbed = LieAlgebraData(c, check=False)
    assert check_jacobi(perturbed) == oracle_check_jacobi(perturbed)
