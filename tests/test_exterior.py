import itertools
import random
from fractions import Fraction

import pytest

from conftest import form_inner, lambda5_to_vector
from nk6.exterior import (
    KForm,
    NotPositiveDefinite,
    hodge_star,
    interior,
    metric_volume,
    wedge,
)
from nk6 import smallmat


def rnd_form(rng, n, k, bound=4):
    from nk6.exterior import index_tuples
    tuples, _ = index_tuples(n, k)
    return KForm(n, k, [Fraction(rng.randint(-bound, bound),
                                 rng.randint(1, 3)) for _ in tuples])


def shuffle_wedge_eval(a, b, vectors):
    """Independent wedge oracle: sum over (k,l)-shuffles of evaluations."""
    k, l = a.k, b.k
    total = 0
    for comb in itertools.combinations(range(k + l), k):
        rest = [i for i in range(k + l) if i not in comb]
        perm = list(comb) + rest
        inversions = sum(1 for i in range(len(perm)) for j in range(i)
                         if perm[j] > perm[i])
        sign = -1 if inversions % 2 else 1
        total += sign * a(*[vectors[i] for i in comb]) * b(*[vectors[i] for i in rest])
    return total


def test_wedge_basis_cases():
    e1 = KForm.basis(6, (0,))
    e2 = KForm.basis(6, (1,))
    assert wedge(e1, e2) == KForm.basis(6, (0, 1))
    e12 = KForm.basis(6, (0, 1))
    assert wedge(e12, e12).is_zero()


def test_wedge_triple_symplectic_power():
    om = KForm.from_terms(6, 2, [((0, 1), 1), ((2, 3), 1), ((4, 5), 1)])
    o3 = wedge(wedge(om, om), om)
    assert o3 == KForm.basis(6, (0, 1, 2, 3, 4, 5), 6)


def test_wedge_against_shuffle_oracle():
    rng = random.Random(11)
    for _ in range(40):
        ka, kb = rng.randint(1, 3), rng.randint(1, 2)
        a = rnd_form(rng, 5, ka)
        b = rnd_form(rng, 5, kb)
        w = wedge(a, b)
        for _ in range(3):
            vecs = [[Fraction(rng.randint(-3, 3)) for _ in range(5)]
                    for _ in range(ka + kb)]
            assert w(*vecs) == shuffle_wedge_eval(a, b, vecs)


def test_wedge_graded_commutative_and_associative():
    rng = random.Random(5)
    for _ in range(200):
        ka, kb, kc = (rng.randint(0, 3) for _ in range(3))
        a, b, c = (rnd_form(rng, 6, k) for k in (ka, kb, kc))
        sign = -1 if (ka * kb) % 2 else 1
        assert wedge(a, b) == wedge(b, a).scale(sign)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_degree_overflow_is_zero():
    a = rnd_form(random.Random(0), 4, 3)
    b = rnd_form(random.Random(1), 4, 2)
    w = wedge(a, b)
    assert w.k == 5 and w.is_zero()


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(KForm.basis(5, (0,)), KForm.basis(6, (0,)))


def test_interior_basis_cases():
    e12 = KForm.basis(6, (0, 1))
    x1 = [1, 0, 0, 0, 0, 0]
    x3 = [0, 0, 1, 0, 0, 0]
    assert interior(x1, e12) == KForm.basis(6, (1,))
    assert interior(x3, e12).is_zero()
    form = KForm.from_terms(6, 3, [((0, 2, 4), 1), ((0, 3, 5), -1)])
    assert interior(x1, form) == KForm.from_terms(
        6, 2, [((2, 4), 1), ((3, 5), -1)])


def test_interior_of_scalar_is_zero_form():
    out = interior([1] * 6, KForm.constant(6, Fraction(5)))
    assert out.k == 0 and out.is_zero()


def test_interior_antiderivation():
    rng = random.Random(7)
    for _ in range(100):
        ka, kb = rng.randint(1, 3), rng.randint(1, 2)
        a = rnd_form(rng, 6, ka)
        b = rnd_form(rng, 6, kb)
        v = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        lhs = interior(v, wedge(a, b))
        sign = -1 if ka % 2 else 1
        rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)).scale(sign)
        assert lhs == rhs


def euclid(n):
    return smallmat.identity(n, Fraction(1))


def test_hodge_euclidean_basics():
    vol = KForm.basis(6, tuple(range(6)))
    one = KForm.constant(6, Fraction(1))
    assert hodge_star(one, euclid(6), vol) == vol
    e1 = KForm.basis(6, (0,))
    assert hodge_star(e1, euclid(6), vol) == KForm.basis(6, (1, 2, 3, 4, 5))


def test_hodge_involution_all_degrees():
    rng = random.Random(3)
    for n in (6, 7):
        vol = KForm.basis(n, tuple(range(n)))
        for k in range(n + 1):
            a = rnd_form(rng, n, k)
            twice = hodge_star(hodge_star(a, euclid(n), vol), euclid(n), vol)
            sign = -1 if (k * (n - k)) % 2 else 1
            assert twice == a.scale(sign)


def test_hodge_involution_random_metric_float():
    rng = random.Random(27)
    nprng = __import__("numpy").random.default_rng(4)
    for _ in range(8):
        n = 5
        a = nprng.normal(size=(n, n))
        g = (a.T @ a + n * __import__("numpy").eye(n)).tolist()
        vol = metric_volume(g)
        k = rng.randint(1, n - 1)
        x = rnd_form(rng, n, k).to_float()
        twice = hodge_star(hodge_star(x, g, vol), g, vol)
        sign = -1 if (k * (n - k)) % 2 else 1
        assert (twice - x.scale(float(sign))).is_zero(1e-10)


def test_hodge_defining_property_random_metric():
    rng = random.Random(19)
    for _ in range(10):
        # generic positive-definite Gram: A^T A + Id
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        g = smallmat.mat_add(
            smallmat.mat_mul(smallmat.transpose(a), a), euclid(4))
        vol = metric_volume(g)
        if isinstance(vol.c[-1], float):
            vol = vol.to_float()
            continue  # keep the exact lane exact
        k = rng.randint(1, 3)
        x = rnd_form(rng, 4, k)
        y = rnd_form(rng, 4, k)
        ginv = smallmat.inv(g)
        lhs = wedge(x, hodge_star(y, g, vol))
        expected = vol.scale(form_inner(x, y, ginv))
        assert lhs == expected


def test_hodge_rejects_degenerate_metric():
    g = euclid(6)
    g[2][2] = Fraction(0)
    with pytest.raises(NotPositiveDefinite):
        hodge_star(KForm.basis(6, (0,)), g)


def test_hodge_rejects_non_unit_volume():
    with pytest.raises(ValueError):
        hodge_star(KForm.basis(6, (0,)), euclid(6),
                   KForm.basis(6, tuple(range(6)), Fraction(2)))


def test_lambda5_roundtrip():
    rng = random.Random(23)
    vol = KForm.basis(6, tuple(range(6)), Fraction(3, 2))
    for _ in range(50):
        v = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
        assert lambda5_to_vector(interior(v, vol), vol) == v
    assert lambda5_to_vector(KForm.zero(6, 5), vol) == [0] * 6


def test_lambda5_linearity_example():
    vol = KForm.basis(6, tuple(range(6)))
    x3 = [0, 0, 1, 0, 0, 0]
    x6 = [0, 0, 0, 0, 0, 1]
    sigma = interior(x3, vol).scale(2) + interior(x6, vol).scale(5)
    assert lambda5_to_vector(sigma, vol) == [0, 0, 2, 0, 0, 5]


def test_form_evaluation_matches_determinant():
    e135 = KForm.basis(6, (0, 2, 4))
    vecs = [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0]]
    assert e135(*vecs) == 1
    assert e135(vecs[1], vecs[0], vecs[2]) == -1
