import random
from fractions import Fraction

import pytest

from nk6 import s3xs3
from nk6.exterior import KForm, interior, wedge
from nk6.poly import Poly


def random_poly(rng, n=3, terms=4, degree=3):
    return Poly(n, {tuple(rng.randint(0, degree) for _ in range(n)):
                    s3xs3.random_rational(rng, 3) for _ in range(terms)})


def random_point(rng, n=3):
    return [s3xs3.random_rational(rng, 4) for _ in range(n)]


def test_ring_laws():
    rng = random.Random(3)
    for _ in range(40):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == 0
        assert p + 0 == p and 0 + p == p
        assert p * 1 == p and 1 * p == p
        assert p * 0 == 0
        assert -(-p) == p


def test_evaluation_is_a_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(40):
        p, q = random_poly(rng), random_poly(rng)
        c = s3xs3.random_rational(rng, 5) or Fraction(1)
        x = random_point(rng)
        assert (p + q)(*x) == p(*x) + q(*x)
        assert (p - q)(*x) == p(*x) - q(*x)
        assert (p * q)(*x) == p(*x) * q(*x)
        assert (p / c)(*x) == p(*x) / c
        assert (3 - p)(*x) == 3 - p(*x)
        assert (p * p)(*x) == p(*x) ** 2


def test_equality_with_rationals():
    x, y = Poly.variables(2)
    assert x - x == 0 and not (x == 0)
    assert (x + 1) - x == 1
    assert (x + Fraction(1, 2)) - x == Fraction(1, 2)
    assert x != y and x * y == y * x
    assert Poly(2, {(0, 0): 0}) == 0
    assert x != 0.5  # no float arithmetic: unequal, never coerced


def test_mixed_variable_counts_are_rejected():
    (x,) = Poly.variables(1)
    y, _ = Poly.variables(2)
    with pytest.raises(ValueError):
        x + y


def test_format():
    r, s, t = Poly.variables(3)
    assert (r - 2 * s * t + Fraction(1, 3)).format("rst") == "r - 2*s*t + 1/3"
    assert ((r + s) * (r + s)).format("rst") == "r^2 + 2*r*s + s^2"
    assert (-r * s - 1).format("rst") == "-r*s - 1"
    assert (r - r).format("rst") == "0"


def test_polynomial_forms_evaluate_like_numeric_forms():
    # wedge and interior on polynomial coefficients, then evaluation, equal
    # the same kernels on the evaluated coefficients
    rng = random.Random(11)
    for _ in range(5):
        coeffs = [random_poly(rng, terms=2, degree=1) for _ in range(20)]
        psi = KForm(6, 3, coeffs)
        x = random_point(rng)
        at = KForm(6, 3, [c(*x) for c in coeffs])
        e = [0, 1, 0, 0, 0, 0]
        got = wedge(interior(e, psi), psi)
        want = wedge(interior(e, at), at)
        assert [c(*x) if isinstance(c, Poly) else c for c in got.c] == want.c
