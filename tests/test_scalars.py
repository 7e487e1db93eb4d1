from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nk6.scalars import (
    QSqrt3, SQRT3, exact_div, exact_sqrt, is_zero, lattice_zero, lift,
    parse_rational, sqrt_scalar)


def test_field_operations():
    a = QSqrt3(Fraction(1, 2), Fraction(-2, 3))
    b = QSqrt3(3, Fraction(1, 5))
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a * b) / b == a
    assert a * a.inverse() == 1
    assert -(-a) == a
    assert a - a == 0


def test_mixed_arithmetic_with_rationals():
    a = QSqrt3(0, 1)
    assert a * a == 3
    assert 2 + a == QSqrt3(2, 1)
    assert Fraction(1, 2) * a == QSqrt3(0, Fraction(1, 2))
    assert 1 / a == QSqrt3(0, Fraction(1, 3))
    assert (a ** 3) == QSqrt3(0, 3)


def test_exact_sign_and_comparisons():
    # 1.732... : 7/4 > sqrt(3) > 12/7
    assert SQRT3 < Fraction(7, 4)
    assert SQRT3 > Fraction(12, 7)
    assert QSqrt3(-2, 1) < 0 < QSqrt3(-1, 1)
    assert abs(QSqrt3(-2, 1)) == QSqrt3(2, -1)
    assert QSqrt3(Fraction(1), Fraction(0)) == 1


def test_exact_sqrt_rational_cases():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(1, 27)) == QSqrt3(0, Fraction(1, 9))
    assert exact_sqrt(Fraction(3)) == SQRT3
    assert exact_sqrt(Fraction(2)) is None
    assert exact_sqrt(Fraction(0)) == 0


def test_exact_sqrt_general_element():
    x = QSqrt3(Fraction(7), Fraction(4))  # (2 + sqrt3)^2 = 7 + 4 sqrt3
    r = exact_sqrt(x)
    assert r == QSqrt3(2, 1)
    assert exact_sqrt(QSqrt3(1, 1)) is None


def test_sqrt_scalar_falls_back_to_float():
    v = sqrt_scalar(Fraction(2))
    assert isinstance(v, float)
    assert v == pytest.approx(2 ** 0.5)
    with pytest.raises(ValueError):
        sqrt_scalar(-1)


def test_exact_div_keeps_ints_exact():
    assert exact_div(1, 3) == Fraction(1, 3)
    assert isinstance(exact_div(1, 3), Fraction)
    assert exact_div(1.0, 2) == 0.5


def test_zero_policy_compares_exact_entries_exactly():
    assert not is_zero(Fraction(1, 10**30), tol=1e-10)
    assert not lattice_zero(lift([0, Fraction(1, 10**30)]), tol=1e-10)
    assert is_zero(QSqrt3(0, 0))
    assert not is_zero(QSqrt3(0, Fraction(1, 10**30)), tol=1e-10)
    assert lattice_zero(lift([0, Fraction(0), QSqrt3(0, 0), 0]))


def test_zero_policy_compares_float_data_by_max_abs():
    assert is_zero(1e-12, tol=1e-10)
    assert not is_zero(1e-12)
    assert lattice_zero(lift([0, 1e-12]), tol=1e-10)
    # one float entry puts the whole collection under the tolerance
    assert lattice_zero(lift([Fraction(1, 10**30), 1e-12]), tol=1e-10)
    assert not lattice_zero(lift([0.0, 2e-10]), tol=1e-10)


def test_zero_policy_never_calls_nan_zero():
    nan = float("nan")
    assert not is_zero(nan, tol=1e300)
    assert not lattice_zero(lift([0.0, nan]), tol=1.0)
    assert not lattice_zero(lift([nan, 0.0]), tol=1.0)


# -- parse_rational: the ASCII fast path agrees with Fraction(text) ------------
def _outcome(parse, text):
    try:
        value = parse(text)
    except Exception as ex:   # the type and message must agree too
        return type(ex), str(ex)
    assert type(value) is Fraction
    return value


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(st.one_of(
    st.text(),
    st.text(alphabet="0123456789-+/ ._e", max_size=12),
    st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True)))
def test_parse_rational_agrees_with_fraction(text):
    assert _outcome(parse_rational, text) == _outcome(Fraction, text)


@pytest.mark.parametrize("text", ["1/0", "-0/0", "-5/0", "007", "-0", "1_0",
                                  " 1", "1.5", "+1", "1/-2", "", "/", "٣"])
def test_parse_rational_edge_cases(text):
    assert _outcome(parse_rational, text) == _outcome(Fraction, text)
