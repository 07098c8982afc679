import math
from fractions import Fraction as F

import pytest

from kepler_balance.errors import NormalizationError
from kepler_balance.series import PowerLogSeries as S
from kepler_balance.series import nth_root_fraction


def test_exp_log_roundtrip():
    L = S.variable(10)
    e = L.exp()
    assert [e.coeff(i) for i in range(5)] == [1, 1, F(1, 2), F(1, 6), F(1, 24)]
    back = e.log()
    assert back.coeff(1) == 1
    assert all(back.coeff(i) == 0 for i in (0, 2, 3, 4))


def test_reciprocal_geometric():
    L = S.variable(8)
    g = (S.const(F(1), 8) - L).reciprocal()
    assert all(g.coeff(i) == 1 for i in range(8))
    # product is 1 to the stored order
    prod = g * (S.const(F(1), 8) - L)
    assert prod.coeff(0) == 1
    assert all(prod.coeff(i) == 0 for i in range(1, prod.order + 1))


def test_laurent_reciprocal():
    L = S.variable(8)
    h = (L * (S.const(F(1), 8) + L)).reciprocal()
    assert h.coeff(F(-1)) == 1
    assert h.coeff(0) == -1
    assert h.coeff(1) == 1


def test_pow_fraction_exact():
    one = S.const(F(1), 10)
    L = S.variable(10)
    a = (one + L).pow_fraction(F(1, 3))
    b = (one + L).pow_fraction(F(2, 3))
    prod = a * b
    assert prod.coeff(0) == 1
    assert prod.coeff(1) == 1
    assert all(prod.coeff(i) == 0 for i in range(2, prod.order + 1))
    assert prod.is_rational()


def test_pow_fraction_monomial_leading():
    L = S.variable(9)
    # (4 L^2 (1+L))^(1/2) = 2 L (1+L)^(1/2)
    ser = ((L * L) * (S.const(F(4), 9) + L * 4)).pow_fraction(F(1, 2))
    assert ser.coeff(1) == 2
    assert ser.coeff(2) == 1


def test_deriv_with_logs():
    # d/dX [X^2 log(1/X)] = 2X log(1/X) - X
    d = S({(F(2), 1): F(1)}, 8).deriv()
    assert d.coeff(1, 1) == 2
    assert d.coeff(1, 0) == -1


def test_mul_order_propagation():
    a = S.from_power_coeffs([1, 1], order=2)   # 1 + X, known through X^2
    b = S.variable(5)                           # X known through X^5
    prod = a * b
    assert prod.order == 3  # unknown X^3 of a times X shifts to X^4


def test_exp_requires_vanishing():
    with pytest.raises(NormalizationError):
        S.const(F(1), 5).exp()


def test_reciprocal_requires_monomial_lead():
    bad = S({(F(0), 1): F(1)}, 5)  # leading term carries a log
    with pytest.raises(NormalizationError):
        bad.reciprocal()


def test_evaluate_log_space_path():
    # coefficient 1/600! at X^600 times X = 6: representable product even
    # though 6^600 and 600! overflow separately
    ser = S({(F(600), 0): F(1, math.factorial(600)), (F(0), 0): F(1)}, 600)
    val = ser.evaluate(6.0)
    expected = 1.0 + math.exp(600 * math.log(6.0) - math.lgamma(601))
    assert val == pytest.approx(expected, rel=1e-12)


def test_nth_root_fraction():
    assert nth_root_fraction(F(4, 9), 2) == F(2, 3)
    assert nth_root_fraction(F(8, 27), 3) == F(2, 3)
    assert nth_root_fraction(F(2), 2) is None


def test_nth_root_fraction_beyond_float_range():
    # the roots come from integer roots, not from a float guess
    big = 10 ** 30 + 7
    assert nth_root_fraction(F(big ** 2), 2) == big
    assert nth_root_fraction(F(big ** 2 + 1), 2) is None
    assert nth_root_fraction(F(10 ** 400), 2) == 10 ** 200
    assert nth_root_fraction(F(7 ** 3, 5 ** 60), 3) == F(7, 5 ** 20)
    assert nth_root_fraction(F(7 ** 3, 5 ** 60 + 1), 3) is None
    assert nth_root_fraction(F(3 ** 35), 5) == 3 ** 7


def test_pow_fraction_exact_with_large_leading_coefficient():
    L = S.variable(6)
    big = 10 ** 30 + 7
    root = ((S.const(F(1), 6) + L) * big ** 2).pow_fraction(F(1, 2))
    assert root.is_rational()
    assert root.coeff(0) == big and root.coeff(1) == F(big, 2)


def test_integral_exponents_are_int():
    # integral rational exponents are stored as int, whatever type came in
    ser = S({(F(2), 0): F(1), (F(1, 2), 0): F(1), (F(3, 2), 1): F(1)}, 6)
    prod = ser * ser
    assert {(1, 0), (2, 1), (3, 2)} <= set(prod.terms)
    for (a, _j) in list(ser.terms) + list(prod.terms) + list(ser.reciprocal().terms):
        assert type(a) is int or a.denominator != 1
    assert type(S.from_power_coeffs([1, 2, 3], start=-1).min_power()) is int


def test_pow_fraction_negative_lead_odd_root():
    # (-8 + L)^(1/3) = -2 (1 - L/8)^(1/3): the real cube root, exact
    L = S.variable(6)
    root = (S.const(F(-8), 6) + L).pow_fraction(F(1, 3))
    assert root.is_rational()
    assert root.coeff(0) == -2 and root.coeff(1) == F(1, 12)
    assert ((root * root * root) - (S.const(F(-8), 6) + L)).terms == {}
    # (-8 + L)^(-2/3) is positive; a float lead takes the real root too
    assert (S.const(F(-8), 6) + L).pow_fraction(F(-2, 3)).coeff(0) == F(1, 4)
    assert (S.const(-8.0, 6) + L).pow_fraction(F(1, 3)).coeff(0) == -2.0
    # no rational cube root: the real float root
    assert (S.const(F(-2), 6) + L).pow_fraction(F(1, 3)).coeff(0) == -(2.0 ** (1 / 3))


@pytest.mark.parametrize("lead", [F(-2), -2.0])
@pytest.mark.parametrize("alpha", [F(1, 2), 0.5, F(3, 4)])
def test_pow_fraction_negative_lead_even_root_raises(lead, alpha):
    L = S.variable(6)
    with pytest.raises(NormalizationError):
        (S.const(lead, 6) + L).pow_fraction(alpha)


def test_truncate_keeps_the_order_it_knows():
    a = S.from_power_coeffs([F(1), F(2), F(3)], order=2)
    assert a.truncate(9).order == 2 and a.truncate(9).terms == a.terms
    assert a.truncate(1).order == 1 and a.truncate(1).coeff(2) == 0


def test_integer_series_stay_exact():
    one_plus_x = S.from_power_coeffs([1, 1], order=4)
    inv = one_plus_x.reciprocal()
    assert inv.is_rational()
    assert [inv.coeff(i) for i in range(5)] == [1, -1, 1, -1, 1]
    assert all(type(c) is F for c in inv.terms.values())
    log = one_plus_x.log()
    assert log.is_rational() and log.coeff(4) == F(-1, 4)
    e = S.from_power_coeffs([0, 1, 3], order=5).exp()
    assert e.is_rational() and e.coeff(2) == F(1, 2) + 3
    # 2 + X = 2 (1 + X/2): the unit part is exact, the lead sqrt(2) is not
    _a0, _c0, u = S.from_power_coeffs([2, 1], order=4)._one_plus_u()
    assert u.terms == {(1, 0): F(1, 2)} and type(u.coeff(1)) is F
    root = S.from_power_coeffs([4, 1], order=4).pow_fraction(F(1, 2))
    assert root.is_rational()
    assert [root.coeff(i) for i in range(3)] == [2, F(1, 4), F(-1, 64)]
