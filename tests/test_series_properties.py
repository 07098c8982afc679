"""Property tests for ``PowerLogSeries.reciprocal``: its recurrence against the
product identity and against the geometric sum sum_n (-u)^n.

These are the only tests that reach the recurrence's log-power rows: no
density or workload has log terms in its moment expansion.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from kepler_balance.series import PowerLogSeries as S

HALVES = st.integers(-4, 4).map(lambda h: F(h, 2))
COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@st.composite
def monomial_led(draw):
    """A = c0 X^a0 (1 + u), exact, known through X^(a0 + K), with u's
    exponents in (0, K] on the half-integers and its log powers in 0..2."""
    a0 = draw(HALVES)
    c0 = draw(COEFFS.filter(lambda c: c != 0))
    K = F(draw(st.integers(1, 8)), 2)
    u_terms = draw(st.dictionaries(
        st.tuples(st.integers(1, 2 * K).map(lambda h: F(h, 2)), st.integers(0, 2)),
        COEFFS, max_size=6))
    terms = {(a0, 0): c0}
    for (e, j), c in u_terms.items():
        terms[(a0 + e, j)] = c0 * c
    return S(terms, a0 + K)


SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)


@SETTINGS
@given(monomial_led())
def test_reciprocal_times_series_is_one(A):
    inv = A.reciprocal()
    assert inv.is_rational()
    prod = A * inv - 1
    assert prod.order == A.order - A.min_power()
    assert not prod.terms


@SETTINGS
@given(monomial_led())
def test_reciprocal_matches_geometric_sum(A):
    a0, c0, u = A._one_plus_u()
    geometric = S.const(F(1), u.order) + u._power_sum(lambda n: (-1) ** n)
    inv = A.reciprocal()
    assert inv.order == geometric.order - a0
    assert inv.terms == {(a - a0, j): c / c0 for (a, j), c in geometric.terms.items()}
    assert all(type(a) is int or a.denominator != 1 for a, _j in inv.terms)
