"""Property tests for the push-forward recurrences of ``PowerLogSeries``:
``reciprocal``, ``exp``, ``log`` and ``pow_fraction`` against their power
sums, summed here one product per power, and against identities between them.

These are the only tests that reach the recurrences' log-power rows: no
density or workload has log terms in its series.  hypothesis is a declared
test extra, so a missing hypothesis is a collection error, not a skip.
"""

from fractions import Fraction as F
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from kepler_balance.series import PowerLogSeries as S

HALVES = st.integers(-4, 4).map(lambda h: F(h, 2))
COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=7)
NONZERO = COEFFS.filter(lambda c: c != 0)


def power_sum(u, coeff):
    """sum_{n>=1} coeff(n) u^n for u with positive powers, through u's order,
    one full product per power."""
    acc = S.zero(u.order)
    term = S.const(F(1), u.order)
    n = 0
    while True:
        n += 1
        term = (term * u).truncate(u.order)
        if not term.terms:
            return acc
        acc = acc + term * coeff(n)


def exp_sum(u):
    return S.const(F(1), u.order) + power_sum(u, lambda n: F(1, factorial(n)))


def log_sum(u):
    """log(1 + u)."""
    return power_sum(u, lambda n: F((-1) ** (n + 1), n))


@st.composite
def small(draw):
    """u, exact, known through X^K, with exponents in (0, K] on the
    half-integers and log powers in 0..2."""
    K = F(draw(st.integers(1, 8)), 2)
    terms = draw(st.dictionaries(
        st.tuples(st.integers(1, 2 * K).map(lambda h: F(h, 2)), st.integers(0, 2)),
        COEFFS, max_size=6))
    return S(terms, K)


@st.composite
def monomial_led(draw, lead=NONZERO):
    """A = c0 X^a0 (1 + u), known through X^(a0 + K)."""
    a0 = draw(HALVES)
    c0 = draw(lead)
    u = draw(small())
    terms = {(a0, 0): c0}
    for (e, j), c in u.terms.items():
        terms[(a0 + e, j)] = c0 * c
    return S(terms, a0 + u.order)


SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)


def same(x, y):
    return x.order == y.order and x.terms == y.terms


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
    geometric = S.const(F(1), u.order) + power_sum(u, lambda n: (-1) ** n)
    inv = A.reciprocal()
    assert inv.order == geometric.order - a0
    assert inv.terms == {(a - a0, j): c / c0 for (a, j), c in geometric.terms.items()}
    assert all(type(a) is int or a.denominator != 1 for a, _j in inv.terms)


@SETTINGS
@given(small())
def test_exp_matches_exponential_sum(u):
    assert same(u.exp(), exp_sum(u))


@SETTINGS
@given(small())
def test_log_matches_log_sum(u):
    assert same((1 + u).log(), log_sum(u))


@SETTINGS
@given(small())
def test_log_inverts_exp(u):
    assert same(u.exp().log(), u)


@SETTINGS
@given(NONZERO, st.integers(0, 12))
def test_exp_of_linear_term(a, order):
    # exp(a X) = sum_k a^k X^k / k!
    e = (S.variable(order) * a).exp()
    assert same(e, S({(k, 0): a ** k / factorial(k) for k in range(order + 1)}, order))


@SETTINGS
@given(small(), st.sampled_from([F(1, 2), F(-1, 3), F(2, 3), F(-5, 2), F(7, 4)]))
def test_pow_fraction_matches_exp_log_sums(u, alpha):
    assert same((1 + u).pow_fraction(alpha), exp_sum(log_sum(u) * alpha))


@st.composite
def known_lower(draw, base):
    """(A, B): A from ``base`` and B = A known through a lower order,
    cut on the half-integers between A's lowest exponent and its order."""
    A = draw(base)
    a0 = A.min_power() if A.terms else 0
    cut = a0 + F(draw(st.integers(0, int(2 * (A.order - a0)))), 2)
    return A, A.truncate(cut)


def claims_only_what_it_knows(op, case):
    """op(B) claims no term that op(A) disagrees with: op(A) is known at
    least as far, and agrees with op(B) term for term through op(B)'s order."""
    A, B = case
    hi, lo = op(A), op(B)
    assert hi.order >= lo.order
    assert same(hi.truncate(lo.order), lo)


@SETTINGS
@given(known_lower(monomial_led()), st.sampled_from([
    S.reciprocal, S.deriv, lambda A: A * A, lambda A: A.pow_fraction(F(-2, 3)),
    lambda A: A.truncate(A.order + 3),
]))
def test_results_claim_only_known_terms(case, op):
    claims_only_what_it_knows(op, case)


@SETTINGS
@given(known_lower(small()), st.sampled_from([S.exp, lambda u: (1 + u).log()]))
def test_exp_and_log_claim_only_known_terms(case, op):
    claims_only_what_it_knows(op, case)


@st.composite
def root_and_power(draw):
    """(A, p, q) with c0 a q-th power (negative only for odd q), so that
    A^(p/q) is exact."""
    p, q = draw(st.sampled_from([(1, 2), (-1, 2), (1, 3), (-2, 3), (3, 2), (-1, 5)]))
    root = draw(NONZERO if q % 2 else NONZERO.map(abs))
    return draw(monomial_led(st.just(root ** q))), p, q


def power(A, n):
    """A^n by products, through the reciprocal for n < 0."""
    base = A if n > 0 else A.reciprocal()
    out = base
    for _ in range(abs(n) - 1):
        out = out * base
    return out


@SETTINGS
@given(root_and_power())
def test_pow_fraction_to_the_q_is_power_p(case):
    A, p, q = case
    root = A.pow_fraction(F(p, q))
    assert root.is_rational()
    lhs, rhs = power(root, q), power(A, p)
    order = min(lhs.order, rhs.order)
    assert lhs.truncate(order).terms == rhs.truncate(order).terms
