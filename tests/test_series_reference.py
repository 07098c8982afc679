"""The series arithmetic against a reference kept here: the push-forward
loop, the product, the constructor and the reciprocal's normalization as
they ran in Fraction-or-float arithmetic before the exact rows moved to
reduced integers, copied verbatim.

On rational series every operation must give the reference's Fractions, key
for key and in the same order; on float (or mixed) series it must give the
reference's float bits.  The series carry log powers, negative and
``Fraction`` exponents, and ``exp`` and ``pow_fraction`` run the
push-forward in its ``integrate`` mode.
"""

from contextlib import contextmanager
from fractions import Fraction as F
from numbers import Rational
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kepler_balance import series
from kepler_balance.series import PowerLogSeries as S


def reference_push_forward(step, order, integrate=False):
    steps = sorted(step, key=lambda kv: kv[0][0])
    pending = {0: {0: F(1)}}  # exponent -> {log power: coefficient}
    out = {}
    while pending:
        e = min(pending)
        row = pending.pop(e)
        row = {j: c / e if integrate and e != 0 else c for j, c in row.items() if c != 0}
        if not row:
            continue
        for j, c in row.items():
            out[(e, j)] = c
        for (a, js), cs in steps:
            e2 = e + a
            if e2 > order:
                break
            target = pending.setdefault(e2, {})
            for j, c in row.items():
                target[j + js] = target.get(j + js, 0) + cs * c
    return out


def reference_mul(self, other):
    if isinstance(other, (int, float, F)):
        return S(
            {k: c * other for k, c in self.terms.items()}, self.order
        )
    if not isinstance(other, S):
        return NotImplemented
    a0, b0 = self.min_power(), other.min_power()
    if a0 is series._INF or b0 is series._INF:
        return S.zero(min(self.order, other.order))
    # the first unknown power of the product, less one
    order = min(self.order + 1 + b0, other.order + 1 + a0) - 1
    out = {}
    for (a1, j1), c1 in self.terms.items():
        for (a2, j2), c2 in other.terms.items():
            a = a1 + a2
            if a > order:
                continue
            k = (a, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return S(out, order)


def reference_init(self, terms=None, order=series.DEFAULT_ORDER):
    if isinstance(order, F) and order.denominator == 1:
        order = int(order)
    self.order = order
    self.terms = {}
    if terms:
        for (a, j), c in terms.items():
            a = series._as_power(a)
            if j < 0 or int(j) != j:
                raise ValueError("log powers must be nonnegative integers")
            if c != 0 and a <= order:
                self.terms[(a, int(j))] = self.terms.get((a, int(j)), 0) + c
        self.terms = {k: v for k, v in self.terms.items() if v != 0}


def reference_one_plus_u(self):
    if not self.terms:
        raise series.NormalizationError("cannot invert the zero series")
    a0 = self.min_power()
    lead = [(j, c) for (a, j), c in self.terms.items() if a == a0]
    if len(lead) != 1 or lead[0][0] != 0:
        raise series.NormalizationError("leading slice must be a single log-free monomial")
    c0 = F(lead[0][1]) if isinstance(lead[0][1], Rational) else lead[0][1]
    u = S(
        {(a - a0, j): c / c0 for (a, j), c in self.terms.items() if a != a0}, self.order - a0
    )
    return a0, c0, u


def reference_reciprocal(self):
    a0, c0, u = self._one_plus_u()
    inv_c0 = F(1) / c0 if isinstance(c0, Rational) else 1.0 / c0
    rows = series._push_forward(((k, -c) for k, c in u.terms.items()), u.order)
    return S(
        {(e - a0, j): c * inv_c0 for (e, j), c in rows.items()}, u.order - a0
    )


@contextmanager
def reference_arithmetic():
    with mock.patch.object(series, "_push_forward", reference_push_forward), \
            mock.patch.object(S, "__init__", reference_init), \
            mock.patch.object(S, "__mul__", reference_mul), \
            mock.patch.object(S, "__rmul__", reference_mul), \
            mock.patch.object(S, "_one_plus_u", reference_one_plus_u), \
            mock.patch.object(S, "reciprocal", reference_reciprocal):
        yield


def bits(terms):
    """Terms in order, with each value's type and, for a float, its bits."""
    return [(k, type(c), c.hex() if isinstance(c, float) else c) for k, c in terms.items()]


def same_as_reference(op, *args):
    result = got = op(*args)
    with reference_arithmetic():
        want = op(*args)
    if isinstance(got, S):
        assert got.order == want.order
        got, want = got.terms, want.terms
    assert bits(got) == bits(want)
    return result


# positive exponents on the halves and thirds; ``monomial_led`` shifts them to
# a negative or fractional leading power
POWERS = st.integers(1, 12).map(lambda h: F(h, 2)) | st.integers(1, 6).map(lambda h: F(h, 3))
RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=9) | st.integers(-3, 3)
FLOAT = st.floats(min_value=-3, max_value=3, allow_nan=False, width=64)
MIXED = RATIONAL | FLOAT


@st.composite
def small(draw, coeffs=RATIONAL):
    """u with positive exponents and log powers 0..2, known through X^K."""
    K = F(draw(st.integers(1, 12)), 2)
    terms = draw(st.dictionaries(st.tuples(POWERS, st.integers(0, 2)), coeffs, max_size=7))
    return S(terms, K)


@st.composite
def monomial_led(draw, coeffs=RATIONAL):
    """A = c0 X^a0 (1 + u) with a0 possibly negative or fractional."""
    a0 = F(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 3])))
    c0 = draw(coeffs.filter(lambda c: c != 0))
    u = draw(small(coeffs))
    terms = {(a0, 0): c0}
    for (e, j), c in u.terms.items():
        terms[(a0 + e, j)] = c0 * c
    return S(terms, a0 + u.order)


SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


@SETTINGS
@given(monomial_led(), monomial_led())
def test_exact_products_and_reciprocals(A, B):
    inv = same_as_reference(S.reciprocal, A)
    assert all(type(c) is F for c in inv.terms.values())
    same_as_reference(S.__mul__, A, B)
    same_as_reference(S.__mul__, A, inv)


@SETTINGS
@given(small(), st.sampled_from([F(1, 2), F(-1, 3), F(2, 3), F(-5, 2), 3]))
def test_exact_exp_log_and_powers(u, alpha):
    same_as_reference(S.exp, u)
    same_as_reference(S.log, 1 + u)
    same_as_reference(S.pow_fraction, 1 + u, alpha)
    same_as_reference(S.pow_fraction, (1 + u) * F(-8, 27), F(1, 3))


@SETTINGS
@given(monomial_led(MIXED), monomial_led(MIXED))
def test_float_products_and_reciprocals_keep_their_bits(A, B):
    same_as_reference(S.reciprocal, A)
    same_as_reference(S.__mul__, A, B)


@SETTINGS
@given(small(MIXED), st.sampled_from([F(1, 2), F(-1, 3), 0.75]))
def test_float_exp_log_and_powers_keep_their_bits(u, alpha):
    same_as_reference(S.exp, u)
    same_as_reference(S.log, 1 + u)
    same_as_reference(S.pow_fraction, 1 + u, alpha)


@SETTINGS
@given(
    st.lists(st.tuples(POWERS | st.sampled_from([0.5, 1.25, 2.0]), st.integers(0, 2), MIXED),
             max_size=7),
    st.integers(0, 12).map(lambda h: F(h, 2)),
    st.booleans(),
)
def test_push_forward_matches_reference(raw, order, integrate):
    # float exponents too, which with ``integrate`` turn a row's division float
    step = {(a, j): c for a, j, c in raw}
    same_as_reference(lambda: series._push_forward(step.items(), order, integrate))


@pytest.mark.parametrize("lead", [1.0, F(1), 1, F(3, 2), 2.0])
@pytest.mark.parametrize("rest", [F(1, 3), 1, 0.25])
def test_reciprocal_and_log_with_mixed_leading_coefficient(lead, rest):
    # a float 1.0 lead turns an exact remainder float; an exact 1 leaves it
    A = S({(0, 0): lead, (F(1, 2), 0): rest, (1, 1): F(-2, 5)}, 4)
    same_as_reference(S.reciprocal, A)
    if lead == 1:
        same_as_reference(S.log, A)
        same_as_reference(S.pow_fraction, A, F(-2, 3))

