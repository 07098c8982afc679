"""Truncated bi-graded power-log expansions with exact or floating coefficients.

A :class:`PowerLogSeries` is a finite sum

    sum_{(a, j)} c[a, j] * X**a * log(1/X)**j

in a formal small variable ``X``, truncated at a known order: terms with
``a > order`` are unknown (not zero).  Powers ``a`` may be negative and
rational or floating: an integral rational power is kept as ``int``, any
other rational one as ``Fraction``, so the common integer keys hash, add and
compare as ints.  Log-powers ``j`` are nonnegative integers.  Coefficients
stay ``Fraction`` as long as every input is rational, so chains of
operations can be checked identically.

``reciprocal`` solves B = 1 - u B for 1/(1 + u) one exponent at a time, in
O(n^2) coefficient operations for n terms; ``log`` and ``exp`` sum their
power series through ``_power_sum``.

The same type serves two variables elsewhere:

* X = L = log(1/t), boundary expansions at t = 1;
* X = 1/(k+1), large-index moment asymptotics, where log(1/X) = log(k+1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from .errors import NormalizationError

DEFAULT_ORDER = 12

_INF = float("inf")


def _as_power(a):
    """Normalize an exponent: int when integral, Fraction when otherwise
    rational, float as given."""
    if isinstance(a, (int, float)):
        return a
    if isinstance(a, Rational):
        a = Fraction(a)
        return a.numerator if a.denominator == 1 else a
    raise TypeError(f"bad exponent type: {type(a)!r}")


def _integer_root(n: int, q: int) -> int:
    """floor(n^(1/q)) for an int n >= 0: math.isqrt for q = 2, otherwise
    Newton's method in integers from a start above the root."""
    if n < 2:
        return n
    if q == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // q)
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            return x
        x = y


def nth_root_fraction(x: Fraction, q: int):
    """Exact q-th root of a nonnegative Fraction, or None if irrational.

    A Fraction is in lowest terms, so its root is rational exactly when its
    numerator and denominator are both q-th powers of integers."""
    if x < 0:
        return None
    x = Fraction(x)
    num = _integer_root(x.numerator, q)
    den = _integer_root(x.denominator, q)
    if num ** q == x.numerator and den ** q == x.denominator:
        return Fraction(num, den)
    return None


class PowerLogSeries:
    """Finite expansion sum c[a,j] X^a (log 1/X)^j, truncated past ``order``."""

    __slots__ = ("terms", "order")

    def __init__(self, terms=None, order=DEFAULT_ORDER):
        if isinstance(order, Fraction) and order.denominator == 1:
            order = int(order)
        self.order = order
        self.terms = {}
        if terms:
            for (a, j), c in terms.items():
                a = _as_power(a)
                if j < 0 or int(j) != j:
                    raise ValueError("log powers must be nonnegative integers")
                if c != 0 and a <= order:
                    self.terms[(a, int(j))] = self.terms.get((a, int(j)), 0) + c
            self.terms = {k: v for k, v in self.terms.items() if v != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order=DEFAULT_ORDER):
        return cls({}, order)

    @classmethod
    def const(cls, c, order=DEFAULT_ORDER):
        return cls({(0, 0): c}, order)

    @classmethod
    def variable(cls, order=DEFAULT_ORDER):
        return cls({(1, 0): Fraction(1)}, order)

    @classmethod
    def from_power_coeffs(cls, coeffs, order=None, start=0):
        """Plain power series from a coefficient list: coeffs[i] * X^(start+i)."""
        if order is None:
            order = start + len(coeffs) - 1
        return cls({(start + i, 0): c for i, c in enumerate(coeffs)}, order)

    # -- inspection ---------------------------------------------------

    def coeff(self, a, j=0):
        return self.terms.get((_as_power(a), j), Fraction(0))

    def min_power(self):
        if not self.terms:
            return _INF
        return min(a for (a, _j) in self.terms)

    def max_log_power(self):
        return max((j for (_a, j) in self.terms), default=0)

    def is_log_free(self):
        return self.max_log_power() == 0

    def is_rational(self):
        return all(isinstance(c, Rational) for c in self.terms.values()) and all(
            not isinstance(a, float) for (a, _j) in self.terms
        )

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def __repr__(self):
        if not self.terms:
            return f"PowerLogSeries(0; order={self.order})"
        bits = []
        for (a, j), c in self.items_sorted()[:8]:
            piece = f"{c}*X^{a}"
            if j:
                piece += f"*log(1/X)^{j}"
            bits.append(piece)
        if len(self.terms) > 8:
            bits.append("...")
        return f"PowerLogSeries({' + '.join(bits)}; order={self.order})"

    # -- ring operations ----------------------------------------------

    def truncate(self, order):
        return PowerLogSeries(
            {k: c for k, c in self.terms.items() if k[0] <= order}, order
        )

    def __neg__(self):
        return PowerLogSeries({k: -c for k, c in self.terms.items()}, self.order)

    def _coerce(self, other):
        if isinstance(other, PowerLogSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return PowerLogSeries.const(Fraction(other), self.order)
        if isinstance(other, float):
            return PowerLogSeries.const(other, self.order)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.order, other.order)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return PowerLogSeries(out, order)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return PowerLogSeries(
                {k: c * other for k, c in self.terms.items()}, self.order
            )
        if not isinstance(other, PowerLogSeries):
            return NotImplemented
        # first unknown power of the product
        a0 = self.min_power()
        b0 = other.min_power()
        if a0 is _INF and b0 is _INF:
            return PowerLogSeries.zero(min(self.order, other.order))
        ua = self.order + 1 if a0 is not _INF else _INF
        ub = other.order + 1 if b0 is not _INF else _INF
        unknown = min(
            (ua + b0) if ua is not _INF else _INF,
            (ub + a0) if ub is not _INF else _INF,
        )
        order = unknown - 1 if unknown is not _INF else min(self.order, other.order)
        out = {}
        for (a1, j1), c1 in self.terms.items():
            for (a2, j2), c2 in other.terms.items():
                a = a1 + a2
                if a > order:
                    continue
                k = (a, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return PowerLogSeries(out, order)

    __rmul__ = __mul__

    def deriv(self):
        """Formal d/dX.  d/dX [X^a log(1/X)^j] = a X^(a-1) log^j - j X^(a-1) log^(j-1)."""
        out = {}
        for (a, j), c in self.terms.items():
            k1 = (a - 1, j)
            out[k1] = out.get(k1, 0) + c * a
            if j >= 1:
                k2 = (a - 1, j - 1)
                out[k2] = out.get(k2, 0) - c * j
        return PowerLogSeries(out, self.order - 1)

    # -- leading-term helpers ------------------------------------------

    def _leading_monomial(self):
        """(a0, c0) of the unique minimal-power term; requires log-free leading slice."""
        if not self.terms:
            raise NormalizationError("cannot invert the zero series")
        a0 = self.min_power()
        lead = [(j, c) for (a, j), c in self.terms.items() if a == a0]
        if len(lead) != 1 or lead[0][0] != 0:
            raise NormalizationError(
                "leading slice must be a single log-free monomial"
            )
        return a0, lead[0][1]

    def _one_plus_u(self):
        """Split A = c0 X^a0 (1 + u) and return (a0, c0, u) with min_power(u) > 0."""
        a0, c0 = self._leading_monomial()
        shifted = {}
        for (a, j), c in self.terms.items():
            if (a, j) == (a0, 0):
                continue
            shifted[(a - a0, j)] = c / c0
        u = PowerLogSeries(shifted, self.order - a0)
        if u.terms and u.min_power() <= 0:
            raise NormalizationError("series is not monomial-led")
        return a0, c0, u

    def _shift(self, da):
        return PowerLogSeries(
            {(a + da, j): c for (a, j), c in self.terms.items()}, self.order + da
        )

    def _power_sum(self, coeff):
        """sum_{n>=1} coeff(n) A^n for A with positive minimal power, through
        this order (the powers stop once A^n has no known term left)."""
        acc = PowerLogSeries.zero(self.order)
        if not self.terms:
            return acc
        nmax = int(math.floor(float(self.order) / float(self.min_power()))) + 1
        term = PowerLogSeries.const(Fraction(1), self.order)
        for n in range(1, nmax + 1):
            term = (term * self).truncate(self.order)
            if not term.terms:
                break
            acc = acc + term * coeff(n)
        return acc

    def reciprocal(self):
        """1/A for a monomial-led series A = c0 X^a0 (1 + u), through the
        order to which A determines it.

        B = 1/(1 + u) satisfies B = 1 - u B.  Every power of u is positive,
        so the row of B at exponent e (its coefficients over the log powers)
        takes terms only from rows at lower exponents.  The rows are finished
        in increasing e, each at the least pending exponent, and each finished
        row is pushed forward onto e + a for every term of u: O(n^2)
        coefficient operations for n terms, where the geometric sum
        sum_n (-u)^n takes O(n^3).  Exponents are formed only as sums e + a,
        then shifted by -a0.
        """
        a0, c0, u = self._one_plus_u()
        inv_c0 = Fraction(1) / c0 if isinstance(c0, Rational) else 1.0 / c0
        order = u.order
        steps = sorted(u.terms.items(), key=lambda kv: kv[0][0])
        pending = {0: {0: Fraction(1)}}  # exponent -> {log power: coefficient}
        out = {}
        while pending:
            e = min(pending)
            row = {j: c for j, c in pending.pop(e).items() if c != 0}
            if not row:
                continue
            for j, c in row.items():
                out[(e - a0, j)] = c * inv_c0
            for (a, ju), cu in steps:
                e2 = e + a
                if e2 > order:
                    break
                target = pending.setdefault(e2, {})
                for j, c in row.items():
                    target[j + ju] = target.get(j + ju, 0) - cu * c
        return PowerLogSeries(out, order - a0)

    def log(self):
        """log(A) for A = 1 + u with u small; returns log-free-constant + series."""
        a0, c0, u = self._one_plus_u()
        if a0 != 0 or c0 != 1:
            raise NormalizationError("log requires unit leading coefficient")
        return u._power_sum(lambda n: Fraction(-1) ** (n + 1) / Fraction(n))

    def exp(self):
        """exp(A) for A with strictly positive minimal power."""
        if self.terms and self.min_power() <= 0:
            raise NormalizationError("exp requires a series vanishing at X=0")
        return PowerLogSeries.const(Fraction(1), self.order) + self._power_sum(
            lambda n: Fraction(1, math.factorial(n))
        )

    def pow_fraction(self, alpha):
        """A**alpha via exp(alpha log) on the unit part; exact for rational data."""
        alpha = Fraction(alpha) if not isinstance(alpha, float) else alpha
        a0, c0, u = self._one_plus_u()
        unit = PowerLogSeries.const(Fraction(1), u.order)
        body = (unit + u).log() * alpha
        powered = body.exp()
        if c0 == 1:
            c_pow = Fraction(1)
        elif isinstance(c0, Rational) and isinstance(alpha, Fraction):
            root = nth_root_fraction(Fraction(c0), alpha.denominator)
            c_pow = root ** alpha.numerator if root is not None else float(c0) ** float(alpha)
        else:
            c_pow = float(c0) ** float(alpha)
        new_a0 = a0 * alpha
        return (powered * c_pow)._shift(new_a0)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, x, log_inv_x=None):
        """Numeric value at X = x (float).  log(1/X) supplied or computed.

        Terms like c X^a with c ~ 1/a! and x^a overflowing pairwise are
        combined in log space.
        """
        x = float(x)
        if log_inv_x is None:
            log_inv_x = math.log(1.0 / x) if any(j for (_a, j) in self.terms) else 0.0
        lx = math.log(x)
        total = 0.0
        for (a, j), c in self.items_sorted():
            cf = float(c)
            if cf == 0.0:
                continue
            la = float(a) * lx
            if abs(la) > 650.0:
                lt = la + math.log(abs(cf))
                power = 0.0 if lt < -745.0 else math.copysign(math.exp(lt), cf)
            else:
                power = cf * x ** float(a)
            total += power * log_inv_x ** j
        return total

    def evaluate_exact(self, x):
        """Exact evaluation at rational x; requires a log-free rational series."""
        if not self.is_log_free() or not self.is_rational():
            raise NormalizationError("exact evaluation needs a log-free rational series")
        x = Fraction(x)
        return sum(c * x ** a for (a, _j), c in self.terms.items())
