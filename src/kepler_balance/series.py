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

One push-forward loop (``_push_forward``) solves every nonlinear operation
one exponent at a time, in O(n^2) coefficient operations for n terms.
``reciprocal`` solves B = 1 - u B.  ``exp`` and ``log`` use the derivation
D = X d/dX taken at fixed log(1/X), which multiplies each term by its
exponent: exp(A) solves D B = (D A) B, log(1 + u) is D^-1 of
(D u)/(1 + u), and ``pow_fraction`` is exp(alpha log).  D^-1 is a division
by the exponent, so a row with log powers is never solved by back
substitution.

Exact coefficients are multiplied and summed in integers, and become
Fractions once per coefficient.  The push-forward keeps each finished row
as reduced numerator/denominator ints, the step series over one common
denominator, and finishes a coefficient with one lcm over its terms' row
denominators and one gcd; a product of two rational series takes each
factor over one common denominator and one gcd per coefficient.  The
results are the Fractions that Fraction arithmetic gives.  Float (or mixed
float and rational) coefficients keep their arithmetic and summation order,
so every float result keeps its bits.

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


def _exact_one(c):
    """c is the rational 1: dividing or multiplying a coefficient by it
    changes no value and no float's bits, so the step can be skipped (not so
    for a float 1.0, which turns a Fraction into a float)."""
    return isinstance(c, Fraction) and c == 1


def _over_one_denominator(coeffs):
    """Rationals as ints over their least common denominator q: (nums, q)."""
    coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    q = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (q // c.denominator) for c in coeffs], q


def _push_forward(step, order, integrate=False):
    """Terms {(e, j): c} through X^order of B = 1 + S B, or with
    ``integrate`` of D B = S B and B = 1 at X^0, for the series S with the
    terms ((a, j), c) in ``step``, every a > 0.

    The row of B at exponent e (its coefficients over the log powers) takes
    terms only from rows at lower exponents.  The rows are finished in
    increasing e (divided by e to undo D if asked), and each is pushed
    forward onto e + a for every term of S: O(n^2) coefficient operations
    for n terms (Brent and Kung, J. ACM 25, 1978).

    A pushed term is a (num, den) pair, listed under its target coefficient
    in the order pushed.  When every coefficient of S is rational (and,
    with ``integrate``, no exponent is a float), the pairs are ints: S is
    taken once over its least common denominator q, a finished row keeps
    each coefficient as its reduced numerator n and denominator d, and the
    push of S's term N/q onto it is (N n, d), read as N n / (q d).
    Finishing a coefficient takes one lcm over its terms' row denominators
    and one gcd: the Fraction of the summed numerator over that lcm times q
    (and e).  The Fractions are those of Fraction arithmetic, without a gcd
    per product and per sum.  Otherwise a term is (c_S c, 1), multiplied
    as Fraction or float, and a coefficient adds its terms one by one from
    0 in the order pushed: float rows keep their arithmetic and its bits.
    """
    steps = sorted(step, key=lambda kv: kv[0][0])
    coeffs = [c for _k, c in steps]
    exact = all(isinstance(c, Rational) for c in coeffs) and not (
        integrate and any(isinstance(a, float) for (a, _j), _c in steps)
    )
    if exact:
        coeffs, q = _over_one_denominator(coeffs)
        seed = q  # 1 = q / q
    else:
        seed = Fraction(1)
    steps = [(a, js, c) for ((a, js), _c), c in zip(steps, coeffs)]
    pending = {0: {0: [(seed, 1)]}}  # exponent -> {log power: [(num, den), ...]}
    out = {}
    while pending:
        e = min(pending)
        div = e if integrate and e != 0 else None
        if exact:
            over = q if div is None else q * div
        row = {}
        for j, parts in pending.pop(e).items():
            if exact:
                den = math.lcm(*[d for _n, d in parts])
                num = sum([n * (den // d) for n, d in parts])
                c = Fraction(num * over.denominator, den * over.numerator)
            else:
                c = 0
                for n, _d in parts:
                    c = c + n
                if div is not None:
                    c = c / div
            if c != 0:
                out[(e, j)] = c
                row[j] = (c.numerator, c.denominator) if exact else (c, 1)
        if not row:
            continue
        for a, js, cs in steps:
            e2 = e + a
            if e2 > order:
                break
            target = pending.setdefault(e2, {})
            for j, (n, d) in row.items():
                target.setdefault(j + js, []).append((cs * n, d))
    return out


class PowerLogSeries:
    """Finite expansion sum c[a,j] X^a (log 1/X)^j, truncated past ``order``."""

    __slots__ = ("terms", "order")

    def __init__(self, terms=None, order=DEFAULT_ORDER):
        if isinstance(order, Fraction) and order.denominator == 1:
            order = int(order)
        self.order = order
        self.terms = {}
        # normalizing keeps each exponent's value, so distinct keys stay distinct
        for (a, j), c in (terms or {}).items():
            a = _as_power(a)
            if j < 0 or int(j) != j:
                raise ValueError("log powers must be nonnegative integers")
            if c != 0 and a <= order:
                self.terms[(a, int(j))] = c

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

    def is_log_free(self):
        return all(j == 0 for (_a, j) in self.terms)

    def _rational_coeffs(self):
        return all(isinstance(c, Rational) for c in self.terms.values())

    def is_rational(self):
        return self._rational_coeffs() and all(
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
        """The terms through X^order, never past the series' own order."""
        order = min(order, self.order)
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
        a0, b0 = self.min_power(), other.min_power()
        if a0 is _INF or b0 is _INF:
            return PowerLogSeries.zero(min(self.order, other.order))
        # the first unknown power of the product, less one
        order = min(self.order + 1 + b0, other.order + 1 + a0) - 1
        # exact coefficients multiply as ints over one denominator per
        # factor: one gcd per coefficient of the product
        exact = self._rational_coeffs() and other._rational_coeffs()
        left, right = self.terms.values(), other.terms.values()
        if exact:
            left, q1 = _over_one_denominator(left)
            right, q2 = _over_one_denominator(right)
        right = list(zip(other.terms, right))
        out = {}
        for (a1, j1), c1 in zip(self.terms, left):
            for (a2, j2), c2 in right:
                a = a1 + a2
                if a > order:
                    continue
                k = (a, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        if exact:
            q = q1 * q2
            out = {k: Fraction(c, q) for k, c in out.items()}
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

    def _one_plus_u(self):
        """Split A = c0 X^a0 (1 + u) and return (a0, c0, u) with min_power(u) > 0;
        the leading slice must be a single log-free monomial."""
        if not self.terms:
            raise NormalizationError("cannot invert the zero series")
        a0 = self.min_power()
        lead = [(j, c) for (a, j), c in self.terms.items() if a == a0]
        if len(lead) != 1 or lead[0][0] != 0:
            raise NormalizationError("leading slice must be a single log-free monomial")
        c0 = Fraction(lead[0][1]) if isinstance(lead[0][1], Rational) else lead[0][1]
        u = {(a - a0, j): c for (a, j), c in self.terms.items() if a != a0}
        if not _exact_one(c0):
            u = {k: c / c0 for k, c in u.items()}
        return a0, c0, PowerLogSeries(u, self.order - a0)

    def _shift(self, da):
        return PowerLogSeries(
            {(a + da, j): c for (a, j), c in self.terms.items()}, self.order + da
        )

    def reciprocal(self):
        """1/A for a monomial-led series A = c0 X^a0 (1 + u), through the
        order to which A determines it: B = 1/(1 + u) solves B = 1 - u B."""
        a0, c0, u = self._one_plus_u()
        rows = _push_forward(((k, -c) for k, c in u.terms.items()), u.order)
        if not _exact_one(c0):
            inv_c0 = Fraction(1) / c0 if isinstance(c0, Rational) else 1.0 / c0
            rows = {k: c * inv_c0 for k, c in rows.items()}
        return PowerLogSeries({(e - a0, j): c for (e, j), c in rows.items()}, u.order - a0)

    def _times_power(self):
        """D A: each term c X^a log(1/X)^j times its exponent a."""
        return PowerLogSeries({(a, j): c * a for (a, j), c in self.terms.items()}, self.order)

    def log(self):
        """log(A) for A = 1 + u with u small: D^-1 of (D u)/(1 + u)."""
        a0, c0, u = self._one_plus_u()
        if a0 != 0 or c0 != 1:
            raise NormalizationError("log requires unit leading coefficient")
        rate = u._times_power() * self.reciprocal()
        return PowerLogSeries(
            {(e, j): c / e for (e, j), c in rate.terms.items()}, rate.order
        )

    def exp(self):
        """exp(A) for A with strictly positive minimal power: B = exp(A)
        solves D B = (D A) B with B = 1 at X^0."""
        if self.terms and self.min_power() <= 0:
            raise NormalizationError("exp requires a series vanishing at X=0")
        rate = self._times_power()
        return PowerLogSeries(
            _push_forward(rate.terms.items(), rate.order, integrate=True), rate.order
        )

    def pow_fraction(self, alpha):
        """A**alpha via exp(alpha log) on the unit part; exact for rational data.

        A negative leading coefficient c0 takes the real root when alpha =
        p/q has an odd q (a float alpha only when integral) and raises
        NormalizationError otherwise.
        """
        alpha = Fraction(alpha) if not isinstance(alpha, float) else alpha
        a0, c0, u = self._one_plus_u()
        p, q = Fraction(alpha).as_integer_ratio()
        sign = 1
        if c0 < 0:
            if q % 2 == 0:
                raise NormalizationError(
                    f"no real power {alpha} of the negative leading coefficient {c0}"
                )
            c0, sign = -c0, -1 if p % 2 else 1
        if c0 == 1:
            c_pow = Fraction(1)
        elif isinstance(c0, Rational) and isinstance(alpha, Fraction):
            root = nth_root_fraction(Fraction(c0), q)
            c_pow = root ** p if root is not None else float(c0) ** float(alpha)
        else:
            c_pow = float(c0) ** float(alpha)
        powered = ((PowerLogSeries.const(Fraction(1), u.order) + u).log() * alpha).exp()
        return (powered * (sign * c_pow))._shift(a0 * alpha)

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
