"""Zeta/Gamma support: derivatives of zeta and Gamma, Stieltjes constants.

Everything here is real-argument float64.  zeta and its s-derivatives are
evaluated in truncated-Taylor ("jet") arithmetic, so one pass yields
zeta(s), zeta'(s), ..., zeta^(n)(s).  A jet is one row of an array of shape
(K, n+1), and ``zeta_deriv_over_factorial`` takes a whole array of shifts k
at once, one row per k, with the same element-wise operations for a single
k, so a value does not depend on the batch it came in.

* s - k >= -1/2: Euler-Maclaurin with N = 8 (a short partial sum keeps the
  cancellation against the N^(1-s)/(s-1) term small at s < 1/2).
* s - k < -1/2: the reflection formula maps to 1 - s + k.  The log of
  2^z pi^(z-1) Gamma(1-z) L^k / k! is split as
  s log 2pi - log pi + k (log L - log 2pi) + [lgamma(k+1-s) - lgamma(k+1)],
  with the bracket summed upward in log1p steps, so no two parts of size
  ~k log k cancel.  sin(pi (s-k)/2) is sin or cos of pi s / 2 turned by
  k quarter turns, exact zeros included.

Only L^k depends on L.  Everything else in a term is kept in one table per
(s, n) (``_zeta_rows``), two floats per row: a term is
coef[k] exp(k lambda + offset[k]) n!, with lambda = log L on the direct
rows and log(L / 2pi) on the reflected ones (see ``_ZetaRows``).  A table
covers k = 0..K-1 and grows by whole blocks of 64 rows, all new rows in
one Euler-Maclaurin pass; the pole row s - k = 1 is never computed.  A
call then takes one exponential per row, with the operations the row
would take alone, so a value depends neither on its batch nor on the
calls made before.  Tables are kept least-recently-used: the ones not in
use hold at most 8 MB.

zeta at the integers has no routine of its own: the kernel's Kummer split
reads zeta(s - k), s = 1..9, from the (s, 0) tables through the Lerch
layer's boundary series.

Gamma derivatives come from the Leibniz/polygamma recursion on
Gamma' = Gamma psi_0.  The polygamma functions psi_n are computed
here: the upward recurrence psi_n(x) = psi_n(x + m) - (-1)^n n! sum_{i<m}
(x + i)^-(n+1) carries x to a shift point of its own, where the Bernoulli
asymptotic series through B_30 is below eps of its leading term.

Stieltjes constants are embedded as a validated table;
``stieltjes_euler_maclaurin`` recomputes them from scratch on request.
"""

from __future__ import annotations

import collections
import functools
import math
import threading
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, DomainError

# gamma_0 .. gamma_12, standard sign convention:
# zeta(1+z) = 1/z + sum_j (-1)^j gamma_j z^j / j!
STIELTJES = (
    0.5772156649015328606065,
    -0.07281584548367672486059,
    -0.00969036319287231848453,
    0.00205383442030334586616,
    0.002325370065467300057468,
    0.0007933238173010627017533,
    -0.0002387693454301996098724,
    -0.0005272895670577510460741,
    -0.0003521233538030395096021,
    -0.00003439477441808804817791,
    0.0002053328149090647946837,
    0.0002701844395439035266729,
    0.0001672729121051401933535,
)

# B_2 .. B_30
_BERNOULLI_EVEN = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
    Fraction(8553103, 6),
    Fraction(-23749461029, 870),
    Fraction(8615841276005, 14322),
)


def bernoulli_even(i: int) -> Fraction:
    """B_{2i} for i >= 1."""
    return _BERNOULLI_EVEN[i - 1]


# ---------------------------------------------------------------------------
# jet arithmetic over rows: a jet array a[r, 0..n] is sum_m a[r, m] eps^m.
# The arrays are column-major, so that each column a[:, m] is contiguous:
# the column operations below then run several times faster on long arrays,
# and the layout does not change a bit of any element
# ---------------------------------------------------------------------------

def _jet_zeros(rows: int, n: int):
    return np.zeros((rows, n + 1), order="F")


def _jet_mul(a, b):
    """The product jet, each column summed in order of the first factor's
    index: column m of the result is a[:, 0] b[:, m] + ... + a[:, m] b[:, 0]."""
    n = a.shape[1] - 1
    out = np.zeros_like(a)
    for i in range(n + 1):
        out[:, i:] += a[:, i:i + 1] * b[:, :n + 1 - i]
    return out


def _jet_exp(a):
    n = a.shape[1] - 1
    out = np.zeros_like(a)
    out[:, 0] = np.exp(a[:, 0])
    for m in range(1, n + 1):
        for j in range(1, m + 1):
            out[:, m] += j * a[:, j] * out[:, m - j]
        out[:, m] /= m
    return out


def _mul_linear(a, c):
    """In place: a <- a * (c + eps), c one value per row."""
    a[:, 1:] = a[:, 1:] * c[:, None] + a[:, :-1]
    a[:, 0] *= c


# ---------------------------------------------------------------------------
# polygamma
# ---------------------------------------------------------------------------

@functools.cache
def _polygamma_series(n: int):
    """(Bernoulli weights, shift point) of the asymptotic series of psi_n.

    psi_0(z) ~ log z - 1/(2z) - sum_k B_2k / (2k) z^-2k and, for n >= 1,
    psi_n(z) ~ (-1)^(n+1) n! z^-n [1/n + 1/(2z) + sum_k d_k z^-2k] with
    d_k = B_2k (2k+n-1)! / ((2k)! n!), k = 1..15.  From the shift point on,
    the B_30 term is below eps of the leading term (1, or 1/n in the bracket).
    """
    if n == 0:
        coeffs = tuple(float(b / (2 * i)) for i, b in enumerate(_BERNOULLI_EVEN, start=1))
    else:
        coeffs = tuple(
            float(b * Fraction(math.factorial(2 * i + n - 1), math.factorial(2 * i) * math.factorial(n)))
            for i, b in enumerate(_BERNOULLI_EVEN, start=1)
        )
    shift = math.ceil((abs(coeffs[-1]) * max(n, 1) / 2.0 ** -52) ** (1.0 / (2 * len(coeffs))))
    return coeffs, shift


def _ipow(v, e: int):
    """v^e for an integer e >= 1 by squaring; the same multiplications for a
    float and for each element of an array."""
    out = None
    while True:
        if e & 1:
            out = v if out is None else out * v
        e >>= 1
        if not e:
            return out
        v = v * v


def _polygamma_asymptotic(n: int, coeffs, z, log_z):
    """psi_0(z), or psi_n(z) / ((-1)^(n+1) n!) for n >= 1, by the series."""
    u = 1.0 / z
    w = u * u
    poly = coeffs[-1]
    for c in coeffs[-2::-1]:
        poly = poly * w + c
    if n == 0:
        return log_z - u * (0.5 + u * poly)
    return _ipow(u, n) * (1.0 / n + u * (0.5 + u * poly))


def _polygamma(n: int, x):
    """psi_n(x) for integer n >= 0 and x > 0; a float for a float, an array
    for an array.

    An x below the shift point is carried up by the recurrence to x + m,
    m = ceil(shift_n - x), and the recurrence terms are added smallest
    first.  An array evaluates the series at its elements past the shift
    point with the operations a float takes, and the others one at a time,
    so ``_polygamma(n, arr)[i] == _polygamma(n, float(arr[i]))`` exactly.
    """
    coeffs, shift = _polygamma_series(n)
    scale = 1.0 if n == 0 else (-1.0) ** (n + 1) * math.factorial(n)
    if np.ndim(x) != 0:
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        near = x < shift
        z = x[~near]
        out[~near] = scale * _polygamma_asymptotic(n, coeffs, z, np.log(z) if n == 0 else None)
        out[near] = [_polygamma(n, v) for v in x[near].tolist()]
        return out
    x = float(x)
    m = max(0, math.ceil(shift - x))
    z = x + m
    # np.log, not math.log: the array path takes its logs from np.log
    acc = _polygamma_asymptotic(n, coeffs, z, float(np.log(z)) if n == 0 else None)
    for i in range(m - 1, -1, -1):
        if n == 0:
            acc -= 1.0 / (x + i)
        else:
            acc += _ipow(1.0 / (x + i), n + 1)
    return scale * acc


# ---------------------------------------------------------------------------
# Gamma derivatives
# ---------------------------------------------------------------------------

_GAMMA_MAX_X = 171.62  # Gamma(x) > the largest float64 beyond this
MAX_DERIV = 170  # n! passes float range beyond: the highest order taken here


def gamma_derivs(x: float, jmax: int):
    """[Gamma(x), Gamma'(x), ..., Gamma^(jmax)(x)] at non-pole real x.

    x > 0: h_{j+1} = sum_i C(j,i) h_{j-i} psi_i(x) with psi_i = polygamma.
    x < 0 non-integer: Gamma(x) = Gamma(x+1)/x differentiated downward.
    Raises DomainError at the poles, where Gamma(x) overflows float64 and
    for jmax > MAX_DERIV.
    """
    if jmax > MAX_DERIV:
        raise DomainError(f"Gamma derivatives of order {jmax}: {jmax}! passes float range")
    x = float(x)
    if x <= 0 and x == int(x):
        raise DomainError("Gamma derivatives at a nonpositive integer pole")
    if x > 0:
        if x > _GAMMA_MAX_X:
            raise DomainError(f"Gamma({x!r}) overflows float64")
        psis = [_polygamma(i, x) for i in range(jmax + 1)]
        h = [math.gamma(x)]
        for j in range(jmax):
            h.append(sum(math.comb(j, i) * h[j - i] * psis[i] for i in range(j + 1)))
        return h
    up = gamma_derivs(x + 1.0, jmax)
    h = [up[0] / x]
    for j in range(1, jmax + 1):
        h.append((up[j] - j * h[j - 1]) / x)
    return h


# ---------------------------------------------------------------------------
# zeta and its derivatives
# ---------------------------------------------------------------------------

_EM_N = 8
_EM_M = 12
# B_2i / (2i)! N^(1-2i), the Euler-Maclaurin correction weights
_EM_WEIGHTS = tuple(
    float(bernoulli_even(i)) / math.factorial(2 * i) * _EM_N ** (1 - 2 * i)
    for i in range(1, _EM_M + 1)
)
_LOG_PI = math.log(math.pi)
_LOG_2PI = math.log(2.0 * math.pi)
# log(2 pi) - _LOG_2PI: without it, k (log L - log 2pi) is off by ~1.4e-16 k
_LOG_2PI_LO = 1.4447872176368647e-16


@functools.cache
def _log_power_jets(n: int):
    """Row j - 1 is the jet of j^(-eps), [(-log j)^m / m!], for j = 1..N;
    built once per n, read-only."""
    jets = np.array([
        [(-math.log(j)) ** m / math.factorial(m) for m in range(n + 1)]
        for j in range(1, _EM_N + 1)
    ])
    jets.setflags(write=False)
    return jets


def _power_down(j: int, x):
    """j^-x for an array x: np.power where the value is at least 2^-1100,
    and 0.0 below, which is what np.power rounds it to there.  np.power
    takes ~10 times as long on results that underflow (x ~ 10^3 and up in
    the reflected rows of a long table)."""
    live = x * math.log2(j) < 1100.0
    if live.all():
        return np.power(float(j), -x)
    out = np.zeros(len(x))
    out[live] = np.power(float(j), -x[live])
    return out


def _zeta_em(x, n: int):
    """Jets of zeta(x + eps) by Euler-Maclaurin, one row per x; reliable for
    x >= -0.5, x != 1.

    zeta(x) = sum_{j<N} j^-x + N^(1-x)/(x-1) + N^-x/2
              + sum_i B_2i/(2i)! x(x+1)...(x+2i-2) N^(1-2i-x).
    """
    jets = _log_power_jets(n)
    total = _jet_zeros(len(x), n)
    term = _jet_zeros(len(x), n)
    for j in range(1, _EM_N):
        total += np.multiply(_power_down(j, x)[:, None], jets[j - 1], out=term)
    decay = np.multiply(_power_down(_EM_N, x)[:, None], jets[_EM_N - 1],
                        out=_jet_zeros(len(x), n))  # N^(-x-eps)
    recip = _jet_zeros(len(x), n)
    recip[:, 0] = 1.0 / (x - 1.0)
    for m in range(1, n + 1):
        recip[:, m] = -recip[:, m - 1] / (x - 1.0)  # jet of 1/(x - 1 + eps)
    total += _EM_N * _jet_mul(decay, recip)
    total += 0.5 * decay
    poch = _jet_zeros(len(x), n)
    poch[:, 0] = x
    if n >= 1:
        poch[:, 1] = 1.0
    bern = _jet_zeros(len(x), n)
    for i, weight in enumerate(_EM_WEIGHTS, start=1):
        bern += weight * poch
        if i < _EM_M:
            _mul_linear(poch, x + (2 * i - 1))
            _mul_linear(poch, x + 2 * i)
    total += _jet_mul(bern, decay)
    return total


def _sin_cos_half_pi(s: float):
    """sin and cos of pi s / 2, exactly 0 and +-1 at integer s."""
    half = s / 2.0
    if abs(half - round(half)) < 1e-12:
        return 0.0, (-1.0) ** (round(half) % 2)
    if abs(half - math.floor(half) - 0.5) < 1e-12:
        return (-1.0) ** (round(half - 0.5) % 2), 0.0
    return math.sin(0.5 * math.pi * s), math.cos(0.5 * math.pi * s)


class _ZetaRows(NamedTuple):
    """The L-free factor of zeta^(n)(s - k) L^k / k! for k = 0..size-1, for
    one (s, n); both arrays read-only.  A term is
    coef[k] exp(k lambda + offset[k]) n! (see ``zeta_deriv_over_factorial``).

    Direct rows k < k_r (s - k >= -1/2) keep zeta^(n)(s - k) / n! in
    ``coef`` (NaN at the pole row s - k = 1, which is never computed) and
    -lgamma(k + 1) in ``offset``.  Reflected rows k >= k_r keep the bracket
    lgamma(k+1-s) - lgamma(k+1) in ``offset`` and, in ``coef``, column n of
    the exponent's jet exponential, its constant term left out, times the
    jet of sin(pi z / 2) zeta(1 - z) at z = s - k.
    """

    size: int
    k_r: int
    coef: np.ndarray
    offset: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.coef.nbytes + self.offset.nbytes


_ROW_BLOCK = 64  # a table grows by whole blocks of this many rows
_TABLE_BUDGET = 8 * 2 ** 20  # bytes the tables not in use may hold
_tables: collections.OrderedDict = collections.OrderedDict()  # (s, n) -> _ZetaRows, LRU order
_tables_lock = threading.Lock()


def _new_rows(s: float, n: int, rows: _ZetaRows | None, size: int) -> _ZetaRows:
    """``rows`` grown to ``size`` rows (a fresh table for None).  Each row is
    computed as it would be alone: one ``_zeta_em`` pass over the new direct
    and reflected rows, and the bracket's running sum carried on from the
    last row kept."""
    if rows is None:
        k_r = max(0, math.floor(s + 0.5) + 1)  # the first k with s - k < -1/2
        rows = _ZetaRows(0, k_r, np.empty(0), np.empty(0))
    k_r = rows.k_r
    ks = np.arange(rows.size, size)
    kd, kr = ks[ks < k_r], ks[ks >= k_r]
    z = s - kd
    live = z != 1.0  # the pole row is never computed
    x = 1.0 - s + kr  # the argument of zeta(1 - z)
    jets = _zeta_em(np.concatenate((z[live], x)), n)
    zeta = np.full(len(kd), np.nan)
    zeta[live] = jets[:np.count_nonzero(live), n]
    # negated here, once: x + (-y) is x - y exactly
    neg_log_fact = -np.array([math.lgamma(k + 1.0) for k in kd.tolist()])

    # the bracket, summed upward from k_r in log1p(-s/j) steps: its parts
    # never exceed O(|s| log k), where the plain sum of logs cancels from
    # ~k log k.  A grown table carries the running sum on from its last row
    if rows.size > k_r:
        first, tail = rows.offset[-1], kr
    else:
        first, tail = math.lgamma(k_r + 1.0 - s) - math.lgamma(k_r + 1.0), kr[1:]
    steps = np.empty(len(tail) + 1)
    steps[0] = first
    steps[1:] = np.log1p(-s / tail.astype(float))
    bracket = np.cumsum(steps)[len(steps) - len(kr):]

    # the exponent's jet without its constant term a_0, the only part of it
    # that depends on L: exp(a_0 + a(eps)) = e^(a_0) exp(a(eps)), and a call
    # takes e^(a_0)
    expo = _jet_zeros(len(kr), n)
    for j in range(1, n + 1):
        # (d/deps)^j logGamma(x - eps) = (-1)^j psi_{j-1}(x)
        expo[:, j] = (-1.0) ** j * _polygamma(j - 1, x) / math.factorial(j)
    if n >= 1:
        expo[:, 1] += _LOG_2PI

    # sin(pi (s - k + eps) / 2): pi s / 2 turned back by k quarter turns,
    # then the Taylor coefficients (pi/2)^m sin(theta + m pi/2) / m!
    sin0, cos0 = _sin_cos_half_pi(s)
    quarter = kr % 4
    sin_k = np.array([sin0, -cos0, -sin0, cos0])[quarter]
    cos_k = np.array([cos0, sin0, -cos0, -sin0])[quarter]
    cycle = (sin_k, cos_k, -sin_k, -cos_k)
    sin_jet = _jet_zeros(len(kr), n)
    for m in range(n + 1):
        sin_jet[:, m] = (0.5 * math.pi) ** m / math.factorial(m) * cycle[m % 4]
    zr = jets[np.count_nonzero(live):]
    zr[:, 1::2] *= -1.0  # zeta(x - eps)
    coef = _jet_mul(_jet_exp(expo), _jet_mul(sin_jet, zr))[:, n]

    arrays = []
    for kept, direct, reflected in zip(rows[2:], (zeta, neg_log_fact), (coef, bracket)):
        grown = np.concatenate((kept, direct, reflected))
        grown.setflags(write=False)
        arrays.append(grown)
    return _ZetaRows(size, k_r, *arrays)


def _zeta_rows(s: float, n: int, size: int) -> _ZetaRows:
    """The table of (s, n), grown to at least ``size`` rows.

    Tables are kept least-recently-used: once a table is stored, the
    oldest others go until they hold at most _TABLE_BUDGET bytes.  So all
    tables together never hold more than 8 MB plus the table in use, which
    keeps 2 floats per row, for every k below the largest asked rounded up
    to a whole block: 0.16 MB at any n for the 10,048 rows a boundary sum
    reaching its 10,000-term cap asks for.
    """
    key = (s, n)
    with _tables_lock:
        rows = _tables.get(key)
        if rows is not None:
            _tables.move_to_end(key)
    if rows is not None and rows.size >= size:
        return rows
    rows = _new_rows(s, n, rows, -(-size // _ROW_BLOCK) * _ROW_BLOCK)
    with _tables_lock:
        _tables[key] = rows
        _tables.move_to_end(key)
        held = sum(r.nbytes for r in _tables.values()) - rows.nbytes
        while held > _TABLE_BUDGET:
            _key, old = _tables.popitem(last=False)
            held -= old.nbytes
    return rows


def zeta_deriv_over_factorial(s: float, k, n: int = 0, log_L: float = 0.0):
    """zeta^(n)(s - k) L^k / k! with L = exp(log_L), overflow-safe for large k.

    ``k`` is an int >= 0 (returns a float) or an int array (returns an array
    of the same length); each entry does not depend on the others, nor on
    the calls made before.  Only L^k is computed per call; the rest of each
    term comes from the (s, n) table (``_zeta_rows``), and a term is
    coef[k] exp(k lambda + offset[k]) n!.

    s - k >= -0.5 uses Euler-Maclaurin directly, with lambda = log L.  Below
    that the reflection formula
    zeta(z) = 2^z pi^(z-1) sin(pi z / 2) Gamma(1-z) zeta(1-z) maps to
    1 - s + k, away from the pole that the sin factor cancels at s - k = 0.
    The log of 2^z pi^(z-1) Gamma(1-z) L^k / k! at z = s - k is
    s log 2pi - log pi + k (log L - log 2pi) + [lgamma(k+1-s) - lgamma(k+1)]:
    lambda = log(L / 2pi), and the exponent also carries s log 2pi - log pi.
    DomainError for n > MAX_DERIV; CapabilityError naming s, n and the
    first such k where a term passes float range (at s = 0.5, L = log 2
    from n = 155 on), with no numpy warning.
    """
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s!r}")
    if n > MAX_DERIV:
        raise DomainError(f"zeta derivative of order {n}: {n}! passes float range")
    ks = np.atleast_1d(np.asarray(k, dtype=np.int64))
    if ks.size and ks.min() < 0:
        raise DomainError("k must be >= 0")
    if np.any(s - ks == 1.0):
        raise DomainError("zeta has a pole at s = 1")
    rows = _zeta_rows(s, n, int(ks.max()) + 1 if ks.size else 0)
    log_ratio = (log_L - _LOG_2PI) - _LOG_2PI_LO  # log(L / 2pi)
    expo = np.where(ks < rows.k_r, ks * log_L, (s * _LOG_2PI - _LOG_PI) + ks * log_ratio)
    # a term past float range is raised below, not returned as inf
    with np.errstate(over="ignore", invalid="ignore"):
        out = rows.coef[ks] * np.exp(expo + rows.offset[ks])
        out *= math.factorial(n)  # n! folded into coef would move direct rows' bits
    finite = np.isfinite(out)
    if not finite.all():
        k_bad = int(ks[np.argmin(finite)])
        raise CapabilityError(
            f"zeta^({n})(s - k) L^k / k! at s={s:g}, n={n}, k={k_bad} passes float range"
        )
    return float(out[0]) if np.ndim(k) == 0 else out


_STIELTJES_N = 400  # stieltjes_euler_maclaurin sums 1/j^(1+z) for j < N,
_STIELTJES_M = 10  # adds Bernoulli terms through B_2M,
_STIELTJES_DIGITS = 45  # and works at this many decimal digits


def stieltjes_euler_maclaurin(jmax: int):
    """Recompute gamma_0..gamma_jmax by Euler-Maclaurin.

    Works on the jet of zeta(1+z) - 1/z at z = 0; the N^(-z)/z boundary term
    contributes the pole plus the analytic jet (-log N)^(k+1) z^k / (k+1)!.
    The boundary pieces cancel the partial sums through ~(log N)^(k+1)/(k+1)
    relative orders, so the evaluation runs in ``decimal`` arithmetic at
    45 working digits (float64 would lose gamma_8..gamma_10).
    """
    from decimal import Decimal, localcontext

    n, N, M = jmax, _STIELTJES_N, _STIELTJES_M
    with localcontext() as ctx:
        ctx.prec = _STIELTJES_DIGITS

        def jmul_dec(a, b):
            return [
                sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)
            ]

        total = [Decimal(0)] * (n + 1)
        for j in range(1, N):
            lj = Decimal(j).ln()
            term = Decimal(1) / j
            total[0] += term
            for k in range(1, n + 1):
                term = term * (-lj) / k
                total[k] += term
        lN = Decimal(N).ln()
        term = Decimal(1)
        for k in range(n + 1):
            term = term * (-lN) / (k + 1)  # (-log N)^(k+1)/(k+1)!
            total[k] += term
        decay = [Decimal(1) / N]
        for k in range(1, n + 1):
            decay.append(decay[-1] * (-lN) / k)
        for k in range(n + 1):
            total[k] += decay[k] / 2
        poch = [Decimal(1) if k == 1 else Decimal(0) for k in range(n + 1)]
        poch[0] = Decimal(1)  # jet of (1 + z)
        for i in range(1, M + 1):
            b = bernoulli_even(i)
            coef = Decimal(b.numerator) / Decimal(b.denominator)
            coef /= math.factorial(2 * i)
            scale = Decimal(N) ** (1 - 2 * i)
            pd = jmul_dec(poch, decay)
            for k in range(n + 1):
                total[k] += coef * scale * pd[k]
            if i < M:
                lin1 = [Decimal(2 * i) if k == 0 else (Decimal(1) if k == 1 else Decimal(0)) for k in range(n + 1)]
                lin2 = [Decimal(2 * i + 1) if k == 0 else (Decimal(1) if k == 1 else Decimal(0)) for k in range(n + 1)]
                poch = jmul_dec(jmul_dec(poch, lin1), lin2)
        # total[k] = coeff of z^k in zeta(1+z) - 1/z = (-1)^k gamma_k / k!
        return [float(total[k] * math.factorial(k) * (-1) ** k) for k in range(n + 1)]
