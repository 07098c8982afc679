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

``zeta_at_integer`` gives zeta(j) at single integers, cached: the
Bernoulli table for j <= 0, and the same Euler-Maclaurin rule for j >= 2.

Gamma derivatives come from the Leibniz/polygamma recursion on
Gamma' = Gamma psi_0.  The polygamma functions psi_n are computed
here: the upward recurrence psi_n(x) = psi_n(x + m) - (-1)^n n! sum_{i<m}
(x + i)^-(n+1) carries x to a shift point of its own, where the Bernoulli
asymptotic series through B_30 is below eps of its leading term.

Stieltjes constants are embedded as a validated table;
``stieltjes_euler_maclaurin`` recomputes them from scratch on request.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import DomainError

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
# jet arithmetic over rows: a jet array a[r, 0..n] is sum_m a[r, m] eps^m
# ---------------------------------------------------------------------------

def _jet_mul(a, b):
    n = a.shape[1] - 1
    out = np.zeros(a.shape)
    for m in range(n + 1):
        for i in range(m + 1):
            out[:, m] += a[:, i] * b[:, m - i]
    return out


def _jet_exp(a):
    n = a.shape[1] - 1
    out = np.zeros(a.shape)
    out[:, 0] = np.exp(a[:, 0])
    for m in range(1, n + 1):
        for j in range(1, m + 1):
            out[:, m] += j * a[:, j] * out[:, m - j]
        out[:, m] /= m
    return out


def _mul_linear(a, c):
    """In place: a <- a * (c + eps), c one value per row."""
    for m in range(a.shape[1] - 1, 0, -1):
        a[:, m] = a[:, m] * c + a[:, m - 1]
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


def gamma_derivs(x: float, jmax: int):
    """[Gamma(x), Gamma'(x), ..., Gamma^(jmax)(x)] at non-pole real x.

    x > 0: h_{j+1} = sum_i C(j,i) h_{j-i} psi_i(x) with psi_i = polygamma.
    x < 0 non-integer: Gamma(x) = Gamma(x+1)/x differentiated downward.
    Raises DomainError at the poles and where Gamma(x) overflows float64.
    """
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


def _log_power_jets(n: int):
    """Row j - 1 is the jet of j^(-eps), [(-log j)^m / m!], for j = 1..N."""
    return np.array([
        [(-math.log(j)) ** m / math.factorial(m) for m in range(n + 1)]
        for j in range(1, _EM_N + 1)
    ])


def _zeta_em(x, n: int):
    """Jets of zeta(x + eps) by Euler-Maclaurin, one row per x; reliable for
    x >= -0.5, x != 1.

    zeta(x) = sum_{j<N} j^-x + N^(1-x)/(x-1) + N^-x/2
              + sum_i B_2i/(2i)! x(x+1)...(x+2i-2) N^(1-2i-x).
    """
    jets = _log_power_jets(n)
    total = np.zeros((len(x), n + 1))
    for j in range(1, _EM_N):
        total += np.power(float(j), -x)[:, None] * jets[j - 1]
    decay = np.power(float(_EM_N), -x)[:, None] * jets[_EM_N - 1]  # N^(-x-eps)
    recip = np.empty((len(x), n + 1))
    recip[:, 0] = 1.0 / (x - 1.0)
    for m in range(1, n + 1):
        recip[:, m] = -recip[:, m - 1] / (x - 1.0)  # jet of 1/(x - 1 + eps)
    total += _EM_N * _jet_mul(decay, recip)
    total += 0.5 * decay
    poch = np.zeros((len(x), n + 1))
    poch[:, 0] = x
    if n >= 1:
        poch[:, 1] = 1.0
    bern = np.zeros((len(x), n + 1))
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


def _reflected(s: float, k, n: int, log_L: float):
    """Jets of zeta(s - k + eps) L^k / k! for s - k < -0.5 by
    zeta(z) = 2^z pi^(z-1) sin(pi z / 2) Gamma(1-z) zeta(1-z).

    The log of 2^z pi^(z-1) Gamma(1-z) L^k / k! at z = s - k is
    s log 2pi - log pi + k (log L - log 2pi) + [lgamma(k+1-s) - lgamma(k+1)],
    with the bracket summed upward from the first reflected k as
    log1p(-s/j) steps; its parts never exceed O(|s| log k), where the
    plain sum of logs cancels from ~k log k.  The prefix sum always starts
    at the same k, so a term does not depend on which other k it came with.
    """
    x = 1.0 - s + k  # the argument of zeta(1 - z)
    k_r = max(0, math.floor(s + 0.5) + 1)  # the first k with s - k < -0.5
    steps = np.empty(int(k.max()) - k_r + 1)  # the bracket at k_r, then its increments
    steps[0] = math.lgamma(k_r + 1.0 - s) - math.lgamma(k_r + 1.0)
    steps[1:] = np.log1p(-s / np.arange(k_r + 1.0, k.max() + 1.0))
    bracket = np.cumsum(steps)[k - k_r]

    expo = np.empty((len(k), n + 1))
    log_ratio = (log_L - _LOG_2PI) - _LOG_2PI_LO  # log(L / 2pi)
    expo[:, 0] = (s * _LOG_2PI - _LOG_PI) + k * log_ratio + bracket
    for j in range(1, n + 1):
        # (d/deps)^j logGamma(x - eps) = (-1)^j psi_{j-1}(x)
        expo[:, j] = (-1.0) ** j * _polygamma(j - 1, x) / math.factorial(j)
    if n >= 1:
        expo[:, 1] += _LOG_2PI

    # sin(pi (s - k + eps) / 2): pi s / 2 turned back by k quarter turns,
    # then the Taylor coefficients (pi/2)^m sin(theta + m pi/2) / m!
    sin0, cos0 = _sin_cos_half_pi(s)
    quarter = k % 4
    sin_k = np.array([sin0, -cos0, -sin0, cos0])[quarter]
    cos_k = np.array([cos0, sin0, -cos0, -sin0])[quarter]
    cycle = (sin_k, cos_k, -sin_k, -cos_k)
    sin_jet = np.empty((len(k), n + 1))
    for m in range(n + 1):
        sin_jet[:, m] = (0.5 * math.pi) ** m / math.factorial(m) * cycle[m % 4]

    z = _zeta_em(x, n)
    z[:, 1::2] *= -1.0  # zeta(x - eps)
    return _jet_mul(_jet_exp(expo), _jet_mul(sin_jet, z))


def zeta_deriv_over_factorial(s: float, k, n: int = 0, log_L: float = 0.0):
    """zeta^(n)(s - k) L^k / k! with L = exp(log_L), overflow-safe for large k.

    ``k`` is an int (returns a float) or an int array (returns an array of
    the same length); each entry does not depend on the others.
    s - k >= -0.5 uses Euler-Maclaurin directly.  Below that the reflection
    formula maps to 1 - s + k, away from the pole that the sin factor
    cancels at s - k = 0.
    """
    s = float(s)
    ks = np.atleast_1d(np.asarray(k, dtype=np.int64))
    z = s - ks
    if np.any(z == 1.0):
        raise DomainError("zeta has a pole at s = 1")
    out = np.empty(len(ks))
    direct = z >= -0.5
    if direct.any():
        kd = ks[direct]
        log_fact = np.array([math.lgamma(k + 1.0) for k in kd.tolist()])
        scale = np.exp(kd * log_L - log_fact)
        out[direct] = _zeta_em(z[direct], n)[:, n] * scale
    if not direct.all():
        out[~direct] = _reflected(s, ks[~direct], n, log_L)[:, n]
    out *= math.factorial(n)
    return float(out[0]) if np.ndim(k) == 0 else out


@functools.cache
def zeta_at_integer(j: int) -> float:
    """zeta(j) at an integer j != 1, from -29 up: -1/2 at 0, -B_(1-j)/(1-j)
    below 0 (the Bernoulli table), and Euler-Maclaurin (``_zeta_em``) from
    2, computed on first use."""
    if j == 1 or j < 1 - 2 * len(_BERNOULLI_EVEN):
        raise DomainError(f"zeta({j}) is a pole or below the Bernoulli table")
    if j == 0:
        return -0.5
    if j < 0:
        return 0.0 if j % 2 == 0 else float(-bernoulli_even((1 - j) // 2) / (1 - j))
    return float(_zeta_em(np.array([float(j)]), 0)[0, 0])


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
