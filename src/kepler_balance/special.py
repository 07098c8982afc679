"""Zeta/Gamma support: derivatives of zeta and Gamma, Stieltjes constants.

Everything here is real-argument float64.  zeta and its s-derivatives are
evaluated by Euler-Maclaurin summation carried out in truncated-Taylor
("jet") arithmetic, so one pass yields zeta(s), zeta'(s), ..., zeta^(n)(s);
for s < 1/2 the reflection formula (also in jets) maps to the convergent
side.  Gamma derivatives come from the Leibniz/polygamma recursion on
Gamma' = Gamma psi_0.

Stieltjes constants are embedded as a validated table;
``stieltjes_euler_maclaurin`` recomputes them from scratch on request.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import gamma as _gamma_fn
from scipy.special import polygamma as _polygamma

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
# jet arithmetic: a jet is a numpy array a[0..n] for sum_k a[k] eps^k
# ---------------------------------------------------------------------------

def jet_var(x, n):
    a = np.zeros(n + 1)
    a[0] = x
    if n >= 1:
        a[1] = 1.0
    return a


def jet_mul(a, b):
    n = len(a) - 1
    out = np.zeros(n + 1)
    for k in range(n + 1):
        out[k] = np.dot(a[: k + 1], b[k::-1])
    return out


def jet_recip(a):
    n = len(a) - 1
    if a[0] == 0.0:
        raise ZeroDivisionError("jet reciprocal at a pole")
    out = np.zeros(n + 1)
    out[0] = 1.0 / a[0]
    for k in range(1, n + 1):
        out[k] = -np.dot(a[1 : k + 1], out[k - 1 :: -1]) / a[0]
    return out


def jet_exp(a):
    n = len(a) - 1
    out = np.zeros(n + 1)
    out[0] = math.exp(a[0])
    for k in range(1, n + 1):
        out[k] = sum(j * a[j] * out[k - j] for j in range(1, k + 1)) / k
    return out


def jet_sin(a, s0=None, c0=None):
    """Jet of sin(a); s0/c0 override the constant sin/cos (exact zeros at
    multiples of pi/2 where float sin(m pi) leaves ~1e-16 residue)."""
    n = len(a) - 1
    s = np.zeros(n + 1)
    c = np.zeros(n + 1)
    s[0] = math.sin(a[0]) if s0 is None else s0
    c[0] = math.cos(a[0]) if c0 is None else c0
    for k in range(1, n + 1):
        s[k] = sum(j * a[j] * c[k - j] for j in range(1, k + 1)) / k
        c[k] = -sum(j * a[j] * s[k - j] for j in range(1, k + 1)) / k
    return s


def _exp_log_jet(x, n):
    """Jet of exp(-eps log x): [(-log x)^k / k!]."""
    lx = math.log(x)
    return np.array([(-lx) ** k / math.factorial(k) for k in range(n + 1)])


# ---------------------------------------------------------------------------
# Gamma derivatives
# ---------------------------------------------------------------------------

def gamma_derivs(x: float, jmax: int):
    """[Gamma(x), Gamma'(x), ..., Gamma^(jmax)(x)] at non-pole real x.

    x > 0: h_{j+1} = sum_i C(j,i) h_{j-i} psi_i(x) with psi_i = polygamma.
    x < 0 non-integer: Gamma(x) = Gamma(x+1)/x differentiated downward.
    """
    x = float(x)
    if x <= 0 and x == int(x):
        raise DomainError("Gamma derivatives at a nonpositive integer pole")
    if x > 0:
        psis = [float(_polygamma(i, x)) for i in range(jmax + 1)]
        h = [float(_gamma_fn(x))]
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

_EM_N = 24
_EM_M = 12


def _zeta_em_jet(s: float, n: int, N: int = _EM_N, M: int = _EM_M):
    """Jet of zeta(s + eps) by Euler-Maclaurin; reliable for s >= 0.5, s != 1."""
    total = np.zeros(n + 1)
    for j in range(1, N):
        total += j ** (-s) * _exp_log_jet(j, n)
    decay = N ** (-s) * _exp_log_jet(N, n)  # jet of N^(-s-eps)
    total += N * jet_mul(decay, jet_recip(jet_var(s - 1.0, n)))
    total += 0.5 * decay
    # sum_i B_2i/(2i)! (s+eps)(s+eps+1)...(s+eps+2i-2) N^(-s-2i+1-eps)
    poch = jet_var(s, n)
    for i in range(1, M + 1):
        coef = float(bernoulli_even(i)) / math.factorial(2 * i)
        total += coef * N ** (1 - 2 * i) * jet_mul(poch, decay)
        if i < M:
            poch = jet_mul(poch, jet_var(s + 2 * i - 1, n))
            poch = jet_mul(poch, jet_var(s + 2 * i, n))
    return total


def zeta_jet_scaled(s: float, n: int, log_scale: float = 0.0):
    """Jet of zeta(s + eps) * exp(log_scale) to order n at real s != 1.

    s >= -0.5: Euler-Maclaurin directly (the sin factor of the reflection
    vanishes at s = 0 against the zeta(1) pole, so reflection is used only
    for s < -0.5 where 1 - s is safely away from the pole):
    zeta(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1-s) zeta(1-s).

    The reflection folds 2^s pi^(s-1) Gamma(1-s) and the scale into a single
    log-space exponential, so quantities like zeta(s-k)/k! stay finite in
    float64 even when both factors overflow separately.
    """
    s = float(s)
    if s == 1.0:
        raise DomainError("zeta has a pole at s = 1")
    if s >= -0.5:
        return _zeta_em_jet(s, n) * math.exp(log_scale)
    x = 1.0 - s
    # exponent jet of (s+eps) log 2 + (s+eps-1) log pi + logGamma(x-eps) + scale
    expo = jet_var(s, n) * (math.log(2.0) + math.log(math.pi))
    expo[0] += -math.log(math.pi) + math.lgamma(x) + log_scale
    for j in range(1, n + 1):
        # (d/deps)^j logGamma(x - eps) = (-1)^j psi_{j-1}(x)
        expo[j] += (-1.0) ** j * float(_polygamma(j - 1, x)) / math.factorial(j)
    pre = jet_exp(expo)
    half = s / 2.0
    s0 = c0 = None
    if abs(half - round(half)) < 1e-12:
        s0, c0 = 0.0, (-1.0) ** (round(half) % 2)  # sin(pi s/2) = 0 exactly
    elif abs(half - math.floor(half) - 0.5) < 1e-12:
        m_odd = round(half - 0.5)
        s0, c0 = (-1.0) ** (m_odd % 2), 0.0
    sin_jet = jet_sin(0.5 * math.pi * jet_var(s, n), s0=s0, c0=c0)
    flip = np.array([(-1.0) ** k for k in range(n + 1)])
    z = _zeta_em_jet(x, n) * flip  # zeta(1 - s - eps)
    return jet_mul(pre, jet_mul(sin_jet, z))


def zeta_jet(s: float, n: int):
    """Jet of zeta(s + eps) to order n at real s != 1."""
    return zeta_jet_scaled(s, n, 0.0)


def zeta_deriv(s: float, n: int = 0) -> float:
    """zeta^(n)(s) at real s != 1."""
    return zeta_jet(s, n)[n] * math.factorial(n)


def zeta_deriv_over_factorial(s: float, k: int, n: int = 0, log_extra: float = 0.0) -> float:
    """zeta^(n)(s - k) exp(log_extra) / k!, overflow-safe for large k."""
    return zeta_jet_scaled(s - k, n, log_extra - math.lgamma(k + 1.0))[n] * math.factorial(n)


def stieltjes_euler_maclaurin(jmax: int, N: int = 400, M: int = 10, digits: int = 45):
    """Recompute gamma_0..gamma_jmax by Euler-Maclaurin.

    Works on the jet of zeta(1+z) - 1/z at z = 0; the N^(-z)/z boundary term
    contributes the pole plus the analytic jet (-log N)^(k+1) z^k / (k+1)!.
    The boundary pieces cancel the partial sums through ~(log N)^(k+1)/(k+1)
    relative orders, so the evaluation runs in ``decimal`` arithmetic at
    ``digits`` working digits (float64 would lose gamma_8..gamma_10).
    """
    from decimal import Decimal, localcontext

    n = jmax
    with localcontext() as ctx:
        ctx.prec = digits

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
