"""Boundary asymptotics: moment expansions, reciprocal coefficients A_m,
the Lerch transcendent with s-derivatives, and the L-expansion of F near t=1.

Conventions
-----------
* Moment asymptotics are written uniformly in x = 1/(k+1) with log(k+1)
  = log(1/x) as the log grading (a PowerLogSeries in x).
* ``lerch_phi`` returns (d/ds)^n Phi(t, s, 1) = sum_{k>=0} t^k
  (log 1/(k+1))^n / (k+1)^s; multiplying by t re-indexes to the classical
  sum over k >= 1.
* Boundary expansions are PowerLogSeries in L = log(1/t) with log(1/L) grading;
  they converge for |L| < 2 pi.
* The boundary formula (Erdelyi's |L| < 2 pi expansion, Bateman Manuscript
  Project I, 1.11) writes (d/ds)^n [t Phi(t, s, 1)] as a singular part
  L^(s-1) sum_j b_j (log L)^j plus sum_k zeta^(n)(s-k) (-L)^k / k!.
  ``_boundary_singular_part`` computes the singular part once; the value
  (``t_phi_boundary_value``) and the series (``t_phi_boundary_series``,
  which the kernel's Kummer split also folds) both use it, and both take
  their zeta terms as whole arrays of k from
  ``special.zeta_deriv_over_factorial``.  At positive integer s the
  singular k = s-1 term is replaced by its limit, built from the cached
  read-only Gamma-Laurent table (``gamma_laurent_table``) and the
  Stieltjes constants ``special.STIELTJES``.
* Stieltjes constants follow the standard sign convention
  zeta(1+z) = 1/z + sum_j (-1)^j gamma_j z^j / j!; the gamma_n appearing in
  the integer-s Lerch formula is accordingly entered as (-1)^n gamma_n.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from numbers import Rational
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import (
    AccuracyError,
    CapabilityError,
    ConvergenceBudgetError,
    DomainError,
    NormalizationError,
    TruncationError,
)
from .series import PowerLogSeries
from .special import MAX_DERIV, STIELTJES, gamma_derivs, zeta_deriv_over_factorial

TWO_PI = 2.0 * math.pi
DIRECT_SUM_CAP = 10 ** 6
BOUNDARY_SUM_CAP = 10_000


# ---------------------------------------------------------------------------
# Gamma-Laurent table
# ---------------------------------------------------------------------------

MAX_M = MAX_J = 10


class GammaLaurentTable(NamedTuple):
    """c[(m, j)] for m = 1..MAX_M, j = 0..MAX_J: the Gamma-Laurent coefficients
    of Gamma(1-m-z) = (-1)^m/((m-1)! z) + sum_j c[m,j] z^j / j!, read-only,
    and the largest relative residual against ``_c_table_by_division``."""

    c: MappingProxyType
    validation_residual: float


def _c_table_by_division(gamma_at_1):
    """Independent route to c[m, j] via
    Gamma(1-m-z) = Gamma(1-z) / prod_{i=1}^m (1-i-z):
    divide the Taylor jet of Gamma(1-z) by the polynomial part (i >= 2) and
    peel the single -z factor off analytically.
    """
    n = MAX_J + 1
    num = [gamma_at_1[j] * (-1.0) ** j / math.factorial(j) for j in range(n + 1)]
    table = {}
    for m in range(1, MAX_M + 1):
        a = list(num)
        for i in range(2, m + 1):
            # divide by (1 - i - z): b[k] = (a[k] + b[k-1]) / (1 - i)
            b = [0.0] * (n + 1)
            b[0] = a[0] / (1.0 - i)
            for k in range(1, n + 1):
                b[k] = (a[k] + b[k - 1]) / (1.0 - i)
            a = b
        # Gamma(1-m-z) = -A(z)/z: Laurent tail -a[j+1] at z^j
        for j in range(MAX_J + 1):
            table[(m, j)] = -a[j + 1] * math.factorial(j)
    return table


@functools.cache
def gamma_laurent_table() -> GammaLaurentTable:
    """The c[m, j] table by the functional-equation recurrences, cross-checked
    against the division route; built once per process."""
    jtop = MAX_J + 1
    gamma_at_1 = gamma_derivs(1.0, jtop + 1)
    # c_{0,j} = (-1)^j Gamma^(j)(1); c_{1,j} = -c_{0,j+1}/(j+1); then the
    # functional-equation recurrences upward in m.
    c0 = [(-1.0) ** j * gamma_at_1[j] for j in range(jtop + 1)]
    table = {}
    for j in range(jtop):
        table[(1, j)] = -c0[j + 1] / (j + 1)
    for m in range(1, MAX_M):
        table[(m + 1, 0)] = (-1.0) ** m / (math.factorial(m) * m) - table[(m, 0)] / m
        for j in range(1, jtop):
            table[(m + 1, j)] = -(table[(m, j)] + j * table[(m + 1, j - 1)]) / m
    ref = _c_table_by_division(gamma_at_1)
    resid = max(
        abs(table[(m, j)] - ref[(m, j)]) / max(1.0, abs(ref[(m, j)]))
        for m in range(1, MAX_M + 1)
        for j in range(MAX_J + 1)
    )
    return GammaLaurentTable(MappingProxyType(table), resid)


# ---------------------------------------------------------------------------
# moment expansions
# ---------------------------------------------------------------------------

def moment_expansion(phi_L: PowerLogSeries, order: int) -> PowerLogSeries:
    """Large-k expansion of c_k = int_0^1 t^k phi(t) dt from the L-series of phi.

    Each term b L^a (log 1/L)^j maps through
    int_0^1 t^k L^a (log 1/L)^j dt
      = (-1)^j sum_l C(j,l) Gamma^(j-l)(a+1) (-1)^l (log(k+1))^l / (k+1)^(a+1).
    Log-free rational input stays exact (Gamma(a+1) = a!).
    """
    if phi_L.terms and phi_L.min_power() < 0:
        raise DomainError("density series must have nonnegative powers of L")
    if order > phi_L.order + 1:
        raise TruncationError(
            f"density series known through L^{phi_L.order}: the moment "
            f"expansion is only determined through (k+1)^-{phi_L.order + 1}"
        )
    out_order = min(order, phi_L.order + 1)
    out = {}
    for (a, j), b in phi_L.terms.items():
        if a + 1 > out_order:
            continue
        if j == 0 and isinstance(a, int) and isinstance(b, Rational):
            key = (a + 1, 0)
            out[key] = out.get(key, 0) + b * math.factorial(a)
            continue
        gd = gamma_derivs(float(a) + 1.0, j)
        for l in range(j + 1):
            coef = (
                float(b)
                * (-1.0) ** (j + l)
                * math.comb(j, l)
                * gd[j - l]
            )
            key = (a + 1, l)
            out[key] = out.get(key, 0) + coef
    return PowerLogSeries(out, out_order)


def reciprocal_moments(c_exp: PowerLogSeries, order: int) -> PowerLogSeries:
    """1/c_k as (k+1) sum_m A_m /(k+1)^m with A_0 = 1, from the c_k expansion.

    Requires the input to lead with exactly 1/(k+1) (unit coefficient).
    The product c_exp * result is checked to be 1 through the common order,
    to 1e-12 absolute (AccuracyError otherwise).  That bounds the
    reciprocal's own error, the rounding of its recurrence on float input,
    and says nothing of the input's: a float c_exp that is off gives a
    reciprocal of the wrong series that still passes.  On exact input the
    residual is 0.
    """
    if not c_exp.terms or c_exp.min_power() != 1:
        raise NormalizationError("expansion must lead with 1/(k+1)")
    lead = c_exp.coeff(1, 0)
    if isinstance(lead, Rational):
        if lead != 1:
            raise NormalizationError("leading 1/(k+1) coefficient must be 1")
    elif abs(lead - 1.0) > 1e-12:
        raise NormalizationError("leading 1/(k+1) coefficient must be 1")
    inv = c_exp.reciprocal().truncate(order)
    prod = (c_exp * inv) - 1
    bad = [abs(float(c)) for c in prod.terms.values()]
    if bad and max(bad) > 1e-12:
        raise AccuracyError(f"reciprocal product check failed: residual {max(bad):g}")
    return inv


def a_m_coefficients(inv: PowerLogSeries, m_max: int):
    """A_0..A_m_max from a reciprocal-moment expansion (k+1) sum A_m x^m;
    TruncationError past the A_m that the series' order fixes."""
    if m_max > inv.order + 1:
        raise TruncationError(f"1/c_k known through x^{inv.order}: no A_{m_max}")
    return [inv.coeff(m - 1) for m in range(m_max + 1)]


def a_m_from_l_series(phi_L: PowerLogSeries, m_max: int):
    """A_0..A_m_max with 1/c_k = (k+1) sum_m A_m (k+1)^-m for the moments c_k
    of the density whose L-series is ``phi_L``, known through L^m_max at least.

    The chain runs in exact rationals on phi_L / phi(1): ``Fraction(c)``
    keeps every bit of a float coefficient, so the A_m are exact for the
    series as given.
    """
    lead = Fraction(phi_L.coeff(0))
    if lead == 0:
        raise NormalizationError("the L-series needs a nonzero constant term")
    unit = PowerLogSeries({k: Fraction(c) / lead for k, c in phi_L.terms.items()}, phi_L.order)
    c_exp = moment_expansion(unit, m_max + 1)
    inv = reciprocal_moments(c_exp, m_max - 1)
    return [a / lead for a in a_m_coefficients(inv, m_max)]


# ---------------------------------------------------------------------------
# Lerch transcendent
# ---------------------------------------------------------------------------

def lerch_phi(t: float, s: float, n_deriv: int = 0, *, method: str) -> float:
    """(d/ds)^n Phi(t, s, 1) = sum_{k>=0} t^k (log 1/(k+1))^n / (k+1)^s.

    method: "direct" term-wise summation, "boundary" the |L| < 2 pi
    singular expansion in L = log 1/t.

    Accuracy: the boundary path stays within a few ulp at integer s from -2
    to 9 for L below 0.1.  It loses digits to cancellation at positive
    integer s and mid-range L: the singular part and the zeta sum nearly
    cancel, and the result is then scaled by e^L (about 7.5e-9 relative at
    s = 2, n = 2, L = 4.82).  The same cancellation makes it wrong at large
    negative non-integer s and large L (1.3e-6 relative at s = -20.5 and
    1.9e2 at s = -40.5, L = 4.61), with no error raised.  The CLI's
    ``lerch`` subcommand reports that path's value as ``boundary`` at every
    L < 2 pi.

    Raises DomainError where the path's value is not finite: a term or the
    sum overflowed float64 (large negative s, say).  Where (k+1)^-s alone
    would overflow, the direct sum forms the term as
    exp(k log t - s log(k+1)), so it fails only where a term or Phi itself
    passes the float range.  Raises DomainError for a non-finite s or an
    unknown method, and ConvergenceBudgetError where the direct sum has not
    met its stopping rule within DIRECT_SUM_CAP terms (t very close to 1) or
    the boundary sum within BOUNDARY_SUM_CAP (L very close to 2 pi).  The
    boundary path raises CapabilityError at L >= 2 pi, at integer s >= 1
    where s or n_deriv passes the Gamma-Laurent table (MAX_M, MAX_J), and
    where n_deriv! passes float range (n_deriv > MAX_DERIV = 170) or a
    coefficient or term of the expansion does (s = 0.5 from n_deriv = 155;
    Gamma(1-s) itself below s = -170.6).
    """
    if not (0.0 < t < 1.0):
        raise DomainError("t must lie in (0, 1)")
    if not math.isfinite(s):
        raise DomainError("s must be finite")
    if n_deriv < 0:
        raise DomainError("n_deriv must be >= 0")
    if method == "direct":
        # an overflowing term makes the sum non-finite, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            value = _lerch_direct(t, s, n_deriv)
    elif method == "boundary":
        # Phi normalization: e^L times the k >= 1 series value
        L = -math.log(t)
        value = math.exp(L) * t_phi_boundary_value(s, n_deriv, L)
    else:
        raise DomainError(f"unknown method {method!r}")
    if not math.isfinite(value):
        raise DomainError(
            f"Phi(t={t:g}, s={s:g}) with n_deriv={n_deriv} overflowed float64 "
            f"on the {method} path"
        )
    return value


def _lerch_direct(t: float, s: float, n: int) -> float:
    total = 0.0
    k0 = 0
    block = 2048
    logt = math.log(t)
    while k0 < DIRECT_SUM_CAP:
        ks = np.arange(k0, k0 + block, dtype=float)
        tk = np.exp(ks * logt)
        kp1 = ks + 1.0
        power = kp1 ** (-s)
        terms = tk * power
        huge = np.isinf(power)  # s < 0: (k+1)^-s overflows before t^k damps it
        if huge.any():
            terms[huge] = np.exp(ks[huge] * logt - s * np.log(kp1[huge]))
        if n:
            terms = terms * (-np.log(kp1)) ** n
        total += float(terms.sum())
        if not math.isfinite(total):
            return total  # lerch_phi reports the overflow
        tail_scale = float(np.abs(terms[-8:]).max())
        if tail_scale < 1e-17 * max(abs(total), 1e-300):
            return total
        k0 += block
        block = min(2 * block, 1 << 16)
    raise ConvergenceBudgetError(
        f"direct sum at t={t!r}, s={s:g}, n_deriv={n} still above its stopping "
        f"rule after {DIRECT_SUM_CAP} terms (t too close to 1)"
    )


def _boundary_singular_part(s: float, n: int):
    """Singular part of (d/ds)^n [t Phi(t, s, 1)] in the |L| < 2 pi formula,
    as (power, coeffs, skip): the part is L^power sum_j coeffs[j] (log L)^j,
    and the regular part is sum_{k != skip} zeta^(n)(s-k) (-L)^k / k!.

    At positive integer s = m the Gamma(1-s) term and the k = m-1 zeta term
    are both singular; their sum is replaced by the Gamma-Laurent/Stieltjes
    limit (the primed-sum convention at n = 0) and skip = m-1.  Elsewhere
    coeffs[j] = C(n,j) (-1)^(n-j) Gamma^(n-j)(1-s) and skip is None.
    Integer powers stay exact, and so does Gamma(1-s) at integer s <= 0
    with n = 0 (a Fraction).  CapabilityError past the table at integer
    s >= 1, and elsewhere for n > MAX_DERIV, where the n! of the Gamma and
    zeta derivatives passes float range, or where a coefficient does (at
    s = 0.5 from n = 155 on, and Gamma(1-s) itself below s = -170.6).
    """
    s_int = int(round(s))
    if abs(s - s_int) < 1e-12 and s_int >= 1:
        m = s_int
        if m > MAX_M or n > MAX_J:
            raise CapabilityError("integer s or n_deriv exceeds the Gamma-Laurent table")
        c = gamma_laurent_table().c
        sigma = (-1.0) ** (m - 1) / math.factorial(m - 1)
        coeffs = [math.comb(n, j) * c[(m, n - j)] for j in range(n + 1)]
        coeffs[0] += sigma * (-1.0) ** n * STIELTJES[n]
        coeffs.append(-sigma / (n + 1))
        return m - 1, coeffs, m - 1
    if n > MAX_DERIV:
        raise CapabilityError(
            f"n_deriv={n}: the boundary expansion needs n! in float range (n_deriv <= {MAX_DERIV})"
        )
    one_minus_s = 1.0 - s
    past_range = f"n_deriv={n}: the Gamma derivatives at 1-s={one_minus_s:g} pass float range"
    if n == 0 and abs(one_minus_s - round(one_minus_s)) < 1e-12 and round(one_minus_s) >= 1:
        gd = [Fraction(math.factorial(int(round(one_minus_s)) - 1))]
    else:
        try:
            gd = gamma_derivs(one_minus_s, n)
        except DomainError:  # Gamma(1-s) itself overflows float64
            raise CapabilityError(past_range) from None
    power = Fraction(s - 1) if abs(s - round(s)) < 1e-12 else s - 1.0
    coeffs = [math.comb(n, j) * (-1) ** (n - j) * gd[n - j] for j in range(n + 1)]
    # an exact Fraction coefficient is checked where it meets a float
    if not all(isinstance(c, Fraction) or math.isfinite(c) for c in coeffs):
        raise CapabilityError(past_range)
    return power, coeffs, None


def _zeta_terms(s: float, ks, n: int, skip, log_L: float = 0.0):
    """The regular terms zeta^(n)(s-k) (-L)^k / k! for the int array ``ks``
    without ``skip``, as arrays (k, term)."""
    if skip is not None:
        ks = ks[ks != skip]
    terms = zeta_deriv_over_factorial(s, ks, n, log_L=log_L)
    terms[ks % 2 == 1] *= -1.0
    return ks, terms


def t_phi_boundary_value(s: float, n: int, L: float) -> float:
    """Value of (d/ds)^n [t Phi(t, s, 1)] at L = log(1/t) via the boundary
    formula, |L| < 2 pi.

    Unlike the series object, every zeta term is assembled in log space with
    L^k/k! folded in, so the sum stays accurate out to L near 2 pi where the
    bare coefficients underflow float64.  The terms decay like (L/2pi)^k and
    are added in order of k, in whole blocks; the sum stops after the first
    block whose last five terms are each below 1e-18 of the total.  Raises
    ConvergenceBudgetError if no block has met that rule by
    k = BOUNDARY_SUM_CAP, and CapabilityError where the singular part, one
    of its coefficients or a zeta term passes float range.
    """
    if not math.isfinite(s):
        raise DomainError("s must be finite")
    if not (0.0 < L < TWO_PI):
        raise CapabilityError(
            f"boundary expansion valid for 0 < L < 2*pi; got L={L:.3f} (use direct)"
        )
    logL = math.log(L)
    power, coeffs, skip = _boundary_singular_part(s, n)
    try:
        total = sum(c * logL ** j for j, c in enumerate(coeffs)) * L ** float(power)
    except OverflowError:
        # an exact Gamma(1-s) coefficient or L^(s-1) beyond float64
        raise CapabilityError(
            f"singular part at s={s:g}, n_deriv={n}, L={L:.6g} overflows float64"
        ) from None
    # regular terms in blocks of k, each block added in order of k; the sum
    # stops after the first block whose last five terms are each below 1e-18
    # of the total, less than half an ulp of it.  The terms fall like
    # (L/2pi)^k, and the first block reaches 1.6 times the k where that is
    # 1e-18, so one block is the rule.  Measured against blocks doubling
    # from 64, which give the same bits: the benchmark's 72 boundary sums
    # take 5.2-8.0 ms warm here against 6.4-11 ms (2-core VM)
    k0 = 0
    block = max(64, math.floor(1.6 * math.log(1e-18) / math.log(L / TWO_PI)) + 16)
    while k0 <= BOUNDARY_SUM_CAP:
        _, terms = _zeta_terms(s, np.arange(k0, min(k0 + block, BOUNDARY_SUM_CAP + 1)),
                               n, skip, logL)
        for term in terms.tolist():
            total += term
        if np.all(np.abs(terms[-5:]) < 1e-18 * max(abs(total), 1e-30)):
            return total
        k0 += block
        block *= 2
    raise ConvergenceBudgetError(
        f"boundary sum at s={s:g}, n_deriv={n}, L={L:.6g} still above its "
        f"stopping rule after {BOUNDARY_SUM_CAP} terms (L too close to 2*pi)"
    )


def t_phi_boundary_series(s: float, n: int, order: int) -> PowerLogSeries:
    """Series in L of (d/ds)^n [t Phi(t, s, 1)] (the k >= 1 sum), |L| < 2 pi:
    the singular part of ``_boundary_singular_part`` plus the zeta terms
    through L^order, in the log(1/L) grading."""
    power, coeffs, skip = _boundary_singular_part(s, n)
    # (log L)^j = (-1)^j (log 1/L)^j
    terms = {(power, j): c * (-1) ** j for j, c in enumerate(coeffs)}
    ks, values = _zeta_terms(s, np.arange(order + 1), n, skip)
    for k, term in zip(ks.tolist(), values.tolist()):
        terms[(k, 0)] = term
    return PowerLogSeries(terms, order)


def lerch_boundary_expansion(s: float, n_deriv: int, order: int) -> PowerLogSeries:
    """L-series of (d/ds)^n Phi(t, s, 1) near t = 1, valid for |L| < 2 pi.

    Built from the k >= 1 series by the exact re-indexing factor e^L,
    taken through L^(order + ceil(1 - s)) so that the product, which starts
    at L^(s-1), is known through L^order.
    At positive integer s the coefficients carry (log L)^j terms up to
    j = n_deriv + 1; elsewhere the singular part is L^(s-1) (log L)^j.
    """
    base = t_phi_boundary_series(s, n_deriv, order)
    eL = PowerLogSeries.variable(order + max(0, math.ceil(1 - s))).exp()
    return (eL * base).truncate(order)


# ---------------------------------------------------------------------------
# boundary expansion of the kernel diagonal
# ---------------------------------------------------------------------------

def boundary_expansion_F(inv: PowerLogSeries, n: int = 2, order: int = 8) -> PowerLogSeries:
    """L-expansion of F(t) = sum_k N(k)/c_{k+n-2} t^k near t = 1 (n = 2).

    ``inv`` is the expansion of 1/c_k with leading term (k+1); for n = 2 the
    moment index is unshifted and N(k) = 2(k+1) - 1.  Each
    (k+1)^(-m) (log(k+1))^j piece of N(k)/c_k maps to (-1)^j times the
    j-th s-derivative Lerch series at s = m; log-free singular coefficients
    at integer s <= 0 stay exact rationals.
    """
    if n != 2:
        raise CapabilityError(
            "boundary expansion of F is established for n = 2 (the moment "
            "index shift for general n changes the inv series)"
        )
    if not inv.terms or inv.min_power() != -1:
        raise NormalizationError("1/c_k expansion must lead with (k+1)")
    # N(k) = 2 (k+1) - 1
    n_series = PowerLogSeries({(-1, 0): Fraction(2), (0, 0): Fraction(-1)}, inv.order)
    g = n_series * inv
    result = PowerLogSeries.zero(order)
    for (mp, jp), coef in g.items_sorted():
        piece = lerch_boundary_expansion(float(mp), jp, order)
        result = result + piece * (coef * (-1) ** jp)
    return result.truncate(order)


# ---------------------------------------------------------------------------
# balanced germ family
# ---------------------------------------------------------------------------

def germ_family_f(v, order: int = 3, allow_flat_extension: bool = False) -> PowerLogSeries:
    """f-germ of the balanced family: L - L^2/4 + ((3 - 12 A_2)/72) L^3 + ...

    with A_2 = (1-v)/16 (and A_1 = 0).  Beyond L^3 the germ is only
    canonical modulo flat functions; ``allow_flat_extension`` selects the
    H = 0 convention f = (4 / F_singular)^(1/3).
    """
    if order > 3 and not allow_flat_extension:
        raise CapabilityError(
            "germ coefficients beyond L^3 are not canonical; "
            "pass allow_flat_extension=True for the H=0 convention"
        )
    if isinstance(v, Rational):
        A2 = (1 - Fraction(v)) / 16
    else:
        A2 = (1.0 - v) / 16.0
    wk = max(order, 3)
    L = PowerLogSeries.variable(wk + 1)
    one = PowerLogSeries.const(Fraction(1), wk + 1)
    body = one + L * Fraction(3, 4) + (L * L) * ((2 * A2 + 1) / 4)
    f = L * body.pow_fraction(Fraction(-1, 3))
    return f.truncate(order)

