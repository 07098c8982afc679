"""Boundary asymptotics: moment expansions, reciprocal coefficients A_m,
the Lerch transcendent with s-derivatives, and the L-expansion of F near t=1.

Conventions
-----------
* Moment asymptotics are written uniformly in x = 1/(k+1) with log(k+1)
  = log(1/x) as the log grading (InverseKSeries).
* ``lerch_phi`` returns (d/ds)^n Phi(t, s, 1) = sum_{k>=0} t^k
  (log 1/(k+1))^n / (k+1)^s; multiplying by t re-indexes to the classical
  sum over k >= 1.
* Boundary expansions are LSeries in L = log(1/t) with log(1/L) grading;
  they converge for |L| < 2 pi.
* Stieltjes constants follow the standard sign convention
  zeta(1+z) = 1/z + sum_j (-1)^j gamma_j z^j / j!; the gamma_n appearing in
  the integer-s Lerch formula is accordingly entered as (-1)^n gamma_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import (
    AccuracyError,
    CapabilityError,
    ConvergenceBudgetError,
    DomainError,
    NormalizationError,
    TruncationError,
)
from .profiles import phi_v_l_coefficients
from .series import InverseKSeries, LSeries, PowerLogSeries
from .special import (
    STIELTJES,
    gamma_derivs,
    stieltjes_euler_maclaurin,
    zeta_deriv_over_factorial,
)

TWO_PI = 2.0 * math.pi
DIRECT_SUM_CAP = 10 ** 6
BOUNDARY_SUM_CAP = 10_000


# ---------------------------------------------------------------------------
# LerchContext: shared constant tables
# ---------------------------------------------------------------------------

@dataclass
class LerchContext:
    """Immutable-by-convention tables shared by the boundary expansions.

    c[m, j] are the Gamma-Laurent coefficients of
    Gamma(1-m-z) = (-1)^m/((m-1)! z) + sum_j c[m,j] z^j / j!.
    """

    max_m: int
    max_j: int
    gammas: tuple
    c_table: dict
    gamma_at_1: tuple
    validation_residual: float
    _zeta_cache: dict = field(default_factory=dict, repr=False)

    def gamma_stieltjes(self, j: int) -> float:
        return self.gammas[j]

    def c(self, m: int, j: int) -> float:
        return self.c_table[(m, j)]

    def zeta_term(self, s: float, k: int, n: int) -> float:
        """zeta^(n)(s - k) / k!, cached and overflow-safe."""
        key = (float(s), k, n)
        hit = self._zeta_cache.get(key)
        if hit is None:
            hit = zeta_deriv_over_factorial(s, k, n)
            self._zeta_cache[key] = hit
        return hit

    def gamma_deriv_list(self, x: float, jmax: int):
        key = ("gamma", float(x), jmax)
        hit = self._zeta_cache.get(key)
        if hit is None:
            hit = gamma_derivs(x, jmax)
            self._zeta_cache[key] = hit
        return hit


def _c_table_by_division(gamma_at_1, max_m, max_j):
    """Independent route to c[m, j] via
    Gamma(1-m-z) = Gamma(1-z) / prod_{i=1}^m (1-i-z):
    divide the Taylor jet of Gamma(1-z) by the polynomial part (i >= 2) and
    peel the single -z factor off analytically.
    """
    n = max_j + 1
    num = [gamma_at_1[j] * (-1.0) ** j / math.factorial(j) for j in range(n + 1)]
    table = {}
    for m in range(1, max_m + 1):
        a = list(num)
        for i in range(2, m + 1):
            # divide by (1 - i - z): b[k] = (a[k] + b[k-1]) / (1 - i)
            b = [0.0] * (n + 1)
            b[0] = a[0] / (1.0 - i)
            for k in range(1, n + 1):
                b[k] = (a[k] + b[k - 1]) / (1.0 - i)
            a = b
        # Gamma(1-m-z) = -A(z)/z: Laurent tail -a[j+1] at z^j
        for j in range(max_j + 1):
            table[(m, j)] = -a[j + 1] * math.factorial(j)
    return table


def stieltjes_gamma_tables(max_m: int = 10, max_j: int = 10, recompute: bool = False) -> LerchContext:
    """Build the LerchContext: Stieltjes constants, Gamma-Laurent table,
    Gamma derivatives at 1, with internal cross-validation.

    ``recompute=True`` re-derives the Stieltjes constants by Euler-Maclaurin
    instead of the embedded table (and checks them against it).
    """
    if max_m > 10 or max_j > 10:
        raise CapabilityError("tables are specified for max_m, max_j <= 10")
    if recompute:
        gammas = tuple(stieltjes_euler_maclaurin(max(max_j + 1, 12)))
        drift = max(abs(gammas[j] - STIELTJES[j]) for j in range(len(STIELTJES)))
        if drift > 1e-12:
            raise AccuracyError(f"recomputed Stieltjes constants drifted by {drift:g}")
    else:
        gammas = STIELTJES
    jtop = max_j + 1
    gamma_at_1 = tuple(gamma_derivs(1.0, jtop + 1))
    # c_{0,j} = (-1)^j Gamma^(j)(1); c_{1,j} = -c_{0,j+1}/(j+1); then the
    # functional-equation recurrences upward in m.
    c0 = [(-1.0) ** j * gamma_at_1[j] for j in range(jtop + 1)]
    table = {}
    for j in range(jtop):
        table[(1, j)] = -c0[j + 1] / (j + 1)
    for m in range(1, max_m):
        table[(m + 1, 0)] = (-1.0) ** m / (math.factorial(m) * m) - table[(m, 0)] / m
        for j in range(1, jtop):
            table[(m + 1, j)] = -(table[(m, j)] + j * table[(m + 1, j - 1)]) / m
    ref = _c_table_by_division(gamma_at_1, max_m, max_j)
    resid = max(
        abs(table[(m, j)] - ref[(m, j)]) / max(1.0, abs(ref[(m, j)]))
        for m in range(1, max_m + 1)
        for j in range(max_j + 1)
    )
    table = {k: v for k, v in table.items() if k[1] <= max_j}
    return LerchContext(
        max_m=max_m,
        max_j=max_j,
        gammas=tuple(gammas),
        c_table=table,
        gamma_at_1=gamma_at_1,
        validation_residual=resid,
    )


_DEFAULT_CONTEXT = None


def default_context() -> LerchContext:
    global _DEFAULT_CONTEXT
    if _DEFAULT_CONTEXT is None:
        _DEFAULT_CONTEXT = stieltjes_gamma_tables()
    return _DEFAULT_CONTEXT


# ---------------------------------------------------------------------------
# moment expansions
# ---------------------------------------------------------------------------

def moment_expansion(phi_L: LSeries, order: int) -> InverseKSeries:
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
        if j == 0:
            if isinstance(a, Fraction) and a.denominator == 1 and isinstance(b, Rational):
                coef = b * math.factorial(int(a))
            else:
                coef = b * float(gamma_derivs(float(a) + 1.0, 0)[0])
            key = (a + 1, 0)
            out[key] = out.get(key, 0) + coef
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


def reciprocal_moments(c_exp: InverseKSeries, order: int) -> InverseKSeries:
    """1/c_k as (k+1) sum_m A_m /(k+1)^m with A_0 = 1, from the c_k expansion.

    Requires the input to lead with exactly 1/(k+1) (unit coefficient);
    the product c_exp * result is checked to be 1 through the common order.
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


def a_m_coefficients(inv: InverseKSeries, m_max: int):
    """A_0..A_m_max from a reciprocal-moment expansion (k+1) sum A_m x^m."""
    return [inv.coeff(Fraction(m - 1), 0) for m in range(m_max + 1)]


# ---------------------------------------------------------------------------
# Lerch transcendent
# ---------------------------------------------------------------------------

def lerch_phi(t: float, s: float, n_deriv: int = 0, method: str = "auto") -> float:
    """(d/ds)^n Phi(t, s, 1) = sum_{k>=0} t^k (log 1/(k+1))^n / (k+1)^s.

    method: "direct" term-wise summation, "boundary" the |L| < 2 pi
    singular expansion, "auto" boundary for L < 0.1 (where the direct
    sum converges slowly) and direct otherwise.
    """
    if not (0.0 < t < 1.0):
        raise DomainError("t must lie in (0, 1)")
    if n_deriv < 0:
        raise DomainError("n_deriv must be >= 0")
    L = -math.log(t)
    if method == "auto":
        method = "boundary" if L < 0.1 else "direct"
    if method == "direct":
        return _lerch_direct(t, s, n_deriv)
    if method == "boundary":
        if L >= TWO_PI:
            raise CapabilityError(
                f"boundary expansion valid for L < 2*pi; got L={L:.3f} (use direct)"
            )
        # Phi normalization: e^L times the k >= 1 series value
        return math.exp(L) * t_phi_boundary_value(s, n_deriv, L)
    raise DomainError(f"unknown method {method!r}")


def _lerch_direct(t: float, s: float, n: int) -> float:
    total = 0.0
    k0 = 0
    block = 2048
    logt = math.log(t)
    while k0 < DIRECT_SUM_CAP:
        ks = np.arange(k0, k0 + block, dtype=float)
        tk = np.exp(ks * logt)
        kp1 = ks + 1.0
        terms = tk * kp1 ** (-s)
        if n:
            terms = terms * (-np.log(kp1)) ** n
        total += float(terms.sum())
        tail_scale = float(np.abs(terms[-8:]).max())
        if tail_scale < 1e-17 * max(abs(total), 1e-300):
            return total
        k0 += block
        block = min(2 * block, 1 << 16)
    return total


def t_phi_boundary_value(s: float, n: int, L: float) -> float:
    """Value of (d/ds)^n [t Phi(t, s, 1)] at L = log(1/t) via the boundary
    formula, |L| < 2 pi.

    Unlike the series object, every zeta term is assembled in log space with
    L^k/k! folded in, so the sum stays accurate out to L near 2 pi where the
    bare coefficients underflow float64.  The terms decay like (L/2pi)^k;
    raises ConvergenceBudgetError if they have not met the stopping rule by
    k = BOUNDARY_SUM_CAP.
    """
    ctx = default_context()
    if not (0.0 < L < TWO_PI):
        raise CapabilityError("boundary formula needs 0 < L < 2*pi")
    logL = math.log(L)
    s_int = int(round(s))
    is_pos_int = abs(s - s_int) < 1e-12 and s_int >= 1
    total = 0.0
    if is_pos_int:
        m = s_int
        if m > ctx.max_m or n > ctx.max_j:
            raise CapabilityError("integer s or n_deriv exceeds the Gamma-Laurent table")
        sigma = (-1.0) ** (m - 1) / math.factorial(m - 1)
        sing = sum(
            math.comb(n, j) * ctx.c(m, n - j) * logL ** j for j in range(n + 1)
        )
        sing += sigma * ((-1.0) ** n * ctx.gamma_stieltjes(n) - logL ** (n + 1) / (n + 1))
        total += sing * L ** (m - 1)
        skip = m - 1
    else:
        gd = ctx.gamma_deriv_list(1.0 - s, n)
        sing = sum(
            math.comb(n, j) * (-1.0) ** (n - j) * gd[n - j] * logL ** j
            for j in range(n + 1)
        )
        total += sing * L ** (s - 1.0)
        skip = None
    # terms zeta^(n)(s-k) (-L)^k / k! in blocks of k, added in order until
    # five consecutive terms fall below 1e-18 of the running total
    small_run = 0
    k0, block = 0, 64
    while k0 <= BOUNDARY_SUM_CAP:
        ks = np.arange(k0, min(k0 + block, BOUNDARY_SUM_CAP + 1))
        if skip is not None:
            ks = ks[ks != skip]
        terms = zeta_deriv_over_factorial(s, ks, n, log_L=logL)
        terms[ks % 2 == 1] *= -1.0
        for k, term in zip(ks.tolist(), terms.tolist()):
            total += term
            if abs(term) < 1e-18 * max(abs(total), 1e-30):
                small_run += 1
                if small_run >= 5 and k > 8:
                    return total
            else:
                small_run = 0
        k0 += block
        block *= 2
    raise ConvergenceBudgetError(
        f"boundary sum at s={s:g}, n_deriv={n}, L={L:.6g} still above its "
        f"stopping rule after {BOUNDARY_SUM_CAP} terms (L too close to 2*pi)"
    )


def _t_phi_boundary_series(s: float, n: int, order: int) -> LSeries:
    """Series in L of (d/ds)^n [t Phi(t, s, 1)] (the k >= 1 sum), |L| < 2 pi.

    Positive integer s uses the Gamma-Laurent/Stieltjes replacement of the
    otherwise singular terms (with the primed-sum convention at n = 0); the
    k = s-1 zeta term is omitted there.
    """
    ctx = default_context()
    s_int = int(round(s))
    is_pos_int = abs(s - s_int) < 1e-12 and s_int >= 1
    terms = {}

    def add(power, logpow_of_logL, value):
        # convert beta * L^power (log L)^j into the log(1/L) grading
        key = (power, logpow_of_logL)
        terms[key] = terms.get(key, 0) + value * (-1) ** logpow_of_logL

    if is_pos_int:
        m = s_int
        if m > ctx.max_m or n > ctx.max_j:
            raise CapabilityError("integer s or n_deriv exceeds the Gamma-Laurent table")
        sp = Fraction(m - 1)
        sigma = Fraction((-1) ** (m - 1), math.factorial(m - 1))
        for j in range(n + 1):
            add(sp, j, math.comb(n, j) * ctx.c(m, n - j))
        add(sp, 0, float(sigma) * (-1.0) ** n * ctx.gamma_stieltjes(n))
        add(sp, n + 1, -float(sigma) / (n + 1))
        for k in range(order + 1):
            if k == m - 1:
                continue
            add(Fraction(k), 0, ctx.zeta_term(float(m), k, n) * (-1.0) ** k)
    else:
        one_minus_s = 1.0 - s
        exact_gamma = (
            n == 0
            and abs(one_minus_s - round(one_minus_s)) < 1e-12
            and round(one_minus_s) >= 1
        )
        if exact_gamma:
            gd = [Fraction(math.factorial(int(round(one_minus_s)) - 1))]
        else:
            gd = ctx.gamma_deriv_list(one_minus_s, n)
        sp = Fraction(s - 1) if abs(s - round(s)) < 1e-12 else s - 1.0
        for j in range(n + 1):
            add(sp, j, math.comb(n, j) * (-1) ** (n - j) * gd[n - j])
        for k in range(order + 1):
            add(Fraction(k), 0, ctx.zeta_term(s, k, n) * (-1.0) ** k)
    return PowerLogSeries(terms, order)


def lerch_boundary_expansion(s: float, n_deriv: int, order: int) -> LSeries:
    """L-series of (d/ds)^n Phi(t, s, 1) near t = 1, valid for |L| < 2 pi.

    Built from the k >= 1 series by the exact re-indexing factor e^L.
    At positive integer s the coefficients carry (log L)^j terms up to
    j = n_deriv + 1; elsewhere the singular part is L^(s-1) (log L)^j.
    """
    base = _t_phi_boundary_series(s, n_deriv, order)
    eL = PowerLogSeries.variable(order).exp()
    return (eL * base).truncate(order)


# ---------------------------------------------------------------------------
# boundary expansion of the kernel diagonal
# ---------------------------------------------------------------------------

def _dimension_poly_in_kp1(n: int):
    """N(k) as exact coefficients of powers of (k+1): N(k) = sum_i d_i (k+1)^i."""

    def binom_poly(shift):
        # C(k+shift, n-1) as polynomial in y = k+1: product (k+shift-r), r=0..n-2
        coeffs = {0: Fraction(1)}
        for r in range(n - 1):
            const = Fraction(shift - r - 1)  # (k + shift - r) = (y + shift - r - 1)
            new = {}
            for p, c in coeffs.items():
                new[p + 1] = new.get(p + 1, Fraction(0)) + c
                new[p] = new.get(p, Fraction(0)) + c * const
            coeffs = new
        fact = Fraction(1, math.factorial(n - 1))
        return {p: c * fact for p, c in coeffs.items()}

    total = {}
    for shift in (n - 1, n - 2):
        for p, c in binom_poly(shift).items():
            total[p] = total.get(p, Fraction(0)) + c
    return total


def boundary_expansion_F(inv: InverseKSeries, n: int = 2, order: int = 8) -> LSeries:
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
    dims = _dimension_poly_in_kp1(n)
    n_series = PowerLogSeries({(Fraction(-p), 0): c for p, c in dims.items()},
                              inv.order)
    g = n_series * inv
    result = PowerLogSeries.zero(order)
    for (mp, jp), coef in g.items_sorted():
        if isinstance(mp, Fraction) and mp.denominator == 1:
            s_val = int(mp)
        else:
            s_val = float(mp)
        piece = lerch_boundary_expansion(float(s_val), jp, order)
        result = result + piece * (coef * (-1) ** jp)
    return result.truncate(order)


# ---------------------------------------------------------------------------
# balanced germ family
# ---------------------------------------------------------------------------

def germ_family_f(v, order: int = 3, allow_flat_extension: bool = False) -> LSeries:
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


def germ_round_trip_residual(v, order: int = 2):
    """Coefficient residuals of density(germ_family_f(v)) - phi_v through ``order``."""
    from .profiles import density_in_L

    f = germ_family_f(v, order + 2, allow_flat_extension=True)
    phi = density_in_L(f)
    target = phi_v_l_coefficients(v, order)
    return [phi.coeff(Fraction(j), 0) - target[j] for j in range(order + 1)]
