import math
from fractions import Fraction as F

import numpy as np
import pytest

from kepler_balance import asymptotics as A
from kepler_balance import kernel as K
from kepler_balance import special
from kepler_balance.errors import (
    CapabilityError,
    ConvergenceBudgetError,
    DomainError,
    NormalizationError,
    TruncationError,
)
from kepler_balance.profiles import phi_v_l_coefficients, phi_v_l_series
from kepler_balance.series import PowerLogSeries as S
from kepler_balance.special import STIELTJES, gamma_derivs, stieltjes_euler_maclaurin


# --- phi_v coefficients ----------------------------------------------------

def test_phi_v_L_coeffs_examples():
    assert phi_v_l_coefficients(1, 3) == [1, 0, 0, 0]
    assert phi_v_l_coefficients(7, 1)[1] == 0
    # brute-force Taylor oracle for v = 9: sample phi_9 and difference
    coeffs = phi_v_l_coefficients(9, 2)
    assert coeffs[2] == F(1, 4)


def _phi_v_l_closed_form(w, J):
    """a_j = [(1+w)(1-w)^j - (1-w)(1+w)^j] / (4^j j! 2w) for v = w^2, and its
    limit (1-j)/(4^j j!) at w = 0."""
    if w == 0:
        return [F(1 - j, 4 ** j * math.factorial(j)) for j in range(J + 1)]
    return [((1 + w) * (1 - w) ** j - (1 - w) * (1 + w) ** j) / (4 ** j * math.factorial(j) * 2 * w)
            for j in range(J + 1)]


def _phi_v_l_binomial(v, J):
    """a_j = sum_p v^p [C(j, 2p) - C(j, 2p+1)] / (4^j j!): the closed form
    expanded in powers of v, exact for a rational v."""
    return [sum(F(v) ** p * (math.comb(j, 2 * p) - math.comb(j, 2 * p + 1))
                for p in range(j // 2 + 1)) / (4 ** j * math.factorial(j))
            for j in range(J + 1)]


@pytest.mark.parametrize("v, w", [(0, 0), (1, 1), (4, 2), (9, 3), (F(1, 4), F(1, 2)),
                                  (-4, None), (-1, None), (F(173, 10), None),
                                  (F(2.5), None), (60, None)],
                         ids=["0", "1", "2", "3", "w4", "v=-4", "v=-1", "v=173/10", "v=5/2", "v=60"])
def test_phi_v_L_coeffs_match_closed_form(v, w):
    # v = w^2 for a rational w, or no rational square root (w = None); the
    # ids of the squares name w
    coeffs = phi_v_l_coefficients(v, 40)
    assert coeffs == _phi_v_l_binomial(v, 40)
    if w is not None:
        assert coeffs == _phi_v_l_closed_form(F(w), 40)
    assert all(type(c) is F for c in coeffs)


def test_phi_v_L_coeffs_types():
    # exact for int and Fraction v (square or not), and for a float v the
    # correctly rounded float of each exact coefficient of Fraction(v)
    for v in (2, -4, -1, F(173, 10), F(2.5), 60):
        coeffs = phi_v_l_coefficients(v, 40)
        assert all(type(c) is F for c in coeffs), v
        assert coeffs == _phi_v_l_binomial(v, 40), v
    for x in (2.5, -4.0, -1.0, 17.3, 60.0):
        coeffs = phi_v_l_coefficients(x, 40)
        assert all(type(c) is float for c in coeffs), x
        assert coeffs == [float(c) for c in _phi_v_l_binomial(F(x), 40)], x


@pytest.mark.parametrize("v", [-4, -1, 0.5, 2.5, 17.3, 60])
def test_phi_v_L_series_sums_to_phi_v(v):
    # sum_j a_j L^j against phi_v(v, e^-L) at small L, for v of either sign
    from kepler_balance.profiles import phi_v

    for L in (1e-3, 0.01, 0.05):
        want = phi_v(v, math.exp(-L))
        for vv in (v, F(v)):
            got = float(sum(c * F(L) ** j for j, c in enumerate(phi_v_l_coefficients(vv, 24))))
            assert got == pytest.approx(want, rel=1e-13, abs=0), (vv, L)


# --- moment expansion ------------------------------------------------------

def test_moment_expansion_trivial():
    c = A.moment_expansion(S.const(F(1), 8), 8)
    assert c.coeff(1) == 1
    assert all(c.coeff(i) == 0 for i in range(2, 8))


def test_moment_expansion_of_L():
    c = A.moment_expansion(S.variable(8), 8)
    assert c.coeff(2) == 1  # int t^k L dt = 1/(k+1)^2
    assert c.coeff(1) == 0


def test_moment_expansion_matches_rational_function():
    # c_k for phi_v re-expanded equals (16k+8)/(16k^2+24k+9-v)
    for v in (1, 4, 9):
        cexp = A.moment_expansion(phi_v_l_series(v, 14), 14)
        for k in (5, 12, 25):
            exact = F(16 * k + 8, 16 * k * k + 24 * k + 9 - v)
            approx = sum(c * F(1, k + 1) ** a for (a, _j), c in cexp.terms.items())
            assert abs(float(approx - exact)) < 2e-12


def test_moment_expansion_log_terms():
    # phi = L (log 1/L): int t^k L (log 1/L) dt = (log(k+1) - Gamma'(2))/(k+1)^2
    ser = S({(F(1), 1): F(1)}, 6)
    c = A.moment_expansion(ser, 6)
    gp2 = gamma_derivs(2.0, 1)[1]
    assert float(c.coeff(2, 1)) == pytest.approx(1.0)
    assert float(c.coeff(2, 0)) == pytest.approx(-gp2)


# --- reciprocal ------------------------------------------------------------

def test_moment_expansion_log_terms_vs_quadrature():
    # independent oracle: tanh-sinh quadrature of t^k L^a (log 1/L)^j against
    # the Gamma-derivative mapping, for a mixed series
    from kepler_balance.quadrature import integrate_01

    ser = S({(F(1), 1): F(2), (F(2), 1): F(-1), (F(2), 2): F(1, 3)}, 6)
    cexp = A.moment_expansion(ser, 6)
    for k in (3, 11):
        def integrand(t, k=k):
            L = -np.log(t)
            safe = L > 0
            lil = np.where(safe, np.log(1.0 / np.where(safe, L, 1.0)), 0.0)
            L = np.where(safe, L, 0.0)
            return t ** k * (2 * L * lil - L ** 2 * lil + L ** 2 * lil ** 2 / 3)

        ref, _err = integrate_01(integrand, tol=1e-13)
        x = 1.0 / (k + 1)
        val = sum(
            float(c) * x ** float(a) * math.log(k + 1.0) ** j
            for (a, j), c in cexp.terms.items()
        )
        assert val == pytest.approx(ref, rel=1e-11)


def test_reciprocal_trivial():
    inv = A.reciprocal_moments(S({(F(1), 0): F(1)}, 8), 6)
    assert inv.coeff(F(-1)) == 1
    assert all(inv.coeff(i) == 0 for i in range(0, 6))


def test_reciprocal_generic_A1():
    # c_k = 1/(k+1) + a (1/(k+1))^2 -> A_1 = -1!a_1 with a_1 = a
    a = F(3, 5)
    cexp = S({(F(1), 0): F(1), (F(2), 0): a}, 8)
    inv = A.reciprocal_moments(cexp, 7)
    assert inv.coeff(0) == -a


def test_reciprocal_requires_unit_leading():
    with pytest.raises(NormalizationError):
        A.reciprocal_moments(S({(F(1), 0): F(2)}, 6), 5)
    with pytest.raises(NormalizationError):
        A.reciprocal_moments(S({(F(2), 0): F(1)}, 6), 5)


def test_chain_exactness_and_identities():
    for w in (1, 2, 3):
        v = w * w
        inv = A.reciprocal_moments(A.moment_expansion(phi_v_l_series(v, 13), 13), 12)
        Am = A.a_m_coefficients(inv, 10)
        assert inv.is_rational()
        assert Am[1] == 0
        A2 = F(1 - v, 16)
        assert Am[2] == A2
        for m in range(2, 11):
            assert Am[m] * F(2) ** (m - 2) == A2


def test_reciprocal_moments_accuracy_error():
    # a float expansion whose coefficients grow like 32^a: the rounding of
    # its reciprocal leaves a product residual of ~1e3 at order 14
    from kepler_balance.errors import AccuracyError

    terms = {(1, 0): 1.0}
    for a in range(2, 16):
        terms[(a, 0)] = 0.1 * (-1) ** a * 32 ** (a - 1) + 32 ** (a - 2) / 3
    with pytest.raises(AccuracyError, match="reciprocal product check failed"):
        A.reciprocal_moments(S(terms, 15), 14)


def test_reciprocal_moments_claims_only_known_orders():
    # a density series through L^5 fixes 1/c_k through x^4, so A_0..A_5
    cexp = A.moment_expansion(phi_v_l_series(4, 5), 6)
    inv = A.reciprocal_moments(cexp, 9)
    assert inv.order == 4
    with pytest.raises(TruncationError):
        A.a_m_coefficients(inv, 10)
    full = A.a_m_from_l_series(phi_v_l_series(4, 12), 10)
    assert A.a_m_coefficients(inv, 5) == full[:6]
    assert full[6] == F(-3, 256)


def test_product_identity_float():
    # the float chain (a float v) still satisfies c * (1/c) = 1 to 1e-13
    cexp = A.moment_expansion(phi_v_l_series(2.0, 10), 10)
    assert not cexp.is_rational()
    inv = A.reciprocal_moments(cexp, 9)
    prod = (cexp * inv) - 1
    assert max((abs(float(c)) for c in prod.terms.values()), default=0.0) < 1e-13


def test_consistency_with_quadrature_moments():
    # numeric c_k minus the N-truncated expansion decays like (k+1)^-(N+1)
    N = 3
    cexp = A.moment_expansion(phi_v_l_series(9, N), N)  # terms through x^N
    dens = K.phi_v_density(9)
    ks = np.arange(50, 201, 10)
    resid = []
    for k in ks:
        approx = sum(float(c) / (k + 1.0) ** float(a) for (a, _j), c in cexp.terms.items())
        resid.append(abs(dens.moment(int(k))[0] - approx))
    slope = np.polyfit(np.log(ks + 1.0), np.log(resid), 1)[0]
    assert slope == pytest.approx(-(N + 1), abs=0.1)


# --- Lerch -----------------------------------------------------------------

def test_lerch_direct_values():
    assert A.lerch_phi(0.5, 0, 0, method="direct") == pytest.approx(2.0, rel=1e-14)
    assert A.lerch_phi(0.5, 1, 0, method="direct") == pytest.approx(2 * math.log(2), rel=1e-13)


def test_lerch_integer_s_identity_m2():
    t = math.exp(-1.0)
    direct = t * A.lerch_phi(t, 2, 0, method="direct")
    formula = A.t_phi_boundary_value(2.0, 0, 1.0)
    assert direct == pytest.approx(formula, abs=1e-9)


def test_lerch_two_path_subset():
    for s in (-2, 0.5, 2):
        for n in (0, 1, 2):
            for L in (0.5, 3.0):
                t = math.exp(-L)
                d = A.lerch_phi(t, s, n, method="direct")
                b = A.lerch_phi(t, s, n, method="boundary")
                assert d == pytest.approx(b, abs=1e-8)


def test_lerch_two_path_full_invariant_grid():
    # module invariant: s in {-2,-1,0,0.5,1,2,3} x n in {0,1,2} x L in
    # {0.1, 1, 3, 6}, absolute agreement <= 1e-8
    worst = 0.0
    for s in (-2, -1, 0, 0.5, 1, 2, 3):
        for n in (0, 1, 2):
            for L in (0.1, 1.0, 3.0, 6.0):
                t = math.exp(-L)
                d = A.lerch_phi(t, s, n, method="direct")
                b = A.lerch_phi(t, s, n, method="boundary")
                worst = max(worst, abs(d - b))
    assert worst <= 1e-8


@pytest.mark.parametrize("s, n, L", [(27.000001, 2, 0.5), (30.000001, 2, 0.5),
                                     (18.000001, 2, 0.05), (21.000001, 2, 0.1),
                                     (27.000001, 1, 0.5)])
def test_lerch_boundary_sums_past_small_terms_near_integer_s(s, n, L):
    # beside zeta's pole the k = round(s) - 1 term is large, and smaller
    # terms come before it: the sum must reach it (a stop on a run of five
    # small terms returned 5.6e-8 to 1.8e-14 relative error here)
    t = math.exp(-L)
    direct = t * A.lerch_phi(t, s, n, method="direct")
    assert A.t_phi_boundary_value(s, n, L) == pytest.approx(direct, rel=1e-14, abs=0)


def _lerch_defining_sum(t, s, n):
    """(d/ds)^n Phi(t, s, 1) = sum_k t^k (-log(k+1))^n / (k+1)^s at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        t, s = mpmath.mpf(t), mpmath.mpf(s)
        k_rise = int(4 * (abs(float(s)) + n + 1) / -math.log(float(t))) + 10
        total, tk, k = mpmath.mpf(0), mpmath.mpf(1), 0
        while True:
            term = tk * (-mpmath.log(k + 1)) ** n / mpmath.power(k + 1, s)
            total += term
            if k > k_rise and abs(term) <= 1e-25 * abs(total):
                return float(total)
            tk *= t
            k += 1


@pytest.mark.parametrize("L", [6.1, 6.15, 6.2])
def test_lerch_boundary_near_two_pi_vs_oracle(L):
    # the boundary terms peak near k ~ |s| / log(2 pi / L) (~150 at L = 6.2)
    # and reach ~1e2 while the value is O(1): each term must hold its
    # relative accuracy
    t = math.exp(-L)
    for s in (1, 2, 0.5, -1.5, -2):
        for n in (0, 1, 2):
            ref = _lerch_defining_sum(t, s, n)
            b = A.lerch_phi(t, s, n, method="boundary")
            assert abs(b - ref) <= 1e-8 * max(1.0, abs(ref)), (s, n, L, b, ref)


@pytest.mark.parametrize("L", [1e-8, 1e-4, 0.05, 0.0999, 0.1001])
def test_lerch_integer_s_near_boundary_vs_mpmath(L):
    # the boundary path below L = 0.1, the direct sum just past it
    mpmath = pytest.importorskip("mpmath")
    t = math.exp(-L)
    method = "boundary" if L < 0.1 else "direct"
    for s in range(-2, 9):
        with mpmath.workdps(30):
            ref = float(mpmath.lerchphi(mpmath.mpf(t), s, 1))
        assert A.lerch_phi(t, float(s), method=method) == pytest.approx(
            ref, rel=1e-12, abs=0), (s, L)


def test_lerch_boundary_budget():
    # still above the stopping rule at the term cap: a typed failure, not a
    # silently truncated sum
    with pytest.raises(ConvergenceBudgetError):
        A.lerch_phi(math.exp(-6.27), -1.5, 2, method="boundary")


def test_lerch_domain_and_capability():
    from kepler_balance.errors import DomainError

    with pytest.raises(DomainError):
        A.lerch_phi(1.0, 2, 0, method="direct")
    with pytest.raises(CapabilityError):
        A.lerch_phi(math.exp(-7.0), 2, 0, method="boundary")  # L > 2 pi
    with pytest.raises(DomainError, match="unknown method 'auto'"):
        A.lerch_phi(0.5, 2, 0, method="auto")


def test_lerch_nonfinite_value_is_domain_error():
    from kepler_balance.errors import DomainError

    # both paths overflow float64 at s = -170, t = 0.5
    for method in ("direct", "boundary"):
        with pytest.raises(DomainError, match="overflow"):
            A.lerch_phi(0.5, -170.0, 0, method=method)
    # at t = 0.99 the boundary path's exact Gamma(1-s) = 175! does not fit a
    # float: that path cannot serve the point, so the error is a capability
    with pytest.raises(CapabilityError, match="overflows"):
        A.lerch_phi(0.99, -175.0, 0, method="boundary")
    with pytest.raises(CapabilityError, match="overflows"):
        A.t_phi_boundary_value(-175.0, 0, -math.log(0.99))
    # a large finite value keeps its direct-sum bits
    assert A.lerch_phi(0.5, -40.0, 0, method="direct") == A._lerch_direct(0.5, -40.0, 0)


@pytest.mark.parametrize("s", [-94.0, -100.0, -120.0, -150.0])
@pytest.mark.parametrize("n", [0, 1])
def test_lerch_direct_large_negative_s_matches_mpmath(s, n):
    # (k+1)^-s overflows from s = -94 at t = 0.5 although Phi is finite:
    # those terms are formed as exp(k log t - s log(k+1))
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = mpmath.diff(lambda x: mpmath.lerchphi(0.5, x, 1), s, n)
    value = A.lerch_phi(0.5, s, n, method="direct")
    assert math.isfinite(value)
    assert value == pytest.approx(float(ref), rel=1e-13)


@pytest.mark.parametrize("s, oracle", [(-171.0, 1.0363832724175046242e197),
                                       (-171.5, 6.3291611766144723825e197)])
def test_lerch_direct_past_float_gamma_matches_mpmath(s, oracle):
    # Gamma(1-s) leaves float range here, so only the direct path serves
    # the point; oracle: sum_k 0.01^k (k+1)^-s at 40 digits (mpmath.nsum)
    assert A.lerch_phi(0.01, s, 0, method="direct") == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("t, s", [(0.9999999, 2.0), (0.999999, -30.0)])
def test_lerch_direct_sum_past_its_cap_is_budget_error(t, s):
    # the direct sum needs ~10^7 terms here; it raises rather than return
    # its partial sum at DIRECT_SUM_CAP (4e-7 relative low at s = 2)
    with pytest.raises(ConvergenceBudgetError, match="direct sum"):
        A.lerch_phi(t, s, 0, method="direct")


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_lerch_nonfinite_s_is_domain_error(s):
    for method in ("direct", "boundary", "auto"):
        with pytest.raises(DomainError, match="s must be finite"):
            A.lerch_phi(0.5, s, 0, method=method)
    with pytest.raises(DomainError, match="s must be finite"):
        A.t_phi_boundary_value(s, 0, 0.5)


def _boundary_bits(s, n):
    """lerch_phi's boundary value at L = 2 and lerch_boundary_expansion at
    order 8, as exact text."""
    value = A.lerch_phi(math.exp(-2.0), s, n, method="boundary")
    series = A.lerch_boundary_expansion(s, n, 8)
    return value.hex(), [(key, repr(c)) for key, c in series.items_sorted()]


@pytest.mark.parametrize("s", [-2.0, -1.5, 0.0, 0.5, 1.0, 2.0, 3.0, 7.3])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_zeta_tables_never_show_in_boundary_values(s, n, monkeypatch):
    # the same bits from an emptied (s, n) table, after a larger-L call grew
    # it, and after a smaller-L call
    monkeypatch.setattr(special, "_tables", type(special._tables)())
    fresh = _boundary_bits(s, n)
    A.lerch_phi(math.exp(-6.2), s, n, method="boundary")
    assert special._tables[(s, n)].size > 1000
    assert _boundary_bits(s, n) == fresh
    A.lerch_phi(math.exp(-0.05), s, n, method="boundary")
    assert _boundary_bits(s, n) == fresh


def test_boundary_expansion_s1():
    # -log L + gamma-terms; L-coefficient -zeta(0) = 1/2; log L present
    ser = A.lerch_boundary_expansion(1, 0, 6)
    assert float(ser.coeff(0, 1)) == pytest.approx(1.0)  # +log(1/L)
    assert float(ser.coeff(1, 0)) == pytest.approx(0.5, abs=1e-13)


def test_boundary_expansion_s0_bernoulli():
    # Phi(t,0,1) = 1/(1-t): 1/L + 1/2 + L/12 + 0 L^2 - L^3/720
    ser = A.lerch_boundary_expansion(0, 0, 6)
    assert ser.coeff(F(-1)) == 1
    assert float(ser.coeff(0)) == pytest.approx(0.5)
    assert float(ser.coeff(1)) == pytest.approx(1 / 12, abs=1e-14)
    assert float(ser.coeff(2)) == pytest.approx(0.0, abs=1e-14)
    assert float(ser.coeff(3)) == pytest.approx(-1 / 720, abs=1e-14)


def test_boundary_expansion_s_minus_2_knows_its_order():
    # Phi(t, -2) = (1+t)/(1-t)^3: its Laurent series in L, exact, from
    # 1 - t = L (1 - L/2 + ...) and t = e^-L
    ser = A.lerch_boundary_expansion(-2, 0, 8)
    assert ser.order == 8
    t = (S.variable(16) * -1).exp()
    one_minus_t_over_L = S({(a - 1, j): c for (a, j), c in (1 - t).terms.items()}, 15)
    r = one_minus_t_over_L.reciprocal()
    laurent = (1 + t) * r * r * r  # times L^3
    for k in range(-3, 9):
        want = laurent.coeff(k + 3)
        assert float(ser.coeff(k)) == pytest.approx(float(want), rel=1e-12, abs=1e-18), k
    assert [float(laurent.coeff(k + 3)) for k in (6, 7, 8)] == pytest.approx(
        [1.157e-5, 6.76e-7, -3.76e-7], rel=1e-3)


def test_boundary_expansion_s2_n1_log_powers():
    # integer s with n_deriv = 1 carries (log L)^2 terms at L^(s-1)
    ser = A.lerch_boundary_expansion(2, 1, 30)
    assert any(k[1] == 2 for k in ser.terms)
    # the value and the series share one singular part: check both against
    # the direct sum on every branch of it (non-integer s, integer s <= 0
    # with an exact Gamma(1-s), positive integer s with the Gamma-Laurent
    # and gamma_n terms)
    L = 0.7
    for s in (-1.5, 0, 0.5, 1, 2, 3):
        for n in (0, 1, 2):
            val_d = A.lerch_phi(math.exp(-L), s, n, method="direct")
            val_s = A.lerch_boundary_expansion(s, n, 30).evaluate(L, log_inv_x=-math.log(L))
            val_b = A.lerch_phi(math.exp(-L), s, n, method="boundary")
            assert val_d == pytest.approx(val_s, abs=1e-10), (s, n)
            assert val_d == pytest.approx(val_b, abs=1e-10), (s, n)


# --- boundary expansion of F -------------------------------------------------

def test_boundary_F_phi1_exact():
    inv = S({(F(-1), 0): F(1)}, 10)
    ser = A.boundary_expansion_F(inv, 2, 8)
    assert ser.coeff(F(-3)) == 4
    assert ser.coeff(F(-2)) == 3
    assert ser.coeff(F(-1)) == 1
    assert not [k for k in ser.terms if k[1] > 0]
    L = 0.25
    t = math.exp(-L)
    assert ser.evaluate(L) == pytest.approx((1 + 3 * t) / (1 - t) ** 3, rel=1e-10)


def test_boundary_F_phi_v_log_free():
    for v in (4, 9):
        inv = A.reciprocal_moments(A.moment_expansion(phi_v_l_series(v, 12), 12), 11)
        ser = A.boundary_expansion_F(inv, 2, 6)
        logs = [abs(float(c)) for k, c in ser.terms.items() if k[1] > 0]
        assert max(logs, default=0.0) < 1e-12


def test_boundary_F_artificial_log_term():
    inv = S({(F(-1), 0): F(1), (F(2), 1): F(1)}, 10)
    ser = A.boundary_expansion_F(inv, 2, 6)
    assert abs(float(ser.coeff(0, 1))) > 0.1  # log L at order L^0
    assert abs(float(ser.coeff(0, 2))) > 0.1  # and (log L)^2 from the integer-s replacement


def test_boundary_F_requires_kp1_leading():
    with pytest.raises(NormalizationError):
        A.boundary_expansion_F(S({(F(0), 0): F(1)}, 8), 2, 6)


def test_boundary_F_rejects_general_n():
    # the 1/c_k series convention is tied to the n = 2 index alignment
    inv = S({(F(-1), 0): F(1)}, 10)
    with pytest.raises(CapabilityError):
        A.boundary_expansion_F(inv, 3, 6)


# --- germ family ------------------------------------------------------------

def test_germ_family_values():
    g = A.germ_family_f(1)
    assert [g.coeff(i) for i in range(4)] == [0, 1, F(-1, 4), F(1, 24)]
    g4 = A.germ_family_f(F(1, 2))
    assert g4.coeff(3) == (3 - 12 * F(1 - F(1, 2), 16)) / 72


def test_germ_order_guard():
    with pytest.raises(CapabilityError):
        A.germ_family_f(1, 4)
    g = A.germ_family_f(1, 6, allow_flat_extension=True)
    assert g.coeff(1) == 1


def test_germ_round_trip():
    from kepler_balance.profiles import germ_residual

    for v in (1, 4, 9, F(1, 4)):
        f = A.germ_family_f(v, 4, allow_flat_extension=True)
        assert germ_residual(f, v, 2) == [0, 0, 0]


def test_germ_matches_candidate_through_L3():
    from kepler_balance.profiles import RadialProfile

    cand_ser = RadialProfile.phi_v_candidate(1).l_series(3)
    germ = A.germ_family_f(1, 3)
    for j in range(4):
        assert cand_ser.coeff(j) == germ.coeff(j)


# --- tables -----------------------------------------------------------------

def test_stieltjes_tables():
    table = A.gamma_laurent_table()
    assert table.c[(1, 0)] == pytest.approx(-STIELTJES[0], rel=1e-14)  # -gamma
    assert table.validation_residual <= 1e-12
    assert STIELTJES[1] == pytest.approx(-0.0728158454836767, abs=1e-12)
    # c_{0,j} convention: Gamma(1) = 1
    assert gamma_derivs(1.0, 0)[0] == pytest.approx(1.0)
    # one shared, read-only table
    assert A.gamma_laurent_table() is table
    with pytest.raises(TypeError):
        table.c[(1, 0)] = 0.0


def test_stieltjes_em_vs_table():
    em = stieltjes_euler_maclaurin(12)
    for j in range(13):
        assert em[j] == pytest.approx(STIELTJES[j], abs=2e-13)


def test_zeta_derivative_against_em_cross():
    # spot checks of the jet machinery against independent high-precision data
    from kepler_balance.special import zeta_deriv_over_factorial as zd

    assert zd(2.0, 0, 0) == pytest.approx(math.pi ** 2 / 6, rel=1e-14)
    assert zd(0.0, 0, 0) == pytest.approx(-0.5, rel=1e-13)
    assert zd(-1.0, 0, 0) == pytest.approx(-1.0 / 12.0, rel=1e-12)
    assert zd(0.0, 0, 1) == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-12)
