"""Acceptance suite: every reproduction target at desk scale, one named
criterion per check, shared by ``pytest`` (tests/test_acceptance.py) and the
CLI ``verify`` subcommand.

Each criterion returns (passed, detail); the registry preserves order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import asymptotics as asym
from . import kernel as kern
from . import poincare as poin
from .profiles import RadialProfile, monge_ampere_density, phi_v, phi_v_l_series
from .series import PowerLogSeries
from .special import stieltjes_euler_maclaurin

# published reference (standard convention)
GAMMA1_REFERENCE = -0.0728158454836767248605863758749

@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str


def crit_monge_ampere_identities():
    """|W[2-2sqrt(t)] - 1| and |W[g_n] - 1| <= 1e-12 on 1000-point grids."""
    grid = np.linspace(1e-6, 1 - 1e-6, 1000)
    worst = np.max(np.abs(monge_ampere_density(RadialProfile.sqrt_poincare(), 2, grid) - 1.0))
    detail = [f"sqrt: {worst:.2e}"]
    for n in range(2, 7):
        w = np.max(np.abs(monge_ampere_density(RadialProfile.explicit_n(n), n, grid) - 1.0))
        worst = max(worst, w)
        detail.append(f"g_{n}: {w:.2e}")
    return worst <= 1e-12, "max " + ", ".join(detail)


def crit_phi_v_moments():
    """Quadrature vs closed-form moments, rel err <= 1e-10, k = m..20."""
    worst = 0.0
    for v in (0, 0.5, 1, 4, 9):
        dens = kern.phi_v_density(v)
        for k in range(dens.k_min, 21):
            cf = float(kern.moment_phi_v_closed(v, k))
            worst = max(worst, abs(dens.moment(k)[0] - cf) / cf)
    spot1 = abs(kern.phi_v_density(9).moment(1)[0] - 0.6)
    spot2 = abs(kern.phi_v_density(0).moment(0)[0] - 8.0 / 9.0)
    ok = worst <= 1e-10 and spot1 <= 1e-10 and spot2 <= 1e-10
    return ok, f"max rel {worst:.2e}; c_1(phi_9) err {spot1:.1e}; c_0(phi_0) err {spot2:.1e}"


def crit_kernel_closed_form():
    """Series kernel vs closed form, rel err <= 1e-9."""
    worst = 0.0
    for v in (0, 1, 9):
        dens = kern.phi_v_density(v)
        for t in (0.1, 0.5, 0.9):
            ke = kern.kernel_series(dens, 2, t)
            cf = kern.closed_form_F_phi_v(v, t)
            worst = max(worst, abs(ke.value - cf) / abs(cf))
    return worst <= 1e-9, f"max rel {worst:.2e}"


def crit_kernel_boundary_paths():
    """Direct series, Kummer split and closed form agree, rel err <= 1e-12,
    at t in {0.91, 0.95, 0.99} (L < 0.1) for phi_v, v in {0, 1, 2.5, 9}."""
    worst = 0.0
    for v in (0, 1, 2.5, 9):
        dens = kern.phi_v_density(v)
        for t in (0.91, 0.95, 0.99):
            cf = kern.closed_form_F_phi_v(v, t)
            direct = kern._kernel_direct(dens, 2, t).value
            kummer = kern._kernel_kummer(dens, t).value
            worst = max(worst, abs(direct - cf) / cf, abs(kummer - cf) / cf,
                        abs(direct - kummer) / cf)
    return worst <= 1e-12, f"max rel {worst:.2e}"


def crit_candidate_contradiction():
    """Candidate v=1, c=4: defect <= 1e-9 on the grid while W != phi_1."""
    cand = RadialProfile.phi_v_candidate(1)
    dens = kern.associated_density(cand, 2)
    grid = np.linspace(0.01, 0.95, 100)
    sup = np.max(np.abs(kern.balanced_defect(cand, 2, 4, grid, density=dens)))
    gap = abs(monge_ampere_density(cand, 2, 0.1) - phi_v(1, 0.1))
    ok = sup <= 1e-9 and gap >= 0.2
    return ok, f"sup|F - 4/f^3| = {sup:.2e}; |W(0.1) - 1| = {gap:.4f}"


def crit_asymptotic_chain_exact():
    """Exact rational chain: A_1 = 0, A_m = 2^(2-m) A_2, A_2 = (1-v)/16."""
    for w in (1, 2, 3):
        v = w * w
        A = asym.a_m_from_l_series(phi_v_l_series(v, 10), 10)
        A2 = Fraction(1 - v, 16)
        if A[0] != 1 or A[1] != 0 or A[2] != A2:
            return False, f"v={v}: A_0..A_2 mismatch {A[:3]}"
        for m in range(2, 11):
            if A[m] * Fraction(2) ** (m - 2) != A2:
                return False, f"v={v}: A_{m} = {A[m]} != 2^(2-{m}) A_2"
    return True, "identities exact in rationals for sqrt(v) = 1, 2, 3, m <= 10"


def crit_lerch_machinery():
    """Integer-s Lerch identity, s-derivative two-path agreement,
    Gamma-Laurent residuals, and the Stieltjes gamma_1 reference."""
    worst_int = 0.0
    for m in range(1, 6):
        for L in (0.15, 1.0, 2.5, 4.0, 5.9):
            t = math.exp(-L)
            direct = t * asym.lerch_phi(t, m, 0, method="direct")
            formula = asym.t_phi_boundary_value(float(m), 0, L)
            worst_int = max(worst_int, abs(direct - formula))
    worst_two = 0.0
    for s in (0, 1, 2):
        for n in (1, 2):
            for L in (0.1, 1.0, 3.0, 6.0):
                t = math.exp(-L)
                d = asym.lerch_phi(t, s, n, method="direct")
                b = asym.lerch_phi(t, s, n, method="boundary")
                worst_two = max(worst_two, abs(d - b))
    resid = asym.gamma_laurent_table().validation_residual
    g1 = stieltjes_euler_maclaurin(2)[1]
    g1_err = abs(g1 - GAMMA1_REFERENCE)
    ok = worst_int <= 1e-9 and worst_two <= 1e-8 and resid <= 1e-12 and g1_err <= 1e-10
    return ok, (
        f"integer-s identity {worst_int:.1e}; two-path {worst_two:.1e}; "
        f"c-table resid {resid:.1e}; gamma_1 err {g1_err:.1e}"
    )


def crit_boundary_F_phi1():
    """F-expansion for phi = 1: exactly 4/L^3 + 3/L^2 + 1/L + smooth."""
    inv = PowerLogSeries({(-1, 0): Fraction(1)}, 10)
    ser = asym.boundary_expansion_F(inv, 2, 8)
    c3, c2, c1 = ser.coeff(-3), ser.coeff(-2), ser.coeff(-1)
    exact = c3 == 4 and c2 == 3 and c1 == 1
    extra_sing = [
        (k, v) for k, v in ser.terms.items() if k[0] < 0 and k[0] not in (-3, -2, -1)
    ]
    logs = [k for k in ser.terms if k[1] > 0]
    ok = exact and not extra_sing and not logs
    return ok, f"singular coefficients ({c3}, {c2}, {c1}); log terms: {len(logs)}"


def crit_poincare_ode():
    """c=0 matches 2-2sqrt(t); conservation residuals; boundary bootstrap."""
    sol0 = poin.solve_poincare(0.0, t_min=1e-3)
    ts = np.exp(np.linspace(math.log(1e-3), math.log(1 - 1e-6), 4000))
    sup = float(np.max(np.abs(sol0.eval(ts)[0] - (2.0 - 2.0 * np.sqrt(ts)))))
    worst_psi = 0.0
    for c in (0.0, 0.5, 1.0, -0.1):
        s = poin.solve_poincare(c, t_min=1e-3 if c >= 0 else 1e-4)
        worst_psi = max(worst_psi, s.psi_residual_max)
    taylor_ok = all(
        poin.taylor_at_one(c)[4] == Fraction(15 + 16 * c, 8) for c in (0, 1, -2)
    )
    boot = poin.solve_poincare(0.7, t_min=0.5)
    boot_ok = True
    boots = []
    for h in (1e-2, 1e-3):
        err = abs(boot.eval(1 - h)[0] - poin.boundary_taylor_value(0.7, h))
        boots.append(err)
        boot_ok = boot_ok and err <= 5 * h ** 5
    ok = sup <= 1e-8 and worst_psi <= 1e-10 and taylor_ok and boot_ok
    return ok, (
        f"c=0 sup {sup:.1e}; psi residual {worst_psi:.1e}; "
        f"f''''(1) exact: {taylor_ok}; bootstrap errs {boots[0]:.1e}, {boots[1]:.1e}"
    )


# eval's rounding, which a series' truncation bound does not cover
_SERIES_ROUNDING = 1e-14


def _series_check(sol, ts):
    """Largest |f_eval - f_series|/f_eval over ts and the largest truncation
    bound there; the check passes when every residual is within its bound
    plus _SERIES_ROUNDING, and every bound is at most 1e-10."""
    res, bounds, ok = [], [], True
    for t in ts:
        f = sol.eval(t)[0]
        f_series, bound = sol.local_series(t)
        res.append(abs(f - f_series) / f)
        bounds.append(bound)
        ok = ok and res[-1] <= bound + _SERIES_ROUNDING and bound <= 1e-10
    return ok, max(res), max(bounds)


def crit_cusp():
    """c = -0.1 cusp: event residual, the jet's Q'''(0) against the published
    expression within 1e-10, and eval against the jet at sigma^2/t0 = 1e-5, 1e-4."""
    sol = poin.solve_poincare(-0.1, t_min=1e-4)
    if sol.t0 is None:
        return False, "no termination detected"
    cd = poin.cusp_data(sol)
    ev_res = abs(-0.1 + cd.t0 / cd.f_t0 ** 3)
    ratio_err = abs(cd.qppp_series / cd.qppp_formula - 1.0)
    jet_ok, res, bound = _series_check(sol, [cd.t0 * (1.0 + s) for s in (1e-5, 1e-4)])
    ok = ev_res <= 1e-10 and ratio_err <= 1e-10 and jet_ok
    return ok, (
        f"t0 = {cd.t0:.6f}; |c + t0/f^3| = {ev_res:.1e}; "
        f"|Q''' ratio - 1| = {ratio_err:.1e}; |f - jet|/f = {res:.1e} (bound {bound:.1e})"
    )


def crit_origin_exponents():
    """Origin exponents are rho(c), within 1 ulp of 1 at c = 3/2; eval against
    the origin series at t = 1e-4, 1e-2 (c = 1, 3/2); rho residuals on a log grid."""
    ok, res, bound = True, 0.0, 0.0
    for c in (1.0, 1.5):
        sol = poin.solve_poincare(c, t_min=1e-4)
        ok_c, res_c, bound_c = _series_check(sol, (1e-4, 1e-2))
        ok = ok and ok_c and poin.origin_exponent(sol) == poin.rho(c)
        res, bound = max(res, res_c), max(bound, bound_c)
    d15 = abs(poin.rho(1.5) - 1.0)
    rres = float(np.max(poin.rho_residual(np.logspace(-8, 1, 50))))
    ok = ok and d15 <= 2.0 ** -52 and rres <= 1e-14
    return ok, (
        f"|exp - 1| (c=3/2) = {d15:.1e}; |f - series|/f = {res:.1e} "
        f"(bound {bound:.1e}, c=1, 3/2); rho resid {rres:.1e}"
    )


def crit_completeness():
    """Radial length finite; integrand exponents -1/2 (c=0), 3 rho(1) (c=1)."""
    rl0 = poin.radial_length(RadialProfile.sqrt_poincare(), 0.9, 0.01)
    sol1 = poin.solve_poincare(1.0, t_min=1e-4)
    prof1 = RadialProfile.poincare_numeric(sol1)
    rl1 = poin.radial_length(prof1, 0.9, 0.05)
    ok = (
        math.isfinite(rl0.integral)
        and math.isfinite(rl1.integral)
        and not rl0.divergent
        and not rl1.divergent
        and abs(rl0.exponent_fit + 0.5) <= 0.05
        and abs(rl1.exponent_fit - 3.0 * poin.rho(1.0)) <= 0.05
    )
    return ok, (
        f"lengths {rl0.integral:.4f}, {rl1.integral:.4f}; "
        f"exponents {rl0.exponent_fit:.3f} (want -0.5), "
        f"{rl1.exponent_fit:.3f} (want {3*poin.rho(1.0):.3f})"
    )


CRITERIA = (
    ("monge_ampere_identities", crit_monge_ampere_identities),
    ("phi_v_moments", crit_phi_v_moments),
    ("kernel_closed_form", crit_kernel_closed_form),
    ("kernel_boundary_paths", crit_kernel_boundary_paths),
    ("candidate_contradiction", crit_candidate_contradiction),
    ("asymptotic_chain_exact", crit_asymptotic_chain_exact),
    ("lerch_machinery", crit_lerch_machinery),
    ("boundary_F_phi1", crit_boundary_F_phi1),
    ("poincare_ode", crit_poincare_ode),
    ("cusp", crit_cusp),
    ("origin_exponents", crit_origin_exponents),
    ("completeness", crit_completeness),
)


def run(only: str | None = None, printer=print):
    """Run the (filtered) criteria; returns the list of CriterionResult."""
    results = []
    for name, fn in CRITERIA:
        if only and only not in name:
            continue
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure with diagnostics
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(name, passed, detail))
        if printer:
            printer(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return results
