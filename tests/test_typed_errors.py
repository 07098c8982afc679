"""Each input guard raises its typed error (``errors.py``) with its own
message, one case per guard: (error, message pattern, call)."""

import math

import numpy as np
import pytest

from kepler_balance import asymptotics as A
from kepler_balance import kernel as K
from kepler_balance import poincare as P
from kepler_balance import profiles as prof
from kepler_balance import quadrature as Q
from kepler_balance import special as sp
from kepler_balance.errors import (
    CapabilityError,
    ConvergenceBudgetError,
    DomainError,
    NormalizationError,
    TruncationError,
)
from kepler_balance.profiles import RadialProfile
from kepler_balance.series import PowerLogSeries


GUARDS = {
    # kernel
    "closed-form-F-negative-v": (
        CapabilityError, r"v >= 0", lambda: K.closed_form_F_phi_v(-1.0, 0.5)),
    "closed-form-F-t-at-1": (
        DomainError, r"\[0, 1\)", lambda: K.closed_form_F_phi_v(1.0, 1.0)),
    "kernel-series-t-at-1": (
        DomainError, r"\[0, 1\)", lambda: K.kernel_series(K.phi_v_density(1), 2, 1.0)),
    "dimension-count-n-1": (
        DomainError, r"n must be >= 2", lambda: K.dimension_count(3, 1)),
    "estimate-c-phi1-zero": (
        DomainError, r"at t = 1 is 0.0", lambda: K.estimate_c(
            RadialProfile.sqrt_poincare(), 2, density=K.Density(lambda t: 1.0 - t, 0.0))),
    "f-at-0-candidate-m1": (
        DomainError, r"m > 0", lambda: K.defect_table(
            RadialProfile.phi_v_candidate(9), 2, 4.0, [0.0])),
    "f-at-0-poincare-numeric": (
        CapabilityError, r"f\(0\) unavailable", lambda: K.defect_table(
            RadialProfile.poincare_numeric(P.solve_poincare(0.0)), 2, 4.0, [0.0])),
    # poincare
    "origin-exponent-negative-c": (
        DomainError, r"c >= 0",
        lambda: P.origin_exponent(P.solve_poincare(-0.1, t_min=1e-4))),
    "cusp-jet-below-t0": (
        DomainError, r"t >= t0", lambda: P.solve_poincare(-0.1).local_series(0.1)),
    "radial-length-r": (
        DomainError, r"r must lie", lambda: P.radial_length(RadialProfile.sqrt_poincare(), 0.0)),
    "radial-length-x-min": (
        DomainError, r"x_min must lie",
        lambda: P.radial_length(RadialProfile.sqrt_poincare(), 0.5, x_min=1.0)),
    # asymptotics
    "moment-expansion-negative-power": (
        DomainError, r"nonnegative powers",
        lambda: A.moment_expansion(PowerLogSeries({(-1, 0): 1, (0, 0): 1}, 4), 3)),
    "moment-expansion-past-order": (
        TruncationError, r"known through L\^2",
        lambda: A.moment_expansion(PowerLogSeries({(0, 0): 1}, 2), 5)),
    "reciprocal-moments-lead-2": (
        NormalizationError, r"must be 1",
        lambda: A.reciprocal_moments(PowerLogSeries({(1, 0): 2, (2, 0): 1}, 4), 3)),
    "a-m-zero-lead": (
        NormalizationError, r"nonzero constant term",
        lambda: A.a_m_from_l_series(PowerLogSeries({(1, 0): 1}, 4), 3)),
    "lerch-negative-n-deriv": (
        DomainError, r"n_deriv must be >= 0", lambda: A.lerch_phi(0.5, 2.0, -1, method="direct")),
    # profiles
    "sqrt-of-negative": (DomainError, r"negative argument", lambda: prof.sqrt_of(-2.0)),
    "m-delta-negative-v": (
        DomainError, r"v must be nonnegative", lambda: prof.m_delta_from_v(-1.0)),
    "phi-v-t-above-1": (DomainError, r"\(0, 1\]", lambda: prof.phi_v(1.0, 1.5)),
    "phi-v-l-coefficients-negative-J": (
        DomainError, r"J must be >= 0", lambda: prof.phi_v_l_coefficients(1, -1)),
    "profile-unknown-kind": (
        DomainError, r"unknown profile kind", lambda: RadialProfile("bogus")),
    "profile-candidate-negative-v": (
        DomainError, r"requires v >= 0", lambda: RadialProfile("phi_v_candidate", {"v": -1.0})),
    "profile-taylor-a1-zero": (
        NormalizationError, r"nonzero a_1",
        lambda: RadialProfile("taylor_at_one", {"coeffs": (0.0, 1.0)})),
    # special
    "gamma-derivs-pole": (DomainError, r"pole", lambda: sp.gamma_derivs(-2.0, 1)),
    "zeta-pole": (
        DomainError, r"pole at s = 1", lambda: sp.zeta_deriv_over_factorial(3.0, 2)),
    # quadrature: a step function never settles between nested levels
    "integrate-01-budget": (
        ConvergenceBudgetError, r"did not reach",
        lambda: Q.integrate_01(lambda t: np.floor(10.0 * t), tol=0.0)),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_raises_its_typed_error(name):
    error, match, call = GUARDS[name]
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: sp.gamma_derivs(0.5, 171), DomainError),
    (lambda: sp.zeta_deriv_over_factorial(0.5, np.arange(5), 172), DomainError),
    (lambda: A.t_phi_boundary_value(0.5, 171, 1.0), CapabilityError),
    (lambda: A.t_phi_boundary_series(0.5, 171, 4), CapabilityError),
], ids=["gamma-derivs", "zeta-derivs", "boundary-value", "boundary-series"])
def test_derivative_order_past_float_factorial(call, error):
    # n! passes float range from n = 171; these raised a bare OverflowError
    with pytest.raises(error, match="171|172"):
        call()


def test_derivative_order_170_still_runs():
    gd = sp.gamma_derivs(2.5, sp.MAX_DERIV)
    assert len(gd) == sp.MAX_DERIV + 1 and math.isfinite(gd[0])


@pytest.mark.parametrize("call, match", [
    (lambda: sp.zeta_deriv_over_factorial(-0.7, np.arange(64), 170, math.log(math.log(2))),
     r"s=-0\.7, n=170, k=0 passes float range"),
    (lambda: sp.zeta_deriv_over_factorial(-0.7, 0, 170), r"s=-0\.7, n=170, k=0 passes"),
    (lambda: A.t_phi_boundary_value(-0.7, 170, math.log(2)), r"s=-0\.7, n=170, k=0"),
    (lambda: A.t_phi_boundary_value(0.5, 155, math.log(2)), r"n_deriv=155: the Gamma"),
    (lambda: A.t_phi_boundary_series(0.5, 160, 4), r"n_deriv=160: the Gamma"),
    (lambda: A.t_phi_boundary_value(-171.0, 0, math.log(100.0)),
     r"singular part at s=-171, n_deriv=0, L=4\.60517 overflows float64"),
    (lambda: A.t_phi_boundary_value(-171.5, 0, math.log(100.0)),
     r"n_deriv=0: the Gamma derivatives at 1-s=172\.5 pass float range"),
    (lambda: A.t_phi_boundary_series(-171.5, 0, 4), r"1-s=172\.5 pass float range"),
], ids=["zeta-derivs-array", "zeta-derivs-scalar", "boundary-value-zeta",
        "boundary-value-gamma", "boundary-series-gamma", "boundary-value-exact-gamma-s-171",
        "boundary-value-gamma-s-171.5", "boundary-series-gamma-s-171.5"])
def test_boundary_terms_past_float_range(call, match):
    # below the n! cap a term can still pass float range; it returned inf
    # (and a numpy overflow warning, an error under pytest) and the boundary
    # sum ran to its cap on non-finite terms.  Gamma(1-s) itself leaves float
    # range below s = -170.6 (exactly 171! at s = -171); that was a
    # DomainError, so the CLI dropped a finite direct value with exit 1
    with pytest.raises(CapabilityError, match=match):
        call()
