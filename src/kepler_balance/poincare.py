"""Radial Poincare (Kahler-Einstein) metrics: the conserved quantity Psi,
the cubic root rho, boundary-series bootstrap, adaptive integration with
cusp detection, origin asymptotics, and completeness diagnostics.

The profile f solves W[f] = 1 with f(1) = 0, f'(1) = -1.  Conservation of

    Psi(t) = -t/f^3 + t^2 f'^2 / (2 f^2) - t^3 f'^3 / f^3

reduces the problem to the first-order flow f' = -(f/t) rho(c + t/f^3),
where rho(a) is the unique nonnegative root of x^3 + x^2/2 = a.  For c >= 0
solutions reach the origin with f ~ A t^(-rho(c)); for c < 0 they terminate
at an interior cusp t0 where c + t/f^3 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    CapabilityError,
    DomainError,
    EstimationError,
    IntegrationError,
)
from .quadrature import integrate_01

SQRT2 = math.sqrt(2.0)

_RHO_MAX_ITER = 100
_RHO_STEP_TOL = 4.0 * math.ulp(1.0)  # 4 float64 machine epsilons


def _rho_scalar(a: float) -> float:
    if not 0.0 <= a < math.inf:
        raise DomainError(f"rho requires finite a >= 0, got {a!r}")
    s = math.sqrt(2.0 * a)
    r = a ** (1.0 / 3.0)
    x = s if a <= 1.0 else r
    lo, hi = 0.0, max(s, r) + 1.0
    for _ in range(_RHO_MAX_ITER):
        fx = x * x * x + 0.5 * x * x - a
        if fx <= 0.0:
            lo = x
        else:
            hi = x
        dfx = 3.0 * x * x + x
        xn = x - fx / dfx if dfx > 0.0 else x
        if not lo <= xn <= hi:  # also catches a NaN step
            xn = 0.5 * (lo + hi)
        done = abs(xn - x) <= _RHO_STEP_TOL * max(1.0, xn)
        x = xn
        if done:
            break
    # one Newton polish for the residual bound
    fx = x * x * x + 0.5 * x * x - a
    dfx = 3.0 * x * x + x
    if dfx > 0.0:
        x -= fx / dfx
    return max(x, 0.0)


def rho(a):
    """Unique nonnegative root of x^3 + x^2/2 = a, for finite a >= 0.

    Safeguarded Newton in float64 with bracket [0, max(sqrt(2a), a^(1/3)) + 1]:
    the initial guess is sqrt(2a) for a <= 1 and a^(1/3) beyond, and a step
    that leaves the bracket is replaced by bisection.  Iteration stops once a
    step satisfies |x_new - x| <= 4 eps max(1, x_new) (eps the float64
    machine epsilon), or after 100 steps; one final Newton step polishes the
    root.  Residual |rho^3 + rho^2/2 - a| <= 1e-14 max(1, a).

    Scalars give a float.  Arrays are solved element by element with the same
    scalar routine, so ``rho(arr)[i] == rho(float(arr[i]))`` exactly and the
    result keeps the input's shape.  Raises DomainError for a < 0, NaN and
    +-inf, on scalars and on any array element.
    """
    if np.isscalar(a):
        return _rho_scalar(float(a))
    a = np.asarray(a, dtype=float)
    out = [_rho_scalar(v) for v in a.ravel().tolist()]
    return np.array(out, dtype=float).reshape(a.shape)


def rho_residual(a):
    """|rho^3 + rho^2/2 - a| on the same shape as a."""
    r = rho(a)
    return np.abs(np.asarray(r) ** 3 + 0.5 * np.asarray(r) ** 2 - np.asarray(a))


def psi(t, f, fp):
    """The conserved quantity Psi(t) = -t/f^3 + t^2 f'^2/(2 f^2) - t^3 f'^3/f^3."""
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    fp = np.asarray(fp, dtype=float)
    if np.any(f <= 0):
        raise DomainError("psi requires f > 0")
    val = -t / f ** 3 + t * t * fp * fp / (2.0 * f * f) - t ** 3 * fp ** 3 / f ** 3
    return float(val) if val.ndim == 0 else val


def psi_scale(t, f):
    """Magnitude of the dominant Psi term, for conditioning-aware residuals."""
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    val = np.maximum(1.0, t / f ** 3)
    return float(val) if val.ndim == 0 else val


def taylor_at_one(c, order: int = 4):
    """Derivative values of f at t = 1: (0, -1, 1/2, -3/4, (15+16c)/8).

    The conserved value c first enters at the fourth derivative.
    """
    if order > 4:
        raise CapabilityError("boundary Taylor data is available through order 4")
    if isinstance(c, Rational):
        vals = [Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(-3, 4),
                (15 + 16 * Fraction(c)) / 8]
    else:
        vals = [0.0, -1.0, 0.5, -0.75, (15.0 + 16.0 * c) / 8.0]
    return vals[: order + 1]


def boundary_taylor_value(c, h):
    """f(1 - h) from the degree-4 boundary Taylor polynomial."""
    c = float(c)
    return h + h * h / 4.0 + h ** 3 / 8.0 + (15.0 + 16.0 * c) / 192.0 * h ** 4


@dataclass
class PoincareSolution:
    """Dense-output solution of the radial Poincare flow.

    The stored grid carries (t, f, f', f'') at the integrator steps, f''
    reconstructed from W[f] = 1.  ``psi_residual_max`` is the conservation
    defect |Psi - c| normalized by the local term scale max(1, t/f^3)
    (near t = 1 the raw difference is dominated by float cancellation in
    quantities of size 1/(1-t)^3 and would measure nothing).
    """

    c: float
    t_grid: np.ndarray
    f_grid: np.ndarray
    fp_grid: np.ndarray
    fpp_grid: np.ndarray
    t_min_reached: float
    t_start: float
    boundary_offset: float
    t0: Optional[float]
    psi_residual_max: float
    w_residual_max: float
    _dense: object = field(repr=False, default=None)

    @property
    def grid(self):
        return list(zip(self.t_grid, self.f_grid, self.fp_grid, self.fpp_grid))

    def eval(self, t):
        """(f, f', f'') at t; Taylor polynomial on [1 - h0, 1), dense output
        below, f'' from the unit-density relation."""
        scalar = np.isscalar(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        lo = self.t0 if self.t0 is not None else self.t_min_reached
        if np.any(t < lo - 1e-12) or np.any(t >= 1.0):
            raise DomainError(
                f"solution computed on [{lo:g}, 1); requested t outside range"
            )
        f = np.empty_like(t)
        near = t > self.t_start
        if np.any(near):
            h = 1.0 - t[near]
            f[near] = boundary_taylor_value(self.c, h)
        if np.any(~near):
            tau = np.log(t[~near])
            f[~near] = self._dense(tau)[0]
        g = self.c + t / f ** 3
        fp = -(f / t) * rho(np.maximum(g, 0.0))
        fpp = reconstruct_fpp(t, f, fp)
        if scalar:
            return float(f[0]), float(fp[0]), float(fpp[0])
        return f, fp, fpp

    def psi_residuals(self):
        """Normalized conservation residuals on the stored grid."""
        vals = psi(self.t_grid, self.f_grid, self.fp_grid)
        return np.abs(vals - self.c) / psi_scale(self.t_grid, self.f_grid)

    def summary(self):
        out = {
            "c": self.c,
            "t_min_reached": self.t_min_reached,
            "psi_residual_max": self.psi_residual_max,
            "w_residual_max": self.w_residual_max,
        }
        out["t0"] = self.t0
        return out


def reconstruct_fpp(t, f, fp):
    """f'' from W[f] = 1:  f'' = (1/(t f)) (1/(t f') - f f' + t f'^2).

    Diverges (to -inf) where f' = 0, i.e. at a cusp point.
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    fp = np.asarray(fp, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / (t * fp) - f * fp + t * fp * fp
        out = inner / (t * f)
    return out


def solve_poincare(c, t_min: float = 1e-3, tol: float = 1e-10,
                   boundary_offset: float = 1e-3) -> PoincareSolution:
    """Integrate the Poincare flow from the boundary down to t_min.

    Starts at t = 1 - boundary_offset with the degree-4 Taylor value (the
    flow is singular at t = 1 itself) and integrates in tau = log t, which
    keeps the t^(-rho(c)) growth near the origin non-stiff.  For c < 0 the
    sign change of c + t/f^3 is located by event bisection: the solution
    terminates there (f' -> 0, f'' -> -inf) and cannot be continued.
    """
    c = float(c)
    if not (0.0 < t_min < 1.0):
        raise DomainError("t_min must lie in (0, 1)")
    if tol <= 0:
        raise DomainError("tol must be positive")
    h0 = boundary_offset
    t_start = 1.0 - h0
    if t_min >= t_start:
        raise DomainError("t_min must be below the bootstrap point 1 - h0")
    f_start = boundary_taylor_value(c, h0)

    def rhs(tau, y):
        t = math.exp(tau)
        g = c + t / y[0] ** 3
        return [-y[0] * rho(g if g > 0.0 else 0.0)]

    def cusp_event(tau, y):
        return c + math.exp(tau) / y[0] ** 3

    cusp_event.terminal = True
    cusp_event.direction = -1.0

    rtol = min(max(tol * 1e-2, 1e-13), 1e-8)
    sol = solve_ivp(
        rhs,
        (math.log(t_start), math.log(t_min)),
        [f_start],
        method="RK45",
        rtol=rtol,
        atol=rtol * 1e-3,
        dense_output=True,
        events=[cusp_event] if c < 0 else None,
        max_step=0.25,
    )
    if sol.status == -1:
        raise IntegrationError(f"Poincare integration failed: {sol.message}")

    t0 = None
    if c < 0 and sol.t_events and len(sol.t_events[0]):
        t0 = float(math.exp(sol.t_events[0][0]))

    taus = sol.t
    ts = np.exp(taus)
    fs = sol.y[0]
    order = np.argsort(ts)
    ts, fs = ts[order], fs[order]
    keep = fs > 0
    ts, fs = ts[keep], fs[keep]
    g = c + ts / fs ** 3
    fps = -(fs / ts) * rho(np.maximum(g, 0.0))
    fpps = reconstruct_fpp(ts, fs, fps)

    interior = fps < 0  # exclude the cusp point itself from residual checks
    res = np.abs(psi(ts[interior], fs[interior], fps[interior]) - c)
    res = res / psi_scale(ts[interior], fs[interior])
    psi_res = float(res.max()) if res.size else 0.0
    w_vals = monge_ampere_on_grid(ts[interior], fs[interior], fps[interior],
                                  fpps[interior])
    w_den = w_scale(ts[interior], fs[interior], fps[interior], fpps[interior])
    w_res = float((np.abs(w_vals - 1.0) / w_den).max()) if w_vals.size else 0.0
    if psi_res > 100.0 * tol:
        raise IntegrationError(
            f"Psi drift {psi_res:g} exceeds 100 x tol; integration unreliable"
        )

    return PoincareSolution(
        c=c,
        t_grid=ts,
        f_grid=fs,
        fp_grid=fps,
        fpp_grid=fpps,
        t_min_reached=float(ts.min()),
        t_start=t_start,
        boundary_offset=h0,
        t0=t0,
        psi_residual_max=psi_res,
        w_residual_max=w_res,
        _dense=sol.sol,
    )


def monge_ampere_on_grid(t, f, fp, fpp):
    """W[f] = t f'(f f' + t f f'' - t f'^2) from a stored grid (n = 2)."""
    t = np.asarray(t, dtype=float)
    return t * fp * (f * fp + t * f * fpp - t * fp * fp)


def w_scale(t, f, fp, fpp):
    """Term-magnitude scale of W[f]; |W - 1|/w_scale is the honest float64
    consistency residual (raw W - 1 is ill-conditioned like t (f f')^2 for
    profiles growing toward the origin)."""
    t = np.asarray(t, dtype=float)
    return np.maximum(
        1.0,
        np.abs(t * fp)
        * (np.abs(f * fp) + np.abs(t * f * fpp) + np.abs(t * fp * fp)),
    )


def origin_exponent(sol: PoincareSolution) -> float:
    """Least-squares slope of log f against log(1/t) over the last decade.

    For c >= 0 this estimates rho(c) (zero for the bounded c = 0 solution).
    """
    if sol.c < 0:
        raise DomainError("origin exponent applies to c >= 0 solutions")
    if sol.t_min_reached > 1e-3:
        raise EstimationError("solution does not reach t <= 1e-3")
    lo = sol.t_min_reached
    ts = np.exp(np.linspace(math.log(lo), math.log(10.0 * lo), 25))
    f, _fp, _fpp = sol.eval(ts)
    slope = np.polyfit(np.log(1.0 / ts), np.log(f), 1)[0]
    return float(slope)


class CuspData(NamedTuple):
    t0: float
    f_t0: float
    qppp_numeric: float
    qppp_formula: float
    qp_numeric: float
    qpp_numeric: float


def cusp_data(sol: PoincareSolution, sigma: float | None = None) -> CuspData:
    """Cusp structure at t0 for a terminated (c < 0) solution.

    Q(sigma) := f(t0 + sigma^2) is smooth with Q'(0) = Q''(0) = 0; the
    third derivative is estimated by a one-sided 4-point stencil and
    compared with the closed form -4 sqrt(2)/(t0 sqrt(f(t0))).  (The flow
    has f' <= 0, so Q''' at the cusp is negative; the magnitude matches
    the published expression.)
    """
    if sol.t0 is None:
        raise DomainError("solution did not terminate: cusp data undefined")
    t0 = sol.t0
    # f(t0) by continuity from the dense output at t0 itself
    f_t0 = float(sol._dense(math.log(t0))[0])
    span = math.sqrt(max(sol.t_start - t0, 1e-8))
    if sigma is None:
        sigma = 2e-3 * span

    def q(sig):
        return float(sol._dense(math.log(t0 + sig * sig))[0])

    q0 = f_t0
    q1, q2, q3 = q(sigma), q(2 * sigma), q(3 * sigma)
    qppp_num = (-q0 + 3.0 * q1 - 3.0 * q2 + q3) / sigma ** 3
    # sanity estimators for Q'(0), Q''(0) use a smaller step and stencils
    # whose sigma^3 bias cancels (the plain second difference would just
    # measure Q'''(0) sigma)
    sg = sigma
    p0, p1, p2, p3, p4 = q0, q1, q2, q3, q(4 * sg)
    qp_num = (p1 - p0) / sg
    qpp_num = (35.0 * p0 - 104.0 * p1 + 114.0 * p2 - 56.0 * p3 + 11.0 * p4) / (
        12.0 * sg ** 2
    )
    qppp_formula = -4.0 * SQRT2 / (t0 * math.sqrt(f_t0))
    return CuspData(t0, f_t0, qppp_num, qppp_formula, qp_num, qpp_num)


class RadialLength(NamedTuple):
    integral: float
    exponent_fit: float
    divergent: bool


def metric_integrand_sq(p, r: float, x):
    """Squared radial-length integrand -r^2 (f'/f + s (f'' f - f'^2)/f^2),
    s = x^2 r^2, for the metric of potential log(1/f)."""
    x = np.asarray(x, dtype=float)
    s = x * x * r * r
    f, fp, fpp = p.eval(s)
    inner = fp / f + s * (fpp * f - fp * fp) / (f * f)
    return -r * r * inner


def radial_length(p, r: float, x_min: float = 1e-2) -> RadialLength:
    """Length of the radial segment x in (x_min, 1) toward the origin.

    Returns the integral of sqrt of the squared integrand and the log-log
    slope of the integrand near x_min (x^(-1/2) for the c = 0 solution,
    x^(3 rho(c)) for c > 0).  A fitted exponent <= -1 flags a
    non-integrable singularity; the integral is then reported infinite.
    """
    if not (0.0 < r <= 1.0):
        raise DomainError("r must lie in (0, 1]")
    if not (0.0 < x_min < 1.0):
        raise DomainError("x_min must lie in (0, 1)")
    xs = np.exp(np.linspace(math.log(x_min), math.log(min(4.0 * x_min, 0.5)), 20))
    vals = np.sqrt(np.maximum(metric_integrand_sq(p, r, xs), 0.0))
    if np.any(vals <= 0):
        raise EstimationError("integrand vanished on the fit window")
    exponent = float(np.polyfit(np.log(xs), np.log(vals), 1)[0])
    if exponent <= -1.0:
        return RadialLength(math.inf, exponent, True)

    span = 1.0 - x_min

    def g(u):
        x = x_min + span * u
        return np.sqrt(np.maximum(metric_integrand_sq(p, r, x), 0.0))

    val, _err = integrate_01(g, tol=1e-10)
    return RadialLength(val * span, exponent, False)
