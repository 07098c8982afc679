"""Radial Poincare (Kahler-Einstein) metrics: the conserved quantity Psi,
the cubic root rho, boundary-series bootstrap, adaptive integration with
cusp detection, origin asymptotics, and completeness diagnostics.

The flow is integrated by an in-house scalar Dormand-Prince 5(4) pair
(``_dormand_prince``) in plain floats: local extrapolation, the standard
step control (safety 0.9, step factors in [0.2, 10], max step 0.25 in
tau), Shampine's free quartic dense output, and a terminal cusp event
whose last step is taken again to end on the root.

The profile f solves W[f] = 1 with f(1) = 0, f'(1) = -1.  Conservation of

    Psi(t) = -t/f^3 + t^2 f'^2 / (2 f^2) - t^3 f'^3 / f^3

reduces the problem to the first-order flow f' = -(f/t) rho(c + t/f^3),
where rho(a) is the unique nonnegative root of x^3 + x^2/2 = a.  For c >= 0
solutions reach the origin with f ~ A t^(-rho(c)); for c < 0 they terminate
at an interior cusp t0 where c + t/f^3 = 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    CapabilityError,
    DomainError,
    EstimationError,
    IntegrationError,
)
from .profiles import monge_ampere
from .quadrature import integrate_01

SQRT2 = math.sqrt(2.0)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# rho(a) solves x^3 + x^2/2 = a; x = y - 1/6 turns it into the depressed
# cubic y^3 - y/12 + (1/108 - a) = 0, whose discriminant changes sign at
# a = 1/54 (below it the cubic has three real roots, two of them negative)
_RHO_BRANCH = 1.0 / 54.0
_RHO_SQRT_START = 1e-8  # below: start from the series sqrt(2a) - 2a
_RHO_SERIES_ONLY = 2.0 ** -120  # below: that series is the root to rounding
_THIRD = 1.0 / 3.0  # math.cbrt needs Python 3.11


def _rho_scalar(a: float) -> float:
    if not 0.0 <= a < math.inf:
        raise DomainError(f"rho requires finite a >= 0, got {a!r}")
    if a < _RHO_SQRT_START:
        # the trigonometric form loses x to cancellation in y - 1/6 here
        s = math.sqrt(2.0 * a)
        x = s - s * s
        if a < _RHO_SERIES_ONLY:
            return x
    elif a < _RHO_BRANCH:
        x = (math.cos(math.acos(108.0 * a - 1.0) / 3.0) - 0.5) / 3.0
    else:
        # Cardano, with sqrt(h^2 - 216^-2) written so that h^2 cannot overflow
        h = 0.5 * a - 1.0 / 216.0
        q = 1.0 / (216.0 * h)
        u = (h + h * math.sqrt(1.0 - q * q)) ** _THIRD
        x = u + 1.0 / (36.0 * u) - 1.0 / 6.0
    # two Newton steps on (x^3 + x^2/2 - a)/8 in z = x/2: the same steps, but
    # z^3 ~ a/8 cannot overflow
    b = 0.125 * a
    z = 0.5 * x
    x -= (z * z * z + 0.25 * z * z - b) / (1.5 * z * z + 0.25 * z)
    z = 0.5 * x
    x -= (z * z * z + 0.25 * z * z - b) / (1.5 * z * z + 0.25 * z)
    return x


def rho(a):
    """Unique nonnegative root of x^3 + x^2/2 = a, for finite a >= 0.

    Closed form, then two Newton steps.  With x = y - 1/6 the cubic is
    y^3 - y/12 + (1/108 - a) = 0, and the branch point is a = 1/54, where
    its discriminant vanishes:

    - a >= 1/54: Cardano, x = u + 1/(36u) - 1/6 with
      u = (h + h sqrt(1 - (216 h)^-2))^(1/3) and h = a/2 - 1/216;
    - 1e-8 <= a < 1/54: the trigonometric form
      x = (cos(acos(108a - 1)/3) - 1/2)/3;
    - a < 1e-8: the series sqrt(2a) - 2a, where the trigonometric form
      cancels; below 2^-120 that series is returned as it is, since it is
      the root to rounding (and x^2 ~ 2a may be subnormal).

    Then two Newton steps polish the root (see W. Kahan, "To solve a real
    cubic equation", 1986, on computing it without losing accuracy).  Over
    the whole float range, from 5e-324 to 1.8e308, the result is finite
    and within 1 ulp of the exact root, and
    |rho^3 + rho^2/2 - a| <= 1e-14 max(1, a).  rho does not decrease
    across the switches between forms.

    Scalars give a float.  Arrays are solved element by element with the same
    scalar routine, so ``rho(arr)[i] == rho(float(arr[i]))`` exactly and the
    result keeps the input's shape.  Raises DomainError for a < 0, NaN and
    +-inf, on scalars and on any array element.
    """
    if type(a) is float:  # the flow's right-hand side: skip the dispatch
        return _rho_scalar(a)
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


def psi_scale(t, f, c):
    """max(1, |c|, t/f^3): the size of Psi's terms on a solution with Psi = c
    (t/f^3, and x^3 + x^2/2 = c + t/f^3 in x = -t f'/f), for
    conditioning-aware residuals."""
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    val = np.maximum(max(1.0, abs(c)), t / f ** 3)
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
    defect |Psi - c| normalized by the local term scale max(1, |c|, t/f^3)
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
            f[~near] = self._dense(tau)
        g = self.c + t / f ** 3
        fp = -(f / t) * rho(np.maximum(g, 0.0))
        fpp = reconstruct_fpp(t, f, fp)
        if scalar:
            return float(f[0]), float(fp[0]), float(fpp[0])
        return f, fp, fpp

    def psi_residuals(self):
        """Normalized conservation residuals on the stored grid."""
        vals = psi(self.t_grid, self.f_grid, self.fp_grid)
        return np.abs(vals - self.c) / psi_scale(self.t_grid, self.f_grid, self.c)


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


# Dormand-Prince 5(4): the tableau and error weights of Hairer, Norsett &
# Wanner, Solving ODEs I, Table II.5.2 (Dormand & Prince 1980), and the
# free quartic interpolant of Shampine (1986) with its optimal c_6, which
# reads the seven stages of a step (FSAL: the seventh is f at the step end).
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
# _DP_P[i] = coefficients of x, x^2, x^3, x^4 that stage i adds to the
# interpolant y(t_old + x h) = y_old + h sum_i K_i sum_j P[i][j] x^(j+1)
_DP_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
_DP_SAFETY = 0.9
_DP_MIN_FACTOR = 0.2
_DP_MAX_FACTOR = 10.0
_DP_EXPONENT = -1.0 / 5.0  # the error of the 4th-order estimate scales as h^5
_EVENT_TOL = 4.0 * math.ulp(1.0)


class _DenseOutput:
    """The quartic interpolant of every accepted step, evaluated at tau.

    Step i runs from tau_old[i] to tau_old[i] + h[i] and has the stages
    K[i, 0..6]; a point belongs to the step whose span holds it (the first
    or the last step beyond the ends).
    """

    def __init__(self, tau_old, h, y_old, stages):
        self.tau_old = np.array(tau_old)
        self.h = np.array(h)
        self.y_old = np.array(y_old)
        stages = np.array(stages)
        self.q = sum(stages[:, i, None] * np.array(_DP_P[i]) for i in range(7))
        self._sign = math.copysign(1.0, self.h[0])  # step starts ascend in sign * tau

    def __call__(self, tau):
        """f at tau: a float for a scalar, an array for an array."""
        i = np.searchsorted(self._sign * self.tau_old, self._sign * np.asarray(tau), side="right")
        i = np.clip(i - 1, 0, len(self.h) - 1)
        h = self.h[i]
        x = (tau - self.tau_old[i]) / h
        q = self.q[i].T
        y = self.y_old[i] + h * x * (q[0] + x * (q[1] + x * (q[2] + x * q[3])))
        return float(y) if np.ndim(tau) == 0 else y


def _dp_step(fun, tau, y, f, tau_new):
    """One Dormand-Prince step from (tau, y), f = fun(tau, y), to tau_new:
    (y_new, the seven stages, the embedded error estimate)."""
    a2, a3, a4, a5, a6 = _DP_A
    b1, _b2, b3, b4, b5, b6 = _DP_B
    e1, _e2, e3, e4, e5, e6, e7 = _DP_E
    h = tau_new - tau
    k1 = f
    k2 = fun(tau + h / 5, y + h * (a2[0] * k1))
    k3 = fun(tau + 3 * h / 10, y + h * (a3[0] * k1 + a3[1] * k2))
    k4 = fun(tau + 4 * h / 5, y + h * (a4[0] * k1 + a4[1] * k2 + a4[2] * k3))
    k5 = fun(tau + 8 * h / 9, y + h * (a5[0] * k1 + a5[1] * k2 + a5[2] * k3 + a5[3] * k4))
    k6 = fun(tau_new, y + h * (a6[0] * k1 + a6[1] * k2 + a6[2] * k3 + a6[3] * k4 + a6[4] * k5))
    y_new = y + h * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
    k7 = fun(tau_new, y_new)
    err = h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7)
    return y_new, (k1, k2, k3, k4, k5, k6, k7), err


def _dormand_prince(fun, tau0, y0, tau_end, rtol, atol, max_step, event=None):
    """Integrate the scalar ODE y' = fun(tau, y) from tau0 to tau_end.

    Step control: the first step from the two-evaluation rule of Hairer,
    Norsett & Wanner (Section II.4), capped by max_step; a step is accepted
    when the embedded error estimate e satisfies |e| < atol + rtol
    max(|y_old|, |y_new|), and the next step is h (0.9 |e|^-1/5) clipped to
    [0.2, 10] (at most 1 right after a rejection).  The last step ends at
    tau_end exactly.

    ``event(tau, y)``, if given, is a terminal event with direction -1.
    When an accepted step takes it from >= 0 to <= 0, the root is found
    among steps taken again from the same start (``_event_root``), so the
    last step ends at the root instead of crossing it: the flow is not
    smooth there, and an interpolant across that point is the least
    accurate part of the solution.  If the step to the root fails the error
    test, the integration goes half way to the root and looks again.

    Returns (taus, ys, dense, tau_event): the accepted points in step order
    (ending at the event root, if one was found), a _DenseOutput, and the
    root or None.
    """
    direction = 1.0 if tau_end > tau0 else -1.0
    span = abs(tau_end - tau0)

    tau, y = tau0, y0
    f = fun(tau, y)
    scale = atol + abs(y) * rtol
    d0, d1 = abs(y) / scale, abs(f) / scale
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(tau + direction * h0, y + direction * h0 * f)
    d2 = abs(f1 - f) / scale / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 5.0)
    h_abs = min(100.0 * h0, h1, span, max_step)

    taus, ys = [tau], [y]
    steps = ([], [], [], [])  # tau_old, h, y_old, stages
    g = event(tau, y) if event is not None else None
    while direction * (tau - tau_end) < 0.0:
        min_step = 10.0 * abs(math.nextafter(tau, direction * math.inf) - tau)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # also a NaN step
                raise IntegrationError(
                    f"Poincare integration failed: step size below {min_step:g} at tau = {tau!r}"
                )
            tau_new = tau + direction * h_abs
            if direction * (tau_new - tau_end) > 0.0:
                tau_new = tau_end
            h_abs = abs(tau_new - tau)
            y_new, stages, err = _dp_step(fun, tau, y, f, tau_new)
            error_norm = abs(err) / (atol + max(abs(y), abs(y_new)) * rtol)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _DP_MAX_FACTOR
                else:
                    factor = min(_DP_MAX_FACTOR, _DP_SAFETY * error_norm ** _DP_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_DP_MIN_FACTOR, _DP_SAFETY * error_norm ** _DP_EXPONENT)
            rejected = True

        if event is not None:
            g_new = event(tau_new, y_new)
            if g >= 0.0 >= g_new:
                def g_at(end):
                    return event(end, _dp_step(fun, tau, y, f, end)[0])

                root = _event_root(g_at, tau, g, tau_new, g_new)
                y_root, stages, err = _dp_step(fun, tau, y, f, root)
                if abs(err) < atol + max(abs(y), abs(y_root)) * rtol:
                    for column, value in zip(steps, (tau, root - tau, y, stages)):
                        column.append(value)
                    taus.append(root)
                    ys.append(y_root)
                    return taus, ys, _DenseOutput(*steps), root
                # the step to the root fails the error test: go half way
                # there, and look for the root again from closer
                h_abs = 0.5 * abs(root - tau)
                continue
            g = g_new
        for column, value in zip(steps, (tau, tau_new - tau, y, stages)):
            column.append(value)
        tau, y, f = tau_new, y_new, stages[6]
        taus.append(tau)
        ys.append(y)
    return taus, ys, _DenseOutput(*steps), None


def _event_root(g, hi, g_hi, lo, g_lo):
    """Root of g between hi (g_hi >= 0) and lo (g_lo <= 0) by the Illinois
    variant of regula falsi, with a bisection step whenever the secant
    leaves the bracket.

    Stops once the bracket is within 4 eps (1 + |lo|) or g vanishes, and
    returns the end with g <= 0.
    """
    last = 0
    while g_lo != 0.0 and abs(hi - lo) > _EVENT_TOL * (1.0 + abs(lo)):
        mid = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        if not min(hi, lo) < mid < max(hi, lo):
            mid = 0.5 * (hi + lo)
            if mid == hi or mid == lo:
                break
        g_mid = g(mid)
        if g_mid > 0.0:
            hi, g_hi = mid, g_mid
            if last == 1:
                g_lo *= 0.5
            last = 1
        else:
            lo, g_lo = mid, g_mid
            if last == -1:
                g_hi *= 0.5
            last = -1
    return lo


def _overflow_error(c: float, t_min: float) -> DomainError:
    return DomainError(
        f"c = {c!r} is too large for t_min = {t_min!r}: f grows at least like "
        "t^-rho(c), and f^3 in Psi and W overflows float64 before t_min"
    )


def solve_poincare(c, t_min: float = 1e-3, tol: float = 1e-10,
                   boundary_offset: float = 1e-3) -> PoincareSolution:
    """Integrate the Poincare flow from the boundary down to t_min.

    Starts at t = 1 - boundary_offset with the degree-4 Taylor value (the
    flow is singular at t = 1 itself) and integrates in tau = log t, which
    keeps the t^(-rho(c)) growth near the origin non-stiff.  The integrator
    is Dormand-Prince 5(4) with relative tolerance rtol = min(max(tol/100,
    1e-13), 1e-8), absolute tolerance rtol/1000 and steps of at most 0.25
    in tau; the last step ends at log t_min exactly.  Between grid points
    the solution is read from each step's quartic interpolant.

    For c < 0 the sign change of c + t/f^3 (direction -1) is located by
    regula falsi on the end point of a step taken again from the last
    accepted point, to 4 eps (1 + |tau|): the solution terminates there
    (f' -> 0, f'' -> -inf) and cannot be continued.

    Raises DomainError unless c is finite, tol is finite and positive,
    0 < t_min < 1 - boundary_offset and 0 < boundary_offset < 1.  It also
    raises DomainError when the cusp lies between the bootstrap point and
    t = 1: the Taylor model has f <= 0 or c + t/f^3 <= 0 somewhere on
    [1 - boundary_offset, 1), checked on 256 evenly spaced points (with the
    default offset, for c below about -1.48e9), and when c > 0 is so large
    that f^3, which Psi and W hold, overflows float64 before t_min (f grows
    at least like t^-rho(c); from about c = 3.8e4 at t_min = 1e-3).  Where
    the lower bound on f already passes the cube root of the float range,
    that is raised before the flow is integrated.
    """
    c = float(c)
    if not math.isfinite(c):
        raise DomainError(f"c must be finite, got {c!r}")
    if not (0.0 < t_min < 1.0):
        raise DomainError("t_min must lie in (0, 1)")
    if not (0.0 < tol < math.inf):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    if not (0.0 < boundary_offset < 1.0):
        raise DomainError("boundary_offset must lie in (0, 1)")
    h0 = boundary_offset
    t_start = 1.0 - h0
    if t_min >= t_start:
        raise DomainError("t_min must be below the bootstrap point 1 - h0")
    f_start = boundary_taylor_value(c, h0)
    # Psi and W hold f^3, and for c > 0 log f grows by at least rho(c) per
    # unit of -tau: past a third of float64's exponent range they overflow
    if c > 0.0 and math.log(f_start) + rho(c) * math.log(t_start / t_min) > _LOG_FLOAT_MAX / 3.0:
        raise _overflow_error(c, t_min)
    # the Taylor model must stay on the regular side of the cusp over the whole
    # bootstrap interval: f > 0 and c + t/f^3 > 0 for t in [1 - h0, 1)
    hs = h0 * np.arange(1, 257) / 256.0
    fs = boundary_taylor_value(c, hs)
    if not np.all(fs > 0.0) or np.any(c + (1.0 - hs) / fs ** 3 <= 0.0):
        raise DomainError(
            f"c = {c!r} is too negative for boundary_offset = {h0!r}: the flow "
            "has reached its cusp before t = 1 - boundary_offset; use a smaller "
            "boundary_offset"
        )

    def cusp_event(tau, f):
        return c + math.exp(tau) / (f * f * f)

    def rhs(tau, f):
        g = cusp_event(tau, f)
        return -f * rho(g if g > 0.0 else 0.0)

    rtol = min(max(tol * 1e-2, 1e-13), 1e-8)
    try:
        taus, fs, dense, tau0 = _dormand_prince(
            rhs, math.log(t_start), f_start, math.log(t_min), rtol, rtol * 1e-3,
            max_step=0.25, event=cusp_event if c < 0 else None,
        )
    except (ZeroDivisionError, OverflowError) as exc:
        raise IntegrationError(f"Poincare integration failed: {exc}") from exc
    t0 = None if tau0 is None else math.exp(tau0)

    ts = np.exp(taus)
    fs = np.array(fs)
    order = np.argsort(ts)
    ts, fs = ts[order], fs[order]
    keep = fs > 0
    ts, fs = ts[keep], fs[keep]
    # an overflow here leaves a residual that is not finite, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        g = c + ts / fs ** 3
        fps = -(fs / ts) * rho(np.maximum(g, 0.0))
        fpps = reconstruct_fpp(ts, fs, fps)

        interior = fps < 0  # exclude the cusp point itself from residual checks
        res = np.abs(psi(ts[interior], fs[interior], fps[interior]) - c)
        res = res / psi_scale(ts[interior], fs[interior], c)
        psi_res = float(res.max()) if res.size else 0.0
        w_vals = monge_ampere(2, ts[interior], fs[interior], fps[interior], fpps[interior])
        w_den = w_scale(ts[interior], fs[interior], fps[interior], fpps[interior])
        w_res = float((np.abs(w_vals - 1.0) / w_den).max()) if w_vals.size else 0.0
    if not (math.isfinite(psi_res) and math.isfinite(w_res)):
        raise _overflow_error(c, t_min)
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
        _dense=dense,
    )


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


def cusp_data(sol: PoincareSolution) -> CuspData:
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
    f_t0 = sol._dense(math.log(t0))
    sigma = 2e-3 * math.sqrt(max(sol.t_start - t0, 1e-8))

    def q(sig):
        return sol._dense(math.log(t0 + sig * sig))

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
