"""Radial Poincare (Kahler-Einstein) metrics: the conserved quantity Psi,
the cubic root rho, the flow in closed form with its local expansions at
the origin and at the cusp, and completeness diagnostics.

The profile f solves W[f] = 1 with f(1) = 0, f'(1) = -1.  Conservation of

    Psi(t) = -t/f^3 + t^2 f'^2 / (2 f^2) - t^3 f'^3 / f^3

reads t/f^3 = P(x) = x^3 + x^2/2 - c in x = -t f'/f, and along the flow
d(log t) = x dx / P(x), with x = infinity at t = 1.  So log t is an
elementary function of x (``_Flow``), and f, f', f'' follow algebraically.
For c >= 0, x falls to rho(c), the nonnegative root of P, as t -> 0, and
f ~ A t^(-rho(c)); for c < 0 the flow ends at an interior cusp t0, where
x = 0 and c + t/f^3 = 0; both ends have local series (``local_series``).
The largest root of P comes from one Newton loop (``_monotone_newton``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple, Optional

import numpy as np

from .errors import CapabilityError, DomainError, EstimationError
from .quadrature import integrate_01

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_EPS = sys.float_info.epsilon

_RHO_SERIES_ONLY = 2.0 ** -120  # below: sqrt(2a) - 2a is the root to rounding
_THIRD = 1.0 / 3.0  # math.cbrt needs Python 3.11


def _monotone_newton(step, x: float, up: bool) -> float:
    """Newton's method ``x -> step(x)`` on a cubic whose iterates, after
    the first step, climb (``up``) or fall monotonically to its root.

    The first step is taken whatever its direction, because a start that
    bounds the root in exact arithmetic may round to its other side.  The
    first iterate that does not move on is returned: it is the root to
    rounding, and at times nearer to it than the last iterate that moved.
    """
    x = step(x)
    while True:
        x_new = step(x)
        if not (x_new > x if up else x_new < x):
            return x_new
        x = x_new


def _rho_scalar(a: float) -> float:
    if not 0.0 <= a < math.inf:
        raise DomainError(f"rho requires finite a >= 0, got {a!r}")
    if a < _RHO_SERIES_ONLY:
        s = math.sqrt(2.0 * a)
        return s - s * s
    b = 0.125 * a

    def step(x):
        # (x^3 + x^2/2 - a)/8 over its derivative in z = x/2: the Newton
        # step on the cubic, written so that z^3 ~ a/8 cannot overflow
        z = 0.5 * x
        return x - (z * z * z + 0.25 * z * z - b) / (1.5 * z * z + 0.25 * z)

    # sqrt(2a) and a^(1/3) bound the root above; the cubic is convex for x > 0
    return _monotone_newton(step, min(math.sqrt(2.0 * a), a ** _THIRD), up=False)


def rho(a):
    """Unique nonnegative root of x^3 + x^2/2 = a, for finite a >= 0.

    Newton's method on (x^3 + x^2/2 - a)/8 in z = x/2, so that z^3 ~ a/8
    cannot overflow, from min(sqrt(2a), a^(1/3)), which bounds the root
    above; the cubic is convex for x > 0, so the iterates fall to the root
    (``_monotone_newton``, at most 7 steps).  Below a = 2^-120 the series
    sqrt(2a) - 2a is returned as it is, since it is the root to rounding.
    Over the whole float range, from 5e-324 to 1.8e308, the result is
    finite and within 1 ulp of the exact root, and
    |rho^3 + rho^2/2 - a| <= 1e-14 max(1, a).  rho does not decrease
    across the switch to the series.

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
    derivs = taylor_at_one(float(c))
    return sum(d * (-h) ** k / math.factorial(k) for k, d in enumerate(derivs))


@dataclass
class PoincareSolution:
    """The radial Poincare flow with Psi = c, in closed form.

    The stored grid carries (t, f, f', f'') at rows evenly spaced in
    u = log(x - r) (see ``_Flow``), from t_min, or from the cusp t0, up to
    t = 1 - 1e-3; f'' is reconstructed from W[f] = 1.  ``eval`` reads the
    same closed form at any t.  ``t_min`` is the requested lower end, which
    with c fixes the solution.  ``psi_residuals()`` is the conservation
    defect |Psi - c| at each grid row, the cusp row included, normalized by
    the local term scale max(1, |c|, t/f^3) (near t = 1 the raw difference
    is dominated by float cancellation in quantities of size 1/(1-t)^3 and
    would measure nothing); ``psi_residual_max`` is its largest entry.
    """

    c: float
    t_min: float
    t_grid: np.ndarray
    f_grid: np.ndarray
    fp_grid: np.ndarray
    fpp_grid: np.ndarray
    t_min_reached: float
    t0: Optional[float]
    _psi_rows: np.ndarray = field(repr=False)
    _flow: _Flow = field(repr=False)

    def eval(self, t):
        """(f, f', f'') at t in [t_min_reached, 1): log t inverted for u,
        f'' from the unit-density relation."""
        scalar = np.isscalar(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        lo = self.t_min_reached
        if np.any(t < lo - 1e-12) or np.any(t >= 1.0):
            raise DomainError(
                f"solution computed on [{lo:g}, 1); requested t outside range"
            )
        lt = np.log(t)
        u = self._flow.u_of(lt)
        f, fp, fpp = self._flow.profile(t, u)
        if scalar:
            return float(f[0]), float(fp[0]), float(fpp[0])
        return f, fp, fpp

    @property
    def psi_residual_max(self) -> float:
        return float(np.max(self._psi_rows))

    def psi_residuals(self):
        """Normalized conservation residuals on the stored grid, per row."""
        return self._psi_rows

    def local_series(self, t: float):
        """(f, bound on |f_exact - f|/f_exact) at t from the origin series
        (c > 0), the cusp jet (c < 0, t >= t0) or f = 2 - 2 sqrt(t) (c = 0).
        They read the flow's constants, never ``eval``, which they check."""
        if self.c == 0.0:
            return 2.0 - 2.0 * math.sqrt(t), 0.0
        return (self._flow.origin_series if self.c > 0.0 else self._flow.cusp_series)(t)


def reconstruct_fpp(t, f, fp):
    """f'' from W[f] = 1:  f'' = (1/(t f)) (1/(t f') - f f' + t f'^2).

    Diverges (to -inf) where f' = 0, i.e. at a cusp point.  Takes arrays.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return (1.0 / (t * fp) - f * fp + t * fp * fp) / (t * f)


_T_END = 1.0 - 1e-3  # the last grid row
_GRID_ROWS = 256
_NEWTON_MAX = 100


def _cusp_shift(c: float) -> float:
    """e < 0 with e (e - 1/2)^2 = c, for c < 0: Newton's method from the
    larger of 4c and -(-c)^(1/3), both below the root.  The cubic is
    concave and increasing for e < 0, so the steps climb to the root
    without overshooting it.  The float neighbour toward 0 of the last
    iterate is taken when its residual is smaller, which leaves e within
    1 ulp of the root."""

    def residual(e):
        # for e > -1 the cubic as (e/4 - c) + e^2 (e - 1): near the root e/4
        # and c are within a factor 2, so their difference is exact and
        # nothing cancels; below, the cubic over e, as e^3 could overflow
        if e > -1.0:
            return (0.25 * e - c) + e * e * (e - 1.0)
        return (e - 0.5) ** 2 - c / e

    def step(e):
        slope = (e - 0.5) * (3.0 * e - 0.5)
        if e > -1.0:
            return e - residual(e) / slope
        return e - e * residual(e) / slope

    e = _monotone_newton(step, max(4.0 * c, -((-c) ** _THIRD)), up=True)
    nearer = math.nextafter(e, 0.0)
    return nearer if abs(residual(nearer)) < abs(residual(e)) else e


class _Flow:
    """log t, x = -t f'/f and Q along the flow with Psi = c, in u = log w.

    Psi = c reads t/f^3 = P(x) = x^3 + x^2/2 - c, and d(log t) = x dx/P(x)
    with x = infinity at t = 1.  Let r be the largest real root of P:
    rho(c) for c >= 0, and for c < 0 the only one, below -1/2, taken as
    r = e - 1/2 from e (e - 1/2)^2 = c so that e = r + 1/2 keeps its digits
    as c -> 0-.  With w = x - r > 0, P = w Q, Q = x^2 + e x + r e, and

        log t = -[log(Q/w^2)/2 + (3/2) e J] / (3r + 1),
        J = int_Z^inf dz/(z^2 + D),  Z = w + (6r + 1)/4,  D = e (3r - 1/2)/4.

    Then f^3 = t/(w Q) and f' = -x f/t.  For c >= 0, t -> 0 as w -> 0; for
    c < 0 the flow ends at the cusp x = 0 (w = -r), where Q = r e exactly.
    """

    def __init__(self, c: float):
        if c >= 0.0:
            r = rho(c)
            e = r + 0.5
        else:
            e = _cusp_shift(c)
            r = e - 0.5
        self.c, self.r, self.e = c, r, e
        self.k = 3.0 * r + 1.0
        self.z0 = (6.0 * r + 1.0) / 4.0
        self.d = e * (3.0 * r - 0.5) / 4.0
        # log t >= -2/x for x >= x_far, where P(x) >= x^3/2
        self.x_far = (2.0 * max(c, 0.0)) ** _THIRD
        if c < 0.0:
            self.u0 = math.log(-r)
            j0 = self._j(0.5 * e, r * e)
            self.log_t0 = float(-(0.5 * math.log(e / r) + 1.5 * e * j0) / self.k)
        else:
            self.u0 = self.log_t0 = -math.inf

    def _j(self, z, q):
        """J = int_z^inf dy/(y^2 + D), where q = z^2 + D > 0."""
        d = self.d
        if d > 0.0:
            s = math.sqrt(d)
            return np.arctan2(s, z) / s
        if d < 0.0:
            # (1/2a) log((z + a)/(z - a)), with z - a = q/(z + a)
            a = math.sqrt(-d)
            return np.log1p(2.0 * a * (z + a) / q) / (2.0 * a)
        return 1.0 / z

    def at(self, u):
        """(log t, x, Q) at u; at or below the cusp u0, the cusp itself."""
        u = np.asarray(u, dtype=float)
        r, e = self.r, self.e
        w = np.exp(u)
        x = w + r
        q = x * (x + e) + r * e
        # log(Q/w^2): from log1p((Q - w^2)/w^2) toward t = 1, and from
        # log Q and u where w is small (it may underflow)
        wb = np.maximum(w, 1.0)
        lq = np.where(w > 1.0, np.log1p(((3.0 * r + 0.5) * wb + r * self.k) / (wb * wb)),
                      np.log(q) - 2.0 * u)
        lt = -(0.5 * lq + 1.5 * e * self._j(w + self.z0, q)) / self.k
        cusp = u <= self.u0
        if np.any(cusp):
            lt = np.where(cusp, self.log_t0, lt)
            x = np.where(cusp, 0.0, x)
            q = np.where(cusp, r * e, q)
        return lt, x, q

    def u_of(self, lt):
        """u with log t(u) = lt, for lt < 0 (raised to log t0 at a cusp).

        Newton's method in u (d log t/du = x/Q) inside a bisection bracket:
        from u0, or from u = 2 (3r + 1) lt + log(3r + 1/2) for c >= 0 (where
        Q >= (3r + 1/2) w), up to w = x_hi - r with x_hi = max(2/-lt, x_far).
        """
        lt = np.maximum(np.asarray(lt, dtype=float), self.log_t0)
        if self.c < 0.0:
            lo = np.full_like(lt, self.u0)
        else:
            lo = 2.0 * self.k * lt + math.log(3.0 * self.r + 0.5)
        hi = np.log(np.maximum(-2.0 / lt, self.x_far) - self.r)
        # start from x = -1/lt, where log t = -1/x + O(x^-2) toward t = 1
        u = np.clip(np.log(np.maximum(-1.0 / lt - self.r, 1e-300)), lo, hi)
        u = np.where(lt <= self.log_t0, self.u0, u)
        done = np.zeros(u.shape, dtype=bool)
        for _ in range(_NEWTON_MAX):
            g, x, q = self.at(u)
            g = g - lt
            lo = np.where(g <= 0.0, u, lo)
            hi = np.where(g >= 0.0, u, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                new = u - g * q / x
            new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
            # a step back to an end of the bracket: g is rounding noise there
            converged = ((np.abs(new - u) <= 4.0 * _EPS * np.maximum(1.0, np.abs(u)))
                         | (new == lo) | (new == hi))
            u = np.where(done, u, new)
            done |= converged
            if np.all(done):
                break
        return u

    def profile(self, t, u):
        """(f, f', f'') at the points (t, u) of the flow."""
        _lt, x, q = self.at(u)
        f = np.cbrt(t / q) * np.exp(-u / 3.0)
        fp = -x * f / t
        return f, fp, reconstruct_fpp(t, f, fp)

    def origin_series(self, t: float):
        """(f, bound) at t from the expansion at t = 0, for c > 0.  At w = 0,
        Q = r k, and k log t = log(w/W) + w/(2 r k) + O(w^2) with
        W = sqrt(r k) e^(3 e J0/2), J0 = J(w = 0); d log f/d log t = -r - w, so
            log f = log A - r log t + a1 t^k + a1^2 t^(2k)/(4r) + O(t^(3k)),
        A = (r k)^(-1/2) e^(-e J0/2), a1 = -W/k.  f is the two-term series;
        the bound a1^2 t^(2k)/(2r), twice the first omitted term, holds while
        |a1| t^k <= r/4."""
        r, e, k = self.r, self.e, self.k
        j0 = float(self._j(self.z0, r * k))
        lt = math.log(t)
        g = -math.sqrt(r / k) * math.exp(1.5 * e * j0 + k * lt)  # a1 t^k
        log_f = -0.5 * math.log(r * k) - 0.5 * e * j0 - r * lt + g
        return math.exp(log_f), g * g / (2.0 * r)

    def cusp_series(self, t: float):
        """(f, bound) at t >= t0 from the jet at the cusp, for c < 0.  With
        a = -c = P(0), log(t/t0) = int_0^x xi dxi/P(xi) and f^3 = t/P(x) give
            y = log(t/t0) = x^2/(2a) - x^4/(8a^2) - x^5/(5a^2) + ...,
            f = f0 (1 - x^3/(3a) + x^5/(10a^2) + 2x^6/(9a^2) + ...),
        f0 = (t0/a)^(1/3); x^2 = 2a y (1 + y/2) makes the x^6 term x^6/(45a^2).
        As x = sigma sqrt(2a/t0) (1 + O(sigma^3)), Q(sigma) = f(t0 + sigma^2)
        has Q' = Q'' = Q'''' = 0 and Q''' = -2 f0 (2a/t0)^(3/2)/a at 0.  f is
        the series to x^3; the bound x^5 (1 + x)/(5a^2), at least twice the
        omitted terms, holds while x^3/a <= 0.1."""
        a, t0 = -self.c, math.exp(self.log_t0)
        if t < t0:
            raise DomainError(f"the cusp jet needs t >= t0 = {t0!r}, got {t!r}")
        y = math.log1p((t - t0) / t0)
        x = math.sqrt(2.0 * a * y * (1.0 + 0.5 * y))
        f0 = (t0 / a) ** _THIRD
        return f0 * (1.0 - x ** 3 / (3.0 * a)), x ** 5 * (1.0 + x) / (5.0 * a * a)


def _overflow_error(c: float, t_min: float) -> DomainError:
    return DomainError(
        f"c = {c!r} is too large for t_min = {t_min!r}: f grows at least like "
        "t^-rho(c), and f^3 in Psi overflows float64 before t_min"
    )


def solve_poincare(c, t_min: float = 1e-3) -> PoincareSolution:
    """The Poincare flow with Psi = c from t_min, or from its cusp, to 1.

    Closed form (``_Flow``): log t is an elementary function of
    x = -t f'/f, inverted for the grid's first and last rows and by
    ``eval``.  The grid has 256 rows evenly spaced in u = log(x - r), from
    t_min (or the cusp t0) to t = 1 - 1e-3; a first row above 1 - 1e-3 is
    the only one.

    For c < 0 the flow ends at the cusp t0 where c + t/f^3 = 0 (f' = 0,
    f'' = -inf) and cannot be continued; when t0 < t_min it reaches t_min
    and ``t0`` is None.

    Raises DomainError unless c is finite and 0 < t_min < 1.  It also
    raises DomainError when c < 0 is so negative that t0 rounds to 1, and
    when c > 0 is so large that f^3, which Psi holds, overflows float64
    before t_min (from about c = 3.8e4 at t_min = 1e-3): the Psi residual
    over the grid, ``psi_residual_max``, is then not finite.
    """
    c = float(c)
    if not math.isfinite(c):
        raise DomainError(f"c must be finite, got {c!r}")
    t_min = float(t_min)
    if not (0.0 < t_min < 1.0):
        raise DomainError("t_min must lie in (0, 1)")
    flow = _Flow(c)
    if math.exp(flow.log_t0) == 1.0:
        raise DomainError(f"c = {c!r} is too negative: its cusp t0 rounds to 1")
    if flow.log_t0 >= math.log(t_min):
        t0 = t_first = math.exp(flow.log_t0)
        u_first = flow.u0
    else:
        t0, t_first = None, t_min
        u_first = float(flow.u_of(math.log(t_min)))
    # Psi holds f^3 = t/(w Q), largest at the first row
    if math.log(t_first) - u_first - math.log(flow.at(u_first)[2]) > _LOG_FLOAT_MAX:
        raise _overflow_error(c, t_min)
    if t_first < _T_END:
        us = np.linspace(u_first, float(flow.u_of(math.log(_T_END))), _GRID_ROWS)
    else:
        us = np.array([u_first])
    ts = np.exp(flow.at(us)[0])
    ts[0] = t_first
    if len(ts) > 1:
        ts[-1] = _T_END
    # an overflow here leaves a residual that is not finite, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        fs, fps, fpps = flow.profile(ts, us)
        psi_res = np.abs(psi(ts, fs, fps) - c) / psi_scale(ts, fs, c)
    if not np.all(np.isfinite(psi_res)):
        raise _overflow_error(c, t_min)

    return PoincareSolution(
        c=c,
        t_min=t_min,
        t_grid=ts,
        f_grid=fs,
        fp_grid=fps,
        fpp_grid=fpps,
        t_min_reached=t_first,
        t0=t0,
        _psi_rows=psi_res,
        _flow=flow,
    )


def origin_exponent(sol: PoincareSolution) -> float:
    """rho(c) to the bit, the exponent of f ~ A t^(-rho(c)) as t -> 0 for
    c >= 0 (``_Flow.origin_series``); 0 for c = 0, f = 2 - 2 sqrt(t)."""
    if sol.c < 0:
        raise DomainError("origin exponent applies to c >= 0 solutions")
    return sol._flow.r


class CuspData(NamedTuple):
    t0: float
    f_t0: float
    qppp_series: float
    qppp_formula: float


def cusp_data(sol: PoincareSolution) -> CuspData:
    """Cusp data of a terminated (c < 0) solution: Q(sigma) = f(t0 + sigma^2)
    has Q'(0) = Q''(0) = 0, and the jet's Q'''(0) = -2 f(t0) (2|c|/t0)^(3/2)/|c|
    is the published -4 sqrt(2)/(t0 sqrt(f(t0))) as |c| = t0/f(t0)^3."""
    if sol.t0 is None:
        raise DomainError("solution did not terminate: cusp data undefined")
    t0, a = sol.t0, -sol.c
    f_t0 = sol.eval(t0)[0]
    qppp_series = -2.0 * f_t0 * (2.0 * a / t0) ** 1.5 / a
    qppp_formula = -4.0 * math.sqrt(2.0) / (t0 * math.sqrt(f_t0))
    return CuspData(t0, f_t0, qppp_series, qppp_formula)


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
