"""Radial weight profiles f(t), their derivatives, and the Monge-Ampere density.

A profile is the radial part of a weight u(z) = f(|z|^2) on the unit ball of
the Kepler manifold, normalized so that f(1) = 0 and f'(1) = -1 for the
boundary-vanishing kinds.  The catalog manipulated here:

    explicit_n        g_m(t) = m/(m-1) (1 - t^((m-1)/m)), its parameter ``n`` = m an
                      integer >= 2; ``sqrt_poincare`` spells m = 2, 2 - 2 sqrt(t)
    phi_v_candidate   the closed-form balanced candidate for parameter v >= 0
    taylor_at_one     finite L-series at t = 1 (L = log 1/t)
    poincare_numeric  numeric radial Kahler-Einstein solution (module poincare)
    constant_one      the constant density 1

All evaluations are closed-form (finite-difference free) and accept scalars
or numpy arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral, Rational, Real
import numpy as np

from .errors import CapabilityError, DomainError, NormalizationError, TruncationError
from .series import PowerLogSeries, nth_root_fraction

# the parameters a profile spec may carry per kind, besides ``scale``; for
# every kind but poincare_numeric, the arguments of its constructor
SPEC_KEYS = {
    "explicit_n": ("n",),
    "phi_v_candidate": ("v",),
    "taylor_at_one": ("coeffs",),
    "poincare_numeric": ("c", "t_min"),
    "constant_one": (),
    "sqrt_poincare": (),
}
KINDS = tuple(k for k in SPEC_KEYS if k != "sqrt_poincare")  # it parses to explicit_n

TAYLOR_VALID_L = 0.5  # taylor_at_one profiles are trusted for L <= 0.5


def sqrt_of(v):
    """Square root keeping Fractions exact when possible."""
    if isinstance(v, Rational):
        r = nth_root_fraction(Fraction(v), 2)
        if r is not None:
            return r
    if v < 0:
        raise DomainError("negative argument")
    return math.sqrt(float(v))


def m_delta_from_v(v):
    """Split (sqrt(v) - 3)/4 = m - 1 + delta with integer m >= 0, 0 <= delta < 1."""
    if v < 0:
        raise DomainError("v must be nonnegative")
    w = sqrt_of(v)
    x = (w + 1) / 4
    m = int(math.floor(float(x)))
    if isinstance(x, Fraction) and x == m:
        delta = Fraction(0)
    else:
        delta = x - m
    return m, delta


def _maybe_scalar(value, scalar_in):
    if scalar_in:
        return float(value)
    return value


def phi_v(v, t):
    """The boundary germ family phi_v(t); invariant under sqrt(v) -> -sqrt(v).

    For v > 0 the two-power form is used; v ~ 0 goes through a short Taylor
    expansion in v to dodge the 0/0 cancellation; v < 0 uses the
    trigonometric form (the density then changes sign as t -> 0).
    """
    scalar = np.isscalar(t)
    t = np.asarray(t, dtype=float)
    if (t <= 0).any() or (t > 1).any():
        raise DomainError("t must lie in (0, 1]")
    v = float(v)
    if abs(v) <= 1e-6:
        L = -np.log(t)
        x = L / 4.0
        acc = np.zeros_like(t)
        for i in range(3, -1, -1):
            coef = x ** (2 * i) / math.factorial(2 * i) - x ** (2 * i + 1) / math.factorial(2 * i + 1)
            acc = acc * v + coef
        return _maybe_scalar(np.exp(x) * acc, scalar)
    if v > 0:
        w = math.sqrt(v)
        val = ((1 + w) * t ** ((-1 + w) / 4) - (1 - w) * t ** ((-1 - w) / 4)) / (2 * w)
        return _maybe_scalar(val, scalar)
    s = math.sqrt(-v)
    L = -np.log(t)
    val = np.exp(L / 4) * (np.cos(L * s / 4) - np.sin(L * s / 4) / s)
    return _maybe_scalar(val, scalar)


def phi_v_form(v):
    """The sum ``phi_v`` evaluates, as terms (a, p, j) of a t^p log(1/t)^j.

    |v| <= 1e-6: t^(-1/4) times the polynomial in x = log(1/t)/4,
    sum_i v^i (x^(2i)/(2i)! - x^(2i+1)/(2i+1)!), i <= 3; v > 1e-6: the two
    powers t^((-1 +- sqrt v)/4); v < -1e-6: Re[(1 + i/s) t^(-1/4 - i s/4)],
    s = sqrt(-v), one term of complex a and p standing for itself plus its
    complex conjugate.
    """
    v = float(v)
    if abs(v) <= 1e-6:
        terms = ((-1) ** j * v ** (j // 2) / (4.0 ** j * math.factorial(j)) for j in range(8))
        return tuple((a, -0.25, j) for j, a in enumerate(terms) if a != 0.0)
    if v > 0:
        w = math.sqrt(v)
        return (((1 + w) / (2 * w), (-1 + w) / 4, 0), (-(1 - w) / (2 * w), (-1 - w) / 4, 0))
    s = math.sqrt(-v)
    return ((complex(0.5, 0.5 / s), complex(-0.25, -s / 4), 0),)


def phi_v_l_coefficients(v, J):
    """Taylor coefficients a_0..a_J of phi_v in L at L = 0.

    In L, phi_v solves phi'' - phi'/2 + q phi = 0 with q = (1 - v)/16 = A_2
    (its exponents (1 +- sqrt v)/4 are the roots of r^2 - r/2 + q), and
    phi = 1, phi' = 0 at L = 0.  So a_0 = 1, a_1 = 0 and
        a_(j+2) = (a_(j+1)/2 - q a_j/(j+1)) / (j+2),
    for every real v (v = 0 and v < 0 included), exact in the rationals of
    Fraction(v).  The recurrence runs in integers: with q = p/r in lowest
    terms, B_j = a_j j! 2^j r^floor(j/2) solves B_0 = 1, B_1 = 0,
        B_(j+2) = r^[j even] B_(j+1) - 4 p B_j,
    and each a_j is the Fraction B_j / (j! 2^j r^floor(j/2)), one gcd each.
    An int or Fraction v gives those Fractions, a float v the correctly
    rounded float of each.
    """
    if J < 0:
        raise DomainError("J must be >= 0")
    q = (1 - Fraction(v)) / 16
    p, r = q.numerator, q.denominator
    B = [1, 0][:J + 1]
    for j in range(J - 1):
        B.append((r if j % 2 == 0 else 1) * B[j + 1] - 4 * p * B[j])
    a, den = [], 1
    for j, b in enumerate(B):
        if j:
            den *= 2 * j * (r if j % 2 == 0 else 1)
        a.append(Fraction(b, den))
    return a if isinstance(v, Rational) else [float(c) for c in a]


def phi_v_l_series(v, order):
    """phi_v as a PowerLogSeries in L at the boundary."""
    coeffs = phi_v_l_coefficients(v, order)
    return PowerLogSeries({(j, 0): c for j, c in enumerate(coeffs)}, order)


@dataclass(frozen=True)
class RadialProfile:
    """Immutable radial profile; ``scale`` multiplies f after normalization."""

    kind: str
    params: dict = field(default_factory=dict)
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown profile kind {self.kind!r}")
        if not math.isfinite(self.scale):  # l_series scales by Fraction(scale)
            raise DomainError(f"profile scale must be finite, got {self.scale!r}")
        if self.kind == "explicit_n":
            n = self.params.get("n")
            if not (isinstance(n, Integral) and n >= 2):
                raise DomainError(f"explicit_n requires integer n >= 2, got n = {n!r}")
        if self.kind == "phi_v_candidate":
            if float(self.params.get("v", -1)) < 0:
                raise DomainError("phi_v_candidate requires v >= 0")
        if self.kind == "taylor_at_one":
            coeffs = self.params.get("coeffs")
            if not coeffs or coeffs[0] == 0:
                raise NormalizationError(
                    "taylor_at_one needs L-coefficients starting with nonzero a_1"
                )

    # -- constructors ---------------------------------------------------

    @classmethod
    def sqrt_poincare(cls, scale=1.0):
        """2 - 2 sqrt(t): ``explicit_n`` with n = 2."""
        return cls.explicit_n(2, scale)

    @classmethod
    def explicit_n(cls, n, scale=1.0):
        """n is an integer >= 2; an integral float such as 3.0 is taken as 3."""
        if isinstance(n, float) and n.is_integer():
            n = int(n)
        return cls("explicit_n", {"n": n}, scale)

    @classmethod
    def phi_v_candidate(cls, v, scale=1.0):
        return cls("phi_v_candidate", {"v": v}, scale)

    @classmethod
    def taylor_at_one(cls, coeffs, scale=1.0):
        """Coefficients of L^1, L^2, ... ; rescaled so the leading one is 1."""
        if not (isinstance(coeffs, (list, tuple)) and coeffs
                and all(isinstance(c, Real) and math.isfinite(c) for c in coeffs)):
            raise DomainError(
                "taylor_at_one needs coeffs, a nonempty list of numbers "
                "(inline, one coefficient is written coeffs=1;0)"
            )
        a1 = coeffs[0]
        if a1 == 0:
            raise NormalizationError("leading L-coefficient must be nonzero")
        normalized = [c / a1 for c in coeffs]
        return cls("taylor_at_one", {"coeffs": tuple(normalized)}, scale)

    @classmethod
    def poincare_numeric(cls, solution, scale=1.0):
        return cls("poincare_numeric", {"solution": solution}, scale)

    @classmethod
    def constant_one(cls, scale=1.0):
        return cls("constant_one", {}, scale)

    # -- JSON interface ---------------------------------------------------

    @classmethod
    def from_json(cls, payload):
        """Build from {"kind": ..., "params": {...}} (dict, JSON text, or path).

        DomainError names a parameter the kind does not read (``SPEC_KEYS``).
        """
        if isinstance(payload, str):
            try:
                data = json.loads(payload)
            except json.JSONDecodeError:
                with open(payload, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
        else:
            data = payload
        if not isinstance(data, dict) or "kind" not in data:
            raise DomainError("profile JSON must carry a 'kind' field")
        kind = data["kind"]
        params = dict(data.get("params", {}))
        scale = float(params.pop("scale", 1.0))
        if kind not in SPEC_KEYS:
            raise DomainError(f"unknown profile kind {kind!r}")
        for key in params:
            if key not in SPEC_KEYS[kind]:
                raise DomainError(f"profile kind {kind!r} takes no parameter {key!r}")
        if kind == "poincare_numeric":
            from .poincare import solve_poincare

            sol = solve_poincare(params["c"], t_min=params.get("t_min", 1e-4))
            return cls.poincare_numeric(sol, scale)
        return getattr(cls, kind)(*(params[key] for key in SPEC_KEYS[kind]), scale)

    def to_json(self):
        params = {k: v for k, v in self.params.items() if k != "solution"}
        if self.kind == "poincare_numeric" and "solution" in self.params:
            sol = self.params["solution"]
            # the requested t_min, not t_min_reached: re-solving at a cusp t0
            # may round log t_min above log t0 and lose the cusp
            params["c"], params["t_min"] = sol.c, sol.t_min
        if self.scale != 1.0:
            params["scale"] = self.scale
        return json.dumps({"kind": self.kind, "params": params}, sort_keys=True)

    # -- evaluation -------------------------------------------------------

    def eval(self, t):
        """Return (f, f', f'') at t in (0, 1].

        Closed-form derivatives for the catalog kinds; poincare_numeric
        reconstructs f'' from the unit Monge-Ampere relation.  t = 1 is
        valid: quadrature nodes near 1 round to it.
        """
        scalar = np.isscalar(t)
        t = np.asarray(t, dtype=float)
        if (t <= 0.0).any() or (t > 1.0).any():
            raise DomainError("t must lie in (0, 1]")
        f, fp, fpp = self._eval_impl(t)
        s = self.scale
        if s != 1.0:
            f, fp, fpp = f * s, fp * s, fpp * s
        if scalar:
            return (
                float(np.asarray(f).reshape(-1)[0]),
                float(np.asarray(fp).reshape(-1)[0]),
                float(np.asarray(fpp).reshape(-1)[0]),
            )
        return f, fp, fpp

    def _eval_impl(self, t):
        kind = self.kind
        if kind == "explicit_n":
            n = self.params["n"]
            b = (n - 1.0) / n
            f = (n / (n - 1.0)) * (1.0 - t ** b)
            fp = -t ** (b - 1.0)
            fpp = (1.0 / n) * t ** (b - 2.0)
            return f, fp, fpp
        if kind == "phi_v_candidate":
            return self._eval_candidate(t)
        if kind == "taylor_at_one":
            return self._eval_taylor(t)
        if kind == "poincare_numeric":
            sol = self.params["solution"]
            return sol.eval(t)
        if kind == "constant_one":
            one = np.ones_like(t)
            zero = np.zeros_like(t)
            return one, zero, zero
        raise CapabilityError(f"kind {kind!r} cannot be evaluated")

    def _eval_candidate(self, t):
        v = self.params["v"]
        m, delta = m_delta_from_v(v)
        m = float(m)
        delta = float(delta)
        dcoef = delta * (4 * m + 2 * delta - 1)
        u = 1.0 - t
        D = 1.0 + 3.0 * t + 4.0 * m * u - dcoef * u * u
        Dp = 3.0 - 4.0 * m + 2.0 * dcoef * u
        Dpp = -2.0 * dcoef
        f = 2.0 ** (2.0 / 3.0) * t ** (-m / 3.0) * u * D ** (-1.0 / 3.0)
        # f = u g with h = g'/g: f' = g (u h - 1) and f'' = g (u (h' + h^2) - 2h)
        # stay finite at u = 0, where f'/f has a pole.  f keeps its own product
        # above: the kernel's defects read its bits
        g = 2.0 ** (2.0 / 3.0) * t ** (-m / 3.0) * D ** (-1.0 / 3.0)
        h = -m / (3.0 * t) - Dp / (3.0 * D)
        hp = m / (3.0 * t * t) - (Dpp * D - Dp * Dp) / (3.0 * D * D)
        fp = g * (u * h - 1.0)
        fpp = g * (u * (hp + h * h) - 2.0 * h)
        return f, fp, fpp

    def _eval_taylor(self, t):
        L = -np.log(t)
        if np.any(L > TAYLOR_VALID_L):
            raise DomainError(
                f"taylor_at_one profile valid only for L <= {TAYLOR_VALID_L}"
            )
        coeffs = [float(c) for c in self.params["coeffs"]]
        f = sum(c * L ** (i + 1) for i, c in enumerate(coeffs))
        fL = sum((i + 1) * c * L ** i for i, c in enumerate(coeffs))
        fLL = sum((i + 1) * i * c * L ** (i - 1) for i, c in enumerate(coeffs) if i >= 1)
        fp = -fL / t
        fpp = (fL + fLL) / (t * t)
        return np.asarray(f), np.asarray(fp), np.asarray(fpp)

    # -- boundary series ----------------------------------------------------

    def l_series(self, order):
        """Exact L-expansion of f at t = 1 (kinds with closed forms)."""
        one = PowerLogSeries.const(Fraction(1), order)
        L = PowerLogSeries.variable(order)
        kind = self.kind
        if kind == "explicit_n":
            n = self.params["n"]
            ser = (one - (L * Fraction(-(n - 1), n)).exp()) * Fraction(n, n - 1)
        elif kind == "phi_v_candidate":
            ser = self._candidate_l_series(order)
        elif kind == "taylor_at_one":
            # the stored coefficients ARE the profile: a finite L-polynomial,
            # so higher coefficients are exactly zero
            coeffs = self.params["coeffs"]
            ser = PowerLogSeries(
                {(i + 1, 0): Fraction(c) for i, c in enumerate(coeffs)}, order
            )
        elif kind == "constant_one":
            ser = one
        elif kind == "poincare_numeric":
            if order > 4:
                raise CapabilityError(
                    "poincare_numeric boundary data is exact only through order 4"
                )
            from .poincare import taylor_at_one as poincare_taylor

            # Fraction(c) is the float's exact value: the series then holds
            # exact rationals, and W's boundary series is exactly 1, 0, 0, 0
            derivs = poincare_taylor(Fraction(self.params["solution"].c), order=4)
            tm1 = (L * Fraction(-1)).exp() - one  # t - 1 as a series in L
            ser = PowerLogSeries.zero(order)
            pw = one
            for i, d in enumerate(derivs):
                if i > 0:
                    pw = pw * tm1
                ser = ser + pw * (d / math.factorial(i))
        else:
            raise CapabilityError(f"kind {kind!r} has no boundary series")
        if self.scale != 1.0:
            ser = ser * Fraction(self.scale)
        return ser.truncate(order)

    def _candidate_l_series(self, order):
        v = self.params["v"]
        m, delta = m_delta_from_v(v)
        if not isinstance(delta, Fraction):
            m, delta = Fraction(m), delta  # float delta: coefficients go float
        dcoef = delta * (4 * m + 2 * delta - 1)
        one = PowerLogSeries.const(Fraction(1), order + 1)
        L = PowerLogSeries.variable(order + 1)
        t_ser = (L * Fraction(-1)).exp()
        u = one - t_ser
        D = one + t_ser * 3 + u * (4 * m) - (u * u) * dcoef
        # f = 2^(2/3) t^(-m/3) u D^(-1/3);  2^(2/3) 4^(-1/3) = 1 exactly
        body = (D * Fraction(1, 4)).pow_fraction(Fraction(-1, 3))
        exp_part = (L * Fraction(m, 3)).exp() if m else one
        return (exp_part * u * body).truncate(order)


def require_dimension(n):
    """DomainError naming n unless the dimension n is an integer >= 2."""
    if not (isinstance(n, Integral) and n >= 2):
        raise DomainError(f"the dimension n must be an integer >= 2, got n = {n!r}")


def monge_ampere(n, t, f, fp, fpp):
    """W_n = (-1)^n t f'^(n-1) (f f' + t f f'' - t f'^2) from f, f', f'' at t.

    This is the density of u^(n+1) wedge^n(i/2 ddbar log 1/u) against the
    invariant measure, up to the constant (n+1)^2 factor.  W_n[s f] =
    s^(n+1) W_n[f], and W_n[g_m] = t^(1 - n/m) for the explicit profiles.
    DomainError unless the dimension n is an integer >= 2.
    """
    require_dimension(n)
    t, f, fp, fpp = (np.asarray(x, dtype=float) for x in (t, f, fp, fpp))
    return (-1.0) ** n * t * fp ** (n - 1) * (f * fp + t * f * fpp - t * fp * fp)


def monge_ampere_density(p: RadialProfile, n: int, t):
    """W_n[f](t) of the profile (``monge_ampere``): a float for a scalar t."""
    scalar = np.isscalar(t)
    f, fp, fpp = p.eval(t if scalar else np.asarray(t, dtype=float))
    return _maybe_scalar(monge_ampere(n, t, f, fp, fpp), scalar)


def density_in_L(f_series: PowerLogSeries, n: int) -> PowerLogSeries:
    """L-series of the density W_n[f] from the L-series of f.

    With t = e^-L and subscripts for d/dL, t f' = -f_L and t^2 f'' = f_LL +
    f_L turn ``monge_ampere`` into
        W_n = e^((n-1) L) f_L^(n-1) (f_L^2 - f f_LL),
    for any f: W_n[s f] = s^(n+1) W_n[f], and W_n[const] = 0.  Exact
    coefficients give exact coefficients.  DomainError unless the dimension
    n is an integer >= 2.
    """
    require_dimension(n)
    fL = f_series.deriv()
    fLL = fL.deriv()
    w = (PowerLogSeries.variable(f_series.order) * (n - 1)).exp()
    for _ in range(n - 1):
        w = w * fL
    return w * (fL * fL - f_series * fLL)


def germ_residual(f_series: PowerLogSeries, v, order: int):
    """Taylor coefficients (in L) of W_2[f] - phi_v at t = 1 through ``order``,
    from the L-series of f (known through L^(order + 2) at least).

    All-zero output means f matches the balanced germ family at that order.
    """
    phi = density_in_L(f_series, 2)
    if phi.order < order:
        raise TruncationError("f-series too short for requested order")
    target = phi_v_l_coefficients(v, order)
    return [phi.coeff(j) - target[j] for j in range(order + 1)]
