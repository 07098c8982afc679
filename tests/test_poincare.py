import math
import re
import sys
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from kepler_balance import poincare as P
from kepler_balance.errors import CapabilityError, DomainError
from kepler_balance.profiles import RadialProfile


@pytest.fixture(scope="module")
def sol0():
    return P.solve_poincare(0.0, t_min=1e-3)


@pytest.fixture(scope="module")
def sol1():
    return P.solve_poincare(1.0, t_min=1e-4)


@pytest.fixture(scope="module")
def solm():
    return P.solve_poincare(-0.1, t_min=1e-4)


def _rho_oracle(a, mpmath):
    """The root at the working precision: Newton from sqrt(2a) or a^(1/3),
    whichever is the smaller upper bound of the root, decreases
    monotonically to it (the cubic is convex for x > 0)."""
    am = mpmath.mpf(a)
    x = min(mpmath.sqrt(2 * am), mpmath.cbrt(am))
    while True:
        x_new = x - (x ** 3 + x ** 2 / 2 - am) / (3 * x ** 2 + x)
        if x_new >= x:
            return x
        x = x_new


_BRANCH = 1.0 / 54.0  # the shifted cubic's discriminant vanishes here
# the whole float range, with that point and its neighbours
FULL_RANGE = np.concatenate([
    [5e-324, 1e-320, 2.0 ** -1022],
    np.logspace(-300, -12, 289),
    [math.nextafter(_BRANCH, 0.0), _BRANCH, math.nextafter(_BRANCH, 1.0)],
    np.logspace(12, math.log10(1.7e308), 150),
    [1.7e308],
])


def test_rho_values():
    assert P.rho(0.0) == 0.0
    assert P.rho(1.5) == pytest.approx(1.0, rel=1e-15)
    a = 1e-6
    expansion = math.sqrt(2 * a) - 2 * a + 5 * math.sqrt(2) * a ** 1.5 - 32 * a * a
    assert P.rho(a) == pytest.approx(expansion, abs=1e-12)
    with pytest.raises(DomainError):
        P.rho(-1e-9)


def test_cubic_root_pair():
    assert P.rho(1.5) == pytest.approx(1.0, rel=1e-15)
    assert P.rho_residual(1.5) <= 1e-14 * max(1.0, 1.5)


def test_rho_residual_grid():
    grid = np.logspace(-8, 1, 50)
    assert np.max(P.rho_residual(grid)) <= 1e-14
    big = np.logspace(1, 6, 20)
    assert np.max(P.rho_residual(big) / np.maximum(1.0, big)) <= 1e-14
    assert np.all(np.isfinite(P.rho(FULL_RANGE)))
    assert np.max(P.rho_residual(FULL_RANGE) / np.maximum(1.0, FULL_RANGE)) <= 1e-14
    assert math.isfinite(P.rho(1.7976931348623157e308))


def test_rho_monotone():
    grid = np.logspace(-6, 3, 60)
    vals = P.rho(grid)
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rho_rejects_nonfinite(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            P.rho(bad)
        with pytest.raises(DomainError):
            P.rho(np.float64(bad))
        with pytest.raises(DomainError):
            P.rho(np.array(bad))
        with pytest.raises(DomainError):
            P.rho(np.array([0.5, bad, 2.0]))


def test_rho_independent_of_batch():
    rng = np.random.default_rng(20)
    grid = np.concatenate(
        [[0.0], np.logspace(-12, 6, 200), rng.uniform(0.0, 3.0, 200)]
    )
    rng.shuffle(grid)
    vals = P.rho(grid)
    assert vals.shape == grid.shape
    for a, r in zip(grid, vals):
        assert r == P.rho(float(a))
    # a 2-D batch gives the same bits as the flat one
    assert np.array_equal(P.rho(grid[:400].reshape(20, 20)), vals[:400].reshape(20, 20))
    zero_d = P.rho(np.array(0.7))
    assert np.ndim(zero_d) == 0 and zero_d == P.rho(0.7)


def test_rho_matches_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    grid = np.concatenate([np.logspace(-12, 6, 181), np.linspace(0.01, 3.0, 100), FULL_RANGE])
    with mpmath.workdps(50):
        for a in grid:
            a = float(a)
            ref = _rho_oracle(a, mpmath)
            r = P.rho(a)
            assert math.isfinite(r), a
            assert abs(mpmath.mpf(r) - ref) <= math.ulp(float(ref)), a


@pytest.mark.parametrize("switch", [_BRANCH, 1e-8, 2.0 ** -120])
def test_rho_monotone_across_branch_switch(switch):
    # 64 consecutive floats on each side of each probe point; 2^-120 is
    # where rho switches to its series
    below, above = [switch], [switch]
    for _ in range(64):
        below.insert(0, math.nextafter(below[0], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    vals = [P.rho(a) for a in below + above[1:]]
    assert all(x <= y for x, y in zip(vals, vals[1:]))


@pytest.mark.parametrize("c", [1.8e7, 2e7, 3.2e7])
def test_psi_residual_scale_includes_c(c):
    # Psi = c everywhere, so its rounding alone is ~eps |c| (1.9e-8 at 2e7):
    # the residual is normalised by max(1, |c|, t/f^3), and these solve
    sol = P.solve_poincare(c, t_min=0.5)
    assert sol.psi_residual_max <= 1e-14
    assert np.max(sol.psi_residuals()) <= 1e-14
    assert P.psi_scale(0.5, 1.0, -c) == c


def test_psi_examples():
    ts = np.linspace(0.05, 0.95, 9)
    f = 2 - 2 * np.sqrt(ts)
    fp = -1 / np.sqrt(ts)
    # identically zero along the explicit solution, up to the term scale
    # (raw cancellation reaches ~1e3 eps near t = 1)
    assert np.max(np.abs(P.psi(ts, f, fp)) / P.psi_scale(ts, f, 0.0)) < 1e-15
    assert P.psi(0.25, 1.0, -2.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DomainError):
        P.psi(0.5, -1.0, 0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_first_integral_on_g_n(n):
    # W_n[f] = 1 has the first integral t^(n-1)/f^(n+1) = x^(n+1) + (n-1) x^n/n - c
    # in x = -t f'/f; g_n solves W_n = 1 with c = 0
    ts = np.linspace(0.01, 0.99, 99)
    f, fp, _fpp = RadialProfile.explicit_n(n).eval(ts)
    x = -ts * fp / f
    lhs = ts ** (n - 1) / f ** (n + 1)
    assert np.max(np.abs(lhs - x ** (n + 1) - (n - 1) * x ** n / n) / lhs) <= 1e-14


def test_taylor_at_one():
    assert P.taylor_at_one(0) == [0, -1, F(1, 2), F(-3, 4), F(15, 8)]
    assert P.taylor_at_one(1)[4] == F(31, 8)
    assert P.taylor_at_one(0.3, order=2) == [0.0, -1.0, 0.5]
    for c in (-2, 0, F(1, 3), 5):
        assert P.taylor_at_one(c)[4] == (15 + 16 * F(c)) / 8
    with pytest.raises(CapabilityError):
        P.taylor_at_one(0, order=5)


def test_c0_matches_explicit_solution(sol0):
    ts = np.exp(np.linspace(math.log(1e-3), math.log(1 - 1e-6), 3000))
    f, fp, fpp = sol0.eval(ts)
    assert np.max(np.abs(f - (2 - 2 * np.sqrt(ts)))) <= 1e-8
    assert np.max(np.abs(fp + 1 / np.sqrt(ts))) <= 1e-7
    assert sol0.psi_residual_max <= 1e-10


def test_solution_grid_invariants(sol0, sol1, solm):
    for sol in (sol0, sol1, solm):
        assert np.all(sol.f_grid > 0)
        interior = sol.fp_grid < 0
        # f' < 0 strictly on the interior (the cusp endpoint may have f' = 0)
        assert interior.sum() >= len(sol.fp_grid) - 1
        assert np.max(sol.psi_residuals()) <= 1e-10


def test_conservation_across_c():
    for c in (0.5, 1.0):
        s = P.solve_poincare(c, t_min=1e-3)
        assert s.psi_residual_max <= 1e-10
        assert s.t0 is None


def test_cusp_termination(solm):
    assert solm.t0 is not None
    assert 0.0 < solm.t0 < 1.0
    f0 = solm.eval(solm.t0)[0]
    assert abs(-0.1 + solm.t0 / f0 ** 3) <= 1e-10
    # f'(t0) = 0 from the flow
    assert abs(solm.eval(solm.t0)[1]) <= 1e-7


def test_cusp_data(solm):
    cd = P.cusp_data(solm)
    # the jet's Q'''(0) is the published one up to the event residual
    assert cd.qppp_series / cd.qppp_formula == pytest.approx(1.0, abs=1e-10)
    # f'(t) ~ -sqrt(2(t-t0))/(t0 sqrt(f(t0))) just above t0
    dt = 1e-5
    fp = solm.eval(cd.t0 + dt)[1]
    ref = -math.sqrt(2 * dt) / (cd.t0 * math.sqrt(cd.f_t0))
    assert fp == pytest.approx(ref, rel=2e-2)


def test_cusp_data_near_zero_c():
    # t0 = 7.9e-6: a stencil with sigma = 2e-3 sqrt(1 - t0) read a Q''' ratio
    # of -0.157 here, Q'(0) = -0.26 and Q''(0) = -580
    cd = P.cusp_data(P.solve_poincare(-1e-6, t_min=1e-6))
    assert cd.qppp_series / cd.qppp_formula == pytest.approx(1.0, abs=1e-10)


def test_cusp_requires_termination(sol0):
    with pytest.raises(DomainError):
        P.cusp_data(sol0)


def test_origin_exponent(sol1):
    assert P.origin_exponent(sol1) == P.rho(1.0)
    assert P.origin_exponent(P.solve_poincare(1.5, t_min=1e-4)) == 1.0
    assert P.origin_exponent(P.solve_poincare(0.0, t_min=1e-4)) == 0.0
    # read from the flow, so a run that stops short of t = 0 has it too
    assert P.origin_exponent(P.solve_poincare(1e-6, t_min=0.5)) == P.rho(1e-6)


def _origin_constants(c):
    """(r, k, A, a1) of log f = log A - r log t + a1 t^k + ..., with
    J0 = int_{z0}^inf dz/(z^2 + D) taken here as an arctan or an artanh."""
    r = P.rho(c)
    e, k = r + 0.5, 3 * r + 1
    z0, d = (6 * r + 1) / 4, e * (3 * r - 0.5) / 4
    if d > 0:
        j0 = math.atan2(math.sqrt(d), z0) / math.sqrt(d)
    else:
        s = math.sqrt(-d)
        j0 = math.atanh(s / z0) / s
    A = math.exp(-e * j0 / 2) / math.sqrt(r * k)
    return r, k, A, -math.sqrt(r / k) * math.exp(1.5 * e * j0)


def test_origin_prefactor_finite(sol1):
    # f(t) t^rho(c) tends to A: it is A e^(a1 t^k) to O((a1 t^k)^2) ~ 1e-21 on
    # [1e-4, 1e-3], where a1 t^k reaches -3e-11
    r, k, A, a1 = _origin_constants(1.0)
    ts = np.exp(np.linspace(math.log(1e-4), math.log(1e-3), 10))
    np.testing.assert_allclose(sol1.eval(ts)[0] * ts ** r, A * np.exp(a1 * ts ** k), rtol=1e-13)


def _order(x1, x2, res1, res2):
    """q of res ~ x^q from two points: the Richardson estimate of the order."""
    return math.log(res2 / res1) / math.log(x2 / x1)


@pytest.mark.parametrize("c", [1e-3, 0.05, 0.5, 1.0, 1.5, 2.0])
def test_origin_series_against_eval(c):
    # eval (Newton on the global closed form) against the two-term origin
    # series where |a1| t^k = 1e-2 and 1e-3: the residual stays within the
    # stated bound, falls like (a1 t^k)^2, and its Richardson coefficient is
    # the first omitted term's 1/(4r)
    r, k, A, a1 = _origin_constants(c)
    gs = (1e-2, 1e-3)
    ts = [(g / abs(a1)) ** (1 / k) for g in gs]
    sol = P.solve_poincare(c, t_min=min(ts))
    res = []
    for g, t in zip(gs, ts):
        f_series, bound = sol.local_series(t)
        assert f_series == pytest.approx(A * t ** -r * math.exp(-g), rel=1e-13)
        f = sol.eval(t)[0]
        res.append((f - f_series) / f)
        assert 0 < res[-1] <= bound + 1e-14
    assert 1.8 <= _order(gs[1], gs[0], res[1], res[0]) <= 2.2
    # res = C g^2 + D g^3: Richardson's C from both points
    r1, r2 = res[0] / gs[0] ** 2, res[1] / gs[1] ** 2
    coeff = (r2 * gs[0] - r1 * gs[1]) / (gs[0] - gs[1])
    assert 4 * r * coeff == pytest.approx(1.0, rel=1e-2)


@pytest.mark.parametrize("c", [-1e-6, -1e-3, -0.1, -10.0, -1e6])
def test_cusp_jet_against_eval(c):
    # eval against the jet f0 (1 - x^3/(3a)) at sigma^2/t0 = 1e-4 and 1e-3:
    # within the stated bound, of Richardson order 5 in x (6 once x > 4.5,
    # at c = -1e6), and within 5% of the omitted x^5/(10a^2) + x^6/(45a^2)
    a = -c
    sol = P.solve_poincare(c, t_min=1e-7)
    t0 = sol.t0
    xs, res = [], []
    for s in (1e-4, 1e-3):
        t = t0 * (1 + s)
        f_series, bound = sol.local_series(t)
        y = math.log1p((t - t0) / t0)
        xs.append(math.sqrt(2 * a * y * (1 + y / 2)))
        f = sol.eval(t)[0]
        res.append((f - f_series) / f)
        assert 0 < res[-1] <= bound + 1e-14
        x = xs[-1]
        assert res[-1] / (x ** 5 / 10 + x ** 6 / 45) * a * a == pytest.approx(1.0, rel=5e-2)
    assert 4.8 <= _order(*xs, *res) <= 6.2


def test_local_series_at_c0(sol0):
    for t in (1e-3, 0.5):
        assert sol0.local_series(t) == (2 - 2 * math.sqrt(t), 0.0)


def test_eval_outside_range(sol0):
    with pytest.raises(DomainError):
        sol0.eval(1e-5)
    with pytest.raises(DomainError):
        sol0.eval(1.0)


def test_bootstrap_consistency():
    sol = P.solve_poincare(0.7, t_min=0.5)
    for h in (1e-2, 1e-3):
        err = abs(sol.eval(1 - h)[0] - P.boundary_taylor_value(0.7, h))
        assert err <= 5 * h ** 5


def test_event_uniqueness(solm):
    # exactly one sign change detected per run
    g = -0.1 + solm.t_grid / solm.f_grid ** 3
    assert np.sum(np.diff(np.sign(g)) != 0) <= 1


def test_radial_length_c0():
    rl = P.radial_length(RadialProfile.sqrt_poincare(), 0.9, 0.01)
    assert math.isfinite(rl.integral) and not rl.divergent
    assert rl.exponent_fit == pytest.approx(-0.5, abs=0.05)


def test_radial_length_c1(sol1):
    prof = RadialProfile.poincare_numeric(sol1)
    rl = P.radial_length(prof, 0.9, 0.05)
    assert math.isfinite(rl.integral) and not rl.divergent
    assert rl.exponent_fit == pytest.approx(3 * P.rho(1.0), abs=0.05)


class _OneMinusT:
    """Bergman-type f = 1 - t: radial_length needs only ``eval``."""

    @staticmethod
    def eval(t):
        return 1.0 - t, -np.ones_like(t), np.zeros_like(t)


def test_radial_length_smooth_profile():
    # smooth positive integrand for r < 1
    rl = P.radial_length(_OneMinusT(), 0.6, 0.3)
    assert math.isfinite(rl.integral) and rl.integral > 0
    assert not rl.divergent


def test_poincare_numeric_profile_eval(sol1):
    prof = RadialProfile.poincare_numeric(sol1)
    f, fp, fpp = prof.eval(0.5)
    # triple satisfies the unit Monge-Ampere relation
    w = 0.5 * fp * (f * fp + 0.5 * f * fpp - 0.5 * fp * fp)
    assert w == pytest.approx(1.0, rel=1e-9)


def test_solve_validates_inputs():
    with pytest.raises(DomainError):
        P.solve_poincare(0.0, t_min=0.0)


@pytest.mark.parametrize("kwargs", [
    dict(c=math.nan), dict(c=math.inf), dict(c=-math.inf),
    dict(c=0.5, t_min=math.nan), dict(c=0.5, t_min=math.inf), dict(c=0.5, t_min=-math.inf),
    dict(c=0.5, t_min=-1e-3), dict(c=0.5, t_min=1.0),
])
def test_solve_rejects_nonfinite(kwargs):
    with pytest.raises(DomainError):
        P.solve_poincare(**kwargs)


@pytest.mark.parametrize("c", [-1e9, -1e8, -1e6, -1.0, -0.3, -0.1, -1e-2, -1e-3, -1e-4,
                               -1e-6, -1e-9])
def test_cusp_t0_matches_mpmath(c):
    # log t0 = -int_0^inf x dx / (x^3 + x^2/2 - c): the flow from x = infinity
    # at t = 1 down to the cusp x = 0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        cm = mpmath.mpf(c)
        # the integrand turns over near x ~ sqrt(-2c), or (-c)^(1/3) for large |c|
        s = mpmath.sqrt(-2 * cm) if c > -1 else mpmath.cbrt(-cm)
        pts = [0] + [s * mpmath.mpf(10) ** k for k in range(-3, 4)] + [mpmath.inf]
        ref = mpmath.exp(-mpmath.quad(lambda x: x / (x ** 3 + x ** 2 / 2 - cm), pts))
        sol = P.solve_poincare(c, t_min=1e-12)
        assert sol.t0 is not None
        assert abs(mpmath.mpf(sol.t0) / ref - 1) <= 1e-14
    # the cusp row: f(t0) = (t0/-c)^(1/3), f'(t0) = 0
    assert sol.t_grid[0] == sol.t0
    assert sol.f_grid[0] == pytest.approx((sol.t0 / -c) ** (1 / 3), rel=1e-15)
    assert sol.fp_grid[0] == 0.0


def test_cusp_shift_within_one_ulp():
    # e < 0 with e (e - 1/2)^2 = c against a 50-digit root, over the whole
    # float range and densely where (e - 1/2)^2 - c/e would cancel (c between
    # -510 and -1e-17, e -> 0)
    mpmath = pytest.importorskip("mpmath")
    grid = [*-np.logspace(-300, 308, 609), *-np.logspace(-17, math.log10(510), 1000),
            -sys.float_info.max]
    with mpmath.workdps(50):
        for c in grid:
            c = float(c)
            e = P._cusp_shift(c)
            ref = mpmath.mpf(e)
            for _ in range(8):
                ref -= (ref * (ref - 0.5) ** 2 - c) / ((ref - 0.5) * (3 * ref - 0.5))
            assert abs(mpmath.mpf(e) - ref) <= math.ulp(e), c


@pytest.mark.parametrize("c", [-1e50, -1.7976931348623157e308])
def test_solve_rejects_cusp_at_one(c):
    # 1 - t0 ~ 1.21 |c|^(-1/3) is below the rounding of 1
    with pytest.raises(DomainError, match="t0 rounds to 1"):
        P.solve_poincare(c)


@pytest.mark.parametrize("c, t_min", [(1e300, 1e-3), (1e20, 1e-3), (4e4, 1e-3), (2e4, 1e-4)])
def test_solve_rejects_c_whose_flow_overflows(c, t_min):
    # f grows at least like t^-rho(c); the bootstrap value, the flow or f^3
    # in Psi leaves float64 before t_min, without a RuntimeWarning.
    # At c = 4e4 the lower bound on f stays in range, and the residual
    # overflows after the solve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(f"c = {c!r} is too large for t_min")):
            P.solve_poincare(c, t_min=t_min)
        if c == 4e4:  # a little below, the flow is still solved
            sol = P.solve_poincare(3e4, t_min=t_min)
            assert np.all(np.isfinite(sol.f_grid)) and sol.psi_residual_max <= 1e-8


def test_poincare_cli_huge_c_is_config_error(tmp_path, capsys):
    from kepler_balance.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["poincare", "--c", "1e300", "--out", str(tmp_path / "f.csv")])
    assert code == 1
    assert "c = 1e+300" in capsys.readouterr().err


def test_very_negative_c_still_terminates_at_cusp(tmp_path, capsys):
    from kepler_balance.cli import main

    sol = P.solve_poincare(-1e9)
    assert sol.t0 is not None and 1 - 1e-3 > sol.t0 > 0.998
    assert main(["poincare", "--c=-1e9", "--out", str(tmp_path / "f.csv")]) == 3
    # past t = 1 - 1e-3 the cusp row is the only row
    sol = P.solve_poincare(-2e9)
    assert sol.t0 is not None and 1 > sol.t0 > 1 - 1e-3
    assert list(sol.t_grid) == [sol.t0]
    out = tmp_path / "g.csv"
    assert main(["poincare", "--c=-2e9", "--out", str(out)]) == 3
    assert len(out.read_text().splitlines()) == 2


def _reference_solve(c, t_min, method="RK45", rtol=1e-12, atol=1e-15):
    """The flow f' = -(f/t) rho(c + t/f^3) in tau = log t, solved by scipy
    from the boundary Taylor value at t = 1 - 1e-3."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    h0 = 1e-3
    f_start = P.boundary_taylor_value(c, h0)

    def rhs(tau, y):
        g = c + math.exp(tau) / y[0] ** 3
        return [-y[0] * P.rho(g if g > 0.0 else 0.0)]

    def cusp(tau, y):
        return c + math.exp(tau) / y[0] ** 3

    cusp.terminal = True
    cusp.direction = -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # DOP853 raises an rtol below 100 eps to that
        return solve_ivp(rhs, (math.log(1.0 - h0), math.log(t_min)), [f_start],
                         method=method, rtol=rtol, atol=atol, dense_output=True,
                         events=[cusp] if c < 0 else None, max_step=0.25)


@pytest.mark.parametrize("c", [0.0, 0.5, 1.2, 1.9, -0.1])
def test_integrator_vs_scipy_rk45(c):
    ref = _reference_solve(c, 1e-4)
    sol = P.solve_poincare(c, t_min=1e-4)
    # the end value: f(t_min), or f(t0) at the cusp
    assert sol.f_grid[0] == pytest.approx(ref.y[0][-1], rel=1e-10)
    lo = sol.t0 if c < 0 else sol.t_min_reached
    taus = np.linspace(math.log(lo), math.log(1 - 1e-3), 52)[1:-1]
    f = sol.eval(np.exp(taus))[0]
    assert np.max(np.abs(f / ref.sol(taus)[0] - 1.0)) <= 1e-9


def test_cusp_location_vs_rk45():
    sol = P.solve_poincare(-0.1, t_min=1e-4)
    rk45 = math.exp(_reference_solve(-0.1, 1e-4).t_events[0][0])
    # RK45 at rtol 1e-12 finds t0 only to ~3e-11 here, and its t0 moves by
    # 4e-11 when its rtol is scaled by 1.0001: 1e-10 is its noise
    assert sol.t0 == pytest.approx(rk45, rel=1e-10)


@pytest.mark.parametrize("c", [-0.1, -0.27])
def test_cusp_location_vs_dop853(c):
    sol = P.solve_poincare(c, t_min=1e-4)
    ref = _reference_solve(c, 1e-4, method="DOP853", rtol=1e-14, atol=1e-20)
    assert sol.t0 == pytest.approx(math.exp(ref.t_events[0][0]), rel=2e-11)
