import json
import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from kepler_balance.errors import DomainError, NormalizationError, TruncationError
from kepler_balance.poincare import solve_poincare
from kepler_balance.profiles import (
    RadialProfile,
    density_in_L,
    germ_residual,
    m_delta_from_v,
    monge_ampere_density,
    phi_v,
    phi_v_l_coefficients,
    phi_v_l_series,
)
from kepler_balance.series import PowerLogSeries as S

ALL_CATALOG = [
    RadialProfile.sqrt_poincare(),
    RadialProfile.explicit_n(3),
    RadialProfile.explicit_n(5),
    RadialProfile.phi_v_candidate(1),
    RadialProfile.constant_one(),
]
CATALOG_IDS = ["sqrt_poincare", "explicit_n3", "explicit_n5", "phi_v_candidate", "constant_one"]


def test_eval_sqrt_poincare_spot():
    assert RadialProfile.sqrt_poincare().eval(0.25) == (1.0, -2.0, 4.0)


def test_eval_constant_one():
    assert RadialProfile.constant_one().eval(0.5) == (1.0, 0.0, 0.0)


def test_boundary_normalization():
    # kinds with f(1) = 0: value -> 0 and f' -> -1 at t -> 1-
    for p in ALL_CATALOG[:4]:
        f, fp, _ = p.eval(1 - 1e-9)
        assert abs(f) < 1e-8
        assert fp == pytest.approx(-1.0, abs=1e-7)


@pytest.mark.parametrize("p", ALL_CATALOG, ids=CATALOG_IDS)
def test_derivatives_match_finite_differences(p):
    ts = np.linspace(0.1, 0.9, 7)
    f, fp, fpp = p.eval(ts)
    h = 1e-6
    fd1 = (p.eval(ts + h)[0] - p.eval(ts - h)[0]) / (2 * h)
    fd2 = (p.eval(ts + h)[0] - 2 * f + p.eval(ts - h)[0]) / h ** 2
    scale1 = np.maximum(np.abs(fd1), 1e-3)
    scale2 = np.maximum(np.abs(fd2), 1e-3)
    assert np.max(np.abs(fp - fd1) / scale1) < 1e-6
    assert np.max(np.abs(fpp - fd2) / scale2) < 1e-3  # fd2 itself is O(h^2 / h^2 eps)


def test_eval_domain_errors():
    p = RadialProfile.sqrt_poincare()
    with pytest.raises(DomainError):
        p.eval(1.5)
    with pytest.raises(DomainError):
        p.eval(-0.1)


def test_monge_ampere_identities_grid():
    grid = np.linspace(1e-6, 1 - 1e-6, 1000)
    assert np.max(np.abs(monge_ampere_density(RadialProfile.sqrt_poincare(), 2, grid) - 1)) <= 1e-12
    for n in range(2, 7):
        g = RadialProfile.explicit_n(n)
        assert np.max(np.abs(monge_ampere_density(g, n, grid) - 1)) <= 1e-12


def test_monge_ampere_candidate_value():
    # 16t(1+t)(1+2t+5t^2)/(1+3t)^4 at t = 0.1
    w = monge_ampere_density(RadialProfile.phi_v_candidate(1), 2, 0.1)
    expect = 16 * 0.1 * 1.1 * (1 + 0.2 + 0.05) / 1.3 ** 4
    assert w == pytest.approx(expect, rel=1e-13)
    assert w == pytest.approx(0.77028, abs=5e-6)


def test_phi_v_values():
    assert phi_v(1, 0.3) == pytest.approx(1.0, abs=1e-15)
    assert phi_v(9, 0.25) == pytest.approx(5.0 / 3.0, rel=1e-14)
    # t -> 1: phi -> 1 for any v
    for v in (0, 0.5, 2, 9, -4):
        assert phi_v(v, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_phi_v_branch_symmetry_and_v0():
    # +sqrt(v) / -sqrt(v) symmetry is automatic in the closed form; check the
    # trig/taylor/power branches glue continuously across v = 0
    ts = np.linspace(0.05, 0.95, 9)
    for v in (1e-6, -1e-6):
        a = phi_v(v, ts)
        b = phi_v(0, ts)
        assert np.max(np.abs(a - b)) < 1e-6
    v0_exact = ts ** -0.25 * (1 + 0.25 * np.log(ts))
    assert np.max(np.abs(phi_v(0, ts) - v0_exact)) < 1e-14


def test_phi_v_sqrt_branch_agreement():
    # value invariant under sqrt(v) -> -sqrt(v): compare power form against
    # the explicit two-power formula with the opposite root
    for v in (0.5, 1.0, 4.0, 9.0):
        w = math.sqrt(v)
        for t in np.linspace(0.1, 0.9, 9):
            ref = ((1 - w) * t ** ((-1 - w) / 4) - (1 + w) * t ** ((-1 + w) / 4)) / (-2 * w)
            assert phi_v(v, t) == pytest.approx(ref, rel=1e-14)


def test_phi_v_flat_at_one():
    # |phi_v(1-h) - 1| <= C h^2 with stable fitted C (a_1 = 0)
    for v in (0.5, 4, 9):
        cs = []
        for h in (1e-3, 1e-4):
            cs.append(abs(phi_v(v, 1 - h) - 1.0) / h ** 2)
        assert cs[0] == pytest.approx(cs[1], rel=0.05)


def test_m_delta():
    assert m_delta_from_v(1) == (0, F(1, 2))
    assert m_delta_from_v(9) == (1, F(0))
    assert m_delta_from_v(0) == (0, F(1, 4))
    assert m_delta_from_v(4) == (0, F(3, 4))


def test_phi_v_l_coefficients():
    assert phi_v_l_coefficients(1, 3) == [1, 0, 0, 0]
    for v in (0, F(1, 4), 2, 9):
        assert phi_v_l_coefficients(v, 1)[1] == 0  # a_1 always vanishes
    assert phi_v_l_coefficients(9, 2)[2] == F(1, 4)
    assert phi_v_l_coefficients(0, 2)[2] == F(-1, 32)  # (1-j)/(4^j j!) at j=2


def test_density_in_L_of_plain_L():
    phi = density_in_L(S.variable(10), 2)
    # e^L: constant term 1
    assert phi.coeff(0) == 1
    assert phi.coeff(1) == 1
    assert phi.coeff(2) == F(1, 2)


def test_density_in_L_germ_chain():
    # germ chain with generic A1, A2: these f-germ coefficients produce
    # phi = 1 - (2 A1/3) L + ((4 A1^2 + A1 - 6 A2)/12) L^2 + ...
    A1, A2 = F(5, 7), F(1, 3)
    f = S({(F(1), 0): F(1),
           (F(2), 0): -(2 * A1 + 3) / 12,
           (F(3), 0): (4 * A1 ** 2 + 6 * A1 + 3 - 12 * A2) / 72}, 3)
    phi = density_in_L(f, 2)
    assert phi.coeff(0) == 1
    assert phi.coeff(1) == -2 * A1 / 3
    assert phi.coeff(2) == (4 * A1 ** 2 + A1 - 6 * A2) / 12


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(2, 7))
def test_density_in_L_of_explicit_n(m, n):
    # W_n[g_m] = t^(1 - n/m) = exp(-(1 - n/m) L), exactly in rationals
    w = density_in_L(RadialProfile.explicit_n(m).l_series(14), n)
    want = (S.variable(w.order) * F(n - m, m)).exp()
    assert w.is_rational() and w.order == want.order == 13
    assert w.terms == want.terms


@pytest.mark.parametrize("n", range(2, 7))
def test_density_in_L_homogeneity(n):
    # W_n[s f] = s^(n+1) W_n[f] for a non-integral float s, exactly
    s = 1.3
    f = RadialProfile.phi_v_candidate(F(1, 4)).l_series(10)
    w, ws = density_in_L(f, n), density_in_L(f * F(s), n)
    assert ws.order == w.order and ws.terms == (w * F(s) ** (n + 1)).terms
    # and on the profile's own scale
    p, ps = RadialProfile.explicit_n(3), RadialProfile.explicit_n(3, scale=s)
    assert density_in_L(ps.l_series(10), n).terms == (
        density_in_L(p.l_series(10), n) * F(s) ** (n + 1)).terms


@pytest.mark.parametrize("n", range(2, 7))
def test_density_in_L_of_constant_is_zero(n):
    for f in (S.const(F(3), 8), RadialProfile.constant_one().l_series(8)):
        w = density_in_L(f, n)
        assert not w.terms and w.order >= 6


@pytest.mark.parametrize("n", [1, 0, -2, 2.5, 3.0, F(5, 2), "3", None])
def test_density_in_L_rejects_dimension(n):
    with pytest.raises(DomainError, match="dimension n"):
        density_in_L(S.variable(6), n)


def test_density_in_L_matches_numeric_density_near_one():
    # coefficient extraction vs numeric W_n[f] at small L, catalog profiles
    for p in (RadialProfile.sqrt_poincare(), RadialProfile.explicit_n(3),
              RadialProfile.phi_v_candidate(1),
              RadialProfile.explicit_n(4, scale=1.3)):
        for n in range(2, 7):
            ser = density_in_L(p.l_series(12), n)
            for L in (1e-3, 1e-2):
                t = math.exp(-L)
                assert ser.evaluate(L) == pytest.approx(
                    monge_ampere_density(p, n, t), abs=1e-8), (p, n, L)


def test_sqrt_poincare_l_series_vs_density():
    # re-expanding 2 - 2 sqrt(t) at t = 1 gives density identically 1
    ser = density_in_L(RadialProfile.sqrt_poincare().l_series(12), 2)
    assert ser.coeff(0) == 1
    assert all(ser.coeff(j) == 0 for j in range(1, ser.order + 1))


def test_germ_residuals():
    assert germ_residual(RadialProfile.sqrt_poincare().l_series(10), 1, 8) == [0] * 9
    # f = L against v = 0: nonzero at some order <= 1
    taylor = RadialProfile.taylor_at_one([1.0])
    res = germ_residual(taylor.l_series(3), 0, 1)
    assert any(abs(float(r)) > 0 for r in res)
    # balanced candidate matches its germ through order 3, deviates at 4
    cand = RadialProfile.phi_v_candidate(1)
    assert germ_residual(cand.l_series(5), 1, 3) == [0, 0, 0, 0]
    assert germ_residual(cand.l_series(6), 1, 4)[4] != 0
    with pytest.raises(TruncationError):
        germ_residual(cand.l_series(5), 1, 5)


def test_taylor_profile_validity_window():
    p = RadialProfile.taylor_at_one([1.0, -0.25])
    p.eval(0.75)  # L ~ 0.29 ok
    with pytest.raises(DomainError):
        p.eval(0.3)  # L ~ 1.2 beyond the trusted window


def test_taylor_profile_normalization():
    p = RadialProfile.taylor_at_one([2.0, 1.0])
    f, fp, _ = p.eval(1 - 1e-8)
    assert fp == pytest.approx(-1.0, abs=1e-6)
    with pytest.raises(NormalizationError):
        RadialProfile.taylor_at_one([0.0, 1.0])


@pytest.mark.parametrize("n", [2.5, 3.7, math.nan, 1, "3"])
def test_explicit_n_requires_integer_n(n):
    # n used to be truncated silently (2.5 ran as n = 2)
    with pytest.raises(DomainError, match="integer n >= 2"):
        RadialProfile.explicit_n(n)
    with pytest.raises(DomainError, match="integer n >= 2"):
        RadialProfile("explicit_n", {"n": n})


def test_explicit_n_accepts_integral_float():
    assert RadialProfile.explicit_n(3.0) == RadialProfile.explicit_n(3)
    assert type(RadialProfile.explicit_n(3.0).params["n"]) is int
    # the stored n must be an int: a float 3.0 kept as is broke l_series
    with pytest.raises(DomainError, match="integer n >= 2"):
        RadialProfile("explicit_n", {"n": 3.0})


@pytest.mark.parametrize("coeffs", [1, 1.5, "1;0", [], [1.0, "x"], None])
def test_taylor_at_one_requires_a_list_of_numbers(coeffs):
    with pytest.raises(DomainError, match="coeffs"):
        RadialProfile.taylor_at_one(coeffs)
    with pytest.raises(DomainError, match="coeffs"):
        RadialProfile.from_json({"kind": "taylor_at_one", "params": {"coeffs": coeffs}})


def test_json_round_trip():
    p = RadialProfile.phi_v_candidate(1)
    q = RadialProfile.from_json(p.to_json())
    assert q.kind == p.kind and q.params["v"] == 1
    r = RadialProfile.from_json('{"kind": "explicit_n", "params": {"n": 4}}')
    assert r.params["n"] == 4
    with pytest.raises(DomainError):
        RadialProfile.from_json('{"params": {}}')


def test_scale_applies_after_normalization():
    p = RadialProfile.sqrt_poincare(scale=2.0)
    f, fp, fpp = p.eval(0.25)
    assert (f, fp, fpp) == (2.0, -4.0, 8.0)


def test_eval_accepts_one_and_nothing_above():
    # quadrature nodes round to exactly 1.0, and W densities are evaluated there
    p = RadialProfile.explicit_n(3)
    assert p.eval(1.0) == (0.0, -1.0, 1.0 / 3.0)
    for t in (math.nextafter(1.0, 2.0), np.array([0.5, 1.0000000000000004])):
        with pytest.raises(DomainError, match=r"\(0, 1\]"):
            p.eval(t)


@pytest.mark.parametrize("v", [0, 1, 2.5, 49, 60])
def test_candidate_eval_at_one(v):
    # f = (1 - t) g keeps f' and f'' finite where f'/f has its pole, so a W
    # density of the candidate has finite values at nodes that round to 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, fp, fpp = RadialProfile.phi_v_candidate(v, scale=3.0).eval(1.0)
        fa, fpa, fppa = RadialProfile.phi_v_candidate(v).eval(np.array([0.5, 1.0]))
    assert f == 0.0 and fp == pytest.approx(-3.0, rel=1e-15)
    assert fpp == pytest.approx(1.5, rel=1e-15)
    assert (fa[1], fpa[1]) == (0.0, pytest.approx(-1.0, rel=1e-15))
    assert fppa[1] == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("c, t_min", [(0.5, 0.5), (-5.0, 1e-4)])
def test_poincare_numeric_json_round_trip(c, t_min):
    # t_min travels with c; at c = -5 the flow ends at its cusp t0 > t_min
    sol = solve_poincare(c, t_min=t_min)
    back = RadialProfile.from_json(RadialProfile.poincare_numeric(sol).to_json())
    sol2 = back.params["solution"]
    assert sol2.t_min_reached == sol.t_min_reached and sol2.t0 == sol.t0
    assert (sol.t0 is None) == (c > 0)
    assert np.array_equal(sol2.t_grid, sol.t_grid)


@pytest.mark.parametrize("c", [0.0, 1.0, -0.1])
def test_poincare_numeric_l_series_density_is_one(c):
    # W[f] = 1: through L^3 the boundary series of W is exactly 1, 0, 0, 0
    p = RadialProfile.poincare_numeric(solve_poincare(c, t_min=0.5))
    assert p.l_series(4).is_rational()
    w = density_in_L(p.l_series(4), 2)
    assert w.order == 3
    assert w.terms == {(0, 0): 1}


@pytest.mark.parametrize("kind, params, key", [
    ("explicit_n", {"n": 2, "m": 3}, "m"),
    ("sqrt_poincare", {"n": 2}, "n"),
    ("phi_v_candidate", {"v": 1, "n": 2}, "n"),
    ("taylor_at_one", {"coeffs": [1.0], "c": 1}, "c"),
    ("poincare_numeric", {"c": 1, "tol": 1e-12}, "tol"),
    ("constant_one", {"v": 1}, "v"),
], ids=["explicit_n-m", "sqrt_poincare-n", "phi_v_candidate-n", "taylor_at_one-c",
        "poincare_numeric-tol", "constant_one-v"])
def test_from_json_rejects_unknown_keys(kind, params, key):
    # a misspelt or removed key fails loudly, as a dict and as JSON text
    spec = {"kind": kind, "params": params}
    for payload in (spec, json.dumps(spec)):
        with pytest.raises(DomainError, match=f"{kind!r} takes no parameter {key!r}"):
            RadialProfile.from_json(payload)


def test_from_json_accepts_every_documented_key():
    specs = [("explicit_n", {"n": 3}), ("sqrt_poincare", {}), ("phi_v_candidate", {"v": 2}),
             ("taylor_at_one", {"coeffs": [1.0, 0.5]}),
             ("poincare_numeric", {"c": 0.5, "t_min": 0.5}), ("constant_one", {})]
    for kind, params in specs:
        p = RadialProfile.from_json({"kind": kind, "params": {**params, "scale": 2.0}})
        assert p.scale == 2.0, kind


@pytest.mark.parametrize("make", [
    lambda: RadialProfile.explicit_n(2, scale=math.nan),
    lambda: RadialProfile.phi_v_candidate(2, scale=math.inf),
    lambda: RadialProfile.from_json({"kind": "constant_one", "params": {"scale": "-inf"}}),
    lambda: RadialProfile.taylor_at_one([1.0, math.nan]),
    lambda: RadialProfile.taylor_at_one([1.0, -math.inf]),
], ids=["scale-nan", "scale-inf", "json-scale-minus-inf", "coeff-nan", "coeff-inf"])
def test_profile_rejects_non_finite_numbers(make):
    # the boundary series holds the exact Fraction of every scale and coefficient
    with pytest.raises(DomainError):
        make()


def test_taylor_l_series_is_exact():
    p = RadialProfile.taylor_at_one([2.0, -0.5, 0.1], scale=0.3)
    ser = p.l_series(5)
    assert ser.is_rational()
    assert ser.terms == {(1, 0): F(0.3), (2, 0): -F(0.3) / 4, (3, 0): F(0.1 / 2.0) * F(0.3)}
