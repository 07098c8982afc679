import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from kepler_balance import kernel as K
from kepler_balance.errors import (
    CapabilityError,
    ConvergenceBudgetError,
    DivergenceError,
    DomainError,
    SignedDensityWarning,
)
from kepler_balance.poincare import solve_poincare
from kepler_balance.profiles import RadialProfile, monge_ampere, monge_ampere_density, phi_v
from kepler_balance.quadrature import nodes_up_to
from kepler_balance.series import PowerLogSeries


def test_dimension_count():
    assert K.dimension_count(3, 2) == 7
    assert K.dimension_count(0, 2) == 1
    assert K.dimension_count(2, 3) == 9
    assert all(K.dimension_count(k, 2) == 2 * k + 1 for k in range(20))
    with pytest.raises(DomainError):
        K.dimension_count(-1, 2)


def test_moments_constant_one():
    dens = K.associated_density(RadialProfile.constant_one())
    assert dens.label == "f[constant_one]"
    for k in range(11):
        c, err = dens.moment(k)
        assert c == pytest.approx(1.0 / (k + 1), rel=1e-13)
        assert err <= 1e-12


def test_moment_spot_values():
    assert K.phi_v_density(9).moment(1)[0] == pytest.approx(0.6, rel=1e-12)
    assert K.phi_v_density(0).moment(0)[0] == pytest.approx(8 / 9, rel=1e-12)


@pytest.mark.parametrize("v", [0, 0.5, 1, 4, 9])
def test_moments_match_closed_form(v):
    dens = K.phi_v_density(v)
    for k in range(dens.k_min, 21):
        cf = float(K.moment_phi_v_closed(v, k))
        assert dens.moment(k)[0] == pytest.approx(cf, rel=1e-10)


def test_moment_monotone_decreasing():
    for v in (0, 1, 9):
        dens = K.phi_v_density(v)
        cs = [dens.moment(k)[0] for k in range(dens.k_min, 16)]
        assert all(c > 0 for c in cs)
        assert all(a > b for a, b in zip(cs, cs[1:]))


def test_k_min_detection_and_divergence():
    assert K.phi_v_density(9).k_min == 1
    assert K.phi_v_density(1).k_min == 0
    with pytest.raises(DivergenceError) as exc:
        K.phi_v_density(9).moment(0)
    assert exc.value.k_min == 1
    with pytest.raises(DivergenceError):
        K.moment_phi_v_closed(9, 0)


def test_moment_closed_form_values():
    assert K.moment_phi_v_closed(1, 2) == F(1, 3)
    assert K.moment_phi_v_closed(9, 1) == F(3, 5)
    assert K.moment_phi_v_closed(0, 0) == F(8, 9)
    with pytest.raises(CapabilityError):
        K.moment_phi_v_closed(-1, 0)


def test_negative_v_density_flagged():
    # the flag comes from the node values; building the density does not warn
    K._PHI_V_DENSITIES.pop(-4.0, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SignedDensityWarning)
        dens = K.phi_v_density(-4)
    assert dens.sign_changing
    assert all(np.isfinite(dens.moment(k)[0]) for k in range(6))
    with pytest.warns(SignedDensityWarning, match="phi_-4"):
        K.balanced_defect(RadialProfile.phi_v_candidate(1), 2, 4.0, 0.5, density=dens)


@pytest.mark.parametrize("v, flagged", [(0, True), (0.25, True), (0.9, True),
                                        (1, False), (4, False)])
def test_phi_v_below_one_flagged(v, flagged, monkeypatch):
    # phi_v is negative near t = 0 for every v < 1: phi_0.9(1e-8) = -212.2;
    # the flag is read off the node values, and the defect warns once,
    # naming the density
    assert (phi_v(v, 1e-8) < 0) == flagged
    monkeypatch.setattr(K, "_PHI_V_DENSITIES", {})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dens = K.phi_v_density(v)
        assert dens.sign_changing == flagged
        assert not caught
        K.balanced_defect(RadialProfile.phi_v_candidate(v), 2, 4.0, 0.5)
    signed = [w for w in caught if issubclass(w.category, SignedDensityWarning)]
    assert len(signed) == flagged
    assert all(f"phi_{v}" in str(w.message) for w in signed)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(2, 7))
def test_monge_ampere_density_of_explicit_n(m, n):
    # W_n[g_m] = t^(1 - n/m): its exponent p0 = 1 - n/m fixes k_min, its
    # moments are c_k = 1/(k + 2 - n/m), and F = sum_k N_n(k) (k + n - n/m) t^k
    p = RadialProfile.explicit_n(m)
    grid = np.concatenate([np.geomspace(1e-12, 0.01, 40), np.linspace(0.01, 0.99, 99)])
    w = monge_ampere_density(p, n, grid)
    assert np.max(np.abs(w / grid ** (1 - n / m) - 1)) <= 1e-14
    dens = K.associated_density(p, n)
    assert dens.k_min == max(0, math.floor(F(n, m) - 2) + 1)
    with pytest.raises(DivergenceError):
        dens.moment(dens.k_min - 1)
    for k in range(dens.k_min, dens.k_min + 40):
        assert abs(dens.moment(k)[0] * (k + 2 - n / m) - 1) <= 1e-14, k
    for t in (0.1, 0.5, 0.9):
        ref = math.fsum(K.dimension_count(k, n) * (k + n - n / m) * t ** k for k in range(800))
        F_t = K.kernel_series(dens, n, t).value
        assert abs(F_t - ref) <= 1e-12 * ref, t
    assert dens._level == K._MIN_LEVEL
    assert not dens.sign_changing


@pytest.mark.parametrize("n", [2.9, 3.7, 2.0, "2", 1, 0, -2])
def test_non_integer_or_small_n_rejected(n):
    # int(n) would truncate 2.9 to a W_2 and 3.7 to a W_3
    p = RadialProfile.explicit_n(3)
    with pytest.raises(DomainError, match=f"n = {n!r}"):
        monge_ampere(n, 0.5, 1.0, -1.0, 0.5)
    with pytest.raises(DomainError, match=f"n = {n!r}"):
        monge_ampere_density(p, n, 0.5)
    with pytest.raises(DomainError, match=f"n = {n!r}"):
        K.associated_density(p, n)


def test_density_exponent_worked_out_or_refused():
    # W_2 of the Poincare solution is 1 (p0 = 0); no other W exponent is known
    sol = solve_poincare(0.0, t_min=0.5)
    dens = K.associated_density(RadialProfile.poincare_numeric(sol), 2)
    assert dens.k_min == 0 and dens.label == "W_2[poincare_numeric]"
    for p, n in ((RadialProfile.poincare_numeric(sol), 3),
                 (RadialProfile.taylor_at_one([1.0]), 2)):
        with pytest.raises(CapabilityError, match="exponent"):
            K.associated_density(p, n)


def test_kernel_layer_takes_a_density():
    prof = RadialProfile.constant_one()
    with pytest.raises(CapabilityError, match="RadialProfile"):
        K.kernel_series(prof, 2, 0.5)
    with pytest.raises(CapabilityError, match="RadialProfile"):
        K.balanced_defect(prof, 2, 4.0, 0.5, density=prof)
    with pytest.raises(CapabilityError, match="RadialProfile"):
        K.estimate_c(prof, 2, density=prof)


def test_kernel_series_examples():
    dens = K.associated_density(RadialProfile.constant_one())
    assert K.kernel_series(dens, 2, 0.5).value == pytest.approx(20.0, rel=1e-11)
    assert K.kernel_series(dens, 2, 0.0).value == pytest.approx(1.0, rel=1e-13)
    ke = K.kernel_series(K.phi_v_density(9), 2, 0.5)
    assert ke.value == pytest.approx(K.closed_form_F_phi_v(9, 0.5), rel=1e-9)


@pytest.mark.parametrize("v", [0, 1, 9])
@pytest.mark.parametrize("t", [0.1, 0.5, 0.9, 0.99])
def test_kernel_series_vs_closed_form(v, t):
    # each path meets its target, which here is within 1% of 1e-14 F: the
    # direct terms are positive, and the one negative Lerch value,
    # -A_0 Phi(t, -1), is ~L/4 of the sum at t = 0.99, where the Kummer path runs
    ke = K.kernel_series(K.phi_v_density(v), 2, t)
    assert ke.path == ("kummer" if t == 0.99 else "direct")
    cf = K.closed_form_F_phi_v(v, t)
    assert ke.value == pytest.approx(cf, rel=1e-9)
    assert ke.tail_bound <= K._CALIBRATION_RTOL * ke.value * 1.01


def test_kernel_eval_tail_invariant():
    dens = K.phi_v_density(1)
    ke = K.kernel_series(dens, 2, 0.6)
    total = 0.0
    for k in range(2 * ke.terms_used):
        total += K.dimension_count(k, 2) / dens.moment(k)[0] * 0.6 ** k
    assert abs(total - ke.value) < ke.tail_bound


def test_kernel_series_vanishes_at_zero_when_moments_diverge():
    # for v = 9 the k = 0 moment diverges: its reciprocal vanishes, F(0) = 0
    assert K.kernel_series(K.phi_v_density(9), 2, 0.0).value == 0.0
    assert K.closed_form_F_phi_v(9, 0.0) == 0.0


@pytest.mark.parametrize("t", [0.0, 0.5, 0.95], ids=["t-zero", "direct", "kummer"])
def test_zero_moment_is_domain_error_naming_the_density(t):
    # the density's values underflow in every moment while its L-series (and
    # so the Kummer split's A_m) is fine: each path names the density
    dens = K.Density(lambda t: np.full(np.shape(t), 1e-320), 0.0, label="tiny",
                     l_series=lambda order: PowerLogSeries.const(F(1), order))
    with pytest.raises(DomainError, match="tiny: moment c_0 is 0"):
        K.kernel_series(dens, 2, t)


def test_closed_form_values():
    assert K.closed_form_F_phi_v(1, 0.5) == pytest.approx(20.0)
    assert K.closed_form_F_phi_v(1, 0.0) == pytest.approx(1.0)
    assert K.closed_form_F_phi_v(9, 0.5) == pytest.approx(18.0)
    # v=9, t=0.5: numerator t(5 - t) per m=1, delta=0
    assert K.closed_form_F_phi_v(9, 0.5) == pytest.approx(0.5 * 4.5 / 0.125)


def test_balanced_defect_candidate_grid():
    cand = RadialProfile.phi_v_candidate(1)
    dens = K.associated_density(cand, 2)
    grid = np.linspace(0.01, 0.95, 40)
    defs = K.balanced_defect(cand, 2, 4, grid, density=dens)
    assert np.max(np.abs(defs)) <= 1e-9
    assert K.balanced_defect(cand, 2, 4, 0.5, density=dens) == pytest.approx(0.0, abs=1e-10)
    assert K.balanced_defect(cand, 2, 4, 0.0, density=dens) == pytest.approx(0.0, abs=1e-10)


def test_candidate_pairs_with_phi_v():
    # W of the candidate is not finite at the nodes that round to t = 1;
    # the candidate's density is phi_v
    for v in (1, 4, 2.5):
        assert K.associated_density(RadialProfile.phi_v_candidate(v), 2) is K.phi_v_density(v)


def test_balanced_defect_at_zero_profile_is_domain_error():
    # scale 0 makes f vanish: c / f^(n+1) has no value, and the error names f(t) = 0
    zero = RadialProfile.from_json({"kind": "phi_v_candidate", "params": {"v": 2, "scale": 0}})
    with pytest.raises(DomainError, match=r"f\(t\) = 0\.0 at t = 0\.5"):
        K.defect_table(zero, 2, 4.0, [0.5])
    with pytest.raises(DomainError, match=r"f\(t\) = 0\.0"):
        K.balanced_defect(zero, 2, 4.0, 0.5)


def test_balanced_defect_sqrt_at_zero():
    assert K.balanced_defect(RadialProfile.sqrt_poincare(), 2, 4, 0.0) == pytest.approx(0.5, abs=1e-10)


def test_estimate_c():
    assert K.estimate_c(RadialProfile.phi_v_candidate(1), 2) == pytest.approx(4.0, rel=1e-15)
    assert K.estimate_c(RadialProfile.sqrt_poincare(), 2) == pytest.approx(4.0, rel=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_estimate_c_without_boundary_value_is_domain_error(n):
    # f = 1 does not vanish at t = 1: f^(n+1) F = F grows like (1-t)^-(n+1),
    # so the input has no boundary c, and no extrapolation can give one
    with pytest.raises(DomainError, match="no finite boundary value"):
        K.estimate_c(RadialProfile("constant_one"), n)


def test_estimate_c_scaling_homogeneity():
    # holding the density fixed, f -> 2f scales f^(n+1) F by 2^(n+1)
    base = K.associated_density(RadialProfile.sqrt_poincare(), 2)
    c2 = K.estimate_c(RadialProfile.sqrt_poincare(scale=2.0), 2, density=base)
    assert c2 == pytest.approx(32.0, rel=1e-15)


def _richardson_c(p, n, dens, levels=6):
    """A second path to c: f^(n+1) F at t = 1 - 0.1 2^-i, i < levels, with
    F summed by ``kernel_series``, Richardson-extrapolated in 1 - t."""
    ts = [1.0 - 0.1 * 2.0 ** -i for i in range(levels)]
    row = [p.eval(t)[0] ** (n + 1) * K.kernel_series(dens, n, t).value for t in ts]
    for j in range(1, levels):
        row = [b + (b - a) / (2.0 ** j - 1.0) for a, b in zip(row, row[1:])]
    return row[0]


@pytest.mark.parametrize("p, n, base", [
    *((RadialProfile.phi_v_candidate(v), 2, None) for v in (1, 2.5, 9)),
    (RadialProfile.sqrt_poincare(scale=1.3), 2, None),
    *((RadialProfile.explicit_n(m), m, None) for m in range(3, 7)),
    (RadialProfile.sqrt_poincare(scale=2.0), 2, RadialProfile.sqrt_poincare()),
    (RadialProfile.poincare_numeric(solve_poincare(1.0, t_min=0.5)), 2, None),
], ids=["phi_v-1", "phi_v-2.5", "phi_v-9", "sqrt-1.3", "explicit-3", "explicit-4",
        "explicit-5", "explicit-6", "sqrt-2-on-sqrt-1", "poincare-1"])
def test_estimate_c_vs_richardson(p, n, base):
    # the closed form against the boundary limit of f^(n+1) F taken numerically
    dens = K.associated_density(p if base is None else base, n)
    assert K.estimate_c(p, n, density=dens) == pytest.approx(_richardson_c(p, n, dens), rel=1e-9)


def test_estimate_c_sums_no_kernel(monkeypatch):
    # c comes from boundary data alone: no F value and no moment
    def refuse(*_args):
        raise AssertionError("estimate_c summed the kernel")

    monkeypatch.setattr(K, "kernel_series", refuse)
    monkeypatch.setattr(K.Density, "moments_block", refuse)
    assert K.estimate_c(RadialProfile.explicit_n(6), 6) == 12.0
    assert K.estimate_c(RadialProfile.phi_v_candidate(2.5), 2) == pytest.approx(4.0, rel=1e-15)


@pytest.mark.parametrize("c", [0.0, 1.0, -0.1, 0.5, 2.0])
@pytest.mark.parametrize("scale", [0.7, 1.0, 1.3])
def test_poincare_density_is_exact(c, scale):
    # the flow solves W_2[f] = 1, so W_2[s f] = s^3: F is the phi = 1 kernel
    # (1 + 3t)/(1 - t)^3 over s^3, on both paths, on all of [t_min_reached, 1)
    sol = solve_poincare(c, t_min=1e-4)
    p = RadialProfile.poincare_numeric(sol, scale)
    ts = [sol.t_min_reached] + [t for t in (0.01, 0.5, 0.9, 0.99, 1 - 1e-6, 1 - 1e-9)
                                if t > sol.t_min_reached]
    c_auto, Fs, _defects = K.defect_table(p, 2, "auto", ts)
    assert c_auto == pytest.approx(4.0, rel=1e-15)
    for t, F in zip(ts, Fs):
        assert F == pytest.approx((1 + 3 * t) / ((1 - t) ** 3 * scale ** 3), rel=1e-14), t
    with pytest.raises(DomainError, match="outside range"):
        K.defect_table(p, 2, 4.0, [sol.t_min_reached / 2])


def test_moment_determinism():
    # identical bits whether c_k is filled one k at a time, in one fill, or
    # in a short fill and then a long one
    for v in (0, 1, 2.5, 4, 9):
        p0 = (-1.0 - math.sqrt(v)) / 4.0
        by_k = K.Density(lambda t, v=v: phi_v(v, t), p0, label=f"phi_{v} by k")
        block = K.Density(lambda t, v=v: phi_v(v, t), p0, label=f"phi_{v} block")
        split = K.Density(lambda t, v=v: phi_v(v, t), p0, label=f"phi_{v} split")
        ks = range(by_k.k_min, by_k.k_min + 200)
        one_at_a_time = [by_k.moment(k) for k in ks]
        block.moments_block(ks[-1])
        split.moments_block(ks[5])
        split.moments_block(ks[-1])
        assert one_at_a_time == [block.moment(k) for k in ks], v
        assert (split._c, split._err) == (block._c, block._err), v


def test_moments_independent_of_call_order():
    # a first call that reads more moments does not change them: F at
    # t = 0.5 after F at t = 0.95 has the bits of a density that only ever
    # saw t = 0.5, and so has every c_k
    first, plain = _fresh_phi_v(7.7), _fresh_phi_v(7.7)
    K.kernel_series(first, 2, 0.95)
    assert len(first._c) > 64
    assert K.kernel_series(first, 2, 0.5) == K.kernel_series(plain, 2, 0.5)
    ks = range(first.k_min, 65)
    assert [first.moment(k) for k in ks] == [plain.moment(k) for k in ks]
    assert first._level == plain._level


def test_calibration_keeps_its_probe_pass():
    # the three probes are read off the block that fills the cache: a fresh
    # density holds exactly k_min..k_min+63 after calibrating
    dens = _fresh_phi_v(2.5)
    dens.calibrate()
    assert len(dens._c) == len(dens._err) == 64
    assert all(dens._err[i] <= K._CALIBRATION_RTOL * abs(dens._c[i]) for i in K._PROBES)


def _exact_power_moments(dens, ks):
    """Per-k reference at the density's level: math.fsum of w phi exp(k l)
    and of the level-(L-1) weights, over every node above the floor, with
    the fsum of |w phi exp(k l)| as the scale of one ulp."""
    t, w, ell, w_prev = nodes_up_to(dens._level, t_floor=dens.t_floor)
    phi = np.asarray(dens.fn(t), dtype=float)
    out = []
    for k in ks:
        power = np.exp(k * ell)
        terms = w * phi * power
        val = math.fsum(terms.tolist())
        prev = math.fsum((w_prev * phi * power).tolist())
        out.append((val, abs(val - prev), math.fsum(np.abs(terms).tolist())))
    return out


# densities built from their values alone, with no exact form: quadrature
# computes their moments

def _fresh_phi_v(v):
    p0 = (-1.0 - math.sqrt(v)) / 4.0 if v >= 0 else -0.25
    return K.Density(lambda t: phi_v(v, t), p0, label=f"phi_{v}")


def _fresh_w(p, n):
    return K.Density(lambda t: monge_ampere_density(p, n, t), K._monge_ampere_exponent(p, n),
                     label=f"W_{n}[{p.kind}]")


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda v=v: _fresh_phi_v(v), id=f"phi_{v}") for v in (0, 1, 4, 9, -0.5)),
    pytest.param(lambda: _fresh_w(RadialProfile.sqrt_poincare(), 2), id="W[sqrt_poincare]"),
    pytest.param(lambda: _fresh_w(RadialProfile.explicit_n(6), 6), id="W[explicit_n:n=6]"),
])
def test_moments_match_unflushed_reference(make):
    # every (value, err) lies within a few ulp of a per-k math.fsum over the
    # exact powers, and the blocks keep their bits whatever the fill order:
    # irregular fills, or out-of-order moment(k)
    chunked, by_k = make(), make()
    k0 = chunked.k_min
    for top in (k0 + 3, k0 + 100, k0 + 1000, k0 + 6000):
        chunked.moments_block(top)
    for k in (k0 + 700, k0 + 2, k0 + 6000, k0 + 3100):
        by_k.moment(k)
    ks = range(k0, k0 + 6001)
    assert [chunked.moment(k) for k in ks] == [by_k.moment(k) for k in ks]
    sample = [*range(k0, k0 + 200), *range(k0 + 200, k0 + 6001, 97)]
    eps = np.finfo(float).eps
    for k, (val, err, scale) in zip(sample, _exact_power_moments(chunked, sample)):
        c, e = chunked.moment(k)
        assert abs(c - val) <= 4 * eps * scale, k
        assert abs(e - err) <= 4 * eps * scale, k


@pytest.mark.parametrize("make, n", [
    pytest.param(lambda: _fresh_phi_v(2.5), 2, id="phi_2.5"),
    pytest.param(lambda: K.associated_density(RadialProfile.explicit_n(4), 4), 4,
                 id="W[explicit_n:n=4]"),
])
@pytest.mark.parametrize("t", [0.05, 0.5, 0.9])
def test_direct_sum_fill_economy(make, n, t):
    # fills are whole aligned 64-blocks: the cache ends with the block that
    # holds the last moment read
    dens = make()
    ke = K.kernel_series(dens, n, t)
    assert ke.path == "direct"
    k_start = max(0, dens.k_min - (n - 2))
    used = k_start + ke.terms_used + n - 2 - dens.k_min
    assert len(dens._c) == K._BLOCK * max(1, -(-used // K._BLOCK))


@pytest.mark.parametrize("fill", [
    lambda dens, k: dens.moments_block(k),
    lambda dens, k: dens.moment(k),
], ids=["moments_block", "moment"])
def test_moment_fill_past_cap_rejected(fill):
    # checked before any work: no calibration, no allocation
    dens = _fresh_phi_v(4)
    with pytest.raises(ConvergenceBudgetError):
        fill(dens, K.HARD_TERM_CAP + 1)
    assert len(dens._c) == 0 and dens._level is None


def test_direct_sum_fills_stop_at_cap(monkeypatch):
    # with the cap lowered to 300, t = 0.89 passes the t^K <= 1e-14
    # pre-check (K ~ 276) but n = 4 needs more terms: the sum fails without
    # filling any moment past the cap, and the last block is cut there
    monkeypatch.setattr(K, "HARD_TERM_CAP", 300)
    dens = K.associated_density(RadialProfile.explicit_n(4), 4)
    with pytest.raises(ConvergenceBudgetError):
        K.kernel_series(dens, 4, 0.89)
    assert dens.k_min + len(dens._c) - 1 == 300


@pytest.mark.parametrize("n", [1, 0, -3])
@pytest.mark.parametrize("t", [0.0, 0.5])
def test_kernel_series_rejects_n_below_2(n, t):
    with pytest.raises(DomainError):
        K.kernel_series(K.phi_v_density(1), n, t)


@pytest.mark.parametrize("n", [2.0, 2.5, "2"])
def test_kernel_series_rejects_non_integer_n(n):
    # a dimension count needs an integer n: DomainError, not math.comb's TypeError
    with pytest.raises(DomainError, match="integer"):
        K.kernel_series(K.phi_v_density(1), n, 0.5)
    assert K.kernel_series(K.phi_v_density(1), np.int64(2), 0.5).value == pytest.approx(20.0)


@pytest.mark.parametrize("v", [1, 4, 2.5])
def test_kernel_series_near_boundary(v):
    dens = K.phi_v_density(v)
    for t in (0.99, 0.999):
        cf = K.closed_form_F_phi_v(v, t)
        assert K.kernel_series(dens, 2, t).value == pytest.approx(cf, rel=1e-9)
        # the direct path reads ~39k moments at t = 0.999
        assert K._kernel_direct(dens, 2, t).value == pytest.approx(cf, rel=1e-9)


@pytest.mark.parametrize("v", [1, 4, 2.5])
def test_moments_large_k_match_closed_form(v):
    dens = K.phi_v_density(v)
    for k in (10 ** 3, 10 ** 4, 5 * 10 ** 4):
        cf = float(K.moment_phi_v_closed(v, k))
        assert dens.moment(k)[0] == pytest.approx(cf, rel=1e-10)


LARGE_KS = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)


@pytest.mark.parametrize("v", [1, 2.5, 7.5])
def test_moments_to_the_cap_match_closed_form(v):
    # exact powers exp(k l) carry no error that grows with k; a running
    # product of rounded t was 1.4e-13 off at k = 5*10^4
    dens = _fresh_phi_v(v)
    dens.moments_block(K.HARD_TERM_CAP)
    assert dens._level == K._MIN_LEVEL
    for k in LARGE_KS:
        cf = float(K.moment_phi_v_closed(v, k))
        assert abs(dens.moment(k)[0] - cf) <= 1e-15 * cf, k


@pytest.mark.parametrize("p, n", [
    pytest.param(RadialProfile.explicit_n(3), 3, id="W[explicit_n:n=3]"),
    pytest.param(RadialProfile.explicit_n(6), 6, id="W[explicit_n:n=6]"),
    pytest.param(RadialProfile.sqrt_poincare(), 2, id="W[sqrt_poincare]"),
])
def test_level_6_moments_match_level_12(p, n):
    # W[f] settles at the coarsest level and stays within 1e-15 of a
    # level-12 math.fsum over exact powers up to the cap
    dens = _fresh_w(p, n)
    dens.moments_block(K.HARD_TERM_CAP)
    assert dens._level == K._MIN_LEVEL
    t, w, ell, _w_prev = nodes_up_to(12, t_floor=dens.t_floor)
    wphi = w * dens.fn(t)
    for k in (*(dens.k_min + i for i in (0, 7, 63, 400)), *LARGE_KS):
        ref = math.fsum((wphi * np.exp(k * ell)).tolist())
        assert abs(dens.moment(k)[0] - ref) <= 1e-15 * abs(ref), k


# -- Kummer split near t = 1 --------------------------------------------------

KUMMER_TS = (0.95, 0.99, 0.9999, 1 - 1e-6, 1 - 1e-8, 1 - 1e-10, 1 - 1e-12)


def _one_plus_a_log2(a):
    """phi = 1 + a log^2 t: L-series 1 + a L^2, c_k = 1/(k+1) + 2a/(k+1)^3."""
    return K.Density(
        lambda t: 1.0 + a * np.log(t) ** 2, 0.0, label=f"1+{a}L^2",
        l_series=lambda order: PowerLogSeries({(0, 0): F(1), (2, 0): F(a)}, order),
    )


def _oracle_one_plus_a_log2(a, t):
    """F(t) = sum_j t^(j-1) (2j-1)/c_(j-1), j = k+1, at 30+ digits from the
    exact moments: (2j-1) j / (1 + 2a/j^2) less its first 16 terms in
    (-2a/j^2)^i is summed directly (it falls like j^-31); the peeled terms
    are polylogarithms, sum_j t^(j-1) j^-s = Li_s(t)/t."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        t, b = mpmath.mpf(t), -2 * mpmath.mpf(a)
        total = mpmath.mpf(0)
        for i in range(16):
            li = 2 * mpmath.polylog(2 * i - 2, t) - mpmath.polylog(2 * i - 1, t)
            total += b ** i * li / t
        for j in range(1, 61):
            j = mpmath.mpf(j)
            exact = (2 * j - 1) / (1 / j + 2 * mpmath.mpf(a) / j ** 3)
            peeled = sum((2 * j - 1) * j * (b / j ** 2) ** i for i in range(16))
            total += t ** (j - 1) * (exact - peeled)
        return float(total)


@pytest.mark.parametrize("make, v", [
    *(pytest.param(lambda v=v: K.phi_v_density(v), v, id=f"phi_{v}") for v in (1, 4, 9, 2.5)),
    pytest.param(lambda: K.associated_density(RadialProfile.sqrt_poincare(), 2), 1,
                 id="W[sqrt_poincare]"),
])
def test_kummer_vs_closed_form(make, v):
    # W[2 - 2 sqrt(t)] = 1 = phi_1
    dens = make()
    for t in KUMMER_TS:
        ke = K.kernel_series(dens, 2, t)
        assert ke.path == "kummer"
        assert ke.value == pytest.approx(K.closed_form_F_phi_v(v, t), rel=1e-12, abs=0), t


def test_kummer_nonzero_remainder_vs_oracle():
    dens = _one_plus_a_log2(1)
    for t in KUMMER_TS:
        ke = K.kernel_series(dens, 2, t)
        assert ke.path == "kummer"
        assert ke.value == pytest.approx(_oracle_one_plus_a_log2(1, t), rel=1e-12, abs=0), t


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _one_plus_a_log2(1), id="1+L^2"),
    pytest.param(lambda: _one_plus_a_log2(5), id="1+5L^2"),
    pytest.param(lambda: K.phi_v_density(2.5), id="phi_2.5"),
    pytest.param(lambda: K.associated_density(RadialProfile.explicit_n(3), 2),
                 id="W[explicit_n:n=3]"),
])
def test_direct_and_kummer_paths_agree(make):
    dens = make()
    for t in (0.91, 0.95, 0.99):
        direct = K._kernel_direct(dens, 2, t)
        kummer = K._kernel_kummer(dens, t)
        assert kummer.value == pytest.approx(direct.value, rel=1e-12, abs=0), t


@pytest.mark.parametrize("a", [1, 5])
def test_kummer_tail_bound_covers_error(a):
    # the bound covers truncation and the moments, not the rounding of the
    # final sum: allow 4 ulp of F on top
    dens = _one_plus_a_log2(a)
    eps = np.finfo(float).eps
    for t in (0.91, 0.95, *KUMMER_TS):
        ke = K.kernel_series(dens, 2, t)
        ref = _oracle_one_plus_a_log2(a, t)
        err = abs(ke.value - ref)
        assert err <= ke.tail_bound + 4 * eps * abs(ref), (t, err, ke.tail_bound)


def test_kummer_remainder_is_short():
    # tens of moments on a fresh density, whatever t is
    dens = _fresh_phi_v(4)
    dens.l_series = K.phi_v_density(4).l_series
    for t in (0.9999, 1 - 1e-6, 1 - 1e-8):
        ke = K.kernel_series(dens, 2, t)
        assert ke.path == "kummer" and 1 <= ke.terms_used <= 64
    assert len(dens._c) <= 64


@pytest.mark.parametrize("v", [1, 2.5, 4, 9])
def test_kummer_singular_part_matches_boundary_expansion(v):
    # two routes to sum_s w_s Phi(t, s): the split's harmonic numbers, zeta
    # at the integers and rational part in 1/(1-t), against
    # boundary_expansion_F's Gamma-Laurent table, zeta jets and factor e^L.
    # The split's own A_0..A_10, exact, known through x^11 so that A_11 = 0
    # as in the split (order 9 would drop the s = 9 weight, -A_10)
    from kepler_balance.asymptotics import boundary_expansion_F

    split = K._kummer_split(K.phi_v_density(v))
    inv = PowerLogSeries({(m - 1, 0): F(a) for m, a in enumerate(split.A)}, 11)
    ser = boundary_expansion_F(inv, 2)
    for t in (0.95, 0.99, 0.999, 1 - 1e-6):
        value, size, _truncation = split.singular(t)
        L = -math.log(t)
        other = ser.evaluate(L, log_inv_x=-math.log(L))
        assert abs(other - value) <= 1e-15 * size, (t, other, value)


def test_kummer_switch():
    t_in, t_out = math.exp(-0.0999), math.exp(-0.1001)
    phi4 = K.phi_v_density(4)
    assert K.kernel_series(phi4, 2, t_in).path == "kummer"
    assert K.kernel_series(phi4, 2, t_out).path == "direct"
    assert K.kernel_series(phi4, 2, 0.0).path == "direct"
    # n = 3 sums directly, though W_3 carries its L-series; so does a
    # density built without one
    w3 = K.associated_density(RadialProfile.explicit_n(3), 3)
    assert w3.l_series is not None
    assert K.kernel_series(w3, 3, 0.95).path == "direct"
    assert K.kernel_series(_fresh_phi_v(4), 2, 0.95).path == "direct"


@pytest.mark.parametrize("make, factor", [
    pytest.param(lambda: K.associated_density(RadialProfile.sqrt_poincare(scale=2.0), 2),
                 1 / 8, id="W[2 sqrt_poincare]"),
    pytest.param(lambda: K.associated_density(RadialProfile.constant_one(scale=0.5)), 2.0,
                 id="f[constant_one/2]"),
])
def test_kummer_scaled_densities(make, factor):
    # W[s f] = s^3 W[f] and a constant density s: F scales by s^-3 and 1/s
    dens = make()
    for t in (0.99, 1 - 1e-6):
        ke = K.kernel_series(dens, 2, t)
        assert ke.path == "kummer"
        cf = factor * K.closed_form_F_phi_v(1, t)
        assert ke.value == pytest.approx(cf, rel=1e-12, abs=0)


def test_phi_60_takes_the_kummer_path():
    # the A_m chain is exact for every v, so a large v such as 60 keeps its
    # series and takes the Kummer path
    dens = _fresh_phi_v(60)
    dens.l_series = K.phi_v_density(60).l_series
    for t in (0.95, 0.999, 1 - 1e-6):
        ke = K.kernel_series(dens, 2, t)
        assert ke.path == "kummer", t
        assert ke.value == pytest.approx(K.closed_form_F_phi_v(60, t), rel=1e-12, abs=0), t


@pytest.mark.parametrize("v", [2.5, 3.14159, 7.3, 60])
def test_kummer_weights_exact_for_non_square_v(v):
    # A_m = (1 - v)/2^(m+2) exactly, so the weights 2 A_(s+2) - A_(s+1),
    # s = 1..8, vanish and the log part Q(L) is the one L^8 term of s = 9
    dens = _fresh_phi_v(v)
    dens.l_series = K.phi_v_density(v).l_series
    split = K._kummer_split(dens)
    assert split.A[:2] == [1.0, 0.0]
    for m in range(2, K.KUMMER_M + 1):
        assert split.A[m] == float((1 - F(v)) / 2 ** (m + 2)), m
    assert [s for s, _w in split.weights] == [-2, -1, 0, 9]
    assert [j for j, q in enumerate(split.log_poly) if q] == [8]
    assert K.kernel_series(dens, 2, 0.999).path == "kummer"


@pytest.mark.parametrize("make", [
    pytest.param(lambda: K.phi_v_density(2.5), id="phi_2.5"),
    pytest.param(lambda: K.phi_v_density(4), id="phi_4"),
    pytest.param(lambda: K.associated_density(RadialProfile.explicit_n(2), 2),
                 id="W[explicit_n:n=2]"),
])
def test_kummer_path_makes_no_lerch_calls(make, monkeypatch):
    from kepler_balance import asymptotics, special

    dens = make()
    K._kummer_split(dens)

    def refuse(*args, **kwargs):
        raise AssertionError("the Kummer path reached the Lerch machinery")

    monkeypatch.setattr(asymptotics, "lerch_phi", refuse)
    monkeypatch.setattr(special, "zeta_deriv_over_factorial", refuse)
    monkeypatch.setattr(asymptotics, "zeta_deriv_over_factorial", refuse)
    for t in (0.95, 0.999, 1 - 1e-9, 1 - 1e-12):
        ke = K.kernel_series(dens, 2, t)
        assert ke.path == "kummer" and math.isfinite(ke.value), t
    assert not hasattr(K, "lerch_phi")


def _mp_singular(weights, t):
    """sum_s w_s Phi(t, s) and sum_s |w_s Phi(t, s)| at 40 digits, with
    Phi(t, s) = Li_s(t)/t at s >= 1."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        parts = [mpmath.mpf(w) * (mpmath.lerchphi(t, s, 1) if s <= 0 else mpmath.polylog(s, t) / t)
                 for s, w in weights]
        return sum(parts), sum(abs(x) for x in parts)


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda v=v: K.phi_v_density(v), id=f"phi_{v}") for v in (1, 2.5, 4)),
    pytest.param(lambda: K.associated_density(RadialProfile.explicit_n(2), 2),
                 id="W[explicit_n:n=2]"),
    pytest.param(lambda: _one_plus_a_log2(5), id="1+5L^2"),
])
def test_kummer_singular_part_vs_mpmath(make):
    split = K._kummer_split(make())
    ts = (0.9, 0.95, 0.99, 0.999, 1 - 1e-5, 1 - 1e-7, 1 - 1e-9, *KUMMER_TS[-2:])
    for t in ts:
        value, size, truncation = split.singular(t)
        ref, ref_size = _mp_singular(split.weights, t)
        assert abs(value - ref) <= 4e-16 * ref_size, t
        assert truncation <= 1e-30 * ref_size, t
        # S bounds the sum and is no looser a target than sum |w_s Phi(t, s)|
        assert abs(value) <= size <= 2 * ref_size, t


@pytest.mark.parametrize("terms", [
    {(1, 0): F(1)},  # no constant term
    {(0, 0): F(1), (1, 1): F(1)},  # a log(1/L) term
    {(0, 0): F(1), (F(1, 2), 0): F(1)},  # a half-integer power
], ids=["no-constant", "log", "half-power"])
def test_kummer_rejects_unusable_series(terms):
    dens = _fresh_phi_v(4)
    dens.l_series = lambda order: PowerLogSeries(terms, order)
    with pytest.raises(CapabilityError):
        K.kernel_series(dens, 2, 0.99)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_removed_tol_argument_rejected(tol):
    # the truncation target is worked out, not passed
    dens = K.phi_v_density(1)
    with pytest.raises(TypeError, match="tol"):
        K.kernel_series(dens, 2, 0.5, tol=tol)
    with pytest.raises(TypeError, match="tol"):
        K.balanced_defect(RadialProfile.sqrt_poincare(), 2, 4.0, 0.5, tol=tol)
    with pytest.raises(TypeError, match="tol"):
        K.defect_table(RadialProfile.sqrt_poincare(), 2, 4.0, [0.5], tol=tol)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_nonfinite_c_rejected(c):
    with pytest.raises(DomainError):
        K.balanced_defect(RadialProfile.sqrt_poincare(), 2, c, 0.5)


def _comb_direct_reference(dens, n, t):
    """The direct sum with N(k) from two ``math.comb`` per term and ``max``
    for the running bound: ``_kernel_direct`` before it carried N(k) as ints."""
    k_start = max(0, dens.k_min - (n - 2))
    if t == 0.0:
        if k_start == 0:
            c0, _e = dens.moment(n - 2)
            return K.KernelEval(t=0.0, value=K.dimension_count(0, n) / c0, terms_used=1,
                                tail_bound=0.0)
        return K.KernelEval(t=0.0, value=0.0, terms_used=0, tail_bound=0.0)
    n_fact = math.factorial(n)
    total = size = cmax = 0.0
    tk = t ** k_start
    binom_next = math.comb(k_start + 1 + n, n)
    k = k_start
    while True:
        c, _e = dens.moment(k + n - 2)
        ratio = (math.comb(k + n - 1, n - 1) + math.comb(k + n - 2, n - 1)) / c
        term = ratio * tk
        total += term
        size += abs(term)
        cmax = max(cmax, abs(ratio) / (k + 1) ** n)
        q = t * (k + 2 + n) / (k + 2)
        if q < 1.0:
            tail = cmax * n_fact * binom_next * (tk * t) / (1.0 - q)
        else:
            tail = math.inf
        if (tail <= K._CALIBRATION_RTOL * size or tk == 0.0) and k >= k_start + 8:
            return K.KernelEval(t=t, value=total, terms_used=k - k_start + 1, tail_bound=tail)
        k += 1
        tk *= t
        binom_next = binom_next * (k + 1 + n) // (k + 1)


_DIRECT_DENSITIES = {
    **{f"phi_{v}": (lambda n, v=v: K.phi_v_density(v)) for v in (0.3, 2.5, 7.4)},
    "W_n[explicit_n]": lambda n: K.associated_density(RadialProfile.explicit_n(n), n),
    "constant_one": lambda n: K.associated_density(RadialProfile.constant_one(), n),
}


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("name", list(_DIRECT_DENSITIES))
def test_direct_sum_bitwise_against_comb_reference(name, n):
    # N(k) carried as exact ints, and the running bound by comparison, give
    # the value, term count and tail bound of the per-term comb loop bit for bit
    dens = _DIRECT_DENSITIES[name](n)
    for t in (0.0, 1e-3, 0.05, 0.5, 0.9, 0.99):
        got, want = K._kernel_direct(dens, n, t), _comb_direct_reference(dens, n, t)
        assert (got.value, got.terms_used, got.tail_bound) == (
            want.value, want.terms_used, want.tail_bound), t


def test_direct_sum_bitwise_at_the_largest_n_in_float_range():
    # n = 101 at t = 0.5 sums 952 terms, the last with (k+1)^n ~ 1e301
    dens = K.associated_density(RadialProfile.constant_one(), 101)
    got, want = K._kernel_direct(dens, 101, 0.5), _comb_direct_reference(dens, 101, 0.5)
    assert (got.value, got.terms_used, got.tail_bound) == (
        want.value, want.terms_used, want.tail_bound)
    assert math.isfinite(got.value) and got.terms_used > 900


@pytest.mark.parametrize("n", [102, 170, 171, 200])
def test_direct_sum_integers_past_float_range_are_named(n):
    # (k+1)^n (from n = 102 at t = 0.5), n! C(k+1+n, n) (from n = 171) or
    # N(k) past float range is a typed error naming n, not an OverflowError
    dens = K.associated_density(RadialProfile.constant_one(), n)
    with pytest.raises(ConvergenceBudgetError, match=f"n={n}, t=0.5"):
        K.kernel_series(dens, n, 0.5)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _fresh_phi_v(0.3), id="phi_0.3"),
    pytest.param(lambda: K.Density(lambda t: np.full(np.shape(t), 1.7), 0.0), id="constant_one"),
    pytest.param(lambda: _fresh_w(RadialProfile.explicit_n(3), 3), id="W_3[explicit_n:n=3]"),
])
def test_first_block_is_the_unscaled_product(make):
    # block k0 = 0 is Q @ W: exp(0 l) is exactly 1, so it is the scaled
    # product (Q * exp(0 l)) @ W bit for bit
    dens = make()
    dens.calibrate()
    assert dens.k_min == 0
    ell, q, weights = dens._nodes
    block = np.zeros((K._BLOCK, 2))
    block += (q * np.exp(0 * ell)) @ weights
    assert dens._c[: K._BLOCK] == block[:, 0].tolist()
    assert dens._err[: K._BLOCK] == np.abs(block[:, 0] - block[:, 1]).tolist()
