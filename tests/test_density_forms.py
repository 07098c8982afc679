"""Densities with an exact form: moments from sum a j!/(k+1+p)^(j+1), no
quadrature, and the checks and sign flag of the level-6 node values."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kepler_balance import kernel as K
from kepler_balance.cli import main
from kepler_balance.errors import DomainError
from kepler_balance.profiles import RadialProfile, monge_ampere_density, phi_v, phi_v_form
from kepler_balance.quadrature import nodes_up_to

EPS = np.finfo(float).eps
CLOSED_VS = (0, 5e-7, 0.3, 1, 2.5, 4, 7.5, 8, 8.5, 8.96724, 8.999, 9, 25)
# the three branches of phi_v, and either side of each switch
FORM_VS = (0, 5e-7, -5e-7, 1e-6, -1e-6, 1.0001e-6, 0.3, 1, 4, 8.96724, 8.999, 25,
           -1.0001e-6, -0.5, -2, -30)


def _fn_built(dens):
    """The same density without its form: quadrature computes its moments."""
    return K.Density(dens.fn, dens.origin_exponent, dens.label, dens.l_series)


def _form_values(form, t):
    """sum a t^p log(1/t)^j, a complex term counted with its conjugate."""
    L = -np.log(t)
    total = np.zeros_like(t)
    for a, p, j in form:
        if isinstance(p, complex):
            total = total + 2.0 * (a * np.power(t.astype(complex), p)).real * L ** j
        else:
            total = total + a * t ** p * L ** j
    return total


@pytest.mark.parametrize("v", CLOSED_VS)
def test_phi_v_moments_match_closed_form(v):
    dens = K.phi_v_density(v)
    assert dens.form is not None
    for k in range(dens.k_min, dens.k_min + 65):
        cf = float(K.moment_phi_v_closed(v, k))
        assert abs(dens.moment(k)[0] - cf) <= 1e-14 * cf, k


@pytest.mark.parametrize("v", FORM_VS)
def test_phi_v_form_is_what_phi_v_evaluates(v):
    # on the level-6 nodes the form and phi_v agree to the rounding of the
    # larger of the two sums
    t = nodes_up_to(6, 1e-150)[0]
    form = phi_v_form(v)
    size = _form_values(tuple((abs(a), p.real if isinstance(p, complex) else p, j)
                              for a, p, j in form), t)
    assert np.all(np.abs(_form_values(form, t) - phi_v(v, t)) <= 64 * EPS * size)


@pytest.mark.parametrize("v", [-0.5, -2, -30, 1e-6, -1e-6, 5e-7, -5e-7, 0])
def test_form_moments_within_the_quadrature_bound(v):
    # the branches with no closed moment: against quadrature on the same
    # values, within both bounds and the rounding quadrature's bound leaves out
    form, quad = K.phi_v_density(v), _fn_built(K.phi_v_density(v))
    assert form.form is not None and quad.form is None
    for k in (*range(form.k_min, form.k_min + 65), 1000, 10 ** 4):
        (c, e), (cq, eq) = form.moment(k), quad.moment(k)
        assert abs(c - cq) <= e + eq + 8 * EPS * abs(c), k


def _mp_moment(form, k):
    """The form's moment c_k at 30 digits, its floats taken as exact."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        for a, p, j in form:
            if isinstance(p, complex):
                term = mpmath.mpc(a) * math.factorial(j) / (k + 1 + mpmath.mpc(p)) ** (j + 1)
                total += 2 * term.real
            else:
                total += mpmath.mpf(a) * math.factorial(j) / (k + 1 + mpmath.mpf(p)) ** (j + 1)
        return total


BOUND_KS = (0, 1, 2, 7, 63, 64, 65, 1000, 12345, 10 ** 5)


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda v=v: K.phi_v_density(v), id=f"phi_{v}") for v in FORM_VS),
    *(pytest.param(lambda m=m, n=n, s=s: K.associated_density(RadialProfile.explicit_n(m, s), n),
                   id=f"W_{n}[g_{m}]*{s}") for m, n, s in ((2, 2, 1.0), (3, 5, 1.3), (6, 2, -0.7))),
    pytest.param(lambda: K.associated_density(RadialProfile.constant_one(1.7)), id="constant_one"),
])
def test_form_bound_covers_its_error(make):
    dens = make()
    for k in (dens.k_min + i for i in BOUND_KS):
        c, err = dens.moment(k)
        exact = _mp_moment(dens.form, k)
        assert abs(c - exact) <= err, (k, float(abs(c - exact)), err)
        # a few ulps of |c| where the terms do not cancel, times the
        # cancellation in k + 1 + p
        if all(not isinstance(p, complex) and a > 0 for a, p, _j in dens.form):
            shift = max((k + 1 + abs(p)) / (k + 1 + p) for _a, p, _j in dens.form)
            assert err <= 16 * EPS * abs(c) * shift, k


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(2, 7))
def test_w_n_form_is_monge_ampere_density(m, n):
    # W_n[s g_m] = s^(n+1) t^(1 - n/m), with the exponent fixing k_min
    t = np.concatenate([np.geomspace(1e-12, 0.01, 40), np.linspace(0.01, 0.99, 99)])
    for s in (1.0, 1.3, -0.7):
        p = RadialProfile.explicit_n(m, s)
        dens = K.associated_density(p, n)
        assert dens.form == ((float(Fraction(s) ** (n + 1)), 1 - n / m, 0),)
        w = monge_ampere_density(p, n, t)
        assert np.max(np.abs(_form_values(dens.form, t) / w - 1)) <= 1e-13
        for k in range(dens.k_min, dens.k_min + 65):
            c = dens.moment(k)[0]
            assert c == pytest.approx(s ** (n + 1) / (k + 2 - n / m), rel=1e-14), k


@pytest.mark.parametrize("v", np.round(np.linspace(-2, 2, 41), 2).tolist())
def test_sign_flag_of_form_and_fn_built_densities(v):
    form = K.phi_v_density(v)
    assert form.sign_changing == _fn_built(form).sign_changing == (v < 1)


def test_form_fill_order_does_not_change_bits():
    form = phi_v_form(2.5)
    by_k, block = (K.Density(lambda t: phi_v(2.5, t), -0.25 - math.sqrt(2.5) / 4, form=form)
                   for _ in range(2))
    ks = range(0, 300)
    one_at_a_time = [by_k.moment(k) for k in reversed(ks)]
    block.moments_block(ks[-1])
    assert one_at_a_time[::-1] == [block.moment(k) for k in ks]
    assert len(block._c) == len(by_k._c) == 320


@pytest.mark.parametrize("a, shown", [(0.0, "0"), (1e-320, "subnormal")])
def test_form_moment_underflow_names_the_density(a, shown):
    dens = K.Density(lambda t: np.ones_like(t), 0.0, label="tiny", form=((a, 0.0, 0),))
    with pytest.raises(DomainError, match=f"tiny: moment c_0 is {shown}"):
        dens.moment(0)


def test_form_density_checks_its_node_values():
    # the form gives the moments; phi's values are still checked on the nodes
    bad = K.Density(lambda t: np.full(np.shape(t), np.inf), 0.0, label="inf", form=((1.0, 0.0, 0),))
    with pytest.raises(DomainError, match="inf: non-finite density values"):
        bad.moment(0)
    zero = K.Density(lambda t: np.zeros(np.shape(t)), 0.0, label="zero", form=((1.0, 0.0, 0),))
    with pytest.raises(DomainError, match="zero: the density vanishes"):
        zero.moment(0)


@pytest.mark.parametrize("argv", [
    ["--profile", "phi_v_candidate:v=2.345", "--t", "0.5"],
    ["--profile", "phi_v_candidate:v=0.7", "--grid", "0.3:0.999:4"],
    ["--profile", "sqrt_poincare:scale=1.3", "--grid", "0:0.99:3"],
    ["--profile", "constant_one:scale=0.8", "--t", "0.7"],
    ["--profile", "explicit_n:n=4,scale=1.1", "--n", "4", "--t", "0.6"],
    ["--profile", "explicit_n:n=3", "--n", "2", "--t", "0.95"],
], ids=["phi_v", "phi_v-kummer", "sqrt_poincare", "constant_one", "explicit_n", "W_2[g_3]"])
def test_cli_kernel_builds_no_block_powers(argv, capsys, monkeypatch):
    # a plain dict keeps whatever Q a request builds: every CLI density but
    # the Poincare one takes its moments from its form
    monkeypatch.setattr(K, "_BLOCK_POWERS", {})
    monkeypatch.setattr(K, "_PHI_V_DENSITIES", {})
    assert main(["kernel", *argv, "--c", "4"]) == 0
    capsys.readouterr()
    assert K._BLOCK_POWERS == {}
