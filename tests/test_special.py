"""Oracle checks of the zeta/Gamma machinery against mpmath (optional dep)."""

import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from kepler_balance.special import (
    _polygamma,
    gamma_derivs,
    stieltjes_euler_maclaurin,
    zeta_deriv_over_factorial,
)

mpmath.mp.dps = 30


@pytest.mark.parametrize("s", [-8.5, -3, -2, -1, -0.5, 0, 0.25, 0.5, 2, 3, 1.1])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_zeta_derivs_vs_mpmath(s, n):
    mine = zeta_deriv_over_factorial(s, 0, n)
    ref = float(mpmath.zeta(s, derivative=n)) if n else float(mpmath.zeta(s))
    assert mine == pytest.approx(ref, rel=1e-11, abs=1e-12)


def test_zeta_at_integers_vs_mpmath():
    # zeta at the integers s - k that the kernel's Kummer fold sums (s = 1..9,
    # k <= 16); the worst is 7 ulp, at zeta(-5), and the trivial zeros are exact
    for j in range(-15, 10):
        if j == 1:
            continue
        ref = mpmath.zeta(j)
        assert abs(zeta_deriv_over_factorial(float(j), 0) - ref) <= 8 * math.ulp(float(ref)), j


@pytest.mark.parametrize("x", [1.0, 0.5, 2.0, 3.7, -0.5, -1.5, -2.3])
def test_gamma_derivs_vs_mpmath(x):
    gd = gamma_derivs(x, 5)
    for j in range(6):
        ref = float(mpmath.diff(mpmath.gamma, x, j)) if j else float(mpmath.gamma(x))
        assert gd[j] == pytest.approx(ref, rel=1e-11, abs=1e-11)


def test_gamma_derivs_overflow_is_domain_error():
    from kepler_balance.errors import DomainError

    assert math.isfinite(gamma_derivs(171.5, 2)[0])
    for x in (171.7, 201.0):
        with pytest.raises(DomainError):
            gamma_derivs(x, 1)


@pytest.mark.parametrize("n", range(13))
def test_polygamma_vs_mpmath(n):
    for x in (0.5, 1.0, 1.5, 2.5, 7.3, 40.0, 1e3, 1e4):
        ref = float(mpmath.polygamma(n, x))
        mine = _polygamma(n, x)
        assert type(mine) is float
        assert mine == pytest.approx(ref, rel=1e-14, abs=1e-15), x


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
def test_polygamma_array_matches_scalar_bitwise(n):
    rng = np.random.default_rng(n)
    xs = np.concatenate([rng.uniform(0.01, 30.0, 300), 10.0 ** rng.uniform(-3, 5, 300)])
    batch = _polygamma(n, xs)
    assert np.array_equal(batch, np.array([_polygamma(n, float(x)) for x in xs]))
    # a slice on its own gives the bits it has inside the long batch
    assert np.array_equal(_polygamma(n, xs[250:350]), batch[250:350])


def test_scaled_zeta_terms_vs_mpmath():
    for (s, k, n) in ((0.5, 300, 2), (2.0, 260, 1), (0.0, 49, 0), (3.0, 170, 2)):
        mine = zeta_deriv_over_factorial(s, k, n)
        ref = float(_reflected_reference(s, k, n, 0.0))
        assert mine == pytest.approx(ref, rel=2e-12)


@pytest.mark.parametrize("s", [-2.0, -1.5, 0.0, 0.5, 2.0, 3.0, 7.3])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_array_k_matches_scalar_bitwise(s, n):
    log_L = math.log(6.2)
    ks = np.array([k for k in range(0, 1200, 7) if s - k != 1.0])
    batch = zeta_deriv_over_factorial(s, ks, n, log_L=log_L)
    one_by_one = [zeta_deriv_over_factorial(s, int(k), n, log_L=log_L) for k in ks]
    assert all(type(v) is float for v in one_by_one)
    assert np.array_equal(batch, np.array(one_by_one))
    # a later slice on its own gives the same bits as inside the long batch
    assert np.array_equal(zeta_deriv_over_factorial(s, ks[100:], n, log_L=log_L), batch[100:])


def _reflected_reference(s, k, n, log_L):
    """zeta^(n)(s - k) L^k / k! at 50 digits through the reflection formula
    (mpmath.zeta(s - k, derivative=n) gives up on cancellation at these k).
    L is exp(log_L) exactly, so the check sees no rounding of log L."""
    with mpmath.workdps(50):
        def reflected(z):
            return (2 ** z * mpmath.pi ** (z - 1) * mpmath.sin(mpmath.pi * z / 2)
                    * mpmath.gamma(1 - z) * mpmath.zeta(1 - z))

        L = mpmath.exp(mpmath.mpf(log_L))
        return mpmath.diff(reflected, mpmath.mpf(s) - k, n) * L ** k / mpmath.factorial(k)


# (s, n, k, L): far out at L = 6.2, and reflected rows in the low hundreds
# at L = 0.5 and 3 up to n = 5, where the stored jet factor carries more
# columns
_LARGE_K_CASES = [(s, n, k, 6.2) for k in (1000, 2000)
                  for s, n in ((0.5, 2), (-2.0, 1), (3.0, 2), (-1.5, 0), (1.0, 1))]
_LARGE_K_CASES += [(s, n, k, L) for k in (100, 200) for L in (0.5, 3.0)
                   for s, n in ((0.5, 5), (-2.0, 3), (3.0, 4), (-1.5, 2), (1.0, 5), (7.3, 1))]


@pytest.mark.parametrize("s, n, k, L", _LARGE_K_CASES, ids=[
    f"{s}-{n}-{k}" + ("" if L == 6.2 else f"-L{L}") for s, n, k, L in _LARGE_K_CASES])
def test_large_k_terms_vs_reflection_reference(s, n, k, L):
    log_L = math.log(L)
    ref = float(_reflected_reference(s, k, n, log_L))
    assert zeta_deriv_over_factorial(s, k, n, log_L=log_L) == pytest.approx(ref, rel=1e-13)


def test_trivial_zeros_exact():
    # zeta(-2m) = 0 for m >= 1: the quarter-turn sine gives exact zeros at any k
    ks = np.arange(4, 3000, 2)
    assert not np.any(zeta_deriv_over_factorial(2.0, ks, 0, log_L=math.log(6.0)))
    assert zeta_deriv_over_factorial(0.0, 2000) == 0.0


def test_stieltjes_vs_mpmath():
    em = stieltjes_euler_maclaurin(10)
    for j in range(11):
        assert em[j] == pytest.approx(float(mpmath.stieltjes(j)), abs=2e-13)


def test_zeta_tables_respect_their_budget(monkeypatch):
    # least-recently-used, one table per s: once a table is stored, the
    # others hold at most the budget, and an evicted s comes back with the
    # same bits at every order
    from kepler_balance import special

    monkeypatch.setattr(special, "_TABLE_BUDGET", 200_000)
    monkeypatch.setattr(special, "_tables", type(special._tables)())
    log_L = math.log(6.2)
    ks = np.arange(0, 2000, 13)
    first = [zeta_deriv_over_factorial(-2.5, ks, n, log_L=log_L) for n in range(4)]
    for s in (-2.5, -1.5, 0.5, 2.5, 3.5, 7.3):
        for n in range(4):
            zeta_deriv_over_factorial(s, ks, n, log_L=log_L)
            newest_key, newest = next(reversed(special._tables.items()))
            held = sum(rows.nbytes for rows in special._tables.values()) - newest.nbytes
            assert newest_key == s and newest.order >= n and newest.size >= 2000
            assert held <= special._TABLE_BUDGET
    assert -2.5 not in special._tables
    for n in (3, 0, 2, 1):
        again = zeta_deriv_over_factorial(-2.5, ks, n, log_L=log_L)
        assert again.tobytes() == first[n].tobytes()


def test_zeta_tables_grow_by_whole_blocks_and_stay_read_only(monkeypatch):
    from kepler_balance import special

    monkeypatch.setattr(special, "_tables", type(special._tables)())
    rows = special._zeta_rows(0.5, 2, 100)
    # s - k >= -1/2 for k = 0, 1: two direct rows, then reflected ones
    assert rows.size == 128 and rows.k_r == 2 and rows.order == 2
    assert rows.coef.shape == (rows.size, 3) and len(rows.offset) == rows.size
    for a in (rows.coef, rows.offset):
        assert not a.flags.writeable
    # a lower order or fewer rows read the same table
    assert special._zeta_rows(0.5, 2, 50) is rows
    assert special._zeta_rows(0.5, 0, 128) is rows
    # a table that must grow at least doubles its rows
    assert special._zeta_rows(0.5, 1, 129).size == 256
    assert special._zeta_rows(0.5, 2, 1000).size == 1024
    # a higher order rebuilds all rows, growing only where asked
    assert special._zeta_rows(0.5, 4, 10).size == 1024
    # the pole row s - k = 1 is kept as NaN at every order, never computed
    assert np.isnan(special._zeta_rows(3.0, 3, 64).coef[2]).all()
    # N + 2 floats per row at order N, direct or reflected
    for n in (0, 1, 3, 7):
        grown = special._zeta_rows(3.5, n, 200)
        assert grown.order == n
        assert grown.nbytes == 8 * (n + 2) * grown.size


@pytest.mark.parametrize("s, k", [(math.inf, 0), (-math.inf, 3), (math.nan, 0), (2.0, -1)])
def test_zeta_terms_reject_bad_input(s, k):
    from kepler_balance.errors import DomainError

    with pytest.raises(DomainError):
        zeta_deriv_over_factorial(s, k)


def test_power_down_matches_np_power_bitwise():
    # 0.0 past 2^-1100 is what np.power gives there, including across the
    # underflow threshold 2^-1075 and through the subnormals
    from kepler_balance.special import _power_down

    rng = np.random.default_rng(0)
    for j in range(1, 9):
        x = np.concatenate([rng.uniform(-0.5, 5000.0, 4000), 0.5 + np.arange(3000.0),
                            rng.uniform(1000.0, 1200.0, 4000) / math.log2(max(j, 2))])
        assert np.array_equal(_power_down(j, x), np.power(float(j), -x)), j
