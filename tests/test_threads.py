"""Densities shared between threads give the serial bits.

Each density is fresh, so its first calls race to calibrate it, fill its
moment blocks and build its Kummer split.  Four threads take the calls of
one density at a time, and every value is compared bit for bit with a
serial run on a density of the same kind.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from kepler_balance import kernel as K
from kepler_balance.profiles import phi_v, phi_v_form, phi_v_l_series

THREADS = 4
TIMEOUT_S = 60


@pytest.fixture(autouse=True)
def short_switch_interval():
    # threads swap more often, so more of the racy interleavings occur
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        yield
    finally:
        sys.setswitchinterval(old)
DIRECT_TS = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85)
KUMMER_TS = (0.5, 0.95, 0.97, 0.99, 0.995, 0.999, 0.9999, 0.99999)


def _constant():
    return K.Density(lambda t: 1.0 + 0.0 * t, 0)


def _phi_4(form=None):
    # phi_4 with its L-series: n = 2 near t = 1 takes the Kummer split
    return K.Density(lambda t: phi_v(4, t), -0.75,
                     l_series=lambda order: phi_v_l_series(Fraction(4), order), form=form)


def _shared_run(make, count, ts):
    """kernel_series(d, 2, t) for every t of ``ts`` on ``count`` fresh
    densities, each density's calls spread over the pool; returns the
    mismatches against a serial run and the exceptions raised."""
    serial = make()
    want = [K.kernel_series(serial, 2, t) for t in ts]
    densities = [make() for _ in range(count)]
    jobs = [(d, i) for d in densities for i in range(len(ts))]

    def call(job):
        d, i = job
        try:
            return K.kernel_series(d, 2, ts[i]) == want[i]
        except Exception as exc:  # the race shows as an IndexError, among others
            return exc

    with ThreadPoolExecutor(THREADS) as pool:
        got = list(pool.map(call, jobs, timeout=TIMEOUT_S))
    errors = [g for g in got if isinstance(g, Exception)]
    return sum(g is False for g in got), errors


@pytest.mark.parametrize("make, count, ts", [
    (_constant, 200, DIRECT_TS),
    (_phi_4, 100, KUMMER_TS),
    (lambda: _phi_4(phi_v_form(4)), 100, KUMMER_TS),
], ids=["direct", "kummer", "kummer-form"])
def test_shared_density_matches_serial(make, count, ts):
    mismatches, errors = _shared_run(make, count, ts)
    assert (mismatches, errors) == (0, [])


def test_phi_v_density_cache_is_shared(monkeypatch):
    # threads asking for the same v get one Density, and its serial bits
    monkeypatch.setattr(K, "_PHI_V_DENSITIES", {})
    vs = [0.25 * j for j in range(1, 41)]
    want = {v: K.kernel_series(K.Density(lambda t, v=v: phi_v(v, t), (-1.0 - math.sqrt(v)) / 4.0,
                                         form=phi_v_form(v)), 2, 0.7) for v in vs}

    def call(v):
        d = K.phi_v_density(v)
        return d, K.kernel_series(d, 2, 0.7)

    with ThreadPoolExecutor(THREADS) as pool:
        got = list(pool.map(call, [v for v in vs for _ in range(THREADS)], timeout=TIMEOUT_S))
    for j, v in enumerate(vs):
        row = got[THREADS * j: THREADS * (j + 1)]
        assert all(d is K._PHI_V_DENSITIES[v] for d, _e in row)
        assert all(e == want[v] for _d, e in row)
