"""The zeta tables and the Lerch sums against references kept here: the
one table per (s, n) of two floats per row, the direct sum that computed
every term of a block, and the boundary sum that added its terms in a
Python loop, as they ran before the tables were keyed by s alone, copied
verbatim.

A table of s keeps the jet columns 0..N, and truncated-Taylor arithmetic
is prefix-closed, so column n must give the bits of an (s, n) table built
fresh, whatever the requests before it: orders rising and falling, tables
growing, rebuilt at a higher order and evicted.  The direct sum skips the
terms whose t^k underflows, and must still give the reference's bits; so
must the boundary sum's strictly ordered accumulation.
"""

import collections
import math
import threading
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kepler_balance import asymptotics, special
from kepler_balance.asymptotics import (
    BOUNDARY_SUM_CAP,
    DIRECT_SUM_CAP,
    TWO_PI,
    _boundary_singular_part,
    _zeta_terms,
)
from kepler_balance.errors import CapabilityError, ConvergenceBudgetError, DomainError
from kepler_balance.special import (
    _LOG_2PI,
    _LOG_2PI_LO,
    _LOG_PI,
    MAX_DERIV,
    _jet_exp,
    _jet_mul,
    _jet_zeros,
    _polygamma,
    _sin_cos_half_pi,
    _zeta_em,
    zeta_deriv_over_factorial,
)


class _ZetaRows(NamedTuple):
    """The L-free factor of zeta^(n)(s - k) L^k / k! for k = 0..size-1, for
    one (s, n); both arrays read-only.  A term is
    coef[k] exp(k lambda + offset[k]) n! (see ``zeta_deriv_over_factorial``).

    Direct rows k < k_r (s - k >= -1/2) keep zeta^(n)(s - k) / n! in
    ``coef`` (NaN at the pole row s - k = 1, which is never computed) and
    -lgamma(k + 1) in ``offset``.  Reflected rows k >= k_r keep the bracket
    lgamma(k+1-s) - lgamma(k+1) in ``offset`` and, in ``coef``, column n of
    the exponent's jet exponential, its constant term left out, times the
    jet of sin(pi z / 2) zeta(1 - z) at z = s - k.
    """

    size: int
    k_r: int
    coef: np.ndarray
    offset: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.coef.nbytes + self.offset.nbytes


_ROW_BLOCK = 64  # a table grows by whole blocks of this many rows
_TABLE_BUDGET = 8 * 2 ** 20  # bytes the tables not in use may hold
_tables: collections.OrderedDict = collections.OrderedDict()  # (s, n) -> _ZetaRows, LRU order
_tables_lock = threading.Lock()


def _new_rows(s: float, n: int, rows: _ZetaRows | None, size: int) -> _ZetaRows:
    """``rows`` grown to ``size`` rows (a fresh table for None).  Each row is
    computed as it would be alone: one ``_zeta_em`` pass over the new direct
    and reflected rows, and the bracket's running sum carried on from the
    last row kept."""
    if rows is None:
        k_r = max(0, math.floor(s + 0.5) + 1)  # the first k with s - k < -1/2
        rows = _ZetaRows(0, k_r, np.empty(0), np.empty(0))
    k_r = rows.k_r
    ks = np.arange(rows.size, size)
    kd, kr = ks[ks < k_r], ks[ks >= k_r]
    z = s - kd
    live = z != 1.0  # the pole row is never computed
    x = 1.0 - s + kr  # the argument of zeta(1 - z)
    jets = _zeta_em(np.concatenate((z[live], x)), n)
    zeta = np.full(len(kd), np.nan)
    zeta[live] = jets[:np.count_nonzero(live), n]
    # negated here, once: x + (-y) is x - y exactly
    neg_log_fact = -np.array([math.lgamma(k + 1.0) for k in kd.tolist()])

    # the bracket, summed upward from k_r in log1p(-s/j) steps: its parts
    # never exceed O(|s| log k), where the plain sum of logs cancels from
    # ~k log k.  A grown table carries the running sum on from its last row
    if rows.size > k_r:
        first, tail = rows.offset[-1], kr
    else:
        first, tail = math.lgamma(k_r + 1.0 - s) - math.lgamma(k_r + 1.0), kr[1:]
    steps = np.empty(len(tail) + 1)
    steps[0] = first
    steps[1:] = np.log1p(-s / tail.astype(float))
    bracket = np.cumsum(steps)[len(steps) - len(kr):]

    # the exponent's jet without its constant term a_0, the only part of it
    # that depends on L: exp(a_0 + a(eps)) = e^(a_0) exp(a(eps)), and a call
    # takes e^(a_0)
    expo = _jet_zeros(len(kr), n)
    for j in range(1, n + 1):
        # (d/deps)^j logGamma(x - eps) = (-1)^j psi_{j-1}(x)
        expo[:, j] = (-1.0) ** j * _polygamma(j - 1, x) / math.factorial(j)
    if n >= 1:
        expo[:, 1] += _LOG_2PI

    # sin(pi (s - k + eps) / 2): pi s / 2 turned back by k quarter turns,
    # then the Taylor coefficients (pi/2)^m sin(theta + m pi/2) / m!
    sin0, cos0 = _sin_cos_half_pi(s)
    quarter = kr % 4
    sin_k = np.array([sin0, -cos0, -sin0, cos0])[quarter]
    cos_k = np.array([cos0, sin0, -cos0, -sin0])[quarter]
    cycle = (sin_k, cos_k, -sin_k, -cos_k)
    sin_jet = _jet_zeros(len(kr), n)
    for m in range(n + 1):
        sin_jet[:, m] = (0.5 * math.pi) ** m / math.factorial(m) * cycle[m % 4]
    zr = jets[np.count_nonzero(live):]
    zr[:, 1::2] *= -1.0  # zeta(x - eps)
    coef = _jet_mul(_jet_exp(expo), _jet_mul(sin_jet, zr))[:, n]

    arrays = []
    for kept, direct, reflected in zip(rows[2:], (zeta, neg_log_fact), (coef, bracket)):
        grown = np.concatenate((kept, direct, reflected))
        grown.setflags(write=False)
        arrays.append(grown)
    return _ZetaRows(size, k_r, *arrays)


def _zeta_rows(s: float, n: int, size: int) -> _ZetaRows:
    """The table of (s, n), grown to at least ``size`` rows.

    Tables are kept least-recently-used: once a table is stored, the
    oldest others go until they hold at most _TABLE_BUDGET bytes.  So all
    tables together never hold more than 8 MB plus the table in use, which
    keeps 2 floats per row, for every k below the largest asked rounded up
    to a whole block: 0.16 MB at any n for the 10,048 rows a boundary sum
    reaching its 10,000-term cap asks for.
    """
    key = (s, n)
    with _tables_lock:
        rows = _tables.get(key)
        if rows is not None:
            _tables.move_to_end(key)
    if rows is not None and rows.size >= size:
        return rows
    rows = _new_rows(s, n, rows, -(-size // _ROW_BLOCK) * _ROW_BLOCK)
    with _tables_lock:
        _tables[key] = rows
        _tables.move_to_end(key)
        held = sum(r.nbytes for r in _tables.values()) - rows.nbytes
        while held > _TABLE_BUDGET:
            _key, old = _tables.popitem(last=False)
            held -= old.nbytes
    return rows


def reference_zeta_deriv_over_factorial(s: float, k, n: int = 0, log_L: float = 0.0):
    """zeta^(n)(s - k) L^k / k! with L = exp(log_L), overflow-safe for large k.

    ``k`` is an int >= 0 (returns a float) or an int array (returns an array
    of the same length); each entry does not depend on the others, nor on
    the calls made before.  Only L^k is computed per call; the rest of each
    term comes from the (s, n) table (``_zeta_rows``), and a term is
    coef[k] exp(k lambda + offset[k]) n!.

    s - k >= -0.5 uses Euler-Maclaurin directly, with lambda = log L.  Below
    that the reflection formula
    zeta(z) = 2^z pi^(z-1) sin(pi z / 2) Gamma(1-z) zeta(1-z) maps to
    1 - s + k, away from the pole that the sin factor cancels at s - k = 0.
    The log of 2^z pi^(z-1) Gamma(1-z) L^k / k! at z = s - k is
    s log 2pi - log pi + k (log L - log 2pi) + [lgamma(k+1-s) - lgamma(k+1)]:
    lambda = log(L / 2pi), and the exponent also carries s log 2pi - log pi.
    DomainError for n > MAX_DERIV; CapabilityError naming s, n and the
    first such k where a term passes float range (at s = 0.5, L = log 2
    from n = 155 on), with no numpy warning.
    """
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s!r}")
    if n > MAX_DERIV:
        raise DomainError(f"zeta derivative of order {n}: {n}! passes float range")
    ks = np.atleast_1d(np.asarray(k, dtype=np.int64))
    if ks.size and ks.min() < 0:
        raise DomainError("k must be >= 0")
    if np.any(s - ks == 1.0):
        raise DomainError("zeta has a pole at s = 1")
    rows = _zeta_rows(s, n, int(ks.max()) + 1 if ks.size else 0)
    log_ratio = (log_L - _LOG_2PI) - _LOG_2PI_LO  # log(L / 2pi)
    expo = np.where(ks < rows.k_r, ks * log_L, (s * _LOG_2PI - _LOG_PI) + ks * log_ratio)
    # a term past float range is raised below, not returned as inf
    with np.errstate(over="ignore", invalid="ignore"):
        out = rows.coef[ks] * np.exp(expo + rows.offset[ks])
        out *= math.factorial(n)  # n! folded into coef would move direct rows' bits
    finite = np.isfinite(out)
    if not finite.all():
        k_bad = int(ks[np.argmin(finite)])
        raise CapabilityError(
            f"zeta^({n})(s - k) L^k / k! at s={s:g}, n={n}, k={k_bad} passes float range"
        )
    return float(out[0]) if np.ndim(k) == 0 else out


def reference_lerch_direct(t: float, s: float, n: int) -> float:
    total = 0.0
    k0 = 0
    block = 2048
    logt = math.log(t)
    while k0 < DIRECT_SUM_CAP:
        ks = np.arange(k0, k0 + block, dtype=float)
        tk = np.exp(ks * logt)
        kp1 = ks + 1.0
        power = kp1 ** (-s)
        terms = tk * power
        huge = np.isinf(power)  # s < 0: (k+1)^-s overflows before t^k damps it
        if huge.any():
            terms[huge] = np.exp(ks[huge] * logt - s * np.log(kp1[huge]))
        if n:
            terms = terms * (-np.log(kp1)) ** n
        total += float(terms.sum())
        if not math.isfinite(total):
            return total  # lerch_phi reports the overflow
        tail_scale = float(np.abs(terms[-8:]).max())
        if tail_scale < 1e-17 * max(abs(total), 1e-300):
            return total
        k0 += block
        block = min(2 * block, 1 << 16)
    raise ConvergenceBudgetError(
        f"direct sum at t={t!r}, s={s:g}, n_deriv={n} still above its stopping "
        f"rule after {DIRECT_SUM_CAP} terms (t too close to 1)"
    )


def reference_t_phi_boundary_value(s: float, n: int, L: float) -> float:
    """Value of (d/ds)^n [t Phi(t, s, 1)] at L = log(1/t) via the boundary
    formula, |L| < 2 pi.

    Unlike the series object, every zeta term is assembled in log space with
    L^k/k! folded in, so the sum stays accurate out to L near 2 pi where the
    bare coefficients underflow float64.  The terms decay like (L/2pi)^k and
    are added in order of k, in whole blocks; the sum stops after the first
    block whose last five terms are each below 1e-18 of the total.  Raises
    ConvergenceBudgetError if no block has met that rule by
    k = BOUNDARY_SUM_CAP, and CapabilityError where the singular part, one
    of its coefficients or a zeta term passes float range.
    """
    if not math.isfinite(s):
        raise DomainError("s must be finite")
    if not (0.0 < L < TWO_PI):
        raise CapabilityError(
            f"boundary expansion valid for 0 < L < 2*pi; got L={L:.3f} (use direct)"
        )
    logL = math.log(L)
    power, coeffs, skip = _boundary_singular_part(s, n)
    try:
        total = sum(c * logL ** j for j, c in enumerate(coeffs)) * L ** float(power)
    except OverflowError:
        # an exact Gamma(1-s) coefficient or L^(s-1) beyond float64
        raise CapabilityError(
            f"singular part at s={s:g}, n_deriv={n}, L={L:.6g} overflows float64"
        ) from None
    # regular terms in blocks of k, each block added in order of k; the sum
    # stops after the first block whose last five terms are each below 1e-18
    # of the total, less than half an ulp of it.  The terms fall like
    # (L/2pi)^k, and the first block reaches 1.6 times the k where that is
    # 1e-18, so one block is the rule.  Measured against blocks doubling
    # from 64, which give the same bits: the benchmark's 72 boundary sums
    # take 5.2-8.0 ms warm here against 6.4-11 ms (2-core VM)
    k0 = 0
    block = max(64, math.floor(1.6 * math.log(1e-18) / math.log(L / TWO_PI)) + 16)
    while k0 <= BOUNDARY_SUM_CAP:
        _, terms = _zeta_terms(s, np.arange(k0, min(k0 + block, BOUNDARY_SUM_CAP + 1)),
                               n, skip, logL)
        for term in terms.tolist():
            total += term
        if np.all(np.abs(terms[-5:]) < 1e-18 * max(abs(total), 1e-30)):
            return total
        k0 += block
        block *= 2
    raise ConvergenceBudgetError(
        f"boundary sum at s={s:g}, n_deriv={n}, L={L:.6g} still above its "
        f"stopping rule after {BOUNDARY_SUM_CAP} terms (L too close to 2*pi)"
    )


def _bits(fn, *args, **kwargs):
    """The exact bits a call returns, or the type and text of the typed
    error it raises; numpy's overflow is the caller's to report."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            value = fn(*args, **kwargs)
        except (DomainError, CapabilityError, ConvergenceBudgetError) as exc:
            return type(exc).__name__, str(exc)
    return np.asarray(value, dtype=float).tobytes()


def _reference_bits(s, ks, n, log_L):
    """The reference's bits from a fresh (s, n) table."""
    with mock.patch.dict(_tables, clear=True):
        return _bits(reference_zeta_deriv_over_factorial, s, ks, n, log_L=log_L)


S_VALUES = (
    [-0.5 - i for i in range(21)]
    + [float(m) for m in range(31)]
    + [m + 1e-6 for m in range(31)]
    + [7.3, -150.5]
)


@st.composite
def histories(draw):
    """Requests (s, n, ks, log_L) on one to three values of s, with the
    orders rising and falling and 1..3000 rows asked."""
    pool = draw(st.lists(st.sampled_from(S_VALUES), min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(1, 3000))
        step = draw(st.integers(1, 7))
        ks = np.arange(size - 1, -1, -step) if draw(st.booleans()) else np.arange(size)
        log_L = draw(st.floats(math.log(0.05), math.log(6.2)))
        out.append((draw(st.sampled_from(pool)), draw(st.integers(0, 12)), ks, log_L))
    return out


@settings(derandomize=True, max_examples=100, deadline=None)
@given(histories(), st.sampled_from([special._TABLE_BUDGET, 50_000]))
def test_zeta_terms_match_fresh_reference_tables_under_any_history(history, budget):
    with mock.patch.object(special, "_tables", collections.OrderedDict()), \
            mock.patch.object(special, "_TABLE_BUDGET", budget):
        for s, n, ks, log_L in history:
            pole = int(s) - 1 if s == int(s) and 1 <= s <= ks.max() + 1 else None
            assert _bits(zeta_deriv_over_factorial, s, ks, n, log_L=log_L) == \
                _reference_bits(s, ks, n, log_L)
            if pole is not None:
                # the call above raised at the pole; the rows around it do not
                ks = ks[ks != pole]
                assert _bits(zeta_deriv_over_factorial, s, ks, n, log_L=log_L) == \
                    _reference_bits(s, ks, n, log_L)
                rows = special._tables[s]
                assert rows.order >= n and np.isnan(rows.coef[pole]).all()
            scalar = int(ks[len(ks) // 2]) if len(ks) else 0
            assert _bits(zeta_deriv_over_factorial, s, scalar, n, log_L=log_L) == \
                _reference_bits(s, scalar, n, log_L)


@pytest.mark.parametrize("s, k, n", [
    (math.inf, 0, 0), (-math.inf, 3, 1), (math.nan, 0, 2), (2.0, -1, 0), (2.0, 1, 0),
    (3.0, np.arange(5), 2), (0.5, 0, MAX_DERIV + 1), (0.5, np.arange(50), 160), (-150.5, 3000, 0),
])
def test_typed_errors_match_the_reference(s, k, n):
    with mock.patch.object(special, "_tables", collections.OrderedDict()):
        got = _bits(zeta_deriv_over_factorial, s, k, n, log_L=math.log(6.2))
    want = _reference_bits(s, k, n, math.log(6.2))
    assert isinstance(want, tuple) and got == want


@pytest.mark.parametrize("t", [1e-5, 0.01, 0.5, 0.99, 0.9995])
@pytest.mark.parametrize("s", [-160.5, -150.0, -1.5, 0.5, 2.0])
@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_direct_sum_matches_reference(t, s, n):
    # s <= -150 takes the huge branch; at t = 0.9995 several blocks run
    assert _bits(asymptotics._lerch_direct, t, s, n) == _bits(reference_lerch_direct, t, s, n)


@pytest.mark.parametrize("t, s, n", [(0.9, 0.5, 301), (0.9, 0.5, 320), (0.9, 0.5, 300),
                                     (5e-324, 2.0, 1), (0.3, -40.0, 2)])
def test_direct_sum_matches_reference_at_its_edges(t, s, n):
    # zero rows of either sign after many blocks; rows whose log factor
    # overflows, where every row is computed; a subnormal t
    assert _bits(asymptotics._lerch_direct, t, s, n) == _bits(reference_lerch_direct, t, s, n)


@pytest.mark.parametrize("L", [0.05, 1.0, 4.0, 6.2, 6.28])
@pytest.mark.parametrize("s", [-2.0, -1.5, 0.5, 1.0, 2.0, 27.000001])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_boundary_sum_matches_reference(L, s, n):
    assert _bits(asymptotics.t_phi_boundary_value, s, n, L) == \
        _bits(reference_t_phi_boundary_value, s, n, L)
