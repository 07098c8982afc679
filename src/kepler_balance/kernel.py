"""Moments, the weighted Bergman kernel diagonal F(t), and the balanced defect.

F(t) = sum_k N(k) / c_{k+n-2} * t^k, where N(k) counts the degree-k
holomorphic components and c_k are the moments of the density phi against
t^k on (0, 1).  For the phi_v germ family everything also has closed forms,
which the series path is cross-checked against.

The layer takes a ``Density`` (``phi_v_density``, ``associated_density``
or ``Density(...)``); anything else raises CapabilityError.
``associated_density`` is the one factory from a profile: phi_v for the
phi_v candidate, f itself for constant_one, the constant s^3 for the
Poincare solution at n = 2 (it solves W_2[f] = 1), and W_n[f] otherwise,
with its exponent at t = 0 worked out from W_n[g_m] = t^(1 - n/m)
(CapabilityError where none is known).
``Density.moment(k)`` reads c_k with its error bound, and
``Density.sign_changing`` says whether phi is negative at some node, read
off the node values ``calibrate`` computes.  ``estimate_c`` gives ``--c
auto`` its c in closed form from boundary data, 2n (-f'(1))^(n+1) / phi(1)
with f'(1) read off the profile's L-series.  ``defect_table`` is the one
loop over t: it gives F and the balanced defect per t to
``balanced_defect`` and to the CLI's ``kernel`` subcommand, and it is the
one place that warns (SignedDensityWarning, naming the density) when the
density is sign-changing.

A density takes its moments on one of two paths, and the one switch is
whether it carries an exact form: terms (a, p, j) of
phi = sum a t^p log(1/t)^j, a complex p standing for its term plus the
conjugate term.
* Forms.  ``phi_v_density`` gives every phi_v its form
  (``profiles.phi_v_form``): two real powers for v > 1e-6, t^(-1/4) times
  the log polynomial ``phi_v`` evaluates for |v| <= 1e-6, and a conjugate
  pair for v < -1e-6.  ``associated_density`` gives constant_one its scale s
  and W_n of explicit_n s^(n+1) t^(1 - n/m).  That covers every density the
  CLI builds but the Poincare one, the constant s^3, which keeps
  quadrature: the direct sum truncates at 1e-14 of F, and at t = 0.7495 (the
  grid 0.001:0.999:5) exact moments round F one ulp further from
  (1 + 3t)/(1 - t)^3, past 1e-14.  A form gives
  c_k = sum a j!/(k+1+p)^(j+1), filled in the aligned blocks below, with
  the bound (u = eps/2, n terms)
      u (n + j_max + 4) sum |term| + u sum (j+1) |term| (k+1+|p|)/|k+1+p|.
  The first part counts the roundings of a j!, of the j + 1 divisions, of
  the sum over the terms and of a complex division.  The second is one
  rounding of k+1+p, which also covers half an ulp of error in p itself.
  A c_k that is 0 or subnormal raises DomainError naming the density.  A
  form density builds no powers and picks no level: ``calibrate`` only
  evaluates phi on the level-``_MIN_LEVEL`` nodes, so the non-finite and
  vanishing checks and the sign flag read the values quadrature reads there.
* Quadrature, for a density built from its values alone
  (``Density(fn, p0)``): tanh-sinh quadrature over a fixed node set shared
  across k.  Each entry carries an observed error bound: its difference from
  the level-(L-1) rule, whose nodes are a subset of the level-L set, taken
  through a second weight column.  The nodes carry l = log t with the exact
  1 - t near t = 1 (``quadrature``), and t^k is taken as exp(k l), never as a
  running product of rounded t, so no error builds up with k.

Either way a density fills its cache, a contiguous prefix
k_min..k_min+len-1 held as two lists (values, error bounds), in aligned
blocks of ``_BLOCK`` = 64: block j covers k0 = k_min + 64 j through k0 + 63
(the last is cut at ``HARD_TERM_CAP``).  A form computes each c_k on its
own.  On quadrature a block is the product
(Q * exp(k0 l)) @ W, with Q = exp(outer(0..63, l)) memoised per level and W
the two weighted-density columns (one product up to level 9, a sum over
chunks of ``_COLUMNS`` nodes above).  exp(0 l) is exactly 1, so the block
at k0 = 0 is Q @ W, with the same bits and no scaling pass.  Nodes whose
exp(k0 l) is below 1e-300 are a leading slice of the sorted table and are
left out.  Every fill computes whole blocks of that shape: BLAS can round a
row differently in a product of another shape, and whole aligned blocks
keep each c_k's bits a function of k and the level only.  They depend
neither on the block shape a caller's k_max would give nor on the core
count: a product split across OpenBLAS threads gives the bits of one
thread (the package pins one thread unless the caller chose; tier-1
compares 1 and 2 threads at levels 6 and 12).

A quadrature density chooses its node level once, as the coarsest from
``_MIN_LEVEL`` = 6 whose probes c_k, k = k_min + ``_PROBES``, differ from
the level-(L-1) rule by at most ``_CALIBRATION_RTOL`` = 1e-14 relative.
The probes come from the first block, which the cache keeps.  No caller's
argument reaches the moments, so their bits never depend on evaluation order.

``kernel_series`` has two paths, chosen by one switch.

* Direct (``_kernel_direct``): the terms are summed until the tail bound
  drops under the target below.  That takes ~1/(1-t) terms, each with its
  own moment; N(k) = C(k+n-1, n-1) + C(k+n-2, n-1) is carried from term to
  term as two exact ints.
* Kummer split (``_kernel_kummer``), taken when n = 2, the density carries
  its L-expansion at t = 1 (``Density.l_series``) and L = -log t <
  ``KUMMER_L`` = 0.1.  Below that cut the terms of the folded
  L-series fall like (L/2 pi)^k <= 0.016^k; a wider one would put the
  split's set-up on single points of fresh densities at t = 0.9
  (L = 0.105), where the direct sum is cheaper.  The
  expansion gives 1/c_k = (k+1) sum_m A_m (k+1)^-m
  (``asymptotics.a_m_from_l_series``).  With P_M(k) = (2k+1)(k+1) sum_{m<=M} A_m
  (k+1)^-m and M = ``KUMMER_M`` = 10,
      F(t) = sum_{m<=M} A_m [2 Phi(t, m-2) - Phi(t, m-1)]
             + sum_k [N(k)/c_k - P_M(k)] t^k.
  The first part is sum_s w_s Phi(t, s) over s = -2..9, which the split
  folds once into closed forms (``_KummerSplit``): a rational part in
  1/(1-t), and one power series in L and one L^j log L polynomial summed
  from the Lerch layer's boundary series at s >= 1
  (``asymptotics.t_phi_boundary_series``).  A point makes no Lerch call.
  The remainder terms fall like
  (k+1)^(1-M), so its sum converges at t = 1 itself and needs only tens of
  moments.  The A_m, the folded singular part and the remainder
  coefficients are built on a density's first near-boundary call and
  cached on it; each t then costs three Horner passes and two logs.  The
  chain from the L-series to the A_m runs in exact rationals (a float
  coefficient converts exactly), so ``reciprocal_moments``' product check
  holds and every series a density carries is used.

Neither path takes a tolerance: each stops where its truncation falls
below the accuracy its moments already carry, ``_CALIBRATION_RTOL`` times
S = sum |term|, the scale of both the final sum's rounding and its moment
error.  The direct path keeps S beside its running total.  The Kummer path
takes S over the folded parts of the singular sum, which it computes
first (``_KummerSplit.singular``), and its remainder stops at the first K
whose tail model is under that target: the omitted A_{M+1}, A_{M+2} terms,
summed over k > K with t^k <= t^(K+1) and a safety factor of 10.
``KernelEval.tail_bound`` is absolute on both paths; on the Kummer path it
is that model plus
sum_{k<=K} [N(k) err_k / c_k^2 + 4 eps (N(k)/c_k + |P_M(k)|)] t^k, the
propagated moment bounds and the rounding of each remainder coefficient,
plus the truncation of the singular part's L-series.
Neither path's bound counts the rounding of the final sum (~1e-16 of S).
"""

from __future__ import annotations

import math
import threading
import warnings
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .asymptotics import TWO_PI, a_m_from_l_series, t_phi_boundary_series
from .errors import (
    CapabilityError,
    ConvergenceBudgetError,
    DivergenceError,
    DomainError,
    SignedDensityWarning,
)
from .profiles import (
    RadialProfile,
    density_in_L,
    m_delta_from_v,
    monge_ampere_density,
    phi_v,
    phi_v_form,
    phi_v_l_series,
    require_dimension,
)
from .quadrature import MAX_LEVEL, T_FLOOR, nodes_up_to
from .series import PowerLogSeries

HARD_TERM_CAP = 10 ** 6
# moments are filled in aligned blocks of this many (module docstring)
_BLOCK = 64
# a node whose exp(k0 l) is below e^_LOG_DEAD adds nothing to block k0
_LOG_DEAD = math.log(1e-300)
# node columns per product in a block, which bounds its temporary to 4 MB
# (one product up to level 9; Q * exp(k0 l) takes 25 MB at level 12)
_COLUMNS = 8192
# calibrate accepts the coarsest level from _MIN_LEVEL whose probe moments
# (k_min + _PROBES) differ from the level-(L-1) rule by at most this, relative
_MIN_LEVEL = 6
_CALIBRATION_RTOL = 1e-14
_PROBES = (0, 7, 63)
# Kummer split near t = 1, taken for -log t < KUMMER_L (module docstring)
KUMMER_L = 0.1
KUMMER_M = 10
_KUMMER_MIN_TERMS = 16
_KUMMER_SAFETY = 10.0
# the singular part's power series in L runs through this power; its terms
# fall like (L/2 pi)^k, below 0.016^k for L < KUMMER_L
_KUMMER_L_ORDER = 16
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def dimension_count(k: int, n: int) -> int:
    """N(k) = C(k+n-1, n-1) + C(k+n-2, n-1); for n = 2 this is 2k + 1."""
    if k < 0:
        raise DomainError("k must be >= 0")
    if n < 2:
        raise DomainError("n must be >= 2")
    return math.comb(k + n - 1, n - 1) + math.comb(k + n - 2, n - 1)


def _k_min_from_exponent(p0) -> int:
    """Smallest integer k with k + p0 > -1 (finite moment)."""
    return max(0, math.floor(-float(p0) - 1) + 1)


@dataclass
class KernelEval:
    """One kernel-diagonal value with truncation metadata.

    ``path`` is "direct" or "kummer"; on the Kummer path ``terms_used``
    counts the remainder terms and ``tail_bound`` is the remainder bound.
    """

    t: float
    value: float
    terms_used: int
    tail_bound: float
    path: str = "direct"


# Q per level, held weakly: it lives while some density at that level does
_BLOCK_POWERS = weakref.WeakValueDictionary()
# builds the entries of the module's caches, _BLOCK_POWERS and _PHI_V_DENSITIES
_caches_lock = threading.Lock()


def _block_powers(level: int):
    """Q = exp(outer(0.._BLOCK-1, l)) on the level's unfloored node table.

    Built in place on first use and kept only while a density at ``level``
    holds it: Q takes 25 MB at level 12, and the levels that calibration
    tries and moves past free theirs.
    """
    with _caches_lock:
        q = _BLOCK_POWERS.get(level)
        if q is None:
            q = np.multiply.outer(np.arange(_BLOCK, dtype=float), nodes_up_to(level, 0.0)[2])
            np.exp(q, out=q)
            q.flags.writeable = False
            _BLOCK_POWERS[level] = q
    return q


class Density:
    """A density on (0, 1) with a known endpoint exponent at t = 0.

    ``fn`` is vectorized; ``origin_exponent`` p0 means phi(t) ~ C t^p0
    (possibly times logs) as t -> 0, which fixes which moments exist.
    ``form``, when given, is phi's exact form, terms (a, p, j) of
    a t^p log(1/t)^j with Re p >= p0 (a complex p stands for the term plus
    its conjugate); ``phi_v_density`` and ``associated_density`` attach one
    to every density they build but the Poincare one.  The moments are
    then the form's, each with a bound of n + j_max + 4 half-ulps of
    sum |term| over its n terms plus one rounding of k+1+p (module
    docstring), and phi is only checked on the level-``_MIN_LEVEL``
    nodes.  Without a form the moments come from quadrature.
    Moment values are cached as a contiguous prefix from k_min, in two
    lists indexed by k - k_min (values and error bounds), filled in aligned
    blocks of ``_BLOCK`` (module docstring).  ``calibrate`` runs once per
    density: with a form it evaluates phi on the level-``_MIN_LEVEL``
    nodes; without one it picks the node level of the exact powers
    exp(k l) against ``_CALIBRATION_RTOL`` and keeps its probe block.
    ``sign_changing`` is read off those node values: phi < 0 at some node,
    so phi is not a nonnegative volume element.

    ``l_series``, when given, maps an order to phi's L-expansion at t = 1
    (a log-free PowerLogSeries in integer powers of L with a nonzero constant
    term); it is called only on the first near-boundary kernel value, which
    then takes the Kummer split.

    A density may be shared between threads.  One re-entrant lock is held
    wherever the level changes or a cache grows: ``calibrate``, the fill of
    ``moments_block``, and the build and growth of the Kummer split.
    A reader calls ``moments_block`` first, which calibrates; the lists only
    grow after that, so a read of an entry already filled takes no lock.
    """

    def __init__(self, fn, origin_exponent, label="density", l_series=None, form=None):
        self.fn = fn
        self.origin_exponent = origin_exponent
        self.label = label
        self.l_series = l_series
        self.form = None if form is None else tuple(form)
        self._kummer = None  # _KummerSplit, built on first use
        self._lock = threading.RLock()
        self.k_min = _k_min_from_exponent(origin_exponent)
        # keep only nodes whose truncated mass ~ t_floor^(k_min+p0+1) is
        # below roundoff
        margin = self.k_min + float(origin_exponent) + 1.0
        t_floor = 10.0 ** (-16.0 / max(margin, 0.064))
        self.t_floor = float(min(max(t_floor, T_FLOOR), 1e-16))
        self._level = None
        self._nodes = None  # (l, Q, W) on the floored nodes; W = [w phi, w_prev phi]
        self._negative = None  # phi < 0 at some node
        self._c = []  # c_k for k = k_min + i
        self._err = []  # its observed error bound

    def __repr__(self):
        return f"Density({self.label}, p0={self.origin_exponent}, k_min={self.k_min})"

    # -- node machinery -------------------------------------------------

    def _node_values(self, level):
        """The level's nodes above the floor and phi there, which set the
        sign flag; DomainError where phi is not finite or vanishes there."""
        t, w, ell, w_prev = nodes_up_to(level, t_floor=self.t_floor)
        phi = np.asarray(self.fn(t), dtype=float)
        if not np.isfinite(phi).all():
            raise DomainError(f"{self.label}: non-finite density values on the node set")
        if not phi.any():
            # every moment would be 0, and F = sum N(k)/c_k t^k undefined
            raise DomainError(f"{self.label}: the density vanishes on the node set")
        self._negative = bool((phi < 0.0).any())
        return w, ell, w_prev, phi

    def _setup(self, level):
        w, ell, w_prev, phi = self._node_values(level)
        weights = np.stack([w * phi, w_prev * phi], axis=1)
        # drop the last level's Q before this level's is built; the floor cut
        # is a leading slice of the table, and so of Q's columns
        self._nodes = None
        q = _block_powers(level)[:, -len(ell):]
        self._level = level
        self._nodes = (ell, q, weights)
        self._c, self._err = [], []

    def calibrate(self):
        """Pick the node level: the coarsest from ``_MIN_LEVEL`` whose probe
        moments settle within ``_CALIBRATION_RTOL`` of |c_k|.  The probes come
        from the cache's own first block, which stays filled through k_min + 63.
        A density with a form only checks phi on the ``_MIN_LEVEL`` nodes."""
        with self._lock:
            if self._level is not None:
                return
            if self.form is not None:
                self._node_values(_MIN_LEVEL)
                self._level = _MIN_LEVEL
                return
            for level in range(_MIN_LEVEL, MAX_LEVEL + 1):
                self._setup(level)
                self.moments_block(self.k_min + _PROBES[-1])
                if all(self._err[i] <= _CALIBRATION_RTOL * abs(self._c[i]) for i in _PROBES):
                    return

    @property
    def sign_changing(self) -> bool:
        """Whether phi is negative at some node of the calibrated level."""
        self.calibrate()
        return self._negative

    def moment(self, k):
        """c_k with an observed error bound; DivergenceError below k_min.

        The entry is read through ``moments_block``, which calibrates first
        and fills it if missing, so the bits of c_k never depend on which
        call computed it first, nor does a reader see a calibration probe.
        """
        if k < self.k_min:
            raise DivergenceError(
                f"moment c_{k} of {self.label} diverges (k_min={self.k_min})",
                k_min=self.k_min,
            )
        self.moments_block(k)
        i = k - self.k_min
        return self._c[i], self._err[i]

    def moments_block(self, k_max):
        """Fill the cache for all finite k <= k_max, in whole aligned blocks.

        Each block k0..k0+63 (k0 = k_min + 64 j) is a product of exact
        powers (module docstring); the cache stops at the end of the block
        holding k_max, or at c_HARD_TERM_CAP.  ConvergenceBudgetError,
        before any work, when k_max > HARD_TERM_CAP.
        """
        if k_max > HARD_TERM_CAP:
            raise ConvergenceBudgetError(
                f"moment c_{k_max} of {self.label} is past the cap k <= {HARD_TERM_CAP}"
            )
        with self._lock:
            self.calibrate()
            fill = self._quadrature_block if self.form is None else self._form_block
            while (k0 := self.k_min + len(self._c)) <= k_max:
                values, bounds = fill(k0)
                last = HARD_TERM_CAP - k0 + 1
                # the bounds first: a reader that finds c_k unlocked finds its bound
                self._err.extend(bounds[:last].tolist())
                self._c.extend(values[:last].tolist())

    def _quadrature_block(self, k0):
        """c_k and the observed bounds, k = k0..k0+63: one product of exact
        powers (module docstring)."""
        ell, q, weights = self._nodes
        # exp(k0 l) < 1e-300 on a leading slice: l is sorted and k0 >= 0
        lo = int(np.searchsorted(ell, _LOG_DEAD / k0)) if k0 > 0 else 0
        block = np.zeros((_BLOCK, 2))
        for c0 in range(lo, len(ell), _COLUMNS):
            cols = slice(c0, c0 + _COLUMNS)
            # exp(0 l) is exactly 1: block 0 is Q @ W (module docstring)
            scaled = q[:, cols] * np.exp(k0 * ell[cols]) if k0 else q[:, cols]
            block += scaled @ weights[cols]
        return block[:, 0], np.abs(block[:, 0] - block[:, 1])

    def _form_block(self, k0):
        """c_k = sum_i a_i j_i!/(k+1+p_i)^(j_i+1), k = k0..k0+63, from the
        form, with the bound of the module docstring.  DomainError, naming
        the density, at a c_k that is 0 or subnormal."""
        k1 = np.arange(k0 + 1, k0 + 1 + _BLOCK, dtype=float)  # k + 1, exact
        values, size, shift = np.zeros(_BLOCK), np.zeros(_BLOCK), np.zeros(_BLOCK)
        for a, p, j in self.form:
            x = k1 + p
            term = a * math.factorial(j) / x
            for _ in range(j):
                term = term / x
            mag = np.abs(term)
            if isinstance(p, complex):  # the term plus its conjugate
                term, mag = 2.0 * term.real, 2.0 * mag
            values += term
            size += mag
            # one rounding of k+1+p, of at most half an ulp of k+1+|p|
            shift += (j + 1) * mag * (k1 + abs(p)) / np.abs(x)
        small = np.abs(values) < _TINY
        if small.any():
            i = int(np.argmax(small))
            raise _zero_moment(self, k0 + i, values[i])
        # half-ulps: a_i j_i!, j_i + 1 divisions, the sum over the terms, and
        # 2 for a complex division
        ulps = len(self.form) + max(j for _a, _p, j in self.form) + 4
        return values, 0.5 * _EPS * (ulps * size + shift)


# one density per v: a v asked for again keeps its node check, its moments
# and its Kummer split, the exact A_m chain and its fold.  kernel-boundary
# asks for v = 1 five times; without this cache its wall_s went from 0.018
# to 0.021 s (five alternating runs, 2-core VM)
_PHI_V_DENSITIES = {}


def phi_v_density(v) -> Density:
    """phi_v as a Density with its exact form (cached per v).

    For every v < 1, phi_v is negative near t = 0 (for 0 < v < 1 its leading
    coefficient there is -(1 - sqrt v)/(2 sqrt v)): such a density is
    integrable, and its node values flag it ``sign_changing``.
    """
    key = float(v)
    with _caches_lock:
        dens = _PHI_V_DENSITIES.get(key)
        if dens is None:
            p0, l_series = -0.25, None
            if v >= 0:
                p0 = (-1.0 - math.sqrt(float(v))) / 4.0
                l_series = lambda order, v=v: phi_v_l_series(Fraction(v), order)
            dens = Density(lambda t, v=v: phi_v(v, t), p0, label=f"phi_{v}", l_series=l_series,
                           form=phi_v_form(v))
            _PHI_V_DENSITIES[key] = dens
    return dens


def _monge_ampere_exponent(p: RadialProfile, n: int):
    """p0 with W_n[f] ~ C t^p0 at t = 0: W_n[g_m] = t^(1 - n/m) for explicit_n
    (W_n[s f] = s^(n+1) W_n[f])."""
    if p.kind == "explicit_n":
        return 1.0 - n / p.params["n"]
    raise CapabilityError(
        f"no known endpoint exponent for W_{n}[f] of kind {p.kind!r}; "
        "construct the Density explicitly"
    )


def _scale_power(s: float, e: int) -> float:
    """s^e correctly rounded, or an infinity past float range: the density's
    node values are then not finite either, and its check names it."""
    num, den = s.as_integer_ratio()
    try:
        return num ** e / den ** e  # int true division rounds correctly
    except OverflowError:
        return math.copysign(math.inf, s) if e % 2 else math.inf


def associated_density(p: RadialProfile, n: int = 2) -> Density:
    """The density paired with the profile in the balanced identity.

    The phi_v candidate was built against its germ phi_v (the kernel moments
    in its defining identity are phi_v moments, not moments of its own W);
    constant_one is itself the density (W[1] vanishes identically); the
    Poincare solution solves W_2[f] = 1, so at n = 2 its density is the
    constant s^3 (s the profile's scale), exactly, on all of (0, 1]; other
    kinds pair with their Monge-Ampere density W_n[f], whose exponent at
    t = 0 is worked out by ``_monge_ampere_exponent`` (CapabilityError
    where it is not known), and whose L-series at t = 1 is
    ``density_in_L`` of the profile's.  Every density but the Poincare one
    carries its exact form (module docstring).
    DomainError unless n is an integer >= 2.
    """
    require_dimension(n)
    if p.kind == "phi_v_candidate":
        return phi_v_density(p.params["v"])
    if p.kind == "constant_one":
        return Density(lambda t: p.eval(t)[0], 0.0, label="f[constant_one]",
                       l_series=p.l_series, form=((p.scale, 0.0, 0),))
    if p.kind == "poincare_numeric" and n == 2:
        s3 = _scale_power(p.scale, 3)
        return Density(lambda t: np.full(np.shape(t), s3), 0.0,
                       label="W_2[poincare_numeric]",
                       l_series=lambda order: PowerLogSeries.const(Fraction(s3), order))
    p0 = _monge_ampere_exponent(p, n)
    # explicit_n, the one kind with a known exponent: W_n[s g_m] = s^(n+1) t^p0
    return Density(lambda t: monge_ampere_density(p, n, t), p0, label=f"W_{n}[{p.kind}]",
                   l_series=lambda order: density_in_L(p.l_series(order + 1), n),
                   form=((_scale_power(p.scale, n + 1), p0, 0),))


def _require_density(obj) -> Density:
    if not isinstance(obj, Density):
        raise CapabilityError(f"expected a Density, got {type(obj).__name__}")
    return obj


def moment_phi_v_closed(v, k: int):
    """Closed-form moment of phi_v: (2k+1)/((2k+2m+2delta+1)(k+1-m-delta)).

    Exact rational whenever sqrt(v) is rational.  Only established for
    v >= 0; diverges for k < m.
    """
    if v < 0:
        raise CapabilityError("closed-form phi_v moments require v >= 0")
    m, delta = m_delta_from_v(v)
    if k < m:
        raise DivergenceError(f"moment diverges for k < m = {m}", k_min=m)
    num = 2 * k + 1
    den = (2 * k + 2 * m + 2 * delta + 1) * (k + 1 - m - delta)
    if isinstance(delta, Fraction):
        return Fraction(num) / Fraction(den)
    return num / den


def closed_form_F_phi_v(v, t):
    """Kernel diagonal for the phi_v density, in closed form (n = 2)."""
    if v < 0:
        raise CapabilityError("closed form established for v >= 0 only")
    m, delta = m_delta_from_v(v)
    m = float(m)
    delta = float(delta)
    scalar = np.isscalar(t)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t >= 1):
        raise DomainError("t must lie in [0, 1)")
    u = 1.0 - t
    num = 1.0 + 3.0 * t + 4.0 * m * u - delta * (4.0 * m + 2.0 * delta - 1.0) * u * u
    val = t ** m * num / u ** 3
    return float(val) if scalar else val


def kernel_series(dens: Density, n: int, t: float) -> KernelEval:
    """F(t) = sum_k N(k)/c_{k+n-2} t^k with a truncation bound.

    Takes the Kummer split when n = 2, the density has an L-series and
    -log t < KUMMER_L; the direct sum otherwise (module docstring).
    Either path truncates at ``_CALIBRATION_RTOL`` times the sum of its
    terms' magnitudes, the relative accuracy the moments carry.
    """
    require_dimension(n)
    if not (0.0 <= t < 1.0):
        raise DomainError("t must lie in [0, 1)")
    _require_density(dens)
    if n == 2 and t > 0.0 and -math.log(t) < KUMMER_L and _kummer_split(dens) is not None:
        return _kernel_kummer(dens, t)
    return _kernel_direct(dens, n, t)


def _kernel_direct(dens: Density, n: int, t: float) -> KernelEval:
    """Direct summation with a tail bound.

    Terms whose moment index falls below k_min contribute zero (the moment
    diverges, its reciprocal vanishes).  Truncation: terms are dominated by
    C (k+1)^n t^k; the tail is bounded with the exact generating function
    sum_k C(k+n, n) t^k = (1-t)^-(n+1) and summation stops once the bound
    drops under ``_CALIBRATION_RTOL`` times the running sum of |term|.  Each
    fill adds one aligned block of moments, so fewer than 64 are filled past
    the last one read.  ConvergenceBudgetError, naming n, where an integer
    of a term, N(k), (k+1)^n or n! C(k+1+n, n), passes float range (from
    n = 102 at t = 0.5).  DomainError, naming the density, where a moment
    it reads is 0 (its values underflow float64).
    ``kernel_series`` has checked n >= 2.
    """
    k_start = max(0, dens.k_min - (n - 2))
    if t == 0.0:
        if k_start == 0:
            c0, _e = dens.moment(n - 2)
            if c0 == 0.0:
                raise _zero_moment(dens, n - 2)
            return KernelEval(t=0.0, value=dimension_count(0, n) / c0, terms_used=1, tail_bound=0.0)
        return KernelEval(t=0.0, value=0.0, terms_used=0, tail_bound=0.0)

    # even ignoring the polynomial factor, t^K <= _CALIBRATION_RTOL needs K terms:
    k_floor = math.log(_CALIBRATION_RTOL) / math.log(t)
    if k_floor > HARD_TERM_CAP:
        raise ConvergenceBudgetError(
            f"kernel series at t={t} needs ~{k_floor:.3g} terms (cap {HARD_TERM_CAP})"
        )
    n_fact = math.factorial(n)
    total = 0.0
    size = 0.0  # sum of |term|
    cmax = 0.0
    tk = t ** k_start
    binom_next = math.comb(k_start + 1 + n, n)
    k = k_start
    # N(k) = a + b, a = C(k+n-1, n-1) and b = C(k+n-2, n-1), carried as exact
    # ints: dimension_count without its per-call checks
    a, b = math.comb(k + n - 1, n - 1), math.comb(k + n - 2, n - 1)
    # term k reads c_{k+n-2}, at index k + offset of the cache; a fill past
    # c_HARD_TERM_CAP raises ConvergenceBudgetError
    dens.moments_block(k_start + n - 2)
    c = dens._c
    offset = n - 2 - dens.k_min
    try:
        while True:
            if k + offset >= len(c):
                dens.moments_block(k + n - 2)
            ratio = (a + b) / c[k + offset]
            term = ratio * tk
            total += term
            size += abs(term)
            x = abs(ratio) / (k + 1) ** n
            if x > cmax:
                cmax = x
            # tail: terms <= cmax (k+1)^n t^k <= cmax n! C(k+n, n) t^k, and for
            # k > K the binomials grow no faster than q^(k-K-1), q = (K+2+n)/(K+2)
            q = t * (k + 2 + n) / (k + 2)
            if q < 1.0:
                tail = cmax * n_fact * binom_next * (tk * t) / (1.0 - q)
            else:
                tail = math.inf
            if (tail <= _CALIBRATION_RTOL * size or tk == 0.0) and k >= k_start + 8:
                return KernelEval(t=t, value=total, terms_used=k - k_start + 1, tail_bound=tail)
            k += 1
            tk *= t
            binom_next = binom_next * (k + 1 + n) // (k + 1)
            a, b = a * (k + n - 1) // k, a
    except OverflowError:
        # N(k), (k+1)^n or n! C(k+1+n, n) met a float past its range
        raise ConvergenceBudgetError(
            f"kernel series at n={n}, t={t}: the integers of term k={k} pass float range"
        ) from None
    except ZeroDivisionError:
        raise _zero_moment(dens, k + n - 2) from None


def _zero_moment(dens: Density, k: int, c: float = 0.0) -> DomainError:
    value = "0" if c == 0.0 else f"subnormal ({c:.3g})"
    return DomainError(f"{dens.label}: moment c_{k} is {value} (its values underflow float64)")


class _KummerSplit:
    """A density's Kummer-split data (n = 2): the A_m, the weights w_s of
    sum_s w_s Phi(t, s), s = -2..M-1, folded into closed forms, the omitted
    A_m of the tail model, and the remainder coefficients
    r_k = N(k)/c_k - P_M(k) with their error bounds, grown on demand.

    With u = 1 - t and L = -log t, the singular part is
        sum_s w_s Phi(t, s) = R(1/u) + [P(L) + log L Q(L)] / t.
    R is the rational part, from Phi(t, 0) = 1/u, Phi(t, -1) = 1/u^2 and
    Phi(t, -2) = (1 + t)/u^3 = 2/u^3 - 1/u^2; u is exact for t >= 1/2.  P
    and Q fold tPhi(t, s) = Li_s(e^-L) at s >= 1: the sum of w_s times the
    Lerch layer's boundary series (``asymptotics.t_phi_boundary_series``,
    L < 2 pi), with Q the L^j log L polynomial and P the power series, cut
    after L^``_KUMMER_L_ORDER``.
    """

    def __init__(self, dens: Density):
        M = KUMMER_M
        phi_L = dens.l_series(M + 2)
        if phi_L.coeff(0) == 0 or not phi_L.is_log_free() or any(
            not isinstance(a, int) for a, _j in phi_L.terms
        ):
            raise CapabilityError(
                f"{dens.label}: the L-series must be log-free in integer powers "
                "with a nonzero constant term"
            )
        try:
            A = [float(a) for a in a_m_from_l_series(phi_L, M + 2)]
        except OverflowError:
            raise DomainError(f"{dens.label}: an A_m passes float range (its values "
                              "are too small for float64)") from None
        self.A = A[: M + 1]
        # N(k)(k+1) sum_m A_m (k+1)^-m = sum_m A_m [2 (k+1)^(2-m) - (k+1)^(1-m)]
        w = [0.0] * (M + 2)  # w[s + 2]
        for m, a in enumerate(self.A):
            w[m] += 2.0 * a
            w[m + 1] -= a
        self.weights = [(i - 2, x) for i, x in enumerate(w) if x != 0.0]
        # R = ((r3/u + r2)/u + r1)/u, and the |w_s| of its three s for S
        self.rational = (2.0 * w[0], w[1] - w[0], w[2])
        self.rational_size = tuple(abs(x) for x in w[:3])
        positive = [(s, x) for s, x in self.weights if s >= 1]
        fold = sum(
            (t_phi_boundary_series(float(s), 0, _KUMMER_L_ORDER) * x for s, x in positive),
            PowerLogSeries.zero(_KUMMER_L_ORDER),
        )
        self.series = [float(fold.coeff(k)) for k in range(_KUMMER_L_ORDER + 1)]
        # the series is graded in log(1/L) = -log L
        self.log_poly = [-float(fold.coeff(j, 1)) for j in range(M - 1)]
        # |zeta(-n)| <= 2 zeta(2) n! / (2 pi)^(n+1), so term k > K of P is at
        # most 2 zeta(2) |w_s| (2 pi)^(s-1) (k-s)!/k! (L/2 pi)^k, and (k-s)!/k!
        # falls with k
        K = _KUMMER_L_ORDER
        self.l_tail = math.pi ** 2 / 3.0 * sum(  # 2 zeta(2)
            abs(x) * TWO_PI ** (s - 1) * math.factorial(K + 1 - s) / math.factorial(K + 1)
            for s, x in positive
        )
        self.omitted = [(m, abs(A[m])) for m in (M + 1, M + 2)]
        self.rem = []
        self.rem_err = []

    def singular(self, t: float):
        """sum_s w_s Phi(t, s) for 1/2 <= t < 1 and L < 2 pi, as (value, S,
        truncation of P).  S sums the magnitudes of the folded parts: the
        |w_s| Phi(t, s) of the rational part's s = -2, -1, 0, then |P(L)|/t
        and |log L Q(L)|/t."""
        u = 1.0 - t  # exact for t >= 1/2
        r3, r2, r1 = self.rational
        m2, m1, m0 = self.rational_size
        rational = ((r3 / u + r2) / u + r1) / u
        size = ((m2 * (1.0 + t) / u + m1) / u + m0) / u
        L = -math.log(t)
        p = 0.0
        for c in reversed(self.series):
            p = p * L + c
        q = 0.0
        for c in reversed(self.log_poly):
            q = q * L + c
        q *= math.log(L)
        x = L / TWO_PI
        truncation = self.l_tail * x ** (_KUMMER_L_ORDER + 1) / ((1.0 - x) * t)
        return rational + (p + q) / t, size + (abs(p) + abs(q)) / t, truncation

    def tail_model(self, t: float, K: int) -> float:
        """Safety factor times a bound on sum_{k>K} t^k sum_omitted 2 |A_m| (k+1)^(2-m):
        t^k <= t^(K+1) and the sum over k by its integral from K+1."""
        return _KUMMER_SAFETY * 2.0 * t ** (K + 1) * sum(
            a * (K + 1) ** (3 - m) / (m - 3) for m, a in self.omitted
        )

    def extend(self, dens: Density, K: int):
        """Remainder coefficients for k = 0..K, under the density's lock."""
        with dens._lock:
            if len(self.rem) > K:
                return
            dens.moments_block(K)
            for k in range(len(self.rem), K + 1):
                x = 1.0 / (k + 1)
                p = 0.0
                for a in reversed(self.A):
                    p = p * x + a
                poly = (2 * k + 1) * (k + 1) * p
                ratio, err = 0.0, 0.0  # a divergent moment's reciprocal vanishes
                if k >= dens.k_min:
                    ck, ek = dens.moment(k)
                    if ck == 0.0:
                        raise _zero_moment(dens, k)
                    ratio = (2 * k + 1) / ck
                    err = abs(ratio) * ek / abs(ck)
                self.rem.append(ratio - poly)
                self.rem_err.append(err + 4.0 * _EPS * (abs(ratio) + abs(poly)))


def _kummer_split(dens: Density):
    """The density's cached _KummerSplit, or None without an L-series."""
    with dens._lock:
        if dens._kummer is None and dens.l_series is not None:
            dens._kummer = _KummerSplit(dens)
        return dens._kummer


def _kernel_kummer(dens: Density, t: float) -> KernelEval:
    """Kummer split: the folded singular part plus the remainder sum (n = 2).

    The singular part comes first: its size S sets the remainder's target.
    """
    split = _kummer_split(dens)
    singular, size, truncation = split.singular(t)
    target = _CALIBRATION_RTOL * size
    K = _KUMMER_MIN_TERMS - 1
    while (model := split.tail_model(t, K)) > target:
        K += 1 + K // 8
        if K > HARD_TERM_CAP:
            raise ConvergenceBudgetError(
                f"Kummer remainder at t={t} needs more than {HARD_TERM_CAP} terms"
            )
    split.extend(dens, K)
    rem, err = 0.0, 0.0
    for k in range(K, -1, -1):
        rem = rem * t + split.rem[k]
        err = err * t + split.rem_err[k]
    return KernelEval(t=t, value=singular + rem, terms_used=K + 1,
                      tail_bound=model + err + truncation, path="kummer")


def defect_table(p: RadialProfile, n: int, c, ts, density: Density | None = None):
    """F(t) and the balanced defect F(t) - c / f(t)^(n+1) at each t of ``ts``.

    ``c`` may be "auto": ``estimate_c``, 2n (-f'(1))^(n+1) / phi(1).  The default
    density is ``associated_density(p, n)``: W[f] (the constant s^3 for a
    Poincare profile at n = 2), except for the phi_v candidate, which pairs
    with its defining germ phi_v, and constant_one, which is its own
    density; pass ``density`` to override.  A
    SignedDensityWarning names a ``sign_changing`` density.  Each F is a
    ``kernel_series`` value, truncated at the accuracy of its moments.  At
    t = 0 f is the limit f(0+).  Returns (c, F, defect): c as given or
    estimated, and one list of floats each for F and the defect, in the
    order of ``ts``.  Raises DomainError where f(t)^(n+1) is 0.
    """
    if c != "auto" and not math.isfinite(c):
        raise DomainError(f"c must be finite or 'auto', got {c!r}")
    dens = associated_density(p, n) if density is None else _require_density(density)
    if dens.sign_changing:
        warnings.warn(
            f"defect computed against {dens.label}, which is negative at some node: "
            "not a nonnegative volume element",
            SignedDensityWarning,
            stacklevel=3,
        )
    if c == "auto":
        c = estimate_c(p, n, density=dens)
    Fs, defects = [], []
    for t in ts:
        t = float(t)
        F = kernel_series(dens, n, t).value
        f = p.eval(t)[0] if t > 0 else _f_at_zero(p)
        f_power = f ** (n + 1)
        if f_power == 0:
            raise DomainError(f"f(t) = {f!r} at t = {t!r}: c / f(t)^{n + 1} is undefined")
        Fs.append(F)
        defects.append(F - c / f_power)
    return c, Fs, defects


def balanced_defect(p: RadialProfile, n: int, c, t, density: Density | None = None):
    """F(t) - c / f(t)^(n+1) at a scalar t (a float) or an array of t (an
    array), computed by ``defect_table`` with the same arguments."""
    _c, _F, defects = defect_table(p, n, c, np.atleast_1d(np.asarray(t, dtype=float)),
                                   density)
    return float(defects[0]) if np.isscalar(t) else np.array(defects)


def _f_at_zero(p: RadialProfile):
    """Limit f(0+) for kinds bounded at the origin."""
    if p.kind == "explicit_n":
        n = p.params["n"]
        return n / (n - 1.0) * p.scale
    if p.kind == "constant_one":
        return 1.0 * p.scale
    if p.kind == "phi_v_candidate":
        m, delta = m_delta_from_v(p.params["v"])
        if m > 0:
            raise DomainError("candidate with m > 0 blows up at t = 0")
        d0 = 1.0 - float(delta * (2 * delta - 1))  # D(0) with m = 0
        return 2.0 ** (2.0 / 3.0) * d0 ** (-1.0 / 3.0) * p.scale
    raise CapabilityError(f"f(0) unavailable for kind {p.kind!r}")


def estimate_c(p: RadialProfile, n: int, density: Density | None = None) -> float:
    """The boundary value c of f^(n+1) F, in closed form, against ``density``
    (default ``associated_density(p, n)``).

    Near t = 1, 1/c_(k+n-2) ~ k/phi(1) and N(k) ~ 2k^(n-1)/(n-1)!, so
    F ~ 2n/(phi(1) L^(n+1)) with L = -log t.  With f = a_0 + a_1 L + ...
    (``p.l_series``), a_0 = f(1) and a_1 = -f'(1), the limit is
    c = 2n a_1^(n+1)/phi(1).  DomainError when a_0 != 0 (f^(n+1) F then has
    no finite boundary value) or when phi(1) is 0 or not finite.
    """
    require_dimension(n)
    dens = associated_density(p, n) if density is None else _require_density(density)
    f_L = p.l_series(1)
    if f_L.coeff(0) != 0:
        raise DomainError(
            f"profile {p.kind!r} has no finite boundary value of f^(n+1) F at n = {n}: "
            f"f(1) = {float(f_L.coeff(0)):.6g} is not 0; supply c"
        )
    phi1 = float(dens.fn(1.0))
    if phi1 == 0.0 or not math.isfinite(phi1):
        raise DomainError(f"{dens.label} at t = 1 is {phi1!r}: no finite boundary c; supply c")
    return 2 * n * float(f_L.coeff(1)) ** (n + 1) / phi1
