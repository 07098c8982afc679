"""Double-exponential (tanh-sinh) quadrature on (0, 1).

Handles endpoint singularities t^p (p > -1), optionally with log factors,
without any integrand-specific treatment.  Nodes near t = 0 are generated as
e^(-2|y|) / (1 + e^(-2|y|)), so a small t keeps its full relative accuracy
down to the denormal range; near t = 1 the nodes round to 1.0, and 1 - t
is not kept.  ``nodes_up_to`` (by default) and ``integrate_01`` drop the
nodes below T_FLOOR.  Levels double the node density; a level-L total is
half the level-(L-1) total plus the new odd-multiple nodes, and the
integral is accepted once two consecutive levels agree within tolerance.

``nodes_up_to`` memoises each level's compound table before any floor
(read-only arrays, ~0.8 MB at level 12) and applies the ``t >= t_floor``
mask on every call.  A density that asks for its nodes again on each
moment fill gets the same nodes, in the same order, with the same bits,
without rebuilding them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceBudgetError

MAX_LEVEL = 12
_CUTOFF = 6.2  # |u| cap: y = (pi/2) sinh(6.2) ~ 390 pushes t to ~1e-340
T_FLOOR = 1e-250  # smallest node kept by default


@lru_cache(maxsize=None)
def _raw_nodes(level: int):
    """Node block for refinement ``level``: (t, w).

    Level 0 is the full trapezoid at h = 1; higher levels contain only the
    odd multiples of h = 2^-level (the nodes newly added by halving).
    Weights carry the factor h of their own level.
    """
    h = 2.0 ** (-level)
    if level == 0:
        js = np.arange(-int(_CUTOFF / h), int(_CUTOFF / h) + 1)
        u = js * h
    else:
        jmax = int(_CUTOFF / h)
        odd = np.arange(1, jmax + 1, 2)
        u = np.concatenate([-odd[::-1].astype(float), odd.astype(float)]) * h
    y = 0.5 * math.pi * np.sinh(u)
    ey = np.exp(-2.0 * np.abs(y))
    small = ey / (1.0 + ey)  # min(t, 1 - t), exact near the endpoints
    big = 1.0 / (1.0 + ey)
    t = np.where(y >= 0, big, small)
    sech2 = 4.0 * ey / (1.0 + ey) ** 2
    w = h * 0.25 * math.pi * np.cosh(u) * sech2
    keep = (w > 0) & (t > 0)  # w > 0 also implies 1 - t > 0
    return t[keep], w[keep]


@lru_cache(maxsize=None)
def _compound_nodes(level: int):
    """Unfloored (t, w) of the compound level-``level`` rule, read-only."""
    ts, ws = [], []
    for lv in range(level + 1):
        t, w = _raw_nodes(lv)
        ts.append(t)
        ws.append(w * 2.0 ** (lv - level))
    t, w = np.concatenate(ts), np.concatenate(ws)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def nodes_up_to(level: int, t_floor: float = T_FLOOR):
    """(t, w) of the compound level-``level`` rule, concatenated; read-only.

    A node introduced at level lv carries stored weight with factor
    h_lv = 2^-lv; in the compound rule the step is 2^-level, so each block
    is rescaled by 2^(lv - level).  The unfloored table is memoised per
    level and the ``t >= t_floor`` mask is applied per call.
    """
    t, w = _compound_nodes(level)
    if t_floor > 0.0:
        keep = t >= t_floor
        t, w = t[keep], w[keep]
        t.flags.writeable = w.flags.writeable = False
    return t, w


def integrate_01(f, tol=1e-12):
    """Integral of ``f`` over (0, 1) to absolute tolerance ``tol``.

    ``f`` must accept a numpy array of t-values.  Returns (value, err) with
    err the final inter-level difference.  Raises ConvergenceBudgetError if
    the level budget is exhausted before the estimate settles.
    """
    total = 0.0
    prev = None
    err = math.inf
    for lv in range(MAX_LEVEL + 1):
        t, w = _raw_nodes(lv)
        keep = t >= T_FLOOR
        t, w = t[keep], w[keep]
        vals = np.asarray(f(t), dtype=float)
        contrib = float(np.dot(w, vals))
        total = contrib if lv == 0 else 0.5 * total + contrib
        if prev is not None:
            err = abs(total - prev)
            if err <= tol and lv >= 3:
                return total, err
        prev = total
    raise ConvergenceBudgetError(
        f"tanh-sinh did not reach tol={tol:g} by level {MAX_LEVEL} (err~{err:.3g})"
    )
