"""Double-exponential (tanh-sinh) quadrature on (0, 1).

Handles endpoint singularities t^p (p > -1), optionally with log factors,
without any integrand-specific treatment.  Nodes near the endpoints are
generated in complementary form so that t and 1 - t stay accurate down to
the denormal range.  Levels double the node density; a level-L total is
half the level-(L-1) total plus the new odd-multiple nodes, and the
integral is accepted once two consecutive levels agree within tolerance.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceBudgetError

MAX_LEVEL = 12
_CUTOFF = 6.2  # |u| cap: y = (pi/2) sinh(6.2) ~ 390 pushes t to ~1e-340


@lru_cache(maxsize=None)
def _raw_nodes(level: int):
    """Node block for refinement ``level``: (t, 1 - t, w).

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
    omt = np.where(y >= 0, small, big)
    sech2 = 4.0 * ey / (1.0 + ey) ** 2
    w = h * 0.25 * math.pi * np.cosh(u) * sech2
    keep = (w > 0) & (t > 0) & (omt > 0)
    return t[keep], omt[keep], w[keep]


def nodes_up_to(level: int, t_floor: float = 1e-250):
    """All nodes/weights of the compound level-``level`` rule, concatenated.

    A node introduced at level lv carries stored weight with factor
    h_lv = 2^-lv; in the compound rule the step is 2^-level, so each block
    is rescaled by 2^(lv - level).
    """
    ts, omts, ws = [], [], []
    for lv in range(level + 1):
        t, omt, w = _raw_nodes(lv)
        scale = 2.0 ** (lv - level)
        if t_floor > 0.0:
            keep = t >= t_floor
            t, omt, w = t[keep], omt[keep], w[keep]
        ts.append(t)
        omts.append(omt)
        ws.append(w * scale)
    return np.concatenate(ts), np.concatenate(omts), np.concatenate(ws)


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
        t, _omt, w = _raw_nodes(lv)
        keep = t >= 1e-250  # the default floor of nodes_up_to
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
