"""Double-exponential (tanh-sinh) quadrature on (0, 1).

Handles endpoint singularities t^p (p > -1), optionally with log factors,
without any integrand-specific treatment.  Nodes are generated from
s = e^(-2|y|) / (1 + e^(-2|y|)) = min(t, 1 - t), which keeps its full
relative accuracy at both endpoints.  Near t = 0, t = s itself, down to the
denormal range; near t = 1 the node t rounds (to 1.0 for a quarter of the
nodes), but each node also carries l = log t, taken as log1p(-s) above
t = 1/2 and log(s) below, so t^k = exp(k l) keeps the exact 1 - t.  Levels
double the node density: level L adds the odd multiples of h = 2^-L.
``integrate_01`` accepts the integral once two consecutive levels agree
within tolerance, both read off one ``nodes_up_to`` table, which drops the
nodes below T_FLOOR by default.

``nodes_up_to`` memoises one table per level (read-only, ~1.6 MB at level
12): the compound rule's nodes sorted by t, with t, the weights, l and the
level-(L-1) weights (2w on that level's nodes, 0 on the nodes new at
level L).  The ``t >= t_floor`` cut is a leading slice of that table, so a
density gets its nodes as a view, in the same order, with the same bits.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceBudgetError

MAX_LEVEL = 12
_CUTOFF = 6.2  # |u| cap: y = (pi/2) sinh(6.2) ~ 390 pushes t to ~1e-340
T_FLOOR = 1e-250  # smallest node kept by default


def _level_nodes(level: int):
    """Node block for refinement ``level``: (u, t, l, w), with l = log t.

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
    u, y, small, t, w = u[keep], y[keep], small[keep], t[keep], w[keep]
    ell = np.where(y > 0, np.log1p(-small), np.log(small))
    return u, t, ell, w


@lru_cache(maxsize=None)
def _node_table(level: int):
    """Rows t, w, l, w_prev of the compound level-``level`` rule, sorted by t.

    A node introduced at level lv carries stored weight with factor
    h_lv = 2^-lv; in the compound rule the step is 2^-level, so each block
    is rescaled by 2^(lv - level), and by twice that in the level-(level-1)
    rule.  Sorting by u sorts t and l too (both are monotone in u).
    """
    blocks = [_level_nodes(lv) for lv in range(level + 1)]
    u, t, ell, w = (np.concatenate(rows) for rows in zip(*blocks))
    lv = np.concatenate([np.full(len(b[0]), lv) for lv, b in enumerate(blocks)])
    w_prev = np.where(lv < level, w * 2.0 ** (lv - level + 1), 0.0)
    table = np.stack([t, w * 2.0 ** (lv - level), ell, w_prev])[:, np.argsort(u)]
    table.flags.writeable = False
    return table


def nodes_up_to(level: int, t_floor: float = T_FLOOR):
    """Read-only rows (t, w, l, w_prev) of the compound level-``level`` rule.

    The nodes are sorted by t, and those below ``t_floor`` are cut as a
    leading slice of the memoised table.  l = log t keeps the exact 1 - t
    near t = 1; w_prev holds the level-(level-1) weights on that level's
    nodes and 0 on the nodes new at ``level``.
    """
    table = _node_table(level)
    return table[:, np.searchsorted(table[0], t_floor):]


def integrate_01(f, tol=1e-12):
    """Integral of ``f`` over (0, 1) to absolute tolerance ``tol``.

    ``f`` must accept a numpy array of t-values.  Each level's total is the
    compound rule of ``nodes_up_to``, and err is its difference from the
    level-(L-1) rule on the same nodes.  Returns (value, err) at the first
    level from 3 whose err is within ``tol``.  Raises ConvergenceBudgetError
    if the level budget is exhausted before the estimate settles.
    """
    for lv in range(3, MAX_LEVEL + 1):
        t, w, _ell, w_prev = nodes_up_to(lv)
        vals = np.asarray(f(t), dtype=float)
        total = float(np.dot(w, vals))
        err = abs(total - float(np.dot(w_prev, vals)))
        if err <= tol:
            return total, err
    raise ConvergenceBudgetError(
        f"tanh-sinh did not reach tol={tol:g} by level {MAX_LEVEL} (err~{err:.3g})"
    )
