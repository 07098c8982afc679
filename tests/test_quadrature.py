import numpy as np
import pytest

from kepler_balance.quadrature import MAX_LEVEL, T_FLOOR, _level_nodes, nodes_up_to


def _per_block_nodes(level, t_floor):
    """The compound rule built block by block: each level's nodes, weights
    rescaled by 2^(lv - level) (and twice that for the level-(level-1) rule
    on the older blocks), concatenated, sorted by u and then floored."""
    us, rows = [], [[], [], [], []]
    for lv in range(level + 1):
        u, t, ell, w = _level_nodes(lv)
        us.append(u)
        rows[0].append(t)
        rows[1].append(w * 2.0 ** (lv - level))
        rows[2].append(ell)
        rows[3].append(w * 2.0 ** (lv - level + 1) if lv < level else np.zeros_like(w))
    order = np.argsort(np.concatenate(us))
    t, w, ell, w_prev = (np.concatenate(r)[order] for r in rows)
    keep = t >= t_floor
    return t[keep], w[keep], ell[keep], w_prev[keep]


@pytest.mark.parametrize("t_floor", [0.0, 1e-16, 1e-100, T_FLOOR])
def test_memoised_nodes_match_per_block_construction(t_floor):
    for level in range(MAX_LEVEL + 1):
        rows = nodes_up_to(level, t_floor=t_floor)
        for got, ref in zip(rows, _per_block_nodes(level, t_floor), strict=True):
            assert got.dtype == np.float64
            assert got.tobytes() == ref.tobytes(), level
            with pytest.raises(ValueError):
                got[0] = 0.5
        t, w, ell, w_prev = rows
        # sorted, so the floor and the dead nodes of a moment block are leading slices
        assert np.all(np.diff(t) >= 0) and np.all(np.diff(ell) >= 0)
        if level > 0:
            # the level-(level-1) rule: its own weights, in its own order, with
            # zeros on the new nodes
            w_coarse = nodes_up_to(level - 1, t_floor)[1]
            assert np.array_equal(w_prev[w_prev > 0], w_coarse[w_coarse > 0])
            older = w_prev > 0
            assert np.allclose(w_prev[older], 2.0 * w[older], rtol=1e-16, atol=1e-307)


def test_log_nodes_keep_the_exact_gap_to_one():
    # near t = 1 the node t rounds, 1,540 times to 1.0 at level 9, but
    # l = log1p(-(1 - t)) keeps a distinct, negative value for each node
    t, _w, ell, _wp = nodes_up_to(9)
    ones = t == 1.0
    assert np.count_nonzero(ones) == 1540
    assert np.all(ell < 0) and np.all(np.diff(ell[ones]) > 0)
    assert -ell[ones][-1] < 1e-300
    # below t = 1/2 the node t is exact and l is its log
    low = t <= 0.5
    assert np.array_equal(ell[low], np.log(t[low]))

