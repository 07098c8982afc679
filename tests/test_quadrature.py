import numpy as np
import pytest

from kepler_balance.quadrature import MAX_LEVEL, T_FLOOR, _raw_nodes, nodes_up_to


def _per_block_nodes(level, t_floor):
    """The compound rule built block by block: each level's nodes floored,
    then its weights rescaled by 2^(lv - level), then concatenated."""
    ts, ws = [], []
    for lv in range(level + 1):
        t, w = _raw_nodes(lv)
        if t_floor > 0.0:
            keep = t >= t_floor
            t, w = t[keep], w[keep]
        ts.append(t)
        ws.append(w * 2.0 ** (lv - level))
    return np.concatenate(ts), np.concatenate(ws)


@pytest.mark.parametrize("t_floor", [0.0, 1e-16, 1e-100, T_FLOOR])
def test_memoised_nodes_match_per_block_construction(t_floor):
    for level in range(MAX_LEVEL + 1):
        t, w = nodes_up_to(level, t_floor=t_floor)
        t_ref, w_ref = _per_block_nodes(level, t_floor)
        assert t.dtype == w.dtype == np.float64
        assert t.tobytes() == t_ref.tobytes(), level
        assert w.tobytes() == w_ref.tobytes(), level
        for arr in (t, w):
            with pytest.raises(ValueError):
                arr[0] = 0.5
