"""The benchmark's traced layers must name functions that still exist.

``perfbench/tracing.py`` wraps each ``(module, qualname)`` in ``LAYERS`` and
skips a layer it cannot find, so a renamed function would silently lose that
layer's per-layer metrics.  This reads ``LAYERS`` without installing the
tracer and resolves every entry the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_layers_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, qual, _counters, _workloads in tracing.LAYERS:
        owner_name, _, attr = qual.rpartition(".")
        owner = importlib.import_module(f"kepler_balance.{module}")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        # defined on the owner itself, where the tracer looks it up
        if not callable(vars(owner).get(attr) if owner is not None else None):
            missing.append(f"{module}.{qual}")
    assert len(tracing.LAYERS) > 0
    assert missing == []
