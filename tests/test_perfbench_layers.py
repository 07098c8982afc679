"""The benchmark's traced layers must name functions that still exist.

``perfbench/tracing.py`` wraps each ``(module, qualname)`` in ``LAYERS`` and
skips a layer it cannot find, so a renamed function would silently lose that
layer's per-layer metrics.  This reads ``LAYERS`` without installing the
tracer and resolves every entry the way the tracer does.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import kepler_balance

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


def test_kummer_path_feeds_traced_kernel_metrics():
    # a near-boundary kernel value takes the Kummer split; it must still
    # report its terms and fill moments through Density.moments_block, or the
    # traced kernel-boundary run reads zero kernel metrics
    code = "\n".join([
        f"import sys; sys.path.insert(0, {str(TRACING.parent)!r})",
        "import kepler_balance.kernel as K",
        "import tracing",
        "tracer = tracing.Tracer()",
        "tracer.install()",
        "ke = K.kernel_series(K.phi_v_density(4), 2, 0.999)",
        "s = tracer.summary()",
        "print(ke.path, ke.terms_used, s['kernel.kernel_series.terms'],",
        "      s['kernel.Density.moments_block.calls'], s['kernel.moments.useful_ratio'])",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(kepler_balance.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    path, terms_used, traced_terms, block_calls, useful = out
    assert path == "kummer" and int(terms_used) >= 1
    assert float(traced_terms) == int(terms_used)
    assert int(block_calls) >= 1 and float(useful) > 0
