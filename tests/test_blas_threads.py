"""numpy's BLAS pool: one thread per process unless the caller chose, and
moment bits that do not depend on the thread count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kepler_balance

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # no dict form before numpy 1.26
        return ""


# the thread counts hold for numpy's OpenBLAS, read from /proc
counts_threads = pytest.mark.skipif(
    not os.path.exists("/proc/self/status") or "openblas" not in blas_name().lower(),
    reason="reads Threads: from /proc/self/status, for an OpenBLAS numpy")

# the three variables, the process's thread count and any moment hashes
REPORT = """
import json, os
threads = None
if os.path.exists('/proc/self/status'):
    with open('/proc/self/status') as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith('Threads:'))
print(json.dumps({'env': {v: os.environ.get(v) for v in %r}, 'threads': threads,
                  'moments': globals().get('moments')}))
""" % (BLAS_VARS,)


def run_python(code, **preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=str(Path(kepler_balance.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


@counts_threads
def test_import_pins_openblas_to_one_thread():
    report = run_python("import kepler_balance.cli\n" + REPORT)
    assert report["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                             "OMP_NUM_THREADS": None}
    assert report["threads"] == 1


@pytest.mark.parametrize("var", BLAS_VARS)
def test_a_preset_thread_count_is_kept(var):
    report = run_python("import kepler_balance.cli\n" + REPORT, **{var: "2"})
    assert report["env"] == {v: "2" if v == var else None for v in BLAS_VARS}


def test_numpy_imported_first_is_left_alone():
    report = run_python("import numpy, kepler_balance.cli\n" + REPORT)
    assert report["env"] == dict.fromkeys(BLAS_VARS)


# hashes of every c_k and bound through k = 3000 of a level-6 density
# (phi_4, 64 x 772 block products) and a level-12 one (phi_8.5,
# 64 x 8192, which OpenBLAS does split across threads), both built from
# phi_v's values, so that quadrature computes their moments
MOMENT_HASHES = """
import hashlib, math, numpy as np
from kepler_balance.kernel import Density
from kepler_balance.profiles import phi_v
moments = {}
for v in (4, 8.5):
    dens = Density(lambda t, v=v: phi_v(v, t), (-1.0 - math.sqrt(v)) / 4.0)
    dens.moments_block(3000)
    moments[str(v)] = [dens._level,
                       hashlib.sha256(np.array(dens._c + dens._err).tobytes()).hexdigest()]
""" + REPORT


@counts_threads
def test_moment_bits_do_not_depend_on_blas_threads():
    one = run_python(MOMENT_HASHES, OPENBLAS_NUM_THREADS="1")
    two = run_python(MOMENT_HASHES, OPENBLAS_NUM_THREADS="2")
    assert one["threads"] == 1
    if len(os.sched_getaffinity(0)) >= 2:
        assert two["threads"] == 2  # the pool is there to split the products
    assert [level for level, _ in one["moments"].values()] == [6, 12]
    assert one["moments"] == two["moments"]
