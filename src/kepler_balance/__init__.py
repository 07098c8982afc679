"""Radial balanced-metric diagnostics on the unit ball of the Kepler manifold.

Modules
-------
profiles     radial weight profiles f, derivatives, Monge-Ampere density W[f]
kernel       moments, weighted Bergman kernel diagonal F(t), balanced defect
asymptotics  L-expansions, moment asymptotics, Lerch transcendent machinery
poincare     radial Kahler-Einstein flow in closed form, cusp, completeness
acceptance   the named reproduction criteria (also behind ``verify`` in the CLI)

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` when numpy is not
loaded yet and none of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
``OMP_NUM_THREADS`` is set.  OpenBLAS otherwise starts one worker per core
at numpy's import, and the idle workers spin for tens of milliseconds on
cores that the moment products of a level-6 density are too small to use;
a process that sets one of those variables, or imports numpy first, keeps
its own pool.  The moments' bits do not depend on it.
"""

import os
import sys

if "numpy" not in sys.modules and not any(
    var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import (
    AccuracyError,
    CapabilityError,
    ConvergenceBudgetError,
    DivergenceError,
    DomainError,
    EstimationError,
    NormalizationError,
    SignedDensityWarning,
    TruncationError,
)
from .series import PowerLogSeries
from .profiles import (
    RadialProfile,
    density_in_L,
    germ_residual,
    monge_ampere_density,
    phi_v,
)
from .kernel import (
    Density,
    KernelEval,
    balanced_defect,
    closed_form_F_phi_v,
    dimension_count,
    estimate_c,
    kernel_series,
    moment_phi_v_closed,
    phi_v_density,
)
from .asymptotics import (
    boundary_expansion_F,
    gamma_laurent_table,
    germ_family_f,
    lerch_boundary_expansion,
    lerch_phi,
    moment_expansion,
    reciprocal_moments,
)
from .poincare import (
    CuspData,
    PoincareSolution,
    RadialLength,
    cusp_data,
    origin_exponent,
    psi,
    radial_length,
    rho,
    solve_poincare,
    taylor_at_one,
)

__version__ = "0.1.0"
