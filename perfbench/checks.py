"""Reference checks for every request, computed without the package.

Each check parses one request's output and compares it with a reference
worked out here: closed forms, an mpmath oracle or ``numpy.roots``.  The
tolerances are the ones the acceptance criteria of the paper's computations
state.  ``check`` returns a list of failure messages (empty means pass).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
import numpy as np

F_RTOL = 1e-9          # kernel F (and the defect, scaled by its terms)
AUTO_C_TOL = 1e-3      # |c - 4| for --c auto with n = 2
EXACT_C0_TOL = 1e-8    # sup_error_vs_exact for c = 0
PSI_TOL = 1e-10        # psi residuals, and |c + t0/f(t0)^3| at a cusp
CUSP_T_RTOL = 1e-12    # first CSV row t against the reported cusp t0
EXPONENT_TOL = 1e-3    # origin exponent vs the cubic root, c >= 0.05 at T = 1e-4
LERCH_TOL = 1e-8       # both Lerch paths vs the oracle, relative to max(1, |ref|)
A_M_FLOAT_TOL = 1e-9   # A_m for non-square v (square v must match exactly)


# ---------------------------------------------------------------------------
# kernel references
# ---------------------------------------------------------------------------

def _m_delta(v):
    x = (math.sqrt(v) + 1.0) / 4.0
    m = math.floor(x)
    return m, x - m


def _unit_density_sum(n, t):
    """sum_k N(k) (k+n-1) t^k: F of the unit density in dimension n."""
    terms, rough, k = [], 0.0, 0
    while True:
        nk = math.comb(k + n - 1, n - 1) + math.comb(k + n - 2, n - 1)
        term = nk * (k + n - 1) * t ** k
        terms.append(term)
        rough += term
        if k > 10 and term < 1e-18 * rough:
            return math.fsum(terms)
        k += 1


def kernel_reference(ref, t):
    """(F, f) at t for the request's profile and its paired density.

    phi_v_candidate pairs with phi_v, whose F has a closed form.  The other
    kinds pair with a constant density: W[f] = 1 for sqrt_poincare (n = 2)
    and explicit_n (matching n), scaled by scale^(n+1); constant_one is its
    own density, equal to scale.
    """
    kind, n, s = ref["profile"], ref["n"], ref["scale"]
    u = 1.0 - t
    if kind == "phi_v_candidate":
        m, d = _m_delta(ref["v"])
        D = 1.0 + 3.0 * t + 4.0 * m * u - d * (4.0 * m + 2.0 * d - 1.0) * u * u
        F = t ** m * D / u ** 3
        f = 2.0 ** (2.0 / 3.0) * t ** (-m / 3.0) * u * D ** (-1.0 / 3.0)
        return F, s * f
    if kind == "sqrt_poincare":
        return (1.0 + 3.0 * t) / u ** 3 / s ** 3, s * (2.0 - 2.0 * math.sqrt(t))
    if kind == "constant_one":
        return _unit_density_sum(n, t) / s, s
    if kind == "explicit_n":
        f = n / (n - 1.0) * (1.0 - t ** ((n - 1.0) / n))
        return _unit_density_sum(n, t) / s ** (n + 1), s * f
    raise ValueError(f"no reference for profile kind {kind!r}")


def _kernel_rows(req, stdout):
    if "grid" in req.ref:
        payload = json.loads(stdout)
        rows = [(r["t"], r["F"], r["defect"]) for r in payload["rows"]]
        return payload["c"], rows
    lines = stdout.strip().splitlines()
    if lines[0] != "t,F,defect":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    return None, [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def check_kernel(req, result):
    ref = req.ref
    if result["exit"] != 0:
        return [f"exit code {result['exit']}, expected 0"]
    c_out, rows = _kernel_rows(req, result["stdout"])
    fails = []
    if ref["c"] is None:
        if abs(c_out - 4.0) > AUTO_C_TOL:
            fails.append(f"--c auto gave c = {c_out!r}, expected 4 within {AUTO_C_TOL}")
        c = c_out
    else:
        c = ref["c"]
        if c_out is not None and c_out != c:
            fails.append(f"echoed c = {c_out!r}, expected {c}")
    ts = list(np.linspace(*ref["grid"])) if "grid" in ref else ref["ts"]
    if len(rows) != len(ts):
        return fails + [f"{len(rows)} rows, expected {len(ts)}"]
    for (t, F, defect), t_want in zip(rows, ts):
        if abs(t - t_want) > 1e-15:
            fails.append(f"row t = {t!r}, expected {t_want!r}")
            continue
        F_ref, f_ref = kernel_reference(ref, t)
        pull = c / f_ref ** (ref["n"] + 1)
        if abs(F - F_ref) > F_RTOL * abs(F_ref):
            fails.append(f"F({t}) = {F!r}, reference {F_ref!r}")
        if abs(defect - (F_ref - pull)) > F_RTOL * max(abs(F_ref), abs(pull)):
            fails.append(f"defect({t}) = {defect!r}, reference {F_ref - pull!r}")
    return fails


# ---------------------------------------------------------------------------
# Poincare references
# ---------------------------------------------------------------------------

def cubic_root(c):
    """Nonnegative real root of x^3 + x^2/2 = c (c >= 0)."""
    roots = np.roots([1.0, 0.5, 0.0, -c])
    real = [r.real for r in roots if abs(r.imag) < 1e-12 and r.real >= -1e-12]
    return max(real)


def _summary(stderr):
    return json.loads(stderr.strip().splitlines()[-1])


def check_poincare(req, result):
    """For c < 0 the flow stops at the cusp t0 where c + t/f^3 = 0 (exit 3),
    unless t0 lies below T, as for c close to 0.  Then it reaches T like a
    c >= 0 solution (exit 0), and c + t/f^3 stays positive on every row."""
    c, tmin = req.ref["c"], req.ref["tmin"]
    if result["exit"] not in (0, 3):
        return [f"exit code {result['exit']}, expected 3 (cusp) or 0"]
    lines = result["stdout"].strip().splitlines()
    if lines[0] != "t,f,fp,fpp,psi_residual":
        return [f"unexpected CSV header {lines[0]!r}"]
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    t, f, fp = rows[:, 0], rows[:, 1], rows[:, 2]
    summary = _summary(result["stderr"])
    t0 = summary["t0"]
    if (t0 is not None) != (result["exit"] == 3):
        return [f"exit code {result['exit']} with t0 = {t0!r}"]
    fails = []
    if np.any(np.diff(t) <= 0):
        fails.append("CSV t column is not increasing")
    psi = -t / f ** 3 + t * t * fp * fp / (2.0 * f * f) - t ** 3 * fp ** 3 / f ** 3
    psi_res = float(np.max(np.abs(psi - c) / np.maximum(1.0, t / f ** 3)))
    if psi_res > PSI_TOL:
        fails.append(f"Psi recomputed from the CSV drifts by {psi_res:.3g}")
    if summary["psi_residual_max"] > PSI_TOL:
        fails.append(f"psi_residual_max = {summary['psi_residual_max']!r}")
    if t0 is not None:
        gap = abs(c + t[0] / f[0] ** 3)
        # The CSV row is exp(tau0) from numpy and t0 is math.exp(tau0): they
        # may differ in the last bit.
        if c >= 0 or t0 < tmin:
            fails.append(f"c = {c} reported a cusp at {t0!r}")
        elif abs(t[0] - t0) > CUSP_T_RTOL * t0 or gap > PSI_TOL:
            fails.append(f"cusp row t = {t[0]!r} (t0 = {t0!r}), |c + t0/f^3| = {gap:.3g}")
    else:
        if abs(t[0] / tmin - 1.0) > 1e-9 or t[-1] >= 1.0:
            fails.append(f"CSV covers [{t[0]!r}, {t[-1]!r}], expected to start at {tmin}")
        if c < 0 and np.min(c + t / f ** 3) <= 0:
            fails.append(f"c = {c} passed its cusp without reporting it")
    if c >= 0.05 and tmin == 1e-4:
        want = cubic_root(c)
        got = summary["exponent"]
        if got is None or abs(got - want) > EXPONENT_TOL:
            fails.append(f"origin exponent {got!r}, cubic root {want!r}")
    if c == 0.0:
        err = summary.get("sup_error_vs_exact")
        if err is None or err > EXACT_C0_TOL:
            fails.append(f"sup_error_vs_exact = {err!r}")
    return fails


# ---------------------------------------------------------------------------
# Lerch and A_m references
# ---------------------------------------------------------------------------

def lerch_oracle(t, s, n):
    """(d/ds)^n Phi(t, s, 1) = sum_k t^k (-log(k+1))^n / (k+1)^s at 30 digits."""
    with mpmath.workdps(30):
        t, s = mpmath.mpf(t), mpmath.mpf(s)
        # terms may grow until k ~ (|s| + n)/L before t^k takes over
        k_rise = int(4 * (abs(float(s)) + n + 1) / -math.log(float(t))) + 10
        total, tk, k = mpmath.mpf(0), mpmath.mpf(1), 0
        while True:
            term = tk * (-mpmath.log(k + 1)) ** n / mpmath.power(k + 1, s)
            total += term
            if k > k_rise and abs(term) <= 1e-25 * abs(total):
                return float(total)
            tk *= t
            k += 1


def check_lerch(req, result):
    if result["exit"] != 0:
        return [f"exit code {result['exit']}, expected 0"]
    out = json.loads(result["stdout"])
    ref = req.ref
    want = ref["oracle"]
    fails = []
    if (out["t"], out["s"], out["n_deriv"]) != (ref["t"], ref["s"], ref["n"]):
        fails.append(f"echoed inputs {out['t'], out['s'], out['n_deriv']}")
    for path in ("direct", "boundary"):
        got = out[path]
        if got is None or abs(got - want) > LERCH_TOL * max(1.0, abs(want)):
            fails.append(f"{path} = {got!r}, oracle {want!r}")
    return fails


def a_m_reference(v, order):
    """A_0..A_order of 1/c_k for phi_v: 1, 0, then (1 - v)/2^(m+2).

    From the closed-form moment c_k = (2k+1)/((2k+2a+1)(k+1-a)), a = (sqrt(v)+1)/4.
    """
    v = Fraction(v) if float(v).is_integer() else v
    return [1, 0] + [(1 - v) / 2 ** (m + 2) for m in range(2, order + 1)]


def check_asymptotics(req, result):
    if result["exit"] != 0:
        return [f"exit code {result['exit']}, expected 0"]
    out = json.loads(result["stdout"])
    ref = req.ref
    want = a_m_reference(ref["v"], ref["order"])
    got = out["A"]
    if out["exact"] != ref["exact"] or len(got) != len(want):
        return [f"exact = {out['exact']}, {len(got)} coefficients; expected "
                f"exact = {ref['exact']}, {len(want)}"]
    fails = []
    for m, (a, w) in enumerate(zip(got, want)):
        if ref["exact"]:
            ok = Fraction(a) == w
        else:
            ok = abs(float(Fraction(a) if isinstance(a, str) else a) - w) <= A_M_FLOAT_TOL
        if not ok:
            fails.append(f"A_{m} = {a!r}, expected {w}")
    return fails


CHECKS = {
    "kernel": check_kernel,
    "poincare": check_poincare,
    "lerch": check_lerch,
    "asymptotics": check_asymptotics,
}


def prepare(requests):
    """Work out the references that are too costly to redo per check."""
    for req in requests:
        if req.kind == "lerch":
            req.ref["oracle"] = lerch_oracle(req.ref["t"], req.ref["s"], req.ref["n"])


def check(req, result):
    """Failure messages for one request's result (empty when it passes)."""
    if result.get("error"):
        return [f"raised: {result['error']}"]
    try:
        return CHECKS[req.kind](req, result)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [f"unparsable output: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def _bump(x):
    return x + 1e-6 * max(1.0, abs(x))


def perturb(req, stdout):
    """The same output with one reported number x moved by 1e-6 * max(1, |x|)."""
    if req.kind == "poincare" or (req.kind == "kernel" and "grid" not in req.ref):
        lines = stdout.split("\n")
        cells = lines[1].split(",")
        cells[1] = repr(_bump(float(cells[1])))
        lines[1] = ",".join(cells)
        return "\n".join(lines)
    payload = json.loads(stdout)
    if req.kind == "kernel":
        payload["rows"][0]["F"] = _bump(payload["rows"][0]["F"])
    elif req.kind == "lerch":
        payload["direct"] = _bump(payload["direct"])
    else:
        a2 = payload["A"][2]
        payload["A"][2] = (str(Fraction(a2) + Fraction(1, 10 ** 6))
                           if isinstance(a2, str) else _bump(a2))
    return json.dumps(payload, indent=2) + "\n"
