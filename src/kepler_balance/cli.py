"""Command-line front end.

Subcommands: kernel, poincare, asymptotics, lerch, profile-eval, verify.
Profiles are given either inline (``kind:key=value,...``) or as a JSON
file/text ({"kind": ..., "params": {...}}).  All floating output uses 17
significant digits so identical configurations produce byte-identical files.

Exit codes: 0 success, 1 bad configuration, 2 numerical failure,
3 Poincare run terminated at an interior cusp (informational),
4 failing verify criterion.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import acceptance
from . import asymptotics as asym
from . import kernel as kern
from . import poincare as poin
from .errors import (
    AccuracyError,
    CapabilityError,
    ConvergenceBudgetError,
    DivergenceError,
    DomainError,
    EstimationError,
    SignedDensityWarning,
)
from .profiles import SPEC_KEYS, RadialProfile, monge_ampere, phi_v_l_series

NUMERICAL_ERRORS = (
    AccuracyError,
    ConvergenceBudgetError,
    DivergenceError,
    EstimationError,
)
# DomainError, CapabilityError and NormalizationError are ValueErrors
CONFIG_ERRORS = (ValueError, KeyError, FileNotFoundError)


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _csv(header: str, columns) -> str:
    """CSV text: ``header``, then one line per row of the columns (arrays
    or lists), each value printed as ``fmt`` prints it (%-formatting takes
    float(x)), in one formatting pass."""
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    return header + "\n" + (line * len(rows)) % tuple(x for row in rows for x in row)


def parse_profile(spec: str) -> RadialProfile:
    """Inline ``kind:key=value,...``, JSON text, or a JSON file path.

    A spec whose kind (the text before ``:``, or all of it) is a known kind
    is inline, whatever files the working directory holds."""
    spec = spec.strip()
    kind, _, rest = spec.partition(":")
    if kind not in SPEC_KEYS and (spec.startswith("{") or os.path.exists(spec)):
        return RadialProfile.from_json(spec)
    params = {}
    for piece in rest.split(","):
        if not piece:
            continue
        key, _, val = piece.partition("=")
        if ";" in val:
            params[key] = [float(x) for x in val.split(";")]
        else:
            try:
                params[key] = int(val)
            except ValueError:
                params[key] = float(val)
    return RadialProfile.from_json({"kind": kind, "params": params})


def parse_grid(spec: str):
    """start:stop:count, inclusive linear grid; a one-point grid has
    start = stop."""
    bits = spec.split(":")
    if len(bits) != 3:
        raise DomainError("grid must be start:stop:count")
    start, stop, count = float(bits[0]), float(bits[1]), int(bits[2])
    if count < 1:
        raise DomainError("grid count must be >= 1")
    if count == 1 and start != stop:
        raise DomainError(f"a one-point grid needs start = stop, got {spec!r}")
    if not (0.0 <= start <= stop < 1.0):
        raise DomainError("grid must lie within [0, 1)")
    return np.linspace(start, stop, count)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _t_values(args):
    if args.grid:
        if args.t is not None:
            raise DomainError("supply --grid or --t, not both")
        return parse_grid(args.grid)
    if args.t is not None:
        if not 0.0 <= args.t < 1.0:
            raise DomainError(f"--t must lie in [0, 1), got {args.t!r}")
        return np.asarray([args.t])
    raise DomainError("supply --grid or --t")


def cmd_kernel(args) -> int:
    prof = parse_profile(args.profile)
    ts = _t_values(args)
    c = "auto" if args.c == "auto" else float(args.c)
    c, Fs, defects = kern.defect_table(prof, args.n, c, ts)
    if args.format == "json":
        payload = {
            "c": c,
            "rows": [{"t": float(t), "F": F, "defect": d} for t, F, d in zip(ts, Fs, defects)],
        }
        _emit(json.dumps(payload, indent=2, default=float) + "\n", args.out)
    else:
        _emit(_csv("t,F,defect", (ts, Fs, defects)), args.out)
    return 0


def cmd_poincare(args) -> int:
    sol = poin.solve_poincare(args.c, t_min=args.tmin)
    columns = (sol.t_grid, sol.f_grid, sol.fp_grid, sol.fpp_grid, sol.psi_residuals())
    _emit(_csv("t,f,fp,fpp,psi_residual", columns), args.out)
    summary = {
        "c": sol.c,
        "t0": sol.t0,
        "t_min_reached": sol.t_min_reached,
        "psi_residual_max": sol.psi_residual_max,
        "exponent": None,
    }
    if sol.c >= 0:
        summary["exponent"] = poin.origin_exponent(sol)
    if sol.c == 0.0:
        ts = np.exp(np.linspace(math.log(sol.t_min_reached), math.log(1 - 1e-6), 2000))
        summary["sup_error_vs_exact"] = float(
            np.max(np.abs(sol.eval(ts)[0] - (2.0 - 2.0 * np.sqrt(ts))))
        )
    sys.stderr.write(json.dumps(summary, default=float) + "\n")
    return 3 if sol.t0 is not None else 0


def cmd_asymptotics(args) -> int:
    v = args.v
    if not math.isfinite(v):
        raise DomainError(f"--v must be finite, got {v!r}")
    if args.order < 0:
        raise DomainError(f"--order must be >= 0, got {args.order}")
    # the chain runs in exact rationals for every v: Fraction(v) keeps every
    # bit of the float.  An integer v prints each A_m exactly, any other v
    # its correctly rounded float
    A = asym.a_m_from_l_series(phi_v_l_series(Fraction(v), args.order), args.order)
    exact = v.is_integer()
    payload = {
        "A": [str(a) if exact else float(a) for a in A],
        "exact": exact,
        "v": v,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_lerch(args) -> int:
    t = args.t
    if not 0.0 < t < 1.0:
        raise DomainError(f"--t must lie in (0, 1), got {t!r}")
    values = {"direct": None, "boundary": None}
    # a path whose sum runs out of terms, or whose formula does not hold
    # here, prints null; the other path's value stands
    for method in values:
        try:
            values[method] = asym.lerch_phi(t, args.s, args.n_deriv, method=method)
        except (CapabilityError, ConvergenceBudgetError) as exc:
            sys.stderr.write(f"{method}: {exc}\n")
    direct, boundary = values["direct"], values["boundary"]
    payload = {
        "t": t,
        "s": args.s,
        "n_deriv": args.n_deriv,
        "direct": direct,
        "boundary": boundary,
        "diff": None if direct is None or boundary is None else abs(direct - boundary),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_profile_eval(args) -> int:
    prof = parse_profile(args.profile)
    ts = _t_values(args)
    lines = ["t,f,fp,fpp,W"]
    for t in ts:
        t = float(t)
        # a value past float range is reported below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f, fp, fpp = prof.eval(t)
            w = monge_ampere(args.n, t, f, fp, fpp)
        row = ",".join(fmt(x) for x in (t, f, fp, fpp, w))
        if not all(math.isfinite(x) for x in (f, fp, fpp, w)):
            raise DomainError(f"profile {prof.kind!r} at t = {fmt(t)}: row {row} is not finite")
        lines.append(row)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    results = acceptance.run(only=args.only)
    if not results:
        sys.stderr.write(f"no criteria match --only {args.only!r}\n")
        return 1
    return 0 if all(r.passed for r in results) else 4


def _profile_args(p):
    p.add_argument("--profile", required=True, help="kind:key=value,... or JSON")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--out", default=None)
    p.add_argument("--grid", default=None, help="start:stop:count")
    p.add_argument("--t", type=float, default=None)


def _kernel_args(p):
    _profile_args(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--c", default="auto",
                   help="c of the defect F - c/f^(n+1), or auto: 2n (-f'(1))^(n+1) / phi(1)")
    p.set_defaults(fn=cmd_kernel)


def _poincare_args(p):
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--tmin", type=float, default=1e-3)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_poincare)


def _asymptotics_args(p):
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_asymptotics)


def _lerch_args(p):
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--n-deriv", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_lerch)


def _profile_eval_args(p):
    _profile_args(p)
    p.set_defaults(fn=cmd_profile_eval)


def _verify_args(p):
    p.add_argument("--only", default=None, help="substring filter")
    p.set_defaults(fn=cmd_verify)


# subcommand -> (its help line in the top-level parser, what defines its arguments)
_COMMANDS = {
    "kernel": ("kernel diagonal F, balanced defect", _kernel_args),
    "poincare": ("solve the radial Poincare flow", _poincare_args),
    "asymptotics": ("A_m reciprocal-moment coefficients", _asymptotics_args),
    "lerch": ("Lerch transcendent, two evaluation paths", _lerch_args),
    "profile-eval": ("evaluate f, f', f'', W on a grid", _profile_eval_args),
    "verify": ("run the acceptance criteria", _verify_args),
}


@functools.cache
def build_parser():
    """The top-level parser and each subcommand's own parser by name, built
    once per process (parsing leaves them unchanged)."""
    ap = argparse.ArgumentParser(
        prog="kepler-balance",
        description="Balanced-metric diagnostics on the Kepler-manifold ball",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (help_text, define) in _COMMANDS.items():
        commands[name] = sub.add_parser(name, help=help_text)
        define(commands[name])
    return ap, commands


@functools.cache
def _command_parser(name: str):
    """The parser of one subcommand alone, as ``build_parser`` builds it
    under the top-level parser, built once per process."""
    parser = argparse.ArgumentParser(prog=f"kepler-balance {name}")
    _COMMANDS[name][1](parser)
    return parser


def main(argv=None) -> int:
    """Run one request.  Each sign-changing density it uses is noted on
    stderr as ``note: <message>`` (SignedDensityWarning), whatever the
    requests before it in this process; other warnings are shown as usual.

    argv (default ``sys.argv[1:]``) that starts with a subcommand is parsed
    by that subcommand's parser alone, built without the others, which is
    what the top-level parser would hand it; the top-level parser, built
    only then, reports what it leaves over, and parses any other argv
    itself."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
        if extra:
            build_parser()[0].error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    else:
        args = build_parser()[0].parse_args(argv)
    failure = ""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SignedDensityWarning)
        try:
            code = args.fn(args)
        except NUMERICAL_ERRORS as exc:
            code, failure = 2, f"numerical failure: {exc}\n"
        except CONFIG_ERRORS as exc:
            code, failure = 1, f"configuration error: {exc}\n"
    for w in caught:
        if issubclass(w.category, SignedDensityWarning):
            sys.stderr.write(f"note: {w.message}\n")
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    sys.stderr.write(failure)
    return code


if __name__ == "__main__":
    sys.exit(main())
