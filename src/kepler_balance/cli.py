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
    rows = list(zip(ts, Fs, defects))
    if args.format == "json":
        payload = {
            "c": c,
            "rows": [{"t": float(t), "F": F, "defect": d} for t, F, d in rows],
        }
        _emit(json.dumps(payload, indent=2, default=float) + "\n", args.out)
    else:
        lines = ["t,F,defect"]
        for t, F, d in rows:
            lines.append(f"{fmt(t)},{fmt(F)},{fmt(d)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_poincare(args) -> int:
    sol = poin.solve_poincare(args.c, t_min=args.tmin)
    lines = ["t,f,fp,fpp,psi_residual"]
    res = sol.psi_residuals()
    for (t, f, fp, fpp), r in zip(sol.grid, res):
        lines.append(f"{fmt(t)},{fmt(f)},{fmt(fp)},{fmt(fpp)},{fmt(r)}")
    _emit("\n".join(lines) + "\n", args.out)
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


@functools.cache
def build_parser():
    """The top-level parser and each subcommand's own parser by name, built
    once per process (parsing leaves them unchanged)."""
    ap = argparse.ArgumentParser(
        prog="kepler-balance",
        description="Balanced-metric diagnostics on the Kepler-manifold ball",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--profile", required=True, help="kind:key=value,... or JSON")
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--out", default=None)
        p.add_argument("--grid", default=None, help="start:stop:count")
        p.add_argument("--t", type=float, default=None)

    pk = sub.add_parser("kernel", help="kernel diagonal F, balanced defect")
    common(pk)
    pk.add_argument("--format", choices=("csv", "json"), default="csv")
    pk.add_argument("--c", default="auto",
                    help="c of the defect F - c/f^(n+1), or auto: 2n (-f'(1))^(n+1) / phi(1)")
    pk.set_defaults(fn=cmd_kernel)

    pp = sub.add_parser("poincare", help="solve the radial Poincare flow")
    pp.add_argument("--c", type=float, required=True)
    pp.add_argument("--tmin", type=float, default=1e-3)
    pp.add_argument("--out", default=None)
    pp.set_defaults(fn=cmd_poincare)

    pa = sub.add_parser("asymptotics", help="A_m reciprocal-moment coefficients")
    pa.add_argument("--v", type=float, required=True)
    pa.add_argument("--order", type=int, default=10)
    pa.add_argument("--out", default=None)
    pa.set_defaults(fn=cmd_asymptotics)

    pl = sub.add_parser("lerch", help="Lerch transcendent, two evaluation paths")
    pl.add_argument("--t", type=float, required=True)
    pl.add_argument("--s", type=float, required=True)
    pl.add_argument("--n-deriv", type=int, default=0)
    pl.add_argument("--out", default=None)
    pl.set_defaults(fn=cmd_lerch)

    pe = sub.add_parser("profile-eval", help="evaluate f, f', f'', W on a grid")
    common(pe)
    pe.set_defaults(fn=cmd_profile_eval)

    pv = sub.add_parser("verify", help="run the acceptance criteria")
    pv.add_argument("--only", default=None, help="substring filter")
    pv.set_defaults(fn=cmd_verify)
    return ap, {"kernel": pk, "poincare": pp, "asymptotics": pa, "lerch": pl,
                "profile-eval": pe, "verify": pv}


def main(argv=None) -> int:
    """Run one request.  Each sign-changing density it uses is noted on
    stderr as ``note: <message>`` (SignedDensityWarning), whatever the
    requests before it in this process; other warnings are shown as usual.

    argv (default ``sys.argv[1:]``) that starts with a subcommand is parsed
    by that subcommand's parser alone, which is what the top-level parser
    would hand it; the top-level parser reports what it leaves over, and
    parses any other argv itself."""
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
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
