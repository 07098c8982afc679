"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install`` replaces each function in ``LAYERS`` with a wrapper that
records a span (name, start, end, parent span, request id) and the layer's
work counts.  A module-level function is replaced in every module namespace
that bound it (``kernel.phi_v``, ``asymptotics.zeta_deriv_over_factorial``,
...), so calls through a ``from ... import`` are caught too; methods are
replaced on their class, under every name that refers to them.  Nothing
under ``src/`` changes.

Hot inner helpers (``Density.moment``, ``dimension_count``, the Lerch direct
sum) are deliberately left unwrapped: they run once per series term, and
wrapping them would make the tracing cost swamp the layers being measured.
Their time shows up as self time of the layer that calls them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np


def _arg(i, name):
    """Counter reading the i-th positional (or keyword ``name``) argument's size."""
    return lambda args, kwargs, result: np.size(args[i] if len(args) > i else kwargs[name])


# (defining module, qualified name, {stat: counter}, workloads it must be nonzero on)
LAYERS = (
    ("quadrature", "nodes_up_to", {"nodes": lambda a, k, r: len(r[0])}, ("kernel-interior",)),
    # only poincare.radial_length reaches integrate_01, and no CLI subcommand calls it
    ("quadrature", "integrate_01", {}, ()),
    ("profiles", "phi_v", {"points": _arg(1, "t")}, ("kernel-interior",)),
    ("profiles", "monge_ampere_density", {"points": _arg(2, "t")}, ("kernel-interior",)),
    ("profiles", "RadialProfile.eval", {}, ("kernel-interior",)),
    ("kernel", "Density.calibrate", {}, ("kernel-interior",)),
    ("kernel", "Density.moments_block", {}, ("kernel-boundary",)),
    ("kernel", "kernel_series", {"terms": lambda a, k, r: r.terms_used}, ("kernel-boundary",)),
    ("kernel", "estimate_c", {}, ("kernel-boundary",)),
    ("poincare", "rho", {"points": _arg(0, "a")}, ("poincare-sweep",)),
    ("poincare", "solve_poincare", {"steps": lambda a, k, r: len(r.t_grid)}, ("poincare-sweep",)),
    ("special", "zeta_deriv_over_factorial", {}, ("lerch-asymptotics",)),
    ("special", "gamma_derivs", {}, ("lerch-asymptotics",)),
    ("asymptotics", "t_phi_boundary_value", {}, ("lerch-asymptotics",)),
    ("asymptotics", "lerch_phi", {}, ("lerch-asymptotics",)),
    ("asymptotics", "moment_expansion", {}, ("lerch-asymptotics",)),
    ("asymptotics", "reciprocal_moments", {}, ("lerch-asymptotics",)),
    ("series", "PowerLogSeries.__mul__", {}, ("lerch-asymptotics",)),
    ("series", "PowerLogSeries.reciprocal", {}, ("lerch-asymptotics",)),
    ("cli", "main", {}, ("poincare-sweep", "kernel-interior")),
)

USEFUL_RATIO = "kernel.moments.useful_ratio"
OVERHEAD = "trace.overhead_frac"


def metric_names():
    """Every per-layer metric, with the workloads on which each must be nonzero."""
    out = {}
    for module, qual, counters, workloads in LAYERS:
        for stat in ("calls", "self_s", *counters):
            out[f"{module}.{qual}.{stat}"] = workloads
    out[USEFUL_RATIO] = ("kernel-boundary",)
    out[OVERHEAD] = ()
    return out


class Tracer:
    """Collects spans in memory; ``summary`` turns them into per-layer metrics."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request id]
        self.request = None
        self.counts = defaultdict(float)
        self.missing = []
        self._stack = []
        # per Density: [k_min, largest k moments_block filled, largest k kernel_series read]
        self._moments = weakref.WeakKeyDictionary()
        self._moment_records = []

    def _wrap(self, name, fn, counters, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            for stat, count in counters.items():
                counts[f"{name}.{stat}"] += count(args, kwargs, result)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _moment_record(self, dens):
        rec = self._moments.get(dens)
        if rec is None:
            rec = [dens.k_min, dens.k_min - 1, dens.k_min - 1]
            self._moments[dens] = rec
            self._moment_records.append(rec)
        return rec

    def _after_moments_block(self, args, result):
        rec = self._moment_record(args[0])
        rec[1] = max(rec[1], args[1])

    def _after_kernel_series(self, args, result):
        dens, n = args[0], args[1]
        if not hasattr(dens, "k_min"):
            return  # a profile, not a Density: the moments are not shared
        rec = self._moment_record(dens)
        k_start = max(0, dens.k_min - (n - 2))
        rec[2] = max(rec[2], k_start + result.terms_used - 1 + n - 2)

    def install(self):
        """Wrap every layer in ``LAYERS``; names that no longer exist go to ``missing``."""
        modules = [m for key, m in sys.modules.items()
                   if key == "kepler_balance" or key.startswith("kepler_balance.")]
        hooks = {"kernel.Density.moments_block": self._after_moments_block,
                 "kernel.kernel_series": self._after_kernel_series}
        for module, qual, counters, _workloads in LAYERS:
            name = f"{module}.{qual}"
            try:
                mod = importlib.import_module(f"kepler_balance.{module}")
            except ImportError:
                self.missing.append(name)
                continue
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, counters, hooks.get(name))
            # every binding of the same function object: imports into other
            # modules, and aliases such as PowerLogSeries.__rmul__ = __mul__
            for namespace in ([owner] if owner_name else modules):
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)

    def summary(self):
        """Per-layer metrics: calls, self seconds, counts and the moment useful ratio."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for module, qual, counters, _workloads in LAYERS:
            name = f"{module}.{qual}"
            if name in self.missing:
                continue
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            for stat in counters:
                out[f"{name}.{stat}"] = self.counts.get(f"{name}.{stat}", 0)
        for idx, (name, start, end, _parent, _req) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[idx]
        if "kernel.Density.moments_block" not in self.missing:
            used = sum(rec[2] - rec[0] + 1 for rec in self._moment_records)
            filled = sum(rec[1] - rec[0] + 1 for rec in self._moment_records)
            out[USEFUL_RATIO] = used / filled if filled > 0 else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,request\n")
            for name, start, end, parent, req in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{req}\n")
