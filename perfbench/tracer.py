"""Span tracing of sectorheat's layers from outside the package.

The tracer wraps the package's public functions and methods and records one
span per call: name, parent span, start, end and a work count.  Modules
that bound a function with ``from ... import`` hold their own reference, so
``install`` replaces every reference in every package module (and in the
CLI's runner table), and ``uninstall`` puts the originals back.  Spans stay
in memory until ``summary`` aggregates them.
"""

from __future__ import annotations

import os
import sys
import warnings
from time import perf_counter

import numpy as np


def _points(pts) -> int:
    shape = np.shape(pts)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _warning_kind(message) -> str:
    text = str(message)
    if "truncation mass" in text:
        return "tail_mass"
    if "under-resolved" in text:
        return "under_resolved"
    return "other"


class Tracer:
    """Records spans of wrapped calls while installed."""

    def __init__(self):
        self.spans: list = []    # (name, parent index, start, end, work)
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)
        self.warnings: dict = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, work=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                n = work(args, kwargs, result) if work else 0
                spans[idx] = (span_name, parent, t0, t1, n)

        return traced

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the layer functions in every package namespace."""
        from sectorheat import (cli, evolve, geometry, lifespan, picard,
                                profiles, semigroup)
        modules = [m for k, m in sys.modules.items()
                   if k == "sectorheat" or k.startswith("sectorheat.")]

        def kernel_name(args):
            f = args[2] if len(args) > 2 else None
            analytic = getattr(f, "profile", None) is not None
            return ("semigroup.apply_kernel.analytic" if analytic
                    else "semigroup.apply_kernel.grid")

        def pts_work(i):
            return lambda a, k, r: _points(a[i]) if len(a) > i else 0

        funcs = [
            (semigroup.apply_kernel, kernel_name, None),
            (semigroup.apply_spectral, "semigroup.apply_spectral", None),
            (semigroup.psi_values, "semigroup.psi_values", pts_work(2)),
            (semigroup.build_psi_cache, "semigroup.build_psi_cache", None),
            (semigroup.linear_sup, "semigroup.linear_sup", None),
            (semigroup.save_cache, "semigroup.save_cache",
             lambda a, k, r: _file_bytes(a[1])),
            (semigroup.load_cache, "semigroup.load_cache",
             lambda a, k, r: _file_bytes(a[0])),
            (picard.solve_picard, "picard.solve_picard",
             lambda a, k, r: len(r.increments) if r is not None else 0),
            (evolve.strang_step, "evolve.strang_step", None),
            (evolve.nonlinear_substep, "evolve.nonlinear_substep", None),
            (evolve.run_trajectory, "evolve.run_trajectory",
             lambda a, k, r: len(r[0].times) - 1 if r is not None else 0),
            (lifespan.sweep_lifespan, "lifespan.sweep_lifespan", None),
            (lifespan.global_smallness_check,
             "lifespan.global_smallness_check", None),
            (cli.get_cache, "cli.get_cache", None),
        ]
        for fn, name, work in funcs:
            wrapped = self._wrap(fn, name, work)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, attr, wrapped)
        for exp, fn in list(cli._RUNNERS.items()):
            self._patched.append((cli._RUNNERS, exp, fn))
            cli._RUNNERS[exp] = self._wrap(fn, f"cli.{exp}", None)
        for cls in (profiles.Psi0Profile, profiles.ModulatedProfile,
                    profiles.GaussianDerivativeProfile,
                    profiles.ConstantProfile, profiles.CustomProfile):
            self._patch(cls, "__call__",
                        self._wrap(cls.__call__, "profiles.sample",
                                   pts_work(1)))
        self._patch(geometry.Field, "__init__",
                    self._wrap(geometry.Field.__init__,
                               "geometry.Field.init", None))
        # count every warning the package raises, including those it
        # silences itself with catch_warnings
        counts = self.warnings
        warn = warnings.warn

        def counting_warn(message, category=None, stacklevel=1, **kwargs):
            kind = _warning_kind(message)
            counts[kind] = counts.get(kind, 0) + 1
            # one frame up, so the warning keeps its caller's location
            return warn(message, category, stacklevel + 1, **kwargs)

        self._patch(warnings, "warn", counting_warn)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patched.clear()

    # -- aggregation ------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.warnings.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, work."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for i, (name, parent, t0, t1, work) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "work": 0})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            agg["work"] += work
        return out
