"""Per-layer tracing by wrapping the package's public functions from outside.

Each layer boundary is a span: a call of one package function.  The wrapper is
installed in every loaded `xideform` module that holds the function under its name,
so calls made through any import path are seen; the package itself is not changed.
A span's self time is its duration less the durations of the spans opened inside it.
Counts are kept at the same boundaries.  Nothing is stored per span: the tracer keeps
running totals, and the runner reads and resets them once per pass.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

from xideform import cli, funceq, ode_solutions, quadrature, theta, xi_core, xi_multi
from xideform.errors import NonConvergenceError, PrecisionWarning

# every per-layer metric, in report order: counts per pass, then self time in ms per pass
COUNTS = (
    "theta.calls", "theta.points",
    "quadrature.calls", "quadrature.evals", "quadrature.nonconverged",
    "xi_core.mellin.calls", "xi_core.kernel.points", "xi_core.precision_warnings",
    "xi_core.mellin_many.calls", "xi_core.mellin_many.args", "xi_core.mellin_many.passes",
    "xi_multi.calls", "xi_multi.axis_passes", "xi_multi.axis_nodes",
    "ode_solutions.segment.calls",
    "funceq.verify.calls", "funceq.zero_scan.f_evals",
    "cli.calls",
)
TIMES = (
    "theta.self_ms", "quadrature.self_ms", "xi_core.mellin.self_ms", "xi_core.kernel.self_ms",
    "xi_core.mellin_many.self_ms", "xi_multi.self_ms", "ode_solutions.segment.self_ms",
    "funceq.verify.self_ms", "funceq.zero_scan.self_ms", "cli.self_ms",
)


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = Counter()
        self._open = []  # summed child durations of each open span, innermost last
        self._undo = []

    def reset(self):
        self.counts.clear()
        self.self_s.clear()

    def snapshot(self) -> dict:
        out = {name: self.counts[name] for name in COUNTS}
        out.update({name: 1e3 * self.self_s[name[: -len(".self_ms")]] for name in TIMES})
        return out

    def span(self, layer, fn, before=None, after=None):
        """Wrap fn as a span of `layer`; before(counts, args, kwargs) may return new args."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer.counts
            counts[layer + ".calls"] += 1
            if before is not None:
                args, kwargs = before(counts, args, kwargs)
            tracer._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except NonConvergenceError:
                if layer == "quadrature":
                    counts["quadrature.nonconverged"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                tracer.self_s[layer] += elapsed - tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += elapsed
            if after is not None:
                after(counts, result)
            return result

        return wrapper

    def counter(self, fn, count):
        """Wrap fn to count its calls without a span (for helpers such as panel_nodes)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(tracer.counts, result)
            return result

        return wrapper

    def install(self):
        def add(key, amount):
            def hook(counts, args, kwargs):
                counts[key] += amount(args, kwargs)
                return args, kwargs
            return hook

        def wrap(module, name, layer, before=None, after=None):
            fn = getattr(module, name, None)
            if fn is not None:
                self._install_everywhere(module, name, self.span(layer, fn, before, after))

        wrap(theta, "theta_values", "theta",
             before=add("theta.points", lambda a, k: int(np.size(a[1] if len(a) > 1 else k["t"]))))
        wrap(quadrature, "integrate_log_axis", "quadrature",
             after=lambda counts, res: counts.update({"quadrature.evals": res.evaluations}))
        wrap(xi_core, "mellin", "xi_core.mellin")
        wrap(xi_core, "kernel_values", "xi_core.kernel",
             before=add("xi_core.kernel.points", lambda a, k: int(np.size(a[1] if len(a) > 1 else k["x"]))))
        wrap(xi_core, "mellin_many", "xi_core.mellin_many",
             before=add("xi_core.mellin_many.args", lambda a, k: int(np.size(a[2] if len(a) > 2 else k["args"]))))
        wrap(xi_multi, "xi_d", "xi_multi")
        wrap(ode_solutions, "segment_weighted_mellin", "ode_solutions.segment")
        wrap(funceq, "verify", "funceq.verify")
        wrap(funceq, "zero_scan", "funceq.zero_scan", before=self._count_scan_evals)
        wrap(cli, "main", "cli")
        # Gauss passes: panel_nodes as seen from the modules whose passes are counted
        if hasattr(xi_core, "panel_nodes"):
            self._set(xi_core, "panel_nodes", self.counter(
                xi_core.panel_nodes, lambda counts, res: counts.update({"xi_core.mellin_many.passes": 1})))
        if hasattr(xi_multi, "panel_nodes"):
            self._set(xi_multi, "panel_nodes", self.counter(
                xi_multi.panel_nodes,
                lambda counts, res: counts.update({"xi_multi.axis_passes": 1, "xi_multi.axis_nodes": len(res[0])})))
        if hasattr(xi_core, "warnings"):
            self._set(xi_core, "warnings", _WarningCounter(xi_core.warnings, self.counts))

    @staticmethod
    def _count_scan_evals(counts, args, kwargs):
        def counting(f):
            def counted(z):
                counts["funceq.zero_scan.f_evals"] += 1
                return f(z)
            return counted

        if args:
            return (counting(args[0]), *args[1:]), kwargs
        return args, {**kwargs, "f": counting(kwargs["f"])}

    def _install_everywhere(self, module, name, wrapper):
        original = getattr(module, name)
        for key, mod in list(sys.modules.items()):
            if key.split(".")[0] == "xideform" and getattr(mod, name, None) is original:
                self._set(mod, name, wrapper)

    def _set(self, module, name, value):
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def uninstall(self):
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)


class _WarningCounter:
    """Stands in for the `warnings` module inside xi_core and counts PrecisionWarnings."""

    def __init__(self, real, counts):
        self._real = real
        self._counts = counts

    def warn(self, message, category=None, *args, **kwargs):
        if category is PrecisionWarning:
            self._counts["xi_core.precision_warnings"] += 1
        return self._real.warn(message, category, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)
