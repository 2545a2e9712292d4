"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry point of each pipeline layer and
rebinds every name in the loaded ``parasol`` modules that refers to it, so
``from .connection import riemann`` in another module is traced too.
Methods are replaced on their class.  Spans nest on one stack: a span's self
time is its duration minus the spans it directly contains, and a layer's
inclusive time counts only its outermost span, so recursion is not counted
twice.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter_ns

# (span name, module, attribute); "Class.method" attributes are patched on the class
LAYERS = (
    ("manifest.load", "parasol.manifest", "load_manifest"),
    ("tensor.metric", "parasol.tensor", "Metric.__init__"),
    ("connection.christoffel", "parasol.connection", "christoffel"),
    ("connection.riemann", "parasol.connection", "riemann"),
    ("connection.ricci", "parasol.connection", "ricci"),
    ("solitons.semi_symmetry", "parasol.solitons", "semi_symmetry_residual"),
    ("symexpr.is_zero", "parasol.symexpr", "Expr.is_zero"),
    ("symexpr.evaluate", "parasol.symexpr", "Expr.evaluate"),
    ("chart.sample_points", "parasol.chart", "Chart.sample_points"),
    ("report.numeric_max", "parasol.report", "residual_numeric_max"),
    ("report.serialise", "parasol.report", "VerificationReport.to_json"),
    ("oracle.sample_points", "parasol.oracle", "oracle_sample_points"),
    ("oracle.compare", "parasol.oracle", "compare"),
)

# CLI command names as keyed in parasol.analysis.COMMANDS
COMMANDS = (
    "validate",
    "curvature",
    "sasakian",
    "einstein-fit",
    "soliton-check",
    "soliton-solve",
    "torse",
    "collinear",
    "parallel",
    "oracle",
    "report",
)

# metric name -> (statistic, span name); statistic is "incl", "self" or "calls"
LAYER_METRICS = {
    "tensor.metric_s": ("incl", "tensor.metric"),
    "connection.christoffel_s": ("incl", "connection.christoffel"),
    "connection.riemann_s": ("incl", "connection.riemann"),
    "connection.ricci_s": ("incl", "connection.ricci"),
    "solitons.semi_symmetry_s": ("incl", "solitons.semi_symmetry"),
    "symexpr.is_zero_calls": ("calls", "symexpr.is_zero"),
    "symexpr.is_zero_s": ("incl", "symexpr.is_zero"),
    "chart.sample_points_calls": ("calls", "chart.sample_points"),
    "symexpr.evaluate_calls": ("calls", "symexpr.evaluate"),
    "symexpr.evaluate_s": ("incl", "symexpr.evaluate"),
    "report.numeric_max_s": ("incl", "report.numeric_max"),
    "oracle.sample_points_s": ("incl", "oracle.sample_points"),
    "oracle.compare_s": ("incl", "oracle.compare"),
    "manifest.load_s": ("self", "manifest.load"),
    "report.serialise_s": ("incl", "report.serialise"),
}
LAYER_METRICS.update(
    {"analysis.%s_self_s" % name: ("self", "analysis." + name) for name in COMMANDS}
)

RIEMANN_CHARS = "connection.riemann_chars"


def _resolve(module_name: str, attribute: str):
    """(owner, attribute name, current value) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def _parasol_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "parasol" or name.startswith("parasol."))
    ]


class Tracer:
    """Spans and call counts for the wrapped layers, reset once per pass."""

    def __init__(self) -> None:
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.inclusive_ns: defaultdict[str, int] = defaultdict(int)
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.riemann_results: list = []
        self.missing: list[str] = []
        self._active: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, object, object]] = []

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        for table in (self.calls, self.inclusive_ns, self.self_ns, self._active):
            table.clear()
        self.riemann_results.clear()
        self._stack.clear()

    def _wrap(self, name: str, fn, keep=None):
        calls, inclusive, own = self.calls, self.inclusive_ns, self.self_ns
        active, stack = self._active, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            active[name] += 1
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                own[name] += elapsed - children
                active[name] -= 1
                if not active[name]:
                    inclusive[name] += elapsed
            if keep is not None:
                keep.append(result)
            return result

        traced.__wrapped_layer__ = name
        return traced

    # -- installation ---------------------------------------------------------

    def _rebind_everywhere(self, original, wrapper) -> None:
        for module in _parasol_modules():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._restore.append((namespace, key, original))
                    namespace[key] = wrapper
                elif isinstance(value, dict):
                    for inner_key, inner in list(value.items()):
                        if inner is original:
                            self._restore.append((value, inner_key, original))
                            value[inner_key] = wrapper

    def install(self) -> None:
        """Wrap every layer of the loaded ``parasol`` package."""
        import parasol.cli  # noqa: F401  (loads every module that imports a layer)

        for span, module_name, attribute in LAYERS:
            try:
                owner, name, original = _resolve(module_name, attribute)
            except (ImportError, AttributeError):
                self.missing.append(span)
                continue
            keep = self.riemann_results if span == "connection.riemann" else None
            wrapper = self._wrap(span, original, keep)
            if isinstance(owner, type):
                self._restore.append((owner, name, original))
                setattr(owner, name, wrapper)
            else:
                self._rebind_everywhere(original, wrapper)
        handlers = importlib.import_module("parasol.analysis").COMMANDS
        for command in COMMANDS:
            original = handlers.get(command)
            if original is None:
                self.missing.append("analysis." + command)
                continue
            self._rebind_everywhere(original, self._wrap("analysis." + command, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # -- results ----------------------------------------------------------------

    def riemann_chars(self) -> int:
        """Total printed length of every Riemann component computed this pass."""
        return sum(
            len(str(comp)) for tensor in self.riemann_results for _, comp in tensor.components()
        )

    def snapshot(self) -> dict[str, float]:
        """This pass's layer metrics: seconds for spans, counts for calls."""
        out: dict[str, float] = {}
        for metric, (statistic, span) in LAYER_METRICS.items():
            if statistic == "calls":
                out[metric] = self.calls.get(span, 0)
            elif statistic == "self":
                out[metric] = self.self_ns.get(span, 0) / 1e9
            else:
                out[metric] = self.inclusive_ns.get(span, 0) / 1e9
        out[RIEMANN_CHARS] = self.riemann_chars()
        return out
