"""Outside-in tracer: spans around calls into each ``deuce`` layer's public functions.

The tracer patches module attributes from outside the library.  Each public
function of a layer module is replaced by a wrapper, and so is every other
reference to the same function object that a ``deuce`` module imported by
name (``deuce.sets.binomial_convolution_mass``, ``deuce.cli.set_win_prob``
and so on).  The surface callable handed to ``efficiency_two_param`` is
wrapped too.  The serve-bookkeeping helpers and other tiny ``core`` functions
stay unwrapped; their cost lands in the caller's self time.

A span records name, layer, start, end, parent span, op id, whether an
exception started there, and a work count.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

# Layer -> the module whose public functions are the layer's entry points.
LAYER_MODULES = {
    "core.convolution": "deuce.core",
    "game": "deuce.game",
    "sets": "deuce.sets",
    "match": "deuce.match",
    "bestof": "deuce.bestof",
    "efficiency": "deuce.efficiency",
    "montecarlo": "deuce.montecarlo",
}
CORE_ENTRY_POINTS = ("binomial_convolution_mass", "binomial_convolution_tail")
PMF_SUFFIX = "_points_distribution"
# Error counters are per module, so the convolution spans count under ``core``.
ERROR_LAYERS = ("core", "game", "sets", "match", "bestof", "efficiency", "montecarlo", "cli")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at top level
    op: int
    error: bool = False
    # Work done: (points,) for convolutions and surfaces, (bytes,) for the
    # CLI, (replications, points, capped) for simulations.
    work: tuple = ()


def entry_points(module) -> list[str]:
    """Public plain functions that ``module`` itself defines."""
    if module.__name__ == "deuce.core":
        return list(CORE_ENTRY_POINTS)
    return sorted(name for name, value in vars(module).items()
                  if not name.startswith("_") and inspect.isfunction(value)
                  and value.__module__ == module.__name__)


def _broadcast_points(args, kwargs, result) -> tuple:
    p1 = kwargs.get("p1", args[1] if len(args) > 1 else 0.0)
    p2 = kwargs.get("p2", args[3] if len(args) > 3 else 0.0)
    return (np.broadcast(np.asarray(p1), np.asarray(p2)).size,)


def _simulation_work(args, kwargs, summary) -> tuple:
    config = kwargs.get("config", args[0] if args else None)
    completed = config.replications - summary.capped_replications
    points = round(summary.mean_points * completed) if math.isfinite(summary.mean_points) else 0
    return (config.replications, points, summary.capped_replications)


def _output_bytes(args, kwargs, text) -> tuple:
    return (len(text.encode()),)


def _surface_points(args, kwargs, result) -> tuple:
    return (np.size(result),)


class Tracer:
    """Collects spans; ``install`` patches ``deuce`` and ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._last_error = None
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, work=None):
        """Return ``fn`` wrapped in a span; ``work(args, kwargs, result)`` sizes it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = self._starts_here(exc)
                raise
            else:
                span.end = time.perf_counter()
                if work is not None:
                    span.work = work(args, kwargs, result)
                return result
            finally:
                self._stack.pop()

        return traced

    def _starts_here(self, exc: BaseException) -> bool:
        """Count an error once: not again where it, or an error it caused, passes outward."""
        seen = exc
        while seen is not None:
            if seen is self._last_error:
                self._last_error = exc
                return False
            seen = seen.__context__
        self._last_error = exc
        return True

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "deuce" or name.startswith("deuce.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self, cli_module) -> None:
        """Wrap every layer's entry points, and ``cli_module.run_cli`` as the CLI layer."""
        for layer, module_name in LAYER_MODULES.items():
            module = sys.modules[module_name]
            for fn_name in entry_points(module):
                original = getattr(module, fn_name)
                name = f"{module_name.removeprefix('deuce.')}.{fn_name}"
                work = None
                if layer == "core.convolution":
                    work = _broadcast_points
                elif fn_name == "simulate":
                    work = _simulation_work
                elif fn_name == "efficiency_two_param":
                    original = self._wrap_surface_argument(original)
                self._replace_everywhere(getattr(module, fn_name),
                                         self.wrap(original, name, layer, work))
        run_cli = cli_module.run_cli
        self._patched.append((cli_module, "run_cli", run_cli))
        cli_module.run_cli = self.wrap(run_cli, "cli.main", "cli", _output_bytes)

    def _wrap_surface_argument(self, efficiency_two_param):
        surface_span = functools.partial(self.wrap, name="efficiency.surface",
                                         layer="efficiency.surface", work=_surface_points)

        @functools.wraps(efficiency_two_param)
        def with_traced_surface(surface, *args, **kwargs):
            return efficiency_two_param(surface_span(surface), *args, **kwargs)

        return with_traced_surface

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def _outermost(spans: list[Span], index: int, predicate) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if predicate(spans[parent]):
            return False
        parent = spans[parent].parent
    return True


def _is_pmf(layer: str):
    return lambda span: span.layer == layer and span.name.endswith(PMF_SUFFIX)


def layer_metrics(spans: list[Span]) -> dict:
    """The per-layer metrics over ``spans``: counts, and times in seconds."""
    calls, errors = Counter(), Counter()
    self_s, inclusive = defaultdict(float), defaultdict(float)
    work = defaultdict(lambda: [0.0, 0.0, 0.0])
    pmf = {"sets": 0.0, "match": 0.0}
    for index, (span, own) in enumerate(zip(spans, self_times(spans))):
        calls[span.layer] += 1
        self_s[span.layer] += own
        inclusive[span.layer] += span.end - span.start
        errors[span.layer.split(".")[0]] += span.error
        for slot, amount in enumerate(span.work):
            work[span.layer][slot] += amount
        for layer in pmf:
            if _is_pmf(layer)(span) and _outermost(spans, index, _is_pmf(layer)):
                pmf[layer] += span.end - span.start
    reports = calls["efficiency"]
    replications, sim_points, capped = work["montecarlo"]
    out = {
        "core.convolution.calls": calls["core.convolution"],
        "core.convolution.self_s": self_s["core.convolution"],
        "core.convolution.points": work["core.convolution"][0],
        "game.calls": calls["game"],
        "game.self_s": self_s["game"],
        "sets.calls": calls["sets"],
        "sets.self_s": self_s["sets"],
        "sets.pmf_s": pmf["sets"],
        "match.calls": calls["match"],
        "match.self_s": self_s["match"],
        "match.pmf_s": pmf["match"],
        "bestof.calls": calls["bestof"],
        "bestof.self_s": self_s["bestof"],
        "efficiency.reports": reports,
        "efficiency.self_s": self_s["efficiency"],
        "efficiency.surface_s": inclusive["efficiency.surface"],
        "efficiency.surface_points": work["efficiency.surface"][0] / reports if reports else 0.0,
        "montecarlo.replications": replications,
        "montecarlo.points": sim_points,
        "montecarlo.capped": capped,
        "montecarlo.self_s": self_s["montecarlo"],
        "cli.calls": calls["cli"],
        "cli.self_s": self_s["cli"],
        "cli.output_bytes": work["cli"][0],
    }
    for layer in ERROR_LAYERS:
        out[f"{layer}.errors"] = errors[layer]
    return out
