"""Outside-in span tracing of mhlogsim's public functions.

Nothing under ``src/`` knows about this module. ``patched`` rebinds a
function in every loaded ``mhlogsim`` module that holds it (``engine``
imports ``bsc_of`` by name, for instance) and restores every binding on
exit. ``SpanTracer`` nests spans on one stack, so a span's self time is its
duration minus the time covered by its child spans, for every layer alike.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_ABSENT = object()

ENGINE_FUNCS = ("run_simulation", "sample_exponential", "summarize", "replicate")
TOPOLOGY_FUNCS = ("bsc_of", "hop_distance", "classify_move", "sample_next_cell", "cells_of_bsc")
STRATEGY_HANDLERS = ("on_write", "on_handoff", "on_checkpoint", "recover")
EXPERIMENT_FUNCS = ("run_figure", "emit_csv", "check_trends")

# Spans the benchmark opens around its own bookkeeping; they are subtracted
# from their parents' self time and never reported.
BENCH_PREFIX = "bench."


class SpanTracer:
    """Per-name self time and call counts of nested spans."""

    def __init__(self):
        self._stack: list[list[float]] = []  # one [child seconds] cell per open span
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()

    def wrap(self, name: str, fn):
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - cell[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dt

        return traced

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        """Return and reset the totals, leaving out the benchmark's own spans."""
        self_s = {k: v for k, v in self.self_s.items() if not k.startswith(BENCH_PREFIX)}
        calls = {k: v for k, v in self.calls.items() if not k.startswith(BENCH_PREFIX)}
        self.self_s.clear()
        self.calls.clear()
        return self_s, calls


def layer_targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every traced public function."""
    from mhlogsim import config, engine, experiments, model, strategies, topology

    targets = [(engine, f, f"engine.{f}") for f in ENGINE_FUNCS]
    targets += [(topology, f, f"topology.{f}") for f in TOPOLOGY_FUNCS]
    for cls in (strategies.LazyStrategy, strategies.PessimisticStrategy, strategies.ProposedStrategy):
        targets += [(cls, h, f"strategies.{cls.kind.value}.{h}") for h in STRATEGY_HANDLERS]
    targets.append((model, "validate_params", "model.validate_params"))
    targets += [(config.Config, m, f"config.{m}") for m in ("with_overrides", "build_tree")]
    targets += [(experiments, f, f"experiments.{f}") for f in EXPERIMENT_FUNCS]
    return targets


def span_names() -> list[str]:
    return [name for _, _, name in layer_targets()]


@contextmanager
def patched(replacements):
    """Apply ``(owner, attribute, make_wrapper)`` triples and undo them on exit.

    A module-level function is rebound in every loaded mhlogsim module that
    refers to the same object; a method is set on its class only.
    """
    undo: list[tuple[object, str, object]] = []
    modules = [m for n, m in list(sys.modules.items()) if n == "mhlogsim" or n.startswith("mhlogsim.")]
    try:
        for owner, attr, make_wrapper in replacements:
            original = getattr(owner, attr)
            wrapper = make_wrapper(original)
            if isinstance(owner, type):
                undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def tracing(tracer: SpanTracer):
    """Context manager that routes every layer target through ``tracer``."""
    return patched(
        [(owner, attr, functools.partial(tracer.wrap, name)) for owner, attr, name in layer_targets()]
    )
