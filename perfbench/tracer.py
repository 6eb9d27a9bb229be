"""Span and counter wrappers around semsim's layer boundaries.

A traced benchmark run installs these wrappers from outside the package,
around the public functions of each layer, and removes them afterwards. The
program itself carries no instrumentation.

Spans are aggregated in memory per name (calls, total time, self time) and
handed over once, when the run ends; a per-call log would cost more than the
work it measures (a waterfall run makes millions of pattern matches). Self
time is a span's duration minus the time of the spans nested inside it. A
span opened on a worker thread with nothing open on that thread counts as a
child of the kernel thread's open span (concurrent mode runs dispatches on
worker threads while the kernel thread waits in `Kernel.step`).

Wrappers whose target no longer exists are skipped and listed in `missing`,
so a later refactor of the program shows up as a zero count, not a crash.
"""
from __future__ import annotations

import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._local = threading.local()
        self._kernel_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so each call is a span called name."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time covered by nested spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                elif stack is not self._kernel_stack and self._kernel_stack:
                    self._kernel_stack[-1][0] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, name: str, fn, on_result=None):
        """Wrap fn so its calls are counted under name, without timing."""

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def patch(self, owner, attr: str, make_wrapper, name: str, on_result=None):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(name, original, on_result))

    def install(self):
        """Wrap every layer boundary the benchmark reports on."""
        from semsim import cli, engine, models, topology, validation, world

        counts = self.counts

        def add(key, n):
            counts[key] += n

        def on_match(bindings):
            if bindings is not None:
                counts["validation.matches"] += 1

        span, counter = self.span, self.counter
        for owner, attr, wrap, name, on_result in (
            (engine.Kernel, "step", span, "engine.step", None),
            (engine.Kernel, "emit_trace", span, "engine.emit_trace", None),
            (engine, "fire", span, "engine.fire", None),
            (engine, "enabled", span, "engine.enabled", None),
            (engine, "guard_report", span, "engine.guard_report", None),
            (engine, "send_signal", span, "engine.send_signal", None),
            (topology, "commit", span, "topology.commit",
             lambda record: add("topology.moves", len(record.applied))),
            (topology, "ring_push", span, "topology.ring_push", None),
            (validation, "validate", span, "validation.validate",
             lambda report: add("validation.violations", len(report.violations))),
            (validation, "derive_triples", span, "validation.derive_triples",
             lambda triples: add("validation.triples", len(triples))),
            (validation.TriplePattern, "match", counter, "validation.match", on_match),
            (world.World, "split_portion", span, "world.split_portion", None),
            (world.World, "merge_portions", span, "world.merge_portions", None),
            (world.World, "set_state", span, "world.set_state", None),
            (world.World, "occupant", span, "world.occupant", None),
            (cli, "write_outputs", span, "cli.write_outputs", None),
            (models, "build_builtin", span, "models.build", None),
            (cli, "load_model_file", span, "models.build", None),
            (threading.Thread, "start", counter, "threading.start", None),
        ):
            self.patch(owner, attr, wrap, name, on_result)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def tables(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "missing": self.missing,
        }
