"""In-memory span recorder that wraps the program's public functions from outside.

`Tracer.wrap` replaces a module function or class method with a wrapper that
records a span (name, start, end, parent span, rows of the first array
argument) and `Tracer.uninstall` puts every original back. Nothing in the
program is edited. Spans stay in memory; aggregation happens after the run.

Optional extras, each switched on per tracer:

* ``gc`` records every garbage-collector pause through ``gc.callbacks``
  (the autodiff tape's closures form reference cycles, so ERM and the flow
  leave work for the cycle collector);
* ``memory`` records, per span, the peak bytes allocated above the traced
  memory at span start, using ``tracemalloc``. Nested spans fold their peak
  into the parent, so ``reset_peak`` at a child does not hide the parent's.
"""

from __future__ import annotations

import functools
import gc
import time
import tracemalloc

import numpy as np

_now = time.perf_counter


class Span:
    __slots__ = ("index", "name", "parent", "rows", "start", "end", "child_time",
                 "base_mem", "peak_mem")

    def __init__(self, index: int, name: str, parent: int, rows: int):
        self.index = index
        self.name = name
        self.parent = parent
        self.rows = rows
        self.start = 0.0
        self.end = 0.0
        self.child_time = 0.0
        self.base_mem = 0
        self.peak_mem = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time covered by direct child spans."""
        return self.duration - self.child_time

    @property
    def alloc_peak(self) -> int:
        """Peak bytes allocated above the traced memory at span start."""
        return self.peak_mem - self.base_mem


def _rows(args) -> int:
    for a in args:
        if isinstance(a, np.ndarray):
            return a.shape[0] if a.ndim else 1
    return 0


class Tracer:
    def __init__(self, gc_pauses: bool = False, memory: bool = False):
        self.spans: list[Span] = []
        self.gc_events: list[tuple[float, float]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc = gc_pauses
        self._memory = memory
        self._gc_start = 0.0
        self._kids: dict[int, list[Span]] | None = None

    # -- installation -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named `name` around every call of owner.attr."""
        original = owner.__dict__[attr]
        enter, leave = self._enter, self._leave

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = enter(name, args)
            try:
                return original(*args, **kwargs)
            finally:
                leave(idx)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        if self._gc:
            gc.callbacks.append(self._on_gc)
        if self._memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._gc and self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        if self._memory and tracemalloc.is_tracing():
            tracemalloc.stop()

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str, args) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = Span(idx, name, parent, _rows(args))
        if self._memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent >= 0:
                p = self.spans[parent]
                p.peak_mem = max(p.peak_mem, peak)
            tracemalloc.reset_peak()
            span.base_mem = span.peak_mem = current
        self.spans.append(span)
        self._stack.append(idx)
        span.start = _now()
        return idx

    def _leave(self, idx: int) -> None:
        end = _now()
        span = self.spans[idx]
        span.end = end
        self._stack.pop()
        if self._memory:
            span.peak_mem = max(span.peak_mem, tracemalloc.get_traced_memory()[1])
        if span.parent >= 0:
            parent = self.spans[span.parent]
            parent.child_time += span.duration
            if self._memory:
                parent.peak_mem = max(parent.peak_mem, span.peak_mem)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _now()
        else:
            self.gc_events.append((self._gc_start, _now()))

    # -- queries ------------------------------------------------------------

    def has_ancestor(self, span: Span, name: str) -> bool:
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False

    def select(self, name: str, under: str | None = None,
               rows: int | None = None) -> list[Span]:
        """Spans called `name`, optionally only those inside an `under` span
        and only those whose first array argument had `rows` rows."""
        return [s for s in self.spans if s.name == name
                and (under is None or self.has_ancestor(s, under))
                and (rows is None or s.rows == rows)]

    def children(self, span: Span, name: str) -> list[Span]:
        if self._kids is None:
            self._kids = {}
            for s in self.spans:
                self._kids.setdefault(s.parent, []).append(s)
        return [s for s in self._kids.get(span.index, ()) if s.name == name]

    def gc_within(self, span: Span) -> tuple[float, int]:
        """(total pause seconds, collections) that started inside `span`."""
        pauses = [e - s for s, e in self.gc_events if span.start <= s < span.end]
        return sum(pauses), len(pauses)
