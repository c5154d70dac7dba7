"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's side only: :meth:`SpanRecorder.wrap`
replaces a public method (on an instance, or on a class for objects the
program creates internally) with a timing wrapper, and :meth:`restore`
puts every original back.  Nothing inside ``src/`` is touched.

Each span is ``(name, start, end, parent, unit)``: ``parent`` is the index
of the enclosing span (``-1`` at the root) and ``unit`` is the id of the
slot or window being run, shared by every span of that unit.  Self time
is a span's duration minus the durations of its direct children, so the
self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import time
from collections import defaultdict

_MISSING = object()


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.unit = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def traced(self, fn, name: str):
        """``fn`` wrapped so that every call records one span ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def call(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.unit)

        return call

    def wrap(self, obj, attr: str, name: str, wrapper=None) -> None:
        """Trace ``obj.attr`` until :meth:`restore`.

        ``wrapper``, when given, builds the replacement from the original
        callable instead of :meth:`traced` (used to trace a returned
        closure as well as the call that makes it).
        """
        before = obj.__dict__.get(attr, _MISSING)
        original = getattr(obj, attr)
        new = wrapper(original) if wrapper else self.traced(original, name)
        setattr(obj, attr, new)
        self._installed.append((obj, attr, before))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._installed:
            obj, attr, before = self._installed.pop()
            if before is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, before)

    def root(self, unit: int, body) -> None:
        """Run ``body()`` under the root span ``bench.step`` of ``unit``."""
        self.unit = unit
        self.traced(body, "bench.step")()


def self_times(spans) -> dict[str, float]:
    """Total self seconds per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - child[i]
    return dict(out)


def root_seconds(spans) -> float:
    """Total duration of the root spans (the traced loop time)."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
