"""In-memory spans recorded around the benchmark's calls into llbc.

A span is one call into a layer: its name (``<layer>.<function>``), start
and end on the ``perf_counter`` clock, the index of the span that was open
around it, the op it belongs to, the exception that ended it (if any), and
an optional input size. Spans stay in memory until the run ends and are
then written out as JSON lines.

``NULL`` is the tracer for untraced runs: its ``span`` hands back one
shared no-op context manager, so untraced ops pay one attribute lookup
and one ``with`` per layer call.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

_NOOP = contextlib.nullcontext()


class NullTracer:
    enabled = False

    def span(self, name, size=None):
        return _NOOP

    def count(self, name, n=1):
        pass

    def peak(self, name, value):
        pass


NULL = NullTracer()


class Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "op", "error", "size")

    def __init__(self, tracer, name, size):
        self.tracer = tracer
        self.name = name
        self.size = size
        self.error = None

    def __enter__(self):
        tracer = self.tracer
        self.parent = tracer.stack[-1] if tracer.stack else None
        self.op = tracer.op
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, kind, value, tb):
        self.end = time.perf_counter()
        self.tracer.stack.pop()
        if kind is not None:
            self.error = kind.__name__
        return False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = None
        self._index: dict[str, list[Span]] = {}
        self._indexed = 0

    def span(self, name, size=None) -> Span:
        return Span(self, name, size)

    def count(self, name, n=1):
        self.counts[name] += n

    def peak(self, name, value):
        if value > self.counts[name]:
            self.counts[name] = value

    def last(self, name) -> Span:
        return next(s for s in reversed(self.spans) if s.name == name)

    def by_name(self, name) -> list[Span]:
        if self._indexed != len(self.spans):
            self._index = {}
            for s in self.spans:
                self._index.setdefault(s.name, []).append(s)
            self._indexed = len(self.spans)
        return self._index.get(name, [])

    def busy(self, name) -> float:
        return sum(s.duration for s in self.by_name(name))

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover.

        Children of one span never overlap (one thread, nested ``with``
        blocks), so their durations can simply be summed.
        """
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path):
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                record = {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "self": own[i],
                    "parent": s.parent,
                    "op": s.op,
                }
                if s.error is not None:
                    record["error"] = s.error
                if s.size is not None:
                    record["size"] = s.size
                handle.write(json.dumps(record) + "\n")
