"""In-memory spans around the benchmark's calls into each layer.

A span records its name, start, end (``perf_counter`` seconds) and the
id of the span that was open around it on the same thread.  Spans are
kept in a list and written out once, when the run ends; a disabled
tracer hands out one shared no-op context, so untraced runs pay only a
method call per window.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
from time import perf_counter

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._ids = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            self._ids += 1
            sid = self._ids
        record = {"id": sid, "name": name, "parent": stack[-1] if stack else None}
        stack.append(sid)
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def durations_ms(self, name):
        """Durations of every span called ``name``, in milliseconds."""
        return [(s["end"] - s["start"]) * 1e3 for s in self.spans if s["name"] == name]

    def median_ms(self, name):
        return statistics.median(self.durations_ms(name))

    def write(self, path, extra):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, **extra}, handle)
