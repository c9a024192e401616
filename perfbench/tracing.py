"""In-memory spans for the traced run.

A span is (id, name, parent, start, end) with times from perf_counter. Span
names are `layer.function`, or a bare phase name for the benchmark's own
grouping spans; a layer's self time is the time its spans cover minus the
part their child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracing off: a span is a no-op context."""

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self):
        """Seconds of self time per layer (the part of a span name before the dot)."""
        child_time = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        totals = {}
        for s in self.spans:
            layer = s["name"].split(".", 1)[0] if "." in s["name"] else "bench"
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "self_s": self.self_times()}, handle, indent=1)
