"""The benchmark's own span recorder.

A span is ``(name, start_ns, end_ns, parent, op_id)``, kept in columns
that are allocated before the traced phase starts, so recording one
allocates nothing.  Spans are opened and closed from ``benchmarks/e2e``
around calls into the program's layers; the program itself is not
instrumented (spans inside it are a later issue's job).

A layer's *self time* is its span's duration minus the duration of its
direct children.  ``write_chrome`` dumps the spans as Chrome trace-event
JSON (load in ``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

#: Name of the span that wraps one whole operation.
OP = "op"
#: Name of the span around one un-staged call of the same operation
#: (every tenth operation); the staged/whole difference is the residual.
WHOLE = "whole"


class Tracer:
    """Fixed-capacity in-memory span columns for one thread."""

    def __init__(self, capacity: int, tid: int = 0) -> None:
        self._names: list = [None] * capacity
        self._starts = [0] * capacity
        self._ends = [0] * capacity
        self._parents = [-1] * capacity
        self._ops = [0] * capacity
        self._capacity = capacity
        self._count = 0
        self._stack: list[int] = []
        self.tid = tid
        self.dropped = 0

    def begin(self, name: str, op_id: int) -> int:
        """Open a span under the innermost open one; returns its index
        (-1 once the columns are full: the span is dropped)."""
        index = self._count
        if index >= self._capacity:
            self.dropped += 1
            return -1
        self._count = index + 1
        stack = self._stack
        self._names[index] = name
        self._parents[index] = stack[-1] if stack else -1
        self._ops[index] = op_id
        stack.append(index)
        self._starts[index] = perf_counter_ns()
        return index

    def end(self, index: int) -> None:
        """Close the span ``begin`` returned."""
        now = perf_counter_ns()
        if index >= 0:
            self._ends[index] = now
            self._stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int, op_id: int) -> None:
        """Record a span measured elsewhere (the program's own
        ``bulkload.*`` spans) under the innermost open span."""
        index = self.begin(name, op_id)
        if index >= 0:
            self._starts[index] = start_ns
            self._ends[index] = end_ns
            self._stack.pop()

    def spans(self) -> list[tuple]:
        """Every recorded ``(name, start, end, parent, op_id)``."""
        count = self._count
        return list(zip(self._names[:count], self._starts[:count],
                        self._ends[:count], self._parents[:count],
                        self._ops[:count]))


def self_times(spans: list[tuple]) -> dict[str, int]:
    """Total self time in ns per span name over one tracer's spans."""
    child_time = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, int] = defaultdict(int)
    for (name, start, end, _, _), children in zip(spans, child_time):
        totals[name] += end - start - children
    return dict(totals)


def write_chrome(tracers: list[Tracer], path: str) -> None:
    """Write the spans as Chrome trace-event JSON (complete events)."""
    events = []
    for tracer in tracers:
        for name, start, end, parent, op_id in tracer.spans():
            events.append({
                "name": name, "ph": "X", "pid": 0, "tid": tracer.tid,
                "ts": start / 1000.0, "dur": (end - start) / 1000.0,
                "args": {"op_id": op_id, "parent": parent}})
    with open(path, "w", encoding="utf-8") as out:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, out)
