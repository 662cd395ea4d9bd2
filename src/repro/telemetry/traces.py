"""Jaeger-style distributed traces, stored as numbered lists of span rows.

A trace is a number, a start time and its spans as rows in the order the
request entered them: the root first, every parent before its children,
each row naming its parent by list index.  Nothing else is stored — every
id is derived from the trace's number and a row's position when the trace
is read or rendered: the trace is ``trace-{number:08x}``, span ``i`` is
``span-{number + 1 + i:08x}``, and every span starts when the trace did.
:meth:`TraceStore.record`, the one way a trace enters the store, hands out
numbers by advancing a plain-int counter by ``1 + len(spans)`` — one id for
the trace and one per span, the sequence the exported ids have always
followed.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Span(NamedTuple):
    """One timed unit of work: a row of its trace."""

    parent: int                 # index of the parent row; -1 for the root
    service: str
    operation: str
    duration_ms: float
    status: str = "OK"          # OK | ERROR
    error_message: str = ""


class Trace(NamedTuple):
    """A full request trace: a numbered list of span rows."""

    number: int
    start: float
    spans: list[Span]

    @property
    def trace_id(self) -> str:
        return f"trace-{self.number:08x}"

    @property
    def span_ids(self) -> list[str]:
        first = self.number + 1
        return [f"span-{first + i:08x}" for i in range(len(self.spans))]

    @property
    def root(self) -> Span:
        return self.spans[0]

    @property
    def has_error(self) -> bool:
        return any(s.status == "ERROR" for s in self.spans)

    def to_dict(self) -> dict:
        trace_id, start, ids = self.trace_id, self.start, self.span_ids
        return {"traceID": trace_id, "spans": [{
            "spanID": ids[i],
            "traceID": trace_id,
            "parentSpanID": ids[parent] if parent >= 0 else None,
            "serviceName": service,
            "operationName": operation,
            "startTime": start,
            "durationMs": duration_ms,
            "status": status,
            "error": error_message,
        } for i, (parent, service, operation, duration_ms, status,
                  error_message) in enumerate(self.spans)]}


class TraceStore:
    """Holds traces with time-window retrieval (the Jaeger query API)."""

    def __init__(self, capacity: int = 50_000) -> None:
        self.capacity = capacity
        self._traces: list[Trace] = []
        #: the next trace's number (a plain int, so the store pickles)
        self._next = 1

    def __len__(self) -> int:
        return len(self._traces)

    def record(self, start: float, spans: list[Span]) -> Trace:
        """Number ``spans`` (root first, parents before children) as one
        trace started at ``start`` and store it."""
        trace = Trace(self._next, start, spans)
        self._next += 1 + len(spans)
        self._traces.append(trace)
        if len(self._traces) > self.capacity:
            del self._traces[: self.capacity // 10]
        return trace

    def query(self, since: Optional[float] = None,
              until: Optional[float] = None) -> list[Trace]:
        return [tr for tr in self._traces
                if (since is None or tr.start >= since)
                and (until is None or tr.start <= until)]

    def error_rate_by_service(
        self, since: Optional[float] = None
    ) -> dict[str, float]:
        """Fraction of spans per service that errored in the window."""
        total: dict[str, int] = {}
        errors: dict[str, int] = {}
        for tr in self.query(since=since):
            for s in tr.spans:
                total[s.service] = total.get(s.service, 0) + 1
                if s.status == "ERROR":
                    errors[s.service] = errors.get(s.service, 0) + 1
        return {
            svc: errors.get(svc, 0) / n for svc, n in total.items() if n > 0
        }
