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
followed.  ``traces.json`` (:func:`render_traces`) is the text ``json``'s
``dumps`` would write, rendered from rows; the oracle test is the reference.
"""

from __future__ import annotations

from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple, Optional


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
    def root(self) -> Span:
        return self.spans[0]

    @property
    def has_error(self) -> bool:
        return any(s.status == "ERROR" for s in self.spans)


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_TRACE = '  {\n   "traceID": "%s",\n   "spans": [\n%s\n   ]\n  }'
_SPAN = ('    {\n     "spanID": "span-%08x",\n     "traceID": "%s",\n'
         '     "parentSpanID": %s,\n     "serviceName": %s,\n'
         '     "operationName": %s,\n     "startTime": %s,\n'
         '     "durationMs": %s,\n     "status": %s,\n     "error": %s\n    }')


def json_number(x: float) -> str:
    """``x`` as ``json`` writes it: the float or int repr (a numpy float
    renders as a plain one), NaN and the infinities spelled JSON's way."""
    text = float.__repr__(x) if isinstance(x, float) else int.__repr__(x)
    return _NONFINITE.get(text, text)


def render_traces(traces: Iterable[Trace]) -> str:
    """``{"data": [...]}`` as ``json``'s ``dumps`` writes it with a
    one-space indent: one template per trace and per span (a trace has at
    least one span), each string encoded once per call."""
    quote, out = cache(encode_basestring_ascii), []
    for number, start, spans in traces:
        first, trace_id = number + 1, f"trace-{number:08x}"
        begin = json_number(start)
        out.append(_TRACE % (trace_id, ",\n".join([_SPAN % (
            first + i, trace_id,
            f'"span-{first + parent:08x}"' if parent >= 0 else "null",
            quote(service), quote(operation), begin, json_number(ms),
            quote(status), quote(error))
            for i, (parent, service, operation, ms, status, error)
            in enumerate(spans)])))
    return '{\n "data": [\n%s\n ]\n}' % ",\n".join(out) if out \
        else '{\n "data": []\n}'


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
