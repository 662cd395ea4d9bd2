"""Jaeger-style distributed traces, stored as numbered tuples of span rows.

A trace is a number, a start time and its spans as rows in the order the
request entered them: the root first, every parent before its children,
each row naming its parent by row index.  Nothing else is stored — every
id is derived from the trace's number and a row's position when the trace
is read or rendered: the trace is :func:`trace_id` of its number, span
``i`` is ``span-{number + 1 + i:08x}``, and every span starts when the
trace did.  :meth:`TraceStore.add`, the one way a trace enters the store,
hands out numbers by advancing a plain-int counter by ``1 + len(rows)`` —
one id for the trace and one per span, the sequence the exported ids have
always followed.

A trace row is the exact tuple ``(number, start, spans)``, ``spans`` a
tuple of span rows ``(parent, service, operation, duration_ms, status,
error_message)``, ``parent`` the parent row's index (-1 for the root) and
``status`` ``"OK"`` or ``"ERROR"``; :meth:`TraceStore.rows` hands them out
as stored.  They stay exact tuples because of the cyclic GC: CPython
untracks a tuple of atomic values only when it is an exact tuple, so a
NamedTuple row would stay tracked, and walked by every full collection,
for as long as the store keeps it — and unpickling one calls its
Python-level ``__new__``.  ``traces.json`` (:func:`render_traces`) is the
text ``json``'s ``dumps`` would write, rendered from rows; the oracle test
is the reference.
"""

from __future__ import annotations

from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional


def trace_id(number: int) -> str:
    """The id of the trace numbered ``number``."""
    return f"trace-{number:08x}"


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


def render_traces(traces: Iterable[tuple]) -> str:
    """``{"data": [...]}`` as ``json``'s ``dumps`` writes it with a
    one-space indent, from trace rows: one template
    per trace and per span (a trace has at least one span), each string
    encoded once per call."""
    quote, out = cache(encode_basestring_ascii), []
    for number, start, spans in traces:
        first, tid = number + 1, trace_id(number)
        begin = json_number(start)
        out.append(_TRACE % (tid, ",\n".join([_SPAN % (
            first + i, tid,
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
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        #: ``(number, start, rows)`` exact tuples, oldest first
        self._traces: list[tuple] = []
        #: the next trace's number (a plain int, so the store pickles)
        self._next = 1

    def __len__(self) -> int:
        return len(self._traces)

    def add(self, start: float, rows: tuple) -> int:
        """Store ``rows`` — exact span rows, root first, parents before
        children — as one trace started at ``start``; returns its number.
        A full store drops its oldest tenth (at least one trace)."""
        number = self._next
        self._next = number + 1 + len(rows)
        traces = self._traces
        traces.append((number, start, rows))
        if len(traces) > self.capacity:
            del traces[: self.capacity // 10 or 1]
        return number

    def rows(self, since: Optional[float] = None,
             until: Optional[float] = None) -> list[tuple]:
        """The stored trace rows started in the window, oldest first."""
        return [tr for tr in self._traces
                if (since is None or tr[1] >= since)
                and (until is None or tr[1] <= until)]

    def error_rate_by_service(
        self, since: Optional[float] = None
    ) -> dict[str, float]:
        """Fraction of spans per service that errored in the window."""
        total: dict[str, int] = {}
        errors: dict[str, int] = {}
        for _, _, spans in self.rows(since=since):
            for _, service, _, _, status, _ in spans:
                total[service] = total.get(service, 0) + 1
                if status == "ERROR":
                    errors[service] = errors.get(service, 0) + 1
        return {
            svc: errors.get(svc, 0) / n for svc, n in total.items() if n > 0
        }
