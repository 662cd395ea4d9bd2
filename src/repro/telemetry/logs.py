"""Structured application logs (the Filebeat/Logstash pipeline equivalent).

A line is stored, and handed out by :meth:`LogStore.rows`, as the exact
tuple ``(time, namespace, service, pod, level, message)``, ``level`` one of
``INFO``, ``WARN`` and ``ERROR``.  An exact tuple of atomic values is
untracked by the cyclic GC, a NamedTuple row never is (see
:mod:`repro.telemetry.traces`).

``all.jsonl`` (:func:`render_jsonl`) is the text ``json``'s ``dumps`` would
write, rendered from rows; the oracle test is the reference.
"""

from __future__ import annotations

from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional

from repro.telemetry.traces import json_number


def render_line(row: tuple) -> str:
    """A log row as ``kubectl logs`` shows it."""
    time, _, service, _, level, message = row
    mins = int(time // 60)
    secs = time - mins * 60
    ts = f"2026-06-12T10:{mins % 60:02d}:{secs:06.3f}Z"
    return f"{ts} {level:<5} [{service}] {message}"


def render_jsonl(records: Iterable[tuple]) -> str:
    """Each row's fields as one line of ``dumps`` with default options."""
    quote = cache(encode_basestring_ascii)
    return "".join([
        '{"time": %s, "namespace": %s, "service": %s, "pod": %s, '
        '"level": %s, "message": %s}\n' % (
            json_number(time), quote(namespace), quote(service),
            quote(pod), quote(level), quote(message))
        for time, namespace, service, pod, level, message in records])


class LogStore:
    """Append-only log store with per-service and per-pod retrieval."""

    def __init__(self, capacity: int = 200_000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        #: log rows, oldest first
        self._records: list[tuple] = []

    def __len__(self) -> int:
        return len(self._records)

    def emit(
        self, time: float, namespace: str, service: str, pod: str,
        level: str, message: str,
    ) -> None:
        records = self._records
        records.append((time, namespace, service, pod, level, message))
        if len(records) > self.capacity:
            # Drop the oldest 10% (at least one) in one slice to amortize
            # the cost.
            del records[: self.capacity // 10 or 1]

    # -- queries ---------------------------------------------------------
    def rows(
        self,
        namespace: Optional[str] = None,
        service: Optional[str] = None,
        pod: Optional[str] = None,
        level: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> list[tuple]:
        """The stored rows that match; all criteria are ANDed, None means
        no filter."""
        out = []
        for r in self._records:
            if namespace is not None and r[1] != namespace:
                continue
            if service is not None and r[2] != service:
                continue
            if pod is not None and r[3] != pod:
                continue
            if level is not None and r[4] != level:
                continue
            if since is not None and r[0] < since:
                continue
            if until is not None and r[0] > until:
                continue
            out.append(r)
        return out

    def tail(self, namespace: str, n: int = 50, service: Optional[str] = None,
             pod: Optional[str] = None) -> str:
        """Last ``n`` rendered lines of a service or a pod (the ``kubectl
        logs --tail`` view: 0 gives no lines, a negative ``n`` every line)."""
        if n == 0:
            return ""
        records = self.rows(namespace=namespace, service=service, pod=pod)
        if n > 0:
            records = records[-n:]
        return "\n".join(map(render_line, records))

    def error_counts(self, namespace: str,
                     since: Optional[float] = None) -> dict[str, int]:
        """ERROR-line count per service — the coarse signal detectors use."""
        counts: dict[str, int] = {}
        for r in self.rows(namespace=namespace, level="ERROR", since=since):
            counts[r[2]] = counts.get(r[2], 0) + 1
        return counts

    def services_seen(self, namespace: str) -> set[str]:
        return {r[2] for r in self._records if r[1] == namespace}
