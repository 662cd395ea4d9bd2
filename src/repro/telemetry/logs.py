"""Structured application logs (the Filebeat/Logstash pipeline equivalent).

``all.jsonl`` (:func:`render_jsonl`) is the text ``json``'s ``dumps`` would
write, rendered from rows; the oracle test is the reference.
"""

from __future__ import annotations

from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple, Optional

from repro.telemetry.traces import json_number


class LogRecord(NamedTuple):
    """One structured log line from a pod: an immutable row."""

    time: float
    namespace: str
    service: str
    pod: str
    level: str       # INFO / WARN / ERROR
    message: str

    def render(self) -> str:
        """Render the line the way ``kubectl logs`` would show it."""
        mins = int(self.time // 60)
        secs = self.time - mins * 60
        ts = f"2026-06-12T10:{mins % 60:02d}:{secs:06.3f}Z"
        return f"{ts} {self.level:<5} [{self.service}] {self.message}"


def render_jsonl(records: Iterable[LogRecord]) -> str:
    """Each record's fields as one line of ``dumps`` with default options."""
    quote = cache(encode_basestring_ascii)
    return "".join([
        '{"time": %s, "namespace": %s, "service": %s, "pod": %s, '
        '"level": %s, "message": %s}\n' % (
            json_number(r.time), quote(r.namespace), quote(r.service),
            quote(r.pod), quote(r.level), quote(r.message))
        for r in records])


class LogStore:
    """Append-only log store with per-service and per-pod retrieval."""

    def __init__(self, capacity: int = 200_000) -> None:
        self.capacity = capacity
        self._records: list[LogRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def emit(
        self, time: float, namespace: str, service: str, pod: str,
        level: str, message: str,
    ) -> LogRecord:
        rec = tuple.__new__(
            LogRecord, (time, namespace, service, pod, level, message))
        records = self._records
        records.append(rec)
        if len(records) > self.capacity:
            # Drop the oldest 10% in one slice to amortize the cost.
            del records[: self.capacity // 10]
        return rec

    # -- queries ---------------------------------------------------------
    def query(
        self,
        namespace: Optional[str] = None,
        service: Optional[str] = None,
        pod: Optional[str] = None,
        level: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> list[LogRecord]:
        """Filter records; all criteria are ANDed, None means no filter."""
        out = []
        for r in self._records:
            if namespace is not None and r.namespace != namespace:
                continue
            if service is not None and r.service != service:
                continue
            if pod is not None and r.pod != pod:
                continue
            if level is not None and r.level != level:
                continue
            if since is not None and r.time < since:
                continue
            if until is not None and r.time > until:
                continue
            out.append(r)
        return out

    def tail(self, namespace: str, n: int = 50, service: Optional[str] = None,
             pod: Optional[str] = None) -> str:
        """Last ``n`` rendered lines of a service or a pod (the ``kubectl
        logs --tail`` view: 0 gives no lines, a negative ``n`` every line)."""
        if n == 0:
            return ""
        records = self.query(namespace=namespace, service=service, pod=pod)
        if n > 0:
            records = records[-n:]
        return "\n".join(r.render() for r in records)

    def error_counts(self, namespace: str,
                     since: Optional[float] = None) -> dict[str, int]:
        """ERROR-line count per service — the coarse signal detectors use."""
        counts: dict[str, int] = {}
        for r in self.query(namespace=namespace, level="ERROR", since=since):
            counts[r.service] = counts.get(r.service, 0) + 1
        return counts

    def services_seen(self, namespace: str) -> set[str]:
        return {r.service for r in self._records if r.namespace == namespace}
