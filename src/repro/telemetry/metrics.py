"""Prometheus-style metric time series."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class MetricSeries:
    """One time series: ``(service, metric)`` → arrays of (t, value)."""

    service: str
    metric: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def add(self, t: float, v: float) -> None:
        self.times.append(t)
        self.values.append(float(v))

    def window(self, since: Optional[float] = None,
               until: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
        """Return (times, values) arrays restricted to [since, until]."""
        t = np.asarray(self.times)
        v = np.asarray(self.values)
        mask = np.ones(len(t), dtype=bool)
        if since is not None:
            mask &= t >= since
        if until is not None:
            mask &= t <= until
        return t[mask], v[mask]

    def latest(self) -> Optional[float]:
        return self.values[-1] if self.values else None


class MetricStore:
    """All metric series for a namespace's services.

    Standard metrics the collector records:

    * ``cpu_usage`` (millicores), ``memory_usage`` (MiB) — per service;
    * ``request_rate`` (req/s), ``error_rate`` (errors/s),
      ``latency_p50_ms`` / ``latency_p99_ms`` — per service per scrape.
    """

    STANDARD_METRICS = (
        "cpu_usage", "memory_usage", "request_rate", "error_rate",
        "latency_p50_ms", "latency_p99_ms",
    )

    def __init__(self) -> None:
        self._series: dict[tuple[str, str], MetricSeries] = {}

    def record(self, t: float, service: str, metric: str, value: float) -> None:
        self.series_for(service, metric).add(t, value)

    def series_for(self, service: str, metric: str) -> MetricSeries:
        """The ``(service, metric)`` series, created empty on first use."""
        key = (service, metric)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = MetricSeries(service, metric)
        return series

    def series(self, service: str, metric: str) -> Optional[MetricSeries]:
        return self._series.get((service, metric))

    def services(self) -> list[str]:
        return sorted({s for s, _ in self._series})

    def matrix(
        self,
        services: list[str],
        metric: str,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stack one metric across services into a (T, S) matrix.

        Series are aligned by index (scrapes are synchronized); ragged
        series are truncated to the shortest length.  Returns
        ``(times, matrix)`` — times come from the first non-empty series.
        """
        cols = []
        times = None
        for svc in services:
            s = self.series(svc, metric)
            if s is None:
                cols.append(np.zeros(0))
                continue
            t, v = s.window(since, until)
            if times is None and len(t):
                times = t
            cols.append(v)
        if times is None:
            return np.zeros(0), np.zeros((0, len(services)))
        n = min((len(c) for c in cols if len(c)), default=0)
        n = min(n, len(times))
        stacked = np.stack(
            [c[:n] if len(c) >= n else np.zeros(n) for c in cols], axis=1
        ) if n else np.zeros((0, len(services)))
        return times[:n], stacked

    def snapshot_latest(self, metric: str) -> dict[str, float]:
        """Latest value of one metric for every service."""
        out = {}
        for (svc, m), series in self._series.items():
            if m == metric and series.values:
                out[svc] = series.values[-1]
        return out
