"""Telemetry stack: logs (Filebeat/Logstash), metrics (Prometheus), traces (Jaeger).

The :class:`TelemetryCollector` is the single sink the service runtime and
the cluster write into.  The ACI's ``get_logs`` / ``get_metrics`` /
``get_traces`` read from it, and :mod:`repro.telemetry.export` dumps it to
disk for offline (non-LLM) AIOps baselines, mirroring §2.5 of the paper.
"""

from repro.telemetry.logs import LogStore
from repro.telemetry.metrics import MetricStore, MetricSeries
from repro.telemetry.traces import TraceStore
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.export import TelemetryExporter
from repro.telemetry.watch import MetricWatch

__all__ = [
    "MetricWatch",
    "LogStore",
    "MetricStore",
    "MetricSeries",
    "TraceStore",
    "TelemetryCollector",
    "TelemetryExporter",
]
