"""On-disk telemetry export (§2.5: offline data for traditional AIOps).

The ACI returns *paths* from ``get_logs``/``get_metrics``/``get_traces``
(like the paper's Example 2.2, which saves traces and returns the
directory); this module writes those files.  ``traces.json`` and
``all.jsonl`` are the text ``json``'s ``dumps`` would write, rendered from
rows; the oracle test (``tests/telemetry/test_render_exact.py``) is the
reference.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Optional

from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.logs import render_jsonl
from repro.telemetry.traces import render_traces


class TelemetryExporter:
    """Writes the collector's stores to a directory tree.

    Layout::

        <root>/logs/<service>.log       rendered log lines
        <root>/logs/all.jsonl           structured records
        <root>/metrics/<metric>.csv     time,service,value rows
        <root>/traces/traces.json       Jaeger-style JSON
    """

    def __init__(self, collector: TelemetryCollector, root: str | Path) -> None:
        self.collector = collector
        self.root = Path(root)

    def export_logs(self, namespace: str,
                    since: Optional[float] = None) -> Path:
        out_dir = self.root / "logs"
        out_dir.mkdir(parents=True, exist_ok=True)
        for stale in out_dir.glob("*.log"):  # another namespace's or window's
            stale.unlink()
        records = self.collector.logs.query(namespace=namespace, since=since)
        by_service: dict[str, list] = {}
        for r in records:
            by_service.setdefault(r.service, []).append(r)
        for service, recs in by_service.items():
            (out_dir / f"{service}.log").write_text(
                "\n".join(r.render() for r in recs) + "\n"
            )
        (out_dir / "all.jsonl").write_text(render_jsonl(records))
        return out_dir

    def export_metrics(self, since: Optional[float] = None) -> Path:
        out_dir = self.root / "metrics"
        out_dir.mkdir(parents=True, exist_ok=True)
        store = self.collector.metrics
        for metric in store.STANDARD_METRICS:
            rows = []
            for svc in store.services():
                series = store.series(svc, metric)
                if series is None:
                    continue
                t, v = series.window(since=since)
                rows.extend((float(ti), svc, float(vi)) for ti, vi in zip(t, v))
            rows.sort()
            with (out_dir / f"{metric}.csv").open("w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(["time", "service", "value"])
                writer.writerows(rows)
        return out_dir

    def export_traces(self, since: Optional[float] = None) -> Path:
        out_dir = self.root / "traces"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "traces.json").write_text(
            render_traces(self.collector.traces.query(since=since)))
        return out_dir

    def export_all(self, namespace: str, since: Optional[float] = None) -> Path:
        self.export_logs(namespace, since)
        self.export_metrics(since)
        self.export_traces(since)
        return self.root
