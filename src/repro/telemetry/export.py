"""On-disk telemetry export (§2.5: offline data for traditional AIOps).

The ACI's ``get_logs``/``get_metrics``/``get_traces`` save an export and
name it relative to the exporter's directory (like the paper's Example
2.2), so no observation depends on the host; this module writes those
files.  An export is *staged*: the call
creates and returns the directory and captures its window as plain data —
the immutable log and trace rows (exact tuples) the store held, and each
metric series' sample count — and :meth:`TelemetryExporter.materialize`
writes the files later, byte for byte what writing them at stage time
would have written, because the stores only ever append.  The shell's
file tools, ``export_all`` and closing an exporter with a caller-owned
root materialize; nothing else reads the files.  ``traces.json`` and
``all.jsonl`` are the text ``json``'s ``dumps`` would write, rendered from
rows; the oracle test (``tests/telemetry/test_render_exact.py``) is the
reference.
"""

from __future__ import annotations

import csv
import shutil
import tempfile
from pathlib import Path
from typing import Optional

from repro.simcore import SimError
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.logs import render_jsonl, render_line
from repro.telemetry.metrics import MetricStore
from repro.telemetry.traces import render_traces


def _write_logs(out_dir: Path, records: list[tuple]) -> None:
    for stale in out_dir.glob("*.log"):  # another namespace's or window's
        stale.unlink()
    by_service: dict[str, list] = {}
    for r in records:
        by_service.setdefault(r[2], []).append(r)
    for service, recs in by_service.items():
        (out_dir / f"{service}.log").write_text(
            "\n".join(map(render_line, recs)) + "\n"
        )
    (out_dir / "all.jsonl").write_text(render_jsonl(records))


def _write_metrics(out_dir: Path, store: MetricStore, since: Optional[float],
                   counts: dict[tuple[str, str], int]) -> None:
    for metric in store.STANDARD_METRICS:
        rows = []
        for svc in store.services():
            n = counts.get((svc, metric))
            if n is None:  # no such series when staged
                continue
            series = store.series(svc, metric)
            rows.extend((float(ti), svc, float(vi))
                        for ti, vi in zip(series.times[:n], series.values[:n])
                        if since is None or ti >= since)
        rows.sort()
        with (out_dir / f"{metric}.csv").open("w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["time", "service", "value"])
            writer.writerows(rows)


def _write_traces(out_dir: Path, traces: list[tuple]) -> None:
    (out_dir / "traces.json").write_text(render_traces(traces))


class TelemetryExporter:
    """Stages the collector's stores for a directory tree and writes them
    on :meth:`materialize`.

    Layout::

        <root>/logs/<service>.log       rendered log lines
        <root>/logs/all.jsonl           structured records
        <root>/metrics/<metric>.csv     time,service,value rows
        <root>/traces/traces.json       Jaeger-style JSON

    Each kind holds at most one staged export; staging it again replaces
    the earlier one, as writing it again would have replaced the files.

    Given no ``root``, it makes a temp directory on first use, which
    :meth:`close` removes unwritten; a caller's ``root`` is written on
    close.  A pickled copy (a fork) carries neither, so it starts with
    nothing staged, in a directory of its own.
    """

    def __init__(self, collector: TelemetryCollector,
                 root: Optional[str | Path] = None) -> None:
        self.collector = collector
        self._root = None if root is None else Path(root)
        self._owns_root = root is None
        #: kind → (writer, captured window) not yet written
        self._staged: dict[str, tuple] = {}
        self.closed = False

    def __reduce__(self):
        return TelemetryExporter, (self.collector,)

    @property
    def root(self) -> Path:
        """The export directory; once closed, it is never re-created."""
        if self.closed:
            raise SimError("the telemetry exporter is closed")
        if self._root is None:
            name = self.collector.default_namespace or "export"
            self._root = Path(tempfile.mkdtemp(prefix=f"aiopslab-{name}-"))
        return self._root

    def _stage(self, kind: str, writer, *window) -> Path:
        out_dir = self.root / kind
        out_dir.mkdir(parents=True, exist_ok=True)
        self._staged[kind] = (writer, window)
        return out_dir

    def export_logs(self, namespace: str,
                    since: Optional[float] = None) -> Path:
        return self._stage("logs", _write_logs, self.collector.logs.rows(
            namespace=namespace, since=since))

    def export_metrics(self, since: Optional[float] = None) -> Path:
        # sample counts, not ``until=now``: another namespace may scrape at
        # this same instant after the stage
        store = self.collector.metrics
        counts = {(svc, metric): len(series.times)
                  for svc in store.services()
                  for metric in store.STANDARD_METRICS
                  if (series := store.series(svc, metric)) is not None}
        return self._stage("metrics", _write_metrics, store, since, counts)

    def export_traces(self, since: Optional[float] = None) -> Path:
        return self._stage("traces", _write_traces,
                           self.collector.traces.rows(since=since))

    def export_all(self, namespace: str, since: Optional[float] = None) -> Path:
        self.export_logs(namespace, since)
        self.export_metrics(since)
        self.export_traces(since)
        self.materialize()
        return self.root

    def materialize(self) -> None:
        """Write every staged export's files, as of the moment it was
        staged.  Idempotent: what is written is no longer staged."""
        staged, self._staged = self._staged, {}
        for kind, (writer, window) in staged.items():
            writer(self.root / kind, *window)

    def close(self) -> None:
        """Remove an owned directory, staged exports unwritten, or write a
        caller's root.  Nothing can be staged afterwards.  Idempotent."""
        if self._owns_root:
            self._staged.clear()
            if self._root is not None:
                shutil.rmtree(self._root, ignore_errors=True)
        elif not self.closed:
            self.materialize()
        self.closed = True
