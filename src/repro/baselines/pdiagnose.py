"""PDiagnose: heterogeneous-data vote-based diagnosis of performance issues.

Following Hou et al. (2021): convert each data source — KPIs (latency),
logs (volume bursts) and traces (span latency) — into per-service anomaly
votes, then aggregate with a weighted vote to pick the culprit.

PDiagnose targets *performance* degradation; the functional faults in the
benchmark surface as error responses with *lower* latency (fail-fast), so
its latency-oriented votes often point at the wrong tier — consistent with
its ~15% accuracy in Table 4b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.telemetry.collector import TelemetryCollector


@dataclass
class PDiagnoseResult:
    """Ranked localization output with per-source votes."""

    ranking: list[str] = field(default_factory=list)
    votes: dict[str, float] = field(default_factory=dict)

    def top(self, k: int = 3) -> list[str]:
        return self.ranking[:k]


class PDiagnose:
    """Weighted vote over KPI, log and trace anomaly signals.

    Parameters
    ----------
    kpi_weight / log_weight / trace_weight:
        Vote weights for the three modalities (defaults follow the paper's
        equal-ish weighting with KPIs slightly favoured).
    """

    def __init__(self, kpi_weight: float = 1.2, log_weight: float = 1.0,
                 trace_weight: float = 1.0) -> None:
        self.kpi_weight = kpi_weight
        self.log_weight = log_weight
        self.trace_weight = trace_weight

    # -- per-modality anomaly scores (0..1-ish) ---------------------------
    def _kpi_votes(self, collector: TelemetryCollector, since: float
                   ) -> dict[str, float]:
        votes: dict[str, float] = {}
        store = collector.metrics
        for svc in store.services():
            series = store.series(svc, "latency_p99_ms")
            if series is None or len(series.values) < 4:
                continue
            t = np.asarray(series.times)
            v = np.asarray(series.values)
            ref = v[t < since]
            obs = v[t >= since]
            if len(ref) < 2 or len(obs) == 0:
                continue
            mu, sd = ref.mean(), ref.std() + 1e-9
            votes[svc] = float(np.clip((obs.mean() - mu) / (3 * sd), 0, 1))
        return votes

    def _log_votes(self, collector: TelemetryCollector, namespace: str,
                   since: float) -> dict[str, float]:
        votes: dict[str, float] = {}
        for svc in collector.logs.services_seen(namespace):
            before = len(collector.logs.rows(namespace=namespace, service=svc,
                                             until=since))
            after = len(collector.logs.rows(namespace=namespace, service=svc,
                                            since=since))
            if before + after == 0:
                continue
            votes[svc] = float(np.clip(
                (after - before) / (before + 1.0), 0, 1))
        return votes

    def _trace_votes(self, collector: TelemetryCollector, since: float
                     ) -> dict[str, float]:
        votes: dict[str, float] = {}
        durations: dict[str, list[float]] = {}
        baselines: dict[str, list[float]] = {}
        for _, start, spans in collector.traces.rows():
            bucket = durations if start >= since else baselines
            for _, service, _, duration_ms, _, _ in spans:
                bucket.setdefault(service, []).append(duration_ms)
        for svc, obs in durations.items():
            ref = baselines.get(svc)
            if not ref or len(ref) < 3:
                continue
            mu, sd = float(np.mean(ref)), float(np.std(ref)) + 1e-9
            votes[svc] = float(np.clip(
                (float(np.mean(obs)) - mu) / (3 * sd), 0, 1))
        return votes

    # ------------------------------------------------------------------
    def localize(self, collector: TelemetryCollector, namespace: str,
                 since: float) -> PDiagnoseResult:
        """Vote across modalities; ``since`` is the suspected onset time."""
        kpi = self._kpi_votes(collector, since)
        logs = self._log_votes(collector, namespace, since)
        traces = self._trace_votes(collector, since)
        # sorted, so equal votes rank by name and not by string hash order
        services = sorted(set(kpi) | set(logs) | set(traces))
        votes = {
            svc: (self.kpi_weight * kpi.get(svc, 0.0)
                  + self.log_weight * logs.get(svc, 0.0)
                  + self.trace_weight * traces.get(svc, 0.0))
            for svc in services
        }
        ranking = [s for s, _ in sorted(votes.items(), key=lambda kv: -kv[1])]
        return PDiagnoseResult(ranking=ranking, votes=votes)
