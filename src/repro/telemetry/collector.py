"""The telemetry collector: single sink for logs, metrics and traces.

One collector serves every application in a :class:`~repro.core.env.
CloudEnvironment` — with multi-app environments (several namespaces on one
cluster/clock), metric series are keyed by a *qualified* service name:
the bare service name for the environment's default (first) namespace,
``"<namespace>/<service>"`` for every other namespace.  Single-app
environments therefore see exactly the historical bare names, which is
what keeps their telemetry bit-identical, while two apps that happen to
share a service name (both DeathStarBench apps ship a ``jaeger``) can
never collide in the metric store, the baseline RNG or a metric watch.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Optional

from repro.simcore import RngStream, SimClock
from repro.telemetry.logs import LogStore
from repro.telemetry.metrics import MetricStore
from repro.telemetry.traces import Trace, TraceStore
from repro.telemetry.watch import MetricWatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.kubesim.cluster import Cluster


class TelemetryCollector:
    """Aggregates the three telemetry stores and scrapes cluster metrics.

    The service runtime pushes logs/traces/request outcomes as requests
    execute; :meth:`scrape` periodically samples per-service resource
    metrics (with realistic baseline noise) plus the request-derived rates
    accumulated since the previous scrape — equivalent to a Prometheus
    scrape interval.  Scrapes are per namespace: a multi-app environment
    schedules one scrape event per app, and each clears only its own
    namespace's request window.
    """

    def __init__(self, clock: SimClock, seed: int = 0) -> None:
        self.clock = clock
        self.rng = RngStream(seed, "telemetry")
        self.logs = LogStore()
        self.metrics = MetricStore()
        self.traces = TraceStore()
        #: the namespace whose services keep bare metric names (set by the
        #: environment to its first app's namespace); None means "qualify
        #: nothing" — the historical single-tenant behavior
        self.default_namespace: Optional[str] = None
        # request accounting between scrapes, keyed by qualified name:
        # service -> [count, errors, latencies]
        self._window_requests: dict[str, int] = defaultdict(int)
        self._window_errors: dict[str, int] = defaultdict(int)
        self._window_latencies: dict[str, list[float]] = defaultdict(list)
        #: per-namespace previous-scrape timestamps (scrape windows must
        #: not bleed across namespaces scraped at the same instant)
        self._last_scrape: dict[str, float] = {}
        self._created_at: float = clock.now
        #: per-service synthetic resource baselines, stable across scrapes
        self._cpu_baseline: dict[str, float] = {}
        self._mem_baseline: dict[str, float] = {}
        #: registered metric watches, evaluated at scrape time in
        #: registration order (deterministic); resolved/cancelled watches
        #: are swept lazily after each scrape
        self._watches: list[MetricWatch] = []

    # -- namespace qualification ------------------------------------------
    def qualify(self, namespace: str, service: str) -> str:
        """The metric-store key for ``service`` in ``namespace``.

        Bare for the default namespace (and when no default is set), so
        single-app telemetry keeps its historical names bit-for-bit;
        ``"<namespace>/<service>"`` for every other namespace.
        """
        if not namespace or self.default_namespace is None \
                or namespace == self.default_namespace:
            return service
        return f"{namespace}/{service}"

    def split(self, qualified: str) -> tuple[str, str]:
        """Invert :meth:`qualify`: ``(namespace, service)`` of a key."""
        if "/" in qualified:
            ns, service = qualified.split("/", 1)
            return ns, service
        return self.default_namespace or "", qualified

    # -- metric watches ----------------------------------------------------
    def add_watch(self, watch: MetricWatch) -> MetricWatch:
        """Register ``watch`` for scrape-time evaluation.

        ``watch.service`` must be a *qualified* name (see :meth:`qualify`)
        when it targets a non-default namespace.
        """
        watch.collector = self
        if watch not in self._watches:
            self._watches.append(watch)
        return watch

    def remove_watch(self, watch: MetricWatch) -> None:
        try:
            self._watches.remove(watch)
        except ValueError:
            pass

    def pending_watches(self) -> list[MetricWatch]:
        return [w for w in self._watches if w.pending]

    def tail_watch_services(self) -> frozenset[str]:
        """Qualified names of services with a pending watch on a
        reservoir-estimated tail metric (p50/p99) — the runtime grows its
        per-batch exemplar reservoir for operations touching these
        (adaptive fidelity)."""
        return frozenset(w.service for w in self._watches
                         if w.pending and w.needs_tail)

    def _evaluate_watches(self, now: float) -> None:
        """Evaluate every pending watch against this scrape's values.

        Runs after the scrape recorded all services' metrics, so a watch
        sees a consistent snapshot and its callback (which may inject
        faults or swap rate policies) cannot perturb the scrape that fired
        it.  A watch whose series has no sample at ``now`` is skipped —
        its sustain window neither extends nor resets; this is also what
        scopes evaluation per namespace when several apps scrape at the
        same instant (a watch re-seen after another namespace's scrape at
        the same ``now`` re-evaluates idempotently).
        """
        fired_any = False
        for watch in self._watches:
            if not watch.pending:
                fired_any = True  # sweep stale entries below
                continue
            series = self.metrics.series(watch.service, watch.metric)
            if series is None or not series.times or series.times[-1] != now:
                continue
            fired_any |= watch.evaluate(now, series.values[-1])
        if fired_any:
            self._watches = [w for w in self._watches if w.pending]

    # -- sink methods used by the service runtime -------------------------
    def emit_log(self, namespace: str, service: str, pod: str,
                 level: str, message: str) -> None:
        self.logs.emit(self.clock.now, namespace, service, pod, level, message)

    def record_trace(self, trace: Trace) -> None:
        self.traces.add(trace)

    def record_request(self, service: str, latency_ms: float, error: bool) -> None:
        """Account one request under a (qualified) service name."""
        self._window_requests[service] += 1
        if error:
            self._window_errors[service] += 1
        self._window_latencies[service].append(latency_ms)

    def record_request_bulk(
        self, service: str, count: int, errors: int = 0,
        latencies=(),
    ) -> None:
        """Aggregate-mode sink: account ``count`` requests in one call.

        Counts feed ``request_rate``/``error_rate`` exactly as ``count``
        individual :meth:`record_request` calls would; ``latencies`` is a
        *bounded exemplar sample* of the batch (not all ``count`` values),
        so scrape percentiles in aggregate mode are estimates from a small
        reservoir rather than the full population.
        """
        if count <= 0:
            return
        self._window_requests[service] += int(count)
        if errors:
            self._window_errors[service] += int(errors)
        if latencies:
            self._window_latencies[service].extend(latencies)

    # -- scraping ---------------------------------------------------------
    def _baseline(self, service: str) -> tuple[float, float]:
        if service not in self._cpu_baseline:
            rng = self.rng.child(f"baseline/{service}")
            self._cpu_baseline[service] = rng.uniform(30.0, 120.0)   # mcores
            self._mem_baseline[service] = rng.uniform(80.0, 400.0)   # MiB
        return self._cpu_baseline[service], self._mem_baseline[service]

    def scrape(self, cluster: "Cluster", namespace: str) -> None:
        """Sample one scrape's worth of metrics for every service in ``namespace``."""
        now = self.clock.now
        last = self._last_scrape.get(namespace, self._created_at)
        window = max(now - last, 1e-9)
        for svc in cluster.services_in(namespace):
            name = self.qualify(namespace, svc.name)
            cpu_base, mem_base = self._baseline(name)
            pods = cluster.pods_matching(namespace, svc.selector)
            running = [p for p in pods if p.ready and not p.crash_looping]
            reqs = self._window_requests.get(name, 0)
            errs = self._window_errors.get(name, 0)
            lats = self._window_latencies.get(name, [])

            # CPU is dominated by the service's steady-state footprint;
            # request-driven load moves it by only a couple of percent at
            # the benchmark's offered rates (so resource-KPI detectors see
            # functional faults only when pods actually stop running).
            load_factor = 1.0 + 0.0005 * (reqs / window)
            if running:
                cpu = cpu_base * load_factor * (1 + self.rng.normal(0, 0.05))
                mem = mem_base * (1 + self.rng.normal(0, 0.02))
            else:
                cpu, mem = 0.0, 0.0
            self.metrics.record(now, name, "cpu_usage", max(cpu, 0.0))
            self.metrics.record(now, name, "memory_usage", max(mem, 0.0))
            self.metrics.record(now, name, "request_rate", reqs / window)
            self.metrics.record(now, name, "error_rate", errs / window)
            if lats:
                lats_sorted = sorted(lats)
                p50 = lats_sorted[len(lats_sorted) // 2]
                p99 = lats_sorted[min(int(len(lats_sorted) * 0.99), len(lats_sorted) - 1)]
            else:
                p50 = p99 = 0.0
            self.metrics.record(now, name, "latency_p50_ms", p50)
            self.metrics.record(now, name, "latency_p99_ms", p99)
        self._clear_window(namespace)
        self._last_scrape[namespace] = now
        if self._watches:
            self._evaluate_watches(now)

    def _clear_window(self, namespace: str) -> None:
        """Drop the scraped namespace's request window — and only its own.

        Another app's window may be mid-accumulation when this namespace
        scrapes (multi-app environments scrape per namespace, possibly at
        the same instant), so a blanket ``clear()`` would eat its counts.
        With no default namespace configured (standalone collectors) every
        bare key belongs to whichever namespace is scraping — the
        historical single-tenant behavior.
        """
        def owned(key: str) -> bool:
            if "/" in key:
                return key.split("/", 1)[0] == namespace
            return self.default_namespace is None \
                or self.default_namespace == namespace

        for store in (self._window_requests, self._window_errors,
                      self._window_latencies):
            for key in [k for k in store if owned(k)]:
                del store[key]

    # -- adapters for kubectl ----------------------------------------------
    def kubectl_log_source(self, namespace: str, pod: str, tail: int) -> str:
        return self.logs.tail(namespace, pod, tail)

    def kubectl_metrics_source(self, cluster: "Cluster"):
        """Build the ``kubectl top pods`` callback bound to ``cluster``."""
        return _PodMetricsSource(self, cluster)


class _PodMetricsSource:
    """Picklable ``kubectl top pods`` callback (a closure would break
    environment snapshots)."""

    __slots__ = ("collector", "cluster")

    def __init__(self, collector: "TelemetryCollector",
                 cluster: "Cluster") -> None:
        self.collector = collector
        self.cluster = cluster

    def __call__(self, namespace: str) -> list[tuple[str, float, float]]:
        metrics = self.collector.metrics
        cpu = metrics.snapshot_latest("cpu_usage")
        mem = metrics.snapshot_latest("memory_usage")
        rows = []
        for pod in self.cluster.pods_in(namespace):
            svc = self.collector.qualify(namespace, pod.owner or pod.name)
            rows.append((pod.name, cpu.get(svc, 0.0), mem.get(svc, 0.0)))
        return rows
