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

from typing import TYPE_CHECKING, Iterable, Optional

from repro.simcore import RngStream, SimClock
from repro.telemetry.logs import LogStore
from repro.telemetry.metrics import MetricStore
from repro.telemetry.traces import TraceStore
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
        #: request accounting between scrapes, per window group (see
        #: :meth:`_group`): group -> service -> [count, errors, latencies]
        self._windows: dict[Optional[str], dict[str, list]] = {}
        #: per-namespace scrape tables (:meth:`_scrape_table`):
        #: namespace -> (cluster, version key, rows, running services)
        self._tables: dict[str, tuple] = {}
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
    def _group(self, namespace: str) -> Optional[str]:
        """The prefix :meth:`qualify` gives names in ``namespace``: None
        when they stay bare, else the namespace itself.  Request windows
        are kept per group, so the namespaces sharing bare names (all of
        them on a collector with no default) share one window."""
        default = self.default_namespace
        if not namespace or default is None or namespace == default:
            return None
        return namespace

    def qualify(self, namespace: str, service: str) -> str:
        """The metric-store key for ``service`` in ``namespace``.

        Bare for the default namespace (and when no default is set), so
        single-app telemetry keeps its historical names bit-for-bit;
        ``"<namespace>/<service>"`` for every other namespace.
        """
        group = self._group(namespace)
        return service if group is None else f"{group}/{service}"

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

    def record_requests(self, namespace: str, service: str, count: int,
                        errors: int, latencies: Iterable[float]) -> None:
        """Account ``count`` requests of ``service`` in ``namespace``,
        ``errors`` of them failed, in that namespace's request window.

        Counts feed ``request_rate``/``error_rate``; ``latencies`` feed the
        scrape percentiles — every request's latency on the per-request
        tier, a *bounded exemplar sample* of the batch on the aggregate
        tier (so its percentiles are reservoir estimates).  ``service`` is
        the bare name; the window's group stands for the qualification.
        """
        group = self._group(namespace)
        window = self._windows.get(group)
        if window is None:
            window = self._windows[group] = {}
        entry = window.get(service)
        if entry is None:
            window[service] = [count, errors, list(latencies)]
        else:
            entry[0] += count
            entry[1] += errors
            entry[2].extend(latencies)

    # -- scraping ---------------------------------------------------------
    def _baseline(self, service: str) -> tuple[float, float]:
        if service not in self._cpu_baseline:
            rng = self.rng.child(f"baseline/{service}")
            self._cpu_baseline[service] = rng.uniform(30.0, 120.0)   # mcores
            self._mem_baseline[service] = rng.uniform(80.0, 400.0)   # MiB
        return self._cpu_baseline[service], self._mem_baseline[service]

    def _scrape_table(self, cluster: "Cluster",
                      namespace: str) -> tuple[list[tuple], int]:
        """``namespace``'s scrape rows and how many of them are running.

        One row per service of ``cluster.services_in(namespace)``, in that
        order: ``(service, cpu baseline, mem baseline, running, series)``
        — ``running`` when some pod the selector matches is ready and not
        crash-looping, ``series`` the six standard metric series, fetched
        or created service by service in ``STANDARD_METRICS`` order (the
        store's insertion order, so exports keep theirs).  Cached on the
        cluster's ``(services.version, pods.version, state_version)``:
        membership changes move the dict versions, and every in-place pod
        or service edit (crash-loop flags, readiness, a patched selector)
        goes through a reconcile, which bumps ``state_version``.  Building
        a row draws only from its baseline's child stream, never from the
        scrape stream.
        """
        key = (cluster.services.version, cluster.pods.version,
               cluster.state_version, self.default_namespace)
        cached = self._tables.get(namespace)
        if cached is not None and cached[0] is cluster and cached[1] == key:
            return cached[2], cached[3]
        rows = []
        for svc in cluster.services_in(namespace):
            name = self.qualify(namespace, svc.name)
            cpu_base, mem_base = self._baseline(name)
            running = any(p.ready and not p.crash_looping
                          for p in cluster.pods_matching(namespace, svc.selector))
            series = tuple(self.metrics.series_for(name, metric)
                           for metric in MetricStore.STANDARD_METRICS)
            rows.append((svc.name, cpu_base, mem_base, running, series))
        n_running = sum(row[3] for row in rows)
        self._tables[namespace] = (cluster, key, rows, n_running)
        return rows, n_running

    def scrape(self, cluster: "Cluster", namespace: str) -> None:
        """Sample one scrape's worth of metrics for every service in
        ``namespace`` and clear the namespace's request window.

        O(services): the rows come from the cached scrape table, the
        values go straight onto its series, and the resource noise of
        every running service is one ``standard_normal`` vector laid out
        cpu, mem, cpu, mem…  ``normal(0, s)`` is ``0 + s·standard_normal()``
        on the same stream, so each ``1 + (0.0 + s·z)`` is the double —
        and the stream is left in the state — that one scalar
        ``normal(0, s)`` per metric per service would give.  A namespace
        with nothing running draws nothing.
        """
        now = self.clock.now
        last = self._last_scrape.get(namespace, self._created_at)
        window = max(now - last, 1e-9)
        requests = self._take_window(namespace)
        rows, n_running = self._scrape_table(cluster, namespace)
        noise = iter(self.rng.generator.standard_normal(2 * n_running).tolist()) \
            if n_running else None
        for service, cpu_base, mem_base, running, series in rows:
            entry = requests.get(service)
            if entry is None:
                rate = err_rate = p50 = p99 = 0.0
            else:  # values stored as floats, as MetricSeries.add stores them
                reqs, errs, lats = entry
                rate = float(reqs / window)
                err_rate = float(errs / window)
                if lats:
                    lats_sorted = sorted(lats)
                    n = len(lats_sorted)
                    p50 = float(lats_sorted[n // 2])
                    p99 = float(lats_sorted[min(int(n * 0.99), n - 1)])
                else:
                    p50 = p99 = 0.0
            # CPU is dominated by the service's steady-state footprint;
            # request-driven load moves it by only a couple of percent at
            # the benchmark's offered rates (so resource-KPI detectors see
            # functional faults only when pods actually stop running).
            if running:
                cpu = max(cpu_base * (1.0 + 0.0005 * rate)
                          * (1 + (0.0 + 0.05 * next(noise))), 0.0)
                mem = max(mem_base * (1 + (0.0 + 0.02 * next(noise))), 0.0)
            else:
                cpu = mem = 0.0
            for s, value in zip(series, (cpu, mem, rate, err_rate, p50, p99)):
                s.times.append(now)
                s.values.append(value)
        self._last_scrape[namespace] = now
        if self._watches:
            self._evaluate_watches(now)

    def _take_window(self, namespace: str) -> dict[str, list]:
        """Remove and return the request window a scrape of ``namespace``
        reads: its group's (:meth:`_group`), and only that one.

        Another app's window may be mid-accumulation when this namespace
        scrapes (multi-app environments scrape per namespace, possibly at
        the same instant), so it stays.  With no default namespace
        (standalone collectors) every scrape takes the one bare window —
        the historical single-tenant behavior.  The bare window belongs to
        the default namespace, so a scrape of ``""`` under a default reads
        it and leaves it.  A whole window goes at once, keys of services
        the namespace no longer lists included.
        """
        group = self._group(namespace)
        default = self.default_namespace
        if group is not None or default is None or default == namespace:
            return self._windows.pop(group, None) or {}
        return self._windows.get(group) or {}

    # -- adapters for kubectl ----------------------------------------------
    def kubectl_log_source(self, namespace: str, pod: str, tail: int) -> str:
        return self.logs.tail(namespace, tail, pod=pod)

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
