"""One problem's operational environment: app(s) + cluster + telemetry + load.

The environment is built around a discrete-event kernel: one
:class:`~repro.simcore.events.EventQueue` on the shared
:class:`~repro.simcore.clock.SimClock` drives workload arrivals, telemetry
scrapes, periodic controller resync and any scheduled fault timelines.
``advance(s)`` runs the queue to ``now + s``, so virtual time jumps from
event to event instead of being ticked through.

One environment may host **several applications** — each in its own
namespace on the shared cluster, each with its own
:class:`~repro.workload.WorkloadDriver` interleaving arrivals on the one
queue::

    env = CloudEnvironment([
        AppSpec(HotelReservation, workload_rate=60.0),
        AppSpec(SocialNetwork, policy=BurstRate(base=40.0)),
    ], seed=7)

Everything shares one clock, queue and telemetry collector, which is what
makes *cross-app* behavior expressible: a metric watch on app A's
telemetry can fire a fault into app B, a load storm on one app is visible
to triggers watching the other, and kubectl spans both namespaces.  The
single-app constructor (``CloudEnvironment(HotelReservation, ...)``)
remains a thin wrapper over a one-element spec list and is bit-identical
to the historical single-app environment.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence, Type, Union

from repro.apps.base import App
from repro.kubesim import Cluster, Helm, Kubectl
from repro.kubesim.controllers import HorizontalAutoscaler, HpaPolicy
from repro.kubesim.resources import NodeSpec, ResourcePlane
from repro.simcore import EventQueue, SimClock
from repro.telemetry import TelemetryCollector, TelemetryExporter
from repro.workload import ConstantRate, RatePolicy, WorkloadDriver

#: request-execution fidelity tiers (see docs/design/fidelity.md):
#: ``per_request`` walks the call graph once per request (bit-identical
#: to the reference implementation, the benchmark default);
#: ``aggregate`` samples batched outcomes from compiled path profiles
#: (statistically equivalent, built for "millions of users" rates).  The
#: driver's mode tuple is the single source of truth; this is its
#: environment-level name.
FIDELITY_TIERS = WorkloadDriver.MODES


@dataclass(frozen=True)
class AppSpec:
    """One application hosted by a :class:`CloudEnvironment`.

    ``policy`` wins over ``workload_rate`` when both are given (the rate
    is only used to build the default :class:`ConstantRate`); ``fidelity``
    overrides the environment-level tier for this app's driver — e.g. an
    aggregate-tier load-generator neighbor next to a per-request app under
    test.
    """

    app_cls: Type[App]
    policy: Optional[RatePolicy] = None
    workload_rate: float = 60.0
    fidelity: Optional[str] = None

    def __post_init__(self) -> None:
        if self.fidelity is not None and self.fidelity not in FIDELITY_TIERS:
            raise ValueError(
                f"fidelity must be one of {FIDELITY_TIERS}, "
                f"got {self.fidelity!r}")

    def build_policy(self) -> RatePolicy:
        return self.policy if self.policy is not None \
            else ConstantRate(self.workload_rate)


class CloudEnvironment:
    """Deploys one or more applications and wires every subsystem to one
    virtual clock.

    This is the ``E`` part of the problem context ``C = ⟨E, I⟩`` — the
    service, fault and workload conditions the problem occurs under; it is
    *not* shared with the agent (the agent only sees it through the ACI).

    Parameters
    ----------
    apps:
        Either an :class:`~repro.apps.base.App` subclass (the single-app
        form — ``workload_rate``/``policy`` configure its driver exactly
        as they always have) or a sequence of :class:`AppSpec`, one per
        hosted application.  Apps deploy in order into their own
        namespaces on the shared cluster; the first app is the
        environment's *primary* app — ``env.app`` / ``env.driver`` /
        ``env.namespace`` keep pointing at it, and its metric names stay
        unqualified in the telemetry collector.
    resync_interval:
        Period (virtual seconds) of the controller-resync event that
        re-runs the cluster's reconciling controllers, like the real
        controller manager's sync loop.  ``0`` disables it.  On a
        converged cluster a resync is a pure no-op (no RNG draws, no
        events recorded), so it never perturbs determinism.
    resource_coupling:
        When True, every runtime is attached to the environment's
        :class:`~repro.kubesim.resources.ResourcePlane`: request demand
        rolls up into node utilization, and overcommitted nodes degrade
        *all* co-located pods (emergent noisy-neighbor, no fault
        injection needed).  Off by default — the seed execution paths
        stay bit-identical.
    node_specs:
        Cluster topology (:class:`~repro.kubesim.resources.NodeSpec`
        list).  ``None`` keeps the historical single ``node-0``.
    autoscale:
        :class:`~repro.kubesim.controllers.HpaPolicy` list; non-empty
        activates the :class:`HorizontalAutoscaler` on the resync loop
        and the resource-plane rollup tick.
    resource_interval:
        Rollup cadence (virtual seconds) when the plane is active —
        matches the 5 s telemetry-scrape cadence by default.
    """

    def __init__(
        self,
        apps: Union[Type[App], Sequence[AppSpec]],
        seed: int = 0,
        workload_rate: float = 60.0,
        policy: Optional[RatePolicy] = None,
        export_root: Optional[str | Path] = None,
        resync_interval: float = 30.0,
        fidelity: str = "per_request",
        resource_coupling: bool = False,
        node_specs: Optional[Sequence[NodeSpec]] = None,
        autoscale: Optional[Sequence[HpaPolicy]] = None,
        resource_interval: float = 5.0,
    ) -> None:
        if fidelity not in FIDELITY_TIERS:
            raise ValueError(
                f"fidelity must be one of {FIDELITY_TIERS}, got {fidelity!r}")
        if isinstance(apps, type) and issubclass(apps, App):
            specs = [AppSpec(apps, policy=policy, workload_rate=workload_rate)]
        else:
            if policy is not None or workload_rate != 60.0:
                raise ValueError(
                    "workload_rate/policy configure the single-app form "
                    "only; with a spec list, set them per app on each "
                    "AppSpec")
            specs = list(apps)
            if not specs:
                raise ValueError("CloudEnvironment needs at least one AppSpec")
            if not all(isinstance(s, AppSpec) for s in specs):
                raise TypeError(
                    "apps must be an App subclass or a sequence of AppSpec")
        namespaces = [s.app_cls.namespace for s in specs]
        if len(set(namespaces)) != len(namespaces):
            raise ValueError(
                f"hosted apps must live in distinct namespaces, "
                f"got {namespaces}")
        self.app_specs: list[AppSpec] = specs
        self.seed = seed
        self.fidelity = fidelity
        self.clock = SimClock()
        self.queue = EventQueue(self.clock)
        self.cluster = Cluster(clock=self.clock, seed=seed,
                               node_specs=node_specs)
        self.collector = TelemetryCollector(self.clock, seed=seed)
        self.resource_coupling = resource_coupling
        plane_active = bool(resource_coupling or autoscale)
        self.resources = ResourcePlane(self.cluster, self.clock,
                                       interval=resource_interval,
                                       coupled=resource_coupling)
        self.autoscaler = HorizontalAutoscaler(self.cluster, self.resources)
        for hpa_policy in (autoscale or ()):
            self.autoscaler.add(hpa_policy)
        if autoscale:
            self.cluster.attach_autoscaler(self.autoscaler)
        # the first app's namespace keeps bare metric names (single-app
        # telemetry stays bit-identical); other namespaces are qualified
        self.collector.default_namespace = namespaces[0]
        self.helm = Helm(self.cluster)
        self.apps: list[App] = []
        self.drivers: list[WorkloadDriver] = []
        self._apps_by_ns: dict[str, App] = {}
        self._drivers_by_ns: dict[str, WorkloadDriver] = {}
        for i, spec in enumerate(specs):
            app = spec.app_cls()
            runtime = app.deploy(
                self.cluster, self.collector, helm=self.helm, seed=seed
            )
            self.resources.register_runtime(runtime)
            if plane_active:
                # attached whenever the plane rolls up: demand accounting
                # feeds the autoscaler even when contention coupling is
                # off (the uncoupled plane never degrades anything)
                runtime.resources = self.resources
            driver = WorkloadDriver(
                runtime,
                app.workload_mix(),
                spec.build_policy(),
                seed=seed,
                queue=self.queue,
                mode=spec.fidelity or fidelity,
                # the first app keeps the historical stream name, so the
                # single-app wrapper draws bit-identical arrival sequences
                rng_stream="workload" if i == 0
                else f"workload/{app.namespace}",
            )
            self.apps.append(app)
            self.drivers.append(driver)
            self._apps_by_ns[app.namespace] = app
            self._drivers_by_ns[app.namespace] = driver
        self.app: App = self.apps[0]
        self.runtime = self.app.runtime
        self.driver = self.drivers[0]
        self.kubectl = Kubectl(
            self.cluster,
            log_source=self.collector.kubectl_log_source,
            exec_handler=self._exec_dispatch,
            metrics_source=self.collector.kubectl_metrics_source(self.cluster),
            # node utilization columns only exist when the plane rolls up
            # (seed environments keep byte-identical kubectl output)
            node_metrics_source=(
                self.resources.kubectl_node_metrics_source()
                if plane_active else None),
        )
        self._owns_export_root = export_root is None
        root = Path(export_root) if export_root else Path(tempfile.mkdtemp(
            prefix=f"aiopslab-{self.app.name}-"))
        self.export_root = root
        self.exporter = TelemetryExporter(self.collector, root)
        self._resync = self.queue.schedule_every(
            resync_interval, self.cluster.resync, label="controller.resync",
            passive=True,  # a converged-cluster resync can't affect workload
        ) if resync_interval > 0 else None
        # the plane's rollup tick is only scheduled when something reads
        # it, so seed environments run an unchanged event sequence; it is
        # never passive — a rollup can shift latency multipliers or make
        # the autoscaler rescale, both workload-visible
        self._rollup = self.queue.schedule_every(
            resource_interval, self._resource_tick, label="resources.rollup",
        ) if plane_active and resource_interval > 0 else None
        self.closed = False

    def _resource_tick(self) -> None:
        """One plane step: roll demand up into node pressure, then give
        the autoscaler a look at the fresh utilization numbers."""
        self.resources.rollup()
        self.autoscaler.evaluate()

    # ------------------------------------------------------------------
    # multi-app accessors
    # ------------------------------------------------------------------
    @property
    def namespace(self) -> str:
        """The primary (first) app's namespace."""
        return self.app.namespace

    @property
    def namespaces(self) -> list[str]:
        """Every hosted app's namespace, in deployment order."""
        return [a.namespace for a in self.apps]

    def app_for(self, namespace: str,
                fallback: Optional[App] = None) -> App:
        """The app deployed in ``namespace``.

        Raises ``KeyError`` for an unhosted namespace unless ``fallback``
        is given — the get-or-primary rule the exec dispatcher and the
        ACI share.
        """
        app = self._apps_by_ns.get(namespace)
        if app is not None:
            return app
        if fallback is not None:
            return fallback
        raise KeyError(
            f"no app in namespace {namespace!r}; hosted: "
            f"{self.namespaces}")

    def driver_for(self, namespace: str) -> WorkloadDriver:
        """The workload driver for the app in ``namespace``."""
        try:
            return self._drivers_by_ns[namespace]
        except KeyError:
            raise KeyError(
                f"no driver for namespace {namespace!r}; hosted: "
                f"{self.namespaces}") from None

    def _exec_dispatch(self, namespace: str, pod: str,
                       argv: list[str]) -> str:
        """Route ``kubectl exec`` to the app that owns ``namespace``.

        Unknown namespaces fall through to the primary app's handler,
        which produces the historical not-managed-by error text.
        """
        app = self.app_for(namespace, fallback=self.app)
        return app.exec_handler(namespace, pod, argv)

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def advance(self, seconds: float) -> None:
        """Let the environment live for ``seconds`` of virtual time: every
        app's workload, scrapes, controller resync and any scheduled fault
        timeline all fire as events on the one queue."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        end = self.clock.now + seconds
        for driver in self.drivers:
            driver.begin_window(end)
        self.queue.run_until(end)

    def probe_error_rate(self, seconds: float = 10.0,
                         namespace: Optional[str] = None) -> float:
        """Run load for a window and return the fraction of failed requests.

        Aggregated across every hosted app by default; pass ``namespace``
        to probe one app's traffic only.
        """
        drivers = [self.driver_for(namespace)] if namespace is not None \
            else self.drivers
        before = [(d.stats.requests, d.stats.errors) for d in drivers]
        self.advance(seconds)
        n = sum(d.stats.requests - b[0] for d, b in zip(drivers, before))
        e = sum(d.stats.errors - b[1] for d, b in zip(drivers, before))
        return e / n if n else 0.0

    # ------------------------------------------------------------------
    # snapshot / fork
    # ------------------------------------------------------------------
    def snapshot(self, extras: Any = None) -> "EnvSnapshot":
        """Capture the full simulation state into a picklable
        :class:`EnvSnapshot`.

        Everything reachable from the environment is captured in one
        pickle graph: cluster objects, telemetry stores, armed fault
        schedules (their queue events and metric watches point back at the
        schedule), RNG stream positions and event-queue contents.  A
        forked copy's subsequent evolution is bit-identical to a fresh
        environment advanced to the same point — the property the
        kernel-equivalence suite pins.

        ``extras`` rides along in the same graph, so anything in it that
        references the environment (a :class:`~repro.core.problem.Problem`
        holding an injector, an armed schedule handle) resolves to the
        *forked* environment on rehydration — use
        :meth:`EnvSnapshot.fork_with_extras` to get it back.
        """
        payload = pickle.dumps({"env": self, "extras": extras},
                               protocol=pickle.HIGHEST_PROTOCOL)
        return EnvSnapshot(payload, taken_at=self.clock.now,
                           app_names=[a.name for a in self.apps])

    def close(self) -> None:
        """Release the environment's on-disk footprint.

        Cancels the recurring resync event and removes the telemetry
        export directory *if this environment created it* (a caller-
        provided ``export_root`` is the caller's to manage).  Idempotent;
        the in-memory simulation stays usable for post-mortem inspection.
        """
        if self.closed:
            return
        self.closed = True
        if self._resync is not None:
            self._resync.cancel()
        if self._rollup is not None:
            self._rollup.cancel()
        if self._owns_export_root:
            shutil.rmtree(self.export_root, ignore_errors=True)


class EnvSnapshot:
    """A frozen, picklable capture of a :class:`CloudEnvironment`.

    The payload is a single pickle of the environment (and any ``extras``
    passed to :meth:`CloudEnvironment.snapshot`), so a snapshot can be
    shipped across process boundaries — warm benchmark workers inherit
    one by fork and rehydrate per grid cell instead of re-running
    deploy + warmup + fault soak.  Each :meth:`fork` call produces an
    independent environment: forks share no mutable state with each other
    or with the environment the snapshot was taken from.
    """

    def __init__(self, payload: bytes, taken_at: float,
                 app_names: Sequence[str]) -> None:
        self.payload = payload
        #: virtual time the snapshot was taken at
        self.taken_at = taken_at
        self.app_names = list(app_names)

    @property
    def size_bytes(self) -> int:
        return len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EnvSnapshot(apps={self.app_names}, t={self.taken_at:g}, "
                f"{self.size_bytes:,} bytes)")

    def fork(self) -> CloudEnvironment:
        """Rehydrate an independent environment at the snapshot point."""
        return self.fork_with_extras()[0]

    def fork_with_extras(self) -> tuple[CloudEnvironment, Any]:
        """Rehydrate and also return the co-captured ``extras`` object,
        whose environment references resolve to the forked environment
        (one pickle memo covers both)."""
        state = pickle.loads(self.payload)
        env: CloudEnvironment = state["env"]
        # every fork owns a fresh export directory: the captured path may
        # belong to a still-open environment (or not exist in a worker)
        env.export_root = Path(tempfile.mkdtemp(
            prefix=f"aiopslab-{env.app.name}-"))
        env._owns_export_root = True
        env.exporter = TelemetryExporter(env.collector, env.export_root)
        env.closed = False
        return env, state["extras"]
