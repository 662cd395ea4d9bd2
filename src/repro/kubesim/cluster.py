"""The cluster state store — an in-process stand-in for the API server."""

from __future__ import annotations

from typing import Optional

from repro.simcore import RngStream, SimClock, ResourceNotFound, InvalidAction
from repro.kubesim.objects import (
    ClusterEvent,
    ConfigMap,
    Deployment,
    Endpoints,
    Node,
    ObjectMeta,
    Pod,
    PodPhase,
    Secret,
    Service,
)
from repro.kubesim.scheduler import Scheduler
from repro.kubesim.controllers import DeploymentController, EndpointsController


class _VersionedDict(dict):
    """A dict that counts membership mutations, globally and per namespace.

    The cluster's sorted per-namespace object views are derived caches
    keyed on the global ``version``, so every mutation site (controllers,
    faults, helm, kubectl) invalidates them without having to know they
    exist.  Keys are ``(namespace, name)`` tuples; :meth:`ns_version`
    additionally gives a per-namespace fingerprint component, so one
    app's profile cache is not invalidated by membership churn in a
    co-hosted app's namespace (multi-app environments share the cluster).
    Bulk mutators that can't attribute a namespace bump a shared epoch
    that is folded into every per-namespace readout.
    """

    __slots__ = ("version", "_ns_counts", "_bulk_epoch")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.version = 0
        self._ns_counts: dict[str, int] = {}
        self._bulk_epoch = 0

    def _bump(self, key) -> None:
        self.version += 1
        if isinstance(key, tuple) and key:
            ns = key[0]
            self._ns_counts[ns] = self._ns_counts.get(ns, 0) + 1
        else:
            self._bulk_epoch += 1

    def ns_version(self, namespace: str) -> tuple[int, int]:
        """Per-namespace mutation fingerprint (count, bulk epoch)."""
        return (self._ns_counts.get(namespace, 0), self._bulk_epoch)

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self._bump(key)

    def __delitem__(self, key) -> None:
        super().__delitem__(key)
        self._bump(key)

    def pop(self, *args):
        self._bump(args[0] if args else None)
        return super().pop(*args)

    def popitem(self):
        self.version += 1
        self._bulk_epoch += 1
        return super().popitem()

    def clear(self) -> None:
        self.version += 1
        self._bulk_epoch += 1
        super().clear()

    def update(self, *args, **kwargs) -> None:
        self.version += 1
        self._bulk_epoch += 1
        super().update(*args, **kwargs)

    def setdefault(self, key, default=None):
        self._bump(key)
        return super().setdefault(key, default)

    def __ior__(self, other):
        self.version += 1
        self._bulk_epoch += 1
        return super().__ior__(other)

    def __reduce__(self):
        """Rebuild through ``__setstate__`` rather than per-item
        ``__setitem__`` (which would read the version slots before
        pickle restores them) — and restore the exact counters, so a
        snapshotted cluster's derived-cache fingerprints stay valid."""
        state = (dict(self), self.version, self._ns_counts, self._bulk_epoch)
        return (self.__class__, (), state)

    def __setstate__(self, state) -> None:
        items, self.version, self._ns_counts, self._bulk_epoch = state
        dict.update(self, items)


class Cluster:
    """Holds every Kubernetes object and runs the reconciling controllers.

    All mutations go through CRUD methods; :meth:`reconcile` then drives the
    system to the desired state (deployments stamp pods, the scheduler binds
    them, the endpoints controller recomputes service backends).  Mutating
    methods call ``reconcile()`` themselves, so callers always observe a
    settled cluster.

    Parameters
    ----------
    clock:
        Shared simulation clock; object creation times and events use it.
    seed:
        Root seed for pod-name suffixes and IP assignment.
    node_specs:
        Optional iterable of :class:`~repro.kubesim.resources.NodeSpec`
        shaping the initial node pool.  ``None`` keeps the historical
        default: one ``node-0`` with default capacities.
    """

    def __init__(self, clock: Optional[SimClock] = None, seed: int = 0,
                 node_specs=None) -> None:
        self.clock = clock or SimClock()
        self.rng = RngStream(seed, "kubesim")
        #: plain ints (next value to hand out) rather than itertools.count
        #: so cluster state pickles for environment snapshots
        self._uid_counter = 1
        self._ip_counter = 2

        self.namespaces: set[str] = {"default", "kube-system"}
        self.nodes: dict[str, Node] = {}
        self.pods: dict[tuple[str, str], Pod] = _VersionedDict()
        self.deployments: dict[tuple[str, str], Deployment] = {}
        self.services: dict[tuple[str, str], Service] = _VersionedDict()
        self.endpoints: dict[tuple[str, str], Endpoints] = {}
        self.configmaps: dict[tuple[str, str], ConfigMap] = {}
        self.secrets: dict[tuple[str, str], Secret] = {}
        self.events: list[ClusterEvent] = []

        self._scheduler = Scheduler(self)
        self._deploy_ctrl = DeploymentController(self)
        self._endpoints_ctrl = EndpointsController(self)
        #: autoscalers evaluated on every resync (see attach_autoscaler)
        self.autoscalers: list = []
        #: monotonic mutation counter: bumped by every mutating CRUD
        #: method *and* by every ``reconcile()`` run, so derived caches
        #: (path profiles, log pod attribution) can fingerprint cluster
        #: state cheaply — including in-place object edits, which always
        #: go through a reconcile.  A converged-cluster ``resync`` skips
        #: reconcile and therefore does not bump it.
        self.state_version = 0
        #: per-namespace CRUD-mutation counters (see ``state_version_for``)
        self._ns_marks: dict[str, int] = {}
        #: cluster-global epoch: bumped by every ``reconcile()`` run and by
        #: namespace-less mutations (node add/remove) — in-place object
        #: edits bypass CRUD but always reconcile, so folding this epoch
        #: into every namespace's fingerprint keeps per-app profile caches
        #: conservatively correct (they may recompile on another app's
        #: reconcile, but can never serve a stale profile)
        self._reconcile_version = 0
        #: set by mutating CRUD methods, cleared by reconcile(); lets the
        #: periodic resync event skip converged clusters in O(1)
        self._dirty = True
        #: version-keyed sorted views per namespace (derived caches)
        self._pods_views: tuple[int, dict[str, list[Pod]]] = (-1, {})
        self._services_views: tuple[int, dict[str, list[Service]]] = (-1, {})

        # Default control-plane node so a fresh cluster is schedulable.
        if node_specs is None:
            self.add_node("node-0")
        else:
            for spec in node_specs:
                self.add_node(spec.name, dict(spec.labels) or None,
                              cpu_capacity=spec.cpu_capacity,
                              mem_capacity=spec.mem_capacity,
                              capacity_pods=spec.capacity_pods)

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------
    def _mark_dirty(self, namespace: Optional[str] = None) -> None:
        """Flag unreconciled state and bump the mutation counters.

        ``namespace`` attributes the mutation for per-app fingerprints;
        namespace-less mutations (nodes) bump the cluster-global epoch
        instead, since they can affect scheduling everywhere.
        """
        self._dirty = True
        self.state_version += 1
        if namespace is not None:
            self._ns_marks[namespace] = self._ns_marks.get(namespace, 0) + 1
        else:
            self._reconcile_version += 1

    def state_version_for(self, namespace: str) -> tuple[int, int]:
        """Per-namespace state fingerprint: (namespace CRUD marks,
        cluster-global reconcile epoch).

        Changes whenever anything that could affect ``namespace``'s
        request execution changed: CRUD in the namespace itself, any
        reconcile (in-place edits always reconcile), or a namespace-less
        mutation.  CRUD-only mutations in *other* namespaces (secrets,
        configmaps — anything that doesn't trigger a reconcile) leave it
        untouched, which is what keys profile caches per app.
        """
        return (self._ns_marks.get(namespace, 0), self._reconcile_version)

    def _next_uid(self) -> str:
        n = self._uid_counter
        self._uid_counter += 1
        return f"uid-{n:06d}"

    def _next_ip(self) -> str:
        n = self._ip_counter
        self._ip_counter += 1
        return f"10.244.{(n >> 8) & 0xFF}.{n & 0xFF}"

    def record_event(
        self,
        namespace: str,
        kind: str,
        name: str,
        reason: str,
        message: str,
        event_type: str = "Normal",
    ) -> None:
        self.events.append(
            ClusterEvent(
                time=self.clock.now,
                namespace=namespace,
                kind=kind,
                name=name,
                reason=reason,
                message=message,
                event_type=event_type,
            )
        )

    def events_in(self, namespace: str) -> list[ClusterEvent]:
        return [e for e in self.events if e.namespace == namespace]

    # ------------------------------------------------------------------
    # namespaces & nodes
    # ------------------------------------------------------------------
    def create_namespace(self, name: str) -> None:
        self._mark_dirty(name)
        self.namespaces.add(name)

    def delete_namespace(self, name: str) -> None:
        """Delete a namespace and everything inside it."""
        if name not in self.namespaces:
            raise ResourceNotFound("Namespace", name)
        self._mark_dirty(name)
        self.namespaces.discard(name)
        for store in (
            self.pods,
            self.deployments,
            self.services,
            self.endpoints,
            self.configmaps,
            self.secrets,
        ):
            for key in [k for k in store if k[0] == name]:
                del store[key]

    def require_namespace(self, name: str) -> None:
        if name not in self.namespaces:
            raise ResourceNotFound("Namespace", name)

    def add_node(self, name: str, labels: Optional[dict[str, str]] = None,
                 *, cpu_capacity: float = 32000.0,
                 mem_capacity: float = 65536.0,
                 capacity_pods: int = 110) -> Node:
        self._mark_dirty()
        node = Node(meta=ObjectMeta(name=name, namespace=""),
                    labels=labels or {}, cpu_capacity=cpu_capacity,
                    mem_capacity=mem_capacity, capacity_pods=capacity_pods)
        self.nodes[name] = node
        return node

    def remove_node(self, name: str) -> None:
        if name not in self.nodes:
            raise ResourceNotFound("Node", name)
        self._mark_dirty()
        del self.nodes[name]
        self.reconcile()

    # ------------------------------------------------------------------
    # generic CRUD
    # ------------------------------------------------------------------
    def create_deployment(self, dep: Deployment) -> Deployment:
        self.require_namespace(dep.namespace)
        key = (dep.namespace, dep.name)
        if key in self.deployments:
            raise InvalidAction(f'deployment "{dep.name}" already exists')
        self._mark_dirty(dep.namespace)
        dep.meta.uid = self._next_uid()
        dep.meta.creation_time = self.clock.now
        self.deployments[key] = dep
        self.record_event(
            dep.namespace, "Deployment", dep.name, "ScalingReplicaSet",
            f"Scaled up replica set {dep.name} to {dep.replicas}",
        )
        self.reconcile()
        return dep

    def get_deployment(self, namespace: str, name: str) -> Deployment:
        try:
            return self.deployments[(namespace, name)]
        except KeyError:
            raise ResourceNotFound("Deployment", name, namespace) from None

    def delete_deployment(self, namespace: str, name: str) -> None:
        self.get_deployment(namespace, name)
        self._mark_dirty(namespace)
        del self.deployments[(namespace, name)]
        self.reconcile()

    def scale_deployment(self, namespace: str, name: str, replicas: int) -> Deployment:
        if replicas < 0:
            raise InvalidAction(f"replicas must be >= 0, got {replicas}")
        dep = self.get_deployment(namespace, name)
        self._mark_dirty(namespace)
        old = dep.replicas
        dep.replicas = replicas
        dep.generation += 1
        verb = "up" if replicas > old else "down"
        self.record_event(
            namespace, "Deployment", name, "ScalingReplicaSet",
            f"Scaled {verb} replica set {name} to {replicas}",
        )
        self.reconcile()
        return dep

    def create_service(self, svc: Service) -> Service:
        self.require_namespace(svc.namespace)
        key = (svc.namespace, svc.name)
        if key in self.services:
            raise InvalidAction(f'service "{svc.name}" already exists')
        self._mark_dirty(svc.namespace)
        svc.meta.uid = self._next_uid()
        svc.meta.creation_time = self.clock.now
        if not svc.cluster_ip:
            svc.cluster_ip = f"10.96.{self.rng.integers(0, 255)}.{self.rng.integers(2, 255)}"
        self.services[key] = svc
        self.reconcile()
        return svc

    def get_service(self, namespace: str, name: str) -> Service:
        try:
            return self.services[(namespace, name)]
        except KeyError:
            raise ResourceNotFound("Service", name, namespace) from None

    def delete_service(self, namespace: str, name: str) -> None:
        self.get_service(namespace, name)
        self._mark_dirty(namespace)
        del self.services[(namespace, name)]
        self.endpoints.pop((namespace, name), None)

    def get_endpoints(self, namespace: str, name: str) -> Endpoints:
        try:
            return self.endpoints[(namespace, name)]
        except KeyError:
            raise ResourceNotFound("Endpoints", name, namespace) from None

    def create_pod(self, pod: Pod) -> Pod:
        self.require_namespace(pod.namespace)
        key = (pod.namespace, pod.name)
        if key in self.pods:
            raise InvalidAction(f'pod "{pod.name}" already exists')
        self._mark_dirty(pod.namespace)
        pod.meta.uid = self._next_uid()
        pod.ip = self._next_ip()
        pod.meta.creation_time = self.clock.now
        pod.start_time = self.clock.now
        self.pods[key] = pod
        self.reconcile()
        return pod

    def get_pod(self, namespace: str, name: str) -> Pod:
        try:
            return self.pods[(namespace, name)]
        except KeyError:
            raise ResourceNotFound("Pod", name, namespace) from None

    def delete_pod(self, namespace: str, name: str) -> None:
        pod = self.get_pod(namespace, name)
        self.record_event(namespace, "Pod", name, "Killing", f"Stopping container {name}")
        self._mark_dirty(namespace)
        del self.pods[(namespace, pod.name)]
        self.reconcile()

    def create_configmap(self, cm: ConfigMap) -> ConfigMap:
        self.require_namespace(cm.namespace)
        self._mark_dirty(cm.namespace)
        cm.meta.uid = self._next_uid()
        cm.meta.creation_time = self.clock.now
        self.configmaps[(cm.namespace, cm.name)] = cm
        return cm

    def get_configmap(self, namespace: str, name: str) -> ConfigMap:
        try:
            return self.configmaps[(namespace, name)]
        except KeyError:
            raise ResourceNotFound("ConfigMap", name, namespace) from None

    def create_secret(self, s: Secret) -> Secret:
        self.require_namespace(s.namespace)
        self._mark_dirty(s.namespace)
        s.meta.uid = self._next_uid()
        s.meta.creation_time = self.clock.now
        self.secrets[(s.namespace, s.name)] = s
        return s

    def get_secret(self, namespace: str, name: str) -> Secret:
        try:
            return self.secrets[(namespace, name)]
        except KeyError:
            raise ResourceNotFound("Secret", name, namespace) from None

    # ------------------------------------------------------------------
    # queries used by controllers and telemetry
    # ------------------------------------------------------------------
    def pods_in(self, namespace: str) -> list[Pod]:
        version, views = self._pods_views
        if version != self.pods.version:
            views = {}
            self._pods_views = (self.pods.version, views)
        view = views.get(namespace)
        if view is None:
            view = [p for (ns, _), p in sorted(self.pods.items())
                    if ns == namespace]
            views[namespace] = view
        return list(view)

    def deployments_in(self, namespace: str) -> list[Deployment]:
        return [d for (ns, _), d in sorted(self.deployments.items()) if ns == namespace]

    def services_in(self, namespace: str) -> list[Service]:
        version, views = self._services_views
        if version != self.services.version:
            views = {}
            self._services_views = (self.services.version, views)
        view = views.get(namespace)
        if view is None:
            view = [s for (ns, _), s in sorted(self.services.items())
                    if ns == namespace]
            views[namespace] = view
        return list(view)

    def pods_matching(self, namespace: str, selector: dict[str, str]) -> list[Pod]:
        if not selector:
            return []
        items = selector.items()
        out = []
        for p in self.pods_in(namespace):
            labels = p.meta.labels
            for k, v in items:
                if labels.get(k) != v:
                    break
            else:
                out.append(p)
        return out

    def pods_for_deployment(self, dep: Deployment) -> list[Pod]:
        return [
            p for p in self.pods_in(dep.namespace)
            if p.owner == dep.name and p.meta.matches(dep.selector)
        ]

    def service_reachable(self, namespace: str, name: str) -> bool:
        """True if a service exists and has at least one ready endpoint."""
        ep = self.endpoints.get((namespace, name))
        return ep is not None and ep.reachable

    # ------------------------------------------------------------------
    # reconciliation
    # ------------------------------------------------------------------
    def reconcile(self, rounds: int = 3) -> None:
        """Run the controllers to a fixed point.

        Three rounds suffice for every chain in this model (deployment →
        pod → schedule → endpoints); extra rounds are no-ops.

        Bumps ``state_version`` unconditionally: in-place object edits
        (service ports, pod crash-loop flags, deployment templates) don't
        go through CRUD, but every such mutation site reconciles — so the
        counter still observes them.
        """
        self.state_version += 1
        self._reconcile_version += 1
        for _ in range(rounds):
            changed = False
            changed |= self._deploy_ctrl.reconcile()
            changed |= self._scheduler.reconcile()
            changed |= self._endpoints_ctrl.reconcile()
            if not changed:
                break
        self._dirty = False

    def attach_autoscaler(self, autoscaler) -> None:
        """Register a :class:`~repro.kubesim.controllers.
        HorizontalAutoscaler` for evaluation on every :meth:`resync`."""
        if autoscaler not in self.autoscalers:
            self.autoscalers.append(autoscaler)

    def resync(self) -> None:
        """Periodic controller sync (the controller-manager's resync loop).

        Autoscalers evaluate first (they may scale deployments, which
        reconciles eagerly); then, every mutating CRUD method reconciles
        eagerly, so a converged cluster has nothing left to do — an O(1)
        no-op unless a mutation was made without a follow-up
        :meth:`reconcile` (the ``_dirty`` flag tracks that).  Scheduled
        as a recurring event by :class:`~repro.core.env.CloudEnvironment`.
        """
        for autoscaler in self.autoscalers:
            autoscaler.evaluate()
        if self._dirty:
            self.reconcile()
