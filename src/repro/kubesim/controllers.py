"""Reconciling controllers: deployments → pods, services → endpoints —
plus the :class:`HorizontalAutoscaler` driven by the resource plane."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.kubesim.objects import (
    Endpoints,
    EndpointAddress,
    ObjectMeta,
    Pod,
    PodPhase,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kubesim.cluster import Cluster
    from repro.kubesim.resources import ResourcePlane


class DeploymentController:
    """Keeps each deployment's pod count equal to ``spec.replicas``.

    Pod names follow the familiar ``<deployment>-<hash>-<rand>`` shape so
    kubectl output reads naturally to an agent.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    def _pod_name(self, dep_name: str) -> str:
        rng = self.cluster.rng
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
        mid = "".join(rng.choice(alphabet) for _ in range(9))
        tail = "".join(rng.choice(alphabet) for _ in range(5))
        return f"{dep_name}-{mid}-{tail}"

    def reconcile(self) -> bool:
        changed = False
        for dep in list(self.cluster.deployments.values()):
            pods = self.cluster.pods_for_deployment(dep)
            live = [p for p in pods if not p.deletion_requested]
            # scale up
            while len(live) < dep.replicas:
                pod = Pod(
                    meta=ObjectMeta(
                        name=self._pod_name(dep.name),
                        namespace=dep.namespace,
                        labels=dict(dep.template.labels),
                    ),
                    containers=dep.template.clone_containers(),
                    node_selector=dict(dep.template.node_selector),
                    node_name=dep.template.node_name,
                    owner=dep.name,
                )
                pod.meta.uid = self.cluster._next_uid()
                pod.ip = self.cluster._next_ip()
                pod.meta.creation_time = self.cluster.clock.now
                pod.start_time = self.cluster.clock.now
                self.cluster.pods[(pod.namespace, pod.name)] = pod
                self.cluster.record_event(
                    dep.namespace, "Pod", pod.name, "SuccessfulCreate",
                    f"Created pod: {pod.name}",
                )
                live.append(pod)
                changed = True
            # scale down (delete newest first, like the real controller's default)
            while len(live) > dep.replicas:
                victim = sorted(live, key=lambda p: (-p.meta.creation_time, p.name))[0]
                self.cluster.record_event(
                    dep.namespace, "Pod", victim.name, "Killing",
                    f"Stopping container {victim.name}",
                )
                del self.cluster.pods[(victim.namespace, victim.name)]
                live.remove(victim)
                changed = True
        # garbage-collect orphans whose deployment is gone
        for key, pod in list(self.cluster.pods.items()):
            if pod.owner and (pod.namespace, pod.owner) not in self.cluster.deployments:
                del self.cluster.pods[key]
                changed = True
        return changed


class EndpointsController:
    """Recomputes each service's ready backends.

    A pod backs a service only if **all** of:

    1. its labels match the service selector,
    2. it is Running and Ready (not crash-looping, not terminating),
    3. one of its containers actually listens on the service's
       ``targetPort``.

    Rule 3 is what makes the *TargetPortMisconfig* fault observable: the
    service object looks healthy, the pods look healthy, yet the endpoints
    list is empty and every upstream call gets connection refused.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    def _backends(self, svc) -> list[EndpointAddress]:
        out: list[EndpointAddress] = []
        pods = self.cluster.pods_matching(svc.namespace, svc.selector)
        for pod in pods:
            if pod.phase is not PodPhase.RUNNING or not pod.ready:
                continue
            if pod.crash_looping or pod.deletion_requested:
                continue
            for sp in svc.ports:
                if sp.target_port in pod.container_ports():
                    out.append(
                        EndpointAddress(
                            ip=pod.ip,
                            pod_name=pod.name,
                            port=sp.target_port,
                        )
                    )
                    break
        return sorted(out, key=lambda a: a.pod_name)

    def reconcile(self) -> bool:
        changed = False
        for key, svc in list(self.cluster.services.items()):
            desired = self._backends(svc)
            existing = self.cluster.endpoints.get(key)
            if existing is None:
                self.cluster.endpoints[key] = Endpoints(
                    meta=ObjectMeta(name=svc.name, namespace=svc.namespace),
                    addresses=desired,
                )
                changed = True
            else:
                current = [(a.pod_name, a.port) for a in existing.addresses]
                new = [(a.pod_name, a.port) for a in desired]
                if current != new:
                    existing.addresses = desired
                    changed = True
        # drop endpoints for deleted services
        for key in [k for k in self.cluster.endpoints if k not in self.cluster.services]:
            del self.cluster.endpoints[key]
            changed = True
        return changed


@dataclass(frozen=True)
class HpaPolicy:
    """One autoscaler target: a deployment plus its scaling parameters.

    ``target_utilization`` is per-replica CPU demand as a fraction of the
    pod's CPU request (the k8s ``averageUtilization`` metric, as a
    fraction rather than a percent).  ``tolerance`` is the k8s
    ``--horizontal-pod-autoscaler-tolerance`` dead band: no action while
    ``|utilization/target − 1| <= tolerance``.  Scale-ups apply
    immediately; scale-downs wait out ``scale_down_stabilization_s`` of
    continuously-low utilization first (the k8s stabilization window,
    which is what damps flapping workloads — scenarios shrink it to
    *induce* thrash).
    """

    namespace: str
    deployment: str
    target_utilization: float = 0.7
    min_replicas: int = 1
    max_replicas: int = 8
    tolerance: float = 0.1
    scale_down_stabilization_s: float = 60.0


class HorizontalAutoscaler:
    """HPA-style controller scaling deployments on rolled-up utilization.

    Evaluated from the cluster's resync loop and after every resource-
    plane rollup.  Draws no randomness and mutates only through
    ``Cluster.scale_deployment``, so an environment with no targets is
    bit-identical to one without the controller at all.

    The desired-replica formula is the real HPA's:
    ``desired = ceil(current × utilization / target)`` — scale-invariant
    because per-replica utilization already divides by ``current``.
    """

    def __init__(self, cluster: "Cluster", plane: "ResourcePlane") -> None:
        self.cluster = cluster
        self.plane = plane
        self.policies: list[HpaPolicy] = []
        #: policy index -> clock time its utilization first went low
        self._below_since: dict[int, float] = {}
        #: (time, namespace, deployment, old, new) scaling decisions
        self.log: list[tuple[float, str, str, int, int]] = []

    def add(self, policy: HpaPolicy) -> HpaPolicy:
        self.policies.append(policy)
        return policy

    def _desired(self, policy: HpaPolicy, current: int,
                 utilization: float) -> int:
        desired = math.ceil(current * utilization / policy.target_utilization)
        return max(policy.min_replicas, min(policy.max_replicas, desired))

    def evaluate(self) -> None:
        now = self.cluster.clock.now
        for i, policy in enumerate(self.policies):
            dep = self.cluster.deployments.get(
                (policy.namespace, policy.deployment))
            if dep is None or dep.replicas <= 0:
                # manually scaled to zero (or deleted): stand down rather
                # than fight an operator/fault that zeroed the deployment
                self._below_since.pop(i, None)
                continue
            current = dep.replicas
            utilization = self.plane.utilization_of(
                policy.namespace, policy.deployment, current)
            desired = self._desired(policy, current, utilization)
            if desired == current or (
                policy.target_utilization > 0.0
                and abs(utilization / policy.target_utilization - 1.0)
                <= policy.tolerance
            ):
                if desired >= current:
                    self._below_since.pop(i, None)
                continue
            if desired > current:
                self._below_since.pop(i, None)
                self._rescale(policy, dep, desired, utilization, up=True)
                continue
            # scale down: wait out the stabilization window first
            since = self._below_since.get(i)
            if since is None:
                self._below_since[i] = now
                continue
            if now - since >= policy.scale_down_stabilization_s:
                self._below_since.pop(i, None)
                self._rescale(policy, dep, desired, utilization, up=False)

    def _rescale(self, policy: HpaPolicy, dep, desired: int,
                 utilization: float, up: bool) -> None:
        old = dep.replicas
        direction = "above" if up else "below"
        self.cluster.record_event(
            policy.namespace, "HorizontalPodAutoscaler", policy.deployment,
            "SuccessfulRescale",
            f"New size: {desired}; reason: cpu resource utilization "
            f"(percentage of request) {direction} target "
            f"({int(round(100 * utilization))}% vs "
            f"{int(round(100 * policy.target_utilization))}%)",
        )
        self.cluster.scale_deployment(policy.namespace, policy.deployment,
                                      desired)
        self.log.append((self.cluster.clock.now, policy.namespace,
                         policy.deployment, old, desired))
