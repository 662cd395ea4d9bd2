"""Kubernetes object model (the subset AIOps incidents exercise)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class ObjectMeta:
    """Name, namespace and labels — the identity of every object."""

    name: str
    namespace: str = "default"
    labels: dict[str, str] = field(default_factory=dict)
    annotations: dict[str, str] = field(default_factory=dict)
    uid: str = ""
    creation_time: float = 0.0

    def matches(self, selector: dict[str, str]) -> bool:
        """True if this object's labels satisfy ``selector`` (AND semantics)."""
        return all(self.labels.get(k) == v for k, v in selector.items())


@dataclass
class ContainerPort:
    """A port a container listens on."""

    container_port: int
    name: str = ""
    protocol: str = "TCP"


@dataclass
class Container:
    """A container spec inside a pod template or pod.

    ``cpu_request`` is in millicores, ``mem_request`` in MiB (the only
    resource units this simulator uses); ``0.0`` means best-effort — the
    scheduler then bin-packs the container as weightless.
    """

    name: str
    image: str
    ports: list[ContainerPort] = field(default_factory=list)
    env: dict[str, str] = field(default_factory=dict)
    command: list[str] = field(default_factory=list)
    cpu_request: float = 0.0
    mem_request: float = 0.0

    def has_port(self, port: int) -> bool:
        return any(p.container_port == port for p in self.ports)


class PodPhase(str, enum.Enum):
    """Pod lifecycle phase, as reported by ``kubectl get pods``."""

    PENDING = "Pending"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"
    UNKNOWN = "Unknown"


@dataclass
class Pod:
    """A pod: spec (containers, placement) plus live status."""

    meta: ObjectMeta
    containers: list[Container] = field(default_factory=list)
    node_name: Optional[str] = None          # spec.nodeName (may be unschedulable)
    node_selector: dict[str, str] = field(default_factory=dict)
    owner: Optional[str] = None              # owning Deployment name

    # -- status ---------------------------------------------------------
    phase: PodPhase = PodPhase.PENDING
    bound_node: Optional[str] = None         # where the scheduler put it
    ip: str = ""                             # pod network address (Cluster._next_ip)
    ready: bool = False
    restart_count: int = 0
    crash_looping: bool = False
    status_reason: str = ""                  # e.g. "FailedScheduling"
    start_time: float = 0.0
    deletion_requested: bool = False

    @property
    def name(self) -> str:
        return self.meta.name

    @property
    def namespace(self) -> str:
        return self.meta.namespace

    def container_ports(self) -> set[int]:
        return {p.container_port for c in self.containers for p in c.ports}

    def status_display(self) -> str:
        """The STATUS column value ``kubectl get pods`` would show."""
        if self.deletion_requested:
            return "Terminating"
        if self.crash_looping:
            return "CrashLoopBackOff"
        return self.phase.value

    def ready_display(self) -> str:
        """The READY column, e.g. ``1/1``."""
        total = max(len(self.containers), 1)
        ready = total if self.ready else 0
        return f"{ready}/{total}"

    def cpu_request(self) -> float:
        """Requested millicores across containers (0 = best-effort)."""
        return sum(c.cpu_request for c in self.containers)

    def mem_request(self) -> float:
        """Requested MiB across containers (0 = best-effort)."""
        return sum(c.mem_request for c in self.containers)


@dataclass
class PodTemplate:
    """Template deployments stamp pods from."""

    labels: dict[str, str] = field(default_factory=dict)
    containers: list[Container] = field(default_factory=list)
    node_selector: dict[str, str] = field(default_factory=dict)
    node_name: Optional[str] = None

    def clone_containers(self) -> list[Container]:
        return [
            Container(
                name=c.name,
                image=c.image,
                ports=[ContainerPort(p.container_port, p.name, p.protocol) for p in c.ports],
                env=dict(c.env),
                command=list(c.command),
                cpu_request=c.cpu_request,
                mem_request=c.mem_request,
            )
            for c in self.containers
        ]


@dataclass
class Deployment:
    """A deployment: desired replica count plus a pod template."""

    meta: ObjectMeta
    replicas: int = 1
    selector: dict[str, str] = field(default_factory=dict)
    template: PodTemplate = field(default_factory=PodTemplate)
    generation: int = 1

    @property
    def name(self) -> str:
        return self.meta.name

    @property
    def namespace(self) -> str:
        return self.meta.namespace


@dataclass
class ServicePort:
    """A service port mapping: ``port`` (virtual) → ``target_port`` (container)."""

    port: int
    target_port: int
    name: str = ""
    protocol: str = "TCP"


@dataclass
class Service:
    """A ClusterIP service selecting pods by label."""

    meta: ObjectMeta
    selector: dict[str, str] = field(default_factory=dict)
    ports: list[ServicePort] = field(default_factory=list)
    cluster_ip: str = ""
    service_type: str = "ClusterIP"

    @property
    def name(self) -> str:
        return self.meta.name

    @property
    def namespace(self) -> str:
        return self.meta.namespace


@dataclass
class EndpointAddress:
    """One ready backend of a service."""

    ip: str
    pod_name: str
    port: int


@dataclass
class Endpoints:
    """The computed ready backends for a service (one object per service)."""

    meta: ObjectMeta
    addresses: list[EndpointAddress] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.meta.name

    @property
    def namespace(self) -> str:
        return self.meta.namespace

    @property
    def reachable(self) -> bool:
        """True if at least one ready backend exists."""
        return len(self.addresses) > 0


@dataclass
class Node:
    """A worker node with allocatable CPU/memory capacity.

    ``cpu_capacity`` is in millicores, ``mem_capacity`` in MiB — the
    defaults model a 32-core / 64 GiB worker, large enough that every
    historical single-node deployment fits without the scheduler ever
    rejecting a pod (which keeps seed behavior intact).
    """

    meta: ObjectMeta
    capacity_pods: int = 110
    ready: bool = True
    labels: dict[str, str] = field(default_factory=dict)
    cpu_capacity: float = 32000.0
    mem_capacity: float = 65536.0

    @property
    def name(self) -> str:
        return self.meta.name


@dataclass
class ConfigMap:
    """Plain key/value configuration."""

    meta: ObjectMeta
    data: dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.meta.name

    @property
    def namespace(self) -> str:
        return self.meta.namespace


@dataclass
class Secret:
    """Opaque key/value secrets (values stored in clear; this is a simulator)."""

    meta: ObjectMeta
    data: dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.meta.name

    @property
    def namespace(self) -> str:
        return self.meta.namespace


@dataclass
class ClusterEvent:
    """A namespaced event, as shown by ``kubectl get events``."""

    time: float
    namespace: str
    kind: str          # involved object kind, e.g. "Pod"
    name: str          # involved object name
    reason: str        # e.g. "FailedScheduling", "Killing", "ScalingReplicaSet"
    message: str
    event_type: str = "Normal"   # or "Warning"
