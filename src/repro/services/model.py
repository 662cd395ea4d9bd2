"""Microservice and call-graph model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.services.backends import CacheBackend, MongoBackend


@dataclass
class Microservice:
    """One microservice in an application.

    Attributes
    ----------
    name:
        Also the Kubernetes service/deployment name.
    port:
        The container port the service listens on.
    kind:
        ``"stateless"`` (business logic), ``"mongodb"``, ``"redis"``,
        ``"memcached"`` or ``"frontend"``.
    backend:
        The simulated store for database/cache kinds.
    base_latency_ms / latency_sigma:
        Lognormal per-hop service time parameters.
    credentials:
        For stateless services that talk to a database: the
        ``{backend_service: (username, password)}`` map rendered from helm
        values.  ``None`` credentials model the *AuthenticationMissing*
        fault.
    """

    name: str
    port: int
    kind: str = "stateless"
    image: str = ""
    backend: Optional[MongoBackend | CacheBackend] = None
    base_latency_ms: float = 2.0
    latency_sigma: float = 0.3
    credentials: dict[str, Optional[tuple[str, str]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.image:
            self.image = f"deathstarbench/{self.name}:latest"

    @property
    def busy_mcores_per_rps(self) -> float:
        """CPU demand (millicores) one request/second of load adds.

        The resource plane's first-principles demand model: a request that
        keeps the service busy for ``base_latency_ms`` milliseconds holds
        one core for that fraction of each second, i.e. ``base_latency_ms``
        millicores per rps.
        """
        return self.base_latency_ms


@dataclass
class CallEdge:
    """A directed RPC in an operation's call tree."""

    callee: str
    command: str = "rpc"
    children: list["CallEdge"] = field(default_factory=list)


@dataclass
class Operation:
    """A user-facing operation and its call tree rooted at the entry service."""

    name: str
    entry: str
    tree: list[CallEdge] = field(default_factory=list)
    weight: float = 1.0

    def all_services(self) -> set[str]:
        """Every service the operation touches (entry included)."""
        seen = {self.entry}

        def walk(edges: list[CallEdge]) -> None:
            for e in edges:
                seen.add(e.callee)
                walk(e.children)

        walk(self.tree)
        return seen
