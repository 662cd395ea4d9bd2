"""Base application: helm-deployable set of microservices plus call graphs."""

from __future__ import annotations

import re
from typing import Any, Optional

from repro.kubesim.cluster import Cluster
from repro.kubesim.helm import ChartService, Helm, HelmChart
from repro.services.backends import MemcachedBackend, MongoBackend, RedisBackend
from repro.services.model import Microservice, Operation
from repro.services.runtime import ServiceRuntime
from repro.simcore import ResourceNotFound
from repro.telemetry.collector import TelemetryCollector


class App:
    """An application under test.

    Subclasses define the topology (:meth:`service_specs`), the call graphs
    (:meth:`build_operations`), the workload mix and the default helm values
    (which carry backend credentials).  :meth:`deploy` renders the chart
    into a cluster and builds the :class:`ServiceRuntime`.

    Attributes
    ----------
    name / namespace / frontend:
        Application identity; ``frontend`` is the entry service name.
    short_name:
        The app's spelling inside problem ids (``..._hotel_res-detection-1``).
    """

    name: str = "app"
    short_name: str = "app"
    namespace: str = "default"
    frontend: str = "frontend"

    def __init__(self) -> None:
        self.backends: dict[str, MongoBackend | RedisBackend | MemcachedBackend] = {}
        self.services: dict[str, Microservice] = {}
        self.operations: dict[str, Operation] = {}
        self.runtime: Optional[ServiceRuntime] = None
        self.helm: Optional[Helm] = None
        self.cluster: Optional[Cluster] = None
        self.release_name = f"{self.name}-release"

    # -- subclass hooks ---------------------------------------------------
    def service_specs(self) -> list[Microservice]:
        """The full service inventory (backends not yet attached)."""
        raise NotImplementedError

    def build_operations(self) -> dict[str, Operation]:
        raise NotImplementedError

    def workload_mix(self) -> dict[str, float]:
        """Operation name → sampling weight for the workload generator, in
        :meth:`build_operations` order (the order fixes the driver's
        draws)."""
        return {op.name: op.weight for op in self.build_operations().values()}

    def default_values(self) -> dict[str, Any]:
        """Helm values; ``mongo_credentials`` maps backend service →
        ``{"username", "password"}`` (or None when absent)."""
        return {"mongo_credentials": {}}

    # -- derived ------------------------------------------------------------
    @property
    def ns(self) -> str:
        return self.namespace

    @property
    def frontend_url(self) -> str:
        port = self.services[self.frontend].port if self.services else 8080
        return f"http://{self.frontend}.{self.namespace}.svc.cluster.local:{port}"

    def mongo_services(self) -> list[str]:
        return [s.name for s in self.services.values() if s.kind == "mongodb"]

    #: per-kind (cpu millicores, memory MiB) container requests the chart
    #: renders — DeathStarBench-chart-flavored sizing: entry points and
    #: databases ask for more than mid-tier logic or caches
    RESOURCE_REQUESTS: dict[str, tuple[float, float]] = {
        "frontend": (200.0, 256.0),
        "stateless": (100.0, 128.0),
        "mongodb": (250.0, 512.0),
        "redis": (100.0, 256.0),
        "memcached": (100.0, 256.0),
    }

    def chart(self) -> HelmChart:
        return HelmChart(
            name=self.name,
            services=[
                ChartService(
                    name=s.name, image=s.image, port=s.port,
                    cpu_request=self.RESOURCE_REQUESTS.get(
                        s.kind, (100.0, 128.0))[0],
                    mem_request=self.RESOURCE_REQUESTS.get(
                        s.kind, (100.0, 128.0))[1],
                )
                for s in self.service_specs()
            ],
            default_values=self.default_values(),
        )

    # -- deployment -----------------------------------------------------------
    def deploy(
        self,
        cluster: Cluster,
        collector: TelemetryCollector,
        helm: Optional[Helm] = None,
        values: Optional[dict[str, Any]] = None,
        seed: int = 0,
    ) -> ServiceRuntime:
        """Install the chart and build the service runtime."""
        self.cluster = cluster
        self.helm = helm or Helm(cluster)
        self.helm.install(self.release_name, self.chart(), self.namespace, values)
        self.services = {s.name: s for s in self.service_specs()}
        self.backends = {}
        for svc in self.services.values():
            if svc.kind == "mongodb":
                backend = MongoBackend(db_name=self._db_name(svc.name))
                self.backends[svc.name] = backend
                svc.backend = backend
            elif svc.kind == "redis":
                backend = RedisBackend(svc.name)
                self.backends[svc.name] = backend
                svc.backend = backend
            elif svc.kind == "memcached":
                backend = MemcachedBackend(svc.name)
                self.backends[svc.name] = backend
                svc.backend = backend
        self._provision_mongo_users()
        self._provision_secrets()
        self.operations = self.build_operations()
        self.runtime = ServiceRuntime(
            cluster=cluster,
            namespace=self.namespace,
            services=self.services,
            operations=self.operations,
            collector=collector,
            credentials_provider=self.get_credentials,
            seed=seed,
        )
        return self.runtime

    def _db_name(self, mongo_service: str) -> str:
        """``mongodb-geo`` → ``geo-db``; ``user-mongodb`` → ``user-db``."""
        short = mongo_service.replace("mongodb-", "").replace("-mongodb", "")
        return f"{short}-db"

    def _provision_mongo_users(self) -> None:
        """Create the admin users declared in helm values on each backend."""
        creds = self._current_values().get("mongo_credentials", {})
        for svc_name, backend in self.backends.items():
            if not isinstance(backend, MongoBackend):
                continue
            entry = creds.get(svc_name)
            if entry and entry.get("username"):
                backend.create_user(
                    entry["username"], entry.get("password", ""),
                    roles={"readWrite", "dbAdmin"},
                )

    def _provision_secrets(self) -> None:
        """Mirror each backend credential into a Kubernetes secret.

        Operators (and agents) recover lost helm values from these — the
        discovery path the AuthenticationMissing mitigation uses.
        """
        from repro.kubesim.objects import ObjectMeta, Secret

        creds = self.default_values().get("mongo_credentials", {})
        for svc_name, entry in creds.items():
            if not entry:
                continue
            self.cluster.create_secret(Secret(
                meta=ObjectMeta(name=f"{svc_name}-credentials",
                                namespace=self.namespace),
                data={"username": entry["username"],
                      "password": entry.get("password", "")},
            ))

    def _current_values(self) -> dict[str, Any]:
        if self.helm and self.release_name in self.helm.releases:
            return self.helm.releases[self.release_name].values
        return self.default_values()

    # -- runtime hooks ----------------------------------------------------------
    def get_credentials(self, caller: str, callee: str) -> Optional[tuple[str, str]]:
        """Credentials the ``caller`` service uses against backend ``callee``.

        Read from the *live* helm release values each call, so a
        ``helm upgrade`` (e.g. restoring a missing credential) takes
        effect without redeploying the runtime.
        """
        entry = self._current_values().get("mongo_credentials", {}).get(callee)
        if not entry or not entry.get("username"):
            return None
        return (entry["username"], entry.get("password", ""))

    # -- kubectl exec surface -----------------------------------------------------
    def exec_handler(self, namespace: str, pod: str, argv: list[str]) -> str:
        """Handle ``kubectl exec`` inside this app's pods.

        Supports the mongo shell on ``mongodb-*`` pods — the mitigation
        path for auth faults (``grantRolesToUser`` / ``createUser``), plus
        a few generic unix probes.
        """
        if namespace != self.namespace:
            return f"error: pod {pod} not managed by {self.name}"
        owner = None
        if self.cluster is not None:
            try:
                owner = self.cluster.get_pod(namespace, pod).owner
            except ResourceNotFound:
                owner = None
        cmd = " ".join(argv)
        if argv[0] in ("mongo", "mongosh"):
            backend = self.backends.get(owner or "")
            if not isinstance(backend, MongoBackend):
                return f'sh: command not found: {argv[0]}'
            return self._mongo_shell(backend, cmd)
        if argv[0] in ("ls", "env", "ps", "cat"):
            return f"(simulated container shell) {cmd}: operation permitted but uninteresting"
        return f"sh: command not found: {argv[0]}"

    @staticmethod
    def _mongo_shell(backend: MongoBackend, cmd: str) -> str:
        """Interpret mongo shell one-liners against the simulated backend."""
        m = re.search(r'grantRolesToUser\(\s*["\']([^"\']+)["\']', cmd)
        if m:
            user = m.group(1)
            if backend.grant_roles(user, {"readWrite", "dbAdmin"}):
                return '{ "ok" : 1 }'
            return (f'uncaught exception: Error: Could not find user "{user}" '
                    f'for db "{backend.db_name}"')
        m = re.search(
            r'createUser\(\s*\{\s*user:\s*["\']([^"\']+)["\']\s*,\s*'
            r'pwd:\s*["\']([^"\']+)["\']', cmd)
        if m:
            backend.create_user(m.group(1), m.group(2), roles={"readWrite", "dbAdmin"})
            return '{ "ok" : 1 }'
        m = re.search(r'dropUser\(\s*["\']([^"\']+)["\']', cmd)
        if m:
            ok = backend.drop_user(m.group(1))
            return '{ "ok" : 1 }' if ok else '{ "ok" : 0 }'
        if "getUsers" in cmd:
            users = [
                {"user": u.username, "roles": sorted(u.roles)}
                for u in backend.users.values()
            ]
            return str({"users": users, "ok": 1})
        return ('MongoDB shell version v4.4.6\n'
                'usage: mongo --eval "db.grantRolesToUser(...)" | '
                '"db.createUser({user:..., pwd:..., roles:[...]})" | "db.getUsers()"')
