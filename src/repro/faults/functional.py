"""Functional faults (§2.4.3): fine-grained root causes agents must diagnose.

Two injectors, matching the paper's split:

* :class:`VirtFaultInjector` — virtualization-level faults
  (Kubernetes misconfiguration/operation errors): target-port misconfig,
  scale-to-zero, assignment to a non-existent node, and the
  missing-authentication helm misconfiguration.
* :class:`ApplicationFaultInjector` — application-level faults:
  revoked MongoDB privileges, unregistered users, buggy container images.
"""

from __future__ import annotations

from repro.faults.base import FaultInjector, InjectedFault
from repro.services.backends import MongoBackend
from repro.simcore import InvalidAction


class VirtFaultInjector(FaultInjector):
    """Kubernetes-layer misconfigurations and operation errors."""

    NONEXISTENT_NODE = "node-7"  # never created by any app deployment

    # -- Fault 2: TargetPortMisconfig ------------------------------------
    def inject_misconfig_k8s(self, targets: list[str],
                             record: InjectedFault) -> None:
        """Point each target service's targetPort at a port nothing listens on."""
        saved = {}
        for name in targets:
            svc = self.cluster.get_service(self.namespace, name)
            saved[name] = [p.target_port for p in svc.ports]
            for p in svc.ports:
                p.target_port = p.target_port + 1000
        record.saved_state["target_ports"] = saved
        self.cluster.reconcile()

    def recover_misconfig_k8s(self, targets: list[str],
                              record: InjectedFault) -> None:
        saved = record.saved_state.get("target_ports", {})
        for name in targets:
            svc = self.cluster.get_service(self.namespace, name)
            original = saved.get(name)
            for i, p in enumerate(svc.ports):
                if original and i < len(original):
                    p.target_port = original[i]
                else:
                    # Fall back to the app's declared container port.
                    ms = self.app.services.get(name)
                    p.target_port = ms.port if ms else p.port
        self.cluster.reconcile()

    # -- Fault 6: ScalePod --------------------------------------------------
    def inject_scale_pod_zero(self, targets: list[str],
                              record: InjectedFault) -> None:
        """Incorrect scaling operation: replicas → 0."""
        saved = {}
        for name in targets:
            dep = self.cluster.get_deployment(self.namespace, name)
            saved[name] = dep.replicas
            self.cluster.scale_deployment(self.namespace, name, 0)
        record.saved_state["replicas"] = saved

    def recover_scale_pod_zero(self, targets: list[str],
                               record: InjectedFault) -> None:
        saved = record.saved_state.get("replicas", {})
        for name in targets:
            self.cluster.scale_deployment(self.namespace, name,
                                          saved.get(name, 1))

    # -- Fault 7: AssignNonExistentNode ------------------------------------
    def inject_assign_to_non_existent_node(self, targets: list[str],
                                           record: InjectedFault) -> None:
        """Pin the targets' pods to a node that does not exist → Pending."""
        saved = {}
        for name in targets:
            dep = self.cluster.get_deployment(self.namespace, name)
            saved[name] = dep.template.node_name
            dep.template.node_name = self.NONEXISTENT_NODE
            self.cluster.restamp_deployment(dep)
        record.saved_state["node_names"] = saved

    def recover_assign_to_non_existent_node(self, targets: list[str],
                                            record: InjectedFault) -> None:
        saved = record.saved_state.get("node_names", {})
        for name in targets:
            dep = self.cluster.get_deployment(self.namespace, name)
            dep.template.node_name = saved.get(name)
            self.cluster.restamp_deployment(dep)

    # -- Fault 1: AuthenticationMissing --------------------------------------
    def inject_auth_missing(self, targets: list[str],
                            record: InjectedFault) -> None:
        """Remove the Mongo credentials from the helm release values.

        The client services then connect with no credentials and every
        request fails the SCRAM handshake — access denial to MongoDB.
        """
        helm = self.app.helm
        if helm is None:
            raise InvalidAction("app has no helm release")
        release = helm.releases[self.app.release_name]
        saved = {}
        for name in targets:
            saved[name] = release.values.get("mongo_credentials", {}).get(name)
            release.values.setdefault("mongo_credentials", {})[name] = None
        record.saved_state["credentials"] = saved

    def recover_auth_missing(self, targets: list[str],
                             record: InjectedFault) -> None:
        helm = self.app.helm
        if helm is None:
            raise InvalidAction("app has no helm release")
        release = helm.releases[self.app.release_name]
        saved = record.saved_state.get("credentials", {})
        defaults = self.app.default_values().get("mongo_credentials", {})
        for name in targets:
            restored = saved.get(name) or defaults.get(name)
            release.values.setdefault("mongo_credentials", {})[name] = restored


class ApplicationFaultInjector(FaultInjector):
    """Application-layer faults against the simulated backends/images."""

    def _mongo(self, name: str) -> MongoBackend:
        backend = self.app.backends.get(name)
        if not isinstance(backend, MongoBackend):
            raise InvalidAction(f"{name!r} is not a MongoDB service")
        return backend

    def _admin_user(self, mongo_name: str) -> tuple[str, str]:
        entry = self.app.default_values().get("mongo_credentials", {}).get(mongo_name)
        if not entry:
            return ("admin", "admin")
        return (entry["username"], entry.get("password", ""))

    # -- Fault 3: RevokeAuth -----------------------------------------------
    def inject_revoke_auth(self, targets: list[str],
                           record: InjectedFault) -> None:
        """Revoke MongoDB admin privileges (Figure 4's fault)."""
        saved = {}
        for name in targets:
            backend = self._mongo(name)
            user, _ = self._admin_user(name)
            existing = backend.users.get(user)
            saved[name] = set(existing.roles) if existing else set()
            backend.revoke_roles(user)
        record.saved_state["roles"] = saved

    def recover_revoke_auth(self, targets: list[str],
                            record: InjectedFault) -> None:
        saved = record.saved_state.get("roles", {})
        for name in targets:
            backend = self._mongo(name)
            user, pw = self._admin_user(name)
            if user not in backend.users:
                backend.create_user(user, pw)
            backend.grant_roles(
                user, saved.get(name) or {"readWrite", "dbAdmin"})

    # -- Fault 4: UserUnregistered --------------------------------------------
    def inject_user_unregistered(self, targets: list[str],
                                 record: InjectedFault) -> None:
        """Drop the database user the application authenticates as."""
        saved = {}
        for name in targets:
            backend = self._mongo(name)
            user, pw = self._admin_user(name)
            existing = backend.users.get(user)
            saved[name] = {
                "username": user,
                "password": existing.password if existing else pw,
                "roles": sorted(existing.roles) if existing else ["readWrite"],
            }
            backend.drop_user(user)
        record.saved_state["users"] = saved

    def recover_user_unregistered(self, targets: list[str],
                                  record: InjectedFault) -> None:
        saved = record.saved_state.get("users", {})
        for name in targets:
            backend = self._mongo(name)
            info = saved.get(name)
            if info:
                backend.create_user(info["username"], info["password"],
                                    roles=set(info["roles"]))
            else:
                user, pw = self._admin_user(name)
                backend.create_user(user, pw, roles={"readWrite", "dbAdmin"})

    # -- Fault 5: BuggyAppImage -------------------------------------------------
    def inject_buggy_app_image(self, targets: list[str],
                               record: InjectedFault) -> None:
        """Swap the service's image for one with a connection-code bug."""
        saved = {}
        for name in targets:
            ms = self.app.services.get(name)
            if ms is None:
                raise InvalidAction(f"unknown service {name!r}")
            saved[name] = ms.image
            buggy = ms.image.replace(":latest", "") + ":buggy-v2"
            ms.image = buggy
            dep = self.cluster.get_deployment(self.namespace, name)
            for c in dep.template.containers:
                c.image = buggy
            self.cluster.restamp_deployment(dep)
        record.saved_state["images"] = saved

    def recover_buggy_app_image(self, targets: list[str],
                                record: InjectedFault) -> None:
        saved = record.saved_state.get("images", {})
        for name in targets:
            ms = self.app.services.get(name)
            if ms is None:
                continue
            original = saved.get(name, ms.image.replace(":buggy-v2", ":latest"))
            ms.image = original
            dep = self.cluster.get_deployment(self.namespace, name)
            for c in dep.template.containers:
                c.image = original
            self.cluster.restamp_deployment(dep)
