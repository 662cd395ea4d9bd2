"""Pod scheduler: binds pending pods to nodes (or leaves them Pending).

Scheduling is **resource-aware**: each node advertises ``cpu_capacity``
(millicores) / ``mem_capacity`` (MiB) and every bound pod's container
requests count against them, so placement bin-packs on *requested*
resources rather than pod count.  Best-effort pods (zero requests)
always fit.

Placement is one scan per pod: the least-requested feasible node by
``(requested cpu, requested mem, bound pods, name)``.  Clusters hold a
handful of nodes (one in every benchmark workload), so an index over
them would save nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kubesim.objects import Node, Pod, PodPhase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kubesim.cluster import Cluster


class Scheduler:
    """Binds pods to nodes, reproducing the failure modes agents must read.

    * ``spec.nodeName`` pointing at a node that does not exist leaves the
      pod **Pending** with a ``FailedScheduling`` warning event — the
      signature of the *AssignNonExistentNode* fault.  A nodeName that
      *does* exist binds unconditionally (real kubelets admit static
      placements without the scheduler's capacity filter).
    * A ``nodeSelector`` no node satisfies also leaves the pod Pending.
    * A pod whose resource requests fit no remaining node capacity stays
      Pending with an ``Insufficient cpu`` / ``Insufficient memory``
      warning — the capacity-exhaustion signature.
    * Otherwise the pod binds to the least-requested feasible node
      (by requested cpu, then requested memory, then name) and runs.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    def _node_load(self) -> dict[str, list[float]]:
        """Per-node ``[requested_mcores, requested_mib, bound_pods]``."""
        load: dict[str, list[float]] = {
            name: [0.0, 0.0, 0] for name in self.cluster.nodes}
        for pod in self.cluster.pods.values():
            entry = load.get(pod.bound_node or "")
            if entry is not None:
                entry[0] += pod.cpu_request()
                entry[1] += pod.mem_request()
                entry[2] += 1
        return load

    @staticmethod
    def _fits(node: Node, used: list[float], pod: Pod) -> bool:
        return (used[0] + pod.cpu_request() <= node.cpu_capacity
                and used[1] + pod.mem_request() <= node.mem_capacity
                and used[2] + 1 <= node.capacity_pods)

    def _pick_node(self, pod: Pod, load: dict[str, list[float]],
                   ) -> tuple[str | None, str]:
        """``(node name, "")`` or ``(None, failure message)``.

        One scan over the ready nodes matching the pod's selector: the
        least-loaded one the pod fits on, or the kube-scheduler phrasing
        of why none does.
        """
        matching = [
            n for n in self.cluster.nodes.values()
            if n.ready and all(n.labels.get(k) == v
                               for k, v in pod.node_selector.items())
        ]
        feasible = [(*load[n.name], n.name) for n in matching
                    if self._fits(n, load[n.name], pod)]
        if feasible:
            return min(feasible)[3], ""
        total = len(self.cluster.nodes)
        if not matching:
            return None, (f"0/{total} nodes are available: "
                          f"node selector mismatch.")
        short_cpu = any(
            load[n.name][0] + pod.cpu_request() > n.cpu_capacity
            for n in matching)
        reason = ("Insufficient cpu." if short_cpu
                  else "Insufficient memory.")
        return None, (f"0/{total} nodes are available: "
                      f"{len(matching)} {reason}")

    def reconcile(self) -> bool:
        changed = False
        # deterministic scheduling order regardless of dict insertion /
        # iteration order: creation time, then the monotonically-assigned
        # zero-padded uid breaks same-instant ties
        pending = sorted(
            (p for p in self.cluster.pods.values()
             if p.phase is PodPhase.PENDING and not p.bound_node),
            key=lambda p: (p.meta.creation_time, p.meta.uid, p.name))
        load = self._node_load() if pending else {}
        for pod in pending:
            if pod.node_name is not None:
                if pod.node_name in self.cluster.nodes:
                    target = pod.node_name
                else:
                    if pod.status_reason != "FailedScheduling":
                        pod.status_reason = "FailedScheduling"
                        self.cluster.record_event(
                            pod.namespace, "Pod", pod.name, "FailedScheduling",
                            f'0/{len(self.cluster.nodes)} nodes are available: '
                            f'node "{pod.node_name}" not found.',
                            event_type="Warning",
                        )
                        changed = True
                    continue
            else:
                target, message = self._pick_node(pod, load)
                if target is None:
                    if pod.status_reason != "FailedScheduling":
                        pod.status_reason = "FailedScheduling"
                        self.cluster.record_event(
                            pod.namespace, "Pod", pod.name, "FailedScheduling",
                            message, event_type="Warning",
                        )
                        changed = True
                    continue

            pod.bound_node = target
            pod.phase = PodPhase.RUNNING
            pod.ready = True
            pod.status_reason = ""
            used = load[target]
            used[0] += pod.cpu_request()
            used[1] += pod.mem_request()
            used[2] += 1
            self.cluster.record_event(
                pod.namespace, "Pod", pod.name, "Scheduled",
                f"Successfully assigned {pod.namespace}/{pod.name} to {target}",
            )
            self.cluster.record_event(
                pod.namespace, "Pod", pod.name, "Started",
                f"Started container {pod.containers[0].name if pod.containers else pod.name}",
            )
            changed = True
        return changed
