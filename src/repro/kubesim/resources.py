"""First-principles resource plane: node capacity, demand, and contention.

This module makes co-tenancy *physical*.  Instead of noisy-neighbor
effects being scripted through injected faults, the plane models the
machines themselves:

1. **Demand** — every request a :class:`~repro.services.runtime.
   ServiceRuntime` executes is accounted here.  A service's CPU demand is
   ``offered rps × busy_mcores_per_rps`` (one request occupies a core for
   its ``base_latency_ms``, so 1 ms of busy time per request at 1 rps is
   1 millicore — see :attr:`~repro.services.model.Microservice.
   busy_mcores_per_rps`).
2. **Rollup** — :meth:`ResourcePlane.rollup` (a recurring event on the
   environment's queue, same 5 s cadence as telemetry scrapes) converts
   windowed request counts into per-service demand, spreads each service's
   demand evenly over its running pods, and sums per node:
   ``U(node) = Σ pod demand share / cpu_capacity``.
3. **Pressure curve** — an overcommitted node degrades *every* co-located
   pod.  The documented curve (:func:`pressure_multiplier`) leaves
   latency untouched up to 70 % utilization, then grows quadratically to
   a 13× multiplier at 130 % (where it saturates); past 90 % the node
   also sheds load (:func:`overload_probability`): hops into its pods
   fail with ``ResourceExhausted`` at up to 50 % probability.
4. **Quantization** — effective multipliers/shed probabilities are
   quantized to steps of :data:`QUANT_STEP` so they change rarely: small
   demand jitter between rollups leaves resolved call plans (and the
   profiles compiled from them) valid, a real regime change does not
   (:attr:`ResourcePlane.version`, bumped only when a rollup changes a
   quantized value, is a component of ``ServiceRuntime._profile_key``,
   the plan cache's key; ``repro.services.plan.resolve`` is the one
   reader of the values).

The plane is **opt-in**: environments run with
``resource_coupling=False`` by default, in which case no runtime is
attached to it, no rollup event is scheduled, and every request executes
exactly as it did before the plane existed (bit-identical RNG draws —
pinned by the kernel-equivalence suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.kubesim.cluster import Cluster
    from repro.services.runtime import ServiceRuntime
    from repro.simcore import SimClock

#: virtual seconds between rollups, the telemetry-scrape cadence
ROLLUP_INTERVAL = 5.0

#: quantization step for effective multipliers / shed probabilities —
#: coarse enough that demand jitter between rollups doesn't churn the
#: profile cache, fine enough that a regime change is visible
QUANT_STEP = 0.05

#: node utilization below which co-located pods are unaffected
PRESSURE_KNEE = 0.7
#: utilization at which the latency multiplier saturates
PRESSURE_CAP = 1.3
#: multiplier slope factor: m(U) = 1 + SLOPE * ((U - knee) / 0.3)^2
PRESSURE_SLOPE = 3.0
#: node utilization above which the node starts shedding load
OVERLOAD_KNEE = 0.9
#: maximum per-hop shed probability (reached at U >= 1.2)
OVERLOAD_MAX_P = 0.5


def quantize(value: float, step: float = QUANT_STEP) -> float:
    """Round ``value`` to the nearest multiple of ``step``."""
    return round(round(value / step) * step, 10)


def pressure_multiplier(utilization: float) -> float:
    """Latency multiplier applied to every pod on a node at ``utilization``.

    ``m(U) = 1`` for ``U <= 0.7``; above the knee it grows quadratically,
    ``m(U) = 1 + 3·((U − 0.7)/0.3)²``, reaching 4× at full utilization
    and saturating at 13× for ``U >= 1.3`` (run-queue pile-up: service
    time inflates roughly with the square of the overcommit, a standard
    M/M/1-flavored approximation).
    """
    if utilization <= PRESSURE_KNEE:
        return 1.0
    u = min(utilization, PRESSURE_CAP)
    x = (u - PRESSURE_KNEE) / 0.3
    return 1.0 + PRESSURE_SLOPE * x * x


def overload_probability(utilization: float) -> float:
    """Per-hop shed probability for pods on a node at ``utilization``.

    Zero through 90 % utilization, then linear —
    ``p(U) = 0.5·(U − 0.9)/0.3`` — capped at 0.5: a node 20 % past its
    capacity drops half the RPCs into its pods with ``ResourceExhausted``.
    """
    if utilization <= OVERLOAD_KNEE:
        return 0.0
    return min(OVERLOAD_MAX_P,
               OVERLOAD_MAX_P * (utilization - OVERLOAD_KNEE) / 0.3)


@dataclass(frozen=True)
class NodeSpec:
    """Declarative node shape for environment construction."""

    name: str
    cpu_capacity: float = 32000.0   # millicores
    mem_capacity: float = 65536.0   # MiB
    capacity_pods: int = 110
    labels: tuple[tuple[str, str], ...] = ()


@dataclass
class NodeUsage:
    """One node's rolled-up resource picture (last rollup)."""

    name: str
    cpu_capacity: float
    mem_capacity: float
    used_mcores: float = 0.0
    requested_mib: float = 0.0
    pods: int = 0

    @property
    def cpu_utilization(self) -> float:
        return self.used_mcores / self.cpu_capacity if self.cpu_capacity else 0.0

    @property
    def mem_utilization(self) -> float:
        return self.requested_mib / self.mem_capacity if self.mem_capacity else 0.0


class ResourcePlane:
    """Accounts request demand and rolls it up into node pressure.

    One plane per environment, shared by every hosted app's runtime.
    Runtimes push offered request counts via :meth:`account`;
    :meth:`rollup` (scheduled by the environment when coupling is on)
    turns the window into per-node utilization and publishes quantized
    per-service degradation parameters that the runtimes read back on
    every request (:meth:`multiplier_for` / :meth:`overload_p`).
    """

    def __init__(self, cluster: "Cluster", clock: "SimClock",
                 coupled: bool = True) -> None:
        self.cluster = cluster
        self.clock = clock
        #: when False the plane still accounts demand and rolls up node
        #: utilization (feeding the autoscaler and ``kubectl top nodes``)
        #: but never publishes degradation parameters — an HPA-only
        #: environment observes load without contention side effects
        self.coupled = coupled
        #: namespace -> runtime (registered at deploy time)
        self._runtimes: dict[str, "ServiceRuntime"] = {}
        #: (namespace, service) -> requests offered since the last rollup
        self._window: dict[tuple[str, str], int] = {}
        self._window_started: float = clock.now
        #: (namespace, service) -> CPU demand (mcores) at the last rollup
        self._demand: dict[tuple[str, str], float] = {}
        #: node name -> NodeUsage at the last rollup
        self._nodes: dict[str, NodeUsage] = {}
        #: (namespace, service) -> quantized latency multiplier (>= 1.0)
        self._multiplier: dict[tuple[str, str], float] = {}
        #: (namespace, service) -> quantized per-hop shed probability
        self._overload: dict[tuple[str, str], float] = {}
        #: bumped only when a rollup changes the effective (multiplier,
        #: overload) maps — the plan-key component (quantization keeps
        #: this quiet across steady-state rollups)
        self.version = 0
        #: total rollups run (observability / benchmarks)
        self.rollups = 0

    # -- wiring ------------------------------------------------------------
    def register_runtime(self, runtime: "ServiceRuntime") -> None:
        self._runtimes[runtime.namespace] = runtime

    # -- accounting (hot path: one dict bump per service record) ----------
    def account(self, namespace: str, service: str, count: int = 1) -> None:
        key = (namespace, service)
        self._window[key] = self._window.get(key, 0) + count

    # -- reads used by runtimes / profiles --------------------------------
    def multiplier_for(self, namespace: str, service: str) -> float:
        return self._multiplier.get((namespace, service), 1.0)

    def overload_p(self, namespace: str, service: str) -> float:
        return self._overload.get((namespace, service), 0.0)

    def utilization_of(self, namespace: str, service: str,
                       replicas: int) -> float:
        """Per-replica CPU utilization as a fraction of the pod's request
        (the HPA's input metric): ``demand / (replicas × cpu_request)``."""
        if replicas <= 0:
            return 0.0
        demand = self._demand.get((namespace, service), 0.0)
        if demand <= 0.0:
            return 0.0
        dep = self.cluster.deployments.get((namespace, service))
        if dep is None:
            return 0.0
        request = sum(c.cpu_request for c in dep.template.containers)
        if request <= 0.0:
            return 0.0
        return demand / (replicas * request)

    def node_usage(self) -> list[NodeUsage]:
        """Per-node usage rows from the last rollup, name-sorted; nodes
        added since then show requests-only zeros."""
        out = []
        for name in sorted(self.cluster.nodes):
            node = self.cluster.nodes[name]
            usage = self._nodes.get(name) or NodeUsage(
                name, node.cpu_capacity, node.mem_capacity)
            out.append(usage)
        return out

    # -- the rollup --------------------------------------------------------
    def _service_pods(self) -> dict[tuple[str, str], list]:
        """(namespace, owner service) -> running pods, across all pods."""
        placed: dict[tuple[str, str], list] = {}
        for pod in self.cluster.pods.values():
            if pod.bound_node is None or not pod.ready or pod.crash_looping:
                continue
            owner = pod.owner or pod.name
            placed.setdefault((pod.namespace, owner), []).append(pod)
        return placed

    def rollup(self) -> None:
        """One utilization rollup: window counts → demand → node pressure
        → quantized per-service degradation parameters.

        Deterministic and RNG-free; iteration orders are sorted so results
        are independent of dict insertion order.
        """
        now = self.clock.now
        window = max(now - self._window_started, 1e-9)
        self.rollups += 1

        # 1. per-service CPU demand from the offered rps
        demand: dict[tuple[str, str], float] = {}
        for key in sorted(self._window):
            ns, svc_name = key
            rt = self._runtimes.get(ns)
            svc = rt.services.get(svc_name) if rt is not None else None
            if svc is None:
                continue
            demand[key] = self._window[key] / window * svc.busy_mcores_per_rps
        self._demand = demand
        self._window = {}
        self._window_started = now

        # 2. spread demand over running pods, sum per node
        placed = self._service_pods()
        nodes: dict[str, NodeUsage] = {
            name: NodeUsage(name, node.cpu_capacity, node.mem_capacity)
            for name, node in self.cluster.nodes.items()
        }
        service_nodes: dict[tuple[str, str], set[str]] = {}
        for key, pods in placed.items():
            hosts = service_nodes.setdefault(key, set())
            share = demand.get(key, 0.0) / len(pods)
            for pod in pods:
                usage = nodes.get(pod.bound_node)
                if usage is None:
                    continue
                usage.used_mcores += share
                usage.requested_mib += pod.mem_request()
                usage.pods += 1
                hosts.add(pod.bound_node)
        self._nodes = nodes

        # 3. per-service effective degradation: worst hosting node governs
        # (skipped entirely when uncoupled — utilization is observed, not
        # felt)
        multiplier: dict[tuple[str, str], float] = {}
        overload: dict[tuple[str, str], float] = {}
        if self.coupled:
            node_mult = {
                name: quantize(pressure_multiplier(u.cpu_utilization))
                for name, u in nodes.items()
            }
            node_shed = {
                name: quantize(overload_probability(u.cpu_utilization))
                for name, u in nodes.items()
            }
            for key in sorted(service_nodes):
                hosts = service_nodes[key]
                if not hosts:
                    continue
                m = max(node_mult[h] for h in hosts)
                p = max(node_shed[h] for h in hosts)
                if m > 1.0:
                    multiplier[key] = m
                if p > 0.0:
                    overload[key] = p

        # 4. bump the version only on effective change
        if multiplier != self._multiplier or overload != self._overload:
            self.version += 1
        self._multiplier = multiplier
        self._overload = overload

    # -- kubectl adapters --------------------------------------------------
    def kubectl_node_metrics_source(self):
        """Rows for ``kubectl top nodes`` / ``get nodes`` utilization
        columns: (name, used mcores, cpu %, requested MiB, mem %, pods).
        A bound method (not a closure) so the callback pickles for
        environment snapshots."""
        return self._node_metrics_rows

    def _node_metrics_rows(self) -> list[tuple[float, ...]]:
        return [
            (u.name, u.used_mcores, 100.0 * u.cpu_utilization,
             u.requested_mib, 100.0 * u.mem_utilization, u.pods)
            for u in self.node_usage()
        ]
