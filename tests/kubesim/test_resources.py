"""The resource plane: capacity-aware scheduling, demand rollup, and the
pressure/overload curves — plus property tests for scheduling determinism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kubesim import Cluster, NodeSpec, ResourcePlane
from repro.kubesim.objects import (
    Container, ContainerPort, Deployment, ObjectMeta, PodTemplate,
)
from repro.kubesim.resources import (
    QUANT_STEP,
    overload_probability,
    pressure_multiplier,
    quantize,
)
from repro.simcore import SimClock


def sized_deployment(name, cpu, mem=128.0, replicas=1, ns="default"):
    return Deployment(
        meta=ObjectMeta(name=name, namespace=ns),
        replicas=replicas,
        selector={"app": name},
        template=PodTemplate(
            labels={"app": name},
            containers=[Container(name, "img:latest", [ContainerPort(8080)],
                                  cpu_request=cpu, mem_request=mem)],
        ),
    )


class TestCurves:
    def test_pressure_flat_below_knee(self):
        for u in (0.0, 0.3, 0.69, 0.7):
            assert pressure_multiplier(u) == 1.0

    def test_pressure_quadratic_above_knee(self):
        assert pressure_multiplier(1.0) == pytest.approx(4.0)
        assert pressure_multiplier(0.85) == pytest.approx(1.75)

    def test_pressure_saturates(self):
        assert pressure_multiplier(1.3) == pytest.approx(13.0)
        assert pressure_multiplier(5.0) == pytest.approx(13.0)

    def test_overload_zero_below_knee(self):
        for u in (0.0, 0.5, 0.9):
            assert overload_probability(u) == 0.0

    def test_overload_linear_then_capped(self):
        assert overload_probability(1.05) == pytest.approx(0.25)
        assert overload_probability(1.2) == pytest.approx(0.5)
        assert overload_probability(2.0) == pytest.approx(0.5)

    def test_quantize(self):
        assert quantize(1.0) == 1.0
        assert quantize(1.02) == 1.0
        assert quantize(1.03) == 1.05
        assert quantize(0.49) == 0.5
        assert abs(quantize(3.14159) - 3.15) < 1e-9

    def test_quantize_keeps_small_jitter_invisible(self):
        """Two utilizations within half a step quantize identically —
        the property that keeps profile fingerprints quiet at steady
        state."""
        a = quantize(pressure_multiplier(0.800))
        b = quantize(pressure_multiplier(0.801))
        assert a == b
        assert round(a / QUANT_STEP) * QUANT_STEP == pytest.approx(a)


class TestCapacityScheduling:
    def test_node_specs_shape_the_pool(self):
        cluster = Cluster(clock=SimClock(), node_specs=[
            NodeSpec("big", cpu_capacity=16000.0),
            NodeSpec("small", cpu_capacity=500.0, mem_capacity=1024.0),
        ])
        assert set(cluster.nodes) == {"big", "small"}
        assert cluster.nodes["small"].cpu_capacity == 500.0
        assert cluster.nodes["small"].mem_capacity == 1024.0

    def test_pods_pack_within_requests(self):
        cluster = Cluster(clock=SimClock(), node_specs=[
            NodeSpec("node-0", cpu_capacity=1000.0),
        ])
        cluster.create_deployment(sized_deployment("web", cpu=400.0,
                                                   replicas=2))
        bound = [p for p in cluster.pods_in("default") if p.bound_node]
        assert len(bound) == 2

    def test_insufficient_cpu_leaves_pod_pending(self):
        cluster = Cluster(clock=SimClock(), node_specs=[
            NodeSpec("node-0", cpu_capacity=1000.0),
        ])
        cluster.create_deployment(sized_deployment("web", cpu=400.0,
                                                   replicas=3))
        pods = cluster.pods_in("default")
        pending = [p for p in pods if p.bound_node is None]
        assert len(pending) == 1
        msgs = [e.message for e in cluster.events
                if e.reason == "FailedScheduling"]
        assert any("Insufficient cpu" in m for m in msgs)

    def test_insufficient_memory_reported_distinctly(self):
        cluster = Cluster(clock=SimClock(), node_specs=[
            NodeSpec("node-0", cpu_capacity=32000.0, mem_capacity=256.0),
        ])
        cluster.create_deployment(sized_deployment("web", cpu=100.0,
                                                   mem=200.0, replicas=2))
        msgs = [e.message for e in cluster.events
                if e.reason == "FailedScheduling"]
        assert any("Insufficient memory" in m for m in msgs)

    def test_pending_pod_schedules_once_capacity_appears(self):
        cluster = Cluster(clock=SimClock(), node_specs=[
            NodeSpec("node-0", cpu_capacity=500.0),
        ])
        cluster.create_deployment(sized_deployment("web", cpu=400.0,
                                                   replicas=2))
        assert any(p.bound_node is None for p in cluster.pods_in("default"))
        cluster.add_node("node-1", cpu_capacity=500.0)
        cluster.reconcile()
        assert all(p.bound_node for p in cluster.pods_in("default"))

    def test_requests_spread_over_least_loaded_node(self):
        cluster = Cluster(clock=SimClock(), node_specs=[
            NodeSpec("a", cpu_capacity=1000.0),
            NodeSpec("b", cpu_capacity=1000.0),
        ])
        cluster.create_deployment(sized_deployment("web", cpu=300.0,
                                                   replicas=2))
        nodes = sorted(p.bound_node for p in cluster.pods_in("default"))
        assert nodes == ["a", "b"]


# an operation is (kind, deployment_index, amount)
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["scale", "delete_pod", "reconcile", "add_node"]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=4),
    ),
    max_size=12,
)

#: per-deployment (cpu request, replicas) shapes for the determinism test
shapes_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),   # cpu request × 100 mcores
        st.integers(min_value=1, max_value=4),
    ),
    min_size=1, max_size=5,
)


def build_sized_cluster(shapes):
    cluster = Cluster(clock=SimClock(), seed=1, node_specs=[
        NodeSpec("n0", cpu_capacity=1200.0),
        NodeSpec("n1", cpu_capacity=1200.0),
    ])
    for i, (cpu, replicas) in enumerate(shapes):
        cluster.create_deployment(sized_deployment(
            f"svc{i}", cpu=100.0 * cpu, replicas=replicas))
    return cluster


def apply_op(cluster, op):
    kind, idx, amount = op
    name = f"svc{idx}"
    if kind == "scale":
        if ("default", name) in cluster.deployments:
            cluster.scale_deployment("default", name, amount)
    elif kind == "delete_pod":
        pods = [p for p in cluster.pods_in("default") if p.owner == name]
        if pods:
            cluster.delete_pod("default", pods[0].name)
    elif kind == "reconcile":
        cluster.reconcile()
    elif kind == "add_node":
        node = f"extra-{amount}"
        if node not in cluster.nodes:
            cluster.add_node(node, cpu_capacity=1200.0)


class TestSchedulingDeterminism:
    @given(shapes=shapes_strategy, ops=ops_strategy)
    @settings(max_examples=30, deadline=None)
    def test_same_history_same_placement(self, shapes, ops):
        """Two clusters fed the identical operation sequence bind every
        pod to the identical node — scheduling never depends on dict
        iteration order or hidden global state."""
        a, b = build_sized_cluster(shapes), build_sized_cluster(shapes)
        for op in ops:
            apply_op(a, op)
            apply_op(b, op)
        a.reconcile()
        b.reconcile()
        pa = {p.name: p.bound_node for p in a.pods_in("default")}
        pb = {p.name: p.bound_node for p in b.pods_in("default")}
        assert pa == pb

    @given(shapes=shapes_strategy, ops=ops_strategy)
    @settings(max_examples=30, deadline=None)
    def test_bound_requests_never_exceed_capacity(self, shapes, ops):
        """Whatever the history, the scheduler never overcommits a node's
        CPU or memory *requests* (usage may exceed; requests may not)."""
        cluster = build_sized_cluster(shapes)
        for op in ops:
            apply_op(cluster, op)
        cluster.reconcile()
        for node in cluster.nodes.values():
            cpu = sum(p.cpu_request() for p in cluster.pods.values()
                      if p.bound_node == node.name)
            mem = sum(p.mem_request() for p in cluster.pods.values()
                      if p.bound_node == node.name)
            assert cpu <= node.cpu_capacity
            assert mem <= node.mem_capacity


#: per-node (cpu × 100 mcores, mem × 256 MiB, pod capacity, zone, ready)
node_shapes_strategy = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12),
              st.integers(min_value=1, max_value=8),
              st.sampled_from([2, 3, 110]),
              st.sampled_from(["a", "b"]),
              st.sampled_from([True, True, False])),
    min_size=1, max_size=3,
)

#: per-deployment ((cpu × 100 mcores, mem × 64 MiB), replicas, zone
#: selector); best-effort pods tie on requests, so bound-pod counts and
#: names decide
selector_shapes_strategy = st.lists(
    st.tuples(st.one_of(st.just((0, 0)),
                        st.tuples(st.integers(min_value=0, max_value=6),
                                  st.integers(min_value=0, max_value=8))),
              st.integers(min_value=1, max_value=4),
              st.sampled_from([None, "a", "b"])),
    min_size=1, max_size=5,
)


def _brute_force_binding(cluster, pod):
    """The least-loaded ready node matching ``pod``'s selector with room
    for it, by (requested cpu, requested mem, bound pods, name), given
    every other bound pod — or the FailedScheduling message."""
    load = {name: [0.0, 0.0, 0] for name in cluster.nodes}
    for other in cluster.pods.values():
        if other is not pod and other.bound_node in load:
            used = load[other.bound_node]
            used[0] += other.cpu_request()
            used[1] += other.mem_request()
            used[2] += 1
    matching = [n for n in cluster.nodes.values() if n.ready and all(
        n.labels.get(k) == v for k, v in pod.node_selector.items())]
    feasible = [
        (*load[n.name], n.name) for n in matching
        if load[n.name][0] + pod.cpu_request() <= n.cpu_capacity
        and load[n.name][1] + pod.mem_request() <= n.mem_capacity
        and load[n.name][2] + 1 <= n.capacity_pods]
    if feasible:
        return min(feasible)[3], ""
    total = len(cluster.nodes)
    if not matching:
        return None, f"0/{total} nodes are available: node selector mismatch."
    short_cpu = any(load[n.name][0] + pod.cpu_request() > n.cpu_capacity
                    for n in matching)
    reason = "Insufficient cpu." if short_cpu else "Insufficient memory."
    return None, f"0/{total} nodes are available: {len(matching)} {reason}"


class TestLeastLoadedBinding:
    @given(nodes=node_shapes_strategy, shapes=selector_shapes_strategy,
           ops=ops_strategy)
    @settings(max_examples=100, deadline=None)
    def test_every_binding_is_the_brute_force_choice(self, nodes, shapes,
                                                     ops):
        """Every pod the scheduler places lands on the node a full scan
        picks, and every pod it cannot place gets the scan's message.
        Requests are whole multiples of 100 mcores / 64 MiB, so load sums
        are exact in any order."""
        cluster = Cluster(clock=SimClock(), seed=1, node_specs=[
            NodeSpec(f"n{i}", cpu_capacity=100.0 * cpu,
                     mem_capacity=256.0 * mem, capacity_pods=pods,
                     labels=(("zone", zone),))
            for i, (cpu, mem, pods, zone, _) in enumerate(nodes)])
        for i, (*_, ready) in enumerate(nodes):
            cluster.nodes[f"n{i}"].ready = ready
        checked = []
        record_event = cluster.record_event

        def spy(namespace, kind, name, reason, message, **kwargs):
            pod = cluster.pods.get((namespace, name))
            if kind == "Pod" and pod is not None and pod.node_name is None:
                if reason == "Scheduled":
                    assert _brute_force_binding(cluster, pod) == \
                        (pod.bound_node, "")
                    checked.append(reason)
                elif reason == "FailedScheduling":
                    assert _brute_force_binding(cluster, pod) == \
                        (None, message)
                    checked.append(reason)
            return record_event(namespace, kind, name, reason, message,
                                **kwargs)

        cluster.record_event = spy
        for i, ((cpu, mem), replicas, zone) in enumerate(shapes):
            dep = sized_deployment(f"svc{i}", cpu=100.0 * cpu,
                                   mem=64.0 * mem, replicas=replicas)
            if zone is not None:
                dep.template.node_selector = {"zone": zone}
            cluster.create_deployment(dep)
        for op in ops:
            apply_op(cluster, op)
        cluster.reconcile()
        assert checked or not cluster.pods


class _StubService:
    def __init__(self, busy):
        self.busy_mcores_per_rps = busy


class _StubRuntime:
    def __init__(self, namespace, services):
        self.namespace = namespace
        self.services = services


class TestRollup:
    def make_plane(self, coupled=True, capacity=1000.0):
        clock = SimClock()
        cluster = Cluster(clock=clock, node_specs=[
            NodeSpec("node-0", cpu_capacity=capacity),
        ])
        cluster.create_deployment(sized_deployment("web", cpu=100.0))
        plane = ResourcePlane(cluster, clock, coupled=coupled)
        plane.register_runtime(_StubRuntime(
            "default", {"web": _StubService(busy=2.0)}))
        return clock, cluster, plane

    def test_demand_is_rps_times_busy_time(self):
        clock, cluster, plane = self.make_plane()
        for _ in range(500):          # 500 requests over 5 s = 100 rps
            plane.account("default", "web")
        clock.advance(5.0)
        plane.rollup()
        # 100 rps × 2 mcores/rps = 200 mcores on a 1000-mcore node
        usage, = plane.node_usage()
        assert usage.used_mcores == pytest.approx(200.0)
        assert usage.cpu_utilization == pytest.approx(0.2)

    def test_pressure_published_only_when_coupled(self):
        for coupled in (True, False):
            clock, cluster, plane = self.make_plane(coupled=coupled,
                                                    capacity=1000.0)
            for _ in range(2500):     # 500 rps × 2 = 1000 mcores → U = 1.0
                plane.account("default", "web")
            clock.advance(5.0)
            plane.rollup()
            usage, = plane.node_usage()
            assert usage.cpu_utilization == pytest.approx(1.0)
            if coupled:
                assert plane.multiplier_for("default", "web") == \
                    pytest.approx(4.0)
                assert plane.overload_p("default", "web") > 0.0
            else:
                assert plane.multiplier_for("default", "web") == 1.0
                assert plane.overload_p("default", "web") == 0.0

    def test_version_bumps_only_on_regime_change(self):
        clock, cluster, plane = self.make_plane()
        assert plane.version == 0
        # quiet rollups: no demand, no bump
        clock.advance(5.0)
        plane.rollup()
        assert plane.version == 0
        # overload regime: bump
        for _ in range(2500):
            plane.account("default", "web")
        clock.advance(5.0)
        plane.rollup()
        v = plane.version
        assert v == 1
        # same regime next window: no churn
        for _ in range(2500):
            plane.account("default", "web")
        clock.advance(5.0)
        plane.rollup()
        assert plane.version == v
        # back to idle: bump again
        clock.advance(5.0)
        plane.rollup()
        assert plane.version == v + 1

    def test_rollup_is_rng_free(self):
        """The plane draws no randomness — rolling up must not advance
        the cluster's RNG stream."""
        clock, cluster, plane = self.make_plane()
        before = cluster.rng.uniform(0.0, 1.0)
        clock2 = SimClock()
        cluster2 = Cluster(clock=clock2, node_specs=[
            NodeSpec("node-0", cpu_capacity=1000.0),
        ])
        cluster2.create_deployment(sized_deployment("web", cpu=100.0))
        plane2 = ResourcePlane(cluster2, clock2)
        plane2.register_runtime(_StubRuntime(
            "default", {"web": _StubService(busy=2.0)}))
        for _ in range(100):
            plane2.account("default", "web")
            clock2.advance(1.0)
            plane2.rollup()
        after = cluster2.rng.uniform(0.0, 1.0)
        assert before == after

    def test_utilization_of_divides_by_replicas_and_request(self):
        clock, cluster, plane = self.make_plane()
        for _ in range(250):          # 50 rps × 2 = 100 mcores demand
            plane.account("default", "web")
        clock.advance(5.0)
        plane.rollup()
        # one replica × 100 m request → 100 % of request
        assert plane.utilization_of("default", "web", 1) == pytest.approx(1.0)
        assert plane.utilization_of("default", "web", 2) == pytest.approx(0.5)
        assert plane.utilization_of("default", "web", 0) == 0.0

    def test_node_metrics_source_rows(self):
        clock, cluster, plane = self.make_plane()
        for _ in range(500):
            plane.account("default", "web")
        clock.advance(5.0)
        plane.rollup()
        rows = plane.kubectl_node_metrics_source()()
        (name, used, cpu_pct, mib, mem_pct, pods), = rows
        assert name == "node-0"
        assert used == pytest.approx(200.0)
        assert cpu_pct == pytest.approx(20.0)
        assert pods == 1
