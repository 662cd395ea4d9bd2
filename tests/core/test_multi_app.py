"""Multi-app CloudEnvironment: N apps, one kernel, cross-app behavior.

The single-app constructor must stay a bit-identical thin wrapper over a
one-element spec list (the kernel-equivalence suite pins it against the
reference tick loop; here we pin the wrapper against the list form), and
the multi-app form must give each app its own namespace-scoped telemetry,
workload driver and fault surface on the shared clock/queue/collector.
"""

import numpy as np
import pytest

from repro.apps import HotelReservation, SocialNetwork
from repro.core import AppSpec, CloudEnvironment, system_healthy
from repro.faults import FaultSchedule, MetricAbove
from repro.workload import BurstRate, ConstantRate

HOTEL_NS = HotelReservation.namespace
SOCIAL_NS = SocialNetwork.namespace


def two_app_env(seed=7, hotel_rate=60.0, social_policy=None, **kwargs):
    return CloudEnvironment([
        AppSpec(HotelReservation, workload_rate=hotel_rate),
        AppSpec(SocialNetwork,
                policy=social_policy or ConstantRate(40.0)),
    ], seed=seed, **kwargs)


class TestSingleAppWrapper:
    """CloudEnvironment(AppCls, ...) ≡ CloudEnvironment([AppSpec(...)])."""

    def test_wrapper_is_bit_identical_to_spec_list(self):
        a = CloudEnvironment(HotelReservation, seed=3, workload_rate=45)
        b = CloudEnvironment([AppSpec(HotelReservation, workload_rate=45)],
                             seed=3)
        for w in [30.0, 3.7, 12.3, 0.4]:
            a.advance(w)
            b.advance(w)
        sa, sb = a.driver.stats, b.driver.stats
        assert (sa.requests, sa.errors, sa.latency_sum_ms) == \
            (sb.requests, sb.errors, sb.latency_sum_ms)
        ta = a.collector.metrics.series("geo", "cpu_usage").window()
        tb = b.collector.metrics.series("geo", "cpu_usage").window()
        assert np.array_equal(ta[0], tb[0])
        assert np.array_equal(ta[1], tb[1])
        a.close(), b.close()

    def test_single_app_aliases(self):
        env = CloudEnvironment(HotelReservation, seed=1)
        assert env.apps == [env.app]
        assert env.drivers == [env.driver]
        assert env.namespaces == [env.namespace] == [HOTEL_NS]
        assert env.app_for(HOTEL_NS) is env.app
        assert env.driver_for(HOTEL_NS) is env.driver
        env.close()

    def test_empty_and_duplicate_specs_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            CloudEnvironment([])
        with pytest.raises(ValueError, match="distinct namespaces"):
            CloudEnvironment([AppSpec(HotelReservation),
                              AppSpec(HotelReservation)])
        # the driver settings belong on each AppSpec: none is ignored,
        # not even one equal to AppSpec's default rate
        spec = [AppSpec(HotelReservation, workload_rate=1000.0)]
        for driver_kwargs in ({"workload_rate": 60.0},
                              {"workload_rate": 61.0},
                              {"policy": ConstantRate(10.0)}):
            with pytest.raises(ValueError, match="single-app form"):
                CloudEnvironment(spec, **driver_kwargs)


class TestTwoAppKernel:
    def test_both_apps_deploy_and_serve(self):
        env = two_app_env()
        env.advance(30.0)
        hotel = env.driver_for(HOTEL_NS)
        social = env.driver_for(SOCIAL_NS)
        assert hotel.stats.requests == pytest.approx(60 * 30, abs=60)
        assert social.stats.requests == pytest.approx(40 * 30, abs=40)
        assert hotel.stats.errors == 0 and social.stats.errors == 0
        assert env.clock.now == 30.0
        env.close()

    def test_one_clock_one_queue(self):
        env = two_app_env()
        assert env.driver_for(HOTEL_NS).queue is env.queue
        assert env.driver_for(SOCIAL_NS).queue is env.queue
        assert env.driver_for(SOCIAL_NS).runtime.clock is env.clock
        env.close()

    def test_drivers_draw_independent_streams(self):
        """Same seed, different namespaces → different arrival choices
        (the second driver's RNG stream is namespace-qualified)."""
        env = two_app_env(hotel_rate=40.0,
                          social_policy=ConstantRate(40.0))
        env.advance(20.0)
        hotel_ops = env.driver_for(HOTEL_NS).stats.per_operation
        social_ops = env.driver_for(SOCIAL_NS).stats.per_operation
        assert set(hotel_ops) != set(social_ops)  # different apps' mixes
        env.close()

    def test_metric_keys_qualified_for_secondary_namespace(self):
        env = two_app_env()
        env.advance(10.0)
        m = env.collector.metrics
        # primary app keeps bare names (single-app-compatible)
        assert m.series("frontend", "request_rate") is not None
        # secondary app's series are namespace-qualified
        assert m.series(f"{SOCIAL_NS}/nginx-web-server",
                        "request_rate") is not None
        assert m.series("nginx-web-server", "request_rate") is None
        # the shared service name can never collide
        assert m.series("jaeger", "cpu_usage") is not None
        assert m.series(f"{SOCIAL_NS}/jaeger", "cpu_usage") is not None
        env.close()

    def test_request_rates_are_scoped_per_namespace(self):
        """Scrape windows must not bleed across namespaces even though
        both apps scrape at the same timestamps."""
        env = two_app_env(hotel_rate=60.0,
                          social_policy=ConstantRate(40.0))
        env.advance(20.0)
        m = env.collector.metrics
        hotel_rate = m.series("frontend", "request_rate").values[-1]
        social_rate = m.series(f"{SOCIAL_NS}/nginx-web-server",
                               "request_rate").values[-1]
        assert hotel_rate == pytest.approx(60.0, rel=0.1)
        assert social_rate == pytest.approx(40.0, rel=0.1)
        env.close()

    def test_probe_error_rate_scoping(self):
        env = two_app_env()
        env.app_for(HOTEL_NS).backends["mongodb-geo"].revoke_roles("admin")
        assert env.probe_error_rate(10.0, namespace=SOCIAL_NS) == 0.0
        assert env.probe_error_rate(10.0, namespace=HOTEL_NS) > 0.0
        aggregate = env.probe_error_rate(10.0)
        per_app = env.probe_error_rate(10.0, namespace=HOTEL_NS)
        assert 0.0 < aggregate < per_app  # diluted by the healthy app
        env.close()

    def test_exec_dispatch_routes_by_namespace(self):
        env = two_app_env()
        pod = next(p.name for p in env.cluster.pods_in(SOCIAL_NS)
                   if p.owner == "user-mongodb")
        out = env.kubectl.run(
            f"kubectl exec {pod} -n {SOCIAL_NS} -- mongosh --eval "
            f"'db.getUsers()'")
        assert "admin" in out
        env.close()

    def test_kubectl_get_pods_all_namespaces_spans_apps(self):
        env = two_app_env()
        out = env.kubectl.run("kubectl get pods -A")
        assert "frontend" in out and "nginx-web-server" in out
        env.close()


class TestCrossAppTriggers:
    def test_watch_on_app_a_fires_fault_into_app_b(self):
        """The headline multi-app capability: a MetricAbove on the social
        network's telemetry injects a fault into the hotel app."""
        env = two_app_env(social_policy=BurstRate(
            base=40.0, burst_factor=5.0, interval=60.0, burst_duration=20.0))
        armed = (FaultSchedule()
                 .when(MetricAbove("nginx-web-server", "request_rate", 150.0,
                                   namespace=SOCIAL_NS),
                       "NetworkLoss", ("search",), namespace=HOTEL_NS)
                 ).arm(env)
        env.advance(30.0)
        assert len(armed.log) == 1
        t, desc = armed.log[0]
        assert t == 5.0  # first scrape inside the [0, 20) burst
        assert "@" + HOTEL_NS in desc
        before = env.driver_for(HOTEL_NS).stats.errors
        env.advance(10.0)
        assert env.driver_for(HOTEL_NS).stats.errors > before
        assert env.driver_for(SOCIAL_NS).stats.errors == 0
        env.close()

    def test_ambiguous_service_requires_namespace(self):
        env = two_app_env()
        sched = FaultSchedule().when(
            MetricAbove("jaeger", "cpu_usage", 1.0),
            "NetworkLoss", ("search",), namespace=HOTEL_NS)
        with pytest.raises(ValueError, match="several hosted apps"):
            sched.arm(env)
        env.close()

    def test_unknown_trigger_namespace_rejected(self):
        env = two_app_env()
        sched = FaultSchedule().when(
            MetricAbove("frontend", "error_rate", 1.0, namespace="nope"),
            "NetworkLoss", ("search",))
        with pytest.raises(KeyError, match="no app in namespace"):
            sched.arm(env)
        env.close()

    def test_set_rate_targets_one_namespace(self):
        env = two_app_env()
        armed = (FaultSchedule()
                 .set_rate(5.0, ConstantRate(0.0), namespace=SOCIAL_NS)
                 ).arm(env)
        env.advance(20.0)
        social = env.driver_for(SOCIAL_NS).stats.requests
        env.advance(10.0)
        assert env.driver_for(SOCIAL_NS).stats.requests == social
        assert env.driver_for(HOTEL_NS).stats.requests == \
            pytest.approx(60 * 30, abs=60)
        assert armed.log
        env.close()

    def test_recover_all_undoes_per_namespace_injections(self):
        env = two_app_env()
        armed = (FaultSchedule()
                 .inject(1.0, "RevokeAuth", ("mongodb-geo",),
                         namespace=HOTEL_NS)
                 .inject(1.0, "TargetPortMisconfig", ("user-service",),
                         namespace=SOCIAL_NS)
                 ).arm(env)
        env.advance(10.0)
        assert len(armed.log) == 2
        armed.recover_all()
        assert env.probe_error_rate(10.0) == 0.0
        env.close()


class TestMultiAppHealth:
    def test_system_healthy_spans_namespaces(self):
        env = two_app_env()
        env.advance(10.0)
        healthy, _ = system_healthy(env, probe_seconds=5.0)
        assert healthy
        env.cluster.scale_deployment(SOCIAL_NS, "compose-post-service", 0)
        healthy, reason = system_healthy(env, probe_seconds=5.0)
        assert not healthy and "compose-post-service" in reason
        env.close()


class TestPerAppProfileCache:
    """execute_many plans are keyed on cluster-wide counters: a co-hosted
    app's mutation re-resolves this app's plans, which costs one resolve
    and no compile (an equal plan is served its shared profile), while a
    mutation in this app's namespace recompiles."""

    def test_neighbor_secret_crud_reresolves_an_equal_plan(self):
        from repro.kubesim.objects import ObjectMeta, Secret
        env = two_app_env()
        rt = env.app_for(HOTEL_NS).runtime
        rt.execute_many("search_hotel", 100)
        plan = rt._plans["search_hotel"][1]
        profile = rt._profiles["search_hotel"]
        env.cluster.create_secret(Secret(
            meta=ObjectMeta(name="x", namespace=SOCIAL_NS),
            data={"k": "v"}))
        rt.execute_many("search_hotel", 100)
        replan = rt._plans["search_hotel"][1]
        assert replan is not plan and replan == plan
        assert rt._profiles["search_hotel"] is profile
        env.close()

    def test_own_namespace_mutation_still_invalidates(self):
        env = two_app_env()
        rt = env.app_for(HOTEL_NS).runtime
        rt.execute_many("search_hotel", 100)
        compiles = rt.profile_stats["compiles"]
        env.cluster.scale_deployment(HOTEL_NS, "search", 0)
        rt.execute_many("search_hotel", 100)
        assert rt.profile_stats["compiles"] == compiles + 1
        env.close()

    def test_aggregate_two_app_environment_delivers_load(self):
        env = CloudEnvironment([
            AppSpec(HotelReservation, workload_rate=1000.0),
            AppSpec(SocialNetwork, workload_rate=500.0),
        ], seed=4, fidelity="aggregate")
        env.advance(30.0)
        assert env.driver_for(HOTEL_NS).stats.requests == \
            pytest.approx(30_000, abs=100)
        assert env.driver_for(SOCIAL_NS).stats.requests == \
            pytest.approx(15_000, abs=100)
        env.close()
