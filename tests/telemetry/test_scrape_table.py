"""The collector's per-namespace scrape table against a fresh scan.

A scrape reads its rows — one per service: running flag, resource
baselines, the six metric series — from a table cached on the cluster's
``(services.version, pods.version, state_version)``.  After every kind of
mutation an agent or a fault can make, the table a scrape used must agree
with what a fresh ``pods_matching`` scan and ``MetricStore.series`` lookup
give, and the values it recorded must follow the fresh running flags.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.apps import HotelReservation, SocialNetwork
from repro.core import AppSpec, CloudEnvironment
from repro.faults import ChaosMesh, PodChaos
from repro.kubesim import Kubectl
from repro.simcore import RngStream
from repro.telemetry.metrics import MetricStore

HOTEL_NS = HotelReservation.namespace
SOCIAL_NS = SocialNetwork.namespace


def fresh_rows(collector, cluster, namespace: str) -> list[tuple]:
    """``(service, running, series)`` per service, from a fresh scan."""
    rows = []
    for svc in cluster.services_in(namespace):
        name = collector.qualify(namespace, svc.name)
        running = any(p.ready and not p.crash_looping
                      for p in cluster.pods_matching(namespace, svc.selector))
        rows.append((svc.name, running, tuple(
            collector.metrics.series(name, m)
            for m in MetricStore.STANDARD_METRICS)))
    return rows


def assert_scrape_agrees(collector, cluster, namespace: str) -> list[tuple]:
    """Scrape ``namespace`` now and check the table it used, and the
    values it recorded, against a fresh scan."""
    now = collector.clock.now
    collector.scrape(cluster, namespace)
    fresh = fresh_rows(collector, cluster, namespace)
    rows, n_running = collector._scrape_table(cluster, namespace)
    assert len(rows) == len(fresh)
    for (service, _, _, running, series), (f_service, f_running, f_series) \
            in zip(rows, fresh):
        assert (service, running) == (f_service, f_running)
        assert all(s is f for s, f in zip(series, f_series)), service
        cpu, mem = (s.values[-1] for s in f_series[:2])
        assert all(s.times[-1] == now for s in f_series)
        assert (cpu > 0.0 and mem > 0.0) == f_running, service
    assert n_running == sum(f[1] for f in fresh)
    return fresh


def _running(fresh: list[tuple], service: str) -> bool:
    return dict((s, r) for s, r, _ in fresh)[service]


def _kubectl(command: str):
    """The mutation ``kubectl <command>`` in the hotel namespace."""
    return lambda env, chaos: Kubectl(env.cluster).run(
        f"kubectl {command} -n {HOTEL_NS}")


def _delete_pod(env, chaos) -> None:
    pod = [p for p in env.cluster.pods_in(HOTEL_NS) if p.owner == "geo"][0]
    _kubectl(f"delete pod {pod.name}")(env, chaos)


def _patch_selector(selector: dict):
    return _kubectl(f"patch service geo -p "
                    f"'{json.dumps({'spec': {'selector': selector}})}'")


def _pod_chaos(on: bool):
    def apply(env, chaos: ChaosMesh) -> None:
        if on:
            chaos.apply(PodChaos("geo-failure", ["geo"]))
        else:
            chaos.delete("geo-failure")
    return apply


#: (mutation, the service it moves, that service's running flag after) in
#: the order one environment goes through them
MUTATIONS = [
    ("scale_to_zero", _kubectl("scale deployment geo --replicas=0"),
     "geo", False),
    ("scale_back", _kubectl("scale deployment geo --replicas=1"),
     "geo", True),
    ("delete_pod", _delete_pod, "geo", True),
    ("rollout_restart", _kubectl("rollout restart deployment/geo"),
     "geo", True),
    ("set_image", _kubectl(
        "set image deployment/geo geo=deathstarbench/hotel-geo:v2"),
     "geo", True),
    ("patch_selector_away", _patch_selector({"app": "nothing"}),
     "geo", False),
    ("patch_selector_back", _patch_selector({"app": "geo"}), "geo", True),
    ("pod_chaos_on", _pod_chaos(True), "geo", False),
    ("pod_chaos_off", _pod_chaos(False), "geo", True),
    ("delete_service", _kubectl("delete service geo"), "geo", None),
    ("helm_upgrade", lambda env, chaos: env.helm.upgrade(
        env.app.release_name, {}), "geo", True),
]


@pytest.fixture
def env(closing):
    env = closing(CloudEnvironment(HotelReservation, seed=5,
                                   workload_rate=50.0))
    env.advance(12.0)
    return env


class TestScrapeTableAgreesWithFreshScan:
    def test_after_each_mutation(self, env):
        collector, cluster = env.collector, env.cluster
        chaos = ChaosMesh(env.app)
        assert_scrape_agrees(collector, cluster, HOTEL_NS)
        for name, mutate, service, running in MUTATIONS:
            mutate(env, chaos)
            fresh = assert_scrape_agrees(collector, cluster, HOTEL_NS)
            if running is None:
                assert service not in [s for s, _, _ in fresh], name
            else:
                assert _running(fresh, service) == running, name
            env.advance(3.0)   # scheduled scrapes run on the new table
            assert_scrape_agrees(collector, cluster, HOTEL_NS)

    def test_unchanged_cluster_reuses_the_table(self, env):
        collector, cluster = env.collector, env.cluster
        collector.scrape(cluster, HOTEL_NS)
        table = collector._tables[HOTEL_NS]
        env.advance(10.0)
        assert collector._tables[HOTEL_NS] is table
        ChaosMesh(env.app).apply(PodChaos("pf", ["geo"]))
        collector.scrape(cluster, HOTEL_NS)
        assert collector._tables[HOTEL_NS] is not table

    def test_after_snapshot_and_fork(self, env, closing):
        snap = env.snapshot()
        fork = closing(snap.fork())
        fork_copy = closing(snap.fork())
        for e in (fork, fork_copy):
            assert_scrape_agrees(e.collector, e.cluster, HOTEL_NS)
        _pod_chaos(True)(fork, ChaosMesh(fork.app))
        fresh = assert_scrape_agrees(fork.collector, fork.cluster, HOTEL_NS)
        assert not _running(fresh, "geo")
        # the other fork, and the original, keep their own tables
        for e in (fork_copy, env):
            fresh = assert_scrape_agrees(e.collector, e.cluster, HOTEL_NS)
            assert _running(fresh, "geo")

    def test_two_apps_scraping_at_one_instant(self, closing):
        env = closing(CloudEnvironment([
            AppSpec(HotelReservation, workload_rate=60.0),
            AppSpec(SocialNetwork, workload_rate=40.0),
        ], seed=7))
        env.advance(12.0)
        c = env.collector
        # both namespaces' scheduled scrapes share each timestamp
        times = {ns: c.metrics.series(c.qualify(ns, "jaeger"),
                                      "cpu_usage").times
                 for ns in (HOTEL_NS, SOCIAL_NS)}
        assert times[HOTEL_NS] == times[SOCIAL_NS]
        for ns in (HOTEL_NS, SOCIAL_NS):
            assert_scrape_agrees(c, env.cluster, ns)
        ChaosMesh(env.app_for(SOCIAL_NS)).apply(
            PodChaos("pf", ["media-service"]))
        hotel = assert_scrape_agrees(c, env.cluster, HOTEL_NS)
        social = assert_scrape_agrees(c, env.cluster, SOCIAL_NS)
        assert all(r for _, r, _ in hotel)
        assert not _running(social, "media-service")
        assert c.metrics.series(f"{SOCIAL_NS}/media-service",
                                "cpu_usage").values[-1] == 0.0


def reference_scrape(c, cluster, namespace: str) -> None:
    """A scrape as a fresh scan with scalar draws: per service one
    ``pods_matching``, one ``normal`` per resource metric and one
    ``MetricStore.record`` per metric."""
    now = c.clock.now
    window = max(now - c._last_scrape.get(namespace, c._created_at), 1e-9)
    requests = c._take_window(namespace)
    for svc in cluster.services_in(namespace):
        name = c.qualify(namespace, svc.name)
        cpu_base, mem_base = c._baseline(name)
        running = [p for p in cluster.pods_matching(namespace, svc.selector)
                   if p.ready and not p.crash_looping]
        reqs, errs, lats = requests.get(svc.name, (0, 0, []))
        load_factor = 1.0 + 0.0005 * (reqs / window)
        if running:
            cpu = cpu_base * load_factor * (1 + c.rng.normal(0, 0.05))
            mem = mem_base * (1 + c.rng.normal(0, 0.02))
        else:
            cpu, mem = 0.0, 0.0
        lats = sorted(lats)
        p50 = lats[len(lats) // 2] if lats else 0.0
        p99 = lats[min(int(len(lats) * 0.99), len(lats) - 1)] if lats else 0.0
        for metric, value in zip(MetricStore.STANDARD_METRICS, (
                max(cpu, 0.0), max(mem, 0.0), reqs / window, errs / window,
                p50, p99)):
            c.metrics.record(now, name, metric, value)
    c._last_scrape[namespace] = now
    if c._watches:
        c._evaluate_watches(now)


class TestScrapeMatchesTheScalarReference:
    def test_two_apps_through_mutations(self, closing, monkeypatch):
        envs = []
        for _ in range(2):
            envs.append(closing(CloudEnvironment([
                AppSpec(HotelReservation, workload_rate=60.0),
                AppSpec(SocialNetwork, workload_rate=40.0,
                        fidelity="aggregate"),
            ], seed=9)))
        reference = envs[1]
        monkeypatch.setattr(
            reference.collector, "scrape",
            lambda cluster, ns: reference_scrape(reference.collector,
                                                 cluster, ns))
        steps = [
            lambda e: None,
            lambda e: ChaosMesh(e.app_for(SOCIAL_NS)).apply(
                PodChaos("pf", ["media-service", "text-service"])),
            lambda e: Kubectl(e.cluster).run(
                f"kubectl scale deployment geo --replicas=0 -n {HOTEL_NS}"),
            lambda e: Kubectl(e.cluster).run(
                f"kubectl delete service rate -n {HOTEL_NS}"),
        ]
        for step in steps:
            for e in envs:
                step(e)
                e.advance(7.5)
            a, b = (e.collector for e in envs)
            assert list(a.metrics._series) == list(b.metrics._series)
            assert a.metrics._series == b.metrics._series
            assert a.rng.generator.bit_generator.state == \
                b.rng.generator.bit_generator.state


class TestNoiseIdentity:
    """A scrape draws its resource noise as one ``standard_normal(2k)``
    vector; ``0.0 + s·z`` over it is the scalar ``normal(0, s)`` calls'
    doubles, and leaves the stream where they would."""

    @pytest.mark.parametrize("k", [0, 1, 27])
    def test_vector_draw_equals_scalar_pairs(self, k):
        vector, scalar = RngStream(11, "noise"), RngStream(11, "noise")
        z = vector.generator.standard_normal(2 * k).tolist()
        drawn = [0.0 + s * v for s, v in zip([0.05, 0.02] * k, z)]
        expected = []
        for _ in range(k):
            expected.append(scalar.normal(0, 0.05))
            expected.append(scalar.normal(0, 0.02))
        assert np.array(drawn).tobytes() == np.array(expected).tobytes()
        assert vector.generator.bit_generator.state == \
            scalar.generator.bit_generator.state

    def test_a_namespace_with_nothing_running_draws_nothing(self, env):
        services = sorted({p.owner for p in env.cluster.pods_in(HOTEL_NS)})
        ChaosMesh(env.app).apply(PodChaos("all", services))
        state = env.collector.rng.generator.bit_generator.state
        fresh = assert_scrape_agrees(env.collector, env.cluster, HOTEL_NS)
        assert not any(r for _, r, _ in fresh)
        assert env.collector.rng.generator.bit_generator.state == state
