"""Statistical-equivalence harness for ``ServiceRuntime.execute_many``.

The aggregate tier must match the per-request reference *distributionally*:
for every fault family, a 5k-request batch and a 5k-iteration ``execute``
loop (independently seeded deployments of the same app) must agree on
error rate, per-service error attribution and mean end-to-end latency
within seeded tolerances — and the batch must be deterministic in
(seed, n).  Tolerances are sized at ~4 binomial standard deviations at
n=5000 (≈0.028 for a p=0.5 rate), so a correct implementation fails with
probability < 1e-4 per assertion while systematic skew is caught.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.apps import HotelReservation
from repro.kubesim import Cluster, Helm, Kubectl
from repro.services import runtime as runtime_module
from repro.services.plan import handler_log, resolve
from repro.services.profile import compile_profile
from repro.simcore import SimClock
from repro.telemetry import TelemetryCollector

N = 5000
SEED = 11
OP = "search_hotel"
#: absolute tolerance on rates (error rate, attribution fractions)
RATE_TOL = 0.03
#: relative tolerance on mean latency (CLT at n=5000 is well inside this)
LATENCY_RTOL = 0.05


class Deployed:
    def __init__(self, seed: int = SEED):
        self.clock = SimClock()
        self.cluster = Cluster(clock=self.clock, seed=seed)
        self.collector = TelemetryCollector(self.clock, seed=seed)
        self.app = HotelReservation()
        self.runtime = self.app.deploy(self.cluster, self.collector, seed=seed)


def _apply_healthy(d: Deployed) -> None:
    pass


def _apply_network_loss(d: Deployed) -> None:
    d.runtime.network_loss["search"] = 0.4


def _apply_backend_down(d: Deployed) -> None:
    d.app.backends["mongodb-geo"].up = False


def _apply_auth_failure(d: Deployed) -> None:
    d.app.backends["mongodb-geo"].revoke_roles("admin")


def _apply_buggy_image(d: Deployed) -> None:
    dep = d.cluster.get_deployment(d.app.namespace, "geo")
    dep.template.containers[0].image = "deathstarbench/hotel-geo:buggy-v2"
    d.cluster.reconcile()


FAULT_FAMILIES = {
    "healthy": _apply_healthy,
    "network_loss": _apply_network_loss,
    "backend_down": _apply_backend_down,
    "auth_failure": _apply_auth_failure,
    "buggy_image": _apply_buggy_image,
}


def _per_request_reference(apply_fault) -> tuple[float, dict[str, float], float]:
    """(error rate, per-service attribution fractions, mean latency) from
    an N-iteration ``execute`` loop on a fresh deployment."""
    d = Deployed()
    apply_fault(d)
    errors = 0
    latency_sum = 0.0
    attribution: dict[str, int] = {}
    for _ in range(N):
        r = d.runtime.execute(OP)
        if not r.ok:
            errors += 1
            for s in r.error_services:
                attribution[s] = attribution.get(s, 0) + 1
        latency_sum += r.latency_ms
    return (errors / N,
            {s: c / N for s, c in attribution.items()},
            latency_sum / N)


def _batch(apply_fault, n: int = N, seed: int = SEED):
    d = Deployed(seed)
    apply_fault(d)
    return d, d.runtime.execute_many(OP, n)


class TestStatisticalEquivalence:
    @pytest.mark.parametrize("family", sorted(FAULT_FAMILIES))
    def test_matches_per_request_reference(self, family):
        apply_fault = FAULT_FAMILIES[family]
        ref_err, ref_attr, ref_latency = _per_request_reference(apply_fault)
        _, batch = _batch(apply_fault)

        assert batch.n == N
        assert batch.error_rate == pytest.approx(ref_err, abs=RATE_TOL), \
            f"{family}: error rate diverged"
        assert batch.mean_latency_ms == pytest.approx(
            ref_latency, rel=LATENCY_RTOL), f"{family}: mean latency diverged"
        # error attribution: same service set, same per-service fractions
        batch_attr = {s: c / N for s, c in batch.error_services.items()}
        assert set(batch_attr) == set(ref_attr), \
            f"{family}: attributed services differ"
        for svc, frac in ref_attr.items():
            assert batch_attr[svc] == pytest.approx(frac, abs=RATE_TOL), \
                f"{family}: attribution for {svc} diverged"

    def test_error_kind_split_under_partial_loss(self):
        """With partial loss over an auth fault the batch must reproduce
        the drop-vs-auth competition, not just the total error rate."""
        def apply(d: Deployed) -> None:
            d.runtime.network_loss["search"] = 0.3
            d.app.backends["mongodb-geo"].revoke_roles("admin")

        _, batch = _batch(apply)
        assert batch.error_rate == 1.0
        drops = batch.error_kinds.get("network_drop", 0) / N
        auth = batch.error_kinds.get("not_authorized", 0) / N
        assert drops == pytest.approx(0.3, abs=RATE_TOL)
        assert auth == pytest.approx(0.7, abs=RATE_TOL)

    def test_collector_counts_are_exact(self):
        """Bulk telemetry counts (unlike latency percentiles) are not
        sampled: every request crossing a service lands in its window."""
        d, _ = _batch(_apply_healthy, n=1000)
        assert d.collector._window_requests["frontend"] == 1000
        assert d.collector._window_requests["geo"] == 1000
        assert d.collector._window_errors.get("frontend", 0) == 0
        d2, _ = _batch(_apply_backend_down, n=1000)
        assert d2.collector._window_errors["frontend"] == 1000
        # the down backend itself was entered and recorded every request
        assert d2.collector._window_requests["mongodb-geo"] == 1000
        assert d2.collector._window_errors["mongodb-geo"] == 1000

    def test_deterministic_given_seed_and_n(self):
        for family, apply_fault in FAULT_FAMILIES.items():
            _, a = _batch(apply_fault, n=2000)
            _, b = _batch(apply_fault, n=2000)
            assert a.errors == b.errors, family
            assert a.latency_sum_ms == b.latency_sum_ms, family
            assert a.error_services == b.error_services, family
            assert a.error_kinds == b.error_kinds, family
            assert [r.latency_ms for r in a.exemplars] == \
                [r.latency_ms for r in b.exemplars], family

    def test_independent_of_interleaved_per_request_calls(self):
        """The batch stream is derived from the seed, not the per-request
        generator state — executing requests first must not shift batches."""
        d1, ref = _batch(_apply_healthy, n=500)
        d2 = Deployed()
        for _ in range(50):
            d2.runtime.execute(OP)
        got = d2.runtime.execute_many(OP, 500)
        assert got.latency_sum_ms == ref.latency_sum_ms

    def test_bounded_exemplar_volume(self):
        d, batch = _batch(_apply_network_loss, n=N)
        profile = d.runtime._profiles[OP]
        cap = profile.n_outcomes * d.runtime.BATCH_TRACE_EXEMPLARS
        assert len(batch.exemplars) <= cap
        assert len(d.collector.traces) <= cap
        # exemplars cover both failed and successful branches
        assert {r.ok for r in batch.exemplars} == {True, False}

    def test_unknown_operation_rejected(self):
        d = Deployed()
        with pytest.raises(KeyError):
            d.runtime.execute_many("no_such_op", 10)

    def test_zero_and_negative_n(self):
        d = Deployed()
        assert d.runtime.execute_many(OP, 0).n == 0
        with pytest.raises(ValueError):
            d.runtime.execute_many(OP, -1)


def _scale(d: Deployed, service: str, replicas: int) -> None:
    d.cluster.scale_deployment(d.app.namespace, service, replicas)


def _remove_credentials(d: Deployed) -> None:
    """What the AuthenticationMissing injector does: edit the release
    values in place, no revision bump."""
    release = d.app.helm.releases[d.app.release_name]
    release.values["mongo_credentials"]["mongodb-rate"] = None


class _Pressure:
    """Stands in for the environment's ResourcePlane: the node under geo
    sheds a quarter of the calls into it, the one under rate doubles its
    service time."""

    def multiplier_for(self, namespace, service):
        return 2.0 if service == "rate" else 1.0

    def overload_p(self, namespace, service):
        return 0.25 if service == "geo" else 0.0

    def account(self, namespace, service, count=1):
        pass

    def fingerprint(self, namespace):
        return 1


def _apply_shedding(d: Deployed) -> None:
    d.runtime.resources = _Pressure()


def _apply_loss_then_shedding(d: Deployed) -> None:
    d.runtime.network_loss["geo"] = 0.4
    d.runtime.resources = _Pressure()


def _apply_loss_on_unreachable(d: Deployed) -> None:
    d.runtime.network_loss["search"] = 0.4
    _scale(d, "search", 0)


#: every state the two tiers must agree on: the statistical families, the
#: states TestProfileCacheInvalidation reaches, node-pressure shedding, and
#: two states where two rules compete for the same hop (so a tier that
#: checked them in another order would show)
STATES = {
    **FAULT_FAMILIES,
    "total_loss": lambda d: d.runtime.network_loss.update(search=1.0),
    "user_dropped": lambda d: d.app.backends["mongodb-geo"].drop_user("admin"),
    "credentials_removed": _remove_credentials,
    "scaled_to_zero": lambda d: _scale(d, "search", 0),
    "deleted_service":
        lambda d: d.cluster.delete_service(d.app.namespace, "geo"),
    "entry_unreachable": lambda d: _scale(d, "frontend", 0),
    "shedding": _apply_shedding,
    "loss_then_shedding": _apply_loss_then_shedding,
    "loss_on_unreachable": _apply_loss_on_unreachable,
}


class TestTierAgreement:
    """The tiers agree branch for branch, not just on average: drive
    ``execute`` down every path of every operation with scripted coins and
    compare what each path did — and how likely it was — with the compiled
    profile's outcomes.  Both read one resolved plan, so this holds by
    construction; the test is what fails if they are ever made to differ."""

    @staticmethod
    def _walked(d: Deployed, op: str, fire_at) -> tuple[tuple, float, int]:
        """One ``execute`` whose fault coins all come up False, except the
        ``fire_at``-th: (what happened, its probability, coins flipped)."""
        rt = d.runtime
        rt.NOISE_WARN = rt.INFO_SAMPLE = 0.0   # noise coins: forced False
        flipped: list[float] = []

        def scripted(p: float) -> bool:
            if p == 0.0:
                return False
            flipped.append(p)
            return len(flipped) - 1 == fire_at

        rt.rng.bernoulli = scripted
        logs_before = len(d.collector.logs)
        requests = Counter(d.collector._window_requests)
        errors = Counter(d.collector._window_errors)
        result = rt.execute(op)
        requests = Counter(d.collector._window_requests) - requests
        errors = Counter(d.collector._window_errors) - errors
        trace = d.collector.traces.query()[-1]
        assert trace.trace_id == result.trace_id
        prob = math.prod(p if i == fire_at else 1.0 - p
                         for i, p in enumerate(flipped))
        return (
            (result.ok,
             result.error.kind if result.error else None,
             result.error.message if result.error else None,
             tuple(result.error_services),
             tuple((s.service, s.operation, s.status, s.error_message)
                   for s in trace.spans),
             tuple((r.service, r.level, r.message)
                   for r in d.collector.logs.query()[logs_before:]
                   if r.level in ("ERROR", "WARN")),
             frozenset(requests.items()), frozenset(errors.items())),
            prob, len(flipped))

    @staticmethod
    def _compiled(profile, o) -> tuple:
        requests = Counter(o.visit_counts) + Counter(o.hop_fail_counts)
        errors = Counter(o.error_visit_counts) + Counter(o.hop_fail_counts)
        if o.client_fail:
            requests[profile.entry] += 1
            errors[profile.entry] += 1
        return (o.ok,
                o.error.kind if o.error else None,
                o.error.message if o.error else None,
                o.error_services,
                tuple((s.service, s.operation, s.status, s.error_message)
                      for s in o.spans),
                o.logs,
                frozenset(requests.items()), frozenset(errors.items()))

    @pytest.mark.parametrize("state", sorted(STATES))
    def test_every_branch_of_every_operation(self, state):
        d = Deployed()
        STATES[state](d)
        for op in sorted(d.app.operations):
            profile = compile_profile(
                resolve(d.runtime, d.app.operations[op]))
            compiled = {self._compiled(profile, o): o.prob
                        for o in profile.outcomes}
            assert len(compiled) == profile.n_outcomes, (state, op)

            first, prob, coins = self._walked(d, op, fire_at=None)
            walked = {first: prob}
            for i in range(coins):
                branch, prob, _ = self._walked(d, op, fire_at=i)
                assert branch not in walked, (state, op, i)
                walked[branch] = prob
            # a path that needed a p = 1 coin to come up False is no path
            walked = {b: p for b, p in walked.items() if p > 0.0}

            assert set(walked) == set(compiled), (state, op)
            for branch, prob in walked.items():
                assert compiled[branch] == pytest.approx(prob, rel=1e-12), \
                    (state, op, branch[1])

    def test_states_cover_every_kind_of_branch(self):
        """The sweep above is only as good as its states: between them
        they must reach every gate, both stubs and both log rules."""
        kinds, stubs, coins, own_logs = set(), set(), set(), set()
        for apply_state in STATES.values():
            d = Deployed()
            apply_state(d)
            for op in d.app.operations.values():
                plan = resolve(d.runtime, op)
                stack = [plan.root]
                while stack:
                    hop = stack.pop()
                    stack.extend(hop.children)
                    coins.update(name for name in ("p_drop", "p_shed")
                                 if getattr(hop, name) > 0)
                    if hop.blocked is not None:
                        stubs.add("client" if hop is plan.root else "hop")
                    if hop.handler is not None:
                        kinds.add(hop.handler.kind.value)
                        own_logs.add(handler_log(hop.handler) is None)
        assert coins == {"p_drop", "p_shed"}
        assert stubs == {"client", "hop"}
        assert own_logs == {True, False}
        assert kinds >= {"app_bug", "auth_failed", "not_authorized",
                         "user_not_found", "unavailable"}


class TestProfileCacheInvalidation:
    """The path profile is a derived cache over cluster/backend/helm state;
    every mutator an agent (or fault) can reach must invalidate it —
    the ``_dirty``-style staleness bug class this guards against."""

    def _compiles(self, d: Deployed) -> int:
        return d.runtime.profile_stats["compiles"]

    def test_cache_hit_without_mutation(self):
        d, _ = _batch(_apply_healthy, n=100)
        before = self._compiles(d)
        d.runtime.execute_many(OP, 100)
        assert self._compiles(d) == before
        assert d.runtime.profile_stats["hits"] >= 1

    def test_kubectl_set_image_invalidates(self):
        d, first = _batch(_apply_healthy, n=500)
        kubectl = Kubectl(d.cluster)
        out = kubectl.run(
            f"kubectl set image deployment/geo "
            f"geo=deathstarbench/hotel-geo:buggy-v2 -n {d.app.namespace}")
        assert "image updated" in out
        before = self._compiles(d)
        batch = d.runtime.execute_many(OP, 500)
        assert self._compiles(d) > before
        assert first.errors == 0 and batch.errors == 500
        assert batch.error_kinds == {"app_bug": 500}

    def test_helm_upgrade_invalidates(self):
        d, first = _batch(_apply_healthy, n=500)
        d.app.helm.upgrade(d.app.release_name,
                           {"mongo_credentials": {"mongodb-rate": None}})
        before = self._compiles(d)
        batch = d.runtime.execute_many(OP, 500)
        assert self._compiles(d) > before
        assert first.errors == 0 and batch.errors == 500
        assert "auth_failed" in batch.error_kinds

    def test_helm_values_surgery_invalidates(self):
        """The AuthenticationMissing injector edits release values in
        place (no revision bump) — the credentials snapshot must catch it."""
        d, first = _batch(_apply_healthy, n=500)
        release = d.app.helm.releases[d.app.release_name]
        release.values["mongo_credentials"]["mongodb-rate"] = None
        before = self._compiles(d)
        batch = d.runtime.execute_many(OP, 500)
        assert self._compiles(d) > before
        assert batch.errors == 500

    def test_pod_delete_invalidates(self):
        d, _ = _batch(_apply_healthy, n=100)
        pod = [p for p in d.cluster.pods_in(d.app.namespace)
               if p.owner == "geo"][0]
        d.cluster.delete_pod(d.app.namespace, pod.name)
        before = self._compiles(d)
        batch = d.runtime.execute_many(OP, 100)
        assert self._compiles(d) > before
        # the controller recreated the pod, so outcomes stay healthy
        assert batch.errors == 0

    def test_scale_to_zero_invalidates_and_shifts(self):
        d, first = _batch(_apply_healthy, n=500)
        d.cluster.scale_deployment(d.app.namespace, "search", 0)
        batch = d.runtime.execute_many(OP, 500)
        assert first.errors == 0 and batch.errors == 500
        assert batch.error_kinds == {"connection_refused": 500}
        # and back
        d.cluster.scale_deployment(d.app.namespace, "search", 1)
        assert d.runtime.execute_many(OP, 500).errors == 0

    def test_backend_toggle_invalidates(self):
        d, first = _batch(_apply_healthy, n=500)
        d.app.backends["memcached-rate"].up = False
        batch = d.runtime.execute_many(OP, 500)
        assert first.errors == 0 and batch.errors == 500
        assert batch.error_kinds == {"unavailable": 500}
        d.app.backends["memcached-rate"].up = True
        assert d.runtime.execute_many(OP, 500).errors == 0

    def test_mongo_user_mutations_invalidate(self):
        d, first = _batch(_apply_healthy, n=500)
        backend = d.app.backends["mongodb-geo"]
        backend.revoke_roles("admin")
        assert d.runtime.execute_many(OP, 500).errors == 500
        backend.grant_roles("admin", {"readWrite"})
        assert d.runtime.execute_many(OP, 500).errors == 0
        backend.drop_user("admin")
        batch = d.runtime.execute_many(OP, 500)
        assert batch.error_kinds == {"user_not_found": 500}

    def test_network_loss_change_invalidates(self):
        d, first = _batch(_apply_healthy, n=1000)
        d.runtime.network_loss["search"] = 0.5
        before = self._compiles(d)
        lossy = d.runtime.execute_many(OP, 1000)
        assert self._compiles(d) > before
        assert lossy.error_rate == pytest.approx(0.5, abs=0.06)
        del d.runtime.network_loss["search"]
        assert d.runtime.execute_many(OP, 1000).errors == 0

    def test_entry_unreachable_fast_fail(self):
        d, _ = _batch(_apply_healthy, n=10)
        d.cluster.scale_deployment(d.app.namespace, "frontend", 0)
        batch = d.runtime.execute_many(OP, 200)
        assert batch.errors == 200
        assert batch.error_kinds == {"connection_refused": 200}
        assert batch.error_services == {"frontend": 200}
        assert batch.latency_sum_ms == pytest.approx(200.0)


def _kubectl_set_image(d: Deployed) -> None:
    Kubectl(d.cluster).run(
        f"kubectl set image deployment/geo "
        f"geo=deathstarbench/hotel-geo:buggy-v2 -n {d.app.namespace}")


def _delete_geo_pod(d: Deployed) -> None:
    pod = [p for p in d.cluster.pods_in(d.app.namespace)
           if p.owner == "geo"][0]
    d.cluster.delete_pod(d.app.namespace, pod.name)


def _memcached_down(d: Deployed) -> None:
    d.app.backends["memcached-rate"].up = False


#: the mutations TestProfileCacheInvalidation makes, with the error kind
#: the very next request must fail with (None: it must still succeed)
MUTATIONS = {
    "kubectl_set_image": (_kubectl_set_image, "app_bug"),
    "helm_upgrade": (
        lambda d: d.app.helm.upgrade(
            d.app.release_name, {"mongo_credentials": {"mongodb-rate": None}}),
        "auth_failed"),
    "helm_values_surgery": (_remove_credentials, "auth_failed"),
    "pod_delete": (_delete_geo_pod, None),
    "scale_to_zero": (STATES["scaled_to_zero"], "connection_refused"),
    "backend_toggle": (_memcached_down, "unavailable"),
    "mongo_revoke_roles": (_apply_auth_failure, "not_authorized"),
    "mongo_drop_user": (STATES["user_dropped"], "user_not_found"),
    "network_loss_change": (STATES["total_loss"], "network_drop"),
    "entry_unreachable": (STATES["entry_unreachable"], "connection_refused"),
}


class TestPerRequestPlanInvalidation:
    """``execute`` walks a cached plan behind the same counter key that
    guards compiled profiles, so the reference tier owes the same promise:
    every mutation shows on the very next request."""

    @pytest.fixture
    def resolved(self, monkeypatch):
        """Names of the ops ``resolve`` was called for, in call order."""
        calls: list[str] = []

        def counting(rt, op):
            calls.append(op.name)
            return resolve(rt, op)

        monkeypatch.setattr(runtime_module, "resolve", counting)
        return calls

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_first_execute_after_mutation_sees_it(self, mutation, resolved):
        mutate, kind = MUTATIONS[mutation]
        d = Deployed()
        assert d.runtime.execute(OP).ok
        assert d.runtime.execute(OP).ok
        assert resolved == [OP]
        mutate(d)
        result = d.runtime.execute(OP)
        assert (result.error.kind.value if result.error else None) == kind
        assert resolved == [OP, OP]

    def test_mutation_is_undone_on_the_next_request_too(self):
        d = Deployed()
        assert d.runtime.execute(OP).ok
        for mutate, undo in [
            (_memcached_down,
             lambda d: setattr(d.app.backends["memcached-rate"], "up", True)),
            (STATES["total_loss"], lambda d: d.runtime.network_loss.clear()),
            (STATES["scaled_to_zero"], lambda d: _scale(d, "search", 1)),
        ]:
            mutate(d)
            assert not d.runtime.execute(OP).ok
            undo(d)
            assert d.runtime.execute(OP).ok

    def test_unmutated_runtime_resolves_each_op_once(self, resolved):
        d = Deployed()
        ops = sorted(d.app.operations)
        for _ in range(25):
            for op in ops:
                d.runtime.execute(op)
        # the aggregate tier fetches through the same cache
        d.runtime.execute_many_all([(op, 50) for op in ops])
        assert sorted(resolved) == ops
        # ... and a plan fetch alone is not a profile install
        assert d.runtime.profile_stats["compiles"] == len(ops)


class TestAdaptiveTailReservoir:
    """A pending p50/p99 watch grows the batch exemplar reservoir, so a
    tail-latency trigger's fire time converges on the per-request fire
    time as the reservoir grows (satellite of the trigger-timeline PR)."""

    THRESHOLD = 22.0   # between healthy frontend p50 and p99
    SUSTAIN = 15.0     # three consecutive 5s scrapes

    def _fire_time(self, fidelity, tail_exemplars=None, seed=3):
        from repro.core import CloudEnvironment
        from repro.telemetry import MetricWatch
        env = CloudEnvironment(HotelReservation, seed=seed,
                               workload_rate=300, fidelity=fidelity)
        if tail_exemplars is not None:
            env.runtime.BATCH_TRACE_EXEMPLARS_TAIL = tail_exemplars
        watch = MetricWatch("frontend", "latency_p99_ms", self.THRESHOLD,
                            sustain_s=self.SUSTAIN)
        env.queue.attach_watch(watch)
        env.collector.add_watch(watch)
        env.driver.run_events(60.0)
        env.close()
        return watch.fired_at  # None if it never fired

    def test_direct_execute_many_grows_exemplars_for_tail_watch(self):
        from repro.telemetry import MetricWatch
        d = Deployed()
        no_watch = d.runtime.execute_many(OP, 2000)
        assert len(no_watch.exemplars) == d.runtime.BATCH_TRACE_EXEMPLARS
        d.collector.add_watch(MetricWatch("frontend", "latency_p99_ms", 1.0))
        watched = d.runtime.execute_many(OP, 2000)
        assert len(watched.exemplars) == d.runtime.BATCH_TRACE_EXEMPLARS_TAIL

    def test_non_tail_watch_does_not_grow_exemplars(self):
        from repro.telemetry import MetricWatch
        d = Deployed()
        d.collector.add_watch(MetricWatch("frontend", "error_rate", 1.0))
        batch = d.runtime.execute_many(OP, 2000)
        assert len(batch.exemplars) == d.runtime.BATCH_TRACE_EXEMPLARS

    def test_unrelated_service_watch_does_not_grow_exemplars(self):
        from repro.telemetry import MetricWatch
        d = Deployed()
        d.collector.add_watch(MetricWatch("not-in-this-op",
                                          "latency_p99_ms", 1.0))
        batch = d.runtime.execute_many(OP, 2000)
        assert len(batch.exemplars) == d.runtime.BATCH_TRACE_EXEMPLARS

    def test_fire_times_converge_with_reservoir_growth(self):
        t_pr = self._fire_time("per_request")
        assert t_pr == 5.0 + self.SUSTAIN  # satisfied from the first scrape

        def err(fired_at):
            return float("inf") if fired_at is None else abs(fired_at - t_pr)

        errors = [err(self._fire_time("aggregate", tail_exemplars=k))
                  for k in (2, 8, 24)]
        # monotone convergence toward the per-request fire time...
        assert all(e2 <= e1 for e1, e2 in zip(errors, errors[1:]))
        # ...and the adaptive default lands within one scrape interval
        assert errors[-1] <= 5.0
        # while a starved reservoir visibly mis-times the trigger
        assert errors[0] > 5.0


class TestEngineDeterminism:
    """Fixed-seed pins for the batch sampling engine: it must be exactly
    reproducible in (seed, n)."""

    def test_identical_across_fresh_deployments(self):
        for family, apply_fault in sorted(FAULT_FAMILIES.items()):
            _, a = _batch(apply_fault, n=3000)
            _, b = _batch(apply_fault, n=3000)
            assert a.latency_sum_ms == b.latency_sum_ms, family
            assert a.error_kinds == b.error_kinds, family
            assert [r.latency_ms for r in a.exemplars] == \
                [r.latency_ms for r in b.exemplars], family

    def test_execute_many_is_single_op_execute_many_all(self):
        d1 = Deployed()
        one = d1.runtime.execute_many(OP, 1500)
        d2 = Deployed()
        [fused] = d2.runtime.execute_many_all([(OP, 1500)])
        assert one.latency_sum_ms == fused.latency_sum_ms
        assert one.error_kinds == fused.error_kinds
        assert [r.latency_ms for r in one.exemplars] == \
            [r.latency_ms for r in fused.exemplars]

    def test_multi_op_fused_call_deterministic(self):
        reqs = [("search_hotel", 700), ("recommend", 500),
                ("reserve", 300)]
        d1, d2 = Deployed(), Deployed()
        a = d1.runtime.execute_many_all(reqs)
        b = d2.runtime.execute_many_all(reqs)
        assert [x.operation for x in a] == [r[0] for r in reqs]
        assert [x.latency_sum_ms for x in a] == \
            [x.latency_sum_ms for x in b]
        assert [x.n for x in a] == [700, 500, 300]


class TestSharedProfileStore:
    """Compiled profiles are shared across sessions through a value-keyed
    store: equal observable state → same profile object; any divergence →
    a different fingerprint, so staleness is impossible by construction."""

    @pytest.fixture(autouse=True)
    def fresh_store(self, monkeypatch):
        from repro.services.profile import ProfileStore
        from repro.services.runtime import ServiceRuntime
        self.store = ProfileStore()
        monkeypatch.setattr(ServiceRuntime, "profile_store", self.store)

    def test_cross_session_hit(self):
        d1, first = _batch(_apply_healthy, n=500)
        assert d1.runtime.profile_stats["shared_hits"] == 0
        assert self.store.stats["stores"] == 1
        d2, second = _batch(_apply_healthy, n=500)
        assert d2.runtime.profile_stats["shared_hits"] == 1
        # same seed + same profile → bit-identical batches
        assert second.latency_sum_ms == first.latency_sum_ms
        assert self.store.hit_rate == 0.5

    def test_store_fetch_still_counts_as_install(self):
        """'compiles' means profile installs — cold or store-served — so
        the invalidation tests above hold for co-tenant sessions too."""
        d1, _ = _batch(_apply_healthy, n=100)
        d2, _ = _batch(_apply_healthy, n=100)
        assert d1.runtime.profile_stats["compiles"] == 1
        assert d2.runtime.profile_stats["compiles"] == 1

    def test_mutated_session_never_sees_cotenant_profile(self):
        d1, healthy = _batch(_apply_healthy, n=500)
        d2 = Deployed()
        d2.app.backends["mongodb-geo"].up = False
        broken = d2.runtime.execute_many(OP, 500)
        assert healthy.errors == 0
        assert broken.errors == 500
        assert d2.runtime.profile_stats["shared_hits"] == 0
        # and the healthy co-tenant is equally unaffected afterwards
        assert d1.runtime.execute_many(OP, 500).errors == 0

    def test_mutation_after_sharing_diverges(self):
        d1, _ = _batch(_apply_healthy, n=200)
        d2, _ = _batch(_apply_healthy, n=200)
        assert d2.runtime.profile_stats["shared_hits"] == 1
        d2.runtime.network_loss["search"] = 0.5
        lossy = d2.runtime.execute_many(OP, 1000)
        assert lossy.error_rate == pytest.approx(0.5, abs=0.06)
        assert d1.runtime.execute_many(OP, 1000).errors == 0

    def test_disabled_store_still_compiles(self, monkeypatch):
        from repro.services.runtime import ServiceRuntime
        monkeypatch.setattr(ServiceRuntime, "profile_store", None)
        d1, a = _batch(_apply_healthy, n=300)
        d2, b = _batch(_apply_healthy, n=300)
        assert a.latency_sum_ms == b.latency_sum_ms
        assert d2.runtime.profile_stats["shared_hits"] == 0

    def test_lru_eviction_bounds_the_store(self):
        from repro.services.profile import ProfileStore
        store = ProfileStore(maxsize=2)
        p = object()
        store.put(("a",), p)
        store.put(("b",), p)
        store.put(("c",), p)
        assert len(store) == 2
        assert store.get(("a",)) is None   # oldest evicted
        assert store.get(("c",)) is p

    def test_lru_get_refreshes_recency(self):
        from repro.services.profile import ProfileStore
        store = ProfileStore(maxsize=2)
        p = object()
        store.put(("a",), p)
        store.put(("b",), p)
        assert store.get(("a",)) is p      # touch a → b becomes oldest
        store.put(("c",), p)
        assert store.get(("b",)) is None
        assert store.get(("a",)) is p
