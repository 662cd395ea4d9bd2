"""The per-request driver keys each op's plan once per tick
(``ServiceRuntime.holding_plans``), not once per request.  That is sound
only if nothing inside a tick moves what the key reads, and if a tick
never carries its held plans into the next one.  These tests pin both
through real environments: a mutation between ticks shows on the next
tick's first request, and no tick of any paper incident's preparation,
a resource-coupled scenario or a two-app environment moves the key of
any mix operation.  The key is made of cluster-wide counters, which is
sound because ``resolve`` is a pure, RNG-free function of what it reads:
moving a counter without changing that state resolves equal plans.
"""

import pytest

from repro.apps import HotelReservation
from repro.core import CloudEnvironment
from repro.kubesim.objects import ObjectMeta, Secret
from repro.problems import benchmark_pids, get_problem, noop_pids
from repro.services.plan import resolve
from repro.workload import WorkloadDriver
from tests.services.test_execute_many import MUTATIONS, OP
from tests.telemetry.test_golden_export import ENV_SEED, PIDS as GOLDEN_PIDS

_PAPER = set(benchmark_pids()) | set(noop_pids())
#: every paper incident's preparation pinned by the export golden, a
#: resource-coupled scenario with autoscalers on both apps' frontends, and
#: a two-app environment
HOLD_PIDS = tuple(p for p in GOLDEN_PIDS if p in _PAPER) + (
    "scale_up_race_multi_hotel_res-detection-1",
    "noisy_neighbor_multi_hotel_res-detection-1",
)


class TestHeldPlans:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_next_tick_sees_a_mutation(self, mutation, monkeypatch):
        """Mutate between two ticks: the next tick's first request shows
        the error kind the first ``execute`` after the same mutation
        shows outside any tick."""
        mutate, kind = MUTATIONS[mutation]
        monkeypatch.setattr(HotelReservation, "workload_mix",
                            lambda self: {OP: 1.0})
        env = CloudEnvironment(HotelReservation, seed=3)
        env.advance(10.0)
        assert env.driver.stats.errors == 0
        mutate(env)
        ticks: list[list] = []
        issue = WorkloadDriver._issue

        def recording(driver, n):
            before = len(driver.recent_results)
            issue(driver, n)
            ticks.append(driver.recent_results[before:])

        monkeypatch.setattr(WorkloadDriver, "_issue", recording)
        env.advance(1.0)
        env.close()
        assert len(ticks) == 1 and ticks[0]
        first = ticks[0][0]
        assert (first.error.kind.value if first.error else None) == kind

    def test_hold_ends_with_the_block(self, hotel):
        rt = hotel.runtime
        with rt.holding_plans():
            rt.execute(OP)
            assert OP in rt._held
        assert rt._held is None
        with pytest.raises(RuntimeError):
            with rt.holding_plans():
                raise RuntimeError
        assert rt._held is None

    @pytest.mark.parametrize("pid", HOLD_PIDS)
    def test_no_tick_moves_a_plan_key(self, pid, monkeypatch):
        ticks: list[int] = []
        issue = WorkloadDriver._issue

        def checking(driver, n):
            rt = driver.runtime
            ops = [rt.operations[name] for name in driver._ops]
            before = [rt._profile_key(op) for op in ops]
            issue(driver, n)
            assert [rt._profile_key(op) for op in ops] == before, \
                f"a request at t={rt.clock.now} moved a plan key"
            ticks.append(n)

        monkeypatch.setattr(WorkloadDriver, "_issue", checking)
        env = get_problem(pid).prepare(ENV_SEED)
        env.advance(30.0)
        env.close()
        assert sum(ticks) > 0

    @pytest.mark.parametrize("pid", HOLD_PIDS)
    def test_counter_bump_resolves_equal_plans(self, pid):
        """Bump the cluster's counters without touching anything
        ``resolve`` reads (a converged reconcile, a secret in the last
        hosted namespace): every mix op of every hosted app resolves an
        equal plan, and no RNG stream moves."""
        env = get_problem(pid).prepare(ENV_SEED)

        def streams():
            rngs = [env.cluster.rng, env.collector.rng]
            for driver in env.drivers:
                rt = driver.runtime
                rngs += [rt.rng, driver.rng]
                if rt._batch_rng is not None:
                    rngs.append(rt._batch_rng)
            return [r.generator.bit_generator.state for r in rngs]

        def plans():
            return [resolve(d.runtime, d.runtime.operations[name])
                    for d in env.drivers for name in d._ops]

        before, states = plans(), streams()
        version = env.cluster.state_version
        env.cluster.reconcile()
        env.cluster.create_secret(Secret(
            meta=ObjectMeta(name="unread", namespace=env.apps[-1].namespace),
            data={"k": "v"}))
        assert env.cluster.state_version > version
        assert plans() == before
        assert streams() == states
        env.close()
