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

A hold also buffers its requests' accounting and flushes it when the hold
exits; a bare ``execute`` flushes before it returns.  ``TestTickAccounting``
pins that the flush leaves exactly what per-request accounting would.
"""

from collections import Counter

import pytest

from repro.apps import HotelReservation
from repro.core import CloudEnvironment
from repro.kubesim.objects import ObjectMeta, Secret
from repro.kubesim.resources import ResourcePlane
from repro.problems import benchmark_pids, get_problem, noop_pids
import repro.services.runtime as runtime_module
from repro.services.plan import resolve
from repro.services.runtime import ServiceRuntime
from repro.workload import WorkloadDriver
from tests.services.test_execute_many import (
    MUTATIONS,
    OP,
    Deployed,
    _apply_auth_failure,
    _apply_network_loss,
)
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
        rows: list[tuple] = []
        ticks: list[list] = []
        issue, execute = WorkloadDriver._issue, ServiceRuntime.execute

        def recording(driver, n):
            before = len(rows)
            issue(driver, n)
            ticks.append(rows[before:])

        def executing(runtime, op_name):
            rows.append(execute(runtime, op_name))
            return rows[-1]

        monkeypatch.setattr(WorkloadDriver, "_issue", recording)
        monkeypatch.setattr(ServiceRuntime, "execute", executing)
        env.advance(1.0)
        env.close()
        assert len(ticks) == 1 and ticks[0]
        _, _, _, error, _, _ = ticks[0][0]
        assert (error.kind.value if error else None) == kind

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


class TestTickAccounting:
    """Requests are accounted with the collector and the resource plane
    per tick: a hold flushes its buffered requests when it exits, and
    leaves what accounting each request on its own would have left."""

    @staticmethod
    def _deployed() -> Deployed:
        """A deployment under network loss and revoked roles (stubs and
        handler errors both), with a resource plane taking demand."""
        d = Deployed()
        d.runtime.resources = ResourcePlane(d.cluster, d.clock, coupled=False)
        _apply_network_loss(d)
        _apply_auth_failure(d)
        return d

    @staticmethod
    def _accounts(d: Deployed) -> tuple:
        window = d.collector._windows.get(None, {})
        return ({s: e[0] for s, e in window.items()},
                {s: e[1] for s, e in window.items() if e[1]},
                {s: list(e[2]) for s, e in window.items()},
                dict(d.runtime.resources._window))

    @staticmethod
    def _ops(d: Deployed, n: int) -> list[str]:
        ops = sorted(d.app.operations)
        return [ops[i % len(ops)] for i in range(n)]

    def test_bare_execute_is_accounted_when_it_returns(self):
        d = self._deployed()
        ns = d.app.namespace
        for op in self._ops(d, 40):
            before = self._accounts(d)
            d.runtime.execute(op)
            requests, errors, latencies, demand = self._accounts(d)
            _, _, spans = d.collector.traces.rows()[-1]
            # each span row is one request of its service, accounted now
            assert Counter(requests) - Counter(before[0]) == \
                Counter(s for _, s, *_ in spans)
            assert Counter(errors) - Counter(before[1]) == \
                Counter(s for _, s, _, _, status, _ in spans
                        if status == "ERROR")
            assert demand == {(ns, s): n for s, n in requests.items()}
            for service, lats in latencies.items():
                new = lats[len(before[2].get(service, [])):]
                assert sorted(new) == sorted(
                    ms for _, s, _, ms, _, _ in spans if s == service)

    def test_a_hold_accounts_what_bare_requests_do(self):
        held, bare = self._deployed(), self._deployed()
        ops = self._ops(held, 120)
        with held.runtime.holding_plans():
            for op in ops:
                held.runtime.execute(op)
        for op in ops:
            bare.runtime.execute(op)
        accounts = self._accounts(held)
        assert accounts == self._accounts(bare)
        assert sum(accounts[1].values()) > 0
        assert held.runtime.rng.generator.bit_generator.state == \
            bare.runtime.rng.generator.bit_generator.state

    def test_nothing_is_accounted_before_the_hold_exits(self):
        d = self._deployed()
        before = self._accounts(d)
        with d.runtime.holding_plans():
            for op in self._ops(d, 30):
                d.runtime.execute(op)
                assert self._accounts(d) == before
        assert self._accounts(d) != before


class _Drawn(list):
    """Words drawn one ``random_raw()`` at a time, as they are first read:
    the stream of a walker that makes one draw per decision."""

    def __init__(self, raw) -> None:
        super().__init__()
        self._raw = raw

    def __len__(self) -> int:
        return 2**62

    def __getitem__(self, at: int) -> int:
        while list.__len__(self) <= at:
            self.append(self._raw())
        return list.__getitem__(self, at)


class _ScalarBlock:
    """Stands in for ``WordBlock``: reads ahead nothing, so nothing is
    resynced when it closes."""

    def __init__(self, generator) -> None:
        self.words = _Drawn(generator.bit_generator.random_raw)
        self.at = 0

    def top_up(self, at: int, n: int) -> None:
        pass

    def close(self) -> None:
        pass


class TestHeldWords:
    """A held tick reads its draws from one block of raw words and resyncs
    the runtime stream when the hold exits: the stream must end where one
    draw per decision leaves it, also when a request raises mid-walk."""

    @staticmethod
    def _tick(d: Deployed, ops: list[str], raise_at) -> int:
        """Walk ``ops`` in one hold, ``_log`` raising at the ``n``-th line
        whose message holds ``text`` (``raise_at = (text, n)``); the
        number of requests that finished."""
        seen, log, done = [0], d.runtime._log, 0

        def logging(service, level, message):
            if raise_at is not None and raise_at[0] in message:
                seen[0] += 1
                if seen[0] == raise_at[1]:
                    raise RuntimeError("log sink failed")
            log(service, level, message)

        d.runtime._log = logging
        try:
            with d.runtime.holding_plans():
                for op in ops:
                    d.runtime.execute(op)
                    done += 1
        except RuntimeError:
            assert raise_at is not None
        finally:
            del d.runtime._log
        return done

    #: where a request raises: at a handler's line (right after the hop's
    #: service time), a caller's line (after a gate coin), the WARN noise
    #: line (between the two noise coins), the INFO one, or the 40th line
    @pytest.mark.parametrize("raise_at", [
        None, ("ACCESS", 2), ("failed to call", 3), ("slow ", 1),
        ("handled in", 2), ("", 40)])
    def test_stream_ends_where_scalar_draws_leave_it(self, raise_at,
                                                     monkeypatch):
        ops = TestTickAccounting._ops(Deployed(), 200)
        held, scalar = TestTickAccounting._deployed(), \
            TestTickAccounting._deployed()
        done = self._tick(held, ops, raise_at)
        monkeypatch.setattr(runtime_module, "WordBlock", _ScalarBlock)
        assert self._tick(scalar, ops, raise_at) == done
        if raise_at is not None:
            assert done < len(ops)
        assert held.runtime._block is None
        assert held.runtime.rng.generator.bit_generator.state == \
            scalar.runtime.rng.generator.bit_generator.state
        assert TestTickAccounting._accounts(held) == \
            TestTickAccounting._accounts(scalar)
        assert [spans for _, _, spans in held.collector.traces.rows()] == \
            [spans for _, _, spans in scalar.collector.traces.rows()]
