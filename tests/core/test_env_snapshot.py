"""Snapshot/fork must be invisible to the simulation: a forked
environment's subsequent evolution is bit-identical to a fresh
environment advanced to the same point — WorkloadStats, RNG draw order
(hence telemetry values), scrape timestamps, armed fault timelines and
pending trigger chains all resume exactly where the snapshot was taken.
That property is what lets warm benchmark workers amortize one prepared
environment across a whole sweep grid (see ``run_grid``)."""

import numpy as np
import pytest

from repro.agents.registry import agent_factory
from repro.apps import HotelReservation, SocialNetwork
from repro.core import AppSpec, CloudEnvironment, GridCell, run_grid
from repro.core.batch import run_grid_cell
from repro.faults import FaultSchedule, MetricAbove
from repro.problems import get_problem

from tests.core.test_kernel_equivalence import (
    WINDOWS,
    scrape_series,
    stats_key,
)


def fork_and_fresh(make_env, advance_before=30.0):
    """(fork, fresh): a fork taken at ``advance_before`` and a fresh env
    advanced to the same point — the bit-identity test pair."""
    origin = make_env()
    origin.advance(advance_before)
    snapshot = origin.snapshot()
    origin.close()
    fresh = make_env()
    fresh.advance(advance_before)
    return snapshot.fork(), fresh


class TestForkDeterminism:
    def test_fork_matches_fresh_env_on_irregular_windows(self):
        fork, fresh = fork_and_fresh(
            lambda: CloudEnvironment(HotelReservation, seed=3,
                                     workload_rate=45))
        for w in WINDOWS:
            fork.advance(w)
            fresh.advance(w)
        assert fork.clock.now == fresh.clock.now
        assert stats_key(fork) == stats_key(fresh)
        tk, vk = scrape_series(fork)
        tl, vl = scrape_series(fresh)
        assert np.array_equal(tk, tl), "scrape timestamps diverged"
        assert np.array_equal(vk, vl), "telemetry RNG draw order diverged"
        fork.close()
        fresh.close()

    def test_fork_preserves_rng_stream_positions(self):
        """The fork resumes every stream mid-sequence, not from its seed."""
        fork, fresh = fork_and_fresh(
            lambda: CloudEnvironment(HotelReservation, seed=5,
                                     workload_rate=30))
        draws_fork = [fork.driver.rng.random() for _ in range(32)]
        draws_fresh = [fresh.driver.rng.random() for _ in range(32)]
        assert draws_fork == draws_fresh
        # and they differ from a seed-fresh stream: state was advanced
        unused = CloudEnvironment(HotelReservation, seed=5, workload_rate=30)
        assert draws_fork != [unused.driver.rng.random() for _ in range(32)]
        fork.close()
        fresh.close()
        unused.close()

    def test_fork_is_independent_of_origin_and_siblings(self):
        origin = CloudEnvironment(HotelReservation, seed=2, workload_rate=40)
        origin.advance(20.0)
        snapshot = origin.snapshot()
        origin.advance(50.0)  # evolving the origin must not taint forks
        fork_a = snapshot.fork()
        fork_a.advance(35.0)  # nor one fork another
        fork_b = snapshot.fork()
        fork_b.advance(35.0)
        assert stats_key(fork_a) == stats_key(fork_b)
        assert fork_a.clock.now == 55.0 and origin.clock.now == 70.0
        origin.close()
        fork_a.close()
        fork_b.close()

    def test_fork_mid_fault_with_watches_and_chains(self):
        """A fork taken mid-fault — one entry fired, a MetricWatch armed,
        an AfterEvent chain pending — resumes the timeline exactly."""
        def make():
            env = CloudEnvironment(HotelReservation, seed=5,
                                   workload_rate=60)
            armed = (FaultSchedule()
                     .inject(10.0, "RevokeAuth", ("mongodb-geo",),
                             tag="revoke")
                     .after("revoke", "PodFailure", ("recommendation",),
                            delay=20.0)
                     .when(MetricAbove("frontend", "error_rate", 2.0),
                           "NetworkLoss", ("search",))
                     ).arm(env)
            return env, armed

        origin, origin_armed = make()
        origin.advance(15.0)
        assert origin_armed.pending > 0  # chain + watch still pending
        snapshot = origin.snapshot(extras=origin_armed)
        origin.close()
        fork, fork_armed = snapshot.fork_with_extras()
        assert fork_armed.env is fork  # one pickle memo covers both

        fresh, fresh_armed = make()
        fresh.advance(15.0)
        for env in (fork, fresh):
            env.advance(105.0)
        assert fork_armed.log == fresh_armed.log
        assert len(fork_armed.log) == 3  # revoke, watched loss, chained kill
        assert stats_key(fork) == stats_key(fresh)
        tk, vk = scrape_series(fork)
        tl, vl = scrape_series(fresh)
        assert np.array_equal(tk, tl) and np.array_equal(vk, vl)
        fork.close()
        fresh.close()

    def test_fork_multi_app_aggregate(self):
        fork, fresh = fork_and_fresh(
            lambda: CloudEnvironment([
                AppSpec(HotelReservation, workload_rate=200.0),
                AppSpec(SocialNetwork, workload_rate=150.0),
            ], seed=9, fidelity="aggregate"))
        for env in (fork, fresh):
            env.advance(60.0)
        for ns in fork.namespaces:
            sf, sg = fork.driver_for(ns).stats, fresh.driver_for(ns).stats
            assert (sf.requests, sf.errors, sf.latency_sum_ms) == \
                (sg.requests, sg.errors, sg.latency_sum_ms)
        fork.close()
        fresh.close()

    def test_fork_owns_a_fresh_export_root(self):
        origin = CloudEnvironment(HotelReservation, seed=1, workload_rate=10)
        origin.advance(5.0)
        fork = origin.snapshot().fork()
        assert fork.export_root != origin.export_root
        assert fork.export_root.exists()
        assert fork._owns_export_root
        fork.close()
        assert not fork.export_root.exists()  # fork cleans up only its own
        assert origin.export_root.exists()
        origin.close()


class TestSnapshotGrid:
    PID = "misconfig_k8s_social_net-detection-1"

    def _snapshot(self, seed=7):
        problem = get_problem(self.PID)
        env = problem.create_environment(seed=seed)
        problem.start_workload(env)
        problem.inject_fault(env)
        snapshot = env.snapshot(extras=problem)
        env.close()
        return snapshot

    def test_grid_cell_matches_cold_session(self):
        """A snapshot-forked session grades identically to a cold
        setup-from-scratch session at the same (env seed, agent seed)."""
        from repro.core.orchestrator import SessionHandle
        snapshot = self._snapshot(seed=7)
        warm = run_grid_cell(snapshot, GridCell(
            agent=agent_factory("flash"), agent_name="flash",
            seed=7, max_steps=6))

        problem = get_problem(self.PID)
        handle = SessionHandle(problem, seed=7, agent_name="flash")
        agent = agent_factory("flash")(handle.context, problem.task_type, 7)
        handle.bind_agent(agent, name="flash")
        cold = handle.run_sync(max_steps=6)
        handle.close()
        warm.pop("agent_seed", None)
        warm.pop("max_steps", None)
        assert warm == cold

    def test_grid_pool_bit_identical_to_serial(self):
        snapshot = self._snapshot()
        cells = [GridCell(agent=agent_factory(name), agent_name=name,
                          seed=seed, max_steps=limit)
                 for name in ("gpt-4-w-shell", "flash")
                 for seed in (0, 1)
                 for limit in (4, 6)]
        serial = run_grid(snapshot, cells, processes=1)
        pooled = run_grid(snapshot, cells, processes=2)
        assert len(serial) == len(cells)
        assert serial == pooled

    def test_sweep_grid_shapes_and_executors(self):
        from repro.bench import BenchmarkRunner
        snapshot = BenchmarkRunner(max_steps=5, seed=7) \
            .prepare_snapshot(self.PID)
        serial = BenchmarkRunner(max_steps=5, seed=7).sweep_grid(
            snapshot, agents=("flash",), seeds=(0, 1, 2),
            step_limits=(3, 5))
        pooled = BenchmarkRunner(max_steps=5, seed=7,
                                 concurrency=2).sweep_grid(
            snapshot, agents=("flash",), seeds=(0, 1, 2),
            step_limits=(3, 5))
        assert len(serial) == 6
        assert serial == pooled
        assert [(r["agent_seed"], r["max_steps"]) for r in serial] == \
            [(s, l) for s in (0, 1, 2) for l in (3, 5)]
        assert all(r["pid"] == self.PID for r in serial)

    def test_grid_cell_requires_co_captured_problem(self):
        env = CloudEnvironment(HotelReservation, seed=1, workload_rate=10)
        snapshot = env.snapshot()  # no extras
        env.close()
        with pytest.raises(ValueError, match="co-capture"):
            run_grid_cell(snapshot, GridCell(agent=agent_factory("flash"),
                                             agent_name="flash"))

    def test_run_grid_validates_processes(self):
        snapshot = self._snapshot()
        with pytest.raises(ValueError):
            run_grid(snapshot, [], processes=0)
        assert run_grid(snapshot, [], processes=2) == []

    def test_snapshot_is_picklable_and_compact_enough(self):
        import pickle
        snapshot = self._snapshot()
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.taken_at == snapshot.taken_at
        assert clone.size_bytes == snapshot.size_bytes
        fork = clone.fork()
        assert fork.clock.now == snapshot.taken_at
        fork.close()


class TestGeneratedSnapshotGrid:
    """Snapshot/fork on *generated* problems: the warm-worker grid must
    treat a procedurally synthesized pool exactly like the hand-written
    one — fork sessions bit-identical to cold setup-from-scratch runs,
    across trigger shapes, fidelity tiers and multi-tenant app sets."""

    def _sample_pids(self):
        """Deterministic shape-diverse sample of the seed-0 pool: the
        first delayed, metric and chain recipes (multi-app + both
        fidelity tiers among them)."""
        from repro.problems import ScenarioGenerator
        gen = ScenarioGenerator(0)
        picked = {}
        for i in range(30):
            spec = gen.spec(i)
            if spec.shape in ("delayed", "metric", "chain") \
                    and spec.shape not in picked:
                picked[spec.shape] = spec.pid
        return list(picked.values())

    def test_generated_fork_matches_cold_session(self):
        from repro.core.orchestrator import SessionHandle
        for pid in self._sample_pids():
            problem = get_problem(pid)
            env = problem.create_environment(seed=7)
            problem.start_workload(env)
            problem.inject_fault(env)
            snapshot = env.snapshot(extras=problem)
            env.close()
            warm = run_grid_cell(snapshot, GridCell(
                agent=agent_factory("flash"), agent_name="flash",
                seed=7, max_steps=5))

            cold_problem = get_problem(pid)
            handle = SessionHandle(cold_problem, seed=7, agent_name="flash")
            agent = agent_factory("flash")(handle.context,
                                           cold_problem.task_type, 7)
            handle.bind_agent(agent, name="flash")
            cold = handle.run_sync(max_steps=5)
            handle.close()
            warm.pop("agent_seed", None)
            warm.pop("max_steps", None)
            assert warm == cold, pid

    def test_generated_sweep_grid_pooled_matches_serial(self):
        from repro.bench import BenchmarkRunner
        pid = self._sample_pids()[0]
        snapshot = BenchmarkRunner(max_steps=4, seed=7) \
            .prepare_snapshot(pid)
        serial = BenchmarkRunner(max_steps=4, seed=7).sweep_grid(
            snapshot, agents=("flash",), seeds=(0, 1), step_limits=(3, 4))
        pooled = BenchmarkRunner(max_steps=4, seed=7,
                                 concurrency=2).sweep_grid(
            snapshot, agents=("flash",), seeds=(0, 1), step_limits=(3, 4))
        assert len(serial) == 4
        assert serial == pooled
        assert all(r["pid"] == pid for r in serial)

    def test_generated_snapshot_pickle_roundtrip(self):
        """Generated problems (spec-driven, clone tenants included) are
        picklable as snapshot extras."""
        import pickle
        from repro.bench import BenchmarkRunner
        pid = self._sample_pids()[0]
        snapshot = BenchmarkRunner(max_steps=4, seed=7) \
            .prepare_snapshot(pid)
        clone = pickle.loads(pickle.dumps(snapshot))
        fork, problem = clone.fork_with_extras()
        assert problem.pid == pid
        fork.close()
