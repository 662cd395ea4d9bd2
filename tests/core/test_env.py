import pytest

from repro.apps import HotelReservation, SocialNetwork
from repro.core import AppSpec, CloudEnvironment
from repro.telemetry.metrics import MetricStore
from repro.workload import BurstRate, DiurnalRate


class TestCloudEnvironment:
    def test_builds_all_subsystems(self, closing):
        env = closing(CloudEnvironment(HotelReservation, seed=1))
        assert env.cluster is not None
        assert env.runtime is not None
        assert env.kubectl is not None
        assert env.exporter is not None

    def test_namespace_from_app(self, closing):
        env = closing(CloudEnvironment(SocialNetwork, seed=1))
        assert env.namespace == "test-social-network"

    def test_advance_runs_workload(self, closing):
        env = closing(CloudEnvironment(HotelReservation, seed=1, workload_rate=30))
        env.advance(10)
        assert env.driver.stats.requests == 300
        assert env.clock.now == pytest.approx(10.0)

    def test_probe_error_rate_healthy(self, closing):
        env = closing(CloudEnvironment(HotelReservation, seed=1, workload_rate=30))
        env.advance(5)
        assert env.probe_error_rate(5) == 0.0

    def test_probe_error_rate_under_fault(self, closing):
        env = closing(CloudEnvironment(HotelReservation, seed=1, workload_rate=30))
        env.app.backends["mongodb-geo"].revoke_roles("admin")
        assert env.probe_error_rate(10) > 0.1

    def test_kubectl_wired_to_logs(self, closing):
        env = closing(CloudEnvironment(HotelReservation, seed=1, workload_rate=30))
        env.app.backends["mongodb-geo"].revoke_roles("admin")
        env.advance(10)
        pod = next(p.name for p in env.cluster.pods_in(env.namespace)
                   if p.owner == "geo")
        out = env.kubectl.run(f"kubectl logs {pod} -n {env.namespace}")
        assert "not authorized" in out

    def test_kubectl_top_wired_to_metrics(self, closing):
        env = closing(CloudEnvironment(HotelReservation, seed=1, workload_rate=30))
        env.advance(10)
        out = env.kubectl.run(f"kubectl top pods -n {env.namespace}")
        assert "CPU" in out and "Mi" in out

    def test_exec_wired_to_app(self, closing):
        env = closing(CloudEnvironment(HotelReservation, seed=1))
        pod = next(p.name for p in env.cluster.pods_in(env.namespace)
                   if p.owner == "mongodb-geo")
        out = env.kubectl.run(
            f"kubectl exec {pod} -n {env.namespace} -- mongo --eval "
            f'"db.getUsers()"')
        assert "admin" in out

    def test_custom_export_root(self, tmp_path):
        env = CloudEnvironment(HotelReservation, seed=1,
                               export_root=tmp_path / "telemetry")
        assert str(env.exporter.root).endswith("telemetry")

    def test_seeds_reproduce_environments(self, closing):
        a = closing(CloudEnvironment(HotelReservation, seed=9, workload_rate=30))
        b = closing(CloudEnvironment(HotelReservation, seed=9, workload_rate=30))
        a.advance(10)
        b.advance(10)
        assert a.driver.stats.errors == b.driver.stats.errors
        assert a.driver.stats.per_operation == b.driver.stats.per_operation


class TestEnvironmentKernel:
    def test_env_owns_one_queue_on_shared_clock(self, closing):
        env = closing(CloudEnvironment(HotelReservation, seed=1))
        assert env.queue.clock is env.clock
        assert env.driver.queue is env.queue

    def test_scheduled_event_fires_during_advance(self, closing):
        env = closing(CloudEnvironment(HotelReservation, seed=1, workload_rate=30))
        fired = []
        env.queue.schedule_at(7.5, lambda: fired.append(env.clock.now))
        env.advance(10)
        assert fired == [7.5]

    def test_periodic_resync_scheduled(self, closing):
        env = closing(CloudEnvironment(HotelReservation, seed=1, workload_rate=30,
                                       resync_interval=20.0))
        env.advance(50)
        assert env._resync.fired == 2
        env2 = closing(CloudEnvironment(HotelReservation, seed=1, workload_rate=30,
                                        resync_interval=0.0))
        assert env2._resync is None


class TestConvergedResyncIsInert:
    """A resync of a converged cluster changes nothing a run shows.

    The resync sits on the queue like any other event, so the aggregate
    driver bounds its spans by it; it fires every 30 s from t = 0, on the
    5 s scrape grid where every span already ends, so it never cuts one.
    The per-request driver ticks once per second whatever is queued.
    Either way, stats and every scraped series equal a run without it.
    """

    #: irregular, like agent think times: window ends fall off the grid
    WINDOWS = [30.0, 3.7, 5.0, 0.4, 12.3, 1.0, 17.77, 0.0, 8.25, 45.0]

    def _run(self, build, resync_interval):
        env = build(resync_interval)
        for w in self.WINDOWS:
            env.advance(w)
        stats = [(d.stats.requests, d.stats.errors, d.stats.latency_sum_ms,
                  d.stats.per_operation) for d in env.drivers]
        metrics = env.collector.metrics
        series = {(svc, m): [a.tolist() for a in s.window()]
                  for svc in metrics.services()
                  for m in MetricStore.STANDARD_METRICS
                  if (s := metrics.series(svc, m)) is not None}
        fired = env._resync.fired if env._resync is not None else 0
        env.close()
        return stats, series, fired

    def _assert_inert(self, build):
        with_resync = self._run(build, 30.0)
        without = self._run(build, 0.0)
        assert with_resync[2] == 4 and without[2] == 0
        assert with_resync[0] == without[0]
        assert with_resync[1] == without[1]

    def test_two_app_aggregate(self):
        self._assert_inert(lambda resync: CloudEnvironment([
            AppSpec(HotelReservation,
                    policy=DiurnalRate(base=60, amplitude=0.5, period=240.0)),
            AppSpec(SocialNetwork,
                    policy=BurstRate(base=40, burst_factor=3.0, interval=90.0,
                                     burst_duration=20.0)),
        ], seed=11, fidelity="aggregate", resync_interval=resync))

    def test_per_request(self):
        self._assert_inert(lambda resync: CloudEnvironment(
            HotelReservation, seed=11, workload_rate=45,
            resync_interval=resync))


class TestEnvironmentClose:
    def test_close_removes_owned_export_root(self):
        env = CloudEnvironment(HotelReservation, seed=1)
        env.exporter.export_metrics()
        root = env.exporter.root
        assert root.exists()
        env.close()
        assert not root.exists()
        assert env.closed

    def test_close_is_idempotent(self):
        env = CloudEnvironment(HotelReservation, seed=1)
        env.close()
        env.close()

    def test_closed_env_exports_nothing(self):
        """A getter or a file tool on a closed environment raises and
        leaves no directory behind (closing is idempotent, so nothing
        would remove one)."""
        from repro.core.aci import TaskActions
        from repro.simcore import SimError

        env = CloudEnvironment(HotelReservation, seed=1)
        actions = TaskActions(env)
        actions.get_logs(env.namespace, "all")
        root = env.exporter.root
        env.close()
        for act in (lambda: actions.get_logs(env.namespace, "all"),
                    lambda: actions.get_traces(env.namespace),
                    lambda: actions.exec_shell("ls logs")):
            with pytest.raises(SimError, match="exporter is closed"):
                act()
        assert not root.exists()

    def test_close_keeps_caller_provided_root(self, tmp_path):
        root = tmp_path / "telemetry"
        env = CloudEnvironment(HotelReservation, seed=1, export_root=root)
        env.exporter.export_metrics()
        env.close()
        assert root.exists()

    def test_orchestrator_release_closes_env(self):
        from repro.core import Orchestrator
        from repro.problems import benchmark_pids

        orch = Orchestrator(seed=0)
        handle = orch.create_session(benchmark_pids()[0])
        root = handle.env.exporter.root
        assert root.exists()
        orch.release(handle)
        assert not root.exists()

    def test_failed_handle_closes_the_env_it_prepared(self, closing):
        """A handle that fails to build (a base ``Problem`` has no task
        instructions) closes the environment it prepared; an environment
        passed in stays the caller's."""
        from repro.core import Problem, SessionHandle

        with pytest.raises(NotImplementedError):
            SessionHandle(Problem("RevokeAuth"), seed=4)
        env = closing(CloudEnvironment(HotelReservation, seed=1))
        with pytest.raises(NotImplementedError):
            SessionHandle(Problem("RevokeAuth"), env=env)
        assert not env.closed

    def test_batch_release_handles_closes_envs(self):
        from repro.agents.registry import agent_factory
        from repro.core.batch import SessionSpec, run_sessions_sync

        spec = SessionSpec(
            problem="revoke_auth_hotel_res-detection-1",
            agent=agent_factory("flash"), agent_name="flash",
            seed=2, max_steps=4)
        outcomes = run_sessions_sync([spec], concurrency=1,
                                     release_handles=True)
        assert outcomes[0].ok
        assert outcomes[0].handle is None

    def test_batch_release_handles_closes_env_on_failure(self):
        """A case whose agent factory raises must still release its env
        (no one-leaked-dir-per-failed-case)."""
        from repro.core.problem import DetectionTask
        from repro.core.batch import SessionSpec, run_sessions_sync

        class RememberingProblem(DetectionTask):
            def create_environment(self, seed=0):
                self.env_ref = super().create_environment(seed)
                return self.env_ref

        def exploding_factory(context, task_type, seed):
            raise RuntimeError("boom")

        prob = RememberingProblem("RevokeAuth")
        spec = SessionSpec(problem=prob, agent=exploding_factory, seed=2)
        outcomes = run_sessions_sync([spec], concurrency=1,
                                     release_handles=True)
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, RuntimeError)
        assert outcomes[0].handle is None
        assert prob.env_ref.closed
        assert prob.env_ref.exporter.closed

    def test_batch_failure_keeps_partial_trajectory(self):
        """A case that fails mid-run still exposes its partial session."""
        from repro.core.problem import DetectionTask
        from repro.core.batch import SessionSpec, run_sessions_sync

        class FlakyAgent:
            def __init__(self):
                self.calls = 0

            def get_action(self, state):
                self.calls += 1
                if self.calls > 1:
                    raise RuntimeError("mid-run crash")
                return 'get_metrics("test-hotel-reservation")'

        spec = SessionSpec(problem=DetectionTask("RevokeAuth"),
                           agent=FlakyAgent(), seed=2, max_steps=5)
        outcomes = run_sessions_sync([spec], concurrency=1,
                                     release_handles=True)
        assert not outcomes[0].ok
        assert outcomes[0].handle is None
        assert outcomes[0].session is not None
        assert len(outcomes[0].session.steps) == 1
