"""Orchestrator v2: session handles, concurrency, the compat shim, and the
execution-error fixes that came with the redesign."""

import asyncio

import pytest

from repro.core import Orchestrator
from repro.core.batch import SessionSpec, run_sessions_sync
from repro.core.problem import DetectionTask, LocalizationTask, MitigationTask


class ScriptedAgent:
    def __init__(self, actions):
        self.actions = list(actions)
        self.i = 0

    async def get_action(self, state: str) -> str:
        action = self.actions[min(self.i, len(self.actions) - 1)]
        self.i += 1
        return action


DETECT_SCRIPT = ['get_logs("test-hotel-reservation", "all")', 'submit("yes")']


class ExplodingAgent:
    def get_action(self, state):
        raise RuntimeError("agent crashed")


class TestSessionHandle:
    def test_create_session_returns_independent_handle(self, closing):
        orch = closing(Orchestrator())
        h1 = orch.create_session(DetectionTask("RevokeAuth"), seed=1)
        h2 = orch.create_session(DetectionTask("RevokeAuth"), seed=1)
        assert h1.env is not h2.env
        assert h1.actions is not h2.actions
        assert orch.handles == [h1, h2]

    def test_context_unpacks_like_seed_tuple(self, closing):
        orch = closing(Orchestrator())
        handle = orch.create_session("revoke_auth_hotel_res-detection-1",
                                     seed=3)
        prob_desc, instructs, apis = handle.context
        assert "HotelReservation" in prob_desc
        assert "submit" in instructs
        assert "get_logs" in apis

    def test_run_sync_drives_loop(self, closing):
        orch = closing(Orchestrator())
        handle = orch.create_session(DetectionTask("RevokeAuth"),
                                     ScriptedAgent(DETECT_SCRIPT), seed=3)
        res = handle.run_sync(max_steps=10)
        assert res["success"] and handle.session.submitted

    def test_run_without_agent_rejected(self, closing):
        handle = closing(Orchestrator()).create_session(DetectionTask("RevokeAuth"))
        with pytest.raises(RuntimeError):
            handle.run_sync()

    def test_bad_agent_rejected(self, closing):
        handle = closing(Orchestrator()).create_session(DetectionTask("RevokeAuth"))
        with pytest.raises(TypeError):
            handle.bind_agent(object())

    def test_mitigation_session_sees_restart_service(self, closing):
        orch = closing(Orchestrator())
        mit = orch.create_session(MitigationTask(6,
                                                 target="compose-post-service"),
                                  seed=3)
        det = orch.create_session(DetectionTask("RevokeAuth"), seed=3)
        assert "restart_service" in mit.registry
        assert "restart_service" not in det.registry
        assert "restart_service(" in mit.context.api_docs
        assert "restart_service(" not in det.context.api_docs

    def test_step_records_structured_observation(self, closing):
        orch = closing(Orchestrator())
        handle = orch.create_session(DetectionTask("RevokeAuth"),
                                     ScriptedAgent(DETECT_SCRIPT), seed=3)
        handle.run_sync(max_steps=5)
        step = handle.session.steps[0]
        assert step.artifacts, "telemetry action must record artifact paths"
        assert "error_counts" in step.payload

    def test_release_untracks_handle(self):
        orch = Orchestrator()
        handle = orch.create_session(DetectionTask("RevokeAuth"))
        assert orch.handles == [handle]
        orch.release(handle)
        assert orch.handles == []

    def test_two_handles_run_concurrently_without_sharing_state(self, closing):
        orch = closing(Orchestrator())
        h1 = orch.create_session(DetectionTask("RevokeAuth"),
                                 ScriptedAgent(DETECT_SCRIPT), seed=7)
        h2 = orch.create_session(
            LocalizationTask(2, target="user-service"),
            ScriptedAgent(['get_logs("test-social-network", "all")',
                           'submit(["user-service"])']), seed=7)

        async def both():
            return await asyncio.gather(h1.run(10), h2.run(10))

        r1, r2 = asyncio.run(both())
        assert r1["success"] and r2["success@1"]
        assert h1.env is not h2.env
        assert h1.session is not h2.session
        assert h1.session.pid != h2.session.pid


class TestCompatShim:
    def test_seed_flow_unchanged(self, closing):
        orch = closing(Orchestrator(seed=3))
        prob_desc, instructs, apis = orch.init_problem(
            DetectionTask("RevokeAuth"))
        orch.register_agent(ScriptedAgent(DETECT_SCRIPT), name="scripted")
        res = orch.run_problem(max_steps=10)
        assert res["success"]
        assert orch.session.agent_name == "scripted"
        assert orch.sessions and orch.sessions[-1] is orch.session

    def test_context_supports_tuple_indexing(self, closing):
        """v1 returned a plain tuple; indexing/len must keep working."""
        orch = closing(Orchestrator(seed=3))
        ctx = orch.init_problem(DetectionTask("RevokeAuth"))
        assert len(ctx) == 3
        assert "HotelReservation" in ctx[0]
        assert "get_logs" in ctx[2]
        assert tuple(ctx) == (ctx.description, ctx.instructions, ctx.api_docs)

    def test_shim_does_not_accumulate_handles(self, closing):
        """The seed flow held one problem at a time; re-initialising must
        not pin the replaced environment on the orchestrator."""
        orch = closing(Orchestrator(seed=3))
        orch.init_problem(DetectionTask("RevokeAuth"))
        orch.init_problem(DetectionTask("RevokeAuth"))
        assert len(orch.handles) == 1

    def test_register_before_init_still_works(self, closing):
        orch = closing(Orchestrator(seed=3))
        orch.register_agent(ScriptedAgent(DETECT_SCRIPT))
        orch.init_problem(DetectionTask("RevokeAuth"))
        assert orch.run_problem(max_steps=10)["success"]

    def test_partial_session_reachable_after_agent_crash(self, closing):
        """v1 exposed the session from loop start; a crash mid-run must not
        make the partial trajectory unreachable."""
        class CrashAfterOne:
            def __init__(self):
                self.calls = 0

            async def get_action(self, state):
                self.calls += 1
                if self.calls > 1:
                    raise RuntimeError("agent crashed")
                return 'get_logs("test-hotel-reservation", "all")'

        orch = closing(Orchestrator(seed=3))
        orch.init_problem(DetectionTask("RevokeAuth"))
        orch.register_agent(CrashAfterOne())
        with pytest.raises(RuntimeError, match="agent crashed"):
            orch.run_problem(max_steps=5)
        assert len(orch.sessions) == 1
        assert orch.sessions[-1].steps[0].action_name == "get_logs"

    def test_run_problem_inside_running_event_loop(self, closing):
        """The seed's bare asyncio.run crashed in notebooks/async drivers."""
        async def driver():
            orch = closing(Orchestrator(seed=3))
            orch.init_problem(DetectionTask("RevokeAuth"))
            orch.register_agent(ScriptedAgent(DETECT_SCRIPT))
            return orch.run_problem(max_steps=10)

        res = asyncio.run(driver())
        assert res["success"]


class TestExecutionErrors:
    @pytest.fixture(autouse=True)
    def _closing(self, closing):
        self.closing = closing

    def _handle(self, script, seed=3):
        orch = self.closing(Orchestrator())
        return orch.create_session(DetectionTask("RevokeAuth"),
                                   ScriptedAgent(script), seed=seed)

    def test_signature_mismatch_reports_invalid_arguments(self):
        handle = self._handle(['get_logs("ns", "all", 5, "extra")',
                               'submit("yes")'])
        handle.run_sync(max_steps=5)
        obs = handle.session.steps[0].observation
        assert obs.startswith("Error: invalid arguments for get_logs")

    @pytest.mark.parametrize("call, param, expected, got", [
        ('get_metrics("test-hotel-reservation", "5")',
         "duration", "int", "'5' (str)"),
        ('get_logs("test-hotel-reservation", "geo", "3")',
         "tail", "int", "'3' (str)"),
        ('exec_shell(None)', "command", "str", "None (NoneType)"),
        ('get_logs(["a"], "geo")', "namespace", "str", "['a'] (list)"),
        # a count must be finite (this one raised OverflowError in the body)
        ('get_logs("test-hotel-reservation", "geo", 1e999)',
         "tail", "int", "inf (float)"),
    ])
    def test_wrong_typed_argument_names_the_parameter(
            self, call, param, expected, got):
        """These four reached the agent as raw Python TypeErrors."""
        handle = self._handle([call, 'submit("yes")'])
        handle.run_sync(max_steps=5)
        name = call.split("(")[0]
        assert handle.session.steps[0].observation == (
            f"Error: invalid arguments for {name}: "
            f"{param} must be {expected}, got {got}")

    @pytest.mark.parametrize("call", [
        'get_metrics(None)',                       # session namespace
        'get_logs(None, "geo")',
        'get_metrics("test-hotel-reservation", 2.5)',   # float minutes
        'get_logs("test-hotel-reservation", "geo", tail=3)',
        'get_logs("test-hotel-reservation", "geo", 2.5)',   # float lines
        'exec_shell("kubectl get pods -n test-hotel-reservation")',
    ])
    def test_calls_accepted_before_stay_accepted(self, call):
        handle = self._handle([call, 'submit("yes")'])
        handle.run_sync(max_steps=5)
        obs = handle.session.steps[0].observation
        assert not obs.startswith("Error"), obs

    def test_typeerror_inside_action_not_misreported(self, monkeypatch):
        """The line between "the environment refused the action" and "the
        simulator broke": a ``SimError`` from an action body is feedback the
        agent can act on; any other exception is a simulator defect — it
        propagates out of ``run`` and the batch executor's case boundary
        records it in ``outcome.error`` (errored, not *agent failed*)."""
        from repro.core.shell import ShellExecutor
        from repro.simcore import InvalidAction
        script = ['exec_shell("kubectl get pods")', 'submit("yes")']

        def refuse(self, command):
            raise InvalidAction("refused by the environment")
        monkeypatch.setattr(ShellExecutor, "run", refuse)
        handle = self._handle(script)
        handle.run_sync(max_steps=5)
        assert handle.session.steps[0].observation == \
            "Error: refused by the environment"
        assert handle.session.submitted

        def boom(self, command):
            raise TypeError("boom inside the action body")
        monkeypatch.setattr(ShellExecutor, "run", boom)
        with pytest.raises(TypeError, match="boom inside the action body"):
            self._handle(script).run_sync(max_steps=5)
        outcome, = run_sessions_sync(
            [SessionSpec(problem=DetectionTask("RevokeAuth"),
                         agent=ScriptedAgent(script), seed=3, max_steps=5)],
            concurrency=1)
        self.closing(outcome.handle)
        assert not outcome.ok and outcome.result is None
        assert isinstance(outcome.error, TypeError)
        assert not outcome.session.submitted

    def test_shell_command_recorded_from_keyword_argument(self):
        handle = self._handle(
            ['exec_shell(command="kubectl get pods -n test-hotel-reservation")',
             'submit("yes")'])
        handle.run_sync(max_steps=5)
        step = handle.session.steps[0]
        assert step.action_name == "exec_shell"
        assert step.shell_command == "kubectl"


class TestBatchExecutor:
    def _specs(self, n=3, max_steps=6):
        return [
            SessionSpec(
                problem=DetectionTask("RevokeAuth"),
                agent=ScriptedAgent(DETECT_SCRIPT),
                agent_name=f"a{i}",
                seed=i,
                max_steps=max_steps,
            )
            for i in range(n)
        ]

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_outcomes_in_spec_order(self, concurrency, closing):
        outcomes = run_sessions_sync(self._specs(), concurrency=concurrency)
        for o in outcomes:
            if o.handle is not None:  # the pool releases its own
                closing(o.handle)
        assert [o.spec.agent_name for o in outcomes] == ["a0", "a1", "a2"]
        assert all(o.ok and o.result["success"] for o in outcomes)

    def test_agent_factory_spec(self, closing):
        built = []

        def factory(context, task_type, seed):
            built.append((task_type, seed))
            return ScriptedAgent(DETECT_SCRIPT)

        spec = SessionSpec(problem="revoke_auth_hotel_res-detection-1",
                           agent=factory, seed=11)
        [outcome] = run_sessions_sync([spec], concurrency=1)
        closing(outcome.handle)
        assert outcome.ok
        assert built == [("detection", 11)]

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_failing_session_isolated(self, concurrency, closing):
        specs = self._specs(2)
        specs.insert(1, SessionSpec(problem=DetectionTask("RevokeAuth"),
                                    agent=ExplodingAgent(), seed=9))
        outcomes = run_sessions_sync(specs, concurrency=concurrency)
        for o in outcomes:
            if o.handle is not None:  # the pool releases its own
                closing(o.handle)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert "agent crashed" in str(outcomes[1].error)

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_fail_fast_propagates_first_error(self, concurrency):
        specs = [SessionSpec(problem=DetectionTask("RevokeAuth"),
                             agent=ExplodingAgent(), seed=9)]
        with pytest.raises(RuntimeError, match="agent crashed"):
            run_sessions_sync(specs, concurrency=concurrency, fail_fast=True)

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_release_handles_drops_env_keeps_trajectory(self, concurrency):
        outcomes = run_sessions_sync(self._specs(2), concurrency=concurrency,
                                     release_handles=True)
        for o in outcomes:
            assert o.ok
            assert o.handle is None
            assert o.session is not None and o.session.submitted

    def test_serial_keeps_live_handles_by_default(self):
        [outcome] = run_sessions_sync(self._specs(1), concurrency=1)
        assert outcome.handle.session is outcome.session
        outcome.handle.close()

    def test_bad_concurrency_rejected(self):
        with pytest.raises(ValueError):
            run_sessions_sync(self._specs(1), concurrency=0)

    def test_serial_path_inside_running_event_loop(self):
        """``concurrency=1`` is loop-safe and accepts an ``async def
        get_action`` agent (ScriptedAgent is one)."""
        async def driver():
            return run_sessions_sync(self._specs(2), concurrency=1,
                                     release_handles=True)

        outcomes = asyncio.run(driver())
        assert all(o.ok and o.result["success"] for o in outcomes)
