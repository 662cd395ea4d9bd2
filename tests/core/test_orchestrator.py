import pytest

from repro.core import Orchestrator
from repro.core.problem import DetectionTask, LocalizationTask, MitigationTask


class ScriptedAgent:
    """Plays back a fixed action script (the paper's minimal agent shape)."""

    def __init__(self, actions):
        self.actions = list(actions)
        self.i = 0

    async def get_action(self, state: str) -> str:
        action = self.actions[min(self.i, len(self.actions) - 1)]
        self.i += 1
        return action


class SyncAgent:
    """get_action may be a plain function — the orchestrator must accept it."""

    def get_action(self, state: str) -> str:
        return 'submit("yes")'


def run(closing, problem, agent, max_steps=10, seed=3):
    orch = closing(Orchestrator(seed=seed))
    orch.init_problem(problem)
    orch.register_agent(agent, name="scripted")
    return orch, orch.run_problem(max_steps=max_steps)


class TestSessionLoop:
    def test_detection_happy_path(self, closing):
        orch, res = run(closing, DetectionTask("RevokeAuth"),
                        ScriptedAgent(['get_logs("test-hotel-reservation", "all")',
                                       'submit("yes")']))
        assert res["success"] and res["steps"] == 2

    def test_sync_agent_supported(self, closing):
        _, res = run(closing, DetectionTask("RevokeAuth"), SyncAgent())
        assert res["success"]

    def test_localization_full_interaction(self, closing):
        agent = ScriptedAgent([
            'get_logs("test-social-network", "all")',
            'exec_shell("kubectl get endpoints -n test-social-network")',
            'submit(["user-service"])',
        ])
        _, res = run(closing, LocalizationTask(2, target="user-service"), agent)
        assert res["success@1"]

    def test_invalid_action_feeds_error_back(self, closing):
        agent = ScriptedAgent(["not an action at all", 'submit("yes")'])
        orch, res = run(closing, DetectionTask("RevokeAuth"), agent)
        first = orch.session.steps[0]
        assert not first.valid
        assert first.observation.startswith("Error:")
        assert res["success"]  # agent recovered on step 2

    def test_step_limit_without_submission_fails(self, closing):
        agent = ScriptedAgent(['get_metrics("test-hotel-reservation", 5)'])
        _, res = run(closing, DetectionTask("RevokeAuth"), agent, max_steps=4)
        assert not res["success"]
        assert res["steps"] == 4
        assert res["reason"] == "no submission within step limit"

    def test_no_submission_rule_detection(self, closing):
        """A session that never submits fails after grading; the summary
        keys come first, then the task's own, then the appended reason."""
        orch = closing(Orchestrator())
        handle = orch.create_session(
            "revoke_auth_hotel_res-detection-1", seed=3,
            agent=ScriptedAgent(['get_metrics("test-hotel-reservation", 5)']))
        res = handle.run_sync(max_steps=3)
        assert res["success"] is False
        assert res["reason"] == "no submission within step limit"
        assert list(res) == ["pid", "task_type", "agent", "success",
                             "duration_s", "steps", "input_tokens",
                             "output_tokens", "TTD", "reason"]
        assert handle.result is res

    def test_no_submission_rule_mitigation(self, closing):
        """A mitigation that repairs the system but never submits still
        fails; the grader's own health reason is kept."""
        orch = closing(Orchestrator())
        handle = orch.create_session(
            "scale_pod_zero_social_net-mitigation-1", seed=3,
            agent=ScriptedAgent([
                'exec_shell("kubectl scale deployment compose-post-service '
                '--replicas=1 -n test-social-network")']))
        res = handle.run_sync(max_steps=3)
        assert res["success"] is False
        assert res["reason"] == "system healthy"
        assert list(res) == ["pid", "task_type", "agent", "success",
                             "duration_s", "steps", "input_tokens",
                             "output_tokens", "TTM", "reason"]

    def test_mitigation_graded_on_environment(self, closing):
        agent = ScriptedAgent([
            'exec_shell("kubectl scale deployment compose-post-service '
            '--replicas=1 -n test-social-network")',
            "submit()",
        ])
        _, res = run(closing, MitigationTask(6, target="compose-post-service"), agent)
        assert res["success"], res.get("reason")

    def test_mitigation_wrong_fix_fails(self, closing):
        agent = ScriptedAgent([
            'exec_shell("kubectl rollout restart deployment nginx-web-server '
            '-n test-social-network")',
            "submit()",
        ])
        _, res = run(closing, MitigationTask(6, target="compose-post-service"), agent)
        assert not res["success"]

    def test_trajectory_recorded(self, closing):
        agent = ScriptedAgent(['get_logs("test-hotel-reservation", "all")',
                               'submit("yes")'])
        orch, _ = run(closing, DetectionTask("RevokeAuth"), agent)
        assert len(orch.session.steps) == 2
        assert orch.session.steps[0].action_name == "get_logs"
        assert orch.session.steps[1].action_name == "submit"
        assert orch.session.submitted

    def test_virtual_time_advances_during_session(self, closing):
        agent = ScriptedAgent(['get_logs("test-hotel-reservation", "all")',
                               'submit("yes")'])
        orch, res = run(closing, DetectionTask("RevokeAuth"), agent)
        assert res["duration_s"] > 0

    def test_problem_by_pid_string(self, closing):
        orch = closing(Orchestrator(seed=3))
        prob_desc, instructs, apis = orch.init_problem(
            "revoke_auth_hotel_res-detection-1")
        assert "HotelReservation" in prob_desc
        assert "get_logs" in apis

    def test_unknown_pid_rejected(self):
        with pytest.raises(KeyError):
            Orchestrator().init_problem("no-such-problem")

    def test_start_before_init_rejected(self):
        orch = Orchestrator()
        orch.register_agent(SyncAgent())
        with pytest.raises(RuntimeError):
            orch.run_problem()

    def test_start_before_register_rejected(self, closing):
        orch = closing(Orchestrator())
        orch.init_problem(DetectionTask("RevokeAuth"))
        with pytest.raises(RuntimeError):
            orch.run_problem()

    def test_agent_without_get_action_rejected(self):
        orch = Orchestrator()
        with pytest.raises(TypeError):
            orch.register_agent(object())

    def test_problem_context_shared(self, closing):
        orch = closing(Orchestrator(seed=3))
        prob_desc, instructs, apis = orch.init_problem(DetectionTask("RevokeAuth"))
        assert 'namespace "test-hotel-reservation"' in prob_desc
        assert "submit" in instructs
        assert "exec_shell" in apis


class TestTokenAccounting:
    def test_stats_from_consume_stats(self, closing):
        class CountingAgent(ScriptedAgent):
            def consume_stats(self):
                return (100, 10, 2.0)

        agent = CountingAgent(['get_logs("test-hotel-reservation", "all")',
                               'submit("yes")'])
        _, res = run(closing, DetectionTask("RevokeAuth"), agent)
        assert res["input_tokens"] == 200
        assert res["output_tokens"] == 20
