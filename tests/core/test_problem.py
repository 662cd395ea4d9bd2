import pickle

import pytest

from repro.core.evaluator import system_healthy
from repro.core.problem import (
    AnalysisTask, DetectionTask, LocalizationTask, MitigationTask,
)
from repro.problems import get_problem


class TestProblemConstruction:
    def test_fault_resolves_default_target(self):
        p = DetectionTask("RevokeAuth")
        assert p.target == "mongodb-geo"
        assert p.app_name == "HotelReservation"

    def test_by_number(self):
        p = LocalizationTask(2, target="text-service")
        assert p.spec.name == "TargetPortMisconfig"
        assert p.ans == "text-service"

    def test_noop_problem(self):
        p = DetectionTask("Noop", app_name="HotelReservation")
        assert p.spec is None
        assert p.ans == "no"

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            DetectionTask("Noop", app_name="NotAnApp")

    def test_pid_shape(self):
        p = MitigationTask(3)
        assert "revoke_auth_hotel_res-mitigation" in p.pid


class TestDetectionEval:
    def test_exact_yes(self):
        p = DetectionTask("RevokeAuth")
        res = p.eval("yes", None, 12.0)
        assert res["success"] and res["TTD"] == 12.0

    def test_case_and_quotes_normalized(self):
        p = DetectionTask("RevokeAuth")
        assert p.eval('"Yes"', None, 1.0)["success"]

    def test_wrong_answer(self):
        p = DetectionTask("RevokeAuth")
        assert not p.eval("no", None, 1.0)["success"]

    def test_noop_expects_no(self):
        p = DetectionTask("Noop", app_name="SocialNetwork")
        assert p.eval("no", None, 1.0)["success"]
        assert not p.eval("yes", None, 1.0)["success"]


class TestLocalizationEval:
    def test_top1_hit(self):
        p = LocalizationTask(2, target="user-service")
        res = p.eval(["user-service", "x"], None, 5.0)
        assert res["success@1"] and res["success@3"] and res["success"]

    def test_top3_only(self):
        p = LocalizationTask(2, target="user-service")
        res = p.eval(["x", "y", "user-service"], None, 5.0)
        assert not res["success@1"] and res["success@3"]
        assert not res["success"]  # headline accuracy is @1

    def test_beyond_top3_misses(self):
        p = LocalizationTask(2, target="user-service")
        res = p.eval(["a", "b", "c", "user-service"], None, 5.0)
        assert not res["success@3"]

    def test_string_answer_accepted(self):
        p = LocalizationTask(2, target="user-service")
        assert p.eval("user-service", None, 5.0)["success@1"]

    def test_empty_answer(self):
        p = LocalizationTask(2, target="user-service")
        res = p.eval([], None, 5.0)
        assert not res["success@1"] and not res["success@3"]


class TestAnalysisEval:
    def test_both_subtasks_correct(self):
        p = AnalysisTask(3)  # revoke auth: application / operation_error
        res = p.eval({"system_level": "application",
                      "fault_type": "operation_error"}, None, 5.0)
        assert res["success"] and res["subtasks_correct"] == 2

    def test_one_subtask_correct(self):
        p = AnalysisTask(3)
        res = p.eval({"system_level": "application",
                      "fault_type": "misconfiguration"}, None, 5.0)
        assert not res["success"] and res["subtasks_correct"] == 1

    def test_non_dict_answer(self):
        p = AnalysisTask(3)
        res = p.eval("application", None, 5.0)
        assert res["subtasks_correct"] == 0

    def test_ground_truth_from_spec(self):
        p = AnalysisTask(2, target="user-service")  # target-port misconfig
        res = p.eval({"system_level": "virtualization",
                      "fault_type": "misconfiguration"}, None, 5.0)
        assert res["success"]


class TestMitigationEval:
    def test_requires_environment(self):
        p = MitigationTask(6)
        res = p.eval(None, None, 5.0, env=None)
        assert not res["success"]

    def test_healthy_after_oracle_recovery(self):
        p = MitigationTask(6, target="compose-post-service")
        env = p.create_environment(seed=2)
        try:
            p.start_workload(env)
            p.inject_fault(env)
            p.recover_fault(env)
            res = p.eval(None, None, 5.0, env=env)
            assert res["success"], res["reason"]
        finally:
            env.close()

    def test_unhealthy_while_fault_active(self):
        p = MitigationTask(6, target="compose-post-service")
        env = p.create_environment(seed=2)
        try:
            p.start_workload(env)
            p.inject_fault(env)
            res = p.eval(None, None, 5.0, env=env)
            assert not res["success"]
            assert "scaled to zero" in res["reason"]
        finally:
            env.close()


class TestProblemIsADefinition:
    """A problem is the ⟨T, C, S⟩ tuple: run state lives on the
    environment it prepares, and each value is stated once."""

    PID = "revoke_auth_hotel_res-mitigation-1"

    def test_workload_rate_is_read_only_over_the_primary_app(self):
        p = get_problem("revoke_auth_hotel_res-detection-1")
        assert p.workload_rate == p.apps[0].workload_rate == 60.0
        with pytest.raises(AttributeError):
            p.workload_rate = 120.0
        with pytest.raises(TypeError, match="apps"):
            class Faster(DetectionTask):
                workload_rate = 120.0
        env = p.create_environment(seed=0)
        assert env.driver.policy.rps == 60.0
        env.close()

    def test_one_instance_prepares_independent_environments(self):
        p = get_problem(self.PID)
        before = dict(vars(p))
        pickled = pickle.dumps(p)
        envs = [p.prepare(seed) for seed in (0, 1)]
        for env in envs:
            assert env.armed.env is env
        p.recover_fault(envs[0])
        assert vars(p) == before
        assert pickle.dumps(p) == pickled
        assert system_healthy(envs[0])[0]
        healthy, reason = system_healthy(envs[1])
        assert not healthy and "error rate" in reason
        for env in envs:
            env.close()


class TestIncidentKey:
    """What a problem prepares, as a digest: the task pids of one
    incident share it, so the baselines prepare each incident once."""

    def test_task_pids_of_one_incident_share_a_key(self):
        from repro.problems import benchmark_pids, noop_pids, split_pid

        keys: dict = {}
        for pid in benchmark_pids() + noop_pids():
            stem, _, index = split_pid(pid)
            keys.setdefault((stem, index), set()).add(
                get_problem(pid).incident_key())
        assert len(keys) == 15      # 13 incidents + 2 Noop probes
        assert all(len(shared) == 1 for shared in keys.values())
        assert len(set().union(*keys.values())) == 15

    def test_overriding_a_preparation_step_changes_the_key(self):
        class LongerSoak(LocalizationTask):
            def inject_fault(self, env):
                super().inject_fault(env)
                env.advance(10.0)

        plain = LocalizationTask("RevokeAuth")
        longer = LongerSoak("RevokeAuth")
        assert LocalizationTask("RevokeAuth").incident_key() == \
            plain.incident_key()
        assert longer.incident_key() != plain.incident_key()

    def test_assigning_a_value_changes_the_key(self):
        p = get_problem("revoke_auth_hotel_res-detection-1")
        before = p.incident_key()
        p.fidelity = "aggregate"
        assert p.incident_key() != before
