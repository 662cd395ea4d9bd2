from repro.core.judge import LlmJudge
from repro.core.session import Session, Step


def make_session(steps, solution=None, submitted=True):
    s = Session(pid="p", agent_name="a", started_at=0.0)
    s.ended_at = 10.0
    for i, (name, obs) in enumerate(steps):
        s.add_step(Step(index=i, time=float(i), action_raw=f"{name}(...)",
                        action_name=name, action_args=(), observation=obs))
    s.solution = solution
    s.submitted = submitted
    return s


class TestSession:
    def test_elapsed(self):
        s = make_session([])
        assert s.elapsed() == 10.0

    def test_elapsed_unended(self):
        s = Session(pid="p", agent_name="a", started_at=5.0)
        assert s.elapsed() == 0.0

    def test_token_accumulation(self):
        s = make_session([])
        s.add_tokens(10, 5)
        s.add_tokens(20, 5)
        assert (s.input_tokens, s.output_tokens) == (30, 10)

    def test_transcript_truncates_observations(self):
        s = make_session([("get_logs", "x" * 1000)])
        assert "truncated" in s.transcript(max_obs_chars=100)


class TestJudgeRubric:
    def test_grounded_yes_with_evidence(self):
        s = make_session(
            [("get_logs", "geo: 12 ERROR lines")], solution="yes")
        verdict = LlmJudge().judge(s, "detection")
        assert verdict.grounded and verdict.score == 1.0

    def test_ungrounded_yes_without_evidence(self):
        """§4's failure case: claiming a fault citing normal workload."""
        s = make_session(
            [("get_logs", "No ERROR-level log lines found")], solution="yes")
        verdict = LlmJudge().judge(s, "detection")
        assert not verdict.grounded

    def test_grounded_no_on_clean_system(self):
        s = make_session(
            [("get_logs", "No ERROR-level log lines found in namespace ns")],
            solution="no")
        assert LlmJudge().judge(s, "detection").grounded

    def test_ungrounded_no_despite_errors(self):
        s = make_session(
            [("get_logs", "geo: 10 ERROR lines")], solution="no")
        assert not LlmJudge().judge(s, "detection").grounded

    def test_ungrounded_no_without_checking(self):
        s = make_session([], solution="no")
        assert not LlmJudge().judge(s, "detection").grounded

    def test_localization_names_must_appear_in_evidence(self):
        s = make_session(
            [("get_logs",
              "ERROR [geo] failed to call mongodb-geo: not authorized")],
            solution=["mongodb-geo"])
        assert LlmJudge().judge(s, "localization").grounded

    def test_localization_unseen_name_ungrounded(self):
        s = make_session(
            [("get_logs", "ERROR [geo] failure")], solution=["rate"])
        assert not LlmJudge().judge(s, "localization").grounded

    def test_custom_llm_callable_overrides(self):
        s = make_session([("get_logs", "geo: 5 ERROR lines")], solution="yes")
        judge = LlmJudge(llm=lambda prompt: "UNGROUNDED: suspicious")
        verdict = judge.judge(s, "detection")
        assert not verdict.grounded and "suspicious" in verdict.rationale
