from repro.bench.claims import CLAIMS
from repro.bench.report import ExperimentReport, PAPER, render_markdown
from repro.bench.runner import CaseResult, SuiteResults
from repro.core.session import Session, Step


def fake_case(agent, task, pid, success, details=None, steps=3):
    session = Session(pid=pid, agent_name=agent, started_at=0.0)
    session.ended_at = 10.0
    for i in range(steps):
        session.add_step(Step(i, float(i), 'get_logs("ns","all")',
                              "get_logs", ("ns", "all"), "obs"))
    session.add_step(Step(steps, float(steps), "submit(...)", "submit",
                          (), "Solution submitted."))
    session.submitted = True
    return CaseResult(
        agent=agent, pid=pid, task_type=task, success=success,
        duration_s=10.0, steps=steps + 1, input_tokens=100, output_tokens=10,
        details=details or {}, session=session,
    )


def fake_report():
    results = SuiteResults()
    for agent in ("gpt-4-w-shell", "gpt-3.5-w-shell", "react", "flash"):
        results.cases.append(fake_case(agent, "detection", "d-1", True))
        results.cases.append(fake_case(
            agent, "localization", "l-1", True,
            {"success@1": True, "success@3": True}))
        results.cases.append(fake_case(
            agent, "analysis", "a-1", False, {"subtasks_correct": 1}))
        results.cases.append(fake_case(agent, "mitigation", "m-1",
                                       agent == "flash"))
    return ExperimentReport(
        seed=0, results=results,
        baselines={
            "mksmc": {"task": "detection", "accuracy": 0.15,
                      "accuracy@1": 0.15, "time_s": 0.1},
            "pdiagnose": {"task": "localization", "accuracy": 0.1,
                          "accuracy@1": 0.1, "time_s": 0.1},
            "rmlad": {"task": "localization", "accuracy": 0.05,
                      "accuracy@1": 0.05, "time_s": 0.1},
        },
        figure5={agent: {3: 0.3, 10: 0.5, 20: 0.6}
                 for agent in ("gpt-4-w-shell", "gpt-3.5-w-shell", "react",
                               "flash")},
        noop_outcome={"gpt-4-w-shell": True, "gpt-3.5-w-shell": False,
                      "react": False, "flash": False},
    )


class TestAccuracy:
    def test_overall(self):
        report = fake_report()
        assert report.results.accuracy("flash") == 3 / 4

    def test_analysis_uses_subtasks(self):
        report = fake_report()
        assert report.results.accuracy("react", "analysis") == 0.5

    def test_localization_at_k(self):
        report = fake_report()
        assert report.results.accuracy("react", "localization", at=3) == 1.0

    def test_missing_agent_zero(self):
        assert SuiteResults().accuracy("nobody") == 0.0


class TestRenderMarkdown:
    def test_contains_all_sections(self):
        text = render_markdown(fake_report())
        for heading in ("Headline comparison", "Table 2", "Table 3",
                        "Table 4 — detection", "Table 4 — mitigation",
                        "Table 5", "Figure 5", "Figure 6", "Figure 7",
                        "Noop false-positive"):
            assert heading in text, heading

    def test_paper_numbers_present(self):
        text = render_markdown(fake_report())
        assert "59.3%" in text       # paper FLASH overall
        assert "15.4%" in text       # paper MKSMC / PDiagnose

    def test_noop_verdicts_rendered(self):
        text = render_markdown(fake_report())
        assert "gpt-4-w-shell: correct" in text
        assert "flash: FALSE POSITIVE" in text

    def test_every_claim_gets_a_verdict(self):
        report = fake_report()
        text = render_markdown(report)
        for claim in CLAIMS:
            verdict = "held" if claim.check(report) else "FAILED"
            assert f"- [{verdict}] `{claim.id}` ({claim.section}): " \
                   f"{claim.statement}" in text

    def test_subset_run_is_not_judged(self):
        report = fake_report()
        report.pids = ["d-1"]
        report.baselines = {}
        text = render_markdown(report)
        assert "Not evaluated" in text and "[held]" not in text

    def test_paper_reference_numbers_complete(self):
        for key, values in PAPER.items():
            assert values, key
