from contextlib import contextmanager

import pytest

from repro.agents import agent_factory
from repro.core import IncidentLifecycle
from repro.core.evaluator import system_healthy
from repro.core.lifecycle import STAGES

oracle_factory = agent_factory("oracle")
random_factory = agent_factory("random")


@contextmanager
def ran(fault, seed, factory):
    """Run a lifecycle; close its shared environment when done."""
    lifecycle = IncidentLifecycle(fault, seed=seed)
    try:
        yield lifecycle, lifecycle.run(factory)
    finally:
        if lifecycle.env is not None:
            lifecycle.env.close()


class TestLifecycle:
    def test_oracle_resolves_revoke_auth_end_to_end(self):
        with ran("RevokeAuth", 5, oracle_factory) as (_, result):
            assert [s.stage for s in result.stages] == [
                "detection", "localization", "analysis", "mitigation"]
            assert result.stages_passed == 4
            assert result.resolved, result.summary()

    def test_oracle_resolves_scale_pod_zero(self):
        with ran("ScalePod", 6, oracle_factory) as (_, result):
            assert result.resolved, result.summary()

    def test_stage_answers_are_consistent(self):
        with ran("RevokeAuth", 5, oracle_factory) as (_, result):
            localization = result.stages[1]
            analysis = result.stages[2]
            assert "mongodb-geo" in localization.solution
            assert analysis.solution["system_level"] == "application"

    def test_detection_failure_short_circuits(self):
        """Figure 1: an undetected incident never reaches triage."""
        with ran("RevokeAuth", 5, random_factory) as (_, result):
            # random agent flails and never submits within budget on
            # detection, or submits a coin-flip; either way later stages
            # require detection
            if not result.stages[0].success:
                assert len(result.stages) == 1
            assert not result.resolved

    def test_symptomatic_fault_rejected(self):
        with pytest.raises(ValueError, match="four task levels"):
            IncidentLifecycle("NetworkLoss")

    def test_environment_shared_across_stages(self):
        with ran("RevokeAuth", 5, oracle_factory) as (lifecycle, result):
            # virtual time strictly increases across stage sessions
            starts = [s.session.started_at for s in result.stages]
            assert starts == sorted(starts)
            assert lifecycle.env is not None

    def test_summary_renders(self):
        with ran("RevokeAuth", 5, oracle_factory) as (_, result):
            text = result.summary()
            assert "incident: RevokeAuth @ mongodb-geo" in text
            assert "resolved: True" in text


class _SubmitNo:
    """Answers detection with "no" at once, so the lifecycle stops after
    one stage on a still-faulty environment."""

    name = "submit-no"

    async def get_action(self, state):
        return 'submit("no")'


@pytest.mark.parametrize("stage", STAGES)
def test_any_stage_recovers_the_shared_environment(stage):
    """The armed timeline lives on the shared environment, so every
    stage's oracle recovery undoes the one injection."""
    with ran("RevokeAuth", 5, lambda *context: _SubmitNo()) as (
            lifecycle, result):
        assert [s.stage for s in result.stages] == ["detection"]
        assert not system_healthy(lifecycle.env)[0]
        lifecycle.problems[stage].recover_fault(lifecycle.env)
        healthy, reason = system_healthy(lifecycle.env)
        assert healthy, reason
