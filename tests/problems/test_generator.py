"""Property suite for procedural scenario synthesis.

Hand review certified the 24 hand-written scenarios; these properties
are what certify the unbounded generated pool: (a) every generated
timeline passes arm-time validity, (b) every generated problem runs
end-to-end through ``Orchestrator.create_session`` and grades without
error, (c) per-family grading agrees between the ``per_request`` and
``aggregate`` fidelity tiers on fixed seeds, and (d) the generator is
deterministic — same ``(n, seed)`` yields byte-identical pid lists and
timelines, in any order, in any process.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.agents.registry import build_agent_for
from repro.core import Orchestrator
from repro.faults import get_fault_spec
from repro.faults.triggers import AfterEvent, MetricTrigger
from repro.problems import (
    ScenarioGenerator,
    generated_pool,
    get_problem,
    split_pid,
    template_space,
)
from repro.problems.generator import (
    APP_CLASSES,
    SHAPES,
    GeneratedSpec,
    build_schedule_for,
    describe_timeline,
    is_generated_pid,
)

SEEDS = st.integers(min_value=0, max_value=9999)
INDICES = st.integers(min_value=0, max_value=499)


def run_session(prob, agent_name="gpt-4-w-shell", seed=11, max_steps=5):
    orch = Orchestrator(seed=0)
    handle = orch.create_session(prob, seed=seed)
    agent = build_agent_for(agent_name, handle.context, prob.task_type,
                            seed=seed)
    handle.bind_agent(agent, name=agent_name)
    result = handle.run_sync(max_steps=max_steps)
    orch.release(handle)
    return result


class TestDeterminism:
    """Property (d): byte-identical reproduction from (seed, index)."""

    @given(seed=SEEDS, n=st.integers(min_value=1, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_pid_lists_and_timelines_byte_identical(self, seed, n):
        a, b = ScenarioGenerator(seed), ScenarioGenerator(seed)
        assert a.pids(n) == b.pids(n)
        for i in range(n):
            assert a.spec(i) == b.spec(i)  # frozen dataclass: full recipe
            assert describe_timeline(a.spec(i)) == describe_timeline(b.spec(i))

    @given(seed=SEEDS, index=INDICES)
    @settings(max_examples=25, deadline=None)
    def test_spec_is_order_independent(self, seed, index):
        """spec(i) is pure in (seed, i): computing it cold equals
        computing it after a full in-order sweep."""
        cold = ScenarioGenerator(seed).spec(index)
        warm_gen = ScenarioGenerator(seed)
        warm_gen.specs(min(index, 10))
        assert warm_gen.spec(index) == cold

    def test_different_seeds_differ(self):
        assert ScenarioGenerator(0).pids(20) != ScenarioGenerator(1).pids(20)


class TestArmValidity:
    """Property (a): every generated schedule arms cleanly — tags
    resolve, no trigger cycles, arm-time validation passes."""

    @given(seed=SEEDS, index=INDICES)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_schedule_arms_cleanly(self, seed, index):
        gen = ScenarioGenerator(seed)
        spec = gen.spec(index)
        prob = gen.problem(index)
        sched = prob.timeline.validate()  # arm-time, env-free
        tags = {e.tag for e in sched.entries if e.tag}
        for entry in sched.entries:
            if isinstance(entry.trigger, AfterEvent):
                assert entry.trigger.tag in tags
                assert entry.trigger.delay >= 0
            if entry.at is not None:
                assert entry.at >= 0
            if isinstance(entry.trigger, MetricTrigger):
                assert entry.trigger.namespace == spec.watch_namespace
        env = prob.create_environment(seed=1)
        armed = sched.arm(env)  # would raise on any invalid timeline
        armed.cancel_pending()
        env.close()

    @given(seed=SEEDS, index=INDICES)
    @settings(max_examples=50, deadline=None)
    def test_spec_invariants(self, seed, index):
        """Structural recipe invariants grading correctness rests on."""
        spec = ScenarioGenerator(seed).spec(index)
        assert is_generated_pid(spec.pid)
        stem, task, _ = split_pid(spec.pid)
        assert task == spec.task
        assert spec.shape in SHAPES
        entries = build_schedule_for(spec).entries
        injects = [e for e in entries if e.kind == "inject"]
        if spec.task == "detection":
            assert spec.expected == ("yes" if injects else "no")
            assert (spec.shape == "quiet") == (not injects)
        else:
            assert injects, "non-detection problems must inject"
        if spec.task == "localization":
            assert injects[0].targets == (spec.target,)
        if spec.task == "mitigation":
            assert 4 in get_fault_spec(spec.fault).task_levels
        # hosted app set: 1-3 apps, distinct namespaces
        keys = [spec.app_name] + [n[0] for n in spec.neighbors]
        assert 1 <= len(keys) <= 3
        namespaces = [APP_CLASSES[k].namespace for k in keys]
        assert len(set(namespaces)) == len(namespaces)


class TestEndToEnd:
    """Property (b): generated problems run through create_session and
    grade without error."""

    @given(seed=st.integers(min_value=0, max_value=99),
           index=st.integers(min_value=0, max_value=99))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sessions_run_and_grade(self, seed, index):
        gen = ScenarioGenerator(seed)
        spec = gen.spec(index)
        result = run_session(get_problem(spec.pid), max_steps=4)
        assert result["pid"] == spec.pid
        assert isinstance(result["success"], bool)
        assert isinstance(result["steps"], int) and result["steps"] >= 1

    def test_quiet_scenario_grades_no_fault_correctly(self):
        gen = ScenarioGenerator(0)
        quiet = next(i for i in range(20) if gen.spec(i).shape == "quiet")
        prob = gen.problem(quiet)
        assert prob.ans == "no"
        result = run_session(prob)
        assert result["success"] is True  # scripted agent reports healthy


class TestFidelityAgreement:
    """Property (c): per-family grading agreement between the
    per_request and aggregate tiers on fixed seeds (the PR 4/5
    agreement harness applied to generated problems).

    Families are seed-0 indices with per_request-sized rates (so the
    aggregate rerun measures the kernel, not per-tick clipping), one per
    trigger shape."""

    FAMILIES = [
        ("delayed", 0),
        ("flapping", 15),
        ("cascade", 2),
        ("metric", 17),
        ("chain", 11),
        ("crossing", 5),
        ("quiet", 6),
    ]

    @pytest.mark.parametrize("shape,index", FAMILIES)
    def test_tiers_agree(self, shape, index):
        gen = ScenarioGenerator(0)
        spec = gen.spec(index)
        assert spec.shape == shape and spec.fidelity == "per_request"
        per_req = run_session(gen.problem(index, fidelity="per_request"),
                              max_steps=6)
        aggregate = run_session(gen.problem(index, fidelity="aggregate"),
                                max_steps=6)
        assert per_req["success"] == aggregate["success"]
        assert per_req["steps"] == aggregate["steps"]


class TestPoolCoverage:
    """The acceptance criterion on the documented seed-0 pool."""

    N = 200

    def test_pool_coverage_and_reproducibility(self):
        pids = generated_pool(self.N, seed=0)
        assert len(pids) == self.N
        assert len(set(pids)) == self.N, "pids must be distinct"
        assert pids == ScenarioGenerator(0).pids(self.N)

        specs = ScenarioGenerator(0).specs(self.N)
        assert {s.app_name for s in specs} >= {"HotelReservation",
                                               "SocialNetwork"}
        assert len({s.fault for s in specs if s.fault}) >= 4
        shapes = {s.shape for s in specs}
        # all four trigger mechanisms: AtTime (delayed/flapping/cascade),
        # MetricAbove+sustain, AfterEvent chains, every_crossing loops
        assert {"delayed", "metric", "chain", "crossing"} <= shapes
        assert {s.fidelity for s in specs} == {"per_request", "aggregate"}
        assert all(split_pid(p) is not None for p in pids)

    def test_sampled_pool_problems_arm(self):
        gen = ScenarioGenerator(0)
        for index in range(0, self.N, 13):
            prob = gen.problem(index)
            env = prob.create_environment(seed=1)
            armed = prob.timeline.arm(env)
            armed.cancel_pending()
            env.close()

    def test_get_problem_resolves_registered_and_unregistered(self):
        pids = generated_pool(5, seed=3)
        assert get_problem(pids[0]).pid == pids[0]
        # nothing is registered: a pid no pool call ever listed resolves
        # via the recipe too
        cold_pid = ScenarioGenerator(4).spec(2).pid
        assert get_problem(cold_pid).pid == cold_pid

    def test_doctored_pid_is_rejected(self):
        pid = ScenarioGenerator(0).spec(1).pid
        doctored = pid.replace("-localization-", "-detection-") \
            if "-localization-" in pid else pid.replace("-detection-",
                                                        "-localization-")
        with pytest.raises(KeyError, match="does not match its recipe"):
            get_problem(doctored)

    def test_generator_input_validation(self):
        with pytest.raises(ValueError):
            ScenarioGenerator(-1)
        with pytest.raises(ValueError):
            ScenarioGenerator(0).spec(-1)

    def test_template_space_axes(self):
        space = template_space()
        assert set(space) >= {"task", "trigger shape", "primary app",
                              "rate policy", "fidelity"}
        assert all(isinstance(v, tuple) and v for v in space.values())
