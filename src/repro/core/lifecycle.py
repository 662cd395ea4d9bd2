"""The AgentOps incident lifecycle (Figure 1): one incident, four chained
tasks on the *same* live environment.

The benchmark proper evaluates each task level in isolation (fresh
environment per problem).  This module implements the end-to-end vision
the paper motivates: an agent detects the incident, localizes it, analyzes
the root cause, and mitigates — sequentially, with the environment carried
over between stages and each stage graded by its own task oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.env import CloudEnvironment
from repro.core.orchestrator import SessionHandle
from repro.core.problem import TASK_CLASSES, Problem
from repro.core.session import Session

#: lifecycle stage order (Figure 1)
STAGES: tuple[str, ...] = tuple(TASK_CLASSES)

#: agent factory: (stage, prob_desc, instructs, apis) -> agent object
AgentFactory = Callable[[str, str, str, str], Any]


@dataclass
class StageResult:
    """One lifecycle stage's outcome."""

    stage: str
    success: bool
    solution: Any
    duration_s: float
    steps: int
    session: Session
    #: the stage session's result dict (what ``SessionHandle.run`` returns)
    details: dict[str, Any] = field(default_factory=dict)


@dataclass
class LifecycleResult:
    """The full incident's outcome."""

    fault: str
    target: str
    stages: list[StageResult] = field(default_factory=list)

    @property
    def resolved(self) -> bool:
        """True if the incident was mitigated end to end."""
        return bool(self.stages) and self.stages[-1].stage == "mitigation" \
            and self.stages[-1].success

    @property
    def stages_passed(self) -> int:
        return sum(s.success for s in self.stages)

    def summary(self) -> str:
        lines = [f"incident: {self.fault} @ {self.target}"]
        for s in self.stages:
            mark = "PASS" if s.success else "FAIL"
            lines.append(f"  {s.stage:<13} {mark}  steps={s.steps} "
                         f"t={s.duration_s:.0f}s  answer={s.solution!r}")
        lines.append(f"resolved: {self.resolved}")
        return "\n".join(lines)


class IncidentLifecycle:
    """Runs the four-stage lifecycle for one fault on one environment.

    Parameters
    ----------
    fault:
        Table-2 fault name/number (must support all four levels).
    target:
        Injection target (defaults to the fault's first default target).
    seed:
        Environment + agent seed.
    max_steps_per_stage:
        Step budget per stage (the benchmark's per-problem budget).
    """

    def __init__(self, fault: str | int, target: Optional[str] = None,
                 seed: int = 0, max_steps_per_stage: int = 20) -> None:
        # Build one problem per stage sharing fault/target; stage problems
        # grade against the same ground truth, the environment is shared.
        self.problems: dict[str, Problem] = {
            stage: TASK_CLASSES[stage](fault, target=target)
            for stage in STAGES
        }
        first = self.problems["detection"]
        if first.spec is None or len(first.spec.task_levels) < 4:
            raise ValueError(
                f"fault {fault!r} does not support all four task levels")
        self.fault_name = first.spec.name
        self.target = first.target
        self.seed = seed
        self.max_steps_per_stage = max_steps_per_stage
        self.env: Optional[CloudEnvironment] = None

    # ------------------------------------------------------------------
    def run(self, agent_factory: AgentFactory) -> LifecycleResult:
        """Execute the lifecycle; a fresh agent is built per stage (the
        factory may share memory between them if it wants to)."""
        self.env = self.problems["detection"].prepare(self.seed)
        result = LifecycleResult(fault=self.fault_name, target=self.target)
        for stage in STAGES:
            stage_result = self._run_stage(stage, agent_factory)
            result.stages.append(stage_result)
            if stage == "detection" and not stage_result.success:
                break  # an undetected incident is never triaged (Figure 1)
        return result

    # ------------------------------------------------------------------
    def _run_stage(self, stage: str,
                   agent_factory: AgentFactory) -> StageResult:
        """One stage = one ordinary session on the shared environment."""
        handle = SessionHandle(self.problems[stage], seed=self.seed,
                               env=self.env)
        agent = agent_factory(stage, *handle.context)
        handle.bind_agent(agent, name=getattr(agent, "name", "agent"))
        result = handle.run_sync(self.max_steps_per_stage)
        session = handle.session
        return StageResult(
            stage=stage, success=result["success"],
            solution=session.solution, duration_s=result["duration_s"],
            steps=result["steps"], session=session, details=result,
        )
