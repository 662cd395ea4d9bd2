"""Problem evaluation: success criteria, efficiency and cost metrics (§3.2)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.env import CloudEnvironment
    from repro.core.problem import Problem
    from repro.core.session import Session


def system_healthy(env: "CloudEnvironment",
                   probe_seconds: float = 10.0,
                   max_error_rate: float = 0.02) -> tuple[bool, str]:
    """Check the *general state of the entire system* (§2.1).

    Healthy means every deployment — in **every** hosted app's namespace —
    has its desired replicas ready (and at least one), no pod is
    Pending/CrashLooping, and a fresh probe workload (aggregated across
    all hosted apps' drivers) completes with an error rate under
    ``max_error_rate``.  Single-app environments behave exactly as
    before; multi-app mitigation is graded on the whole environment.
    """
    for ns in env.namespaces:
        for dep in env.cluster.deployments_in(ns):
            pods = env.cluster.pods_for_deployment(dep)
            ready = [p for p in pods if p.ready and not p.crash_looping]
            if dep.replicas < 1:
                return False, f"deployment {dep.name} scaled to zero"
            if len(ready) < dep.replicas:
                return False, (f"deployment {dep.name}: "
                               f"{len(ready)}/{dep.replicas} replicas ready")
        for pod in env.cluster.pods_in(ns):
            if pod.crash_looping:
                return False, f"pod {pod.name} is crash-looping"
            if pod.phase.value == "Pending":
                return False, f"pod {pod.name} is Pending"
    err = env.probe_error_rate(probe_seconds)
    if err > max_error_rate:
        return False, f"probe workload error rate {err:.1%} exceeds {max_error_rate:.0%}"
    return True, "system healthy"


#: the keys every result dict opens with, in order; the problem's own
#: grading details follow them
SUMMARY_KEYS: tuple[str, ...] = (
    "pid", "task_type", "agent", "success", "duration_s", "steps",
    "input_tokens", "output_tokens")


class Evaluator:
    """Runs a problem's grading against the agent's submission and session."""

    def __init__(self, problem: "Problem", env: "CloudEnvironment") -> None:
        self.problem = problem
        self.env = env

    def evaluate(self, session: "Session", solution: Any) -> dict[str, Any]:
        """The session's result dict: :data:`SUMMARY_KEYS`, then the
        problem's grading details.

        No submission within the step budget is a failure; mitigation is
        graded on the environment state anyway but still requires the
        agent to have declared completion.
        """
        duration = session.elapsed()
        details = self.problem.eval(solution, session, duration, env=self.env)
        result = dict(zip(SUMMARY_KEYS, (
            self.problem.pid, self.problem.task_type, session.agent_name,
            bool(details.get("success", False)), duration,
            len(session.steps), session.input_tokens,
            session.output_tokens)))
        result.update(details)
        if not session.submitted:
            result["success"] = False
            result.setdefault("reason", "no submission within step limit")
        return result
