"""Define a *new* problem beyond the built-in pool (§2.4.3, §4).

Shows the extensibility story the paper emphasizes:

1. a **multi-fault mitigation problem** — two faults in different
   services (revoked Mongo auth, then a deployment scaled to zero) as a
   two-entry fault timeline, with the stock whole-system health oracle;
2. a **custom evaluation metric** added on top of the task's defaults.

Run:  python examples/custom_problem.py
"""

import asyncio

from repro.agents import build_agent
from repro.core import MitigationTask, Orchestrator
from repro.faults import FaultSchedule


class DoubleFaultMitigation(MitigationTask):
    """Two concurrent faults: the agent must repair both to pass.

    The problem's ``timeline`` replaces the base class's single injection:
    auth is revoked as the soak starts, the recommendation pods are scaled
    to zero 30 s later, and the agent starts 15 s after that.  The base
    class arms the timeline and recovers both faults.  The evaluator
    inherits MitigationTask's whole-system health check, so fixing only
    one fault still fails — exactly the §2.1 semantics.
    """

    fault_soak_seconds = 45.0

    def __init__(self):
        super().__init__("RevokeAuth", target="mongodb-geo",
                         pid="double_fault_hotel_res-mitigation-custom")
        self.timeline = (FaultSchedule()
                         .inject(0.0, "RevokeAuth", ("mongodb-geo",))
                         .inject(30.0, "ScalePod", ("recommendation",)))

    def eval(self, soln, trace, duration, env=None):
        res = super().eval(soln, trace, duration, env=env)
        # custom metric: how many distinct kubectl mutations the agent made
        res["mutating_actions"] = sum(
            1 for step in trace.steps
            if step.action_name == "exec_shell" and any(
                verb in step.action_raw
                for verb in ("scale", "patch", "exec", "set image", "helm"))
        )
        return res


def run_agent(name: str) -> None:
    problem = DoubleFaultMitigation()
    orch = Orchestrator(seed=7)
    ctx = orch.init_problem(problem)
    try:
        agent = build_agent(name, *ctx, task_type="mitigation", seed=7)
        orch.register_agent(agent, name=name)
        results = asyncio.run(orch.start_problem(max_steps=25))
    finally:
        orch.env.close()  # removes its telemetry export dir

    print(f"\n=== {name} on the double-fault problem ===")
    print("\n".join(orch.session.transcript(max_obs_chars=100)
                    .splitlines()[-10:]))
    for key in ("success", "reason", "TTM", "steps", "mutating_actions"):
        print(f"  {key}: {results.get(key)}")


def main():
    # the oracle profile shows the problem is solvable through the ACI;
    # FLASH may or may not repair both faults (its mitigation skill gates
    # each fix independently — exactly the Table-4d behaviour).
    run_agent("oracle")
    run_agent("flash")


if __name__ == "__main__":
    main()
