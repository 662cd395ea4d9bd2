"""AgentOps end to end — Figure 1's incident lifecycle on one live incident.

A single RevokeAuth incident is injected into HotelReservation; the agent
then runs the full pipeline on the *same* environment:

    detect → localize → root-cause analyze → mitigate

Each stage is graded by its task oracle, and an undetected incident never
reaches triage.  Run with the oracle profile to see the full pipeline
succeed, and with FLASH to see where a realistic agent drops the ball.

Run:  python examples/agentops_lifecycle.py
"""

from repro.agents import agent_factory
from repro.core import IncidentLifecycle


def main():
    for agent_name in ("oracle", "flash"):
        lifecycle = IncidentLifecycle("RevokeAuth", seed=11,
                                      max_steps_per_stage=20)
        try:
            result = lifecycle.run(agent_factory(agent_name))
        finally:
            if lifecycle.env is not None:
                lifecycle.env.close()  # removes its telemetry export dir
        print(f"\n=== {agent_name} ===")
        print(result.summary())


if __name__ == "__main__":
    main()
