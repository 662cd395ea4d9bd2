"""Quickstart — the paper's Examples 2.1 and 2.3 on the v2 session API.

Defines the Kubernetes target-port misconfiguration problem on the
SocialNetwork application, onboards a minimal custom agent (a thin wrapper
around a model backend, ~15 lines), runs the session through an
Orchestrator session handle, and prints the evaluation.

Run:  python examples/quickstart.py
"""

import asyncio

from repro.agents.llm import PROFILES, SimulatedLLM
from repro.core import LocalizationTask, Orchestrator


# --- Example 2.1: define a problem in a few lines ------------------------
class K8STargetPortMisconf(LocalizationTask):
    """Localize a target-port misconfiguration on user-service."""

    def __init__(self):
        super().__init__("TargetPortMisconfig", target="user-service")
        self.ans = "user-service"


# --- Example 2.3: onboard an agent ---------------------------------------
class Agent:
    """A minimal agent: prompt + model, nothing else.

    Any LLM backend with a ``decide(state) -> response`` surface plugs in;
    here we use the simulated GPT-4 profile (offline reproduction).
    """

    def __init__(self, prob_desc, instructs, apis):
        self.prompt = f"{prob_desc}\n{instructs}\nAPIs:\n{apis}\n"
        self.llm = SimulatedLLM(PROFILES["gpt-4-w-shell"], "localization",
                                prob_desc, seed=42)

    async def get_action(self, state: str) -> str:
        return self.llm.decide(state).text


def main():
    orch = Orchestrator()
    # create_session deploys the app, warms it up, and injects the fault in
    # a private environment; the handle's context carries the problem
    # description, interaction instructions, and registry-rendered API docs.
    handle = orch.create_session(K8STargetPortMisconf(), seed=42)
    try:
        agent = Agent(*handle.context)
        handle.bind_agent(agent, name="myAgent")
        results = asyncio.run(handle.run(max_steps=10))
    finally:
        orch.release(handle)  # removes its telemetry export dir

    print("=== trajectory ===")
    print(handle.session.transcript())
    print("\n=== evaluation ===")
    for key in ("pid", "success", "success@1", "success@3", "TTL", "steps"):
        print(f"  {key}: {results.get(key)}")


if __name__ == "__main__":
    main()
