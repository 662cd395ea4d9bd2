"""§3.6.4: the Noop false-positive probe.

Shape target (paper): only GPT-4-W-SHELL correctly reports the healthy
system as normal; the other agents misinterpret normal workload activity
as a fault."""

from repro.agents.registry import AGENT_NAMES
from repro.problems import noop_pids


def test_noop_false_positives(runner):
    outcome = {
        agent: all(runner.run_case(agent, pid).success
                   for pid in noop_pids())
        for agent in AGENT_NAMES
    }
    print()
    for agent, ok in outcome.items():
        print(f"  {agent:<18} {'correct (no fault)' if ok else 'FALSE POSITIVE'}")

    assert outcome["gpt-4-w-shell"], "GPT-4 should resist the false positive"
    others = [a for a in AGENT_NAMES if a != "gpt-4-w-shell"]
    assert sum(not outcome[a] for a in others) >= 2, \
        "most other agents should false-positive (paper: all three do)"
