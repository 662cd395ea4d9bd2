import asyncio

import pytest

from repro.agents import (
    AGENT_NAMES, FlashAgent, GptWithShellAgent, ReactAgent, build_agent,
    registration_loc,
)

DESC = 'namespace "test-ns". Services: frontend, geo, mongodb-geo.'
INSTR = "Interact step by step."
APIS = "get_logs(...)"


def get_action(agent, state):
    return asyncio.run(agent.get_action(state))


class TestRegistry:
    def test_four_paper_agents(self):
        assert AGENT_NAMES == ("gpt-4-w-shell", "gpt-3.5-w-shell", "react",
                               "flash")

    def test_build_each_agent(self):
        for name in AGENT_NAMES:
            agent = build_agent(name, DESC, INSTR, APIS, "detection", seed=1)
            assert agent.profile.name == name

    def test_build_ablation_agents(self):
        for name in ("oracle", "random"):
            assert build_agent(name, DESC, INSTR, APIS, "detection")

    def test_unknown_agent(self):
        with pytest.raises(KeyError):
            build_agent("gpt-5", DESC, INSTR, APIS, "detection")

    def test_registration_loc_positive_and_ordered(self):
        locs = {n: registration_loc(n) for n in AGENT_NAMES}
        assert all(v > 0 for v in locs.values())
        # richer scaffolds cost more wiring, as in Table 3
        assert locs["flash"] > locs["react"] > locs["gpt-4-w-shell"]


class TestAgentContract:
    def test_get_action_returns_string(self):
        agent = build_agent("gpt-4-w-shell", DESC, INSTR, APIS, "detection",
                            seed=1)
        assert isinstance(get_action(agent, "Session started."), str)

    def test_consume_stats_resets(self):
        agent = build_agent("gpt-4-w-shell", DESC, INSTR, APIS, "detection",
                            seed=1)
        get_action(agent, "Session started.")
        tokens_in, tokens_out, latency = agent.consume_stats()
        assert tokens_in > 0 and latency > 0
        assert agent.consume_stats() == (0, 0, 0.0)

    def test_prompt_includes_context(self):
        agent = build_agent("react", DESC, INSTR, APIS, "detection", seed=1)
        assert DESC in agent.prompt and "Available APIs" in agent.prompt

    def test_history_recorded(self):
        agent = build_agent("gpt-4-w-shell", DESC, INSTR, APIS, "detection",
                            seed=1)
        get_action(agent, "state-1")
        get_action(agent, "state-2")
        assert [h[0] for h in agent.history] == ["state-1", "state-2"]


class TestReactScaffold:
    def test_emits_thought_and_action(self):
        agent = ReactAgent(DESC, INSTR, APIS, "detection",
                           profile="oracle", seed=1)
        out = get_action(agent, "Session started.")
        assert out.startswith("Thought:") and "\nAction: " in out

    def test_thought_references_error_recovery(self):
        agent = ReactAgent(DESC, INSTR, APIS, "detection",
                           profile="oracle", seed=1)
        get_action(agent, "Error: bad call")
        out = get_action(agent, "Error: bad call")
        assert "previous call failed" in out

    def test_action_parses_through_orchestrator_parser(self):
        from repro.core.aci import registry_for
        from repro.core.parser import parse_action
        agent = ReactAgent(DESC, INSTR, APIS, "detection",
                           profile="oracle", seed=1)
        parsed = parse_action(get_action(agent, "Session started."),
                              registry_for("detection").names())
        assert parsed.name in ("get_logs", "get_metrics", "get_traces",
                               "exec_shell", "submit")


class TestFlashScaffold:
    def test_hindsight_accumulates(self):
        agent = FlashAgent(DESC, INSTR, APIS, "detection",
                           profile="flash", seed=1)
        get_action(agent, "Session started.")
        get_action(agent, "Saved logs. ERROR lines per service:\n"
                          "  geo: 4 ERROR lines")
        get_action(agent, "more state")
        assert agent.hindsight, "expected hindsight insights"

    def test_hindsight_flags_invalid_actions(self):
        agent = FlashAgent(DESC, INSTR, APIS, "detection",
                           profile="flash", seed=1)
        get_action(agent, "Session started.")
        get_action(agent, "Error: bad call")
        assert any("invalid" in h for h in agent.hindsight)

    def test_hindsight_costs_extra_tokens_and_latency(self):
        flash = FlashAgent(DESC, INSTR, APIS, "detection",
                           profile="flash", seed=1)
        plain = GptWithShellAgent(DESC, INSTR, APIS, "detection",
                                  profile="flash", seed=1)
        get_action(flash, "Session started.")
        get_action(plain, "Session started.")
        f_in, _, f_lat = flash.consume_stats()
        p_in, _, p_lat = plain.consume_stats()
        assert f_in > p_in and f_lat > p_lat
