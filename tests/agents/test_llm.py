import pytest

from repro.agents.llm import PROFILES, ModelProfile, SimulatedLLM

DESC = ('namespace "test-ns". Services: frontend, geo, mongodb-geo, search.')


def make_llm(profile="gpt-4-w-shell", task="detection", seed=0, **overrides):
    base = PROFILES[profile]
    if overrides:
        import dataclasses
        base = dataclasses.replace(base, **overrides)
    return SimulatedLLM(base, task, DESC, seed=seed)


class TestProfiles:
    def test_four_paper_agents_plus_ablations(self):
        assert {"gpt-4-w-shell", "gpt-3.5-w-shell", "react", "flash",
                "oracle", "random"} <= set(PROFILES)

    def test_flash_never_uses_traces(self):
        assert not PROFILES["flash"].uses_traces

    def test_probability_fields_in_range(self):
        for profile in PROFILES.values():
            for field in ("detection_skill", "answer_skill", "rca_skill",
                          "loc_drop_rate", "plan_skill", "format_error_rate",
                          "self_correct", "mitigation_skill",
                          "false_positive_rate"):
                value = getattr(profile, field)
                assert 0.0 <= value <= 1.0, f"{profile.name}.{field}"

    def test_gpt35_has_zero_mitigation_skill(self):
        assert PROFILES["gpt-3.5-w-shell"].mitigation_skill == 0.0

    def test_gpt4_lowest_false_positive_rate(self):
        rates = {n: p.false_positive_rate for n, p in PROFILES.items()
                 if n in ("gpt-4-w-shell", "gpt-3.5-w-shell", "react", "flash")}
        assert min(rates, key=rates.get) == "gpt-4-w-shell"


class TestDecide:
    def test_response_accounting_positive(self):
        llm = make_llm()
        r = llm.decide("Session started.")
        assert r.input_tokens > 0 and r.output_tokens > 0 and r.latency_s > 0

    def test_input_tokens_grow_with_steps(self):
        llm = make_llm()
        r1 = llm.decide("state")
        r2 = llm.decide("state")
        assert r2.input_tokens > r1.input_tokens

    def test_oracle_solves_detection_cleanly(self):
        llm = make_llm("oracle", "detection")
        a1 = llm.decide("Session started.").text
        assert a1 == 'get_logs("test-ns", "all")'
        a2 = llm.decide("Saved logs. ERROR lines per service:\n"
                        "  geo: 10 ERROR lines").text
        assert a2 == 'submit("yes")'

    def test_oracle_never_false_positives(self):
        for seed in range(5):
            llm = make_llm("oracle", "detection", seed=seed)
            llm.decide("Session started.")
            action = "?"
            for obs in ("Saved logs. No ERROR-level log lines found.",
                        "NAME  READY   STATUS\n",
                        "Saved metrics. Latest snapshot:\n  a: cpu=1m "
                        "req_rate=1.0/s err_rate=0.00/s",
                        "Saved traces. No error spans in the window."):
                action = llm.decide(obs).text
                if action.startswith("submit"):
                    break
            assert action == 'submit("no")'

    def test_error_repeat_loop_for_weak_self_correct(self):
        llm = make_llm("gpt-3.5-w-shell", seed=4,
                       self_correct=0.0, format_error_rate=0.0)
        first = llm.decide("Session started.").text
        repeated = llm.decide("Error: could not parse action").text
        assert repeated == first

    def test_strong_self_correct_moves_on(self):
        llm = make_llm("oracle", seed=4)
        llm.decide("Session started.")
        nxt = llm.decide("Error: could not parse action").text
        assert not nxt.startswith("Error")

    def test_format_errors_produce_invalid_calls(self):
        from repro.core.aci import DEFAULT_REGISTRY
        from repro.core.parser import ActionParseError, parse_action
        llm = make_llm("gpt-4-w-shell", seed=1, format_error_rate=1.0)
        bad = 0
        for _ in range(10):
            text = llm.decide("Session started.").text
            try:
                parse_action(text, DEFAULT_REGISTRY.names())
            except ActionParseError:
                bad += 1
        assert bad >= 3  # some corruption modes still parse (prose wrapper)

    def test_false_positive_gate_on_clean_system(self):
        llm = make_llm("gpt-3.5-w-shell", "detection", seed=2,
                       false_positive_rate=1.0, format_error_rate=0.0,
                       plan_skill=1.0)
        action = ""
        state = "Session started."
        for _ in range(8):
            action = llm.decide(state).text
            if action.startswith("submit"):
                break
            state = ("Saved logs. No ERROR-level log lines found."
                     if "get_logs" in action else
                     "Saved metrics. Latest snapshot:\n  a: cpu=1m "
                     "req_rate=1.0/s err_rate=0.00/s"
                     if "get_metrics" in action else "NAME  READY   STATUS\n")
        assert action == 'submit("yes")'  # the §3.6.4 false positive

    def test_random_profile_never_submits_correct_localization(self):
        llm = make_llm("random", "localization", seed=3)
        llm.policy.ingest_observation(
            "ERROR [geo] failed to call mongodb-geo.find: (Unauthorized) "
            "not authorized on geo-db to execute command")
        for _ in range(20):
            action = llm.decide("x").text
            if action.startswith("submit(") and "mongodb-geo" in action:
                pytest.fail("random profile committed the correct answer")


class TestComplete:
    def test_complete_implements_llm_backend(self):
        llm = make_llm("oracle")
        response = llm.complete("system prompt\nSession started.")
        assert response.text
