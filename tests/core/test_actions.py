"""The v2 action registry: @action marks, per-task surfaces, structured
observations, and registry-rendered API docs."""

import inspect

import pytest

from repro.apps import HotelReservation
from repro.core.aci import (
    DEFAULT_REGISTRY,
    TaskActions,
    registry_for,
)
from repro.core.actions import ActionRegistry, Observation, action
from repro.core.env import CloudEnvironment


def legacy_extract_api_docs(actions_cls):
    """The seed's reflection-based doc renderer, kept verbatim as the
    parity oracle for the registry renderer."""
    blocks = []
    for name, member in inspect.getmembers(actions_cls, inspect.isfunction):
        if name.startswith("_"):
            continue
        sig = inspect.signature(member)
        params = [p for p in sig.parameters.values() if p.name != "self"]
        rendered = ", ".join(str(p) for p in params)
        doc = inspect.getdoc(member) or ""
        blocks.append(f"{name}({rendered})\n{doc}")
    return "\n\n".join(blocks)


class TestRegistry:
    def test_every_registered_action_in_docs(self):
        docs = DEFAULT_REGISTRY.render_docs()
        for spec in DEFAULT_REGISTRY:
            assert f"{spec.name}(" in docs
            assert spec.doc().splitlines()[0] in docs

    def test_docs_parity_with_legacy_extractor(self):
        """Registry rendering must match the seed's reflection output
        byte for byte (every public TaskActions method is registered)."""
        assert DEFAULT_REGISTRY.render_docs() == \
            legacy_extract_api_docs(TaskActions)

    def test_unfiltered_surface_renders_the_default_registry(self):
        assert registry_for().render_docs() == DEFAULT_REGISTRY.render_docs()

    def test_registry_contains_and_get(self):
        assert "get_logs" in DEFAULT_REGISTRY
        assert "nope" not in DEFAULT_REGISTRY
        assert DEFAULT_REGISTRY.get("submit").name == "submit"

    def test_names_sorted(self):
        names = DEFAULT_REGISTRY.names()
        assert list(names) == sorted(names)

    def test_parser_accepts_exactly_the_registry_surface(self):
        """What the docs advertise is what ``parse_action`` accepts."""
        from repro.core.parser import ActionParseError, parse_action
        names = DEFAULT_REGISTRY.names()
        for name in names:
            assert parse_action(f"{name}()", names).name == name
        with pytest.raises(ActionParseError):
            parse_action("restart_service()", registry_for("detection").names())

    def test_subclass_added_public_method_registered(self):
        """v1 extension pattern: add a plain public method to a TaskActions
        subclass — it must still become an action (reflection semantics)."""
        class Custom(TaskActions):
            def my_probe(self, target: str) -> str:
                """Probe something."""
                return f"probed {target}"

        reg = ActionRegistry.from_class(Custom)
        assert "my_probe" in reg
        assert "get_logs" in reg
        assert "my_probe(target: str)" in reg.render_docs()


class TestPerTaskSurfaces:
    def test_mitigation_only_action_gated(self):
        assert "restart_service" in registry_for("mitigation")
        for task in ("detection", "localization", "analysis"):
            assert "restart_service" not in registry_for(task)

    def test_unfiltered_surface_has_everything(self):
        assert "restart_service" in registry_for("")

    def test_docs_follow_the_surface(self):
        assert "restart_service(" in registry_for("mitigation").render_docs()
        assert "restart_service(" not in registry_for("detection").render_docs()

    def test_legacy_unmarked_class_registers_public_methods(self):
        """A v1-style actions class (no @action marks) keeps the seed's
        reflection semantics: every public method is an action."""
        class LegacyActions:
            def probe(self, target: str) -> str:
                """Probe a target."""
                return f"probed {target}"

            def _helper(self):
                return "hidden"

        reg = ActionRegistry.from_class(LegacyActions)
        assert set(reg.names()) == {"probe"}
        docs = registry_for(actions_cls=LegacyActions).render_docs()
        assert "probe(target: str)" in docs and "Probe a target." in docs
        assert "_helper" not in docs

    def test_undecorated_override_stays_registered(self):
        class Custom(TaskActions):
            def get_logs(self, namespace: str, service: str, tail: int = 20):
                return Observation("custom logs")

        reg = ActionRegistry.from_class(Custom)
        assert "get_logs" in reg
        assert reg.execute(object.__new__(Custom), "get_logs",
                           "ns", "svc").text == "custom logs"
        # task gating from the parent's mark is inherited too
        assert "restart_service" not in ActionRegistry.from_class(
            Custom, task_type="detection")

    def test_custom_class_with_task_scoped_action(self):
        class MyActions:
            @action
            def look(self):
                """Look around."""
                return Observation("looked")

            @action(task_types=("analysis",))
            def deep_dive(self):
                """Analysis only."""
                return Observation("dove")

        reg = ActionRegistry.from_class(MyActions)
        assert set(reg.names()) == {"look", "deep_dive"}
        assert set(reg.for_task("detection").names()) == {"look"}
        assert set(reg.for_task("analysis").names()) == {"look", "deep_dive"}


class TestObservation:
    @pytest.fixture
    def actions(self):
        env = CloudEnvironment(HotelReservation, seed=5, workload_rate=20)
        env.advance(10)
        yield TaskActions(env)
        env.close()

    def test_telemetry_returns_structured_observation(self, actions):
        obs = actions.get_logs(actions.env.namespace, "all")
        assert isinstance(obs, Observation)
        assert obs.ok
        assert obs.artifacts and str(actions.env.exporter.root) in obs.artifacts[0]
        assert "error_counts" in obs.payload

    def test_metrics_payload_machine_readable(self, actions):
        obs = actions.get_metrics(actions.env.namespace, 5)
        snapshot = obs.payload["snapshot"]
        assert "frontend" in snapshot
        assert {"cpu_m", "request_rate", "error_rate"} <= set(
            snapshot["frontend"])

    def test_error_observation_flagged(self, actions):
        obs = actions.get_logs("ghost-ns", "geo")
        assert not obs.ok
        assert obs.startswith("Error:")
        assert obs.artifacts == ()

    def test_string_protocol_delegates(self):
        obs = Observation("Saved logs to /tmp/x.", artifacts=("/tmp/x",))
        assert str(obs) == "Saved logs to /tmp/x."
        assert "logs" in obs
        assert obs.startswith("Saved")

    def test_str_methods_fall_through_to_text(self):
        obs = Observation("line one\nline two")
        assert obs.splitlines() == ["line one", "line two"]
        assert obs.strip().endswith("two")
        with pytest.raises(AttributeError):
            obs.no_such_method()

    def test_native_str_protocol(self):
        """v1 call sites slice, compare, and measure observations."""
        obs = Observation("abcdef", payload={"k": 1})
        assert obs == "abcdef"
        assert obs[:3] == "abc"
        assert len(obs) == 6
        assert obs + "!" == "abcdef!"
        assert isinstance(obs, str)
        assert obs.payload == {"k": 1}

    def test_of_error_heuristic_precision(self):
        assert not Observation.of("Error from server (NotFound): x").ok
        assert not Observation.of("sh: command not found: python").ok
        # output that merely begins with the word "errors" is not a failure
        assert Observation.of("errors: 0 encountered").ok

    def test_of_coerces_and_passes_through(self):
        assert Observation.of("hi").text == "hi"
        assert not Observation.of("Error: no").ok
        assert not Observation.of("PolicyError: blocked").ok
        # kubectl/helm facades emit lowercase "error:"
        assert not Observation.of('error: rollout not supported for "x"').ok
        obs = Observation("x", payload={"a": 1})
        assert Observation.of(obs) is obs

    def test_blocked_shell_command_not_ok(self, actions):
        obs = actions.exec_shell("rm -rf /")
        assert "PolicyError" in obs
        assert not obs.ok

    def test_restart_service_runs_rollout(self, actions):
        obs = actions.restart_service("frontend")
        assert obs.ok, obs.text
        assert "restart" in obs.text or "frontend" in obs.text
