import pytest

from repro.core.session import Session, Step
from repro.core.trajectory import load_session, save_all, save_session


def make_session():
    s = Session(pid="revoke_auth_hotel_res-detection-1",
                agent_name="react", started_at=10.0)
    s.ended_at = 42.0
    s.add_tokens(1500, 90)
    s.add_step(Step(0, 12.0, 'get_logs("ns", "all")', "get_logs",
                    ("ns", "all"), "ERROR lines: geo 5"))
    s.add_step(Step(1, 20.0, 'exec_shell("kubectl get pods -n ns")',
                    "exec_shell", ("kubectl get pods -n ns",),
                    "NAME READY", shell_command="kubectl"))
    s.add_step(Step(2, 30.0, 'submit("yes")', "submit", ("yes",),
                    "Solution submitted."))
    s.submitted = True
    s.solution = "yes"
    return s


class TestRoundTrip:
    def test_save_load_preserves_header(self, tmp_path):
        path = save_session(make_session(), tmp_path / "t.jsonl")
        loaded = load_session(path)
        assert loaded.pid == "revoke_auth_hotel_res-detection-1"
        assert loaded.agent_name == "react"
        assert loaded.started_at == 10.0 and loaded.ended_at == 42.0
        assert loaded.input_tokens == 1500 and loaded.output_tokens == 90
        assert loaded.submitted and loaded.solution == "yes"

    def test_save_load_preserves_steps(self, tmp_path):
        path = save_session(make_session(), tmp_path / "t.jsonl")
        loaded = load_session(path)
        assert len(loaded.steps) == 3
        assert loaded.steps[0].action_name == "get_logs"
        assert loaded.steps[1].shell_command == "kubectl"
        assert loaded.steps[2].action_args == ("yes",)

    def test_analytics_survive_roundtrip(self, tmp_path):
        """What the figures classify a step by survives the round trip."""
        original = make_session()
        loaded = load_session(save_session(original, tmp_path / "t.jsonl"))
        assert [(s.action_name, s.shell_command) for s in loaded.steps] == \
            [(s.action_name, s.shell_command) for s in original.steps]

    def test_non_jsonable_solution_reprs(self, tmp_path):
        s = make_session()
        s.solution = {1, 2}  # sets are not JSON
        loaded = load_session(save_session(s, tmp_path / "t.jsonl"))
        assert "1" in loaded.solution

    def test_save_all_batch(self, tmp_path):
        paths = save_all([make_session(), make_session()], tmp_path / "batch")
        assert len(paths) == 2
        assert all(p.exists() for p in paths)
        assert len({p.name for p in paths}) == 2

    def test_load_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_session(path)

    def test_load_non_trajectory_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "step"}\n')
        with pytest.raises(ValueError, match="header"):
            load_session(path)

    def test_creates_parent_directories(self, tmp_path):
        path = save_session(make_session(), tmp_path / "a" / "b" / "t.jsonl")
        assert path.exists()
