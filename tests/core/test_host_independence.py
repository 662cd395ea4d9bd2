"""A session's result does not depend on the host it runs on.

The telemetry getters name their exports relative to the export root, so
neither the observations an agent reads nor the input tokens they cost
move with the length of the temp directory's path.
"""

import tempfile

from repro.agents.registry import agent_factory
from repro.core.batch import SessionSpec, run_sessions_sync

PID = "revoke_auth_hotel_res-localization-1"
AGENT = "react"


def _run(monkeypatch, tmpdir):
    monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
    spec = SessionSpec(problem=PID, agent=agent_factory(AGENT),
                       agent_name=AGENT, seed=3, max_steps=8)
    [outcome] = run_sessions_sync([spec], concurrency=1,
                                  release_handles=True)
    assert outcome.ok, outcome.error
    assert not any(tmpdir.iterdir())  # the session's directory is gone
    return outcome


def test_session_is_equal_under_temp_dirs_of_different_length(
        monkeypatch, tmp_path):
    short, long = tmp_path / "t", tmp_path / ("t" * 60)
    short.mkdir()
    long.mkdir()
    a, b = _run(monkeypatch, short), _run(monkeypatch, long)
    observations = [s.observation for s in a.session.steps]
    assert any(o.startswith("Saved ") for o in observations)
    assert observations == [s.observation for s in b.session.steps]
    assert a.result["input_tokens"] == b.result["input_tokens"]
    assert a.result == b.result
