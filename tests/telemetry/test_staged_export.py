"""Staged exports: ``get_logs``/``get_metrics``/``get_traces`` write no
file until something reads one, and then write the bytes an export taken
at stage time would have written."""

from pathlib import Path

import pytest

from repro.apps import HotelReservation
from repro.core.aci import TaskActions
from repro.core.env import CloudEnvironment
from repro.problems import get_problem
from repro.telemetry import TelemetryExporter

PIDS = (
    "revoke_auth_hotel_res-localization-1",         # one namespace
    "noisy_neighbor_multi_hotel_res-detection-1",   # two on one collector
)


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _stage(env: CloudEnvironment, oracle_root: Path) -> dict[str, bytes]:
    """Stage all three kinds through the ACI (the last namespace's logs
    last) and return an eager ``export_all`` taken at the same instant."""
    aci = TaskActions(env)
    for ns in env.namespaces:
        aci.get_logs(ns, "all")
    # a window reaching back past t=0 is ``export_all``'s whole store
    assert env.clock.now <= 5 * 60
    aci.get_metrics(env.namespace)
    aci.get_traces(env.namespace)
    TelemetryExporter(env.collector, oracle_root).export_all(
        env.namespaces[-1])
    return _tree(oracle_root)


def _move_on(env: CloudEnvironment) -> None:
    """Append to every store after the stage, including samples stamped
    with the stage's own instant and a later scrape's."""
    ns = env.namespaces[-1]
    env.collector.scrape(env.cluster, ns)
    env.advance(30)
    env.collector.scrape(env.cluster, ns)


@pytest.mark.parametrize("pid", PIDS)
def test_materialize_writes_the_export_at_stage_time(pid, tmp_path):
    env = get_problem(pid).prepare(4)
    oracle = _stage(env, tmp_path)
    assert set(oracle) >= {"logs/all.jsonl", "metrics/cpu_usage.csv",
                           "traces/traces.json"}
    _move_on(env)
    env.exporter.materialize()
    assert _tree(env.exporter.root) == oracle
    env.close()


def test_nothing_is_written_before_a_read(tmp_path):
    env = get_problem(PIDS[0]).prepare(4)
    _stage(env, tmp_path)
    dirs = [env.exporter.root / kind
            for kind in ("logs", "metrics", "traces")]
    assert all(d.is_dir() and not any(d.iterdir()) for d in dirs)
    env.close()


def test_shell_read_writes_the_staged_bytes(tmp_path):
    env = get_problem(PIDS[1]).prepare(4)
    oracle = _stage(env, tmp_path)
    _move_on(env)
    out = TaskActions(env).exec_shell("cat logs/all.jsonl")
    assert out == oracle["logs/all.jsonl"].decode()
    assert _tree(env.exporter.root) == oracle
    env.close()


def test_close_writes_a_caller_root(tmp_path):
    root = tmp_path / "kept"
    env = CloudEnvironment(HotelReservation, seed=4, export_root=root)
    env.advance(30)
    oracle = _stage(env, tmp_path / "oracle")
    _move_on(env)
    env.close()
    assert _tree(root) == oracle


def test_close_removes_an_owned_root_unwritten(tmp_path):
    env = get_problem(PIDS[0]).prepare(4)
    _stage(env, tmp_path)
    root = env.exporter.root
    env.close()
    assert not root.exists()
    env.exporter.materialize()  # nothing left staged to write
    assert not root.exists()


def test_fork_starts_with_nothing_staged(tmp_path):
    env = get_problem(PIDS[0]).prepare(4)
    _stage(env, tmp_path)
    fork = env.snapshot().fork()
    fork.exporter.materialize()
    assert not any(fork.exporter.root.iterdir())
    fork.close()
    env.close()
