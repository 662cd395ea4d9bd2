"""Scenario behaviour pinned byte-for-byte, plus the table's validity.

``golden_scenarios.json`` was recorded from the class-per-scenario
catalog (the commit before ``SCENARIOS`` became a table of records): for
the 24 hand-written pids and 21 generated ones — three per trigger shape
from ``ScenarioGenerator(0)`` — what the agent is told, what the
environment hosts, the timeline, and where the simulation stands 60 s
after ``prepare``.  Re-record (only for an *intended* behaviour change)
with ``PYTHONPATH=src python tests/problems/test_golden_scenarios.py``.
"""

import json
from pathlib import Path

import pytest

from repro.core.problem import TASK_CLASSES
from repro.problems import (
    ScenarioGenerator,
    benchmark_pids,
    get_problem,
    scenario_pids,
    split_pid,
)
from repro.problems.generator import SHAPES
from repro.problems.scenarios import SCENARIOS

GOLDEN = Path(__file__).with_name("golden_scenarios.json")
ENV_SEED = 4


def golden_pids() -> list[str]:
    # shape = SHAPES[index % len(SHAPES)]: the first 21 are three of each
    return scenario_pids() + ScenarioGenerator(0).pids(3 * len(SHAPES))


def capture(pid: str) -> dict:
    prob = get_problem(pid)
    env = prob.create_environment(seed=ENV_SEED)
    record = {
        "description": prob.problem_description(env),
        "hosted": [[app.namespace, repr(driver.policy), driver.mode]
                   for app, driver in zip(env.apps, env.drivers)],
        "nodes": [[n.name, n.cpu_capacity, n.mem_capacity, n.capacity_pods]
                  for n in env.cluster.nodes.values()],
        "hpa": [repr(p) for p in env.autoscaler.policies],
        "resource_coupling": env.resource_coupling,
        "timeline": [f"{e.trigger.describe()}: {e.describe()}"
                     for e in prob.scenario.timeline.entries],
    }
    prob.start_workload(env)
    prob.inject_fault(env)
    env.advance(60.0)
    record.update(
        log=[[t, desc] for t, desc in prob.armed.log],
        pending=prob.armed.pending,
        state_version=env.cluster.state_version,
        stats=[[d.stats.requests, d.stats.errors, d.stats.latency_sum_ms]
               for d in env.drivers],
    )
    env.close()
    return record


def _dump(record: dict) -> str:
    return json.dumps(record, indent=1)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_pinned_pid(golden):
    assert list(golden) == golden_pids()


@pytest.mark.parametrize("pid", golden_pids())
def test_scenario_reproduces_golden(golden, pid):
    assert _dump(capture(pid)) == _dump(golden[pid])


class TestTableValidity:
    """What hand review certified for the class catalog, as properties of
    the rows."""

    def test_pids_unique_conforming_and_outside_the_benchmark(self):
        pids = [row.pid for row in SCENARIOS]
        assert len(set(pids)) == len(pids) == 24
        assert not set(pids) & set(benchmark_pids())
        for row in SCENARIOS:
            assert split_pid(row.pid)[1] == row.task

    @pytest.mark.parametrize("row", SCENARIOS, ids=lambda row: row.pid)
    def test_row_is_valid(self, row):
        assert row.task in TASK_CLASSES
        assert row.target in {
            s.name for s in row.apps[0].app_cls().service_specs()}
        hosted = {spec.app_cls.namespace for spec in row.apps}
        assert len(hosted) == len(row.apps)
        row.timeline.validate()
        for entry in row.timeline.entries:
            assert (entry.namespace or row.apps[0].app_cls.namespace) \
                in hosted
            namespace = getattr(entry.trigger, "namespace", "")
            assert not namespace or namespace in hosted
        assert row.doc.strip()
        if row.task == "detection":
            assert row.expected in ("yes", "no")
            injects = any(e.kind == "inject" for e in row.timeline.entries)
            if row.expected == "yes" and not injects:
                # an incident with nothing injected must say what it is
                assert "ground truth" in row.doc
            if row.expected == "no":
                assert not injects


class TestRowsAreSharedValues:
    """A row's policies, HPA policies and timeline are one object shared
    by every environment built from it in a process — safe only while
    nothing mutates them."""

    PID = "surge_revoke_auth_hotel_res-mitigation-1"  # set_rate + inject

    @staticmethod
    def _evolve(prob):
        env = prob.prepare(ENV_SEED)
        env.advance(45.0)
        state = (prob.armed.log, env.cluster.state_version,
                 [(d.stats.requests, d.stats.errors, d.stats.latency_sum_ms)
                  for d in env.drivers])
        env.close()
        return state

    def test_back_to_back_environments_from_one_row_match_fresh_rows(self):
        import copy
        row = next(r for r in SCENARIOS if r.pid == self.PID)
        shared = [self._evolve(row.problem()) for _ in range(2)]
        fresh = [self._evolve(copy.deepcopy(row).problem())
                 for _ in range(2)]
        assert shared[0] == shared[1] == fresh[0] == fresh[1]
        assert shared[0][0], "the timeline must have fired"

    def test_shared_values_are_immutable(self):
        import dataclasses
        for row in SCENARIOS:
            values = [spec.policy for spec in row.apps if spec.policy]
            values += [e.policy for e in row.timeline.entries if e.policy]
            values += [*(row.autoscale or ()), *(row.node_specs or ()),
                       *row.timeline.entries, *row.apps, row]
            for value in values:
                field = dataclasses.fields(value)[0].name
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, field, getattr(value, field))


if __name__ == "__main__":
    GOLDEN.write_text(
        _dump({pid: capture(pid) for pid in golden_pids()}) + "\n")
    print(f"recorded {GOLDEN}")
