"""The process pool must be bit-identical to the serial loop: every case
seed derives from (seed, agent, pid), each worker owns a private
environment, and outcomes come back in spec order — so the worker count
can only change wall-clock, never results."""

import pickle

import pytest

from repro.agents.registry import agent_factory
from repro.bench import BenchmarkRunner
from repro.core.batch import SessionSpec, run_sessions_sync


def case_key(case):
    return (case.agent, case.pid, case.success, case.steps,
            case.duration_s, case.input_tokens, case.output_tokens,
            sorted(case.details.items()))


#: fixed mini-suite; delayed_revoke's trigger timeline mutates the cluster
#: mid-session, so the pool must reproduce time-driven fault injection too
PIDS = [
    "misconfig_k8s_social_net-detection-1",
    "delayed_revoke_auth_hotel_res-detection-1",
    "scale_pod_zero_social_net-mitigation-1",
]
AGENTS = ("gpt-4-w-shell", "flash")


def _specs(max_steps=8, seed=7):
    import hashlib
    out = []
    for agent in AGENTS:
        for pid in PIDS:
            digest = hashlib.sha256(f"{seed}:{agent}:{pid}".encode()).digest()
            out.append(SessionSpec(
                problem=pid, agent=agent_factory(agent), agent_name=agent,
                seed=int.from_bytes(digest[:4], "little"),
                max_steps=max_steps))
    return out


def _outcome_key(outcome):
    return (outcome.spec.agent_name, outcome.result,
            [(s.action_raw, s.observation)
             for s in outcome.session.steps])


class TestProcessPoolDeterminism:
    def test_pool_bit_identical_to_serial(self):
        serial = run_sessions_sync(_specs(), concurrency=1,
                                   release_handles=True)
        pooled = run_sessions_sync(_specs(), concurrency=4)
        assert len(serial) == len(pooled) == 6
        assert [_outcome_key(o) for o in serial] == \
            [_outcome_key(o) for o in pooled]

    def test_runner_pool_matches_serial(self):
        kwargs = dict(agents=("flash",), pids=PIDS)
        serial_run = BenchmarkRunner(max_steps=8, seed=3).run_suite(**kwargs)
        pool_run = BenchmarkRunner(max_steps=8, seed=3,
                                   concurrency=2).run_suite(**kwargs)
        assert [case_key(c) for c in serial_run.cases] == \
            [case_key(c) for c in pool_run.cases]

    def test_pool_size_never_changes_results(self):
        two = run_sessions_sync(_specs(max_steps=5), concurrency=2)
        many = run_sessions_sync(_specs(max_steps=5), concurrency=4)
        assert [_outcome_key(o) for o in two] == \
            [_outcome_key(o) for o in many]


class TestProcessPoolMechanics:
    def test_registry_factory_is_picklable(self):
        factory = agent_factory("flash")
        clone = pickle.loads(pickle.dumps(factory))
        assert clone.name == "flash"
        assert repr(clone) == "agent_factory('flash')"

    def test_empty_batch(self):
        assert run_sessions_sync([], concurrency=2) == []

    def test_invalid_concurrency_rejected(self):
        with pytest.raises(ValueError):
            run_sessions_sync(_specs()[:1], concurrency=0)

    def test_pool_always_releases_handles(self):
        outcomes = run_sessions_sync(_specs(max_steps=5)[:2], concurrency=2)
        assert all(o.ok and o.handle is None and o.session.submitted
                   for o in outcomes)

    def test_worker_failure_isolated_on_outcome(self):
        specs = [SessionSpec(problem="no-such-problem-id",
                             agent=agent_factory("flash"),
                             agent_name="flash", seed=1, max_steps=3),
                 _specs(max_steps=5)[0]]
        outcomes = run_sessions_sync(specs, concurrency=2)
        assert outcomes[0].error is not None
        assert outcomes[1].ok

    def test_unpicklable_spec_isolated_on_outcome(self):
        good = _specs(max_steps=5)[0]
        bad = SessionSpec(problem=good.problem,
                          agent=lambda context, task, seed: None,
                          agent_name="closure", seed=1, max_steps=3)
        outcomes = run_sessions_sync([bad, good], concurrency=2)
        assert outcomes[0].error is not None and outcomes[0].spec is bad
        assert outcomes[1].ok

    def test_worker_failure_fail_fast_raises(self):
        specs = [SessionSpec(problem="no-such-problem-id",
                             agent=agent_factory("flash"),
                             agent_name="flash", seed=1, max_steps=3),
                 _specs(max_steps=5)[0]]
        with pytest.raises(Exception):
            run_sessions_sync(specs, concurrency=2, fail_fast=True)

    def test_progress_fires_per_case_outcomes_in_spec_order(self):
        specs = _specs(max_steps=5)[:3]
        seen = []
        outcomes = run_sessions_sync(specs, concurrency=2,
                                     progress=seen.append)
        assert len(seen) == len(specs)
        assert [(o.spec.agent_name, o.spec.problem) for o in outcomes] == \
            [(s.agent_name, s.problem) for s in specs]
        assert sorted(map(id, seen)) == sorted(map(id, outcomes))
