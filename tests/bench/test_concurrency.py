"""Concurrency must never change benchmark results: case seeds derive from
(seed, agent, pid) and every session owns a private environment, so any
fan-out level is bit-identical to the serial run."""

from repro.bench import BenchmarkRunner

PIDS = [
    "revoke_auth_hotel_res-detection-1",
    "misconfig_k8s_social_net-localization-1",
    "scale_pod_zero_social_net-analysis-1",
    "scale_pod_zero_social_net-mitigation-1",
]
AGENTS = ("gpt-4-w-shell", "flash")


def case_key(case):
    return (case.agent, case.pid, case.success, case.steps,
            case.duration_s, case.input_tokens, case.output_tokens,
            sorted(case.details.items()))


class TestConcurrencyDeterminism:
    def test_run_suite_concurrent_identical_to_serial(self):
        serial = BenchmarkRunner(max_steps=15, seed=2).run_suite(
            agents=AGENTS, pids=PIDS)
        fanout = BenchmarkRunner(max_steps=15, seed=2, concurrency=4).run_suite(
            agents=AGENTS, pids=PIDS)
        assert len(serial.cases) == len(fanout.cases) == 8
        assert [case_key(c) for c in serial.cases] == \
            [case_key(c) for c in fanout.cases]

    def test_per_call_concurrency_override(self):
        runner = BenchmarkRunner(max_steps=10, seed=5)
        serial = runner.run_suite(agents=("flash",), pids=PIDS[:2])
        fanout = runner.run_suite(agents=("flash",), pids=PIDS[:2],
                                  concurrency=2)
        assert [case_key(c) for c in serial.cases] == \
            [case_key(c) for c in fanout.cases]

    def test_step_limit_series_concurrent_identical(self):
        kwargs = dict(agents=("oracle",), pids=PIDS[:1])
        serial = BenchmarkRunner(max_steps=8, seed=4).run_suite(**kwargs)
        fanout = BenchmarkRunner(max_steps=8, seed=4,
                                 concurrency=4).run_suite(**kwargs)
        assert serial.step_limit_series((2, 8)) == \
            fanout.step_limit_series((2, 8))

    def test_verbose_streams_one_line_per_case(self, capsys):
        BenchmarkRunner(max_steps=6, seed=2, concurrency=2).run_suite(
            agents=("flash",), pids=PIDS[:2], verbose=True)
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 2
        assert all(l.startswith(("[+]", "[-]")) and "flash" in l
                   for l in lines)

    def test_invalid_concurrency_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            BenchmarkRunner(seed=1).run_suite(agents=("flash",),
                                              pids=PIDS[:1], concurrency=0)

    def test_trajectories_preserved_under_concurrency(self):
        fanout = BenchmarkRunner(max_steps=10, seed=2, concurrency=4).run_suite(
            agents=("flash",), pids=PIDS[:2])
        for case in fanout.cases:
            assert case.session is not None
            assert case.session.agent_name == case.agent
            assert len(case.session.steps) == case.steps
