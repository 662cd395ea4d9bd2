"""Figure 5 runs each (agent, pid) once and derives every K.

The reference is the sweep as it used to run: one cold session per
(agent, pid, K).  It lives only here."""

from repro.bench import BenchmarkRunner

AGENTS = ("flash", "react")
PIDS = ["revoke_auth_hotel_res-detection-1",
        "misconfig_k8s_social_net-localization-1",
        "scale_pod_zero_social_net-mitigation-1"]
LIMITS = (3, 6, 12)


def test_derived_sweep_equals_cold_rerun_per_limit(monkeypatch):
    runner = BenchmarkRunner(max_steps=max(LIMITS), seed=4)
    sessions = []
    run_specs = runner._run_specs

    def recording(specs, *args, **kwargs):
        sessions.extend(specs)
        return run_specs(specs, *args, **kwargs)

    monkeypatch.setattr(runner, "_run_specs", recording)
    series = runner.run_suite(agents=AGENTS, pids=PIDS).step_limit_series(
        LIMITS)
    assert len(sessions) == len(AGENTS) * len(PIDS)
    assert {spec.max_steps for spec in sessions} == {max(LIMITS)}

    cold = BenchmarkRunner(seed=4)
    runs = {(agent, pid, limit): cold.run_case(agent, pid, max_steps=limit)
            for agent in AGENTS for pid in PIDS for limit in LIMITS}
    for agent in AGENTS:
        for limit in LIMITS:
            wins = sum(runs[agent, pid, limit].success for pid in PIDS)
            assert series[agent][limit] == wins / len(PIDS), (agent, limit)
    # why the derivation holds: the K-step run is the long run's prefix
    for (agent, pid, limit), short in runs.items():
        long = runs[agent, pid, max(LIMITS)]
        assert short.steps == min(long.steps, limit)
        assert [s.action_raw for s in short.session.steps] == \
            [s.action_raw for s in long.session.steps[:limit]]
    # and the panel is not vacuous: some budget changes some outcome
    assert len({series[a][k] for a in AGENTS for k in LIMITS}) > 1
