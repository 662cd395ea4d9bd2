"""Ablations called out in DESIGN.md (not paper claims).

1. **Headroom/floor**: the oracle profile (perfect policy-following) vs the
   random profile (no planning, no commitment) bound what any LLM backend
   can achieve in this environment — the gap the four agents sit inside.
2. **Fault-soak sensitivity**: detection depends on the fault having had
   time to surface in telemetry; with zero soak, evidence is scarcer.
"""

from benchmarks.conftest import BENCH_SEED
from repro.agents import build_agent
from repro.bench import REDUCED_PIDS, BenchmarkRunner
from repro.core import Orchestrator
from repro.problems import get_problem


def test_ablation_oracle_vs_random():
    runner = BenchmarkRunner(max_steps=20, seed=BENCH_SEED)
    scores = {}
    for profile in ("oracle", "random"):
        wins = sum(runner.run_case(profile, pid).success
                   for pid in REDUCED_PIDS)
        scores[profile] = wins / len(REDUCED_PIDS)
    print()
    print(f"  oracle headroom: {scores['oracle']:.0%}   "
          f"random floor: {scores['random']:.0%}")
    assert scores["oracle"] >= 0.9, \
        "the environment must be solvable by a perfect policy-follower"
    assert scores["random"] <= 0.25, \
        "an unplanned agent should solve almost nothing"
    assert scores["oracle"] - scores["random"] >= 0.6


def test_ablation_fault_soak():
    """Detection accuracy vs. how long the fault has been live."""
    pids = ["revoke_auth_hotel_res-detection-1",
            "misconfig_k8s_social_net-detection-1",
            "network_loss_hotel_res-detection-1"]
    accuracy = {}
    for soak in (2.0, 30.0):
        wins = 0
        for pid in pids:
            problem = get_problem(pid)
            problem.fault_soak_seconds = soak
            orch = Orchestrator(seed=BENCH_SEED)
            ctx = orch.init_problem(problem)
            try:
                agent = build_agent("oracle", *ctx, task_type="detection",
                                    seed=BENCH_SEED)
                orch.register_agent(agent, "oracle")
                wins += orch.run_problem(max_steps=10)["success"]
            finally:
                orch.env.close()
        accuracy[soak] = wins / len(pids)
    print()
    print(f"  soak  2s: acc {accuracy[2.0]:.0%}   soak 30s: acc {accuracy[30.0]:.0%}")
    assert accuracy[30.0] >= accuracy[2.0]
