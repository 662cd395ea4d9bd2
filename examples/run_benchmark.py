"""Run the full AIOpsLab benchmark and print every table and figure.

This regenerates the paper's evaluation section end to end: Tables 3,
4a–d (with the non-LLM baselines), 5, and Figures 5–7, plus the Noop
false-positive probe.  Expect ~5–10 minutes of wall time for the full
suite; pass ``--quick`` to use a reduced problem subset.

Run:  python examples/run_benchmark.py [--quick] [--seed N] [--concurrency N]
"""

import argparse

from repro.agents.registry import AGENT_NAMES
from repro.baselines import run_baseline_suite
from repro.bench import (
    BenchmarkRunner, figure5_step_limit, figure6_api_usage,
    figure7_action_distribution, render_series, render_table,
    table2_problem_pool, table3_overall, table4_by_task, table5_commands,
)
from repro.problems import list_problems, noop_pids

QUICK_PIDS = [
    "auth_missing_hotel_res-detection-1",
    "misconfig_k8s_social_net-localization-1",
    "revoke_auth_hotel_res-analysis-1",
    "scale_pod_zero_social_net-mitigation-1",
    "network_loss_hotel_res-detection-1",
    "buggy_app_image_hotel_res-mitigation-1",
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true",
                    help="reduced problem subset")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--concurrency", type=int, default=4,
                    help="worker processes; 1 = serial in-process "
                         "(results are identical at any level)")
    args = ap.parse_args()

    runner = BenchmarkRunner(max_steps=20, seed=args.seed,
                             concurrency=args.concurrency)
    pids = QUICK_PIDS if args.quick else None

    headers, rows = table2_problem_pool()
    print(render_table(headers, rows, "Table 2 — problem pool"))

    print("\nrunning the agent suite...")
    results = runner.run_suite(pids=pids, verbose=True)

    headers, rows = table3_overall(results)
    print()
    print(render_table(headers, rows, "Table 3 — overall"))

    baselines = None
    if not args.quick:
        print("\nrunning non-LLM baselines...")
        baselines = {
            name: run_baseline_suite(name, seed=args.seed)
            for name in ("mksmc", "pdiagnose", "rmlad")
        }
    for task, (headers, rows) in table4_by_task(
            results, baselines=baselines).items():
        print()
        print(render_table(headers, rows, f"Table 4 — {task}"))

    headers, rows = table5_commands(results)
    print()
    print(render_table(headers, rows, "Table 5 — command occurrences"))

    print()
    print(render_series(
        "Figure 6 — % actions by API",
        figure6_api_usage(results)))
    print()
    print(render_series(
        "Figure 7 — action distribution by outcome",
        figure7_action_distribution(results)))

    sweep_pids = QUICK_PIDS if args.quick else list_problems()[:12]
    print("\nsweeping step limits (Figure 5)...")
    series = figure5_step_limit(runner, limits=(3, 5, 10, 15, 20),
                                pids=sweep_pids)
    print(render_series("Figure 5 — accuracy vs step limit", series))

    print("\nNoop false-positive probe (§3.6.4):")
    for agent in AGENT_NAMES:
        ok = all(runner.run_case(agent, pid).success for pid in noop_pids())
        print(f"  {agent:<18} {'correct' if ok else 'FALSE POSITIVE'}")


if __name__ == "__main__":
    main()
