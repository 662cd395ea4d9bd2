"""Run the full AIOpsLab benchmark and print every table and figure.

The paper's evaluation end to end — Tables 2–5 (with the non-LLM baselines),
Figures 5–7, the Noop probe and a verdict per claim — through the same
``run_experiments`` / ``render_markdown`` pair as ``python -m repro
make-report``.  The full suite takes ~5–10 minutes; ``--quick`` is a smoke
run on a reduced problem subset (no baselines, claims not evaluated).

Run:  python examples/run_benchmark.py [--quick] [--seed N] [--concurrency N]
"""

import argparse

from repro.bench import (
    REDUCED_PIDS, BenchmarkRunner, render_markdown, run_experiments,
)

#: every other problem of the reduced pool: six problems, all four tasks
QUICK_PIDS = REDUCED_PIDS[::2]


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
    report = run_experiments(runner, pids=QUICK_PIDS if args.quick else None,
                             verbose=True)
    print()
    print(render_markdown(report))


if __name__ == "__main__":
    main()
