"""Command-line interface: ``python -m repro <command>``.

Commands
--------
* ``list-problems [--task T] [--include-noop]`` — enumerate the pool;
* ``run-problem PID --agent NAME [--max-steps N] [--seed N] [--save PATH]``
  — run one session and print the trajectory + evaluation;
* ``run-benchmark [--agents a,b] [--task T] [--seed N] [--concurrency N]``
  — run a suite (optionally over N worker processes) and print Table 3 /
  Table 4;
* ``show-pool`` — print Table 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


def _error(message: str) -> int:
    """Report bad input on stderr, without a traceback: exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _bad_run_args(args, agents: Sequence[str],
                  pids: Sequence[str] = ()) -> Optional[str]:
    """What is wrong with a run's ``--max-steps``, agents or pids, or
    None."""
    from repro.agents.registry import agent_factory
    from repro.problems import get_problem

    if args.max_steps < 1:
        return f"--max-steps must be >= 1, got {args.max_steps}"
    try:
        for name in agents:
            agent_factory(name)
        for pid in pids:
            get_problem(pid)
    except KeyError as e:
        return e.args[0]
    return None


def _cmd_list_problems(args) -> int:
    from repro.problems import list_problems
    for pid in list_problems(args.task, include_noop=args.include_noop):
        print(pid)
    return 0


def _cmd_show_pool(args) -> int:
    from repro.bench import render_table, table2_problem_pool
    headers, rows = table2_problem_pool()
    print(render_table(headers, rows, "Problem pool (Table 2)"))
    return 0


def _cmd_run_problem(args) -> int:
    from repro.bench import BenchmarkRunner
    from repro.core.trajectory import save_session

    bad = _bad_run_args(args, [args.agent], [args.pid])
    if bad is not None:
        return _error(bad)
    runner = BenchmarkRunner(max_steps=args.max_steps, seed=args.seed)
    case = runner.run_case(args.agent, args.pid)
    print(case.session.transcript())
    print()
    print(f"success: {case.success}")
    print(f"steps: {case.steps}  duration: {case.duration_s:.1f}s  "
          f"tokens: {case.input_tokens}+{case.output_tokens}")
    for key, value in case.details.items():
        print(f"{key}: {value}")
    if args.save:
        path = save_session(case.session, args.save)
        print(f"trajectory saved to {path}")
    return 0 if case.success else 1


def _cmd_run_benchmark(args) -> int:
    from repro.agents.registry import AGENT_NAMES
    from repro.bench import (
        BenchmarkRunner, render_table, table3_overall, table4_by_task,
    )
    from repro.problems import list_problems

    if args.concurrency < 1:
        return _error(f"--concurrency must be >= 1, got {args.concurrency}")
    agents = args.agents.split(",") if args.agents else list(AGENT_NAMES)
    bad = _bad_run_args(args, agents)
    if bad is not None:
        return _error(bad)
    pids = list_problems(args.task) if args.task else None
    runner = BenchmarkRunner(max_steps=args.max_steps, seed=args.seed,
                             concurrency=args.concurrency)
    results = runner.run_suite(agents=agents, pids=pids, verbose=True)
    headers, rows = table3_overall(results, agents=agents)
    print()
    print(render_table(headers, rows, "Overall (Table 3)"))
    for task, (headers, rows) in table4_by_task(results, agents=agents).items():
        if rows:
            print()
            print(render_table(headers, rows, f"Table 4 — {task}"))
    return 0


def _cmd_make_report(args) -> int:
    from repro.bench import BenchmarkRunner, render_markdown, run_experiments

    report = run_experiments(BenchmarkRunner(seed=args.seed), verbose=True)
    markdown = render_markdown(report)
    if args.output:
        with open(args.output, "w") as f:
            f.write(markdown)
        print(f"report written to {args.output}")
    else:
        print(markdown)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AIOpsLab reproduction — problems, agents, benchmark.",
    )
    from repro.core.problem import TASK_CLASSES
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-problems", help="enumerate the problem pool")
    p.add_argument("--task", choices=tuple(TASK_CLASSES))
    p.add_argument("--include-noop", action="store_true")
    p.set_defaults(func=_cmd_list_problems)

    p = sub.add_parser("show-pool", help="print the Table-2 inventory")
    p.set_defaults(func=_cmd_show_pool)

    p = sub.add_parser("run-problem", help="run one agent on one problem")
    p.add_argument("pid")
    p.add_argument("--agent", default="gpt-4-w-shell")
    p.add_argument("--max-steps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save", help="save the trajectory JSONL here")
    p.set_defaults(func=_cmd_run_problem)

    p = sub.add_parser("run-benchmark", help="run a suite and print tables")
    p.add_argument("--agents", help="comma-separated agent names")
    p.add_argument("--task", choices=tuple(TASK_CLASSES))
    p.add_argument("--max-steps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--concurrency", type=int, default=1,
                   help="worker processes; 1 = serial in-process "
                        "(results are identical at any level)")
    p.set_defaults(func=_cmd_run_benchmark)

    p = sub.add_parser("make-report",
                       help="run everything and render EXPERIMENTS.md")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", help="write markdown here")
    p.set_defaults(func=_cmd_make_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
