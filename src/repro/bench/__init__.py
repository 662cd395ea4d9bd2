"""Benchmark harness: runs the paper's evaluation (§3), regenerates every
table and figure, and states what the reproduction claims about them."""

from repro.bench.runner import BenchmarkRunner, CaseResult, SuiteResults
from repro.bench.figures import (
    command_counts, figure6_api_usage, figure7_action_distribution,
    render_series,
)
from repro.bench.tables import (
    render_table, table2_problem_pool, table3_overall, table4_by_task,
    table5_commands,
)
from repro.bench.claims import CLAIMS, Claim
from repro.bench.report import (
    REDUCED_PIDS, ExperimentReport, render_markdown, run_experiments,
)

__all__ = [
    "BenchmarkRunner", "CaseResult", "SuiteResults",
    "command_counts", "figure6_api_usage", "figure7_action_distribution",
    "render_series", "render_table", "table2_problem_pool", "table3_overall",
    "table4_by_task", "table5_commands", "CLAIMS", "Claim", "REDUCED_PIDS",
    "ExperimentReport", "render_markdown", "run_experiments",
]
