"""The AIOpsLab benchmark problem pool (§3.3): 48 problems + 2 Noop probes,
hand-written scheduled-fault scenarios behind :func:`scenario_pids`, and
a seeded procedural generator (:mod:`repro.problems.generator`) behind
:func:`generated_pool`."""

from repro.problems.pool import (
    PROBLEM_FACTORIES,
    benchmark_pids,
    noop_pids,
    scenario_pids,
    get_problem,
    list_problems,
    pool_summary,
    split_pid,
)
from repro.problems.generator import (
    GeneratedSpec,
    ScenarioGenerator,
    generated_pool,
    template_space,
)

__all__ = [
    "PROBLEM_FACTORIES",
    "GeneratedSpec",
    "ScenarioGenerator",
    "benchmark_pids",
    "generated_pool",
    "noop_pids",
    "scenario_pids",
    "get_problem",
    "list_problems",
    "pool_summary",
    "split_pid",
    "template_space",
]
