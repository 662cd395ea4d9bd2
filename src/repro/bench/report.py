"""The paper's evaluation, stated once: what is run and how it is reported.

:func:`run_experiments` is the only spelling of the evaluation (suite,
baselines, Figure-5 sweep, Noop probe); the ``benchmarks/`` harness,
``python -m repro make-report`` and ``examples/run_benchmark.py`` all call
it and print :func:`render_markdown` of what it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.agents.registry import AGENT_NAMES
from repro.baselines import run_baseline_suite
from repro.bench.claims import CLAIMS
from repro.bench.figures import (
    figure6_api_usage, figure7_action_distribution, render_series,
)
from repro.bench.runner import BenchmarkRunner, SuiteResults
from repro.bench.tables import (
    render_table, table2_problem_pool, table3_overall, table4_by_task,
    table5_commands,
)
from repro.problems import noop_pids

#: one problem per fault family — the reduced pool Figure 5 sweeps (and the
#: ablations in ``benchmarks/`` run on)
REDUCED_PIDS = (
    "auth_missing_hotel_res-detection-1",
    "misconfig_k8s_social_net-detection-1",
    "revoke_auth_hotel_res-localization-1",
    "user_unregistered_hotel_res-localization-1",
    "buggy_app_image_hotel_res-analysis-1",
    "scale_pod_zero_social_net-analysis-1",
    "assign_to_non_existent_node_social_net-mitigation-1",
    "misconfig_k8s_social_net-mitigation-1",
    "network_loss_hotel_res-detection-1",
    "pod_failure_hotel_res-localization-1",
    "revoke_auth_hotel_res-mitigation-1",
    "auth_missing_hotel_res-analysis-1",
)

#: the paper's headline numbers (percent), keyed by how each row is
#: measured here: (paper section, label, task, k) →
#: ``SuiteResults.accuracy(agent, task, at=k)``
PAPER = {
    ("Table 3", "Overall accuracy", None, 1): {
        "gpt-4-w-shell": 49.15, "gpt-3.5-w-shell": 15.25,
        "react": 55.93, "flash": 59.32},
    ("Table 4a", "Detection accuracy", "detection", 1): {
        "gpt-4-w-shell": 69.23, "gpt-3.5-w-shell": 23.07,
        "react": 76.92, "flash": 100.0, "mksmc": 15.38},
    ("Table 4b", "Localization acc@1", "localization", 1): {
        "gpt-4-w-shell": 61.54, "gpt-3.5-w-shell": 30.77,
        "react": 53.85, "flash": 46.15, "pdiagnose": 15.38, "rmlad": 7.69},
    ("Table 4b", "Localization acc@3", "localization", 3): {
        "gpt-4-w-shell": 61.54, "gpt-3.5-w-shell": 30.77,
        "react": 69.23, "flash": 61.54},
    ("Table 4c", "RCA accuracy", "analysis", 1): {
        "gpt-4-w-shell": 40.90, "gpt-3.5-w-shell": 9.09,
        "react": 45.45, "flash": 36.36},
    ("Table 4d", "Mitigation accuracy", "mitigation", 1): {
        "gpt-4-w-shell": 27.27, "gpt-3.5-w-shell": 0.0,
        "react": 36.36, "flash": 54.55},
}


def paper_values(section: str) -> str:
    """The paper's numbers for one table, as ``docs/claims.md`` quotes them."""
    return "; ".join(
        f"{label}: " + ", ".join(f"{name.upper()} {value:g}"
                                 for name, value in row.items())
        for (sec, label, _, _), row in PAPER.items() if sec == section)


@dataclass
class ExperimentReport:
    """All artifacts of one evaluation run."""

    seed: int
    results: SuiteResults
    baselines: dict[str, dict[str, float]]
    figure5: dict[str, dict[int, float]]
    noop_outcome: dict[str, bool]
    #: the subset the run was restricted to (``None`` = the full pool)
    pids: Optional[Sequence[str]] = None


def run_experiments(runner: BenchmarkRunner,
                    pids: Optional[Sequence[str]] = None,
                    verbose: bool = False) -> ExperimentReport:
    """Run the paper's evaluation: the agent suite, the three non-LLM
    baselines, the Figure-5 step-limit sweep over :data:`REDUCED_PIDS`
    and the §3.6.4 Noop probe.

    ``runner`` carries seed, step limit and concurrency.  ``pids``
    restricts the suite and the sweep to a subset (a smoke run); the
    baselines are whole-task batch algorithms and are then skipped.
    """
    results = runner.run_suite(pids=pids, verbose=verbose)
    baselines = {} if pids is not None else {
        name: run_baseline_suite(name, seed=runner.seed)
        for name in ("mksmc", "pdiagnose", "rmlad")
    }
    figure5 = runner.sweep_step_limit(
        pids=REDUCED_PIDS if pids is None else pids)
    noop_outcome = {
        agent: all(runner.run_case(agent, pid).success
                   for pid in noop_pids())
        for agent in AGENT_NAMES
    }
    return ExperimentReport(seed=runner.seed, results=results,
                            baselines=baselines, figure5=figure5,
                            noop_outcome=noop_outcome, pids=pids)


def _comparison_table(report: ExperimentReport) -> str:
    rows = []
    for (_, label, task, at), row in PAPER.items():
        for name, paper in row.items():
            if name in report.baselines:
                measured = report.baselines[name]["accuracy"]
            elif name in AGENT_NAMES:
                measured = report.results.accuracy(name, task, at=at)
            else:
                continue            # a baseline this (subset) run skipped
            rows.append([label, name.upper(), f"{paper:.1f}%",
                         f"{measured:.1%}"])
    return render_table(["Metric", "Agent", "Paper", "Measured (this repo)"],
                        rows)


def _verdicts(report: ExperimentReport) -> str:
    if report.pids is not None:
        return (f"Not evaluated: this run covers {len(report.pids)} problems; "
                "the claims are about the full pool.")
    return "\n".join(
        f"- [{'held' if claim.check(report) else 'FAILED'}] `{claim.id}` "
        f"({claim.section}): {claim.statement}" for claim in CLAIMS)


def _fenced(title: str, series: dict) -> str:
    return "```\n" + render_series(title, series) + "\n```"


_INTRO = """# EXPERIMENTS — paper vs. measured

Every number below regenerates with
``python -m repro make-report --seed {seed}``; the claims in the last
section are asserted, at ``AIOPSLAB_BENCH_SEED`` (default 0), by
``pytest benchmarks/test_claims.py``.

The substrate is a simulator and each task has only 11–13 problems, so what
is checked is the *orderings* (who wins, what is hard) listed under "Shape
targets" below, not the per-cell accuracies.  Each verdict is for this run's
seed only: how often a claim holds across seeds is not yet recorded.
"""


def render_markdown(report: ExperimentReport) -> str:
    """The full EXPERIMENTS.md content."""
    results = report.results
    sections = [
        ("Headline comparison (Tables 3 & 4)", _comparison_table(report)),
        ("Table 2 — problem pool", render_table(*table2_problem_pool())),
        ("Table 3 — overall (measured)",
         render_table(*table3_overall(results))),
        *((f"Table 4 — {task} (measured)", render_table(*table))
          for task, table in table4_by_task(
              results, baselines=report.baselines).items()),
        ("Table 5 — system command occurrences (measured)",
         render_table(*table5_commands(results))),
        ("Figure 5 — accuracy vs step limit (measured)",
         _fenced("accuracy @ K", report.figure5)),
        ("Figure 6 — % of actions by API (measured)",
         _fenced("action mix", figure6_api_usage(results))),
        ("Figure 7 — action distribution by outcome (measured)",
         _fenced("by outcome", figure7_action_distribution(results))),
        ("§3.6.4 — Noop false-positive probe", "\n".join(
            f"- {agent}: "
            + ("correct (reports healthy)" if ok else "FALSE POSITIVE")
            for agent, ok in report.noop_outcome.items())),
        ("Shape targets — `repro.bench.claims.CLAIMS`", _verdicts(report)),
    ]
    return _INTRO.format(seed=report.seed) + "".join(
        f"\n## {title}\n\n{body}\n" for title, body in sections)
