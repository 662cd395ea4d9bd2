"""Table formatters: Tables 2, 3, 4 and 5 from suite results.

Formatting only — every number comes from :class:`SuiteResults`
(accuracies, means) or :mod:`repro.bench.figures` (command counts).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.agents.registry import AGENT_NAMES, registration_loc
from repro.bench.figures import TABLE5_COMMANDS, command_counts
from repro.bench.runner import SuiteResults
from repro.core.problem import TASK_CLASSES
from repro.faults.library import FAULT_LIBRARY
from repro.problems import benchmark_pids


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Fixed-width text table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))

    def fmt(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    sep = "-+-".join("-" * w for w in widths)
    out = [fmt(headers), sep] + [fmt(r) for r in str_rows]
    if title:
        out.insert(0, title)
    return "\n".join(out)


def table2_problem_pool() -> tuple[list[str], list[list[object]]]:
    """Fault inventory with per-fault problem counts (Table 2)."""
    pool = benchmark_pids()
    headers = ["No.", "Name", "Application", "Task Level", "Category",
               "Ext.", "# Problems"]
    rows: list[list[object]] = []
    for spec in FAULT_LIBRARY:
        if spec.injector == "none":
            count = 2  # the two Noop probes
        else:
            count = sum(1 for p in pool if p.startswith(spec.fault_key + "_"))
        levels = ", ".join(str(l) for l in spec.task_levels)
        rows.append([spec.number, spec.name, spec.application, levels,
                     spec.category, spec.extensibility, count])
    return headers, rows


def table3_overall(results: SuiteResults,
                   agents: Sequence[str] = AGENT_NAMES
                   ) -> tuple[list[str], list[list[object]]]:
    """Overall performance: LoC, time, steps, tokens, accuracy (Table 3)."""
    headers = ["Agent", "LoC", "Time (s)", "# Steps", "Tokens", "Acc."]
    rows = [[agent.upper(), registration_loc(agent),
             f"{results.mean('duration_s', agent):.2f}",
             f"{results.mean('steps', agent):.2f}",
             f"{results.mean('tokens', agent):,.1f}",
             f"{results.accuracy(agent):.2%}"]
            for agent in agents if results.select(agent)]
    return headers, rows


def table4_by_task(results: SuiteResults,
                   agents: Sequence[str] = AGENT_NAMES,
                   baselines: Optional[dict[str, dict[str, float]]] = None
                   ) -> dict[str, tuple[list[str], list[list[object]]]]:
    """Per-task performance tables (Table 4a–d).

    ``baselines`` maps baseline name → {"task": ..., "accuracy": ...,
    "time_s": ...} rows for MKSMC/PDiagnose/RMLAD.  Localization shows
    acc@3 and acc@1; the other tasks one accuracy.
    """
    out: dict[str, tuple[list[str], list[list[object]]]] = {}
    for task in TASK_CLASSES:
        top_k = task == "localization"
        ks = (3, 1) if top_k else (1,)
        headers = ["Agent", *(["Acc.@3", "Acc.@1"] if top_k else ["Accuracy"]),
                   "Time (s)", "# Steps", "Input", "Output"]
        rows: list[list[object]] = [
            [agent.upper(),
             *(f"{results.accuracy(agent, task, at=k):.2%}" for k in ks),
             f"{results.mean('duration_s', agent, task):.2f}",
             f"{results.mean('steps', agent, task):.2f}",
             f"{results.mean('input_tokens', agent, task):,.1f}",
             f"{results.mean('output_tokens', agent, task):,.1f}"]
            for agent in agents if results.select(agent, task)]
        for name, info in (baselines or {}).items():
            if info.get("task") != task:
                continue
            # single-answer methods: one accuracy in every column, as the paper
            rows.append([name.upper(), *[f"{info['accuracy']:.2%}"] * len(ks),
                         f"{info.get('time_s', 0):.2f}", "N/A", "N/A", "N/A"])
        out[task] = (headers, rows)
    return out


def table5_commands(results: SuiteResults,
                    agents: Sequence[str] = ("react", "flash")
                    ) -> tuple[list[str], list[list[object]]]:
    """Occurrences of (non-kubectl) system commands per agent (Table 5)."""
    counts = command_counts(results, agents)
    return (["Agent", *TABLE5_COMMANDS],
            [[agent.upper(), *counts[agent].values()] for agent in agents])
