"""Table formatters: regenerate Tables 2, 3, 4 and 5 from suite results."""

from __future__ import annotations

import re
from typing import Optional, Sequence

from repro.agents.registry import AGENT_NAMES, registration_loc
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


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------
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


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------
def table3_overall(results: SuiteResults,
                   agents: Sequence[str] = AGENT_NAMES
                   ) -> tuple[list[str], list[list[object]]]:
    """Overall performance: LoC, time, steps, tokens, accuracy (Table 3)."""
    headers = ["Agent", "LoC", "Time (s)", "# Steps", "Tokens", "Acc."]
    rows: list[list[object]] = []
    for agent in agents:
        cases = results.for_agent(agent)
        if not cases:
            continue
        n = len(cases)
        time_avg = sum(c.duration_s for c in cases) / n
        steps_avg = sum(c.steps for c in cases) / n
        tokens_avg = sum(c.input_tokens + c.output_tokens for c in cases) / n
        acc = results.accuracy(agent)
        rows.append([
            agent.upper(), registration_loc(agent), f"{time_avg:.2f}",
            f"{steps_avg:.2f}", f"{tokens_avg:,.1f}", f"{acc:.2%}",
        ])
    return headers, rows


# ---------------------------------------------------------------------------
# Table 4
# ---------------------------------------------------------------------------
def table4_by_task(results: SuiteResults,
                   agents: Sequence[str] = AGENT_NAMES,
                   baselines: Optional[dict[str, dict[str, float]]] = None
                   ) -> dict[str, tuple[list[str], list[list[object]]]]:
    """Per-task performance tables (Table 4a–d).

    ``baselines`` maps baseline name → {"task": ..., "accuracy": ...,
    "accuracy@1": ..., "time_s": ...} rows for MKSMC/PDiagnose/RMLAD.
    """
    out: dict[str, tuple[list[str], list[list[object]]]] = {}
    for task in TASK_CLASSES:
        if task == "localization":
            headers = ["Agent", "Acc.@3", "Acc.@1", "Time (s)", "# Steps",
                       "Input", "Output"]
        else:
            headers = ["Agent", "Accuracy", "Time (s)", "# Steps",
                       "Input", "Output"]
        rows: list[list[object]] = []
        for agent in agents:
            cases = results.for_task(task, agent)
            if not cases:
                continue
            n = len(cases)
            time_avg = sum(c.duration_s for c in cases) / n
            steps_avg = sum(c.steps for c in cases) / n
            in_avg = sum(c.input_tokens for c in cases) / n
            out_avg = sum(c.output_tokens for c in cases) / n
            if task == "localization":
                acc3 = sum(c.details.get("success@3", c.success)
                           for c in cases) / n
                acc1 = sum(c.details.get("success@1", c.success)
                           for c in cases) / n
                rows.append([agent.upper(), f"{acc3:.2%}", f"{acc1:.2%}",
                             f"{time_avg:.2f}", f"{steps_avg:.2f}",
                             f"{in_avg:,.1f}", f"{out_avg:,.1f}"])
            elif task == "analysis":
                # graded over 2 sub-answers per problem (22 total)
                sub = sum(c.details.get("subtasks_correct",
                                        2 * int(c.success)) for c in cases)
                acc = sub / (2 * n)
                rows.append([agent.upper(), f"{acc:.2%}", f"{time_avg:.2f}",
                             f"{steps_avg:.2f}", f"{in_avg:,.1f}",
                             f"{out_avg:,.1f}"])
            else:
                acc = results.accuracy(agent, task)
                rows.append([agent.upper(), f"{acc:.2%}", f"{time_avg:.2f}",
                             f"{steps_avg:.2f}", f"{in_avg:,.1f}",
                             f"{out_avg:,.1f}"])
        for name, info in (baselines or {}).items():
            if info.get("task") != task:
                continue
            if task == "localization":
                rows.append([name.upper(), f"{info['accuracy']:.2%}",
                             f"{info.get('accuracy@1', info['accuracy']):.2%}",
                             f"{info.get('time_s', 0):.2f}", "N/A", "N/A", "N/A"])
            else:
                rows.append([name.upper(), f"{info['accuracy']:.2%}",
                             f"{info.get('time_s', 0):.2f}", "N/A", "N/A", "N/A"])
        out[task] = (headers, rows)
    return out


# ---------------------------------------------------------------------------
# Table 5
# ---------------------------------------------------------------------------
#: the commands the paper tabulates
TABLE5_COMMANDS = ("find", "echo", "py", "awk", "mongo", "grep", "ls", "cat", "ip")


def table5_commands(results: SuiteResults,
                    agents: Sequence[str] = ("react", "flash")
                    ) -> tuple[list[str], list[list[object]]]:
    """Occurrences of (non-kubectl) system commands per agent (Table 5)."""
    headers = ["Agent"] + list(TABLE5_COMMANDS)
    rows: list[list[object]] = []
    for agent in agents:
        counts = {c: 0 for c in TABLE5_COMMANDS}
        for case in results.for_agent(agent):
            for step in case.session.steps:
                if step.action_name != "exec_shell" or not step.action_args:
                    continue
                command = str(step.action_args[0])
                for word in re.findall(r"[a-z]+", command):
                    if word in counts:
                        counts[word] += 1
        rows.append([agent.upper()] + [counts[c] for c in TABLE5_COMMANDS])
    return headers, rows
