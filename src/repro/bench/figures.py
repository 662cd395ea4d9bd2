"""Trajectory statistics: the numbers behind Figures 6–7 and Table 5.

(Figure 5 is :meth:`BenchmarkRunner.sweep_step_limit`.)
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Sequence

from repro.bench.runner import CaseResult, SuiteResults


def render_series(title: str, series: dict[str, dict]) -> str:
    """Text rendering for figure data (keys as the x-axis)."""
    lines = [title]
    for name, points in series.items():
        pts = "  ".join(f"{k}:{v:.3f}" if isinstance(v, float) else f"{k}:{v}"
                        for k, v in points.items())
        lines.append(f"  {name:<18} {pts}")
    return "\n".join(lines)


#: in Figure 6's order (get_logs first: it wins ties for "most used")
TELEMETRY_APIS = ("get_logs", "get_metrics", "get_traces")


def classify(step) -> tuple[str, str]:
    """``(kind, shell command text)`` of one trajectory step — the single
    reading of a step that Figures 6–7 and Table 5 bucket differently.

    Kinds: ``submit``, the three telemetry APIs, ``kubectl get``,
    ``kubectl other``, ``helm``, ``shell`` (any other ``exec_shell``) and
    ``other`` (invalid or unknown actions).
    """
    if step.action_name != "exec_shell":
        direct = step.action_name in ("submit", *TELEMETRY_APIS)
        return (step.action_name if direct else "other"), ""
    command = str(step.action_args[0]) if step.action_args else ""
    if step.shell_command == "kubectl":
        verb = "get" if " get " in f" {command} " else "other"
        return f"kubectl {verb}", command
    return ("helm" if step.shell_command == "helm" else "shell"), command


def _mix(cases: Iterable[CaseResult], bucket_of: dict[str, str],
         buckets: Sequence[str]) -> dict[str, float]:
    """Percent of ``cases``' steps per bucket (unmapped kinds: ``Others``)."""
    counts = Counter(bucket_of.get(classify(step)[0], "Others")
                     for case in cases for step in case.session.steps)
    total = sum(counts.values())
    return {b: (100.0 * counts[b] / total if total else 0.0) for b in buckets}


#: Figure 6 buckets, and the step kinds that fall in each
_F6_BUCKETS = (*TELEMETRY_APIS, "Others", "K8S")
_F6 = {**{api: api for api in TELEMETRY_APIS},
       "kubectl get": "K8S", "kubectl other": "K8S", "helm": "K8S"}


def figure6_api_usage(results: SuiteResults,
                      agents: Sequence[str] = ("react", "flash")
                      ) -> dict[str, dict[str, float]]:
    """Figure 6: percentage of actions by API category per agent.

    ``K8S`` is exec_shell with a kubectl/helm command; ``Others`` is
    everything else (submit, invalid actions, other shell commands).
    """
    return {agent: _mix(results.select(agent), _F6, _F6_BUCKETS)
            for agent in agents}


#: Figure 7 buckets, and the step kinds that fall in each
_F7_BUCKETS = ("Submit", "kubectl get", "kubectl other", "get_logs",
               "get_traces", "get_metrics", "Others")
_F7 = {**{b: b for b in _F7_BUCKETS}, "submit": "Submit"}


def figure7_action_distribution(results: SuiteResults
                                ) -> dict[str, dict[str, float]]:
    """Figure 7: action distribution split by case outcome."""
    return {label: _mix((c for c in results.cases if c.success == outcome),
                        _F7, _F7_BUCKETS)
            for label, outcome in (("successful", True), ("failure", False))}


#: the commands the paper tabulates in Table 5
TABLE5_COMMANDS = ("find", "echo", "py", "awk", "mongo", "grep", "ls", "cat", "ip")


def command_counts(results: SuiteResults,
                   agents: Sequence[str] = ("react", "flash")
                   ) -> dict[str, dict[str, int]]:
    """Table 5: occurrences of (non-kubectl) system commands per agent."""
    out = {}
    for agent in agents:
        words = Counter(
            word for case in results.select(agent)
            for step in case.session.steps
            for word in re.findall(r"[a-z]+", classify(step)[1]))
        out[agent] = {c: words[c] for c in TABLE5_COMMANDS}
    return out
