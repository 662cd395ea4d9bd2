"""Evaluates the non-LLM baselines over the benchmark problems (Table 4a/4b).

The baselines are batch algorithms: each incident's environment is stood up
once (warmup → inject → soak, exactly as the Orchestrator would) and its
*telemetry* — not the ACI — goes to every baseline whose task one of the
incident's pids poses.  Incidents are grouped by
:meth:`~repro.core.problem.Problem.incident_key`; each answer is graded by
its own pid's problem.
"""

from __future__ import annotations

import time
from typing import Any, Optional, Sequence

from repro.baselines.mksmc import MKSMC
from repro.baselines.pdiagnose import PDiagnose
from repro.baselines.rmlad import RMLAD
from repro.problems import get_problem, list_problems


def _mksmc(env, seed: int) -> str:
    services, inject_t = sorted(env.app.services), env.armed.armed_at
    detector = MKSMC(seed=seed).fit(env.collector.metrics, services,
                                    until=inject_t)
    verdict = detector.detect(env.collector.metrics, services, since=inject_t)
    return "yes" if verdict.anomalous else "no"


#: baseline name → (its task, its call on a prepared environment returning
#: the answer an agent would submit)
BASELINES = {
    "mksmc": ("detection", _mksmc),
    "pdiagnose": ("localization", lambda env, seed: PDiagnose().localize(
        env.collector, env.namespace, since=env.armed.armed_at).ranking),
    "rmlad": ("localization", lambda env, seed: RMLAD().localize(
        env.collector, env.namespace, healthy_until=env.armed.armed_at,
        observe_until=env.clock.now).ranking),
}


def run_baselines(names: Sequence[str], pids: Optional[Sequence[str]] = None,
                  seed: int = 0) -> dict[str, dict[str, Any]]:
    """Run baselines over their tasks' problems, preparing each incident once.

    ``pids`` defaults to every benchmark problem of the baselines' tasks.
    Returns one Table-4-style row per name: ``{"task", "accuracy",
    "accuracy@1", "time_s"}``, plus ``"accuracy@3"`` for localization.  The
    paper reports one accuracy for these methods (Acc@3 == Acc@1 in Table
    4b), so ``accuracy`` is top-1 and top-3 is supplementary.
    """
    tasks = {name: BASELINES[name][0] for name in map(str.lower, names)}
    if pids is None:
        pids = [pid for task in dict.fromkeys(tasks.values())
                for pid in list_problems(task)]
    incidents: dict[str, list] = {}
    for problem in map(get_problem, pids):
        if problem.task_type in tasks.values():
            incidents.setdefault(problem.incident_key(), []).append(problem)
    grades: dict[str, list[dict]] = {name: [] for name in tasks}
    elapsed = dict.fromkeys(tasks, 0.0)
    for problems in incidents.values():
        env = problems[0].prepare(seed)
        try:
            env.advance(30.0)  # an observation window, like an agent's steps
            for problem in problems:
                for name in (n for n in tasks if tasks[n] == problem.task_type):
                    t0 = time.perf_counter()
                    answer = BASELINES[name][1](env, seed)
                    elapsed[name] += time.perf_counter() - t0
                    # graded as an agent's submission, by the problem's own
                    # oracle — one spelling of ground truth
                    grades[name].append(problem.eval(answer, None, 0.0))
        finally:
            env.close()
    rows = {}
    for name, graded in grades.items():
        n = max(len(graded), 1)
        top1 = sum(g["success"] for g in graded) / n
        rows[name] = {"task": tasks[name], "accuracy": top1,
                      "accuracy@1": top1}
        if tasks[name] == "localization":
            rows[name]["accuracy@3"] = sum(g["success@3"] for g in graded) / n
        rows[name]["time_s"] = elapsed[name] / n
    return rows
