"""Constructs the benchmark problem pool from the fault library.

Composition (reconciling Table 2 with the 48-problem count, see DESIGN.md):

* 7 functional faults × their injection targets = 11 problem families,
  each instantiated at all 4 task levels → 44 problems;
* NetworkLoss and PodFailure at levels 1–2 → 4 problems;
* total benchmark = **48**; plus 2 Noop detection probes (§3.6.4),
  evaluated separately for false positives.

Problem ids follow the paper's shape, and every pool (hand-written,
scenario, generated) shares one grammar::

    pid   := stem "-" task "-" index
    stem  := [a-z0-9_]+        (never contains "-")
    task  := detection | localization | analysis | mitigation
    index := [0-9]+

e.g. ``misconfig_k8s_social_net-localization-1``.  :func:`split_pid`
parses it; :func:`list_problems` filters on the parsed ``task`` field
instead of a substring (a stem like ``reload_detection_probe`` can never
shadow a task name again).  Generated pids (see
:mod:`repro.problems.generator`) additionally encode their recipe in the
stem prefix ``gen<seed>x<index>_`` and resolve through
:func:`get_problem` with no prior registration.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.apps import APP_CLASSES
from repro.core.problem import TASK_CLASSES, Problem
from repro.faults.library import FAULT_LIBRARY, FaultSpec
from repro.problems.generator import (
    generated_pool,
    is_generated_pid,
    problem_for_pid,
)
from repro.problems.scenarios import SCENARIOS

#: Table-2 task level (1-4) -> task name
_LEVEL_TO_TASK = dict(enumerate(TASK_CLASSES, start=1))


def _make_factory(task: str, spec: FaultSpec, target: Optional[str],
                  app_name: str, pid: str) -> Callable[[], Problem]:
    cls = TASK_CLASSES[task]

    def factory() -> Problem:
        return cls(spec.number if spec.injector != "none" else "Noop",
                   target=target, app_name=app_name, pid=pid)

    factory.__name__ = f"make_{pid.replace('-', '_')}"
    return factory


def _build() -> tuple[dict[str, Callable[[], Problem]], list[str], list[str]]:
    factories: dict[str, Callable[[], Problem]] = {}
    benchmark: list[str] = []
    noop: list[str] = []
    for spec in FAULT_LIBRARY:
        apps = (["HotelReservation", "SocialNetwork"]
                if spec.application == "both" else [spec.application])
        for app_name in apps:
            targets = spec.targets.get(app_name, ()) or (None,)
            for level in spec.task_levels:
                task = _LEVEL_TO_TASK[level]
                for i, target in enumerate(targets, start=1):
                    pid = (f"{spec.fault_key or 'noop'}"
                           f"_{APP_CLASSES[app_name].short_name}-{task}-{i}")
                    factories[pid] = _make_factory(task, spec, target,
                                                   app_name, pid)
                    if spec.injector == "none":
                        noop.append(pid)
                    else:
                        benchmark.append(pid)
    return factories, benchmark, noop


PROBLEM_FACTORIES, _BENCHMARK_PIDS, _NOOP_PIDS = _build()
_SCENARIOS = {row.pid: row for row in SCENARIOS}


def split_pid(pid: str) -> Optional[tuple[str, str, int]]:
    """Parse ``pid`` into ``(stem, task, index)`` per the pool grammar,
    or ``None`` if it doesn't conform.  The stem is hyphen-free, so
    splitting on the last two hyphens is unambiguous."""
    parts = pid.rsplit("-", 2)
    if len(parts) != 3:
        return None
    stem, task, index = parts
    if not stem or "-" in stem or task not in TASK_CLASSES \
            or not index.isdigit():
        return None
    return stem, task, int(index)


def benchmark_pids() -> list[str]:
    """The 48 benchmark problem ids (stable order: Table-2 order)."""
    return list(_BENCHMARK_PIDS)


def noop_pids() -> list[str]:
    """The two Noop false-positive probes (§3.6.4)."""
    return list(_NOOP_PIDS)


def scenario_pids(n: Optional[int] = None, seed: int = 0) -> list[str]:
    """Scheduled-fault scenario problems built on the event kernel's
    :class:`~repro.faults.schedule.FaultSchedule` timelines.

    With no arguments, the hand-written scenario catalog (delayed onset,
    flapping, cascades, traffic surges).  With ``n`` (and optionally
    ``seed``), a procedurally generated pool of ``n`` fresh scenarios —
    shorthand for :func:`repro.problems.generator.generated_pool`.

    Kept separate from :func:`benchmark_pids` so the paper-faithful
    48-problem set is untouched."""
    if n is None:
        return list(_SCENARIOS)
    return generated_pool(n, seed=seed)


def get_problem(pid: str) -> Problem:
    """Instantiate a fresh problem for ``pid`` (problems are single-use).

    Resolution order: benchmark/noop factories, the hand-written
    scenario table, and — for ``gen<seed>x<index>_…`` pids — the
    generator, which rebuilds the problem from the recipe encoded in the
    pid."""
    if pid in PROBLEM_FACTORIES:
        return PROBLEM_FACTORIES[pid]()
    if pid in _SCENARIOS:
        return _SCENARIOS[pid].problem()
    if is_generated_pid(pid):
        return problem_for_pid(pid)
    raise KeyError(
        f"unknown problem id {pid!r}; see list_problems()")


def list_problems(task_type: Optional[str] = None,
                  include_noop: bool = False,
                  include_scenarios: bool = False) -> list[str]:
    """Problem ids, optionally filtered by task type.

    The filter parses each pid with :func:`split_pid` and matches the
    ``task`` field exactly; an unknown ``task_type`` raises ``ValueError``
    instead of silently returning an empty list."""
    pids = benchmark_pids() + (noop_pids() if include_noop else []) \
        + (scenario_pids() if include_scenarios else [])
    if task_type is None:
        return pids
    if task_type not in TASK_CLASSES:
        raise ValueError(
            f"unknown task type {task_type!r}; expected one of "
            f"{', '.join(TASK_CLASSES)}")
    out = []
    for p in pids:
        parsed = split_pid(p)
        if parsed is not None and parsed[1] == task_type:
            out.append(p)
    return out


def pool_summary() -> dict[str, int]:
    """Problem counts per task type (the Table-2/§3.3 accounting)."""
    out: dict[str, int] = {}
    for task in TASK_CLASSES:
        out[task] = len(list_problems(task))
    out["total"] = len(benchmark_pids())
    out["noop"] = len(noop_pids())
    out["scenario"] = len(scenario_pids())
    return out
