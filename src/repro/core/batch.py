"""Batch execution of sessions (the v2 fan-out layer).

:func:`run_sessions_sync` runs independent :class:`SessionSpec`\\ s either
serially in the calling thread (``concurrency=1``) or over a process pool
(``concurrency>1``) — multi-core parallelism for the CPU-bound 4-agents ×
48-problems suite.  A spec starts cold from a problem (or its id) or from
a fork of a prepared :class:`~repro.core.env.EnvSnapshot`; both run the
same code on either path.  Each spec carries its own seed (derived
upstream from ``(seed, agent, pid)``), every handle owns a private
environment, and results come back in input order regardless of
completion order — so the serial loop and any pool size are bit-identical.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from repro.core.env import EnvSnapshot
from repro.core.orchestrator import Orchestrator, SessionContext, SessionHandle
from repro.core.problem import Problem
from repro.core.session import Session

#: builds the agent once the session's environment (and thus its context)
#: exists: (context, task_type, seed) -> agent
AgentFactory = Callable[[SessionContext, str, int], Any]


@dataclass(frozen=True)
class SessionSpec:
    """Everything needed to run one session independently.

    ``problem`` is a :class:`~repro.core.problem.Problem`, a problem id,
    or an :class:`~repro.core.env.EnvSnapshot` that co-captured its
    problem (``env.snapshot(extras=problem)``): the session then runs on
    a fork of it and skips deploy, warm-up and fault soak.  Specs of one
    sweep share the one snapshot object.

    ``agent`` is either a ready agent object (anything with ``get_action``)
    or an :data:`AgentFactory` called after the environment is set up —
    factories are the common case, since agent prompts are built from the
    session context.
    """

    problem: Union[Problem, str, EnvSnapshot]
    agent: Union[Any, AgentFactory]
    agent_name: str = "agent"
    seed: int = 0
    max_steps: int = 20


@dataclass
class SessionOutcome:
    """One spec's result: the evaluation dict and trajectory, plus the
    handle (env and all) unless the batch released it, or the error that
    aborted the session."""

    spec: SessionSpec
    handle: Optional[SessionHandle] = None
    session: Optional[Session] = None
    result: Optional[dict] = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None


#: per-completion hook (progress reporting); called in completion order
ProgressHook = Callable[[SessionOutcome], None]


def _open_handle(spec: SessionSpec) -> SessionHandle:
    """The spec's handle, on a cold environment or a fork of its snapshot."""
    if not isinstance(spec.problem, EnvSnapshot):
        return SessionHandle(Orchestrator._resolve_problem(spec.problem),
                             seed=spec.seed, agent_name=spec.agent_name)
    env, problem = spec.problem.fork_with_extras()
    try:
        if not isinstance(problem, Problem):
            raise ValueError(
                "snapshot specs must co-capture their problem: take the "
                "snapshot with env.snapshot(extras=problem)")
        return SessionHandle(problem, seed=spec.seed,
                             agent_name=spec.agent_name, env=env)
    except BaseException:
        env.close()  # the handle never owned the fork; this executor does
        raise


def _build_agent(spec: SessionSpec, handle: SessionHandle) -> Any:
    """The spec's agent, calling its factory now that the handle's
    context exists."""
    agent = spec.agent
    if callable(agent) and not hasattr(agent, "get_action"):
        agent = agent(handle.context, handle.problem.task_type, spec.seed)
    return agent


def _run_spec(spec: SessionSpec, fail_fast: bool = False,
              release_handles: bool = False) -> SessionOutcome:
    """Run one spec start-to-finish in this thread."""
    outcome = SessionOutcome(spec=spec)
    try:
        handle = outcome.handle = _open_handle(spec)
        handle.bind_agent(_build_agent(spec, handle), name=spec.agent_name)
        outcome.result = handle.run_sync(max_steps=spec.max_steps)
    except Exception as e:  # isolate failures to their own case
        if fail_fast:
            # the raise drops the outcome, so a kept handle would leak its
            # environment's export directory
            release_handles = True
            raise
        outcome.error = e
    finally:
        if outcome.handle is not None:
            # keep the (possibly partial) trajectory reachable
            outcome.session = outcome.handle.session
            if release_handles:
                # free the environment as soon as the case is done (failed
                # or not); closing it removes its temp export dir
                outcome.handle.close()
                outcome.handle = None
    return outcome


def _run_spec_in_worker(spec: SessionSpec,
                        fail_fast: bool) -> SessionOutcome:
    outcome = _run_spec(spec, fail_fast=fail_fast, release_handles=True)
    outcome.spec = None  # the parent holds it (and its snapshot) already
    return outcome


def _pool_map(specs: Sequence[SessionSpec], processes: int, fail_fast: bool,
              progress: Optional[ProgressHook]) -> list[SessionOutcome]:
    """Run ``specs`` on a process pool; outcomes in spec order.

    ``progress`` fires in the parent as each spec completes.  An exception
    out of a worker (a failing session under ``fail_fast``, or e.g. an
    unpicklable spec) propagates and cancels undispatched work under
    ``fail_fast``, and is otherwise that spec's outcome.  fork keeps
    worker start cheap and inherits the warmed import state; spawn is the
    portable fallback.
    """
    if not specs:
        return []
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    outcomes: list = [None] * len(specs)
    with ProcessPoolExecutor(max_workers=min(processes, len(specs)),
                             mp_context=ctx) as pool:
        futures = {pool.submit(_run_spec_in_worker, spec, fail_fast): i
                   for i, spec in enumerate(specs)}
        for future in as_completed(futures):
            i = futures[future]
            error = future.exception()
            if error is None:
                outcome = future.result()
                outcome.spec = specs[i]
            elif fail_fast:
                pool.shutdown(cancel_futures=True)
                raise error
            else:
                outcome = SessionOutcome(spec=specs[i], error=error)
            outcomes[i] = outcome
            if progress is not None:
                progress(outcome)
    return outcomes


def run_sessions_sync(specs: Sequence[SessionSpec],
                      concurrency: int = 4,
                      fail_fast: bool = False,
                      release_handles: bool = False,
                      progress: Optional[ProgressHook] = None,
                      ) -> list[SessionOutcome]:
    """Run every spec; outcomes come back in spec order.

    ``concurrency=1`` is a plain loop in the calling thread: safe inside a
    running event loop, accepts ``async def get_action`` agents, and
    returns live handles unless ``release_handles``.  ``concurrency>1``
    fans the specs out over that many worker processes, each spec running
    start-to-finish in one worker — bit-identical to the serial loop,
    since the spec (its seed, or its snapshot and agent seed) fully
    determines the run.  Pool specs must be picklable (use
    ``repro.agents.registry.agent_factory`` or any module-level factory,
    not a lambda/closure agent); a snapshot spec ships its snapshot with
    it, and pool handles are always released (environments never cross
    the process boundary).  Handles a caller wants tracked come from
    :meth:`~repro.core.orchestrator.Orchestrator.create_session`.

    By default a failing session never takes the batch down — its outcome
    carries the exception instead; ``fail_fast=True`` propagates the first
    failure instead of spending the rest of the batch's budget.
    ``release_handles=True`` closes and drops each handle (environment,
    telemetry stores, exported artifact files under its temp export root)
    as its case finishes, keeping only the in-memory trajectory and
    result — essential for paper-scale suites where 288 live environments
    would otherwise coexist.  ``progress`` is called in this process as
    each case completes.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if concurrency > 1:
        return _pool_map(list(specs), concurrency, fail_fast, progress)
    outcomes = []
    for spec in specs:
        outcomes.append(_run_spec(spec, fail_fast, release_handles))
        if progress is not None:
            progress(outcomes[-1])
    return outcomes


@dataclass(frozen=True)
class GridCell:
    """One cell of a snapshot sweep grid: a :class:`SessionSpec` without
    its snapshot.  ``seed`` seeds the *agent* — the environment seed is
    frozen into the snapshot."""

    agent: Union[Any, AgentFactory]
    agent_name: str = "agent"
    seed: int = 0
    max_steps: int = 20


def run_grid_cell(snapshot: EnvSnapshot, cell: GridCell) -> dict:
    """Run one grid cell against a fresh fork of ``snapshot`` and return
    its evaluation result dict.

    The snapshot must have been taken with its
    :class:`~repro.core.problem.Problem` as ``extras``
    (``env.snapshot(extras=problem)``) — the fork then resumes at the
    prepared point (deployed, warmed up, fault injected) and the session
    skips all of that setup.
    """
    spec = SessionSpec(problem=snapshot, agent=cell.agent,
                       agent_name=cell.agent_name, seed=cell.seed,
                       max_steps=cell.max_steps)
    return _run_spec(spec, fail_fast=True, release_handles=True).result
