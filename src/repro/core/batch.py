"""Batch execution of sessions (the v2 fan-out layer).

:func:`run_sessions_sync` runs independent :class:`SessionSpec`\\ s either
serially in the calling thread (``concurrency=1``) or over a process pool
(``concurrency>1``) — multi-core parallelism for the CPU-bound 4-agents ×
48-problems suite; :func:`run_grid` does the same for cells forked off one
prepared :class:`~repro.core.env.EnvSnapshot`.  Each spec carries its own
seed (derived upstream from ``(seed, agent, pid)``), every handle owns a
private environment, and results come back in input order regardless of
completion order — so the serial loop and any pool size are bit-identical.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from functools import partial
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

    ``agent`` is either a ready agent object (anything with ``get_action``)
    or an :data:`AgentFactory` called after the environment is set up —
    factories are the common case, since agent prompts are built from the
    session context.
    """

    problem: Union[Problem, str]
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


def _build_agent(spec: Union[SessionSpec, "GridCell"],
                 handle: SessionHandle) -> Any:
    """The spec's (or cell's) agent, calling its factory now that the
    handle's context exists."""
    agent = spec.agent
    if callable(agent) and not hasattr(agent, "get_action"):
        agent = agent(handle.context, handle.problem.task_type, spec.seed)
    return agent


def _serial_map(fn: Callable, items: Sequence,
                progress: Optional[Callable[[Any], None]]) -> list:
    results = []
    for item in items:
        results.append(fn(item))
        if progress is not None:
            progress(results[-1])
    return results


def _pool_map(fn: Callable, items: Sequence, processes: int,
              progress: Optional[Callable[[Any], None]] = None,
              on_error: Optional[Callable[[Any, BaseException], Any]] = None,
              initializer: Optional[Callable] = None,
              initargs: tuple = ()) -> list:
    """Map ``fn`` over ``items`` on a process pool; results in input order.

    ``progress`` fires in the parent as each item completes.  An exception
    out of a worker becomes that item's result via ``on_error(item, exc)``;
    without ``on_error`` the first one propagates and undispatched work is
    cancelled.  fork keeps worker start cheap and inherits the warmed
    import state; spawn is the portable fallback.
    """
    if not items:
        return []
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    results: list = [None] * len(items)
    with ProcessPoolExecutor(max_workers=min(processes, len(items)),
                             mp_context=ctx, initializer=initializer,
                             initargs=initargs) as pool:
        futures = {pool.submit(fn, item): i for i, item in enumerate(items)}
        for future in as_completed(futures):
            i = futures[future]
            error = future.exception()
            if error is not None and on_error is None:
                pool.shutdown(cancel_futures=True)
                raise error
            results[i] = future.result() if error is None \
                else on_error(items[i], error)
            if progress is not None:
                progress(results[i])
    return results


def _run_spec(spec: SessionSpec, orch: Optional[Orchestrator] = None,
              fail_fast: bool = False,
              release_handles: bool = False) -> SessionOutcome:
    """Run one spec start-to-finish in this thread."""
    outcome = SessionOutcome(spec=spec)
    try:
        if orch is not None:
            handle = orch.create_session(
                spec.problem, seed=spec.seed, agent_name=spec.agent_name)
        else:  # untracked: the handle (and its env) dies with the case
            handle = SessionHandle(
                Orchestrator._resolve_problem(spec.problem),
                seed=spec.seed, agent_name=spec.agent_name)
        outcome.handle = handle
        handle.bind_agent(_build_agent(spec, handle), name=spec.agent_name)
        outcome.result = handle.run_sync(max_steps=spec.max_steps)
    except Exception as e:  # isolate failures to their own case
        if fail_fast:
            # the raise drops the outcome, so an untracked handle would
            # leak its environment's export directory
            release_handles = release_handles or orch is None
            raise
        outcome.error = e
    finally:
        if outcome.handle is not None:
            # keep the (possibly partial) trajectory reachable
            outcome.session = outcome.handle.session
            if release_handles:
                # free the environment as soon as the case is done (failed
                # or not); closing it (via the orchestrator, if it tracks
                # the handle) removes its temp export dir
                if orch is not None:
                    orch.release(outcome.handle)
                else:
                    outcome.handle.close()
                outcome.handle = None
    return outcome


def run_sessions_sync(specs: Sequence[SessionSpec],
                      concurrency: int = 4,
                      orchestrator: Optional[Orchestrator] = None,
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
    since the spec's own seed fully determines the run.  Pool specs must
    be picklable (use ``repro.agents.registry.agent_factory`` or any
    module-level factory, not a lambda/closure agent), pool handles are
    always released (environments never cross the process boundary), and
    the pool cannot track handles on an ``orchestrator``.

    By default a failing session never takes the batch down — its outcome
    carries the exception instead; ``fail_fast=True`` propagates the first
    failure instead of spending the rest of the batch's budget.
    ``release_handles=True`` closes and drops each handle (environment,
    telemetry stores, exported artifact files under its temp export root)
    as its case finishes, keeping only the in-memory trajectory and
    result — essential for paper-scale suites where 288 live environments
    would otherwise coexist.  Passing an ``orchestrator`` tracks every
    handle on it (``orchestrator.handles``) until released.  ``progress``
    is called in this process as each case completes.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if concurrency > 1:
        if orchestrator is not None:
            raise ValueError(
                "the process pool cannot track handles on an "
                "orchestrator; pass orchestrator=None")
        # session errors already live on the outcome; only worker-level
        # failures (e.g. an unpicklable spec) reach on_error
        return _pool_map(
            partial(_run_spec, fail_fast=fail_fast, release_handles=True),
            list(specs), concurrency, progress=progress,
            on_error=None if fail_fast else
            lambda spec, e: SessionOutcome(spec=spec, error=e))
    return _serial_map(
        partial(_run_spec, orch=orchestrator, fail_fast=fail_fast,
                release_handles=release_handles), specs, progress)


# ----------------------------------------------------------------------
# snapshot grids: warm workers amortize one prepared environment across
# every (agent × seed × step-limit) cell
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GridCell:
    """One cell of a snapshot sweep grid.

    Cells are tiny and picklable (an :data:`AgentFactory` plus three
    scalars), so shipping thousands of them to warm workers costs
    nothing next to the one-time snapshot transfer.  ``seed`` seeds the
    *agent* — the environment seed is frozen into the snapshot.
    """

    agent: Union[Any, AgentFactory]
    agent_name: str = "agent"
    seed: int = 0
    max_steps: int = 20


def run_grid_cell(snapshot: EnvSnapshot, cell: GridCell) -> dict:
    """Run one grid cell against a fresh fork of ``snapshot``.

    The snapshot must have been taken with its
    :class:`~repro.core.problem.Problem` as ``extras``
    (``env.snapshot(extras=problem)``) — the fork then resumes at the
    prepared point (deployed, warmed up, fault injected) and the session
    skips all of that setup.  Returns the evaluation result dict, the
    only thing a 1000-cell grid keeps per cell.
    """
    env, problem = snapshot.fork_with_extras()
    if not isinstance(problem, Problem):
        env.close()
        raise ValueError(
            "grid snapshots must co-capture their problem: take them "
            "with env.snapshot(extras=problem)")
    handle = SessionHandle(problem, seed=cell.seed,
                           agent_name=cell.agent_name, env=env)
    try:
        handle.bind_agent(_build_agent(cell, handle), name=cell.agent_name)
        return handle.run_sync(max_steps=cell.max_steps)
    finally:
        handle.close()


#: the warm worker's snapshot, set once per worker by the pool initializer
#: (fork-inherited where available) so it is never re-shipped per cell
_WARM_SNAPSHOT: Optional[EnvSnapshot] = None


def _init_warm_worker(snapshot: EnvSnapshot) -> None:
    global _WARM_SNAPSHOT
    _WARM_SNAPSHOT = snapshot


def _run_cell_in_worker(cell: GridCell) -> dict:
    return run_grid_cell(_WARM_SNAPSHOT, cell)


def run_grid(snapshot: EnvSnapshot, cells: Sequence[GridCell],
             processes: int = 1,
             progress: Optional[Callable[[dict], None]] = None) -> list[dict]:
    """Run every cell against forks of one snapshot; results in cell order.

    ``processes=1`` forks and runs each cell serially in this process.
    ``processes>1`` is the warm-worker pool: each worker receives the
    snapshot exactly once at startup (inherited on fork, along with the
    parent's warmed profile store and import state) and rehydrates per
    cell — no per-cell environment setup or snapshot transfer.  Results
    are bit-identical either way: (snapshot, cell) fully determines a
    cell's evolution.  ``progress`` is called as each cell completes.
    """
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    if processes > 1:
        return _pool_map(_run_cell_in_worker, list(cells), processes,
                         progress=progress, initializer=_init_warm_worker,
                         initargs=(snapshot,))
    return _serial_map(partial(run_grid_cell, snapshot), cells, progress)
