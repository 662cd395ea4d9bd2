"""Suite runner: agents × problems → per-case results plus trajectories.

Built on :mod:`repro.core.batch`: every case is one independent
:class:`~repro.core.batch.SessionSpec` whose seed derives from
``(seed, agent, pid)``, so ``run_suite(concurrency=4)`` — four worker
processes — produces results bit-identical to the serial in-process run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.agents.registry import AGENT_NAMES, agent_factory
from repro.core.batch import SessionOutcome, SessionSpec, run_sessions_sync
from repro.core.env import EnvSnapshot
from repro.core.session import Session
from repro.problems import benchmark_pids, get_problem

_SUMMARY_KEYS = ("pid", "task_type", "agent", "success", "duration_s",
                 "steps", "input_tokens", "output_tokens")


@dataclass
class CaseResult:
    """One (agent, problem) evaluation."""

    agent: str
    pid: str
    task_type: str
    success: bool
    duration_s: float
    steps: int
    input_tokens: int
    output_tokens: int
    details: dict[str, Any]
    session: Session

    @property
    def tokens(self) -> int:
        return self.input_tokens + self.output_tokens


@dataclass
class SuiteResults:
    """All cases of one benchmark run — and the one place their numbers
    are computed (the tables only format what these return)."""

    cases: list[CaseResult] = field(default_factory=list)

    def select(self, agent: Optional[str] = None,
               task: Optional[str] = None) -> list[CaseResult]:
        return [c for c in self.cases
                if agent in (None, c.agent) and task in (None, c.task_type)]

    def accuracy(self, agent: str, task: Optional[str] = None,
                 at: int = 1) -> float:
        """Fraction of ``agent``'s cases answered correctly (0 if none).

        Per task the paper's grading applies: localization counts
        ``success@at`` (top-``at`` of a submitted list), analysis counts
        correct sub-answers out of two per problem; everything else — and
        the overall figure over all tasks — counts case success.
        """
        cases = self.select(agent, task)
        if not cases:
            return 0.0
        if task == "localization":
            return sum(c.details.get(f"success@{at}", c.success)
                       for c in cases) / len(cases)
        if task == "analysis":
            return sum(c.details.get("subtasks_correct", 2 * int(c.success))
                       for c in cases) / (2 * len(cases))
        return sum(c.success for c in cases) / len(cases)

    def mean(self, field_name: str, agent: str,
             task: Optional[str] = None) -> float:
        """Per-case mean of one numeric :class:`CaseResult` field."""
        cases = self.select(agent, task)
        if not cases:
            return 0.0
        return sum(getattr(c, field_name) for c in cases) / len(cases)

    def step_limit_series(self, limits: Sequence[int],
                          pids: Optional[Iterable[str]] = None
                          ) -> dict[str, dict[int, float]]:
        """Figure 5: per agent, accuracy at each step limit K up to the
        runs' own, over ``pids`` (default: all).  A session is deterministic
        in its seed and the agent never learns its budget, so a K-step run
        is the K-step prefix of a longer one: it succeeds iff the long run
        did *and* submitted within K steps."""
        wanted = None if pids is None else set(pids)
        out: dict[str, dict[int, float]] = {}
        for agent in dict.fromkeys(c.agent for c in self.cases):
            mine = [c for c in self.select(agent)
                    if wanted is None or c.pid in wanted]
            out[agent] = {limit: sum(c.success and c.steps <= limit
                                     for c in mine) / max(len(mine), 1)
                          for limit in limits}
        return out


class BenchmarkRunner:
    """Runs agents over the problem pool (the paper's 4 agents × 48 problems).

    Parameters
    ----------
    max_steps:
        Step limit per session (paper default 20; Figure 5 reads the
        limits up to it off the same runs).
    seed:
        Root seed; case seeds derive from (seed, agent, pid), never from
        the scheduler, so every case is independently reproducible.
    concurrency:
        Number of worker processes that cases (and grid cells) fan out
        over; the default 1 runs them serially in this process.  Results
        are independent of this value.
    """

    def __init__(self, max_steps: int = 20, seed: int = 0,
                 concurrency: int = 1) -> None:
        self.max_steps = max_steps
        self.seed = seed
        self.concurrency = concurrency

    def _case_seed(self, agent: str, pid: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{agent}:{pid}".encode()).digest()
        return int.from_bytes(digest[:4], "little")

    # ------------------------------------------------------------------
    def _case_spec(self, agent_name: str, pid: str,
                   max_steps: Optional[int] = None) -> SessionSpec:
        case_seed = self._case_seed(agent_name, pid)
        return SessionSpec(
            problem=pid,
            agent=agent_factory(agent_name),
            agent_name=agent_name,
            seed=case_seed,
            max_steps=max_steps or self.max_steps,
        )

    @staticmethod
    def _case_result(outcome: SessionOutcome) -> CaseResult:
        if outcome.error is not None:
            raise outcome.error
        res = outcome.result
        details = {k: v for k, v in res.items() if k not in _SUMMARY_KEYS}
        return CaseResult(
            agent=outcome.spec.agent_name, pid=res["pid"],
            task_type=res["task_type"],
            success=bool(res["success"]), duration_s=res["duration_s"],
            steps=res["steps"], input_tokens=res["input_tokens"],
            output_tokens=res["output_tokens"], details=details,
            session=outcome.session,
        )

    def _run_specs(self, specs: Sequence[SessionSpec],
                   concurrency: Optional[int] = None,
                   verbose: bool = False) -> list[CaseResult]:
        progress = None
        if verbose:
            def progress(outcome):
                mark = "+" if outcome.result.get("success") else "-"
                print(f"[{mark}] {outcome.spec.agent_name:16s} "
                      f"{outcome.result['pid']}")
        # fail_fast: a crashing case aborts the suite immediately (the
        # seed's serial semantics) instead of after the whole batch;
        # release_handles: keep trajectories, drop environments as cases
        # finish so a 288-case suite never holds 288 live envs.
        outcomes = run_sessions_sync(
            specs,
            concurrency=self.concurrency if concurrency is None else concurrency,
            fail_fast=True, release_handles=True, progress=progress)
        return [self._case_result(o) for o in outcomes]

    # ------------------------------------------------------------------
    def run_case(self, agent_name: str, pid: str,
                 max_steps: Optional[int] = None) -> CaseResult:
        """Run one agent on one problem in a fresh environment."""
        return self._run_specs(
            [self._case_spec(agent_name, pid, max_steps)], concurrency=1)[0]

    def run_suite(
        self,
        agents: Sequence[str] = AGENT_NAMES,
        pids: Optional[Iterable[str]] = None,
        verbose: bool = False,
        concurrency: Optional[int] = None,
    ) -> SuiteResults:
        """Run every agent on every problem (4 × 48 cases at paper scale);
        ``concurrency`` overrides the runner default for this call."""
        pid_list = list(pids) if pids is not None else benchmark_pids()
        specs = [self._case_spec(agent, pid)
                 for agent in agents for pid in pid_list]
        return SuiteResults(
            cases=self._run_specs(specs, concurrency, verbose))

    def prepare_snapshot(self, pid: str,
                         env_seed: Optional[int] = None) -> EnvSnapshot:
        """Deploy, warm up and fault-inject ``pid`` once, then capture it.

        The returned :class:`~repro.core.env.EnvSnapshot` co-captures the
        problem (so forked sessions can be graded) and is what
        :meth:`sweep_grid` amortizes across every cell — the one-time
        setup cost replaces per-cell deploy + warmup + soak.
        """
        problem = get_problem(pid)
        env = problem.prepare(self.seed if env_seed is None else env_seed)
        snapshot = env.snapshot(extras=problem)
        env.close()
        return snapshot

    def sweep_grid(
        self,
        snapshot: EnvSnapshot,
        agents: Sequence[str] = AGENT_NAMES,
        seeds: Sequence[int] = (0,),
        step_limits: Optional[Sequence[int]] = None,
        concurrency: Optional[int] = None,
    ) -> list[dict]:
        """Run an (agent × seed × step-limit) grid from one snapshot.

        Every cell is a :class:`~repro.core.batch.SessionSpec` whose
        problem is ``snapshot`` — the environment seed is frozen in it;
        ``seeds`` vary the *agent* seed — so a 1000-cell grid pays
        environment setup exactly once and each cell one fork.  The cells
        run through :func:`~repro.core.batch.run_sessions_sync` like any
        other specs; results are bit-identical at any ``concurrency``, in
        cell order (agents outermost, then seeds, then step limits).
        """
        limits = list(step_limits) if step_limits is not None \
            else [self.max_steps]
        specs = [SessionSpec(problem=snapshot, agent=agent_factory(agent),
                             agent_name=agent, seed=seed, max_steps=limit)
                 for agent in agents for seed in seeds for limit in limits]
        outcomes = run_sessions_sync(
            specs,
            concurrency=self.concurrency if concurrency is None else concurrency,
            fail_fast=True, release_handles=True)
        for outcome in outcomes:
            outcome.result["agent_seed"] = outcome.spec.seed
            outcome.result["max_steps"] = outcome.spec.max_steps
        return [outcome.result for outcome in outcomes]
