"""The Orchestrator (§2.2): sessions, the agent loop, and evaluation.

v2 is session-centric: :meth:`Orchestrator.create_session` returns a
:class:`SessionHandle` that owns its environment, action registry, and
trajectory, so any number of sessions can run concurrently from one
Orchestrator (the batch executor in :mod:`repro.core.batch` fans them out).
The paper's Example 2.3 onboarding flow (``init_problem`` →
``register_agent`` → ``start_problem``) is a thin façade over one implicit
handle.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import inspect
from typing import Any, NamedTuple, Optional, Union

from repro.core.aci import SubmissionReceived, TaskActions, registry_for
from repro.core.actions import ActionRegistry, Observation
from repro.core.env import CloudEnvironment
from repro.core.evaluator import Evaluator
from repro.core.parser import ActionParseError, parse_action
from repro.core.problem import Problem
from repro.core.session import Session, Step
from repro.simcore import SimError


def run_coroutine_sync(coro) -> Any:
    """Run ``coro`` to completion whether or not a loop is already running.

    ``asyncio.run`` crashes inside a running event loop (notebooks, async
    drivers); in that case the coroutine runs on a fresh loop in a
    dedicated thread instead.
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coro)
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(asyncio.run, coro).result()


class SessionContext(NamedTuple):
    """The context ``C`` shared with the agent (§2.1): description,
    interaction instructions, and the auto-rendered API docs.

    A named tuple, so seed-style unpacking/indexing of the old
    ``(description, instructions, api_docs)`` return value keeps working.
    """

    description: str
    instructions: str
    api_docs: str


#: virtual seconds a step advances the environment when the agent reports
#: no latency of its own
STEP_ENV_SECONDS = 5.0

_INSTRUCTIONS = (
    "Interact step by step. Each response must be exactly one API "
    "call. Finish by calling submit(...). You have a limited number "
    "of steps."
)


class SessionHandle:
    """One problem instance: environment, action surface, agent, trajectory.

    Handles are independent — two handles never share environment or
    session state, which is what makes concurrent batch execution safe.
    Create them via :meth:`Orchestrator.create_session`.
    """

    def __init__(self, problem: Problem, *, seed: int = 0,
                 agent: Any = None, agent_name: str = "agent",
                 env: Optional[CloudEnvironment] = None) -> None:
        self.problem = problem
        self.seed = seed
        # a passed ``env`` was already deployed, warmed up and
        # fault-injected (an EnvSnapshot fork, a lifecycle's shared
        # environment) — adopt it instead of paying the setup again; it
        # stays the caller's if the handle fails to build
        self.env = problem.prepare(seed) if env is None else env
        try:
            self.actions = TaskActions(self.env)
            self.registry: ActionRegistry = registry_for(problem.task_type)
            self.context = SessionContext(
                description=problem.problem_description(self.env),
                instructions=_INSTRUCTIONS,
                api_docs=self.registry.render_docs(),
            )
            self.agent: Any = None
            self.agent_name = agent_name
            if agent is not None:
                self.bind_agent(agent, name=agent_name)
        except BaseException:
            if env is None:
                self.env.close()
            raise
        self.session: Optional[Session] = None
        self.result: Optional[dict] = None

    # ------------------------------------------------------------------
    def bind_agent(self, agent: Any, name: str = "agent") -> "SessionHandle":
        """Attach the agent; it must implement
        ``async def get_action(state: str) -> str`` (sync also accepted)."""
        if not hasattr(agent, "get_action"):
            raise TypeError("agent must implement get_action(state) -> str")
        self.agent = agent
        self.agent_name = name
        return self

    def close(self) -> None:
        """Close the session's environment (:meth:`CloudEnvironment.close`,
        which removes the exporter's own directory and the files in step
        ``artifacts``); :attr:`session` and :attr:`result` stay available."""
        self.env.close()

    # ------------------------------------------------------------------
    async def run(self, max_steps: int = 20) -> dict:
        """Drive the agent loop to completion and return the evaluation."""
        if self.agent is None:
            raise RuntimeError("bind an agent before running the session")

        env = self.env
        session = Session(
            pid=self.problem.pid,
            agent_name=self.agent_name,
            started_at=env.clock.now,
        )
        self.session = session

        state = "Session started. Take your first action."
        solution: Any = None
        for index in range(max_steps):
            raw = await self._ask_agent(state)
            in_tok, out_tok, latency = self._agent_stats()
            session.add_tokens(in_tok, out_tok)
            env.advance(max(latency, 0.0) or STEP_ENV_SECONDS)

            step = Step(
                index=index, time=env.clock.now, action_raw=raw,
                action_name="", action_args=(), observation="",
            )
            try:
                parsed = parse_action(raw, self.registry.names())
                step.action_name = parsed.name
                step.action_args = parsed.args
                if parsed.name == "exec_shell":
                    command = parsed.args[0] if parsed.args \
                        else parsed.kwargs.get("command", "")
                    tokens = str(command).split()
                    step.shell_command = tokens[0] if tokens else ""
                observation = self._execute(parsed)
                step.observation = str(observation)
                if isinstance(observation, Observation):
                    step.payload = observation.payload
                    step.artifacts = observation.artifacts
            except SubmissionReceived as sub:
                solution = sub.solution
                session.submitted = True
                session.solution = solution
                step.observation = "Solution submitted."
                session.add_step(step)
                break
            except ActionParseError as e:
                step.valid = False
                step.action_name = "invalid"
                step.observation = str(e)
            session.add_step(step)
            state = step.observation
        session.ended_at = env.clock.now

        self.result = Evaluator(self.problem, env).evaluate(session, solution)
        return self.result

    def run_sync(self, max_steps: int = 20) -> dict:
        """Synchronous convenience wrapper around :meth:`run` (loop-safe)."""
        return run_coroutine_sync(self.run(max_steps=max_steps))

    # ------------------------------------------------------------------
    async def _ask_agent(self, state: str) -> str:
        result = self.agent.get_action(state)
        if inspect.isawaitable(result):
            result = await result
        return str(result)

    def _agent_stats(self) -> tuple[int, int, float]:
        """Pull (input_tokens, output_tokens, latency_s) for the last call.

        Agents may expose ``consume_stats()``; others get defaults so any
        framework can be wrapped with a few lines (the paper's onboarding
        claim).
        """
        consume = getattr(self.agent, "consume_stats", None)
        if callable(consume):
            return consume()
        return 0, 0, STEP_ENV_SECONDS

    def _execute(self, parsed) -> Any:
        # A TypeError raised *inside* an action body must not be confused
        # with the agent passing bad arguments: bind against the signature
        # first, and only binding failures get the invalid-arguments hint.
        bind_error = self.registry.bind_errors(
            parsed.name, parsed.args, parsed.kwargs)
        if bind_error is not None:
            return bind_error
        try:
            return self.registry.execute(
                self.actions, parsed.name, *parsed.args, **parsed.kwargs)
        except SimError as e:
            # the environment's refusal is the agent's feedback; anything else
            # is a simulator defect for the case boundary (core/batch.py)
            return f"Error: {e}"


class Orchestrator:
    """Coordinates agent ↔ cloud interaction (§2.2).

    v2 usage — any number of concurrent sessions::

        orch = Orchestrator(seed=0)
        handle = orch.create_session(problem, agent, seed=7)
        result = await handle.run(max_steps=10)      # or handle.run_sync()

    The paper's Example 2.3 flow (a façade over one implicit handle)::

        orch = Orchestrator()
        prob_desc, instructs, apis = orch.init_problem(problem)
        orch.register_agent(agent, name="myAgent")
        result = asyncio.run(orch.start_problem(max_steps=10))

    ``init_problem``/``create_session`` also accept a problem id string,
    resolved through :mod:`repro.problems`.

    Parameters
    ----------
    seed:
        Default seed for sessions that don't pass their own.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.handles: list[SessionHandle] = []
        self.sessions: list[Session] = []
        # the Example 2.3 façade's one-problem-at-a-time state
        self._shim_handle: Optional[SessionHandle] = None
        self._shim_agent: Any = None
        self._shim_agent_name: str = "agent"

    # ------------------------------------------------------------------
    # v2 API
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_problem(problem: Union[Problem, str]) -> Problem:
        if isinstance(problem, str):
            from repro.problems import get_problem
            return get_problem(problem)
        return problem

    def create_session(self, problem: Union[Problem, str],
                       agent: Any = None, *,
                       seed: Optional[int] = None,
                       agent_name: str = "agent") -> SessionHandle:
        """Set a problem up (deploy, warm up, inject) in its own
        environment and return the session handle that owns it."""
        handle = SessionHandle(
            self._resolve_problem(problem),
            seed=self.seed if seed is None else seed,
            agent=agent, agent_name=agent_name,
        )
        self.handles.append(handle)
        return handle

    def release(self, handle: SessionHandle) -> None:
        """Stop tracking a handle and reclaim its environment.

        Handles are tracked in :attr:`handles` for the orchestrator's
        lifetime otherwise — call this (keeping the handle's ``session``
        if you need the trajectory) when running many sessions through
        one long-lived orchestrator.  Closes the handle's environment, so
        its temp telemetry-export directory is removed rather than leaked
        one-per-case across a suite."""
        if handle in self.handles:
            self.handles.remove(handle)
        if handle is self._shim_handle:
            self._shim_handle = None
        handle.close()

    # ------------------------------------------------------------------
    # the paper's Example 2.3 façade
    # ------------------------------------------------------------------
    def init_problem(self, problem: Union[Problem, str]) -> SessionContext:
        """Set the problem up and return the context shared with the agent.

        A :meth:`create_session` on the one implicit handle; the returned
        :class:`SessionContext` unpacks as the paper's
        ``(description, instructions, api_docs)`` tuple.
        """
        replaced = self._shim_handle
        self._shim_handle = self.create_session(problem)
        if replaced is not None and replaced in self.handles:
            # the seed flow held one problem at a time; don't pin the
            # replaced handle's environment on the orchestrator (and don't
            # leak its export dir)
            self.handles.remove(replaced)
            replaced.close()
        if self._shim_agent is not None:
            self._shim_handle.bind_agent(self._shim_agent,
                                         self._shim_agent_name)
        return self._shim_handle.context

    def register_agent(self, agent: Any, name: str = "agent") -> None:
        """Register the agent for the façade flow (see :meth:`init_problem`)."""
        if not hasattr(agent, "get_action"):
            raise TypeError("agent must implement get_action(state) -> str")
        self._shim_agent = agent
        self._shim_agent_name = name
        if self._shim_handle is not None:
            self._shim_handle.bind_agent(agent, name)

    async def start_problem(self, max_steps: int = 20) -> dict:
        """Run the façade's session loop and return the evaluation results dict."""
        handle = self._shim_handle
        if handle is None:
            raise RuntimeError("call init_problem() before start_problem()")
        if handle.agent is None:
            raise RuntimeError("call register_agent() before start_problem()")
        try:
            return await handle.run(max_steps=max_steps)
        finally:
            # v1 exposed the session from loop start; keep partial
            # trajectories reachable through orch.sessions on error too
            if handle.session is not None \
                    and handle.session not in self.sessions:
                self.sessions.append(handle.session)

    def run_problem(self, max_steps: int = 20) -> dict:
        """Synchronous wrapper around :meth:`start_problem`.

        Safe to call from inside a running event loop (notebooks, async
        drivers): the session then runs on a fresh loop in a worker thread.
        """
        return run_coroutine_sync(self.start_problem(max_steps=max_steps))

    # -- views of the implicit handle (examples read these) ---------------
    @property
    def problem(self) -> Optional[Problem]:
        return self._shim_handle.problem if self._shim_handle else None

    @property
    def env(self) -> Optional[CloudEnvironment]:
        return self._shim_handle.env if self._shim_handle else None

    @property
    def actions(self) -> Optional[TaskActions]:
        return self._shim_handle.actions if self._shim_handle else None

    @property
    def session(self) -> Optional[Session]:
        return self._shim_handle.session if self._shim_handle else None
