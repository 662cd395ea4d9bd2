"""The paper's primary contribution: the Orchestrator and Agent-Cloud Interface.

* :class:`CloudEnvironment` — one deployed app + cluster + telemetry +
  workload, on a shared virtual clock.
* :class:`TaskActions` (ACI) — the documented action surface agents act
  through.  Actions are registered with the :func:`action` decorator,
  collected into an :class:`ActionRegistry` (per-task surfaces, e.g.
  mitigation-only actions), and return structured :class:`Observation`\\ s.
* :class:`Problem` and the four task interfaces (Detection / Localization /
  Analysis / Mitigation) — the ⟨T, C, S⟩ tuple of §2.1.
* :class:`Orchestrator` — session management, v2: ``create_session(problem,
  agent, seed=...)`` returns a :class:`SessionHandle` owning its own
  environment; ``await handle.run(max_steps)`` drives the loop.  The
  paper's Example 2.3 flow (``init_problem`` → ``register_agent`` →
  ``start_problem``) is a façade over one implicit handle.
* :func:`run_sessions_sync` — the batch executor: run independent
  :class:`SessionSpec`\\ s serially or over a process pool with
  deterministic, spec-ordered results.
"""

from repro.core.env import (
    AppSpec,
    CloudEnvironment,
    EnvSnapshot,
    FIDELITY_TIERS,
)
from repro.core.actions import ActionRegistry, ActionSpec, Observation, action
from repro.core.aci import TaskActions, registry_for
from repro.core.problem import (
    Problem,
    DetectionTask,
    LocalizationTask,
    AnalysisTask,
    MitigationTask,
)
from repro.core.session import Session, Step
from repro.core.orchestrator import (
    Orchestrator,
    SessionContext,
    SessionHandle,
    run_coroutine_sync,
)
from repro.core.batch import (
    GridCell,
    SessionOutcome,
    SessionSpec,
    run_sessions_sync,
)
from repro.core.evaluator import Evaluator, system_healthy
from repro.core.judge import LlmJudge
from repro.core.lifecycle import IncidentLifecycle, LifecycleResult, StageResult
from repro.core.trajectory import load_session, save_all, save_session

__all__ = [
    "IncidentLifecycle",
    "LifecycleResult",
    "StageResult",
    "load_session",
    "save_all",
    "save_session",
    "AppSpec",
    "CloudEnvironment",
    "EnvSnapshot",
    "FIDELITY_TIERS",
    "ActionRegistry",
    "ActionSpec",
    "Observation",
    "action",
    "TaskActions",
    "registry_for",
    "Problem",
    "DetectionTask",
    "LocalizationTask",
    "AnalysisTask",
    "MitigationTask",
    "Session",
    "Step",
    "Orchestrator",
    "SessionContext",
    "SessionHandle",
    "run_coroutine_sync",
    "GridCell",
    "SessionOutcome",
    "SessionSpec",
    "run_sessions_sync",
    "Evaluator",
    "system_healthy",
    "LlmJudge",
]
