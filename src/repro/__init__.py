"""AIOpsLab reproduction — evaluate AI agents for autonomous clouds.

Reproduction of *AIOpsLab: A Holistic Framework to Evaluate AI Agents for
Enabling Autonomous Clouds* (MLSys 2025).  Top-level re-exports cover the
public workflow: define or pick a problem, orchestrate an agent against the
deployed environment, evaluate.

Session-centric v2 API — each session owns its environment, so any number
can run concurrently::

    >>> from repro import Orchestrator, LocalizationTask
    >>> orch = Orchestrator()
    >>> handle = orch.create_session(
    ...     LocalizationTask("TargetPortMisconfig"), seed=0)
    >>> agent = MyAgent(*handle.context)      # (description, instructions,
    ...                                       #  api_docs) from the registry
    >>> result = handle.bind_agent(agent).run_sync(max_steps=10)

Batches fan out over worker processes with results independent of the
concurrency level::

    >>> from repro import SessionSpec, run_sessions_sync
    >>> outcomes = run_sessions_sync(
    ...     [SessionSpec(pid, agent_factory("react"), seed=i)
    ...      for i, pid in enumerate(benchmark_pids())],
    ...     concurrency=8)

The paper's Example 2.3 flow — ``init_problem`` → ``register_agent`` →
``start_problem`` — is a thin façade over one implicit session.
"""

__version__ = "3.17.0"

from repro.core import (
    ActionRegistry,
    AnalysisTask,
    AppSpec,
    CloudEnvironment,
    DetectionTask,
    IncidentLifecycle,
    LlmJudge,
    LocalizationTask,
    MitigationTask,
    Observation,
    Orchestrator,
    Problem,
    SessionHandle,
    SessionOutcome,
    SessionSpec,
    TaskActions,
    action,
    run_sessions_sync,
)
from repro.apps import HotelReservation, SocialNetwork
from repro.agents import AGENT_NAMES, agent_factory, build_agent
from repro.problems import benchmark_pids, get_problem, list_problems
from repro.workload import Wrk

#: paper-style aliases (Example 2.1 imports ``VirtFaultInjector`` and
#: ``Wrk`` directly from the framework package)
from repro.faults import (  # noqa: F401  (re-export)
    ApplicationFaultInjector,
    SymptomaticFaultInjector,
    VirtFaultInjector,
)

__all__ = [
    "__version__",
    "ActionRegistry",
    "AnalysisTask",
    "AppSpec",
    "CloudEnvironment",
    "DetectionTask",
    "IncidentLifecycle",
    "LlmJudge",
    "LocalizationTask",
    "MitigationTask",
    "Observation",
    "Orchestrator",
    "Problem",
    "SessionHandle",
    "SessionOutcome",
    "SessionSpec",
    "TaskActions",
    "action",
    "run_sessions_sync",
    "HotelReservation",
    "SocialNetwork",
    "AGENT_NAMES",
    "agent_factory",
    "build_agent",
    "benchmark_pids",
    "get_problem",
    "list_problems",
    "Wrk",
    "ApplicationFaultInjector",
    "SymptomaticFaultInjector",
    "VirtFaultInjector",
]
