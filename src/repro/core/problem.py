"""Problem definition: the ⟨T, C, S⟩ tuple and the four task interfaces (§2.1).

Users define new problems exactly like the paper's Example 2.1: subclass a
task interface, point it at an app, a fault and a target, and give the
expected solution.

A problem's preparation is plain values: the environment's inputs
(``apps``, ``fidelity``, the resource-plane fields) and a ``timeline`` (a
:class:`~repro.faults.schedule.FaultSchedule`).  A paper problem's
timeline injects its fault into its target as it is armed, a Noop
problem's is empty and a scenario record copies its values onto a task
class.  ``inject_fault`` arms the timeline onto ``env.armed`` — the one
path from a fault to the environment — and ``recover_fault`` tears it
down; a problem keeps no run state.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any, Optional

from repro.apps import APP_CLASSES
from repro.core.env import AppSpec, CloudEnvironment
from repro.core.evaluator import system_healthy
from repro.faults import FaultSchedule, FaultSpec, get_fault_spec
from repro.kubesim import HpaPolicy, NodeSpec


class Problem:
    """Base problem: task ``T``, context ``C = ⟨E, I⟩`` and solution ``S``.

    Parameters
    ----------
    fault:
        The Table-2 fault name or number (resolved via the fault library),
        or None for a no-fault (Noop) problem.
    target:
        The service the fault is injected into.
    app_name:
        Which application the problem runs on (overrides the fault's
        default application; used by Noop).
    """

    task_type: str = "generic"
    #: seconds of healthy traffic before injection
    warmup_seconds: float = 30.0
    #: seconds of faulty traffic before the agent is engaged
    fault_soak_seconds: float = 30.0
    #: request-execution fidelity tier (see repro.core.env.FIDELITY_TIERS):
    #: every benchmark problem stays "per_request" (bit-identical results);
    #: detection/localization-style problems whose grading reads only
    #: aggregate telemetry may opt into "aggregate" for high-rate runs.
    fidelity: str = "per_request"
    #: resource-plane inputs, passed to :class:`CloudEnvironment` as is
    resource_coupling: bool = False
    node_specs: Optional[tuple[NodeSpec, ...]] = None
    autoscale: Optional[tuple[HpaPolicy, ...]] = None

    def __init__(
        self,
        fault: Optional[str | int],
        target: Optional[str] = None,
        app_name: Optional[str] = None,
        pid: Optional[str] = None,
    ) -> None:
        self.spec: Optional[FaultSpec] = (
            get_fault_spec(fault) if fault is not None else None
        )
        if self.spec is not None and self.spec.injector == "none":
            self.spec = None  # Noop behaves like no fault at all
        resolved_app = app_name or (self.spec.application if self.spec else None)
        if resolved_app not in APP_CLASSES:
            raise ValueError(f"unknown application {resolved_app!r}")
        self.app_name = resolved_app
        self.app_cls = APP_CLASSES[resolved_app]
        if target is None and self.spec is not None:
            defaults = self.spec.targets.get(resolved_app, ())
            target = defaults[0] if defaults else None
        self.target = target
        self.ans: Any = target
        self.pid = pid or self._default_pid()
        #: the hosted applications, first = the primary app graded on
        self.apps: tuple[AppSpec, ...] = (AppSpec(self.app_cls),)
        #: what ``inject_fault`` arms: the fault into the target at +0
        self.timeline = FaultSchedule() if self.spec is None else \
            FaultSchedule().inject(0.0, self.spec.name, (target,))

    @property
    def workload_rate(self) -> float:
        """The primary app's rate, stated once on ``apps[0]``."""
        return self.apps[0].workload_rate

    def __init_subclass__(cls) -> None:
        if "workload_rate" in vars(cls):  # would shadow the property
            raise TypeError(f"{cls.__name__}: set the rate on apps[0]")

    def _default_pid(self) -> str:
        fault_key = self.spec.fault_key if self.spec else "noop"
        return (f"{fault_key}_{self.app_cls.short_name}-{self.task_type}-"
                f"{self.target or 'none'}")

    # ------------------------------------------------------------------
    # lifecycle (called by the Orchestrator)
    # ------------------------------------------------------------------
    def create_environment(self, seed: int = 0) -> CloudEnvironment:
        return CloudEnvironment(self.apps, seed=seed, fidelity=self.fidelity,
                                resource_coupling=self.resource_coupling,
                                node_specs=self.node_specs,
                                autoscale=self.autoscale)

    def start_workload(self, env: CloudEnvironment) -> None:
        """Warm the system up with healthy traffic."""
        env.advance(self.warmup_seconds)

    def inject_fault(self, env: CloudEnvironment) -> None:
        """Arm the timeline and soak so telemetry shows the fault.

        An entry at +0 is queued ahead of the soak's first tick, so it
        lands before any request of the soak runs; later entries fire
        during the soak or mid-session."""
        env.armed = self.timeline.arm(env)
        env.advance(self.fault_soak_seconds)

    def prepare(self, seed: int = 0) -> CloudEnvironment:
        """Deploy, warm up, inject and soak: the environment a session, a
        baseline or a snapshot starts from.  The caller owns (and closes)
        the returned environment."""
        env = self.create_environment(seed=seed)
        self.start_workload(env)
        self.inject_fault(env)
        return env

    def incident_key(self) -> str:
        """A digest of what :meth:`prepare` builds from: the definition
        values and the preparation steps by qualified name, so a subclass
        that overrides a step prepares its own incident.  An incident's
        task pids share it.  Read on each call, never cached: equal
        definitions that pickle differently only miss a share."""
        cls = type(self)
        values = [getattr(self, name) for name in (
            "apps", "fidelity", "resource_coupling", "node_specs",
            "autoscale", "timeline", "warmup_seconds", "fault_soak_seconds")]
        steps = [(fn.__module__, fn.__qualname__) for fn in (
            cls.prepare, cls.create_environment, cls.start_workload,
            cls.inject_fault)]
        return hashlib.sha256(pickle.dumps((values, steps))).hexdigest()

    def recover_fault(self, env: CloudEnvironment) -> None:
        """Oracle recovery (used for cleanup and for testing solvability):
        cancel what has not fired, undo what has."""
        if env.armed is not None:
            env.armed.cancel_pending()
            env.armed.recover_all()

    # ------------------------------------------------------------------
    # the I in C: information shared with the agent
    # ------------------------------------------------------------------
    def problem_description(self, env: CloudEnvironment) -> str:
        """The primary app first (agent scaffolds parse the first
        ``namespace "..."`` they see), then each co-hosted app."""
        services = ", ".join(sorted(env.app.services))
        neighbors = "".join(
            f"A second application ({a.name}) is co-hosted on the same "
            f'cluster in namespace "{a.namespace}" '
            f"(services: {', '.join(sorted(a.services))}).\n"
            for a in env.apps[1:])
        return (
            f"You are an AIOps agent operating the {self.app_name} "
            f"microservice application deployed in Kubernetes namespace "
            f'"{env.namespace}".\n'
            f"Services: {services}.\n"
            f"A live workload is running against the frontend "
            f"({env.app.frontend_url}).\n"
            f"{neighbors}"
            f"Task: {self.task_instructions()}"
        )

    def task_instructions(self) -> str:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def eval(self, soln: Any, trace: Any, duration: float,
             env: Optional[CloudEnvironment] = None) -> dict:
        """Task-specific grading; subclasses extend the returned dict."""
        raise NotImplementedError


def _norm(s: Any) -> str:
    return str(s).strip().strip('"\'').lower()


class DetectionTask(Problem):
    """Level 1: is there an anomaly? Binary yes/no (§3.3)."""

    task_type = "detection"

    def __init__(self, fault, target=None, app_name=None, pid=None,
                 expected: Optional[str] = None) -> None:
        super().__init__(fault, target, app_name, pid)
        self.ans = expected if expected is not None else (
            "yes" if self.spec is not None else "no"
        )

    def task_instructions(self) -> str:
        return ('Detect whether the system currently has a fault. Submit '
                'exactly "yes" if a fault is present or "no" otherwise, '
                'via submit("yes"|"no").')

    def eval(self, soln, trace, duration, env=None) -> dict:
        res: dict[str, Any] = {"TTD": duration}
        res["success"] = _norm(soln) == _norm(self.ans)
        return res


class LocalizationTask(Problem):
    """Level 2: which service is at fault? Graded at top-1 and top-3."""

    task_type = "localization"

    def task_instructions(self) -> str:
        return ("Localize the faulty service. Submit a list of up to 3 "
                "candidate service names, most suspect first, via "
                'submit(["service-a", ...]).')

    def eval(self, soln, trace, duration, env=None) -> dict:
        res: dict[str, Any] = {"TTL": duration}
        if isinstance(soln, (list, tuple)):
            candidates = [_norm(x) for x in soln]
        else:
            candidates = [_norm(x) for x in str(soln).split(",")]
        truth = _norm(self.ans)
        res["success@1"] = bool(candidates) and candidates[0] == truth
        res["success@3"] = truth in candidates[:3]
        res["success"] = res["success@1"]
        return res


class AnalysisTask(Problem):
    """Level 3: root-cause analysis — two sub-answers (§3.3):
    the affected system level and the fault type."""

    task_type = "analysis"

    VALID_LEVELS = ("application", "virtualization", "network", "hardware")
    VALID_TYPES = ("misconfiguration", "operation_error", "code_bug",
                   "network_loss", "pod_failure", "resource_exhaustion")

    def task_instructions(self) -> str:
        return ("Determine the root cause. Submit a dict with two fields: "
                '{"system_level": one of ' + "/".join(self.VALID_LEVELS) +
                ', "fault_type": one of ' + "/".join(self.VALID_TYPES) +
                "} via submit({...}).")

    def eval(self, soln, trace, duration, env=None) -> dict:
        res: dict[str, Any] = {"TTA": duration}
        level_truth = _norm(self.spec.rca_system_level if self.spec else "")
        type_truth = _norm(self.spec.rca_fault_type if self.spec else "")
        got_level = got_type = ""
        if isinstance(soln, dict):
            got_level = _norm(soln.get("system_level", ""))
            got_type = _norm(soln.get("fault_type", ""))
        res["level_correct"] = got_level == level_truth
        res["type_correct"] = got_type == type_truth
        res["subtasks_correct"] = int(res["level_correct"]) + int(res["type_correct"])
        res["success"] = res["level_correct"] and res["type_correct"]
        return res


class MitigationTask(Problem):
    """Level 4: fix the fault.  Graded on the state of the whole system,
    not just the injected resource (§2.1)."""

    task_type = "mitigation"

    def task_instructions(self) -> str:
        return ("Mitigate the fault: use exec_shell (kubectl/helm) and the "
                "telemetry APIs to repair the system, then call submit() "
                "with no arguments. The whole system must be healthy.")

    def eval(self, soln, trace, duration, env=None) -> dict:
        res: dict[str, Any] = {"TTM": duration}
        if env is None:
            res["success"] = False
            res["reason"] = "no environment to check"
            return res
        healthy, reason = system_healthy(env)
        res["success"] = healthy
        res["reason"] = reason
        return res


#: task name -> task interface, in lifecycle order (Figure 1) — the one
#: statement of the task vocabulary; ``tuple(TASK_CLASSES)`` is the task list
TASK_CLASSES: dict[str, type[Problem]] = {
    cls.task_type: cls
    for cls in (DetectionTask, LocalizationTask, AnalysisTask, MitigationTask)
}
