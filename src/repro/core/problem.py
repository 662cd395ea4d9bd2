"""Problem definition: the ⟨T, C, S⟩ tuple and the four task interfaces (§2.1).

Users define new problems exactly like the paper's Example 2.1: subclass a
task interface, point it at an app, a fault and a target, and give the
expected solution.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.apps import APP_CLASSES
from repro.core.env import CloudEnvironment
from repro.core.evaluator import system_healthy
from repro.faults import (
    INJECTOR_CLASSES as _INJECTOR_CLASSES,
    FaultSpec,
    get_fault_spec,
)


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
    workload_rate: float = 60.0
    #: request-execution fidelity tier (see repro.core.env.FIDELITY_TIERS):
    #: every benchmark problem stays "per_request" (bit-identical results);
    #: detection/localization-style problems whose grading reads only
    #: aggregate telemetry may opt into "aggregate" for high-rate runs.
    fidelity: str = "per_request"

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
        self.injected_at: Optional[float] = None
        self._injector = None

    def _default_pid(self) -> str:
        fault_key = self.spec.fault_key if self.spec else "noop"
        return (f"{fault_key}_{self.app_cls.short_name}-{self.task_type}-"
                f"{self.target or 'none'}")

    # ------------------------------------------------------------------
    # lifecycle (called by the Orchestrator)
    # ------------------------------------------------------------------
    def create_environment(self, seed: int = 0) -> CloudEnvironment:
        return CloudEnvironment(self.app_cls, seed=seed,
                                workload_rate=self.workload_rate,
                                fidelity=self.fidelity)

    def start_workload(self, env: CloudEnvironment) -> None:
        """Warm the system up with healthy traffic."""
        env.advance(self.warmup_seconds)

    def inject_fault(self, env: CloudEnvironment) -> None:
        """Inject the fault and let it soak so telemetry shows it."""
        if self.spec is None:
            self.injected_at = env.clock.now
            env.advance(self.fault_soak_seconds)
            return
        injector_cls = _INJECTOR_CLASSES[self.spec.injector]
        self._injector = injector_cls(env.app)
        self._injector._inject([self.target], self.spec.fault_key)
        self.injected_at = env.clock.now
        env.advance(self.fault_soak_seconds)

    def prepare(self, seed: int = 0) -> CloudEnvironment:
        """Deploy, warm up, inject and soak: the environment a session, a
        baseline or a snapshot starts from.  The caller owns (and closes)
        the returned environment."""
        env = self.create_environment(seed=seed)
        self.start_workload(env)
        self.inject_fault(env)
        return env

    def recover_fault(self, env: CloudEnvironment) -> None:
        """Oracle recovery (used for cleanup and for testing solvability)."""
        if self._injector is not None:
            self._injector.recover_all()

    # ------------------------------------------------------------------
    # the I in C: information shared with the agent
    # ------------------------------------------------------------------
    def problem_description(self, env: CloudEnvironment) -> str:
        services = ", ".join(sorted(env.app.services))
        return (
            f"You are an AIOps agent operating the {self.app_name} "
            f"microservice application deployed in Kubernetes namespace "
            f'"{env.namespace}".\n'
            f"Services: {services}.\n"
            f"A live workload is running against the frontend "
            f"({env.app.frontend_url}).\n"
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
