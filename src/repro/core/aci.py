"""The Agent-Cloud Interface (§2.2.1): the actions agents can take.

Each :func:`~repro.core.actions.action`-decorated method on
:class:`TaskActions` is one valid agent action.  On session creation the
Orchestrator builds an :class:`~repro.core.actions.ActionRegistry` over this
class (narrowed to the problem's task type) and auto-renders the agent's API
documentation from it, exactly as Example 2.2 of the paper describes.

Every action returns a structured :class:`~repro.core.actions.Observation`:
the agent sees ``observation.text``; benchmark analytics and judges get the
machine-readable ``payload`` and the exported ``artifacts`` paths.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.env import CloudEnvironment

from repro.core.actions import ActionRegistry, Observation, action
from repro.core.shell import ShellExecutor


class SubmissionReceived(Exception):
    """Raised internally when the agent calls ``submit`` — ends the session."""

    def __init__(self, solution: object) -> None:
        self.solution = solution
        super().__init__(f"solution submitted: {solution!r}")


def _saved(path: Path, text: str, **payload) -> Observation:
    """An export's observation: the text names its directory (named after
    its kind) relative to the export root, where the shell's file tools
    resolve it; only the artifacts hold the absolute path."""
    return Observation(f"Saved {path.name} to {path.name}. {text}",
                       artifacts=(str(path),), payload=payload)


def _missing(name: str, **payload) -> Observation:
    """The paper's answer to an unknown namespace or service (§3.6.3)."""
    return Observation.error(
        f"Error: Your service/namespace does not exist: {name}", **payload)


class TaskActions:
    """Concrete ACI over one :class:`CloudEnvironment`.

    All telemetry getters save data under the environment's export root and
    return both the path and a compact, agent-readable rendering — the
    high-quality feedback §2.2.1 calls for.
    """

    def __init__(self, env: "CloudEnvironment") -> None:
        self.env = env
        self.shell = ShellExecutor(env)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    @action
    def get_logs(self, namespace: str, service: str,
                 tail: int = 20) -> Observation:
        """
        Collects recent application logs for a service (via the log pipeline).

        Args:
            namespace (str): The K8S namespace of the application.
            service (str): The service whose logs to fetch, or "all" for an
                error summary across every service.
            tail (int): Number of most recent lines to return.
        Returns:
            str: Path where logs are saved, plus the log lines.
        """
        ns = namespace or self.env.namespace
        if ns not in self.env.cluster.namespaces:
            return _missing(ns, namespace=ns)
        path = self.env.exporter.export_logs(ns)
        if service in ("all", "*", ""):
            counts = self.env.collector.logs.error_counts(ns)
            if not counts:
                return _saved(path, f"No ERROR-level log lines found in "
                              f"namespace {ns}.", namespace=ns,
                              error_counts={})
            summary = "\n".join(
                f"  {svc}: {n} ERROR lines"
                for svc, n in sorted(counts.items(), key=lambda kv: -kv[1])
            )
            return _saved(path, f"ERROR lines per service:\n{summary}",
                          namespace=ns, error_counts=dict(counts))
        app = self.env.app_for(ns, fallback=self.env.app)
        known = self.env.collector.logs.services_seen(ns) | set(app.services)
        if service not in known:
            return _missing(service, namespace=ns, service=service)
        n = int(tail)
        text = self.env.collector.logs.tail(ns, n, service=service)
        if not text and n:  # tail=0 asks for no lines, not "none yet"
            return _saved(path, f"Service {service} has produced no log "
                          f"lines yet.", namespace=ns, service=service,
                          lines=[])
        return _saved(path, f"Last lines of {service}:\n{text}",
                      namespace=ns, service=service,
                      lines=text.splitlines())

    @action
    def get_metrics(self, namespace: str, duration: int = 5) -> Observation:
        """
        Collects service metrics (CPU, memory, request/error rates) from the
        monitoring stack for the last `duration` minutes.

        Args:
            namespace (str): The K8S namespace, or "all" for a snapshot
                spanning every hosted application's namespace.
            duration (int): Minutes of history to export.
        Returns:
            str: Path where metrics are saved, plus a per-service snapshot.
        """
        spanning = namespace in ("all", "*")
        ns = namespace or self.env.namespace
        if not spanning and ns not in self.env.cluster.namespaces:
            return _missing(ns, namespace=ns)
        since = max(self.env.clock.now - duration * 60.0, 0.0)
        path = self.env.exporter.export_metrics(since=since)
        collector = self.env.collector
        store = collector.metrics
        lines = []
        err = store.snapshot_latest("error_rate")
        cpu = store.snapshot_latest("cpu_usage")
        rate = store.snapshot_latest("request_rate")
        snapshot = {}
        for svc in sorted(set(err) | set(cpu)):
            # metric keys are namespace-qualified for non-primary apps;
            # a scoped view keeps only the requested namespace's services
            # (shown bare), a spanning view keeps the qualified names
            svc_ns, bare = collector.split(svc)
            if not spanning and svc_ns != ns:
                continue
            shown = svc if spanning else bare
            snapshot[shown] = {
                "cpu_m": cpu.get(svc, 0),
                "request_rate": rate.get(svc, 0),
                "error_rate": err.get(svc, 0),
            }
            lines.append(
                f"  {shown}: cpu={cpu.get(svc, 0):.0f}m "
                f"req_rate={rate.get(svc, 0):.1f}/s "
                f"err_rate={err.get(svc, 0):.2f}/s"
            )
        body = "\n".join(lines) if lines else "  (no samples yet)"
        return _saved(path, f"Latest snapshot:\n{body}", namespace=ns,
                      snapshot=snapshot)

    @action
    def get_traces(self, namespace: str, duration: int = 5) -> Observation:
        """
        Collects trace data of the services from the tracing backend.

        Args:
            namespace (str): The K8S namespace.
            duration (int): Minutes of traces to collect.
        Returns:
            str: Path to the saved traces, plus an error-span summary.
        """
        ns = namespace or self.env.namespace
        if ns not in self.env.cluster.namespaces:
            return _missing(ns, namespace=ns)
        since = max(self.env.clock.now - duration * 60.0, 0.0)
        path = self.env.exporter.export_traces(since=since)
        rates = self.env.collector.traces.error_rate_by_service(since=since)
        errored = {svc: r for svc, r in rates.items() if r > 0}
        if not errored:
            return _saved(path, "No error spans in the window.",
                          namespace=ns, error_rates={})
        lines = "\n".join(
            f"  {svc}: {r * 100:.0f}% of spans errored"
            for svc, r in sorted(errored.items(), key=lambda kv: -kv[1])
        )
        return _saved(path, f"Services with error spans:\n{lines}",
                      namespace=ns, error_rates=errored)

    # ------------------------------------------------------------------
    # acting on the environment
    # ------------------------------------------------------------------
    @action
    def exec_shell(self, command: str) -> Observation:
        """
        Executes a shell command after applying security policy filters.
        kubectl and helm are available; destructive commands are blocked.

        Args:
            command (str): The command, e.g. "kubectl get pods -n <ns>".
        Returns:
            str: Command output or error text.
        """
        out = self.shell.run(command)
        return Observation.of(out)

    @action(task_types=("mitigation",))
    def restart_service(self, service: str) -> Observation:
        """
        Restarts one service's deployment (rollout restart) — a common
        first-line mitigation. Only available on mitigation tasks; on other
        tasks use the telemetry APIs and submit your answer.

        Args:
            service (str): The deployment/service name to restart.
        Returns:
            str: The rollout output.
        """
        out = self.shell.run(
            f"kubectl rollout restart deployment {service} "
            f"-n {self.env.namespace}")
        return Observation.of(out)

    @action
    def submit(self, solution: object = None) -> Observation:
        """
        Submits the final solution for the current task and ends the session.
        Detection: "yes"/"no". Localization: service name(s), most suspect
        first. Analysis: {"system_level": ..., "fault_type": ...}.
        Mitigation: call submit() after your fix; the environment itself
        is checked.

        Args:
            solution: The task-specific answer (may be omitted for mitigation).
        Returns:
            str: (never returns; ends the session)
        """
        raise SubmissionReceived(solution)


#: the registry over the default ACI (all tasks); sessions narrow it
DEFAULT_REGISTRY = ActionRegistry.from_class(TaskActions)


def registry_for(task_type: str = "") -> ActionRegistry:
    """The action surface for one task type (mitigation sees extra actions)."""
    return DEFAULT_REGISTRY.for_task(task_type)
